//! A minimal binary codec: LEB128 varints (those of [`ix_core::pack`]),
//! zigzag-encoded signed integers, length-prefixed strings, counted
//! sequences, and the CRC32 (IEEE polynomial) used to frame on-disk WAL
//! records.
//!
//! The codec is deliberately schema-free — every record type that uses it
//! writes and reads its fields in a fixed order and versions itself with a
//! leading byte.  Decoding is total: every read returns a [`CodecError`]
//! instead of panicking, and every count is read through [`Reader::seq`],
//! which allocates nothing for a count past the input, so a torn or corrupt
//! record surfaces as an error the WAL reader can treat as the end of the
//! valid prefix.

use ix_core::pack::{read_varint, write_varint};
use std::fmt;

/// A decoding failure: the buffer ended early or contained an invalid tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// A tag byte had no defined meaning at this position.
    BadTag {
        /// The offending tag value.
        tag: u8,
    },
    /// A length or id referred outside the decoded structure.
    BadReference {
        /// The offending index.
        index: u64,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A version byte named a format this build does not understand.
    BadVersion {
        /// The version encountered.
        version: u8,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record truncated"),
            CodecError::BadTag { tag } => write!(f, "invalid tag byte {tag}"),
            CodecError::BadReference { index } => write!(f, "dangling reference {index}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::BadVersion { version } => write!(f, "unsupported format version {version}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only encode buffer.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forgets what was written and keeps the allocation, so one writer can
    /// encode a series of records.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes an unsigned integer as a LEB128 varint.
    pub fn u64(&mut self, v: u64) {
        write_varint(&mut self.buf, v);
    }

    /// Writes a `u32` as a varint.
    pub fn u32(&mut self, v: u32) {
        self.u64(v as u64);
    }

    /// Writes a `usize` as a varint.
    pub fn len_prefix(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a signed integer zigzag-encoded.
    pub fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.len_prefix(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes raw bytes with a length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.len_prefix(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Appends another writer's bytes verbatim (no length prefix).
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Writes a counted sequence, `item` writing each element — in at least
    /// one byte, which is what bounds [`Reader::seq`].
    pub fn seq<I: IntoIterator>(&mut self, items: I, mut item: impl FnMut(&mut Writer, I::Item))
    where
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.len_prefix(items.len());
        for x in items {
            item(self, x);
        }
    }
}

/// A cursor over an encode buffer.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a boolean byte.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a LEB128 varint: one cut short is [`CodecError::Truncated`],
    /// one past `u64::MAX` a [`CodecError::BadTag`] naming its tenth byte.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let tail = &self.buf[self.pos..];
        let mut rest = tail;
        match read_varint(&mut rest) {
            Some(v) => {
                self.pos = self.buf.len() - rest.len();
                Ok(v)
            }
            None => match tail.get(9) {
                Some(&tag) => Err(CodecError::BadTag { tag }),
                None => Err(CodecError::Truncated),
            },
        }
    }

    /// Reads a `u32` varint.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| CodecError::BadReference { index: v })
    }

    /// Reads a length prefix.
    pub fn len_prefix(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::BadReference { index: v })
    }

    /// Reads a zigzag-encoded signed integer.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        let v = self.u64()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Reads a length-prefixed string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.len_prefix()?;
        let end = self.pos.checked_add(len).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a sequence [`Writer::seq`] wrote, `item` reading each element.
    /// Every element takes at least one byte, so a count past the bytes
    /// left is [`CodecError::Truncated`] before anything is allocated.
    pub fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.len_prefix()?;
        if n > self.buf.len() - self.pos {
            return Err(CodecError::Truncated);
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }
}

/// CRC32 (IEEE 802.3 polynomial, the one zlib and Ethernet use), computed
/// with a lazily built 256-entry table.
pub fn crc32(bytes: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *entry = crc;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip() {
        let mut w = Writer::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            w.u64(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &values {
            assert_eq!(r.u64().unwrap(), v);
        }
        assert_eq!(r.u8(), Err(CodecError::Truncated), "every byte was consumed");
    }

    #[test]
    fn zigzag_round_trips_signed_extremes() {
        let mut w = Writer::new();
        let values = [0i64, -1, 1, i64::MIN, i64::MAX, -1234567];
        for &v in &values {
            w.i64(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &values {
            assert_eq!(r.i64().unwrap(), v);
        }
    }

    #[test]
    fn strings_and_bytes_round_trip() {
        let mut w = Writer::new();
        w.str("sono");
        w.bytes(&[1, 2, 3]);
        w.str("");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.str().unwrap(), "sono");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.str().unwrap(), "");
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..bytes.len() - 1]);
        assert_eq!(r.u64(), Err(CodecError::Truncated));
        let mut r = Reader::new(&[0x85]);
        assert_eq!(r.u64(), Err(CodecError::Truncated));
    }

    #[test]
    fn a_varint_past_u64_max_is_an_error() {
        let mut bytes = [0xff; 11];
        bytes[9] = 0x7f;
        assert_eq!(Reader::new(&bytes[..10]).u64(), Err(CodecError::BadTag { tag: 0x7f }));
        bytes[9] = 0x01;
        assert_eq!(Reader::new(&bytes[..10]).u64(), Ok(u64::MAX));
        bytes[9] = 0xff;
        assert_eq!(Reader::new(&bytes).u64(), Err(CodecError::BadTag { tag: 0xff }));
        assert_eq!(Reader::new(&bytes[..9]).u64(), Err(CodecError::Truncated));
    }

    #[test]
    fn sequences_round_trip_and_a_count_past_the_input_is_truncated() {
        let mut w = Writer::new();
        w.seq([3u64, 300], Writer::u64);
        w.seq(["a", "bc"], |w, s| w.str(s));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.seq(Reader::u64), Ok(vec![3, 300]));
        assert_eq!(r.seq(Reader::str), Ok(vec!["a".to_string(), "bc".to_string()]));
        // Four elements promised, three bytes left.
        let mut r = Reader::new(&[4, 0, 0, 0]);
        assert_eq!(r.seq(Reader::u8), Err(CodecError::Truncated));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic zlib test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }
}
