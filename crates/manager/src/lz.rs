//! The byte-oriented LZ77 codec sealed log chunks are stored in.
//!
//! A workflow history repeats a handful of control-flow patterns, so the
//! packed stream of [`crate::log`] is mostly copies of what it said a few
//! hundred bytes earlier.  The layout is the LZ4 block's, found by its greedy
//! matcher (one hash probe per position on the next four bytes):
//!
//! ```text
//! packed := STORED raw*                          it did not shrink: as it is
//!         | LZ varint(raw length) sequence*
//! seq    := token length* literal* [offset length*]
//! token  := literal count in bits 4–7, match length - 4 in bits 0–3; a nibble
//!           of 15 continues in length bytes, each adding up to 255, the
//!           first below 255 being the last
//! offset := two bytes, little endian: the match starts that far back in the
//!           output and may run into the bytes it produces
//! ```
//!
//! Unlike LZ4 proper there are no end-of-block rules: a match may end the
//! buffer, and the last sequence may end after its literals.

use ix_core::pack::{read_varint, write_varint};

const STORED: u8 = 0;
const LZ: u8 = 1;

const MIN_MATCH: usize = 4;
const MAX_OFFSET: usize = u16::MAX as usize;
const HASH_BITS: u32 = 12;

/// `raw`, compressed if that makes it smaller: never more than one byte
/// longer than `raw`.
pub(crate) fn pack(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 8 + 16);
    out.push(LZ);
    write_varint(&mut out, raw.len() as u64);
    // Where the four bytes hashing to a slot were last seen.  A slot never
    // written reads as position 0, which the comparison below vets like any
    // other candidate.
    let mut table = [0u32; 1 << HASH_BITS];
    let (mut anchor, mut pos) = (0, 0);
    while pos + MIN_MATCH <= raw.len() {
        let here = &raw[pos..pos + MIN_MATCH];
        let word = u32::from_le_bytes(here.try_into().expect("four bytes"));
        let slot = &mut table[(word.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize];
        let candidate = std::mem::replace(slot, pos as u32) as usize;
        if candidate < pos
            && pos - candidate <= MAX_OFFSET
            && raw[candidate..candidate + MIN_MATCH] == *here
        {
            let len = MIN_MATCH
                + raw[pos + MIN_MATCH..]
                    .iter()
                    .zip(&raw[candidate + MIN_MATCH..])
                    .take_while(|(a, b)| a == b)
                    .count();
            write_sequence(&mut out, &raw[anchor..pos], Some((pos - candidate, len)));
            pos += len;
            anchor = pos;
        } else {
            pos += 1;
        }
    }
    if anchor < raw.len() {
        write_sequence(&mut out, &raw[anchor..], None);
    }
    if out.len() > raw.len() {
        out.clear();
        out.push(STORED);
        out.extend_from_slice(raw);
    }
    out
}

fn write_sequence(out: &mut Vec<u8>, literals: &[u8], copy: Option<(usize, usize)>) {
    let extra = copy.map_or(0, |(_, len)| len - MIN_MATCH);
    out.push((literals.len().min(15) as u8) << 4 | extra.min(15) as u8);
    write_length(out, literals.len());
    out.extend_from_slice(literals);
    if let Some((offset, _)) = copy {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        write_length(out, extra);
    }
}

/// The part of a length its token nibble could not hold.
fn write_length(out: &mut Vec<u8>, len: usize) {
    if let Some(mut rest) = len.checked_sub(15) {
        while rest >= 255 {
            out.push(255);
            rest -= 255;
        }
        out.push(rest as u8);
    }
}

fn read_length(src: &mut &[u8], nibble: u8) -> Option<usize> {
    let mut len = usize::from(nibble);
    if nibble == 15 {
        loop {
            let byte = take(src, 1)?[0];
            len += usize::from(byte);
            if byte < 255 {
                break;
            }
        }
    }
    Some(len)
}

fn take<'a>(src: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, rest) = src.split_at_checked(n)?;
    *src = rest;
    Some(head)
}

/// Replaces the contents of `out` by the bytes `packed` was made from;
/// `None` if `packed` is not the output of [`pack`].
pub(crate) fn unpack(packed: &[u8], out: &mut Vec<u8>) -> Option<()> {
    out.clear();
    let (&flag, mut src) = packed.split_first()?;
    if flag == STORED {
        out.extend_from_slice(src);
        return Some(());
    }
    // A length byte stands for at most 255 bytes of output.
    let raw_len = usize::try_from(read_varint(&mut src)?).ok()?;
    if raw_len > src.len().saturating_mul(255) {
        return None;
    }
    out.reserve_exact(raw_len);
    while !src.is_empty() {
        let token = take(&mut src, 1)?[0];
        let literals = read_length(&mut src, token >> 4)?;
        out.extend_from_slice(take(&mut src, literals)?);
        if src.is_empty() {
            break;
        }
        let offset = usize::from(u16::from_le_bytes(take(&mut src, 2)?.try_into().ok()?));
        let mut left = read_length(&mut src, token & 15)? + MIN_MATCH;
        let start = out.len().checked_sub(offset).filter(|_| offset > 0)?;
        if left > raw_len.saturating_sub(out.len()) {
            return None;
        }
        // A match longer than its offset repeats: every round copies what
        // the ones before it produced as well.
        while left > 0 {
            let n = left.min(out.len() - start);
            out.extend_from_within(start..start + n);
            left -= n;
        }
    }
    (out.len() == raw_len).then_some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(raw: &[u8]) -> Vec<u8> {
        let packed = pack(raw);
        assert!(packed.len() <= raw.len() + 1, "{} bytes from {}", packed.len(), raw.len());
        // Whatever the buffer held before is gone.
        let mut out = vec![0xAA; 7];
        assert_eq!(unpack(&packed, &mut out), Some(()));
        assert_eq!(out, raw);
        packed
    }

    /// Bytes no four of which repeat within reach: xorshift output.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        };
        std::iter::repeat_with(step).take(len).collect()
    }

    #[test]
    fn short_buffers_are_stored() {
        assert_eq!(round_trip(&[]), [STORED]);
        assert_eq!(round_trip(&[7]), [STORED, 7]);
        assert_eq!(round_trip(&[1, 2, 3, 4, 5]), [STORED, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn repetitive_chunks_shrink_to_their_length_bytes() {
        // One literal, then one match overlapping its own output all the way.
        let packed = round_trip(&[9; 64 * 1024]);
        assert!(packed.len() < 300, "{} bytes", packed.len());
        let period: Vec<u8> = (0..64 * 1024).map(|i| (i % 12) as u8 * 17).collect();
        let packed = round_trip(&period);
        assert!(packed.len() < 300, "{} bytes", packed.len());
    }

    #[test]
    fn noise_is_stored_as_it_is() {
        let raw = noise(64 * 1024);
        let packed = round_trip(&raw);
        assert_eq!((packed[0], &packed[1..]), (STORED, &raw[..]));
    }

    #[test]
    fn overlapping_copies_repeat_their_own_output() {
        // offset 1, 2, 3 and 5 against matches of 40 and more.
        for period in [1usize, 2, 3, 5] {
            let raw: Vec<u8> = (0..period + 40 + period).map(|i| (i % period) as u8 + 1).collect();
            let packed = round_trip(&raw);
            assert_eq!(packed[0], LZ, "period {period}");
        }
        // By hand: literals "ab", then offset 2, length 4 + 3.
        let packed = [LZ, 9, 0x23, b'a', b'b', 2, 0];
        let mut out = Vec::new();
        assert_eq!(unpack(&packed, &mut out), Some(()));
        assert_eq!(out, b"ababababa");
    }

    #[test]
    fn a_match_may_end_the_buffer() {
        let mut raw = noise(40);
        raw.extend_from_within(3..21);
        let packed = round_trip(&raw);
        // literals, then the match as the last thing: offset and no byte after it.
        assert_eq!(packed[0], LZ);
        assert_eq!(packed[packed.len() - 2..], 37u16.to_le_bytes());
        // Literals after the last match end it just as well.
        raw.push(0);
        assert_eq!(round_trip(&raw)[0], LZ);
    }

    #[test]
    fn lengths_around_the_nibble_and_byte_limits_round_trip() {
        for literals in [14usize, 15, 16, 269, 270, 271] {
            for matched in [4usize, 18, 19, 20, 273, 274, 275] {
                let mut raw = noise(literals.max(matched));
                raw.truncate(literals.max(matched));
                let mut buf = raw[..matched].to_vec();
                buf.extend_from_slice(&noise(literals + 300)[300..]);
                buf.extend_from_slice(&raw[..matched]);
                round_trip(&buf);
            }
        }
    }

    #[test]
    fn the_decoder_holds_the_recorded_length_and_refuses_the_rest() {
        let raw: Vec<u8> = (0..500).map(|i| (i % 12) as u8).collect();
        let packed = pack(&raw);
        assert_eq!((packed[0], &packed[1..3]), (LZ, &[0xf4, 0x03][..]), "varint(500)");
        let mut out = Vec::new();
        // A recorded length the sequences exceed or fall short of.
        for wrong in [[0xf3, 0x03], [0xf5, 0x03]] {
            let mut bad = packed.clone();
            bad[1..3].copy_from_slice(&wrong);
            assert_eq!(unpack(&bad, &mut out), None);
        }
        // Truncated anywhere, an offset reaching before the output, offset 0.
        for cut in 0..packed.len() {
            assert_eq!(unpack(&packed[..cut], &mut out), None, "cut at {cut}");
        }
        assert_eq!(unpack(&[LZ, 8, 0x10, b'a', 2, 0], &mut out), None);
        assert_eq!(unpack(&[LZ, 8, 0x10, b'a', 0, 0], &mut out), None);
        assert_eq!(unpack(&[LZ, 5, 0x10, b'a', 1, 0], &mut out), Some(()));
    }

    fn byte() -> impl Strategy<Value = u8> {
        (0u16..256).prop_map(|b| b as u8)
    }

    /// Buffers with structure at every scale: runs of a few alphabets,
    /// repeats of earlier parts at random distances, noise.
    fn arb_buffer() -> impl Strategy<Value = Vec<u8>> {
        let piece = prop_oneof![
            (byte(), 1usize..600).prop_map(|(b, n)| vec![b; n]),
            proptest::collection::vec(0u8..4, 1..200),
            proptest::collection::vec(byte(), 1..100),
            (proptest::collection::vec(byte(), 1..24), 1usize..60)
                .prop_map(|(unit, n)| unit.repeat(n)),
        ];
        proptest::collection::vec((piece, 0usize..65536, 0usize..400), 0..40).prop_map(|pieces| {
            let mut buf: Vec<u8> = Vec::new();
            for (piece, back, len) in pieces {
                buf.extend_from_slice(&piece);
                // A copy of something earlier, possibly overlapping the end.
                let start = buf.len() - 1 - back % buf.len();
                for i in start..start + len {
                    buf.push(buf[i]);
                }
            }
            buf
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn whatever_goes_in_comes_out(raw in arb_buffer()) {
            round_trip(&raw);
        }

        #[test]
        fn bytes_that_were_never_packed_are_refused_not_trusted(
            junk in proptest::collection::vec(byte(), 0..200),
        ) {
            // Any verdict, no panic, and never more than the recorded length.
            let mut out = Vec::new();
            if unpack(&junk, &mut out).is_some() && junk[0] != STORED {
                let mut src = &junk[1..];
                prop_assert_eq!(out.len() as u64, read_varint(&mut src).unwrap());
            }
        }
    }
}
