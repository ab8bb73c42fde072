//! The packed in-memory form of an action.
//!
//! ```text
//! action := varint(name index) varint(arity) arg*
//! arg    := 0 varint(zigzag(i64)) | 1 varint(symbol index) | 2 varint(param index)
//! ```
//!
//! Varints are LEB128 over `u64`.  Names, symbolic values and parameters are
//! written as their interning indices, which are only meaningful inside the
//! process that interned them: the packed form is for in-memory histories
//! (the manager's commit log) and must never reach disk or another process —
//! persistent formats spell symbols out (`ix_durable::encode_action`).

use crate::value::{Param, Term, Value};
use crate::{Action, Symbol};

const TAG_INT: u8 = 0;
const TAG_SYM: u8 = 1;
const TAG_PARAM: u8 = 2;

/// Appends `v` as an LEB128 varint (1 byte below 128, at most 10).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 varint off the front of `buf`; `None` (and `buf`
/// unspecified) if it is truncated or longer than a `u64`.
pub fn read_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for (i, &byte) in buf.iter().enumerate().take(10) {
        v |= u64::from(byte & 0x7f) << (7 * i);
        if byte < 0x80 {
            // The tenth byte holds bit 63 only.
            if i == 9 && byte > 1 {
                return None;
            }
            *buf = &buf[i + 1..];
            return Some(v);
        }
    }
    None
}

fn symbol(buf: &mut &[u8]) -> Option<Symbol> {
    Symbol::from_index(u32::try_from(read_varint(buf)?).ok()?)
}

impl Action {
    /// Appends the packed form of this action to `out`: 2 bytes for a
    /// nullary action with a small name index, 2 more per small argument.
    pub fn pack(&self, out: &mut Vec<u8>) {
        write_varint(out, u64::from(self.name().index()));
        write_varint(out, self.arity() as u64);
        for term in self.args() {
            let (tag, payload) = match term {
                Term::Value(Value::Int(i)) => (TAG_INT, ((i << 1) ^ (i >> 63)) as u64),
                Term::Value(Value::Sym(s)) => (TAG_SYM, u64::from(s.index())),
                Term::Param(p) => (TAG_PARAM, u64::from(p.name().index())),
            };
            out.push(tag);
            write_varint(out, payload);
        }
    }

    /// Decodes one packed action off the front of `buf` and advances `buf`
    /// past it.  `None` if the bytes are truncated, carry an unknown tag, or
    /// name a symbol this process never interned.
    pub fn unpack(buf: &mut &[u8]) -> Option<Action> {
        let name = symbol(buf)?;
        let arity = usize::try_from(read_varint(buf)?).ok()?;
        // Every argument takes at least two bytes: bounds the allocation.
        if arity > buf.len() / 2 {
            return None;
        }
        let mut args = Vec::with_capacity(arity);
        for _ in 0..arity {
            let (&tag, rest) = buf.split_first()?;
            *buf = rest;
            args.push(match tag {
                TAG_INT => {
                    let z = read_varint(buf)?;
                    Term::Value(Value::Int((z >> 1) as i64 ^ -((z & 1) as i64)))
                }
                TAG_SYM => Term::Value(Value::Sym(symbol(buf)?)),
                TAG_PARAM => Term::Param(Param(symbol(buf)?)),
                _ => return None,
            });
        }
        Some(Action::new(name, args))
    }

    /// Length in bytes of the packed action at the front of `buf`, found by
    /// skipping over it without decoding (no symbol lookups, no allocation).
    pub fn packed_len(buf: &[u8]) -> Option<usize> {
        let mut rest = buf;
        read_varint(&mut rest)?;
        for _ in 0..read_varint(&mut rest)? {
            rest = rest.get(1..)?;
            read_varint(&mut rest)?;
        }
        Some(buf.len() - rest.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(action: &Action) -> Vec<u8> {
        let mut bytes = Vec::new();
        action.pack(&mut bytes);
        assert_eq!(Action::packed_len(&bytes), Some(bytes.len()));
        let mut rest = &bytes[..];
        assert_eq!(Action::unpack(&mut rest).as_ref(), Some(action));
        assert!(rest.is_empty());
        bytes
    }

    #[test]
    fn varints_round_trip_at_the_byte_boundaries() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            let mut bytes = Vec::new();
            write_varint(&mut bytes, v);
            let mut rest = &bytes[..];
            assert_eq!(read_varint(&mut rest), Some(v));
            assert!(rest.is_empty());
        }
        assert_eq!(read_varint(&mut &[0x80u8][..]), None, "truncated");
        assert_eq!(read_varint(&mut &[0xffu8; 11][..]), None, "longer than a u64");
        let overflow = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert_eq!(read_varint(&mut &overflow[..]), None, "bit 64 set");
    }

    #[test]
    fn packs_every_term_kind_and_the_integer_extremes() {
        round_trip(&Action::new(
            "pack_mixed",
            [
                Term::Value(Value::int(i64::MIN)),
                Term::Value(Value::int(i64::MAX)),
                Term::Value(Value::int(-1)),
                Term::Value(Value::sym("sono")),
                Term::Param(Param::new("p")),
            ],
        ));
        // Beyond the name: one arity byte, then tag + one payload byte per
        // small argument.
        let nullary = round_trip(&Action::nullary("call"));
        let mut name = Vec::new();
        write_varint(&mut name, u64::from(Symbol::new("call").index()));
        assert_eq!(nullary.len(), name.len() + 1);
        let two = round_trip(&Action::concrete("call", [Value::int(7), Value::int(-3)]));
        assert_eq!(two.len(), nullary.len() + 2 * 2);
    }

    #[test]
    fn unpack_rejects_malformed_bytes() {
        let mut bytes = Vec::new();
        Action::concrete("call", [Value::int(300)]).pack(&mut bytes);
        for cut in 0..bytes.len() {
            assert_eq!(Action::unpack(&mut &bytes[..cut]), None, "truncated at {cut}");
            assert_eq!(Action::packed_len(&bytes[..cut]), None, "truncated at {cut}");
        }
        // The tag sits in front of the two payload bytes of zigzag(300).
        let mut bad_tag = bytes.clone();
        let tag_at = bytes.len() - 3;
        bad_tag[tag_at] = 9;
        assert_eq!(Action::unpack(&mut &bad_tag[..]), None);
        // A name index nobody interned.
        let mut unknown = Vec::new();
        write_varint(&mut unknown, u64::from(u32::MAX));
        write_varint(&mut unknown, 0);
        assert_eq!(Action::unpack(&mut &unknown[..]), None);
        // An arity far beyond the bytes that follow must not allocate for it.
        let mut huge = Vec::new();
        write_varint(&mut huge, u64::from(Symbol::new("call").index()));
        write_varint(&mut huge, u64::MAX);
        assert_eq!(Action::unpack(&mut &huge[..]), None);
    }

    #[test]
    fn unpack_consumes_exactly_one_action() {
        let (a, b) = (Action::concrete("call", [Value::int(1)]), Action::nullary("audit"));
        let mut bytes = Vec::new();
        a.pack(&mut bytes);
        b.pack(&mut bytes);
        let mut rest = &bytes[..];
        assert_eq!(Action::unpack(&mut rest), Some(a));
        assert_eq!(Action::unpack(&mut rest), Some(b));
        assert!(rest.is_empty());
    }
}
