//! The codec sealed log chunks are stored in: LZ77 with one pair of
//! canonical Huffman codes per chunk.
//!
//! A workflow history repeats a handful of control-flow patterns, so most of
//! the packed stream of [`crate::log`] is a copy of what it said a round
//! earlier; what is left — the literals, the lengths and distances of the
//! copies, the jitter of the key deltas — is far from uniform, and an entropy
//! code takes that too.  The coded form is the body of an RFC 1951 block
//! with dynamic codes behind a framing of our own:
//!
//! ```text
//! packed := STORED raw*                          it did not shrink: as it is
//!         | CODED varint(raw length) bits
//! bits   := HLIT:5 HDIST:5 HCLEN:4                257+, 1+ and 4+ lengths
//!           code-length code: HCLEN lengths of 3 bits, in CL_ORDER
//!           HLIT + HDIST code lengths, run-length coded with symbols 16–18
//!           (literal | length distance)* END     in the two codes
//! ```
//!
//! Bits are read from the low end of each byte up, Huffman codes most
//! significant bit first, extra bits least significant first — as in RFC
//! 1951, so a chunk is a raw DEFLATE stream once `BFINAL = 1, BTYPE = 2` is
//! put in front of its bits.  Lengths run from 3 to 258 and distances from 1
//! to 32 768; codes are at most 15 bits long (7 for the code-length code),
//! and [`pack`] writes only complete ones.  The matcher hashes the next three
//! bytes into short chains over the last [`WINDOW`] positions and defers a
//! three-byte match by one byte when the next position has a longer one.

use ix_core::pack::{read_varint, write_varint};

const STORED: u8 = 0;
const CODED: u8 = 1;

const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;

/// Matches this long end the search for a longer one.
const NICE_MATCH: usize = 64;
/// Matches this long are taken without looking one byte further.
const LAZY_LIMIT: usize = 4;
/// Chain links followed per position.
const MAX_CHAIN: usize = 3;
const HASH_BITS: u32 = 12;
/// Positions the chains reach back over: matches are found at most this far.
const WINDOW: usize = 1 << 12;

const END: usize = 256;
/// Literal/length symbols in use: 286 and 287 have no meaning.
const LIT_SYMBOLS: usize = 286;
/// Distance symbols in use: 30 and 31 have no meaning.
const DIST_SYMBOLS: usize = 30;
const CL_SYMBOLS: usize = 19;
/// The most code lengths HLIT and HDIST can announce.
const MAX_TABLE: usize = 288 + 32;
const MAX_BITS: usize = 15;
const MAX_CL_BITS: usize = 7;
/// The order the code-length code's lengths are written in.
const CL_ORDER: [usize; CL_SYMBOLS] =
    [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] =
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0];
const DIST_BASE: [u16; DIST_SYMBOLS] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; DIST_SYMBOLS] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Index into [`LEN_BASE`] of every `length - 3`.
const LENGTH_CODE: [u8; 256] = {
    let (mut table, mut code, mut l) = ([0u8; 256], 0, 0);
    while l < 256 {
        while code + 1 < LEN_BASE.len() && LEN_BASE[code + 1] as usize <= l + MIN_MATCH {
            code += 1;
        }
        table[l] = code as u8;
        l += 1;
    }
    table
};

/// Index into [`DIST_BASE`] of `distance - 1`, below 256 itself and above
/// it by its top bits (`256 + (distance - 1 >> 7)`): the codes there have
/// seven extra bits and more.
const DISTANCE_CODE: [u8; 512] = {
    let (mut table, mut code, mut i) = ([0u8; 512], 0, 0);
    while i < 512 {
        let d = if i < 256 { i } else { (i - 256) << 7 };
        while code + 1 < DIST_BASE.len() && DIST_BASE[code + 1] as usize <= d + 1 {
            code += 1;
        }
        table[i] = code as u8;
        i += 1;
    }
    table
};

fn length_code(len: usize) -> usize {
    LENGTH_CODE[len - MIN_MATCH].into()
}

fn distance_code(dist: usize) -> usize {
    let d = dist - 1;
    DISTANCE_CODE[if d < 256 { d } else { 256 + (d >> 7) }].into()
}

/// `raw`, compressed if that makes it smaller: never more than one byte
/// longer than `raw`.
pub(crate) fn pack(raw: &[u8]) -> Vec<u8> {
    code(raw, &matches(raw), raw.len()).unwrap_or_else(|| {
        let mut out = Vec::with_capacity(raw.len() + 1);
        out.push(STORED);
        out.extend_from_slice(raw);
        out
    })
}

/// Marks a [`Tokens`] entry that is a run of literals only.
const RUN: u32 = 1 << 31;

/// The matches found in a buffer, in order, and the symbols they and the
/// literals around them count.  A match is one entry: the count of literals
/// before it in bits 23–30, `length - 3` in bits 15–22 and `distance - 1`
/// in bits 0–14; more than 255 literals before it take an entry of their
/// own, marked [`RUN`].  The literals are the buffer's bytes between
/// matches.
struct Tokens {
    list: Vec<u32>,
    lit: [u32; LIT_SYMBOLS],
    dist: [u32; DIST_SYMBOLS],
}

impl Tokens {
    fn new(capacity: usize) -> Tokens {
        Tokens {
            list: Vec::with_capacity(capacity),
            lit: [0; LIT_SYMBOLS],
            dist: [0; DIST_SYMBOLS],
        }
    }

    /// Appends `literals`, then a match.
    fn push(&mut self, literals: &[u8], len: usize, dist: usize) {
        literals.iter().for_each(|&b| self.lit[usize::from(b)] += 1);
        let mut run = literals.len() as u32;
        if run > 255 {
            self.list.push(RUN | run);
            run = 0;
        }
        self.lit[257 + length_code(len)] += 1;
        self.dist[distance_code(dist)] += 1;
        self.list.push(run << 23 | ((len - MIN_MATCH) as u32) << 15 | (dist - 1) as u32);
    }

    /// Counts the literals after the last match, and the end.
    fn finish(&mut self, literals: &[u8]) {
        literals.iter().for_each(|&b| self.lit[usize::from(b)] += 1);
        self.lit[END] += 1;
    }

    /// Bits the counted symbols take in codes of these lengths, extra bits
    /// included.
    fn bits(&self, lit: &[u8; LIT_SYMBOLS], dist: &[u8; DIST_SYMBOLS]) -> usize {
        let cost = |counts: &[u32], lengths: &[u8], extra: &[u8]| -> usize {
            let extra = extra.iter().chain(std::iter::repeat(&0));
            let per = counts.iter().zip(lengths).zip(extra);
            per.map(|((&n, &len), &e)| n as usize * usize::from(len + e)).sum()
        };
        cost(&self.lit[..257], &lit[..257], &[])
            + cost(&self.lit[257..], &lit[257..], &LEN_EXTRA)
            + cost(&self.dist, dist, &DIST_EXTRA)
    }
}

/// The matches [`code`] takes: greedy with one step of lazy evaluation.
fn matches(raw: &[u8]) -> Tokens {
    let mut chains = Chains { raw, head: [0; 1 << HASH_BITS], prev: [0; WINDOW] };
    let mut tokens = Tokens::new(raw.len() / 8);
    // A match found at `pos - 1` is `deferred` until the search at `pos`
    // shows whether starting one byte later is longer.
    let (mut anchor, mut pos, mut deferred) = (0, 0, None);
    while pos + MIN_MATCH <= raw.len() {
        let beat = deferred.map_or(MIN_MATCH - 1, |(len, _)| len);
        let found = chains.insert_and_search(pos, beat);
        let (start, (len, dist)) = match (deferred, found) {
            (Some(deferred), None) => (pos - 1, deferred),
            (_, Some(found)) if found.0 >= LAZY_LIMIT => (pos, found),
            (_, found) => {
                deferred = found;
                pos += 1;
                continue;
            }
        };
        tokens.push(&raw[anchor..start], len, dist);
        chains.insert_range(pos + 1, start + len);
        (anchor, pos, deferred) = (start + len, start + len, None);
    }
    if let Some((len, dist)) = deferred {
        tokens.push(&raw[anchor..pos - 1], len, dist);
        anchor = pos - 1 + len;
    }
    tokens.finish(&raw[anchor..]);
    tokens
}

/// Hash chains over the positions of one buffer.  Positions are kept as
/// their low 16 bits and every candidate is vetted by comparing bytes, so a
/// stale or aliased link costs a comparison, never a wrong match.
struct Chains<'a> {
    raw: &'a [u8],
    /// The last position whose next three bytes hash to a slot.
    head: [u16; 1 << HASH_BITS],
    /// For a position in the window, the one before it in its chain.
    prev: [u16; WINDOW],
}

impl Chains<'_> {
    fn insert(&mut self, pos: usize) -> u16 {
        let [a, b, c] = self.raw[pos..pos + MIN_MATCH] else { unreachable!("three bytes") };
        let word = u32::from(u16::from_le_bytes([a, b])) | u32::from(c) << 16;
        let hash = word.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS);
        let first = std::mem::replace(&mut self.head[hash as usize], pos as u16);
        self.prev[pos % WINDOW] = first;
        first
    }

    fn insert_range(&mut self, from: usize, to: usize) {
        for pos in from..to.min((self.raw.len() + 1).saturating_sub(MIN_MATCH)) {
            self.insert(pos);
        }
    }

    /// Enters `pos` in its chain and returns the longest match at `pos`
    /// longer than `beat`, as `(length, distance)`.
    fn insert_and_search(&mut self, pos: usize, beat: usize) -> Option<(usize, usize)> {
        let mut link = self.insert(pos);
        let raw = self.raw;
        let here = &raw[pos..raw.len().min(pos + MAX_MATCH)];
        if beat >= here.len() {
            return None;
        }
        let (mut best, mut best_dist, mut dist) = (beat, 0, 0);
        for _ in 0..MAX_CHAIN {
            // Links must lead strictly back, within the window.
            let next = usize::from((pos as u16).wrapping_sub(link));
            if next <= dist || next > pos || next >= WINDOW {
                break;
            }
            dist = next;
            let candidate = &raw[pos - dist..][..here.len()];
            // Past the first word, one byte tells whether it can be longer.
            if best < 8 || candidate[best] == here[best] {
                let len = common_prefix(candidate, here);
                if len > best {
                    (best, best_dist) = (len, dist);
                    if len >= here.len().min(NICE_MATCH) {
                        break;
                    }
                }
            }
            link = self.prev[(pos - dist) % WINDOW];
        }
        (best_dist > 0).then_some((best, best_dist))
    }
}

/// How many leading bytes `a` and `b`, of one length, have in common.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    while let (Some(x), Some(y)) = (a.get(n..n + 8), b.get(n..n + 8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(y.try_into().expect("8 bytes"));
        if diff != 0 {
            return n + diff.trailing_zeros() as usize / 8;
        }
        n += 8;
    }
    n + a[n..].iter().zip(&b[n..]).take_while(|(x, y)| x == y).count()
}

/// A canonical Huffman code: per symbol, its bit-reversed code in bits
/// 0–15 and its length above.
struct Encoder {
    codes: [u32; LIT_SYMBOLS],
}

impl Encoder {
    fn new(lengths: &[u8]) -> Encoder {
        let mut next = [0u32; MAX_BITS + 2];
        for &len in lengths {
            next[usize::from(len) + 1] += 1;
        }
        next[1] = 0;
        for len in 1..=MAX_BITS {
            next[len + 1] = (next[len] + next[len + 1]) << 1;
        }
        let mut codes = [0; LIT_SYMBOLS];
        for (code, &len) in codes.iter_mut().zip(lengths) {
            if len > 0 {
                let len = usize::from(len);
                *code =
                    u32::from((next[len] as u16).reverse_bits() >> (16 - len)) | (len as u32) << 16;
                next[len] += 1;
            }
        }
        Encoder { codes }
    }

    fn put(&self, out: &mut BitWriter, symbol: usize) {
        let code = self.codes[symbol];
        out.put(u64::from(code & 0xffff), code >> 16);
    }

    /// The bits of `symbol` followed by `bits` extra bits of `extra`, and
    /// how many they are.
    fn with_extra(&self, symbol: usize, extra: usize, bits: u8) -> (u64, u32) {
        let code = self.codes[symbol];
        let value = u64::from(code & 0xffff) | (extra as u64) << (code >> 16);
        (value, (code >> 16) + u32::from(bits))
    }
}

/// Lengths of a Huffman code for `freq` of at most `max_bits` bits; an
/// unused symbol gets 0.  The code is complete whenever a symbol is used: a
/// lone symbol gets a one-bit code and a partner that is never written.
fn code_lengths<const N: usize>(freq: &[u32; N], max_bits: usize) -> [u8; N] {
    let mut lengths = [0u8; N];
    // Used symbols, rarest first; then, in the same order, their weights
    // and the depths the in-place algorithm turns them into.
    let mut order = [(0u32, 0u16); N];
    let mut used = 0;
    for (symbol, &f) in freq.iter().enumerate() {
        if f > 0 {
            order[used] = (f, symbol as u16);
            used += 1;
        }
    }
    match used {
        0 => return lengths,
        1 => {
            let lone = usize::from(order[0].1);
            lengths[lone] = 1;
            lengths[usize::from(lone == 0)] = 1;
            return lengths;
        }
        _ => {}
    }
    let order = &mut order[..used];
    order.sort_unstable();
    let mut depth = [0u32; N];
    for (d, (f, _)) in depth.iter_mut().zip(order.iter()) {
        *d = *f;
    }
    minimum_redundancy(&mut depth[..used]);
    // Leaves deeper than `max_bits` move up to it; the code is then
    // over-subscribed, and each round below lowers a shallower leaf by one
    // level for one of them until it is complete again (as zlib and miniz
    // do).
    let mut count = [0u32; MAX_BITS + 1];
    for &d in &depth[..used] {
        count[(d as usize).min(max_bits)] += 1;
    }
    let mut kraft: u32 = (1..=max_bits).map(|len| count[len] << (max_bits - len)).sum();
    while kraft > 1 << max_bits {
        count[max_bits] -= 1;
        let len = (1..max_bits).rev().find(|&len| count[len] > 0).expect("a shallower leaf");
        count[len] -= 1;
        count[len + 1] += 2;
        kraft -= 1;
    }
    // The rarest symbols take the longest codes.
    let mut symbols = order.iter().map(|&(_, symbol)| usize::from(symbol));
    for len in (1..=max_bits).rev() {
        for symbol in symbols.by_ref().take(count[len] as usize) {
            lengths[symbol] = len as u8;
        }
    }
    lengths
}

/// Moffat and Katajainen's in-place Huffman code: `a` holds at least two
/// weights in ascending order and gets the depth of each.
fn minimum_redundancy(a: &mut [u32]) {
    let n = a.len();
    // Pair the two lightest of the leaves and the built subtrees; a subtree
    // slot keeps its weight, then the index of its parent.
    a[0] += a[1];
    let (mut root, mut leaf) = (0, 2);
    for next in 1..n - 1 {
        for second in [false, true] {
            let take_root = leaf >= n || ((!second || root < next) && a[root] < a[leaf]);
            let weight = if take_root {
                let w = a[root];
                a[root] = next as u32;
                root += 1;
                w
            } else {
                leaf += 1;
                a[leaf - 1]
            };
            a[next] = if second { a[next] + weight } else { weight };
        }
    }
    // Parent indices to internal depths.
    a[n - 2] = 0;
    for next in (0..n - 2).rev() {
        a[next] = a[a[next] as usize] + 1;
    }
    // Internal depths to leaf depths.
    let (mut available, mut depth) = (1u32, 0);
    let (mut root, mut next) = (n as isize - 2, n as isize - 1);
    while available > 0 {
        let mut used = 0;
        while root >= 0 && a[root as usize] == depth {
            used += 1;
            root -= 1;
        }
        while available > used {
            a[next as usize] = depth;
            next -= 1;
            available -= 1;
        }
        available = 2 * used;
        depth += 1;
    }
}

/// Little-endian bit packing into a buffer sized up front, eight bytes
/// longer than the bits need: every put stores a whole word and moves on
/// by the bytes it completed, without a branch to mispredict.
struct BitWriter {
    out: Vec<u8>,
    at: usize,
    acc: u64,
    bits: u32,
}

impl BitWriter {
    /// Bits after `head`, for a result of `size` bytes in all.
    fn new(mut head: Vec<u8>, size: usize) -> BitWriter {
        let at = head.len();
        head.resize(size + 8, 0);
        BitWriter { out: head, at, acc: 0, bits: 0 }
    }

    /// Appends the low `n` bits of `value`, `n` ≤ 56.
    fn put(&mut self, value: u64, n: u32) {
        self.acc |= value << self.bits;
        self.bits += n;
        self.out[self.at..self.at + 8].copy_from_slice(&self.acc.to_le_bytes());
        let bytes = self.bits / 8;
        self.at += bytes as usize;
        self.acc = self.acc.checked_shr(8 * bytes).unwrap_or(0);
        self.bits -= 8 * bytes;
    }

    fn finish(mut self) -> Vec<u8> {
        self.put(0, 7);
        self.out.truncate(self.at);
        self.out
    }
}

/// Extra bits of the run symbols 16, 17 and 18.
const RUN_EXTRA: [u8; 3] = [2, 3, 7];

/// The code-length table of a chunk: the literal/length and distance code
/// lengths, trailing unused symbols cut, as runs — symbol and extra bits —
/// of the code-length code: 0–15 a length, 16 the previous length 3–6
/// times, 17 and 18 zero 3–10 and 11–138 times.
struct Table {
    hlit: usize,
    hdist: usize,
    runs: [(u8, u8); MAX_TABLE],
    len: usize,
    cl: [u8; CL_SYMBOLS],
    hclen: usize,
}

impl Table {
    fn new(lit: &[u8], dist: &[u8]) -> Table {
        let used = |lengths: &[u8], at_least| {
            lengths
                .iter()
                .rposition(|&len| len > 0)
                .map_or(at_least, |last| (last + 1).max(at_least))
        };
        let (hlit, hdist) = (used(lit, 257), used(dist, 1));
        let mut lengths = [0u8; MAX_TABLE];
        lengths[..hlit].copy_from_slice(&lit[..hlit]);
        lengths[hlit..hlit + hdist].copy_from_slice(&dist[..hdist]);
        let lengths = &lengths[..hlit + hdist];
        let mut table =
            Table { hlit, hdist, runs: [(0, 0); MAX_TABLE], len: 0, cl: [0; CL_SYMBOLS], hclen: 0 };
        let mut freq = [0u32; CL_SYMBOLS];
        let mut i = 0;
        while i < lengths.len() {
            let len = lengths[i];
            let same = lengths[i..].iter().take_while(|&&l| l == len).count();
            let mut push = |symbol: u8, extra: usize| {
                table.runs[table.len] = (symbol, extra as u8);
                table.len += 1;
                freq[usize::from(symbol)] += 1;
            };
            i += match (len, same) {
                (0, 11..) => {
                    let n = same.min(138);
                    push(18, n - 11);
                    n
                }
                (0, 3..) => {
                    push(17, same - 3);
                    same
                }
                (_, 4..) => {
                    let n = (same - 1).min(6);
                    push(len, 0);
                    push(16, n - 3);
                    n + 1
                }
                _ => {
                    push(len, 0);
                    1
                }
            };
        }
        table.cl = code_lengths(&freq, MAX_CL_BITS);
        table.hclen =
            4.max(CL_ORDER.iter().rposition(|&s| table.cl[s] > 0).map_or(0, |last| last + 1));
        table
    }

    fn bits(&self) -> usize {
        let runs = self.runs[..self.len].iter();
        let per_run = runs.map(|&(symbol, _)| {
            let extra = RUN_EXTRA.get(usize::from(symbol).wrapping_sub(16)).copied().unwrap_or(0);
            usize::from(self.cl[usize::from(symbol)] + extra)
        });
        14 + 3 * self.hclen + per_run.sum::<usize>()
    }

    fn write(&self, w: &mut BitWriter) {
        w.put((self.hlit - 257) as u64, 5);
        w.put((self.hdist - 1) as u64, 5);
        w.put((self.hclen - 4) as u64, 4);
        for &symbol in &CL_ORDER[..self.hclen] {
            w.put(self.cl[symbol].into(), 3);
        }
        let cl = Encoder::new(&self.cl);
        for &(symbol, extra) in &self.runs[..self.len] {
            cl.put(w, symbol.into());
            if let Some(&n) = RUN_EXTRA.get(usize::from(symbol).wrapping_sub(16)) {
                w.put(extra.into(), n.into());
            }
        }
    }
}

/// `raw` coded from its `tokens`, or `None` if that takes more than
/// `limit` bytes.
fn code(raw: &[u8], tokens: &Tokens, limit: usize) -> Option<Vec<u8>> {
    let lit = code_lengths(&tokens.lit, MAX_BITS);
    let dist = code_lengths(&tokens.dist, MAX_BITS);
    code_with(raw, tokens, &lit, &dist, limit)
}

/// [`code`] in the codes of the given lengths.
fn code_with(
    raw: &[u8],
    tokens: &Tokens,
    lit: &[u8; LIT_SYMBOLS],
    dist: &[u8; DIST_SYMBOLS],
    limit: usize,
) -> Option<Vec<u8>> {
    let table = Table::new(lit, dist);
    let mut out = vec![CODED];
    write_varint(&mut out, raw.len() as u64);
    let size = out.len() + (table.bits() + tokens.bits(lit, dist)).div_ceil(8);
    if size > limit {
        return None;
    }
    let mut w = BitWriter::new(out, size);
    table.write(&mut w);
    let (lit, dist) = (Encoder::new(lit), Encoder::new(dist));
    let mut at = 0;
    for &token in &tokens.list {
        let run = if token & RUN != 0 { token & !RUN } else { token >> 23 } as usize;
        raw[at..at + run].iter().for_each(|&b| lit.put(&mut w, b.into()));
        at += run;
        if token & RUN != 0 {
            continue;
        }
        let (len, distance) =
            ((token >> 15 & 0xff) as usize + MIN_MATCH, (token & 0x7fff) as usize + 1);
        let (l, d) = (length_code(len), distance_code(distance));
        let (lv, ln) = lit.with_extra(257 + l, len - usize::from(LEN_BASE[l]), LEN_EXTRA[l]);
        let (dv, dn) = dist.with_extra(d, distance - usize::from(DIST_BASE[d]), DIST_EXTRA[d]);
        // At most 15 + 5 and 15 + 13 bits: one put.
        w.put(lv | dv << ln, ln + dn);
        at += len;
    }
    raw[at..].iter().for_each(|&b| lit.put(&mut w, b.into()));
    lit.put(&mut w, END);
    let out = w.finish();
    debug_assert_eq!(out.len(), size, "the size counted every bit");
    Some(out)
}

/// A little-endian bit reader that reads zeros past the end of its input
/// and remembers how many.
struct BitReader<'a> {
    src: &'a [u8],
    at: usize,
    buf: u64,
    bits: u32,
    /// Zero bits put in past the end.
    padded: u32,
}

impl BitReader<'_> {
    /// Tops the buffer up to at least 56 bits.
    fn refill(&mut self) {
        if let Some(word) = self.src.get(self.at..self.at + 8) {
            self.buf |= u64::from_le_bytes(word.try_into().expect("8 bytes")) << self.bits;
            self.at += (63 - self.bits as usize) / 8;
            self.bits |= 56;
        } else {
            while self.bits <= 56 {
                let byte = self.src.get(self.at).copied().unwrap_or_else(|| {
                    self.padded = self.padded.saturating_add(8);
                    0
                });
                self.at += 1;
                self.buf |= u64::from(byte) << self.bits;
                self.bits += 8;
            }
        }
    }

    fn take(&mut self, n: u32) -> usize {
        let value = self.buf & ((1 << n) - 1);
        self.buf >>= n;
        self.bits -= n;
        value as usize
    }

    /// Whether more bits were taken than the input holds.
    fn overran(&self) -> bool {
        self.bits < self.padded
    }
}

/// Bits a [`Decoder`] resolves with one lookup.
const FAST_BITS: u32 = 10;

/// What a decoded symbol stands for: a value in bits 16–31, a kind in
/// bits 8–9 and the count of extra bits that follow its code in bits 4–7.
/// A literal/length symbol is a literal byte, the end, or a length whose
/// value is its base; a distance symbol is a base distance; a code-length
/// symbol is itself.
type Meaning = u32;

const LENGTH: Meaning = 1 << 8;
const ENDS: Meaning = 2 << 8;

fn literal_or_length(symbol: usize) -> Meaning {
    match symbol {
        0..END => (symbol as u32) << 16,
        END => ENDS,
        _ => {
            let l = symbol - 257;
            u32::from(LEN_BASE[l]) << 16 | LENGTH | u32::from(LEN_EXTRA[l]) << 4
        }
    }
}

fn distance(symbol: usize) -> Meaning {
    u32::from(DIST_BASE[symbol]) << 16 | u32::from(DIST_EXTRA[symbol]) << 4
}

fn itself(symbol: usize) -> Meaning {
    (symbol as u32) << 16
}

/// A canonical Huffman code, from the reading side.
struct Decoder {
    /// For every `FAST_BITS`-bit pattern that starts with a code of at most
    /// that many bits, the code's meaning with its length in bits 0–3; 0
    /// where a longer code starts.
    fast: [u32; 1 << FAST_BITS],
    /// Codes of each length, and the meanings in canonical order.
    count: [u16; MAX_BITS + 1],
    meanings: [Meaning; LIT_SYMBOLS],
}

impl Decoder {
    /// The code of `lengths`, if it is complete or empty: an over-subscribed
    /// code is ambiguous, and [`pack`] writes no incomplete one.
    fn new(lengths: &[u8], meaning: fn(usize) -> Meaning) -> Option<Decoder> {
        let mut count = [0u16; MAX_BITS + 1];
        for &len in lengths {
            count[usize::from(len)] += 1;
        }
        count[0] = 0;
        let mut left = 1i32;
        for &n in &count[1..] {
            left = 2 * left - i32::from(n);
            if left < 0 {
                return None;
            }
        }
        if left != 0 && left != 1 << MAX_BITS {
            return None;
        }
        let mut next = [0u32; MAX_BITS + 2];
        let mut offset = [0u16; MAX_BITS + 2];
        for len in 1..=MAX_BITS {
            next[len + 1] = (next[len] + u32::from(count[len])) << 1;
            offset[len + 1] = offset[len] + count[len];
        }
        let mut decoder = Decoder { fast: [0; 1 << FAST_BITS], count, meanings: [0; LIT_SYMBOLS] };
        for (symbol, &len) in lengths.iter().enumerate() {
            let len = usize::from(len);
            if len == 0 {
                continue;
            }
            decoder.meanings[usize::from(offset[len])] = meaning(symbol);
            offset[len] += 1;
            if len <= FAST_BITS as usize {
                let reversed = usize::from((next[len] as u16).reverse_bits() >> (16 - len));
                for slot in (reversed..1 << FAST_BITS).step_by(1 << len) {
                    decoder.fast[slot] = meaning(symbol) | len as u32;
                }
            }
            next[len] += 1;
        }
        Some(decoder)
    }

    /// The meaning of the next symbol; `None` only on an empty code.  Needs
    /// at least 15 bits in the buffer.
    fn decode(&self, bits: &mut BitReader) -> Option<Meaning> {
        let entry = self.fast[bits.buf as usize & ((1 << FAST_BITS) - 1)];
        if entry != 0 {
            bits.take(entry & 15);
            return Some(entry);
        }
        // Canonically, one bit at a time: codes of a length are consecutive
        // numbers starting at `first`.
        let (mut code, mut first, mut index) = (0usize, 0usize, 0usize);
        for len in 1..=MAX_BITS {
            code |= (bits.buf >> (len - 1)) as usize & 1;
            let count = usize::from(self.count[len]);
            if code < first + count {
                bits.take(len as u32);
                return Some(self.meanings[index + code - first]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        None
    }
}

/// The extra bits of `meaning` from `bits`, added to its value.
fn with_extra(meaning: Meaning, bits: &mut BitReader) -> usize {
    (meaning >> 16) as usize + bits.take(meaning >> 4 & 15)
}

/// The literal/length and distance codes at the front of `bits`.
fn read_codes(bits: &mut BitReader) -> Option<(Decoder, Decoder)> {
    bits.refill();
    let hlit = bits.take(5) + 257;
    let hdist = bits.take(5) + 1;
    let hclen = bits.take(4) + 4;
    if hlit > LIT_SYMBOLS || hdist > DIST_SYMBOLS {
        return None;
    }
    let mut cl_lengths = [0u8; CL_SYMBOLS];
    for &symbol in &CL_ORDER[..hclen] {
        bits.refill();
        cl_lengths[symbol] = bits.take(3) as u8;
    }
    let cl = Decoder::new(&cl_lengths, itself)?;
    let mut lengths = [0u8; LIT_SYMBOLS + DIST_SYMBOLS];
    let mut n = 0;
    while n < hlit + hdist {
        bits.refill();
        let (len, times) = match cl.decode(bits)? >> 16 {
            len @ 0..16 => (len as u8, 1),
            16 => (*lengths[..n].last()?, 3 + bits.take(2)),
            17 => (0, 3 + bits.take(3)),
            _ => (0, 11 + bits.take(7)),
        };
        lengths[..hlit + hdist].get_mut(n..n + times)?.fill(len);
        n += times;
    }
    let lit = Decoder::new(&lengths[..hlit], literal_or_length)?;
    Some((lit, Decoder::new(&lengths[hlit..n], distance)?))
}

/// Replaces the contents of `out` by the bytes `packed` was made from;
/// `None` if `packed` is not the output of [`pack`].
pub(crate) fn unpack(packed: &[u8], out: &mut Vec<u8>) -> Option<()> {
    out.clear();
    let (&flag, mut src) = packed.split_first()?;
    match flag {
        STORED => {
            out.extend_from_slice(src);
            Some(())
        }
        CODED => {
            let raw_len = usize::try_from(read_varint(&mut src)?).ok()?;
            // Two bits — a one-bit length code for 258 and a one-bit
            // distance code — stand for at most 258 bytes.
            if raw_len > src.len().saturating_mul(8 / 2 * MAX_MATCH) {
                return None;
            }
            let mut bits = BitReader { src, at: 0, buf: 0, bits: 0, padded: 0 };
            let (lit, dist) = read_codes(&mut bits)?;
            out.resize(raw_len, 0);
            inflate(&mut bits, &lit, &dist, out)?;
            (!bits.overran()).then_some(())
        }
        _ => None,
    }
}

/// Decodes symbols into `out` up to the end symbol, which must come exactly
/// where `out` ends.
fn inflate(bits: &mut BitReader, lit: &Decoder, dist: &Decoder, out: &mut [u8]) -> Option<()> {
    let mut pos = 0;
    loop {
        bits.refill();
        let mut symbol = lit.decode(bits)?;
        // A refill holds two codes and what a match needs after them (15 +
        // 5 bits of length, 15 + 13 of distance) if the first is a literal.
        if symbol & (LENGTH | ENDS) == 0 {
            *out.get_mut(pos)? = (symbol >> 16) as u8;
            pos += 1;
            symbol = lit.decode(bits)?;
            if symbol & (LENGTH | ENDS) == 0 {
                *out.get_mut(pos)? = (symbol >> 16) as u8;
                pos += 1;
                continue;
            }
            bits.refill();
        }
        if symbol & ENDS != 0 {
            return (pos == out.len()).then_some(());
        }
        let len = with_extra(symbol, bits);
        let distance = with_extra(dist.decode(bits)?, bits);
        if distance > pos || len > out.len() - pos {
            return None;
        }
        if distance >= 8 && pos + len + 8 <= out.len() {
            // Eight bytes at a time, each word read from bytes already
            // final; the last may run past the copy into bytes the next
            // symbols overwrite.
            let mut at = pos;
            while at < pos + len {
                let word: [u8; 8] =
                    out[at - distance..at - distance + 8].try_into().expect("8 bytes");
                out[at..at + 8].copy_from_slice(&word);
                at += 8;
            }
        } else if distance >= len {
            out.copy_within(pos - distance..pos - distance + len, pos);
        } else {
            // The copy runs into the bytes it produces.
            for i in pos..pos + len {
                out[i] = out[i - distance];
            }
        }
        pos += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bytes one packed byte can stand for: a one-bit length code for 258
    /// bytes and a one-bit distance code, four times over.
    const EXPANSION: usize = 8 / 2 * MAX_MATCH;

    fn round_trip(raw: &[u8]) -> Vec<u8> {
        let packed = pack(raw);
        assert!(packed.len() <= raw.len() + 1, "{} bytes from {}", packed.len(), raw.len());
        // Whatever the buffer held before is gone.
        let mut out = vec![0xAA; 7];
        assert_eq!(unpack(&packed, &mut out), Some(()));
        assert_eq!(out, raw);
        packed
    }

    /// Tokens of hand-made matches: `(literals before, length, distance)`.
    fn tokens(raw: &[u8], matches: &[(usize, usize, usize)]) -> Tokens {
        let (mut tokens, mut at) = (Tokens::new(0), 0);
        for &(literals, len, dist) in matches {
            tokens.push(&raw[at..at + literals], len, dist);
            at += literals + len;
        }
        tokens.finish(&raw[at..]);
        tokens
    }

    /// The matches of [`matches`] as `(literals before, length, distance)`.
    fn found(raw: &[u8]) -> Vec<(usize, usize, usize)> {
        let (mut found, mut run) = (Vec::new(), 0);
        for &token in &matches(raw).list {
            if token & RUN != 0 {
                run = (token & !RUN) as usize;
            } else {
                let len = (token >> 15 & 0xff) as usize + MIN_MATCH;
                found.push((run + (token >> 23) as usize, len, (token & 0x7fff) as usize + 1));
                run = 0;
            }
        }
        found
    }

    /// `raw` coded from hand-made matches however long that comes out,
    /// then read back.
    fn by_hand(raw: &[u8], matches: &[(usize, usize, usize)]) -> Vec<u8> {
        let packed = code(raw, &tokens(raw, matches), usize::MAX).expect("no limit");
        assert_eq!(packed[0], CODED);
        let mut out = Vec::new();
        assert_eq!(unpack(&packed, &mut out), Some(()));
        assert_eq!(out, raw);
        packed
    }

    /// Bytes no three of which repeat within reach: xorshift output.
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
        // One literal, then matches of 258 overlapping their own output,
        // each a one-bit length and a one-bit distance.
        let packed = round_trip(&[9; 64 * 1024]);
        assert!(packed.len() < 100, "{} bytes", packed.len());
        let period: Vec<u8> = (0..64 * 1024).map(|i| (i % 12) as u8 * 17).collect();
        let packed = round_trip(&period);
        assert!(packed.len() < 200, "{} bytes", packed.len());
        // Past 64 KiB the chains' 16-bit positions wrap: an aliased link
        // costs a comparison and finds the repeats all the same.
        let unit = noise(1000);
        let long: Vec<u8> = unit.iter().copied().cycle().take(200 * 1024).collect();
        let packed = round_trip(&long);
        assert!(packed.len() < 3000, "{} bytes", packed.len());
    }

    #[test]
    fn noise_is_stored_as_it_is() {
        let raw = noise(64 * 1024);
        let packed = round_trip(&raw);
        assert_eq!((packed[0], &packed[1..]), (STORED, &raw[..]));
    }

    #[test]
    fn overlapping_copies_repeat_their_own_output() {
        // Distance 1, 2, 3 and 5 against matches of 40 and more.
        for period in [1usize, 2, 3, 5] {
            let raw: Vec<u8> = (0..period + 40 + period).map(|i| (i % period) as u8 + 1).collect();
            assert_eq!(found(&raw), [(period, 40 + period, period)], "period {period}");
            round_trip(&raw);
        }
        // By hand: literals "ab", then distance 2 for 258 bytes and 40 more.
        let raw: Vec<u8> = b"ab".iter().copied().cycle().take(300).collect();
        by_hand(&raw, &[(2, 258, 2), (0, 40, 2)]);
    }

    #[test]
    fn a_match_may_end_the_buffer() {
        let mut raw = noise(40);
        raw.extend_from_within(3..21);
        assert_eq!(found(&raw), [(40, 18, 37)]);
        by_hand(&raw, &[(40, 18, 37)]);
        round_trip(&raw);
        // Literals after the last match end it just as well.
        raw.push(0);
        by_hand(&raw, &[(40, 18, 37)]);
        round_trip(&raw);
    }

    #[test]
    fn every_length_and_distance_has_its_code() {
        for len in MIN_MATCH..=MAX_MATCH {
            let l = length_code(len);
            let base = usize::from(LEN_BASE[l]);
            assert!(base <= len && len - base < 1 << LEN_EXTRA[l], "length {len}");
        }
        assert_eq!(length_code(MAX_MATCH), 28, "258 has a symbol of its own");
        for dist in 1..=32_768 {
            let d = distance_code(dist);
            let base = usize::from(DIST_BASE[d]);
            assert!(base <= dist && dist - base < 1 << DIST_EXTRA[d], "distance {dist}");
        }
    }

    #[test]
    fn lengths_and_distances_around_their_code_limits_round_trip() {
        for len in [3usize, 4, 10, 11, 12, 18, 19, 34, 35, 226, 227, 257, 258] {
            for dist in [1usize, 2, 4, 5, 6, 8, 9, 24_576, 24_577, 32_767, 32_768] {
                let mut raw = noise(dist);
                for _ in 0..len {
                    raw.push(raw[raw.len() - dist]);
                }
                raw.push(7);
                by_hand(&raw, &[(dist, len, dist)]);
            }
        }
        // The matcher's own lengths, beyond one match and within its window.
        for len in [3usize, 257, 258, 259, 516, 517, 1000] {
            for dist in [1usize, 2, 100, WINDOW - 1] {
                let mut raw = noise(dist.max(len) + 1);
                for _ in 0..len {
                    raw.push(raw[raw.len() - dist]);
                }
                round_trip(&raw);
            }
        }
    }

    #[test]
    fn huffman_codes_are_complete_optimal_and_at_most_15_bits() {
        // Fibonacci weights make a 25-deep Huffman tree; the limit folds it.
        let mut freq = [0u32; LIT_SYMBOLS];
        let (mut a, mut b) = (1, 1);
        for f in freq.iter_mut().take(26) {
            *f = a;
            (a, b) = (b, a + b);
        }
        let lengths = code_lengths(&freq, MAX_BITS);
        assert_eq!(lengths.iter().max(), Some(&15));
        assert!(Decoder::new(&lengths, itself).is_some(), "complete");
        // Without the limit it is the Huffman code: its cost is that of
        // merging the two lightest weights over and over.
        let weights = [5u32, 1, 1, 2, 9, 3, 3, 30, 0, 4, 0, 2];
        let mut freq = [0u32; CL_SYMBOLS];
        freq[..weights.len()].copy_from_slice(&weights);
        let lengths = code_lengths(&freq, MAX_BITS);
        let cost: u32 = freq.iter().zip(&lengths).map(|(&f, &l)| f * u32::from(l)).sum();
        let mut heap: std::collections::BinaryHeap<_> =
            weights.iter().filter(|&&w| w > 0).map(|&w| std::cmp::Reverse(w)).collect();
        let mut huffman = 0;
        while heap.len() > 1 {
            let (a, b) = (heap.pop().unwrap().0, heap.pop().unwrap().0);
            huffman += a + b;
            heap.push(std::cmp::Reverse(a + b));
        }
        assert_eq!(cost, huffman);
        assert!(Decoder::new(&lengths, itself).is_some(), "complete");
        // A lone symbol gets a one-bit code and a partner.
        let mut lone = [0u32; DIST_SYMBOLS];
        lone[0] = 9;
        assert_eq!(code_lengths(&lone, MAX_BITS)[..3], [1, 1, 0]);
        lone.swap(0, 7);
        assert_eq!(code_lengths(&lone, MAX_BITS)[..8], [1, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn the_decoder_takes_only_complete_or_empty_codes() {
        assert!(Decoder::new(&[1, 1], itself).is_some());
        assert!(Decoder::new(&[2, 1, 0, 2], itself).is_some());
        assert!(Decoder::new(&[0, 0, 0], itself).is_some(), "empty: no symbol decodes");
        assert!(Decoder::new(&[1, 1, 1], itself).is_none(), "over-subscribed");
        assert!(Decoder::new(&[1, 2], itself).is_none(), "incomplete");
        assert!(Decoder::new(&[1], itself).is_none(), "incomplete");
        // Codes longer than the lookup resolve one bit at a time.
        let mut long = [0u8; LIT_SYMBOLS];
        for (i, len) in long.iter_mut().enumerate().take(16) {
            *len = (i as u8 + 1).min(15);
        }
        let decoder = Decoder::new(&long, itself).expect("complete");
        let encoder = Encoder::new(&long);
        for symbol in 0..16 {
            let mut w = BitWriter::new(Vec::new(), 8);
            encoder.put(&mut w, symbol);
            let bytes = w.finish();
            let mut bits = BitReader { src: &bytes, at: 0, buf: 0, bits: 0, padded: 0 };
            bits.refill();
            assert_eq!(decoder.decode(&mut bits).map(|m| m >> 16), Some(symbol as u32));
        }
    }

    #[test]
    fn the_decoder_holds_the_recorded_length_and_refuses_the_rest() {
        let raw: Vec<u8> = (0..500).map(|i| (i % 12) as u8).collect();
        let packed = pack(&raw);
        assert_eq!((packed[0], &packed[1..3]), (CODED, &[0xf4, 0x03][..]), "varint(500)");
        let mut out = Vec::new();
        // A recorded length the symbols exceed or fall short of.
        for wrong in [[0xf3, 0x03], [0xf5, 0x03]] {
            let mut bad = packed.clone();
            bad[1..3].copy_from_slice(&wrong);
            assert_eq!(unpack(&bad, &mut out), None);
        }
        // Truncated anywhere, or an unknown flag.
        for cut in 0..packed.len() {
            assert_eq!(unpack(&packed[..cut], &mut out), None, "cut at {cut}");
        }
        for flag in 2..=u8::MAX {
            let mut bad = packed.clone();
            bad[0] = flag;
            assert_eq!(unpack(&bad, &mut out), None, "flag {flag}");
        }
        // A distance reaching before the output: one literal, then a copy
        // from two back.
        let raw = b"abbbbbbb";
        let reaching = code(raw, &tokens(raw, &[(1, 7, 2)]), usize::MAX).expect("no limit");
        assert_eq!(unpack(&reaching, &mut out), None);
        // A length beyond the recorded one, and more of it than its bits
        // could ever produce.
        let mut fresh = Vec::new();
        assert_eq!(unpack(&[CODED, 0xff, 0xff, 0x03, 0, 0], &mut fresh), None);
        assert_eq!(fresh.capacity(), 0, "refused before reserving");
    }

    /// `code` with a table made of the given lengths, however wrong.
    fn with_lengths(raw: &[u8], lit: &[u8; LIT_SYMBOLS], dist: &[u8; DIST_SYMBOLS]) -> Vec<u8> {
        code_with(raw, &matches(raw), lit, dist, usize::MAX).expect("no limit")
    }

    #[test]
    fn tables_naming_unused_symbols_are_refused() {
        let raw: Vec<u8> = (0..2000).map(|i| (i % 37 * 5 % 11) as u8).collect();
        let tokens = matches(&raw);
        let lit = code_lengths(&tokens.lit, MAX_BITS);
        let dist = code_lengths(&tokens.dist, MAX_BITS);
        let mut out = Vec::new();
        assert_eq!(unpack(&with_lengths(&raw, &lit, &dist), &mut out), Some(()));
        // HLIT announcing 287 and 288 lengths, HDIST 31 and 32: the table
        // itself stays complete, the extra symbols get a length of 0.
        let mut tails = Vec::new();
        for extra in [1, 2] {
            let mut long = lit.to_vec();
            long.extend(std::iter::repeat_n(0, extra - 1).chain([1]));
            tails.push((long, dist.to_vec()));
            let mut long = dist.to_vec();
            long.extend(std::iter::repeat_n(0, extra - 1).chain([1]));
            tails.push((lit.to_vec(), long));
        }
        for (lit, dist) in tails {
            let table = Table::new(&lit, &dist);
            let mut head = vec![CODED];
            write_varint(&mut head, raw.len() as u64);
            let mut w = BitWriter::new(head, 1024);
            table.write(&mut w);
            let mut packed = w.finish();
            packed.extend_from_slice(&[0xff; 64]);
            assert!(table.hlit > LIT_SYMBOLS || table.hdist > DIST_SYMBOLS);
            assert_eq!(unpack(&packed, &mut out), None);
        }
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

    /// What can happen to a sealed chunk.
    #[derive(Clone, Debug)]
    enum Damage {
        /// Flip these bits, taken modulo the chunk's.
        Flip(Vec<usize>),
        /// Keep this share (per mille) of the bytes.
        Truncate(usize),
        /// Shorten (over-subscribe) or lengthen (leave incomplete) the code
        /// of one used literal/length symbol, the `nth` modulo their number.
        Code { nth: usize, shorter: bool },
    }

    fn arb_damage() -> impl Strategy<Value = Damage> {
        prop_oneof![
            proptest::collection::vec(0usize..1 << 20, 1..4).prop_map(Damage::Flip),
            (0usize..1000).prop_map(Damage::Truncate),
            (0usize..300, 0u8..2)
                .prop_map(|(nth, shorter)| Damage::Code { nth, shorter: shorter == 1 }),
        ]
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

        #[test]
        fn a_damaged_chunk_is_refused_or_read_at_its_length(
            raw in arb_buffer(),
            damage in arb_damage(),
        ) {
            let mut packed = pack(&raw);
            if packed[0] != CODED {
                return Ok(());
            }
            let mut refused = false;
            match damage {
                Damage::Flip(bits) => {
                    for bit in bits {
                        let bit = bit % (8 * packed.len());
                        packed[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                Damage::Truncate(share) => packed.truncate(packed.len() * share / 1000),
                Damage::Code { nth, shorter } => {
                    let tokens = matches(&raw);
                    let mut lit = code_lengths(&tokens.lit, MAX_BITS);
                    let dist = code_lengths(&tokens.dist, MAX_BITS);
                    let used: Vec<usize> = (0..LIT_SYMBOLS).filter(|&s| lit[s] > 0).collect();
                    let symbol = used[nth % used.len()];
                    if shorter && lit[symbol] > 1 {
                        lit[symbol] -= 1;
                    } else if !shorter && lit[symbol] < 15 {
                        lit[symbol] += 1;
                    } else {
                        return Ok(());
                    }
                    packed = with_lengths(&raw, &lit, &dist);
                    refused = true;
                }
            }
            let mut out = Vec::new();
            if unpack(&packed, &mut out).is_some() {
                prop_assert!(!refused, "a wrong code was trusted");
                // A flipped flag bit may make a stored chunk of anything.
                if packed[0] == CODED {
                    let mut src = &packed[1..];
                    prop_assert_eq!(out.len() as u64, read_varint(&mut src).unwrap());
                }
                // Flips that cancel, or a cut that keeps everything.
                if packed == pack(&raw) {
                    prop_assert_eq!(&out, &raw);
                }
            }
            prop_assert!(out.capacity() <= packed.len().saturating_mul(EXPANSION));
        }
    }
}
