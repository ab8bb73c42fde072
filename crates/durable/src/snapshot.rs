//! Snapshot codecs: the core vocabulary (values, actions, alphabets) and
//! the pointer-deduplicating state-table codec.
//!
//! # The flat node table
//!
//! A CoW [`State`] tree shares untouched subtrees between alternatives
//! behind [`Shared`] handles; after a long run, the *reachable node set* is
//! much smaller than the tree counted with multiplicity ([`State::size`]).
//! The codec serializes exactly that reachable set: every distinct
//! allocation (keyed by pointer identity, [`Shared::as_ptr`]) becomes one
//! entry of a flat table, children are encoded as table indices, and
//! decoding rebuilds the same sharing — one allocation per table entry, so
//! a restored state has the memory footprint of the live one, not of its
//! unfolded tree.
//!
//! Nodes are emitted in post-order, so every child index refers backwards;
//! the decoder builds the table in one forward pass.  [`ScopedAlphabet`]s
//! (the routing scopes of `Sync` and `SyncQ` states) get their own
//! deduplicated table.  The table holds *multiple roots* in one pool, so
//! sharing between them survives serialization too; a shard snapshot
//! writes one, the engine's current state.

use crate::codec::{CodecError, Reader, Writer};
use ix_core::{Action, Alphabet, Param, Symbol, Term, Value};
use ix_state::{null_state, QuantState, ScopedAlphabet, Shared, State};
use std::collections::{BTreeMap, BTreeSet, HashMap};

// ---------------------------------------------------------------------------
// Core vocabulary
// ---------------------------------------------------------------------------

/// Encodes a concrete or abstract value.
pub fn encode_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Int(i) => {
            w.u8(0);
            w.i64(*i);
        }
        Value::Sym(s) => {
            w.u8(1);
            w.str(&s.as_str());
        }
    }
}

/// Decodes a value.
pub fn decode_value(r: &mut Reader) -> Result<Value, CodecError> {
    match r.u8()? {
        0 => Ok(Value::Int(r.i64()?)),
        1 => Ok(Value::Sym(Symbol::new(&r.str()?))),
        tag => Err(CodecError::BadTag { tag }),
    }
}

fn encode_term(w: &mut Writer, t: &Term) {
    match t {
        Term::Value(v) => {
            w.u8(0);
            encode_value(w, v);
        }
        Term::Param(p) => {
            w.u8(1);
            w.str(&p.name().as_str());
        }
    }
}

fn decode_term(r: &mut Reader) -> Result<Term, CodecError> {
    match r.u8()? {
        0 => Ok(Term::Value(decode_value(r)?)),
        1 => Ok(Term::Param(Param::new(&r.str()?))),
        tag => Err(CodecError::BadTag { tag }),
    }
}

/// Encodes an action (name plus argument terms; abstract actions keep their
/// parameters).
pub fn encode_action(w: &mut Writer, a: &Action) {
    w.str(&a.name().as_str());
    w.seq(a.args(), encode_term);
}

/// Decodes an action.
pub fn decode_action(r: &mut Reader) -> Result<Action, CodecError> {
    let name = r.str()?;
    Ok(Action::new(name.as_str(), r.seq(decode_term)?))
}

/// Encodes an alphabet as its sorted action set.
pub fn encode_alphabet(w: &mut Writer, a: &Alphabet) {
    w.seq(a.actions(), encode_action);
}

/// Decodes an alphabet.
pub fn decode_alphabet(r: &mut Reader) -> Result<Alphabet, CodecError> {
    Ok(Alphabet::from_actions(r.seq(decode_action)?))
}

// ---------------------------------------------------------------------------
// State table
// ---------------------------------------------------------------------------

/// Node tags of the state table (one per [`State`] variant).
mod tag {
    pub const NULL: u8 = 0;
    pub const EPSILON: u8 = 1;
    pub const ATOM_FRESH: u8 = 2;
    pub const ATOM_DONE: u8 = 3;
    pub const OPTION: u8 = 4;
    pub const SEQ: u8 = 5;
    pub const SEQ_ITER: u8 = 6;
    pub const PAR: u8 = 7;
    pub const PAR_ITER: u8 = 8;
    pub const OR: u8 = 9;
    pub const AND: u8 = 10;
    pub const SYNC: u8 = 11;
    /// `some` and `each` as written while they carried a scope id: read
    /// (the id checked against the scope table and dropped), never written.
    pub const SOME_Q_SCOPED: u8 = 12;
    pub const ALL_Q_SCOPED: u8 = 13;
    pub const SYNC_Q: u8 = 14;
    pub const PAR_Q: u8 = 15;
    pub const MULT: u8 = 16;
    pub const SOME_Q: u8 = 17;
    pub const ALL_Q: u8 = 18;
}

/// Builds the pointer-deduplicated state table of one or more state roots.
///
/// Call [`StateTableBuilder::add_root`] for every root (the returned id is
/// what the caller stores next to the table), then [`finish`] to obtain the
/// serialized table.  Sharing between roots is preserved: a node reachable
/// from several roots is encoded once.
///
/// [`finish`]: StateTableBuilder::finish
#[derive(Default)]
pub struct StateTableBuilder {
    scope_ids: HashMap<*const ScopedAlphabet, u32>,
    scopes: Writer,
    scope_count: u32,
    node_ids: HashMap<*const State, u32>,
    nodes: Writer,
    node_count: u32,
}

impl StateTableBuilder {
    /// An empty table.
    pub fn new() -> StateTableBuilder {
        StateTableBuilder::default()
    }

    /// Adds a state root to the pool and returns its node id.
    pub fn add_root(&mut self, root: &Shared<State>) -> u32 {
        self.node_id(root)
    }

    fn scope_id(&mut self, scope: &Shared<ScopedAlphabet>) -> u32 {
        let key = Shared::as_ptr(scope);
        if let Some(&id) = self.scope_ids.get(&key) {
            return id;
        }
        encode_alphabet(&mut self.scopes, &scope.alphabet);
        self.scopes.seq(&scope.blocked, |w, p| w.str(&p.name().as_str()));
        let id = self.scope_count;
        self.scope_count += 1;
        self.scope_ids.insert(key, id);
        id
    }

    /// Encodes a quantifier state's children (post-order: their records land
    /// *before* the parent's tag byte) and then writes the parent's fields.
    fn write_quant(&mut self, node_tag: u8, q: &QuantState) {
        let template = self.node_id(&q.template);
        let branches: Vec<(Value, u32)> =
            q.branches.iter().map(|(v, s)| (*v, self.node_id(s))).collect();
        let w = &mut self.nodes;
        w.u8(node_tag);
        w.str(&q.param.name().as_str());
        w.u32(template);
        w.seq(branches, |w, (v, id)| {
            encode_value(w, &v);
            w.u32(id);
        });
    }

    /// Encodes a node (children first — post-order) and returns its id.
    fn node_id(&mut self, s: &Shared<State>) -> u32 {
        let key = Shared::as_ptr(s);
        if let Some(&id) = self.node_ids.get(&key) {
            return id;
        }
        match s.as_ref() {
            State::Null => self.nodes.u8(tag::NULL),
            State::Epsilon => self.nodes.u8(tag::EPSILON),
            State::AtomFresh { action } => {
                self.nodes.u8(tag::ATOM_FRESH);
                encode_action(&mut self.nodes, action);
            }
            State::AtomDone => self.nodes.u8(tag::ATOM_DONE),
            State::Option { at_start, body } => {
                let body = self.node_id(body);
                self.nodes.u8(tag::OPTION);
                self.nodes.bool(*at_start);
                self.nodes.u32(body);
            }
            State::Seq { left, rights, right_init } => {
                let left = self.node_id(left);
                let rights: Vec<u32> = rights.iter().map(|r| self.node_id(r)).collect();
                let right_init = self.node_id(right_init);
                self.nodes.u8(tag::SEQ);
                self.nodes.u32(left);
                self.nodes.seq(rights, Writer::u32);
                self.nodes.u32(right_init);
            }
            State::SeqIter { boundary, runs, body_init } => {
                let runs: Vec<u32> = runs.iter().map(|r| self.node_id(r)).collect();
                let body_init = self.node_id(body_init);
                self.nodes.u8(tag::SEQ_ITER);
                self.nodes.bool(*boundary);
                self.nodes.seq(runs, Writer::u32);
                self.nodes.u32(body_init);
            }
            State::Par { alts } => {
                let alts: Vec<(u32, u32)> =
                    alts.iter().map(|(l, r)| (self.node_id(l), self.node_id(r))).collect();
                self.nodes.u8(tag::PAR);
                self.nodes.seq(alts, |w, (l, r)| {
                    w.u32(l);
                    w.u32(r);
                });
            }
            State::ParIter { alts, body_init } => {
                let alts: Vec<Vec<u32>> = alts
                    .iter()
                    .map(|threads| threads.iter().map(|t| self.node_id(t)).collect())
                    .collect();
                let body_init = self.node_id(body_init);
                self.nodes.u8(tag::PAR_ITER);
                self.write_nested(alts);
                self.nodes.u32(body_init);
            }
            State::Or { left, right } => {
                let (l, r) = (self.node_id(left), self.node_id(right));
                self.nodes.u8(tag::OR);
                self.nodes.u32(l);
                self.nodes.u32(r);
            }
            State::And { left, right } => {
                let (l, r) = (self.node_id(left), self.node_id(right));
                self.nodes.u8(tag::AND);
                self.nodes.u32(l);
                self.nodes.u32(r);
            }
            State::Sync { left, right, left_alpha, right_alpha } => {
                let (l, r) = (self.node_id(left), self.node_id(right));
                let (la, ra) = (self.scope_id(left_alpha), self.scope_id(right_alpha));
                self.nodes.u8(tag::SYNC);
                self.nodes.u32(l);
                self.nodes.u32(r);
                self.nodes.u32(la);
                self.nodes.u32(ra);
            }
            State::SomeQ(q) => self.write_quant(tag::SOME_Q, q),
            State::AllQ(q) => self.write_quant(tag::ALL_Q, q),
            State::SyncQ { quant, scope } => {
                self.write_quant(tag::SYNC_Q, quant);
                let scope = self.scope_id(scope);
                self.nodes.u32(scope);
            }
            State::ParQ { param, body_accepts_epsilon, alts, body_init } => {
                let alts: Vec<Vec<(Value, u32)>> = alts
                    .iter()
                    .map(|branches| branches.iter().map(|(v, s)| (*v, self.node_id(s))).collect())
                    .collect();
                let body_init = self.node_id(body_init);
                self.nodes.u8(tag::PAR_Q);
                self.nodes.str(&param.name().as_str());
                self.nodes.bool(*body_accepts_epsilon);
                self.nodes.seq(alts, |w, branches| {
                    w.seq(branches, |w, (v, id)| {
                        encode_value(w, &v);
                        w.u32(id);
                    })
                });
                self.nodes.u32(body_init);
            }
            State::Mult { capacity, body_accepts_epsilon, alts, body_init } => {
                let alts: Vec<Vec<u32>> = alts
                    .iter()
                    .map(|threads| threads.iter().map(|t| self.node_id(t)).collect())
                    .collect();
                let body_init = self.node_id(body_init);
                self.nodes.u8(tag::MULT);
                self.nodes.u32(*capacity);
                self.nodes.bool(*body_accepts_epsilon);
                self.write_nested(alts);
                self.nodes.u32(body_init);
            }
        }
        let id = self.node_count;
        self.node_count += 1;
        self.node_ids.insert(key, id);
        id
    }

    fn write_nested(&mut self, alts: Vec<Vec<u32>>) {
        self.nodes.seq(alts, |w, threads| w.seq(threads, Writer::u32));
    }

    /// Serializes the table: scope count + scopes, node count + nodes.
    pub fn finish(self, w: &mut Writer) {
        w.u32(self.scope_count);
        w.raw(&self.scopes.into_bytes());
        w.u32(self.node_count);
        w.raw(&self.nodes.into_bytes());
    }
}

/// The decoded state table: indexable pools of scopes and state nodes.
pub struct StateTableReader {
    nodes: Vec<Shared<State>>,
}

impl StateTableReader {
    /// Decodes a table serialized by [`StateTableBuilder::finish`].
    pub fn read(r: &mut Reader) -> Result<StateTableReader, CodecError> {
        let scopes = r.seq(|r| {
            let alphabet = decode_alphabet(r)?;
            let blocked_len = r.len_prefix()?;
            let mut blocked = BTreeSet::new();
            for _ in 0..blocked_len {
                blocked.insert(Param::new(&r.str()?));
            }
            Ok(Shared::new(ScopedAlphabet::new(alphabet, blocked)))
        })?;
        // A node refers back into the pool, so each one joins it as it is
        // read; the sequence itself is of `()`, which allocates nothing.
        let mut reader = StateTableReader { nodes: Vec::new() };
        r.seq(|r| {
            let node = reader.read_node(r, &scopes)?;
            reader.nodes.push(node);
            Ok(())
        })?;
        Ok(reader)
    }

    /// The state behind a node id (a root id the caller stored).
    pub fn node(&self, id: u32) -> Result<Shared<State>, CodecError> {
        self.nodes.get(id as usize).cloned().ok_or(CodecError::BadReference { index: id as u64 })
    }

    /// Number of distinct nodes in the pool.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn child(&self, id: u32) -> Result<Shared<State>, CodecError> {
        self.node(id)
    }

    fn scope(
        scopes: &[Shared<ScopedAlphabet>],
        id: u32,
    ) -> Result<Shared<ScopedAlphabet>, CodecError> {
        scopes.get(id as usize).cloned().ok_or(CodecError::BadReference { index: id as u64 })
    }

    fn read_quant(&self, r: &mut Reader) -> Result<QuantState, CodecError> {
        let param = Param::new(&r.str()?);
        let template = self.child(r.u32()?)?;
        let len = r.len_prefix()?;
        let mut branches = BTreeMap::new();
        for _ in 0..len {
            let v = decode_value(r)?;
            branches.insert(v, self.child(r.u32()?)?);
        }
        Ok(QuantState { param, template, branches })
    }

    fn read_nested(&self, r: &mut Reader) -> Result<Vec<Vec<Shared<State>>>, CodecError> {
        r.seq(|r| r.seq(|r| self.child(r.u32()?)))
    }

    fn read_node(
        &self,
        r: &mut Reader,
        scopes: &[Shared<ScopedAlphabet>],
    ) -> Result<Shared<State>, CodecError> {
        let state = match r.u8()? {
            // The process-wide null singleton keeps its sharing.
            tag::NULL => return Ok(null_state()),
            tag::EPSILON => State::Epsilon,
            tag::ATOM_FRESH => State::AtomFresh { action: decode_action(r)? },
            tag::ATOM_DONE => State::AtomDone,
            tag::OPTION => {
                let at_start = r.bool()?;
                State::Option { at_start, body: self.child(r.u32()?)? }
            }
            tag::SEQ => {
                let left = self.child(r.u32()?)?;
                let rights = r.seq(|r| self.child(r.u32()?))?;
                let right_init = self.child(r.u32()?)?;
                State::Seq { left, rights, right_init }
            }
            tag::SEQ_ITER => {
                let boundary = r.bool()?;
                let runs = r.seq(|r| self.child(r.u32()?))?;
                let body_init = self.child(r.u32()?)?;
                State::SeqIter { boundary, runs, body_init }
            }
            tag::PAR => {
                State::Par { alts: r.seq(|r| Ok((self.child(r.u32()?)?, self.child(r.u32()?)?)))? }
            }
            tag::PAR_ITER => {
                let alts = self.read_nested(r)?;
                let body_init = self.child(r.u32()?)?;
                State::ParIter { alts, body_init }
            }
            tag::OR => State::Or { left: self.child(r.u32()?)?, right: self.child(r.u32()?)? },
            tag::AND => State::And { left: self.child(r.u32()?)?, right: self.child(r.u32()?)? },
            tag::SYNC => {
                let left = self.child(r.u32()?)?;
                let right = self.child(r.u32()?)?;
                let left_alpha = Self::scope(scopes, r.u32()?)?;
                let right_alpha = Self::scope(scopes, r.u32()?)?;
                State::Sync { left, right, left_alpha, right_alpha }
            }
            tag::SOME_Q => State::SomeQ(self.read_quant(r)?),
            tag::ALL_Q => State::AllQ(self.read_quant(r)?),
            scoped @ (tag::SOME_Q_SCOPED | tag::ALL_Q_SCOPED) => {
                let q = self.read_quant(r)?;
                Self::scope(scopes, r.u32()?)?;
                if scoped == tag::SOME_Q_SCOPED {
                    State::SomeQ(q)
                } else {
                    State::AllQ(q)
                }
            }
            tag::SYNC_Q => {
                let quant = self.read_quant(r)?;
                State::SyncQ { quant, scope: Self::scope(scopes, r.u32()?)? }
            }
            tag::PAR_Q => {
                let param = Param::new(&r.str()?);
                let body_accepts_epsilon = r.bool()?;
                let alts = r.seq(|r| {
                    let inner = r.len_prefix()?;
                    let mut branches = BTreeMap::new();
                    for _ in 0..inner {
                        let v = decode_value(r)?;
                        branches.insert(v, self.child(r.u32()?)?);
                    }
                    Ok(branches)
                })?;
                let body_init = self.child(r.u32()?)?;
                State::ParQ { param, body_accepts_epsilon, alts, body_init }
            }
            tag::MULT => {
                let capacity = r.u32()?;
                let body_accepts_epsilon = r.bool()?;
                let alts = self.read_nested(r)?;
                let body_init = self.child(r.u32()?)?;
                State::Mult { capacity, body_accepts_epsilon, alts, body_init }
            }
            tag => return Err(CodecError::BadTag { tag }),
        };
        Ok(Shared::new(state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_core::parse;
    use ix_state::initial_state;

    fn drive(expr: &str, word: &[Action]) -> Shared<State> {
        let expr = parse(expr).unwrap();
        let mut state = Shared::new(initial_state(&expr));
        for a in word {
            let next = ix_state::trans(&state, a);
            state = Shared::new(next);
        }
        state
    }

    fn round_trip(state: &Shared<State>) -> Shared<State> {
        let mut b = StateTableBuilder::new();
        let root = b.add_root(state);
        let mut w = Writer::new();
        b.finish(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let table = StateTableReader::read(&mut r).unwrap();
        table.node(root).unwrap()
    }

    #[test]
    fn actions_and_values_round_trip() {
        let mut w = Writer::new();
        let a = Action::new(
            "call",
            [
                Term::Value(Value::int(-7)),
                Term::Value(Value::sym("sono")),
                Term::Param(Param::new("p")),
            ],
        );
        encode_action(&mut w, &a);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_action(&mut r).unwrap(), a);
    }

    #[test]
    fn alphabets_round_trip() {
        let expr = parse("some p { call(p) - perform(p) } | done").unwrap();
        let alphabet = expr.alphabet();
        let mut w = Writer::new();
        encode_alphabet(&mut w, &alphabet);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_alphabet(&mut r).unwrap(), alphabet);
    }

    #[test]
    fn a_count_past_the_input_is_an_error_not_an_allocation() {
        // 2^62 actions or terms overflow a capacity computation.
        let mut count = Writer::new();
        count.u64(1 << 62);
        assert_eq!(decode_alphabet(&mut Reader::new(count.as_bytes())), Err(CodecError::Truncated));
        let mut action = Writer::new();
        action.str("a");
        action.raw(count.as_bytes());
        let bytes = action.into_bytes();
        assert_eq!(decode_action(&mut Reader::new(&bytes)), Err(CodecError::Truncated));
    }

    #[test]
    fn states_round_trip_across_operators() {
        let cases: &[(&str, Vec<Action>)] = &[
            ("a - b - c", vec![Action::nullary("a")]),
            ("(a - b) | c*", vec![Action::nullary("c"), Action::nullary("c")]),
            ("a? - b", vec![]),
            ("a# - b", vec![Action::nullary("a"), Action::nullary("a")]),
            ("(a - b) & (a - c)? ", vec![Action::nullary("a")]),
            ("(a - b) @ (b - c)", vec![Action::nullary("a")]),
            ("all p { call(p) - perform(p) }", vec![Action::concrete("call", [Value::int(1)])]),
            ("some x { go(x) } + stop", vec![Action::concrete("go", [Value::sym("left")])]),
            ("sync p { a(p)* }", vec![Action::concrete("a", [Value::int(3)])]),
            ("each p { a(p) - b(p) }", vec![Action::concrete("a", [Value::int(2)])]),
            (
                "mult 3 { open - close }",
                vec![Action::nullary("open"), Action::nullary("close"), Action::nullary("open")],
            ),
        ];
        for (src, word) in cases {
            let state = drive(src, word);
            let restored = round_trip(&state);
            assert_eq!(state, restored, "state of {src:?} after {word:?}");
        }
    }

    #[test]
    fn decoding_preserves_structural_sharing() {
        let pool_len = |roots: &[&Shared<State>]| {
            let mut b = StateTableBuilder::new();
            for root in roots {
                b.add_root(root);
            }
            let mut w = Writer::new();
            b.finish(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            StateTableReader::read(&mut r).unwrap().len()
        };
        // A Par state holding the *same allocation* in both slots encodes
        // the subtree once: pool(par) = pool(child) + the par node itself.
        let child = drive("a - b", &[Action::nullary("a")]);
        let par = Shared::new(State::Par { alts: vec![(child.clone(), child.clone())] });
        assert_eq!(pool_len(&[&par]), pool_len(&[&child]) + 1, "shared subtree encoded once");
        let restored = round_trip(&par);
        assert_eq!(par, restored);
        // And the decoder rebuilds the sharing, not just the values.
        match restored.as_ref() {
            State::Par { alts } => assert!(Shared::ptr_eq(&alts[0].0, &alts[0].1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multiple_roots_share_one_pool() {
        let s1 = drive("a - b - c", &[Action::nullary("a")]);
        let s2 = s1.clone();
        let mut b = StateTableBuilder::new();
        let r1 = b.add_root(&s1);
        let r2 = b.add_root(&s2);
        assert_eq!(r1, r2, "same allocation, same id");
        let mut w = Writer::new();
        b.finish(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let table = StateTableReader::read(&mut r).unwrap();
        assert!(Shared::ptr_eq(&table.node(r1).unwrap(), &table.node(r2).unwrap()));
    }

    #[test]
    fn a_scoped_some_or_each_node_decodes_and_drops_its_checked_scope() {
        // A table of `scopes` empty scopes and two nodes: ε, then a `some`
        // or `each` node in the layout that carried a scope id, over ε.
        let decode = |scopes: usize, node_tag: u8| {
            let mut w = Writer::new();
            w.len_prefix(scopes);
            for _ in 0..scopes {
                w.len_prefix(0); // no actions
                w.len_prefix(0); // no blocked parameters
            }
            w.len_prefix(2);
            w.u8(tag::EPSILON);
            w.u8(node_tag);
            w.str("p");
            w.u32(0); // the template
            w.len_prefix(0); // no branches
            w.u32(0); // the scope id
            let bytes = w.into_bytes();
            StateTableReader::read(&mut Reader::new(&bytes))?.node(1)
        };
        let quant = QuantState {
            param: Param::new("p"),
            template: Shared::new(State::Epsilon),
            branches: BTreeMap::new(),
        };
        assert_eq!(*decode(1, tag::SOME_Q_SCOPED).unwrap(), State::SomeQ(quant.clone()));
        assert_eq!(*decode(1, tag::ALL_Q_SCOPED).unwrap(), State::AllQ(quant));
        for node_tag in [tag::SOME_Q_SCOPED, tag::ALL_Q_SCOPED] {
            assert_eq!(decode(0, node_tag), Err(CodecError::BadReference { index: 0 }));
        }
    }

    #[test]
    fn null_decodes_to_the_global_singleton() {
        let restored = round_trip(&null_state());
        assert!(Shared::ptr_eq(&restored, &null_state()));
    }
}
