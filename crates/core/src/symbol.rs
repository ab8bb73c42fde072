//! Interned symbols.
//!
//! Action names (the set Λ of the paper), symbolic values (part of Ω) and
//! parameter names (Π) are all plain identifiers.  They are interned into a
//! global table so that the rest of the system can treat them as `Copy`
//! integers: comparisons, hashing and cloning of actions and expressions stay
//! cheap even though states and alternatives are duplicated frequently by the
//! operational semantics.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};

/// An interned identifier.
///
/// Two symbols are equal if and only if they were created from the same
/// string.  The ordering is the interning order, which is stable within a
/// process and sufficient for the deterministic data structures used by the
/// state model (it does not need to be lexicographic).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

struct Interner {
    map: HashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

impl Interner {
    fn new() -> Self {
        Interner { map: HashMap::new(), strings: Vec::new() }
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        let arc: Arc<str> = Arc::from(s);
        self.strings.push(arc.clone());
        self.map.insert(arc, id);
        id
    }

    fn resolve(&self, id: u32) -> Arc<str> {
        self.strings[id as usize].clone()
    }
}

fn global() -> &'static RwLock<Interner> {
    static GLOBAL: std::sync::OnceLock<RwLock<Interner>> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(Interner::new()))
}

impl Symbol {
    /// Interns `s` and returns its symbol.
    pub fn new(s: &str) -> Symbol {
        // Fast path: already interned, only a read lock is needed.
        {
            let g = global().read().unwrap_or_else(PoisonError::into_inner);
            if let Some(&id) = g.map.get(s) {
                return Symbol(id);
            }
        }
        Symbol(global().write().unwrap_or_else(PoisonError::into_inner).intern(s))
    }

    /// Returns the string this symbol was interned from.
    pub fn as_str(&self) -> Arc<str> {
        global().read().unwrap_or_else(PoisonError::into_inner).resolve(self.0)
    }

    /// The raw interning index (stable within a process).
    pub fn index(&self) -> u32 {
        self.0
    }

    /// The symbol with the given interning index, if one was interned — the
    /// inverse of [`Symbol::index`] for the in-memory packed action codec.
    pub(crate) fn from_index(index: u32) -> Option<Symbol> {
        ((index as usize) < global().read().unwrap_or_else(PoisonError::into_inner).strings.len())
            .then_some(Symbol(index))
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::new(s)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("prepare");
        let b = Symbol::new("prepare");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Symbol::new("call");
        let b = Symbol::new("perform");
        assert_ne!(a, b);
    }

    #[test]
    fn resolves_back_to_the_original_string() {
        let a = Symbol::new("write_report");
        assert_eq!(&*a.as_str(), "write_report");
        assert_eq!(a.to_string(), "write_report");
    }

    #[test]
    fn symbols_are_usable_as_map_keys() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(Symbol::new("x"), 1);
        m.insert(Symbol::new("y"), 2);
        assert_eq!(m[&Symbol::new("x")], 1);
        assert_eq!(m[&Symbol::new("y")], 2);
    }

    #[test]
    fn debug_and_display_formats() {
        let s = Symbol::new("endo");
        assert_eq!(format!("{s}"), "endo");
        assert!(format!("{s:?}").contains("endo"));
    }

    #[test]
    fn many_symbols_round_trip() {
        let names: Vec<String> = (0..200).map(|i| format!("sym_{i}")).collect();
        let syms: Vec<Symbol> = names.iter().map(|n| Symbol::new(n)).collect();
        for (n, s) in names.iter().zip(&syms) {
            assert_eq!(&*s.as_str(), n.as_str());
        }
    }
}
