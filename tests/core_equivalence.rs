//! Equivalence tests for the representations `ix-core` builds once and then
//! only reads: alphabets against a `BTreeSet<Action>` model (iteration
//! order, queries, set algebra, and `Eq`/`Ord`/`Hash` — what keeps every
//! encoding that walks or hashes an alphabet byte-identical), a partition's
//! routing table against a scan of its component alphabets, the parser
//! against the printer over every operator, and the parser's error
//! positions and messages on malformed input.

use ix_core::{
    parse, Action, Alphabet, CoreError, Expr, Param, Partition, Route, Symbol, Term, Value,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

const NAMES: [&str; 4] = ["a", "b", "c", "d"];

fn value_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0u64..3).prop_map(|i| Term::Value(Value::int(i as i64))),
        (0usize..2).prop_map(|i| Term::Value(Value::sym(["u", "v"][i]))),
    ]
}

fn any_term() -> impl Strategy<Value = Term> {
    prop_oneof![value_term(), (0usize..2).prop_map(|i| Term::Param(Param::new(["p", "q"][i])))]
}

/// Names from a small pool and arities 0–3, so candidates collide often.
fn action_from(term: BoxedStrategy<Term>) -> impl Strategy<Value = Action> {
    (0usize..NAMES.len(), proptest::collection::vec(term, 0..4))
        .prop_map(|(name, args)| Action::new(NAMES[name], args))
}

fn abstract_action() -> impl Strategy<Value = Action> {
    action_from(any_term().boxed())
}

fn concrete_action() -> impl Strategy<Value = Action> {
    action_from(value_term().boxed())
}

/// The membership test as first written: bindings collected in a list.
fn reference_matches(pattern: &Action, concrete: &Action) -> bool {
    if pattern.name() != concrete.name() || pattern.arity() != concrete.arity() {
        return false;
    }
    let mut bindings: Vec<(Param, Value)> = Vec::new();
    for (pat, conc) in pattern.args().iter().zip(concrete.args()) {
        let Term::Value(cv) = *conc else { return false };
        match *pat {
            Term::Value(v) if v != cv => return false,
            Term::Value(_) => {}
            Term::Param(p) => match bindings.iter().find(|(q, _)| *q == p) {
                Some(&(_, bound)) if bound != cv => return false,
                Some(_) => {}
                None => bindings.push((p, cv)),
            },
        }
    }
    true
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

fn check_against_model(
    xs: Vec<Action>,
    ys: Vec<Action>,
    abstract_probes: &[Action],
    concrete_probes: &[Action],
) -> Result<(), TestCaseError> {
    let (alpha, beta) = (Alphabet::from_actions(xs.clone()), Alphabet::from_actions(ys.clone()));
    let (ma, mb): (BTreeSet<Action>, BTreeSet<Action>) =
        (xs.into_iter().collect(), ys.into_iter().collect());

    prop_assert!(alpha.actions().eq(ma.iter()), "iteration order: {alpha} vs {ma:?}");
    prop_assert_eq!(alpha.len(), ma.len());
    prop_assert_eq!(alpha.is_empty(), ma.is_empty());
    for name in NAMES.map(Symbol::new) {
        let expected: Vec<&Action> = ma.iter().filter(|a| a.name() == name).collect();
        prop_assert!(alpha.candidates(name).iter().eq(expected), "candidates of {name}");
    }
    for probe in abstract_probes {
        prop_assert_eq!(alpha.contains_abstract(probe), ma.contains(probe));
        let overlaps = ma.iter().any(|a| a.may_overlap(probe));
        prop_assert_eq!(alpha.overlaps_action(probe), overlaps, "overlap with {}", probe);
    }
    for probe in concrete_probes {
        prop_assert_eq!(alpha.covering(probe), ma.iter().find(|a| reference_matches(a, probe)));
        let covered = ma.iter().any(|a| reference_matches(a, probe));
        prop_assert_eq!(alpha.covers(probe), covered, "coverage of {}", probe);
        for a in &ma {
            prop_assert_eq!(a.matches_concrete(probe), reference_matches(a, probe));
        }
    }
    prop_assert!(alpha.union(&beta).actions().eq(ma.union(&mb)));
    prop_assert!(alpha.difference(&beta).actions().eq(ma.difference(&mb)));
    let disjoint = !ma.iter().any(|a| mb.iter().any(|b| a.may_overlap(b)));
    prop_assert_eq!(alpha.is_disjoint(&beta), disjoint);
    prop_assert_eq!(alpha == beta, ma == mb);
    prop_assert_eq!(alpha.cmp(&beta), ma.cmp(&mb));
    prop_assert_eq!(alpha.partial_cmp(&beta), ma.partial_cmp(&mb));
    prop_assert_eq!(hash_of(&alpha), hash_of(&ma), "hash of {}", alpha);
    prop_assert_eq!(hash_of(&beta), hash_of(&mb));
    Ok(())
}

/// One operand of a chain: an iterated sequence of one to three atoms over
/// the shared name pool, so operands of one chain overlap often, with its
/// parameters bound by `some`.
fn operand() -> impl Strategy<Value = Expr> {
    proptest::collection::vec(abstract_action(), 1..4).prop_map(|atoms| {
        let body = atoms.into_iter().map(Expr::atom).reduce(Expr::seq).unwrap();
        let e = Expr::seq_iter(body);
        e.free_params().into_iter().fold(e, |e, p| Expr::some_q(p, e))
    })
}

/// A chain of one to four operands joined by ⊗, or by ‖ one time in four
/// (which splits only where the operands are disjoint).
fn chain() -> impl Strategy<Value = Expr> {
    proptest::collection::vec((operand(), 0usize..4), 1..5).prop_map(|operands| {
        let mut operands = operands.into_iter();
        let (first, _) = operands.next().unwrap();
        operands
            .fold(first, |e, (x, join)| if join == 0 { Expr::par(e, x) } else { Expr::sync(e, x) })
    })
}

/// The overlap owner sets as the partition once kept them, in a map built
/// whole: every abstract action of some alphabet, with the alphabets that
/// may cover a common instantiation of it.
fn overlap_owner_sets(alphabets: &[Alphabet]) -> BTreeMap<Action, Vec<usize>> {
    let mut owners = BTreeMap::new();
    for alphabet in alphabets {
        for action in alphabet.actions() {
            owners.entry(action.clone()).or_insert_with(|| {
                (0..alphabets.len()).filter(|&j| alphabets[j].overlaps_action(action)).collect()
            });
        }
    }
    owners
}

fn alphabets(partition: &Partition) -> Vec<Alphabet> {
    partition.components().iter().map(|c| c.alphabet.clone()).collect()
}

/// Probes for a partition: the random `extra` actions, every alphabet entry
/// as it stands, instantiated (each parameter bound to 1), and with one
/// argument too many, plus a name no alphabet has.
fn probes(partition: &Partition, extra: &[Action]) -> Vec<Action> {
    let mut out = extra.to_vec();
    for entry in partition.components().iter().flat_map(|c| c.alphabet.actions()) {
        let bound = entry.args().iter().map(|t| Term::Value(t.as_value().unwrap_or(Value::int(1))));
        let longer = entry.args().iter().cloned().chain([Term::Value(Value::int(0))]);
        out.extend([
            entry.clone(),
            Action::new(entry.name(), bound),
            Action::new(entry.name(), longer),
        ]);
    }
    out.push(Action::nullary("unknown"));
    out
}

/// Every routing answer of the partition against the scan of its component
/// alphabets.
fn check_routes(partition: &Partition, probes: &[Action]) -> Result<(), TestCaseError> {
    for action in probes {
        let scan: Vec<usize> = (0..partition.len())
            .filter(|&i| partition.components()[i].alphabet.covers(action))
            .collect();
        let route = match scan.as_slice() {
            [] => Route::None,
            [one] => Route::Single(*one),
            _ => Route::Multi(scan.clone()),
        };
        prop_assert_eq!(partition.classify(action), route, "classify {}", action);
        prop_assert_eq!(partition.owners_of(action), scan.clone(), "owners_of {}", action);
        prop_assert_eq!(partition.route(action), scan.first().copied(), "route {}", action);
        prop_assert_eq!(partition.is_shared(action), scan.len() > 1, "is_shared {}", action);
    }
    Ok(())
}

/// Well-scoped expressions over every operator: atoms with integer, symbol
/// and parameter arguments, holes, `empty`, all binary and postfix
/// operators, the four quantifiers and the multiplier.  Parameters left
/// free are bound by quantifiers wrapped around the result, so every
/// parameter argument prints inside its binder.
fn scoped_expr() -> impl Strategy<Value = Expr> {
    let term = prop_oneof![
        (0u64..1000).prop_map(|i| Term::Value(Value::int(i as i64))),
        Just(Term::Value(Value::int(i64::MAX))),
        (0usize..3).prop_map(|i| Term::Value(Value::sym(["sono", "endo", "ward_2"][i]))),
        (0usize..2).prop_map(|i| Term::Param(Param::new(["p", "x"][i]))),
    ];
    let atom = (0usize..4, proptest::collection::vec(term, 0..4)).prop_map(|(name, args)| {
        Expr::atom(Action::new(["a", "call", "perform", "e9"][name], args))
    });
    let leaf = prop_oneof![
        atom,
        Just(Expr::empty()),
        (0usize..2).prop_map(|i| Expr::hole(["h", "body"][i])),
    ];
    let quantified = leaf
        .prop_recursive(4, 32, 2, |inner| {
            let param = (0usize..2).prop_map(|i| Param::new(["p", "x"][i]));
            prop_oneof![
                inner.clone().prop_map(Expr::option),
                inner.clone().prop_map(Expr::seq_iter),
                inner.clone().prop_map(Expr::par_iter),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::seq(l, r)),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::par(l, r)),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::or(l, r)),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::and(l, r)),
                (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::sync(l, r)),
                (0usize..4, param, inner.clone()).prop_map(|(q, p, body)| match q {
                    0 => Expr::some_q(p, body),
                    1 => Expr::par_q(p, body),
                    2 => Expr::sync_q(p, body),
                    _ => Expr::all_q(p, body),
                }),
                (1u32..4, inner).prop_map(|(n, body)| Expr::mult(n, body)),
            ]
        })
        .boxed();
    quantified.prop_map(|e| e.free_params().into_iter().fold(e, |e, p| Expr::some_q(p, e)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn alphabets_behave_like_their_btreeset_model(
        xs in proptest::collection::vec(abstract_action(), 0..10),
        ys in proptest::collection::vec(abstract_action(), 0..10),
        abstract_probes in proptest::collection::vec(abstract_action(), 1..6),
        concrete_probes in proptest::collection::vec(concrete_action(), 1..8),
    ) {
        check_against_model(xs, ys, &abstract_probes, &concrete_probes)?;
    }

    #[test]
    fn overlapping_alphabets_behave_like_their_btreeset_model(
        xs in proptest::collection::vec(abstract_action(), 0..10),
        shared in proptest::collection::vec(abstract_action(), 0..4),
        concrete_probes in proptest::collection::vec(concrete_action(), 1..8),
    ) {
        // Equal and overlapping operands, which independent draws rarely give.
        let ys: Vec<Action> = xs.iter().take(xs.len() / 2).chain(&shared).cloned().collect();
        check_against_model(xs.clone(), xs.clone(), &shared, &concrete_probes)?;
        check_against_model(xs, ys, &shared, &concrete_probes)?;
    }

    #[test]
    fn a_partition_routes_like_the_scan_of_its_alphabets(
        base in chain(),
        addition in chain(),
        extra in proptest::collection::vec(concrete_action(), 1..8),
    ) {
        let partition = Partition::of(&base);
        check_routes(&partition, &probes(&partition, &extra))?;

        let (grown, delta) = partition.extend(std::slice::from_ref(&addition));
        let old_len = partition.len();
        prop_assert_eq!(delta.added, (old_len..grown.len()).collect::<Vec<_>>());
        prop_assert!(grown.len() > old_len, "every constraint adds a component");
        prop_assert_eq!(grown.epoch(), partition.epoch() + 1);
        let rebuilt = Partition::from_components(grown.components().to_vec(), grown.epoch());
        let probes = probes(&grown, &extra);
        check_routes(&grown, &probes)?;
        for action in &probes {
            prop_assert_eq!(grown.classify(action), rebuilt.classify(action), "{}", action);
        }

        let before = overlap_owner_sets(&alphabets(&partition));
        let widened: Vec<(Action, Vec<usize>)> = overlap_owner_sets(&alphabets(&grown))
            .into_iter()
            .filter(|(action, owners)| {
                owners.iter().any(|&o| o < old_len) && before.get(action) != Some(owners)
            })
            .collect();
        prop_assert_eq!(delta.widened, widened);
    }

    #[test]
    fn printing_then_parsing_is_the_identity(e in scoped_expr()) {
        let printed = e.to_string();
        let reparsed = parse(&printed);
        prop_assert!(reparsed.is_ok(), "{printed} does not parse: {reparsed:?}");
        prop_assert_eq!(reparsed.unwrap(), e, "round trip through {}", printed);
    }
}

#[test]
fn malformed_input_reports_the_same_positions_and_messages() {
    let cases: [(&str, usize, &str); 19] = [
        ("", 0, "expected an expression, found end of input"),
        ("a -", 3, "expected an expression, found end of input"),
        ("(a - b", 6, "expected `)`, found end of input"),
        ("mult 0 { a }", 7, "multiplier count must be positive, got 0"),
        ("mult x { a }", 7, "expected a positive integer after `mult`, found identifier `x`"),
        ("some { a }", 7, "expected a parameter name after `some`, found `{`"),
        ("some all { a }", 9, "`all` is a reserved word and cannot be used as a parameter"),
        ("a b", 2, "expected end of input, found identifier `b`"),
        ("a % b", 2, "unexpected character `%`"),
        ("$ ", 0, "expected identifier after `$`"),
        ("a(1, )", 6, "expected an action argument (integer or identifier), found `)`"),
        ("call(p", 6, "expected `)`, found end of input"),
        ("99999999999999999999", 0, "integer literal `99999999999999999999` is out of range"),
        ("a - - b", 4, "expected an expression, found `-`"),
        ("some p { a(p) ", 14, "expected `}`, found end of input"),
        ("a(- 1)", 4, "expected an action argument (integer or identifier), found `-`"),
        ("all p { b(p) } }", 15, "expected end of input, found `}`"),
        ("mult 3 a", 7, "expected `{`, found identifier `a`"),
        ("(a - $)", 5, "expected identifier after `$`"),
    ];
    for (src, position, message) in cases {
        match parse(src) {
            Err(CoreError::Parse { position: at, message: said }) => {
                assert_eq!((at, said.as_str()), (position, message), "parsing {src:?}");
            }
            other => panic!("parsing {src:?} gave {other:?}"),
        }
    }
    assert!(matches!(parse("nope!(a)"), Err(CoreError::UnknownTemplate { .. })));
}
