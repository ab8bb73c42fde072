//! Seed-determined op lists with scripted verdicts.
//!
//! Every generator carries a small model of the constraint it drives (which
//! department is mid-case, which patient is in which examination stage), so
//! each op comes with the verdict the interaction manager must give.  The
//! harness checks the runtime *and* the blocking manager against the script;
//! the unit tests check the script against the engine and `ix_semantics`.
//!
//! A generator is a stream: `next_pass(n)` continues where the previous pass
//! stopped, so warm-up and the timed repetitions run different ops of one
//! statistically uniform schedule on one runtime.

use crate::rng::{Rng, Zipf};
use ix_core::{Action, Value};

/// How an op is submitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `submit`/`submit_batch`/`ask`+`confirm`: asks for a commit.
    Execute,
    /// `is_permitted`.
    Probe,
    Subscribe,
    Unsubscribe,
}

/// A scripted or observed outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Commit,
    Deny,
    /// A probe or a subscription reply carrying "currently permitted".
    Permitted,
    NotPermitted,
    /// An unsubscribe acknowledgement.
    Ack,
    /// `Failed`, `Overloaded`, a timeout — never scripted.
    Failed,
}

impl Verdict {
    /// The reply of a probe or a subscription.
    pub fn permitted(flag: bool) -> Verdict {
        if flag {
            Verdict::Permitted
        } else {
            Verdict::NotPermitted
        }
    }
}

/// One client's share of one pass.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    pub actions: Vec<Action>,
    pub kinds: Vec<Kind>,
    pub expect: Vec<Verdict>,
}

impl Pass {
    fn push(&mut self, action: &Action, kind: Kind, expect: Verdict) {
        self.actions.push(action.clone());
        self.kinds.push(kind);
        self.expect.push(expect);
    }

    fn execute(&mut self, action: &Action, expect: Verdict) {
        self.push(action, Kind::Execute, expect);
    }

    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Number of ops scripted to commit.
    pub fn commits(&self) -> usize {
        self.expect.iter().filter(|v| **v == Verdict::Commit).count()
    }

    /// A byte-exact rendering, for the determinism tests.
    #[cfg(test)]
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for i in 0..self.len() {
            writeln!(out, "{:?} {} {:?}", self.kinds[i], self.actions[i], self.expect[i]).unwrap();
        }
        out
    }
}

/// The order in which a single thread replays the ops of all clients, as
/// `(client, index)`: the clients' windows alternate, as their submissions do.
pub fn interleaved(passes: &[Pass], window: usize) -> Vec<(usize, usize)> {
    let windows = passes.iter().map(|p| p.len().div_ceil(window)).max().unwrap_or(0);
    let mut order = Vec::with_capacity(passes.iter().map(Pass::len).sum());
    for w in 0..windows {
        for (client, pass) in passes.iter().enumerate() {
            let end = ((w + 1) * window).min(pass.len());
            order.extend((w * window..end).map(|i| (client, i)));
        }
    }
    order
}

/// A seed-determined stream of passes, one [`Pass`] per client.
pub trait Schedule {
    /// The next `ops` ops (in total over all clients; a generator may fall
    /// short by less than one case to keep cases whole).
    fn next_pass(&mut self, ops: usize) -> Vec<Pass>;
}

/// Patient identifiers are drawn from a fixed pool, so quantified state
/// stays bounded however long the schedule runs.
const PATIENTS: usize = 64;

/// `actions[k][p]` is `<stem><k>(p)`.
fn department_actions(stem: &str, departments: usize) -> Vec<Vec<Action>> {
    let patients = |name: String| {
        (0..PATIENTS as i64).map(|p| Action::concrete(&name, [Value::int(p)])).collect()
    };
    (0..departments).map(|k| patients(format!("{stem}{k}"))).collect()
}

// ---------------------------------------------------------------------------
// local_sync / durable_commit: call/perform cases on four disjoint departments
// ---------------------------------------------------------------------------

/// Number of departments of the `local_*` and `durable_commit` workloads.
pub const LOCAL_DEPARTMENTS: usize = 4;

/// `(some p { call_k(p) - perform_k(p) })*` per department, ⊗-coupled.
pub fn local_cases_expr() -> String {
    (0..LOCAL_DEPARTMENTS)
        .map(|k| format!("(some p {{ call_{k}(p) - perform_{k}(p) }})*"))
        .collect::<Vec<_>>()
        .join(" @ ")
}

/// Whole cases on a seeded department for a seeded patient: `call`, then —
/// for `deny_percent` of the cases — a second `call` while the first case is
/// open (the deferred choice that loses: denied), then `perform`.
pub struct LocalCases {
    rng: Rng,
    calls: Vec<Vec<Action>>,
    performs: Vec<Vec<Action>>,
    deny_percent: u64,
    /// Budget units per committed op: 2 when ops are driven as ask + confirm
    /// round trips (`local_sync` sizes a pass in round trips), else 1.
    commit_cost: usize,
}

impl LocalCases {
    pub fn new(seed: u64, deny_percent: u64, commit_cost: usize) -> LocalCases {
        LocalCases {
            rng: Rng::new(seed),
            calls: department_actions("call_", LOCAL_DEPARTMENTS),
            performs: department_actions("perform_", LOCAL_DEPARTMENTS),
            deny_percent,
            commit_cost,
        }
    }
}

impl Schedule for LocalCases {
    fn next_pass(&mut self, ops: usize) -> Vec<Pass> {
        let mut pass = Pass::default();
        let mut spent = 0;
        while spent + 2 * self.commit_cost < ops {
            let k = self.rng.below(LOCAL_DEPARTMENTS as u64) as usize;
            let p = self.rng.below(PATIENTS as u64) as usize;
            pass.execute(&self.calls[k][p], Verdict::Commit);
            if self.rng.chance(self.deny_percent) {
                let other = (p + 1 + self.rng.below(PATIENTS as u64 - 1) as usize) % PATIENTS;
                pass.execute(&self.calls[k][other], Verdict::Deny);
                spent += 1;
            }
            pass.execute(&self.performs[k][p], Verdict::Commit);
            spent += 2 * self.commit_cost;
        }
        vec![pass]
    }
}

// ---------------------------------------------------------------------------
// local_pipelined: quantifier-free four-stage rings, two clients
// ---------------------------------------------------------------------------

const RING_STAGES: [&str; 4] = ["call", "prep", "perform", "report"];

/// `(call_k - prep_k - perform_k - report_k)*` per department, ⊗-coupled.
pub fn local_rings_expr() -> String {
    (0..LOCAL_DEPARTMENTS)
        .map(|k| {
            let ring: Vec<String> = RING_STAGES.iter().map(|s| format!("{s}_{k}")).collect();
            format!("({})*", ring.join(" - "))
        })
        .collect::<Vec<_>>()
        .join(" @ ")
}

/// Two clients, each advancing the rings of its own two departments in a
/// seeded interleaving; 3 % of the ops name a stage two steps ahead (denied).
pub struct LocalRings {
    rngs: [Rng; 2],
    /// `actions[k][stage]`.
    actions: Vec<Vec<Action>>,
    stage: [usize; LOCAL_DEPARTMENTS],
}

impl LocalRings {
    pub fn new(seed: u64) -> LocalRings {
        let actions = (0..LOCAL_DEPARTMENTS)
            .map(|k| RING_STAGES.iter().map(|s| Action::nullary(&*format!("{s}_{k}"))).collect())
            .collect();
        let mut root = Rng::new(seed);
        LocalRings {
            rngs: [Rng::new(root.next_u64()), Rng::new(root.next_u64())],
            actions,
            stage: [0; LOCAL_DEPARTMENTS],
        }
    }
}

impl Schedule for LocalRings {
    fn next_pass(&mut self, ops: usize) -> Vec<Pass> {
        (0..2)
            .map(|client| {
                let rng = &mut self.rngs[client];
                let mut pass = Pass::default();
                for _ in 0..ops / 2 {
                    let k = 2 * client + rng.below(2) as usize;
                    if rng.chance(3) {
                        pass.execute(&self.actions[k][(self.stage[k] + 2) % 4], Verdict::Deny);
                    } else {
                        pass.execute(&self.actions[k][self.stage[k]], Verdict::Commit);
                        self.stage[k] = (self.stage[k] + 1) % 4;
                    }
                }
                pass
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// ensemble_fig7: the paper's coupled patient and capacity constraints
// ---------------------------------------------------------------------------

const FIG7_PATIENTS: usize = 32;
const FIG7_DEPARTMENTS: [&str; 4] = ["sono", "endo", "xray", "ct"];
const FIG7_CAPACITY: usize = 3;
/// The four point actions of one examination, in order.
const FIG7_EXAM: [&str; 4] = [
    "call_patient_start",
    "call_patient_end",
    "perform_examination_start",
    "perform_examination_end",
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum PatientState {
    Idle,
    /// Between `prepare_patient_start` and `_end` for the department.
    Prepared(usize),
    /// Between `inform_patient_start` and `_end`.
    Informed(usize),
    /// In an examination at the department; `done` exam actions committed.
    Examined(usize, usize),
}

/// A seeded interleaving of 32 patients over 4 departments of capacity 3.
/// Denials are scripted two ways: an idle patient called into a full
/// department (capacity restriction) and a patient under examination called
/// into a second department (patient constraint).
pub struct Fig7Ensemble {
    rng: Rng,
    patients: [PatientState; FIG7_PATIENTS],
    load: [usize; 4],
    /// `actions[name][patient][department]`, names as in [`Fig7Ensemble::NAMES`].
    actions: Vec<Vec<Vec<Action>>>,
    introduced: bool,
}

impl Fig7Ensemble {
    const NAMES: [&'static str; 8] = [
        FIG7_EXAM[0],
        FIG7_EXAM[1],
        FIG7_EXAM[2],
        FIG7_EXAM[3],
        "prepare_patient_start",
        "prepare_patient_end",
        "inform_patient_start",
        "inform_patient_end",
    ];

    pub fn new(seed: u64) -> Fig7Ensemble {
        let actions = Self::NAMES
            .iter()
            .map(|name| {
                (0..FIG7_PATIENTS as i64)
                    .map(|p| {
                        FIG7_DEPARTMENTS
                            .iter()
                            .map(|x| Action::concrete(*name, [Value::int(p), Value::sym(x)]))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Fig7Ensemble {
            rng: Rng::new(seed),
            patients: [PatientState::Idle; FIG7_PATIENTS],
            load: [0; 4],
            actions,
            introduced: false,
        }
    }
}

impl Schedule for Fig7Ensemble {
    fn next_pass(&mut self, ops: usize) -> Vec<Pass> {
        let mut pass = Pass::default();
        if !self.introduced {
            // Quantified state keeps one instance per value in order of
            // first appearance.  Every patient meets every department in
            // one fixed order first, so that the seed decides the
            // interleaving but not the shape of the state.
            self.introduced = true;
            for p in 0..FIG7_PATIENTS {
                for x in 0..4 {
                    pass.execute(&self.actions[4][p][x], Verdict::Commit);
                    pass.execute(&self.actions[5][p][x], Verdict::Commit);
                }
            }
        }
        for _ in pass.len()..ops {
            let p = self.rng.below(FIG7_PATIENTS as u64) as usize;
            let x = self.rng.below(4) as usize;
            let roll = self.rng.below(100);
            let (name, dept, verdict, next) = match self.patients[p] {
                PatientState::Idle if roll < 60 => {
                    if self.load[x] < FIG7_CAPACITY {
                        self.load[x] += 1;
                        (0, x, Verdict::Commit, PatientState::Examined(x, 1))
                    } else {
                        (0, x, Verdict::Deny, PatientState::Idle)
                    }
                }
                PatientState::Idle if roll < 80 => {
                    (4, x, Verdict::Commit, PatientState::Prepared(x))
                }
                PatientState::Idle => (6, x, Verdict::Commit, PatientState::Informed(x)),
                PatientState::Prepared(d) => (5, d, Verdict::Commit, PatientState::Idle),
                PatientState::Informed(d) => (7, d, Verdict::Commit, PatientState::Idle),
                PatientState::Examined(d, _) if roll < 8 => {
                    (0, (d + 1 + x % 3) % 4, Verdict::Deny, self.patients[p])
                }
                PatientState::Examined(d, 3) => {
                    self.load[d] -= 1;
                    (3, d, Verdict::Commit, PatientState::Idle)
                }
                PatientState::Examined(d, done) => {
                    (done, d, Verdict::Commit, PatientState::Examined(d, done + 1))
                }
            };
            self.patients[p] = next;
            pass.execute(&self.actions[name][p][dept], verdict);
        }
        vec![pass]
    }
}

// ---------------------------------------------------------------------------
// cross_chain: local bursts, then depth-4 audit barriers
// ---------------------------------------------------------------------------

/// Number of departments of the `cross_chain` workload.
pub const CHAIN_DEPARTMENTS: usize = 4;
/// Ops per round: 6 call/perform pairs, then 4 consecutive audits (25 %).
const CHAIN_ROUND: usize = 16;

/// Rounds of `coupled_ensemble_constraint(4)`: one call/perform pair on
/// every department in seeded order plus two more on seeded departments,
/// then four consecutive `audit`s.  Every round ends with all departments
/// idle, so every audit commits.
pub struct CrossChain {
    rng: Rng,
    calls: Vec<Vec<Action>>,
    performs: Vec<Vec<Action>>,
    audit: Action,
}

impl CrossChain {
    pub fn new(seed: u64) -> CrossChain {
        CrossChain {
            rng: Rng::new(seed),
            calls: department_actions("call_dept", CHAIN_DEPARTMENTS),
            performs: department_actions("perform_dept", CHAIN_DEPARTMENTS),
            audit: ix_wfms::coupled_audit(),
        }
    }
}

impl Schedule for CrossChain {
    fn next_pass(&mut self, ops: usize) -> Vec<Pass> {
        let mut pass = Pass::default();
        for _ in 0..ops / CHAIN_ROUND {
            let mut order: Vec<usize> = (0..CHAIN_DEPARTMENTS).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
            for _ in 0..2 {
                order.push(self.rng.below(CHAIN_DEPARTMENTS as u64) as usize);
            }
            for k in order {
                let p = self.rng.below(PATIENTS as u64) as usize;
                pass.execute(&self.calls[k][p], Verdict::Commit);
                pass.execute(&self.performs[k][p], Verdict::Commit);
            }
            for _ in 0..4 {
                pass.execute(&self.audit, Verdict::Commit);
            }
        }
        vec![pass]
    }
}

// ---------------------------------------------------------------------------
// mixed_open: commits, scripted denials, probes, subscriptions, audits
// ---------------------------------------------------------------------------

/// Number of departments of the `mixed_open` workload.
pub const MIXED_DEPARTMENTS: usize = 8;

/// The open-loop mix over `coupled_ensemble_constraint(8)`, Zipf(1.1) over
/// departments: 69 % commits (the next step of the drawn department's case),
/// 10 % out-of-order executes (denied), 15 % probes, 5 % subscription
/// toggles on the department's `call(0)`, 1 % audits.  An audit is due only
/// when every department is idle, so a drawn audit first *drains*: commits
/// go to open cases only until all are closed, then the audit is emitted and
/// commits.
pub struct MixedOpen {
    rng: Rng,
    zipf: Zipf,
    calls: Vec<Vec<Action>>,
    performs: Vec<Vec<Action>>,
    audit: Action,
    /// The patient of the open case per department.
    open: [Option<usize>; MIXED_DEPARTMENTS],
    subscribed: [bool; MIXED_DEPARTMENTS],
    audit_due: bool,
}

impl MixedOpen {
    pub fn new(seed: u64) -> MixedOpen {
        MixedOpen {
            rng: Rng::new(seed),
            zipf: Zipf::new(MIXED_DEPARTMENTS, 1.1),
            calls: department_actions("call_dept", MIXED_DEPARTMENTS),
            performs: department_actions("perform_dept", MIXED_DEPARTMENTS),
            audit: ix_wfms::coupled_audit(),
            open: [None; MIXED_DEPARTMENTS],
            subscribed: [false; MIXED_DEPARTMENTS],
            audit_due: false,
        }
    }

    fn other_patient(&mut self, p: usize) -> usize {
        (p + 1 + self.rng.below(PATIENTS as u64 - 1) as usize) % PATIENTS
    }
}

impl Schedule for MixedOpen {
    fn next_pass(&mut self, ops: usize) -> Vec<Pass> {
        let mut pass = Pass::default();
        while pass.len() < ops {
            if self.audit_due && self.open.iter().all(Option::is_none) {
                self.audit_due = false;
                pass.execute(&self.audit, Verdict::Commit);
                continue;
            }
            let mut k = self.zipf.draw(&mut self.rng);
            let p = self.rng.below(PATIENTS as u64) as usize;
            match self.rng.below(100) {
                0..=68 => {
                    if self.audit_due {
                        // Draining: close the next open case at or after k.
                        k = (k..k + MIXED_DEPARTMENTS)
                            .map(|d| d % MIXED_DEPARTMENTS)
                            .find(|&d| self.open[d].is_some())
                            .expect("audit_due with every case closed is handled above");
                    }
                    match self.open[k].take() {
                        Some(q) => pass.execute(&self.performs[k][q], Verdict::Commit),
                        None => {
                            self.open[k] = Some(p);
                            pass.execute(&self.calls[k][p], Verdict::Commit);
                        }
                    }
                }
                69..=78 => match self.open[k] {
                    // A second call while a case is open; a perform with no
                    // case open.
                    Some(_) => pass.execute(&self.calls[k][p], Verdict::Deny),
                    None => pass.execute(&self.performs[k][p], Verdict::Deny),
                },
                79..=93 => {
                    let (action, flag) = match (self.open[k], self.rng.below(3)) {
                        (None, 0) => (&self.performs[k][p], false),
                        (None, _) => (&self.calls[k][p], true),
                        (Some(q), 0) => (&self.performs[k][q], true),
                        (Some(q), 1) => {
                            let other = self.other_patient(q);
                            (&self.performs[k][other], false)
                        }
                        (Some(_), _) => (&self.calls[k][p], false),
                    };
                    pass.push(action, Kind::Probe, Verdict::permitted(flag));
                }
                94..=98 => {
                    let action = &self.calls[k][0];
                    if self.subscribed[k] {
                        pass.push(action, Kind::Unsubscribe, Verdict::Ack);
                    } else {
                        let flag = self.open[k].is_none();
                        pass.push(action, Kind::Subscribe, Verdict::permitted(flag));
                    }
                    self.subscribed[k] = !self.subscribed[k];
                }
                _ => self.audit_due = true,
            }
        }
        vec![pass]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_core::{parse, Expr};
    use ix_state::Engine;

    fn all(seed: u64) -> Vec<(&'static str, Expr, Box<dyn Schedule>)> {
        vec![
            (
                "local_sync",
                parse(&local_cases_expr()).unwrap(),
                Box::new(LocalCases::new(seed, 5, 2)) as Box<dyn Schedule>,
            ),
            (
                "local_pipelined",
                parse(&local_rings_expr()).unwrap(),
                Box::new(LocalRings::new(seed)),
            ),
            ("ensemble_fig7", ix_graph::figures::fig7_expr(), Box::new(Fig7Ensemble::new(seed))),
            (
                "cross_chain",
                ix_wfms::coupled_ensemble_constraint(CHAIN_DEPARTMENTS),
                Box::new(CrossChain::new(seed)),
            ),
            (
                "mixed_open",
                ix_wfms::coupled_ensemble_constraint(MIXED_DEPARTMENTS),
                Box::new(MixedOpen::new(seed)),
            ),
        ]
    }

    fn fingerprint(passes: &[Pass]) -> String {
        passes.iter().map(Pass::fingerprint).collect::<Vec<_>>().join("--\n")
    }

    #[test]
    fn equal_seeds_give_byte_identical_schedules_and_other_seeds_differ() {
        for ((name, _, mut a), ((_, _, mut b), (_, _, mut c))) in
            all(11).into_iter().zip(all(11).into_iter().zip(all(12)))
        {
            for _ in 0..2 {
                let (fa, fb, fc) = (
                    fingerprint(&a.next_pass(512)),
                    fingerprint(&b.next_pass(512)),
                    fingerprint(&c.next_pass(512)),
                );
                assert_eq!(fa, fb, "{name}: same seed, different schedule");
                assert_ne!(fa, fc, "{name}: different seeds, same schedule");
            }
        }
    }

    #[test]
    fn passes_have_the_requested_size_and_mix() {
        for (name, _, mut schedule) in all(3) {
            let passes = schedule.next_pass(4096);
            let ops: usize = passes.iter().map(Pass::len).sum();
            assert!(ops <= 4096 && ops + 16 > 4096 / 2, "{name}: {ops} ops");
            let denied: usize = passes
                .iter()
                .map(|p| p.expect.iter().filter(|v| **v == Verdict::Deny).count())
                .sum();
            if name != "cross_chain" {
                assert!(denied > 0 && denied < ops / 3, "{name}: {denied} denials of {ops}");
            } else {
                assert_eq!(denied, 0);
            }
        }
    }

    /// Runs the ops of all clients, pass by pass, through one monolithic
    /// engine: every scripted verdict must be the engine's verdict.
    #[test]
    fn scripted_verdicts_are_the_engines_verdicts() {
        for (name, expr, mut schedule) in all(5) {
            let mut engine = Engine::new(&expr).unwrap();
            for _ in 0..3 {
                for pass in schedule.next_pass(1024) {
                    for i in 0..pass.len() {
                        let action = &pass.actions[i];
                        let observed = match pass.kinds[i] {
                            Kind::Execute if engine.try_execute(action) => Verdict::Commit,
                            Kind::Execute => Verdict::Deny,
                            Kind::Probe | Kind::Subscribe => {
                                Verdict::permitted(engine.is_permitted(action))
                            }
                            Kind::Unsubscribe => Verdict::Ack,
                        };
                        assert_eq!(observed, pass.expect[i], "{name}: op {i} {action}");
                    }
                }
            }
        }
    }

    /// The scripted verdicts against the formal semantics on a 200-op
    /// prefix.  `ix_semantics` enumerates bounded languages and is
    /// exponential in the word length, so the prefix is checked in the
    /// pieces the constraints' own structure allows: each department is an
    /// independent ⊗-operand `X*`, so its projection is cut at the points
    /// where an iteration of `X` completes, and every piece (with each
    /// denied op tried at its position) is classified against `X*`.
    #[test]
    fn scripted_verdicts_agree_with_the_formal_semantics_on_a_200_op_prefix() {
        use ix_semantics::{classify_word, WordClass};
        let cases = parse("(some p { call_0(p) - perform_0(p) })*").unwrap();
        let ring = parse("(call_0 - prep_0 - perform_0 - report_0)*").unwrap();
        let checks: Vec<(Expr, Box<dyn Schedule>, usize)> = vec![
            (cases, Box::new(LocalCases::new(9, 30, 1)), 2),
            (ring, Box::new(LocalRings::new(9)), 4),
        ];
        for (expr, mut schedule, iteration) in checks {
            let pass = schedule.next_pass(1200).swap_remove(0);
            let alphabet = expr.alphabet();
            let mut piece: Vec<Action> = Vec::new();
            let mut checked = 0;
            for i in 0..pass.len() {
                let action = &pass.actions[i];
                if !alphabet.covers(action) {
                    continue;
                }
                let mut attempt = piece.clone();
                attempt.push(action.clone());
                let class = classify_word(&expr, &attempt).unwrap();
                match pass.expect[i] {
                    Verdict::Commit => {
                        assert_ne!(class, WordClass::Illegal, "op {i} {action} must be legal");
                        piece = attempt;
                        if piece.len() == iteration {
                            assert_eq!(class, WordClass::Complete);
                            piece.clear();
                        }
                    }
                    _ => assert_eq!(class, WordClass::Illegal, "op {i} {action} must be illegal"),
                }
                checked += 1;
                if checked == 200 {
                    break;
                }
            }
            assert_eq!(checked, 200);
        }
    }

    /// Fig. 7 has no such cut points (32 patients interleave), and the
    /// formal semantics of its `all p`/`mult 3` takes 20 s for three ops of
    /// two patients.  What it can check is the first two ops of the seeded
    /// interleaving, for several seeds (the engine test above covers the
    /// rest, capacity denials included).
    #[test]
    fn fig7_scripted_verdicts_agree_with_the_formal_semantics_on_two_op_prefixes() {
        use ix_semantics::{classify_word, WordClass};
        let expr = ix_graph::figures::fig7_expr();
        for seed in 0..8 {
            let mut schedule = Fig7Ensemble::new(seed);
            schedule.introduced = true;
            let pass = schedule.next_pass(2).swap_remove(0);
            let mut word: Vec<Action> = Vec::new();
            for i in 0..pass.len() {
                let mut attempt = word.clone();
                attempt.push(pass.actions[i].clone());
                let legal = classify_word(&expr, &attempt).unwrap() != WordClass::Illegal;
                assert_eq!(legal, pass.expect[i] == Verdict::Commit, "op {i} {}", pass.actions[i]);
                if legal {
                    word = attempt;
                }
            }
        }
    }
}
