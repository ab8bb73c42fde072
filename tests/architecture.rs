//! The repository's architecture, checked by plain text scanning with the
//! standard library only.  The design documents' references resolve: every
//! `tests/<file>.rs::<name>` and `crates/<path>.rs::<name>` ARCHITECTURE.md
//! cites names a `fn` of that file, every `ROADMAP item N` it or an
//! `#[ignore]` cites is an open item, and every `ARCHITECTURE.md,
//! "<heading>"` in the sources, CI and ROADMAP.md starts one of its headings;
//! the guide stays ≤ 35 000 bytes.  Every row of [`RULES`] holds, and trips
//! on its witness.  One walker lists every file under a path but this one
//! (its table holds the names the rules ban), and one reader reads bytes
//! lossily, as `grep -r` reads `tests/fixtures`.

use std::fs;
use Check::*;
use Scope::*;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
const SELF: &str = "tests/architecture.rs";
const WORKSPACE: &[&str] = &["crates", "src", "tests", "examples"];
const WITH_BENCH: &[&str] = &["crates", "src", "tests", "examples", "benchmark/src"];
const MANAGER: &[&str] = &["crates/manager/src"];

/// What a rule reads of a file: all, or up to its first `#[cfg(test)]` line (skipping `tests.rs`).
#[derive(PartialEq)]
enum Scope {
    Whole,
    NonTest,
}

/// What a rule checks: no line is `Banned`; only files under the path
/// prefixes have a line `Confined` there; no file runs past a `LineCap`;
/// exactly `Once` line matches; in the [`bodies`] of `fns`, `found` lines
/// match `fns` and none `calls`; or a module, a file's first path component
/// under the rule's one path, `Imports` through `crate::` (`{…}` groups
/// included) only itself, crate-root items and the modules listed for it.
/// Patterns are literals separated by `|`; a leading `\b` asks for a word
/// boundary before one, and ` *` in one stands for any run of spaces.
enum Check {
    Banned(&'static str),
    Confined(&'static str, &'static [&'static str]),
    LineCap(usize),
    Once(&'static str),
    Bodies { fns: &'static str, found: usize, calls: &'static str },
    Imports(&'static [(&'static str, &'static [&'static str])]),
}

/// A rule: the CHANGES.md entry (`pr`) that set it, the files or
/// directories it reads, and a witness line that breaks it, put at the top
/// of a file (for a line cap, as many times as the cap).
struct Rule {
    name: &'static str,
    pr: u32,
    paths: &'static [&'static str],
    scope: Scope,
    check: Check,
    witness: (&'static str, &'static str),
    reason: &'static str,
}

#[rustfmt::skip]
const RULES: &[Rule] = &[
    Rule { name: "Static placement, one vote protocol", pr: 26, paths: WORKSPACE, scope: Whole,
        check: Banned("rebalance_every|rebalance_now|place_shard|isolate_shard|RebalanceState|cascade:"),
        witness: ("src/lib.rs", "cascade: false"), reason: "Static placement; one multi-owner protocol." },
    Rule { name: "One durability path", pr: 29, paths: WORKSPACE, scope: Whole,
        check: Banned("DurableQueue|QueueBackend|crash_redeliver|acknowledge_submission|unacknowledged_submissions|\
            QUEUE_STREAM|inspect_queue|durable: true|durable: false|tier_budget:"),
        witness: ("tests/durability.rs", "durable: true"), reason: "The write-ahead log is the only durability path." },
    Rule { name: "One multi-owner rendezvous, no clock or checkpoint options", pr: 31, paths: WORKSPACE,
        scope: Whole, check: Banned("CrossTask|CrossSync|ExecDecision|cross_is_live|exec_is_live|enqueue_cross|\
            ClockMode|checkpoint_every|auto_checkpoints"), witness: ("src/lib.rs", "CrossTask"),
        reason: "A multi-owner operation is one MultiTask; time moves by advance_time, checkpoints by checkpoint()." },
    Rule { name: "Alphabet queries build no range bound", pr: 25, paths: &["crates/core/src/alphabet.rs"],
        scope: NonTest, check: Banned("Action::nullary("), witness: ("crates/core/src/alphabet.rs", "Action::nullary("),
        reason: "An Action built to bound a candidates range allocated on every route and coverage probe." },
    Rule { name: "Core count read once", pr: 20, paths: MANAGER, scope: Whole, check: Once("available_parallelism"),
        witness: ("crates/manager/src/runtime/tests.rs", "available_parallelism()"),
        reason: "std re-reads the cgroup files per call (30 us a runtime); host_parallelism() asks once." },
    Rule { name: "Shard kernel boundary", pr: 18, paths: &["crates/manager/src/shard.rs"], scope: NonTest,
        check: Banned("Mutex|RwLock|Condvar|Arc<|Ticket|Sender|Receiver|RuntimeShared|WorkerCtx"),
        witness: ("crates/manager/src/shard.rs", "use std::sync::Mutex;"),
        reason: "The Sec. 7 per-shard machine names no scheduler part, so a single-threaded simulator drives it." },
    Rule { name: "One module per decision: slot phases", pr: 36, paths: MANAGER, scope: NonTest,
        check: Confined("SlotPhase", &["crates/manager/src/runtime/slots.rs"]),
        witness: ("crates/manager/src/runtime/cross.rs", "SlotPhase"), reason: "Only runtime/slots.rs names them." },
    Rule { name: "One module per decision: write-ahead records", pr: 36, paths: MANAGER, scope: NonTest,
        check: Confined("WalRecord::", &["crates/manager/src/shard.rs", "crates/manager/src/durability/"]),
        witness: ("crates/manager/src/runtime/session.rs", "WalRecord::Commit"),
        reason: "Only the kernel and durability/ build or match a record; the rest call a DurabilityHub method." },
    Rule { name: "One module per decision: replay through the kernel", pr: 36, paths: &["crates/manager/src/runtime"],
        scope: NonTest, check: Banned("try_execute"), witness: ("crates/manager/src/runtime/drive.rs", "try_execute"),
        reason: "A repartition replays history through the kernel, not the engine." },
    Rule { name: "One module per decision: 1 500 lines", pr: 36, paths: MANAGER, scope: Whole, check: LineCap(1500),
        witness: ("crates/manager/src/runtime/tests.rs", "//"), reason: "No file runs past 1 500 lines." },
    Rule { name: "The blocking manager is a leaf", pr: 40, paths: MANAGER, scope: NonTest,
        check: Confined("crate::manager::", &["crates/manager/src/manager.rs", "crates/manager/src/lib.rs"]),
        witness: ("crates/manager/src/shard.rs", "use crate::manager::Reservation;"),
        reason: "What both managers share lives in lib.rs; only lib.rs names the blocking manager's module." },
    Rule { name: "No compile scheduling", pr: 24, paths: WITH_BENCH, scope: Whole,
        check: Banned("tier_wants_compile|set_tier_auto|TIER_HOT_THRESHOLD|compile_one_idle|max_edges"),
        witness: ("benchmark/src/workloads.rs", "set_tier_auto"), reason: "Tier cells fill on the deciding thread." },
    Rule { name: "One partition mode, one transition path", pr: 32, paths: WITH_BENCH, scope: Whole,
        check: Banned("ShardedEngine|sharded_word_problem|TransitionOptions|trans_with|Partition::coalesced|\
            extend_coalesced|recouple|MergeGroup|compile_all|IncompatibleHistory"),
        witness: ("examples/quickstart.rs", "ShardedEngine"), reason: "A shard is a Partition::of component." },
    Rule { name: "One way per small job in the manager", pr: 33, paths: WITH_BENCH, scope: Whole,
        check: Banned("TimerWheel|WakeBatch|DeferredWake|complete_deferred|single_core|export_cross|import_cross|\
            impl Clone for InteractionManager"), witness: ("crates/manager/src/timer.rs", "TimerWheel"),
        reason: "One timer map, one shared-subscription registry, tickets wake on completion, no deep copy." },
    Rule { name: "One transition cache", pr: 34, paths: WITH_BENCH, scope: Whole,
        check: Banned("set_memo_capacity|memo_capacity|DEFAULT_MEMO_CAPACITY|MemoKey"),
        witness: ("crates/state/src/engine.rs", "MemoKey"), reason: "An engine keeps only committed successors." },
    Rule { name: "One chunk codec", pr: 35, paths: &["crates/manager/src/lz.rs"], scope: Whole,
        check: Banned("fn write_sequence|fn read_length|const LZ: u8"),
        witness: ("crates/manager/src/lz.rs", "const LZ: u8"), reason: "Sealed chunks are LZ77 + Huffman, or stored." },
    Rule { name: "One ownership table", pr: 37, paths: WITH_BENCH, scope: Whole,
        check: Banned("ShardRouter|OwnershipMap|owners_of_abstract|mod sharded"),
        witness: ("crates/state/src/lib.rs", "mod sharded;"), reason: "ix_core::Partition alone routes an action." },
    Rule { name: "Tables are a cache", pr: 38, paths: WITH_BENCH, scope: Whole,
        check: Banned("TableParts|to_parts|from_parts|adopt_tier|tier_tables|stands_in_for|ExpiryEvent|TimerId"),
        witness: ("tests/fixtures/golden_blobs/snap-0", "adopt_tier"),
        reason: "A snapshot holds no tier table; lease timers file reservation ids and are never cancelled." },
    Rule { name: "σ built once", pr: 39, paths: &["crates/state/src/engine.rs", "crates/state/src/compile.rs"],
        scope: NonTest, check: Bodies { fns: "fn install(|fn reset(", found: 3, calls: r"\binit(|\bvalidate(" },
        witness: ("crates/state/src/compile.rs", "    fn install(&self) { validate(e);\n    }"),
        reason: "Engine::new builds and validates the paper's σ once; reset and both installs start from it." },
    Rule { name: "One decision path in ix_state", pr: 42, paths: &["crates", "src", "examples", "benchmark/src"],
        scope: Whole, check: Banned("trans_reference|invalidate_tier|pub mod optimize|words_per_state"),
        witness: ("crates/state/src/lib.rs", "pub mod optimize;"),
        reason: "The fused τ̂ is the one transition; the two-pass reference is test support, and tables never go stale." },
    Rule { name: "One of each", pr: 44, paths: &["crates", "src", "tests", "examples", "Cargo.toml"], scope: Whole,
        check: Banned(r"\bparking_lot|\brand::|rand.workspace|fn get_seq|fn put_seq|covers_blocking"),
        witness: ("crates/wfms/Cargo.toml", "rand.workspace = true"),
        reason: "std's RwLock and a private SplitMix64 replace the stand-ins; ix_durable's codec reads every count." },
    Rule { name: "One shard queue", pr: 45, paths: &["crates", "src", "tests", "examples", "Cargo.toml"], scope: Whole,
        check: Banned("crossbeam|pushback"),
        witness: ("crates/manager/src/runtime/session.rs", "use crossbeam::channel::Receiver;"),
        reason: "A shard's tasks live in its slot, under the slot's one lock; every other channel is std's mpsc." },
    Rule { name: "One table per engine", pr: 46, paths: WITH_BENCH, scope: Whole,
        check: Banned("for_each_resident|operand_runs|TierLookup|NoTier|fn survey(|.bailouts"),
        witness: ("crates/state/src/trans.rs", "pub(crate) trait TierLookup {"),
        reason: "An engine tabulates its whole expression or nothing; the fused walk consults no tier." },
    Rule { name: "A state holds what τ̂ reads", pr: 47, paths: WORKSPACE, scope: Whole,
        check: Banned("CoverageKey|COVERAGE_CACHE|mutable_key_type"),
        witness: ("crates/state/src/state.rs", "const COVERAGE_CACHE_LIMIT: usize = 256;"),
        reason: "Only ⊗ and the sync quantifier carry a scoped alphabet, and it memoizes nothing: a state is a plain value." },
    Rule { name: "One explorer", pr: 50, paths: &["crates/graph/src"], scope: Whole,
        check: Banned(r"\btrans(|BTreeSet<State>"),
        witness: ("crates/graph/src/validate.rs", "let succ = trans(state, action);"),
        reason: "ix_state::soundness explores through the engine's own step; ix_graph grounds, and steps no state." },
    Rule { name: "One benchmark harness", pr: 27, paths: &["crates", "src", "tests", "examples", "Cargo.toml"],
        scope: Whole, check: Banned("ix-bench|ix_bench|BENCH_|criterion *=|criterion *::|criterion *.workspace"),
        witness: ("Cargo.toml", "criterion  = \"0.5\""), reason: "ixbench (benchmark/) is the only benchmark." },
    Rule { name: "Allowed crate:: imports in ix_manager", pr: 41, paths: MANAGER, scope: NonTest,
        check: Imports(&[
            ("durability", &["error", "log", "runtime", "shard", "subscription", "timer"]),
            ("log", &["lz"]), ("lz", &["log"]), ("ticket", &["runtime"]),
            ("manager", &["durability", "error", "log", "subscription", "timer"]),
            ("runtime", &["durability", "error", "log", "shard", "subscription", "ticket", "timer"]),
            ("shard", &["durability", "error", "log", "subscription"]),
            ("error", &[]), ("lib", &[]), ("subscription", &[]), ("timer", &[]),
        ]),
        witness: ("crates/manager/src/shard.rs", "use crate::runtime::RuntimeOptions;"),
        reason: "Each module names what it names today; the kernel never names the runtime, a ticket or the \
            blocking manager.  durability/{checkpoint,recover} -> runtime is a cycle recorded, not approved." },
];

/// The file at `rel`, read lossily.
fn read(rel: &str) -> String {
    let bytes = fs::read(format!("{ROOT}/{rel}")).unwrap_or_else(|e| panic!("reading {rel}: {e}"));
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every file at or under any of `paths`, in order, but this one.
fn files(paths: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for &rel in paths {
        let Ok(listing) = fs::read_dir(format!("{ROOT}/{rel}")) else {
            out.extend((rel != SELF).then(|| rel.to_string()));
            continue;
        };
        let name = |e: fs::DirEntry| format!("{rel}/{}", e.file_name().to_string_lossy());
        let mut names: Vec<String> = listing.map(|e| name(e.unwrap())).collect();
        names.sort();
        out.extend(files(&names.iter().map(String::as_str).collect::<Vec<_>>()));
    }
    out
}

/// The 1-based line of byte `at` of `text`.
fn line_of(text: &str, at: usize) -> usize {
    text[..at].bytes().filter(|&b| b == b'\n').count() + 1
}

/// Whether `c` is a word character, as `grep`'s `\b` reads one.
fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The lines of `text` that match `patterns` (see [`Check`]), each once.
fn lines_matching(text: &str, patterns: &str) -> Vec<usize> {
    let mut lines = Vec::new();
    for pattern in patterns.split('|') {
        let (bound, pattern) = pattern.strip_prefix(r"\b").map_or((false, pattern), |p| (true, p));
        let parts: Vec<&str> = pattern.split(" *").collect();
        for (at, _) in text.match_indices(parts[0]) {
            let mut tail = &text[at + parts[0].len()..];
            let mut next = |part| tail.trim_start_matches(' ').strip_prefix(part).map(|t| tail = t);
            if !(bound && text[..at].ends_with(is_word))
                && parts[1..].iter().all(|p| next(p).is_some())
            {
                lines.push(line_of(text, at));
            }
        }
    }
    lines.sort();
    lines.dedup();
    lines
}

/// `text` with every line blanked but the bodies of the `fn`s whose first
/// line is 4 spaces, an optional `pub ` or `pub(crate) `, one of `fns`.
fn bodies(text: &str, fns: &str) -> String {
    let (mut out, mut inside) = (Vec::new(), false);
    for line in text.lines() {
        let head = line.strip_prefix("    ").unwrap_or(line);
        let head = head.strip_prefix("pub(crate) ").or(head.strip_prefix("pub ")).unwrap_or(head);
        inside |= line.starts_with("    ") && fns.split('|').any(|f| head.starts_with(f));
        out.push(if inside { line } else { "" });
        inside &= line != "    }";
    }
    out.join("\n")
}

/// The first segment of each path that follows a `crate::`, `{…}` groups read.
fn crate_segments(rest: &str) -> Vec<&str> {
    let Some(group) = rest.strip_prefix('{') else { return vec![ident(rest)] };
    let (mut out, mut depth) = (vec![ident(group.trim_start())], 0);
    for (i, c) in group.char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 0 => break,
            '}' => depth -= 1,
            ',' if depth == 0 => out.push(ident(group[i + 1..].trim_start())),
            _ => {}
        }
    }
    out
}

impl Rule {
    /// The files the rule reads, as `(path, text)`.
    fn sources(&self) -> Vec<(String, String)> {
        let skip = |path: &String| self.scope == NonTest && path.ends_with("/tests.rs");
        let read = |path: String| {
            let mut text = read(&path);
            if self.scope == NonTest {
                text.truncate(format!("\n{text}").find("\n#[cfg(test)]").unwrap_or(text.len()));
            }
            (path, text)
        };
        files(self.paths).into_iter().filter(|p| !skip(p)).map(read).collect()
    }

    /// Every violation of the rule in `sources`, as `file:line: rule …`; a
    /// count's is at line 0 of all the rule's paths.
    fn violations(&self, sources: &[(String, String)]) -> Vec<String> {
        let all = self.paths.join(" ");
        let mut out: Vec<(&str, usize)> = Vec::new();
        for (path, text) in sources.iter().map(|(p, t)| (p.as_str(), t.as_str())) {
            let lines = match self.check {
                Banned(patterns) | Once(patterns) => lines_matching(text, patterns),
                Confined(p, ok) if !ok.iter().any(|w| path.starts_with(w)) => {
                    lines_matching(text, p)
                }
                Confined(..) => vec![],
                LineCap(cap) => text.lines().skip(cap).take(1).map(|_| cap + 1).collect(),
                Bodies { fns, calls, .. } => lines_matching(&bodies(text, fns), calls),
                Imports(matrix) => {
                    let from = path[all.len() + 1..].split(['/', '.']).next().unwrap_or_default();
                    let may = matrix.iter().find(|m| m.0 == from).map_or(&[][..], |m| m.1);
                    let known = |to: &str| matrix.iter().any(|m| m.0 == to);
                    let ok = |to: &&str| *to == from || may.contains(to) || !known(to);
                    let uses = text.match_indices("crate::").map(|(at, _)| at);
                    let uses = uses.filter(|&at| !text[..at].ends_with(is_word));
                    let bad = uses.filter(|&at| !crate_segments(&text[at + 7..]).iter().all(ok));
                    bad.map(|at| line_of(text, at)).collect()
                }
            };
            out.extend(lines.into_iter().map(|n| (path, n)));
        }
        let named =
            |fns| sources.iter().map(move |(_, t)| lines_matching(&bodies(t, fns), fns).len());
        match self.check {
            Once(_) if out.len() == 1 => out.clear(),
            Once(_) if out.is_empty() => out.push((&all, 0)),
            Bodies { fns, found, .. } if named(fns).sum::<usize>() != found => out.push((&all, 0)),
            _ => {}
        }
        let rule = format!("rule \"{}\" (PR {})", self.name, self.pr);
        out.iter().map(|(path, line)| format!("{path}:{line}: {rule}")).collect()
    }
}

/// Every row of [`RULES`] holds on today's tree, and reports its witness,
/// put at the top of the witness's file, at that file and line.
#[test]
fn the_architecture_rules_hold() {
    let mut report = Vec::new();
    for rule in RULES {
        let mut sources = rule.sources();
        let broken = rule.violations(&sources);
        report.extend(broken.iter().map(|v| format!("{v}: {}", rule.reason)));
        let (path, line) = rule.witness;
        let copies = if let LineCap(cap) = rule.check { cap } else { 1 };
        let (_, text) = sources.iter_mut().find(|(p, _)| p == path).expect(rule.name);
        *text = format!("{line}\n").repeat(copies) + text;
        let at = copies + usize::from(copies > 1);
        let witness = format!("{path}:{at}: rule \"{}\" (PR {})", rule.name, rule.pr);
        assert!(rule.violations(&sources).contains(&witness), "{witness} is not reported");
    }
    assert!(report.is_empty(), "{}", report.join("\n"));
}

/// The numbers of ROADMAP.md's open items: the `- **N. Title**` entries
/// between the `## Open items` heading and the next heading.
fn open_items(roadmap: &str) -> Vec<u32> {
    let section = roadmap.split_once("\n## Open items").map_or("", |(_, rest)| rest);
    let section = section.split("\n#").next().unwrap_or_default();
    let number = |line: &str| line.strip_prefix("- **")?.split_once(". ")?.0.parse().ok();
    section.lines().filter_map(number).collect()
}

/// The leading decimal digits of `text`, if any.
fn leading_number(text: &str) -> Option<u32> {
    text.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

/// The item numbers of every `ROADMAP item N` in `text`, across line breaks.
fn cited_items(text: &str) -> Vec<u32> {
    let flat = text.split_whitespace().collect::<Vec<_>>().join(" ");
    flat.split("ROADMAP item ").skip(1).filter_map(leading_number).collect()
}

/// The identifier `s` starts with.
fn ident(s: &str) -> &str {
    s.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).next().unwrap_or_default()
}

/// Every `<dir><path>.rs::<name>` in `text`.
fn cited_fns(text: &str, dir: &str) -> Vec<String> {
    let mut out = Vec::new();
    for rest in text.split(dir).skip(1) {
        let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || "_/-".contains(c)));
        let path = &rest[..end.unwrap_or(rest.len())];
        if let Some(after) = rest[path.len()..].strip_prefix(".rs::") {
            out.push(format!("{dir}{path}.rs::{}", ident(after)));
        }
    }
    out
}

/// Whether `source` defines a `fn` called `name`.
fn defines_fn(source: &str, name: &str) -> bool {
    source.contains(&format!("fn {name}(")) || source.contains(&format!("fn {name}<"))
}

/// Whether the file of a `<path>::<name>` citation exists and defines `name`.
fn resolves(citation: &str) -> bool {
    let (path, name) = citation.split_once("::").unwrap_or_default();
    defines_fn(&fs::read_to_string(format!("{ROOT}/{path}")).unwrap_or_default(), name)
}

/// The headings of a Markdown document, without their `#`s.
fn headings(doc: &str) -> Vec<&str> {
    doc.lines().filter(|l| l.starts_with('#')).map(|l| l.trim_start_matches('#').trim()).collect()
}

/// The heading of every `ARCHITECTURE.md, "<heading>"` in `text`, across
/// line breaks and the comment markers (`//!`, `///`, `//`, `#`) that start
/// lines.  A heading in angle brackets is a placeholder, as here.
fn cited_sections(text: &str) -> Vec<String> {
    fn strip(line: &str) -> &str {
        let line = line.trim_start();
        ["//!", "///", "//", "#"].iter().find_map(|m| line.strip_prefix(m)).unwrap_or(line)
    }
    let flat = text.lines().map(strip).collect::<Vec<_>>().join(" ");
    let flat = flat.split_whitespace().collect::<Vec<_>>().join(" ");
    let quoted = flat.split("ARCHITECTURE.md, \"").skip(1);
    let cited = quoted.filter_map(|rest| Some(rest.split_once('"')?.0));
    cited.filter(|h| !h.starts_with('<')).map(str::to_string).collect()
}

#[test]
fn every_document_reference_resolves() {
    let architecture = read("ARCHITECTURE.md");
    let open = open_items(&read("ROADMAP.md"));
    assert!(!open.is_empty(), "ROADMAP.md lists no open item");
    let tests = cited_fns(&architecture, "tests/").into_iter().filter(|c| !resolves(c));
    let mut missing: Vec<String> = tests.map(|c| format!("ARCHITECTURE.md cites {c}")).collect();
    for item in cited_items(&architecture).into_iter().filter(|i| !open.contains(i)) {
        missing.push(format!("ARCHITECTURE.md cites ROADMAP item {item}"));
    }
    for path in files(WORKSPACE) {
        let text = read(&path);
        let ignored = text.split("#[ignore = \"ROADMAP item ").skip(1).filter_map(leading_number);
        for item in ignored.filter(|i| !open.contains(i)) {
            missing.push(format!("{path} is ignored for ROADMAP item {item}"));
        }
    }
    assert!(missing.is_empty(), "references that resolve to nothing: {missing:#?}");
}

/// Every `crates/<path>.rs::<name>` citation, as in the module table, names a `fn` there.
#[test]
fn every_cited_crate_function_exists() {
    let cited = cited_fns(&read("ARCHITECTURE.md"), "crates/");
    assert!(!cited.is_empty(), "ARCHITECTURE.md cites no crate function");
    let missing: Vec<String> = cited.into_iter().filter(|c| !resolves(c)).collect();
    assert!(missing.is_empty(), "ARCHITECTURE.md cites functions that do not exist: {missing:#?}");
}

/// Every `ARCHITECTURE.md, "<heading>"` elsewhere names a section the guide has.
#[test]
fn every_cited_section_exists() {
    let architecture = read("ARCHITECTURE.md");
    let headings = headings(&architecture);
    let (mut paths, mut missing) = (files(WORKSPACE), Vec::new());
    paths.extend([".github/workflows/ci.yml", "ROADMAP.md"].map(String::from));
    for path in paths {
        for section in cited_sections(&read(&path)) {
            if !headings.iter().any(|h| h.starts_with(section.as_str())) {
                missing.push(format!("{path} cites \"{section}\""));
            }
        }
    }
    assert!(missing.is_empty(), "sections ARCHITECTURE.md does not have: {missing:#?}");
}

/// The guide is for reading before a change, so it stays short; the numbers
/// a change measured go to CHANGES.md.
#[test]
fn architecture_md_stays_a_readers_guide() {
    let bytes = read("ARCHITECTURE.md").len();
    assert!(bytes <= 35_000, "ARCHITECTURE.md is {bytes} bytes, over 35 000");
}

#[test]
fn the_scanners_find_what_they_should() {
    let roadmap = "# R\n## Recent\n- **9. Old**\n## Open items\n\
                   - **2. Keys** — text\n  - **(a)** sub\n- **14. Docs**\n\
                   ### Parked\n- **3. Later**\n";
    assert_eq!(open_items(roadmap), [2, 14]);
    assert_eq!(cited_items("see ROADMAP\n   item 7, and ROADMAP item 12b."), [7, 12]);
    let text = "`tests/sched.rs::a_b_1` and tests/x.rs::c, not tests/ or tests/y.rs";
    assert_eq!(cited_fns(text, "tests/"), ["tests/sched.rs::a_b_1", "tests/x.rs::c"]);
    let text = "`crates/manager/src/log.rs::tests` and crates/a-b/x.rs::f(), not crates/x.rs";
    let cited = ["crates/manager/src/log.rs::tests", "crates/a-b/x.rs::f"];
    assert_eq!(cited_fns(text, "crates/"), cited);
    assert!(defines_fn("pub(crate) fn f<T>(t: T)", "f") && !defines_fn("fn ff()", "f"));
    assert_eq!(headings("# A\ntext # no\n### B `c`\n"), ["A", "B `c`"]);
    let text =
        "x (ARCHITECTURE.md, \"One\") y\n    //! ARCHITECTURE.md,\n    //! \"Two\n  # three\")\n\
                ARCHITECTURE.md, \"<heading>\"";
    assert_eq!(cited_sections(text), ["One", "Two three"]);
    // The rules' patterns, σ's bodies and `crate::` groups.
    let text = "init(\nx_init(\n(validate(\n criterion  ::\ncriterions=\ncriterion=";
    let patterns = r"\binit(|\bvalidate(|criterion *::|criterion *=";
    assert_eq!(lines_matching(text, patterns), [1, 3, 4, 6]);
    let text = "    pub fn reset() {\n        init();\n    }\n    fn install() {}\nfn reset(\n";
    assert_eq!(bodies(text, "fn reset("), "    pub fn reset() {\n        init();\n    }\n\n");
    let group = "{lock, runtime::{a, b},\n shard::X} c";
    assert_eq!(crate_segments(group), ["lock", "runtime", "shard"]);
}
