//! The references the design documents make resolve: every
//! `tests/<file>.rs::<name>` ARCHITECTURE.md cites names a `fn` in that
//! file, and every `ROADMAP item N` it cites — like every
//! `#[ignore = "ROADMAP item N"]` in the sources — is an open item of
//! ROADMAP.md.  Plain text scanning with the standard library only.

use std::fs;
use std::path::Path;

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
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
    let end = text.find(|c: char| !c.is_ascii_digit()).unwrap_or(text.len());
    text[..end].parse().ok()
}

/// The item numbers of every `ROADMAP item N` in `text`, a line break
/// inside the phrase included.
fn cited_items(text: &str) -> Vec<u32> {
    let flat = text.split_whitespace().collect::<Vec<_>>().join(" ");
    flat.split("ROADMAP item ").skip(1).filter_map(leading_number).collect()
}

/// Every `tests/<file>.rs::<name>` in `text`, as `(file, name)`.
fn cited_tests(text: &str) -> Vec<(String, String)> {
    let ident = |s: &str| {
        let end = s.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(s.len());
        s[..end].to_string()
    };
    let mut out = Vec::new();
    for rest in text.split("tests/").skip(1) {
        let file = ident(rest);
        if let Some(after) = rest[file.len()..].strip_prefix(".rs::") {
            out.push((file, ident(after)));
        }
    }
    out
}

/// The item numbers of every `#[ignore = "ROADMAP item N"]` in the Rust
/// sources under `dir`.
fn ignored_items(dir: &Path, out: &mut Vec<(String, u32)>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("listing {}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            ignored_items(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = read(&path);
            let items = text.split("#[ignore = \"ROADMAP item ").skip(1).filter_map(leading_number);
            out.extend(items.map(|item| (path.display().to_string(), item)));
        }
    }
}

#[test]
fn every_document_reference_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let architecture = read(&root.join("ARCHITECTURE.md"));
    let open = open_items(&read(&root.join("ROADMAP.md")));
    assert!(!open.is_empty(), "ROADMAP.md lists no open item");

    let mut missing = Vec::new();
    for (file, name) in cited_tests(&architecture) {
        let path = root.join("tests").join(format!("{file}.rs"));
        let source = fs::read_to_string(&path).unwrap_or_default();
        if !source.contains(&format!("fn {name}(")) {
            missing.push(format!("ARCHITECTURE.md cites tests/{file}.rs::{name}"));
        }
    }
    for item in cited_items(&architecture) {
        if !open.contains(&item) {
            missing.push(format!("ARCHITECTURE.md cites ROADMAP item {item}"));
        }
    }
    let mut ignored = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        ignored_items(&root.join(dir), &mut ignored);
    }
    for (file, item) in ignored {
        if !open.contains(&item) {
            missing.push(format!("{file} is ignored for ROADMAP item {item}"));
        }
    }
    assert!(missing.is_empty(), "references that resolve to nothing: {missing:#?}");
}

#[test]
fn the_scanners_find_what_they_should() {
    let roadmap = "# R\n## Recent\n- **9. Old**\n## Open items\n\
                   - **2. Keys** — text\n  - **(a)** sub\n- **14. Docs**\n\
                   ### Parked\n- **3. Later**\n";
    assert_eq!(open_items(roadmap), [2, 14]);
    assert_eq!(cited_items("see ROADMAP\n   item 7, and ROADMAP item 12b."), [7, 12]);
    let text = "`tests/sched.rs::a_b_1` and tests/x.rs::c, not tests/ or tests/y.rs";
    let cited = cited_tests(text);
    assert_eq!(cited, [("sched".into(), "a_b_1".into()), ("x".into(), "c".into())]);
}
