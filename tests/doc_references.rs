//! The references the design documents make resolve: every
//! `tests/<file>.rs::<name>` and `crates/<path>.rs::<name>` ARCHITECTURE.md
//! cites names a `fn` in that file; every `ROADMAP item N` it cites — like
//! every `#[ignore = "ROADMAP item N"]` in the sources — is an open item of
//! ROADMAP.md; and every section the sources, CI and ROADMAP.md cite as
//! `ARCHITECTURE.md, "<heading>"` is a heading of it (a prefix of one).
//! ARCHITECTURE.md stays a reader's guide of at most 35 000 bytes.  Plain
//! text scanning with the standard library only.

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

/// The identifier `s` starts with.
fn ident(s: &str) -> &str {
    let end = s.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(s.len());
    &s[..end]
}

/// Every `tests/<file>.rs::<name>` in `text`, as `(file, name)`.
fn cited_tests(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for rest in text.split("tests/").skip(1) {
        let file = ident(rest);
        if let Some(after) = rest[file.len()..].strip_prefix(".rs::") {
            out.push((file.to_string(), ident(after).to_string()));
        }
    }
    out
}

/// Every `crates/<path>.rs::<name>` in `text`, as `(path, name)`, the path
/// without its `.rs`.
fn cited_crate_fns(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for rest in text.split("crates/").skip(1) {
        let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || "_/-".contains(c)));
        let path = &rest[..end.unwrap_or(rest.len())];
        if let Some(after) = rest[path.len()..].strip_prefix(".rs::") {
            out.push((path.to_string(), ident(after).to_string()));
        }
    }
    out
}

/// Whether `source` defines a `fn` called `name`.
fn defines_fn(source: &str, name: &str) -> bool {
    source.contains(&format!("fn {name}(")) || source.contains(&format!("fn {name}<"))
}

/// The headings of a Markdown document, without their `#`s.
fn headings(doc: &str) -> Vec<&str> {
    doc.lines().filter(|l| l.starts_with('#')).map(|l| l.trim_start_matches('#').trim()).collect()
}

/// The heading of every `ARCHITECTURE.md, "<heading>"` in `text`, a line
/// break inside the citation included: each line is read without the
/// comment marker (`//!`, `///`, `//` or `#`) it starts with.  A heading in
/// angle brackets is a placeholder, as here, and is not returned.
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

/// The Rust sources under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("listing {}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The Rust sources of the workspace: `crates/`, `src/`, `tests/` and
/// `examples/`.
fn workspace_sources(root: &Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut out);
    }
    out
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
        if !defines_fn(&fs::read_to_string(&path).unwrap_or_default(), &name) {
            missing.push(format!("ARCHITECTURE.md cites tests/{file}.rs::{name}"));
        }
    }
    for item in cited_items(&architecture) {
        if !open.contains(&item) {
            missing.push(format!("ARCHITECTURE.md cites ROADMAP item {item}"));
        }
    }
    for path in workspace_sources(root) {
        let text = read(&path);
        for item in text.split("#[ignore = \"ROADMAP item ").skip(1).filter_map(leading_number) {
            if !open.contains(&item) {
                missing.push(format!("{} is ignored for ROADMAP item {item}", path.display()));
            }
        }
    }
    assert!(missing.is_empty(), "references that resolve to nothing: {missing:#?}");
}

/// The module table's "tested in" column, and any other citation of a
/// function in a crate's sources, names a `fn` of that file.
#[test]
fn every_cited_crate_function_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let architecture = read(&root.join("ARCHITECTURE.md"));
    let cited = cited_crate_fns(&architecture);
    assert!(!cited.is_empty(), "ARCHITECTURE.md cites no crate function");
    let missing: Vec<String> = cited
        .into_iter()
        .filter(|(path, name)| {
            let source = fs::read_to_string(root.join("crates").join(format!("{path}.rs")));
            !defines_fn(&source.unwrap_or_default(), name)
        })
        .map(|(path, name)| format!("crates/{path}.rs::{name}"))
        .collect();
    assert!(missing.is_empty(), "ARCHITECTURE.md cites functions that do not exist: {missing:#?}");
}

/// Every `ARCHITECTURE.md, "<heading>"` in the sources, CI and ROADMAP.md
/// names a section the guide has.
#[test]
fn every_cited_section_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let architecture = read(&root.join("ARCHITECTURE.md"));
    let headings = headings(&architecture);
    let mut files = workspace_sources(root);
    files.push(root.join(".github/workflows/ci.yml"));
    files.push(root.join("ROADMAP.md"));
    let mut missing = Vec::new();
    for path in files {
        for section in cited_sections(&read(&path)) {
            if !headings.iter().any(|h| h.starts_with(section.as_str())) {
                missing.push(format!("{} cites \"{section}\"", path.display()));
            }
        }
    }
    assert!(missing.is_empty(), "sections ARCHITECTURE.md does not have: {missing:#?}");
}

/// The guide is for reading before a change, so it stays short; the numbers
/// a change measured go to CHANGES.md.
#[test]
fn architecture_md_stays_a_readers_guide() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bytes = read(&root.join("ARCHITECTURE.md")).len();
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
    let cited = cited_tests(text);
    assert_eq!(cited, [("sched".into(), "a_b_1".into()), ("x".into(), "c".into())]);
    let text = "`crates/manager/src/log.rs::tests` and crates/a-b/x.rs::f(), not crates/x.rs";
    let cited = cited_crate_fns(text);
    let expected = [("manager/src/log".into(), "tests".into()), ("a-b/x".into(), "f".into())];
    assert_eq!(cited, expected);
    assert!(defines_fn("pub(crate) fn f<T>(t: T)", "f") && !defines_fn("fn ff()", "f"));
    assert_eq!(headings("# A\ntext # no\n### B `c`\n"), ["A", "B `c`"]);
    let text =
        "x (ARCHITECTURE.md, \"One\") y\n    //! ARCHITECTURE.md,\n    //! \"Two\n  # three\")\n\
                ARCHITECTURE.md, \"<heading>\"";
    assert_eq!(cited_sections(text), ["One", "Two three"]);
}
