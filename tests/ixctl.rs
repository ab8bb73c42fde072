//! The `ixctl` binary end to end: its answers, and the exit codes a script
//! relies on (0 answered, 1 failed, 2 misused).

use ix_core::{parse, Action};
use ix_manager::{ManagerRuntime, RuntimeOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// Runs `ixctl args…` with `stdin` as its standard input.
fn ixctl(args: &[&str], stdin: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ixctl"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ixctl starts");
    // `ixctl` may fail before it reads its input (an expression without an
    // engine fails first), and then closes the pipe under the write.
    if let Err(e) = child.stdin.take().unwrap().write_all(stdin) {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "{e}");
    }
    child.wait_with_output().unwrap()
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn word_solves_the_word_problem_of_a_coupled_expression() {
    let out = ixctl(&["word", "(a - b)* @ (c - d)*", "a", "c", "b", "d"], b"");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout(&out), "2 (complete)\n");
}

#[test]
fn check_names_a_trap_with_its_witness() {
    let out = ixctl(&["check", "(x - a - b + y - b - a) @ (b - a)*"], b"");
    assert_eq!(out.status.code(), Some(0));
    let report = stdout(&out);
    assert!(report.contains("soundness  : Unsound (5 states, closed)\n"), "{report}");
    assert!(report.contains("dead       : []\ntrap       : after ⟨x⟩\n"), "{report}");
}

#[test]
fn run_answers_each_stdin_action_and_sums_up() {
    let out = ixctl(&["run", "(a - b)*"], b"a\n\nb\nb\n");
    assert_eq!(out.status.code(), Some(0));
    let expected =
        "Accept.\nAccept.\nReject.\nprocessed 2 accepted / 1 rejected; complete = true\n";
    assert_eq!(stdout(&out), expected);
}

#[test]
fn an_expression_without_an_engine_fails_word_and_run() {
    for (args, stdin) in [(&["word", "$x - b", "b"][..], &b""[..]), (&["run", "$x - b"], b"b\n")] {
        let out = ixctl(args, stdin);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(stderr(&out).contains("unexpanded template hole `$x`"), "{args:?}");
        assert_eq!(stdout(&out), "", "{args:?}");
    }
}

#[test]
fn run_fails_on_a_line_it_cannot_read() {
    let out = ixctl(&["run", "a - b"], b"a\n\xff\nb\n");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(stdout(&out), "Accept.\n");
    assert!(stderr(&out).starts_with("error: "));
}

#[test]
fn extra_arguments_after_the_expression_are_a_usage_error() {
    for command in ["run", "check", "simplify", "dot"] {
        let out = ixctl(&[command, "a - b", "b", "c"], b"");
        assert_eq!(out.status.code(), Some(2), "{command}");
        assert!(stderr(&out).starts_with("usage: ixctl"), "{command}");
        assert_eq!(stdout(&out), "", "{command}");
    }
}

#[test]
fn groups_nested_past_the_parser_limit_are_a_parse_error() {
    let deep = format!("{}a{}", "(".repeat(20_000), ")".repeat(20_000));
    let out = ixctl(&["check", &deep], b"");
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).starts_with("parse error"), "{}", stderr(&out));
}

/// A fresh vault directory for `case`, removed first if a run left one.
fn vault_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ix-ixctl-{case}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Both commands that read a vault fail on `dir` with an error naming `what`.
fn assert_unreadable(dir: &Path, what: &str) {
    for command in [&["snapshot", "inspect"][..], &["recover"]] {
        let out = ixctl(&[command, &[dir.to_str().unwrap()]].concat(), b"");
        assert_eq!(out.status.code(), Some(1), "{command:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(what), "{command:?}: {}", stderr(&out));
        assert_eq!(stdout(&out), "", "{command:?}");
    }
}

#[test]
fn a_topology_counting_past_its_bytes_is_an_error() {
    // Version 1, epoch 0, the empty expression, then a component count of
    // 2^63 - 1 and of 2^32: no bytes follow for any component.
    let counts: [&[u8]; 2] =
        [&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f], &[0x80, 0x80, 0x80, 0x80, 0x10]];
    for (i, count) in counts.into_iter().enumerate() {
        let dir = vault_dir(&format!("topology-{i}"));
        std::fs::create_dir_all(dir.join("blobs")).unwrap();
        std::fs::write(dir.join("blobs/topology"), [&[1, 0, 0][..], count].concat()).unwrap();
        assert_unreadable(&dir, "topology");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_snapshot_counting_more_nodes_than_its_bytes_is_an_error() {
    let dir = vault_dir("snapshot");
    let runtime = ManagerRuntime::with_durability_path(
        &parse("(a - b)*").unwrap(),
        RuntimeOptions::default(),
        &dir,
    )
    .unwrap();
    runtime.session(1).execute_blocking(&Action::nullary("a")).unwrap().unwrap();
    runtime.checkpoint().unwrap();
    runtime.shutdown().unwrap();
    // The snapshot opens with a version byte and eleven varints (four
    // counters and the seven statistics), then the state pool: the scope
    // count, 0 for an expression without `@` or `sync`, and the node count.
    let path = dir.join("blobs/snap-0");
    let mut bytes = std::fs::read(&path).unwrap();
    let mut at = 1;
    for _ in 0..11 {
        at += bytes[at..].iter().position(|&b| b < 0x80).unwrap() + 1;
    }
    assert_eq!(bytes[at], 0, "no scope");
    let count_len = bytes[at + 1..].iter().position(|&b| b < 0x80).unwrap() + 1;
    bytes.splice(at + 1..at + 1 + count_len, [0xff, 0xff, 0xff, 0xff, 0x0f]);
    std::fs::write(&path, bytes).unwrap();
    assert_unreadable(&dir, "shard checkpoint");
    std::fs::remove_dir_all(&dir).unwrap();
}
