//! The `ixctl` binary end to end: its answers, and the exit codes a script
//! relies on (0 answered, 1 failed, 2 misused).

use std::io::Write;
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
