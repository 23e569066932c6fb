//! The CLI's output contract when stdout goes away: a reader that closes
//! the pipe early (`pimnet-cli suite | head -1`) ends the command quietly
//! with exit 0, and any other write failure is an `error:` line and exit 1
//! — never a panic.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// Runs the CLI, reads one line of its stdout, closes the pipe, and
/// returns whether it succeeded, the line and its stderr.
fn read_one_line_then_close(args: &[&str]) -> (bool, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pimnet-cli"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the CLI starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("one line arrives");
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("stderr is readable");
    let status = child.wait().expect("the CLI exits");
    (status.success(), line, stderr)
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    // Both commands print their first line before the rest of their work,
    // so the later lines meet the closed pipe.
    for args in [
        &["suite"][..],
        &[
            "schedule",
            "--kind",
            "alltoall",
            "--dpus",
            "256",
            "--elems",
            "1024",
            "--autotune",
        ][..],
    ] {
        let (ok, line, stderr) = read_one_line_then_close(args);
        assert!(!line.is_empty(), "{args:?}: no first line");
        assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
        assert!(ok, "{args:?} failed:\n{stderr}");
        assert!(stderr.is_empty(), "{args:?} wrote to stderr:\n{stderr}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_failing_stdout_is_a_typed_error() {
    let full = std::fs::File::create("/dev/full").expect("/dev/full exists on Linux");
    let out = Command::new(env!("CARGO_BIN_EXE_pimnet-cli"))
        .arg("help")
        .stdout(full)
        .output()
        .expect("the CLI runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(stderr.starts_with("error: writing to stdout:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
