//! `fig_chaos` rejects bad numeric flags the way `dr chaos` does: usage
//! on stderr and exit code 2, never a panic.

use std::process::Command;

fn assert_rejected(args: &[&str]) {
    // `--runs-per-case 0` first: if a bad flag slipped through, the run
    // would be empty and exit 0 rather than sweep the whole grid.
    let out = Command::new(env!("CARGO_BIN_EXE_fig_chaos"))
        .args(["--runs-per-case", "0"])
        .args(args)
        .output()
        .expect("run fig_chaos");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: fig_chaos"), "{args:?}: {stderr}");
}

#[test]
fn zero_threads_is_a_usage_error() {
    assert_rejected(&["--threads", "0"]);
}

#[test]
fn non_numeric_flags_are_usage_errors() {
    assert_rejected(&["--seed", "x"]);
    assert_rejected(&["--threads", "x"]);
    assert_rejected(&["--runs-per-case", "x"]);
}
