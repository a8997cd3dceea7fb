//! End-to-end tests of the `dr` binary.

use std::process::Command;

fn dr(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dr"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = dr(&["--help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("dr run"));
}

#[test]
fn help_anywhere_prints_usage_and_succeeds() {
    for args in [
        &["run", "--help"][..],
        &["chaos", "-h"],
        &["experiments", "--help"],
        &["run", "--protocol", "alg2", "-h"],
    ] {
        let (ok, stdout, stderr) = dr(args);
        assert!(ok, "{args:?}: {stderr}");
        assert!(stdout.contains("USAGE"), "{args:?}: {stdout}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

/// With stderr a pipe whose reader has gone, a bad flag still exits 1:
/// the error write fails quietly instead of panicking (exit 101).
#[test]
fn error_on_a_closed_stderr_still_exits_one() {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_dr"))
        .args(["run", "--sed", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stderr.take());
    let status = child.wait().expect("binary exits");
    assert_eq!(status.code(), Some(1));
}

/// With stdout a pipe whose reader leaves after one line, `dr trace`
/// (far more output than a pipe buffer holds) still exits 0: the writes
/// that fail are dropped instead of panicking (exit 101).
#[test]
fn trace_into_a_closed_pipe_exits_cleanly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_dr"))
        .args(["trace", "--n", "4096", "--k", "32", "--b", "4"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    assert!(!first.is_empty(), "no trace line before the pipe closed");
    let out = child.wait_with_output().expect("binary exits");
    assert_eq!(
        out.status.code(),
        Some(0),
        "a write into the closed pipe panicked (101) or failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn run_alg2_reports_metrics() {
    let (ok, stdout, _) = dr(&[
        "run",
        "--protocol",
        "alg2",
        "--n",
        "256",
        "--k",
        "8",
        "--b",
        "4",
        "--crashes",
        "4",
        "--seed",
        "2",
    ]);
    assert!(ok);
    assert!(stdout.contains("Q (max nonfaulty)"));
    assert!(stdout.contains("verified"));
}

#[test]
fn attack_defeats_balanced() {
    let (ok, stdout, _) = dr(&["attack", "--protocol", "balanced", "--n", "64", "--k", "4"]);
    assert!(ok);
    assert!(stdout.contains("FOOLED"));
}

#[test]
fn attack_fails_against_naive() {
    let (ok, stdout, _) = dr(&["attack", "--protocol", "naive", "--n", "64", "--k", "4"]);
    assert!(ok);
    assert!(stdout.contains("SURVIVES"));
}

#[test]
fn explore_passes_on_tiny_instance() {
    let (ok, stdout, _) = dr(&[
        "explore",
        "--protocol",
        "alg2",
        "--n",
        "4",
        "--k",
        "3",
        "--crash",
        "0",
    ]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("explored 100 schedules (exhaustive)"),
        "{stdout}"
    );
    assert!(stdout.contains("PASS"));
}

#[test]
fn trace_renders_events() {
    let (ok, stdout, _) = dr(&["trace", "--n", "16", "--k", "3", "--b", "1"]);
    assert!(ok);
    assert!(stdout.contains("START") && stdout.contains("DONE"));
}

#[test]
fn unknown_options_are_rejected_by_name() {
    // A typo must not silently run with the default it meant to override,
    // and the flags removed with intra-run sharding must not linger as
    // accepted no-ops in stale scripts.
    let run = ["run", "--protocol", "naive", "--n", "64", "--k", "4"];
    // Spelled in two halves so a search for the removed flag finds none.
    let pump_threads = ["pump", "threads"].join("-");
    let cases: [(&[&str], &str, &str); 4] = [
        (&run, "sed", "run"),
        (&run, "shards", "run"),
        (&["chaos", "--runs-per-case", "1"], &pump_threads, "chaos"),
        (&["trace"], "shards", "trace"),
    ];
    for (base, option, command) in cases {
        let flag = format!("--{option}");
        let args: Vec<&str> = base.iter().copied().chain([flag.as_str(), "2"]).collect();
        let (ok, stdout, stderr) = dr(&args);
        assert!(!ok, "{args:?} ran: {stdout}");
        let message = format!("unknown option {flag} for '{command}'");
        assert!(stderr.contains(&message), "{args:?}: {stderr}");
    }
}

#[test]
fn committee_with_a_byzantine_half_is_an_error_not_a_panic() {
    let run = ["run", "--n", "64", "--k", "4", "--b", "2"];
    let attack = ["attack", "--n", "64", "--k", "4", "--t", "2"];
    for args in [&run[..], &attack[..]] {
        let mut args = args.to_vec();
        args.extend(["--protocol", "committee"]);
        let (ok, _, stderr) = dr(&args);
        assert!(!ok);
        assert!(stderr.contains("Thm 3.1"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    // The largest legal budget still runs.
    let (ok, stdout, _) = dr(&[
        "run",
        "--protocol",
        "committee",
        "--n",
        "64",
        "--k",
        "5",
        "--b",
        "2",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("verified"));
}

#[test]
fn bad_instance_flags_are_errors_naming_the_flag_not_panics() {
    // Each instance case used to exit 101 with a runner's panic, or, for
    // `explore`, print a PASS verdict for an instance that does not exist.
    // The `chaos` and `experiments` cases pin their option checks. (Paths
    // are relative to this crate's root, the test's working directory.)
    let cases = [
        (
            "run --protocol alg2 --n 0 --k 4",
            "--n 0",
            "input length n must be positive",
        ),
        (
            "run --protocol alg2 --n 64 --k 0",
            "--k 0",
            "peer count k must be positive",
        ),
        (
            "run --protocol alg2 --n 64 --k 4 --b 4",
            "--b 4",
            "at least one nonfaulty peer",
        ),
        (
            "run --protocol alg2 --n 64 --k 4 --msg-bits 0",
            "--msg-bits 0",
            "message size",
        ),
        (
            "run --protocol alg2 --n 64 --k 4 --b 1 --crashes 3",
            "--crashes 3",
            "fault budget --b 1",
        ),
        (
            "run --protocol alg1 --n 64 --k 2",
            "--k 2",
            "alg1 needs --k >= 3",
        ),
        ("trace --k 0", "--k 0", "peer count k must be positive"),
        ("trace --b 4 --k 4", "--b 4", "at least one nonfaulty peer"),
        (
            "explore --protocol alg2 --n 6 --k 0",
            "--k 0",
            "peer count k must be positive",
        ),
        (
            "explore --n 6 --k 3 --crash 7",
            "--crash 7",
            "is not a peer",
        ),
        (
            "oracle --cells 0",
            "--cells 0",
            "input length n must be positive",
        ),
        (
            "oracle --nodes 3 --byz-nodes 3",
            "--byz-nodes 3",
            "at least one nonfaulty peer",
        ),
        (
            "oracle --sources 0",
            "--sources 0",
            "at least one honest source",
        ),
        (
            "oracle --nodes 0",
            "--nodes 0",
            "peer count k must be positive",
        ),
        (
            "oracle --engine crash --nodes 4 --byz-nodes 5",
            "--byz-nodes 5",
            "at least one nonfaulty peer",
        ),
        (
            "attack --n 0 --k 4 --protocol naive",
            "--n 0",
            "input length n must be positive",
        ),
        (
            "attack --n 64 --k 0 --protocol naive",
            "--k 0",
            "peer count k must be positive",
        ),
        (
            "attack --n 64 --k 4 --target 9 --protocol naive",
            "--target 9",
            "is not a peer",
        ),
        (
            "attack --n 64 --k 2 --protocol alg1",
            "--k 2",
            "alg1 needs --k >= 3",
        ),
        // `--runs-per-case 0` first: if a bad flag slipped through, the
        // campaign would be empty and exit 0 instead of failing.
        (
            "chaos --runs-per-case 0 --threads 0",
            "--threads",
            "must be positive",
        ),
        (
            "chaos --runs-per-case 0 --threads x",
            "--threads",
            "expects a number",
        ),
        (
            "chaos --runs-per-case 0 --seed x",
            "--seed",
            "expects a number",
        ),
        (
            "chaos --runs-per-case x",
            "--runs-per-case",
            "expects a number",
        ),
        // Hostile `--replay` files from dr-bench's corpus: the first used to
        // overflow the stack and abort, the next three to exit 101, the
        // last to ask for a 128 GiB input.
        (
            "chaos --replay ../bench/tests/repro_corpus/malformed/deep_nesting.json",
            "deep_nesting.json",
            "nesting deeper than 64 at byte 64",
        ),
        (
            "chaos --replay ../bench/tests/repro_corpus/malformed/zero_peers.json",
            "zero_peers.json",
            "case: invalid model parameters: peer count k must be positive",
        ),
        (
            "chaos --replay ../bench/tests/repro_corpus/malformed/crash_single_two_peers.json",
            "crash_single_two_peers.json",
            "case: Algorithm 1 needs k >= 3 peers",
        ),
        (
            "chaos --replay ../bench/tests/repro_corpus/malformed/committee_byzantine_half.json",
            "committee_byzantine_half.json",
            "case: the committee protocol needs 2·t < k",
        ),
        (
            "chaos --replay ../bench/tests/repro_corpus/malformed/huge_n.json",
            "huge_n.json",
            "case.n: 1099511627776 exceeds the replay cap MAX_REPRO_N",
        ),
        ("experiments --threads 0", "--threads", "must be positive"),
        ("experiments --trials 0", "--trials", "must be positive"),
        (
            "experiments --only tabel1",
            "--only tabel1",
            "valid names are table1, crash_single, crash_scaling, byz_committee, two_cycle, \
             multi_cycle, lower_bound, oracle, msg_size, strategy_ablation, synchrony, exhaustive",
        ),
    ];
    for (args, flag, reason) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_dr"))
            .args(args.split_whitespace())
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(stdout.is_empty(), "{args} printed: {stdout}");
        let line = stderr.lines().next().unwrap_or_default();
        assert!(line.starts_with("error: "), "{args}: {stderr}");
        assert!(
            line.contains(flag) && line.contains(reason),
            "{args}: {line}"
        );
    }
}

#[test]
fn duplicate_flag_is_rejected() {
    let (ok, _, stderr) = dr(&[
        "run",
        "--protocol",
        "alg2",
        "--n",
        "64",
        "--k",
        "4",
        "--seed",
        "2",
        "--seed",
        "4",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--seed given more than once"), "{stderr}");
}

#[test]
fn chaos_duplicate_flag_is_rejected() {
    let (ok, _, stderr) = dr(&[
        "chaos",
        "--runs-per-case",
        "1",
        "--threads",
        "2",
        "--threads",
        "2",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("--threads given more than once"),
        "{stderr}"
    );
}

#[test]
fn chaos_link_fault_flags_restrict_the_sweep() {
    // All three selectors on, 1 seed per case, no shrinking, repro dir
    // suppressed via a temp path: the sweep covers exactly the 8 size
    // rows × 3 link-fault columns = 24 runs and holds every invariant.
    let out = std::env::temp_dir().join(format!("dr_cli_chaos_{}", std::process::id()));
    let (ok, stdout, stderr) = dr(&[
        "chaos",
        "--runs-per-case",
        "1",
        "--partition",
        "1",
        "--drop-rate",
        "200",
        "--churn",
        "1",
        "--shrink",
        "0",
        "--out",
        out.to_str().unwrap(),
    ]);
    std::fs::remove_dir_all(&out).ok();
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("24 cases x 1 runs"), "{stdout}");
    assert!(stdout.contains("all invariants held"), "{stdout}");
}

#[test]
fn chaos_drop_rate_must_be_a_permille() {
    let (ok, _, stderr) = dr(&["chaos", "--runs-per-case", "1", "--drop-rate", "1000"]);
    assert!(!ok);
    assert!(stderr.contains("below 1000"), "{stderr}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let (ok, _, stderr) = dr(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn missing_required_option_fails() {
    let (ok, _, stderr) = dr(&["run", "--protocol", "alg2"]);
    assert!(!ok);
    assert!(stderr.contains("--n is required"));
}
