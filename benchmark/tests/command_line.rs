//! The executable end to end: `--quick` runs the whole suite in seconds
//! with the same checks, `compare` accepts two sets of the same code and
//! rejects a tampered one, and a bad command line is refused.

use dr_benchmark::json::Value;
use std::path::PathBuf;
use std::process::Command;

fn exe() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dr-benchmark"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dr-benchmark-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quick_suite(out: &PathBuf) -> std::process::Output {
    exe()
        .args(["--quick", "--rounds", "2", "--out"])
        .arg(out)
        .output()
        .unwrap()
}

#[test]
fn the_quick_suite_passes_and_two_sets_of_it_compare_clean_on_exact_values() {
    let dir = scratch("suite");
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    for out in [&a, &b] {
        let started = std::time::Instant::now();
        let output = quick_suite(out);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(output.status.success(), "{stdout}");
        assert!(stdout.contains("every output was correct"), "{stdout}");
        assert!(
            started.elapsed().as_secs() < 60,
            "--quick is meant to be quick"
        );
    }
    let doc = Value::parse(&std::fs::read_to_string(&a).unwrap()).unwrap();
    let env = doc.get("env").unwrap();
    for key in ["nproc", "rustc", "commit", "rounds", "seed"] {
        assert!(env.get(key).is_some(), "env lacks {key}");
    }
    let workloads = doc.get("workloads").unwrap();
    assert_eq!(workloads.fields().len(), 7);
    for (name, w) in workloads.fields() {
        assert_eq!(w.get("failed").and_then(Value::as_f64), Some(0.0), "{name}");
        let run_s = w.get("end_to_end").unwrap().get("run_s").unwrap();
        assert_eq!(run_s.get("n").and_then(Value::as_f64), Some(2.0), "{name}");
        assert!(w
            .get("per_layer")
            .unwrap()
            .get("trace.overhead_share")
            .is_some());
    }

    // Timings at these sizes are microseconds of noise, so only the
    // exact part of `compare` is asserted: same code, same seed.
    let output = exe().arg("compare").arg(&a).arg(&b).output().unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.contains("exact "), "{stdout}");
    assert_eq!(stdout.matches("identical").count(), 7, "{stdout}");

    // A file compared with itself agrees entirely; tampered, it does not.
    let same = exe().arg("compare").arg(&a).arg(&a).output().unwrap();
    assert!(same.status.success());
    let text = std::fs::read_to_string(&a).unwrap();
    let tampered = dir.join("tampered.json");
    std::fs::write(&tampered, text.replacen("\"events\": ", "\"events\": 1", 1)).unwrap();
    let differ = exe()
        .arg("compare")
        .arg(&a)
        .arg(&tampered)
        .output()
        .unwrap();
    assert_eq!(differ.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&differ.stdout).contains("exact events"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn one_workload_prints_the_result_object_last() {
    let dir = scratch("one");
    let output = exe()
        .args([
            "--workload",
            "serve_cold",
            "--seed",
            "5",
            "--seconds",
            "0.05",
        ])
        .args(["--trace", "0", "--quick", "--out-dir"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = Value::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
    assert!(last.get("metrics").unwrap().get("setup_s").is_some());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_bad_command_line_is_refused_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--trace", "2", "--workload", "committee"],
        vec!["--seconds", "0", "--workload", "committee"],
        vec!["--frobnicate"],
        vec!["compare", "only-one.json"],
    ] {
        let output = exe().args(&args).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
