//! `BENCHMARK.json` and the catalogue in `spec.rs` say the same thing,
//! and a run's result line carries every metric of its catalogue with a
//! unit — on every workload, traced and untraced, at tiny sizes.

use dr_benchmark::json::Value;
use dr_benchmark::run::{run, Outcome, RunConfig};
use dr_benchmark::spec::{self, WORKLOADS};

#[test]
fn the_committed_manifest_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let committed = Value::parse(&text).expect("valid JSON");
    let keys: Vec<&str> = committed.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        committed,
        spec::manifest(),
        "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
    );
}

#[test]
fn every_run_reports_every_metric_of_its_catalogue_with_a_unit() {
    let out_dir = std::env::temp_dir().join(format!("dr-benchmark-test-{}", std::process::id()));
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let cfg = RunConfig {
                workload,
                seed: 3,
                seconds: 0.05,
                trace,
                quick: true,
                out_dir: out_dir.clone(),
            };
            let outcome = run(&cfg);
            let what = format!("{} trace={trace}", workload.name);
            assert!(outcome.correct(), "{what}: {:?}", outcome.problems);
            assert!(outcome.attempted >= 1, "{what}");
            let line = outcome.result_line(trace);
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            let metrics = line.get("metrics").unwrap();
            let catalogue = Outcome::catalogue(trace);
            assert_eq!(metrics.fields().len(), catalogue.len(), "{what}");
            for m in catalogue {
                let entry = metrics
                    .get(m.name)
                    .unwrap_or_else(|| panic!("{what}: {}", m.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit));
                let value = entry.get("value").and_then(Value::as_f64).unwrap();
                assert!(value.is_finite(), "{what}: {}", m.name);
                if !trace {
                    assert!(value > 0.0, "{what}: {} must never be 0", m.name);
                }
            }
            if trace {
                let file = out_dir.join(format!("trace_{}.json", workload.name));
                let doc = Value::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
                assert!(
                    doc.get("trace").unwrap().get("spans_total").is_some(),
                    "{what}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(out_dir);
}
