//! `compare`: two result files of the suite, side by side.
//!
//! Per workload and end-to-end metric it prints both medians, the
//! relative difference and the bound, and it fails when any difference
//! is beyond its bound — in either direction: between two sets of runs
//! of the *same* code (the acceptance check of the benchmark itself) a
//! "gain" beyond the bound is as much a sign of noise as a loss. Between
//! a parent and a change, read a `better` row as what it says. Values
//! that must repeat exactly (fingerprints, Q/T/M, event and fault
//! counters) fail on any difference at all, when both files ran the same
//! seed at the same sizes.

use crate::json::Value;
use std::fmt::Write as _;

/// Outcome of a comparison.
#[derive(Debug)]
pub struct Comparison {
    /// The table, ready to print.
    pub report: String,
    /// Rows beyond their bound, exact values that differ, failed
    /// operations, workloads or metrics present on one side only.
    pub violations: Vec<String>,
}

impl Comparison {
    /// Whether the two files agree within the benchmark's bounds.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

fn env_of<'a>(doc: &'a Value, key: &str) -> Option<&'a Value> {
    doc.get("env").and_then(|e| e.get(key))
}

/// Compares result document `a` (the base) with `b`.
pub fn compare(a: &Value, b: &Value) -> Comparison {
    let mut report = String::new();
    let mut violations = Vec::new();
    let same_input = ["seed", "quick"]
        .iter()
        .all(|k| env_of(a, k) == env_of(b, k));
    let _ = writeln!(
        report,
        "{:<15} {:<12} {:>16} {:>16} {:>9} {:>7}  status",
        "workload", "metric", "a", "b", "diff", "bound"
    );
    let empty = Value::obj();
    let a_workloads = a.get("workloads").unwrap_or(&empty);
    let b_workloads = b.get("workloads").unwrap_or(&empty);
    for (name, _) in b_workloads.fields() {
        if a_workloads.get(name).is_none() {
            violations.push(format!("{name}: only in the second file"));
        }
    }
    for (name, wa) in a_workloads.fields() {
        let Some(wb) = b_workloads.get(name) else {
            violations.push(format!("{name}: only in the first file"));
            continue;
        };
        for (side, w) in [("first", wa), ("second", wb)] {
            let failed = w.get("failed").and_then(Value::as_f64).unwrap_or(f64::NAN);
            if failed != 0.0 {
                violations.push(format!(
                    "{name}: {failed} failed operations in the {side} file"
                ));
            }
        }
        let ea = wa.get("end_to_end").unwrap_or(&empty);
        let eb = wb.get("end_to_end").unwrap_or(&empty);
        for (metric, ma) in ea.fields() {
            let num = |m: &Value, key: &str| m.get(key).and_then(Value::as_f64);
            let (Some(va), Some(vb), Some(bound)) = (
                num(ma, "median"),
                eb.get(metric).and_then(|mb| num(mb, "median")),
                num(ma, "bound"),
            ) else {
                violations.push(format!("{name} {metric}: missing on one side"));
                continue;
            };
            let lower_is_better = ma.get("better").and_then(Value::as_str) != Some("higher");
            let diff = (vb - va) / va;
            let status = if diff.abs() <= bound {
                "ok"
            } else if (diff > 0.0) == lower_is_better {
                "WORSE"
            } else {
                "BETTER"
            };
            if status != "ok" {
                violations.push(format!(
                    "{name} {metric}: {va} -> {vb} ({:+.1}%, bound {:.1}%)",
                    diff * 100.0,
                    bound * 100.0
                ));
            }
            let _ = writeln!(
                report,
                "{name:<15} {metric:<12} {va:>16.6} {vb:>16.6} {:>+8.2}% {:>6.1}%  {status}",
                diff * 100.0,
                bound * 100.0
            );
        }
        if same_input {
            let xa = wa.get("exact").unwrap_or(&empty);
            let xb = wb.get("exact").unwrap_or(&empty);
            for (key, va) in xa.fields() {
                if xb.get(key) != Some(va) {
                    violations.push(format!(
                        "{name} exact {key}: {} -> {}",
                        va.to_line(),
                        xb.get(key).map_or("absent".to_string(), Value::to_line)
                    ));
                }
            }
            let _ = writeln!(
                report,
                "{name:<15} exact: {} values {}",
                xa.fields().len(),
                if xa == xb { "identical" } else { "DIFFER" }
            );
        }
    }
    if !same_input {
        let _ = writeln!(
            report,
            "exact values not compared: the files ran different seeds or sizes"
        );
    }
    Comparison { report, violations }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(run_s: f64, req_per_s: f64, fingerprint: &str, seed: u64) -> Value {
        let metric = |median: f64, better: &str| {
            Value::obj()
                .with("unit", "s")
                .with("better", better)
                .with("bound", 0.10)
                .with("median", median)
        };
        Value::obj()
            .with("env", Value::obj().with("seed", seed).with("quick", false))
            .with(
                "workloads",
                Value::obj().with(
                    "committee",
                    Value::obj()
                        .with("failed", 0u64)
                        .with("exact", Value::obj().with("fingerprint", fingerprint))
                        .with(
                            "end_to_end",
                            Value::obj()
                                .with("run_s", metric(run_s, "lower"))
                                .with("req_per_s", metric(req_per_s, "higher")),
                        ),
                ),
            )
    }

    #[test]
    fn agreement_within_the_bound_passes() {
        let c = compare(&doc(1.00, 10.0, "ab", 0), &doc(1.09, 9.2, "ab", 0));
        assert!(c.ok(), "{:?}", c.violations);
        assert!(c.report.contains("identical"));
    }

    #[test]
    fn a_difference_beyond_the_bound_fails_in_either_direction() {
        let worse = compare(&doc(1.0, 10.0, "ab", 0), &doc(1.2, 10.0, "ab", 0));
        assert_eq!(worse.violations.len(), 1);
        assert!(worse.report.contains("WORSE"));
        let better = compare(&doc(1.0, 10.0, "ab", 0), &doc(1.0, 12.0, "ab", 0));
        assert_eq!(better.violations.len(), 1);
        assert!(better.report.contains("BETTER"));
    }

    #[test]
    fn any_exact_difference_fails_but_only_for_the_same_seed() {
        let differ = compare(&doc(1.0, 10.0, "ab", 0), &doc(1.0, 10.0, "cd", 0));
        assert_eq!(differ.violations.len(), 1);
        assert!(differ.violations[0].contains("fingerprint"));
        let other_seed = compare(&doc(1.0, 10.0, "ab", 0), &doc(1.0, 10.0, "cd", 1));
        assert!(other_seed.ok());
    }

    #[test]
    fn a_missing_workload_or_a_failed_operation_fails() {
        let mut b = doc(1.0, 10.0, "ab", 0);
        if let Value::Obj(fields) = &mut b {
            fields[1].1 = Value::obj();
        }
        assert!(!compare(&doc(1.0, 10.0, "ab", 0), &b).ok());
    }
}
