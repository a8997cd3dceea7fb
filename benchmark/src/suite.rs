//! The one command: every workload, in rounds, then one traced round.
//!
//! Samples are taken in **rounds**: each round runs every workload once,
//! in catalogue order, and each sample runs in a child process of its
//! own (this same executable with `--workload`), so `peak_rss_mb`
//! belongs to one workload and a slow minute of a shared box spreads
//! over all workloads instead of landing on one. After the timed rounds
//! one traced round yields the per-layer metrics. Every child's exact
//! values must equal those of the first round — across rounds, and
//! traced against untraced.

use crate::json::Value;
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, min_max};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// What the suite runs.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Timed rounds (each one sample per workload and metric).
    pub rounds: usize,
    /// Seconds each sample measures for.
    pub seconds: f64,
    /// Makes every workload's input.
    pub seed: u64,
    /// Tiny sizes.
    pub quick: bool,
    /// Where the result file goes; traces go beside it.
    pub out: PathBuf,
}

/// One child's report.
struct Sample {
    result: Value,
    exact: Value,
}

fn child(cfg: &SuiteConfig, workload: &str, trace: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(cfg.out.parent().unwrap_or(std::path::Path::new(".")));
    if cfg.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd
        .output()
        .map_err(|e| format!("{workload}: could not start the child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let problems: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("problem "))
        .collect();
    if !output.status.success() {
        return Err(format!(
            "{workload}: child exited with {}: {}{}",
            output.status,
            problems.join("; "),
            String::from_utf8_lossy(&output.stderr).trim_end()
        ));
    }
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload}: child printed nothing"))?;
    let result = Value::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let exact = stdout
        .lines()
        .find_map(|l| l.strip_prefix("exact "))
        .ok_or_else(|| format!("{workload}: child printed no exact line"))
        .and_then(|l| Value::parse(l).map_err(|e| format!("{workload}: bad exact line: {e}")))?;
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload}: incorrect: {}", problems.join("; ")));
    }
    Ok(Sample { result, exact })
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment block written to every result file.
fn environment(cfg: &SuiteConfig) -> Value {
    Value::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("rustc", tool_version("rustc", &["--version"]))
        .with(
            "commit",
            tool_version("git", &["rev-parse", "--short", "HEAD"]),
        )
        .with("rounds", cfg.rounds)
        .with("seconds", cfg.seconds)
        .with("seed", cfg.seed)
        .with("quick", cfg.quick)
        .with(
            "load",
            "in-process; sim: 1 thread; serve: closed loop, 2 client threads",
        )
        .with("upstream_delay", "none injected")
}

fn metric_value(sample: &Sample, name: &str) -> Option<f64> {
    sample
        .result
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Runs the suite. Returns the result document, and what went wrong
/// (empty when every check held).
pub fn run(cfg: &SuiteConfig) -> (Value, Vec<String>) {
    let mut problems = Vec::new();
    // samples[w][round]
    let mut samples: Vec<Vec<Sample>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    let mut traced: Vec<Option<Sample>> = WORKLOADS.iter().map(|_| None).collect();
    for round in 0..=cfg.rounds {
        let trace = round == cfg.rounds;
        for (w, workload) in WORKLOADS.iter().enumerate() {
            eprintln!(
                "[{}] {}",
                if trace {
                    "traced round".to_string()
                } else {
                    format!("round {}/{}", round + 1, cfg.rounds)
                },
                workload.name
            );
            let sample = match child(cfg, workload.name, trace) {
                Ok(sample) => sample,
                Err(why) => {
                    problems.push(why);
                    continue;
                }
            };
            let first = samples[w].first().unwrap_or(&sample);
            if first.exact != sample.exact {
                problems.push(format!(
                    "{}: exact values changed{}: {} then {}",
                    workload.name,
                    if trace {
                        " under tracing"
                    } else {
                        " between rounds"
                    },
                    first.exact.to_line(),
                    sample.exact.to_line()
                ));
            }
            if trace {
                traced[w] = Some(sample);
            } else {
                samples[w].push(sample);
            }
        }
    }

    let mut workloads = Value::obj();
    for (w, workload) in WORKLOADS.iter().enumerate() {
        let rounds = &samples[w];
        let sum = |key: &str| -> f64 {
            rounds
                .iter()
                .filter_map(|s| s.result.get(key).and_then(Value::as_f64))
                .sum()
        };
        let mut end_to_end = Value::obj();
        for m in END_TO_END {
            let values: Vec<f64> = rounds
                .iter()
                .filter_map(|s| metric_value(s, m.name))
                .collect();
            if values.is_empty() {
                continue;
            }
            let (min, max) = min_max(&values);
            end_to_end.push(
                m.name,
                Value::obj()
                    .with("unit", m.unit)
                    .with("better", m.better.as_str())
                    .with("bound", m.bound.expect("end-to-end metrics have one"))
                    .with("median", median(&values))
                    .with("min", min)
                    .with("max", max)
                    .with("n", values.len())
                    .with(
                        "samples",
                        values.iter().map(|&v| Value::from(v)).collect::<Vec<_>>(),
                    ),
            );
        }
        let mut per_layer = Value::obj();
        if let Some(sample) = &traced[w] {
            for m in PER_LAYER {
                if let Some(value) = metric_value(sample, m.name) {
                    per_layer.push(
                        m.name,
                        Value::obj()
                            .with("unit", m.unit)
                            .with("better", m.better.as_str())
                            .with("value", value)
                            .with("moves", m.note),
                    );
                }
            }
        }
        workloads.push(
            workload.name,
            Value::obj()
                .with("why", workload.why)
                .with("attempted", sum("attempted"))
                .with("failed", sum("failed"))
                .with(
                    "exact",
                    rounds.first().map_or(Value::obj(), |s| s.exact.clone()),
                )
                .with("end_to_end", end_to_end)
                .with("per_layer", per_layer),
        );
    }
    let doc = Value::obj()
        .with("benchmark", "dr-benchmark")
        .with("env", environment(cfg))
        .with("workloads", workloads);
    (doc, problems)
}

/// Every metric of a result document by name, with its unit: the table
/// the one command prints.
pub fn render(doc: &Value) -> String {
    let mut out = String::new();
    let num = |m: &Value, key: &str| m.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let text = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).unwrap_or("").to_string();
    if let Some(env) = doc.get("env") {
        let _ = writeln!(out, "env {}", env.to_line());
    }
    let empty = Value::obj();
    for (name, w) in doc.get("workloads").unwrap_or(&empty).fields() {
        let _ = writeln!(
            out,
            "\n== {name}: {} operations attempted, {} failed",
            num(w, "attempted"),
            num(w, "failed")
        );
        let _ = writeln!(
            out,
            "   exact {}",
            w.get("exact").unwrap_or(&empty).to_line()
        );
        let _ = writeln!(
            out,
            "   {:<14} {:>16} {:>16} {:>16} {:>3}  {:<6} {:>6}",
            "end-to-end", "median", "min", "max", "n", "unit", "bound"
        );
        for (metric, m) in w.get("end_to_end").unwrap_or(&empty).fields() {
            let _ = writeln!(
                out,
                "   {metric:<14} {:>16.6} {:>16.6} {:>16.6} {:>3}  {:<6} {:>5.1}%",
                num(m, "median"),
                num(m, "min"),
                num(m, "max"),
                num(m, "n"),
                text(m, "unit"),
                num(m, "bound") * 100.0
            );
        }
        let _ = writeln!(
            out,
            "   {:<40} {:>18}  unit",
            "per-layer (one traced round)", "value"
        );
        for (metric, m) in w.get("per_layer").unwrap_or(&empty).fields() {
            let _ = writeln!(
                out,
                "   {metric:<40} {:>18.6}  {}",
                num(m, "value"),
                text(m, "unit")
            );
        }
    }
    out
}
