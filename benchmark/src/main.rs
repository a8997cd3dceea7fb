//! Command line of the benchmark. Three ways to run it:
//!
//! * no `--workload`: the suite — every workload in rounds, then one
//!   traced round; prints every metric by name with its unit and writes
//!   a result file;
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>`: one run
//!   of one workload, the form `BENCHMARK.json` names; the last line of
//!   standard output is the result object;
//! * `compare <a.json> <b.json>`: two result files side by side.
//!
//! Every form exits non-zero when an output was wrong or a check failed.

use dr_benchmark::compare::compare;
use dr_benchmark::json::Value;
use dr_benchmark::run::{run, Outcome, RunConfig};
use dr_benchmark::spec::{self, WORKLOADS};
use dr_benchmark::suite::{self, SuiteConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: dr-benchmark [--rounds R] [--seconds S] [--seed N] [--quick] [--out FILE]
       dr-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out-dir DIR]
       dr-benchmark compare A.json B.json
       dr-benchmark manifest

  --rounds R    timed rounds of the suite, each one sample per workload (default 7; 2 with --quick)
  --seconds S   how long one sample measures (default 3 in the suite, 10 for one workload)
  --seed N      makes the input (array, slot draws); 0 reproduces the recorded executions
  --quick       tiny sizes, same checks: the whole suite in a few seconds
  --out FILE    result file of the suite (default benchmark/out/result.json)
  --trace 1     traced run: per-layer metrics and benchmark/out/trace_<workload>.json";

/// Where results go unless told otherwise: `benchmark/out` from the
/// repository root, `out` from inside `benchmark/`.
fn default_out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    rounds: Option<usize>,
    out: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        quick: false,
        rounds: None,
        out: None,
        out_dir: None,
        positional: Vec::new(),
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is not in (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--rounds" => {
                let rounds: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?;
                if !(1..=1000).contains(&rounds) {
                    return Err(format!("--rounds {rounds} is not in 1..=1000"));
                }
                args.rounds = Some(rounds);
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--out-dir" => args.out_dir = Some(PathBuf::from(value("a path")?)),
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn print_outcome(cfg: &RunConfig, outcome: &Outcome) {
    let w = cfg.workload.name;
    println!(
        "workload {w} seed {} seconds {} trace {} sizes {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.quick { "quick" } else { "full" }
    );
    for m in Outcome::catalogue(cfg.trace) {
        let value = outcome.values.get(m.name).copied().unwrap_or(0.0);
        println!("metric {w} {:<40} {value:>18.6} {}", m.name, m.unit);
    }
    let rounds: Vec<Value> = outcome.rounds_s.iter().map(|&s| Value::from(s)).collect();
    println!("rounds_s {}", Value::Arr(rounds).to_line());
    println!("exact {}", outcome.exact.to_line());
    for problem in &outcome.problems {
        println!("problem {problem}");
    }
    println!("{}", outcome.result_line(cfg.trace).to_line());
}

fn read_doc(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let args = parse(std::env::args().skip(1).collect())?;
    match args.positional.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err("compare needs two result files".to_string());
            };
            let outcome = compare(&read_doc(a)?, &read_doc(b)?);
            print!("{}", outcome.report);
            for v in &outcome.violations {
                println!("violation {v}");
            }
            println!(
                "{}",
                if outcome.ok() {
                    "the two files agree within the benchmark's bounds"
                } else {
                    "the two files DISAGREE"
                }
            );
            return Ok(outcome.ok());
        }
        Some("manifest") => {
            print!("{}", spec::manifest().to_pretty());
            return Ok(true);
        }
        Some(other) => return Err(format!("unknown command {other}")),
        None => {}
    }

    if let Some(name) = &args.workload {
        let workload = spec::workload(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name}; one of {}", names.join(", "))
        })?;
        let cfg = RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds.unwrap_or(10.0),
            trace: args.trace,
            quick: args.quick,
            out_dir: args.out_dir.unwrap_or_else(default_out_dir),
        };
        let outcome = run(&cfg);
        print_outcome(&cfg, &outcome);
        return Ok(outcome.correct());
    }

    let cfg = SuiteConfig {
        rounds: args.rounds.unwrap_or(if args.quick { 2 } else { 7 }),
        seconds: args.seconds.unwrap_or(if args.quick { 0.2 } else { 3.0 }),
        seed: args.seed,
        quick: args.quick,
        out: args
            .out
            .unwrap_or_else(|| default_out_dir().join("result.json")),
    };
    let (doc, problems) = suite::run(&cfg);
    print!("{}", suite::render(&doc));
    if let Some(dir) = cfg.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&cfg.out, doc.to_pretty()).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    println!("\nresult written to {}", cfg.out.display());
    for problem in &problems {
        println!("problem {problem}");
    }
    println!(
        "{}",
        if problems.is_empty() {
            "every output was correct and every check held"
        } else {
            "FAILED"
        }
    );
    Ok(problems.is_empty())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            if !why.is_empty() {
                eprintln!("error: {why}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
