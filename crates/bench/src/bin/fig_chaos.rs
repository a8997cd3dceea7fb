//! Chaos campaign: randomized fault-injection sweep over every protocol ×
//! adversary configuration, with invariant checks, schedule shrinking, and
//! `chaos_repro_<hash>.json` reproducers for any violation.
//!
//! ```text
//! cargo run --release -p dr-bench --bin fig_chaos -- [--runs-per-case N]
//!     [--seed S] [--out DIR] [--threads N] [--no-shrink] [--replay FILE]
//! ```
//!
//! `--replay FILE` switches to replay mode: the reproducer is loaded,
//! its schedule is played back, and the exit code reports whether the
//! recorded violation reproduced.

use dr_bench::chaos::{load_repro, replay_repro, run_campaign, Campaign};
use dr_bench::par;
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    runs_per_case: u64,
    seed: u64,
    out: Option<PathBuf>,
    shrink: bool,
    replay: Option<PathBuf>,
}

const USAGE: &str = "usage: fig_chaos [--runs-per-case N] [--seed S] [--out DIR] \
[--threads N] [--no-shrink] [--replay FILE]";

fn parse_options() -> Options {
    let mut opts = Options {
        runs_per_case: 18,
        seed: 0xc0ffee,
        out: Some(PathBuf::from("chaos_repros")),
        shrink: true,
        replay: None,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value\n{USAGE}");
            std::process::exit(2);
        })
    };
    let number = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        let v = value(args, flag);
        v.parse().unwrap_or_else(|_| {
            eprintln!("{flag} expects a number, got '{v}'\n{USAGE}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--runs-per-case" => opts.runs_per_case = number(&mut args, "--runs-per-case"),
            "--seed" => opts.seed = number(&mut args, "--seed"),
            "--out" => opts.out = Some(PathBuf::from(value(&mut args, "--out"))),
            "--threads" => match number(&mut args, "--threads") {
                0 => {
                    eprintln!("--threads must be positive, got '0'\n{USAGE}");
                    std::process::exit(2);
                }
                n => par::set_threads(n as usize),
            },
            "--no-shrink" => opts.shrink = false,
            "--replay" => opts.replay = Some(PathBuf::from(value(&mut args, "--replay"))),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn replay_mode(path: &std::path::Path) -> ExitCode {
    let repro = match load_repro(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {} seed={} — recorded violation: {}",
        repro.case, repro.seed, repro.violation
    );
    let outcome = replay_repro(&repro);
    match outcome.violation {
        Some(v) => {
            let fp_ok = outcome.fingerprint == repro.fingerprint;
            println!(
                "reproduced: {v} (fingerprint {})",
                if fp_ok { "matches" } else { "DIFFERS" }
            );
            if fp_ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        None => {
            println!("did NOT reproduce — run completed cleanly");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let opts = parse_options();
    if let Some(path) = &opts.replay {
        return replay_mode(path);
    }
    let mut campaign = Campaign::new(opts.runs_per_case, opts.seed);
    campaign.shrink = opts.shrink;
    campaign.out_dir = opts.out;
    println!(
        "chaos campaign: {} cases x {} runs = {} runs (base seed {:#x})",
        campaign.cases.len(),
        campaign.runs_per_case,
        campaign.cases.len() * campaign.runs_per_case as usize,
        campaign.base_seed
    );
    let started = std::time::Instant::now();
    let report = run_campaign(&campaign);
    println!(
        "{} runs in {:.1?}: {} violation(s)",
        report.total_runs,
        started.elapsed(),
        report.violations.len()
    );
    for v in &report.violations {
        println!(
            "  VIOLATION {} seed={}: {} ({} fault directives, {} holds, {} link directives in shrunk trace)",
            v.repro.case,
            v.repro.seed,
            v.repro.violation,
            v.repro.trace.num_fault_directives(),
            v.repro.trace.num_hold_directives(),
            v.repro.trace.num_link_directives(),
        );
        if let Some(path) = &v.path {
            println!("    repro written to {}", path.display());
        }
    }
    if report.violations.is_empty() {
        println!("all invariants held");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
