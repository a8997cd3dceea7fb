//! `dr` — command-line driver for DR Download simulations, attacks, oracle
//! pipelines, and exhaustive schedule exploration.
//!
//! ```text
//! dr run     --protocol <naive|balanced|alg1|alg2|alg2-early|committee|two-cycle|multi-cycle>
//!            --n <bits> --k <peers> [--b <faults>] [--crashes <count>]
//!            [--byz-mix <none|silent|mixed|colluders>] [--seed <u64>] [--msg-bits <a>]
//! dr attack  --n <bits> --k <peers> --protocol <naive|balanced|committee> [--seed <u64>]
//! dr oracle  [--nodes <k>] [--byz-nodes <b>] [--sources <m>] [--corrupt <c>] [--cells <n>]
//!            [--engine <two-cycle|crash>] [--seed <u64>]
//! dr explore --protocol <alg1|alg2> --n <bits> --k <peers> [--crash <victim>]
//!            [--max-schedules <count>] [--seed <u64>]
//! dr chaos   [--runs-per-case <n>] [--seed <u64>] [--out <dir>] [--threads <n>]
//!            [--partition <0|1>] [--drop-rate <permille>] [--churn <0|1>]
//!            [--shrink <0|1>] [--replay <chaos_repro_*.json>]
//! dr experiments [--only <name>] [--json <dir>] [--threads <n>] [--trials <n>]
//! dr [<subcommand>] --help | -h
//! ```

mod args;
mod commands;

use args::Args;
use dr_bench::experiments::EXPERIMENTS;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
dr — Distributed Download from an External Data Source

USAGE:
  dr run     --protocol <naive|balanced|alg1|alg2|alg2-early|committee|two-cycle|multi-cycle>
             --n <bits> --k <peers> [--b <faults>] [--crashes <count>]
             [--byz-mix <none|silent|mixed|colluders>] [--seed <u64>] [--msg-bits <a>]
  dr attack  --n <bits> --k <peers> --protocol <naive|balanced|committee> [--seed <u64>]
  dr oracle  [--nodes <k>] [--byz-nodes <b>] [--sources <m>] [--corrupt <c>] [--cells <n>]
             [--engine <two-cycle|crash>] [--seed <u64>]
  dr explore --protocol <alg1|alg2> --n <bits> --k <peers> [--crash <victim>]
             [--max-schedules <count>] [--seed <u64>]
  dr trace   [--n <bits>] [--k <peers>] [--b <faults>] [--crashes <count>] [--seed <u64>]
  dr chaos   [--runs-per-case <n>] [--seed <u64>] [--out <dir>] [--threads <n>]
             [--partition <0|1>] [--drop-rate <permille>] [--churn <0|1>]
                                 restrict the sweep to the selected link-fault columns
             [--shrink <0|1>] [--replay <chaos_repro_*.json>]
  dr experiments [--json <dir>] [--threads <n>] [--trials <n>]
";

/// The usage text: [`USAGE`], then the `--only` names of the experiment
/// table, four to a line, then the help line.
fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let lines: Vec<String> = names.chunks(4).map(|line| line.join("|")).collect();
    format!(
        "{USAGE}                 [--only <{}>]\n  dr [<subcommand>] --help | -h                 this text\n",
        lines.join("|\n                  ")
    )
}

/// Prints `error: <e>` and the usage to stderr and fails. The write's
/// own result is ignored: with stderr closed there is no one left to tell,
/// and the exit code still says what happened.
fn fail(e: impl std::fmt::Display) -> ExitCode {
    let _ = writeln!(std::io::stderr(), "error: {e}\n\n{}", usage());
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let help = |a: &String| a == "--help" || a == "-h";
    if argv.is_empty() || argv[0] == "help" || argv.iter().any(help) {
        let _ = writeln!(std::io::stdout(), "{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let result = match args.command.as_str() {
        "run" => commands::run(&args),
        "trace" => commands::trace(&args),
        "attack" => commands::attack(&args),
        "oracle" => commands::oracle(&args),
        "explore" => commands::explore(&args),
        "chaos" => commands::chaos(&args),
        "experiments" => commands::experiments(&args),
        other => Err(args::ArgError(format!("unknown subcommand '{other}'"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}
