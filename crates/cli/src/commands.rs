//! Subcommand implementations.

use crate::args::{ArgError, Args};
use dr_bench::chaos::{ProtocolKind, ProtocolLimit};
use dr_bench::runners::{self, ByzMix};
use dr_core::{BitArray, FaultModel, ModelParams, ModelParamsBuilder, PeerId, ProtocolMessage};
use dr_protocols::lower_bound::{deterministic_attack, AttackOutcome};
use dr_protocols::{
    BalancedDownload, CommitteeDownload, CrashMultiDownload, NaiveDownload, SingleCrashDownload,
};
use dr_sim::explore::ExploreConfig;
use dr_sim::{RunReport, Simulation};
use std::io::Write;

/// Writes to standard output like `print!`, but drops what it cannot
/// write instead of panicking: once the reader has gone away (`dr trace |
/// head -1`) the rest of the output goes nowhere, and the command still
/// ends with its own exit code rather than 101.
fn emit(args: std::fmt::Arguments) {
    let _ = std::io::stdout().write_fmt(args);
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn print_report(report: &RunReport, n: usize) {
    outln!("nonfaulty peers    : {}", report.nonfaulty.len());
    outln!("crashed peers      : {}", report.crashed.len());
    outln!("byzantine peers    : {}", report.byzantine.len());
    outln!(
        "Q (max nonfaulty)  : {} (naive = {n})",
        report.max_nonfaulty_queries
    );
    outln!(
        "mean queries       : {:.1}",
        report.mean_nonfaulty_queries()
    );
    outln!("messages (packets) : {}", report.messages_sent);
    outln!("message bits       : {}", report.message_bits);
    outln!(
        "virtual time       : {:.2} units",
        report.virtual_time_units
    );
    outln!("events             : {}", report.events);
    outln!("verified           : every nonfaulty peer downloaded the exact input");
}

fn parse_mix(s: &str) -> Result<ByzMix, ArgError> {
    match s {
        "none" => Ok(ByzMix::None),
        "silent" => Ok(ByzMix::Silent),
        "mixed" => Ok(ByzMix::Mixed),
        "colluders" => Ok(ByzMix::Colluders),
        other => Err(ArgError(format!("unknown --byz-mix '{other}'"))),
    }
}

/// Builds an instance's [`ModelParams`] where its flags enter, so a bad
/// combination is an error naming `flags`, not a runner's panic.
fn check_params(params: ModelParamsBuilder, flags: &str) -> Result<(), ArgError> {
    params
        .build()
        .map(drop)
        .map_err(|e| ArgError(format!("{flags}: {e}")))
}

/// A crash plan may fell no more peers than the fault budget allows.
fn check_crashes(crashes: usize, b: usize) -> Result<(), ArgError> {
    if crashes <= b {
        return Ok(());
    }
    Err(ArgError(format!(
        "--crashes {crashes} exceeds the fault budget --b {b}"
    )))
}

/// A protocol constructor's preconditions ([`ProtocolKind::check_limits`]),
/// checked where the flags enter so a bad instance is an error naming
/// them, not the constructor's assertion. `t_flag` names the flag that
/// set the Byzantine budget `t`.
fn check_limits(protocol: ProtocolKind, k: usize, t: usize, t_flag: &str) -> Result<(), ArgError> {
    protocol.check_limits(k, t).map_err(|limit| {
        ArgError(match limit {
            ProtocolLimit::TooFewPeers { k } => {
                format!("--protocol alg1 needs --k >= 3, got --k {k}")
            }
            ProtocolLimit::ByzantineHalf { k, t } => format!(
                "--protocol committee needs 2·{t_flag} < --k (got {t_flag}={t}, --k={k}): with \
                 half or more of the peers Byzantine, Thm 3.1 forces Q = n on every \
                 deterministic protocol"
            ),
        })
    })
}

/// Runs `sim` and verifies its downloads: a run that stops short or a
/// wrong download is an error naming `protocol` for `main` to print,
/// never a panic.
fn finish(protocol: &str, sim: Simulation<impl ProtocolMessage>) -> Result<RunReport, ArgError> {
    runners::checked(sim).map_err(|e| ArgError(format!("--protocol {protocol}: {e}")))
}

/// `dr run` — execute one protocol under the standard adversary.
pub fn run(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&[
        "protocol", "n", "k", "b", "crashes", "byz-mix", "seed", "msg-bits",
    ])?;
    let n: usize = args.require_num("n")?;
    let k: usize = args.require_num("k")?;
    let b: usize = args.num("b", 0)?;
    let seed: u64 = args.num("seed", 1)?;
    let msg_bits: usize = args.num("msg-bits", 1024)?;
    let protocol = args.get_or("protocol", "alg2");
    let mix = parse_mix(args.get_or("byz-mix", "silent"))?;
    let crashes: usize = args.num("crashes", b)?;
    check_params(
        ModelParams::builder(n, k)
            .faults(FaultModel::Crash, b)
            .message_bits(msg_bits),
        &format!("--n {n} --k {k} --b {b} --msg-bits {msg_bits}"),
    )?;

    let report = match protocol {
        "naive" => finish(protocol, runners::naive_sim(n, k, seed)),
        "balanced" => {
            let params = runners::crash_params(n, k, 0, msg_bits);
            finish(
                protocol,
                dr_sim::SimBuilder::new(params)
                    .seed(seed)
                    .protocol(move |_| BalancedDownload::new(n, k))
                    .build(),
            )
        }
        "alg1" => {
            check_limits(ProtocolKind::CrashSingle, k, 0, "")?;
            let victim = (crashes > 0).then_some(PeerId(0));
            finish(protocol, runners::single_crash_sim(n, k, seed, victim))
        }
        "alg2" | "alg2-early" => {
            check_crashes(crashes, b)?;
            let early_release = protocol == "alg2-early";
            finish(
                protocol,
                runners::crash_multi_sim(n, k, b, crashes, msg_bits, early_release, seed),
            )
        }
        "committee" => {
            check_limits(ProtocolKind::Committee, k, b, "--b")?;
            finish(protocol, runners::committee_sim(n, k, b, b, seed))
        }
        "two-cycle" => finish(protocol, runners::two_cycle_sim(n, k, b, mix, seed)),
        "multi-cycle" => finish(protocol, runners::multi_cycle_sim(n, k, b, mix, seed)),
        other => return Err(ArgError(format!("unknown --protocol '{other}'"))),
    }?;
    outln!("protocol {protocol}: n={n} k={k} b={b} seed={seed}");
    print_report(&report, n);
    Ok(())
}

/// `dr trace` — run Algorithm 2 with a full execution trace.
pub fn trace(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&["n", "k", "b", "crashes", "seed"])?;
    let n: usize = args.num("n", 64)?;
    let k: usize = args.num("k", 4)?;
    let b: usize = args.num("b", 1)?;
    let seed: u64 = args.num("seed", 1)?;
    let crashes: usize = args.num("crashes", b)?;
    check_params(
        ModelParams::builder(n, k).faults(FaultModel::Crash, b),
        &format!("--n {n} --k {k} --b {b}"),
    )?;
    check_crashes(crashes, b)?;
    let params = runners::crash_params(n, k, b, 1024);
    let victims: Vec<PeerId> = (0..crashes).map(PeerId).collect();
    let sim = dr_sim::SimBuilder::new(params)
        .seed(seed)
        .protocol(move |_| CrashMultiDownload::new(n, k, b))
        .adversary(dr_sim::StandardAdversary::new(
            dr_sim::UniformDelay::new(),
            dr_sim::CrashPlan::before_event(victims, 1),
        ))
        .trace()
        .build();
    let report = runners::checked(sim).map_err(|e| ArgError(e.to_string()))?;
    out!(
        "{}",
        dr_sim::render_trace(report.trace.as_ref().expect("trace enabled"))
    );
    outln!(
        "
Q = {}, T = {:.2} units",
        report.max_nonfaulty_queries,
        report.virtual_time_units
    );
    Ok(())
}

/// `dr attack` — run the Theorem 3.1 attack against a protocol.
pub fn attack(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&["n", "k", "seed", "target", "protocol", "t"])?;
    let n: usize = args.require_num("n")?;
    let k: usize = args.require_num("k")?;
    let seed: u64 = args.num("seed", 1)?;
    let target: usize = args.num("target", 0)?;
    let protocol = args.get_or("protocol", "balanced");
    check_params(ModelParams::builder(n, k), &format!("--n {n} --k {k}"))?;
    if target >= k {
        return Err(ArgError(format!(
            "--target {target} is not a peer: --k {k} numbers them 0..{k}"
        )));
    }
    let target = PeerId(target);
    let outcome = match protocol {
        "naive" => deterministic_attack(n, k, target, |_| NaiveDownload::new(), seed),
        "balanced" => {
            deterministic_attack(n, k, target, move |_| BalancedDownload::new(n, k), seed)
        }
        "alg1" => {
            check_limits(ProtocolKind::CrashSingle, k, 0, "")?;
            deterministic_attack(n, k, target, move |_| SingleCrashDownload::new(n, k), seed)
        }
        "committee" => {
            let t: usize = args.num("t", k.saturating_sub(1) / 4)?;
            check_limits(ProtocolKind::Committee, k, t, "--t")?;
            deterministic_attack(n, k, target, move |_| CommitteeDownload::new(n, k, t), seed)
        }
        other => return Err(ArgError(format!("unknown --protocol '{other}'"))),
    };
    outln!("Theorem 3.1 attack on '{protocol}' (n={n}, k={k}, coalition=k-1):");
    match outcome {
        AttackOutcome::FullyQueried { queries } => {
            outln!("  SURVIVES — target queried all {queries} bits (paid Q = n)");
        }
        AttackOutcome::Violated {
            flipped_index,
            queries,
        } => {
            outln!(
                "  FOOLED — target queried only {queries}/{n} bits and output a wrong \
                 value at index {flipped_index}"
            );
        }
        AttackOutcome::NoTermination { flipped_index } => {
            outln!("  HUNG — target never terminated (flipped bit {flipped_index})");
        }
    }
    Ok(())
}

/// `dr oracle` — run both ODC pipelines and compare.
pub fn oracle(args: &Args) -> Result<(), ArgError> {
    use dr_oracle::{
        run_baseline, run_download_based, DownloadEngine, OracleConfig, BITS_PER_VALUE,
    };
    args.reject_unknown(&[
        "nodes",
        "byz-nodes",
        "sources",
        "corrupt",
        "cells",
        "truth",
        "spread",
        "seed",
        "engine",
    ])?;
    let config = OracleConfig {
        nodes: args.num("nodes", 64usize)?,
        byz_nodes: args.num("byz-nodes", 6usize)?,
        honest_sources: args.num("sources", 5usize)?,
        corrupt_sources: args.num("corrupt", 2usize)?,
        cells: args.num("cells", 64usize)?,
        truth_base: args.num("truth", 1_000_000u64)?,
        spread: args.num("spread", 200u64)?,
        seed: args.num("seed", 1u64)?,
    };
    let engine = match args.get_or("engine", "two-cycle") {
        "two-cycle" => DownloadEngine::TwoCycle,
        "crash" => DownloadEngine::CrashMulti,
        other => return Err(ArgError(format!("unknown --engine '{other}'"))),
    };
    // Each source's Download instance: `cells` values of
    // `BITS_PER_VALUE` bits over the oracle nodes.
    check_params(
        ModelParams::builder(config.cells * BITS_PER_VALUE, config.nodes)
            .faults(FaultModel::Byzantine, config.byz_nodes),
        &format!(
            "--cells {} --nodes {} --byz-nodes {}",
            config.cells, config.nodes, config.byz_nodes
        ),
    )?;
    if config.honest_sources == 0 {
        return Err(ArgError(
            "--sources 0: need at least one honest source".to_string(),
        ));
    }
    let baseline = run_baseline(&config, config.sources());
    let download = run_download_based(&config, engine);
    outln!(
        "oracle: {} nodes ({} byz), {} sources ({} corrupt), {} cells",
        config.nodes,
        config.byz_nodes,
        config.sources(),
        config.corrupt_sources,
        config.cells
    );
    outln!(
        "baseline : total {} bits, max/node {} bits, ODD ok = {}",
        baseline.total_read_bits,
        baseline.max_node_read_bits,
        baseline.odd_satisfied()
    );
    outln!(
        "download : total {} bits, max/node {} bits, ODD ok = {}",
        download.total_read_bits,
        download.max_node_read_bits,
        download.odd_satisfied()
    );
    outln!(
        "saving   : {:.1}x total, {:.1}x per node",
        baseline.total_read_bits as f64 / download.total_read_bits.max(1) as f64,
        baseline.max_node_read_bits as f64 / download.max_node_read_bits.max(1) as f64
    );
    outln!(
        "upstream : baseline {} bits, download {} bits (admission-plane amortized)",
        baseline.upstream_read_bits,
        download.upstream_read_bits
    );
    Ok(())
}

/// `dr explore` — exhaustively enumerate message schedules.
pub fn explore(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&["n", "k", "seed", "max-schedules", "crash", "protocol"])?;
    let n: usize = args.require_num("n")?;
    let k: usize = args.require_num("k")?;
    let seed: u64 = args.num("seed", 0)?;
    let max_schedules: u64 = args.num("max-schedules", 100_000)?;
    let crashed: Vec<PeerId> = match args.get("crash") {
        Some(v) => vec![PeerId(v.parse::<usize>().map_err(|_| {
            ArgError(format!("--crash expects a peer index, got '{v}'"))
        })?)],
        None => Vec::new(),
    };
    let flags = match args.get("crash") {
        Some(v) => format!("--n {n} --k {k} --crash {v}"),
        None => format!("--n {n} --k {k}"),
    };
    let mut rng_input = BitArray::zeros(n);
    for i in 0..n {
        if (i * 13 + seed as usize).is_multiple_of(3) {
            rng_input.set(i, true);
        }
    }
    let config = ExploreConfig {
        max_schedules,
        seed,
        ..ExploreConfig::new(k, rng_input).with_crashed(crashed)
    };
    let protocol = args.get_or("protocol", "alg2");
    let report = match protocol {
        "alg1" => {
            check_limits(ProtocolKind::CrashSingle, k, 0, "")?;
            dr_sim::explore::explore(&config, move |_| SingleCrashDownload::new(n, k))
        }
        "alg2" => {
            let b = config.crashed.len().max(1).min(k.saturating_sub(1));
            dr_sim::explore::explore(&config, move |_| CrashMultiDownload::new(n, k, b))
        }
        other => return Err(ArgError(format!("unknown --protocol '{other}'"))),
    }
    .map_err(|e| ArgError(format!("{flags}: {e}")))?;
    outln!(
        "explored {} schedules ({})",
        report.schedules,
        if report.exhaustive {
            "exhaustive"
        } else {
            "budget hit"
        }
    );
    match report.counterexample {
        None => outln!("verdict: PASS — every explored schedule satisfies Download"),
        Some(ce) => outln!(
            "verdict: FAIL — {} (choices {:?})",
            ce.violation,
            ce.choices
        ),
    }
    Ok(())
}

/// `dr chaos` — run a chaos campaign (seeds × adversaries × protocols
/// with invariant checks and failing-schedule shrinking), or replay a
/// `chaos_repro_*.json` reproducer with `--replay`. A `--replay` file that
/// is malformed JSON, is not shaped like a reproducer, or names an
/// impossible case or link-fault directive is an `error:` (exit 1).
pub fn chaos(args: &Args) -> Result<(), ArgError> {
    use dr_bench::chaos::{load_repro, replay_repro, run_campaign, Campaign};
    args.reject_unknown(&[
        "threads",
        "replay",
        "runs-per-case",
        "seed",
        "partition",
        "churn",
        "drop-rate",
        "shrink",
        "out",
    ])?;
    if let Some(threads) = args.get("threads") {
        let n: usize = args.require_num("threads")?;
        if n == 0 {
            return Err(ArgError(format!(
                "--threads must be positive, got '{threads}'"
            )));
        }
        dr_bench::par::set_threads(n);
    }
    if let Some(path) = args.get("replay") {
        let repro = load_repro(std::path::Path::new(path)).map_err(ArgError)?;
        outln!(
            "replaying {} seed={} — recorded violation: {}",
            repro.case,
            repro.seed,
            repro.violation
        );
        let outcome = replay_repro(&repro);
        return match outcome.violation {
            Some(v) if outcome.fingerprint == repro.fingerprint => {
                outln!("reproduced: {v} (fingerprint matches)");
                Ok(())
            }
            Some(v) => Err(ArgError(format!(
                "violation reproduced ({v}) but the report fingerprint differs"
            ))),
            None => Err(ArgError("did NOT reproduce — run completed cleanly".into())),
        };
    }
    let mut campaign = Campaign::new(
        args.num("runs-per-case", 18u64)?,
        args.num("seed", 0xc0ffee)?,
    );
    // Link-fault plane selectors: any of --partition / --drop-rate /
    // --churn restricts the campaign to the chosen link-fault adversary
    // columns (the fault-plane smoke path); --drop-rate additionally
    // tunes the per-link drop rate of the LossyLinks cases.
    use dr_bench::chaos::AdversaryKind;
    let want_partition = args.num("partition", 0u8)? != 0;
    let want_churn = args.num("churn", 0u8)? != 0;
    let drop_rate: Option<u16> = match args.get("drop-rate") {
        Some(_) => Some(args.require_num("drop-rate")?),
        None => None,
    };
    if let Some(rate) = drop_rate {
        if rate >= 1000 {
            return Err(ArgError(format!(
                "--drop-rate is a permille drop rate and must be below 1000, got {rate}"
            )));
        }
    }
    if want_partition || want_churn || drop_rate.is_some() {
        campaign.cases.retain(|c| match c.adversary {
            AdversaryKind::PartitionHealer => want_partition,
            AdversaryKind::LossyLinks => drop_rate.is_some(),
            AdversaryKind::ChurnMixer => want_churn,
            _ => false,
        });
        if let Some(rate) = drop_rate {
            for c in &mut campaign.cases {
                if matches!(c.adversary, AdversaryKind::LossyLinks) {
                    c.drop_permille = rate;
                }
            }
        }
    }
    campaign.shrink = args.num("shrink", 1u8)? != 0;
    campaign.out_dir = Some(args.get_or("out", "chaos_repros").into());
    outln!(
        "chaos campaign: {} cases x {} runs (base seed {:#x})",
        campaign.cases.len(),
        campaign.runs_per_case,
        campaign.base_seed
    );
    let report = run_campaign(&campaign);
    outln!(
        "{} runs: {} violation(s)",
        report.total_runs,
        report.violations.len()
    );
    for v in &report.violations {
        outln!(
            "  VIOLATION {} seed={}: {} ({} fault directives, {} holds, {} link directives in shrunk trace)",
            v.repro.case,
            v.repro.seed,
            v.repro.violation,
            v.repro.trace.num_fault_directives(),
            v.repro.trace.num_hold_directives(),
            v.repro.trace.num_link_directives(),
        );
        if let Some(path) = &v.path {
            outln!("    repro written to {}", path.display());
        }
    }
    if report.violations.is_empty() {
        outln!("all invariants held");
        Ok(())
    } else {
        Err(ArgError(format!(
            "{} invariant violation(s) found",
            report.violations.len()
        )))
    }
}

/// `dr lint` — run the determinism static-analysis pass over `crates/`
/// without remembering the `cargo run -p dr-lint` incantation.
pub fn lint(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&["root", "format"])?;
    let root = match args.get("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| ArgError(format!("cannot read current dir: {e}")))?;
            dr_lint::find_workspace_root(&cwd).ok_or_else(|| {
                ArgError(format!(
                    "no workspace root (Cargo.toml + crates/) above {}; pass --root",
                    cwd.display()
                ))
            })?
        }
    };
    let report =
        dr_lint::lint_workspace(&root).map_err(|e| ArgError(format!("lint walk failed: {e}")))?;
    match args.get_or("format", "text") {
        "json" => out!("{}", dr_lint::render_json(&report)),
        "text" => out!("{}", dr_lint::render_text(&report)),
        other => return Err(ArgError(format!("unknown --format '{other}' (text|json)"))),
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(ArgError(format!(
            "{} determinism diagnostic(s) — see report above",
            report.diagnostics.len()
        )))
    }
}

/// `dr experiments` — regenerate the paper's tables. `--json <dir>`
/// additionally writes one `BENCH_<experiment>.json` metrics file per
/// experiment; `--threads`/`--trials` control the parallel trial runner.
pub fn experiments(args: &Args) -> Result<(), ArgError> {
    use dr_bench::experiments as exp;
    use dr_bench::metrics::MetricsSink;
    args.reject_unknown(&["threads", "trials", "only", "json"])?;
    if let Some(threads) = args.get("threads") {
        let n: usize = args.require_num("threads")?;
        if n == 0 {
            return Err(ArgError(format!(
                "--threads must be positive, got '{threads}'"
            )));
        }
        dr_bench::par::set_threads(n);
    }
    if let Some(trials) = args.get("trials") {
        let n: u64 = args.require_num("trials")?;
        if n == 0 {
            return Err(ArgError(format!(
                "--trials must be positive, got '{trials}'"
            )));
        }
        dr_bench::metrics::set_trials(n);
    }
    let mut sink = MetricsSink::new();
    let selected = match args.get("only") {
        None => &exp::EXPERIMENTS[..],
        Some(name) => match exp::EXPERIMENTS.iter().position(|(n, _)| *n == name) {
            Some(i) => &exp::EXPERIMENTS[i..=i],
            None => {
                let names: Vec<&str> = exp::EXPERIMENTS.iter().map(|(n, _)| *n).collect();
                return Err(ArgError(format!(
                    "--only {name}: unknown experiment; valid names are {}",
                    names.join(", ")
                )));
            }
        },
    };
    let tables: Vec<_> = selected
        .iter()
        .flat_map(|(_, run)| run(&mut sink))
        .collect();
    for table in tables {
        out!("{table}");
    }
    if let Some(dir) = args.get("json") {
        let paths = sink
            .write_json(std::path::Path::new(dir))
            .map_err(|e| ArgError(format!("failed to write metrics to {dir}: {e}")))?;
        for p in paths {
            let _ = writeln!(std::io::stderr(), "wrote {}", p.display());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_past_its_event_cap_is_an_error_naming_the_protocol() {
        // Naive at k = 4 takes 4 start events: a cap of 3 cannot fit it.
        let sim = dr_sim::SimBuilder::new(runners::crash_params(64, 4, 0, 1024))
            .max_events(3)
            .protocol(|_| NaiveDownload::new())
            .build();
        let err = finish("naive", sim).unwrap_err();
        assert_eq!(
            err.0,
            "--protocol naive: run failed: event limit 3 exceeded (livelock?)"
        );
        assert!(finish("naive", runners::naive_sim(64, 4, 1)).is_ok());
    }
}
