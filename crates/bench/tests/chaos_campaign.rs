//! Acceptance tests for the chaos campaign (ISSUE 3):
//!
//! * a ≥500-run sweep over every real protocol × adversary configuration
//!   holds all invariants;
//! * the intentionally broken [`FragileDownload`] fixture produces a
//!   violation that shrinks to a minimal schedule and replays
//!   bit-identically (same violation, same report fingerprint);
//! * shrinking the fixture's seed-28 failure writes exactly the committed
//!   `repro_corpus/chaos_repro_c6e8afd3b45ad0ef.json`.

use dr_bench::chaos::{
    load_repro, replay_repro, run_campaign, run_case, shrink_failing, write_repro, AdvSource,
    AdversaryKind, Campaign, CaseConfig, ProtocolKind,
};
use dr_core::json::ToJson;

#[test]
fn campaign_over_all_protocols_holds_invariants() {
    // 56 cases (crash single and two multi sizes, committee, two-cycle and
    // multi-cycle in naive and sampled sizes, × 7 adversary kinds — the
    // crash/hold/chaos quartet plus the link-fault trio) × 18 seeds
    // = 1008 runs.
    let mut campaign = Campaign::new(18, 0xc0ffee);
    campaign.out_dir = None;
    let report = run_campaign(&campaign);
    assert!(
        report.total_runs >= 900,
        "campaign too small: {} runs",
        report.total_runs
    );
    let summaries: Vec<String> = report
        .violations
        .iter()
        .map(|v| {
            format!(
                "{} seed={}: {}",
                v.repro.case, v.repro.seed, v.repro.violation
            )
        })
        .collect();
    assert!(
        summaries.is_empty(),
        "chaos campaign found violations:\n{}",
        summaries.join("\n")
    );
}

fn fragile_case() -> CaseConfig {
    CaseConfig {
        protocol: ProtocolKind::Fragile,
        adversary: AdversaryKind::ChaosAggressive,
        n: 64,
        k: 4,
        b: 0,
        drop_permille: 0,
    }
}

#[test]
fn fragile_fixture_fails_shrinks_and_replays_bit_identically() {
    let case = fragile_case();
    // The fixture fails whenever the aggressive adversary holds a chunk
    // past the peer's patience; scan a handful of seeds for a failure.
    let seed = (0..30)
        .find(|&s| run_case(&case, s, AdvSource::Fresh).violation.is_some())
        .expect("fragile fixture never failed in 30 seeds");
    let original = run_case(&case, seed, AdvSource::Fresh);

    let repro = shrink_failing(&case, seed).expect("failing run must shrink to a repro");
    assert!(
        repro.violation.contains("download"),
        "fragile bug is a wrong output, got: {}",
        repro.violation
    );
    // Shrinking never adds directives.
    assert!(
        repro.trace.num_fault_directives() <= original.trace.num_fault_directives(),
        "shrinking added fault directives"
    );
    assert!(
        repro.trace.num_hold_directives() <= original.trace.num_hold_directives(),
        "shrinking added hold directives"
    );

    // The reproducer roundtrips through its JSON file.
    let dir = std::env::temp_dir().join(format!("dr_chaos_test_{}", std::process::id()));
    let path = write_repro(&dir, &repro).expect("write repro");
    let loaded = load_repro(&path).expect("load repro");
    assert_eq!(loaded, repro);
    std::fs::remove_dir_all(&dir).ok();

    // Replay is bit-identical: same violation, same report fingerprint,
    // and the re-recorded schedule is a fixed point of the stored one.
    for round in 0..2 {
        let outcome = replay_repro(&loaded);
        assert_eq!(
            outcome.violation.as_deref(),
            Some(repro.violation.as_str()),
            "replay round {round} produced a different violation"
        );
        assert_eq!(
            outcome.fingerprint, repro.fingerprint,
            "replay round {round} produced a different fingerprint"
        );
        assert_eq!(
            outcome.trace, repro.trace,
            "replay round {round} re-recorded a different schedule"
        );
    }
}

#[test]
fn shrunk_schedule_is_one_minimal() {
    let case = fragile_case();
    let seed = (0..30)
        .find(|&s| run_case(&case, s, AdvSource::Fresh).violation.is_some())
        .expect("fragile fixture never failed in 30 seeds");
    let repro = shrink_failing(&case, seed).expect("failing run must shrink");
    // 1-minimality over the directive classes the shrinker edits: undoing
    // any single remaining hold or partial release makes the run pass.
    let mut singles = Vec::new();
    for (i, s) in repro.trace.sends.iter().enumerate() {
        if s.is_none() {
            let mut t = repro.trace.clone();
            t.sends[i] = Some(512);
            singles.push(t);
        }
    }
    for (i, r) in repro.trace.releases.iter().enumerate() {
        if r.is_some() {
            let mut t = repro.trace.clone();
            t.releases[i] = None;
            singles.push(t);
        }
    }
    assert!(
        !singles.is_empty(),
        "fragile failure needs at least one hold directive"
    );
    for (j, t) in singles.iter().enumerate() {
        let outcome = run_case(&case, seed, AdvSource::Replay(t));
        assert_eq!(
            outcome.violation, None,
            "edit {j} still fails — schedule was not 1-minimal"
        );
    }
}

/// The shrinker's output is pinned byte for byte: the committed fixture
/// is what `shrink_failing` makes of the fragile case at seed 28, so any
/// change to the order or the effect of its edit passes shows here.
#[test]
fn fragile_seed_28_shrinks_to_the_committed_fixture() {
    const FIXTURE: &str = "chaos_repro_c6e8afd3b45ad0ef.json";
    let repro = shrink_failing(&fragile_case(), 28).expect("seed 28 fails");
    assert_eq!(repro.filename(), FIXTURE);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/repro_corpus/");
    let committed = std::fs::read_to_string(format!("{path}{FIXTURE}")).unwrap();
    assert_eq!(repro.to_json().pretty(), committed);
}
