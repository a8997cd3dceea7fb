//! Self-tests: every rule must fire on its fixture and stay silent on
//! the clean ones, and the real workspace must lint clean.

use dr_lint::{check_source, Diagnostic, Tier};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

fn rule_count(diags: &[Diagnostic], rule: &str) -> usize {
    diags.iter().filter(|d| d.rule == rule).count()
}

#[test]
fn hashmap_in_deterministic_tier_fires() {
    let src = fixture("unordered_in_protocols.rs");
    let diags = check_source(
        "crates/protocols/src/fixture.rs",
        &src,
        Tier::Deterministic,
        false,
    );
    assert_eq!(rule_count(&diags, "unordered-collections"), 3, "{diags:?}");
    assert_eq!(diags.len(), 3);
    // Spans point at the offending identifiers.
    assert!(diags.iter().all(|d| d.line >= 3 && d.col > 1));
    assert!(diags.iter().any(|d| d.suggestion.contains("DetMap")));
    assert!(diags.iter().any(|d| d.suggestion.contains("DetSet")));
}

#[test]
fn wall_clock_in_sim_fires() {
    let src = fixture("wall_clock_in_sim.rs");
    let diags = check_source(
        "crates/sim/src/fixture.rs",
        &src,
        Tier::Deterministic,
        false,
    );
    assert_eq!(rule_count(&diags, "wall-clock"), 3, "{diags:?}");
    assert_eq!(diags.len(), 3);
}

#[test]
fn entropy_rng_fires() {
    let src = fixture("entropy_rng.rs");
    let diags = check_source(
        "crates/protocols/src/fixture.rs",
        &src,
        Tier::Deterministic,
        false,
    );
    // use-site thread_rng + call-site thread_rng + rand::random + from_entropy.
    assert_eq!(rule_count(&diags, "entropy-rng"), 4, "{diags:?}");
    assert_eq!(diags.len(), 4);
}

#[test]
fn payload_clone_fires_inside_send_calls_only() {
    let src = fixture("payload_clone.rs");
    let diags = check_source(
        "crates/protocols/src/fixture.rs",
        &src,
        Tier::Deterministic,
        false,
    );
    // broadcast struct-literal clone + send struct-literal clone +
    // nested-call clone; the move-the-binding idiom, whole-message
    // clones, non-payload clones, and the free `fn send` stay silent.
    assert_eq!(rule_count(&diags, "payload-clone"), 3, "{diags:?}");
    assert_eq!(diags.len(), 3);
    assert!(
        diags.iter().all(|d| d.suggestion.contains("shared-buffer")),
        "{diags:?}"
    );
    // The rule is about replay-tier protocol code, not harness drivers.
    let diags = check_source("crates/bench/src/fixture.rs", &src, Tier::Tooling, false);
    assert_eq!(rule_count(&diags, "payload-clone"), 0, "{diags:?}");
}

#[test]
fn missing_forbid_unsafe_fires_only_on_lib_roots() {
    let src = fixture("lib_missing_forbid.rs");
    let diags = check_source("crates/core/src/lib.rs", &src, Tier::Deterministic, true);
    assert_eq!(rule_count(&diags, "missing-forbid-unsafe"), 1, "{diags:?}");
    assert_eq!((diags[0].line, diags[0].col), (1, 1));
    // The same file as a non-root module is fine.
    let diags = check_source("crates/core/src/util.rs", &src, Tier::Deterministic, false);
    assert!(diags.is_empty(), "{diags:?}");
    // And a tooling-tier lib.rs is not required to carry the attribute.
    let diags = check_source("crates/bench/src/lib.rs", &src, Tier::Tooling, true);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn valid_allow_suppresses_exactly_one_diagnostic() {
    let src = fixture("allowed_one.rs");
    let diags = check_source(
        "crates/sim/src/fixture.rs",
        &src,
        Tier::Deterministic,
        false,
    );
    // Two HashMaps in the file; the annotated one is suppressed, the
    // other still fires, and the well-formed allow itself is silent.
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "unordered-collections");
    assert!(src.matches("HashMap").count() >= 2);
}

#[test]
fn malformed_allows_are_diagnostics_and_do_not_suppress() {
    let src = fixture("bad_allow.rs");
    let diags = check_source(
        "crates/oracle/src/fixture.rs",
        &src,
        Tier::Deterministic,
        false,
    );
    assert_eq!(rule_count(&diags, "bad-allow"), 2, "{diags:?}");
    // The HashMap under the justification-less allow is NOT suppressed.
    assert_eq!(rule_count(&diags, "unordered-collections"), 1, "{diags:?}");
}

#[test]
fn raw_thread_spawn_fires_in_both_tiers_and_an_anchored_allow_is_the_only_escape() {
    let src = fixture("raw_thread_spawn.rs");
    // spawn + scope + Builder fire; the allowed watchdog Builder is
    // suppressed; Command::spawn and thread::sleep stay silent.
    let diags = check_source("crates/bench/src/fixture.rs", &src, Tier::Tooling, false);
    assert_eq!(rule_count(&diags, "raw-thread-spawn"), 3, "{diags:?}");
    assert_eq!(diags.len(), 3);
    assert!(
        diags
            .iter()
            .all(|d| d.suggestion.contains("dr_bench::par::run_indexed")),
        "{diags:?}"
    );
    // Deterministic-tier code gets the same treatment.
    let diags = check_source(
        "crates/sim/src/fixture.rs",
        &src,
        Tier::Deterministic,
        false,
    );
    assert_eq!(rule_count(&diags, "raw-thread-spawn"), 3, "{diags:?}");
    // No path is exempt, not even the trial fan-out's own file: there,
    // too, only the anchored allow silences a thread.
    let diags = check_source("crates/bench/src/par.rs", &src, Tier::Tooling, false);
    assert_eq!(rule_count(&diags, "raw-thread-spawn"), 3, "{diags:?}");
}

#[test]
fn loom_thread_spawn_is_model_threads_not_os_threads() {
    // `loom::thread::spawn` creates threads *inside* the model checker;
    // only unqualified/std spawns create OS threads.
    let model = "fn m() { let h = loom::thread::spawn(|| 1); h.join().unwrap(); }";
    let diags = check_source("crates/bench/tests/fixture.rs", model, Tier::Tooling, false);
    assert_eq!(rule_count(&diags, "raw-thread-spawn"), 0, "{diags:?}");
    let os = "fn m() { std::thread::spawn(|| 1); }";
    let diags = check_source("crates/bench/tests/fixture.rs", os, Tier::Tooling, false);
    assert_eq!(rule_count(&diags, "raw-thread-spawn"), 1, "{diags:?}");
}

#[test]
fn atomic_ordering_fires_at_call_sites_not_imports() {
    let src = fixture("atomic_ordering.rs");
    let diags = check_source(
        "crates/core/src/fixture.rs",
        &src,
        Tier::Deterministic,
        false,
    );
    // Relaxed store + Acquire load + SeqCst store; the two `use` lines,
    // the allowed Release, and the bare-ident gap stay silent.
    assert_eq!(rule_count(&diags, "atomic-ordering"), 3, "{diags:?}");
    assert_eq!(diags.len(), 3);
    assert!(
        diags.iter().any(|d| d.message.contains("lazy default")),
        "SeqCst should get the lazy-default message: {diags:?}"
    );
    // The rule polices both tiers.
    let diags = check_source("crates/bench/src/fixture.rs", &src, Tier::Tooling, false);
    assert_eq!(rule_count(&diags, "atomic-ordering"), 3, "{diags:?}");
    // The facade is exempt by path; model-checking files by their
    // `loom::` imports (loom collapses every ordering to SeqCst anyway).
    let diags = check_source("crates/core/src/sync.rs", &src, Tier::Deterministic, false);
    assert_eq!(rule_count(&diags, "atomic-ordering"), 0, "{diags:?}");
    let model_src = format!("use loom::sync::atomic::Ordering;\n{src}");
    let diags = check_source(
        "crates/bench/tests/fixture.rs",
        &model_src,
        Tier::Tooling,
        false,
    );
    assert_eq!(rule_count(&diags, "atomic-ordering"), 0, "{diags:?}");
}

#[test]
fn lock_discipline_flags_nested_guards_only() {
    let src = fixture("lock_discipline.rs");
    let diags = check_source(
        "crates/sim/src/fixture.rs",
        &src,
        Tier::Deterministic,
        false,
    );
    // Nested mutex guards + RwLock write under a live mutex guard; the
    // drop-released, block-scoped, temporary, and allowed variants are
    // silent.
    assert_eq!(rule_count(&diags, "lock-discipline"), 2, "{diags:?}");
    assert_eq!(diags.len(), 2);
    assert!(
        diags.iter().all(|d| d.message.contains("`ga`")),
        "{diags:?}"
    );
    // Without an RwLock in the file, `.write()` is just io.
    let io = "fn f(w: &mut impl std::io::Write, m: &std::sync::Mutex<u32>) {\n\
              \x20   let g = m.lock().unwrap();\n\
              \x20   w.write(&[*g as u8]).unwrap();\n}\n";
    let diags = check_source("crates/cli/src/fixture.rs", io, Tier::Tooling, false);
    assert_eq!(rule_count(&diags, "lock-discipline"), 0, "{diags:?}");
}

#[test]
fn sync_primitive_construction_needs_the_facade() {
    let src = fixture("sync_outside_facade.rs");
    let diags = check_source("crates/runtime/src/fixture.rs", &src, Tier::Tooling, false);
    // Mutex::new + Condvar::new + AtomicU64::new on the construction
    // line; the justified one and the mere-use function are silent.
    assert_eq!(
        rule_count(&diags, "sync-primitive-outside-facade"),
        3,
        "{diags:?}"
    );
    assert_eq!(diags.len(), 3);
    // Exempt by path: the facade itself, and nothing else. Elsewhere,
    // the trial fan-out included, an anchored allow is the only escape.
    let diags = check_source("crates/bench/src/par.rs", &src, Tier::Tooling, false);
    assert_eq!(rule_count(&diags, "sync-primitive-outside-facade"), 3);
    let diags = check_source("crates/core/src/sync.rs", &src, Tier::Deterministic, false);
    assert_eq!(rule_count(&diags, "sync-primitive-outside-facade"), 0);
    // Exempt by import: construction routed through the facade.
    let routed = format!("use dr_core::sync::Mutex;\n{src}");
    let diags = check_source(
        "crates/sim/src/fixture.rs",
        &routed,
        Tier::Deterministic,
        false,
    );
    assert_eq!(
        rule_count(&diags, "sync-primitive-outside-facade"),
        0,
        "{diags:?}"
    );
}

#[test]
fn clean_deterministic_file_is_clean() {
    let src = fixture("clean_deterministic.rs");
    let diags = check_source("crates/core/src/lib.rs", &src, Tier::Deterministic, true);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn tooling_tier_flags_unordered_only_near_replay_artifacts() {
    let feeds = fixture("tooling_feeds_replay.rs");
    let diags = check_source("crates/bench/src/fixture.rs", &feeds, Tier::Tooling, false);
    assert!(
        rule_count(&diags, "unordered-collections") >= 1,
        "{diags:?}"
    );
    // Wall clocks are allowed in the tooling tier even here.
    assert_eq!(rule_count(&diags, "wall-clock"), 0, "{diags:?}");

    let plain = fixture("tooling_plain.rs");
    let diags = check_source("crates/cli/src/fixture.rs", &plain, Tier::Tooling, false);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn the_workspace_itself_lints_clean() {
    // The gate the CI job enforces, as a plain test: the real tree under
    // crates/ has zero diagnostics.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = dr_lint::lint_workspace(&root).expect("walk workspace");
    assert!(
        report.files_scanned > 40,
        "only {} files",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "workspace has determinism diagnostics:\n{}",
        dr_lint::render_text(&report)
    );
}

#[test]
fn json_report_has_spans_and_is_parseable_shape() {
    let src = fixture("unordered_in_protocols.rs");
    let diags = check_source(
        "crates/protocols/src/x.rs",
        &src,
        Tier::Deterministic,
        false,
    );
    let report = dr_lint::Report {
        files_scanned: 1,
        diagnostics: diags,
    };
    let json = dr_lint::render_json(&report);
    assert!(json.contains("\"files_scanned\": 1"));
    assert!(json.contains("\"rule\": \"unordered-collections\""));
    assert!(json.contains("\"file\": \"crates/protocols/src/x.rs\""));
    assert!(json.contains("\"line\": "));
    // Balanced braces/brackets as a cheap well-formedness check.
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}
