//! Committed reproducer files: a fixture written by an earlier codec still
//! loads, hashes and replays the same, and every file of the malformed
//! corpus is an `Err` from `load_repro`, never a panic or an abort.

use dr_bench::chaos::{load_repro, replay_repro};
use dr_core::json::ToJson;
use std::path::{Path, PathBuf};

const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/repro_corpus");
const FIXTURE: &str = "chaos_repro_c6e8afd3b45ad0ef.json";

#[test]
fn committed_fixture_loads_hashes_and_replays_as_recorded() {
    let path = Path::new(CORPUS).join(FIXTURE);
    let repro = load_repro(&path).expect("fixture loads");
    assert_eq!(repro.filename(), FIXTURE, "content hash drifted");
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(repro.to_json().pretty(), text, "encoding drifted");
    let outcome = replay_repro(&repro);
    assert_eq!(outcome.violation.as_deref(), Some(repro.violation.as_str()));
    assert_eq!(outcome.fingerprint, repro.fingerprint);
    assert_eq!(outcome.trace, repro.trace);
}

#[test]
fn malformed_corpus_is_rejected_naming_the_fault() {
    let expected = [
        ("churn_peer_out_of_range", "trace.churn[0].peer: p4"),
        ("churn_rejoin_not_after_leave", "churn[0] never away"),
        ("deep_nesting", "nesting deeper than 64 at byte 64"),
        ("drop_permille_overflow", "expected u16, found 70000"),
        ("partition_heal_not_after_from", "never active"),
        ("partition_peer_out_of_range", "group: peer p9"),
        ("trailing_garbage", "trailing input at byte 500"),
        ("truncated", "unexpected end of input"),
        ("unknown_protocol", "unknown ProtocolKind 'Paxos'"),
        (
            "wrong_field_type",
            "field 'n': expected usize, found string",
        ),
        ("zero_peers", "case: invalid model parameters"),
    ];
    let mut files: Vec<PathBuf> = std::fs::read_dir(Path::new(CORPUS).join("malformed"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), expected.len(), "corpus and table differ");
    for (file, (name, fault)) in files.iter().zip(expected) {
        assert!(file.ends_with(format!("{name}.json")), "{file:?}");
        match std::panic::catch_unwind(|| load_repro(file)) {
            Ok(Err(e)) => assert!(e.contains(fault), "{name}: {e}"),
            Ok(Ok(_)) => panic!("{name} loaded"),
            Err(_) => panic!("{name} panicked"),
        }
    }
}
