//! Committed reproducer files: a fixture written by an earlier codec still
//! loads, re-encodes to today's format and replays the same, every file of
//! the malformed corpus is an `Err` from `load_repro`, never a panic or an
//! abort, and a file over the size cap is refused before it is read.

use dr_bench::chaos::{load_repro, replay_repro, MAX_REPRO_BYTES};
use dr_core::json::ToJson;
use std::path::{Path, PathBuf};

const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/repro_corpus");
/// A reproducer written before links became reliable: its schedule still
/// carries the retransmission policy's `backoff_base`, `max_retries` and
/// `fail_fast` keys.
const OLD_FIXTURE: &str = "chaos_repro_c6e8afd3b45ad0ef.json";
/// The same reproducer as `shrink_failing` writes it today.
const FIXTURE: &str = "chaos_repro_16ce62ca2985c47c.json";

#[test]
fn committed_fixture_loads_hashes_and_replays_as_recorded() {
    let repro = load_repro(&Path::new(CORPUS).join(OLD_FIXTURE)).expect("old fixture loads");
    assert_eq!(repro.filename(), FIXTURE, "content hash drifted");
    let text = std::fs::read_to_string(Path::new(CORPUS).join(FIXTURE)).unwrap();
    assert_eq!(repro.to_json().pretty(), text, "encoding drifted");
    let current = load_repro(&Path::new(CORPUS).join(FIXTURE)).expect("fixture loads");
    assert_eq!(current, repro);
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
        (
            "committee_byzantine_half",
            "case: the committee protocol needs 2·t < k, got t=2, k=4",
        ),
        (
            "crash_single_two_peers",
            "case: Algorithm 1 needs k >= 3 peers, got k=2",
        ),
        ("deep_nesting", "nesting deeper than 64 at byte 64"),
        ("drop_permille_overflow", "expected u16, found 70000"),
        (
            "huge_n",
            "case.n: 1099511627776 exceeds the replay cap MAX_REPRO_N = 65536",
        ),
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

#[test]
fn a_file_over_the_size_cap_is_refused_unread() {
    let dir = std::env::temp_dir().join(format!("dr_repro_cap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge.json");
    // Sparse: one byte over the cap costs no disk.
    let file = std::fs::File::create(&path).unwrap();
    file.set_len(MAX_REPRO_BYTES + 1).unwrap();
    let loaded = load_repro(&path);
    std::fs::remove_dir_all(&dir).ok();
    let e = loaded.expect_err("an over-long file loaded");
    let cap = format!(
        "{} bytes exceed the replay cap MAX_REPRO_BYTES",
        MAX_REPRO_BYTES + 1
    );
    assert!(e.contains(&cap), "{e}");
}
