//! The simulator's shared range reads.
//!
//! Every peer that queries a given range gets the same immutable array,
//! read from the source once (the static-data assumption). Sharing must
//! change nothing a run reports: each reader is charged the whole range
//! and, under `track_query_indices`, logs it; and copy-on-write keeps one
//! peer's mutation of its answer away from every other answer.

use dr_core::{BitArray, Context, ModelParams, PeerId, Protocol, ProtocolMessage};
use dr_sim::{RunReport, SimBuilder};
use std::ops::Range;
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone)]
struct Silence;

impl ProtocolMessage for Silence {
    fn bit_len(&self) -> usize {
        0
    }
}

/// What the peers read, in step order: each peer's answer to its first
/// query (after any mutation) and to its second.
type Reads = Vec<(PeerId, BitArray, BitArray)>;
type Seen = Arc<Mutex<Reads>>;

/// Queries `range` twice at start and terminates. A `flipper` flips bit 0
/// of its first answer before its second query.
struct Reader {
    range: Range<usize>,
    flipper: bool,
    seen: Seen,
    out: Option<BitArray>,
}

impl Protocol for Reader {
    type Msg = Silence;

    fn on_start(&mut self, ctx: &mut dyn Context<Silence>) {
        let mut first = ctx.query_range(self.range.clone());
        if self.flipper {
            first.flip(0);
        }
        let again = ctx.query_range(self.range.clone());
        let mut seen = self.seen.lock().expect("no reader panics holding the log");
        seen.push((ctx.me(), first, again));
        self.out = Some(BitArray::zeros(0));
    }

    fn on_message(&mut self, _from: PeerId, _msg: Silence, _ctx: &mut dyn Context<Silence>) {}

    fn output(&self) -> Option<&BitArray> {
        self.out.as_ref()
    }
}

/// Peers 0–3 read `10..100`, peer 4 reads `10..101`; peer `flipper` flips
/// its first answer.
fn run(flipper: usize, seed: u64) -> (BitArray, Reads, RunReport) {
    let (n, k) = (200, 5);
    let seen: Seen = Arc::default();
    let log = Arc::clone(&seen);
    let sim = SimBuilder::new(ModelParams::builder(n, k).build().expect("valid params"))
        .seed(seed)
        .track_query_indices()
        .protocol(move |p| Reader {
            range: if p.index() == 4 { 10..101 } else { 10..100 },
            flipper: p.index() == flipper,
            seen: Arc::clone(&log),
            out: None,
        })
        .build();
    let input = sim.input().clone();
    let report = sim.run().expect("every reader terminates at start");
    let seen = std::mem::take(&mut *seen.lock().expect("the run is over"));
    assert_eq!(seen.len(), k);
    (input, seen, report)
}

#[test]
fn peers_that_query_one_range_share_one_buffer() {
    for seed in 0..4 {
        let (input, seen, _) = run(usize::MAX, seed);
        let truth = input.slice(10..100);
        let answers: Vec<&BitArray> = seen
            .iter()
            .filter(|(p, ..)| p.index() < 4)
            .flat_map(|(_, first, again)| [first, again])
            .collect();
        assert_eq!(answers.len(), 8);
        for answer in &answers {
            assert_eq!(**answer, truth);
            assert!(
                answer.shares_buffer_with(answers[0]),
                "seed {seed}: a second buffer"
            );
        }
        // Another range is another read, even where it overlaps.
        let (_, wider, _) = seen.iter().find(|(p, ..)| p.index() == 4).unwrap();
        assert_eq!(*wider, input.slice(10..101));
        assert!(!wider.shares_buffer_with(answers[0]));
    }
}

#[test]
fn every_reader_is_charged_and_logs_the_whole_range() {
    let (_, _, report) = run(usize::MAX, 0);
    assert_eq!(report.query_counts, [180, 180, 180, 180, 182]);
    let logs = report.query_indices.expect("tracking is on");
    for (p, log) in logs.iter().enumerate() {
        let end = if p == 4 { 101 } else { 100 };
        let twice: Vec<usize> = (10..end).chain(10..end).collect();
        assert_eq!(*log, twice, "peer {p}");
    }
    assert_eq!(report.max_nonfaulty_queries, 182);
}

#[test]
fn a_mutated_answer_leaves_every_other_answer_intact() {
    for (flipper, seed) in [(0, 0), (1, 1), (2, 2), (3, 3)] {
        let (input, seen, _) = run(flipper, seed);
        let truth = input.slice(10..100);
        let mut flipped = truth.clone();
        flipped.flip(0);
        for (p, first, again) in seen.iter().filter(|(p, ..)| p.index() < 4) {
            if p.index() == flipper {
                assert_eq!(*first, flipped);
                assert!(!first.shares_buffer_with(again));
            } else {
                assert_eq!(*first, truth, "seed {seed}: peer {p:?}'s answer changed");
            }
            // The read after the flip, by the flipper or by any peer that
            // starts later, is the source's.
            assert_eq!(*again, truth, "seed {seed}: peer {p:?} read the flip");
        }
    }
}
