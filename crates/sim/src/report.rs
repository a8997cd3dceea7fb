//! Outcome of a simulated execution.

use crate::time::{ticks_to_units, Ticks};
use crate::trace::TraceEntry;
use dr_core::{BitArray, PeerId, PeerSet, Source};
use std::error::Error;
use std::fmt;

/// Why a run ended without all nonfaulty peers terminating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The event queue drained (nothing in flight, nothing held) while some
    /// nonfaulty peer had not terminated — a protocol deadlock. The paper's
    /// protocols must never reach this state (Claims 2 and 3).
    Deadlock {
        /// Nonfaulty peers that were still waiting.
        stuck: Vec<PeerId>,
    },
    /// The safety limit on processed events was exceeded (livelock guard).
    EventLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// The message slab hit its configured slot capacity (see
    /// [`SimBuilder::slab_capacity`](crate::SimBuilder::slab_capacity)):
    /// storing one more in-flight payload would have grown it past
    /// `capacity` slots. Reported as an error so capacity-bounded runs
    /// fail gracefully instead of aborting mid-pump.
    SlabOverflow {
        /// The slot capacity that was hit.
        capacity: u32,
    },
    /// A lossy link dropped the same message more times than the
    /// retransmission policy's retry budget allows, and the policy is
    /// fail-fast (see [`RetransmitPolicy`](crate::RetransmitPolicy)):
    /// the loss surfaces as a structured error instead of a silent drop.
    RetriesExhausted {
        /// Sender of the abandoned message.
        from: PeerId,
        /// Intended receiver.
        to: PeerId,
        /// Total transmission attempts made (original send + resends).
        attempts: u32,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Deadlock { stuck } => {
                write!(f, "deadlock: nonfaulty peers still waiting: {stuck:?}")
            }
            RunError::EventLimitExceeded { limit } => {
                write!(f, "event limit {limit} exceeded (livelock?)")
            }
            RunError::SlabOverflow { capacity } => {
                write!(f, "message slab overflow: slot capacity {capacity} reached")
            }
            RunError::RetriesExhausted { from, to, attempts } => {
                write!(
                    f,
                    "retries exhausted: {from} -> {to} abandoned after {attempts} attempts"
                )
            }
        }
    }
}

impl Error for RunError {}

/// A violation of the Download specification found by
/// [`RunReport::verify_downloads`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownloadViolation {
    /// A nonfaulty peer terminated without an output (should be impossible
    /// by construction) or did not terminate.
    MissingOutput {
        /// The offending peer.
        peer: PeerId,
    },
    /// A nonfaulty peer's output differs from the source array.
    WrongOutput {
        /// The offending peer.
        peer: PeerId,
        /// First index at which the output disagrees with the input.
        first_bad_index: usize,
    },
}

impl fmt::Display for DownloadViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DownloadViolation::MissingOutput { peer } => {
                write!(f, "nonfaulty peer {peer} produced no output")
            }
            DownloadViolation::WrongOutput {
                peer,
                first_bad_index,
            } => write!(
                f,
                "nonfaulty peer {peer} output wrong bit at index {first_bad_index}"
            ),
        }
    }
}

impl Error for DownloadViolation {}

/// Metrics and outputs of one simulated execution.
#[derive(Debug)]
pub struct RunReport {
    /// Each peer's output (`None` for peers that never terminated,
    /// including faulty ones).
    pub outputs: Vec<Option<BitArray>>,
    /// Peers that were nonfaulty for the whole run (honest and never
    /// crashed). `Q`, the paper's query complexity, is measured over this
    /// set.
    pub nonfaulty: PeerSet,
    /// Peers crashed by the adversary.
    pub crashed: PeerSet,
    /// Byzantine peers.
    pub byzantine: PeerSet,
    /// Per-peer query counts, indexed by peer ID.
    pub query_counts: Vec<u64>,
    /// Exact query indices per peer (in query order), present when the
    /// simulation was built with
    /// [`track_query_indices`](crate::SimBuilder::track_query_indices).
    /// The lower-bound adversaries (§3.1) need this to find a bit the
    /// target peer never queried.
    pub query_indices: Option<Vec<Vec<usize>>>,
    /// `Q`: maximum queries over nonfaulty peers.
    pub max_nonfaulty_queries: u64,
    /// `M`: total messages sent by nonfaulty peers (in `a`-bit packets).
    pub messages_sent: u64,
    /// Total message payload bits sent by nonfaulty peers.
    pub message_bits: u64,
    /// `T`: virtual completion time in normalized units (max latency = 1).
    pub virtual_time_units: f64,
    /// Raw completion time in ticks.
    pub virtual_time_ticks: Ticks,
    /// Total events processed.
    pub events: u64,
    /// How many times the quiescence rule forced the adversary to release
    /// held messages.
    pub quiescence_releases: u64,
    /// Messages parked at an active partition cut (original sends and
    /// compelled quiescence releases alike) and re-injected at heal time.
    /// Like the peak gauges below, the link-fault counters are *excluded*
    /// from [`fingerprint`](Self::fingerprint) — the field list is fixed
    /// so recorded goldens stay stable; replay tests assert counter
    /// equality separately.
    pub parked_messages: u64,
    /// Transmission attempts a lossy link dropped (original sends and
    /// resends both count).
    pub link_drops: u64,
    /// Resend attempts the retransmission layer scheduled.
    pub retransmissions: u64,
    /// Messages abandoned after exhausting the retry budget. Always zero
    /// for a fail-fast policy on a successful run (the run errors out
    /// instead).
    pub messages_lost: u64,
    /// Deliveries deferred because the recipient had churned away; each
    /// re-fires at the peer's rejoin tick.
    pub deferred_deliveries: u64,
    /// Peak number of events waiting in the event queue at once: with
    /// [`peak_slab_len`](Self::peak_slab_len), what the run's memory
    /// grows with. Not part of [`fingerprint`](Self::fingerprint) (the
    /// fingerprint field list is fixed so recorded goldens stay stable).
    pub peak_queue_len: u64,
    /// Peak number of message-slab slots simultaneously occupied. A slot
    /// holds one payload whoever waits for it (queued, parked, held or
    /// pre-start buffered recipients): a broadcast occupies one slot, as
    /// a point-to-point send does.
    pub peak_slab_len: u64,
    /// Structured execution trace, present when the simulation was built
    /// with [`trace`](crate::SimBuilder::trace). Render with
    /// [`render_trace`](crate::render_trace).
    pub trace: Option<Vec<TraceEntry>>,
}

impl RunReport {
    /// Checks the Download specification: every nonfaulty peer terminated
    /// with an output identical to `input`.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn verify_downloads(&self, input: &BitArray) -> Result<(), DownloadViolation> {
        for peer in self.nonfaulty.iter() {
            match &self.outputs[peer.index()] {
                None => return Err(DownloadViolation::MissingOutput { peer }),
                Some(out) => {
                    if out.len() != input.len() {
                        return Err(DownloadViolation::WrongOutput {
                            peer,
                            first_bad_index: out.len().min(input.len()),
                        });
                    }
                    if let Some(i) = out.first_difference(input) {
                        return Err(DownloadViolation::WrongOutput {
                            peer,
                            first_bad_index: i,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks the Download specification against a [`Source`] directly,
    /// comparing outputs block by block, so streaming runs (built with
    /// [`streaming_source`](crate::SimBuilder::streaming_source)) can be
    /// verified without ever materializing the full n-bit reference. Uses
    /// the word-level [`Source::bits`] bulk path per block.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn verify_downloads_source(&self, source: &dyn Source) -> Result<(), DownloadViolation> {
        // Big enough to amortize per-block overhead, small enough that the
        // resident verification window stays trivial (8 KiB per block).
        const BLOCK_BITS: usize = 1 << 16;
        let n = source.len();
        for peer in self.nonfaulty.iter() {
            match &self.outputs[peer.index()] {
                None => return Err(DownloadViolation::MissingOutput { peer }),
                Some(out) => {
                    if out.len() != n {
                        return Err(DownloadViolation::WrongOutput {
                            peer,
                            first_bad_index: out.len().min(n),
                        });
                    }
                    let mut start = 0;
                    while start < n {
                        let end = (start + BLOCK_BITS).min(n);
                        let expect = source.bits(start..end);
                        let got = out.slice(start..end);
                        if let Some(i) = got.first_difference(&expect) {
                            return Err(DownloadViolation::WrongOutput {
                                peer,
                                first_bad_index: start + i,
                            });
                        }
                        start = end;
                    }
                }
            }
        }
        Ok(())
    }

    /// Deterministic digest of everything observable about the run:
    /// outputs, fault sets, per-peer query counts, message/packet totals,
    /// timing, events, and quiescence releases. Two runs with equal
    /// fingerprints took the same execution — the bit-identity check
    /// behind schedule replay (`ReplayAdversary`).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            // FNV-1a over the value's bytes.
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for out in &self.outputs {
            match out {
                None => mix(u64::MAX),
                Some(bits) => {
                    mix(bits.len() as u64);
                    for w in 0..bits.word_count() {
                        mix(bits.word(w));
                    }
                }
            }
        }
        for set in [&self.nonfaulty, &self.crashed, &self.byzantine] {
            mix(set.len() as u64);
            for p in set.iter() {
                mix(p.index() as u64);
            }
        }
        for &q in &self.query_counts {
            mix(q);
        }
        mix(self.max_nonfaulty_queries);
        mix(self.messages_sent);
        mix(self.message_bits);
        mix(self.virtual_time_ticks);
        mix(self.events);
        mix(self.quiescence_releases);
        h
    }

    /// Average queries over nonfaulty peers.
    pub fn mean_nonfaulty_queries(&self) -> f64 {
        let n = self.nonfaulty.len();
        if n == 0 {
            return 0.0;
        }
        let total: u64 = self
            .nonfaulty
            .iter()
            .map(|p| self.query_counts[p.index()])
            .sum();
        total as f64 / n as f64
    }

    pub(crate) fn time_units_of(ticks: Ticks) -> f64 {
        ticks_to_units(ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with_outputs(outputs: Vec<Option<BitArray>>) -> RunReport {
        let k = outputs.len();
        RunReport {
            outputs,
            nonfaulty: PeerSet::full(k),
            crashed: PeerSet::new(k),
            byzantine: PeerSet::new(k),
            query_counts: vec![0; k],
            query_indices: None,
            max_nonfaulty_queries: 0,
            messages_sent: 0,
            message_bits: 0,
            virtual_time_units: 0.0,
            virtual_time_ticks: 0,
            events: 0,
            quiescence_releases: 0,
            parked_messages: 0,
            link_drops: 0,
            retransmissions: 0,
            messages_lost: 0,
            deferred_deliveries: 0,
            peak_queue_len: 0,
            peak_slab_len: 0,
            trace: None,
        }
    }

    #[test]
    fn verify_accepts_correct_outputs() {
        let input = BitArray::from_bools(&[true, false, true]);
        let r = report_with_outputs(vec![Some(input.clone()), Some(input.clone())]);
        assert!(r.verify_downloads(&input).is_ok());
    }

    #[test]
    fn verify_flags_missing_output() {
        let input = BitArray::zeros(3);
        let r = report_with_outputs(vec![Some(input.clone()), None]);
        assert_eq!(
            r.verify_downloads(&input),
            Err(DownloadViolation::MissingOutput { peer: PeerId(1) })
        );
    }

    #[test]
    fn verify_flags_wrong_bit() {
        let input = BitArray::zeros(3);
        let mut bad = input.clone();
        bad.set(1, true);
        let r = report_with_outputs(vec![Some(bad)]);
        assert_eq!(
            r.verify_downloads(&input),
            Err(DownloadViolation::WrongOutput {
                peer: PeerId(0),
                first_bad_index: 1
            })
        );
    }

    #[test]
    fn mean_queries_over_nonfaulty() {
        let mut r = report_with_outputs(vec![None, None]);
        r.query_counts = vec![4, 8];
        assert_eq!(r.mean_nonfaulty_queries(), 6.0);
    }
}
