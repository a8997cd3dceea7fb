//! Schedule record/replay: serializable adversary decisions.
//!
//! Determinism (same seed, same decision sequence ⇒ identical execution)
//! makes every run reproducible *given the adversary's decisions*. This
//! module captures those decisions — start offsets, per-message latencies
//! and holds, quiescence releases, crash triggers, mid-send cuts, the
//! link-fault plan's partitions and churn, and each transmit-or-drop
//! decision of a lossy link — into a [`ScheduleTrace`] that a
//! [`ReplayAdversary`] plays back bit-identically, turning any failing
//! chaos run into a committed reproducer. The chaos campaign
//! (`dr_bench::chaos`) shrinks such traces to minimal failing schedules.
//! Links are reliable, so a trace records no loss: a dropped attempt is
//! resent, and its resend is one more recorded transmit decision.
//!
//! Decisions are recorded positionally, aligned by hook-call order: the
//! simulator consults the adversary in a deterministic sequence, so the
//! `i`-th `on_send` call of a replay corresponds to the `i`-th recorded
//! send decision. Sparse decisions (crashes, cuts) are keyed by call index
//! instead.

use crate::adversary::{Adversary, Delivery, HeldInfo, Release};
use crate::linkfault::{ChurnDirective, LinkDecision, LinkFaultPlan, PartitionDirective};
use crate::time::Ticks;
use crate::view::{PeerRole, View};
use dr_core::json::ToJson;
use dr_core::{json_struct, PeerId, ProtocolMessage};
use rand::rngs::StdRng;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A recorded mid-send cut: on the `call`-th `crash_during_send`
/// consultation, crash the sender keeping only the first `keep` messages
/// of its batch. (A named struct, not a tuple: committed repro files
/// encode it as `{"call", "keep"}` and must keep loading.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutDecision {
    /// Index of the `crash_during_send` call this cut fires on.
    pub call: u64,
    /// Number of batch messages that still get out.
    pub keep: usize,
}

/// Every adversary decision of one run, in hook-call order.
///
/// Encodings kept from the first repro files, so they still load (no
/// data-carrying enum variants, no tuples, peers as bare integers; keys
/// this struct no longer has, such as the retransmission policy's
/// `backoff_base`, `max_retries` and `fail_fast`, are ignored):
/// * `sends[i] = None` means the `i`-th sent message was held,
///   `Some(t)` means it was delivered after `t` ticks;
/// * `releases[q] = None` means the `q`-th quiescence released everything
///   ([`Release::All`]), `Some(v)` a partial release of indices `v`;
/// * `crashes` lists the `crash_before_event` call indices that returned
///   `true` (sparse);
/// * `cuts` lists the `crash_during_send` calls that cut a batch (sparse).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// Start offset (ticks) per `start_offset` call, in call order.
    pub start_offsets: Vec<u64>,
    /// Latency per `on_send` call; `None` = held.
    pub sends: Vec<Option<u64>>,
    /// Release decision per quiescence; `None` = release all.
    pub releases: Vec<Option<Vec<usize>>>,
    /// `crash_before_event` call indices that crashed the peer.
    pub crashes: Vec<u64>,
    /// Mid-send cuts by `crash_during_send` call index.
    pub cuts: Vec<CutDecision>,
    /// Partition directives of the recorded link-fault plan.
    pub partitions: Vec<PartitionDirective>,
    /// Churn directives of the recorded link-fault plan.
    pub churn: Vec<ChurnDirective>,
    /// Transmit decision per `on_transmit` call (`true` = transmitted,
    /// `false` = dropped). Empty for non-lossy recordings; non-empty
    /// marks the replay itself as lossy.
    pub transmits: Vec<bool>,
}

json_struct!(ToJson, FromJson for CutDecision { call, keep });
json_struct!(ToJson, FromJson for ScheduleTrace {
    start_offsets, sends, releases, crashes, cuts, partitions, churn, transmits
});

impl ScheduleTrace {
    /// Total fault directives (crashes + cuts) — the quantity the chaos
    /// shrinker minimizes first.
    pub fn num_fault_directives(&self) -> usize {
        self.crashes.len() + self.cuts.len()
    }

    /// Number of held sends plus partial releases — the schedule's
    /// "hold complexity", minimized second.
    pub fn num_hold_directives(&self) -> usize {
        self.sends.iter().filter(|s| s.is_none()).count()
            + self.releases.iter().filter(|r| r.is_some()).count()
    }

    /// Link-fault directives (partitions + churn) — minimized by the
    /// chaos shrinker alongside the fault directives.
    pub fn num_link_directives(&self) -> usize {
        self.partitions.len() + self.churn.len()
    }

    /// The [`LinkFaultPlan`] this trace encodes (trivial for recordings of
    /// fault-free adversaries).
    pub fn link_fault_plan(&self) -> LinkFaultPlan {
        LinkFaultPlan {
            partitions: self.partitions.clone(),
            churn: self.churn.clone(),
        }
    }

    /// Writes `plan` into the trace's link-fault fields (the inverse of
    /// [`link_fault_plan`](Self::link_fault_plan)).
    pub fn set_link_fault_plan(&mut self, plan: &LinkFaultPlan) {
        self.partitions = plan.partitions.clone();
        self.churn = plan.churn.clone();
    }

    /// Stable content hash (FNV-1a over the canonical JSON rendering),
    /// used to name `chaos_repro_<hash>.json` files.
    pub fn content_hash(&self) -> u64 {
        let text = self.to_json().to_string();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Shared handle to a trace being recorded by a [`RecordingAdversary`].
///
/// `Simulation` consumes its adversary, so the recorder hands out an
/// `Arc`-backed handle up front; call [`take`](TraceHandle::take) after the
/// run to obtain the captured trace.
#[derive(Debug, Clone)]
pub struct TraceHandle(Arc<Mutex<ScheduleTrace>>);

impl TraceHandle {
    /// Snapshot of the trace recorded so far (the full trace, after the
    /// run completes).
    pub fn take(&self) -> ScheduleTrace {
        lock_trace(&self.0).clone()
    }
}

/// Locks the trace cell. Each decision is one `push`, so a trace poisoned
/// by a panicking run is still a well-formed prefix.
fn lock_trace(trace: &Mutex<ScheduleTrace>) -> MutexGuard<'_, ScheduleTrace> {
    trace.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wraps any adversary and records every decision it makes into a
/// [`ScheduleTrace`].
pub struct RecordingAdversary<M> {
    inner: Box<dyn Adversary<M>>,
    trace: Arc<Mutex<ScheduleTrace>>,
    crash_calls: u64,
    cut_calls: u64,
}

impl<M: ProtocolMessage> RecordingAdversary<M> {
    /// Wraps `inner`, returning the recorder and a handle to the trace it
    /// will fill in.
    pub fn new(inner: impl Adversary<M> + 'static) -> (Self, TraceHandle) {
        let trace = Arc::new(Mutex::new(ScheduleTrace::default()));
        let handle = TraceHandle(trace.clone());
        (
            RecordingAdversary {
                inner: Box::new(inner),
                trace,
                crash_calls: 0,
                cut_calls: 0,
            },
            handle,
        )
    }
}

impl<M: ProtocolMessage> Adversary<M> for RecordingAdversary<M> {
    fn start_offset(&mut self, peer: PeerId, rng: &mut StdRng) -> Ticks {
        let t = self.inner.start_offset(peer, rng);
        lock_trace(&self.trace).start_offsets.push(t);
        t
    }

    fn on_send(
        &mut self,
        view: &View<'_>,
        from: PeerId,
        to: PeerId,
        msg: &M,
        rng: &mut StdRng,
    ) -> Delivery {
        let d = self.inner.on_send(view, from, to, msg, rng);
        lock_trace(&self.trace).sends.push(match d {
            Delivery::After(t) => Some(t),
            Delivery::Hold => None,
        });
        d
    }

    fn on_quiescence(&mut self, view: &View<'_>, held: &[HeldInfo]) -> Release {
        let r = self.inner.on_quiescence(view, held);
        // Canonicalize partial releases (sorted, deduped, in-range) so a
        // re-recorded trace is a stable fixed point of replay.
        let canonical = match &r {
            Release::All => None,
            Release::Some(v) => {
                let mut v = v.clone();
                v.sort_unstable();
                v.dedup();
                v.retain(|&i| i < held.len());
                Some(v)
            }
        };
        lock_trace(&self.trace).releases.push(canonical);
        r
    }

    fn crash_before_event(&mut self, view: &View<'_>, peer: PeerId) -> bool {
        let call = self.crash_calls;
        self.crash_calls += 1;
        let crash = self.inner.crash_before_event(view, peer);
        if crash {
            lock_trace(&self.trace).crashes.push(call);
        }
        crash
    }

    fn crash_during_send(
        &mut self,
        view: &View<'_>,
        peer: PeerId,
        planned: usize,
    ) -> Option<usize> {
        let call = self.cut_calls;
        self.cut_calls += 1;
        let cut = self.inner.crash_during_send(view, peer, planned);
        if let Some(keep) = cut {
            // Record the effective keep so replay reproduces the same
            // truncation even if the inner adversary over-asked.
            lock_trace(&self.trace).cuts.push(CutDecision {
                call,
                keep: keep.min(planned),
            });
        }
        cut
    }

    fn planned_crashes(&self) -> Option<usize> {
        self.inner.planned_crashes()
    }

    fn link_fault_plan(&self) -> LinkFaultPlan {
        // Fetched once at build time; capture the plan into the trace so
        // replay reconstructs the same cuts and churn.
        let plan = self.inner.link_fault_plan();
        lock_trace(&self.trace).set_link_fault_plan(&plan);
        plan
    }

    fn lossy(&self) -> bool {
        self.inner.lossy()
    }

    fn on_transmit(
        &mut self,
        view: &View<'_>,
        from: PeerId,
        to: PeerId,
        attempt: u32,
        rng: &mut StdRng,
    ) -> LinkDecision {
        let d = self.inner.on_transmit(view, from, to, attempt, rng);
        lock_trace(&self.trace)
            .transmits
            .push(matches!(d, LinkDecision::Transmit));
        d
    }
}

/// Plays a [`ScheduleTrace`] back, decision for decision.
///
/// On the recording's own simulation configuration the hook-call sequence
/// aligns exactly and the run is bit-identical. Past the end of the trace
/// (possible while the chaos shrinker evaluates edited candidates, which
/// can change the trajectory) the replayer degrades to deterministic
/// benign behaviour: offset 0, a fixed latency, release-all, no crashes.
pub struct ReplayAdversary {
    trace: ScheduleTrace,
    fault_cap: Option<usize>,
    start_idx: usize,
    send_idx: usize,
    release_idx: usize,
    transmit_idx: usize,
    crash_calls: u64,
    cut_calls: u64,
}

impl ReplayAdversary {
    /// Replays `trace` from the beginning.
    pub fn new(trace: ScheduleTrace) -> Self {
        ReplayAdversary {
            trace,
            fault_cap: None,
            start_idx: 0,
            send_idx: 0,
            release_idx: 0,
            transmit_idx: 0,
            crash_calls: 0,
            cut_calls: 0,
        }
    }

    /// Caps total faults (crashed + Byzantine) at `b`, making replay of
    /// *edited* traces safe: a cut that would overdraw the simulator's
    /// crash budget is dropped instead of panicking.
    pub fn with_fault_cap(mut self, b: usize) -> Self {
        self.fault_cap = Some(b);
        self
    }

    fn faults_so_far(view: &View<'_>) -> usize {
        view.peers
            .iter()
            .filter(|p| p.crashed || p.role == PeerRole::Byzantine)
            .count()
    }

    fn may_crash(&self, view: &View<'_>, peer: PeerId) -> bool {
        view.status(peer).role == PeerRole::Honest
            && self
                .fault_cap
                .is_none_or(|cap| Self::faults_so_far(view) < cap)
    }
}

impl<M: ProtocolMessage> Adversary<M> for ReplayAdversary {
    fn start_offset(&mut self, _peer: PeerId, _rng: &mut StdRng) -> Ticks {
        let t = self.trace.start_offsets.get(self.start_idx).copied();
        self.start_idx += 1;
        t.unwrap_or(0)
    }

    fn on_send(
        &mut self,
        _view: &View<'_>,
        _from: PeerId,
        _to: PeerId,
        _msg: &M,
        _rng: &mut StdRng,
    ) -> Delivery {
        let d = self.trace.sends.get(self.send_idx).cloned();
        self.send_idx += 1;
        match d {
            Some(Some(t)) => Delivery::After(t),
            Some(None) => Delivery::Hold,
            None => Delivery::After(1),
        }
    }

    fn on_quiescence(&mut self, _view: &View<'_>, held: &[HeldInfo]) -> Release {
        let r = self.trace.releases.get(self.release_idx).cloned();
        self.release_idx += 1;
        match r {
            Some(Some(mut v)) => {
                v.retain(|&i| i < held.len());
                if v.is_empty() {
                    // The edited trajectory holds fewer messages than the
                    // recording did here; degrade to the compelled default.
                    Release::All
                } else {
                    Release::Some(v)
                }
            }
            _ => Release::All,
        }
    }

    fn crash_before_event(&mut self, view: &View<'_>, peer: PeerId) -> bool {
        let call = self.crash_calls;
        self.crash_calls += 1;
        self.trace.crashes.contains(&call) && self.may_crash(view, peer)
    }

    fn crash_during_send(
        &mut self,
        view: &View<'_>,
        peer: PeerId,
        planned: usize,
    ) -> Option<usize> {
        let call = self.cut_calls;
        self.cut_calls += 1;
        if !self.may_crash(view, peer) {
            return None;
        }
        self.trace
            .cuts
            .iter()
            .find(|c| c.call == call)
            .map(|c| c.keep.min(planned))
    }

    fn link_fault_plan(&self) -> LinkFaultPlan {
        self.trace.link_fault_plan()
    }

    fn lossy(&self) -> bool {
        // A recording with any transmit consultations was lossy; replay
        // must re-consult at the same positions to stay aligned.
        !self.trace.transmits.is_empty()
    }

    fn on_transmit(
        &mut self,
        _view: &View<'_>,
        _from: PeerId,
        _to: PeerId,
        _attempt: u32,
        _rng: &mut StdRng,
    ) -> LinkDecision {
        let d = self.trace.transmits.get(self.transmit_idx).copied();
        self.transmit_idx += 1;
        match d {
            Some(true) | None => LinkDecision::Transmit,
            Some(false) => LinkDecision::Drop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_roundtrips_through_json() {
        let trace = ScheduleTrace {
            start_offsets: vec![0, 17, 1023],
            sends: vec![Some(5), None, Some(1024)],
            releases: vec![None, Some(vec![0, 2])],
            crashes: vec![3],
            cuts: vec![CutDecision { call: 7, keep: 1 }],
            partitions: vec![PartitionDirective {
                name: "half".into(),
                group: vec![PeerId(0), PeerId(2)],
                from_tick: 0,
                heal_tick: 4096,
            }],
            churn: vec![ChurnDirective {
                peer: PeerId(1),
                leave: 100,
                rejoin: 5000,
            }],
            transmits: vec![true, false, true],
        };
        let text = trace.to_json().pretty();
        let back: ScheduleTrace = dr_core::json::from_str(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.content_hash(), trace.content_hash());
    }

    #[test]
    fn link_fault_plan_roundtrips_through_trace() {
        let plan = LinkFaultPlan {
            partitions: vec![PartitionDirective {
                name: "cut-a".into(),
                group: vec![PeerId(1), PeerId(3)],
                from_tick: 10,
                heal_tick: 2048,
            }],
            churn: vec![ChurnDirective {
                peer: PeerId(2),
                leave: 512,
                rejoin: 4096,
            }],
        };
        let mut trace = ScheduleTrace::default();
        trace.set_link_fault_plan(&plan);
        assert_eq!(trace.num_link_directives(), 2);
        assert_eq!(trace.link_fault_plan(), plan);
        // A default trace encodes the trivial plan.
        assert!(ScheduleTrace::default().link_fault_plan().is_trivial());
    }

    #[test]
    fn hash_distinguishes_traces() {
        let a = ScheduleTrace::default();
        let mut b = ScheduleTrace::default();
        b.crashes.push(0);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn directive_counts() {
        let trace = ScheduleTrace {
            start_offsets: vec![],
            sends: vec![Some(1), None, None],
            releases: vec![None, Some(vec![1])],
            crashes: vec![2, 9],
            cuts: vec![CutDecision { call: 0, keep: 0 }],
            ..Default::default()
        };
        assert_eq!(trace.num_fault_directives(), 3);
        assert_eq!(trace.num_hold_directives(), 3);
        assert_eq!(trace.num_link_directives(), 0);
    }
}
