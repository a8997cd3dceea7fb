//! The adversary's view of the execution.
//!
//! The paper's adversary knows the protocol and observes the execution
//! (it "can simulate it, up to random coins"). [`View`] is the read-only
//! snapshot handed to adversary hooks: current virtual time plus per-peer
//! status (role, started/terminated/crashed, events processed). Adversaries
//! make delay, hold, and crash decisions from this view.
//!
//! The simulator's contiguous [`PeerStatus`] vector is the only copy of
//! the lifecycle bits: the run loop updates it between steps and every
//! `View` borrows it.

use crate::time::Ticks;
use dr_core::{PeerId, PeerSet};

/// A peer's role in this execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerRole {
    /// Follows the protocol (may still be crashed by the adversary under
    /// the crash-fault model).
    Honest,
    /// Adversary-controlled, counted against the fault budget.
    Byzantine,
}

/// Execution status of one peer.
#[derive(Debug, Clone)]
pub struct PeerStatus {
    /// Role of the peer in this run.
    pub role: PeerRole,
    /// Whether the start event has been delivered.
    pub started: bool,
    /// Whether the peer has terminated with an output.
    pub terminated: bool,
    /// Whether the adversary has crashed the peer.
    pub crashed: bool,
    /// Number of events (start + deliveries) this peer has processed.
    pub events_processed: u64,
}

impl PeerStatus {
    pub(crate) fn new(role: PeerRole) -> Self {
        PeerStatus {
            role,
            started: false,
            terminated: false,
            crashed: false,
            events_processed: 0,
        }
    }

    /// Whether this peer is nonfaulty so far: honest and not crashed.
    pub fn is_nonfaulty(&self) -> bool {
        self.role == PeerRole::Honest && !self.crashed
    }
}

/// Read-only execution snapshot for adversary decisions.
#[derive(Debug)]
pub struct View<'a> {
    /// Current virtual time in ticks.
    pub now: Ticks,
    /// Per-peer status, indexed by peer ID.
    pub peers: &'a [PeerStatus],
}

impl View<'_> {
    /// Number of peers in the network.
    pub fn num_peers(&self) -> usize {
        self.peers.len()
    }

    /// The set of nonfaulty (honest, non-crashed) peers.
    pub fn nonfaulty(&self) -> PeerSet {
        PeerSet::from_fn(self.peers.len(), |i| self.peers[i].is_nonfaulty())
    }

    /// Whether every nonfaulty peer has terminated.
    pub fn all_nonfaulty_terminated(&self) -> bool {
        self.peers
            .iter()
            .filter(|p| p.is_nonfaulty())
            .all(|p| p.terminated)
    }

    /// Status of a single peer.
    pub fn status(&self, peer: PeerId) -> &PeerStatus {
        &self.peers[peer.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonfaulty_excludes_byzantine_and_crashed() {
        let mut peers = vec![
            PeerStatus::new(PeerRole::Honest),
            PeerStatus::new(PeerRole::Byzantine),
            PeerStatus::new(PeerRole::Honest),
        ];
        peers[2].crashed = true;
        let view = View {
            now: 0,
            peers: &peers,
        };
        let nf = view.nonfaulty();
        assert_eq!(nf.len(), 1);
        assert!(nf.contains(PeerId(0)));
    }

    #[test]
    fn termination_ignores_faulty() {
        let mut peers = vec![
            PeerStatus::new(PeerRole::Honest),
            PeerStatus::new(PeerRole::Byzantine),
        ];
        peers[0].terminated = true;
        let view = View {
            now: 5,
            peers: &peers,
        };
        assert!(view.all_nonfaulty_terminated());
    }
}
