//! Structured execution traces.
//!
//! When enabled on the builder, the simulator records one [`TraceEntry`]
//! per scheduler action — starts, deliveries, drops, crashes, holds, and
//! quiescence releases — with virtual timestamps. Traces make adversarial
//! executions auditable: tests assert on them, and
//! [`render_trace`] pretty-prints them for debugging.

use crate::time::{ticks_to_units, Ticks};
use dr_core::PeerId;

/// One scheduler action in an execution trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEntry {
    /// A peer processed its start event.
    Start {
        /// Virtual time in ticks.
        at: Ticks,
        /// The starting peer.
        peer: PeerId,
    },
    /// A message was delivered and processed.
    Deliver {
        /// Virtual time in ticks.
        at: Ticks,
        /// Sender.
        from: PeerId,
        /// Receiver.
        to: PeerId,
        /// Payload size in bits.
        bits: usize,
    },
    /// A message arrived at a crashed or terminated peer and was dropped.
    Drop {
        /// Virtual time in ticks.
        at: Ticks,
        /// Sender.
        from: PeerId,
        /// Intended receiver.
        to: PeerId,
    },
    /// The adversary crashed a peer.
    Crash {
        /// Virtual time in ticks.
        at: Ticks,
        /// The crashed peer.
        peer: PeerId,
    },
    /// The adversary decided to hold a message indefinitely.
    Hold {
        /// Virtual time in ticks.
        at: Ticks,
        /// Sender.
        from: PeerId,
        /// Intended receiver.
        to: PeerId,
    },
    /// Quiescence forced held messages out.
    QuiescenceRelease {
        /// Virtual time in ticks.
        at: Ticks,
        /// Number of messages released.
        released: usize,
    },
    /// A peer terminated with an output.
    Terminate {
        /// Virtual time in ticks.
        at: Ticks,
        /// The terminating peer.
        peer: PeerId,
    },
    /// A message crossed an active partition cut and was parked: it keeps
    /// its payload slot and re-enters delivery when the cut heals.
    Park {
        /// Virtual time in ticks.
        at: Ticks,
        /// Sender.
        from: PeerId,
        /// Intended receiver.
        to: PeerId,
        /// The tick at which the separating cut heals.
        until: Ticks,
    },
    /// A lossy link dropped a transmission attempt (the retransmission
    /// layer resends it after a backoff).
    LinkDrop {
        /// Virtual time in ticks.
        at: Ticks,
        /// Sender.
        from: PeerId,
        /// Intended receiver.
        to: PeerId,
        /// Which attempt failed: 0 is the original send, `a ≥ 1` the
        /// `a`-th resend.
        attempt: u32,
    },
    /// A delivery addressed to a churned-away peer was deferred to its
    /// rejoin tick (the payload slot rides along; nothing is lost).
    ChurnDefer {
        /// Virtual time in ticks.
        at: Ticks,
        /// The absent peer.
        peer: PeerId,
        /// The tick at which the peer rejoins and the event re-fires.
        until: Ticks,
    },
}

impl TraceEntry {
    /// The entry's virtual timestamp in ticks.
    pub fn at(&self) -> Ticks {
        match self {
            TraceEntry::Start { at, .. }
            | TraceEntry::Deliver { at, .. }
            | TraceEntry::Drop { at, .. }
            | TraceEntry::Crash { at, .. }
            | TraceEntry::Hold { at, .. }
            | TraceEntry::QuiescenceRelease { at, .. }
            | TraceEntry::Terminate { at, .. }
            | TraceEntry::Park { at, .. }
            | TraceEntry::LinkDrop { at, .. }
            | TraceEntry::ChurnDefer { at, .. } => *at,
        }
    }
}

/// Renders a trace as human-readable lines (one per entry, timestamps in
/// normalized units).
pub fn render_trace(trace: &[TraceEntry]) -> String {
    let mut out = String::new();
    for e in trace {
        let t = ticks_to_units(e.at());
        let line = match e {
            TraceEntry::Start { peer, .. } => format!("{t:8.3}  START    {peer}"),
            TraceEntry::Deliver { from, to, bits, .. } => {
                format!("{t:8.3}  DELIVER  {from} -> {to} ({bits} bits)")
            }
            TraceEntry::Drop { from, to, .. } => format!("{t:8.3}  DROP     {from} -> {to}"),
            TraceEntry::Crash { peer, .. } => format!("{t:8.3}  CRASH    {peer}"),
            TraceEntry::Hold { from, to, .. } => format!("{t:8.3}  HOLD     {from} -> {to}"),
            TraceEntry::QuiescenceRelease { released, .. } => {
                format!("{t:8.3}  RELEASE  {released} held message(s)")
            }
            TraceEntry::Terminate { peer, .. } => format!("{t:8.3}  DONE     {peer}"),
            TraceEntry::Park {
                from, to, until, ..
            } => {
                let u = ticks_to_units(*until);
                format!("{t:8.3}  PARK     {from} -> {to} (until {u:.3})")
            }
            TraceEntry::LinkDrop {
                from, to, attempt, ..
            } => {
                format!("{t:8.3}  LDROP    {from} -> {to} (attempt {attempt})")
            }
            TraceEntry::ChurnDefer { peer, until, .. } => {
                let u = ticks_to_units(*until);
                format!("{t:8.3}  DEFER    to {peer} (rejoins {u:.3})")
            }
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_formats_every_variant() {
        let trace = vec![
            TraceEntry::Start {
                at: 0,
                peer: PeerId(0),
            },
            TraceEntry::Deliver {
                at: 1024,
                from: PeerId(0),
                to: PeerId(1),
                bits: 64,
            },
            TraceEntry::Drop {
                at: 1025,
                from: PeerId(1),
                to: PeerId(2),
            },
            TraceEntry::Crash {
                at: 1026,
                peer: PeerId(2),
            },
            TraceEntry::Hold {
                at: 1027,
                from: PeerId(0),
                to: PeerId(1),
            },
            TraceEntry::QuiescenceRelease {
                at: 1028,
                released: 3,
            },
            TraceEntry::Terminate {
                at: 2048,
                peer: PeerId(0),
            },
            TraceEntry::Park {
                at: 2049,
                from: PeerId(1),
                to: PeerId(2),
                until: 4096,
            },
            TraceEntry::LinkDrop {
                at: 2050,
                from: PeerId(2),
                to: PeerId(0),
                attempt: 0,
            },
            TraceEntry::ChurnDefer {
                at: 2052,
                peer: PeerId(1),
                until: 8192,
            },
        ];
        let text = render_trace(&trace);
        for needle in [
            "START", "DELIVER", "DROP", "CRASH", "HOLD", "RELEASE", "DONE", "PARK", "LDROP",
            "DEFER",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
        assert_eq!(trace[6].at(), 2048);
        assert_eq!(trace[9].at(), 2052);
    }
}
