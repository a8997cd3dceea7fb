//! The protocol abstraction shared by the simulator and the threaded
//! runtime.
//!
//! A Download protocol is an event-driven state machine, one instance per
//! peer. The environment (simulator or thread executor) calls
//! [`Protocol::on_start`] once when the peer begins executing and
//! [`Protocol::on_message`] for every delivered message; the protocol reacts
//! through its [`Context`] — sending messages, querying the source, and
//! drawing randomness. A peer has terminated once [`Protocol::output`]
//! returns `Some`.
//!
//! This mirrors the paper's asynchronous cycle structure (§1.2): each event
//! handler invocation is one atomic local step in which the peer may query
//! the source (queries are answered within the cycle — the cycle's first
//! stage is "sending queries and getting answers"), send messages, and then
//! return to waiting. The adversary fixes message latencies at send time and
//! may only fail a peer between events, exactly as the model's cycle-based
//! adversary prescribes.

use crate::bits::BitArray;
use crate::peer::PeerId;
use rand::RngCore;
use std::ops::Range;

/// A message type usable by a protocol: cloneable (for broadcast),
/// debuggable (for traces), and sized in bits (for message-size accounting
/// against the model's parameter `a`).
pub trait ProtocolMessage: Clone + std::fmt::Debug + Send + 'static {
    /// The size of this message in bits, as charged against the model's
    /// message-size parameter. Used for message-complexity accounting and
    /// to charge transmission time for over-long messages.
    fn bit_len(&self) -> usize;
}

/// The environment a protocol instance runs against.
///
/// Both the discrete-event simulator and the thread-based runtime implement
/// this trait, so protocol code is written once and runs in both.
pub trait Context<M: ProtocolMessage> {
    /// This peer's ID.
    fn me(&self) -> PeerId;

    /// Number of peers `k` in the network.
    fn num_peers(&self) -> usize;

    /// Number of bits `n` in the external source.
    fn input_len(&self) -> usize;

    /// Sends `msg` to `to`. Self-sends are permitted and delivered like any
    /// other message.
    fn send(&mut self, to: PeerId, msg: M);

    /// Queries one bit of the external source (cost: 1 query).
    fn query(&mut self, index: usize) -> bool;

    /// Queries a contiguous bit range (cost: length of the range, exactly
    /// one bit charged per bit in the range).
    ///
    /// The provided implementation loops over [`Context::query`]; contexts
    /// that read a real [`Source`](crate::Source) override it with the bulk
    /// word-level path ([`Source::bits`](crate::Source::bits) and one
    /// batched meter update, identical accounting). Contexts that answer
    /// queries from somewhere other than the source — e.g. the lower-bound
    /// fake-source context — keep this default so the per-bit semantics
    /// stay authoritative.
    fn query_range(&mut self, range: Range<usize>) -> BitArray {
        let mut out = BitArray::zeros(range.len());
        for (off, i) in range.enumerate() {
            if self.query(i) {
                out.set(off, true);
            }
        }
        out
    }

    /// Queries the bits selected by `mask` (cost: one bit charged per set
    /// bit, in ascending index order). The answer has `mask.len()` bits:
    /// the source's value where `mask` is set, zero elsewhere.
    ///
    /// This is the strided sibling of [`Context::query_range`], for
    /// protocols whose query set is structural but not contiguous (the
    /// committee protocol's round-robin membership). The provided
    /// implementation loops over [`Context::query`] for the set bits;
    /// contexts that read a real [`Source`](crate::Source) override it
    /// with one batched meter update and a word-level read, and contexts
    /// that answer from elsewhere keep this default, exactly as for
    /// `query_range`.
    fn query_masked(&mut self, mask: &BitArray) -> BitArray {
        let mut out = BitArray::zeros(mask.len());
        for i in mask.ones() {
            if self.query(i) {
                out.set(i, true);
            }
        }
        out
    }

    /// Source of randomness for randomized protocols. Deterministic
    /// environments seed this per peer so runs are reproducible.
    fn rng(&mut self) -> &mut dyn RngCore;

    /// Sends `msg` to every peer other than `self` (the paper's broadcast;
    /// `k − 1` point-to-point messages).
    fn broadcast(&mut self, msg: M) {
        let me = self.me();
        for p in 0..self.num_peers() {
            if p != me.index() {
                self.send(PeerId(p), msg.clone());
            }
        }
    }
}

/// One peer's half of a Download protocol.
pub trait Protocol: Send {
    /// The message type exchanged between peers running this protocol.
    type Msg: ProtocolMessage;

    /// Called exactly once, when this peer starts executing. The adversary
    /// controls when each peer starts (no simultaneous start).
    fn on_start(&mut self, ctx: &mut dyn Context<Self::Msg>);

    /// Called for every message delivered to this peer.
    fn on_message(&mut self, from: PeerId, msg: Self::Msg, ctx: &mut dyn Context<Self::Msg>);

    /// The peer's output: `Some(array)` once the peer has terminated with
    /// its copy of the input, `None` while still running. The Download
    /// problem requires the output to equal the source array exactly.
    fn output(&self) -> Option<&BitArray>;

    /// Whether this peer has terminated. Equivalent to
    /// `self.output().is_some()`.
    fn is_terminated(&self) -> bool {
        self.output().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[derive(Debug, Clone)]
    struct Ping;
    impl ProtocolMessage for Ping {
        fn bit_len(&self) -> usize {
            1
        }
    }

    struct TestCtx {
        me: PeerId,
        k: usize,
        sent: VecDeque<(PeerId, Ping)>,
        rng: rand::rngs::mock::StepRng,
    }

    impl Context<Ping> for TestCtx {
        fn me(&self) -> PeerId {
            self.me
        }
        fn num_peers(&self) -> usize {
            self.k
        }
        fn input_len(&self) -> usize {
            0
        }
        fn send(&mut self, to: PeerId, msg: Ping) {
            self.sent.push_back((to, msg));
        }
        fn query(&mut self, _index: usize) -> bool {
            false
        }
        fn rng(&mut self) -> &mut dyn RngCore {
            &mut self.rng
        }
    }

    #[test]
    fn broadcast_skips_self() {
        let mut ctx = TestCtx {
            me: PeerId(1),
            k: 4,
            sent: VecDeque::new(),
            rng: rand::rngs::mock::StepRng::new(0, 1),
        };
        ctx.broadcast(Ping);
        let targets: Vec<usize> = ctx.sent.iter().map(|(p, _)| p.index()).collect();
        assert_eq!(targets, vec![0, 2, 3]);
    }

    #[test]
    fn default_query_range_uses_query() {
        struct CountingCtx {
            inner: TestCtx,
            queried: Vec<usize>,
        }
        impl Context<Ping> for CountingCtx {
            fn me(&self) -> PeerId {
                self.inner.me
            }
            fn num_peers(&self) -> usize {
                self.inner.k
            }
            fn input_len(&self) -> usize {
                8
            }
            fn send(&mut self, to: PeerId, msg: Ping) {
                self.inner.send(to, msg);
            }
            fn query(&mut self, index: usize) -> bool {
                self.queried.push(index);
                index % 2 == 1
            }
            fn rng(&mut self) -> &mut dyn RngCore {
                self.inner.rng()
            }
        }
        let mut ctx = CountingCtx {
            inner: TestCtx {
                me: PeerId(0),
                k: 1,
                sent: VecDeque::new(),
                rng: rand::rngs::mock::StepRng::new(0, 1),
            },
            queried: vec![],
        };
        let bits = ctx.query_range(2..6);
        assert_eq!(ctx.queried, vec![2, 3, 4, 5]);
        assert!(!bits.get(0) && bits.get(1) && !bits.get(2) && bits.get(3));
    }
}
