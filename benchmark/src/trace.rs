//! Spans recorded from outside the program.
//!
//! Nothing in the library crates knows about tracing. The benchmark wraps
//! what it hands to [`SimBuilder`](dr_sim::SimBuilder) and
//! [`FrontDoor`](dr_runtime::FrontDoor) instead:
//!
//! * [`Traced`] wraps an [`Agent`] and gives the inner agent a
//!   [`TracedCtx`] around the simulator's own `Context`, so every handler
//!   call is one span and every `query` / `send` beneath it is folded into
//!   that span's record as (count, ns) — millions of leaf calls stay a
//!   bounded trace;
//! * [`TracedAdversary`] forwards all ten [`Adversary`] hooks and times
//!   the six the simulator consults while it runs;
//! * [`TracedSource`] counts and times calls into a [`Source`].
//!
//! Spans live in memory ([`Tracer`]) and are written out when the run
//! ends. A layer's self time is its span minus what its children cover.

use crate::json::Value;
use dr_core::{BitArray, Context, PeerId, ProtocolMessage, Source};
use dr_sim::{
    Adversary, Agent, Delivery, HeldInfo, LinkDecision, LinkFaultPlan, Release, Ticks, View,
};
use rand::rngs::StdRng;
use rand::RngCore;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span covers. Coarse spans nest (`Workload → Round → SimBuild |
/// SimRun | SimVerify`); handler and adversary spans are leaves under
/// `SimRun`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    /// One benchmark process on one workload.
    Workload,
    /// One traced execution (sim) or request round (serve).
    Round,
    /// `SimBuilder::build`, input generation included.
    SimBuild,
    /// `Simulation::run`.
    SimRun,
    /// `RunReport::verify_downloads*`.
    SimVerify,
    /// One `on_start` / `on_message` call into a protocol or strategy.
    Handler,
    /// `Adversary::start_offset`.
    AdvStartOffset,
    /// `Adversary::on_send`.
    AdvOnSend,
    /// `Adversary::on_quiescence`.
    AdvOnQuiescence,
    /// `Adversary::crash_before_event`.
    AdvCrashBeforeEvent,
    /// `Adversary::crash_during_send`.
    AdvCrashDuringSend,
    /// `Adversary::on_transmit`.
    AdvOnTransmit,
}

impl SpanName {
    /// Every name, in declaration order (indexable by `as usize`).
    pub const ALL: [SpanName; 12] = [
        SpanName::Workload,
        SpanName::Round,
        SpanName::SimBuild,
        SpanName::SimRun,
        SpanName::SimVerify,
        SpanName::Handler,
        SpanName::AdvStartOffset,
        SpanName::AdvOnSend,
        SpanName::AdvOnQuiescence,
        SpanName::AdvCrashBeforeEvent,
        SpanName::AdvCrashDuringSend,
        SpanName::AdvOnTransmit,
    ];

    /// The name as written to the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Workload => "workload",
            SpanName::Round => "round",
            SpanName::SimBuild => "sim.build",
            SpanName::SimRun => "sim.run",
            SpanName::SimVerify => "sim.verify",
            SpanName::Handler => "protocols.handler",
            SpanName::AdvStartOffset => "sim.adversary.start_offset",
            SpanName::AdvOnSend => "sim.adversary.on_send",
            SpanName::AdvOnQuiescence => "sim.adversary.on_quiescence",
            SpanName::AdvCrashBeforeEvent => "sim.adversary.crash_before_event",
            SpanName::AdvCrashDuringSend => "sim.adversary.crash_during_send",
            SpanName::AdvOnTransmit => "sim.adversary.on_transmit",
        }
    }

    /// Whether this is one of the adversary-hook spans.
    pub fn is_adversary(self) -> bool {
        self as u8 >= SpanName::AdvStartOffset as u8
    }
}

/// Calls beneath one handler, folded into its record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fold {
    /// `Context::query` + `Context::query_range` calls.
    pub query_calls: u64,
    /// Time inside them (source time included).
    pub query_ns: u64,
    /// `Context::send` + `Context::broadcast` calls.
    pub send_calls: u64,
    /// Time inside them.
    pub send_ns: u64,
    /// Calls that reached a [`TracedSource`] while the handler ran.
    pub source_calls: u64,
    /// Time inside them (a part of `query_ns`).
    pub source_ns: u64,
}

impl Fold {
    fn add(&mut self, other: &Fold) {
        self.query_calls += other.query_calls;
        self.query_ns += other.query_ns;
        self.send_calls += other.send_calls;
        self.send_ns += other.send_ns;
        self.source_calls += other.source_calls;
        self.source_ns += other.source_ns;
    }
}

const NO_PARENT: u32 = u32::MAX;
const NO_FOLD: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: SpanName,
    parent: u32,
    fold: u32,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    folds: Vec<Fold>,
    /// Open coarse spans, innermost last: the parent of whatever is
    /// recorded next.
    open: Vec<u32>,
}

/// Call and time counters of a [`TracedSource`]. Atomics, because the
/// front door calls its upstream from every client thread.
#[derive(Debug, Default)]
pub struct SourceCounters {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl SourceCounters {
    /// `(calls, ns)` so far.
    pub fn snapshot(&self) -> (u64, u64) {
        // Statistics only: nothing is published through these counters.
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

/// The in-memory span store of one traced process.
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
    source: Arc<SourceCounters>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Totals of a [`Tracer`], by span name.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// `(count, total ns)` per [`SpanName`], indexed by `name as usize`.
    pub by_name: [(u64, u64); SpanName::ALL.len()],
    /// Sum of every handler's folded calls.
    pub fold: Fold,
}

impl Totals {
    /// `(count, ns)` of one span name.
    pub fn of(&self, name: SpanName) -> (u64, u64) {
        self.by_name[name as usize]
    }

    /// `(count, ns)` over all adversary hooks.
    pub fn adversary(&self) -> (u64, u64) {
        SpanName::ALL
            .iter()
            .filter(|n| n.is_adversary())
            .fold((0, 0), |(c, ns), &n| {
                let (dc, dns) = self.of(n);
                (c + dc, ns + dns)
            })
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
            source: Arc::new(SourceCounters::default()),
        }
    }

    /// Nanoseconds since this tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The counters a [`TracedSource`] of this trace adds to.
    pub fn source_counters(&self) -> Arc<SourceCounters> {
        Arc::clone(&self.source)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a coarse span under the innermost open one and runs `f`
    /// inside it.
    pub fn span<T>(&self, name: SpanName, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut inner = self.lock();
            let id = inner.spans.len() as u32;
            let parent = inner.open.last().copied().unwrap_or(NO_PARENT);
            let start_ns = self.now();
            inner.spans.push(Span {
                name,
                parent,
                fold: NO_FOLD,
                start_ns,
                end_ns: start_ns,
            });
            inner.open.push(id);
            id
        };
        let out = f();
        let mut inner = self.lock();
        inner.spans[id as usize].end_ns = self.now();
        let closed = inner.open.pop();
        debug_assert_eq!(closed, Some(id), "coarse spans must nest");
        out
    }

    /// Records a finished leaf span under the innermost open coarse span.
    pub fn leaf(&self, name: SpanName, start_ns: u64, end_ns: u64, fold: Option<Fold>) {
        let mut inner = self.lock();
        let parent = inner.open.last().copied().unwrap_or(NO_PARENT);
        let fold = match fold {
            Some(f) => {
                inner.folds.push(f);
                (inner.folds.len() - 1) as u32
            }
            None => NO_FOLD,
        };
        inner.spans.push(Span {
            name,
            parent,
            fold,
            start_ns,
            end_ns,
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sums spans by name, over spans `from..` (pass a [`len`](Self::len)
    /// taken earlier to total one round only).
    pub fn totals_since(&self, from: usize) -> Totals {
        let inner = self.lock();
        let mut totals = Totals::default();
        for span in &inner.spans[from..] {
            let slot = &mut totals.by_name[span.name as usize];
            slot.0 += 1;
            slot.1 += span.end_ns - span.start_ns;
            if span.fold != NO_FOLD {
                totals.fold.add(&inner.folds[span.fold as usize]);
            }
        }
        totals
    }

    /// The trace as a JSON document: totals by name, then the spans
    /// themselves (`[name, parent, start_ns, end_ns]` plus the folded
    /// calls of handler spans), cut off after `max_spans` so a
    /// four-million-span run does not write a gigabyte. `spans_total`
    /// says how many there were.
    pub fn to_json(&self, max_spans: usize) -> Value {
        let totals = self.totals_since(0);
        let inner = self.lock();
        let mut by_name = Value::obj();
        for name in SpanName::ALL {
            let (count, ns) = totals.of(name);
            if count > 0 {
                by_name.push(
                    name.as_str(),
                    Value::obj().with("count", count).with("ns", ns),
                );
            }
        }
        let fold = |f: &Fold| {
            Value::obj()
                .with(
                    "sim.ctx_query",
                    vec![f.query_calls.into(), f.query_ns.into()],
                )
                .with("sim.ctx_send", vec![f.send_calls.into(), f.send_ns.into()])
                .with(
                    "core.source",
                    vec![f.source_calls.into(), f.source_ns.into()],
                )
        };
        let spans: Vec<Value> = inner
            .spans
            .iter()
            .take(max_spans)
            .map(|s| {
                let mut row = Value::obj()
                    .with("name", s.name.as_str())
                    .with(
                        "parent",
                        if s.parent == NO_PARENT {
                            Value::Null
                        } else {
                            Value::from(s.parent as u64)
                        },
                    )
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns);
                if s.fold != NO_FOLD {
                    row.push("folded", fold(&inner.folds[s.fold as usize]));
                }
                row
            })
            .collect();
        Value::obj()
            .with("spans_total", inner.spans.len())
            .with("spans_written", spans.len())
            .with("totals", by_name)
            .with("folded_totals", fold(&totals.fold))
            .with("spans", spans)
    }
}

/// The [`Context`] a traced agent's inner handler sees: the simulator's
/// own context with `query` / `send` timed and counted.
///
/// `query_range` and `broadcast` are forwarded explicitly. Left to the
/// trait's provided methods they would loop over *this* wrapper's
/// per-bit `query` / per-peer `send`, silently turning one bulk call
/// into thousands and changing what is measured.
pub struct TracedCtx<'a, M: ProtocolMessage> {
    inner: &'a mut (dyn Context<M> + 'a),
    fold: Fold,
}

impl<M: ProtocolMessage> Context<M> for TracedCtx<'_, M> {
    fn me(&self) -> PeerId {
        self.inner.me()
    }
    fn num_peers(&self) -> usize {
        self.inner.num_peers()
    }
    fn input_len(&self) -> usize {
        self.inner.input_len()
    }
    fn send(&mut self, to: PeerId, msg: M) {
        let started = Instant::now();
        self.inner.send(to, msg);
        self.fold.send_ns += started.elapsed().as_nanos() as u64;
        self.fold.send_calls += 1;
    }
    fn query(&mut self, index: usize) -> bool {
        let started = Instant::now();
        let bit = self.inner.query(index);
        self.fold.query_ns += started.elapsed().as_nanos() as u64;
        self.fold.query_calls += 1;
        bit
    }
    fn query_range(&mut self, range: Range<usize>) -> BitArray {
        let started = Instant::now();
        let bits = self.inner.query_range(range);
        self.fold.query_ns += started.elapsed().as_nanos() as u64;
        self.fold.query_calls += 1;
        bits
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        self.inner.rng()
    }
    fn broadcast(&mut self, msg: M) {
        let started = Instant::now();
        self.inner.broadcast(msg);
        self.fold.send_ns += started.elapsed().as_nanos() as u64;
        self.fold.send_calls += 1;
    }
}

/// An [`Agent`] whose every handler call is recorded as one span.
pub struct Traced<A> {
    inner: A,
    tracer: Arc<Tracer>,
}

impl<A> Traced<A> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: A, tracer: Arc<Tracer>) -> Self {
        Traced { inner, tracer }
    }

    fn record<M: ProtocolMessage>(
        &mut self,
        ctx: &mut dyn Context<M>,
        call: impl FnOnce(&mut A, &mut dyn Context<M>),
    ) {
        let (calls0, ns0) = self.tracer.source.snapshot();
        let start_ns = self.tracer.now();
        let mut traced = TracedCtx {
            inner: ctx,
            fold: Fold::default(),
        };
        call(&mut self.inner, &mut traced);
        let end_ns = self.tracer.now();
        let (calls1, ns1) = self.tracer.source.snapshot();
        let mut fold = traced.fold;
        fold.source_calls = calls1 - calls0;
        fold.source_ns = ns1 - ns0;
        self.tracer
            .leaf(SpanName::Handler, start_ns, end_ns, Some(fold));
    }
}

impl<M: ProtocolMessage, A: Agent<M>> Agent<M> for Traced<A> {
    fn on_start(&mut self, ctx: &mut dyn Context<M>) {
        self.record(ctx, |inner, ctx| inner.on_start(ctx));
    }

    fn on_message(&mut self, from: PeerId, msg: M, ctx: &mut dyn Context<M>) {
        self.record(ctx, |inner, ctx| inner.on_message(from, msg, ctx));
    }

    fn output(&self) -> Option<&BitArray> {
        self.inner.output()
    }

    fn is_terminated(&self) -> bool {
        self.inner.is_terminated()
    }
}

/// An [`Adversary`] that forwards all ten hooks to the one it wraps and
/// records a span for each of the six the simulator consults while it
/// runs. The four declarations read once at build time
/// (`planned_crashes`, `parallel_safe`, `link_fault_plan`, `lossy`) are
/// forwarded untimed — dropping any of them would quietly change the
/// run (no link faults, a different fault budget).
pub struct TracedAdversary<M> {
    inner: Box<dyn Adversary<M>>,
    tracer: Arc<Tracer>,
}

impl<M: ProtocolMessage> TracedAdversary<M> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: impl Adversary<M> + 'static, tracer: Arc<Tracer>) -> Self {
        TracedAdversary {
            inner: Box::new(inner),
            tracer,
        }
    }

    fn timed<T>(&mut self, name: SpanName, f: impl FnOnce(&mut dyn Adversary<M>) -> T) -> T {
        let start_ns = self.tracer.now();
        let out = f(self.inner.as_mut());
        let end_ns = self.tracer.now();
        self.tracer.leaf(name, start_ns, end_ns, None);
        out
    }
}

impl<M: ProtocolMessage> Adversary<M> for TracedAdversary<M> {
    fn start_offset(&mut self, peer: PeerId, rng: &mut StdRng) -> Ticks {
        self.timed(SpanName::AdvStartOffset, |a| a.start_offset(peer, rng))
    }

    fn on_send(
        &mut self,
        view: &View<'_>,
        from: PeerId,
        to: PeerId,
        msg: &M,
        rng: &mut StdRng,
    ) -> Delivery {
        self.timed(SpanName::AdvOnSend, |a| a.on_send(view, from, to, msg, rng))
    }

    fn on_quiescence(&mut self, view: &View<'_>, held: &[HeldInfo]) -> Release {
        self.timed(SpanName::AdvOnQuiescence, |a| a.on_quiescence(view, held))
    }

    fn planned_crashes(&self) -> Option<usize> {
        self.inner.planned_crashes()
    }

    fn crash_before_event(&mut self, view: &View<'_>, peer: PeerId) -> bool {
        self.timed(SpanName::AdvCrashBeforeEvent, |a| {
            a.crash_before_event(view, peer)
        })
    }

    fn crash_during_send(
        &mut self,
        view: &View<'_>,
        peer: PeerId,
        planned: usize,
    ) -> Option<usize> {
        self.timed(SpanName::AdvCrashDuringSend, |a| {
            a.crash_during_send(view, peer, planned)
        })
    }

    fn parallel_safe(&self) -> bool {
        self.inner.parallel_safe()
    }

    fn link_fault_plan(&self) -> LinkFaultPlan {
        self.inner.link_fault_plan()
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
        self.timed(SpanName::AdvOnTransmit, |a| {
            a.on_transmit(view, from, to, attempt, rng)
        })
    }
}

/// A [`Source`] that counts and times every `bit` / `bits` call into the
/// source it wraps.
pub struct TracedSource<S> {
    inner: S,
    counters: Arc<SourceCounters>,
}

impl<S: Source> TracedSource<S> {
    /// Wraps `inner`, adding to `counters` (see
    /// [`Tracer::source_counters`]).
    pub fn new(inner: S, counters: Arc<SourceCounters>) -> Self {
        TracedSource { inner, counters }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn timed<T>(&self, f: impl FnOnce(&S) -> T) -> T {
        let started = Instant::now();
        let out = f(&self.inner);
        let ns = started.elapsed().as_nanos() as u64;
        // Statistics only: nothing is published through these counters.
        self.counters.ns.fetch_add(ns, Ordering::Relaxed);
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl<S: Source> Source for TracedSource<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn bit(&self, index: usize) -> bool {
        self.timed(|s| s.bit(index))
    }
    fn bits(&self, range: Range<usize>) -> BitArray {
        self.timed(|s| s.bits(range))
    }
}

/// Cost of one `Instant::now()` / `elapsed()` pair on this host, in
/// nanoseconds: what every traced leaf call pays on top of its work.
pub fn timer_pair_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let started = Instant::now();
    let mut sink = 0u128;
    for _ in 0..PAIRS {
        let t = Instant::now();
        sink += std::hint::black_box(t.elapsed().as_nanos());
    }
    std::hint::black_box(sink);
    started.elapsed().as_nanos() as f64 / PAIRS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Unit;
    impl ProtocolMessage for Unit {
        fn bit_len(&self) -> usize {
            1
        }
    }

    /// Counts which `Context` methods reach it.
    struct Spy {
        sends: u32,
        broadcasts: u32,
        queries: u32,
        range_queries: u32,
        rng: rand::rngs::mock::StepRng,
    }

    impl Context<Unit> for Spy {
        fn me(&self) -> PeerId {
            PeerId(0)
        }
        fn num_peers(&self) -> usize {
            8
        }
        fn input_len(&self) -> usize {
            256
        }
        fn send(&mut self, _to: PeerId, _msg: Unit) {
            self.sends += 1;
        }
        fn query(&mut self, _index: usize) -> bool {
            self.queries += 1;
            true
        }
        fn query_range(&mut self, range: Range<usize>) -> BitArray {
            self.range_queries += 1;
            BitArray::zeros(range.len())
        }
        fn rng(&mut self) -> &mut dyn RngCore {
            &mut self.rng
        }
        fn broadcast(&mut self, _msg: Unit) {
            self.broadcasts += 1;
        }
    }

    /// One bulk query, one single-bit query, one broadcast, one send.
    struct Chatty;
    impl Agent<Unit> for Chatty {
        fn on_start(&mut self, ctx: &mut dyn Context<Unit>) {
            ctx.query_range(0..256);
            ctx.query(3);
            ctx.broadcast(Unit);
            ctx.send(PeerId(1), Unit);
        }
        fn on_message(&mut self, _from: PeerId, _msg: Unit, _ctx: &mut dyn Context<Unit>) {}
        fn output(&self) -> Option<&BitArray> {
            None
        }
    }

    #[test]
    fn bulk_calls_reach_the_inner_context_as_bulk_calls() {
        // Through the trait's provided methods the inner context would
        // have seen 257 single-bit queries and 8 sends.
        let tracer = Arc::new(Tracer::new());
        let mut spy = Spy {
            sends: 0,
            broadcasts: 0,
            queries: 0,
            range_queries: 0,
            rng: rand::rngs::mock::StepRng::new(0, 1),
        };
        Traced::new(Chatty, Arc::clone(&tracer)).on_start(&mut spy);
        assert_eq!(
            (spy.range_queries, spy.queries, spy.broadcasts, spy.sends),
            (1, 1, 1, 1)
        );
        let totals = tracer.totals_since(0);
        assert_eq!(totals.of(SpanName::Handler).0, 1);
        assert_eq!((totals.fold.query_calls, totals.fold.send_calls), (2, 2));
    }

    #[test]
    fn a_traced_source_counts_calls_and_returns_the_same_bits() {
        let tracer = Tracer::new();
        let bits = BitArray::from_fn(200, |i| i % 7 == 0);
        let plain = dr_core::ArraySource::new(bits.clone());
        let traced = TracedSource::new(plain.clone(), tracer.source_counters());
        assert_eq!(traced.len(), 200);
        assert_eq!(traced.bit(7), plain.bit(7));
        assert_eq!(Source::bits(&traced, 3..190), Source::bits(&plain, 3..190));
        assert_eq!(tracer.source_counters().snapshot().0, 2);
    }

    #[test]
    fn coarse_spans_nest_and_leaves_attach_to_the_innermost() {
        let tracer = Tracer::new();
        tracer.span(SpanName::Workload, || {
            tracer.span(SpanName::SimRun, || {
                tracer.leaf(SpanName::Handler, 10, 25, Some(Fold::default()));
                tracer.leaf(SpanName::AdvOnSend, 30, 31, None);
            });
            tracer.leaf(SpanName::AdvStartOffset, 40, 42, None);
        });
        let inner = tracer.lock();
        let parents: Vec<u32> = inner.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 1, 1, 0]);
        assert!(inner.open.is_empty());
    }

    #[test]
    fn totals_sum_by_name_and_fold() {
        let tracer = Tracer::new();
        let fold = Fold {
            query_calls: 3,
            query_ns: 30,
            send_calls: 1,
            send_ns: 5,
            source_calls: 2,
            source_ns: 20,
        };
        tracer.leaf(SpanName::Handler, 0, 100, Some(fold));
        let mark = tracer.len();
        tracer.leaf(SpanName::Handler, 100, 150, Some(fold));
        tracer.leaf(SpanName::AdvOnSend, 150, 160, None);
        tracer.leaf(SpanName::AdvOnTransmit, 160, 165, None);
        let all = tracer.totals_since(0);
        assert_eq!(all.of(SpanName::Handler), (2, 150));
        assert_eq!(all.adversary(), (2, 15));
        assert_eq!(all.fold.query_calls, 6);
        assert_eq!(all.fold.source_ns, 40);
        let tail = tracer.totals_since(mark);
        assert_eq!(tail.of(SpanName::Handler), (1, 50));
        let doc = tracer.to_json(2);
        assert_eq!(doc.get("spans_total").unwrap().as_f64(), Some(4.0));
        assert_eq!(doc.get("spans").unwrap().items().len(), 2);
    }
}
