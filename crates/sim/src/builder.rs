//! Fluent construction of simulations.

use crate::adversary::{Adversary, StandardAdversary};
use crate::agent::Agent;
use crate::shard::SLOT_LIMIT;
use crate::sim::Simulation;
use crate::view::PeerRole;
use dr_core::{ArraySource, BitArray, ModelParams, PeerId, ProtocolMessage, Source};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Factory producing each peer's agent; `Send` so a built
/// [`Simulation`] can move to a worker thread.
type AgentFactory<M> = Box<dyn FnMut(PeerId) -> Box<dyn Agent<M>> + Send>;

/// Builder for a [`Simulation`].
///
/// # Examples
///
/// ```
/// use dr_core::{BitArray, Context, ModelParams, PeerId, Protocol, ProtocolMessage};
/// use dr_sim::SimBuilder;
///
/// #[derive(Debug, Clone)]
/// struct Nothing;
/// impl ProtocolMessage for Nothing {
///     fn bit_len(&self) -> usize { 0 }
/// }
///
/// /// Trivial protocol: query everything on start, terminate.
/// struct Naive(Option<BitArray>);
/// impl Protocol for Naive {
///     type Msg = Nothing;
///     fn on_start(&mut self, ctx: &mut dyn Context<Nothing>) {
///         let n = ctx.input_len();
///         self.0 = Some(ctx.query_range(0..n));
///     }
///     fn on_message(&mut self, _: PeerId, _: Nothing, _: &mut dyn Context<Nothing>) {}
///     fn output(&self) -> Option<&BitArray> { self.0.as_ref() }
/// }
///
/// let params = ModelParams::fault_free(32, 4)?;
/// let report = SimBuilder::new(params)
///     .seed(7)
///     .protocol(|_id| Naive(None))
///     .build()
///     .run()
///     .unwrap();
/// assert_eq!(report.max_nonfaulty_queries, 32);
/// # Ok::<(), dr_core::InvalidParamsError>(())
/// ```
pub struct SimBuilder<M: ProtocolMessage> {
    params: ModelParams,
    seed: u64,
    input: Option<BitArray>,
    custom_source: Option<Box<dyn Source>>,
    streaming_source: Option<Box<dyn Source>>,
    adversary: Option<Box<dyn Adversary<M>>>,
    factory: Option<AgentFactory<M>>,
    byzantine: Vec<(PeerId, Box<dyn Agent<M>>)>,
    max_events: u64,
    slab_capacity: u32,
    index_tracking: bool,
    trace: bool,
}

impl<M: ProtocolMessage> SimBuilder<M> {
    /// Starts a builder for the given model parameters.
    pub fn new(params: ModelParams) -> Self {
        SimBuilder {
            params,
            seed: 0,
            input: None,
            custom_source: None,
            streaming_source: None,
            adversary: None,
            factory: None,
            byzantine: Vec::new(),
            max_events: 50_000_000,
            slab_capacity: SLOT_LIMIT,
            index_tracking: false,
            trace: false,
        }
    }

    /// Sets the master seed (input generation, per-peer RNGs, adversary
    /// RNG). Same seed, same configuration ⇒ identical execution.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses an explicit input array instead of a seeded random one.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from `params.n()`.
    pub fn input(mut self, input: BitArray) -> Self {
        assert_eq!(input.len(), self.params.n(), "input length != n");
        self.input = Some(input);
        self
    }

    /// Replaces the standard in-memory source with a custom [`Source`]
    /// implementation, keeping `reference` as the snapshot that
    /// [`RunReport::verify_downloads`](crate::RunReport::verify_downloads)
    /// and [`Simulation::input`] report against. The custom source is free
    /// to violate the static-data assumption (see the `dr-oracle`
    /// dynamic-data demonstration) — the DR model's guarantees then no
    /// longer apply.
    ///
    /// # Panics
    ///
    /// Panics if the source length differs from `params.n()`.
    pub fn source(mut self, source: impl Source + 'static, reference: BitArray) -> Self {
        assert_eq!(source.len(), self.params.n(), "source length != n");
        assert_eq!(reference.len(), self.params.n(), "reference length != n");
        self.custom_source = Some(Box::new(source));
        self.input = Some(reference);
        self
    }

    /// Sets the honest-protocol factory, called once per peer.
    pub fn protocol<P, F>(mut self, mut f: F) -> Self
    where
        P: crate::agent::Agent<M> + 'static,
        F: FnMut(PeerId) -> P + Send + 'static,
    {
        self.factory = Some(Box::new(move |id| Box::new(f(id))));
        self
    }

    /// Replaces the peer `id` with a Byzantine behaviour. The number of
    /// Byzantine peers must stay within the fault budget `b`.
    pub fn byzantine(mut self, id: PeerId, behaviour: impl Agent<M> + 'static) -> Self {
        self.byzantine.push((id, Box::new(behaviour)));
        self
    }

    /// Installs the adversary (defaults to [`StandardAdversary::benign`]).
    pub fn adversary(mut self, adversary: impl Adversary<M> + 'static) -> Self {
        self.adversary = Some(Box::new(adversary));
        self
    }

    /// Replaces the in-memory source with a [`Source`] that is *never*
    /// materialized as a resident reference array — the whole point of
    /// generate-on-demand sources like
    /// [`ChunkedSource`](dr_core::ChunkedSource) at billion-bit `n`.
    /// [`Simulation::input`] panics for such runs; verify outputs with
    /// [`RunReport::verify_downloads_source`](crate::RunReport::verify_downloads_source)
    /// against an equivalent source instead.
    ///
    /// # Panics
    ///
    /// Panics (at [`build`](Self::build)) if the source length differs
    /// from `params.n()`, or if [`input`](Self::input) /
    /// [`source`](Self::source) was also set.
    pub fn streaming_source(mut self, source: impl Source + 'static) -> Self {
        self.streaming_source = Some(Box::new(source));
        self
    }

    /// Overrides the livelock guard (default: 50 million): the run fails
    /// with [`RunError::EventLimitExceeded`](crate::RunError::EventLimitExceeded)
    /// once its handler steps plus its resends of dropped messages reach
    /// `limit`.
    pub fn max_events(mut self, limit: u64) -> Self {
        self.max_events = limit;
        self
    }

    /// Caps the message slab at `capacity` payload slots (default and
    /// ceiling: 2³¹ − 1, the most slots a queued event can address; a
    /// larger `capacity` is clamped to it). A message in flight occupies
    /// one slot, a broadcast one however many recipients wait for it.
    /// Exceeding the cap surfaces as
    /// [`RunError::SlabOverflow`](crate::RunError::SlabOverflow) from
    /// [`Simulation::run`] instead of aborting the process.
    pub fn slab_capacity(mut self, capacity: u32) -> Self {
        self.slab_capacity = capacity.min(SLOT_LIMIT);
        self
    }

    /// Enables per-peer query-index tracking on the meter (needed by the
    /// lower-bound adversaries).
    pub fn track_query_indices(mut self) -> Self {
        self.index_tracking = true;
        self
    }

    /// Records a structured execution trace, returned on
    /// [`RunReport::trace`](crate::RunReport) and renderable with
    /// [`render_trace`](crate::render_trace).
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Constructs the simulation.
    ///
    /// # Panics
    ///
    /// Panics if no protocol factory was supplied, a Byzantine ID is out of
    /// range or duplicated, or Byzantine peers exceed the fault budget.
    pub fn build(mut self) -> Simulation<M> {
        let k = self.params.k();
        let n = self.params.n();
        let (input, source) = if let Some(stream) = self.streaming_source.take() {
            assert!(
                self.input.is_none() && self.custom_source.is_none(),
                "streaming_source is mutually exclusive with input/source"
            );
            assert_eq!(stream.len(), n, "streaming source length != n");
            (None, stream)
        } else {
            let input = self.input.take().unwrap_or_else(|| {
                let mut rng = StdRng::seed_from_u64(self.seed ^ 0x1234_5678);
                BitArray::random(n, &mut rng)
            });
            let source = self
                .custom_source
                .unwrap_or_else(|| Box::new(ArraySource::new(input.clone())));
            (Some(input), source)
        };
        let mut factory = self.factory.expect("protocol factory not set");
        let mut byz_ids: Vec<usize> = self.byzantine.iter().map(|(p, _)| p.index()).collect();
        byz_ids.sort_unstable();
        let dupes = byz_ids.windows(2).any(|w| w[0] == w[1]);
        assert!(!dupes, "duplicate Byzantine peer IDs");
        assert!(
            byz_ids.iter().all(|&i| i < k),
            "Byzantine peer ID out of range"
        );
        let mut byz: Vec<Option<Box<dyn Agent<M>>>> = (0..k).map(|_| None).collect();
        for (id, agent) in self.byzantine {
            byz[id.index()] = Some(agent);
        }
        let mut agents = Vec::with_capacity(k);
        let mut roles = Vec::with_capacity(k);
        for (i, slot) in byz.into_iter().enumerate() {
            match slot {
                Some(agent) => {
                    agents.push(agent);
                    roles.push(PeerRole::Byzantine);
                }
                None => {
                    agents.push(factory(PeerId(i)));
                    roles.push(PeerRole::Honest);
                }
            }
        }
        let adversary = self
            .adversary
            .unwrap_or_else(|| Box::new(StandardAdversary::benign()));
        let mut sim = Simulation::from_parts(
            self.params,
            input,
            source,
            self.index_tracking,
            agents,
            roles,
            adversary,
            self.seed,
            self.max_events,
            self.slab_capacity,
        );
        if self.trace {
            sim.enable_trace();
        }
        sim
    }
}

// The bench harness fans trials across worker threads, constructing and
// running simulations off the main thread. Every trait object a builder
// or simulation holds has a `Send` supertrait (Agent, Adversary,
// DelayStrategy, Source) and the factory box is `+ Send`, so both types
// are `Send` for every message type — checked at compile time here.
#[allow(dead_code)]
fn assert_builder_and_simulation_are_send<M: ProtocolMessage>() {
    fn assert_send<T: Send>() {}
    assert_send::<SimBuilder<M>>();
    assert_send::<Simulation<M>>();
}
