//! The benchmark's measurement seam: every call it makes into a layer's
//! public function goes through [`Probe`].
//!
//! * [`Probe::step`] times one workload step (always) and marks the timed
//!   phase: it starts when the first step starts and ends when the last
//!   step returns. Everything before the first step is set-up.
//! * [`Probe::call`] is any other call into a layer. Untraced, it only
//!   runs the call. Traced, it records the call's inclusive host time,
//!   the `events_processed()` delta across it, and — in the traced binary
//!   — the allocations made inside it.
//!
//! Every time is host CPU time of the process ([`cpu_ns`]).

use sky_core::faas::FaasEngine;

use crate::alloc;
use crate::clock::cpu_ns;

/// The layer entry points the benchmark calls, one per per-layer timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Catalog::paper_world`.
    CatalogBuild,
    /// Creating deployments: `FaasEngine::deploy`, or a constructor that
    /// deploys (`SamplingCampaign::new`, `ShardedFleet::new`), counted
    /// per deployment created.
    Deploy,
    /// `FaasEngine::advance_to` between steps (maintenance events).
    Advance,
    /// `SamplingCampaign::poll_once`.
    Poll,
    /// `SamplingCampaign::new`.
    CampaignNew,
    /// `CharacterizationStore::record_with_health`.
    StoreRecord,
    /// `SmartRouter::run_burst`.
    RouterBurst,
    /// `SmartRouter::choose_az_bounded`, re-issued with a burst's own
    /// arguments.
    ChooseAz,
    /// `ResilientClient::run_burst`.
    ResilientBurst,
    /// `StreamingCharacterizer::observe`, counted per observation.
    StreamObserve,
    /// `FaasEngine::take_observations`.
    TakeObservations,
    /// `WorkloadProfiler::profile`.
    Profile,
    /// `ShardedFleet::run` at one shard.
    FleetRun,
    /// `ShardedFleet::run` at two shards (traced determinism re-run).
    FleetRunShards2,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 14;

/// Accumulated measurements of one layer entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStats {
    /// Calls made.
    pub calls: u64,
    /// Units of work the calls covered (deployments, observations);
    /// equal to `calls` unless the call site says otherwise.
    pub units: u64,
    /// Inclusive host nanoseconds.
    pub ns: u64,
    /// Engine events processed inside the calls.
    pub events: u64,
}

impl LayerStats {
    fn add(&mut self, other: &LayerStats) {
        self.calls += other.calls;
        self.units += other.units;
        self.ns += other.ns;
        self.events += other.events;
    }

    /// Mean inclusive host time per unit, in nanoseconds (0 if unused).
    pub fn ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.ns as f64 / self.units as f64
        }
    }

    /// Mean engine events per call (0 if unused).
    pub fn events_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.events as f64 / self.calls as f64
        }
    }
}

/// Per-layer totals, indexed by [`Layer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTable(pub [LayerStats; LAYERS]);

impl LayerTable {
    /// The stats of one layer.
    pub fn get(&self, layer: Layer) -> &LayerStats {
        &self.0[layer as usize]
    }

    /// Add another table into this one.
    pub fn add(&mut self, other: &LayerTable) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            a.add(b);
        }
    }
}

/// Something whose engine counters a call can advance.
pub trait Events {
    /// Engine events processed so far.
    fn events(&self) -> u64 {
        0
    }

    /// Invocations opened so far (the engine's `span/opened`).
    fn invocations(&self) -> u64 {
        0
    }
}

impl Events for FaasEngine {
    fn events(&self) -> u64 {
        self.events_processed()
    }

    fn invocations(&self) -> u64 {
        self.spans().opened_total()
    }
}

impl Events for () {}

/// Measurements of one episode (a fresh world run through the workload's
/// whole shape). Instants are [`cpu_ns`] readings.
#[derive(Debug)]
pub struct Probe {
    traced: bool,
    start: u64,
    first_step: Option<u64>,
    /// Events and invocations of the stepped context when the first step
    /// began.
    timed_from: (u64, u64),
    end: Option<u64>,
    /// Host nanoseconds of each step, in order.
    pub step_ns: Vec<u64>,
    /// Steps whose outcome broke a check.
    pub failed_steps: u64,
    /// Per-layer measurements (traced episodes only).
    pub layers: LayerTable,
    /// Allocations and bytes made inside layer calls during the timed
    /// phase (traced binary only).
    pub timed_allocs: (u64, u64),
}

impl Probe {
    /// Start an episode now.
    pub fn new(traced: bool) -> Probe {
        Probe {
            traced,
            start: cpu_ns(),
            first_step: None,
            timed_from: (0, 0),
            end: None,
            step_ns: Vec::with_capacity(1024),
            failed_steps: 0,
            layers: LayerTable::default(),
            timed_allocs: (0, 0),
        }
    }

    /// Whether this episode records per-layer measurements.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Steps completed so far.
    pub fn steps_done(&self) -> usize {
        self.step_ns.len()
    }

    /// Host seconds from the episode's start to its first step.
    pub fn setup_s(&self) -> Option<f64> {
        self.first_step.map(|t| (t - self.start) as f64 / 1e9)
    }

    /// Host nanoseconds of the timed phase: from the start of the first
    /// step to the end of the shape ([`Probe::end`]).
    pub fn timed_ns(&self) -> u64 {
        match (self.first_step, self.end) {
            (Some(a), Some(b)) => b - a,
            _ => 0,
        }
    }

    /// Record that the current step's outcome broke a check.
    pub fn fail_step(&mut self, why: &str) {
        eprintln!(
            "perfbench: step {} failed a check: {why}",
            self.step_ns.len()
        );
        self.failed_steps += 1;
    }

    /// Run one workload step on `ctx`, timing it.
    pub fn step<C: Events, R>(
        &mut self,
        layer: Layer,
        ctx: &mut C,
        f: impl FnOnce(&mut C) -> R,
    ) -> R {
        let first = self.first_step.is_none();
        if first {
            self.timed_from = (ctx.events(), ctx.invocations());
        }
        let t0 = cpu_ns();
        if first {
            self.first_step = Some(t0);
        }
        let r = self.call_as(&[(layer, 1)], ctx, f);
        self.step_ns.push(cpu_ns() - t0);
        r
    }

    /// Mark the end of the workload's shape (and of the timed phase);
    /// returns the events and invocations `ctx` processed since the first
    /// step began.
    pub fn end<C: Events>(&mut self, ctx: &C) -> (u64, u64) {
        self.end = Some(cpu_ns());
        (
            ctx.events() - self.timed_from.0,
            ctx.invocations() - self.timed_from.1,
        )
    }

    /// Run one non-step call into `layer`.
    pub fn call<C: Events, R>(
        &mut self,
        layer: Layer,
        ctx: &mut C,
        f: impl FnOnce(&mut C) -> R,
    ) -> R {
        self.call_as(&[(layer, 1)], ctx, f)
    }

    /// Add engine events observed outside a call (the fleet reports its
    /// lanes' events only through its run report).
    pub fn add_events(&mut self, layer: Layer, events: u64) {
        self.layers.0[layer as usize].events += events;
    }

    /// Run one call attributed to several layers, each with its own unit
    /// count (e.g. a campaign constructor is one `CampaignNew` and many
    /// `Deploy` units).
    pub fn call_as<C: Events, R>(
        &mut self,
        layers: &[(Layer, u64)],
        ctx: &mut C,
        f: impl FnOnce(&mut C) -> R,
    ) -> R {
        if !self.traced {
            return f(ctx);
        }
        let events0 = ctx.events();
        let allocs0 = alloc::totals();
        let t1 = cpu_ns();
        let r = f(ctx);
        let ns = cpu_ns() - t1;
        let allocs1 = alloc::totals();
        let events = ctx.events() - events0;
        // Calls after the first step has begun belong to the timed phase.
        if self.first_step.is_some() {
            self.timed_allocs.0 += allocs1.0 - allocs0.0;
            self.timed_allocs.1 += allocs1.1 - allocs0.1;
        }
        for &(layer, units) in layers {
            let s = &mut self.layers.0[layer as usize];
            s.calls += 1;
            s.units += units;
            s.ns += ns;
            s.events += events;
        }
        r
    }
}
