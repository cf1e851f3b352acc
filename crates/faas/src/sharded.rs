//! AZ-sharded fleet execution: conservative-window parallel simulation.
//!
//! A [`ShardedFleet`] runs one independent [`FaasEngine`] per availability
//! zone ("lane") and advances all lanes in lock-step *windows* of virtual
//! time. Lanes only interact through **forwards**: a request that a zone
//! sheds (throttle or capacity exhaustion) is re-submitted to the next
//! lane in the ring after a network hop. Because every cross-lane hop
//! pays at least the minimum cross-AZ one-way latency, a window length of
//! exactly that minimum guarantees that work generated during window *w*
//! can only affect other lanes from window *w + 1* on — the classic
//! conservative-lookahead argument. Within a window each lane is fully
//! sequential and touches no shared state, so lanes can be partitioned
//! into `shards` thread-parallel groups without any synchronization finer
//! than the per-window barrier.
//!
//! # Determinism
//!
//! The shard count is a *throughput* knob, never a *semantics* knob:
//!
//! * Each lane's engine is seeded from
//!   `seed → "fleet-lane" → <zone name>`, so its random streams depend
//!   only on the root seed and the zone — not on which thread runs it.
//! * A lane consumes arrivals strictly in `(due time, arrival id)` order,
//!   and arrival ids are assigned by a deterministic reducer: forwards
//!   produced during a window are collected at the barrier in lane order,
//!   sorted by `(due SimTime, source lane, per-lane sequence)`, and only
//!   then numbered.
//! * Within a window a lane dispatches its whole due-set as **one**
//!   `run_batch` call (batched dispatch), which amortizes batch setup and
//!   keeps the engine's internal event order a pure function of the
//!   due-set.
//!
//! Consequently [`FleetReport::digest`] is byte-identical for any shard
//! count; the `bench_engine_fleet` experiment, run by the golden
//! harness, asserts this at shards 1, 2 and 8.
//!
//! One approximation is inherent to window execution: a lane whose clock
//! ran past a forward's due time delivers it at `max(due, lane now)`.
//! This is the standard conservative-simulation compromise and is — like
//! everything else here — independent of the shard count.

use crate::engine::{FaasEngine, FleetConfig};
use crate::ids::DeploymentId;
use crate::request::{BatchRequest, InvocationOutcome, InvocationStatus, RequestBody};
use sky_cloud::{Arch, AzId, Catalog, GeoPoint, LatencyModel, PriceBook};
use sky_sim::{SimDuration, SimRng, SimTime};

/// Window length used when the fleet has a single lane (no cross-lane
/// traffic exists, so any positive window is correct).
const SOLO_WINDOW: SimDuration = SimDuration::from_millis(50);

/// Maximum cross-lane hops a shed request may take before its shed
/// outcome becomes terminal.
const MAX_HOPS: u32 = 2;

/// FNV-1a 64-bit offset basis / prime — the workspace's standard cheap
/// deterministic digest (no hasher state beyond one u64).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[inline]
fn fnv_fold_u64(hash: u64, value: u64) -> u64 {
    fnv_fold(hash, &value.to_le_bytes())
}

/// Dense status tag for digests (the [`SaafReport`] payload itself is
/// host-dependent only through `Arc` identity, never through content, but
/// digesting the tag + billing keeps the fold cheap and unambiguous).
///
/// [`SaafReport`]: crate::report::SaafReport
#[inline]
fn status_code(status: &InvocationStatus) -> u8 {
    match status {
        InvocationStatus::Success(_) => 0,
        InvocationStatus::Declined(_) => 1,
        InvocationStatus::Throttled => 2,
        InvocationStatus::NoCapacity => 3,
    }
}

/// One request submitted to a [`ShardedFleet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetRequest {
    /// Index of the originating lane (position in the `azs` slice the
    /// fleet was built with).
    pub lane: usize,
    /// Absolute arrival time at that lane.
    pub at: SimTime,
    /// The function input.
    pub body: RequestBody,
}

/// An arrival waiting in a lane's inbox, ordered by `(at, id)`.
#[derive(Debug, Clone, Copy)]
struct PendingArrival {
    at: SimTime,
    /// Fleet-wide arrival id: input index for submitted requests, then
    /// barrier-assigned for forwards. Total order ⇒ stable FIFO ties.
    id: u64,
    /// Cross-lane hops taken so far (0 = original submission).
    hops: u32,
    body: RequestBody,
}

/// A shed request travelling to the next lane, produced during a window
/// and merged at its barrier.
#[derive(Debug, Clone, Copy)]
struct Forward {
    /// Due time at the destination: `finished + one-way latency`.
    at: SimTime,
    src_lane: u32,
    /// Emission order within the source lane's window (merge tiebreak).
    src_seq: u32,
    dst_lane: u32,
    hops: u32,
    body: RequestBody,
}

/// Terminal-outcome counters, accumulated per lane and summed for the
/// report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCounts {
    /// Requests that reached a terminal outcome on this lane.
    pub completed: u64,
    /// Terminal successes.
    pub success: u64,
    /// Terminal gated declines.
    pub declined: u64,
    /// Terminal quota throttles (forward hops exhausted).
    pub throttled: u64,
    /// Terminal capacity exhaustion (forward hops exhausted).
    pub no_capacity: u64,
    /// Shed outcomes forwarded to the next lane instead of reported.
    pub forwarded: u64,
}

impl FleetCounts {
    fn add(&mut self, other: &FleetCounts) {
        self.completed += other.completed;
        self.success += other.success;
        self.declined += other.declined;
        self.throttled += other.throttled;
        self.no_capacity += other.no_capacity;
        self.forwarded += other.forwarded;
    }
}

/// One availability zone's share of the fleet: a private engine, an
/// inbox, and this window's outbox. No state here is ever touched by two
/// threads in the same window — the outbox is drained only after the
/// barrier, on the coordinating thread.
struct Lane {
    engine: FaasEngine,
    deployment: DeploymentId,
    /// Inbox, kept sorted by `(at, id)`.
    pending: Vec<PendingArrival>,
    /// Forwards emitted during the current window (drained at barrier).
    outbox: Vec<Forward>,
    /// Ring successor and the one-way latency to it.
    forward_to: u32,
    forward_latency: SimDuration,
    digest: u64,
    counts: FleetCounts,
}

impl Lane {
    /// Run every arrival due before `window_end` as one batch; classify
    /// outcomes into terminal counts or ring forwards.
    fn step(&mut self, self_idx: u32, window_end: SimTime) {
        let due_len = self.pending.partition_point(|p| p.at < window_end);
        if due_len == 0 {
            return;
        }
        let due: Vec<PendingArrival> = self.pending.drain(..due_len).collect();
        let start = self.engine.now();
        let batch: Vec<BatchRequest> = due
            .iter()
            .map(|p| BatchRequest {
                deployment: self.deployment,
                offset: p.at.saturating_since(start),
                body: p.body,
            })
            .collect();
        let outcomes = self.engine.run_batch(batch);
        debug_assert_eq!(outcomes.len(), due.len());
        for (arr, outcome) in due.iter().zip(&outcomes) {
            self.fold_outcome(arr, outcome);
            let shed = matches!(
                outcome.status,
                InvocationStatus::Throttled | InvocationStatus::NoCapacity
            );
            if shed && arr.hops < MAX_HOPS && self.forward_to != self_idx {
                self.counts.forwarded += 1;
                self.outbox.push(Forward {
                    at: outcome.finished + self.forward_latency,
                    src_lane: self_idx,
                    src_seq: self.outbox.len() as u32,
                    dst_lane: self.forward_to,
                    hops: arr.hops + 1,
                    body: arr.body,
                });
            } else {
                self.counts.completed += 1;
                match outcome.status {
                    InvocationStatus::Success(_) => self.counts.success += 1,
                    InvocationStatus::Declined(_) => self.counts.declined += 1,
                    InvocationStatus::Throttled => self.counts.throttled += 1,
                    InvocationStatus::NoCapacity => self.counts.no_capacity += 1,
                }
            }
        }
    }

    /// Fold one observed outcome (terminal or forwarded) into the lane
    /// digest. Everything digested is integer-exact: f64 cost is rounded
    /// to nano-USD once, the same rule the metrics layer uses.
    fn fold_outcome(&mut self, arr: &PendingArrival, outcome: &InvocationOutcome) {
        let mut h = self.digest;
        h = fnv_fold_u64(h, arr.id);
        h = fnv_fold_u64(h, arr.hops as u64);
        h = fnv_fold_u64(h, outcome.arrived.as_micros());
        h = fnv_fold_u64(h, outcome.finished.as_micros());
        h = fnv_fold(h, &[status_code(&outcome.status)]);
        h = fnv_fold_u64(h, outcome.billed.as_micros());
        h = fnv_fold_u64(h, PriceBook::nano_usd(outcome.cost_usd));
        h = fnv_fold_u64(h, outcome.attempts as u64);
        self.digest = h;
    }

    /// Insert a merged forward into the inbox, keeping `(at, id)` order.
    fn push_pending(&mut self, arrival: PendingArrival) {
        let pos = self
            .pending
            .partition_point(|p| (p.at, p.id) <= (arrival.at, arrival.id));
        self.pending.insert(pos, arrival);
    }
}

/// Summary of one [`ShardedFleet::run`], identical for every shard count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Order-insensitive-to-sharding digest over every lane's observed
    /// outcomes and event counts — the equivalence token the scaling
    /// experiment and CI compare across shard counts.
    pub digest: u64,
    /// Per-lane digests, in lane order (localizes any divergence).
    pub lane_digests: Vec<u64>,
    /// Requests submitted to this run.
    pub submitted: u64,
    /// Terminal-outcome counters summed over lanes.
    pub counts: FleetCounts,
    /// Synchronization windows executed.
    pub windows: u64,
    /// Window length used (the conservative lookahead).
    pub window: SimDuration,
    /// Discrete events processed across all lane engines.
    pub events: u64,
    /// Lanes (availability zones) in the fleet.
    pub lanes: usize,
    /// Shard (thread-group) count the run executed with.
    pub shards: usize,
}

/// The conservative-window parallel fleet; see the module docs.
pub struct ShardedFleet {
    lanes: Vec<Lane>,
    shards: usize,
    window: SimDuration,
    next_id: u64,
    windows_run: u64,
}

impl std::fmt::Debug for ShardedFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedFleet")
            .field("lanes", &self.lanes.len())
            .field("shards", &self.shards)
            .field("window", &self.window)
            .finish()
    }
}

impl ShardedFleet {
    /// Build a fleet with one lane per zone in `azs` (order defines lane
    /// indices), each holding a `memory_mb` x86 deployment. `shards`
    /// caps the thread-parallel lane groups; `0` is treated as `1`.
    ///
    /// # Panics
    ///
    /// Panics if `azs` is empty, contains a zone missing from the
    /// catalog, or names a provider that rejects `memory_mb`.
    pub fn new(
        catalog: &Catalog,
        config: FleetConfig,
        azs: &[AzId],
        memory_mb: u32,
        shards: usize,
    ) -> Self {
        assert!(!azs.is_empty(), "fleet needs at least one zone");
        let seed_root = SimRng::seed_from(config.seed).derive("fleet-lane");
        let geos: Vec<GeoPoint> = azs
            .iter()
            .map(|az| {
                catalog
                    .region(az.region())
                    .unwrap_or_else(|| panic!("zone {az} not in catalog"))
                    .geo
            })
            .collect();
        let window = min_one_way_latency(&geos).unwrap_or(SOLO_WINDOW);
        let latency = LatencyModel::default();
        let n = azs.len();
        let lanes: Vec<Lane> = azs
            .iter()
            .enumerate()
            .map(|(i, az)| {
                // Lane seed depends only on (root seed, zone name):
                // identical engine behaviour at any shard count.
                let mut lane_cfg = config;
                lane_cfg.seed = seed_root.derive(&az.to_string()).next_u64();
                let mut engine = FaasEngine::new(catalog.clone(), lane_cfg);
                let provider = catalog
                    .az(az)
                    .unwrap_or_else(|| panic!("zone {az} not in catalog"))
                    .provider;
                let account = engine.create_account(provider);
                let deployment = engine
                    .deploy(account, az, memory_mb, Arch::X86_64)
                    .unwrap_or_else(|e| panic!("fleet deploy to {az} failed: {e}"));
                let forward_to = ((i + 1) % n) as u32;
                Lane {
                    engine,
                    deployment,
                    pending: Vec::new(),
                    outbox: Vec::new(),
                    forward_to,
                    forward_latency: latency.one_way(&geos[i], &geos[forward_to as usize]),
                    digest: FNV_OFFSET,
                    counts: FleetCounts::default(),
                }
            })
            .collect();
        ShardedFleet {
            lanes,
            shards: shards.max(1),
            window,
            next_id: 0,
            windows_run: 0,
        }
    }

    /// The conservative lookahead: the minimum cross-lane one-way
    /// latency (or a fixed 50 ms for single-lane fleets).
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Run `requests` to completion (including all ring forwards) and
    /// report aggregate outcomes. May be called repeatedly; lane engines
    /// keep their clocks and warm state across runs.
    pub fn run(&mut self, requests: &[FleetRequest]) -> FleetReport {
        for req in requests {
            assert!(
                req.lane < self.lanes.len(),
                "request targets lane {} of {}",
                req.lane,
                self.lanes.len()
            );
            let id = self.next_id;
            self.next_id += 1;
            self.lanes[req.lane].push_pending(PendingArrival {
                at: req.at,
                id,
                hops: 0,
                body: req.body,
            });
        }
        let window_us = self.window.as_micros();
        let mut windows = 0u64;
        while let Some(earliest) = self
            .lanes
            .iter()
            .filter_map(|l| l.pending.first().map(|p| p.at))
            .min()
        {
            // Jump straight to the window containing the earliest work;
            // empty windows cost nothing.
            let window_end =
                SimTime::from_micros((earliest.as_micros() / window_us + 1) * window_us);
            self.step_window(window_end);
            self.merge_forwards(window_end);
            windows += 1;
        }
        self.windows_run += windows;
        let lane_digests: Vec<u64> = self.lanes.iter().map(|l| l.digest).collect();
        let mut digest = FNV_OFFSET;
        let mut counts = FleetCounts::default();
        let mut events = 0u64;
        for lane in &self.lanes {
            digest = fnv_fold_u64(digest, lane.digest);
            digest = fnv_fold_u64(digest, lane.engine.events_processed());
            counts.add(&lane.counts);
            events += lane.engine.events_processed();
        }
        FleetReport {
            digest,
            lane_digests,
            submitted: requests.len() as u64,
            counts,
            windows: self.windows_run,
            window: self.window,
            events,
            lanes: self.lanes.len(),
            shards: self.shards,
        }
    }

    /// Advance every lane through one window, `shards`-way parallel.
    /// Lanes are split into contiguous groups; each group runs on its
    /// own scoped thread and mutates only its own lanes (results land in
    /// per-lane fields — no shared accumulator, no lock ordering).
    fn step_window(&mut self, window_end: SimTime) {
        let shards = self.shards.min(self.lanes.len());
        let n = self.lanes.len();
        if shards <= 1 {
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                lane.step(i as u32, window_end);
            }
            return;
        }
        // Contiguous even partition: group g owns lanes [g·n/s, (g+1)·n/s).
        let mut groups: Vec<(usize, &mut [Lane])> = Vec::with_capacity(shards);
        let mut rest: &mut [Lane] = &mut self.lanes;
        let mut taken = 0usize;
        for g in 0..shards {
            let end = (g + 1) * n / shards;
            let (head, tail) = rest.split_at_mut(end - taken);
            groups.push((taken, head));
            rest = tail;
            taken = end;
        }
        crossbeam::thread::scope(|s| {
            for (base, group) in groups {
                s.spawn(move |_| {
                    for (offset, lane) in group.iter_mut().enumerate() {
                        lane.step((base + offset) as u32, window_end);
                    }
                });
            }
        })
        .expect("fleet shard thread panicked");
    }

    /// Window barrier: gather every lane's outbox, order forwards by the
    /// deterministic `(due time, source lane, source sequence)` key,
    /// number them from the fleet counter, and deliver to destination
    /// inboxes. Runs on the coordinating thread only.
    fn merge_forwards(&mut self, window_end: SimTime) {
        let mut forwards: Vec<Forward> = Vec::new();
        for lane in &mut self.lanes {
            forwards.append(&mut lane.outbox);
        }
        if forwards.is_empty() {
            return;
        }
        forwards.sort_by_key(|f| (f.at, f.src_lane, f.src_seq));
        for f in forwards {
            // Lookahead guarantee: a forward can never land inside the
            // window that produced it.
            debug_assert!(
                f.at >= window_end,
                "forward due {} inside window ending {window_end}",
                f.at
            );
            let id = self.next_id;
            self.next_id += 1;
            self.lanes[f.dst_lane as usize].push_pending(PendingArrival {
                at: f.at,
                id,
                hops: f.hops,
                body: f.body,
            });
        }
    }
}

/// Minimum one-way latency over all ordered lane pairs, `None` if there
/// are fewer than two lanes.
fn min_one_way_latency(geos: &[GeoPoint]) -> Option<SimDuration> {
    let latency = LatencyModel::default();
    let mut min: Option<SimDuration> = None;
    for (i, a) in geos.iter().enumerate() {
        for b in geos.iter().skip(i + 1) {
            let d = latency.one_way(a, b);
            min = Some(match min {
                Some(m) if m <= d => m,
                _ => d,
            });
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;
    use sky_sim::SimDuration;

    fn azs(names: &[&str]) -> Vec<AzId> {
        names.iter().map(|s| s.parse().unwrap()).collect()
    }

    /// A load mix that sheds: 1200 concurrent 2 s sleeps per lane inside
    /// one window (8 ms spread < any window), over the 1000-per-account
    /// quota, so every lane throttles part of its burst and forwards it
    /// around the ring.
    fn stress_requests(lanes: usize) -> Vec<FleetRequest> {
        let mut reqs = Vec::new();
        for i in 0..(1_200 * lanes as u64) {
            reqs.push(FleetRequest {
                lane: (i % lanes as u64) as usize,
                at: SimTime::ZERO + SimDuration::from_millis(i % 8),
                body: RequestBody::Sleep {
                    duration: SimDuration::from_secs(2),
                },
            });
        }
        reqs
    }

    fn run_with_shards(shards: usize) -> FleetReport {
        let catalog = Catalog::paper_world(11);
        let zones = azs(&["us-west-1a", "us-east-2a", "eu-north-1a", "eu-central-1a"]);
        let mut fleet = ShardedFleet::new(&catalog, FleetConfig::new(11), &zones, 10_240, shards);
        fleet.run(&stress_requests(zones.len()))
    }

    #[test]
    fn digest_is_shard_invariant() {
        let one = run_with_shards(1);
        let two = run_with_shards(2);
        let eight = run_with_shards(8);
        assert_eq!(one.digest, two.digest);
        assert_eq!(one.digest, eight.digest);
        assert_eq!(one.lane_digests, two.lane_digests);
        assert_eq!(one.lane_digests, eight.lane_digests);
        assert_eq!(one.counts, eight.counts);
        assert_eq!(one.events, eight.events);
        assert_eq!(one.windows, eight.windows);
        // The mix actually produced cross-lane traffic, so the
        // equivalence above exercised the barrier reducer.
        assert!(one.counts.forwarded > 0, "stress mix should forward");
        assert_eq!(one.counts.completed, one.submitted);
    }

    #[test]
    fn digest_is_shard_invariant_with_exec_modes_active() {
        // Same invariance with the full mode machinery live in every
        // lane: checkpointed instances restoring from snapshots, a fixed
        // pre-warm pool, and the recurring pool tick. Lane configs carry
        // the profile, so each lane's deploy arms its own pool.
        use crate::lifecycle::{ExecMode, ExecProfile, PoolPolicy};
        let run = |shards: usize| {
            let catalog = Catalog::paper_world(17);
            let zones = azs(&["us-west-1a", "us-east-2a", "eu-north-1a", "eu-central-1a"]);
            let mut cfg = FleetConfig::new(17);
            cfg.exec_profile = ExecProfile::for_mode(ExecMode::Checkpointed)
                .with_pool(PoolPolicy::Fixed { target: 8, cap: 8 });
            let mut fleet = ShardedFleet::new(&catalog, cfg, &zones, 10_240, shards);
            fleet.run(&stress_requests(zones.len()))
        };
        let one = run(1);
        let two = run(2);
        let eight = run(8);
        assert_eq!(one.digest, two.digest);
        assert_eq!(one.digest, eight.digest);
        assert_eq!(one.lane_digests, eight.lane_digests);
        assert_eq!(one.counts, eight.counts);
        assert_eq!(one.events, eight.events);
        assert!(one.counts.forwarded > 0, "stress mix should forward");
        assert_eq!(one.counts.completed, one.submitted);
    }

    #[test]
    fn window_is_min_cross_lane_latency() {
        let catalog = Catalog::paper_world(3);
        let zones = azs(&["us-west-1a", "us-east-2a", "eu-central-1a"]);
        let fleet = ShardedFleet::new(&catalog, FleetConfig::new(3), &zones, 2048, 1);
        let geos: Vec<GeoPoint> = zones
            .iter()
            .map(|az| catalog.region(az.region()).unwrap().geo)
            .collect();
        assert_eq!(fleet.window(), min_one_way_latency(&geos).unwrap());
        assert!(fleet.window() > SimDuration::ZERO);
    }

    #[test]
    fn single_lane_uses_solo_window_and_never_forwards() {
        let catalog = Catalog::paper_world(5);
        let zones = azs(&["eu-north-1a"]);
        let mut fleet = ShardedFleet::new(&catalog, FleetConfig::new(5), &zones, 10_240, 4);
        assert_eq!(fleet.window(), SOLO_WINDOW);
        let report = fleet.run(&stress_requests(1));
        assert_eq!(report.counts.forwarded, 0);
        assert_eq!(report.counts.completed, report.submitted);
        assert!(report.counts.throttled > 0, "over-quota burst should shed");
    }

    #[test]
    fn forwards_complete_on_the_ring() {
        // Two lanes, one tiny: exhaust lane 1 so its shed requests hop
        // to lane 0 and succeed there.
        let catalog = Catalog::paper_world(9);
        let zones = azs(&["us-east-2a", "eu-north-1a"]);
        let mut fleet = ShardedFleet::new(&catalog, FleetConfig::new(9), &zones, 10_240, 2);
        let reqs: Vec<FleetRequest> = (0..1_600)
            .map(|i| FleetRequest {
                lane: 1,
                at: SimTime::ZERO + SimDuration::from_millis(i % 40),
                body: RequestBody::Sleep {
                    duration: SimDuration::from_secs(2),
                },
            })
            .collect();
        let report = fleet.run(&reqs);
        assert!(report.counts.forwarded > 0, "lane 1 should shed");
        assert_eq!(report.counts.completed, report.submitted);
        assert!(
            report.counts.success > report.submitted - report.counts.forwarded,
            "some forwarded requests succeed on lane 0"
        );
    }

    #[test]
    fn repeated_runs_continue_deterministically() {
        let run_split = |shards: usize| {
            let catalog = Catalog::paper_world(13);
            let zones = azs(&["us-west-1a", "us-east-2a"]);
            let mut fleet = ShardedFleet::new(&catalog, FleetConfig::new(13), &zones, 2048, shards);
            let all = stress_requests(2);
            let (a, b) = all.split_at(all.len() / 2);
            fleet.run(a);
            fleet.run(b).digest
        };
        assert_eq!(run_split(1), run_split(2));
    }
}
