//! Per-AZ platform state: the host fleet, function instances, placement,
//! keep-alive, churn and reactive scaling.
//!
//! This is the machinery whose *externally observable* behaviour the paper
//! measures: finite heterogeneous capacity (saturation, EX-1), hidden CPU
//! mixes (EX-2/3), day-scale churn and hour-scale load (EX-4), and
//! placement that routes warm traffic back to existing FIs (the effect the
//! sampling campaign's sleep interval must outrun, Figure 3).

use crate::ids::{DeploymentId, HostId, InstanceId};
use crate::lifecycle::{ExecMode, ExecProfile, PoolPolicy, SnapshotId, StartClass};
use crate::report::SaafReport;
use sky_cloud::{Arch, AzSpec, ChurnModel, CpuMix, CpuType, DiurnalModel, FaultKind};
use sky_sim::{SimDuration, SimRng, SimTime, Slab, SlotKey, Uuid};
use std::collections::BTreeMap;

/// A bare-metal host backing microVM function instances.
#[derive(Debug, Clone)]
pub struct Host {
    /// Identity (changes when the host is recycled).
    pub id: HostId,
    /// CPU type of every FI placed on this host.
    pub cpu: CpuType,
    /// Architecture served.
    pub arch: Arch,
    /// Memory capacity, MB.
    pub mem_total_mb: u64,
    /// Memory currently allocated to live FIs, MB.
    pub mem_used_mb: u64,
    /// Live FI count (busy or warm-idle).
    pub live_instances: u32,
}

impl Host {
    fn free_mb(&self) -> u64 {
        self.mem_total_mb - self.mem_used_mb
    }
}

/// A function instance (execution environment).
#[derive(Debug, Clone)]
pub struct Instance {
    /// Engine-visible identity.
    pub id: InstanceId,
    /// The uuid SAAF observes (persisted in the FI's `/tmp`). A `Copy`
    /// value, so each report copies it without allocating.
    pub uuid: Uuid,
    /// Host index within the platform's host vector.
    pub host_index: usize,
    /// Host identity at placement time.
    pub host_id: HostId,
    /// Deployment this FI serves (FIs are never shared across functions).
    pub deployment: DeploymentId,
    /// The CPU this FI landed on.
    pub cpu: CpuType,
    /// Memory reserved, MB.
    pub memory_mb: u32,
    /// Whether an invocation is currently executing.
    pub busy: bool,
    /// Instant after which an idle FI may be reclaimed.
    pub keep_alive_until: SimTime,
    /// Guard against stale expire events: each idle period bumps this.
    pub expire_epoch: u64,
    /// Number of invocations served.
    pub invocations: u64,
    /// Payload hashes already decoded and cached on this FI's scratch
    /// volume (the dynamic-function cache).
    pub payload_cache: PayloadCache,
    /// Lifecycle mode, fixed at creation from the deployment's
    /// [`ExecProfile`] — an instance is billed under exactly one mode
    /// for its whole life.
    pub mode: ExecMode,
    /// The snapshot this instance was restored or CoW-branched from,
    /// if any.
    pub parent_snapshot: Option<SnapshotId>,
}

/// Bounded FI-side payload cache: a ring of payload hashes.
///
/// An FI's `/tmp` scratch volume is small, so the decoded-payload cache
/// cannot grow without bound. The ring keeps the most recent
/// [`PayloadCache::CAPACITY`] distinct payloads and evicts the oldest
/// insertion when full (FIFO — a real scratch dir would evict by mtime).
/// Its storage grows on insert up to the capacity, so an FI that never
/// decodes a payload (a sleep-only probe) allocates none.
#[derive(Debug, Clone, Default)]
pub struct PayloadCache {
    slots: Vec<u64>,
    /// Ring position of the next insertion (equal to `slots.len()`
    /// until the ring fills).
    next: usize,
}

impl PayloadCache {
    /// Maximum number of distinct payload hashes retained per FI.
    pub const CAPACITY: usize = 32;

    /// Whether `hash` is cached.
    pub fn contains(&self, hash: u64) -> bool {
        self.slots.contains(&hash)
    }

    /// Record `hash` as cached, evicting the oldest entry when full.
    /// Re-inserting a cached hash is a no-op.
    pub fn insert(&mut self, hash: u64) {
        if self.contains(hash) {
            return;
        }
        if self.slots.len() < Self::CAPACITY {
            self.slots.push(hash);
        } else {
            self.slots[self.next] = hash;
        }
        self.next = (self.next + 1) % Self::CAPACITY;
    }

    /// Number of cached payloads.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Why an instance could not be allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityError {
    /// Every compatible host slot in the AZ is occupied (by our FIs or
    /// background tenants).
    Exhausted,
}

/// A captured `(az, function)` execution snapshot: while live (before
/// `expires`), cold placements of checkpointed deployments restore from
/// it and branched deployments CoW-clone it.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Identity (branched instances record it as their parent).
    pub id: SnapshotId,
    /// Capture instant.
    pub created: SimTime,
    /// Eviction deadline (TTL from the deployment's profile).
    pub expires: SimTime,
    /// Restores served.
    pub restores: u64,
    /// CoW branches served.
    pub branches: u64,
}

/// Per-deployment pre-warm pool state. The pool holds fully provisioned
/// idle instances that have never served an invocation; once taken (and
/// later released) an instance re-enters circulation through the normal
/// warm-idle stack, so pool occupancy counts only instances provisioned
/// ahead of demand.
#[derive(Debug)]
struct PoolState {
    policy: PoolPolicy,
    /// Deployment sizing, recorded so maintenance ticks can provision
    /// without consulting the engine's deployment table.
    memory_mb: u32,
    arch: Arch,
    /// Idle pre-warmed instances, LIFO. Entries validate against slot
    /// reuse exactly like the warm-idle stack.
    idle: Vec<(InstanceId, SlotKey)>,
    /// Fixed-point (x256) demand EWMA state for `PoolPolicy::DemandEwma`.
    ewma_x256: u64,
    /// Arrivals observed since the last pool tick.
    window_arrivals: u64,
}

/// One deployment's platform state.
#[derive(Debug, Default)]
struct DeploymentState {
    /// Execution profile ([`ExecProfile::default`] unless registered).
    profile: ExecProfile,
    /// LIFO stack of warm idle instances (most recently freed first,
    /// mirroring Lambda's warm-routing preference). Each entry carries
    /// the FI's slot; the id validates against slot reuse. Destroying an
    /// FI leaves its entry behind: `claim` skips it, and `release` drops
    /// such entries before a push would grow the stack.
    warm: Vec<(InstanceId, SlotKey)>,
    /// Busy (executing) instances: the burst-detection signal for the
    /// warm-reuse probability.
    busy: u32,
    /// The live snapshot (at most one per `(az, function)`; re-capture
    /// replaces an expired one).
    snapshot: Option<Snapshot>,
    /// Pre-warm pool (profile-enabled deployments only).
    pool: Option<PoolState>,
}

impl DeploymentState {
    /// Take the most recently idled valid FI of the pool for a `Pooled`
    /// start, else of the warm stack, discarding the invalid entries above
    /// it (see [`idle_entry`]); mark it busy and count the invocation.
    fn claim(
        &mut self,
        class: StartClass,
        instances: &mut Slab<Instance>,
    ) -> Option<(InstanceId, SlotKey, StartClass)> {
        let stack = match class {
            StartClass::Pooled => &mut self.pool.as_mut()?.idle,
            _ => &mut self.warm,
        };
        let (id, slot) = std::iter::from_fn(|| stack.pop()).find(|&e| idle_entry(instances, e))?;
        let inst = instances.get_mut(slot).expect("validated by idle_entry");
        inst.busy = true;
        inst.invocations += 1;
        self.busy += 1;
        Some((id, slot, class))
    }

    /// The live (unexpired) snapshot, evicting it first if its TTL
    /// lapsed. Eviction is lazy but monotone: once `now` passes `expires`
    /// the snapshot can never serve again.
    fn live_snapshot(
        &mut self,
        now: SimTime,
        ledger: &mut SnapshotLedger,
    ) -> Option<&mut Snapshot> {
        if self.snapshot.is_some_and(|s| now >= s.expires) {
            self.snapshot = None;
            ledger.evicted += 1;
            ledger.pending_evicted += 1;
        }
        self.snapshot.as_mut()
    }

    /// Capture a snapshot at release time for snapshotting modes, when
    /// none is live. Re-capture over an expired snapshot first records
    /// its eviction, keeping the eviction counter monotone.
    fn maybe_capture_snapshot(&mut self, now: SimTime, ledger: &mut SnapshotLedger) {
        let ttl = self.profile.snapshot_ttl;
        if !self.profile.mode.snapshots()
            || ttl == SimDuration::ZERO
            || self.live_snapshot(now, ledger).is_some()
        {
            return;
        }
        self.snapshot = Some(Snapshot {
            id: SnapshotId(ledger.next_id),
            created: now,
            expires: now + ttl,
            restores: 0,
            branches: 0,
        });
        ledger.next_id += 1;
        ledger.pending_captured += 1;
    }
}

/// A platform's snapshot lifecycle counters.
#[derive(Debug, Default)]
struct SnapshotLedger {
    next_id: u64,
    /// Monotone total of TTL evictions (never decreases: the property
    /// suite's monotonicity witness).
    evicted: u64,
    /// Captures and evictions since the engine last drained them into the
    /// metrics registry.
    pending_captured: u64,
    pending_evicted: u64,
}

/// What one [`AzPlatform::pool_tick`] did, for the engine's metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolTickStats {
    /// Instances provisioned into pools this tick.
    pub provisioned: u32,
    /// Idle pool instances destroyed to meet a lowered target.
    pub trimmed: u32,
    /// Total pool occupancy after the tick, across deployments.
    pub occupancy: u64,
}

/// Per-AZ platform simulator state.
#[derive(Debug)]
pub struct AzPlatform {
    spec: AzSpec,
    diurnal: DiurnalModel,
    churn: ChurnModel,
    target_mix: CpuMix,
    hosts: Vec<Host>,
    /// Indices into `hosts` by (arch, cpu) for placement scans. Sorted
    /// map: `place_fresh` iterates it, so its order is event order.
    by_cpu: BTreeMap<(Arch, CpuType), Vec<usize>>,
    /// Hot per-FI state, slab-allocated: every acquire/release/expire on
    /// the invocation path is an O(1) slot index, and creating or
    /// destroying an FI touches no index. Iteration (`purge_warm`) is in
    /// slot order, which is deterministic (a pure function of the
    /// create/destroy sequence, itself seed-determined).
    instances: Slab<Instance>,
    /// Per-deployment state. Sorted map: `pool_tick` iterates it, so its
    /// order is event order.
    deployments: BTreeMap<DeploymentId, DeploymentState>,
    /// Probability that a request arriving during a burst (other
    /// instances of the same deployment busy) reuses an idle warm FI
    /// rather than spreading to a fresh environment. Idle deployments
    /// always reuse. See `FleetConfig::warm_reuse_prob`.
    reuse_prob: f64,
    /// Memory allocated to our FIs, and total host memory, MB, per
    /// architecture (indexed by `Arch as usize`).
    fi_mem_used: [u64; 2],
    total_mem: [u64; 2],
    /// Reactive hosts added beyond the baseline fleet.
    extra_hosts: u32,
    /// Capacity failures since the last scale check (scaling signal).
    pub(crate) capacity_failures_pending: u32,
    /// Whether a scale-check event is currently scheduled.
    pub(crate) scale_check_scheduled: bool,
    /// Whether a pool-tick event is currently scheduled.
    pub(crate) pool_tick_scheduled: bool,
    snapshots: SnapshotLedger,
    id_base: u64,
    next_host: u64,
    next_instance: u64,
    /// Bin-packing affinity: new FIs continue filling the previous host
    /// while it has room, with this probability. Dense packing is why a
    /// single sampling poll sees a *clustered* subset of host CPUs and
    /// carries ~10% characterization error (paper §4.3).
    stickiness: f64,
    last_host: Option<usize>,
    /// Fault injection: while set and in the future, every placement
    /// fails (a zone-level outage).
    outage_until: Option<SimTime>,
    /// Partial outage: until the given instant, each new placement
    /// independently fails with the given probability.
    partial_outage: Option<(SimTime, f64)>,
    /// Throttling storm: until the given instant, each arrival is
    /// rejected 429-style with the given probability.
    throttle_storm: Option<(SimTime, f64)>,
    /// Latency spike: until the given instant, every dispatch takes the
    /// given extra (unbilled) latency.
    latency_spike: Option<(SimTime, SimDuration)>,
    /// Gray degradation: until the given instant, workload execution is
    /// silently slowed by the given factor.
    gray_degradation: Option<(SimTime, f64)>,
    /// Cold-start storm: until the given instant, keep-alive is
    /// suppressed and cold-start init is inflated by the given factor.
    cold_storm: Option<(SimTime, f64)>,
    /// Dedicated stream for fault coin flips (partial-outage and
    /// throttle draws). Separate from `rng` so arming a fault never
    /// perturbs placement randomness — a no-fault run stays
    /// byte-identical to a run whose fault windows are never reached.
    fault_rng: SimRng,
    /// Completed-invocation SAAF reports buffered for the streaming
    /// characterizer, in completion order. Only populated while the
    /// engine's observation hook is enabled; drained by
    /// [`AzPlatform::take_observations`].
    observations: Vec<SaafReport>,
    rng: SimRng,
}

impl AzPlatform {
    /// Instantiate the platform from its catalog spec. `id_base` makes
    /// host/instance ids unique across platforms; `reuse_prob` is the
    /// under-burst warm-reuse probability (see `FleetConfig`).
    pub fn new(spec: AzSpec, id_base: u64, rng: SimRng, reuse_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&reuse_prob),
            "reuse_prob must be a probability"
        );
        let diurnal = DiurnalModel::new(spec.background_base, spec.diurnal_amplitude);
        let churn = ChurnModel::new(spec.churn, &spec.initial_mix);
        let mut platform = AzPlatform {
            diurnal,
            churn,
            target_mix: spec.initial_mix.clone(),
            hosts: Vec::new(),
            by_cpu: BTreeMap::new(),
            instances: Slab::new(),
            deployments: BTreeMap::new(),
            reuse_prob,
            fi_mem_used: [0; 2],
            total_mem: [0; 2],
            extra_hosts: 0,
            capacity_failures_pending: 0,
            scale_check_scheduled: false,
            pool_tick_scheduled: false,
            snapshots: SnapshotLedger::default(),
            id_base,
            next_host: 0,
            next_instance: 0,
            stickiness: 0.95,
            last_host: None,
            outage_until: None,
            partial_outage: None,
            throttle_storm: None,
            latency_spike: None,
            gray_degradation: None,
            cold_storm: None,
            fault_rng: rng.derive("faults"),
            observations: Vec::new(),
            rng,
            spec,
        };
        let mix = platform.target_mix.clone();
        for _ in 0..platform.spec.hosts {
            platform.add_host(Arch::X86_64, &mix);
        }
        for _ in 0..platform.spec.arm_hosts {
            let arm_mix = CpuMix::from_shares(&[(CpuType::Graviton2, 1.0)]);
            platform.add_host(Arch::Arm64, &arm_mix);
        }
        platform
    }

    /// The catalog spec this platform was built from.
    pub fn spec(&self) -> &AzSpec {
        &self.spec
    }

    /// The diurnal model (shared with the engine for contention).
    pub fn diurnal(&self) -> &DiurnalModel {
        &self.diurnal
    }

    fn draw_cpu(rng: &mut SimRng, mix: &CpuMix) -> CpuType {
        let entries: Vec<(CpuType, f64)> = mix.iter().collect();
        let weights: Vec<f64> = entries.iter().map(|&(_, w)| w).collect();
        entries[rng.weighted_choice(&weights)].0
    }

    fn add_host(&mut self, arch: Arch, mix: &CpuMix) {
        let cpu = if arch == Arch::Arm64 {
            CpuType::Graviton2
        } else {
            Self::draw_cpu(&mut self.rng, mix)
        };
        let id = HostId::from_raw(self.id_base + self.next_host);
        self.next_host += 1;
        let mem = self.spec.host_mem_gb as u64 * 1024;
        let index = self.hosts.len();
        self.hosts.push(Host {
            id,
            cpu,
            arch,
            mem_total_mb: mem,
            mem_used_mb: 0,
            live_instances: 0,
        });
        self.by_cpu.entry((arch, cpu)).or_default().push(index);
        self.total_mem[arch as usize] += mem;
    }

    /// The **ground-truth** CPU mix of the current x86 fleet, host-count
    /// weighted. Only experiment harnesses may call this (to compute APE
    /// against estimates); the profiler/router must not.
    pub fn ground_truth_mix(&self) -> CpuMix {
        let mut counts: BTreeMap<CpuType, u64> = BTreeMap::new();
        for h in &self.hosts {
            if h.arch == Arch::X86_64 {
                *counts.entry(h.cpu).or_default() += 1;
            }
        }
        let pairs: Vec<(CpuType, u64)> = counts.into_iter().collect();
        CpuMix::from_counts(&pairs)
    }

    /// Buffer a completed invocation's SAAF report for the streaming
    /// characterizer (only called while the engine's observation hook is
    /// enabled).
    pub(crate) fn push_observation(&mut self, report: SaafReport) {
        self.observations.push(report);
    }

    /// Drain the buffered completion reports, in completion order.
    pub fn take_observations(&mut self) -> Vec<SaafReport> {
        std::mem::take(&mut self.observations)
    }

    /// Number of hosts currently provisioned (x86 + arm).
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of live instances (busy + warm).
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Approximate FI capacity remaining for a deployment of the given
    /// memory/arch at the given hour, in instances.
    pub fn remaining_capacity(&self, memory_mb: u32, arch: Arch, hour: f64) -> u64 {
        self.headroom_mb(arch, hour) / memory_mb as u64
    }

    /// Memory our FIs of `arch` may still take at `hour`, MB: the
    /// background-load-adjusted capacity less what they already hold.
    fn headroom_mb(&self, arch: Arch, hour: f64) -> u64 {
        let total = self.total_mem[arch as usize] as f64;
        let usable = (total * self.diurnal.usable_fraction(hour)) as u64;
        usable.saturating_sub(self.fi_mem_used[arch as usize])
    }

    /// Try to obtain an instance for an invocation: reuse the most
    /// recently idled warm FI for the deployment, else take a pre-warmed
    /// pool instance, else place a new one (restoring or branching from a
    /// live snapshot when the deployment's mode allows it).
    ///
    /// Returns `(instance, slot, start_class)`. The slot addresses the FI
    /// in O(1) for the rest of its busy period (`instance_at`,
    /// `release`); it is only valid paired with the id, since slots are
    /// recycled after destruction.
    ///
    /// Determinism: mode machinery draws no randomness and is consulted
    /// only for deployments with a non-default profile, so a legacy
    /// deployment consumes exactly the RNG stream it always did.
    ///
    /// # Errors
    ///
    /// [`CapacityError::Exhausted`] when no compatible capacity exists —
    /// the saturation signal of EX-1.
    pub fn acquire(
        &mut self,
        deployment: DeploymentId,
        memory_mb: u32,
        arch: Arch,
        now: SimTime,
    ) -> Result<(InstanceId, SlotKey, StartClass), CapacityError> {
        // Warm path. A deployment with no in-flight executions always
        // reuses its warm FI (sequential traffic packs); during a burst
        // the router spreads with probability `1 - reuse_prob`, matching
        // observed Lambda scale-out behaviour under concurrent arrivals —
        // and the mechanism that lets held declined FIs be bypassed by
        // retries (paper §3.5).
        let d = self.deployments.entry(deployment).or_default();
        if d.busy == 0 || self.rng.chance(self.reuse_prob) {
            if let Some(hit) = d.claim(StartClass::Warm, &mut self.instances) {
                return Ok(hit);
            }
        }
        // Pre-warm pool: count demand and take a pooled instance before
        // paying for any fresh placement. Only profile-enabled
        // deployments have pool state.
        if let Some(pool) = &mut d.pool {
            pool.window_arrivals += 1;
        }
        if let Some(hit) = d.claim(StartClass::Pooled, &mut self.instances) {
            return Ok(hit);
        }
        // Cold path, refused by an armed outage (warm FIs keep serving,
        // matching how zone incidents present); by a partial outage's
        // per-placement coin; by the admission check against
        // background-load-adjusted capacity; or when no host has room.
        let refused = matches!(self.outage_until, Some(until) if now < until)
            || self.fault_coin(self.partial_outage, now)
            || self.headroom_mb(arch, now.hour_of_day_f64()) < memory_mb as u64;
        let host = if refused {
            None
        } else {
            self.place(memory_mb, arch)
        };
        let d = self
            .deployments
            .get_mut(&deployment)
            .expect("entered above");
        let Some(host_index) = host else {
            // Fall back to a warm FI if one exists.
            if let Some(hit) = d.claim(StartClass::Warm, &mut self.instances) {
                return Ok(hit);
            }
            self.capacity_failures_pending += 1;
            return Err(CapacityError::Exhausted);
        };
        // A fresh environment: restore or branch when the mode snapshots
        // and a live snapshot exists, else a full cold provision. No RNG
        // involved.
        let mode = d.profile.mode;
        let live = if mode.snapshots() {
            d.live_snapshot(now, &mut self.snapshots)
        } else {
            None
        };
        let (class, parent) = match live {
            Some(snap) if mode == ExecMode::Branched => {
                snap.branches += 1;
                (StartClass::Branched, Some(snap.id))
            }
            Some(snap) => {
                snap.restores += 1;
                (StartClass::Restored, Some(snap.id))
            }
            None => (StartClass::Cold, None),
        };
        d.busy += 1;
        let (id, slot) =
            self.create_instance(deployment, memory_mb, host_index, true, parent, mode, now);
        Ok((id, slot, class))
    }

    /// Allocate host memory and insert a fresh [`Instance`] record.
    /// `busy` distinguishes an acquisition (serving its first invocation,
    /// counted busy on its deployment by the caller) from a pool
    /// provision (parked idle).
    #[allow(clippy::too_many_arguments)]
    fn create_instance(
        &mut self,
        deployment: DeploymentId,
        memory_mb: u32,
        host_index: usize,
        busy: bool,
        parent_snapshot: Option<SnapshotId>,
        mode: ExecMode,
        now: SimTime,
    ) -> (InstanceId, SlotKey) {
        let host = &mut self.hosts[host_index];
        host.mem_used_mb += memory_mb as u64;
        host.live_instances += 1;
        let (cpu, host_id) = (host.cpu, host.id);
        self.fi_mem_used[host.arch as usize] += memory_mb as u64;
        let id = InstanceId::from_raw(self.id_base + self.next_instance);
        self.next_instance += 1;
        let slot = self.instances.insert(Instance {
            id,
            uuid: self.rng.next_uuid(),
            host_index,
            host_id,
            deployment,
            cpu,
            memory_mb,
            busy,
            keep_alive_until: now, // set on release
            expire_epoch: 0,
            invocations: if busy { 1 } else { 0 },
            payload_cache: PayloadCache::default(),
            mode,
            parent_snapshot,
        });
        (id, slot)
    }

    /// Register (or replace) a deployment's execution profile,
    /// immediately provisioning a fixed pool to its target. Returns how
    /// many instances were provisioned.
    ///
    /// An existing pool adopts the new policy (the next pool tick trims
    /// it to the new target); a profile without a pool destroys the
    /// deployment's idle pooled instances.
    pub fn set_profile(
        &mut self,
        deployment: DeploymentId,
        profile: ExecProfile,
        memory_mb: u32,
        arch: Arch,
        now: SimTime,
    ) -> u32 {
        let d = self.deployments.entry(deployment).or_default();
        d.profile = profile;
        if !profile.pool.enabled() {
            if let Some(pool) = d.pool.take() {
                for entry in pool.idle {
                    if idle_entry(&self.instances, entry) {
                        self.destroy(entry.1);
                    }
                }
            }
            return 0;
        }
        let pool = d.pool.get_or_insert(PoolState {
            policy: profile.pool,
            memory_mb,
            arch,
            idle: Vec::new(),
            ewma_x256: 0,
            window_arrivals: 0,
        });
        pool.policy = profile.pool;
        self.fill_pool(deployment, profile.pool.target(0), now)
    }

    /// The execution profile of a deployment (legacy default when never
    /// registered).
    pub fn profile(&self, deployment: DeploymentId) -> ExecProfile {
        self.deployments
            .get(&deployment)
            .map(|d| d.profile)
            .unwrap_or_default()
    }

    /// Whether any pre-warm pool exists on this platform (drives the
    /// engine's recurring pool tick).
    pub fn has_pools(&self) -> bool {
        self.deployments.values().any(|d| d.pool.is_some())
    }

    /// Current pool occupancy of a deployment (0 when unpooled).
    pub fn pool_occupancy(&self, deployment: DeploymentId) -> usize {
        let pool = self
            .deployments
            .get(&deployment)
            .and_then(|d| d.pool.as_ref());
        pool.map_or(0, |p| p.idle.len())
    }

    /// The live snapshot record of a deployment, if one is captured
    /// (read-only; does not evict).
    pub fn snapshot(&self, deployment: DeploymentId) -> Option<&Snapshot> {
        self.deployments.get(&deployment)?.snapshot.as_ref()
    }

    /// Monotone total of snapshot TTL evictions on this platform.
    pub fn snapshots_evicted_total(&self) -> u64 {
        self.snapshots.evicted
    }

    /// Drain snapshot capture/eviction counts accumulated since the last
    /// drain — the engine meters these after acquire/release calls.
    pub(crate) fn take_snapshot_deltas(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.snapshots.pending_captured),
            std::mem::take(&mut self.snapshots.pending_evicted),
        )
    }

    /// One maintenance tick over every pool: fold the demand EWMA,
    /// re-target, trim or provision, and report occupancy. Iteration is
    /// in `BTreeMap` (deployment-id) order — deterministic.
    pub fn pool_tick(&mut self, now: SimTime) -> PoolTickStats {
        let mut stats = PoolTickStats::default();
        let pooled: Vec<DeploymentId> = self
            .deployments
            .iter()
            .filter(|(_, d)| d.pool.is_some())
            .map(|(&dep, _)| dep)
            .collect();
        for dep in pooled {
            let d = self.deployments.get_mut(&dep).expect("listed above");
            let pool = d.pool.as_mut().expect("listed above");
            let arrivals = std::mem::take(&mut pool.window_arrivals);
            pool.ewma_x256 = pool.policy.fold_ewma(pool.ewma_x256, arrivals);
            // Drop entries invalidated by purges or faults before sizing
            // against the target.
            let instances = &self.instances;
            pool.idle.retain(|&e| idle_entry(instances, e));
            let target = pool.policy.target(pool.ewma_x256);
            // Trim from the top of the stack down.
            let keep = pool.idle.len().min(target as usize);
            let doomed: Vec<(InstanceId, SlotKey)> = pool.idle.drain(keep..).rev().collect();
            stats.trimmed += doomed.len() as u32;
            for (_, slot) in doomed {
                self.destroy(slot);
            }
            stats.provisioned += self.fill_pool(dep, target, now);
            stats.occupancy += self.pool_occupancy(dep) as u64;
        }
        stats
    }

    /// Provision pool instances up to `target`, stopping early if the
    /// zone runs out of placeable capacity. Returns how many were
    /// created. Occupancy can never exceed the policy cap: `target` is
    /// already clamped and the pool only grows here.
    fn fill_pool(&mut self, deployment: DeploymentId, target: u32, now: SimTime) -> u32 {
        let d = &self.deployments[&deployment];
        let pool = d.pool.as_ref().expect("filled pools exist");
        let (memory_mb, arch, mode) = (pool.memory_mb, pool.arch, d.profile.mode);
        let mut created = 0u32;
        for _ in pool.idle.len() as u32..target {
            if self.headroom_mb(arch, now.hour_of_day_f64()) < memory_mb as u64 {
                break;
            }
            let Some(host_index) = self.place(memory_mb, arch) else {
                break;
            };
            let entry =
                self.create_instance(deployment, memory_mb, host_index, false, None, mode, now);
            let d = self.deployments.get_mut(&deployment).expect("filled above");
            d.pool.as_mut().expect("filled above").idle.push(entry);
            created += 1;
        }
        created
    }

    /// Bin-packing host selection: usually continue filling the host the
    /// previous FI landed on (dense packing); otherwise pick a CPU type
    /// with probability proportional to its free capacity, then a host of
    /// that type with room. Returns the host index.
    fn place(&mut self, memory_mb: u32, arch: Arch) -> Option<usize> {
        if let Some(last) = self.last_host {
            let h = &self.hosts[last];
            if h.arch == arch && h.free_mb() >= memory_mb as u64 && self.rng.chance(self.stickiness)
            {
                return Some(last);
            }
        }
        let choice = self.place_fresh(memory_mb, arch);
        self.last_host = choice;
        choice
    }

    fn place_fresh(&mut self, memory_mb: u32, arch: Arch) -> Option<usize> {
        let mut types: Vec<(CpuType, u64)> = Vec::new();
        for (&(a, cpu), indices) in &self.by_cpu {
            if a != arch {
                continue;
            }
            let free: u64 = indices
                .iter()
                .map(|&i| {
                    let f = self.hosts[i].free_mb();
                    if f >= memory_mb as u64 {
                        f
                    } else {
                        0
                    }
                })
                .sum();
            if free > 0 {
                types.push((cpu, free));
            }
        }
        if types.is_empty() {
            return None;
        }
        // `by_cpu` is a BTreeMap, so `types` arrives already sorted by
        // (arch, cpu) — the same order the explicit sort used to impose.
        let weights: Vec<f64> = types.iter().map(|&(_, f)| f as f64).collect();
        let cpu = types[self.rng.weighted_choice(&weights)].0;
        let indices = self.by_cpu.get(&(arch, cpu)).expect("type has hosts");
        // Start the scan at a random index so load spreads.
        let start = self.rng.next_below(indices.len() as u64) as usize;
        for k in 0..indices.len() {
            let i = indices[(start + k) % indices.len()];
            if self.hosts[i].free_mb() >= memory_mb as u64 {
                return Some(i);
            }
        }
        None
    }

    /// Mark an instance idle after an invocation; returns the keep-alive
    /// deadline (the engine schedules the expire event) and the expire
    /// epoch guard.
    ///
    /// # Panics
    ///
    /// Panics if the slot does not hold `id` or the FI is not busy (an
    /// engine bug — a busy FI cannot be destroyed, so its slot is stable
    /// for the whole busy period).
    pub fn release(
        &mut self,
        id: InstanceId,
        slot: SlotKey,
        now: SimTime,
        keep_alive: SimDuration,
    ) -> (SimTime, u64) {
        let inst = self
            .instances
            .get_mut(slot)
            .expect("release of unknown instance");
        assert_eq!(inst.id, id, "release slot/id mismatch");
        assert!(inst.busy, "release of idle instance");
        inst.busy = false;
        inst.keep_alive_until = now + keep_alive;
        inst.expire_epoch += 1;
        let result = (inst.keep_alive_until, inst.expire_epoch);
        let d = self
            .deployments
            .get_mut(&inst.deployment)
            .expect("a busy FI's deployment has a record");
        if d.warm.len() == d.warm.capacity() {
            // Before the push grows the stack, drop the entries `claim`
            // would skip (FIs destroyed since they idled); valid entries
            // keep their order. Reserving exactly as much again as
            // survives makes the sweep amortised O(1) per release and
            // keeps the stack within twice its valid entries, which a
            // doubling `reserve` could overshoot.
            let instances = &self.instances;
            d.warm.retain(|&e| idle_entry(instances, e));
            d.warm.reserve_exact(d.warm.len());
        }
        d.warm.push((id, slot));
        d.busy -= 1;
        d.maybe_capture_snapshot(now, &mut self.snapshots);
        result
    }

    /// Tear down a busy instance immediately after its invocation — the
    /// ephemeral lifecycle's release. Unlike [`AzPlatform::release`], the
    /// FI never idles and no expire event is needed.
    ///
    /// # Panics
    ///
    /// Panics if the slot does not hold `id` or the FI is not busy.
    pub fn retire(&mut self, id: InstanceId, slot: SlotKey, now: SimTime) {
        let inst = self
            .instances
            .get(slot)
            .expect("retire of unknown instance");
        assert_eq!(inst.id, id, "retire slot/id mismatch");
        assert!(inst.busy, "retire of idle instance");
        let d = self
            .deployments
            .get_mut(&inst.deployment)
            .expect("a busy FI's deployment has a record");
        d.busy -= 1;
        // A no-op unless the deployment's profile snapshots.
        d.maybe_capture_snapshot(now, &mut self.snapshots);
        self.destroy(slot);
    }

    /// Handle an expire event: destroy the instance if the slot still
    /// holds it (slots are recycled after destruction), it is still idle,
    /// past its keep-alive, and the epoch matches (stale events no-op).
    /// Returns whether the FI was actually evicted, so the engine can
    /// meter keep-alive evictions separately from purges and recycling.
    pub fn expire(&mut self, id: InstanceId, slot: SlotKey, epoch: u64, now: SimTime) -> bool {
        let destroy = match self.instances.get(slot) {
            Some(inst) => {
                inst.id == id
                    && !inst.busy
                    && inst.expire_epoch == epoch
                    && now >= inst.keep_alive_until
            }
            None => false,
        };
        if destroy {
            self.destroy(slot);
        }
        destroy
    }

    /// Free an FI's slot and host memory. Its warm-stack entry, if any,
    /// stays behind as an invalid entry. Only idle FIs sit in a pool, and
    /// the callers that destroy them (`pool_tick`, `purge_warm`) remove
    /// their entries at once, because `pool_occupancy` reports the pool's
    /// length.
    fn destroy(&mut self, slot: SlotKey) {
        let inst = self.instances.remove(slot);
        let host = &mut self.hosts[inst.host_index];
        host.mem_used_mb -= inst.memory_mb as u64;
        host.live_instances -= 1;
        self.fi_mem_used[host.arch as usize] -= inst.memory_mb as u64;
    }

    /// Immutable access to an instance by identity: an O(n) scan of the
    /// live FIs, for tests and diagnostics. Keeping no id index is what
    /// makes creating and destroying an FI O(1); the dispatch loop
    /// addresses FIs by slot ([`AzPlatform::instance_at`]).
    pub fn instance(&self, id: InstanceId) -> Option<&Instance> {
        self.instances.iter().map(|(_, i)| i).find(|i| i.id == id)
    }

    /// O(1) access to an instance by slot (hot path). Callers must have
    /// validated the slot against the id for state held across simulated
    /// time; within a busy period the slot is stable.
    pub fn instance_at(&self, slot: SlotKey) -> Option<&Instance> {
        self.instances.get(slot)
    }

    /// O(1) mutable access by slot (payload-cache updates).
    pub fn instance_at_mut(&mut self, slot: SlotKey) -> Option<&mut Instance> {
        self.instances.get_mut(slot)
    }

    /// Apply the day-boundary churn: evolve the target mix, then recycle
    /// hosts that have no live FIs onto the new mix; reclaim reactive
    /// extra hosts. Returns the number of hosts recycled.
    pub fn day_tick(&mut self) -> u32 {
        let mut rng = self.rng.derive("day-tick");
        self.target_mix = self.churn.next_day_mix(&self.target_mix, &mut rng);
        let x86_hosts = self.hosts.iter().filter(|h| h.arch == Arch::X86_64).count() as u32;
        let n = self.churn.hosts_to_recycle(x86_hosts, &mut rng);
        let mut recycled = 0u32;
        // Collect recyclable host indices (x86, idle).
        let idle: Vec<usize> = (0..self.hosts.len())
            .filter(|&i| self.hosts[i].arch == Arch::X86_64 && self.hosts[i].live_instances == 0)
            .collect();
        for &i in idle.iter().take(n as usize) {
            let new_cpu = Self::draw_cpu(&mut rng, &self.target_mix);
            let old_cpu = self.hosts[i].cpu;
            if new_cpu != old_cpu {
                // Move index between type buckets.
                if let Some(v) = self.by_cpu.get_mut(&(Arch::X86_64, old_cpu)) {
                    v.retain(|&x| x != i);
                }
                self.by_cpu
                    .entry((Arch::X86_64, new_cpu))
                    .or_default()
                    .push(i);
                self.hosts[i].cpu = new_cpu;
            }
            self.hosts[i].id = HostId::from_raw(self.id_base + self.next_host);
            self.next_host += 1;
            recycled += 1;
        }
        self.extra_hosts = 0; // reactive capacity is reclaimed daily
        recycled
    }

    /// Arm one fault against this platform until `until`. Cold-start
    /// storms purge the warm pool immediately; the returned count is the
    /// number of instances destroyed (zero for every other kind).
    pub fn apply_fault(&mut self, kind: &FaultKind, until: SimTime) -> u32 {
        match *kind {
            FaultKind::Outage => {
                self.outage_until = Some(until);
                0
            }
            FaultKind::PartialOutage { severity } => {
                self.partial_outage = Some((until, severity));
                0
            }
            FaultKind::ThrottleStorm { reject_prob } => {
                self.throttle_storm = Some((until, reject_prob));
                0
            }
            FaultKind::LatencySpike { extra } => {
                self.latency_spike = Some((until, extra));
                0
            }
            FaultKind::ColdStartStorm { init_factor } => {
                self.cold_storm = Some((until, init_factor));
                self.purge_warm()
            }
            FaultKind::GrayDegradation { slowdown } => {
                self.gray_degradation = Some((until, slowdown));
                0
            }
        }
    }

    /// Whether an active throttling storm sheds this arrival. Draws from
    /// the fault stream only while the storm window is active, so
    /// unfaulted runs consume no fault randomness.
    pub fn throttle_rejects(&mut self, now: SimTime) -> bool {
        self.fault_coin(self.throttle_storm, now)
    }

    /// Whether `now` falls inside a per-event fault window and the
    /// window's coin, drawn from the fault stream only inside it, fails
    /// the event.
    fn fault_coin(&mut self, window: Option<(SimTime, f64)>, now: SimTime) -> bool {
        matches!(window, Some((until, p)) if now < until && self.fault_rng.chance(p))
    }

    /// Extra dispatch latency imposed by an active latency spike.
    pub fn extra_dispatch_latency(&self, now: SimTime) -> SimDuration {
        match self.latency_spike {
            Some((until, extra)) if now < until => extra,
            _ => SimDuration::ZERO,
        }
    }

    /// Execution slowdown factor of an active gray degradation (1.0 when
    /// healthy).
    pub fn gray_slowdown(&self, now: SimTime) -> f64 {
        match self.gray_degradation {
            Some((until, factor)) if now < until => factor,
            _ => 1.0,
        }
    }

    /// Cold-start inflation factor of an active cold-start storm (1.0
    /// when healthy).
    pub fn cold_start_factor(&self, now: SimTime) -> f64 {
        match self.cold_storm {
            Some((until, factor)) if now < until => factor,
            _ => 1.0,
        }
    }

    /// Whether a cold-start storm is suppressing keep-alive at `now`.
    pub fn cold_storm_active(&self, now: SimTime) -> bool {
        matches!(self.cold_storm, Some((until, _)) if now < until)
    }

    /// Destroy every idle warm instance (the cold-start-storm purge, or
    /// a simulated keep-alive flush). Busy instances are untouched.
    /// Returns how many instances were destroyed.
    pub fn purge_warm(&mut self) -> u32 {
        let idle: Vec<SlotKey> = self
            .instances
            .iter()
            .filter(|(_, i)| !i.busy)
            .map(|(slot, _)| slot)
            .collect();
        let purged = idle.len() as u32;
        for slot in idle {
            self.destroy(slot);
        }
        // Every pooled FI is idle, so the purge empties every pool.
        for d in self.deployments.values_mut() {
            if let Some(pool) = &mut d.pool {
                pool.idle.clear();
            }
        }
        purged
    }

    /// Reactive scale-up step (called from the engine's scale-check
    /// event). Adds up to `scale_hosts_per_min` hosts if recent capacity
    /// failures occurred. Returns how many hosts were added.
    pub fn scale_step(&mut self) -> u32 {
        if self.capacity_failures_pending == 0 {
            return 0;
        }
        self.capacity_failures_pending = 0;
        let budget = self.spec.max_extra_hosts.saturating_sub(self.extra_hosts);
        let add = (self.spec.scale_hosts_per_min.round() as u32).min(budget);
        let mix = self.target_mix.clone();
        for _ in 0..add {
            self.add_host(Arch::X86_64, &mix);
        }
        self.extra_hosts += add;
        add
    }
}

/// Whether a warm-stack or pool entry still names an idle FI: its slot
/// holds the same FI (slots are recycled after destruction) and that FI
/// is not executing.
fn idle_entry(instances: &Slab<Instance>, (id, slot): (InstanceId, SlotKey)) -> bool {
    matches!(instances.get(slot), Some(i) if i.id == id && !i.busy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sky_cloud::Catalog;

    fn platform(az: &str) -> AzPlatform {
        let cat = Catalog::paper_world(42);
        let spec = cat.az(&az.parse().unwrap()).unwrap().clone();
        AzPlatform::new(spec, 0, SimRng::seed_from(1).derive("platform"), 0.58)
    }

    #[test]
    fn fleet_matches_spec_and_mix() {
        let p = platform("us-west-1a");
        assert_eq!(p.host_count() as u32, p.spec().hosts + p.spec().arm_hosts);
        let gt = p.ground_truth_mix();
        // Host-count mix approximates the spec mix (multinomial noise).
        let ape = gt.ape_percent(&p.spec().initial_mix);
        assert!(ape < 12.0, "fleet mix APE {ape}%");
    }

    #[test]
    fn acquire_cold_then_warm() {
        let mut p = platform("us-east-2a");
        let dep = DeploymentId::from_raw(1);
        let t0 = SimTime::ZERO;
        let (a, slot_a, class_a) = p.acquire(dep, 2048, Arch::X86_64, t0).unwrap();
        assert_eq!(class_a, StartClass::Cold);
        p.release(
            a,
            slot_a,
            t0 + SimDuration::from_millis(100),
            SimDuration::from_mins(6),
        );
        let (b, slot_b, class_b) = p
            .acquire(dep, 2048, Arch::X86_64, t0 + SimDuration::from_millis(200))
            .unwrap();
        assert_eq!(class_b, StartClass::Warm, "second request reuses warm FI");
        assert_eq!(a, b);
        assert_eq!(slot_a, slot_b, "warm reuse keeps the slot");
        assert_eq!(p.instance(a).unwrap().invocations, 2);
    }

    #[test]
    fn busy_instance_not_reused() {
        let mut p = platform("us-east-2a");
        let dep = DeploymentId::from_raw(1);
        let (a, _, _) = p.acquire(dep, 2048, Arch::X86_64, SimTime::ZERO).unwrap();
        let (b, _, class) = p.acquire(dep, 2048, Arch::X86_64, SimTime::ZERO).unwrap();
        assert_eq!(class, StartClass::Cold);
        assert_ne!(a, b);
        assert_eq!(p.instance_count(), 2);
    }

    #[test]
    fn deployments_do_not_share_instances() {
        let mut p = platform("us-east-2a");
        let d1 = DeploymentId::from_raw(1);
        let d2 = DeploymentId::from_raw(2);
        let (a, slot_a, _) = p.acquire(d1, 2048, Arch::X86_64, SimTime::ZERO).unwrap();
        p.release(
            a,
            slot_a,
            SimTime::ZERO + SimDuration::from_millis(10),
            SimDuration::from_mins(6),
        );
        let (b, _, class) = p
            .acquire(
                d2,
                2048,
                Arch::X86_64,
                SimTime::ZERO + SimDuration::from_millis(20),
            )
            .unwrap();
        assert_eq!(
            class,
            StartClass::Cold,
            "different deployment must not reuse the FI"
        );
        assert_ne!(a, b);
    }

    #[test]
    fn capacity_exhausts_and_scale_recovers_some() {
        let mut p = platform("eu-north-1a"); // smallest pool
        let dep = DeploymentId::from_raw(1);
        let mut created = 0u64;
        while p.acquire(dep, 10_240, Arch::X86_64, SimTime::ZERO).is_ok() {
            created += 1;
            assert!(created < 100_000, "runaway allocation");
        }
        assert!(created > 100, "should fit hundreds of 10GB FIs: {created}");
        let added = p.scale_step();
        assert!(added > 0, "scale-up after failures");
        // A few more allocations now succeed.
        assert!(p.acquire(dep, 10_240, Arch::X86_64, SimTime::ZERO).is_ok());
    }

    #[test]
    fn refused_placement_falls_back_to_an_idle_warm_fi() {
        let cat = Catalog::paper_world(42);
        let spec = cat.az(&"eu-north-1a".parse().unwrap()).unwrap().clone();
        let (dep, t0) = (DeploymentId::from_raw(1), SimTime::ZERO);
        let until = t0 + SimDuration::from_mins(10);
        let faults = [
            ("outage", Some(FaultKind::Outage)),
            (
                "partial outage",
                Some(FaultKind::PartialOutage { severity: 1.0 }),
            ),
            ("admission", None),
        ];
        for (refusal, fault) in faults {
            // No warm reuse under a burst: while one FI is busy, only a
            // refusal sends a request to the idle one.
            let mut p = AzPlatform::new(spec.clone(), 0, SimRng::seed_from(1).derive("p"), 0.0);
            p.acquire(dep, 2048, Arch::X86_64, t0).unwrap();
            let (idle, slot, _) = p.acquire(dep, 2048, Arch::X86_64, t0).unwrap();
            p.release(idle, slot, t0, SimDuration::from_mins(6));
            match fault {
                Some(kind) => _ = p.apply_fault(&kind, until),
                // Another deployment fills the zone to its admission limit.
                None => {
                    while p.remaining_capacity(2048, Arch::X86_64, t0.hour_of_day_f64()) > 0 {
                        p.acquire(DeploymentId::from_raw(2), 2048, Arch::X86_64, t0)
                            .unwrap();
                    }
                }
            }
            let failures = p.capacity_failures_pending;
            let (id, _, class) = p.acquire(dep, 2048, Arch::X86_64, t0).unwrap();
            assert_eq!((id, class), (idle, StartClass::Warm), "{refusal}");
            let refused = p.acquire(dep, 2048, Arch::X86_64, t0);
            assert_eq!(refused, Err(CapacityError::Exhausted), "{refusal}");
            assert_eq!(p.capacity_failures_pending, failures + 1, "{refusal}");
        }
    }

    #[test]
    fn expire_respects_epoch_and_busy() {
        let mut p = platform("us-east-2a");
        let dep = DeploymentId::from_raw(1);
        let t0 = SimTime::ZERO;
        let (a, slot, _) = p.acquire(dep, 2048, Arch::X86_64, t0).unwrap();
        let (deadline, epoch) = p.release(a, slot, t0, SimDuration::from_mins(6));
        // Reuse before expiry.
        let (b, _, _) = p
            .acquire(dep, 2048, Arch::X86_64, t0 + SimDuration::from_mins(1))
            .unwrap();
        assert_eq!(a, b);
        // Stale expire event must not kill the busy instance.
        p.expire(a, slot, epoch, deadline);
        assert!(p.instance(a).is_some());
        // Release again, then valid expiry destroys it.
        let (deadline2, epoch2) = p.release(a, slot, deadline, SimDuration::from_mins(6));
        p.expire(a, slot, epoch2, deadline2);
        assert!(p.instance(a).is_none());
        assert_eq!(p.instance_count(), 0);
    }

    #[test]
    fn early_expire_event_is_ignored() {
        let mut p = platform("us-east-2a");
        let dep = DeploymentId::from_raw(1);
        let (a, slot, _) = p.acquire(dep, 2048, Arch::X86_64, SimTime::ZERO).unwrap();
        let (_, epoch) = p.release(a, slot, SimTime::ZERO, SimDuration::from_mins(6));
        p.expire(a, slot, epoch, SimTime::ZERO + SimDuration::from_mins(1));
        assert!(p.instance(a).is_some(), "not yet past keep-alive");
    }

    #[test]
    fn recycled_slot_does_not_confuse_stale_events() {
        let mut p = platform("us-east-2a");
        let dep = DeploymentId::from_raw(1);
        let t0 = SimTime::ZERO;
        let (a, slot_a, _) = p.acquire(dep, 2048, Arch::X86_64, t0).unwrap();
        let (deadline, epoch) = p.release(a, slot_a, t0, SimDuration::from_mins(5));
        assert!(
            p.expire(a, slot_a, epoch, deadline),
            "valid expiry destroys"
        );
        // The next cold placement reuses the freed slot index (LIFO free
        // list) under a fresh generation, so the stale key cannot alias.
        let (b, slot_b, class) = p.acquire(dep, 2048, Arch::X86_64, deadline).unwrap();
        assert_eq!(class, StartClass::Cold);
        assert_eq!(slot_a.index(), slot_b.index(), "slot index recycled");
        assert_ne!(slot_a, slot_b, "generation advanced on recycle");
        assert_ne!(a, b);
        // A stale expire addressed to the *old* FI must not touch the new
        // occupant, even with a matching epoch counter.
        assert!(!p.expire(a, slot_a, epoch, deadline + SimDuration::from_mins(20)));
        assert!(p.instance(b).is_some());
        assert_eq!(p.instance_count(), 1);
    }

    #[test]
    fn warm_stack_stays_bounded_while_its_bottom_expires() {
        let cat = Catalog::paper_world(42);
        let spec = cat.az(&"us-east-2a".parse().unwrap()).unwrap().clone();
        // No warm reuse under a burst: each round's second acquire
        // always places a fresh FI.
        let mut p = AzPlatform::new(spec, 0, SimRng::seed_from(1).derive("platform"), 0.0);
        let dep = DeploymentId::from_raw(1);
        let keep_alive = SimDuration::from_secs(40);
        // Reference model: the idle FIs in release order, maintained the
        // way an eagerly pruned stack would be.
        let mut idle: Vec<InstanceId> = Vec::new();
        let mut expiries = std::collections::VecDeque::new();
        for round in 0..500u64 {
            let now = SimTime::ZERO + SimDuration::from_secs(round);
            // The bottom of the stack reaches its keep-alive.
            while let Some(&(id, slot, deadline, epoch)) = expiries.front() {
                if deadline > now {
                    break;
                }
                expiries.pop_front();
                if p.expire(id, slot, epoch, now) {
                    idle.retain(|&x| x != id);
                }
            }
            // The top keeps serving.
            let (top, top_slot, class) = p.acquire(dep, 2048, Arch::X86_64, now).unwrap();
            if let Some(expected) = idle.pop() {
                assert_eq!((top, class), (expected, StartClass::Warm), "round {round}");
            }
            let (fresh, fresh_slot, class) = p.acquire(dep, 2048, Arch::X86_64, now).unwrap();
            assert_eq!(class, StartClass::Cold);
            for (id, slot) in [(fresh, fresh_slot), (top, top_slot)] {
                let (deadline, epoch) = p.release(id, slot, now, keep_alive);
                expiries.push_back((id, slot, deadline, epoch));
                idle.push(id);
            }
            let held = p.deployments[&dep].warm.len();
            assert!(
                held <= 2 * idle.len() + 4,
                "round {round}: {held} stack entries for {} idle FIs",
                idle.len()
            );
        }
        assert!(idle.len() > 40, "steady state keeps ~41 FIs idle");
        // Valid entries pop most recently idled first.
        let d = p.deployments.get_mut(&dep).unwrap();
        let popped: Vec<InstanceId> =
            std::iter::from_fn(|| d.claim(StartClass::Warm, &mut p.instances))
                .map(|(id, _, _)| id)
                .collect();
        idle.reverse();
        assert_eq!(popped, idle);
    }

    #[test]
    fn ephemeral_retire_tears_down_immediately() {
        let mut p = platform("us-east-2a");
        let dep = DeploymentId::from_raw(1);
        p.set_profile(
            dep,
            ExecProfile::for_mode(ExecMode::Ephemeral),
            2048,
            Arch::X86_64,
            SimTime::ZERO,
        );
        let (a, slot, class) = p.acquire(dep, 2048, Arch::X86_64, SimTime::ZERO).unwrap();
        assert_eq!(class, StartClass::Cold);
        assert_eq!(p.instance(a).unwrap().mode, ExecMode::Ephemeral);
        p.retire(a, slot, SimTime::ZERO + SimDuration::from_millis(100));
        assert!(p.instance(a).is_none(), "ephemeral FI destroyed on retire");
        assert_eq!(p.instance_count(), 0);
        // The next request pays cold again.
        let (_, _, class2) = p
            .acquire(
                dep,
                2048,
                Arch::X86_64,
                SimTime::ZERO + SimDuration::from_millis(200),
            )
            .unwrap();
        assert_eq!(class2, StartClass::Cold);
    }

    #[test]
    fn checkpointed_mode_restores_after_warm_pool_drains() {
        let mut p = platform("us-east-2a");
        let dep = DeploymentId::from_raw(1);
        p.set_profile(
            dep,
            ExecProfile::for_mode(ExecMode::Checkpointed),
            2048,
            Arch::X86_64,
            SimTime::ZERO,
        );
        let t0 = SimTime::ZERO;
        let (a, slot, class) = p.acquire(dep, 2048, Arch::X86_64, t0).unwrap();
        assert_eq!(class, StartClass::Cold, "no snapshot yet");
        // First release captures the snapshot.
        let (deadline, epoch) = p.release(a, slot, t0, SimDuration::from_mins(5));
        assert!(p.snapshot(dep).is_some(), "snapshot captured at release");
        // Keep-alive lapses: the warm FI is gone...
        assert!(p.expire(a, slot, epoch, deadline));
        // ...but the next placement restores instead of cold-booting.
        let (b, _, class2) = p
            .acquire(
                dep,
                2048,
                Arch::X86_64,
                deadline + SimDuration::from_mins(1),
            )
            .unwrap();
        assert_eq!(class2, StartClass::Restored);
        assert_eq!(
            p.instance(b).unwrap().parent_snapshot,
            Some(p.snapshot(dep).unwrap().id)
        );
        assert_eq!(p.snapshot(dep).unwrap().restores, 1);
    }

    #[test]
    fn branched_mode_clones_share_one_parent() {
        let mut p = platform("us-east-2a");
        let dep = DeploymentId::from_raw(1);
        p.set_profile(
            dep,
            ExecProfile::for_mode(ExecMode::Branched),
            2048,
            Arch::X86_64,
            SimTime::ZERO,
        );
        let t0 = SimTime::ZERO;
        let (a, slot, _) = p.acquire(dep, 2048, Arch::X86_64, t0).unwrap();
        p.release(
            a,
            slot,
            t0 + SimDuration::from_millis(50),
            SimDuration::from_mins(5),
        );
        let parent = p.snapshot(dep).unwrap().id;
        // Concurrent burst: the single warm FI serves one request, every
        // additional placement branches off the shared parent.
        let t1 = t0 + SimDuration::from_millis(100);
        let mut branched = 0u32;
        let mut ids = Vec::new();
        for _ in 0..6 {
            let (id, _, class) = p.acquire(dep, 2048, Arch::X86_64, t1).unwrap();
            ids.push(id);
            if class == StartClass::Branched {
                branched += 1;
                assert_eq!(p.instance(id).unwrap().parent_snapshot, Some(parent));
            }
        }
        assert!(branched >= 4, "burst placements branch: {branched}/6");
        assert_eq!(p.snapshot(dep).unwrap().branches, u64::from(branched));
    }

    #[test]
    fn snapshot_ttl_eviction_is_monotone() {
        let mut p = platform("us-east-2a");
        let dep = DeploymentId::from_raw(1);
        let ttl = SimDuration::from_mins(10);
        p.set_profile(
            dep,
            ExecProfile::for_mode(ExecMode::Checkpointed).with_snapshot_ttl(ttl),
            2048,
            Arch::X86_64,
            SimTime::ZERO,
        );
        let t0 = SimTime::ZERO;
        let (a, slot, _) = p.acquire(dep, 2048, Arch::X86_64, t0).unwrap();
        let (deadline, epoch) = p.release(a, slot, t0, SimDuration::from_mins(5));
        let expires = p.snapshot(dep).unwrap().expires;
        assert_eq!(expires, t0 + ttl);
        p.expire(a, slot, epoch, deadline);
        assert_eq!(p.snapshots_evicted_total(), 0);
        // Past the TTL the snapshot is evicted on lookup and the start
        // falls back to cold; the eviction counter only ever grows.
        let (_, _, class) = p.acquire(dep, 2048, Arch::X86_64, expires).unwrap();
        assert_eq!(class, StartClass::Cold, "expired snapshot cannot restore");
        assert_eq!(p.snapshots_evicted_total(), 1);
    }

    #[test]
    fn fixed_pool_provisions_and_serves_pooled_starts() {
        let mut p = platform("us-east-2a");
        let dep = DeploymentId::from_raw(1);
        let profile = ExecProfile::default().with_pool(PoolPolicy::Fixed { target: 3, cap: 4 });
        let provisioned = p.set_profile(dep, profile, 2048, Arch::X86_64, SimTime::ZERO);
        assert_eq!(provisioned, 3);
        assert_eq!(p.pool_occupancy(dep), 3);
        assert_eq!(p.instance_count(), 3);
        // A burst larger than the pool: pooled starts first, then cold.
        let mut classes = Vec::new();
        for _ in 0..5 {
            let (_, _, class) = p.acquire(dep, 2048, Arch::X86_64, SimTime::ZERO).unwrap();
            classes.push(class);
        }
        let pooled = classes.iter().filter(|&&c| c == StartClass::Pooled).count();
        let cold = classes.iter().filter(|&&c| c == StartClass::Cold).count();
        assert_eq!(pooled, 3, "pool drains first: {classes:?}");
        assert_eq!(cold, 2);
        assert_eq!(p.pool_occupancy(dep), 0);
        // The tick refills back to target, never above the cap.
        let stats = p.pool_tick(SimTime::ZERO + SimDuration::from_mins(1));
        assert_eq!(stats.provisioned, 3);
        assert_eq!(stats.occupancy, 3);
        assert!(p.pool_occupancy(dep) as u32 <= profile.pool.cap());
    }

    #[test]
    fn reprofiled_pool_adopts_the_new_policy_and_a_dropped_pool_frees_its_fis() {
        let mut p = platform("us-east-2a");
        let dep = DeploymentId::from_raw(1);
        let fixed =
            |target, cap| ExecProfile::default().with_pool(PoolPolicy::Fixed { target, cap });
        let set = |p: &mut AzPlatform, profile| {
            p.set_profile(dep, profile, 2048, Arch::X86_64, SimTime::ZERO)
        };
        assert_eq!(set(&mut p, fixed(3, 4)), 3);
        assert_eq!(set(&mut p, fixed(1, 1)), 0);
        let stats = p.pool_tick(SimTime::ZERO + SimDuration::from_mins(1));
        assert_eq!(stats.trimmed, 2, "the tick trims to the new target");
        assert!(p.pool_occupancy(dep) <= 1);
        assert_eq!(p.instance_count(), 1);
        // Dropping the pool destroys its idle FI instead of leaking it.
        set(&mut p, ExecProfile::default());
        assert!(!p.has_pools());
        assert_eq!(p.instance_count(), 0);
        for _ in 0..3 {
            let (_, _, class) = p.acquire(dep, 2048, Arch::X86_64, SimTime::ZERO).unwrap();
            assert_eq!(class, StartClass::Cold);
        }
        assert_eq!(
            p.instance_count(),
            3,
            "three concurrent acquires, three live FIs"
        );
    }

    #[test]
    fn demand_pool_tracks_arrivals_and_drains_when_idle() {
        let mut p = platform("us-east-2a");
        let dep = DeploymentId::from_raw(1);
        let profile = ExecProfile::default().with_pool(PoolPolicy::DemandEwma {
            alpha_x256: 256,
            cap: 8,
        });
        p.set_profile(dep, profile, 2048, Arch::X86_64, SimTime::ZERO);
        assert_eq!(p.pool_occupancy(dep), 0, "EWMA pool starts empty");
        // A window with 5 arrivals drives the target to 5 (alpha = 1).
        for _ in 0..5 {
            let _ = p.acquire(dep, 2048, Arch::X86_64, SimTime::ZERO).unwrap();
        }
        let stats = p.pool_tick(SimTime::ZERO + SimDuration::from_mins(1));
        assert_eq!(stats.provisioned, 5);
        assert_eq!(p.pool_occupancy(dep), 5);
        // Demand stops: the next tick retargets to zero and trims.
        let stats2 = p.pool_tick(SimTime::ZERO + SimDuration::from_mins(2));
        assert_eq!(stats2.trimmed, 5);
        assert_eq!(p.pool_occupancy(dep), 0);
    }

    #[test]
    fn pool_occupancy_never_exceeds_cap_under_churn() {
        let mut p = platform("us-east-2a");
        let dep = DeploymentId::from_raw(1);
        let cap = 4u32;
        let profile = ExecProfile::default().with_pool(PoolPolicy::DemandEwma {
            alpha_x256: 128,
            cap,
        });
        p.set_profile(dep, profile, 2048, Arch::X86_64, SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for wave in 0..20u64 {
            // Bursts of varying size, some far over the cap.
            for _ in 0..(wave % 11) {
                let _ = p.acquire(dep, 2048, Arch::X86_64, t);
            }
            t += SimDuration::from_mins(1);
            p.pool_tick(t);
            assert!(
                p.pool_occupancy(dep) as u32 <= cap,
                "wave {wave}: occupancy {} over cap {cap}",
                p.pool_occupancy(dep)
            );
        }
    }

    #[test]
    fn day_tick_recycles_only_idle_hosts() {
        let mut p = platform("us-west-1b"); // volatile: large recycle
        let dep = DeploymentId::from_raw(1);
        // Occupy some hosts.
        for _ in 0..50 {
            let _ = p.acquire(dep, 2048, Arch::X86_64, SimTime::ZERO).unwrap();
        }
        let busy_hosts: Vec<HostId> = p
            .hosts
            .iter()
            .filter(|h| h.live_instances > 0)
            .map(|h| h.id)
            .collect();
        let recycled = p.day_tick();
        assert!(recycled > 0, "volatile zone should recycle");
        for id in busy_hosts {
            assert!(
                p.hosts.iter().any(|h| h.id == id),
                "busy host {id} must survive churn"
            );
        }
    }

    #[test]
    fn day_ticks_drift_ground_truth() {
        let mut p = platform("us-west-1b");
        let day0 = p.ground_truth_mix();
        for _ in 0..14 {
            p.day_tick();
        }
        let day14 = p.ground_truth_mix();
        assert!(
            day14.ape_percent(&day0) > 5.0,
            "volatile zone should drift measurably in 14 days"
        );
    }

    #[test]
    fn arm_pool_is_separate() {
        let mut p = platform("us-west-1a");
        let dep = DeploymentId::from_raw(7);
        let (a, _, _) = p.acquire(dep, 2048, Arch::Arm64, SimTime::ZERO).unwrap();
        assert_eq!(p.instance(a).unwrap().cpu, CpuType::Graviton2);
    }

    #[test]
    fn diurnal_capacity_shrinks_at_peak() {
        let p = platform("us-west-1a");
        let midnight = p.remaining_capacity(2048, Arch::X86_64, 3.0);
        let peak = p.remaining_capacity(2048, Arch::X86_64, 15.0);
        assert!(midnight > peak, "{midnight} vs {peak}");
    }

    #[test]
    fn payload_cache_is_bounded_and_evicts_fifo() {
        let mut cache = PayloadCache::default();
        assert!(cache.is_empty());
        // Re-insertion of a cached hash is a no-op.
        cache.insert(7);
        cache.insert(7);
        assert_eq!(cache.len(), 1);
        // Fill past capacity: size stays bounded and the oldest
        // insertions are evicted first.
        for h in 0..(2 * PayloadCache::CAPACITY as u64) {
            cache.insert(1_000 + h);
        }
        assert_eq!(cache.len(), PayloadCache::CAPACITY);
        assert!(!cache.contains(7), "oldest entry evicted");
        assert!(!cache.contains(1_000), "early entries evicted");
        let newest = 1_000 + 2 * PayloadCache::CAPACITY as u64 - 1;
        let oldest_kept = newest - (PayloadCache::CAPACITY as u64 - 1);
        for h in oldest_kept..=newest {
            assert!(cache.contains(h), "recent entry {h} retained");
        }
    }
}
