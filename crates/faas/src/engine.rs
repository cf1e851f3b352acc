//! The multi-AZ FaaS fleet engine: event-driven execution of invocation
//! batches against every platform in the catalog, with billing, churn
//! ticks and reactive scaling.
//!
//! The engine is the *only* component that reads `sky-cloud` ground truth.
//! Its clients (the sampling campaign, the router, the experiment
//! harnesses) observe the fleet exclusively through
//! [`InvocationOutcome`]s — the epistemic boundary the paper's tooling
//! lives behind.

use crate::ids::{AccountId, DeploymentId, InstanceId};
use crate::lifecycle::{ExecMode, ExecProfile, StartClass};
use crate::platform::{AzPlatform, CapacityError};
use crate::report::SaafReport;
use crate::request::{
    BatchRequest, InvocationOutcome, InvocationStatus, RequestBody, WorkloadSpec,
};
use sky_cloud::{Arch, AzId, Catalog, FaultKind, FaultPlan, PriceBook, Provider};
use sky_sim::metrics::{MetricHandle, MetricsRegistry, MetricsSnapshot, SpanTracker};
use sky_sim::{EventQueue, SimDuration, SimRng, SimTime, Slab, SlotKey};
use sky_workloads::PerfModel;
use std::collections::BTreeMap;

/// Tunable platform behaviour constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Root seed for all randomness in the fleet.
    pub seed: u64,
    /// Workload performance model.
    pub perf: PerfModel,
    /// Minimum FI keep-alive after the last invocation (AWS guarantees
    /// about five minutes \[21\]).
    pub keep_alive_min: SimDuration,
    /// Maximum observed keep-alive (drawn uniformly per idle period).
    pub keep_alive_max: SimDuration,
    /// Billed handler overhead added to every sleep probe.
    pub sleep_overhead: SimDuration,
    /// Billed cost of the CPU check in a gated request.
    pub gate_check: SimDuration,
    /// Cold-start initialization delay bounds (latency, not billed).
    pub cold_start_min: SimDuration,
    /// Upper bound of the cold-start delay.
    pub cold_start_max: SimDuration,
    /// Warm dispatch overhead (latency, not billed).
    pub warm_dispatch: SimDuration,
    /// Interval between reactive scale-up checks.
    pub scale_interval: SimDuration,
    /// Probability that a request arriving during a burst (other
    /// executions of the same deployment in flight) reuses an idle warm
    /// FI instead of spreading to a fresh environment. Idle deployments
    /// always reuse. Calibrated so the focus-fastest retry strategy needs
    /// ~5 reissues per request on a 40%-fast zone, the figure the paper
    /// reports for us-west-1b (§4.6).
    pub warm_reuse_prob: f64,
    /// Execution profile applied to every new deployment (per-deployment
    /// overrides via [`FaasEngine::set_exec_profile`]). The default is
    /// the legacy cached lifecycle, which changes nothing.
    pub exec_profile: ExecProfile,
    /// Snapshot-restore initialization latency: deterministic (CRIU-style
    /// restores are dominated by image read-back, not init jitter) and
    /// between `warm_dispatch` and `cold_start_min`.
    pub restore_latency: SimDuration,
    /// CoW-branch initialization latency (page tables only — cheaper
    /// than a full restore).
    pub branch_latency: SimDuration,
    /// Interval between pre-warm pool maintenance ticks.
    pub pool_tick_interval: SimDuration,
}

impl FleetConfig {
    /// Default configuration with the given seed.
    pub fn new(seed: u64) -> Self {
        FleetConfig {
            seed,
            perf: PerfModel::default(),
            keep_alive_min: SimDuration::from_mins(5),
            keep_alive_max: SimDuration::from_mins(9),
            sleep_overhead: SimDuration::from_millis(2),
            gate_check: SimDuration::from_millis(2),
            cold_start_min: SimDuration::from_millis(80),
            cold_start_max: SimDuration::from_millis(250),
            warm_dispatch: SimDuration::from_millis(3),
            scale_interval: SimDuration::from_secs(60),
            warm_reuse_prob: 0.58,
            exec_profile: ExecProfile::default(),
            restore_latency: SimDuration::from_millis(40),
            branch_latency: SimDuration::from_millis(15),
            pool_tick_interval: SimDuration::from_secs(60),
        }
    }
}

/// Errors returned by deployment management.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The AZ is not in the catalog.
    UnknownAz(AzId),
    /// The memory setting is not offered by the provider.
    UnsupportedMemory {
        /// Provider rejecting the setting.
        provider: Provider,
        /// Requested memory in MB.
        memory_mb: u32,
    },
    /// The architecture is not offered by the provider.
    UnsupportedArch {
        /// Provider rejecting the architecture.
        provider: Provider,
        /// Requested architecture.
        arch: Arch,
    },
    /// The account belongs to a different provider than the AZ.
    ProviderMismatch {
        /// The account's provider.
        account: Provider,
        /// The AZ's provider.
        az: Provider,
    },
    /// The account id is unknown.
    UnknownAccount(AccountId),
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::UnknownAz(az) => write!(f, "unknown availability zone {az}"),
            DeployError::UnsupportedMemory {
                provider,
                memory_mb,
            } => {
                write!(f, "{provider} does not offer {memory_mb} MB functions")
            }
            DeployError::UnsupportedArch { provider, arch } => {
                write!(f, "{provider} does not offer {arch} functions")
            }
            DeployError::ProviderMismatch { account, az } => {
                write!(f, "account on {account} cannot deploy to {az} zone")
            }
            DeployError::UnknownAccount(a) => write!(f, "unknown account {a}"),
        }
    }
}

impl std::error::Error for DeployError {}

#[derive(Debug, Clone)]
struct Account {
    provider: Provider,
    quota: u32,
    in_flight: u32,
}

/// A function deployment record.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    /// Identity.
    pub id: DeploymentId,
    /// Owning account.
    pub account: AccountId,
    /// Hosting zone.
    pub az: AzId,
    /// Provider (derived from the zone).
    pub provider: Provider,
    /// Memory setting, MB.
    pub memory_mb: u32,
    /// Architecture.
    pub arch: Arch,
}

/// Engine events address platforms by dense index (`az_idx` into
/// [`FaasEngine::platforms`]) rather than by `AzId`, so the hot path
/// never hashes or clones a zone name.
/// Events are deliberately small: the large [`InvocationStatus`] payload
/// (which carries a full [`SaafReport`]) lives in the engine's response
/// slab and the event holds only its [`SlotKey`], so timer-wheel slot
/// sorts move a few words per event instead of a ~150-byte report.
///
/// `idx` is the request's index in the running batch, narrowed to `u32`
/// ([`FaasEngine::run_batch`] checks that the batch fits) so that the
/// event is 32 bytes and a queue entry 48.
enum Event {
    Arrival {
        idx: u32,
    },
    /// The function's response reached the client: resolve the outcome or
    /// reissue a declined gated request. `status` keys
    /// [`FaasEngine::response_payloads`]; exactly one handle consumes it.
    Response {
        idx: u32,
        status: SlotKey,
        billed: SimDuration,
        cost: f64,
    },
    /// The FI finished its work (including any decline hold) and returns
    /// to the warm pool. `slot` is the FI's platform slot (stable while
    /// busy); `instance` validates it.
    Release {
        az_idx: u32,
        instance: InstanceId,
        slot: SlotKey,
    },
    Expire {
        az_idx: u32,
        instance: InstanceId,
        slot: SlotKey,
        epoch: u64,
    },
    DayTick {
        day: u64,
    },
    ScaleCheck {
        az_idx: u32,
    },
    /// Recurring pre-warm pool maintenance on one platform; scheduled
    /// only while the platform has at least one pool, so legacy runs see
    /// zero extra events.
    PoolTick {
        az_idx: u32,
    },
    /// A scheduled [`FaultPlan`] event fires: arm the fault on its
    /// platform until `until`. Each plan entry is scheduled exactly once,
    /// so a fault can neither double-fire nor fire outside its window.
    Fault {
        az_idx: u32,
        kind: FaultKind,
        until: SimTime,
    },
}

/// Per-AZ metric handles, resolved once when the platform is
/// instantiated so every hot-path update is a dense-index integer add —
/// the "cheap label interning" contract of `sky_sim::metrics`.
#[derive(Debug, Clone, Copy)]
struct AzMetricHandles {
    /// `faas/requests{az, status}` terminal outcome counters.
    success: MetricHandle,
    declined: MetricHandle,
    throttled: MetricHandle,
    no_capacity: MetricHandle,
    /// Placement attempts (every arrival, retries included).
    attempts: MetricHandle,
    cold_starts: MetricHandle,
    warm_starts: MetricHandle,
    /// Automatic gated-workload reissues.
    gated_retries: MetricHandle,
    /// FIs torn down because their keep-alive lapsed.
    keepalive_evictions: MetricHandle,
    /// Hosts recycled by daily churn / added by reactive scaling.
    hosts_recycled: MetricHandle,
    hosts_added: MetricHandle,
    /// Billed occupancy integral: `memory_mb × billed µs` (integer
    /// GB-seconds substrate — divide by 1024·10⁶ to read GB-s).
    billed_mb_us: MetricHandle,
    /// Invocation spend in integer nano-dollars (each f64 cost rounded
    /// once at record time, so shard merges are order-free).
    cost_nanousd: MetricHandle,
    /// Start classes beyond the legacy cold/warm pair: snapshot
    /// restores, CoW branches, and pre-warm pool hits.
    restored_starts: MetricHandle,
    branched_starts: MetricHandle,
    pooled_starts: MetricHandle,
    /// Pre-warm pool maintenance: instances provisioned ahead of demand,
    /// trimmed back to target, and the occupancy high-water gauge.
    pool_provisioned: MetricHandle,
    pool_trimmed: MetricHandle,
    pool_occupancy: MetricHandle,
    /// Ephemeral-mode FIs torn down right after their invocation.
    ephemeral_retires: MetricHandle,
    /// Snapshot registry lifecycle.
    snapshots_captured: MetricHandle,
    snapshots_evicted: MetricHandle,
    /// Idempotent result-cache outcomes on `Workload` requests.
    result_cache_hits: MetricHandle,
    result_cache_misses: MetricHandle,
    /// Per-attempt dispatch latency distributions.
    dispatch_cold_us: MetricHandle,
    dispatch_restore_us: MetricHandle,
    dispatch_warm_us: MetricHandle,
    /// Final-attempt span phase distributions plus end-to-end.
    span_route_us: MetricHandle,
    span_cold_us: MetricHandle,
    span_restore_us: MetricHandle,
    span_warm_us: MetricHandle,
    span_exec_us: MetricHandle,
    span_e2e_us: MetricHandle,
    /// Billed occupancy integral split by execution mode (indexed by
    /// [`ExecMode::index`]); the slices sum exactly to `billed_mb_us`.
    billed_mb_us_mode: [MetricHandle; 5],
}

impl AzMetricHandles {
    fn register(metrics: &mut MetricsRegistry, az: &str) -> Self {
        let l = |status: &'static str| [("az", az), ("status", status)];
        AzMetricHandles {
            success: metrics.counter("faas", "requests", &l("success")),
            declined: metrics.counter("faas", "requests", &l("declined")),
            throttled: metrics.counter("faas", "requests", &l("throttled")),
            no_capacity: metrics.counter("faas", "requests", &l("no-capacity")),
            attempts: metrics.counter("faas", "attempts", &[("az", az)]),
            cold_starts: metrics.counter("faas", "cold_starts", &[("az", az)]),
            warm_starts: metrics.counter("faas", "warm_starts", &[("az", az)]),
            gated_retries: metrics.counter("faas", "gated_retries", &[("az", az)]),
            keepalive_evictions: metrics.counter("faas", "keepalive_evictions", &[("az", az)]),
            hosts_recycled: metrics.counter("faas", "hosts_recycled", &[("az", az)]),
            hosts_added: metrics.counter("faas", "hosts_added", &[("az", az)]),
            billed_mb_us: metrics.counter("faas", "billed_mb_us", &[("az", az)]),
            cost_nanousd: metrics.counter("faas", "cost_nanousd", &[("az", az)]),
            restored_starts: metrics.counter("faas", "restored_starts", &[("az", az)]),
            branched_starts: metrics.counter("faas", "branched_starts", &[("az", az)]),
            pooled_starts: metrics.counter("faas", "pooled_starts", &[("az", az)]),
            pool_provisioned: metrics.counter("faas", "pool_provisioned", &[("az", az)]),
            pool_trimmed: metrics.counter("faas", "pool_trimmed", &[("az", az)]),
            pool_occupancy: metrics.gauge("faas", "pool_occupancy", &[("az", az)]),
            ephemeral_retires: metrics.counter("faas", "ephemeral_retires", &[("az", az)]),
            snapshots_captured: metrics.counter("faas", "snapshots_captured", &[("az", az)]),
            snapshots_evicted: metrics.counter("faas", "snapshots_evicted", &[("az", az)]),
            result_cache_hits: metrics.counter("faas", "result_cache_hits", &[("az", az)]),
            result_cache_misses: metrics.counter("faas", "result_cache_misses", &[("az", az)]),
            dispatch_cold_us: metrics.histogram("faas", "dispatch_cold_us", &[("az", az)]),
            dispatch_restore_us: metrics.histogram("faas", "dispatch_restore_us", &[("az", az)]),
            dispatch_warm_us: metrics.histogram("faas", "dispatch_warm_us", &[("az", az)]),
            span_route_us: metrics.histogram("span", "route_us", &[("az", az)]),
            span_cold_us: metrics.histogram("span", "cold_start_us", &[("az", az)]),
            span_restore_us: metrics.histogram("span", "restore_start_us", &[("az", az)]),
            span_warm_us: metrics.histogram("span", "warm_start_us", &[("az", az)]),
            span_exec_us: metrics.histogram("span", "execute_us", &[("az", az)]),
            span_e2e_us: metrics.histogram("span", "e2e_us", &[("az", az)]),
            billed_mb_us_mode: ExecMode::ALL.map(|m| {
                metrics.counter(
                    "faas",
                    "billed_mb_us_mode",
                    &[("az", az), ("mode", m.label())],
                )
            }),
        }
    }
}

/// A batch request flattened for the dispatch loop: the deployment
/// record is resolved once per batch (not once per attempt) and the
/// body is `Copy`, so arrivals and retries allocate nothing.
#[derive(Clone, Copy)]
struct CompiledRequest {
    deployment: DeploymentId,
    account: u32,
    az_idx: u32,
    memory_mb: u32,
    arch: Arch,
    provider: Provider,
    body: RequestBody,
    /// Execution mode of the deployment (resolved once per batch; keys
    /// the per-mode billing slice).
    mode: ExecMode,
    /// Idempotent result-cache TTL (zero = caching disabled).
    cache_ttl: SimDuration,
}

/// Result-cache key: a `Workload` request is idempotent in exactly its
/// deployment and workload spec (kind, scale, payload identity).
type ResultCacheKey = (u64, u64, u32, u32, u64);

fn result_cache_key(dep: DeploymentId, spec: &WorkloadSpec) -> ResultCacheKey {
    (
        dep.raw(),
        spec.kind as u64,
        spec.scale,
        spec.payload_bytes,
        spec.payload_hash,
    )
}

/// Hot per-request state for the batch in flight, kept as one contiguous
/// arena (indexed by request position) rather than nine parallel `Vec`s:
/// an arrival or response touches one cache line of its own record.
struct RequestState {
    req: CompiledRequest,
    outcome: Option<InvocationOutcome>,
    first_arrival: Option<SimTime>,
    attempts: u32,
    retry_billed: SimDuration,
    retry_cost: f64,
    /// Final-attempt span components, overwritten per attempt: dispatch
    /// latency, client-visible execute time, and the start class that
    /// picks the span's start phase.
    span_dispatch: SimDuration,
    span_exec: SimDuration,
    span_class: StartClass,
}

impl RequestState {
    fn new(req: CompiledRequest) -> Self {
        RequestState {
            req,
            outcome: None,
            first_arrival: None,
            attempts: 0,
            retry_billed: SimDuration::ZERO,
            retry_cost: 0.0,
            span_dispatch: SimDuration::ZERO,
            span_exec: SimDuration::ZERO,
            span_class: StartClass::Warm,
        }
    }
}

/// The multi-AZ fleet engine.
pub struct FaasEngine {
    catalog: Catalog,
    config: FleetConfig,
    now: SimTime,
    queue: EventQueue<Event>,
    /// Platforms in instantiation order; events index into this vector.
    platforms: Vec<AzPlatform>,
    /// Interning map from zone name to dense platform index.
    az_index: BTreeMap<AzId, u32>,
    accounts: Vec<Account>,
    deployments: Vec<Deployment>,
    exec_rng: SimRng,
    events_processed: u64,
    metrics: MetricsRegistry,
    spans: SpanTracker,
    /// Per-AZ metric handles, parallel to `platforms`.
    az_metrics: Vec<AzMetricHandles>,
    /// Per-batch request arena (valid during run_batch only).
    batch: Vec<RequestState>,
    batch_pending: usize,
    /// In-flight `Event::Response` payloads, slab-allocated so queue
    /// entries stay small. Slots recycle within a batch (steady-state
    /// zero allocation) and the slab is asserted empty at batch teardown.
    response_payloads: Slab<InvocationStatus>,
    /// Idempotent result cache: successful `Workload` reports keyed by
    /// [`result_cache_key`], replayed while unexpired. Expired entries
    /// are overwritten by the next successful completion of their key,
    /// so the map is bounded by the distinct request shapes in play.
    result_cache: BTreeMap<ResultCacheKey, (SimTime, SaafReport)>,
    /// Observation hook for the streaming characterizer: while enabled,
    /// every successful completion's SAAF report is also buffered on its
    /// platform (drained via [`FaasEngine::take_observations`]). Off by
    /// default — the hook reads terminal state only, so enabling it can
    /// never perturb event order or RNG streams.
    observe_completions: bool,
}

impl std::fmt::Debug for FaasEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaasEngine")
            .field("now", &self.now)
            .field("platforms", &self.platforms.len())
            .field("accounts", &self.accounts.len())
            .field("deployments", &self.deployments.len())
            .finish()
    }
}

impl FaasEngine {
    /// Create an engine over a world catalog.
    pub fn new(catalog: Catalog, config: FleetConfig) -> Self {
        let root = SimRng::seed_from(config.seed).derive("faas-engine");
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::start_of_day(1), Event::DayTick { day: 1 });
        FaasEngine {
            catalog,
            config,
            now: SimTime::ZERO,
            queue,
            platforms: Vec::new(),
            az_index: BTreeMap::new(),
            accounts: Vec::new(),
            deployments: Vec::new(),
            exec_rng: root.derive("exec"),
            events_processed: 0,
            metrics: MetricsRegistry::new(),
            spans: SpanTracker::new(),
            az_metrics: Vec::new(),
            batch: Vec::new(),
            batch_pending: 0,
            response_payloads: Slab::new(),
            result_cache: BTreeMap::new(),
            observe_completions: false,
        }
    }

    /// Enable or disable the completion observation hook. While enabled,
    /// every successful invocation's SAAF report is buffered per zone
    /// for [`take_observations`](Self::take_observations) — the feedback
    /// path of the streaming characterizer.
    pub fn set_observation_hook(&mut self, enabled: bool) {
        self.observe_completions = enabled;
    }

    /// Whether the completion observation hook is enabled.
    pub fn observation_hook(&self) -> bool {
        self.observe_completions
    }

    /// Drain the buffered completion reports for a zone, in completion
    /// order. Empty unless the observation hook is enabled.
    pub fn take_observations(&mut self, az: &AzId) -> Vec<SaafReport> {
        match self.az_index.get(az) {
            Some(&idx) => self.platforms[idx as usize].take_observations(),
            None => Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The world catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Total discrete events processed since construction (arrivals,
    /// responses, releases, expiries, maintenance). Used by throughput
    /// benchmarks to report events/second.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Span lifecycle accounting (opened/closed totals, open count).
    pub fn spans(&self) -> &SpanTracker {
        &self.spans
    }

    /// Export the engine's metrics as a normalized, mergeable snapshot,
    /// including a synthetic `faas/events_processed` counter.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let mut extra = MetricsRegistry::new();
        let events = extra.counter("faas", "events_processed", &[]);
        extra.add(events, self.events_processed);
        let spans_opened = extra.counter("span", "opened", &[]);
        extra.add(spans_opened, self.spans.opened_total());
        let spans_closed = extra.counter("span", "closed", &[]);
        extra.add(spans_closed, self.spans.closed_total());
        snap.merge(&extra.snapshot());
        snap
    }

    /// Create an account with the provider's default concurrency quota.
    pub fn create_account(&mut self, provider: Provider) -> AccountId {
        let id = AccountId::from_raw(self.accounts.len() as u64);
        self.accounts.push(Account {
            provider,
            quota: provider.default_concurrency_quota(),
            in_flight: 0,
        });
        id
    }

    /// Deploy a function.
    ///
    /// # Errors
    ///
    /// See [`DeployError`] for each validation failure.
    pub fn deploy(
        &mut self,
        account: AccountId,
        az: &AzId,
        memory_mb: u32,
        arch: Arch,
    ) -> Result<DeploymentId, DeployError> {
        let acct = self
            .accounts
            .get(account.raw() as usize)
            .ok_or(DeployError::UnknownAccount(account))?;
        let spec = self
            .catalog
            .az(az)
            .ok_or_else(|| DeployError::UnknownAz(az.clone()))?;
        let provider = spec.provider;
        if acct.provider != provider {
            return Err(DeployError::ProviderMismatch {
                account: acct.provider,
                az: provider,
            });
        }
        if !provider.supports_memory_mb(memory_mb) {
            return Err(DeployError::UnsupportedMemory {
                provider,
                memory_mb,
            });
        }
        if !provider.arch_options().contains(&arch) {
            return Err(DeployError::UnsupportedArch { provider, arch });
        }
        let id = DeploymentId::from_raw(self.deployments.len() as u64);
        self.deployments.push(Deployment {
            id,
            account,
            az: az.clone(),
            provider,
            memory_mb,
            arch,
        });
        let az_idx = self.ensure_platform(az);
        // Only a non-default fleet-wide profile registers anything: the
        // legacy path never touches the mode machinery, keeping
        // pre-existing runs byte-identical.
        if self.config.exec_profile != ExecProfile::default() {
            self.apply_profile(id, az_idx, self.config.exec_profile);
        }
        Ok(id)
    }

    /// Override one deployment's execution profile (mode, pre-warm pool,
    /// snapshot TTL, result-cache TTL), provisioning any fixed pool
    /// immediately and arming the platform's pool tick if needed.
    ///
    /// # Panics
    ///
    /// Panics if the deployment id is unknown.
    pub fn set_exec_profile(&mut self, dep: DeploymentId, profile: ExecProfile) {
        let az = self.deployments[dep.raw() as usize].az.clone();
        let az_idx = self.az_index[&az];
        self.apply_profile(dep, az_idx, profile);
    }

    fn apply_profile(&mut self, dep: DeploymentId, az_idx: u32, profile: ExecProfile) {
        let d = &self.deployments[dep.raw() as usize];
        let (memory_mb, arch) = (d.memory_mb, d.arch);
        let now = self.now;
        let provisioned =
            self.platforms[az_idx as usize].set_profile(dep, profile, memory_mb, arch, now);
        if provisioned > 0 {
            self.metrics.add(
                self.az_metrics[az_idx as usize].pool_provisioned,
                provisioned as u64,
            );
        }
        let platform = &mut self.platforms[az_idx as usize];
        if profile.pool.enabled() && !platform.pool_tick_scheduled {
            platform.pool_tick_scheduled = true;
            self.queue.schedule(
                now + self.config.pool_tick_interval,
                Event::PoolTick { az_idx },
            );
        }
    }

    /// Look up a deployment record.
    pub fn deployment(&self, id: DeploymentId) -> Option<&Deployment> {
        self.deployments.get(id.raw() as usize)
    }

    /// Experiment-harness access to a platform (e.g. for ground-truth
    /// mixes when computing APE). The profiler/router must not use this.
    pub fn platform(&self, az: &AzId) -> Option<&AzPlatform> {
        self.az_index.get(az).map(|&i| &self.platforms[i as usize])
    }

    /// Arm a fault schedule: each plan event is enqueued once at its
    /// start time and arms its platform until `start + duration` when it
    /// fires. Platforms for targeted zones are instantiated on demand, so
    /// a plan may be armed before any deployment exists in a zone.
    ///
    /// Fault windows never perturb unrelated randomness: fault coin flips
    /// draw from a dedicated per-platform stream, so a run whose windows
    /// are never reached is byte-identical to a run with no plan at all.
    ///
    /// # Panics
    ///
    /// Panics if an event targets a zone missing from the catalog or
    /// starts before the current virtual time.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            assert!(
                self.catalog.az(&ev.az).is_some(),
                "fault plan targets unknown zone {}",
                ev.az
            );
            assert!(
                ev.start >= self.now,
                "fault at {} is in the past (now {})",
                ev.start,
                self.now
            );
            let az_idx = self.ensure_platform(&ev.az);
            self.queue.schedule(
                ev.start,
                Event::Fault {
                    az_idx,
                    kind: ev.kind,
                    until: ev.end(),
                },
            );
        }
    }

    /// Intern `az`, instantiating its platform on first sight, and
    /// return the dense platform index.
    fn ensure_platform(&mut self, az: &AzId) -> u32 {
        if let Some(&idx) = self.az_index.get(az) {
            return idx;
        }
        let spec = self.catalog.az(az).expect("validated by deploy").clone();
        let idx = self.platforms.len() as u32;
        let base = (idx as u64 + 1) << 40;
        let rng = SimRng::seed_from(self.config.seed)
            .derive("platform")
            .derive(&az.to_string());
        self.platforms.push(AzPlatform::new(
            spec,
            base,
            rng,
            self.config.warm_reuse_prob,
        ));
        self.az_metrics.push(AzMetricHandles::register(
            &mut self.metrics,
            &az.to_string(),
        ));
        self.az_index.insert(az.clone(), idx);
        idx
    }

    /// Advance virtual time to `t`, processing maintenance events
    /// (keep-alive expiries, day churn, scale checks) along the way.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot advance into the past");
        while let Some(at) = self.queue.peek_time() {
            if at > t {
                break;
            }
            let (at, event) = self.queue.pop().expect("peeked");
            self.now = at;
            self.events_processed += 1;
            self.handle_maintenance(event);
        }
        self.now = t;
    }

    /// Advance virtual time by `d`.
    pub fn advance_by(&mut self, d: SimDuration) {
        self.advance_to(self.now + d);
    }

    /// Execute a batch of invocations. Arrival times are `now + offset`;
    /// the call returns once every request has a terminal outcome, with
    /// the engine clock left at the last processed event.
    ///
    /// Outcomes are returned in request order.
    pub fn run_batch(&mut self, requests: Vec<BatchRequest>) -> Vec<InvocationOutcome> {
        if requests.is_empty() {
            return Vec::new();
        }
        let start = self.now;
        let n = requests.len();
        self.batch_pending = n;
        // Resolve each request's deployment once up front; every attempt
        // (including gated retries) then works from the flat record.
        self.batch = requests
            .iter()
            .map(|req| {
                let dep = match self.deployments.get(req.deployment.raw() as usize) {
                    Some(d) => d,
                    None => panic!("invocation of unknown deployment {}", req.deployment),
                };
                let az_idx = self.az_index[&dep.az];
                let profile = self.platforms[az_idx as usize].profile(dep.id);
                RequestState::new(CompiledRequest {
                    deployment: dep.id,
                    account: dep.account.raw() as u32,
                    az_idx,
                    memory_mb: dep.memory_mb,
                    arch: dep.arch,
                    provider: dep.provider,
                    body: req.body,
                    mode: profile.mode,
                    cache_ttl: profile.result_cache_ttl,
                })
            })
            .collect();
        let indices = 0..u32::try_from(n).expect("a batch holds at most u32::MAX requests");
        for (idx, req) in indices.zip(&requests) {
            self.queue
                .schedule(start + req.offset, Event::Arrival { idx });
        }
        while self.batch_pending > 0 {
            let (at, event) = self
                .queue
                .pop()
                .expect("pending outcomes imply pending events");
            self.now = at;
            self.events_processed += 1;
            self.handle(event);
        }
        // Teardown contract: every submitted request closed its span and
        // consumed its response payload.
        assert_eq!(
            self.spans.open_count(),
            0,
            "span(s) survived batch teardown"
        );
        debug_assert!(
            self.response_payloads.is_empty(),
            "response payload(s) survived batch teardown"
        );
        std::mem::take(&mut self.batch)
            .into_iter()
            .map(|s| s.outcome.expect("all outcomes resolved"))
            .collect()
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Arrival { idx } => self.handle_arrival(idx as usize),
            Event::Response {
                idx,
                status,
                billed,
                cost,
            } => {
                let status = self.response_payloads.remove(status);
                self.handle_response(idx as usize, status, billed, cost)
            }
            other => self.handle_maintenance(other),
        }
    }

    fn handle_maintenance(&mut self, event: Event) {
        match event {
            Event::Release {
                az_idx,
                instance,
                slot,
            } => {
                let mode = self.platforms[az_idx as usize]
                    .instance_at(slot)
                    .expect("released FI is live")
                    .mode;
                match mode {
                    ExecMode::Ephemeral => {
                        // Torn down right out of execution: no idle
                        // period, no keep-alive draw, no expire event.
                        self.platforms[az_idx as usize].retire(instance, slot, self.now);
                        self.metrics
                            .add(self.az_metrics[az_idx as usize].ephemeral_retires, 1);
                    }
                    ExecMode::Persistent => {
                        // Never reclaimed: park warm with an effectively
                        // infinite keep-alive and schedule no expiry.
                        // (Storms shorten keep-alives, not dedicated
                        // environments.)
                        let forever = SimDuration::from_secs(10 * 365 * 24 * 3600);
                        let _ = self.platforms[az_idx as usize]
                            .release(instance, slot, self.now, forever);
                    }
                    ExecMode::Cached | ExecMode::Checkpointed | ExecMode::Branched => {
                        // A cold-start storm suppresses keep-alive: the FI
                        // is torn down right after its invocation, so the
                        // next request pays a (storm-inflated) cold start.
                        let keep_alive =
                            if self.platforms[az_idx as usize].cold_storm_active(self.now) {
                                SimDuration::ZERO
                            } else {
                                let lo = self.config.keep_alive_min.as_micros();
                                let hi = self.config.keep_alive_max.as_micros();
                                SimDuration::from_micros(self.exec_rng.range_inclusive(lo, hi))
                            };
                        let platform = &mut self.platforms[az_idx as usize];
                        let (deadline, epoch) =
                            platform.release(instance, slot, self.now, keep_alive);
                        self.queue.schedule(
                            deadline,
                            Event::Expire {
                                az_idx,
                                instance,
                                slot,
                                epoch,
                            },
                        );
                    }
                }
                self.meter_snapshot_deltas(az_idx);
            }
            Event::Expire {
                az_idx,
                instance,
                slot,
                epoch,
            } => {
                if self.platforms[az_idx as usize].expire(instance, slot, epoch, self.now) {
                    self.metrics
                        .add(self.az_metrics[az_idx as usize].keepalive_evictions, 1);
                }
            }
            Event::DayTick { day } => {
                // Dense iteration in instantiation order — deterministic,
                // unlike the HashMap walk this replaces.
                for (idx, p) in self.platforms.iter_mut().enumerate() {
                    let recycled = p.day_tick();
                    self.metrics
                        .add(self.az_metrics[idx].hosts_recycled, recycled as u64);
                }
                self.queue.schedule(
                    SimTime::start_of_day(day + 1),
                    Event::DayTick { day: day + 1 },
                );
            }
            Event::ScaleCheck { az_idx } => {
                let p = &mut self.platforms[az_idx as usize];
                p.scale_check_scheduled = false;
                let added = p.scale_step();
                if added > 0 {
                    self.metrics
                        .add(self.az_metrics[az_idx as usize].hosts_added, added as u64);
                }
            }
            Event::PoolTick { az_idx } => {
                let stats = self.platforms[az_idx as usize].pool_tick(self.now);
                let handles = self.az_metrics[az_idx as usize];
                self.metrics
                    .add(handles.pool_provisioned, stats.provisioned as u64);
                self.metrics.add(handles.pool_trimmed, stats.trimmed as u64);
                self.metrics
                    .set_gauge(handles.pool_occupancy, self.now, stats.occupancy as f64);
                let p = &mut self.platforms[az_idx as usize];
                if p.has_pools() {
                    self.queue.schedule(
                        self.now + self.config.pool_tick_interval,
                        Event::PoolTick { az_idx },
                    );
                } else {
                    p.pool_tick_scheduled = false;
                }
            }
            Event::Fault {
                az_idx,
                kind,
                until,
            } => {
                let purged = self.platforms[az_idx as usize].apply_fault(&kind, until);
                // Cold path: fault arming is rare, so the string-keyed
                // slow lane is fine here and keeps per-kind labels off
                // the per-AZ handle table.
                let az = self.platforms[az_idx as usize].spec().id.to_string();
                let window = until.saturating_since(self.now);
                let labels = [("az", az.as_str()), ("kind", kind.label())];
                self.metrics.incr("faas", "faults_armed", &labels, 1);
                self.metrics
                    .incr("faas", "fault_window_us", &labels, window.as_micros());
                self.metrics
                    .incr("faas", "fault_purged_fis", &labels, purged as u64);
                let until_gauge = self.metrics.gauge("faas", "fault_until_us", &labels);
                self.metrics
                    .set_gauge(until_gauge, self.now, until.as_micros() as f64);
            }
            Event::Arrival { .. } | Event::Response { .. } => {
                unreachable!("batch events are not maintenance")
            }
        }
    }

    /// Meter snapshot captures/evictions accumulated on a platform since
    /// the last drain (acquire can lazily evict; release/retire can
    /// capture).
    fn meter_snapshot_deltas(&mut self, az_idx: u32) {
        let (captured, evicted) = self.platforms[az_idx as usize].take_snapshot_deltas();
        if captured > 0 {
            self.metrics.add(
                self.az_metrics[az_idx as usize].snapshots_captured,
                captured,
            );
        }
        if evicted > 0 {
            self.metrics
                .add(self.az_metrics[az_idx as usize].snapshots_evicted, evicted);
        }
    }

    /// Terminal outcome assembly: folds in the retry accumulators,
    /// closes the request's span (phase durations must sum exactly to
    /// the end-to-end latency) and meters the terminal counters.
    fn resolve_final(
        &mut self,
        idx: usize,
        finished: SimTime,
        status: InvocationStatus,
        billed: SimDuration,
        cost: f64,
    ) {
        let state = &self.batch[idx];
        let arrived = state
            .first_arrival
            .expect("a resolving request has arrived");
        assert!(
            finished >= arrived,
            "request {idx} finished before it arrived"
        );
        let az_idx = state.req.az_idx as usize;
        let handles = self.az_metrics[az_idx];

        // Span accounting: e2e partitions exactly into route (queueing,
        // gated-retry waits) + final-attempt dispatch + execute.
        let dispatch = state.span_dispatch;
        let exec = state.span_exec;
        let class = state.span_class;
        let mode = state.req.mode;
        let memory_mb = state.req.memory_mb;
        let retry_billed = state.retry_billed;
        let retry_cost = state.retry_cost;
        let attempts = state.attempts;
        let e2e = finished.saturating_since(arrived);
        let route = e2e
            .as_micros()
            .checked_sub(dispatch.as_micros() + exec.as_micros())
            .map(SimDuration::from_micros)
            .unwrap_or_else(|| {
                panic!(
                    "request {idx}: dispatch {dispatch} + execute {exec} exceed end-to-end {e2e}"
                )
            });
        self.spans.close();
        self.metrics.observe_duration(handles.span_route_us, route);
        let start_hist = match class {
            StartClass::Cold => handles.span_cold_us,
            StartClass::Restored | StartClass::Branched => handles.span_restore_us,
            StartClass::Pooled | StartClass::Warm => handles.span_warm_us,
        };
        self.metrics.observe_duration(start_hist, dispatch);
        self.metrics.observe_duration(handles.span_exec_us, exec);
        self.metrics.observe_duration(handles.span_e2e_us, e2e);

        let status_counter = match &status {
            InvocationStatus::Success(_) => handles.success,
            InvocationStatus::Declined(_) => handles.declined,
            InvocationStatus::Throttled => handles.throttled,
            InvocationStatus::NoCapacity => handles.no_capacity,
        };
        self.metrics.add(status_counter, 1);
        let total_billed = billed + retry_billed;
        let billed_mb_us = total_billed.as_micros() * memory_mb as u64;
        self.metrics.add(handles.billed_mb_us, billed_mb_us);
        // Per-mode billing slice: a request bills against exactly one
        // mode (its deployment's), so the slices partition the total.
        self.metrics
            .add(handles.billed_mb_us_mode[mode.index()], billed_mb_us);
        self.metrics.add(
            handles.cost_nanousd,
            PriceBook::nano_usd(cost) + PriceBook::nano_usd(retry_cost),
        );

        if self.observe_completions {
            if let InvocationStatus::Success(report) = &status {
                self.platforms[az_idx].push_observation(report.clone());
            }
        }

        let state = &mut self.batch[idx];
        assert!(state.outcome.is_none(), "double resolution");
        state.outcome = Some(InvocationOutcome {
            index: idx,
            arrived,
            finished,
            status,
            billed,
            cost_usd: cost,
            attempts: attempts.max(1),
            retry_billed,
            retry_cost_usd: retry_cost,
        });
        self.batch_pending -= 1;
    }

    /// Resolve an arrival before any dispatch work (result-cache replay,
    /// quota, throttling storm, no capacity): unbilled, and its
    /// end-to-end time is pure routing.
    fn shed(&mut self, idx: usize, status: InvocationStatus) {
        let state = &mut self.batch[idx];
        state.span_dispatch = SimDuration::ZERO;
        state.span_exec = SimDuration::ZERO;
        state.span_class = StartClass::Warm;
        self.resolve_final(idx, self.now, status, SimDuration::ZERO, 0.0);
    }

    fn handle_arrival(&mut self, idx: usize) {
        let req = self.batch[idx].req;
        let arrived = self.now;
        if self.batch[idx].first_arrival.is_none() {
            self.batch[idx].first_arrival = Some(arrived);
            self.spans.open();
        }
        self.batch[idx].attempts += 1;
        let handles = self.az_metrics[req.az_idx as usize];
        self.metrics.add(handles.attempts, 1);
        // Idempotent result cache: an unexpired cached report for this
        // exact workload is replayed at the edge — no quota, no
        // placement, no billing. (Expired entries are left for the next
        // completion to overwrite.)
        if req.cache_ttl > SimDuration::ZERO {
            if let RequestBody::Workload { spec } = req.body {
                let key = result_cache_key(req.deployment, &spec);
                let hit = match self.result_cache.get(&key) {
                    Some((expires, report)) if arrived < *expires => Some(report.clone()),
                    _ => None,
                };
                if let Some(mut report) = hit {
                    // A replay starts no container, whatever the
                    // original run did.
                    report.new_container = false;
                    self.metrics.add(handles.result_cache_hits, 1);
                    return self.shed(idx, InvocationStatus::Success(report));
                }
                self.metrics.add(handles.result_cache_misses, 1);
            }
        }
        // The concurrency quota, then a throttling storm's 429-style
        // shed: both before any placement work, so a shed arrival
        // consumes no capacity and holds no quota.
        let acct = &self.accounts[req.account as usize];
        let platform = &mut self.platforms[req.az_idx as usize];
        if acct.in_flight >= acct.quota || platform.throttle_rejects(arrived) {
            return self.shed(idx, InvocationStatus::Throttled);
        }
        // Placement.
        let (instance_id, inst_slot, class) =
            match platform.acquire(req.deployment, req.memory_mb, req.arch, arrived) {
                Ok(x) => x,
                Err(CapacityError::Exhausted) => {
                    if !platform.scale_check_scheduled {
                        platform.scale_check_scheduled = true;
                        self.queue.schedule(
                            arrived + self.config.scale_interval,
                            Event::ScaleCheck { az_idx: req.az_idx },
                        );
                    }
                    return self.shed(idx, InvocationStatus::NoCapacity);
                }
            };
        self.accounts[req.account as usize].in_flight += 1;
        // Acquire may have lazily evicted an expired snapshot.
        self.meter_snapshot_deltas(req.az_idx);

        // Dispatch latency (not billed). Cold-start storms inflate init
        // (and snapshot restores — image read-back contends on the same
        // substrate); latency spikes add a flat (unbilled) delay to every
        // dispatch. Restore and branch latencies are deterministic: no
        // RNG draw, so pooled/restored traffic never perturbs the
        // exec stream consumed by legacy deployments.
        let platform = &self.platforms[req.az_idx as usize];
        let storm = platform.cold_start_factor(arrived);
        let (init, starts, hist) = match class {
            StartClass::Cold => {
                let lo = self.config.cold_start_min.as_micros();
                let hi = self.config.cold_start_max.as_micros();
                let init = SimDuration::from_micros(self.exec_rng.range_inclusive(lo, hi));
                (
                    init.mul_f64(storm),
                    handles.cold_starts,
                    handles.dispatch_cold_us,
                )
            }
            StartClass::Restored => (
                self.config.restore_latency.mul_f64(storm),
                handles.restored_starts,
                handles.dispatch_restore_us,
            ),
            StartClass::Branched => (
                self.config.branch_latency,
                handles.branched_starts,
                handles.dispatch_restore_us,
            ),
            StartClass::Pooled => (
                self.config.warm_dispatch,
                handles.pooled_starts,
                handles.dispatch_warm_us,
            ),
            StartClass::Warm => (
                self.config.warm_dispatch,
                handles.warm_starts,
                handles.dispatch_warm_us,
            ),
        };
        let dispatch = init + platform.extra_dispatch_latency(arrived);
        self.metrics.add(starts, 1);
        self.metrics.observe_duration(hist, dispatch);

        // Execution semantics. Gray degradation silently stretches
        // *workload* execution (sleeps are timer-bound and unaffected).
        let hour = arrived.hour_of_day_f64();
        let contention = platform.diurnal().contention(hour);
        let gray = platform.gray_slowdown(arrived);
        let inst = platform.instance_at(inst_slot).expect("just acquired");
        let cpu = inst.cpu;
        // `billed` is the full FI occupancy (including decline holds);
        // `response_after` is when the client hears back, measured from
        // the end of dispatch.
        let (billed, response_after, declined) = match req.body {
            RequestBody::Sleep { duration } => {
                let b = duration + self.config.sleep_overhead;
                (b, b, false)
            }
            // A banned CPU responds right after the check and holds the FI
            // busy for `hold`, so the reissue cannot land back here.
            RequestBody::GatedWorkload { banned, hold, .. } if banned.contains(cpu) => {
                (self.config.gate_check + hold, self.config.gate_check, true)
            }
            RequestBody::Workload { spec } | RequestBody::GatedWorkload { spec, .. } => {
                let gate = match req.body {
                    RequestBody::GatedWorkload { .. } => self.config.gate_check,
                    _ => SimDuration::ZERO,
                };
                let decode = self.decode_overhead(
                    req.az_idx,
                    inst_slot,
                    spec.payload_hash,
                    spec.payload_bytes,
                );
                let exec = self
                    .config
                    .perf
                    .duration(
                        spec.kind,
                        spec.scale,
                        cpu,
                        req.memory_mb,
                        contention,
                        &mut self.exec_rng,
                    )
                    .mul_f64(gray);
                let b = gate + decode + exec;
                (b, b, false)
            }
        };
        // The attempt that resolves the request defines its span's
        // start/execute components; earlier attempts' time lands in the
        // route phase (finished − first arrival − dispatch − execute).
        {
            let state = &mut self.batch[idx];
            state.span_dispatch = dispatch;
            state.span_exec = response_after;
            state.span_class = class;
        }
        let response_at = arrived + dispatch + response_after;
        let release_at = arrived + dispatch + billed;
        let cost = PriceBook::invocation_cost(req.provider, req.arch, req.memory_mb, billed);

        let platform = &self.platforms[req.az_idx as usize];
        let inst = platform.instance_at(inst_slot).expect("just acquired");
        let report = SaafReport {
            cpu_model: cpu.model_name().into(),
            cpu_ghz: cpu.clock_ghz(),
            instance_uuid: inst.uuid,
            host_id: inst.host_id,
            new_container: class.new_container(),
            billed,
            memory_mb: req.memory_mb,
            arch: req.arch,
            provider: req.provider,
            az: platform.spec().id.clone(),
            finished_at: response_at,
        };
        let status = if declined {
            InvocationStatus::Declined(report)
        } else {
            InvocationStatus::Success(report)
        };
        let status_key = self.response_payloads.insert(status);
        self.queue.schedule(
            response_at,
            Event::Response {
                idx: idx as u32,
                status: status_key,
                billed,
                cost,
            },
        );
        self.queue.schedule(
            release_at,
            Event::Release {
                az_idx: req.az_idx,
                instance: instance_id,
                slot: inst_slot,
            },
        );
    }

    fn handle_response(
        &mut self,
        idx: usize,
        status: InvocationStatus,
        billed: SimDuration,
        cost: f64,
    ) {
        let req = self.batch[idx].req;
        self.accounts[req.account as usize].in_flight -= 1;
        // Automatic reissue of declined gated requests.
        if let InvocationStatus::Declined(_) = &status {
            if let RequestBody::GatedWorkload {
                max_retries,
                retry_latency,
                ..
            } = req.body
            {
                let retries_so_far = self.batch[idx].attempts - 1;
                if retries_so_far < max_retries {
                    // sky-lint: allow(D005, retry_billed is SimDuration - integer microseconds - not float money)
                    self.batch[idx].retry_billed += billed;
                    // sky-lint: allow(D005, attempt-ordered f64 USD fold surfaced in the outcome report; metered billing stays integer nano-USD in metrics)
                    self.batch[idx].retry_cost += cost;
                    self.metrics
                        .add(self.az_metrics[req.az_idx as usize].gated_retries, 1);
                    self.queue
                        .schedule(self.now + retry_latency, Event::Arrival { idx: idx as u32 });
                    return;
                }
            }
        }
        // Cache the successful report for idempotent replay. Only real
        // completions land here (cache hits resolve inside
        // handle_arrival), so a hit never refreshes its own TTL.
        if req.cache_ttl > SimDuration::ZERO {
            if let (InvocationStatus::Success(report), RequestBody::Workload { spec }) =
                (&status, req.body)
            {
                self.result_cache.insert(
                    result_cache_key(req.deployment, &spec),
                    (self.now + req.cache_ttl, report.clone()),
                );
            }
        }
        self.resolve_final(idx, self.now, status, billed, cost);
    }

    /// Dynamic-function payload decode cost: ~2 ms fixed plus linear in
    /// payload size (≤ 70 ms at the 5 MB cap), cached per FI by content
    /// hash so repeat requests skip it — the FaaSET behaviour §3.2.
    fn decode_overhead(
        &mut self,
        az_idx: u32,
        slot: SlotKey,
        payload_hash: u64,
        payload_bytes: u32,
    ) -> SimDuration {
        let platform = &mut self.platforms[az_idx as usize];
        let inst = platform.instance_at_mut(slot).expect("acquired");
        if inst.payload_cache.contains(payload_hash) {
            return SimDuration::ZERO;
        }
        inst.payload_cache.insert(payload_hash);
        let ms = 2.0 + payload_bytes as f64 / (5.0 * 1024.0 * 1024.0) * 68.0;
        SimDuration::from_millis_f64(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::PoolPolicy;
    use sky_sim::Uuid;
    use sky_workloads::WorkloadKind;

    fn engine(seed: u64) -> FaasEngine {
        FaasEngine::new(Catalog::paper_world(7), FleetConfig::new(seed))
    }

    fn az(s: &str) -> AzId {
        s.parse().unwrap()
    }

    #[test]
    fn events_are_32_bytes() {
        // Every schedule, sort and pop moves the event plus its 16-byte
        // (time, sequence) key.
        assert_eq!(std::mem::size_of::<Event>(), 32);
    }

    #[test]
    fn deploy_validation() {
        let mut e = engine(1);
        let aws = e.create_account(Provider::Aws);
        let ibm = e.create_account(Provider::Ibm);
        assert!(e.deploy(aws, &az("us-west-1a"), 2048, Arch::X86_64).is_ok());
        assert!(matches!(
            e.deploy(aws, &az("mars-1a"), 2048, Arch::X86_64),
            Err(DeployError::UnknownAz(_))
        ));
        assert!(matches!(
            e.deploy(aws, &az("us-west-1a"), 64, Arch::X86_64),
            Err(DeployError::UnsupportedMemory { .. })
        ));
        assert!(matches!(
            e.deploy(ibm, &az("us-west-1a"), 2048, Arch::X86_64),
            Err(DeployError::ProviderMismatch { .. })
        ));
        assert!(matches!(
            e.deploy(ibm, &az("eu-de-a"), 2048, Arch::Arm64),
            Err(DeployError::UnsupportedArch { .. })
        ));
        // 100 distinct memory settings, as the sampling campaign uses.
        for i in 0..100 {
            assert!(e
                .deploy(aws, &az("us-west-1a"), 2038 + i, Arch::X86_64)
                .is_ok());
        }
    }

    #[test]
    fn sleep_batch_all_succeed_and_bill() {
        let mut e = engine(2);
        let acct = e.create_account(Provider::Aws);
        let dep = e
            .deploy(acct, &az("us-east-2a"), 2048, Arch::X86_64)
            .unwrap();
        let reqs: Vec<BatchRequest> = (0..50)
            .map(|i| BatchRequest {
                deployment: dep,
                offset: SimDuration::from_millis(i),
                body: RequestBody::Sleep {
                    duration: SimDuration::from_millis(250),
                },
            })
            .collect();
        let outcomes = e.run_batch(reqs);
        assert_eq!(outcomes.len(), 50);
        for o in &outcomes {
            assert!(o.status.is_success());
            assert_eq!(o.billed, SimDuration::from_millis(252));
            assert!(o.cost_usd > 0.0);
            let r = o.status.report().unwrap();
            assert!(r.new_container, "fresh deployment: all cold");
            assert_eq!(r.cpu_type(), Some(sky_cloud::CpuType::IntelXeon2_5));
        }
        // 50 concurrent sleeps => 50 unique FIs.
        let mut uuids: Vec<Uuid> = outcomes
            .iter()
            .map(|o| o.status.report().unwrap().instance_uuid)
            .collect();
        uuids.sort();
        uuids.dedup();
        assert_eq!(uuids.len(), 50);
    }

    #[test]
    fn sequential_requests_reuse_warm_instances() {
        let mut e = engine(3);
        let acct = e.create_account(Provider::Aws);
        let dep = e
            .deploy(acct, &az("us-east-2a"), 2048, Arch::X86_64)
            .unwrap();
        // Spread arrivals 1s apart: each sleeps 250ms, so all reuse one FI.
        let reqs: Vec<BatchRequest> = (0..10)
            .map(|i| BatchRequest {
                deployment: dep,
                offset: SimDuration::from_secs(i),
                body: RequestBody::Sleep {
                    duration: SimDuration::from_millis(250),
                },
            })
            .collect();
        let outcomes = e.run_batch(reqs);
        let unique: std::collections::BTreeSet<Uuid> = outcomes
            .iter()
            .map(|o| o.status.report().unwrap().instance_uuid)
            .collect();
        assert_eq!(unique.len(), 1, "all sequential requests share one warm FI");
        let colds = outcomes
            .iter()
            .filter(|o| o.status.report().unwrap().new_container)
            .count();
        assert_eq!(colds, 1);
    }

    #[test]
    fn concurrency_quota_throttles() {
        let mut e = engine(4);
        let acct = e.create_account(Provider::Aws);
        let dep = e
            .deploy(acct, &az("eu-central-1a"), 1024, Arch::X86_64)
            .unwrap();
        let reqs: Vec<BatchRequest> = (0..1100)
            .map(|_| BatchRequest {
                deployment: dep,
                offset: SimDuration::ZERO,
                body: RequestBody::Sleep {
                    duration: SimDuration::from_secs(2),
                },
            })
            .collect();
        let outcomes = e.run_batch(reqs);
        let throttled = outcomes
            .iter()
            .filter(|o| o.status == InvocationStatus::Throttled)
            .count();
        assert_eq!(throttled, 100, "quota is 1000 concurrent");
    }

    #[test]
    fn saturation_produces_no_capacity_errors_visible_to_other_accounts() {
        let mut e = engine(5);
        let a1 = e.create_account(Provider::Aws);
        let a2 = e.create_account(Provider::Aws);
        let zone = az("eu-north-1a"); // small pool
                                      // Account 1 saturates the AZ with big-memory sleeps.
        let mut failures1 = 0usize;
        for wave in 0..12 {
            let dep = e.deploy(a1, &zone, 10_140 + wave, Arch::X86_64).unwrap();
            let reqs: Vec<BatchRequest> = (0..800)
                .map(|_| BatchRequest {
                    deployment: dep,
                    offset: SimDuration::ZERO,
                    body: RequestBody::Sleep {
                        duration: SimDuration::from_millis(500),
                    },
                })
                .collect();
            failures1 += e
                .run_batch(reqs)
                .iter()
                .filter(|o| o.status == InvocationStatus::NoCapacity)
                .count();
        }
        assert!(
            failures1 > 0,
            "sustained polling should exhaust the small AZ"
        );
        // Account 2 immediately sees capacity errors too (shared pool).
        let dep2 = e.deploy(a2, &zone, 10_240, Arch::X86_64).unwrap();
        let reqs: Vec<BatchRequest> = (0..800)
            .map(|_| BatchRequest {
                deployment: dep2,
                offset: SimDuration::ZERO,
                body: RequestBody::Sleep {
                    duration: SimDuration::from_millis(500),
                },
            })
            .collect();
        let outcomes2 = e.run_batch(reqs);
        let failures2 = outcomes2
            .iter()
            .filter(|o| o.status == InvocationStatus::NoCapacity)
            .count();
        assert!(
            failures2 > 400,
            "cross-account saturation: independent account mostly fails ({failures2}/800)"
        );
    }

    #[test]
    fn gated_request_declines_on_banned_cpu() {
        let mut e = engine(6);
        let acct = e.create_account(Provider::Aws);
        // us-east-2a is homogeneous 2.5GHz: banning it declines everything.
        let dep = e
            .deploy(acct, &az("us-east-2a"), 2048, Arch::X86_64)
            .unwrap();
        let spec = WorkloadSpec::new(WorkloadKind::Zipper);
        let reqs: Vec<BatchRequest> = (0..20)
            .map(|_| BatchRequest {
                deployment: dep,
                offset: SimDuration::ZERO,
                body: RequestBody::GatedWorkload {
                    spec,
                    banned: sky_cloud::CpuSet::from_slice(&[sky_cloud::CpuType::IntelXeon2_5]),
                    hold: SimDuration::from_millis(150),
                    max_retries: 0,
                    retry_latency: SimDuration::from_millis(60),
                },
            })
            .collect();
        let outcomes = e.run_batch(reqs);
        for o in &outcomes {
            assert!(matches!(o.status, InvocationStatus::Declined(_)));
            assert_eq!(o.billed, SimDuration::from_millis(152));
        }
    }

    #[test]
    fn auto_retry_steers_batch_onto_fast_cpu() {
        let mut e = engine(77);
        let acct = e.create_account(Provider::Aws);
        // us-west-1b: diverse mix with ~40% 3.0GHz hosts.
        let dep = e
            .deploy(acct, &az("us-west-1b"), 2048, Arch::X86_64)
            .unwrap();
        let spec = WorkloadSpec::new(WorkloadKind::Zipper);
        let banned: sky_cloud::CpuSet = sky_cloud::CpuType::AWS_X86
            .iter()
            .copied()
            .filter(|&c| c != sky_cloud::CpuType::IntelXeon3_0)
            .collect();
        let reqs: Vec<BatchRequest> = (0..300)
            .map(|i| BatchRequest {
                deployment: dep,
                offset: SimDuration::from_millis(i % 40),
                body: RequestBody::GatedWorkload {
                    spec,
                    banned,
                    hold: SimDuration::from_millis(150),
                    max_retries: 25,
                    retry_latency: SimDuration::from_millis(60),
                },
            })
            .collect();
        let outcomes = e.run_batch(reqs);
        let on_fast = outcomes
            .iter()
            .filter(|o| {
                o.status
                    .report()
                    .map(|r| r.cpu_type() == Some(sky_cloud::CpuType::IntelXeon3_0))
                    .unwrap_or(false)
                    && o.status.is_success()
            })
            .count();
        assert!(
            on_fast as f64 >= 0.95 * outcomes.len() as f64,
            "focus-fastest should land nearly all requests on 3.0GHz: {on_fast}/300"
        );
        let retried = outcomes.iter().filter(|o| o.attempts > 1).count();
        assert!(
            retried > 100,
            "with ~40% fast share, many requests retry: {retried}"
        );
        // sky-lint: allow(D005, test assertion over a Vec in outcome order - a deterministic fold checking the billed total is positive)
        let total_retry_cost: f64 = outcomes.iter().map(|o| o.retry_cost_usd).sum();
        assert!(total_retry_cost > 0.0);
        // Retry overhead per retried request is ~152ms at 2GB: tiny vs
        // the multi-second zipper runtime.
        let mean_attempts: f64 =
            outcomes.iter().map(|o| o.attempts as f64).sum::<f64>() / outcomes.len() as f64;
        assert!(mean_attempts < 9.0, "mean attempts {mean_attempts}");
    }

    #[test]
    fn gated_retry_exhaustion_surfaces_decline() {
        let mut e = engine(78);
        let acct = e.create_account(Provider::Aws);
        // Homogeneous 2.5GHz zone: banning 2.5GHz can never succeed.
        let dep = e
            .deploy(acct, &az("us-east-2a"), 2048, Arch::X86_64)
            .unwrap();
        let outcomes = e.run_batch(vec![BatchRequest {
            deployment: dep,
            offset: SimDuration::ZERO,
            body: RequestBody::GatedWorkload {
                spec: WorkloadSpec::new(WorkloadKind::Sha1Hash),
                banned: sky_cloud::CpuSet::from_slice(&[sky_cloud::CpuType::IntelXeon2_5]),
                hold: SimDuration::from_millis(150),
                max_retries: 4,
                retry_latency: SimDuration::from_millis(60),
            },
        }]);
        let o = &outcomes[0];
        assert!(matches!(o.status, InvocationStatus::Declined(_)));
        assert_eq!(o.attempts, 5, "1 initial + 4 retries");
        assert_eq!(o.retry_billed, SimDuration::from_millis(4 * 152));
        assert!(o.retry_cost_usd > 0.0);
    }

    #[test]
    fn workload_runtime_tracks_cpu_factor() {
        let mut e = FaasEngine::new(Catalog::paper_world(7), {
            let mut c = FleetConfig::new(8);
            c.perf = PerfModel::deterministic();
            c
        });
        let acct = e.create_account(Provider::Aws);
        let dep = e
            .deploy(acct, &az("us-east-2a"), 2048, Arch::X86_64)
            .unwrap();
        let spec = WorkloadSpec::new(WorkloadKind::LogisticRegression);
        let outcomes = e.run_batch(vec![BatchRequest {
            deployment: dep,
            offset: SimDuration::ZERO,
            body: RequestBody::Workload { spec },
        }]);
        let billed = outcomes[0].billed;
        // 15s base on the 2.5GHz baseline + decode, inflated by diurnal
        // contention (<= 6%).
        let base = 15_000.0;
        let ms = billed.as_millis_f64();
        assert!(ms >= base && ms < base * 1.08 + 10.0, "billed {ms}ms");
    }

    #[test]
    fn payload_decode_cached_after_first_call() {
        let mut e = FaasEngine::new(Catalog::paper_world(7), {
            let mut c = FleetConfig::new(9);
            c.perf = PerfModel::deterministic();
            c
        });
        let acct = e.create_account(Provider::Aws);
        let dep = e
            .deploy(acct, &az("us-east-2a"), 2048, Arch::X86_64)
            .unwrap();
        let spec = WorkloadSpec::new(WorkloadKind::Sha1Hash).with_payload(5 * 1024 * 1024, 0xfeed);
        let mk = |offset_s: u64| BatchRequest {
            deployment: dep,
            offset: SimDuration::from_secs(offset_s),
            body: RequestBody::Workload { spec },
        };
        let outcomes = e.run_batch(vec![mk(0), mk(10)]);
        let first = outcomes[0].billed.as_millis_f64();
        let second = outcomes[1].billed.as_millis_f64();
        assert!(
            first - second > 60.0,
            "first call pays ~70ms decode: {first} vs {second}"
        );
    }

    #[test]
    fn day_tick_fires_on_advance() {
        let mut e = engine(10);
        let acct = e.create_account(Provider::Aws);
        let _ = e
            .deploy(acct, &az("us-west-1b"), 2048, Arch::X86_64)
            .unwrap();
        let before = e.platform(&az("us-west-1b")).unwrap().ground_truth_mix();
        e.advance_to(SimTime::start_of_day(10));
        let after = e.platform(&az("us-west-1b")).unwrap().ground_truth_mix();
        assert!(
            after.ape_percent(&before) > 1.0,
            "volatile zone should churn over 10 days"
        );
    }

    fn engine_with_profile(seed: u64, profile: ExecProfile) -> FaasEngine {
        let mut cfg = FleetConfig::new(seed);
        cfg.exec_profile = profile;
        FaasEngine::new(Catalog::paper_world(7), cfg)
    }

    fn sleep_req(dep: DeploymentId, offset: SimDuration) -> BatchRequest {
        BatchRequest {
            deployment: dep,
            offset,
            body: RequestBody::Sleep {
                duration: SimDuration::from_millis(250),
            },
        }
    }

    #[test]
    fn ephemeral_mode_every_request_cold_and_torn_down() {
        let mut e = engine_with_profile(21, ExecProfile::for_mode(ExecMode::Ephemeral));
        let acct = e.create_account(Provider::Aws);
        let dep = e
            .deploy(acct, &az("us-east-2a"), 2048, Arch::X86_64)
            .unwrap();
        let reqs: Vec<BatchRequest> = (0..8)
            .map(|i| sleep_req(dep, SimDuration::from_secs(i)))
            .collect();
        let outcomes = e.run_batch(reqs);
        for o in &outcomes {
            assert!(o.status.is_success());
            assert!(
                o.status.report().unwrap().new_container,
                "ephemeral never reuses: every start is cold"
            );
        }
        let unique: std::collections::BTreeSet<Uuid> = outcomes
            .iter()
            .map(|o| o.status.report().unwrap().instance_uuid)
            .collect();
        assert_eq!(unique.len(), 8, "a fresh FI per request");
        // The last FI's release event is still queued when the batch
        // resolves; draining it retires the final instance too.
        e.advance_by(SimDuration::from_secs(5));
        assert_eq!(
            e.platform(&az("us-east-2a")).unwrap().instance_count(),
            0,
            "nothing idles in ephemeral mode"
        );
        let snap = e.metrics_snapshot();
        assert_eq!(
            snap.counter("faas", "ephemeral_retires", &[("az", "us-east-2a")]),
            Some(8)
        );
    }

    #[test]
    fn persistent_mode_survives_arbitrary_idle_periods() {
        let mut e = engine_with_profile(22, ExecProfile::for_mode(ExecMode::Persistent));
        let acct = e.create_account(Provider::Aws);
        let dep = e
            .deploy(acct, &az("us-east-2a"), 2048, Arch::X86_64)
            .unwrap();
        let first = e.run_batch(vec![sleep_req(dep, SimDuration::ZERO)]);
        // Far past any keep-alive draw (5-9 min): a cached FI would be
        // long gone.
        e.advance_by(SimDuration::from_mins(90));
        let second = e.run_batch(vec![sleep_req(dep, SimDuration::ZERO)]);
        let (r1, r2) = (
            first[0].status.report().unwrap(),
            second[0].status.report().unwrap(),
        );
        assert!(r1.new_container);
        assert!(!r2.new_container, "persistent FI still warm after 90 min");
        assert_eq!(r1.instance_uuid, r2.instance_uuid);
        let snap = e.metrics_snapshot();
        assert_eq!(
            snap.counter("faas", "keepalive_evictions", &[("az", "us-east-2a")]),
            Some(0)
        );
    }

    #[test]
    fn checkpointed_mode_restores_after_keepalive_lapse() {
        let mut e = engine_with_profile(23, ExecProfile::for_mode(ExecMode::Checkpointed));
        let acct = e.create_account(Provider::Aws);
        let dep = e
            .deploy(acct, &az("us-east-2a"), 2048, Arch::X86_64)
            .unwrap();
        let first = e.run_batch(vec![sleep_req(dep, SimDuration::ZERO)]);
        assert!(first[0].status.report().unwrap().new_container);
        // 15 min: past the 9-min keep-alive ceiling, inside the 30-min
        // snapshot TTL.
        e.advance_by(SimDuration::from_mins(15));
        let second = e.run_batch(vec![sleep_req(dep, SimDuration::ZERO)]);
        let r2 = second[0].status.report().unwrap();
        assert!(
            !r2.new_container,
            "a CRIU-style restore replays /tmp: not a new container"
        );
        assert_ne!(
            first[0].status.report().unwrap().instance_uuid,
            r2.instance_uuid,
            "restored into a fresh FI"
        );
        let snap = e.metrics_snapshot();
        assert_eq!(
            snap.counter("faas", "restored_starts", &[("az", "us-east-2a")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("faas", "snapshots_captured", &[("az", "us-east-2a")]),
            Some(1)
        );
        // Restore latency is deterministic and sits between warm
        // dispatch and the cold-start floor.
        let e2e = second[0].finished.saturating_since(second[0].arrived);
        let dispatch = e2e.as_micros() - second[0].billed.as_micros();
        assert_eq!(dispatch, e.config.restore_latency.as_micros());
    }

    #[test]
    fn branched_mode_burst_clones_share_parent() {
        let mut e = engine_with_profile(24, ExecProfile::for_mode(ExecMode::Branched));
        let acct = e.create_account(Provider::Aws);
        let dep = e
            .deploy(acct, &az("us-east-2a"), 2048, Arch::X86_64)
            .unwrap();
        // Seed the snapshot with one cold run.
        let first = e.run_batch(vec![sleep_req(dep, SimDuration::ZERO)]);
        assert!(first[0].status.report().unwrap().new_container);
        e.advance_by(SimDuration::from_secs(5));
        // Concurrent burst: one warm reuse at most, everything else
        // CoW-branches off the captured snapshot instead of cold-booting.
        let reqs: Vec<BatchRequest> = (0..6).map(|_| sleep_req(dep, SimDuration::ZERO)).collect();
        let outcomes = e.run_batch(reqs);
        assert!(outcomes.iter().all(|o| o.status.is_success()));
        let snap = e.metrics_snapshot();
        let branched = snap
            .counter("faas", "branched_starts", &[("az", "us-east-2a")])
            .unwrap();
        assert!(branched >= 4, "burst branches: {branched}/6");
        assert_eq!(
            snap.counter("faas", "cold_starts", &[("az", "us-east-2a")]),
            Some(1),
            "only the seeding request cold-started"
        );
    }

    #[test]
    fn prewarm_pool_serves_burst_without_cold_starts() {
        let profile = ExecProfile::default().with_pool(PoolPolicy::Fixed { target: 4, cap: 4 });
        let mut e = engine_with_profile(25, profile);
        let acct = e.create_account(Provider::Aws);
        let dep = e
            .deploy(acct, &az("us-east-2a"), 2048, Arch::X86_64)
            .unwrap();
        let reqs: Vec<BatchRequest> = (0..4).map(|_| sleep_req(dep, SimDuration::ZERO)).collect();
        let outcomes = e.run_batch(reqs);
        for o in &outcomes {
            assert!(o.status.is_success());
            assert!(
                !o.status.report().unwrap().new_container,
                "pooled starts are not new containers"
            );
        }
        let snap = e.metrics_snapshot();
        assert_eq!(
            snap.counter("faas", "pooled_starts", &[("az", "us-east-2a")]),
            Some(4)
        );
        assert_eq!(
            snap.counter("faas", "cold_starts", &[("az", "us-east-2a")]),
            Some(0)
        );
        assert_eq!(
            snap.counter("faas", "pool_provisioned", &[("az", "us-east-2a")]),
            Some(4)
        );
    }

    #[test]
    fn result_cache_replays_idempotent_workloads() {
        let profile = ExecProfile::default().with_result_cache_ttl(SimDuration::from_mins(10));
        let mut e = engine_with_profile(26, profile);
        let acct = e.create_account(Provider::Aws);
        let dep = e
            .deploy(acct, &az("us-east-2a"), 2048, Arch::X86_64)
            .unwrap();
        let spec = WorkloadSpec::new(WorkloadKind::Sha1Hash);
        let mk = |offset: SimDuration| BatchRequest {
            deployment: dep,
            offset,
            body: RequestBody::Workload { spec },
        };
        let outcomes = e.run_batch(vec![mk(SimDuration::ZERO), mk(SimDuration::from_mins(2))]);
        assert!(outcomes[0].billed > SimDuration::ZERO);
        assert_eq!(
            outcomes[1].billed,
            SimDuration::ZERO,
            "replay executes nothing"
        );
        assert_eq!(outcomes[1].cost_usd, 0.0);
        let r = outcomes[1].status.report().unwrap();
        assert!(!r.new_container, "a replay starts no container");
        // Past the TTL the cache misses and the workload runs again.
        e.advance_by(SimDuration::from_mins(30));
        let later = e.run_batch(vec![mk(SimDuration::ZERO)]);
        assert!(later[0].billed > SimDuration::ZERO, "expired entry re-runs");
        let snap = e.metrics_snapshot();
        assert_eq!(
            snap.counter("faas", "result_cache_hits", &[("az", "us-east-2a")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("faas", "result_cache_misses", &[("az", "us-east-2a")]),
            Some(2)
        );
    }

    #[test]
    fn mode_billing_slices_partition_total() {
        let mut e = engine(27);
        let acct = e.create_account(Provider::Aws);
        let cached = e
            .deploy(acct, &az("us-east-2a"), 2048, Arch::X86_64)
            .unwrap();
        let checkpointed = e
            .deploy(acct, &az("us-east-2a"), 1024, Arch::X86_64)
            .unwrap();
        e.set_exec_profile(checkpointed, ExecProfile::for_mode(ExecMode::Checkpointed));
        for round in 0..3 {
            let reqs: Vec<BatchRequest> = (0..10)
                .map(|i| {
                    sleep_req(
                        if i % 2 == 0 { cached } else { checkpointed },
                        SimDuration::from_millis(i),
                    )
                })
                .collect();
            e.run_batch(reqs);
            // Long gaps force keep-alive lapses, so later rounds restore.
            e.advance_by(SimDuration::from_mins(12 + round));
        }
        let snap = e.metrics_snapshot();
        assert!(
            snap.counter("faas", "restored_starts", &[("az", "us-east-2a")])
                .unwrap()
                > 0,
            "checkpointed deployment restored at least once"
        );
        assert_eq!(
            snap.counter_sum("faas", "billed_mb_us_mode"),
            snap.counter_sum("faas", "billed_mb_us"),
            "per-mode billing slices must partition the billed total"
        );
    }

    #[test]
    fn stale_expire_events_on_recycled_slots_are_inert() {
        // Regression: Expire events queued for FIs that a cold-start
        // storm purged must not touch the slots once ephemeral traffic
        // recycles them — the slab's generation check makes the stale
        // keys miss.
        let mut e = engine(28);
        let acct = e.create_account(Provider::Aws);
        let zone = az("us-east-2a");
        let cached = e.deploy(acct, &zone, 2048, Arch::X86_64).unwrap();
        let ephemeral = e.deploy(acct, &zone, 2048, Arch::X86_64).unwrap();
        e.set_exec_profile(ephemeral, ExecProfile::for_mode(ExecMode::Ephemeral));
        // 10 idle FIs, 10 Expire events queued 5-9 minutes out.
        let reqs: Vec<BatchRequest> = (0..10)
            .map(|_| sleep_req(cached, SimDuration::ZERO))
            .collect();
        assert!(e.run_batch(reqs).iter().all(|o| o.status.is_success()));
        // Purge the warm pool out from under those events.
        let plan = FaultPlan::new()
            .with_event(
                zone.clone(),
                e.now() + SimDuration::from_secs(1),
                SimDuration::from_secs(1),
                FaultKind::ColdStartStorm { init_factor: 2.0 },
            )
            .unwrap();
        e.set_fault_plan(&plan);
        e.advance_by(SimDuration::from_secs(3));
        // Recycle the freed slots many times over under new generations.
        let reqs: Vec<BatchRequest> = (0..20)
            .map(|i| sleep_req(ephemeral, SimDuration::from_secs(i)))
            .collect();
        assert!(e.run_batch(reqs).iter().all(|o| o.status.is_success()));
        // Drain the stale Expire events: every one must no-op.
        e.advance_by(SimDuration::from_mins(15));
        let snap = e.metrics_snapshot();
        assert_eq!(
            snap.counter("faas", "keepalive_evictions", &[("az", "us-east-2a")]),
            Some(0),
            "stale expire events must not evict recycled slots"
        );
        assert_eq!(
            snap.counter("faas", "ephemeral_retires", &[("az", "us-east-2a")]),
            Some(20)
        );
        assert_eq!(e.platform(&zone).unwrap().instance_count(), 0);
    }

    #[test]
    fn determinism_same_seed_same_outcomes() {
        let run = |seed: u64| -> Vec<(bool, u64)> {
            let mut e = engine(seed);
            let acct = e.create_account(Provider::Aws);
            let dep = e
                .deploy(acct, &az("us-west-1b"), 2048, Arch::X86_64)
                .unwrap();
            let reqs: Vec<BatchRequest> = (0..100)
                .map(|i| BatchRequest {
                    deployment: dep,
                    offset: SimDuration::from_millis(i % 7),
                    body: RequestBody::Workload {
                        spec: WorkloadSpec::new(WorkloadKind::GraphBfs),
                    },
                })
                .collect();
            e.run_batch(reqs)
                .into_iter()
                .map(|o| (o.status.is_success(), o.billed.as_micros()))
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
