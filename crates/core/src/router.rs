//! The serverless sky smart routing system (paper §3.4–3.5, EX-5).
//!
//! Combines the characterization store (what hardware does each zone
//! have?) with the runtime table (how fast is each workload on each CPU?)
//! to place bursts of invocations:
//!
//! * **Baseline** — everything to one fixed zone (the paper's comparator);
//! * **Regional** — choose the candidate zone whose current CPU mix
//!   minimizes expected runtime. Re-run at each burst on the freshest
//!   characterizations, this is region hopping (EX-5's daily
//!   adaptation);
//! * **Retry** — stay in a zone but CPU-gate every request, declining and
//!   reissuing off the banned CPUs (`retry slow` bans the two slowest,
//!   `focus fastest` bans all but the best);
//! * **Hybrid** — region hopping plus retries inside the chosen zone.

use crate::profiler::RuntimeTable;
use crate::store::CharacterizationStore;
use serde::{Deserialize, Serialize};
use sky_cloud::{AzId, Catalog, CpuSet, CpuType, GeoPoint, LatencyModel, PriceBook};
use sky_faas::{
    BatchRequest, DeploymentId, FaasEngine, InvocationOutcome, RequestBody, WorkloadSpec,
};
use sky_sim::{MetricHandle, MetricsRegistry, SimDuration, SimRng, SimTime};
use sky_workloads::WorkloadKind;
use std::collections::BTreeMap;

/// Which CPUs the retry method bans.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RetryMode {
    /// Ban the two slowest observed CPUs (typically AMD EPYC and the
    /// 2.9 GHz Xeon) — the paper's conservative `retry slow`.
    RetrySlow,
    /// Ban everything except the fastest observed CPU — the aggressive
    /// `focus fastest`.
    FocusFastest,
    /// Ban an explicit set (the paper's tunable ban list, §3.5).
    Custom(CpuSet),
}

impl RetryMode {
    /// Minimum slowdown vs the fastest CPU for `RetrySlow` to bother
    /// banning a CPU — banning near-par hardware only buys retry
    /// overhead (the paper's §3.5 warning about over-selective ban sets).
    pub const SLOW_BAN_MARGIN: f64 = 1.08;

    /// Resolve the ban set for a workload from observed runtimes.
    pub fn banned(&self, table: &RuntimeTable, kind: WorkloadKind) -> CpuSet {
        match self {
            RetryMode::RetrySlow => {
                let ranking = table.ranking(kind);
                let Some(&(_, fastest_ms)) = ranking.first() else {
                    return CpuSet::EMPTY;
                };
                // The two slowest, but only if meaningfully slower than
                // the best available hardware.
                ranking
                    .iter()
                    .rev()
                    .take(2)
                    .filter(|&&(_, ms)| ms > fastest_ms * Self::SLOW_BAN_MARGIN)
                    .map(|&(c, _)| c)
                    .collect()
            }
            RetryMode::FocusFastest => {
                let ranking = table.ranking(kind);
                ranking.iter().skip(1).map(|&(c, _)| c).collect()
            }
            RetryMode::Custom(set) => *set,
        }
    }
}

/// A routing strategy for a burst.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// All requests to one fixed zone, ungated.
    Baseline {
        /// The zone.
        az: AzId,
    },
    /// Pick the best zone among candidates using fresh characterizations;
    /// run ungated.
    Regional {
        /// Candidate zones.
        candidates: Vec<AzId>,
    },
    /// Fixed zone with CPU-gated retries.
    Retry {
        /// The zone.
        az: AzId,
        /// Ban-set selection.
        mode: RetryMode,
    },
    /// Region hopping plus in-zone retries — the paper's best performer.
    Hybrid {
        /// Candidate zones.
        candidates: Vec<AzId>,
        /// Ban-set selection inside the chosen zone.
        mode: RetryMode,
    },
    /// Route to the candidate with the lowest real-time grid carbon
    /// intensity (subject to the RTT bound) — the predecessor system's
    /// objective that §3.4 builds on \[12\].
    CarbonAware {
        /// Candidate zones.
        candidates: Vec<AzId>,
    },
    /// UCB1 bandit over candidate zones: exploit the arm with the lowest
    /// observed cost per completed request, minus an exploration bonus
    /// that shrinks as the arm accumulates pulls. Needs no
    /// characterization store at all — the live cost feedback *is* the
    /// estimate (DESIGN.md §14).
    UcbAz {
        /// Candidate zones (the bandit's arms).
        candidates: Vec<AzId>,
    },
    /// Thompson sampling over candidate zones: each burst draws a
    /// plausible mean cost per arm from a Gaussian posterior (on the
    /// dedicated `"bandit"` rng stream) and routes to the cheapest draw.
    ThompsonAz {
        /// Candidate zones (the bandit's arms).
        candidates: Vec<AzId>,
    },
}

impl RoutingPolicy {
    /// Stable label for metrics and report tables.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::Baseline { .. } => "baseline",
            RoutingPolicy::Regional { .. } => "regional",
            RoutingPolicy::Retry { .. } => "retry",
            RoutingPolicy::Hybrid { .. } => "hybrid",
            RoutingPolicy::CarbonAware { .. } => "carbon-aware",
            RoutingPolicy::UcbAz { .. } => "ucb-az",
            RoutingPolicy::ThompsonAz { .. } => "thompson-az",
        }
    }
}

/// Router tunables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Memory setting used for workload deployments.
    pub memory_mb: u32,
    /// Decline hold (paper: 150 ms).
    pub hold: SimDuration,
    /// Maximum automatic reissues per request.
    pub max_retries: u32,
    /// Decline-to-reissue latency (must stay under `hold`).
    pub retry_latency: SimDuration,
    /// Client-side arrival jitter across a burst.
    pub burst_jitter: SimDuration,
    /// Where the client sits — enables the latency accounting of §3.5
    /// ("routing requests to AZs located further away will introduce
    /// additional network latency … not included in the billable
    /// runtime") and the RTT bound inherited from the carbon-aware
    /// router \[12\].
    pub client: Option<GeoPoint>,
    /// Latency model used when `client` is set.
    pub latency: LatencyModel,
    /// Candidate zones farther than this round-trip are excluded from
    /// regional/hopping choices (no bound when `None`).
    pub max_rtt: Option<SimDuration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            memory_mb: 2_048,
            hold: SimDuration::from_millis(150),
            max_retries: 25,
            retry_latency: SimDuration::from_millis(60),
            burst_jitter: SimDuration::from_millis(150),
            client: None,
            latency: LatencyModel::default(),
            max_rtt: None,
        }
    }
}

/// How a burst went.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstReport {
    /// The zone the burst ran in.
    pub az: AzId,
    /// Requests issued.
    pub n: usize,
    /// Requests whose workload completed.
    pub completed: usize,
    /// Requests that terminally failed (throttle/capacity/decline-exhausted).
    pub errors: usize,
    /// Dollars billed for completed workload executions (final attempts).
    pub workload_cost_usd: f64,
    /// Dollars billed for declined attempts (the retry overhead).
    pub retry_cost_usd: f64,
    /// Mean billed duration of completed executions, ms.
    pub mean_billed_ms: f64,
    /// Requests that needed at least one reissue.
    pub retried: usize,
    /// Total attempts across the burst.
    pub attempts: u64,
    /// Completed executions per CPU type.
    pub cpu_counts: BTreeMap<CpuType, u64>,
    /// When the burst finished.
    pub finished: SimTime,
    /// Client↔zone round-trip time, when the router knows the client's
    /// location. Not billed — the §3.5 trade-off made visible.
    pub rtt: Option<SimDuration>,
    /// Estimated operational emissions of the burst, gCO₂e (crude 5 W/GB
    /// energy model over billed GB-seconds; relative comparisons only).
    pub est_gco2e: f64,
}

impl BurstReport {
    /// Total dollars spent on the burst.
    pub fn total_cost_usd(&self) -> f64 {
        self.workload_cost_usd + self.retry_cost_usd
    }

    /// Fraction of requests that were retried at least once.
    pub fn retried_fraction(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.retried as f64 / self.n as f64
        }
    }
}

/// Cost savings of an optimized strategy vs a baseline, as a fraction of
/// the baseline cost (positive = cheaper).
pub fn savings_fraction(baseline_cost: f64, optimized_cost: f64) -> f64 {
    if baseline_cost == 0.0 {
        0.0
    } else {
        (baseline_cost - optimized_cost) / baseline_cost
    }
}

/// Pulls an arm's reward window covers. Windowed statistics track
/// drifting zones instead of averaging over a stale past (the
/// sliding-window UCB variant for non-stationary bandits).
const BANDIT_WINDOW: usize = 8;

/// Per-arm bandit statistics: lifetime pulls (for the exploration
/// bonus) plus a sliding window of integer burst rewards.
#[derive(Debug, Default, Clone)]
struct ArmStats {
    /// Lifetime pulls of this arm.
    pulls: u64,
    /// Last [`BANDIT_WINDOW`] pulls: (completed requests, burst cost in
    /// nano-USD).
    window: std::collections::VecDeque<(u64, u64)>,
}

impl ArmStats {
    fn record(&mut self, completed: u64, cost_nanousd: u64) {
        self.pulls += 1;
        if self.window.len() == BANDIT_WINDOW {
            self.window.pop_front();
        }
        self.window.push_back((completed, cost_nanousd));
    }

    /// Mean cost per completed request over the window, nano-USD.
    /// `None` when every windowed burst failed outright.
    fn mean_loss_nanousd(&self) -> Option<f64> {
        let (completed, cost_nanousd) = self
            .window
            .iter()
            .fold((0_u64, 0_u64), |(c, n), &(wc, wn)| (c + wc, n + wn));
        (completed > 0).then(|| cost_nanousd as f64 / completed as f64)
    }
}

/// Shared state of the bandit routing policies.
#[derive(Debug, Default)]
struct BanditState {
    /// Lazily seeded from the catalog seed at the first bandit decision:
    /// `SimRng::seed_from(seed).derive("bandit")`. A dedicated stream,
    /// so runs that never route through a bandit policy consume nothing
    /// from it (the platform `fault_rng` isolation idiom).
    rng: Option<SimRng>,
    arms: BTreeMap<AzId, ArmStats>,
}

/// The router's placement metrics and `run_burst`'s counter handles.
#[derive(Debug, Default)]
struct RouterMetrics {
    registry: MetricsRegistry,
    /// Per zone and policy label, the `placements`, `requests`,
    /// `completed` and `errors` handles, registered together at the
    /// pair's first burst.
    bursts: BTreeMap<AzId, BTreeMap<&'static str, [MetricHandle; 4]>>,
}

impl RouterMetrics {
    /// Count one burst of `requests` in `az` under `policy`, `completed`
    /// of them successfully.
    fn record_burst(&mut self, az: &AzId, policy: &'static str, requests: u64, completed: u64) {
        let RouterMetrics { registry, bursts } = self;
        let handles = match bursts.get(az).and_then(|by_policy| by_policy.get(policy)) {
            Some(&handles) => handles,
            None => {
                let az_name = az.to_string();
                let labels = [("az", az_name.as_str()), ("policy", policy)];
                let handles = ["placements", "requests", "completed", "errors"]
                    .map(|name| registry.counter("router", name, &labels));
                bursts
                    .entry(az.clone())
                    .or_default()
                    .insert(policy, handles);
                handles
            }
        };
        for (handle, n) in handles
            .into_iter()
            .zip([1, requests, completed, requests - completed])
        {
            registry.add(handle, n);
        }
    }
}

/// The smart router: knowledge (store + table) plus policy execution.
#[derive(Debug, Default)]
pub struct SmartRouter {
    /// Zone characterizations (refreshed by sampling or passively).
    pub store: CharacterizationStore,
    /// Observed per-CPU runtimes (from profiling).
    pub table: RuntimeTable,
    /// Tunables.
    pub config: RouterConfig,
    /// Placement-decision metrics. Interior mutability keeps the
    /// `&self` choose/run API; the router is never shared across
    /// threads (each sweep cell owns its own), so `RefCell` cannot
    /// observe contention and determinism is unaffected.
    metrics: std::cell::RefCell<RouterMetrics>,
    /// Arm statistics for the bandit policies (same `RefCell` rationale
    /// as `metrics`: single-owner, `&self` API).
    bandit: std::cell::RefCell<BanditState>,
}

impl SmartRouter {
    /// A router with the given knowledge.
    pub fn new(store: CharacterizationStore, table: RuntimeTable, config: RouterConfig) -> Self {
        SmartRouter {
            store,
            table,
            config,
            metrics: std::cell::RefCell::default(),
            bandit: std::cell::RefCell::new(BanditState::default()),
        }
    }

    /// Mutable access to the characterization store, so a streaming
    /// characterizer can refresh the router's knowledge between bursts.
    pub fn store_mut(&mut self) -> &mut CharacterizationStore {
        &mut self.store
    }

    /// Lifetime bandit pulls recorded for a zone.
    pub fn bandit_pulls(&self, az: &AzId) -> u64 {
        self.bandit
            .borrow()
            .arms
            .get(az)
            .map(|a| a.pulls)
            .unwrap_or(0)
    }

    /// Choose an arm for the bandit policies. Arms are pulled once each
    /// in candidate order first; afterwards UCB1 scores
    /// `loss − scale·√(2·ln N / n)` (exploration bonus self-scaled by
    /// the mean observed loss) and Thompson draws a Gaussian posterior
    /// sample per arm on the dedicated `"bandit"` stream. Ties resolve
    /// to the earliest candidate, so decisions are deterministic.
    fn choose_az_bandit(&self, candidates: &[AzId], thompson: bool, seed: u64) -> AzId {
        assert!(!candidates.is_empty(), "need at least one candidate zone");
        let state = &mut *self.bandit.borrow_mut();
        if let Some(az) = candidates
            .iter()
            .find(|az| state.arms.get(az).is_none_or(|a| a.pulls == 0))
        {
            return az.clone();
        }
        let rng = state
            .rng
            .get_or_insert_with(|| SimRng::seed_from(seed).derive("bandit"));
        let total: u64 = candidates.iter().map(|az| state.arms[az].pulls).sum();
        let losses: Vec<f64> = candidates
            .iter()
            .map(|az| state.arms[az].mean_loss_nanousd().unwrap_or(f64::INFINITY))
            .collect();
        let finite: Vec<f64> = losses.iter().copied().filter(|l| l.is_finite()).collect();
        let mean = if finite.is_empty() {
            1.0
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        };
        // The exploration bonus is scaled by the observed loss *spread*,
        // not the absolute loss level: burst costs cluster tightly (the
        // arms differ by a few percent), so a mean-scaled bonus would
        // drown the gap and never stop exploring. Floor at 2 % of the
        // mean so a degenerate spread still explores a little.
        let spread = finite.iter().fold(0.0_f64, |acc, &l| acc.max(l))
            - finite.iter().fold(f64::INFINITY, |acc, &l| acc.min(l));
        let scale = if spread.is_finite() && spread > mean * 0.02 {
            spread
        } else {
            mean * 0.02
        };
        let mut best: Option<(usize, f64)> = None;
        for (i, az) in candidates.iter().enumerate() {
            let pulls = state.arms[az].pulls as f64;
            // An all-failed window scores as a heavy (but finite) loss so
            // the arm can still resurface once the exploration bonus (or
            // a Thompson draw) outweighs it.
            let loss = if losses[i].is_finite() {
                losses[i]
            } else {
                scale * 100.0
            };
            let score = if thompson {
                rng.next_normal(loss, scale / pulls.sqrt())
            } else {
                loss - scale * (2.0 * (total as f64).ln() / pulls).sqrt()
            };
            if best.is_none_or(|(_, b)| score < b) {
                best = Some((i, score));
            }
        }
        candidates[best.expect("non-empty candidates").0].clone()
    }

    /// Fold a bandit burst's outcome into its arm's statistics.
    fn record_bandit(&self, report: &BurstReport) {
        let mut state = self.bandit.borrow_mut();
        let arm = state.arms.entry(report.az.clone()).or_default();
        arm.record(
            report.completed as u64,
            PriceBook::nano_usd(report.total_cost_usd()),
        );
    }

    /// Export the router's placement metrics as a mergeable snapshot.
    pub fn metrics_snapshot(&self) -> sky_sim::MetricsSnapshot {
        self.metrics.borrow().registry.snapshot()
    }

    /// Expected runtime (ms) of a workload in a zone under the zone's
    /// freshest characterization. `None` when the store has no fresh
    /// snapshot or the table has no overlapping observations.
    pub fn expected_ms(&self, kind: WorkloadKind, az: &AzId, now: SimTime) -> Option<f64> {
        let snapshot = self.store.fresh(az, now)?;
        self.table.expected_ms_under_mix(kind, &snapshot.mix)
    }

    /// The candidate zone with the lowest expected runtime; falls back to
    /// the first candidate when knowledge is missing.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn choose_az(&self, kind: WorkloadKind, candidates: &[AzId], now: SimTime) -> AzId {
        assert!(!candidates.is_empty(), "need at least one candidate zone");
        // Zones whose freshest probe saw majority failures are in outage
        // or saturated: route around them (the availability dividend of
        // multi-zone aggregation).
        let healthy: Vec<&AzId> = candidates
            .iter()
            .filter(|az| {
                self.store
                    .fresh(az, now)
                    .map(|snapshot| snapshot.healthy())
                    .unwrap_or(true)
            })
            .collect();
        let pool: &[&AzId] = if healthy.is_empty() {
            &[] // fall through to the plain scan below
        } else {
            &healthy
        };
        let scan: Vec<&AzId> = if pool.is_empty() {
            candidates.iter().collect()
        } else {
            pool.to_vec()
        };
        scan.iter()
            .filter_map(|az| self.expected_ms(kind, az, now).map(|ms| (*az, ms)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("runtimes are finite"))
            .map(|(az, _)| az.clone())
            .unwrap_or_else(|| scan[0].clone())
    }

    /// Client↔zone round-trip time under the router's latency model, when
    /// the client's location is configured and the zone's region is in
    /// the catalog.
    pub fn rtt_to(&self, az: &AzId, catalog: &Catalog) -> Option<SimDuration> {
        let client = self.config.client?;
        let region = catalog.region(az.region())?;
        Some(self.config.latency.rtt(&client, &region.geo))
    }

    /// [`choose_az`](Self::choose_az) with the RTT bound applied: zones
    /// farther than `config.max_rtt` from the configured client are
    /// excluded (the client–region distance heuristic of \[12\]). If every
    /// candidate is excluded, the nearest one is used.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn choose_az_bounded(
        &self,
        kind: WorkloadKind,
        candidates: &[AzId],
        now: SimTime,
        catalog: &Catalog,
    ) -> AzId {
        assert!(!candidates.is_empty(), "need at least one candidate zone");
        let (Some(_), Some(max_rtt)) = (self.config.client, self.config.max_rtt) else {
            return self.choose_az(kind, candidates, now);
        };
        let within: Vec<AzId> = candidates
            .iter()
            .filter(|az| {
                self.rtt_to(az, catalog)
                    .map(|rtt| rtt <= max_rtt)
                    .unwrap_or(true)
            })
            .cloned()
            .collect();
        if within.is_empty() {
            // Nothing within the bound: degrade gracefully to the
            // nearest candidate.
            return candidates
                .iter()
                .min_by_key(|az| {
                    self.rtt_to(az, catalog)
                        .map(|r| r.as_micros())
                        .unwrap_or(u64::MAX)
                })
                .expect("non-empty candidates")
                .clone();
        }
        self.choose_az(kind, &within, now)
    }

    /// The candidate zone with the lowest real-time grid carbon
    /// intensity, honouring the RTT bound when configured — the routing
    /// objective of the predecessor system \[12\] that this router's
    /// performance objectives extend.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn choose_az_carbon(&self, candidates: &[AzId], now: SimTime, catalog: &Catalog) -> AzId {
        assert!(!candidates.is_empty(), "need at least one candidate zone");
        let within: Vec<&AzId> = match (self.config.client, self.config.max_rtt) {
            (Some(_), Some(max_rtt)) => candidates
                .iter()
                .filter(|az| {
                    self.rtt_to(az, catalog)
                        .map(|rtt| rtt <= max_rtt)
                        .unwrap_or(true)
                })
                .collect(),
            _ => candidates.iter().collect(),
        };
        let pool = if within.is_empty() {
            candidates.iter().collect()
        } else {
            within
        };
        pool.into_iter()
            .min_by(|a, b| {
                let ia = sky_cloud::CarbonModel::intensity(a.region(), now);
                let ib = sky_cloud::CarbonModel::intensity(b.region(), now);
                ia.partial_cmp(&ib).expect("intensity is finite")
            })
            .expect("non-empty pool")
            .clone()
    }

    /// Execute a burst of `n` invocations of `kind` under `policy`.
    /// `resolve` maps the chosen zone to a deployment (typically a sky
    /// mesh lookup).
    ///
    /// # Panics
    ///
    /// Panics if `resolve` returns no deployment for the chosen zone.
    pub fn run_burst<F>(
        &self,
        engine: &mut FaasEngine,
        kind: WorkloadKind,
        n: usize,
        policy: &RoutingPolicy,
        mut resolve: F,
    ) -> BurstReport
    where
        F: FnMut(&AzId) -> Option<DeploymentId>,
    {
        let now = engine.now();
        let (az, banned) = match policy {
            RoutingPolicy::Baseline { az } => (az.clone(), None),
            RoutingPolicy::Regional { candidates } => (
                self.choose_az_bounded(kind, candidates, now, engine.catalog()),
                None,
            ),
            RoutingPolicy::Retry { az, mode } => (az.clone(), Some(mode.banned(&self.table, kind))),
            RoutingPolicy::Hybrid { candidates, mode } => (
                self.choose_az_bounded(kind, candidates, now, engine.catalog()),
                Some(mode.banned(&self.table, kind)),
            ),
            RoutingPolicy::CarbonAware { candidates } => (
                self.choose_az_carbon(candidates, now, engine.catalog()),
                None,
            ),
            RoutingPolicy::UcbAz { candidates } => (
                self.choose_az_bandit(candidates, false, engine.catalog().seed()),
                None,
            ),
            RoutingPolicy::ThompsonAz { candidates } => (
                self.choose_az_bandit(candidates, true, engine.catalog().seed()),
                None,
            ),
        };
        let rtt = self.rtt_to(&az, engine.catalog());
        let deployment =
            resolve(&az).unwrap_or_else(|| panic!("no deployment resolvable in chosen zone {az}"));
        let mut rng = SimRng::seed_from(engine.catalog().seed())
            .derive("router-burst")
            .derive(&format!("{az}/{kind}/{}", now.as_micros()));
        let jitter = self.config.burst_jitter.as_micros().max(1);
        let requests: Vec<BatchRequest> = (0..n)
            .map(|_| {
                let spec = WorkloadSpec::new(kind);
                let body = match banned {
                    None => RequestBody::Workload { spec },
                    Some(banned) => RequestBody::GatedWorkload {
                        spec,
                        banned,
                        hold: self.config.hold,
                        max_retries: self.config.max_retries,
                        retry_latency: self.config.retry_latency,
                    },
                };
                BatchRequest {
                    deployment,
                    offset: SimDuration::from_micros(rng.next_below(jitter)),
                    body,
                }
            })
            .collect();
        let outcomes = engine.run_batch(requests);
        let completed = outcomes.iter().filter(|o| o.status.is_success()).count();
        self.metrics.borrow_mut().record_burst(
            &az,
            policy.label(),
            outcomes.len() as u64,
            completed as u64,
        );
        let report = self.summarize(az, rtt, &outcomes);
        if matches!(
            policy,
            RoutingPolicy::UcbAz { .. } | RoutingPolicy::ThompsonAz { .. }
        ) {
            self.record_bandit(&report);
        }
        report
    }

    fn summarize(
        &self,
        az: AzId,
        rtt: Option<SimDuration>,
        outcomes: &[InvocationOutcome],
    ) -> BurstReport {
        let mut report = BurstReport {
            az,
            n: outcomes.len(),
            completed: 0,
            errors: 0,
            workload_cost_usd: 0.0,
            retry_cost_usd: 0.0,
            mean_billed_ms: 0.0,
            retried: 0,
            attempts: 0,
            cpu_counts: BTreeMap::new(),
            finished: SimTime::ZERO,
            rtt,
            est_gco2e: 0.0,
        };
        let mut billed_sum = 0.0;
        let mut gb_seconds = 0.0;
        for o in outcomes {
            report.attempts += o.attempts as u64;
            // sky-lint: allow(D005, outcome-ordered f64 USD fold for the routing report; metered billing stays integer nano-USD in metrics)
            report.retry_cost_usd += o.retry_cost_usd;
            report.finished = report.finished.max(o.finished);
            let memory_gb = o
                .status
                .report()
                .map(|r| r.memory_mb as f64 / 1024.0)
                .unwrap_or(self.config.memory_mb as f64 / 1024.0);
            // sky-lint: allow(D005, report-layer f64 GB-second fold in outcome order; the canonical substrate is integer mb*us in metrics)
            gb_seconds += o.total_billed().as_secs_f64() * memory_gb;
            if o.attempts > 1 {
                report.retried += 1;
            }
            if o.status.is_success() {
                report.completed += 1;
                // sky-lint: allow(D005, outcome-ordered f64 USD fold for the routing report; metered billing stays integer nano-USD in metrics)
                report.workload_cost_usd += o.cost_usd;
                // sky-lint: allow(D005, mean-latency numerator in f64 milliseconds - report math, not metered money)
                billed_sum += o.billed.as_millis_f64();
                if let Some(cpu) = o.status.report().and_then(|r| r.cpu_type()) {
                    *report.cpu_counts.entry(cpu).or_default() += 1;
                }
            } else {
                report.errors += 1;
            }
        }
        if report.completed > 0 {
            report.mean_billed_ms = billed_sum / report.completed as f64;
        }
        report.est_gco2e =
            sky_cloud::CarbonModel::emissions_g(report.az.region(), report.finished, gb_seconds);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sky_cloud::{Arch, Catalog, CpuMix, Provider};
    use sky_faas::FleetConfig;
    use sky_workloads::PerfModel;

    fn az(s: &str) -> AzId {
        s.parse().unwrap()
    }

    /// A table seeded from the (noise-free) performance model, as a
    /// perfect profiling run would learn it.
    fn model_table(kind: WorkloadKind) -> RuntimeTable {
        let mut t = RuntimeTable::new();
        for cpu in CpuType::AWS_X86 {
            t.record(kind, cpu, PerfModel::expected_duration(kind, cpu, 2048));
        }
        t
    }

    fn store_with(entries: &[(&str, CpuMix)]) -> CharacterizationStore {
        let mut store = CharacterizationStore::new();
        for (zone, mix) in entries {
            store.record(&az(zone), SimTime::ZERO, mix.clone(), 1000, 0.01);
        }
        store
    }

    #[test]
    fn retry_mode_ban_sets() {
        let table = model_table(WorkloadKind::Zipper);
        let slow = RetryMode::RetrySlow.banned(&table, WorkloadKind::Zipper);
        assert_eq!(slow.len(), 2);
        assert!(slow.contains(CpuType::AmdEpyc));
        assert!(slow.contains(CpuType::IntelXeon2_9));
        let focus = RetryMode::FocusFastest.banned(&table, WorkloadKind::Zipper);
        assert_eq!(focus.len(), 3);
        assert!(!focus.contains(CpuType::IntelXeon3_0));
        let custom = RetryMode::Custom(CpuSet::from_slice(&[CpuType::AmdEpyc]))
            .banned(&table, WorkloadKind::Zipper);
        assert_eq!(custom, CpuSet::from_slice(&[CpuType::AmdEpyc]));
    }

    #[test]
    fn choose_az_prefers_fast_mix() {
        let fast_mix =
            CpuMix::from_shares(&[(CpuType::IntelXeon2_5, 0.3), (CpuType::IntelXeon3_0, 0.7)]);
        let slow_mix =
            CpuMix::from_shares(&[(CpuType::IntelXeon2_9, 0.5), (CpuType::AmdEpyc, 0.5)]);
        let store = store_with(&[("sa-east-1a", fast_mix), ("us-west-1b", slow_mix)]);
        let router = SmartRouter::new(
            store,
            model_table(WorkloadKind::LogisticRegression),
            RouterConfig::default(),
        );
        let chosen = router.choose_az(
            WorkloadKind::LogisticRegression,
            &[az("us-west-1b"), az("sa-east-1a")],
            SimTime::ZERO,
        );
        assert_eq!(chosen, az("sa-east-1a"));
    }

    #[test]
    fn choose_az_falls_back_without_knowledge() {
        let router = SmartRouter::default();
        let chosen = router.choose_az(
            WorkloadKind::Zipper,
            &[az("us-west-1a"), az("us-west-1b")],
            SimTime::ZERO,
        );
        assert_eq!(chosen, az("us-west-1a"), "first candidate without data");
    }

    #[test]
    fn stale_snapshots_are_ignored() {
        let mix = CpuMix::from_shares(&[(CpuType::IntelXeon3_0, 1.0)]);
        let store = store_with(&[("sa-east-1a", mix)]);
        let router = SmartRouter::new(
            store,
            model_table(WorkloadKind::Zipper),
            RouterConfig::default(),
        );
        let two_days = SimTime::ZERO + sky_sim::SimDuration::from_days(2);
        assert!(router
            .expected_ms(WorkloadKind::Zipper, &az("sa-east-1a"), two_days)
            .is_none());
        assert!(router
            .expected_ms(WorkloadKind::Zipper, &az("sa-east-1a"), SimTime::ZERO)
            .is_some());
    }

    fn engine() -> (FaasEngine, sky_faas::AccountId) {
        let mut e = FaasEngine::new(Catalog::paper_world(21), FleetConfig::new(21));
        let a = e.create_account(Provider::Aws);
        (e, a)
    }

    #[test]
    fn focus_fastest_burst_beats_baseline_cost() {
        let (mut e, account) = engine();
        let zone = az("us-west-1b");
        let dep = e.deploy(account, &zone, 2048, Arch::X86_64).unwrap();
        let table = model_table(WorkloadKind::Zipper);
        let router = SmartRouter::new(CharacterizationStore::new(), table, RouterConfig::default());

        let baseline = router.run_burst(
            &mut e,
            WorkloadKind::Zipper,
            300,
            &RoutingPolicy::Baseline { az: zone.clone() },
            |_| Some(dep),
        );
        e.advance_by(sky_sim::SimDuration::from_mins(15));
        let focus = router.run_burst(
            &mut e,
            WorkloadKind::Zipper,
            300,
            &RoutingPolicy::Retry {
                az: zone.clone(),
                mode: RetryMode::FocusFastest,
            },
            |_| Some(dep),
        );
        assert_eq!(baseline.errors, 0);
        assert!(
            focus.completed >= 290,
            "nearly all complete: {}",
            focus.completed
        );
        assert!(focus.retried > 100, "diverse zone forces retries");
        let save = savings_fraction(
            baseline.total_cost_usd() / baseline.n as f64,
            focus.total_cost_usd() / focus.completed.max(1) as f64,
        );
        assert!(
            save > 0.05,
            "focus-fastest should save >5% on a diverse zone, got {:.1}%",
            save * 100.0
        );
        // The winning CPU dominates the placement histogram.
        let fast = focus
            .cpu_counts
            .get(&CpuType::IntelXeon3_0)
            .copied()
            .unwrap_or(0);
        assert!(fast as usize >= focus.completed * 9 / 10);
    }

    #[test]
    fn hybrid_picks_zone_then_gates() {
        let (mut e, account) = engine();
        let west = az("us-west-1b");
        let sa = az("sa-east-1a");
        let dep_west = e.deploy(account, &west, 2048, Arch::X86_64).unwrap();
        let dep_sa = e.deploy(account, &sa, 2048, Arch::X86_64).unwrap();
        let mut store = CharacterizationStore::new();
        // Pretend sampling found sa-east-1a much faster for this workload.
        store.record(
            &west,
            SimTime::ZERO,
            CpuMix::from_shares(&[(CpuType::IntelXeon2_9, 0.6), (CpuType::AmdEpyc, 0.4)]),
            900,
            0.01,
        );
        store.record(
            &sa,
            SimTime::ZERO,
            CpuMix::from_shares(&[(CpuType::IntelXeon2_5, 0.4), (CpuType::IntelXeon3_0, 0.6)]),
            900,
            0.01,
        );
        let router = SmartRouter::new(
            store,
            model_table(WorkloadKind::GraphBfs),
            RouterConfig::default(),
        );
        let report = router.run_burst(
            &mut e,
            WorkloadKind::GraphBfs,
            100,
            &RoutingPolicy::Hybrid {
                candidates: vec![west.clone(), sa.clone()],
                mode: RetryMode::RetrySlow,
            },
            |zone| {
                if *zone == west {
                    Some(dep_west)
                } else if *zone == sa {
                    Some(dep_sa)
                } else {
                    None
                }
            },
        );
        assert_eq!(report.az, sa, "hybrid should hop to the faster zone");
        assert!(report.completed > 90);
        // Banned CPUs never complete a workload.
        assert_eq!(
            report
                .cpu_counts
                .get(&CpuType::AmdEpyc)
                .copied()
                .unwrap_or(0),
            0
        );
        assert_eq!(
            report
                .cpu_counts
                .get(&CpuType::IntelXeon2_9)
                .copied()
                .unwrap_or(0),
            0
        );
    }

    #[test]
    fn rtt_bound_excludes_distant_zones() {
        // Client in Virginia; candidates: nearby us-east-2a (fast zone on
        // paper: homogeneous 2.5GHz) and distant-but-faster sa-east-1a.
        let catalog = Catalog::paper_world(1);
        let near = az("us-east-2a");
        let far = az("sa-east-1a");
        let near_mix = CpuMix::from_shares(&[(CpuType::IntelXeon2_5, 1.0)]);
        let far_mix = CpuMix::from_shares(&[(CpuType::IntelXeon3_0, 1.0)]);
        let store = store_with(&[("us-east-2a", near_mix), ("sa-east-1a", far_mix)]);
        let mut config = RouterConfig {
            client: Some(GeoPoint::new(38.9, -77.4)),
            ..Default::default()
        };
        let table = model_table(WorkloadKind::Zipper);

        // Unbounded: the faster distant zone wins.
        let router = SmartRouter::new(store.clone(), table.clone(), config);
        let candidates = [near.clone(), far.clone()];
        assert_eq!(
            router.choose_az_bounded(WorkloadKind::Zipper, &candidates, SimTime::ZERO, &catalog),
            far
        );
        let rtt_near = router.rtt_to(&near, &catalog).unwrap();
        let rtt_far = router.rtt_to(&far, &catalog).unwrap();
        assert!(
            rtt_far > rtt_near,
            "São Paulo is farther from Virginia than Ohio"
        );

        // Bounded below São Paulo's RTT: the nearby zone wins despite the
        // slower hardware — the §3.5 latency/cost trade-off.
        config.max_rtt = Some(SimDuration::from_millis(60));
        let bounded = SmartRouter::new(store.clone(), table.clone(), config);
        assert_eq!(
            bounded.choose_az_bounded(WorkloadKind::Zipper, &candidates, SimTime::ZERO, &catalog),
            near
        );

        // Impossible bound: degrade to the nearest candidate.
        config.max_rtt = Some(SimDuration::from_millis(1));
        let strict = SmartRouter::new(store, table, config);
        assert_eq!(
            strict.choose_az_bounded(WorkloadKind::Zipper, &candidates, SimTime::ZERO, &catalog),
            near
        );
    }

    #[test]
    fn burst_report_carries_rtt_when_client_known() {
        let (mut e, account) = engine();
        let zone = az("sa-east-1a");
        let dep = e.deploy(account, &zone, 2048, Arch::X86_64).unwrap();
        let config = RouterConfig {
            client: Some(GeoPoint::new(47.6, -122.3)), // Seattle
            ..Default::default()
        };
        let router = SmartRouter::new(CharacterizationStore::new(), RuntimeTable::new(), config);
        let report = router.run_burst(
            &mut e,
            WorkloadKind::Sha1Hash,
            50,
            &RoutingPolicy::Baseline { az: zone },
            |_| Some(dep),
        );
        let rtt = report.rtt.expect("client configured");
        // Seattle <-> São Paulo is ~11,000 km: RTT well above 100ms.
        assert!(rtt > SimDuration::from_millis(100), "rtt {rtt}");
    }

    #[test]
    fn carbon_aware_choice_prefers_clean_grids() {
        let catalog = Catalog::paper_world(1);
        let router = SmartRouter::default();
        let clean = az("eu-north-1a"); // Scandinavian hydro
        let dirty = az("ap-southeast-2a"); // coal-heavy
        let chosen =
            router.choose_az_carbon(&[dirty.clone(), clean.clone()], SimTime::ZERO, &catalog);
        assert_eq!(chosen, clean);
        // With a tight RTT bound from a Sydney client, the dirty-but-near
        // zone wins — the latency bound of the predecessor system [12].
        let config = RouterConfig {
            client: Some(sky_cloud::GeoPoint::new(-33.9, 151.2)),
            max_rtt: Some(SimDuration::from_millis(80)),
            ..Default::default()
        };
        let bounded = SmartRouter::new(CharacterizationStore::new(), RuntimeTable::new(), config);
        assert_eq!(
            bounded.choose_az_carbon(&[dirty.clone(), clean], SimTime::ZERO, &catalog),
            dirty
        );
    }

    #[test]
    fn burst_reports_estimate_emissions() {
        let (mut e, account) = engine();
        let clean = az("eu-north-1a");
        let dirty = az("ap-southeast-2a");
        let dep_clean = e.deploy(account, &clean, 2048, Arch::X86_64).unwrap();
        let dep_dirty = e.deploy(account, &dirty, 2048, Arch::X86_64).unwrap();
        let router = SmartRouter::default();
        let run = |e: &mut sky_faas::FaasEngine, az: &AzId, dep| {
            router.run_burst(
                e,
                WorkloadKind::Sha1Hash,
                50,
                &RoutingPolicy::Baseline { az: az.clone() },
                |_| Some(dep),
            )
        };
        let report_clean = run(&mut e, &clean, dep_clean);
        e.advance_by(SimDuration::from_mins(15));
        let report_dirty = run(&mut e, &dirty, dep_dirty);
        assert!(report_clean.est_gco2e > 0.0);
        assert!(
            report_dirty.est_gco2e > 5.0 * report_clean.est_gco2e,
            "same work on a coal grid emits far more: {} vs {}",
            report_dirty.est_gco2e,
            report_clean.est_gco2e
        );
    }

    #[test]
    fn savings_fraction_math() {
        assert!((savings_fraction(100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(savings_fraction(100.0, 120.0) < 0.0);
        assert_eq!(savings_fraction(0.0, 5.0), 0.0);
    }

    /// Run `days` daily bandit bursts and return the visit sequence.
    fn bandit_run(thompson: bool, seed: u64, days: u64) -> Vec<AzId> {
        let mut e = FaasEngine::new(Catalog::paper_world(seed), FleetConfig::new(seed));
        let account = e.create_account(Provider::Aws);
        // us-west-1b leans on 2.9 GHz / EPYC hardware (Zipper runtime
        // factor ≈1.11× the 2.5 GHz baseline), us-east-2a is homogeneous
        // 2.5 GHz — the bandit should learn to prefer the cheaper zone.
        let zones = [az("us-west-1b"), az("us-east-2a")];
        let deps: BTreeMap<AzId, sky_faas::DeploymentId> = zones
            .iter()
            .map(|z| (z.clone(), e.deploy(account, z, 2048, Arch::X86_64).unwrap()))
            .collect();
        let router = SmartRouter::default();
        let candidates = zones.to_vec();
        let policy = if thompson {
            RoutingPolicy::ThompsonAz {
                candidates: candidates.clone(),
            }
        } else {
            RoutingPolicy::UcbAz {
                candidates: candidates.clone(),
            }
        };
        let mut visits = Vec::new();
        for day in 1..=days {
            e.advance_to(SimTime::start_of_day(day) + SimDuration::from_hours(2));
            let report = router.run_burst(&mut e, WorkloadKind::Zipper, 80, &policy, |z| {
                deps.get(z).copied()
            });
            visits.push(report.az);
        }
        assert_eq!(
            visits.len() as u64,
            router.bandit_pulls(&zones[0]) + router.bandit_pulls(&zones[1])
        );
        visits
    }

    #[test]
    fn bandit_policies_explore_then_exploit_the_cheap_zone() {
        for thompson in [false, true] {
            let visits = bandit_run(thompson, 77, 10);
            // Both arms tried at least once (forced initial sweep).
            assert!(visits.contains(&az("us-east-2a")));
            assert!(visits.contains(&az("us-west-1b")));
            // The homogeneous 2.5 GHz zone runs Zipper ~11 % cheaper than
            // the EPYC/2.9-heavy mix and wins the majority of pulls.
            let cheap = visits.iter().filter(|z| **z == az("us-east-2a")).count();
            assert!(
                cheap > visits.len() / 2,
                "thompson={thompson}: cheap zone pulled {cheap}/{}",
                visits.len()
            );
        }
    }

    #[test]
    fn bandit_decisions_are_deterministic_given_seed() {
        for thompson in [false, true] {
            let a = bandit_run(thompson, 21, 8);
            let b = bandit_run(thompson, 21, 8);
            assert_eq!(a, b, "thompson={thompson}");
        }
    }

    #[test]
    fn bandit_labels_are_stable() {
        let c = vec![az("us-east-2a")];
        assert_eq!(
            RoutingPolicy::UcbAz {
                candidates: c.clone()
            }
            .label(),
            "ucb-az"
        );
        assert_eq!(
            RoutingPolicy::ThompsonAz { candidates: c }.label(),
            "thompson-az"
        );
    }
}
