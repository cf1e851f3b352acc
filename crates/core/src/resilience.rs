//! Resilient routing client: per-request timeouts, exponential backoff
//! with deterministic jitter, hedged requests past a latency percentile,
//! and a per-AZ circuit breaker feeding back into the hopping placement.
//!
//! The paper's smart routing (§3.4–3.5) only pays off because real FaaS
//! platforms fail in messy ways — saturation, throttling bursts, gray
//! cross-AZ variance. This module turns the [`SmartRouter`] into a
//! client that survives those failure modes: every burst is driven in
//! *rounds* over the engine's batch API, and between rounds the client
//! reconsiders its zone choice through the breaker state, backs off with
//! jitter, and reissues work that failed or blew its timeout.
//!
//! All randomness flows from [`SimRng`] streams derived off the world
//! seed, so a run is reproducible bit-for-bit from `(seed, fault plan)`.

use crate::router::SmartRouter;
use crate::store::CharacterizationStore;
use serde::{Deserialize, Serialize};
use sky_cloud::AzId;
use sky_faas::{BatchRequest, DeploymentId, FaasEngine, RequestBody, WorkloadSpec};
use sky_sim::stats::percentile;
use sky_sim::{MetricHandle, MetricsRegistry, MetricsSnapshot, SimDuration, SimRng, SimTime};
use sky_workloads::WorkloadKind;
use std::collections::BTreeMap;

/// Exponential backoff with bounded, *monotone* deterministic jitter.
///
/// The jittered delay for attempt `a` is
/// `min(base · factor^a · (1 + jitter·u), max)` with `u ∈ [0, 1)` drawn
/// from the caller's [`SimRng`]. Construction requires
/// `factor ≥ 1 + jitter`, which makes the delay sequence non-decreasing
/// in `a` for *any* jitter draw (the uncapped term grows by at least
/// `factor/(1+jitter) ≥ 1` per attempt, and the cap is absorbing).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackoffPolicy {
    /// First-retry delay.
    pub base: SimDuration,
    /// Multiplier per attempt (≥ `1 + jitter`).
    pub factor: f64,
    /// Hard cap on any delay.
    pub max: SimDuration,
    /// Jitter fraction in `[0, 1)`: the delay is stretched by up to
    /// this fraction of itself.
    pub jitter: f64,
}

impl BackoffPolicy {
    /// A policy; panics unless `0 ≤ jitter < 1 ≤ 1 + jitter ≤ factor`
    /// and `base ≤ max` (the monotonicity preconditions).
    pub fn new(base: SimDuration, factor: f64, max: SimDuration, jitter: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0,1)");
        assert!(
            factor >= 1.0 + jitter,
            "factor {factor} < 1 + jitter {jitter}: delays would not be monotone"
        );
        assert!(base <= max, "base delay above the cap");
        assert!(base > SimDuration::ZERO, "zero base never backs off");
        BackoffPolicy {
            base,
            factor,
            max,
            jitter,
        }
    }

    /// The delay before reissue number `attempt` (0 = first retry).
    /// Monotone in `attempt` and bounded by `max` for every rng stream.
    pub fn delay(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let nominal = self.base.as_micros() as f64 * self.factor.powi(attempt as i32);
        let jittered = nominal * (1.0 + self.jitter * rng.next_f64());
        let capped = jittered.min(self.max.as_micros() as f64);
        SimDuration::from_micros(capped.round() as u64)
    }
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy::new(
            SimDuration::from_millis(100),
            2.0,
            SimDuration::from_secs(10),
            0.2,
        )
    }
}

/// Circuit-breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: the zone is avoided until the cooldown elapses.
    Open,
    /// Cooldown elapsed: the zone may be probed again; the next result
    /// decides between `Closed` and `Open`.
    HalfOpen,
}

/// Circuit-breaker tunables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker blocks the zone before half-opening.
    pub cooldown: SimDuration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: SimDuration::from_secs(30),
        }
    }
}

/// A per-AZ circuit breaker driven by the simulation clock.
///
/// `Open` *always* yields to `HalfOpen` once the cooldown elapses —
/// [`state`](Self::state) computes the transition from the clock, so no
/// call ordering can leave a zone permanently banned.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    closed: bool,
    consecutive_failures: u32,
    opened_at: SimTime,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            closed: true,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
            trips: 0,
        }
    }

    /// The state at `now` (cooldown-aware).
    pub fn state(&self, now: SimTime) -> BreakerState {
        if self.closed {
            BreakerState::Closed
        } else if now >= self.opened_at + self.config.cooldown {
            BreakerState::HalfOpen
        } else {
            BreakerState::Open
        }
    }

    /// Whether the zone may receive traffic at `now`.
    pub fn allows(&self, now: SimTime) -> bool {
        self.state(now) != BreakerState::Open
    }

    /// Record a request success: closes the breaker from any state.
    pub fn on_success(&mut self) {
        self.closed = true;
        self.consecutive_failures = 0;
    }

    /// Record a request failure at `now`. A half-open probe failure
    /// re-opens immediately; a closed breaker opens after
    /// `failure_threshold` consecutive failures.
    pub fn on_failure(&mut self, now: SimTime) {
        let was_half_open = self.state(now) == BreakerState::HalfOpen;
        self.consecutive_failures += 1;
        if was_half_open
            || (self.closed && self.consecutive_failures >= self.config.failure_threshold)
        {
            if self.closed || was_half_open {
                self.trips += 1;
            }
            self.closed = false;
            self.opened_at = now;
        }
    }

    /// How many times this breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

/// Tunables for the resilient client.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Per-attempt timeout: an attempt whose response lands later is
    /// abandoned (still billed — the platform ran it) and reissued.
    pub request_timeout: SimDuration,
    /// Total attempts per request (first try included).
    pub max_attempts: u32,
    /// Reissue backoff.
    pub backoff: BackoffPolicy,
    /// Hedge successes slower than this percentile of the round's
    /// latencies (e.g. `0.95`); `None` disables hedging. Each request is
    /// hedged at most once and keeps its fastest attempt's latency.
    pub hedge_percentile: Option<f64>,
    /// Per-AZ breaker tunables.
    pub breaker: BreakerConfig,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            request_timeout: SimDuration::from_secs(30),
            max_attempts: 4,
            backoff: BackoffPolicy::default(),
            hedge_percentile: Some(0.95),
            breaker: BreakerConfig::default(),
        }
    }
}

/// How a resilient burst went.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientReport {
    /// Logical requests issued.
    pub n: usize,
    /// Requests that eventually succeeded within the per-attempt timeout.
    pub completed: usize,
    /// Goodput: `completed / n`.
    pub goodput: f64,
    /// Dollars billed across *all* attempts, including abandoned and
    /// hedged ones (an abandoned invocation still runs and still bills).
    pub total_cost_usd: f64,
    /// Median end-to-end latency of completed requests, ms (first issue
    /// to success, backoff waits included).
    pub p50_ms: f64,
    /// Tail end-to-end latency of completed requests, ms.
    pub p99_ms: f64,
    /// Attempts across the burst (hedges included).
    pub attempts: u64,
    /// Hedge duplicates issued.
    pub hedges: u64,
    /// Circuit-breaker trips during the burst.
    pub breaker_trips: u64,
    /// Attempts per zone, in zone order (deterministic render order).
    pub attempts_by_az: BTreeMap<AzId, u64>,
    /// When the burst finished.
    pub finished: SimTime,
}

/// The client's per-zone counters, each labelled with its zone.
#[derive(Debug, Clone, Copy)]
enum Counter {
    Placements,
    Attempts,
    Hedges,
    Retries,
    Timeouts,
    OpenToClosed,
    HalfOpenToClosed,
    ClosedToOpen,
    HalfOpenToOpen,
}

impl Counter {
    const COUNT: usize = 9;

    /// The metric name and the labels besides `az`.
    fn identity(self) -> (&'static str, &'static [(&'static str, &'static str)]) {
        match self {
            Counter::Placements => ("placements", &[]),
            Counter::Attempts => ("attempts", &[]),
            Counter::Hedges => ("hedges", &[]),
            Counter::Retries => ("retries", &[]),
            Counter::Timeouts => ("timeouts", &[]),
            Counter::OpenToClosed => ("breaker_transitions", &[("from", "open"), ("to", "closed")]),
            Counter::HalfOpenToClosed => (
                "breaker_transitions",
                &[("from", "half-open"), ("to", "closed")],
            ),
            Counter::ClosedToOpen => ("breaker_transitions", &[("from", "closed"), ("to", "open")]),
            Counter::HalfOpenToOpen => (
                "breaker_transitions",
                &[("from", "half-open"), ("to", "open")],
            ),
        }
    }
}

/// A zone's circuit breaker and its counter handles.
#[derive(Debug)]
struct ZoneState {
    breaker: CircuitBreaker,
    /// Indexed by `Counter`. A handle is registered on the counter's
    /// first increment: registering all of them up front would add
    /// zero-valued series to the snapshot.
    counters: [Option<MetricHandle>; Counter::COUNT],
}

impl ZoneState {
    fn new(breaker: BreakerConfig) -> Self {
        ZoneState {
            breaker: CircuitBreaker::new(breaker),
            counters: [None; Counter::COUNT],
        }
    }

    /// Add `n` to this zone's `counter`.
    fn bump(&mut self, metrics: &mut MetricsRegistry, az: &AzId, counter: Counter, n: u64) {
        let handle = *self.counters[counter as usize].get_or_insert_with(|| {
            let (name, extra) = counter.identity();
            let az = az.to_string();
            let mut labels = vec![("az", az.as_str())];
            labels.extend_from_slice(extra);
            metrics.counter("resilience", name, &labels)
        });
        metrics.add(handle, n);
    }
}

/// The resilient client: a [`SmartRouter`] plus failure handling.
#[derive(Debug)]
pub struct ResilientClient {
    /// Placement knowledge and tunables.
    pub router: SmartRouter,
    /// Resilience tunables.
    pub config: ResilienceConfig,
    zones: BTreeMap<AzId, ZoneState>,
    metrics: MetricsRegistry,
}

/// One in-flight slot of a resilient round: which logical request it
/// serves and whether it is a hedge duplicate.
#[derive(Clone, Copy)]
struct Slot {
    request: usize,
    hedge: bool,
}

impl ResilientClient {
    /// A client with the given knowledge and tunables.
    pub fn new(router: SmartRouter, config: ResilienceConfig) -> Self {
        ResilientClient {
            router,
            config,
            zones: BTreeMap::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Export the client's resilience metrics (placements, retries,
    /// hedges, timeouts, breaker transitions) merged with the embedded
    /// router's placement metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.merge(&self.router.metrics_snapshot());
        snap
    }

    /// A client with empty knowledge (placement falls back to candidate
    /// order, which makes `candidates[0]` the primary zone).
    pub fn with_defaults(config: ResilienceConfig) -> Self {
        ResilientClient::new(
            SmartRouter::new(
                CharacterizationStore::new(),
                crate::profiler::RuntimeTable::new(),
                crate::router::RouterConfig::default(),
            ),
            config,
        )
    }

    /// The breaker state for `az` at `now` (absent zones are `Closed`).
    pub fn breaker_state(&self, az: &AzId, now: SimTime) -> BreakerState {
        self.zones
            .get(az)
            .map(|z| z.breaker.state(now))
            .unwrap_or(BreakerState::Closed)
    }

    /// Zone choice through the breakers: candidates whose breaker is
    /// open are excluded; if every zone is open, all are considered
    /// (failing open beats failing the burst).
    fn choose_az(&self, kind: WorkloadKind, candidates: &[AzId], engine: &FaasEngine) -> AzId {
        let now = engine.now();
        let allows = |az: &AzId| self.zones.get(az).is_none_or(|z| z.breaker.allows(now));
        let allowed: Vec<AzId>;
        let pool: &[AzId] = if candidates.iter().all(allows) {
            candidates
        } else {
            allowed = candidates.iter().filter(|az| allows(az)).cloned().collect();
            if allowed.is_empty() {
                candidates
            } else {
                &allowed
            }
        };
        self.router
            .choose_az_bounded(kind, pool, now, engine.catalog())
    }

    /// Execute `n` invocations of `kind` resiliently over `candidates`.
    ///
    /// The burst runs in rounds: each round picks one zone through the
    /// breakers, issues every outstanding attempt there as a batch,
    /// classifies the outcomes against the per-attempt timeout, feeds
    /// the breaker, then backs off (exponential, jittered) before the
    /// next round. Successes slower than the hedge percentile get one
    /// duplicate in the following round and keep their fastest latency.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or `resolve` returns no
    /// deployment for a chosen zone.
    pub fn run_burst<F>(
        &mut self,
        engine: &mut FaasEngine,
        kind: WorkloadKind,
        n: usize,
        candidates: &[AzId],
        mut resolve: F,
    ) -> ResilientReport
    where
        F: FnMut(&AzId) -> Option<DeploymentId>,
    {
        assert!(!candidates.is_empty(), "need at least one candidate zone");
        let mut report = ResilientReport {
            n,
            completed: 0,
            goodput: 0.0,
            total_cost_usd: 0.0,
            p50_ms: 0.0,
            p99_ms: 0.0,
            attempts: 0,
            hedges: 0,
            breaker_trips: 0,
            attempts_by_az: BTreeMap::new(),
            finished: engine.now(),
        };
        if n == 0 {
            return report;
        }
        let mut rng = SimRng::seed_from(engine.catalog().seed())
            .derive("resilient-burst")
            .derive(&format!("{kind}/{}", engine.now().as_micros()));
        let jitter = self.router.config.burst_jitter.as_micros().max(1);
        let timeout = self.config.request_timeout;

        // Per logical request.
        let mut first_issue: Vec<Option<SimTime>> = vec![None; n];
        let mut latency: Vec<Option<SimDuration>> = vec![None; n];
        let mut hedged: Vec<bool> = vec![false; n];
        let mut attempts_used: Vec<u32> = vec![0; n];

        let mut pending: Vec<usize> = (0..n).collect();
        // Per-round scratch, sized once: a round serves at most `n`
        // slots, since a request is either pending or queued for its
        // one hedge.
        let mut retry_round: Vec<usize> = Vec::with_capacity(n);
        let mut hedge_queue: Vec<usize> = Vec::with_capacity(n);
        let mut slots: Vec<Slot> = Vec::with_capacity(n);
        let mut round_latencies: Vec<f64> = Vec::with_capacity(n);
        let mut round_successes: Vec<(usize, SimDuration)> = Vec::with_capacity(n);
        let mut round = 0u32;
        loop {
            retry_round.clear();
            retry_round.extend(
                pending
                    .iter()
                    .copied()
                    .filter(|&i| attempts_used[i] < self.config.max_attempts),
            );
            if retry_round.is_empty() && hedge_queue.is_empty() {
                break;
            }
            if round > 0 {
                let delay = self.config.backoff.delay(round - 1, &mut rng);
                engine.advance_by(delay);
            }
            let az = self.choose_az(kind, candidates, engine);
            let zone = self
                .zones
                .entry(az.clone())
                .or_insert_with(|| ZoneState::new(self.config.breaker));
            zone.bump(&mut self.metrics, &az, Counter::Placements, 1);
            let deployment = resolve(&az)
                .unwrap_or_else(|| panic!("no deployment resolvable in chosen zone {az}"));
            slots.clear();
            let mut requests: Vec<BatchRequest> =
                Vec::with_capacity(retry_round.len() + hedge_queue.len());
            for &i in retry_round.iter().chain(hedge_queue.iter()) {
                // Retries have no recorded latency yet; hedge-queue
                // entries are already-completed successes.
                slots.push(Slot {
                    request: i,
                    hedge: latency[i].is_some(),
                });
                requests.push(BatchRequest {
                    deployment,
                    offset: SimDuration::from_micros(rng.next_below(jitter)),
                    body: RequestBody::Workload {
                        spec: WorkloadSpec::new(kind),
                    },
                });
            }
            hedge_queue.clear();
            let outcomes = engine.run_batch(requests);
            report.finished = report.finished.max(engine.now());

            let trips_before = zone.breaker.trips();
            let mut round_attempts = 0u64;
            round_latencies.clear();
            round_successes.clear();
            for (slot, o) in slots.iter().zip(outcomes.iter()) {
                let i = slot.request;
                round_attempts += o.attempts as u64;
                // sky-lint: allow(D005, slot-ordered f64 USD fold for the burst report; metered billing stays integer nano-USD in metrics)
                report.total_cost_usd += o.cost_usd + o.retry_cost_usd;
                if slot.hedge {
                    report.hedges += 1;
                    zone.bump(&mut self.metrics, &az, Counter::Hedges, 1);
                } else {
                    attempts_used[i] += 1;
                    if attempts_used[i] > 1 {
                        zone.bump(&mut self.metrics, &az, Counter::Retries, 1);
                    }
                    if first_issue[i].is_none() {
                        first_issue[i] = Some(o.arrived);
                    }
                }
                let attempt_latency = o.finished.saturating_since(o.arrived);
                let ok = o.status.is_success() && attempt_latency <= timeout;
                if o.status.is_success() && attempt_latency > timeout {
                    zone.bump(&mut self.metrics, &az, Counter::Timeouts, 1);
                }
                if ok {
                    let before = zone.breaker.state(o.finished);
                    zone.breaker.on_success();
                    let transition = match before {
                        BreakerState::Closed => None,
                        BreakerState::Open => Some(Counter::OpenToClosed),
                        BreakerState::HalfOpen => Some(Counter::HalfOpenToClosed),
                    };
                    if let Some(counter) = transition {
                        zone.bump(&mut self.metrics, &az, counter, 1);
                    }
                    if slot.hedge {
                        // Keep the fastest attempt's latency.
                        let best = latency[i].map_or(attempt_latency, |l| l.min(attempt_latency));
                        latency[i] = Some(best);
                    } else if latency[i].is_none() {
                        let issued = first_issue[i].expect("issued before success");
                        let end_to_end = o.finished.saturating_since(issued);
                        latency[i] = Some(end_to_end);
                        round_successes.push((i, attempt_latency));
                        round_latencies.push(attempt_latency.as_millis_f64());
                    }
                } else if !slot.hedge {
                    let before = zone.breaker.state(o.finished);
                    zone.breaker.on_failure(o.finished);
                    if zone.breaker.state(o.finished) == BreakerState::Open {
                        let transition = match before {
                            BreakerState::Open => None,
                            BreakerState::Closed => Some(Counter::ClosedToOpen),
                            BreakerState::HalfOpen => Some(Counter::HalfOpenToOpen),
                        };
                        if let Some(counter) = transition {
                            zone.bump(&mut self.metrics, &az, counter, 1);
                        }
                    }
                }
            }
            report.attempts += round_attempts;
            *report.attempts_by_az.entry(az.clone()).or_default() += round_attempts;
            zone.bump(&mut self.metrics, &az, Counter::Attempts, round_attempts);
            report.breaker_trips += zone.breaker.trips() - trips_before;

            // Hedge the slow tail of this round's fresh successes.
            if let Some(p) = self.config.hedge_percentile {
                if round_latencies.len() >= 2 {
                    let cut = percentile(&round_latencies, p).expect("two or more latencies");
                    for &(i, l) in &round_successes {
                        if l.as_millis_f64() > cut && !hedged[i] {
                            hedged[i] = true;
                            hedge_queue.push(i);
                        }
                    }
                }
            }
            pending.retain(|&i| latency[i].is_none());
            round += 1;
        }

        report.completed = latency.iter().filter(|l| l.is_some()).count();
        report.goodput = report.completed as f64 / n as f64;
        let completed_ms: Vec<f64> = latency
            .iter()
            .flatten()
            .map(|l| l.as_millis_f64())
            .collect();
        report.p50_ms = percentile(&completed_ms, 0.50).unwrap_or(0.0);
        report.p99_ms = percentile(&completed_ms, 0.99).unwrap_or(0.0);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sky_cloud::{Arch, Catalog, FaultKind, FaultPlan, Provider};
    use sky_faas::FleetConfig;

    fn az(s: &str) -> AzId {
        s.parse().unwrap()
    }

    #[test]
    fn backoff_delay_monotone_and_bounded() {
        let policy = BackoffPolicy::default();
        let mut rng = SimRng::seed_from(7).derive("backoff");
        let mut prev = SimDuration::ZERO;
        for attempt in 0..20 {
            let d = policy.delay(attempt, &mut rng);
            assert!(d >= prev, "attempt {attempt}: {d} < {prev}");
            assert!(d <= policy.max, "attempt {attempt}: {d} above cap");
            prev = d;
        }
        assert_eq!(policy.delay(19, &mut rng), policy.max, "cap reached");
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn backoff_rejects_non_monotone_parameters() {
        let _ = BackoffPolicy::new(
            SimDuration::from_millis(10),
            1.1,
            SimDuration::from_secs(1),
            0.5,
        );
    }

    #[test]
    fn breaker_trips_half_opens_and_recloses() {
        let cfg = BreakerConfig {
            failure_threshold: 3,
            cooldown: SimDuration::from_secs(10),
        };
        let mut b = CircuitBreaker::new(cfg);
        let t0 = SimTime::ZERO;
        assert_eq!(b.state(t0), BreakerState::Closed);
        b.on_failure(t0);
        b.on_failure(t0);
        assert_eq!(b.state(t0), BreakerState::Closed, "below threshold");
        b.on_failure(t0);
        assert_eq!(b.state(t0), BreakerState::Open);
        assert!(!b.allows(t0 + SimDuration::from_secs(9)));
        let probe_at = t0 + SimDuration::from_secs(10);
        assert_eq!(b.state(probe_at), BreakerState::HalfOpen);
        assert!(b.allows(probe_at));
        // Failed probe re-opens with a fresh cooldown.
        b.on_failure(probe_at);
        assert_eq!(
            b.state(probe_at + SimDuration::from_secs(9)),
            BreakerState::Open
        );
        let probe2 = probe_at + SimDuration::from_secs(10);
        assert_eq!(b.state(probe2), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(probe2), BreakerState::Closed);
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn percentile_nearest_rank() {
        // The hedge cut and the report's p50/p99 rank an unsorted sample.
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
        assert_eq!(percentile(&xs, 1.0), Some(5.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn healthy_zone_burst_has_full_goodput() {
        let mut e = FaasEngine::new(Catalog::paper_world(11), FleetConfig::new(11));
        let acct = e.create_account(Provider::Aws);
        let zone = az("us-east-2a");
        let dep = e.deploy(acct, &zone, 2048, Arch::X86_64).unwrap();
        let mut client = ResilientClient::with_defaults(ResilienceConfig::default());
        let report = client.run_burst(
            &mut e,
            WorkloadKind::Sha1Hash,
            40,
            std::slice::from_ref(&zone),
            |_| Some(dep),
        );
        assert_eq!(report.completed, 40);
        assert_eq!(report.goodput, 1.0);
        assert_eq!(report.breaker_trips, 0);
        assert!(report.p99_ms >= report.p50_ms);
        assert!(report.total_cost_usd > 0.0);
        assert_eq!(report.attempts_by_az.len(), 1);
        assert_eq!(client.breaker_state(&zone, e.now()), BreakerState::Closed);
    }

    #[test]
    fn outage_fails_over_to_fallback_zone() {
        let mut e = FaasEngine::new(Catalog::paper_world(12), FleetConfig::new(12));
        let acct = e.create_account(Provider::Aws);
        let primary = az("us-east-2a");
        let fallback = az("us-west-1a");
        let dep_p = e.deploy(acct, &primary, 2048, Arch::X86_64).unwrap();
        let dep_f = e.deploy(acct, &fallback, 2048, Arch::X86_64).unwrap();
        let outage = FaultPlan::new()
            .with_event(
                primary.clone(),
                e.now(),
                SimDuration::from_mins(30),
                FaultKind::Outage,
            )
            .unwrap();
        e.set_fault_plan(&outage);
        let config = ResilienceConfig {
            request_timeout: SimDuration::from_secs(5),
            ..Default::default()
        };
        let mut client = ResilientClient::with_defaults(config);
        let report = client.run_burst(
            &mut e,
            WorkloadKind::Sha1Hash,
            30,
            &[primary.clone(), fallback.clone()],
            |z| {
                if *z == primary {
                    Some(dep_p)
                } else {
                    Some(dep_f)
                }
            },
        );
        assert_eq!(report.goodput, 1.0, "failover completes everything");
        assert!(report.breaker_trips >= 1, "primary breaker tripped");
        assert!(
            report.attempts_by_az.get(&fallback).copied().unwrap_or(0) >= 30,
            "work moved to the fallback"
        );
    }
}
