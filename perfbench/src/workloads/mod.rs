//! The four campaign workloads. Each one builds a fresh seeded world,
//! runs its whole shape as a closed loop with one caller (the next step
//! is issued only after the previous one returns), checks every step's
//! outcome and folds the simulated outputs into a digest.

use sky_core::cloud::AzId;
use sky_core::faas::FaasEngine;
use sky_core::sim::metrics::{MetricValue, MetricsSnapshot};
use sky_core::sim::{SimDuration, SimRng};

use crate::probe::Probe;
use crate::replay::Schedule;

pub mod chaos_modes;
pub mod fleet_ring;
pub mod probe_sweep;
pub mod routed_bursts;

/// How long an episode's shape runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Length {
    /// The benchmark's shape.
    Bench,
    /// A reduced shape for the benchmark's own tests.
    Test,
}

/// What one episode (a fresh world through the whole shape) produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    /// `sim_digest`: the fold of every simulated output the workload saw.
    pub digest: u64,
    /// Simulated invocations resolved in the timed phase.
    pub invocations: u64,
    /// Engine events processed in the timed phase.
    pub events: u64,
    /// Per-episode layer counters, by per-layer metric name. They depend
    /// only on the seed.
    pub counters: Vec<(&'static str, f64)>,
    /// Requests each step submitted, in order.
    pub sent: Vec<u32>,
}

/// Extra traced-run work: seed, length, the reference episode of that
/// seed, and a fresh traced probe.
pub type TracedCheck = fn(u64, Length, &Episode, &mut Probe) -> Result<(), String>;

/// A workload of the benchmark.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Steps one episode takes.
    pub steps: fn(Length) -> u64,
    /// Run one episode.
    pub episode: fn(u64, Length, &mut Probe) -> Episode,
    /// The step schedule the heap-vs-wheel replay pushes through the
    /// event queues, from the seed and the requests each step sent.
    pub schedule: fn(u64, &[u32]) -> Schedule,
    /// Extra traced-run work: the fleet's two-shard determinism re-run.
    pub traced_extra: Option<TracedCheck>,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "probe_sweep",
        steps: probe_sweep::steps,
        episode: probe_sweep::episode,
        schedule: probe_sweep::schedule,
        traced_extra: None,
    },
    Workload {
        name: "routed_bursts",
        steps: routed_bursts::steps,
        episode: routed_bursts::episode,
        schedule: routed_bursts::schedule,
        traced_extra: None,
    },
    Workload {
        name: "chaos_modes",
        steps: chaos_modes::steps,
        episode: chaos_modes::episode,
        schedule: chaos_modes::schedule,
        traced_extra: None,
    },
    Workload {
        name: "fleet_ring",
        steps: fleet_ring::steps,
        episode: fleet_ring::episode,
        schedule: fleet_ring::schedule,
        traced_extra: Some(fleet_ring::shards2),
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Parse zone names that are known to be valid.
pub(crate) fn parse_zones(names: &[&str]) -> Vec<AzId> {
    names
        .iter()
        .map(|n| n.parse().expect("benchmark zone names are valid"))
        .collect()
}

/// Fail the current step unless every request span the engine opened
/// has closed.
pub(crate) fn check_spans(engine: &FaasEngine, probe: &mut Probe) {
    let spans = engine.spans();
    if spans.opened_total() != spans.closed_total() || spans.open_count() != 0 {
        probe.fail_step("engine span/opened differs from span/closed");
    }
}

/// Sum of the engine's `faas/requests` counters with one terminal
/// status, over every zone.
fn requests_with_status(snap: &MetricsSnapshot, status: &str) -> u64 {
    snap.entries
        .iter()
        .filter(|e| e.subsystem == "faas" && e.name == "requests")
        .filter(|e| e.labels.iter().any(|(k, v)| k == "status" && v == status))
        .map(|e| match e.value {
            MetricValue::Counter(n) => n,
            _ => 0,
        })
        .sum()
}

/// The `faas.platform.*` counters of one engine, summed over zones, for
/// the whole episode (set-up traffic included).
pub(crate) fn platform_counters(engine: &FaasEngine) -> Vec<(&'static str, f64)> {
    let snap = engine.metrics_snapshot();
    let sum = |name: &str| snap.counter_sum("faas", name) as f64;
    let attempts = sum("attempts");
    let warm = sum("warm_starts");
    vec![
        ("faas.platform.attempts", attempts),
        ("faas.platform.cold_starts", sum("cold_starts")),
        (
            "faas.platform.no_capacity",
            requests_with_status(&snap, "no-capacity") as f64,
        ),
        ("faas.platform.warm_starts", warm),
        ("faas.platform.gated_retries", sum("gated_retries")),
        (
            "faas.platform.keepalive_evictions",
            sum("keepalive_evictions"),
        ),
        (
            "faas.platform.warm_hit_ratio",
            if attempts > 0.0 { warm / attempts } else { 0.0 },
        ),
        ("faas.platform.pooled_starts", sum("pooled_starts")),
        ("faas.platform.restored_starts", sum("restored_starts")),
        ("faas.platform.branched_starts", sum("branched_starts")),
        (
            "faas.platform.throttled",
            requests_with_status(&snap, "throttled") as f64,
        ),
        ("faas.platform.result_cache_hits", sum("result_cache_hits")),
        (
            "faas.platform.result_cache_misses",
            sum("result_cache_misses"),
        ),
        ("faas.platform.hosts_recycled", sum("hosts_recycled")),
    ]
}

/// A replay schedule whose steps spread their arrivals uniformly over
/// `spread`, with one completion per arrival `service` later.
pub(crate) fn uniform_schedule(
    seed: u64,
    sent: &[u32],
    spread: SimDuration,
    service: SimDuration,
) -> Schedule {
    let mut rng = SimRng::seed_from(seed).derive("perfbench-replay");
    let spread_us = spread.as_micros().max(1);
    let steps = sent
        .iter()
        .map(|&n| {
            (0..n)
                .map(|_| SimDuration::from_micros(rng.next_below(spread_us)))
                .collect()
        })
        .collect();
    Schedule { steps, service }
}
