//! The `fig_faults` experiment: baseline vs. resilient routing under
//! each injectable fault class.
//!
//! For every [`FaultClass`] the experiment builds two independent seeded
//! worlds — one per client policy — arms the same single-fault
//! [`FaultPlan`] against the primary zone, fires one burst, and compares
//! goodput, cost and tail latency. The *baseline* client is the paper's
//! naive comparator (one attempt, primary zone only, same per-request
//! timeout); the *resilient* client retries with backoff, hedges the
//! slow tail, and routes around the fault through its per-AZ circuit
//! breaker (failing over to a fallback zone).
//!
//! Cells run on the sweep runner and are pure functions of
//! `(class, scale, seed)`, so the merged table is byte-identical for any
//! `--jobs` setting.

use crate::sweep::{self, Jobs};
use crate::{Scale, World};
use sky_core::cloud::{Arch, AzId, FaultKind, FaultPlan};
use sky_core::sim::series::Table;
use sky_core::sim::{MetricsSnapshot, SimDuration};
use sky_core::workloads::WorkloadKind;
use sky_core::{BackoffPolicy, BreakerConfig, ResilienceConfig, ResilientClient, ResilientReport};

/// The injectable fault classes, one row each in the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Full AZ outage.
    Outage,
    /// Partial AZ outage (60 % of placements fail).
    PartialOutage,
    /// 429-style throttling storm (50 % of arrivals shed).
    ThrottleStorm,
    /// Flat +4 s dispatch latency.
    LatencySpike,
    /// Keep-alive purge with 60× cold-start inflation.
    ColdStartStorm,
    /// Silent 2× execution slowdown.
    GrayDegradation,
}

impl FaultClass {
    /// Every class, in figure row order.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::Outage,
        FaultClass::PartialOutage,
        FaultClass::ThrottleStorm,
        FaultClass::LatencySpike,
        FaultClass::ColdStartStorm,
        FaultClass::GrayDegradation,
    ];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::Outage => "outage",
            FaultClass::PartialOutage => "partial-outage",
            FaultClass::ThrottleStorm => "throttle-storm",
            FaultClass::LatencySpike => "latency-spike",
            FaultClass::ColdStartStorm => "cold-start-storm",
            FaultClass::GrayDegradation => "gray-degradation",
        }
    }

    /// The concrete fault parameters this class injects. Severities are
    /// chosen so the baseline client visibly degrades on a ~3 s workload
    /// under a 5 s timeout while a healthy zone stays comfortably inside
    /// it.
    pub fn kind(self) -> FaultKind {
        match self {
            FaultClass::Outage => FaultKind::Outage,
            FaultClass::PartialOutage => FaultKind::PartialOutage { severity: 0.6 },
            FaultClass::ThrottleStorm => FaultKind::ThrottleStorm { reject_prob: 0.5 },
            FaultClass::LatencySpike => FaultKind::LatencySpike {
                extra: SimDuration::from_secs(4),
            },
            FaultClass::ColdStartStorm => FaultKind::ColdStartStorm { init_factor: 60.0 },
            FaultClass::GrayDegradation => FaultKind::GrayDegradation { slowdown: 2.0 },
        }
    }
}

/// The faulted (primary) zone: homogeneous 2.5 GHz, so latency shifts
/// are attributable to the fault rather than hardware luck.
pub fn primary_az() -> AzId {
    World::az("us-east-2a")
}

/// The failover zone the resilient client may hop to.
pub fn fallback_az() -> AzId {
    World::az("us-east-2b")
}

/// The workload under test (~3 s on the 2.5 GHz baseline).
pub const FAULT_WORKLOAD: WorkloadKind = WorkloadKind::Sha1Hash;

/// Per-attempt timeout shared by both clients.
pub fn fault_timeout() -> SimDuration {
    SimDuration::from_secs(5)
}

/// The resilient client's tunables for this experiment.
pub fn resilient_config() -> ResilienceConfig {
    ResilienceConfig {
        request_timeout: fault_timeout(),
        max_attempts: 5,
        backoff: BackoffPolicy::new(
            SimDuration::from_millis(200),
            2.0,
            SimDuration::from_secs(8),
            0.2,
        ),
        hedge_percentile: Some(0.95),
        breaker: BreakerConfig {
            failure_threshold: 5,
            cooldown: SimDuration::from_secs(20),
        },
    }
}

/// The baseline client: same timeout, one attempt, no hedging — the
/// naive single-zone client the paper's comparisons start from.
pub fn baseline_config() -> ResilienceConfig {
    ResilienceConfig {
        request_timeout: fault_timeout(),
        max_attempts: 1,
        backoff: BackoffPolicy::default(),
        hedge_percentile: None,
        breaker: BreakerConfig::default(),
    }
}

/// One figure row: the same fault, both client policies.
#[derive(Debug, Clone)]
pub struct FaultFigRow {
    /// The injected fault class.
    pub class: FaultClass,
    /// Naive client outcome.
    pub baseline: ResilientReport,
    /// Resilient client outcome.
    pub resilient: ResilientReport,
}

/// Run one `(class, policy)` arm in a fresh seeded world and return the
/// report plus the arm's metric snapshot (engine + client registries,
/// tagged with `class`/`policy` labels). Deterministic from `seed`.
fn run_arm(
    class: FaultClass,
    resilient: bool,
    scale: Scale,
    seed: u64,
) -> (ResilientReport, MetricsSnapshot) {
    let mut world = World::new(seed);
    let primary = primary_az();
    let fallback = fallback_az();
    let dep_primary = world
        .engine
        .deploy(world.aws, &primary, 2048, Arch::X86_64)
        .expect("primary deploys");
    let dep_fallback = world
        .engine
        .deploy(world.aws, &fallback, 2048, Arch::X86_64)
        .expect("fallback deploys");
    let plan = FaultPlan::new()
        .with_event(
            primary.clone(),
            world.engine.now() + SimDuration::from_secs(1),
            SimDuration::from_hours(1),
            class.kind(),
        )
        .expect("valid fault parameters");
    world.engine.set_fault_plan(&plan);
    // Let the fault arm before the burst arrives.
    world.engine.advance_by(SimDuration::from_secs(2));

    let n = scale.pick(300, 50);
    let (config, candidates) = if resilient {
        (resilient_config(), vec![primary.clone(), fallback.clone()])
    } else {
        (baseline_config(), vec![primary.clone()])
    };
    let mut client = ResilientClient::with_defaults(config);
    let report = client.run_burst(&mut world.engine, FAULT_WORKLOAD, n, &candidates, |az| {
        if *az == primary {
            Some(dep_primary)
        } else if *az == fallback {
            Some(dep_fallback)
        } else {
            None
        }
    });
    let mut metrics = world.engine.metrics_snapshot();
    metrics.merge(&client.metrics_snapshot());
    let metrics = metrics
        .with_label("class", class.label())
        .with_label("policy", if resilient { "resilient" } else { "baseline" });
    (report, metrics)
}

/// Run one fault class (both policies) and keep the merged metric
/// snapshot of both arms.
pub fn run_fault_cell_full(
    class: FaultClass,
    scale: Scale,
    seed: u64,
) -> (FaultFigRow, MetricsSnapshot) {
    let (baseline, mut metrics) = run_arm(class, false, scale, seed);
    let (resilient, resilient_metrics) = run_arm(class, true, scale, seed);
    metrics.merge(&resilient_metrics);
    (
        FaultFigRow {
            class,
            baseline,
            resilient,
        },
        metrics,
    )
}

/// Run one fault class (both policies).
pub fn run_fault_cell(class: FaultClass, scale: Scale, seed: u64) -> FaultFigRow {
    run_fault_cell_full(class, scale, seed).0
}

/// All figure rows, fanned out over the sweep runner. Output is in
/// `FaultClass::ALL` order regardless of `jobs`.
pub fn fig_faults_rows(scale: Scale, jobs: Jobs, seed: u64) -> Vec<FaultFigRow> {
    sweep::run(FaultClass::ALL.to_vec(), jobs, |_, &class| {
        run_fault_cell(class, scale, seed)
    })
}

/// All figure rows plus the experiment-wide metric snapshot, fanned out
/// over the sweep runner. Cells are pure, and per-cell snapshots are
/// merged in `FaultClass::ALL` order, so both outputs are byte-identical
/// for any `jobs` setting.
pub fn fig_faults_with_metrics(
    scale: Scale,
    jobs: Jobs,
    seed: u64,
) -> (Vec<FaultFigRow>, MetricsSnapshot) {
    let cells = sweep::run(FaultClass::ALL.to_vec(), jobs, |_, &class| {
        run_fault_cell_full(class, scale, seed)
    });
    let mut rows = Vec::with_capacity(cells.len());
    let mut metrics = MetricsSnapshot::new();
    for (row, cell_metrics) in cells {
        rows.push(row);
        metrics.merge(&cell_metrics);
    }
    (rows, metrics)
}

/// Render the figure: one table row per fault class, then the
/// goodput-domination verdict line. The golden-trace harness snapshots
/// this exact string.
pub fn render_fig_faults(rows: &[FaultFigRow]) -> String {
    let mut table = Table::new(
        format!(
            "fig_faults: baseline vs resilient client under injected faults ({} -> {})",
            primary_az(),
            fallback_az()
        ),
        &[
            "fault",
            "base good%",
            "res good%",
            "base p99 ms",
            "res p99 ms",
            "base $/1k",
            "res $/1k",
            "res attempts",
            "hedges",
            "trips",
        ],
    );
    for row in rows {
        let per_k = |r: &ResilientReport| 1_000.0 * r.total_cost_usd / r.n.max(1) as f64;
        table.row(&[
            row.class.label().to_string(),
            format!("{:.1}", row.baseline.goodput * 100.0),
            format!("{:.1}", row.resilient.goodput * 100.0),
            format!("{:.0}", row.baseline.p99_ms),
            format!("{:.0}", row.resilient.p99_ms),
            format!("{:.4}", per_k(&row.baseline)),
            format!("{:.4}", per_k(&row.resilient)),
            format!(
                "{:.2}",
                row.resilient.attempts as f64 / row.resilient.n.max(1) as f64
            ),
            row.resilient.hedges.to_string(),
            row.resilient.breaker_trips.to_string(),
        ]);
    }
    let mut out = table.render();
    let dominated = rows
        .iter()
        .all(|r| r.resilient.goodput > r.baseline.goodput);
    out.push_str(&format!(
        "resilient policy strictly dominates baseline goodput on all {} fault classes: {}\n",
        rows.len(),
        if dominated { "yes" } else { "NO" },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilient_dominates_baseline_goodput_per_class() {
        // Quick scale keeps this inside unit-test budget; the full-scale
        // figure is exercised by the golden harness and the binary.
        for class in FaultClass::ALL {
            let row = run_fault_cell(class, Scale::Quick, crate::WORLD_SEED);
            assert!(
                row.resilient.goodput > row.baseline.goodput,
                "{}: resilient {:.2} must beat baseline {:.2}",
                class.label(),
                row.resilient.goodput,
                row.baseline.goodput,
            );
            assert!(
                row.resilient.goodput >= 0.9,
                "{}: resilient goodput floor: {:.2}",
                class.label(),
                row.resilient.goodput,
            );
        }
    }

    #[test]
    fn rows_are_jobs_invariant() {
        let seed = crate::WORLD_SEED;
        let serial = render_fig_faults(&fig_faults_rows(Scale::Quick, Jobs::serial(), seed));
        let parallel = render_fig_faults(&fig_faults_rows(Scale::Quick, Jobs::new(4), seed));
        assert_eq!(serial, parallel);
    }
}
