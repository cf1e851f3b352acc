//! **ablation_drift_lag** — how fast does the streaming detector notice
//! drift, and what does a chaos fault plan do to that lag?
//!
//! One volatile zone (`us-west-1b`, 20–50 % day-2 swings) serves a daily
//! production burst with the engine's observation hook feeding a
//! [`StreamingCharacterizer`]. The CUSUM firing threshold `lambda` is
//! swept against two fault regimes: a clean run, and a chaos plan that
//! throws a throttling storm, a cold-start storm, a latency spike and a
//! gray degradation across the burst window on different days. Faults
//! suppress or distort completions, starving the detector of evidence —
//! the ablation measures what that costs in detection lag.
//!
//! Per fire we record the **staleness** of the estimate's reference (time
//! since the last probe — exactly the age a cadence-based sampler would
//! have silently tolerated) and the estimate's APE against the
//! platform's ground-truth mix at that moment. Each (lambda, faults)
//! cell is an independent seeded world, so the table is byte-identical
//! for any `--jobs` setting.

use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::sweep;
use crate::{outln, profile_workload, Scale, ScenarioBuilder, World};
use sky_core::cloud::{AzId, CpuMix, FaultKind, FaultPlan};
use sky_core::sim::series::Table;
use sky_core::sim::{SimDuration, SimTime};
use sky_core::workloads::WorkloadKind;
use sky_core::{
    CharacterizationStore, Characterizer, PollConfig, RouterConfig, RoutingPolicy, SmartRouter,
    StreamingCharacterizer, StreamingConfig,
};

/// CUSUM firing thresholds swept (x10 000 total-variation units).
const LAMBDAS: [i64; 3] = [30_000, 60_000, 120_000];

/// Fault regimes crossed with the lambda sweep.
const FAULTS: [&str; 2] = ["none", "chaos"];

struct CellRow {
    lambda_x10k: i64,
    faults: &'static str,
    observations: u64,
    fires: usize,
    first_fire_day: Option<u64>,
    mean_staleness_days: f64,
    mean_ape_percent: f64,
}

/// The chaos plan: four distinct fault classes thrown across the daily
/// burst window (bursts run at +2 h; every event covers +1 h..+5 h).
fn chaos_plan(zone: &AzId) -> FaultPlan {
    let window = SimDuration::from_hours(4);
    let at = |day: u64| SimTime::start_of_day(day) + SimDuration::from_hours(1);
    FaultPlan::new()
        .with_event(
            zone.clone(),
            at(3),
            window,
            FaultKind::ThrottleStorm { reject_prob: 0.6 },
        )
        .and_then(|p| {
            p.with_event(
                zone.clone(),
                at(5),
                window,
                FaultKind::ColdStartStorm { init_factor: 4.0 },
            )
        })
        .and_then(|p| {
            p.with_event(
                zone.clone(),
                at(7),
                window,
                FaultKind::LatencySpike {
                    extra: SimDuration::from_millis(500),
                },
            )
        })
        .and_then(|p| {
            p.with_event(
                zone.clone(),
                at(9),
                window,
                FaultKind::GrayDegradation { slowdown: 2.0 },
            )
        })
        .expect("valid chaos plan")
}

/// One targeted probe of `az`, filed into `store`; returns the probed
/// mix.
fn probe_zone(
    store: &mut CharacterizationStore,
    world: &mut World,
    az: &AzId,
    scale: Scale,
) -> CpuMix {
    let poll = PollConfig {
        requests: scale.pick(1_000, 300),
        ..Default::default()
    };
    let snapshot = store
        .probe(&mut world.engine, world.aws, az, scale.pick(4, 2), poll)
        .expect("probe deploys");
    snapshot.mix.clone()
}

fn run_cell(lambda_idx: usize, fault_idx: usize, scale: Scale, seed: u64) -> CellRow {
    let zone = World::az("us-west-1b");
    let days = scale.pick(18, 10);
    let burst = scale.pick(400, 100);
    let kind = WorkloadKind::Zipper;

    let scenario = ScenarioBuilder::new(seed)
        .zone_ids(std::slice::from_ref(&zone))
        .build();
    let mut world = scenario.world;
    let deployments = scenario.deployments;
    let table = profile_workload(
        &mut world.engine,
        deployments[&zone],
        kind,
        scale.pick(600, 200),
        seed,
    );
    world.engine.advance_by(SimDuration::from_mins(30));
    if FAULTS[fault_idx] == "chaos" {
        world.engine.set_fault_plan(&chaos_plan(&zone));
    }

    let mut chr = StreamingCharacterizer::new(StreamingConfig {
        // CUSUM accumulates per observation, so the swept thresholds are
        // multiplied by the evidence-volume ratio (full bursts are 4x
        // quick) to keep the lag axis in days rather than hours.
        cusum_lambda_x10k: LAMBDAS[lambda_idx] * scale.pick(4, 1),
        probe_budget: 16,
        // Same calibration as fig_drift_regret: slow gain rides out the
        // thin daily stream, and the wider allowance keeps warm-pool
        // sampling bias from masquerading as drift.
        gain_x256: 8,
        cusum_delta_x10k: 5_000,
        ..Default::default()
    });
    let mut probes = CharacterizationStore::new();
    let mix = probe_zone(&mut probes, &mut world, &zone, scale);
    let mut last_probe_at = world.engine.now();
    chr.record_probe(&zone, last_probe_at, &mix);
    world.engine.set_observation_hook(true);

    let router = SmartRouter::new(CharacterizationStore::new(), table, RouterConfig::default());
    let policy = RoutingPolicy::Baseline { az: zone.clone() };

    let mut fires: Vec<(u64, f64, f64)> = Vec::new();
    for day in 1..=days {
        world
            .engine
            .advance_to(SimTime::start_of_day(day) + SimDuration::from_hours(2));
        let _ = router.run_burst(&mut world.engine, kind, burst, &policy, |z| {
            deployments.get(z).copied()
        });
        for report in world.engine.take_observations(&zone) {
            chr.observe(&zone, &report);
        }
        if chr.wants_probe(&zone, world.engine.now()) {
            let now = world.engine.now();
            let staleness = now.saturating_since(last_probe_at).as_secs_f64() / 86_400.0;
            let truth = world
                .engine
                .platform(&zone)
                .expect("zone exists")
                .ground_truth_mix();
            let ape = chr
                .estimate(&zone)
                .expect("evidence exists")
                .ape_percent(&truth);
            fires.push((day, staleness, ape));
            let mix = probe_zone(&mut probes, &mut world, &zone, scale);
            last_probe_at = world.engine.now();
            chr.record_probe(&zone, last_probe_at, &mix);
        }
    }

    let mean = |f: fn(&(u64, f64, f64)) -> f64| {
        if fires.is_empty() {
            0.0
        } else {
            fires.iter().map(f).fold(0.0, |a, b| a + b) / fires.len() as f64
        }
    };
    CellRow {
        lambda_x10k: LAMBDAS[lambda_idx],
        faults: FAULTS[fault_idx],
        observations: chr.observations(&zone),
        fires: fires.len(),
        first_fire_day: fires.first().map(|&(d, _, _)| d),
        mean_staleness_days: mean(|&(_, s, _)| s),
        mean_ape_percent: mean(|&(_, _, a)| a),
    }
}

/// See the module docs.
pub struct AblationDriftLag;

impl Experiment for AblationDriftLag {
    fn name(&self) -> &'static str {
        "ablation_drift_lag"
    }

    fn description(&self) -> &'static str {
        "Ablation: CUSUM detection lag vs staleness, crossed with a chaos fault plan"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("days", scale.pick(18, 10).to_string()),
            ("burst", scale.pick(400, 100).to_string()),
            ("lambdas_x10k", "30000,60000,120000".to_string()),
            ("fault_regimes", "none,chaos".to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let (scale, seed) = (ctx.scale, ctx.seed);
        let cells: Vec<(usize, usize)> = (0..LAMBDAS.len())
            .flat_map(|l| (0..FAULTS.len()).map(move |f| (l, f)))
            .collect();
        let rows = sweep::run(cells, ctx.jobs, |_, &(l, f)| run_cell(l, f, scale, seed));

        let mut out = Table::new(
            "Ablation: detection lag vs staleness under the chaos fault plan",
            &[
                "lambda x10k",
                "faults",
                "observations",
                "fires",
                "first fire",
                "staleness at fire (d)",
                "APE at fire %",
            ],
        );
        for row in &rows {
            out.row(&[
                row.lambda_x10k.to_string(),
                row.faults.to_string(),
                row.observations.to_string(),
                row.fires.to_string(),
                row.first_fire_day
                    .map_or("-".to_string(), |d| format!("day {d}")),
                format!("{:.2}", row.mean_staleness_days),
                format!("{:.1}", row.mean_ape_percent),
            ]);
        }
        outln!(ctx, "{}", out.render());
        outln!(
            ctx,
            "A lower lambda fires earlier, bounding how stale the routing snapshot can"
        );
        outln!(
            ctx,
            "get before a re-probe lands; fault storms suppress completions (the chaos"
        );
        outln!(
            ctx,
            "rows see fewer observations) and churn the warm pool, shifting both the"
        );
        outln!(
            ctx,
            "detection lag and the estimate error carried at fire time."
        );
        ctx.finish()
    }
}
