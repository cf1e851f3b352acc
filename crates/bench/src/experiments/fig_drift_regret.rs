//! **fig_drift_regret** — sample-budget vs. routing-regret curves for
//! the three characterization strategies under churn (DESIGN.md §14).
//!
//! Each cell simulates one (churn class, strategy, probe budget) triple
//! for a run of daily bursts over three candidate zones:
//!
//! * **static** — the paper's comparator: a [`StaticCharacterizer`]
//!   re-samples every zone on the 22 h cadence until the probe budget
//!   (which includes the initial three-zone seeding sweep) runs out,
//!   then routes on the aging snapshots forever;
//! * **streaming** — a [`StreamingCharacterizer`] folds the SAAF report
//!   of every completed invocation (fed back through the faas engine's
//!   observation hook) into decayed per-zone mix estimates, and spends
//!   probes only when its CUSUM detector fires. Routing still runs on
//!   campaign-grade probe snapshots — the decayed estimate samples the
//!   warm pool (biased, thin) and is only trusted to *time* re-sampling;
//! * **ucb-az / thompson-az** — the bandit routing policies skip
//!   characterization entirely and learn from realized burst cost.
//!
//! Every strategy's world carries the same daily multi-zone trickle of
//! production traffic (a few requests per candidate) on top of the main
//! burst, so passive observation has the same raw material everywhere —
//! the static path simply ignores it. The score is **total excess
//! cost**: each day the chosen zone's expected per-request cost under
//! the platform's **actual** CPU mix is compared with the best
//! candidate's (burst regret), plus every dollar spent on sampling
//! campaigns — the oracle neither mis-routes nor probes, and the paper's
//! own EX-5 accounting amortizes sampling spend the same way. Each cell
//! is an independent seeded world (jobs-invariant by construction); the
//! verdict line at the bottom is asserted by the integration tests.

use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::sweep;
use crate::{outln, profile_workload, Scale, ScenarioBuilder, World};
use sky_core::cloud::{Arch, AzId, CpuMix, PriceBook, Provider};
use sky_core::faas::FaasEngine;
use sky_core::sim::series::Table;
use sky_core::sim::{SimDuration, SimTime};
use sky_core::workloads::WorkloadKind;
use sky_core::{
    CharacterizationStore, Characterizer, PollConfig, RouterConfig, RoutingPolicy, RuntimeTable,
    SmartRouter, StaticCharacterizer, StreamingCharacterizer, StreamingConfig,
};

/// Candidate zone sets by churn class (see the catalog's calibrated
/// profiles: moderate day-to-day drift vs. 20–50 % day-2 swings).
const CLASSES: [(&str, [&str; 3]); 2] = [
    (
        "drifting",
        ["us-east-2b", "ap-northeast-1a", "eu-central-1a"],
    ),
    ("volatile", ["us-west-1a", "us-west-1b", "ca-central-1a"]),
];

/// Probe budgets swept for the probe-driven strategies. Three probes of
/// each budget are consumed by the t0 seeding sweep (one per zone), the
/// remainder funds refreshes.
const BUDGETS: [u32; 3] = [6, 9, 15];

/// Strategy axis: three static budgets, three streaming budgets, then
/// the two (probe-free) bandits.
const STRATEGIES: usize = BUDGETS.len() * 2 + 2;

struct CellRow {
    class: &'static str,
    policy: &'static str,
    budget: Option<u32>,
    probes: u32,
    probe_nanousd: u64,
    regret_nanousd: u64,
}

impl CellRow {
    /// Burst regret plus sampling spend — the full bill an omniscient
    /// router would not have paid.
    fn total_nanousd(&self) -> u64 {
        self.probe_nanousd + self.regret_nanousd
    }
}

/// One targeted probe of `az`, filed into `store`. Returns the probed
/// mix and the probe's cost in nano-USD.
fn probe_zone(
    store: &mut CharacterizationStore,
    world: &mut World,
    az: &AzId,
    scale: Scale,
) -> (CpuMix, u64) {
    let poll = PollConfig {
        requests: scale.pick(1_000, 600),
        ..Default::default()
    };
    let snapshot = store
        .probe(&mut world.engine, world.aws, az, scale.pick(4, 3), poll)
        .expect("probe deploys");
    (snapshot.mix.clone(), PriceBook::nano_usd(snapshot.cost_usd))
}

/// Expected per-request cost of `kind` in `az` under the platform's
/// ground-truth CPU mix, in nano-USD.
fn truth_cost_nanousd(
    engine: &FaasEngine,
    table: &RuntimeTable,
    kind: WorkloadKind,
    az: &AzId,
) -> u64 {
    let mix = engine
        .platform(az)
        .expect("candidate exists")
        .ground_truth_mix();
    let ms = table
        .expected_ms_under_mix(kind, &mix)
        .expect("kind profiled");
    let billed = SimDuration::from_micros((ms * 1_000.0).round() as u64);
    PriceBook::nano_usd(PriceBook::invocation_cost(
        Provider::Aws,
        Arch::X86_64,
        2048,
        billed,
    ))
}

fn run_cell(class_idx: usize, strat: usize, scale: Scale, seed: u64) -> CellRow {
    let (class, zone_names) = CLASSES[class_idx];
    let days = scale.pick(28, 24);
    let burst = scale.pick(400, 150);
    let trickle = scale.pick(24, 16);
    let kind = WorkloadKind::Zipper;
    let candidates = ScenarioBuilder::az_list(&zone_names);

    let scenario = ScenarioBuilder::new(seed).zone_ids(&candidates).build();
    let mut world = scenario.world;
    let deployments = scenario.deployments;
    let table = profile_workload(
        &mut world.engine,
        deployments[&candidates[0]],
        kind,
        scale.pick(900, 250),
        seed,
    );
    world.engine.advance_by(SimDuration::from_mins(30));

    let mut chr: Option<Box<dyn Characterizer>> = match strat {
        0..=2 => Some(Box::new(StaticCharacterizer::new(BUDGETS[strat]))),
        3..=5 => Some(Box::new(StreamingCharacterizer::new(StreamingConfig {
            probe_budget: BUDGETS[strat - 3],
            // Slower gain than the library default: the daily trickle is
            // thin, so a longer time constant trades lag for less
            // estimate noise on near-tied zones. The wider CUSUM
            // allowance absorbs the warm-pool sampling bias (production
            // traffic lands on sticky warm instances, not a fresh host
            // draw) so only genuine mix movement accumulates.
            gain_x256: 8,
            cusum_delta_x10k: scale.pick(6_000, 4_500),
            // CUSUM accumulates per observation, so the firing threshold
            // scales with the evidence volume (full runs see ~3x the
            // daily completions of quick runs).
            cusum_lambda_x10k: scale.pick(180_000, 60_000),
            ..Default::default()
        }))),
        _ => None,
    };
    let mut store = CharacterizationStore::new();
    store.max_age = SimDuration::from_days(365); // route on what we have
    let mut probe_nanousd: u64 = 0;
    // t0 seeding sweep: every probe-driven strategy starts with one
    // campaign per zone, drawn from the same budget.
    if let Some(chr) = chr.as_deref_mut() {
        for az in &candidates {
            let (mix, cost) = probe_zone(&mut store, &mut world, az, scale);
            probe_nanousd += cost;
            chr.record_probe(az, world.engine.now(), &mix);
        }
    }
    let streaming = chr.as_deref().map(Characterizer::label) == Some("streaming");
    if streaming {
        world.engine.set_observation_hook(true);
    }
    let mut router = SmartRouter::new(store, table.clone(), RouterConfig::default());

    let policy = match strat {
        6 => RoutingPolicy::UcbAz {
            candidates: candidates.clone(),
        },
        7 => RoutingPolicy::ThompsonAz {
            candidates: candidates.clone(),
        },
        _ => RoutingPolicy::Regional {
            candidates: candidates.clone(),
        },
    };

    let mut regret_nanousd: u64 = 0;
    for day in 1..=days {
        world
            .engine
            .advance_to(SimTime::start_of_day(day) + SimDuration::from_hours(2));
        // Budgeted refreshes: the static cadence or the streaming
        // detector decides, the budget caps both identically.
        if let Some(chr) = chr.as_deref_mut() {
            for az in &candidates {
                if chr.wants_probe(az, world.engine.now()) {
                    let (mix, cost) = probe_zone(router.store_mut(), &mut world, az, scale);
                    probe_nanousd += cost;
                    chr.record_probe(az, world.engine.now(), &mix);
                }
            }
        }
        // The shared multi-zone production trickle (identical in every
        // strategy's world; only streaming learns from it).
        for az in &candidates {
            let _ = router.run_burst(
                &mut world.engine,
                kind,
                trickle,
                &RoutingPolicy::Baseline { az: az.clone() },
                |z| deployments.get(z).copied(),
            );
        }
        if let Some(chr) = chr.as_deref_mut() {
            // Passive evidence drives the detector only — routing keeps
            // using campaign-grade snapshots (the warm-pool sample is too
            // biased to route on, but plenty to notice drift).
            for az in &candidates {
                for report in world.engine.take_observations(az) {
                    chr.observe(az, &report);
                }
            }
        }
        // The day's main burst, routed by the strategy under test.
        let report = router.run_burst(&mut world.engine, kind, burst, &policy, |z| {
            deployments.get(z).copied()
        });
        if streaming {
            for az in &candidates {
                for obs in world.engine.take_observations(az) {
                    chr.as_deref_mut().expect("streaming").observe(az, &obs);
                }
            }
        }
        // Score against ground truth: what did routing to `report.az`
        // cost versus the best candidate under the actual mixes?
        let costs: Vec<u64> = candidates
            .iter()
            .map(|az| truth_cost_nanousd(&world.engine, &table, kind, az))
            .collect();
        let chosen = costs[candidates
            .iter()
            .position(|az| *az == report.az)
            .expect("chosen zone is a candidate")];
        let best = *costs.iter().min().expect("candidates non-empty");
        regret_nanousd += (chosen - best) * burst as u64;
    }

    let (policy_label, budget) = match strat {
        0..=2 => ("static", Some(BUDGETS[strat])),
        3..=5 => ("streaming", Some(BUDGETS[strat - 3])),
        6 => ("ucb-az", None),
        _ => ("thompson-az", None),
    };
    CellRow {
        class,
        policy: policy_label,
        budget,
        probes: chr.as_deref().map(Characterizer::probes_used).unwrap_or(0),
        probe_nanousd,
        regret_nanousd,
    }
}

/// See the module docs.
pub struct FigDriftRegret;

impl Experiment for FigDriftRegret {
    fn name(&self) -> &'static str {
        "fig_drift_regret"
    }

    fn description(&self) -> &'static str {
        "Drift regret: static vs streaming vs bandit routing per probe budget"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("days", scale.pick(28, 24).to_string()),
            ("burst", scale.pick(400, 150).to_string()),
            ("trickle_per_zone", scale.pick(24, 16).to_string()),
            ("budgets", "6,9,15".to_string()),
            ("classes", "drifting,volatile".to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let (scale, seed) = (ctx.scale, ctx.seed);
        let cells: Vec<(usize, usize)> = (0..CLASSES.len())
            .flat_map(|c| (0..STRATEGIES).map(move |s| (c, s)))
            .collect();
        let rows = sweep::run(cells, ctx.jobs, |_, &(c, s)| run_cell(c, s, scale, seed));

        let mut out = Table::new(
            "Sample budget vs. total excess cost under churn (vs ground-truth best zone)",
            &[
                "class",
                "policy",
                "budget",
                "probes used",
                "probe $",
                "burst regret $",
                "total excess $",
            ],
        );
        for row in &rows {
            out.row(&[
                row.class.to_string(),
                row.policy.to_string(),
                row.budget.map_or("-".to_string(), |b| b.to_string()),
                row.probes.to_string(),
                format!("{:.4}", row.probe_nanousd as f64 / 1e9),
                format!("{:.4}", row.regret_nanousd as f64 / 1e9),
                format!("{:.4}", row.total_nanousd() as f64 / 1e9),
            ]);
        }
        outln!(ctx, "{}", out.render());

        // Verdict: summed across the budget sweep, streaming pays less
        // total excess (probes + mis-routing) than static in each class,
        // and each probe-free bandit beats even static's best budget.
        let total = |class: &str, policy: &str, budget: Option<u32>| {
            rows.iter()
                .find(|r| r.class == class && r.policy == policy && r.budget == budget)
                .expect("cell exists")
                .total_nanousd()
        };
        let mut ok = true;
        for (class, _) in &CLASSES {
            let sum = |policy: &str| -> u64 {
                BUDGETS
                    .iter()
                    .map(|&b| total(class, policy, Some(b)))
                    .sum::<u64>()
            };
            let best_static = BUDGETS
                .iter()
                .map(|&b| total(class, "static", Some(b)))
                .min()
                .expect("static cells");
            ok &= sum("streaming") < sum("static");
            ok &= total(class, "ucb-az", None) < best_static;
            ok &= total(class, "thompson-az", None) < best_static;
        }
        outln!(
            ctx,
            "verdict: streaming < static per class (summed over budgets) and bandits < static's best: {}",
            if ok { "PASS" } else { "FAIL" }
        );
        outln!(
            ctx,
            "The static sampler burns its budget on a blind 22h cadence; the streaming"
        );
        outln!(
            ctx,
            "estimator spends the same probes only when its detector sees the mix move,"
        );
        outln!(ctx, "and the bandits never pay for a probe at all.");
        ctx.finish()
    }
}
