//! **Ablation (§4.4 / DESIGN.md)** — how fast does a characterization's
//! routing value decay?
//!
//! Characterizes three candidate zones once, then routes a burst through
//! the regional policy after increasing delays **without refreshing**
//! the store (staleness bound lifted so the router keeps using the old
//! snapshot). In volatile zones, day-old knowledge picks worse zones;
//! this quantifies the re-sampling cadence the store recommends.
//!
//! Each age is an independent sweep cell. Staleness only bites because
//! the fleet keeps serving (and churning) between bursts, so a cell
//! **replays** the burst history of every earlier age in its own seeded
//! world before measuring its own — the timeline is identical to the
//! serial experiment, and the five cells run in parallel under
//! `--jobs N`, merging in age order.

use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::sweep;
use crate::{outln, profile_workload, Scale, ScenarioBuilder, World};
use sky_core::sim::series::Table;
use sky_core::sim::SimDuration;
use sky_core::workloads::WorkloadKind;
use sky_core::{
    savings_fraction, CharacterizationStore, PollConfig, RouterConfig, RoutingPolicy, SmartRouter,
};

const AGES_DAYS: [u64; 5] = [0, 1, 3, 7, 14];

/// Replay the serial experiment through `AGES_DAYS[..=idx]` in a fresh
/// world and report the row for `AGES_DAYS[idx]`.
fn route_at_age(idx: usize, scale: Scale, seed: u64) -> [String; 3] {
    let burst = scale.pick(1_000, 150);
    let kind = WorkloadKind::LogisticRegression;
    let candidates = ScenarioBuilder::az_list(&["us-west-1a", "us-west-1b", "ca-central-1a"]);
    let baseline_az = World::az("us-west-1b");

    let scenario = ScenarioBuilder::new(seed).zone_ids(&candidates).build();
    let mut world = scenario.world;
    let deployments = scenario.deployments;
    let table = profile_workload(
        &mut world.engine,
        deployments[&baseline_az],
        kind,
        scale.pick(1_200, 300),
    );
    world.engine.advance_by(SimDuration::from_mins(30));

    // Characterize all three zones once, at t0.
    let mut store = CharacterizationStore::new();
    store.max_age = SimDuration::from_days(365); // ablation: never stale
    for az in &candidates {
        store
            .probe(&mut world.engine, world.aws, az, 6, PollConfig::default())
            .expect("deploys");
    }
    let router = SmartRouter::new(store, table, RouterConfig::default());

    let mut row = None;
    for (i, &age_days) in AGES_DAYS.iter().take(idx + 1).enumerate() {
        world.engine.advance_to(
            sky_core::sim::SimTime::start_of_day(1 + age_days) + SimDuration::from_hours(3),
        );
        let base = router.run_burst(
            &mut world.engine,
            kind,
            burst,
            &RoutingPolicy::Baseline {
                az: baseline_az.clone(),
            },
            |az| deployments.get(az).copied(),
        );
        world.engine.advance_by(SimDuration::from_mins(15));
        let regional = router.run_burst(
            &mut world.engine,
            kind,
            burst,
            &RoutingPolicy::Regional {
                candidates: candidates.clone(),
            },
            |az| deployments.get(az).copied(),
        );
        if i == idx {
            let per = |r: &sky_core::BurstReport| r.total_cost_usd() / r.completed.max(1) as f64;
            row = Some([
                format!("{age_days}d"),
                regional.az.to_string(),
                format!(
                    "{:.1}",
                    savings_fraction(per(&base), per(&regional)) * 100.0
                ),
            ]);
        }
    }
    row.expect("own age measured")
}

/// See the module docs.
pub struct AblationStaleness;

impl Experiment for AblationStaleness {
    fn name(&self) -> &'static str {
        "ablation_staleness"
    }

    fn description(&self) -> &'static str {
        "Ablation §4.4: routing value decay of an aging characterization"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("burst", scale.pick(1_000, 150).to_string()),
            ("profile_runs", scale.pick(1_200, 300).to_string()),
            ("ages_days", "0,1,3,7,14".to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let (scale, seed) = (ctx.scale, ctx.seed);

        let cells: Vec<usize> = (0..AGES_DAYS.len()).collect();
        let rows = sweep::run(cells, ctx.jobs, |_, &idx| route_at_age(idx, scale, seed));

        let mut out = Table::new(
            "Ablation: regional-routing value of an aging characterization",
            &["age", "chosen az", "savings vs fixed us-west-1b %"],
        );
        for row in &rows {
            out.row(row);
        }
        outln!(ctx, "{}", out.render());
        outln!(
            ctx,
            "All three candidates are volatile zones: the snapshot's routing value"
        );
        outln!(
            ctx,
            "should erode as it ages, motivating the store's 22h re-sampling cadence"
        );
        outln!(ctx, "for volatile zones (vs 7d for stable ones).");
        ctx.finish()
    }
}
