//! **Extension: availability under zone outages** — the second dividend
//! of sky-computing aggregation (the paper's §2.2 motivation: "higher
//! availability"; cf. the Baarzi et al. SLO results it cites).
//!
//! Injects a multi-hour outage into the preferred zone mid-campaign and
//! compares a single-zone deployment against the hybrid router whose
//! daily probes double as health checks.

use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::{outln, profile_workload, Scale, ScenarioBuilder, World};
use sky_core::cloud::{FaultKind, FaultPlan};
use sky_core::sim::series::Table;
use sky_core::sim::SimDuration;
use sky_core::workloads::WorkloadKind;
use sky_core::{
    CharacterizationStore, PollConfig, RetryMode, RouterConfig, RoutingPolicy, SmartRouter,
};

/// See the module docs.
pub struct Availability;

impl Experiment for Availability {
    fn name(&self) -> &'static str {
        "availability"
    }

    fn description(&self) -> &'static str {
        "Extension: zone-outage availability, single-zone vs sky routing"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("burst", scale.pick(500, 120).to_string()),
            ("days", scale.pick(6, 3).to_string()),
            ("outage_day", "2".to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let scale = ctx.scale;
        let burst = scale.pick(500, 120);
        let days = scale.pick(6, 3);
        let outage_day = 2u32;
        let kind = WorkloadKind::PageRank;
        let single_zone = World::az("sa-east-1a");
        let candidates = ScenarioBuilder::az_list(&["sa-east-1a", "us-west-1a", "us-east-2c"]);

        let scenario = ScenarioBuilder::new(ctx.seed).zone_ids(&candidates).build();
        let mut world = scenario.world;
        let deployments = scenario.deployments;
        let table = profile_workload(
            &mut world.engine,
            deployments[&single_zone],
            kind,
            scale.pick(900, 200),
        );
        world.engine.advance_by(SimDuration::from_mins(30));

        let mut out = Table::new(
            format!("Availability: outage injected in {single_zone} on day {outage_day}"),
            &[
                "day",
                "single-zone ok %",
                "sky ok %",
                "sky chose",
                "probe failure %",
            ],
        );
        let start = world.engine.now();
        let mut single_total = (0usize, 0usize); // (completed, issued)
        let mut sky_total = (0usize, 0usize);
        for day in 0..days {
            world.engine.advance_to(
                start + SimDuration::from_days(day as u64) + SimDuration::from_hours(1),
            );
            if day == outage_day {
                let outage = FaultPlan::new()
                    .with_event(
                        single_zone.clone(),
                        world.engine.now(),
                        SimDuration::from_hours(20),
                        FaultKind::Outage,
                    )
                    .expect("a 20-hour outage is a valid fault");
                world.engine.set_fault_plan(&outage);
            }
            // Daily probes (health + characterization).
            let mut store = CharacterizationStore::new();
            for az in &candidates {
                store
                    .probe(&mut world.engine, world.aws, az, 3, PollConfig::default())
                    .unwrap();
            }
            let probe_failure = store
                .latest(&single_zone)
                .expect("single zone probed")
                .failure_rate;
            let router = SmartRouter::new(store, table.clone(), RouterConfig::default());
            let single = router.run_burst(
                &mut world.engine,
                kind,
                burst,
                &RoutingPolicy::Baseline {
                    az: single_zone.clone(),
                },
                |az| deployments.get(az).copied(),
            );
            world.engine.advance_by(SimDuration::from_mins(15));
            let sky = router.run_burst(
                &mut world.engine,
                kind,
                burst,
                &RoutingPolicy::Hybrid {
                    candidates: candidates.clone(),
                    mode: RetryMode::RetrySlow,
                },
                |az| deployments.get(az).copied(),
            );
            single_total.0 += single.completed;
            single_total.1 += single.n;
            sky_total.0 += sky.completed;
            sky_total.1 += sky.n;
            out.row(&[
                day.to_string(),
                format!("{:.1}", 100.0 * single.completed as f64 / single.n as f64),
                format!("{:.1}", 100.0 * sky.completed as f64 / sky.n as f64),
                sky.az.to_string(),
                format!("{:.0}", probe_failure * 100.0),
            ]);
        }
        outln!(ctx, "{}", out.render());
        outln!(
            ctx,
            "campaign success rate: single-zone {:.1}% vs sky {:.1}%",
            100.0 * single_total.0 as f64 / single_total.1 as f64,
            100.0 * sky_total.0 as f64 / sky_total.1 as f64,
        );
        outln!(
            ctx,
            "The same probes that price the hardware also detect the outage; the"
        );
        outln!(
            ctx,
            "router's healthy-zone filter turns multi-zone aggregation into availability."
        );
        ctx.finish()
    }
}
