//! **Lineage: carbon-aware routing (§3.4, \[12\])** — the predecessor
//! objective this paper's performance-aware router extends.
//!
//! Compares three routing objectives over the same candidate set:
//! cheapest (regional, this paper), greenest (carbon-aware, the
//! predecessor), and a fixed single-zone baseline — reporting cost,
//! estimated emissions and RTT for each, plus the effect of the latency
//! bound both systems share.

use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::{outln, profile_workload, Scale, ScenarioBuilder, World};
use sky_core::cloud::{CarbonModel, GeoPoint};
use sky_core::sim::series::Table;
use sky_core::sim::SimDuration;
use sky_core::workloads::WorkloadKind;
use sky_core::{
    savings_fraction, CharacterizationStore, PollConfig, RouterConfig, RoutingPolicy, SmartRouter,
};

/// See the module docs.
pub struct CarbonAware;

impl Experiment for CarbonAware {
    fn name(&self) -> &'static str {
        "carbon_aware"
    }

    fn description(&self) -> &'static str {
        "Lineage §3.4: cheapest vs greenest vs fixed routing objectives"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("burst", scale.pick(500, 120).to_string()),
            ("profile_runs", scale.pick(900, 200).to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let scale = ctx.scale;
        let burst = scale.pick(500, 120);
        let kind = WorkloadKind::PageRank;
        let client = GeoPoint::new(51.5, -0.1); // London
        let home = World::az("eu-west-2a");
        let candidates = ScenarioBuilder::az_list(&[
            "eu-west-2a",    // near, mixed grid
            "eu-north-1a",   // hydro grid
            "eu-central-1a", // bigger pool, dirtier grid
            "sa-east-1a",    // clean grid, far away
        ]);

        let scenario = ScenarioBuilder::new(ctx.seed).zone_ids(&candidates).build();
        let mut world = scenario.world;
        let deployments = scenario.deployments;
        let table = profile_workload(
            &mut world.engine,
            deployments[&home],
            kind,
            scale.pick(900, 200),
            ctx.seed,
        );
        world.engine.advance_by(SimDuration::from_mins(30));
        let mut store = CharacterizationStore::new();
        for az in &candidates {
            store
                .probe(&mut world.engine, world.aws, az, 4, PollConfig::default())
                .unwrap();
        }

        let mut grid = Table::new(
            "Candidate grids at the burst hour",
            &["az", "gCO2e/kWh", "rtt ms from London"],
        );
        let probe_config = RouterConfig {
            client: Some(client),
            ..Default::default()
        };
        let probe = SmartRouter::new(store.clone(), table.clone(), probe_config);
        for az in &candidates {
            grid.row(&[
                az.to_string(),
                format!(
                    "{:.0}",
                    CarbonModel::intensity(az.region(), world.engine.now())
                ),
                format!(
                    "{:.0}",
                    probe
                        .rtt_to(az, world.engine.catalog())
                        .map(|r| r.as_millis_f64())
                        .unwrap_or(0.0)
                ),
            ]);
        }
        outln!(ctx, "{}", grid.render());

        let mut out = Table::new(
            "Objectives compared (same workload, same candidates)",
            &[
                "objective",
                "chosen az",
                "$ / 1k",
                "gCO2e / 1k",
                "rtt ms",
                "cost vs fixed %",
            ],
        );
        let per = |r: &sky_core::BurstReport| r.total_cost_usd() / r.completed.max(1) as f64;
        let gper = |r: &sky_core::BurstReport| 1_000.0 * r.est_gco2e / r.completed.max(1) as f64;
        let policies: Vec<(&str, RoutingPolicy, Option<SimDuration>)> = vec![
            (
                "fixed (eu-west-2a)",
                RoutingPolicy::Baseline { az: home.clone() },
                None,
            ),
            (
                "cheapest (this paper)",
                RoutingPolicy::Regional {
                    candidates: candidates.clone(),
                },
                None,
            ),
            (
                "greenest ([12])",
                RoutingPolicy::CarbonAware {
                    candidates: candidates.clone(),
                },
                None,
            ),
            (
                "greenest, rtt<=60ms",
                RoutingPolicy::CarbonAware {
                    candidates: candidates.clone(),
                },
                Some(SimDuration::from_millis(60)),
            ),
        ];
        let mut base_cost = None;
        for (label, policy, max_rtt) in policies {
            let config = RouterConfig {
                client: Some(client),
                max_rtt,
                ..Default::default()
            };
            let router = SmartRouter::new(store.clone(), table.clone(), config);
            let report = router.run_burst(&mut world.engine, kind, burst, &policy, |az| {
                deployments.get(az).copied()
            });
            world.engine.advance_by(SimDuration::from_mins(15));
            let cost = per(&report);
            let base = *base_cost.get_or_insert(cost);
            out.row(&[
                label.to_string(),
                report.az.to_string(),
                format!("{:.4}", 1_000.0 * cost),
                format!("{:.2}", gper(&report)),
                format!(
                    "{:.0}",
                    report.rtt.map(|r| r.as_millis_f64()).unwrap_or(0.0)
                ),
                format!("{:+.1}", -100.0 * savings_fraction(base, cost)),
            ]);
        }
        outln!(ctx, "{}", out.render());
        outln!(
            ctx,
            "The two objectives usually disagree: the cheapest zone is rarely the"
        );
        outln!(
            ctx,
            "greenest. Both inherit the same RTT bound; this paper swaps the carbon"
        );
        outln!(
            ctx,
            "signal for CPU characterizations while keeping the routing machinery."
        );
        ctx.finish()
    }
}
