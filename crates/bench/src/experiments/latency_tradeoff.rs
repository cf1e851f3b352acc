//! **§3.5 / §4.6 trade-off** — cost savings vs added network latency.
//!
//! "Routing requests to AZs located further away will introduce
//! additional network latency versus routing to nearby zones. However,
//! network latency to FIs is not included in the billable runtime."
//! This experiment quantifies both sides for a Seattle-based client
//! choosing among zones at increasing distances, and shows the RTT bound
//! (inherited from the carbon-aware router \[12\]) reshaping the choice.

use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::{outln, profile_workload, Scale, ScenarioBuilder, World};
use sky_core::cloud::GeoPoint;
use sky_core::sim::series::Table;
use sky_core::sim::SimDuration;
use sky_core::workloads::WorkloadKind;
use sky_core::{
    savings_fraction, CharacterizationStore, PollConfig, RouterConfig, RoutingPolicy, SmartRouter,
};

/// See the module docs.
pub struct LatencyTradeoff;

impl Experiment for LatencyTradeoff {
    fn name(&self) -> &'static str {
        "latency_tradeoff"
    }

    fn description(&self) -> &'static str {
        "§3.5/§4.6: billable-cost savings vs unbilled RTT, with RTT bounds"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("burst", scale.pick(600, 120).to_string()),
            ("profile_runs", scale.pick(1_200, 300).to_string()),
            ("rtt_bounds_ms", "none,250,120,40".to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let scale = ctx.scale;
        let burst = scale.pick(600, 120);
        let kind = WorkloadKind::MatrixMultiply;
        let client = GeoPoint::new(47.6, -122.3); // Seattle
        let home = World::az("us-west-1a");
        // Candidates at increasing distance from the client.
        let candidates = ScenarioBuilder::az_list(&[
            "us-west-1a",
            "us-east-2c",
            "sa-east-1a",
            "ap-northeast-1a",
        ]);

        let scenario = ScenarioBuilder::new(ctx.seed).zone_ids(&candidates).build();
        let mut world = scenario.world;
        let deployments = scenario.deployments;
        let table = profile_workload(
            &mut world.engine,
            deployments[&home],
            kind,
            scale.pick(1_200, 300),
        );
        world.engine.advance_by(SimDuration::from_mins(30));

        // Characterize all candidates.
        let mut store = CharacterizationStore::new();
        for az in &candidates {
            store
                .probe(&mut world.engine, world.aws, az, 5, PollConfig::default())
                .unwrap();
        }

        // Per-zone economics: billable cost vs (unbilled) RTT.
        let base_config = RouterConfig {
            client: Some(client),
            ..Default::default()
        };
        let probe = SmartRouter::new(store.clone(), table.clone(), base_config);
        let per = |r: &sky_core::BurstReport| r.total_cost_usd() / r.completed.max(1) as f64;
        // Placement clusters bursts onto few hosts, so single-burst costs are
        // noisy: average three bursts per measurement.
        let run_avg = |world: &mut World,
                       router: &SmartRouter,
                       policy: &RoutingPolicy,
                       deployments: &std::collections::BTreeMap<_, _>|
         -> (f64, sky_core::BurstReport) {
            let mut total = 0.0;
            let mut last = None;
            for _ in 0..3 {
                let report = router.run_burst(&mut world.engine, kind, burst, policy, |z| {
                    deployments.get(z).copied()
                });
                total += per(&report);
                world.engine.advance_by(SimDuration::from_mins(15));
                last = Some(report);
            }
            (total / 3.0, last.expect("three bursts ran"))
        };
        let (base_cost, _) = run_avg(
            &mut world,
            &probe,
            &RoutingPolicy::Baseline { az: home.clone() },
            &deployments,
        );

        let mut zones = Table::new(
            "Per-zone: billable cost vs unbilled round-trip latency (client: Seattle)",
            &["az", "rtt ms", "cost vs us-west-1a %"],
        );
        for az in &candidates {
            let (cost, report) = run_avg(
                &mut world,
                &probe,
                &RoutingPolicy::Baseline { az: az.clone() },
                &deployments,
            );
            zones.row(&[
                az.to_string(),
                format!(
                    "{:.0}",
                    report.rtt.map(|r| r.as_millis_f64()).unwrap_or(0.0)
                ),
                format!("{:+.1}", -100.0 * savings_fraction(base_cost, cost)),
            ]);
        }
        outln!(ctx, "{}", zones.render());

        // The bound in action.
        let mut bounds = Table::new(
            "Regional choice under an RTT bound",
            &["max rtt", "chosen az", "rtt ms", "savings %"],
        );
        for bound_ms in [u64::MAX, 250, 120, 40] {
            let config = RouterConfig {
                client: Some(client),
                max_rtt: (bound_ms != u64::MAX).then(|| SimDuration::from_millis(bound_ms)),
                ..Default::default()
            };
            let router = SmartRouter::new(store.clone(), table.clone(), config);
            let (cost, report) = run_avg(
                &mut world,
                &router,
                &RoutingPolicy::Regional {
                    candidates: candidates.clone(),
                },
                &deployments,
            );
            bounds.row(&[
                if bound_ms == u64::MAX {
                    "none".into()
                } else {
                    format!("{bound_ms}ms")
                },
                report.az.to_string(),
                format!(
                    "{:.0}",
                    report.rtt.map(|r| r.as_millis_f64()).unwrap_or(0.0)
                ),
                format!("{:+.1}", 100.0 * savings_fraction(base_cost, cost)),
            ]);
        }
        outln!(ctx, "{}", bounds.render());
        outln!(
            ctx,
            "Latency is never billed: distant zones can cut cost while adding RTT —"
        );
        outln!(
            ctx,
            "acceptable for batch workloads, bounded for latency-sensitive ones."
        );
        ctx.finish()
    }
}
