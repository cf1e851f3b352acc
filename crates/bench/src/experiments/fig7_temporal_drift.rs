//! **Figure 7 / EX-4** — characterization accuracy degradation over two
//! weeks.
//!
//! Using each zone's day-one characterization as the baseline, reports
//! the APE of every subsequent day's characterization. The paper finds
//! ca-central-1a and us-west-1a/b drifting 20–50 % within a day or two
//! while sa-east-1a and eu-north-1a stay within ~10 % for two weeks; the
//! derived stable/volatile classification drives the adaptive sampling
//! cadence of §4.4.

use crate::outln;
use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::{ex4_zones, Scale};
use sky_core::cloud::{Catalog, Provider};
use sky_core::faas::{FaasEngine, FleetConfig};
use sky_core::sim::series::Table;
use sky_core::sim::SimDuration;
use sky_core::{
    run_temporal_campaign, CampaignConfig, PollConfig, SchedulerConfig, TemporalConfig,
};

/// See the module docs.
pub struct Fig7TemporalDrift;

impl Experiment for Fig7TemporalDrift {
    fn name(&self) -> &'static str {
        "fig7_temporal_drift"
    }

    fn description(&self) -> &'static str {
        "Fig 7 / EX-4: drift vs day-1 characterization, stability classes"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("days", scale.pick(14, 4).to_string()),
            ("requests_per_poll", scale.pick(1_000, 300).to_string()),
            ("max_polls", scale.pick(60, 10).to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let scale = ctx.scale;
        let mut engine =
            FaasEngine::new(Catalog::paper_world(ctx.seed), FleetConfig::new(ctx.seed));
        let account = engine.create_account(Provider::Aws);
        let days = scale.pick(14, 4);
        let config = TemporalConfig {
            observations: days,
            cadence: SimDuration::from_hours(22),
            campaign: CampaignConfig {
                poll: PollConfig {
                    requests: scale.pick(1_000, 300),
                    ..Default::default()
                },
                max_polls: scale.pick(60, 10),
                ..Default::default()
            },
            accuracy_targets_pct: vec![5.0],
        };
        let zones = ex4_zones();
        let result =
            run_temporal_campaign(&mut engine, account, &zones, &config).expect("campaign runs");

        let mut header = vec!["day".to_string()];
        header.extend(zones.iter().map(|z| z.to_string()));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(
            "Figure 7: APE vs day-1 characterization (percent)",
            &header_refs,
        );
        let drifts: Vec<Vec<(f64, f64)>> = zones.iter().map(|z| result.drift_series(z)).collect();
        for day in 0..days as usize {
            let mut row = vec![day.to_string()];
            for drift in &drifts {
                row.push(
                    drift
                        .get(day)
                        .map(|&(_, ape)| format!("{ape:.1}"))
                        .unwrap_or_else(|| "-".into()),
                );
            }
            table.row(&row);
        }
        outln!(ctx, "{}", table.render());

        let mut classes = Table::new(
            "Derived stability classification (drives adaptive sampling cadence)",
            &[
                "az",
                "max step APE %",
                "max drift vs day 1 %",
                "class",
                "re-sample every",
            ],
        );
        let cadence = SchedulerConfig::default();
        for z in &zones {
            let step = result.store.max_step_ape(z).unwrap_or(0.0);
            let cumulative = result
                .store
                .drift_from_first(z)
                .iter()
                .map(|&(_, a)| a)
                .fold(0.0, f64::max);
            classes.row(&[
                z.to_string(),
                format!("{step:.1}"),
                format!("{cumulative:.1}"),
                format!("{:?}", result.store.classify(z)),
                format!("{}", cadence.interval_for(&result.store, z)),
            ]);
        }
        outln!(ctx, "{}", classes.render());
        outln!(
            ctx,
            "Paper: volatile zones (ca-central-1a, us-west-1a/b) reach 20-50% by day 2;"
        );
        outln!(
            ctx,
            "stable zones (sa-east-1a, eu-north-1a) stay at/below ~10% for two weeks."
        );
        ctx.finish()
    }
}
