//! **Figure 10 / EX-5** — the zipper function under the two retry
//! strategies across a two-week, daily-drifting CPU distribution.
//!
//! Each day: refresh us-west-1b's characterization with a few polls, then
//! run 1,000-invocation bursts under (a) the fixed baseline, (b)
//! `retry slow` (ban the two slowest CPUs) and (c) `focus fastest` (ban
//! all but the best). The paper reports 10.1 % cumulative savings for
//! retry-slow and 16.5 % (18.5 % best day, >50 % of invocations retried)
//! for focus-fastest.

use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::{
    cumulative_savings, mode_label, outln, profile_workload, run_daily_routing, DailyRoutingConfig,
    Scale, World,
};
use sky_core::cloud::Arch;
use sky_core::sim::series::Table;
use sky_core::sim::SimDuration;
use sky_core::workloads::WorkloadKind;
use sky_core::{RetryMode, RoutingPolicy};

/// See the module docs.
pub struct Fig10RetryMethods;

impl Experiment for Fig10RetryMethods {
    fn name(&self) -> &'static str {
        "fig10_retry_methods"
    }

    fn description(&self) -> &'static str {
        "Fig 10 / EX-5: zipper under retry-slow and focus-fastest strategies"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("days", scale.pick(14, 3).to_string()),
            ("burst", scale.pick(1_000, 150).to_string()),
            ("profile_runs", scale.pick(1_200, 400).to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let scale = ctx.scale;
        let days = scale.pick(14, 3);
        let burst = scale.pick(1_000, 150);
        let az = World::az("us-west-1b");
        let kind = WorkloadKind::Zipper;

        let mut results = Vec::new();
        for mode in [RetryMode::RetrySlow, RetryMode::FocusFastest] {
            let mut world = ctx.world();
            // Profile once up front (EX-5's 10,000-run profiling step,
            // abbreviated) to learn the CPU ranking.
            let dep = world
                .engine
                .deploy(world.aws, &az, 2048, Arch::X86_64)
                .expect("deploys");
            let table = profile_workload(
                &mut world.engine,
                dep,
                kind,
                scale.pick(1_200, 400),
                ctx.seed,
            );
            world.engine.advance_by(SimDuration::from_mins(30));
            let config = DailyRoutingConfig {
                kind,
                days,
                burst,
                baseline_az: az.clone(),
                policy: RoutingPolicy::Retry {
                    az: az.clone(),
                    mode,
                },
                sampled_azs: vec![az.clone()],
                polls_per_day: 4,
            };
            let outcomes = run_daily_routing(&mut world, &table, &config);
            results.push((mode, outcomes));
        }

        for (mode, outcomes) in &results {
            let label = mode_label(mode);
            let mut table = Table::new(
                format!("Figure 10: zipper daily cost, {label} vs baseline (us-west-1b)"),
                &[
                    "day",
                    "base $/1k",
                    "opt $/1k",
                    "savings %",
                    "retried %",
                    "attempts/req",
                ],
            );
            for o in outcomes {
                let per_k = |r: &sky_core::BurstReport| {
                    1_000.0 * r.total_cost_usd() / r.completed.max(1) as f64
                };
                table.row(&[
                    o.day.to_string(),
                    format!("{:.4}", per_k(&o.baseline)),
                    format!("{:.4}", per_k(&o.optimized)),
                    format!("{:.1}", o.savings() * 100.0),
                    format!("{:.0}", o.optimized.retried_fraction() * 100.0),
                    format!("{:.2}", o.optimized.attempts as f64 / o.optimized.n as f64),
                ]);
            }
            outln!(ctx, "{}", table.render());
            let best_day = outcomes
                .iter()
                .map(|o| o.savings())
                .fold(f64::NEG_INFINITY, f64::max);
            outln!(
                ctx,
                "{label}: cumulative savings {:.1}% (paper: {}), best single day {:.1}%\n",
                cumulative_savings(outcomes) * 100.0,
                match mode {
                    RetryMode::RetrySlow => "10.1%",
                    RetryMode::FocusFastest => "16.5%, best day 18.5%",
                    RetryMode::Custom(_) => "n/a",
                },
                best_day * 100.0
            );
        }
        ctx.finish()
    }
}
