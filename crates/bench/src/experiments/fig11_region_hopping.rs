//! **Figure 11 / EX-5** — logistic regression under the hybrid
//! region-hopping + retry strategy vs a fixed us-west-1b baseline.
//!
//! The optimized strategy re-characterizes us-west-1a, us-west-1b and
//! sa-east-1a daily, hops to whichever zone promises the fastest expected
//! runtime, and CPU-gates requests inside it. The paper reports 13.3 %
//! cumulative savings (17.1 % best day) for logistic regression, with
//! retries and the $-cost of sampling already accounted.

use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::{
    cumulative_savings, outln, profile_workload, run_daily_routing, DailyRoutingConfig, Scale,
    World,
};
use sky_core::cloud::Arch;
use sky_core::sim::series::Table;
use sky_core::sim::SimDuration;
use sky_core::workloads::WorkloadKind;
use sky_core::{RetryMode, RoutingPolicy};

/// See the module docs.
pub struct Fig11RegionHopping;

impl Experiment for Fig11RegionHopping {
    fn name(&self) -> &'static str {
        "fig11_region_hopping"
    }

    fn description(&self) -> &'static str {
        "Fig 11 / EX-5: logistic regression under hybrid hop+retry routing"
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
        let kind = WorkloadKind::LogisticRegression;
        let baseline = World::az("us-west-1b");
        let candidates = vec![
            World::az("us-west-1a"),
            World::az("us-west-1b"),
            World::az("sa-east-1a"),
        ];

        let mut world = ctx.world();
        let dep = world
            .engine
            .deploy(world.aws, &baseline, 2048, Arch::X86_64)
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
            baseline_az: baseline.clone(),
            policy: RoutingPolicy::Hybrid {
                candidates: candidates.clone(),
                mode: RetryMode::RetrySlow,
            },
            sampled_azs: candidates,
            polls_per_day: 4,
        };
        let outcomes = run_daily_routing(&mut world, &table, &config);

        let mut out = Table::new(
            "Figure 11: logistic regression, hybrid (region hop + retry) vs us-west-1b",
            &[
                "day",
                "chosen az",
                "base $/1k",
                "hybrid $/1k",
                "savings %",
                "sampling $",
            ],
        );
        let per_k =
            |r: &sky_core::BurstReport| 1_000.0 * r.total_cost_usd() / r.completed.max(1) as f64;
        for o in &outcomes {
            out.row(&[
                o.day.to_string(),
                o.az.to_string(),
                format!("{:.4}", per_k(&o.baseline)),
                format!("{:.4}", per_k(&o.optimized)),
                format!("{:.1}", o.savings() * 100.0),
                format!("{:.4}", o.sampling_cost_usd),
            ]);
        }
        outln!(ctx, "{}", out.render());

        let best_day = outcomes
            .iter()
            .map(|o| o.savings())
            .fold(f64::NEG_INFINITY, f64::max);
        let sampling_total: f64 = outcomes.iter().map(|o| o.sampling_cost_usd).sum();
        let hops = outcomes.iter().filter(|o| o.az != baseline).count();
        outln!(
            ctx,
            "cumulative savings {:.1}% (paper: 13.3%), best day {:.1}% (paper: 17.1%)",
            cumulative_savings(&outcomes) * 100.0,
            best_day * 100.0
        );
        outln!(
            ctx,
            "hopped away from the baseline zone on {hops} of {days} days; total sampling spend ${sampling_total:.2}"
        );
        ctx.finish()
    }
}
