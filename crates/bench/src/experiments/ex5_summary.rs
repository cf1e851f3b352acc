//! **EX-5 aggregate (§4.5)** — hybrid routing across all twelve
//! workloads.
//!
//! Runs the hybrid (region hop + retry-slow) strategy for every Table-1
//! function over the campaign window and reports per-function cumulative
//! savings vs the fixed us-west-1b baseline. The paper reports an average
//! of 10.03 % ± 3.70 % savings, with graph BFS best at 18.2 %.
//!
//! Each workload is an independent sweep cell (its own per-kind seeded
//! world, as the serial loop already used), so the twelve multi-day
//! campaigns run in parallel under `--jobs N` and merge deterministically
//! in Table-1 order.

use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::sweep;
use crate::{
    cumulative_savings, outln, profile_workload, run_daily_routing, DailyRoutingConfig, Scale,
    World,
};
use sky_core::cloud::Arch;
use sky_core::sim::series::Table;
use sky_core::sim::{OnlineStats, SimDuration};
use sky_core::workloads::WorkloadKind;
use sky_core::{RetryMode, RoutingPolicy};

struct KindResult {
    row: [String; 6],
    savings: f64,
}

fn run_kind(kind: WorkloadKind, scale: Scale, seed: u64) -> KindResult {
    let days = scale.pick(14, 2);
    let burst = scale.pick(1_000, 120);
    let baseline = World::az("us-west-1b");
    let candidates = vec![
        World::az("us-west-1a"),
        World::az("us-west-1b"),
        World::az("sa-east-1a"),
    ];

    let mut world = World::new(seed ^ (kind as u64) << 8);
    let dep = world
        .engine
        .deploy(world.aws, &baseline, 2048, Arch::X86_64)
        .expect("deploys");
    let table = profile_workload(&mut world.engine, dep, kind, scale.pick(1_000, 150), seed);
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
    let savings = cumulative_savings(&outcomes);
    let best_day = outcomes
        .iter()
        .map(|o| o.savings())
        .fold(f64::NEG_INFINITY, f64::max);
    let hops = outcomes.iter().filter(|o| o.az != baseline).count();
    let retried: f64 = outcomes
        .iter()
        .map(|o| o.optimized.retried_fraction())
        .sum::<f64>()
        / outcomes.len() as f64;
    let sampling: f64 = outcomes.iter().map(|o| o.sampling_cost_usd).sum();
    KindResult {
        row: [
            kind.name().to_string(),
            format!("{:.1}", savings * 100.0),
            format!("{:.1}", best_day * 100.0),
            format!("{hops}/{days}"),
            format!("{:.0}", retried * 100.0),
            format!("{sampling:.2}"),
        ],
        savings,
    }
}

/// See the module docs.
pub struct Ex5Summary;

impl Experiment for Ex5Summary {
    fn name(&self) -> &'static str {
        "ex5_summary"
    }

    fn description(&self) -> &'static str {
        "EX-5 / §4.5: hybrid routing cumulative savings on all 12 workloads"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("days", scale.pick(14, 2).to_string()),
            ("burst", scale.pick(1_000, 120).to_string()),
            ("profile_runs", scale.pick(1_000, 150).to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let (scale, seed) = (ctx.scale, ctx.seed);

        let results = sweep::run(WorkloadKind::ALL.to_vec(), ctx.jobs, |_, &kind| {
            run_kind(kind, scale, seed)
        });

        let mut out = Table::new(
            "EX-5: hybrid (region hop + retry) cumulative savings per workload",
            &[
                "function",
                "savings %",
                "best day %",
                "hops",
                "retried %",
                "sampling $",
            ],
        );
        let mut stats = OnlineStats::new();
        let mut best: Option<(WorkloadKind, f64)> = None;
        for (kind, r) in WorkloadKind::ALL.iter().zip(&results) {
            stats.push(r.savings * 100.0);
            if best.map(|(_, s)| r.savings > s).unwrap_or(true) {
                best = Some((*kind, r.savings));
            }
            out.row(&r.row);
        }
        outln!(ctx, "{}", out.render());
        let (best_kind, best_savings) = best.expect("twelve workloads ran");
        outln!(
            ctx,
            "average savings {:.2}% +- {:.2}% across 12 functions (paper: 10.03% +- 3.70%)",
            stats.mean(),
            stats.sample_std_dev()
        );
        outln!(
            ctx,
            "best function: {} at {:.1}% (paper: graph_bfs at 18.2%)",
            best_kind.name(),
            best_savings * 100.0
        );
        ctx.finish()
    }
}
