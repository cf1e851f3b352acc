//! **Ablation (§3.5)** — retry ban-set selectivity.
//!
//! The paper warns that the retry approach "can be tuned by specifying
//! the CPUs that are banned … if the retry approach is too selective and
//! too many CPUs are banned, then the overhead of these retries will
//! consume any performance benefits." This ablation sweeps ban sets of
//! increasing selectivity (none, slowest-1, slowest-2, all-but-fastest)
//! for the zipper function on us-west-1b and reports where the sweet
//! spot sits.
//!
//! Each arm is an independent sweep cell. Earlier bursts warm and churn
//! the zone's FI pool, so a cell **replays** every earlier arm's burst
//! in its own seeded world before measuring its own — the timeline is
//! identical to the serial experiment, and the four arms run in
//! parallel under `--jobs N`, merging in selectivity order. Savings are
//! computed at merge time against the baseline arm's cost.

use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::sweep;
use crate::{outln, profile_workload, Scale, World};
use sky_core::cloud::{Arch, CpuType};
use sky_core::sim::series::Table;
use sky_core::sim::SimDuration;
use sky_core::workloads::WorkloadKind;
use sky_core::{
    savings_fraction, BurstReport, CharacterizationStore, RetryMode, RouterConfig, RoutingPolicy,
    SmartRouter,
};

struct ArmResult {
    /// Ranking observed by this arm's profile (identical across arms —
    /// every cell reruns the same seeded profile).
    ranking: Vec<(CpuType, f64)>,
    labels: String,
    cost_per_request: f64,
    retried: f64,
    attempts_per_request: f64,
    errors: usize,
}

/// Replay arms `0..=idx` of the serial experiment (baseline first, then
/// increasingly selective ban sets) in a fresh world and report arm
/// `idx`'s numbers.
fn run_arm(idx: usize, scale: Scale, seed: u64) -> ArmResult {
    let burst = scale.pick(1_000, 150);
    let kind = WorkloadKind::Zipper;
    let az = World::az("us-west-1b");

    let mut world = World::new(seed);
    let dep = world
        .engine
        .deploy(world.aws, &az, 2048, Arch::X86_64)
        .expect("deploys");
    let table = profile_workload(&mut world.engine, dep, kind, scale.pick(1_500, 400), seed);
    world.engine.advance_by(SimDuration::from_mins(30));
    let ranking = table.ranking(kind);

    let router = SmartRouter::new(
        CharacterizationStore::new(),
        table.clone(),
        RouterConfig::default(),
    );
    let per = |r: &BurstReport| r.total_cost_usd() / r.completed.max(1) as f64;

    // Arm 0: the unbanned baseline (always replayed — it is the shared
    // history every later arm builds on).
    let baseline = router.run_burst(
        &mut world.engine,
        kind,
        burst,
        &RoutingPolicy::Baseline { az: az.clone() },
        |_| Some(dep),
    );
    let mut result = ArmResult {
        ranking: ranking.clone(),
        labels: "(none: baseline)".into(),
        cost_per_request: per(&baseline),
        retried: 0.0,
        attempts_per_request: 1.0,
        errors: 0,
    };
    for n_banned in 1..=idx.min(ranking.len().saturating_sub(1)) {
        world.engine.advance_by(SimDuration::from_mins(15));
        let slowest: Vec<CpuType> = ranking
            .iter()
            .rev()
            .take(n_banned)
            .map(|&(c, _)| c)
            .collect();
        let labels: Vec<&str> = slowest.iter().map(|c| c.short_label()).collect();
        let banned: sky_core::cloud::CpuSet = slowest.iter().copied().collect();
        let report = router.run_burst(
            &mut world.engine,
            kind,
            burst,
            &RoutingPolicy::Retry {
                az: az.clone(),
                mode: RetryMode::Custom(banned),
            },
            |_| Some(dep),
        );
        result = ArmResult {
            ranking: ranking.clone(),
            labels: labels.join("+"),
            cost_per_request: per(&report),
            retried: report.retried_fraction(),
            attempts_per_request: report.attempts as f64 / report.n as f64,
            errors: report.errors,
        };
    }
    result
}

/// See the module docs.
pub struct AblationBanSets;

impl Experiment for AblationBanSets {
    fn name(&self) -> &'static str {
        "ablation_ban_sets"
    }

    fn description(&self) -> &'static str {
        "Ablation §3.5: retry ban-set selectivity sweep (zipper, us-west-1b)"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("burst", scale.pick(1_000, 150).to_string()),
            ("profile_runs", scale.pick(1_500, 400).to_string()),
            ("arms", "4".to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let (scale, seed) = (ctx.scale, ctx.seed);

        // Arms: baseline (0 banned), then slowest-1, slowest-2, all-but-fastest.
        let arms: Vec<usize> = (0..4).collect();
        let results = sweep::run(arms, ctx.jobs, |_, &idx| run_arm(idx, scale, seed));

        outln!(
            ctx,
            "observed ranking (fastest first): {:?}\n",
            results[0].ranking
        );
        let base_cost = results[0].cost_per_request;

        let mut out = Table::new(
            "Ablation: ban-set size vs savings (zipper, us-west-1b)",
            &[
                "banned CPUs",
                "savings %",
                "retried %",
                "attempts/req",
                "errors",
            ],
        );
        out.row(&[
            "(none: baseline)".into(),
            "0.0".into(),
            "0".into(),
            "1.00".into(),
            "0".into(),
        ]);
        for r in results.iter().skip(1) {
            out.row(&[
                r.labels.clone(),
                format!(
                    "{:.1}",
                    savings_fraction(base_cost, r.cost_per_request) * 100.0
                ),
                format!("{:.0}", r.retried * 100.0),
                format!("{:.2}", r.attempts_per_request),
                r.errors.to_string(),
            ]);
        }
        outln!(ctx, "{}", out.render());
        outln!(
            ctx,
            "Expectation: savings rise while banning genuinely slow CPUs, then the"
        );
        outln!(
            ctx,
            "retry overhead of an over-selective ban set erodes (or reverses) the gain."
        );
        ctx.finish()
    }
}
