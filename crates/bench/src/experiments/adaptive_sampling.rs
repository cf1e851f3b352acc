//! **Ablation (§4.4, operationalized)** — adaptive vs fixed sampling
//! cadence.
//!
//! Runs two 14-day characterization campaigns over the EX-4 zones:
//!
//! * **fixed** — every zone re-sampled every day (the EX-4 protocol): a
//!   [`StaticCharacterizer`] on the paper's 22 h cadence;
//! * **adaptive** — a [`StaticCharacterizer`] on §4.4's
//!   [`SchedulerConfig`] cadence re-samples volatile zones daily but lets
//!   classified-stable zones coast for a week.
//!
//! Both arms run the same loop: once a day, every zone the
//! characterizer wants re-probed is probed into the store.
//!
//! Reports the spend and the mean characterization error (vs ground
//! truth, scored daily for every zone whether sampled or not). The
//! adaptive scheduler should spend meaningfully less for near-identical
//! accuracy — the paper's "stable AZs require less sampling to save on
//! profiling costs".

use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::{ex4_zones, outln, Scale, World};
use sky_core::sim::series::Table;
use sky_core::sim::{OnlineStats, SimDuration};
use sky_core::{
    CharacterizationStore, Characterizer, PollConfig, SchedulerConfig, StaticCharacterizer,
};

struct CampaignScore {
    cost_usd: f64,
    polls: usize,
    mean_ape: f64,
    max_ape: f64,
}

fn run_campaign(
    world: &mut World,
    days: u32,
    polls_per_sample: usize,
    mut chr: StaticCharacterizer,
) -> CampaignScore {
    let zones = ex4_zones();
    let mut store = CharacterizationStore::new();
    let mut cost = 0.0;
    let mut polls = 0usize;
    let mut ape = OnlineStats::new();
    let start = world.engine.now();
    for day in 0..days {
        world
            .engine
            .advance_to(start + SimDuration::from_days(day as u64) + SimDuration::from_hours(2));
        let now = world.engine.now();
        for az in &zones {
            if !chr.wants_probe(az, now) {
                continue;
            }
            let snapshot = store
                .probe(
                    &mut world.engine,
                    world.aws,
                    az,
                    polls_per_sample,
                    PollConfig::default(),
                )
                .expect("probe deploys");
            cost += snapshot.cost_usd;
            polls += polls_per_sample;
            chr.record_probe(az, snapshot.at, &snapshot.mix);
        }
        // Score every zone daily against the hidden ground truth, using
        // whatever (possibly stale) snapshot the router would rely on.
        for az in &zones {
            if let Some(snapshot) = store.latest(az) {
                let truth = world
                    .engine
                    .platform(az)
                    .expect("sampled at least once")
                    .ground_truth_mix();
                ape.push(snapshot.mix.ape_percent(&truth));
            }
        }
    }
    CampaignScore {
        cost_usd: cost,
        polls,
        mean_ape: ape.mean(),
        max_ape: ape.max().unwrap_or(0.0),
    }
}

/// See the module docs.
pub struct AdaptiveSampling;

impl Experiment for AdaptiveSampling {
    fn name(&self) -> &'static str {
        "adaptive_sampling"
    }

    fn description(&self) -> &'static str {
        "Ablation §4.4: adaptive vs fixed sampling cadence, spend and APE"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("days", scale.pick(14, 4).to_string()),
            ("polls_per_sample", "6".to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let days = ctx.scale.pick(14, 4);
        let polls_per_sample = 6;

        let fixed = run_campaign(
            &mut ctx.world(),
            days,
            polls_per_sample,
            StaticCharacterizer::new(u32::MAX),
        );
        let adaptive = run_campaign(
            &mut ctx.world(),
            days,
            polls_per_sample,
            StaticCharacterizer::with_cadence(SchedulerConfig::default(), u32::MAX),
        );

        let mut out = Table::new(
            format!("Adaptive vs fixed sampling cadence over {days} days x 5 zones"),
            &["strategy", "polls", "spend", "mean APE %", "max APE %"],
        );
        for (label, score) in [("fixed daily", &fixed), ("adaptive (§4.4)", &adaptive)] {
            out.row(&[
                label.to_string(),
                score.polls.to_string(),
                format!("${:.2}", score.cost_usd),
                format!("{:.1}", score.mean_ape),
                format!("{:.1}", score.max_ape),
            ]);
        }
        outln!(ctx, "{}", out.render());
        outln!(
            ctx,
            "adaptive spends {:.0}% of the fixed budget for {:+.1} points of mean APE",
            100.0 * adaptive.cost_usd / fixed.cost_usd,
            adaptive.mean_ape - fixed.mean_ape
        );
        ctx.finish()
    }
}
