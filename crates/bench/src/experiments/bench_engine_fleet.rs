//! **Fleet scaling benchmark** — runs the same multi-AZ fleet workload
//! through [`ShardedFleet`] at shard counts 1, 2 and 8 and asserts the
//! conservative-window determinism contract: every shard count yields a
//! byte-identical [`FleetReport::digest`].
//!
//! The rendered report contains only shard-invariant values (digests,
//! outcome counts, windows, forwards, events), so the experiment is
//! golden-pinned at quick scale like every other: the golden harness
//! runs it at all three shard counts through the quick gate. Host-time
//! measurements of the fleet live in `perfbench`'s `fleet_ring`
//! workload.
//!
//! [`ShardedFleet`]: sky_core::faas::ShardedFleet
//! [`FleetReport::digest`]: sky_core::faas::FleetReport

use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::{outln, Scale, ScenarioBuilder};
use sky_core::cloud::Catalog;
use sky_core::faas::{FleetConfig, FleetReport, FleetRequest, RequestBody, ShardedFleet};
use sky_core::sim::{SimDuration, SimTime};

/// Shard counts the scaling contract is checked at.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Per-lane FI memory: big enough that the small pools also exhaust
/// capacity (not just the account quota), exercising both shed paths.
const MEMORY_MB: u32 = 10_240;

/// Zones (one lane each), all in distinct regions so the conservative
/// window — the minimum cross-lane one-way latency — stays well above
/// the burst spread.
fn lane_names(scale: Scale) -> &'static [&'static str] {
    match scale {
        Scale::Quick => &["us-east-2a", "us-west-1a", "eu-north-1a", "ap-south-1a"],
        Scale::Full => &[
            "us-east-2a",
            "us-west-1a",
            "ca-central-1a",
            "eu-north-1a",
            "sa-east-1a",
            "ap-south-1a",
            "ap-northeast-1a",
            "af-south-1a",
        ],
    }
}

fn waves(scale: Scale) -> u64 {
    scale.pick(3, 2)
}

fn per_wave(scale: Scale) -> u64 {
    scale.pick(1_500, 1_200)
}

/// The workload: per lane, `waves` bursts of `per_wave` two-second
/// sleeps, each burst spread over 8 ms (inside one window) and sized
/// above the 1000-per-account concurrency quota — so every lane sheds
/// part of every burst and forwards it around the ring.
fn fleet_requests(scale: Scale, lanes: usize) -> Vec<FleetRequest> {
    let mut reqs = Vec::new();
    for wave in 0..waves(scale) {
        let wave_start = SimTime::ZERO + SimDuration::from_secs(wave * 8);
        for i in 0..(per_wave(scale) * lanes as u64) {
            reqs.push(FleetRequest {
                lane: (i % lanes as u64) as usize,
                at: wave_start + SimDuration::from_millis(i % 8),
                body: RequestBody::Sleep {
                    duration: SimDuration::from_secs(2),
                },
            });
        }
    }
    reqs
}

struct ShardRun {
    shards: usize,
    report: FleetReport,
}

fn run_with_shards(catalog: &Catalog, seed: u64, scale: Scale, shards: usize) -> ShardRun {
    let azs = ScenarioBuilder::az_list(lane_names(scale));
    let mut fleet = ShardedFleet::new(catalog, FleetConfig::new(seed), &azs, MEMORY_MB, shards);
    let requests = fleet_requests(scale, azs.len());
    ShardRun {
        shards,
        report: fleet.run(&requests),
    }
}

/// See the module docs.
pub struct BenchEngineFleet;

impl Experiment for BenchEngineFleet {
    fn name(&self) -> &'static str {
        "bench_engine_fleet"
    }

    fn description(&self) -> &'static str {
        "AZ-sharded fleet scaling: identical digests at shards 1/2/8"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("lanes", lane_names(scale).join(",")),
            ("memory_mb", MEMORY_MB.to_string()),
            ("waves", waves(scale).to_string()),
            ("requests_per_wave_per_lane", per_wave(scale).to_string()),
            (
                "shard_counts",
                SHARD_COUNTS.map(|s| s.to_string()).join(","),
            ),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let catalog = Catalog::paper_world(ctx.seed);
        let runs: Vec<ShardRun> = SHARD_COUNTS
            .iter()
            .map(|&shards| run_with_shards(&catalog, ctx.seed, ctx.scale, shards))
            .collect();
        let base = &runs[0].report;

        outln!(
            ctx,
            "# bench_engine_fleet — conservative-window AZ-sharded fleet"
        );
        outln!(
            ctx,
            "scale={} lanes={} memory_mb={} window_us={} requests={}",
            ctx.scale.name(),
            base.lanes,
            MEMORY_MB,
            base.window.as_micros(),
            base.submitted,
        );
        outln!(ctx);
        for run in &runs {
            outln!(
                ctx,
                "shards={}: digest={:016x} windows={} events={}",
                run.shards,
                run.report.digest,
                run.report.windows,
                run.report.events,
            );
        }
        // The scaling contract. A divergence fails the experiment (and
        // the golden harness) rather than rendering quietly.
        for run in &runs[1..] {
            assert_eq!(
                run.report.digest, base.digest,
                "digest diverged at shards={}",
                run.shards
            );
            assert_eq!(
                run.report.lane_digests, base.lane_digests,
                "lane digests diverged at shards={}",
                run.shards
            );
            assert_eq!(run.report.counts, base.counts);
            assert_eq!(run.report.events, base.events);
        }
        outln!(
            ctx,
            "digest agreement: OK ({} shard counts identical)",
            runs.len()
        );
        outln!(ctx);
        let c = &base.counts;
        outln!(
            ctx,
            "forwards={} completed={} success={} declined={} throttled={} no_capacity={}",
            c.forwarded,
            c.completed,
            c.success,
            c.declined,
            c.throttled,
            c.no_capacity,
        );
        assert_eq!(c.completed, base.submitted, "every request must resolve");
        outln!(ctx);
        outln!(ctx, "per-lane digests:");
        for (i, d) in base.lane_digests.iter().enumerate() {
            outln!(ctx, "  {} {:016x}", lane_names(ctx.scale)[i], d);
        }

        ctx.finish()
    }
}
