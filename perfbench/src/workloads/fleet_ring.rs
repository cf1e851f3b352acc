//! `fleet_ring`: `bench_engine_fleet`'s full-scale wave through
//! `ShardedFleet` at one shard.
//!
//! Eight lanes; per wave, 1,500 two-second sleeps per lane at 10,240 MB,
//! which exceeds the 1,000-per-account quota, so every wave sheds and
//! forwards around the ring. Arrivals are spread over the wave's first
//! 8 ms from the seed. Step: `ShardedFleet::run` of one wave.

use sky_core::cloud::Catalog;
use sky_core::faas::{
    FleetConfig, FleetCounts, FleetReport, FleetRequest, RequestBody, ShardedFleet,
};
use sky_core::sim::{SimDuration, SimRng, SimTime};

use super::{parse_zones, Episode, Length};
use crate::digest::Digest;
use crate::probe::{Layer, Probe};
use crate::replay::Schedule;

/// One lane per zone, all in distinct regions.
const LANES: [&str; 8] = [
    "us-east-2a",
    "us-west-1a",
    "ca-central-1a",
    "eu-north-1a",
    "sa-east-1a",
    "ap-south-1a",
    "ap-northeast-1a",
    "af-south-1a",
];

/// Per-lane FI memory: large enough that small pools exhaust capacity
/// as well as the account quota.
const MEMORY_MB: u32 = 10_240;

/// Requests per lane per wave.
const PER_LANE: u64 = 1_500;

/// Arrival spread of one wave (inside one conservative window).
const SPREAD: SimDuration = SimDuration::from_millis(8);

/// Simulated time between wave starts.
const WAVE_GAP: SimDuration = SimDuration::from_secs(8);

/// Waves in one episode.
fn waves(len: Length) -> u64 {
    match len {
        Length::Bench => 12,
        Length::Test => 2,
    }
}

/// Steps in one episode.
pub fn steps(len: Length) -> u64 {
    waves(len)
}

/// Every wave's requests, generated from the seed.
fn wave_requests(seed: u64, waves: u64) -> Vec<Vec<FleetRequest>> {
    let mut rng = SimRng::seed_from(seed).derive("perfbench-fleet");
    let lanes = LANES.len() as u64;
    (0..waves)
        .map(|w| {
            let start = SimTime::ZERO + SimDuration::from_micros(w * WAVE_GAP.as_micros());
            (0..PER_LANE * lanes)
                .map(|i| FleetRequest {
                    lane: (i % lanes) as usize,
                    at: start + SimDuration::from_micros(rng.next_below(SPREAD.as_micros())),
                    body: RequestBody::Sleep {
                        duration: SimDuration::from_secs(2),
                    },
                })
                .collect()
        })
        .collect()
}

/// Difference of two cumulative outcome tallies.
fn delta(now: &FleetCounts, before: &FleetCounts) -> FleetCounts {
    FleetCounts {
        completed: now.completed - before.completed,
        success: now.success - before.success,
        declined: now.declined - before.declined,
        throttled: now.throttled - before.throttled,
        no_capacity: now.no_capacity - before.no_capacity,
        forwarded: now.forwarded - before.forwarded,
    }
}

/// Run every wave through a fresh fleet with `shards` shard threads,
/// recording each run under `layer` (as a step when `layer` is
/// `FleetRun`). Returns the reports in wave order.
fn run_waves(
    seed: u64,
    len: Length,
    shards: usize,
    layer: Layer,
    probe: &mut Probe,
) -> Vec<FleetReport> {
    let catalog = probe.call(Layer::CatalogBuild, &mut (), |_| Catalog::paper_world(seed));
    let azs = parse_zones(&LANES);
    let mut fleet = probe.call_as(&[(Layer::Deploy, LANES.len() as u64)], &mut (), |_| {
        ShardedFleet::new(&catalog, FleetConfig::new(seed), &azs, MEMORY_MB, shards)
    });
    let waves = wave_requests(seed, waves(len));
    let mut reports = Vec::with_capacity(waves.len());
    let mut events = 0;
    for wave in &waves {
        let report = if layer == Layer::FleetRun {
            probe.step(layer, &mut (), |_| fleet.run(wave))
        } else {
            probe.call(layer, &mut (), |_| fleet.run(wave))
        };
        probe.add_events(layer, report.events - events);
        events = report.events;
        reports.push(report);
    }
    probe.end(&());
    reports
}

/// One episode from a fresh world.
pub fn episode(seed: u64, len: Length, probe: &mut Probe) -> Episode {
    let reports = run_waves(seed, len, 1, Layer::FleetRun, probe);
    summarize(&reports, probe)
}

/// Check every wave and fold the reports into an episode.
fn summarize(reports: &[FleetReport], probe: &mut Probe) -> Episode {
    let mut digest = Digest::default();
    let mut prev = (FleetCounts::default(), 0u64, 0u64);
    let (mut invocations, mut windows, mut forwards) = (0u64, 0u64, 0u64);
    let mut sent = Vec::with_capacity(reports.len());
    for report in reports {
        let counts = delta(&report.counts, &prev.0);
        let wave_windows = report.windows - prev.1;
        let wave_events = report.events - prev.2;
        if counts.completed != report.submitted {
            probe.fail_step("a fleet wave left requests unresolved");
        }
        prev = (report.counts, report.windows, report.events);
        invocations += report.submitted + counts.forwarded;
        windows += wave_windows;
        forwards += counts.forwarded;
        sent.push(report.submitted as u32);
        for v in [
            report.digest,
            report.submitted,
            counts.completed,
            counts.success,
            counts.declined,
            counts.throttled,
            counts.no_capacity,
            counts.forwarded,
            wave_windows,
            wave_events,
        ] {
            digest.u64(v);
        }
    }
    Episode {
        digest: digest.value(),
        invocations,
        events: prev.2,
        counters: vec![
            ("faas.sharded.windows", windows as f64),
            ("faas.sharded.forwards", forwards as f64),
        ],
        sent,
    }
}

/// The traced run's determinism check: the same waves at two shards must
/// reproduce the one-shard episode's digest.
pub fn shards2(
    seed: u64,
    len: Length,
    reference: &Episode,
    probe: &mut Probe,
) -> Result<(), String> {
    let reports = run_waves(seed, len, 2, Layer::FleetRunShards2, probe);
    if summarize(&reports, probe).digest == reference.digest {
        Ok(())
    } else {
        Err("fleet digest at shards=2 differs from shards=1".to_string())
    }
}

/// Replay schedule: each wave's arrivals over the 8 ms spread, one
/// completion per arrival after the two-second sleep.
pub fn schedule(seed: u64, sent: &[u32]) -> Schedule {
    super::uniform_schedule(seed, sent, SPREAD, SimDuration::from_secs(2))
}
