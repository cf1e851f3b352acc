//! `chaos_modes`: the mixed multi-AZ run — execution modes, faults and
//! the observation hook at once.
//!
//! Four zones, each under a different `ExecProfile`: cached behind a
//! `DemandEwma` pre-warm pool (with the idempotent result cache on),
//! checkpointed, branched and ephemeral. A `FaultPlan` cycles all six
//! `FaultKind`s across the zones, one fault an hour. Traffic is
//! `ResilientClient::run_burst` bursts of mixed kinds whose primary zone
//! rotates; each hour's `take_observations` feeds
//! `StreamingCharacterizer::observe`. Step: one resilient burst.

use std::collections::BTreeMap;

use sky_core::cloud::{Arch, AzId, Catalog, FaultKind, FaultPlan, Provider};
use sky_core::faas::{ExecMode, ExecProfile, FaasEngine, FleetConfig, PoolPolicy};
use sky_core::sim::{SimDuration, SimTime};
use sky_core::workloads::WorkloadKind;
use sky_core::{
    Characterizer, ResilienceConfig, ResilientClient, RouterConfig, StreamingCharacterizer,
    StreamingConfig,
};

use super::{check_spans, parse_zones, platform_counters, Episode, Length};
use crate::digest::Digest;
use crate::probe::{Layer, Probe};
use crate::replay::Schedule;

/// One zone per execution mode.
const ZONES: [&str; 4] = ["us-east-2a", "us-west-1a", "eu-central-1a", "ca-central-1a"];

/// The zones' execution profiles, in `ZONES` order.
fn profiles() -> [ExecProfile; 4] {
    let snapshots = SimDuration::from_hours(3);
    [
        ExecProfile::for_mode(ExecMode::Cached)
            .with_pool(PoolPolicy::DemandEwma {
                alpha_x256: 64,
                cap: 24,
            })
            .with_result_cache_ttl(SimDuration::from_secs(90)),
        ExecProfile::for_mode(ExecMode::Checkpointed).with_snapshot_ttl(snapshots),
        ExecProfile::for_mode(ExecMode::Branched).with_snapshot_ttl(snapshots),
        ExecProfile::for_mode(ExecMode::Ephemeral),
    ]
}

/// The six fault classes, cycled one per hour.
const FAULTS: [FaultKind; 6] = [
    FaultKind::Outage,
    FaultKind::PartialOutage { severity: 0.5 },
    FaultKind::ThrottleStorm { reject_prob: 0.6 },
    FaultKind::LatencySpike {
        extra: SimDuration::from_millis(800),
    },
    FaultKind::ColdStartStorm { init_factor: 4.0 },
    FaultKind::GrayDegradation { slowdown: 2.0 },
];

/// The mixed kinds, cycled per burst.
const KINDS: [WorkloadKind; 4] = [
    WorkloadKind::Sha1Hash,
    WorkloadKind::JsonFlattener,
    WorkloadKind::Thumbnailer,
    WorkloadKind::DiskWriter,
];

/// Primary zone of each burst within an hour. Back-to-back bursts on a
/// zone let the second reuse the first's warm FIs, while the first of the
/// hour meets an expired warm pool (restore, branch, pool or cold start).
/// The ephemeral zone, where every start is cold, gets one burst, so no
/// start class accounts for most attempts.
const ROTATION: [usize; 7] = [0, 0, 1, 1, 2, 2, 3];

/// Requests per burst.
const BURST: usize = 40;

/// Simulated gap between bursts.
const GAP: SimDuration = SimDuration::from_mins(3);

/// Simulated hours in one episode.
fn hours(len: Length) -> u64 {
    match len {
        Length::Bench => 12,
        Length::Test => 2,
    }
}

/// Steps in one episode.
pub fn steps(len: Length) -> u64 {
    hours(len) * ROTATION.len() as u64
}

/// One fault an hour, cycling the six classes over the four zones; each
/// starts five minutes into its hour and lasts a quarter hour.
fn fault_plan(zones: &[AzId], start: SimTime, hours: u64) -> FaultPlan {
    (0..hours).fold(FaultPlan::new(), |plan, h| {
        plan.with_event(
            zones[h as usize % zones.len()].clone(),
            start + SimDuration::from_hours(h) + SimDuration::from_mins(5),
            SimDuration::from_mins(15),
            FAULTS[h as usize % FAULTS.len()],
        )
        .expect("the benchmark's fault parameters are in range")
    })
}

/// One episode from a fresh world.
pub fn episode(seed: u64, len: Length, probe: &mut Probe) -> Episode {
    let catalog = probe.call(Layer::CatalogBuild, &mut (), |_| Catalog::paper_world(seed));
    let mut engine = FaasEngine::new(catalog, FleetConfig::new(seed));
    let account = engine.create_account(Provider::Aws);
    let zones = parse_zones(&ZONES);
    let memory = RouterConfig::default().memory_mb;
    let mut deployments = BTreeMap::new();
    for (az, profile) in zones.iter().zip(profiles()) {
        let dep = probe
            .call(Layer::Deploy, &mut engine, |e| {
                e.deploy(account, az, memory, Arch::X86_64)
            })
            .expect("the chaos zones accept the router's memory setting");
        engine.set_exec_profile(dep, profile);
        deployments.insert(az.clone(), dep);
    }
    let start = engine.now();
    engine.set_fault_plan(&fault_plan(&zones, start, hours(len)));
    engine.set_observation_hook(true);
    // Candidate lists per primary zone: the primary first, then the rest
    // in zone order as breaker fallbacks.
    let candidates: Vec<Vec<AzId>> = (0..zones.len())
        .map(|p| {
            let mut c = vec![zones[p].clone()];
            c.extend(
                zones
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != p)
                    .map(|(_, z)| z.clone()),
            );
            c
        })
        .collect();
    let mut client = ResilientClient::with_defaults(ResilienceConfig::default());
    let mut streaming = StreamingCharacterizer::new(StreamingConfig::default());
    let mut digest = Digest::default();
    let mut sent = Vec::new();
    let (mut requests, mut completed, mut attempts) = (0u64, 0u64, 0u64);
    let (mut hedges, mut trips, mut observations, mut fires) = (0u64, 0u64, 0u64, 0u64);

    for hour in 0..hours(len) {
        for (b, &primary) in ROTATION.iter().enumerate() {
            if b > 0 {
                probe.call(Layer::Advance, &mut engine, |e| e.advance_by(GAP));
            }
            let kind = KINDS[(hour as usize + b) % KINDS.len()];
            let report = probe.step(Layer::ResilientBurst, &mut engine, |e| {
                client.run_burst(e, kind, BURST, &candidates[primary], |az| {
                    deployments.get(az).copied()
                })
            });
            if report.n != BURST || report.completed > report.n {
                probe.fail_step("a resilient burst lost requests");
            }
            check_spans(&engine, probe);
            sent.push(report.n as u32);
            requests += report.n as u64;
            completed += report.completed as u64;
            attempts += report.attempts;
            hedges += report.hedges;
            trips += report.breaker_trips;
            for v in [
                report.n as u64,
                report.completed as u64,
                report.attempts,
                report.hedges,
                report.breaker_trips,
                (report.p50_ms * 1e3).round() as u64,
                (report.p99_ms * 1e3).round() as u64,
                report.finished.as_micros(),
            ] {
                digest.u64(v);
            }
            digest.usd(report.total_cost_usd);
            for (az, n) in &report.attempts_by_az {
                digest.str(&az.to_string());
                digest.u64(*n);
            }
        }
        // Hour end: drain the observation hook into the streaming
        // characterizer; a fired detector is re-seeded from its own
        // estimate (the probe it asks for).
        for az in &zones {
            let seen = probe.call(Layer::TakeObservations, &mut engine, |e| {
                e.take_observations(az)
            });
            probe.call_as(
                &[(Layer::StreamObserve, seen.len() as u64)],
                &mut (),
                |_| {
                    for report in &seen {
                        streaming.observe(az, report);
                    }
                },
            );
            observations += seen.len() as u64;
            let now = engine.now();
            if streaming.wants_probe(az, now) {
                if let Some(mix) = streaming.estimate(az) {
                    fires += 1;
                    streaming.record_probe(az, now, &mix);
                }
            }
            digest.u64(seen.len() as u64);
            digest.u64(streaming.cusum_x10k(az) as u64);
        }
        probe.call(Layer::Advance, &mut engine, |e| {
            e.advance_to(start + SimDuration::from_hours(hour + 1))
        });
    }

    let (events, invocations) = probe.end(&engine);
    let mut counters = platform_counters(&engine);
    let per_request = |n: u64| n as f64 / requests.max(1) as f64;
    counters.extend([
        (
            "core.resilience.attempts_per_request",
            per_request(attempts),
        ),
        ("core.resilience.hedges", hedges as f64),
        ("core.resilience.breaker_trips", trips as f64),
        ("core.resilience.goodput", per_request(completed)),
        ("core.streaming.observations", observations as f64),
        ("core.streaming.fires", fires as f64),
    ]);
    Episode {
        digest: digest.value(),
        invocations,
        events,
        counters,
        sent,
    }
}

/// Replay schedule: each burst's arrivals spread uniformly over the
/// router's burst jitter; one completion per arrival after a second.
pub fn schedule(seed: u64, sent: &[u32]) -> Schedule {
    super::uniform_schedule(
        seed,
        sent,
        RouterConfig::default().burst_jitter,
        SimDuration::from_secs(1),
    )
}
