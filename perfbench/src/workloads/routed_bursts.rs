//! `routed_bursts`: EX-5 production traffic.
//!
//! Set-up profiles four Table-1 kinds once on every candidate zone. Then,
//! every simulated hour, one burst per kind is routed among us-west-1a,
//! us-west-1b and sa-east-1a, alternating `Hybrid{RetrySlow}` with
//! `Retry{FocusFastest}` (on each zone in turn) so that CPU-gated
//! declines, holds and reissues occur. Each day the characterization is refreshed with
//! one poll per zone. Step: `SmartRouter::run_burst`.

use std::collections::BTreeMap;

use sky_core::cloud::{Arch, AzId, Catalog, Provider};
use sky_core::faas::{AccountId, FaasEngine, FleetConfig};
use sky_core::sim::SimDuration;
use sky_core::workloads::WorkloadKind;
use sky_core::{
    CampaignConfig, RetryMode, RouterConfig, RoutingPolicy, SamplingCampaign, SmartRouter,
    WorkloadProfiler,
};

use super::{check_spans, parse_zones, platform_counters, Episode, Length};
use crate::digest::Digest;
use crate::probe::{Layer, Probe};
use crate::replay::Schedule;

/// Candidate zones (the paper's EX-5 trio).
const ZONES: [&str; 3] = ["us-west-1a", "us-west-1b", "sa-east-1a"];

/// The routed Table-1 kinds.
const KINDS: [WorkloadKind; 4] = [
    WorkloadKind::Zipper,
    WorkloadKind::GraphMst,
    WorkloadKind::JsonFlattener,
    WorkloadKind::MatrixMultiply,
];

/// Requests per burst.
const BURST: usize = 64;

/// Profiling runs per (kind, zone), in waves of half that.
const PROFILE_RUNS: usize = 40;

/// Simulated hours in one episode.
fn hours(len: Length) -> u64 {
    match len {
        Length::Bench => 36,
        Length::Test => 3,
    }
}

/// Steps in one episode.
pub fn steps(len: Length) -> u64 {
    hours(len) * KINDS.len() as u64
}

/// Re-characterize every zone with one poll and record it in the
/// router's store.
fn refresh(
    engine: &mut FaasEngine,
    account: AccountId,
    zones: &[AzId],
    router: &mut SmartRouter,
    probe: &mut Probe,
    digest: &mut Digest,
) {
    let config = CampaignConfig {
        deployments: 2,
        ..CampaignConfig::default()
    };
    for az in zones {
        let mut campaign = probe
            .call_as(
                &[(Layer::CampaignNew, 1), (Layer::Deploy, 2)],
                engine,
                |e| SamplingCampaign::new(e, account, az, config.clone()),
            )
            .expect("EX-5 zones accept the campaign's memory range");
        let at = engine.now();
        let stats = probe.call(Layer::Poll, engine, |e| campaign.poll_once(e));
        digest.u64(stats.cumulative_fis);
        digest.u64(stats.failures as u64);
        digest.usd(stats.cost_usd);
        let mix = campaign.characterization().to_mix();
        let health = campaign.overall_failure_rate();
        probe.call(Layer::StoreRecord, &mut (), |_| {
            router.store_mut().record_with_health(
                az,
                at,
                mix,
                stats.cumulative_fis,
                stats.cost_usd,
                health,
            )
        });
    }
}

/// One episode from a fresh world.
pub fn episode(seed: u64, len: Length, probe: &mut Probe) -> Episode {
    let catalog = probe.call(Layer::CatalogBuild, &mut (), |_| Catalog::paper_world(seed));
    let mut engine = FaasEngine::new(catalog, FleetConfig::new(seed));
    let account = engine.create_account(Provider::Aws);
    let zones = parse_zones(&ZONES);
    let config = RouterConfig::default();
    let mut deployments = BTreeMap::new();
    for az in &zones {
        let dep = probe
            .call(Layer::Deploy, &mut engine, |e| {
                e.deploy(account, az, config.memory_mb, Arch::X86_64)
            })
            .expect("EX-5 zones accept the router's memory setting");
        deployments.insert(az.clone(), dep);
    }
    let mut profiler = WorkloadProfiler::new();
    for kind in KINDS {
        for az in &zones {
            let dep = deployments[az];
            probe.call(Layer::Profile, &mut engine, |e| {
                profiler.profile(
                    e,
                    dep,
                    kind,
                    PROFILE_RUNS,
                    PROFILE_RUNS / 2,
                    seed ^ kind as u64,
                )
            });
        }
    }
    let mut router = SmartRouter::new(Default::default(), profiler.into_table(), config);
    let mut digest = Digest::default();
    refresh(
        &mut engine,
        account,
        &zones,
        &mut router,
        probe,
        &mut digest,
    );

    let hybrid = RoutingPolicy::Hybrid {
        candidates: zones.clone(),
        mode: RetryMode::RetrySlow,
    };
    // The fixed-zone policy visits every candidate in turn, so an
    // episode's gated-retry load does not hinge on one zone's CPU mix.
    let retries: Vec<RoutingPolicy> = zones
        .iter()
        .map(|az| RoutingPolicy::Retry {
            az: az.clone(),
            mode: RetryMode::FocusFastest,
        })
        .collect();
    let start = engine.now();
    let mut sent = Vec::new();
    let (mut requests, mut retried, mut attempts) = (0u64, 0u64, 0u64);
    for hour in 0..hours(len) {
        if hour > 0 {
            probe.call(Layer::Advance, &mut engine, |e| {
                e.advance_to(start + SimDuration::from_hours(hour))
            });
            if hour % 24 == 0 {
                refresh(
                    &mut engine,
                    account,
                    &zones,
                    &mut router,
                    probe,
                    &mut digest,
                );
            }
        }
        for (k, &kind) in KINDS.iter().enumerate() {
            let policy = if (hour as usize + k).is_multiple_of(2) {
                &hybrid
            } else {
                &retries[hour as usize % retries.len()]
            };
            // The re-issued choice is pure for this non-bandit policy, so
            // it times the router's decision without changing the run.
            let chosen = match policy {
                RoutingPolicy::Hybrid { candidates, .. } if probe.traced() => {
                    Some(probe.call(Layer::ChooseAz, &mut engine, |e| {
                        router.choose_az_bounded(kind, candidates, e.now(), e.catalog())
                    }))
                }
                _ => None,
            };
            let report = probe.step(Layer::RouterBurst, &mut engine, |e| {
                router.run_burst(e, kind, BURST, policy, |az| deployments.get(az).copied())
            });
            if report.n != BURST || report.completed + report.errors != report.n {
                probe.fail_step("a burst resolved fewer requests than it sent");
            }
            if chosen.is_some_and(|az| az != report.az) {
                probe.fail_step("the re-issued zone choice differs from the burst's");
            }
            check_spans(&engine, probe);
            sent.push(report.n as u32);
            requests += report.n as u64;
            retried += report.retried as u64;
            attempts += report.attempts;
            digest.str(&report.az.to_string());
            for v in [
                report.n as u64,
                report.completed as u64,
                report.errors as u64,
                report.retried as u64,
                report.attempts,
                report.finished.as_micros(),
            ] {
                digest.u64(v);
            }
            digest.usd(report.workload_cost_usd);
            digest.usd(report.retry_cost_usd);
            for (cpu, n) in &report.cpu_counts {
                digest.str(&cpu.to_string());
                digest.u64(*n);
            }
        }
    }

    let (events, invocations) = probe.end(&engine);
    let mut counters = platform_counters(&engine);
    counters.extend([
        (
            "core.router.retried_fraction",
            retried as f64 / requests.max(1) as f64,
        ),
        (
            "core.router.attempts_per_request",
            attempts as f64 / requests.max(1) as f64,
        ),
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
