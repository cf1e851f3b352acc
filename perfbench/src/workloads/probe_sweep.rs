//! `probe_sweep`: the paper's §3.1 infrastructure sampling.
//!
//! Each simulated day, one fresh `SamplingCampaign` per zone over the
//! eleven EX-3 zones. Each poll is the default 1,000-request, 250 ms
//! sleep tree; several polls run per zone, each result goes to
//! `CharacterizationStore::record_with_health`, then the engine advances
//! to the next day (daily churn). Step: `poll_once`.

use sky_core::cloud::{Catalog, Provider};
use sky_core::faas::{FaasEngine, FleetConfig};
use sky_core::sim::{SimDuration, SimRng, SimTime};
use sky_core::{CampaignConfig, CharacterizationStore, PollConfig, SamplingCampaign};

use super::{check_spans, parse_zones, platform_counters, Episode, Length};
use crate::digest::Digest;
use crate::probe::{Layer, Probe};
use crate::replay::Schedule;

/// The eleven EX-3 zones, in the paper's order.
const ZONES: [&str; 11] = [
    "ca-central-1a",
    "eu-north-1a",
    "ap-northeast-1a",
    "sa-east-1a",
    "eu-central-1a",
    "ap-southeast-2a",
    "us-west-1a",
    "us-west-1b",
    "us-east-2a",
    "us-east-2b",
    "us-east-2c",
];

/// (days, polls per zone per day).
fn shape(len: Length) -> (u64, u64) {
    match len {
        Length::Bench => (2, 8),
        Length::Test => (2, 1),
    }
}

/// Steps in one episode.
pub fn steps(len: Length) -> u64 {
    let (days, polls) = shape(len);
    days * ZONES.len() as u64 * polls
}

/// One episode from a fresh world.
pub fn episode(seed: u64, len: Length, probe: &mut Probe) -> Episode {
    let (days, polls) = shape(len);
    let catalog = probe.call(Layer::CatalogBuild, &mut (), |_| Catalog::paper_world(seed));
    let mut engine = FaasEngine::new(catalog, FleetConfig::new(seed));
    let account = engine.create_account(Provider::Aws);
    let zones = parse_zones(&ZONES);
    let config = CampaignConfig::default();
    let deployments = config.deployments as u64;
    let mut store = CharacterizationStore::new();
    let mut digest = Digest::default();
    let mut sent = Vec::new();
    let (mut requests, mut failures, mut new_fis) = (0u64, 0u64, 0u64);

    for day in 0..days {
        if day > 0 {
            probe.call(Layer::Advance, &mut engine, |e| {
                e.advance_to(SimTime::start_of_day(day))
            });
        }
        let mut campaigns = Vec::with_capacity(zones.len());
        for az in &zones {
            let campaign = probe.call_as(
                &[(Layer::CampaignNew, 1), (Layer::Deploy, deployments)],
                &mut engine,
                |e| SamplingCampaign::new(e, account, az, config.clone()),
            );
            campaigns.push(campaign.expect("EX-3 zones accept the campaign's memory range"));
        }
        for (az, campaign) in zones.iter().zip(campaigns.iter_mut()) {
            for _ in 0..polls {
                let at = engine.now();
                let stats = probe.step(Layer::Poll, &mut engine, |e| campaign.poll_once(e));
                if stats.requests != config.poll.requests {
                    probe.fail_step("a poll resolved fewer requests than it sent");
                }
                check_spans(&engine, probe);
                sent.push(stats.requests as u32);
                requests += stats.requests as u64;
                failures += stats.failures as u64;
                new_fis += stats.new_fis;
                digest.str(&az.to_string());
                for v in [
                    stats.index as u64,
                    stats.requests as u64,
                    stats.failures as u64,
                    stats.unique_fis as u64,
                    stats.new_fis,
                    stats.cumulative_fis,
                    stats.started.as_micros(),
                    stats.finished.as_micros(),
                ] {
                    digest.u64(v);
                }
                digest.usd(stats.cost_usd);
                let mix = campaign.characterization().to_mix();
                let health = campaign.overall_failure_rate();
                probe.call(Layer::StoreRecord, &mut (), |_| {
                    store.record_with_health(
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
    }

    let (events, invocations) = probe.end(&engine);
    let mut counters = platform_counters(&engine);
    counters.extend([
        (
            "core.sampling.new_fis_per_request",
            new_fis as f64 / requests.max(1) as f64,
        ),
        (
            "core.sampling.failure_share",
            failures as f64 / requests.max(1) as f64,
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

/// Replay schedule: each poll's arrivals at the tree spread of
/// `PollConfig::arrival_offsets`, for the memory setting the campaign's
/// deployment rotation would use.
pub fn schedule(seed: u64, sent: &[u32]) -> Schedule {
    let config = CampaignConfig::default();
    let mut rng = SimRng::seed_from(seed).derive("perfbench-replay");
    let steps = sent
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let poll = PollConfig {
                requests: n as usize,
                ..config.poll
            };
            let memory = config.memory_base_mb + (i % config.deployments) as u32;
            poll.arrival_offsets(memory, &mut rng)
        })
        .collect();
    Schedule {
        steps,
        service: config.poll.sleep + SimDuration::from_millis(2),
    }
}
