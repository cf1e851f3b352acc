//! End-to-end integration of the streaming characterization path
//! (DESIGN.md §14): the faas engine's observation hook feeds production
//! completions into a [`StreamingCharacterizer`], the CUSUM detector
//! times targeted re-sampling, and the bandit routing policies learn
//! from realized burst cost — all deterministically.

use sky_bench::registry;
use sky_bench::sweep::Jobs;
use sky_bench::{Scale, WORLD_SEED};
use sky_cloud::{Arch, Catalog, PriceBook, Provider};
use sky_core::{
    CharacterizationStore, Characterizer, PollConfig, RouterConfig, RoutingPolicy, SmartRouter,
    StreamingCharacterizer, StreamingConfig, WorkloadProfiler,
};
use sky_faas::{FaasEngine, FleetConfig};
use sky_sim::SimDuration;
use sky_workloads::WorkloadKind;

fn az(name: &str) -> sky_cloud::AzId {
    name.parse().unwrap()
}

/// The observation hook delivers exactly the completions of production
/// traffic — off by default, zone-scoped, drained on take.
#[test]
fn observation_hook_feeds_streaming_characterizer_end_to_end() {
    let seed = 7;
    let mut engine = FaasEngine::new(Catalog::paper_world(seed), FleetConfig::new(seed));
    let account = engine.create_account(Provider::Aws);
    let zone = az("us-west-1b");
    let dep = engine.deploy(account, &zone, 2048, Arch::X86_64).unwrap();

    // Hook off: traffic leaves no observations behind.
    let mut profiler = WorkloadProfiler::new();
    profiler.profile(&mut engine, dep, WorkloadKind::Zipper, 50, 100, seed);
    assert!(
        engine.take_observations(&zone).is_empty(),
        "hook disabled must record nothing"
    );

    // Hook on: every completed invocation surfaces exactly once.
    engine.set_observation_hook(true);
    assert!(engine.observation_hook());
    engine.advance_by(SimDuration::from_mins(5));
    profiler.profile(&mut engine, dep, WorkloadKind::Zipper, 120, 100, seed + 1);
    let reports = engine.take_observations(&zone);
    assert!(
        !reports.is_empty() && reports.len() <= 120,
        "expected at most one report per completion, got {}",
        reports.len()
    );
    assert!(
        engine.take_observations(&zone).is_empty(),
        "take drains the buffer"
    );

    // The streaming characterizer turns the reports into an estimate
    // whose support stays inside the zone's actual hardware.
    let mut chr = StreamingCharacterizer::new(StreamingConfig::default());
    for report in &reports {
        assert_eq!(report.az, zone, "hook reports carry their zone");
        chr.observe(&zone, report);
    }
    assert_eq!(chr.observations(&zone), reports.len() as u64);
    let est = chr.estimate(&zone).expect("evidence exists");
    let truth = engine.platform(&zone).unwrap().ground_truth_mix();
    for (cpu, share) in est.iter() {
        assert!(
            truth.share(cpu) > 0.0 || share == 0.0,
            "estimate placed mass on {cpu:?} which the zone never ran"
        );
    }
    assert!(
        chr.last_evidence_at(&zone).is_some(),
        "evidence is timestamped"
    );
}

/// Bandit routing is deterministic (same seed, same choices) and
/// concentrates on the cheaper zone of a clearly separated pair.
#[test]
fn bandit_policies_are_deterministic_and_find_the_cheap_zone() {
    let candidates = vec![az("us-west-1b"), az("us-east-2a")];
    let run = |policy: &RoutingPolicy, seed: u64| -> (Vec<sky_cloud::AzId>, u64) {
        let mut engine = FaasEngine::new(Catalog::paper_world(seed), FleetConfig::new(seed));
        let account = engine.create_account(Provider::Aws);
        let mut deployments = std::collections::BTreeMap::new();
        for zone in &candidates {
            let dep = engine.deploy(account, zone, 2048, Arch::X86_64).unwrap();
            deployments.insert(zone.clone(), dep);
        }
        let mut profiler = WorkloadProfiler::new();
        profiler.profile(
            &mut engine,
            deployments[&candidates[0]],
            WorkloadKind::Zipper,
            300,
            100,
            seed,
        );
        let router = SmartRouter::new(
            CharacterizationStore::new(),
            profiler.into_table(),
            RouterConfig::default(),
        );
        let mut visits = Vec::new();
        let mut cost_nanousd = 0_u64;
        for _ in 0..24 {
            engine.advance_by(SimDuration::from_hours(4));
            let report = router.run_burst(&mut engine, WorkloadKind::Zipper, 60, policy, |z| {
                deployments.get(z).copied()
            });
            visits.push(report.az.clone());
            cost_nanousd += PriceBook::nano_usd(report.total_cost_usd());
        }
        (visits, cost_nanousd)
    };

    for policy in [
        RoutingPolicy::UcbAz {
            candidates: candidates.clone(),
        },
        RoutingPolicy::ThompsonAz {
            candidates: candidates.clone(),
        },
    ] {
        let (visits_a, cost_a) = run(&policy, 42);
        let (visits_b, cost_b) = run(&policy, 42);
        assert_eq!(visits_a, visits_b, "same seed must replay identically");
        assert_eq!(cost_a, cost_b);
        let cheap = visits_a.iter().filter(|z| **z == az("us-east-2a")).count();
        assert!(
            cheap > visits_a.len() / 2,
            "bandit should favor the homogeneous 2.5 GHz zone, visited it {cheap}/{}",
            visits_a.len()
        );
    }
}

/// The headline claim of the drift experiments, asserted from the
/// rendered reports: the verdict lines PASS at quick scale with the
/// golden-pinned seed.
#[test]
fn drift_experiment_verdicts_pass_at_quick_scale() {
    let exp = registry::find("fig_drift_regret").expect("registered");
    let text = registry::run_experiment(exp, Scale::Quick, Jobs::new(4), WORLD_SEED)
        .expect("fig_drift_regret runs")
        .text;
    assert!(
        text.contains("verdict: streaming < static per class (summed over budgets) and bandits < static's best: PASS"),
        "fig_drift_regret verdict regressed:\n{text}"
    );

    let exp = registry::find("ablation_drift_lag").expect("registered");
    let text = registry::run_experiment(exp, Scale::Quick, Jobs::new(4), WORLD_SEED)
        .expect("ablation_drift_lag runs")
        .text;
    // Every sweep cell fires at least once within the run: all six
    // (lambda, fault) rows show a concrete day in the "first fire"
    // column.
    assert_eq!(
        text.matches("day ").count(),
        6,
        "a detector cell never fired:\n{text}"
    );
}

/// The static characterizer reproduces the paper's probe-only behavior:
/// its estimate is the last probe's snapshot, and production traffic
/// teaches it nothing.
#[test]
fn static_characterizer_matches_store_snapshots() {
    let seed = 11;
    let mut engine = FaasEngine::new(Catalog::paper_world(seed), FleetConfig::new(seed));
    let account = engine.create_account(Provider::Aws);
    let zone = az("eu-central-1a");
    let mut store = CharacterizationStore::new();
    let snapshot = store
        .probe(&mut engine, account, &zone, 3, PollConfig::default())
        .unwrap();
    let (at, mix) = (snapshot.at, snapshot.mix.clone());

    let mut chr = sky_core::StaticCharacterizer::new(4);
    chr.record_probe(&zone, at, &mix);
    assert_eq!(chr.estimate(&zone), Some(mix.clone()));
    assert_eq!(chr.last_evidence_at(&zone), Some(at));

    // Production traffic must not move the static estimate.
    engine.set_observation_hook(true);
    let dep = engine.deploy(account, &zone, 2048, Arch::X86_64).unwrap();
    let mut profiler = WorkloadProfiler::new();
    profiler.profile(&mut engine, dep, WorkloadKind::Zipper, 80, 100, seed);
    for report in engine.take_observations(&zone) {
        chr.observe(&zone, &report);
    }
    assert_eq!(
        chr.estimate(&zone),
        Some(mix),
        "static path stays probe-only"
    );
}
