//! Fault-injection tests: zone outages, and the router's availability
//! behaviour when its candidate set spans zones (the sky-computing
//! aggregation dividend beyond cost).

use sky_cloud::{Arch, Catalog, FaultKind, FaultPlan, Provider};
use sky_core::{
    CampaignConfig, CharacterizationStore, PollConfig, RouterConfig, RoutingPolicy,
    SamplingCampaign, SmartRouter, WorkloadProfiler,
};
use sky_faas::{BatchRequest, FaasEngine, FleetConfig, InvocationStatus, RequestBody};
use sky_sim::SimDuration;
use sky_workloads::WorkloadKind;

fn world(seed: u64) -> (FaasEngine, sky_faas::AccountId) {
    let mut engine = FaasEngine::new(Catalog::paper_world(seed), FleetConfig::new(seed));
    let account = engine.create_account(Provider::Aws);
    (engine, account)
}

/// Arm a zone outage from now on through the engine's fault plan.
fn arm_outage(engine: &mut FaasEngine, az: &sky_cloud::AzId, duration: SimDuration) {
    let plan = FaultPlan::new()
        .with_event(az.clone(), engine.now(), duration, FaultKind::Outage)
        .unwrap();
    engine.set_fault_plan(&plan);
}

#[test]
fn outage_fails_new_placements_but_not_warm_instances() {
    let (mut engine, account) = world(201);
    let az: sky_cloud::AzId = "us-east-2a".parse().unwrap();
    let dep = engine.deploy(account, &az, 2048, Arch::X86_64).unwrap();

    // Warm up one FI.
    let warm = engine.run_batch(vec![BatchRequest {
        deployment: dep,
        offset: SimDuration::ZERO,
        body: RequestBody::Sleep {
            duration: SimDuration::from_millis(100),
        },
    }]);
    assert!(warm[0].status.is_success());

    arm_outage(&mut engine, &az, SimDuration::from_mins(30));

    // A sequential request rides the warm FI through the outage...
    let through = engine.run_batch(vec![BatchRequest {
        deployment: dep,
        offset: SimDuration::from_secs(5),
        body: RequestBody::Sleep {
            duration: SimDuration::from_millis(100),
        },
    }]);
    assert!(
        through[0].status.is_success(),
        "warm instances keep serving during the outage"
    );
    // ...but a concurrent burst needing fresh FIs mostly fails.
    let burst: Vec<BatchRequest> = (0..50)
        .map(|_| BatchRequest {
            deployment: dep,
            offset: SimDuration::from_secs(6),
            body: RequestBody::Sleep {
                duration: SimDuration::from_millis(100),
            },
        })
        .collect();
    let outcomes = engine.run_batch(burst);
    let failures = outcomes
        .iter()
        .filter(|o| o.status == InvocationStatus::NoCapacity)
        .count();
    assert!(
        failures >= 45,
        "outage should fail new placements: {failures}/50"
    );

    // After the outage window, placement recovers.
    engine.advance_by(SimDuration::from_mins(31));
    let after = engine.run_batch(
        (0..20)
            .map(|_| BatchRequest {
                deployment: dep,
                offset: SimDuration::ZERO,
                body: RequestBody::Sleep {
                    duration: SimDuration::from_millis(100),
                },
            })
            .collect(),
    );
    assert!(
        after.iter().all(|o| o.status.is_success()),
        "zone recovers after outage"
    );
}

#[test]
fn sampling_surfaces_outage_as_failure_rate() {
    let (mut engine, account) = world(202);
    let az: sky_cloud::AzId = "us-west-1a".parse().unwrap();
    let mut campaign = SamplingCampaign::new(
        &mut engine,
        account,
        &az,
        CampaignConfig {
            deployments: 4,
            poll: PollConfig {
                requests: 300,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let healthy = campaign.poll_once(&mut engine);
    assert_eq!(healthy.failures, 0);
    arm_outage(&mut engine, &az, SimDuration::from_hours(1));
    let sick = campaign.poll_once(&mut engine);
    assert!(
        sick.failure_rate() > 0.9,
        "probe doubles as a health check: {:.0}%",
        sick.failure_rate() * 100.0
    );
}

#[test]
fn router_routes_around_an_outaged_zone() {
    let (mut engine, account) = world(203);
    let primary: sky_cloud::AzId = "sa-east-1a".parse().unwrap(); // fast zone
    let fallback: sky_cloud::AzId = "us-west-1a".parse().unwrap();
    let dep_primary = engine
        .deploy(account, &primary, 2048, Arch::X86_64)
        .unwrap();
    let dep_fallback = engine
        .deploy(account, &fallback, 2048, Arch::X86_64)
        .unwrap();

    let mut profiler = WorkloadProfiler::new();
    profiler.profile(
        &mut engine,
        dep_fallback,
        WorkloadKind::GraphMst,
        300,
        150,
        7,
    );
    let table = profiler.into_table();
    engine.advance_by(SimDuration::from_mins(15));

    // Sample both zones while healthy: the fast zone wins.
    let sample =
        |engine: &mut FaasEngine, store: &mut CharacterizationStore, az: &sky_cloud::AzId| {
            store
                .probe(engine, account, az, 3, PollConfig::default())
                .unwrap();
        };
    let mut store = CharacterizationStore::new();
    sample(&mut engine, &mut store, &primary);
    sample(&mut engine, &mut store, &fallback);
    let router = SmartRouter::new(store, table.clone(), RouterConfig::default());
    let candidates = vec![primary.clone(), fallback.clone()];
    assert_eq!(
        router.choose_az(WorkloadKind::GraphMst, &candidates, engine.now()),
        primary,
        "healthy: the fast zone is chosen"
    );

    // Outage in the fast zone; the next sampling round sees it.
    arm_outage(&mut engine, &primary, SimDuration::from_hours(4));
    let mut store = CharacterizationStore::new();
    sample(&mut engine, &mut store, &primary);
    sample(&mut engine, &mut store, &fallback);
    let latest = store.latest(&primary).unwrap();
    assert!(!latest.healthy(), "probe saw the outage");
    let router = SmartRouter::new(store, table, RouterConfig::default());
    let chosen = router.choose_az(WorkloadKind::GraphMst, &candidates, engine.now());
    assert_eq!(
        chosen, fallback,
        "router must route around the outaged zone"
    );

    // And a burst through the regional policy actually completes there.
    let report = router.run_burst(
        &mut engine,
        WorkloadKind::GraphMst,
        100,
        &RoutingPolicy::Regional { candidates },
        |az| {
            if az == &primary {
                Some(dep_primary)
            } else {
                Some(dep_fallback)
            }
        },
    );
    assert_eq!(report.az, fallback);
    assert!(report.completed >= 99);
}

// ---------------------------------------------------------------------
// Scheduled fault classes (FaultPlan) and the resilient client.
// ---------------------------------------------------------------------

use sky_faas::WorkloadSpec;

#[test]
fn throttle_storm_sheds_arrivals_then_recovers() {
    let (mut engine, account) = world(204);
    let az: sky_cloud::AzId = "us-east-2a".parse().unwrap();
    let dep = engine.deploy(account, &az, 2048, Arch::X86_64).unwrap();
    let plan = FaultPlan::new()
        .with_event(
            az.clone(),
            engine.now() + SimDuration::from_secs(1),
            SimDuration::from_mins(10),
            FaultKind::ThrottleStorm { reject_prob: 0.7 },
        )
        .unwrap();
    engine.set_fault_plan(&plan);
    engine.advance_by(SimDuration::from_secs(2));

    let burst = |engine: &mut FaasEngine| {
        engine.run_batch(
            (0..200)
                .map(|_| BatchRequest {
                    deployment: dep,
                    offset: SimDuration::ZERO,
                    body: RequestBody::Sleep {
                        duration: SimDuration::from_millis(50),
                    },
                })
                .collect(),
        )
    };
    let during = burst(&mut engine);
    let throttled = during
        .iter()
        .filter(|o| o.status == InvocationStatus::Throttled)
        .count();
    assert!(
        (100..=180).contains(&throttled),
        "~70% of arrivals shed during the storm: {throttled}/200"
    );
    // Shed arrivals are rejected at the front door: nothing billed.
    assert!(during
        .iter()
        .filter(|o| o.status == InvocationStatus::Throttled)
        .all(|o| o.cost_usd == 0.0));

    engine.advance_by(SimDuration::from_mins(11));
    let after = burst(&mut engine);
    assert!(
        after.iter().all(|o| o.status.is_success()),
        "zone serves everything once the storm passes"
    );
}

#[test]
fn gray_degradation_slows_workloads_without_failing_them() {
    let run = |slowdown: Option<f64>| {
        let (mut engine, account) = world(205);
        let az: sky_cloud::AzId = "us-east-2a".parse().unwrap();
        let dep = engine.deploy(account, &az, 2048, Arch::X86_64).unwrap();
        if let Some(slowdown) = slowdown {
            let plan = FaultPlan::new()
                .with_event(
                    az,
                    engine.now() + SimDuration::from_secs(1),
                    SimDuration::from_hours(1),
                    FaultKind::GrayDegradation { slowdown },
                )
                .unwrap();
            engine.set_fault_plan(&plan);
        }
        engine.advance_by(SimDuration::from_secs(2));
        let outcomes = engine.run_batch(
            (0..40)
                .map(|_| BatchRequest {
                    deployment: dep,
                    offset: SimDuration::ZERO,
                    body: RequestBody::Workload {
                        spec: WorkloadSpec::new(WorkloadKind::Sha1Hash),
                    },
                })
                .collect(),
        );
        assert!(
            outcomes.iter().all(|o| o.status.is_success()),
            "gray degradation is silent: every request still succeeds"
        );
        let mean_secs = outcomes
            .iter()
            .map(|o| o.finished.saturating_since(o.arrived).as_secs_f64())
            .sum::<f64>()
            / outcomes.len() as f64;
        mean_secs
    };
    let healthy = run(None);
    let degraded = run(Some(2.0));
    assert!(
        degraded > healthy * 1.6 && degraded < healthy * 2.6,
        "2x gray slowdown should roughly double latency: {healthy:.2}s -> {degraded:.2}s"
    );
}

#[test]
#[ignore = "full-scale chaos sweep; CI's full-scale job runs it via --ignored"]
fn full_scale_resilient_domination() {
    use sky_bench::faults::fig_faults_rows;
    use sky_bench::sweep::Jobs;
    use sky_bench::{Scale, WORLD_SEED};
    for row in fig_faults_rows(Scale::Full, Jobs::host(), WORLD_SEED) {
        assert!(
            row.resilient.goodput > row.baseline.goodput,
            "{}: resilient {:.3} vs baseline {:.3}",
            row.class.label(),
            row.resilient.goodput,
            row.baseline.goodput
        );
        assert!(
            row.resilient.goodput >= 0.9,
            "{}: full-scale goodput floor: {:.3}",
            row.class.label(),
            row.resilient.goodput
        );
    }
}
