//! End-to-end integration of the routing stack (EX-5): profile → learn →
//! sample → route, asserting the paper's headline result — exploiting
//! hidden heterogeneity saves money — survives the full pipeline.

use sky_cloud::{Arch, Catalog, CpuType, Provider};
use sky_core::{
    savings_fraction, CharacterizationStore, PollConfig, RetryMode, RouterConfig, RoutingPolicy,
    SmartRouter, WorkloadProfiler,
};
use sky_faas::{FaasEngine, FleetConfig};
use sky_sim::SimDuration;
use sky_workloads::WorkloadKind;

struct Rig {
    engine: FaasEngine,
    account: sky_faas::AccountId,
}

impl Rig {
    fn new(seed: u64) -> Rig {
        let mut engine = FaasEngine::new(Catalog::paper_world(seed), FleetConfig::new(seed));
        let account = engine.create_account(Provider::Aws);
        Rig { engine, account }
    }
}

#[test]
fn full_pipeline_focus_fastest_saves_on_diverse_zone() {
    let mut rig = Rig::new(101);
    let az: sky_cloud::AzId = "us-west-1b".parse().unwrap();
    let dep = rig
        .engine
        .deploy(rig.account, &az, 2048, Arch::X86_64)
        .unwrap();

    // 1. Profile the workload (learn the CPU hierarchy from reports).
    let mut profiler = WorkloadProfiler::new();
    profiler.profile(
        &mut rig.engine,
        dep,
        WorkloadKind::MatrixMultiply,
        500,
        150,
        1,
    );
    let table = profiler.into_table();
    assert_eq!(
        table.fastest(WorkloadKind::MatrixMultiply),
        Some(CpuType::IntelXeon3_0)
    );
    rig.engine.advance_by(SimDuration::from_mins(15));

    // 2. Route with and without the retry policy.
    let router = SmartRouter::new(CharacterizationStore::new(), table, RouterConfig::default());
    let baseline = router.run_burst(
        &mut rig.engine,
        WorkloadKind::MatrixMultiply,
        400,
        &RoutingPolicy::Baseline { az: az.clone() },
        |_| Some(dep),
    );
    rig.engine.advance_by(SimDuration::from_mins(15));
    let focus = router.run_burst(
        &mut rig.engine,
        WorkloadKind::MatrixMultiply,
        400,
        &RoutingPolicy::Retry {
            az: az.clone(),
            mode: RetryMode::FocusFastest,
        },
        |_| Some(dep),
    );
    let per = |r: &sky_core::BurstReport| r.total_cost_usd() / r.completed.max(1) as f64;
    let savings = savings_fraction(per(&baseline), per(&focus));
    assert!(
        savings > 0.03,
        "focus-fastest must save on a diverse zone: {:.1}%",
        savings * 100.0
    );
    assert!(
        focus.retried_fraction() > 0.3,
        "paper: a large share of invocations retry"
    );
    // Completed work ends exclusively on the fastest CPU.
    let non_fast: u64 = focus
        .cpu_counts
        .iter()
        .filter(|(&c, _)| c != CpuType::IntelXeon3_0)
        .map(|(_, &n)| n)
        .sum();
    assert_eq!(non_fast, 0);
}

#[test]
fn sampled_characterizations_steer_regional_routing() {
    let mut rig = Rig::new(102);
    let slow_zone: sky_cloud::AzId = "us-west-1b".parse().unwrap();
    let fast_zone: sky_cloud::AzId = "sa-east-1a".parse().unwrap();
    let dep_slow = rig
        .engine
        .deploy(rig.account, &slow_zone, 2048, Arch::X86_64)
        .unwrap();
    let dep_fast = rig
        .engine
        .deploy(rig.account, &fast_zone, 2048, Arch::X86_64)
        .unwrap();

    // Profile on the slow zone (covers all four CPUs).
    let mut profiler = WorkloadProfiler::new();
    profiler.profile(
        &mut rig.engine,
        dep_slow,
        WorkloadKind::PageRank,
        400,
        150,
        2,
    );
    let table = profiler.into_table();
    rig.engine.advance_by(SimDuration::from_mins(15));

    // Sample both zones for the store (the router's only knowledge).
    let mut store = CharacterizationStore::new();
    for az in [&slow_zone, &fast_zone] {
        store
            .probe(&mut rig.engine, rig.account, az, 4, PollConfig::default())
            .unwrap();
    }
    let router = SmartRouter::new(store, table, RouterConfig::default());

    // sa-east-1a has the 3.0GHz-heavy mix: regional routing must pick it.
    let chosen = router.choose_az(
        WorkloadKind::PageRank,
        &[slow_zone.clone(), fast_zone.clone()],
        rig.engine.now(),
    );
    assert_eq!(chosen, fast_zone);

    let baseline = router.run_burst(
        &mut rig.engine,
        WorkloadKind::PageRank,
        300,
        &RoutingPolicy::Baseline {
            az: slow_zone.clone(),
        },
        |az| {
            if az == &slow_zone {
                Some(dep_slow)
            } else {
                Some(dep_fast)
            }
        },
    );
    rig.engine.advance_by(SimDuration::from_mins(15));
    let regional = router.run_burst(
        &mut rig.engine,
        WorkloadKind::PageRank,
        300,
        &RoutingPolicy::Regional {
            candidates: vec![slow_zone.clone(), fast_zone.clone()],
        },
        |az| {
            if az == &slow_zone {
                Some(dep_slow)
            } else {
                Some(dep_fast)
            }
        },
    );
    assert_eq!(regional.az, fast_zone);
    let per = |r: &sky_core::BurstReport| r.total_cost_usd() / r.completed.max(1) as f64;
    assert!(
        per(&regional) < per(&baseline),
        "regional routing to the fast zone must be cheaper"
    );
}

#[test]
fn retry_overhead_stays_within_paper_scale() {
    let mut rig = Rig::new(103);
    let az: sky_cloud::AzId = "us-west-1b".parse().unwrap();
    let dep = rig
        .engine
        .deploy(rig.account, &az, 2048, Arch::X86_64)
        .unwrap();
    let mut profiler = WorkloadProfiler::new();
    profiler.profile(&mut rig.engine, dep, WorkloadKind::Zipper, 400, 150, 3);
    let table = profiler.into_table();
    rig.engine.advance_by(SimDuration::from_mins(15));
    let router = SmartRouter::new(CharacterizationStore::new(), table, RouterConfig::default());
    let focus = router.run_burst(
        &mut rig.engine,
        WorkloadKind::Zipper,
        1_000,
        &RoutingPolicy::Retry {
            az,
            mode: RetryMode::FocusFastest,
        },
        |_| Some(dep),
    );
    // Paper §4.6: ~5 retries on average to land 1,000 invocations on the
    // 3.0GHz CPU, adding ~$0.03 to the workload.
    let mean_attempts = focus.attempts as f64 / focus.n as f64;
    assert!(
        (2.0..10.0).contains(&mean_attempts),
        "mean attempts per request {mean_attempts:.2} out of the paper's scale"
    );
    assert!(
        focus.retry_cost_usd < 0.10,
        "retry overhead for a 1,000-burst should be cents: ${:.3}",
        focus.retry_cost_usd
    );
    assert!(
        focus.retry_cost_usd > 0.005,
        "but not free: ${:.4}",
        focus.retry_cost_usd
    );
}

#[test]
fn ungated_policies_never_retry() {
    let mut rig = Rig::new(104);
    let az: sky_cloud::AzId = "eu-central-1a".parse().unwrap();
    let dep = rig
        .engine
        .deploy(rig.account, &az, 2048, Arch::X86_64)
        .unwrap();
    let router = SmartRouter::default();
    let report = router.run_burst(
        &mut rig.engine,
        WorkloadKind::Sha1Hash,
        200,
        &RoutingPolicy::Baseline { az },
        |_| Some(dep),
    );
    assert_eq!(report.retried, 0);
    assert_eq!(report.attempts, 200);
    assert_eq!(report.retry_cost_usd, 0.0);
    assert_eq!(report.completed + report.errors, 200);
}
