//! The full sky-computing loop from the paper: profile a workload, learn
//! zone characterizations, then compare baseline / retry / hybrid routing
//! over several simulated days.
//!
//! ```bash
//! cargo run --release --example smart_routing_campaign
//! ```

use sky_core::cloud::{Arch, Catalog, Provider};
use sky_core::faas::{FaasEngine, FleetConfig};
use sky_core::sim::SimDuration;
use sky_core::workloads::WorkloadKind;
use sky_core::{
    savings_fraction, CharacterizationStore, PollConfig, RetryMode, RouterConfig, RoutingPolicy,
    SmartRouter, WorkloadProfiler,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut engine = FaasEngine::new(Catalog::paper_world(11), FleetConfig::new(11));
    let account = engine.create_account(Provider::Aws);
    let kind = WorkloadKind::GraphBfs;
    let baseline_az: sky_core::cloud::AzId = "us-west-1b".parse()?;
    let candidates: Vec<sky_core::cloud::AzId> = vec![
        "us-west-1a".parse()?,
        "us-west-1b".parse()?,
        "sa-east-1a".parse()?,
    ];

    // Deployments in every candidate zone (in production this is the sky
    // mesh; here three explicit endpoints keep the example focused).
    let mut deployments = std::collections::BTreeMap::new();
    for az in &candidates {
        deployments.insert(az.clone(), engine.deploy(account, az, 2048, Arch::X86_64)?);
    }

    // 1. Profile the workload once to learn its CPU hierarchy.
    let mut profiler = WorkloadProfiler::new();
    profiler.profile(&mut engine, deployments[&baseline_az], kind, 600, 200, 1);
    let table = profiler.into_table();
    println!("learned ranking for {kind}: {:?}\n", table.ranking(kind));
    engine.advance_by(SimDuration::from_mins(20));

    // 2. Daily loop: refresh characterizations, route, compare.
    let mut store = CharacterizationStore::new();
    let start = engine.now();
    for day in 0..5u64 {
        engine.advance_to(start + SimDuration::from_days(day) + SimDuration::from_hours(2));
        for az in &candidates {
            store.probe(&mut engine, account, az, 4, PollConfig::default())?;
        }
        let router = SmartRouter::new(store.clone(), table.clone(), RouterConfig::default());
        let resolve = |az: &sky_core::cloud::AzId| deployments.get(az).copied();
        let baseline = router.run_burst(
            &mut engine,
            kind,
            400,
            &RoutingPolicy::Baseline {
                az: baseline_az.clone(),
            },
            resolve,
        );
        engine.advance_by(SimDuration::from_mins(15));
        let hybrid = router.run_burst(
            &mut engine,
            kind,
            400,
            &RoutingPolicy::Hybrid {
                candidates: candidates.clone(),
                mode: RetryMode::RetrySlow,
            },
            resolve,
        );
        let per = |r: &sky_core::BurstReport| r.total_cost_usd() / r.completed.max(1) as f64;
        println!(
            "day {day}: baseline(us-west-1b) ${:.4}/1k vs hybrid({}) ${:.4}/1k -> {:+.1}% savings, {} retried",
            1_000.0 * per(&baseline),
            hybrid.az,
            1_000.0 * per(&hybrid),
            savings_fraction(per(&baseline), per(&hybrid)) * 100.0,
            hybrid.retried,
        );
    }
    println!(
        "\ntotal characterization spend: ${:.2}",
        store.total_cost_usd()
    );
    Ok(())
}
