//! Whole-stack determinism: the reproducibility guarantee every figure
//! depends on. The same seed must reproduce every campaign and burst
//! bit-for-bit; a different seed must actually change the world.

use sky_cloud::{Arch, Catalog, Provider};
use sky_core::{
    CampaignConfig, CharacterizationStore, PollConfig, RetryMode, RouterConfig, RoutingPolicy,
    SamplingCampaign, SmartRouter, WorkloadProfiler,
};
use sky_faas::{FaasEngine, FleetConfig};
use sky_sim::SimDuration;
use sky_workloads::WorkloadKind;

fn campaign_fingerprint(seed: u64) -> Vec<(u64, usize, String)> {
    let mut engine = FaasEngine::new(Catalog::paper_world(seed), FleetConfig::new(seed));
    let account = engine.create_account(Provider::Aws);
    let az = "us-west-1b".parse().unwrap();
    let config = CampaignConfig {
        deployments: 6,
        poll: PollConfig {
            requests: 400,
            ..Default::default()
        },
        max_polls: 6,
        ..Default::default()
    };
    let mut campaign = SamplingCampaign::new(&mut engine, account, &az, config).unwrap();
    campaign
        .run_polls(&mut engine, 6)
        .into_iter()
        .map(|p| (p.cumulative_fis, p.failures, format!("{:?}", p.mix_after)))
        .collect()
}

#[test]
fn sampling_campaign_is_bit_reproducible() {
    let a = campaign_fingerprint(777);
    let b = campaign_fingerprint(777);
    assert_eq!(a, b);
    let c = campaign_fingerprint(778);
    assert_ne!(a, c, "different seeds must yield different worlds");
}

fn burst_fingerprint(seed: u64) -> (f64, u64, usize) {
    let mut engine = FaasEngine::new(Catalog::paper_world(seed), FleetConfig::new(seed));
    let account = engine.create_account(Provider::Aws);
    let az: sky_cloud::AzId = "us-west-1a".parse().unwrap();
    let dep = engine.deploy(account, &az, 2048, Arch::X86_64).unwrap();
    let mut profiler = WorkloadProfiler::new();
    profiler.profile(&mut engine, dep, WorkloadKind::GraphBfs, 200, 100, seed);
    let table = profiler.into_table();
    engine.advance_by(SimDuration::from_mins(15));
    let router = SmartRouter::new(CharacterizationStore::new(), table, RouterConfig::default());
    let report = router.run_burst(
        &mut engine,
        WorkloadKind::GraphBfs,
        200,
        &RoutingPolicy::Retry {
            az,
            mode: RetryMode::RetrySlow,
        },
        |_| Some(dep),
    );
    (report.total_cost_usd(), report.attempts, report.completed)
}

#[test]
fn routing_burst_is_bit_reproducible() {
    assert_eq!(burst_fingerprint(900), burst_fingerprint(900));
}

#[test]
fn catalog_serialization_is_stable() {
    let a = serde_json::to_string(&Catalog::paper_world(5)).unwrap();
    let b = serde_json::to_string(&Catalog::paper_world(5)).unwrap();
    assert_eq!(a, b);
    let back: Catalog = serde_json::from_str(&a).unwrap();
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        a,
        "roundtrip is a fixpoint"
    );
}

#[test]
fn kernels_are_platform_independent_fixtures() {
    // Pin a few kernel checksums: these must never change silently, or
    // every recorded experiment fingerprint changes meaning.
    use sky_workloads::{execute, EphemeralFs, WorkloadRequest};
    let mut checksums = Vec::new();
    for kind in WorkloadKind::ALL {
        let mut fs = EphemeralFs::new();
        checksums.push(execute(&WorkloadRequest::new(kind, 2024), &mut fs).checksum);
    }
    // Self-consistency (same process, second run).
    for (kind, &expected) in WorkloadKind::ALL.iter().zip(&checksums) {
        let mut fs = EphemeralFs::new();
        assert_eq!(
            execute(&WorkloadRequest::new(*kind, 2024), &mut fs).checksum,
            expected,
            "{kind} kernel unstable"
        );
    }
}

#[test]
fn fault_sweep_is_jobs_invariant() {
    // The determinism matrix: the fig_faults experiment — every cell
    // running under an active FaultPlan — must render byte-identically
    // whether the sweep runner uses 1, 2 or 8 worker threads.
    use sky_bench::faults::{fig_faults_rows, render_fig_faults};
    use sky_bench::sweep::Jobs;
    use sky_bench::{Scale, WORLD_SEED};

    let reference = render_fig_faults(&fig_faults_rows(Scale::Quick, Jobs::serial(), WORLD_SEED));
    for jobs in [1, 2, 8] {
        let rendered =
            render_fig_faults(&fig_faults_rows(Scale::Quick, Jobs::new(jobs), WORLD_SEED));
        assert_eq!(
            rendered, reference,
            "--jobs {jobs} changed the fig_faults bytes"
        );
    }
}

#[test]
fn fault_metric_snapshots_are_jobs_invariant() {
    // Metric snapshots of the fig_faults experiment (every cell running
    // under an active FaultPlan) must export byte-identical Prometheus
    // text and JSON at any worker count: per-cell snapshots merge in
    // item order and merging is order-normalized.
    use sky_bench::report::fig_faults_metrics;
    use sky_bench::sweep::Jobs;
    use sky_bench::{Scale, WORLD_SEED};

    let reference = fig_faults_metrics(Scale::Quick, Jobs::serial(), WORLD_SEED);
    let (ref_prom, ref_json) = (reference.to_prometheus_text(), reference.to_json());
    assert!(!reference.entries.is_empty(), "snapshot must not be empty");
    for jobs in [1, 2, 8] {
        let snap = fig_faults_metrics(Scale::Quick, Jobs::new(jobs), WORLD_SEED);
        assert_eq!(
            snap.to_prometheus_text(),
            ref_prom,
            "--jobs {jobs} changed the fig_faults Prometheus bytes"
        );
        assert_eq!(
            snap.to_json(),
            ref_json,
            "--jobs {jobs} changed the fig_faults JSON bytes"
        );
    }
}

#[test]
fn daily_routing_metric_snapshot_is_reproducible() {
    // The multi-day routing experiment (no FaultPlan) must produce the
    // same metric bytes on every run from the same seed.
    use sky_bench::report::daily_routing_metrics;
    use sky_bench::{Scale, WORLD_SEED};

    let a = daily_routing_metrics(Scale::Quick, WORLD_SEED);
    let b = daily_routing_metrics(Scale::Quick, WORLD_SEED);
    assert!(!a.entries.is_empty(), "snapshot must not be empty");
    assert_eq!(a.to_prometheus_text(), b.to_prometheus_text());
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn unreached_fault_plan_is_metrics_neutral() {
    // An armed-but-never-reached FaultPlan must not perturb a single
    // metric byte: fault coin flips live on dedicated RNG streams and
    // fault metrics only record when a window actually arms.
    use sky_cloud::{AzId, FaultKind, FaultPlan};
    use sky_core::{ResilienceConfig, ResilientClient};

    fn run(with_plan: bool) -> String {
        let mut engine = FaasEngine::new(Catalog::paper_world(7), FleetConfig::new(7));
        let account = engine.create_account(Provider::Aws);
        let az: AzId = "us-east-2a".parse().unwrap();
        let dep = engine.deploy(account, &az, 2048, Arch::X86_64).unwrap();
        if with_plan {
            let plan = FaultPlan::new()
                .with_event(
                    az.clone(),
                    engine.now() + SimDuration::from_days(30),
                    SimDuration::from_hours(1),
                    FaultKind::Outage,
                )
                .unwrap();
            engine.set_fault_plan(&plan);
        }
        let mut client = ResilientClient::with_defaults(ResilienceConfig::default());
        client.run_burst(&mut engine, WorkloadKind::Sha1Hash, 25, &[az], |_| {
            Some(dep)
        });
        let mut snap = engine.metrics_snapshot();
        snap.merge(&client.metrics_snapshot());
        snap.to_prometheus_text()
    }

    assert_eq!(
        run(false),
        run(true),
        "an unreached FaultPlan changed the metric bytes"
    );
}

#[test]
fn exec_mode_sweep_is_jobs_invariant() {
    // The lifecycle matrix — six exec modes, each with its own pool /
    // snapshot state machine — must render byte-identically whether the
    // sweep runner uses 1, 2 or 8 worker threads.
    use sky_bench::exec_modes::{fig_exec_modes_rows, render_fig_exec_modes};
    use sky_bench::sweep::Jobs;
    use sky_bench::{Scale, WORLD_SEED};

    let reference = render_fig_exec_modes(&fig_exec_modes_rows(
        Scale::Quick,
        Jobs::serial(),
        WORLD_SEED,
    ));
    for jobs in [1, 2, 8] {
        let rendered = render_fig_exec_modes(&fig_exec_modes_rows(
            Scale::Quick,
            Jobs::new(jobs),
            WORLD_SEED,
        ));
        assert_eq!(
            rendered, reference,
            "--jobs {jobs} changed the fig_exec_modes bytes"
        );
    }
}

#[test]
fn mode_routing_sweep_is_jobs_invariant() {
    // The steering x mode grid runs the CPU-gated client against
    // snapshot-restoring deployments; retries, restores and declines
    // must all stay on per-cell RNG streams.
    use sky_bench::exec_modes::{ablation_mode_routing_rows, render_ablation_mode_routing};
    use sky_bench::sweep::Jobs;
    use sky_bench::{Scale, WORLD_SEED};

    let reference = render_ablation_mode_routing(&ablation_mode_routing_rows(
        Scale::Quick,
        Jobs::serial(),
        WORLD_SEED,
    ));
    for jobs in [1, 2, 8] {
        let rendered = render_ablation_mode_routing(&ablation_mode_routing_rows(
            Scale::Quick,
            Jobs::new(jobs),
            WORLD_SEED,
        ));
        assert_eq!(
            rendered, reference,
            "--jobs {jobs} changed the ablation_mode_routing bytes"
        );
    }
}

#[test]
fn exec_mode_metric_snapshots_are_jobs_invariant() {
    // Merged per-arm metric snapshots of the lifecycle matrix must
    // export byte-identical Prometheus text at any worker count.
    use sky_bench::exec_modes::fig_exec_modes_with_metrics;
    use sky_bench::sweep::Jobs;
    use sky_bench::{Scale, WORLD_SEED};

    let (_, reference) = fig_exec_modes_with_metrics(Scale::Quick, Jobs::serial(), WORLD_SEED);
    assert!(!reference.entries.is_empty(), "snapshot must not be empty");
    let ref_prom = reference.to_prometheus_text();
    for jobs in [1, 2, 8] {
        let (_, snap) = fig_exec_modes_with_metrics(Scale::Quick, Jobs::new(jobs), WORLD_SEED);
        assert_eq!(
            snap.to_prometheus_text(),
            ref_prom,
            "--jobs {jobs} changed the fig_exec_modes metric bytes"
        );
    }
}

#[test]
fn seed_reaches_every_world() {
    // `--seed` must reach every world these experiments and the report
    // build; each once built its worlds from the default seed.
    use sky_bench::registry;
    use sky_bench::report::report_snapshot;
    use sky_bench::sweep::Jobs;
    use sky_bench::Scale;

    for name in ["fig_faults", "fig_exec_modes", "ablation_mode_routing"] {
        let exp = registry::find(name).expect("registered");
        let text = |seed| {
            registry::run_experiment(exp, Scale::Quick, Jobs::new(2), seed)
                .unwrap_or_else(|e| panic!("{name} at seed {seed} failed: {e}"))
                .text
        };
        assert!(text(42) != text(43), "{name} ignores the seed");
    }
    let report = |seed| report_snapshot(Scale::Quick, Jobs::new(2), seed);
    assert!(report(42) != report(43), "the report ignores the seed");
}
