//! Request-span lifecycle invariants: every submitted request opens and
//! closes exactly one span, phase durations partition end-to-end latency
//! *exactly* (integer microseconds), and no span survives engine
//! teardown (the engine asserts `open_count() == 0` after every batch —
//! these tests drive enough traffic through cold starts, throttles and
//! retries to make that assertion bite if the accounting ever drifts).

use sky_cloud::{Arch, Catalog, Provider};
use sky_faas::{BatchRequest, FaasEngine, FleetConfig, RequestBody, WorkloadSpec};
use sky_sim::{MetricValue, MetricsSnapshot, SimDuration, SimRng};
use sky_workloads::WorkloadKind;

fn new_engine(seed: u64) -> FaasEngine {
    FaasEngine::new(Catalog::paper_world(seed), FleetConfig::new(seed))
}

/// Sum one span histogram (count, sum) across all AZ label values.
fn span_hist_totals(snap: &MetricsSnapshot, name: &str) -> (u64, u64) {
    let mut count = 0;
    let mut sum = 0;
    for e in snap.subsystem("span") {
        if e.name != name {
            continue;
        }
        if let MetricValue::Histogram(ref h) = e.value {
            count += h.count;
            sum += h.sum;
        }
    }
    (count, sum)
}

#[test]
fn every_request_closes_exactly_one_span() {
    let mut engine = new_engine(11);
    let account = engine.create_account(Provider::Aws);
    let az: sky_cloud::AzId = "us-west-1b".parse().unwrap();
    let dep = engine.deploy(account, &az, 2048, Arch::X86_64).unwrap();
    let mut issued = 0u64;
    for batch in 0..5u64 {
        let n = 20 + batch as usize * 7;
        let requests: Vec<BatchRequest> = (0..n)
            .map(|i| BatchRequest {
                deployment: dep,
                offset: SimDuration::from_millis(i as u64 * 3),
                body: RequestBody::Workload {
                    spec: WorkloadSpec::new(WorkloadKind::Sha1Hash),
                },
            })
            .collect();
        issued += n as u64;
        engine.run_batch(requests);
        assert_eq!(engine.spans().open_count(), 0, "no span survives a batch");
        engine.advance_by(SimDuration::from_mins(2));
    }
    assert_eq!(engine.spans().opened_total(), issued);
    assert_eq!(engine.spans().closed_total(), issued);
}

#[test]
fn span_phases_partition_end_to_end_latency() {
    // The span histograms must satisfy the exact integer identity
    //   Σ route + Σ cold_start + Σ warm_start + Σ execute == Σ e2e
    // and every request contributes to exactly one of cold/warm. Besides
    // plain sleeps, each batch carries gated requests whose ban set
    // forces declines (the reissue waits land in the route phase) and
    // repeated identical specs against a result-cached deployment (hits
    // close zero-length spans at arrival).
    use sky_cloud::{CpuSet, CpuType};
    use sky_faas::ExecProfile;

    let mut engine = new_engine(23);
    let account = engine.create_account(Provider::Aws);
    let az: sky_cloud::AzId = "us-east-2b".parse().unwrap();
    let dep = engine.deploy(account, &az, 2048, Arch::X86_64).unwrap();
    // A mixed zone where banning all but the 3.0 GHz Xeon declines most
    // first placements.
    let mixed: sky_cloud::AzId = "us-west-1b".parse().unwrap();
    let gated = engine.deploy(account, &mixed, 2048, Arch::X86_64).unwrap();
    let banned: CpuSet = CpuType::AWS_X86
        .iter()
        .copied()
        .filter(|&c| c != CpuType::IntelXeon3_0)
        .collect();
    // The TTL outlives every gap between batches, so each batch after
    // the first replays the first batch's results.
    let cached = engine.deploy(account, &az, 2048, Arch::X86_64).unwrap();
    engine.set_exec_profile(
        cached,
        ExecProfile::default().with_result_cache_ttl(SimDuration::from_hours(1)),
    );
    let mut rng = SimRng::seed_from(0x5fa2_2026);
    let mut issued = 0u64;
    for _ in 0..4 {
        let n = rng.range_inclusive(10, 60) as usize;
        let mut requests: Vec<BatchRequest> = (0..n)
            .map(|i| BatchRequest {
                deployment: dep,
                offset: SimDuration::from_millis(i as u64 * rng.range_inclusive(0, 9)),
                body: RequestBody::Sleep {
                    duration: SimDuration::from_millis(rng.range_inclusive(20, 400)),
                },
            })
            .collect();
        requests.extend((0..n).map(|i| BatchRequest {
            deployment: gated,
            offset: SimDuration::from_millis(i as u64 % 20),
            body: RequestBody::GatedWorkload {
                spec: WorkloadSpec::new(WorkloadKind::Sha1Hash),
                banned,
                hold: SimDuration::from_millis(150),
                max_retries: 25,
                retry_latency: SimDuration::from_millis(60),
            },
        }));
        requests.extend((0..n).map(|i| BatchRequest {
            deployment: cached,
            offset: SimDuration::from_millis(i as u64),
            body: RequestBody::Workload {
                spec: WorkloadSpec::new(WorkloadKind::Sha1Hash),
            },
        }));
        issued += requests.len() as u64;
        engine.run_batch(requests);
        engine.advance_by(SimDuration::from_mins(rng.range_inclusive(1, 30)));
    }

    let snap = engine.metrics_snapshot();
    assert!(
        snap.counter_sum("faas", "gated_retries") > 0,
        "the ban set must force reissues"
    );
    assert!(
        snap.counter_sum("faas", "result_cache_hits") > 0,
        "repeated specs must hit the result cache"
    );
    assert_eq!(engine.spans().opened_total(), issued);
    assert_eq!(engine.spans().closed_total(), issued);

    let (e2e_n, e2e_sum) = span_hist_totals(&snap, "e2e_us");
    let (route_n, route_sum) = span_hist_totals(&snap, "route_us");
    let (cold_n, cold_sum) = span_hist_totals(&snap, "cold_start_us");
    let (warm_n, warm_sum) = span_hist_totals(&snap, "warm_start_us");
    let (exec_n, exec_sum) = span_hist_totals(&snap, "execute_us");

    assert_eq!(e2e_n, engine.spans().closed_total());
    assert_eq!(route_n, e2e_n, "every span records a route phase");
    assert_eq!(exec_n, e2e_n, "every span records an execute phase");
    assert_eq!(
        cold_n + warm_n,
        e2e_n,
        "every span starts exactly once, cold or warm"
    );
    assert_eq!(
        route_sum + cold_sum + warm_sum + exec_sum,
        e2e_sum,
        "phase durations must sum exactly to end-to-end latency"
    );
}

#[test]
fn shed_requests_still_close_their_spans() {
    // Saturate a zone so some arrivals are shed (throttled/no-capacity):
    // shed requests must still open and close exactly one (zero-length)
    // span each.
    let mut engine = new_engine(31);
    let account = engine.create_account(Provider::Aws);
    let az: sky_cloud::AzId = "sa-east-1a".parse().unwrap();
    let dep = engine.deploy(account, &az, 1024, Arch::X86_64).unwrap();
    // The per-account concurrency quota is 1000, so a 1100-wide wave of
    // same-instant 2 s sleeps must throttle the overflow.
    let n = 1_100;
    let requests: Vec<BatchRequest> = (0..n)
        .map(|_| BatchRequest {
            deployment: dep,
            offset: SimDuration::ZERO,
            body: RequestBody::Sleep {
                duration: SimDuration::from_secs(2),
            },
        })
        .collect();
    let outcomes = engine.run_batch(requests);
    assert_eq!(outcomes.len(), n);
    assert_eq!(engine.spans().open_count(), 0);
    assert_eq!(engine.spans().opened_total(), n as u64);
    assert_eq!(engine.spans().closed_total(), n as u64);
    let snap = engine.metrics_snapshot();
    let shed = snap.counter_sum("faas", "requests")
        - snap
            .counter(
                "faas",
                "requests",
                &[("az", "sa-east-1a"), ("status", "success")],
            )
            .unwrap_or(0)
        - snap
            .counter(
                "faas",
                "requests",
                &[("az", "sa-east-1a"), ("status", "declined")],
            )
            .unwrap_or(0);
    assert!(shed > 0, "the burst must actually shed some requests");
    let (e2e_n, _) = span_hist_totals(&snap, "e2e_us");
    assert_eq!(e2e_n, n as u64, "shed requests still record an e2e span");
}

#[test]
fn restore_spans_extend_the_phase_partition() {
    // Under a snapshot-restoring lifecycle the start phase gains a third
    // class: the exact identity becomes
    //   Σ route + Σ cold + Σ restore + Σ warm + Σ execute == Σ e2e
    // and every span still starts exactly once — cold, restored (which
    // also covers CoW branches) or warm.
    use sky_faas::{ExecMode, ExecProfile};

    let mut engine = new_engine(47);
    let account = engine.create_account(Provider::Aws);
    let az: sky_cloud::AzId = "us-east-2a".parse().unwrap();
    let dep = engine.deploy(account, &az, 2048, Arch::X86_64).unwrap();
    engine.set_exec_profile(dep, ExecProfile::for_mode(ExecMode::Checkpointed));
    let mut rng = SimRng::seed_from(0x5fa2_2027);
    for _ in 0..4 {
        let n = rng.range_inclusive(10, 40) as usize;
        let requests: Vec<BatchRequest> = (0..n)
            .map(|i| BatchRequest {
                deployment: dep,
                offset: SimDuration::from_millis(i as u64 * rng.range_inclusive(0, 9)),
                body: RequestBody::Sleep {
                    duration: SimDuration::from_millis(rng.range_inclusive(20, 400)),
                },
            })
            .collect();
        engine.run_batch(requests);
        // Long enough for keep-alive to lapse (forcing restores), short
        // enough to stay inside the 30-minute snapshot TTL.
        engine.advance_by(SimDuration::from_mins(rng.range_inclusive(6, 20)));
    }

    let snap = engine.metrics_snapshot();
    let (e2e_n, e2e_sum) = span_hist_totals(&snap, "e2e_us");
    let (route_n, route_sum) = span_hist_totals(&snap, "route_us");
    let (cold_n, cold_sum) = span_hist_totals(&snap, "cold_start_us");
    let (restore_n, restore_sum) = span_hist_totals(&snap, "restore_start_us");
    let (warm_n, warm_sum) = span_hist_totals(&snap, "warm_start_us");
    let (exec_n, exec_sum) = span_hist_totals(&snap, "execute_us");

    assert!(restore_n > 0, "the schedule must exercise restored starts");
    assert_eq!(e2e_n, engine.spans().closed_total());
    assert_eq!(route_n, e2e_n, "every span records a route phase");
    assert_eq!(exec_n, e2e_n, "every span records an execute phase");
    assert_eq!(
        cold_n + restore_n + warm_n,
        e2e_n,
        "every span starts exactly once: cold, restored or warm"
    );
    assert_eq!(
        route_sum + cold_sum + restore_sum + warm_sum + exec_sum,
        e2e_sum,
        "phase durations must sum exactly to end-to-end latency"
    );
}
