//! Randomized whole-engine invariant checks: arbitrary interleavings of
//! batches, time advances, outages and day boundaries must preserve the
//! platform's accounting (every request terminates; capacity is
//! conserved; billing is consistent with billed time).
//!
//! Schedules are generated with the workspace's own deterministic
//! [`SimRng`] — every failure is replayable from the fixed seed.

use sky_cloud::{Arch, Catalog, FaultKind, FaultPlan, PriceBook, Provider};
use sky_faas::{
    BatchRequest, FaasEngine, FleetConfig, InvocationStatus, RequestBody, WorkloadSpec,
};
use sky_sim::{SimDuration, SimRng, SimTime};
use sky_workloads::WorkloadKind;

/// One step of the randomized schedule.
#[derive(Debug, Clone)]
enum Op {
    SleepBatch {
        n: usize,
        sleep_ms: u64,
        spread_ms: u64,
    },
    WorkloadBatch {
        n: usize,
    },
    GatedBatch {
        n: usize,
        retries: u32,
    },
    Advance {
        mins: u64,
    },
    Outage {
        mins: u64,
    },
}

fn random_op(rng: &mut SimRng) -> Op {
    match rng.next_below(5) {
        0 => Op::SleepBatch {
            n: rng.range_inclusive(1, 59) as usize,
            sleep_ms: rng.range_inclusive(20, 399),
            spread_ms: rng.next_below(200),
        },
        1 => Op::WorkloadBatch {
            n: rng.range_inclusive(1, 29) as usize,
        },
        2 => Op::GatedBatch {
            n: rng.range_inclusive(1, 29) as usize,
            retries: rng.next_below(6) as u32,
        },
        3 => Op::Advance {
            mins: rng.range_inclusive(1, 119),
        },
        _ => Op::Outage {
            mins: rng.range_inclusive(5, 59),
        },
    }
}

#[test]
fn random_schedules_preserve_engine_invariants() {
    let case_rng = SimRng::seed_from(0x1417_aced);
    for case in 0..24u64 {
        let mut rng = case_rng.derive_idx("case", case);
        let seed = rng.next_below(1_000);
        let ops: Vec<Op> = (0..rng.range_inclusive(1, 11))
            .map(|_| random_op(&mut rng))
            .collect();
        run_schedule(seed, &ops);
    }
}

fn run_schedule(seed: u64, ops: &[Op]) {
    let mut engine = FaasEngine::new(Catalog::paper_world(seed), FleetConfig::new(seed));
    let account = engine.create_account(Provider::Aws);
    let az: sky_cloud::AzId = "us-west-1b".parse().unwrap();
    let dep = engine.deploy(account, &az, 2048, Arch::X86_64).unwrap();
    let mut issued = 0usize;
    let mut resolved = 0usize;
    for op in ops {
        match op {
            Op::SleepBatch {
                n,
                sleep_ms,
                spread_ms,
            } => {
                let requests: Vec<BatchRequest> = (0..*n)
                    .map(|i| BatchRequest {
                        deployment: dep,
                        offset: SimDuration::from_millis(
                            (i as u64 * spread_ms) / (*n as u64).max(1),
                        ),
                        body: RequestBody::Sleep {
                            duration: SimDuration::from_millis(*sleep_ms),
                        },
                    })
                    .collect();
                issued += n;
                let before = engine.now();
                let outcomes = engine.run_batch(requests);
                resolved += outcomes.len();
                check_outcomes(&outcomes, before);
            }
            Op::WorkloadBatch { n } => {
                let requests: Vec<BatchRequest> = (0..*n)
                    .map(|_| BatchRequest {
                        deployment: dep,
                        offset: SimDuration::ZERO,
                        body: RequestBody::Workload {
                            spec: WorkloadSpec::new(WorkloadKind::Sha1Hash),
                        },
                    })
                    .collect();
                issued += n;
                let before = engine.now();
                let outcomes = engine.run_batch(requests);
                resolved += outcomes.len();
                check_outcomes(&outcomes, before);
            }
            Op::GatedBatch { n, retries } => {
                let requests: Vec<BatchRequest> = (0..*n)
                    .map(|_| BatchRequest {
                        deployment: dep,
                        offset: SimDuration::ZERO,
                        body: RequestBody::GatedWorkload {
                            spec: WorkloadSpec::new(WorkloadKind::GraphBfs),
                            banned: sky_cloud::CpuSet::from_slice(&[
                                sky_cloud::CpuType::AmdEpyc,
                                sky_cloud::CpuType::IntelXeon2_9,
                            ]),
                            hold: SimDuration::from_millis(150),
                            max_retries: *retries,
                            retry_latency: SimDuration::from_millis(60),
                        },
                    })
                    .collect();
                issued += n;
                let before = engine.now();
                let outcomes = engine.run_batch(requests);
                resolved += outcomes.len();
                for o in &outcomes {
                    assert!(o.attempts <= retries + 1, "attempt cap respected");
                    if o.attempts > 1 {
                        assert!(o.retry_billed > SimDuration::ZERO);
                        assert!(o.retry_cost_usd > 0.0);
                    } else {
                        assert_eq!(o.retry_cost_usd, 0.0);
                    }
                }
                check_outcomes(&outcomes, before);
            }
            Op::Advance { mins } => {
                engine.advance_by(SimDuration::from_mins(*mins));
            }
            Op::Outage { mins } => {
                let outage = FaultPlan::new()
                    .with_event(
                        az.clone(),
                        engine.now(),
                        SimDuration::from_mins(*mins),
                        FaultKind::Outage,
                    )
                    .unwrap();
                engine.set_fault_plan(&outage);
            }
        }
    }
    assert_eq!(issued, resolved, "every request terminates exactly once");
    // After everything expires, the platform returns to empty.
    engine.advance_by(SimDuration::from_mins(90));
    let platform = engine.platform(&az).unwrap();
    assert_eq!(
        platform.instance_count(),
        0,
        "all FIs reclaimed after keep-alive"
    );
}

fn check_outcomes(outcomes: &[sky_faas::InvocationOutcome], batch_start: SimTime) {
    for o in outcomes {
        assert!(o.finished >= batch_start);
        assert!(o.finished >= o.arrived);
        match &o.status {
            InvocationStatus::Success(report) | InvocationStatus::Declined(report) => {
                // Billing consistency: cost equals the price book applied
                // to the billed duration.
                let expected = PriceBook::invocation_cost(
                    report.provider,
                    report.arch,
                    report.memory_mb,
                    o.billed,
                );
                assert!((o.cost_usd - expected).abs() < 1e-12);
                assert!(o.billed > SimDuration::ZERO);
            }
            InvocationStatus::Throttled | InvocationStatus::NoCapacity => {
                assert_eq!(o.billed, SimDuration::ZERO);
                assert_eq!(o.cost_usd, 0.0);
            }
        }
    }
}
