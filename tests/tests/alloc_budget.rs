//! Allocation budgets of the engine's per-request path and of the
//! resilient client's path over it.
//!
//! DESIGN.md §6 states how often the engine allocates per request; these
//! tests turn that prose into gates. A counting global allocator, local
//! to this test binary, counts the allocations made on the calling
//! thread. The count is a pure function of the seed and the code, so the
//! gates do not depend on the host. A regression such as allocating each
//! new FI's uuid as a string, or keying a per-outcome counter by string,
//! pushes a count over its budget.

use sky_cloud::{Arch, AzId, Catalog, Provider};
use sky_core::{
    Characterizer, ResilienceConfig, ResilientClient, StreamingCharacterizer, StreamingConfig,
};
use sky_faas::{BatchRequest, DeploymentId, FaasEngine, FleetConfig, RequestBody};
use sky_sim::SimDuration;
use sky_workloads::WorkloadKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator and counts every allocation on the
/// allocating thread. The trait's default `alloc_zeroed` and `realloc`
/// go through `alloc`, so a `realloc` counts as one allocation: it may
/// move the block.
struct CountingAlloc;

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot is gone while a thread tears down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The first batch on a fresh deployment: 1,000 sleeps of 250 ms spread
/// evenly over 5 s, so nearly half the requests cold-start a new FI. A
/// cold start allocates nothing; the budget covers the fresh timer
/// wheel's slot buffers, `place_fresh`'s two vectors and the batch's
/// vectors.
#[test]
fn first_sleep_batch_allocates_under_one_per_request() {
    const N: u64 = 1_000;
    const BUDGET: f64 = 1.0;
    let seed = 42;
    let mut engine = FaasEngine::new(Catalog::paper_world(seed), FleetConfig::new(seed));
    let account = engine.create_account(Provider::Aws);
    let az: AzId = "us-west-1b".parse().unwrap();
    let dep = engine.deploy(account, &az, 2048, Arch::X86_64).unwrap();
    let requests: Vec<BatchRequest> = (0..N)
        .map(|i| BatchRequest {
            deployment: dep,
            offset: SimDuration::from_micros(i * 5_000_000 / N),
            body: RequestBody::Sleep {
                duration: SimDuration::from_millis(250),
            },
        })
        .collect();
    let before = allocations();
    let outcomes = engine.run_batch(requests);
    let per_request = (allocations() - before) as f64 / N as f64;
    assert_eq!(outcomes.len() as u64, N);
    assert!(
        per_request < BUDGET,
        "run_batch made {per_request:.2} allocations per request (budget {BUDGET})"
    );
}

/// Twenty resilient bursts of 40 requests over two zones, alternating
/// two workloads, with the observation hook on and every burst's reports
/// folded into the streaming characterizer: the per-outcome path of
/// perfbench's chaos_modes. One warm-up burst first registers the
/// client's counters and fills the engine's reusable buffers. The budget
/// covers each round's batch and outcome vectors, the engine's work
/// under them and the drained reports; the resilience counters, the
/// drift fold, the round buffers, zone choice through closed breakers
/// and the event queue's far-future filing (keep-alive expiries, pool
/// and scale ticks) allocate nothing per outcome.
#[test]
fn resilient_bursts_allocate_under_two_and_a_half_per_request() {
    const BURSTS: usize = 20;
    const N: usize = 40;
    const BUDGET: f64 = 2.5;
    let seed = 42;
    let mut engine = FaasEngine::new(Catalog::paper_world(seed), FleetConfig::new(seed));
    let account = engine.create_account(Provider::Aws);
    let zones: Vec<AzId> = ["us-east-2a", "us-west-1a"]
        .iter()
        .map(|name| name.parse().unwrap())
        .collect();
    let deployments: Vec<DeploymentId> = zones
        .iter()
        .map(|az| engine.deploy(account, az, 2048, Arch::X86_64).unwrap())
        .collect();
    engine.set_observation_hook(true);
    let mut client = ResilientClient::with_defaults(ResilienceConfig::default());
    let mut streaming = StreamingCharacterizer::new(StreamingConfig::default());
    let kinds = [WorkloadKind::Sha1Hash, WorkloadKind::JsonFlattener];
    // One burst, then its reports into the characterizer and a gap.
    let mut burst = |engine: &mut FaasEngine, kind| {
        let report = client.run_burst(engine, kind, N, &zones, |az| {
            zones.iter().position(|z| z == az).map(|i| deployments[i])
        });
        for az in &zones {
            for saaf in engine.take_observations(az) {
                streaming.observe(az, &saaf);
            }
        }
        engine.advance_by(SimDuration::from_mins(3));
        report.completed
    };
    burst(&mut engine, kinds[0]);
    let before = allocations();
    let completed: usize = (0..BURSTS)
        .map(|b| burst(&mut engine, kinds[b % kinds.len()]))
        .sum();
    let per_request = (allocations() - before) as f64 / (BURSTS * N) as f64;
    assert_eq!(completed, BURSTS * N, "every request completes");
    assert!(
        streaming.observations(&zones[0]) > 0,
        "the observation hook fed the characterizer"
    );
    assert!(
        per_request < BUDGET,
        "resilient bursts made {per_request:.2} allocations per request (budget {BUDGET})"
    );
}
