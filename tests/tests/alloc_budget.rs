//! Allocation budget of the engine's per-request path.
//!
//! DESIGN.md §6 states how often the engine allocates per request; this
//! test turns that prose into a gate. A counting global allocator, local
//! to this test binary, counts the allocations of one `run_batch` call on
//! the calling thread. The count is a pure function of the seed and the
//! code, so the gate does not depend on the host. A regression such as
//! rendering each new FI's uuid with `format!` pushes it over the budget.

use sky_cloud::{Arch, AzId, Catalog, Provider};
use sky_faas::{BatchRequest, FaasEngine, FleetConfig, RequestBody};
use sky_sim::SimDuration;
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
/// evenly over 5 s, so nearly half the requests cold-start a new FI. Each
/// cold start allocates once (the FI's uuid); the rest of the budget
/// covers the fresh timer wheel's slot buffers and the batch's vectors.
#[test]
fn first_sleep_batch_allocates_under_one_and_a_half_per_request() {
    const N: u64 = 1_000;
    const BUDGET: f64 = 1.5;
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
