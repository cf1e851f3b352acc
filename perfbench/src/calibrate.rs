//! Host-speed calibration.
//!
//! The shared host this benchmark was defined on runs the same code up to
//! ~1.5x slower for tens of seconds at a time, in CPU time as well as
//! wall time (the vCPU's sibling hyperthread and caches are shared with
//! other tenants). No run length averages that away, so after every
//! episode the benchmark runs a fixed reference kernel for a sixth of
//! the episode's CPU time, and divides the run's times by the median of
//! the kernel's slowdowns against its reference speed. The kernel is shaped
//! like the simulator's hot paths (ordered-map inserts, lookups and
//! removals, small allocations, vector sorts) so contention slows both
//! alike, and it calls nothing in the simulator, so a change to the
//! simulator never moves it.

use std::collections::BTreeMap;
use std::hint::black_box;

use crate::clock::cpu_ns;

/// CPU nanoseconds one [`reference_pass`] takes at reference host speed:
/// about the fifth percentile of some 2,700 episodes' passes on a 2-vCPU
/// VM, so a quiet host reads a slowdown near 1.
pub const REFERENCE_PASS_NS: f64 = 600_000.0;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One pass of the reference kernel: fixed, input-free work. Returns a
/// checksum so the work cannot be optimised away.
pub fn reference_pass() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut map: BTreeMap<u64, Box<[u64; 4]>> = BTreeMap::new();
    for i in 0..2_048u64 {
        let k = xorshift(&mut x) % 8_192;
        map.insert(k, Box::new([i, k, i ^ k, 0]));
    }
    let mut sum = 0u64;
    for _ in 0..4_096 {
        let k = xorshift(&mut x) % 8_192;
        if let Some(v) = map.get_mut(&k) {
            v[3] += 1;
            sum = sum.wrapping_add(v[2]);
        }
    }
    for _ in 0..1_024 {
        let k = xorshift(&mut x) % 8_192;
        if let Some(v) = map.remove(&k) {
            sum = sum.wrapping_add(v[0]);
        }
    }
    let mut v: Vec<u64> = (0..4_096).map(|_| xorshift(&mut x)).collect();
    v.sort_unstable();
    sum ^ v[2_048] ^ map.len() as u64
}

/// Run the reference kernel for at least `budget_ns` of CPU time (and at
/// least one pass); returns the host's slowdown against reference speed
/// (above 1 when the host runs slow).
pub fn slowdown(budget_ns: u64) -> f64 {
    // An untimed first pass, so the state the episode left in the caches
    // and the allocator does not set the figure.
    black_box(reference_pass());
    let start = cpu_ns();
    let mut passes = 0u64;
    loop {
        black_box(reference_pass());
        passes += 1;
        if cpu_ns() - start >= budget_ns {
            break;
        }
    }
    (cpu_ns() - start) as f64 / passes as f64 / REFERENCE_PASS_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_runs_at_least_once() {
        assert_eq!(reference_pass(), reference_pass());
        assert!(slowdown(0) > 0.0);
    }
}
