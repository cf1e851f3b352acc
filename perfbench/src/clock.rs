//! The benchmark's clock: CPU time of this process.
//!
//! On a shared host the process is descheduled for stretches that depend
//! on its neighbours, not on the program; wall time counts those
//! stretches, CPU time does not. The workloads run on one thread (the
//! fleet at one shard runs inline), so on an idle host CPU time and wall
//! time agree. It is the process clock, not the thread clock, so work a
//! later change moves onto other threads is still counted.

// sky-lint: allow-file(D002, the fallback clock off Linux is the host's wall time)

/// CPU nanoseconds this process has run so far.
#[cfg(target_os = "linux")]
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// Elsewhere, wall nanoseconds since the Unix epoch.
#[cfg(not(target_os = "linux"))]
pub fn cpu_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let a = cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = cpu_ns();
        assert!(b > a, "{a} -> {b} ({x})");
    }
}
