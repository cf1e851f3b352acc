//! FaaS price book and cost arithmetic.
//!
//! Every dollar figure in the reproduction (poll cost, characterization
//! cost, EX-5 savings) flows through this module. Rates follow the public
//! price sheets at the time of the study: AWS Lambda bills GB-seconds of
//! billed duration (rounded up to 1 ms) plus a per-request fee, with a
//! ~20 % discount for arm64.

use crate::cpu::Arch;
use crate::provider::Provider;
use serde::{Deserialize, Serialize};
use sky_sim::SimDuration;

/// Pricing for one provider/architecture combination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rate {
    /// Dollars per GB-second of billed duration.
    pub usd_per_gb_s: f64,
    /// Dollars per single request.
    pub usd_per_request: f64,
}

/// The price book across providers.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PriceBook;

impl PriceBook {
    /// The rate for a provider/architecture.
    pub fn rate(provider: Provider, arch: Arch) -> Rate {
        match (provider, arch) {
            (Provider::Aws, Arch::X86_64) => Rate {
                usd_per_gb_s: 0.000_016_666_7,
                usd_per_request: 0.20 / 1_000_000.0,
            },
            (Provider::Aws, Arch::Arm64) => Rate {
                usd_per_gb_s: 0.000_013_333_4,
                usd_per_request: 0.20 / 1_000_000.0,
            },
            (Provider::Ibm, _) => Rate {
                // Code Engine bills vCPU-s + GB-s; folded into an
                // effective GB-s rate for the 1 vCPU / 2 GB shape.
                usd_per_gb_s: 0.000_017_8,
                usd_per_request: 0.0,
            },
            (Provider::DigitalOcean, _) => Rate {
                usd_per_gb_s: 0.000_018_5,
                usd_per_request: 0.0,
            },
        }
    }

    /// Cost of one invocation: billed duration (rounded **up** to the next
    /// millisecond) at `memory_mb`, plus the request fee.
    pub fn invocation_cost(
        provider: Provider,
        arch: Arch,
        memory_mb: u32,
        billed: SimDuration,
    ) -> f64 {
        let rate = Self::rate(provider, arch);
        let gb = memory_mb as f64 / 1024.0;
        let secs = billed.billed_millis() as f64 / 1000.0;
        gb * secs * rate.usd_per_gb_s + rate.usd_per_request
    }

    /// Round a dollar amount to integer nano-dollars: the one conversion
    /// by which an `f64` cost enters integer state (engine metrics,
    /// bandit rewards, shard digests), so sums over it are order-free.
    #[inline]
    pub fn nano_usd(usd: f64) -> u64 {
        (usd * 1e9).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_x86_example() {
        // 1000 requests of 250 ms at 2 GB:
        // 1000 * 2 * 0.25 * 0.0000166667 + 1000 * 2e-7 = $0.008533…
        let one = PriceBook::invocation_cost(
            Provider::Aws,
            Arch::X86_64,
            2048,
            SimDuration::from_millis(250),
        );
        let poll = 1000.0 * one;
        assert!((poll - 0.008_533).abs() < 1e-4, "poll cost {poll}");
        assert!(poll < 0.02, "paper: less than two cents per poll");
    }

    #[test]
    fn billed_duration_rounds_up() {
        let a = PriceBook::invocation_cost(
            Provider::Aws,
            Arch::X86_64,
            1024,
            SimDuration::from_micros(1_200),
        );
        let b = PriceBook::invocation_cost(
            Provider::Aws,
            Arch::X86_64,
            1024,
            SimDuration::from_millis(2),
        );
        assert_eq!(a, b, "1.2 ms bills as 2 ms");
    }

    #[test]
    fn arm_is_cheaper() {
        let x86 = PriceBook::invocation_cost(
            Provider::Aws,
            Arch::X86_64,
            2048,
            SimDuration::from_secs(1),
        );
        let arm =
            PriceBook::invocation_cost(Provider::Aws, Arch::Arm64, 2048, SimDuration::from_secs(1));
        assert!(arm < x86);
    }

    #[test]
    fn cost_scales_linearly_with_memory_and_time() {
        let base = PriceBook::invocation_cost(
            Provider::Aws,
            Arch::X86_64,
            1024,
            SimDuration::from_secs(1),
        );
        let double_mem = PriceBook::invocation_cost(
            Provider::Aws,
            Arch::X86_64,
            2048,
            SimDuration::from_secs(1),
        );
        let double_time = PriceBook::invocation_cost(
            Provider::Aws,
            Arch::X86_64,
            1024,
            SimDuration::from_secs(2),
        );
        let req_fee = PriceBook::rate(Provider::Aws, Arch::X86_64).usd_per_request;
        assert!(((double_mem - req_fee) - 2.0 * (base - req_fee)).abs() < 1e-12);
        assert!(((double_time - req_fee) - 2.0 * (base - req_fee)).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_still_pays_request_fee() {
        let c = PriceBook::invocation_cost(Provider::Aws, Arch::X86_64, 128, SimDuration::ZERO);
        assert_eq!(c, 0.20 / 1_000_000.0);
    }
}
