//! Invocation requests and outcomes.

use crate::ids::DeploymentId;
use crate::report::SaafReport;
use serde::{Deserialize, Serialize};
use sky_cloud::CpuSet;
use sky_sim::{SimDuration, SimTime};
use sky_workloads::WorkloadKind;

/// A workload specification carried in a dynamic-function payload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Which Table-1 workload to run.
    pub kind: WorkloadKind,
    /// Problem-size multiplier.
    pub scale: u32,
    /// Payload size shipped with the request (source + data), bytes.
    /// Determines the dynamic-function decode cost on a cache miss.
    pub payload_bytes: u32,
    /// Content hash of the payload — the FI-side cache key.
    pub payload_hash: u64,
}

impl WorkloadSpec {
    /// A spec with a tiny default payload (source code only).
    pub fn new(kind: WorkloadKind) -> Self {
        WorkloadSpec {
            kind,
            scale: 1,
            payload_bytes: 4 * 1024,
            payload_hash: kind as u64,
        }
    }

    /// Override the problem-size multiplier.
    pub fn with_scale(mut self, scale: u32) -> Self {
        self.scale = scale.max(1);
        self
    }

    /// Override the payload (size and content hash).
    pub fn with_payload(mut self, bytes: u32, hash: u64) -> Self {
        self.payload_bytes = bytes;
        self.payload_hash = hash;
        self
    }
}

/// What the invoked function does.
///
/// `Copy` by design: the engine compiles each batch request into a flat
/// per-attempt record, and a `Copy` body keeps retries allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Sleep for a fixed interval — the infrastructure-sampling probe.
    /// Billed for the sleep duration plus a small handler overhead.
    Sleep {
        /// How long to hold the FI.
        duration: SimDuration,
    },
    /// Execute a workload via the dynamic-function runtime.
    Workload {
        /// The workload to run.
        spec: WorkloadSpec,
    },
    /// CPU-gated execution (the retry method, paper §3.5): the function
    /// first checks the FI's CPU; if it is in `banned`, it responds
    /// "declined" immediately (billing only the check plus the hold) but
    /// **keeps the FI busy for `hold`** so that the reissued request —
    /// dispatched `retry_latency` after the decline response — cannot
    /// land back on the same slow FI. The platform reissues automatically
    /// up to `max_retries` times; retry costs accumulate on the outcome.
    GatedWorkload {
        /// The workload to run if the CPU is acceptable.
        spec: WorkloadSpec,
        /// CPU types to refuse (bitmask — membership is one AND).
        banned: CpuSet,
        /// Hold duration applied when declining (the paper uses 150 ms).
        hold: SimDuration,
        /// Maximum automatic reissues after declines (0 = report the
        /// decline to the caller instead of retrying).
        max_retries: u32,
        /// Client-side delay between receiving a decline and the reissue
        /// arriving; must be shorter than `hold` for the steering effect.
        retry_latency: SimDuration,
    },
}

/// One request in a batch handed to the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchRequest {
    /// The deployment to invoke.
    pub deployment: DeploymentId,
    /// Arrival time relative to the batch start (client-side fan-out
    /// schedule; the sampling poller encodes its recursive invocation
    /// tree here).
    pub offset: SimDuration,
    /// The function input.
    pub body: RequestBody,
}

/// Terminal status of an invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InvocationStatus {
    /// Ran to completion; profiling report attached.
    Success(SaafReport),
    /// CPU-gated request declined by the function (report still
    /// attached — a declined probe is still an observation).
    Declined(SaafReport),
    /// Rejected by the account's concurrency quota (HTTP 429).
    Throttled,
    /// The AZ could not allocate a function instance — the saturation
    /// signal the sampling campaign drives toward.
    NoCapacity,
}

impl InvocationStatus {
    /// The report, if the function actually ran on an FI.
    pub fn report(&self) -> Option<&SaafReport> {
        match self {
            InvocationStatus::Success(r) | InvocationStatus::Declined(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the workload completed.
    pub fn is_success(&self) -> bool {
        matches!(self, InvocationStatus::Success(_))
    }

    /// Whether the platform rejected the request (throttle or capacity).
    pub fn is_error(&self) -> bool {
        matches!(
            self,
            InvocationStatus::Throttled | InvocationStatus::NoCapacity
        )
    }
}

/// The engine's verdict on one batch request.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationOutcome {
    /// Index of the request within its batch.
    pub index: usize,
    /// When the first attempt reached the platform.
    pub arrived: SimTime,
    /// When the final response was ready (platform side).
    pub finished: SimTime,
    /// Terminal status (of the final attempt).
    pub status: InvocationStatus,
    /// Billed duration of the final attempt (zero for throttles/capacity
    /// errors).
    pub billed: SimDuration,
    /// Dollar cost of the final attempt.
    pub cost_usd: f64,
    /// Total platform attempts (1 = no retries).
    pub attempts: u32,
    /// Billed duration accumulated by declined attempts (CPU checks +
    /// holds) — the retry overhead the paper accounts against savings.
    pub retry_billed: SimDuration,
    /// Dollar cost of the declined attempts.
    pub retry_cost_usd: f64,
}

impl InvocationOutcome {
    /// Total dollar cost across all attempts.
    pub fn total_cost_usd(&self) -> f64 {
        self.cost_usd + self.retry_cost_usd
    }

    /// Total billed time across all attempts.
    pub fn total_billed(&self) -> SimDuration {
        self.billed + self.retry_billed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders() {
        let s = WorkloadSpec::new(WorkloadKind::Zipper)
            .with_scale(3)
            .with_payload(1024, 99);
        assert_eq!(s.scale, 3);
        assert_eq!(s.payload_bytes, 1024);
        assert_eq!(s.payload_hash, 99);
        assert_eq!(
            WorkloadSpec::new(WorkloadKind::Zipper).with_scale(0).scale,
            1
        );
    }

    #[test]
    fn status_predicates() {
        assert!(InvocationStatus::Throttled.is_error());
        assert!(InvocationStatus::NoCapacity.is_error());
        assert!(!InvocationStatus::Throttled.is_success());
        assert!(InvocationStatus::Throttled.report().is_none());
    }

    #[test]
    fn outcome_totals_combine_attempts() {
        let o = InvocationOutcome {
            index: 0,
            arrived: SimTime::ZERO,
            finished: SimTime::ZERO + SimDuration::from_secs(1),
            status: InvocationStatus::Throttled,
            billed: SimDuration::from_millis(1000),
            cost_usd: 0.001,
            attempts: 3,
            retry_billed: SimDuration::from_millis(304),
            retry_cost_usd: 0.0002,
        };
        assert_eq!(o.total_billed(), SimDuration::from_millis(1304));
        assert!((o.total_cost_usd() - 0.0012).abs() < 1e-12);
    }
}
