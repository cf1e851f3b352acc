//! SAAF-style per-invocation profiling report.
//!
//! The paper's measurement channel is the Serverless Application Analytics
//! Framework (SAAF) \[5\]: a shim inside the function that scrapes
//! `/proc/cpuinfo`, identifies the function instance and host, and attaches
//! the observations to the response. The simulator produces the same
//! observables; **everything `sky-core` knows about the hidden hardware
//! arrives through this struct.**

use crate::ids::HostId;
use serde::{Deserialize, Serialize};
use sky_cloud::{Arch, AzId, CpuType, Provider};
use sky_sim::{SimDuration, SimTime, Uuid};
use std::borrow::Cow;

/// Profiling data attached to a successful (or declined) invocation.
///
/// Built once per invocation on the engine's hot path, so building one
/// allocates nothing: `cpu_model` borrows the catalog's `&'static str`
/// model name and `instance_uuid` is a `Copy` value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaafReport {
    /// `/proc/cpuinfo` model-name string observed inside the FI.
    pub cpu_model: Cow<'static, str>,
    /// Nominal clock speed scraped alongside, GHz.
    pub cpu_ghz: f64,
    /// Unique identity of the function instance (persisted in the FI's
    /// `/tmp` across warm invocations, exactly how SAAF counts FIs).
    pub instance_uuid: Uuid,
    /// Host identity (boot id); multiple FIs can share a host.
    pub host_id: HostId,
    /// Whether this invocation cold-started a fresh FI.
    pub new_container: bool,
    /// Billed execution duration.
    pub billed: SimDuration,
    /// Memory configuration of the deployment, MB.
    pub memory_mb: u32,
    /// Architecture the FI runs on.
    pub arch: Arch,
    /// Provider and zone the FI is hosted in.
    pub provider: Provider,
    /// Availability zone.
    pub az: AzId,
    /// Virtual timestamp when the invocation finished.
    pub finished_at: SimTime,
}

impl SaafReport {
    /// Parse the scraped model string back to the catalog type — what the
    /// profiler does with raw reports. `None` means an unrecognized CPU
    /// (never produced by the simulator, but the profiler must not trust
    /// that).
    pub fn cpu_type(&self) -> Option<CpuType> {
        CpuType::from_model_name(&self.cpu_model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cpu: CpuType) -> SaafReport {
        SaafReport {
            cpu_model: cpu.model_name().into(),
            cpu_ghz: cpu.clock_ghz(),
            instance_uuid: Uuid::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677),
            host_id: HostId::from_raw(1),
            new_container: true,
            billed: SimDuration::from_millis(250),
            memory_mb: 2048,
            arch: Arch::X86_64,
            provider: Provider::Aws,
            az: "us-west-1a".parse().unwrap(),
            finished_at: SimTime::ZERO,
        }
    }

    #[test]
    fn cpu_type_roundtrip() {
        for cpu in CpuType::ALL {
            assert_eq!(report(cpu).cpu_type(), Some(cpu));
        }
    }

    #[test]
    fn unknown_model_yields_none() {
        let mut r = report(CpuType::AmdEpyc);
        r.cpu_model = "Quantum RISC-Z @ 9.99THz".into();
        assert_eq!(r.cpu_type(), None);
    }

    #[test]
    fn serde_roundtrip() {
        let r = report(CpuType::IntelXeon3_0);
        let json = serde_json::to_string(&r).unwrap();
        assert!(
            json.contains(r#""instance_uuid":"01234567-89ab-cdef-0011-223344556677","#),
            "{json}"
        );
        let back: SaafReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        let upper = json.replace("89ab-cdef", "89AB-CDEF");
        assert_ne!(upper, json);
        assert!(serde_json::from_str::<SaafReport>(&upper).is_err());
    }
}
