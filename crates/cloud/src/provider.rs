//! FaaS providers and their platform parameters.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A serverless FaaS provider in the sky mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Provider {
    /// AWS Lambda.
    Aws,
    /// IBM Code Engine.
    Ibm,
    /// DigitalOcean Functions.
    DigitalOcean,
}

impl Provider {
    /// All providers in the study.
    pub const ALL: [Provider; 3] = [Provider::Aws, Provider::Ibm, Provider::DigitalOcean];

    /// Human-readable platform name.
    pub fn platform_name(self) -> &'static str {
        match self {
            Provider::Aws => "AWS Lambda",
            Provider::Ibm => "IBM Code Engine",
            Provider::DigitalOcean => "DigitalOcean Functions",
        }
    }

    /// The memory settings (MB) a function can be deployed with. The paper
    /// deploys the AWS sky mesh at nine sizes from 128 MB to 10 GB; IBM
    /// Code Engine offers only three.
    pub fn memory_options_mb(self) -> &'static [u32] {
        match self {
            Provider::Aws => &[128, 256, 512, 1024, 2048, 4096, 6144, 8192, 10240],
            Provider::Ibm => &[1024, 2048, 4096],
            Provider::DigitalOcean => &[128, 256, 512, 1024],
        }
    }

    /// Architectures offered for deployments.
    pub fn arch_options(self) -> &'static [crate::cpu::Arch] {
        match self {
            Provider::Aws => &[crate::cpu::Arch::X86_64, crate::cpu::Arch::Arm64],
            _ => &[crate::cpu::Arch::X86_64],
        }
    }

    /// Default per-account concurrent execution quota. AWS Lambda enforced
    /// 1,000 on the accounts used in the study.
    pub fn default_concurrency_quota(self) -> u32 {
        match self {
            Provider::Aws => 1_000,
            Provider::Ibm => 250,
            Provider::DigitalOcean => 120,
        }
    }

    /// Valid deployment memory check.
    pub fn supports_memory_mb(self, mb: u32) -> bool {
        match self {
            // Lambda actually allows any value in 128..=10240 MB; the listed
            // options are just the mesh's chosen points. The infrastructure
            // sampling campaign exploits this with 100 unique settings.
            Provider::Aws => (128..=10_240).contains(&mb),
            _ => self.memory_options_mb().contains(&mb),
        }
    }
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.platform_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_options_match_paper() {
        assert_eq!(Provider::Aws.memory_options_mb().len(), 9);
        assert_eq!(Provider::Ibm.memory_options_mb(), &[1024, 2048, 4096]);
    }

    #[test]
    fn aws_supports_arbitrary_memory_in_range() {
        assert!(Provider::Aws.supports_memory_mb(10_140));
        assert!(Provider::Aws.supports_memory_mb(10_240));
        assert!(!Provider::Aws.supports_memory_mb(10_241));
        assert!(!Provider::Aws.supports_memory_mb(64));
        assert!(!Provider::Ibm.supports_memory_mb(10_140));
        assert!(Provider::Ibm.supports_memory_mb(2048));
    }

    #[test]
    fn quotas_and_keepalive() {
        assert_eq!(Provider::Aws.default_concurrency_quota(), 1000);
    }

    #[test]
    fn arm_only_on_aws() {
        assert!(Provider::Aws
            .arch_options()
            .contains(&crate::cpu::Arch::Arm64));
        assert!(!Provider::Ibm
            .arch_options()
            .contains(&crate::cpu::Arch::Arm64));
    }
}
