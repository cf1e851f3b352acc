//! # sky-faas — event-driven FaaS platform simulator
//!
//! Simulates the multi-cloud serverless fleet the paper measures: per-AZ
//! bare-metal host pools with hidden heterogeneous CPUs, microVM function
//! instances with ~5-minute keep-alive, warm-routing, per-account
//! concurrency quotas, capacity saturation, slow reactive scaling,
//! day-scale churn, hour-scale diurnal load, and GB-second billing.
//!
//! The engine is the only component in the workspace that reads
//! `sky-cloud` ground truth; everything above it observes the fleet
//! through [`InvocationOutcome`]s carrying [`SaafReport`]s — the same
//! epistemic boundary the paper's measurement tooling operates behind.
//!
//! ## Example
//!
//! ```
//! use sky_cloud::{Arch, Catalog, Provider};
//! use sky_faas::{BatchRequest, FaasEngine, FleetConfig, RequestBody};
//! use sky_sim::SimDuration;
//!
//! let mut engine = FaasEngine::new(Catalog::paper_world(42), FleetConfig::new(42));
//! let account = engine.create_account(Provider::Aws);
//! let az = "us-west-1a".parse()?;
//! let dep = engine.deploy(account, &az, 2048, Arch::X86_64)?;
//! let outcomes = engine.run_batch(vec![BatchRequest {
//!     deployment: dep,
//!     offset: SimDuration::ZERO,
//!     body: RequestBody::Sleep { duration: SimDuration::from_millis(250) },
//! }]);
//! assert!(outcomes[0].status.is_success());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod engine;
pub mod ids;
pub mod lifecycle;
pub mod platform;
pub mod report;
pub mod request;
pub mod sharded;

pub use engine::{DeployError, Deployment, FaasEngine, FleetConfig};
pub use ids::{AccountId, DeploymentId, HostId, InstanceId};
pub use lifecycle::{ExecMode, ExecProfile, PoolPolicy, SnapshotId, StartClass};
pub use platform::{AzPlatform, CapacityError, Host, Instance, PoolTickStats, Snapshot};
pub use report::SaafReport;
pub use request::{BatchRequest, InvocationOutcome, InvocationStatus, RequestBody, WorkloadSpec};
pub use sharded::{FleetCounts, FleetReport, FleetRequest, ShardedFleet};
