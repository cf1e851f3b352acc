//! # sky-core — serverless sky computing: profiling, characterization and
//! smart routing
//!
//! This crate is the paper's primary contribution, rebuilt as a library:
//!
//! * [`sampling`] — the **infrastructure sampling technique** (§3.1):
//!   100 uniquely-configured probe deployments, 1,000-request fan-out
//!   polls, saturation detection, and progressive-sampling error curves;
//! * [`characterization`] — **CPU characterizations** built from SAAF
//!   reports, with unique-FI attribution and the paper's APE metric;
//! * [`store`] — the time-stamped **characterization store** with
//!   staleness policy and stable/volatile zone classification (§4.4),
//!   and [`CharacterizationStore::probe`], the one call that probes a
//!   zone and files its snapshot;
//! * [`profiler`] — **workload profiling** (Figure 9's per-CPU runtime
//!   table);
//! * [`router`] — the **smart routing system** (§3.4–3.5): regional
//!   routing, retry-slow / focus-fastest CPU gating, and the hybrid
//!   strategy that the paper reports up to 18.2 % savings for;
//! * [`streaming`] — the online [`Characterizer`]s: the paper's static
//!   probe-only comparator, whose [`SchedulerConfig`] cadence spends
//!   probes where drift demands them (§4.4), plus the streaming estimator
//!   (decayed fixed-point EWMA fed by every completed invocation through
//!   the engine's observation hook, CUSUM drift detection, budgeted
//!   re-probing);
//! * [`temporal`] — the EX-4 campaign drivers for day- and hour-scale
//!   drift measurement;
//! * [`cost`] — categorized dollar accounting.
//!
//! Everything here observes the cloud **only through invocation
//! outcomes** — the same epistemic boundary the paper's tooling has. The
//! substrate crates ([`sky_faas`], [`sky_cloud`], [`sky_workloads`],
//! [`sky_mesh`], [`sky_sim`]) are re-exported for convenience.
//!
//! ## Quickstart
//!
//! ```
//! use sky_core::{CampaignConfig, SamplingCampaign};
//! use sky_core::faas::{FaasEngine, FleetConfig};
//! use sky_core::cloud::{Catalog, Provider};
//!
//! // A seeded world and an account.
//! let mut engine = FaasEngine::new(Catalog::paper_world(42), FleetConfig::new(42));
//! let account = engine.create_account(Provider::Aws);
//!
//! // Characterize one availability zone with a couple of polls.
//! let az = "us-west-1b".parse()?;
//! let mut campaign = SamplingCampaign::new(
//!     &mut engine,
//!     account,
//!     &az,
//!     CampaignConfig { deployments: 4, ..Default::default() },
//! )?;
//! let stats = campaign.poll_once(&mut engine);
//! assert!(stats.unique_fis > 0);
//! println!("{} estimate after one poll: {:?}", az, stats.mix_after);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod characterization;
pub mod cost;
pub mod profiler;
pub mod resilience;
pub mod router;
pub mod sampling;
pub mod store;
pub mod streaming;
pub mod temporal;

pub use characterization::Characterization;
pub use cost::CostLedger;
pub use profiler::{ProfileRun, RuntimeTable, WorkloadProfiler};
pub use resilience::{
    BackoffPolicy, BreakerConfig, BreakerState, CircuitBreaker, ResilienceConfig, ResilientClient,
    ResilientReport,
};
pub use router::{
    savings_fraction, BurstReport, RetryMode, RouterConfig, RoutingPolicy, SmartRouter,
};
pub use sampling::{CampaignConfig, CampaignResult, PollConfig, PollStats, SamplingCampaign};
pub use store::{CharacterizationStore, Snapshot, StabilityClass};
pub use streaming::{
    Characterizer, SchedulerConfig, StaticCharacterizer, StreamingCharacterizer, StreamingConfig,
};
pub use temporal::{run_temporal_campaign, ObservationRecord, TemporalConfig, TemporalResult};

/// Re-export of the cloud-topology substrate.
pub use sky_cloud as cloud;
/// Re-export of the FaaS platform simulator.
pub use sky_faas as faas;
/// Re-export of the sky-mesh / dynamic-function layer.
pub use sky_mesh as mesh;
/// Re-export of the simulation engine.
pub use sky_sim as sim;
/// Re-export of the workload suite.
pub use sky_workloads as workloads;
