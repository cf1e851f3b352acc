//! # sky-bench — the experiment harness
//!
//! Every table/figure/ablation of the paper is a registered
//! [`registry::Experiment`] (see `src/experiments/`), enumerable and
//! runnable through one multiplexer: `skyward exp list | run <name>... |
//! run --all`. Shared experiment plumbing lives in this library
//! (seeded worlds, [`ScenarioBuilder`], the parallel [`sweep`] runner)
//! alongside Criterion micro-benchmarks in `benches/`. Every experiment
//! renders the same rows/series the paper reports; `EXPERIMENTS.md`
//! records paper-vs-measured for each.
//!
//! Experiments honour the `SKY_SCALE` environment variable (`full`, the
//! default, or `quick` for a fast smoke run at reduced sample counts);
//! unknown values are rejected with an error rather than silently mapped.

pub mod exec_modes;
pub mod experiments;
pub mod faults;
pub mod registry;
pub mod report;
pub mod sweep;

use std::collections::BTreeMap;

use sky_core::cloud::{Arch, AzId, Catalog, Provider};
use sky_core::faas::{AccountId, DeploymentId, FaasEngine, FleetConfig};
use sky_core::sim::SimDuration;
use sky_core::workloads::WorkloadKind;
use sky_core::{
    BurstReport, CharacterizationStore, PollConfig, RetryMode, RouterConfig, RoutingPolicy,
    RuntimeTable, SmartRouter, WorkloadProfiler,
};

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale sample counts (the default).
    Full,
    /// Reduced counts for smoke runs (`SKY_SCALE=quick`).
    Quick,
}

impl Scale {
    /// Parse a scale name. Exactly `"quick"` and `"full"` are accepted;
    /// anything else (including near-misses like `"Quick"` or `"ful"`,
    /// which an earlier version silently mapped to `Full`) is an error.
    pub fn parse(value: &str) -> Result<Scale, String> {
        match value {
            "quick" => Ok(Scale::Quick),
            "full" => Ok(Scale::Full),
            other => Err(format!(
                "unknown scale {other:?} (expected \"quick\" or \"full\")"
            )),
        }
    }

    /// Read the scale from the `SKY_SCALE` environment variable.
    /// Unset means [`Scale::Full`]; a set-but-invalid value is an error,
    /// never a silent fallback.
    pub fn from_env() -> Result<Scale, String> {
        match std::env::var("SKY_SCALE") {
            Ok(value) => Scale::parse(&value).map_err(|e| format!("SKY_SCALE: {e}")),
            Err(std::env::VarError::NotPresent) => Ok(Scale::Full),
            Err(e) => Err(format!("SKY_SCALE: {e}")),
        }
    }

    /// The scale's canonical name (round-trips through [`Scale::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
        }
    }

    /// Pick the `full` or `quick` value.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// The default world seed used by every experiment binary, so their
/// outputs cross-reference one another.
pub const WORLD_SEED: u64 = 42;

/// A ready-to-use experiment world: engine + one AWS account.
pub struct World {
    /// The fleet engine over the 41-region catalog.
    pub engine: FaasEngine,
    /// An AWS account for deployments.
    pub aws: AccountId,
    /// Router metrics accumulated by experiment helpers that build (and
    /// drop) short-lived [`SmartRouter`]s, e.g. [`run_daily_routing`].
    pub router_metrics: sky_core::sim::MetricsSnapshot,
}

impl World {
    /// Build the standard seeded world.
    pub fn new(seed: u64) -> World {
        let mut engine = FaasEngine::new(Catalog::paper_world(seed), FleetConfig::new(seed));
        let aws = engine.create_account(Provider::Aws);
        World {
            engine,
            aws,
            router_metrics: sky_core::sim::MetricsSnapshot::new(),
        }
    }

    /// The full metric snapshot for this world: engine registry (FaaS +
    /// span metrics) merged with the router metrics accumulated so far.
    pub fn metrics_snapshot(&self) -> sky_core::sim::MetricsSnapshot {
        let mut snap = self.engine.metrics_snapshot();
        snap.merge(&self.router_metrics);
        snap
    }

    /// Parse an AZ name.
    pub fn az(name: &str) -> AzId {
        name.parse().expect("valid AZ name")
    }
}

/// The five EX-4 zones.
pub fn ex4_zones() -> Vec<AzId> {
    ScenarioBuilder::az_list(&[
        "us-west-1a",
        "us-west-1b",
        "sa-east-1a",
        "eu-north-1a",
        "ca-central-1a",
    ])
}

/// The eleven EX-3 zones.
pub fn ex3_zones() -> Vec<AzId> {
    ScenarioBuilder::az_list(&[
        "ca-central-1a",
        "eu-north-1a",
        "ap-northeast-1a",
        "sa-east-1a",
        "eu-central-1a",
        "ap-southeast-2a",
        "us-west-1a",
        "us-west-1b",
        "us-east-2a",
        "us-east-2b",
        "us-east-2c",
    ])
}

/// Builder for the scenario shared by most routing experiments: a seeded
/// [`World`] plus one deployment per candidate zone, deployed in the
/// order the zones were named (deployment order feeds the engine's event
/// stream, so it is part of an experiment's byte-identity contract).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    seed: u64,
    zones: Vec<AzId>,
    memory_mb: u32,
    arch: Arch,
}

impl ScenarioBuilder {
    /// Start a scenario over the standard seeded world.
    pub fn new(seed: u64) -> ScenarioBuilder {
        ScenarioBuilder {
            seed,
            zones: Vec::new(),
            memory_mb: 2048,
            arch: Arch::X86_64,
        }
    }

    /// Parse a list of AZ names (the one shared construction behind
    /// [`ex3_zones`], [`ex4_zones`] and every candidate set).
    pub fn az_list(names: &[&str]) -> Vec<AzId> {
        names.iter().map(|s| World::az(s)).collect()
    }

    /// Add candidate zones by name, in deployment order.
    pub fn zones(mut self, names: &[&str]) -> ScenarioBuilder {
        self.zones.extend(Self::az_list(names));
        self
    }

    /// Add already-parsed candidate zones, in deployment order.
    pub fn zone_ids(mut self, azs: &[AzId]) -> ScenarioBuilder {
        self.zones.extend_from_slice(azs);
        self
    }

    /// Override the per-deployment memory setting (default 2048 MB).
    pub fn memory_mb(mut self, mb: u32) -> ScenarioBuilder {
        self.memory_mb = mb;
        self
    }

    /// Override the deployment architecture (default x86-64).
    pub fn arch(mut self, arch: Arch) -> ScenarioBuilder {
        self.arch = arch;
        self
    }

    /// Build the world and deploy to every candidate zone.
    pub fn build(self) -> Scenario {
        let mut world = World::new(self.seed);
        let mut deployments = BTreeMap::new();
        for az in &self.zones {
            let dep = world
                .engine
                .deploy(world.aws, az, self.memory_mb, self.arch)
                .expect("candidate zone deploys");
            deployments.insert(az.clone(), dep);
        }
        Scenario { world, deployments }
    }
}

/// A built scenario: the world plus the per-zone deployments.
pub struct Scenario {
    /// The seeded world.
    pub world: World,
    /// One deployment per candidate zone.
    pub deployments: BTreeMap<AzId, DeploymentId>,
}

impl Scenario {
    /// The deployment in a zone, if one was requested.
    pub fn deployment(&self, az: &AzId) -> Option<DeploymentId> {
        self.deployments.get(az).copied()
    }
}

/// Profile a workload on a deployment and return the learned table.
pub fn profile_workload(
    engine: &mut FaasEngine,
    deployment: DeploymentId,
    kind: WorkloadKind,
    runs: usize,
) -> RuntimeTable {
    let mut profiler = WorkloadProfiler::new();
    profiler.profile(
        engine,
        deployment,
        kind,
        runs,
        200,
        WORLD_SEED ^ kind as u64,
    );
    profiler.into_table()
}

/// Outcome of one day of the EX-5 daily-burst experiment.
#[derive(Debug, Clone)]
pub struct DailyOutcome {
    /// Day index (0-based).
    pub day: u32,
    /// Where the optimized strategy ran.
    pub az: AzId,
    /// Baseline burst report.
    pub baseline: BurstReport,
    /// Optimized burst report.
    pub optimized: BurstReport,
    /// Dollars spent on the day's characterization refresh.
    pub sampling_cost_usd: f64,
}

impl DailyOutcome {
    /// Day savings fraction (per completed request, optimized vs
    /// baseline).
    pub fn savings(&self) -> f64 {
        sky_core::savings_fraction(
            self.baseline.total_cost_usd() / self.baseline.completed.max(1) as f64,
            self.optimized.total_cost_usd() / self.optimized.completed.max(1) as f64,
        )
    }
}

/// Configuration of a multi-day routing experiment (Figures 10/11,
/// EX-5 aggregate).
#[derive(Debug, Clone)]
pub struct DailyRoutingConfig {
    /// The workload under test.
    pub kind: WorkloadKind,
    /// Number of days.
    pub days: u32,
    /// Requests per burst.
    pub burst: usize,
    /// Baseline zone.
    pub baseline_az: AzId,
    /// The optimized routing policy (re-evaluated daily against fresh
    /// characterizations).
    pub policy: RoutingPolicy,
    /// Zones to re-characterize daily (candidates of the policy).
    pub sampled_azs: Vec<AzId>,
    /// Polls per zone per day for the characterization refresh.
    pub polls_per_day: usize,
}

/// Run the daily experiment: each day, refresh characterizations with a
/// few polls per sampled zone, then fire the baseline burst and the
/// optimized burst, and advance to the next day.
pub fn run_daily_routing(
    world: &mut World,
    table: &RuntimeTable,
    config: &DailyRoutingConfig,
) -> Vec<DailyOutcome> {
    let engine = &mut world.engine;
    let mut deployments = std::collections::BTreeMap::new();
    let mut zones = config.sampled_azs.clone();
    if !zones.contains(&config.baseline_az) {
        zones.push(config.baseline_az.clone());
    }
    for az in &zones {
        let dep = engine
            .deploy(world.aws, az, 2048, sky_core::cloud::Arch::X86_64)
            .expect("zone deploys");
        deployments.insert(az.clone(), dep);
    }
    let mut store = CharacterizationStore::new();
    let start = engine.now();
    let mut outcomes = Vec::new();
    for day in 0..config.days {
        engine.advance_to(start + SimDuration::from_days(day as u64) + SimDuration::from_hours(1));
        // Characterization refresh.
        let mut sampling_cost = 0.0;
        for az in &config.sampled_azs {
            let snapshot = store
                .probe(
                    engine,
                    world.aws,
                    az,
                    config.polls_per_day,
                    PollConfig::default(),
                )
                .expect("probe deploys");
            sampling_cost += snapshot.cost_usd;
        }
        let router = SmartRouter::new(store.clone(), table.clone(), RouterConfig::default());
        let baseline = router.run_burst(
            engine,
            config.kind,
            config.burst,
            &RoutingPolicy::Baseline {
                az: config.baseline_az.clone(),
            },
            |az| deployments.get(az).copied(),
        );
        engine.advance_by(SimDuration::from_mins(15));
        let optimized = router.run_burst(engine, config.kind, config.burst, &config.policy, |az| {
            deployments.get(az).copied()
        });
        world.router_metrics.merge(&router.metrics_snapshot());
        outcomes.push(DailyOutcome {
            day,
            az: optimized.az.clone(),
            baseline,
            optimized,
            sampling_cost_usd: sampling_cost,
        });
    }
    outcomes
}

/// Cumulative savings across daily outcomes: total optimized spend vs
/// total baseline spend (per completed request).
pub fn cumulative_savings(outcomes: &[DailyOutcome]) -> f64 {
    let base: f64 = outcomes
        .iter()
        .map(|o| o.baseline.total_cost_usd() / o.baseline.completed.max(1) as f64)
        .sum();
    let opt: f64 = outcomes
        .iter()
        .map(|o| o.optimized.total_cost_usd() / o.optimized.completed.max(1) as f64)
        .sum();
    sky_core::savings_fraction(base, opt)
}

/// Display label for a retry mode.
pub fn mode_label(mode: &RetryMode) -> &'static str {
    match mode {
        RetryMode::RetrySlow => "retry-slow",
        RetryMode::FocusFastest => "focus-fastest",
        RetryMode::Custom(_) => "custom",
    }
}
