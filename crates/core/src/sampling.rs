//! FaaS infrastructure sampling (paper §3.1, EX-1/EX-3).
//!
//! The technique: deploy ~100 copies of a sleep function to one AZ, each
//! with a unique memory setting and source package so the platform cannot
//! share function instances between them. A **poll** fires 1,000 parallel
//! requests at *one* of the deployments through a branching tree of
//! recursive invocations (the tree sidesteps client-side parallelism
//! limits); every request sleeps briefly so all of them pin distinct FIs
//! simultaneously. Cycling through deployments observes fresh FIs each
//! poll without ever exceeding the 1,000-concurrent quota, until the AZ
//! saturates (>50 % failures) — at which point the accumulated
//! characterization is the ground-truth estimate of the zone's hardware.

use crate::characterization::Characterization;
use serde::{Deserialize, Serialize};
use sky_cloud::{Arch, AzId, CpuMix};
use sky_faas::{AccountId, BatchRequest, DeployError, DeploymentId, FaasEngine, RequestBody};
use sky_sim::{SimDuration, SimRng, SimTime};

/// Configuration of one sampling poll.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PollConfig {
    /// Parallel requests per poll (the paper uses 1,000).
    pub requests: usize,
    /// Sleep interval each probe holds its FI for (0.25 s optimal in
    /// Figure 3).
    pub sleep: SimDuration,
    /// Branching factor of the recursive invocation tree.
    pub branching: usize,
}

impl Default for PollConfig {
    fn default() -> Self {
        PollConfig {
            requests: 1_000,
            sleep: SimDuration::from_millis(250),
            branching: 10,
        }
    }
}

impl PollConfig {
    /// Per-hop propagation latency of the invocation tree: a tree node
    /// must cold-start before it can invoke its children, so each level
    /// adds roughly a cold start plus an invoke call. Lower-memory
    /// functions initialize more slowly, widening the tree's arrival
    /// spread — the reason Figure 3 needs longer sleeps at small memory
    /// settings to keep every probe on a distinct FI.
    pub fn hop_latency(memory_mb: u32) -> SimDuration {
        let ms = match memory_mb {
            0..=191 => 450,
            192..=383 => 360,
            384..=767 => 280,
            768..=1535 => 220,
            _ => 170,
        };
        SimDuration::from_millis(ms)
    }

    /// Arrival offsets for every probe in the poll: node `i` of the
    /// breadth-first invocation tree arrives after `depth(i)` hops plus
    /// jitter.
    pub fn arrival_offsets(&self, memory_mb: u32, rng: &mut SimRng) -> Vec<SimDuration> {
        let hop = Self::hop_latency(memory_mb).as_micros();
        let b = self.branching.max(2) as u64;
        let mut offsets = Vec::with_capacity(self.requests);
        // Depth of node i in a complete b-ary forest rooted at b roots.
        let mut level_start = 0u64;
        let mut level_size = b;
        let mut depth = 0u64;
        for i in 0..self.requests as u64 {
            if i >= level_start + level_size {
                level_start += level_size;
                level_size *= b;
                depth += 1;
            }
            let base = depth * hop;
            let jitter = rng.next_below(hop / 2 + 1);
            offsets.push(SimDuration::from_micros(base + jitter));
        }
        offsets
    }
}

/// Summary of one completed poll.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PollStats {
    /// Poll index within the campaign (0-based).
    pub index: usize,
    /// Requests issued.
    pub requests: usize,
    /// Requests that failed (throttle or capacity).
    pub failures: usize,
    /// Unique FIs observed in this poll.
    pub unique_fis: usize,
    /// FIs never seen before in the campaign.
    pub new_fis: u64,
    /// Cumulative unique FIs after this poll.
    pub cumulative_fis: u64,
    /// Dollar cost of this poll.
    pub cost_usd: f64,
    /// Characterization estimate after this poll (the progressive
    /// sampling snapshot for EX-3).
    pub mix_after: CpuMix,
    /// When the poll started.
    pub started: SimTime,
    /// When the last response arrived.
    pub finished: SimTime,
}

impl PollStats {
    /// Fraction of requests that failed.
    pub fn failure_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.failures as f64 / self.requests as f64
        }
    }
}

/// Campaign configuration: the 100-deployment sampling methodology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Number of distinct function deployments to cycle through.
    pub deployments: usize,
    /// Memory of the first deployment; each subsequent deployment adds
    /// 1 MB ("unique memory settings", §3.1).
    pub memory_base_mb: u32,
    /// Poll parameters.
    pub poll: PollConfig,
    /// Stop when a poll's failure rate crosses this threshold (the paper
    /// defines the saturation failure point at 50 %).
    pub failure_threshold: f64,
    /// Hard cap on polls per campaign run.
    pub max_polls: usize,
    /// Client-side gap between consecutive polls.
    pub inter_poll_gap: SimDuration,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            deployments: 100,
            // The paper's headline campaign used 10,140–10,240 MB; its
            // cost figures ($0.02/poll, $0.20/saturation) correspond to
            // ~2 GB probes, which we adopt as the default. Use
            // `paper_10gb` for the 10 GB variant.
            memory_base_mb: 2_038,
            poll: PollConfig::default(),
            failure_threshold: 0.5,
            max_polls: 60,
            inter_poll_gap: SimDuration::from_millis(500),
        }
    }
}

impl CampaignConfig {
    /// The paper's exact 10,140–10,240 MB deployment range.
    pub fn paper_10gb() -> Self {
        CampaignConfig {
            memory_base_mb: 10_140,
            ..Default::default()
        }
    }
}

/// Result of running a campaign to saturation.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Every poll's stats, in order.
    pub polls: Vec<PollStats>,
    /// Whether the saturation failure point was reached (vs the poll cap).
    pub saturated: bool,
    /// Total dollars spent.
    pub total_cost_usd: f64,
}

impl CampaignResult {
    /// The final characterization snapshot (ground-truth estimate when
    /// `saturated`).
    pub fn final_mix(&self) -> CpuMix {
        self.polls
            .last()
            .map(|p| p.mix_after.clone())
            .unwrap_or_default()
    }

    /// Total unique FIs observed.
    pub fn total_fis(&self) -> u64 {
        self.polls.last().map(|p| p.cumulative_fis).unwrap_or(0)
    }

    /// Progressive-sampling error curve: after each poll, the APE of the
    /// running estimate vs the final (saturation) characterization —
    /// exactly the Figure 5 y-axis. X is cumulative FIs observed.
    pub fn ape_curve(&self) -> Vec<(f64, f64)> {
        let reference = self.final_mix();
        self.polls
            .iter()
            .map(|p| (p.cumulative_fis as f64, p.mix_after.ape_percent(&reference)))
            .collect()
    }

    /// Number of polls needed to bring the running estimate within
    /// `ape_target` percent of the final characterization (and keep it
    /// there for the rest of the run). `None` if never achieved.
    pub fn polls_to_accuracy(&self, ape_target: f64) -> Option<usize> {
        let reference = self.final_mix();
        let apes: Vec<f64> = self
            .polls
            .iter()
            .map(|p| p.mix_after.ape_percent(&reference))
            .collect();
        // Last index where the error exceeded the target; answer is the
        // poll after that.
        match apes.iter().rposition(|&a| a > ape_target) {
            None => Some(1),
            Some(last_bad) if last_bad + 1 < apes.len() => Some(last_bad + 2),
            Some(_) => None,
        }
    }
}

/// A sampling campaign bound to one AZ of one engine account.
#[derive(Debug)]
pub struct SamplingCampaign {
    az: AzId,
    deployments: Vec<DeploymentId>,
    config: CampaignConfig,
    characterization: Characterization,
    polls: Vec<PollStats>,
    next_deployment: usize,
    total_cost: f64,
    rng: SimRng,
}

impl SamplingCampaign {
    /// Deploy the campaign's function fleet to `az`.
    ///
    /// # Errors
    ///
    /// Propagates [`DeployError`] (e.g. the memory range is invalid for
    /// the provider).
    pub fn new(
        engine: &mut FaasEngine,
        account: AccountId,
        az: &AzId,
        config: CampaignConfig,
    ) -> Result<Self, DeployError> {
        let provider = engine.catalog().az(az).map(|s| s.provider);
        let mut deployments = Vec::with_capacity(config.deployments);
        for i in 0..config.deployments as u32 {
            // The paper gives every probe deployment a unique memory
            // setting *and* a unique source package. AWS accepts any
            // memory in range; fixed-menu providers (IBM, DO) fall back
            // to the base setting — distinct packages alone already
            // prevent FI sharing.
            let memory = match provider {
                Some(p) if p.supports_memory_mb(config.memory_base_mb + i) => {
                    config.memory_base_mb + i
                }
                _ => config.memory_base_mb,
            };
            let dep = engine.deploy(account, az, memory, Arch::X86_64)?;
            deployments.push(dep);
        }
        Ok(SamplingCampaign {
            az: az.clone(),
            deployments,
            rng: SimRng::seed_from(engine.catalog().seed())
                .derive("sampling")
                .derive(&az.to_string()),
            config,
            characterization: Characterization::new(),
            polls: Vec::new(),
            next_deployment: 0,
            total_cost: 0.0,
        })
    }

    /// The zone being sampled.
    pub fn az(&self) -> &AzId {
        &self.az
    }

    /// The accumulated characterization.
    pub fn characterization(&self) -> &Characterization {
        &self.characterization
    }

    /// Polls completed so far.
    pub fn polls(&self) -> &[PollStats] {
        &self.polls
    }

    /// Dollars spent so far.
    pub fn total_cost_usd(&self) -> f64 {
        self.total_cost
    }

    /// Fraction of all requests issued so far that failed — the zone
    /// health signal recorded alongside characterizations.
    pub fn overall_failure_rate(&self) -> f64 {
        let requests: usize = self.polls.iter().map(|p| p.requests).sum();
        let failures: usize = self.polls.iter().map(|p| p.failures).sum();
        if requests == 0 {
            0.0
        } else {
            failures as f64 / requests as f64
        }
    }

    /// Execute one poll against the next deployment in the rotation.
    pub fn poll_once(&mut self, engine: &mut FaasEngine) -> PollStats {
        let deployment = self.deployments[self.next_deployment];
        self.next_deployment = (self.next_deployment + 1) % self.deployments.len();
        let memory_mb = engine
            .deployment(deployment)
            .expect("campaign deployment exists")
            .memory_mb;
        let offsets = self.config.poll.arrival_offsets(memory_mb, &mut self.rng);
        let started = engine.now();
        let requests: Vec<BatchRequest> = offsets
            .into_iter()
            .map(|offset| BatchRequest {
                deployment,
                offset,
                body: RequestBody::Sleep {
                    duration: self.config.poll.sleep,
                },
            })
            .collect();
        let outcomes = engine.run_batch(requests);
        let mut failures = 0usize;
        let mut poll_fis = std::collections::BTreeSet::new();
        let mut new_fis = 0u64;
        let mut cost = 0.0;
        let mut finished = started;
        for o in &outcomes {
            // sky-lint: allow(D005, outcome-ordered f64 USD fold for the poll report; metered billing stays integer nano-USD in metrics)
            cost += o.total_cost_usd();
            finished = finished.max(o.finished);
            match o.status.report() {
                Some(report) => {
                    poll_fis.insert(report.instance_uuid);
                    if self.characterization.observe(report) {
                        new_fis += 1;
                    }
                }
                None => failures += 1,
            }
        }
        // sky-lint: allow(D005, campaign-level f64 USD total folded in poll order - presentation only)
        self.total_cost += cost;
        let stats = PollStats {
            index: self.polls.len(),
            requests: outcomes.len(),
            failures,
            unique_fis: poll_fis.len(),
            new_fis,
            cumulative_fis: self.characterization.unique_fis(),
            cost_usd: cost,
            mix_after: self.characterization.to_mix(),
            started,
            finished,
        };
        self.polls.push(stats.clone());
        engine.advance_by(self.config.inter_poll_gap);
        stats
    }

    /// Poll until the saturation failure point (>threshold failures in a
    /// poll) or the poll cap, consuming the campaign's remaining budget.
    pub fn run_until_saturation(&mut self, engine: &mut FaasEngine) -> CampaignResult {
        let mut saturated = false;
        while self.polls.len() < self.config.max_polls {
            let stats = self.poll_once(engine);
            if stats.failure_rate() > self.config.failure_threshold {
                saturated = true;
                break;
            }
        }
        CampaignResult {
            polls: self.polls.clone(),
            saturated,
            total_cost_usd: self.total_cost,
        }
    }

    /// Run exactly `n` polls (progressive sampling without saturation).
    pub fn run_polls(&mut self, engine: &mut FaasEngine, n: usize) -> Vec<PollStats> {
        (0..n).map(|_| self.poll_once(engine)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sky_cloud::{Catalog, Provider};
    use sky_faas::FleetConfig;

    fn setup(az: &str) -> (FaasEngine, AccountId, AzId) {
        let mut engine = FaasEngine::new(Catalog::paper_world(5), FleetConfig::new(5));
        let account = engine.create_account(Provider::Aws);
        (engine, account, az.parse().unwrap())
    }

    #[test]
    fn arrival_offsets_respect_tree_depth() {
        let cfg = PollConfig::default();
        let mut rng = SimRng::seed_from(1);
        let offsets = cfg.arrival_offsets(2048, &mut rng);
        assert_eq!(offsets.len(), 1000);
        // Roots (first 10) have sub-hop offsets; with branching 10 the
        // tree has depth 2 for 1000 nodes.
        let hop = PollConfig::hop_latency(2048);
        assert!(offsets[0] < hop);
        let max = offsets.iter().max().unwrap();
        assert!(*max >= SimDuration::from_micros(2 * hop.as_micros()));
        assert!(*max <= SimDuration::from_micros(3 * hop.as_micros()));
        // Lower memory widens the spread.
        let offsets_small = cfg.arrival_offsets(128, &mut rng);
        assert!(offsets_small.iter().max().unwrap() > max);
    }

    #[test]
    fn one_poll_observes_nearly_all_requests_uniquely() {
        let (mut engine, account, az) = setup("us-west-1a");
        let mut campaign =
            SamplingCampaign::new(&mut engine, account, &az, CampaignConfig::default()).unwrap();
        let stats = campaign.poll_once(&mut engine);
        assert_eq!(stats.requests, 1000);
        assert_eq!(stats.failures, 0);
        assert!(
            stats.unique_fis > 900,
            "0.25s sleep should pin ~all probes on distinct FIs: {}",
            stats.unique_fis
        );
        assert!(
            stats.cost_usd < 0.02,
            "paper: under two cents per poll: {}",
            stats.cost_usd
        );
        assert!(!stats.mix_after.is_empty());
    }

    #[test]
    fn short_sleep_causes_reuse() {
        let (mut engine, account, az) = setup("us-west-1a");
        let config = CampaignConfig {
            poll: PollConfig {
                sleep: SimDuration::from_millis(30),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut campaign = SamplingCampaign::new(&mut engine, account, &az, config).unwrap();
        let stats = campaign.poll_once(&mut engine);
        assert!(
            stats.unique_fis < 900,
            "30ms sleep should allow warm reuse: {}",
            stats.unique_fis
        );
    }

    #[test]
    fn polls_accumulate_distinct_fis_across_deployments() {
        let (mut engine, account, az) = setup("eu-central-1a");
        let mut campaign =
            SamplingCampaign::new(&mut engine, account, &az, CampaignConfig::default()).unwrap();
        let s1 = campaign.poll_once(&mut engine);
        let s2 = campaign.poll_once(&mut engine);
        assert!(
            s2.new_fis > 800,
            "second poll hits a different deployment: {}",
            s2.new_fis
        );
        assert_eq!(s2.cumulative_fis, s1.new_fis + s2.new_fis);
    }

    #[test]
    fn small_zone_saturates_and_detects_failure_point() {
        let (mut engine, account, az) = setup("eu-north-1a");
        let mut campaign =
            SamplingCampaign::new(&mut engine, account, &az, CampaignConfig::default()).unwrap();
        let result = campaign.run_until_saturation(&mut engine);
        assert!(result.saturated, "small pool must saturate within the cap");
        assert!(
            result.polls.len() < 15,
            "eu-north-1a fails after few polls: {}",
            result.polls.len()
        );
        assert!(result.total_fis() > 3_000);
        // Ground truth comparison: the saturation estimate is close.
        let truth = engine.platform(&az).unwrap().ground_truth_mix();
        let ape = result.final_mix().ape_percent(&truth);
        assert!(ape < 10.0, "saturation characterization APE {ape}%");
    }

    #[test]
    fn progressive_error_declines() {
        let (mut engine, account, az) = setup("us-west-1a");
        let mut campaign =
            SamplingCampaign::new(&mut engine, account, &az, CampaignConfig::default()).unwrap();
        let result = campaign.run_until_saturation(&mut engine);
        let curve = result.ape_curve();
        assert!(curve.len() > 5);
        // First-poll error meaningful, final error zero by construction.
        assert_eq!(curve.last().unwrap().1, 0.0);
        let early: f64 = curve[0].1;
        let mid = curve[curve.len() / 2].1;
        assert!(early >= mid, "error should shrink: {early} -> {mid}");
        let polls95 = result.polls_to_accuracy(5.0);
        assert!(polls95.is_some());
        let p95 = polls95.unwrap();
        let p85 = result.polls_to_accuracy(15.0).unwrap();
        assert!(p85 <= p95, "85% accuracy needs no more polls than 95%");
    }

    #[test]
    fn homogeneous_zone_has_zero_error_from_first_poll() {
        let (mut engine, account, az) = setup("us-east-2a");
        let mut campaign =
            SamplingCampaign::new(&mut engine, account, &az, CampaignConfig::default()).unwrap();
        let s = campaign.poll_once(&mut engine);
        let truth = engine.platform(&az).unwrap().ground_truth_mix();
        assert_eq!(
            s.mix_after.ape_percent(&truth),
            0.0,
            "us-east-2a is all 2.5GHz: every sample agrees"
        );
    }
}
