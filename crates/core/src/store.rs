//! The characterization store: the router's knowledge base.
//!
//! Holds time-stamped CPU characterizations per AZ, answers staleness
//! questions ("how old is my view of us-west-1b?"), tracks drift history
//! (EX-4, Figure 7) and classifies zones as stable or volatile so the
//! characterizer's cadence can spend probes where they matter (paper
//! §4.4's suggestion, implemented). [`CharacterizationStore::probe`] is
//! the one way a sampling campaign's result enters a store.

use crate::characterization::{age_in_days, estimate_age};
use crate::sampling::{CampaignConfig, PollConfig, SamplingCampaign};
use serde::{Deserialize, Serialize};
use sky_cloud::{AzId, CpuMix};
use sky_faas::{AccountId, DeployError, FaasEngine};
use sky_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One stored characterization snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// When the snapshot was recorded.
    pub at: SimTime,
    /// The estimated CPU distribution.
    pub mix: CpuMix,
    /// Unique FIs backing the estimate.
    pub samples: u64,
    /// Dollars spent obtaining it.
    pub cost_usd: f64,
    /// Fraction of the sampling requests that failed — the probe doubles
    /// as a health check (a zone in outage reports ~100 % here, and the
    /// router routes around it).
    #[serde(default)]
    pub failure_rate: f64,
}

impl Snapshot {
    /// Whether the zone looked healthy when sampled (failure rate below
    /// one half — the same threshold the saturation detector uses).
    pub fn healthy(&self) -> bool {
        self.failure_rate < 0.5
    }
}

/// Observed temporal behaviour of a zone's hardware pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StabilityClass {
    /// Drift stays below the stability threshold — characterizations stay
    /// valid for many days (sa-east-1a, eu-north-1a in the paper).
    Stable,
    /// Drift exceeds the threshold — re-sample frequently (ca-central-1a,
    /// us-west-1a/b).
    Volatile,
    /// Not enough history to classify.
    Unknown,
}

/// Per-AZ history plus store-wide policy knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationStore {
    history: BTreeMap<AzId, Vec<Snapshot>>,
    /// A snapshot older than this is considered stale for routing.
    pub max_age: SimDuration,
    /// Day-over-day APE above this marks a zone volatile.
    pub stability_threshold_pct: f64,
}

impl Default for CharacterizationStore {
    fn default() -> Self {
        CharacterizationStore {
            history: BTreeMap::new(),
            max_age: SimDuration::from_hours(24),
            stability_threshold_pct: 10.0,
        }
    }
}

impl CharacterizationStore {
    /// An empty store with default staleness policy (24 h).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a healthy snapshot for a zone. Snapshots must arrive in
    /// time order per zone.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the zone's latest snapshot.
    pub fn record(&mut self, az: &AzId, at: SimTime, mix: CpuMix, samples: u64, cost_usd: f64) {
        self.record_with_health(az, at, mix, samples, cost_usd, 0.0);
    }

    /// Record a snapshot including the sampling failure rate (the zone's
    /// health signal).
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the zone's latest snapshot.
    pub fn record_with_health(
        &mut self,
        az: &AzId,
        at: SimTime,
        mix: CpuMix,
        samples: u64,
        cost_usd: f64,
        failure_rate: f64,
    ) {
        let entry = self.history.entry(az.clone()).or_default();
        if let Some(last) = entry.last() {
            assert!(at >= last.at, "snapshots must be recorded in time order");
        }
        entry.push(Snapshot {
            at,
            mix,
            samples,
            cost_usd,
            failure_rate,
        });
    }

    /// Probe a zone with `polls` sampling polls (paper §3.1), each
    /// against its own freshly deployed probe function, and record the
    /// result as the zone's newest snapshot. The snapshot is stamped when
    /// the first poll starts and carries the probe's failure rate, so a
    /// zone in outage reads as unhealthy.
    ///
    /// The engine's observation hook is paused while the polls run and
    /// then restored: probe traffic never reaches a characterizer as
    /// production evidence.
    ///
    /// # Errors
    ///
    /// Propagates [`DeployError`] from deploying the probe functions;
    /// the store is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the engine's clock precedes the zone's latest snapshot.
    pub fn probe(
        &mut self,
        engine: &mut FaasEngine,
        account: AccountId,
        az: &AzId,
        polls: usize,
        poll: PollConfig,
    ) -> Result<&Snapshot, DeployError> {
        let config = CampaignConfig {
            deployments: polls,
            poll,
            ..Default::default()
        };
        let mut campaign = SamplingCampaign::new(engine, account, az, config)?;
        let at = engine.now();
        let hook = engine.observation_hook();
        engine.set_observation_hook(false);
        campaign.run_polls(engine, polls);
        engine.set_observation_hook(hook);
        let found = campaign.characterization();
        self.record_with_health(
            az,
            at,
            found.to_mix(),
            found.unique_fis(),
            campaign.total_cost_usd(),
            campaign.overall_failure_rate(),
        );
        Ok(self.latest(az).expect("a snapshot was just recorded"))
    }

    /// The most recent snapshot for a zone.
    pub fn latest(&self, az: &AzId) -> Option<&Snapshot> {
        self.history.get(az).and_then(|v| v.last())
    }

    /// The most recent snapshot no older than `max_age` at time `now`.
    pub fn fresh(&self, az: &AzId, now: SimTime) -> Option<&Snapshot> {
        self.latest(az)
            .filter(|s| estimate_age(s.at, now) <= self.max_age)
    }

    /// Age of the latest snapshot at `now`.
    pub fn age(&self, az: &AzId, now: SimTime) -> Option<SimDuration> {
        self.latest(az).map(|s| estimate_age(s.at, now))
    }

    /// Full history for a zone, oldest first.
    pub fn history(&self, az: &AzId) -> &[Snapshot] {
        self.history.get(az).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Zones with at least one snapshot.
    pub fn azs(&self) -> impl Iterator<Item = &AzId> {
        self.history.keys()
    }

    /// Total dollars spent on characterizations in this store.
    pub fn total_cost_usd(&self) -> f64 {
        self.history
            .values()
            .flat_map(|v| v.iter())
            .map(|s| s.cost_usd)
            .sum()
    }

    /// Drift curve vs the zone's *first* snapshot — Figure 7's series:
    /// `(days since first snapshot, APE vs day-one profile)`.
    pub fn drift_from_first(&self, az: &AzId) -> Vec<(f64, f64)> {
        let history = self.history(az);
        let Some(first) = history.first() else {
            return Vec::new();
        };
        history
            .iter()
            .map(|s| (age_in_days(first.at, s.at), s.mix.ape_percent(&first.mix)))
            .collect()
    }

    /// Largest consecutive (snapshot-to-snapshot) APE step for a zone.
    pub fn max_step_ape(&self, az: &AzId) -> Option<f64> {
        let history = self.history(az);
        if history.len() < 2 {
            return None;
        }
        history
            .windows(2)
            .map(|w| w[1].mix.ape_percent(&w[0].mix))
            .max_by(|a, b| a.partial_cmp(b).expect("APE is finite"))
    }

    /// Classify a zone by its observed drift: volatile if any
    /// snapshot-to-snapshot step exceeded the stability threshold, **or**
    /// if cumulative drift from the first snapshot ever exceeded twice
    /// the threshold (a zone can churn slowly but steadily away from its
    /// original profile — ca-central-1a behaves this way in the paper).
    pub fn classify(&self, az: &AzId) -> StabilityClass {
        let Some(step) = self.max_step_ape(az) else {
            return StabilityClass::Unknown;
        };
        let max_cumulative = self
            .drift_from_first(az)
            .iter()
            .map(|&(_, ape)| ape)
            .fold(0.0, f64::max);
        if step > self.stability_threshold_pct
            || max_cumulative > 2.0 * self.stability_threshold_pct
        {
            StabilityClass::Volatile
        } else {
            StabilityClass::Stable
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sky_cloud::{Catalog, CpuType, Provider};
    use sky_faas::FleetConfig;

    fn az(s: &str) -> AzId {
        s.parse().unwrap()
    }

    fn mix(a: f64, b: f64) -> CpuMix {
        CpuMix::from_shares(&[(CpuType::IntelXeon2_5, a), (CpuType::IntelXeon3_0, b)])
    }

    #[test]
    fn record_and_fetch_latest() {
        let mut store = CharacterizationStore::new();
        let z = az("us-west-1b");
        store.record(&z, SimTime::from_micros(1), mix(0.5, 0.5), 900, 0.01);
        store.record(&z, SimTime::from_micros(2), mix(0.4, 0.6), 950, 0.01);
        assert_eq!(store.latest(&z).unwrap().samples, 950);
        assert_eq!(store.history(&z).len(), 2);
        assert_eq!(store.azs().count(), 1);
        assert!((store.total_cost_usd() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn freshness_policy() {
        let mut store = CharacterizationStore::new();
        let z = az("us-west-1b");
        let t0 = SimTime::ZERO;
        store.record(&z, t0, mix(0.5, 0.5), 900, 0.01);
        let soon = t0 + SimDuration::from_hours(12);
        let late = t0 + SimDuration::from_hours(30);
        assert!(store.fresh(&z, soon).is_some());
        assert!(store.fresh(&z, late).is_none(), "24h staleness bound");
        assert_eq!(store.age(&z, soon), Some(SimDuration::from_hours(12)));
        assert!(store.fresh(&az("nowhere-1a"), soon).is_none());
    }

    #[test]
    fn drift_curve_vs_first() {
        let mut store = CharacterizationStore::new();
        let z = az("ca-central-1a");
        store.record(&z, SimTime::start_of_day(0), mix(0.5, 0.5), 900, 0.0);
        store.record(&z, SimTime::start_of_day(1), mix(0.3, 0.7), 900, 0.0);
        store.record(&z, SimTime::start_of_day(2), mix(0.5, 0.5), 900, 0.0);
        let drift = store.drift_from_first(&z);
        assert_eq!(drift.len(), 3);
        assert_eq!(drift[0], (0.0, 0.0));
        assert!(
            (drift[1].1 - 20.0).abs() < 1e-9,
            "TV((.5,.5),(.3,.7)) = 20%"
        );
        assert_eq!(drift[2].1, 0.0);
    }

    #[test]
    fn stability_classification() {
        let mut store = CharacterizationStore::new();
        let stable = az("sa-east-1a");
        let volatile = az("us-west-1a");
        for day in 0..5 {
            store.record(
                &stable,
                SimTime::start_of_day(day),
                mix(0.5 + 0.01 * day as f64, 0.5 - 0.01 * day as f64),
                900,
                0.0,
            );
            let swing = if day % 2 == 0 { 0.2 } else { -0.2 };
            store.record(
                &volatile,
                SimTime::start_of_day(day),
                mix(0.5 + swing, 0.5 - swing),
                900,
                0.0,
            );
        }
        assert_eq!(store.classify(&stable), StabilityClass::Stable);
        assert_eq!(store.classify(&volatile), StabilityClass::Volatile);
        assert_eq!(store.classify(&az("unseen-1a")), StabilityClass::Unknown);
    }

    #[test]
    fn probe_records_health_and_keeps_probe_traffic_off_the_hook() {
        let mut engine = FaasEngine::new(Catalog::paper_world(5), FleetConfig::new(5));
        let account = engine.create_account(Provider::Aws);
        let zone = az("eu-north-1a");
        engine.set_observation_hook(true);
        let mut store = CharacterizationStore::new();
        let now = engine.now();
        let first = store
            .probe(&mut engine, account, &zone, 2, PollConfig::default())
            .unwrap();
        assert_eq!(first.at, now, "stamped when the first poll starts");
        assert!(first.samples > 0 && first.cost_usd > 0.0);
        assert!(first.healthy());
        assert!(engine.observation_hook(), "the hook is restored");
        assert!(
            engine.take_observations(&zone).is_empty(),
            "probe traffic is not production evidence"
        );

        // Once the zone is saturated, the next probe reads as an outage.
        SamplingCampaign::new(&mut engine, account, &zone, CampaignConfig::default())
            .unwrap()
            .run_until_saturation(&mut engine);
        let second = store
            .probe(&mut engine, account, &zone, 2, PollConfig::default())
            .unwrap();
        assert!(second.failure_rate > 0.5, "{}", second.failure_rate);
        assert!(!second.healthy());
        assert_eq!(store.history(&zone).len(), 2);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_rejected() {
        let mut store = CharacterizationStore::new();
        let z = az("us-east-2a");
        store.record(&z, SimTime::from_micros(10), mix(1.0, 0.0), 1, 0.0);
        store.record(&z, SimTime::from_micros(5), mix(1.0, 0.0), 1, 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let mut store = CharacterizationStore::new();
        store.record(&az("us-east-2a"), SimTime::ZERO, mix(1.0, 0.0), 10, 0.04);
        let json = serde_json::to_string(&store).unwrap();
        let back: CharacterizationStore = serde_json::from_str(&json).unwrap();
        assert_eq!(store, back);
    }
}
