//! Streaming characterization under drift (ROADMAP: online adaptive
//! characterization; DESIGN.md §14).
//!
//! The paper characterizes a zone with a one-shot sampling campaign and
//! refreshes it on a ~22 h cadence. "Unveiling Overlooked Performance
//! Variance in Serverless Computing" (PAPERS.md) shows commodity fleets
//! drift faster than that, so this module refactors the characterization
//! path into a pluggable [`Characterizer`]:
//!
//! * [`StaticCharacterizer`] — the paper's comparator: probe-only
//!   knowledge refreshed on a cadence until the probe budget runs out,
//!   production traffic ignored. The cadence is a [`SchedulerConfig`]:
//!   22 h for every zone, or §4.4's adaptive variant that lets zones
//!   whose probe history classifies stable coast for a week;
//! * [`StreamingCharacterizer`] — every completed invocation's SAAF
//!   report (fed back through the faas engine's observation hook) decays
//!   into a per-(AZ, CPU-type) fixed-point EWMA estimate, and a CUSUM
//!   change-point detector over that decayed estimate requests targeted
//!   re-sampling within the same probe budget.
//!
//! All state is integer fixed-point (x256 decay, x10 000 shares — the
//! same style as the PR-7 pool EWMA), so estimates are byte-identical
//! across runs and `--jobs` settings.

use crate::characterization::estimate_age;
use crate::store::{CharacterizationStore, StabilityClass};
use serde::{Deserialize, Serialize};
use sky_cloud::{AzId, CpuMix, CpuType};
use sky_faas::SaafReport;
use sky_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Fixed-point mass a freshly probed estimate is seeded with; the EWMA
/// bump is `SCALE * gain / 256`, so the steady-state total mass under a
/// saturated stream is exactly `SCALE`.
const SCALE: u64 = 65_536;

/// An online estimate of each zone's CPU mix, refreshable by targeted
/// probes (sampling campaigns) and — depending on the implementation —
/// by passive observation of production traffic.
pub trait Characterizer {
    /// Stable label for report tables ("static" / "streaming").
    fn label(&self) -> &'static str;

    /// Fold one completed invocation's SAAF report into the zone's
    /// estimate. Static implementations ignore this (probe-only).
    fn observe(&mut self, az: &AzId, report: &SaafReport);

    /// The current mix estimate for a zone, if any evidence exists.
    fn estimate(&self, az: &AzId) -> Option<CpuMix>;

    /// When the estimate's most recent supporting evidence was observed.
    fn last_evidence_at(&self, az: &AzId) -> Option<SimTime>;

    /// Age of the estimate at `now` (the shared notion from
    /// [`crate::characterization::estimate_age`]).
    fn estimate_age(&self, az: &AzId, now: SimTime) -> Option<SimDuration> {
        self.last_evidence_at(az).map(|at| estimate_age(at, now))
    }

    /// Whether the zone should be actively re-probed now. Always false
    /// once the probe budget is exhausted.
    fn wants_probe(&self, az: &AzId, now: SimTime) -> bool;

    /// Record the result of a targeted probe (a sampling campaign),
    /// consuming one unit of probe budget.
    fn record_probe(&mut self, az: &AzId, at: SimTime, mix: &CpuMix);

    /// Probes consumed so far.
    fn probes_used(&self) -> u32;

    /// The probe budget.
    fn probe_budget(&self) -> u32;
}

/// Re-probe cadence policy (paper §4.4). EX-4 found that some zones'
/// characterizations stay valid for two weeks while others rot within a
/// day, "offering an opportunity to classify AZs' behavior to determine
/// sampling requirements". The cadence classifies a zone from its probe
/// history: volatile zones are re-probed on the paper's 22 h cadence,
/// stable zones weekly, and zones with too little history eagerly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Re-probe interval for volatile (and unclassified) zones.
    pub volatile_interval: SimDuration,
    /// Re-probe interval for stable zones.
    pub stable_interval: SimDuration,
    /// Probes required before a zone may be treated as stable (guards
    /// against classifying on a lucky quiet day).
    pub min_history: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            volatile_interval: SimDuration::from_hours(22),
            stable_interval: SimDuration::from_days(7),
            min_history: 3,
        }
    }
}

impl SchedulerConfig {
    /// The interval currently appropriate for a zone, given its probe
    /// history.
    pub fn interval_for(&self, history: &CharacterizationStore, az: &AzId) -> SimDuration {
        if history.history(az).len() < self.min_history {
            return self.volatile_interval;
        }
        match history.classify(az) {
            StabilityClass::Stable => self.stable_interval,
            StabilityClass::Volatile | StabilityClass::Unknown => self.volatile_interval,
        }
    }
}

/// The paper's static comparator: the estimate is whatever the last
/// sampling campaign saw, re-sampling follows a [`SchedulerConfig`]
/// cadence while budget remains, and production traffic teaches it
/// nothing. Routing through this characterizer reproduces the existing
/// store-driven behavior byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticCharacterizer {
    cadence: SchedulerConfig,
    probe_budget: u32,
    probes_used: u32,
    history: CharacterizationStore,
}

impl StaticCharacterizer {
    /// The paper's comparator: every zone is re-probed on the 22 h
    /// cadence (so the probe hour walks around the clock), whatever its
    /// history.
    pub fn new(probe_budget: u32) -> Self {
        let daily = SchedulerConfig::default().volatile_interval;
        Self::with_cadence(
            SchedulerConfig {
                stable_interval: daily,
                ..Default::default()
            },
            probe_budget,
        )
    }

    /// A characterizer on the given cadence; `SchedulerConfig::default()`
    /// is §4.4's adaptive cadence.
    pub fn with_cadence(cadence: SchedulerConfig, probe_budget: u32) -> Self {
        StaticCharacterizer {
            cadence,
            probe_budget,
            probes_used: 0,
            history: CharacterizationStore::new(),
        }
    }
}

impl Characterizer for StaticCharacterizer {
    fn label(&self) -> &'static str {
        "static"
    }

    fn observe(&mut self, _az: &AzId, _report: &SaafReport) {
        // Probe-only: the static path never learns from production
        // traffic (paper §4.4).
    }

    fn estimate(&self, az: &AzId) -> Option<CpuMix> {
        self.history.latest(az).map(|s| s.mix.clone())
    }

    fn last_evidence_at(&self, az: &AzId) -> Option<SimTime> {
        self.history.latest(az).map(|s| s.at)
    }

    fn wants_probe(&self, az: &AzId, now: SimTime) -> bool {
        if self.probes_used >= self.probe_budget {
            return false;
        }
        match self.history.age(az, now) {
            None => true,
            Some(age) => age >= self.cadence.interval_for(&self.history, az),
        }
    }

    /// # Panics
    ///
    /// Panics if `at` precedes the zone's previous probe (the probe
    /// history is a [`CharacterizationStore`], which keeps time order).
    fn record_probe(&mut self, az: &AzId, at: SimTime, mix: &CpuMix) {
        self.history.record(az, at, mix.clone(), 0, 0.0);
        self.probes_used += 1;
    }

    fn probes_used(&self) -> u32 {
        self.probes_used
    }

    fn probe_budget(&self) -> u32 {
        self.probe_budget
    }
}

/// Tunables of the [`StreamingCharacterizer`]. All thresholds are
/// integers so detection decisions are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamingConfig {
    /// EWMA gain numerator out of 256 (`alpha = gain_x256 / 256`); 16
    /// gives a ~16-observation time constant.
    pub gain_x256: u32,
    /// CUSUM per-observation drift allowance, in total-variation x10 000
    /// (3 000 = ignore excursions below 30 % TV).
    pub cusum_delta_x10k: i64,
    /// CUSUM firing threshold, cumulative x10 000.
    pub cusum_lambda_x10k: i64,
    /// Observations a self-seeded zone (never probed) accumulates before
    /// its reference mix is locked and the detector arms.
    pub warmup: u32,
    /// Probes the detector may trigger before going quiet.
    pub probe_budget: u32,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            gain_x256: 16,
            cusum_delta_x10k: 3_000,
            cusum_lambda_x10k: 60_000,
            warmup: 32,
            probe_budget: 12,
        }
    }
}

/// Per-zone streaming state: decayed fixed-point CPU weights plus the
/// CUSUM detector over their distance from the reference mix.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct ZoneEstimate {
    /// Fixed-point CPU weights (sum ~= `SCALE` once saturated).
    weights: BTreeMap<CpuType, u64>,
    /// Reference shares (x10 000) locked at the last probe / warmup end.
    reference: Option<BTreeMap<CpuType, i64>>,
    /// One-sided CUSUM statistic (x10 000).
    cusum: i64,
    /// Latched when the CUSUM crosses lambda; cleared by the next probe.
    fired: bool,
    /// Observations since the last probe / reset.
    since_reset: u32,
    /// Lifetime observations folded in.
    observations: u64,
    last_at: Option<SimTime>,
}

impl ZoneEstimate {
    /// Each CPU's share of the weight mass (x10 000), in CPU order;
    /// nothing while the mass is zero.
    fn shares(&self) -> impl Iterator<Item = (CpuType, i64)> + '_ {
        let total: u64 = self.weights.values().sum();
        self.weights
            .iter()
            .filter_map(move |(&c, &w)| Some((c, (w * 10_000).checked_div(total)? as i64)))
    }

    /// Total-variation distance (x10 000) between the current shares and
    /// the reference. It runs once per observation, so it folds the
    /// shares as they come instead of collecting them: start from the
    /// whole reference mass, which counts where no current share meets
    /// it, and trade each met reference share `r` for `|s - r|`.
    fn tv_from_reference_x10k(&self) -> i64 {
        let Some(reference) = &self.reference else {
            return 0;
        };
        let sum = self
            .shares()
            .fold(reference.values().sum::<i64>(), |sum, (c, s)| {
                let r = reference.get(&c).copied().unwrap_or(0);
                sum + (s - r).abs() - r
            });
        sum / 2
    }

    fn seed(&mut self, at: SimTime, mix: &CpuMix) {
        self.weights = mix
            .iter()
            .map(|(c, share)| (c, (share * SCALE as f64) as u64))
            .filter(|&(_, w)| w > 0)
            .collect();
        self.reference = Some(self.shares().collect());
        self.cusum = 0;
        self.fired = false;
        self.since_reset = 0;
        self.last_at = Some(at);
    }
}

/// The streaming characterizer: decayed per-(AZ, CPU-type) mix estimate
/// fed by every completed invocation, with CUSUM change-point detection
/// requesting targeted re-sampling within an explicit probe budget.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamingCharacterizer {
    config: StreamingConfig,
    probes_used: u32,
    zones: BTreeMap<AzId, ZoneEstimate>,
}

impl StreamingCharacterizer {
    /// A streaming characterizer with the given tunables.
    pub fn new(config: StreamingConfig) -> Self {
        StreamingCharacterizer {
            config,
            probes_used: 0,
            zones: BTreeMap::new(),
        }
    }

    /// The tunables in force.
    pub fn config(&self) -> &StreamingConfig {
        &self.config
    }

    /// Lifetime observations folded in for a zone.
    pub fn observations(&self, az: &AzId) -> u64 {
        self.zones.get(az).map(|z| z.observations).unwrap_or(0)
    }

    /// Current CUSUM statistic (x10 000) — visible for experiments that
    /// plot detector trajectories.
    pub fn cusum_x10k(&self, az: &AzId) -> i64 {
        self.zones.get(az).map(|z| z.cusum).unwrap_or(0)
    }

    /// Whether the zone's detector has latched a change-point since the
    /// last probe (regardless of remaining budget).
    pub fn detector_fired(&self, az: &AzId) -> bool {
        self.zones.get(az).map(|z| z.fired).unwrap_or(false)
    }
}

impl Characterizer for StreamingCharacterizer {
    fn label(&self) -> &'static str {
        "streaming"
    }

    fn observe(&mut self, az: &AzId, report: &SaafReport) {
        let Some(cpu) = report.cpu_type() else {
            // Unrecognized CPU model strings never enter the mix — same
            // policy as `Characterization::observe`'s `unknown` bucket.
            return;
        };
        let gain = self.config.gain_x256 as u64;
        let zone = self.zones.entry(az.clone()).or_default();
        // Decay every weight by (256 - gain)/256, then bump the observed
        // CPU — the same integer fixed-point fold as the pool EWMA.
        zone.weights.retain(|_, w| {
            *w = *w * (256 - gain) / 256;
            *w > 0
        });
        *zone.weights.entry(cpu).or_insert(0) += SCALE * gain / 256;
        zone.observations += 1;
        zone.since_reset += 1;
        zone.last_at = Some(report.finished_at);
        if zone.reference.is_none() {
            // Self-seeded zone: lock the reference once the estimate has
            // warmed up, then arm the detector.
            if zone.since_reset >= self.config.warmup {
                zone.reference = Some(zone.shares().collect());
                zone.cusum = 0;
            }
            return;
        }
        if zone.fired {
            return; // latched until the probe lands
        }
        let deviation = zone.tv_from_reference_x10k();
        zone.cusum = (zone.cusum + deviation - self.config.cusum_delta_x10k).max(0);
        if zone.cusum > self.config.cusum_lambda_x10k {
            zone.fired = true;
        }
    }

    fn estimate(&self, az: &AzId) -> Option<CpuMix> {
        let zone = self.zones.get(az)?;
        if zone.weights.is_empty() {
            return None;
        }
        let pairs: Vec<(CpuType, u64)> = zone.weights.iter().map(|(&c, &w)| (c, w)).collect();
        Some(CpuMix::from_counts(&pairs))
    }

    fn last_evidence_at(&self, az: &AzId) -> Option<SimTime> {
        self.zones.get(az).and_then(|z| z.last_at)
    }

    fn wants_probe(&self, az: &AzId, _now: SimTime) -> bool {
        self.probes_used < self.config.probe_budget && self.detector_fired(az)
    }

    fn record_probe(&mut self, az: &AzId, at: SimTime, mix: &CpuMix) {
        self.zones.entry(az.clone()).or_default().seed(at, mix);
        self.probes_used += 1;
    }

    fn probes_used(&self) -> u32 {
        self.probes_used
    }

    fn probe_budget(&self) -> u32 {
        self.config.probe_budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sky_cloud::{Arch, Provider};
    use sky_faas::HostId;
    use sky_sim::{SimRng, Uuid};

    fn az(s: &str) -> AzId {
        s.parse().unwrap()
    }

    /// A report from FI number `fi`.
    fn report(fi: u64, cpu: CpuType, t: u64) -> SaafReport {
        SaafReport {
            cpu_model: cpu.model_name().into(),
            cpu_ghz: cpu.clock_ghz(),
            instance_uuid: Uuid::from_u128(fi.into()),
            host_id: HostId::from_raw(0),
            new_container: true,
            billed: SimDuration::from_millis(250),
            memory_mb: 2048,
            arch: Arch::X86_64,
            provider: Provider::Aws,
            az: az("us-west-1a"),
            finished_at: SimTime::from_micros(t),
        }
    }

    /// Day `day`'s probed mix of a zone that swings 25 points either way
    /// daily (volatile) or creeps half a point a day (stable).
    fn daily_mix(volatile: bool, day: u64) -> CpuMix {
        let swing = match (volatile, day % 2) {
            (false, _) => 0.005 * day as f64,
            (true, 0) => 0.25,
            (true, _) => -0.25,
        };
        CpuMix::from_shares(&[
            (CpuType::IntelXeon2_5, 0.5 + swing),
            (CpuType::IntelXeon3_0, 0.5 - swing),
        ])
    }

    fn seed_history(store: &mut CharacterizationStore, zone: &AzId, volatile: bool, days: u64) {
        for day in 0..days {
            let at = SimTime::start_of_day(day);
            store.record(zone, at, daily_mix(volatile, day), 900, 0.01);
        }
    }

    fn draw_cpu(rng: &mut SimRng, mix: &CpuMix) -> CpuType {
        let entries: Vec<(CpuType, f64)> = mix.iter().collect();
        let weights: Vec<f64> = entries.iter().map(|&(_, w)| w).collect();
        entries[rng.weighted_choice(&weights)].0
    }

    fn stream(chr: &mut StreamingCharacterizer, zone: &AzId, mix: &CpuMix, seed: u64, n: u64) {
        let mut rng = SimRng::seed_from(seed).derive("stationary-stream");
        for i in 0..n {
            let cpu = draw_cpu(&mut rng, mix);
            chr.observe(zone, &report(i, cpu, i + 1));
        }
    }

    #[test]
    fn static_characterizer_is_probe_only_on_a_cadence() {
        let zone = az("us-west-1b");
        let mut chr = StaticCharacterizer::new(2);
        assert_eq!(chr.label(), "static");
        assert!(chr.wants_probe(&zone, SimTime::ZERO), "unknown zone");
        // Production traffic teaches the static path nothing.
        chr.observe(&zone, &report(0, CpuType::AmdEpyc, 5));
        assert!(chr.estimate(&zone).is_none());

        let probed = CpuMix::from_shares(&[(CpuType::IntelXeon3_0, 1.0)]);
        chr.record_probe(&zone, SimTime::ZERO, &probed);
        assert_eq!(chr.estimate(&zone), Some(probed));
        assert_eq!(chr.probes_used(), 1);
        let soon = SimTime::ZERO + SimDuration::from_hours(10);
        let later = SimTime::ZERO + SimDuration::from_hours(22);
        assert!(!chr.wants_probe(&zone, soon), "inside the cadence");
        assert!(chr.wants_probe(&zone, later), "cadence elapsed");
        assert_eq!(
            chr.estimate_age(&zone, soon),
            Some(SimDuration::from_hours(10))
        );
        // Budget exhaustion silences the cadence.
        chr.record_probe(&zone, later, &chr.estimate(&zone).unwrap());
        assert!(!chr.wants_probe(&zone, later + SimDuration::from_days(30)));
    }

    #[test]
    fn young_history_stays_on_volatile_cadence() {
        let cadence = SchedulerConfig::default();
        let mut store = CharacterizationStore::new();
        let zone = az("sa-east-1a");
        seed_history(&mut store, &zone, false, 2); // stable-looking, but thin
        assert_eq!(
            cadence.interval_for(&store, &zone),
            cadence.volatile_interval,
            "below min_history: stay eager"
        );
    }

    #[test]
    fn stable_zone_earns_a_long_interval() {
        let cadence = SchedulerConfig::default();
        let mut store = CharacterizationStore::new();
        let stable = az("sa-east-1a");
        let volatile = az("us-west-1b");
        seed_history(&mut store, &stable, false, 5);
        seed_history(&mut store, &volatile, true, 5);
        assert_eq!(
            cadence.interval_for(&store, &stable),
            SimDuration::from_days(7)
        );
        assert_eq!(
            cadence.interval_for(&store, &volatile),
            SimDuration::from_hours(22)
        );
    }

    #[test]
    fn unsampled_zone_is_immediately_due() {
        let chr = StaticCharacterizer::with_cadence(SchedulerConfig::default(), 1);
        assert!(chr.wants_probe(&az("us-west-1a"), SimTime::ZERO));
    }

    #[test]
    fn due_time_tracks_latest_snapshot() {
        let zone = az("eu-north-1a");
        let mut chr = StaticCharacterizer::with_cadence(SchedulerConfig::default(), 5);
        for day in 0..4 {
            chr.record_probe(&zone, SimTime::start_of_day(day), &daily_mix(true, day));
        }
        // Due exactly one volatile interval after the latest probe.
        let due = chr.last_evidence_at(&zone).unwrap() + SimDuration::from_hours(22);
        assert!(!chr.wants_probe(&zone, due - SimDuration::from_micros(1)));
        assert!(chr.wants_probe(&zone, due));
    }

    #[test]
    fn adaptive_cadence_reprobes_volatile_zones_first() {
        let stable = az("sa-east-1a");
        let volatile = az("us-west-1b");
        let mut chr = StaticCharacterizer::with_cadence(SchedulerConfig::default(), 11);
        for day in 0..5 {
            let at = SimTime::start_of_day(day);
            chr.record_probe(&stable, at, &daily_mix(false, day));
            chr.record_probe(&volatile, at, &daily_mix(true, day));
        }
        // Two days after the last probe only the volatile zone is due;
        // eight days after, the stable one is due too.
        let two_days_on = SimTime::start_of_day(6);
        assert!(chr.wants_probe(&volatile, two_days_on));
        assert!(!chr.wants_probe(&stable, two_days_on));
        assert!(chr.wants_probe(&stable, SimTime::start_of_day(12)));
        // Spending the last unit of budget silences both zones.
        chr.record_probe(&volatile, two_days_on, &daily_mix(true, 6));
        let later = SimTime::start_of_day(40);
        assert!(!chr.wants_probe(&volatile, later));
        assert!(!chr.wants_probe(&stable, later));
    }

    /// Property: the EWMA estimate stays within the convex hull of the
    /// observed mixes — its support never leaves the set of CPUs actually
    /// seen, and its shares always sum to 1.
    #[test]
    fn estimate_stays_in_convex_hull_of_observations() {
        let zone = az("us-west-1a");
        for seed in 0..20 {
            let mut chr = StreamingCharacterizer::new(StreamingConfig::default());
            let truth = CpuMix::from_shares(&[
                (CpuType::IntelXeon2_5, 0.4),
                (CpuType::IntelXeon3_0, 0.35),
                (CpuType::AmdEpyc, 0.25),
            ]);
            let mut rng = SimRng::seed_from(seed).derive("hull");
            let mut seen = Vec::new();
            for i in 0..400 {
                let cpu = draw_cpu(&mut rng, &truth);
                if !seen.contains(&cpu) {
                    seen.push(cpu);
                }
                chr.observe(&zone, &report(i, cpu, i + 1));
                let est = chr.estimate(&zone).expect("evidence exists");
                let total: f64 = est.iter().map(|(_, s)| s).sum();
                assert!((total - 1.0).abs() < 1e-9, "shares sum to 1: {total}");
                for (cpu, share) in est.iter() {
                    assert!(
                        seen.contains(&cpu) || share == 0.0,
                        "estimate leaked mass onto unobserved {cpu:?} (seed {seed})"
                    );
                }
            }
        }
    }

    /// Property: on a stationary single-CPU stream the estimate converges
    /// monotonically — the observed CPU's share never decreases.
    #[test]
    fn estimate_converges_monotonically_on_stationary_stream() {
        let zone = az("us-west-1a");
        let mut chr = StreamingCharacterizer::new(StreamingConfig::default());
        // Start from a probe that says the zone is all-EPYC, then stream
        // pure 3.0 GHz Xeon observations.
        chr.record_probe(
            &zone,
            SimTime::ZERO,
            &CpuMix::from_shares(&[(CpuType::AmdEpyc, 1.0)]),
        );
        let mut last_share = 0.0;
        for i in 0..300 {
            chr.observe(&zone, &report(i, CpuType::IntelXeon3_0, i + 1));
            let share = chr.estimate(&zone).unwrap().share(CpuType::IntelXeon3_0);
            assert!(
                share >= last_share,
                "share regressed at obs {i}: {share} < {last_share}"
            );
            last_share = share;
        }
        assert!(last_share > 0.99, "converged: {last_share}");
    }

    /// Property: the change-point detector fires zero false positives on
    /// stationary streams across 100 seeds.
    #[test]
    fn detector_has_no_false_positives_on_stationary_streams() {
        let zone = az("us-west-1a");
        let truth = CpuMix::from_shares(&[
            (CpuType::IntelXeon2_5, 0.25),
            (CpuType::IntelXeon2_9, 0.25),
            (CpuType::IntelXeon3_0, 0.25),
            (CpuType::AmdEpyc, 0.25),
        ]);
        for seed in 0..100 {
            let mut chr = StreamingCharacterizer::new(StreamingConfig::default());
            chr.record_probe(&zone, SimTime::ZERO, &truth);
            stream(&mut chr, &zone, &truth, seed, 1_500);
            assert!(
                !chr.detector_fired(&zone),
                "false positive on stationary stream, seed {seed}, cusum {}",
                chr.cusum_x10k(&zone)
            );
        }
    }

    /// Property: after an injected step change the detector always fires,
    /// within a bounded observation lag.
    #[test]
    fn detector_fires_within_bounded_lag_after_step_change() {
        let zone = az("us-west-1a");
        let before =
            CpuMix::from_shares(&[(CpuType::IntelXeon2_5, 0.6), (CpuType::IntelXeon2_9, 0.4)]);
        let after = CpuMix::from_shares(&[(CpuType::IntelXeon3_0, 0.7), (CpuType::AmdEpyc, 0.3)]);
        const MAX_LAG: u32 = 120;
        for seed in 0..100 {
            let mut chr = StreamingCharacterizer::new(StreamingConfig::default());
            chr.record_probe(&zone, SimTime::ZERO, &before);
            stream(&mut chr, &zone, &before, seed, 200);
            assert!(!chr.detector_fired(&zone), "pre-change fire, seed {seed}");
            let mut rng = SimRng::seed_from(seed).derive("post-change");
            let mut lag = None;
            for i in 0..MAX_LAG {
                let cpu = draw_cpu(&mut rng, &after);
                let fi = 1_000 + u64::from(i);
                chr.observe(&zone, &report(fi, cpu, fi));
                if chr.detector_fired(&zone) {
                    lag = Some(i + 1);
                    break;
                }
            }
            let lag = lag.unwrap_or_else(|| panic!("no fire within {MAX_LAG} obs, seed {seed}"));
            assert!(lag <= MAX_LAG, "lag {lag} out of bound, seed {seed}");
            // A fired detector requests exactly one probe, then re-arms.
            assert!(chr.wants_probe(&zone, SimTime::from_micros(2_000)));
            chr.record_probe(&zone, SimTime::from_micros(2_000), &after);
            assert!(!chr.detector_fired(&zone), "probe clears the latch");
        }
    }

    #[test]
    fn probe_budget_caps_triggered_resampling() {
        let zone = az("us-west-1a");
        let mut chr = StreamingCharacterizer::new(StreamingConfig {
            probe_budget: 1,
            ..Default::default()
        });
        let mix = CpuMix::from_shares(&[(CpuType::IntelXeon2_5, 1.0)]);
        chr.record_probe(&zone, SimTime::ZERO, &mix);
        assert_eq!(chr.probes_used(), 1);
        for i in 0..200 {
            chr.observe(&zone, &report(i, CpuType::AmdEpyc, i + 1));
        }
        assert!(chr.detector_fired(&zone), "full flip must fire");
        assert!(
            !chr.wants_probe(&zone, SimTime::from_micros(300)),
            "budget exhausted: detector fire requests nothing"
        );
    }

    /// The map-building TV formula, kept as the reference for
    /// `tv_from_reference_x10k`: collect the current shares into a map,
    /// then walk both maps.
    fn map_building_tv_x10k(zone: &ZoneEstimate) -> i64 {
        let Some(reference) = &zone.reference else {
            return 0;
        };
        let current = map_building_shares_x10k(zone);
        let mut sum = 0_i64;
        for (&c, &s) in &current {
            sum += (s - reference.get(&c).copied().unwrap_or(0)).abs();
        }
        for (&c, &s) in reference {
            if !current.contains_key(&c) {
                sum += s;
            }
        }
        sum / 2
    }

    fn map_building_shares_x10k(zone: &ZoneEstimate) -> BTreeMap<CpuType, i64> {
        let total: u64 = zone.weights.values().sum();
        if total == 0 {
            return BTreeMap::new();
        }
        zone.weights
            .iter()
            .map(|(&c, &w)| (c, (w * 10_000 / total) as i64))
            .collect()
    }

    /// Property: the in-place TV distance equals the map-building
    /// formula on random weight and reference maps, including empty
    /// weights, disjoint CPU sets and zero shares.
    #[test]
    fn tv_distance_matches_map_building_reference() {
        let mut rng = SimRng::seed_from(42).derive("tv-reference");
        let (mut empty, mut disjoint, mut zero_weight, mut zero_share) = (0, 0, 0, 0);
        for case in 0..4_000 {
            let mut zone = ZoneEstimate::default();
            let mut reference = BTreeMap::new();
            for cpu in CpuType::ALL {
                // Each CPU sits in neither map, one of them, or both.
                let membership = rng.next_below(4);
                if membership & 1 == 1 {
                    let w = match rng.next_below(3) {
                        0 => 0,
                        1 => rng.range_inclusive(1, 10),
                        _ => rng.range_inclusive(1, 4 * SCALE),
                    };
                    zone.weights.insert(cpu, w);
                }
                if membership & 2 == 2 {
                    let s = match rng.next_below(3) {
                        0 => 0,
                        _ => rng.range_inclusive(1, 10_000) as i64,
                    };
                    reference.insert(cpu, s);
                }
            }
            match case % 16 {
                0 => {} // no reference yet
                1 => {
                    zone.weights.clear();
                    zone.reference = Some(reference);
                }
                _ => zone.reference = Some(reference),
            }
            empty += u32::from(zone.weights.is_empty());
            disjoint += u32::from(
                zone.reference
                    .as_ref()
                    .is_some_and(|r| r.keys().all(|c| !zone.weights.contains_key(c))),
            );
            zero_weight += u32::from(zone.weights.values().any(|&w| w == 0));
            zero_share += u32::from(zone.reference.iter().flatten().any(|(_, &s)| s == 0));
            assert_eq!(
                zone.tv_from_reference_x10k(),
                map_building_tv_x10k(&zone),
                "case {case}: weights {:?}, reference {:?}",
                zone.weights,
                zone.reference
            );
        }
        for (what, hits) in [
            ("empty weights", empty),
            ("disjoint CPU sets", disjoint),
            ("zero weights", zero_weight),
            ("zero reference shares", zero_share),
        ] {
            assert!(hits >= 50, "only {hits} cases with {what}");
        }
    }

    #[test]
    fn self_seeded_zone_arms_after_warmup() {
        let zone = az("us-west-1a");
        let mut chr = StreamingCharacterizer::new(StreamingConfig::default());
        let warmup = chr.config().warmup as u64;
        for i in 0..warmup {
            chr.observe(&zone, &report(i, CpuType::IntelXeon2_5, i + 1));
        }
        assert!(!chr.detector_fired(&zone));
        // Post-warmup flip fires without any probe ever recorded.
        for i in 0..200 {
            chr.observe(&zone, &report(1_000 + i, CpuType::AmdEpyc, 500 + i));
        }
        assert!(chr.detector_fired(&zone));
    }
}
