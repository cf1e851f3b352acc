//! CPU characterizations built from SAAF observations.
//!
//! A [`Characterization`] is the accumulating estimate of an AZ's hidden
//! CPU distribution: every SAAF report observed in that zone adds one
//! sample, attributed to a *unique function instance* (the paper counts
//! FIs, not requests, so warm re-invocations of an already-seen FI do not
//! inflate the estimate).

use serde::{Deserialize, Serialize};
use sky_cloud::{CpuMix, CpuType};
use sky_faas::SaafReport;
use sky_sim::{SimDuration, SimTime};
// sky-lint: allow(D001, seen_fis is membership-only - see its field pragma)
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// The single shared notion of "estimate age": how long ago the evidence
/// behind an estimate was observed. Everything that reasons about
/// recency — the store's staleness policy, the temporal campaigns'
/// drift curves and the streaming estimator — goes through this helper
/// instead of re-deriving the subtraction locally.
pub fn estimate_age(observed_at: SimTime, now: SimTime) -> SimDuration {
    now.saturating_since(observed_at)
}

/// [`estimate_age`] in fractional days — the unit Figure 7 plots drift
/// against.
pub fn age_in_days(observed_at: SimTime, now: SimTime) -> f64 {
    estimate_age(observed_at, now).as_secs_f64() / 86_400.0
}

/// An accumulating CPU characterization for one deployment target
/// (typically an AZ).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Characterization {
    /// Unique-FI counts per CPU type.
    counts: BTreeMap<CpuType, u64>,
    /// Unrecognized CPU model strings (never produced by the simulator,
    /// but the profiler does not assume that).
    unknown: u64,
    /// FI uuids already counted. `Arc<str>` keys share the reports'
    /// uuid allocations instead of copying each string.
    #[serde(skip)]
    // sky-lint: allow(D001, membership-only dedup set on the observe hot path; never iterated - counts come from len)
    seen_fis: HashSet<Arc<str>>,
    /// Total reports folded in (including duplicates of known FIs).
    reports: u64,
    /// Time of the first and last observation.
    first_at: Option<SimTime>,
    last_at: Option<SimTime>,
}

impl Characterization {
    /// An empty characterization.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one SAAF report. Returns `true` if the report revealed a
    /// previously unseen function instance.
    pub fn observe(&mut self, report: &SaafReport) -> bool {
        self.reports += 1;
        if self.first_at.is_none() {
            self.first_at = Some(report.finished_at);
        }
        self.last_at = Some(report.finished_at);
        if !self.seen_fis.insert(report.instance_uuid.clone()) {
            return false;
        }
        match report.cpu_type() {
            Some(cpu) => *self.counts.entry(cpu).or_default() += 1,
            None => self.unknown += 1,
        }
        true
    }

    /// Fold in many reports; returns how many unique FIs were new.
    pub fn observe_all<'a, I: IntoIterator<Item = &'a SaafReport>>(&mut self, reports: I) -> u64 {
        reports.into_iter().filter(|r| self.observe(r)).count() as u64
    }

    /// Number of distinct function instances observed.
    pub fn unique_fis(&self) -> u64 {
        self.seen_fis.len() as u64
    }

    /// Total reports folded in (requests, not FIs).
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Number of reports with unrecognized CPU strings.
    pub fn unknown(&self) -> u64 {
        self.unknown
    }

    /// Per-CPU unique-FI counts.
    pub fn counts(&self) -> impl Iterator<Item = (CpuType, u64)> + '_ {
        self.counts.iter().map(|(&c, &n)| (c, n))
    }

    /// The estimated CPU distribution.
    pub fn to_mix(&self) -> CpuMix {
        let pairs: Vec<(CpuType, u64)> = self.counts().collect();
        CpuMix::from_counts(&pairs)
    }

    /// Characterization error vs a reference distribution, in percent
    /// (total-variation distance ×100; see DESIGN.md §3).
    pub fn ape_percent(&self, reference: &CpuMix) -> f64 {
        self.to_mix().ape_percent(reference)
    }

    /// Time of first observation.
    pub fn first_at(&self) -> Option<SimTime> {
        self.first_at
    }

    /// Time of last observation.
    pub fn last_at(&self) -> Option<SimTime> {
        self.last_at
    }

    /// Age of the estimate at `now` — time since the last supporting
    /// observation (see [`estimate_age`]).
    pub fn age(&self, now: SimTime) -> Option<SimDuration> {
        self.last_at.map(|at| estimate_age(at, now))
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.reports == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sky_cloud::{Arch, Provider};
    use sky_faas::{HostId, InstanceId};
    use sky_sim::SimDuration;

    fn report(uuid: &str, cpu: CpuType, t: u64) -> SaafReport {
        SaafReport {
            cpu_model: cpu.model_name().into(),
            cpu_ghz: cpu.clock_ghz(),
            instance_uuid: uuid.into(),
            host_id: HostId::from_raw(0),
            instance_id: InstanceId::from_raw(0),
            new_container: true,
            billed: SimDuration::from_millis(250),
            memory_mb: 2048,
            arch: Arch::X86_64,
            provider: Provider::Aws,
            az: "us-west-1a".parse().unwrap(),
            finished_at: SimTime::from_micros(t),
        }
    }

    #[test]
    fn unique_fi_deduplication() {
        let mut c = Characterization::new();
        assert!(c.observe(&report("a", CpuType::IntelXeon2_5, 1)));
        assert!(
            !c.observe(&report("a", CpuType::IntelXeon2_5, 2)),
            "same FI"
        );
        assert!(c.observe(&report("b", CpuType::IntelXeon3_0, 3)));
        assert_eq!(c.unique_fis(), 2);
        assert_eq!(c.reports(), 3);
        let mix = c.to_mix();
        assert!((mix.share(CpuType::IntelXeon2_5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unknown_cpus_counted_but_excluded_from_mix() {
        let mut c = Characterization::new();
        let mut r = report("x", CpuType::AmdEpyc, 1);
        r.cpu_model = "Mystery".into();
        c.observe(&r);
        c.observe(&report("y", CpuType::AmdEpyc, 2));
        assert_eq!(c.unknown(), 1);
        assert_eq!(c.to_mix().n_types(), 1);
    }

    #[test]
    fn ape_against_reference() {
        let mut c = Characterization::new();
        for i in 0..50 {
            c.observe(&report(&format!("f{i}"), CpuType::IntelXeon2_5, i));
        }
        for i in 50..100 {
            c.observe(&report(&format!("f{i}"), CpuType::IntelXeon3_0, i));
        }
        let truth =
            CpuMix::from_shares(&[(CpuType::IntelXeon2_5, 0.5), (CpuType::IntelXeon3_0, 0.5)]);
        assert!(c.ape_percent(&truth) < 1e-9);
        let skewed = CpuMix::from_shares(&[(CpuType::IntelXeon2_5, 1.0)]);
        assert!((c.ape_percent(&skewed) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn observe_all_counts_new_fis() {
        let mut c = Characterization::new();
        let reports: Vec<SaafReport> = (0..10)
            .map(|i| report(&format!("fi{}", i % 5), CpuType::IntelXeon2_9, i))
            .collect();
        let new = c.observe_all(reports.iter());
        assert_eq!(new, 5);
        assert_eq!(c.reports(), 10);
    }

    #[test]
    fn timestamps_track_first_and_last() {
        let mut c = Characterization::new();
        assert!(c.is_empty());
        c.observe(&report("a", CpuType::IntelXeon2_5, 100));
        c.observe(&report("b", CpuType::IntelXeon2_5, 50));
        assert_eq!(c.first_at(), Some(SimTime::from_micros(100)));
        assert_eq!(c.last_at(), Some(SimTime::from_micros(50)));
        assert!(!c.is_empty());
    }
}
