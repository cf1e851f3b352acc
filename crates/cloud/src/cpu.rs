//! CPU catalog and CPU-mix distributions.
//!
//! The paper observed four distinct CPU types backing AWS Lambda (three
//! Intel Xeon steppings at 2.5/2.9/3.0 GHz plus a rare AMD EPYC), two Intel
//! Cascade Lake types on IBM Code Engine (2.4/2.5 GHz), and two Intel Xeon
//! types on DigitalOcean Functions (2.6/2.7 GHz). We reproduce that catalog
//! here, including the `/proc/cpuinfo` model strings a SAAF-style profiler
//! would scrape, plus the ARM Graviton2 that Lambda exposes for `arm64`
//! deployments.

use crate::provider::Provider;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Instruction-set architecture of a function deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Arch {
    /// x86-64 (the architecture all the paper's experiments target).
    X86_64,
    /// 64-bit ARM (AWS Graviton2 on Lambda).
    Arm64,
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arch::X86_64 => write!(f, "x86_64"),
            Arch::Arm64 => write!(f, "arm64"),
        }
    }
}

/// A distinct CPU type observable behind a FaaS platform.
///
/// Variants are ordered roughly by the performance hierarchy the paper
/// reports for CPU-bound workloads on AWS Lambda (3.0 GHz fastest, EPYC
/// slowest), but per-workload factors come from
/// `sky_workloads::perf_model`, not from this ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CpuType {
    /// Intel Xeon @ 2.50 GHz — the most prevalent Lambda CPU.
    IntelXeon2_5,
    /// Intel Xeon @ 2.90 GHz — counter-intuitively 15–30 % slower than the
    /// 2.5 GHz part for most workloads (Figure 9).
    IntelXeon2_9,
    /// Intel Xeon @ 3.00 GHz — the fastest Lambda CPU.
    IntelXeon3_0,
    /// AMD EPYC — rare; slowest for compute, competitive for disk I/O.
    AmdEpyc,
    /// AWS Graviton2 (arm64 deployments only).
    Graviton2,
    /// Intel Cascade Lake @ 2.40 GHz (IBM Code Engine).
    CascadeLake2_4,
    /// Intel Cascade Lake @ 2.50 GHz (IBM Code Engine).
    CascadeLake2_5,
    /// Intel Xeon @ 2.60 GHz (DigitalOcean Functions).
    DoXeon2_6,
    /// Intel Xeon @ 2.70 GHz (DigitalOcean Functions).
    DoXeon2_7,
}

impl CpuType {
    /// All catalogued CPU types.
    pub const ALL: [CpuType; 9] = [
        CpuType::IntelXeon2_5,
        CpuType::IntelXeon2_9,
        CpuType::IntelXeon3_0,
        CpuType::AmdEpyc,
        CpuType::Graviton2,
        CpuType::CascadeLake2_4,
        CpuType::CascadeLake2_5,
        CpuType::DoXeon2_6,
        CpuType::DoXeon2_7,
    ];

    /// The four x86 CPU types observable on AWS Lambda (Figure 2).
    pub const AWS_X86: [CpuType; 4] = [
        CpuType::IntelXeon2_5,
        CpuType::IntelXeon2_9,
        CpuType::IntelXeon3_0,
        CpuType::AmdEpyc,
    ];

    /// The `/proc/cpuinfo` "model name" string a profiler inside a function
    /// instance would observe.
    pub fn model_name(self) -> &'static str {
        match self {
            CpuType::IntelXeon2_5 => "Intel(R) Xeon(R) Processor @ 2.50GHz",
            CpuType::IntelXeon2_9 => "Intel(R) Xeon(R) Processor @ 2.90GHz",
            CpuType::IntelXeon3_0 => "Intel(R) Xeon(R) Processor @ 3.00GHz",
            CpuType::AmdEpyc => "AMD EPYC",
            CpuType::Graviton2 => "AWS Graviton2",
            CpuType::CascadeLake2_4 => "Intel(R) Xeon(R) CPU (Cascade Lake) @ 2.40GHz",
            CpuType::CascadeLake2_5 => "Intel(R) Xeon(R) CPU (Cascade Lake) @ 2.50GHz",
            CpuType::DoXeon2_6 => "Intel(R) Xeon(R) CPU @ 2.60GHz",
            CpuType::DoXeon2_7 => "Intel(R) Xeon(R) CPU @ 2.70GHz",
        }
    }

    /// Parse a `/proc/cpuinfo` model string back into a catalogued type.
    /// This is what SAAF does with the raw string it scrapes.
    pub fn from_model_name(name: &str) -> Option<CpuType> {
        CpuType::ALL
            .iter()
            .copied()
            .find(|c| c.model_name() == name)
    }

    /// Nominal clock in GHz (0 reported for EPYC/Graviton whose model
    /// string omits it; we still return the physical value).
    pub fn clock_ghz(self) -> f64 {
        match self {
            CpuType::IntelXeon2_5 => 2.5,
            CpuType::IntelXeon2_9 => 2.9,
            CpuType::IntelXeon3_0 => 3.0,
            CpuType::AmdEpyc => 2.55,
            CpuType::Graviton2 => 2.5,
            CpuType::CascadeLake2_4 => 2.4,
            CpuType::CascadeLake2_5 => 2.5,
            CpuType::DoXeon2_6 => 2.6,
            CpuType::DoXeon2_7 => 2.7,
        }
    }

    /// Which provider fleet this CPU belongs to.
    pub fn provider(self) -> Provider {
        match self {
            CpuType::IntelXeon2_5
            | CpuType::IntelXeon2_9
            | CpuType::IntelXeon3_0
            | CpuType::AmdEpyc
            | CpuType::Graviton2 => Provider::Aws,
            CpuType::CascadeLake2_4 | CpuType::CascadeLake2_5 => Provider::Ibm,
            CpuType::DoXeon2_6 | CpuType::DoXeon2_7 => Provider::DigitalOcean,
        }
    }

    /// The architecture of this CPU.
    pub fn arch(self) -> Arch {
        match self {
            CpuType::Graviton2 => Arch::Arm64,
            _ => Arch::X86_64,
        }
    }

    /// Short label used in tables and figures, e.g. `"3.0GHz"`.
    pub fn short_label(self) -> &'static str {
        match self {
            CpuType::IntelXeon2_5 => "2.5GHz",
            CpuType::IntelXeon2_9 => "2.9GHz",
            CpuType::IntelXeon3_0 => "3.0GHz",
            CpuType::AmdEpyc => "EPYC",
            CpuType::Graviton2 => "Grav2",
            CpuType::CascadeLake2_4 => "CL2.4",
            CpuType::CascadeLake2_5 => "CL2.5",
            CpuType::DoXeon2_6 => "2.6GHz",
            CpuType::DoXeon2_7 => "2.7GHz",
        }
    }
}

impl fmt::Display for CpuType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_label())
    }
}

/// A set of CPU types packed into a `u16` bitmask (one bit per
/// [`CpuType`] variant).
///
/// Ban sets used in gated requests were previously `Vec<CpuType>`,
/// cloned per request and scanned linearly on every invocation. A
/// `CpuSet` is `Copy`, membership is a single AND, and iteration yields
/// types in stable `CpuType::ALL` order.
///
/// ```
/// use sky_cloud::{CpuSet, CpuType};
/// let set = CpuSet::from_slice(&[CpuType::AmdEpyc, CpuType::IntelXeon2_9]);
/// assert!(set.contains(CpuType::AmdEpyc));
/// assert!(!set.contains(CpuType::IntelXeon3_0));
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CpuSet(u16);

impl CpuSet {
    /// The empty set.
    pub const EMPTY: CpuSet = CpuSet(0);

    fn bit(cpu: CpuType) -> u16 {
        1 << (cpu as u16)
    }

    /// Build from a slice of CPU types (duplicates collapse).
    pub fn from_slice(cpus: &[CpuType]) -> Self {
        cpus.iter().copied().collect()
    }

    /// Add `cpu` to the set.
    pub fn insert(&mut self, cpu: CpuType) {
        self.0 |= Self::bit(cpu);
    }

    /// Whether `cpu` is in the set.
    pub fn contains(self, cpu: CpuType) -> bool {
        self.0 & Self::bit(cpu) != 0
    }

    /// Number of CPU types in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate members in `CpuType::ALL` order.
    pub fn iter(self) -> impl Iterator<Item = CpuType> {
        CpuType::ALL.into_iter().filter(move |&c| self.contains(c))
    }
}

impl FromIterator<CpuType> for CpuSet {
    fn from_iter<I: IntoIterator<Item = CpuType>>(iter: I) -> Self {
        let mut set = CpuSet::EMPTY;
        for cpu in iter {
            set.insert(cpu);
        }
        set
    }
}

impl fmt::Display for CpuSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, cpu) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{cpu}")?;
        }
        write!(f, "}}")
    }
}

// Serialized as the list of member CPU types (stable order), so the
// wire format matches what the old `Vec<CpuType>` ban lists produced.
impl Serialize for CpuSet {
    fn to_value(&self) -> serde::Value {
        self.iter().collect::<Vec<CpuType>>().to_value()
    }
}

impl Deserialize for CpuSet {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Vec::<CpuType>::from_value(v)?.into_iter().collect())
    }
}

/// A normalized distribution over CPU types — the "CPU characterization"
/// at the heart of the paper. Used both for ground-truth AZ mixes (this
/// crate) and for estimated characterizations (`sky-core`).
///
/// Invariant: shares are non-negative and sum to 1 (within floating-point
/// tolerance) unless the mix is empty.
///
/// ```
/// use sky_cloud::{CpuMix, CpuType};
/// let mix = CpuMix::from_shares(&[
///     (CpuType::IntelXeon2_5, 0.45),
///     (CpuType::IntelXeon3_0, 0.55),
/// ]);
/// assert!((mix.share(CpuType::IntelXeon3_0) - 0.55).abs() < 1e-12);
/// assert_eq!(mix.share(CpuType::AmdEpyc), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CpuMix {
    entries: Vec<(CpuType, f64)>,
}

impl CpuMix {
    /// An empty mix (no observations / no hardware).
    pub fn empty() -> Self {
        CpuMix {
            entries: Vec::new(),
        }
    }

    /// Build from `(cpu, weight)` pairs; weights are normalized to sum
    /// to 1. Zero-weight entries are dropped.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative/non-finite, or all weights are zero
    /// while the slice is non-empty.
    pub fn from_shares(shares: &[(CpuType, f64)]) -> Self {
        if shares.is_empty() {
            return CpuMix::empty();
        }
        let mut total = 0.0;
        for &(_, w) in shares {
            assert!(
                w.is_finite() && w >= 0.0,
                "mix weights must be finite and non-negative"
            );
            total += w;
        }
        assert!(total > 0.0, "mix weights must not all be zero");
        let mut entries: Vec<(CpuType, f64)> = shares
            .iter()
            .filter(|&&(_, w)| w > 0.0)
            .map(|&(c, w)| (c, w / total))
            .collect();
        entries.sort_by_key(|&(c, _)| c);
        // Merge duplicates.
        let mut merged: Vec<(CpuType, f64)> = Vec::with_capacity(entries.len());
        for (c, w) in entries {
            match merged.last_mut() {
                Some((lc, lw)) if *lc == c => *lw += w,
                _ => merged.push((c, w)),
            }
        }
        CpuMix { entries: merged }
    }

    /// Build from observation counts (e.g. SAAF reports per CPU type).
    pub fn from_counts(counts: &[(CpuType, u64)]) -> Self {
        let shares: Vec<(CpuType, f64)> = counts.iter().map(|&(c, n)| (c, n as f64)).collect();
        if shares.iter().all(|&(_, w)| w == 0.0) {
            return CpuMix::empty();
        }
        CpuMix::from_shares(&shares)
    }

    /// The share of `cpu` in this mix (0 if absent).
    pub fn share(&self, cpu: CpuType) -> f64 {
        self.entries
            .iter()
            .find(|&&(c, _)| c == cpu)
            .map(|&(_, w)| w)
            .unwrap_or(0.0)
    }

    /// Iterate `(cpu, share)` pairs in `CpuType` order.
    pub fn iter(&self) -> impl Iterator<Item = (CpuType, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// CPU types present with non-zero share.
    pub fn cpus(&self) -> impl Iterator<Item = CpuType> + '_ {
        self.entries.iter().map(|&(c, _)| c)
    }

    /// Number of distinct CPU types present.
    pub fn n_types(&self) -> usize {
        self.entries.len()
    }

    /// Whether the mix contains no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The most prevalent CPU type, if any.
    pub fn dominant(&self) -> Option<CpuType> {
        self.entries
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("shares are finite"))
            .map(|&(c, _)| c)
    }

    /// Total-variation distance to another mix, in `[0, 1]`:
    /// `½ Σ_c |p(c) − q(c)|` over the union of supports.
    pub fn total_variation(&self, other: &CpuMix) -> f64 {
        let mut cpus: Vec<CpuType> = self.cpus().chain(other.cpus()).collect();
        cpus.sort();
        cpus.dedup();
        0.5 * cpus
            .iter()
            .map(|&c| (self.share(c) - other.share(c)).abs())
            .sum::<f64>()
    }

    /// The paper's "absolute percentage error" of a characterization vs a
    /// ground truth, defined as total-variation distance in percent
    /// (see DESIGN.md §3). 0 = identical, 100 = disjoint supports.
    pub fn ape_percent(&self, ground_truth: &CpuMix) -> f64 {
        100.0 * self.total_variation(ground_truth)
    }

    /// Expected value of `f` under this mix, e.g. an expected runtime
    /// multiplier given a per-CPU factor function.
    pub fn expectation<F: Fn(CpuType) -> f64>(&self, f: F) -> f64 {
        self.entries.iter().map(|&(c, w)| w * f(c)).sum()
    }

    /// A new mix restricted to `keep`, renormalized. Returns an empty mix
    /// if nothing is kept.
    pub fn restricted_to(&self, keep: &[CpuType]) -> CpuMix {
        let kept: Vec<(CpuType, f64)> = self
            .entries
            .iter()
            .filter(|&&(c, _)| keep.contains(&c))
            .copied()
            .collect();
        if kept.is_empty() || kept.iter().all(|&(_, w)| w == 0.0) {
            CpuMix::empty()
        } else {
            CpuMix::from_shares(&kept)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_name_roundtrip() {
        for c in CpuType::ALL {
            assert_eq!(CpuType::from_model_name(c.model_name()), Some(c));
        }
        assert_eq!(CpuType::from_model_name("Mystery CPU"), None);
    }

    #[test]
    fn provider_and_arch_assignment() {
        assert_eq!(CpuType::IntelXeon3_0.provider(), Provider::Aws);
        assert_eq!(CpuType::CascadeLake2_4.provider(), Provider::Ibm);
        assert_eq!(CpuType::DoXeon2_7.provider(), Provider::DigitalOcean);
        assert_eq!(CpuType::Graviton2.arch(), Arch::Arm64);
        assert_eq!(CpuType::AmdEpyc.arch(), Arch::X86_64);
    }

    #[test]
    fn mix_normalizes_and_drops_zeros() {
        let mix = CpuMix::from_shares(&[
            (CpuType::IntelXeon2_5, 2.0),
            (CpuType::IntelXeon3_0, 2.0),
            (CpuType::AmdEpyc, 0.0),
        ]);
        assert_eq!(mix.n_types(), 2);
        assert!((mix.share(CpuType::IntelXeon2_5) - 0.5).abs() < 1e-12);
        assert_eq!(mix.share(CpuType::AmdEpyc), 0.0);
        let total: f64 = mix.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mix_merges_duplicates() {
        let mix = CpuMix::from_shares(&[
            (CpuType::IntelXeon2_5, 1.0),
            (CpuType::IntelXeon2_5, 1.0),
            (CpuType::IntelXeon3_0, 2.0),
        ]);
        assert_eq!(mix.n_types(), 2);
        assert!((mix.share(CpuType::IntelXeon2_5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_counts() {
        let mix = CpuMix::from_counts(&[(CpuType::IntelXeon2_5, 900), (CpuType::AmdEpyc, 100)]);
        assert!((mix.share(CpuType::AmdEpyc) - 0.1).abs() < 1e-12);
        assert!(CpuMix::from_counts(&[(CpuType::AmdEpyc, 0)]).is_empty());
        assert!(CpuMix::from_counts(&[]).is_empty());
    }

    #[test]
    fn total_variation_properties() {
        let a = CpuMix::from_shares(&[(CpuType::IntelXeon2_5, 1.0)]);
        let b = CpuMix::from_shares(&[(CpuType::IntelXeon3_0, 1.0)]);
        assert!(
            (a.total_variation(&b) - 1.0).abs() < 1e-12,
            "disjoint mixes"
        );
        assert_eq!(a.total_variation(&a), 0.0);
        let c = CpuMix::from_shares(&[(CpuType::IntelXeon2_5, 0.5), (CpuType::IntelXeon3_0, 0.5)]);
        assert!((a.total_variation(&c) - 0.5).abs() < 1e-12);
        assert!((a.ape_percent(&c) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn expectation_weights_factors() {
        let mix =
            CpuMix::from_shares(&[(CpuType::IntelXeon2_5, 0.5), (CpuType::IntelXeon3_0, 0.5)]);
        let e = mix.expectation(|c| if c == CpuType::IntelXeon3_0 { 0.9 } else { 1.0 });
        assert!((e - 0.95).abs() < 1e-12);
    }

    #[test]
    fn restriction_renormalizes() {
        let mix = CpuMix::from_shares(&[
            (CpuType::IntelXeon2_5, 0.6),
            (CpuType::IntelXeon2_9, 0.2),
            (CpuType::IntelXeon3_0, 0.2),
        ]);
        let r = mix.restricted_to(&[CpuType::IntelXeon2_9, CpuType::IntelXeon3_0]);
        assert!((r.share(CpuType::IntelXeon2_9) - 0.5).abs() < 1e-12);
        assert!(mix.restricted_to(&[CpuType::AmdEpyc]).is_empty());
    }

    #[test]
    fn dominant_cpu() {
        let mix =
            CpuMix::from_shares(&[(CpuType::IntelXeon2_5, 0.3), (CpuType::IntelXeon3_0, 0.7)]);
        assert_eq!(mix.dominant(), Some(CpuType::IntelXeon3_0));
        assert_eq!(CpuMix::empty().dominant(), None);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        let _ = CpuMix::from_shares(&[(CpuType::AmdEpyc, -0.1)]);
    }

    #[test]
    fn cpu_set_membership_and_iteration() {
        let mut set = CpuSet::EMPTY;
        assert!(set.is_empty());
        set.insert(CpuType::AmdEpyc);
        set.insert(CpuType::IntelXeon2_9);
        set.insert(CpuType::AmdEpyc); // duplicate is a no-op
        assert_eq!(set.len(), 2);
        assert!(set.contains(CpuType::AmdEpyc));
        assert!(set.contains(CpuType::IntelXeon2_9));
        assert!(!set.contains(CpuType::IntelXeon3_0));
        // Iteration follows CpuType::ALL order regardless of insertion order.
        let members: Vec<CpuType> = set.iter().collect();
        assert_eq!(members, vec![CpuType::IntelXeon2_9, CpuType::AmdEpyc]);
        assert_eq!(CpuSet::from_slice(&members), set);
    }

    #[test]
    fn cpu_set_serde_roundtrip_as_list() {
        let set: CpuSet = CpuType::AWS_X86.into_iter().collect();
        let json = serde_json::to_string(&set).unwrap();
        // Wire format matches a plain list of CPU types.
        let as_vec: Vec<CpuType> = serde_json::from_str(&json).unwrap();
        assert_eq!(as_vec.len(), 4);
        let back: CpuSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, set);
    }
}
