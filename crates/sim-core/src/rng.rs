//! Deterministic pseudo-random number generation.
//!
//! The workspace's reproducibility guarantee rests on this module: a single
//! root `u64` seed is expanded into independent per-component streams via
//! SplitMix64, and each stream is a xoshiro256++ generator. We implement
//! both algorithms from scratch (they are a dozen lines each) rather than
//! relying on `rand`'s `StdRng`, whose algorithm is explicitly *not* stable
//! across crate versions — a property we cannot accept when every figure in
//! `EXPERIMENTS.md` must reproduce bit-for-bit.
//!
//! Distribution helpers cover exactly what the simulation needs: uniforms,
//! normals (Box–Muller), lognormals for runtime noise, exponentials for
//! arrival jitter, and weighted choice for CPU-mix sampling.

use crate::Uuid;
use serde::{Deserialize, Serialize};

/// SplitMix64 step; used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator with hierarchical stream
/// derivation.
///
/// ```
/// use sky_sim::SimRng;
/// let mut a = SimRng::seed_from(42).derive("placement");
/// let mut b = SimRng::seed_from(42).derive("placement");
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed + label => same stream
/// let mut c = SimRng::seed_from(42).derive("churn");
/// assert_ne!(a.next_u64(), c.next_u64()); // different labels diverge
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a root seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child stream named by `label`.
    ///
    /// The child's seed is a hash of this generator's *current* state and
    /// the label, so deriving the same label twice from an untouched parent
    /// yields the same stream, while different labels (or different parent
    /// states) yield unrelated streams.
    pub fn derive(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in label.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        for &w in &self.s {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        SimRng::seed_from(h)
    }

    /// Derive an independent child stream indexed by an integer (e.g. one
    /// stream per host or per deployment).
    pub fn derive_idx(&self, label: &str, idx: u64) -> SimRng {
        let mut child = self.derive(label);
        let mut sm = child.next_u64() ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit value (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0, 1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` using Lemire's rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below requires n > 0");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n {
                return (m >> 64) as u64;
            }
            // Rejection zone check.
            let t = n.wrapping_neg() % n;
            if lo >= t {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_inclusive requires lo <= hi");
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Standard normal via Box–Muller.
    pub fn next_standard_normal(&mut self) -> f64 {
        let u1 = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with given mean and standard deviation.
    pub fn next_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.next_standard_normal()
    }

    /// Lognormal multiplier with unit median and the given coefficient of
    /// sigma (of the underlying normal). Used for runtime noise: a value of
    /// `sigma = 0.04` yields ~±4 % typical jitter.
    pub fn lognormal_noise(&mut self, sigma: f64) -> f64 {
        (sigma * self.next_standard_normal()).exp()
    }

    /// Index drawn from a discrete distribution proportional to `weights`.
    ///
    /// Zero-weight entries are never selected.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        assert!(
            !weights.is_empty(),
            "weighted_choice requires non-empty weights"
        );
        let mut total = 0.0;
        for &w in weights {
            assert!(
                w.is_finite() && w >= 0.0,
                "weights must be finite and non-negative"
            );
            total += w;
        }
        assert!(total > 0.0, "weights must not all be zero");
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        // Floating-point slop: return the last non-zero entry.
        weights
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("at least one non-zero weight")
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// A fresh function-instance identity: two draws, the first one the
    /// high half.
    pub fn next_uuid(&mut self) -> Uuid {
        let a = self.next_u64();
        let b = self.next_u64();
        Uuid::from_u128((u128::from(a) << 64) | u128::from(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_diverge_by_label_and_index() {
        let root = SimRng::seed_from(1);
        let mut x = root.derive("a");
        let mut y = root.derive("b");
        assert_ne!(
            (0..8).map(|_| x.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| y.next_u64()).collect::<Vec<_>>()
        );
        let mut i0 = root.derive_idx("host", 0);
        let mut i1 = root.derive_idx("host", 1);
        assert_ne!(i0.next_u64(), i1.next_u64());
    }

    #[test]
    fn uniform_unit_interval() {
        let mut rng = SimRng::seed_from(99);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = SimRng::seed_from(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = rng.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_inclusive_endpoints() {
        let mut rng = SimRng::seed_from(4);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2_000 {
            match rng.range_inclusive(5, 8) {
                5 => lo_seen = true,
                8 => hi_seen = true,
                v => assert!((5..=8).contains(&v)),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed_from(11);
        let n = 20_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let v = rng.next_normal(10.0, 2.0);
            sum += v;
            sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!((mean - 10.0).abs() < 0.1);
        assert!((var - 4.0).abs() < 0.25);
    }

    #[test]
    fn lognormal_noise_has_unit_median() {
        let mut rng = SimRng::seed_from(12);
        let mut below = 0;
        let n = 10_000;
        for _ in 0..n {
            if rng.lognormal_noise(0.05) < 1.0 {
                below += 1;
            }
        }
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.03, "median fraction {frac}");
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = SimRng::seed_from(14);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_choice(&weights)] += 1;
        }
        assert_eq!(counts[0], 0, "zero weight must never be chosen");
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn weighted_choice_rejects_all_zero() {
        SimRng::seed_from(1).weighted_choice(&[0.0, 0.0]);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from(15);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "shuffle should move something"
        );
    }

    /// `(a, b)` as the value `next_uuid` builds from those two draws.
    fn uuid(a: u64, b: u64) -> Uuid {
        Uuid::from_u128((u128::from(a) << 64) | u128::from(b))
    }

    const EDGES: [u64; 8] = [0, 1, 0xf, 0x10, 0xffff, 1 << 48, u64::MAX - 1, u64::MAX];

    #[test]
    fn uuid_format() {
        let mut rng = SimRng::seed_from(16);
        // Pinned to what the `format!` reference below renders for this
        // seed, so the hand-written renderer is checked byte for byte.
        for expected in [
            "67b0d38a-2b72-214b-2543-8f82bd0d4af9",
            "51962dd1-8017-31e8-99a0-79f3917b5180",
            "10d179b8-2fbc-4d02-d005-69328581602a",
            "fbd07693-6684-9aba-4fa2-f51674fa8b69",
        ] {
            assert_eq!(rng.next_uuid().to_string(), expected);
        }
        let reference = |a: u64, b: u64| {
            format!(
                "{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
                (a >> 32) as u32,
                (a >> 16) as u16,
                a as u16,
                (b >> 48) as u16,
                b & 0xffff_ffff_ffff
            )
        };
        for a in EDGES {
            for b in EDGES {
                assert_eq!(uuid(a, b).to_string(), reference(a, b), "({a:#x}, {b:#x})");
            }
        }
        for _ in 0..1_000 {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            assert_eq!(uuid(a, b).to_string(), reference(a, b));
        }
    }

    /// Sorting or deduplicating uuids by value visits them in the order
    /// of their rendered strings.
    #[test]
    fn uuid_order_matches_rendered_order() {
        let edges: Vec<Uuid> = EDGES
            .iter()
            .flat_map(|&a| EDGES.iter().map(move |&b| uuid(a, b)))
            .collect();
        for x in &edges {
            for y in &edges {
                assert_eq!(x.cmp(y), x.to_string().cmp(&y.to_string()), "{x} vs {y}");
            }
        }
        let mut rng = SimRng::seed_from(17);
        for i in 0..1_000 {
            // Every other pair shares its high half, so the low halves
            // decide.
            let a = rng.next_u64();
            let x = uuid(a, rng.next_u64());
            let y = uuid(if i % 2 == 0 { a } else { rng.next_u64() }, rng.next_u64());
            assert_eq!(x.cmp(&y), x.to_string().cmp(&y.to_string()), "{x} vs {y}");
        }
    }
}
