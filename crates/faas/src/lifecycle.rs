//! Execution-mode lifecycles for function instances.
//!
//! The paper's economics are computed over a two-class start model (cold
//! vs. warm), but real platforms sit on a spectrum: pre-warmed pools,
//! CRIU-style snapshot restore (~an order of magnitude under a cold boot),
//! copy-on-write branches off a parent snapshot, and always-on persistent
//! environments. This module defines that spectrum as data — the
//! [`ExecMode`] a deployment runs under, the [`StartClass`] each
//! acquisition resolves to, and the declarative
//! [`PoolPolicy`]/[`ExecProfile`] knobs — while `platform.rs` and
//! `engine.rs` supply the mechanics.
//!
//! Everything here is integer/enum arithmetic with no randomness: mode
//! selection must never perturb the engine's RNG streams, so a deployment
//! on the default profile is byte-identical to one predating this module.

use sky_sim::SimDuration;

/// How a deployment's function instances live between invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExecMode {
    /// Torn down immediately after every invocation: each request pays a
    /// full cold start, nothing idles.
    Ephemeral,
    /// The legacy keep-alive lifecycle (and the default): instances idle
    /// warm for a drawn keep-alive window after each invocation.
    Cached,
    /// Keep-alive plus a per-`(az, function)` snapshot captured at first
    /// release: once the warm pool is empty, new instances restore from
    /// the snapshot at a deterministic latency between cold and warm.
    Checkpointed,
    /// Like [`ExecMode::Checkpointed`], but new instances are
    /// copy-on-write clones sharing the parent snapshot — a faster,
    /// cheaper start than a full restore.
    Branched,
    /// Never reclaimed: instances idle indefinitely once created (no
    /// expire timer), trading idle occupancy for a one-time cold start.
    Persistent,
}

impl ExecMode {
    /// Every mode, in label order (experiment sweeps iterate this).
    pub const ALL: [ExecMode; 5] = [
        ExecMode::Ephemeral,
        ExecMode::Cached,
        ExecMode::Checkpointed,
        ExecMode::Branched,
        ExecMode::Persistent,
    ];

    /// Stable label for metrics and experiment output.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Ephemeral => "ephemeral",
            ExecMode::Cached => "cached",
            ExecMode::Checkpointed => "checkpointed",
            ExecMode::Branched => "branched",
            ExecMode::Persistent => "persistent",
        }
    }

    /// Dense index for per-mode metric handle tables.
    pub fn index(self) -> usize {
        match self {
            ExecMode::Ephemeral => 0,
            ExecMode::Cached => 1,
            ExecMode::Checkpointed => 2,
            ExecMode::Branched => 3,
            ExecMode::Persistent => 4,
        }
    }

    /// Whether instances idle after release (everything except
    /// ephemeral).
    pub fn keeps_warm(self) -> bool {
        !matches!(self, ExecMode::Ephemeral)
    }

    /// Whether released instances capture a `(az, function)` snapshot
    /// that later starts can restore or branch from.
    pub fn snapshots(self) -> bool {
        matches!(self, ExecMode::Checkpointed | ExecMode::Branched)
    }
}

/// How a particular acquisition obtained its instance — the start-class
/// spectrum the dispatch latency, span phase, and per-class metrics key
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartClass {
    /// Fresh environment provisioned from scratch (random init latency).
    Cold,
    /// Fresh environment restored from a live snapshot (deterministic
    /// latency between cold and warm).
    Restored,
    /// Fresh environment CoW-branched off a live snapshot (deterministic
    /// latency under a restore).
    Branched,
    /// Taken from the pre-warm pool: provisioned ahead of demand, so the
    /// request pays only warm dispatch.
    Pooled,
    /// Reuse of an instance idled by a previous invocation.
    Warm,
}

impl StartClass {
    /// Stable label for metrics and experiment output.
    pub fn label(self) -> &'static str {
        match self {
            StartClass::Cold => "cold",
            StartClass::Restored => "restored",
            StartClass::Branched => "branched",
            StartClass::Pooled => "pooled",
            StartClass::Warm => "warm",
        }
    }

    /// Whether SAAF observes a fresh container uuid. Restored and
    /// branched environments replay the parent's `/tmp`, so — like a
    /// CRIU restore — they do *not* look new to the profiler.
    pub fn new_container(self) -> bool {
        matches!(self, StartClass::Cold)
    }
}

/// Declarative pre-warm pool sizing. All arithmetic is integer (the
/// EWMA is fixed-point x256) so pool decisions are exactly reproducible
/// and shard-order-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolPolicy {
    /// No pre-warm pool (the default).
    Disabled,
    /// Hold `target` pre-warmed instances, never exceeding `cap`.
    Fixed {
        /// Steady-state pool size.
        target: u32,
        /// Hard occupancy ceiling.
        cap: u32,
    },
    /// Track demand with a fixed-point EWMA of per-tick arrivals:
    /// `ewma' = (alpha_x256·window + (256−alpha_x256)·ewma) / 256`,
    /// targeting `ceil(ewma)` instances, never exceeding `cap`.
    DemandEwma {
        /// Smoothing factor in 1/256ths (e.g. 64 ≈ 0.25).
        alpha_x256: u32,
        /// Hard occupancy ceiling.
        cap: u32,
    },
}

impl PoolPolicy {
    /// The hard occupancy ceiling (zero when disabled).
    pub fn cap(self) -> u32 {
        match self {
            PoolPolicy::Disabled => 0,
            PoolPolicy::Fixed { cap, .. } | PoolPolicy::DemandEwma { cap, .. } => cap,
        }
    }

    /// Whether a pool exists at all.
    pub fn enabled(self) -> bool {
        !matches!(self, PoolPolicy::Disabled)
    }

    /// Fold one tick's arrival count into the fixed-point EWMA state and
    /// return the new state (x256). Pure integer arithmetic.
    pub fn fold_ewma(self, ewma_x256: u64, window_arrivals: u64) -> u64 {
        match self {
            PoolPolicy::DemandEwma { alpha_x256, .. } => {
                let a = u64::from(alpha_x256.min(256));
                (a * window_arrivals * 256 + (256 - a) * ewma_x256) / 256
            }
            _ => ewma_x256,
        }
    }

    /// The pool size this policy wants given the current EWMA state,
    /// clamped to the cap.
    pub fn target(self, ewma_x256: u64) -> u32 {
        match self {
            PoolPolicy::Disabled => 0,
            PoolPolicy::Fixed { target, cap } => target.min(cap),
            PoolPolicy::DemandEwma { cap, .. } => {
                let want = ewma_x256.div_ceil(256);
                u32::try_from(want).unwrap_or(u32::MAX).min(cap)
            }
        }
    }
}

/// Identity of a captured `(az, function)` snapshot. Branched instances
/// record the parent they share pages with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SnapshotId(pub u64);

impl std::fmt::Display for SnapshotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snap-{}", self.0)
    }
}

/// Per-deployment execution-mode configuration. The default reproduces
/// the legacy platform exactly: cached lifecycle, no pool, no snapshots,
/// no result cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecProfile {
    /// Lifecycle mode of this deployment's instances.
    pub mode: ExecMode,
    /// Pre-warm pool sizing policy.
    pub pool: PoolPolicy,
    /// How long a captured snapshot stays restorable (zero disables
    /// capture even in snapshotting modes).
    pub snapshot_ttl: SimDuration,
    /// TTL of the idempotent result cache on `Workload` requests (zero
    /// disables caching).
    pub result_cache_ttl: SimDuration,
}

impl Default for ExecProfile {
    fn default() -> Self {
        ExecProfile {
            mode: ExecMode::Cached,
            pool: PoolPolicy::Disabled,
            snapshot_ttl: SimDuration::ZERO,
            result_cache_ttl: SimDuration::ZERO,
        }
    }
}

impl ExecProfile {
    /// A profile running `mode` with snapshotting modes given a 30-minute
    /// snapshot TTL (the knobs stay individually overridable).
    pub fn for_mode(mode: ExecMode) -> Self {
        ExecProfile {
            mode,
            snapshot_ttl: if mode.snapshots() {
                SimDuration::from_mins(30)
            } else {
                SimDuration::ZERO
            },
            ..ExecProfile::default()
        }
    }

    /// Override the pool policy.
    pub fn with_pool(mut self, pool: PoolPolicy) -> Self {
        self.pool = pool;
        self
    }

    /// Override the snapshot TTL.
    pub fn with_snapshot_ttl(mut self, ttl: SimDuration) -> Self {
        self.snapshot_ttl = ttl;
        self
    }

    /// Override the result-cache TTL.
    pub fn with_result_cache_ttl(mut self, ttl: SimDuration) -> Self {
        self.result_cache_ttl = ttl;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_legacy() {
        let p = ExecProfile::default();
        assert_eq!(p.mode, ExecMode::Cached);
        assert_eq!(p.pool, PoolPolicy::Disabled);
        assert_eq!(p.snapshot_ttl, SimDuration::ZERO);
        assert_eq!(p.result_cache_ttl, SimDuration::ZERO);
    }

    #[test]
    fn mode_predicates() {
        assert!(!ExecMode::Ephemeral.keeps_warm());
        for m in ExecMode::ALL {
            assert_eq!(
                m.snapshots(),
                ExecProfile::for_mode(m).snapshot_ttl > SimDuration::ZERO
            );
            assert_eq!(m != ExecMode::Ephemeral, m.keeps_warm());
        }
    }

    #[test]
    fn mode_indices_are_dense_and_distinct() {
        let mut seen = [false; 5];
        for m in ExecMode::ALL {
            assert!(!seen[m.index()], "duplicate index for {m:?}");
            seen[m.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pool_policy_targets_clamp_to_cap() {
        let fixed = PoolPolicy::Fixed { target: 10, cap: 6 };
        assert_eq!(fixed.target(0), 6);
        let ewma = PoolPolicy::DemandEwma {
            alpha_x256: 256,
            cap: 4,
        };
        // alpha=1: ewma tracks the window exactly.
        let state = ewma.fold_ewma(0, 9);
        assert_eq!(state, 9 * 256);
        assert_eq!(ewma.target(state), 4, "clamped to cap");
        assert_eq!(PoolPolicy::Disabled.target(1_000_000), 0);
    }

    #[test]
    fn ewma_converges_monotonically() {
        let p = PoolPolicy::DemandEwma {
            alpha_x256: 64,
            cap: 100,
        };
        let mut state = 0u64;
        let mut last = 0u64;
        for _ in 0..64 {
            state = p.fold_ewma(state, 8);
            assert!(state >= last, "rising toward steady demand");
            last = state;
        }
        assert_eq!(p.target(state), 8, "converges to the demand level");
        // Demand stops: a few idle ticks still hold a partial pool
        // (ceil of the decaying EWMA), then it drains to zero.
        state = p.fold_ewma(state, 0);
        assert!(p.target(state) >= 1, "ceil keeps instances while draining");
        for _ in 0..64 {
            state = p.fold_ewma(state, 0);
        }
        assert_eq!(p.target(state), 0, "idle pool fully drains");
    }
}
