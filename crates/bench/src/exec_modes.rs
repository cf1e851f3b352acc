//! The execution-mode experiments: `fig_exec_modes` and
//! `ablation_mode_routing`.
//!
//! `fig_exec_modes` sweeps every FI lifecycle the platform offers —
//! ephemeral, cached (the Lambda default), cached behind a pre-warm
//! pool, checkpointed snapshot-restore, CoW-branched, and persistent —
//! through the same three-wave burst schedule against the homogeneous
//! 2.5 GHz zone, so latency and cost differences are attributable to the
//! lifecycle alone. Waves are spaced past the 5–9 minute keep-alive
//! ceiling but inside the 30-minute snapshot TTL: cached arms re-pay the
//! cold start every wave while checkpointed arms restore and branched
//! arms clone.
//!
//! `ablation_mode_routing` asks whether the paper's CPU-aware retry
//! steering (§3.5, the 18.2 % cost win) survives execution-mode
//! diversity: on the heterogeneous retry zone it runs the gated client
//! against the naive one under cached, checkpointed and branched
//! lifecycles.
//!
//! Cells run on the sweep runner and are pure functions of
//! `(arm, scale, seed)`, so both tables are byte-identical for any
//! `--jobs` setting.

use crate::sweep::{self, Jobs};
use crate::{Scale, World};
use sky_core::cloud::{Arch, AzId, CpuSet, CpuType};
use sky_core::faas::{
    BatchRequest, ExecMode, ExecProfile, InvocationOutcome, PoolPolicy, RequestBody, WorkloadSpec,
};
use sky_core::percentile;
use sky_core::sim::series::Table;
use sky_core::sim::{MetricsSnapshot, SimDuration};
use sky_core::workloads::WorkloadKind;

/// The homogeneous 2.5 GHz zone: every start class pays the same
/// execution time, so the figure isolates dispatch-path differences.
pub fn mode_az() -> AzId {
    World::az("us-east-2a")
}

/// The heterogeneous retry zone the routing ablation steers within.
pub fn routing_az() -> AzId {
    World::az("us-west-1b")
}

/// Bursts per arm. Wave 1 is always a cold ramp; waves 2–3 show what
/// the lifecycle can reuse.
pub const WAVES: usize = 3;

/// Gap between waves: past the 5–9 minute keep-alive ceiling, inside
/// the 30-minute snapshot TTL.
pub fn wave_gap() -> SimDuration {
    SimDuration::from_mins(10)
}

/// Concurrent requests per wave.
pub fn wave_size(scale: Scale) -> usize {
    scale.pick(48, 12)
}

/// One figure row: a lifecycle arm of `fig_exec_modes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeArm {
    /// Fresh microVM per request, torn down after the response.
    Ephemeral,
    /// The keep-alive default every other experiment runs under.
    Cached,
    /// Cached plus a fixed pre-warm pool sized to the wave.
    Prewarmed,
    /// Snapshot on release, CRIU-style restore on the next cold path.
    Checkpointed,
    /// CoW clones off the parent snapshot under concurrency.
    Branched,
    /// Never reclaimed; the provisioned-concurrency endpoint.
    Persistent,
}

impl ModeArm {
    /// Every arm, in figure row order.
    pub const ALL: [ModeArm; 6] = [
        ModeArm::Ephemeral,
        ModeArm::Cached,
        ModeArm::Prewarmed,
        ModeArm::Checkpointed,
        ModeArm::Branched,
        ModeArm::Persistent,
    ];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            ModeArm::Ephemeral => "ephemeral",
            ModeArm::Cached => "cached",
            ModeArm::Prewarmed => "cached+pool",
            ModeArm::Checkpointed => "checkpointed",
            ModeArm::Branched => "branched",
            ModeArm::Persistent => "persistent",
        }
    }

    /// The execution profile this arm deploys under.
    pub fn profile(self, scale: Scale) -> ExecProfile {
        match self {
            ModeArm::Ephemeral => ExecProfile::for_mode(ExecMode::Ephemeral),
            ModeArm::Cached => ExecProfile::for_mode(ExecMode::Cached),
            ModeArm::Prewarmed => {
                let n = wave_size(scale) as u32;
                ExecProfile::for_mode(ExecMode::Cached)
                    .with_pool(PoolPolicy::Fixed { target: n, cap: n })
            }
            ModeArm::Checkpointed => ExecProfile::for_mode(ExecMode::Checkpointed),
            ModeArm::Branched => ExecProfile::for_mode(ExecMode::Branched),
            ModeArm::Persistent => ExecProfile::for_mode(ExecMode::Persistent),
        }
    }
}

/// Start-class counts plus latency/cost aggregates for one arm.
#[derive(Debug, Clone)]
pub struct ModeRow {
    /// The lifecycle under test.
    pub arm: ModeArm,
    /// Cold boots.
    pub cold: u64,
    /// Starts served from the pre-warm pool.
    pub pooled: u64,
    /// Snapshot restores.
    pub restored: u64,
    /// CoW branches.
    pub branched: u64,
    /// Keep-alive (or persistent) reuses.
    pub warm: u64,
    /// Median end-to-end latency, ms.
    pub p50_ms: f64,
    /// Tail end-to-end latency, ms.
    pub p95_ms: f64,
    /// Median cold dispatch latency, ms (0 when the arm never cold-boots).
    pub cold_p50_ms: f64,
    /// Median restore/branch dispatch latency, ms.
    pub restore_p50_ms: f64,
    /// Median warm/pooled dispatch latency, ms.
    pub warm_p50_ms: f64,
    /// Dollars per 1 000 requests (all attempts).
    pub usd_per_k: f64,
    /// Requests issued.
    pub n: usize,
}

/// Median of a per-class dispatch histogram, in ms (0 if never observed).
fn dispatch_p50_ms(snap: &MetricsSnapshot, name: &str, az: &str) -> f64 {
    use sky_core::sim::metrics::MetricValue;
    snap.entries
        .iter()
        .find(|e| {
            e.subsystem == "faas"
                && e.name == name
                && e.labels.iter().any(|(k, v)| k == "az" && v == az)
        })
        .and_then(|e| match &e.value {
            MetricValue::Histogram(h) => h.to_histogram().quantile(0.5),
            _ => None,
        })
        .map(|us| us as f64 / 1_000.0)
        .unwrap_or(0.0)
}

fn e2e_ms(outcomes: &[InvocationOutcome]) -> Vec<f64> {
    outcomes
        .iter()
        .map(|o| o.finished.saturating_since(o.arrived).as_millis_f64())
        .collect()
}

fn usd_per_k(outcomes: &[InvocationOutcome]) -> f64 {
    let total: f64 = outcomes.iter().map(|o| o.total_cost_usd()).sum();
    1_000.0 * total / outcomes.len().max(1) as f64
}

/// Run one lifecycle arm: three concurrent sleep-bursts spaced by
/// [`wave_gap`] in a fresh seeded world. Returns the row plus the arm's
/// metric snapshot tagged with a `mode` label. Deterministic from
/// `seed`.
pub fn run_mode_arm(arm: ModeArm, scale: Scale, seed: u64) -> (ModeRow, MetricsSnapshot) {
    let mut world = World::new(seed);
    let az = mode_az();
    let dep = world
        .engine
        .deploy(world.aws, &az, 2048, Arch::X86_64)
        .expect("mode arm deploys");
    world.engine.set_exec_profile(dep, arm.profile(scale));

    let n = wave_size(scale);
    let mut outcomes = Vec::with_capacity(WAVES * n);
    for _ in 0..WAVES {
        let requests: Vec<BatchRequest> = (0..n)
            .map(|_| BatchRequest {
                deployment: dep,
                offset: SimDuration::ZERO,
                body: RequestBody::Sleep {
                    duration: SimDuration::from_millis(250),
                },
            })
            .collect();
        outcomes.extend(world.engine.run_batch(requests));
        world.engine.advance_by(wave_gap());
    }
    assert!(
        outcomes.iter().all(|o| o.status.is_success()),
        "{}: the mode figure must run below saturation",
        arm.label()
    );

    let snap = world.metrics_snapshot();
    let count = |name: &str| {
        snap.counter("faas", name, &[("az", "us-east-2a")])
            .unwrap_or(0)
    };
    let ms = e2e_ms(&outcomes);
    let row = ModeRow {
        arm,
        cold: count("cold_starts"),
        pooled: count("pooled_starts"),
        restored: count("restored_starts"),
        branched: count("branched_starts"),
        warm: count("warm_starts"),
        p50_ms: percentile(&ms, 0.50),
        p95_ms: percentile(&ms, 0.95),
        cold_p50_ms: dispatch_p50_ms(&snap, "dispatch_cold_us", "us-east-2a"),
        restore_p50_ms: dispatch_p50_ms(&snap, "dispatch_restore_us", "us-east-2a"),
        warm_p50_ms: dispatch_p50_ms(&snap, "dispatch_warm_us", "us-east-2a"),
        usd_per_k: usd_per_k(&outcomes),
        n: outcomes.len(),
    };
    (row, snap.with_label("mode", arm.label()))
}

/// All figure rows, fanned out over the sweep runner. Output is in
/// `ModeArm::ALL` order regardless of `jobs`.
pub fn fig_exec_modes_rows(scale: Scale, jobs: Jobs, seed: u64) -> Vec<ModeRow> {
    fig_exec_modes_with_metrics(scale, jobs, seed).0
}

/// All figure rows plus the experiment-wide metric snapshot. Cells are
/// pure, and per-cell snapshots merge in `ModeArm::ALL` order, so both
/// outputs are byte-identical for any `jobs` setting.
pub fn fig_exec_modes_with_metrics(
    scale: Scale,
    jobs: Jobs,
    seed: u64,
) -> (Vec<ModeRow>, MetricsSnapshot) {
    let cells = sweep::run(ModeArm::ALL.to_vec(), jobs, |_, &arm| {
        run_mode_arm(arm, scale, seed)
    });
    let mut rows = Vec::with_capacity(cells.len());
    let mut metrics = MetricsSnapshot::new();
    for (row, cell_metrics) in cells {
        rows.push(row);
        metrics.merge(&cell_metrics);
    }
    (rows, metrics)
}

fn find_row(rows: &[ModeRow], arm: ModeArm) -> &ModeRow {
    rows.iter().find(|r| r.arm == arm).expect("arm present")
}

/// Render the figure: one row per lifecycle, then the two verdict lines
/// the golden harness pins.
pub fn render_fig_exec_modes(rows: &[ModeRow]) -> String {
    let mut table = Table::new(
        format!(
            "fig_exec_modes: FI lifecycles under {} waves of {} on {}",
            WAVES,
            rows.first().map(|r| r.n / WAVES).unwrap_or(0),
            mode_az()
        ),
        &[
            "mode", "cold", "pooled", "restored", "branched", "warm", "p50 ms", "p95 ms", "$/1k",
        ],
    );
    for row in rows {
        table.row(&[
            row.arm.label().to_string(),
            row.cold.to_string(),
            row.pooled.to_string(),
            row.restored.to_string(),
            row.branched.to_string(),
            row.warm.to_string(),
            format!("{:.1}", row.p50_ms),
            format!("{:.1}", row.p95_ms),
            format!("{:.4}", row.usd_per_k),
        ]);
    }
    let mut out = table.render();
    let cached = find_row(rows, ModeArm::Cached);
    let pooled = find_row(rows, ModeArm::Prewarmed);
    let checkpointed = find_row(rows, ModeArm::Checkpointed);
    let persistent = find_row(rows, ModeArm::Persistent);
    // Dispatch medians isolate the start path from the 250 ms body:
    // warm reuse (persistent arm) < snapshot restore (checkpointed arm)
    // < cold boot (cached arm).
    let (warm, restore, cold) = (
        persistent.warm_p50_ms,
        checkpointed.restore_p50_ms,
        cached.cold_p50_ms,
    );
    let between = warm < restore && restore < cold;
    out.push_str(&format!(
        "restore dispatch lands between warm reuse and cold boot (p50 {warm:.1} < {restore:.1} < {cold:.1} ms): {}\n",
        if between { "yes" } else { "NO" },
    ));
    let pool_clean = pooled.cold == 0 && pooled.pooled == pooled.n as u64;
    out.push_str(&format!(
        "pre-warm pool absorbs every burst without a cold start: {}\n",
        if pool_clean { "yes" } else { "NO" },
    ));
    out
}

// ---------------------------------------------------------------------
// ablation_mode_routing
// ---------------------------------------------------------------------

/// The exec modes the routing ablation crosses with client policy.
pub const ROUTING_MODES: [ExecMode; 3] =
    [ExecMode::Cached, ExecMode::Checkpointed, ExecMode::Branched];

/// The workload the steering experiment runs: zipper, the Figure-10
/// function, whose per-CPU runtime spread is wide enough for steering
/// to amortize its retry overhead.
pub const ROUTING_WORKLOAD: WorkloadKind = WorkloadKind::Zipper;

/// CPUs the gated client refuses: the EPYC straggler and the 2.9 GHz
/// part that is counter-intuitively slower than the 2.5 GHz baseline
/// (Figure 9). 70 % of the zone remains acceptable.
pub fn banned_cpus() -> CpuSet {
    CpuSet::from_slice(&[CpuType::IntelXeon2_9, CpuType::AmdEpyc])
}

/// One ablation cell: a `(mode, gated)` arm.
#[derive(Debug, Clone)]
pub struct RoutingRow {
    /// Lifecycle the deployment runs under.
    pub mode: ExecMode,
    /// Whether the client steers via CPU-gated retries.
    pub gated: bool,
    /// Mean billed execution time of the final attempt over successful
    /// requests, ms.
    pub mean_billed_ms: f64,
    /// Mean end-to-end latency (including declines and reissues), ms.
    pub mean_e2e_ms: f64,
    /// Dollars per 1 000 *completed* requests; declined attempts still
    /// bill into the numerator (the paper's savings accounting).
    pub usd_per_k: f64,
    /// Platform attempts per request.
    pub attempts_per_req: f64,
    /// Requests whose retry budget ran out on declined CPUs.
    pub declined: u64,
    /// Snapshot restores observed (checkpointed arms).
    pub restored: u64,
    /// CoW branches observed (branched arms).
    pub branched: u64,
}

/// Run one `(mode, gated)` arm: two request waves separated past the
/// keep-alive ceiling on the heterogeneous retry zone. Deterministic
/// from `seed`.
pub fn run_routing_arm(
    mode: ExecMode,
    gated: bool,
    scale: Scale,
    seed: u64,
) -> (RoutingRow, MetricsSnapshot) {
    let mut world = World::new(seed);
    let az = routing_az();
    let dep = world
        .engine
        .deploy(world.aws, &az, 2048, Arch::X86_64)
        .expect("routing arm deploys");
    world
        .engine
        .set_exec_profile(dep, ExecProfile::for_mode(mode));

    let spec = WorkloadSpec::new(ROUTING_WORKLOAD);
    // The gate parameters mirror the SmartRouter defaults (§3.5): a
    // 150 ms hold with a 60 ms reissue keeps declined FIs busy past the
    // retry, and the generous retry budget lets steering converge.
    let body = if gated {
        RequestBody::GatedWorkload {
            spec,
            banned: banned_cpus(),
            hold: SimDuration::from_millis(150),
            max_retries: 25,
            retry_latency: SimDuration::from_millis(60),
        }
    } else {
        RequestBody::Workload { spec }
    };
    let n = scale.pick(120, 24);
    let mut outcomes = Vec::with_capacity(2 * n);
    for _ in 0..2 {
        let requests: Vec<BatchRequest> = (0..n)
            .map(|i| BatchRequest {
                deployment: dep,
                // Arrivals ramp across a router-style 150 ms jitter
                // window.
                offset: SimDuration::from_micros(150_000 * i as u64 / n as u64),
                body,
            })
            .collect();
        outcomes.extend(world.engine.run_batch(requests));
        world.engine.advance_by(SimDuration::from_mins(12));
    }
    // Declines that exhausted the retry budget are a legitimate (and
    // billed) outcome of the steering method; only platform rejections
    // would invalidate the comparison.
    assert!(
        outcomes.iter().all(|o| !o.status.is_error()),
        "routing ablation must run below saturation"
    );

    let snap = world.metrics_snapshot();
    let count = |name: &str| {
        snap.counter("faas", name, &[("az", "us-west-1b")])
            .unwrap_or(0)
    };
    let billed_ms: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.status.is_success())
        .map(|o| o.billed.as_millis_f64())
        .collect();
    let e2e = e2e_ms(&outcomes);
    let attempts: u64 = outcomes.iter().map(|o| o.attempts as u64).sum();
    let completed = outcomes.iter().filter(|o| o.status.is_success()).count();
    // Cost accounting matches the daily-routing experiments: every
    // attempt (declines included) is billed, divided by completed work.
    let total_usd: f64 = outcomes.iter().map(|o| o.total_cost_usd()).sum();
    let row = RoutingRow {
        mode,
        gated,
        mean_billed_ms: billed_ms.iter().sum::<f64>() / billed_ms.len().max(1) as f64,
        mean_e2e_ms: e2e.iter().sum::<f64>() / e2e.len().max(1) as f64,
        usd_per_k: 1_000.0 * total_usd / completed.max(1) as f64,
        attempts_per_req: attempts as f64 / outcomes.len().max(1) as f64,
        declined: outcomes.iter().filter(|o| !o.status.is_success()).count() as u64,
        restored: count("restored_starts"),
        branched: count("branched_starts"),
    };
    let snap = snap
        .with_label("mode", mode.label())
        .with_label("policy", if gated { "gated" } else { "baseline" });
    (row, snap)
}

/// The six ablation cells in `(mode, policy)` order.
pub fn routing_cells() -> Vec<(ExecMode, bool)> {
    ROUTING_MODES
        .iter()
        .flat_map(|&m| [(m, false), (m, true)])
        .collect()
}

/// All ablation rows plus the experiment-wide metric snapshot, fanned
/// out over the sweep runner; byte-identical for any `jobs` setting.
pub fn ablation_mode_routing_with_metrics(
    scale: Scale,
    jobs: Jobs,
    seed: u64,
) -> (Vec<RoutingRow>, MetricsSnapshot) {
    let cells = sweep::run(routing_cells(), jobs, |_, &(mode, gated)| {
        run_routing_arm(mode, gated, scale, seed)
    });
    let mut rows = Vec::with_capacity(cells.len());
    let mut metrics = MetricsSnapshot::new();
    for (row, cell_metrics) in cells {
        rows.push(row);
        metrics.merge(&cell_metrics);
    }
    (rows, metrics)
}

/// All ablation rows.
pub fn ablation_mode_routing_rows(scale: Scale, jobs: Jobs, seed: u64) -> Vec<RoutingRow> {
    ablation_mode_routing_with_metrics(scale, jobs, seed).0
}

/// Render the ablation: a `(mode, policy)` grid, then the per-mode
/// steering saving and the survival verdict.
pub fn render_ablation_mode_routing(rows: &[RoutingRow]) -> String {
    let mut table = Table::new(
        format!(
            "ablation_mode_routing: CPU-gated steering x exec mode on {}",
            routing_az()
        ),
        &[
            "mode",
            "policy",
            "billed ms",
            "e2e ms",
            "$/1k",
            "attempts",
            "declined",
            "restored",
            "branched",
        ],
    );
    for row in rows {
        table.row(&[
            row.mode.label().to_string(),
            if row.gated { "gated" } else { "baseline" }.to_string(),
            format!("{:.0}", row.mean_billed_ms),
            format!("{:.0}", row.mean_e2e_ms),
            format!("{:.4}", row.usd_per_k),
            format!("{:.2}", row.attempts_per_req),
            row.declined.to_string(),
            row.restored.to_string(),
            row.branched.to_string(),
        ]);
    }
    let mut out = table.render();
    let mut survives = true;
    for mode in ROUTING_MODES {
        let base = rows
            .iter()
            .find(|r| r.mode == mode && !r.gated)
            .expect("baseline row");
        let gated = rows
            .iter()
            .find(|r| r.mode == mode && r.gated)
            .expect("gated row");
        let saving = 100.0 * (base.usd_per_k - gated.usd_per_k) / base.usd_per_k;
        survives &= gated.usd_per_k < base.usd_per_k;
        out.push_str(&format!(
            "{}: steering saves {:.1}% of cost per 1k requests\n",
            mode.label(),
            saving,
        ));
    }
    out.push_str(&format!(
        "CPU-aware steering stays cheaper than the naive client in every exec mode: {}\n",
        if survives { "yes" } else { "NO" },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORLD_SEED;

    #[test]
    fn lifecycles_reuse_what_they_promise() {
        let rows = fig_exec_modes_rows(Scale::Quick, Jobs::serial(), WORLD_SEED);
        let n = (WAVES * wave_size(Scale::Quick)) as u64;
        let eph = find_row(&rows, ModeArm::Ephemeral);
        assert_eq!(eph.cold, n, "ephemeral cold-boots every request");
        let cached = find_row(&rows, ModeArm::Cached);
        assert_eq!(cached.cold, n, "keep-alive lapses between waves");
        let pooled = find_row(&rows, ModeArm::Prewarmed);
        assert_eq!(pooled.cold, 0, "pool absorbs every burst");
        assert_eq!(pooled.pooled, n);
        let ckpt = find_row(&rows, ModeArm::Checkpointed);
        assert!(ckpt.restored > 0, "waves 2-3 restore from snapshot");
        assert!(ckpt.cold < cached.cold);
        let br = find_row(&rows, ModeArm::Branched);
        assert!(br.branched > 0, "burst clones branch");
        assert!(br.cold < cached.cold);
        // Under concurrent bursts the router spreads instead of always
        // reusing (Lambda scale-out), so persistent still cold-boots
        // sometimes — but strictly less than cached, which re-pays the
        // whole ramp every wave, and it alone reuses warm across waves.
        let per = find_row(&rows, ModeArm::Persistent);
        assert!(per.cold < cached.cold, "persistent reuses across waves");
        assert!(per.warm > 0, "persistent FIs survive the 10-min gaps");
        for row in &rows {
            assert_eq!(
                row.cold + row.pooled + row.restored + row.branched + row.warm,
                n,
                "{}: start classes partition the requests",
                row.arm.label()
            );
        }
    }

    #[test]
    fn steering_outruns_baseline_in_every_mode() {
        for mode in ROUTING_MODES {
            let (base, _) = run_routing_arm(mode, false, Scale::Quick, WORLD_SEED);
            let (gated, _) = run_routing_arm(mode, true, Scale::Quick, WORLD_SEED);
            assert!(
                gated.mean_billed_ms < base.mean_billed_ms,
                "{}: steering onto fast CPUs must cut billed time ({:.0} vs {:.0} ms)",
                mode.label(),
                gated.mean_billed_ms,
                base.mean_billed_ms,
            );
            assert!(
                gated.attempts_per_req > 1.0,
                "{}: some declines must occur on the diverse zone",
                mode.label()
            );
            assert!(
                gated.usd_per_k < base.usd_per_k,
                "{}: the steering cost win must survive the lifecycle ({:.4} vs {:.4} $/1k)",
                mode.label(),
                gated.usd_per_k,
                base.usd_per_k,
            );
        }
    }

    #[test]
    fn fig_rows_are_jobs_invariant() {
        let serial = render_fig_exec_modes(&fig_exec_modes_rows(
            Scale::Quick,
            Jobs::serial(),
            WORLD_SEED,
        ));
        let parallel =
            render_fig_exec_modes(&fig_exec_modes_rows(Scale::Quick, Jobs::new(4), WORLD_SEED));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn ablation_rows_are_jobs_invariant() {
        let serial = render_ablation_mode_routing(&ablation_mode_routing_rows(
            Scale::Quick,
            Jobs::serial(),
            WORLD_SEED,
        ));
        let parallel = render_ablation_mode_routing(&ablation_mode_routing_rows(
            Scale::Quick,
            Jobs::new(4),
            WORLD_SEED,
        ));
        assert_eq!(serial, parallel);
    }
}
