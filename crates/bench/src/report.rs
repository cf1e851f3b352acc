//! The `skyward report` observability rollup: run the standard
//! experiments, merge their metric snapshots, and render per-AZ /
//! per-policy breakdown tables (or raw Prometheus-text / JSON
//! exposition).
//!
//! Every snapshot here is a pure function of `(scale, seed)`:
//! experiment cells run on the sweep runner and their per-cell
//! snapshots merge in item order, so the report is byte-identical for
//! any `--jobs` setting. The golden harness pins the Prometheus
//! exposition and the rendered tables of the quick-scale report.

use std::collections::BTreeMap;

use crate::faults::fig_faults_with_metrics;
use crate::sweep::Jobs;
use crate::{profile_workload, run_daily_routing, DailyRoutingConfig, Scale, World};
use sky_core::sim::series::Table;
use sky_core::sim::{LogHistogram, MetricsSnapshot};
use sky_core::workloads::WorkloadKind;
use sky_core::RoutingPolicy;

/// Metric snapshot of the `fig_faults` experiment (all classes, both
/// policies), tagged `experiment="fig_faults"`.
pub fn fig_faults_metrics(scale: Scale, jobs: Jobs, seed: u64) -> MetricsSnapshot {
    fig_faults_with_metrics(scale, jobs, seed)
        .1
        .with_label("experiment", "fig_faults")
}

/// Metric snapshot of a multi-day regional-routing scenario, tagged
/// `experiment="daily_routing"`.
pub fn daily_routing_metrics(scale: Scale, seed: u64) -> MetricsSnapshot {
    let mut world = World::new(seed);
    let primary = World::az("us-west-1b");
    let probe = world
        .engine
        .deploy(world.aws, &primary, 2048, sky_core::cloud::Arch::X86_64)
        .expect("probe deploys");
    let table = profile_workload(
        &mut world.engine,
        probe,
        WorkloadKind::GraphBfs,
        scale.pick(300, 150),
        seed,
    );
    let candidates = vec![primary.clone(), World::az("us-west-1a")];
    let config = DailyRoutingConfig {
        kind: WorkloadKind::GraphBfs,
        days: scale.pick(4, 2),
        burst: scale.pick(120, 60),
        baseline_az: primary,
        policy: RoutingPolicy::Regional {
            candidates: candidates.clone(),
        },
        sampled_azs: candidates,
        polls_per_day: 2,
    };
    run_daily_routing(&mut world, &table, &config);
    world
        .metrics_snapshot()
        .with_label("experiment", "daily_routing")
}

/// The full report snapshot: `fig_faults` merged with `daily_routing`.
pub fn report_snapshot(scale: Scale, jobs: Jobs, seed: u64) -> MetricsSnapshot {
    let mut snap = fig_faults_metrics(scale, jobs, seed);
    snap.merge(&daily_routing_metrics(scale, seed));
    snap
}

/// Sum the named counter grouped by the value of `label_key` (entries
/// without that label are skipped). Deterministic: grouped through a
/// `BTreeMap`.
fn counters_by(
    snap: &MetricsSnapshot,
    subsystem: &str,
    name: &str,
    label_key: &str,
) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for e in &snap.entries {
        if e.subsystem != subsystem || e.name != name {
            continue;
        }
        let Some((_, v)) = e.labels.iter().find(|(k, _)| k == label_key) else {
            continue;
        };
        if let sky_core::sim::MetricValue::Counter(n) = e.value {
            *out.entry(v.clone()).or_insert(0) += n;
        }
    }
    out
}

/// Merge the named histogram grouped by the value of `label_key`.
fn histograms_by(
    snap: &MetricsSnapshot,
    subsystem: &str,
    name: &str,
    label_key: &str,
) -> BTreeMap<String, LogHistogram> {
    let mut out: BTreeMap<String, LogHistogram> = BTreeMap::new();
    for e in &snap.entries {
        if e.subsystem != subsystem || e.name != name {
            continue;
        }
        let Some((_, v)) = e.labels.iter().find(|(k, _)| k == label_key) else {
            continue;
        };
        if let sky_core::sim::MetricValue::Histogram(ref h) = e.value {
            out.entry(v.clone()).or_default().merge(&h.to_histogram());
        }
    }
    out
}

/// All distinct values a label takes across the snapshot, sorted.
fn label_values(snap: &MetricsSnapshot, label_key: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for e in &snap.entries {
        for (k, v) in &e.labels {
            if k == label_key && !out.contains(v) {
                out.push(v.clone());
            }
        }
    }
    out.sort();
    out
}

/// Render the human-readable report: FaaS requests and billing per AZ,
/// span latency per AZ, and routing/resilience activity per policy.
pub fn render_report(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();

    let attempts = counters_by(snap, "faas", "attempts", "az");
    let cold = counters_by(snap, "faas", "cold_starts", "az");
    let warm = counters_by(snap, "faas", "warm_starts", "az");
    let evictions = counters_by(snap, "faas", "keepalive_evictions", "az");
    let mut status: BTreeMap<&str, BTreeMap<String, u64>> = BTreeMap::new();
    for s in ["success", "declined", "throttled", "no-capacity"] {
        let mut by_az = BTreeMap::new();
        for e in &snap.entries {
            if e.subsystem != "faas" || e.name != "requests" {
                continue;
            }
            if !e.labels.iter().any(|(k, v)| k == "status" && v == s) {
                continue;
            }
            let Some((_, az)) = e.labels.iter().find(|(k, _)| k == "az") else {
                continue;
            };
            if let sky_core::sim::MetricValue::Counter(n) = e.value {
                *by_az.entry(az.clone()).or_insert(0) += n;
            }
        }
        status.insert(s, by_az);
    }

    let mut faas = Table::new(
        "skyward report: FaaS requests by AZ",
        &[
            "az",
            "attempts",
            "success",
            "declined",
            "throttled",
            "no-cap",
            "cold",
            "warm",
            "evicted",
        ],
    );
    for az in label_values(snap, "az") {
        if !attempts.contains_key(&az) {
            continue;
        }
        let pick = |m: &BTreeMap<String, u64>| m.get(&az).copied().unwrap_or(0).to_string();
        faas.row(&[
            az.clone(),
            pick(&attempts),
            pick(&status["success"]),
            pick(&status["declined"]),
            pick(&status["throttled"]),
            pick(&status["no-capacity"]),
            pick(&cold),
            pick(&warm),
            pick(&evictions),
        ]);
    }
    out.push_str(&faas.render());
    out.push('\n');

    let billed = counters_by(snap, "faas", "billed_mb_us", "az");
    let cost = counters_by(snap, "faas", "cost_nanousd", "az");
    let mut billing = Table::new(
        "skyward report: billing by AZ",
        &["az", "GB-seconds", "cost USD"],
    );
    for (az, mb_us) in &billed {
        billing.row(&[
            az.clone(),
            format!("{:.3}", *mb_us as f64 / (1024.0 * 1e6)),
            format!("{:.6}", cost.get(az).copied().unwrap_or(0) as f64 / 1e9),
        ]);
    }
    out.push_str(&billing.render());
    out.push('\n');

    let e2e = histograms_by(snap, "span", "e2e_us", "az");
    let mut spans = Table::new(
        "skyward report: request spans by AZ",
        &["az", "spans", "mean ms", "p50 ms", "p99 ms", "max ms"],
    );
    for (az, h) in &e2e {
        let ms = |us: u64| format!("{:.1}", us as f64 / 1_000.0);
        spans.row(&[
            az.clone(),
            h.count().to_string(),
            if h.count() == 0 {
                "-".into()
            } else {
                format!("{:.1}", h.sum() as f64 / h.count() as f64 / 1_000.0)
            },
            h.quantile(0.50).map(ms).unwrap_or_else(|| "-".into()),
            h.quantile(0.99).map(ms).unwrap_or_else(|| "-".into()),
            h.max().map(ms).unwrap_or_else(|| "-".into()),
        ]);
    }
    out.push_str(&spans.render());
    out.push('\n');

    let placements_r = counters_by(snap, "router", "placements", "policy");
    let requests_r = counters_by(snap, "router", "requests", "policy");
    let completed_r = counters_by(snap, "router", "completed", "policy");
    let errors_r = counters_by(snap, "router", "errors", "policy");
    let placements_c = counters_by(snap, "resilience", "placements", "policy");
    let attempts_c = counters_by(snap, "resilience", "attempts", "policy");
    let retries_c = counters_by(snap, "resilience", "retries", "policy");
    let hedges_c = counters_by(snap, "resilience", "hedges", "policy");
    let breaker_c = counters_by(snap, "resilience", "breaker_transitions", "policy");
    let mut policy = Table::new(
        "skyward report: routing by policy",
        &[
            "policy",
            "placements",
            "requests",
            "completed",
            "errors",
            "attempts",
            "retries",
            "hedges",
            "breaker flips",
        ],
    );
    for p in label_values(snap, "policy") {
        let pick = |m: &BTreeMap<String, u64>| m.get(&p).copied().unwrap_or(0);
        policy.row(&[
            p.clone(),
            (pick(&placements_r) + pick(&placements_c)).to_string(),
            pick(&requests_r).to_string(),
            pick(&completed_r).to_string(),
            pick(&errors_r).to_string(),
            pick(&attempts_c).to_string(),
            pick(&retries_c).to_string(),
            pick(&hedges_c).to_string(),
            pick(&breaker_c).to_string(),
        ]);
    }
    out.push_str(&policy.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORLD_SEED;

    #[test]
    fn report_snapshot_is_jobs_invariant() {
        let serial = report_snapshot(Scale::Quick, Jobs::serial(), WORLD_SEED);
        let parallel = report_snapshot(Scale::Quick, Jobs::new(4), WORLD_SEED);
        assert_eq!(serial.to_prometheus_text(), parallel.to_prometheus_text());
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    #[test]
    fn report_tables_cover_experiment_zones() {
        let snap = report_snapshot(Scale::Quick, Jobs::serial(), WORLD_SEED);
        let rendered = render_report(&snap);
        for az in ["us-east-2a", "us-east-2b", "us-west-1a", "us-west-1b"] {
            assert!(rendered.contains(az), "report must mention {az}");
        }
        for policy in ["baseline", "resilient", "regional"] {
            assert!(rendered.contains(policy), "report must mention {policy}");
        }
    }
}
