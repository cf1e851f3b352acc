//! The golden harness: the one place simulator output is compared with
//! checked-in bytes.
//!
//! - *Quick gate:* every registry experiment runs through
//!   `registry::run_many` on two workers (the fan-out path `skyward exp
//!   run --all` takes) and must match `tests/golden/exp/<name>_quick.txt`.
//! - *Jobs matrix:* the experiments that sweep cells internally must
//!   reproduce the gate's text at 2 and 8 workers, compared in memory.
//! - *Report:* the quick `skyward report` snapshot is pinned as
//!   Prometheus text and as rendered tables and survives a JSON round
//!   trip; it and the exec-mode metric snapshot are equal at 1, 2 and
//!   8 workers.
//! - *Scenarios:* a two-day regional-routing run and a four-poll
//!   sampling campaign must match `tests/golden/<scenario>_quick.txt`.
//! - *Full scale* (`--ignored`): every experiment must match its
//!   committed `results/<name>.txt`.
//!
//! Every `verdict:` line must end in `PASS` before its text is compared
//! or rewritten, so a regenerated file can never pin a failed claim.
//! After an intentional change, regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p sky-bench --test golden
//! UPDATE_GOLDEN=1 cargo test --release -p sky-bench --test golden -- --ignored
//! ```
//!
//! and commit the rewritten files with the change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use sky_bench::exec_modes::fig_exec_modes_with_metrics;
use sky_bench::registry;
use sky_bench::report::{render_report, report_snapshot};
use sky_bench::sweep::Jobs;
use sky_bench::{
    cumulative_savings, profile_workload, run_daily_routing, DailyRoutingConfig, Scale, World,
    WORLD_SEED,
};
use sky_core::cloud::Arch;
use sky_core::sim::series::Table;
use sky_core::sim::MetricsSnapshot;
use sky_core::workloads::WorkloadKind;
use sky_core::{CampaignConfig, PollConfig, RoutingPolicy, SamplingCampaign};

/// The experiments that fan cells out over `ctx.jobs`: their worker
/// count must not leak into their text. `ex5_summary` also sweeps, but
/// its twelve multi-day campaigns are the slowest quick run; its cells
/// are built like those of `fig9_cpu_performance` and `arm_vs_x86`.
const SWEPT: [&str; 12] = [
    "fig2_global_characterization",
    "fig5_progressive_sampling",
    "fig9_cpu_performance",
    "ablation_ban_sets",
    "ablation_staleness",
    "ablation_passive",
    "arm_vs_x86",
    "fig_faults",
    "fig_exec_modes",
    "ablation_mode_routing",
    "fig_drift_regret",
    "ablation_drift_lag",
];

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Readable diff: line numbers plus `-expected` / `+actual` markers,
/// capped so a wildly divergent table stays scannable.
fn render_diff(expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    let mut shown = 0;
    for i in 0..exp.len().max(act.len()) {
        let (e, a) = (exp.get(i), act.get(i));
        if e == a {
            continue;
        }
        if shown == 40 {
            let _ = writeln!(out, "  ... (further mismatches elided)");
            break;
        }
        if let Some(e) = e {
            let _ = writeln!(out, "  {:>4} - {e}", i + 1);
        }
        if let Some(a) = a {
            let _ = writeln!(out, "  {:>4} + {a}", i + 1);
        }
        shown += 1;
    }
    out
}

/// Check `actual` against the file at `path`, or rewrite the file when
/// `UPDATE_GOLDEN` is set. A failed `verdict:` line fails either way.
fn check(path: &Path, actual: &str) -> Result<(), String> {
    let failed: Vec<&str> = actual
        .lines()
        .filter(|l| l.starts_with("verdict:") && !l.ends_with("PASS"))
        .collect();
    if !failed.is_empty() {
        return Err(format!(
            "{}: failed verdict\n  {}",
            path.display(),
            failed.join("\n  ")
        ));
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(path, actual).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("golden: wrote {}", path.display());
        return Ok(());
    }
    let expected =
        fs::read_to_string(path).map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    if expected == actual {
        Ok(())
    } else {
        Err(format!(
            "{} differs:\n{}",
            path.display(),
            render_diff(&expected, actual)
        ))
    }
}

fn same_snapshot(what: &str, a: &MetricsSnapshot, b: &MetricsSnapshot) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "{what}:\n{}",
            render_diff(&a.to_json(), &b.to_json())
        ))
    }
}

fn assert_clean(failures: Vec<String>) {
    assert!(
        failures.is_empty(),
        "{}\nif the change is intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test -p sky-bench --test golden` \
         (`--release ... -- --ignored` for results/)",
        failures.join("\n")
    );
}

/// Run every registry experiment through the `run_many` fan-out and
/// return the texts by name, recording failed runs.
fn run_registry(
    scale: Scale,
    jobs: Jobs,
    failures: &mut Vec<String>,
) -> Vec<(&'static str, String)> {
    let exps = registry::all();
    let outcomes = registry::run_many(exps, scale, jobs, WORLD_SEED);
    let names: Vec<&str> = outcomes.iter().map(|(name, _)| *name).collect();
    let expected: Vec<&str> = exps.iter().map(|e| e.name()).collect();
    assert_eq!(names, expected, "run_many reordered the experiments");
    let mut texts = Vec::new();
    for (name, outcome) in outcomes {
        match outcome {
            Ok(out) => texts.push((name, out.text)),
            Err(e) => failures.push(format!("{name} failed at {} scale: {e}", scale.name())),
        }
    }
    texts
}

#[test]
fn golden_registry_experiments_quick() {
    let mut failures = Vec::new();
    let gate: BTreeMap<&str, String> = run_registry(Scale::Quick, Jobs::new(2), &mut failures)
        .into_iter()
        .collect();
    for (name, text) in &gate {
        let path = repo_path(&format!("tests/golden/exp/{name}_quick.txt"));
        failures.extend(check(&path, text).err());
    }

    for name in SWEPT {
        let exp = registry::find(name).expect("registered");
        let Some(reference) = gate.get(name) else {
            continue;
        };
        for jobs in [2, 8] {
            match registry::run_experiment(exp, Scale::Quick, Jobs::new(jobs), WORLD_SEED) {
                Ok(out) if out.text == *reference => {}
                Ok(out) => failures.push(format!(
                    "{name} at {jobs} workers differs from its single-worker text:\n{}",
                    render_diff(reference, &out.text)
                )),
                Err(e) => failures.push(format!("{name} at {jobs} workers failed: {e}")),
            }
        }
    }

    // A snapshot without an experiment behind it is stale.
    for entry in fs::read_dir(repo_path("tests/golden/exp")).expect("golden dir") {
        let file = entry.expect("golden entry").file_name();
        let file = file.to_string_lossy();
        let name = file.strip_suffix("_quick.txt").unwrap_or(&file);
        if registry::find(name).is_none() {
            failures.push(format!("tests/golden/exp/{file} has no experiment"));
        }
    }
    assert_clean(failures);
}

#[test]
fn golden_metrics_report() {
    let snapshot = report_snapshot(Scale::Quick, Jobs::serial(), WORLD_SEED);
    let mut failures = Vec::new();
    for (file, text) in [
        ("metrics_report_quick.txt", snapshot.to_prometheus_text()),
        ("metrics_report_table_quick.txt", render_report(&snapshot)),
    ] {
        failures.extend(check(&repo_path(&format!("tests/golden/{file}")), &text).err());
    }

    // The JSON exposition carries what the Prometheus text drops (gauge
    // timestamps, histogram min/max): it must decode to the same
    // snapshot and re-encode to the same bytes.
    let json = snapshot.to_json();
    let decoded: MetricsSnapshot = serde_json::from_str(&json).expect("report JSON decodes");
    failures.extend(same_snapshot("report JSON round trip", &snapshot, &decoded).err());
    if decoded.to_json() != json {
        failures.push("report JSON does not re-encode byte-identically".into());
    }

    let (_, modes) = fig_exec_modes_with_metrics(Scale::Quick, Jobs::serial(), WORLD_SEED);
    assert!(!modes.entries.is_empty(), "exec-mode snapshot is empty");
    for jobs in [2, 8] {
        let report = report_snapshot(Scale::Quick, Jobs::new(jobs), WORLD_SEED);
        let what = format!("report snapshot at {jobs} workers");
        failures.extend(same_snapshot(&what, &snapshot, &report).err());
        let (_, parallel) = fig_exec_modes_with_metrics(Scale::Quick, Jobs::new(jobs), WORLD_SEED);
        let what = format!("fig_exec_modes metrics at {jobs} workers");
        failures.extend(same_snapshot(&what, &modes, &parallel).err());
    }
    assert_clean(failures);
}

#[test]
fn golden_daily_routing() {
    let mut world = World::new(WORLD_SEED);
    let primary = World::az("us-west-1b");
    let probe = world
        .engine
        .deploy(world.aws, &primary, 2048, Arch::X86_64)
        .unwrap();
    let table = profile_workload(
        &mut world.engine,
        probe,
        WorkloadKind::GraphBfs,
        150,
        WORLD_SEED,
    );
    let candidates = vec![primary.clone(), World::az("us-west-1a")];
    let config = DailyRoutingConfig {
        kind: WorkloadKind::GraphBfs,
        days: 2,
        burst: 60,
        baseline_az: primary,
        policy: RoutingPolicy::Regional {
            candidates: candidates.clone(),
        },
        sampled_azs: candidates,
        polls_per_day: 2,
    };
    let outcomes = run_daily_routing(&mut world, &table, &config);
    let mut out = Table::new(
        "golden: two-day regional routing (quick scale)",
        &[
            "day",
            "az",
            "base $/req",
            "opt $/req",
            "savings %",
            "sampling $",
        ],
    );
    for o in &outcomes {
        out.row(&[
            o.day.to_string(),
            o.az.to_string(),
            format!(
                "{:.6}",
                o.baseline.total_cost_usd() / o.baseline.completed.max(1) as f64
            ),
            format!(
                "{:.6}",
                o.optimized.total_cost_usd() / o.optimized.completed.max(1) as f64
            ),
            format!("{:.2}", o.savings() * 100.0),
            format!("{:.6}", o.sampling_cost_usd),
        ]);
    }
    let mut rendered = out.render();
    let _ = writeln!(
        rendered,
        "cumulative savings: {:.2}%",
        cumulative_savings(&outcomes) * 100.0
    );
    let path = repo_path("tests/golden/daily_routing_quick.txt");
    assert_clean(check(&path, &rendered).err().into_iter().collect());
}

#[test]
fn golden_sampling_campaign() {
    let mut world = World::new(WORLD_SEED);
    let az = World::az("us-east-2c");
    let mut campaign = SamplingCampaign::new(
        &mut world.engine,
        world.aws,
        &az,
        CampaignConfig {
            deployments: 4,
            poll: PollConfig {
                requests: 200,
                ..Default::default()
            },
            max_polls: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let polls = campaign.run_polls(&mut world.engine, 4);
    let mut out = Table::new(
        format!("golden: sampling campaign in {az} (quick scale)"),
        &["poll", "unique FIs", "failures", "mix after"],
    );
    for (i, p) in polls.iter().enumerate() {
        out.row(&[
            (i + 1).to_string(),
            p.cumulative_fis.to_string(),
            p.failures.to_string(),
            format!("{:?}", p.mix_after),
        ]);
    }
    let mut rendered = out.render();
    let _ = writeln!(
        rendered,
        "campaign cost: ${:.6}, overall failure rate: {:.4}",
        campaign.total_cost_usd(),
        campaign.overall_failure_rate()
    );
    let path = repo_path("tests/golden/sampling_campaign_quick.txt");
    assert_clean(check(&path, &rendered).err().into_iter().collect());
}

#[test]
#[ignore = "full scale; run with `cargo test --release -p sky-bench --test golden -- --ignored`"]
fn golden_results_full() {
    let mut failures = Vec::new();
    for (name, text) in run_registry(Scale::Full, Jobs::host(), &mut failures) {
        failures.extend(check(&repo_path(&format!("results/{name}.txt")), &text).err());
    }
    assert_clean(failures);
}
