//! Registry completeness and determinism contracts for the experiment
//! multiplexer (`skyward exp`): the registry is a well-formed inventory
//! (unique names, docs and published artifacts for everything in it),
//! every experiment's output is a pure function of `(scale, seed)` at
//! any `--jobs`, and a failing experiment never
//! poisons its siblings. Sky-bench's golden harness pins the bytes.

use std::collections::BTreeSet;
use std::path::PathBuf;

use sky_bench::registry::{self, Experiment};
use sky_bench::sweep::Jobs;
use sky_bench::{Scale, WORLD_SEED};

fn repo_file(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(rel)
}

#[test]
fn registry_names_are_unique_and_well_formed() {
    let mut seen = BTreeSet::new();
    for exp in registry::all() {
        let name = exp.name();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "experiment name {name:?} is not snake_case"
        );
        assert!(seen.insert(name), "duplicate experiment name {name:?}");
        assert!(
            !exp.description().is_empty(),
            "experiment {name:?} has no description"
        );
    }
    assert_eq!(
        seen.len(),
        28,
        "expected 23 ported binaries plus bench_engine_fleet, \
         fig_exec_modes, ablation_mode_routing, fig_drift_regret and \
         ablation_drift_lag"
    );
}

#[test]
fn every_experiment_is_documented_in_experiments_md() {
    let doc = std::fs::read_to_string(repo_file("EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md exists at the repo root");
    for exp in registry::all() {
        assert!(
            doc.contains(&format!("`{}`", exp.name())),
            "experiment `{}` is not mentioned in EXPERIMENTS.md — document what it \
             reproduces (or why it is internal) when registering it",
            exp.name()
        );
    }
}

#[test]
fn every_experiment_has_a_published_results_artifact() {
    for exp in registry::all() {
        let path = repo_file(&format!("results/{}.txt", exp.name()));
        assert!(
            path.is_file(),
            "missing {}; regenerate with `skyward exp run --all --out results/`",
            path.display()
        );
    }
}

#[test]
fn deterministic_experiments_are_jobs_invariant_at_quick_scale() {
    // The multiplexer's load-bearing promise: text depends on
    // (scale, seed) only. Exercise the cheap multi-cell experiments at
    // 1/2/8 workers; the golden harness covers the rest of the set.
    for name in [
        "fig_faults",
        "ablation_staleness",
        "fig5_progressive_sampling",
        "fig_drift_regret",
        "ablation_drift_lag",
        "fig2_global_characterization",
    ] {
        let exp: &dyn Experiment = registry::find(name).expect("registered");
        let serial = registry::run_experiment(exp, Scale::Quick, Jobs::serial(), WORLD_SEED)
            .unwrap_or_else(|e| panic!("{name} failed: {e}"))
            .text;
        assert!(!serial.is_empty(), "{name} printed nothing");
        for jobs in [2, 8] {
            let parallel = registry::run_experiment(exp, Scale::Quick, Jobs::new(jobs), WORLD_SEED)
                .unwrap_or_else(|e| panic!("{name} with {jobs} jobs failed: {e}"))
                .text;
            assert_eq!(
                serial, parallel,
                "{name} output differs between 1 and {jobs} workers"
            );
        }
    }
}

#[test]
fn run_many_reports_failures_without_poisoning_siblings() {
    struct Exploding;
    impl Experiment for Exploding {
        fn name(&self) -> &'static str {
            "exploding_test_double"
        }
        fn description(&self) -> &'static str {
            "test double that panics"
        }
        fn run(&self, _ctx: &mut registry::ExperimentCtx) -> registry::ExperimentOutput {
            panic!("boom");
        }
    }
    static EXPLODING: Exploding = Exploding;
    let fig_faults = registry::find("fig_faults").expect("registered");
    let outcomes = registry::run_many(
        &[&EXPLODING, fig_faults],
        Scale::Quick,
        Jobs::serial(),
        WORLD_SEED,
    );
    assert_eq!(outcomes.len(), 2);
    let boom = outcomes[0].1.as_ref().expect_err("the panic surfaces");
    assert!(boom.contains("boom"), "panic message lost: {boom:?}");
    assert!(
        outcomes[1].1.is_ok(),
        "a sibling failure must not poison later experiments"
    );
}
