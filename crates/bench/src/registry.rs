//! Declarative experiment registry — experiments are data, not binaries.
//!
//! Every figure, table and ablation the repo reproduces is a registered
//! [`Experiment`]: a named, described, scale-aware computation over a
//! seeded world that renders its report into an [`ExperimentCtx`]. The
//! registry replaces the former 24 one-off `src/bin/*.rs` binaries; the
//! `skyward exp` multiplexer (`list | describe | run <name>... | run
//! --all`) is the single compiled entry point, and the golden gate,
//! CI smoke job and `run_experiments.sh` all enumerate [`all`] instead
//! of a hand-maintained binary list.
//!
//! Determinism contract: an experiment's rendered text is a pure
//! function of `(scale, seed)` — byte-identical for any `--jobs` value —
//! unless [`Experiment::deterministic`] says otherwise (host wall-clock
//! benchmarks). The registry-driven golden gate in
//! `tests/tests/golden.rs` enforces this at quick scale for every
//! deterministic experiment.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::sweep::{self, Jobs};
use crate::Scale;

/// Execution context handed to an experiment: the shared `--scale`,
/// `--jobs` and `--seed` knobs plus the output buffer the experiment
/// renders into (via [`out!`](crate::out) / [`outln!`](crate::outln)).
pub struct ExperimentCtx {
    /// Sample-count scale (paper-scale `full` or smoke-run `quick`).
    pub scale: Scale,
    /// Worker budget for the experiment's internal [`sweep`]s.
    pub jobs: Jobs,
    /// World seed (default [`crate::WORLD_SEED`]; every seed is
    /// reproducible, only the default is golden-pinned).
    pub seed: u64,
    out: String,
}

impl ExperimentCtx {
    /// Fresh context with an empty output buffer.
    pub fn new(scale: Scale, jobs: Jobs, seed: u64) -> ExperimentCtx {
        ExperimentCtx {
            scale,
            jobs,
            seed,
            out: String::new(),
        }
    }

    /// Build the standard seeded world for this context.
    pub fn world(&self) -> crate::World {
        crate::World::new(self.seed)
    }

    /// Drain the buffered report into the experiment's output.
    pub fn finish(&mut self) -> ExperimentOutput {
        ExperimentOutput {
            text: std::mem::take(&mut self.out),
        }
    }

    /// `format_args` sink behind the [`out!`](crate::out) /
    /// [`outln!`](crate::outln) macros.
    #[doc(hidden)]
    pub fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        fmt::Write::write_fmt(&mut self.out, args).expect("writing to a String cannot fail");
    }
}

/// Write to an experiment's output buffer (the registry port of `print!`).
#[macro_export]
macro_rules! out {
    ($ctx:expr, $($arg:tt)*) => {
        $ctx.write_fmt(format_args!($($arg)*))
    };
}

/// Write a line to an experiment's output buffer (the registry port of
/// `println!`).
#[macro_export]
macro_rules! outln {
    ($ctx:expr $(,)?) => {
        $ctx.write_fmt(format_args!("\n"))
    };
    ($ctx:expr, $($arg:tt)*) => {{
        $ctx.write_fmt(format_args!($($arg)*));
        $ctx.write_fmt(format_args!("\n"));
    }};
}

/// What one experiment run produced.
#[derive(Debug)]
pub struct ExperimentOutput {
    /// The rendered report — exactly what the former standalone binary
    /// printed to stdout.
    pub text: String,
}

/// One registered experiment.
pub trait Experiment: Sync {
    /// Unique registry name (also the `results/<name>.txt` stem and the
    /// former binary name).
    fn name(&self) -> &'static str;

    /// One-line description for `skyward exp list`.
    fn description(&self) -> &'static str;

    /// The experiment's scale-dependent parameters, for `skyward exp
    /// describe` — documentation, not configuration.
    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        let _ = scale;
        Vec::new()
    }

    /// Whether the rendered text is a pure function of `(scale, seed)`.
    /// Host wall-clock benchmarks return `false` and are excluded from
    /// the byte-identity golden gate.
    fn deterministic(&self) -> bool {
        true
    }

    /// Run the experiment, rendering its report into `ctx` and finishing
    /// with `ctx.finish()`.
    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput;
}

/// Every registered experiment, in canonical (paper/figure) order. This
/// order is the `run --all` execution order and the `results/` listing
/// order.
pub fn all() -> &'static [&'static dyn Experiment] {
    use crate::experiments::*;
    static ALL: &[&dyn Experiment] = &[
        &table1_workloads::Table1Workloads,
        &fig2_global_characterization::Fig2GlobalCharacterization,
        &fig3_sleep_sweep::Fig3SleepSweep,
        &fig4_saturation::Fig4Saturation,
        &fig5_progressive_sampling::Fig5ProgressiveSampling,
        &fig6_polls_to_accuracy::Fig6PollsToAccuracy,
        &fig7_temporal_drift::Fig7TemporalDrift,
        &fig8_hourly_variation::Fig8HourlyVariation,
        &fig9_cpu_performance::Fig9CpuPerformance,
        &fig10_retry_methods::Fig10RetryMethods,
        &fig11_region_hopping::Fig11RegionHopping,
        &ex5_summary::Ex5Summary,
        &cost_summary::CostSummary,
        &ablation_ban_sets::AblationBanSets,
        &ablation_staleness::AblationStaleness,
        &ablation_passive::AblationPassive,
        &latency_tradeoff::LatencyTradeoff,
        &arm_vs_x86::ArmVsX86,
        &availability::Availability,
        &carbon_aware::CarbonAware,
        &adaptive_sampling::AdaptiveSampling,
        &fig_faults::FigFaults,
        &fig_exec_modes::FigExecModes,
        &ablation_mode_routing::AblationModeRouting,
        &fig_drift_regret::FigDriftRegret,
        &ablation_drift_lag::AblationDriftLag,
        &calibration_probe::CalibrationProbe,
        &bench_engine_fleet::BenchEngineFleet,
    ];
    ALL
}

/// Look up an experiment by name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    all().iter().copied().find(|e| e.name() == name)
}

/// Run one experiment, converting a panic anywhere inside it into an
/// error so a multi-experiment run can report the failure and continue.
pub fn run_experiment(
    exp: &dyn Experiment,
    scale: Scale,
    jobs: Jobs,
    seed: u64,
) -> Result<ExperimentOutput, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = ExperimentCtx::new(scale, jobs, seed);
        exp.run(&mut ctx)
    }))
    .map_err(|payload| panic_message(payload.as_ref()))
}

/// Run a set of experiments with a shared worker budget and return the
/// outcomes in input order.
///
/// With more than one experiment and more than one worker, the
/// experiments themselves fan out over the sweep runner (each running
/// its internal sweeps serially); a single experiment gets the whole
/// budget for its internal sweeps. Either way every experiment's text is
/// jobs-invariant, so the merged outcome list is byte-identical for any
/// worker count.
pub fn run_many(
    exps: &[&'static dyn Experiment],
    scale: Scale,
    jobs: Jobs,
    seed: u64,
) -> Vec<(&'static str, Result<ExperimentOutput, String>)> {
    if exps.len() > 1 && jobs.get() > 1 {
        sweep::run(exps.to_vec(), jobs, |_, exp| {
            (
                exp.name(),
                run_experiment(*exp, scale, Jobs::serial(), seed),
            )
        })
    } else {
        exps.iter()
            .map(|exp| (exp.name(), run_experiment(*exp, scale, jobs, seed)))
            .collect()
    }
}

/// Extract a readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "experiment panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_resolves_every_registered_name() {
        for exp in all() {
            let found = find(exp.name()).expect("name resolves");
            assert_eq!(found.name(), exp.name());
        }
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn scale_parser_rejects_near_misses() {
        assert_eq!(Scale::parse("quick").unwrap(), Scale::Quick);
        assert_eq!(Scale::parse("full").unwrap(), Scale::Full);
        for bad in ["Quick", "FULL", "ful", "fast", ""] {
            let err = Scale::parse(bad).expect_err("rejected");
            assert!(err.contains("unknown scale"), "unhelpful error: {err}");
        }
    }

    #[test]
    fn failing_experiment_reports_instead_of_aborting() {
        struct Exploding;
        impl Experiment for Exploding {
            fn name(&self) -> &'static str {
                "exploding"
            }
            fn description(&self) -> &'static str {
                "always panics"
            }
            fn run(&self, _ctx: &mut ExperimentCtx) -> ExperimentOutput {
                panic!("boom: {}", 42)
            }
        }
        let err = run_experiment(&Exploding, Scale::Quick, Jobs::serial(), 42)
            .expect_err("panic surfaces as error");
        assert!(err.contains("boom: 42"), "lost panic message: {err}");
    }
}
