//! **fig_faults** — baseline vs. resilient routing under each injected
//! fault class (outage, partial outage, throttling storm, latency
//! spike, cold-start storm, gray degradation).
//!
//! Each fault class is one sweep cell (two fresh seeded worlds: naive
//! client and resilient client) so the table is byte-identical for any
//! `--jobs` setting. The resilient client must strictly dominate the
//! baseline on goodput in every row — the verdict line at the bottom is
//! asserted by the golden harness and the integration tests.

use crate::faults::{fig_faults_rows, render_fig_faults};
use crate::out;
use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::Scale;

/// See the module docs.
pub struct FigFaults;

impl Experiment for FigFaults {
    fn name(&self) -> &'static str {
        "fig_faults"
    }

    fn description(&self) -> &'static str {
        "Fault matrix: baseline vs resilient routing per injected fault class"
    }

    fn params(&self, _scale: Scale) -> Vec<(&'static str, String)> {
        vec![("fault_classes", "6".to_string())]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let rows = fig_faults_rows(ctx.scale, ctx.jobs, ctx.seed);
        out!(ctx, "{}", render_fig_faults(&rows));
        ctx.finish()
    }
}
