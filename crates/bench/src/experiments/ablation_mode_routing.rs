//! **ablation_mode_routing** — does the paper's CPU-aware retry
//! steering (§3.5) survive execution-mode diversity?
//!
//! Crosses client policy (naive vs CPU-gated) with the cached,
//! checkpointed and branched lifecycles on the heterogeneous retry
//! zone. Each `(mode, policy)` pair is one sweep cell, so the grid is
//! byte-identical for any `--jobs` setting; the verdict line asserts
//! the steering cost win holds in every mode.

use crate::exec_modes::{ablation_mode_routing_rows, render_ablation_mode_routing, ROUTING_MODES};
use crate::out;
use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::Scale;

/// See the module docs.
pub struct AblationModeRouting;

impl Experiment for AblationModeRouting {
    fn name(&self) -> &'static str {
        "ablation_mode_routing"
    }

    fn description(&self) -> &'static str {
        "Ablation: CPU-gated retry steering crossed with exec modes"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("modes", ROUTING_MODES.len().to_string()),
            ("requests_per_arm", (2 * scale.pick(120, 24)).to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let rows = ablation_mode_routing_rows(ctx.scale, ctx.jobs, ctx.seed);
        out!(ctx, "{}", render_ablation_mode_routing(&rows));
        ctx.finish()
    }
}
