//! **fig_exec_modes** — one table row per FI lifecycle (ephemeral,
//! cached, cached+pool, checkpointed, branched, persistent) under the
//! same three-wave burst schedule on the homogeneous 2.5 GHz zone.
//!
//! Each lifecycle is one sweep cell (a fresh seeded world), so the
//! table is byte-identical for any `--jobs` setting. The two verdict
//! lines — snapshot restore sits strictly between warm reuse and cold
//! boot, and the pre-warm pool absorbs every burst cold-start-free —
//! are asserted by the golden harness and the integration tests.

use crate::exec_modes::{fig_exec_modes_rows, render_fig_exec_modes, ModeArm, WAVES};
use crate::out;
use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::Scale;

/// See the module docs.
pub struct FigExecModes;

impl Experiment for FigExecModes {
    fn name(&self) -> &'static str {
        "fig_exec_modes"
    }

    fn description(&self) -> &'static str {
        "FI lifecycle matrix: cold/pooled/restored/branched/warm latency and cost"
    }

    fn params(&self, scale: Scale) -> Vec<(&'static str, String)> {
        vec![
            ("lifecycles", ModeArm::ALL.len().to_string()),
            ("waves", WAVES.to_string()),
            ("wave_size", crate::exec_modes::wave_size(scale).to_string()),
        ]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let rows = fig_exec_modes_rows(ctx.scale, ctx.jobs, ctx.seed);
        out!(ctx, "{}", render_fig_exec_modes(&rows));
        ctx.finish()
    }
}
