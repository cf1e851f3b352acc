//! **Table 1** — the twelve serverless benchmark functions.
//!
//! Runs every kernel *for real* (not through the performance model) and
//! prints the paper's metadata columns alongside execution evidence:
//! checksum and abstract work units at scale 1. Host time is not
//! reported: the kernels' speed on the machine at hand is perfbench's
//! subject, and the table must stay a pure function of the seed.

use crate::outln;
use crate::registry::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::Scale;
use sky_core::sim::series::Table;
use sky_core::workloads::{execute, EphemeralFs, WorkloadKind, WorkloadRequest};

/// See the module docs.
pub struct Table1Workloads;

impl Experiment for Table1Workloads {
    fn name(&self) -> &'static str {
        "table1_workloads"
    }

    fn description(&self) -> &'static str {
        "Table 1: the 12-function workload suite, kernels executed for real"
    }

    fn params(&self, _scale: Scale) -> Vec<(&'static str, String)> {
        vec![("functions", WorkloadKind::ALL.len().to_string())]
    }

    fn run(&self, ctx: &mut ExperimentCtx) -> ExperimentOutput {
        let mut table = Table::new(
            "Table 1: serverless workload suite (kernels executed for real)",
            &["function", "vCPUs", "checksum", "work units", "description"],
        );
        for kind in WorkloadKind::ALL {
            let mut fs = EphemeralFs::new();
            let result = execute(&WorkloadRequest::new(kind, 42), &mut fs);
            table.row(&[
                kind.name().to_string(),
                format!("{:.1}", kind.vcpus()),
                format!("{:016x}", result.checksum),
                result.work_units.to_string(),
                kind.description().chars().take(60).collect(),
            ]);
        }
        outln!(ctx, "{}", table.render());
        ctx.finish()
    }
}
