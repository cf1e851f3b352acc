//! The registered experiments — one module per paper figure/table,
//! ablation or extension, each a byte-faithful port of the former
//! standalone `src/bin/<name>.rs` binary into the
//! [`crate::registry::Experiment`] trait.
//!
//! Porting contract: with the default seed, an experiment's rendered
//! text is byte-identical to what the pre-registry binary printed to
//! stdout at the same scale, for every `--jobs` value. Adding an
//! experiment means adding a module here, registering it in
//! [`crate::registry::all`], documenting it in `EXPERIMENTS.md`, and
//! regenerating its `results/` artifact and quick-scale golden (see
//! DESIGN.md §10).

pub mod ablation_ban_sets;
pub mod ablation_drift_lag;
pub mod ablation_mode_routing;
pub mod ablation_passive;
pub mod ablation_staleness;
pub mod adaptive_sampling;
pub mod arm_vs_x86;
pub mod availability;
pub mod bench_engine_fleet;
pub mod calibration_probe;
pub mod carbon_aware;
pub mod cost_summary;
pub mod ex5_summary;
pub mod fig10_retry_methods;
pub mod fig11_region_hopping;
pub mod fig2_global_characterization;
pub mod fig3_sleep_sweep;
pub mod fig4_saturation;
pub mod fig5_progressive_sampling;
pub mod fig6_polls_to_accuracy;
pub mod fig7_temporal_drift;
pub mod fig8_hourly_variation;
pub mod fig9_cpu_performance;
pub mod fig_drift_regret;
pub mod fig_exec_modes;
pub mod fig_faults;
pub mod latency_tradeoff;
pub mod table1_workloads;
