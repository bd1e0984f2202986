//! # anu-harness — regenerating the paper's evaluation
//!
//! Everything needed to reproduce Figures 6–11 of the SC'03 evaluation:
//!
//! * [`experiment`] — workload + cluster + policies bundles, run in
//!   parallel with deterministic results;
//! * [`figures`] — one constructor per figure and the qualitative *shape
//!   checks* each figure makes (who wins, what converges, what
//!   oscillates);
//! * [`runner`] — the deterministic parallel sweep engine: the
//!   figure/seed grid as independent tasks, drained by a scoped-thread
//!   worker pool with byte-identical outputs at any `--jobs N`, plus the
//!   `BENCH_figures.json` perf manifest;
//! * [`chaos`] — the fault-intensity sweep: the four-policy lineup under
//!   escalating deterministic fault scripts, with availability metrics
//!   and robustness checks;
//! * [`storm`] — the elasticity sweep: storm-shaped workloads (flash
//!   crowds, diurnal curves, popularity shifts, adversarial hot sets)
//!   with heavy-tailed demands and membership churn against the
//!   autoscaler + shed machinery, scored on Jain fairness and
//!   per-file-set p99;
//! * [`meanfield`] — the mean-field cross-validation sweep: the
//!   `anu-analytic` oracle's fixed-point predictions next to simulated
//!   per-server means across growing workload scales, with the
//!   shrinking-divergence gate;
//! * [`ablation`] — the ablation studies beyond the figures on
//!   deduplicated lineups, with the average, failover and churn checks;
//! * [`report`] — text tables, CSV emission, and verdict rendering.
//!
//! Binaries: `figures` regenerates every figure's series and prints the
//! shape-check verdicts, and runs the `--chaos`, `--storm`, `--meanfield`
//! and `--ablations` side sections as [`Section`]s; `tracegen` writes
//! replayable workload traces.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod chaos;
pub mod experiment;
pub mod figures;
pub mod meanfield;
pub mod report;
pub mod runner;
pub mod storm;

pub use ablation::ablation_section;
pub use chaos::{
    chaos_checks, chaos_experiment, chaos_experiments, chaos_manifest, chaos_name, chaos_rows,
    chaos_section, write_chaos_summary_csv, CHAOS_LEVELS,
};
pub use experiment::{Experiment, PolicyKind, PrescientWindow};
pub use figures::{
    all_figures, check_closeup, check_decomposition, check_four_policy, check_overtuning,
    checks_for, fig10, fig11, fig6, fig7, fig8, fig9, figure, figure_scaled, reduced, ShapeCheck,
    DEFAULT_SEED, FIGURE_NUMBERS, PLAIN_ANU_LABEL,
};
pub use meanfield::{
    meanfield_cell, meanfield_checks, meanfield_experiments, meanfield_grid, meanfield_lens,
    meanfield_manifest, meanfield_name, meanfield_rows, meanfield_section, meanfield_tuning,
    model_input, write_meanfield_cells_csv, write_meanfield_convergence_csv, ConvergenceRow,
    MeanfieldRow, MeasureWindow, MEANFIELD_DIVERGENCE_CEILING, MEANFIELD_REPLICAS,
    MEANFIELD_SCALES,
};
pub use report::{
    checks_table, csv_field, file_stem, series_table, sparklines, summary_table,
    write_figure_csvs_tagged, write_metrics_csv, write_series_csv, write_tuner_epochs_csv,
};
pub use storm::{
    storm_cells, storm_checks, storm_cluster, storm_converge_experiment, storm_experiment,
    storm_experiments, storm_manifest, storm_name, storm_rows, storm_section,
    write_storm_summary_csv, StormRow, CONVERGE_JAIN_FLOOR, STORM_LEVELS,
};

pub use runner::{
    effective_jobs, gate_exit_code, manifest, measure_trace_overhead, perf_baseline, plan,
    run_grid, run_grid_traced, run_scale_bench, strip_timing, FigureVerdict, ScaleBench, Section,
    SectionFinish, SectionReport, SimTask, TaskOutcome, TaskProfile, TraceOverhead,
    BASELINE_SCALE1_EVENTS_PER_SEC, MANIFEST_SCHEMA, PERF_GATE_THRESHOLD, SECTIONS,
};
