//! End-to-end and per-layer benchmark of the ANU simulator.
//!
//! The benchmark drives the repository only through its public entry
//! points (the `anu` facade): it builds experiments with `anu-harness`,
//! runs them through `anu_harness::run_grid` or `anu_cluster::run_traced*`,
//! and times every layer from the outside with a policy decorator, a
//! profiler, paired untraced/traced runs and calibration probes of the
//! `anu-des` primitives. See `perfbench/README.md` for the workloads and
//! the metric catalogue.

pub mod digest;
pub mod instrument;
pub mod layers;
pub mod probes;
pub mod run;
pub mod workloads;
