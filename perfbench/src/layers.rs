//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark prints, with its unit and direction. `BENCHMARK.json` lists the
//! same names (`tests/catalogue.rs` keeps the two in step).

/// Name, unit and whether higher or lower is better.
pub type MetricSpec = (&'static str, &'static str, &'static str);

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [MetricSpec; 6] = [
    ("events_per_s", "1/s", "higher"),
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("anu_late_mean_ms", "ms", "lower"),
    ("served_share", "ratio", "higher"),
];

/// Per-layer metrics, printed with `--trace 1`. Layers are crates.
pub const PER_LAYER: [MetricSpec; 83] = [
    // anu-policies, per class, from the decorator.
    ("policies.prescient.on_tick.calls", "count", "lower"),
    ("policies.prescient.on_tick.busy_s", "s", "lower"),
    ("policies.prescient.on_tick.p50_us", "us", "lower"),
    ("policies.prescient.on_tick.p99_us", "us", "lower"),
    ("policies.prescient.on_tick.useful_ratio", "ratio", "higher"),
    ("policies.prescient.membership.busy_s", "s", "lower"),
    ("policies.prescient.initial_s", "s", "lower"),
    ("policies.prescient.moves_ordered", "count", "lower"),
    ("policies.anu.on_tick.calls", "count", "lower"),
    ("policies.anu.on_tick.busy_s", "s", "lower"),
    ("policies.anu.on_tick.p50_us", "us", "lower"),
    ("policies.anu.on_tick.p99_us", "us", "lower"),
    ("policies.anu.on_tick.useful_ratio", "ratio", "higher"),
    ("policies.anu.membership.busy_s", "s", "lower"),
    ("policies.anu.initial_s", "s", "lower"),
    ("policies.anu.moves_ordered", "count", "lower"),
    ("policies.static.on_tick.calls", "count", "lower"),
    ("policies.static.on_tick.busy_s", "s", "lower"),
    ("policies.static.on_tick.p50_us", "us", "lower"),
    ("policies.static.on_tick.p99_us", "us", "lower"),
    ("policies.static.on_tick.useful_ratio", "ratio", "higher"),
    ("policies.static.membership.busy_s", "s", "lower"),
    ("policies.static.initial_s", "s", "lower"),
    ("policies.static.moves_ordered", "count", "lower"),
    // anu-core, from RunResult.epochs.
    ("core.tuner.epochs", "count", "lower"),
    ("core.tuner.scaled", "count", "lower"),
    ("core.tuner.clamped", "count", "lower"),
    ("core.tuner.floored", "count", "lower"),
    ("core.tuner.frozen_band", "count", "higher"),
    ("core.tuner.frozen_divergent", "count", "higher"),
    ("core.tuner.no_report", "count", "lower"),
    // anu-cluster, from the span profiler and RunResult.
    ("cluster.world.self_s", "s", "lower"),
    ("cluster.world.ns_per_event", "ns", "lower"),
    ("cluster.events.arrival", "count", "lower"),
    ("cluster.events.complete", "count", "lower"),
    ("cluster.events.tick", "count", "lower"),
    ("cluster.events.migration_done", "count", "lower"),
    ("cluster.events.fault", "count", "lower"),
    ("cluster.migrations", "count", "lower"),
    ("cluster.requests_requeued", "count", "lower"),
    ("cluster.requests_shed", "count", "lower"),
    ("cluster.scale_ups", "count", "lower"),
    ("cluster.scale_downs", "count", "lower"),
    ("cluster.audit_checks", "count", "lower"),
    ("cluster.max_queue_depth", "count", "lower"),
    // anu-des, from the registry and the calibration probes.
    ("des.calendar.scheduled", "count", "lower"),
    ("des.calendar.fired", "count", "lower"),
    ("des.calendar.cancelled", "count", "lower"),
    ("des.calendar.max_pending", "count", "lower"),
    ("des.calendar.mean_pending", "count", "lower"),
    ("des.calendar.ns_per_op", "ns", "lower"),
    ("des.station.ns_per_op", "ns", "lower"),
    ("des.est_s", "s", "lower"),
    // anu-metrics.
    ("metrics.update_busy_s", "s", "lower"),
    // anu-workload.
    ("workload.generate_s", "s", "lower"),
    ("workload.requests", "count", "higher"),
    // anu-trace.
    ("trace.records", "count", "lower"),
    ("trace.bytes", "bytes", "lower"),
    ("trace.sink_s", "s", "lower"),
    ("trace.ns_per_record", "ns", "lower"),
    ("trace.flush_s", "s", "lower"),
    // anu-inspect.
    ("inspect.parse_s", "s", "lower"),
    ("inspect.analyze_s", "s", "lower"),
    ("inspect.events_per_s", "1/s", "higher"),
    // anu-harness.
    ("harness.runner.jobs", "count", "higher"),
    ("harness.runner.busy_s", "s", "lower"),
    ("harness.runner.idle_s", "s", "lower"),
    ("harness.runner.efficiency", "ratio", "higher"),
    ("harness.checks.failed", "count", "lower"),
    // The benchmark's own accounting.
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.task_wall_s", "s", "lower"),
    ("bench.attributed_s", "s", "lower"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.closure_ratio", "ratio", "higher"),
    ("bench.prescient_tick_share", "ratio", "lower"),
    ("bench.anu_tick_share", "ratio", "lower"),
    ("bench.world_self_share", "ratio", "lower"),
    ("bench.policy_build_s", "s", "lower"),
    ("bench.decide_scope_self_s", "s", "lower"),
    // Simulated outcomes too seed-sensitive for an end-to-end bound.
    ("sim.anu_p99_ms", "ms", "lower"),
    ("sim.failed_share", "ratio", "lower"),
    ("sim.paper_checks_pass_share", "ratio", "higher"),
    ("sim.paper_checks", "count", "higher"),
];
