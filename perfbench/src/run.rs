//! One benchmark run: set up and simulate a workload's rounds, check every
//! output, and turn the timings into metrics.
//!
//! The timed pass (`--trace 0`) runs each round exactly as a user would: the
//! harness pool for paper-ensemble, one thread for the others, no
//! instrumentation. The traced pass (`--trace 1`) runs the same plain round
//! and then every task again under the policy decorator and span profiler,
//! so per-layer numbers come from the instrumented copy and the plain copy
//! gives the overhead and the equality check.

use crate::digest::digest;
use crate::instrument::{PolicyCounts, SharedLog, SpanLog, SpanProfiler, TimedPolicy};
use crate::layers::{MetricSpec, END_TO_END, PER_LAYER};
use crate::probes::{calendar_ns_per_op, station_ns_per_op};
use crate::workloads::{is_paper_anu, PolicyClass, Workload};
use anu::cluster::{run_traced, run_traced_profiled, RunResult};
use anu::harness::{
    checks_for, figure, plan, run_grid, write_figure_csvs_tagged, write_tuner_epochs_csv,
    Experiment, DEFAULT_SEED, FIGURE_NUMBERS, PLAIN_ANU_LABEL,
};
use anu::inspect::{analyze, parse_ring};
use anu::trace::{NullSink, RingSink, TraceLevel};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Base seed; round `r` simulates `task_seed(seed, r)`.
    pub seed: u64,
    /// Nominal run length; fixes the round count.
    pub seconds: u64,
    /// Per-layer (instrumented) run instead of the timed one.
    pub trace: bool,
    /// Worker threads available (at most 2 are used).
    pub nproc: usize,
    /// Directory for the span log and scratch files, inside the checkout.
    pub out_dir: PathBuf,
}

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The outcome of a run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Simulation tasks run, checks included.
    pub attempted: u64,
    /// Tasks whose outputs failed a check.
    pub failed: u64,
    /// Every failed check, named.
    pub failures: Vec<String>,
    /// The catalogue's metrics for this mode, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Report {
    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

fn ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Median of `v`; 0 for an empty slice.
fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quantile `q` of `v` by nearest rank; 0 for an empty slice.
fn quantile(v: &[u64], q: f64) -> u64 {
    let mut v = v.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Host costs of one task, split at the layer boundaries the benchmark
/// can see from outside.
#[derive(Clone, Copy, Debug, Default)]
pub struct TaskCost {
    /// Policy construction.
    pub build_ns: u64,
    /// The simulation call itself.
    pub sim_ns: u64,
    /// `RingSink::to_bytes`.
    pub flush_ns: u64,
    /// `anu_inspect::parse_ring`.
    pub parse_ns: u64,
    /// `anu_inspect::analyze`.
    pub analyze_ns: u64,
    /// Trace records written.
    pub records: u64,
    /// Trace bytes flushed.
    pub bytes: u64,
    /// Events read back.
    pub parsed_events: u64,
}

impl TaskCost {
    /// Wall time of the whole task.
    pub fn wall_ns(&self) -> u64 {
        self.build_ns + self.sim_ns + self.flush_ns + self.parse_ns + self.analyze_ns
    }
}

/// A finished task.
pub struct Ran {
    /// The simulated outputs, labelled with the policy.
    pub result: RunResult,
    /// Where its host time went.
    pub cost: TaskCost,
    /// The decorator's counts (zero for plain runs).
    pub counts: PolicyCounts,
    /// For traced runs: `Ok` with the inspector's integrity verdict, or the
    /// reason the ring did not read back.
    pub integrity: Option<Result<bool, String>>,
}

/// Run policy `pi` of `exp` on this thread. With `ring`, the run records a
/// request-level trace, flushes it and reads it back with `anu-inspect`.
/// With `log`, the policy is decorated, the world profiled, and every
/// layer boundary recorded as a span.
pub fn run_task(exp: &Experiment, pi: usize, ring: bool, log: Option<&SharedLog>) -> Ran {
    let (label, kind) = &exp.policies[pi];
    let open = |name| log.map(|l| l.borrow_mut().open(name));
    let close = |id: Option<usize>| {
        if let (Some(l), Some(id)) = (log, id) {
            l.borrow_mut().close(id);
        }
    };
    let mut cost = TaskCost::default();

    let t = Instant::now();
    let s = open("policy.build");
    let inner = kind.build(&exp.cluster, &exp.workload, exp.seed);
    close(s);
    cost.build_ns = ns(t);

    let mut sink = ring.then(|| RingSink::new(TraceLevel::Request));
    let t = Instant::now();
    let s = open("world.run");
    let (mut result, counts) = match log {
        Some(l) => {
            let mut policy = TimedPolicy::new(inner, Rc::clone(l));
            let mut profiler = SpanProfiler::new(Rc::clone(l));
            let r = match sink.as_mut() {
                Some(ring) => run_traced_profiled(
                    &exp.cluster,
                    &exp.workload,
                    &mut policy,
                    ring,
                    &mut profiler,
                ),
                None => run_traced_profiled(
                    &exp.cluster,
                    &exp.workload,
                    &mut policy,
                    &mut NullSink,
                    &mut profiler,
                ),
            };
            (r, policy.counts())
        }
        None => {
            let mut policy = inner;
            let r = match sink.as_mut() {
                Some(ring) => run_traced(&exp.cluster, &exp.workload, policy.as_mut(), ring),
                None => run_traced(&exp.cluster, &exp.workload, policy.as_mut(), &mut NullSink),
            };
            (r, PolicyCounts::default())
        }
    };
    close(s);
    cost.sim_ns = ns(t);
    result.policy = label.clone();

    let integrity = sink.map(|ring| {
        let t = Instant::now();
        let s = open("trace.flush");
        let bytes = ring.to_bytes();
        cost.records = ring.len() as u64;
        drop(ring);
        close(s);
        cost.flush_ns = ns(t);
        cost.bytes = bytes.len() as u64;

        let t = Instant::now();
        let s = open("inspect.parse");
        let events = parse_ring(&bytes);
        close(s);
        cost.parse_ns = ns(t);
        let events = events.ok_or_else(|| "the ring dump did not parse".to_string())?;
        cost.parsed_events = events.len() as u64;

        let t = Instant::now();
        let s = open("inspect.analyze");
        let clean = analyze(&events).integrity.clean();
        drop((events, bytes));
        close(s);
        cost.analyze_ns = ns(t);
        Ok(clean)
    });
    Ran {
        result,
        cost,
        counts,
        integrity,
    }
}

/// Per-class decorator totals.
#[derive(Clone, Debug, Default)]
struct ClassStats {
    tick_ns: Vec<u64>,
    useful_ticks: u64,
    membership_ns: u64,
    initial_ns: u64,
    moves: u64,
}

/// Everything the traced pass adds up, per layer.
#[derive(Clone, Debug, Default)]
struct Layers {
    class: BTreeMap<PolicyClass, ClassStats>,
    task_wall_ns: u64,
    plain_wall_ns: u64,
    build_ns: u64,
    world_run_self_ns: u64,
    decide_scope_self_ns: u64,
    metrics_ns: u64,
    sink_ns: i64,
    flush_ns: u64,
    parse_ns: u64,
    analyze_ns: u64,
    records: u64,
    bytes: u64,
    parsed_events: u64,
}

impl Layers {
    /// Fold the spans of one instrumented task, `spans[from..]`, in.
    fn add_spans(&mut self, log: &SpanLog, from: usize, class: PolicyClass, counts: PolicyCounts) {
        let self_ns = log.self_ns();
        let c = self.class.entry(class).or_default();
        c.useful_ticks += counts.useful_ticks;
        c.moves += counts.moves_ordered;
        for s in &log.spans()[from..] {
            match s.name {
                "policy.on_tick" => c.tick_ns.push(s.dur_ns()),
                "policy.membership" => c.membership_ns += s.dur_ns(),
                "policy.initial" => c.initial_ns += s.dur_ns(),
                "scope.metrics_update" => self.metrics_ns += s.dur_ns(),
                "scope.policy_decide" => self.decide_scope_self_ns += self_ns[s.id],
                "world.run" => self.world_run_self_ns += self_ns[s.id],
                "task" => self.task_wall_ns += s.dur_ns(),
                _ => {}
            }
        }
    }

    fn add_cost(&mut self, cost: &TaskCost) {
        self.build_ns += cost.build_ns;
        self.flush_ns += cost.flush_ns;
        self.parse_ns += cost.parse_ns;
        self.analyze_ns += cost.analyze_ns;
        self.records += cost.records;
        self.bytes += cost.bytes;
        self.parsed_events += cost.parsed_events;
    }

    fn policy_busy_ns(&self) -> u64 {
        self.class
            .values()
            .map(|c| c.tick_ns.iter().sum::<u64>() + c.membership_ns + c.initial_ns)
            .sum()
    }
}

/// Simulated counts summed over every plain task.
#[derive(Clone, Debug, Default)]
struct SimTotals {
    events: u64,
    offered: u64,
    completed: u64,
    ev_mix: [u64; 5],
    migrations: u64,
    requeued: u64,
    shed: u64,
    scale_ups: u64,
    scale_downs: u64,
    audit_checks: u64,
    max_queue_depth: u64,
    cal: [u64; 3],
    cal_max_pending: u64,
    pending_weighted: f64,
    tuner_epochs: u64,
    outcomes: BTreeMap<&'static str, u64>,
    anu_late_ms: Vec<f64>,
    anu_p99_ms: Vec<f64>,
    checks: u64,
    checks_passed: u64,
}

const EV_MIX: [&str; 5] = [
    "world.events.arrival",
    "world.events.complete",
    "world.events.tick",
    "world.events.migration_done",
    "world.events.fault",
];

const OUTCOMES: [&str; 6] = [
    "scaled",
    "clamped",
    "floored",
    "frozen_band",
    "frozen_divergent",
    "no_report",
];

impl SimTotals {
    fn add(&mut self, r: &RunResult, paper_anu: bool) {
        let s = &r.summary;
        let reg = &r.metrics;
        let get = |name: &str| reg.find(name).map_or(0, |id| reg.value(id));
        self.events += s.sim_events;
        self.offered += s.offered_requests;
        self.completed += s.completed_requests;
        for (slot, name) in self.ev_mix.iter_mut().zip(EV_MIX) {
            *slot += get(name);
        }
        self.migrations += s.migrations;
        self.requeued += s.requests_requeued;
        self.shed += s.requests_shed;
        self.scale_ups += s.scale_ups;
        self.scale_downs += s.scale_downs;
        self.audit_checks += s.audit_checks;
        self.max_queue_depth = self.max_queue_depth.max(s.max_queue_depth);
        for (slot, name) in self.cal.iter_mut().zip([
            "des.calendar.scheduled",
            "des.calendar.fired",
            "des.calendar.cancelled",
        ]) {
            *slot += get(name);
        }
        self.cal_max_pending = self.cal_max_pending.max(get("des.calendar.max_pending"));
        // Mean pending size over the run's epoch snapshots, weighted by the
        // run's events so the probe sees the queue most events met.
        if let Some(id) = reg.find("des.calendar.pending") {
            let samples: Vec<u64> = reg
                .snapshots()
                .iter()
                .filter_map(|snap| snap.scalars.iter().find(|(m, _)| *m == id).map(|&(_, v)| v))
                .collect();
            if !samples.is_empty() {
                let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
                self.pending_weighted += mean * s.sim_events as f64;
            }
        }
        for e in &r.epochs {
            if let Some(t) = &e.tune {
                self.tuner_epochs += 1;
                for d in &t.decisions {
                    *self.outcomes.entry(d.outcome.name()).or_default() += 1;
                }
            }
        }
        if paper_anu {
            self.anu_late_ms.push(s.late_mean_latency_ms);
            self.anu_p99_ms.push(s.p99_latency_ms);
        }
    }
}

/// Conservation and audit checks every run must pass.
fn check_run(r: &RunResult, what: &str, failures: &mut Vec<String>) -> bool {
    let s = &r.summary;
    let mut ok = true;
    if s.completed_requests + s.requests_shed != s.offered_requests {
        failures.push(format!(
            "{what}: completed {} + shed {} != offered {}",
            s.completed_requests, s.requests_shed, s.offered_requests
        ));
        ok = false;
    }
    if s.audit_violations != 0 {
        failures.push(format!("{what}: {} audit violations", s.audit_violations));
        ok = false;
    }
    ok
}

/// A traced run's ring must read back with clean `anu-inspect` integrity.
fn check_ring(
    integrity: &Option<Result<bool, String>>,
    what: &str,
    failures: &mut Vec<String>,
) -> bool {
    match integrity {
        None | Some(Ok(true)) => true,
        Some(Ok(false)) => {
            failures.push(format!("{what}: anu-inspect integrity is not clean"));
            false
        }
        Some(Err(e)) => {
            failures.push(format!("{what}: {e}"));
            false
        }
    }
}

/// Figure shape checks over one paper-ensemble round: `(passed, total)`.
fn shape_checks(exps: &[Experiment], results: &[Vec<RunResult>]) -> (u64, u64) {
    let plain = FIGURE_NUMBERS
        .iter()
        .position(|&n| n == 10)
        .and_then(|i| results[i].iter().find(|r| r.policy == PLAIN_ANU_LABEL));
    let mut passed = 0;
    let mut total = 0;
    for ((&n, exp), res) in FIGURE_NUMBERS.iter().zip(exps).zip(results) {
        let tick_buckets = (exp.cluster.tick.0 / exp.cluster.series_bucket.0).max(1) as usize;
        for c in checks_for(n, res, plain, tick_buckets) {
            total += 1;
            passed += u64::from(c.pass);
        }
    }
    (passed, total)
}

/// FNV-1a fingerprints and lengths of the committed `out/fig6_*.csv` files
/// at `DEFAULT_SEED`, as `tests/golden_outputs.rs` pins them.
const FIG6_GOLDEN: [(&str, u64, usize); 5] = [
    ("fig6_simple_randomization.csv", 0x2e40_91f3_4f8a_d3c4, 5021),
    ("fig6_round_robin.csv", 0xde35_f075_488a_7a1b, 5203),
    ("fig6_dynamic_prescient.csv", 0x4b03_a3a2_2635_43d5, 4952),
    ("fig6_anu_randomization.csv", 0xc47a_1cc6_9365_9a0f, 4720),
    ("fig6_tuner_epochs.csv", 0x10cd_7449_a085_56e6, 14030),
];

/// Regenerate figure 6 at `DEFAULT_SEED` and compare it with the committed
/// CSVs: with the files when the checkout has them, and with their pinned
/// fingerprints always.
fn check_fig6_golden(jobs: usize, dir: &Path, failures: &mut Vec<String>) -> u64 {
    let exp = figure(6, DEFAULT_SEED).expect("figure 6 exists");
    let results = exp.run_with_jobs(jobs);
    let n = results.len() as u64;
    let dir = dir.join("golden-fig6");
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut paths = write_figure_csvs_tagged("fig6", None, &results, &dir)?;
        paths.push(write_tuner_epochs_csv("fig6", None, &results, &dir)?);
        Ok(paths)
    });
    let paths = match written {
        Ok(p) => p,
        Err(e) => {
            failures.push(format!("fig6 golden: could not write CSVs: {e}"));
            return n;
        }
    };
    for (name, hash, len) in FIG6_GOLDEN {
        let Some(bytes) = paths
            .iter()
            .find(|p| p.file_name().is_some_and(|f| f == name))
            .and_then(|p| std::fs::read(p).ok())
        else {
            failures.push(format!("fig6 golden: {name} was not produced"));
            continue;
        };
        if (crate::digest::fnv1a(&bytes), bytes.len()) != (hash, len) {
            failures.push(format!(
                "fig6 golden: {name} differs from its pinned fingerprint"
            ));
        }
        if let Ok(committed) = std::fs::read(Path::new("out").join(name)) {
            if committed != bytes {
                failures.push(format!(
                    "fig6 golden: {name} differs from the committed out/{name}"
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    n
}

/// A finished plain task from the timed pass.
struct PlainTask {
    experiment: usize,
    policy: usize,
    result: RunResult,
    wall_ns: u64,
    integrity: Option<Result<bool, String>>,
}

/// Run a workload and return its report.
pub fn run(opts: &Options) -> Report {
    let w = opts.workload;
    let jobs = w.jobs(opts.nproc);
    let ring = w == Workload::ChurnTraced;
    let rounds = w.rounds(opts.seconds);
    let mut rep = Report::default();
    let mut sim = SimTotals::default();
    let mut layers = Layers::default();
    let mut setup_s = Vec::new();
    let (mut gen_ns, mut requests) = (0u64, 0u64);
    let (mut runner_busy_ns, mut runner_wall_ns) = (0u64, 0u64);
    let log: SharedLog = Rc::new(RefCell::new(SpanLog::new()));
    let root = opts.trace.then(|| log.borrow_mut().open("workload"));

    for r in 0..rounds {
        // Set-up: workload generation, grid planning, policy construction.
        let t = Instant::now();
        let exps = w.round(opts.seed, r);
        gen_ns += ns(t);
        let tasks = plan(&exps);
        for task in &tasks {
            let exp = &exps[task.experiment];
            drop(
                exp.policies[task.policy]
                    .1
                    .build(&exp.cluster, &exp.workload, exp.seed),
            );
        }
        setup_s.push(secs(ns(t)));
        requests += exps
            .iter()
            .map(|e| e.workload.requests.len() as u64)
            .sum::<u64>();

        // The timed round: exactly what a user runs.
        let t = Instant::now();
        let plain: Vec<PlainTask> = match w {
            Workload::PaperEnsemble | Workload::ScaleHotpath => run_grid(&exps, jobs)
                .into_iter()
                .map(|o| PlainTask {
                    experiment: o.task.experiment,
                    policy: o.task.policy,
                    wall_ns: (o.wall_secs * 1e9) as u64,
                    result: o.result,
                    integrity: None,
                })
                .collect(),
            Workload::ChurnTraced => tasks
                .iter()
                .map(|task| {
                    let ran = run_task(&exps[task.experiment], task.policy, true, None);
                    PlainTask {
                        experiment: task.experiment,
                        policy: task.policy,
                        wall_ns: ran.cost.wall_ns(),
                        result: ran.result,
                        integrity: ran.integrity,
                    }
                })
                .collect(),
        };
        let round_ns = ns(t);
        rep.attempted += plain.len() as u64;

        runner_busy_ns += plain.iter().map(|p| p.wall_ns).sum::<u64>();
        runner_wall_ns += round_ns;

        let mut bad = BTreeSet::new();
        for (i, p) in plain.iter().enumerate() {
            let exp = &exps[p.experiment];
            let what = format!("{} {} seed {}", exp.name, p.result.policy, exp.seed);
            let run_ok = check_run(&p.result, &what, &mut rep.failures);
            if !(check_ring(&p.integrity, &what, &mut rep.failures) && run_ok) {
                bad.insert(i);
            }
            sim.add(&p.result, is_paper_anu(&exp.policies[p.policy].1));
        }
        if w == Workload::PaperEnsemble {
            let mut grouped: Vec<Vec<RunResult>> = vec![Vec::new(); exps.len()];
            for p in &plain {
                grouped[p.experiment].push(p.result.clone());
            }
            let (passed, total) = shape_checks(&exps, &grouped);
            sim.checks += total;
            sim.checks_passed += passed;
        }

        // Repetition check: the first task of every policy label in round
        // 0 runs again on this thread, untraced, and must reproduce the
        // plain result exactly — across repetitions, worker counts, and
        // (on churn-traced) traced versus untraced runs.
        if r == 0 {
            let mut seen = BTreeSet::new();
            for (i, p) in plain.iter().enumerate() {
                let exp = &exps[p.experiment];
                if !seen.insert(exp.policies[p.policy].0.clone()) {
                    continue;
                }
                let again = run_task(exp, p.policy, false, None);
                rep.attempted += 1;
                if digest(&again.result) != digest(&p.result) {
                    rep.failures.push(format!(
                        "{} {} seed {}: a repeated untraced run on one thread differs from the timed run",
                        exp.name, p.result.policy, exp.seed
                    ));
                    bad.insert(i);
                }
            }
        }

        if opts.trace {
            for (i, p) in plain.iter().enumerate() {
                let exp = &exps[p.experiment];
                let class = PolicyClass::of(&exp.policies[p.policy].1);
                let from = log.borrow().spans().len();
                let task = log.borrow_mut().open("task");
                let ran = run_task(exp, p.policy, ring, Some(&log));
                log.borrow_mut().close(task);
                layers.add_spans(&log.borrow(), from, class, ran.counts);
                layers.add_cost(&ran.cost);
                layers.plain_wall_ns += p.wall_ns;
                rep.attempted += 1;
                let what = format!("{} {} seed {}", exp.name, p.result.policy, exp.seed);
                if digest(&ran.result) != digest(&p.result) {
                    rep.failures.push(format!(
                        "{what}: the instrumented run differs from the plain run"
                    ));
                    bad.insert(i);
                }
                if !check_ring(&ran.integrity, &what, &mut rep.failures) {
                    bad.insert(i);
                }
                if ring {
                    // Pair the traced run with an untraced one on identical
                    // inputs: the difference is the sink's cost.
                    let untraced = run_task(exp, p.policy, false, Some(&log));
                    rep.attempted += 1;
                    layers.sink_ns += ran.cost.sim_ns as i64 - untraced.cost.sim_ns as i64;
                    if digest(&untraced.result) != digest(&p.result) {
                        rep.failures.push(format!(
                            "{what}: the untraced run differs from the traced run"
                        ));
                        bad.insert(i);
                    }
                }
            }
        }
        rep.failed += bad.len() as u64;
    }

    if w == Workload::PaperEnsemble {
        let before = rep.failures.len();
        rep.attempted += check_fig6_golden(jobs, &opts.out_dir, &mut rep.failures);
        rep.failed += u64::from(rep.failures.len() > before);
    }

    if let Some(id) = root {
        log.borrow_mut().close(id);
    }

    let rss = peak_rss_mb();
    let served = sim.completed as f64 / sim.offered.max(1) as f64;
    rep.notes.push(format!(
        "{}: seed {} rounds {} jobs {} tasks {} events {} served {:.4} paper checks {}/{}",
        w.name(),
        opts.seed,
        rounds,
        jobs,
        rep.attempted,
        sim.events,
        served,
        sim.checks_passed,
        sim.checks
    ));

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    if !opts.trace {
        put(
            "events_per_s",
            ratio(sim.events as f64, secs(runner_busy_ns)),
        );
        put("wall_s", secs(runner_wall_ns));
        put("setup_s", median(&setup_s));
        put("peak_rss_mb", rss);
        put("anu_late_mean_ms", median(&sim.anu_late_ms));
        put("served_share", served);
        rep.metrics = catalogue_values(&END_TO_END, &values);
        return rep;
    }

    // Per-layer numbers from the instrumented pass.
    let mean_pending = ratio(sim.pending_weighted, sim.events as f64);
    let probe_cal = calendar_ns_per_op(mean_pending.round() as u64);
    let probe_station = station_ns_per_op(sim.max_queue_depth);
    let des_est_s = 1e-9
        * (sim.cal.iter().sum::<u64>() as f64 * probe_cal
            + (sim.ev_mix[0] + sim.ev_mix[1]) as f64 * probe_station);
    let task_wall_s = secs(layers.task_wall_ns);
    let sink_s = (layers.sink_ns as f64 * 1e-9).max(0.0);
    let world_self_s = secs(layers.world_run_self_ns) - sink_s;
    let attributed_s = secs(layers.policy_busy_ns())
        + secs(layers.metrics_ns)
        + secs(layers.decide_scope_self_ns)
        + secs(layers.build_ns)
        + sink_s
        + secs(layers.flush_ns + layers.parse_ns + layers.analyze_ns)
        + des_est_s;
    let class_tick_s =
        |c: PolicyClass| secs(layers.class.get(&c).map_or(0, |s| s.tick_ns.iter().sum()));
    let share = |s: f64| ratio(s, task_wall_s);

    for class in PolicyClass::ALL {
        let c = layers.class.get(&class).cloned().unwrap_or_default();
        let k = class.name();
        let calls = c.tick_ns.len() as f64;
        put(&format!("policies.{k}.on_tick.calls"), calls);
        put(&format!("policies.{k}.on_tick.busy_s"), class_tick_s(class));
        put(
            &format!("policies.{k}.on_tick.p50_us"),
            quantile(&c.tick_ns, 0.5) as f64 / 1e3,
        );
        put(
            &format!("policies.{k}.on_tick.p99_us"),
            quantile(&c.tick_ns, 0.99) as f64 / 1e3,
        );
        put(
            &format!("policies.{k}.on_tick.useful_ratio"),
            ratio(c.useful_ticks as f64, calls),
        );
        put(
            &format!("policies.{k}.membership.busy_s"),
            secs(c.membership_ns),
        );
        put(&format!("policies.{k}.initial_s"), secs(c.initial_ns));
        put(&format!("policies.{k}.moves_ordered"), c.moves as f64);
    }
    put("core.tuner.epochs", sim.tuner_epochs as f64);
    for o in OUTCOMES {
        put(
            &format!("core.tuner.{o}"),
            sim.outcomes.get(o).copied().unwrap_or(0) as f64,
        );
    }
    put("cluster.world.self_s", world_self_s);
    put(
        "cluster.world.ns_per_event",
        ratio(world_self_s * 1e9, sim.events as f64),
    );
    for (name, v) in EV_MIX.iter().zip(sim.ev_mix) {
        put(&name.replace("world.", "cluster."), v as f64);
    }
    put("cluster.migrations", sim.migrations as f64);
    put("cluster.requests_requeued", sim.requeued as f64);
    put("cluster.requests_shed", sim.shed as f64);
    put("cluster.scale_ups", sim.scale_ups as f64);
    put("cluster.scale_downs", sim.scale_downs as f64);
    put("cluster.audit_checks", sim.audit_checks as f64);
    put("cluster.max_queue_depth", sim.max_queue_depth as f64);
    put("des.calendar.scheduled", sim.cal[0] as f64);
    put("des.calendar.fired", sim.cal[1] as f64);
    put("des.calendar.cancelled", sim.cal[2] as f64);
    put("des.calendar.max_pending", sim.cal_max_pending as f64);
    put("des.calendar.mean_pending", mean_pending);
    put("des.calendar.ns_per_op", probe_cal);
    put("des.station.ns_per_op", probe_station);
    put("des.est_s", des_est_s);
    put("metrics.update_busy_s", secs(layers.metrics_ns));
    put("workload.generate_s", secs(gen_ns));
    put("workload.requests", requests as f64);
    put("trace.records", layers.records as f64);
    put("trace.bytes", layers.bytes as f64);
    put("trace.sink_s", sink_s);
    put(
        "trace.ns_per_record",
        ratio(sink_s * 1e9, layers.records as f64),
    );
    put("trace.flush_s", secs(layers.flush_ns));
    put("inspect.parse_s", secs(layers.parse_ns));
    put("inspect.analyze_s", secs(layers.analyze_ns));
    put(
        "inspect.events_per_s",
        ratio(
            layers.parsed_events as f64,
            secs(layers.parse_ns + layers.analyze_ns),
        ),
    );
    let capacity_s = jobs as f64 * secs(runner_wall_ns);
    put("harness.runner.jobs", jobs as f64);
    put("harness.runner.busy_s", secs(runner_busy_ns));
    put(
        "harness.runner.idle_s",
        (capacity_s - secs(runner_busy_ns)).max(0.0),
    );
    put(
        "harness.runner.efficiency",
        ratio(secs(runner_busy_ns), capacity_s),
    );
    put(
        "harness.checks.failed",
        (sim.checks - sim.checks_passed) as f64,
    );
    put(
        "bench.trace_overhead_pct",
        100.0
            * ratio(
                layers.task_wall_ns as f64 - layers.plain_wall_ns as f64,
                layers.plain_wall_ns as f64,
            ),
    );
    put("bench.task_wall_s", task_wall_s);
    put("bench.attributed_s", attributed_s);
    put("bench.unattributed_s", task_wall_s - attributed_s);
    put("bench.closure_ratio", share(attributed_s));
    put(
        "bench.prescient_tick_share",
        share(class_tick_s(PolicyClass::Prescient)),
    );
    put(
        "bench.anu_tick_share",
        share(class_tick_s(PolicyClass::Anu)),
    );
    put("bench.world_self_share", share(world_self_s));
    put("bench.policy_build_s", secs(layers.build_ns));
    put(
        "bench.decide_scope_self_s",
        secs(layers.decide_scope_self_ns),
    );
    put(
        "sim.anu_p99_ms",
        ratio(sim.anu_p99_ms.iter().sum(), sim.anu_p99_ms.len() as f64),
    );
    put("sim.failed_share", 1.0 - served);
    put(
        "sim.paper_checks_pass_share",
        ratio(sim.checks_passed as f64, sim.checks as f64),
    );
    put("sim.paper_checks", sim.checks as f64);

    rep.notes.push(format!(
        "closure: task wall {task_wall_s:.3} s, attributed {attributed_s:.3} s ({:.1}%), \
         unattributed {:.3} s; prescient on_tick {:.1}% of task wall, anu on_tick {:.1}%, \
         world self {:.1}%",
        100.0 * share(attributed_s),
        task_wall_s - attributed_s,
        100.0 * share(class_tick_s(PolicyClass::Prescient)),
        100.0 * share(class_tick_s(PolicyClass::Anu)),
        100.0 * share(world_self_s),
    ));
    let spans_path = opts
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", w.name(), opts.seed));
    match std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&spans_path, log.borrow().to_jsonl()))
    {
        Ok(()) => rep.notes.push(format!("spans: {}", spans_path.display())),
        Err(e) => rep.notes.push(format!(
            "spans not written to {}: {e}",
            spans_path.display()
        )),
    }
    rep.metrics = catalogue_values(&PER_LAYER, &values);
    rep
}

/// `num / den`, or 0 when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The catalogue's metrics in catalogue order. Every name must have been
/// computed; a missing one is a bug in this file.
fn catalogue_values(specs: &[MetricSpec], values: &BTreeMap<String, f64>) -> Vec<Metric> {
    specs
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            unit,
            value: *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not computed")),
        })
        .collect()
}

/// Peak resident set of this process, in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
