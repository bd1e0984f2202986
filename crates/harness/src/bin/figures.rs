//! Regenerate every evaluation figure of the paper on the parallel sweep
//! engine.
//!
//! ```text
//! figures [--fig N] [--seed S] [--seeds K] [--jobs J] [--out DIR]
//!         [--bench-out FILE] [--trace-out DIR] [--trace-level LVL]
//!         [--series] [--plot] [--chaos] [--storm] [--meanfield] [--ablations]
//!         [--scale N] [--scale-bench N] [--bench-reps R] [--bench-gate]
//! ```
//!
//! The full {figure × policy × seed} grid is enumerated as independent
//! tasks and drained by `J` workers (default: one per core). Results,
//! CSVs and PASS/FAIL verdicts are byte-identical at any `--jobs` value,
//! including `--jobs 1` — parallelism only changes wall time.
//!
//! For each figure: writes per-policy CSV series to `--out` (default
//! `out/`), prints the cross-policy summary table and the qualitative
//! shape-check verdicts. `--seeds K` widens the grid to `K` seeds (the
//! base seed plus `K-1` derived via the SplitMix64 task-seed path; derived
//! seeds' CSVs are tagged `_s<seed>`). `--series` additionally prints the
//! full minute-by-minute latency table. A machine-readable perf manifest
//! (wall time, per-task simulated events/sec, verdicts) is written to
//! `--bench-out` (default `BENCH_figures.json`).
//!
//! Side sections run grids of their own at the base seed and scale 1,
//! whatever `--seeds` and `--scale` say. Each adds a manifest section, and
//! its checks gate the exit code like the figure shape checks:
//!
//! * `--chaos` — the four-policy lineup under escalating fault scripts
//!   (`anu_harness::chaos`): `chaos_*.csv` series and `chaos_summary.csv`;
//! * `--storm` — ANU on the standby-extended cluster under storm workloads
//!   and membership churn (`anu_harness::storm`): `storm_*.csv` series and
//!   `storm_summary.csv`;
//! * `--meanfield` — simulated per-server means against the analytic
//!   oracle (`anu_harness::meanfield`): `meanfield_cells.csv` and
//!   `meanfield_convergence.csv`;
//! * `--ablations` — the ablation studies beyond the figures
//!   (`anu_harness::ablation`): `ablations_summary.csv`.
//!
//! The meanfield and ablation grids run untraced and write only their
//! summaries.
//!
//! Scale mode: `--scale N` multiplies every figure's file-set and request
//! counts by `N` at constant offered load — a hot-path stress run over an
//! `N`× larger id universe. Scaled workloads are non-canonical, so CSV
//! emission and shape checks are skipped (completing the grid *is* the
//! check). `--scale-bench N` additionally runs the trace-off fig6 grid at
//! scale 1 (best of `--bench-reps`, default 3) and once at scale `N` on
//! one worker, records the throughputs plus the baseline into the
//! manifest's `bench` section (schema v9), and prints the `PERF-GATE
//! OK|WARN` verdict. By default the verdict is informational; with
//! `--bench-gate` a WARN turns into exit code 3 so callers get a real
//! exit-code contract instead of grepping log lines (0 = pass, 1 = shape
//! checks failed, 2 = usage error, 3 = perf gate warned). A malformed
//! flag value is a usage error too, reported before any run. The baseline
//! can be overridden via the `ANU_PERF_BASELINE` environment variable.
//!
//! Tracing: every figure additionally writes its per-epoch tuner telemetry
//! to `<figure>_tuner_epochs.csv` and its metrics registry (counters,
//! gauges, histogram quantiles, per-epoch snapshots) to
//! `<figure>_metrics.csv` in `--out`. `--trace-out DIR` records a
//! structured trace of every task at `--trace-level` (`epoch` by default;
//! `request` adds per-request events) — one JSONL file plus one binary
//! `.ring` dump per task (the format `anu-inspect` reads) — and
//! calibrates the tracing overhead into the manifest. Traces, CSVs and
//! the manifest's deterministic sections are byte-identical at any
//! `--jobs` value.

mod cli;

use anu_cluster::RunResult;
use anu_harness::runner::{self, Section, TaskOutcome, SECTIONS};
use anu_harness::{
    ablation_section, chaos_section, checks_for, checks_table, figure, figure_scaled, file_stem,
    meanfield_section, measure_trace_overhead, reduced, run_scale_bench, series_table, sparklines,
    storm_section, summary_table, write_figure_csvs_tagged, write_metrics_csv,
    write_tuner_epochs_csv, Experiment, FigureVerdict, DEFAULT_SEED, FIGURE_NUMBERS,
    PLAIN_ANU_LABEL,
};
use anu_trace::TraceLevel;
use cli::{flag_value, usage_error};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The side sections, in [`SECTIONS`] order; `--<name>` runs each.
const SIDE: [fn(u64) -> Section; 4] = [
    chaos_section,
    storm_section,
    meanfield_section,
    ablation_section,
];

struct Args {
    fig: Option<u32>,
    seed: u64,
    seeds: u64,
    jobs: usize,
    out: PathBuf,
    bench_out: PathBuf,
    trace_out: Option<PathBuf>,
    trace_level: TraceLevel,
    series: bool,
    plot: bool,
    /// Which of [`SIDE`] run.
    side: [bool; 4],
    scale: u64,
    scale_bench: u64,
    bench_reps: usize,
    bench_gate: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        fig: None,
        seed: DEFAULT_SEED,
        seeds: 1,
        jobs: 0,
        out: PathBuf::from("out"),
        bench_out: PathBuf::from("BENCH_figures.json"),
        trace_out: None,
        trace_level: TraceLevel::Epoch,
        series: false,
        plot: false,
        side: [false; 4],
        scale: 1,
        scale_bench: 0,
        bench_reps: 3,
        bench_gate: false,
    };
    // Counts that must be at least one: zero is as malformed as "x".
    let positive = |v: Option<String>, need: &str| match flag_value(v, need) {
        0 => usage_error(need),
        n => n,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if let Some(i) = SECTIONS
            .iter()
            .position(|s| a.strip_prefix("--") == Some(*s))
        {
            args.side[i] = true;
            continue;
        }
        match a.as_str() {
            "--fig" => args.fig = Some(flag_value(it.next(), "--fig needs a figure number 6..=11")),
            "--seed" => args.seed = flag_value(it.next(), "--seed needs an integer"),
            "--seeds" => args.seeds = positive(it.next(), "--seeds needs a count >= 1"),
            "--jobs" => {
                args.jobs = flag_value(it.next(), "--jobs needs a worker count (0 = one per core)")
            }
            "--out" => args.out = flag_value(it.next(), "--out needs a path"),
            "--bench-out" => args.bench_out = flag_value(it.next(), "--bench-out needs a path"),
            "--trace-out" => {
                args.trace_out = Some(flag_value(it.next(), "--trace-out needs a path"))
            }
            "--trace-level" => {
                args.trace_level = it
                    .next()
                    .as_deref()
                    .and_then(TraceLevel::parse)
                    .unwrap_or_else(|| usage_error("--trace-level needs off|epoch|request"))
            }
            "--series" => args.series = true,
            "--plot" => args.plot = true,
            "--scale" => args.scale = positive(it.next(), "--scale needs a factor >= 1"),
            "--scale-bench" => {
                args.scale_bench =
                    flag_value(it.next(), "--scale-bench needs a factor (0 = disabled)")
            }
            "--bench-reps" => {
                args.bench_reps = positive(it.next(), "--bench-reps needs a count >= 1") as usize
            }
            "--bench-gate" => args.bench_gate = true,
            "--help" | "-h" => {
                println!(
                    "usage: figures [--fig N] [--seed S] [--seeds K] [--jobs J] [--out DIR] [--bench-out FILE] [--trace-out DIR] [--trace-level off|epoch|request] [--series] [--plot] [--chaos] [--storm] [--meanfield] [--ablations] [--scale N] [--scale-bench N] [--bench-reps R] [--bench-gate]"
                );
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    if args.bench_gate && args.scale_bench == 0 {
        usage_error("--bench-gate requires --scale-bench N (there is no probe to gate on)");
    }
    args
}

/// One grid entry: an experiment plus what to do with its results.
struct Entry {
    figure: u32,
    seed: u64,
    /// CSV tag for derived seeds (None keeps the canonical names).
    tag: Option<String>,
    /// Print and write this entry (support runs are checks-only inputs).
    emit: bool,
}

/// Enumerate the figure/seed grid. When figure 11 is checked without
/// figure 10, a checks-only "support" run of the fig10 no-heuristics
/// policy is appended per seed, so the decomposition baseline comes from
/// the same pooled sweep instead of a separate serial run. Scaled grids
/// skip the checks, so they skip the support run too.
fn build_grid(figures: &[u32], seeds: &[u64], scale: u64) -> (Vec<Experiment>, Vec<Entry>) {
    let mut exps = Vec::new();
    let mut entries = Vec::new();
    let needs_support = scale == 1 && figures.contains(&11) && !figures.contains(&10);
    for (si, &seed) in seeds.iter().enumerate() {
        let tag = (si > 0).then(|| format!("s{seed}"));
        for &n in figures {
            let exp = figure_scaled(n, seed, scale).unwrap_or_else(|| {
                usage_error(&format!("no figure {n}; the evaluation figures are 6..=11"))
            });
            exps.push(exp);
            entries.push(Entry {
                figure: n,
                seed,
                tag: tag.clone(),
                emit: true,
            });
        }
        if needs_support {
            let mut plain = figure(10, seed).expect("figure 10 exists");
            plain
                .policies
                .retain(|(l, _)| l.as_str() == PLAIN_ANU_LABEL);
            plain.name = "fig10-plain".into();
            exps.push(plain);
            entries.push(Entry {
                figure: 10,
                seed,
                tag: tag.clone(),
                emit: false,
            });
        }
    }
    (exps, entries)
}

/// Write every outcome's trace into `dir` as `<stem>.jsonl` plus the
/// binary `<stem>.ring` dump `anu-inspect` reads, with the stems the CSVs
/// use (`tag` maps an experiment index to its derived-seed tag).
fn dump_traces<'a>(dir: &Path, outcomes: &[TaskOutcome], tag: impl Fn(usize) -> Option<&'a str>) {
    std::fs::create_dir_all(dir).expect("create trace dir");
    for o in outcomes {
        let stem = file_stem(&o.task.name, tag(o.task.experiment), &o.task.label);
        let body: String = o.trace_lines.iter().flat_map(|l| [l, "\n"]).collect();
        std::fs::write(dir.join(format!("{stem}.jsonl")), body).expect("write trace");
        std::fs::write(dir.join(format!("{stem}.ring")), &o.trace_ring).expect("write ring trace");
    }
    println!(
        "wrote {} JSONL+ring traces to {}",
        outcomes.len(),
        dir.display()
    );
}

/// Print one experiment's header and summary table (and the `--series` /
/// `--plot` renderings), then, when `csvs`, write its series, tuner-epoch
/// and metrics CSVs to `--out`. Returns the seconds spent writing.
fn emit(
    args: &Args,
    exp: &Experiment,
    tag: Option<&str>,
    results: &[RunResult],
    csvs: bool,
) -> f64 {
    let stats = exp.workload.stats();
    println!(
        "\n=== {} (seed {}) — {} requests, {} file sets, {:.0} s, {} fault events, {} policies ===",
        exp.name,
        exp.seed,
        stats.total_requests,
        exp.workload.n_file_sets,
        stats.duration_secs,
        exp.cluster.faults.len(),
        exp.policies.len()
    );
    println!("{}", summary_table(results));
    for r in results {
        if args.series {
            println!("{}", series_table(r));
        }
        if args.plot {
            println!("{}", sparklines(r));
        }
    }
    if !csvs {
        return 0.0;
    }
    let t0 = Instant::now();
    write_figure_csvs_tagged(&exp.name, tag, results, &args.out).expect("write series CSVs");
    write_tuner_epochs_csv(&exp.name, tag, results, &args.out).expect("write tuner-epoch CSV");
    write_metrics_csv(&exp.name, tag, results, &args.out).expect("write metrics CSV");
    t0.elapsed().as_secs_f64()
}

/// Run one side section: its grid (traced, with per-run traces and CSVs,
/// only when the section asks for them), every experiment's printout, then
/// the section's checks, summary CSVs and manifest fragment. Returns the
/// fragment and whether every check passed.
fn run_section(
    args: &Args,
    jobs: usize,
    trace_level: TraceLevel,
    section: Section,
    csv_render_secs: &mut f64,
) -> (anu_core::Json, bool) {
    let exps = section.experiments;
    println!("\n{} section: {} experiments", section.name, exps.len());
    let traced = section.per_run_outputs;
    let level = if traced { trace_level } else { TraceLevel::Off };
    let outcomes = runner::run_grid_traced(&exps, jobs, level);
    if let Some(dir) = args.trace_out.as_deref().filter(|_| traced) {
        dump_traces(dir, &outcomes, |_| None);
    }
    let grouped = runner::group_results(outcomes, exps.len());
    for (exp, results) in exps.iter().zip(&grouped) {
        *csv_render_secs += emit(args, exp, None, results, traced);
    }
    let report = (section.finish)(&exps, &grouped, &args.out).expect("write section summary");
    print!("{}", checks_table(&report.checks));
    println!(
        "  wrote {} summaries to {}",
        section.name,
        args.out.display()
    );
    (report.manifest, report.checks.iter().all(|c| c.pass))
}

fn main() {
    let args = parse_args();
    let figures: Vec<u32> = match args.fig {
        Some(n) => vec![n],
        None => FIGURE_NUMBERS.to_vec(),
    };
    let seeds: Vec<u64> = (0..args.seeds)
        .map(|i| anu_des::task_seed(args.seed, i))
        .collect();

    let (exps, entries) = build_grid(&figures, &seeds, args.scale);
    let jobs = runner::effective_jobs(args.jobs);
    if args.scale > 1 {
        println!(
            "scale mode: {}x file sets and requests per figure; CSVs and shape checks are skipped (non-canonical workloads)",
            args.scale
        );
    }
    // Trace recording is opt-in: without a destination the sweep runs at
    // the zero-cost Off level regardless of the requested verbosity.
    let trace_level = args
        .trace_out
        .as_ref()
        .map_or(TraceLevel::Off, |_| args.trace_level);
    println!(
        "sweep grid: {} figures x {} seeds -> {} tasks on {} workers (trace: {})",
        figures.len(),
        seeds.len(),
        runner::plan(&exps).len(),
        jobs,
        trace_level.name()
    );

    let t0 = Instant::now();
    let outcomes = runner::run_grid_traced(&exps, jobs, trace_level);
    let wall_secs = t0.elapsed().as_secs_f64();

    // Results per experiment, in policy order; `outcomes` stays in task
    // order for the traces and the manifest.
    let mut grouped: Vec<Vec<RunResult>> = vec![Vec::new(); exps.len()];
    for o in &outcomes {
        grouped[o.task.experiment].push(o.result.clone());
    }

    let mut verdicts: Vec<FigureVerdict> = Vec::new();
    let mut all_pass = true;
    // Wall seconds spent rendering CSV artifacts, for the manifest's
    // top-level profile section.
    let mut csv_render_secs = 0.0f64;
    for ((entry, exp), results) in entries.iter().zip(&exps).zip(&grouped) {
        if !entry.emit {
            continue;
        }
        csv_render_secs += emit(&args, exp, entry.tag.as_deref(), results, args.scale == 1);
        if args.scale > 1 {
            // Scaled workloads are non-canonical: the committed CSVs and
            // the paper's shape claims only apply at scale 1. Finishing
            // the grid is the scale-mode check.
            println!("  SKIP: CSVs and shape checks (scale {}x)", args.scale);
            continue;
        }
        let tick_buckets = (exp.cluster.tick.0 / exp.cluster.series_bucket.0).max(1) as usize;
        // The no-heuristics baseline for this seed, from whichever entry
        // ran it: the full figure 10, or the checks-only support run.
        let plain = entries
            .iter()
            .zip(&grouped)
            .filter(|(e, _)| e.figure == 10 && e.seed == entry.seed)
            .flat_map(|(_, results)| results)
            .find(|r| r.policy == PLAIN_ANU_LABEL);
        let checks = checks_for(entry.figure, results, plain, tick_buckets);
        print!("{}", checks_table(&checks));
        all_pass &= checks.iter().all(|c| c.pass);
        verdicts.push(FigureVerdict {
            figure: entry.figure,
            seed: entry.seed,
            checks,
        });
    }

    // Optional throughput probe: trace-off fig6 at scale 1 and scale N,
    // compared against the baseline in effect.
    // The verdict is printed and recorded; with --bench-gate a WARN also
    // becomes exit code 3. Runs *before* the side sections so the probe
    // always times the same warm-but-quiet process state — tacking
    // sections onto the command line must not skew the recorded
    // throughput (on small boxes the extra minutes of sweep load
    // measurably depress a probe taken afterwards).
    let bench = (args.scale_bench > 0).then(|| {
        println!(
            "\nscale bench: fig6 trace-off on 1 worker at scale 1 (best of {}) and scale {}",
            args.bench_reps, args.scale_bench
        );
        let b = run_scale_bench(args.seed, args.scale_bench, args.bench_reps);
        println!("{}", b.gate_line());
        b
    });

    // Optional side sections, each with its own grid and manifest
    // section; their checks gate the exit code like the figure checks.
    let mut sections = Vec::new();
    for (build, on) in SIDE.iter().zip(args.side) {
        if on {
            let section = build(args.seed);
            let name = section.name;
            let (fragment, pass) =
                run_section(&args, jobs, trace_level, section, &mut csv_render_secs);
            all_pass &= pass;
            sections.push((name, fragment));
        }
    }

    // Dump each task's trace (task order; names mirror the CSVs) and
    // calibrate the tracing overhead on a reduced figure-6 run.
    let overhead = args.trace_out.as_deref().map(|dir| {
        dump_traces(dir, &outcomes, |e| entries[e].tag.as_deref());
        let probe = reduced(figure(6, args.seed).expect("figure 6 exists"), args.seed);
        let over = measure_trace_overhead(&probe);
        println!(
            "trace overhead (reduced fig6): off {:.0} ev/s, request-level {:.0} ev/s ({:+.2}%)",
            over.off_events_per_sec, over.on_events_per_sec, over.overhead_pct
        );
        over
    });

    let events: u64 = outcomes.iter().map(|o| o.result.summary.sim_events).sum();
    let manifest = runner::manifest(
        args.seed,
        jobs,
        args.scale,
        wall_secs,
        &outcomes,
        &verdicts,
        trace_level,
        overhead.as_ref(),
        &sections,
        bench.as_ref(),
        csv_render_secs,
    );
    std::fs::write(&args.bench_out, manifest.render_pretty()).expect("write bench manifest");
    println!(
        "\n{} tasks, {events} simulated events in {wall_secs:.2} s on {jobs} workers ({:.0} events/s) -> {}",
        outcomes.len(),
        events as f64 / wall_secs.max(1e-9),
        args.bench_out.display()
    );
    println!(
        "overall: {}",
        if args.scale > 1 {
            "grid completed (shape checks skipped at scale > 1)"
        } else if all_pass {
            "all shape checks PASS"
        } else {
            "some shape checks FAILED"
        }
    );
    let bench_warn = args.bench_gate && bench.as_ref().is_some_and(|b| !b.gate_ok());
    std::process::exit(runner::gate_exit_code(all_pass, bench_warn));
}
