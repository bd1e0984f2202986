//! `anu-perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload (or all three), checks every simulated output, prints
//! a human-readable report on standard error and, as the last line of
//! standard output, one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! Exit code 0 when every check passed, 1 when one failed (each failure is
//! named on standard error), 2 on a usage error.

use anu_perfbench::run::{run, Metric, Options, Report};
use anu_perfbench::workloads::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: anu-perfbench --workload <paper-ensemble|scale-hotpath|churn-traced|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workloads: Vec<Workload>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        all: false,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => {
                args.workloads = Workload::ALL.to_vec();
                args.all = true;
            }
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?];
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn json_metrics(metrics: &[(String, &Metric)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench");
    let nproc = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);

    let mut reports: Vec<(Workload, Report)> = Vec::new();
    for &workload in &args.workloads {
        let opts = Options {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            nproc,
            out_dir: out_dir.clone(),
        };
        let report = run(&opts);
        for line in &report.notes {
            eprintln!("{line}");
        }
        for m in &report.metrics {
            eprintln!("  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
        }
        for f in &report.failures {
            eprintln!("CHECK FAILED: {f}");
        }
        reports.push((workload, report));
    }

    let mut correct = reports.iter().all(|(_, r)| r.correct());
    let attempted: u64 = reports.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = reports.iter().map(|(_, r)| r.failed).sum();
    let metrics: Vec<(String, &Metric)> = reports
        .iter()
        .flat_map(|(w, r)| {
            r.metrics.iter().map(move |m| {
                let name = if args.all {
                    format!("{}.{}", w.name(), m.name)
                } else {
                    m.name.to_string()
                };
                (name, m)
            })
        })
        .collect();
    if let Some((name, _)) = metrics.iter().find(|(_, m)| !m.value.is_finite()) {
        eprintln!("CHECK FAILED: metric {name} is not a finite number");
        correct = false;
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
