//! Generate and persist workload traces for replayable experiments.
//!
//! ```text
//! tracegen --kind dfslike|synthetic [--seed S] [--out FILE] [--format csv|json]
//!          [--requests N] [--file-sets N] [--duration SECS]
//! ```
//!
//! Writes the trace and prints its statistics (request count, activity
//! skew, offered load against the paper's 25-speed-unit cluster). Traces
//! replay bit-identically: the same file driven through the simulator
//! yields the same figures on any machine. A malformed command line (an
//! unknown flag, kind or format, or a flag value that does not parse)
//! exits with code 2 before anything is generated.

mod cli;

use anu_workload::{save_json, write_csv, DfsLikeConfig, SyntheticConfig, Workload};
use cli::{flag_value, usage_error};
use std::path::PathBuf;

const USAGE: &str = "usage: tracegen --kind dfslike|synthetic [--seed S] [--out FILE] \
                     [--format csv|json] [--requests N] [--file-sets N] [--duration SECS]";

struct Args {
    kind: String,
    seed: u64,
    out: PathBuf,
    format: String,
    requests: Option<u64>,
    file_sets: Option<usize>,
    duration: Option<f64>,
}

/// Parse the command line; every malformed one exits with code 2 through
/// [`usage_error`] before anything is generated.
fn parse() -> Args {
    let mut args = Args {
        kind: "dfslike".into(),
        seed: 11,
        out: PathBuf::from("trace.csv"),
        format: "csv".into(),
        requests: None,
        file_sets: None,
        duration: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--kind" => args.kind = flag_value(it.next(), "--kind needs dfslike|synthetic"),
            "--seed" => args.seed = flag_value(it.next(), "--seed needs an integer"),
            "--out" => args.out = flag_value(it.next(), "--out needs a path"),
            "--format" => args.format = flag_value(it.next(), "--format needs csv|json"),
            "--requests" => {
                args.requests = Some(flag_value(it.next(), "--requests needs an integer"))
            }
            "--file-sets" => {
                args.file_sets = Some(flag_value(it.next(), "--file-sets needs an integer"))
            }
            "--duration" => args.duration = Some(flag_value(it.next(), "--duration needs seconds")),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !["dfslike", "synthetic"].contains(&args.kind.as_str()) {
        usage_error(&format!(
            "unknown kind {}; use dfslike or synthetic",
            args.kind
        ));
    }
    if !["csv", "json"].contains(&args.format.as_str()) {
        usage_error(&format!("unknown format {}; use csv or json", args.format));
    }
    args
}

fn generate(args: &Args) -> Workload {
    // Both generators take the same three overrides; `synthetic` is the
    // paper's Figure 8 workload.
    let apply = |requests: &mut u64, sets: &mut usize, duration: &mut f64| {
        *requests = args.requests.unwrap_or(*requests);
        *sets = args.file_sets.unwrap_or(*sets);
        *duration = args.duration.unwrap_or(*duration);
    };
    if args.kind == "dfslike" {
        let mut c = DfsLikeConfig::paper(args.seed);
        apply(
            &mut c.total_requests,
            &mut c.n_file_sets,
            &mut c.duration_secs,
        );
        c.generate()
    } else {
        let mut c = SyntheticConfig::paper(args.seed);
        apply(
            &mut c.total_requests,
            &mut c.n_file_sets,
            &mut c.duration_secs,
        );
        c.generate()
    }
}

fn main() {
    let args = parse();
    let w = generate(&args);
    let stats = w.stats();
    if args.format == "csv" {
        let f = std::fs::File::create(&args.out).expect("create output file");
        write_csv(&w, f).expect("write csv");
    } else {
        save_json(&w, &args.out).expect("write json");
    }
    println!("wrote {} ({})", args.out.display(), args.format);
    println!(
        "  {} requests, {} file sets ({} active), {:.0} s",
        stats.total_requests, w.n_file_sets, stats.active_file_sets, stats.duration_secs
    );
    println!(
        "  activity skew: most {} / least {} = {:.0}x",
        stats.max_set_requests, stats.min_set_requests, stats.heterogeneity_ratio
    );
    println!(
        "  offered load vs the paper's 25-unit cluster: {:.2}",
        w.offered_load(25.0)
    );
}
