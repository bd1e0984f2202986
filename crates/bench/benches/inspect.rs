//! Benchmarks of trace read-back: decoding a `.ring` dump and
//! reconstructing its request spans with `anu-inspect`, over the
//! request-level trace of one storm cell under churn (crashes, requeues,
//! sheds and autoscaling, ~40k records).

use anu_bench::bench;
use anu_core::TuningConfig;
use anu_harness::{storm_experiment, PolicyKind, DEFAULT_SEED};
use anu_inspect::{analyze, parse_ring};
use anu_trace::{RingSink, TraceLevel};
use anu_workload::StormKind;
use std::hint::black_box;

fn main() {
    let exp = storm_experiment(StormKind::FlashCrowd, 1.0, DEFAULT_SEED);
    let mut policy = PolicyKind::Anu {
        tuning: TuningConfig::paper(),
    }
    .build(&exp.cluster, &exp.workload, exp.seed);
    let mut ring = RingSink::new(TraceLevel::Request);
    anu_cluster::run_traced(&exp.cluster, &exp.workload, policy.as_mut(), &mut ring);
    let bytes = ring.to_bytes();
    let events = parse_ring(&bytes).expect("a fresh dump parses");
    println!(
        "storm cell trace: {} records, {} bytes",
        events.len(),
        bytes.len()
    );

    bench("inspect/parse_ring", || parse_ring(black_box(&bytes)));
    bench("inspect/analyze", || analyze(black_box(&events)));
}
