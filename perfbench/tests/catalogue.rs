//! `BENCHMARK.json` and the metric catalogue the benchmark prints must
//! list the same metrics, with the same units and directions.

use anu::core::Json;
use anu_perfbench::layers::{MetricSpec, END_TO_END, PER_LAYER};
use anu_perfbench::workloads::Workload;

fn benchmark_json() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn specs(j: &Json, key: &str) -> Vec<(String, String, String)> {
    j.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn catalogue(list: &[MetricSpec]) -> Vec<(String, String, String)> {
    list.iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let j = benchmark_json();
    assert_eq!(specs(&j, "end_to_end"), catalogue(&END_TO_END));
    assert_eq!(specs(&j, "per_layer"), catalogue(&PER_LAYER));
    let names: Vec<String> = j
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}
