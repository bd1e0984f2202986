//! Micro-benchmarks of the ANU core data structures: the costs the paper's
//! §5 scalability argument rests on — hashing/locating is a pure in-memory
//! computation ("a hash probe does no I/O"), state scales with servers not
//! file sets, and reconfiguration is cheap.

use anu_bench::bench;
use anu_cluster::{ClusterConfig, ClusterView, PlacementPolicy};
use anu_core::{FileSetId, HashFamily, PlacementMap, ServerId};
use anu_des::SimTime;
use anu_policies::{Instance, Prescient};
use anu_workload::SyntheticConfig;
use std::collections::BTreeMap;
use std::hint::black_box;

fn servers(n: u32) -> Vec<ServerId> {
    (0..n).map(ServerId).collect()
}

fn bench_hash_family() {
    let f = HashFamily::new(42, 32);
    let name = FileSetId(123456).name_bytes();
    bench("hash/base+probe", || {
        let base = f.base(black_box(name));
        f.probe(base, 0)
    });
    let base = f.base(name);
    bench("hash/fallback_index", || {
        f.fallback_index(black_box(base), 5)
    });
}

fn bench_locate() {
    for n in [5u32, 50, 500] {
        let map = PlacementMap::with_default_rounds(&servers(n), 7).unwrap();
        let names: Vec<[u8; 8]> = (0..1024u64).map(|i| FileSetId(i).name_bytes()).collect();
        let mut i = 0;
        bench(&format!("locate/servers={n}"), || {
            i = (i + 1) & 1023;
            map.locate(black_box(names[i]))
        });
    }
}

fn bench_rebalance() {
    for n in [5u32, 50, 500] {
        let ids = servers(n);
        let mut map = PlacementMap::with_default_rounds(&ids, 7).unwrap();
        let mut flip = false;
        bench(&format!("rebalance/servers={n}"), || {
            // Alternate between two skews so every iteration moves load.
            flip = !flip;
            let w: BTreeMap<ServerId, f64> = (0..n)
                .map(|i| {
                    let heavy = (i % 2 == 0) == flip;
                    (ServerId(i), if heavy { 2.0 } else { 1.0 })
                })
                .collect();
            map.rebalance(black_box(&w)).unwrap()
        });
    }
}

fn bench_membership() {
    let ids = servers(50);
    bench("membership/remove+add (50 servers)", || {
        let mut map = PlacementMap::with_default_rounds(&ids, 7).unwrap();
        map.remove_server(ServerId(17)).unwrap();
        map.add_server(ServerId(17)).unwrap();
        map
    });
    let ids = servers(8);
    bench("membership/repartition via growth (8->9 servers)", || {
        let mut map = PlacementMap::with_default_rounds(&ids, 7).unwrap();
        map.add_server(ServerId(8)).unwrap(); // forces P: 16 -> 32
        map
    });
}

fn bench_assignment_scan() {
    // The ANU policy recomputes the full assignment each reconfiguration:
    // cost of locating 10k file sets.
    let map = PlacementMap::with_default_rounds(&servers(20), 9).unwrap();
    let names: Vec<[u8; 8]> = (0..10_000u64).map(|i| FileSetId(i).name_bytes()).collect();
    bench("locate/full-scan 10k sets, 20 servers", || {
        let mut acc = 0u64;
        for n in &names {
            acc = acc.wrapping_add(u64::from(map.locate(black_box(n)).0));
        }
        acc
    });
}

fn bench_prescient() {
    // Figure 8's shape: 500 file sets of extreme heterogeneity on the
    // 1/3/5/7/9 cluster, the oracle looking over the whole run. `solve` is
    // the full LPT + refinement; `on_tick` is one stationary tick, which
    // the makespan lower bound settles without solving.
    let cluster = ClusterConfig::paper();
    let w = SyntheticConfig::paper(1)
        .with_offered_load(0.5, cluster.total_speed())
        .generate();
    let speeds: BTreeMap<ServerId, f64> = cluster.servers.iter().map(|s| (s.id, s.speed)).collect();
    let inst = Instance {
        demands: w
            .total_demands()
            .into_iter()
            .enumerate()
            .map(|(i, d)| (FileSetId(i as u64), d))
            .collect(),
        servers: speeds.iter().map(|(&s, &v)| (s, v)).collect(),
    };
    bench("prescient/solve (500 sets, 5 servers)", || {
        black_box(&inst).solve()
    });

    let mut p = Prescient::new(w.clone(), speeds, w.duration());
    let mut view = ClusterView {
        servers: cluster
            .server_ids()
            .into_iter()
            .map(|s| (s, true))
            .collect(),
        now: SimTime::ZERO,
    };
    let assignment = p.initial(&view, &w.file_sets());
    view.now = SimTime::ZERO + cluster.tick;
    bench("prescient/on_tick (500 sets, 5 servers)", || {
        p.on_tick(black_box(&view), &[], &assignment)
    });
}

fn main() {
    bench_hash_family();
    bench_locate();
    bench_rebalance();
    bench_membership();
    bench_assignment_scan();
    bench_prescient();
}
