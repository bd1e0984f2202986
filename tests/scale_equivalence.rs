//! Differential gate for the dense-world rewrite.
//!
//! The dense `Vec`-indexed world state (interned server/file-set ids,
//! alias-table sampling) must be *observationally identical* to the
//! original `BTreeMap`-keyed implementation. These fingerprints were
//! generated on the commit **before** the rewrite, from the exact same
//! experiments: reduced figure 6 and figure 8 configurations over ten
//! seeds, hashing each policy's label, its full `RunSummary` debug
//! rendering, and the bytes of its per-server series CSV.
//!
//! If one of these assertions fires, the hot path changed behaviour —
//! not just speed. That is a correctness bug (or an intentional change
//! that must re-pin every golden output in the repo, not just these).
//!
//! Re-pinned twice since the original capture: `RunSummary` gained the
//! elasticity fields (shed/scale counts, Jain fairness, per-set p99),
//! then the `completion_fairness` index — both changed its hashed debug
//! rendering. The committed series CSVs were byte-identical across both
//! changes (`tests/golden_outputs.rs` pins them independently) — the
//! trajectory itself never moved, only the summary text.

use anu_harness::{figure, reduced, Experiment};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(FNV_PRIME);
    }
    acc
}

/// Pre-rewrite fingerprints of reduced figure 6 (dfstrace-like workload,
/// four policies) at seeds 1..=10.
const FIG6_REFERENCE: [u64; 10] = [
    0x9a2706156a8c403e,
    0x801cf4965cb8cc30,
    0x14d8fcbac1b15c2e,
    0x053ab530e9eaf047,
    0x924602ad657c67a4,
    0x398819eb4fa9f943,
    0xdd333c5bfd056392,
    0xc345e4fba5db1ebc,
    0x4b577ab82c1d9e90,
    0x6bf6c1ec2484ee68,
];

/// Pre-rewrite fingerprints of reduced figure 8 (synthetic workload) at
/// seeds 1..=10.
const FIG8_REFERENCE: [u64; 10] = [
    0x7e552b417e5208f4,
    0xbf89d8ae91149270,
    0x1ff2c8736b054b4d,
    0x1e5b69e22eee86db,
    0xcc97fa4a3f670592,
    0xcdbdd15da4d356d0,
    0xc50e2d63218e305d,
    0x51b535d01b850a55,
    0xcbbc3767dbab16ca,
    0xf9d4acc79eb7aee9,
];

fn reduced_figure(fig: u32, seed: u64) -> Experiment {
    reduced(figure(fig, seed).expect("figure exists"), seed)
}

/// Hash every policy's observable output: label, summary, series CSV.
fn fingerprint(results: &[anu_cluster::RunResult]) -> u64 {
    let tmp = std::env::temp_dir().join(format!(
        "anu_scale_equiv_{}_{:x}",
        std::process::id(),
        results.as_ptr() as usize
    ));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let path = tmp.join("series.csv");
    let mut acc = FNV_OFFSET;
    for r in results {
        acc = fnv1a(acc, r.policy.as_bytes());
        acc = fnv1a(acc, format!("{:?}", r.summary).as_bytes());
        anu_harness::report::write_series_csv(r, &path).expect("write series csv");
        acc = fnv1a(acc, &std::fs::read(&path).expect("read series csv"));
    }
    let _ = std::fs::remove_dir_all(&tmp);
    acc
}

#[test]
fn dense_world_matches_pre_rewrite_fig6_over_ten_seeds() {
    for (i, &expected) in FIG6_REFERENCE.iter().enumerate() {
        let seed = 1 + i as u64;
        let got = fingerprint(&reduced_figure(6, seed).run_all());
        assert_eq!(
            got, expected,
            "fig6 seed {seed}: dense world diverged from the pre-rewrite reference \
             (got 0x{got:016x}, expected 0x{expected:016x})"
        );
    }
}

#[test]
fn dense_world_matches_pre_rewrite_fig8_over_ten_seeds() {
    for (i, &expected) in FIG8_REFERENCE.iter().enumerate() {
        let seed = 1 + i as u64;
        let got = fingerprint(&reduced_figure(8, seed).run_all());
        assert_eq!(
            got, expected,
            "fig8 seed {seed}: dense world diverged from the pre-rewrite reference \
             (got 0x{got:016x}, expected 0x{expected:016x})"
        );
    }
}

#[test]
fn fingerprints_unchanged_at_any_worker_count() {
    // The same experiments must fingerprint identically whether the
    // policy grid is drained by one worker or four — the alias sampler
    // and dense state carry no cross-task mutable state.
    for fig in [6u32, 8] {
        let exp = reduced_figure(fig, 3);
        let serial = fingerprint(&exp.run_with_jobs(1));
        let parallel = fingerprint(&exp.run_with_jobs(4));
        assert_eq!(
            serial, parallel,
            "fig{fig}: results differ between --jobs 1 and --jobs 4"
        );
    }
}

#[test]
fn alias_draw_sequences_identical_across_threads() {
    // Satellite check for the sampler itself: four threads each draw
    // the same sequence from identical (table, seed) pairs as a serial
    // draw does. The table is immutable after construction; all draw
    // state lives in the caller's RngStream.
    use anu_des::{AliasTable, RngStream};

    let weights: Vec<f64> = (1..=64).map(|i| 1.0 / f64::from(i)).collect();
    let table = AliasTable::new(&weights);
    let serial: Vec<usize> = {
        let mut rng = RngStream::new(42, "alias-jobs");
        (0..10_000).map(|_| table.sample(&mut rng)).collect()
    };
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let table = &table;
            let serial = &serial;
            scope.spawn(move || {
                let mut rng = RngStream::new(42, "alias-jobs");
                let drawn: Vec<usize> = (0..10_000).map(|_| table.sample(&mut rng)).collect();
                assert_eq!(&drawn, serial, "thread drew a different alias sequence");
            });
        }
    });
}
