//! Differential gate for the dense-world rewrite.
//!
//! The dense `Vec`-indexed world state (interned server/file-set ids,
//! alias-table sampling) must be *observationally identical* to the
//! original `BTreeMap`-keyed implementation. The first fingerprints were
//! generated on the commit **before** the rewrite, from the exact same
//! experiments: reduced figure 6 and figure 8 configurations over ten
//! seeds, hashing each policy's label, its `RunSummary`, and the bytes of
//! its per-server series CSV.
//!
//! If one of these assertions fires, the hot path changed behaviour —
//! not just speed. That is a correctness bug (or an intentional change
//! that must re-pin every golden output in the repo, not just these).
//!
//! The summary is hashed as data, not as its `Debug` text: every field
//! under its own name, floats by their IEEE-754 bits, per-server maps in
//! key order. [`hash_summary`] destructures `RunSummary` with no `..`, so
//! a new field does not compile until it is placed there. The `Debug`
//! fingerprints had to be re-pinned twice as `RunSummary` grew; the
//! current constants were pinned on a commit where those older
//! fingerprints also passed, so both vouch for the same trajectories.

use anu_cluster::RunSummary;
use anu_core::ServerId;
use anu_harness::{figure, reduced, Experiment};
use std::collections::BTreeMap;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a stream of named fields.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, name: &str, v: &u64) {
        self.bytes(name.as_bytes());
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, name: &str, v: &f64) {
        self.u64(name, &v.to_bits());
    }

    fn map<V>(&mut self, name: &str, m: &BTreeMap<ServerId, V>, bits: impl Fn(&V) -> u64) {
        self.u64(name, &(m.len() as u64));
        for (server, v) in m {
            self.bytes(&server.0.to_le_bytes());
            self.bytes(&bits(v).to_le_bytes());
        }
    }

    fn f64_map(&mut self, name: &str, m: &BTreeMap<ServerId, f64>) {
        self.map(name, m, |v| v.to_bits());
    }

    fn u64_map(&mut self, name: &str, m: &BTreeMap<ServerId, u64>) {
        self.map(name, m, |v| *v);
    }
}

/// Destructure a `RunSummary` exhaustively and hash each field, tagged
/// with its name, by the given [`Fnv`] method.
macro_rules! hash_fields {
    ($h:expr, $summary:expr, { $($kind:ident $field:ident),* $(,)? }) => {{
        let RunSummary { $($field),* } = $summary;
        $( $h.$kind(stringify!($field), $field); )*
    }};
}

fn hash_summary(h: &mut Fnv, summary: &RunSummary) {
    hash_fields!(h, summary, {
        u64 offered_requests,
        u64 completed_requests,
        f64 mean_latency_ms,
        f64 max_latency_ms,
        f64_map per_server_mean_ms,
        u64_map per_server_requests,
        f64_map per_server_utilization,
        u64 migrations,
        u64 sim_events,
        f64 late_imbalance_cov,
        f64 late_mean_latency_ms,
        f64 p50_latency_ms,
        f64 p95_latency_ms,
        f64 p99_latency_ms,
        u64 max_queue_depth,
        u64 band_freezes,
        u64 divergent_freezes,
        u64 factor_clamps,
        f64 unavailable_secs,
        u64 unavailability_windows,
        f64 mean_rebalance_secs,
        f64 max_rebalance_secs,
        u64 requests_requeued,
        f64 degraded_capacity_secs,
        u64 audit_checks,
        u64 audit_violations,
        u64 requests_shed,
        u64 scale_ups,
        u64 scale_downs,
        f64 jain_fairness,
        f64 completion_fairness,
        f64 p99_per_file_set_max,
    });
}

/// Fingerprints of reduced figure 6 (dfstrace-like workload,
/// four policies) at seeds 1..=10.
const FIG6_REFERENCE: [u64; 10] = [
    0xc0f76ec6a287399f,
    0x200753541f3fe9b0,
    0x44e1f15597d7d453,
    0xd12089b63e343978,
    0x8ff67ea71c0be8a2,
    0xfe999d159c845ed3,
    0x3b82f34005157722,
    0xee9f749425fd53ab,
    0x0584e2fefd27e348,
    0x413406d697193a5d,
];

/// Fingerprints of reduced figure 8 (synthetic workload) at
/// seeds 1..=10.
const FIG8_REFERENCE: [u64; 10] = [
    0xb8550f1e11d3620a,
    0x6d693a3e3ce0270e,
    0x499e77d7a30a0f8c,
    0xe9370abf9b98e1ea,
    0x9000ef8a802765bb,
    0x9e3940972eb3c65f,
    0x48e9b2d4147c074a,
    0x14b6d8c2d04ef950,
    0xb66efa007eecba23,
    0xe4f17d11726428b2,
];

fn reduced_figure(fig: u32, seed: u64) -> Experiment {
    reduced(figure(fig, seed).expect("figure exists"), seed)
}

/// Hash every policy's observable output: label, summary fields, series
/// CSV bytes.
fn fingerprint(results: &[anu_cluster::RunResult]) -> u64 {
    let tmp = std::env::temp_dir().join(format!(
        "anu_scale_equiv_{}_{:x}",
        std::process::id(),
        results.as_ptr() as usize
    ));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let path = tmp.join("series.csv");
    let mut h = Fnv(FNV_OFFSET);
    for r in results {
        h.bytes(r.policy.as_bytes());
        hash_summary(&mut h, &r.summary);
        anu_harness::report::write_series_csv(r, &path).expect("write series csv");
        h.bytes(&std::fs::read(&path).expect("read series csv"));
    }
    let _ = std::fs::remove_dir_all(&tmp);
    h.0
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
