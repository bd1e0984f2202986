//! Golden regression pins for the committed `out/` artifacts.
//!
//! At `DEFAULT_SEED` the figure-6 CSVs (four per-server series, the
//! tuner-epoch log), the chaos and storm summaries, and the mean-field
//! sweep's cell/convergence CSVs are part of the repo: the
//! exact bytes under `out/` are what `ci/check.sh` regenerates and
//! diffs. These tests pin the same bytes by FNV-1a fingerprint so a
//! behavioural change shows up in `cargo test` — long before the full
//! figures gate runs — and, when the committed files are present,
//! compare against them byte-for-byte too.
//!
//! A mismatch means simulator behaviour changed at the default seed.
//! If the change is intentional, regenerate `out/` with the figures
//! binary and re-pin these constants from the new files.

use anu_harness::{
    chaos_experiments, chaos_rows, figure, meanfield_experiments, meanfield_grid, meanfield_rows,
    runner, storm_cells, storm_experiments, storm_rows, write_chaos_summary_csv,
    write_figure_csvs_tagged, write_meanfield_cells_csv, write_meanfield_convergence_csv,
    write_storm_summary_csv, write_tuner_epochs_csv, CHAOS_LEVELS, DEFAULT_SEED,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut acc = FNV_OFFSET;
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(FNV_PRIME);
    }
    acc
}

/// (file name, fingerprint, byte length) for every pinned artifact.
const FIG6_GOLDEN: [(&str, u64, usize); 5] = [
    ("fig6_simple_randomization.csv", 0x2e4091f34f8ad3c4, 5021),
    ("fig6_round_robin.csv", 0xde35f075488a7a1b, 5203),
    ("fig6_dynamic_prescient.csv", 0x4b03a3a2263543d5, 4952),
    ("fig6_anu_randomization.csv", 0xc47a1cc693659a0f, 4720),
    ("fig6_tuner_epochs.csv", 0x10cd7449a08556e6, 14030),
];

const CHAOS_GOLDEN: (&str, u64, usize) = ("chaos_summary.csv", 0xa0e0dc4e3fc4b86b, 1325);

/// The storm sweep's fairness/elasticity summary: one row per
/// `(kind, intensity, policy)` cell plus the convergence cell.
const STORM_GOLDEN: (&str, u64, usize) = ("storm_summary.csv", 0xe8bf59235bd9df6e, 5869);

/// The mean-field sweep's committed artifacts: per-server predictions
/// next to measurements for every (scale, replica, policy) cell, and the
/// per-cell divergence report the CI gate reads.
const MEANFIELD_GOLDEN: [(&str, u64, usize); 2] = [
    ("meanfield_cells.csv", 0xfe6a1fe46c9192c3, 19347),
    ("meanfield_convergence.csv", 0x437c475bf5c2d1f6, 1706),
];

fn check_artifact(path: &std::path::Path, name: &str, hash: u64, len: usize) {
    let bytes = std::fs::read(path).expect("read regenerated artifact");
    assert_eq!(
        (fnv1a(&bytes), bytes.len()),
        (hash, len),
        "{name}: regenerated bytes diverged from the pinned golden \
         (got 0x{:016x} len {}, pinned 0x{hash:016x} len {len})",
        fnv1a(&bytes),
        bytes.len()
    );
    // When running from a checkout that carries the committed out/
    // directory, the pin and the repository must agree byte-for-byte.
    let committed = std::path::Path::new("out").join(name);
    if let Ok(repo_bytes) = std::fs::read(&committed) {
        assert_eq!(
            repo_bytes,
            bytes,
            "{name}: committed {} differs from the regenerated bytes",
            committed.display()
        );
    }
}

#[test]
fn fig6_csvs_match_golden_at_default_seed() {
    let tmp = std::env::temp_dir().join(format!("anu_golden_fig6_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let results = figure(6, DEFAULT_SEED).expect("figure 6 exists").run_all();
    let mut paths = write_figure_csvs_tagged("fig6", None, &results, &tmp).expect("write csvs");
    paths.push(write_tuner_epochs_csv("fig6", None, &results, &tmp).expect("write epochs"));
    assert_eq!(paths.len(), FIG6_GOLDEN.len(), "unexpected artifact count");
    for (name, hash, len) in FIG6_GOLDEN {
        let path = paths
            .iter()
            .find(|p| p.file_name().is_some_and(|f| f == name))
            .unwrap_or_else(|| panic!("{name} not produced"));
        check_artifact(path, name, hash, len);
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn chaos_summary_matches_golden_at_default_seed() {
    let tmp = std::env::temp_dir().join(format!("anu_golden_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let exps = chaos_experiments(DEFAULT_SEED);
    let outcomes = runner::run_grid(&exps, 1);
    let grouped = runner::group_results(outcomes, exps.len());
    let rows = chaos_rows(&CHAOS_LEVELS, &exps, &grouped);
    let path = write_chaos_summary_csv(&rows, &tmp).expect("write chaos summary");
    let (name, hash, len) = CHAOS_GOLDEN;
    check_artifact(&path, name, hash, len);
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn storm_summary_matches_golden_at_default_seed() {
    let tmp = std::env::temp_dir().join(format!("anu_golden_storm_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let exps = storm_experiments(DEFAULT_SEED);
    let outcomes = runner::run_grid(&exps, 0);
    let grouped = runner::group_results(outcomes, exps.len());
    let rows = storm_rows(&storm_cells(), &exps, &grouped);
    let path = write_storm_summary_csv(&rows, &tmp).expect("write storm summary");
    let (name, hash, len) = STORM_GOLDEN;
    check_artifact(&path, name, hash, len);
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn meanfield_csvs_match_golden_at_default_seed() {
    let tmp = std::env::temp_dir().join(format!("anu_golden_meanfield_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let exps = meanfield_experiments(DEFAULT_SEED);
    // Worker count never changes the bytes (the determinism gate proves
    // it on every run); use the auto pool to keep the debug-mode test
    // tolerable.
    let outcomes = runner::run_grid(&exps, 0);
    let grouped = runner::group_results(outcomes, exps.len());
    let (rows, report) = meanfield_rows(&meanfield_grid(), &exps, &grouped);
    let paths = [
        write_meanfield_cells_csv(&rows, &tmp).expect("write meanfield cells"),
        write_meanfield_convergence_csv(&report, &tmp).expect("write meanfield report"),
    ];
    for ((name, hash, len), path) in MEANFIELD_GOLDEN.into_iter().zip(&paths) {
        assert_eq!(path.file_name().unwrap(), name);
        check_artifact(path, name, hash, len);
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
