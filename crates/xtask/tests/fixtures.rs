//! Integration tests for `anu-xtask` against the fixture trees under
//! `tests/fixtures/` (exact findings, per-lint counts, waiver honoring,
//! and the JSON report shape) and `fixtures/trees/` (one tree per
//! analysis the token scanner added: raw-string false positives, import
//! aliases, RNG sharing, tick arithmetic).

use anu_xtask::{scan_workspace, Lint, Report};
use std::path::PathBuf;

fn scan_fixture(name: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    scan_workspace(&root).expect("fixture tree readable")
}

fn scan_tree(name: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/trees")
        .join(name);
    scan_workspace(&root).expect("fixture tree readable")
}

fn findings(r: &Report) -> Vec<(&str, usize, Lint, &str)> {
    r.violations
        .iter()
        .map(|v| (v.file.as_str(), v.line, v.lint, v.message.as_str()))
        .collect()
}

fn coverage(r: &Report) -> Vec<(&str, usize, usize)> {
    r.doc_coverage
        .iter()
        .map(|(krate, c)| (krate.as_str(), c.documented, c.total))
        .collect()
}

/// Every finding on the fixture trees, in report order: file, line,
/// lint and message, plus the waiver count, files scanned and every
/// crate's doc coverage.
#[test]
fn v1_fixture_trees_pin_findings() {
    const LIB: &str = "crates/core/src/lib.rs";
    const INTERVAL: &str = "crates/core/src/interval.rs";
    const UNWRAP: &str = "`.unwrap()` in library code; return Result or restructure";
    let r = scan_fixture("violations");
    assert_eq!(
        findings(&r),
        [
            (
                INTERVAL,
                5,
                Lint::AsCast,
                "bare `as` cast in fixed-point arithmetic; use the checked num helpers"
            ),
            (
                INTERVAL,
                6,
                Lint::FloatCmp,
                "float equality in fixed-point arithmetic; compare exact fixed-point units"
            ),
            (
                LIB,
                6,
                Lint::WallClock,
                "`Instant::now` reads the wall clock; simulations must be a pure function of seed and input"
            ),
            (
                LIB,
                11,
                Lint::ThreadRng,
                "`thread_rng` draws ambient entropy; use a seeded RngStream"
            ),
            (
                LIB,
                16,
                Lint::HashIteration,
                "`HashMap` has nondeterministic iteration order; use BTreeMap/BTreeSet"
            ),
            (LIB, 21, Lint::Panic, UNWRAP),
            (
                LIB,
                24,
                Lint::MissingDocs,
                "public item `undocumented` has no doc comment"
            ),
            (
                LIB,
                28,
                Lint::Waiver,
                "waiver needs a justification: `-- <reason>`"
            ),
            (LIB, 29, Lint::Panic, UNWRAP),
            (LIB, 34, Lint::Waiver, "unknown lint `nonsense` in waiver"),
            (
                LIB,
                38,
                Lint::DocSlash,
                "line starts with a single `/` beside a doc comment; a `///` doc line lost its slashes"
            ),
            (
                LIB,
                39,
                Lint::MissingDocs,
                "public item `mangled_doc` has no doc comment"
            ),
        ]
    );
    assert_eq!((r.waived, r.files_scanned), (0, 3));
    assert_eq!(coverage(&r), [("anu-core", 8, 10)]);

    let r = scan_fixture("waived");
    assert_eq!(findings(&r), []);
    assert_eq!((r.waived, r.files_scanned), (4, 1));
    assert_eq!(coverage(&r), [("anu-core", 3, 3)]);

    let r = scan_fixture("clean");
    assert_eq!(findings(&r), []);
    assert_eq!((r.waived, r.files_scanned), (0, 1));
    assert_eq!(coverage(&r), [("anu", 1, 1)]);
}

/// Prose and a `pub fn` inside `br#"…"#` raw strings are single tokens:
/// nothing leaks into the code view, so no doc-slash or missing-docs
/// finding, and a `}` in a raw string does not close the `cfg(test)`
/// region early.
#[test]
fn fp_fixes_tree_is_clean() {
    let r = scan_tree("fp_fixes");
    assert!(
        r.clean(),
        "token scanner false positives: {:?}",
        r.violations
    );
    let core = &r.doc_coverage["anu-core"];
    assert_eq!((core.documented, core.total), (1, 1));
    let des = &r.doc_coverage["anu-des"];
    assert_eq!((des.documented, des.total), (1, 1));
}

#[test]
fn import_alias_tree_findings() {
    let new = scan_tree("import_alias");
    let got: Vec<(usize, Lint)> = new.violations.iter().map(|v| (v.line, v.lint)).collect();
    assert_eq!(
        got,
        [(7, Lint::ImportGraph), (9, Lint::ImportGraph)],
        "findings: {:?}",
        new.violations
    );
    assert!(new.violations[1].message.contains("Clock"), "alias named");
}

#[test]
fn rng_shared_tree_findings() {
    let new = scan_tree("rng_shared");
    let got: Vec<Lint> = new.violations.iter().map(|v| v.lint).collect();
    assert_eq!(
        got,
        [Lint::RngDiscipline, Lint::RngDiscipline],
        "findings: {:?}",
        new.violations
    );
    // One constant-seed construction, one stream shared across a scope.
    assert!(new.violations.iter().any(|v| v.message.contains("seed")));
    assert!(new.violations.iter().any(|v| v.message.contains("scope")));
}

#[test]
fn tick_arith_tree_findings() {
    let new = scan_tree("tick_arith");
    let got: Vec<(usize, Lint)> = new.violations.iter().map(|v| (v.line, v.lint)).collect();
    assert_eq!(
        got,
        [(5, Lint::TickArith), (10, Lint::TickArith)],
        "findings: {:?}",
        new.violations
    );
}

fn count(report: &Report, lint: Lint) -> usize {
    report.violations.iter().filter(|v| v.lint == lint).count()
}

#[test]
fn violations_fixture_exact_counts() {
    let r = scan_fixture("violations");
    assert_eq!(r.files_scanned, 3);
    assert_eq!(count(&r, Lint::WallClock), 1);
    assert_eq!(count(&r, Lint::ThreadRng), 1);
    assert_eq!(count(&r, Lint::HashIteration), 1);
    // One bare unwrap, plus one whose waiver lacks a justification.
    assert_eq!(count(&r, Lint::Panic), 2);
    // `undocumented`, plus `mangled_doc` (its doc line degraded to code).
    assert_eq!(count(&r, Lint::MissingDocs), 2);
    assert_eq!(count(&r, Lint::AsCast), 1);
    assert_eq!(count(&r, Lint::FloatCmp), 1);
    // The `/ so the doc-slash lint…` line beside a `///`; the division
    // continuation in `ratio` must NOT count.
    assert_eq!(count(&r, Lint::DocSlash), 1);
    // The justification-less waiver and the unknown-lint waiver.
    assert_eq!(count(&r, Lint::Waiver), 2);
    assert_eq!(r.violations.len(), 12);
    assert_eq!(r.waived, 0);
    assert!(!r.clean());
}

#[test]
fn violations_fixture_locations() {
    let r = scan_fixture("violations");
    let at = |lint: Lint| {
        r.violations
            .iter()
            .filter(|v| v.lint == lint)
            .map(|v| (v.file.as_str(), v.line))
            .collect::<Vec<_>>()
    };
    assert_eq!(at(Lint::WallClock), [("crates/core/src/lib.rs", 6)]);
    assert_eq!(at(Lint::AsCast), [("crates/core/src/interval.rs", 5)]);
    assert_eq!(at(Lint::FloatCmp), [("crates/core/src/interval.rs", 6)]);
    assert_eq!(
        at(Lint::Panic),
        [
            ("crates/core/src/lib.rs", 21),
            ("crates/core/src/lib.rs", 29)
        ]
    );
    assert_eq!(at(Lint::DocSlash), [("crates/core/src/lib.rs", 38)]);
}

#[test]
fn binary_entry_points_are_exempt_from_panic_policy() {
    let r = scan_fixture("violations");
    assert!(
        !r.violations.iter().any(|v| v.file == "src/main.rs"),
        "src/main.rs must be exempt, got: {:?}",
        r.violations
    );
}

#[test]
fn waived_fixture_suppresses_everything() {
    let r = scan_fixture("waived");
    assert!(r.clean(), "unexpected violations: {:?}", r.violations);
    // wall-clock + same-line hash-iteration + (thread-rng, panic) pair.
    assert_eq!(r.waived, 4);
    assert_eq!(r.files_scanned, 1);
    let cov = &r.doc_coverage["anu-core"];
    assert_eq!((cov.documented, cov.total), (3, 3));
}

#[test]
fn clean_fixture_is_clean() {
    let r = scan_fixture("clean");
    assert!(r.clean());
    assert_eq!(r.waived, 0);
    assert_eq!(r.files_scanned, 1);
    let cov = &r.doc_coverage["anu"];
    assert_eq!((cov.documented, cov.total), (1, 1));
}

#[test]
fn json_report_shape() {
    let r = scan_fixture("violations");
    let json = r.render_json();
    // Top-level keys, in a stable order.
    for key in [
        "\"ok\": false",
        "\"files_scanned\": 3",
        "\"waived\": 0",
        "\"violations\": [",
        "\"doc_coverage\": {",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    // Every violation entry carries the four fields.
    assert_eq!(json.matches("\"lint\": ").count(), 12);
    assert_eq!(json.matches("\"file\": ").count(), 12);
    assert_eq!(json.matches("\"line\": ").count(), 12);
    assert_eq!(json.matches("\"message\": ").count(), 12);
    assert!(json.contains("\"lint\": \"wall-clock\""));
    assert!(json.contains("\"lint\": \"doc-slash\""));
    assert!(json.contains("\"anu-core\": {\"documented\": 8, \"total\": 10"));
    // Balanced braces/brackets (the report is hand-rendered, not serde).
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    // A clean report says so.
    let clean = scan_fixture("clean").render_json();
    assert!(clean.contains("\"ok\": true"));
    assert!(clean.contains("\"violations\": [],"));
}
