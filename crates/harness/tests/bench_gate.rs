//! The `figures` exit-code contract `ci/check.sh` consumes, and the
//! usage-error code `figures` and `tracegen` share.
//!
//! Exit 0 = checks + gate pass, 2 = usage error, 3 = `--bench-gate`
//! armed and the throughput probe fell below the soft threshold. (Exit 1
//! — a shape-check failure — needs a broken simulation to provoke, so it
//! is covered by the `gate_exit_code` unit test instead.)
//!
//! Real throughput is machine-dependent, so these runs pin the verdict
//! with the `ANU_PERF_BASELINE` override: a tiny baseline forces PASS, an
//! absurdly large one forces WARN.

use std::path::PathBuf;
use std::process::Command;

/// Unique scratch dir per test (parallel test threads must not collide).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anu-bench-gate-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_figures(args: &[&str], envs: &[(&str, &str)]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .envs(envs.iter().map(|(k, v)| (k.to_string(), v.to_string())))
        .output()
        .expect("spawn figures");
    let code = out.status.code().expect("figures exited with a code");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (code, stdout)
}

#[test]
fn bench_gate_pass_exits_zero() {
    let dir = scratch("pass");
    let manifest = dir.join("m.json");
    let (code, stdout) = run_figures(
        &[
            "--fig",
            "6",
            "--scale-bench",
            "1",
            "--bench-reps",
            "1",
            "--bench-gate",
            "--out",
            dir.to_str().expect("utf8 path"),
            "--bench-out",
            manifest.to_str().expect("utf8 path"),
        ],
        // Any real machine beats 1 ev/s.
        &[("ANU_PERF_BASELINE", "1")],
    );
    assert_eq!(code, 0, "expected pass exit, stdout:\n{stdout}");
    assert!(stdout.contains("PERF-GATE OK"), "stdout:\n{stdout}");
    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    assert!(text.contains("\"ok\": true"), "gate verdict in manifest");
}

#[test]
fn bench_gate_warn_exits_three() {
    let dir = scratch("warn");
    let manifest = dir.join("m.json");
    let (code, stdout) = run_figures(
        &[
            "--fig",
            "6",
            "--scale-bench",
            "1",
            "--bench-reps",
            "1",
            "--bench-gate",
            "--out",
            dir.to_str().expect("utf8 path"),
            "--bench-out",
            manifest.to_str().expect("utf8 path"),
        ],
        // No machine reaches 1e18 ev/s; the probe must warn.
        &[("ANU_PERF_BASELINE", "1e18")],
    );
    assert_eq!(code, 3, "expected perf-warn exit, stdout:\n{stdout}");
    assert!(stdout.contains("PERF-GATE WARN"), "stdout:\n{stdout}");
    // The checks themselves passed — only the gate tripped.
    assert!(
        stdout.contains("all shape checks PASS"),
        "stdout:\n{stdout}"
    );
}

#[test]
fn bench_gate_without_probe_is_a_usage_error() {
    let (code, _) = run_figures(&["--bench-gate"], &[]);
    assert_eq!(code, 2, "--bench-gate without --scale-bench is misuse");
}

/// Every malformed command line exits 2 before any run and says what was
/// wrong on stderr. None of these may panic (exit 101).
#[test]
fn unknown_argument_is_a_usage_error() {
    let figures = env!("CARGO_BIN_EXE_figures");
    let tracegen = env!("CARGO_BIN_EXE_tracegen");
    let cases: [(&str, &[&str], &str); 10] = [
        (
            figures,
            &["--no-such-flag"],
            "unknown argument --no-such-flag",
        ),
        (figures, &["--seeds", "0"], "--seeds needs a count >= 1"),
        (figures, &["--jobs", "x"], "--jobs needs a worker count"),
        (figures, &["--fig"], "--fig needs a figure number"),
        (
            figures,
            &["--trace-level", "loud"],
            "--trace-level needs off|epoch|request",
        ),
        (figures, &["--scale", "0"], "--scale needs a factor >= 1"),
        (
            tracegen,
            &["--requests", "x"],
            "--requests needs an integer",
        ),
        (tracegen, &["--duration", "abc"], "--duration needs seconds"),
        (tracegen, &["--seed"], "--seed needs an integer"),
        (
            tracegen,
            &["--kind", "nope"],
            "unknown kind nope; use dfslike or synthetic",
        ),
    ];
    for (bin, args, want) in cases {
        let out = Command::new(bin).args(args).output().expect("spawn binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} {args:?} must be a usage error, stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(want),
            "{bin} {args:?}: stderr lacks {want:?}:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran something");
    }
}
