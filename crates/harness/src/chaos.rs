//! Chaos sweep: the four-policy lineup under escalating fault intensity.
//!
//! Each grid cell runs the reduced synthetic workload (same cluster and
//! policy lineup as Figure 8) with a deterministic fault script compiled
//! by [`anu_cluster::plan_faults`] from a one-knob
//! [`FaultPlanConfig::intensity`] environment: crashes with repairs,
//! correlated group failures, limping-server slowdowns, latency-report
//! loss/delay, and delegate crashes. The invariant auditor arms
//! automatically (the fault script is non-empty), so every run doubles as
//! a consistency check of the failover machinery.
//!
//! Outputs are deterministic in `(level, seed)`: the `figures --chaos`
//! sweep writes `out/chaos_*.csv` series plus one `chaos_summary.csv` of
//! availability metrics per `(intensity, policy)` cell, byte-identical at
//! any `--jobs` value.

use crate::experiment::Experiment;
use crate::figures::{fig8, reduced, ShapeCheck};
use crate::report::write_csv;
use crate::runner::{Section, SectionReport};
use crate::storm::{audit_clean, conservation_checks, storm_rows, StormRow};
use anu_cluster::{FaultEvent, FaultPlanConfig, RunResult, RunSummary};
use anu_core::{Json, ServerId};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Fault-intensity levels of the default chaos sweep (multiples of one
/// expected failure-class fault per server over the horizon).
pub const CHAOS_LEVELS: [f64; 3] = [0.5, 1.0, 2.0];

/// Grid name for one intensity level: `chaos_i05`, `chaos_i10`, …
/// (intensity × 10, zero-padded to two digits, so names sort by level).
pub fn chaos_name(level: f64) -> String {
    format!("chaos_i{:02}", (level * 10.0).round() as u32)
}

/// The chaos experiment at one fault-intensity `level`: the reduced
/// Figure 8 setting (synthetic workload, four policies) with a fault
/// script drawn for that level over the workload horizon. Level 0 yields
/// an empty script (a fault-free control cell).
pub fn chaos_experiment(level: f64, seed: u64) -> Experiment {
    let mut exp = reduced(fig8(seed), seed);
    exp.name = chaos_name(level);
    let servers: Vec<ServerId> = exp.cluster.servers.iter().map(|s| s.id).collect();
    let env = FaultPlanConfig::intensity(level, exp.workload.duration().as_secs_f64());
    exp.cluster.faults = anu_cluster::plan_faults(&env, &servers, seed);
    exp
}

/// The full default sweep: one experiment per [`CHAOS_LEVELS`] entry.
pub fn chaos_experiments(seed: u64) -> Vec<Experiment> {
    CHAOS_LEVELS
        .iter()
        .map(|&level| chaos_experiment(level, seed))
        .collect()
}

/// The `figures --chaos` section: [`chaos_experiments`], traced, with every
/// cell's [`chaos_checks`], `chaos_summary.csv` and [`chaos_manifest`].
pub fn chaos_section(seed: u64) -> Section {
    Section {
        name: "chaos",
        experiments: chaos_experiments(seed),
        per_run_outputs: true,
        finish: Box::new(|exps, grouped, dir| {
            let checks = exps
                .iter()
                .zip(grouped)
                .flat_map(|(exp, results)| chaos_checks(exp, results))
                .collect();
            let rows = chaos_rows(&CHAOS_LEVELS, exps, grouped);
            write_chaos_summary_csv(&rows, dir)?;
            Ok(SectionReport {
                checks,
                manifest: chaos_manifest(&rows),
            })
        }),
    }
}

/// Flatten grouped sweep results into summary rows (kind `"chaos"`), one
/// per `(intensity, policy)` cell. `levels`, `experiments` and `grouped`
/// must be parallel (as produced by [`chaos_experiments`] +
/// [`crate::runner::group_results`]).
pub fn chaos_rows(
    levels: &[f64],
    experiments: &[Experiment],
    grouped: &[Vec<RunResult>],
) -> Vec<StormRow> {
    let cells: Vec<(String, f64)> = levels.iter().map(|&l| ("chaos".into(), l)).collect();
    storm_rows(&cells, experiments, grouped)
}

/// Write the chaos availability summary as `chaos_summary.csv` in `dir`:
/// one row per `(intensity, policy)` cell.
pub fn write_chaos_summary_csv(rows: &[StormRow], dir: &Path) -> io::Result<PathBuf> {
    write_csv(
        dir.join("chaos_summary.csv"),
        "intensity,policy,seed,faults,offered,completed,requeued,mean_latency_ms,\
         unavailable_secs,unavailability_windows,mean_rebalance_secs,max_rebalance_secs,\
         degraded_capacity_secs,migrations,audit_checks,audit_violations",
        |f| {
            for r in rows {
                let s = &r.summary;
                writeln!(
                    f,
                    "{:.2},{},{},{},{},{},{},{:.3},{:.3},{},{:.3},{:.3},{:.3},{},{},{}",
                    r.intensity,
                    r.policy,
                    r.seed,
                    r.faults,
                    s.offered_requests,
                    s.completed_requests,
                    s.requests_requeued,
                    s.mean_latency_ms,
                    s.unavailable_secs,
                    s.unavailability_windows,
                    s.mean_rebalance_secs,
                    s.max_rebalance_secs,
                    s.degraded_capacity_secs,
                    s.migrations,
                    s.audit_checks,
                    s.audit_violations
                )?;
            }
            Ok(())
        },
    )
}

/// Manifest fragment for the chaos sweep (`BENCH_figures.json`, schema
/// v4): levels swept plus one object per summary row. Everything in it is
/// deterministic — no timing fields.
pub fn chaos_manifest(rows: &[StormRow]) -> Json {
    let cells: Vec<Json> = rows
        .iter()
        .map(|r| {
            let s = &r.summary;
            Json::obj(vec![
                ("intensity", Json::f64(r.intensity)),
                ("policy", Json::str(&r.policy)),
                ("seed", Json::u64(r.seed)),
                ("faults", Json::usize(r.faults)),
                ("completed_requests", Json::u64(s.completed_requests)),
                ("requests_requeued", Json::u64(s.requests_requeued)),
                ("unavailable_secs", Json::f64(s.unavailable_secs)),
                (
                    "unavailability_windows",
                    Json::u64(s.unavailability_windows),
                ),
                ("mean_rebalance_secs", Json::f64(s.mean_rebalance_secs)),
                (
                    "degraded_capacity_secs",
                    Json::f64(s.degraded_capacity_secs),
                ),
                ("audit_checks", Json::u64(s.audit_checks)),
                ("audit_violations", Json::u64(s.audit_violations)),
            ])
        })
        .collect();
    let mut levels: Vec<f64> = rows.iter().map(|r| r.intensity).collect();
    levels.dedup();
    Json::obj(vec![
        (
            "levels",
            Json::arr(levels.into_iter().map(Json::f64).collect()),
        ),
        ("audit_clean", Json::bool(audit_clean(rows))),
        ("rows", Json::arr(cells)),
    ])
}

/// Time of the last delegate crash in a fault script, if any.
fn last_delegate_fail_secs(faults: &[FaultEvent]) -> Option<f64> {
    faults
        .iter()
        .filter_map(|ev| match ev {
            FaultEvent::DelegateFail { at, .. } => Some(at.as_secs_f64()),
            _ => None,
        })
        .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
}

/// Robustness checks for one chaos cell — the acceptance claims of the
/// fault-injection engine:
///
/// * the invariant auditor ran at every boundary and found nothing;
/// * no request was lost: every offered request completed even though
///   failures requeued some mid-flight;
/// * after the last delegate crash ANU resumed tuning (a tuner epoch with
///   a decision record exists later in the run).
pub fn chaos_checks(exp: &Experiment, results: &[RunResult]) -> Vec<ShapeCheck> {
    let runs: Vec<&RunSummary> = results.iter().map(|r| &r.summary).collect();
    let mut checks = conservation_checks(&exp.name, &runs).to_vec();
    if let Some(t_fail) = last_delegate_fail_secs(&exp.cluster.faults) {
        for r in results.iter().filter(|r| r.policy.starts_with("anu")) {
            let resumed = r
                .epochs
                .iter()
                .any(|e| e.time_s > t_fail && e.tune.is_some());
            checks.push(ShapeCheck {
                claim: format!(
                    "{}: {} resumes tuning after the last delegate re-election",
                    exp.name, r.policy
                ),
                measured: format!(
                    "last delegate crash at {t_fail:.0} s; tuner epochs after it: {}",
                    r.epochs
                        .iter()
                        .filter(|e| e.time_s > t_fail && e.tune.is_some())
                        .count()
                ),
                pass: resumed,
            });
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{group_results, run_grid};

    #[test]
    fn chaos_names_sort_by_level() {
        assert_eq!(chaos_name(0.5), "chaos_i05");
        assert_eq!(chaos_name(1.0), "chaos_i10");
        assert_eq!(chaos_name(2.0), "chaos_i20");
        let mut names: Vec<String> = CHAOS_LEVELS.iter().map(|&l| chaos_name(l)).collect();
        let sorted = names.clone();
        names.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn chaos_experiments_scale_with_intensity() {
        let exps = chaos_experiments(1);
        assert_eq!(exps.len(), CHAOS_LEVELS.len());
        for exp in &exps {
            assert_eq!(exp.policies.len(), 4);
            exp.cluster.validate_faults().expect("plans validate");
        }
        assert!(
            exps[0].cluster.faults.len() < exps[2].cluster.faults.len(),
            "higher intensity draws more faults ({} vs {})",
            exps[0].cluster.faults.len(),
            exps[2].cluster.faults.len()
        );
        assert!(chaos_experiment(0.0, 1).cluster.faults.is_empty());
    }

    #[test]
    fn chaos_cell_is_deterministic_and_audited() {
        let exp = chaos_experiment(1.0, 1);
        let grouped_a = group_results(run_grid(std::slice::from_ref(&exp), 1), 1);
        let grouped_b = group_results(run_grid(std::slice::from_ref(&exp), 4), 1);
        for (a, b) in grouped_a[0].iter().zip(&grouped_b[0]) {
            assert_eq!(a.summary, b.summary, "{} differs across jobs", a.policy);
            assert!(a.summary.audit_checks > 0, "{} never audited", a.policy);
            assert_eq!(a.summary.audit_violations, 0, "{} violated", a.policy);
        }
        let rows = chaos_rows(&[1.0], std::slice::from_ref(&exp), &grouped_a);
        assert_eq!(rows.len(), 4);

        let dir = std::env::temp_dir().join("anu_chaos_csv_test");
        let path = write_chaos_summary_csv(&rows, &dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("intensity,policy,seed,faults,"));
        assert_eq!(content.lines().count(), 1 + rows.len());
        std::fs::remove_dir_all(&dir).ok();

        let frag = chaos_manifest(&rows);
        assert_eq!(frag.get("rows").unwrap().as_arr().unwrap().len(), 4);
        let first = &frag.get("rows").unwrap().as_arr().unwrap()[0];
        assert_eq!(first.get("audit_violations").unwrap().as_u64().unwrap(), 0);

        let checks = chaos_checks(&exp, &grouped_a[0]);
        assert!(checks.len() >= 2);
        for c in &checks {
            assert!(c.pass, "[FAIL] {} — {}", c.claim, c.measured);
        }
    }
}
