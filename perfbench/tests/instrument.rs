//! The benchmark's instrumentation must not perturb the simulation: a run
//! under the policy decorator and span profiler, with or without a ring
//! trace, yields the same summary fields, per-server series and tuner
//! epochs as a plain run. Fields are compared by name, not through `Debug`.

use anu::cluster::RunResult;
use anu::harness::{fig8, reduced, storm_experiment, Experiment};
use anu::workload::StormKind;
use anu_perfbench::digest::{digest, series_points, summary_fields};
use anu_perfbench::instrument::{SharedLog, SpanLog};
use anu_perfbench::run::run_task;
use std::cell::RefCell;
use std::rc::Rc;

fn assert_same(plain: &RunResult, other: &RunResult, what: &str) {
    for ((name, a), (_, b)) in summary_fields(&plain.summary)
        .into_iter()
        .zip(summary_fields(&other.summary))
    {
        assert_eq!(a, b, "{what}: summary field {name} differs");
    }
    assert_eq!(
        series_points(plain),
        series_points(other),
        "{what}: series differ"
    );
    assert_eq!(plain.epochs, other.epochs, "{what}: epochs differ");
    assert_eq!(digest(plain), digest(other), "{what}: digests differ");
}

fn check_every_policy(exp: &Experiment) {
    for (pi, (label, _)) in exp.policies.iter().enumerate() {
        let plain = run_task(exp, pi, false, None).result;
        let log: SharedLog = Rc::new(RefCell::new(SpanLog::new()));
        let profiled = run_task(exp, pi, false, Some(&log));
        let traced = run_task(exp, pi, true, Some(&log));
        assert_same(
            &plain,
            &profiled.result,
            &format!("{} {label} decorated", exp.name),
        );
        assert_same(
            &plain,
            &traced.result,
            &format!("{} {label} decorated+traced", exp.name),
        );
        assert_eq!(
            traced.integrity,
            Some(Ok(true)),
            "{} {label}: ring integrity",
            exp.name
        );
        assert!(
            log.borrow()
                .spans()
                .iter()
                .any(|s| s.name == "scope.policy_decide"),
            "the profiler recorded no scopes"
        );
    }
}

#[test]
fn instrumentation_does_not_perturb_figure_runs() {
    check_every_policy(&reduced(fig8(3), 3));
}

#[test]
fn instrumentation_does_not_perturb_churn_runs() {
    // Crashes, recoveries and autoscaler transitions exercise every
    // membership callback the decorator forwards.
    check_every_policy(&storm_experiment(StormKind::FlashCrowd, 1.0, 5));
}

#[test]
fn span_self_time_excludes_children() {
    let mut log = SpanLog::new();
    let outer = log.open("outer");
    let inner = log.open("inner");
    std::thread::sleep(std::time::Duration::from_millis(2));
    log.close(inner);
    log.close(outer);
    let spans = log.spans();
    assert_eq!(spans[1].parent, Some(0));
    let self_ns = log.self_ns();
    assert_eq!(self_ns[0], spans[0].dur_ns() - spans[1].dur_ns());
    assert_eq!(self_ns[1], spans[1].dur_ns());
}
