//! Request-level matching under membership churn: a storm cell with the
//! `churn_storm` fault script crashes and drains servers, requeues their
//! requests, sheds at admission and lets the autoscaler commission and
//! retire standbys. Every policy's ring dump must still reconstruct with
//! clean integrity, one span per admitted request, and the same analysis
//! as the reference matcher.

use anu_des::SimTime;
use anu_inspect::{analyze, parse_ring, Analysis, Completion, Dispatch, EpochSummary, RequestSpan};
use anu_trace::{RingSink, TraceEvent, TraceLevel};
use anu_workload::StormKind;

#[path = "../src/reference.rs"]
mod reference;

#[test]
fn churn_storm_spans_match_the_reference_for_every_policy() {
    let seed = anu_harness::DEFAULT_SEED;
    let exp = anu_harness::storm_experiment(StormKind::FlashCrowd, 1.0, seed);
    for (label, kind) in &exp.policies {
        let mut policy = kind.build(&exp.cluster, &exp.workload, exp.seed);
        let mut ring = RingSink::new(TraceLevel::Request);
        let result =
            anu_cluster::run_traced(&exp.cluster, &exp.workload, policy.as_mut(), &mut ring);
        let s = &result.summary;
        assert_eq!(s.audit_violations, 0, "{label}: audit");
        // The cell really churns: crashes requeue work, admission sheds,
        // and the autoscaler changes membership.
        assert!(s.requests_requeued > 0, "{label}: nothing requeued");
        assert!(s.requests_shed > 0, "{label}: nothing shed");
        assert!(
            s.scale_ups > 0,
            "{label}: the autoscaler never commissioned"
        );

        let events = parse_ring(&ring.to_bytes()).expect("well-formed ring dump");
        let a = analyze(&events);
        assert!(a.integrity.clean(), "{label}: {:?}", a.integrity);
        assert_eq!(
            a.spans.len() as u64,
            s.offered_requests - s.requests_shed,
            "{label}: one span per admitted request"
        );
        let buffered = a.spans.iter().filter(|sp| sp.buffered).count();
        let requeued = a.spans.iter().filter(|sp| sp.dispatches.len() > 1).count();
        assert!(buffered > 0, "{label}: no buffered span");
        assert!(requeued > 0, "{label}: no span dispatched more than once");
        assert!(a.faults > 0, "{label}: no crash in the trace");
        assert!(
            a == reference::analyze_reference(&events),
            "{label}: analysis diverged from the reference"
        );
    }
}
