//! The original span matcher, kept only as the reference the open-request
//! index in [`analyze`](crate::analyze) is tested against. It keys every
//! request ever seen and resolves each dispatch or completion to the
//! first span under its key that has not completed yet.
//!
//! Compiled into the library only under `#[cfg(test)]`; integration tests
//! include this file by path.

use super::{Analysis, Completion, Dispatch, EpochSummary, RequestSpan, SimTime, TraceEvent};
use std::collections::BTreeMap;

/// The pre-index `analyze`: same inputs, same [`Analysis`].
pub(crate) fn analyze_reference(events: &[(SimTime, TraceEvent)]) -> Analysis {
    let mut a = Analysis {
        events: events.len(),
        ..Analysis::default()
    };
    let mut by_key: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
    let mut mig_finishes: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut open_markers: BTreeMap<u64, ()> = BTreeMap::new();

    for (at, ev) in events {
        match ev {
            TraceEvent::RequestArrival {
                set,
                buffered,
                server: _,
            } => {
                by_key.entry((*set, at.0)).or_default().push(a.spans.len());
                a.spans.push(RequestSpan {
                    set: *set,
                    arrival_us: at.0,
                    buffered: *buffered,
                    dispatches: Vec::new(),
                    completion: None,
                    stall_us: 0,
                    queue_us: 0,
                    requeue_us: 0,
                    service_us: 0,
                });
            }
            TraceEvent::RequestDispatch {
                server,
                set,
                wait_us,
            } => {
                let matched = at.0.checked_sub(*wait_us).and_then(|arr| {
                    by_key
                        .get(&(*set, arr))?
                        .iter()
                        .find(|&&i| a.spans[i].completion.is_none())
                        .copied()
                });
                match matched {
                    Some(i) => a.spans[i].dispatches.push(Dispatch {
                        t_us: at.0,
                        server: *server,
                        wait_us: *wait_us,
                    }),
                    None => a.integrity.orphan_dispatches += 1,
                }
            }
            TraceEvent::RequestComplete {
                server,
                set,
                latency_us,
                depth: _,
            } => {
                let matched = at.0.checked_sub(*latency_us).and_then(|arr| {
                    by_key
                        .get(&(*set, arr))?
                        .iter()
                        .find(|&&i| a.spans[i].completion.is_none())
                        .copied()
                });
                match matched {
                    Some(i) => {
                        a.spans[i].completion = Some(Completion {
                            t_us: at.0,
                            server: *server,
                            latency_us: *latency_us,
                        });
                    }
                    None => a.integrity.orphan_completes += 1,
                }
            }
            TraceEvent::EpochEnd { epoch, moves, tune } => {
                a.epochs.push(EpochSummary {
                    epoch: *epoch,
                    t_us: at.0,
                    moves: *moves,
                    tune: tune.clone(),
                });
            }
            TraceEvent::MigrationStart { .. } => a.migrations += 1,
            TraceEvent::MigrationFinish { set, .. } => {
                mig_finishes.entry(*set).or_default().push(at.0);
            }
            TraceEvent::Fault { .. } => a.faults += 1,
            TraceEvent::Recover { .. } => a.recovers += 1,
            TraceEvent::Warning {
                code,
                detail,
                count,
            } => a.warnings.push((at.0, *code, detail.clone(), *count)),
            TraceEvent::SpanBegin { id, .. } => {
                open_markers.insert(*id, ());
            }
            TraceEvent::SpanEnd { id } if open_markers.remove(id).is_none() => {
                a.integrity.orphan_span_ends += 1;
            }
            TraceEvent::SpanEnd { .. } => {}
            _ => {}
        }
    }
    a.integrity.unclosed_spans = open_markers.len() as u64;

    for span in &mut a.spans {
        let Some(done) = span.completion else {
            a.integrity.open_requests += 1;
            continue;
        };
        let first_seg_end = span.dispatches.first().map_or(done.t_us, |d| d.t_us);
        if span.buffered {
            let released = mig_finishes
                .get(&span.set)
                .and_then(|ts| ts.iter().find(|&&t| t >= span.arrival_us))
                .copied()
                .unwrap_or(span.arrival_us);
            span.stall_us = released.min(first_seg_end).saturating_sub(span.arrival_us);
        }
        span.queue_us = first_seg_end
            .saturating_sub(span.arrival_us)
            .saturating_sub(span.stall_us);
        if let (Some(first), Some(last)) = (span.dispatches.first(), span.dispatches.last()) {
            span.requeue_us = last.t_us.saturating_sub(first.t_us);
            span.service_us = done.t_us.saturating_sub(last.t_us);
        }
        if span.attributed_us() != done.latency_us {
            a.integrity.attribution_mismatches += 1;
        }
        a.attribution.stall_us += span.stall_us;
        a.attribution.queue_us += span.queue_us;
        a.attribution.requeue_us += span.requeue_us;
        a.attribution.service_us += span.service_us;
        a.attribution.latency_us += done.latency_us;
        a.attribution.completed += 1;
    }
    a
}
