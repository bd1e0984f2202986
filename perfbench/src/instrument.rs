//! Instrumentation that wraps the simulator's public entry points from the
//! outside: an in-memory span log, a [`PlacementPolicy`] decorator that times
//! every callback, and a [`RunProfiler`] that turns the world's profiler
//! scopes into spans.
//!
//! Nothing here touches simulated time or the calendar. The decorator only
//! forwards each call and reads the wall clock around it, so a decorated run
//! simulates exactly the trajectory of a plain one (`tests/instrument.rs`
//! pins that field by field).

use anu::cluster::{Assignment, ClusterView, MoveSet, PlacementPolicy, ProfileScope, RunProfiler};
use anu::core::{FileSetId, LoadReport, ServerId, TuneEpoch};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// One closed span: a named wall-clock interval and the span that was open
/// when it began.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Position in the log; stable for the log's lifetime.
    pub id: usize,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Layer boundary name, e.g. `policy.on_tick` or `scope.metrics_update`.
    pub name: &'static str,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    /// Nanoseconds since the log was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory for one process; written out once at the end.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Spans as JSON lines, one object each.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, parent, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// The span log shared by the decorator, the profiler and the task runner
/// of one thread.
pub type SharedLog = Rc<RefCell<SpanLog>>;

/// Per-policy counts the decorator keeps beside its spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolicyCounts {
    /// `on_tick` calls that returned at least one move.
    pub useful_ticks: u64,
    /// Moves returned by every callback together.
    pub moves_ordered: u64,
}

/// A [`PlacementPolicy`] that forwards every call to `inner` and records a
/// span around each decision callback.
pub struct TimedPolicy {
    inner: Box<dyn PlacementPolicy>,
    log: SharedLog,
    counts: PolicyCounts,
}

impl TimedPolicy {
    /// Wrap `inner`, recording into `log`.
    pub fn new(inner: Box<dyn PlacementPolicy>, log: SharedLog) -> Self {
        TimedPolicy {
            inner,
            log,
            counts: PolicyCounts::default(),
        }
    }

    /// What the wrapped policy decided so far.
    pub fn counts(&self) -> PolicyCounts {
        self.counts
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn PlacementPolicy) -> T) -> T {
        let id = self.log.borrow_mut().open(name);
        let out = f(self.inner.as_mut());
        self.log.borrow_mut().close(id);
        out
    }

    fn moves(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut dyn PlacementPolicy) -> Vec<MoveSet>,
    ) -> Vec<MoveSet> {
        let moves = self.timed(name, f);
        self.counts.moves_ordered += moves.len() as u64;
        moves
    }
}

impl PlacementPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial(&mut self, view: &ClusterView, file_sets: &[FileSetId]) -> Assignment {
        self.timed("policy.initial", |p| p.initial(view, file_sets))
    }

    fn on_tick(
        &mut self,
        view: &ClusterView,
        reports: &[LoadReport],
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        let moves = self.moves("policy.on_tick", |p| p.on_tick(view, reports, assignment));
        if !moves.is_empty() {
            self.counts.useful_ticks += 1;
        }
        moves
    }

    fn on_fail(
        &mut self,
        view: &ClusterView,
        failed: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        self.moves("policy.membership", |p| p.on_fail(view, failed, assignment))
    }

    fn on_recover(
        &mut self,
        view: &ClusterView,
        recovered: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        self.moves("policy.membership", |p| {
            p.on_recover(view, recovered, assignment)
        })
    }

    fn on_commission(
        &mut self,
        view: &ClusterView,
        commissioned: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        self.moves("policy.membership", |p| {
            p.on_commission(view, commissioned, assignment)
        })
    }

    fn on_decommission(
        &mut self,
        view: &ClusterView,
        decommissioned: ServerId,
        assignment: &Assignment,
    ) -> Vec<MoveSet> {
        self.moves("policy.membership", |p| {
            p.on_decommission(view, decommissioned, assignment)
        })
    }

    fn take_epoch(&mut self) -> Option<TuneEpoch> {
        self.inner.take_epoch()
    }

    fn on_delegate_fail(&mut self, pause_ticks: u32) {
        self.inner.on_delegate_fail(pause_ticks);
    }

    fn audit(&self, assignment: &Assignment, in_flight: &[FileSetId]) -> Vec<String> {
        self.inner.audit(assignment, in_flight)
    }
}

/// A [`RunProfiler`] that records each world scope as a span.
pub struct SpanProfiler {
    log: SharedLog,
    open: Option<usize>,
}

impl SpanProfiler {
    /// Record into `log`.
    pub fn new(log: SharedLog) -> Self {
        SpanProfiler { log, open: None }
    }
}

impl RunProfiler for SpanProfiler {
    fn enter(&mut self, scope: ProfileScope) {
        let name = match scope {
            ProfileScope::PolicyDecide => "scope.policy_decide",
            ProfileScope::MetricsUpdate => "scope.metrics_update",
        };
        self.open = Some(self.log.borrow_mut().open(name));
    }

    fn exit(&mut self, _scope: ProfileScope) {
        if let Some(id) = self.open.take() {
            self.log.borrow_mut().close(id);
        }
    }
}
