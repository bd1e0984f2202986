//! A single-server FIFO service station.
//!
//! YACSIM's resources with a first-in-first-out queuing discipline are the
//! only service model the paper's simulator uses (§7). [`FifoStation`] is a
//! passive building block: it never touches the calendar itself. The world
//! drives it — on job arrival it reports whether service starts immediately
//! (so the world schedules the completion event); on completion it hands
//! back the finished job and the next one to start. This keeps borrows
//! simple and the event loop in one place.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A job queued at a station.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Job<M> {
    /// When the job arrived at the station (for latency accounting; this is
    /// the *original* arrival, preserved across retries/migrations).
    pub arrival: SimTime,
    /// Service demand at this station (already divided by server speed).
    pub service: SimDuration,
    /// Caller-defined metadata (e.g. file-set id).
    pub meta: M,
}

/// What to do after an event, as reported by the station.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StartService {
    /// The station was idle; schedule a completion at the given time.
    At(SimTime),
    /// The job joined the queue; no event to schedule.
    Queued,
}

/// A single-server FIFO queue with utilization accounting.
#[derive(Clone, Debug)]
pub struct FifoStation<M> {
    queue: VecDeque<Job<M>>,
    in_service: Option<Job<M>>,
    /// Accumulated busy time.
    busy: SimDuration,
    /// When the current service started (valid while `in_service`).
    service_start: SimTime,
    completed: u64,
    arrived: u64,
}

impl<M> Default for FifoStation<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> FifoStation<M> {
    /// An idle, empty station.
    pub fn new() -> Self {
        FifoStation {
            queue: VecDeque::new(),
            in_service: None,
            busy: SimDuration::ZERO,
            service_start: SimTime::ZERO,
            completed: 0,
            arrived: 0,
        }
    }

    /// Is a job currently in service?
    pub fn is_busy(&self) -> bool {
        self.in_service.is_some()
    }

    /// Jobs waiting (excluding the one in service).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Jobs at the station including the one in service.
    pub fn population(&self) -> usize {
        self.queue.len() + usize::from(self.in_service.is_some())
    }

    /// The job currently in service, if any (read-only: tracing needs to
    /// identify the request that just entered service).
    pub fn in_service(&self) -> Option<&Job<M>> {
        self.in_service.as_ref()
    }

    /// Total jobs that have arrived / completed.
    pub fn counters(&self) -> (u64, u64) {
        (self.arrived, self.completed)
    }

    /// Accumulated busy time (through the last completion).
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// A job arrives at time `now`. If the station was idle it enters
    /// service immediately and the completion time is returned.
    pub fn arrive(&mut self, now: SimTime, job: Job<M>) -> StartService {
        self.arrived += 1;
        if self.in_service.is_none() {
            let done = now + job.service;
            self.service_start = now;
            self.in_service = Some(job);
            StartService::At(done)
        } else {
            self.queue.push_back(job);
            StartService::Queued
        }
    }

    /// The in-service job completes at time `now`. Returns the finished job
    /// and, if another job starts, its completion time.
    ///
    /// # Panics
    /// Panics if no job is in service — a completion event fired for an
    /// idle station indicates a world/event-loop bug.
    pub fn complete(&mut self, now: SimTime) -> (Job<M>, Option<SimTime>) {
        let job = self
            .in_service
            .take()
            // anu-lint: allow(panic) -- a Complete event is only scheduled while a job is in service
            .expect("completion event for idle station");
        self.busy += now.since(self.service_start);
        self.completed += 1;
        let next = self.queue.pop_front().map(|j| {
            let done = now + j.service;
            self.service_start = now;
            self.in_service = Some(j);
            done
        });
        (job, next)
    }

    /// Drain every job (queued and in-service), e.g. when the server fails.
    /// The in-service job is returned first. Utilization accounting charges
    /// the partial service time up to `now`.
    pub fn drain(&mut self, now: SimTime) -> Vec<Job<M>> {
        let mut out = Vec::with_capacity(self.population());
        if let Some(j) = self.in_service.take() {
            self.busy += now.since(self.service_start);
            out.push(j);
        }
        out.extend(self.queue.drain(..));
        out
    }

    /// Utilization over `[0, now]`: busy time / elapsed time. Counts the
    /// in-progress service up to `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        let mut busy = self.busy;
        if self.in_service.is_some() {
            busy += now.since(self.service_start);
        }
        busy.as_secs_f64() / now.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(arr: u64, svc: u64) -> Job<u32> {
        Job {
            arrival: SimTime(arr),
            service: SimDuration(svc),
            meta: 0,
        }
    }

    #[test]
    fn idle_station_starts_immediately() {
        let mut st = FifoStation::new();
        match st.arrive(SimTime(10), job(10, 5)) {
            StartService::At(t) => assert_eq!(t, SimTime(15)),
            StartService::Queued => panic!("should start immediately"),
        }
        assert!(st.is_busy());
        assert_eq!(st.population(), 1);
    }

    #[test]
    fn busy_station_queues() {
        let mut st = FifoStation::new();
        st.arrive(SimTime(0), job(0, 10));
        assert_eq!(st.arrive(SimTime(1), job(1, 10)), StartService::Queued);
        assert_eq!(st.queue_len(), 1);
        assert_eq!(st.population(), 2);
    }

    #[test]
    fn fifo_order_and_completion_chain() {
        let mut st = FifoStation::new();
        st.arrive(
            SimTime(0),
            Job {
                arrival: SimTime(0),
                service: SimDuration(10),
                meta: 1u32,
            },
        );
        st.arrive(
            SimTime(2),
            Job {
                arrival: SimTime(2),
                service: SimDuration(5),
                meta: 2,
            },
        );
        st.arrive(
            SimTime(3),
            Job {
                arrival: SimTime(3),
                service: SimDuration(7),
                meta: 3,
            },
        );
        let (j1, next) = st.complete(SimTime(10));
        assert_eq!(j1.meta, 1);
        assert_eq!(next, Some(SimTime(15)));
        let (j2, next) = st.complete(SimTime(15));
        assert_eq!(j2.meta, 2);
        assert_eq!(next, Some(SimTime(22)));
        let (j3, next) = st.complete(SimTime(22));
        assert_eq!(j3.meta, 3);
        assert_eq!(next, None);
        assert!(!st.is_busy());
        assert_eq!(st.counters(), (3, 3));
        assert_eq!(st.busy_time(), SimDuration(22));
    }

    #[test]
    #[should_panic(expected = "completion event for idle station")]
    fn complete_on_idle_panics() {
        let mut st: FifoStation<u32> = FifoStation::new();
        st.complete(SimTime(1));
    }

    #[test]
    fn drain_returns_all_jobs() {
        let mut st = FifoStation::new();
        st.arrive(
            SimTime(0),
            Job {
                arrival: SimTime(0),
                service: SimDuration(10),
                meta: 1u32,
            },
        );
        st.arrive(
            SimTime(1),
            Job {
                arrival: SimTime(1),
                service: SimDuration(5),
                meta: 2,
            },
        );
        let drained = st.drain(SimTime(4));
        assert_eq!(
            drained.iter().map(|j| j.meta).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(!st.is_busy());
        assert_eq!(st.population(), 0);
        // Partial service charged: 4 of 10.
        assert_eq!(st.busy_time(), SimDuration(4));
    }

    #[test]
    fn utilization_counts_in_progress() {
        let mut st = FifoStation::new();
        st.arrive(SimTime::ZERO, job(0, 1_000_000));
        assert!((st.utilization(SimTime(500_000)) - 1.0).abs() < 1e-9);
        st.complete(SimTime(1_000_000));
        assert!((st.utilization(SimTime(2_000_000)) - 0.5).abs() < 1e-9);
        assert_eq!(st.utilization(SimTime::ZERO), 0.0);
    }
}
