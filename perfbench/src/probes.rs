//! Calibration probes: the cost of one public `anu-des` operation at a
//! measured queue size, timed outside any simulation. Multiplied by the
//! operation counts a run reports, they estimate the DES share of its wall
//! time for the closure row.

use anu::des::{Calendar, FifoStation, Job, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Schedule/pop pairs (or arrive/complete pairs) per probe.
const PAIRS: u64 = 400_000;

/// Largest prefill a probe uses, whatever the run measured.
const MAX_FILL: usize = 1 << 16;

/// Deterministic xorshift for probe deltas; the probe's timing, not its
/// draws, is what it measures.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Nanoseconds per `Calendar::schedule` or `Calendar::pop`, with `pending`
/// events in the queue.
pub fn calendar_ns_per_op(pending: u64) -> f64 {
    let pending = usize::try_from(pending)
        .unwrap_or(MAX_FILL)
        .clamp(1, MAX_FILL);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut cal: Calendar<u64> = Calendar::new();
    for i in 0..pending {
        cal.schedule(SimTime(next(&mut x) % 1_000_000), i as u64);
    }
    let t0 = Instant::now();
    for _ in 0..PAIRS {
        let (at, payload) = cal.pop().expect("the probe keeps the calendar non-empty");
        let delta = SimDuration(1 + next(&mut x) % 1_000_000);
        cal.schedule(at + delta, black_box(payload));
    }
    black_box(cal.pending());
    t0.elapsed().as_nanos() as f64 / (2 * PAIRS) as f64
}

/// Nanoseconds per `FifoStation::arrive` or `FifoStation::complete`, with
/// `depth` jobs waiting.
pub fn station_ns_per_op(depth: u64) -> f64 {
    let depth = usize::try_from(depth)
        .unwrap_or(MAX_FILL)
        .clamp(1, MAX_FILL);
    let mut station: FifoStation<u32> = FifoStation::new();
    let mut now = SimTime(0);
    let job = |now: SimTime, meta: u32| Job {
        arrival: now,
        service: SimDuration(10),
        meta,
    };
    for i in 0..depth {
        station.arrive(now, job(now, i as u32));
    }
    let t0 = Instant::now();
    for _ in 0..PAIRS {
        now += SimDuration(10);
        let (done, _next) = station.complete(now);
        station.arrive(now, job(now, black_box(done.meta)));
    }
    black_box(station.population());
    t0.elapsed().as_nanos() as f64 / (2 * PAIRS) as f64
}
