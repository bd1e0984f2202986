//! Named-field view of a run's simulated outputs, and a digest over it.
//!
//! Equality is judged on data: every [`RunSummary`] field by name, every
//! per-server series bucket and every tuner epoch, never on a `Debug`
//! rendering.

use anu::cluster::{RunResult, RunSummary};
use anu::core::ServerId;
use std::collections::BTreeMap;

/// One summary field's value; floats compare by bit pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// An integer field.
    Int(u64),
    /// A float field, as its IEEE-754 bits.
    Float(u64),
    /// A per-server float map, as `(server, bits)` pairs in id order.
    FloatMap(Vec<(u32, u64)>),
    /// A per-server integer map, in id order.
    IntMap(Vec<(u32, u64)>),
}

fn fmap(m: &BTreeMap<ServerId, f64>) -> Value {
    Value::FloatMap(m.iter().map(|(s, v)| (s.0, v.to_bits())).collect())
}

/// Every [`RunSummary`] field, by name.
pub fn summary_fields(s: &RunSummary) -> Vec<(&'static str, Value)> {
    use Value::{Float as F, Int as I};
    vec![
        ("offered_requests", I(s.offered_requests)),
        ("completed_requests", I(s.completed_requests)),
        ("mean_latency_ms", F(s.mean_latency_ms.to_bits())),
        ("max_latency_ms", F(s.max_latency_ms.to_bits())),
        ("per_server_mean_ms", fmap(&s.per_server_mean_ms)),
        (
            "per_server_requests",
            Value::IntMap(
                s.per_server_requests
                    .iter()
                    .map(|(k, v)| (k.0, *v))
                    .collect(),
            ),
        ),
        ("per_server_utilization", fmap(&s.per_server_utilization)),
        ("migrations", I(s.migrations)),
        ("sim_events", I(s.sim_events)),
        ("late_imbalance_cov", F(s.late_imbalance_cov.to_bits())),
        ("late_mean_latency_ms", F(s.late_mean_latency_ms.to_bits())),
        ("p50_latency_ms", F(s.p50_latency_ms.to_bits())),
        ("p95_latency_ms", F(s.p95_latency_ms.to_bits())),
        ("p99_latency_ms", F(s.p99_latency_ms.to_bits())),
        ("max_queue_depth", I(s.max_queue_depth)),
        ("band_freezes", I(s.band_freezes)),
        ("divergent_freezes", I(s.divergent_freezes)),
        ("factor_clamps", I(s.factor_clamps)),
        ("unavailable_secs", F(s.unavailable_secs.to_bits())),
        ("unavailability_windows", I(s.unavailability_windows)),
        ("mean_rebalance_secs", F(s.mean_rebalance_secs.to_bits())),
        ("max_rebalance_secs", F(s.max_rebalance_secs.to_bits())),
        ("requests_requeued", I(s.requests_requeued)),
        (
            "degraded_capacity_secs",
            F(s.degraded_capacity_secs.to_bits()),
        ),
        ("audit_checks", I(s.audit_checks)),
        ("audit_violations", I(s.audit_violations)),
        ("requests_shed", I(s.requests_shed)),
        ("scale_ups", I(s.scale_ups)),
        ("scale_downs", I(s.scale_downs)),
        ("jain_fairness", F(s.jain_fairness.to_bits())),
        ("completion_fairness", F(s.completion_fairness.to_bits())),
        ("p99_per_file_set_max", F(s.p99_per_file_set_max.to_bits())),
    ]
}

/// Every series bucket as `(server, bucket, sum bits, count, max bits)`.
pub fn series_points(r: &RunResult) -> Vec<(u32, usize, u64, u64, u64)> {
    let mut out = Vec::new();
    for (server, ts) in &r.series {
        for (i, b) in ts.buckets().iter().enumerate() {
            out.push((server.0, i, b.sum.to_bits(), b.count, b.max.to_bits()));
        }
    }
    out
}

fn put_word(buf: &mut Vec<u8>, w: u64) {
    buf.extend_from_slice(&w.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_word(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// FNV-1a over the policy label, every summary field, every series bucket
/// and every epoch record of `r`.
pub fn digest(r: &RunResult) -> u64 {
    let mut buf = Vec::new();
    put_str(&mut buf, &r.policy);
    for (name, value) in summary_fields(&r.summary) {
        put_str(&mut buf, name);
        match value {
            Value::Int(v) | Value::Float(v) => put_word(&mut buf, v),
            Value::FloatMap(m) | Value::IntMap(m) => {
                for (k, v) in m {
                    put_word(&mut buf, u64::from(k));
                    put_word(&mut buf, v);
                }
            }
        }
    }
    for (server, i, sum, count, max) in series_points(r) {
        for w in [u64::from(server), i as u64, sum, count, max] {
            put_word(&mut buf, w);
        }
    }
    for e in &r.epochs {
        for w in [e.index, e.time_s.to_bits(), e.moves] {
            put_word(&mut buf, w);
        }
        if let Some(t) = &e.tune {
            put_word(&mut buf, t.mu_ms.to_bits());
            put_word(&mut buf, u64::from(t.planned));
            for d in &t.decisions {
                put_word(&mut buf, u64::from(d.server.0));
                for f in [d.latency_ms, d.old_share, d.new_share, d.applied_share] {
                    put_word(&mut buf, f.to_bits());
                }
                put_str(&mut buf, d.outcome.name());
            }
        }
    }
    fnv1a(&buf)
}

/// FNV-1a of a byte string, as the repository's golden tests compute it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
    acc
}
