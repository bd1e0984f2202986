//! The binary ring-buffer sink: fixed-width event records, decoded to
//! JSONL only at flush.
//!
//! [`JsonlBuffer`] pays the full JSON rendering cost — field-name
//! strings, number formatting, per-line `String` allocation — *inside*
//! the simulation hot loop, once per event. That tax dominated traced
//! runs (97% throughput loss at request level). [`RingSink`] moves all
//! of it out of the loop: [`record`] packs each [`TraceEvent`] into a
//! fixed-width binary record — six `u64` words appended to a chain of
//! preallocated segments — and the JSONL bytes are produced only when the
//! caller asks for them, after the run's wall time has been measured.
//!
//! The decode path reconstructs each `TraceEvent` value and renders it
//! through the same [`render_line`] function `JsonlBuffer` uses, so the
//! flushed lines are byte-identical to a `JsonlBuffer` recording of the
//! same run — the committed trace goldens and the jobs-1-vs-N
//! determinism gates hold unchanged over the binary sink.
//!
//! ## Record layout (pinned by the `ring_golden` fixture test)
//!
//! One record is [`WORDS_PER_RECORD`] = 6 little-endian `u64` words:
//!
//! | word | contents                                                    |
//! |------|-------------------------------------------------------------|
//! | 0    | variant tag (bits 0–7) \| presence flags (bits 8–15)        |
//! | 1    | simulated timestamp `t_us`                                  |
//! | 2–5  | payload words `a`–`d`, variant-specific, zero when unused   |
//!
//! Flag bit 8 marks an `Option` payload as present (`RequestArrival`'s
//! server, `EpochEnd`'s tune record, `MigrationStart`/`Flush`'s source,
//! `SpanBegin`'s parent). Strings live in a shared byte arena and ride
//! in a payload word as `offset << 32 | len`; `f64` payloads travel via
//! `to_bits`. The one non-fixed-width payload, `EpochEnd`'s optional
//! [`TuneEpoch`] decision record, is cloned into a side table with its
//! index in a payload word — it appears at most once per tuning epoch,
//! so the hot request-level path stays allocation-free.
//!
//! Segments hold [`SEG_RECORDS`] records each and are written through
//! preallocated capacity — an append never copies existing records. A
//! fresh segment is allocated once every `SEG_RECORDS` events, which is
//! the only allocation the recording path performs.
//!
//! [`record`]: TraceSink::record
//! [`render_line`]: crate::render_line

use crate::event::{TraceEvent, WarnCode};
use crate::{render_line, TraceLevel, TraceSink};
use anu_core::{ServerId, TuneDecision, TuneEpoch, TuneOutcome};
use anu_des::SimTime;

/// Fixed width of one encoded record, in `u64` words.
pub const WORDS_PER_RECORD: usize = 6;

/// Records per preallocated segment (6 words × 8 bytes × 8192 = 384 KiB).
pub const SEG_RECORDS: usize = 8192;

const SEG_WORDS: usize = SEG_RECORDS * WORDS_PER_RECORD;

/// Variant tags, in declaration order of [`TraceEvent`]. Pinned by the
/// golden layout fixture — append new variants, never renumber.
const TAG_ARRIVAL: u64 = 0;
const TAG_DISPATCH: u64 = 1;
const TAG_COMPLETE: u64 = 2;
const TAG_QUEUE_DEPTH: u64 = 3;
const TAG_EPOCH_BEGIN: u64 = 4;
const TAG_EPOCH_END: u64 = 5;
const TAG_MIGRATION_START: u64 = 6;
const TAG_MIGRATION_FLUSH: u64 = 7;
const TAG_MIGRATION_FINISH: u64 = 8;
const TAG_FAULT: u64 = 9;
const TAG_RECOVER: u64 = 10;
const TAG_SLOWDOWN: u64 = 11;
const TAG_DELEGATE_FAIL: u64 = 12;
const TAG_REPORT_FAULT: u64 = 13;
const TAG_WARNING: u64 = 14;
const TAG_SPAN_BEGIN: u64 = 15;
const TAG_SPAN_END: u64 = 16;

/// Presence flag for the variant's `Option` payload, stored in word 0.
const FLAG_SOME: u64 = 1 << 8;

/// Binary trace sink: records events as fixed-width words, renders JSONL
/// only on [`decode_lines`] / [`into_lines`].
///
/// Deterministic like every sink — the encoded words are a pure function
/// of the event stream, and the decoded lines are byte-identical to what
/// a [`JsonlBuffer`] at the same level would have captured.
///
/// [`decode_lines`]: RingSink::decode_lines
/// [`into_lines`]: RingSink::into_lines
/// [`JsonlBuffer`]: crate::JsonlBuffer
#[derive(Clone, Debug)]
pub struct RingSink {
    level: TraceLevel,
    /// Segment chain; every segment has capacity `SEG_WORDS` and only the
    /// last is partially filled.
    segs: Vec<Vec<u64>>,
    /// Total records encoded.
    records: usize,
    /// Byte arena for string payloads (warning codes/details, span
    /// labels), referenced as `offset << 32 | len` words.
    text: Vec<u8>,
    /// Side table for the one variable-width payload: `EpochEnd`'s
    /// optional tuner decision record, referenced by index.
    tunes: Vec<TuneEpoch>,
}

impl RingSink {
    /// A sink capturing events up to `level`, with the first segment
    /// preallocated.
    pub fn new(level: TraceLevel) -> Self {
        RingSink {
            level,
            segs: vec![Vec::with_capacity(SEG_WORDS)],
            records: 0,
            text: Vec::new(),
            tunes: Vec::new(),
        }
    }

    /// Number of records encoded so far.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Has nothing been recorded yet?
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The raw words of record `idx`, for layout tests and tooling.
    pub fn record_words(&self, idx: usize) -> Option<[u64; WORDS_PER_RECORD]> {
        if idx >= self.records {
            return None;
        }
        let seg = &self.segs[idx / SEG_RECORDS];
        let at = (idx % SEG_RECORDS) * WORDS_PER_RECORD;
        let mut w = [0u64; WORDS_PER_RECORD];
        w.copy_from_slice(&seg[at..at + WORDS_PER_RECORD]);
        Some(w)
    }

    /// The string arena backing packed `offset << 32 | len` payload words.
    pub fn text_bytes(&self) -> &[u8] {
        &self.text
    }

    /// Intern `s` into the text arena, returning the packed reference.
    fn pack_str(&mut self, s: &str) -> u64 {
        let off = self.text.len() as u64;
        self.text.extend_from_slice(s.as_bytes());
        off << 32 | s.len() as u64
    }

    /// Slice the text arena by a packed reference. Encoded offsets always
    /// point at valid UTF-8 (they were copied from `&str`s), so a
    /// corrupt reference decodes to an empty string rather than panicking.
    fn unpack_str(&self, packed: u64) -> &str {
        let (off, len) = ((packed >> 32) as usize, (packed & 0xFFFF_FFFF) as usize);
        self.text
            .get(off..off + len)
            .and_then(|b| std::str::from_utf8(b).ok())
            .unwrap_or("")
    }

    /// Append one encoded record.
    #[inline]
    fn push(&mut self, tag: u64, flags: u64, t_us: u64, payload: [u64; 4]) {
        // anu-lint ok: the last segment always exists (new() seeds one).
        if self.segs.last().is_some_and(|s| s.len() == SEG_WORDS) {
            self.segs.push(Vec::with_capacity(SEG_WORDS));
        }
        if let Some(seg) = self.segs.last_mut() {
            seg.extend_from_slice(&[
                tag | flags,
                t_us,
                payload[0],
                payload[1],
                payload[2],
                payload[3],
            ]);
        }
        self.records += 1;
    }

    /// Every record's words, in emission order.
    fn records_words(&self) -> impl Iterator<Item = &[u64]> {
        self.segs
            .iter()
            .flat_map(|seg| seg.chunks_exact(WORDS_PER_RECORD))
    }

    /// Decode one record's words back into its event value and timestamp.
    fn decode_record(&self, words: &[u64]) -> (SimTime, TraceEvent) {
        let tag = words[0] & 0xFF;
        let some = words[0] & FLAG_SOME != 0;
        let at = SimTime(words[1]);
        let [a, b, c, d] = [words[2], words[3], words[4], words[5]];
        let ev = match tag {
            TAG_ARRIVAL => TraceEvent::RequestArrival {
                server: some.then_some(a as u32),
                set: b,
                buffered: c != 0,
            },
            TAG_DISPATCH => TraceEvent::RequestDispatch {
                server: a as u32,
                set: b,
                wait_us: c,
            },
            TAG_COMPLETE => TraceEvent::RequestComplete {
                server: a as u32,
                set: b,
                latency_us: c,
                depth: d,
            },
            TAG_QUEUE_DEPTH => TraceEvent::QueueDepth {
                server: a as u32,
                depth: b,
            },
            TAG_EPOCH_BEGIN => TraceEvent::EpochBegin { epoch: a },
            TAG_EPOCH_END => TraceEvent::EpochEnd {
                epoch: a,
                moves: b,
                tune: some.then(|| self.tunes[c as usize].clone()),
            },
            TAG_MIGRATION_START => TraceEvent::MigrationStart {
                set: a,
                from: some.then_some(b as u32),
                to: c as u32,
            },
            TAG_MIGRATION_FLUSH => TraceEvent::MigrationFlush {
                set: a,
                from: some.then_some(b as u32),
                done_us: c,
            },
            TAG_MIGRATION_FINISH => TraceEvent::MigrationFinish {
                set: a,
                to: b as u32,
                buffered: c,
            },
            TAG_FAULT => TraceEvent::Fault {
                server: a as u32,
                drained: b,
            },
            TAG_RECOVER => TraceEvent::Recover { server: a as u32 },
            TAG_SLOWDOWN => TraceEvent::Slowdown {
                server: a as u32,
                factor: f64::from_bits(b),
                until_us: c,
            },
            TAG_DELEGATE_FAIL => TraceEvent::DelegateFail {
                pause_ticks: a as u32,
            },
            TAG_REPORT_FAULT => TraceEvent::ReportFault {
                server: a as u32,
                delayed: b != 0,
            },
            TAG_WARNING => TraceEvent::Warning {
                // Unknown ids (corrupt bytes) fall back to the first code
                // rather than panicking, mirroring `unpack_str`'s
                // tolerance.
                code: WarnCode::from_id(a).unwrap_or(WarnCode::Invariant),
                detail: self.unpack_str(b).to_string(),
                count: c,
            },
            TAG_SPAN_BEGIN => TraceEvent::SpanBegin {
                id: a,
                parent: some.then_some(b),
                label: self.unpack_str(c).to_string(),
            },
            TAG_SPAN_END => TraceEvent::SpanEnd { id: a },
            _ => unreachable!("unknown ring record tag {tag}"),
        };
        (at, ev)
    }

    /// Decode every record back to `(timestamp, event)`, in emission order.
    pub fn decode_events(&self) -> Vec<(SimTime, TraceEvent)> {
        let mut out = Vec::with_capacity(self.records);
        out.extend(self.records_words().map(|w| self.decode_record(w)));
        out
    }

    /// Render every record as its canonical JSONL line, in emission order.
    /// Byte-identical to a [`JsonlBuffer`] capture of the same events.
    ///
    /// [`JsonlBuffer`]: crate::JsonlBuffer
    pub fn decode_lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.records);
        out.extend(self.records_words().map(|w| {
            let (at, ev) = self.decode_record(w);
            render_line(at, &ev)
        }));
        out
    }

    /// Consume the sink, yielding the rendered JSONL lines.
    pub fn into_lines(self) -> Vec<String> {
        self.decode_lines()
    }

    /// Serialize the sink to a self-describing byte buffer (the `.ring`
    /// dump format read by `anu-inspect`).
    ///
    /// Layout: a six-word header `[magic, version, level, records,
    /// text_len, tunes]`, then the record words, the text arena padded to
    /// an 8-byte boundary, and each [`TuneEpoch`] flattened as
    /// `[mu_ms_bits, planned, n_decisions]` followed by six words per
    /// decision. All words little-endian `u64`; no I/O happens here —
    /// callers own the file write.
    pub fn to_bytes(&self) -> Vec<u8> {
        let tune_words: usize = self.tunes.iter().map(|t| 3 + 6 * t.decisions.len()).sum();
        let mut out = Vec::with_capacity(
            (6 + self.records * WORDS_PER_RECORD + tune_words) * 8 + self.text.len() + 8,
        );
        let word = |buf: &mut Vec<u8>, w: u64| buf.extend_from_slice(&w.to_le_bytes());
        word(&mut out, RING_MAGIC);
        word(&mut out, RING_VERSION);
        word(&mut out, self.level as u64);
        word(&mut out, self.records as u64);
        word(&mut out, self.text.len() as u64);
        word(&mut out, self.tunes.len() as u64);
        for &w in self.segs.iter().flatten() {
            word(&mut out, w);
        }
        out.extend_from_slice(&self.text);
        while out.len() % 8 != 0 {
            out.push(0);
        }
        for tune in &self.tunes {
            word(&mut out, tune.mu_ms.to_bits());
            word(&mut out, u64::from(tune.planned));
            word(&mut out, tune.decisions.len() as u64);
            for dec in &tune.decisions {
                word(&mut out, u64::from(dec.server.0));
                word(&mut out, dec.latency_ms.to_bits());
                word(&mut out, dec.old_share.to_bits());
                word(&mut out, dec.new_share.to_bits());
                word(&mut out, dec.applied_share.to_bits());
                word(&mut out, outcome_id(dec.outcome));
            }
        }
        out
    }

    /// Rebuild a sink from [`to_bytes`] output. Returns `None` on any
    /// structural problem — wrong magic or version, truncation, an
    /// unknown record tag or tune outcome, or a tune index pointing past
    /// the side table — so corrupt dumps fail cleanly instead of
    /// panicking in the decoder.
    ///
    /// [`to_bytes`]: RingSink::to_bytes
    pub fn from_bytes(bytes: &[u8]) -> Option<RingSink> {
        let mut cur = Cursor { bytes, at: 0 };
        if cur.word()? != RING_MAGIC || cur.word()? != RING_VERSION {
            return None;
        }
        let level = match cur.word()? {
            0 => TraceLevel::Off,
            1 => TraceLevel::Epoch,
            2 => TraceLevel::Request,
            _ => return None,
        };
        let records = usize::try_from(cur.word()?).ok()?;
        let text_len = usize::try_from(cur.word()?).ok()?;
        let n_tunes = usize::try_from(cur.word()?).ok()?;

        // Records, re-chunked into fixed-capacity segments so the rebuilt
        // sink honors the same never-reallocate invariant as a live one.
        // One pass checks every tag and every tune reference (it must land
        // inside the side table, or `decode_record` would index out of
        // bounds) while it copies the words.
        const RECORD_BYTES: usize = WORDS_PER_RECORD * 8;
        let region = cur.take(records.checked_mul(RECORD_BYTES)?)?;
        let mut segs = Vec::with_capacity(records.div_ceil(SEG_RECORDS).max(1));
        for seg_bytes in region.chunks(SEG_WORDS * 8) {
            let mut seg = Vec::with_capacity(SEG_WORDS);
            for rec in seg_bytes.chunks_exact(RECORD_BYTES) {
                let mut w = [0u64; WORDS_PER_RECORD];
                for (word, b) in w.iter_mut().zip(rec.chunks_exact(8)) {
                    *word = u64::from_le_bytes(b.try_into().ok()?);
                }
                let tag = w[0] & 0xFF;
                if tag > TAG_SPAN_END
                    || (tag == TAG_EPOCH_END
                        && w[0] & FLAG_SOME != 0
                        && !usize::try_from(w[4]).is_ok_and(|i| i < n_tunes))
                {
                    return None;
                }
                seg.extend_from_slice(&w);
            }
            segs.push(seg);
        }
        if segs.is_empty() {
            segs.push(Vec::with_capacity(SEG_WORDS));
        }

        let text = cur.take(text_len)?.to_vec();
        cur.at += (8 - cur.at % 8) % 8;

        // Every flattened tune takes at least three words, so the count
        // the header claims cannot outrun the bytes that carry it.
        let mut tunes = Vec::with_capacity(n_tunes.min(bytes.len() / 24));
        for _ in 0..n_tunes {
            let mu_ms = f64::from_bits(cur.word()?);
            let planned = cur.word()? != 0;
            let n_dec = usize::try_from(cur.word()?).ok()?;
            let mut decisions = Vec::with_capacity(n_dec.min(1 << 16));
            for _ in 0..n_dec {
                decisions.push(TuneDecision {
                    server: ServerId(u32::try_from(cur.word()?).ok()?),
                    latency_ms: f64::from_bits(cur.word()?),
                    old_share: f64::from_bits(cur.word()?),
                    new_share: f64::from_bits(cur.word()?),
                    applied_share: f64::from_bits(cur.word()?),
                    outcome: outcome_from_id(cur.word()?)?,
                });
            }
            tunes.push(TuneEpoch {
                mu_ms,
                planned,
                decisions,
            });
        }

        Some(RingSink {
            level,
            segs,
            records,
            text,
            tunes,
        })
    }
}

/// `b"ANURING1"` read as a little-endian word — the dump file magic.
const RING_MAGIC: u64 = u64::from_le_bytes(*b"ANURING1");
/// Bump when the byte layout changes; readers reject unknown versions.
const RING_VERSION: u64 = 1;

/// [`TuneOutcome`] variants in declaration order; positions are the
/// on-disk ids, pinned like the record tags — append, never renumber.
const OUTCOMES: [TuneOutcome; 6] = [
    TuneOutcome::Scaled,
    TuneOutcome::Clamped,
    TuneOutcome::Floored,
    TuneOutcome::FrozenBand,
    TuneOutcome::FrozenDivergent,
    TuneOutcome::NoReport,
];

fn outcome_id(o: TuneOutcome) -> u64 {
    OUTCOMES.iter().position(|&x| x == o).unwrap_or(0) as u64
}

fn outcome_from_id(id: u64) -> Option<TuneOutcome> {
    OUTCOMES.get(usize::try_from(id).ok()?).copied()
}

/// Bounds-checked little-endian word reader over a dump buffer.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn word(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(slice)
    }
}

impl TraceSink for RingSink {
    fn level(&self) -> TraceLevel {
        self.level
    }

    fn record(&mut self, at: SimTime, event: &TraceEvent) {
        // Level filtering happens *before* the encode match: a filtered
        // event costs one integer compare — no words appended, no string
        // interned, no tune record cloned. (Emission sites already gate
        // on the site level via `Tracer::enabled`; this second gate keys
        // on the event's intrinsic level, so a directly-driven sink
        // behaves identically to a Tracer-driven one.)
        if event.level() > self.level {
            return;
        }
        let t = at.0;
        match event {
            TraceEvent::RequestArrival {
                server,
                set,
                buffered,
            } => self.push(
                TAG_ARRIVAL,
                flag(server.is_some()),
                t,
                [
                    u64::from(server.unwrap_or(0)),
                    *set,
                    u64::from(*buffered),
                    0,
                ],
            ),
            TraceEvent::RequestDispatch {
                server,
                set,
                wait_us,
            } => self.push(TAG_DISPATCH, 0, t, [u64::from(*server), *set, *wait_us, 0]),
            TraceEvent::RequestComplete {
                server,
                set,
                latency_us,
                depth,
            } => self.push(
                TAG_COMPLETE,
                0,
                t,
                [u64::from(*server), *set, *latency_us, *depth],
            ),
            TraceEvent::QueueDepth { server, depth } => {
                self.push(TAG_QUEUE_DEPTH, 0, t, [u64::from(*server), *depth, 0, 0]);
            }
            TraceEvent::EpochBegin { epoch } => {
                self.push(TAG_EPOCH_BEGIN, 0, t, [*epoch, 0, 0, 0]);
            }
            TraceEvent::EpochEnd { epoch, moves, tune } => {
                let idx = match tune {
                    Some(rec) => {
                        self.tunes.push(rec.clone());
                        self.tunes.len() as u64 - 1
                    }
                    None => 0,
                };
                self.push(
                    TAG_EPOCH_END,
                    flag(tune.is_some()),
                    t,
                    [*epoch, *moves, idx, 0],
                );
            }
            TraceEvent::MigrationStart { set, from, to } => self.push(
                TAG_MIGRATION_START,
                flag(from.is_some()),
                t,
                [*set, u64::from(from.unwrap_or(0)), u64::from(*to), 0],
            ),
            TraceEvent::MigrationFlush { set, from, done_us } => self.push(
                TAG_MIGRATION_FLUSH,
                flag(from.is_some()),
                t,
                [*set, u64::from(from.unwrap_or(0)), *done_us, 0],
            ),
            TraceEvent::MigrationFinish { set, to, buffered } => self.push(
                TAG_MIGRATION_FINISH,
                0,
                t,
                [*set, u64::from(*to), *buffered, 0],
            ),
            TraceEvent::Fault { server, drained } => {
                self.push(TAG_FAULT, 0, t, [u64::from(*server), *drained, 0, 0]);
            }
            TraceEvent::Recover { server } => {
                self.push(TAG_RECOVER, 0, t, [u64::from(*server), 0, 0, 0]);
            }
            TraceEvent::Slowdown {
                server,
                factor,
                until_us,
            } => self.push(
                TAG_SLOWDOWN,
                0,
                t,
                [u64::from(*server), factor.to_bits(), *until_us, 0],
            ),
            TraceEvent::DelegateFail { pause_ticks } => {
                self.push(TAG_DELEGATE_FAIL, 0, t, [u64::from(*pause_ticks), 0, 0, 0]);
            }
            TraceEvent::ReportFault { server, delayed } => self.push(
                TAG_REPORT_FAULT,
                0,
                t,
                [u64::from(*server), u64::from(*delayed), 0, 0],
            ),
            TraceEvent::Warning {
                code,
                detail,
                count,
            } => {
                // Codes are interned enum ids (the `WarnCode` decode
                // table); only the free-form detail rides in the arena.
                let d = self.pack_str(detail);
                self.push(TAG_WARNING, 0, t, [code.id(), d, *count, 0]);
            }
            TraceEvent::SpanBegin { id, parent, label } => {
                let l = self.pack_str(label);
                self.push(
                    TAG_SPAN_BEGIN,
                    flag(parent.is_some()),
                    t,
                    [*id, parent.unwrap_or(0), l, 0],
                );
            }
            TraceEvent::SpanEnd { id } => {
                self.push(TAG_SPAN_END, 0, t, [*id, 0, 0, 0]);
            }
        }
    }
}

/// `FLAG_SOME` when the variant's optional payload is present.
#[inline]
fn flag(some: bool) -> u64 {
    if some {
        FLAG_SOME
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JsonlBuffer, Tracer};

    fn sample_events() -> Vec<(SimTime, TraceEvent)> {
        vec![
            (
                SimTime(10),
                TraceEvent::RequestArrival {
                    server: Some(3),
                    set: 7,
                    buffered: false,
                },
            ),
            (
                SimTime(11),
                TraceEvent::RequestArrival {
                    server: None,
                    set: 8,
                    buffered: true,
                },
            ),
            (
                SimTime(12),
                TraceEvent::Warning {
                    code: WarnCode::Stragglers,
                    detail: "tail requests".into(),
                    count: 4,
                },
            ),
            (
                SimTime(13),
                TraceEvent::Slowdown {
                    server: 1,
                    factor: 2.5,
                    until_us: 99,
                },
            ),
            (
                SimTime(14),
                TraceEvent::SpanBegin {
                    id: 0,
                    parent: None,
                    label: "run".into(),
                },
            ),
            (SimTime(15), TraceEvent::SpanEnd { id: 0 }),
        ]
    }

    #[test]
    fn decode_matches_jsonl_buffer_bytes() {
        let mut ring = RingSink::new(TraceLevel::Request);
        let mut jsonl = JsonlBuffer::new(TraceLevel::Request);
        for (at, ev) in sample_events() {
            ring.record(at, &ev);
            jsonl.record(at, &ev);
        }
        assert_eq!(ring.decode_lines(), jsonl.lines());
    }

    #[test]
    fn decode_events_round_trips_values() {
        let mut ring = RingSink::new(TraceLevel::Request);
        let events = sample_events();
        for (at, ev) in &events {
            ring.record(*at, ev);
        }
        assert_eq!(ring.decode_events(), events);
    }

    #[test]
    fn segment_boundary_preserves_order() {
        let mut ring = RingSink::new(TraceLevel::Request);
        let n = SEG_RECORDS * 2 + 17;
        for i in 0..n {
            ring.record(
                SimTime(i as u64),
                &TraceEvent::QueueDepth {
                    server: 1,
                    depth: i as u64,
                },
            );
        }
        assert_eq!(ring.len(), n);
        assert_eq!(ring.segs.len(), 3, "two full segments plus a partial");
        let lines = ring.decode_lines();
        assert_eq!(lines.len(), n);
        assert!(lines[SEG_RECORDS].contains(&format!("\"depth\":{SEG_RECORDS}")));
    }

    #[test]
    fn segments_never_reallocate() {
        let mut ring = RingSink::new(TraceLevel::Request);
        for i in 0..(SEG_RECORDS * 2) as u64 {
            ring.record(SimTime(i), &TraceEvent::EpochBegin { epoch: i });
            for seg in &ring.segs {
                assert_eq!(seg.capacity(), SEG_WORDS, "append must not grow a segment");
            }
        }
    }

    #[test]
    fn intrinsic_level_filters_before_encode() {
        // An Epoch-level ring driven directly with request events must
        // drop them before interning or encoding anything — and match a
        // JsonlBuffer at the same level byte for byte.
        let mut ring = RingSink::new(TraceLevel::Epoch);
        let mut jsonl = JsonlBuffer::new(TraceLevel::Epoch);
        for (at, ev) in sample_events() {
            ring.record(at, &ev);
            jsonl.record(at, &ev);
        }
        // Arrivals filtered; Warning/Slowdown/spans kept (Epoch level).
        assert_eq!(ring.len(), 4);
        assert_eq!(
            ring.text_bytes(),
            b"tail requestsrun",
            "arena holds only surviving events' strings"
        );
        assert_eq!(ring.decode_lines(), jsonl.lines());

        let mut off = RingSink::new(TraceLevel::Off);
        for (at, ev) in sample_events() {
            off.record(at, &ev);
        }
        assert!(off.is_empty());
        assert!(
            off.text_bytes().is_empty(),
            "filtered events intern nothing"
        );
    }

    #[test]
    fn bytes_round_trip_preserves_lines_and_level() {
        let mut ring = RingSink::new(TraceLevel::Request);
        for (at, ev) in sample_events() {
            ring.record(at, &ev);
        }
        // Include the one variable-width payload: a tuner epoch record.
        ring.record(
            SimTime(20),
            &TraceEvent::EpochEnd {
                epoch: 3,
                moves: 1,
                tune: Some(TuneEpoch {
                    mu_ms: 4.25,
                    planned: true,
                    decisions: vec![TuneDecision {
                        server: ServerId(2),
                        latency_ms: 6.5,
                        old_share: 0.25,
                        new_share: 0.5,
                        applied_share: 0.5,
                        outcome: TuneOutcome::Clamped,
                    }],
                }),
            },
        );
        let bytes = ring.to_bytes();
        let back = RingSink::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.level(), TraceLevel::Request);
        assert_eq!(back.len(), ring.len());
        assert_eq!(back.decode_lines(), ring.decode_lines());
        assert_eq!(back.to_bytes(), bytes, "re-serialization is stable");
    }

    #[test]
    fn bytes_round_trip_across_segment_boundary() {
        let mut ring = RingSink::new(TraceLevel::Request);
        for i in 0..(SEG_RECORDS + 5) as u64 {
            ring.record(SimTime(i), &TraceEvent::EpochBegin { epoch: i });
        }
        let back = RingSink::from_bytes(&ring.to_bytes()).expect("round trip");
        assert_eq!(back.segs.len(), 2, "segments re-chunked on load");
        for seg in &back.segs {
            assert_eq!(seg.capacity(), SEG_WORDS);
        }
        assert_eq!(back.decode_lines(), ring.decode_lines());
    }

    #[test]
    fn corrupt_bytes_are_rejected_not_panicked() {
        let mut ring = RingSink::new(TraceLevel::Epoch);
        for (at, ev) in sample_events() {
            ring.record(at, &ev);
        }
        let good = ring.to_bytes();
        assert!(RingSink::from_bytes(&[]).is_none(), "empty");
        assert!(
            RingSink::from_bytes(&good[..good.len() - 3]).is_none(),
            "truncated"
        );
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(RingSink::from_bytes(&bad_magic).is_none(), "magic");
        let mut bad_tag = good.clone();
        bad_tag[48] = 0xFE; // first record's tag byte (after 6 header words)
        assert!(RingSink::from_bytes(&bad_tag).is_none(), "unknown tag");
    }

    #[test]
    fn works_as_tracer_sink() {
        let mut ring = RingSink::new(TraceLevel::Epoch);
        let mut t = Tracer::new(&mut ring);
        assert!(t.enabled(TraceLevel::Epoch));
        assert!(!t.enabled(TraceLevel::Request));
        let id = t.open(SimTime(5), "run");
        t.close(SimTime(9), id);
        let lines = ring.decode_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""ev":"span_begin","id":0,"parent":null,"label":"run""#));
    }
}
