//! Mutation fuzz for the two trace decoders. Truncated and bit-flipped
//! `.ring` dumps and JSONL traces must never panic `parse_ring` or
//! `parse_jsonl`, and whatever they accept must re-serialize to itself.
//!
//! A ring dump carries three kinds of bytes the decoder reads without
//! keeping them: the zero padding after the text arena, any bytes after
//! the tune table, and the `planned` word of each tune, read as
//! `word != 0`. An accepted dump therefore re-serializes to the same bytes
//! everywhere except those, and the re-serialization is a fixed point.

use anu_core::{ServerId, TuneDecision, TuneEpoch, TuneOutcome};
use anu_des::SimTime;
use anu_inspect::{parse_jsonl, parse_ring};
use anu_trace::{render_line, RingSink, TraceEvent, TraceLevel, TraceSink, WarnCode};

/// SplitMix64, the generator the simulator's seeding uses.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: usize) -> usize {
    (next(state) % n as u64) as usize
}

const OUTCOMES: [TuneOutcome; 6] = [
    TuneOutcome::Scaled,
    TuneOutcome::Clamped,
    TuneOutcome::Floored,
    TuneOutcome::FrozenBand,
    TuneOutcome::FrozenDivergent,
    TuneOutcome::NoReport,
];

/// Every event variant twice over, with strings (so the text arena ends
/// off an 8-byte boundary) and tuner records with decisions.
fn events() -> Vec<(SimTime, TraceEvent)> {
    let tune = |n: u32| TuneEpoch {
        mu_ms: 12.5 + f64::from(n),
        planned: n.is_multiple_of(2),
        decisions: (0..n)
            .map(|i| TuneDecision {
                server: ServerId(i),
                latency_ms: 20.25 * f64::from(i + 1),
                old_share: 0.5,
                new_share: 0.25,
                applied_share: 0.375,
                outcome: OUTCOMES[i as usize % OUTCOMES.len()],
            })
            .collect(),
    };
    let mut out = Vec::new();
    for round in 0..2u64 {
        let t = |k: u64| SimTime(1_000 * round + 10 * k);
        out.extend([
            (
                t(0),
                TraceEvent::RequestArrival {
                    server: (round == 0).then_some(3),
                    set: 7,
                    buffered: round == 1,
                },
            ),
            (
                t(1),
                TraceEvent::RequestDispatch {
                    server: 3,
                    set: 7,
                    wait_us: 10,
                },
            ),
            (
                t(2),
                TraceEvent::RequestComplete {
                    server: 3,
                    set: 7,
                    latency_us: 20,
                    depth: 1,
                },
            ),
            (
                t(3),
                TraceEvent::QueueDepth {
                    server: 1,
                    depth: 4,
                },
            ),
            (t(4), TraceEvent::EpochBegin { epoch: round }),
            (
                t(5),
                TraceEvent::EpochEnd {
                    epoch: round,
                    moves: 2,
                    tune: Some(tune(round as u32 + 2)),
                },
            ),
            (
                t(6),
                TraceEvent::EpochEnd {
                    epoch: round,
                    moves: 0,
                    tune: None,
                },
            ),
            (
                t(7),
                TraceEvent::MigrationStart {
                    set: 9,
                    from: (round == 0).then_some(0),
                    to: 1,
                },
            ),
            (
                t(8),
                TraceEvent::MigrationFlush {
                    set: 9,
                    from: Some(0),
                    done_us: 500,
                },
            ),
            (
                t(9),
                TraceEvent::MigrationFinish {
                    set: 9,
                    to: 1,
                    buffered: 3,
                },
            ),
            (
                t(10),
                TraceEvent::Fault {
                    server: 2,
                    drained: 5,
                },
            ),
            (t(11), TraceEvent::Recover { server: 2 }),
            (
                t(12),
                TraceEvent::Slowdown {
                    server: 4,
                    factor: 2.5,
                    until_us: 9_000,
                },
            ),
            (t(13), TraceEvent::DelegateFail { pause_ticks: 3 }),
            (
                t(14),
                TraceEvent::ReportFault {
                    server: 4,
                    delayed: round == 0,
                },
            ),
            (
                t(15),
                TraceEvent::Warning {
                    code: WarnCode::ALL[round as usize % WarnCode::ALL.len()],
                    detail: "a \"quoted\" µ-detail".into(),
                    count: 7,
                },
            ),
            (
                t(16),
                TraceEvent::SpanBegin {
                    id: round,
                    parent: round.checked_sub(1),
                    label: "run".into(),
                },
            ),
            (t(17), TraceEvent::SpanEnd { id: round }),
        ]);
    }
    out
}

fn ring_dump() -> Vec<u8> {
    let mut ring = RingSink::new(TraceLevel::Request);
    for (t, e) in events() {
        ring.record(t, &e);
    }
    ring.to_bytes()
}

fn word(bytes: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
    u64::from_le_bytes(w)
}

/// The byte positions of a well-formed dump that carry no data: the
/// padding after the text arena and every tune's `planned` word.
fn slack(dump: &[u8]) -> Vec<bool> {
    let mut slack = vec![false; dump.len()];
    let (records, text_len, tunes) = (word(dump, 3), word(dump, 4), word(dump, 5));
    let text_end = 48 + records as usize * 48 + text_len as usize;
    let mut at = text_end.div_ceil(8) * 8;
    slack[text_end..at].fill(true);
    for _ in 0..tunes {
        slack[at + 8..at + 16].fill(true);
        at += 24 + word(dump, at / 8 + 2) as usize * 48;
    }
    assert_eq!(
        at,
        dump.len(),
        "a re-serialized dump ends at its tune table"
    );
    slack
}

/// `mutated` was accepted: its re-serialization must be a fixed point,
/// decode to the same events, and differ from `mutated` only where the
/// format carries no data. Events are compared as rendered lines, since a
/// flipped float may be a NaN.
fn check_accepted(mutated: &[u8], what: &str) {
    let sink = RingSink::from_bytes(mutated).expect("accepted");
    let back = sink.to_bytes();
    let again = RingSink::from_bytes(&back).expect("a re-serialized dump parses");
    assert_eq!(
        again.to_bytes(),
        back,
        "{what}: re-serialization is not stable"
    );
    assert_eq!(
        again.decode_lines(),
        sink.decode_lines(),
        "{what}: events changed"
    );
    let slack = slack(&back);
    for (i, &b) in back.iter().enumerate() {
        let kept = mutated.get(i) == Some(&b);
        assert!(
            kept || slack[i],
            "{what}: byte {i} re-serialized differently"
        );
    }
}

#[test]
fn ring_dump_mutations_never_panic_and_accepted_dumps_round_trip() {
    let good = ring_dump();
    check_accepted(&good, "unmutated dump");
    assert_eq!(
        RingSink::from_bytes(&good).expect("parses").to_bytes(),
        good,
        "an unmutated dump re-serializes byte for byte"
    );
    let records = word(&good, 3) as usize;
    let text_len = word(&good, 4) as usize;
    let text_at = 48 + records * 48;
    let tunes_at = (text_at + text_len).div_ceil(8) * 8;
    assert!(
        !text_len.is_multiple_of(8) && tunes_at < good.len(),
        "dump has padding and tunes"
    );

    // Truncation at every record boundary, then at random offsets.
    let mut state = 0x2003_0013;
    let mut cuts: Vec<usize> = (0..=records).map(|k| 48 + 48 * k).collect();
    cuts.extend((0..500).map(|_| below(&mut state, good.len())));
    for cut in cuts {
        let short = &good[..cut];
        match parse_ring(short) {
            // Every tune is needed, so no proper prefix is a dump.
            Some(_) => panic!("truncation to {cut} of {} bytes accepted", good.len()),
            None => assert!(RingSink::from_bytes(short).is_none()),
        }
    }

    // Random flips in each region.
    let regions = [
        ("header", 0..48),
        ("records", 48..text_at),
        ("text arena", text_at..text_at + text_len),
        ("tune table", tunes_at..good.len()),
    ];
    let mut accepted = 0;
    for case in 0..20_000 {
        let (name, range) = &regions[case % regions.len()];
        let mut bad = good.clone();
        let mut flipped = Vec::new();
        for _ in 0..1 + below(&mut state, 3) {
            let at = range.start + below(&mut state, range.len());
            bad[at] ^= 1 + below(&mut state, 255) as u8;
            flipped.push(at);
        }
        if parse_ring(&bad).is_some() {
            accepted += 1;
            check_accepted(&bad, &format!("case {case}: {name} bytes {flipped:?}"));
        }
    }
    assert!(accepted > 1_000, "only {accepted} mutated dumps accepted");
}

#[test]
fn jsonl_mutations_never_panic_and_accepted_lines_round_trip() {
    let lines: Vec<String> = events().iter().map(|(t, e)| render_line(*t, e)).collect();
    let mut state = 0x2003_0014;
    let mut accepted = 0;
    for case in 0..20_000 {
        let mut bytes: Vec<Vec<u8>> = lines.iter().map(|l| l.clone().into_bytes()).collect();
        let line = below(&mut state, bytes.len());
        if case % 4 == 0 {
            let cut = below(&mut state, bytes[line].len());
            bytes[line].truncate(cut);
        } else {
            for _ in 0..1 + below(&mut state, 2) {
                let at = below(&mut state, bytes[line].len());
                bytes[line][at] ^= 1 + below(&mut state, 255) as u8;
            }
        }
        let text: String = bytes
            .iter()
            .map(|l| String::from_utf8_lossy(l) + "\n")
            .collect();
        let Ok(parsed) = parse_jsonl(&text) else {
            continue;
        };
        accepted += 1;
        let rendered: String = parsed
            .iter()
            .map(|(t, e)| render_line(*t, e) + "\n")
            .collect();
        let again = parse_jsonl(&rendered).expect("a rendered trace parses");
        assert_eq!(
            again, parsed,
            "case {case}: line {line} changed on re-render"
        );
        let rerendered: String = again
            .iter()
            .map(|(t, e)| render_line(*t, e) + "\n")
            .collect();
        assert_eq!(rerendered, rendered, "case {case}: rendering is not stable");
    }
    assert!(accepted > 100, "only {accepted} mutated traces accepted");
}
