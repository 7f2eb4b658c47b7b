//! Property tests for the hand-rolled JSON layer — the writer's
//! escaping must survive a round trip through the strict parser for
//! *any* string, including control characters, quotes, backslashes,
//! and astral-plane unicode — plus concurrency smoke tests for the
//! shared telemetry sinks the networked stack hangs off one `Arc`.

use std::sync::Arc;

use proptest::prelude::*;
use waves::obs::trace::{Span, Stage, TraceId};
use waves::obs::{JsonValue, JsonWriter, Recorder, SpanRecorder};

/// Strings weighted toward the characters that exercise every escaping
/// path: ASCII, raw control bytes, the two mandatory escapes, multibyte
/// BMP characters, an astral emoji, and fully random codepoints.
fn json_strings() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            6 => (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
            2 => (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            1 => Just('"'),
            1 => Just('\\'),
            1 => Just('\u{e9}'),
            1 => Just('\u{4e2d}'),
            1 => Just('\u{1F600}'),
            1 => (0u32..=0x0010_FFFF).prop_map(|c| char::from_u32(c).unwrap_or('\u{FFFD}')),
        ],
        0..48,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Whatever goes in as a value or a field name comes back out
    /// byte-identical after parse — and the parser never accepts a
    /// document the writer mis-escaped (it is strict about raw control
    /// bytes and lone surrogates, so a round-trip success certifies the
    /// escaping).
    #[test]
    fn string_escaping_round_trips(strings in prop::collection::vec(json_strings(), 0..6)) {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_array("values");
        for s in &strings {
            w.value_str(s);
        }
        w.end_array();
        w.field_object("keyed");
        for (i, s) in strings.iter().enumerate() {
            w.field_u64(s, i as u64);
        }
        w.end_object();
        w.end_object();
        let doc = w.finish();
        let v = JsonValue::parse(&doc).unwrap_or_else(|e| panic!("{e}\nin {doc}"));

        let values = v.get("values").and_then(JsonValue::as_array).unwrap();
        prop_assert_eq!(values.len(), strings.len());
        for (got, want) in values.iter().zip(&strings) {
            prop_assert_eq!(got.as_str(), Some(want.as_str()));
        }
        // Field-name escaping round-trips too. Duplicate keys resolve
        // to the first occurrence (documented `get` behavior), so only
        // a string's first index is observable.
        for (i, s) in strings.iter().enumerate() {
            let first = strings.iter().position(|t| t == s).unwrap();
            let _ = i;
            prop_assert_eq!(
                v.get("keyed").and_then(|k| k.get(s)).and_then(JsonValue::as_u64),
                Some(first as u64)
            );
        }
    }

    /// Numeric round-trip: u64 counters keep full precision (never
    /// squeezed through f64), finite floats come back as themselves.
    #[test]
    fn numbers_round_trip(n in any::<u64>(), x in -1.0e12f64..1.0e12) {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("n", n);
        w.field_f64("x", x);
        w.end_object();
        let v = JsonValue::parse(&w.finish()).unwrap();
        prop_assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(n));
        prop_assert_eq!(v.get("x").and_then(JsonValue::as_f64), Some(x));
    }
}

/// The span ring the telemetry plane shares across server worker
/// threads must take concurrent traffic without panicking, and its
/// retention accounting must stay exact under races.
#[test]
fn sinks_survive_concurrent_traffic() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 1000;

    let ring = Arc::new(SpanRecorder::with_capacity(512));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    ring.span(Span {
                        trace: TraceId(t + 1),
                        id: t * PER_THREAD + i + 2,
                        parent: 0,
                        stage: Stage::Shard,
                        start_ns: i,
                        dur_ns: 1,
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(ring.total_recorded(), THREADS * PER_THREAD);
    let retained = ring.spans();
    assert_eq!(retained.len(), 512, "ring keeps exactly its capacity");
    // Every retained span is one that some thread actually pushed.
    assert!(retained
        .iter()
        .all(|s| s.trace.0 >= 1 && s.trace.0 <= THREADS && s.dur_ns == 1));
}
