//! E17: cost of the observability layer on the hot path.
//!
//! `push_bit` *is* `push_bit_recorded(&NoopRecorder)` — one body,
//! monomorphized — so the push itself has nothing to compare; that the
//! noop recorder is free is carried by the repo benchmark's
//! `engine_dense/items_per_s` and `core.push_ns_per_kitem` against the
//! parent commit. This experiment prices what sits on top of it:
//!
//! 1. `push_bit` (the baseline);
//! 2. `push_bit_recorded(&MetricsRegistry)` (live counters + latency
//!    histogram — the `--stats` price);
//! 3. the span gate every span site opens through, [`OpenSpan::open`],
//!    over a `NoopRecorder` (the tracing hook with tracing disabled —
//!    `trace_enabled()` folds to `false`, so the guard must compile
//!    down to the plain push);
//! 4. the same guard over a live [`SpanRecorder`] with an active
//!    [`TraceCtx`] (every push records a span into the ring).
//!
//! Each configuration reports its best (minimum) per-item time over
//! the repetitions, which strips scheduler/frequency noise; the
//! acceptance line checks the noop span guard against the 2% budget.

use crate::table::{f, Table};
use std::time::Instant;
use waves_core::DetWave;
use waves_obs::trace::ROOT_SPAN_ID;
use waves_obs::{
    MetricsRegistry, NoopRecorder, OpenSpan, Recorder, SpanRecorder, Stage, TraceCtx, TraceId,
};

const REPS: usize = 7;
const ITEMS: usize = 1 << 20;

/// Best-of-`REPS` mean per-item time for one configuration.
fn best_ns_per_item<F: FnMut(&mut DetWave, bool)>(
    n: u64,
    eps: f64,
    bits: &[bool],
    mut op: F,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let mut wave = DetWave::new(n, eps).unwrap();
        // Past the fill phase so expiry work is part of the measurement.
        for _ in 0..(2 * n) {
            wave.push_bit(true);
        }
        let t0 = Instant::now();
        for &b in bits {
            op(&mut wave, b);
        }
        let ns = t0.elapsed().as_nanos() as f64 / bits.len() as f64;
        std::hint::black_box(wave.query_max());
        best = best.min(ns);
    }
    best
}

/// One push under the span gate the hot paths run: open a `Shard` span
/// through [`OpenSpan::open`], push, end it. Over a `NoopRecorder` the
/// whole thing must fold away.
#[inline]
fn push_span_guarded<R: Recorder>(wave: &mut DetWave, bit: bool, rec: &R, ctx: TraceCtx) {
    let span = OpenSpan::open(ctx, Stage::Shard, rec);
    wave.push_bit_recorded(bit, rec);
    if let Some(span) = span {
        span.end(rec);
    }
}

pub fn run() {
    println!("E17 — observability overhead on DetWave::push_bit");
    println!("=================================================\n");

    let (n, eps) = (1u64 << 16, 0.05);
    // Mixed stream: 1-bits exercise the store/evict path, 0-bits the
    // position-only path (a 3-term LCG keeps it deterministic).
    let mut x = 0x9e3779b97f4a7c15u64;
    let bits: Vec<bool> = (0..ITEMS)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 62) & 1 == 1
        })
        .collect();

    let registry = MetricsRegistry::new();
    let ring = SpanRecorder::new();
    let traced_ctx = TraceCtx {
        trace: TraceId(0xE17),
        parent: ROOT_SPAN_ID,
    };
    let plain = best_ns_per_item(n, eps, &bits, |w, b| w.push_bit(b));
    let live = best_ns_per_item(n, eps, &bits, |w, b| w.push_bit_recorded(b, &registry));
    let noop_span = best_ns_per_item(n, eps, &bits, |w, b| {
        push_span_guarded(w, b, &NoopRecorder, TraceCtx::NONE)
    });
    let live_span = best_ns_per_item(n, eps, &bits, |w, b| {
        push_span_guarded(w, b, &ring, traced_ctx)
    });
    std::hint::black_box(registry.snapshot());
    std::hint::black_box(ring.total_recorded());

    let pct = |a: f64, base: f64| 100.0 * (a - base) / base;
    let mut t = Table::new(&["configuration", "best ns/item", "vs plain"]);
    t.row(&["push_bit".into(), f(plain), "—".into()]);
    t.row(&[
        "push_bit_recorded + MetricsRegistry".into(),
        f(live),
        format!("{:+.2}%", pct(live, plain)),
    ]);
    t.row(&[
        "span guard + NoopRecorder (untraced)".into(),
        f(noop_span),
        format!("{:+.2}%", pct(noop_span, plain)),
    ]);
    t.row(&[
        "span guard + SpanRecorder (traced)".into(),
        f(live_span),
        format!("{:+.2}%", pct(live_span, plain)),
    ]);
    t.print();

    let span_overhead = pct(noop_span, plain);
    println!(
        "\nnoop-span-guard overhead: {span_overhead:+.2}% (budget: <= 2%) — {}",
        crate::verdict::word(span_overhead <= 2.0)
    );
    println!("Expected shape: the noop span guard matches plain to measurement noise;");
    println!("the live registry pays a few ns for two relaxed atomics per item,");
    println!("and the traced span guard adds two clock reads plus a ring push.");
}

#[cfg(test)]
mod tests {
    use super::*;
    use waves_obs::Recorder;

    /// Semantic half of the contract (the timing half is the
    /// experiment): a live recorder leaves the wave in the same state
    /// as the plain push.
    #[test]
    fn all_configurations_agree() {
        let registry = MetricsRegistry::new();
        let mut a = DetWave::new(256, 0.1).unwrap();
        let mut c = DetWave::new(256, 0.1).unwrap();
        let mut x = 7u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let bit = (x >> 62) & 1 == 1;
            a.push_bit(bit);
            c.push_bit_recorded(bit, &registry);
        }
        assert_eq!(a.encode(), c.encode());
        assert!(!NoopRecorder.enabled());
        assert!(registry.enabled());
    }

    /// Same contract for the tracing hook: span-guarded pushes leave the
    /// wave bit-identical to plain pushes, the noop guard records
    /// nothing, and the live guard records one span per push.
    #[test]
    fn span_guard_preserves_state_and_records() {
        let ring = SpanRecorder::new();
        let ctx = TraceCtx {
            trace: TraceId(42),
            parent: ROOT_SPAN_ID,
        };
        let mut a = DetWave::new(256, 0.1).unwrap();
        let mut b = DetWave::new(256, 0.1).unwrap();
        let mut c = DetWave::new(256, 0.1).unwrap();
        let mut x = 7u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let bit = (x >> 62) & 1 == 1;
            a.push_bit(bit);
            push_span_guarded(&mut b, bit, &NoopRecorder, TraceCtx::NONE);
            push_span_guarded(&mut c, bit, &ring, ctx);
        }
        assert_eq!(a.encode(), b.encode());
        assert_eq!(a.encode(), c.encode());
        assert_eq!(ring.total_recorded(), 500);
        assert!(ring
            .trace(TraceId(42))
            .iter()
            .all(|s| s.stage == Stage::Shard && s.parent == ROOT_SPAN_ID));
    }
}
