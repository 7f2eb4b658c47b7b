//! Request tracing: spans, trace ids, and a ring-buffer span recorder.
//!
//! A *trace* follows one request end to end: client call → wire frame
//! (the id rides in the wire v3 header) → server dispatch → engine shard
//! queue wait vs. execute → WAL append/fsync. Each timed section is a
//! [`Span`]; spans carrying the same [`TraceId`] form a tree via their
//! `parent` links, so one networked query yields queue time, shard time,
//! wal time, and wire time as separate children of one root.
//!
//! The contract mirrors metrics: hot paths are generic over
//! `R: Recorder`, [`Recorder::trace_enabled`] defaults to `false`, and
//! every span opens through one gate, [`OpenSpan::open`] — so code
//! monomorphized over `NoopRecorder` never reads the clock and never
//! constructs a span (measured by the trace arm of the `obs-overhead`
//! experiment).
//!
//! Timings use a process-wide monotonic epoch (`now_ns`): every span
//! recorded in one process shares a clock, so offsets within a trace are
//! directly comparable.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::Recorder;

/// Identifies one end-to-end request. Carried as 8 bytes in the wire v3
/// header; `0` means "untraced" and is never allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The untraced sentinel (wire value 0).
    pub const NONE: TraceId = TraceId(0);

    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Allocate a fresh process-unique trace id (never 0). Sequential
    /// draws from a global counter are mixed through SplitMix64 so ids
    /// from concurrent clients don't collide in low bits.
    pub fn next() -> TraceId {
        static COUNTER: AtomicU64 = AtomicU64::new(1);
        loop {
            let raw = COUNTER.fetch_add(1, Ordering::Relaxed);
            let mixed = splitmix64(raw);
            if mixed != 0 {
                return TraceId(mixed);
            }
        }
    }
}

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Span id of the client-side root span of every trace. The wire header
/// carries only the trace id, so the cross-process parent link is by
/// convention: the requesting side records its root span with id
/// [`ROOT_SPAN_ID`], and the serving side parents its dispatch span to
/// [`ROOT_SPAN_ID`] without ever seeing the client's span records.
pub const ROOT_SPAN_ID: u64 = 1;

/// Allocate a fresh process-unique span id (> [`ROOT_SPAN_ID`]).
#[inline]
fn next_span_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(ROOT_SPAN_ID + 1);
    COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// Which instrumented section of the request path a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Client-side whole request (the root span of a trace).
    Request,
    /// Client-side socket write + response read.
    Wire,
    /// Server-side frame dispatch (decode done, handler running).
    Dispatch,
    /// Engine shard-queue wait: enqueue → worker dequeue.
    Queue,
    /// Engine shard-worker execution (apply batch / answer query).
    Shard,
    /// Store WAL append (framing + write + policy sync).
    Wal,
    /// Store `fsync`/`sync_data` within a WAL append.
    Fsync,
}

impl Stage {
    /// Stable lowercase name used in logs and rendered span trees.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::Wire => "wire",
            Stage::Dispatch => "dispatch",
            Stage::Queue => "queue",
            Stage::Shard => "shard",
            Stage::Wal => "wal",
            Stage::Fsync => "fsync",
        }
    }
}

/// One completed timed section. Plain copyable record; recorded via
/// [`Recorder::span`] after the section finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub trace: TraceId,
    /// Process-unique id of this span within the trace tree.
    pub id: u64,
    /// Parent span id; `0` for the root.
    pub parent: u64,
    pub stage: Stage,
    /// Start offset from the process epoch (`now_ns` clock).
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Propagates trace identity into lower layers (engine commands, store
/// appends). `NONE` everywhere on untraced paths; checking
/// [`TraceCtx::active`] is one integer compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    pub trace: TraceId,
    /// Span id the next recorded span should parent to.
    pub parent: u64,
}

impl TraceCtx {
    pub const NONE: TraceCtx = TraceCtx {
        trace: TraceId::NONE,
        parent: 0,
    };

    /// Whether this context belongs to a live trace. `#[inline]` (like
    /// the other gate helpers here) so the untraced fast path folds to
    /// nothing when monomorphized against a `NoopRecorder` — measured
    /// by the trace arm of the `obs-overhead` experiment.
    #[inline]
    pub fn active(self) -> bool {
        !self.trace.is_none()
    }

    /// A child context parented to the given span id, same trace.
    #[inline]
    pub fn child(self, parent: u64) -> TraceCtx {
        TraceCtx {
            trace: self.trace,
            parent,
        }
    }
}

/// Nanoseconds since a process-wide monotonic epoch (first call wins).
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span opened on a live trace, waiting for [`OpenSpan::end`]. Every
/// span site opens through [`OpenSpan::open`], the one gate: the span id
/// and the clock are read only inside it, so an untraced path pays one
/// integer compare.
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span records nothing until `end`"]
pub struct OpenSpan {
    /// The span's trace, and the span it parents to.
    at: TraceCtx,
    id: u64,
    stage: Stage,
    start_ns: u64,
}

impl OpenSpan {
    /// Open a `stage` span parented to `ctx.parent` — or `None`, without
    /// reading the clock, unless `ctx` is live and `rec` keeps traces.
    #[inline]
    pub fn open<R: Recorder + ?Sized>(ctx: TraceCtx, stage: Stage, rec: &R) -> Option<OpenSpan> {
        (ctx.active() && rec.trace_enabled()).then(|| OpenSpan {
            at: ctx,
            id: next_span_id(),
            stage,
            start_ns: now_ns(),
        })
    }

    /// Open the client's `Request` span on a fresh trace, if `rec` keeps
    /// traces: id [`ROOT_SPAN_ID`], parent 0.
    #[inline]
    pub fn root<R: Recorder + ?Sized>(rec: &R) -> Option<OpenSpan> {
        rec.trace_enabled().then(|| OpenSpan {
            at: TraceCtx {
                trace: TraceId::next(),
                parent: 0,
            },
            id: ROOT_SPAN_ID,
            stage: Stage::Request,
            start_ns: now_ns(),
        })
    }

    /// The context a span nested inside this one opens under.
    #[inline]
    pub fn ctx(self) -> TraceCtx {
        self.at.child(self.id)
    }

    /// Close the span now and record it.
    #[inline]
    pub fn end<R: Recorder + ?Sized>(self, rec: &R) {
        self.end_at(now_ns(), rec);
    }

    /// Close the span and open its sibling `stage` at the same instant,
    /// under the same parent: one stage hands over to the next.
    #[inline]
    pub fn then<R: Recorder + ?Sized>(self, stage: Stage, rec: &R) -> OpenSpan {
        let now = now_ns();
        self.end_at(now, rec);
        OpenSpan {
            id: next_span_id(),
            stage,
            start_ns: now,
            ..self
        }
    }

    fn end_at<R: Recorder + ?Sized>(self, end_ns: u64, rec: &R) {
        rec.span(Span {
            trace: self.at.trace,
            id: self.id,
            parent: self.at.parent,
            stage: self.stage,
            start_ns: self.start_ns,
            dur_ns: end_ns.saturating_sub(self.start_ns),
        });
    }
}

#[derive(Debug)]
struct Ring {
    spans: Vec<Span>,
    /// Next write position once the ring is full.
    head: usize,
    total: u64,
}

/// A bounded, thread-safe store of completed spans: the test- and
/// dashboard-facing trace sink. Keeps the most recent `capacity` spans;
/// older spans are overwritten (retention, not backpressure — recording
/// never blocks on a full ring beyond the lock).
///
/// Implements [`Recorder`] with
/// [`trace_enabled`](Recorder::trace_enabled) = `true` and all
/// metric methods as no-ops, so it composes with a `MetricsRegistry`
/// via [`Fanout`](crate::Fanout) for a full telemetry sink.
#[derive(Debug)]
pub struct SpanRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// Default retention: the most recent 4096 spans.
    pub fn new() -> Self {
        Self::with_capacity(4096)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        SpanRecorder {
            ring: Mutex::new(Ring {
                spans: Vec::new(),
                head: 0,
                total: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    pub fn push(&self, span: Span) {
        let mut ring = self.ring.lock().unwrap();
        ring.total += 1;
        if ring.spans.len() < self.capacity {
            ring.spans.push(span);
        } else {
            let head = ring.head;
            ring.spans[head] = span;
            ring.head = (head + 1) % self.capacity;
        }
    }

    /// All retained spans, oldest first.
    pub fn spans(&self) -> Vec<Span> {
        let ring = self.ring.lock().unwrap();
        let mut out = Vec::with_capacity(ring.spans.len());
        out.extend_from_slice(&ring.spans[ring.head..]);
        out.extend_from_slice(&ring.spans[..ring.head]);
        out
    }

    /// Retained spans belonging to one trace, oldest first.
    pub fn trace(&self, id: TraceId) -> Vec<Span> {
        self.spans().into_iter().filter(|s| s.trace == id).collect()
    }

    /// Total spans ever recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.ring.lock().unwrap().total
    }

    pub fn clear(&self) {
        let mut ring = self.ring.lock().unwrap();
        ring.spans.clear();
        ring.head = 0;
    }

    /// Render one trace as an indented tree, children under parents in
    /// start order: `stage dur_ns=… start_ns=…` per line.
    pub fn render_trace(&self, id: TraceId) -> String {
        let mut spans = self.trace(id);
        spans.sort_by_key(|s| s.start_ns);
        let mut out = String::new();
        // Roots first (parent not among retained spans), then descend.
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        fn descend(out: &mut String, spans: &[Span], parent: u64, depth: usize) {
            for s in spans.iter().filter(|s| s.parent == parent) {
                out.push_str(&"  ".repeat(depth));
                out.push_str(&format!(
                    "{} dur_ns={} start_ns={}\n",
                    s.stage.name(),
                    s.dur_ns,
                    s.start_ns
                ));
                descend(out, spans, s.id, depth + 1);
            }
        }
        for root in spans.iter().filter(|s| !ids.contains(&s.parent)) {
            out.push_str(&format!(
                "{} dur_ns={} start_ns={}\n",
                root.stage.name(),
                root.dur_ns,
                root.start_ns
            ));
            descend(&mut out, &spans, root.id, 1);
        }
        out
    }
}

impl Recorder for SpanRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn trace_enabled(&self) -> bool {
        true
    }

    #[inline]
    fn span(&self, span: Span) {
        self.push(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn span(trace: u64, id: u64, parent: u64, stage: Stage, start: u64, dur: u64) -> Span {
        Span {
            trace: TraceId(trace),
            id,
            parent,
            stage,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = TraceId::next();
            assert!(!id.is_none());
            assert!(seen.insert(id), "duplicate trace id {id:?}");
        }
    }

    #[test]
    fn span_ids_start_above_root() {
        let a = next_span_id();
        let b = next_span_id();
        assert!(a > ROOT_SPAN_ID);
        assert_ne!(a, b);
    }

    #[test]
    fn the_gate_opens_only_on_a_live_trace_with_a_span_sink() {
        let ring = SpanRecorder::new();
        let live = TraceCtx {
            trace: TraceId(4),
            parent: ROOT_SPAN_ID,
        };
        assert!(OpenSpan::open(TraceCtx::NONE, Stage::Shard, &ring).is_none());
        assert!(OpenSpan::open(live, Stage::Shard, &crate::NoopRecorder).is_none());
        assert!(OpenSpan::root(&crate::NoopRecorder).is_none());
        let span = OpenSpan::open(live, Stage::Shard, &ring).expect("live trace, span sink");
        let child = span.ctx();
        assert_eq!(child.trace, TraceId(4));
        span.end(&ring);
        let recorded = ring.trace(TraceId(4));
        assert_eq!(recorded.len(), 1);
        assert_eq!(recorded[0].parent, ROOT_SPAN_ID);
        assert_eq!(recorded[0].stage, Stage::Shard);
        assert_eq!(child.parent, recorded[0].id);
        assert!(recorded[0].id > ROOT_SPAN_ID);
    }

    #[test]
    fn root_and_handover_spans_link_up() {
        let ring = SpanRecorder::new();
        let root = OpenSpan::root(&ring).expect("ring keeps traces");
        let trace = root.ctx().trace;
        assert!(!trace.is_none());
        let queue = OpenSpan::open(root.ctx(), Stage::Queue, &ring).unwrap();
        let shard = queue.then(Stage::Shard, &ring);
        assert_eq!(shard.ctx().trace, trace);
        shard.end(&ring);
        root.end(&ring);
        let spans = ring.trace(trace);
        let find = |stage| *spans.iter().find(|s| s.stage == stage).unwrap();
        let (root, queue, shard) = (find(Stage::Request), find(Stage::Queue), find(Stage::Shard));
        assert_eq!((root.id, root.parent), (ROOT_SPAN_ID, 0));
        assert_eq!(queue.parent, ROOT_SPAN_ID);
        assert_eq!(shard.parent, ROOT_SPAN_ID, "siblings share the parent");
        assert_ne!(shard.id, queue.id);
        assert_eq!(queue.start_ns + queue.dur_ns, shard.start_ns, "one instant");
        assert!(root.start_ns + root.dur_ns >= shard.start_ns + shard.dur_ns);
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn ring_retains_most_recent() {
        let rec = SpanRecorder::with_capacity(3);
        for i in 0..5u64 {
            rec.push(span(7, 10 + i, 0, Stage::Shard, i, 1));
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![12, 13, 14],
            "oldest-first, newest retained"
        );
        assert_eq!(rec.total_recorded(), 5);
    }

    #[test]
    fn trace_filter_and_clear() {
        let rec = SpanRecorder::new();
        rec.push(span(1, 2, 0, Stage::Request, 0, 10));
        rec.push(span(2, 3, 0, Stage::Request, 0, 10));
        rec.push(span(1, 4, 2, Stage::Wire, 1, 5));
        assert_eq!(rec.trace(TraceId(1)).len(), 2);
        assert_eq!(rec.trace(TraceId(2)).len(), 1);
        rec.clear();
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn recorder_impl_records_spans_only() {
        let rec = SpanRecorder::new();
        assert!(rec.trace_enabled());
        assert!(rec.enabled());
        rec.incr(crate::MetricId::CliItems, 1); // no-op, must not panic
        rec.span(span(9, 2, 0, Stage::Queue, 0, 3));
        assert_eq!(rec.trace(TraceId(9)).len(), 1);
    }

    #[test]
    fn render_trace_indents_children() {
        let rec = SpanRecorder::new();
        rec.push(span(5, ROOT_SPAN_ID, 0, Stage::Request, 0, 100));
        rec.push(span(5, 2, ROOT_SPAN_ID, Stage::Wire, 1, 90));
        rec.push(span(5, 3, 2, Stage::Dispatch, 2, 80));
        let tree = rec.render_trace(TraceId(5));
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("request "));
        assert!(lines[1].starts_with("  wire "));
        assert!(lines[2].starts_with("    dispatch "));
    }

    #[test]
    fn trace_ctx_child_links() {
        let ctx = TraceCtx {
            trace: TraceId(8),
            parent: ROOT_SPAN_ID,
        };
        assert!(ctx.active());
        assert!(!TraceCtx::NONE.active());
        let child = ctx.child(42);
        assert_eq!(child.trace, TraceId(8));
        assert_eq!(child.parent, 42);
    }
}
