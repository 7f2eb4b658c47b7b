//! `waves-obs`: zero-dependency metrics and request tracing for the
//! waves workspace.
//!
//! The paper's claims are quantitative — O(1) worst-case per-item time
//! (Theorem 1), space within stated word bounds, `t`-scalar query-time
//! communication — so the runtime exposes them as live signals:
//!
//! * lock-free scalar counters (relaxed atomics behind [`MetricId`]);
//! * [`LogHistogram`] — log-bucketed (HDR-style) latency histogram with
//!   p50/p90/p99/p999/max summaries, shared by the offline bench harness
//!   and live `--stats` runs so both agree on one definition of tail
//!   latency;
//! * [`Recorder`] — the sink instrumented code reports counters,
//!   histogram samples and spans into. The synopsis kernels and the
//!   engine are generic over `R: Recorder + ?Sized`, and
//!   [`NoopRecorder`]'s methods are empty `#[inline(always)]` bodies,
//!   so the monomorphized disabled path compiles to exactly the
//!   uninstrumented code (verified by the `obs-overhead` experiment in
//!   `waves-bench`). Behind a socket the
//!   server and clients hold one `Arc<dyn Recorder + Send + Sync>`
//!   instead: a vtable call per counter there is noise beside a system
//!   call;
//! * [`MetricsRegistry`] — a fixed set of well-known counters and
//!   histograms ([`MetricId`], [`HistId`]) that itself implements
//!   [`Recorder`], snapshots to a plain [`MetricsSnapshot`] struct, and
//!   renders as text, hand-rolled JSON (no serde), or Prometheus text
//!   exposition — plus per-shard and per-key-family dimensions backed
//!   by flat atomic arrays, so snapshots show engine load skew;
//! * [`trace`] — request tracing: [`Span`]/[`TraceId`] records on a
//!   monotonic process clock, retained by the ring-buffered
//!   [`SpanRecorder`]. Every span opens through one gate,
//!   [`OpenSpan::open`] (live [`TraceCtx`] and
//!   [`Recorder::trace_enabled`]), with the same noop-monomorphization
//!   contract as metrics;
//! * [`JsonValue`] — a strict minimal JSON parser, enough to decode a
//!   remote [`MetricsSnapshot`] fetched over the wire.
//!
//! Everything is std-only: the crate has no dependencies.

mod histogram;
mod json;
mod recorder;
pub mod registry;
pub mod trace;

pub use histogram::{HistogramSnapshot, LogHistogram};
pub use json::{JsonValue, JsonWriter};
pub use recorder::{
    Fanout, HistId, MetricId, NoopRecorder, Recorder, ShardStat, MAX_TRACKED_SHARDS,
    NUM_KEY_FAMILIES,
};
pub use registry::{MetricsRegistry, MetricsSnapshot, ShardStats};
pub use trace::{OpenSpan, Span, SpanRecorder, Stage, TraceCtx, TraceId};
