//! `waves-engine`: a keyed, sharded, multi-threaded serving layer that
//! owns many independent sliding-window synopses (one per key — think
//! one per user, per flow, per sensor) behind a small API.
//!
//! The paper's synopses are single-stream values driven one bit at a
//! time; the continuous-monitoring literature the ROADMAP targets
//! (Chan et al., Ben Basat et al.) instead assumes a long-lived service
//! maintaining *millions* of window synopses under sustained ingest.
//! This crate is that missing layer:
//!
//! * keys hash to one of `num_shards` shards, each one value (`shard.rs`:
//!   its own synopses behind one key index, store and checkpoint
//!   countdown, recovered, applied and closed by its owner alone) driven
//!   by its own std thread from its own bounded FIFO, so the hot path
//!   takes **no cross-shard locks**; the thread drains the FIFO a run of
//!   batches at a time and applies each run with one push per key, and
//!   the FIFO wakes a blocked producer once per drain that leaves it at
//!   most half full, not once per command (`queue.rs`). Between runs the
//!   shard sits in its FIFO, whose lock is the only one it has;
//! * ingestion flows through **one** entry point, [`Engine::ingest`],
//!   taking an [`IngestRequest`]: keyed **word-packed** bit batches
//!   ([`waves_core::Bits`] — 64 bits per queue/WAL/apply step), an
//!   optional blocking mode, and an optional [`TraceCtx`]. Non-blocking
//!   requests get explicit backpressure over bounded queues —
//!   [`WaveError::Backpressure`] when a shard queue is full, with shed
//!   items counted in [`Engine::dropped_items`] — while
//!   `.blocking(true)` trades latency for losslessness (replay and
//!   benchmarking paths);
//! * a query observes every batch enqueued before it (per-key
//!   read-your-writes), answered on the caller's thread if its shard is
//!   idle — in its FIFO, nothing queued — else through the FIFO, like a
//!   snapshot. Neither takes a queue slot, and [`Engine::submit`] waits
//!   for no answer: the shard hands it to the request's [`Sink`]. The
//!   blocking calls wait on a channel;
//! * everything reports into `waves-obs`: ingest/query latency
//!   histograms, queue depth, and per-shard keys/bytes via
//!   [`Engine::snapshot`];
//! * optional durability via `waves-store`: with
//!   [`EngineConfigBuilder::persist`] set, each shard owns a private
//!   write-ahead log (appended *before* a batch is applied, no
//!   cross-shard lock) plus periodic checkpoints of every key's
//!   synopsis bytes. Construction recovers: newest valid checkpoint,
//!   then the acknowledged WAL tail, so a restarted engine answers
//!   exactly like one that never stopped. Clean shutdown writes a final
//!   checkpoint regardless of sync policy.
//!
//! The engine is generic over any [`BitSynopsis`] + `Send` synopsis (the
//! deterministic wave by default, the exponential-histogram baseline
//! via [`Engine::with_factory`]) and over the recorder, so the disabled
//! observability path monomorphizes to nothing, like the rest of the
//! workspace. That one bound covers everything a shard does with a
//! synopsis: ingest and WAL replay (`push_words`), queries, snapshots,
//! and the checkpoint and install codec (`encode_synopsis` /
//! `decode_synopsis` of [`waves_core::Synopsis`]).
//!
//! ```
//! use waves_core::DetWave;
//! use waves_engine::{Engine, EngineConfig, IngestRequest};
//!
//! let cfg = EngineConfig::builder().num_shards(2).max_window(128).eps(0.25).build();
//! let engine = Engine::new(cfg).unwrap();
//! engine.ingest(IngestRequest::of(7, [true, false, true]).blocking(true)).unwrap();
//! engine.flush();
//! let est = engine.query(7, 128).unwrap();
//! assert_eq!(est.value, 2.0);
//! ```

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::TrySendError;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use waves_core::{BitSynopsis, Bits, DetWave, Estimate, WaveError};
use waves_obs::trace::{OpenSpan, Stage, TraceCtx};
use waves_obs::{HistId, MetricId, NoopRecorder, Recorder};
use waves_store::Store;

pub use waves_store::{PersistConfig, SyncPolicy};

mod queue;
mod shard;

use shard::{shard_for, Cmd, Shard};

/// A shard's queue, where the shard sits between runs.
type ShardQueue<S, R> =
    queue::Sender<Cmd, Shard<S, R, dyn Fn() -> Result<S, WaveError> + Send + Sync>>;

/// Stream identity: every key owns an independent synopsis.
pub type Key = u64;

/// One ingest event: a key plus a word-packed batch of its stream bits,
/// oldest first.
pub type KeyedBits = (Key, Bits);

/// The single ingest entry point's request: keyed word-packed batches
/// plus delivery options — every combination is one builder chain:
///
/// ```
/// use waves_core::Bits;
/// use waves_engine::IngestRequest;
/// use waves_obs::trace::TraceCtx;
///
/// let _one = IngestRequest::of(7, [true, false, true]);
/// let _lossless = IngestRequest::of(7, [true; 64]).blocking(true);
/// let entries = vec![(1, Bits::from([true])), (2, Bits::from([false, true]))];
/// let _traced = IngestRequest::batch(entries).traced(TraceCtx::NONE);
/// ```
#[derive(Debug, Clone)]
pub struct IngestRequest {
    /// Keyed word-packed batches, oldest bits first. Order is preserved
    /// per shard (and a key always maps to one shard).
    pub entries: Vec<KeyedBits>,
    /// Wait for queue space instead of shedding on a full shard queue.
    /// Defaults to `false` (non-blocking with backpressure).
    pub blocking: bool,
    /// Trace context; [`TraceCtx::NONE`] (the default) records nothing.
    pub ctx: TraceCtx,
}

impl IngestRequest {
    /// A single-entry request: `key`'s next `bits`, oldest first.
    /// Accepts anything convertible to [`Bits`] (`&[bool]`, `[bool; N]`,
    /// `Vec<bool>`, or an already-packed buffer).
    pub fn of(key: Key, bits: impl Into<Bits>) -> Self {
        Self::batch(vec![(key, bits.into())])
    }

    /// A multi-entry request from already-assembled keyed batches.
    pub fn batch(entries: Vec<KeyedBits>) -> Self {
        IngestRequest {
            entries,
            blocking: false,
            ctx: TraceCtx::NONE,
        }
    }

    /// Wait for queue space instead of shedding (default `false`).
    pub fn blocking(mut self, blocking: bool) -> Self {
        self.blocking = blocking;
        self
    }

    /// Record queue-wait, apply, and WAL spans under `ctx`.
    pub fn traced(mut self, ctx: TraceCtx) -> Self {
        self.ctx = ctx;
        self
    }
}

/// Engine configuration. Construct via [`EngineConfig::builder`]; the
/// defaults serve a small deployment (4 shards, 1024-batch queues,
/// window 1024 at 10% error).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; keys hash across them. At least 1.
    pub num_shards: usize,
    /// Bounded per-shard command-queue capacity, in ingest batches. At
    /// least 1. Every other command (query, flush, snapshot, install,
    /// fetch, checkpoint) takes no slot and never waits for room. It
    /// also sets the queue's wake rule: a blocking ingest parked on a
    /// full queue is woken once the worker has drained it to
    /// `queue_capacity / 2`, and while one is parked, non-blocking
    /// ingest into that shard is refused rather than let past it.
    pub queue_capacity: usize,
    /// Maximum queryable window `N` for every per-key synopsis.
    pub max_window: u64,
    /// Relative error bound for every per-key synopsis.
    pub eps: f64,
    /// Durability settings; `None` (the default) serves from memory
    /// only. With `Some`, construction recovers prior state from the
    /// directory and every shard write-ahead-logs its batches.
    pub persist: Option<PersistConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_shards: 4,
            queue_capacity: 1024,
            max_window: 1024,
            eps: 0.1,
            persist: None,
        }
    }
}

impl EngineConfig {
    /// Start building a config: `EngineConfig::builder().num_shards(8).build()`.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: EngineConfig::default(),
        }
    }
}

/// Builder for [`EngineConfig`]. Shard count and queue capacity are
/// clamped to at least 1; the synopsis parameters (`max_window`, `eps`)
/// are validated when the engine constructs its first synopsis, so
/// `build()` itself is infallible.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Number of shard worker threads (clamped to >= 1).
    pub fn num_shards(mut self, n: usize) -> Self {
        self.cfg.num_shards = n.max(1);
        self
    }

    /// Bounded per-shard queue capacity (clamped to >= 1).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.cfg.queue_capacity = n.max(1);
        self
    }

    /// Maximum queryable window `N` per key.
    pub fn max_window(mut self, n: u64) -> Self {
        self.cfg.max_window = n;
        self
    }

    /// Relative error bound per key.
    pub fn eps(mut self, eps: f64) -> Self {
        self.cfg.eps = eps;
        self
    }

    /// Persist to `dir` with default store settings (sync policy
    /// `every-64`, 8 MiB segments, checkpoint every 4096 batches).
    /// Combine with [`EngineConfigBuilder::persist_config`] for full
    /// control.
    pub fn persist(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cfg.persist = Some(PersistConfig::new(dir));
        self
    }

    /// Persist with explicit store settings.
    pub fn persist_config(mut self, persist: PersistConfig) -> Self {
        self.cfg.persist = Some(persist);
        self
    }

    pub fn build(self) -> EngineConfig {
        self.cfg
    }
}

/// Where a shard's answer goes: called once, on the thread of the shard
/// that answered (the last one, for a request to every shard), or on the
/// submitter's, for a query answered on an idle shard.
pub type Sink<T> = Box<dyn FnOnce(T) + Send>;

/// A request that waits on the shard owning its key, or on every shard,
/// with the sink its answer goes to: what [`Engine::submit`] takes. Each
/// variant but `Fetch` is the blocking call of its name; `Fetch` answers
/// `key`'s synopsis bytes, what [`Engine::install_synopsis`] takes. A
/// `Query` on an idle shard is answered within `submit`.
pub enum ShardRequest {
    Query {
        key: Key,
        window: u64,
        ctx: TraceCtx,
        reply: Sink<Result<Estimate, WaveError>>,
    },
    Flush(Sink<()>),
    Snapshot(Sink<EngineSnapshot>),
    Install {
        key: Key,
        bytes: Vec<u8>,
        reply: Sink<Result<(), WaveError>>,
    },
    Fetch {
        key: Key,
        reply: Sink<Result<Vec<u8>, WaveError>>,
    },
    Checkpoint(Sink<Result<(), WaveError>>),
}

/// Point-in-time state of one shard, from [`Engine::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Keys with a live synopsis.
    pub keys: usize,
    /// Sum of `space_report().resident_bytes` over the shard's keys.
    pub resident_bytes: usize,
    /// Sum of `space_report().synopsis_bits`.
    pub synopsis_bits: u64,
    /// Sum of stored entries.
    pub entries: usize,
    /// Ingest batches sitting in the queue when the snapshot ran.
    pub queue_depth: usize,
}

/// Point-in-time state of the whole engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    pub shards: Vec<ShardSnapshot>,
    /// Items shed by non-blocking ingest while queues were full.
    pub dropped_items: u64,
    /// Number of ingest calls that hit a full queue.
    pub backpressure_events: u64,
}

impl EngineSnapshot {
    /// Total live keys across shards.
    pub fn keys(&self) -> usize {
        self.shards.iter().map(|s| s.keys).sum()
    }

    /// Total resident bytes across shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.resident_bytes).sum()
    }

    /// Total stored entries across shards.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.entries).sum()
    }

    /// Multi-line human-readable rendering (one line per shard plus a
    /// totals line), matching the CLI's `--stats` style.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== engine ==\n");
        for s in &self.shards {
            out.push_str(&format!(
                "shard {:<3} keys {:<8} entries {:<9} resident_bytes {:<11} queue_depth {}\n",
                s.shard, s.keys, s.entries, s.resident_bytes, s.queue_depth
            ));
        }
        out.push_str(&format!(
            "total     keys {:<8} entries {:<9} resident_bytes {:<11} dropped {} backpressure {}\n",
            self.keys(),
            self.entries(),
            self.resident_bytes(),
            self.dropped_items,
            self.backpressure_events
        ));
        out
    }
}

/// The sharded serving engine. See the crate docs for the design; the
/// API surface is `new` / `ingest` (one [`IngestRequest`] entry point) /
/// `submit` (one [`ShardRequest`] entry point) and its blocking forms
/// `query` / `flush` / `snapshot` / `checkpoint` / ….
///
/// `S` is the per-key synopsis type, `R` the observability sink
/// ([`NoopRecorder`] by default — zero-cost when disabled, as
/// everywhere in this workspace). `R` may be unsized: the TCP server
/// hosts an `Engine<DetWave, dyn Recorder + Send + Sync>`.
pub struct Engine<
    S: BitSynopsis + Send + 'static,
    R: Recorder + Send + Sync + ?Sized + 'static = NoopRecorder,
> {
    /// Shard `i`'s queue and the thread that drives it.
    queues: Vec<ShardQueue<S, R>>,
    workers: Vec<JoinHandle<()>>,
    rec: Arc<R>,
    dropped_items: AtomicU64,
    backpressure_events: AtomicU64,
    /// When set, workers skip the final clean-shutdown checkpoint so
    /// Drop leaves the disk exactly as a hard crash would.
    crashed: Arc<AtomicBool>,
    _synopsis: PhantomData<S>,
}

impl Engine<DetWave> {
    /// Serve a [`DetWave`] per key with the config's window and error
    /// bound, without observability. Validates the synopsis parameters
    /// up front.
    pub fn new(cfg: EngineConfig) -> Result<Self, WaveError> {
        let (n, eps) = (cfg.max_window, cfg.eps);
        Self::with_factory(cfg, move || DetWave::new(n, eps), Arc::new(NoopRecorder))
    }
}

impl Engine<DetWave, waves_obs::MetricsRegistry> {
    /// [`Engine::new`] reporting into a shared [`waves_obs::MetricsRegistry`].
    pub fn new_recorded(
        cfg: EngineConfig,
        rec: Arc<waves_obs::MetricsRegistry>,
    ) -> Result<Self, WaveError> {
        let (n, eps) = (cfg.max_window, cfg.eps);
        Self::with_factory(cfg, move || DetWave::new(n, eps), rec)
    }
}

impl<S, R> Engine<S, R>
where
    S: BitSynopsis + Send + 'static,
    R: Recorder + Send + Sync + ?Sized + 'static,
{
    /// The general constructor: serve an arbitrary synopsis per key,
    /// reporting into a shared recorder (`Arc::new(NoopRecorder)`, an
    /// `Arc<MetricsRegistry>`, or an `Arc<dyn Recorder + Send + Sync>`).
    /// The factory builds one fresh synopsis per newly-seen key. It is
    /// called once eagerly so a misconfigured factory fails at
    /// construction, not mid-stream.
    ///
    /// With [`EngineConfig::persist`] set, this is also the recovery
    /// path: each shard decodes its newest valid checkpoint and replays
    /// the acknowledged WAL tail before it accepts new work. A corrupt
    /// persist directory (META mismatch, undecodable checkpoint entry, a
    /// key checkpointed twice or found in another shard's files) fails
    /// construction with a typed error naming the key; a torn WAL tail
    /// is truncated silently — that is the crash-recovery contract.
    pub fn with_factory<F>(cfg: EngineConfig, factory: F, rec: Arc<R>) -> Result<Self, WaveError>
    where
        F: Fn() -> Result<S, WaveError> + Send + Sync + 'static,
    {
        // Surface synopsis-parameter errors now rather than inside a
        // worker thread on first ingest.
        drop(factory()?);
        let num_shards = cfg.num_shards.max(1);
        let store = (cfg.persist.as_ref())
            .map(|pc| Store::open(&pc.dir, num_shards as u32).map(|store| (store, pc)))
            .transpose()
            .map_err(WaveError::io)?;
        let factory: Arc<dyn Fn() -> Result<S, WaveError> + Send + Sync> = Arc::new(factory);
        let crashed = Arc::new(AtomicBool::new(false));
        // Recover every shard before any worker spawns, so a recovery
        // failure aborts construction and no shard serves a pre-replay view.
        let shards = (0..num_shards)
            .map(|index| {
                let persist = store.as_ref().map(|(store, pc)| (store, *pc));
                Shard::recover(index, num_shards, &factory, &rec, persist)
            })
            .collect::<Result<Vec<_>, WaveError>>()?;
        let (mut queues, mut workers) = (Vec::new(), Vec::new());
        for (index, shard) in shards.into_iter().enumerate() {
            let (tx, rx) = queue::bounded::<Cmd, _>(cfg.queue_capacity.max(1), shard);
            let crashed = Arc::clone(&crashed);
            let worker = std::thread::Builder::new()
                .name(format!("waves-engine-shard-{index}"))
                .spawn(move || {
                    let (mut run, mut held) = (Vec::new(), None);
                    while rx.recv_run(&mut run, &mut held).is_ok() {
                        let shard = held.as_mut().expect("a run comes with the shard");
                        shard.apply(run.drain(..), || rx.slots());
                    }
                    let shard = held.expect("the queue hands the shard back at close");
                    shard.close(crashed.load(Ordering::Relaxed));
                })
                .expect("spawn shard worker");
            queues.push(tx);
            workers.push(worker);
        }
        Ok(Engine {
            queues,
            workers,
            rec,
            dropped_items: AtomicU64::new(0),
            backpressure_events: AtomicU64::new(0),
            crashed,
            _synopsis: PhantomData,
        })
    }

    /// Number of shard worker threads.
    pub fn num_shards(&self) -> usize {
        self.queues.len()
    }

    /// Items shed so far by non-blocking ingest hitting full queues.
    pub fn dropped_items(&self) -> u64 {
        self.dropped_items.load(Ordering::Relaxed)
    }

    /// Crash-simulation support (used by `waves-dst`): make the next
    /// Drop skip the final clean-shutdown checkpoint. Workers still
    /// drain every enqueued command — acknowledged batches are applied
    /// and WAL-appended under the configured sync policy — but the disk
    /// is then left exactly as a hard process kill would leave it: a
    /// synced WAL prefix plus whatever checkpoints already existed.
    pub fn crash_on_drop(&self) {
        self.crashed.store(true, Ordering::Relaxed);
    }

    /// The shard that owns `key`, in `0..num_shards()`: a Fibonacci hash
    /// — multiplicative mixing spreads sequential user ids evenly, and
    /// the high bits drive the modulo so low-entropy keys don't alias.
    /// A key always lives on the same shard, so a caller that groups
    /// entries by this before [`Engine::ingest`] keeps per-key order.
    pub fn shard_of(&self, key: Key) -> usize {
        shard_for(key, self.queues.len())
    }

    /// Enqueue one batch on one shard. Blocking waits for room;
    /// non-blocking refuses a full queue, counting the shed items as
    /// backpressure — the caller decides whether they were clones
    /// (droppable) or the caller's own copy (retryable).
    fn enqueue(
        &self,
        shard: usize,
        batch: Vec<KeyedBits>,
        ctx: TraceCtx,
        blocking: bool,
    ) -> Result<(), WaveError> {
        let cmd = Cmd::Batch {
            batch,
            queued: OpenSpan::open(ctx, Stage::Queue, &*self.rec),
        };
        let tx = &self.queues[shard];
        let sent = match blocking {
            true => tx.send(cmd).map_err(|e| TrySendError::Disconnected(e.0)),
            false => tx.try_send(cmd),
        };
        match sent {
            Ok(depth) => {
                self.rec.observe(HistId::EngineQueueDepth, depth as u64);
                Ok(())
            }
            Err(TrySendError::Full(Cmd::Batch { batch, .. })) => {
                let items: u64 = batch.iter().map(|(_, bits)| bits.len()).sum();
                self.backpressure_events.fetch_add(1, Ordering::Relaxed);
                self.rec.incr(MetricId::EngineBackpressureEvents, 1);
                self.rec.incr(MetricId::EngineItemsDropped, items);
                self.dropped_items.fetch_add(items, Ordering::Relaxed);
                Err(WaveError::Backpressure { shard })
            }
            Err(_) => unreachable!("worker lives until Drop"),
        }
    }

    /// Send every shard the command `cmd` builds around a reply sink, and
    /// hand `done` the answers, in shard order, once the last one is in —
    /// on the thread of the shard that answered last.
    fn broadcast<T: Send + 'static>(
        &self,
        cmd: impl Fn(Sink<T>) -> Cmd,
        done: impl FnOnce(Vec<T>) + Send + 'static,
    ) {
        let shards = self.queues.len();
        let tally = Arc::new(Mutex::new((Vec::with_capacity(shards), Some(done))));
        for shard in 0..shards {
            let tally = Arc::clone(&tally);
            let reply: Sink<T> = Box::new(move |answer| {
                let mut tally = tally
                    .lock()
                    .expect("nothing that panics runs under the lock");
                tally.0.push((shard, answer));
                if tally.0.len() == shards {
                    let mut answers = std::mem::take(&mut tally.0);
                    let done = tally.1.take().expect("the last shard answers once");
                    drop(tally);
                    answers.sort_unstable_by_key(|&(shard, _)| shard);
                    done(answers.into_iter().map(|(_, answer)| answer).collect());
                }
            });
            self.queues[shard].append(cmd(reply));
        }
    }

    /// The non-blocking entry point for every request that waits on a
    /// shard: its sink gets the answer, and it observes every batch
    /// enqueued before the call. A query on an idle shard is answered
    /// here ([`Engine::query`]); anything else takes no queue slot and
    /// goes in at once behind everything queued, however full.
    /// The caller bounds how many it has outstanding.
    pub fn submit(&self, req: ShardRequest) {
        let (key, cmd) = match req {
            ShardRequest::Query {
                key,
                window,
                ctx,
                reply,
            } => {
                let mut queued = OpenSpan::open(ctx, Stage::Queue, &*self.rec);
                if let Some(res) = self.query_idle(key, window, &mut queued) {
                    return reply(res);
                }
                let cmd = Cmd::Query {
                    key,
                    window,
                    reply,
                    queued,
                    started: self.rec.enabled().then(Instant::now),
                };
                (key, cmd)
            }
            ShardRequest::Install { key, bytes, reply } => {
                (key, Cmd::Install { key, bytes, reply })
            }
            ShardRequest::Fetch { key, reply } => (key, Cmd::Fetch { key, reply }),
            ShardRequest::Flush(reply) => return self.broadcast(Cmd::Flush, |_| reply(())),
            ShardRequest::Checkpoint(reply) => {
                return self.broadcast(Cmd::Checkpoint, |outcomes| {
                    reply(outcomes.into_iter().collect())
                })
            }
            ShardRequest::Snapshot(reply) => {
                let dropped_items = self.dropped_items.load(Ordering::Relaxed);
                let backpressure_events = self.backpressure_events.load(Ordering::Relaxed);
                return self.broadcast(Cmd::Snapshot, move |shards| {
                    reply(EngineSnapshot {
                        shards,
                        dropped_items,
                        backpressure_events,
                    })
                });
            }
        };
        self.queues[self.shard_of(key)].append(cmd);
    }

    /// [`Engine::submit`] the request `req` builds around a channel, and
    /// wait for the answer.
    fn wait<T: Send + 'static>(&self, req: impl FnOnce(Sink<T>) -> ShardRequest) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        self.submit(req(Box::new(move |answer| tx.send(answer).unwrap_or(()))));
        rx.recv().expect("worker replies before exiting")
    }

    /// The single ingest entry point: deliver every entry of `req`,
    /// grouped into one sub-batch per shard (one queue slot per
    /// shard, not per event).
    ///
    /// Non-blocking (the default): a full shard queue sheds that shard's
    /// entire sub-batch — the shed item count lands in
    /// [`Engine::dropped_items`] and the first failing shard's
    /// [`WaveError::Backpressure`] is returned — while sub-batches for
    /// healthy shards are still delivered. A queue that a blocking ingest
    /// is parked on counts as full until it has drained to half.
    ///
    /// With [`IngestRequest::blocking`], waits for queue space instead
    /// (the lossless replay path used by the CLI and benches) and always
    /// returns `Ok`; a full queue wakes it once it has drained to half.
    ///
    /// With [`IngestRequest::traced`], each shard's worker records
    /// queue-wait, apply, and WAL spans parented to `ctx.parent` under
    /// `ctx.trace`; identical to an untraced request when `ctx` is
    /// [`TraceCtx::NONE`] or the recorder keeps no traces.
    pub fn ingest(&self, req: IngestRequest) -> Result<(), WaveError> {
        // Request order within each shard is per-key order, since a key
        // always maps to one shard; packed buffers move without copying.
        let mut per_shard = vec![Vec::new(); self.queues.len()];
        for (key, bits) in req.entries {
            per_shard[self.shard_of(key)].push((key, bits));
        }
        let mut first_err = Ok(());
        for (shard, sub) in per_shard.into_iter().enumerate() {
            if !sub.is_empty() {
                first_err = first_err.and(self.enqueue(shard, sub, req.ctx, req.blocking));
            }
        }
        first_err
    }

    /// Estimate the 1's count in the last `window` bits of `key`'s
    /// stream, observing every batch enqueued before the call: answered
    /// on this thread when the shard is idle — nothing queued and no run
    /// in its worker's hands — else behind what is queued. Returns
    /// [`WaveError::UnknownKey`] for never-seen keys and the synopsis's
    /// own errors otherwise.
    pub fn query(&self, key: Key, window: u64) -> Result<Estimate, WaveError> {
        self.query_idle(key, window, &mut None).unwrap_or_else(|| {
            self.wait(|reply| ShardRequest::Query {
                key,
                window,
                ctx: TraceCtx::NONE,
                reply,
            })
        })
    }

    /// Answer `key`'s query here, in the shard's queue, if the shard is
    /// idle, its queue-wait span `queued` taken; else `None`, `queued`
    /// left for the queue.
    fn query_idle(
        &self,
        key: Key,
        window: u64,
        queued: &mut Option<OpenSpan>,
    ) -> Option<Result<Estimate, WaveError>> {
        let started = self.rec.enabled().then(Instant::now);
        let queue = &self.queues[self.shard_of(key)];
        let res = queue.idle(|shard| shard.query(key, window, queued.take(), started))?;
        self.rec.incr(MetricId::EngineQueriesInline, 1);
        Some(res)
    }

    /// Barrier: returns once every shard has applied everything enqueued
    /// before this call.
    pub fn flush(&self) {
        self.wait(ShardRequest::Flush)
    }

    /// Collect a point-in-time snapshot: per-shard key counts, resident
    /// bytes (via each synopsis's `space_report`), stored entries, and
    /// queue depths, plus the engine-level shed counters. Walks every
    /// key, so treat it as an operator-frequency operation, not a
    /// hot-path one.
    pub fn snapshot(&self) -> EngineSnapshot {
        self.wait(ShardRequest::Snapshot)
    }

    /// Install `key`'s synopsis from its encoded bytes (a synopsis's
    /// own `encode()` output), **replacing** the key's local state — the
    /// follower half of cluster replication, where a follower adopts the
    /// state its primary holds verbatim.
    ///
    /// Installs obey a high-water mark, like `PUSH_DELTA`'s: bytes whose
    /// stream position ([`waves_core::Synopsis::pos`]) is behind the
    /// key's current state are answered `Ok` and change nothing, so two
    /// replicators racing cannot roll a follower back. An equal or newer
    /// position replaces the state.
    ///
    /// The install travels the key's shard FIFO like any batch, so it
    /// is ordered against ingest: batches enqueued before it apply
    /// first; batches after it apply on top. Installed state is *not*
    /// WAL-logged — after a crash the key reverts to its logged
    /// history, and the cluster layer's anti-entropy pass is what
    /// re-ships the difference.
    ///
    /// Undecodable bytes fail with an `InvalidData` [`WaveError::Io`]
    /// and leave the key's previous state untouched.
    pub fn install_synopsis(&self, key: Key, bytes: Vec<u8>) -> Result<(), WaveError> {
        self.wait(|reply| ShardRequest::Install { key, bytes, reply })
    }

    /// Durably checkpoint every shard: each worker serializes all of its
    /// keys' synopses, fsyncs them to a new checkpoint file, and
    /// reclaims the WAL history the checkpoint supersedes. Travels the
    /// per-shard FIFO, so everything enqueued before this call is
    /// covered. Without persistence configured this is a successful
    /// no-op; with persistence it returns the first shard's error, e.g.
    /// after a WAL write failure disabled durability on a shard.
    pub fn checkpoint(&self) -> Result<(), WaveError> {
        self.wait(ShardRequest::Checkpoint)
    }
}

impl<S, R> Drop for Engine<S, R>
where
    S: BitSynopsis + Send + 'static,
    R: Recorder + Send + Sync + ?Sized + 'static,
{
    fn drop(&mut self) {
        // Close every queue before joining any worker, so they drain in
        // parallel.
        self.queues.clear();
        for worker in self.workers.drain(..) {
            worker.join().ok();
        }
    }
}

#[cfg(test)]
mod run_equivalence;
#[cfg(test)]
mod tests;
