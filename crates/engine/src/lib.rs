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
//! * keys hash to one of `num_shards` worker threads (std threads, each
//!   fed by its own bounded FIFO — the workspace is std-only), each
//!   owning a private `HashMap<Key, S>` so the hot path takes **no
//!   cross-shard locks**; the FIFO wakes a blocked producer once per
//!   half queue drained, not once per command (`queue.rs`);
//! * ingestion flows through **one** entry point, [`Engine::ingest`],
//!   taking an [`IngestRequest`]: keyed **word-packed** bit batches
//!   ([`waves_core::Bits`] — 64 bits per queue/WAL/apply step), an
//!   optional blocking mode, and an optional [`TraceCtx`]. Non-blocking
//!   requests get explicit backpressure over bounded queues —
//!   [`WaveError::Backpressure`] when a shard queue is full, with shed
//!   items counted in [`Engine::dropped_items`] — while
//!   `.blocking(true)` trades latency for losslessness (replay and
//!   benchmarking paths);
//! * queries and snapshots travel through the same per-shard FIFO as
//!   ingest batches, so a query observes every batch the same caller
//!   enqueued before it (per-key read-your-writes). They take no queue
//!   slot, and [`Engine::submit`] waits for no answer: the shard hands
//!   it to the request's [`Sink`]. The blocking calls wait on a channel;
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

use std::collections::{hash_map, HashMap};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::TrySendError;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use waves_core::{BitSynopsis, Bits, DetWave, Estimate, WaveError};
use waves_obs::trace::{OpenSpan, Stage, TraceCtx};
use waves_obs::{HistId, MetricId, NoopRecorder, Recorder, ShardStat};
use waves_store::{ShardStore, Store};

pub use waves_store::{PersistConfig, SyncPolicy};

mod queue;

/// Stream identity: every key owns an independent synopsis.
pub type Key = u64;

/// One ingest event: a key plus a word-packed batch of its stream bits,
/// oldest first.
pub type KeyedBits = (Key, Bits);

/// The single ingest entry point's request: keyed word-packed batches
/// plus delivery options — every combination is one builder chain:
///
/// ```
/// use waves_engine::IngestRequest;
/// use waves_obs::trace::TraceCtx;
///
/// let _one = IngestRequest::of(7, [true, false, true]);
/// let _lossless = IngestRequest::of(7, [true; 64]).blocking(true);
/// let _traced = IngestRequest::new()
///     .entry(1, [true])
///     .entry(2, [false, true])
///     .traced(TraceCtx::NONE);
/// ```
///
/// The struct is `#[non_exhaustive]` so future delivery options (e.g.
/// deadlines) can land without breaking callers; construct via
/// [`IngestRequest::new`] / [`IngestRequest::of`] /
/// [`IngestRequest::batch`] and the builder methods.
#[non_exhaustive]
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

impl Default for IngestRequest {
    fn default() -> Self {
        IngestRequest {
            entries: Vec::new(),
            blocking: false,
            ctx: TraceCtx::NONE,
        }
    }
}

impl IngestRequest {
    /// An empty request; add entries with [`IngestRequest::entry`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-entry request: `key`'s next `bits`, oldest first.
    /// Accepts anything convertible to [`Bits`] (`&[bool]`, `[bool; N]`,
    /// `Vec<bool>`, or an already-packed buffer).
    pub fn of(key: Key, bits: impl Into<Bits>) -> Self {
        Self::new().entry(key, bits)
    }

    /// A multi-entry request from already-assembled keyed batches.
    pub fn batch(entries: Vec<KeyedBits>) -> Self {
        IngestRequest {
            entries,
            ..Self::default()
        }
    }

    /// Append one keyed batch.
    pub fn entry(mut self, key: Key, bits: impl Into<Bits>) -> Self {
        self.entries.push((key, bits.into()));
        self
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
/// that answered (the last one, for a request to every shard).
pub type Sink<T> = Box<dyn FnOnce(T) + Send>;

/// A request that waits on the shard owning its key, or on every shard,
/// with the sink its answer goes to: what [`Engine::submit`] takes. Each
/// variant is the blocking call of its name (`Query` is
/// [`Engine::query_traced`], `Fetch` [`Engine::synopsis_bytes`]).
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

/// Commands a shard worker consumes from its queue: an ingest batch (the
/// one command that takes a queue slot) or its part of a
/// [`ShardRequest`]. A traced batch or query carries its queue-wait span,
/// opened at enqueue and closed as the shard span opens; a query carries
/// when it was submitted, for `engine_query_ns`.
enum Cmd {
    Batch {
        batch: Vec<KeyedBits>,
        queued: Option<OpenSpan>,
    },
    Query {
        key: Key,
        window: u64,
        reply: Sink<Result<Estimate, WaveError>>,
        queued: Option<OpenSpan>,
        started: Option<Instant>,
    },
    Snapshot(Sink<ShardSnapshot>),
    Flush(Sink<()>),
    Checkpoint(Sink<Result<(), WaveError>>),
    Install {
        key: Key,
        bytes: Vec<u8>,
        reply: Sink<Result<(), WaveError>>,
    },
    Fetch {
        key: Key,
        reply: Sink<Result<Vec<u8>, WaveError>>,
    },
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

struct ShardHandle {
    tx: queue::Sender<Cmd>,
    worker: JoinHandle<()>,
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
    cfg: EngineConfig,
    shards: Vec<ShardHandle>,
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
    /// path: each shard loads its newest valid checkpoint (decoding
    /// every key's synopsis via
    /// [`waves_core::Synopsis::decode_synopsis`]) and replays the
    /// acknowledged WAL tail through [`BitSynopsis::push_words`] before
    /// the shard accepts new work. A corrupt persist directory (META
    /// mismatch, undecodable checkpoint entry, a checkpoint naming a key
    /// twice, a checkpoint or WAL entry for a key another shard owns)
    /// fails construction with a typed error naming the key; a torn WAL
    /// tail is truncated silently — that is the crash-recovery contract,
    /// not an error.
    pub fn with_factory<F>(cfg: EngineConfig, factory: F, rec: Arc<R>) -> Result<Self, WaveError>
    where
        F: Fn() -> Result<S, WaveError> + Send + Sync + 'static,
    {
        // Surface synopsis-parameter errors now rather than inside a
        // worker thread on first ingest.
        drop(factory()?);
        let num_shards = cfg.num_shards.max(1);
        let capacity = cfg.queue_capacity.max(1);
        let store = match &cfg.persist {
            Some(pc) => Some(Store::open(&pc.dir, num_shards as u32).map_err(WaveError::io)?),
            None => None,
        };
        let factory = Arc::new(factory);
        let crashed = Arc::new(AtomicBool::new(false));
        let mut shards = Vec::with_capacity(num_shards);
        for shard in 0..num_shards {
            // Recover this shard's durable state before its worker
            // spawns, so a recovery failure aborts construction and a
            // recovered engine never serves a pre-replay view.
            let (initial_keys, persist) = match (&store, &cfg.persist) {
                (Some(store), Some(pc)) => {
                    let recovered = ShardStore::recover(
                        &store.shard_dir(shard),
                        pc.sync,
                        pc.segment_bytes,
                        rec.as_ref(),
                    )
                    .map_err(WaveError::io)?;
                    // What a checkpoint may hold (PROTOCOL.md §2.4): each
                    // key at most once, and only keys this shard owns —
                    // a key routed elsewhere is one no query reaches.
                    let owned = |key: Key, what: &str| {
                        match shard_for(key, num_shards) {
                        owner if owner == shard => Ok(()),
                        owner => Err(invalid_data(format!(
                            "{what} for key {key} in shard {shard}: the key belongs to shard {owner}"
                        ))),
                    }
                    };
                    let mut keys: HashMap<Key, S> = HashMap::new();
                    for (key, bytes) in &recovered.entries {
                        owned(*key, "checkpoint entry")?;
                        let hash_map::Entry::Vacant(slot) = keys.entry(*key) else {
                            return Err(invalid_data(format!(
                                "checkpoint of shard {shard} names key {key} twice"
                            )));
                        };
                        slot.insert(S::decode_synopsis(bytes).map_err(|e| {
                            invalid_data(format!("checkpoint entry for key {key}: {e}"))
                        })?);
                    }
                    for batch in &recovered.batches {
                        for (key, bits) in batch {
                            owned(*key, "WAL entry")?;
                            keys.entry(*key)
                                .or_insert_with(|| {
                                    factory().expect("factory validated at construction")
                                })
                                .push_words(bits.as_ref());
                        }
                    }
                    let persist = ShardPersist {
                        store: recovered.store,
                        checkpoint_every: pc.checkpoint_every_batches,
                        applied_since_checkpoint: 0,
                    };
                    (keys, Some(persist))
                }
                _ => (HashMap::new(), None),
            };
            let (tx, rx) = queue::bounded::<Cmd>(capacity);
            let worker_factory = Arc::clone(&factory);
            let worker_rec = Arc::clone(&rec);
            let worker_crashed = Arc::clone(&crashed);
            let worker = std::thread::Builder::new()
                .name(format!("waves-engine-shard-{shard}"))
                .spawn(move || {
                    shard_worker(
                        shard,
                        rx,
                        worker_factory,
                        worker_rec,
                        initial_keys,
                        persist,
                        worker_crashed,
                    )
                })
                .expect("spawn shard worker");
            shards.push(ShardHandle { tx, worker });
        }
        Ok(Engine {
            cfg,
            shards,
            rec,
            dropped_items: AtomicU64::new(0),
            backpressure_events: AtomicU64::new(0),
            crashed,
            _synopsis: PhantomData,
        })
    }

    /// Number of shard worker threads.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
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
        shard_for(key, self.shards.len())
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
        let tx = &self.shards[shard].tx;
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
        let shards = self.shards.len();
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
            self.shards[shard].tx.append(cmd(reply));
        }
    }

    /// The non-blocking entry point for every request that waits on a
    /// shard: enqueue `req` and return; its sink gets the answer. `req`
    /// takes no queue slot, so it goes in at once behind everything
    /// queued, however full, and observes every batch enqueued before
    /// the call. The caller bounds how many it has outstanding.
    pub fn submit(&self, req: ShardRequest) {
        let (key, cmd) = match req {
            ShardRequest::Query {
                key,
                window,
                ctx,
                reply,
            } => {
                let cmd = Cmd::Query {
                    key,
                    window,
                    reply,
                    queued: OpenSpan::open(ctx, Stage::Queue, &*self.rec),
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
        self.shards[self.shard_of(key)].tx.append(cmd);
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
        let IngestRequest {
            entries,
            blocking,
            ctx,
            ..
        } = req;
        let mut first_err = Ok(());
        for (shard, sub) in self.split_by_shard(entries) {
            let sent = self.enqueue(shard, sub, ctx, blocking);
            if first_err.is_ok() {
                first_err = sent;
            }
        }
        first_err
    }

    /// Group events into per-shard sub-batches, preserving order within
    /// each shard (per-key order is what correctness needs, and a key
    /// always maps to one shard). Takes the batch by value: packed
    /// buffers move into their shard's sub-batch without copying.
    fn split_by_shard(&self, batch: Vec<KeyedBits>) -> Vec<(usize, Vec<KeyedBits>)> {
        let mut per_shard: Vec<Vec<KeyedBits>> = vec![Vec::new(); self.shards.len()];
        for (key, bits) in batch {
            per_shard[self.shard_of(key)].push((key, bits));
        }
        per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, sub)| !sub.is_empty())
            .collect()
    }

    /// Estimate the 1's count in the last `window` bits of `key`'s
    /// stream. Travels the shard's FIFO behind any batches already
    /// enqueued, so it observes this caller's prior (non-shed) ingests
    /// for the key. Returns [`WaveError::UnknownKey`] for never-seen
    /// keys and the synopsis's own errors otherwise.
    pub fn query(&self, key: Key, window: u64) -> Result<Estimate, WaveError> {
        self.query_traced(key, window, TraceCtx::NONE)
    }

    /// [`Engine::query`] carrying a [`TraceCtx`]: the shard worker
    /// records queue-wait and execute spans parented to `ctx.parent`.
    pub fn query_traced(
        &self,
        key: Key,
        window: u64,
        ctx: TraceCtx,
    ) -> Result<Estimate, WaveError> {
        self.wait(|reply| ShardRequest::Query {
            key,
            window,
            ctx,
            reply,
        })
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

    /// `key`'s synopsis `encode()` bytes — what a follower installs
    /// through [`Engine::install_synopsis`]. Travels the key's shard
    /// FIFO, so the bytes cover every batch enqueued before the call.
    /// Returns [`WaveError::UnknownKey`] for never-seen keys.
    pub fn synopsis_bytes(&self, key: Key) -> Result<Vec<u8>, WaveError> {
        self.wait(|reply| ShardRequest::Fetch { key, reply })
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
        // parallel and exit.
        let workers: Vec<_> = self.shards.drain(..).map(|shard| shard.worker).collect();
        for worker in workers {
            worker.join().ok();
        }
    }
}

/// A shard worker's durability state.
struct ShardPersist {
    store: ShardStore,
    /// Auto-checkpoint after this many applied batches; 0 disables.
    checkpoint_every: u64,
    applied_since_checkpoint: u64,
}

impl ShardPersist {
    fn write_checkpoint<S: BitSynopsis + Send + 'static, R: Recorder + ?Sized>(
        &mut self,
        keys: &HashMap<Key, S>,
        rec: &R,
    ) -> std::io::Result<()> {
        let entries: Vec<(u64, Vec<u8>)> = keys
            .iter()
            .map(|(k, s)| (*k, s.encode_synopsis()))
            .collect();
        self.store.checkpoint(entries, rec)?;
        self.applied_since_checkpoint = 0;
        Ok(())
    }
}

/// [`Engine::shard_of`] for an engine of `num_shards` shards.
#[inline]
fn shard_for(key: Key, num_shards: usize) -> usize {
    let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((mixed >> 32) as usize) % num_shards
}

/// Refused bytes: an `InvalidData` [`WaveError::Io`] naming them.
fn invalid_data(what: String) -> WaveError {
    WaveError::io(std::io::Error::new(std::io::ErrorKind::InvalidData, what))
}

/// Key-family fingerprint for the registry's load-skew dimension: the
/// top 4 bits of the same Fibonacci mix [`Engine::shard_of`] uses, so
/// it costs one multiply-shift already paid for routing.
#[inline]
fn family_of(key: Key) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize
}

/// The shard worker loop: single-threaded owner of this shard's keys.
///
/// With persistence, every batch is WAL-appended *before* it is applied;
/// an unrecoverable WAL io error disables durability for this shard
/// (serving continues from memory) and is surfaced as a
/// `store_wal_disabled_total` count plus a failed reply to the next
/// explicit checkpoint. Clean shutdown (queue closed) writes a final
/// checkpoint so `OnCheckpoint` deployments lose nothing across a
/// graceful restart.
#[allow(clippy::too_many_arguments)]
fn shard_worker<S, R, F>(
    shard: usize,
    rx: queue::Receiver<Cmd>,
    factory: Arc<F>,
    rec: Arc<R>,
    initial_keys: HashMap<Key, S>,
    mut persist: Option<ShardPersist>,
    crashed: Arc<AtomicBool>,
) where
    S: BitSynopsis + Send + 'static,
    R: Recorder + Send + Sync + ?Sized + 'static,
    F: Fn() -> Result<S, WaveError> + Send + Sync + 'static,
{
    // A traced command's queue wait ends as its shard span begins.
    let execute = |queued: Option<OpenSpan>| queued.map(|q| q.then(Stage::Shard, rec.as_ref()));
    let mut keys = initial_keys;
    let mut wal_failed = false;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Batch { batch, queued } => {
                let span = execute(queued);
                let wal_ctx = span.map_or(TraceCtx::NONE, OpenSpan::ctx);
                let started = rec.enabled().then(Instant::now);
                if let Some(p) = persist.as_mut() {
                    if p.store
                        .append_batch_traced(&batch, rec.as_ref(), wal_ctx)
                        .is_err()
                    {
                        // No reply channel exists for a batch, so degrade:
                        // keep serving from memory, stop logging, and make
                        // the failure visible to operators.
                        rec.incr(MetricId::StoreWalDisabled, 1);
                        persist = None;
                        wal_failed = true;
                    }
                }
                let mut items = 0u64;
                for (key, bits) in &batch {
                    let synopsis = keys
                        .entry(*key)
                        .or_insert_with(|| factory().expect("factory validated at construction"));
                    // The word-packed apply path: 64 bits per step, zero
                    // runs collapsed in O(1) by the synopsis overrides.
                    synopsis.push_words(bits.as_ref());
                    items += bits.len();
                    rec.incr_family(family_of(*key), bits.len());
                }
                if let Some(t0) = started {
                    rec.observe(HistId::EngineIngestBatchNs, t0.elapsed().as_nanos() as u64);
                }
                rec.incr(MetricId::EngineBatchesIngested, 1);
                rec.incr(MetricId::EngineItemsIngested, items);
                rec.incr_shard(shard, ShardStat::Batches, 1);
                rec.incr_shard(shard, ShardStat::Items, items);
                if let Some(span) = span {
                    span.end(rec.as_ref());
                }
                if let Some(p) = persist.as_mut() {
                    p.applied_since_checkpoint += 1;
                    if p.checkpoint_every > 0
                        && p.applied_since_checkpoint >= p.checkpoint_every
                        && p.write_checkpoint(&keys, rec.as_ref()).is_err()
                    {
                        rec.incr(MetricId::StoreCheckpointFailures, 1);
                        // The WAL is still intact; keep logging and
                        // retry at the next checkpoint interval.
                        p.applied_since_checkpoint = 0;
                    }
                }
            }
            Cmd::Query {
                key,
                window,
                reply,
                queued,
                started,
            } => {
                let span = execute(queued);
                let res = match keys.get(&key) {
                    Some(synopsis) => synopsis.query_window(window),
                    None => Err(WaveError::UnknownKey { key }),
                };
                rec.incr(MetricId::EngineQueriesServed, 1);
                rec.incr_shard(shard, ShardStat::Queries, 1);
                if let Some(t0) = started {
                    rec.observe(HistId::EngineQueryNs, t0.elapsed().as_nanos() as u64);
                }
                // Close the span before replying so a caller that
                // inspects the ring right after the reply sees it.
                if let Some(span) = span {
                    span.end(rec.as_ref());
                }
                reply(res);
            }
            Cmd::Snapshot(reply) => {
                let mut snap = ShardSnapshot {
                    shard,
                    keys: keys.len(),
                    resident_bytes: 0,
                    synopsis_bits: 0,
                    entries: 0,
                    queue_depth: rx.slots(),
                };
                for synopsis in keys.values() {
                    let r = synopsis.space_report();
                    snap.resident_bytes += r.resident_bytes;
                    snap.synopsis_bits += r.synopsis_bits;
                    snap.entries += r.entries;
                }
                reply(snap);
            }
            Cmd::Flush(reply) => reply(()),
            Cmd::Checkpoint(reply) => {
                let res = match persist.as_mut() {
                    Some(p) => p
                        .write_checkpoint(&keys, rec.as_ref())
                        .map_err(WaveError::io),
                    None if wal_failed => Err(WaveError::io(std::io::Error::other(
                        "persistence disabled after WAL write failure",
                    ))),
                    None => Ok(()), // persistence never configured: no-op
                };
                reply(res);
            }
            Cmd::Install { key, bytes, reply } => {
                let res = match S::decode_synopsis(&bytes) {
                    // An older copy than the key's state: a late or
                    // racing replicator, acknowledged and ignored.
                    Ok(synopsis) if keys.get(&key).is_some_and(|s| s.pos() > synopsis.pos()) => {
                        Ok(())
                    }
                    Ok(synopsis) => {
                        keys.insert(key, synopsis);
                        rec.incr(MetricId::EngineSynopsesInstalled, 1);
                        Ok(())
                    }
                    Err(e) => Err(invalid_data(format!("synopsis install for key {key}: {e}"))),
                };
                reply(res);
            }
            Cmd::Fetch { key, reply } => {
                let res = match keys.get(&key) {
                    Some(synopsis) => Ok(synopsis.encode_synopsis()),
                    None => Err(WaveError::UnknownKey { key }),
                };
                reply(res);
            }
        }
    }
    // Clean shutdown: land everything durably regardless of sync policy.
    // A simulated crash ([`Engine::crash_on_drop`]) skips this so the
    // WAL prefix — not a fresh checkpoint — is what recovery sees.
    if crashed.load(Ordering::Relaxed) {
        return;
    }
    if let Some(p) = persist.as_mut() {
        if p.write_checkpoint(&keys, rec.as_ref()).is_err() {
            rec.incr(MetricId::StoreCheckpointFailures, 1);
            // Best effort fallback: at least fsync the WAL tail.
            let _ = p.store.sync(rec.as_ref());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waves_obs::MetricsRegistry;

    fn lcg_bits(seed: u64, len: usize, density_mod: u64, density_lt: u64) -> Vec<bool> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % density_mod < density_lt
            })
            .collect()
    }

    fn small_cfg(shards: usize) -> EngineConfig {
        EngineConfig::builder()
            .num_shards(shards)
            .max_window(64)
            .eps(0.25)
            .build()
    }

    #[test]
    fn config_builder_defaults_and_clamps() {
        let cfg = EngineConfig::builder().build();
        assert_eq!(cfg.num_shards, 4);
        assert_eq!(cfg.queue_capacity, 1024);
        let cfg = EngineConfig::builder()
            .num_shards(0)
            .queue_capacity(0)
            .build();
        assert_eq!(cfg.num_shards, 1);
        assert_eq!(cfg.queue_capacity, 1);
    }

    #[test]
    fn bad_synopsis_params_fail_at_construction() {
        let cfg = EngineConfig::builder().eps(7.5).build();
        assert_eq!(Engine::new(cfg).err(), Some(WaveError::InvalidEpsilon(7.5)));
        let cfg = EngineConfig::builder().max_window(0).build();
        assert!(Engine::new(cfg).is_err());
    }

    /// Both synopses refuse a window past the bound with the same typed
    /// error (the EH used to accept it, overflow in expiry, and report
    /// every key as `0 (exact)`).
    #[test]
    fn window_past_the_bound_is_a_typed_error_for_either_synopsis() {
        let cfg = EngineConfig::builder()
            .num_shards(2)
            .max_window(u64::MAX)
            .eps(0.25)
            .build();
        let want = Some(WaveError::InvalidWindow(u64::MAX));
        assert_eq!(Engine::new(cfg.clone()).err(), want);
        let eh = Engine::with_factory(
            cfg,
            || waves_eh::EhCount::new(u64::MAX, 0.25),
            Arc::new(NoopRecorder),
        );
        assert_eq!(eh.err(), want);
    }

    #[test]
    fn per_key_results_match_single_threaded_oracle() {
        let engine = Engine::new(small_cfg(4)).unwrap();
        let num_keys = 200u64;
        let mut oracles: HashMap<Key, DetWave> = HashMap::new();
        // Interleave keys heavily: several rounds of per-key chunks.
        for round in 0..5u64 {
            let mut batch: Vec<KeyedBits> = Vec::new();
            for key in 0..num_keys {
                let bits = lcg_bits(round * 1_000 + key, 37, 3, 1);
                let oracle = oracles
                    .entry(key)
                    .or_insert_with(|| DetWave::new(64, 0.25).unwrap());
                bits.iter().for_each(|&b| oracle.push_bit(b));
                batch.push((key, Bits::from(bits)));
            }
            engine
                .ingest(IngestRequest::batch(batch).blocking(true))
                .unwrap();
        }
        engine.flush();
        for key in 0..num_keys {
            for window in [1u64, 13, 64] {
                assert_eq!(
                    engine.query(key, window).unwrap(),
                    oracles[&key].query(window).unwrap(),
                    "key={key} window={window}"
                );
            }
        }
    }

    #[test]
    fn install_synopsis_replaces_key_state() {
        let engine = Engine::new(small_cfg(2)).unwrap();
        engine
            .ingest(IngestRequest::of(9, [true, true, true]).blocking(true))
            .unwrap();
        engine.flush();
        assert_eq!(engine.query(9, 64).unwrap().value, 3.0);

        // Build a replacement synopsis elsewhere (a "primary") and ship
        // its encode() bytes; the install replaces the local state.
        let mut primary = DetWave::new(64, 0.25).unwrap();
        primary.push_words(Bits::from_bools(&[true, false, false, true, true, false]).as_ref());
        engine.install_synopsis(9, primary.encode()).unwrap();
        engine.flush();
        assert_eq!(engine.query(9, 64).unwrap(), primary.query(64).unwrap());

        // Installing under a fresh key creates it.
        let mut other = DetWave::new(64, 0.25).unwrap();
        other.push_bit(true);
        engine.install_synopsis(77, other.encode()).unwrap();
        assert_eq!(engine.query(77, 64).unwrap().value, 1.0);
    }

    #[test]
    fn install_synopsis_never_rolls_a_key_back() {
        let engine = Engine::new(small_cfg(2)).unwrap();
        let wave = |bits: &[bool]| {
            let mut w = DetWave::new(64, 0.25).unwrap();
            w.push_words(Bits::from_bools(bits).as_ref());
            w
        };
        engine
            .ingest(IngestRequest::of(9, [true, false, true, true]).blocking(true))
            .unwrap();
        let held = engine.synopsis_bytes(9).unwrap();

        // An older copy is acknowledged and changes nothing.
        engine
            .install_synopsis(9, wave(&[true, true, true]).encode())
            .unwrap();
        assert_eq!(engine.synopsis_bytes(9).unwrap(), held);

        // An equal position replaces, and so does a newer one.
        let equal = wave(&[false, false, false, true]);
        engine.install_synopsis(9, equal.encode()).unwrap();
        assert_eq!(engine.synopsis_bytes(9).unwrap(), equal.encode());
        let newer = wave(&[true; 9]);
        engine.install_synopsis(9, newer.encode()).unwrap();
        assert_eq!(engine.synopsis_bytes(9).unwrap(), newer.encode());

        assert_eq!(
            engine.synopsis_bytes(10),
            Err(WaveError::UnknownKey { key: 10 })
        );
    }

    #[test]
    fn install_synopsis_rejects_garbage_and_keeps_state() {
        let engine = Engine::new(small_cfg(1)).unwrap();
        engine
            .ingest(IngestRequest::of(4, [true, true]).blocking(true))
            .unwrap();
        engine.flush();
        // Empty input can't even yield the gamma-coded max_window.
        let err = engine.install_synopsis(4, Vec::new()).unwrap_err();
        match err {
            WaveError::Io(io) => assert_eq!(io.kind(), std::io::ErrorKind::InvalidData),
            other => panic!("expected Io(InvalidData), got {other:?}"),
        }
        // The failed install left the previous state untouched.
        assert_eq!(engine.query(4, 64).unwrap().value, 2.0);
    }

    #[test]
    fn unknown_key_and_oversized_window_errors() {
        let engine = Engine::new(small_cfg(2)).unwrap();
        engine
            .ingest(IngestRequest::of(1, [true]).blocking(true))
            .unwrap();
        engine.flush();
        assert_eq!(
            engine.query(999, 64).err(),
            Some(WaveError::UnknownKey { key: 999 })
        );
        assert_eq!(
            engine.query(1, 65).err(),
            Some(WaveError::WindowTooLarge {
                requested: 65,
                max: 64
            })
        );
    }

    #[test]
    fn backpressure_sheds_and_counts() {
        let cfg = EngineConfig::builder()
            .num_shards(1)
            .queue_capacity(1)
            .max_window(1 << 20)
            .eps(0.01)
            .build();
        let engine = Engine::new(cfg).unwrap();
        // A large first batch keeps the single worker busy while we spam
        // the capacity-1 queue; at least one try must bounce.
        let big = vec![(0u64, Bits::from(vec![true; 1 << 20]))];
        engine
            .ingest(IngestRequest::batch(big).blocking(true))
            .unwrap();
        let mut saw_backpressure = false;
        for _ in 0..10_000 {
            match engine.ingest(IngestRequest::of(0, [true, false])) {
                Err(WaveError::Backpressure { shard }) => {
                    assert_eq!(shard, 0);
                    saw_backpressure = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
                Ok(()) => {}
            }
        }
        assert!(saw_backpressure, "capacity-1 queue never filled");
        assert!(engine.dropped_items() >= 2);
        let snap = engine.snapshot();
        assert!(snap.backpressure_events >= 1);
        assert_eq!(snap.dropped_items, engine.dropped_items());
    }

    /// A query and a flush wait for no room: issued while the one slot
    /// of a busy shard's queue is taken, each goes in behind the queued
    /// batches and answers with all of them applied.
    #[test]
    fn a_query_and_a_flush_pass_a_full_queue_and_answer() {
        const N: u64 = 1 << 20;
        let cfg = EngineConfig::builder()
            .num_shards(1)
            .queue_capacity(1)
            .max_window(N)
            .eps(0.01)
            .build();
        let engine = Engine::new(cfg).unwrap();
        let mut oracle = DetWave::new(N, 0.01).unwrap();
        let big = Bits::from(lcg_bits(5, 1 << 20, 2, 1));
        oracle.push_words(big.as_ref());
        engine
            .ingest(IngestRequest::batch(vec![(0, big)]).blocking(true))
            .unwrap();
        let small = Bits::from_bools(&[true, false, true]);
        if engine
            .ingest(IngestRequest::batch(vec![(0, small.clone())]))
            .is_ok()
        {
            oracle.push_words(small.as_ref());
        }
        assert_eq!(engine.query(0, N).unwrap(), oracle.query(N).unwrap());
        engine.flush();
        assert_eq!(engine.snapshot().shards[0].queue_depth, 0);
        assert_eq!(engine.query(0, 100).unwrap(), oracle.query(100).unwrap());
    }

    #[test]
    fn partial_batch_delivery_under_backpressure() {
        // One-shot: non-blocking batch into empty queues always fits.
        let engine = Engine::new(small_cfg(2)).unwrap();
        let batch: Vec<KeyedBits> = (0..10u64).map(|k| (k, Bits::from([true; 4]))).collect();
        engine.ingest(IngestRequest::batch(batch)).unwrap();
        engine.flush();
        for k in 0..10u64 {
            assert_eq!(engine.query(k, 64).unwrap(), Estimate::exact(4), "k={k}");
        }
    }

    #[test]
    fn snapshot_reports_keys_and_space() {
        let engine = Engine::new(small_cfg(3)).unwrap();
        let batch: Vec<KeyedBits> = (0..50u64)
            .map(|k| (k, Bits::from(lcg_bits(k, 100, 2, 1))))
            .collect();
        engine
            .ingest(IngestRequest::batch(batch).blocking(true))
            .unwrap();
        engine.flush();
        let snap = engine.snapshot();
        assert_eq!(snap.shards.len(), 3);
        assert_eq!(snap.keys(), 50);
        assert!(snap.entries() > 0);
        assert!(snap.resident_bytes() > 0);
        assert_eq!(snap.dropped_items, 0);
        // Every shard got some keys (fibonacci hashing spreads 50 keys).
        assert!(snap.shards.iter().all(|s| s.keys > 0));
        let text = snap.to_text();
        assert!(text.contains("== engine =="));
        assert!(text.contains("total"));
    }

    #[test]
    fn generic_over_eh_synopsis() {
        let cfg = small_cfg(2);
        let engine = Engine::with_factory(
            cfg,
            || waves_eh::EhCount::new(64, 0.25),
            Arc::new(NoopRecorder),
        )
        .unwrap();
        engine
            .ingest(IngestRequest::of(3, [true; 10]).blocking(true))
            .unwrap();
        engine.flush();
        let est = engine.query(3, 64).unwrap();
        assert!(est.brackets(10));
    }

    #[test]
    fn metrics_flow_into_registry() {
        let reg = Arc::new(MetricsRegistry::new());
        let cfg = small_cfg(2);
        let engine = Engine::new_recorded(cfg, Arc::clone(&reg)).unwrap();
        let batch: Vec<KeyedBits> = (0..8u64).map(|k| (k, Bits::from([true; 5]))).collect();
        engine
            .ingest(IngestRequest::batch(batch).blocking(true))
            .unwrap();
        engine.flush();
        engine.query(0, 64).unwrap();
        engine.query(12345, 64).unwrap_err();
        use waves_obs::MetricId as M;
        assert_eq!(reg.counter(M::EngineItemsIngested), 40);
        assert!(reg.counter(M::EngineBatchesIngested) >= 1);
        assert_eq!(reg.counter(M::EngineQueriesServed), 2);
        assert_eq!(reg.counter(M::EngineBackpressureEvents), 0);
        assert!(reg.histogram(HistId::EngineQueryNs).snapshot().count >= 2);
        assert!(reg.histogram(HistId::EngineIngestBatchNs).snapshot().count >= 1);
        assert!(reg.histogram(HistId::EngineQueueDepth).snapshot().count >= 1);
    }

    #[test]
    fn shard_dimension_sums_to_global_counters() {
        let reg = Arc::new(MetricsRegistry::new());
        let engine = Engine::new_recorded(small_cfg(3), Arc::clone(&reg)).unwrap();
        let batch: Vec<KeyedBits> = (0..40u64).map(|k| (k, Bits::from([true; 3]))).collect();
        engine
            .ingest(IngestRequest::batch(batch).blocking(true))
            .unwrap();
        engine.flush();
        for k in 0..10u64 {
            engine.query(k, 64).unwrap();
        }
        use waves_obs::MetricId as M;
        let snap = reg.snapshot();
        let shard_items: u64 = snap.shards.iter().map(|s| s.items).sum();
        let shard_batches: u64 = snap.shards.iter().map(|s| s.batches).sum();
        let shard_queries: u64 = snap.shards.iter().map(|s| s.queries).sum();
        assert_eq!(shard_items, reg.counter(M::EngineItemsIngested));
        assert_eq!(shard_items, 120);
        assert_eq!(shard_batches, reg.counter(M::EngineBatchesIngested));
        assert_eq!(shard_queries, reg.counter(M::EngineQueriesServed));
        // Key families: every ingested item lands in exactly one family.
        assert_eq!(snap.families.iter().sum::<u64>(), 120);
    }

    #[test]
    fn traced_ingest_and_query_record_span_tree() {
        use waves_obs::trace::{SpanRecorder, TraceCtx, TraceId};
        use waves_obs::{Fanout, Stage};
        let rec = Arc::new(Fanout(MetricsRegistry::new(), SpanRecorder::new()));
        let cfg = EngineConfig::builder()
            .num_shards(2)
            .max_window(64)
            .eps(0.25)
            .persist_config(
                PersistConfig::new(waves_store::scratch_dir("engine-trace"))
                    .sync_policy(SyncPolicy::EveryBatch),
            )
            .build();
        let dir = cfg.persist.as_ref().unwrap().dir.clone();
        let (n, eps) = (cfg.max_window, cfg.eps);
        let engine =
            Engine::with_factory(cfg, move || DetWave::new(n, eps), Arc::clone(&rec)).unwrap();
        let ctx = TraceCtx {
            trace: TraceId(42),
            parent: 1,
        };
        engine
            .ingest(IngestRequest::of(7, [true; 5]).traced(ctx))
            .unwrap();
        engine.flush();
        engine.query_traced(7, 64, ctx).unwrap();
        let spans = rec.1.trace(TraceId(42));
        let stages: Vec<Stage> = spans.iter().map(|s| s.stage).collect();
        // Ingest: queue + shard + wal + fsync. Query: queue + shard.
        assert_eq!(stages.iter().filter(|&&s| s == Stage::Queue).count(), 2);
        assert_eq!(stages.iter().filter(|&&s| s == Stage::Shard).count(), 2);
        assert_eq!(stages.iter().filter(|&&s| s == Stage::Wal).count(), 1);
        assert_eq!(stages.iter().filter(|&&s| s == Stage::Fsync).count(), 1);
        // Structure: queue spans parent to the ctx parent, wal parents
        // to the ingest's shard span.
        let wal = spans.iter().find(|s| s.stage == Stage::Wal).unwrap();
        let shard_ids: Vec<u64> = spans
            .iter()
            .filter(|s| s.stage == Stage::Shard)
            .map(|s| s.id)
            .collect();
        assert!(shard_ids.contains(&wal.parent));
        assert!(spans
            .iter()
            .filter(|s| s.stage == Stage::Queue)
            .all(|s| s.parent == 1));
        // Untraced work records no spans.
        engine.ingest(IngestRequest::of(8, [true])).unwrap();
        engine.flush();
        engine.query(8, 64).unwrap();
        assert_eq!(rec.1.spans().len(), spans.len());
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn queries_observe_prior_ingests_per_key() {
        // FIFO-per-shard read-your-writes: no flush needed between an
        // ingest and a query for the same key.
        let engine = Engine::new(small_cfg(4)).unwrap();
        for i in 0..100u64 {
            engine
                .ingest(IngestRequest::of(i % 7, [true]).blocking(true))
                .unwrap();
            let est = engine.query(i % 7, 64).unwrap();
            assert_eq!(est.value, (i / 7 + 1) as f64, "i={i}");
        }
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let engine = Engine::new(small_cfg(8)).unwrap();
        engine
            .ingest(IngestRequest::of(1, [true; 100]).blocking(true))
            .unwrap();
        drop(engine); // must not hang or panic
    }

    fn persist_cfg(dir: &std::path::Path, shards: usize) -> EngineConfig {
        EngineConfig::builder()
            .num_shards(shards)
            .max_window(64)
            .eps(0.25)
            .persist_config(PersistConfig::new(dir).sync_policy(SyncPolicy::EveryBatch))
            .build()
    }

    #[test]
    fn restart_preserves_state_and_query_results() {
        let dir = waves_store::scratch_dir("engine-restart");
        let mut oracles: HashMap<Key, DetWave> = HashMap::new();
        let cfg = persist_cfg(&dir, 3);
        {
            let engine = Engine::new(cfg.clone()).unwrap();
            for round in 0..4u64 {
                let mut batch: Vec<KeyedBits> = Vec::new();
                for key in 0..60u64 {
                    let bits = lcg_bits(round * 777 + key, 29, 3, 1);
                    let oracle = oracles
                        .entry(key)
                        .or_insert_with(|| DetWave::new(64, 0.25).unwrap());
                    bits.iter().for_each(|&b| oracle.push_bit(b));
                    batch.push((key, Bits::from(bits)));
                }
                engine
                    .ingest(IngestRequest::batch(batch).blocking(true))
                    .unwrap();
            }
            engine.flush();
        } // clean shutdown: final checkpoint
        let engine = Engine::new(cfg).unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.keys(), 60, "all keys survive restart");
        assert!(snap.entries() > 0);
        for key in 0..60u64 {
            for window in [1u64, 17, 64] {
                assert_eq!(
                    engine.query(key, window).unwrap(),
                    oracles[&key].query(window).unwrap(),
                    "key={key} window={window}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_replays_wal_without_checkpoint() {
        // Auto-checkpoint disabled and no clean-shutdown path exercised:
        // kill the engine via mem::forget so recovery must come from the
        // WAL alone (EveryBatch syncs acknowledge each batch).
        let dir = waves_store::scratch_dir("engine-wal-only");
        let cfg = EngineConfig::builder()
            .num_shards(2)
            .max_window(64)
            .eps(0.25)
            .persist_config(
                PersistConfig::new(&dir)
                    .sync_policy(SyncPolicy::EveryBatch)
                    .checkpoint_every(0),
            )
            .build();
        {
            let engine = Engine::new(cfg.clone()).unwrap();
            for key in 0..10u64 {
                engine
                    .ingest(IngestRequest::of(key, [true; 7]).blocking(true))
                    .unwrap();
            }
            engine.flush();
            let shard0 = std::fs::read_dir(dir.join("shard-0")).unwrap();
            assert!(
                shard0
                    .filter_map(|e| e.ok())
                    .all(|e| !e.file_name().to_string_lossy().ends_with(".ckpt")),
                "no checkpoint should exist before shutdown"
            );
            // Simulate a crash: leak the engine so Drop never runs and no
            // final checkpoint is written. The workers stay parked on
            // their closed-over receivers; recovery must use the WAL.
            std::mem::forget(engine);
        }
        let engine = Engine::new(cfg).unwrap();
        for key in 0..10u64 {
            assert_eq!(
                engine.query(key, 64).unwrap(),
                Estimate::exact(7),
                "key={key}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explicit_checkpoint_trims_wal_and_survives_restart() {
        let dir = waves_store::scratch_dir("engine-ckpt");
        let cfg = persist_cfg(&dir, 2);
        {
            let engine = Engine::new(cfg.clone()).unwrap();
            for key in 0..20u64 {
                engine
                    .ingest(IngestRequest::of(key, lcg_bits(key, 50, 2, 1)).blocking(true))
                    .unwrap();
            }
            engine.checkpoint().unwrap();
            // Checkpoint rotated each shard onto a fresh segment and
            // reclaimed the old ones: exactly one (empty) segment left.
            for shard in 0..2 {
                let dir = dir.join(format!("shard-{shard}"));
                let segs = std::fs::read_dir(&dir)
                    .unwrap()
                    .filter_map(|e| e.ok())
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".log"))
                    .count();
                assert_eq!(segs, 1, "shard {shard} should hold one live segment");
            }
            engine
                .ingest(IngestRequest::of(99, [true; 3]).blocking(true))
                .unwrap();
        }
        let engine = Engine::new(cfg).unwrap();
        assert_eq!(engine.snapshot().keys(), 21);
        assert_eq!(engine.query(99, 64).unwrap(), Estimate::exact(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_without_persistence_is_ok() {
        let engine = Engine::new(small_cfg(2)).unwrap();
        engine
            .ingest(IngestRequest::of(1, [true]).blocking(true))
            .unwrap();
        engine.checkpoint().unwrap();
    }

    /// An automatic checkpoint that cannot be written (its shard
    /// directory is gone) is counted, and the key keeps serving from
    /// memory.
    #[test]
    fn a_failed_auto_checkpoint_is_counted_and_the_key_still_answers() {
        let dir = waves_store::scratch_dir("engine-ckpt-fail");
        let cfg = EngineConfig::builder()
            .num_shards(1)
            .max_window(64)
            .eps(0.25)
            .persist_config(
                PersistConfig::new(&dir)
                    .sync_policy(SyncPolicy::EveryBatch)
                    .checkpoint_every(1),
            )
            .build();
        let reg = Arc::new(MetricsRegistry::new());
        let engine = Engine::new_recorded(cfg, Arc::clone(&reg)).unwrap();
        std::fs::remove_dir_all(dir.join("shard-0")).unwrap();
        engine
            .ingest(IngestRequest::of(5, [true; 4]).blocking(true))
            .unwrap();
        engine.flush();
        assert!(reg.counter(MetricId::StoreCheckpointFailures) >= 1);
        assert_eq!(engine.query(5, 64).unwrap(), Estimate::exact(4));
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A WAL append that fails (the next segment cannot be created: the
    /// shard directory is gone) disables durability for the shard once:
    /// `store_wal_disabled_total` reads 1, the next checkpoint reports
    /// why, and the key keeps serving every batch from memory.
    #[test]
    fn a_failed_wal_append_disables_durability_once_and_the_key_still_answers() {
        let dir = waves_store::scratch_dir("engine-wal-fail");
        let cfg = EngineConfig::builder()
            .num_shards(1)
            .max_window(64)
            .eps(0.25)
            .persist_config(
                PersistConfig::new(&dir)
                    .sync_policy(SyncPolicy::EveryBatch)
                    .segment_bytes(1)
                    .checkpoint_every(0),
            )
            .build();
        let reg = Arc::new(MetricsRegistry::new());
        let engine = Engine::new_recorded(cfg, Arc::clone(&reg)).unwrap();
        std::fs::remove_dir_all(dir.join("shard-0")).unwrap();
        for _ in 0..3 {
            engine
                .ingest(IngestRequest::of(5, [true; 4]).blocking(true))
                .unwrap();
        }
        engine.flush();
        assert_eq!(reg.counter(MetricId::StoreWalDisabled), 1);
        let err = engine.checkpoint().unwrap_err();
        assert!(
            err.to_string()
                .contains("persistence disabled after WAL write failure"),
            "{err}"
        );
        assert_eq!(engine.query(5, 64).unwrap(), Estimate::exact(12));
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_count_mismatch_fails_construction() {
        let dir = waves_store::scratch_dir("engine-shards");
        drop(Engine::new(persist_cfg(&dir, 2)).unwrap());
        let err = Engine::new(persist_cfg(&dir, 3)).err().expect("must fail");
        assert!(matches!(err, WaveError::Io(_)), "got {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What a checkpoint may hold (PROTOCOL.md §2.4) is enforced where
    /// it is read: in a 2-shard directory, hand-written checkpoints that
    /// name a key twice or a key of the other shard, and a WAL record
    /// for a key of the other shard, are each refused by key.
    #[test]
    fn recovery_refuses_a_repeated_key_and_a_key_of_another_shard() {
        use waves_store::checkpoint::{write_checkpoint, Checkpoint};
        let dir = waves_store::scratch_dir("engine-ckpt-keys");
        let cfg = persist_cfg(&dir, 2);
        let (mine, theirs) = {
            let engine = Engine::new(cfg.clone()).unwrap();
            let first_of = |shard| (0..).find(|&k| engine.shard_of(k) == shard).unwrap();
            (first_of(0), first_of(1))
        };
        let shard0 = dir.join("shard-0");
        let mut wave = DetWave::new(64, 0.25).unwrap();
        wave.push_words(Bits::from_bools(&[true, false, true]).as_ref());
        let refusal = || match Engine::new(cfg.clone()).err().expect("recovery refuses") {
            WaveError::Io(io) => {
                assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
                io.to_string()
            }
            other => panic!("expected Io(InvalidData), got {other:?}"),
        };
        // Each checkpoint is newer than the last, so recovery loads it.
        let checkpoint = |wal_seq, keys: &[Key]| {
            let entries = keys.iter().map(|&k| (k, wave.encode())).collect();
            write_checkpoint(&shard0, &Checkpoint { wal_seq, entries }).unwrap();
        };
        checkpoint(100, &[mine, mine]);
        assert!(refusal().contains(&format!("names key {mine} twice")));
        checkpoint(101, &[mine, theirs]);
        let refused = refusal();
        assert!(
            refused.contains(&format!("key {theirs} in shard 0")),
            "{refused}"
        );
        assert!(refused.contains("belongs to shard 1"), "{refused}");
        // Held to the rule, the same checkpoint recovers.
        checkpoint(102, &[mine]);
        {
            let engine = Engine::new(cfg.clone()).unwrap();
            assert_eq!(engine.query(mine, 64).unwrap(), wave.query(64).unwrap());
        }
        // A WAL record in shard 0 for the other shard's key.
        let mut log =
            ShardStore::recover(&shard0, SyncPolicy::EveryBatch, 1 << 20, &NoopRecorder).unwrap();
        log.store
            .append_batch(&[(theirs, Bits::from_bools(&[true]))], &NoopRecorder)
            .unwrap();
        drop(log);
        let refused = refusal();
        assert!(
            refused.starts_with(&format!("WAL entry for key {theirs}")),
            "{refused}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eh_synopsis_persists_too() {
        let dir = waves_store::scratch_dir("engine-eh");
        let cfg = persist_cfg(&dir, 2);
        {
            let engine = Engine::with_factory(
                cfg.clone(),
                || waves_eh::EhCount::new(64, 0.25),
                Arc::new(NoopRecorder),
            )
            .unwrap();
            engine
                .ingest(IngestRequest::of(3, [true; 10]).blocking(true))
                .unwrap();
            engine.flush();
        }
        let engine = Engine::with_factory(
            cfg,
            || waves_eh::EhCount::new(64, 0.25),
            Arc::new(NoopRecorder),
        )
        .unwrap();
        assert!(engine.query(3, 64).unwrap().brackets(10));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
