//! One shard as one value: the single owner of its keys' synopses (the
//! paper's party, §1.3 — nobody else writes them). [`Shard::recover`]
//! builds it from its durable state, [`Shard::apply`] runs one command,
//! and [`Shard::close`] lands it on shutdown. It knows no thread and no
//! queue: the engine drives each shard from its own thread, popping its
//! queue into `apply` until the queue closes.
//!
//! With persistence, every batch is WAL-appended *before* it is applied;
//! an unrecoverable WAL io error disables durability for the shard
//! (serving continues from memory) and is surfaced as a
//! `store_wal_disabled_total` count plus a failed reply to the next
//! explicit checkpoint.

use std::collections::{hash_map, HashMap};
use std::sync::Arc;
use std::time::Instant;

use waves_core::{BitSynopsis, Estimate, WaveError};
use waves_obs::trace::{OpenSpan, Stage, TraceCtx};
use waves_obs::{HistId, MetricId, Recorder, ShardStat};
use waves_store::{PersistConfig, ShardStore, Store};

use crate::{Key, KeyedBits, ShardSnapshot, Sink};

/// Commands a shard consumes from its queue: an ingest batch (the one
/// command that takes a queue slot) or its part of a
/// [`crate::ShardRequest`]. A traced batch or query carries its
/// queue-wait span, opened at enqueue and closed as the shard span
/// opens; a query carries when it was submitted, for `engine_query_ns`.
pub(crate) enum Cmd {
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

/// Shard `index`'s keys and everything that writes them.
pub(crate) struct Shard<S, R: ?Sized, F> {
    index: usize,
    keys: HashMap<Key, S>,
    /// Builds the synopsis of a newly seen key.
    factory: Arc<F>,
    rec: Arc<R>,
    /// The shard's WAL and checkpoints; `None` serves from memory only.
    store: Option<ShardStore>,
    /// Auto-checkpoint when `applied_since_checkpoint` reaches this
    /// (every checkpoint resets it); 0 is never reached.
    checkpoint_every: u64,
    applied_since_checkpoint: u64,
    /// A WAL append failed and took `store` with it.
    wal_failed: bool,
}

impl<S, R, F> Shard<S, R, F>
where
    S: BitSynopsis,
    R: Recorder + ?Sized,
    F: Fn() -> Result<S, WaveError>,
{
    /// Shard `index` of `num_shards` as its durable state left it: the
    /// newest valid checkpoint, then the acknowledged WAL tail. Without
    /// `persist` it starts empty. A checkpoint naming a key twice, or a
    /// checkpoint or WAL entry for a key another shard owns, is refused
    /// by key.
    pub(crate) fn recover(
        index: usize,
        num_shards: usize,
        factory: &Arc<F>,
        rec: &Arc<R>,
        persist: Option<(&Store, &PersistConfig)>,
    ) -> Result<Self, WaveError> {
        let mut shard = Shard {
            index,
            keys: HashMap::new(),
            factory: Arc::clone(factory),
            rec: Arc::clone(rec),
            store: None,
            checkpoint_every: 0,
            applied_since_checkpoint: 0,
            wal_failed: false,
        };
        let Some((store, pc)) = persist else {
            return Ok(shard);
        };
        let dir = store.shard_dir(index);
        let recovered = ShardStore::recover(&dir, pc.sync, pc.segment_bytes, &*shard.rec)
            .map_err(WaveError::io)?;
        // What a checkpoint may hold (PROTOCOL.md §2.4): each key at most
        // once, and only keys this shard owns — a key routed elsewhere is
        // one no query reaches.
        let owned = |key: Key, what: &str| match shard_for(key, num_shards) {
            owner if owner == index => Ok(()),
            owner => Err(invalid_data(format!(
                "{what} for key {key} in shard {index}: the key belongs to shard {owner}"
            ))),
        };
        for (key, bytes) in &recovered.entries {
            owned(*key, "checkpoint entry")?;
            let hash_map::Entry::Vacant(slot) = shard.keys.entry(*key) else {
                return Err(invalid_data(format!(
                    "checkpoint of shard {index} names key {key} twice"
                )));
            };
            slot.insert(
                S::decode_synopsis(bytes)
                    .map_err(|e| invalid_data(format!("checkpoint entry for key {key}: {e}")))?,
            );
        }
        for (key, bits) in recovered.batches.iter().flatten() {
            owned(*key, "WAL entry")?;
            let fresh = || (shard.factory)().expect("factory validated at construction");
            let synopsis = shard.keys.entry(*key).or_insert_with(fresh);
            synopsis.push_words(bits.as_ref());
        }
        shard.store = Some(recovered.store);
        shard.checkpoint_every = pc.checkpoint_every_batches;
        Ok(shard)
    }

    /// Run one command. `queue_depth` is called by a snapshot only.
    pub(crate) fn apply(&mut self, cmd: Cmd, queue_depth: impl FnOnce() -> usize) {
        let rec = &*self.rec;
        // A traced command's queue wait ends as its shard span begins.
        let execute = |queued: Option<OpenSpan>| queued.map(|q| q.then(Stage::Shard, rec));
        match cmd {
            Cmd::Batch { batch, queued } => {
                let span = execute(queued);
                let wal_ctx = span.map_or(TraceCtx::NONE, OpenSpan::ctx);
                let started = rec.enabled().then(Instant::now);
                if let Some(store) = self.store.as_mut() {
                    if store.append_batch_traced(&batch, rec, wal_ctx).is_err() {
                        // No reply channel exists for a batch, so degrade:
                        // keep serving from memory, stop logging, and make
                        // the failure visible to operators.
                        rec.incr(MetricId::StoreWalDisabled, 1);
                        self.store = None;
                        self.wal_failed = true;
                    }
                }
                let mut items = 0u64;
                for (key, bits) in &batch {
                    let fresh = || (self.factory)().expect("factory validated at construction");
                    let synopsis = self.keys.entry(*key).or_insert_with(fresh);
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
                rec.incr_shard(self.index, ShardStat::Batches, 1);
                rec.incr_shard(self.index, ShardStat::Items, items);
                if let Some(span) = span {
                    span.end(rec);
                }
                self.applied_since_checkpoint += 1;
                if self.applied_since_checkpoint == self.checkpoint_every
                    && self.write_checkpoint().is_some_and(|res| res.is_err())
                {
                    self.rec.incr(MetricId::StoreCheckpointFailures, 1);
                    // The WAL is still intact; keep logging and retry at
                    // the next checkpoint interval.
                    self.applied_since_checkpoint = 0;
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
                let res = match self.keys.get(&key) {
                    Some(synopsis) => synopsis.query_window(window),
                    None => Err(WaveError::UnknownKey { key }),
                };
                rec.incr(MetricId::EngineQueriesServed, 1);
                rec.incr_shard(self.index, ShardStat::Queries, 1);
                if let Some(t0) = started {
                    rec.observe(HistId::EngineQueryNs, t0.elapsed().as_nanos() as u64);
                }
                // Close the span before replying so a caller that
                // inspects the ring right after the reply sees it.
                if let Some(span) = span {
                    span.end(rec);
                }
                reply(res);
            }
            Cmd::Snapshot(reply) => {
                let mut snap = ShardSnapshot {
                    shard: self.index,
                    keys: self.keys.len(),
                    resident_bytes: 0,
                    synopsis_bits: 0,
                    entries: 0,
                    queue_depth: queue_depth(),
                };
                for synopsis in self.keys.values() {
                    let r = synopsis.space_report();
                    snap.resident_bytes += r.resident_bytes;
                    snap.synopsis_bits += r.synopsis_bits;
                    snap.entries += r.entries;
                }
                reply(snap);
            }
            Cmd::Flush(reply) => reply(()),
            Cmd::Checkpoint(reply) => reply(match self.write_checkpoint() {
                Some(res) => res.map_err(WaveError::io),
                None if self.wal_failed => Err(WaveError::io(std::io::Error::other(
                    "persistence disabled after WAL write failure",
                ))),
                None => Ok(()), // persistence never configured: no-op
            }),
            Cmd::Install { key, bytes, reply } => reply(match S::decode_synopsis(&bytes) {
                // An older copy than the key's state: a late or racing
                // replicator, acknowledged and ignored.
                Ok(synopsis)
                    if self
                        .keys
                        .get(&key)
                        .is_some_and(|s| s.pos() > synopsis.pos()) =>
                {
                    Ok(())
                }
                Ok(synopsis) => {
                    self.keys.insert(key, synopsis);
                    rec.incr(MetricId::EngineSynopsesInstalled, 1);
                    Ok(())
                }
                Err(e) => Err(invalid_data(format!("synopsis install for key {key}: {e}"))),
            }),
            Cmd::Fetch { key, reply } => reply(match self.keys.get(&key) {
                Some(synopsis) => Ok(synopsis.encode_synopsis()),
                None => Err(WaveError::UnknownKey { key }),
            }),
        }
    }

    /// Shutdown once the queue is drained: a clean one lands every key
    /// durably regardless of sync policy, falling back to an fsync of
    /// the WAL tail. A `crashed` one (`Engine::crash_on_drop`) writes
    /// nothing, so the WAL prefix — not a fresh checkpoint — is what
    /// recovery sees.
    pub(crate) fn close(mut self, crashed: bool) {
        if !crashed && self.write_checkpoint().is_some_and(|res| res.is_err()) {
            self.rec.incr(MetricId::StoreCheckpointFailures, 1);
            if let Some(store) = self.store.as_mut() {
                let _ = store.sync(&*self.rec);
            }
        }
    }

    /// Checkpoint every key and reclaim the WAL it supersedes; `None`
    /// without a store.
    fn write_checkpoint(&mut self) -> Option<std::io::Result<()>> {
        let store = self.store.as_mut()?;
        let entries = self.keys.iter().map(|(k, s)| (*k, s.encode_synopsis()));
        let res = store.checkpoint(entries.collect(), &*self.rec);
        if res.is_ok() {
            self.applied_since_checkpoint = 0;
        }
        Some(res)
    }
}

/// [`crate::Engine::shard_of`] for an engine of `num_shards` shards.
#[inline]
pub(crate) fn shard_for(key: Key, num_shards: usize) -> usize {
    let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((mixed >> 32) as usize) % num_shards
}

/// Refused bytes: an `InvalidData` [`WaveError::Io`] naming them.
fn invalid_data(what: String) -> WaveError {
    WaveError::io(std::io::Error::new(std::io::ErrorKind::InvalidData, what))
}

/// Key-family fingerprint for the registry's load-skew dimension: the
/// top 4 bits of the same Fibonacci mix [`shard_for`] uses, so it costs
/// one multiply-shift already paid for routing.
#[inline]
fn family_of(key: Key) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use waves_core::{Bits, DetWave};
    use waves_obs::NoopRecorder;
    use waves_store::SyncPolicy;

    /// What a sink was handed, tagged by the command that answered.
    #[derive(Debug, PartialEq)]
    enum Answer {
        Query(Result<Estimate, WaveError>),
        Install(Result<(), WaveError>),
        Fetch(Result<Vec<u8>, WaveError>),
        Snapshot(ShardSnapshot),
        Flush,
        Checkpoint(Result<(), WaveError>),
    }

    type Answers = Arc<Mutex<Vec<Answer>>>;
    type Factory = fn() -> Result<DetWave, WaveError>;
    type TestShard = Shard<DetWave, NoopRecorder, Factory>;

    fn sink<T: 'static>(answers: &Answers, tag: fn(T) -> Answer) -> Sink<T> {
        let answers = Arc::clone(answers);
        Box::new(move |answer| answers.lock().unwrap().push(tag(answer)))
    }

    /// Shard 0 of 1, serving `DetWave::new(64, 0.25)` per key.
    fn shard(persist: Option<(&Store, &PersistConfig)>) -> TestShard {
        let factory: Arc<Factory> = Arc::new(|| DetWave::new(64, 0.25));
        Shard::recover(0, 1, &factory, &Arc::new(NoopRecorder), persist).unwrap()
    }

    fn batch(key: Key, bits: &[bool]) -> Cmd {
        let batch = vec![(key, Bits::from_bools(bits))];
        Cmd::Batch {
            batch,
            queued: None,
        }
    }

    fn fetch(shard: &mut TestShard, key: Key) -> Vec<u8> {
        let answers = Answers::default();
        let reply = sink(&answers, Answer::Fetch);
        shard.apply(Cmd::Fetch { key, reply }, || 0);
        let answer = answers.lock().unwrap().pop();
        match answer {
            Some(Answer::Fetch(bytes)) => bytes.unwrap(),
            other => panic!("expected a fetch answer, got {other:?}"),
        }
    }

    /// A shard is a value the caller steps: built, driven and answered on
    /// the test's own thread, with no engine, queue or worker. Every
    /// command answers through its sink, in order, and the key's state is
    /// a `DetWave` fed the same words; an older install is ignored.
    #[test]
    fn a_shard_answers_every_command_on_the_callers_thread() {
        let mut shard = shard(None);
        let bits = [true, false, true, true, false, true, true];
        let mut oracle = DetWave::new(64, 0.25).unwrap();
        oracle.push_words(Bits::from_bools(&bits).as_ref());
        let mut older = DetWave::new(64, 0.25).unwrap();
        older.push_bit(true);
        let answers = Answers::default();
        let commands = vec![
            batch(7, &bits),
            Cmd::Query {
                key: 7,
                window: 64,
                reply: sink(&answers, Answer::Query),
                queued: None,
                started: None,
            },
            Cmd::Install {
                key: 7,
                bytes: older.encode(),
                reply: sink(&answers, Answer::Install),
            },
            Cmd::Fetch {
                key: 7,
                reply: sink(&answers, Answer::Fetch),
            },
            Cmd::Snapshot(sink(&answers, Answer::Snapshot)),
            Cmd::Flush(sink(&answers, |()| Answer::Flush)),
            Cmd::Checkpoint(sink(&answers, Answer::Checkpoint)),
        ];
        for cmd in commands {
            shard.apply(cmd, || 3);
        }
        let space = oracle.space_report();
        let snapshot = ShardSnapshot {
            shard: 0,
            keys: 1,
            resident_bytes: space.resident_bytes,
            synopsis_bits: space.synopsis_bits,
            entries: space.entries,
            queue_depth: 3,
        };
        let want = vec![
            Answer::Query(oracle.query(64)),
            Answer::Install(Ok(())),
            Answer::Fetch(Ok(oracle.encode())),
            Answer::Snapshot(snapshot),
            Answer::Flush,
            Answer::Checkpoint(Ok(())),
        ];
        assert_eq!(*answers.lock().unwrap(), want);
    }

    /// `close(false)` checkpoints, so the recovered shard fetches the same
    /// bytes; `close(true)` writes nothing, so recovery must replay the
    /// WAL written since to reach the bytes the shard held.
    #[test]
    fn a_closed_shard_recovers_its_bytes_from_checkpoint_then_wal() {
        let dir = waves_store::scratch_dir("engine-shard-close");
        let store = Store::open(&dir, 1).unwrap();
        let pc = PersistConfig::new(&dir).sync_policy(SyncPolicy::EveryBatch);
        let checkpoints = || {
            let files = std::fs::read_dir(store.shard_dir(0)).unwrap();
            let names = files.map(|e| e.unwrap().file_name().to_string_lossy().into_owned());
            names.filter(|name| name.ends_with(".ckpt")).count()
        };
        let mut oracle = DetWave::new(64, 0.25).unwrap();
        let mut shard = shard(Some((&store, &pc)));
        let mut step = |shard: &mut TestShard, round: usize| {
            let bits: Vec<bool> = (0..40).map(|i| (i * 7 + round).is_multiple_of(3)).collect();
            oracle.push_words(Bits::from_bools(&bits).as_ref());
            shard.apply(batch(5, &bits), || 0);
        };
        (0..3).for_each(|round| step(&mut shard, round));
        let held = fetch(&mut shard, 5);
        shard.close(false);
        assert_eq!(checkpoints(), 1, "a clean close checkpoints");

        let mut shard = self::shard(Some((&store, &pc)));
        assert_eq!(fetch(&mut shard, 5), held);
        (3..6).for_each(|round| step(&mut shard, round));
        let held = fetch(&mut shard, 5);
        assert_eq!(held, oracle.encode());
        shard.close(true);
        assert_eq!(checkpoints(), 1, "a crashed close writes no checkpoint");

        let mut shard = self::shard(Some((&store, &pc)));
        assert_eq!(fetch(&mut shard, 5), held);
        drop(shard);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
