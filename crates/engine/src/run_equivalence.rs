//! A shard applies the batches it drains together, one push per key per
//! run; this holds that to a reference fed batch by batch.
//!
//! Each round is a seeded mix of ingests, queries, flushes, installs and
//! fetches, with one traced batch per seed. Keys repeat within a run up
//! to and past the window, and lengths are rarely whole words. The round
//! goes to two targets: a [`Shard`] stepped on the test's thread, handed
//! the whole round in one `apply`, and a one-shard [`Engine`] whose
//! worker is held inside a flush sink while the round queues behind it,
//! so on release it drains the round in runs exactly as queued. Every
//! answer, in order, and every key's synopsis bytes must be the
//! reference's. The durable test, with a checkpoint every third batch,
//! then crashes both and recovers them to the reference's bytes, the
//! checkpoints landing after the same batches as batch-by-batch
//! application puts them.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use waves_core::{Bits, DetWave, Estimate, WaveError};
use waves_obs::trace::{OpenSpan, SpanRecorder, Stage, TraceCtx, TraceId};
use waves_obs::{Fanout, MetricId, MetricsRegistry};
use waves_store::{PersistConfig, Store, SyncPolicy};

use crate::shard::{Cmd, Shard};
use crate::{Engine, EngineConfig, IngestRequest, Key, KeyedBits, ShardRequest, Sink};

const WINDOW: u64 = 256;
const EPS: f64 = 0.1;
const KEYS: u64 = 5;
const TRACE: TraceCtx = TraceCtx {
    trace: TraceId(7),
    parent: 1,
};

type Rec = Fanout<MetricsRegistry, SpanRecorder>;
type Factory = fn() -> Result<DetWave, WaveError>;
type TestShard = Shard<DetWave, Rec, Factory>;
type TestEngine = Engine<DetWave, Rec>;

fn fresh() -> Result<DetWave, WaveError> {
    DetWave::new(WINDOW, EPS)
}

/// One command of a round, for either target.
#[derive(Clone)]
enum Step {
    Ingest(Vec<KeyedBits>, bool),
    Query(Key, u64),
    Flush,
    Install(Key, Vec<u8>),
    Fetch(Key),
}

/// What a target answered, in the order it answered.
#[derive(Debug, PartialEq)]
enum Answer {
    Query(Result<Estimate, WaveError>),
    Install(Result<(), WaveError>),
    Fetch(Result<Vec<u8>, WaveError>),
}

type Answers = Arc<Mutex<Vec<Answer>>>;

/// A reply sink that files its answer, tagged, in `answers`.
fn sink<T: 'static>(answers: &Answers, tag: fn(T) -> Answer) -> Sink<T> {
    let answers = Arc::clone(answers);
    Box::new(move |answer| answers.lock().unwrap().push(tag(answer)))
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    /// A part of a key's stream: mostly short and off a word boundary,
    /// sometimes as long as the window or longer.
    fn bits(&mut self) -> Bits {
        let len = match self.below(6) {
            0 => 1 + self.below(63),
            1 => 64 * (1 + self.below(3)),
            2 => WINDOW - 1 + self.below(3),
            3 => WINDOW + 1 + self.below(2 * WINDOW),
            _ => 65 + self.below(150),
        };
        let density = self.below(4);
        (0..len).map(|_| self.below(4) <= density).collect()
    }
}

/// Every key as batch-by-batch application leaves it, and the rounds'
/// generator.
struct Reference {
    keys: HashMap<Key, DetWave>,
    rng: Rng,
    batches: u64,
    traced: bool,
}

impl Reference {
    fn new(seed: u64, traced: bool) -> Self {
        Reference {
            keys: HashMap::new(),
            rng: Rng(0x9E37_79B9_7F4A_7C15 ^ seed),
            batches: 0,
            traced,
        }
    }

    /// A round of 40 steps and the answers batch-by-batch application
    /// gives them. The first batch from the ninth on is traced, unless
    /// one was; installs only when `installs`.
    fn round(&mut self, installs: bool) -> (Vec<Step>, Vec<Answer>) {
        let (mut steps, mut want) = (Vec::new(), Vec::new());
        for _ in 0..40 {
            let key = self.rng.below(KEYS);
            let step = match self.rng.below(12) {
                0..=6 => {
                    let n = 1 + self.rng.below(4);
                    let entries: Vec<_> = (0..n)
                        .map(|_| (self.rng.below(KEYS), self.rng.bits()))
                        .collect();
                    for (key, bits) in &entries {
                        let wave = self.keys.entry(*key).or_insert_with(|| fresh().unwrap());
                        wave.push_words(bits.as_ref());
                    }
                    let traced = !self.traced && self.batches >= 8;
                    self.traced |= traced;
                    self.batches += 1;
                    Step::Ingest(entries, traced)
                }
                7 | 8 => {
                    let window = 1 + self.rng.below(WINDOW);
                    want.push(Answer::Query(match self.keys.get(&key) {
                        Some(wave) => wave.query(window),
                        None => Err(WaveError::UnknownKey { key }),
                    }));
                    Step::Query(key, window)
                }
                9 => Step::Flush,
                10 if installs => {
                    let mut wave = fresh().unwrap();
                    for _ in 0..self.rng.below(4) {
                        wave.push_words(self.rng.bits().as_ref());
                    }
                    if self
                        .keys
                        .get(&key)
                        .is_none_or(|held| held.pos() <= wave.pos())
                    {
                        self.keys
                            .insert(key, DetWave::decode(&wave.encode()).unwrap());
                    }
                    want.push(Answer::Install(Ok(())));
                    Step::Install(key, wave.encode())
                }
                _ => {
                    want.push(self.fetch(key));
                    Step::Fetch(key)
                }
            };
            steps.push(step);
        }
        (steps, want)
    }

    fn fetch(&self, key: Key) -> Answer {
        Answer::Fetch(match self.keys.get(&key) {
            Some(wave) => Ok(wave.encode()),
            None => Err(WaveError::UnknownKey { key }),
        })
    }
}

fn recorder() -> Arc<Rec> {
    Arc::new(Fanout(MetricsRegistry::new(), SpanRecorder::new()))
}

/// The round's commands, in one `apply`.
fn on_shard(shard: &mut TestShard, rec: &Rec, steps: &[Step]) -> Vec<Answer> {
    let answers = Answers::default();
    let cmds = steps.iter().cloned().map(|step| match step {
        Step::Ingest(batch, traced) => Cmd::Batch {
            batch,
            queued: traced
                .then(|| OpenSpan::open(TRACE, Stage::Queue, rec))
                .flatten(),
        },
        Step::Query(key, window) => Cmd::Query {
            key,
            window,
            reply: sink(&answers, Answer::Query),
            queued: None,
            started: None,
        },
        Step::Flush => Cmd::Flush(Box::new(|()| {})),
        Step::Install(key, bytes) => Cmd::Install {
            key,
            bytes,
            reply: sink(&answers, Answer::Install),
        },
        Step::Fetch(key) => Cmd::Fetch {
            key,
            reply: sink(&answers, Answer::Fetch),
        },
    });
    shard.apply(cmds, || 0);
    let answers = std::mem::take(&mut *answers.lock().unwrap());
    answers
}

/// The round queued behind a worker held inside a flush sink, then
/// released and flushed.
fn on_engine(engine: &TestEngine, steps: &[Step]) -> Vec<Answer> {
    let (release, held) = mpsc::channel::<()>();
    let (parked, wait) = mpsc::channel();
    engine.submit(ShardRequest::Flush(Box::new(move |()| {
        parked.send(()).unwrap();
        let _ = held.recv();
    })));
    wait.recv().unwrap();
    let answers = Answers::default();
    for step in steps.iter().cloned() {
        match step {
            Step::Ingest(entries, traced) => {
                let ctx = if traced { TRACE } else { TraceCtx::NONE };
                engine
                    .ingest(IngestRequest::batch(entries).traced(ctx))
                    .unwrap();
            }
            Step::Query(key, window) => engine.submit(ShardRequest::Query {
                key,
                window,
                ctx: TraceCtx::NONE,
                reply: sink(&answers, Answer::Query),
            }),
            Step::Flush => engine.submit(ShardRequest::Flush(Box::new(|()| {}))),
            Step::Install(key, bytes) => engine.submit(ShardRequest::Install {
                key,
                bytes,
                reply: sink(&answers, Answer::Install),
            }),
            Step::Fetch(key) => engine.submit(ShardRequest::Fetch {
                key,
                reply: sink(&answers, Answer::Fetch),
            }),
        }
    }
    drop(release);
    engine.flush();
    let answers = std::mem::take(&mut *answers.lock().unwrap());
    answers
}

/// Fetch every key from both targets: the reference's bytes, or unknown.
fn every_key(shard: &mut TestShard, rec: &Rec, engine: &TestEngine, reference: &Reference) {
    let fetch: Vec<Step> = (0..KEYS).map(Step::Fetch).collect();
    let want: Vec<Answer> = (0..KEYS).map(|key| reference.fetch(key)).collect();
    assert_eq!(on_shard(shard, rec, &fetch), want, "shard");
    assert_eq!(on_engine(engine, &fetch), want, "engine");
}

/// A one-shard engine on `persist`, and its recorder.
fn engine(persist: Option<PersistConfig>) -> (TestEngine, Arc<Rec>) {
    let mut cfg = EngineConfig::builder().num_shards(1).queue_capacity(1024);
    if let Some(pc) = persist {
        cfg = cfg.persist_config(pc);
    }
    let rec = recorder();
    let engine = Engine::with_factory(cfg.build(), fresh, Arc::clone(&rec)).unwrap();
    (engine, rec)
}

/// The one shard of `store`, recovered, and its recorder.
fn shard(persist: Option<(&Store, &PersistConfig)>) -> (TestShard, Arc<Rec>) {
    let rec = recorder();
    let factory: Arc<Factory> = Arc::new(fresh);
    (Shard::recover(0, 1, &factory, &rec, persist).unwrap(), rec)
}

/// Both targets answer every round like the reference, keep its bytes,
/// count every batch, and trace the traced one as a run of its own.
#[test]
fn drained_runs_answer_like_batches_applied_one_by_one() {
    for seed in 1..=12 {
        let mut reference = Reference::new(seed, false);
        let (mut shard, shard_rec) = shard(None);
        let (engine, engine_rec) = engine(None);
        for round in 0..6 {
            let (steps, want) = reference.round(true);
            let at = format!("seed {seed}, round {round}");
            assert_eq!(
                on_shard(&mut shard, &shard_rec, &steps),
                want,
                "shard, {at}"
            );
            assert_eq!(on_engine(&engine, &steps), want, "engine, {at}");
        }
        every_key(&mut shard, &shard_rec, &engine, &reference);
        assert!(reference.traced, "seed {seed} traced no batch");
        for rec in [&shard_rec, &engine_rec] {
            let batches = rec.0.counter(MetricId::EngineBatchesIngested);
            assert_eq!(batches, reference.batches, "seed {seed}");
            let stages: Vec<Stage> = rec.1.trace(TRACE.trace).iter().map(|s| s.stage).collect();
            assert_eq!(stages, [Stage::Queue, Stage::Shard], "seed {seed}");
        }
    }
}

/// Durable targets with a checkpoint every third batch: the countdown
/// cuts runs, so a checkpoint lands after every third batch, and a crash
/// then recovery brings back the reference's bytes.
#[test]
fn a_crashed_durable_run_recovers_the_batch_by_batch_bytes() {
    for seed in 1..=4 {
        let dirs = ["shard", "engine"].map(|tag| waves_store::scratch_dir(&format!("runs-{tag}")));
        let persist = |dir| {
            PersistConfig::new(dir)
                .sync_policy(SyncPolicy::EveryBatch)
                .checkpoint_every(3)
        };
        let pc = persist(&dirs[0]);
        let store = Store::open(&pc.dir, 1).unwrap();
        let mut reference = Reference::new(seed, true);
        let (mut shard, shard_rec) = shard(Some((&store, &pc)));
        let (engine, engine_rec) = engine(Some(persist(&dirs[1])));
        for round in 0..4 {
            let (steps, want) = reference.round(false);
            let at = format!("seed {seed}, round {round}");
            assert_eq!(
                on_shard(&mut shard, &shard_rec, &steps),
                want,
                "shard, {at}"
            );
            assert_eq!(on_engine(&engine, &steps), want, "engine, {at}");
        }
        for rec in [&shard_rec, &engine_rec] {
            let checkpoints = rec.0.counter(MetricId::StoreCheckpoints);
            assert_eq!(checkpoints, reference.batches / 3, "seed {seed}");
        }
        shard.close(true);
        engine.crash_on_drop();
        drop(engine);
        let (mut shard, shard_rec) = self::shard(Some((&store, &pc)));
        let (engine, _) = self::engine(Some(persist(&dirs[1])));
        every_key(&mut shard, &shard_rec, &engine, &reference);
        drop((shard, engine));
        dirs.iter()
            .for_each(|dir| std::fs::remove_dir_all(dir).unwrap());
    }
}
