//! The two in-process `Engine<DetWave>` workloads: `engine_dense`
//! (memory only, dense words) and `durable_mixed` (WAL + checkpoints,
//! sparse words, reads queued beside writes).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use waves_core::{Bits, DetWave, Estimate, WaveError};
use waves_engine::{Engine, EngineConfig, IngestRequest, PersistConfig, SyncPolicy};
use waves_obs::{MetricId, MetricsRegistry, Recorder};

use super::{check_estimate, Finish, Ledger, Round, RoundSummary, Workload};
use crate::host::{self, now_ns};
use crate::inputs::{Block, PeriodicOracle};
use crate::probes;
use crate::spec::{self, EngineSpec};
use crate::stats;
use crate::trace::Tracer;

/// A read made while a round's writes are still flowing: after request
/// `after_request`, query `key` — which that request just wrote — once
/// `events_so_far` of the key's events of this round are ahead of it.
struct InlineRead {
    after_request: usize,
    key: u64,
    events_so_far: u64,
    window: u64,
}

pub struct EngineWorkload {
    name: &'static str,
    spec: EngineSpec,
    block: Block,
    oracle: PeriodicOracle,
    inline_reads: Vec<InlineRead>,
}

pub struct EngineSys {
    engine: Engine<DetWave>,
    /// Whole replays of the block applied so far.
    rounds_applied: u64,
    dir: Option<PathBuf>,
}

/// A fresh directory under the build's target directory — inside the
/// checkout, ignored by git — for one durable system.
pub fn fresh_data_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let root = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    root.join("bench-data").join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

impl EngineWorkload {
    pub fn new(name: &'static str, spec: EngineSpec, seed: u64) -> Self {
        let block = Block::generate(spec.shape(), seed);
        let oracle = PeriodicOracle::new(&block);
        let mut inline_reads = Vec::new();
        if let Some(every) = spec.read_every {
            let mut seen = vec![0u64; spec.keys as usize];
            let mut windows = block.reads.iter().map(|&(_, w)| w).cycle();
            for (i, chunk) in block.events.chunks(spec.entries_per_request).enumerate() {
                for (key, _) in chunk {
                    seen[*key as usize] += 1;
                }
                if (i + 1) % every == 0 {
                    let key = chunk.last().expect("requests are not empty").0;
                    inline_reads.push(InlineRead {
                        after_request: i,
                        key,
                        events_so_far: seen[key as usize],
                        window: windows.next().expect("read plan is not empty"),
                    });
                }
            }
        }
        EngineWorkload {
            name,
            spec,
            block,
            oracle,
            inline_reads,
        }
    }

    fn config(&self, dir: Option<&Path>) -> EngineConfig {
        let builder = EngineConfig::builder()
            .num_shards(1)
            .queue_capacity(self.spec.queue_capacity)
            .max_window(self.spec.max_window)
            .eps(self.spec.eps);
        match (self.spec.durable, dir) {
            (Some(d), Some(dir)) => builder.persist_config(
                PersistConfig::new(dir)
                    .sync_policy(SyncPolicy::EveryN(d.sync_every))
                    .segment_bytes(d.segment_bytes)
                    .checkpoint_every(d.checkpoint_every_batches),
            ),
            _ => builder,
        }
        .build()
    }

    /// The block cut into the round's requests. Built fresh each round,
    /// outside the timed section: `ingest` consumes its request.
    fn requests(&self) -> impl Iterator<Item = Vec<(u64, Bits)>> + '_ {
        self.block
            .events
            .chunks(self.spec.entries_per_request)
            .map(<[_]>::to_vec)
    }

    /// Replay the block's first `requests` requests, blocking, then a
    /// flush barrier.
    fn replay<R: Recorder + Send + Sync + 'static>(
        &self,
        engine: &Engine<DetWave, R>,
        requests: usize,
    ) -> Result<(), WaveError> {
        for entries in self.requests().take(requests) {
            engine.ingest(IngestRequest::batch(entries).blocking(true))?;
        }
        engine.flush();
        Ok(())
    }

    /// Bits of `key`'s stream applied after `rounds` replays plus
    /// `events` more of its events.
    fn pos(&self, rounds: u64, events: u64) -> u64 {
        rounds * self.block.period() + events * self.spec.bits_per_event as u64
    }

    /// Score one answer: `(failed, relative error)`.
    fn score(
        &self,
        answer: &Result<Estimate, WaveError>,
        key: u64,
        pos: u64,
        window: u64,
    ) -> (u64, f64) {
        let truth = self.oracle.count(key, pos, window);
        match answer
            .as_ref()
            .ok()
            .and_then(|est| check_estimate(est, truth, self.spec.eps))
        {
            Some(rel) => (0, rel),
            None => (1, 0.0),
        }
    }
}

impl Workload for EngineWorkload {
    type Sys = EngineSys;

    fn name(&self) -> &'static str {
        self.name
    }

    fn durable(&self) -> bool {
        self.spec.durable.is_some()
    }

    fn input_hash(&self) -> u64 {
        self.block.hash()
    }

    fn setup(&self) -> EngineSys {
        let dir = self.spec.durable.map(|_| fresh_data_dir(self.name));
        let engine =
            Engine::new(self.config(dir.as_deref())).expect("spec'd engine config is valid");
        for _ in 0..self.spec.preload_rounds {
            self.replay(&engine, self.spec.requests_per_round)
                .expect("blocking ingest cannot be refused");
        }
        EngineSys {
            engine,
            rounds_applied: self.spec.preload_rounds as u64,
            dir,
        }
    }

    fn round(&self, sys: &mut EngineSys, tr: &mut Tracer) -> Round {
        let requests: Vec<IngestRequest> = self
            .requests()
            .map(|entries| IngestRequest::batch(entries).blocking(true))
            .collect();
        let mut round = Round {
            items: self.block.items(),
            ..Round::default()
        };
        let mut inline = self.inline_reads.iter().peekable();
        let mut inline_answers = Vec::with_capacity(self.inline_reads.len());
        let mut answers = Vec::with_capacity(self.block.reads.len());
        let io_before = host::self_io();

        let cpu_round = host::process_cpu_ns();
        let t_round = now_ns();
        let span = tr.open("round", 0, t_round);
        let first_sync = self.spec.requests_per_round - self.spec.sync_requests;
        for (i, req) in requests.into_iter().enumerate() {
            let t0 = now_ns();
            let res = sys.engine.ingest(req);
            let t1 = now_ns();
            tr.record("engine.ingest", span, i as u64, t0, t1);
            round.failed += res.is_err() as u64;
            if i >= first_sync {
                sys.engine.flush();
                let t2 = now_ns();
                tr.record("engine.flush", span, i as u64, t1, t2);
                round.ack_ns.push(t2 - t0);
            }
            if let Some(read) = inline.next_if(|r| r.after_request == i) {
                let t0 = now_ns();
                let answer = sys.engine.query(read.key, read.window);
                let t1 = now_ns();
                tr.record("engine.query", span, i as u64, t0, t1);
                round.query_ns.push(t1 - t0);
                inline_answers.push(answer);
            }
        }
        let t0 = now_ns();
        sys.engine.flush();
        let t_flushed = now_ns();
        round.ingest_cpu_ns = host::process_cpu_ns() - cpu_round;
        tr.record("engine.flush", span, 0, t0, t_flushed);
        if self.spec.read_every.is_none() {
            for (i, &(key, window)) in self.block.reads.iter().enumerate() {
                let t0 = now_ns();
                let answer = sys.engine.query(key, window);
                let t1 = now_ns();
                tr.record("engine.query", span, i as u64, t0, t1);
                round.query_ns.push(t1 - t0);
                answers.push(answer);
            }
        }
        let t_end = now_ns();
        tr.close(span, t_end);

        round.wall_ns = t_end - t_round;
        round.ingest_ns = t_flushed - t_round;
        round.attempted =
            (self.spec.requests_per_round + self.spec.sync_requests + round.query_ns.len() + 1)
                as u64;
        if let (Some(a), Some(b), Some(_)) = (io_before, host::self_io(), self.spec.durable) {
            round.disk_bytes = b.wchar - a.wchar;
        }
        // Untimed: every answer against the exact count.
        let scored = self
            .inline_reads
            .iter()
            .zip(&inline_answers)
            .map(|(read, answer)| {
                let pos = self.pos(sys.rounds_applied, read.events_so_far);
                self.score(answer, read.key, pos, read.window)
            })
            .chain(
                self.block
                    .reads
                    .iter()
                    .zip(&answers)
                    .map(|(&(key, window), answer)| {
                        self.score(answer, key, self.pos(sys.rounds_applied + 1, 0), window)
                    }),
            );
        for (failed, rel) in scored {
            round.failed += failed;
            round.rel_errs.push(rel);
        }
        sys.rounds_applied += 1;
        round
    }

    fn synopsis_bytes_per_key(&self, sys: &mut EngineSys) -> f64 {
        let snap = sys.engine.snapshot();
        snap.resident_bytes() as f64 / snap.keys().max(1) as f64
    }

    fn probes(&self, _sys: &mut EngineSys, tr: &mut Tracer, round: RoundSummary, out: &mut Ledger) {
        let spec = &self.spec;
        // Reads as the round makes them: inline ones or the read plan.
        let reads: Vec<(u64, u64)> = match spec.read_every {
            Some(_) => self
                .inline_reads
                .iter()
                .map(|r| (r.key, r.window))
                .collect(),
            None => self.block.reads.clone(),
        };
        let core = probes::core(
            tr,
            out,
            &self.block.events,
            &reads,
            probes::Waves {
                keys: spec.keys,
                max_window: spec.max_window,
                eps: spec.eps,
                preload_rounds: spec.preload_rounds,
            },
        );
        let core_ns = core.push_round_ns + core.query_ns * reads.len() as f64;
        // An applied request has at least been pushed into its synopses;
        // an ack far below that measures the queue, not the engine. (Half,
        // because the two are taken minutes apart on a shared box and on
        // `engine_dense` the push is nearly all of the ack.)
        let push_ns_per_request = core.push_round_ns / spec.requests_per_round as f64;
        assert!(
            round.ack_p50_ns >= push_ns_per_request / 2.0,
            "{}: ack p50 {} ns is far below the core probe's {} ns per request",
            self.name,
            round.ack_p50_ns,
            push_ns_per_request
        );
        let mut store_ns = 0.0;
        if let Some(durable) = spec.durable {
            let dir = fresh_data_dir("store-probe");
            let requests: Vec<_> = self.requests().collect();
            let probe = probes::store(tr, out, &dir, &requests, durable, &core.encoded)
                .expect("store probe i/o");
            store_ns = probe.round_ns;
            let _ = std::fs::remove_dir_all(&dir);
            out.insert(
                "store.fsyncs_per_kitem",
                self.count_fsyncs() / (self.block.items() as f64 / 1e3),
            );
        }
        let harness_ns = round.clock_reads as f64 * host::clock_read_ns();
        // In process, whatever is not synopsis, store or harness work is
        // the engine's own: routing, the queue hop, the worker wake-up.
        // (The probes run after the rounds; when the box has slowed in
        // between they can exceed the round, and `unattributed` then goes
        // below zero rather than the engine's share.)
        let engine_ns = (round.wall_ns - core_ns - store_ns - harness_ns).max(0.0);
        let requests = (spec.requests_per_round + spec.sync_requests + reads.len() + 1) as f64;
        out.insert("engine.ingest_call_ns", tr.median_ns("engine.ingest"));
        out.insert("engine.flush_ns", tr.median_ns("engine.flush"));
        out.insert("engine.query_ns", tr.median_ns("engine.query"));
        out.insert("engine.self_ns_per_req", engine_ns / requests);
        probes::budget(
            out,
            round.wall_ns,
            probes::Busy {
                core: core_ns,
                store: store_ns,
                engine: engine_ns,
                harness: harness_ns,
                ..probes::Busy::default()
            },
        );
    }

    fn finish(&self, sys: EngineSys) -> Finish {
        let mut finish = Finish {
            attempted: 0,
            failed: 0,
            recovery_s: None,
            backpressure_total: sys.engine.snapshot().backpressure_events,
        };
        match sys.dir.clone() {
            Some(dir) => {
                self.measure_recovery(sys.engine, &dir, &mut finish);
                let _ = std::fs::remove_dir_all(dir);
            }
            None => self.discard(sys),
        }
        finish
    }

    fn discard(&self, sys: EngineSys) {
        let EngineSys { engine, dir, .. } = sys;
        // No final checkpoint for a system nobody will reopen.
        engine.crash_on_drop();
        drop(engine);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl EngineWorkload {
    /// Every key at two windows: what must survive a crash unchanged.
    fn all_answers(&self, engine: &Engine<DetWave>) -> Vec<Result<Estimate, WaveError>> {
        (0..self.spec.keys)
            .flat_map(|key| [self.spec.max_window, self.spec.max_window / 3 + 1].map(|w| (key, w)))
            .map(|(key, window)| engine.query(key, window))
            .collect()
    }

    /// `recovery_s`: half a round past the last checkpoint (so there is a
    /// WAL tail to replay, all of it behind a policy fsync), crash, then
    /// reopen copies of the directory. Every key must answer as it did
    /// before the crash.
    fn measure_recovery(&self, engine: Engine<DetWave>, dir: &Path, finish: &mut Finish) {
        let half = self.spec.requests_per_round / 2;
        finish.attempted += half as u64;
        finish.failed += self.replay(&engine, half).is_err() as u64;
        let before = self.all_answers(&engine);
        finish.attempted += before.len() as u64;
        finish.failed += before.iter().filter(|a| a.is_err()).count() as u64;
        engine.crash_on_drop();
        drop(engine);
        let mut reopen_s = Vec::with_capacity(spec::RECOVERY_COPIES);
        for _ in 0..spec::RECOVERY_COPIES {
            let copy = fresh_data_dir("recovery");
            copy_dir(dir, &copy).expect("copy crashed directory");
            let t0 = now_ns();
            let reopened = Engine::new(self.config(Some(&copy)));
            reopen_s.push((now_ns() - t0) as f64 / 1e9);
            finish.attempted += 1;
            match reopened {
                Ok(engine) => {
                    let after = self.all_answers(&engine);
                    finish.attempted += after.len() as u64;
                    finish.failed +=
                        before.iter().zip(&after).filter(|(b, a)| b != a).count() as u64;
                    engine.crash_on_drop();
                }
                Err(_) => finish.failed += 1,
            }
            let _ = std::fs::remove_dir_all(&copy);
        }
        finish.recovery_s = Some(stats::lower_quartile(&reopen_s));
    }

    /// One round through an engine whose recorder counts: the fsyncs the
    /// engine's own store path issues for this round's requests.
    fn count_fsyncs(&self) -> f64 {
        let dir = fresh_data_dir("fsync-count");
        let registry = Arc::new(MetricsRegistry::new());
        let engine = Engine::new_recorded(self.config(Some(&dir)), Arc::clone(&registry))
            .expect("spec'd engine config is valid");
        self.replay(&engine, self.spec.requests_per_round)
            .expect("blocking ingest cannot be refused");
        let fsyncs = registry.counter(MetricId::StoreFsyncs);
        engine.crash_on_drop();
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
        fsyncs as f64
    }
}
