//! `net_sparse`: a loopback `Server` and one pipelining `Client`, one
//! 64-bit sparse event per INGEST frame. The synopsis work is next to
//! nothing; frames, CRC, the epoll loop and queue hops are the workload.

use waves_core::{Estimate, WaveError};
use waves_engine::{Engine, EngineConfig, IngestRequest};
use waves_net::{Client, Frame, Server, ServerConfig};

use super::{check_estimate, Finish, Ledger, Round, RoundSummary, Workload};
use crate::host::{self, now_ns};
use crate::inputs::{Block, PeriodicOracle};
use crate::probes;
use crate::spec::NetSpec;
use crate::trace::Tracer;

pub struct NetSparse {
    spec: NetSpec,
    block: Block,
    oracle: PeriodicOracle,
    /// Frame bytes one round puts on the wire, both directions.
    wire_bytes_per_round: u64,
}

pub struct NetSys {
    server: Server,
    client: Client,
    rounds_applied: u64,
}

impl NetSparse {
    pub fn new(spec: NetSpec, seed: u64) -> Self {
        let block = Block::generate(spec.engine.shape(), seed);
        let oracle = PeriodicOracle::new(&block);
        let mut this = NetSparse {
            spec,
            block,
            oracle,
            wire_bytes_per_round: 0,
        };
        this.wire_bytes_per_round = this.frames().iter().map(probes::wire_len).sum();
        this
    }

    fn engine_config(&self) -> EngineConfig {
        let e = &self.spec.engine;
        EngineConfig::builder()
            .num_shards(1)
            .queue_capacity(e.queue_capacity)
            .max_window(e.max_window)
            .eps(e.eps)
            .build()
    }

    fn flushes_per_round(&self) -> usize {
        self.block.events.len() / self.spec.flush_every_frames
    }

    /// Every frame of one round, requests and replies alike. Reply
    /// frames have a fixed size, so a sample estimate stands in for the
    /// real answers.
    fn frames(&self) -> Vec<Frame> {
        let mut frames = Vec::new();
        for event in &self.block.events {
            frames.push(Frame::Ingest(vec![event.clone()]));
            frames.push(Frame::Ok);
        }
        for _ in 0..self.flushes_per_round() {
            frames.push(Frame::Flush);
            frames.push(Frame::Ok);
        }
        for &(key, window) in &self.block.reads {
            frames.push(Frame::Query { key, window });
            frames.push(probes::estimate_reply());
        }
        frames
    }

    /// The block cut into `ingest_many` calls, one single-entry request
    /// per event.
    fn calls(&self) -> Vec<Vec<IngestRequest>> {
        self.block
            .events
            .chunks(self.spec.frames_per_call)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|(key, bits)| IngestRequest::of(*key, bits.clone()))
                    .collect()
            })
            .collect()
    }

    /// Replay the whole block over the wire at the round's cadence.
    /// Returns operations that failed.
    fn replay(&self, client: &mut Client) -> u64 {
        let calls_per_flush = self.spec.flush_every_frames / self.spec.frames_per_call;
        let mut failed = 0;
        for (i, call) in self.calls().into_iter().enumerate() {
            let sent = call.len();
            match client.ingest_many(call, self.spec.pipeline_window) {
                Ok(acked) => failed += (sent - acked) as u64,
                Err(_) => failed += sent as u64,
            }
            if (i + 1) % calls_per_flush == 0 {
                failed += client.flush().is_err() as u64;
            }
        }
        failed
    }

    /// The same round against a bare in-process engine: what the
    /// requests cost without the network around them.
    fn in_process_round_ns(&self) -> f64 {
        let engine = Engine::new(self.engine_config()).expect("spec'd engine config is valid");
        let replay = |timed: bool| {
            let requests: Vec<IngestRequest> = self
                .block
                .events
                .iter()
                .map(|(key, bits)| IngestRequest::of(*key, bits.clone()))
                .collect();
            let t0 = now_ns();
            for (i, req) in requests.into_iter().enumerate() {
                // Non-blocking, as the server's dispatch ingests.
                engine.ingest(req).expect("queue holds a flush interval");
                if (i + 1) % self.spec.flush_every_frames == 0 {
                    engine.flush();
                }
            }
            if timed {
                for &(key, window) in &self.block.reads {
                    std::hint::black_box(engine.query(key, window)).expect("key was ingested");
                }
            }
            (now_ns() - t0) as f64
        };
        for _ in 0..self.spec.engine.preload_rounds {
            replay(false);
        }
        (0..3).map(|_| replay(true)).fold(f64::INFINITY, f64::min)
    }
}

impl Workload for NetSparse {
    type Sys = NetSys;

    fn name(&self) -> &'static str {
        "net_sparse"
    }

    fn input_hash(&self) -> u64 {
        self.block.hash()
    }

    fn setup(&self) -> NetSys {
        let cfg = ServerConfig {
            engine: self.engine_config(),
            dispatch_threads: 1,
            ..ServerConfig::default()
        };
        let server = Server::start("127.0.0.1:0", cfg).expect("bind loopback");
        let mut client = Client::connect(server.local_addr()).expect("connect loopback");
        for _ in 0..self.spec.engine.preload_rounds {
            assert_eq!(self.replay(&mut client), 0, "preload must not fail");
        }
        NetSys {
            server,
            client,
            rounds_applied: self.spec.engine.preload_rounds as u64,
        }
    }

    fn round(&self, sys: &mut NetSys, tr: &mut Tracer) -> Round {
        let calls = self.calls();
        let calls_per_flush = self.spec.flush_every_frames / self.spec.frames_per_call;
        let mut round = Round {
            items: self.block.items(),
            wire_bytes: self.wire_bytes_per_round,
            ..Round::default()
        };
        let mut answers: Vec<Result<Estimate, WaveError>> =
            Vec::with_capacity(self.block.reads.len());

        let cpu_round = host::process_cpu_ns();
        let t_round = now_ns();
        let span = tr.open("round", 0, t_round);
        for (i, call) in calls.into_iter().enumerate() {
            let sent = call.len() as u64;
            let t0 = now_ns();
            let res = sys.client.ingest_many(call, self.spec.pipeline_window);
            let t1 = now_ns();
            tr.record("client.ingest_many", span, i as u64, t0, t1);
            round.ack_ns.push(t1 - t0);
            round.attempted += sent;
            round.failed += match res {
                Ok(acked) => sent - acked as u64,
                Err(_) => sent,
            };
            if (i + 1) % calls_per_flush == 0 {
                let t0 = now_ns();
                let res = sys.client.flush();
                tr.record("client.flush", span, i as u64, t0, now_ns());
                round.attempted += 1;
                round.failed += res.is_err() as u64;
            }
        }
        let t_flushed = now_ns();
        round.ingest_cpu_ns = host::process_cpu_ns() - cpu_round;
        for (i, &(key, window)) in self.block.reads.iter().enumerate() {
            let t0 = now_ns();
            let answer = sys.client.query(key, window);
            let t1 = now_ns();
            tr.record("client.query", span, i as u64, t0, t1);
            round.query_ns.push(t1 - t0);
            answers.push(answer);
        }
        let t_end = now_ns();
        tr.close(span, t_end);

        round.wall_ns = t_end - t_round;
        round.ingest_ns = t_flushed - t_round;
        round.attempted += answers.len() as u64;
        sys.rounds_applied += 1;
        let pos = sys.rounds_applied * self.block.period();
        for (&(key, window), answer) in self.block.reads.iter().zip(&answers) {
            let truth = self.oracle.count(key, pos, window);
            match answer
                .as_ref()
                .ok()
                .and_then(|est| check_estimate(est, truth, self.spec.engine.eps))
            {
                Some(rel) => round.rel_errs.push(rel),
                None => round.failed += 1,
            }
        }
        round
    }

    fn synopsis_bytes_per_key(&self, sys: &mut NetSys) -> f64 {
        let snap = sys.client.snapshot().expect("snapshot over loopback");
        snap.resident_bytes() as f64 / snap.keys().max(1) as f64
    }

    fn probes(&self, sys: &mut NetSys, tr: &mut Tracer, round: RoundSummary, out: &mut Ledger) {
        let e = &self.spec.engine;
        let core = probes::core(
            tr,
            out,
            &self.block.events,
            &self.block.reads,
            probes::Waves {
                keys: e.keys,
                max_window: e.max_window,
                eps: e.eps,
                preload_rounds: e.preload_rounds,
            },
        );
        let core_ns = core.push_round_ns + core.query_ns * self.block.reads.len() as f64;
        let frames = self.frames();
        let codec = probes::codec(tr, out, &frames);
        probes::ping_and_connect(tr, out, &mut sys.client).expect("ping over loopback");
        let in_process_ns = self.in_process_round_ns();
        let harness_ns = round.clock_reads as f64 * host::clock_read_ns();
        let requests = (frames.len() / 2) as f64;
        let engine_ns = (in_process_ns - core_ns).max(0.0);
        out.insert("engine.self_ns_per_req", engine_ns / requests);
        out.insert(
            "net.self_us_per_req",
            (round.wall_ns - in_process_ns) / requests / 1e3,
        );
        // `net` is what the codec probe can see; the kernel's TCP path,
        // epoll and the thread hand-offs stay in `unattributed`.
        probes::budget(
            out,
            round.wall_ns,
            probes::Busy {
                core: core_ns,
                engine: engine_ns,
                net: codec.round_ns,
                harness: harness_ns,
                ..probes::Busy::default()
            },
        );
    }

    fn finish(&self, mut sys: NetSys) -> Finish {
        let snapshot = sys.client.snapshot();
        self.discard(sys);
        Finish {
            attempted: 1,
            failed: snapshot.is_err() as u64,
            recovery_s: None,
            backpressure_total: snapshot.map_or(0, |s| s.backpressure_events),
        }
    }

    fn discard(&self, sys: NetSys) {
        let NetSys { server, client, .. } = sys;
        drop(client);
        // Dropping the server stops the loop and joins every thread.
        drop(server);
    }
}
