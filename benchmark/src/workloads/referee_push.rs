//! `referee_push`: the paper's scenario over the wire. Eight
//! `PushParty` follow their own streams; every delta a party's drift
//! account ships goes through `Client::push_delta` to the server's
//! referee, and `Client::combine` reads the always-valid answer while
//! installs keep arriving.

use waves_core::{Estimate, WaveError};
use waves_distributed::{
    combine_estimates, MonitorConfig, MonitorDelta, MonitorReferee, PushParty,
};
use waves_engine::EngineConfig;
use waves_net::{Client, Frame, Server, ServerConfig, SynopsisKind};

use super::{Finish, Ledger, Round, RoundSummary, Workload};
use crate::host::{self, now_ns};
use crate::inputs::{Block, PeriodicOracle};
use crate::probes;
use crate::spec::RefereeSpec;
use crate::stats;
use crate::trace::Tracer;

pub struct RefereePush {
    spec: RefereeSpec,
    monitor: MonitorConfig,
    block: Block,
    oracle: PeriodicOracle,
}

pub struct RefereeSys {
    server: Server,
    client: Client,
    parties: Vec<PushParty>,
}

/// What one replay of the block did, whoever the referee was.
#[derive(Default)]
struct Replay {
    failed: u64,
    attempted: u64,
    rel_errs: Vec<f64>,
    ack_ns: Vec<u64>,
    query_ns: Vec<u64>,
    wire_bytes: u64,
    /// Time spent checking answers inside the ingest phase; subtracted
    /// from the phase's wall time, because the shadows a check reads
    /// change with the very next event.
    check_ns: u64,
    ingest_end_ns: u64,
    ingest_end_cpu_ns: u64,
}

/// The referee a replay talks to: the server over the wire, or the
/// `waves-distributed` one in process.
trait Referee {
    fn install(&mut self, delta: MonitorDelta) -> Result<(), WaveError>;
    fn combine(&mut self, window: u64) -> Result<Estimate, WaveError>;
    const INSTALL_SPAN: &'static str;
    const COMBINE_SPAN: &'static str;
}

impl Referee for Client {
    fn install(&mut self, d: MonitorDelta) -> Result<(), WaveError> {
        self.push_delta(d.party, d.seq, d.slack, SynopsisKind::DetWave, d.bytes)
    }
    fn combine(&mut self, window: u64) -> Result<Estimate, WaveError> {
        Client::combine(self, window)
    }
    const INSTALL_SPAN: &'static str = "client.push_delta";
    const COMBINE_SPAN: &'static str = "client.combine";
}

/// Only the full window is served in process (`MonitorReferee` answers
/// nothing else), so the probe replay asks only for that.
impl Referee for MonitorReferee {
    fn install(&mut self, d: MonitorDelta) -> Result<(), WaveError> {
        MonitorReferee::install(self, &d)
            .map(|_| ())
            .map_err(|e| WaveError::io(std::io::Error::other(e.to_string())))
    }
    fn combine(&mut self, _window: u64) -> Result<Estimate, WaveError> {
        Ok(self.combined())
    }
    const INSTALL_SPAN: &'static str = "dist.install";
    const COMBINE_SPAN: &'static str = "dist.combine";
}

impl RefereePush {
    pub fn new(spec: RefereeSpec, seed: u64) -> Self {
        let block = Block::generate(spec.shape(), seed);
        let oracle = PeriodicOracle::new(&block);
        let monitor = MonitorConfig {
            max_window: spec.max_window,
            eps: spec.eps,
            eps_split: spec.eps_split,
            parties: spec.parties,
        };
        RefereePush {
            spec,
            monitor,
            block,
            oracle,
        }
    }

    fn fresh_parties(&self) -> Vec<PushParty> {
        (0..self.spec.parties)
            .map(|p| PushParty::new(&self.monitor, p).expect("spec'd monitor config is valid"))
            .collect()
    }

    /// Wire bytes of a PUSH_DELTA round trip around its synopsis payload,
    /// and of a whole COMBINE round trip (both fixed-size).
    fn frame_overheads() -> (u64, u64) {
        let push = probes::wire_len(&Frame::PushDelta {
            party: 0,
            seq: 1,
            slack: 0.0,
            kind: SynopsisKind::DetWave,
            bytes: Vec::new(),
        });
        let combine = probes::wire_len(&Frame::Combine { window: 1 })
            + probes::wire_len(&probes::estimate_reply());
        (push + probes::wire_len(&Frame::Ok), combine)
    }

    /// One replay of the block: every event into its party, every shipped
    /// delta into the referee, a full-window combine after every
    /// `combine_every`-th event and, when `end_combines`, the seeded
    /// sub-window combines after the last one. Every answer is checked.
    fn replay<R: Referee>(
        &self,
        parties: &mut [PushParty],
        referee: &mut R,
        tr: &mut Tracer,
        span: u64,
        end_combines: bool,
    ) -> Replay {
        let mut out = Replay::default();
        let (push_overhead, combine_bytes) = Self::frame_overheads();
        let w = self.spec.max_window;
        let slack_total = self.monitor.slack_total();
        let eps_syn = self.monitor.eps_synopsis();
        for (i, (party, bits)) in self.block.events.iter().enumerate() {
            let t0 = now_ns();
            let delta = parties[*party as usize].push_words(bits.as_ref());
            let t1 = now_ns();
            tr.record("dist.push_words", span, i as u64, t0, t1);
            if let Some(delta) = delta {
                out.wire_bytes += push_overhead + delta.bytes.len() as u64;
                let res = referee.install(delta);
                let t2 = now_ns();
                tr.record(R::INSTALL_SPAN, span, i as u64, t1, t2);
                out.ack_ns.push(t2 - t1);
                out.attempted += 1;
                out.failed += res.is_err() as u64;
            }
            if (i + 1) % self.spec.combine_every == 0 {
                let t0 = now_ns();
                let answer = referee.combine(w);
                let t1 = now_ns();
                tr.record(R::COMBINE_SPAN, span, i as u64, t0, t1);
                out.query_ns.push(t1 - t0);
                out.wire_bytes += combine_bytes;
                out.attempted += 1;
                // The continuously valid answer: exactly the pull-mode
                // fold of the shipped shadows, and within the monitoring
                // contract of the live truth.
                let fold = combine_estimates(parties.iter().map(|p| p.shipped().query_max()));
                let truth: u64 = parties
                    .iter()
                    .map(|p| self.oracle.count(p.party(), p.local().pos(), w))
                    .sum();
                let err = answer
                    .as_ref()
                    .map_or(f64::INFINITY, |a| (a.value - truth as f64).abs());
                let ok = answer.as_ref().is_ok_and(|a| *a == fold)
                    && err <= eps_syn * truth as f64 + slack_total;
                out.failed += !ok as u64;
                if ok && truth > 0 {
                    out.rel_errs.push(err / truth as f64);
                }
                out.check_ns += now_ns() - t1;
            }
        }
        out.ingest_end_ns = now_ns();
        out.ingest_end_cpu_ns = host::process_cpu_ns();
        if end_combines {
            for (i, &(_, window)) in self.block.reads.iter().enumerate() {
                let t0 = now_ns();
                let answer = referee.combine(window);
                let t1 = now_ns();
                tr.record(R::COMBINE_SPAN, span, i as u64, t0, t1);
                out.query_ns.push(t1 - t0);
                out.wire_bytes += combine_bytes;
                out.attempted += 1;
                // A sub-window answer is a fold of the shadows too, and
                // each shadow is within eps_syn of the exact count of the
                // prefix it was shipped at.
                let parts: Result<Vec<Estimate>, WaveError> =
                    parties.iter().map(|p| p.shipped().query(window)).collect();
                let fold = parts.map(combine_estimates);
                let truth: u64 = parties
                    .iter()
                    .map(|p| self.oracle.count(p.party(), p.shipped().pos(), window))
                    .sum();
                let err = answer
                    .as_ref()
                    .map_or(f64::INFINITY, |a| (a.value - truth as f64).abs());
                let ok = answer.is_ok() && answer == fold && err <= eps_syn * truth as f64;
                out.failed += !ok as u64;
                if ok && truth > 0 {
                    out.rel_errs.push(err / truth as f64);
                }
            }
        }
        out
    }
}

impl Workload for RefereePush {
    type Sys = RefereeSys;

    fn name(&self) -> &'static str {
        "referee_push"
    }

    fn input_hash(&self) -> u64 {
        self.block.hash()
    }

    fn setup(&self) -> RefereeSys {
        // The hosted engine serves nothing here; one shard keeps it to
        // one idle thread.
        let cfg = ServerConfig {
            engine: EngineConfig::builder().num_shards(1).build(),
            dispatch_threads: 1,
            ..ServerConfig::default()
        };
        let server = Server::start("127.0.0.1:0", cfg).expect("bind loopback");
        let mut client = Client::connect(server.local_addr()).expect("connect loopback");
        let mut parties = self.fresh_parties();
        let mut off = Tracer::default();
        for _ in 0..self.spec.preload_rounds {
            let replay = self.replay(&mut parties, &mut client, &mut off, 0, false);
            assert_eq!(replay.failed, 0, "preload must not fail");
        }
        RefereeSys {
            server,
            client,
            parties,
        }
    }

    fn round(&self, sys: &mut RefereeSys, tr: &mut Tracer) -> Round {
        let cpu_round = host::process_cpu_ns();
        let t_round = now_ns();
        let span = tr.open("round", 0, t_round);
        let replay = self.replay(&mut sys.parties, &mut sys.client, tr, span, true);
        let t_end = now_ns();
        tr.close(span, t_end);
        Round {
            wall_ns: t_end - t_round - replay.check_ns,
            ingest_ns: replay.ingest_end_ns - t_round - replay.check_ns,
            // The checks are pure computation: all of their wall time is
            // CPU time (a preempted check only blurs `off_cpu_share`).
            ingest_cpu_ns: (replay.ingest_end_cpu_ns - cpu_round).saturating_sub(replay.check_ns),
            items: self.block.items(),
            ack_ns: replay.ack_ns,
            query_ns: replay.query_ns,
            attempted: replay.attempted,
            failed: replay.failed,
            rel_errs: replay.rel_errs,
            wire_bytes: replay.wire_bytes,
            ..Round::default()
        }
    }

    /// Per party: the live wave's resident bytes — the synopsis the
    /// paper charges each party for.
    fn synopsis_bytes_per_key(&self, sys: &mut RefereeSys) -> f64 {
        let total: usize = sys
            .parties
            .iter()
            .map(|p| p.local().space_report().resident_bytes)
            .sum();
        total as f64 / sys.parties.len() as f64
    }

    fn probes(&self, sys: &mut RefereeSys, tr: &mut Tracer, round: RoundSummary, out: &mut Ledger) {
        let s = &self.spec;
        // What the traced rounds saw of the party side.
        let traced_rounds = tr.durations("round").len().max(1) as f64;
        let push_ns = tr.total_ns("dist.push_words") as f64 / traced_rounds;
        let deltas = tr.durations("client.push_delta").len() as f64 / traced_rounds;
        let combines = tr.durations("client.combine").len() as f64 / traced_rounds;
        let kitems = self.block.items() as f64 / 1e3;

        let core = probes::core(
            tr,
            out,
            &self.block.events,
            &self.block.reads,
            probes::Waves {
                keys: s.parties,
                max_window: s.max_window,
                eps: self.monitor.eps_synopsis(),
                preload_rounds: s.preload_rounds,
            },
        );
        // Per round the synopsis layer pushes every event, encodes and
        // decodes one wave per delta, and answers one query per party per
        // combine.
        let core_ns = core.push_round_ns
            + deltas * (core.encode_ns + core.decode_ns)
            + combines * s.parties as f64 * core.query_ns;
        // The party's own accounting, through its public surface: the
        // drift check every event pays and the shadow clone every ship
        // pays (the encode a ship also pays is `core` work).
        let party = &sys.parties[0];
        const DRIFT_CHECKS: u32 = 20_000;
        let t0 = now_ns();
        for _ in 0..DRIFT_CHECKS {
            std::hint::black_box(std::hint::black_box(party).unshipped_drift());
        }
        let drift_ns = (now_ns() - t0) as f64 / DRIFT_CHECKS as f64;
        const CLONES: u32 = 2_000;
        let t0 = now_ns();
        for _ in 0..CLONES {
            std::hint::black_box(std::hint::black_box(party).local().clone());
        }
        let clone_ns = (now_ns() - t0) as f64 / CLONES as f64;
        let dist_ns = s.events_per_round as f64 * drift_ns + deltas * clone_ns;

        // The workload's own frames: a PUSH_DELTA per key's encoded
        // synopsis and a COMBINE, with their replies.
        let mut frames = Vec::new();
        for (party, bytes) in &core.encoded {
            frames.push(Frame::PushDelta {
                party: *party,
                seq: 1,
                slack: self.monitor.party_budget(),
                kind: SynopsisKind::DetWave,
                bytes: bytes.clone(),
            });
            frames.push(Frame::Ok);
            frames.push(Frame::Combine {
                window: s.max_window,
            });
            frames.push(probes::estimate_reply());
        }
        let codec = probes::codec(tr, out, &frames);
        let per_frame_ns = codec.round_ns / frames.len() as f64;
        let net_ns = per_frame_ns * 2.0 * (deltas + combines);
        probes::ping_and_connect(tr, out, &mut sys.client).expect("ping over loopback");

        // The same round with the `waves-distributed` referee in process.
        let mut parties = self.fresh_parties();
        let mut referee = MonitorReferee::new();
        let mut off = Tracer::default();
        for _ in 0..s.preload_rounds {
            self.replay(&mut parties, &mut referee, &mut off, 0, false);
        }
        let probe = tr.open("probe.dist", 0, now_ns());
        let t0 = now_ns();
        let replay = self.replay(&mut parties, &mut referee, tr, probe, false);
        let in_process_ns = (now_ns() - t0 - replay.check_ns) as f64;
        tr.close(probe, now_ns());
        assert_eq!(
            replay.failed, 0,
            "in-process referee must agree with the oracle"
        );

        // Two more clock reads per event than the summary knows of.
        let clock_reads = round.clock_reads + 2 * s.events_per_round as u64;
        let harness_ns = clock_reads as f64 * host::clock_read_ns();
        out.insert("dist.push_ns_per_kitem", push_ns / kitems);
        out.insert("dist.deltas_per_kitem", deltas / kitems);
        out.insert(
            "dist.delta_bytes_avg",
            core.encoded.iter().map(|(_, b)| b.len()).sum::<usize>() as f64 / s.parties as f64,
        );
        out.insert("dist.install_ns", stats::median_u64(&replay.ack_ns));
        out.insert("dist.combine_ns", stats::median_u64(&replay.query_ns));
        out.insert(
            "net.self_us_per_req",
            (round.wall_ns - in_process_ns) / (deltas + combines) / 1e3,
        );
        probes::budget(
            out,
            round.wall_ns,
            probes::Busy {
                core: core_ns,
                dist: dist_ns,
                net: net_ns,
                harness: harness_ns,
                ..probes::Busy::default()
            },
        );
    }

    fn finish(&self, sys: RefereeSys) -> Finish {
        // Every party the harness drove must be registered, at the
        // sequence number it last shipped.
        let in_step = sys
            .parties
            .iter()
            .all(|p| sys.server.monitor_seq_of(p.party()).unwrap_or(0) == p.seq());
        self.discard(sys);
        Finish {
            attempted: 1,
            failed: !in_step as u64,
            recovery_s: None,
            backpressure_total: 0,
        }
    }

    fn discard(&self, sys: RefereeSys) {
        let RefereeSys { server, client, .. } = sys;
        drop(client);
        drop(server);
    }
}
