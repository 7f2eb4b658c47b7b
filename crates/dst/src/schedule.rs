//! Seed-derived fault schedules.
//!
//! A [`Schedule`] is the *entire* input of one simulation run: the stack
//! configuration plus an ordered list of [`Step`]s whose payloads (batch
//! contents, window sizes, fault parameters, WAL cut points) are fully
//! materialized. Nothing is drawn from an RNG at execution time, which
//! gives the two properties the harness is built on:
//!
//! - **replayability** — `Schedule::from_seed(n)` is a pure function of
//!   `n`, so `waves dst --seed n` re-executes the identical run;
//! - **shrinkability** — removing a step never changes what any other
//!   step does, so greedy element-removal shrinking
//!   ([`proptest::shrink_elements`]) is sound.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use waves_streamgen::KeyedWorkload;

/// Serializable mirror of [`waves_net::Fault`] so schedules stay plain
/// data (`Fault` carries a `Duration`; this keeps integer millis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Accept the connection, then close it without dialing upstream.
    DropConnection,
    /// Stall each server→client chunk by this many milliseconds.
    DelayMs(u64),
    /// Forward only the first `n` reply bytes, then close.
    TruncateAfter(usize),
    /// Flip one byte at this offset of the reply stream.
    CorruptByteAt(usize),
}

impl FaultSpec {
    pub fn to_fault(self) -> waves_net::Fault {
        match self {
            FaultSpec::DropConnection => waves_net::Fault::DropConnection,
            FaultSpec::DelayMs(ms) => waves_net::Fault::Delay(std::time::Duration::from_millis(ms)),
            FaultSpec::TruncateAfter(n) => waves_net::Fault::TruncateAfter(n),
            FaultSpec::CorruptByteAt(n) => waves_net::Fault::CorruptByteAt(n),
        }
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpec::DropConnection => write!(f, "drop-connection"),
            FaultSpec::DelayMs(ms) => write!(f, "delay-{ms}ms"),
            FaultSpec::TruncateAfter(n) => write!(f, "truncate-after-{n}"),
            FaultSpec::CorruptByteAt(n) => write!(f, "corrupt-byte-{n}"),
        }
    }
}

/// One step of a simulation. Payloads are materialized at generation
/// time — see the module docs for why.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Ingest one keyed batch through the stack (word-packed, via
    /// `IngestRequest`) and feed the oracles.
    Ingest { batch: Vec<(u64, Vec<bool>)> },
    /// Query one key at one window and check against every oracle.
    Query { key: u64, window: u64 },
    /// Barrier: wait until every shard drained its queue.
    Flush,
    /// Compare the engine snapshot's live-key count with the oracle.
    Snapshot,
    /// Durable checkpoint (successful no-op without persistence).
    Checkpoint,
    /// Clean shutdown and restart. With persistence the shutdown
    /// checkpoint preserves everything acknowledged; without it the
    /// restart wipes all state (the oracles reset with it).
    Restart,
    /// Hard crash: drop the stack *without* the shutdown checkpoint,
    /// then truncate the live WAL segment to `wal_cut_permille/1000` of
    /// its byte length before recovering. Only the records that fully
    /// survive the cut are expected back.
    Crash { wal_cut_permille: u16 },
    /// One query exchanged through a [`waves_net::ChaosProxy`] carrying
    /// this fault: the outcome must be either the correct answer or a
    /// typed error, within the hang budget. TCP schedules only.
    Chaos {
        fault: FaultSpec,
        key: u64,
        window: u64,
    },
    /// Cluster schedules only: shut one node's server down, losing its
    /// in-memory state. The generator keeps at most `replication - 1`
    /// nodes down at once so every key retains a live replica. No-op if
    /// the node is already down (keeps step removal shrink-sound).
    NodeKill { node: usize },
    /// Cluster schedules only: make one node unreachable from the
    /// client while its server — and its state — stays up. Replication
    /// shipments it misses are remembered and re-ship through
    /// anti-entropy after the rejoin. No-op if the node is already down.
    Partition { node: usize },
    /// Cluster schedules only: bring a downed node back. A killed node
    /// returns as a fresh empty server and is re-seeded key by key
    /// through anti-entropy; a partitioned one just becomes reachable
    /// again with its state intact. No-op if the node is up.
    Rejoin { node: usize },
    /// Monitor schedules only: feed bits to one continuous-monitoring
    /// party, which ships a delta to its referee only when its local
    /// drift crosses the ε-slack budget. After every push the harness
    /// re-checks the per-party drift invariant.
    MonitorPush { party: u64, bits: Vec<bool> },
    /// Monitor schedules only: read the referee's continuously valid
    /// answer and check it against three oracles — the exact per-party
    /// ring buffers, a pull-mode combine over the parties' live waves,
    /// and the ε+slack accuracy contract.
    MonitorQuery,
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Ingest { batch } => {
                let items: usize = batch.iter().map(|(_, b)| b.len()).sum();
                write!(f, "ingest({} events, {items} bits)", batch.len())
            }
            Step::Query { key, window } => write!(f, "query(key={key}, w={window})"),
            Step::Flush => write!(f, "flush"),
            Step::Snapshot => write!(f, "snapshot"),
            Step::Checkpoint => write!(f, "checkpoint"),
            Step::Restart => write!(f, "restart"),
            Step::Crash { wal_cut_permille } => write!(f, "crash(cut={wal_cut_permille}‰)"),
            Step::Chaos { fault, key, window } => {
                write!(f, "chaos({fault}, key={key}, w={window})")
            }
            Step::NodeKill { node } => write!(f, "node-kill(node={node})"),
            Step::Partition { node } => write!(f, "partition(node={node})"),
            Step::Rejoin { node } => write!(f, "rejoin(node={node})"),
            Step::MonitorPush { party, bits } => {
                write!(f, "monitor-push(party={party}, {} bits)", bits.len())
            }
            Step::MonitorQuery => write!(f, "monitor-query"),
        }
    }
}

/// Stack shape for one run, derived from the seed (or set explicitly
/// through [`ScheduleBuilder`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    pub max_window: u64,
    pub eps: f64,
    /// Keys the workload draws from; queries stretch slightly past this
    /// so `UnknownKey` paths are exercised too.
    pub num_keys: u64,
    pub num_shards: usize,
    /// Put a `waves-store` WAL + checkpoint tree under a scratch dir.
    /// Persistent schedules pin `num_shards` to 1 so WAL byte offsets
    /// can be tracked harness-side for crash cuts.
    pub persist: bool,
    /// Serve through a loopback `waves-net` server instead of calling
    /// the engine in-process. Chaos steps require this.
    pub tcp: bool,
    /// Nonzero routes the run through a `waves-cluster` client over this
    /// many loopback servers instead of a single backend. Cluster
    /// schedules use their own fault family (node kills, partitions,
    /// rejoins) and exclude persistence, plain-TCP chaos, snapshots, and
    /// restarts — those faults belong to the single-backend stacks.
    pub cluster_nodes: usize,
    /// Replicas per key when `cluster_nodes > 0`; the generator keeps at
    /// most `replication - 1` nodes down at once.
    pub replication: usize,
    /// Consistent-hash ring seed when `cluster_nodes > 0`, so replica
    /// placement itself varies across seeds.
    pub ring_seed: u64,
    /// Nonzero attaches a continuous-monitoring overlay: this many
    /// in-process push parties plus a referee, independent of the
    /// backend (so it survives restarts/crashes untouched). Monitor
    /// steps require it.
    pub monitor_parties: u64,
    /// Fraction of `eps` the monitor allocates to the per-party
    /// synopses; the rest becomes drift slack
    /// ([`waves_distributed::MonitorConfig::eps_split`]).
    pub eps_split: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_window: 64,
            eps: 0.25,
            num_keys: 5,
            num_shards: 1,
            persist: false,
            tcp: false,
            cluster_nodes: 0,
            replication: 2,
            ring_seed: 0,
            monitor_parties: 0,
            eps_split: 0.5,
        }
    }
}

/// A fully materialized simulation input. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub seed: u64,
    pub cfg: SimConfig,
    pub steps: Vec<Step>,
}

impl Schedule {
    /// Derive a complete schedule from a single seed: stack shape,
    /// workload, and every step payload. Pure — equal seeds give equal
    /// schedules.
    pub fn from_seed(seed: u64) -> Schedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let max_window = [16u64, 32, 48, 64, 96, 128, 256][rng.gen_range(0..7usize)];
        let eps = rng.gen_range(8u32..=40) as f64 / 100.0;
        let persist = rng.gen_bool(0.45);
        let tcp = rng.gen_bool(0.5);
        // A quarter of seeds exercise the multi-node cluster backend;
        // its fault family replaces the single-backend ones.
        let cluster = rng.gen_bool(0.25);
        let cluster_nodes = if cluster {
            rng.gen_range(2..=4usize)
        } else {
            0
        };
        // A quarter of seeds additionally carry the continuous-monitoring
        // overlay; it is backend-independent, so it composes with every
        // stack shape (direct, tcp, persistent, cluster).
        let monitor = rng.gen_bool(0.25);
        let monitor_parties = if monitor { rng.gen_range(2..=4u64) } else { 0 };
        let eps_split = if monitor {
            rng.gen_range(40u32..=70) as f64 / 100.0
        } else {
            0.5
        };
        let cfg = SimConfig {
            max_window,
            eps,
            num_keys: rng.gen_range(1..=10),
            num_shards: if persist && !cluster {
                1
            } else {
                rng.gen_range(1..=3)
            },
            persist: persist && !cluster,
            tcp: tcp && !cluster,
            cluster_nodes,
            replication: if cluster {
                rng.gen_range(2..=cluster_nodes.min(3))
            } else {
                2
            },
            ring_seed: if cluster { rng.next_u64() } else { 0 },
            monitor_parties,
            eps_split,
        };
        let mut workload = make_workload(&mut rng, &cfg);
        let n = rng.gen_range(24..=60);
        let mut steps = gen_steps(&mut rng, &cfg, &mut workload, n);
        // Epilogue: every seed ends by draining the stack and
        // interrogating each key at the full window plus one random one,
        // so even ingest-heavy schedules finish with real checks.
        steps.push(Step::Flush);
        for key in 0..cfg.num_keys.min(8) {
            steps.push(Step::Query {
                key,
                window: cfg.max_window,
            });
            steps.push(Step::Query {
                key,
                window: rng.gen_range(1..=cfg.max_window),
            });
        }
        if cfg.monitor_parties > 0 {
            steps.push(Step::MonitorQuery);
        }
        Schedule { seed, cfg, steps }
    }

    /// Hand-build a schedule (integration tests): fixed seed for replay
    /// reporting, explicit or seed-derived steps.
    pub fn builder(seed: u64) -> ScheduleBuilder {
        ScheduleBuilder {
            seed,
            cfg: SimConfig::default(),
            steps: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            workload: None,
        }
    }

    /// The command that replays this schedule when it came from
    /// [`Schedule::from_seed`].
    pub fn replay_hint(&self) -> String {
        format!("cargo run -p waves-cli -- dst --seed {}", self.seed)
    }
}

fn make_workload(rng: &mut StdRng, cfg: &SimConfig) -> KeyedWorkload {
    let density = rng.gen_range(10u32..=90) as f64 / 100.0;
    let max_burst = (cfg.max_window / 4).clamp(2, 24) as usize;
    let mut w =
        KeyedWorkload::new(cfg.num_keys, 4, density, rng.next_u64()).with_burst_range(1, max_burst);
    if cfg.num_keys > 2 && rng.gen_bool(0.4) {
        w = w.with_hot_set(0.7, (cfg.num_keys / 3).max(1));
    }
    w
}

fn gen_query(rng: &mut StdRng, cfg: &SimConfig) -> Step {
    Step::Query {
        // Stretch past the workload's key space so some queries hit
        // keys that never ingested (the `UnknownKey` contract).
        key: rng.gen_range(0..cfg.num_keys + 2),
        window: rng.gen_range(1..=cfg.max_window),
    }
}

fn gen_fault(rng: &mut StdRng) -> FaultSpec {
    match rng.gen_range(0..4u32) {
        0 => FaultSpec::DropConnection,
        1 => FaultSpec::DelayMs(rng.gen_range(40..=90)),
        2 => FaultSpec::TruncateAfter(rng.gen_range(0..=40)),
        _ => FaultSpec::CorruptByteAt(rng.gen_range(0..=40)),
    }
}

fn gen_steps(
    rng: &mut StdRng,
    cfg: &SimConfig,
    workload: &mut KeyedWorkload,
    n: usize,
) -> Vec<Step> {
    let mut steps = Vec::with_capacity(n);
    // Nodes currently killed or partitioned in a cluster schedule. The
    // generator caps this at `replication - 1` so no key ever loses its
    // last live replica, and rejoins only target genuinely downed nodes.
    let mut down: Vec<usize> = Vec::new();
    // Picks a node fault when headroom allows, a rejoin when one is
    // pending, and falls back to a query otherwise.
    let cluster_fault = |rng: &mut StdRng, down: &mut Vec<usize>| -> Step {
        if down.len() + 1 < cfg.replication {
            let up: Vec<usize> = (0..cfg.cluster_nodes)
                .filter(|i| !down.contains(i))
                .collect();
            let node = up[rng.gen_range(0..up.len())];
            down.push(node);
            if rng.gen_bool(0.5) {
                Step::NodeKill { node }
            } else {
                Step::Partition { node }
            }
        } else if !down.is_empty() {
            let node = down.remove(rng.gen_range(0..down.len()));
            Step::Rejoin { node }
        } else {
            gen_query(rng, cfg)
        }
    };
    for _ in 0..n {
        let roll = rng.gen_range(0..100u32);
        let step = if roll < 45 {
            let events = rng.gen_range(1..=6);
            Step::Ingest {
                batch: workload.next_batch(events),
            }
        } else if roll < 70 {
            gen_query(rng, cfg)
        } else if roll < 76 {
            Step::Flush
        } else if roll < 80 {
            if cfg.cluster_nodes > 0 {
                // Snapshot counts live keys on one engine; in a cluster
                // the keys are spread over nodes, so rejoin instead.
                if down.is_empty() {
                    gen_query(rng, cfg)
                } else {
                    let node = down.remove(rng.gen_range(0..down.len()));
                    Step::Rejoin { node }
                }
            } else {
                Step::Snapshot
            }
        } else if roll < 86 {
            if cfg.persist {
                Step::Checkpoint
            } else if cfg.cluster_nodes > 0 {
                cluster_fault(rng, &mut down)
            } else {
                gen_query(rng, cfg)
            }
        } else if roll < 90 {
            if cfg.cluster_nodes > 0 {
                cluster_fault(rng, &mut down)
            } else {
                Step::Restart
            }
        } else if roll < 95 {
            if cfg.persist {
                Step::Crash {
                    wal_cut_permille: rng.gen_range(0..=1000),
                }
            } else {
                gen_query(rng, cfg)
            }
        } else if cfg.tcp {
            Step::Chaos {
                fault: gen_fault(rng),
                key: rng.gen_range(0..cfg.num_keys),
                window: rng.gen_range(1..=cfg.max_window),
            }
        } else {
            gen_query(rng, cfg)
        };
        steps.push(step);
        // Monitor schedules interleave overlay traffic with the main
        // step stream: ~25% pushes (so drifts build and cross budgets)
        // and ~15% continuous-answer checks. Appended after the main
        // step so non-monitor schedules keep their structure.
        if cfg.monitor_parties > 0 {
            let roll = rng.gen_range(0..100u32);
            if roll < 25 {
                let party = rng.gen_range(0..cfg.monitor_parties);
                let len = rng.gen_range(1..=6usize);
                let bits = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                steps.push(Step::MonitorPush { party, bits });
            } else if roll < 40 {
                steps.push(Step::MonitorQuery);
            }
        }
    }
    // Every downed node rejoins before the epilogue queries so the
    // final sweep also proves post-rejoin anti-entropy convergence.
    for node in down {
        steps.push(Step::Rejoin { node });
    }
    steps
}

/// Builds hand-shaped or seed-derived schedules for integration tests.
/// Configuration setters should come before step methods; the workload
/// is instantiated lazily from the seed on first random step.
pub struct ScheduleBuilder {
    seed: u64,
    cfg: SimConfig,
    steps: Vec<Step>,
    rng: StdRng,
    workload: Option<KeyedWorkload>,
}

impl ScheduleBuilder {
    pub fn max_window(mut self, n: u64) -> Self {
        self.cfg.max_window = n;
        self.workload = None;
        self
    }

    pub fn eps(mut self, eps: f64) -> Self {
        self.cfg.eps = eps;
        self
    }

    pub fn num_keys(mut self, n: u64) -> Self {
        self.cfg.num_keys = n.max(1);
        self.workload = None;
        self
    }

    /// Shard count for non-persistent schedules (persistence pins 1).
    pub fn num_shards(mut self, n: usize) -> Self {
        self.cfg.num_shards = n.max(1);
        self
    }

    /// Persist through `waves-store` in a scratch dir. Pins one shard
    /// so crash cuts can classify WAL records by byte offset.
    pub fn persist(mut self) -> Self {
        self.cfg.persist = true;
        self.cfg.num_shards = 1;
        self
    }

    /// Serve over loopback TCP instead of in-process.
    pub fn tcp(mut self) -> Self {
        self.cfg.tcp = true;
        self
    }

    /// Route the run through a `waves-cluster` client over `nodes`
    /// loopback servers with `replication` replicas per key. Clears
    /// persistence and plain-TCP mode — cluster schedules carry their
    /// own fault family.
    pub fn cluster(mut self, nodes: usize, replication: usize) -> Self {
        self.cfg.cluster_nodes = nodes.max(2);
        self.cfg.replication = replication.clamp(2, self.cfg.cluster_nodes);
        self.cfg.persist = false;
        self.cfg.tcp = false;
        self
    }

    /// Consistent-hash ring seed for cluster schedules.
    pub fn ring_seed(mut self, seed: u64) -> Self {
        self.cfg.ring_seed = seed;
        self
    }

    /// Attach the continuous-monitoring overlay: `parties` push parties
    /// sharing the ε-slack pool, with `eps_split` of the budget going to
    /// the synopses. Composes with any backend.
    pub fn monitor(mut self, parties: u64, eps_split: f64) -> Self {
        self.cfg.monitor_parties = parties.max(1);
        self.cfg.eps_split = eps_split;
        self
    }

    /// Ingest an explicit batch.
    pub fn ingest(mut self, batch: Vec<(u64, Vec<bool>)>) -> Self {
        self.steps.push(Step::Ingest { batch });
        self
    }

    /// Ingest `events` workload events as one batch.
    pub fn ingest_random(mut self, events: usize) -> Self {
        let batch = self.workload().next_batch(events);
        self.steps.push(Step::Ingest { batch });
        self
    }

    pub fn query(mut self, key: u64, window: u64) -> Self {
        self.steps.push(Step::Query { key, window });
        self
    }

    /// Query every workload key at the full window.
    pub fn query_all(mut self) -> Self {
        for key in 0..self.cfg.num_keys {
            self.steps.push(Step::Query {
                key,
                window: self.cfg.max_window,
            });
        }
        self
    }

    pub fn flush(mut self) -> Self {
        self.steps.push(Step::Flush);
        self
    }

    pub fn snapshot(mut self) -> Self {
        self.steps.push(Step::Snapshot);
        self
    }

    pub fn checkpoint(mut self) -> Self {
        self.steps.push(Step::Checkpoint);
        self
    }

    pub fn restart(mut self) -> Self {
        self.steps.push(Step::Restart);
        self
    }

    pub fn crash(mut self, wal_cut_permille: u16) -> Self {
        self.steps.push(Step::Crash { wal_cut_permille });
        self
    }

    /// Adds a chaos exchange; implies a TCP schedule.
    pub fn chaos(mut self, fault: FaultSpec, key: u64, window: u64) -> Self {
        self.cfg.tcp = true;
        self.steps.push(Step::Chaos { fault, key, window });
        self
    }

    /// Shut a cluster node down, losing its state. Cluster schedules
    /// only ([`ScheduleBuilder::cluster`] must come first).
    pub fn node_kill(mut self, node: usize) -> Self {
        self.steps.push(Step::NodeKill { node });
        self
    }

    /// Make a cluster node unreachable while its state survives.
    pub fn partition(mut self, node: usize) -> Self {
        self.steps.push(Step::Partition { node });
        self
    }

    /// Bring a downed cluster node back (fresh and empty after a kill,
    /// intact after a partition).
    pub fn rejoin(mut self, node: usize) -> Self {
        self.steps.push(Step::Rejoin { node });
        self
    }

    /// Feed explicit bits to one monitor party
    /// ([`ScheduleBuilder::monitor`] must come first).
    pub fn monitor_push(mut self, party: u64, bits: Vec<bool>) -> Self {
        self.steps.push(Step::MonitorPush { party, bits });
        self
    }

    /// Check the referee's continuous answer against its oracles.
    pub fn monitor_query(mut self) -> Self {
        self.steps.push(Step::MonitorQuery);
        self
    }

    /// Append `n` seed-derived steps with the same generator
    /// [`Schedule::from_seed`] uses (weights adapt to the configured
    /// persistence/transport).
    pub fn random_steps(mut self, n: usize) -> Self {
        if self.workload.is_none() {
            self.workload = Some(make_workload(&mut self.rng, &self.cfg));
        }
        let workload = self.workload.as_mut().expect("workload just built");
        let mut steps = gen_steps(&mut self.rng, &self.cfg, workload, n);
        self.steps.append(&mut steps);
        self
    }

    pub fn build(self) -> Schedule {
        Schedule {
            seed: self.seed,
            cfg: self.cfg,
            steps: self.steps,
        }
    }

    fn workload(&mut self) -> &mut KeyedWorkload {
        if self.workload.is_none() {
            self.workload = Some(make_workload(&mut self.rng, &self.cfg));
        }
        self.workload.as_mut().expect("workload just built")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_pure() {
        for seed in [0u64, 1, 7, 42, 0xDEAD_BEEF] {
            assert_eq!(Schedule::from_seed(seed), Schedule::from_seed(seed));
        }
        assert_ne!(Schedule::from_seed(1).steps, Schedule::from_seed(2).steps);
    }

    #[test]
    fn generated_steps_respect_config() {
        for seed in 0..50u64 {
            let s = Schedule::from_seed(seed);
            assert!(s.cfg.eps > 0.0 && s.cfg.eps < 1.0);
            if s.cfg.persist {
                assert_eq!(s.cfg.num_shards, 1, "persist pins one shard");
            }
            if s.cfg.cluster_nodes > 0 {
                assert!(!s.cfg.persist && !s.cfg.tcp, "cluster excludes persist/tcp");
                assert!(s.cfg.replication >= 2 && s.cfg.replication <= s.cfg.cluster_nodes);
            }
            if s.cfg.monitor_parties > 0 {
                assert!(s.cfg.eps_split > 0.0 && s.cfg.eps_split < 1.0);
                assert!(
                    s.steps.iter().any(|st| matches!(st, Step::MonitorQuery)),
                    "monitor schedules end with a continuous-answer check"
                );
            }
            let mut down: Vec<usize> = Vec::new();
            for step in &s.steps {
                match step {
                    Step::Chaos { .. } => assert!(s.cfg.tcp, "chaos requires tcp"),
                    Step::Crash { .. } => assert!(s.cfg.persist, "crash requires persist"),
                    Step::Query { window, .. } => {
                        assert!(*window >= 1 && *window <= s.cfg.max_window)
                    }
                    Step::Ingest { batch, .. } => assert!(!batch.is_empty()),
                    Step::Snapshot | Step::Restart => {
                        assert_eq!(s.cfg.cluster_nodes, 0, "single-backend faults only")
                    }
                    Step::NodeKill { node } | Step::Partition { node } => {
                        assert!(s.cfg.cluster_nodes > 0, "node faults require cluster");
                        assert!(*node < s.cfg.cluster_nodes);
                        assert!(!down.contains(node), "fault targets an up node");
                        down.push(*node);
                        assert!(
                            down.len() < s.cfg.replication,
                            "every key keeps a live replica"
                        );
                    }
                    Step::Rejoin { node } => {
                        assert!(s.cfg.cluster_nodes > 0, "rejoin requires cluster");
                        assert!(down.contains(node), "rejoin targets a downed node");
                        down.retain(|n| n != node);
                    }
                    Step::MonitorPush { party, bits } => {
                        assert!(s.cfg.monitor_parties > 0, "monitor push requires monitor");
                        assert!(*party < s.cfg.monitor_parties);
                        assert!(!bits.is_empty());
                    }
                    Step::MonitorQuery => {
                        assert!(s.cfg.monitor_parties > 0, "monitor query requires monitor")
                    }
                    _ => {}
                }
            }
            if s.cfg.cluster_nodes > 0 {
                assert!(down.is_empty(), "all downed nodes rejoin before epilogue");
            }
        }
    }

    #[test]
    fn builder_chaos_implies_tcp() {
        let s = Schedule::builder(9)
            .chaos(FaultSpec::DropConnection, 0, 8)
            .build();
        assert!(s.cfg.tcp);
    }

    #[test]
    fn builder_cluster_clears_persist_and_tcp() {
        let s = Schedule::builder(3)
            .persist()
            .tcp()
            .cluster(3, 2)
            .node_kill(1)
            .rejoin(1)
            .build();
        assert_eq!(s.cfg.cluster_nodes, 3);
        assert_eq!(s.cfg.replication, 2);
        assert!(!s.cfg.persist && !s.cfg.tcp);
        assert_eq!(
            s.steps,
            vec![Step::NodeKill { node: 1 }, Step::Rejoin { node: 1 }]
        );
    }

    #[test]
    fn builder_random_steps_are_seed_deterministic() {
        let a = Schedule::builder(11).persist().random_steps(30).build();
        let b = Schedule::builder(11).persist().random_steps(30).build();
        assert_eq!(a, b);
    }
}
