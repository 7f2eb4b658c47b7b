//! Schedule execution: build the stack a schedule describes, run every
//! step, and check each observable answer against three oracles.
//!
//! Per key the harness maintains:
//!
//! - [`ExactCount`] — the O(N) ring-buffer ground truth;
//! - a shadow [`DetWave`] — the engine must agree with it *bit for
//!   bit*, the workspace's standing differential convention;
//! - an [`EhCount`] — Datar et al.'s independent baseline, which must
//!   agree with the truth (and hence the wave) within ε.
//!
//! Monitor schedules additionally run a continuous-monitoring overlay
//! ([`PushParty`]s plus a [`MonitorReferee`]): every referee answer is
//! checked against per-party exact ring buffers, a pull-mode combine
//! over the parties' live waves, and the ε+slack accuracy contract, and
//! every push re-checks the per-party drift budget.
//!
//! Every trace line is a pure function of the schedule, so the FNV hash
//! over the trace ([`RunReport::trace_hash`]) is the replay-identity
//! witness: equal seeds ⇒ equal hashes. Timing-dependent facts (error
//! kinds under injected faults, queue depths) never enter the trace.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use waves_cluster::{ClusterClient, ClusterConfig};
use waves_core::{Bits, DetWave, Estimate, ExactCount, WaveError};
use waves_distributed::{combine_estimates, MonitorConfig, MonitorReferee, PushParty};
use waves_eh::EhCount;
use waves_engine::{Engine, EngineConfig, IngestRequest};
use waves_net::{ChaosProxy, Client, ClientConfig, RetryPolicy, Server, ServerConfig};
use waves_obs::{Fanout, MetricsRegistry, NoopRecorder, Recorder, SpanRecorder};
use waves_store::{scratch_dir, wal, PersistConfig, SyncPolicy};

use crate::schedule::{FaultSpec, Schedule, SimConfig, Step};

/// A chaos exchange must resolve (answer or typed error) within this
/// budget, proxy teardown included.
pub const HANG_BUDGET: Duration = Duration::from_secs(5);

/// An oracle (or harness-contract) violation at one step of a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub seed: u64,
    /// Index into `schedule.steps`.
    pub step: usize,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DST FAILURE seed={} step={}: {}",
            self.seed, self.step, self.detail
        )
    }
}

impl std::error::Error for Violation {}

/// What a successful run observed.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Steps executed.
    pub steps: usize,
    /// Oracle comparisons performed (queries, snapshots, chaos ops).
    pub checks: u64,
    /// FNV-1a over the event trace — the replay-identity witness.
    pub trace_hash: u64,
    /// One line per step, fully deterministic per schedule.
    pub trace: Vec<String>,
}

/// A failing run plus its greedily minimized witness.
#[derive(Debug, Clone)]
pub struct Failure {
    pub violation: Violation,
    /// Subsequence of the original steps that still fails; 1-minimal
    /// under single-step removal.
    pub minimized: Schedule,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.violation)?;
        writeln!(
            f,
            "minimized schedule ({} steps; `{}` replays the seed's full schedule, \
             not these steps):",
            self.minimized.steps.len(),
            self.minimized.replay_hint()
        )?;
        for (i, step) in self.minimized.steps.iter().enumerate() {
            writeln!(f, "  [{i}] {step}")?;
        }
        Ok(())
    }
}

/// Run the schedule derived from `seed` (see [`Schedule::from_seed`]).
pub fn run_seed(seed: u64) -> Result<RunReport, Violation> {
    run(&Schedule::from_seed(seed))
}

/// Execute a schedule against a freshly built stack. Persistent
/// schedules use a scratch directory that is removed afterwards either
/// way.
pub fn run(schedule: &Schedule) -> Result<RunReport, Violation> {
    let root = schedule
        .cfg
        .persist
        .then(|| scratch_dir(&format!("dst-seed-{}", schedule.seed)));
    let result = run_in(schedule, root.as_deref());
    if let Some(root) = root {
        let _ = fs::remove_dir_all(&root);
    }
    result
}

/// Run; on violation, shrink the schedule to a 1-minimal failing
/// subsequence (re-running candidate subsequences) and report both the
/// original violation and the minimized witness.
pub fn run_or_minimize(schedule: &Schedule) -> Result<RunReport, Box<Failure>> {
    match run(schedule) {
        Ok(report) => Ok(report),
        Err(violation) => {
            let minimized = minimize(schedule);
            Err(Box::new(Failure {
                violation,
                minimized,
            }))
        }
    }
}

/// Greedy step-removal shrinking of a failing schedule: keeps deleting
/// chunks of steps while some violation (not necessarily the original
/// one) still fires. The result is a subsequence of the input.
pub fn minimize(schedule: &Schedule) -> Schedule {
    let steps = proptest::shrink_elements(&schedule.steps, |subset| {
        run(&Schedule {
            seed: schedule.seed,
            cfg: schedule.cfg,
            steps: subset.to_vec(),
        })
        .is_err()
    });
    Schedule {
        seed: schedule.seed,
        cfg: schedule.cfg,
        steps,
    }
}

fn run_in(schedule: &Schedule, root: Option<&Path>) -> Result<RunReport, Violation> {
    let mut sim = Sim::start(schedule, root).map_err(|detail| Violation {
        seed: schedule.seed,
        step: 0,
        detail,
    })?;
    for (idx, step) in schedule.steps.iter().enumerate() {
        sim.execute(step).map_err(|detail| Violation {
            seed: schedule.seed,
            step: idx,
            detail,
        })?;
    }
    Ok(RunReport {
        steps: schedule.steps.len(),
        checks: sim.checks,
        trace_hash: sim.trace.hash,
        trace: sim.trace.lines,
    })
}

/// Full telemetry attached to every simulated stack: the metrics
/// registry plus the span ring, which enables end-to-end tracing.
/// Running the sim with tracing *live* is deliberate — it proves the
/// telemetry plane is invisible to replay identity, because the trace
/// hash covers only engine/store observables and never span timings.
fn telemetry() -> Arc<dyn Recorder + Send + Sync> {
    Arc::new(Fanout(MetricsRegistry::new(), SpanRecorder::new()))
}

/// A loopback server on an ephemeral port hosting `engine`, with its
/// own telemetry.
fn start_server(engine: EngineConfig) -> Result<Server, WaveError> {
    let cfg = ServerConfig {
        engine,
        ..Default::default()
    };
    Server::start_recorded("127.0.0.1:0", cfg, telemetry())
}

/// The execution surface: in-process engine, loopback server+client, or
/// a multi-node cluster behind a `waves-cluster` routing client.
enum Backend {
    Direct(Engine<DetWave, dyn Recorder + Send + Sync>),
    Tcp {
        server: Server,
        client: Client,
    },
    Cluster {
        /// `None` while a node is killed; its slot keeps the index ↔
        /// ring identity stable.
        servers: Vec<Option<Server>>,
        /// Two routing clients over the same nodes and keys: ingest
        /// batches alternate between them, and so do queries.
        clients: Box<[ClusterClient; 2]>,
        /// Ingest batches and queries sent so far: each picks its
        /// client by parity.
        batches: usize,
        queries: usize,
        /// Real listening address per node, restored on rejoin after a
        /// partition (a killed node rejoins on a fresh port).
        addrs: Vec<SocketAddr>,
        /// Downed with state lost (killed) vs state preserved
        /// (partitioned) — decides what a rejoin must re-seed.
        killed: Vec<bool>,
        partitioned: Vec<bool>,
    },
}

/// Where the routing client is pointed for a downed node: loopback port
/// 1 is privileged and never listened on, so dials fail fast and
/// deterministically with `ConnectionRefused` — and a dead node's real
/// port can never be recycled under the client by a later fresh server.
fn unreachable_addr() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 1))
}

struct Sim {
    cfg: SimConfig,
    backend: Option<Backend>,
    oracles: Oracles,
    /// Continuous-monitoring overlay (monitor schedules only). Lives
    /// harness-side and is deliberately untouched by restarts/crashes:
    /// the parties and referee model long-lived monitoring processes
    /// independent of the serving stack under fault injection.
    monitor: Option<MonitorPlane>,
    root: Option<PathBuf>,
    /// Acknowledged batches covered by the newest on-disk checkpoint.
    ckpt_batches: usize,
    /// End offset of each acknowledged WAL record in the live segment
    /// (persist mode; reset when a checkpoint rotates the segment).
    seg_ends: Vec<u64>,
    trace: Trace,
    checks: u64,
}

impl Sim {
    fn start(schedule: &Schedule, root: Option<&Path>) -> Result<Sim, String> {
        let cfg = schedule.cfg;
        if cfg.persist && cfg.num_shards != 1 {
            return Err("harness: persistent schedules require exactly one shard".into());
        }
        let monitor = if cfg.monitor_parties > 0 {
            Some(MonitorPlane::new(&cfg)?)
        } else {
            None
        };
        Ok(Sim {
            cfg,
            backend: Some(start_backend(&cfg, root)?),
            oracles: Oracles::new(&cfg),
            monitor,
            root: root.map(Path::to_path_buf),
            ckpt_batches: 0,
            seg_ends: Vec::new(),
            trace: Trace::new(),
            checks: 0,
        })
    }

    fn backend(&mut self) -> &mut Backend {
        self.backend.as_mut().expect("backend live between steps")
    }

    fn execute(&mut self, step: &Step) -> Result<(), String> {
        match step {
            Step::Ingest { batch } => self.do_ingest(batch),
            Step::Query { key, window } => self.do_query(*key, *window),
            Step::Flush => self.do_flush(),
            Step::Snapshot => self.do_snapshot(),
            Step::Checkpoint => self.do_checkpoint(),
            Step::Restart => self.do_restart(),
            Step::Crash { wal_cut_permille } => self.do_crash(*wal_cut_permille),
            Step::Chaos { fault, key, window } => self.do_chaos(*fault, *key, *window),
            Step::NodeKill { node } => self.do_node_kill(*node),
            Step::Partition { node } => self.do_partition(*node),
            Step::Rejoin { node } => self.do_rejoin(*node),
            Step::MonitorPush { party, bits } => self.do_monitor_push(*party, bits),
            Step::MonitorQuery => self.do_monitor_query(),
        }
    }

    fn do_ingest(&mut self, batch: &[(u64, Vec<bool>)]) -> Result<(), String> {
        if batch.is_empty() {
            self.trace.push("ingest events=0 items=0".to_string());
            return Ok(());
        }
        if let Backend::Cluster {
            clients, batches, ..
        } = self.backend()
        {
            let writer = &mut clients[*batches % 2];
            *batches += 1;
            let mut acked = Vec::with_capacity(batch.len());
            let mut deferred = 0usize;
            for (key, bits) in batch {
                match writer.ingest(*key, &bits[..]) {
                    Ok(()) => acked.push((*key, bits.clone())),
                    // No replica of this key that is current could be
                    // dialed — possible only in shrunk schedules that
                    // dropped a rejoin. Refused at dial time, the entry
                    // reached no node, so the oracle does not count it.
                    Err(WaveError::Io(_)) | Err(WaveError::Timeout { .. }) => deferred += 1,
                    Err(e) => return Err(format!("cluster ingest rejected: {e}")),
                }
            }
            // Both clients run a replication round after each batch, so
            // any replica that answers a later query holds current
            // state.
            for client in clients.iter_mut() {
                client.replicate_all();
            }
            self.oracles.apply(&acked);
            let items: usize = batch.iter().map(|(_, bits)| bits.len()).sum();
            self.trace.push(format!(
                "ingest events={} items={items} deferred={deferred}",
                batch.len()
            ));
            return Ok(());
        }
        // Word-packed form of the batch: what the stack is sent and what
        // the WAL encodes.
        let words: Vec<(u64, Bits)> = batch
            .iter()
            .map(|(k, bits)| (*k, Bits::from_bools(bits)))
            .collect();
        // One WAL record per acknowledged batch (single shard, FIFO):
        // its length, taken before the batch moves into the request.
        let rec_len = self
            .cfg
            .persist
            .then(|| wal::frame_record(&wal::encode_batch_payload(&words)).len() as u64);
        match self.backend() {
            Backend::Direct(engine) => engine
                .ingest(IngestRequest::batch(words))
                .map_err(|e| format!("ingest rejected by engine: {e}"))?,
            Backend::Tcp { client, .. } => client
                .ingest(IngestRequest::batch(words))
                .map_err(|e| format!("ingest failed over tcp: {e}"))?,
            Backend::Cluster { .. } => unreachable!("cluster ingest handled above"),
        }
        if let Some(rec_len) = rec_len {
            // Track the record's end offset so a crash cut classifies
            // survivors.
            let end = self
                .seg_ends
                .last()
                .copied()
                .unwrap_or(wal::SEGMENT_HEADER_LEN)
                + rec_len;
            self.seg_ends.push(end);
        }
        self.oracles.apply(batch);
        let items: usize = batch.iter().map(|(_, bits)| bits.len()).sum();
        self.trace
            .push(format!("ingest events={} items={items}", batch.len()));
        Ok(())
    }

    fn do_query(&mut self, key: u64, window: u64) -> Result<(), String> {
        let got = match self.backend() {
            Backend::Direct(engine) => engine.query(key, window),
            Backend::Tcp { client, .. } => client.query(key, window),
            Backend::Cluster {
                clients, queries, ..
            } => {
                let reader = &mut clients[*queries % 2];
                *queries += 1;
                match reader.query(key, window) {
                    // No current replica of this key reachable — possible
                    // only in shrunk schedules that dropped a rejoin.
                    // There is no answer to check; the outcome is
                    // deterministic given the schedule's down-set, so
                    // trace and move on.
                    Err(WaveError::Io(_)) | Err(WaveError::Timeout { .. }) => {
                        self.trace
                            .push(format!("query key={key} w={window} -> unreachable"));
                        return Ok(());
                    }
                    other => other,
                }
            }
        };
        self.checks += 1;
        let line = self.oracles.check_query(key, window, &got)?;
        self.trace.push(line);
        Ok(())
    }

    fn do_flush(&mut self) -> Result<(), String> {
        match self.backend() {
            Backend::Direct(engine) => engine.flush(),
            Backend::Tcp { client, .. } => client
                .flush()
                .map_err(|e| format!("flush failed over tcp: {e}"))?,
            // Nothing to drain: a replica's FETCH and QUERY answer
            // behind every INGEST sent ahead of them.
            Backend::Cluster { .. } => {}
        }
        self.trace.push("flush".to_string());
        Ok(())
    }

    fn do_snapshot(&mut self) -> Result<(), String> {
        let snap = match self.backend() {
            Backend::Direct(engine) => engine.snapshot(),
            Backend::Tcp { client, .. } => client
                .snapshot()
                .map_err(|e| format!("snapshot failed over tcp: {e}"))?,
            Backend::Cluster { .. } => {
                // A cluster spreads keys over nodes; the single-engine
                // live-key count has no cluster-wide meaning.
                return Err("harness: snapshot step requires a single-backend schedule".into());
            }
        };
        self.checks += 1;
        let want = self.oracles.exact.len();
        if snap.keys() != want {
            return Err(format!(
                "snapshot reports {} live keys, oracle has {want}",
                snap.keys()
            ));
        }
        self.trace.push(format!("snapshot keys={want}"));
        Ok(())
    }

    fn do_checkpoint(&mut self) -> Result<(), String> {
        match self.backend() {
            Backend::Direct(engine) => engine.checkpoint(),
            Backend::Tcp { server, .. } => server.engine().checkpoint(),
            Backend::Cluster { .. } => {
                return Err("harness: checkpoint step requires a single-backend schedule".into());
            }
        }
        .map_err(|e| format!("checkpoint failed: {e}"))?;
        if self.cfg.persist {
            // The checkpoint travels each shard's FIFO, so it covers
            // every batch acknowledged so far and rotates the segment.
            self.ckpt_batches = self.oracles.history.len();
            self.seg_ends.clear();
        }
        self.trace
            .push(format!("checkpoint batches={}", self.ckpt_batches));
        Ok(())
    }

    fn do_restart(&mut self) -> Result<(), String> {
        self.stop_backend(false);
        if self.cfg.persist {
            // Clean shutdown wrote a final checkpoint covering every
            // acknowledged batch and rotated the WAL.
            self.ckpt_batches = self.oracles.history.len();
            self.seg_ends.clear();
        } else {
            self.oracles.rebuild(0);
        }
        self.backend = Some(start_backend(&self.cfg, self.root.as_deref())?);
        self.trace
            .push(format!("restart acked={}", self.oracles.history.len()));
        Ok(())
    }

    fn do_crash(&mut self, permille: u16) -> Result<(), String> {
        self.stop_backend(true);
        let mut cut = 0u64;
        let mut survivors = 0usize;
        if let Some(root) = &self.root {
            let shard_dir = root.join("shard-0");
            let seg = newest_segment(&shard_dir)?;
            let len = fs::metadata(&seg)
                .map_err(|e| format!("harness: stat {}: {e}", seg.display()))?
                .len();
            cut = len * u64::from(permille.min(1000)) / 1000;
            let f = fs::OpenOptions::new()
                .write(true)
                .open(&seg)
                .map_err(|e| format!("harness: open {}: {e}", seg.display()))?;
            f.set_len(cut)
                .map_err(|e| format!("harness: truncate {}: {e}", seg.display()))?;
            drop(f);
            survivors = self.seg_ends.iter().filter(|&&e| e <= cut).count();
            self.seg_ends.truncate(survivors);
        }
        if self.cfg.persist {
            self.oracles.rebuild(self.ckpt_batches + survivors);
        } else {
            self.oracles.rebuild(0);
        }
        self.backend = Some(start_backend(&self.cfg, self.root.as_deref())?);
        self.trace.push(format!(
            "crash cut={cut} survivors={survivors} acked={}",
            self.oracles.history.len()
        ));
        Ok(())
    }

    fn do_chaos(&mut self, spec: FaultSpec, key: u64, window: u64) -> Result<(), String> {
        let addr = match self.backend() {
            Backend::Tcp { server, .. } => server.local_addr(),
            Backend::Direct(_) | Backend::Cluster { .. } => {
                return Err("harness: chaos step requires a tcp schedule".into())
            }
        };
        let proxy = ChaosProxy::start(addr, spec.to_fault())
            .map_err(|e| format!("harness: chaos proxy: {e}"))?;
        // Throwaway client with tight budgets: delays must surface as
        // timeouts quickly, and nothing here is retried.
        let chaos_cfg = ClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(30),
            write_timeout: Duration::from_millis(500),
            retry: RetryPolicy::none(),
        };
        let t0 = Instant::now();
        let outcome = Client::connect_with(proxy.local_addr(), chaos_cfg, Arc::new(NoopRecorder))
            .and_then(|mut c| c.query(key, window));
        drop(proxy);
        let elapsed = t0.elapsed();
        if elapsed > HANG_BUDGET {
            return Err(format!(
                "chaos op exceeded the {HANG_BUDGET:?} hang budget: {elapsed:?}"
            ));
        }
        self.checks += 1;
        // The contract under an injected fault: either the correct
        // answer (the fault missed the exchange) or a typed transport
        // error — never a wrong answer, never a hang.
        match outcome {
            Ok(est) => {
                self.oracles.check_query(key, window, &Ok(est))?;
            }
            Err(WaveError::UnknownKey { .. }) => {
                if self.oracles.exact.contains_key(&key) {
                    return Err(format!(
                        "chaos query returned UnknownKey for known key {key}"
                    ));
                }
            }
            Err(WaveError::Io(_)) | Err(WaveError::Timeout { .. }) => {}
            Err(other) => return Err(format!("chaos query: unexpected error kind {other:?}")),
        }
        // Trace records only the fault, never the timing-dependent
        // outcome kind — that would break replay-identity.
        self.trace.push(format!("chaos fault={spec} -> checked"));
        Ok(())
    }

    /// Tear the stack down, cleanly or as a crash (skipping the final
    /// shutdown checkpoint so the WAL prefix is what recovery sees).
    fn stop_backend(&mut self, crash: bool) {
        match self.backend.take() {
            Some(Backend::Direct(engine)) => {
                if crash {
                    engine.crash_on_drop();
                }
                drop(engine);
            }
            Some(Backend::Tcp { server, client }) => {
                if crash {
                    server.engine().crash_on_drop();
                }
                drop(client);
                drop(server);
            }
            Some(Backend::Cluster {
                servers, clients, ..
            }) => {
                // Clusters never persist, so crash vs clean is moot.
                drop(clients);
                for server in servers.into_iter().flatten() {
                    server.shutdown();
                }
            }
            None => {}
        }
    }

    fn do_node_kill(&mut self, node: usize) -> Result<(), String> {
        let Backend::Cluster {
            servers,
            clients,
            killed,
            partitioned,
            ..
        } = self.backend()
        else {
            return Err("harness: node-kill step requires a cluster schedule".into());
        };
        if node >= servers.len() {
            return Err(format!("harness: node-kill node={node}: no such node"));
        }
        if let Some(server) = servers[node].take() {
            server.shutdown();
        }
        for client in clients.iter_mut() {
            client.set_node_addr(node, unreachable_addr());
        }
        killed[node] = true;
        partitioned[node] = false;
        self.trace.push(format!("node-kill node={node}"));
        Ok(())
    }

    fn do_partition(&mut self, node: usize) -> Result<(), String> {
        let Backend::Cluster {
            servers,
            clients,
            killed,
            partitioned,
            ..
        } = self.backend()
        else {
            return Err("harness: partition step requires a cluster schedule".into());
        };
        if node >= servers.len() {
            return Err(format!("harness: partition node={node}: no such node"));
        }
        // A killed node is already unreachable; partitioning it again
        // must not resurrect it as "state preserved".
        if !killed[node] && !partitioned[node] {
            for client in clients.iter_mut() {
                client.set_node_addr(node, unreachable_addr());
            }
            partitioned[node] = true;
        }
        self.trace.push(format!("partition node={node}"));
        Ok(())
    }

    fn do_rejoin(&mut self, node: usize) -> Result<(), String> {
        let ecfg = engine_cfg(&self.cfg, None);
        let Backend::Cluster {
            servers,
            clients,
            addrs,
            killed,
            partitioned,
            ..
        } = self.backend()
        else {
            return Err("harness: rejoin step requires a cluster schedule".into());
        };
        if node >= servers.len() {
            return Err(format!("harness: rejoin node={node}: no such node"));
        }
        let fresh = killed[node];
        if killed[node] {
            // The node lost its state with its process: restart it
            // empty on a fresh port.
            let server =
                start_server(ecfg).map_err(|e| format!("harness: rejoin server start: {e}"))?;
            addrs[node] = server.local_addr();
            servers[node] = Some(server);
        }
        if killed[node] || partitioned[node] {
            // Empty after a kill, or behind on writes either client made
            // during a partition: each client marks every key it wrote
            // that routes there stale and syncs it from a current
            // replica before the node serves it.
            for client in clients.iter_mut() {
                client.set_node_addr(node, addrs[node]);
                client.mark_node_stale(node);
            }
            killed[node] = false;
            partitioned[node] = false;
        }
        // Rejoining an up node is a no-op (keeps shrinking sound); the
        // `fresh` flag is a pure function of the schedule prefix.
        self.trace.push(format!("rejoin node={node} fresh={fresh}"));
        Ok(())
    }

    fn do_monitor_push(&mut self, party: u64, bits: &[bool]) -> Result<(), String> {
        let Some(m) = self.monitor.as_mut() else {
            return Err("harness: monitor-push step requires a monitor schedule".into());
        };
        let idx = party as usize;
        if idx >= m.parties.len() {
            return Err(format!(
                "harness: monitor-push party={party}: no such party"
            ));
        }
        for &b in bits {
            m.exact[idx].push_bit(b);
        }
        let delta = m.parties[idx].push_words(Bits::from_bools(bits).as_ref());
        let shipped = delta.is_some();
        if let Some(delta) = &delta {
            m.referee
                .install(delta)
                .map_err(|e| format!("monitor referee rejected a live delta: {e:?}"))?;
        }
        // The slack account must settle below budget after *every*
        // batch — this is the oracle that catches threshold off-by-ones
        // (see the planted `dst_mutation` in `PushParty::settle`).
        let drift = m.parties[idx].unshipped_drift();
        let budget = m.parties[idx].slack_budget();
        if drift > budget + 1e-9 {
            return Err(format!(
                "monitor party {party}: unshipped drift {drift} exceeds slack budget {budget}"
            ));
        }
        let seq = m.parties[idx].seq();
        self.checks += 1;
        self.trace.push(format!(
            "monitor-push party={party} bits={} shipped={shipped} seq={seq}",
            bits.len()
        ));
        Ok(())
    }

    fn do_monitor_query(&mut self) -> Result<(), String> {
        let Some(m) = self.monitor.as_ref() else {
            return Err("harness: monitor-query step requires a monitor schedule".into());
        };
        // Three oracles for the continuously valid answer: the exact
        // ring-buffer bracket, the pull-mode referee over the same bit
        // sequence, and the ε+slack accuracy contract.
        let push = m.referee.combined();
        let pull = combine_estimates(m.parties.iter().map(|p| p.local().query_max()));
        let truth: u64 = m.exact.iter().map(|e| e.query(m.cfg.max_window)).sum();
        let slack = m.cfg.slack_total();
        let contract = m.cfg.eps_synopsis() * truth as f64 + slack;
        if (push.value - truth as f64).abs() > contract + 1e-6 {
            return Err(format!(
                "monitor-query: push answer {} off truth {truth} beyond eps_syn*truth+slack={contract}",
                push.value
            ));
        }
        if (push.value - pull.value).abs() > slack + 1e-6 {
            return Err(format!(
                "monitor-query: push {} and pull {} disagree beyond slack {slack}",
                push.value, pull.value
            ));
        }
        let drifts: f64 = m.parties.iter().map(|p| p.unshipped_drift()).sum();
        if drifts > slack + 1e-9 {
            return Err(format!(
                "monitor-query: total unshipped drift {drifts} exceeds slack pool {slack}"
            ));
        }
        self.checks += 1;
        self.trace.push(format!(
            "monitor-query push={} pull={} truth={truth}",
            push.value, pull.value
        ));
        Ok(())
    }
}

/// The continuous-monitoring overlay: push parties, their exact
/// ground-truth ring buffers, and the referee folding shipped deltas.
struct MonitorPlane {
    cfg: MonitorConfig,
    parties: Vec<PushParty>,
    exact: Vec<ExactCount>,
    referee: MonitorReferee,
}

impl MonitorPlane {
    fn new(cfg: &SimConfig) -> Result<MonitorPlane, String> {
        let mcfg = MonitorConfig {
            max_window: cfg.max_window,
            eps: cfg.eps,
            eps_split: cfg.eps_split,
            parties: cfg.monitor_parties,
        };
        let parties = (0..cfg.monitor_parties)
            .map(|p| PushParty::new(&mcfg, p))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("harness: monitor party: {e}"))?;
        let exact = (0..cfg.monitor_parties)
            .map(|_| ExactCount::new(cfg.max_window))
            .collect();
        Ok(MonitorPlane {
            cfg: mcfg,
            parties,
            exact,
            referee: MonitorReferee::new(),
        })
    }
}

fn engine_cfg(cfg: &SimConfig, root: Option<&Path>) -> EngineConfig {
    let mut b = EngineConfig::builder()
        .num_shards(cfg.num_shards)
        .max_window(cfg.max_window)
        .eps(cfg.eps)
        // Far above any schedule's step count so backpressure cannot
        // fire and distort the acknowledged-batch accounting.
        .queue_capacity(4096);
    if let Some(root) = root {
        b = b.persist_config(
            PersistConfig::new(root)
                // Every acknowledged batch is durable, so the oracle's
                // "acknowledged prefix" is exactly what must survive.
                .sync_policy(SyncPolicy::EveryBatch)
                // No auto-checkpoints: only explicit Checkpoint steps
                // and clean shutdowns move the checkpoint frontier.
                .checkpoint_every(0),
        );
    }
    b.build()
}

fn start_backend(cfg: &SimConfig, root: Option<&Path>) -> Result<Backend, String> {
    let ecfg = engine_cfg(cfg, root);
    if cfg.cluster_nodes > 0 {
        let mut servers = Vec::with_capacity(cfg.cluster_nodes);
        let mut addrs = Vec::with_capacity(cfg.cluster_nodes);
        for _ in 0..cfg.cluster_nodes {
            let server = start_server(ecfg.clone())
                .map_err(|e| format!("harness: cluster server start: {e}"))?;
            addrs.push(server.local_addr());
            servers.push(Some(server));
        }
        let ccfg = ClusterConfig {
            replication: cfg.replication,
            ring_seed: cfg.ring_seed,
            // Dials to downed nodes must fail once and fail over, not
            // burn wall-clock retrying the same dead address.
            client: ClientConfig {
                retry: RetryPolicy::none(),
                ..Default::default()
            },
            ..Default::default()
        };
        let client = || {
            ClusterClient::new(addrs.clone(), ccfg.clone(), telemetry())
                .map_err(|e| format!("harness: cluster client: {e}"))
        };
        let clients = Box::new([client()?, client()?]);
        let n = cfg.cluster_nodes;
        return Ok(Backend::Cluster {
            servers,
            clients,
            batches: 0,
            queries: 0,
            addrs,
            killed: vec![false; n],
            partitioned: vec![false; n],
        });
    }
    if cfg.tcp {
        let server = start_server(ecfg).map_err(|e| format!("harness: server start: {e}"))?;
        let client =
            Client::connect_with(server.local_addr(), ClientConfig::default(), telemetry())
                .map_err(|e| format!("harness: client connect: {e}"))?;
        Ok(Backend::Tcp { server, client })
    } else {
        let (n, eps) = (ecfg.max_window, ecfg.eps);
        Ok(Backend::Direct(
            Engine::with_factory(ecfg, move || DetWave::new(n, eps), telemetry())
                .map_err(|e| format!("harness: engine start: {e}"))?,
        ))
    }
}

/// Newest (highest-sequence) WAL segment in a shard directory. After a
/// checkpoint the store reclaims older segments, so this is the live
/// one.
fn newest_segment(shard_dir: &Path) -> Result<PathBuf, String> {
    let mut best: Option<(u64, PathBuf)> = None;
    let entries = fs::read_dir(shard_dir)
        .map_err(|e| format!("harness: read {}: {e}", shard_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("harness: read {}: {e}", shard_dir.display()))?;
        let name = entry.file_name();
        if let Some(seq) = name.to_str().and_then(wal::parse_segment_file_name) {
            if best.as_ref().is_none_or(|(b, _)| seq > *b) {
                best = Some((seq, entry.path()));
            }
        }
    }
    best.map(|(_, p)| p)
        .ok_or_else(|| format!("harness: no WAL segment in {}", shard_dir.display()))
}

/// The three per-key oracles plus the acknowledged-batch history they
/// are rebuilt from after crashes and restarts.
struct Oracles {
    max_window: u64,
    eps: f64,
    exact: HashMap<u64, ExactCount>,
    shadow: HashMap<u64, DetWave>,
    eh: HashMap<u64, EhCount>,
    history: Vec<Vec<(u64, Vec<bool>)>>,
}

impl Oracles {
    fn new(cfg: &SimConfig) -> Oracles {
        Oracles {
            max_window: cfg.max_window,
            eps: cfg.eps,
            exact: HashMap::new(),
            shadow: HashMap::new(),
            eh: HashMap::new(),
            history: Vec::new(),
        }
    }

    fn apply(&mut self, batch: &[(u64, Vec<bool>)]) {
        self.feed(batch);
        self.history.push(batch.to_vec());
    }

    /// Reset to the first `acked` acknowledged batches (what recovery
    /// must restore after a crash or what survives a restart).
    fn rebuild(&mut self, acked: usize) {
        self.history.truncate(acked);
        self.exact.clear();
        self.shadow.clear();
        self.eh.clear();
        let history = std::mem::take(&mut self.history);
        for batch in &history {
            self.feed(batch);
        }
        self.history = history;
    }

    fn feed(&mut self, batch: &[(u64, Vec<bool>)]) {
        let (n, eps) = (self.max_window, self.eps);
        for (key, bits) in batch {
            let exact = self.exact.entry(*key).or_insert_with(|| ExactCount::new(n));
            let shadow = self
                .shadow
                .entry(*key)
                .or_insert_with(|| DetWave::new(n, eps).expect("validated parameters"));
            let eh = self
                .eh
                .entry(*key)
                .or_insert_with(|| EhCount::new(n, eps).expect("validated parameters"));
            for &bit in bits {
                exact.push_bit(bit);
                eh.push_bit(bit);
                shadow.push_bit(bit);
            }
        }
    }

    /// Check one answered query against all three oracles; returns the
    /// deterministic trace line on success, the violation detail
    /// otherwise.
    fn check_query(
        &self,
        key: u64,
        window: u64,
        got: &Result<Estimate, WaveError>,
    ) -> Result<String, String> {
        let eps = self.eps;
        let Some(exact) = self.exact.get(&key) else {
            return match got {
                Err(WaveError::UnknownKey { .. }) => {
                    Ok(format!("query key={key} w={window} -> unknown"))
                }
                other => Err(format!(
                    "query key={key} w={window}: expected UnknownKey, got {other:?}"
                )),
            };
        };
        let est = match got {
            Ok(est) => *est,
            Err(e) => {
                return Err(format!(
                    "query key={key} w={window}: unexpected error {e:?}"
                ))
            }
        };
        let truth = exact.query(window);
        let shadow = self.shadow[&key]
            .query(window)
            .map_err(|e| format!("query key={key} w={window}: shadow wave failed: {e:?}"))?;
        if est != shadow {
            return Err(format!(
                "query key={key} w={window}: engine {est:?} != shadow wave {shadow:?}"
            ));
        }
        if !est.brackets(truth) {
            return Err(format!(
                "query key={key} w={window}: truth {truth} outside [{}, {}]",
                est.lo, est.hi
            ));
        }
        if est.exact && (est.value != truth as f64 || est.lo != truth || est.hi != truth) {
            return Err(format!(
                "query key={key} w={window}: exact-flagged {est:?} but truth is {truth}"
            ));
        }
        if est.relative_error(truth) > eps + 1e-9 {
            return Err(format!(
                "query key={key} w={window}: wave error {} > eps {eps} (truth {truth}, value {})",
                est.relative_error(truth),
                est.value
            ));
        }
        let eh = self.eh[&key]
            .query(window)
            .map_err(|e| format!("query key={key} w={window}: eh baseline failed: {e:?}"))?;
        if !eh.brackets(truth) || eh.relative_error(truth) > eps + 1e-9 {
            return Err(format!(
                "query key={key} w={window}: eh baseline {eh:?} vs truth {truth} beyond eps {eps}"
            ));
        }
        // Agreement-within-ε between the two independent synopses.
        if (est.value - eh.value).abs() > 2.0 * eps * truth as f64 + 1e-9 {
            return Err(format!(
                "query key={key} w={window}: wave {} and eh {} disagree beyond 2·eps·truth={truth}",
                est.value, eh.value
            ));
        }
        Ok(format!(
            "query key={key} w={window} -> v={} lo={} hi={} exact={} truth={truth} eh={}",
            est.value, est.lo, est.hi, est.exact, eh.value
        ))
    }
}

/// Event trace with an incrementally maintained FNV-1a hash.
struct Trace {
    lines: Vec<String>,
    hash: u64,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            lines: Vec::new(),
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn push(&mut self, line: String) {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.lines.push(line);
    }
}
