//! The cluster client: consistent-hash routing, primary/follower
//! synopsis replication, anti-entropy on reconnect, and failover.
//!
//! A [`ClusterClient`] fronts N `waves-net` servers. Each key is routed
//! by the seeded [`Ring`] to R replicas: the *primary*
//! (first in ring order) receives the raw ingest stream; the followers
//! receive the key's synopsis `encode()` bytes through the wire v5
//! `REPLICATE` frame at [`ClusterClient::replicate_all`] time. The
//! client keeps a local *shadow* synopsis per key — byte-identical to
//! the primary's state, because both saw the same bits in the same
//! order — and that shadow is the replication source. The shadow is
//! what makes failure handling clean:
//!
//! * **Failover (reads).** A query walks the key's replicas in ring
//!   order and returns the first answer. A follower's answer is at
//!   worst as stale as the last replication round — never wrong, just
//!   behind — and the walk counts a `cluster_failovers_total` tick per
//!   dead node it skips.
//! * **Repair (writes).** Ingest is not idempotent, so a failed ingest
//!   is never blindly re-sent (a reply lost after the server applied
//!   the batch would double-count). Instead the client re-ships the
//!   whole shadow through `REPLICATE` — an idempotent *install* that
//!   converges to the same state no matter how many times it lands. A
//!   batch the primary refuses (backpressure) never enters the shadow,
//!   so no replica receives it and a retry counts it once.
//! * **Anti-entropy (rejoin).** A node that was unreachable at
//!   replication time has its stale keys remembered; the next
//!   successful connection to it re-ships them before anything else
//!   (`cluster_anti_entropy_merges_total` counts the catch-ups).
//!
//! Cross-key aggregates use [`waves_distributed::combine_checked`]:
//! distinct keys are disjoint substreams, so their estimates combine
//! additively ([`ClusterClient::combined_total`]). Replica *copies* of
//! one key never combine — an install replaces, because summing two
//! copies of the same stream would double-count it.

use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use waves_core::{Bits, DetWave, Estimate, WaveError};
use waves_distributed::combine_checked;
use waves_engine::IngestRequest;
use waves_net::{Client, ClientConfig, RetryPolicy, SynopsisKind};
use waves_obs::{HistId, MetricId, Recorder};

use crate::ring::Ring;

/// Cluster topology and synopsis knobs. The synopsis parameters must
/// match the servers' engine config: the shadow mirrors the primary.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Replicas per key (primary + followers), clamped to at least 1
    /// and at most the node count at routing time.
    pub replication: usize,
    /// Virtual nodes per server on the hash ring.
    pub vnodes: usize,
    /// Seed for the ring's placement hash: clients sharing a seed (and
    /// node list) route identically without coordination.
    pub ring_seed: u64,
    /// Max window of the per-key shadow synopses (must match servers).
    pub max_window: u64,
    /// Accuracy of the per-key shadow synopses (must match servers).
    pub eps: f64,
    /// Per-connection transport knobs, including the [`RetryPolicy`]
    /// that governs both same-node retries and the failover judgment.
    pub client: ClientConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replication: 2,
            vnodes: 16,
            ring_seed: 0,
            max_window: 1024,
            eps: 0.1,
            client: ClientConfig::default(),
        }
    }
}

/// A client over a fixed set of `waves-net` servers, routing keys by
/// consistent hash with primary/follower replication and failover.
pub struct ClusterClient {
    nodes: Vec<SocketAddr>,
    ring: Ring,
    cfg: ClusterConfig,
    /// One lazy connection per node; `None` means down or not yet
    /// dialed. A transport failure drops the slot back to `None`.
    conns: Vec<Option<Client>>,
    /// Per-key shadow synopses — the replication source of truth.
    shadows: HashMap<u64, DetWave>,
    /// Validated prototype the shadows clone from.
    template: DetWave,
    /// Per-node keys whose last replication to that node failed; the
    /// next successful connection re-ships them (anti-entropy).
    pending: Vec<BTreeSet<u64>>,
    rec: Arc<dyn Recorder + Send + Sync>,
}

impl ClusterClient {
    /// Build a client over `nodes`, recording Cluster* counters and
    /// replica-lag observations into `rec` (also shared with every
    /// per-node [`Client`]; `Arc::new(NoopRecorder)` records nothing).
    /// No connection is dialed until the first request needs it.
    pub fn new(
        nodes: Vec<SocketAddr>,
        cfg: ClusterConfig,
        rec: Arc<dyn Recorder + Send + Sync>,
    ) -> Result<Self, WaveError> {
        if nodes.is_empty() {
            return Err(WaveError::io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cluster needs at least one node",
            )));
        }
        // Validate the synopsis parameters once; every shadow clones
        // this instead of re-running fallible construction.
        let template = DetWave::new(cfg.max_window, cfg.eps)?;
        let ring = Ring::new(cfg.ring_seed, cfg.vnodes, 0..nodes.len() as u64);
        let pending = vec![BTreeSet::new(); nodes.len()];
        Ok(ClusterClient {
            conns: (0..nodes.len()).map(|_| None).collect(),
            nodes,
            ring,
            cfg,
            shadows: HashMap::new(),
            template,
            pending,
            rec,
        })
    }

    /// The ring the client routes with (placement is pure in its seed,
    /// vnode count, and node set).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The key's replica set, primary first, in failover order.
    pub fn replicas_of(&self, key: u64) -> Vec<usize> {
        self.ring
            .replicas(key, self.cfg.replication.max(1))
            .into_iter()
            .map(|n| n as usize)
            .collect()
    }

    /// Keys this client has ingested (and therefore can replicate).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.shadows.keys().copied()
    }

    /// Repoint one node at a new address, dropping any open connection
    /// to the old one. The deterministic simulator uses this to model
    /// partitions (swap in an unreachable address) and rejoins (swap
    /// the real address back, or a restarted server's new port); an
    /// operator would use it for node replacement. Keys the node missed
    /// while unreachable are still remembered and re-ship through
    /// anti-entropy on the next successful connection.
    pub fn set_node_addr(&mut self, node: usize, addr: SocketAddr) {
        self.conns[node] = None;
        self.nodes[node] = addr;
    }

    /// Declare every key routed to `node` stale there: a node that came
    /// back *empty* (crashed and restarted without its state) must have
    /// its whole key set re-installed, not just the keys that failed a
    /// replication round. The re-ship happens through the normal
    /// anti-entropy path on the next connection.
    pub fn mark_node_stale(&mut self, node: usize) {
        self.conns[node] = None;
        let keys: Vec<u64> = self.shadows.keys().copied().collect();
        for key in keys {
            if self.replicas_of(key).contains(&node) {
                self.pending[node].insert(key);
            }
        }
    }

    /// Errors worth walking to the next replica for: connection-shaped
    /// transport failures plus timeouts. Same-node re-sends stay
    /// restricted to [`RetryPolicy::is_retryable`]; failover is wider
    /// because the *next* node is a different bet entirely.
    fn failover_worthy(e: &WaveError) -> bool {
        RetryPolicy::is_retryable(e) || matches!(e, WaveError::Timeout { .. })
    }

    /// Connect to `node` if not already connected, running anti-entropy
    /// (re-shipping every pending key) before the connection is handed
    /// to any other traffic.
    fn ensure_conn(&mut self, node: usize) -> Result<(), WaveError> {
        if self.conns[node].is_some() {
            return Ok(());
        }
        let mut conn = Client::connect_with(
            self.nodes[node],
            self.cfg.client.clone(),
            Arc::clone(&self.rec),
        )?;
        // Anti-entropy: the node missed replication rounds while it was
        // down; catch it up before trusting it with reads.
        while let Some(&key) = self.pending[node].iter().next() {
            let bytes = self.shadows[&key].encode();
            conn.replicate(key, SynopsisKind::DetWave, bytes)?;
            self.pending[node].remove(&key);
            self.rec.incr(MetricId::ClusterAntiEntropyMerges, 1);
        }
        self.conns[node] = Some(conn);
        Ok(())
    }

    /// Drop `node`'s connection after a transport failure.
    fn drop_conn(&mut self, node: usize) {
        self.conns[node] = None;
    }

    /// Ship the key's shadow to one node as a `REPLICATE` install.
    fn ship(&mut self, key: u64, node: usize) -> Result<(), WaveError> {
        if let Err(e) = self.ensure_conn(node) {
            // Unreachable at dial time still means the node missed this
            // key's state — remember it or the rejoin reads stale.
            self.pending[node].insert(key);
            return Err(e);
        }
        let bytes = self.shadows[&key].encode();
        let t0 = self.rec.enabled().then(Instant::now);
        let res = self.conns[node]
            .as_mut()
            .expect("ensure_conn just connected")
            .replicate(key, SynopsisKind::DetWave, bytes);
        match res {
            Ok(()) => {
                self.rec.incr(MetricId::ClusterReplicationsShipped, 1);
                if let Some(t0) = t0 {
                    self.rec
                        .observe(HistId::ClusterReplicaLagNs, t0.elapsed().as_nanos() as u64);
                }
                self.pending[node].remove(&key);
                Ok(())
            }
            Err(e) => {
                self.drop_conn(node);
                self.pending[node].insert(key);
                Err(e)
            }
        }
    }

    /// Ingest the key's next bits: the primary applies them, and the
    /// shadow once the primary acks. If the primary can't take the
    /// ingest, the client *repairs* instead of re-sending: the shadow
    /// absorbs the bits and the client walks the replica set shipping
    /// it as an idempotent install, so the bits are durable on the
    /// first node that answers. Fails when every replica is
    /// unreachable, or when the primary refuses the batch — a refused
    /// batch reaches no replica.
    pub fn ingest(&mut self, key: u64, bits: impl Into<Bits>) -> Result<(), WaveError> {
        let bits: Bits = bits.into();
        let replicas = self.replicas_of(key);
        let primary = replicas[0];
        // Reconnect (and run anti-entropy) *before* the shadow absorbs
        // this batch: a catch-up install that already contained these
        // bits would double-count them when the ingest below lands too.
        let primary_err = match self.ensure_conn(primary) {
            Ok(()) => {
                match self.conns[primary]
                    .as_mut()
                    .expect("ensure_conn just connected")
                    .ingest(IngestRequest::of(key, bits.clone()))
                {
                    Ok(()) => {
                        self.absorb(key, &bits);
                        return Ok(());
                    }
                    Err(e) if Self::failover_worthy(&e) => {
                        self.drop_conn(primary);
                        e
                    }
                    // Server-side rejection (backpressure, bad window):
                    // the node is healthy, the request is the problem.
                    Err(e) => return Err(e),
                }
            }
            Err(e) => e,
        };
        // The primary missed this batch (and possibly earlier state:
        // it may be a fresh process). Repair by installing the shadow
        // on the first reachable replica, primary included.
        self.absorb(key, &bits);
        self.pending[primary].insert(key);
        let mut last = primary_err;
        for node in replicas {
            self.rec.incr(MetricId::ClusterFailovers, 1);
            match self.ship(key, node) {
                Ok(()) => return Ok(()),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// The key's shadow takes a batch the cluster now holds.
    fn absorb(&mut self, key: u64, bits: &Bits) {
        self.shadows
            .entry(key)
            .or_insert_with(|| self.template.clone())
            .push_words(bits.as_ref());
    }

    /// One replication round: every key's shadow ships to its
    /// followers (the primary already holds the state — it applied the
    /// ingest stream). Unreachable followers are remembered for
    /// anti-entropy; the round itself never fails over them. Returns
    /// the number of installs acknowledged.
    pub fn replicate_all(&mut self) -> usize {
        let keys: Vec<u64> = self.shadows.keys().copied().collect();
        let mut shipped = 0usize;
        for key in keys {
            for node in self.replicas_of(key).into_iter().skip(1) {
                if self.ship(key, node).is_ok() {
                    shipped += 1;
                }
            }
        }
        shipped
    }

    /// Window query with failover: walk the key's replicas in ring
    /// order, return the first answer. Counts one
    /// `cluster_failovers_total` tick per dead node skipped. A
    /// follower's answer reflects the last replication round.
    pub fn query(&mut self, key: u64, window: u64) -> Result<Estimate, WaveError> {
        let mut last: Option<WaveError> = None;
        for node in self.replicas_of(key) {
            if last.is_some() {
                // We are past the primary because it failed.
                self.rec.incr(MetricId::ClusterFailovers, 1);
            }
            let err = match self.ensure_conn(node) {
                Ok(()) => {
                    match self.conns[node]
                        .as_mut()
                        .expect("ensure_conn just connected")
                        .query(key, window)
                    {
                        Ok(est) => return Ok(est),
                        Err(e) => e,
                    }
                }
                Err(e) => e,
            };
            if !Self::failover_worthy(&err) {
                return Err(err);
            }
            self.drop_conn(node);
            last = Some(err);
        }
        Err(last.unwrap_or_else(|| {
            WaveError::io(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "no replica answered",
            ))
        }))
    }

    /// Barrier on every currently connected node: primaries drain their
    /// shard queues, so a following [`ClusterClient::replicate_all`]
    /// ships state the primaries have already applied.
    pub fn flush(&mut self) -> Result<(), WaveError> {
        for node in 0..self.nodes.len() {
            if self.conns[node].is_some() {
                if let Err(e) = self.conns[node].as_mut().unwrap().flush() {
                    if Self::failover_worthy(&e) {
                        self.drop_conn(node);
                    } else {
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }

    /// Cluster-wide total over every key this client owns: each key is
    /// queried with failover and the per-key estimates — disjoint
    /// substreams — combine additively through
    /// [`waves_distributed::combine_checked`], which refuses a total
    /// past `u64`.
    pub fn combined_total(&mut self, window: u64) -> Result<Estimate, WaveError> {
        let keys: Vec<u64> = self.shadows.keys().copied().collect();
        let mut parts = Vec::with_capacity(keys.len());
        for key in keys {
            parts.push(self.query(key, window)?);
        }
        combine_checked(parts)
    }

    /// The client-side shadow's own answer — the oracle the servers are
    /// measured against in tests (the shadow saw every bit exactly
    /// once, in order).
    pub fn shadow_query(&self, key: u64, window: u64) -> Result<Estimate, WaveError> {
        match self.shadows.get(&key) {
            Some(w) => w.query(window),
            None => Err(WaveError::UnknownKey { key }),
        }
    }
}
