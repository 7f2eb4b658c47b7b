//! The cluster client: consistent-hash routing, primary/follower
//! synopsis replication, anti-entropy on reconnect, and failover.
//!
//! A [`ClusterClient`] fronts N `waves-net` servers. Each key is routed
//! by the seeded [`Ring`] to R replicas, primary first. The client
//! holds no synopsis: a follower is brought up to date with the bytes a
//! replica that holds the key's stream already has. One private step,
//! `sync`, FETCHes (wire v8) the key's `encode()` bytes from its first
//! reachable *current* replica and installs them on the others through
//! `REPLICATE`; an install older than the receiver's state changes
//! nothing, so racing replicators cannot roll a follower back.
//!
//! Per node the client remembers which keys that node is *behind* on:
//! an acknowledged ingest marks every other replica of the key, and a
//! `sync` that installs on a node clears it there. That one fact
//! decides routing:
//!
//! * **Reads and writes** go to the key's first reachable replica that
//!   is not behind, in ring order. When none answers, the result is a
//!   typed "no replica answered" error — never a stale answer that
//!   claims writes it missed. A query walks on after any transport
//!   failure and counts a `cluster_failovers_total` tick per node it
//!   walks past.
//! * **A write is not repaired.** Ingest is not idempotent, so it moves
//!   to the next replica only when the dial failed — nothing has left
//!   the client. An error after the INGEST was sent is returned as it
//!   is: the outcome is unknown, and re-sending could count the batch
//!   twice.
//! * **Anti-entropy.** A node that missed installs stays marked; the
//!   next successful connection to it syncs every key it is behind on
//!   (`cluster_anti_entropy_merges_total` counts the catch-ups), and
//!   [`ClusterClient::mark_node_stale`] marks and syncs a node that came
//!   back empty.
//!
//! Cross-key aggregates use [`waves_distributed::combine_checked`]:
//! distinct keys are disjoint substreams, so their estimates combine
//! additively ([`ClusterClient::combined_total`]). Replica *copies* of
//! one key never combine — an install replaces, because summing two
//! copies of the same stream would double-count it.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use waves_core::{Bits, Estimate, WaveError};
use waves_distributed::combine_checked;
use waves_engine::IngestRequest;
use waves_net::{Client, ClientConfig, RetryPolicy};
use waves_obs::{HistId, MetricId, Recorder};

use crate::ring::Ring;

/// Cluster topology and transport knobs.
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
    /// Keys this client has had acknowledged: what a replication round
    /// and [`ClusterClient::mark_node_stale`] walk.
    written: BTreeSet<u64>,
    /// Per node, the keys it is behind this client's acknowledged
    /// writes on. Such a node serves none of them until a sync clears
    /// the mark.
    pending: Vec<BTreeSet<u64>>,
    /// Set while a reconnect's anti-entropy runs. A node dialed inside
    /// it does not start its own, so a node that accepts and then drops
    /// every connection cannot recurse the catch-up without end.
    catching_up: bool,
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
        let ring = Ring::new(cfg.ring_seed, cfg.vnodes, 0..nodes.len() as u64);
        Ok(ClusterClient {
            conns: (0..nodes.len()).map(|_| None).collect(),
            pending: vec![BTreeSet::new(); nodes.len()],
            nodes,
            ring,
            cfg,
            written: BTreeSet::new(),
            catching_up: false,
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

    /// Keys this client has ingested (and therefore replicates).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.written.iter().copied()
    }

    /// Repoint one node at a new address, dropping any open connection
    /// to the old one. The deterministic simulator uses this to model
    /// partitions (swap in an unreachable address) and rejoins (swap
    /// the real address back, or a restarted server's new port); an
    /// operator would use it for node replacement. Keys the node is
    /// behind on stay marked and sync on the next successful
    /// connection.
    pub fn set_node_addr(&mut self, node: usize, addr: SocketAddr) {
        self.conns[node] = None;
        self.nodes[node] = addr;
    }

    /// Declare every key this client wrote that routes to `node` stale
    /// there — a node that came back empty, or after missing writes
    /// other clients made — and sync them now if the node answers. Until
    /// a key's sync lands, the node serves none of it.
    pub fn mark_node_stale(&mut self, node: usize) {
        self.conns[node] = None;
        let keys: Vec<u64> = self.written.iter().copied().collect();
        for key in keys {
            if self.replicas_of(key).contains(&node) {
                self.pending[node].insert(key);
            }
        }
        let _ = self.connect(node);
    }

    /// Errors worth walking to the next replica for: connection-shaped
    /// transport failures plus timeouts. Same-node re-sends stay
    /// restricted to [`RetryPolicy::is_retryable`]; failover is wider
    /// because the *next* node is a different bet entirely.
    fn failover_worthy(e: &WaveError) -> bool {
        RetryPolicy::is_retryable(e) || matches!(e, WaveError::Timeout { .. })
    }

    /// Make sure `node` has a live connection, dialing it if needed. A
    /// connection the server has already closed is dropped first, so a
    /// node that died while idle fails here, before anything is sent.
    /// After a fresh dial, every key the node is behind on is synced
    /// (anti-entropy); until its sync lands, the node serves none of
    /// them.
    fn connect(&mut self, node: usize) -> Result<(), WaveError> {
        if self.conns[node].as_ref().is_some_and(Client::peer_closed) {
            self.conns[node] = None;
        }
        if self.conns[node].is_some() {
            return Ok(());
        }
        let conn = Client::connect_with(
            self.nodes[node],
            self.cfg.client.clone(),
            Arc::clone(&self.rec),
        )?;
        self.conns[node] = Some(conn);
        if !std::mem::replace(&mut self.catching_up, true) {
            let behind: Vec<u64> = self.pending[node].iter().copied().collect();
            for key in behind {
                if self.sync(key).is_ok() && !self.pending[node].contains(&key) {
                    self.rec.incr(MetricId::ClusterAntiEntropyMerges, 1);
                }
            }
            self.catching_up = false;
        }
        if self.conns[node].is_none() {
            return Err(no_replica());
        }
        Ok(())
    }

    /// Run `req` on `node`'s connection, dialing it first. A
    /// failover-worthy error drops the connection.
    fn call<T>(
        &mut self,
        node: usize,
        req: impl FnOnce(&mut Client) -> Result<T, WaveError>,
    ) -> Result<T, WaveError> {
        self.connect(node)?;
        let conn = self.conns[node].as_mut().ok_or_else(no_replica)?;
        let res = req(conn);
        if res.as_ref().is_err_and(Self::failover_worthy) {
            self.conns[node] = None;
        }
        res
    }

    /// Run `req` on the key's first reachable replica that is not
    /// behind on it, in ring order, returning that node and the answer.
    /// A replica whose dial fails is walked past; so is one whose `req`
    /// fails on the transport, if `walk_after_send`. Every other
    /// outcome is returned as it is.
    fn first_current<T>(
        &mut self,
        key: u64,
        walk_after_send: bool,
        mut req: impl FnMut(&mut Client) -> Result<T, WaveError>,
    ) -> Result<(usize, T), WaveError> {
        let mut walked = false;
        for node in self.replicas_of(key) {
            if self.pending[node].contains(&key) {
                continue;
            }
            if walked {
                self.rec.incr(MetricId::ClusterFailovers, 1);
            }
            if self.connect(node).is_err() {
                walked = true;
                continue;
            }
            match self.call(node, &mut req) {
                Err(e) if walk_after_send && Self::failover_worthy(&e) => walked = true,
                res => return res.map(|answer| (node, answer)),
            }
        }
        Err(no_replica())
    }

    /// Bring the key's replicas up to the bytes its first reachable
    /// current replica holds: FETCH them there and install them on
    /// every other replica, clearing the mark on each that takes them.
    /// Returns the number of installs acknowledged.
    fn sync(&mut self, key: u64) -> Result<usize, WaveError> {
        let (source, (kind, bytes)) = self.first_current(key, true, |c| c.fetch(key))?;
        let mut installed = 0;
        for node in self.replicas_of(key) {
            if node == source {
                continue;
            }
            let t0 = self.rec.enabled().then(Instant::now);
            if self
                .call(node, |c| c.replicate(key, kind, bytes.clone()))
                .is_ok()
            {
                self.rec.incr(MetricId::ClusterReplicationsShipped, 1);
                if let Some(t0) = t0 {
                    self.rec
                        .observe(HistId::ClusterReplicaLagNs, t0.elapsed().as_nanos() as u64);
                }
                self.pending[node].remove(&key);
                installed += 1;
            }
        }
        Ok(installed)
    }

    /// Ingest the key's next bits on its first reachable replica that
    /// is not behind on it — the primary while it answers. Once that
    /// replica acknowledges, every other replica of the key is marked
    /// behind until a sync. Moves to the next replica only when a dial
    /// fails; an error after the INGEST was sent (a refusal, or a
    /// transport failure whose outcome is unknown) is returned as it
    /// is. A refused batch reaches no replica.
    pub fn ingest(&mut self, key: u64, bits: impl Into<Bits>) -> Result<(), WaveError> {
        let bits: Bits = bits.into();
        let (node, ()) = self.first_current(key, false, |c| {
            c.ingest(IngestRequest::of(key, bits.clone()))
        })?;
        self.written.insert(key);
        for other in self.replicas_of(key) {
            if other != node {
                self.pending[other].insert(key);
            }
        }
        Ok(())
    }

    /// One replication round: every key this client wrote is synced
    /// from its first reachable current replica to the others.
    /// Unreachable replicas stay marked for anti-entropy; the round
    /// itself never fails. Returns the number of installs acknowledged.
    pub fn replicate_all(&mut self) -> usize {
        let keys: Vec<u64> = self.written.iter().copied().collect();
        keys.into_iter()
            .map(|key| self.sync(key).unwrap_or(0))
            .sum()
    }

    /// Window query on the key's first reachable replica that is not
    /// behind on it, walking on after transport failures. Counts one
    /// `cluster_failovers_total` tick per node walked past.
    pub fn query(&mut self, key: u64, window: u64) -> Result<Estimate, WaveError> {
        self.first_current(key, true, |c| c.query(key, window))
            .map(|(_, est)| est)
    }

    /// Cluster-wide total over every key this client wrote: each key is
    /// queried with failover and the per-key estimates — disjoint
    /// substreams — combine additively through
    /// [`waves_distributed::combine_checked`], which refuses a total
    /// past `u64`.
    pub fn combined_total(&mut self, window: u64) -> Result<Estimate, WaveError> {
        let keys: Vec<u64> = self.written.iter().copied().collect();
        let mut parts = Vec::with_capacity(keys.len());
        for key in keys {
            parts.push(self.query(key, window)?);
        }
        combine_checked(parts)
    }
}

/// The walk ended without an answer: every replica that is not behind
/// on the key failed, or none is left.
fn no_replica() -> WaveError {
    WaveError::io(std::io::Error::new(
        std::io::ErrorKind::NotConnected,
        "no replica answered",
    ))
}
