//! `waves-cluster`: consistent-hash routing, replicated synopsis
//! shipping, and failover over a set of `waves-net` servers.
//!
//! The paper's distributed-streams model has parties maintain mergeable
//! wave synopses and a referee combine them; `waves-net` put a network
//! between one client and one server. This crate scales that out to N
//! servers with nothing but the primitives the rest of the workspace
//! already proves:
//!
//! * [`Ring`] — a seeded consistent-hash ring (virtual nodes for
//!   balance). Placement is a pure function of `(seed, vnodes, node
//!   set, key)`, so independent clients route identically with zero
//!   coordination, and the deterministic simulator can replay a whole
//!   cluster schedule from a `u64`.
//! * [`ClusterClient`] — routes each key to R replicas: the primary
//!   takes the raw ingest stream, and followers install the bytes a
//!   current replica holds — FETCHed from it (wire v8) and shipped
//!   through the wire v5 `REPLICATE` frame, where an install older than
//!   the follower's state changes nothing. Reads and writes go to the
//!   key's first reachable replica that is not behind this client's
//!   acknowledged writes, or fail with a typed error; nodes that missed
//!   installs are caught up by anti-entropy on reconnect.
//!
//! Everything is std-only and blocking, like the rest of the workspace:
//! no async runtime, no consensus protocol. The client keeps no
//! synopsis — a wave's `encode()` captures its complete state, so the
//! bytes a replica serves are the replication source.

pub mod client;
pub mod ring;

pub use client::{ClusterClient, ClusterConfig};
pub use ring::Ring;
