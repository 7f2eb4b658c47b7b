//! # waves
//!
//! A full implementation of **Gibbons & Tirthapura, "Distributed Streams
//! Algorithms for Sliding Windows" (SPAA 2002 / TOCS 2004)**: the *wave*
//! family of synopsis data structures for estimating aggregates over the
//! `N` most recent items of one or many data streams in polylogarithmic
//! space.
//!
//! This crate is the facade: it re-exports the public API of the
//! workspace crates so downstream users need a single dependency.
//!
//! ## What's inside
//!
//! | Problem | Type | Guarantee |
//! |---|---|---|
//! | 1's in a sliding window (single stream) | [`DetWave`] | `eps` rel. error, O(1) worst-case/item, O(1) query |
//! | Sum of ints in `[0..R]` in a window | [`SumWave`] | `eps` rel. error, O(1) worst-case/item |
//! | Windows over timestamped items | [`TimestampWave`] | Corollary 1 |
//! | Position of the n-th most recent 1 | [`NthRecentWave`] | `eps` on the age |
//! | Sliding average | [`SlidingAverage`] | `eps` via sum/count composition |
//! | 1's in a window of a **union of distributed streams** | [`UnionParty`] + [`Referee`] | `(eps, delta)`, space independent of `t` |
//! | Distinct values in a window of distributed streams | [`DistinctParty`] + [`Referee`] | `(eps, delta)` |
//! | Exponential-histogram baselines (Datar et al.) | [`EhCount`], [`EhSum`] | `eps`, O(1) *amortized*/item |
//! | Boosted basic counting baseline (Xu et al.) | [`XuCount`] | `eps`, O(1) worst-case/item |
//! | Continuously valid monitoring over distributed streams | [`PushParty`] + [`MonitorReferee`] | ε-split push deltas, bounded staleness |
//! | Many keyed windows served concurrently | [`Engine`] | sharded threads, batched ingest, backpressure |
//!
//! ## Quick start
//!
//! ```
//! use waves::DetWave;
//!
//! // Track how many of the last 10_000 requests were errors, within 5%.
//! let mut errors = DetWave::new(10_000, 0.05).unwrap();
//! for i in 0..100_000u64 {
//!     errors.push_bit(i % 50 == 0); // one error every 50 requests
//! }
//! let est = errors.query_max();
//! assert!(est.relative_error(200) <= 0.05); // 10_000 / 50 = 200
//! ```
//!
//! Serving one window per key (per user, per flow, ...) from a shared
//! engine:
//!
//! ```
//! use waves::{Engine, EngineConfig, IngestRequest};
//!
//! let cfg = EngineConfig::builder().num_shards(2).max_window(1_000).eps(0.1).build();
//! let engine = Engine::new(cfg).unwrap();
//! engine.ingest(IngestRequest::of(7, [true, false, true]).blocking(true)).unwrap();
//! engine.flush();
//! assert_eq!(engine.query(7, 1_000).unwrap().value, 2.0);
//! ```
//!
//! Distributed union counting:
//!
//! ```
//! use rand::SeedableRng;
//! use waves::{estimate, RandConfig, Referee, UnionParty};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // Stored coins: sample once, share with every party and the referee.
//! let cfg = RandConfig::for_positions(1_000, 0.2, 0.05, &mut rng).unwrap();
//! let mut site_a = UnionParty::new(&cfg);
//! let mut site_b = UnionParty::new(&cfg);
//! for i in 0..5_000u64 {
//!     site_a.push(i % 4 == 0);
//!     site_b.push(i % 6 == 0);
//! }
//! let referee = Referee::new(cfg);
//! let est = estimate(&referee, &[site_a, site_b], 1_000).unwrap();
//! let actual = 333.0; // |{i : 4|i or 6|i}| in any 1000-aligned window
//! assert!((est - actual).abs() / actual < 0.2);
//! ```

pub use waves_core::{
    average, basic_wave, bits, chain, codec, decay, det_wave, error, estimate, exact, histogram,
    level, nth_recent, space, sum_wave, timestamp, timestamp_sum, traits, window,
};
pub use waves_core::{
    decayed_sum, ratio_error_target, ratio_estimate, BasicWave, BitSynopsis, Bits, Decay,
    DecayedEstimate, DetWave, Estimate, ExactCount, ExactDistinct, ExactSum, ModRing,
    NthRecentWave, RatioEstimate, SlidingAverage, SpaceReport, SumWave, Synopsis, TimestampSumWave,
    TimestampWave, WaveError, WindowedHistogram,
};

pub use waves_eh::{EhCount, EhSum, XuCount};

pub use waves_engine::{
    Engine, EngineConfig, EngineConfigBuilder, EngineSnapshot, IngestRequest, KeyedBits,
    PersistConfig, ShardSnapshot, SyncPolicy,
};

pub use waves_gf2::{Gf2Field, LevelHash};

pub use waves_rand::{
    combine_instance, estimate, instances_for, median, DistinctParty, DistinctWave, Element,
    InstanceReport, Message, Party, PartyMessage, RandConfig, Referee, Report, UnionParty,
    UnionWave, Wave, PAPER_C,
};

pub use waves_distributed::{
    combine_estimates, coord_distinct_estimate, coord_union_estimate, det_combine, run_threaded,
    CommStats, CoordDistinctParty, CoordSampleParty, DetCombine, MonitorConfig, MonitorDelta,
    MonitorReferee, PartyComm, PushParty, Scenario1Count, Scenario1Sum, Scenario2Count,
    Scenario3PositionwiseSum, ThreadedRun,
};

/// Networked transport: wire protocol, TCP server/client, networked
/// referee, and fault-injection proxy (re-export of `waves-net`).
pub mod net {
    pub use waves_net::*;
}

/// Observability: counters, latency histograms, event sinks
/// (re-export of the zero-dependency `waves-obs` crate).
pub mod obs {
    pub use waves_obs::*;
}

/// Clustering: consistent-hash routing over several `waves-net`
/// servers, primary/follower synopsis replication, anti-entropy, and
/// failover (re-export of `waves-cluster`).
pub mod cluster {
    pub use waves_cluster::*;
}

/// Durability: per-shard write-ahead log, checkpoints, and crash
/// recovery (re-export of `waves-store`). Most users only need
/// [`EngineConfigBuilder::persist`](crate::EngineConfigBuilder::persist);
/// this module exposes the raw store for tools and tests.
pub mod store {
    pub use waves_store::*;
}

/// Workload generators used by the examples, tests, and experiments.
pub mod streamgen {
    pub use waves_streamgen::*;
}

/// Deterministic simulation testing: seed-replayable fault schedules
/// driving the full engine + net + store stack against exact and EH
/// oracles (re-export of `waves-dst`). Replay a failure with
/// `waves dst --seed <n>`.
pub mod dst {
    pub use waves_dst::*;
}
