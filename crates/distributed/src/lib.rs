//! `waves-distributed`: the distributed-streams model as a runnable
//! substrate.
//!
//! The paper's model: `t` parties each observe their own stream with
//! limited workspace and communicate only when an estimate is requested,
//! by sending one message to a Referee (Section 2). This crate makes
//! that model concrete:
//!
//! * [`scenario`] — the three sliding-window definitions of Section 3.4
//!   (per-stream windows; a split logical stream; the positionwise
//!   union) with the deterministic waves driving Scenarios 1–2 and the
//!   strawman combine rules that Theorem 4 dooms for Scenario 3;
//! * [`runtime`] — the one-thread-per-party driver (std mpsc channels)
//!   for the randomized waves, Union Counting and distinct values alike;
//! * [`comm`] — query-time communication accounting;
//! * [`coordinated`] — the SPAA 2001 coordinated-sampling baseline
//!   (whole-stream union/distinct, no windows), kept for comparison
//!   experiments;
//! * [`monitor`] — the one count-path referee, [`MonitorReferee`]:
//!   a slot per party holding any of the four deterministic synopses
//!   ([`PartySynopsis`]), filled by pull-mode pushes and by the
//!   continuous-monitoring push mode (Chan–Lam–Lee–Ting), where parties
//!   ship deltas only when local drift crosses an ε-slack budget and
//!   the referee stays continuously valid within a staleness bound
//!   derived from the slack split. The `waves-net` server hosts this
//!   same referee behind its PUSH_SYNOPSIS, PUSH_DELTA and COMBINE
//!   frames.

pub mod comm;
pub mod coordinated;
pub mod monitor;
pub mod runtime;
pub mod scenario;

pub use comm::{combine_checked, combine_estimates, CommStats, PartyComm, ScalarReport};
pub use coordinated::{
    coord_distinct_estimate, coord_union_estimate, CoordDistinctParty, CoordSampleParty,
};
pub use monitor::{
    MonitorConfig, MonitorDelta, MonitorReferee, PartySynopsis, PushParty, SynopsisKind,
};
pub use runtime::{run_threaded, ThreadedRun};
pub use scenario::{
    det_combine, DetCombine, Scenario1Count, Scenario1Sum, Scenario2Count, Scenario3PositionwiseSum,
};
