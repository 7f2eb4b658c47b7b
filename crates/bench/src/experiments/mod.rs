//! Experiment implementations, one module per DESIGN.md entry; the
//! table that names them is [`crate::EXPERIMENTS`].

pub mod ablations;
pub mod det_error;
pub mod distinct;
pub mod extensions;
pub mod figures;
pub mod hash;
pub mod latency;
pub mod lower_bound;
pub mod obs_overhead;
pub mod push_pull;
pub mod scaling;
pub mod scenarios;
pub mod space;
pub mod sum;
pub mod union;
