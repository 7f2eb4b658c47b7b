//! Experiment implementations, one module per DESIGN.md entry.

pub mod ablations;
pub mod cluster_scaling;
pub mod det_error;
pub mod distinct;
pub mod dst_soak;
pub mod engine_scaling;
pub mod extensions;
pub mod figures;
pub mod hash;
pub mod latency;
pub mod lower_bound;
pub mod net_concurrency;
pub mod obs_overhead;
pub mod persistence;
pub mod push_pull;
pub mod scaling;
pub mod scenarios;
pub mod space;
pub mod sum;
pub mod union;
pub mod word_ingest;

/// Dispatch an experiment by id. Returns false for an unknown id.
pub fn run(id: &str) -> bool {
    match id {
        "fig2" => figures::fig2(),
        "fig3" => figures::fig3(),
        "det-error" => det_error::run(),
        "latency" => latency::run(),
        "space" => space::run(),
        "sum" => sum::run(),
        "lower-bound" => lower_bound::run(),
        "union" => union::run(),
        "distinct" => distinct::run(),
        "predicates" => distinct::predicates(),
        "nth-recent" => extensions::nth_recent(),
        "average" => extensions::average(),
        "histogram" => extensions::histogram(),
        "scenarios" => scenarios::run(),
        "scaling" => scaling::run(),
        "hash" => hash::run(),
        "ablate-levels" => ablations::levels(),
        "ablate-c" => ablations::queue_constant(),
        "ablate-estimator" => ablations::estimator(),
        "coordinated" => ablations::coordinated(),
        "obs-overhead" => obs_overhead::run(),
        "engine-scaling" => engine_scaling::run(),
        "net-concurrency" => net_concurrency::run(),
        "persistence" => persistence::run(),
        "dst-soak" => dst_soak::run(),
        "word-ingest" => word_ingest::run(),
        "cluster-scaling" => cluster_scaling::run(),
        "push-vs-pull" => push_pull::run(),
        _ => return false,
    }
    true
}
