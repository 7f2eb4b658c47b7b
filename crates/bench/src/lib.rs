// Experiments iterate several parallel streams in lockstep; indexed loops
// are the clearest expression of that.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

//! `waves-bench`: the experiment harness.
//!
//! One module per experiment from DESIGN.md's per-experiment index, and
//! one table of them ([`EXPERIMENTS`]) that the `experiments` binary
//! both lists and dispatches through. An experiment's verdict is a
//! deterministic function of its seeds — errors, bits, bytes, counts,
//! structure: a theorem or a figure. Speed is the repo benchmark's job
//! (`benchmark/`, `BENCHMARK.json`); the one stopwatch kept here is
//! E17 `obs-overhead`, which prices something no benchmark row does.

pub mod experiments;
pub mod table;
pub mod verdict;

use experiments::*;

/// Every experiment in DESIGN.md order: id, one-line description, entry
/// point.
pub const EXPERIMENTS: &[(&str, &str, fn())] = &[
    (
        "fig2",
        "E1: Figure 1+2 worked example (basic wave, x-hat = 23)",
        figures::fig2,
    ),
    (
        "fig3",
        "E2: Figure 3 optimal wave level contents",
        figures::fig3,
    ),
    (
        "det-error",
        "E3: Theorem 1 error sweep (eps, N, workloads)",
        det_error::run,
    ),
    (
        "latency",
        "E4: per-item worst case, EH merge cascade vs the wave's one level",
        latency::run,
    ),
    (
        "space",
        "E5: space vs bounds (Thm 1, Thm 2 lower bound)",
        space::run,
    ),
    (
        "sum",
        "E6: Theorem 3 sum wave error/space vs EH-sum",
        sum::run,
    ),
    (
        "lower-bound",
        "E7: Theorem 4 demonstration (collision + combine rules)",
        lower_bound::run,
    ),
    (
        "union",
        "E8: Theorem 5 randomized union counting (eps, delta, t)",
        union::run,
    ),
    (
        "distinct",
        "E9: Theorem 6 distinct values in windows",
        distinct::run,
    ),
    (
        "predicates",
        "E10: predicate queries on the distinct sample",
        distinct::predicates,
    ),
    (
        "nth-recent",
        "E11: n-th most recent 1",
        extensions::nth_recent,
    ),
    (
        "average",
        "E12: sliding average composition",
        extensions::average,
    ),
    (
        "histogram",
        "E16: windowed histogramming + certified quantiles",
        extensions::histogram,
    ),
    (
        "scenarios",
        "E13: deterministic distributed scenarios 1-2",
        scenarios::run,
    ),
    (
        "scaling",
        "E14: query size scaling in t, eps, delta",
        scaling::run,
    ),
    (
        "hash",
        "E15: level-hash distribution and pairwise independence",
        hash::run,
    ),
    (
        "ablate-levels",
        "A1: store-at-max-level vs store-at-all-levels",
        ablations::levels,
    ),
    (
        "ablate-c",
        "A2: queue constant c vs empirical error",
        ablations::queue_constant,
    ),
    (
        "ablate-estimator",
        "A4: midpoint vs endpoint estimators",
        ablations::estimator,
    ),
    (
        "coordinated",
        "A5: coordinated sampling [18] vs waves on windows",
        ablations::coordinated,
    ),
    (
        "obs-overhead",
        "E17: observability cost on the push hot path (noop span guard <= 2%)",
        obs_overhead::run,
    ),
    (
        "push-vs-pull",
        "E25: bytes on the wire, push-mode monitoring vs per-query pull",
        push_pull::run,
    ),
];

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    #[test]
    fn experiment_ids_unique() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
        // One table: what `list` prints is what `all` and dispatch run.
        for id in ["push-vs-pull", "fig2", "obs-overhead"] {
            assert!(ids.binary_search(&id).is_ok(), "{id} is not listed");
        }
    }
}
