// Experiments iterate several parallel streams in lockstep; indexed loops
// are the clearest expression of that.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]

//! `waves-bench`: the experiment harness.
//!
//! One module per experiment from DESIGN.md's per-experiment index; the
//! `experiments` binary dispatches on the experiment id. Criterion
//! benchmarks (in `benches/`) cover the statistical timing claims; the
//! modules here cover error, space, scaling, worst-case latency tails,
//! and the worked figures.

pub mod experiments;
pub mod table;
pub mod timing;
pub mod verdict;

/// All experiment ids in DESIGN.md order, with a one-line description.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    (
        "fig2",
        "E1: Figure 1+2 worked example (basic wave, x-hat = 23)",
    ),
    ("fig3", "E2: Figure 3 optimal wave level contents"),
    ("det-error", "E3: Theorem 1 error sweep (eps, N, workloads)"),
    ("latency", "E4: per-item worst-case latency, wave vs EH"),
    ("space", "E5: space vs bounds (Thm 1, Thm 2 lower bound)"),
    ("sum", "E6: Theorem 3 sum wave error/space vs EH-sum"),
    (
        "lower-bound",
        "E7: Theorem 4 demonstration (collision + combine rules)",
    ),
    (
        "union",
        "E8: Theorem 5 randomized union counting (eps, delta, t)",
    ),
    ("distinct", "E9: Theorem 6 distinct values in windows"),
    (
        "predicates",
        "E10: predicate queries on the distinct sample",
    ),
    ("nth-recent", "E11: n-th most recent 1"),
    ("average", "E12: sliding average composition"),
    (
        "histogram",
        "E16: windowed histogramming + certified quantiles",
    ),
    ("scenarios", "E13: deterministic distributed scenarios 1-2"),
    ("scaling", "E14: query cost scaling in t, eps, delta"),
    (
        "hash",
        "E15: level-hash distribution and pairwise independence",
    ),
    (
        "ablate-levels",
        "A1: store-at-max-level vs store-at-all-levels",
    ),
    ("ablate-c", "A2: queue constant c vs empirical error"),
    ("ablate-estimator", "A4: midpoint vs endpoint estimators"),
    (
        "coordinated",
        "A5: coordinated sampling [18] vs waves on windows",
    ),
    (
        "obs-overhead",
        "E17: observability cost on the push hot path (noop span guard <= 2%)",
    ),
    (
        "engine-scaling",
        "E18: serving-engine ingest scaling (shards x keys x batch)",
    ),
    (
        "persistence",
        "E20: WAL cost per sync policy + recovery time vs log length",
    ),
    (
        "dst-soak",
        "E21: deterministic-simulation soak over seed-derived fault schedules",
    ),
    (
        "word-ingest",
        "E22: word-packed ingest pipeline vs the bool-slice path",
    ),
    (
        "cluster-scaling",
        "E23: cluster ingest scaling across loopback nodes + replication agreement",
    ),
    (
        "net-concurrency",
        "E24: p99 request latency vs 10..10k concurrent loopback connections",
    ),
];

#[cfg(test)]
mod tests {
    #[test]
    fn experiment_ids_unique() {
        let mut ids: Vec<&str> = super::EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), super::EXPERIMENTS.len());
    }
}
