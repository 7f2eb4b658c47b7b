//! Replay identity and shrinker soundness for the deterministic
//! simulation harness (`waves-dst`).
//!
//! The harness's whole value rests on two properties: a seed is a
//! complete description of a run (same seed ⇒ bit-identical trace), and
//! a minimized failing schedule is still a failing schedule. Both are
//! pinned here; `waves dst --seed <n>` relies on the first, the
//! `DST FAILURE` shrink output on the second.

use proptest::prelude::*;
use waves::dst::{run, run_or_minimize, run_seed, Schedule, Step};

/// Same seed, run twice: identical trace, line for line, hash for hash.
/// This is the property that makes `waves dst --seed <n>` a *replay*
/// rather than a rerun — faults, restarts, and WAL cuts included.
#[test]
fn trace_is_a_pure_function_of_the_seed() {
    for seed in 0..10u64 {
        let a = run_seed(seed).unwrap_or_else(|v| panic!("{v}"));
        let b = run_seed(seed).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(
            a.trace_hash, b.trace_hash,
            "seed {seed}: trace hash diverged"
        );
        assert_eq!(a.trace, b.trace, "seed {seed}: trace lines diverged");
        assert!(a.checks > 0, "seed {seed}: ran no oracle checks");
    }
}

/// Schedule generation never consults ambient state: equal seeds give
/// equal schedules, different seeds (overwhelmingly) different ones.
#[test]
fn schedule_generation_is_pure() {
    for seed in 0..50u64 {
        assert_eq!(Schedule::from_seed(seed), Schedule::from_seed(seed));
    }
    let distinct: std::collections::HashSet<u64> = (0..50)
        .map(|s| {
            let sched = Schedule::from_seed(s);
            sched.steps.len() as u64 ^ (sched.cfg.max_window << 8)
        })
        .collect();
    assert!(
        distinct.len() > 10,
        "seeds produce near-identical schedules"
    );
}

/// On a passing schedule, the minimizing front-end is an identity
/// wrapper around `run`.
#[test]
fn run_or_minimize_agrees_with_run_on_passing_seeds() {
    for seed in [0u64, 1, 2] {
        let sched = Schedule::from_seed(seed);
        let direct = run(&sched).unwrap_or_else(|v| panic!("{v}"));
        let wrapped = run_or_minimize(&sched).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(direct.trace_hash, wrapped.trace_hash);
    }
}

/// Trace hashes pinned against the current harness: any change to the
/// schedule generator, the ingest encoding, or the trace format shows
/// up here as a hash mismatch and must be a deliberate re-pin.
#[test]
fn pinned_trace_hashes_for_known_seeds() {
    const PINNED: &[(u64, u64)] = &[
        (0, 0x3e2a_7bb5_4987_a936),
        (1, 0xf4d3_df8a_5673_3f99),
        (2, 0x8b02_9a0d_5e1a_f10f),
        (3, 0xf1a5_084b_11ba_be0e),
        (4, 0x8db0_4a58_a067_112b),
    ];
    for &(seed, want) in PINNED {
        let report = run_seed(seed).unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(
            report.trace_hash, want,
            "seed {seed}: trace hash {:#018x} != pinned {want:#018x}",
            report.trace_hash
        );
    }
}

/// Seed-derived schedules actually reach the cluster backend and all
/// three node-fault kinds, so the soak genuinely exercises routing,
/// replication, failover, and post-rejoin anti-entropy.
#[test]
fn generated_schedules_cover_cluster_faults() {
    let (mut clusters, mut kills, mut partitions, mut rejoins) = (0u32, 0u32, 0u32, 0u32);
    for seed in 0..200u64 {
        let s = Schedule::from_seed(seed);
        if s.cfg.cluster_nodes > 0 {
            clusters += 1;
        }
        for step in &s.steps {
            match step {
                Step::NodeKill { .. } => kills += 1,
                Step::Partition { .. } => partitions += 1,
                Step::Rejoin { .. } => rejoins += 1,
                _ => {}
            }
        }
    }
    assert!(
        clusters >= 20,
        "only {clusters}/200 seeds run the cluster backend"
    );
    assert!(kills > 0, "no seed killed a node");
    assert!(partitions > 0, "no seed partitioned a node");
    assert!(rejoins > 0, "no seed rejoined a node");
}

/// Seed-derived schedules actually attach the continuous-monitoring
/// overlay and exercise both its step kinds, so the soak genuinely
/// checks push-mode answers against the pull referee and the slack
/// contract.
#[test]
fn generated_schedules_cover_monitor_arms() {
    let (mut monitors, mut pushes, mut queries) = (0u32, 0u32, 0u32);
    for seed in 0..200u64 {
        let s = Schedule::from_seed(seed);
        if s.cfg.monitor_parties > 0 {
            monitors += 1;
        }
        for step in &s.steps {
            match step {
                Step::MonitorPush { .. } => pushes += 1,
                Step::MonitorQuery => queries += 1,
                _ => {}
            }
        }
    }
    assert!(
        monitors >= 20,
        "only {monitors}/200 seeds attach the monitor overlay"
    );
    assert!(pushes > 0, "no seed pushed monitor bits");
    assert!(queries > 0, "no seed checked the continuous answer");
}

#[test]
fn replay_hint_names_the_seed() {
    let sched = Schedule::from_seed(77);
    assert!(sched.replay_hint().contains("--seed 77"));
}

fn count_ingests(steps: &[Step]) -> usize {
    steps
        .iter()
        .filter(|s| matches!(s, Step::Ingest { .. }))
        .count()
}

fn has_query_after_ingest(steps: &[Step]) -> bool {
    let mut seen_ingest = false;
    for s in steps {
        match s {
            Step::Ingest { .. } => seen_ingest = true,
            Step::Query { .. } if seen_ingest => return true,
            _ => {}
        }
    }
    false
}

/// `shrunk` must be an order-preserving subsequence of `orig` — the
/// shrinker may only delete steps, never reorder or invent them.
fn is_subsequence(shrunk: &[Step], orig: &[Step]) -> bool {
    let mut it = orig.iter();
    shrunk.iter().all(|s| it.any(|o| o == s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shrinker soundness on real generated schedules: for any failure
    /// predicate over the step vector, the shrunk schedule still fails,
    /// is a subsequence of the original, and is 1-minimal (removing any
    /// single remaining step makes it pass).
    #[test]
    fn shrunk_failing_schedule_still_fails(seed in 0u64..5000, k in 1usize..4) {
        let sched = Schedule::from_seed(seed);
        let fails = |steps: &[Step]| count_ingests(steps) >= k;
        if fails(&sched.steps) {
            let shrunk = shrink_elements(&sched.steps, fails);
            prop_assert!(fails(&shrunk), "shrunk schedule no longer fails");
            prop_assert!(is_subsequence(&shrunk, &sched.steps));
            for i in 0..shrunk.len() {
                let mut fewer = shrunk.clone();
                fewer.remove(i);
                prop_assert!(!fails(&fewer), "not 1-minimal: step {i} removable");
            }
        }
    }

    /// Same, for an order-sensitive predicate — deletion must preserve
    /// relative order or this cannot stay failing.
    #[test]
    fn shrinking_preserves_step_order(seed in 0u64..5000) {
        let sched = Schedule::from_seed(seed);
        if has_query_after_ingest(&sched.steps) {
            let shrunk = shrink_elements(&sched.steps, has_query_after_ingest);
            prop_assert!(has_query_after_ingest(&shrunk));
            prop_assert!(is_subsequence(&shrunk, &sched.steps));
            prop_assert_eq!(shrunk.len(), 2, "minimal witness is one ingest + one query");
        }
    }
}
