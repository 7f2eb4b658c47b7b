//! Mutation smoke test: proves the DST harness has teeth.
//!
//! Built only under `RUSTFLAGS="--cfg dst_mutation"`, which arms two
//! planted bugs at once: an off-by-one in wave expiry (entries expire
//! one stream position early — see `Ladder::advance` in
//! `crates/core/src/ladder.rs`) and an off-by-one in the monitor's
//! slack accounting (`PushParty::settle` ships one unit of drift too
//! late — see `crates/distributed/src/monitor.rs`). The harness must
//! catch a mutant — the expiry one against the exact oracle, the slack
//! one against the per-party drift budget — within 200 seeds and
//! shrink the failing schedule to at most a quarter of its length:
//!
//! ```text
//! RUSTFLAGS="--cfg dst_mutation" cargo test -p waves --test dst_mutation
//! ```
//!
//! In a normal build this file compiles to an empty test target.
#![cfg(dst_mutation)]

use waves::dst::{run, run_or_minimize, Schedule};

#[test]
fn planted_mutations_are_caught_within_200_seeds() {
    for seed in 0..200u64 {
        let sched = Schedule::from_seed(seed);
        let fail = match run_or_minimize(&sched) {
            Ok(_) => continue,
            Err(fail) => fail,
        };
        println!("mutant caught: {fail}");
        assert!(
            !fail.minimized.steps.is_empty(),
            "minimized schedule shrunk to nothing yet claims to fail"
        );
        assert!(
            fail.minimized.steps.len() * 4 <= sched.steps.len(),
            "shrinker too weak: {} of {} steps survive minimization",
            fail.minimized.steps.len(),
            sched.steps.len()
        );
        // The minimized schedule is itself a failing repro, not just a
        // souvenir of one.
        assert!(run(&fail.minimized).is_err(), "minimized schedule passes");
        return;
    }
    panic!("planted mutations survived 200 seeds");
}

/// Isolates the slack mutant from the expiry one: a short monitor-only
/// schedule in which nothing ever comes close to expiring (one bit into
/// a 64-wide window), so the expiry mutant cannot contribute. The party
/// budget is 0.8 < 1, so the very first 1-bit drives drift to 1 and
/// must ship; the armed `settle` compares against budget+1 and keeps
/// it, which the per-party drift oracle flags immediately.
#[test]
fn planted_slack_mutation_is_caught_by_the_drift_oracle() {
    let sched = Schedule::builder(1)
        .max_window(64)
        .eps(0.1)
        .monitor(4, 0.5)
        .monitor_push(0, vec![true])
        .monitor_query()
        .build();
    assert!(
        run(&sched).is_err(),
        "slack mutant survived the drift oracle"
    );
}
