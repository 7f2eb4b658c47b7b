//! The serving engine must be a transparent container: for every key,
//! querying the engine equals querying a single-threaded synopsis fed
//! the same bits in the same order — sharding, batching, and channels
//! must not change a single answer.
//!
//! Scenarios are driven through the shared `waves::dst` schedule
//! builder: the simulator checks every answer against the exact
//! ring-buffer oracle, a shadow `DetWave`, and the EH baseline, and a
//! violation panics with the schedule seed so the failure replays
//! exactly — no bespoke RNG plumbing in this file.

use std::collections::HashMap;
use waves::dst::{run, RunReport, Schedule, Step};

/// Run a schedule, panicking with the replay seed on any violation.
fn check(sched: &Schedule) -> RunReport {
    run(sched).unwrap_or_else(|v| {
        panic!(
            "{v}\nreplay: rebuild with Schedule::builder({}) exactly as this test does",
            sched.seed
        )
    })
}

#[test]
fn engine_matches_per_key_oracles_under_skewed_multishard_workload() {
    // Skewed workload over 4 shards: hot keys see many interleaved
    // batches, cold keys few — both paths must agree with the oracle
    // at every queried window, and untouched keys must stay UnknownKey
    // (query_all stretches past the ingested key space inside the sim).
    let mut b = Schedule::builder(99)
        .num_keys(300)
        .num_shards(4)
        .max_window(256)
        .eps(0.2);
    for _ in 0..40 {
        b = b.ingest_random(128);
    }
    b = b.flush().snapshot().query_all();
    for key in 0..300u64 {
        b = b.query(key, 1).query(key, 256 / 3);
    }
    let sched = b.build();
    let report = check(&sched);
    assert!(
        report.checks >= 900,
        "only {} oracle checks ran",
        report.checks
    );
}

#[test]
fn engine_matches_its_per_bit_shadow_on_dense_half_window_batches() {
    // 2048-bit batches at density 0.5 into a 4096-bit window at k = 20:
    // the shard workers' `push_words` passes over most of each batch's
    // 1s, while the simulator's shadow wave takes the same bits one
    // `push_bit` or zero run at a time. Four windows of them, so every
    // batch after the second evicts and expires its predecessors'
    // entries; queried between batches, not only at the end.
    use waves::streamgen::{Bernoulli, BitSource};
    let (keys, window) = (6u64, 4096u64);
    let mut src = Bernoulli::new(0.5, 2048);
    let mut b = Schedule::builder(2048)
        .num_keys(keys)
        .num_shards(3)
        .max_window(window)
        .eps(0.05);
    for round in 0..8u64 {
        let len = 2048 + 64 * round as usize + round as usize % 3;
        b = b.ingest((0..keys).map(|key| (key, src.take_bits(len))).collect());
        for key in 0..keys {
            b = b.query(key, window).query(key, window / 3 + round);
        }
    }
    let report = check(&b.flush().query_all().build());
    assert!(
        report.checks >= 100,
        "only {} oracle checks ran",
        report.checks
    );
}

#[test]
fn engine_survives_interleaved_operations_from_seed_derived_steps() {
    // Seed-derived step soup (ingests, queries, flushes, snapshots,
    // restarts) over 3 shards: the generator's weights exercise the
    // paths a scripted scenario misses.
    let sched = Schedule::builder(4242)
        .num_keys(24)
        .num_shards(3)
        .max_window(128)
        .eps(0.25)
        .random_steps(80)
        .flush()
        .query_all()
        .build();
    let report = check(&sched);
    assert!(report.checks > 0, "schedule ran no oracle checks");
}

/// An engine hosting `EhCount` synopses (instead of the default
/// `DetWave`) must equal a single-threaded EH fed the same bits. The
/// workload is extracted from a schedule so the seed is the only
/// source of randomness.
#[test]
fn eh_engine_matches_eh_oracle_on_schedule_workload() {
    let (window, eps) = (128u64, 0.25f64);
    let mut b = Schedule::builder(7)
        .num_keys(64)
        .max_window(window)
        .eps(eps);
    for _ in 0..30 {
        b = b.ingest_random(64);
    }
    let sched = b.build();

    let cfg = waves::EngineConfig::builder()
        .num_shards(3)
        .max_window(window)
        .eps(eps)
        .build();
    let engine = waves::Engine::with_factory(
        cfg,
        move || waves::EhCount::new(window, eps),
        std::sync::Arc::new(waves::obs::NoopRecorder),
    )
    .unwrap();
    let mut oracles: HashMap<u64, waves::EhCount> = HashMap::new();
    for step in &sched.steps {
        let Step::Ingest { batch, .. } = step else {
            continue;
        };
        for (key, bits) in batch {
            let oracle = oracles
                .entry(*key)
                .or_insert_with(|| waves::EhCount::new(window, eps).unwrap());
            for &bit in bits {
                oracle.push_bit(bit);
            }
        }
        let packed: Vec<_> = batch
            .iter()
            .map(|(k, bits)| (*k, waves::Bits::from_bools(bits)))
            .collect();
        engine
            .ingest(waves::IngestRequest::batch(packed).blocking(true))
            .unwrap();
    }
    engine.flush();

    assert!(!oracles.is_empty(), "schedule ingested nothing");
    for (key, oracle) in &oracles {
        assert_eq!(
            engine.query(*key, window).unwrap(),
            oracle.query(window).unwrap(),
            "key={key} (schedule seed {})",
            sched.seed
        );
    }
}
