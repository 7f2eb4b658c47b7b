//! E4: per-item worst case, wave vs exponential histogram.
//!
//! Theorem 1's headline: O(1) *worst-case* per item for the wave vs O(1)
//! amortized / O(log(eps N)) worst-case for the EH (cascading merges).
//! The measurement is structural, so it repeats exactly: the EH's
//! maximum merge-cascade length as N grows — it grows like log N —
//! against the wave's level lookups and stored entries per item, read
//! from a live [`MetricsRegistry`]. What a push costs in nanoseconds is
//! the repo benchmark's `core.push_ns_per_kitem`.

use crate::table::{f, Table};
use crate::verdict::word;
use waves_core::DetWave;
use waves_eh::EhCount;
use waves_obs::{MetricId, MetricsRegistry};

pub fn run() {
    println!("E4 — Theorem 1: per-item worst case, wave vs EH");
    println!("===============================================\n");

    println!("EH merge-cascade length vs N (all-ones stream, eps = 0.05):");
    let mut t = Table::new(&[
        "N",
        "EH max cascade",
        "EH merges/item",
        "wave level lookups/item",
        "wave entries stored/item",
    ]);
    let mut cascades = Vec::new();
    let mut one_level_per_item = true;
    for log_n in [8u32, 12, 16, 20] {
        let n = 1u64 << log_n;
        let steps = (2 * n).min(1 << 21);
        let mut eh = EhCount::new(n, 0.05).unwrap();
        let mut wave = DetWave::new(n, 0.05).unwrap();
        let reg = MetricsRegistry::new();
        for _ in 0..steps {
            eh.push_bit(true);
            wave.push_bit_recorded(true, &reg);
        }
        let ones = reg.counter(MetricId::WaveOnesTotal);
        let lookups = reg.counter(MetricId::WaveLevelOracleCalls);
        let stored = reg.counter(MetricId::WaveEntriesStored);
        one_level_per_item &= ones == steps && lookups == ones && stored == ones;
        cascades.push(eh.max_cascade());
        t.row(&[
            format!("2^{log_n}"),
            format!("{}", eh.max_cascade()),
            f(eh.merges() as f64 / steps as f64),
            f(lookups as f64 / ones as f64),
            f(stored as f64 / ones as f64),
        ]);
    }
    t.print();

    println!(
        "\nEH max cascade strictly increases with N (~log N) — {}",
        word(cascades.windows(2).all(|w| w[0] < w[1]))
    );
    println!(
        "wave: exactly one level lookup and one stored entry per item at every N — {}",
        word(one_level_per_item)
    );
}
