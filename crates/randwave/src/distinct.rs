//! Distinct-values counting in sliding windows over distributed streams
//! (Section 5, Theorem 6).
//!
//! The randomized wave is re-targeted from positions to *values*: the
//! shared hash is applied to the value, each element is the pair
//! `(value, most recent position)`, and re-occurrences move the element
//! to the recent end of every level it belongs to. A value counts as
//! "in the window" when its most recent occurrence is. The structure is
//! the shared skeleton's; this file keeps the recency list that makes
//! "move to the recent end" O(1), and the global one that finds the
//! values leaving the window.
//!
//! Because the sample at the chosen level is a uniform (pairwise
//! independent) sample of the distinct values in the window, it also
//! answers *predicate* queries — "how many distinct values satisfy P?" —
//! for any predicate supplied at query time (the paper's "Handling
//! Predicates" extension, [`crate::Referee::estimate_predicate`]).

use crate::config::RandConfig;
use crate::referee::Party;
use crate::sample::{Queue, Sampler};
use crate::wave::{Report, Wave};
use std::collections::HashMap;
use waves_core::chain::Chain;
use waves_core::error::WaveError;

/// `(value, last position)` pairs in order of last position, head =
/// least recent, with the value -> chain node index that lets a
/// re-occurrence find its pair.
#[derive(Debug, Clone)]
struct Recency {
    map: HashMap<u64, u32>,
    chain: Chain<(u64, u64)>,
}

impl Recency {
    fn remove(&mut self, v: u64) {
        if let Some(id) = self.map.remove(&v) {
            self.chain.remove(id);
        }
    }
}

impl Queue for Recency {
    type Element = (u64, u64);

    fn with_capacity(cap: usize) -> Self {
        Recency {
            map: HashMap::with_capacity(cap + 1),
            chain: Chain::with_capacity(cap + 1),
        }
    }
    fn len(&self) -> usize {
        self.chain.len()
    }
    fn oldest(&self) -> Option<(u64, u64)> {
        self.chain.head().map(|id| *self.chain.get(id))
    }
    fn pop_oldest(&mut self) -> Option<(u64, u64)> {
        let e = self.oldest()?;
        self.remove(e.0);
        Some(e)
    }
    fn arrive(&mut self, e: (u64, u64)) -> bool {
        let stale = self.map.insert(e.0, self.chain.push_back(e));
        if let Some(id) = stale {
            self.chain.remove(id);
        }
        stale.is_none()
    }
    fn elements(&self) -> Vec<(u64, u64)> {
        self.chain.iter().map(|(_, &e)| e).collect()
    }
}

/// One distinct-values wave instance for one party's stream (see
/// [`RandConfig::for_values`]).
#[derive(Debug, Clone)]
pub struct DistinctWave {
    sample: Sampler<Recency>,
    /// Every value present in any level, for O(1) expiry.
    global: Recency,
}

/// A party for distinct counting: one [`DistinctWave`] per instance.
pub type DistinctParty = Party<DistinctWave>;

impl Wave for DistinctWave {
    type Item = u64;
    type Element = (u64, u64);

    fn new(config: &RandConfig, instance: usize) -> Self {
        DistinctWave {
            sample: Sampler::new(config, instance),
            global: Recency::with_capacity(16),
        }
    }
    /// Observe the next value.
    fn push(&mut self, v: u64) {
        self.advance();
        let e = (v, self.sample.pos());
        self.sample.insert(e, |hash, l, (v_old, _)| {
            // Values survive longest at their own top level; once
            // evicted there, they are gone everywhere.
            if l as u32 == hash.level(v_old) {
                self.global.remove(v_old);
            }
        });
        self.global.arrive(e);
    }
    fn advance(&mut self) {
        let global = &mut self.global;
        self.sample.advance(|left| {
            std::iter::from_fn(move || {
                global.oldest().filter(|e| e.1 <= left)?;
                global.pop_oldest()
            })
        });
    }
    fn pos(&self) -> u64 {
        self.sample.pos()
    }
    fn stored(&self) -> usize {
        self.sample.stored()
    }
    fn report(&self, n: u64) -> Result<Report<(u64, u64)>, WaveError> {
        self.sample.report(n)
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::{estimate, Referee};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waves_core::exact::ExactDistinct;
    use waves_streamgen::values::ValueSource;
    use waves_streamgen::{overlapping_value_streams, ZipfValues};

    fn cfg(n: u64, r: u64, eps: f64, m: usize, seed: u64) -> RandConfig {
        let mut rng = StdRng::seed_from_u64(seed);
        RandConfig::for_values(n, r, eps, 0.2, &mut rng)
            .unwrap()
            .with_instances(m, &mut rng)
    }

    #[test]
    fn exact_when_sample_fits() {
        // Few distinct values: level 0 never evicts, count is exact.
        let c = cfg(128, 1 << 10, 0.5, 1, 1);
        let mut p = DistinctParty::new(&c);
        for i in 0..128u64 {
            p.push(i % 10);
        }
        let referee = Referee::new(c);
        let est = estimate(&referee, &[p], 128).unwrap();
        assert_eq!(est, 10.0);
    }

    #[test]
    fn window_semantics_most_recent_occurrence() {
        let c = cfg(4, 1 << 8, 0.5, 1, 2);
        let mut p = DistinctParty::new(&c);
        for v in [1u64, 2, 3, 9, 9, 9, 9] {
            p.push(v);
        }
        // Window of last 4: only value 9 has a recent-enough occurrence.
        let referee = Referee::new(c);
        let est = estimate(&referee, &[p], 4).unwrap();
        assert_eq!(est, 1.0);
    }

    #[test]
    fn single_stream_error_bound_statistical() {
        let (n, r, eps) = (512u64, (1u64 << 12) - 1, 0.3);
        let c = cfg(n, r, eps, 9, 3);
        let mut p = DistinctParty::new(&c);
        let mut oracle = ExactDistinct::new(n);
        let mut gen = ZipfValues::new(r as usize + 1, 1.0, 99);
        for _ in 0..4000 {
            let v = gen.next_value();
            p.push(v);
            oracle.push_value(v);
        }
        let referee = Referee::new(c);
        let est = estimate(&referee, &[p], n).unwrap();
        let actual = oracle.query(n);
        let rel = (est - actual as f64).abs() / actual as f64;
        assert!(rel <= eps, "est {est} actual {actual}");
    }

    #[test]
    fn distributed_counts_union_of_distinct() {
        let (n, r, eps, t) = (512u64, 1u64 << 12, 0.3, 3usize);
        let c = cfg(n, r - 1, eps, 9, 4);
        let streams = overlapping_value_streams(t, 2000, r, 0.3, 55);
        let mut parties: Vec<DistinctParty> = (0..t).map(|_| DistinctParty::new(&c)).collect();
        for i in 0..2000 {
            for (j, p) in parties.iter_mut().enumerate() {
                p.push(streams[j][i]);
            }
        }
        // Truth: a value is in the window if its most recent occurrence
        // (across all parties, on the shared position axis) is.
        let s_start = 2000usize.saturating_sub(n as usize);
        let mut last: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for i in 0..2000 {
            for st in streams.iter() {
                last.insert(st[i], i);
            }
        }
        let actual = last.values().filter(|&&i| i >= s_start).count() as u64;
        let referee = Referee::new(c);
        let est = estimate(&referee, &parties, n).unwrap();
        let rel = (est - actual as f64).abs() / actual as f64;
        assert!(rel <= eps, "est {est} actual {actual}");
    }

    #[test]
    fn clock_only_advance_keeps_parties_on_one_axis() {
        // Party b observes a value at one position in three and only
        // advances its clock at the others. Few enough distinct values
        // that level 0 never evicts, so every answer is exact — against
        // an oracle that sees the same merged axis.
        let (n, c) = (64u64, cfg(64, 1023, 0.5, 3, 8));
        let (mut a, mut b) = (DistinctParty::new(&c), DistinctParty::new(&c));
        let (mut oracle_a, mut oracle_b) = (ExactDistinct::new(n), ExactDistinct::new(n));
        let referee = Referee::new(c);
        for i in 0..600u64 {
            a.push(i % 23);
            oracle_a.push_value(i % 23);
            if i % 3 == 0 {
                b.push(100 + (i / 3) % 31);
                oracle_b.push_value(100 + (i / 3) % 31);
            } else {
                b.advance();
                oracle_b.push_absent();
            }
            assert_eq!(b.pos(), a.pos());
            if i % 37 == 0 || i == 599 {
                for w in [n, 10] {
                    // The two parties' value sets are disjoint.
                    let actual = oracle_a.query(w) + oracle_b.query(w);
                    let est = estimate(&referee, &[a.clone(), b.clone()], w).unwrap();
                    assert_eq!(est, actual as f64, "pos {} window {w}", a.pos());
                }
            }
        }
    }

    #[test]
    fn predicate_queries() {
        let (n, r, eps) = (1024u64, (1u64 << 14) - 1, 0.3);
        let c = cfg(n, r, eps, 9, 5);
        let mut p = DistinctParty::new(&c);
        let mut oracle = ExactDistinct::new(n);
        let mut gen = ZipfValues::new(r as usize + 1, 0.5, 7);
        for _ in 0..3000 {
            let v = gen.next_value();
            p.push(v);
            oracle.push_value(v);
        }
        let referee = Referee::new(c);
        let msg = vec![p.message(n).unwrap()];
        let s = (p.pos() + 1).saturating_sub(n);
        let even = |v: u64| v.is_multiple_of(2);
        let est = referee.estimate_predicate(&msg, s, even);
        let actual = oracle.query_predicate(n, even);
        let rel = (est - actual as f64).abs() / actual as f64;
        // Selectivity ~1/2: guarantee degrades by ~1/alpha; allow 2*eps.
        assert!(rel <= 2.0 * eps, "est {est} actual {actual}");
    }

    #[test]
    fn expiry_keeps_memory_bounded() {
        let c = cfg(256, (1 << 16) - 1, 0.4, 1, 6);
        let cap = c.queue_capacity();
        let mut w = DistinctWave::new(&c, 0);
        for i in 0..50_000u64 {
            w.push(i % 7919);
        }
        assert!(w.stored() <= (c.degree() as usize + 1) * cap);
        // Global list only holds values still sampled somewhere.
        assert!(w.global.len() <= w.stored());
    }

    #[test]
    fn global_list_matches_level_membership() {
        // Invariant behind the O(1) expiry: a value is in the global
        // recency list iff it is present in some level (equivalently,
        // in its own top level — values survive longest there).
        let c = cfg(128, (1 << 10) - 1, 0.4, 1, 21);
        let mut w = DistinctWave::new(&c, 0);
        let mut x = 3u64;
        for step in 0..30_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            w.push((x >> 33) % 797);
            if step % 977 == 0 {
                let global: std::collections::HashSet<u64> = w.global.map.keys().copied().collect();
                let mut in_levels: std::collections::HashSet<u64> =
                    std::collections::HashSet::new();
                for l in &w.sample.levels {
                    in_levels.extend(l.queue.map.keys().copied());
                }
                assert_eq!(global, in_levels, "step {step}");
            }
        }
    }

    #[test]
    fn reoccurrence_updates_position_in_all_levels() {
        let c = cfg(64, 255, 0.5, 1, 7);
        let mut w = DistinctWave::new(&c, 0);
        w.push(42);
        for _ in 0..60 {
            w.push(7);
        }
        w.push(42); // refresh before expiry
        for _ in 0..30 {
            w.push(7);
        }
        // 42's most recent occurrence is within the window of 64.
        let s = w.sample.window_start(64).unwrap();
        let rep = w.report(64).unwrap();
        assert!(
            rep.elements.iter().any(|&(v, p)| v == 42 && p >= s),
            "{rep:?}"
        );
    }
}
