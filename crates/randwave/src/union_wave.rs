//! The randomized wave for Union Counting (Section 4, Figure 6).
//!
//! One `UnionWave` is a single instance: `d + 1` level queues, each
//! holding the `c/eps^2` most recent 1-positions hashed to that level or
//! above, so level `l` holds an expected `2^-l` fraction of the 1's. The
//! structure is the shared skeleton's; this file keeps what Union
//! Counting decides: the element is the position itself, in a plain
//! deque (8 bytes an element, no index by key: positions never recur),
//! and the one position that leaves the window at each step is `pos - N`.

use crate::config::RandConfig;
use crate::referee::Party;
use crate::sample::{Queue, Sampler};
use crate::wave::{Report, Wave};
use std::collections::VecDeque;
use waves_core::error::WaveError;

/// Front = oldest position.
impl Queue for VecDeque<u64> {
    type Element = u64;

    fn with_capacity(cap: usize) -> Self {
        VecDeque::with_capacity(cap + 1)
    }
    fn len(&self) -> usize {
        VecDeque::len(self)
    }
    fn oldest(&self) -> Option<u64> {
        self.front().copied()
    }
    fn pop_oldest(&mut self) -> Option<u64> {
        self.pop_front()
    }
    fn arrive(&mut self, p: u64) -> bool {
        self.push_back(p);
        true
    }
    fn elements(&self) -> Vec<u64> {
        self.iter().copied().collect()
    }
}

/// One randomized-wave instance for one party's bit stream.
#[derive(Debug, Clone)]
pub struct UnionWave(Sampler<VecDeque<u64>>);

/// A party for Union Counting: one [`UnionWave`] per instance.
pub type UnionParty = Party<UnionWave>;

/// A Union Counting party's report for one instance: 1-positions.
pub type InstanceReport = Report<u64>;

impl Wave for UnionWave {
    type Item = bool;
    type Element = u64;

    fn new(config: &RandConfig, instance: usize) -> Self {
        UnionWave(Sampler::new(config, instance))
    }
    /// Process the next stream bit (Figure 6, top).
    fn push(&mut self, b: bool) {
        self.advance();
        if b {
            self.0.insert(self.0.pos(), |_, _, _| {});
        }
    }
    fn advance(&mut self) {
        self.0.advance(std::iter::once);
    }
    fn pos(&self) -> u64 {
        self.0.pos()
    }
    fn stored(&self) -> usize {
        self.0.stored()
    }
    fn report(&self, n: u64) -> Result<InstanceReport, WaveError> {
        self.0.report(n)
    }
}

#[cfg(test)]
impl UnionWave {
    fn level_contents(&self, l: usize) -> (u64, Vec<u64>) {
        let level = &self.0.levels[l];
        (level.range_start, level.queue.elements())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(n: u64, eps: f64, seed: u64) -> RandConfig {
        let mut rng = StdRng::seed_from_u64(seed);
        RandConfig::for_positions(n, eps, 0.3, &mut rng)
            .unwrap()
            .with_instances(1, &mut rng)
    }

    #[test]
    fn level_zero_holds_most_recent_ones_exactly() {
        let cfg = config(1 << 10, 0.5, 1);
        let mut w = UnionWave::new(&cfg, 0);
        let mut ones = Vec::new();
        for i in 1..=500u64 {
            let b = i % 3 == 0;
            w.push(b);
            if b {
                ones.push(i);
            }
        }
        let (_, lv0) = w.level_contents(0);
        let tail: Vec<u64> = ones[ones.len() - lv0.len()..].to_vec();
        assert_eq!(lv0, tail, "level 0 = most recent selected (all) 1s");
    }

    #[test]
    fn range_start_nonincreasing_in_level() {
        let cfg = config(256, 0.4, 2);
        let mut w = UnionWave::new(&cfg, 0);
        for i in 0..5000u64 {
            w.push(i % 2 == 0);
        }
        let starts: Vec<u64> = (0..=cfg.degree() as usize)
            .map(|l| w.level_contents(l).0)
            .collect();
        assert!(starts.windows(2).all(|w| w[0] >= w[1]), "{starts:?}");
    }

    #[test]
    fn queue_invariant_contains_all_selected_in_range() {
        // Every level must contain *exactly* the selected 1-positions in
        // its claimed range — the invariant Lemma 3 relies on.
        let cfg = config(512, 0.4, 3);
        let mut w = UnionWave::new(&cfg, 0);
        let h = cfg.hash(0);
        let mut ones: Vec<u64> = Vec::new();
        for i in 1..=4000u64 {
            let b = (i * 2654435761) % 5 < 2;
            w.push(b);
            if b {
                ones.push(i);
            }
            if i % 500 == 0 {
                for l in 0..=cfg.degree() {
                    let (start, got) = w.level_contents(l as usize);
                    let expect: Vec<u64> = ones
                        .iter()
                        .copied()
                        .filter(|&p| p >= start && h.level(p) >= l)
                        .collect();
                    assert_eq!(got, expect, "level {l} at pos {i}");
                }
            }
        }
    }

    #[test]
    fn expiry_removes_window_stragglers() {
        let cfg = config(64, 0.5, 4);
        let mut w = UnionWave::new(&cfg, 0);
        for _ in 0..64 {
            w.push(true);
        }
        for _ in 0..64 {
            w.push(false);
        }
        // All ones expired: every queue's remaining entries (if any)
        // would be out of window; tails must have been dropped.
        for l in 0..=cfg.degree() as usize {
            let (_, c) = w.level_contents(l);
            assert!(c.is_empty(), "level {l} still has {c:?}");
        }
    }

    #[test]
    fn local_level_picks_smallest_covering() {
        let cfg = config(1 << 12, 0.3, 5);
        let mut w = UnionWave::new(&cfg, 0);
        for _ in 0..20_000u64 {
            w.push(true);
        }
        let s = w.pos() - 1000;
        let l = w.0.local_level(s);
        let (start, _) = w.level_contents(l as usize);
        assert!(start <= s);
        if l > 0 {
            let (prev, _) = w.level_contents(l as usize - 1);
            assert!(prev > s, "level {l} not minimal");
        }
    }

    #[test]
    fn window_start_bounds() {
        let cfg = config(128, 0.5, 6);
        let mut w = UnionWave::new(&cfg, 0);
        for _ in 0..50 {
            w.push(true);
        }
        assert_eq!(w.0.window_start(10).unwrap(), 41);
        assert_eq!(w.0.window_start(128).unwrap(), 0);
        assert!(w.0.window_start(129).is_err());
        assert!(w.report(129).is_err());
    }
}
