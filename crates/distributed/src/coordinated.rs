//! Coordinated adaptive sampling — the Gibbons–Tirthapura SPAA 2001
//! baseline (reference \[18\] of the paper).
//!
//! The predecessor of randomized waves: each party keeps *one* sample of
//! the 1-positions (or values) whose hash level is at least a current
//! threshold; when the sample overflows, the threshold is raised and the
//! sample subsampled in place. This answers whole-stream union/distinct
//! queries with the same guarantees, but has no per-level history: once
//! the threshold rises, the information needed for a *sparse recent
//! window* is gone. The experiments use this to show why sliding windows
//! need the full wave (all levels retained, each with its own recency
//! range).

use std::collections::HashSet;
use waves_gf2::LevelHash;
use waves_rand::{combine_instance, InstanceReport};

/// One coordinated-sampling instance over 1-positions (Union Counting,
/// whole stream).
#[derive(Debug, Clone)]
pub struct CoordSampleParty {
    hash: LevelHash,
    cap: usize,
    /// The current sampling level and the positions held at it: what
    /// a wave party would report, were this its only level.
    sample: InstanceReport,
    pos: u64,
}

impl CoordSampleParty {
    /// `hash` must be shared by all parties; `cap` is the sample-size
    /// bound (the paper's `O(1/eps^2)`).
    pub fn new(hash: LevelHash, cap: usize) -> Self {
        assert!(cap >= 1);
        CoordSampleParty {
            hash,
            cap,
            sample: InstanceReport {
                level: 0,
                elements: Vec::with_capacity(cap + 1),
            },
            pos: 0,
        }
    }

    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Current sampling level.
    pub fn level(&self) -> u32 {
        self.sample.level
    }

    /// Positions currently held.
    pub fn sample(&self) -> &[u64] {
        &self.sample.elements
    }

    pub fn push_bit(&mut self, b: bool) {
        self.pos += 1;
        let InstanceReport { level, elements } = &mut self.sample;
        if b && self.hash.level(self.pos) >= *level {
            elements.push(self.pos);
            while elements.len() > self.cap {
                *level += 1;
                elements.retain(|&p| self.hash.level(p) >= *level);
            }
        }
    }
}

/// Referee combine for coordinated sampling: estimate the number of 1's
/// in the positionwise union restricted to positions `>= s` (`s = 0` for
/// the whole stream — the only regime with a guarantee). The step is the
/// wave Referee's, on one-level reports.
pub fn coord_union_estimate(parties: &[&CoordSampleParty], s: u64) -> f64 {
    let reports: Vec<&InstanceReport> = parties.iter().map(|p| &p.sample).collect();
    combine_instance(&parties[0].hash, &reports, s, |_| true)
}

/// One coordinated-sampling instance over values (distinct counting,
/// whole stream).
#[derive(Debug, Clone)]
pub struct CoordDistinctParty {
    hash: LevelHash,
    cap: usize,
    level: u32,
    sample: HashSet<u64>,
}

impl CoordDistinctParty {
    pub fn new(hash: LevelHash, cap: usize) -> Self {
        assert!(cap >= 1);
        CoordDistinctParty {
            hash,
            cap,
            level: 0,
            sample: HashSet::with_capacity(cap + 1),
        }
    }

    pub fn level(&self) -> u32 {
        self.level
    }

    pub fn push_value(&mut self, v: u64) {
        if self.hash.level(v) >= self.level {
            self.sample.insert(v);
            while self.sample.len() > self.cap {
                self.level += 1;
                let (hash, level) = (&self.hash, self.level);
                self.sample.retain(|&v| hash.level(v) >= level);
            }
        }
    }
}

/// Referee combine for distinct values over the union of whole streams:
/// a value is the element whose key is itself, and `s = 0` keeps all.
pub fn coord_distinct_estimate(parties: &[&CoordDistinctParty]) -> f64 {
    let reports: Vec<InstanceReport> = parties
        .iter()
        .map(|p| InstanceReport {
            level: p.level,
            elements: p.sample.iter().copied().collect(),
        })
        .collect();
    let reports: Vec<&InstanceReport> = reports.iter().collect();
    combine_instance(&parties[0].hash, &reports, 0, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hash(seed: u64, degree: u32) -> LevelHash {
        let mut rng = StdRng::seed_from_u64(seed);
        LevelHash::random(degree, &mut rng)
    }

    #[test]
    fn small_stream_exact() {
        let h = hash(1, 16);
        let mut a = CoordSampleParty::new(h.clone(), 64);
        let mut b = CoordSampleParty::new(h, 64);
        for i in 1..=300u64 {
            a.push_bit(i % 10 == 0);
            b.push_bit(i % 15 == 0);
        }
        // level stays 0 -> exact union count: |{x : 10|x or 15|x}| = 40.
        assert_eq!(a.level(), 0);
        let est = coord_union_estimate(&[&a, &b], 0);
        assert_eq!(est, 40.0);
    }

    #[test]
    fn subsampling_keeps_guarantee_whole_stream() {
        let degree = 20;
        let len = 60_000u64;
        // Median over instances for stability.
        let mut ests = Vec::new();
        for seed in 0..9 {
            let h = hash(seed, degree);
            let mut a = CoordSampleParty::new(h.clone(), 400);
            let mut b = CoordSampleParty::new(h, 400);
            for i in 1..=len {
                a.push_bit(i % 3 == 0);
                b.push_bit(i % 4 == 0);
            }
            assert!(a.level() > 0, "sample must have been subsampled");
            ests.push(coord_union_estimate(&[&a, &b], 0));
        }
        // Union = multiples of 3 or 4: len/2 exactly.
        let actual = (len / 2) as f64;
        let est = waves_rand::median(ests);
        assert!(
            (est - actual).abs() / actual <= 0.2,
            "est {est} actual {actual}"
        );
    }

    #[test]
    fn window_queries_degrade_when_level_high() {
        // The motivating failure: after heavy history, a sparse recent
        // window is estimated from almost no samples. This is the
        // qualitative gap waves close; here we just confirm the sample
        // retained for the window is tiny.
        let h = hash(3, 20);
        let mut p = CoordSampleParty::new(h.clone(), 100);
        for _ in 0..200_000u64 {
            p.push_bit(true);
        }
        let s = p.pos() - 500;
        let in_window = p.sample().iter().filter(|&&q| q >= s).count();
        // The wave would retain ~cap positions for this window at level
        // 0; coordinated sampling keeps only ~500 / 2^level.
        assert!(p.level() >= 9);
        assert!(
            in_window <= 8,
            "window sample unexpectedly rich: {in_window}"
        );
    }

    #[test]
    fn distinct_whole_stream() {
        let h = hash(5, 16);
        let mut a = CoordDistinctParty::new(h.clone(), 512);
        let mut b = CoordDistinctParty::new(h, 512);
        for v in 0..400u64 {
            a.push_value(v);
            b.push_value(v + 200); // overlap 200..400
        }
        let est = coord_distinct_estimate(&[&a, &b]);
        assert_eq!(est, 600.0); // exact: level 0, union = 600 values
    }
}
