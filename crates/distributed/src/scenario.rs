//! The three sliding-window definitions for distributed streams
//! (Section 3.4) and the deterministic-combine strawmen for Scenario 3.
//!
//! * **Scenario 1** — total over the last `N` items *of each stream*
//!   (`t * N` items in total): each party runs the single-stream wave,
//!   the Referee sums the estimates.
//! * **Scenario 2** — one logical stream split arbitrarily among the
//!   parties: each party runs a wave on the shared sequence-number axis
//!   and estimates its items inside `[pos - N + 1, pos]`; the Referee
//!   sums.
//! * **Scenario 3** — the positionwise union: Theorem 4 rules out
//!   deterministic small-space algorithms, so the right tool is the
//!   randomized wave (`waves-rand`); the deterministic combine rules
//!   implemented here are the strawmen the lower-bound experiment
//!   falsifies.

use crate::comm::{CommStats, ScalarReport};
use waves_core::{DetWave, Estimate, SumWave, WaveError};

/// Scenario 1: `t` parties, each with its own deterministic wave `W`
/// over its own stream; the query answer is the sum of the per-party
/// answers over their own last-`N` windows.
#[derive(Debug)]
pub struct Scenario1<W> {
    parties: Vec<W>,
    /// `W`'s window query: all the body needs of the wave type.
    query: fn(&W, u64) -> Result<Estimate, WaveError>,
    comm: CommStats,
}

/// Scenario 1 for Basic Counting.
pub type Scenario1Count = Scenario1<DetWave>;

/// Scenario 1 for sums of bounded integers.
pub type Scenario1Sum = Scenario1<SumWave>;

impl<W> Scenario1<W> {
    fn with_parties(
        t: usize,
        party: impl Fn() -> Result<W, WaveError>,
        query: fn(&W, u64) -> Result<Estimate, WaveError>,
    ) -> Result<Self, WaveError> {
        assert!(t >= 1);
        Ok(Scenario1 {
            parties: (0..t).map(|_| party()).collect::<Result<_, _>>()?,
            query,
            comm: CommStats::default(),
        })
    }

    pub fn t(&self) -> usize {
        self.parties.len()
    }

    /// Query: every party sends a scalar report; the Referee sums. The
    /// summed interval is a valid bracket, and each addend is within
    /// `eps`, so the total is too.
    pub fn query(&mut self, n: u64) -> Result<Estimate, WaveError> {
        let mut reports = Vec::with_capacity(self.parties.len());
        for (j, p) in self.parties.iter().enumerate() {
            reports.push((self.query)(p, n)?);
            self.comm.record_party(j, ScalarReport::WIRE_BYTES);
        }
        Ok(crate::comm::combine_estimates(reports))
    }

    pub fn comm(&self) -> &CommStats {
        &self.comm
    }
}

impl Scenario1<DetWave> {
    pub fn new(t: usize, max_window: u64, eps: f64) -> Result<Self, WaveError> {
        Self::with_parties(t, || DetWave::new(max_window, eps), DetWave::query)
    }

    /// Feed a bit to party `j`.
    pub fn push_bit(&mut self, j: usize, b: bool) {
        self.parties[j].push_bit(b);
    }
}

impl Scenario1<SumWave> {
    pub fn new(t: usize, max_window: u64, max_value: u64, eps: f64) -> Result<Self, WaveError> {
        Self::with_parties(
            t,
            || SumWave::new(max_window, max_value, eps),
            SumWave::query,
        )
    }

    /// Feed a value to party `j`.
    pub fn push_value(&mut self, j: usize, v: u64) -> Result<(), WaveError> {
        self.parties[j].push_value(v)
    }

    /// All parties observe one item each at the same (implicit, shared)
    /// position — the positionwise model.
    pub fn push_position(&mut self, values: &[u64]) -> Result<(), WaveError> {
        for (j, &v) in values.iter().enumerate() {
            self.push_value(j, v)?;
        }
        Ok(())
    }
}

/// Scenario 2: one logical stream split among `t` parties. Items carry
/// their overall sequence number; each party tracks its own items on the
/// shared axis.
#[derive(Debug)]
pub struct Scenario2Count {
    parties: Vec<DetWave>,
    comm: CommStats,
    /// Highest sequence number seen per party.
    seen: Vec<u64>,
}

impl Scenario2Count {
    pub fn new(t: usize, max_window: u64, eps: f64) -> Result<Self, WaveError> {
        assert!(t >= 1);
        let parties = (0..t)
            .map(|_| DetWave::new(max_window, eps))
            .collect::<Result<_, _>>()?;
        Ok(Scenario2Count {
            seen: vec![0; t],
            parties,
            comm: CommStats::default(),
        })
    }

    /// Party `j` observes logical item `(seq, bit)`; its per-party
    /// sequence numbers must be increasing.
    pub fn push_item(&mut self, j: usize, seq: u64, bit: bool) -> Result<(), WaveError> {
        if seq <= self.seen[j] {
            return Err(WaveError::PositionRegressed {
                last: self.seen[j],
                got: seq,
            });
        }
        let gap = seq - self.parties[j].pos() - 1;
        self.parties[j].skip_zeros(gap);
        self.parties[j].push_bit(bit);
        self.seen[j] = seq;
        Ok(())
    }

    /// Query the number of 1's among the last `n` items of the logical
    /// stream; `pos` is the current overall sequence number, which the
    /// Referee broadcasts with the query (as in the paper).
    ///
    /// Non-mutating: each party answers for the intersection of the
    /// broadcast window `[pos - n + 1, pos]` with its own axis (its
    /// items all carry sequence numbers `<= its local pos`), so querying
    /// never desynchronizes later `push_item` calls.
    pub fn query(&mut self, pos: u64, n: u64) -> Result<Estimate, WaveError> {
        let mut reports = Vec::with_capacity(self.parties.len());
        for (j, p) in self.parties.iter().enumerate() {
            if pos < p.pos() {
                return Err(WaveError::PositionRegressed {
                    last: p.pos(),
                    got: pos,
                });
            }
            // Positions in (p.pos(), pos] belong to other parties; the
            // party's share of the window is its last n - gap positions.
            let gap = pos - p.pos();
            reports.push(if gap >= n {
                Estimate::exact(0)
            } else {
                p.query(n - gap)?
            });
            self.comm.record_party(j, ScalarReport::WIRE_BYTES);
        }
        Ok(crate::comm::combine_estimates(reports))
    }

    pub fn comm(&self) -> &CommStats {
        &self.comm
    }
}

/// Scenario 3 with "union" meaning the *positionwise sum*: the paper
/// notes this reduces to Scenario 1, because the window sum of the
/// summed stream equals the sum of the per-party window sums. (With
/// "union" meaning the positionwise *maximum*, the Theorem 4 lower
/// bound applies instead — counting 1's in the OR is the special case.)
pub type Scenario3PositionwiseSum = Scenario1Sum;

/// Deterministic combine rules for Scenario 3 — the strawmen Theorem 4
/// dooms. Each takes the per-party count estimates over the same window
/// and the window size, and guesses the union count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetCombine {
    /// Upper-bounds the union by the sum (exact only for disjoint 1's).
    Sum,
    /// Lower-bounds the union by the max (exact only for nested 1's).
    Max,
    /// Assumes positionwise independence:
    /// `n * (1 - prod_j (1 - c_j/n))`.
    Independent,
}

/// Apply a deterministic combine rule to per-party window counts.
pub fn det_combine(rule: DetCombine, counts: &[f64], window: u64) -> f64 {
    assert!(!counts.is_empty());
    match rule {
        DetCombine::Sum => counts.iter().sum(),
        DetCombine::Max => counts.iter().copied().fold(f64::MIN, f64::max),
        DetCombine::Independent => {
            let n = window as f64;
            let miss: f64 = counts.iter().map(|&c| 1.0 - (c / n).min(1.0)).product();
            n * (1.0 - miss)
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use waves_core::ExactCount;
    use waves_streamgen::split_logical_stream;

    #[test]
    fn scenario1_sums_party_counts() {
        let (t, n, eps) = (3usize, 64u64, 0.25);
        let mut sc = Scenario1Count::new(t, n, eps).unwrap();
        let mut oracles: Vec<ExactCount> = (0..t).map(|_| ExactCount::new(n)).collect();
        let mut x = 7u64;
        for _ in 0..3000 {
            for j in 0..t {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = (x >> 33).is_multiple_of(3);
                sc.push_bit(j, b);
                oracles[j].push_bit(b);
            }
        }
        let actual: u64 = oracles.iter().map(|o| o.query(n)).sum();
        let est = sc.query(n).unwrap();
        assert!(est.brackets(actual));
        assert!(est.relative_error(actual) <= eps + 1e-9);
        // Communication: t scalar messages for one query.
        assert_eq!(sc.comm().messages, t as u64);
    }

    #[test]
    fn scenario1_sum_of_values() {
        let (t, n, r, eps) = (2usize, 32u64, 100u64, 0.25);
        let mut sc = Scenario1Sum::new(t, n, r, eps).unwrap();
        let mut truth = vec![Vec::new(); t];
        let mut x = 3u64;
        for _ in 0..2000 {
            for j in 0..t {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = (x >> 33) % (r + 1);
                sc.push_value(j, v).unwrap();
                truth[j].push(v);
            }
        }
        let actual: u64 = truth
            .iter()
            .map(|vs| vs[vs.len() - n as usize..].iter().sum::<u64>())
            .sum();
        let est = sc.query(n).unwrap();
        assert!(est.relative_error(actual) <= eps + 1e-9);
    }

    #[test]
    fn scenario2_split_stream() {
        let (t, n, eps) = (4usize, 128u64, 0.2);
        let len = 5000usize;
        let stream: Vec<bool> = (0..len).map(|i| (i * 2654435761) % 7 < 3).collect();
        let parts = split_logical_stream(&stream, t, 99);
        let mut sc = Scenario2Count::new(t, n, eps).unwrap();
        for (j, part) in parts.iter().enumerate() {
            for &(seq, b) in part {
                sc.push_item(j, seq, b).unwrap();
            }
        }
        let actual = stream[len - n as usize..].iter().filter(|&&b| b).count() as u64;
        let est = sc.query(len as u64, n).unwrap();
        assert!(est.brackets(actual), "[{},{}] vs {actual}", est.lo, est.hi);
        assert!(
            est.relative_error(actual) <= eps + 1e-9,
            "est {} actual {actual}",
            est.value
        );
    }

    #[test]
    fn scenario3_positionwise_sum_reduction() {
        // The positionwise-sum union over a window equals the sum of the
        // per-party window sums: the Scenario 1 reduction is exact.
        let (t, n, r, eps) = (3usize, 64u64, 50u64, 0.2);
        let mut sc = Scenario3PositionwiseSum::new(t, n, r, eps).unwrap();
        let mut summed: Vec<u64> = Vec::new();
        let mut x = 5u64;
        for _ in 0..2_000 {
            let mut vals = Vec::with_capacity(t);
            for _ in 0..t {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                vals.push((x >> 33) % (r + 1));
            }
            summed.push(vals.iter().sum());
            sc.push_position(&vals).unwrap();
        }
        let actual: u64 = summed[summed.len() - n as usize..].iter().sum();
        let est = sc.query(n).unwrap();
        assert!(est.brackets(actual));
        assert!(est.relative_error(actual) <= eps + 1e-9);
    }

    #[test]
    fn det_combines_bracket_but_do_not_estimate() {
        // Two identical streams: union = each count; Sum doubles it.
        let counts = [50.0, 50.0];
        assert_eq!(det_combine(DetCombine::Sum, &counts, 100), 100.0);
        assert_eq!(det_combine(DetCombine::Max, &counts, 100), 50.0);
        let ind = det_combine(DetCombine::Independent, &counts, 100);
        assert!(ind > 50.0 && ind < 100.0);
    }
}
