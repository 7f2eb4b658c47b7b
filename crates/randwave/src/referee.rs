//! The party, its message, and the Referee (Figure 6, bottom; Theorem
//! 5's median of instances) — written once over [`Wave`], for Union
//! Counting and distinct values alike.

use crate::config::{median, RandConfig};
use crate::wave::{Element, Report, Wave};
use std::collections::HashSet;
use waves_core::codec::{read_deltas, write_deltas, BitReader, BitWriter, CodecError};
use waves_core::error::WaveError;
use waves_gf2::LevelHash;

/// A party's full message for one query: one report per instance.
#[derive(Debug, Clone)]
pub struct Message<E> {
    pub reports: Vec<Report<E>>,
}

/// A Union Counting party's message: 1-positions.
pub type PartyMessage = Message<u64>;

impl<E: Element> Message<E> {
    /// Total wire size in bytes at the paper's widths: per report a
    /// level tag and its elements at [`Element::wire_bits`] each.
    pub fn wire_bytes(&self, config: &RandConfig) -> usize {
        let bits = E::wire_bits(config) as usize;
        self.reports
            .iter()
            .map(|r| 4 + (r.elements.len() * bits).div_ceil(8))
            .sum()
    }
}

impl Message<u64> {
    /// Serialize the whole message with the compact bit codec (per
    /// report: level, count, delta-coded positions) — an actual wire
    /// format, typically smaller than the fixed-width
    /// [`Message::wire_bytes`] estimate.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_gamma0(self.reports.len() as u64);
        for r in &self.reports {
            w.write_gamma0(r.level as u64);
            w.write_gamma0(r.elements.len() as u64);
            write_deltas(&mut w, &r.elements);
        }
        w.finish()
    }

    /// Decode a message produced by [`Message::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = BitReader::new(bytes);
        let count = r.read_gamma0()? as usize;
        if count > 1 << 20 {
            return Err(CodecError::Corrupt("too many reports"));
        }
        let mut reports = Vec::with_capacity(count.min(1 << 8));
        for _ in 0..count {
            let level = r.read_gamma0()?;
            if level > 63 {
                return Err(CodecError::Corrupt("level out of range"));
            }
            let len = r.read_gamma0()? as usize;
            if len > 1 << 24 {
                return Err(CodecError::Corrupt("report too large"));
            }
            reports.push(Report {
                level: level as u32,
                elements: read_deltas(&mut r, len)?,
            });
        }
        Ok(Message { reports })
    }
}

/// The Referee step for one instance (Figure 6, bottom; Section 5's
/// levelwise union): pick `l* = max_j l_j`, keep the elements that lie
/// in the window `[s, pos]`, whose key hashes to at least `l*` and
/// passes `keep`, count their distinct keys — a key is in the window
/// when *any* party saw it there — and scale by `2^l*`. `hash` is the
/// instance's shared hash.
pub fn combine_instance<E: Element>(
    hash: &LevelHash,
    reports: &[&Report<E>],
    s: u64,
    keep: impl Fn(u64) -> bool,
) -> f64 {
    let l_star = reports
        .iter()
        .map(|r| r.level)
        .max()
        .expect("at least one party required");
    let union: HashSet<u64> = reports
        .iter()
        .flat_map(|r| &r.elements)
        .filter(|e| e.pos() >= s && hash.level(e.key()) >= l_star && keep(e.key()))
        .map(|e| e.key())
        .collect();
    (1u64 << l_star) as f64 * union.len() as f64
}

/// The Referee: holds the shared configuration (stored coins) and
/// answers queries from party messages.
#[derive(Debug, Clone)]
pub struct Referee {
    config: RandConfig,
}

impl Referee {
    pub fn new(config: RandConfig) -> Self {
        Referee { config }
    }

    pub fn config(&self) -> &RandConfig {
        &self.config
    }

    /// Median-of-instances estimate for the window `[s, pos]` across all
    /// parties, given every party's message: the number of 1's of the
    /// positionwise union, or of distinct values.
    pub fn estimate<E: Element>(&self, messages: &[Message<E>], s: u64) -> f64 {
        self.estimate_predicate(messages, s, |_| true)
    }

    /// As [`Referee::estimate`], restricted to keys satisfying a
    /// predicate supplied at query time.
    pub fn estimate_predicate<E: Element>(
        &self,
        messages: &[Message<E>],
        s: u64,
        keep: impl Fn(u64) -> bool,
    ) -> f64 {
        let m = self.config.instances();
        assert!(
            messages.iter().all(|msg| msg.reports.len() == m),
            "every message must carry one report per instance"
        );
        let per_instance = (0..m)
            .map(|i| {
                let reports: Vec<&Report<E>> = messages.iter().map(|msg| &msg.reports[i]).collect();
                combine_instance(self.config.hash(i), &reports, s, &keep)
            })
            .collect();
        median(per_instance)
    }
}

/// A party: one wave per instance, all fed the same stream.
#[derive(Debug, Clone)]
pub struct Party<W> {
    waves: Vec<W>,
}

impl<W: Wave> Party<W> {
    pub fn new(config: &RandConfig) -> Self {
        Party {
            waves: (0..config.instances()).map(|i| W::new(config, i)).collect(),
        }
    }

    /// Stream length observed so far.
    pub fn pos(&self) -> u64 {
        self.waves[0].pos()
    }

    /// Observe the next stream item in every instance.
    pub fn push(&mut self, item: W::Item) {
        for w in self.waves.iter_mut() {
            w.push(item);
        }
    }

    /// Advance the clock without an arrival (positionwise alignment with
    /// other parties that did observe an item).
    pub fn advance(&mut self) {
        for w in self.waves.iter_mut() {
            w.advance();
        }
    }

    /// Build the query message for a window of the last `n` positions.
    pub fn message(&self, n: u64) -> Result<Message<W::Element>, WaveError> {
        let reports = self.waves.iter().map(|w| w.report(n));
        Ok(Message {
            reports: reports.collect::<Result<_, _>>()?,
        })
    }

    /// Total stored elements across instances and levels (for space
    /// accounting).
    pub fn stored(&self) -> usize {
        self.waves.iter().map(W::stored).sum()
    }

    /// Theoretical synopsis bits: stored elements at their wire width
    /// plus the stored coins.
    pub fn synopsis_bits(&self, config: &RandConfig) -> u64 {
        self.stored() as u64 * W::Element::wire_bits(config) as u64 + config.stored_coin_bits()
    }
}

/// Convenience driver: the estimate over the last `n` positions given
/// all parties and a referee.
pub fn estimate<W: Wave>(
    referee: &Referee,
    parties: &[Party<W>],
    n: u64,
) -> Result<f64, WaveError> {
    // All parties must have observed the same stream length in the
    // positionwise model; a silent mismatch would make the shared
    // window start `s` wrong for the lagging parties.
    let last = parties[0].pos();
    if let Some(got) = parties.iter().map(Party::pos).find(|&p| p != last) {
        return Err(WaveError::PositionRegressed { last, got });
    }
    let messages = parties.iter().map(|p| p.message(n));
    let messages: Vec<_> = messages.collect::<Result<_, _>>()?;
    Ok(referee.estimate(&messages, (last + 1).saturating_sub(n)))
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::{DistinctParty, UnionParty};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use waves_streamgen::{correlated_streams, positionwise_union};

    fn exact_window_union(streams: &[Vec<bool>], n: u64) -> u64 {
        let u = positionwise_union(streams);
        let len = u.len();
        u[len.saturating_sub(n as usize)..]
            .iter()
            .filter(|&&b| b)
            .count() as u64
    }

    /// Run one full pipeline and return (estimate, actual).
    fn run(t: usize, len: usize, n: u64, eps: f64, instances: usize, seed: u64) -> (f64, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RandConfig::for_positions(n, eps, 0.2, &mut rng)
            .unwrap()
            .with_instances(instances, &mut rng);
        let streams = correlated_streams(t, len, 0.3, 0.2, seed ^ 0xABCD);
        let mut parties: Vec<UnionParty> = (0..t).map(|_| UnionParty::new(&cfg)).collect();
        for i in 0..len {
            for (j, p) in parties.iter_mut().enumerate() {
                p.push(streams[j][i]);
            }
        }
        let referee = Referee::new(cfg);
        let est = estimate(&referee, &parties, n).unwrap();
        (est, exact_window_union(&streams, n))
    }

    #[test]
    fn exact_when_level_zero_suffices() {
        // With few 1's, level 0 is never evicted: the sample is the
        // whole window and the estimate is exact.
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = RandConfig::for_positions(256, 0.5, 0.3, &mut rng)
            .unwrap()
            .with_instances(1, &mut rng);
        let mut a = UnionParty::new(&cfg);
        let mut b = UnionParty::new(&cfg);
        for i in 1..=256u64 {
            a.push(i % 37 == 0);
            b.push(i % 41 == 0);
        }
        let referee = Referee::new(cfg);
        let est = estimate(&referee, &[a, b], 256).unwrap();
        // ones: multiples of 37 (6) + multiples of 41 (6), no overlap.
        assert_eq!(est, 12.0);
    }

    #[test]
    fn out_of_step_parties_are_a_typed_error() {
        // In the positionwise model every party answers from the same
        // stream length: 200 against 100 is refused, whatever the
        // element, rather than answered from the first party's clock.
        let want = Err(WaveError::PositionRegressed {
            last: 200,
            got: 100,
        });
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = RandConfig::for_positions(64, 0.5, 0.3, &mut rng).unwrap();
        let (mut a, mut b) = (UnionParty::new(&cfg), UnionParty::new(&cfg));
        (0..200).for_each(|_| a.push(true));
        (0..100).for_each(|_| b.push(true));
        assert_eq!(estimate(&Referee::new(cfg), &[a, b], 64), want);

        let mut rng = StdRng::seed_from_u64(7);
        let cfg = RandConfig::for_values(64, 1023, 0.5, 0.3, &mut rng).unwrap();
        let (mut a, mut b) = (DistinctParty::new(&cfg), DistinctParty::new(&cfg));
        (0..200u64).for_each(|i| a.push(i % 50));
        (0..100u64).for_each(|i| b.push(500 + i % 50));
        assert_eq!(estimate(&Referee::new(cfg), &[a, b], 64), want);
    }

    #[test]
    fn single_party_reduces_to_basic_counting() {
        let (est, actual) = run(1, 4000, 512, 0.25, 9, 7);
        let rel = (est - actual as f64).abs() / actual as f64;
        assert!(rel <= 0.25, "est {est} actual {actual}");
    }

    #[test]
    fn multi_party_estimates_union_not_sum() {
        // Highly correlated streams: sum of counts would be ~t times the
        // union; the estimator must track the union.
        let (est, actual) = run(4, 3000, 512, 0.25, 9, 11);
        let rel = (est - actual as f64).abs() / actual as f64;
        assert!(rel <= 0.25, "est {est} actual {actual}");
    }

    #[test]
    fn median_of_instances_tightens_failures() {
        // With eps=0.3 and 9 instances at the paper's c, every seed in a
        // batch should land within eps (failure prob per query << 1%).
        let mut bad = 0;
        for seed in 0..10u64 {
            let (est, actual) = run(3, 2500, 300, 0.3, 9, 100 + seed);
            if actual > 0 {
                let rel = (est - actual as f64).abs() / actual as f64;
                if rel > 0.3 {
                    bad += 1;
                }
            }
        }
        assert_eq!(bad, 0, "{bad}/10 queries exceeded eps");
    }

    #[test]
    fn message_encode_decode_roundtrip() {
        let mut rng = StdRng::seed_from_u64(13);
        let cfg = RandConfig::for_positions(512, 0.3, 0.3, &mut rng)
            .unwrap()
            .with_instances(5, &mut rng);
        let mut p = UnionParty::new(&cfg);
        for i in 0..2_000u64 {
            p.push(i % 3 != 0);
        }
        let msg = p.message(512).unwrap();
        let bytes = msg.encode();
        let back = PartyMessage::decode(&bytes).unwrap();
        assert_eq!(back.reports.len(), msg.reports.len());
        for (a, b) in msg.reports.iter().zip(&back.reports) {
            assert_eq!(a.level, b.level);
            assert_eq!(a.elements, b.elements);
        }
        // The referee answers identically from the decoded message.
        let referee = Referee::new(cfg);
        let s = p.pos() + 1 - 512;
        assert_eq!(referee.estimate(&[msg], s), referee.estimate(&[back], s));
        // And the codec beats the fixed-width estimate.
        let analytic = p.message(512).unwrap().wire_bytes(referee.config());
        assert!(bytes.len() <= analytic, "{} > {analytic}", bytes.len());
    }

    #[test]
    fn message_decode_rejects_garbage() {
        assert!(PartyMessage::decode(&[]).is_err());
        assert!(PartyMessage::decode(&[0x00]).is_err()); // truncated gamma
    }

    #[test]
    fn message_size_scales_with_instances() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg1 = RandConfig::for_positions(256, 0.3, 0.3, &mut rng)
            .unwrap()
            .with_instances(1, &mut rng);
        let cfg9 = cfg1.clone().with_instances(9, &mut rng);
        let mut p1 = UnionParty::new(&cfg1);
        let mut p9 = UnionParty::new(&cfg9);
        for i in 0..256u64 {
            p1.push(i % 2 == 0);
            p9.push(i % 2 == 0);
        }
        let m1 = p1.message(256).unwrap().wire_bytes(&cfg1);
        let m9 = p9.message(256).unwrap().wire_bytes(&cfg9);
        assert!(m9 > 5 * m1, "m1={m1} m9={m9}");
    }

    #[test]
    fn guarantee_holds_across_party_counts() {
        // Lemma 3: the approximation guarantee is independent of t.
        for &t in &[2usize, 4, 8] {
            let (est, actual) = run(t, 2000, 256, 0.3, 9, 31 + t as u64);
            let rel = (est - actual as f64).abs() / actual.max(1) as f64;
            assert!(rel <= 0.3, "t={t} est {est} actual {actual}");
        }
    }
}
