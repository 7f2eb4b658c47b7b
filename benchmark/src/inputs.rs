//! Seeded inputs and the exact oracle.
//!
//! A workload's input is one *block* of events, generated once from
//! `--seed` and replayed every round. Every key receives the same number
//! of events per block (a seeded shuffle of a balanced multiset), so each
//! key's stream is its own block slice repeated forever — which is what
//! lets [`PeriodicOracle`] answer any window at any position from prefix
//! sums, outside the timed sections and without keeping a window per key.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use waves_core::Bits;
use waves_streamgen::{Bernoulli, BitSource};

/// One keyed event: `bits` is the next slice of `key`'s stream.
pub type Event = (u64, Bits);

/// The shape of a block; every field comes from the workload's spec.
#[derive(Debug, Clone, Copy)]
pub struct BlockShape {
    pub keys: u64,
    pub events: usize,
    /// Bits per event; a multiple of 64 so events concatenate on word
    /// boundaries.
    pub bits_per_event: usize,
    pub density: f64,
    /// Reads per round, each a seeded `(key, window)`.
    pub reads: usize,
    pub max_window: u64,
}

/// Everything a run replays: the event block and the read plan.
#[derive(Debug, Clone)]
pub struct Block {
    pub shape: BlockShape,
    pub events: Vec<Event>,
    pub reads: Vec<(u64, u64)>,
}

impl Block {
    pub fn generate(shape: BlockShape, seed: u64) -> Block {
        assert!(shape.bits_per_event > 0 && shape.bits_per_event.is_multiple_of(64));
        assert!(
            (shape.events as u64).is_multiple_of(shape.keys),
            "balanced keys"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys: Vec<u64> = (0..shape.events as u64).map(|i| i % shape.keys).collect();
        keys.shuffle(&mut rng);
        let mut source = Bernoulli::new(shape.density, seed ^ 0x5eed_b175);
        let events = keys
            .into_iter()
            .map(|key| (key, source.take_packed(shape.bits_per_event)))
            .collect();
        let reads = (0..shape.reads)
            .map(|_| {
                (
                    rng.gen_range(0..shape.keys),
                    rng.gen_range(1..=shape.max_window),
                )
            })
            .collect();
        Block {
            shape,
            events,
            reads,
        }
    }

    /// Stream bits each key receives per replay of the block.
    pub fn period(&self) -> u64 {
        (self.shape.events as u64 / self.shape.keys) * self.shape.bits_per_event as u64
    }

    /// Stream bits in the whole block (the round's item count).
    pub fn items(&self) -> u64 {
        self.shape.events as u64 * self.shape.bits_per_event as u64
    }

    /// FNV-1a over every key, word and read: two runs fed the same bytes
    /// print the same hash.
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (key, bits) in &self.events {
            eat(*key);
            eat(bits.len());
            bits.words().iter().copied().for_each(&mut eat);
        }
        for &(key, window) in &self.reads {
            eat(key);
            eat(window);
        }
        h
    }
}

/// Exact 1-counts over any window of each key's periodic stream.
#[derive(Debug, Clone)]
pub struct PeriodicOracle {
    period: u64,
    /// Per key: the block slice's words, oldest bit first.
    words: Vec<Vec<u64>>,
    /// Per key: `prefix[i]` = ones in `words[..i]`; one longer than
    /// `words`, so the last entry is the ones per period.
    prefix: Vec<Vec<u64>>,
}

impl PeriodicOracle {
    pub fn new(block: &Block) -> Self {
        let mut words: Vec<Vec<u64>> = vec![Vec::new(); block.shape.keys as usize];
        for (key, bits) in &block.events {
            words[*key as usize].extend_from_slice(bits.words());
        }
        Self::from_words(words)
    }

    /// One key per entry, each a whole number of 64-bit words.
    pub fn from_words(words: Vec<Vec<u64>>) -> Self {
        let period = words.first().map_or(0, |w| w.len() as u64 * 64);
        assert!(period > 0 && words.iter().all(|w| w.len() as u64 * 64 == period));
        let prefix = words
            .iter()
            .map(|ws| {
                let mut acc = 0u64;
                let mut p = Vec::with_capacity(ws.len() + 1);
                p.push(0);
                for w in ws {
                    acc += w.count_ones() as u64;
                    p.push(acc);
                }
                p
            })
            .collect();
        PeriodicOracle {
            period,
            words,
            prefix,
        }
    }

    /// Ones among the first `p` bits of `key`'s stream.
    fn ones_before(&self, key: u64, p: u64) -> u64 {
        let (ws, prefix) = (&self.words[key as usize], &self.prefix[key as usize]);
        let per_period = prefix[ws.len()];
        let off = p % self.period;
        let (word, bit) = ((off / 64) as usize, off % 64);
        let partial = if bit == 0 {
            0
        } else {
            (ws[word] & ((1u64 << bit) - 1)).count_ones() as u64
        };
        (p / self.period) * per_period + prefix[word] + partial
    }

    /// Exact number of 1's among the last `window` bits of `key`'s
    /// stream once `pos` bits of it have been applied.
    pub fn count(&self, key: u64, pos: u64, window: u64) -> u64 {
        self.ones_before(key, pos) - self.ones_before(key, pos - window.min(pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn shape() -> BlockShape {
        BlockShape {
            keys: 4,
            events: 24,
            bits_per_event: 128,
            density: 0.3,
            reads: 16,
            max_window: 1000,
        }
    }

    #[test]
    fn same_seed_same_hash_different_seed_different_hash() {
        let a = Block::generate(shape(), 7);
        let b = Block::generate(shape(), 7);
        let c = Block::generate(shape(), 8);
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.events, b.events);
        assert_eq!(a.reads, b.reads);
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn block_is_balanced_and_sized_as_specified() {
        let b = Block::generate(shape(), 3);
        assert_eq!(b.events.len(), 24);
        for key in 0..4 {
            assert_eq!(b.events.iter().filter(|(k, _)| *k == key).count(), 6);
        }
        assert!(b.events.iter().all(|(_, bits)| bits.len() == 128));
        assert_eq!(b.period(), 6 * 128);
        assert_eq!(b.items(), 24 * 128);
        assert!(b
            .reads
            .iter()
            .all(|&(k, w)| k < 4 && (1..=1000).contains(&w)));
    }

    /// The oracle against a brute-force ring buffer holding the last
    /// `max_window` bits, over several periods and at positions that are
    /// not multiples of anything.
    #[test]
    fn periodic_oracle_matches_a_brute_force_ring() {
        let block = Block::generate(shape(), 11);
        let oracle = PeriodicOracle::new(&block);
        let max_window = 1000usize;
        for key in 0..block.shape.keys {
            let stream: Vec<bool> = block
                .events
                .iter()
                .filter(|(k, _)| *k == key)
                .flat_map(|(_, bits)| bits.to_bools())
                .collect();
            assert_eq!(stream.len() as u64, block.period());
            let mut ring: VecDeque<bool> = VecDeque::new();
            for pos in 1..=(3 * stream.len() + 77) {
                ring.push_back(stream[(pos - 1) % stream.len()]);
                if ring.len() > max_window {
                    ring.pop_front();
                }
                if pos % 53 != 0 && pos != 1 {
                    continue;
                }
                for window in [1usize, 2, 63, 64, 65, 500, 999, 1000] {
                    let brute = ring.iter().rev().take(window).filter(|&&b| b).count() as u64;
                    assert_eq!(
                        oracle.count(key, pos as u64, window as u64),
                        brute,
                        "key={key} pos={pos} window={window}"
                    );
                }
            }
        }
    }
}
