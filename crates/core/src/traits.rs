//! The one interface every served sliding-window synopsis implements,
//! so the serving engine, the referee and the experiments are written
//! once over the waves and their exponential-histogram baselines alike.
//!
//! The paper's model has one shape: a party runs a synopsis, ships its
//! encoding, and a referee queries it. [`Synopsis`] is that shape —
//! identity, window bound, space accounting, the window query and the
//! self-describing codec — and is object-safe, so a referee can hold
//! parties running different synopses behind `&dyn Synopsis`.
//! [`BitSynopsis`] adds the one push generic code makes on a bit
//! stream: the engine's word-packed batch, which WAL replay also
//! applies. Pushes of single bits or values stay inherent methods of
//! each type.

use crate::bits::BitsRef;
use crate::codec::CodecError;
use crate::error::WaveError;
use crate::estimate::{Estimate, SpaceReport};

/// A sliding-window synopsis a referee can query and a party can ship.
pub trait Synopsis {
    /// A short stable identifier ("det-wave", "eh", "xu", ...).
    fn name(&self) -> &'static str;

    /// The maximum queryable window `N`.
    fn max_window(&self) -> u64;

    /// Stream length so far: how many items the synopsis has taken.
    /// Two copies of one stream order by it, so an install can tell an
    /// older copy from a newer one.
    fn pos(&self) -> u64;

    /// Space accounting.
    fn space_report(&self) -> SpaceReport;

    /// Estimate the count (or sum) over the last `n` items.
    fn query_window(&self, n: u64) -> Result<Estimate, WaveError>;

    /// Estimate over the maximum window. The waves answer it in O(1).
    fn query_max(&self) -> Estimate {
        self.query_window(self.max_window())
            .expect("a synopsis answers its maximum window")
    }

    /// Serialize the complete synopsis state: the type's own `encode()`
    /// bytes, which carry its parameters, so a checkpoint writes exactly
    /// the bytes the wire protocol round-trips. Lossless for queries:
    /// `decode(encode(s)).query_window(n) == s.query_window(n)`.
    fn encode_synopsis(&self) -> Vec<u8>;

    /// Reconstruct a synopsis from [`Synopsis::encode_synopsis`] bytes.
    /// Arbitrary input must never panic: corrupt or truncated bytes
    /// yield a [`CodecError`].
    fn decode_synopsis(bytes: &[u8]) -> Result<Self, CodecError>
    where
        Self: Sized;
}

/// A synopsis of a bit stream, counting the 1's in a sliding window.
pub trait BitSynopsis: Synopsis {
    /// Process a packed batch of stream bits, oldest first (see
    /// [`crate::bits`]). Must be observationally identical to pushing
    /// each bit individually.
    fn push_words(&mut self, bits: BitsRef<'_>);
}

impl Synopsis for crate::det_wave::DetWave {
    fn name(&self) -> &'static str {
        "det-wave"
    }
    fn max_window(&self) -> u64 {
        self.max_window()
    }
    fn pos(&self) -> u64 {
        self.pos()
    }
    fn space_report(&self) -> SpaceReport {
        self.space_report()
    }
    fn query_window(&self, n: u64) -> Result<Estimate, WaveError> {
        self.query(n)
    }
    fn query_max(&self) -> Estimate {
        self.query_max()
    }
    fn encode_synopsis(&self) -> Vec<u8> {
        self.encode()
    }
    fn decode_synopsis(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode(bytes)
    }
}

impl BitSynopsis for crate::det_wave::DetWave {
    fn push_words(&mut self, bits: BitsRef<'_>) {
        self.push_words(bits)
    }
}

impl Synopsis for crate::sum_wave::SumWave {
    fn name(&self) -> &'static str {
        "sum-wave"
    }
    fn max_window(&self) -> u64 {
        self.max_window()
    }
    fn pos(&self) -> u64 {
        self.pos()
    }
    fn space_report(&self) -> SpaceReport {
        self.space_report()
    }
    fn query_window(&self, n: u64) -> Result<Estimate, WaveError> {
        self.query(n)
    }
    fn query_max(&self) -> Estimate {
        self.query_max()
    }
    fn encode_synopsis(&self) -> Vec<u8> {
        self.encode()
    }
    fn decode_synopsis(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det_wave::DetWave;
    use crate::sum_wave::SumWave;

    #[test]
    fn trait_objects_work() {
        let mut count = DetWave::new(32, 0.25).unwrap();
        let mut sum = SumWave::new(32, 4, 0.25).unwrap();
        for i in 0..100u64 {
            count.push_bit(i % 3 == 0);
            sum.push_value(i % 3).unwrap();
        }
        // Ones among bits 68..=99 (i % 3 == 0): 69, 72, ..., 99 -> 11;
        // the values over the same positions sum to 32.
        let parties: [(&dyn Synopsis, u64); 2] = [(&count, 11), (&sum, 32)];
        for (s, truth) in parties {
            assert!(s.query_window(32).unwrap().brackets(truth), "{}", s.name());
            assert_eq!(s.query_max(), s.query_window(32).unwrap(), "{}", s.name());
            assert_eq!(s.max_window(), 32);
        }
    }

    #[test]
    fn synopsis_codec_roundtrips_queries() {
        let mut w = DetWave::new(64, 0.25).unwrap();
        for i in 0..500u64 {
            w.push_bit(i % 3 == 0);
        }
        let back = DetWave::decode_synopsis(&w.encode_synopsis()).unwrap();
        for n in [1u64, 17, 64] {
            assert_eq!(w.query(n).unwrap(), back.query(n).unwrap(), "n={n}");
        }
    }
}
