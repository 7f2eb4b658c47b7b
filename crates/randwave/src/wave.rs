//! What a randomized wave is from the outside: it takes one stream item
//! per position and, at query time, reports one level's sample. Section
//! 5 builds the distinct-values wave by re-targeting Section 4's "from
//! positions to values", so the two share this interface, and everything
//! behind it — [`crate::Party`], [`crate::Referee`], the threaded driver
//! — is written once over it.

use crate::config::RandConfig;
use waves_core::error::WaveError;
use waves_core::ModRing;

/// What a level sample holds and a report ships: a 1-position for Union
/// Counting, a `(value, most recent position)` pair for distinct values.
/// Plain data: a party's thread sends it to the Referee's.
pub trait Element: Copy + Send + Sync {
    /// What the shared hash is applied to, and what the Referee counts
    /// once however many parties report it.
    fn key(self) -> u64;
    /// The stream position that decides window membership.
    fn pos(self) -> u64;
    /// Bits one element takes on the wire at the paper's widths: a key
    /// at the hash degree, a position at the window ring's `log N'`.
    fn wire_bits(config: &RandConfig) -> u32;
}

/// A position is the element whose key *is* its position: one field.
impl Element for u64 {
    fn key(self) -> u64 {
        self
    }
    fn pos(self) -> u64 {
        self
    }
    fn wire_bits(config: &RandConfig) -> u32 {
        ModRing::for_window(config.max_window()).counter_bits()
    }
}

impl Element for (u64, u64) {
    fn key(self) -> u64 {
        self.0
    }
    fn pos(self) -> u64 {
        self.1
    }
    fn wire_bits(config: &RandConfig) -> u32 {
        config.degree() + u64::wire_bits(config)
    }
}

/// What a party sends the Referee for one instance: its selected level
/// and that level's sample, oldest first.
#[derive(Debug, Clone)]
pub struct Report<E> {
    pub level: u32,
    pub elements: Vec<E>,
}

/// One randomized-wave instance over one party's stream.
pub trait Wave: Sized {
    /// What one stream position carries: a bit, or a value.
    type Item: Copy + Send + Sync;
    /// What the level samples hold.
    type Element: Element;

    /// Instance `instance` of the shared configuration.
    fn new(config: &RandConfig, instance: usize) -> Self;
    /// Observe the next stream item: expected O(1) work, the arriving
    /// and the leaving element each belong to an expected two levels.
    fn push(&mut self, item: Self::Item);
    /// Advance the clock one position without an arrival (a 0-bit; a
    /// position at which only the other parties observed a value).
    fn advance(&mut self);
    /// Stream length so far.
    fn pos(&self) -> u64;
    /// Total elements stored across levels.
    fn stored(&self) -> usize;
    /// The party-side query step over the last `n` positions: the
    /// smallest level whose sample covers them, and that sample.
    fn report(&self, n: u64) -> Result<Report<Self::Element>, WaveError>;
}
