//! Communication accounting.
//!
//! The distributed-streams model charges parties for the messages they
//! send the Referee at query time. Every driver in this crate counts
//! messages and their wire size so the experiments can report measured
//! communication against the paper's bounds (`t` scalar words per query
//! for the deterministic scenarios; `O(t log(1/delta) / eps^2)` words
//! for the randomized ones).
//!
//! Totals alone can hide a hot party (the bounds are *per party*, not
//! averaged), so [`CommStats`] also keeps a per-party breakdown when the
//! driver knows the sender: [`CommStats::worst_party`] is the right
//! number to compare against the paper's per-query scalar bound.

use waves_core::WaveError;

/// One party's share of the query-time communication.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartyComm {
    /// Messages this party sent to the referee.
    pub messages: u64,
    /// Payload bytes across those messages.
    pub bytes: u64,
}

/// Running totals of query-time communication, with an optional
/// per-party breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages sent party -> referee.
    pub messages: u64,
    /// Total payload bytes across those messages.
    pub bytes: u64,
    /// Per-party breakdown, indexed by party id. Empty when the driver
    /// recorded only totals (see [`CommStats::record`]).
    pub per_party: Vec<PartyComm>,
}

impl CommStats {
    /// Record a message of `bytes` payload bytes (totals only).
    pub fn record(&mut self, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
    }

    /// Record a message from a known sender: totals plus the per-party
    /// breakdown (growing it on first sight of a party id).
    pub fn record_party(&mut self, party: usize, bytes: usize) {
        self.record(bytes);
        if self.per_party.len() <= party {
            self.per_party.resize(party + 1, PartyComm::default());
        }
        self.per_party[party].messages += 1;
        self.per_party[party].bytes += bytes as u64;
    }

    /// Fold another accumulator into this one (party ids must refer to
    /// the same parties in both).
    pub fn merge(&mut self, other: &CommStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        if self.per_party.len() < other.per_party.len() {
            self.per_party
                .resize(other.per_party.len(), PartyComm::default());
        }
        for (mine, theirs) in self.per_party.iter_mut().zip(&other.per_party) {
            mine.messages += theirs.messages;
            mine.bytes += theirs.bytes;
        }
    }

    /// The party that sent the most bytes, if a breakdown was recorded.
    /// This — not `bytes / t` — is what the paper's per-party bounds
    /// constrain.
    pub fn worst_party(&self) -> Option<(usize, PartyComm)> {
        self.per_party
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, p)| (p.bytes, p.messages))
    }
}

/// A deterministic party's per-query message: a point estimate with its
/// truth interval — three words.
#[derive(Debug, Clone, Copy)]
pub struct ScalarReport {
    pub value: f64,
    pub lo: u64,
    pub hi: u64,
}

impl ScalarReport {
    pub const WIRE_BYTES: usize = 24;

    pub fn from_estimate(e: &waves_core::Estimate) -> Self {
        ScalarReport {
            value: e.value,
            lo: e.lo,
            hi: e.hi,
        }
    }
}

/// The referee's combine rule for additive scenarios (Scenarios 1-3
/// with "union" meaning the sum): add the per-party point estimates and
/// truth intervals. Each addend's interval brackets its true value, so
/// the summed interval brackets the true total, and each addend being
/// within `eps` of its truth keeps the total within `eps` too. Shared
/// by the in-process scenario drivers and the referee
/// ([`crate::MonitorReferee`]).
///
/// Addends can come off the wire, so the interval sums saturate
/// instead of wrapping: a saturated `hi` means the total did not fit
/// (never reported as exact), and callers that can refuse go through
/// [`combine_checked`].
pub fn combine_estimates<I>(parts: I) -> waves_core::Estimate
where
    I: IntoIterator<Item = waves_core::Estimate>,
{
    let (mut value, mut lo, mut hi) = (0.0, 0u64, 0u64);
    for e in parts {
        value += e.value;
        lo = lo.saturating_add(e.lo);
        hi = hi.saturating_add(e.hi);
    }
    waves_core::Estimate {
        value,
        lo,
        hi,
        exact: lo == hi && hi != u64::MAX,
    }
}

/// [`combine_estimates`] for a caller that can refuse: a total past
/// `u64` is [`WaveError::TooManyItemsInWindow`], never an answer.
pub fn combine_checked<I>(parts: I) -> Result<waves_core::Estimate, WaveError>
where
    I: IntoIterator<Item = waves_core::Estimate>,
{
    let total = combine_estimates(parts);
    if total.hi == u64::MAX {
        return Err(WaveError::TooManyItemsInWindow { bound: u64::MAX });
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate() {
        let mut s = CommStats::default();
        s.record(10);
        s.record(20);
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 30);
        let mut t = CommStats::default();
        t.record(5);
        t.merge(&s);
        assert_eq!(t.messages, 3);
        assert_eq!(t.bytes, 35);
    }

    #[test]
    fn per_party_breakdown_sums_to_totals() {
        let mut s = CommStats::default();
        s.record_party(0, 10);
        s.record_party(2, 30);
        s.record_party(0, 5);
        assert_eq!(s.messages, 3);
        assert_eq!(s.bytes, 45);
        assert_eq!(s.per_party.len(), 3);
        assert_eq!(
            s.per_party[0],
            PartyComm {
                messages: 2,
                bytes: 15
            }
        );
        assert_eq!(s.per_party[1], PartyComm::default());
        let total: u64 = s.per_party.iter().map(|p| p.bytes).sum();
        assert_eq!(total, s.bytes);
    }

    #[test]
    fn worst_party_is_by_bytes() {
        let mut s = CommStats::default();
        s.record_party(0, 100);
        s.record_party(1, 10);
        s.record_party(1, 10);
        let (idx, p) = s.worst_party().unwrap();
        assert_eq!(idx, 0);
        assert_eq!(p.bytes, 100);
        assert!(CommStats::default().worst_party().is_none());
    }

    #[test]
    fn merge_aligns_party_vectors() {
        let mut a = CommStats::default();
        a.record_party(0, 1);
        let mut b = CommStats::default();
        b.record_party(1, 2);
        b.record_party(2, 3);
        a.merge(&b);
        assert_eq!(a.per_party.len(), 3);
        assert_eq!(a.per_party[2].bytes, 3);
        assert_eq!(a.bytes, 6);
    }

    #[test]
    fn combine_sums_values_and_intervals() {
        use waves_core::Estimate;
        let combined = combine_estimates([Estimate::midpoint(2, 4), Estimate::exact(10)]);
        assert_eq!(combined.value, 13.0);
        assert_eq!((combined.lo, combined.hi), (12, 14));
        assert!(!combined.exact);
        // All-exact addends stay exact; the empty combine is exact 0.
        assert!(combine_estimates([Estimate::exact(1), Estimate::exact(2)]).exact);
        let empty = combine_estimates(std::iter::empty());
        assert_eq!(empty, Estimate::exact(0));
        // A total past u64 saturates and is never called exact.
        let huge = combine_estimates([Estimate::exact(1 << 63), Estimate::exact(1 << 63)]);
        assert_eq!((huge.lo, huge.hi, huge.exact), (u64::MAX, u64::MAX, false));
        // ... which the checked fold refuses.
        assert_eq!(
            combine_checked([Estimate::exact(1 << 63), Estimate::exact(1 << 63)]),
            Err(WaveError::TooManyItemsInWindow { bound: u64::MAX })
        );
        assert_eq!(
            combine_checked([Estimate::exact(1)]),
            Ok(Estimate::exact(1))
        );
    }

    #[test]
    fn scalar_report_roundtrip() {
        let e = waves_core::Estimate::midpoint(10, 20);
        let r = ScalarReport::from_estimate(&e);
        assert_eq!(r.lo, 10);
        assert_eq!(r.hi, 20);
        assert_eq!(r.value, 15.0);
    }
}
