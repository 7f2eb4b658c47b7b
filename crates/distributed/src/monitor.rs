//! Continuous-monitoring push mode (Chan–Lam–Lee–Ting, arXiv:0912.4569).
//!
//! The pull-style referee in [`crate::scenario`] pays `t` synopsis
//! transfers per query. In push mode the total error budget `eps` is
//! split — `eps_synopsis` goes to each party's local wave and
//! `eps_slack` is spread over the parties as *drift* slack — and a
//! party ships its synopsis only when the answer it last shipped has
//! drifted past its share of the slack. Between pushes the referee's
//! folded answer is continuously valid: it differs from a fresh pull
//! fan-out by at most the sum of the per-party budgets
//! (`eps_slack * max_window`), so the full-window answer carries the
//! contract `|answer - truth| <= eps_synopsis * truth + eps_slack * W`.
//!
//! * [`PushParty`] — a party's live wave plus a frozen shadow of the
//!   last shipped state; drift is the gap between the two full-window
//!   estimates, and crossing the budget emits a [`MonitorDelta`].
//! * [`MonitorReferee`] — the one referee, in process and behind the
//!   wire server alike: a [`PartySynopsis`] slot per party, deltas
//!   deduplicated by per-party sequence number (late or replayed deltas
//!   are harmless), and an always-valid fold with a staleness bound
//!   derived from the slack split.
//!
//! Monitoring tracks the *full-window* count: drift is measured at
//! `max_window`, so the contract above is stated for `query_max`-style
//! answers. Sub-window queries remain a pull-mode concern.

use std::collections::HashMap;

use waves_core::codec::CodecError;
use waves_core::det_wave::DetWave;
use waves_core::error::WaveError;
use waves_core::{Estimate, SumWave, Synopsis};
use waves_eh::{EhCount, EhSum};

use crate::comm::{combine_checked, combine_estimates};

/// Which synopsis a party ships. The wire byte (`kind as u8`) is part
/// of the protocol; the payload is the synopsis's own `encode()`
/// output, untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SynopsisKind {
    /// [`waves_core::DetWave`] (deterministic wave, Basic Counting).
    DetWave = 0,
    /// [`waves_core::SumWave`] (deterministic wave over sums).
    SumWave = 1,
    /// [`waves_eh::EhCount`] (exponential histogram, Basic Counting).
    EhCount = 2,
    /// [`waves_eh::EhSum`] (exponential histogram over sums).
    EhSum = 3,
}

/// A decoded party synopsis held by the referee. Wraps the four
/// concrete synopsis types behind one query interface so the referee
/// can mix parties running different synopses.
#[derive(Debug, Clone)]
pub enum PartySynopsis {
    Det(DetWave),
    Sum(SumWave),
    EhCount(EhCount),
    EhSum(EhSum),
}

impl PartySynopsis {
    /// Decode `bytes` for `kind` through the synopsis's own codec.
    /// Errors mean the payload did not survive transport (or the
    /// sender lied about the kind).
    pub fn decode(kind: SynopsisKind, bytes: &[u8]) -> Result<Self, CodecError> {
        Ok(match kind {
            SynopsisKind::DetWave => PartySynopsis::Det(DetWave::decode(bytes)?),
            SynopsisKind::SumWave => PartySynopsis::Sum(SumWave::decode(bytes)?),
            SynopsisKind::EhCount => PartySynopsis::EhCount(EhCount::decode(bytes)?),
            SynopsisKind::EhSum => PartySynopsis::EhSum(EhSum::decode(bytes)?),
        })
    }

    /// The synopsis, whichever it is: its `encode_synopsis()` is the
    /// byte string [`PartySynopsis::decode`] took, and its window
    /// queries are what the referee folds.
    pub fn synopsis(&self) -> &dyn Synopsis {
        match self {
            PartySynopsis::Det(w) => w,
            PartySynopsis::Sum(w) => w,
            PartySynopsis::EhCount(e) => e,
            PartySynopsis::EhSum(e) => e,
        }
    }
}

/// Error-budget split for continuous monitoring: how much of the total
/// `eps` each party's synopsis consumes, and how much is pooled as
/// drift slack across `parties` parties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Maximum (and monitored) window `N`.
    pub max_window: u64,
    /// Total relative-error budget.
    pub eps: f64,
    /// Fraction of `eps` allocated to the per-party synopses
    /// (`0 < eps_split < 1`); the rest becomes drift slack.
    pub eps_split: f64,
    /// Number of parties sharing the slack pool.
    pub parties: u64,
}

impl MonitorConfig {
    /// Validate the split; every constructor below calls this.
    pub fn validate(&self) -> Result<(), WaveError> {
        if !(self.eps > 0.0 && self.eps < 1.0) {
            return Err(WaveError::InvalidEpsilon(self.eps));
        }
        if !(self.eps_split > 0.0 && self.eps_split < 1.0) {
            return Err(WaveError::InvalidEpsilon(self.eps_split));
        }
        if self.max_window == 0 {
            return Err(WaveError::InvalidWindow(0));
        }
        if self.parties == 0 {
            return Err(WaveError::InvalidWindow(0));
        }
        Ok(())
    }

    /// The synopsis share of the budget: each party's wave is built
    /// with this `eps`.
    pub fn eps_synopsis(&self) -> f64 {
        self.eps * self.eps_split
    }

    /// The slack share of the budget.
    pub fn eps_slack(&self) -> f64 {
        self.eps - self.eps_synopsis()
    }

    /// Total unshipped drift allowed across all parties:
    /// `eps_slack * max_window`.
    pub fn slack_total(&self) -> f64 {
        self.eps_slack() * self.max_window as f64
    }

    /// One party's drift budget: an equal share of
    /// [`MonitorConfig::slack_total`].
    pub fn party_budget(&self) -> f64 {
        self.slack_total() / self.parties as f64
    }
}

/// One shipped state change: the party's full synopsis bytes
/// (its `encode()` output, the same bytes `PUSH_SYNOPSIS` carries)
/// plus the metadata the referee needs to fold it in order — field for
/// field a wire `PUSH_DELTA`.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorDelta {
    /// Originating party id.
    pub party: u64,
    /// Per-party monotone sequence number (first ship is 1). The
    /// referee keeps only the highest seen, so replays and reordered
    /// late deltas are no-ops.
    pub seq: u64,
    /// The party's slack budget, carried so the referee can report a
    /// staleness bound without out-of-band configuration.
    pub slack: f64,
    /// Which synopsis `bytes` encodes ([`PushParty`] ships `DetWave`).
    pub kind: SynopsisKind,
    /// `encode()` bytes of the shipped state.
    pub bytes: Vec<u8>,
}

/// A monitored party: a live wave, a frozen shadow of the last shipped
/// state, and the drift account between them.
#[derive(Debug, Clone)]
pub struct PushParty {
    party: u64,
    local: DetWave,
    shipped: DetWave,
    budget: f64,
    seq: u64,
}

impl PushParty {
    /// Build party `party` under the split `cfg`. The initial shipped
    /// shadow is the empty wave, so a referee that has not heard from
    /// this party yet implicitly holds its correct t=0 state.
    pub fn new(cfg: &MonitorConfig, party: u64) -> Result<Self, WaveError> {
        cfg.validate()?;
        let local = DetWave::new(cfg.max_window, cfg.eps_synopsis())?;
        let shipped = local.clone();
        Ok(PushParty {
            party,
            local,
            shipped,
            budget: cfg.party_budget(),
            seq: 0,
        })
    }

    /// Party id.
    pub fn party(&self) -> u64 {
        self.party
    }

    /// Sequence number of the last shipped delta (0 = never shipped).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// This party's drift budget.
    pub fn slack_budget(&self) -> f64 {
        self.budget
    }

    /// The live wave.
    pub fn local(&self) -> &DetWave {
        &self.local
    }

    /// The frozen shadow of the last shipped state.
    pub fn shipped(&self) -> &DetWave {
        &self.shipped
    }

    /// How far the live full-window estimate has moved since the last
    /// ship — the gap the referee cannot see yet.
    pub fn unshipped_drift(&self) -> f64 {
        (self.local.query_max().value - self.shipped.query_max().value).abs()
    }

    /// Ingest one bit; ships a delta iff the drift account crosses the
    /// budget.
    pub fn push_bit(&mut self, b: bool) -> Option<MonitorDelta> {
        self.local.push_bit(b);
        self.settle()
    }

    /// Ingest a word-packed batch; the drift check runs once after the
    /// batch.
    pub fn push_words(&mut self, bits: waves_core::bits::BitsRef<'_>) -> Option<MonitorDelta> {
        self.local.push_words(bits);
        self.settle()
    }

    /// Ship unconditionally (end of stream, operator request): restores
    /// exact agreement between shadow and live state.
    pub fn force_flush(&mut self) -> MonitorDelta {
        self.ship()
    }

    /// Settle the drift account after an ingest: ship iff over budget.
    fn settle(&mut self) -> Option<MonitorDelta> {
        // Planted bug for the DST mutation smoke test
        // (tests/dst_mutation.rs): under `--cfg dst_mutation` the slack
        // account is off by one, letting drift sit one unit past the
        // budget without shipping — the harness's slack-invariant
        // oracle must catch it within 200 seeds.
        #[cfg(dst_mutation)]
        let budget = self.budget + 1.0;
        #[cfg(not(dst_mutation))]
        let budget = self.budget;
        if self.unshipped_drift() > budget {
            Some(self.ship())
        } else {
            None
        }
    }

    fn ship(&mut self) -> MonitorDelta {
        // Into the shadow's own slab: a ship allocates its bytes only.
        self.shipped.clone_from(&self.local);
        self.seq += 1;
        MonitorDelta {
            party: self.party,
            seq: self.seq,
            slack: self.budget,
            kind: SynopsisKind::DetWave,
            bytes: self.local.encode(),
        }
    }
}

/// One party's slot in the referee.
#[derive(Debug, Clone)]
struct RefereeEntry {
    /// Last installed synopsis (pull-mode push or monitoring delta).
    syn: PartySynopsis,
    /// Highest delta sequence seen and the slack declared with it;
    /// `None` until the party ships a delta. A delta whose sequence
    /// does not advance it is a no-op, so retried and late reordered
    /// deltas cannot roll the referee back.
    delta: Option<(u64, f64)>,
}

/// The referee: one slot per party, filled by pull-mode pushes
/// ([`MonitorReferee::install_synopsis`]) and monitoring deltas
/// ([`MonitorReferee::install`]), folded by one combine rule.
#[derive(Debug, Clone, Default)]
pub struct MonitorReferee {
    entries: HashMap<u64, RefereeEntry>,
}

impl MonitorReferee {
    /// An empty referee; parties appear as their first delta arrives
    /// (a silent party is exactly the empty wave it would have
    /// shipped, so the combined answer is valid from t=0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one delta. Returns `Ok(false)` — a harmless no-op — when
    /// `delta.seq` does not advance the party's highest seen sequence
    /// number, which makes replayed retries and late reordered deltas
    /// safe. The check runs *before* decoding, so a stale delta costs
    /// no decode. Corrupt bytes are rejected without touching state.
    pub fn install(&mut self, delta: &MonitorDelta) -> Result<bool, CodecError> {
        if self.seq_of(delta.party).is_some_and(|seq| seq >= delta.seq) {
            return Ok(false);
        }
        let syn = PartySynopsis::decode(delta.kind, &delta.bytes)?;
        let mark = Some((delta.seq, delta.slack));
        self.entries
            .insert(delta.party, RefereeEntry { syn, delta: mark });
        Ok(true)
    }

    /// A pull-mode push: replace `party`'s synopsis but keep its delta
    /// high-water mark, so a replayed older delta still cannot
    /// overwrite it. Corrupt bytes are rejected without touching state.
    pub fn install_synopsis(
        &mut self,
        party: u64,
        kind: SynopsisKind,
        bytes: &[u8],
    ) -> Result<(), CodecError> {
        let syn = PartySynopsis::decode(kind, bytes)?;
        let delta = self.entries.get(&party).and_then(|e| e.delta);
        self.entries.insert(party, RefereeEntry { syn, delta });
        Ok(())
    }

    /// The continuously valid full-window answer: the combined
    /// estimate over every party's last shipped state, each at its own
    /// maximum window. Off from a fresh pull fan-out by at most
    /// [`MonitorReferee::staleness_bound`].
    pub fn combined(&self) -> Estimate {
        combine_estimates(self.entries.values().map(|e| e.syn.synopsis().query_max()))
    }

    /// Query every slot at `window` and fold the answers. A slot that
    /// refuses the window refuses the combine, and so does a total past
    /// `u64` ([`combine_checked`]).
    pub fn combine(&self, window: u64) -> Result<Estimate, WaveError> {
        let reports = self
            .entries
            .values()
            .map(|e| e.syn.synopsis().query_window(window))
            .collect::<Result<Vec<_>, _>>()?;
        combine_checked(reports)
    }

    /// Sum of the slack budgets the parties that shipped deltas
    /// declared: how stale [`MonitorReferee::combined`] may be relative
    /// to a fresh pull of the same parties. Parties that have never
    /// shipped are not counted — callers comparing against ground truth
    /// should add the budgets of silent parties.
    pub fn staleness_bound(&self) -> f64 {
        self.entries
            .values()
            .filter_map(|e| e.delta)
            .map(|d| d.1)
            .sum()
    }

    /// Number of parties heard from.
    pub fn parties(&self) -> usize {
        self.entries.len()
    }

    /// Highest delta sequence number seen from `party`, or `None` if it
    /// has never shipped a delta.
    pub fn seq_of(&self, party: u64) -> Option<u64> {
        self.entries.get(&party)?.delta.map(|(seq, _)| seq)
    }

    /// Re-encoded bytes of `party`'s installed state (byte-identical
    /// to the shipped bytes by the codec's re-encode convention).
    pub fn encoded(&self, party: u64) -> Option<Vec<u8>> {
        self.entries
            .get(&party)
            .map(|e| e.syn.synopsis().encode_synopsis())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(parties: u64) -> MonitorConfig {
        MonitorConfig {
            max_window: 128,
            eps: 0.2,
            eps_split: 0.5,
            parties,
        }
    }

    fn lcg_bits(seed: u64, len: usize, m: u64, lt: u64) -> Vec<bool> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % m < lt
            })
            .collect()
    }

    #[test]
    fn config_split_adds_up() {
        let c = cfg(4);
        assert!((c.eps_synopsis() + c.eps_slack() - c.eps).abs() < 1e-12);
        assert!((c.party_budget() * 4.0 - c.slack_total()).abs() < 1e-9);
        assert!(c.validate().is_ok());
        assert!(MonitorConfig { parties: 0, ..c }.validate().is_err());
        assert!(MonitorConfig {
            eps_split: 1.0,
            ..c
        }
        .validate()
        .is_err());
    }

    #[test]
    fn drift_crossing_ships_and_resets() {
        let mut p = PushParty::new(&cfg(2), 0).unwrap();
        let mut shipped = 0usize;
        for _ in 0..500 {
            if let Some(d) = p.push_bit(true) {
                shipped += 1;
                assert_eq!(d.seq as usize, shipped);
                assert_eq!(p.unshipped_drift(), 0.0, "ship resets the account");
            }
            assert!(
                p.unshipped_drift() <= p.slack_budget() + 1e-9,
                "drift {} over budget {}",
                p.unshipped_drift(),
                p.slack_budget()
            );
        }
        assert!(shipped > 0, "an all-ones stream must cross the budget");
    }

    #[test]
    fn reused_shadow_is_the_shipped_state_and_nothing_after_it() {
        let mut p = PushParty::new(&cfg(2), 0).unwrap();
        let mut bits = lcg_bits(9, 16_000, 5, 2).into_iter();
        for ship in 1..=1000u64 {
            for b in bits.by_ref().take(ship as usize % 16) {
                p.push_bit(b);
            }
            let d = p.force_flush();
            assert!(d.seq >= ship);
            assert_eq!(d.bytes, p.local().encode());
            assert_eq!(p.shipped().encode(), d.bytes, "ship {ship}");
            assert_eq!(p.unshipped_drift(), 0.0, "ship {ship}");
            // The shadow is a copy: what the live wave takes in next is
            // not in it.
            let before = p.local().pos();
            p.local.push_bit(true);
            assert_eq!(p.shipped().encode(), d.bytes, "ship {ship}");
            assert_eq!((p.shipped().pos(), p.local().pos()), (before, before + 1));
        }
    }

    #[test]
    fn silent_party_is_the_empty_wave() {
        let referee = MonitorReferee::new();
        assert_eq!(referee.combined().value, 0.0);
        assert_eq!(referee.parties(), 0);
    }

    #[test]
    fn referee_folds_and_answers_within_contract() {
        let c = cfg(3);
        let mut parties: Vec<PushParty> = (0..3).map(|i| PushParty::new(&c, i).unwrap()).collect();
        let mut referee = MonitorReferee::new();
        let streams: Vec<Vec<bool>> = (0..3).map(|i| lcg_bits(i + 1, 2000, 3, 1)).collect();
        for step in 0..2000 {
            for (p, s) in parties.iter_mut().zip(&streams) {
                if let Some(d) = p.push_bit(s[step]) {
                    assert!(referee.install(&d).unwrap());
                }
            }
            // Push answer vs a fresh pull of the same parties: within
            // the total slack.
            let push = referee.combined();
            let pull = combine_estimates(parties.iter().map(|p| p.local().query_max()));
            assert!(
                (push.value - pull.value).abs() <= c.slack_total() + 1e-9,
                "step {step}: push {} vs pull {}",
                push.value,
                pull.value
            );
        }
        assert!(referee.staleness_bound() <= c.slack_total() + 1e-9);
    }

    #[test]
    fn stale_and_replayed_deltas_are_noops() {
        let c = cfg(1);
        let mut p = PushParty::new(&c, 7).unwrap();
        let mut referee = MonitorReferee::new();
        let mut deltas = Vec::new();
        for _ in 0..600 {
            if let Some(d) = p.push_bit(true) {
                deltas.push(d);
            }
        }
        assert!(deltas.len() >= 2, "need at least two ships");
        let last = deltas.last().unwrap().clone();
        assert!(referee.install(&last).unwrap());
        let settled = referee.combined();
        // Replay of the newest and late arrival of every older delta:
        // all rejected, answer unchanged.
        assert!(!referee.install(&last).unwrap());
        for d in &deltas[..deltas.len() - 1] {
            assert!(!referee.install(d).unwrap());
        }
        assert_eq!(referee.combined(), settled);
        assert_eq!(referee.seq_of(7), Some(last.seq));

        // A pull push replaces the synopsis and keeps the seq: the
        // older deltas stay no-ops against the pulled state.
        let mut pulled = DetWave::new(c.max_window, c.eps_synopsis()).unwrap();
        (0..9).for_each(|_| pulled.push_bit(true));
        referee
            .install_synopsis(7, SynopsisKind::DetWave, &pulled.encode())
            .unwrap();
        assert_eq!(referee.seq_of(7), Some(last.seq), "pull push reset the seq");
        assert_eq!(referee.combined(), pulled.query_max());
        for d in &deltas {
            assert!(!referee.install(d).unwrap());
        }
        assert_eq!(referee.combined(), pulled.query_max());
        assert_eq!(referee.parties(), 1);

        // One referee over all four kinds, each answering as itself.
        let mut sum = SumWave::new(100, 16, 0.25).unwrap();
        let mut eh_count = EhCount::new(100, 0.25).unwrap();
        let mut eh_sum = EhSum::new(100, 16, 0.25).unwrap();
        for i in 0..300u64 {
            let v = (i * 7 + 3) % 17;
            sum.push_value(v).unwrap();
            eh_count.push_bit(v % 3 == 0);
            eh_sum.push_value(v).unwrap();
        }
        let parts = [
            (8, SynopsisKind::SumWave, sum.encode()),
            (9, SynopsisKind::EhCount, eh_count.encode()),
            (10, SynopsisKind::EhSum, eh_sum.encode()),
        ];
        for (party, kind, bytes) in &parts[..2] {
            referee.install_synopsis(*party, *kind, bytes).unwrap();
        }
        let (party, kind, bytes) = parts[2].clone();
        let eh_delta = MonitorDelta {
            party,
            seq: 1,
            slack: 0.5,
            kind,
            bytes,
        };
        assert!(referee.install(&eh_delta).unwrap());
        for (party, _, bytes) in &parts {
            assert_eq!(referee.encoded(*party).as_ref(), Some(bytes));
        }
        assert_eq!(referee.seq_of(8), None);
        assert_eq!(referee.seq_of(10), Some(1));
        assert_eq!(referee.staleness_bound(), last.slack + 0.5);
        for window in [1, 40, 100] {
            let want = combine_estimates([
                pulled.query(window).unwrap(),
                sum.query(window).unwrap(),
                eh_count.query(window).unwrap(),
                eh_sum.query(window).unwrap(),
            ]);
            assert_eq!(referee.combine(window).unwrap(), want, "window {window}");
        }
        // A window past one party's maximum refuses the combine; it is
        // not answered without that party.
        assert!(matches!(
            referee.combine(101),
            Err(WaveError::WindowTooLarge { max: 100, .. })
        ));
    }

    /// In-process twin of the wire's forged-`2^62` case: four valid
    /// `DetWave` encodes each claiming 2^62 ones sum past `u64`, and the
    /// combine refuses rather than wraps; three of them plus a rank-1
    /// party still fit, exactly.
    #[test]
    fn a_saturated_combine_is_refused_and_one_that_fits_is_exact() {
        let huge = 1u64 << 62;
        // DetWave::encode's layout with max_window = pos = 2^62, no
        // expired rank and no stored entries: query_max is exact(rank).
        let claiming = |rank: u64| {
            let mut w = waves_core::codec::BitWriter::new();
            w.write_gamma(huge); // max_window
            w.write_gamma(4); // k
            w.write_gamma0(huge); // pos
            w.write_gamma0(rank);
            w.write_gamma0(0); // r1
            w.write_gamma0(0); // entries
            w.finish()
        };
        let mut referee = MonitorReferee::new();
        for party in 0..4 {
            referee
                .install_synopsis(party, SynopsisKind::DetWave, &claiming(huge))
                .unwrap();
        }
        assert_eq!(
            referee.combine(huge),
            Err(WaveError::TooManyItemsInWindow { bound: u64::MAX })
        );
        referee
            .install_synopsis(3, SynopsisKind::DetWave, &claiming(1))
            .unwrap();
        assert_eq!(referee.combine(huge), Ok(Estimate::exact(3 * huge + 1)));
    }

    #[test]
    fn corrupt_delta_bytes_leave_state_untouched() {
        let c = cfg(1);
        let mut p = PushParty::new(&c, 0).unwrap();
        let mut referee = MonitorReferee::new();
        let mut d = None;
        for _ in 0..600 {
            if let Some(delta) = p.push_bit(true) {
                d = Some(delta);
                break;
            }
        }
        let good = d.expect("all-ones stream ships");
        referee.install(&good).unwrap();
        let before = referee.combined();
        let bad = MonitorDelta {
            seq: good.seq + 1,
            bytes: Vec::new(),
            ..good.clone()
        };
        assert!(referee.install(&bad).is_err());
        assert_eq!(referee.combined(), before);
        assert_eq!(referee.seq_of(0), Some(good.seq));
    }

    #[test]
    fn force_flush_restores_byte_identical_agreement() {
        let c = cfg(2);
        let mut p = PushParty::new(&c, 1).unwrap();
        let mut referee = MonitorReferee::new();
        for b in lcg_bits(42, 300, 2, 1) {
            if let Some(d) = p.push_bit(b) {
                referee.install(&d).unwrap();
            }
        }
        let d = p.force_flush();
        assert!(referee.install(&d).unwrap());
        assert_eq!(p.unshipped_drift(), 0.0);
        assert_eq!(p.shipped().encode(), p.local().encode());
        assert_eq!(referee.encoded(1).unwrap(), p.local().encode());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// An interleaving of party activity: which party moves next and
    /// what bits it ingests.
    fn interleaving(parties: u64) -> impl Strategy<Value = Vec<(u64, Vec<bool>)>> {
        prop::collection::vec(
            (
                0..parties,
                prop::collection::vec(prop::bool::weighted(0.6), 1..8),
            ),
            0..120,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The slack-budget invariant: for any interleaving of party
        /// drifts the sum of unshipped local drifts never exceeds
        /// `eps_slack * window <= eps * window`, and a forced flush
        /// restores exact, byte-identical agreement with the shadow
        /// synopsis.
        #[test]
        fn slack_budget_invariant(
            steps in interleaving(3),
            inv_eps in 3u64..=10,
            split_pct in 30u64..=70,
            max_window in 16u64..=128,
        ) {
            let c = MonitorConfig {
                max_window,
                eps: 1.0 / inv_eps as f64,
                eps_split: split_pct as f64 / 100.0,
                parties: 3,
            };
            let mut parties: Vec<PushParty> =
                (0..3).map(|i| PushParty::new(&c, i).unwrap()).collect();
            let mut referee = MonitorReferee::new();
            for (who, bits) in &steps {
                let bits = waves_core::Bits::from_bools(bits);
                if let Some(d) = parties[*who as usize].push_words(bits.as_ref()) {
                    prop_assert!(referee.install(&d).unwrap());
                }
                let total: f64 = parties.iter().map(PushParty::unshipped_drift).sum();
                prop_assert!(
                    total <= c.slack_total() + 1e-9,
                    "unshipped drift {} exceeds slack pool {}",
                    total,
                    c.slack_total()
                );
                prop_assert!(c.slack_total() <= c.eps * max_window as f64 + 1e-9);
            }
            for p in &mut parties {
                let d = p.force_flush();
                prop_assert!(referee.install(&d).unwrap());
                prop_assert_eq!(p.unshipped_drift(), 0.0);
                prop_assert_eq!(p.shipped().encode(), p.local().encode());
                prop_assert_eq!(
                    referee.encoded(p.party()).unwrap(),
                    p.local().encode()
                );
            }
        }
    }
}
