//! The ladder's invariants ([`Ladder::check_invariants`]), and `DetWave`
//! over every bit string up to a length: the small-scope check beside
//! the sampled ones (`tests/batch_equivalence.rs`,
//! `push_words_matches_single_pushes`).
//!
//! A depth-first walk of the trie of strings clones the wave at each
//! branch into a preallocated path, so each of the `2^(L+1) - 1`
//! states costs one push. At every state:
//!
//! * the ladder's invariants hold (`Ladder::check_invariants`);
//! * every window `n <= N` brackets the exact count and is within `eps`
//!   of it (Theorem 1);
//! * `decode(encode(w))` holds what `w` holds, so it re-encodes to the
//!   same bytes;
//! * `push_words` of each suffix of up to `B` bits, from the state the
//!   suffix starts at, lands on this state's bytes, on every build of
//!   the batch kernel the host runs.
//!
//! The scopes are chosen so that a suffix crosses `push_ones`' four
//! queue threshold — `4 * ceil((k + 1) / 2)` is 8 at `k = 2` and `k =
//! 3` — into strided zones. At `N = 9` the window wraps twice, but a
//! batch of 9 or more 1s spans it, so every entry older than the batch
//! expires inside it and `evict_ahead` stops at its first occupied
//! level. At `N = 13` older entries outlive such a batch: a mutant that
//! empties one level too many is caught there at `L = 13`, and at no
//! `L <= 20` for `N <= 12`; one that stores the 1 of rank `k + 1` for
//! rank `k` is caught at `L = 9`, by the first long batch.

use super::{Core, Entry, Kernel, Ladder, Positions, Slab, Weight, NIL};
use crate::bits::BitsRef;
use crate::DetWave;

impl<W: Weight> Ladder<W> {
    /// Panic unless this is a state Figure 4 can be in. The list runs
    /// from `head` to `tail` through every stored slot once, each slot
    /// inside its level's queue and each queue in list order, at most
    /// its capacity. Positions never fall, never pass the clock and, on
    /// a [`Positions::Sequence`] ladder, never repeat, and no total is
    /// more than `max_weight` a position (rank ≤ pos, for the bit
    /// waves). The expired boundary agrees with the clock: nothing
    /// stored is a window old, nothing that expired was younger, and
    /// the oldest entry begins at the boundary or after.
    pub(crate) fn check_invariants(&self, max_weight: u64) {
        let c = &self.core;
        let sequence = c.positions == Positions::Sequence;
        let reach = |pos: u64| {
            if sequence {
                pos.saturating_mul(max_weight)
            } else {
                u64::MAX
            }
        };
        assert!(c.boundary <= c.total && c.total <= reach(c.pos), "counters");
        assert!(
            c.boundary <= reach(c.pos.saturating_sub(c.max_window)),
            "boundary"
        );
        let mut last_age = vec![None; c.num_levels as usize];
        let (mut at, mut back, mut listed) = (c.head, NIL, 0);
        let mut prev = (0, c.boundary);
        at_width!(&self.slab, s => while at != NIL {
            let slot = &s[at as usize];
            assert_eq!(slot.prev, back, "links at slot {at}");
            let (level, e) = (c.level_of(at), c.entry(slot));
            let (ring, cap) = (c.rings[level as usize], c.cap(level));
            assert!(ring.len <= cap, "level {level} over capacity");
            let age = (at - level * c.lower_cap + cap - ring.start) % cap;
            assert!(age < ring.len, "slot {at} outside its queue");
            assert!(last_age[level as usize] < Some(age), "level {level} out of list order");
            last_age[level as usize] = Some(age);
            let v = e.weight.get();
            assert!(e.pos <= c.pos && e.pos + c.max_window > c.pos, "entry {} expired", e.pos);
            assert!(e.cum <= c.total && v <= max_weight && v <= e.cum, "entry {}", e.pos);
            assert!(e.cum <= reach(e.pos) && c.total - e.cum <= reach(c.pos - e.pos));
            assert!(e.cum - v >= prev.1, "totals fall at {}", e.pos);
            assert!(e.pos > prev.0 || (!sequence && e.pos == prev.0), "positions at {}", e.pos);
            (prev, back, at, listed) = ((e.pos, e.cum), at, slot.next, listed + 1);
        });
        assert_eq!((c.tail, listed), (back, c.len), "list ends");
        assert_eq!(
            c.rings.iter().map(|r| r.len).sum::<u32>(),
            c.len,
            "queues hold the list"
        );
    }
}

impl<W: Weight> Ladder<W> {
    /// Whether `other` holds what this ladder holds: the same parameters
    /// and counters and, oldest first, entries of the same position,
    /// total, weight and level — everything a wave's `encode()` writes,
    /// so the same bytes; cheaper to compare than to encode.
    pub(crate) fn same_state(&self, other: &Self) -> bool {
        let (a, b) = (&self.core, &other.core);
        let view = |(level, e): (u32, Entry<W>)| (level, e.pos, e.cum, e.weight.get());
        let counters = |c: &Core| (c.max_window, c.k, c.pos, c.total, c.boundary, c.len);
        counters(a) == counters(b) && self.leveled().map(view).eq(other.leveled().map(view))
    }
}

/// A wave to push suffixes into, and the kernel builds to push them on.
type Batched<'a> = (DetWave, &'a [Kernel]);

/// One walk: window `n`, `eps = 1 / k`, strings of up to `len` bits,
/// suffixes of up to `batch` bits pushed as one batch.
struct Scope {
    n: u64,
    k: u64,
    len: u32,
    batch: u32,
}

impl Scope {
    /// Check every string that starts with `first`, and the states on
    /// the way to it; return how many strings there were.
    fn walk(&self, first: &[bool]) -> u64 {
        let wave = DetWave::new(self.n, 1.0 / self.k as f64).unwrap();
        let mut path = vec![wave.clone(); self.len as usize + 1];
        let (kernels, mut bits) = (Kernel::all(), 0);
        let batched = &mut (wave.clone(), &kernels[..]);
        for (depth, &b) in first.iter().enumerate() {
            self.check(&path, batched, bits, depth as u32);
            path[depth + 1] = path[depth].clone();
            path[depth + 1].push_bit(b);
            bits |= (b as u64) << depth;
        }
        self.visit(&mut path, batched, bits, first.len() as u32)
    }

    /// The state at `depth` of `path`, reached by the string whose bit
    /// `i` is `bits >> i & 1`, and every state below it. `batched` is a
    /// wave to push suffixes into, and the kernel builds to push them on.
    fn visit(&self, path: &mut [DetWave], batched: &mut Batched, bits: u64, depth: u32) -> u64 {
        self.check(path, batched, bits, depth);
        if depth == self.len {
            return 1;
        }
        let mut states = 1;
        for b in [false, true] {
            let (done, next) = path.split_at_mut(depth as usize + 1);
            next[0].clone_from(&done[depth as usize]);
            next[0].push_bit(b);
            states += self.visit(path, batched, bits | (b as u64) << depth, depth + 1);
        }
        states
    }

    fn check(&self, path: &[DetWave], batched: &mut Batched, bits: u64, depth: u32) {
        let wave = &path[depth as usize];
        let at = || {
            let stream: String = (0..depth)
                .map(|i| char::from(b'0' + (bits >> i & 1) as u8))
                .collect();
            format!("N={} k={} after {stream:?}", self.n, self.k)
        };
        wave.ladder().check_invariants(1);
        for n in 1..=self.n {
            // The exact count: the 1s among the string's last `n` bits.
            let last = bits >> depth.saturating_sub(n as u32);
            let actual = (last & ((1 << n.min(depth as u64)) - 1)).count_ones() as u64;
            let est = wave.query(n).unwrap();
            assert!(
                est.brackets(actual),
                "{}: window {n} {est:?} misses {actual}",
                at()
            );
            let error = est.relative_error(actual);
            assert!(
                error <= 1.0 / self.k as f64 + 1e-9,
                "{}: window {n} off by {error}",
                at()
            );
        }
        let decoded = DetWave::decode(&wave.encode()).unwrap();
        assert!(
            decoded.ladder().same_state(wave.ladder()),
            "{}: recoded",
            at()
        );
        let (batched, kernels) = batched;
        for &kernel in *kernels {
            for b in 1..=self.batch.min(depth) {
                let from = depth - b;
                batched.clone_from(&path[from as usize]);
                let suffix = [bits >> from & ((1 << b) - 1)];
                batched.push_words_with(kernel, BitsRef::new(&suffix, b as u64));
                let same = batched.ladder().same_state(wave.ladder());
                assert!(same, "{}: its last {b} bits as one batch, {kernel:?}", at());
            }
        }
    }
}

/// `N = 9` at `k = 2`, four levels: the shortest window a batch of
/// more than four queues of 1s fits in, wrapped twice. One half of the
/// strings a test, so the two run side by side.
#[test]
fn every_string_of_two_windows_from_a_0_keeps_the_wave_exact() {
    let scope = Scope {
        n: 9,
        k: 2,
        len: 18,
        batch: 9,
    };
    assert_eq!(scope.walk(&[false]), (1 << 18) - 1);
}

#[test]
fn every_string_of_two_windows_from_a_1_keeps_the_wave_exact() {
    let scope = Scope {
        n: 9,
        k: 2,
        len: 18,
        batch: 9,
    };
    assert_eq!(scope.walk(&[true]), (1 << 18) - 1);
}

/// `N = 13` at `k = 3`: batches that cross the threshold with older
/// entries that outlive them, over a window and a bit.
#[test]
fn every_string_past_a_window_of_13_keeps_the_wave_exact() {
    let scope = Scope {
        n: 13,
        k: 3,
        len: 14,
        batch: 10,
    };
    assert_eq!(scope.walk(&[]), (1 << 15) - 1);
}

/// Three scopes, every string of 21 bits and suffixes up to 12: `cargo
/// test -p waves-core --release -- --ignored`.
#[test]
#[ignore = "minutes in a debug build; run with --release"]
fn every_longer_string_keeps_the_wave_exact() {
    for (n, k) in [(9, 2), (10, 3), (13, 3)] {
        let scope = Scope {
            n,
            k,
            len: 21,
            batch: 12,
        };
        assert_eq!(scope.walk(&[]), (1 << 22) - 1);
    }
}
