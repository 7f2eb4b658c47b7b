//! `DetWave::push_words` against `DetWave::push_bit`, byte for byte
//! (`encode()`, which carries the expired boundary) after every batch,
//! at the shapes the stack serves.
//!
//! A batch stores only the 1s Figure 4 could still hold when it ends;
//! the 1s it passes over begin a few queue capacities into the batch's
//! ranks, which `push_words_matches_single_pushes` (windows to 256,
//! chunks to 200) barely reaches. Every stream here runs three windows
//! or more, so entries from earlier batches are evicted and expired in
//! the middle of later ones.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use waves_core::bits::Bits;
use waves_core::{DetWave, ExactCount};

/// The stream of one case: its own seed, whatever the cases around it.
fn seeded(seed: u64, density: f64) -> StdRng {
    StdRng::seed_from_u64(seed ^ density.to_bits())
}

fn bits(rng: &mut StdRng, len: u64, density: f64) -> Vec<bool> {
    (0..len).map(|_| rng.gen_bool(density)).collect()
}

const DENSITIES: [f64; 5] = [0.02, 0.3, 0.5, 0.95, 1.0];

/// A batched wave and its per-bit twin, compared after every batch.
struct Pair {
    batched: DetWave,
    single: DetWave,
    exact: ExactCount,
    eps: f64,
}

impl Pair {
    fn new(n: u64, eps: f64) -> Pair {
        Pair {
            batched: DetWave::new(n, eps).unwrap(),
            single: DetWave::new(n, eps).unwrap(),
            exact: ExactCount::new(n),
            eps,
        }
    }

    /// `n` 0s at once: one `skip_zeros` on the batched side.
    fn skip(&mut self, n: u64, what: &str) {
        self.batched.skip_zeros(n);
        for _ in 0..n {
            self.single.push_bit(false);
            self.exact.push_bit(false);
        }
        assert_eq!(
            self.batched.encode(),
            self.single.encode(),
            "{what}: skip {n}"
        );
    }

    fn push(&mut self, batch: &[bool], what: &str) {
        self.batched.push_words(Bits::from_bools(batch).as_ref());
        for &b in batch {
            self.single.push_bit(b);
            self.exact.push_bit(b);
        }
        assert_eq!(
            self.batched.encode(),
            self.single.encode(),
            "{what}: a {}-bit batch ending at position {}",
            batch.len(),
            self.single.pos()
        );
    }

    /// The maximum window's answer, against the exact count.
    fn check_estimate(&self, what: &str) {
        let (est, actual) = (
            self.batched.query_max(),
            self.exact.query(self.exact.max_window()),
        );
        assert_eq!(est, self.single.query_max(), "{what}");
        assert!(
            est.brackets(actual) && est.relative_error(actual) <= self.eps + 1e-9,
            "{what}: {est:?} vs {actual}"
        );
    }
}

#[test]
fn served_shapes_match_per_bit_pushes() {
    let shapes = [
        (65_536, 0.05, 4096),
        (16_384, 0.05, 1024),
        (4_096, 0.05, 64),
        (65_536, 0.1, 256),
    ];
    for (n, eps, batch) in shapes {
        for density in DENSITIES {
            let what = format!("N={n} eps={eps} batch={batch} density={density}");
            let mut rng = seeded(n ^ batch, density);
            let mut pair = Pair::new(n, eps);
            for _ in 0..3 * n / batch + 2 {
                pair.push(&bits(&mut rng, batch, density), &what);
            }
            pair.check_estimate(&what);
        }
    }
}

/// Batch lengths that straddle word boundaries and, at the two small
/// windows, the window itself.
#[test]
fn random_batch_lengths_match_per_bit_pushes() {
    for n in [65_536, 16_384, 4_096, 1_000, 300] {
        for density in DENSITIES {
            let what = format!("N={n} density={density}");
            let mut rng = seeded(n, density);
            let mut pair = Pair::new(n, 0.05);
            while pair.single.pos() < 3 * n.max(4_096) {
                let len = rng.gen_range(1..=6_000);
                pair.push(&bits(&mut rng, len, density), &what);
            }
            pair.check_estimate(&what);
        }
    }
}

/// One call longer than the window: an entry of the batch can expire
/// before the batch ends, so nothing may be passed over. Passing over
/// shows in the encoded boundary, most often just past the window.
#[test]
fn a_batch_longer_than_the_window_matches_per_bit_pushes() {
    for n in [64, 300] {
        let shapes = [
            (4096, 0.02),
            (4096, 0.5),
            (4096, 1.0),
            (n + n / 4, 0.3),
            (n + 1, 0.5),
        ];
        for (len, density) in shapes {
            let what = format!("N={n} len={len} density={density}");
            let mut rng = seeded(n ^ len, density);
            let mut pair = Pair::new(n, 0.05);
            for round in 0..40 {
                let mut batch = bits(&mut rng, len, density);
                if len > 2 * n && round % 4 == 1 {
                    // Everything stored so far expires inside this call.
                    batch[..n as usize + 7].fill(false);
                }
                pair.push(&batch, &what);
                pair.check_estimate(&what);
            }
        }
    }
}

/// What a batch finds stored leaves in per-bit order: an old entry is
/// evicted by its level's first arrivals, on time, and so is not there
/// to expire — and move the boundary — later in the batch. The newest
/// old entry, of rank `ones_before`, sits at each lower level in turn.
#[test]
fn old_entries_are_evicted_before_they_can_expire() {
    let n = 300;
    for ones_before in 1..=64 {
        for gap in [0, 30, 60, 150] {
            for density in [0.9, 1.0] {
                let what = format!("{ones_before} ones, {gap} zeros, density={density}");
                let mut rng = seeded(ones_before ^ gap, density);
                let mut pair = Pair::new(n, 0.05);
                pair.push(&vec![true; ones_before as usize], &what);
                pair.push(&vec![false; gap as usize], &what);
                pair.push(&bits(&mut rng, n, density), &what);
            }
        }
    }
}

/// ε = 0.05: `k = 20`, queues of `lower` at every level below the top.
const LOWER: usize = 11;

/// A batch empties up front only a prefix of levels whose oldest entries
/// outlive it. Here levels below `l` hold only fresh entries while level
/// `l` still holds old ones, which expire inside the next batch: where
/// that is before its arrivals evict them, they move the boundary, and
/// emptying level `l` up front would lose it.
#[test]
fn the_emptied_prefix_stops_below_a_level_about_to_expire() {
    let n = 2048;
    for l in 0..=4 {
        let (old, fresh) = (LOWER << (l + 2), LOWER << l);
        // Every gap from one where the old entries would expire only
        // after the last batch's arrivals evict them, to one where all
        // have expired before it starts.
        let last = n as usize / 2 - fresh;
        for gap in last - old..=last {
            let what = format!("level {l}, gap {gap}");
            let mut pair = Pair::new(n, 0.05);
            // Every level full of old entries; then a queue's worth of
            // fresh ones at each level below `l`.
            pair.push(&vec![true; old], &what);
            pair.skip(n / 2, &what);
            pair.push(&vec![true; fresh], &what);
            pair.skip(gap as u64, &what);
            pair.push(&[true; 512], &what);
            pair.check_estimate(&what);
        }
    }
}

/// A level is emptied when the batch brings `lower << (l + 1)` 1s, a
/// queue's worth of its arrivals, and not with one fewer, wherever the
/// batch's ranks start.
#[test]
fn a_queue_of_arrivals_and_one_fewer_match_per_bit_pushes() {
    let n = 16_384;
    for l in 0..=4 {
        for ones in [(LOWER << (l + 1)) - 1, LOWER << (l + 1)] {
            for spread in [1, 2, 5] {
                let what = format!("level {l}, {ones} ones, one in {spread}");
                let mut rng = seeded(ones as u64 ^ spread as u64, 0.5);
                let mut pair = Pair::new(n, 0.05);
                pair.push(&bits(&mut rng, n + 100, 0.5), &what);
                let batch: Vec<bool> = (0..ones * spread).map(|i| i % spread == 0).collect();
                // Consecutive batches start their ranks `ones` apart.
                for _ in 0..2 * (l + 1) {
                    pair.push(&batch, &what);
                }
                pair.check_estimate(&what);
            }
        }
    }
}

/// After a whole window of 0s every queue is empty: the first long batch
/// has nothing to remove and still stores only what it leaves behind.
#[test]
fn a_batch_after_a_whole_window_skip_matches_per_bit_pushes() {
    let n = 4_096;
    for density in DENSITIES {
        let what = format!("density={density}");
        let mut rng = seeded(n, density);
        let mut pair = Pair::new(n, 0.05);
        pair.push(&bits(&mut rng, n, density), &what);
        for skip in [n, n + 1, 3 * n] {
            pair.skip(skip, &what);
            assert_eq!(pair.batched.space_report().entries, 0, "{what}");
            for len in [n / 2, 1_000, 64] {
                pair.push(&bits(&mut rng, len, density), &what);
            }
            pair.check_estimate(&what);
        }
    }
}
