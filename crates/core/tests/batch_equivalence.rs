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
