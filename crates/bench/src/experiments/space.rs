//! E5: space vs the Theorem 1 bound and the Datar et al. lower bound
//! (Theorem 2).
//!
//! Measured synopsis bits (paper encoding: mod-N' counters, delta-coded
//! positions/ranks) swept over eps and N, printed next to
//! `(1/eps) log^2(eps N)` and the lower bound `(k/16) log^2(N/k)`.
//! The claim is about *shape*: measured bits track the upper-bound curve
//! within a constant factor and never dip below the lower bound.

use crate::table::{f, Table};
use crate::verdict::word;
use waves_core::space::{datar_lower_bound_bits, det_wave_bound_bits};
use waves_core::DetWave;
use waves_eh::EhCount;
use waves_streamgen::{Bernoulli, BitSource};

pub fn run() {
    println!("E5 — space: measured bits vs Theorem 1 bound and Theorem 2 lower bound");
    println!("=======================================================================\n");
    let mut t = Table::new(&[
        "eps",
        "N",
        "wave bits",
        "EH bits",
        "bound (1/e)log^2(eN)",
        "lower bnd (k/16)log^2(N/k)",
        "wave/bound",
    ]);
    let mut above_lower = true;
    let (mut ratio_min, mut ratio_max) = (f64::INFINITY, 0.0f64);
    for &eps in &[0.5f64, 0.25, 0.1, 0.05, 0.02] {
        for &log_n in &[10u32, 14, 18] {
            let n = 1u64 << log_n;
            let mut wave = DetWave::new(n, eps).unwrap();
            let mut eh = EhCount::new(n, eps).unwrap();
            let mut src = Bernoulli::new(0.5, 7);
            for _ in 0..(3 * n).min(1 << 21) {
                let b = src.next_bit();
                wave.push_bit(b);
                eh.push_bit(b);
            }
            let wave_bits = wave.space_report().synopsis_bits as f64;
            let eh_bits = eh.space_report().synopsis_bits as f64;
            let bound = det_wave_bound_bits(eps, n);
            let k = (1.0 / eps).ceil() as u64;
            let lower = datar_lower_bound_bits(k, n);
            let ratio = wave_bits / bound;
            above_lower &= wave_bits >= lower;
            ratio_min = ratio_min.min(ratio);
            ratio_max = ratio_max.max(ratio);
            t.row(&[
                format!("{eps}"),
                format!("2^{log_n}"),
                f(wave_bits),
                f(eh_bits),
                f(bound),
                f(lower),
                f(ratio),
            ]);
        }
    }
    t.print();
    println!(
        "\nwave bits at or above the Theorem 2 lower bound in every row — {}",
        word(above_lower)
    );
    println!(
        "wave/bound in [{ratio_min:.2}, {ratio_max:.2}]: inside one constant band, [1, 3], over 25x \
         in 1/eps and 256x in N — {}",
        word(ratio_min >= 1.0 && ratio_max <= 3.0)
    );
}
