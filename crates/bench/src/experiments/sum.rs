//! E6: Theorem 3 — the sum wave vs the EH-sum baseline: error and space
//! across value ranges R.

use crate::table::{f, pct, Table};
use waves_core::{ExactSum, SumWave};
use waves_eh::EhSum;
use waves_streamgen::{SpikeValues, UniformValues, ValueSource};

pub fn run() {
    println!("E6 — Theorem 3: sums of integers in [0..R] in a sliding window");
    println!("==============================================================\n");

    let mut t = Table::new(&[
        "workload",
        "eps",
        "R",
        "max err (wave)",
        "max err (EH)",
        "wave bits",
        "EH bits",
        "wave entries",
        "EH buckets",
    ]);
    let n = 1u64 << 10;
    for &(wname, seed) in &[("uniform", 5u64), ("spiky", 6)] {
        for &eps in &[0.25f64, 0.1, 0.05] {
            for &log_r in &[4u32, 10, 16, 20] {
                let r = 1u64 << log_r;
                let mut gen: Box<dyn ValueSource> = match wname {
                    "uniform" => Box::new(UniformValues::new(r, seed)),
                    _ => Box::new(SpikeValues::new(r, 0.02, seed)),
                };
                let mut wave = SumWave::new(n, r, eps).unwrap();
                let mut eh = EhSum::new(n, r, eps).unwrap();
                let mut oracle = ExactSum::new(n);
                let (mut we, mut ee) = (0.0f64, 0.0f64);
                for step in 1..=20_000u64 {
                    let v = gen.next_value();
                    wave.push_value(v).unwrap();
                    eh.push_value(v).unwrap();
                    oracle.push_value(v);
                    if step % 17 == 0 {
                        let actual = oracle.query(n);
                        we = we.max(wave.query_max().relative_error(actual));
                        ee = ee.max(eh.query(n).unwrap().relative_error(actual));
                    }
                }
                assert!(we <= eps + 1e-9 && ee <= eps + 1e-9);
                t.row(&[
                    wname.into(),
                    format!("{eps}"),
                    format!("2^{log_r}"),
                    pct(we),
                    pct(ee),
                    f(wave.space_report().synopsis_bits as f64),
                    f(eh.space_report().synopsis_bits as f64),
                    format!("{}", wave.entries()),
                    format!("{}", eh.buckets()),
                ]);
            }
        }
    }
    t.print();

    println!("\nExpected shape: both within eps; wave stores one entry per item");
    println!("(O(1) worst case) while EH spreads large items over many classes.");
}
