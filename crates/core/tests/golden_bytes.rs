//! Golden bytes for the four wave codecs: "format unchanged" as a
//! checked fact. Each literal was produced by `encode()` at the commit
//! before the five waves moved onto one skeleton; `encode()` must still
//! produce it, and `decode(literal).encode()` must reproduce it.
//!
//! Every stream runs several windows long at a density that fills the
//! level queues, so each encoding holds a few dozen entries and its wave
//! has both evicted (queue full) and expired (fell out of the window)
//! entries behind it — asserted through the recorder where the type has
//! one, and through `entries() < items stored` where it has not.

use waves_core::{DetWave, SumWave, TimestampSumWave, TimestampWave};
use waves_obs::{MetricId, MetricsRegistry};

/// The unit tests' `lcg_bits` (det_wave.rs).
fn lcg_bits(seed: u64, len: usize, density_mod: u64, density_lt: u64) -> Vec<bool> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % density_mod < density_lt
        })
        .collect()
}

/// The unit tests' `lcg_vals` (sum_wave.rs).
fn lcg_vals(seed: u64, len: usize, r: u64) -> Vec<u64> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % (r + 1)
        })
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex literal"))
        .collect()
}

fn assert_dropped_both_ways(reg: &MetricsRegistry) {
    assert!(reg.counter(MetricId::WaveEntriesEvicted) > 0, "no eviction");
    assert!(reg.counter(MetricId::WaveEntriesExpired) > 0, "no expiry");
}

const DET_WAVE: &str = concat!(
    "00800a007d201dc00a8821005e409436160a8407050e2cc24c61420a5290821a",
    "211249300b084422244891224a5294a52b6db692492492314c4290c465646668",
    "89a2d5d495",
);
const SUM_WAVE: &str = concat!(
    "0200190801f50002f8c8001406011806e062672a2269a6936da4924924924000",
    "521300f38290370065c061816005701940820b40498c02482202881cc04c00a0",
    "0230340e815c78178c06302003502385409e04e07c0b451c80a058920100506c",
    "c0571238c064187202c3015448b2874a084c050140f0403d12051100a0c0cc58",
    "70e0561038805d12528188e0fc4034381185050e04e1004d383d12",
);
const TIMESTAMP_WAVE: &str = concat!(
    "01000080050029d007c200c04130021f080e1a2458e310a629c8c899126924a9",
    "5568019084422110884422244891224494a5294adb6da4924924918a7298a721",
    "486215919d913454ea4aba98",
);
const TIMESTAMP_SUM_WAVE: &str = concat!(
    "020004003e400c900011f14001e0503300aa1d9443298b4dba6d254f492d6b5a",
    "d6b00079c4012102980bd01e405c01500110018e0bc1d81140fc0244c80f20c8",
    "0aa3428305837390080041054100f998b1428321210150a8d3890c8d41e412c8",
    "2b0a09631a1e242e28ac2625a0a880e8b0b882ba0a09230e08e88c51c510c29b",
    "1870a880c987943c729921441251240c090898e40a1c28518631041430206170",
    "e9b089c0",
);

#[test]
fn det_wave_bytes_are_pinned() {
    let reg = MetricsRegistry::new();
    let mut w = DetWave::new(256, 0.1).unwrap();
    for b in lcg_bits(77, 1000, 2, 1) {
        w.push_bit_recorded(b, &reg);
    }
    assert_dropped_both_ways(&reg);
    assert!(w.entries() >= 24);
    assert_eq!(hex(&w.encode()), DET_WAVE);
    let decoded = DetWave::decode(&unhex(DET_WAVE)).unwrap();
    assert_eq!(hex(&decoded.encode()), DET_WAVE);
}

#[test]
fn sum_wave_bytes_are_pinned() {
    let reg = MetricsRegistry::new();
    let mut w = SumWave::new(64, 100, 0.25).unwrap();
    for v in lcg_vals(9, 500, 100) {
        w.push_value_recorded(v, &reg).unwrap();
    }
    assert_dropped_both_ways(&reg);
    assert!(w.entries() >= 24);
    assert_eq!(hex(&w.encode()), SUM_WAVE);
    let decoded = SumWave::decode(&unhex(SUM_WAVE)).unwrap();
    assert_eq!(hex(&decoded.encode()), SUM_WAVE);
}

#[test]
fn timestamp_wave_bytes_are_pinned() {
    // Positions advance by 0 or 1 per item, so they repeat.
    let mut w = TimestampWave::new(128, 512, 0.1).unwrap();
    let (mut ts, mut ones) = (1u64, 0usize);
    for (step, b) in lcg_bits(5, 2000, 2, 1).into_iter().enumerate() {
        ts += (step % 3 == 0) as u64;
        w.push(ts, b).unwrap();
        ones += b as usize;
    }
    assert!(ts > 2 * 128, "stream must outrun the window");
    assert!((24..ones).contains(&w.entries()));
    assert_eq!(hex(&w.encode()), TIMESTAMP_WAVE);
    let decoded = TimestampWave::decode(&unhex(TIMESTAMP_WAVE)).unwrap();
    assert_eq!(hex(&decoded.encode()), TIMESTAMP_WAVE);
}

#[test]
fn timestamp_sum_wave_bytes_are_pinned() {
    let mut w = TimestampSumWave::new(64, 256, 31, 0.25).unwrap();
    let (mut ts, mut nonzero) = (1u64, 0usize);
    for (step, v) in lcg_vals(29, 1200, 31).into_iter().enumerate() {
        ts += (step % 3 == 0) as u64;
        w.push(ts, v).unwrap();
        nonzero += (v > 0) as usize;
    }
    assert!(ts > 2 * 64, "stream must outrun the window");
    assert!((24..nonzero).contains(&w.entries()));
    assert_eq!(hex(&w.encode()), TIMESTAMP_SUM_WAVE);
    let decoded = TimestampSumWave::decode(&unhex(TIMESTAMP_SUM_WAVE)).unwrap();
    assert_eq!(hex(&decoded.encode()), TIMESTAMP_SUM_WAVE);
}
