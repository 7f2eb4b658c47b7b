//! Golden bytes for the three baseline codecs: "format unchanged" as a
//! checked fact. Each literal was produced by `encode()` at the commit
//! before Basic Counting and sums moved onto one exponential-histogram
//! skeleton; `encode()` must still produce it, `decode(literal).encode()`
//! must reproduce it, and the space report E2 and E6 print beside it
//! (`synopsis_bits`, `entries`) must not move either. PUSH_SYNOPSIS
//! carries these bytes verbatim.
//!
//! The streams are chosen for the cases a fold could get wrong:
//! `m = 49`, whose `eps = 1/(2m)` rounds back up to 50, so a decoder
//! must rebuild from the coded `m`; an all-ones stream whose cascades
//! run through at least four size classes; and sum streams whose
//! partial-run merges leave equal timestamps both inside a class and
//! across adjacent classes (read back out of the encoding below).

use waves_core::codec::{read_deltas, BitReader};
use waves_core::estimate::SpaceReport;
use waves_eh::{EhCount, EhSum, XuCount};

/// The unit tests' `lcg_bits` (basic.rs).
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

/// The unit tests' `lcg_vals` (sum.rs).
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

/// The encoding, its decode-and-re-encode, and the space report all
/// match what was pinned.
fn assert_pinned(
    encoded: &[u8],
    reencode: impl Fn(&[u8]) -> Vec<u8>,
    report: SpaceReport,
    golden: &str,
    (bits, entries): (u64, usize),
) {
    assert_eq!(hex(encoded), golden);
    assert_eq!(hex(&reencode(&unhex(golden))), golden);
    assert_eq!((report.synopsis_bits, report.entries), (bits, entries));
}

/// Per size class, the run timestamps of an `EhSum` encoding.
fn sum_class_timestamps(bytes: &[u8]) -> Vec<Vec<u64>> {
    let mut r = BitReader::new(bytes);
    for _ in 0..3 {
        r.read_gamma().unwrap(); // max_window, max_value, m
    }
    r.read_gamma0().unwrap(); // pos
    let classes = r.read_gamma0().unwrap();
    (0..classes)
        .map(|_| {
            let runs = r.read_gamma0().unwrap() as usize;
            let ts = read_deltas(&mut r, runs).unwrap();
            for _ in 0..runs {
                r.read_gamma().unwrap(); // multiplicity
            }
            ts
        })
        .collect()
}

/// Some class holds two runs with one timestamp, and some timestamp
/// is held by two adjacent classes.
fn assert_shared_timestamps(bytes: &[u8]) {
    let classes = sum_class_timestamps(bytes);
    let within = classes.iter().any(|ts| ts.windows(2).any(|p| p[0] == p[1]));
    let across = classes
        .windows(2)
        .any(|pair| pair[0].iter().any(|t| pair[1].contains(t)));
    assert!(
        within && across,
        "within {within}, across {across}: {classes:?}"
    );
}

const EH_COUNT_M49: &str = concat!(
    "00200031001f425064003d85a69a49a49369b642249249249a49249249268190",
    "00ed521591b6c842b3b23646db6621195b290ac852b6d90495919419000da728",
    "910530b127298a71430494e20c7126127105105318508394494418e7394e6102",
    "4e2816000ba61a3468b09044504c78a1a2858d1a2860b16111434203870e080d",
    "1e3050d1e3068c16111a3450c0",
);
const EH_COUNT_ALL_ONES: &str = concat!(
    "00802007d221803e844007c6db007ba52003c91225803b1089001b0821042c01",
    "808104",
);
const EH_SUM: &str = concat!(
    "0200191007d46200fab401f56803ead007d5b00f9aa601f2e400f7a5d807ade4",
    "00ed184f2006e458ff",
);
const EH_SUM_M49: &str = concat!(
    "01001006200fa4c2001f0b4d243b1841470b003d4a55a4d2d2aa2d2574495511",
    "48e08c01db552bd2aab4ab44692226956975f4ab54925bc19803895492a574e9",
    "24aea9274e93495d34925ffffffffffff8f006d4468a44da6565fffc",
);
const XU_COUNT: &str = concat!(
    "0020010005dc80ae00103806802f81781c83005a0a02a170a0d1c28e72b64224",
    "d2210ad26933a2349a4d249268c4453a69b3a642148db23688ca8891111a6924",
    "db4766224884326211d3224911b444889113643249a69b3a66488d14e8a44749",
    "268526903605c0b81287830131e305083148da5fffffffffffffffffffffffff",
    "fffffffffffffc",
);

#[test]
fn eh_count_bytes_are_pinned_at_a_drifting_m() {
    // ceil((2m - 1) / 2) = m: this eps builds m = 49, whose own
    // 1/(2m) would rebuild m = 50.
    let mut eh = EhCount::new(1024, 1.0 / 97.0).unwrap();
    let bits = lcg_bits(49, 4000, 3, 2);
    let ones = bits.iter().filter(|&&b| b).count() as u64;
    for b in bits {
        eh.push_bit(b);
    }
    assert!(eh.merges() > 0 && eh.query(1024).unwrap().hi < ones);
    assert_pinned(
        &eh.encode(),
        |b| EhCount::decode(b).unwrap().encode(),
        eh.space_report(),
        EH_COUNT_M49,
        (1938, 190),
    );
}

#[test]
fn eh_count_bytes_are_pinned_after_deep_cascades() {
    let mut eh = EhCount::new(256, 0.25).unwrap();
    for _ in 0..1000 {
        eh.push_bit(true);
    }
    assert!(eh.max_cascade() >= 4, "max cascade {}", eh.max_cascade());
    assert_pinned(
        &eh.encode(),
        |b| EhCount::decode(b).unwrap().encode(),
        eh.space_report(),
        EH_COUNT_ALL_ONES,
        (266, 17),
    );
}

#[test]
fn eh_sum_bytes_are_pinned() {
    let mut eh = EhSum::new(64, 100, 0.25).unwrap();
    for v in lcg_vals(4, 500, 100) {
        eh.push_value(v).unwrap();
    }
    assert_shared_timestamps(&eh.encode());
    assert_pinned(
        &eh.encode(),
        |b| EhSum::decode(b).unwrap().encode(),
        eh.space_report(),
        EH_SUM,
        (273, 19),
    );
}

#[test]
fn eh_sum_bytes_are_pinned_at_a_drifting_m() {
    let mut eh = EhSum::new(128, 16, 1.0 / 97.0).unwrap();
    for v in lcg_vals(49, 1000, 16) {
        eh.push_value(v).unwrap();
    }
    assert_shared_timestamps(&eh.encode());
    assert_pinned(
        &eh.encode(),
        |b| EhSum::decode(b).unwrap().encode(),
        eh.space_report(),
        EH_SUM_M49,
        (1212, 126),
    );
}

#[test]
fn xu_count_bytes_are_pinned() {
    let mut xu = XuCount::new(1024, 0.25).unwrap();
    for b in lcg_bits(5, 3000, 2, 1) {
        xu.push_bit(b);
    }
    assert!(xu.compressions() > 0);
    assert_pinned(
        &xu.encode(),
        |b| XuCount::decode(b).unwrap().encode(),
        xu.space_report(),
        XU_COUNT,
        (1036, 173),
    );
}
