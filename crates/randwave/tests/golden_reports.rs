//! Golden reports for the two randomized waves.
//!
//! Every literal below was generated at the parent of the PR that
//! merged `UnionWave` and `DistinctWave` onto one skeleton, when they
//! were still two hand-written structures, and that PR may not change a
//! bit of what a party ships or the Referee answers. The streams are
//! long enough to evict (a dense first half: more arrivals per window
//! than a level holds) and to expire (a sparse second half: queues
//! outlive the window).
//!
//! That parent had no common name for feeding a party or for the
//! distinct Referee, so three calls read differently there —
//! `party.push_bit(..)`, `party.push_value(..)` and
//! `DistinctReferee::new(cfg)` — and nothing else did: streams, folds
//! and literals ran there byte for byte.

use rand::rngs::StdRng;
use rand::SeedableRng;
use waves_rand::{DistinctParty, RandConfig, Referee, UnionParty};
use waves_streamgen::values::ValueSource;
use waves_streamgen::ZipfValues;

const N: u64 = 256;
const LEN: u64 = 6_000;
/// Mid-stream (dense phase) and end of stream (sparse phase).
const CHECKPOINTS: [u64; 2] = [LEN / 2, LEN];
const WINDOWS: [u64; 2] = [N, 64];

/// One distinct report, folded: level, length, xor of values, xor of
/// positions.
type Fold = (u32, usize, u64, u64);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn union_message_bytes_and_estimates() {
    let mut rng = StdRng::seed_from_u64(20);
    let cfg = RandConfig::for_positions(N, 0.4, 0.3, &mut rng)
        .unwrap()
        .with_instances(3, &mut rng);
    assert_eq!((cfg.queue_capacity(), cfg.degree()), (225, 9));
    let mut party = UnionParty::new(&cfg);
    let referee = Referee::new(cfg);
    let mut got = Vec::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 1..=LEN {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = (x >> 33) % 100;
        party.push(if i <= LEN / 2 { r < 95 } else { r < 15 });
        if CHECKPOINTS.contains(&i) {
            for n in WINDOWS {
                let msg = party.message(n).unwrap();
                let est = referee.estimate(std::slice::from_ref(&msg), i + 1 - n);
                got.push((hex(&msg.encode()), est.to_bits()));
            }
        }
    }
    assert_eq!(party.stored(), 226);
    let want: [(&str, u64); 4] = [
        // pos 3000, n = 256: level 0 has evicted, every instance answers from level 1.
        (
            "2203e800aba2222223222222248888888c888888922151119148889222222232222222488888a6444444491111111c88888922222223222222248888888c8888889203e000abb4444442a222222291111111111111111124444444522222222222222222222222229111111111111111148888888888c88888888888888888888888888901ec0055d246491924292464924919242924668c92326d23242d246492491924649192429246492491d8a49192464919249246490a4919249246",
            0x406ec00000000000, // 246
        ),
        // pos 3000, n = 64: level 0, full.
        (
            "24071000acf4924924934924924924924924924924924d24924924924da49249269249249249249249249249249249269249249249249249249249249369249249249349249249249249249269249249249249249249249249280e200159e9249249269249249249249249249249249a49249249249b4924924d24924924924924924924924924924d24924924924924924924924926d24924924926924924924924924924d2492492492492492492492492501c4002b3d24924924d249249249249249249249249349249249249369249249a49249249249249249249249249249a4924924924924924924924924da4924924924d249249249249249249a492492492492492492492492480",
            0x404f000000000000, // 62
        ),
        // pos 6000: the dense half has expired; level 0, 34 positions.
        (
            "241180059d024134d23229020447060c265320b910404104188112882c1180059d024134d23229020447060c265320b910404104188112882c1180059d024134d23229020447060c265320b9104041041881128828",
            0x4041000000000000, // 34
        ),
        (
            "241180059d024134d23229020447060c265320b910404104188112882c1180059d024134d23229020447060c265320b910404104188112882c1180059d024134d23229020447060c265320b9104041041881128828",
            0x4024000000000000, // 10
        ),
    ];
    for (k, (got, want)) in got.iter().zip(want).enumerate() {
        assert_eq!(got.0, want.0, "message {k}");
        assert_eq!(got.1, want.1, "estimate {k}");
    }
}

#[test]
fn distinct_reports_and_estimates() {
    let mut rng = StdRng::seed_from_u64(21);
    let cfg = RandConfig::for_values(N, (1 << 12) - 1, 0.4, 0.3, &mut rng)
        .unwrap()
        .with_instances(3, &mut rng);
    assert_eq!((cfg.queue_capacity(), cfg.degree()), (225, 12));
    let mut party = DistinctParty::new(&cfg);
    let referee = Referee::new(cfg);
    // Many values, little skew, then few values, heavy skew.
    let mut wide = ZipfValues::new(1 << 12, 0.3, 5);
    let mut narrow = ZipfValues::new(300, 1.1, 6);
    let mut got = Vec::new();
    for i in 1..=LEN {
        let v = if i <= LEN / 2 {
            wide.next_value()
        } else {
            narrow.next_value()
        };
        party.push(v);
        if CHECKPOINTS.contains(&i) {
            for n in WINDOWS {
                let msg = party.message(n).unwrap();
                let folds: Vec<Fold> = msg
                    .reports
                    .iter()
                    .map(|r| {
                        let (xv, xp) = r
                            .elements
                            .iter()
                            .fold((0, 0), |(a, b), &(v, p)| (a ^ v, b ^ p));
                        (r.level, r.elements.len(), xv, xp)
                    })
                    .collect();
                let est = referee.estimate(std::slice::from_ref(&msg), i + 1 - n);
                got.push((folds, est.to_bits()));
            }
        }
    }
    assert_eq!(party.stored(), 518);
    let want: [([Fold; 3], u64); 4] = [
        // pos 3000, n = 256: level 0 has evicted.
        (
            [
                (1, 132, 0x258, 0x3a),
                (1, 128, 0xdc4, 0x11b),
                (1, 139, 0x5db, 0xa8e),
            ],
            0x4070800000000000, // 264
        ),
        // pos 3000, n = 64: level 0, full.
        ([(0, 225, 0x7ba, 0xa15); 3], 0x404f800000000000), // 63
        // pos 6000: 83 values survive in the window.
        ([(0, 83, 0x41, 0x179c); 3], 0x4054c00000000000), // 83
        ([(0, 83, 0x41, 0x179c); 3], 0x4040800000000000), // 33
    ];
    for (k, (got, want)) in got.iter().zip(want).enumerate() {
        assert_eq!(got.0, want.0, "reports {k}");
        assert_eq!(got.1, want.1, "estimate {k}");
    }
}
