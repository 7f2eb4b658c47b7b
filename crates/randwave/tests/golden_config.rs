//! The `RandConfig` byte layout (DESIGN.md S23), pinned so the next
//! change to it is deliberate: gamma(max_window), gamma(eps ppm),
//! gamma(delta ppm), gamma(capacity), gamma(degree), gamma(instances),
//! then `(q, r)` per instance at `degree` bits each.

use rand::rngs::StdRng;
use rand::SeedableRng;
use waves_rand::RandConfig;

#[test]
fn rand_config_layout_is_stable() {
    let mut rng = StdRng::seed_from_u64(23);
    let cfg = RandConfig::for_positions(1_000, 1.0 / 3.0, 0.3, &mut rng)
        .unwrap()
        .with_instances(3, &mut rng);
    assert_eq!((cfg.queue_capacity(), cfg.degree()), (324, 11));
    let hex: String = cfg.encode().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, "007d00000516150000249f0005105b27c82052619087dd00");
    let back = RandConfig::decode(&cfg.encode()).unwrap();
    assert_eq!(back.encode(), cfg.encode());
}
