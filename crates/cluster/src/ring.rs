//! The seeded consistent-hash ring: deterministic key placement over a
//! set of nodes, with virtual nodes for balance.
//!
//! Every placement decision derives from three inputs only — the ring
//! seed, the node ids, and the key — through a fixed mixing function.
//! Two [`Ring`]s built from the same inputs route every key
//! identically, on any machine, in any process: that is what lets
//! independent [`ClusterClient`](crate::ClusterClient)s agree on
//! primaries without coordination, and what lets the DST replay a
//! cluster schedule bit-exactly from its seed.
//!
//! Each node contributes `vnodes` points on the `u64` circle; a key
//! hashes to a position and its replicas are the first R *distinct*
//! nodes clockwise from there. Adding a node moves only the keys whose
//! arc it captures (the classic consistent-hashing guarantee — the
//! property tests at the bottom pin it).

/// The splitmix64 finalizer: a cheap, well-distributed `u64 -> u64`
/// mix. Fixed forever — changing it would reshuffle every placement.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A consistent-hash ring over `u64` node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    seed: u64,
    vnodes: usize,
    /// Sorted (point, node) pairs: each node owns `vnodes` points.
    points: Vec<(u64, u64)>,
}

impl Ring {
    /// Build a ring with `vnodes` virtual nodes per node (clamped to at
    /// least 1). Node order does not matter: the ring is a pure
    /// function of `(seed, vnodes, node set)`.
    pub fn new(seed: u64, vnodes: usize, nodes: impl IntoIterator<Item = u64>) -> Self {
        let mut ring = Ring {
            seed,
            vnodes: vnodes.max(1),
            points: Vec::new(),
        };
        for node in nodes {
            ring.add_node(node);
        }
        ring
    }

    /// The seed the ring was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Insert `node`'s virtual points. Inserting a node twice is a
    /// no-op (its points are already present at the same positions).
    pub fn add_node(&mut self, node: u64) {
        let base = mix(self.seed ^ mix(node));
        for v in 0..self.vnodes as u64 {
            let point = mix(base.wrapping_add(mix(v + 1)));
            let pair = (point, node);
            if let Err(i) = self.points.binary_search(&pair) {
                self.points.insert(i, pair);
            }
        }
    }

    /// Remove every point owned by `node`. Keys whose primary was a
    /// different node are unaffected (property-tested below).
    pub fn remove_node(&mut self, node: u64) {
        self.points.retain(|&(_, n)| n != node);
    }

    /// The key's position on the circle.
    fn position(&self, key: u64) -> u64 {
        mix(self.seed ^ mix(key).rotate_left(32))
    }

    /// The first `r` *distinct* nodes clockwise from the key's
    /// position: index 0 is the primary, the rest are followers in
    /// failover order. Returns fewer than `r` nodes only when the ring
    /// has fewer than `r` distinct nodes.
    pub fn replicas(&self, key: u64, r: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(r.min(self.points.len()));
        if self.points.is_empty() || r == 0 {
            return out;
        }
        let pos = self.position(key);
        let start = self.points.partition_point(|&(p, _)| p < pos);
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            if !out.contains(&node) {
                out.push(node);
                if out.len() == r {
                    break;
                }
            }
        }
        out
    }

    /// The key's primary node, or `None` on an empty ring.
    pub fn primary(&self, key: u64) -> Option<u64> {
        self.replicas(key, 1).first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_ring_routes_nothing() {
        let ring = Ring::new(1, 8, []);
        assert!(ring.is_empty());
        assert_eq!(ring.primary(42), None);
        assert!(ring.replicas(42, 3).is_empty());
    }

    #[test]
    fn double_add_is_idempotent() {
        let mut a = Ring::new(9, 8, [1, 2, 3]);
        let b = a.clone();
        a.add_node(2);
        assert_eq!(a, b);
    }

    #[test]
    fn vnodes_spread_load() {
        // With enough virtual nodes no single node owns everything.
        let ring = Ring::new(7, 32, 0..4);
        let mut counts = [0usize; 4];
        for key in 0..4000u64 {
            counts[ring.primary(key).unwrap() as usize] += 1;
        }
        for (node, &c) in counts.iter().enumerate() {
            assert!(
                (400..=2200).contains(&c),
                "node {node} owns {c} of 4000 keys — badly unbalanced"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every key maps to exactly min(R, n) distinct nodes, primary
        /// first.
        #[test]
        fn keys_map_to_exactly_r_distinct_nodes(
            seed in 0u64..=1000,
            n in 1usize..=8,
            r in 1usize..=5,
            key in 0u64..=u64::MAX,
        ) {
            let ring = Ring::new(seed, 16, (0..n as u64).map(|i| i * 31 + 5));
            let reps = ring.replicas(key, r);
            prop_assert_eq!(reps.len(), r.min(n));
            let mut uniq = reps.clone();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), reps.len(), "replica list repeats a node");
            prop_assert_eq!(reps[0], ring.primary(key).unwrap());
        }

        /// Two rings built from the same (seed, vnodes, node set) route
        /// every key identically — node insertion order included.
        #[test]
        fn routing_is_deterministic_across_instances(
            seed in 0u64..=1000,
            keys in prop::collection::vec(0u64..=u64::MAX, 1..40),
        ) {
            let a = Ring::new(seed, 16, [3, 1, 4, 1, 5]);
            let b = Ring::new(seed, 16, [5, 4, 3, 1]); // same set, other order + dup
            for &key in &keys {
                prop_assert_eq!(a.replicas(key, 3), b.replicas(key, 3));
            }
        }

        /// Adding a node moves a key's primary only onto the *new*
        /// node; every key it does not capture keeps its old primary.
        #[test]
        fn join_moves_only_the_captured_arc(
            seed in 0u64..=1000,
            n in 1usize..=6,
            keys in prop::collection::vec(0u64..=u64::MAX, 1..60),
        ) {
            let before = Ring::new(seed, 16, 0..n as u64);
            let mut after = before.clone();
            let newcomer = n as u64;
            after.add_node(newcomer);
            for &key in &keys {
                let old = before.primary(key).unwrap();
                let new = after.primary(key).unwrap();
                prop_assert!(
                    new == old || new == newcomer,
                    "key {} jumped {} -> {} though neither is the joined node {}",
                    key, old, new, newcomer
                );
            }
        }

        /// Removing a node re-homes only the keys it owned.
        #[test]
        fn leave_moves_only_the_orphaned_keys(
            seed in 0u64..=1000,
            n in 2usize..=6,
            victim in 0usize..=5,
            keys in prop::collection::vec(0u64..=u64::MAX, 1..60),
        ) {
            let victim = (victim % n) as u64;
            let before = Ring::new(seed, 16, 0..n as u64);
            let mut after = before.clone();
            after.remove_node(victim);
            for &key in &keys {
                let old = before.primary(key).unwrap();
                let new = after.primary(key).unwrap();
                if old != victim {
                    prop_assert_eq!(old, new, "key {} moved off a surviving node", key);
                }
                prop_assert!(new != victim);
            }
        }
    }
}
