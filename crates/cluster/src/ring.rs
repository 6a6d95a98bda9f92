//! The consistent-hash ring: seeded virtual-node placement mapping request
//! keys onto cluster nodes, with distinct-node replica ordering for
//! failover.
//!
//! Classic Karger-style construction: each node contributes `vnodes`
//! points on a 64-bit ring; a key is owned by the first point clockwise
//! from its hash. Removing a node removes only its own points, so only
//! keys it owned are remapped (≈ K/N of them) — the property the
//! ring property tests pin down exactly.

/// FNV-1a 64-bit — the same dependency-free hash the artifact checksum
/// uses, reimplemented here so the ring stands alone.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: cheap avalanche so the seed and the vnode index
/// perturb every output bit (bare FNV of short strings clusters badly).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Default virtual nodes per physical node. Enough to keep the per-node
/// load spread within a few percent at small cluster sizes without making
/// ring rebuilds noticeable.
pub const DEFAULT_VNODES: usize = 64;

/// A seeded consistent-hash ring over named nodes.
#[derive(Debug, Clone)]
pub struct HashRing {
    seed: u64,
    vnodes: usize,
    nodes: Vec<String>,
    /// `(point hash, node index)` sorted by hash; rebuilt on membership
    /// change (mutation is a control-plane event, lookup is the hot path).
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// Empty ring. The same `(seed, vnodes, membership)` always produces
    /// the same placement — placement is part of the cluster's contract,
    /// not an accident of insertion order.
    pub fn new(seed: u64, vnodes: usize) -> HashRing {
        HashRing {
            seed,
            vnodes: vnodes.max(1),
            nodes: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Ring with [`DEFAULT_VNODES`] virtual nodes.
    pub fn with_seed(seed: u64) -> HashRing {
        HashRing::new(seed, DEFAULT_VNODES)
    }

    /// Add a node; returns its index (stable until a removal). Adding an
    /// already-present name is a no-op returning the existing index.
    pub fn add(&mut self, name: &str) -> usize {
        if let Some(i) = self.nodes.iter().position(|n| n == name) {
            return i;
        }
        self.nodes.push(name.to_string());
        self.rebuild();
        self.nodes.len() - 1
    }

    /// Remove a node by name; returns whether it was present. Indices of
    /// later nodes shift down — identify nodes by name across mutations.
    pub fn remove(&mut self, name: &str) -> bool {
        let Some(i) = self.nodes.iter().position(|n| n == name) else {
            return false;
        };
        self.nodes.remove(i);
        self.rebuild();
        true
    }

    fn rebuild(&mut self) {
        self.points.clear();
        for (i, name) in self.nodes.iter().enumerate() {
            let base = self.seed ^ fnv1a(name.as_bytes());
            for v in 0..self.vnodes {
                self.points.push((mix(base ^ ((v as u64) << 32)), i as u32));
            }
        }
        self.points.sort_unstable();
    }

    /// Number of physical nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node names in index order.
    pub fn node_names(&self) -> &[String] {
        &self.nodes
    }

    /// Name of the node at `index`.
    pub fn name_of(&self, index: usize) -> Option<&str> {
        self.nodes.get(index).map(String::as_str)
    }

    fn key_point(&self, key: &str) -> u64 {
        mix(self.seed ^ fnv1a(key.as_bytes()))
    }

    /// Index of the node owning `key` (the first ring point clockwise from
    /// the key's hash).
    pub fn lookup(&self, key: &str) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let h = self.key_point(key);
        let at = self.points.partition_point(|&(p, _)| p < h);
        let (_, idx) = self.points[at % self.points.len()];
        Some(idx as usize)
    }

    /// Name of the node owning `key`.
    pub fn lookup_name(&self, key: &str) -> Option<&str> {
        self.lookup(key).and_then(|i| self.name_of(i))
    }

    /// The first `n` *distinct* nodes clockwise from `key`: the owner
    /// first, then each failover replica in deterministic ring order.
    /// Shorter than `n` only when the ring has fewer nodes.
    pub fn replicas(&self, key: &str, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n.min(self.nodes.len()));
        if self.points.is_empty() || n == 0 {
            return out;
        }
        let h = self.key_point(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        for off in 0..self.points.len() {
            let (_, idx) = self.points[(start + off) % self.points.len()];
            let idx = idx as usize;
            if !out.contains(&idx) {
                out.push(idx);
                if out.len() == n || out.len() == self.nodes.len() {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn ring_of(seed: u64, names: &[&str]) -> HashRing {
        let mut r = HashRing::with_seed(seed);
        for n in names {
            r.add(n);
        }
        r
    }

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("/fn/key-{i}")).collect()
    }

    #[test]
    fn seeded_lookup_is_deterministic() {
        let a = ring_of(42, &["alpha", "beta", "gamma"]);
        let b = ring_of(42, &["alpha", "beta", "gamma"]);
        let other = ring_of(43, &["alpha", "beta", "gamma"]);
        let mut differs = false;
        for k in keys(200) {
            assert_eq!(a.lookup_name(&k), b.lookup_name(&k), "key {k}");
            differs |= a.lookup_name(&k) != other.lookup_name(&k);
        }
        assert!(differs, "seed must perturb placement");
    }

    #[test]
    fn placement_ignores_insertion_order() {
        let a = ring_of(7, &["n0", "n1", "n2", "n3"]);
        let b = ring_of(7, &["n3", "n1", "n0", "n2"]);
        for k in keys(200) {
            assert_eq!(a.lookup_name(&k), b.lookup_name(&k), "key {k}");
        }
    }

    #[test]
    fn replicas_are_distinct_and_owner_first() {
        let r = ring_of(1, &["a", "b", "c", "d", "e"]);
        for k in keys(100) {
            let reps = r.replicas(&k, 3);
            assert_eq!(reps.len(), 3);
            assert_eq!(Some(reps[0]), r.lookup(&k), "owner leads for {k}");
            let mut uniq = reps.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), reps.len(), "duplicate replica for {k}");
        }
        // Asking for more replicas than nodes yields every node once.
        let all = r.replicas("/anything", 99);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn removal_remaps_only_the_removed_nodes_keys() {
        let names: Vec<String> = (0..10).map(|i| format!("node-{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let before = ring_of(99, &refs);
        let ks = keys(1000);
        let owners: HashMap<&String, String> = ks
            .iter()
            .map(|k| (k, before.lookup_name(k).unwrap().to_string()))
            .collect();

        let mut after = before.clone();
        assert!(after.remove("node-3"));
        let mut remapped = 0usize;
        for k in &ks {
            let was = &owners[k];
            let now = after.lookup_name(k).unwrap();
            if was == "node-3" {
                remapped += 1;
                assert_ne!(now, "node-3");
            } else {
                // The exact consistency property: a surviving node's keys
                // never move when some *other* node leaves.
                assert_eq!(now, was, "key {k} moved off a surviving node");
            }
        }
        // ~K/N keys lived on the removed node; allow generous spread.
        assert!(
            (20..=300).contains(&remapped),
            "expected ≈100 of 1000 keys remapped, got {remapped}"
        );
    }

    #[test]
    fn addition_steals_keys_only_for_the_new_node() {
        let before = ring_of(5, &["a", "b", "c"]);
        let mut after = before.clone();
        after.add("d");
        let mut stolen = 0usize;
        for k in keys(1000) {
            let was = before.lookup_name(&k).unwrap().to_string();
            let now = after.lookup_name(&k).unwrap();
            if now != was {
                assert_eq!(now, "d", "key {k} moved to a pre-existing node");
                stolen += 1;
            }
        }
        assert!(stolen > 0, "a joining node must take some keys");
    }

    #[test]
    fn empty_and_single_node_edges() {
        let mut r = HashRing::with_seed(0);
        assert!(r.is_empty());
        assert_eq!(r.lookup("/x"), None);
        assert!(r.replicas("/x", 2).is_empty());
        r.add("only");
        assert_eq!(r.lookup_name("/x"), Some("only"));
        assert_eq!(r.replicas("/x", 4), vec![0]);
        // Duplicate add is a no-op.
        assert_eq!(r.add("only"), 0);
        assert_eq!(r.len(), 1);
        assert!(!r.remove("ghost"));
        assert!(r.remove("only"));
        assert!(r.is_empty());
    }

    #[test]
    fn load_spread_is_reasonable() {
        let r = ring_of(11, &["a", "b", "c", "d"]);
        let mut counts = [0usize; 4];
        for k in keys(4000) {
            counts[r.lookup(&k).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (300..=2200).contains(&c),
                "node {i} owns {c} of 4000 keys — vnode spread collapsed"
            );
        }
    }
}
