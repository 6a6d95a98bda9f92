//! Seeded property tests for the consistent-hash ring: the minimal-disruption
//! guarantee (membership change remaps only the changed node's keys, and
//! not many of them), seeded determinism, and replica-set shape — over
//! random memberships, seeds, and key sets.

use sledge_cluster::HashRing;
use sledge_testkit::{cases, Rng};
use std::collections::HashMap;

/// 2..=12 distinct node names.
fn members(rng: &mut Rng) -> Vec<String> {
    (0..rng.range(2, 13)).map(|i| format!("node-{i}")).collect()
}

fn ring_of(seed: u64, vnodes: usize, names: &[String]) -> HashRing {
    let mut r = HashRing::new(seed, vnodes);
    for n in names {
        r.add(n);
    }
    r
}

fn keys(count: usize, salt: u64) -> Vec<String> {
    (0..count).map(|i| format!("/fn/{salt:x}-{i}")).collect()
}

/// Removing one of N nodes remaps only the keys that node owned —
/// every surviving node keeps every key it had — and the remapped
/// share stays in the ≈K/N ballpark instead of reshuffling the world.
#[test]
fn removal_remaps_about_one_nth_of_keys() {
    cases(256, 0x2E30_7E00, |rng| {
        let names = members(rng);
        let n = names.len();
        let before = ring_of(rng.next_u64(), 64, &names);
        let ks = keys(600, rng.next_u64());
        let owners: HashMap<&String, String> = ks
            .iter()
            .map(|k| (k, before.lookup_name(k).unwrap().to_string()))
            .collect();

        let victim = rng.pick(&names);
        let mut after = before.clone();
        assert!(after.remove(victim));

        let mut remapped = 0usize;
        for k in &ks {
            let was = &owners[k];
            let now = after.lookup_name(k).unwrap();
            if was == victim {
                remapped += 1;
                assert_ne!(now, victim.as_str());
            } else {
                assert_eq!(now, was.as_str(), "key {k} moved between surviving nodes");
            }
        }
        // The removed node owned ≈ K/N keys; allow a wide vnode-variance
        // band (×3 either way) but reject wholesale reshuffles.
        let expect = ks.len() / n;
        assert!(
            remapped <= expect * 3 + 30,
            "{remapped} of {} keys remapped for 1/{n} membership change",
            ks.len()
        );
    });
}

/// A joining node only steals keys — no key moves between two nodes
/// that were both present before the join.
#[test]
fn addition_only_steals_for_the_new_node() {
    cases(256, 0xADD1_7100, |rng| {
        let before = ring_of(rng.next_u64(), 64, &members(rng));
        let mut after = before.clone();
        after.add("joiner");
        for k in keys(400, rng.next_u64()) {
            let was = before.lookup_name(&k).unwrap().to_string();
            let now = after.lookup_name(&k).unwrap();
            if now != was {
                assert_eq!(now, "joiner", "key {k} moved between old nodes");
            }
        }
    });
}

/// Placement is a pure function of (seed, vnodes, membership): two
/// independently built rings agree on every key, regardless of the
/// order nodes were added in.
#[test]
fn seeded_lookup_is_deterministic_and_order_free() {
    cases(256, 0x5EED_0DE2, |rng| {
        let names = members(rng);
        let (seed, vnodes) = (rng.next_u64(), rng.index(1, 129));
        let a = ring_of(seed, vnodes, &names);
        let mut shuffled = names.clone();
        shuffled.rotate_left(rng.index(0, names.len()));
        let b = ring_of(seed, vnodes, &shuffled);
        for k in keys(200, rng.next_u64()) {
            assert_eq!(a.lookup_name(&k), b.lookup_name(&k), "key {k}");
        }
    });
}

/// Replica sets are the right length, duplicate-free, owner-first, and
/// a prefix-consistent extension of smaller replica sets (so failover
/// order never depends on how many replicas the caller asked for).
#[test]
fn replica_sets_are_distinct_owner_first_prefix_consistent() {
    cases(256, 0x2E91_1CA5, |rng| {
        let names = members(rng);
        let r = ring_of(rng.next_u64(), 64, &names);
        let want = rng.index(1, 15);
        for k in keys(100, rng.next_u64()) {
            let reps = r.replicas(&k, want);
            assert_eq!(reps.len(), want.min(names.len()));
            assert_eq!(Some(reps[0]), r.lookup(&k), "owner must lead for {k}");
            let mut uniq = reps.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), reps.len(), "duplicate replica for {k}");
            if want > 1 {
                let shorter = r.replicas(&k, want - 1);
                assert_eq!(&reps[..shorter.len()], &shorter[..], "prefix broke for {k}");
            }
        }
    });
}
