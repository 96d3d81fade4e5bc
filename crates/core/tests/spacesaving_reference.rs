//! Differential test of `SpaceSaving` against a reference table.
//!
//! The reference is the straightforward layout: a key → `(count, err)`
//! map beside a `BTreeSet` of `(count, key)`, re-sorted on every
//! increment, whose first element is the victim. The indexed-heap table
//! must agree with it on every observable — `entries()`, `candidate()`,
//! `len()` — after every operation, and on `from_entries` and
//! `merge_from`, across seeded random offer sequences with zero counts,
//! multi-counts, tied counts and capacities 4..64.

use sst_core::sketch::SpaceSaving;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// SpaceSaving with a `BTreeSet` min index.
#[derive(Clone)]
struct Reference {
    capacity: usize,
    by_key: HashMap<u64, (u64, u64)>,
    by_count: BTreeSet<(u64, u64)>,
}

impl Reference {
    fn new(capacity: usize) -> Self {
        Reference {
            capacity: capacity.max(4),
            by_key: HashMap::new(),
            by_count: BTreeSet::new(),
        }
    }

    fn offer(&mut self, key: u64, count: u64) {
        if let Some(&(old, err)) = self.by_key.get(&key) {
            let new = old.saturating_add(count);
            self.by_count.remove(&(old, key));
            self.by_count.insert((new, key));
            self.by_key.insert(key, (new, err));
            return;
        }
        if self.by_key.len() < self.capacity {
            self.by_key.insert(key, (count, 0));
            self.by_count.insert((count, key));
            return;
        }
        let (min_count, victim) = self.by_count.pop_first().expect("non-empty at capacity");
        self.by_key.remove(&victim);
        let new = min_count.saturating_add(count);
        self.by_key.insert(key, (new, min_count));
        self.by_count.insert((new, key));
    }

    fn candidate(&self, key: u64) -> Option<(u64, u64)> {
        self.by_key.get(&key).copied()
    }

    fn entries(&self) -> Vec<(u64, u64, u64)> {
        let sorted: BTreeMap<u64, (u64, u64)> = self.by_key.iter().map(|(&k, &v)| (k, v)).collect();
        sorted.into_iter().map(|(k, (c, e))| (k, c, e)).collect()
    }

    fn merge_from(&mut self, other: &Self) {
        if other.by_key.is_empty() {
            return;
        }
        let capacity = self.capacity.max(other.capacity);
        let mut union: BTreeMap<u64, (u64, u64)> =
            self.by_key.iter().map(|(&k, &v)| (k, v)).collect();
        for (&k, &(c, e)) in &other.by_key {
            let slot = union.entry(k).or_insert((0, 0));
            slot.0 = slot.0.saturating_add(c);
            slot.1 = slot.1.saturating_add(e);
        }
        let mut ranked: Vec<(u64, u64, u64)> =
            union.into_iter().map(|(k, (c, e))| (k, c, e)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(capacity);
        let mut merged = Reference::new(capacity);
        for (k, c, e) in ranked {
            merged.by_key.insert(k, (c, e));
            merged.by_count.insert((c, k));
        }
        *self = merged;
    }
}

/// One SplitMix64 step: the test's own seeded source.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random offer: keys from a pool about twice the capacity (so hits,
/// admissions and evictions all happen), counts mostly 1 with zeros
/// and multi-counts mixed in (so counts tie often).
fn random_offer(s: &mut u64, capacity: usize) -> (u64, u64) {
    let r = splitmix(s);
    let key = (r >> 32) % (2 * capacity as u64 + 3);
    let count = match r % 8 {
        0 => 0,
        1 | 2 => 2 + (r >> 8) % 5,
        _ => 1,
    };
    (key, count)
}

fn assert_same(table: &SpaceSaving, reference: &Reference, keys: u64, what: &str) {
    assert_eq!(table.entries(), reference.entries(), "{what}: entries");
    assert_eq!(table.len(), reference.by_key.len(), "{what}: len");
    for key in 0..keys {
        assert_eq!(
            table.candidate(key),
            reference.candidate(key),
            "{what}: candidate {key}"
        );
    }
}

/// Builds both tables from the same seeded offers, checking after each.
fn build(seed: u64, capacity: usize, offers: usize) -> (SpaceSaving, Reference) {
    let mut s = seed;
    let mut table = SpaceSaving::new(capacity);
    let mut reference = Reference::new(capacity);
    let keys = 2 * capacity as u64 + 3;
    for i in 0..offers {
        let (key, count) = random_offer(&mut s, capacity);
        table.offer(key, count);
        reference.offer(key, count);
        assert_same(
            &table,
            &reference,
            keys,
            &format!("seed {seed} cap {capacity} op {i}"),
        );
    }
    (table, reference)
}

#[test]
fn offers_match_the_reference_after_every_op() {
    for capacity in 4..=64 {
        for seed in 0..4u64 {
            build(seed * 1_000 + capacity as u64, capacity, 600);
        }
    }
}

#[test]
fn from_entries_matches_the_reference() {
    for capacity in [4, 5, 9, 16, 33, 64] {
        let (table, reference) = build(capacity as u64, capacity, 400);
        let entries = reference.entries();
        let rebuilt = SpaceSaving::from_entries(capacity, &entries).expect("valid entries");
        assert_eq!(rebuilt, table, "cap {capacity}");
        // A rebuilt table keeps evicting exactly like the reference.
        let mut rebuilt = rebuilt;
        let mut reference = reference;
        let mut s = 99 + capacity as u64;
        for i in 0..300 {
            let (key, count) = random_offer(&mut s, capacity);
            rebuilt.offer(key, count);
            reference.offer(key, count);
            assert_same(
                &rebuilt,
                &reference,
                2 * capacity as u64 + 3,
                &format!("rebuilt cap {capacity} op {i}"),
            );
        }
        let mut duplicated = entries.clone();
        duplicated.push(entries[0]);
        duplicated.remove(1);
        assert!(SpaceSaving::from_entries(capacity, &duplicated).is_none());
        if entries.len() > 4 {
            assert!(SpaceSaving::from_entries(entries.len() - 1, &entries).is_none());
        }
    }
}

#[test]
fn merges_match_the_reference() {
    for (cap_a, cap_b) in [(4, 4), (8, 5), (16, 64), (64, 16), (33, 33)] {
        for seed in 0..3u64 {
            let (a, ref_a) = build(seed, cap_a, 300);
            let (b, ref_b) = build(seed + 17, cap_b, 300);
            let mut ab = a.clone();
            ab.merge_from(&b);
            let mut ref_ab = ref_a.clone();
            ref_ab.merge_from(&ref_b);
            assert_eq!(ab.capacity(), cap_a.max(cap_b));
            assert_same(&ab, &ref_ab, 200, &format!("merge {cap_a}+{cap_b}"));
            // The merged table keeps evicting like the reference.
            let mut s = seed ^ 0xABCD;
            for i in 0..200 {
                let (key, count) = random_offer(&mut s, cap_a.max(cap_b));
                ab.offer(key, count);
                ref_ab.offer(key, count);
                assert_same(&ab, &ref_ab, 200, &format!("merged op {i}"));
            }
            let mut empty = a.clone();
            empty.merge_from(&SpaceSaving::new(cap_b));
            assert_eq!(empty, a, "merging an empty table is the identity");
        }
    }
}
