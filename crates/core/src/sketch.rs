//! Fixed-memory frequency sketches for the long-tail flow tier.
//!
//! A monitor serving millions of keys cannot afford per-key state for
//! all of them; the classical answer (Cormode & Muthukrishnan's
//! count-min sketch, Metwally et al.'s SpaceSaving) is a fixed array of
//! counters shared by every key.  `sst-monitor` layers these under its
//! exact [`crate::stream::StreamSampler`] tier: the count-min sketch
//! estimates per-key volume (and drives deterministic heavy-hitter
//! promotion), SpaceSaving keeps the candidate top-k.
//!
//! Both structures are deliberately integer-only: cell updates are
//! `u64` additions, so merging is cell-wise addition — associative,
//! commutative, and bit-exact regardless of partition order.  That is
//! what lets sketch snapshots ride [`MergeableSummary`] through the
//! sharded engine and the collector topology without breaking the
//! byte-identity guarantees the exact tier already provides.

use crate::summary::MergeableSummary;
use sst_stats::hash::U64Map;
use sst_stats::rng::derive_seed;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

/// Domain tag mixed into row-seed derivation so count-min row hashes
/// never collide with other `derive_seed` users on the same base seed.
const CM_ROW_TAG: u64 = 0x434d_524f_5753; // "CMROWS"

/// Most rows a [`CountMinSketch`] holds (a snapshot decoder's bound
/// too), so one key's cells fit a stack array.
pub const MAX_DEPTH: usize = 16;

/// A count-min sketch over `u64` keys with `u64` counts.
///
/// `depth` rows of `width` cells each (width is a power of two);
/// incrementing a key adds to one cell per row (row hashes derived from
/// the seed via [`derive_seed`]), and the point estimate is the minimum
/// over rows — an overestimate with bounded expected error
/// `ε ≈ e / width` of the total count.
///
/// Counts are integers, so [`MergeableSummary::merge_from`] is exact
/// cell-wise addition: merging per-partition sketches yields the bits a
/// single sketch over the interleaved stream would hold.
#[derive(Debug, Clone, PartialEq)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    seed: u64,
    /// Cached `derive_seed(derive_seed(seed, CM_ROW_TAG), row)` values.
    row_seeds: Vec<u64>,
    /// Row-major `depth × width` counters.
    cells: Vec<u64>,
    /// Exact total of all increments (every row also sums to this
    /// unless a cell saturated).
    total: u64,
}

fn row_seeds(seed: u64, depth: usize) -> Vec<u64> {
    let base = derive_seed(seed, CM_ROW_TAG);
    (0..depth as u64).map(|r| derive_seed(base, r)).collect()
}

impl CountMinSketch {
    /// Creates a sketch with exactly `depth × width` cells; `depth` is
    /// clamped to `1..=`[`MAX_DEPTH`] and `width` rounded up to a power
    /// of two (minimum 16).
    pub fn new(depth: usize, width: usize, seed: u64) -> Self {
        let depth = depth.clamp(1, MAX_DEPTH);
        let width = width.max(16).next_power_of_two();
        Self {
            width,
            depth,
            seed,
            row_seeds: row_seeds(seed, depth),
            cells: vec![0; depth * width],
            total: 0,
        }
    }

    /// Creates the widest `depth`-row sketch that fits in `bytes` of
    /// cell storage (width rounded *down* to a power of two, min 16;
    /// `depth` clamped as in [`CountMinSketch::new`]).
    pub fn with_budget(bytes: usize, depth: usize, seed: u64) -> Self {
        let depth = depth.clamp(1, MAX_DEPTH);
        let per_row = bytes / (8 * depth);
        let width = if per_row < 16 {
            16
        } else {
            // Largest power of two ≤ per_row.
            1usize << (usize::BITS - 1 - per_row.leading_zeros())
        };
        Self::new(depth, width, seed)
    }

    /// Row width in cells (a power of two).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of hash rows.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Seed the row hashes derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Row-major cell counters (`depth × width` values).
    pub fn cells(&self) -> &[u64] {
        &self.cells
    }

    /// Exact total of all increments ever applied (or merged in).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Rebuilds a sketch from codec-decoded parts. Returns `None` when
    /// `cells.len() != depth × width`, `depth` is outside
    /// `1..=`[`MAX_DEPTH`] or `width` is not a power of two.
    pub fn from_raw_parts(
        depth: usize,
        width: usize,
        seed: u64,
        cells: Vec<u64>,
        total: u64,
    ) -> Option<Self> {
        if depth == 0 || depth > MAX_DEPTH || width == 0 || !width.is_power_of_two() {
            return None;
        }
        if cells.len() != depth.checked_mul(width)? {
            return None;
        }
        Some(Self {
            width,
            depth,
            seed,
            row_seeds: row_seeds(seed, depth),
            cells,
            total,
        })
    }

    #[inline]
    fn index(&self, row: usize, key: u64) -> usize {
        row * self.width + (derive_seed(self.row_seeds[row], key) as usize & (self.width - 1))
    }

    /// Adds `count` to `key`'s cell in every row.
    pub fn increment(&mut self, key: u64, count: u64) {
        self.increment_if(key, count, |_| true);
    }

    /// Point estimate for `key`: the minimum cell over rows (never an
    /// underestimate).
    pub fn estimate(&self, key: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.cells[self.index(row, key)])
            .min()
            .unwrap_or(0)
    }

    /// Shows `admit` the [`CountMinSketch::estimate`] for `key` and,
    /// when it returns `true`, adds `count` to `key`'s cell in every
    /// row, as [`CountMinSketch::increment`] would. One hash per row
    /// serves both. Returns what `admit` returned.
    pub fn increment_if(&mut self, key: u64, count: u64, admit: impl FnOnce(u64) -> bool) -> bool {
        let mut cells = [0usize; MAX_DEPTH];
        let cells = &mut cells[..self.depth];
        for (row, cell) in cells.iter_mut().enumerate() {
            *cell = self.index(row, key);
        }
        let estimate = cells.iter().map(|&i| self.cells[i]).min().unwrap_or(0);
        if !admit(estimate) {
            return false;
        }
        for &i in cells.iter() {
            self.cells[i] = self.cells[i].saturating_add(count);
        }
        self.total = self.total.saturating_add(count);
        true
    }

    /// Linear-counting estimate of the number of distinct keys seen,
    /// from the zero-cell occupancy of row 0. Saturates at `total()`
    /// when the row is full.
    pub fn distinct_estimate(&self) -> u64 {
        let row = &self.cells[..self.width];
        let zeros = row.iter().filter(|&&c| c == 0).count();
        if zeros == 0 {
            return self.total;
        }
        let w = self.width as f64;
        let est = (w * (w / zeros as f64).ln()).round() as u64;
        est.min(self.total)
    }

    /// Bytes of heap + inline state.
    pub fn estimated_bytes(&self) -> usize {
        64 + 8 * self.row_seeds.len() + 8 * self.cells.len()
    }
}

impl MergeableSummary for CountMinSketch {
    /// Cell-wise addition when geometries match (exact); when they do
    /// not, only the exact `total` is carried over and the point
    /// estimates degrade — totals are sacred, estimates are not.
    fn merge_from(&mut self, other: &Self) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        if self.width == other.width && self.depth == other.depth && self.seed == other.seed {
            for (c, o) in self.cells.iter_mut().zip(&other.cells) {
                *c = c.saturating_add(*o);
            }
        }
        self.total = self.total.saturating_add(other.total);
    }

    fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// Metwally et al.'s SpaceSaving top-k candidate table.
///
/// Holds at most `capacity` `(key, count, err)` entries; a new key past
/// capacity evicts the minimum-count entry (ties broken by smaller
/// key, so eviction is deterministic) and inherits its count as the
/// admission error bound. Guarantees: `count - err ≤ true ≤ count`,
/// and any key with true count above the minimum table count is
/// present.
///
/// The table is an indexed binary min-heap: fixed slots hold the
/// entries, a hash map finds a key's slot, and a heap of slot ids
/// ordered by `(count, key)` keeps the victim at its root. Keys are
/// unique, so that order is total and the victim is the same whatever
/// the heap's layout. The map hashes with [`sst_stats::hash::KeyedU64`]
/// under a random per-table key: adversarial keys cannot be picked to
/// collide, and since the map is only ever probed, never iterated, no
/// output depends on its layout. An increment is one hash probe and a
/// sift-down (counts only grow); an eviction rewrites the root slot in
/// place. [`SpaceSaving::offer_if`] serves a lookup and the offer that
/// depends on it with that one probe.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    /// key → slot id.
    slot_of: U64Map<u32>,
    /// The entries; a slot is rewritten in place, never freed.
    slots: Vec<Slot>,
    /// Slot ids as a binary min-heap on `(count, key)`.
    heap: Vec<u32>,
    /// Slot id → its index in `heap`.
    pos: Vec<u32>,
}

/// One SpaceSaving entry.
#[derive(Debug, Clone, Copy)]
struct Slot {
    count: u64,
    key: u64,
    err: u64,
}

/// Two tables are equal when they hold the same entries under the same
/// capacity, however their heaps are laid out.
impl PartialEq for SpaceSaving {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.entries() == other.entries()
    }
}

impl SpaceSaving {
    /// Creates a table tracking up to `capacity` candidates (min 4).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(4);
        Self {
            capacity,
            slot_of: U64Map::with_capacity_and_hasher(capacity, Default::default()),
            slots: Vec::with_capacity(capacity),
            heap: Vec::with_capacity(capacity),
            pos: Vec::with_capacity(capacity),
        }
    }

    /// Maximum number of tracked candidates.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of tracked candidates.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no key has ever been offered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Offers `count` observations of `key`.
    pub fn offer(&mut self, key: u64, count: u64) {
        self.offer_if(key, count, |_| true);
    }

    /// Shows `admit` the [`SpaceSaving::candidate`] pair for `key` and,
    /// when it returns `true`, offers `count` observations of `key`, as
    /// [`SpaceSaving::offer`] would. One table probe serves both.
    /// Returns what `admit` returned.
    pub fn offer_if(
        &mut self,
        key: u64,
        count: u64,
        admit: impl FnOnce(Option<(u64, u64)>) -> bool,
    ) -> bool {
        let vacant = match self.slot_of.entry(key) {
            Entry::Occupied(e) => {
                let slot = *e.get() as usize;
                let s = &mut self.slots[slot];
                if !admit(Some((s.count, s.err))) {
                    return false;
                }
                s.count = s.count.saturating_add(count);
                self.sift_down(self.pos[slot] as usize);
                return true;
            }
            Entry::Vacant(e) => e,
        };
        if !admit(None) {
            return false;
        }
        if self.slots.len() < self.capacity {
            let id = u32::try_from(self.slots.len()).expect("capacity fits u32");
            vacant.insert(id);
            self.push_slot(Slot { count, key, err: 0 });
            self.sift_up(self.heap.len() - 1);
            return true;
        }
        // Deterministic victim: smallest count, then smallest key — the
        // heap's root. The newcomer takes over its slot.
        let root = self.heap[0];
        vacant.insert(root);
        let victim = self.slots[root as usize];
        self.slot_of.remove(&victim.key);
        self.slots[root as usize] = Slot {
            count: victim.count.saturating_add(count),
            key,
            err: victim.count,
        };
        self.sift_down(0);
        true
    }

    /// Upper-bound count for `key`, or 0 if untracked.
    pub fn estimate(&self, key: u64) -> u64 {
        self.candidate(key).map_or(0, |(c, _)| c)
    }

    /// The tracked `(count, err)` pair for `key`, or `None` when the
    /// key is not in the candidate table. `count − err` is a **lower**
    /// bound on the key's true observation count — the guaranteed-mass
    /// signal promotion gates ride on (a count-min estimate alone can
    /// only over-count).
    pub fn candidate(&self, key: u64) -> Option<(u64, u64)> {
        self.slot_of.get(&key).map(|&slot| {
            let s = &self.slots[slot as usize];
            (s.count, s.err)
        })
    }

    /// All candidates as `(key, count, err)`, sorted by key — the
    /// canonical (deterministic) snapshot order.
    pub fn entries(&self) -> Vec<(u64, u64, u64)> {
        let mut entries: Vec<(u64, u64, u64)> =
            self.slots.iter().map(|s| (s.key, s.count, s.err)).collect();
        entries.sort_unstable_by_key(|&(k, _, _)| k);
        entries
    }

    /// Rebuilds a table from codec-decoded `(key, count, err)` entries.
    /// Returns `None` when entries exceed `capacity` or contain
    /// duplicate keys.
    pub fn from_entries(capacity: usize, entries: &[(u64, u64, u64)]) -> Option<Self> {
        let capacity = capacity.max(4);
        if entries.len() > capacity {
            return None;
        }
        let mut t = Self::new(capacity);
        for &(key, count, err) in entries {
            let slot = t.push_slot(Slot { count, key, err });
            if t.slot_of.insert(key, slot).is_some() {
                return None;
            }
        }
        for i in (0..t.heap.len() / 2).rev() {
            t.sift_down(i);
        }
        Some(t)
    }

    /// Merges another table through [`merge_candidates`] under the
    /// larger capacity. The result depends only on the two inputs, not
    /// their build order — but truncation makes this approximate,
    /// unlike [`CountMinSketch`]'s exact merge.
    pub fn merge_from(&mut self, other: &Self) {
        if other.is_empty() {
            return;
        }
        let capacity = self.capacity.max(other.capacity);
        let merged = merge_candidates(capacity, &self.entries(), &other.entries());
        *self = Self::from_entries(capacity, &merged)
            .expect("merged candidates are unique and within capacity");
    }

    /// Bytes of heap + inline state: per entry, its slot, its heap and
    /// position indices, and its hash-map bucket plus control byte.
    pub fn estimated_bytes(&self) -> usize {
        use std::mem::size_of;
        const PER_ENTRY: usize =
            size_of::<Slot>() + 2 * size_of::<u32>() + size_of::<(u64, u32)>() + 1;
        size_of::<Self>() + self.slots.len() * PER_ENTRY
    }

    /// Appends `slot` as a new heap leaf; returns its slot id.
    fn push_slot(&mut self, slot: Slot) -> u32 {
        let id = u32::try_from(self.slots.len()).expect("capacity fits u32");
        self.slots.push(slot);
        self.pos.push(id);
        self.heap.push(id);
        id
    }

    /// The heap order of position `i`: smaller count first, then
    /// smaller key.
    fn rank_at(&self, i: usize) -> (u64, u64) {
        let s = &self.slots[self.heap[i] as usize];
        (s.count, s.key)
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i as u32;
        self.pos[self.heap[j] as usize] = j as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.rank_at(parent) <= self.rank_at(i) {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.rank_at(right) < self.rank_at(left) {
                right
            } else {
                left
            };
            if self.rank_at(i) <= self.rank_at(child) {
                break;
            }
            self.swap(i, child);
            i = child;
        }
    }
}

/// The union of two SpaceSaving candidate lists, `(key, count, err)`
/// each: counts and error bounds add for shared keys, and the union is
/// truncated to `capacity` keeping the highest counts (ties keep the
/// smaller key). Returns the kept entries sorted by key. The result
/// depends only on the two lists' contents, not on their order or
/// which comes first.
pub fn merge_candidates(
    capacity: usize,
    a: &[(u64, u64, u64)],
    b: &[(u64, u64, u64)],
) -> Vec<(u64, u64, u64)> {
    let mut union: BTreeMap<u64, (u64, u64)> = a.iter().map(|&(k, c, e)| (k, (c, e))).collect();
    for &(k, c, e) in b {
        let slot = union.entry(k).or_insert((0, 0));
        slot.0 = slot.0.saturating_add(c);
        slot.1 = slot.1.saturating_add(e);
    }
    let mut ranked: Vec<(u64, u64, u64)> = union.into_iter().map(|(k, (c, e))| (k, c, e)).collect();
    ranked.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    ranked.truncate(capacity);
    ranked.sort_by_key(|&(k, _, _)| k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cm_never_underestimates_and_is_exact_when_sparse() {
        let mut cm = CountMinSketch::new(4, 1 << 12, 7);
        for k in 0..100u64 {
            cm.increment(k, k + 1);
        }
        for k in 0..100u64 {
            assert!(cm.estimate(k) > k, "key {k}");
        }
        // 100 keys in 4096 cells: collisions are unlikely enough that
        // most estimates are exact.
        let exact = (0..100u64).filter(|&k| cm.estimate(k) == k + 1).count();
        assert!(exact > 90, "only {exact}/100 exact");
        assert_eq!(cm.total(), (1..=100).sum::<u64>());
    }

    #[test]
    fn cm_merge_is_exact_cellwise_addition() {
        let mut whole = CountMinSketch::new(4, 256, 3);
        let mut left = CountMinSketch::new(4, 256, 3);
        let mut right = CountMinSketch::new(4, 256, 3);
        for i in 0..10_000u64 {
            let key = i % 331;
            whole.increment(key, 1);
            if i % 2 == 0 {
                left.increment(key, 1);
            } else {
                right.increment(key, 1);
            }
        }
        left.merge_from(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn cm_merge_identity_laws() {
        let mut cm = CountMinSketch::new(4, 64, 1);
        cm.increment(9, 5);
        let before = cm.clone();
        cm.merge_from(&CountMinSketch::new(4, 64, 1));
        assert_eq!(cm, before);
        let mut empty = CountMinSketch::new(4, 64, 1);
        empty.merge_from(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn cm_mismatched_merge_keeps_total() {
        let mut a = CountMinSketch::new(4, 64, 1);
        let mut b = CountMinSketch::new(4, 128, 2);
        a.increment(1, 10);
        b.increment(2, 32);
        a.merge_from(&b);
        assert_eq!(a.total(), 42);
    }

    #[test]
    fn cm_budget_fits() {
        let cm = CountMinSketch::with_budget(1 << 16, 4, 0);
        assert!(cm.cells().len() * 8 <= 1 << 16);
        assert!(cm.width().is_power_of_two());
        assert_eq!(cm.width(), 2048);
    }

    #[test]
    fn cm_distinct_estimate_tracks_cardinality() {
        let mut cm = CountMinSketch::new(4, 1 << 14, 11);
        for k in 0..2000u64 {
            cm.increment(k * 2_654_435_761, 3);
        }
        let d = cm.distinct_estimate();
        assert!((1700..=2300).contains(&d), "distinct estimate {d}");
    }

    #[test]
    fn spacesaving_keeps_true_heavy_hitters() {
        let mut ss = SpaceSaving::new(16);
        // 8 heavy keys at 1000 each drowned in 10k singleton keys.
        for i in 0..10_000u64 {
            ss.offer(1_000_000 + i, 1);
            if i % 10 == 0 {
                for h in 0..8u64 {
                    ss.offer(h, 10);
                }
            }
        }
        for h in 0..8u64 {
            let est = ss.estimate(h);
            assert!(est >= 10_000, "heavy key {h} estimate {est}");
        }
        assert_eq!(ss.len(), 16);
    }

    #[test]
    fn spacesaving_eviction_is_deterministic() {
        let build = || {
            let mut ss = SpaceSaving::new(4);
            for k in [5u64, 3, 9, 1, 7, 7, 2] {
                ss.offer(k, 1);
            }
            ss.entries()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn spacesaving_merge_order_independent() {
        let mut a = SpaceSaving::new(8);
        let mut b = SpaceSaving::new(8);
        for i in 0..500u64 {
            a.offer(i % 13, 1);
            b.offer(i % 29, 2);
        }
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab.entries(), ba.entries());
    }

    #[test]
    fn spacesaving_roundtrips_entries() {
        let mut ss = SpaceSaving::new(8);
        for k in 0..20u64 {
            ss.offer(k, k + 1);
        }
        let back = SpaceSaving::from_entries(8, &ss.entries()).unwrap();
        assert_eq!(back, ss);
        assert!(SpaceSaving::from_entries(4, &ss.entries()).is_none());
    }
}
