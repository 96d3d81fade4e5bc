//! Per-stream mergeable summaries: Welford moments, a mergeable
//! reservoir of kept samples, online aggregated-variance Hurst state,
//! and tail-exceedance counters.
//!
//! Two forms exist per stream. The *live* [`StreamSummary`] is what a
//! shard updates point by point (it owns the reservoir's RNG). A
//! [`SummarySnapshot`] is its plain-data image: comparable, codable,
//! and — the property everything rests on — **mergeable**: snapshots of
//! disjoint streams combine through
//! [`sst_core::summary::MergeableSummary`] into link- and
//! network-level summaries. Every merge is a deterministic function of
//! its operands (the reservoir merge derives its RNG from the operand
//! state), so folding snapshots in a canonical order yields
//! bitwise-identical results no matter how the streams were sharded —
//! the engine's merge-equivalence tests pin exactly that.
//!
//! A live summary a collector has shipped also feeds a
//! `SummaryJournal`: the counters of the shipped state and the
//! reservoir slots and cascade levels rewritten since, from which the
//! collector builds the summary's next differential patch without a
//! copy of what it shipped.

use crate::diff::BaseFingerprint;
use rand::Rng;
use sst_core::summary::{Compactable, MergeableSummary};
use sst_hurst::online::{CascadePatch, OnlineVarianceTime};
use sst_stats::rng::{derive_seed, rng_from_seed};
use sst_stats::RunningStats;
use std::sync::Arc;

/// Domain-separation tag for reservoir-merge RNG derivation.
const MERGE_TAG: u64 = 0x4D45_5247;

/// Domain-separation tag for reservoir-compaction RNG derivation.
const COMPACT_TAG: u64 = 0x434F_4D50;

/// Domain-separation tag for a live reservoir's replacement draws.
const DRAW_TAG: u64 = 0x5E5E;

/// Shared configuration for the per-stream summaries.
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryConfig {
    /// Kept samples retained per stream (reservoir capacity).
    pub reservoir_capacity: usize,
    /// Ascending exceedance thresholds for the tail counters.
    pub tail_thresholds: Vec<f64>,
}

impl Default for SummaryConfig {
    fn default() -> Self {
        SummaryConfig {
            reservoir_capacity: 64,
            tail_thresholds: vec![1.0, 10.0, 100.0, 1e3, 1e4, 1e5],
        }
    }
}

/// Bounded uniform sample of a stream (Vitter's algorithm R), with a
/// deterministic, state-derived merge.
///
/// The replacement draws come from a generator seeded from
/// `(seed, 0x5E5E)`, made at the first draw — when the sample first
/// holds `cap` items. Until then the reservoir carries no generator,
/// and most streams' reservoirs never fill. Making it late changes no
/// draw: nothing reads the generator before that point.
#[derive(Clone, Debug)]
pub struct Reservoir {
    cap: usize,
    seed: u64,
    seen: u64,
    items: Vec<f64>,
    rng: Option<Box<rand::rngs::StdRng>>,
}

impl Reservoir {
    /// Creates an empty reservoir of the given capacity; `seed` drives
    /// the replacement draws (derive it from the stream key so
    /// identical streams reproduce identical reservoirs).
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            cap,
            seed,
            seen: 0,
            items: Vec::with_capacity(cap.min(64)),
            rng: None,
        }
    }

    /// Offers one value.
    pub fn push(&mut self, v: f64) {
        self.offer(v);
    }

    /// Offers one value; returns the slot it overwrote, if any, with
    /// that slot's previous value.
    fn offer(&mut self, v: f64) -> Option<(usize, f64)> {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(v);
            return None;
        }
        if self.cap == 0 {
            return None;
        }
        // Replace slot j with probability cap/seen: j uniform over all
        // seen items, replacement iff it lands inside the reservoir.
        let seed = self.seed;
        let rng = self
            .rng
            .get_or_insert_with(|| Box::new(rng_from_seed(derive_seed(seed, DRAW_TAG))));
        let j = rng.gen_range(0..self.seen as usize);
        (j < self.cap).then(|| (j, std::mem::replace(&mut self.items[j], v)))
    }

    /// Plain-data image of the reservoir.
    pub fn snapshot(&self) -> ReservoirSnapshot {
        ReservoirSnapshot {
            cap: self.cap,
            seed: self.seed,
            seen: self.seen,
            items: self.items.clone(),
        }
    }

    /// Shrinks the reservoir to at most `max_items` retained samples
    /// (deterministic uniform subsample) and clamps the capacity so it
    /// stays there — the lifecycle layer's compaction primitive.
    /// `seen` is untouched; the retained set remains an approximately
    /// uniform sample of the stream (each survivor of a uniform sample
    /// of a uniform sample is itself uniform).
    pub fn compact(&mut self, max_items: usize) {
        compact_items(
            &mut self.items,
            &mut self.cap,
            self.seed,
            self.seen,
            max_items,
        );
    }

    /// Approximate in-memory footprint (inline state + ChaCha RNG +
    /// retained items).
    ///
    /// The 304 B generator term is nominal: a reservoir holds a
    /// pointer inline, and its 304 B four-block generator only from its
    /// first replacement draw. The term stays because compaction is
    /// gated by this figure, and compaction's clamps are visible on the
    /// wire.
    pub fn estimated_bytes(&self) -> usize {
        // cap/seed/seen + Vec header + 304 B StdRng + items.
        24 + 24 + 304 + 8 * self.items.capacity()
    }
}

/// The one compaction primitive behind both reservoir forms (live and
/// snapshot — they must stay in lockstep so a live stream and its
/// image compact identically): deterministic uniform subsample of
/// `items` down to `max_items` survivors in original relative order,
/// with `cap` clamped so the reservoir stays at that size. The draw
/// RNG derives from the reservoir's identity (`seed`, `seen`, length),
/// making compaction a pure function of state. `seen` is untouched;
/// the retained set remains an approximately uniform sample of the
/// stream (each survivor of a uniform sample of a uniform sample is
/// itself uniform).
///
/// Ordering contract: item `i` draws the `i`-th key, and the survivors
/// are the `max_items` largest keys, ties going to the lower index —
/// the first `max_items` of a stable descending sort by key. Only that
/// set matters (survivors keep their original order), so it is found
/// by selection, not by sorting every key.
fn compact_items(items: &mut Vec<f64>, cap: &mut usize, seed: u64, seen: u64, max_items: usize) {
    let max_items = max_items.max(1);
    if items.len() > max_items {
        let mut rng = rng_from_seed(derive_seed(
            derive_seed(COMPACT_TAG, seed),
            seen ^ (items.len() as u64).rotate_left(32),
        ));
        let mut ranks: Vec<u128> = (0..items.len())
            .map(|i| key_rank(rng.gen::<f64>(), i))
            .collect();
        keep_first_ranks(&mut ranks, max_items);
        let mut pick: Vec<usize> = ranks.into_iter().map(rank_index).collect();
        pick.sort_unstable();
        *items = pick.into_iter().map(|i| items[i]).collect();
        // collect() may have reused a larger source allocation
        // (in-place specialization); compaction is about memory.
        items.shrink_to_fit();
    }
    *cap = (*cap).min(max_items);
}

/// The sort rank of a merge or compaction key drawn for item `index`:
/// ascending ranks order keys descending and equal keys by ascending
/// index, as a stable descending sort by key would. Every such key
/// lies in `[+0, 1]`, where a double's bit pattern orders like
/// `f64::total_cmp`.
fn key_rank(key: f64, index: usize) -> u128 {
    debug_assert!(key.is_sign_positive() && key <= 1.0, "key {key}");
    (u128::from(!key.to_bits()) << 64) | index as u128
}

/// The item index a [`key_rank`] carries.
fn rank_index(rank: u128) -> usize {
    rank as u64 as usize
}

/// Shrinks `ranks` to its `k` smallest, in no particular order.
fn keep_first_ranks(ranks: &mut Vec<u128>, k: usize) {
    if ranks.len() > k {
        ranks.select_nth_unstable(k);
        ranks.truncate(k);
    }
}

/// Plain-data image of a [`Reservoir`]: comparable, codable, mergeable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReservoirSnapshot {
    /// Capacity of the source reservoir.
    pub cap: usize,
    /// Seed of the source reservoir (merges fold it in).
    pub seed: u64,
    /// Stream values offered to the source reservoir.
    pub seen: u64,
    /// The retained sample.
    pub items: Vec<f64>,
}

impl ReservoirSnapshot {
    /// [`Reservoir::compact`] on the plain-data image: deterministic
    /// uniform subsample down to `max_items`, capacity clamped — the
    /// shared `compact_items` primitive, so live and snapshot forms
    /// of the same reservoir compact to identical items.
    pub fn compact(&mut self, max_items: usize) {
        compact_items(
            &mut self.items,
            &mut self.cap,
            self.seed,
            self.seen,
            max_items,
        );
    }

    /// Approximate in-memory footprint (no term is nominal: a snapshot
    /// holds no generator).
    pub fn estimated_bytes(&self) -> usize {
        24 + 24 + 8 * self.items.capacity()
    }

    /// The slot-level patch taking `base` to `self`, or `None` when
    /// the pair is not successive snapshots of one reservoir (identity
    /// — cap or seed — changed, or the sample shrank under
    /// compaction): ship the full reservoir instead. Slot values
    /// travel verbatim, compared at the bit level, so applying the
    /// patch to `base` reproduces `self` exactly. In steady state
    /// (reservoir full, few new points) at most one slot per
    /// replacement draw changes, so the patch is tiny next to `cap`
    /// retained items.
    pub fn diff_from(&self, base: &ReservoirSnapshot) -> Option<ReservoirPatch> {
        if self.cap != base.cap
            || self.seed != base.seed
            || self.seen < base.seen
            || self.items.len() < base.items.len()
        {
            return None;
        }
        let mut slots = Vec::new();
        for (i, v) in self.items.iter().enumerate() {
            let same = base
                .items
                .get(i)
                .is_some_and(|b| b.to_bits() == v.to_bits());
            if !same {
                slots.push((i, *v));
            }
        }
        Some(ReservoirPatch {
            seen_delta: self.seen - base.seen,
            new_len: self.items.len(),
            slots,
        })
    }

    /// Applies a [`ReservoirSnapshot::diff_from`] patch. Returns
    /// `false` — leaving the snapshot untouched — when the patch is
    /// inconsistent with this state (sample would shrink or exceed
    /// `cap`, appended slots not covered, indices unsorted, counter
    /// overflow, or `len > seen` afterwards); the receiver's baseline
    /// is then lost and it should resync.
    pub fn apply_patch(&mut self, p: &ReservoirPatch) -> bool {
        if p.new_len < self.items.len() || p.new_len > self.cap {
            return false;
        }
        let Some(seen) = self.seen.checked_add(p.seen_delta) else {
            return false;
        };
        if p.new_len as u64 > seen {
            return false;
        }
        let mut prev: Option<usize> = None;
        for &(i, _) in &p.slots {
            if i >= p.new_len || prev.is_some_and(|q| i <= q) {
                return false;
            }
            prev = Some(i);
        }
        // Every appended slot must carry a value — a gap would
        // fabricate filler the sender never had.
        for i in self.items.len()..p.new_len {
            if p.slots.binary_search_by_key(&i, |&(j, _)| j).is_err() {
                return false;
            }
        }
        self.items.resize(p.new_len, 0.0);
        for &(i, v) in &p.slots {
            // Every `i < new_len` was checked above; `get_mut` keeps
            // the network-fed path free of an index panic regardless.
            if let Some(slot) = self.items.get_mut(i) {
                *slot = v;
            }
        }
        self.seen = seen;
        true
    }

    /// Merges `other` (a reservoir over a disjoint stream) into `self`:
    /// a weighted sample of the union, each retained item standing for
    /// `seen/len` originals (Efraimidis-Spirakis keys, largest-key
    /// `cap` survive). The merge RNG derives from both operands' seeds
    /// and counts, so equal inputs always produce equal outputs.
    ///
    /// Ordering contract: the items of `self`, then of `other`, draw
    /// keys `u^(len/seen)` in that order, and the result holds the
    /// `cap` largest keys' items by descending key, equal keys in item
    /// order — a stable descending sort by key, truncated to `cap`. The
    /// keys lie in `[+0, 1]`; only the survivors are sorted. A part
    /// whose `seen` equals its length keys its items by `u` itself,
    /// which is `u.powf(1.0)` exactly.
    fn merge_from(&mut self, other: &ReservoirSnapshot) {
        if other.seen == 0 {
            return;
        }
        if self.seen == 0 {
            *self = other.clone();
            return;
        }
        let cap = self.cap.max(other.cap);
        let mut rng = rng_from_seed(derive_seed(
            derive_seed(MERGE_TAG, self.seed ^ other.seed.rotate_left(32)),
            self.seen.wrapping_add(other.seen.rotate_left(17)),
        ));
        let mut ranks: Vec<u128> = Vec::with_capacity(self.items.len() + other.items.len());
        for part in [&*self, other] {
            if part.items.is_empty() {
                continue;
            }
            let w = part.seen as f64 / part.items.len() as f64;
            let exponent = 1.0 / w;
            for _ in &part.items {
                let u: f64 = loop {
                    let u = rng.gen::<f64>();
                    if u > 0.0 {
                        break u;
                    }
                };
                let key = if exponent == 1.0 { u } else { u.powf(exponent) };
                ranks.push(key_rank(key, ranks.len()));
            }
        }
        keep_first_ranks(&mut ranks, cap);
        ranks.sort_unstable();
        let mine = self.items.len();
        let items = ranks
            .into_iter()
            .map(|r| match rank_index(r).checked_sub(mine) {
                None => self.items[rank_index(r)],
                Some(i) => other.items[i],
            })
            .collect();
        self.items = items;
        self.cap = cap;
        self.seed = derive_seed(self.seed, other.seed);
        self.seen += other.seen;
    }
}

/// A differential update taking an older [`ReservoirSnapshot`] to a
/// newer one: only the inserted/replaced slots since the baseline,
/// keyed by slot index, plus the monotone `seen` delta.
#[derive(Clone, Debug, PartialEq)]
pub struct ReservoirPatch {
    /// `new.seen − base.seen`.
    pub seen_delta: u64,
    /// Retained-sample length of the new state (never shrinks in a
    /// diffable pair).
    pub new_len: usize,
    /// Changed slots as `(index, value)`, strictly ascending by index;
    /// values verbatim.
    pub slots: Vec<(usize, f64)>,
}

/// The reservoir slots overwritten since a mark, with each one's value
/// at the mark: [`ReservoirSnapshot::diff_from`] against the marked
/// reservoir, without a copy of it. Only a push overwrites a slot;
/// compaction either changes nothing or clamps `cap`, which makes the
/// pair undiffable anyway.
#[derive(Clone, Debug, Default)]
struct SlotJournal {
    /// Capacity at the mark.
    cap: usize,
    /// `seen` at the mark.
    seen: u64,
    /// Retained-sample length at the mark.
    len: usize,
    /// `(slot, value bits at the mark, current value)` of every
    /// overwritten slot below `len`, ascending by slot — the current
    /// value rides along so a diff reads no reservoir slot.
    prior: Vec<(usize, u64, f64)>,
}

impl SlotJournal {
    fn mark(&mut self, r: &Reservoir) {
        (self.cap, self.seen, self.len) = (r.cap, r.seen, r.items.len());
        self.prior.clear();
    }

    /// Records that `slot`, holding `was`, has just been overwritten
    /// with `now`. Slots at or past the marked length always ship, so
    /// they need no record.
    fn note(&mut self, slot: usize, was: f64, now: f64) {
        if slot < self.len {
            match self.prior.binary_search_by_key(&slot, |p| p.0) {
                Ok(at) => self.prior[at].2 = now,
                Err(at) => self.prior.insert(at, (slot, was.to_bits(), now)),
            }
        }
    }

    /// The patch taking the marked reservoir to `r`. The seed never
    /// changes on a live reservoir, so it is not compared.
    fn diff(&self, r: &Reservoir) -> Option<ReservoirPatch> {
        if r.cap != self.cap || r.seen < self.seen || r.items.len() < self.len {
            return None;
        }
        let appended = &r.items[self.len..];
        let mut slots = Vec::with_capacity(self.prior.len() + appended.len());
        for &(i, was, now) in &self.prior {
            if now.to_bits() != was {
                slots.push((i, now));
            }
        }
        slots.extend((self.len..).zip(appended.iter().copied()));
        Some(ReservoirPatch {
            seen_delta: r.seen - self.seen,
            new_len: r.items.len(),
            slots,
        })
    }
}

/// Exceedance counters over a fixed ascending threshold ladder — the
/// mergeable form of the paper's tail interest (how often the rate
/// process exceeds a level; counts of disjoint streams add).
///
/// The ladder is shared, not owned: an engine allocates its configured
/// ladder once and every stream's counter points at it, a decoded
/// snapshot's entries share one ladder per run of equal ladders, and a
/// clone or snapshot shares its source's. Only the counts are per
/// counter.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TailCounter {
    /// Ascending thresholds.
    thresholds: Arc<[f64]>,
    /// `counts[i]` = observations strictly above `thresholds[i]`.
    counts: Vec<u64>,
    /// Total observations.
    total: u64,
}

/// Panics unless `thresholds` ascend strictly.
fn assert_ascending(thresholds: &[f64]) {
    assert!(
        thresholds.windows(2).all(|w| w[0] < w[1]),
        "thresholds must be strictly ascending"
    );
}

impl TailCounter {
    /// Creates counters over `thresholds` (must be ascending).
    ///
    /// # Panics
    ///
    /// Panics if the thresholds are not strictly ascending.
    pub fn new(thresholds: &[f64]) -> Self {
        TailCounter::on_ladder(TailCounter::shared_ladder(thresholds))
    }

    /// The shared ladder of `thresholds`, for [`TailCounter::on_ladder`].
    ///
    /// # Panics
    ///
    /// Panics if the thresholds are not strictly ascending.
    pub(crate) fn shared_ladder(thresholds: &[f64]) -> Arc<[f64]> {
        assert_ascending(thresholds);
        Arc::from(thresholds)
    }

    /// Zeroed counters over a ladder built by [`TailCounter::shared_ladder`].
    pub(crate) fn on_ladder(thresholds: Arc<[f64]>) -> Self {
        TailCounter {
            counts: vec![0; thresholds.len()],
            thresholds,
            total: 0,
        }
    }

    /// The shared threshold ladder.
    #[cfg(test)]
    pub(crate) fn thresholds(&self) -> &Arc<[f64]> {
        &self.thresholds
    }

    /// Counts one observation.
    pub fn push(&mut self, v: f64) {
        self.total += 1;
        for (t, c) in self.thresholds.iter().zip(self.counts.iter_mut()) {
            if v > *t {
                *c += 1;
            } else {
                break; // ascending: nothing larger is exceeded either
            }
        }
    }

    /// The `(threshold, exceedance count)` ladder.
    pub fn ladder(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.thresholds
            .iter()
            .copied()
            .zip(self.counts.iter().copied())
    }

    /// Total observations counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Empirical exceedance probability `P(X > thresholds[i])`.
    pub fn exceedance(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// Raw state for serialization: `(thresholds, counts, total)`.
    pub fn raw_parts(&self) -> (&[f64], &[u64], u64) {
        (&self.thresholds, &self.counts, self.total)
    }

    /// Approximate in-memory footprint. The ladder is fixed at
    /// configuration time, so this never shrinks under compaction —
    /// exceedance *totals* are sacred.
    ///
    /// One of the two vector headers and the threshold half of the
    /// per-rung 16 B are nominal: the counter owns only its counts, and
    /// shares the ladder. They stay because compaction budgets around
    /// this figure and frames are cut by it, both visible on the wire.
    pub fn estimated_bytes(&self) -> usize {
        48 + 8 + 16 * self.thresholds.len()
    }

    /// Rebuilds counters from [`TailCounter::raw_parts`] output. A
    /// ladder passed as an `Arc<[f64]>` is shared, not copied.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or non-ascending thresholds.
    pub fn from_raw_parts(thresholds: impl Into<Arc<[f64]>>, counts: Vec<u64>, total: u64) -> Self {
        let thresholds = thresholds.into();
        assert_eq!(thresholds.len(), counts.len(), "ladder length mismatch");
        assert_ascending(&thresholds);
        TailCounter {
            thresholds,
            counts,
            total,
        }
    }

    /// The `(per-rung count deltas, total delta)` taking `base` to
    /// `self`, or `None` when the ladders differ (bit-compared — these
    /// are successive snapshots of one counter or nothing) or any
    /// counter moved backwards. Counters are monotone integers, so
    /// `base + delta` reproduces `self` exactly.
    pub fn diff_from(&self, base: &TailCounter) -> Option<(Vec<u64>, u64)> {
        if !same_ladder(&self.thresholds, &base.thresholds) {
            return None;
        }
        tail_deltas(&self.counts, self.total, &base.counts, base.total)
    }

    /// Advances the counters by a [`TailCounter::diff_from`] delta.
    /// Returns `false` — leaving the counter untouched — on rung-count
    /// mismatch, overflow, or a rung count exceeding the new total.
    pub fn apply_deltas(&mut self, deltas: &[u64], total_delta: u64) -> bool {
        if deltas.len() != self.counts.len() {
            return false;
        }
        let Some(total) = self.total.checked_add(total_delta) else {
            return false;
        };
        let mut counts = Vec::with_capacity(self.counts.len());
        for (c, d) in self.counts.iter().zip(deltas) {
            match c.checked_add(*d) {
                Some(n) if n <= total => counts.push(n),
                _ => return false,
            }
        }
        self.counts = counts;
        self.total = total;
        true
    }

    fn merge_from(&mut self, other: &TailCounter) {
        // A counter that observed nothing carries no information — it
        // is the merge identity even if it was configured with a
        // (different) ladder, so it must never drag the other side's
        // counts into an intersection.
        if other.total == 0 {
            return;
        }
        if self.total == 0 {
            *self = other.clone();
            return;
        }
        if self.thresholds == other.thresholds {
            for (c, o) in self.counts.iter_mut().zip(&other.counts) {
                *c += o;
            }
            self.total += other.total;
            return;
        }
        // Ladders differ (snapshots from engines configured with
        // different thresholds — `monitor_tool merge` accepts arbitrary
        // inputs, so this must not panic): degrade to the intersection.
        // Counts at shared rungs stay exact; rungs only one side
        // measured are dropped, because an exceedance count at a
        // threshold the other stream never tracked cannot be combined.
        let mut thresholds = Vec::new();
        let mut counts = Vec::new();
        for (i, t) in self.thresholds.iter().enumerate() {
            if let Some(j) = other.thresholds.iter().position(|o| o == t) {
                thresholds.push(*t);
                counts.push(self.counts[i] + other.counts[j]);
            }
        }
        self.thresholds = thresholds.into();
        self.counts = counts;
        self.total += other.total;
    }
}

/// `true` when two ladders hold the same thresholds bit for bit.
fn same_ladder(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && (std::ptr::eq(a, b) || a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()))
}

/// The `(per-rung count deltas, total delta)` taking counts `base` and
/// total `base_total` to `counts` and `total`, or `None` when any
/// counter moved backwards.
fn tail_deltas(
    counts: &[u64],
    total: u64,
    base: &[u64],
    base_total: u64,
) -> Option<(Vec<u64>, u64)> {
    let total = total.checked_sub(base_total)?;
    let mut deltas = Vec::with_capacity(counts.len());
    for (c, b) in counts.iter().zip(base) {
        deltas.push(c.checked_sub(*b)?);
    }
    Some((deltas, total))
}

/// Live per-stream summary: what a shard updates for every kept sample.
#[derive(Clone, Debug)]
pub struct StreamSummary {
    moments: RunningStats,
    hurst: OnlineVarianceTime,
    reservoir: Reservoir,
    tail: TailCounter,
}

impl StreamSummary {
    /// Creates an empty summary; `seed` drives the reservoir.
    ///
    /// # Panics
    ///
    /// Panics if the configured thresholds are not strictly ascending.
    pub fn new(config: &SummaryConfig, seed: u64) -> Self {
        StreamSummary::on_ladder(
            config,
            TailCounter::shared_ladder(&config.tail_thresholds),
            seed,
        )
    }

    /// [`StreamSummary::new`] with the tail counter on `ladder`, which
    /// must be [`TailCounter::shared_ladder`] of `config.tail_thresholds`.
    pub(crate) fn on_ladder(config: &SummaryConfig, ladder: Arc<[f64]>, seed: u64) -> Self {
        StreamSummary {
            moments: RunningStats::new(),
            hurst: OnlineVarianceTime::new(),
            reservoir: Reservoir::new(config.reservoir_capacity, seed),
            tail: TailCounter::on_ladder(ladder),
        }
    }

    /// Absorbs one kept sample.
    pub fn push(&mut self, v: f64) {
        self.push_journaled(v, None);
    }

    /// [`StreamSummary::push`], noting in `journal`, when there is one,
    /// the cascade levels and reservoir slot it rewrites.
    pub(crate) fn push_journaled(&mut self, v: f64, journal: Option<&mut SummaryJournal>) {
        self.moments.push(v);
        self.tail.push(v);
        match journal {
            None => {
                self.hurst.push(v);
                self.reservoir.push(v);
            }
            Some(j) => {
                j.cascade.note_push(&self.hurst);
                self.hurst.push(v);
                if let Some((slot, was)) = self.reservoir.offer(v) {
                    j.reservoir.note(slot, was, v);
                }
            }
        }
    }

    /// Kept samples absorbed so far.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// Plain-data image of the summary.
    pub fn snapshot(&self) -> SummarySnapshot {
        SummarySnapshot {
            moments: self.moments,
            hurst: self.hurst.clone(),
            reservoir: self.reservoir.snapshot(),
            tail: self.tail.clone(),
        }
    }

    /// [`StreamSummary::snapshot`] by move, for a summary that ends
    /// here: the image takes the cascade and the tail counter instead
    /// of copying them, the cascade trimmed to its length as a copy
    /// would be.
    ///
    /// The reservoir's items are still copied into an exact-size buffer
    /// (the image's `estimated_bytes` counts capacity). Every stream
    /// starts with a 64-slot buffer; freed whole, it serves the next
    /// new stream, while shrinking it in place splits it: under
    /// perfbench's `churn_tiered` evictions the split raised peak RSS
    /// from ~92 to ~109 MB (2-vCPU Linux host, glibc malloc).
    pub(crate) fn into_snapshot(self) -> SummarySnapshot {
        let mut hurst = self.hurst;
        hurst.shrink_to_fit();
        SummarySnapshot {
            moments: self.moments,
            hurst,
            reservoir: self.reservoir.snapshot(),
            tail: self.tail,
        }
    }

    /// Exact encoded length of the summary's cumulative entry.
    pub(crate) fn encoded_entry_len(&self) -> usize {
        crate::codec::encoded_entry_len(
            &self.hurst,
            self.reservoir.items.len(),
            self.tail.thresholds.len(),
        )
    }

    /// Approximate in-memory footprint of the live summary: the 40 B
    /// of moments plus its parts' estimates.
    ///
    /// Three terms are nominal, each explained at its part: the
    /// reservoir's 304 B generator, the cascade's second vector header
    /// and the tail counter's own copy of the ladder. They stay because
    /// this figure decides when a live summary compacts, and what
    /// compaction keeps is visible on the wire.
    pub fn estimated_bytes(&self) -> usize {
        40 + self.hurst.estimated_bytes()
            + self.reservoir.estimated_bytes()
            + self.tail.estimated_bytes()
    }

    /// Prunes the live summary's auxiliary state (reservoir items,
    /// coarse Hurst levels) toward `budget_bytes` — the *same split*
    /// as the snapshot-side [`Compactable`] impl, so a live stream and
    /// its snapshot compacted at the same budget retain identical
    /// levels and items (the live side's estimate then sits one
    /// nominal generator — 304 B — above the budget; the amortized
    /// bound is retired-dominated and absorbs that). Totals are
    /// untouched.
    pub fn compact(&mut self, budget_bytes: usize) {
        self.compact_journaled(budget_bytes, None);
    }

    /// [`StreamSummary::compact`], noting in `journal`, when there is
    /// one, the cascade levels it drops.
    pub(crate) fn compact_journaled(
        &mut self,
        budget_bytes: usize,
        journal: Option<&mut SummaryJournal>,
    ) {
        let (levels, items) = compaction_plan(budget_bytes, self.fixed_bytes());
        if let Some(j) = journal {
            j.cascade.note_prune(levels, &self.hurst);
        }
        self.hurst.prune_levels(levels);
        self.reservoir.compact(items);
    }

    /// The fixed-size core [`compaction_plan`] budgets around.
    fn fixed_bytes(&self) -> usize {
        40 + 56 + 48 + self.tail.estimated_bytes()
    }
}

/// Pushes note the cascade levels they rewrite from this level up;
/// below it the value count tells which levels changed. It is
/// [`compaction_plan`]'s floor: no compaction prunes a level below it.
const NOTED_FROM: usize = 4;

/// The cascade levels a live summary rewrote since a mark, with what
/// [`CascadeJournal::diff`] needs of each level's value at the mark:
/// [`OnlineVarianceTime::diff_from`] against the marked cascade,
/// without a copy of it.
///
/// A push adds a block mean to every level it rewrites, so a level
/// that only pushes touched has certainly changed. Below level 4 —
/// where no compaction prunes, so the cascade stays a binary counter —
/// the rewritten levels follow from the value counts alone: a push
/// reaches level `k` exactly when it completes a block of `2^k`
/// values, so the pushes since the mark reached `k` iff `count >> k`
/// moved. Higher levels are noted by the one push in sixteen that
/// reaches them, and by prunes. A level's marked value matters only if
/// a prune drops the level and pushes regrow it, possibly to the
/// marked bits; the journal keeps it for each rewritten level at or
/// above `prunable_from`, the lowest level the summary's compaction
/// prunes.
#[derive(Clone, Debug)]
struct CascadeJournal {
    /// Value count at the mark.
    count: u64,
    /// Level count at the mark.
    levels: usize,
    /// Lowest level compaction prunes (`usize::MAX` without one).
    prunable_from: usize,
    /// Bit `k`: level `k ≥ 4` was rewritten since the mark (levels stay
    /// under 48).
    touched: u64,
    /// `(k, stats, carry)` at the mark of every rewritten level with
    /// `prunable_from ≤ k < levels`, ascending by `k`.
    prior: Vec<(usize, RunningStats, Option<f64>)>,
}

impl CascadeJournal {
    /// A journal marked at `cascade`, whose compaction prunes no level
    /// below `prunable_from`.
    fn new(cascade: &OnlineVarianceTime, prunable_from: usize) -> Self {
        let mut journal = CascadeJournal {
            count: 0,
            levels: 0,
            prunable_from,
            touched: 0,
            prior: Vec::new(),
        };
        journal.mark(cascade);
        journal
    }

    fn mark(&mut self, cascade: &OnlineVarianceTime) {
        self.count = cascade.count();
        self.levels = cascade.level_count();
        self.touched = 0;
        self.prior.clear();
    }

    /// Notes the levels at or above 4 that pushing one more value into
    /// `cascade` is about to rewrite: level 4 when the push completes a
    /// block of 16, then each level whose carry is waiting.
    fn note_push(&mut self, cascade: &OnlineVarianceTime) {
        if !(cascade.count() + 1).is_multiple_of(1 << NOTED_FROM) {
            return;
        }
        let (_, levels) = cascade.raw_parts();
        for (k, (_, carry)) in levels.iter().enumerate().skip(NOTED_FROM) {
            self.note(k, cascade);
            if carry.is_none() {
                break;
            }
        }
    }

    /// Notes the levels a prune to `keep ≥ 4` levels is about to drop.
    fn note_prune(&mut self, keep: usize, cascade: &OnlineVarianceTime) {
        for k in keep..cascade.level_count() {
            self.note(k, cascade);
        }
    }

    /// Records that level `k` is about to be rewritten: its first
    /// rewrite since the mark sets its bit and, if a prune may drop it,
    /// keeps its current (marked) value. A level below the marked count
    /// is still present at its first rewrite — only a prune removes
    /// one, and a prune notes it first. Levels at or past the marked
    /// count always diff as changed, so they need nothing.
    fn note(&mut self, k: usize, cascade: &OnlineVarianceTime) {
        if k >= self.levels || self.touched & (1 << k) != 0 {
            return;
        }
        self.touched |= 1 << k;
        if k >= self.prunable_from {
            let (_, levels) = cascade.raw_parts();
            let (stats, carry) = levels[k];
            let at = self.prior.partition_point(|p| p.0 < k);
            self.prior.insert(at, (k, stats, carry));
        }
    }

    /// The patch taking the marked cascade to `cascade`, or `None` when
    /// the count went backwards or levels shrank: every level past the
    /// marked count ships, and every rewritten level whose bits differ
    /// from its marked bits (a rewritten level whose marked value was
    /// not kept has certainly changed).
    fn diff(&self, cascade: &OnlineVarianceTime) -> Option<CascadePatch> {
        let (count, levels) = cascade.raw_parts();
        if count < self.count || levels.len() < self.levels {
            return None;
        }
        let mut prior = self.prior.iter().peekable();
        // At most: the four counted levels, the rewritten ones above,
        // and those past the marked count.
        let bound = NOTED_FROM + self.touched.count_ones() as usize + (levels.len() - self.levels);
        let mut changed = Vec::with_capacity(bound.min(levels.len()));
        for (k, (stats, carry)) in levels.iter().enumerate() {
            let ships = if k >= self.levels {
                true
            } else if k < NOTED_FROM {
                count >> k != self.count >> k
            } else if self.touched & (1 << k) == 0 {
                false
            } else {
                // Ascending on both sides: an entry is consumed at its
                // own level.
                !prior
                    .next_if(|p| p.0 == k)
                    .is_some_and(|(_, was, was_carry)| {
                        (moments_bits(was), was_carry.map(f64::to_bits))
                            == (moments_bits(stats), carry.map(f64::to_bits))
                    })
            };
            if ships {
                changed.push((k, *stats, *carry));
            }
        }
        Some(CascadePatch {
            count_delta: count - self.count,
            new_levels: levels.len(),
            changed,
        })
    }
}

/// What a live [`StreamSummary`] changed since it was last shipped:
/// the counters of the shipped state, the tail ladder's counts, and
/// journals of the reservoir slots and cascade levels rewritten since.
/// [`SummaryJournal::patch`] is [`SummarySnapshot::diff_from`] against
/// the shipped state, built from these alone — no copy of that state
/// is kept — provided every push and compaction since the journal was
/// made went through the summary's journaled paths.
#[derive(Clone, Debug)]
pub(crate) struct SummaryJournal {
    /// Kept-sample (Welford) count at the mark. Only a push changes
    /// the moments, and every push advances the count, so the moments
    /// changed exactly when the count did.
    moments_count: u64,
    /// Tail-ladder counts and total at the mark.
    tail_counts: Vec<u64>,
    tail_total: u64,
    reservoir: SlotJournal,
    cascade: CascadeJournal,
}

impl SummaryJournal {
    /// A journal marked at `s`'s current state. `compact_budget` is the
    /// budget every compaction of `s` runs at, if any.
    pub(crate) fn new(s: &StreamSummary, compact_budget: Option<usize>) -> Self {
        // Compaction at the budget keeps the plan's levels (never
        // fewer than 4), so only levels from there up are pruned and
        // regrow.
        let prunable_from =
            compact_budget.map_or(usize::MAX, |b| compaction_plan(b, s.fixed_bytes()).0);
        let mut journal = SummaryJournal {
            moments_count: 0,
            tail_counts: Vec::new(),
            tail_total: 0,
            reservoir: SlotJournal::default(),
            cascade: CascadeJournal::new(&s.hurst, prunable_from),
        };
        journal.mark(s);
        journal
    }

    /// Moves the mark to `s`'s current state, keeping the buffers.
    pub(crate) fn mark(&mut self, s: &StreamSummary) {
        self.moments_count = s.moments.count();
        self.tail_counts.clone_from(&s.tail.counts);
        self.tail_total = s.tail.total;
        self.reservoir.mark(&s.reservoir);
        self.cascade.mark(&s.hurst);
    }

    /// The fingerprint of the marked state.
    pub(crate) fn fingerprint(&self) -> BaseFingerprint {
        BaseFingerprint {
            moments_count: self.moments_count,
            reservoir_seen: self.reservoir.seen,
            reservoir_len: self.reservoir.len as u64,
            cascade_count: self.cascade.count,
            cascade_levels: self.cascade.levels as u64,
            tail_total: self.tail_total,
        }
    }

    /// The patch taking the marked state to `s`, or `None` when the
    /// pair is not diffable — exactly [`SummarySnapshot::diff_from`].
    pub(crate) fn patch(&self, s: &StreamSummary) -> Option<SummaryPatch> {
        let moments = (s.moments.count() != self.moments_count).then_some(s.moments);
        let hurst = self.cascade.diff(&s.hurst)?;
        let reservoir = self.reservoir.diff(&s.reservoir)?;
        let tail = tail_deltas(
            &s.tail.counts,
            s.tail.total,
            &self.tail_counts,
            self.tail_total,
        )?;
        Some(SummaryPatch::of_sections(
            moments,
            (hurst, self.cascade.levels),
            (reservoir, self.reservoir.len),
            tail,
        ))
    }
}

/// Splits a summary byte budget between the two prunable parts: the
/// dyadic Hurst cascade gets up to 3/5 of the slack above the
/// fixed-size core (56 B per level), the reservoir the rest (8 B per
/// item). Floors of 4 levels (the fewest that keep
/// `OnlineVarianceTime::estimate` possible: `m ∈ {2, 4, 8}`) and
/// 4 items keep a tiny budget from destroying the summary outright, so
/// the result is best-effort when `budget` is below the core size. The
/// level floor also keeps the cascade's first four levels a binary
/// counter, which is how a [`CascadeJournal`] tells them apart.
fn compaction_plan(budget: usize, fixed: usize) -> (usize, usize) {
    let slack = budget.saturating_sub(fixed);
    let levels = ((slack * 3 / 5) / 56).clamp(4, 48);
    let items = (slack.saturating_sub(levels * 56) / 8).max(4);
    (levels, items)
}

/// Plain-data image of a [`StreamSummary`]: comparable, codable, and
/// mergeable via [`MergeableSummary`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SummarySnapshot {
    /// Welford moments of the kept samples.
    pub moments: RunningStats,
    /// Online aggregated-variance Hurst state (dyadic block stats).
    pub hurst: OnlineVarianceTime,
    /// Retained kept-sample reservoir.
    pub reservoir: ReservoirSnapshot,
    /// Tail-exceedance ladder.
    pub tail: TailCounter,
}

/// A differential update taking an older [`SummarySnapshot`] of a
/// stream to a newer one — the per-section payload of a wire-v4
/// `DeltaDiff` entry. Each section is `None` when unchanged; changed
/// floats ship verbatim (bit-compared, never delta-encoded), monotone
/// integer counters ship as deltas, so applying the patch to the
/// baseline reproduces the new snapshot **bit-for-bit**.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SummaryPatch {
    /// Replacement Welford moments, when they changed (40 B verbatim —
    /// a single kept point rewrites most of the raw parts anyway).
    pub moments: Option<RunningStats>,
    /// Cascade level increments.
    pub hurst: Option<CascadePatch>,
    /// Inserted/replaced reservoir slots.
    pub reservoir: Option<ReservoirPatch>,
    /// Tail-ladder `(per-rung count deltas, total delta)`.
    pub tail: Option<(Vec<u64>, u64)>,
}

impl SummaryPatch {
    /// Assembles a patch from its section diffs, each cascade and
    /// reservoir diff paired with its base's level count or sample
    /// length; a section that did not change is left out.
    fn of_sections(
        moments: Option<RunningStats>,
        (hurst, base_levels): (CascadePatch, usize),
        (reservoir, base_len): (ReservoirPatch, usize),
        (deltas, total): (Vec<u64>, u64),
    ) -> Self {
        let hurst_same =
            hurst.count_delta == 0 && hurst.changed.is_empty() && hurst.new_levels == base_levels;
        let reservoir_same = reservoir.seen_delta == 0
            && reservoir.slots.is_empty()
            && reservoir.new_len == base_len;
        let tail_same = total == 0 && deltas.iter().all(|&d| d == 0);
        SummaryPatch {
            moments,
            hurst: (!hurst_same).then_some(hurst),
            reservoir: (!reservoir_same).then_some(reservoir),
            tail: (!tail_same).then_some((deltas, total)),
        }
    }

    /// `true` when every section is unchanged (the stream saw no kept
    /// points since the baseline — possible for a dirty key whose
    /// sampler skipped everything).
    pub fn is_empty(&self) -> bool {
        self.moments.is_none()
            && self.hurst.is_none()
            && self.reservoir.is_none()
            && self.tail.is_none()
    }
}

/// Bit-level image of Welford moments, for exact change detection.
fn moments_bits(rs: &RunningStats) -> (u64, u64, u64, u64, u64) {
    let (n, mean, m2, min, max) = rs.raw_parts();
    (
        n,
        mean.to_bits(),
        m2.to_bits(),
        min.to_bits(),
        max.to_bits(),
    )
}

impl SummarySnapshot {
    /// The online Hurst estimate from the (possibly merged) dyadic
    /// block statistics.
    pub fn hurst_estimate(&self) -> Option<f64> {
        self.hurst.estimate().ok().map(|e| e.hurst)
    }

    /// Sum of kept values (`count · mean`) — the heavy-hitter volume.
    pub fn kept_volume(&self) -> f64 {
        self.moments.count() as f64 * self.moments.mean()
    }

    /// The patch taking `base` to `self`, or `None` when any section
    /// is not diffable (reservoir identity changed, cascade or sample
    /// shrank, ladder changed — ship the full entry instead).
    pub fn diff_from(&self, base: &SummarySnapshot) -> Option<SummaryPatch> {
        let moments =
            (moments_bits(&self.moments) != moments_bits(&base.moments)).then_some(self.moments);
        Some(SummaryPatch::of_sections(
            moments,
            (self.hurst.diff_from(&base.hurst)?, base.hurst.level_count()),
            (
                self.reservoir.diff_from(&base.reservoir)?,
                base.reservoir.items.len(),
            ),
            self.tail.diff_from(&base.tail)?,
        ))
    }

    /// Applies a [`SummarySnapshot::diff_from`] patch. Returns `false`
    /// when any section fails validation against this state — the
    /// snapshot may then be **partially updated** and must be treated
    /// as lost (the wire layer answers with a resync that re-baselines
    /// it wholesale).
    pub fn apply_patch(&mut self, p: &SummaryPatch) -> bool {
        if let Some(m) = p.moments {
            self.moments = m;
        }
        if let Some(h) = &p.hurst {
            if !self.hurst.apply_patch(h) {
                return false;
            }
        }
        if let Some(r) = &p.reservoir {
            if !self.reservoir.apply_patch(r) {
                return false;
            }
        }
        if let Some((deltas, total)) = &p.tail {
            if !self.tail.apply_deltas(deltas, *total) {
                return false;
            }
        }
        true
    }
}

impl MergeableSummary for SummarySnapshot {
    fn merge_from(&mut self, other: &Self) {
        self.moments.merge(&other.moments);
        self.hurst.merge_from(&other.hurst);
        self.reservoir.merge_from(&other.reservoir);
        self.tail.merge_from(&other.tail);
    }

    fn is_empty(&self) -> bool {
        self.moments.count() == 0 && self.tail.total() == 0
    }
}

impl Compactable for SummarySnapshot {
    /// The 40 B of moments plus the parts' estimates. The cascade's
    /// second vector header and the tail counter's own copy of the
    /// ladder are nominal (see their `estimated_bytes`); they stay
    /// because compaction budgets by this figure and frames are cut by
    /// it, both visible on the wire.
    fn estimated_bytes(&self) -> usize {
        40 + self.hurst.estimated_bytes()
            + self.reservoir.estimated_bytes()
            + self.tail.estimated_bytes()
    }

    /// Prunes reservoir items and coarse dyadic Hurst levels toward the
    /// budget. Counts, sums, and tail totals are untouched, so merging
    /// compacted snapshots still yields exact aggregate totals.
    fn compact(&mut self, budget_bytes: usize) {
        let fixed = 40 + 56 + 48 + self.tail.estimated_bytes();
        let (levels, items) = compaction_plan(budget_bytes, fixed);
        self.hurst.prune_levels(levels);
        self.reservoir.compact(items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::summary::merge_all;

    fn summary_of(values: &[f64], seed: u64) -> SummarySnapshot {
        let mut s = StreamSummary::new(&SummaryConfig::default(), seed);
        for &v in values {
            s.push(v);
        }
        s.snapshot()
    }

    fn ramp(n: usize, scale: f64) -> Vec<f64> {
        (0..n).map(|i| (i % 977) as f64 * scale).collect()
    }

    #[test]
    fn reservoir_is_uniform_enough_and_deterministic() {
        let vals: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let mut r1 = Reservoir::new(100, 7);
        let mut r2 = Reservoir::new(100, 7);
        for &v in &vals {
            r1.push(v);
            r2.push(v);
        }
        assert_eq!(r1.snapshot(), r2.snapshot(), "same seed, same reservoir");
        let snap = r1.snapshot();
        assert_eq!(snap.items.len(), 100);
        assert_eq!(snap.seen, 10_000);
        // Uniformity: the retained sample's mean is near the stream's.
        let mean = snap.items.iter().sum::<f64>() / snap.items.len() as f64;
        assert!(
            (mean - 4999.5).abs() < 1200.0,
            "reservoir mean {mean} far from 4999.5"
        );
    }

    #[test]
    fn reservoir_cloned_before_its_first_draw_draws_the_same_slots() {
        // Cloned while filling, at the last fill push, and past the
        // first draw: each clone then sees the same values as the
        // original and must overwrite the same slots with them.
        for cloned_at in [0, 5, 7, 8, 9, 40] {
            let mut original = Reservoir::new(8, 23);
            let mut clone = None;
            for i in 0..400u64 {
                if i == cloned_at {
                    clone = Some(original.clone());
                }
                let v = (i * 37 % 101) as f64;
                let want = original.offer(v);
                if let Some(c) = clone.as_mut() {
                    assert_eq!(c.offer(v), want, "cloned at {cloned_at}, push {i}");
                }
            }
            let clone = clone.expect("cloned");
            assert_eq!(clone.snapshot(), original.snapshot());
        }
        // A reservoir that never fills never makes its generator.
        let mut r = Reservoir::new(8, 1);
        for v in 0..8 {
            r.push(f64::from(v));
        }
        assert!(r.rng.is_none());
        r.push(8.0);
        assert!(r.rng.is_some());
    }

    #[test]
    fn live_reservoir_stays_small() {
        assert!(std::mem::size_of::<Reservoir>() <= 64);
    }

    #[test]
    fn reservoir_merge_is_deterministic_and_weighted() {
        let a = {
            let mut r = Reservoir::new(50, 1);
            for v in ramp(5000, 1.0) {
                r.push(v);
            }
            r.snapshot()
        };
        let b = {
            let mut r = Reservoir::new(50, 2);
            for v in ramp(500, -1.0) {
                r.push(v);
            }
            r.snapshot()
        };
        let mut m1 = a.clone();
        m1.merge_from(&b);
        let mut m2 = a.clone();
        m2.merge_from(&b);
        assert_eq!(m1, m2, "merge must be a pure function of its inputs");
        assert_eq!(m1.seen, a.seen + b.seen);
        assert_eq!(m1.items.len(), 50);
        // ~10:1 weight ratio: most survivors come from `a` (positive).
        let from_a = m1.items.iter().filter(|&&v| v >= 0.0).count();
        assert!(from_a > 25, "only {from_a}/50 from the 10x-heavier side");
    }

    /// Survivor order by stable descending sort on `total_cmp`,
    /// truncated to `k` — the reference for [`key_rank`] selection.
    fn stable_top(keys: &[f64], k: usize) -> Vec<usize> {
        let mut keyed: Vec<(f64, usize)> = keys.iter().copied().zip(0..).collect();
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
        keyed.truncate(k);
        keyed.into_iter().map(|(_, i)| i).collect()
    }

    fn selected_top(keys: &[f64], k: usize) -> Vec<usize> {
        let mut ranks: Vec<u128> = keys.iter().zip(0..).map(|(&u, i)| key_rank(u, i)).collect();
        keep_first_ranks(&mut ranks, k);
        ranks.sort_unstable();
        ranks.into_iter().map(rank_index).collect()
    }

    #[test]
    fn key_selection_matches_the_stable_sort() {
        let mut state = 3u64;
        let mut draw = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let random: Vec<f64> = (0..200).map(|_| draw()).collect();
        // Ties: keys from four values, including 0.0 and 1.0.
        let tied: Vec<f64> = random
            .iter()
            .map(|u| [0.0, 0.25, 1.0, 0.5][(u * 4.0) as usize])
            .collect();
        let cases: [&[f64]; 6] = [
            &[],
            &[0.0],
            &[0.0; 9],
            &[1.0, 0.0, 1.0, 0.0, f64::MIN_POSITIVE, 5e-324, 0.0],
            &random,
            &tied,
        ];
        for keys in cases {
            for k in [
                0,
                1,
                2,
                3,
                7,
                64,
                keys.len().saturating_sub(1),
                keys.len(),
                500,
            ] {
                let want = stable_top(keys, k);
                assert_eq!(selected_top(keys, k), want, "k {k} of {}", keys.len());
                // Compaction keeps the same set, in index order.
                let mut ranks: Vec<u128> =
                    keys.iter().zip(0..).map(|(&u, i)| key_rank(u, i)).collect();
                keep_first_ranks(&mut ranks, k);
                let mut got: Vec<usize> = ranks.into_iter().map(rank_index).collect();
                got.sort_unstable();
                let mut want = want;
                want.sort_unstable();
                assert_eq!(got, want, "compaction set, k {k} of {}", keys.len());
            }
        }
    }

    /// The reservoir merge as a stable sort over every `powf` key.
    fn reference_merge(a: &ReservoirSnapshot, b: &ReservoirSnapshot) -> ReservoirSnapshot {
        if b.seen == 0 {
            return a.clone();
        }
        if a.seen == 0 {
            return b.clone();
        }
        let mut rng = rng_from_seed(derive_seed(
            derive_seed(MERGE_TAG, a.seed ^ b.seed.rotate_left(32)),
            a.seen.wrapping_add(b.seen.rotate_left(17)),
        ));
        let mut keyed: Vec<(f64, f64)> = Vec::new();
        for part in [a, b] {
            if part.items.is_empty() {
                continue;
            }
            let w = part.seen as f64 / part.items.len() as f64;
            for &v in &part.items {
                let u: f64 = loop {
                    let u = rng.gen::<f64>();
                    if u > 0.0 {
                        break u;
                    }
                };
                keyed.push((u.powf(1.0 / w), v));
            }
        }
        keyed.sort_by(|x, y| y.0.total_cmp(&x.0));
        keyed.truncate(a.cap.max(b.cap));
        ReservoirSnapshot {
            cap: a.cap.max(b.cap),
            seed: derive_seed(a.seed, b.seed),
            seen: a.seen + b.seen,
            items: keyed.into_iter().map(|(_, v)| v).collect(),
        }
    }

    #[test]
    fn reservoir_merge_matches_the_stable_sort_reference() {
        let part = |cap: usize, seed: u64, seen: u64, len: usize| ReservoirSnapshot {
            cap,
            seed,
            seen,
            items: (0..len).map(|i| (seed * 1000 + i as u64) as f64).collect(),
        };
        let parts = [
            part(64, 1, 20, 20),    // never filled: w = 1
            part(64, 2, 64, 64),    // just full: w = 1
            part(64, 3, 5_000, 64), // w > 1
            part(16, 4, 900, 16),   // smaller cap, w > 1
            part(0, 5, 40, 0),      // cap 0: no items
            part(8, 6, 3, 3),       // w = 1, few items
            part(32, 7, 0, 0),      // nothing seen
            part(0, 10, 50, 5),     // cap 0 with items (untrusted input)
        ];
        let bits =
            |r: &ReservoirSnapshot| -> Vec<u64> { r.items.iter().map(|v| v.to_bits()).collect() };
        for a in &parts {
            for b in &parts {
                let want = reference_merge(a, b);
                let mut got = a.clone();
                got.merge_from(b);
                assert_eq!(
                    (got.cap, got.seed, got.seen, bits(&got)),
                    (want.cap, want.seed, want.seen, bits(&want)),
                    "{a:?} + {b:?}"
                );
            }
        }
        // cap = 0 on both sides keeps nothing.
        let mut none = part(0, 8, 10, 3);
        none.merge_from(&part(0, 9, 10, 4));
        assert!(none.items.is_empty());
        assert_eq!(none.seen, 20);
        // Compaction against the same stable-sort reference.
        for p in &parts {
            for max_items in [0, 1, 2, 5, 15, 63, 64, 100] {
                let mut want = p.items.clone();
                if want.len() > max_items.max(1) {
                    let mut rng = rng_from_seed(derive_seed(
                        derive_seed(COMPACT_TAG, p.seed),
                        p.seen ^ (want.len() as u64).rotate_left(32),
                    ));
                    let keys: Vec<f64> = (0..want.len()).map(|_| rng.gen()).collect();
                    let mut pick = stable_top(&keys, max_items.max(1));
                    pick.sort_unstable();
                    want = pick.into_iter().map(|i| p.items[i]).collect();
                }
                let mut got = p.clone();
                got.compact(max_items);
                assert_eq!(got.items, want, "{p:?} to {max_items}");
                assert_eq!(got.cap, p.cap.min(max_items.max(1)));
            }
        }
    }

    #[test]
    fn reservoir_merge_identity() {
        let a = summary_of(&ramp(300, 2.0), 3).reservoir;
        let mut left = ReservoirSnapshot::default();
        left.merge_from(&a);
        assert_eq!(left, a);
        let mut right = a.clone();
        right.merge_from(&ReservoirSnapshot::default());
        assert_eq!(right, a);
    }

    #[test]
    fn tail_counter_counts_exceedances() {
        let mut t = TailCounter::new(&[10.0, 100.0]);
        for v in [5.0, 11.0, 150.0, 100.0, 101.0] {
            t.push(v);
        }
        let ladder: Vec<(f64, u64)> = t.ladder().collect();
        assert_eq!(ladder, vec![(10.0, 4), (100.0, 2)]);
        assert_eq!(t.total(), 5);
        assert!((t.exceedance(0) - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn tail_counter_rejects_unsorted_ladder() {
        TailCounter::new(&[10.0, 5.0]);
    }

    #[test]
    fn tail_merge_with_empty_counter_is_identity_regardless_of_ladder() {
        // A stream whose sampler kept nothing has a configured ladder
        // but zero observations; merging it must not disturb the other
        // side's counts (the MergeableSummary identity law).
        let mut a = TailCounter::new(&[64.0, 576.0, 1400.0]);
        for v in [100.0, 700.0, 700.0] {
            a.push(v);
        }
        let before = a.clone();
        a.merge_from(&TailCounter::new(&[1.0, 10.0])); // different ladder, 0 obs
        assert_eq!(a, before);
        let mut empty = TailCounter::new(&[1.0, 10.0]);
        empty.merge_from(&before);
        assert_eq!(empty, before, "empty side adopts the informative side");
    }

    #[test]
    fn tail_merge_with_mismatched_ladders_intersects() {
        // `monitor_tool merge` accepts snapshots from differently
        // configured engines; shared rungs stay exact, others drop.
        let mut a = TailCounter::new(&[10.0, 100.0, 1000.0]);
        for v in [5.0, 50.0, 500.0, 5000.0] {
            a.push(v);
        }
        let mut b = TailCounter::new(&[100.0, 500.0]);
        for v in [200.0, 600.0] {
            b.push(v);
        }
        a.merge_from(&b);
        let ladder: Vec<(f64, u64)> = a.ladder().collect();
        // Only the shared 100.0 rung survives: a counted {500, 5000},
        // b counted {200, 600}.
        assert_eq!(ladder, vec![(100.0, 4)]);
        assert_eq!(a.total(), 6);
    }

    #[test]
    fn summary_merge_equals_pooled_moments() {
        let a = summary_of(&ramp(1000, 1.0), 1);
        let b = summary_of(&ramp(500, 3.0), 2);
        let mut merged = a.clone();
        merged.merge_from(&b);
        let mut direct = RunningStats::new();
        for v in ramp(1000, 1.0).into_iter().chain(ramp(500, 3.0)) {
            direct.push(v);
        }
        assert_eq!(merged.moments.count(), direct.count());
        assert!((merged.moments.mean() - direct.mean()).abs() < 1e-9);
        assert!((merged.moments.variance() - direct.variance()).abs() < 1e-6);
        assert_eq!(merged.tail.total(), 1500);
    }

    #[test]
    fn merge_all_is_order_stable() {
        let parts: Vec<SummarySnapshot> = (0..4)
            .map(|i| summary_of(&ramp(200 + 13 * i as usize, 1.0 + i as f64), i))
            .collect();
        let one: SummarySnapshot = merge_all(&parts);
        let two: SummarySnapshot = merge_all(&parts);
        assert_eq!(one, two, "same order, same inputs → identical bits");
    }

    /// `journal.diff(&cascade)` against `cascade.diff_from(&marked)`.
    fn assert_cascade_diff(
        journal: &CascadeJournal,
        cascade: &OnlineVarianceTime,
        marked: &OnlineVarianceTime,
    ) {
        assert_eq!(journal.diff(cascade), cascade.diff_from(marked));
    }

    /// Pushes `v` into `cascade` through `journal`, as a journaled
    /// summary does.
    fn push_noted(cascade: &mut OnlineVarianceTime, journal: &mut CascadeJournal, v: f64) {
        journal.note_push(cascade);
        cascade.push(v);
    }

    #[test]
    fn cascade_journal_keeps_a_level_regrown_to_its_marked_bits_out() {
        // Constant input, marked at 16 values: level 4 holds one block.
        // Sixteen more values push into it, a prune drops it, and
        // sixteen more regrow it to exactly its marked bits — so the
        // comparison leaves it out, and so must the journal, which kept
        // its marked value at the first push because a prune may drop
        // it.
        let mut cascade = OnlineVarianceTime::new();
        for _ in 0..16 {
            cascade.push(2.5);
        }
        let marked = cascade.clone();
        let mut journal = CascadeJournal::new(&cascade, 4);
        for _ in 0..16 {
            push_noted(&mut cascade, &mut journal, 2.5);
        }
        journal.note_prune(4, &cascade);
        cascade.prune_levels(4);
        for _ in 0..16 {
            push_noted(&mut cascade, &mut journal, 2.5);
        }
        let want = cascade
            .diff_from(&marked)
            .expect("regrown to the marked level count");
        assert!(
            want.changed.iter().all(|c| c.0 != 4),
            "level 4 regrew unchanged"
        );
        assert_cascade_diff(&journal, &cascade, &marked);
    }

    #[test]
    fn cascade_journal_diff_equals_the_comparison() {
        // Random pushes (values repeat), prunes at or above the
        // journal's floor, and marks at random points.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        for prunable_from in [4, 6, usize::MAX] {
            let mut cascade = OnlineVarianceTime::new();
            let mut marked = cascade.clone();
            let mut journal = CascadeJournal::new(&cascade, prunable_from);
            let (mut diffable, mut undiffable) = (0, 0);
            for _ in 0..3_000 {
                match next(10) {
                    0 if prunable_from != usize::MAX => {
                        let keep = prunable_from + next(3) as usize;
                        journal.note_prune(keep, &cascade);
                        cascade.prune_levels(keep);
                    }
                    1 => {
                        assert_cascade_diff(&journal, &cascade, &marked);
                        if cascade.diff_from(&marked).is_some() {
                            diffable += 1;
                        } else {
                            undiffable += 1;
                        }
                        journal.mark(&cascade);
                        marked = cascade.clone();
                    }
                    _ => {
                        for _ in 0..next(40) {
                            let v = [1.0, -1.0, 0.5][next(3) as usize];
                            push_noted(&mut cascade, &mut journal, v);
                        }
                    }
                }
            }
            assert!(diffable > 100, "{diffable} diffable");
            assert_eq!(undiffable > 0, prunable_from != usize::MAX);
        }
    }

    #[test]
    fn journal_patch_matches_the_snapshot_diff() {
        // A journaled live summary, diffed against its last mark, gives
        // exactly the patch and fingerprint its snapshot diffs to
        // against the marked snapshot — through equal-value slot
        // rewrites (values repeat), compactions that prune cascade
        // levels which later regrow, reservoir clamps, and marks that
        // come at random points.
        use crate::diff::BaseFingerprint;
        use crate::engine::StreamEntry;
        use sst_core::stream::SamplerSnapshot;
        let fingerprint = |summary: SummarySnapshot| {
            BaseFingerprint::of(&StreamEntry {
                key: 0,
                sampler: SamplerSnapshot::default(),
                summary,
            })
        };
        for (cap, budget) in [(64, None), (200, None), (8, Some(600)), (64, Some(900))] {
            let config = SummaryConfig {
                reservoir_capacity: cap,
                ..SummaryConfig::default()
            };
            let mut live = StreamSummary::new(&config, 11);
            let mut shipped = live.snapshot();
            let mut journal = SummaryJournal::new(&live, budget);
            let mut state = 0x2545_F491_4F6C_DD1Du64;
            let mut next = |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let (mut diffable, mut undiffable) = (0, 0);
            for _ in 0..400 {
                let run = next(64);
                let value = [40.0, 576.0, 1500.0, 2.5][next(4) as usize];
                for _ in 0..run {
                    live.push_journaled(value, Some(&mut journal));
                }
                if let Some(b) = budget.filter(|_| next(3) == 0) {
                    live.compact_journaled(b, Some(&mut journal));
                }
                if next(2) == 0 {
                    let now = live.snapshot();
                    let want = now.diff_from(&shipped);
                    assert_eq!(journal.patch(&live), want, "cap {cap} budget {budget:?}");
                    assert_eq!(journal.fingerprint(), fingerprint(shipped));
                    if want.is_some() {
                        diffable += 1;
                    } else {
                        undiffable += 1;
                    }
                    journal.mark(&live);
                    shipped = now;
                }
            }
            assert!(
                diffable > 50,
                "cap {cap} budget {budget:?}: {diffable} diffable"
            );
            if budget.is_some() {
                assert!(
                    undiffable > 0,
                    "cap {cap} budget {budget:?}: nothing shrank"
                );
            }
        }
    }
}
