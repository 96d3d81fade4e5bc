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

use rand::Rng;
use sst_core::summary::{Compactable, MergeableSummary};
use sst_hurst::online::{CascadePatch, OnlineVarianceTime};
use sst_stats::rng::{derive_seed, rng_from_seed};
use sst_stats::RunningStats;

/// Domain-separation tag for reservoir-merge RNG derivation.
const MERGE_TAG: u64 = 0x4D45_5247;

/// Domain-separation tag for reservoir-compaction RNG derivation.
const COMPACT_TAG: u64 = 0x434F_4D50;

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
#[derive(Clone, Debug)]
pub struct Reservoir {
    cap: usize,
    seed: u64,
    seen: u64,
    items: Vec<f64>,
    rng: rand::rngs::StdRng,
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
            rng: rng_from_seed(derive_seed(seed, 0x5E5E)),
        }
    }

    /// Offers one value.
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(v);
            return;
        }
        if self.cap == 0 {
            return;
        }
        // Replace slot j with probability cap/seen: j uniform over all
        // seen items, replacement iff it lands inside the reservoir.
        let j = self.rng.gen_range(0..self.seen as usize);
        if j < self.cap {
            self.items[j] = v;
        }
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

    fn view(&self) -> ReservoirView<'_> {
        ReservoirView {
            cap: self.cap,
            seed: self.seed,
            seen: self.seen,
            items: &self.items,
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
fn compact_items(items: &mut Vec<f64>, cap: &mut usize, seed: u64, seen: u64, max_items: usize) {
    let max_items = max_items.max(1);
    if items.len() > max_items {
        let mut rng = rng_from_seed(derive_seed(
            derive_seed(COMPACT_TAG, seed),
            seen ^ (items.len() as u64).rotate_left(32),
        ));
        let mut keyed: Vec<(f64, usize)> =
            (0..items.len()).map(|i| (rng.gen::<f64>(), i)).collect();
        // Largest-key survivors; total_cmp keeps hostile NaN-free
        // totality, stable sort breaks (measure-zero) ties by index.
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
        keyed.truncate(max_items);
        let mut pick: Vec<usize> = keyed.into_iter().map(|(_, i)| i).collect();
        pick.sort_unstable();
        *items = pick.into_iter().map(|i| items[i]).collect();
        // collect() may have reused a larger source allocation
        // (in-place specialization); compaction is about memory.
        items.shrink_to_fit();
    }
    *cap = (*cap).min(max_items);
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

    /// Approximate in-memory footprint.
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
        self.view().diff_from(base)
    }

    fn view(&self) -> ReservoirView<'_> {
        ReservoirView {
            cap: self.cap,
            seed: self.seed,
            seen: self.seen,
            items: &self.items,
        }
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
        let mut keyed: Vec<(f64, f64)> = Vec::with_capacity(self.items.len() + other.items.len());
        for part in [&*self, other] {
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
        // Descending by key (total_cmp: keys are finite by
        // construction, but decoded snapshots are untrusted); index
        // order breaks (measure-zero) ties deterministically because
        // the sort is stable.
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
        keyed.truncate(cap);
        self.items = keyed.into_iter().map(|(_, v)| v).collect();
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

/// A borrowed image of a reservoir — live ([`Reservoir`]) or snapshot
/// ([`ReservoirSnapshot`]) — which both diff through.
#[derive(Clone, Copy)]
struct ReservoirView<'a> {
    cap: usize,
    seed: u64,
    seen: u64,
    items: &'a [f64],
}

impl ReservoirView<'_> {
    /// [`ReservoirSnapshot::diff_from`] on either form.
    fn diff_from(self, base: &ReservoirSnapshot) -> Option<ReservoirPatch> {
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
}

/// Exceedance counters over a fixed ascending threshold ladder — the
/// mergeable form of the paper's tail interest (how often the rate
/// process exceeds a level; counts of disjoint streams add).
#[derive(Debug, Default, PartialEq)]
pub struct TailCounter {
    /// Ascending thresholds.
    thresholds: Vec<f64>,
    /// `counts[i]` = observations strictly above `thresholds[i]`.
    counts: Vec<u64>,
    /// Total observations.
    total: u64,
}

impl Clone for TailCounter {
    fn clone(&self) -> Self {
        TailCounter {
            thresholds: self.thresholds.clone(),
            counts: self.counts.clone(),
            total: self.total,
        }
    }

    /// Reuses `self`'s ladder and count buffers.
    fn clone_from(&mut self, source: &Self) {
        self.thresholds.clone_from(&source.thresholds);
        self.counts.clone_from(&source.counts);
        self.total = source.total;
    }
}

impl TailCounter {
    /// Creates counters over `thresholds` (must be ascending).
    ///
    /// # Panics
    ///
    /// Panics if the thresholds are not strictly ascending.
    pub fn new(thresholds: &[f64]) -> Self {
        assert!(
            thresholds.windows(2).all(|w| w[0] < w[1]),
            "thresholds must be strictly ascending"
        );
        TailCounter {
            thresholds: thresholds.to_vec(),
            counts: vec![0; thresholds.len()],
            total: 0,
        }
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
    pub fn estimated_bytes(&self) -> usize {
        48 + 8 + 16 * self.thresholds.len()
    }

    /// Rebuilds counters from [`TailCounter::raw_parts`] output.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or non-ascending thresholds.
    pub fn from_raw_parts(thresholds: Vec<f64>, counts: Vec<u64>, total: u64) -> Self {
        assert_eq!(thresholds.len(), counts.len(), "ladder length mismatch");
        assert!(
            thresholds.windows(2).all(|w| w[0] < w[1]),
            "thresholds must be strictly ascending"
        );
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
        if self.thresholds.len() != base.thresholds.len()
            || !self
                .thresholds
                .iter()
                .zip(&base.thresholds)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        {
            return None;
        }
        let total = self.total.checked_sub(base.total)?;
        let mut deltas = Vec::with_capacity(self.counts.len());
        for (c, b) in self.counts.iter().zip(&base.counts) {
            deltas.push(c.checked_sub(*b)?);
        }
        Some((deltas, total))
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
        self.thresholds = thresholds;
        self.counts = counts;
        self.total += other.total;
    }
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
    pub fn new(config: &SummaryConfig, seed: u64) -> Self {
        StreamSummary {
            moments: RunningStats::new(),
            hurst: OnlineVarianceTime::new(),
            reservoir: Reservoir::new(config.reservoir_capacity, seed),
            tail: TailCounter::new(&config.tail_thresholds),
        }
    }

    /// Absorbs one kept sample.
    pub fn push(&mut self, v: f64) {
        self.moments.push(v);
        self.hurst.push(v);
        self.reservoir.push(v);
        self.tail.push(v);
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

    /// Overwrites `out` with [`StreamSummary::snapshot`], reusing its
    /// buffers — a collector's per-key baseline is refreshed this way
    /// on every seal instead of being rebuilt.
    pub(crate) fn snapshot_into(&self, out: &mut SummarySnapshot) {
        out.moments = self.moments;
        out.hurst.clone_from(&self.hurst);
        let (r, o) = (&self.reservoir, &mut out.reservoir);
        (o.cap, o.seed, o.seen) = (r.cap, r.seed, r.seen);
        o.items.clone_from(&r.items);
        out.tail.clone_from(&self.tail);
    }

    /// The borrowed image [`SummarySnapshot::diff_from`] runs on, so a
    /// live summary diffs against a baseline without a snapshot.
    pub(crate) fn view(&self) -> SummaryView<'_> {
        SummaryView {
            moments: &self.moments,
            hurst: &self.hurst,
            reservoir: self.reservoir.view(),
            tail: &self.tail,
        }
    }

    /// Approximate in-memory footprint of the live summary.
    pub fn estimated_bytes(&self) -> usize {
        40 + self.hurst.estimated_bytes()
            + self.reservoir.estimated_bytes()
            + self.tail.estimated_bytes()
    }

    /// Prunes the live summary's auxiliary state (reservoir items,
    /// coarse Hurst levels) toward `budget_bytes` — the *same split*
    /// as the snapshot-side [`Compactable`] impl, so a live stream and
    /// its snapshot compacted at the same budget retain identical
    /// levels and items (the live side then sits one RNG — ~304 B —
    /// above the budget; the amortized bound is retired-dominated and
    /// absorbs that). Totals are untouched.
    pub fn compact(&mut self, budget_bytes: usize) {
        let fixed = 40 + 56 + 48 + self.tail.estimated_bytes();
        let (levels, items) = compaction_plan(budget_bytes, fixed);
        self.hurst.prune_levels(levels);
        self.reservoir.compact(items);
    }
}

/// Splits a summary byte budget between the two prunable parts: the
/// dyadic Hurst cascade gets up to 3/5 of the slack above the
/// fixed-size core (56 B per level), the reservoir the rest (8 B per
/// item). Floors of 4 levels (the fewest that keep
/// `OnlineVarianceTime::estimate` possible: `m ∈ {2, 4, 8}`) and
/// 4 items keep a tiny budget from destroying the summary outright, so
/// the result is best-effort when `budget` is below the core size.
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
        self.view().diff_from(base)
    }

    /// The borrowed image [`SummarySnapshot::diff_from`] runs on.
    pub(crate) fn view(&self) -> SummaryView<'_> {
        SummaryView {
            moments: &self.moments,
            hurst: &self.hurst,
            reservoir: self.reservoir.view(),
            tail: &self.tail,
        }
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

/// A borrowed image of a summary — live ([`StreamSummary`]) or
/// snapshot ([`SummarySnapshot`]) — which both diff through, so the
/// diff rule exists once.
#[derive(Clone, Copy)]
pub(crate) struct SummaryView<'a> {
    moments: &'a RunningStats,
    hurst: &'a OnlineVarianceTime,
    reservoir: ReservoirView<'a>,
    tail: &'a TailCounter,
}

impl SummaryView<'_> {
    /// [`SummarySnapshot::diff_from`] on either form.
    pub(crate) fn diff_from(self, base: &SummarySnapshot) -> Option<SummaryPatch> {
        let moments =
            (moments_bits(self.moments) != moments_bits(&base.moments)).then_some(*self.moments);
        let hurst = {
            let p = self.hurst.diff_from(&base.hurst)?;
            let unchanged = p.count_delta == 0
                && p.changed.is_empty()
                && p.new_levels == base.hurst.level_count();
            (!unchanged).then_some(p)
        };
        let reservoir = {
            let p = self.reservoir.diff_from(&base.reservoir)?;
            let unchanged =
                p.seen_delta == 0 && p.slots.is_empty() && p.new_len == base.reservoir.items.len();
            (!unchanged).then_some(p)
        };
        let tail = {
            let (deltas, total) = self.tail.diff_from(&base.tail)?;
            (total != 0 || deltas.iter().any(|&d| d != 0)).then_some((deltas, total))
        };
        Some(SummaryPatch {
            moments,
            hurst,
            reservoir,
            tail,
        })
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

    #[test]
    fn live_view_diffs_and_snapshot_into_refresh_like_a_fresh_snapshot() {
        let mut live = StreamSummary::new(&SummaryConfig::default(), 9);
        for v in ramp(3000, 2.0) {
            live.push(v);
        }
        let base = live.snapshot();
        for v in ramp(700, 5.0) {
            live.push(v);
        }
        let fresh = live.snapshot();
        // The live form diffs exactly as its snapshot does.
        assert_eq!(live.view().diff_from(&base), fresh.diff_from(&base));
        assert!(fresh.diff_from(&base).is_some_and(|p| !p.is_empty()));
        // Refreshing a stale (here also compacted, so shorter) baseline
        // in place gives the fresh snapshot's exact state.
        let mut stale = base.clone();
        stale.compact(256);
        live.snapshot_into(&mut stale);
        assert_eq!(stale, fresh);
    }
}
