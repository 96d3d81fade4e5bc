//! The sketch tier: fixed-memory summaries for the long-tail keys an
//! engine cannot afford to track exactly.
//!
//! A [`crate::MonitorEngine`] with [`TierConfig::max_exact_keys`] set
//! becomes a **two-tier keyed store**:
//!
//! * **Exact tier** — up to `max_exact_keys` live streams with the full
//!   per-stream state (sampler, moments, reservoir, Hurst cascade, tail
//!   ladder), exactly as before.
//! * **Sketch tier** — every other key shares one fixed-memory
//!   `SketchTier`: a [`CountMinSketch`] for per-key volume, a
//!   [`SpaceSaving`] table for heavy-hitter candidates, one aggregate
//!   [`crate::StreamSummary`] absorbing the sketched points in arrival
//!   order, and a [`ProjectionBank`] of sign-projection dyadic cascades
//!   (Fontugne/Abry/Veitch-style) so the tail still feeds the
//!   `OnlineVarianceTime` Hurst machinery.
//!
//! ## Promotion / demotion (deterministic)
//!
//! A key routes to the exact tier while it has a live stream; a new key
//! is admitted exactly when the live table is below `max_exact_keys`
//! (first-sight admission). Beyond the cap a key is sketched until its
//! count-min estimate (plus the arriving point) reaches
//! [`TierConfig::promote_after`]; it is then **promoted** — the coldest
//! exact stream (minimum `(kept count, last touch, key)`) is *demoted*
//! and the hot key takes the freed exact slot from this point on.
//! A demoted stream's final snapshot retires through the lifecycle
//! layer exactly like an eviction (the retained store, or the
//! `Evicted` outbox in transport mode) — **not** into the sketch — so
//! an aggregator holding the stream's last cumulative `Delta` entry
//! merges the final instead of double-counting it; only the key's
//! *future* points are sketched. Every step depends only on the
//! arrival order and seed-derived hashes, so tiered snapshots stay
//! bit-for-bit identical across shard counts.
//!
//! ## One pass per sketched point
//!
//! A point of a key without a live stream costs the exact tier one
//! missed table probe, then one pass through the tier
//! (`SketchTier::route`): the key's count-min cells are hashed once
//! and serve both the promotion estimate and the increment, one
//! SpaceSaving probe serves both the guaranteed-count check and the
//! offer, and the projection bank climbs its cascades in lockstep —
//! the `r` signs computed once, every cascade's lane of a level
//! updated together (see [`ProjectionBank`]). The routing decisions,
//! count-min cells and candidate table are those of separate lookups,
//! and every cascade is bit for bit a separate `OnlineVarianceTime`,
//! so no snapshot or wire byte depends on the fusion.
//!
//! ## What stays exact
//!
//! Totals are sacred, exactly as in [`Compactable`]: the tier counts
//! every absorbed point in its own sampler counters and aggregate
//! summary, and demotion retires — never drops — a stream's counters.
//! `offered`/`kept` totals, moment counts, and tail ladders of the
//! whole engine are identical to an all-exact run; only *per-key*
//! attribution of tail keys is approximate (count-min overestimates).

use crate::engine::{MonitorConfig, StreamEntry};
use crate::summary::{StreamSummary, SummarySnapshot};
use sst_core::sketch::{merge_candidates, CountMinSketch, SpaceSaving};
use sst_core::stream::SamplerSnapshot;
use sst_core::summary::{Compactable, MergeableSummary};
use sst_hurst::ProjectionBank;
use sst_stats::rng::derive_seed;

/// Domain-separation tag: the tier's root seed.
const SKETCH_TAG: u64 = 0x534b_4554; // "SKET"
/// Child-seed index for the aggregate summary's reservoir.
const AGG_SEED: u64 = 1;
/// Child-seed index for the projection bank.
const PROJ_SEED: u64 = 2;
/// Sign-projection cascades in the bank.
const PROJECTIONS: usize = 4;
/// Count-min rows.
const CM_DEPTH: usize = 4;

/// Two-tier store configuration. The default (`max_exact_keys: None`)
/// disables the sketch tier entirely — the engine behaves bit-for-bit
/// as an all-exact engine.
#[derive(Clone, Debug, PartialEq)]
pub struct TierConfig {
    /// Live exact streams cap; `None` disables tiering.
    pub max_exact_keys: Option<usize>,
    /// Byte budget for the sketch tier's fixed structures (count-min
    /// cells take ~3/4, the SpaceSaving table the rest).
    pub sketch_bytes: usize,
    /// Count-min estimate at which a sketched key is promoted to the
    /// exact tier (demoting the coldest exact stream).
    pub promote_after: u64,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            max_exact_keys: None,
            sketch_bytes: 1 << 18,
            promote_after: 128,
        }
    }
}

impl TierConfig {
    /// True when the sketch tier is active.
    pub fn enabled(&self) -> bool {
        self.max_exact_keys.is_some()
    }
}

/// Point-in-time tier counters, for `monitor_tool info` and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Live exact streams.
    pub exact_keys: usize,
    /// Linear-counting estimate of distinct sketched keys.
    pub sketched_keys: u64,
    /// Keys promoted from the sketch tier into the exact tier.
    pub promotions: u64,
    /// Exact streams demoted into the sketch aggregate.
    pub demotions: u64,
    /// Approximate bytes held by the sketch tier.
    pub sketch_state_bytes: usize,
}

/// Live sketch-tier state owned by a [`crate::MonitorEngine`].
pub(crate) struct SketchTier {
    max_exact: usize,
    promote_after: u64,
    /// Per-key point counts (promotion driver) — integer cells, so
    /// state is identical however the stream was sharded.
    cm: CountMinSketch,
    /// Heavy-hitter candidate table.
    heavy: SpaceSaving,
    /// Counters of points absorbed by the sketch tier.
    sampler: SamplerSnapshot,
    /// Aggregate summary of sketched points, pushed in arrival order.
    summary: StreamSummary,
    /// Sign-projection Hurst cascades over the sketched tail.
    projections: ProjectionBank,
    promotions: u64,
    demotions: u64,
}

impl SketchTier {
    /// Builds the tier from an enabled config.
    ///
    /// # Panics
    ///
    /// Panics when `config.tier.max_exact_keys` is `None`.
    pub(crate) fn new(config: &MonitorConfig) -> Self {
        let tc = &config.tier;
        let max_exact = tc.max_exact_keys.expect("sketch tier enabled");
        let seed = derive_seed(config.base_seed, SKETCH_TAG);
        let cm_budget = (tc.sketch_bytes.saturating_mul(3) / 4).max(4096);
        // A quarter of the budget at 88 bytes a slot. This is a capacity
        // rule, not the table's layout: the capacity rides the wire in
        // every sketch image, so it must not move when the layout does
        // (`SpaceSaving::estimated_bytes` reports the layout's cost).
        let heavy_slots = (tc.sketch_bytes / 4 / 88).max(16);
        SketchTier {
            max_exact,
            promote_after: tc.promote_after.max(2),
            cm: CountMinSketch::with_budget(cm_budget, CM_DEPTH, seed),
            heavy: SpaceSaving::new(heavy_slots),
            sampler: SamplerSnapshot::default(),
            summary: StreamSummary::new(&config.summary, derive_seed(seed, AGG_SEED)),
            projections: ProjectionBank::new(PROJECTIONS, derive_seed(seed, PROJ_SEED)),
            promotions: 0,
            demotions: 0,
        }
    }

    /// The exact-tier live-stream cap.
    pub(crate) fn max_exact(&self) -> usize {
        self.max_exact
    }

    /// Routes the arriving point of an *unadmitted* `key`: returns
    /// `true` when the key is promoted — the tier then holds nothing of
    /// the point, which the caller gives to the exact tier — and
    /// otherwise absorbs the point (exact counters, aggregate summary,
    /// projections, and the per-key frequency structures) and returns
    /// `false`.
    ///
    /// Promotion needs two independent signals to agree:
    ///
    /// * the count-min estimate (plus this point) reaches the
    ///   threshold — never under-counts, but hash collisions
    ///   over-count, and
    /// * the SpaceSaving candidate list's *guaranteed* count for the
    ///   key (count minus overestimation error, plus this point) also
    ///   reaches it — a key that truly recurs occupies a slot with low
    ///   error, while a one-shot key riding a count-min collision
    ///   either holds no slot or carries error ≈ count.
    ///
    /// The conjunction keeps count-min's no-false-negative promotion
    /// latency for genuinely hot keys while filtering the collision
    /// promotions that waste exact-tier slots (and force demotions).
    ///
    /// The key is located once per structure: its count-min cells serve
    /// both the estimate and the increment, and one SpaceSaving probe
    /// serves both the candidate check and the offer.
    pub(crate) fn route(&mut self, key: u64, value: f64) -> bool {
        let (max_exact, promote_after) = (self.max_exact, self.promote_after);
        let absorbed = self.cm.increment_if(key, 1, |estimate| {
            let hot = max_exact > 0 && estimate.saturating_add(1) >= promote_after;
            self.heavy.offer_if(key, 1, |candidate| {
                let (count, err) = candidate.unwrap_or((0, 0));
                !hot || count.saturating_sub(err).saturating_add(1) < promote_after
            })
        });
        if !absorbed {
            self.promotions += 1;
            return true;
        }
        self.sampler.offered += 1;
        self.sampler.kept += 1;
        self.sampler.inspected += 1;
        self.summary.push(value);
        self.projections.push(key, value);
        false
    }

    /// Records a demotion (the victim's final retired through the
    /// lifecycle store; see [`crate::MonitorEngine`]).
    pub(crate) fn note_demoted(&mut self) {
        self.demotions += 1;
    }

    /// Compacts the tier's variable-size state (the aggregate summary)
    /// toward `budget_bytes`; the fixed sketch structures are already
    /// bounded by [`TierConfig::sketch_bytes`].
    pub(crate) fn compact(&mut self, budget_bytes: usize) {
        self.summary.compact(budget_bytes);
    }

    /// Approximate bytes held by the tier.
    pub(crate) fn estimated_bytes(&self) -> usize {
        self.cm.estimated_bytes()
            + self.heavy.estimated_bytes()
            + self.summary.estimated_bytes()
            + self.projections.estimated_bytes()
            + 64
    }

    /// Point-in-time counters (`exact_keys` is filled by the engine).
    pub(crate) fn stats(&self) -> TierStats {
        TierStats {
            exact_keys: 0,
            sketched_keys: self.cm.distinct_estimate(),
            promotions: self.promotions,
            demotions: self.demotions,
            sketch_state_bytes: self.estimated_bytes(),
        }
    }

    /// The mergeable point-in-time image of the tier.
    pub(crate) fn snapshot(&self) -> SketchSnapshot {
        SketchSnapshot {
            sampler: self.sampler,
            summary: self.summary.snapshot(),
            cm: self.cm.clone(),
            heavy: self.heavy.entries(),
            heavy_capacity: self.heavy.capacity() as u64,
            projections: self.projections.clone(),
            promotions: self.promotions,
            demotions: self.demotions,
        }
    }
}

/// A mergeable point-in-time image of a `SketchTier` — what rides in
/// an [`crate::EngineSnapshot`] and across the wire (the `SKT1`
/// trailing section of the snapshot codec).
#[derive(Clone, Debug, PartialEq)]
pub struct SketchSnapshot {
    /// Counters of every point the tier absorbed (plus, for sketches
    /// that absorbed server-side demotions, the folded entry counters).
    pub sampler: SamplerSnapshot,
    /// Aggregate summary of the sketched tail (moments, reservoir,
    /// Hurst cascade, tail ladder) — totals exact.
    pub summary: SummarySnapshot,
    /// Per-key point counts (approximate, never underestimates).
    pub cm: CountMinSketch,
    /// SpaceSaving heavy-hitter candidates `(key, count, err)`,
    /// ascending by key.
    pub heavy: Vec<(u64, u64, u64)>,
    /// Capacity of the SpaceSaving table the entries came from.
    pub heavy_capacity: u64,
    /// Sign-projection Hurst cascades over the sketched tail.
    pub projections: ProjectionBank,
    /// Keys promoted to the exact tier.
    pub promotions: u64,
    /// Exact streams demoted into this sketch.
    pub demotions: u64,
}

impl Default for SketchSnapshot {
    fn default() -> Self {
        SketchSnapshot {
            sampler: SamplerSnapshot::default(),
            summary: SummarySnapshot::default(),
            cm: CountMinSketch::new(CM_DEPTH, 16, 0),
            heavy: Vec::new(),
            heavy_capacity: 0,
            projections: ProjectionBank::new(PROJECTIONS, 0),
            promotions: 0,
            demotions: 0,
        }
    }
}

impl SketchSnapshot {
    /// Linear-counting estimate of distinct sketched keys.
    pub fn distinct_keys(&self) -> u64 {
        self.cm.distinct_estimate()
    }

    /// The `k` heaviest sketched candidates as `(key, count, err)`,
    /// descending by count (key breaks ties — a total order).
    pub fn top_candidates(&self, k: usize) -> Vec<(u64, u64, u64)> {
        let mut ranked = self.heavy.clone();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    /// The tail's Hurst estimate from the projection cascades (median
    /// over the bank), when estimable.
    pub fn projected_hurst(&self) -> Option<f64> {
        self.projections.estimate().ok().map(|e| e.hurst)
    }

    /// Folds an exact [`StreamEntry`] into the sketch — server-side
    /// demotion (an aggregator bounding its retired store). The entry's
    /// counters and summary merge in full, so totals stay exact; the
    /// count-min cells gain the entry's kept count so the key remains
    /// visible to frequency queries.
    pub fn absorb_entry(&mut self, entry: &StreamEntry) {
        self.sampler.merge_from(&entry.sampler);
        self.summary.merge_from(&entry.summary);
        self.cm.increment(entry.key, entry.summary.moments.count());
        self.demotions += 1;
    }
}

impl MergeableSummary for SketchSnapshot {
    /// Key-less union: counters add, summaries and projection cascades
    /// pool, count-min cells add cell-wise (exact when geometries
    /// match), SpaceSaving entries union-and-truncate. Merging sketches
    /// from engines with the same configuration is deterministic in
    /// the merge order.
    fn merge_from(&mut self, other: &Self) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        self.sampler.merge_from(&other.sampler);
        self.summary.merge_from(&other.summary);
        self.cm.merge_from(&other.cm);
        self.projections.merge_from(&other.projections);
        let cap = self.heavy_capacity.max(other.heavy_capacity).max(4);
        self.heavy = merge_candidates(cap as usize, &self.heavy, &other.heavy);
        self.heavy_capacity = cap;
        self.promotions += other.promotions;
        self.demotions += other.demotions;
    }

    fn is_empty(&self) -> bool {
        self.sampler.offered == 0
            && self.promotions == 0
            && self.demotions == 0
            && self.cm.is_empty()
    }
}

impl Compactable for SketchSnapshot {
    fn estimated_bytes(&self) -> usize {
        96 + self.cm.estimated_bytes()
            + self.heavy.len() * 24
            + self.summary.estimated_bytes()
            + self.projections.estimated_bytes()
    }

    /// Compacts the aggregate summary toward what remains of
    /// `budget_bytes` after the fixed sketch structures; count-min
    /// cells and projection cascades are left intact (they are already
    /// bounded by configuration). Totals are untouched.
    fn compact(&mut self, budget_bytes: usize) {
        let fixed = self.estimated_bytes() - self.summary.estimated_bytes();
        self.summary.compact(budget_bytes.saturating_sub(fixed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merge_identity_laws() {
        let mut tier = SketchTier::new(
            &MonitorConfig::default()
                .max_exact_keys(0)
                .sketch_bytes(1 << 14),
        );
        for i in 0..5000u64 {
            tier.route(i % 97, (i % 11) as f64 + 1.0);
        }
        let snap = tier.snapshot();
        assert!(!snap.is_empty());
        let mut merged = snap.clone();
        merged.merge_from(&SketchSnapshot::default());
        assert_eq!(merged, snap);
        let mut empty = SketchSnapshot::default();
        empty.merge_from(&snap);
        assert_eq!(empty, snap);
    }

    /// Routing with a lookup per question, as the tier routed before
    /// `SketchTier::route` shared them: count-min `estimate` and then
    /// `increment`, SpaceSaving `candidate` and then `offer`.
    struct SeparateLookups {
        max_exact: usize,
        promote_after: u64,
        cm: CountMinSketch,
        heavy: SpaceSaving,
    }

    impl SeparateLookups {
        fn would_promote(&self, key: u64) -> bool {
            if self.max_exact == 0 || self.cm.estimate(key).saturating_add(1) < self.promote_after {
                return false;
            }
            let (count, err) = self.heavy.candidate(key).unwrap_or((0, 0));
            count.saturating_sub(err).saturating_add(1) >= self.promote_after
        }

        fn route(&mut self, key: u64) -> bool {
            if self.would_promote(key) {
                return true;
            }
            self.cm.increment(key, 1);
            self.heavy.offer(key, 1);
            false
        }
    }

    #[test]
    fn shared_lookups_route_like_separate_ones() {
        let config = MonitorConfig::default()
            .seed(17)
            .max_exact_keys(8)
            .sketch_bytes(1 << 14)
            .promote_after(16);
        let mut tier = SketchTier::new(&config);
        let mut separate = SeparateLookups {
            max_exact: tier.max_exact,
            promote_after: tier.promote_after,
            cm: tier.cm.clone(),
            heavy: tier.heavy.clone(),
        };
        // The engine's side, reduced to a key set: first-sight admission
        // below the cap, and a promotion demotes the smallest key.
        let mut exact = std::collections::BTreeSet::new();
        // Points count-min calls hot and SpaceSaving's guaranteed count
        // vetoes: the path where the two lookups' answers combine.
        let (mut promoted, mut absorbed, mut vetoed) = (0, 0, 0);
        for i in 0..60_000u64 {
            // One-shot keys, 24 hot keys (three times the exact cap),
            // and warm keys that come and go.
            let key = match i % 4 {
                0 => (1 << 40) | i,
                1 | 2 => derive_seed(3, (i / 2) % 24),
                _ => derive_seed(5, i / 400),
            };
            if exact.contains(&key) {
                continue;
            }
            if exact.len() < tier.max_exact() {
                exact.insert(key);
                continue;
            }
            let cm_hot = separate.cm.estimate(key) + 1 >= separate.promote_after;
            let fused = tier.route(key, (i % 11) as f64);
            vetoed += u64::from(cm_hot && !fused);
            assert_eq!(fused, separate.route(key), "point {i}, key {key}");
            assert_eq!(tier.cm.cells(), separate.cm.cells(), "point {i}");
            assert_eq!(tier.cm.total(), separate.cm.total(), "point {i}");
            assert_eq!(tier.heavy.entries(), separate.heavy.entries(), "point {i}");
            if fused {
                promoted += 1;
                exact.pop_first();
                exact.insert(key);
            } else {
                absorbed += 1;
            }
        }
        assert!(
            promoted > 1000 && absorbed > 10_000 && vetoed > 1000,
            "{promoted} promoted, {absorbed} absorbed, {vetoed} vetoed"
        );
        assert_eq!(tier.promotions, promoted);
        assert_eq!(tier.sampler.offered, absorbed);
    }

    #[test]
    fn merge_preserves_totals_and_cm_exactness() {
        let config = MonitorConfig::default().max_exact_keys(0).seed(5);
        let mut whole = SketchTier::new(&config);
        let mut a = SketchTier::new(&config);
        let mut b = SketchTier::new(&config);
        for i in 0..20_000u64 {
            let (k, v) = (i % 331, (i % 7) as f64);
            whole.route(k, v);
            if k % 2 == 0 {
                a.route(k, v);
            } else {
                b.route(k, v);
            }
        }
        let mut merged = a.snapshot();
        merged.merge_from(&b.snapshot());
        let whole = whole.snapshot();
        assert_eq!(merged.sampler, whole.sampler);
        // Disjoint key sets: integer cells add to the interleaved run's.
        assert_eq!(merged.cm, whole.cm);
        assert_eq!(
            merged.summary.moments.count(),
            whole.summary.moments.count()
        );
    }

    #[test]
    fn compaction_keeps_totals_sacred() {
        let mut tier = SketchTier::new(
            &MonitorConfig::default()
                .max_exact_keys(0)
                .sketch_bytes(1 << 14),
        );
        for i in 0..50_000u64 {
            tier.route(i, 2.0);
        }
        let before = tier.snapshot();
        let mut compacted = before.clone();
        compacted.compact(0);
        assert_eq!(compacted.sampler, before.sampler);
        assert_eq!(
            compacted.summary.moments.count(),
            before.summary.moments.count()
        );
        assert_eq!(compacted.cm, before.cm);
        assert!(compacted.estimated_bytes() <= before.estimated_bytes());
    }
}
