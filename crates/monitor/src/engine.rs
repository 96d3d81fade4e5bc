//! The engine facade: configuration, snapshots, and the public ingest
//! API over the layered collector stack.
//!
//! The actual machinery lives one layer down each: shard routing and
//! per-stream samplers in [`crate::ingest`], eviction/compaction in
//! [`crate::lifecycle`], framing in [`crate::wire`], and multi-process
//! assembly in [`crate::topology`]. This module keeps the original
//! single-process API ([`MonitorEngine::offer`] / `offer_batch` /
//! `snapshot`) source-compatible while exposing the lifecycle surface
//! (`full_snapshot`, `maintain`).
//!
//! ## Determinism / merge-equivalence contract
//!
//! Every stream (key) lives on exactly one shard
//! (`splitmix(key) mod n_shards`), its sampler is seeded from
//! `(base_seed, key)` only, and its points are processed in arrival
//! order — so per-stream state is independent of the shard count and of
//! whether points arrived through [`MonitorEngine::offer`] or a
//! key-grouped [`MonitorEngine::offer_batch`], whose per-key runs keep
//! arrival order (see [`crate::ingest`]). Snapshots list streams in
//! sorted key order and aggregate by folding in that order, which makes
//! the whole [`EngineSnapshot`] **bit-for-bit identical** across shard
//! counts (the `merge_equivalence` integration tests pin N ∈ {1, 2, 8}),
//! and makes [`EngineSnapshot::merge`] associative for combining
//! engines that watched disjoint key sets (link → network roll-ups).
//! Lifecycle sweeps are driven by the tick sequence alone, so the
//! contract survives eviction and compaction too.

use crate::ingest::{ShardSet, StreamState};
use crate::lifecycle::{LifecycleConfig, LifecycleState, LifecycleStats};
use crate::sketch::{SketchSnapshot, SketchTier, TierConfig, TierStats};
use crate::summary::{SummaryConfig, SummarySnapshot, TailCounter};
use sst_core::stream::{SamplerSnapshot, StreamDecision};
use sst_core::summary::{Compactable, MergeableSummary};

pub use crate::ingest::SamplerSpec;

/// Engine configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct MonitorConfig {
    /// Sampler deployed on every stream.
    pub sampler: SamplerSpec,
    /// Shard count (≥ 1); streams are routed by key hash.
    pub n_shards: usize,
    /// Base seed; stream `key` gets `derive_seed(base_seed, key)`.
    pub base_seed: u64,
    /// Per-stream summary configuration.
    pub summary: SummaryConfig,
    /// Eviction / compaction policy (default: disabled).
    pub lifecycle: LifecycleConfig,
    /// Two-tier (exact + sketch) policy (default: all-exact).
    pub tier: TierConfig,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            sampler: SamplerSpec::TakeAll,
            n_shards: 1,
            base_seed: 0,
            summary: SummaryConfig::default(),
            lifecycle: LifecycleConfig::default(),
            tier: TierConfig::default(),
        }
    }
}

impl MonitorConfig {
    /// Sets the sampler spec.
    pub fn sampler(mut self, s: SamplerSpec) -> Self {
        self.sampler = s;
        self
    }

    /// Sets the shard count.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one shard");
        self.n_shards = n;
        self
    }

    /// Sets the base seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.base_seed = s;
        self
    }

    /// Sets the per-stream reservoir capacity.
    pub fn reservoir_capacity(mut self, cap: usize) -> Self {
        self.summary.reservoir_capacity = cap;
        self
    }

    /// Sets the tail-exceedance threshold ladder (ascending).
    pub fn tail_thresholds(mut self, t: Vec<f64>) -> Self {
        self.summary.tail_thresholds = t;
        self
    }

    /// Evicts streams idle for at least `ticks` points.
    pub fn evict_idle_after(mut self, ticks: u64) -> Self {
        self.lifecycle.idle_after = Some(ticks);
        self
    }

    /// Caps the live stream table (LRU eviction beyond `n`).
    pub fn max_streams(mut self, n: usize) -> Self {
        self.lifecycle.max_streams = Some(n);
        self
    }

    /// Compacts every summary toward `bytes` at each sweep.
    pub fn compact_budget(mut self, bytes: usize) -> Self {
        self.lifecycle.compact_budget = Some(bytes);
        self
    }

    /// Sets the maintenance sweep period in ticks.
    pub fn sweep_every(mut self, ticks: u64) -> Self {
        self.lifecycle.sweep_every = ticks.max(1);
        self
    }

    /// Enables the sketch tier: at most `n` exact live streams, every
    /// further key absorbed by the fixed-memory sketch tier (see
    /// [`crate::sketch`]).
    pub fn max_exact_keys(mut self, n: usize) -> Self {
        self.tier.max_exact_keys = Some(n);
        self
    }

    /// Byte budget for the sketch tier's fixed structures.
    pub fn sketch_bytes(mut self, bytes: usize) -> Self {
        self.tier.sketch_bytes = bytes;
        self
    }

    /// Count-min estimate at which a sketched key is promoted to the
    /// exact tier.
    pub fn promote_after(mut self, count: u64) -> Self {
        self.tier.promote_after = count;
        self
    }
}

/// The sharded online monitoring engine.
///
/// # Examples
///
/// ```
/// use sst_monitor::{MonitorConfig, MonitorEngine, SamplerSpec};
///
/// let mut engine = MonitorEngine::new(
///     MonitorConfig::default()
///         .sampler(SamplerSpec::Systematic { interval: 10 })
///         .shards(4),
/// );
/// for i in 0..10_000u64 {
///     engine.offer(i % 7, (i % 100) as f64); // 7 streams
/// }
/// let snap = engine.snapshot();
/// assert_eq!(snap.stream_count(), 7);
/// assert!(snap.aggregate().moments.count() > 0);
/// ```
pub struct MonitorEngine {
    config: MonitorConfig,
    shards: ShardSet,
    lifecycle: LifecycleState,
    /// Present iff `config.tier` is enabled — the long-tail sketch
    /// store below the exact shard table.
    tier: Option<SketchTier>,
}

impl MonitorEngine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the sampler spec is invalid (zero interval, rate
    /// outside `(0, 1]`), `n_shards == 0`, or the tail thresholds are
    /// not strictly ascending.
    pub fn new(config: MonitorConfig) -> Self {
        assert!(config.n_shards >= 1, "need at least one shard");
        config
            .sampler
            .build(0)
            .expect("invalid sampler specification");
        let ladder = TailCounter::shared_ladder(&config.summary.tail_thresholds);
        let shards = ShardSet::new(config.n_shards, ladder);
        let tier = config.tier.enabled().then(|| SketchTier::new(&config));
        MonitorEngine {
            config,
            shards,
            lifecycle: LifecycleState::default(),
            tier,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Offers one point of stream `key`.
    pub fn offer(&mut self, key: u64, value: f64) -> StreamDecision {
        let tick = self.lifecycle.next_tick();
        let decision = self.offer_at_tick(key, value, tick);
        if self.lifecycle.sweep_due(&self.config.lifecycle) {
            self.sweep_now();
        }
        decision
    }

    /// Offers a batch of keyed points, grouped by key so each stream is
    /// looked up once per pass and fed its run of points in arrival
    /// order; large passes fan the shards across the persistent worker
    /// pool. Exactly equivalent to offering the points one by one in
    /// order (lifecycle sweeps excepted: a batch runs at most one
    /// sweep, at its end — see [`crate::lifecycle`]).
    ///
    /// With the sketch tier enabled the batch is ingested serially, in
    /// arrival order across keys: where a point goes depends on every
    /// point before it, whatever its key — on the exact table's size
    /// (first-sight admission, demotion of the coldest stream) and on
    /// the sketch's count-min (promotion) — and the tier's aggregate
    /// state is a single arrival-order fold. Keeping that order is what
    /// makes tiered snapshots bit-for-bit reproducible; grouping by key
    /// would reorder it.
    pub fn offer_batch(&mut self, points: &[(u64, f64)]) {
        let first_tick = self.lifecycle.advance(points.len() as u64);
        if self.tier.is_some() {
            for (i, &(k, v)) in points.iter().enumerate() {
                self.offer_at_tick(k, v, first_tick + i as u64);
            }
        } else {
            self.shards.offer_batch(&self.config, points, first_tick);
        }
        if self.lifecycle.sweep_due(&self.config.lifecycle) {
            self.sweep_now();
        }
    }

    /// Routes one ticked point through the tier (when enabled) and the
    /// shard table. A tiered engine first offers the point to the key's
    /// live exact stream, if any — one table probe, the common case.
    /// Only a key without one is routed: first-sight admission below
    /// the cap, promotion (demoting the coldest stream to free a slot),
    /// or the sketch.
    fn offer_at_tick(&mut self, key: u64, value: f64, tick: u64) -> StreamDecision {
        let Some(tier) = &mut self.tier else {
            return self.shards.offer(&self.config, key, value, tick);
        };
        if let Some(decision) = self.shards.offer_live(key, value, tick) {
            return decision;
        }
        if self.shards.stream_count() >= tier.max_exact() {
            if !tier.route(key, value) {
                return StreamDecision::KeepNormal;
            }
            self.demote_coldest();
        }
        self.shards.offer(&self.config, key, value, tick)
    }

    /// Demotes the coldest exact stream — minimum `(kept count, last
    /// touch, key)`, a deterministic total order — retiring its final
    /// snapshot through the lifecycle store, exactly like an eviction.
    ///
    /// Demotion finals take the eviction path (retired store, or the
    /// `Evicted` outbox of a collector's engine) rather than folding into the
    /// sketch, so an aggregator that already holds the stream's last
    /// cumulative `Delta` entry replaces it instead of double-counting;
    /// the key's *future* points are what the sketch absorbs.
    fn demote_coldest(&mut self) {
        let victim = self
            .shards
            .iter()
            .map(|(k, st)| (st.summary.count(), st.last_touch, k))
            .min();
        if let Some((_, _, key)) = victim {
            if let Some(state) = self.shards.remove(key) {
                self.lifecycle
                    .retire(state.into_entry(key), &self.config.lifecycle);
                self.tier
                    .as_mut()
                    .expect("demotion implies tiering")
                    .note_demoted();
            }
        }
    }

    /// Runs a maintenance sweep now, regardless of the sweep schedule
    /// (eviction deadlines still apply — only streams actually idle or
    /// over the LRU cap are evicted).
    pub fn maintain(&mut self) {
        self.sweep_now();
    }

    /// One sweep: lifecycle eviction/compaction over the exact tier,
    /// then sketch-tier compaction under the same budget — the sweep
    /// sees both tiers' memory.
    fn sweep_now(&mut self) {
        self.lifecycle
            .sweep(&self.config.lifecycle, &mut self.shards);
        if let (Some(tier), Some(budget)) = (&mut self.tier, self.config.lifecycle.compact_budget) {
            tier.compact(budget);
        }
    }

    /// Streams currently tracked (live only; retired streams are not
    /// counted).
    pub fn stream_count(&self) -> usize {
        self.shards.stream_count()
    }

    /// Lifecycle counters: ticks, evictions, retired keys, sweeps.
    pub fn lifecycle_stats(&self) -> LifecycleStats {
        self.lifecycle.stats()
    }

    /// Sends evicted and demoted finals to an outbox that
    /// [`MonitorEngine::drain_evicted`] empties, instead of the retired
    /// store: the engine's collector ships them as `Evicted` frames and
    /// the aggregator owns them.
    pub(crate) fn queue_evicted(&mut self) {
        self.lifecycle.queue_evicted();
    }

    /// Takes the final snapshots of streams evicted since the last
    /// drain, which a collector frames as `Evicted`. Empty unless
    /// [`MonitorEngine::queue_evicted`] was called; a standalone
    /// engine's finals live in the retired store and are served by
    /// [`MonitorEngine::full_snapshot`] instead.
    pub(crate) fn drain_evicted(&mut self) -> Vec<StreamEntry> {
        self.lifecycle.drain_evicted()
    }

    /// Approximate bytes held per tracked stream state — live summaries
    /// (plus sampler overhead) and the retired store. The compaction
    /// acceptance tests bound `estimated_state_bytes / keys_seen`.
    ///
    /// The 384 B sampler term is nominal: it allows for the random
    /// samplers' four-block ChaCha generator (304 B), which the
    /// deterministic samplers do not carry. The summaries' nominal terms are
    /// listed at [`crate::summary::StreamSummary::estimated_bytes`].
    /// The figure stays so the recorded bounds keep meaning what they
    /// did.
    pub fn estimated_state_bytes(&self) -> usize {
        let live: usize = self
            .shards
            .iter()
            // Box + sampler struct (ChaCha RNG dominates) + table slot.
            .map(|(_, st)| st.summary.estimated_bytes() + 384 + 48)
            .sum();
        let sketch = self.tier.as_ref().map_or(0, |t| t.estimated_bytes());
        live + self.lifecycle.retired_bytes() + sketch
    }

    /// The sketch tier's current image (`None` when the engine runs
    /// all-exact). Collectors attach this to their `Delta` flushes so
    /// the tier state rides the wire without a new frame kind.
    pub fn sketch_snapshot(&self) -> Option<SketchSnapshot> {
        self.tier.as_ref().map(|t| t.snapshot())
    }

    /// Tier counters (exact/sketched key counts, promotions,
    /// demotions, sketch bytes), when the sketch tier is enabled.
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.tier.as_ref().map(|t| TierStats {
            exact_keys: self.shards.stream_count(),
            ..t.stats()
        })
    }

    /// Switches on first-touch dirty tracking: each shard then lists
    /// the keys offered since the last [`MonitorEngine::clear_dirty`].
    /// Only a collector needs the list, so a plain engine keeps none.
    pub(crate) fn track_dirty(&mut self) {
        self.shards.track_dirty();
    }

    /// Calls `f` on the live state of each key touched since the last
    /// [`MonitorEngine::clear_dirty`], once per key, ascending by key —
    /// a seal reads and re-marks them in place. Keys no longer live
    /// (evicted or demoted since their first touch) are skipped.
    pub(crate) fn for_each_dirty(&mut self, mut f: impl FnMut(u64, &mut StreamState)) {
        let mut keys: Vec<u64> = self.shards.dirty_keys().collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            if let Some(state) = self.shards.get_mut(key) {
                f(key, state);
            }
        }
    }

    /// Every live `(key, state)`, in shard-internal order.
    pub(crate) fn live_states_mut(&mut self) -> impl Iterator<Item = (u64, &mut StreamState)> {
        self.shards.iter_mut()
    }

    /// Forgets the touched keys: the next flush starts empty.
    pub(crate) fn clear_dirty(&mut self) {
        self.shards.clear_dirty();
    }

    /// A point-in-time snapshot of the **live** streams, in sorted key
    /// order. Bit-for-bit independent of the shard count. Retired
    /// (evicted) streams are excluded — see
    /// [`MonitorEngine::full_snapshot`].
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut streams: Vec<StreamEntry> = self
            .shards
            .iter()
            .map(|(key, state)| state.entry(key))
            .collect();
        streams.sort_by_key(|e| e.key);
        EngineSnapshot {
            streams,
            sketch: self.tier.as_ref().map(|t| t.snapshot()),
        }
    }

    /// The live snapshot plus every retained evicted final, merged
    /// per key (retired state first, then the live reincarnation).
    /// For a standalone engine, totals — offered/kept counters, tail
    /// totals, moment counts — are exactly what a never-evicting engine
    /// would report; a collector's engine ships its finals instead and
    /// retains none.
    pub fn full_snapshot(&self) -> EngineSnapshot {
        let live = self.snapshot();
        let mut entries: Vec<StreamEntry> = self.lifecycle.retired().cloned().collect();
        let sketch = live.sketch.clone();
        entries.extend(live.streams);
        EngineSnapshot::from_streams(entries).with_sketch(sketch)
    }
}

/// One stream's snapshot inside an [`EngineSnapshot`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamEntry {
    /// The stream key (e.g. packed OD pair).
    pub key: u64,
    /// Sampler counters (offered/kept/inspected).
    pub sampler: SamplerSnapshot,
    /// Summary of the kept samples.
    pub summary: SummarySnapshot,
}

/// A mergeable point-in-time image of a whole engine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineSnapshot {
    /// Per-stream entries, strictly ascending by key.
    streams: Vec<StreamEntry>,
    /// The sketch-tier image, when the engine ran tiered.
    sketch: Option<SketchSnapshot>,
}

impl EngineSnapshot {
    /// Builds a snapshot from per-stream entries (sorted internally;
    /// duplicate keys are merged in input order — the sort is stable).
    /// The sketch section starts empty; see
    /// [`EngineSnapshot::with_sketch`].
    pub fn from_streams(mut streams: Vec<StreamEntry>) -> Self {
        streams.sort_by_key(|e| e.key);
        let mut out: Vec<StreamEntry> = Vec::with_capacity(streams.len());
        for e in streams {
            match out.last_mut() {
                Some(last) if last.key == e.key => {
                    last.sampler.merge_from(&e.sampler);
                    last.summary.merge_from(&e.summary);
                }
                _ => out.push(e),
            }
        }
        EngineSnapshot {
            streams: out,
            sketch: None,
        }
    }

    /// A snapshot of `streams`, whose keys strictly ascend — already the
    /// canonical form, so nothing is sorted, merged or moved.
    pub(crate) fn from_ascending(streams: Vec<StreamEntry>) -> Self {
        debug_assert!(streams.windows(2).all(|w| w[0].key < w[1].key));
        EngineSnapshot {
            streams,
            sketch: None,
        }
    }

    /// Attaches (or clears) the sketch-tier section.
    pub fn with_sketch(mut self, sketch: Option<SketchSnapshot>) -> Self {
        self.sketch = sketch;
        self
    }

    /// The sketch-tier image, when present.
    pub fn sketch(&self) -> Option<&SketchSnapshot> {
        self.sketch.as_ref()
    }

    /// The per-stream entries, ascending by key.
    pub fn streams(&self) -> &[StreamEntry] {
        &self.streams
    }

    /// Consumes the snapshot into its entries (ascending by key) —
    /// lets frame consumers move reservoirs/ladders instead of cloning
    /// them. Any sketch section is discarded (`Evicted` frames carry
    /// per-stream finals only).
    pub fn into_streams(self) -> Vec<StreamEntry> {
        self.streams
    }

    /// Consumes the snapshot into its entries (ascending by key) and
    /// its sketch section, moving both.
    pub fn into_parts(self) -> (Vec<StreamEntry>, Option<SketchSnapshot>) {
        (self.streams, self.sketch)
    }

    /// Number of streams.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Compacts every entry's summary toward `budget_bytes` — what an
    /// aggregator does to bound its own memory when holding snapshots
    /// of very many streams. Totals are untouched.
    pub fn compact(&mut self, budget_bytes: usize) {
        for e in &mut self.streams {
            e.summary.compact(budget_bytes);
        }
        if let Some(sk) = &mut self.sketch {
            sk.compact(budget_bytes);
        }
    }

    /// Link-level summary: every stream's summary folded in key order,
    /// then the sketch tier's aggregate — deterministic for a given
    /// stream set, however it was sharded. Totals cover **both** tiers.
    pub fn aggregate(&self) -> SummarySnapshot {
        let mut acc = SummarySnapshot::default();
        for e in &self.streams {
            acc.merge_from(&e.summary);
        }
        if let Some(sk) = &self.sketch {
            acc.merge_from(&sk.summary);
        }
        acc
    }

    /// Total sampler counters across streams plus the sketch tier.
    pub fn sampler_totals(&self) -> SamplerSnapshot {
        let mut acc = SamplerSnapshot::default();
        for e in &self.streams {
            acc.merge_from(&e.sampler);
        }
        if let Some(sk) = &self.sketch {
            acc.merge_from(&sk.sampler);
        }
        acc
    }

    /// The `k` heaviest streams by kept volume (descending; key breaks
    /// ties so the order is total). The ranking stays a total order
    /// even if a decoded snapshot carries NaN moments — inspection
    /// tools must not panic on hostile input, and a stream whose
    /// volume is unknowable ranks last, not first.
    pub fn top_streams(&self, k: usize) -> Vec<&StreamEntry> {
        fn volume(e: &StreamEntry) -> f64 {
            let v = e.summary.kept_volume();
            if v.is_nan() {
                f64::NEG_INFINITY
            } else {
                v
            }
        }
        let mut ranked: Vec<&StreamEntry> = self.streams.iter().collect();
        ranked.sort_by(|a, b| volume(b).total_cmp(&volume(a)).then(a.key.cmp(&b.key)));
        ranked.truncate(k);
        ranked
    }

    /// Merges another snapshot (an engine over a further set of
    /// streams) into this one: key-wise union, summaries of shared keys
    /// merged, order re-canonicalized. Sketch sections merge via
    /// [`MergeableSummary`] (an absent section is the identity).
    /// Associative, so shard → link → network roll-ups compose.
    pub fn merge(self, other: EngineSnapshot) -> EngineSnapshot {
        // Both entry lists strictly ascend: merge them in one pass. A
        // shared key merges `other`'s entry into `self`'s, which is
        // what `from_streams` does with the concatenation (its stable
        // sort puts `self`'s entry first).
        let mut streams = Vec::with_capacity(self.streams.len() + other.streams.len());
        let mut theirs = other.streams.into_iter().peekable();
        for mut e in self.streams {
            while let Some(t) = theirs.next_if(|t| t.key < e.key) {
                streams.push(t);
            }
            if let Some(t) = theirs.next_if(|t| t.key == e.key) {
                e.sampler.merge_from(&t.sampler);
                e.summary.merge_from(&t.summary);
            }
            streams.push(e);
        }
        streams.extend(theirs);
        let sketch = match (self.sketch, other.sketch) {
            (None, s) | (s, None) => s,
            (Some(mut a), Some(b)) => {
                a.merge_from(&b);
                Some(a)
            }
        };
        EngineSnapshot::from_ascending(streams).with_sketch(sketch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_core::stream::{StreamSampler, StreamingSystematic};
    use sst_stats::rng::derive_seed;

    fn points(n: usize, n_keys: u64) -> Vec<(u64, f64)> {
        // Deterministic bursty multiplexed workload.
        (0..n)
            .map(|i| {
                let key = (i as u64 * 2654435761) % n_keys;
                let v = if (i / 37) % 11 == 0 {
                    120.0 + (i % 7) as f64
                } else {
                    1.0 + (i % 3) as f64
                };
                (key, v)
            })
            .collect()
    }

    #[test]
    fn single_stream_matches_raw_sampler() {
        // Engine with one stream ≡ driving the sampler directly.
        let mut engine = MonitorEngine::new(
            MonitorConfig::default()
                .sampler(SamplerSpec::Systematic { interval: 5 })
                .seed(9),
        );
        let mut raw = StreamingSystematic::new(5, derive_seed(9, 42)).unwrap();
        let mut kept = Vec::new();
        for i in 0..1000 {
            let v = (i % 13) as f64;
            let d = engine.offer(42, v);
            assert_eq!(d, raw.offer(v), "point {i}");
            if d.is_kept() {
                kept.push(v);
            }
        }
        let snap = engine.snapshot();
        assert_eq!(snap.stream_count(), 1);
        let e = &snap.streams()[0];
        assert_eq!(e.sampler, raw.snapshot());
        assert_eq!(e.summary.moments.count(), kept.len() as u64);
        let mean = kept.iter().sum::<f64>() / kept.len() as f64;
        assert!((e.summary.moments.mean() - mean).abs() < 1e-12);
    }

    #[test]
    fn batch_equals_pointwise() {
        let pts = points(50_000, 64);
        let config = MonitorConfig::default()
            .sampler(SamplerSpec::SimpleRandom { rate: 0.2 })
            .shards(4)
            .seed(3);
        let mut one = MonitorEngine::new(config.clone());
        for &(k, v) in &pts {
            one.offer(k, v);
        }
        let mut batched = MonitorEngine::new(config);
        batched.offer_batch(&pts);
        assert_eq!(one.snapshot(), batched.snapshot());
    }

    #[test]
    fn all_sampler_specs_run() {
        for spec in [
            SamplerSpec::TakeAll,
            SamplerSpec::Systematic { interval: 10 },
            SamplerSpec::Stratified { interval: 10 },
            SamplerSpec::SimpleRandom { rate: 0.1 },
            SamplerSpec::Bss {
                interval: 10,
                epsilon: 1.0,
                n_pre: 8,
                l: 4,
            },
        ] {
            let mut engine = MonitorEngine::new(MonitorConfig::default().sampler(spec).shards(2));
            engine.offer_batch(&points(20_000, 16));
            let snap = engine.snapshot();
            assert_eq!(snap.stream_count(), 16, "{spec:?}");
            let totals = snap.sampler_totals();
            assert_eq!(totals.offered, 20_000, "{spec:?}");
            assert!(totals.kept > 0, "{spec:?}");
            assert!(totals.kept <= totals.inspected, "{spec:?}");
            assert_eq!(
                snap.aggregate().moments.count(),
                totals.kept as u64,
                "{spec:?}"
            );
        }
    }

    #[test]
    fn top_streams_rank_by_kept_volume() {
        let mut engine = MonitorEngine::new(MonitorConfig::default());
        // Stream 1 carries 10x the volume of stream 2, stream 3 tiny.
        for _ in 0..1000 {
            engine.offer(1, 100.0);
        }
        for _ in 0..1000 {
            engine.offer(2, 10.0);
        }
        engine.offer(3, 1.0);
        let snap = engine.snapshot();
        let top: Vec<u64> = snap.top_streams(2).iter().map(|e| e.key).collect();
        assert_eq!(top, vec![1, 2]);
    }

    #[test]
    fn snapshot_merge_is_key_union() {
        let pts = points(30_000, 32);
        let config = MonitorConfig::default().sampler(SamplerSpec::Systematic { interval: 3 });
        // Split streams across two engines by key parity.
        let mut even = MonitorEngine::new(config.clone());
        let mut odd = MonitorEngine::new(config.clone());
        let mut whole = MonitorEngine::new(config);
        for &(k, v) in &pts {
            if k % 2 == 0 {
                even.offer(k, v);
            } else {
                odd.offer(k, v);
            }
            whole.offer(k, v);
        }
        let merged = even.snapshot().merge(odd.snapshot());
        assert_eq!(merged, whole.snapshot());
        // Associativity the other way around.
        let merged_rev = odd.snapshot().merge(even.snapshot());
        assert_eq!(merged_rev, whole.snapshot());
    }

    #[test]
    fn top_streams_tolerates_nan_values() {
        // Inspection paths must stay total-ordered even when a stream
        // carried NaN (hostile snapshot or broken feed).
        let mut engine = MonitorEngine::new(MonitorConfig::default());
        engine.offer(1, f64::NAN);
        engine.offer(2, 5.0);
        engine.offer(3, 9.0);
        let snap = engine.snapshot();
        let top: Vec<u64> = snap.top_streams(3).iter().map(|e| e.key).collect();
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], 3, "finite volumes rank ahead of NaN");
    }

    #[test]
    #[should_panic(expected = "invalid sampler")]
    fn invalid_spec_panics_at_construction() {
        MonitorEngine::new(
            MonitorConfig::default().sampler(SamplerSpec::Systematic { interval: 0 }),
        );
    }

    #[test]
    fn lifecycle_disabled_is_the_identity() {
        // Default lifecycle must not perturb anything: same bits as an
        // engine that never heard of sweeps, even when forced.
        let pts = points(20_000, 32);
        let mut plain = MonitorEngine::new(MonitorConfig::default().shards(2));
        plain.offer_batch(&pts);
        let mut swept = MonitorEngine::new(MonitorConfig::default().shards(2));
        swept.offer_batch(&pts);
        swept.maintain();
        assert_eq!(plain.snapshot(), swept.snapshot());
        assert_eq!(swept.snapshot(), swept.full_snapshot());
        assert_eq!(swept.lifecycle_stats().evicted, 0);
    }

    #[test]
    fn collector_engines_route_finals_to_the_outbox_instead() {
        // A standalone engine retires its finals into the retired store
        // and never fills the outbox; an engine switched to queueing (a
        // collector's) holds the finals for the wire and no retired
        // copy (full_snapshot == live snapshot).
        for queue in [false, true] {
            let mut engine = MonitorEngine::new(
                MonitorConfig::default()
                    .seed(9)
                    .evict_idle_after(100)
                    .sweep_every(50),
            );
            if queue {
                engine.queue_evicted();
            }
            for i in 0..300u64 {
                engine.offer(42, (i % 13) as f64);
            }
            for i in 0..300u64 {
                engine.offer(7, i as f64);
            }
            engine.maintain();
            if !queue {
                assert!(engine.drain_evicted().is_empty(), "standalone: no outbox");
                let full = engine.full_snapshot();
                let final42 = full.streams().iter().find(|e| e.key == 42);
                assert_eq!(final42.expect("retired final").sampler.offered, 300);
                continue;
            }
            let finals = engine.drain_evicted();
            let final42 = finals.iter().find(|e| e.key == 42).expect("outbox final");
            assert_eq!(final42.sampler.offered, 300);
            assert!(engine.drain_evicted().is_empty(), "drain takes everything");
            assert_eq!(engine.full_snapshot(), engine.snapshot(), "nothing retired");
        }
    }

    #[test]
    fn a_second_sweep_without_points_compacts_nothing() {
        // A compacted live summary stays above the budget by its
        // nominal generator term, so the byte gate alone would compact
        // every stream again at each sweep. A sweep after no new points
        // must find nothing to drop and change no bit.
        let budget = 768;
        let mut engine = MonitorEngine::new(
            MonitorConfig::default()
                .sampler(SamplerSpec::SimpleRandom { rate: 0.5 })
                .shards(2)
                .seed(5)
                .compact_budget(budget)
                .sweep_every(u64::MAX),
        );
        engine.offer_batch(&points(50_000, 32));
        let sweep = |e: &mut MonitorEngine| e.lifecycle.sweep(&e.config.lifecycle, &mut e.shards);
        assert_eq!(sweep(&mut engine), 32, "every stream outgrew the budget");
        let once = engine.snapshot();
        let over = engine
            .shards
            .iter()
            .filter(|(_, st)| st.summary.estimated_bytes() > budget)
            .count();
        assert_eq!(over, 32, "compacted summaries stay above the budget");
        assert_eq!(sweep(&mut engine), 0, "nothing left to compact");
        assert_eq!(engine.snapshot(), once);
    }
}
