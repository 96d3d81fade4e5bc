//! Ingest layer: shard routing and per-stream sampler state.
//!
//! This is the bottom of the collector stack — it answers exactly one
//! question: *which shard owns a key, and what happens when a point for
//! that key arrives*. Everything above it (eviction, compaction, wire
//! framing, topology) treats the `ShardSet` as a deterministic keyed
//! map of live `StreamState`s.
//!
//! ## Determinism contract (inherited by every layer above)
//!
//! Every stream (key) lives on exactly one shard
//! (`splitmix(key) mod n_shards`), its sampler is seeded from
//! `(base_seed, key)` only, and its points are processed in arrival
//! order — so per-stream state is independent of the shard count and of
//! whether points arrived one by one or through a batch. A stream's
//! state depends on nothing but its own values, in order, and the tick
//! of its last point, and shards share no state.
//!
//! ## Key-grouped batch ingest
//!
//! Heavy-tailed traffic puts a window's points into few flows, so batch
//! ingest works per flow, not per point. `ShardSet::offer_batch` cuts
//! a batch into passes of at most 2¹⁶ points. Each pass routes its
//! points to their shards, and each shard counting-sorts its share by
//! key into contiguous runs: a direct-mapped memo, checked by key
//! equality, names most points' group; a miss falls back to the pass's
//! keyed-hash index, so adversarial keys cost what every point used to.
//! Runs are grouped in arrival order and keys are numbered in
//! first-appearance order, so each stream sees exactly its per-point
//! sequence, `last_touch` becomes its run's last tick, and the dirty
//! list lists keys in first-appearance order. The stream table is then
//! probed once per key. The engine's merge-equivalence tests pin this
//! bit-for-bit for shard counts N ∈ {1, 2, 8}, and the `batch_grouping`
//! tests pin batched ≡ per-point across samplers, batch sizes and
//! lifecycle sweeps.

use crate::diff::StreamDiff;
use crate::engine::{MonitorConfig, StreamEntry};
use crate::summary::{StreamSummary, SummaryJournal};
use rayon::prelude::*;
use sst_core::bss::{BssConfigError, OnlineTuning, ThresholdPolicy};
use sst_core::stream::{
    SamplerSnapshot, StreamDecision, StreamSampler, StreamingBss, StreamingSimpleRandom,
    StreamingStratified, StreamingSystematic,
};
use sst_stats::hash::U64Map;
use sst_stats::rng::derive_seed;
use std::sync::Arc;

/// Domain-separation tag for shard routing.
const SHARD_TAG: u64 = 0x5348_4152;

/// Which streaming sampler each stream runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SamplerSpec {
    /// Keep every point (pure monitoring, no thinning).
    TakeAll,
    /// Systematic 1-in-C ([`StreamingSystematic`]).
    Systematic {
        /// Sampling interval C.
        interval: usize,
    },
    /// Stratified random, one per bucket of C ([`StreamingStratified`]).
    Stratified {
        /// Bucket length C.
        interval: usize,
    },
    /// Bernoulli thinning at `rate` ([`StreamingSimpleRandom`]).
    SimpleRandom {
        /// Per-point keep probability.
        rate: f64,
    },
    /// Online-tuned Biased Systematic Sampling ([`StreamingBss`]).
    Bss {
        /// Sampling interval C.
        interval: usize,
        /// Threshold factor ε (the paper uses 1.0).
        epsilon: f64,
        /// Pre-samples before the online threshold activates.
        n_pre: usize,
        /// Extras budget L per triggered interval.
        l: usize,
    },
}

impl SamplerSpec {
    /// Builds the sampler for one stream.
    ///
    /// # Errors
    ///
    /// Propagates the underlying sampler's configuration validation.
    pub fn build(&self, seed: u64) -> Result<Box<dyn StreamSampler + Send>, BssConfigError> {
        Ok(match *self {
            SamplerSpec::TakeAll => Box::new(StreamingSystematic::new(1, seed)?),
            SamplerSpec::Systematic { interval } => {
                Box::new(StreamingSystematic::new(interval, seed)?)
            }
            SamplerSpec::Stratified { interval } => {
                Box::new(StreamingStratified::new(interval, seed)?)
            }
            SamplerSpec::SimpleRandom { rate } => Box::new(StreamingSimpleRandom::new(rate, seed)?),
            SamplerSpec::Bss {
                interval,
                epsilon,
                n_pre,
                l,
            } => Box::new(StreamingBss::new(
                interval,
                ThresholdPolicy::Online(OnlineTuning {
                    epsilon,
                    n_pre,
                    ..OnlineTuning::default()
                }),
                l,
                seed,
            )?),
        })
    }
}

/// One stream's live state: its sampler, the summary of what the
/// sampler kept, the lifecycle layer's recency mark, and — once a
/// collector has shipped it — the record of that ship.
pub(crate) struct StreamState {
    pub(crate) sampler: Box<dyn StreamSampler + Send>,
    pub(crate) summary: StreamSummary,
    /// Engine tick of the stream's most recent point (drives idle and
    /// LRU eviction; ticks are per-point and unique, so recency is a
    /// total order independent of sharding).
    pub(crate) last_touch: u64,
    /// Dirty epoch in which the stream last joined its shard's dirty
    /// list (see [`Shard::epoch`]); a fresh stream starts at 0.
    dirty_epoch: u64,
    /// The stream's last ship, set by a collector's seal
    /// ([`StreamState::mark_shipped`]). `None` on an engine that ships
    /// nothing and for a stream never shipped — then pushes journal
    /// nothing.
    ship: Option<Box<ShipRecord>>,
}

/// What a stream last shipped, as a diff needs it: the sampler
/// counters, and the summary's journal since.
struct ShipRecord {
    sampler: SamplerSnapshot,
    summary: SummaryJournal,
}

impl StreamState {
    /// Offers one point to the sampler; the summary takes it if kept.
    fn offer(&mut self, value: f64) -> StreamDecision {
        let decision = self.sampler.offer(value);
        if decision.is_kept() {
            let journal = self.ship.as_deref_mut().map(|s| &mut s.summary);
            self.summary.push_journaled(value, journal);
        }
        decision
    }

    /// Compacts the summary toward `budget_bytes` (see
    /// [`StreamSummary::compact`]), journaling what it drops. Returns
    /// whether the compaction had anything to drop.
    pub(crate) fn compact(&mut self, budget_bytes: usize) -> bool {
        let journal = self.ship.as_deref_mut().map(|s| &mut s.summary);
        self.summary.compact_journaled(budget_bytes, journal)
    }

    /// Ships the stream's current state under `key`: returns the diff
    /// taking the entry it last shipped to its current state — what
    /// [`crate::diff::diff_entry`] computes from the two entries — or
    /// `None` when it has no ship record or the pair is not diffable,
    /// and records the current state as shipped (see
    /// [`StreamState::mark_shipped`]).
    pub(crate) fn reship(&mut self, key: u64, compact_budget: Option<usize>) -> Option<StreamDiff> {
        let sampler = self.sampler.snapshot();
        let diff = self.ship.as_deref().and_then(|ship| {
            Some(StreamDiff {
                key,
                sampler_delta: sampler.delta_from(&ship.sampler)?,
                base: ship.summary.fingerprint(),
                patch: ship.summary.patch(&self.summary)?,
            })
        });
        self.mark(sampler, compact_budget);
        diff
    }

    /// Records the current state as shipped: the diff base from now
    /// on. `compact_budget` is the engine's compaction budget.
    pub(crate) fn mark_shipped(&mut self, compact_budget: Option<usize>) {
        self.mark(self.sampler.snapshot(), compact_budget);
    }

    /// [`StreamState::mark_shipped`], given the sampler's counters.
    fn mark(&mut self, sampler: SamplerSnapshot, compact_budget: Option<usize>) {
        match &mut self.ship {
            Some(ship) => {
                ship.sampler = sampler;
                ship.summary.mark(&self.summary);
            }
            None => {
                self.ship = Some(Box::new(ShipRecord {
                    sampler,
                    summary: SummaryJournal::new(&self.summary, compact_budget),
                }));
            }
        }
    }

    /// The stream's cumulative entry under `key`.
    pub(crate) fn entry(&self, key: u64) -> StreamEntry {
        StreamEntry {
            key,
            sampler: self.sampler.snapshot(),
            summary: self.summary.snapshot(),
        }
    }

    /// The final entry of a stream that retires under `key`: what
    /// [`StreamState::entry`] returns, built from the state it consumes
    /// (see [`StreamSummary::into_snapshot`]).
    pub(crate) fn into_entry(self, key: u64) -> StreamEntry {
        StreamEntry {
            key,
            sampler: self.sampler.snapshot(),
            summary: self.summary.into_snapshot(),
        }
    }
}

/// Lists `key` on the dirty list on its stream's first point of the
/// epoch, and marks the stream touched at `tick`.
fn mark_touched(state: &mut StreamState, epoch: u64, dirty: &mut Vec<u64>, key: u64, tick: u64) {
    if state.dirty_epoch != epoch {
        state.dirty_epoch = epoch;
        dirty.push(key);
    }
    state.last_touch = tick;
}

/// One shard: the streams routed to it, plus the keys first touched
/// since the last flush when dirty tracking is on.
#[derive(Default)]
pub(crate) struct Shard {
    pub(crate) streams: U64Map<StreamState>,
    /// The engine's tail ladder, which every stream's tail counter
    /// shares.
    ladder: Arc<[f64]>,
    /// Current dirty epoch; 0 means tracking is off. A stream whose
    /// `dirty_epoch` differs joins [`Shard::dirty`] on its next point
    /// and takes the current epoch, so each stream is listed once per
    /// epoch. Ending the epoch is a counter bump, not a walk over the
    /// listed streams.
    epoch: u64,
    /// Keys first touched in the current epoch, in first-touch order.
    /// A key evicted and re-created within the epoch is listed twice;
    /// readers dedup.
    dirty: Vec<u64>,
}

impl Shard {
    /// The live state of `key`, created on first sight (the sampler and
    /// reservoir seeded from `(base_seed, key)`), listed on the dirty
    /// list on its first point of the epoch.
    fn touch(&mut self, config: &MonitorConfig, key: u64, tick: u64) -> &mut StreamState {
        let state = self.streams.entry(key).or_insert_with(|| {
            let seed = derive_seed(config.base_seed, key);
            StreamState {
                sampler: config
                    .sampler
                    .build(seed)
                    .expect("sampler spec validated at engine construction"),
                summary: StreamSummary::on_ladder(&config.summary, Arc::clone(&self.ladder), seed),
                last_touch: tick,
                dirty_epoch: 0,
                ship: None,
            }
        });
        mark_touched(state, self.epoch, &mut self.dirty, key, tick);
        state
    }

    fn offer(&mut self, config: &MonitorConfig, key: u64, value: f64, tick: u64) -> StreamDecision {
        self.touch(config, key, tick).offer(value)
    }

    /// Offers one point to `key`'s live stream — one table probe — or
    /// returns `None`, touching nothing, when `key` has none.
    fn offer_live(&mut self, key: u64, value: f64, tick: u64) -> Option<StreamDecision> {
        let state = self.streams.get_mut(&key)?;
        mark_touched(state, self.epoch, &mut self.dirty, key, tick);
        Some(state.offer(value))
    }

    /// Offers the points of one batch pass routed to this shard, as
    /// `(pass index, key, value)` in arrival order, grouped by key in
    /// `grouping`: one table probe per key, then its run of values in
    /// arrival order. Point `i` of the pass is at tick `first_tick + i`.
    fn offer_pass(
        &mut self,
        config: &MonitorConfig,
        grouping: &mut Grouping,
        points: impl Iterator<Item = RoutedPoint> + Clone,
        first_tick: u64,
    ) {
        grouping.group(points);
        for g in 0..grouping.len() {
            let (key, values, last) = grouping.run(g);
            let state = self.touch(config, key, first_tick + u64::from(last));
            for &v in values {
                state.offer(v);
            }
        }
    }
}

/// Passes at or above this many points fan the shards across the
/// worker pool — below it the fan-out bookkeeping costs more than it
/// saves.
const PAR_BATCH_MIN: usize = 4096;

/// Points per grouping pass: bounds the scratch (it does not grow with
/// the batch) and keeps group ids and run offsets in `u32`.
const GROUP_PASS_MAX: usize = 1 << 16;

/// Slots of the grouping pass's direct-mapped key memo (64 KiB of group
/// ids): enough that a shard's share of thousands of live flows mostly
/// keeps its slots between a key's recurrences.
const MEMO_SLOTS: usize = 1 << 14;

/// The memo slot of `key`: the top 14 bits of a Fibonacci hash. A
/// collision only costs a lookup in the pass's keyed index.
fn memo_slot(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 50) as usize
}

/// A point of a batch pass: `(index in the pass, key, value)`.
type RoutedPoint = (u32, u64, f64);

/// Reusable scratch of one grouping pass: a counting sort of (some of)
/// the pass's points by key into contiguous per-key runs. Groups are
/// numbered in first-appearance order, and each run keeps its points in
/// arrival order.
struct Grouping {
    /// Memo slot → a recent group id. Checked against `keys`, so a
    /// stale id (from an earlier pass) is just a miss.
    memo: Vec<u32>,
    /// The pass's key → group id index, consulted on a memo miss. Its
    /// hasher is keyed with a random per-table key, as the stream
    /// table's is, so keys picked to collide in the memo cannot also
    /// be picked to collide here.
    index: U64Map<u32>,
    /// Group id → key.
    keys: Vec<u64>,
    /// Group id → index in the pass of the group's last point.
    last: Vec<u32>,
    /// Group id → end of its run in `values` (a point count until the
    /// scatter turns it into the run's end offset).
    ends: Vec<u32>,
    /// The group id of each grouped point, in pass order.
    gids: Vec<u32>,
    /// The grouped values, scattered into per-group runs.
    values: Vec<f64>,
}

impl Default for Grouping {
    fn default() -> Self {
        Grouping {
            memo: vec![0; MEMO_SLOTS],
            index: U64Map::default(),
            keys: Vec::new(),
            last: Vec::new(),
            ends: Vec::new(),
            gids: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl Grouping {
    /// Groups `points` — `(pass index, key, value)`, from a pass of at
    /// most [`GROUP_PASS_MAX`] points, in arrival order — by key.
    fn group(&mut self, points: impl Iterator<Item = RoutedPoint> + Clone) {
        self.index.clear();
        self.keys.clear();
        self.last.clear();
        self.ends.clear();
        self.gids.clear();
        for (i, key, _) in points.clone() {
            let slot = memo_slot(key);
            let memo = self.memo[slot];
            let g = if self.keys.get(memo as usize) == Some(&key) {
                memo
            } else {
                let next = u32::try_from(self.keys.len()).expect("pass bounded by GROUP_PASS_MAX");
                let g = *self.index.entry(key).or_insert(next);
                if g == next {
                    self.keys.push(key);
                    self.last.push(0);
                    self.ends.push(0);
                }
                self.memo[slot] = g;
                g
            };
            self.last[g as usize] = i;
            self.ends[g as usize] += 1;
            self.gids.push(g);
        }
        // Counts → run start offsets, then scatter; each group's cursor
        // finishes at its run's end.
        let mut start = 0u32;
        for e in &mut self.ends {
            let n = *e;
            *e = start;
            start += n;
        }
        self.values.clear();
        self.values.resize(self.gids.len(), 0.0);
        for (&g, (_, _, v)) in self.gids.iter().zip(points) {
            let cursor = &mut self.ends[g as usize];
            self.values[*cursor as usize] = v;
            *cursor += 1;
        }
    }

    /// Number of groups in the current pass.
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Group `g`'s key, its run of values in arrival order, and the
    /// pass index of its last point.
    fn run(&self, g: usize) -> (u64, &[f64], u32) {
        let start = g.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        let end = self.ends[g] as usize;
        (self.keys[g], &self.values[start..end], self.last[g])
    }
}

/// The sharded stream table: routing plus per-stream ingest.
pub(crate) struct ShardSet {
    shards: Vec<Shard>,
    /// Per-shard batch-ingest scratch, reused across calls.
    groupings: Vec<Grouping>,
    /// Per-shard copies of the points routed to it (multi-shard sets
    /// only), reused across calls.
    routed: Vec<Vec<RoutedPoint>>,
}

impl ShardSet {
    /// Creates `n` empty shards whose streams count tails on `ladder`
    /// (`TailCounter::shared_ladder` of the configured thresholds).
    pub(crate) fn new(n: usize, ladder: Arc<[f64]>) -> Self {
        assert!(n >= 1, "need at least one shard");
        let shard = || Shard {
            ladder: Arc::clone(&ladder),
            ..Shard::default()
        };
        ShardSet {
            shards: (0..n).map(|_| shard()).collect(),
            groupings: (0..n).map(|_| Grouping::default()).collect(),
            routed: vec![Vec::new(); n],
        }
    }

    /// The shard a key routes to. With one shard that is shard 0, and
    /// the key's hash and its remainder are skipped.
    pub(crate) fn shard_index(&self, key: u64) -> usize {
        match self.shards.len() {
            1 => 0,
            n => (derive_seed(SHARD_TAG, key) % n as u64) as usize,
        }
    }

    /// Offers one point of stream `key` at engine tick `tick`.
    pub(crate) fn offer(
        &mut self,
        config: &MonitorConfig,
        key: u64,
        value: f64,
        tick: u64,
    ) -> StreamDecision {
        let idx = self.shard_index(key);
        self.shards[idx].offer(config, key, value, tick)
    }

    /// Offers one point to `key`'s live stream at engine tick `tick`,
    /// or returns `None`, touching nothing, when `key` has no live
    /// stream. A hit costs one table probe.
    pub(crate) fn offer_live(&mut self, key: u64, value: f64, tick: u64) -> Option<StreamDecision> {
        let idx = self.shard_index(key);
        self.shards[idx].offer_live(key, value, tick)
    }

    /// Offers a batch of keyed points (point `i` at tick
    /// `first_tick + i`), in passes of at most [`GROUP_PASS_MAX`]
    /// points. Each pass routes its points to their shards, and each
    /// shard groups its share by key, then looks every key up once and
    /// feeds it its run — so per-pass table work scales with the flows
    /// in the pass, not its points. Large passes over several shards
    /// fan the shards across the persistent worker pool.
    ///
    /// Exactly equivalent to offering the points one by one in order:
    /// a stream's state depends only on its own values, in arrival
    /// order (which its run keeps), and on the tick of its last point
    /// (its `last_touch`); shards share no state.
    pub(crate) fn offer_batch(
        &mut self,
        config: &MonitorConfig,
        points: &[(u64, f64)],
        first_tick: u64,
    ) {
        for (pass, chunk) in (first_tick..)
            .step_by(GROUP_PASS_MAX)
            .zip(points.chunks(GROUP_PASS_MAX))
        {
            self.offer_pass(config, chunk, pass);
        }
    }

    /// One pass of `ShardSet::offer_batch`.
    fn offer_pass(&mut self, config: &MonitorConfig, points: &[(u64, f64)], first_tick: u64) {
        if self.shards.len() == 1 {
            let points = (0u32..).zip(points).map(|(i, &(k, v))| (i, k, v));
            self.shards[0].offer_pass(config, &mut self.groupings[0], points, first_tick);
            return;
        }
        self.routed.iter_mut().for_each(Vec::clear);
        for (i, &(key, value)) in (0u32..).zip(points) {
            let idx = self.shard_index(key);
            self.routed[idx].push((i, key, value));
        }
        if points.len() < PAR_BATCH_MIN {
            let shards = self.shards.iter_mut().zip(&mut self.groupings);
            for ((shard, grouping), routed) in shards.zip(&self.routed) {
                shard.offer_pass(config, grouping, routed.iter().copied(), first_tick);
            }
            return;
        }
        let work: Vec<((Shard, Grouping), &Vec<RoutedPoint>)> = std::mem::take(&mut self.shards)
            .into_iter()
            .zip(std::mem::take(&mut self.groupings))
            .zip(&self.routed)
            .collect();
        let done: Vec<(Shard, Grouping)> = work
            .into_par_iter()
            .map(|((mut shard, mut grouping), routed)| {
                shard.offer_pass(config, &mut grouping, routed.iter().copied(), first_tick);
                (shard, grouping)
            })
            .collect();
        (self.shards, self.groupings) = done.into_iter().unzip();
    }

    /// Switches dirty tracking on: from now on every shard lists the
    /// keys first touched since the last [`ShardSet::clear_dirty`].
    pub(crate) fn track_dirty(&mut self) {
        for s in &mut self.shards {
            s.epoch = s.epoch.max(1);
        }
    }

    /// Keys touched since the last [`ShardSet::clear_dirty`], unsorted
    /// and possibly repeated (empty while tracking is off). Some may no
    /// longer be live: evicted or demoted since their first touch.
    pub(crate) fn dirty_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.shards.iter().flat_map(|s| s.dirty.iter().copied())
    }

    /// Empties every shard's dirty list and starts a new epoch.
    pub(crate) fn clear_dirty(&mut self) {
        for s in self.shards.iter_mut().filter(|s| s.epoch != 0) {
            s.epoch += 1;
            s.dirty.clear();
        }
    }

    /// Streams currently tracked.
    pub(crate) fn stream_count(&self) -> usize {
        self.shards.iter().map(|s| s.streams.len()).sum()
    }

    /// The live state of `key`, if tracked.
    pub(crate) fn get_mut(&mut self, key: u64) -> Option<&mut StreamState> {
        let idx = self.shard_index(key);
        self.shards[idx].streams.get_mut(&key)
    }

    /// Removes and returns the live state of `key` (eviction).
    pub(crate) fn remove(&mut self, key: u64) -> Option<StreamState> {
        let idx = self.shard_index(key);
        self.shards[idx].streams.remove(&key)
    }

    /// Iterates every live `(key, state)` in shard-internal order
    /// (callers needing a canonical order sort by key).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &StreamState)> {
        self.shards
            .iter()
            .flat_map(|s| s.streams.iter().map(|(&k, st)| (k, st)))
    }

    /// Mutable iteration for in-place maintenance (live compaction).
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut StreamState)> {
        self.shards
            .iter_mut()
            .flat_map(|s| s.streams.iter_mut().map(|(&k, st)| (k, st)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_snapshot;
    use crate::engine::MonitorEngine;

    #[test]
    fn memo_slot_collisions_take_the_index_path_and_match_pointwise() {
        // Distinct keys that all share one memo slot, interleaved so no
        // two consecutive points carry the same key: every memo lookup
        // finds the previous point's group and misses, so every point
        // is resolved through the pass's keyed index — the path
        // adversarial keys force.
        let slot = memo_slot(0);
        let keys: Vec<u64> = (0u64..)
            .filter(|&k| memo_slot(k) == slot)
            .take(40)
            .collect();
        let points: Vec<(u64, f64)> = (0..9000)
            .map(|i| (keys[i % keys.len()], ((i * 37) % 1500) as f64))
            .collect();
        assert!(points.windows(2).all(|w| w[0].0 != w[1].0));
        for shards in [1, 2] {
            let config = MonitorConfig::default()
                .sampler(SamplerSpec::Bss {
                    interval: 4,
                    epsilon: 1.0,
                    n_pre: 8,
                    l: 2,
                })
                .shards(shards)
                .seed(21);
            let mut pointwise = MonitorEngine::new(config.clone());
            for &(k, v) in &points {
                pointwise.offer(k, v);
            }
            let mut grouped = MonitorEngine::new(config);
            grouped.offer_batch(&points);
            assert!(
                encode_snapshot(&grouped.full_snapshot())
                    == encode_snapshot(&pointwise.full_snapshot()),
                "shards {shards}: snapshot bytes differ"
            );
        }
    }
}
