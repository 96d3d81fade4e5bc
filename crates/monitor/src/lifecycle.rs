//! Lifecycle layer: stream eviction (idle timeout + LRU capacity) with
//! final-snapshot emission, and periodic summary compaction.
//!
//! The ingest layer keeps every stream it has ever seen; under
//! per-5-tuple keys that is an unbounded table. This layer bounds it:
//!
//! * **Idle eviction** retires a stream whose last point is at least
//!   `idle_after` engine ticks old (a tick is one offered point, so
//!   idleness is measured in stream progress, not wall time — the same
//!   workload always evicts identically).
//! * **LRU eviction** retires least-recently-touched streams whenever
//!   the live table exceeds `max_streams`.
//! * **Compaction** prunes each summary (reservoir items, coarse dyadic
//!   Hurst levels — [`Compactable`]) toward `compact_budget` bytes so
//!   steady-state per-stream memory amortizes below the budget.
//!
//! An evicted stream emits a **final snapshot** — its cumulative
//! [`StreamEntry`] at the moment of eviction. With `retain_evicted` on
//! (the default, for standalone engines) finals fold into the local
//! *retired* store that [`crate::MonitorEngine::full_snapshot`] serves
//! back; with it off (transport mode) they queue in the *outbox* for a
//! [`crate::topology::Collector`] to drain as `Evicted` frames —
//! exactly one of the two holds each final, so neither standalone nor
//! collector engines double-store and an engine nobody drains never
//! grows its outbox. Either way eviction never loses totals: offered/kept counters,
//! tail totals, and moment counts of the full snapshot stay exactly
//! what a never-evicting engine would report. A key that reappears
//! after eviction resumes as a **fresh stream** (sampler re-seeded from
//! `(base_seed, key)` as on first sight); its new incarnation and its
//! retired finals are distinct summaries that merge deterministically
//! at snapshot time.
//!
//! Sweeps run every `sweep_every` ticks, checked after each point (or
//! after each batch — a batch may overshoot the boundary and sweep once
//! at its end, so point-wise and batched ingest of the same workload
//! agree whenever sweeps land on the same ticks, e.g. when batch sizes
//! divide `sweep_every`). All eviction and compaction decisions are
//! pure functions of the tick sequence and per-stream state, so a
//! lifecycle-enabled engine is still deterministic across shard counts.

use crate::engine::StreamEntry;
use crate::ingest::ShardSet;
use sst_core::summary::{Compactable, MergeableSummary};
use std::collections::BTreeMap;

/// Eviction and compaction policy. The default disables everything —
/// streams live forever and nothing is pruned — which preserves the
/// pre-lifecycle engine behavior bit-for-bit.
#[derive(Clone, Debug, PartialEq)]
pub struct LifecycleConfig {
    /// Evict a stream once `tick - last_touch >= idle_after`.
    pub idle_after: Option<u64>,
    /// Evict least-recently-touched streams beyond this live count.
    pub max_streams: Option<usize>,
    /// Per-summary byte budget; sweeps compact live and retired
    /// summaries toward it ([`Compactable`]).
    pub compact_budget: Option<usize>,
    /// Ticks between maintenance sweeps (≥ 1).
    pub sweep_every: u64,
    /// Keep evicted finals in the engine's retired store (so
    /// `full_snapshot` stays total-exact). Collectors that forward
    /// finals over the wire turn this off to avoid holding state the
    /// aggregator already owns.
    pub retain_evicted: bool,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            idle_after: None,
            max_streams: None,
            compact_budget: None,
            sweep_every: 4096,
            retain_evicted: true,
        }
    }
}

impl LifecycleConfig {
    /// `true` when any policy is active (the engine skips sweeps
    /// entirely otherwise).
    pub fn enabled(&self) -> bool {
        self.idle_after.is_some() || self.max_streams.is_some() || self.compact_budget.is_some()
    }
}

/// Counters describing what the lifecycle layer has done so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Points offered to the engine (the logical clock).
    pub ticks: u64,
    /// Streams evicted so far (idle + LRU).
    pub evicted: u64,
    /// Retired keys currently held (`retain_evicted` store).
    pub retired: usize,
    /// Maintenance sweeps run.
    pub sweeps: u64,
}

/// Mutable lifecycle state owned by the engine facade.
#[derive(Default)]
pub(crate) struct LifecycleState {
    tick: u64,
    last_sweep: u64,
    sweeps: u64,
    evicted: u64,
    /// Evicted finals awaiting [`drain`](LifecycleState::drain_evicted)
    /// (ascending key order within each sweep). Populated only when
    /// `retain_evicted` is off — the transport mode, where a collector
    /// drains between flushes, keeping this bounded.
    outbox: Vec<StreamEntry>,
    /// Evicted finals folded per key (`retain_evicted`); reappearing
    /// keys merge their successive finals in eviction order.
    retired: BTreeMap<u64, StreamEntry>,
}

impl LifecycleState {
    /// Advances the logical clock by one point, returning its tick.
    pub(crate) fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Advances the clock by `n` points, returning the first tick of
    /// the batch.
    pub(crate) fn advance(&mut self, n: u64) -> u64 {
        let first = self.tick + 1;
        self.tick += n;
        first
    }

    /// Whether a maintenance sweep is due.
    pub(crate) fn sweep_due(&self, config: &LifecycleConfig) -> bool {
        config.enabled() && self.tick - self.last_sweep >= config.sweep_every.max(1)
    }

    /// Runs one maintenance sweep: idle eviction, LRU eviction, then
    /// compaction of the surviving live summaries and the retired
    /// store. Deterministic: decisions depend only on ticks and
    /// per-stream state, never on shard layout or iteration order
    /// (eviction candidates are canonically sorted before removal).
    pub(crate) fn sweep(&mut self, config: &LifecycleConfig, shards: &mut ShardSet) {
        self.sweeps += 1;
        self.last_sweep = self.tick;
        let mut victims: Vec<(u64, u64)> = Vec::new(); // (last_touch, key)
        if let Some(idle_after) = config.idle_after {
            for (key, state) in shards.iter() {
                if self.tick.saturating_sub(state.last_touch) >= idle_after {
                    victims.push((state.last_touch, key));
                }
            }
        }
        if let Some(max) = config.max_streams {
            let live = shards.stream_count() - victims.len();
            if live > max {
                let idle_cut: std::collections::HashSet<u64> =
                    victims.iter().map(|&(_, k)| k).collect();
                let mut by_age: Vec<(u64, u64)> = shards
                    .iter()
                    .filter(|(k, _)| !idle_cut.contains(k))
                    .map(|(k, st)| (st.last_touch, k))
                    .collect();
                by_age.sort_unstable();
                victims.extend(by_age.into_iter().take(live - max));
            }
        }
        // Canonical eviction order: ascending key, so the outbox and
        // the retired-store fold are shard-layout-independent.
        victims.sort_unstable_by_key(|&(_, k)| k);
        victims.dedup_by_key(|&mut (_, k)| k);
        for (_, key) in victims {
            let mut entry = shards
                .remove(key)
                .expect("victim key is live")
                .into_entry(key);
            if let Some(budget) = config.compact_budget {
                entry.summary.compact(budget);
            }
            self.evicted += 1;
            if config.retain_evicted {
                // Standalone engine: the retired store *is* the record
                // (served by full_snapshot); nothing goes to the
                // outbox, so an engine nobody drains cannot grow it.
                self.absorb_retired(entry, config.compact_budget);
            } else {
                // Transport mode: a collector drains these as Evicted
                // frames; the aggregator owns the retired state.
                self.outbox.push(entry);
            }
        }
        if let Some(budget) = config.compact_budget {
            for (_, state) in shards.iter_mut() {
                if state.summary.estimated_bytes() > budget {
                    state.compact(budget);
                }
            }
        }
    }

    fn absorb_retired(&mut self, entry: StreamEntry, budget: Option<usize>) {
        use std::collections::btree_map::Entry;
        match self.retired.entry(entry.key) {
            Entry::Vacant(v) => {
                v.insert(entry);
            }
            Entry::Occupied(mut o) => {
                let held = o.get_mut();
                held.sampler.merge_from(&entry.sampler);
                held.summary.merge_from(&entry.summary);
                if let Some(budget) = budget {
                    held.summary.compact(budget);
                }
            }
        }
    }

    /// Retires one stream's final outside a sweep — the sketch tier
    /// demotes an exact stream to free its slot for a promoted key.
    /// Bookkeeping is identical to a sweep eviction (compaction budget,
    /// retained store vs. outbox), so demotion finals flow through the
    /// same `Evicted` wire path and never double-count downstream; only
    /// the `evicted` counter is left to the tier's own `demotions`.
    pub(crate) fn retire(&mut self, mut entry: StreamEntry, config: &LifecycleConfig) {
        if let Some(budget) = config.compact_budget {
            entry.summary.compact(budget);
        }
        if config.retain_evicted {
            self.absorb_retired(entry, config.compact_budget);
        } else {
            self.outbox.push(entry);
        }
    }

    /// Takes the evicted finals accumulated since the last drain.
    pub(crate) fn drain_evicted(&mut self) -> Vec<StreamEntry> {
        std::mem::take(&mut self.outbox)
    }

    /// The retired store, ascending by key.
    pub(crate) fn retired(&self) -> impl Iterator<Item = &StreamEntry> {
        self.retired.values()
    }

    /// Lifecycle counters.
    pub(crate) fn stats(&self) -> LifecycleStats {
        LifecycleStats {
            ticks: self.tick,
            evicted: self.evicted,
            retired: self.retired.len(),
            sweeps: self.sweeps,
        }
    }

    /// Approximate footprint of the retired store and any undrained
    /// outbox entries.
    pub(crate) fn retired_bytes(&self) -> usize {
        self.retired
            .values()
            .chain(self.outbox.iter())
            // Key + sampler counters + BTree node overhead, plus the
            // summary itself.
            .map(|e| 64 + e.summary.estimated_bytes())
            .sum()
    }
}
