//! Per-stream differential payloads — what a wire-v4 `DeltaDiff`
//! frame carries instead of cumulative entries.
//!
//! A diff takes the last cumulative [`StreamEntry`] a collector
//! shipped for a key (its *baseline*, mirrored by the aggregator's live
//! view under the seq watermark) to the key's current state, shipping
//! only what moved: sampler counter deltas, replaced Welford moments,
//! inserted/replaced reservoir slots, touched cascade levels, and
//! tail-ladder count increments. Reassembly is **bit-exact by
//! construction** — changed floats travel verbatim (bit-compared,
//! never delta-encoded) and only monotone integer counters travel as
//! deltas — so the aggregator's state after applying a diff is
//! byte-for-byte what the cumulative `Delta` path would have produced.
//!
//! [`diff_entry`] states the rule by comparing two entries. A
//! collector keeps no copy of what it shipped: each live stream records
//! the counters of its last ship and journals the reservoir slots and
//! cascade levels rewritten since, and the seal builds the same diff
//! from that record (`StreamState::reship` in the ingest
//! layer) in time proportional to what changed.
//!
//! Every diff names the baseline it applies to through a cheap integer
//! [`BaseFingerprint`]; a mismatch (the receiver lost or re-baselined
//! its copy, or the patch is corrupt) fails [`apply_diff`], and the
//! session recovers through a `Resync{from_seq}` re-baseline rather
//! than corrupt state. The aggregator never rewrites a live entry
//! between frames, so on a clean link every diff finds its base.

use crate::engine::StreamEntry;
use crate::summary::SummaryPatch;

/// Integer fingerprint of the baseline entry a [`StreamDiff`] applies
/// to: the monotone counters plus the two compactable lengths. Any
/// divergence between sender baseline and receiver live state — a
/// missed frame, a restart — moves at least one of these, because
/// every kept point advances the counters and compaction shrinks a
/// length.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BaseFingerprint {
    /// Baseline's kept-sample (Welford) count.
    pub moments_count: u64,
    /// Baseline's reservoir `seen` counter.
    pub reservoir_seen: u64,
    /// Baseline's retained reservoir sample length.
    pub reservoir_len: u64,
    /// Baseline's cascade value count.
    pub cascade_count: u64,
    /// Baseline's cascade level count.
    pub cascade_levels: u64,
    /// Baseline's tail-ladder total.
    pub tail_total: u64,
}

impl BaseFingerprint {
    /// The fingerprint of an entry.
    pub fn of(e: &StreamEntry) -> Self {
        BaseFingerprint {
            moments_count: e.summary.moments.count(),
            reservoir_seen: e.summary.reservoir.seen,
            reservoir_len: e.summary.reservoir.items.len() as u64,
            cascade_count: e.summary.hurst.count(),
            cascade_levels: e.summary.hurst.level_count() as u64,
            tail_total: e.summary.tail.total(),
        }
    }
}

/// One stream's differential payload inside a `DeltaDiff` frame.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamDiff {
    /// The stream key.
    pub key: u64,
    /// Sampler counter deltas `(offered, kept, inspected)`.
    pub sampler_delta: (u64, u64, u64),
    /// Fingerprint of the baseline this diff applies to.
    pub base: BaseFingerprint,
    /// The per-section summary patch.
    pub patch: SummaryPatch,
}

/// Computes the diff taking `base` to `new`, or `None` when the pair
/// is not diffable (different keys, counters moved backwards, reservoir
/// identity or tail ladder changed, cascade or sample shrank) — the
/// collector ships the full cumulative entry instead. This is the
/// reference rule a collector's journaled seal reproduces.
pub fn diff_entry(base: &StreamEntry, new: &StreamEntry) -> Option<StreamDiff> {
    if base.key != new.key {
        return None;
    }
    Some(StreamDiff {
        key: new.key,
        sampler_delta: new.sampler.delta_from(&base.sampler)?,
        base: BaseFingerprint::of(base),
        patch: new.summary.diff_from(&base.summary)?,
    })
}

/// Applies a diff to the receiver's live entry.
///
/// Validation is two-staged: the baseline fingerprint is checked before
/// anything mutates, then each section's patch validates its own
/// structural invariants as it applies. On `Err` the entry may be
/// partially updated and must be treated as lost — the caller answers
/// with `Resync{from_seq}` and the collector re-baselines it wholesale
/// with a `FullSnapshot`, so no wrong bytes ever reach an assembled
/// snapshot.
///
/// # Errors
///
/// A static description of the failed check (fingerprint mismatch or a
/// section patch rejected), for diagnostics; every failure maps to the
/// same recovery (resync).
pub fn apply_diff(entry: &mut StreamEntry, d: &StreamDiff) -> Result<(), &'static str> {
    if entry.key != d.key {
        return Err("diff key mismatch");
    }
    if BaseFingerprint::of(entry) != d.base {
        return Err("baseline fingerprint mismatch");
    }
    if !entry.sampler.apply_delta(d.sampler_delta) {
        return Err("sampler delta rejected");
    }
    if !entry.summary.apply_patch(&d.patch) {
        return Err("summary patch rejected");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MonitorConfig, MonitorEngine, SamplerSpec};

    fn entries_after(points: &[(u64, f64)]) -> Vec<StreamEntry> {
        let mut engine = MonitorEngine::new(
            MonitorConfig::default()
                .sampler(SamplerSpec::Systematic { interval: 2 })
                .seed(7),
        );
        for &(k, v) in points {
            engine.offer(k, v);
        }
        engine.snapshot().into_streams()
    }

    fn points(n: usize, n_keys: u64) -> Vec<(u64, f64)> {
        (0..n)
            .map(|i| {
                let key = (i as u64).wrapping_mul(0x9E37_79B9) % n_keys;
                (key, (i % 613) as f64 - 300.0)
            })
            .collect()
    }

    #[test]
    fn diff_then_apply_reassembles_bit_exact() {
        let pts = points(60_000, 16);
        let (warm, tail) = pts.split_at(50_000);
        let base = entries_after(warm);
        let new = entries_after(&pts);
        assert_eq!(base.len(), new.len());
        for (b, n) in base.iter().zip(&new) {
            let d = diff_entry(b, n).expect("grown entry diffs");
            let mut rebuilt = b.clone();
            apply_diff(&mut rebuilt, &d).expect("applies to its own baseline");
            assert_eq!(&rebuilt, n, "key {}", n.key);
        }
        // Sanity: the tail actually moved every stream.
        assert!(tail.iter().any(|&(k, _)| k < 16));
    }

    #[test]
    fn unchanged_entry_diffs_to_an_empty_patch() {
        let base = entries_after(&points(10_000, 4));
        for e in &base {
            let d = diff_entry(e, e).expect("identical entries diff");
            assert!(d.patch.is_empty());
            assert_eq!(d.sampler_delta, (0, 0, 0));
            let mut rebuilt = e.clone();
            apply_diff(&mut rebuilt, &d).unwrap();
            assert_eq!(&rebuilt, e);
        }
    }

    #[test]
    fn fingerprint_mismatch_is_rejected_not_applied() {
        let pts = points(40_000, 8);
        let base = entries_after(&pts[..30_000]);
        let new = entries_after(&pts);
        let d = diff_entry(&base[0], &new[0]).unwrap();
        // A receiver whose baseline diverged — here, stale by 10 000
        // points, so its counters lag the diff's fingerprint: apply
        // must refuse before mutating anything.
        let mut wrong = entries_after(&pts[..20_000])[0].clone();
        assert_eq!(wrong.key, base[0].key);
        let before = wrong.clone();
        assert!(apply_diff(&mut wrong, &d).is_err());
        assert_eq!(wrong, before, "fingerprint check precedes mutation");
    }

    #[test]
    fn compacted_baseline_refuses_to_diff() {
        use sst_core::summary::Compactable;
        let pts = points(40_000, 4);
        let mut base = entries_after(&pts[..30_000]);
        let new = entries_after(&pts);
        // Compaction shrinks the reservoir/cascade: not diffable.
        base[0].summary.compact(256);
        assert!(diff_entry(&base[0], &new[0]).is_none());
    }
}
