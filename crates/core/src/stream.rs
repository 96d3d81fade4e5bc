//! The paper's four samplers as push-based rules — the form a router
//! or monitoring tap deploys, where each arriving point is kept or
//! dropped at once.
//!
//! Each rule is implemented once, here. A sampler struct holds a
//! schedule: the next position it must inspect, and its decision there.
//! Fed a stream, it checks that position once per offered point; fed a
//! slice, as the offline [`crate::Sampler`]s and
//! [`crate::bss::BssSampler`] feed it, a driver jumps from one scheduled
//! position to the next. A stream has no end (`usize::MAX`); a slice
//! ends at its length. Only stratified sampling reads the end: its last
//! bucket is `min(C, end − start)` long (see [`StreamingStratified`]).
//! Any other schedule's positions past the end are just never reached,
//! which is how BSS's extras stop at `min(t + C, end)`.
//!
//! ```
//! use sst_core::stream::{StreamDecision, StreamSampler, StreamingSystematic};
//!
//! let mut s = StreamingSystematic::new(3, 0).unwrap();
//! let kept: Vec<bool> = (0..7)
//!     .map(|i| s.offer(i as f64).is_kept())
//!     .collect();
//! assert_eq!(kept, [true, false, false, true, false, false, true]);
//! ```

use crate::bss::{check_config, check_interval, BssConfigError, OnlineTuning, ThresholdPolicy};
use crate::sampler::GeometricGap;
use rand::rngs::StdRng;
use rand::Rng;
use sst_stats::rng::{derive_seed, rng_from_seed};
use sst_stats::RunningStats;
use std::sync::Arc;

/// What a streaming sampler did with one offered point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamDecision {
    /// Not selected; not inspected.
    Skip,
    /// Selected by the base (normal) schedule.
    KeepNormal,
    /// Inspected as a BSS extra but below the threshold — cost without a
    /// kept sample.
    InspectOnly,
    /// Inspected as a BSS extra and kept (a qualified sample).
    KeepQualified,
}

impl StreamDecision {
    /// `true` when the point enters the sample set.
    pub fn is_kept(self) -> bool {
        matches!(
            self,
            StreamDecision::KeepNormal | StreamDecision::KeepQualified
        )
    }

    /// `true` when the point had to be looked at (kept or probed).
    pub fn is_inspected(self) -> bool {
        self != StreamDecision::Skip
    }
}

/// Point-in-time state of a streaming sampler: how much of the stream
/// it has consumed and what it cost.
///
/// Counters over disjoint stream segments add, so shard-level monitor
/// snapshots combine by field-wise addition — the sampler-state half of
/// the mergeable-summary contract ([`crate::summary::MergeableSummary`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplerSnapshot {
    /// Points offered so far (the sampler's position).
    pub offered: usize,
    /// Points kept (entered the sample set).
    pub kept: usize,
    /// Points inspected (kept or probed — the paper's cost metric
    /// counts BSS extras that were looked at but not kept).
    pub inspected: usize,
}

impl SamplerSnapshot {
    /// Field-wise addition: the snapshot of two disjoint segments.
    pub fn merge_from(&mut self, other: &SamplerSnapshot) {
        self.offered += other.offered;
        self.kept += other.kept;
        self.inspected += other.inspected;
    }

    /// Counter deltas `(offered, kept, inspected)` taking `base` to
    /// `self`, or `None` when any counter moved backwards (the pair is
    /// not successive snapshots of one sampler). Counters are monotone
    /// integers, so `base + delta` reproduces `self` exactly.
    pub fn delta_from(&self, base: &SamplerSnapshot) -> Option<(u64, u64, u64)> {
        Some((
            self.offered.checked_sub(base.offered)? as u64,
            self.kept.checked_sub(base.kept)? as u64,
            self.inspected.checked_sub(base.inspected)? as u64,
        ))
    }

    /// Advances the counters by a [`SamplerSnapshot::delta_from`]
    /// delta. Returns `false` — leaving the snapshot untouched — on
    /// overflow or when the result would violate the
    /// `kept ≤ inspected ≤ offered` invariant.
    pub fn apply_delta(&mut self, (d_off, d_kept, d_insp): (u64, u64, u64)) -> bool {
        let (Some(offered), Some(kept), Some(inspected)) = (
            self.offered.checked_add(d_off as usize),
            self.kept.checked_add(d_kept as usize),
            self.inspected.checked_add(d_insp as usize),
        ) else {
            return false;
        };
        if kept > inspected || inspected > offered {
            return false;
        }
        *self = SamplerSnapshot {
            offered,
            kept,
            inspected,
        };
        true
    }
}

/// A push-based sampler: one decision per offered point.
pub trait StreamSampler {
    /// Short human-readable name.
    fn name(&self) -> &'static str;

    /// Offers the next point of the stream (points arrive in order).
    fn offer(&mut self, value: f64) -> StreamDecision;

    /// Points offered so far.
    fn position(&self) -> usize;

    /// Current state snapshot (offered/kept/inspected counters).
    fn snapshot(&self) -> SamplerSnapshot;
}

/// A sampler's rule as a schedule over input positions: every point
/// before [`Schedule::next`] is skipped unseen, and the point there is
/// decided. A stream checks the scheduled position once per offered
/// point; [`crate::sampler::drive`] jumps a slice from one scheduled
/// position to the next.
pub(crate) trait Schedule {
    /// The next position the sampler must inspect (`usize::MAX` once
    /// it will inspect none).
    fn next(&self) -> usize;

    /// Decides the point at [`Schedule::next`], whose value is `value`,
    /// and schedules the position after it.
    fn decide(&mut self, value: f64) -> StreamDecision;
}

/// A stream's decision on the point at `pos`: decided when the
/// schedule names it, skipped unseen otherwise.
#[inline]
fn offer_at(pos: usize, schedule: &mut impl Schedule, value: f64) -> StreamDecision {
    if pos == schedule.next() {
        schedule.decide(value)
    } else {
        StreamDecision::Skip
    }
}

/// Systematic sampling: keep positions `offset + k·C`, where the
/// offset is `seed mod C`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamingSystematic {
    interval: usize,
    pos: usize,
    next: usize,
}

impl StreamingSystematic {
    /// Creates the sampler; `seed` selects the phase, as for
    /// [`crate::SystematicSampler`].
    ///
    /// # Errors
    ///
    /// Returns `Err` when `interval == 0`.
    pub fn new(interval: usize, seed: u64) -> Result<Self, BssConfigError> {
        check_interval(interval)?;
        Ok(StreamingSystematic::start(interval, seed))
    }

    /// [`StreamingSystematic::new`] for an interval known to be ≥ 1.
    pub(crate) fn start(interval: usize, seed: u64) -> Self {
        StreamingSystematic {
            interval,
            pos: 0,
            next: (seed % interval as u64) as usize,
        }
    }
}

impl Schedule for StreamingSystematic {
    fn next(&self) -> usize {
        self.next
    }

    #[inline]
    fn decide(&mut self, _value: f64) -> StreamDecision {
        self.next = self.next.saturating_add(self.interval);
        StreamDecision::KeepNormal
    }
}

impl StreamSampler for StreamingSystematic {
    fn name(&self) -> &'static str {
        "streaming-systematic"
    }

    fn offer(&mut self, value: f64) -> StreamDecision {
        self.pos += 1;
        offer_at(self.pos - 1, self, value)
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn snapshot(&self) -> SamplerSnapshot {
        // `next` is offset + k·C after k kept points, offset < C.
        let kept = self.next / self.interval;
        SamplerSnapshot {
            offered: self.pos,
            kept,
            inspected: kept,
        }
    }
}

/// Stratified random sampling: one uniform pick per bucket of length
/// C, drawn when the bucket's schedule starts.
///
/// A bucket is `min(C, end − start)` long, where the end is the input
/// end. A stream has none, so every pick is drawn over C positions and
/// one that lands past where the stream stops keeps nothing. On a
/// slice ([`crate::StratifiedSampler`]) the final partial bucket is
/// drawn over the positions the slice holds, so it always yields its
/// one sample. Both agree on every full bucket.
#[derive(Clone, Debug)]
pub struct StreamingStratified {
    interval: usize,
    /// The input end: `usize::MAX` for a stream, the slice length
    /// offline.
    end: usize,
    /// First position of the current bucket; one pick per bucket
    /// before it was kept.
    start: usize,
    pos: usize,
    next: usize,
    rng: StdRng,
}

impl StreamingStratified {
    /// Creates the sampler with the seed derivation of
    /// [`crate::StratifiedSampler`].
    ///
    /// # Errors
    ///
    /// Returns `Err` when `interval == 0`.
    pub fn new(interval: usize, seed: u64) -> Result<Self, BssConfigError> {
        check_interval(interval)?;
        Ok(StreamingStratified::bounded(interval, seed, usize::MAX))
    }

    /// The sampler over an input that ends at `end`, for an interval
    /// known to be ≥ 1.
    pub(crate) fn bounded(interval: usize, seed: u64, end: usize) -> Self {
        let mut s = StreamingStratified {
            interval,
            end,
            start: 0,
            pos: 0,
            next: usize::MAX,
            rng: rng_from_seed(derive_seed(seed, 0x5742)),
        };
        s.draw();
        s
    }

    /// Schedules the pick of the bucket at `start`: one uniform draw
    /// over its `min(C, end − start)` positions, none past the end.
    #[inline]
    fn draw(&mut self) {
        self.next = if self.start < self.end {
            let len = self.interval.min(self.end - self.start);
            self.start + self.rng.gen_range(0..len)
        } else {
            usize::MAX
        };
    }
}

impl Schedule for StreamingStratified {
    fn next(&self) -> usize {
        self.next
    }

    #[inline]
    fn decide(&mut self, _value: f64) -> StreamDecision {
        self.start = self.start.saturating_add(self.interval);
        self.draw();
        StreamDecision::KeepNormal
    }
}

impl StreamSampler for StreamingStratified {
    fn name(&self) -> &'static str {
        "streaming-stratified"
    }

    fn offer(&mut self, value: f64) -> StreamDecision {
        self.pos += 1;
        offer_at(self.pos - 1, self, value)
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn snapshot(&self) -> SamplerSnapshot {
        // One pick kept per bucket the schedule has moved past.
        let kept = self.start / self.interval;
        SamplerSnapshot {
            offered: self.pos,
            kept,
            inspected: kept,
        }
    }
}

/// Simple random sampling (Bernoulli thinning at `rate`) via geometric
/// skip-ahead: O(1) RNG work per *kept* point, not per offered one, and
/// no transcendental per draw — the gap comes from the shared
/// table-driven `GeometricGap`.
#[derive(Clone, Debug)]
pub struct StreamingSimpleRandom {
    /// Shared per-rate gap table (one per process, not per stream);
    /// `None` at rate 1, where every point is kept.
    gaps: Option<Arc<GeometricGap>>,
    pos: usize,
    next: usize,
    kept: usize,
    rng: StdRng,
}

impl StreamingSimpleRandom {
    /// Creates the sampler with the seed derivation of
    /// [`crate::SimpleRandomSampler`].
    ///
    /// # Errors
    ///
    /// Returns `Err` for rates outside `(0, 1]`.
    pub fn new(rate: f64, seed: u64) -> Result<Self, BssConfigError> {
        if !(rate > 0.0 && rate <= 1.0) {
            return Err(BssConfigError::new("rate must be in (0,1]"));
        }
        Ok(StreamingSimpleRandom::start(rate, seed))
    }

    /// [`StreamingSimpleRandom::new`] for a rate known to be in
    /// `(0, 1]`.
    pub(crate) fn start(rate: f64, seed: u64) -> Self {
        let mut s = StreamingSimpleRandom {
            gaps: (rate < 1.0).then(|| GeometricGap::cached(rate)),
            pos: 0,
            next: 0,
            kept: 0,
            rng: rng_from_seed(derive_seed(seed, 0x51D0)),
        };
        s.next = s.gap() - 1;
        s
    }

    /// The distance to the next kept point: a Geometric(r) gap ≥ 1, or
    /// 1 at rate 1.
    // Forced, as is `decide`: with two callers the inliner leaves both
    // as calls in the slice driver's loop, one per kept point.
    #[inline(always)]
    fn gap(&mut self) -> usize {
        match &self.gaps {
            Some(gaps) => gaps.draw(&mut self.rng),
            None => 1,
        }
    }
}

impl Schedule for StreamingSimpleRandom {
    fn next(&self) -> usize {
        self.next
    }

    #[inline(always)]
    fn decide(&mut self, _value: f64) -> StreamDecision {
        self.kept += 1;
        let gap = self.gap();
        self.next = self.next.saturating_add(gap);
        StreamDecision::KeepNormal
    }
}

impl StreamSampler for StreamingSimpleRandom {
    fn name(&self) -> &'static str {
        "streaming-simple-random"
    }

    fn offer(&mut self, value: f64) -> StreamDecision {
        self.pos += 1;
        offer_at(self.pos - 1, self, value)
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn snapshot(&self) -> SamplerSnapshot {
        SamplerSnapshot {
            offered: self.pos,
            kept: self.kept,
            inspected: self.kept,
        }
    }
}

/// Biased Systematic Sampling, the paper's sampler (§V-C): systematic
/// normal samples at `offset + j·C`; when one exceeds the (possibly
/// online-tuned) threshold, the `L` extras at `t + k·C/(L+1)`,
/// `k = 1…L`, are inspected and those above the threshold kept.
///
/// Extras that collapse onto one position (C ≤ L) are inspected once.
/// Every extra lies strictly before `t + C`, so the schedule needs only
/// the trigger position `t` and the next extra's `k`.
#[derive(Clone, Debug)]
pub struct StreamingBss {
    interval: usize,
    pub(crate) l: usize,
    pos: usize,
    next: usize,
    /// Position of the current interval's normal sample.
    normal: usize,
    /// `k` of the current interval's next extra; above `L` when no
    /// extra is left.
    k: usize,
    /// The threshold in force, set at each normal sample and frozen
    /// for that interval's extras ("based on the same threshold").
    pub(crate) threshold: f64,
    online: Option<OnlineTuning>,
    running: RunningStats,
    normal_count: usize,
    qualified_count: usize,
    extras_inspected: usize,
}

impl StreamingBss {
    /// Creates the sampler. `l` is the extras budget per triggered
    /// interval (the offline sampler's `with_l`).
    ///
    /// # Errors
    ///
    /// Same validation as [`crate::bss::BssSampler::new`].
    pub fn new(
        interval: usize,
        policy: ThresholdPolicy,
        l: usize,
        seed: u64,
    ) -> Result<Self, BssConfigError> {
        check_config(interval, policy)?;
        Ok(StreamingBss::start(interval, policy, l, seed))
    }

    /// [`StreamingBss::new`] for a configuration known to be valid.
    pub(crate) fn start(interval: usize, policy: ThresholdPolicy, l: usize, seed: u64) -> Self {
        let (threshold, online) = match policy {
            ThresholdPolicy::FixedAbsolute(a) => (a, None),
            ThresholdPolicy::RelativeToMean { epsilon, mean } => (epsilon * mean, None),
            ThresholdPolicy::Online(t) => (f64::INFINITY, Some(t)),
        };
        let offset = (seed % interval as u64) as usize;
        StreamingBss {
            interval,
            l,
            pos: 0,
            next: offset,
            normal: offset,
            k: usize::MAX,
            threshold,
            online,
            running: RunningStats::new(),
            normal_count: 0,
            qualified_count: 0,
            extras_inspected: 0,
        }
    }

    /// Normal (systematic) samples kept so far.
    pub fn normal_count(&self) -> usize {
        self.normal_count
    }

    /// Qualified extras kept so far.
    pub fn qualified_count(&self) -> usize {
        self.qualified_count
    }

    /// Extras inspected (kept or not) so far.
    pub fn extras_inspected(&self) -> usize {
        self.extras_inspected
    }

    /// The paper's overhead metric so far (`L′/N`).
    pub fn overhead(&self) -> f64 {
        crate::bss::overhead(self.qualified_count, self.normal_count)
    }

    /// Schedules the position after `next`: the current interval's
    /// next extra past it or, when none is left, the next interval's
    /// normal sample.
    #[inline]
    fn schedule_next(&mut self) {
        while self.k <= self.l {
            let p = self.normal + self.k * self.interval / (self.l + 1);
            self.k += 1;
            if p > self.next {
                self.next = p;
                return;
            }
        }
        self.normal = self.normal.saturating_add(self.interval);
        self.next = self.normal;
    }
}

impl Schedule for StreamingBss {
    fn next(&self) -> usize {
        self.next
    }

    fn decide(&mut self, value: f64) -> StreamDecision {
        let decision = if self.next == self.normal {
            self.normal_count += 1;
            self.running.push(value);
            // Online: refresh a_th from the running mean of every kept
            // sample once warmed up.
            if let Some(t) = self.online {
                self.threshold = if self.running.count() as usize >= t.n_pre {
                    t.epsilon * self.running.mean()
                } else {
                    f64::INFINITY
                };
            }
            // No extra is left from the last interval: k > L here.
            if value > self.threshold {
                self.k = 1;
            }
            StreamDecision::KeepNormal
        } else {
            self.extras_inspected += 1;
            if value > self.threshold {
                self.qualified_count += 1;
                self.running.push(value);
                StreamDecision::KeepQualified
            } else {
                StreamDecision::InspectOnly
            }
        };
        self.schedule_next();
        decision
    }
}

impl StreamSampler for StreamingBss {
    fn name(&self) -> &'static str {
        "streaming-bss"
    }

    fn offer(&mut self, value: f64) -> StreamDecision {
        self.pos += 1;
        offer_at(self.pos - 1, self, value)
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn snapshot(&self) -> SamplerSnapshot {
        SamplerSnapshot {
            offered: self.pos,
            kept: self.normal_count + self.qualified_count,
            // Extras were inspected whether or not they qualified.
            inspected: self.normal_count + self.extras_inspected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bss::BssSampler;
    use crate::sampler::{Sampler, SimpleRandomSampler, StratifiedSampler, SystematicSampler};

    /// Runs a stream sampler over a slice, returning kept (index, value).
    fn collect(s: &mut dyn StreamSampler, vals: &[f64]) -> (Vec<usize>, Vec<f64>) {
        let mut idx = Vec::new();
        let mut kept = Vec::new();
        for (i, &v) in vals.iter().enumerate() {
            if s.offer(v).is_kept() {
                idx.push(i);
                kept.push(v);
            }
        }
        (idx, kept)
    }

    fn bursty(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if (i / 37) % 11 == 0 {
                    120.0 + (i % 7) as f64
                } else {
                    1.0
                }
            })
            .collect()
    }

    #[test]
    fn systematic_stream_matches_offline() {
        let vals = bursty(1013);
        for seed in [0u64, 3, 17] {
            let offline = SystematicSampler::new(8).sample(&vals, seed);
            let mut s = StreamingSystematic::new(8, seed).unwrap();
            let (idx, kept) = collect(&mut s, &vals);
            assert_eq!(idx, offline.indices());
            assert_eq!(kept, offline.values());
        }
    }

    #[test]
    fn stratified_stream_matches_offline_on_full_buckets() {
        let vals = bursty(1000); // 125 full buckets of 8
        for seed in [1u64, 9, 42] {
            let offline = StratifiedSampler::new(8).sample(&vals, seed);
            let mut s = StreamingStratified::new(8, seed).unwrap();
            let (idx, kept) = collect(&mut s, &vals);
            assert_eq!(idx, offline.indices());
            assert_eq!(kept, offline.values());
        }
    }

    #[test]
    fn simple_random_stream_matches_offline() {
        let vals = bursty(20_000);
        for seed in [2u64, 5, 100] {
            let offline = SimpleRandomSampler::new(0.05).sample(&vals, seed);
            let mut s = StreamingSimpleRandom::new(0.05, seed).unwrap();
            let (idx, kept) = collect(&mut s, &vals);
            assert_eq!(idx, offline.indices());
            assert_eq!(kept, offline.values());
        }
    }

    #[test]
    fn bss_stream_matches_offline_fixed_threshold() {
        let vals = bursty(5000);
        for seed in [0u64, 7, 77] {
            let offline = BssSampler::new(50, ThresholdPolicy::FixedAbsolute(50.0))
                .unwrap()
                .with_l(6)
                .sample_detailed(&vals, seed);
            let mut s =
                StreamingBss::new(50, ThresholdPolicy::FixedAbsolute(50.0), 6, seed).unwrap();
            let (idx, kept) = collect(&mut s, &vals);
            assert_eq!(idx, offline.samples.indices(), "seed {seed}");
            assert_eq!(kept, offline.samples.values());
            assert_eq!(s.normal_count(), offline.normal_count);
            assert_eq!(s.qualified_count(), offline.qualified_count);
            assert_eq!(s.extras_inspected(), offline.extras_inspected);
        }
    }

    #[test]
    fn bss_stream_matches_offline_online_policy() {
        let vals = bursty(20_000);
        let tuning = OnlineTuning {
            epsilon: 1.0,
            n_pre: 16,
            ..OnlineTuning::default()
        };
        let offline = BssSampler::new(100, ThresholdPolicy::Online(tuning))
            .unwrap()
            .with_l(8)
            .sample_detailed(&vals, 5);
        let mut s = StreamingBss::new(100, ThresholdPolicy::Online(tuning), 8, 5).unwrap();
        let (idx, kept) = collect(&mut s, &vals);
        assert_eq!(idx, offline.samples.indices());
        assert_eq!(kept, offline.samples.values());
        assert!((s.overhead() - offline.overhead()).abs() < 1e-12);
    }

    #[test]
    fn decisions_classify_correctly() {
        // C = 10, threshold 50, L = 1 → extra at pos + 5.
        let mut s = StreamingBss::new(10, ThresholdPolicy::FixedAbsolute(50.0), 1, 0).unwrap();
        let mut decisions = Vec::new();
        let vals = [
            100.0, 0.0, 0.0, 0.0, 0.0, 100.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0,
        ];
        for &v in &vals {
            decisions.push(s.offer(v));
        }
        use StreamDecision::*;
        assert_eq!(decisions[0], KeepNormal);
        assert_eq!(
            decisions[5], KeepQualified,
            "extra at offset 5 above threshold"
        );
        assert_eq!(decisions[10], KeepNormal, "next interval's normal sample");
        assert_eq!(decisions[1], Skip);
        assert!(!decisions[11].is_inspected());
    }

    #[test]
    fn inspect_only_counts_cost_without_keeping() {
        // Normal sample triggers, but the extra lands on a small value.
        let mut s = StreamingBss::new(4, ThresholdPolicy::FixedAbsolute(50.0), 1, 0).unwrap();
        let decisions: Vec<StreamDecision> =
            [100.0, 0.0, 1.0, 0.0].iter().map(|&v| s.offer(v)).collect();
        assert_eq!(decisions[2], StreamDecision::InspectOnly);
        assert_eq!(s.extras_inspected(), 1);
        assert_eq!(s.qualified_count(), 0);
    }

    #[test]
    fn snapshots_count_offered_kept_inspected() {
        let vals = bursty(5000);
        // Systematic / stratified / simple random: inspected == kept,
        // and the counters match a replayed decision tally.
        let mut samplers: Vec<Box<dyn StreamSampler>> = vec![
            Box::new(StreamingSystematic::new(7, 3).unwrap()),
            Box::new(StreamingStratified::new(7, 3).unwrap()),
            Box::new(StreamingSimpleRandom::new(0.13, 3).unwrap()),
            Box::new(StreamingBss::new(50, ThresholdPolicy::FixedAbsolute(50.0), 6, 3).unwrap()),
        ];
        for s in &mut samplers {
            let mut kept = 0usize;
            let mut inspected = 0usize;
            for &v in &vals {
                let d = s.offer(v);
                kept += usize::from(d.is_kept());
                inspected += usize::from(d.is_inspected());
            }
            let snap = s.snapshot();
            assert_eq!(
                snap,
                SamplerSnapshot {
                    offered: vals.len(),
                    kept,
                    inspected
                },
                "{}",
                s.name()
            );
        }
    }

    #[test]
    fn snapshot_merge_is_fieldwise_addition() {
        let mut a = SamplerSnapshot {
            offered: 10,
            kept: 3,
            inspected: 4,
        };
        let b = SamplerSnapshot {
            offered: 5,
            kept: 1,
            inspected: 1,
        };
        a.merge_from(&b);
        assert_eq!(
            a,
            SamplerSnapshot {
                offered: 15,
                kept: 4,
                inspected: 5
            }
        );
    }

    #[test]
    fn position_tracks_offered_points() {
        let mut s = StreamingSystematic::new(5, 0).unwrap();
        for i in 0..13 {
            assert_eq!(s.position(), i);
            s.offer(0.0);
        }
        assert_eq!(s.position(), 13);
    }

    #[test]
    fn invalid_configs_error() {
        assert!(StreamingSystematic::new(0, 0).is_err());
        assert!(StreamingStratified::new(0, 0).is_err());
        assert!(StreamingSimpleRandom::new(0.0, 0).is_err());
        assert!(StreamingSimpleRandom::new(1.5, 0).is_err());
        assert!(StreamingBss::new(0, ThresholdPolicy::FixedAbsolute(1.0), 5, 0).is_err());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn all_streams_match_offline(
                seed in 0u64..1000,
                interval in 1usize..32,
                n in 0usize..20_000,
            ) {
                // Any length: the final bucket is partial unless C | n.
                let vals = bursty(n);
                // Systematic.
                let off = SystematicSampler::new(interval).sample(&vals, seed);
                let mut s = StreamingSystematic::new(interval, seed).unwrap();
                let (idx, kept) = collect(&mut s, &vals);
                prop_assert_eq!(&idx, off.indices());
                prop_assert_eq!(&kept, off.values());
                // Simple random at rate 1/C.
                let rate = 1.0 / interval as f64;
                let off = SimpleRandomSampler::new(rate).sample(&vals, seed);
                let mut s = StreamingSimpleRandom::new(rate, seed).unwrap();
                let (idx, kept) = collect(&mut s, &vals);
                prop_assert_eq!(&idx, off.indices());
                prop_assert_eq!(&kept, off.values());
                // Stratified: equal on every full bucket; the offline
                // pick of a partial final bucket lies inside it.
                let full = n - n % interval;
                let off = StratifiedSampler::new(interval).sample(&vals, seed);
                let mut s = StreamingStratified::new(interval, seed).unwrap();
                let (idx, _) = collect(&mut s, &vals);
                let in_full = |i: &[usize]| i.iter().copied().filter(|&i| i < full).collect::<Vec<_>>();
                prop_assert_eq!(in_full(&idx), in_full(off.indices()));
                let partial = &off.indices()[in_full(off.indices()).len()..];
                prop_assert_eq!(partial.len(), usize::from(full < n));
                prop_assert!(partial.iter().all(|&i| (full..n).contains(&i)));
                // BSS with a fixed threshold and with the online policy
                // (its L derived from the trace length).
                let online = ThresholdPolicy::Online(OnlineTuning {
                    n_pre: 4,
                    ..OnlineTuning::default()
                });
                for policy in [ThresholdPolicy::FixedAbsolute(50.0), online] {
                    let offline = BssSampler::new(interval, policy).unwrap();
                    let l = offline.effective_l(n);
                    let off = offline.sample_detailed(&vals, seed);
                    let mut s = StreamingBss::new(interval, policy, l, seed).unwrap();
                    let (idx, kept) = collect(&mut s, &vals);
                    prop_assert_eq!(&idx, off.samples.indices());
                    prop_assert_eq!(&kept, off.samples.values());
                    prop_assert_eq!(s.normal_count(), off.normal_count);
                    prop_assert_eq!(s.qualified_count(), off.qualified_count);
                    prop_assert_eq!(s.extras_inspected(), off.extras_inspected);
                }
            }
        }
    }
}
