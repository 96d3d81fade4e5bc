//! Online (single-pass, bounded-memory) aggregated-variance Hurst
//! estimation over **dyadic block accumulators**.
//!
//! The offline [`crate::classic::VarianceTimeEstimator`] needs the whole
//! series in memory to form block means at every aggregation level. A
//! monitor watching an unbounded stream cannot afford that; this module
//! maintains, per dyadic level `m = 2^k`, a Welford accumulator of the
//! completed `m`-block means — O(log n) state total — via a
//! binary-counter cascade: each arriving value closes a level-0 block,
//! two closed level-`k` blocks merge into a closed level-`k+1` block,
//! and every closed block pushes its mean into its level's
//! [`RunningStats`]. The log-log regression of block-mean variance
//! against `m` then gives `H = 1 + slope/2` exactly as in the offline
//! method (`var(X^(m)) ~ σ²·m^{2H−2}`), and the
//! `online_matches_offline_*` tests pin the two estimators to within
//! 0.02 on fGn fixtures.
//!
//! The per-level accumulators are **mergeable**: pooling the completed
//! block means of two disjoint streams level by level yields the
//! pooled variance-time statistic of both streams (the open partial
//! blocks of each stream are dropped — they have no sibling to pair
//! with across streams). `sst-monitor` uses this to combine per-stream
//! Hurst state into link-level estimates.

use crate::report::{EstimateError, HurstEstimate, Method};
use sst_sigproc::regress::ols;
use sst_stats::rng::derive_seed;
use sst_stats::RunningStats;

/// Hard cap on dyadic levels: 2^48 values is far beyond any stream this
/// engine will see, and keeps merged state bounded.
const MAX_LEVELS: usize = 48;

/// Fewest completed blocks for a level to enter the regression — the
/// offline estimator's `max_m = n/16` bound, expressed online.
const MIN_BLOCKS: u64 = 16;

/// A differential update taking an older snapshot of a cascade to a
/// newer one, produced by [`OnlineVarianceTime::diff_from`] and applied
/// by [`OnlineVarianceTime::apply_patch`].
///
/// Changed levels ship their Welford state and carry slot **verbatim**
/// (floats are never delta-encoded — reassembly must be bit-exact);
/// only the monotone value counter travels as an integer delta. With
/// ≤`p` new points the cascade touches only its ~`log₂ p` finest
/// levels, so a steady-state patch is a small fraction of the full
/// cascade.
#[derive(Clone, Debug, PartialEq)]
pub struct CascadePatch {
    /// `new.count − base.count` (monotone counter delta).
    pub count_delta: u64,
    /// Level count of the new state (never shrinks in a diffable pair).
    pub new_levels: usize,
    /// Changed levels as `(index, block-mean stats, carry slot)`,
    /// strictly ascending by index.
    pub changed: Vec<(usize, RunningStats, Option<f64>)>,
}

/// Bit-level image of one cascade level, for exact change detection
/// (`PartialEq` on floats would conflate `0.0`/`-0.0` and NaN payloads,
/// silently breaking byte-identical reassembly).
fn level_bits(stats: &RunningStats, carry: Option<f64>) -> (u64, u64, u64, u64, u64, Option<u64>) {
    let (n, mean, m2, min, max) = stats.raw_parts();
    (
        n,
        mean.to_bits(),
        m2.to_bits(),
        min.to_bits(),
        max.to_bits(),
        carry.map(f64::to_bits),
    )
}

/// Streaming aggregated-variance (variance-time) estimator state.
///
/// # Examples
///
/// ```
/// use sst_hurst::online::OnlineVarianceTime;
/// use sst_traffic::FgnGenerator;
///
/// let mut ovt = OnlineVarianceTime::new();
/// for v in FgnGenerator::new(0.8).unwrap().generate_values(1 << 14, 3) {
///     ovt.push(v);
/// }
/// let est = ovt.estimate().unwrap();
/// assert!((est.hurst - 0.8).abs() < 0.1);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OnlineVarianceTime {
    /// Values pushed so far.
    count: u64,
    /// `levels[k]`: stats of the means of completed `2^k`-blocks, and
    /// the sum of a completed `2^k`-block waiting for its sibling (the
    /// binary-counter carry chain). One vector, so a push that climbs
    /// the cascade touches one entry per level.
    levels: Vec<(RunningStats, Option<f64>)>,
}

impl OnlineVarianceTime {
    /// Creates empty estimator state.
    pub fn new() -> Self {
        OnlineVarianceTime::default()
    }

    /// Values pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Absorbs one value (amortized O(1): the cascade touches level `k`
    /// every `2^k` pushes).
    ///
    /// A level-`k` block mean is its sum times `2^-k`. Both `2^k` and
    /// `2^-k` are exact doubles here (`k < 48`), and IEEE 754 rounds
    /// the product and the quotient of the same operands' exact value
    /// identically, so this is bit for bit `sum / 2^k` — for subnormal,
    /// signed-zero, infinite and NaN sums too.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let mut sum = x;
        let mut scale = 1.0;
        for k in 0..MAX_LEVELS {
            if self.levels.len() <= k {
                self.levels.push((RunningStats::new(), None));
            }
            let (stats, carry) = &mut self.levels[k];
            stats.push(sum * scale);
            match carry.take() {
                // The sibling (earlier half) was waiting: the parent
                // block is now complete; carry its sum upward.
                Some(first_half) => {
                    sum += first_half;
                    scale *= 0.5;
                }
                None => {
                    *carry = Some(sum);
                    break;
                }
            }
        }
    }

    /// Per-level view: `(block size m, completed-block-mean stats)` for
    /// every level that has completed at least one block.
    pub fn levels(&self) -> impl Iterator<Item = (u64, &RunningStats)> {
        self.levels
            .iter()
            .enumerate()
            .filter(|(_, (s, _))| s.count() > 0)
            .map(|(k, (s, _))| (1u64 << k, s))
    }

    /// Decomposes the estimator into its raw state `(count, levels)`,
    /// level `k` being `(stats of the completed 2^k-block means, sum of
    /// the 2^k-block waiting for its sibling)`, so a serializer can
    /// round-trip it bit-for-bit.
    pub fn raw_parts(&self) -> (u64, &[(RunningStats, Option<f64>)]) {
        (self.count, &self.levels)
    }

    /// Rebuilds estimator state from [`OnlineVarianceTime::raw_parts`]
    /// output.
    pub fn from_raw_parts(count: u64, levels: Vec<(RunningStats, Option<f64>)>) -> Self {
        OnlineVarianceTime { count, levels }
    }

    /// Number of dyadic levels currently held (including levels whose
    /// block-mean stats are still empty).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Approximate in-memory footprint: the per-level block-mean stats
    /// plus the carry chain, in bytes.
    ///
    /// The 48 B of headers are nominal: they count two vector headers,
    /// and the cascade holds one. They stay because summary compaction
    /// budgets levels by this figure, and the levels a compaction keeps
    /// are visible on the wire.
    pub fn estimated_bytes(&self) -> usize {
        // count + 2 Vec headers, then 40 B of Welford state and a
        // 16 B Option<f64> carry slot per level.
        8 + 48 + self.levels.len() * (40 + 16)
    }

    /// Drops every dyadic level at index `max_levels` and above — the
    /// *coarse* end of the cascade, whose block sizes are largest and
    /// whose completed-block counts are smallest (a level at index `k`
    /// needs `16 · 2^k` values before [`OnlineVarianceTime::estimate`]
    /// will even use it). This is the summary-compaction primitive: it
    /// bounds the estimator at `max_levels · 56` bytes while leaving the
    /// statistically informative fine levels untouched.
    ///
    /// Lossy but benign: subsequent pushes re-grow coarse levels from
    /// the point of pruning (their partial carries restart), so a
    /// periodically pruned estimator tracks the unpruned one on the
    /// fine levels exactly and differs only in coarse levels that a
    /// bounded-memory monitor could not afford anyway. `count` — the
    /// total — is untouched.
    pub fn prune_levels(&mut self, max_levels: usize) {
        let keep = max_levels.min(MAX_LEVELS);
        self.levels.truncate(keep);
    }

    /// The patch taking `base` to `self`, or `None` when the pair is
    /// not diffable: the count went backwards or levels shrank (e.g.
    /// `base` was pruned after `self`'s snapshot — ship the full state
    /// instead). Applying the result to `base` reproduces `self`
    /// bit-for-bit: changed levels travel verbatim, compared at the
    /// bit level so signed zeros and NaN payloads survive.
    pub fn diff_from(&self, base: &OnlineVarianceTime) -> Option<CascadePatch> {
        if self.count < base.count || self.levels.len() < base.levels.len() {
            return None;
        }
        let mut changed = Vec::new();
        for (k, &(stats, carry)) in self.levels.iter().enumerate() {
            let same = base
                .levels
                .get(k)
                .is_some_and(|&(b, b_carry)| level_bits(&b, b_carry) == level_bits(&stats, carry));
            if !same {
                changed.push((k, stats, carry));
            }
        }
        Some(CascadePatch {
            count_delta: self.count - base.count,
            new_levels: self.levels.len(),
            changed,
        })
    }

    /// Applies a [`OnlineVarianceTime::diff_from`] patch. Returns
    /// `false` — leaving the state untouched — when the patch is
    /// structurally inconsistent with this state (levels would shrink,
    /// indices out of range or unsorted, counter overflow); a receiver
    /// should treat that as a lost baseline and resync.
    pub fn apply_patch(&mut self, p: &CascadePatch) -> bool {
        if p.new_levels < self.levels.len() || p.new_levels > MAX_LEVELS {
            return false;
        }
        let Some(count) = self.count.checked_add(p.count_delta) else {
            return false;
        };
        let mut prev: Option<usize> = None;
        for &(idx, _, _) in &p.changed {
            if idx >= p.new_levels || prev.is_some_and(|q| idx <= q) {
                return false;
            }
            prev = Some(idx);
        }
        self.levels
            .resize(p.new_levels, (RunningStats::new(), None));
        for &(idx, stats, carry) in &p.changed {
            self.levels[idx] = (stats, carry);
        }
        self.count = count;
        true
    }

    /// Pools another estimator's completed-block statistics into this
    /// one (level-by-level [`RunningStats::merge`]; the open partial
    /// blocks of `other` are dropped — across streams they have no
    /// sibling to complete with).
    pub fn merge_from(&mut self, other: &OnlineVarianceTime) {
        self.count += other.count;
        if self.levels.len() < other.levels.len() {
            self.levels
                .resize(other.levels.len(), (RunningStats::new(), None));
        }
        for ((mine, _), (theirs, _)) in self.levels.iter_mut().zip(&other.levels) {
            mine.merge(theirs);
        }
    }

    /// The variance-time regression over the dyadic levels:
    /// `H = 1 + slope/2` from `log var(X^(m))` vs `log m`, levels
    /// `m ≥ 2` with at least 16 completed blocks.
    ///
    /// # Errors
    ///
    /// [`EstimateError::TooShort`] with fewer than 3 usable levels;
    /// [`EstimateError::Degenerate`] when the variances collapse to
    /// zero (constant input).
    pub fn estimate(&self) -> Result<HurstEstimate, EstimateError> {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (m, stats) in self.levels() {
            if m < 2 || stats.count() < MIN_BLOCKS {
                continue;
            }
            let var = stats.variance();
            if var > 0.0 {
                xs.push((m as f64).log10());
                ys.push(var.log10());
            }
        }
        if xs.len() < 3 {
            // 128 values complete 16 blocks at m ∈ {2, 4, 8} — the
            // smallest stream with 3 regression points. With that much
            // data and still no usable levels, the input is constant.
            if self.count >= 128 {
                return Err(EstimateError::Degenerate);
            }
            return Err(EstimateError::TooShort {
                got: self.count as usize,
                need: 128,
            });
        }
        let fit = ols(&xs, &ys);
        if !fit.slope.is_finite() {
            return Err(EstimateError::Degenerate);
        }
        Ok(HurstEstimate {
            hurst: 1.0 + fit.slope / 2.0,
            stderr: fit.slope_stderr / 2.0,
            method: Method::OnlineVarianceTime,
            n_points: xs.len(),
            r_squared: fit.r_squared,
        })
    }
}

/// A bank of `r` sign-projection variance-time cascades over a *keyed*
/// stream — the sketch-tier counterpart of [`OnlineVarianceTime`].
///
/// When millions of keys share one aggregate, per-key cascades are
/// unaffordable; Fontugne, Abry & Veitch instead push each point
/// through a handful of random ±1 projections (`σ_j(key) · value`) and
/// run the multiscale analysis on the projected series. A ±1 mixture
/// of flows preserves the second-order scaling of the aggregate, so
/// each cascade's variance-time slope still estimates `H`; the bank
/// reports the median over its cascades to damp projection noise.
///
/// Signs are derived deterministically from `(seed, cascade, key)` via
/// [`derive_seed`] parity, so two banks with the same seed absorb a
/// partitioned stream into mergeable state: [`ProjectionBank::merge_from`]
/// pools the cascades level by level exactly as
/// [`OnlineVarianceTime::merge_from`] does.
#[derive(Clone, Debug, PartialEq)]
pub struct ProjectionBank {
    seed: u64,
    /// Cached `derive_seed(seed, j)` per cascade.
    cascade_seeds: Vec<u64>,
    cascades: Vec<OnlineVarianceTime>,
}

impl ProjectionBank {
    /// Creates a bank of `r` cascades (min 1) whose signs derive from
    /// `seed`.
    pub fn new(r: usize, seed: u64) -> Self {
        let r = r.max(1);
        ProjectionBank {
            seed,
            cascade_seeds: (0..r as u64).map(|j| derive_seed(seed, j)).collect(),
            cascades: vec![OnlineVarianceTime::new(); r],
        }
    }

    /// The sign-derivation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of cascades in the bank.
    pub fn len(&self) -> usize {
        self.cascades.len()
    }

    /// True when no value has been absorbed (or merged in).
    pub fn is_empty(&self) -> bool {
        self.cascades.iter().all(|c| c.count() == 0)
    }

    /// Values absorbed so far (each value feeds every cascade once).
    pub fn count(&self) -> u64 {
        self.cascades.first().map_or(0, |c| c.count())
    }

    /// Absorbs one keyed value: cascade `j` receives
    /// `σ_j(key) · value` with `σ_j(key) = ±1` from seed parity.
    pub fn push(&mut self, key: u64, value: f64) {
        for (j, cascade) in self.cascades.iter_mut().enumerate() {
            let sign = if derive_seed(self.cascade_seeds[j], key) & 1 == 0 {
                1.0
            } else {
                -1.0
            };
            cascade.push(sign * value);
        }
    }

    /// The per-cascade states, for serialization.
    pub fn cascades(&self) -> &[OnlineVarianceTime] {
        &self.cascades
    }

    /// Rebuilds a bank from codec-decoded cascades. Returns `None` on
    /// an empty cascade list.
    pub fn from_raw_parts(seed: u64, cascades: Vec<OnlineVarianceTime>) -> Option<Self> {
        if cascades.is_empty() {
            return None;
        }
        Some(ProjectionBank {
            seed,
            cascade_seeds: (0..cascades.len() as u64)
                .map(|j| derive_seed(seed, j))
                .collect(),
            cascades,
        })
    }

    /// Pools another bank's cascades into this one, level by level.
    /// Requires matching seed and cascade count (same projection
    /// family); a mismatched bank is skipped entirely — a projection
    /// under a different sign family cannot be pooled meaningfully.
    /// An empty `other` is an identity; an empty `self` adopts `other`.
    pub fn merge_from(&mut self, other: &ProjectionBank) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        if self.seed != other.seed || self.cascades.len() != other.cascades.len() {
            return;
        }
        for (mine, theirs) in self.cascades.iter_mut().zip(&other.cascades) {
            mine.merge_from(theirs);
        }
    }

    /// Bounds every cascade at `max_levels` dyadic levels (see
    /// [`OnlineVarianceTime::prune_levels`]).
    pub fn prune_levels(&mut self, max_levels: usize) {
        for c in &mut self.cascades {
            c.prune_levels(max_levels);
        }
    }

    /// Approximate in-memory footprint in bytes.
    pub fn estimated_bytes(&self) -> usize {
        48 + 8 * self.cascade_seeds.len()
            + self
                .cascades
                .iter()
                .map(|c| c.estimated_bytes())
                .sum::<usize>()
    }

    /// The bank's Hurst estimate: the median over the cascades'
    /// variance-time estimates (lower-middle element for even counts —
    /// deterministic).
    ///
    /// # Errors
    ///
    /// Propagates the first cascade error when *no* cascade can
    /// estimate.
    pub fn estimate(&self) -> Result<HurstEstimate, EstimateError> {
        let mut ok = Vec::new();
        let mut first_err = None;
        for c in &self.cascades {
            match c.estimate() {
                Ok(e) => ok.push(e),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if ok.is_empty() {
            return Err(first_err.unwrap_or(EstimateError::Degenerate));
        }
        ok.sort_by(|a, b| a.hurst.partial_cmp(&b.hurst).expect("finite hurst"));
        Ok(ok.swap_remove((ok.len() - 1) / 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::VarianceTimeEstimator;
    use sst_traffic::FgnGenerator;

    fn fgn(h: f64, n: usize, seed: u64) -> Vec<f64> {
        FgnGenerator::new(h).unwrap().generate_values(n, seed)
    }

    fn online_of(values: &[f64]) -> OnlineVarianceTime {
        let mut ovt = OnlineVarianceTime::new();
        for &v in values {
            ovt.push(v);
        }
        ovt
    }

    #[test]
    fn block_stats_match_offline_aggregation_exactly() {
        // The cascade's completed 2^k-blocks are the offline method's
        // aligned complete blocks; counts must match exactly and the
        // variances to fp round-off.
        let vals = fgn(0.75, (1 << 12) + 37, 5); // non-pow2: partials drop
        let ovt = online_of(&vals);
        for (m, stats) in ovt.levels() {
            let m = m as usize;
            let blocks = vals.len() / m;
            assert_eq!(stats.count(), blocks as u64, "m={m}");
            if blocks >= 2 {
                let means: Vec<f64> = (0..blocks)
                    .map(|b| vals[b * m..(b + 1) * m].iter().sum::<f64>() / m as f64)
                    .collect();
                let grand = means.iter().sum::<f64>() / blocks as f64;
                let var = means
                    .iter()
                    .map(|&x| (x - grand) * (x - grand))
                    .sum::<f64>()
                    / blocks as f64;
                assert!(
                    (stats.variance() - var).abs() <= 1e-9 * var.max(1e-30),
                    "m={m}: online {} vs offline {var}",
                    stats.variance()
                );
            }
        }
    }

    #[test]
    fn online_matches_offline_variance_time_on_fgn() {
        // The acceptance bound for the monitoring engine: online vs the
        // offline estimator within 0.02 across the paper's H range.
        for &h in &[0.6, 0.75, 0.9] {
            let vals = fgn(h, 1 << 16, 11);
            let offline = VarianceTimeEstimator::default()
                .estimate(&vals)
                .unwrap()
                .hurst;
            let online = online_of(&vals).estimate().unwrap().hurst;
            assert!(
                (online - offline).abs() < 0.02,
                "H={h}: online {online:.4} vs offline {offline:.4}"
            );
            assert!((online - h).abs() < 0.1, "H={h}: online {online:.4}");
        }
    }

    #[test]
    fn white_noise_reads_near_half() {
        let est = online_of(&fgn(0.5, 1 << 15, 7)).estimate().unwrap();
        assert!((est.hurst - 0.5).abs() < 0.06, "H={}", est.hurst);
    }

    #[test]
    fn merge_pools_block_means() {
        // Two independent streams: merged per-level counts add, and the
        // merged estimate is the pooled variance-time statistic.
        let a = online_of(&fgn(0.8, 1 << 14, 1));
        let b = online_of(&fgn(0.8, 1 << 14, 2));
        let mut merged = a.clone();
        merged.merge_from(&b);
        assert_eq!(merged.count(), a.count() + b.count());
        for ((m_a, sa), (m_m, sm)) in a.levels().zip(merged.levels()) {
            assert_eq!(m_a, m_m);
            let sb = b
                .levels()
                .find(|&(m, _)| m == m_a)
                .map(|(_, s)| s.count())
                .unwrap_or(0);
            assert_eq!(sm.count(), sa.count() + sb, "m={m_a}");
        }
        let h = merged.estimate().unwrap().hurst;
        assert!((h - 0.8).abs() < 0.1, "merged H={h}");
    }

    #[test]
    fn merge_is_deterministic() {
        let a = online_of(&fgn(0.7, 4096, 3));
        let b = online_of(&fgn(0.7, 2048, 4));
        let mut m1 = a.clone();
        m1.merge_from(&b);
        let mut m2 = a.clone();
        m2.merge_from(&b);
        assert_eq!(m1, m2);
    }

    #[test]
    fn short_input_errors() {
        let ovt = online_of(&fgn(0.7, 32, 5));
        assert!(matches!(
            ovt.estimate(),
            Err(EstimateError::TooShort { .. })
        ));
    }

    #[test]
    fn prune_drops_coarse_levels_and_keeps_totals() {
        let vals = fgn(0.8, 1 << 14, 9);
        let full = online_of(&vals);
        let mut pruned = full.clone();
        pruned.prune_levels(8);
        assert_eq!(pruned.level_count(), 8);
        assert_eq!(pruned.count(), full.count(), "totals are sacred");
        // The surviving fine levels are bit-identical to the unpruned
        // cascade's.
        for ((m_p, sp), (m_f, sf)) in pruned.levels().zip(full.levels()) {
            assert_eq!(m_p, m_f);
            assert_eq!(sp, sf, "m={m_p}");
        }
        assert!(pruned.estimated_bytes() < full.estimated_bytes());
        // Still estimates (levels m ∈ {2..128} remain usable).
        let h = pruned.estimate().unwrap().hurst;
        assert!((h - 0.8).abs() < 0.15, "pruned H={h}");
    }

    #[test]
    fn pruned_estimator_regrows_under_further_pushes() {
        let vals = fgn(0.7, 1 << 12, 3);
        let mut ovt = online_of(&vals);
        ovt.prune_levels(4);
        for &v in &vals {
            ovt.push(v);
        }
        assert!(ovt.level_count() > 4, "coarse levels regrow");
        assert_eq!(ovt.count(), 2 * vals.len() as u64);
        assert!(ovt.estimate().is_ok());
    }

    #[test]
    fn prune_to_more_levels_than_held_is_a_noop() {
        let mut ovt = online_of(&fgn(0.6, 1024, 1));
        let before = ovt.clone();
        ovt.prune_levels(64);
        assert_eq!(ovt, before);
    }

    #[test]
    fn constant_input_is_degenerate() {
        let ovt = online_of(&[3.0; 4096]);
        assert!(matches!(ovt.estimate(), Err(EstimateError::Degenerate)));
    }

    #[test]
    fn projection_of_one_key_matches_raw_cascade_variances() {
        // A single key gets one global sign per cascade; variance is
        // sign-invariant, so every level's block-mean variance matches
        // the unprojected cascade and so does the estimate.
        let vals = fgn(0.8, 1 << 14, 21);
        let raw = online_of(&vals);
        let mut bank = ProjectionBank::new(4, 77);
        for &v in &vals {
            bank.push(42, v);
        }
        for c in bank.cascades() {
            for ((m_r, sr), (m_c, sc)) in raw.levels().zip(c.levels()) {
                assert_eq!(m_r, m_c);
                assert_eq!(sr.count(), sc.count());
                assert!(
                    (sr.variance() - sc.variance()).abs() <= 1e-12 * sr.variance().max(1e-30),
                    "m={m_r}"
                );
            }
        }
        let h_raw = raw.estimate().unwrap().hurst;
        let h_bank = bank.estimate().unwrap().hurst;
        assert!((h_raw - h_bank).abs() < 1e-9, "{h_raw} vs {h_bank}");
    }

    #[test]
    fn projection_mixture_recovers_hurst_within_tolerance() {
        // 8 independent fGn flows arriving in long runs: each flow keeps
        // a constant sign per cascade, so the signed mixture preserves
        // the common scaling exponent.
        let h = 0.8;
        let flows: Vec<Vec<f64>> = (0..8u64).map(|k| fgn(h, 1 << 13, 100 + k)).collect();
        let mut bank = ProjectionBank::new(4, 9);
        let run = 1024;
        for chunk in 0..(1 << 13) / run {
            for (k, flow) in flows.iter().enumerate() {
                for &v in &flow[chunk * run..(chunk + 1) * run] {
                    bank.push(k as u64, v);
                }
            }
        }
        let est = bank.estimate().unwrap().hurst;
        assert!((est - h).abs() < 0.15, "projected H={est} vs {h}");
    }

    #[test]
    fn projection_merge_pools_partitions() {
        let vals = fgn(0.75, 1 << 13, 31);
        let mut whole = ProjectionBank::new(3, 5);
        let mut left = ProjectionBank::new(3, 5);
        let mut right = ProjectionBank::new(3, 5);
        for (i, &v) in vals.iter().enumerate() {
            let key = (i / 512) as u64 % 4;
            whole.push(key, v);
            if key < 2 {
                left.push(key, v);
            } else {
                right.push(key, v);
            }
        }
        let mut merged = left.clone();
        merged.merge_from(&right);
        assert_eq!(merged.count(), whole.count());
        // Identity laws.
        let before = merged.clone();
        merged.merge_from(&ProjectionBank::new(3, 5));
        assert_eq!(merged, before);
        let mut empty = ProjectionBank::new(3, 5);
        empty.merge_from(&before);
        assert_eq!(empty, before);
        // Mismatched family is skipped, not corrupted.
        let mut other_family = ProjectionBank::new(3, 6);
        other_family.push(1, 1.0);
        let kept = merged.clone();
        merged.merge_from(&other_family);
        assert_eq!(merged, kept);
    }

    #[test]
    fn projection_bank_roundtrips_raw_parts() {
        let mut bank = ProjectionBank::new(2, 13);
        for i in 0..4096 {
            bank.push(i % 7, (i as f64).sin());
        }
        let back = ProjectionBank::from_raw_parts(bank.seed(), bank.cascades().to_vec()).unwrap();
        assert_eq!(back, bank);
        assert!(ProjectionBank::from_raw_parts(13, Vec::new()).is_none());
    }

    /// Reference cascade: parallel stats and carry vectors, each block
    /// mean its sum divided by `2^k`.
    #[derive(Default)]
    struct DividingCascade {
        levels: Vec<RunningStats>,
        partial: Vec<Option<f64>>,
    }

    impl DividingCascade {
        fn push(&mut self, x: f64) {
            let mut sum = x;
            let mut size = 1u64;
            for k in 0..MAX_LEVELS {
                if self.levels.len() <= k {
                    self.levels.push(RunningStats::new());
                    self.partial.push(None);
                }
                self.levels[k].push(sum / size as f64);
                match self.partial[k].take() {
                    Some(first_half) => {
                        sum += first_half;
                        size *= 2;
                    }
                    None => {
                        self.partial[k] = Some(sum);
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn scaled_block_means_equal_the_quotients_bit_for_bit() {
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0, // subnormal
            -f64::from_bits(1),      // smallest subnormal, negative
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0ABC), // signalling NaN payload
            f64::from_bits(0xFFF8_0000_0000_1234), // negative quiet NaN payload
            1.0 / 3.0,
            -7.25e-300,
        ];
        // The scalar identity at every level the cascade can reach.
        let mut scale = 1.0;
        for k in 0..MAX_LEVELS {
            let size = (1u64 << k) as f64;
            for &x in &specials {
                assert_eq!(
                    (x * scale).to_bits(),
                    (x / size).to_bits(),
                    "{x:e} at k={k}"
                );
            }
            scale *= 0.5;
        }
        // Whole cascades: a stream of tiny values (sums stay subnormal)
        // with every special mixed in, and one that overflows to ±∞
        // and NaN partway.
        let tiny: Vec<f64> = (0..3000u64)
            .map(|i| f64::from_bits(1 + i % 97) * if i % 5 == 0 { -1.0 } else { 1.0 })
            .collect();
        let wild: Vec<f64> = (0..3000usize)
            .map(|i| match i % 11 {
                0 => specials[(i / 11) % specials.len()],
                1 => f64::MAX / 2.0,
                _ => (i as f64).sin() * 1e-310,
            })
            .collect();
        for stream in [tiny, wild] {
            let mut scaled = OnlineVarianceTime::new();
            let mut divided = DividingCascade::default();
            for &v in &stream {
                scaled.push(v);
                divided.push(v);
            }
            let (count, levels) = scaled.raw_parts();
            assert_eq!(count, stream.len() as u64);
            assert_eq!(levels.len(), divided.levels.len());
            for (k, &(stats, carry)) in levels.iter().enumerate() {
                assert_eq!(
                    level_bits(&stats, carry),
                    level_bits(&divided.levels[k], divided.partial[k]),
                    "level {k}"
                );
            }
        }
    }

    #[test]
    fn cascade_patch_reassembles_bit_exact() {
        let mut base = OnlineVarianceTime::new();
        for i in 0..20_000 {
            base.push((i as f64).sin() * 3.0 + (i % 17) as f64);
        }
        let mut grown = base.clone();
        for i in 20_000..20_037 {
            grown.push((i as f64).sin() * 3.0 + (i % 17) as f64);
        }
        let patch = grown.diff_from(&base).expect("grown cascade diffs");
        // A tiny tail touches only the fine levels; the coarse ones
        // must not travel.
        assert!(patch.changed.len() < grown.level_count());
        let mut rebuilt = base.clone();
        assert!(rebuilt.apply_patch(&patch));
        assert_eq!(rebuilt, grown);
        // Identity patch.
        let empty = base.diff_from(&base).unwrap();
        assert!(empty.changed.is_empty());
        let mut same = base.clone();
        assert!(same.apply_patch(&empty));
        assert_eq!(same, base);
    }

    #[test]
    fn cascade_patch_rejects_structural_shrink() {
        let mut big = OnlineVarianceTime::new();
        for i in 0..10_000 {
            big.push(i as f64);
        }
        let mut small = OnlineVarianceTime::new();
        for i in 0..100 {
            small.push(i as f64);
        }
        // A shrinking pair is not diffable...
        assert!(small.diff_from(&big).is_none());
        // ...and a patch naming fewer levels than the target holds is
        // rejected without mutating it.
        let patch = small.diff_from(&small).unwrap();
        let before = big.clone();
        assert!(!big.apply_patch(&patch));
        assert_eq!(big, before);
    }
}
