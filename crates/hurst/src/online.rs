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

    /// Releases the level vector's spare capacity, as a clone would
    /// hold none.
    pub fn shrink_to_fit(&mut self) {
        self.levels.shrink_to_fit();
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

/// Most cascades a [`ProjectionBank`] holds — a snapshot decoder's
/// bound too — so a push keeps its per-cascade sums on the stack.
pub const MAX_PROJECTIONS: usize = 16;

/// Values a [`ProjectionBank`] level holds per cascade: its block-mean
/// Welford mean, m2, min and max, then its carry sum.
const FIELDS: usize = 5;

/// Field indices within a level: field `f`'s `r` lanes start at `f · r`.
const MEAN: usize = 0;
const M2: usize = 1;
const MIN: usize = 2;
const MAX: usize = 3;
const CARRY: usize = 4;

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
///
/// ## Lockstep layout
///
/// Every cascade sees every value, so all `r` share one count, and
/// therefore one binary-counter carry pattern and one completed-block
/// count per level: a push closes the same levels in each. The bank
/// stores the cascades interleaved, level by level — per level one
/// block count, one carry bit, and `r` lanes each of Welford mean, m2,
/// min, max and carry sum, field by field — and a push computes the
/// `r` signs once, then climbs the levels once, updating every lane of
/// a level together. Each lane's operations are those of
/// [`OnlineVarianceTime::push`] (and [`RunningStats::push`]) fed
/// `σ_j(key) · value`, in the same order, so cascade `j`
/// ([`ProjectionBank::cascades`]) is bit for bit that cascade. Cascades
/// that do not share count, level count, block counts and carry
/// pattern are no bank: [`ProjectionBank::from_raw_parts`] refuses
/// them.
#[derive(Clone, Debug)]
pub struct ProjectionBank {
    seed: u64,
    /// Cached `derive_seed(seed, j)` per cascade.
    cascade_seeds: Vec<u64>,
    /// Values absorbed (or merged in) — every cascade's count.
    count: u64,
    /// Bit `k` set: level `k` holds a carry sum in every cascade. Bits
    /// at and above the level count are clear.
    carried: u64,
    /// `blocks[k]`: completed level-`k` blocks, in every cascade.
    blocks: Vec<u64>,
    /// Level `k`'s `FIELDS · r` values from `k · FIELDS · r`: field
    /// `f`'s lanes from `f · r` within the level, cascade `j` at lane
    /// `j`. A carry lane is meaningful only while the level's bit in
    /// `carried` is set.
    lanes: Vec<f64>,
}

/// Banks are equal when their cascades are: carry lanes count only
/// where a carry is held.
impl PartialEq for ProjectionBank {
    fn eq(&self, other: &Self) -> bool {
        let r = self.len();
        self.seed == other.seed
            && r == other.len()
            && self.count == other.count
            && self.carried == other.carried
            && self.blocks == other.blocks
            && self
                .lanes
                .chunks_exact(FIELDS * r)
                .zip(other.lanes.chunks_exact(FIELDS * r))
                .enumerate()
                .all(|(k, (a, b))| {
                    let held = if self.carried >> k & 1 != 0 {
                        FIELDS
                    } else {
                        CARRY
                    };
                    a[..held * r] == b[..held * r]
                })
    }
}

impl ProjectionBank {
    /// Creates a bank of `r` cascades (clamped to
    /// `1..=`[`MAX_PROJECTIONS`]) whose signs derive from `seed`.
    pub fn new(r: usize, seed: u64) -> Self {
        let r = r.clamp(1, MAX_PROJECTIONS);
        ProjectionBank {
            seed,
            cascade_seeds: (0..r as u64).map(|j| derive_seed(seed, j)).collect(),
            count: 0,
            carried: 0,
            blocks: Vec::new(),
            lanes: Vec::new(),
        }
    }

    /// The sign-derivation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of cascades in the bank.
    pub fn len(&self) -> usize {
        self.cascade_seeds.len()
    }

    /// True when no value has been absorbed (or merged in).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Values absorbed so far (each value feeds every cascade once).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Appends an empty level: every lane a fresh [`RunningStats`].
    fn push_level(&mut self) {
        let (_, mean, m2, min, max) = RunningStats::new().raw_parts();
        self.blocks.push(0);
        for fill in [mean, m2, min, max, 0.0] {
            self.lanes.extend(std::iter::repeat_n(fill, self.len()));
        }
    }

    /// Absorbs one keyed value: cascade `j` receives
    /// `σ_j(key) · value` with `σ_j(key) = ±1` from seed parity.
    pub fn push(&mut self, key: u64, value: f64) {
        let r = self.len();
        let mut sums = [0.0; MAX_PROJECTIONS];
        let sums = &mut sums[..r];
        for (sum, &cascade_seed) in sums.iter_mut().zip(&self.cascade_seeds) {
            let sign = if derive_seed(cascade_seed, key) & 1 == 0 {
                1.0
            } else {
                -1.0
            };
            *sum = sign * value;
        }
        self.count += 1;
        // The climb of `OnlineVarianceTime::push`, every lane at once.
        let mut scale = 1.0;
        for k in 0..MAX_LEVELS {
            if self.blocks.len() <= k {
                self.push_level();
            }
            self.blocks[k] += 1;
            let n = self.blocks[k] as f64;
            let level = &mut self.lanes[k * FIELDS * r..(k + 1) * FIELDS * r];
            let (mean, rest) = level.split_at_mut(r);
            let (m2, rest) = rest.split_at_mut(r);
            let (min, rest) = rest.split_at_mut(r);
            let (max, carry) = rest.split_at_mut(r);
            // `RunningStats::push` of `sum * scale` on every lane.
            let welford = mean
                .iter_mut()
                .zip(m2.iter_mut())
                .zip(min.iter_mut().zip(max));
            for (((mean, m2), (min, max)), &sum) in welford.zip(sums.iter()) {
                let x = sum * scale;
                let delta = x - *mean;
                *mean += delta / n;
                *m2 += delta * (x - *mean);
                *min = min.min(x);
                *max = max.max(x);
            }
            let bit = 1u64 << k;
            if self.carried & bit != 0 {
                // Every sibling (earlier half) was waiting: each
                // parent block is complete; carry its sum upward.
                self.carried &= !bit;
                for (sum, &first_half) in sums.iter_mut().zip(carry.iter()) {
                    *sum += first_half;
                }
                scale *= 0.5;
            } else {
                self.carried |= bit;
                carry.copy_from_slice(sums);
                break;
            }
        }
    }

    /// Cascade `j`'s state at level `k`, as [`OnlineVarianceTime`]
    /// holds a level.
    fn lane(&self, k: usize, j: usize) -> (RunningStats, Option<f64>) {
        let at = |field: usize| self.lanes[(k * FIELDS + field) * self.len() + j];
        let stats =
            RunningStats::from_raw_parts(self.blocks[k], at(MEAN), at(M2), at(MIN), at(MAX));
        (stats, (self.carried >> k & 1 != 0).then(|| at(CARRY)))
    }

    /// The per-cascade states, for serialization.
    pub fn cascades(&self) -> Vec<OnlineVarianceTime> {
        (0..self.len())
            .map(|j| {
                let levels = (0..self.blocks.len()).map(|k| self.lane(k, j)).collect();
                OnlineVarianceTime::from_raw_parts(self.count, levels)
            })
            .collect()
    }

    /// Rebuilds a bank from codec-decoded cascades. Returns `None` on
    /// an empty cascade list, more than [`MAX_PROJECTIONS`] cascades or
    /// more than 64 levels, and on cascades that disagree in count,
    /// level count, any level's block count or carry pattern — no
    /// sequence of pushes and merges makes such a bank.
    pub fn from_raw_parts(seed: u64, cascades: Vec<OnlineVarianceTime>) -> Option<Self> {
        let (count, first) = cascades.first()?.raw_parts();
        if cascades.len() > MAX_PROJECTIONS || first.len() > 64 {
            return None;
        }
        let lockstep = cascades.iter().all(|c| {
            let (n, levels) = c.raw_parts();
            n == count
                && levels.len() == first.len()
                && levels.iter().zip(first).all(|((s, carry), (f, f_carry))| {
                    s.count() == f.count() && carry.is_some() == f_carry.is_some()
                })
        });
        if !lockstep {
            return None;
        }
        let mut bank = ProjectionBank::new(cascades.len(), seed);
        let r = bank.len();
        bank.count = count;
        for (k, (stats, carry)) in first.iter().enumerate() {
            bank.push_level();
            bank.blocks[k] = stats.count();
            bank.carried |= u64::from(carry.is_some()) << k;
        }
        for (j, c) in cascades.iter().enumerate() {
            for (k, &(stats, carry)) in c.raw_parts().1.iter().enumerate() {
                let (_, mean, m2, min, max) = stats.raw_parts();
                let level = &mut bank.lanes[k * FIELDS * r..(k + 1) * FIELDS * r];
                for (field, v) in [mean, m2, min, max, carry.unwrap_or(0.0)]
                    .into_iter()
                    .enumerate()
                {
                    level[field * r + j] = v;
                }
            }
        }
        Some(bank)
    }

    /// Pools another bank's cascades into this one, level by level.
    /// Requires matching seed and cascade count (same projection
    /// family); a mismatched bank is skipped entirely — a projection
    /// under a different sign family cannot be pooled meaningfully.
    /// An empty `other` is an identity; an empty `self` adopts `other`.
    /// Carries stay as they were: `other`'s open partial blocks have no
    /// sibling here to complete with.
    pub fn merge_from(&mut self, other: &ProjectionBank) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        if self.seed != other.seed || self.len() != other.len() {
            return;
        }
        let r = self.len();
        self.count += other.count;
        while self.blocks.len() < other.blocks.len() {
            self.push_level();
        }
        for k in 0..other.blocks.len() {
            for j in 0..r {
                let (mut mine, _) = self.lane(k, j);
                mine.merge(&other.lane(k, j).0);
                let (_, mean, m2, min, max) = mine.raw_parts();
                let level = &mut self.lanes[k * FIELDS * r..(k + 1) * FIELDS * r];
                for (field, v) in [mean, m2, min, max].into_iter().enumerate() {
                    level[field * r + j] = v;
                }
            }
            self.blocks[k] += other.blocks[k];
        }
    }

    /// Bounds every cascade at `max_levels` dyadic levels (see
    /// [`OnlineVarianceTime::prune_levels`]).
    pub fn prune_levels(&mut self, max_levels: usize) {
        let keep = max_levels.min(MAX_LEVELS);
        self.lanes.truncate(keep * FIELDS * self.len());
        self.blocks.truncate(keep);
        self.carried &= (1u64 << keep) - 1;
    }

    /// Approximate in-memory footprint in bytes: what `r` separate
    /// [`OnlineVarianceTime`]s would report, plus the bank's header and
    /// seeds. The figure is nominal for the interleaved layout; it stays
    /// because sketch compaction budgets around it.
    pub fn estimated_bytes(&self) -> usize {
        let r = self.len();
        48 + 8 * r + r * (8 + 48 + self.blocks.len() * (40 + 16))
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
        for c in self.cascades() {
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

    /// Bit image of a whole cascade: its count and every level, each
    /// NaN as one pattern. When an operation meets two NaNs, which
    /// payload it returns is left open by Rust (the compiler may
    /// commute an addition), so two separately compiled pushes agree on
    /// NaN-ness, not on the payload. Every other bit must match,
    /// signed zeros and infinities included.
    type CascadeBits = (u64, Vec<(u64, u64, u64, u64, u64, Option<u64>)>);

    fn cascade_bits(c: &OnlineVarianceTime) -> CascadeBits {
        let nan = |bits: u64| {
            if f64::from_bits(bits).is_nan() {
                f64::NAN.to_bits()
            } else {
                bits
            }
        };
        let (count, levels) = c.raw_parts();
        let levels = levels
            .iter()
            .map(|&(s, carry)| {
                let (n, mean, m2, min, max, carry) = level_bits(&s, carry);
                (n, nan(mean), nan(m2), nan(min), nan(max), carry.map(nan))
            })
            .collect();
        (count, levels)
    }

    /// The bank's specification: `r` independent cascades, cascade `j`
    /// fed `σ_j(key) · value` with `σ_j` the parity of
    /// `derive_seed(derive_seed(seed, j), key)`.
    struct SeparateCascades {
        seed: u64,
        cascades: Vec<OnlineVarianceTime>,
    }

    impl SeparateCascades {
        fn new(r: usize, seed: u64) -> Self {
            SeparateCascades {
                seed,
                cascades: vec![OnlineVarianceTime::new(); r],
            }
        }

        fn push(&mut self, key: u64, value: f64) {
            for (j, c) in self.cascades.iter_mut().enumerate() {
                let odd = derive_seed(derive_seed(self.seed, j as u64), key) & 1 == 1;
                c.push(if odd { -1.0 } else { 1.0 } * value);
            }
        }
    }

    /// Every level of every cascade, bit for bit, and the byte figure.
    fn assert_bank_is(bank: &ProjectionBank, spec: &SeparateCascades, what: &str) {
        let cascades = bank.cascades();
        assert_eq!(cascades.len(), spec.cascades.len(), "{what}");
        assert_eq!(bank.count(), spec.cascades[0].count(), "{what}");
        for (j, (got, want)) in cascades.iter().zip(&spec.cascades).enumerate() {
            assert_eq!(cascade_bits(got), cascade_bits(want), "{what}: cascade {j}");
        }
        let separate: usize = spec.cascades.iter().map(|c| c.estimated_bytes()).sum();
        assert_eq!(
            bank.estimated_bytes(),
            48 + 8 * spec.cascades.len() + separate,
            "{what}"
        );
    }

    /// Keyed test streams over a few dozen keys. Family 0 stays finite
    /// and tiny — signed zeros and subnormals, whose sums stay
    /// subnormal — so every level keeps exact, comparable bits. Family
    /// 1 sprinkles infinities, NaN payloads and ±1e308 through
    /// ordinary values, so coarse levels overflow and go NaN.
    fn wild_points(family: u8, n: usize, salt: u64) -> Vec<(u64, f64)> {
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0ABC),
            f64::from_bits(0xFFF8_0000_0000_1234),
            f64::MIN_POSITIVE / 3.0,
            -f64::from_bits(1),
            1e308,
            -1e308,
        ];
        (0..n)
            .map(|i| {
                let key = derive_seed(salt, (i / 7) as u64 % 37);
                let v = match (family, i % 97) {
                    (0, 0) => -0.0,
                    (0, 1) => 0.0,
                    (0, r) => f64::from_bits(1 + r as u64) * if r % 3 == 0 { -1.0 } else { 1.0 },
                    (_, r @ 0..=10) if i > 2000 => specials[r],
                    _ => (i as f64 * 0.37).sin() * 100.0 + (i % 5) as f64,
                };
                (key, v)
            })
            .collect()
    }

    #[test]
    fn projection_bank_is_separate_cascades_bit_for_bit() {
        let seed = 0x5EED;
        for (family, r) in [0, 1]
            .into_iter()
            .flat_map(|f| [1, 2, 3, 4, 5, 8].map(|r| (f, r)))
        {
            let what = |step: &str| format!("family {family}, r={r}: {step}");
            let points = |n, salt| wild_points(family, n, salt);
            let mut bank = ProjectionBank::new(r, seed);
            let mut spec = SeparateCascades::new(r, seed);
            for (key, v) in points(6000, 1) {
                bank.push(key, v);
                spec.push(key, v);
            }
            assert_bank_is(&bank, &spec, &what("pushed"));

            bank.prune_levels(5);
            spec.cascades.iter_mut().for_each(|c| c.prune_levels(5));
            assert_bank_is(&bank, &spec, &what("pruned"));
            for (key, v) in points(1500, 2) {
                bank.push(key, v);
                spec.push(key, v);
            }
            assert_bank_is(&bank, &spec, &what("regrown"));

            // Merge in a longer bank (more levels, other carries), then
            // keep pushing over the merged carries.
            let mut other = ProjectionBank::new(r, seed);
            let mut other_spec = SeparateCascades::new(r, seed);
            for (key, v) in points(20_000, 3) {
                other.push(key, v);
                other_spec.push(key, v);
            }
            bank.merge_from(&other);
            for (mine, theirs) in spec.cascades.iter_mut().zip(&other_spec.cascades) {
                mine.merge_from(theirs);
            }
            assert_bank_is(&bank, &spec, &what("merged"));
            for (key, v) in points(777, 4) {
                bank.push(key, v);
                spec.push(key, v);
            }
            assert_bank_is(&bank, &spec, &what("pushed after merge"));

            // The codec's round trip: cascades out, bank back.
            let mut back = ProjectionBank::from_raw_parts(seed, bank.cascades()).unwrap();
            assert_bank_is(&back, &spec, &what("round trip"));
            for (key, v) in points(3000, 5) {
                back.push(key, v);
                spec.push(key, v);
            }
            assert_bank_is(&back, &spec, &what("pushed after round trip"));
        }
    }

    #[test]
    fn projection_bank_refuses_cascades_out_of_lockstep() {
        let mut bank = ProjectionBank::new(3, 8);
        for i in 0..1000u64 {
            bank.push(i % 5, (i % 13) as f64);
        }
        let good = bank.cascades();
        assert!(ProjectionBank::from_raw_parts(8, good.clone()).is_some());
        let mut shifted = good.clone();
        shifted[1].push(1.0); // count and carry pattern both move
        assert!(ProjectionBank::from_raw_parts(8, shifted).is_none());
        let mut recounted = good.clone();
        let (count, levels) = recounted[2].raw_parts();
        recounted[2] = OnlineVarianceTime::from_raw_parts(count + 2, levels.to_vec());
        assert!(ProjectionBank::from_raw_parts(8, recounted).is_none());
        let mut uncarried = good.clone();
        let (count, levels) = uncarried[0].raw_parts();
        let levels = levels.iter().map(|&(s, _)| (s, None)).collect();
        uncarried[0] = OnlineVarianceTime::from_raw_parts(count, levels);
        assert!(ProjectionBank::from_raw_parts(8, uncarried).is_none());
        let mut reblocked = good.clone();
        let (count, levels) = reblocked[1].raw_parts();
        let mut levels = levels.to_vec();
        let (n, mean, m2, min, max) = levels[2].0.raw_parts();
        levels[2].0 = RunningStats::from_raw_parts(n + 1, mean, m2, min, max);
        reblocked[1] = OnlineVarianceTime::from_raw_parts(count, levels);
        assert!(ProjectionBank::from_raw_parts(8, reblocked).is_none());
        let mut pruned = good.clone();
        pruned[0].prune_levels(3);
        assert!(ProjectionBank::from_raw_parts(8, pruned).is_none());
        let many = vec![good[0].clone(); MAX_PROJECTIONS + 1];
        assert!(ProjectionBank::from_raw_parts(8, many).is_none());
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
