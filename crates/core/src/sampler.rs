//! The three classical sampling techniques of §II-B.
//!
//! * **Systematic** — every C-th element from a (seed-derived) starting
//!   offset; deterministic selection pattern.
//! * **Stratified random** — one uniformly random element per bucket of
//!   length C.
//! * **Simple random** — each element kept independently with
//!   probability r (the Bernoulli form whose inter-sample gaps are the
//!   geometric `H(i) = (1−r)^{i−1} r` of Eq. (13)).
//!
//! All samplers are deterministic functions of `(input, seed)`; the seed
//! selects the *sampling instance* (different systematic offsets,
//! different random draws), which is exactly the paper's notion of an
//! instance when measuring the average variance `E(V)`.
//!
//! Each sampler's rule lives in [`crate::stream`]; [`Sampler::sample`]
//! and [`Sampler::tally`] run it over the slice through one driver.

use crate::experiment::InstanceResult;
use crate::stream::{Schedule, StreamingSimpleRandom, StreamingStratified, StreamingSystematic};
use rand::Rng;
use sst_sigproc::plan::lru_fetch;
use std::sync::{Arc, Mutex, OnceLock};

/// The output of one sampling instance: the selected positions and the
/// values found there, in increasing index order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Samples {
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl Samples {
    /// Creates a sample set from parallel vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length or indices are not strictly
    /// increasing.
    pub fn new(indices: Vec<usize>, values: Vec<f64>) -> Self {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be strictly increasing"
        );
        Samples { indices, values }
    }

    /// An empty sample set with room for `n` samples.
    fn with_capacity(n: usize) -> Self {
        Samples {
            indices: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
        }
    }

    /// The selected positions in the original process.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The sampled values (the "sampled process" `g(t)`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no samples were taken.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sampled mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

/// Where a sampler's selection loop puts each sample it keeps, in
/// increasing index order.
pub(crate) trait Keep {
    /// Keeps `value`, found at position `index`.
    ///
    /// # Panics
    ///
    /// Panics unless `index` is above every index kept before.
    fn keep(&mut self, index: usize, value: f64);
}

impl Keep for Samples {
    #[inline]
    fn keep(&mut self, index: usize, value: f64) {
        assert!(
            self.indices.last().is_none_or(|&last| last < index),
            "indices must be strictly increasing"
        );
        self.indices.push(index);
        self.values.push(value);
    }
}

/// The sum and count of the kept values: all an experiment reads of an
/// instance, without materialising it as [`Samples`].
///
/// The sum starts at −0.0 and adds in index order, as
/// `values.iter().sum::<f64>()` does, so [`Tally::instance`]'s mean is
/// bit for bit [`Samples::mean`] of the same instance.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tally {
    sum: f64,
    count: usize,
    /// Smallest index the next keep may have.
    next: usize,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            sum: -0.0,
            count: 0,
            next: 0,
        }
    }
}

impl Tally {
    /// The instance's record, with `n_qualified` qualified samples among
    /// those kept.
    pub(crate) fn instance(&self, n_qualified: usize) -> InstanceResult {
        InstanceResult {
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum / self.count as f64
            },
            n_samples: self.count,
            n_qualified,
        }
    }
}

impl Keep for Tally {
    #[inline]
    fn keep(&mut self, index: usize, value: f64) {
        assert!(index >= self.next, "indices must be strictly increasing");
        self.next = index + 1;
        self.sum += value;
        self.count += 1;
    }
}

/// Runs one sampler instance over `values`: jumps from one position
/// `schedule` names to the next, putting each point it keeps into
/// `keep`, until the schedule passes the end of the slice.
pub(crate) fn drive(schedule: &mut impl Schedule, values: &[f64], keep: &mut impl Keep) {
    loop {
        let t = schedule.next();
        let Some(&value) = values.get(t) else {
            return;
        };
        if schedule.decide(value).is_kept() {
            keep.keep(t, value);
        }
    }
}

/// [`Sampler::sample`] of the instance `schedule`, with room for
/// `capacity` samples.
fn sample_with(mut schedule: impl Schedule, values: &[f64], capacity: usize) -> Samples {
    let mut out = Samples::with_capacity(capacity);
    drive(&mut schedule, values, &mut out);
    out
}

/// [`Sampler::tally`] of the instance `schedule`.
fn tally_with(mut schedule: impl Schedule, values: &[f64]) -> InstanceResult {
    let mut tally = Tally::default();
    drive(&mut schedule, values, &mut tally);
    tally.instance(0)
}

/// A sampling technique: a deterministic function of the input process
/// and an instance seed.
pub trait Sampler {
    /// Short human-readable name ("systematic", …).
    fn name(&self) -> &'static str;

    /// The nominal sampling rate r = E[#samples]/n.
    fn nominal_rate(&self) -> f64;

    /// Draws one sampling instance from `values`.
    fn sample(&self, values: &[f64], seed: u64) -> Samples;

    /// Draws the same instance as [`Sampler::sample`] and reduces it to
    /// what an experiment records: the sampled mean and the sample
    /// count (`n_qualified` is 0). The result equals
    /// [`Samples::mean`] and [`Samples::len`] bit for bit; the
    /// classic samplers override it to skip building the [`Samples`].
    fn tally(&self, values: &[f64], seed: u64) -> InstanceResult {
        let s = self.sample(values, seed);
        InstanceResult {
            mean: s.mean(),
            n_samples: s.len(),
            n_qualified: 0,
        }
    }
}

/// Static systematic sampling with interval `C`: indices
/// `offset, offset+C, offset+2C, …` where `offset = seed mod C` — each
/// seed selects one of the C possible instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SystematicSampler {
    interval: usize,
}

impl SystematicSampler {
    /// Creates a sampler with interval `C ≥ 1` (rate `1/C`).
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn new(interval: usize) -> Self {
        assert!(interval >= 1, "sampling interval must be >= 1");
        SystematicSampler { interval }
    }

    /// Sampler whose rate is closest to `rate` (interval = round(1/r)).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < rate <= 1`.
    pub fn from_rate(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "rate must be in (0,1], got {rate}"
        );
        SystematicSampler::new((1.0 / rate).round().max(1.0) as usize)
    }

    /// The sampling interval C.
    pub fn interval(&self) -> usize {
        self.interval
    }
}

impl Sampler for SystematicSampler {
    fn name(&self) -> &'static str {
        "systematic"
    }

    fn nominal_rate(&self) -> f64 {
        1.0 / self.interval as f64
    }

    fn sample(&self, values: &[f64], seed: u64) -> Samples {
        let schedule = StreamingSystematic::start(self.interval, seed);
        sample_with(schedule, values, values.len().div_ceil(self.interval))
    }

    fn tally(&self, values: &[f64], seed: u64) -> InstanceResult {
        tally_with(StreamingSystematic::start(self.interval, seed), values)
    }
}

/// Stratified random sampling: one uniform draw per bucket of length `C`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StratifiedSampler {
    interval: usize,
}

impl StratifiedSampler {
    /// Creates a sampler with bucket length `C ≥ 1` (rate `1/C`).
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn new(interval: usize) -> Self {
        assert!(interval >= 1, "bucket length must be >= 1");
        StratifiedSampler { interval }
    }

    /// Sampler whose rate is closest to `rate`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < rate <= 1`.
    pub fn from_rate(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "rate must be in (0,1], got {rate}"
        );
        StratifiedSampler::new((1.0 / rate).round().max(1.0) as usize)
    }

    /// The bucket length C.
    pub fn interval(&self) -> usize {
        self.interval
    }
}

impl Sampler for StratifiedSampler {
    fn name(&self) -> &'static str {
        "stratified"
    }

    fn nominal_rate(&self) -> f64 {
        1.0 / self.interval as f64
    }

    fn sample(&self, values: &[f64], seed: u64) -> Samples {
        let schedule = StreamingStratified::bounded(self.interval, seed, values.len());
        sample_with(schedule, values, values.len().div_ceil(self.interval))
    }

    fn tally(&self, values: &[f64], seed: u64) -> InstanceResult {
        let schedule = StreamingStratified::bounded(self.interval, seed, values.len());
        tally_with(schedule, values)
    }
}

/// Table-driven geometric gap sampler for Bernoulli(`rate`) thinning:
/// `P(G = g) = r(1−r)^{g−1}`, `g ≥ 1` (the paper's Eq. (13)).
///
/// The inverse-CDF identity `G = min{g : (1−r)^g ≤ U}` is evaluated
/// against a precomputed boundary table `(1−r)^g`, so the common case
/// costs a few comparisons instead of the `ln` + divide the closed form
/// `⌈ln U / ln(1−r)⌉` pays per kept sample. A 1024-cell guide indexes
/// the table: cell `c` stores how many boundaries are ≥ `(c+1)/1024`,
/// all of which exceed every `U` in `[c/1024, (c+1)/1024)`. A lookup
/// computes `U`'s cell `⌊1024·U⌋` exactly (1024 is a power of two),
/// starts at that count and scans forward past the boundaries that
/// share the cell and still exceed `U`, which lands on the gap a binary
/// search over the whole table finds. Boundaries lie about `r·U` apart
/// near `U`, so the scan is short: under one step on average for
/// r ≥ 0.004, and up to ~10 at r = 1e-4, where the cap below packs the
/// whole table into `[0.90, 1)`.
///
/// The table aims at an `e⁻⁴` fallback tail (≈ 1.8% of draws), subject
/// to a 1024-entry cap: below `rate ≈ 0.004` the cap binds and the
/// fallback probability grows to `(1−r)^1024` (≈ 36% at r = 0.001,
/// ≈ 90% at r = 1e-4) — acceptable there because the per-kept cost is
/// amortized over ~1/r skipped elements anyway. Gaps beyond the table
/// fall back to the closed form, whose boundaries the table reproduces
/// (both are built from the same `ln(1−r)`).
///
/// Tables depend only on the rate and are shared process-wide through
/// [`GeometricGap::cached`] — building one costs up to 1024 `exp`
/// calls, far more than the handful of draws a single low-rate
/// `sample()` call makes.
///
/// Drawn by [`crate::stream::StreamingSimpleRandom`], the one
/// implementation of simple random sampling, whether
/// [`SimpleRandomSampler`] feeds it a slice or a monitor a stream.
#[derive(Clone, Debug)]
pub(crate) struct GeometricGap {
    rate_bits: u64,
    ln_q: f64,
    /// `boundaries[i] = (1−r)^(i+1)`, strictly decreasing.
    boundaries: Vec<f64>,
    /// `guide[c]` = number of boundaries ≥ `(c+1)/GUIDE_CELLS`.
    guide: Vec<u16>,
}

/// Cells of [`GeometricGap`]'s guide: a power of two, so a draw's cell
/// is computed exactly.
const GUIDE_CELLS: usize = 1024;

impl GeometricGap {
    /// Builds the gap table for `rate ∈ (0, 1)`.
    fn new(rate: f64) -> Self {
        debug_assert!(rate > 0.0 && rate < 1.0);
        let ln_q = (1.0 - rate).ln();
        let cap = ((4.0 / rate).ceil() as usize).clamp(16, 1024);
        let mut boundaries = Vec::with_capacity(cap);
        for g in 1..=cap {
            let b = (g as f64 * ln_q).exp();
            boundaries.push(b);
            if b == 0.0 {
                break;
            }
        }
        let guide = (1..=GUIDE_CELLS)
            .map(|c| {
                let edge = c as f64 / GUIDE_CELLS as f64;
                let above = boundaries.partition_point(|&b| b >= edge);
                u16::try_from(above).expect("at most 1024 boundaries")
            })
            .collect();
        GeometricGap {
            rate_bits: rate.to_bits(),
            ln_q,
            boundaries,
            guide,
        }
    }

    /// Fetches the shared table for `rate` from the process-wide LRU
    /// (keyed on the exact bits of the rate), building it on first use
    /// — every sampler instance at the same rate shares one table.
    pub(crate) fn cached(rate: f64) -> Arc<GeometricGap> {
        const CACHE_CAP: usize = 32;
        static CACHE: OnceLock<Mutex<Vec<Arc<GeometricGap>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
        let fetched: Result<Arc<GeometricGap>, std::convert::Infallible> = lru_fetch(
            cache,
            CACHE_CAP,
            |g| g.rate_bits == rate.to_bits(),
            || Ok(GeometricGap::new(rate)),
        );
        fetched.expect("infallible build")
    }

    /// The gap for one uniform draw `u ∈ (0, 1]`.
    #[inline]
    fn gap_for(&self, u: f64) -> usize {
        let b = &self.boundaries;
        if u >= b[b.len() - 1] {
            // Smallest g with (1−r)^g ≤ u: boundaries are descending, so
            // g − 1 is the length of the prefix above u. The guide's
            // count for u's cell is a part of that prefix (u = 1 takes
            // the last cell, whose count is 0); the scan ends at the
            // last boundary at the latest, since u is not below it.
            let cell = ((u * GUIDE_CELLS as f64) as usize).min(GUIDE_CELLS - 1);
            let mut above = usize::from(self.guide[cell]);
            while b[above] > u {
                above += 1;
            }
            above + 1
        } else {
            (u.ln() / self.ln_q).ceil().max(1.0) as usize
        }
    }

    /// Draws one geometric gap ≥ 1.
    #[inline]
    pub(crate) fn draw<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = loop {
            let u = rng.gen::<f64>();
            if u > 0.0 {
                break u;
            }
        };
        self.gap_for(u)
    }
}

/// Simple random sampling: each element selected independently with
/// probability `rate` (Bernoulli thinning; gaps are geometric, Eq. (13)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimpleRandomSampler {
    rate: f64,
}

impl SimpleRandomSampler {
    /// Creates a sampler with selection probability `rate ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics for rates outside `(0, 1]`.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "rate must be in (0,1], got {rate}"
        );
        SimpleRandomSampler { rate }
    }
}

impl Sampler for SimpleRandomSampler {
    fn name(&self) -> &'static str {
        "simple-random"
    }

    fn nominal_rate(&self) -> f64 {
        self.rate
    }

    fn sample(&self, values: &[f64], seed: u64) -> Samples {
        // Reserve the expected count plus 4σ of binomial slack so the
        // hot loop almost never reallocates.
        let expect = values.len() as f64 * self.rate;
        let cap = (expect + 4.0 * (expect * (1.0 - self.rate)).sqrt() + 8.0) as usize;
        let schedule = StreamingSimpleRandom::start(self.rate, seed);
        sample_with(schedule, values, cap.min(values.len()))
    }

    fn tally(&self, values: &[f64], seed: u64) -> InstanceResult {
        tally_with(StreamingSimpleRandom::start(self.rate, seed), values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_stats::rng::{derive_seed, rng_from_seed};

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn systematic_takes_every_cth() {
        let s = SystematicSampler::new(4);
        let out = s.sample(&ramp(16), 0);
        assert_eq!(out.indices(), &[0, 4, 8, 12]);
        assert_eq!(out.values(), &[0.0, 4.0, 8.0, 12.0]);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn systematic_seed_sets_offset() {
        let s = SystematicSampler::new(4);
        let out = s.sample(&ramp(16), 2);
        assert_eq!(out.indices(), &[2, 6, 10, 14]);
        // Offsets wrap modulo C: seed 6 == seed 2.
        assert_eq!(s.sample(&ramp(16), 6), out);
    }

    #[test]
    fn systematic_from_rate_rounds() {
        assert_eq!(SystematicSampler::from_rate(0.25).interval(), 4);
        assert_eq!(SystematicSampler::from_rate(1.0).interval(), 1);
        assert_eq!(SystematicSampler::from_rate(1e-3).interval(), 1000);
    }

    #[test]
    fn stratified_one_per_bucket() {
        let s = StratifiedSampler::new(5);
        let out = s.sample(&ramp(23), 7);
        // ⌈23/5⌉ buckets, one sample each.
        assert_eq!(out.len(), 5);
        for (b, &idx) in out.indices().iter().enumerate() {
            let lo = b * 5;
            let hi = ((b + 1) * 5).min(23);
            assert!(idx >= lo && idx < hi, "bucket {b} index {idx}");
        }
    }

    #[test]
    fn stratified_instances_differ() {
        let s = StratifiedSampler::new(8);
        let vals = ramp(512);
        assert_ne!(s.sample(&vals, 1), s.sample(&vals, 2));
        assert_eq!(s.sample(&vals, 1), s.sample(&vals, 1));
    }

    #[test]
    fn simple_random_rate_is_respected() {
        let s = SimpleRandomSampler::new(0.1);
        let vals = ramp(200_000);
        let out = s.sample(&vals, 3);
        let got = out.len() as f64 / vals.len() as f64;
        assert!((got - 0.1).abs() < 0.005, "rate={got}");
        // Strictly increasing indices, values match positions.
        for (i, &idx) in out.indices().iter().enumerate() {
            assert_eq!(out.values()[i], vals[idx]);
        }
    }

    #[test]
    fn simple_random_full_rate_takes_all() {
        let s = SimpleRandomSampler::new(1.0);
        let out = s.sample(&ramp(10), 0);
        assert_eq!(out.len(), 10);
    }

    /// Pins the geometric-skip implementation to the per-element
    /// Bernoulli definition it replaces: identical selection rate,
    /// identical gap distribution. (The two consume different RNG
    /// streams, so the comparison is distributional with tight
    /// large-sample tolerances, plus an exact chi-squared-style bound
    /// on the gap histogram.)
    #[test]
    fn geometric_skips_match_per_element_bernoulli() {
        let rate = 0.05;
        let n = 400_000usize;
        let vals = ramp(n);
        let s = SimpleRandomSampler::new(rate);
        let skip = s.sample(&vals, 17);

        // Reference: literal per-element Bernoulli thinning.
        let mut rng = rng_from_seed(derive_seed(29, 0x51D0));
        let bern: Vec<usize> = (0..n).filter(|_| rng.gen::<f64>() < rate).collect();

        // Selection rates agree with each other and the nominal rate
        // within 4σ of binomial noise.
        let sigma = (n as f64 * rate * (1.0 - rate)).sqrt();
        let tol = 4.0 * sigma;
        assert!(
            ((skip.len() as f64) - n as f64 * rate).abs() < tol,
            "skip count {} vs expected {}",
            skip.len(),
            n as f64 * rate
        );
        assert!(
            ((bern.len() as f64) - n as f64 * rate).abs() < tol,
            "bernoulli count {} vs expected {}",
            bern.len(),
            n as f64 * rate
        );

        // Gap histograms both match the geometric law P(gap = g) =
        // r(1−r)^{g−1} bin by bin (4σ multinomial noise per bin).
        let gaps = |idx: &[usize]| -> Vec<usize> { idx.windows(2).map(|w| w[1] - w[0]).collect() };
        for (name, g) in [("skip", gaps(skip.indices())), ("bern", gaps(&bern))] {
            let m = g.len() as f64;
            for k in 1usize..=5 {
                let want = rate * (1.0 - rate).powi(k as i32 - 1);
                let got = g.iter().filter(|&&x| x == k).count() as f64 / m;
                let noise = 4.0 * (want * (1.0 - want) / m).sqrt();
                assert!(
                    (got - want).abs() < noise,
                    "{name}: P(gap={k}) = {got:.5}, want {want:.5} ± {noise:.5}"
                );
            }
        }
    }

    #[test]
    fn gap_table_matches_closed_form() {
        // The table lookup and the ln closed form implement the same
        // inverse CDF; sweep u across the table range, the fallback
        // range, and the exact boundaries.
        for rate in [0.5, 0.2, 0.05, 0.005, 1e-4] {
            let g = GeometricGap::new(rate);
            let ln_q = (1.0 - rate).ln();
            let closed = |u: f64| (u.ln() / ln_q).ceil().max(1.0) as usize;
            let mut u = 1.0f64;
            while u > 1e-30 {
                assert_eq!(g.gap_for(u), closed(u), "rate={rate} u={u}");
                u *= 0.83;
            }
            // At the exact boundaries the table is the exact inverse
            // CDF ((1−r)^g ≤ u ⇒ gap ≤ g); the closed form can round
            // one ulp either way there, so only the table range is
            // pinned to the exact answer.
            for gap in 1..=g.boundaries.len().min(40) {
                let boundary = (gap as f64 * ln_q).exp();
                assert_eq!(g.gap_for(boundary), gap, "rate={rate} boundary g={gap}");
            }
        }
    }

    #[test]
    fn gap_lookup_matches_the_binary_search() {
        // The table lookup before the guide: a binary search over the
        // boundaries, then the closed form past the table.
        fn reference(g: &GeometricGap, u: f64) -> usize {
            let b = &g.boundaries;
            if u >= b[b.len() - 1] {
                b.partition_point(|&x| x > u) + 1
            } else {
                (u.ln() / g.ln_q).ceil().max(1.0) as usize
            }
        }
        for rate in [0.5, 0.1, 0.0316, 0.01, 1e-3, 1e-4] {
            let g = GeometricGap::new(rate);
            let edges = (0..=1024).map(|c| f64::from(c) / 1024.0);
            for x in g.boundaries.iter().copied().chain(edges) {
                for u in [x.next_down(), x, x.next_up()] {
                    if u > 0.0 && u <= 1.0 {
                        assert_eq!(g.gap_for(u), reference(&g, u), "rate={rate} u={u:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn simple_random_gaps_are_geometric() {
        let s = SimpleRandomSampler::new(0.2);
        let out = s.sample(&ramp(500_000), 11);
        let gaps: Vec<f64> = out
            .indices()
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64)
            .collect();
        let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean_gap - 5.0).abs() < 0.1, "mean gap {mean_gap}");
        // P(gap = 1) should be ≈ r.
        let p1 = gaps.iter().filter(|&&g| g == 1.0).count() as f64 / gaps.len() as f64;
        assert!((p1 - 0.2).abs() < 0.01, "P(gap=1)={p1}");
    }

    #[test]
    fn all_samplers_handle_empty_and_tiny_input() {
        let samplers: Vec<Box<dyn Sampler>> = vec![
            Box::new(SystematicSampler::new(4)),
            Box::new(StratifiedSampler::new(4)),
            Box::new(SimpleRandomSampler::new(0.5)),
        ];
        for s in &samplers {
            let empty = s.sample(&[], 1);
            assert!(empty.is_empty(), "{} on empty", s.name());
            assert_eq!(empty.mean(), 0.0);
            let one = s.sample(&[42.0], 0);
            assert!(one.len() <= 1);
        }
    }

    #[test]
    fn sampled_mean_of_constant_process_is_exact() {
        let vals = vec![3.5; 10_000];
        let samplers: Vec<Box<dyn Sampler>> = vec![
            Box::new(SystematicSampler::new(10)),
            Box::new(StratifiedSampler::new(10)),
            Box::new(SimpleRandomSampler::new(0.1)),
        ];
        for s in &samplers {
            let out = s.sample(&vals, 9);
            assert!(!out.is_empty());
            assert!((out.mean() - 3.5).abs() < 1e-12, "{}", s.name());
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn samples_reject_unsorted_indices() {
        Samples::new(vec![3, 1], vec![0.0, 0.0]);
    }
}
