//! Biased Systematic Sampling (BSS) — the paper's contribution (§V-C).
//!
//! BSS is systematic sampling with interval `C`, except that whenever a
//! (normal) sample exceeds a threshold `a_th`, `L` extra samples are
//! taken evenly inside the current interval (spacing `C/L`) and those
//! exceeding `a_th` — the *qualified samples* — are kept. Because the
//! 1-burst periods of heavy-tailed traffic are themselves heavy-tailed
//! (§V-B, Eq. 20), a sample over the threshold predicts that the process
//! stays over it, so the extra samples efficiently capture exactly the
//! rare large values that plain sampling misses.
//!
//! Two parameterizations are provided:
//!
//! * [`ThresholdPolicy::FixedAbsolute`] / [`ThresholdPolicy::RelativeToMean`]
//!   — offline analysis with a known threshold (used to reproduce
//!   Figs. 12-13, where (L, ε) pairs are chosen on the ξ = 1 contour);
//! * [`ThresholdPolicy::Online`] — the paper's deployable scheme: `N_pre`
//!   pre-samples give a first mean estimate, `a_th = ε·Ȳᵢ` is updated
//!   from the running mean of *all* samples taken so far (frozen while
//!   extras are being taken inside an interval), and `L` is derived from
//!   the sampling rate via `η ≈ Cs·r^{1/α−1}` (Eq. 35) and
//!   `ξ = 1/(1−η)` (§V-C's `ξ = 1/η` is a typo for this — it follows
//!   from `η`'s definition `η = 1 − X_s/X_r`).

use crate::experiment::InstanceResult;
use crate::sampler::{drive, Keep, Sampler, Samples, Tally};
use crate::stream::StreamingBss;
use crate::theory::{eta_from_samples, l_for_bias};

/// How BSS obtains its threshold `a_th` (and, online, its `L`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ThresholdPolicy {
    /// A fixed absolute threshold (offline analysis).
    FixedAbsolute(f64),
    /// `a_th = ε × mean`, with the true mean supplied by the caller
    /// (offline analysis — mirrors the paper's parameter studies where
    /// η and X_r "are readily obtained since we have the entire traces").
    RelativeToMean {
        /// Threshold multiplier ε.
        epsilon: f64,
        /// The known process mean X̄.
        mean: f64,
    },
    /// The paper's online tuning scheme (§V-C "Tuning L and a_th without
    /// knowledge of η").
    Online(OnlineTuning),
}

/// Parameters of the online tuning scheme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OnlineTuning {
    /// Threshold multiplier ε; the paper recommends `ε ∈ (1.0, 1.5)` and
    /// uses 1.0 in its evaluation.
    pub epsilon: f64,
    /// Number of pre-samples used for the initial mean estimate before
    /// biasing starts.
    pub n_pre: usize,
    /// The Eq. (35) constant in its sample-count form
    /// `η ≈ c_eta·N^{1/α−1}` (see [`crate::theory::eta_from_samples`];
    /// the paper's rate-form `Cs` equals `c_eta·N_t^{1/α−1}`).
    pub c_eta: f64,
    /// Tail shape α of the traffic marginal (for Eq. 35 / Eq. 30).
    pub alpha: f64,
}

impl Default for OnlineTuning {
    fn default() -> Self {
        OnlineTuning {
            epsilon: 1.0,
            n_pre: 32,
            c_eta: 1.0,
            alpha: 1.5,
        }
    }
}

/// Full output of one BSS instance.
#[derive(Clone, Debug, PartialEq)]
pub struct BssOutcome {
    /// All kept samples (normal + qualified) in index order.
    pub samples: Samples,
    /// Number of normal (systematic) samples taken.
    pub normal_count: usize,
    /// Number of qualified extra samples kept.
    pub qualified_count: usize,
    /// Number of extra samples inspected (kept or not) — the probing cost.
    pub extras_inspected: usize,
    /// The threshold in force at the end of the run.
    pub final_threshold: f64,
    /// The L actually used.
    pub l_used: usize,
}

impl BssOutcome {
    /// The BSS estimate: mean over all kept samples, Eq. (29).
    pub fn mean(&self) -> f64 {
        self.samples.mean()
    }

    /// The paper's §VI overhead metric: qualified / normal (`L′/N`).
    pub fn overhead(&self) -> f64 {
        overhead(self.qualified_count, self.normal_count)
    }

    /// Total samples kept, `N + L′`.
    pub fn total_kept(&self) -> usize {
        self.normal_count + self.qualified_count
    }
}

/// The Biased Systematic Sampler: [`StreamingBss`]'s rule driven over
/// a slice, with `L` derived from the slice length unless fixed.
///
/// # Examples
///
/// ```
/// use sst_core::bss::{BssSampler, OnlineTuning, ThresholdPolicy};
///
/// let sampler = BssSampler::new(100, ThresholdPolicy::Online(OnlineTuning::default()))
///     .expect("valid config");
/// let trace: Vec<f64> = (0..10_000).map(|i| (i % 97) as f64).collect();
/// let out = sampler.sample_detailed(&trace, 1);
/// assert!(out.normal_count > 0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BssSampler {
    interval: usize,
    policy: ThresholdPolicy,
    /// Explicit L; `None` in online mode derives it from Eq. 35 + Eq. 30.
    l_extra: Option<usize>,
    /// Cap on the derived L (guards the η→1 blow-up at tiny rates).
    l_max: usize,
}

/// Error for invalid BSS configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BssConfigError {
    what: &'static str,
}

impl BssConfigError {
    pub(crate) fn new(what: &'static str) -> Self {
        BssConfigError { what }
    }
}

impl std::fmt::Display for BssConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid BSS configuration: {}", self.what)
    }
}

impl std::error::Error for BssConfigError {}

/// The paper's §VI overhead metric `L′/N`: `qualified` per `normal`
/// sample, 0 without normal samples.
pub(crate) fn overhead(qualified: usize, normal: usize) -> f64 {
    if normal == 0 {
        0.0
    } else {
        qualified as f64 / normal as f64
    }
}

/// Rejects a zero interval (bucket length) C.
pub(crate) fn check_interval(interval: usize) -> Result<(), BssConfigError> {
    if interval == 0 {
        return Err(BssConfigError::new("interval must be >= 1"));
    }
    Ok(())
}

/// Validates a BSS configuration (see [`BssSampler::new`]).
pub(crate) fn check_config(interval: usize, policy: ThresholdPolicy) -> Result<(), BssConfigError> {
    check_interval(interval)?;
    let what = match policy {
        ThresholdPolicy::FixedAbsolute(a) if !(a.is_finite() && a > 0.0) => {
            "threshold must be positive"
        }
        ThresholdPolicy::RelativeToMean { epsilon, mean } if !(epsilon > 0.0 && mean > 0.0) => {
            "epsilon and mean must be positive"
        }
        ThresholdPolicy::Online(t) if t.epsilon.is_nan() || t.epsilon <= 0.0 => {
            "epsilon must be positive"
        }
        ThresholdPolicy::Online(t) if t.n_pre == 0 => "need at least one pre-sample",
        ThresholdPolicy::Online(t) if !(t.alpha > 1.0 && t.alpha < 2.0) => "alpha must be in (1,2)",
        ThresholdPolicy::Online(t) if t.c_eta.is_nan() || t.c_eta <= 0.0 => {
            "c_eta must be positive"
        }
        _ => return Ok(()),
    };
    Err(BssConfigError { what })
}

impl BssSampler {
    /// Creates a BSS sampler with interval `C` and the given threshold
    /// policy. `L` defaults to: derived online (online policy) or 10
    /// (offline policies); override with [`BssSampler::with_l`].
    ///
    /// # Errors
    ///
    /// Rejects `interval == 0`, non-positive thresholds/ε, online α
    /// outside `(1,2)`, or `n_pre == 0`.
    pub fn new(interval: usize, policy: ThresholdPolicy) -> Result<Self, BssConfigError> {
        check_config(interval, policy)?;
        let l_extra = match policy {
            ThresholdPolicy::Online(_) => None,
            _ => Some(10),
        };
        Ok(BssSampler {
            interval,
            policy,
            l_extra,
            l_max: 200,
        })
    }

    /// Fixes the number of extra samples per triggered interval.
    pub fn with_l(mut self, l: usize) -> Self {
        self.l_extra = Some(l);
        self
    }

    /// Caps the online-derived L (default 200).
    pub fn with_l_max(mut self, l_max: usize) -> Self {
        self.l_max = l_max.max(1);
        self
    }

    /// The systematic interval C.
    pub fn interval(&self) -> usize {
        self.interval
    }

    /// The L this sampler will use on a trace of `trace_len` points:
    /// explicit when set, otherwise derived from the planned sample
    /// count via `η ≈ c_eta·N^{1/α−1}` (Eq. 35), `ξ = 1/(1−η)`, and the
    /// inverse of the bias parameter (`L = (ξ−1)s^{2α}/(s−ξ)`).
    pub fn effective_l(&self, trace_len: usize) -> usize {
        if let Some(l) = self.l_extra {
            return l;
        }
        let ThresholdPolicy::Online(t) = self.policy else {
            return 10;
        };
        let n_samples = (trace_len / self.interval).max(1);
        let eta = eta_from_samples(n_samples, t.alpha, t.c_eta);
        let xi = 1.0 / (1.0 - eta);
        match l_for_bias(xi, t.epsilon, t.alpha) {
            // Rounds to zero when η is already negligible — no extras
            // needed, BSS degrades gracefully to plain systematic.
            Some(l) => (l.round() as usize).min(self.l_max),
            // Target bias unreachable at this ε: saturate (the paper's
            // Fig. 15 guidance — bounded cost beats an impossible target).
            None => self.l_max,
        }
    }

    /// Runs one BSS instance and returns the full outcome.
    pub fn sample_detailed(&self, values: &[f64], seed: u64) -> BssOutcome {
        let mut samples = Samples::default();
        let s = self.run(values, seed, &mut samples);
        BssOutcome {
            samples,
            normal_count: s.normal_count(),
            qualified_count: s.qualified_count(),
            extras_inspected: s.extras_inspected(),
            final_threshold: s.threshold,
            l_used: s.l,
        }
    }

    /// The experiment record of the instance [`BssSampler::sample_detailed`]
    /// draws: its mean, total kept and qualified count, bit for bit,
    /// without building the [`Samples`].
    pub(crate) fn tally_detailed(&self, values: &[f64], seed: u64) -> InstanceResult {
        let mut tally = Tally::default();
        let s = self.run(values, seed, &mut tally);
        tally.instance(s.qualified_count())
    }

    /// Runs instance `seed` over `values` into `keep`; returns the
    /// sampler as the end of the slice left it.
    fn run(&self, values: &[f64], seed: u64, keep: &mut impl Keep) -> StreamingBss {
        let l = self.effective_l(values.len());
        let mut s = StreamingBss::start(self.interval, self.policy, l, seed);
        drive(&mut s, values, keep);
        s
    }
}

/// Calibrates the Eq.-35 constant `c_eta` on a learning prefix, the way
/// the paper calibrates its `Cs` per trace ("from our experimental
/// study, we find …").
///
/// Runs `n_instances` systematic instances at the given interval over
/// `prefix`, measures the median relative underestimate against the
/// prefix's true mean, and inverts `η = c·N^{1/α−1}`. A monitor can do
/// this online by fully counting a short learning window.
///
/// The result is clamped to `[0.05, 3.0]`: zero would disable biasing
/// forever on a lucky prefix, and huge values are always estimation
/// noise.
///
/// # Panics
///
/// Panics if `prefix` is empty or its mean is non-positive, or
/// `interval == 0` or `n_instances == 0`.
pub fn calibrate_c_eta(prefix: &[f64], interval: usize, alpha: f64, n_instances: usize) -> f64 {
    assert!(!prefix.is_empty(), "empty calibration prefix");
    assert!(interval >= 1, "interval must be >= 1");
    assert!(n_instances >= 1, "need at least one calibration instance");
    let truth = prefix.iter().sum::<f64>() / prefix.len() as f64;
    assert!(truth > 0.0, "calibration needs a positive-mean prefix");
    let sampler = crate::sampler::SystematicSampler::new(interval);
    let mut etas: Vec<f64> = (0..n_instances)
        .map(|i| {
            let m = sampler
                .tally(prefix, sst_stats::rng::derive_seed(0xCA11B, i as u64))
                .mean;
            (1.0 - m / truth).max(0.0)
        })
        .collect();
    etas.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let eta_med = etas[etas.len() / 2];
    let n_samples = (prefix.len() / interval).max(1) as f64;
    let c = eta_med * n_samples.powf(1.0 - 1.0 / alpha);
    c.clamp(0.05, 3.0)
}

/// Empirically tunes `L` on a learning prefix: runs online BSS with each
/// candidate `L` over several instances and returns the candidate whose
/// median estimate lands closest to the prefix's true mean.
///
/// This is the direct answer to the paper's future-work question of
/// optimal parameter setting: instead of trusting the pure-Pareto model
/// of Eq. (30) (which over-corrects when qualified samples are
/// burst-correlated, and under-corrects when the marginal is lighter
/// than modeled), measure the realized bias and pick `L` accordingly.
///
/// # Panics
///
/// Panics if `prefix` is empty or has non-positive mean, `interval == 0`,
/// `candidates` is empty, or `n_instances == 0`.
pub fn tune_l_on_prefix(
    prefix: &[f64],
    interval: usize,
    tuning: OnlineTuning,
    candidates: &[usize],
    n_instances: usize,
) -> usize {
    assert!(!prefix.is_empty(), "empty tuning prefix");
    assert!(!candidates.is_empty(), "need at least one L candidate");
    assert!(n_instances >= 1, "need at least one tuning instance");
    let truth = prefix.iter().sum::<f64>() / prefix.len() as f64;
    assert!(truth > 0.0, "tuning needs a positive-mean prefix");
    let mut best = (f64::INFINITY, candidates[0]);
    for &l in candidates {
        let sampler = BssSampler::new(interval, ThresholdPolicy::Online(tuning))
            .expect("tuning parameters were validated by the caller")
            .with_l(l);
        let mut means: Vec<f64> = (0..n_instances)
            .map(|i| {
                sampler
                    .tally_detailed(prefix, sst_stats::rng::derive_seed(0x70E, i as u64))
                    .mean
            })
            .collect();
        means.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let err = (means[means.len() / 2] - truth).abs();
        if err < best.0 {
            best = (err, l);
        }
    }
    best.1
}

impl Sampler for BssSampler {
    fn name(&self) -> &'static str {
        "bss"
    }

    fn nominal_rate(&self) -> f64 {
        1.0 / self.interval as f64
    }

    fn sample(&self, values: &[f64], seed: u64) -> Samples {
        self.sample_detailed(values, seed).samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process that is 1.0 except for a long 100.0 burst.
    fn bursty(n: usize, burst_at: usize, burst_len: usize) -> Vec<f64> {
        let mut v = vec![1.0; n];
        for x in v.iter_mut().skip(burst_at).take(burst_len) {
            *x = 100.0;
        }
        v
    }

    #[test]
    fn config_validation() {
        assert!(BssSampler::new(0, ThresholdPolicy::FixedAbsolute(1.0)).is_err());
        assert!(BssSampler::new(10, ThresholdPolicy::FixedAbsolute(-1.0)).is_err());
        assert!(BssSampler::new(
            10,
            ThresholdPolicy::RelativeToMean {
                epsilon: 0.0,
                mean: 1.0
            }
        )
        .is_err());
        let bad_alpha = OnlineTuning {
            alpha: 2.5,
            ..OnlineTuning::default()
        };
        assert!(BssSampler::new(10, ThresholdPolicy::Online(bad_alpha)).is_err());
        assert!(BssSampler::new(10, ThresholdPolicy::FixedAbsolute(1.0)).is_ok());
    }

    #[test]
    fn no_burst_means_plain_systematic() {
        let vals = vec![1.0; 1000];
        let bss = BssSampler::new(10, ThresholdPolicy::FixedAbsolute(50.0)).unwrap();
        let out = bss.sample_detailed(&vals, 0);
        assert_eq!(out.qualified_count, 0);
        assert_eq!(out.normal_count, 100);
        assert_eq!(out.overhead(), 0.0);
        // Identical to the systematic sampler on the same seed.
        let sys = crate::sampler::SystematicSampler::new(10);
        assert_eq!(out.samples, crate::sampler::Sampler::sample(&sys, &vals, 0));
    }

    #[test]
    fn burst_triggers_qualified_samples() {
        let vals = bursty(1000, 300, 100);
        let bss = BssSampler::new(50, ThresholdPolicy::FixedAbsolute(50.0))
            .unwrap()
            .with_l(9);
        let out = bss.sample_detailed(&vals, 0);
        assert!(
            out.qualified_count > 0,
            "burst must produce qualified samples"
        );
        // All qualified samples exceed the threshold.
        let normal_idx: std::collections::HashSet<usize> = (0..1000).step_by(50).collect();
        for (i, &idx) in out.samples.indices().iter().enumerate() {
            if !normal_idx.contains(&idx) {
                assert!(out.samples.values()[i] > 50.0);
            }
        }
        // And the BSS mean is pulled toward the burst-inclusive mean.
        let sys_mean =
            crate::sampler::Sampler::sample(&crate::sampler::SystematicSampler::new(50), &vals, 0)
                .mean();
        assert!(out.mean() >= sys_mean);
    }

    #[test]
    fn extras_are_evenly_spaced_within_interval() {
        let vals = bursty(200, 0, 200); // everything above threshold
        let bss = BssSampler::new(100, ThresholdPolicy::FixedAbsolute(50.0))
            .unwrap()
            .with_l(4);
        let out = bss.sample_detailed(&vals, 0);
        // Normal at 0 and 100; extras at 20,40,60,80 and 120,140,160,180.
        assert_eq!(
            out.samples.indices(),
            &[0, 20, 40, 60, 80, 100, 120, 140, 160, 180]
        );
        assert_eq!(out.qualified_count, 8);
        assert_eq!(out.l_used, 4);
    }

    #[test]
    fn online_mode_warms_up_before_biasing() {
        // Burst inside the pre-sample window must not trigger extras.
        let vals = bursty(10_000, 0, 200);
        let tuning = OnlineTuning {
            n_pre: 50,
            epsilon: 1.0,
            ..OnlineTuning::default()
        };
        let bss = BssSampler::new(100, ThresholdPolicy::Online(tuning))
            .unwrap()
            .with_l(5);
        let out = bss.sample_detailed(&vals, 0);
        // The first 2 normal samples land in the burst but count < n_pre:
        // no extras taken there.
        let extras_in_burst = out
            .samples
            .indices()
            .iter()
            .filter(|&&i| i < 200 && i % 100 != 0)
            .count();
        assert_eq!(extras_in_burst, 0);
    }

    #[test]
    fn online_threshold_tracks_running_mean() {
        let vals = bursty(100_000, 60_000, 5_000);
        let tuning = OnlineTuning {
            n_pre: 10,
            epsilon: 1.0,
            ..OnlineTuning::default()
        };
        let bss = BssSampler::new(100, ThresholdPolicy::Online(tuning))
            .unwrap()
            .with_l(10);
        let out = bss.sample_detailed(&vals, 0);
        assert!(out.qualified_count > 0);
        assert!(out.final_threshold.is_finite());
        // Above the floor value.
        assert!(out.final_threshold > 1.0);
        // BSS is *biased upward by construction*: on this block-aligned
        // burst (where systematic sampling is already exact) the
        // qualified samples must pull the estimate above systematic's.
        let sys_mean =
            crate::sampler::Sampler::sample(&crate::sampler::SystematicSampler::new(100), &vals, 0)
                .mean();
        assert!(out.mean() > sys_mean);
        // All qualified samples exceed the final threshold's order of
        // magnitude (they were above the then-current threshold).
        assert!(
            out.samples
                .values()
                .iter()
                .cloned()
                .fold(f64::MIN, f64::max)
                >= 100.0
        );
    }

    #[test]
    fn effective_l_derivation_and_cap() {
        // Synthetic calibration: N = 1000 samples ⇒ η = 0.1 ⇒ ξ ≈ 1.11
        // ⇒ L = (ξ−1)·27/(3−ξ) ≈ 1.6 → small L.
        let tuning = OnlineTuning {
            epsilon: 1.0,
            alpha: 1.5,
            c_eta: 1.0,
            n_pre: 32,
        };
        let bss = BssSampler::new(100, ThresholdPolicy::Online(tuning)).unwrap();
        let l_mid = bss.effective_l(100_000);
        assert!((1..=10).contains(&l_mid), "L={l_mid}");
        // Very large sample counts: η ≈ 0 ⇒ L = 0 (no biasing needed).
        assert_eq!(bss.effective_l(100_000_000), 0);
        // Fewer samples ⇒ larger η ⇒ larger L.
        let l_small = bss.effective_l(2_000);
        assert!(l_small > l_mid, "L(small)={l_small} L(mid)={l_mid}");
        // At a handful of samples η→clamp, ξ huge → capped at l_max.
        let bss_low = BssSampler::new(1_000_000, ThresholdPolicy::Online(tuning))
            .unwrap()
            .with_l_max(40);
        assert_eq!(bss_low.effective_l(1_000_000), 40);
    }

    #[test]
    fn l_zero_disables_extras() {
        let vals = bursty(1000, 0, 1000);
        let bss = BssSampler::new(10, ThresholdPolicy::FixedAbsolute(50.0))
            .unwrap()
            .with_l(0);
        let out = bss.sample_detailed(&vals, 0);
        assert_eq!(out.qualified_count, 0);
        assert_eq!(out.extras_inspected, 0);
    }

    #[test]
    fn threshold_above_max_never_triggers() {
        let vals = bursty(1000, 100, 100);
        let bss = BssSampler::new(10, ThresholdPolicy::FixedAbsolute(1e9)).unwrap();
        let out = bss.sample_detailed(&vals, 3);
        assert_eq!(out.qualified_count, 0);
    }

    #[test]
    fn empty_input_is_benign() {
        let bss = BssSampler::new(10, ThresholdPolicy::FixedAbsolute(1.0)).unwrap();
        let out = bss.sample_detailed(&[], 0);
        assert_eq!(out.total_kept(), 0);
        assert_eq!(out.mean(), 0.0);
    }

    #[test]
    fn sampler_trait_view_matches_detailed() {
        let vals = bursty(5000, 1000, 500);
        let bss = BssSampler::new(100, ThresholdPolicy::FixedAbsolute(50.0)).unwrap();
        let a = Sampler::sample(&bss, &vals, 7);
        let b = bss.sample_detailed(&vals, 7).samples;
        assert_eq!(a, b);
        assert_eq!(Sampler::name(&bss), "bss");
    }

    #[test]
    fn calibration_reflects_prefix_difficulty() {
        // A constant prefix has zero underestimate: c clamps to the floor.
        let flat = vec![5.0; 10_000];
        assert_eq!(calibrate_c_eta(&flat, 100, 1.5, 5), 0.05);
        // A bursty prefix where systematic misses mass calibrates higher.
        let bursty: Vec<f64> = (0..10_000)
            .map(|i| if (i % 777) < 3 { 500.0 } else { 1.0 })
            .collect();
        let c = calibrate_c_eta(&bursty, 100, 1.5, 7);
        assert!(c > 0.05, "c={c}");
        assert!(c <= 3.0);
    }

    #[test]
    #[should_panic(expected = "empty calibration prefix")]
    fn calibration_rejects_empty() {
        calibrate_c_eta(&[], 10, 1.5, 3);
    }

    #[test]
    fn empirical_l_tuning_picks_sane_candidates() {
        // On a flat trace any L > 0 overshoots nothing (no triggers), so
        // ties resolve to the first candidate.
        let flat = vec![5.0; 20_000];
        let l = tune_l_on_prefix(&flat, 100, OnlineTuning::default(), &[0, 2, 8], 5);
        assert_eq!(l, 0);
        // On a trace systematic sampling already nails (block-aligned
        // bursts), extra biasing only hurts: tuning must pick L = 0.
        let aligned: Vec<f64> = (0..20_000)
            .map(|i| if (i / 100) % 10 == 0 { 50.0 } else { 1.0 })
            .collect();
        let l = tune_l_on_prefix(&aligned, 100, OnlineTuning::default(), &[0, 4, 16], 7);
        assert_eq!(l, 0, "aligned bursts need no biasing");
    }

    #[test]
    fn interval_smaller_than_l_is_safe() {
        // C=3 with L=10: extras collapse onto few positions, no dupes.
        let vals = bursty(30, 0, 30);
        let bss = BssSampler::new(3, ThresholdPolicy::FixedAbsolute(50.0))
            .unwrap()
            .with_l(10);
        let out = bss.sample_detailed(&vals, 0);
        let mut idx = out.samples.indices().to_vec();
        idx.dedup();
        assert_eq!(idx.len(), out.samples.indices().len());
    }
}
