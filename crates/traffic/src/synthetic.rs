//! High-level synthetic-trace builder reproducing the paper's traces.
//!
//! The paper's synthetic workload is ns-2 on/off traffic with `H = 0.8`
//! whose marginal measures as Pareto with `α ≈ 1.5` and mean
//! `5.68 kB/s` (Figs. 6a, 8a, 18). [`SyntheticTraceSpec`] produces
//! traces with exactly those calibrated properties via the
//! fGn + Gaussian-copula pipeline (the default), or via direct on/off
//! aggregation for cross-validation.

use crate::copula::transform_in_place;
use crate::fgn::FgnPlan;
use crate::onoff::OnOffModel;
use sst_stats::dist::Pareto;
use sst_stats::TimeSeries;

/// Which construction to use for the synthetic trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeneratorKind {
    /// Davies-Harte fGn pushed through a Gaussian copula to the target
    /// marginal (default; pins both H and the marginal exactly).
    FgnCopula,
    /// Superposition of Pareto on/off sources (ns-2-style); the marginal
    /// is whatever the aggregate produces.
    OnOff {
        /// Number of aggregated sources.
        n_sources: usize,
    },
}

/// Marginal distribution of the trace values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MarginalSpec {
    /// Pareto marginal with the given shape and mean — the heavy-tailed
    /// traffic the paper measures (Fig. 8).
    Pareto {
        /// Tail shape α.
        alpha: f64,
        /// Analytic mean.
        mean: f64,
    },
    /// Keep the Gaussian marginal of the underlying fGn, scaled to the
    /// given mean and standard deviation.
    Gaussian {
        /// Mean level.
        mean: f64,
        /// Standard deviation.
        std: f64,
    },
}

/// Builder for reproducible synthetic self-similar traces.
///
/// Defaults reproduce the paper's synthetic workload: `H = 0.8`,
/// Pareto marginal `α = 1.5` with mean `5.68`, length `2^18`, `dt = 1 ms`.
///
/// # Examples
///
/// ```
/// use sst_traffic::SyntheticTraceSpec;
/// let trace = SyntheticTraceSpec::new()
///     .length(1 << 12)
///     .hurst(0.75)
///     .pareto_marginal(1.3, 5.68)
///     .seed(42)
///     .build();
/// assert_eq!(trace.len(), 1 << 12);
/// ```
#[derive(Clone, Debug)]
pub struct SyntheticTraceSpec {
    length: usize,
    hurst: f64,
    marginal: MarginalSpec,
    dt: f64,
    seed: u64,
    kind: GeneratorKind,
}

impl Default for SyntheticTraceSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl SyntheticTraceSpec {
    /// The paper-calibrated default spec (see type-level docs).
    pub fn new() -> Self {
        SyntheticTraceSpec {
            length: 1 << 18,
            hurst: 0.8,
            marginal: MarginalSpec::Pareto {
                alpha: 1.5,
                mean: 5.68,
            },
            dt: 1e-3,
            seed: 0,
            kind: GeneratorKind::FgnCopula,
        }
    }

    /// Sets the number of points.
    pub fn length(mut self, n: usize) -> Self {
        self.length = n;
        self
    }

    /// Sets the Hurst parameter (must be in `(1/2, 1)` at build time).
    pub fn hurst(mut self, h: f64) -> Self {
        self.hurst = h;
        self
    }

    /// Sets a Pareto marginal with shape `alpha` and mean `mean`.
    pub fn pareto_marginal(mut self, alpha: f64, mean: f64) -> Self {
        self.marginal = MarginalSpec::Pareto { alpha, mean };
        self
    }

    /// Keeps a Gaussian marginal with the given mean and stddev.
    pub fn gaussian_marginal(mut self, mean: f64, std: f64) -> Self {
        self.marginal = MarginalSpec::Gaussian { mean, std };
        self
    }

    /// Sets the bin width in seconds.
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches to the on/off aggregate construction with `n_sources`
    /// sources.
    pub fn on_off(mut self, n_sources: usize) -> Self {
        self.kind = GeneratorKind::OnOff { n_sources };
        self
    }

    /// The configured Hurst parameter.
    pub fn hurst_value(&self) -> f64 {
        self.hurst
    }

    /// The analytic mean implied by the marginal spec.
    pub fn target_mean(&self) -> f64 {
        match self.marginal {
            MarginalSpec::Pareto { alpha, mean } => {
                debug_assert!(alpha > 1.0);
                mean
            }
            MarginalSpec::Gaussian { mean, .. } => mean,
        }
    }

    /// Builds the trace.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (length 0, H outside `(1/2, 1)`,
    /// Pareto shape ≤ 1, non-positive mean/std) — the builder validates
    /// at the single terminal call.
    pub fn build(&self) -> TimeSeries {
        assert!(self.length >= 1, "length must be >= 1");
        assert!(
            self.hurst > 0.5 && self.hurst < 1.0,
            "Hurst must be in (1/2,1), got {}",
            self.hurst
        );
        match self.kind {
            GeneratorKind::FgnCopula => {
                // The plan cache makes repeated builds over the same
                // (H, length) — the Monte-Carlo norm — pay for the
                // Davies-Harte eigenvalue spectrum exactly once. The
                // marginal map then runs in place on the fGn buffer.
                let mut values = FgnPlan::cached(self.hurst, self.length)
                    .expect("validated above")
                    .generate_values(self.seed);
                match self.marginal {
                    MarginalSpec::Pareto { alpha, mean } => {
                        assert!(
                            alpha > 1.0,
                            "Pareto marginal needs alpha > 1 for finite mean"
                        );
                        assert!(mean > 0.0, "mean must be positive");
                        transform_in_place(&mut values, &Pareto::with_mean(alpha, mean));
                    }
                    MarginalSpec::Gaussian { mean, std } => {
                        assert!(std >= 0.0, "stddev must be non-negative");
                        for x in &mut values {
                            *x = mean + std * *x;
                        }
                    }
                }
                TimeSeries::from_values(self.dt, values)
            }
            GeneratorKind::OnOff { n_sources } => {
                let model = OnOffModel::for_hurst(self.hurst, n_sources).expect("validated above");
                let raw = model.generate(self.length, self.seed);
                // Rescale to the requested mean level.
                let target = self.target_mean();
                let actual = raw.mean().max(f64::MIN_POSITIVE);
                let k = target / actual;
                TimeSeries::from_values(self.dt, raw.values().iter().map(|&x| x * k).collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_stats::tailfit::fit_pareto_ccdf;

    #[test]
    fn default_reproduces_paper_calibration() {
        let trace = SyntheticTraceSpec::new().length(1 << 16).seed(1).build();
        // Mean near 5.68 — heavy tails converge slowly, accept 20%.
        assert!(
            (trace.mean() - 5.68).abs() / 5.68 < 0.2,
            "mean={}",
            trace.mean()
        );
        // Marginal tail ≈ Pareto(1.5) (Fig. 8a).
        let fit = fit_pareto_ccdf(trace.values(), 0.5).unwrap();
        assert!((fit.alpha - 1.5).abs() < 0.25, "alpha={}", fit.alpha);
        assert_eq!(trace.dt(), 1e-3);
    }

    #[test]
    fn builder_round_trips_parameters() {
        let spec = SyntheticTraceSpec::new()
            .length(100)
            .hurst(0.7)
            .pareto_marginal(1.3, 2.0)
            .dt(0.01)
            .seed(9);
        assert_eq!(spec.hurst_value(), 0.7);
        assert_eq!(spec.target_mean(), 2.0);
        let t = spec.build();
        assert_eq!(t.len(), 100);
        assert_eq!(t.dt(), 0.01);
    }

    #[test]
    fn gaussian_marginal_scales_correctly() {
        let t = SyntheticTraceSpec::new()
            .length(1 << 14)
            .gaussian_marginal(10.0, 2.0)
            .seed(3)
            .build();
        // LRD: std of the sample mean is ≈ std·n^{H-1} ≈ 0.29 here.
        assert!((t.mean() - 10.0).abs() < 1.0, "mean={}", t.mean());
        assert!(
            (t.variance().sqrt() - 2.0).abs() < 0.3,
            "std={}",
            t.variance().sqrt()
        );
    }

    #[test]
    fn on_off_variant_hits_target_mean() {
        let t = SyntheticTraceSpec::new()
            .length(1 << 12)
            .on_off(16)
            .seed(5)
            .build();
        assert!((t.mean() - 5.68).abs() < 1e-9, "rescaled mean={}", t.mean());
    }

    #[test]
    fn determinism_across_builds() {
        let spec = SyntheticTraceSpec::new().length(512).seed(123);
        assert_eq!(spec.build(), spec.build());
    }

    #[test]
    #[should_panic(expected = "Hurst must be in")]
    fn invalid_hurst_panics_at_build() {
        SyntheticTraceSpec::new().hurst(1.5).build();
    }

    #[test]
    #[should_panic(expected = "alpha > 1")]
    fn infinite_mean_marginal_rejected() {
        SyntheticTraceSpec::new()
            .pareto_marginal(0.9, 1.0)
            .length(8)
            .build();
    }
}
