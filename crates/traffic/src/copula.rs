//! Gaussian-copula marginal transforms.
//!
//! Takes a Gaussian LRD series (fGn) and pushes each point through
//! `Q(Φ(x))` where `Q` is the quantile function of a target marginal.
//! The transform is strictly monotone, so the ordering, the burst
//! structure, and — because the Hermite rank of a monotone transform is
//! 1 — the long-range-dependence exponent of the input are preserved,
//! while the output marginal is *exactly* the target distribution.
//!
//! This is the substitution documented in DESIGN.md for the paper's ns-2
//! traces: the analyses need (a) a chosen Hurst parameter and (b) a
//! heavy-tailed (Pareto) marginal, and the copula construction pins both.

use sst_sigproc::special::normal_cdf;
use sst_stats::dist::Distribution;
use sst_stats::TimeSeries;

/// Clamp for Φ(x) so heavy-tailed quantiles stay finite: with p bounded
/// away from 1 by 1e-14, a Pareto(α=1.2) quantile stays below ~1e12·k.
const P_EPS: f64 = 1e-14;

/// The copula map of one point: `Q(Φ(x))`, with Φ clamped by `P_EPS`.
#[inline]
fn quantile_of<D: Distribution + ?Sized>(marginal: &D, x: f64) -> f64 {
    marginal.quantile(normal_cdf(x).clamp(P_EPS, 1.0 - P_EPS))
}

/// Maps each value of a (nominally standard normal) series through the
/// quantile function of `marginal`, producing a series with that marginal.
pub fn transform_values(gaussian: &[f64], marginal: &dyn Distribution) -> Vec<f64> {
    let mut out = Vec::new();
    transform_values_into(gaussian, marginal, &mut out);
    out
}

/// [`transform_values`] into a caller-owned buffer (cleared first), so
/// per-instance pipelines reuse their allocation.
pub fn transform_values_into(gaussian: &[f64], marginal: &dyn Distribution, out: &mut Vec<f64>) {
    out.clear();
    out.extend(gaussian.iter().map(|&x| quantile_of(marginal, x)));
}

/// [`transform_values`] over `values` in place: the trace builder maps
/// its fGn buffer without a second allocation.
pub(crate) fn transform_in_place<D: Distribution + ?Sized>(values: &mut [f64], marginal: &D) {
    for x in values {
        *x = quantile_of(marginal, *x);
    }
}

/// [`transform_values`] on a [`TimeSeries`], preserving the bin width.
pub fn transform_series(gaussian: &TimeSeries, marginal: &dyn Distribution) -> TimeSeries {
    TimeSeries::from_values(gaussian.dt(), transform_values(gaussian.values(), marginal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgn::FgnGenerator;
    use sst_sigproc::conv::autocorrelation;
    use sst_stats::dist::{Exponential, Pareto};
    use sst_stats::tailfit::fit_pareto_ccdf;

    #[test]
    fn transform_is_monotone() {
        let p = Pareto::new(1.5, 1.0);
        let xs = [-2.0, -1.0, 0.0, 1.0, 2.0];
        let ys = transform_values(&xs, &p);
        for w in ys.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn output_marginal_matches_target() {
        let p = Pareto::with_mean(1.5, 5.68);
        let g = FgnGenerator::new(0.8).unwrap();
        let gauss = g.generate_values(1 << 16, 31);
        let out = transform_values(&gauss, &p);
        // All above scale.
        assert!(out.iter().all(|&v| v >= p.scale() * (1.0 - 1e-9)));
        // Tail index recovered.
        let fit = fit_pareto_ccdf(&out, 0.5).expect("fit");
        assert!((fit.alpha - 1.5).abs() < 0.2, "alpha={}", fit.alpha);
        // Median matches the analytic median (robust even with α < 2).
        let mut sorted = out.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = sorted[sorted.len() / 2];
        // LRD sample quantiles fluctuate at rate n^{H-1}, far slower than
        // √n — 15% is the right tolerance at this length.
        assert!((med / p.quantile(0.5) - 1.0).abs() < 0.15, "median={med}");
    }

    #[test]
    fn lrd_survives_the_transform() {
        // The autocorrelation of the transformed series still decays like
        // a power law with roughly the same exponent (Hermite rank 1).
        let h = 0.85;
        let g = FgnGenerator::new(h).unwrap();
        let gauss = g.generate_values(1 << 17, 77);
        // Use a *bounded* heavy-tail-free marginal for the correlation
        // check (sample ACF of infinite-variance data is unstable).
        let e = Exponential::new(1.0);
        let out = transform_values(&gauss, &e);
        let rho = autocorrelation(&out, 256);
        let lags: Vec<f64> = (8..256).map(|k| k as f64).collect();
        let vals: Vec<f64> = (8..256).map(|k| rho[k].max(1e-9)).collect();
        let (slope, _, _) = sst_sigproc::regress::power_law_fit(&lags, &vals);
        let beta = 2.0 - 2.0 * h;
        assert!(
            (slope + beta).abs() < 0.15,
            "slope={slope} expected −β={}",
            -beta
        );
    }

    #[test]
    fn extreme_gaussian_inputs_stay_finite() {
        let p = Pareto::new(1.2, 1.0);
        let ys = transform_values(&[-40.0, 40.0], &p);
        assert!(ys.iter().all(|v| v.is_finite()));
        assert!(ys[1] > 1e9); // deep tail reached, but finite
    }

    #[test]
    fn in_place_matches_the_allocating_transform() {
        let p = Pareto::with_mean(1.5, 5.68);
        let mut xs = FgnGenerator::new(0.8).unwrap().generate_values(4096, 5);
        let want = transform_values(&xs, &p);
        transform_in_place(&mut xs, &p);
        assert_eq!(xs, want);
    }

    #[test]
    fn series_transform_preserves_dt() {
        let ts = TimeSeries::from_values(0.001, vec![0.0, 1.0, -1.0]);
        let p = Pareto::new(2.0, 1.0);
        let out = transform_series(&ts, &p);
        assert_eq!(out.dt(), 0.001);
        assert_eq!(out.len(), 3);
    }
}
