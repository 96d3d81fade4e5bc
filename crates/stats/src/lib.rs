//! # sst-stats — statistics substrate
//!
//! Time-series containers, heavy-tailed distributions, empirical
//! distribution functions, tail-index estimation, and exceedance-burst
//! analysis for the He & Hou (ICDCS 2005) reproduction.
//!
//! ## Contents
//!
//! * [`series`] — [`TimeSeries`], the paper's `f(t)`, with the Eq. (1)
//!   block-aggregation operator.
//! * [`describe`] — batch and streaming (Welford) summaries.
//! * [`dist`] — Pareto / bounded-Pareto / exponential / uniform /
//!   log-normal / Weibull, plus the Eq. (9) negative-binomial log-pmf.
//! * [`ecdf`] — empirical CDF/CCDF with log-spaced curves (Figs. 7-8).
//! * [`tailfit`] — Pareto tail fitting (log-log LS + Hill).
//! * [`burst`] — the exceedance process q(t) and 1-burst statistics
//!   (§V-B).
//! * [`model`] — `R(τ) = τ^{-β}` autocorrelation model, H/β/α
//!   conversions, Cochran's δτ.
//! * [`rng`] — seeded RNG construction and seed derivation.
//! * [`hash`] — a keyed hasher for `u64`-keyed tables.
//! * [`ziggurat`] — transcendental-free standard-normal sampling for
//!   the Monte-Carlo hot paths.
//!
//! ## Example
//!
//! ```
//! use sst_stats::{dist::{Distribution, Pareto}, TimeSeries};
//! use sst_stats::rng::rng_from_seed;
//!
//! let pareto = Pareto::with_mean(1.5, 5.68);
//! let mut rng = rng_from_seed(7);
//! let values: Vec<f64> = (0..1024).map(|_| pareto.sample(&mut rng)).collect();
//! let ts = TimeSeries::from_values(0.001, values);
//! assert!(ts.mean() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod describe;
pub mod dist;
pub mod ecdf;
pub mod hash;
pub mod model;
pub mod rng;
pub mod series;
pub mod stable;
pub mod tailfit;
pub mod ziggurat;

pub use describe::{RunningStats, Summary};
pub use ecdf::Ecdf;
pub use model::PowerLawAcf;
pub use series::TimeSeries;
pub use stable::Stable;
pub use tailfit::ParetoFit;

#[cfg(test)]
mod proptests {
    use crate::describe::{quantile, RunningStats, Summary};
    use crate::dist::{Distribution, Exponential, Pareto, UniformDist};
    use crate::ecdf::Ecdf;
    use crate::rng::rng_from_seed;
    use crate::series::TimeSeries;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn aggregation_reduces_variance(
            vals in proptest::collection::vec(0.0f64..100.0, 64..256),
            m in 2usize..8,
        ) {
            let ts = TimeSeries::from_values(1.0, vals);
            let agg = ts.aggregate(m);
            if agg.len() >= 2 {
                // Averaging within blocks cannot increase variance beyond
                // the original population variance (plus numerical slack).
                prop_assert!(agg.variance() <= ts.variance() + 1e-9);
            }
        }

        #[test]
        fn running_stats_match_summary(vals in proptest::collection::vec(-1e3f64..1e3, 1..200)) {
            let mut rs = RunningStats::new();
            for &v in &vals {
                rs.push(v);
            }
            let s = Summary::of(&vals);
            prop_assert!((rs.mean() - s.mean).abs() < 1e-6);
            prop_assert!((rs.variance() - s.variance).abs() < 1e-4);
        }

        #[test]
        fn ecdf_is_monotone(vals in proptest::collection::vec(-100.0f64..100.0, 1..100)) {
            let e = Ecdf::new(&vals);
            let grid: Vec<f64> = (-110..=110).map(|i| i as f64).collect();
            for w in grid.windows(2) {
                prop_assert!(e.cdf(w[0]) <= e.cdf(w[1]));
            }
            prop_assert_eq!(e.cdf(150.0), 1.0);
            prop_assert_eq!(e.cdf(-150.0), 0.0);
        }

        #[test]
        fn quantiles_are_monotone(vals in proptest::collection::vec(-50.0f64..50.0, 2..100)) {
            let q25 = quantile(&vals, 0.25);
            let q50 = quantile(&vals, 0.5);
            let q75 = quantile(&vals, 0.75);
            prop_assert!(q25 <= q50 && q50 <= q75);
        }

        #[test]
        fn pareto_samples_above_scale(alpha in 1.01f64..3.0, scale in 0.1f64..10.0, seed in 0u64..1000) {
            let p = Pareto::new(alpha, scale);
            let mut rng = rng_from_seed(seed);
            for _ in 0..64 {
                prop_assert!(p.sample(&mut rng) >= scale);
            }
        }

        #[test]
        fn quantile_inverts_ccdf_for_all_dists(p in 0.01f64..0.99) {
            let dists: Vec<Box<dyn Distribution>> = vec![
                Box::new(Pareto::new(1.5, 2.0)),
                Box::new(Exponential::new(0.7)),
                Box::new(UniformDist::new(1.0, 5.0)),
            ];
            for d in &dists {
                let x = d.quantile(p);
                prop_assert!((d.ccdf(x) - (1.0 - p)).abs() < 1e-9);
            }
        }
    }
}
