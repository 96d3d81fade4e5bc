//! # sst-hurst — Hurst / long-range-dependence estimation
//!
//! Ten estimators of the Hurst parameter for the He & Hou (ICDCS 2005)
//! reproduction, all returning a common [`HurstEstimate`]:
//!
//! | module | estimator | domain |
//! |---|---|---|
//! | [`wavelet`] | Abry-Veitch log-scale diagram (the paper's §VI tool) | wavelet |
//! | [`classic`] | R/S analysis, aggregated variance | time |
//! | [`spectral`] | periodogram regression, local Whittle | frequency |
//! | [`acffit`] | log-log ACF tail fit (β directly) | time |
//! | [`dfa`] | detrended fluctuation analysis (DFA-1) | time |
//! | [`timedomain`] | Higuchi, absolute moments, variance of residuals | time |
//!
//! ## Example
//!
//! ```
//! use sst_hurst::{estimate_all, WaveletEstimator};
//! use sst_traffic::FgnGenerator;
//!
//! let trace = FgnGenerator::new(0.8).unwrap().generate_values(1 << 14, 1);
//! let est = WaveletEstimator::default().estimate(&trace).unwrap();
//! assert!((est.hurst - 0.8).abs() < 0.1);
//!
//! // Or run the whole battery:
//! let all = estimate_all(&trace);
//! assert!(all.len() >= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acffit;
pub mod classic;
pub mod dfa;
pub mod online;
pub mod report;
pub mod spectral;
pub mod timedomain;
pub mod wavelet;

pub use acffit::AcfFitEstimator;
pub use classic::{RsEstimator, VarianceTimeEstimator};
pub use dfa::DfaEstimator;
pub use online::{OnlineVarianceTime, ProjectionBank, MAX_PROJECTIONS};
pub use report::{EstimateError, HurstEstimate, Method};
pub use spectral::{LocalWhittleEstimator, PeriodogramEstimator};
pub use timedomain::{AbsoluteMomentEstimator, HiguchiEstimator, ResidualVarianceEstimator};
pub use wavelet::WaveletEstimator;

/// Runs every estimator with default settings and returns the successful
/// estimates (estimators that error on this input are skipped).
pub fn estimate_all(values: &[f64]) -> Vec<HurstEstimate> {
    let mut out = Vec::with_capacity(10);
    if let Ok(e) = WaveletEstimator::default().estimate(values) {
        out.push(e);
    }
    if let Ok(e) = RsEstimator::default().estimate(values) {
        out.push(e);
    }
    if let Ok(e) = VarianceTimeEstimator::default().estimate(values) {
        out.push(e);
    }
    if let Ok(e) = PeriodogramEstimator::default().estimate(values) {
        out.push(e);
    }
    if let Ok(e) = LocalWhittleEstimator::default().estimate(values) {
        out.push(e);
    }
    if let Ok(e) = AcfFitEstimator::default().estimate(values) {
        out.push(e);
    }
    if let Ok(e) = DfaEstimator::default().estimate(values) {
        out.push(e);
    }
    if let Ok(e) = HiguchiEstimator::default().estimate(values) {
        out.push(e);
    }
    if let Ok(e) = AbsoluteMomentEstimator::default().estimate(values) {
        out.push(e);
    }
    if let Ok(e) = ResidualVarianceEstimator::default().estimate(values) {
        out.push(e);
    }
    out
}

/// Median of the battery's estimates — a robust single number when one
/// estimator misbehaves on an unusual input. Returns `None` when no
/// estimator succeeded.
pub fn consensus_hurst(values: &[f64]) -> Option<f64> {
    let ests = estimate_all(values);
    if ests.is_empty() {
        return None;
    }
    let mut hs: Vec<f64> = ests.iter().map(|e| e.hurst).collect();
    hs.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
    Some(hs[hs.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_traffic::FgnGenerator;

    #[test]
    fn battery_agrees_on_fgn() {
        let h = 0.8;
        let vals = FgnGenerator::new(h).unwrap().generate_values(1 << 16, 99);
        let ests = estimate_all(&vals);
        assert!(ests.len() >= 5, "got {} estimates", ests.len());
        for e in &ests {
            assert!(
                (e.hurst - h).abs() < 0.15,
                "{}: {} too far from {h}",
                e.method,
                e.hurst
            );
        }
        let consensus = consensus_hurst(&vals).unwrap();
        assert!((consensus - h).abs() < 0.07, "consensus={consensus}");
    }

    #[test]
    fn battery_handles_tiny_input() {
        let ests = estimate_all(&[1.0, 2.0, 3.0]);
        assert!(ests.is_empty());
        assert!(consensus_hurst(&[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn estimators_work_on_onoff_traffic() {
        use sst_traffic::OnOffModel;
        let m = OnOffModel::for_hurst(0.8, 32).unwrap();
        let ts = m.generate(1 << 16, 55);
        let consensus = consensus_hurst(ts.values()).unwrap();
        // On/off aggregation converges to H=0.8 only in the limit; accept
        // a generous band but demand clear LRD.
        assert!(consensus > 0.65, "consensus={consensus}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sst_traffic::FgnGenerator;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn wavelet_estimate_in_valid_range(h in 0.55f64..0.95, seed in 0u64..32) {
            let vals = FgnGenerator::new(h).unwrap().generate_values(1 << 13, seed);
            let est = WaveletEstimator::default().estimate(&vals).unwrap();
            prop_assert!(est.hurst > 0.3 && est.hurst < 1.2);
            prop_assert!((est.hurst - h).abs() < 0.2);
        }

        #[test]
        fn whittle_estimate_close(h in 0.55f64..0.95, seed in 0u64..32) {
            let vals = FgnGenerator::new(h).unwrap().generate_values(1 << 13, seed);
            let est = LocalWhittleEstimator::default().estimate(&vals).unwrap();
            prop_assert!((est.hurst - h).abs() < 0.15);
        }
    }
}
