//! # sst-core — sampling techniques for self-similar Internet traffic
//!
//! The primary contribution of He & Hou, *"An In-Depth, Analytical Study
//! of Sampling Techniques for Self-Similar Internet Traffic"*
//! (ICDCS 2005), as a library:
//!
//! * [`sampler`] — the three classical techniques (§II-B): systematic,
//!   stratified random, simple random, behind one [`Sampler`] trait.
//! * [`bss`] — **Biased Systematic Sampling** (§V-C), the paper's new
//!   sampler, with both offline parameterization and the online tuning
//!   scheme (pre-samples, running-mean threshold, η from Eq. 35).
//! * [`snc`] — Theorem 1's sufficient-and-necessary condition for Hurst
//!   preservation and its FFT checker (§III-D), plus the closed-form
//!   Eq. (11) analysis of simple random sampling.
//! * [`theory`] — the BSS analytics: bias parameter ξ (corrected
//!   Eq. 30), extra-sample budget L (Eq. 23 / inverse-ξ), qualified-
//!   sample cost, burst persistence (Eqs. 18-20), η(r) (Eq. 35).
//! * [`metrics`] / [`experiment`] — η, efficiency `e`, average variance
//!   `E(V)`, and the multi-instance experiment runner behind every
//!   measured figure.
//! * [`parallel`] — [`ParallelExperimentRunner`], fanning instances and
//!   whole rate sweeps across threads with byte-identical results to the
//!   sequential runner.
//! * [`adaptive`] — the Choi-Park-Zhang adaptive random sampler, the
//!   related-work baseline that adapts the *rate* instead of biasing the
//!   *selection* (compared against BSS in the ablation experiments).
//! * [`stream`] — the one implementation of each sampler's rule, as a
//!   push-based schedule (one decision per arriving point — what a
//!   router line card deploys) that the offline samplers also drive
//!   over a slice, with state snapshots ([`SamplerSnapshot`]) for
//!   online monitoring.
//! * [`sketch`] — fixed-memory frequency sketches (count-min,
//!   SpaceSaving) with integer cells, so merges are exact cell-wise
//!   addition — the long-tail tier under `sst-monitor`'s exact
//!   per-stream state.
//! * [`summary`] — the [`MergeableSummary`] contract: summaries of
//!   disjoint data partitions combine associatively, the property the
//!   sharded monitoring engine (`sst-monitor`) is built on.
//! * [`bootstrap`] — moving-block bootstrap confidence intervals, the
//!   LRD-honest error bar to attach to a sampled mean.
//!
//! ## Example
//!
//! ```
//! use sst_core::{Sampler, SystematicSampler};
//! use sst_core::bss::{BssSampler, OnlineTuning, ThresholdPolicy};
//!
//! let trace: Vec<f64> = (0..100_000)
//!     .map(|i| if (i / 1000) % 9 == 0 { 50.0 } else { 1.0 })
//!     .collect();
//!
//! let plain = SystematicSampler::new(500).sample(&trace, 3).mean();
//! let bss = BssSampler::new(500, ThresholdPolicy::Online(OnlineTuning::default()))
//!     .expect("valid config")
//!     .sample_detailed(&trace, 3);
//!
//! // BSS deliberately biases *upward*: its qualified samples all exceed
//! // the threshold, countering the typical underestimate on heavy-tailed
//! // traffic (on genuinely heavy-tailed traces this lands closer to the
//! // true mean — see the `bss_beats_systematic` integration test).
//! assert!(bss.qualified_count > 0);
//! assert!(bss.mean() >= plain);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod bootstrap;
pub mod bss;
pub mod experiment;
pub mod metrics;
pub mod parallel;
pub mod sampler;
pub mod sketch;
pub mod snc;
pub mod stream;
pub mod summary;
pub mod theory;

pub use adaptive::{AdaptiveConfig, AdaptiveOutcome, AdaptiveRandomSampler};
pub use bootstrap::{moving_block_ci, BootstrapCi};
pub use bss::{BssOutcome, BssSampler, OnlineTuning, ThresholdPolicy};
pub use experiment::{run_bss_experiment, run_experiment, ExperimentResult};
pub use parallel::ParallelExperimentRunner;
pub use sampler::{Sampler, Samples, SimpleRandomSampler, StratifiedSampler, SystematicSampler};
pub use sketch::{CountMinSketch, SpaceSaving};
pub use snc::{GapDistribution, SncReport};
pub use stream::{
    SamplerSnapshot, StreamDecision, StreamSampler, StreamingBss, StreamingSimpleRandom,
    StreamingStratified, StreamingSystematic,
};
pub use summary::{merge_all, MergeableSummary};

#[cfg(test)]
mod integration {
    use super::*;
    use sst_traffic::SyntheticTraceSpec;

    /// T3 in miniature: on heavy-tailed LRD traffic, online BSS's
    /// deliberate selection bias moves the estimate up from plain
    /// systematic at the same base rate, at bounded overhead. (At 131
    /// samples per instance, which scheme's *absolute* error wins
    /// swings with the trace realization; the upward shift and its
    /// bounded size do not.)
    #[test]
    fn bss_recovers_upward_from_systematic_at_bounded_cost() {
        let trace = SyntheticTraceSpec::new().length(1 << 17).seed(2024).build();
        let truth = trace.mean();
        let interval = 1000;
        let n_inst = 8;

        let sys = run_experiment(
            trace.values(),
            &SystematicSampler::new(interval),
            n_inst,
            11,
        );
        let bss_sampler = BssSampler::new(
            interval,
            ThresholdPolicy::Online(OnlineTuning {
                alpha: 1.5,
                ..Default::default()
            }),
        )
        .unwrap();
        let bss = run_bss_experiment(trace.values(), &bss_sampler, n_inst, 11);

        assert!(
            bss.median_mean() > sys.median_mean(),
            "BSS median {:.4} should sit above systematic {:.4} (truth {truth:.4})",
            bss.median_mean(),
            sys.median_mean()
        );
        // The bias is a correction, not a blow-up.
        assert!(
            bss.median_mean() < 1.6 * truth,
            "BSS median {:.4} overshoots truth {truth:.4} wildly",
            bss.median_mean()
        );
        // And it costs bounded overhead.
        assert!(
            bss.mean_overhead() < 2.0,
            "overhead={}",
            bss.mean_overhead()
        );
    }

    /// T1 in miniature: the sampled process has the same Hurst parameter
    /// as the original — compared with the *same estimator on both*
    /// (subsampling perturbs fine scales, so the honest comparison is
    /// estimator(sampled) vs estimator(original), both at coarse scales).
    #[test]
    fn sampled_process_keeps_hurst() {
        use sst_hurst::LocalWhittleEstimator;
        let h = 0.85;
        let trace = sst_traffic::FgnGenerator::new(h)
            .unwrap()
            .generate_values(1 << 18, 5);
        let est = LocalWhittleEstimator { bandwidth: 0.5 };
        let sampled = SystematicSampler::new(16).sample(&trace, 0);
        let h_sampled = est.estimate(sampled.values()).unwrap().hurst;
        let h_orig = est.estimate(&trace).unwrap().hurst;
        assert!(
            (h_sampled - h_orig).abs() < 0.07,
            "sampled H={h_sampled} vs original H={h_orig}"
        );
        assert!(
            (h_sampled - h).abs() < 0.08,
            "sampled H={h_sampled} vs true {h}"
        );
    }

    /// T2 in miniature: Theorem 2's ordering of average variances,
    /// `E(V_sy) ≤ E(V_rs) ≤ E(V_ran)`. The theorem is a superpopulation
    /// (ensemble-expectation) statement, so the check averages E(V)
    /// over independent trace realizations.
    #[test]
    fn variance_ordering_on_lrd_traffic() {
        let c = 64;
        let reps = 24u64;
        let (mut sys_acc, mut strat_acc, mut rand_acc) = (0.0, 0.0, 0.0);
        for seed in 0..reps {
            let trace = SyntheticTraceSpec::new()
                .length(1 << 14)
                .gaussian_marginal(10.0, 1.0) // finite variance: E(V) stable
                .seed(seed)
                .build();
            let n = 64;
            sys_acc += run_experiment(trace.values(), &SystematicSampler::new(c), n, seed)
                .average_variance();
            strat_acc += run_experiment(trace.values(), &StratifiedSampler::new(c), n, seed)
                .average_variance();
            rand_acc += run_experiment(
                trace.values(),
                &SimpleRandomSampler::new(1.0 / c as f64),
                n,
                seed,
            )
            .average_variance();
        }
        // Systematic/stratified are near-equal per Theorem 2 — the
        // finite-ensemble ratio fluctuates around 1 by ~±0.1 even at 24
        // realizations, so allow that much noise; both must clearly
        // beat simple random.
        assert!(
            sys_acc <= strat_acc * 1.25,
            "sys={sys_acc} strat={strat_acc}"
        );
        assert!(sys_acc < rand_acc, "sys={sys_acc} rand={rand_acc}");
        assert!(strat_acc < rand_acc, "strat={strat_acc} rand={rand_acc}");
    }
}
