//! Multi-instance sampling experiments — the machinery behind every
//! measured figure: run a sampler many times on the same trace (different
//! instance seeds), collect per-instance means and sample counts, and
//! reduce them to the paper's metrics.

use crate::bss::BssSampler;
use crate::metrics::{average_variance, efficiency, eta};
use crate::sampler::Sampler;
use sst_stats::rng::derive_seed;

/// Per-instance measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InstanceResult {
    /// The sampled mean of this instance.
    pub mean: f64,
    /// Samples kept in this instance.
    pub n_samples: usize,
    /// Qualified (extra) samples, for BSS; 0 otherwise.
    pub n_qualified: usize,
}

/// Aggregated result of a multi-instance experiment at one rate.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Sampler name.
    pub sampler: &'static str,
    /// Nominal sampling rate.
    pub rate: f64,
    /// The true mean of the underlying trace.
    pub true_mean: f64,
    /// Per-instance results.
    pub instances: Vec<InstanceResult>,
}

impl ExperimentResult {
    /// Mean of the per-instance sampled means.
    pub fn mean_of_means(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        self.instances.iter().map(|i| i.mean).sum::<f64>() / self.instances.len() as f64
    }

    /// Median of the per-instance sampled means — the "typical single
    /// experiment" the paper's mean-vs-rate figures show (with α-stable
    /// sampling noise the median is the robust centre).
    pub fn median_mean(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        let mut ms: Vec<f64> = self.instances.iter().map(|i| i.mean).collect();
        ms.sort_by(|a, b| a.partial_cmp(b).expect("finite means"));
        ms[ms.len() / 2]
    }

    /// The average variance `E(V)` of §IV against the true mean.
    pub fn average_variance(&self) -> f64 {
        let means: Vec<f64> = self.instances.iter().map(|i| i.mean).collect();
        average_variance(&means, self.true_mean)
    }

    /// η of the median instance (Eq. 21).
    pub fn eta(&self) -> f64 {
        eta(self.true_mean, self.median_mean())
    }

    /// Efficiency `e` of the median instance (§VI).
    pub fn efficiency(&self) -> f64 {
        let n = self.median_total_samples().max(2);
        efficiency(self.eta(), n)
    }

    /// Median total samples per instance.
    pub fn median_total_samples(&self) -> usize {
        if self.instances.is_empty() {
            return 0;
        }
        let mut ns: Vec<usize> = self.instances.iter().map(|i| i.n_samples).collect();
        ns.sort_unstable();
        ns[ns.len() / 2]
    }

    /// Mean BSS overhead (qualified/normal) across instances.
    pub fn mean_overhead(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        self.instances
            .iter()
            .map(|i| crate::bss::overhead(i.n_qualified, i.n_samples - i.n_qualified))
            .sum::<f64>()
            / self.instances.len() as f64
    }
}

/// Shared precondition check for every experiment entry point
/// (sequential and parallel): non-empty trace, at least one instance,
/// positive true mean (the paper's η and E(V) metrics need a positive
/// reference). Returns the true mean.
pub(crate) fn validate_experiment_inputs(values: &[f64], n_instances: usize) -> f64 {
    assert!(
        !values.is_empty(),
        "cannot run an experiment on an empty trace"
    );
    assert!(n_instances >= 1, "need at least one instance");
    let true_mean = values.iter().sum::<f64>() / values.len() as f64;
    assert!(
        true_mean > 0.0,
        "experiment metrics require a positive-mean trace"
    );
    true_mean
}

/// Instance `i` of an experiment with `sampler` on `values`: its seed
/// is derived from `base_seed` and `i` alone, so instances can run in
/// any order or on any thread.
pub(crate) fn instance<S: Sampler + ?Sized>(
    values: &[f64],
    sampler: &S,
    base_seed: u64,
    i: usize,
) -> InstanceResult {
    sampler.tally(values, derive_seed(base_seed, i as u64))
}

/// [`instance`] for BSS, keeping the qualified-sample count.
pub(crate) fn bss_instance(
    values: &[f64],
    sampler: &BssSampler,
    base_seed: u64,
    i: usize,
) -> InstanceResult {
    sampler.tally_detailed(values, derive_seed(base_seed, i as u64))
}

/// Runs `n_instances` instances of `sampler` on `values`.
///
/// Instance seeds are derived deterministically from `base_seed`, so the
/// whole experiment is reproducible.
///
/// # Panics
///
/// Panics if `values` is empty or has non-positive mean (the paper's η
/// and E(V) metrics need a positive reference mean), or `n_instances == 0`.
pub fn run_experiment(
    values: &[f64],
    sampler: &dyn Sampler,
    n_instances: usize,
    base_seed: u64,
) -> ExperimentResult {
    let true_mean = validate_experiment_inputs(values, n_instances);
    let instances = (0..n_instances)
        .map(|i| instance(values, sampler, base_seed, i))
        .collect();
    ExperimentResult {
        sampler: sampler.name(),
        rate: sampler.nominal_rate(),
        true_mean,
        instances,
    }
}

/// BSS variant of [`run_experiment`], keeping the qualified-sample counts
/// so overhead can be reported.
///
/// # Panics
///
/// Same conditions as [`run_experiment`].
pub fn run_bss_experiment(
    values: &[f64],
    sampler: &BssSampler,
    n_instances: usize,
    base_seed: u64,
) -> ExperimentResult {
    let true_mean = validate_experiment_inputs(values, n_instances);
    let instances = (0..n_instances)
        .map(|i| bss_instance(values, sampler, base_seed, i))
        .collect();
    ExperimentResult {
        sampler: "bss",
        rate: sampler.nominal_rate(),
        true_mean,
        instances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bss::{OnlineTuning, ThresholdPolicy};
    use crate::sampler::{SimpleRandomSampler, StratifiedSampler, SystematicSampler};

    fn lumpy(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| if (i / 97) % 11 == 0 { 40.0 } else { 1.0 })
            .collect()
    }

    #[test]
    fn experiment_is_deterministic() {
        let vals = lumpy(10_000);
        let s = StratifiedSampler::new(50);
        let a = run_experiment(&vals, &s, 8, 7);
        let b = run_experiment(&vals, &s, 8, 7);
        assert_eq!(a.instances, b.instances);
        let c = run_experiment(&vals, &s, 8, 8);
        assert_ne!(a.instances, c.instances);
    }

    #[test]
    fn systematic_has_smallest_average_variance_on_lrd_like_input() {
        // The Theorem-2 ordering on a positively-correlated process.
        let vals = lumpy(100_000);
        let n = 64;
        let sys = run_experiment(&vals, &SystematicSampler::new(100), n, 1);
        let strat = run_experiment(&vals, &StratifiedSampler::new(100), n, 1);
        let rand = run_experiment(&vals, &SimpleRandomSampler::new(0.01), n, 1);
        assert!(
            sys.average_variance() <= strat.average_variance() * 1.5,
            "sys={} strat={}",
            sys.average_variance(),
            strat.average_variance()
        );
        assert!(
            sys.average_variance() <= rand.average_variance() * 1.5,
            "sys={} rand={}",
            sys.average_variance(),
            rand.average_variance()
        );
    }

    #[test]
    fn metrics_are_consistent() {
        let vals = lumpy(50_000);
        let r = run_experiment(&vals, &SystematicSampler::new(100), 16, 3);
        assert!(r.true_mean > 1.0);
        assert!(r.median_total_samples() >= 499);
        assert!(r.eta() >= 0.0 && r.eta() < 1.0);
        assert!(r.efficiency() > 0.0);
        assert_eq!(r.sampler, "systematic");
        assert!((r.rate - 0.01).abs() < 1e-12);
    }

    #[test]
    fn bss_experiment_reports_overhead() {
        let vals = lumpy(50_000);
        let bss = BssSampler::new(
            100,
            ThresholdPolicy::Online(OnlineTuning {
                n_pre: 16,
                ..OnlineTuning::default()
            }),
        )
        .unwrap()
        .with_l(10);
        let r = run_bss_experiment(&vals, &bss, 8, 5);
        assert_eq!(r.sampler, "bss");
        assert!(r.mean_overhead() >= 0.0);
        // Qualified samples counted inside totals.
        for inst in &r.instances {
            assert!(inst.n_samples >= inst.n_qualified);
        }
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        run_experiment(&[], &SystematicSampler::new(10), 4, 0);
    }
}
