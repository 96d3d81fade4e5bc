//! Parallel experiment execution.
//!
//! [`ParallelExperimentRunner`] fans the instances of a multi-instance
//! sampling experiment — and whole rate sweeps — across threads while
//! staying **byte-identical** to the sequential
//! [`crate::experiment::run_experiment`] path: instance `i` depends only
//! on `derive_seed(base_seed, i)`, never on shared mutable state, so the
//! ordered parallel map reproduces the sequential result list exactly
//! (the `parallel_matches_sequential_*` tests pin this down).
//!
//! ## Example
//!
//! ```
//! use sst_core::{run_experiment, ParallelExperimentRunner, SystematicSampler};
//!
//! let trace: Vec<f64> = (0..40_000).map(|i| 1.0 + ((i / 400) % 7) as f64).collect();
//! let sampler = SystematicSampler::new(100);
//! let par = ParallelExperimentRunner::new().run(&trace, &sampler, 16, 7);
//! let seq = run_experiment(&trace, &sampler, 16, 7);
//! assert_eq!(par.instances, seq.instances);
//! ```

use crate::bss::BssSampler;
use crate::experiment::{
    bss_instance, instance, validate_experiment_inputs, ExperimentResult, InstanceResult,
};
use crate::sampler::Sampler;
use rayon::prelude::*;

/// Minimum trace elements one submitted task should be responsible for.
///
/// Fanning out is cheap now that the offline rayon stand-in runs a
/// persistent worker pool (one queue push per task instead of an OS
/// thread spawn), but a work item still pays queueing and
/// cache-migration overhead, so an instance only earns a task of its
/// own when it scans at least this many elements; smaller instances are
/// batched together, and sweeps whose *total* work cannot fill two such
/// tasks skip the fan-out entirely. The value corresponds to roughly a
/// hundred microseconds of sampling work — far above enqueue cost, far
/// below the scale where load imbalance would matter. (The pre-pool
/// threshold was 8× higher; the pool dropped the fan-out floor.)
const MIN_TASK_ELEMS: u64 = 1 << 18;

/// How a runner will execute a sweep of `total_items` work items, each
/// scanning `item_elems` trace elements.
///
/// Exposed for tests; produced by [`chunking_for`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chunking {
    /// Run inline on the calling thread — the work cannot pay for even
    /// one fan-out.
    Sequential,
    /// Fan out tasks of `chunk` consecutive items each.
    Chunked {
        /// Items per spawned task (≥ 1).
        chunk: usize,
    },
}

/// Decides the execution strategy for `total_items` items of
/// `item_elems` elements each across `threads` workers.
///
/// Byte-equality is unaffected by the choice — chunks preserve item
/// order and items stay pure functions of their seed — so this is
/// purely a throughput decision.
pub fn chunking_for(total_items: usize, item_elems: usize, threads: usize) -> Chunking {
    let total_work = total_items as u64 * item_elems as u64;
    if threads <= 1 || total_items <= 1 || total_work < 2 * MIN_TASK_ELEMS {
        return Chunking::Sequential;
    }
    // Items per task so each task clears the minimum-work bar …
    let min_chunk = (MIN_TASK_ELEMS / (item_elems as u64).max(1)).max(1) as usize;
    // … but never fewer tasks than workers when the work could fill
    // them (ceil division keeps every chunk at least `min_chunk` except
    // possibly the last).
    let fair_chunk = total_items.div_ceil(threads);
    Chunking::Chunked {
        chunk: min_chunk.max(fair_chunk.min(total_items)),
    }
}

/// Runs multi-instance experiments across threads.
///
/// `jobs = None` (the default) uses every available core; `Some(n)` caps
/// the worker count — `Some(1)` degenerates to the sequential path.
/// Small sweeps are not fanned out at all: a minimum-work-per-task
/// threshold ([`chunking_for`]) batches instances into chunks and runs
/// sub-millisecond sweeps inline, so the parallel entry points are never
/// slower than [`crate::experiment::run_experiment`] by more than
/// measurement noise (and byte-identical to it always).
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelExperimentRunner {
    jobs: Option<usize>,
}

impl ParallelExperimentRunner {
    /// A runner using all available cores.
    pub fn new() -> Self {
        ParallelExperimentRunner { jobs: None }
    }

    /// Caps the worker count at `n` (`n = 1` runs sequentially).
    pub fn with_jobs(mut self, n: usize) -> Self {
        self.jobs = Some(n.max(1));
        self
    }

    /// The configured worker cap, if any.
    pub fn jobs(&self) -> Option<usize> {
        self.jobs
    }

    fn scoped<T>(&self, f: impl FnOnce() -> T) -> T {
        match self.jobs {
            Some(n) => rayon::with_num_threads(n, f),
            None => f(),
        }
    }

    /// The worker count the next operation would fan out across.
    fn effective_threads(&self) -> usize {
        self.jobs.unwrap_or_else(rayon::current_num_threads).max(1)
    }

    /// Whether a sweep of `n_items` items over `item_elems`-element
    /// scans falls under the minimum-work threshold and runs inline.
    fn runs_sequentially(&self, n_items: usize, item_elems: usize) -> bool {
        chunking_for(n_items, item_elems, self.effective_threads()) == Chunking::Sequential
    }

    /// Runs `n_items` indexed work items (each scanning `item_elems`
    /// trace elements) under the [`chunking_for`] policy, preserving
    /// item order exactly.
    fn execute<F>(&self, n_items: usize, item_elems: usize, f: F) -> Vec<InstanceResult>
    where
        F: Fn(usize) -> InstanceResult + Sync,
    {
        match chunking_for(n_items, item_elems, self.effective_threads()) {
            Chunking::Sequential => (0..n_items).map(f).collect(),
            Chunking::Chunked { chunk } => self.scoped(|| {
                let starts: Vec<usize> = (0..n_items).step_by(chunk).collect();
                let batches: Vec<Vec<InstanceResult>> = starts
                    .into_par_iter()
                    .map(|start| (start..(start + chunk).min(n_items)).map(&f).collect())
                    .collect();
                batches.into_iter().flatten().collect()
            }),
        }
    }

    /// Parallel form of [`crate::experiment::run_experiment`]; the result
    /// is byte-identical to the sequential call.
    ///
    /// # Panics
    ///
    /// Same conditions as [`crate::experiment::run_experiment`].
    pub fn run(
        &self,
        values: &[f64],
        sampler: &(dyn Sampler + Sync),
        n_instances: usize,
        base_seed: u64,
    ) -> ExperimentResult {
        if self.runs_sequentially(n_instances, values.len()) {
            // Below the fan-out threshold the parallel entry point IS
            // the sequential runner — same function, zero overhead.
            return crate::experiment::run_experiment(values, sampler, n_instances, base_seed);
        }
        let true_mean = validate_experiment_inputs(values, n_instances);
        let instances = self.execute(n_instances, values.len(), |i| {
            instance(values, sampler, base_seed, i)
        });
        ExperimentResult {
            sampler: sampler.name(),
            rate: sampler.nominal_rate(),
            true_mean,
            instances,
        }
    }

    /// Parallel form of [`crate::experiment::run_bss_experiment`];
    /// byte-identical to the sequential call.
    ///
    /// # Panics
    ///
    /// Same conditions as [`crate::experiment::run_bss_experiment`].
    pub fn run_bss(
        &self,
        values: &[f64],
        sampler: &BssSampler,
        n_instances: usize,
        base_seed: u64,
    ) -> ExperimentResult {
        if self.runs_sequentially(n_instances, values.len()) {
            return crate::experiment::run_bss_experiment(values, sampler, n_instances, base_seed);
        }
        let true_mean = validate_experiment_inputs(values, n_instances);
        let instances = self.execute(n_instances, values.len(), |i| {
            bss_instance(values, sampler, base_seed, i)
        });
        ExperimentResult {
            sampler: "bss",
            rate: sampler.nominal_rate(),
            true_mean,
            instances,
        }
    }

    /// Fans a whole rate sweep — every `(rate, instance)` pair — across
    /// threads in one flat task list, avoiding the idle tail a
    /// rate-at-a-time loop leaves on wide machines. `make_sampler` builds
    /// the sampler for each rate (once); `instances_at` gives the
    /// instance count for each rate (figures cap instances at the
    /// systematic interval, `instances.min(c)`). Per-rate results are
    /// byte-identical to calling [`ParallelExperimentRunner::run`] (and
    /// therefore the sequential runner) rate by rate.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ParallelExperimentRunner::run`], applied per
    /// rate.
    pub fn run_rate_sweep<F, N>(
        &self,
        values: &[f64],
        rates: &[f64],
        make_sampler: F,
        instances_at: N,
        base_seed: u64,
    ) -> Vec<ExperimentResult>
    where
        F: Fn(f64) -> Box<dyn Sampler + Send + Sync> + Sync,
        N: Fn(f64) -> usize,
    {
        let true_mean = validate_experiment_inputs(values, 1);
        let counts: Vec<usize> = rates.iter().map(|&r| instances_at(r)).collect();
        assert!(counts.iter().all(|&c| c >= 1), "need at least one instance");
        // One sampler per rate, shared read-only by that rate's tasks.
        let samplers: Vec<Box<dyn Sampler + Send + Sync>> =
            rates.iter().map(|&r| make_sampler(r)).collect();
        // Flat (rate, instance) task list, executed in one ordered
        // (chunked) parallel map, then regrouped by rate via offsets.
        let tasks: Vec<(usize, usize)> = (0..rates.len())
            .flat_map(|r| (0..counts[r]).map(move |i| (r, i)))
            .collect();
        let flat = self.execute(tasks.len(), values.len(), |t| {
            let (r, i) = tasks[t];
            instance(values, samplers[r].as_ref(), base_seed, i)
        });
        let mut offset = 0usize;
        samplers
            .iter()
            .zip(&counts)
            .map(|(sampler, &count)| {
                let instances = flat[offset..offset + count].to_vec();
                offset += count;
                ExperimentResult {
                    sampler: sampler.name(),
                    rate: sampler.nominal_rate(),
                    true_mean,
                    instances,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bss::{OnlineTuning, ThresholdPolicy};
    use crate::experiment::{run_bss_experiment, run_experiment};
    use crate::sampler::{SimpleRandomSampler, StratifiedSampler, SystematicSampler};

    fn lumpy(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| if (i / 97) % 11 == 0 { 40.0 } else { 1.0 })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_for_all_samplers() {
        let vals = lumpy(30_000);
        let runner = ParallelExperimentRunner::new();
        let samplers: Vec<Box<dyn Sampler + Send + Sync>> = vec![
            Box::new(SystematicSampler::new(100)),
            Box::new(StratifiedSampler::new(100)),
            Box::new(SimpleRandomSampler::new(0.01)),
        ];
        for s in &samplers {
            for seed in [0u64, 7, 123] {
                let par = runner.run(&vals, s.as_ref(), 12, seed);
                let seq = run_experiment(&vals, s.as_ref(), 12, seed);
                assert_eq!(par.instances, seq.instances, "{} seed={seed}", s.name());
                assert_eq!(par.true_mean, seq.true_mean);
                assert_eq!(par.rate, seq.rate);
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_for_bss() {
        let vals = lumpy(30_000);
        let bss = BssSampler::new(
            100,
            ThresholdPolicy::Online(OnlineTuning {
                n_pre: 16,
                ..OnlineTuning::default()
            }),
        )
        .unwrap()
        .with_l(10);
        let par = ParallelExperimentRunner::new().run_bss(&vals, &bss, 10, 5);
        let seq = run_bss_experiment(&vals, &bss, 10, 5);
        assert_eq!(par.instances, seq.instances);
    }

    #[test]
    fn jobs_cap_does_not_change_results() {
        let vals = lumpy(20_000);
        let s = SystematicSampler::new(50);
        let all = ParallelExperimentRunner::new().run(&vals, &s, 9, 3);
        for jobs in [1usize, 2, 3, 8] {
            let capped = ParallelExperimentRunner::new()
                .with_jobs(jobs)
                .run(&vals, &s, 9, 3);
            assert_eq!(capped.instances, all.instances, "jobs={jobs}");
        }
    }

    #[test]
    fn rate_sweep_matches_per_rate_runs() {
        let vals = lumpy(40_000);
        let rates = [0.02, 0.01, 0.005];
        let runner = ParallelExperimentRunner::new();
        let sweep = runner.run_rate_sweep(
            &vals,
            &rates,
            |r| Box::new(SystematicSampler::new((1.0 / r).round() as usize)),
            |r| if r < 0.01 { 4 } else { 8 },
            11,
        );
        assert_eq!(sweep.len(), rates.len());
        for (res, &r) in sweep.iter().zip(&rates) {
            let c = (1.0 / r).round() as usize;
            let inst = if r < 0.01 { 4 } else { 8 };
            let seq = run_experiment(&vals, &SystematicSampler::new(c), inst, 11);
            assert_eq!(res.instances, seq.instances, "rate={r}");
            assert_eq!(res.rate, seq.rate);
        }
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        ParallelExperimentRunner::new().run(&[], &SystematicSampler::new(4), 2, 0);
    }

    #[test]
    fn chunking_policy_thresholds() {
        // One worker, one item, or sub-threshold total work: inline.
        assert_eq!(chunking_for(30, 1 << 17, 1), Chunking::Sequential);
        assert_eq!(chunking_for(1, 1 << 22, 8), Chunking::Sequential);
        assert_eq!(
            chunking_for(3, 1 << 16, 8),
            Chunking::Sequential,
            "a ~200k-element sweep cannot fill two minimum-work tasks"
        );
        // Large items: fairness spreads the sweep across the workers.
        let big = chunking_for(30, 1 << 17, 8);
        assert_eq!(big, Chunking::Chunked { chunk: 4 });
        // Huge items: one item already clears the bar, fairness caps the
        // task count at the worker count.
        let huge = chunking_for(64, 1 << 22, 8);
        assert_eq!(huge, Chunking::Chunked { chunk: 8 });
        // Tiny items in a long sweep: chunks batch many items so every
        // task still clears the per-task minimum.
        match chunking_for(100_000, 100, 4) {
            Chunking::Chunked { chunk } => assert!(chunk as u64 * 100 >= MIN_TASK_ELEMS),
            seq => panic!("expected chunked, got {seq:?}"),
        }
    }

    #[test]
    fn chunked_and_sequential_paths_are_byte_equal_across_threshold() {
        // Straddle the minimum-work threshold from both sides with the
        // same sampler/seed; all strategies must agree bit for bit.
        let s = SimpleRandomSampler::new(0.02);
        for n in [6usize, 40] {
            let vals = lumpy(1 << 17);
            let seq = run_experiment(&vals, &s, n, 9);
            for jobs in [1usize, 2, 5, 16] {
                let par = ParallelExperimentRunner::new()
                    .with_jobs(jobs)
                    .run(&vals, &s, n, 9);
                assert_eq!(par.instances, seq.instances, "n={n} jobs={jobs}");
            }
        }
    }

    #[test]
    fn rate_sweep_chunked_matches_per_rate_runs_on_large_sweeps() {
        // A sweep big enough to trigger chunked fan-out must still be
        // byte-identical to the sequential per-rate reference.
        let vals = lumpy(1 << 16);
        let rates = [0.05, 0.02, 0.01, 0.005, 0.002];
        let sweep = ParallelExperimentRunner::new().with_jobs(4).run_rate_sweep(
            &vals,
            &rates,
            |r| Box::new(StratifiedSampler::new((1.0 / r).round() as usize)),
            |_| 16,
            21,
        );
        for (res, &r) in sweep.iter().zip(&rates) {
            let c = (1.0 / r).round() as usize;
            let seq = run_experiment(&vals, &StratifiedSampler::new(c), 16, 21);
            assert_eq!(res.instances, seq.instances, "rate={r}");
        }
    }
}
