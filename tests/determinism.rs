//! Determinism contracts for the performance pipeline: the planned /
//! cached / parallel fast paths must be **byte-identical** to the
//! sequential reference algorithms — speed must never change results.

use selfsim::sampling::bss::{BssSampler, OnlineTuning, ThresholdPolicy};
use selfsim::sampling::{
    run_bss_experiment, run_experiment, ExperimentResult, ParallelExperimentRunner, Sampler,
    SimpleRandomSampler, StratifiedSampler, SystematicSampler,
};
use selfsim::sigproc::complex::Complex;
use selfsim::sigproc::fft::{fft_pow2_in_place, next_pow2};
use selfsim::stats::dist::{standard_normal, standard_normal_boxmuller};
use selfsim::stats::model::FgnAcf;
use selfsim::stats::rng::rng_from_seed;
use selfsim::traffic::fgn::{FgnPlan, FgnScratch};
use selfsim::traffic::{FgnGenerator, SyntheticTraceSpec};

/// The original (pre-plan) Davies-Harte generation algorithm, kept
/// verbatim as the reference: derives the circulant eigenvalue spectrum
/// from scratch on every call with Box-Muller Gaussians (the seed's
/// `standard_normal`, now exported as `standard_normal_boxmuller`).
fn reference_davies_harte(hurst: f64, n: usize, seed: u64) -> Vec<f64> {
    assert!(n >= 1);
    if n == 1 {
        let mut rng = rng_from_seed(seed);
        return vec![standard_normal_boxmuller(&mut rng)];
    }
    let big_n = next_pow2(n);
    let m = 2 * big_n;
    let acf = FgnAcf::new(hurst);
    let mut row = vec![Complex::ZERO; m];
    for (k, slot) in row.iter_mut().enumerate().take(big_n + 1) {
        *slot = Complex::from_real(acf.at(k as u64));
    }
    for k in 1..big_n {
        row[m - k] = Complex::from_real(acf.at(k as u64));
    }
    fft_pow2_in_place(&mut row);
    let lambda: Vec<f64> = row.iter().map(|z| z.re.max(0.0)).collect();

    let mut rng = rng_from_seed(seed);
    let mut spec = vec![Complex::ZERO; m];
    spec[0] = Complex::from_real((lambda[0]).sqrt() * standard_normal_boxmuller(&mut rng));
    spec[big_n] = Complex::from_real((lambda[big_n]).sqrt() * standard_normal_boxmuller(&mut rng));
    for k in 1..big_n {
        let g = standard_normal_boxmuller(&mut rng);
        let h = standard_normal_boxmuller(&mut rng);
        let amp = (lambda[k] / 2.0).sqrt();
        spec[k] = Complex::new(amp * g, amp * h);
        spec[m - k] = spec[k].conj();
    }
    fft_pow2_in_place(&mut spec);
    let norm = 1.0 / (m as f64).sqrt();
    spec.into_iter().take(n).map(|z| z.re * norm).collect()
}

/// The fast half-spectrum path, re-derived independently: the same
/// ziggurat draws placed in the full Hermitian spectrum and inverted
/// with the full complex FFT. The production path factors the transform
/// differently (half-size complex FFT + twiddle merge), so agreement is
/// to round-off (≤1e-9), not bit-exact.
fn reference_davies_harte_ziggurat(hurst: f64, n: usize, seed: u64) -> Vec<f64> {
    assert!(n >= 1);
    if n == 1 {
        let mut rng = rng_from_seed(seed);
        return vec![standard_normal(&mut rng)];
    }
    let big_n = next_pow2(n);
    let m = 2 * big_n;
    let acf = FgnAcf::new(hurst);
    let mut row = vec![Complex::ZERO; m];
    for (k, slot) in row.iter_mut().enumerate().take(big_n + 1) {
        *slot = Complex::from_real(acf.at(k as u64));
    }
    for k in 1..big_n {
        row[m - k] = Complex::from_real(acf.at(k as u64));
    }
    fft_pow2_in_place(&mut row);
    let lambda: Vec<f64> = row.iter().map(|z| z.re.max(0.0)).collect();

    let mut rng = rng_from_seed(seed);
    let mut spec = vec![Complex::ZERO; m];
    spec[0] = Complex::from_real((lambda[0]).sqrt() * standard_normal(&mut rng));
    spec[big_n] = Complex::from_real((lambda[big_n]).sqrt() * standard_normal(&mut rng));
    for k in 1..big_n {
        let g = standard_normal(&mut rng);
        let h = standard_normal(&mut rng);
        let amp = (lambda[k] / 2.0).sqrt();
        spec[k] = Complex::new(amp * g, amp * h);
        spec[m - k] = spec[k].conj();
    }
    fft_pow2_in_place(&mut spec);
    let norm = 1.0 / (m as f64).sqrt();
    spec.into_iter().take(n).map(|z| z.re * norm).collect()
}

#[test]
fn fgn_legacy_paths_are_bit_identical_to_reference() {
    // Several (H, n, seed) triples spanning short/long, pow2/non-pow2.
    let cases = [
        (0.55f64, 64usize, 0u64),
        (0.7, 100, 1),
        (0.8, 1 << 12, 42),
        (0.8, 1 << 12, 43),
        (0.92, 1023, 2024),
        (0.6, 1, 7),
    ];
    let mut out = Vec::new();
    let mut scratch = FgnScratch::default();
    for &(h, n, seed) in &cases {
        let want = reference_davies_harte(h, n, seed);
        // Fresh plan, legacy buffer-reuse entry point: must reproduce
        // the seed algorithm bit for bit.
        let plan = FgnPlan::new(h, n).expect("valid");
        plan.generate_values_into_legacy(seed, &mut out, &mut scratch);
        assert_eq!(out, want, "legacy plan: H={h} n={n} seed={seed}");
        assert_eq!(
            plan.generate_values_legacy(seed),
            want,
            "legacy alloc: H={h} n={n} seed={seed}"
        );
    }
}

#[test]
fn fgn_fast_paths_match_full_spectrum_reference() {
    let cases = [
        (0.55f64, 64usize, 0u64),
        (0.7, 100, 1),
        (0.8, 1 << 12, 42),
        (0.92, 1023, 2024),
        (0.6, 1, 7),
    ];
    let mut out = Vec::new();
    let mut scratch = FgnScratch::default();
    for &(h, n, seed) in &cases {
        let want = reference_davies_harte_ziggurat(h, n, seed);
        let max_err = |got: &[f64]| {
            got.iter()
                .zip(&want)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
        };
        // Path 1: fresh plan, buffer-reuse entry point.
        let plan = FgnPlan::new(h, n).expect("valid");
        plan.generate_values_into(seed, &mut out, &mut scratch);
        let err = max_err(&out);
        assert!(err <= 1e-9, "fresh plan: H={h} n={n} seed={seed} err={err}");
        // Path 2: the generator facade, which goes through the shared
        // process-wide LRU cache — must be bit-identical to the fresh
        // plan (the cache introduces no numeric drift).
        let cached = FgnGenerator::new(h)
            .expect("valid")
            .generate_values(n, seed);
        assert_eq!(cached, out, "cached plan: H={h} n={n} seed={seed}");
        // Path 3: cache hit on a second call (exercises the LRU reorder).
        let cached_again = FgnGenerator::new(h)
            .expect("valid")
            .generate_values(n, seed);
        assert_eq!(cached_again, out, "cache hit: H={h} n={n} seed={seed}");
    }
}

#[test]
fn synthetic_builds_are_stable_across_cache_states() {
    // The builder's output must not depend on whether the plan cache is
    // cold, warm, or was evicted in between.
    let spec = SyntheticTraceSpec::new().length(1 << 10).hurst(0.8).seed(5);
    let first = spec.build();
    // Thrash the LRU with other (H, n) pairs.
    for i in 0..12u64 {
        let h = 0.6 + 0.02 * i as f64;
        let _ = FgnGenerator::new(h)
            .unwrap()
            .generate_values(128 + i as usize, i);
    }
    assert_eq!(first, spec.build());
}

#[test]
fn parallel_experiment_is_byte_equal_to_sequential() {
    let trace = SyntheticTraceSpec::new().length(1 << 14).seed(77).build();
    let vals = trace.values();
    let samplers: Vec<Box<dyn Sampler + Send + Sync>> = vec![
        Box::new(SystematicSampler::new(64)),
        Box::new(StratifiedSampler::new(64)),
        Box::new(SimpleRandomSampler::new(0.02)),
    ];
    for s in &samplers {
        for &(instances, seed) in &[(1usize, 0u64), (8, 3), (30, 12345)] {
            let seq = run_experiment(vals, s.as_ref(), instances, seed);
            for jobs in [1usize, 3, 16] {
                let par = ParallelExperimentRunner::new().with_jobs(jobs).run(
                    vals,
                    s.as_ref(),
                    instances,
                    seed,
                );
                assert_eq!(
                    par.instances,
                    seq.instances,
                    "{} instances={instances} seed={seed} jobs={jobs}",
                    s.name()
                );
                assert_eq!(par.true_mean.to_bits(), seq.true_mean.to_bits());
            }
        }
    }
}

#[test]
fn parallel_bss_experiment_is_byte_equal_to_sequential() {
    let trace = SyntheticTraceSpec::new().length(1 << 14).seed(9).build();
    let vals = trace.values();
    let bss =
        BssSampler::new(200, ThresholdPolicy::Online(OnlineTuning::default())).expect("valid");
    let seq = run_bss_experiment(vals, &bss, 12, 4);
    let par = ParallelExperimentRunner::new().run_bss(vals, &bss, 12, 4);
    assert_eq!(par.instances, seq.instances);
    assert_eq!(par.sampler, seq.sampler);
}

/// 64-bit FNV-1a over the little-endian bits of `values`.
fn fnv1a_f64(values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn fgn_bits_match_pinned_digests() {
    // FNV-1a digests of `FgnPlan::generate_values` and of a
    // Gaussian-marginal `SyntheticTraceSpec::build`, per (H, n, seed).
    // They were recorded before the plan dropped its amplitude and
    // complex-FFT tables and before Gaussians went straight into the
    // half spectrum. Any change to the draw order, the amplitudes or
    // the transform moves them; the fast-path test above only checks
    // to 1e-9.
    const PINS: [(f64, usize, u64, u64, u64); 4] = [
        (
            0.8,
            1 << 17,
            101,
            0x2d0a_c9a9_10d0_ed6a,
            0x3303_8c75_31cc_6207,
        ),
        (0.7, 1000, 7, 0x4c86_771d_c28f_e370, 0xf5b3_ae0f_1e6e_a293),
        (
            0.92,
            4096,
            4242,
            0xafc7_f23d_5c60_f406,
            0x4048_8c1a_ff7a_086e,
        ),
        (0.6, 1, 3, 0xf179_3eb6_17d0_6470, 0x8626_4f0c_91cb_fe38),
    ];
    for (h, n, seed, fgn_pin, build_pin) in PINS {
        let fgn = fnv1a_f64(&FgnPlan::new(h, n).expect("valid").generate_values(seed));
        let build = SyntheticTraceSpec::new()
            .length(n)
            .hurst(h)
            .gaussian_marginal(5.68, 1.5)
            .seed(seed)
            .build();
        let build = fnv1a_f64(build.values());
        assert_eq!(fgn, fgn_pin, "fGn: H={h} n={n} seed={seed}");
        assert_eq!(build, build_pin, "build: H={h} n={n} seed={seed}");
    }
}

/// 64-bit FNV-1a over every field of each `InstanceResult`, in order.
fn fnv1a_instances<'a>(results: impl IntoIterator<Item = &'a ExperimentResult>) -> u64 {
    results
        .into_iter()
        .flat_map(|r| &r.instances)
        .flat_map(|i| [i.mean.to_bits(), i.n_samples as u64, i.n_qualified as u64])
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn sampler_instance_bits_match_pinned_digests() {
    // FNV-1a digests of the per-instance results of the sequential
    // experiments (three classic samplers and online BSS) and of a
    // two-worker rate sweep, over the paper's synthetic rate grid, on a
    // Gaussian-marginal trace. 100 003 is a multiple of no interval on
    // the grid, so stratified sampling's final partial bucket is
    // covered. Recorded before experiments stopped building a `Samples`
    // per instance; any change to the selection, the draw order or the
    // summation order moves them.
    const PINS: [(usize, u64, u64, u64); 2] = [
        (1 << 17, 101, 0x065a_50d8_8586_8ec4, 0x0a79_8c6d_a83e_6901),
        (100_003, 7, 0x00c9_2278_9873_bbe7, 0x5495_42ce_7a09_383f),
    ];
    let rates: Vec<f64> = (2..9)
        .map(|i| 10f64.powf(-5.0 + 0.5 * f64::from(i)))
        .collect();
    let interval = |r: f64| (1.0 / r).round() as usize;
    let online = ThresholdPolicy::Online(OnlineTuning {
        epsilon: 1.0,
        alpha: 1.5,
        ..OnlineTuning::default()
    });
    for (n, seed, experiment_pin, sweep_pin) in PINS {
        let trace = SyntheticTraceSpec::new()
            .length(n)
            .hurst(0.8)
            .gaussian_marginal(10.0, 2.0)
            .seed(seed)
            .build();
        let vals = trace.values();
        let mut experiments = Vec::new();
        for &r in &rates {
            let c = interval(r);
            let per_c = 9.min(c);
            experiments.push(run_experiment(
                vals,
                &SystematicSampler::new(c),
                per_c,
                seed,
            ));
            experiments.push(run_experiment(
                vals,
                &StratifiedSampler::new(c),
                per_c,
                seed,
            ));
            experiments.push(run_experiment(vals, &SimpleRandomSampler::new(r), 9, seed));
            let bss = BssSampler::new(c, online).expect("valid");
            experiments.push(run_bss_experiment(vals, &bss, per_c, seed));
        }
        let runner = ParallelExperimentRunner::new().with_jobs(2);
        let mut sweeps = Vec::new();
        sweeps.extend(runner.run_rate_sweep(
            vals,
            &rates,
            |r| Box::new(SystematicSampler::new(interval(r))),
            |r| 9.min(interval(r)),
            seed,
        ));
        sweeps.extend(runner.run_rate_sweep(
            vals,
            &rates,
            |r| Box::new(StratifiedSampler::new(interval(r))),
            |r| 9.min(interval(r)),
            seed,
        ));
        sweeps.extend(runner.run_rate_sweep(
            vals,
            &rates,
            |r| Box::new(SimpleRandomSampler::new(r)),
            |_| 9,
            seed,
        ));
        let got = (fnv1a_instances(&experiments), fnv1a_instances(&sweeps));
        assert_eq!(
            got,
            (experiment_pin, sweep_pin),
            "n={n} seed={seed}: {:#018x} {:#018x}",
            got.0,
            got.1
        );
    }
}
