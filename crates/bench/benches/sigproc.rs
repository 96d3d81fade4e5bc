//! Criterion benches: the signal-processing primitives behind the fGn
//! hot path.
//!
//! * `rfft` — the real-transform layer (`r2c`/`c2r` through a half-size
//!   complex FFT) against the full complex transforms they replace, on
//!   the circulant size the 65 536-point Davies-Harte synthesis uses.
//! * `gaussian` — ziggurat vs Box-Muller standard-normal draws (the fGn
//!   generator consumes `2N` per Monte-Carlo instance), and the raw
//!   `StdRng::next_u64` words both are built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::RngCore;
use sst_sigproc::complex::Complex;
use sst_sigproc::plan::FftPlan;
use sst_sigproc::rfft::RealFftPlan;
use sst_stats::dist::{standard_normal, standard_normal_boxmuller};
use sst_stats::rng::rng_from_seed;

fn bench_rfft(c: &mut Criterion) {
    let mut g = c.benchmark_group("rfft");
    // The Davies-Harte circulant for a 2^16-point trace is 2^17 long.
    for n in [1usize << 15, 1 << 17] {
        g.throughput(Throughput::Elements(n as u64));
        let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin()).collect();

        let real = RealFftPlan::new(n);
        let mut half_spec = vec![Complex::ZERO; real.spectrum_len()];
        g.bench_with_input(BenchmarkId::new("r2c", n), &n, |b, _| {
            b.iter(|| {
                real.r2c(&signal, &mut half_spec);
                half_spec[1]
            });
        });

        let full = FftPlan::new(n);
        let packed: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
        let mut full_spec = packed.clone();
        g.bench_with_input(BenchmarkId::new("complex_fft", n), &n, |b, _| {
            b.iter(|| {
                full_spec.copy_from_slice(&packed);
                full.forward(&mut full_spec);
                full_spec[1]
            });
        });

        // Inverse direction: a Hermitian spectrum back to real samples.
        let mut herm = vec![Complex::ZERO; real.spectrum_len()];
        real.r2c(&signal, &mut herm);
        let mut spec_work = herm.clone();
        let mut out = vec![0.0; n];
        g.bench_with_input(BenchmarkId::new("c2r", n), &n, |b, _| {
            b.iter(|| {
                spec_work.copy_from_slice(&herm);
                real.c2r(&mut spec_work, &mut out);
                out[1]
            });
        });

        let herm_full = real.hermitian_extend(&herm);
        let mut inv_work = herm_full.clone();
        g.bench_with_input(BenchmarkId::new("complex_ifft", n), &n, |b, _| {
            b.iter(|| {
                inv_work.copy_from_slice(&herm_full);
                full.inverse(&mut inv_work);
                inv_work[1]
            });
        });
    }
    g.finish();
}

fn bench_gaussian(c: &mut Criterion) {
    const DRAWS: usize = 1 << 20;
    let mut g = c.benchmark_group("gaussian");
    g.throughput(Throughput::Elements(DRAWS as u64));
    g.bench_function(BenchmarkId::new("ziggurat", DRAWS), |b| {
        let mut rng = rng_from_seed(42);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..DRAWS {
                acc += standard_normal(&mut rng);
            }
            acc
        });
    });
    g.bench_function(BenchmarkId::new("boxmuller", DRAWS), |b| {
        let mut rng = rng_from_seed(42);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..DRAWS {
                acc += standard_normal_boxmuller(&mut rng);
            }
            acc
        });
    });
    g.bench_function(BenchmarkId::new("stdrng_next_u64", DRAWS), |b| {
        let mut rng = rng_from_seed(42);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..DRAWS {
                acc ^= rng.next_u64();
            }
            acc
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_rfft, bench_gaussian
}
criterion_main!(benches);
