//! Real-valued FFT plans.
//!
//! A real signal's spectrum is Hermitian (`X[n−k] = conj(X[k])`), so a
//! complex FFT wastes half its arithmetic and half its memory on
//! redundant bins. [`RealFftPlan`] exploits the symmetry with the
//! classic half-size trick: an `n`-point real transform is computed as
//! one `n/2`-point **complex** FFT over the even/odd interleaving, plus
//! an `O(n)` split/merge twiddle pass — roughly halving the dominant
//! FFT cost. The Davies-Harte fGn synthesis in `sst-traffic` is the
//! main consumer: its circulant spectrum is Hermitian by construction,
//! so the whole Monte-Carlo hot path runs through [`RealFftPlan::c2r`].
//!
//! Conventions (matching `fftw`/`numpy.fft.rfft`):
//!
//! * [`RealFftPlan::r2c`]: `X[k] = Σ_t x[t]·e^{−2πikt/n}` for
//!   `k = 0..=n/2` — the non-redundant half-spectrum of `n/2 + 1` bins.
//! * [`RealFftPlan::c2r`]: the normalized inverse,
//!   `x[t] = (1/n)·Σ_k X_full[k]·e^{+2πikt/n}` over the Hermitian
//!   extension of the half-spectrum, so `c2r(r2c(x)) == x` up to
//!   round-off. Bins `0` and `n/2` are treated as purely real (their
//!   imaginary parts are ignored, as in FFTW).
//!
//! Power-of-two lengths run the half-size fast path **in place and
//! allocation-free** (the caller's spectrum buffer doubles as the
//! complex work area). Other lengths fall back to the full complex
//! transform (Bluestein for non-powers of two) so every `n ≥ 1` works;
//! the fallback allocates internally and is meant for correctness, not
//! the hot path.

use crate::complex::Complex;
use crate::fft::is_power_of_two;
use crate::plan::{bluestein_for, lru_fetch, plan_for, BluesteinPlan, BluesteinScratch, FftPlan};
use std::sync::{Arc, Mutex, OnceLock};

/// How a [`RealFftPlan`] executes for its length.
#[derive(Clone, Debug)]
enum Backend {
    /// `n == 1`: the transform is the identity.
    Trivial,
    /// Power-of-two `n ≥ 2`: half-size complex FFT + twiddle merge.
    Half {
        /// Complex plan for length `n/2`.
        half: Arc<FftPlan>,
        /// `tw[k] = e^{−2πik/n}` for `k = 0..=n/4`, the only bins the
        /// outside-in split/merge loops read (forward sign; the inverse
        /// pass uses the exact conjugate).
        twiddles: Vec<Complex>,
    },
    /// Arbitrary `n`: full complex transform via Bluestein.
    Bluestein(Arc<BluesteinPlan>),
}

/// A reusable real-to-complex / complex-to-real FFT plan for one length.
///
/// # Examples
///
/// ```
/// use sst_sigproc::rfft::RealFftPlan;
/// use sst_sigproc::Complex;
///
/// let plan = RealFftPlan::new(8);
/// let x: Vec<f64> = (0..8).map(|i| (i as f64).cos()).collect();
/// let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
/// plan.r2c(&x, &mut spec);
/// let mut back = vec![0.0; 8];
/// plan.c2r(&mut spec, &mut back);
/// for (a, b) in x.iter().zip(&back) {
///     assert!((a - b).abs() < 1e-12);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct RealFftPlan {
    n: usize,
    backend: Backend,
}

impl RealFftPlan {
    /// Builds a plan for real length `n ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "real fft length must be >= 1");
        let backend = if n == 1 {
            Backend::Trivial
        } else if is_power_of_two(n) {
            let half = plan_for(n / 2);
            let twiddles = (0..=n / 4)
                .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
                .collect();
            Backend::Half { half, twiddles }
        } else {
            Backend::Bluestein(bluestein_for(n))
        };
        RealFftPlan { n, backend }
    }

    /// The real transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan transforms zero-length signals (never true;
    /// plans require `n ≥ 1`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Length of the packed half-spectrum: `n/2 + 1`.
    pub fn spectrum_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Forward real-to-complex transform: writes the non-redundant
    /// half-spectrum (`n/2 + 1` bins) of `input` into `spec`.
    ///
    /// The power-of-two path is allocation-free: `spec` doubles as the
    /// half-size complex work buffer.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.len()` or
    /// `spec.len() != self.spectrum_len()`.
    pub fn r2c(&self, input: &[f64], spec: &mut [Complex]) {
        assert_eq!(input.len(), self.n, "input length does not match plan");
        assert_eq!(
            spec.len(),
            self.spectrum_len(),
            "spectrum length must be n/2 + 1"
        );
        match &self.backend {
            Backend::Trivial => {
                spec[0] = Complex::from_real(input[0]);
            }
            Backend::Half { half, twiddles } => {
                let half_n = self.n / 2;
                // Pack even/odd samples into the complex work area.
                for (t, slot) in spec.iter_mut().take(half_n).enumerate() {
                    *slot = Complex::new(input[2 * t], input[2 * t + 1]);
                }
                half.forward(&mut spec[..half_n]);
                // Split pass: with Z = FFT(even + i·odd),
                //   E[k] = (Z[k] + conj(Z[N−k]))/2   (spectrum of evens)
                //   O[k] = (Z[k] − conj(Z[N−k]))/(2i) (spectrum of odds)
                //   X[k]      = E[k] + tw[k]·O[k]
                //   X[N−k]    = conj(E[k] − tw[k]·O[k])
                // processed pairwise in place from the outside in.
                let z0 = spec[0];
                spec[0] = Complex::from_real(z0.re + z0.im);
                spec[half_n] = Complex::from_real(z0.re - z0.im);
                for k in 1..=half_n / 2 {
                    let a = spec[k];
                    let b = spec[half_n - k].conj();
                    let even = (a + b).scale(0.5);
                    let odd = (a - b).scale(0.5); // = tw-free (Z[k]−conj(Z[N−k]))/2
                                                  // tw[k]·O[k] = tw[k]·odd/i = −i·tw[k]·odd.
                    let t = (Complex::new(odd.im, -odd.re)) * twiddles[k];
                    let xk = even + t;
                    let xnk = (even - t).conj();
                    spec[k] = xk;
                    spec[half_n - k] = xnk;
                }
            }
            Backend::Bluestein(plan) => {
                let buf: Vec<Complex> = input.iter().map(|&x| Complex::from_real(x)).collect();
                let mut scratch = BluesteinScratch::default();
                let full = plan.transform(&buf, false, &mut scratch);
                spec.copy_from_slice(&full[..self.spectrum_len()]);
            }
        }
    }

    /// Normalized inverse complex-to-real transform: reconstructs the
    /// `n` real samples whose half-spectrum is `spec`, so
    /// `c2r(r2c(x)) == x` up to round-off. Destroys `spec` (it is the
    /// in-place work buffer on the power-of-two path).
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != self.spectrum_len()` or
    /// `out.len() != self.len()`.
    pub fn c2r(&self, spec: &mut [Complex], out: &mut [f64]) {
        assert_eq!(out.len(), self.n, "output length does not match plan");
        self.c2r_prefix(spec, out);
    }

    /// Like [`RealFftPlan::c2r`] but writes only the first `out.len()`
    /// samples (`out.len() ≤ n`) — the Davies-Harte generator embeds an
    /// `n`-point trace in a `2N`-point circulant and only needs the
    /// prefix, so this skips the dead unpacking work.
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != self.spectrum_len()` or
    /// `out.len() > self.len()`.
    pub fn c2r_prefix(&self, spec: &mut [Complex], out: &mut [f64]) {
        assert_eq!(
            spec.len(),
            self.spectrum_len(),
            "spectrum length must be n/2 + 1"
        );
        assert!(out.len() <= self.n, "prefix length exceeds the plan length");
        match &self.backend {
            Backend::Trivial => {
                if let Some(slot) = out.first_mut() {
                    *slot = spec[0].re;
                }
            }
            Backend::Half { half, twiddles } => {
                let half_n = self.n / 2;
                // Merge pass, exact inverse of the r2c split: recover
                //   E[k] = (X[k] + conj(X[N−k]))/2
                //   O[k] = conj(tw[k])·(X[k] − conj(X[N−k]))/2
                //   Z[k] = E[k] + i·O[k],  Z[N−k] = conj(E[k] − i·O[k])
                // Bins 0 and N are treated as purely real.
                let x0 = spec[0].re;
                let xn = spec[half_n].re;
                spec[0] = Complex::new((x0 + xn) * 0.5, (x0 - xn) * 0.5);
                for k in 1..=half_n / 2 {
                    let a = spec[k];
                    let b = spec[half_n - k].conj();
                    let even = (a + b).scale(0.5);
                    let diff = (a - b).scale(0.5);
                    let o = diff * twiddles[k].conj();
                    // Z[k] = even + i·o; Z[N−k] = conj(even − i·o).
                    let io = Complex::new(-o.im, o.re);
                    let zk = even + io;
                    let znk = (even - io).conj();
                    spec[k] = zk;
                    spec[half_n - k] = znk;
                }
                half.inverse(&mut spec[..half_n]);
                // Unpack the interleaving: z[t] = x[2t] + i·x[2t+1].
                let tail = out.len() / 2;
                let mut pairs = out.chunks_exact_mut(2);
                for (t, pair) in (&mut pairs).enumerate() {
                    pair[0] = spec[t].re;
                    pair[1] = spec[t].im;
                }
                if let Some(slot) = pairs.into_remainder().first_mut() {
                    *slot = spec[tail].re;
                }
            }
            Backend::Bluestein(plan) => {
                // Hermitian extension, then the full complex inverse.
                let full = self.hermitian_extend(spec);
                let mut scratch = BluesteinScratch::default();
                let inv = plan.transform(&full, true, &mut scratch);
                let scale = 1.0 / self.n as f64;
                for (slot, z) in out.iter_mut().zip(&inv) {
                    *slot = z.re * scale;
                }
            }
        }
    }

    /// Expands a packed half-spectrum into the full `n`-bin Hermitian
    /// spectrum (`full[n−k] = conj(full[k])`), applying the same
    /// conventions as [`RealFftPlan::c2r`]: bins `0` and `n/2` are
    /// treated as purely real. This is the single definition of the
    /// packing convention — tests and benches that need the full
    /// spectrum go through it rather than re-rolling the expansion.
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != self.spectrum_len()`.
    pub fn hermitian_extend(&self, spec: &[Complex]) -> Vec<Complex> {
        assert_eq!(
            spec.len(),
            self.spectrum_len(),
            "spectrum length must be n/2 + 1"
        );
        let mut full = vec![Complex::ZERO; self.n];
        full[0] = Complex::from_real(spec[0].re);
        for k in 1..self.spectrum_len() {
            if 2 * k == self.n {
                full[k] = Complex::from_real(spec[k].re);
            } else {
                full[k] = spec[k];
                full[self.n - k] = spec[k].conj();
            }
        }
        full
    }
}

/// Process-wide cache capacity for real plans (distinct lengths kept).
const REAL_PLAN_CACHE_CAP: usize = 16;

/// Returns the shared real-FFT plan for length `n`, building and caching
/// it on first use (same poison-safe LRU machinery as
/// [`crate::plan::plan_for`]).
///
/// # Panics
///
/// Panics if `n == 0` (before touching the cache).
pub fn real_plan_for(n: usize) -> Arc<RealFftPlan> {
    assert!(n >= 1, "real fft length must be >= 1");
    static CACHE: OnceLock<Mutex<Vec<Arc<RealFftPlan>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let result: Result<_, std::convert::Infallible> = lru_fetch(
        cache,
        REAL_PLAN_CACHE_CAP,
        |p| p.len() == n,
        || Ok(RealFftPlan::new(n)),
    );
    result.expect("infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft;

    fn wave(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.7).sin() + 0.25 * (i as f64 * 2.3).cos() - 0.1)
            .collect()
    }

    fn reference_spectrum(x: &[f64]) -> Vec<Complex> {
        fft::rfft(x).into_iter().take(x.len() / 2 + 1).collect()
    }

    #[test]
    fn r2c_matches_complex_fft_across_sizes() {
        for &n in &[1usize, 2, 4, 8, 64, 100, 257, 1024, 1 << 13] {
            let plan = RealFftPlan::new(n);
            let x = wave(n);
            let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
            plan.r2c(&x, &mut spec);
            let want = reference_spectrum(&x);
            for (k, (g, w)) in spec.iter().zip(&want).enumerate() {
                assert!(
                    (*g - *w).abs() < 1e-9 * (n as f64).max(1.0),
                    "n={n} k={k} got={g:?} want={w:?}"
                );
            }
        }
    }

    #[test]
    fn c2r_matches_complex_ifft_on_hermitian_spectra() {
        for &n in &[2usize, 4, 8, 100, 256, 1024, 1 << 13] {
            let plan = RealFftPlan::new(n);
            // Build a Hermitian spectrum from a real signal.
            let x = wave(n);
            let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
            plan.r2c(&x, &mut spec);
            let full = plan.hermitian_extend(&spec);
            let want: Vec<f64> = fft::ifft(&full).into_iter().map(|z| z.re).collect();
            let mut got = vec![0.0; n];
            plan.c2r(&mut spec, &mut got);
            for (t, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() < 1e-9, "n={n} t={t} got={g} want={w}");
            }
        }
    }

    #[test]
    fn round_trip_is_identity() {
        for &n in &[1usize, 2, 4, 6, 8, 31, 100, 4096] {
            let plan = RealFftPlan::new(n);
            let x = wave(n);
            let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
            plan.r2c(&x, &mut spec);
            let mut back = vec![0.0; n];
            plan.c2r(&mut spec, &mut back);
            for (t, (a, b)) in x.iter().zip(&back).enumerate() {
                assert!((a - b).abs() < 1e-10, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn c2r_prefix_matches_full_inverse() {
        let n = 512;
        let plan = RealFftPlan::new(n);
        let x = wave(n);
        let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
        plan.r2c(&x, &mut spec);
        let spec2 = spec.clone();
        let mut full = vec![0.0; n];
        plan.c2r(&mut spec, &mut full);
        // Odd and even prefix lengths both hit the tail handling.
        for &len in &[0usize, 1, 7, 128, 511] {
            let mut prefix = vec![0.0; len];
            let mut s = spec2.clone();
            plan.c2r_prefix(&mut s, &mut prefix);
            assert_eq!(prefix, full[..len], "len={len}");
        }
    }

    #[test]
    fn parseval_on_half_spectrum() {
        let n = 1024;
        let plan = RealFftPlan::new(n);
        let x = wave(n);
        let mut spec = vec![Complex::ZERO; plan.spectrum_len()];
        plan.r2c(&x, &mut spec);
        let time: f64 = x.iter().map(|v| v * v).sum();
        // Interior bins count twice (their mirror images are implied).
        let mut freq = spec[0].norm_sqr() + spec[n / 2].norm_sqr();
        for z in &spec[1..n / 2] {
            freq += 2.0 * z.norm_sqr();
        }
        freq /= n as f64;
        assert!((time - freq).abs() < 1e-8 * time.max(1.0));
    }

    #[test]
    fn trivial_length_one() {
        let plan = RealFftPlan::new(1);
        let mut spec = vec![Complex::ZERO; 1];
        plan.r2c(&[3.25], &mut spec);
        assert_eq!(spec[0], Complex::from_real(3.25));
        let mut out = [0.0];
        plan.c2r(&mut spec, &mut out);
        assert_eq!(out[0], 3.25);
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn rejects_zero_length() {
        RealFftPlan::new(0);
    }

    #[test]
    #[should_panic(expected = "does not match plan")]
    fn rejects_wrong_input_length() {
        let plan = RealFftPlan::new(8);
        let mut spec = vec![Complex::ZERO; 5];
        plan.r2c(&[0.0; 4], &mut spec);
    }

    #[test]
    fn shared_cache_returns_same_plan() {
        let a = real_plan_for(256);
        let b = real_plan_for(256);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 256);
        assert_eq!(a.spectrum_len(), 129);
    }
}
