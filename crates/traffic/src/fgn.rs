//! Exact fractional Gaussian noise via Davies-Harte circulant embedding.
//!
//! fGn is the increment process of fractional Brownian motion; it is the
//! canonical Gaussian self-similar process with Hurst parameter `H` and
//! the backbone of the synthetic traces here: the Gaussian-copula
//! transform ([`crate::copula`]) maps it onto any marginal while keeping
//! its long-range dependence, matching the two properties the paper's
//! synthetic ns-2 traffic was built to have.
//!
//! Davies-Harte embeds the n×n Toeplitz covariance of fGn into a 2N×2N
//! circulant whose eigenvalues are the FFT of the first row; for the fGn
//! ACF those eigenvalues are provably non-negative, so the method is exact
//! (the output has *exactly* the target covariance, not asymptotically).

use sst_sigproc::complex::Complex;
use sst_sigproc::fft::next_pow2;
use sst_sigproc::plan::{lru_fetch, FftPlan};
use sst_sigproc::rfft::{real_plan_for, RealFftPlan};
use sst_stats::dist::standard_normal;
use sst_stats::model::FgnAcf;
use sst_stats::rng::rng_from_seed;
use sst_stats::TimeSeries;
use std::sync::{Arc, Mutex, OnceLock};

/// Generator of exact fractional Gaussian noise.
///
/// # Examples
///
/// ```
/// use sst_traffic::fgn::FgnGenerator;
/// let fgn = FgnGenerator::new(0.8).expect("valid H");
/// let ts = fgn.generate(4096, 42);
/// assert_eq!(ts.len(), 4096);
/// // Standard-normal marginals: mean ≈ 0, variance ≈ 1.
/// assert!(ts.mean().abs() < 0.15);
/// ```
#[derive(Clone, Debug)]
pub struct FgnGenerator {
    hurst: f64,
}

/// Error for invalid generator parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidParameterError {
    what: &'static str,
}

impl std::fmt::Display for InvalidParameterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid generator parameter: {}", self.what)
    }
}

impl std::error::Error for InvalidParameterError {}

impl InvalidParameterError {
    pub(crate) fn new(what: &'static str) -> Self {
        InvalidParameterError { what }
    }
}

impl FgnGenerator {
    /// Creates a generator for Hurst parameter `h ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns an error if `h` is outside `(0, 1)`.
    pub fn new(h: f64) -> Result<Self, InvalidParameterError> {
        if !(h > 0.0 && h < 1.0) {
            return Err(InvalidParameterError {
                what: "Hurst parameter must be in (0,1)",
            });
        }
        Ok(FgnGenerator { hurst: h })
    }

    /// The Hurst parameter.
    pub fn hurst(&self) -> f64 {
        self.hurst
    }

    /// Generates `n` points of unit-variance fGn with bin width 1.0,
    /// deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn generate(&self, n: usize, seed: u64) -> TimeSeries {
        TimeSeries::from_values(1.0, self.generate_values(n, seed))
    }

    /// Raw-value variant of [`FgnGenerator::generate`].
    ///
    /// Internally fetches the shared [`FgnPlan`] for `(H, n)` from the
    /// process-wide cache, so repeated calls (across instance seeds, the
    /// Monte-Carlo hot path) compute the circulant eigenvalue spectrum
    /// once, and runs the Hermitian half-spectrum synthesis (ziggurat
    /// Gaussians + real inverse FFT). Output is bit-identical to a
    /// freshly built plan.
    pub fn generate_values(&self, n: usize, seed: u64) -> Vec<f64> {
        assert!(n >= 1, "cannot generate an empty trace");
        FgnPlan::cached(self.hurst, n)
            .expect("Hurst validated at construction")
            .generate_values(seed)
    }

    /// Generates fractional Brownian motion (the running sum of fGn),
    /// starting at 0.
    pub fn generate_fbm(&self, n: usize, seed: u64) -> TimeSeries {
        let fgn = self.generate_values(n, seed);
        let mut acc = 0.0;
        let fbm: Vec<f64> = fgn
            .into_iter()
            .map(|x| {
                acc += x;
                acc
            })
            .collect();
        TimeSeries::from_values(1.0, fbm)
    }
}

/// Reusable scratch for [`FgnPlan::generate_values_into`]: the packed
/// `N+1`-bin half-spectrum the Gaussians are drawn into and the inverse
/// transform runs on, so per-instance generation performs no allocation
/// after the first call.
#[derive(Clone, Debug, Default)]
pub struct FgnScratch {
    spec: Vec<Complex>,
}

/// A precomputed Davies-Harte generation plan for one `(H, n)` pair.
///
/// Construction performs the expensive, seed-independent work once: the
/// fGn autocovariance row, its FFT (the circulant eigenvalues
/// `λ(H, n)`), the clamp, and the per-bin amplitudes. The plan then
/// keeps only what [`FgnPlan::generate_values_into`] reads: the
/// amplitudes (with the transform's scale folded in) and the shared
/// half-size real-FFT plan, about 36·N bytes for `N = next_pow2(n)`.
/// The complex plan that computed the eigenvalues is dropped after
/// construction.
///
/// Each instance needs `2N` ziggurat Gaussian draws plus one
/// **half-size** inverse real FFT: the circulant spectrum is Hermitian
/// by construction, so only the `N+1` non-redundant bins are drawn,
/// straight into the packed half-spectrum buffer, and inverted through
/// [`sst_sigproc::rfft::RealFftPlan::c2r_prefix`].
///
/// The path is validated against the full-spectrum complex transform
/// of the same draws to ≤1e-9 and is distribution-exact.
///
/// # Examples
///
/// ```
/// use sst_traffic::fgn::{FgnPlan, FgnScratch};
///
/// let plan = FgnPlan::new(0.8, 4096).expect("valid H");
/// let mut out = Vec::new();
/// let mut scratch = FgnScratch::default();
/// for seed in 0..4 {
///     plan.generate_values_into(seed, &mut out, &mut scratch);
///     assert_eq!(out.len(), 4096);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct FgnPlan {
    hurst: f64,
    n: usize,
    big_n: usize,
    /// The amplitudes of [`amplitudes`] with the output normalization
    /// `1/√m` and the inverse-transform scale `m` folded in
    /// (`amp[k]·√m`), so the packed half-spectrum needs no
    /// post-scaling pass.
    half_amp: Vec<f64>,
    rfft: Arc<RealFftPlan>,
}

/// The Davies-Harte per-bin amplitudes for Hurst parameter `h` and
/// embedding half-size `big_n`: `amp[0] = √λ₀`, `amp[N] = √λ_N` and
/// `amp[k] = √(λ_k/2)` otherwise, where `λ` is the FFT (through `fft`,
/// a plan for `m = 2N`) of the circulant's first row.
fn amplitudes(h: f64, big_n: usize, fft: &FftPlan) -> Vec<f64> {
    let m = 2 * big_n;
    // First row of the circulant: ρ(0..=N), then mirrored ρ(N-1..=1).
    let acf = FgnAcf::new(h);
    let mut row = vec![Complex::ZERO; m];
    for (k, slot) in row.iter_mut().enumerate().take(big_n + 1) {
        *slot = Complex::from_real(acf.at(k as u64));
    }
    for k in 1..big_n {
        row[m - k] = Complex::from_real(acf.at(k as u64));
    }
    fft.forward(&mut row);
    // Eigenvalues are real and non-negative for the fGn ACF; tiny
    // negative round-off is clamped.
    let mut amp = Vec::with_capacity(big_n + 1);
    amp.push(row[0].re.max(0.0).sqrt());
    for z in row.iter().take(big_n).skip(1) {
        amp.push((z.re.max(0.0) / 2.0).sqrt());
    }
    amp.push(row[big_n].re.max(0.0).sqrt());
    amp
}

impl FgnPlan {
    /// Builds the plan for Hurst parameter `h ∈ (0, 1)` and length
    /// `n ≥ 1`, deriving the circulant eigenvalue spectrum once.
    ///
    /// # Errors
    ///
    /// Returns an error if `h` is outside `(0, 1)` or `n == 0`.
    pub fn new(h: f64, n: usize) -> Result<Self, InvalidParameterError> {
        if !(h > 0.0 && h < 1.0) {
            return Err(InvalidParameterError {
                what: "Hurst parameter must be in (0,1)",
            });
        }
        if n == 0 {
            return Err(InvalidParameterError {
                what: "trace length must be >= 1",
            });
        }
        if n == 1 {
            // Degenerate single-point plan: one standard normal draw.
            return Ok(FgnPlan {
                hurst: h,
                n,
                big_n: 0,
                half_amp: Vec::new(),
                rfft: real_plan_for(1),
            });
        }
        let big_n = next_pow2(n);
        let m = 2 * big_n;
        // A transient complex plan, not the `plan_for` cache, so its
        // 40·N bytes are freed as soon as the eigenvalues are known.
        let mut half_amp = amplitudes(h, big_n, &FftPlan::new(m));
        // The normalized inverse real transform divides by m while the
        // target output carries 1/√m, so the packed bins are pre-scaled
        // by m/√m = √m.
        let sqrt_m = (m as f64).sqrt();
        for a in &mut half_amp {
            *a *= sqrt_m;
        }
        Ok(FgnPlan {
            hurst: h,
            n,
            big_n,
            half_amp,
            rfft: real_plan_for(m),
        })
    }

    /// Fetches the shared plan for `(h, n)` from the process-wide LRU
    /// cache (keyed on the exact bits of `h` plus `n`), building it on
    /// first use.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FgnPlan::new`].
    pub fn cached(h: f64, n: usize) -> Result<Arc<FgnPlan>, InvalidParameterError> {
        const CACHE_CAP: usize = 8;
        static CACHE: OnceLock<Mutex<Vec<Arc<FgnPlan>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
        lru_fetch(
            cache,
            CACHE_CAP,
            |p| p.hurst.to_bits() == h.to_bits() && p.n == n,
            || FgnPlan::new(h, n),
        )
    }

    /// The Hurst parameter.
    pub fn hurst(&self) -> f64 {
        self.hurst
    }

    /// The trace length this plan generates.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan generates zero-length traces (never true; plans
    /// require `n ≥ 1`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Generates one instance into `out`, reusing `scratch` — zero
    /// allocation after the buffers have grown once.
    ///
    /// This is the fast path: ziggurat Gaussians drawn directly into
    /// the packed `N+1`-bin half-spectrum, inverted with a half-size
    /// real FFT ([`sst_sigproc::rfft::RealFftPlan::c2r_prefix`]). The
    /// draws go to bin 0, bin N, then the interior `(g, h)` pairs, in
    /// that order, and the imaginary parts are negated as
    /// they are stored so the packed buffer holds `conj(S)` — the
    /// inverse transform of the conjugate spectrum equals the forward
    /// transform of `S`, which is what Davies-Harte prescribes.
    pub fn generate_values_into(&self, seed: u64, out: &mut Vec<f64>, scratch: &mut FgnScratch) {
        let mut rng = rng_from_seed(seed);
        if self.n == 1 {
            out.clear();
            out.push(standard_normal(&mut rng));
            return;
        }
        let big_n = self.big_n;
        let amp = &self.half_amp;
        // No clear() first: every slot in [0, N] is overwritten below,
        // so resize alone (a no-op at steady state) avoids a dead
        // zero-fill of the whole buffer on each call.
        let spec = &mut scratch.spec;
        spec.resize(big_n + 1, Complex::ZERO);
        spec[0] = Complex::from_real(amp[0] * standard_normal(&mut rng));
        spec[big_n] = Complex::from_real(amp[big_n] * standard_normal(&mut rng));
        for (slot, &a) in spec[1..big_n].iter_mut().zip(&amp[1..big_n]) {
            let g = standard_normal(&mut rng);
            let h = standard_normal(&mut rng);
            *slot = Complex::new(a * g, -(a * h));
        }
        out.clear();
        out.resize(self.n, 0.0);
        self.rfft.c2r_prefix(spec, out);
    }

    /// Allocating variant of [`FgnPlan::generate_values_into`].
    pub fn generate_values(&self, seed: u64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut scratch = FgnScratch::default();
        self.generate_values_into(seed, &mut out, &mut scratch);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_sigproc::conv::autocorrelation;

    #[test]
    fn output_length_and_determinism() {
        let g = FgnGenerator::new(0.75).unwrap();
        let a = g.generate_values(1000, 5);
        let b = g.generate_values(1000, 5);
        assert_eq!(a.len(), 1000);
        assert_eq!(a, b);
        let c = g.generate_values(1000, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn rejects_bad_hurst() {
        assert!(FgnGenerator::new(0.0).is_err());
        assert!(FgnGenerator::new(1.0).is_err());
        assert!(FgnGenerator::new(-0.5).is_err());
        assert!(FgnGenerator::new(f64::NAN).is_err());
    }

    #[test]
    fn unit_variance_and_zero_mean() {
        let g = FgnGenerator::new(0.8).unwrap();
        let ts = g.generate(1 << 16, 11);
        assert!(ts.mean().abs() < 0.1, "mean={}", ts.mean());
        assert!((ts.variance() - 1.0).abs() < 0.15, "var={}", ts.variance());
    }

    #[test]
    fn sample_acf_matches_exact_acf() {
        let h = 0.8;
        let g = FgnGenerator::new(h).unwrap();
        let vals = g.generate_values(1 << 17, 3);
        let sample = autocorrelation(&vals, 8);
        let exact = FgnAcf::new(h);
        for k in 1..=8u64 {
            let want = exact.at(k);
            let got = sample[k as usize];
            assert!((got - want).abs() < 0.05, "lag {k}: got {got}, want {want}");
        }
    }

    #[test]
    fn white_noise_case_has_no_correlation() {
        let g = FgnGenerator::new(0.5).unwrap();
        let vals = g.generate_values(1 << 15, 9);
        let sample = autocorrelation(&vals, 4);
        for (k, rho) in sample.iter().enumerate().skip(1) {
            assert!(rho.abs() < 0.03, "lag {k}: {rho}");
        }
    }

    #[test]
    fn aggregated_variance_scales_like_self_similar() {
        // var(f^(m)) ≈ m^{2H-2} for fGn.
        let h = 0.8;
        let g = FgnGenerator::new(h).unwrap();
        let ts = g.generate(1 << 18, 21);
        let v1 = ts.variance();
        let v64 = ts.aggregate(64).variance();
        let implied_h = 1.0 + ((v64 / v1).ln() / 64f64.ln()) / 2.0;
        assert!((implied_h - h).abs() < 0.05, "implied H = {implied_h}");
    }

    #[test]
    fn fbm_is_cumulative_sum() {
        let g = FgnGenerator::new(0.7).unwrap();
        let fgn = g.generate_values(100, 4);
        let fbm = g.generate_fbm(100, 4);
        let mut acc = 0.0;
        for (i, &x) in fgn.iter().enumerate() {
            acc += x;
            assert!((fbm.values()[i] - acc).abs() < 1e-12);
        }
    }

    #[test]
    fn single_point_trace() {
        let g = FgnGenerator::new(0.6).unwrap();
        assert_eq!(g.generate_values(1, 0).len(), 1);
    }

    #[test]
    fn non_power_of_two_lengths() {
        let g = FgnGenerator::new(0.65).unwrap();
        for n in [3usize, 100, 1023, 1025] {
            assert_eq!(g.generate_values(n, 1).len(), n);
        }
    }

    #[test]
    fn plan_is_bit_identical_to_generator_across_seeds() {
        for &(h, n) in &[(0.55f64, 100usize), (0.8, 1024), (0.92, 777), (0.7, 1)] {
            let plan = FgnPlan::new(h, n).unwrap();
            let g = FgnGenerator::new(h).unwrap();
            let mut out = Vec::new();
            let mut scratch = FgnScratch::default();
            for seed in [0u64, 1, 42, 9999] {
                plan.generate_values_into(seed, &mut out, &mut scratch);
                // The generator goes through the shared cache; the plan
                // here is freshly built. Bit-equality proves the cache
                // introduces no numeric drift.
                assert_eq!(out, g.generate_values(n, seed), "H={h} n={n} seed={seed}");
            }
        }
    }

    /// The fast half-spectrum path against the full-spectrum complex
    /// transform fed with the *same* ziggurat draws: identical
    /// mathematics through a different FFT factorization, so the two
    /// must agree to round-off (≤1e-9), not merely in distribution.
    #[test]
    fn fast_path_matches_full_spectrum_reference() {
        use sst_sigproc::fft::fft_pow2_in_place;
        for &(h, n) in &[
            (0.55f64, 64usize),
            (0.8, 1000),
            (0.8, 4096),
            (0.92, 1 << 14),
        ] {
            let plan = FgnPlan::new(h, n).unwrap();
            let big_n = plan.big_n;
            let m = 2 * big_n;
            let amp = amplitudes(h, big_n, &FftPlan::new(m));
            for seed in [0u64, 7, 123] {
                // Reference: full Hermitian spectrum + complex FFT,
                // same RNG stream and amplitude tables as the plan.
                let mut rng = rng_from_seed(seed);
                let mut spec = vec![Complex::ZERO; m];
                spec[0] = Complex::from_real(amp[0] * standard_normal(&mut rng));
                spec[big_n] = Complex::from_real(amp[big_n] * standard_normal(&mut rng));
                for k in 1..big_n {
                    let g = standard_normal(&mut rng);
                    let hh = standard_normal(&mut rng);
                    spec[k] = Complex::new(amp[k] * g, amp[k] * hh);
                    spec[m - k] = spec[k].conj();
                }
                fft_pow2_in_place(&mut spec);
                let norm = 1.0 / (m as f64).sqrt();
                let want: Vec<f64> = spec.iter().take(n).map(|z| z.re * norm).collect();
                let got = plan.generate_values(seed);
                let err = got
                    .iter()
                    .zip(&want)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                assert!(err <= 1e-9, "H={h} n={n} seed={seed}: max err {err}");
            }
        }
    }

    #[test]
    fn cached_plans_are_shared_and_keyed_exactly() {
        let a = FgnPlan::cached(0.8, 2048).unwrap();
        let b = FgnPlan::cached(0.8, 2048).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same (H, n) must hit the cache");
        let c = FgnPlan::cached(0.8, 4096).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(FgnPlan::cached(1.5, 64).is_err());
        assert!(FgnPlan::cached(0.8, 0).is_err());
    }

    #[test]
    fn scratch_reuse_is_stable_across_lengths() {
        // One scratch serving plans of different sizes must not leak
        // state between instances.
        let small = FgnPlan::new(0.75, 64).unwrap();
        let large = FgnPlan::new(0.75, 4096).unwrap();
        let mut out = Vec::new();
        let mut scratch = FgnScratch::default();
        large.generate_values_into(7, &mut out, &mut scratch);
        small.generate_values_into(7, &mut out, &mut scratch);
        assert_eq!(out, small.generate_values(7));
    }
}
