//! Probability distributions used by the traffic models and the BSS
//! analysis: the heavy-tailed Pareto family front and center, plus the
//! light-tailed comparators the paper contrasts against (Eq. 19 vs 20).

use rand::Rng;
use serde::{Deserialize, Serialize};
use sst_sigproc::special::ln_choose;

/// A continuous distribution that can be sampled and interrogated
/// analytically.
///
/// Implementations are plain data (`Copy`) and deliberately small; the
/// trait is object-safe so generators can hold `Box<dyn Distribution>`.
pub trait Distribution: std::fmt::Debug {
    /// Draws one sample using the supplied RNG.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64;
    /// Analytic mean; `f64::INFINITY` when it diverges.
    fn mean(&self) -> f64;
    /// Analytic variance; `f64::INFINITY` when it diverges.
    fn variance(&self) -> f64;
    /// Complementary CDF `P(X > x)`.
    fn ccdf(&self, x: f64) -> f64;
    /// Quantile function (inverse CDF) for `p ∈ (0, 1)`.
    fn quantile(&self, p: f64) -> f64;
}

/// Pareto distribution: `P(X > x) = (k/x)^α` for `x ≥ k`.
///
/// The paper's workhorse: on/off period lengths, traffic marginals, and
/// 1-burst lengths are all modeled Pareto with shape `α ∈ (1, 2)` (finite
/// mean, infinite variance — the regime where the law of large numbers is
/// too slow for unbiased sampling to work).
///
/// # Examples
///
/// ```
/// use sst_stats::dist::{Distribution, Pareto};
/// let p = Pareto::new(1.5, 2.0);
/// assert_eq!(p.mean(), 6.0);                 // kα/(α-1)
/// assert!(p.variance().is_infinite());        // α < 2
/// assert!((p.ccdf(4.0) - (0.5f64).powf(1.5)).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Pareto {
    alpha: f64,
    scale: f64,
}

impl Pareto {
    /// Creates a Pareto distribution with shape `alpha` and scale (minimum
    /// value) `scale`.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha > 0` and `scale > 0`.
    pub fn new(alpha: f64, scale: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "shape must be positive, got {alpha}"
        );
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be positive, got {scale}"
        );
        Pareto { alpha, scale }
    }

    /// Pareto with the given shape whose analytic mean equals `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 1` (the mean diverges there) or `mean <= 0`.
    pub fn with_mean(alpha: f64, mean: f64) -> Self {
        assert!(alpha > 1.0, "mean is infinite for alpha <= 1");
        assert!(mean > 0.0, "mean must be positive");
        Pareto::new(alpha, mean * (alpha - 1.0) / alpha)
    }

    /// Shape parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Scale parameter k (the smallest attainable value, the paper's ℓ).
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        // Inverse transform on the CCDF: X = k · U^(-1/α).
        let u: f64 = loop {
            let u = rng.gen::<f64>();
            if u > 0.0 {
                break u;
            }
        };
        self.scale * u.powf(-1.0 / self.alpha)
    }

    fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.scale * self.alpha / (self.alpha - 1.0)
        }
    }

    fn variance(&self) -> f64 {
        if self.alpha <= 2.0 {
            f64::INFINITY
        } else {
            let a = self.alpha;
            self.scale * self.scale * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))
        }
    }

    fn ccdf(&self, x: f64) -> f64 {
        if x <= self.scale {
            1.0
        } else {
            (self.scale / x).powf(self.alpha)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1)");
        self.scale * (1.0 - p).powf(-1.0 / self.alpha)
    }
}

/// Pareto truncated above at `cap`: heavy-tailed body with a hard upper
/// bound, used where physical limits (link speed) bound burst sizes.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BoundedPareto {
    alpha: f64,
    lo: f64,
    hi: f64,
}

impl BoundedPareto {
    /// Creates a Pareto on `[lo, hi]` with shape `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi` and `alpha > 0`.
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Self {
        assert!(alpha > 0.0, "shape must be positive");
        assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
        BoundedPareto { alpha, lo, hi }
    }
}

impl Distribution for BoundedPareto {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let u: f64 = rng.gen();
        let la = self.lo.powf(-self.alpha);
        let ha = self.hi.powf(-self.alpha);
        (la - u * (la - ha)).powf(-1.0 / self.alpha)
    }

    fn mean(&self) -> f64 {
        let a = self.alpha;
        let (l, h) = (self.lo, self.hi);
        if (a - 1.0).abs() < 1e-12 {
            // α = 1: E[X] = ln(h/l) / (1/l − 1/h).
            return (h / l).ln() / (1.0 / l - 1.0 / h);
        }
        let num = a * (l.powf(1.0 - a) - h.powf(1.0 - a));
        let den = (a - 1.0) * (l.powf(-a) - h.powf(-a));
        num / den
    }

    fn variance(&self) -> f64 {
        // E[X²] − mean² via the truncated moment formula.
        let a = self.alpha;
        let (l, h) = (self.lo, self.hi);
        let norm = l.powf(-a) - h.powf(-a);
        let ex2 = if (a - 2.0).abs() < 1e-12 {
            2.0 * (h.ln() - l.ln()) / norm
        } else {
            a * (l.powf(2.0 - a) - h.powf(2.0 - a)) / ((a - 2.0) * norm)
        };
        ex2 - self.mean() * self.mean()
    }

    fn ccdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            1.0
        } else if x >= self.hi {
            0.0
        } else {
            let la = self.lo.powf(-self.alpha);
            let ha = self.hi.powf(-self.alpha);
            (x.powf(-self.alpha) - ha) / (la - ha)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0);
        let la = self.lo.powf(-self.alpha);
        let ha = self.hi.powf(-self.alpha);
        (la - p * (la - ha)).powf(-1.0 / self.alpha)
    }
}

/// Exponential distribution with the given rate λ — the light-tailed
/// benchmark in the burst-persistence analysis (Eq. 19).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `rate` (mean `1/rate`).
    ///
    /// # Panics
    ///
    /// Panics unless `rate > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Exponential { rate }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let u: f64 = loop {
            let u = rng.gen::<f64>();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / self.rate
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }

    fn ccdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-self.rate * x).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0);
        -(1.0 - p).ln() / self.rate
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct UniformDist {
    lo: f64,
    hi: f64,
}

impl UniformDist {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "need lo < hi");
        UniformDist { lo, hi }
    }
}

impl Distribution for UniformDist {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.lo + (self.hi - self.lo) * rng.gen::<f64>()
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }

    fn ccdf(&self, x: f64) -> f64 {
        if x < self.lo {
            1.0
        } else if x >= self.hi {
            0.0
        } else {
            (self.hi - x) / (self.hi - self.lo)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0);
        self.lo + p * (self.hi - self.lo)
    }
}

/// Log-normal distribution (ln X ~ N(μ, σ²)): moderately-heavy-tailed
/// comparator for flow sizes.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with log-mean `mu` and log-stddev `sigma`.
    ///
    /// # Panics
    ///
    /// Panics unless `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite(), "sigma must be positive");
        LogNormal { mu, sigma }
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }

    fn ccdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            1.0 - sst_sigproc::special::normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0);
        (self.mu + self.sigma * sst_sigproc::special::normal_quantile(p)).exp()
    }
}

/// Weibull distribution with shape `k` and scale `λ`; sub-exponential for
/// `k < 1`, used in generator cross-checks.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && scale > 0.0, "parameters must be positive");
        Weibull { shape, scale }
    }
}

impl Distribution for Weibull {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        let u: f64 = loop {
            let u = rng.gen::<f64>();
            if u > 0.0 {
                break u;
            }
        };
        self.scale * (-u.ln()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> f64 {
        self.scale * gamma_fn(1.0 + 1.0 / self.shape)
    }

    fn variance(&self) -> f64 {
        let g2 = gamma_fn(1.0 + 2.0 / self.shape);
        let g1 = gamma_fn(1.0 + 1.0 / self.shape);
        self.scale * self.scale * (g2 - g1 * g1)
    }

    fn ccdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-(x / self.scale).powf(self.shape)).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0);
        self.scale * (-(1.0 - p).ln()).powf(1.0 / self.shape)
    }
}

fn gamma_fn(x: f64) -> f64 {
    sst_sigproc::special::ln_gamma(x).exp()
}

/// Draws a Poisson(λ) count — Knuth's product method for small λ and a
/// split into halves for large λ (keeping the product method's exactness
/// without underflow).
///
/// # Panics
///
/// Panics if `lambda` is negative or not finite.
pub fn poisson(rng: &mut dyn rand::RngCore, lambda: f64) -> u64 {
    assert!(
        lambda >= 0.0 && lambda.is_finite(),
        "lambda must be non-negative finite"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        // Split: Poisson(λ) = Poisson(λ/2) + Poisson(λ/2) (independent).
        let half = lambda / 2.0;
        return poisson(rng, half) + poisson(rng, half);
    }
    let limit = (-lambda).exp();
    let mut product = 1.0f64;
    let mut count = 0u64;
    loop {
        product *= rng.gen::<f64>();
        if product <= limit {
            return count;
        }
        count += 1;
    }
}

/// Draws a standard normal — the workspace's default Gaussian source,
/// backed by the 256-layer ziggurat
/// ([`crate::ziggurat::standard_normal_ziggurat`]): ~one RNG word, one
/// multiply, and one compare per draw in the common case, versus the
/// `ln`/`sqrt`/`cos` chain Box-Muller pays on every draw.
///
/// Generic over the generator so the hot Monte-Carlo loops (the fGn
/// spectral synthesis draws `2N` of these per instance) monomorphize and
/// inline the RNG instead of paying virtual calls per draw; `?Sized`
/// keeps `&mut dyn RngCore` callers working.
///
/// The ziggurat is distribution-exact but consumes a different RNG
/// stream than the historical Box-Muller implementation,
/// [`standard_normal_boxmuller`].
pub fn standard_normal<R: rand::RngCore + ?Sized>(rng: &mut R) -> f64 {
    crate::ziggurat::standard_normal_ziggurat(rng)
}

/// Draws a standard normal via Box-Muller (polar-free, uses two
/// uniforms) — the workspace's historical Gaussian path, kept as the
/// baseline the `gaussian/boxmuller` benchmark row times the ziggurat
/// against. New code should prefer [`standard_normal`].
pub fn standard_normal_boxmuller<R: rand::RngCore + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = loop {
        let u = rng.gen::<f64>();
        if u > 1e-300 {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Log-pmf of the paper's Eq. (9): `P(a = τ + i)` is negative binomial,
/// `C(τ+i-1, i) ρ^τ (1-ρ)^i` — the distribution of the original-process
/// lag corresponding to a sampled-process lag of `τ` under simple random
/// sampling with rate `ρ`.
///
/// Evaluated in log space because `C(τ+i-1, i)` overflows `f64` far below
/// the lags the paper plots (τ up to 2⁹).
///
/// # Panics
///
/// Panics unless `0 < rho < 1` and `tau >= 1`.
pub fn neg_binomial_ln_pmf(tau: u64, i: u64, rho: f64) -> f64 {
    assert!(rho > 0.0 && rho < 1.0, "rho must be in (0,1)");
    assert!(tau >= 1, "tau must be >= 1");
    ln_choose((tau + i - 1) as f64, i as f64) + tau as f64 * rho.ln() + i as f64 * (1.0 - rho).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_mean<D: Distribution>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn pareto_moments() {
        let p = Pareto::new(2.5, 1.0);
        assert!((p.mean() - 2.5 / 1.5).abs() < 1e-12);
        assert!(p.variance().is_finite());
        let heavy = Pareto::new(1.5, 1.0);
        assert!(heavy.variance().is_infinite());
        let very_heavy = Pareto::new(0.9, 1.0);
        assert!(very_heavy.mean().is_infinite());
    }

    #[test]
    fn pareto_with_mean_round_trips() {
        let p = Pareto::with_mean(1.5, 5.68);
        assert!((p.mean() - 5.68).abs() < 1e-12);
        assert!((p.scale() - 5.68 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pareto_quantile_inverts_ccdf() {
        let p = Pareto::new(1.71, 3.0);
        for &q in &[0.1, 0.5, 0.9, 0.99] {
            let x = p.quantile(q);
            assert!((p.ccdf(x) - (1.0 - q)).abs() < 1e-12);
        }
    }

    #[test]
    fn pareto_sample_mean_converges_when_finite() {
        // α=2.5 has finite variance, so the LLN is fast.
        let p = Pareto::new(2.5, 1.0);
        let m = sample_mean(&p, 200_000, 42);
        assert!((m - p.mean()).abs() / p.mean() < 0.02, "m={m}");
    }

    #[test]
    fn pareto_samples_respect_scale() {
        let p = Pareto::new(1.2, 7.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!(p.sample(&mut rng) >= 7.0);
        }
    }

    #[test]
    fn bounded_pareto_stays_in_range() {
        let b = BoundedPareto::new(1.3, 1.0, 100.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = b.sample(&mut rng);
            assert!((1.0..=100.0).contains(&x));
        }
        assert!(b.mean() > 1.0 && b.mean() < 100.0);
        assert!(b.variance() > 0.0);
    }

    #[test]
    fn bounded_pareto_ccdf_endpoints() {
        let b = BoundedPareto::new(1.5, 2.0, 50.0);
        assert_eq!(b.ccdf(1.0), 1.0);
        assert_eq!(b.ccdf(60.0), 0.0);
        let mid = b.ccdf(10.0);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn exponential_moments_and_memoryless_ccdf() {
        let e = Exponential::new(0.5);
        assert_eq!(e.mean(), 2.0);
        assert_eq!(e.variance(), 4.0);
        assert!((e.ccdf(2.0) - (-1.0f64).exp()).abs() < 1e-12);
        let m = sample_mean(&e, 100_000, 3);
        assert!((m - 2.0).abs() < 0.05);
    }

    #[test]
    fn uniform_moments() {
        let u = UniformDist::new(2.0, 6.0);
        assert_eq!(u.mean(), 4.0);
        assert!((u.variance() - 16.0 / 12.0).abs() < 1e-12);
        assert_eq!(u.ccdf(4.0), 0.5);
    }

    #[test]
    fn lognormal_mean_matches_formula() {
        let ln = LogNormal::new(0.0, 0.5);
        let m = sample_mean(&ln, 200_000, 11);
        assert!((m - ln.mean()).abs() / ln.mean() < 0.02);
    }

    #[test]
    fn weibull_exponential_special_case() {
        // k=1 reduces to Exponential(1/λ).
        let w = Weibull::new(1.0, 2.0);
        assert!((w.mean() - 2.0).abs() < 1e-9);
        assert!((w.ccdf(2.0) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| x * x).sum::<f64>() / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
    }

    #[test]
    fn poisson_moments() {
        let mut rng = StdRng::seed_from_u64(17);
        for &lambda in &[0.5, 4.0, 25.0, 120.0] {
            let n = 50_000;
            let xs: Vec<f64> = (0..n).map(|_| poisson(&mut rng, lambda) as f64).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() < 0.05 * lambda.max(1.0),
                "λ={lambda} mean={mean}"
            );
            assert!(
                (var - lambda).abs() < 0.1 * lambda.max(1.0),
                "λ={lambda} var={var}"
            );
        }
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn neg_binomial_pmf_sums_to_one() {
        let rho = 0.3;
        let tau = 5;
        let total: f64 = (0..2000)
            .map(|i| neg_binomial_ln_pmf(tau, i, rho).exp())
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
    }

    #[test]
    fn neg_binomial_matches_geometric_at_tau_one() {
        // τ=1: P(i) = ρ(1-ρ)^i.
        let rho = 0.25f64;
        for i in 0..20u64 {
            let want = (rho * (1.0 - rho).powi(i as i32)).ln();
            assert!((neg_binomial_ln_pmf(1, i, rho) - want).abs() < 1e-10);
        }
    }

    #[test]
    fn distributions_are_object_safe() {
        let dists: Vec<Box<dyn Distribution>> = vec![
            Box::new(Pareto::new(1.5, 1.0)),
            Box::new(Exponential::new(1.0)),
            Box::new(UniformDist::new(0.0, 1.0)),
        ];
        let mut rng = StdRng::seed_from_u64(0);
        for d in &dists {
            let x = d.sample(&mut rng);
            assert!(x.is_finite());
        }
    }
}
