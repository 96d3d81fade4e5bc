//! Ziggurat sampler for the standard normal distribution.
//!
//! The Davies-Harte fGn generator draws `2N` Gaussians per Monte-Carlo
//! instance, and with the FFT cost halved by the real-transform layer
//! the Box-Muller `ln`/`sqrt`/`cos` chain became the next-largest cost
//! in the hot path. This module implements the Marsaglia-Tsang ziggurat
//! (256 layers): the common case (~98.5% of draws) costs one 64-bit RNG
//! word, one table lookup, one multiply, and one compare — no
//! transcendentals.
//!
//! The layer tables are built once per process (a few hundred `ln`/
//! `sqrt` calls) from the classic 256-layer constants `R` and `V`, and
//! shared through a `OnceLock`.
//!
//! The sampler is *distribution-exact* (the accept/reject structure
//! introduces no approximation), but it consumes a different RNG stream
//! than Box-Muller, so a given seed yields different — equally Gaussian
//! — values. Box-Muller remains available as
//! [`crate::dist::standard_normal_boxmuller`], the benchmark baseline.

use rand::{Rng, RngCore};
use std::sync::OnceLock;

/// Number of ziggurat layers.
const LAYERS: usize = 256;

/// Right-most layer boundary for the 256-layer normal ziggurat.
const R: f64 = 3.654_152_885_361_009;

/// Common layer area (including the tail) for the 256-layer normal
/// ziggurat.
const V: f64 = 0.00492867323399141;

/// Unnormalized standard-normal density `e^{−x²/2}`.
#[inline]
fn pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Precomputed layer tables: `x[i]` are the layer right edges
/// (decreasing, `x[256] = 0`), `f[i] = pdf(x[i])`.
struct Tables {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; LAYERS + 1];
        let mut f = [0.0; LAYERS + 1];
        // Layer 0 is the base strip whose area includes the unbounded
        // tail: its *effective* width is V / pdf(R) > R, which makes
        // the tail rejection probability come out exactly right.
        x[0] = V / pdf(R);
        x[1] = R;
        for i in 1..LAYERS {
            // Equal-area recurrence: x_{i+1} = f⁻¹(V/x_i + f(x_i)).
            let y = V / x[i] + pdf(x[i]);
            x[i + 1] = if i == LAYERS - 1 {
                0.0
            } else {
                (-2.0 * y.ln()).sqrt()
            };
        }
        for i in 0..=LAYERS {
            f[i] = pdf(x[i]);
        }
        Tables { x, f }
    })
}

/// Draws a standard normal via the 256-layer ziggurat.
///
/// Generic over the generator so hot Monte-Carlo loops monomorphize and
/// inline the RNG; `?Sized` keeps `&mut dyn RngCore` callers working.
pub fn standard_normal_ziggurat<R2: RngCore + ?Sized>(rng: &mut R2) -> f64 {
    draw(tables(), rng)
}

/// One ziggurat draw against prefetched tables.
#[inline]
fn draw<R2: RngCore + ?Sized>(t: &Tables, rng: &mut R2) -> f64 {
    loop {
        // One 64-bit word carries the layer index (8 bits) and a
        // 53-bit uniform mantissa, folded to a symmetric u ∈ (−1, 1).
        let bits = rng.next_u64();
        let i = (bits & 0xFF) as usize;
        let frac = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let u = 2.0 * frac - 1.0;
        let x = u * t.x[i];
        if x.abs() < t.x[i + 1] {
            // Wholly inside the layer below: accept with no further work.
            return x;
        }
        if i == 0 {
            // Base layer: the overhang is the unbounded tail beyond R.
            // Marsaglia's exact tail method: X = R + e where
            // e ~ Exp folded against the Gaussian tail.
            loop {
                let u1: f64 = loop {
                    let v = rng.gen::<f64>();
                    if v > 0.0 {
                        break v;
                    }
                };
                let u2: f64 = loop {
                    let v = rng.gen::<f64>();
                    if v > 0.0 {
                        break v;
                    }
                };
                let ex = -u1.ln() / R;
                let ey = -u2.ln();
                if ey + ey >= ex * ex {
                    let mag = R + ex;
                    return if u < 0.0 { -mag } else { mag };
                }
            }
        }
        // Wedge between x[i+1] and x[i]: exact accept/reject against
        // the density.
        let between = t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.gen::<f64>();
        if between < pdf(x) {
            return x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn layer_edges_are_strictly_decreasing_to_zero() {
        let t = tables();
        assert!((t.x[1] - R).abs() < 1e-15);
        assert!(t.x[0] > t.x[1], "virtual base edge exceeds R");
        for i in 1..LAYERS {
            assert!(t.x[i] > t.x[i + 1], "layer {i}");
        }
        assert_eq!(t.x[LAYERS], 0.0);
        assert_eq!(t.f[LAYERS], 1.0);
    }

    #[test]
    fn layers_have_equal_area() {
        // Strip i (1 ≤ i < 256) has area x[i]·(f(x[i+1]) − f(x[i])) = V.
        let t = tables();
        for i in 1..LAYERS - 1 {
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!((area - V).abs() < 1e-12, "layer {i}: area {area}");
        }
        // Base strip: rectangle R·f(R) plus the tail mass √(2π)·Q(R).
        let tail =
            (2.0 * std::f64::consts::PI).sqrt() * (1.0 - sst_sigproc::special::normal_cdf(R));
        let base = R * pdf(R) + tail;
        assert!((base - V).abs() < 1e-9, "base area {base}");
    }

    #[test]
    fn moments_match_standard_normal() {
        let mut rng = rng_from_seed(12);
        let n = 400_000;
        let (mut m1, mut m2, mut m3, mut m4) = (0.0, 0.0, 0.0, 0.0);
        for _ in 0..n {
            let x = standard_normal_ziggurat(&mut rng);
            m1 += x;
            m2 += x * x;
            m3 += x * x * x;
            m4 += x * x * x * x;
        }
        let nf = n as f64;
        assert!((m1 / nf).abs() < 0.01, "mean={}", m1 / nf);
        assert!((m2 / nf - 1.0).abs() < 0.02, "var={}", m2 / nf);
        assert!((m3 / nf).abs() < 0.05, "skew={}", m3 / nf);
        assert!((m4 / nf - 3.0).abs() < 0.1, "kurtosis={}", m4 / nf);
    }

    #[test]
    fn kolmogorov_smirnov_against_normal_cdf() {
        let mut rng = rng_from_seed(3);
        let n = 100_000usize;
        let mut xs: Vec<f64> = (0..n).map(|_| standard_normal_ziggurat(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut d = 0.0f64;
        for (i, &x) in xs.iter().enumerate() {
            let cdf = sst_sigproc::special::normal_cdf(x);
            let lo = i as f64 / n as f64;
            let hi = (i + 1) as f64 / n as f64;
            d = d.max((cdf - lo).abs()).max((hi - cdf).abs());
        }
        // KS 1% critical value: 1.63/√n ≈ 0.00515 at n = 100 000.
        let crit = 1.63 / (n as f64).sqrt();
        assert!(d < crit, "KS statistic {d} exceeds {crit}");
    }

    #[test]
    fn tail_mass_beyond_r_is_reached_and_correct() {
        // The tail path must actually fire and with the right frequency:
        // P(|X| > R) = 2·Q(R) ≈ 2.59e-4.
        let mut rng = rng_from_seed(77);
        let n = 2_000_000;
        let mut beyond = 0usize;
        for _ in 0..n {
            if standard_normal_ziggurat(&mut rng).abs() > R {
                beyond += 1;
            }
        }
        let want = 2.0 * (1.0 - sst_sigproc::special::normal_cdf(R));
        let got = beyond as f64 / n as f64;
        assert!(beyond > 0, "tail never sampled");
        assert!(
            (got - want).abs() < 5.0 * (want / n as f64).sqrt(),
            "tail frequency {got} vs {want}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<f64> = {
            let mut rng = rng_from_seed(5);
            (0..64)
                .map(|_| standard_normal_ziggurat(&mut rng))
                .collect()
        };
        let b: Vec<f64> = {
            let mut rng = rng_from_seed(5);
            (0..64)
                .map(|_| standard_normal_ziggurat(&mut rng))
                .collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn works_through_dyn_rngcore() {
        let mut rng = rng_from_seed(1);
        let dyn_rng: &mut dyn rand::RngCore = &mut rng;
        let x = standard_normal_ziggurat(dyn_rng);
        assert!(x.is_finite());
    }
}
