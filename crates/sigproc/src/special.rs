//! Special functions: log-gamma, error function, and the standard normal
//! CDF/quantile.
//!
//! These back the negative-binomial log-pmf of Eq. (9)/(11) in the paper
//! (which overflows in direct form for the lags the paper plots, so the
//! evaluation must happen in log space) and the Gaussian-copula marginal
//! transform in `sst-traffic`.
//!
//! [`erfc`] (and through it [`erf`] and [`normal_cdf`]) is a port of
//! fdlibm's `s_erf.c` rational approximations (Sun Microsystems, 1993),
//! whose permission notice is kept beside the coefficients.

/// Natural log of the gamma function, via the Lanczos approximation
/// (g = 7, n = 9 coefficients). Accurate to ~1e-13 over the positive axis.
///
/// # Panics
///
/// Panics if `x <= 0` (the reflection branch is intentionally unsupported:
/// every caller in this workspace passes positive arguments, and a silent
/// reflection would mask bugs).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps small-argument accuracy.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Log of the binomial coefficient `C(n, k)` for real-valued `n` (the
/// generalized binomial coefficient used by the negative binomial pmf).
pub fn ln_choose(n: f64, k: f64) -> f64 {
    if k < 0.0 || k > n {
        return f64::NEG_INFINITY;
    }
    if k == 0.0 || k == n {
        return 0.0;
    }
    ln_gamma(n + 1.0) - ln_gamma(k + 1.0) - ln_gamma(n - k + 1.0)
}

/// Error function, `1 − erfc(x)`.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

// The rational approximations in `erfc` are fdlibm's (`s_erf.c`):
//
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.

/// 0.84506291151 rounded to 24 bits: the constant term of the
/// `[0.84375, 1.25)` branch, exact in `1 − ERX` (with `PA[0]` it sums to
/// erf(1)).
const ERX: f64 = 0.8450629115104675;
// erf on [0, 0.84375): erfc = 1 − (x + x·P(x²)/Q(x²)).
const PP: [f64; 5] = [
    0.12837916709551256,
    -0.3250421072470015,
    -0.02848174957559851,
    -0.005770270296489442,
    -2.3763016656650163e-5,
];
const QQ: [f64; 5] = [
    0.39791722395915535,
    0.0650222499887673,
    0.005081306281875766,
    0.00013249473800432164,
    -3.960228278775368e-6,
];
// erf on [0.84375, 1.25): erfc = 1 − ERX − P(s)/Q(s), s = |x| − 1.
const PA: [f64; 7] = [
    -0.0023621185607526594,
    0.41485611868374833,
    -0.3722078760357013,
    0.31834661990116175,
    -0.11089469428239668,
    0.035478304325618236,
    -0.002166375594868791,
];
const QA: [f64; 6] = [
    0.10642088040084423,
    0.540397917702171,
    0.07182865441419627,
    0.12617121980876164,
    0.01363708391202905,
    0.011984499846799107,
];
// erfc on [1.25, RB_FROM): erfc = exp(−x² − 0.5625 + R(s)/S(s))/x, s = 1/x².
const RA: [f64; 8] = [
    -0.009864944034847148,
    -0.6938585727071818,
    -10.558626225323291,
    -62.375332450326006,
    -162.39666946257347,
    -184.60509290671104,
    -81.2874355063066,
    -9.814329344169145,
];
const SA: [f64; 8] = [
    19.651271667439257,
    137.65775414351904,
    434.56587747522923,
    645.3872717332679,
    429.00814002756783,
    108.63500554177944,
    6.570249770319282,
    -0.0604244152148581,
];
/// Where the `RB`/`SB` branch starts: 1/0.35 cut to its high 32 bits,
/// as fdlibm compares only the high word.
const RB_FROM: f64 = 2.8571414947509766;
// erfc on [RB_FROM, 28): same form as above.
const RB: [f64; 7] = [
    -0.0098649429247001,
    -0.799283237680523,
    -17.757954917754752,
    -160.63638485582192,
    -637.5664433683896,
    -1025.0951316110772,
    -483.5191916086514,
];
const SB: [f64; 7] = [
    30.33806074348246,
    325.7925129965739,
    1536.729586084437,
    3199.8582195085955,
    2553.0504064331644,
    474.52854120695537,
    -22.44095244658582,
];

/// Horner evaluation of `c[0] + s·c[1] + s²·c[2] + …`.
#[inline]
fn poly(s: f64, c: &[f64]) -> f64 {
    let (&last, rest) = c.split_last().expect("non-empty coefficients");
    rest.iter().rev().fold(last, |acc, &k| acc * s + k)
}

/// `1 + s·c[0] + s²·c[1] + …`, the denominators' form.
#[inline]
fn poly1(s: f64, c: &[f64]) -> f64 {
    1.0 + s * poly(s, c)
}

/// Complementary error function, within 2 ulp over the whole axis.
///
/// fdlibm's rational approximations (`s_erf.c`, credited above): a
/// rational function of `x²` below 0.84375, of `|x| − 1` below 1.25,
/// and `exp(−x²)·R(1/x²)/x` beyond, which keeps full relative accuracy
/// in the far tail that the Gaussian copula in `sst-traffic` maps
/// through Φ. `erfc(NaN)` is NaN, `erfc(+∞) = 0`, `erfc(−∞) = 2`.
pub fn erfc(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 0.84375 {
        if ax < 1.0 / (1u64 << 56) as f64 {
            return 1.0 - x;
        }
        let z = x * x;
        let y = poly(z, &PP) / poly1(z, &QQ);
        return if x < 0.25 {
            1.0 - (x + x * y)
        } else {
            0.5 - (x * y + (x - 0.5))
        };
    }
    if ax < 1.25 {
        let s = ax - 1.0;
        let q = poly(s, &PA) / poly1(s, &QA);
        return if x >= 0.0 {
            (1.0 - ERX) - q
        } else {
            1.0 + (ERX + q)
        };
    }
    if x.is_nan() {
        return x;
    }
    if x <= -6.0 {
        // 2 − erfc(6) = 2 − 2.2e−17 already rounds to 2; −∞ lands here.
        return 2.0;
    }
    if ax >= 28.0 {
        // erfc(28) < 1e−342 underflows; +∞ lands here.
        return 0.0;
    }
    let s = 1.0 / (ax * ax);
    let (r, d) = if ax < RB_FROM {
        (poly(s, &RA), poly1(s, &SA))
    } else {
        (poly(s, &RB), poly1(s, &SB))
    };
    // exp(−x²) as exp(−z²)·exp((z − x)(z + x)) with z = x cut to its
    // high 32 bits: z² is exact, so x² is never rounded inside exp.
    let z = f64::from_bits(ax.to_bits() & 0xffff_ffff_0000_0000);
    let t = (-z * z - 0.5625).exp() * ((z - ax) * (z + ax) + r / d).exp() / ax;
    if x > 0.0 {
        t
    } else {
        2.0 - t
    }
}

/// Standard normal cumulative distribution function Φ(x).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal quantile Φ⁻¹(p), Acklam's rational approximation
/// polished by one Halley step (|error| < 1e-13 for p in (0,1)).
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile requires p in (0,1), got {p}"
    );
    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement against Φ(x) - p.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Hurwitz-style tail of the Riemann zeta derivative used by the wavelet
/// estimator's octave-variance weights: `ζ(2, x) = Σ_{k≥0} 1/(x+k)²`.
pub fn hurwitz_zeta_2(x: f64) -> f64 {
    assert!(x > 0.0, "hurwitz_zeta_2 requires x > 0");
    // Sum the first terms directly, then Euler-Maclaurin tail.
    let mut sum = 0.0;
    let cutoff = 32usize;
    for k in 0..cutoff {
        let v = x + k as f64;
        sum += 1.0 / (v * v);
    }
    let a = x + cutoff as f64;
    // ∫_a^∞ t^-2 dt + 0.5 a^-2 + (1/6)·2·a^-3/2! ...
    sum + 1.0 / a + 0.5 / (a * a) + 1.0 / (6.0 * a * a * a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            // Γ(n) = (n-1)!
            assert!((ln_gamma(n as f64) - fact.ln()).abs() < 1e-10, "n={n}");
            fact *= n as f64;
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi)
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
        // Γ(3/2) = sqrt(pi)/2
        assert!((ln_gamma(1.5) - (std::f64::consts::PI.sqrt() / 2.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn ln_choose_matches_pascal() {
        assert!((ln_choose(5.0, 2.0) - 10.0f64.ln()).abs() < 1e-10);
        assert!((ln_choose(10.0, 5.0) - 252.0f64.ln()).abs() < 1e-10);
        assert_eq!(ln_choose(5.0, 0.0), 0.0);
        assert_eq!(ln_choose(3.0, 4.0), f64::NEG_INFINITY);
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.520_499_877_813_046_5),
            (1.0, 0.842_700_792_949_714_9),
            (2.0, 0.995_322_265_018_952_7),
            (-1.0, -0.842_700_792_949_714_9),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 1e-10, "x={x} got={}", erf(x));
        }
    }

    /// Units in the last place between two non-negative finite f64s.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn erfc_within_two_ulp_of_mpmath() {
        // erfc(x) from mpmath at 40 digits, rounded to f64, over
        // [−6, 27] plus 28. The points include each branch edge
        // (0.84375, 1.25, `RB_FROM`, 6, 28) and the f64 just below it,
        // 1/0.35 itself, and 2.19…2.2, where 1 − erf(x) from a
        // Maclaurin series cancels thousands of ulp away.
        const CASES: [(f64, f64); 49] = [
            (-6.0, 2.0),
            (-5.5, 1.9999999999999927),
            (-4.0, 1.999999984582742),
            (-3.0, 1.9999779095030015),
            (-2.5, 1.999593047982555),
            (-2.0, 1.9953222650189528),
            (-1.5, 1.9661051464753108),
            (-1.25, 1.9229001282564582),
            (-1.0, 1.8427007929497148),
            (-0.84375, 1.7672256612323416),
            (-0.5, 1.5204998778130465),
            (-0.25, 1.276326390168237),
            (-1e-10, 1.000000000112838),
            (0.0, 1.0),
            (1e-10, 0.999999999887162),
            (0.1, 0.887537083981715),
            (0.25, 0.7236736098317631),
            (0.5, 0.4795001221869535),
            (0.8437499999999999, 0.23277433876765843),
            (0.84375, 0.23277433876765838),
            (1.0, 0.15729920705028513),
            (1.2499999999999998, 0.07709987174354183),
            (1.25, 0.07709987174354177),
            (1.5, 0.033894853524689274),
            (1.77, 0.01230905777567766),
            (2.0, 0.004677734981047266),
            (2.19, 0.001954056757198543),
            (2.1974177850964827, 0.0018860165463917321),
            (2.2, 0.0018628462979818898),
            (2.5, 0.0004069520174449589),
            (2.857141494750976, 5.331274941213432e-5),
            (2.8571414947509766, 5.3312749412134176e-5),
            (2.8571428571428568, 5.331231138832294e-5),
            (2.857142857142857, 5.3312311388322795e-5),
            (3.0, 2.209049699858544e-5),
            (4.0, 1.541725790028002e-8),
            (5.0, 1.537459794428035e-12),
            (5.999999999999999, 2.1519736712499147e-17),
            (6.0, 2.1519736712498913e-17),
            (8.0, 1.1224297172982926e-29),
            (10.0, 2.088487583762545e-45),
            (10.361803965601073, 1.2738041743300317e-48),
            (13.0, 1.7395573154667246e-75),
            (16.0, 2.3284857515715308e-113),
            (20.0, 5.395865611607901e-176),
            (25.0, 8.300172571196523e-274),
            (26.5, 2.2109076642637343e-307),
            (27.0, 5.23705e-319),
            (28.0, 0.0),
        ];
        for (x, want) in CASES {
            let got = erfc(x);
            assert!(
                ulps(got, want) <= 2,
                "erfc({x}) = {got:e}, want {want:e} ({} ulp)",
                ulps(got, want)
            );
        }
    }

    #[test]
    fn erfc_special_values() {
        assert!(erfc(f64::NAN).is_nan());
        assert!(erfc(-f64::NAN).is_nan());
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert_eq!(erfc(0.0), 1.0);
        assert_eq!(erfc(-0.0), 1.0);
        assert!(normal_cdf(f64::NAN).is_nan());
        assert_eq!(normal_cdf(f64::INFINITY), 1.0);
        assert_eq!(normal_cdf(f64::NEG_INFINITY), 0.0);
    }

    #[test]
    fn erfc_far_tail_relative_accuracy() {
        // erfc(5) = 1.537459794428035e-12
        let got = erfc(5.0);
        let want = 1.537_459_794_428_035e-12;
        assert!((got / want - 1.0).abs() < 1e-6, "got={got}");
    }

    #[test]
    fn normal_cdf_symmetry_and_landmarks() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-14);
        assert!((normal_cdf(1.96) - 0.975_002_104_851_78).abs() < 1e-9);
        for x in [-3.0, -1.0, 0.3, 2.5] {
            assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-12);
        }
        // Φ(−x) = 1 − Φ(x) to round-off over the range the copula
        // sees, including across every branch edge of erfc.
        for i in -800..=800 {
            let x = f64::from(i) / 100.0;
            let sum = normal_cdf(x) + normal_cdf(-x);
            assert!((sum - 1.0).abs() <= 2.0 * f64::EPSILON, "x={x}: {sum}");
        }
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[1e-9, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-11, "p={p} x={x}");
        }
    }

    #[test]
    #[should_panic(expected = "requires p in (0,1)")]
    fn normal_quantile_rejects_zero() {
        normal_quantile(0.0);
    }

    #[test]
    fn hurwitz_zeta_2_matches_basel_at_one() {
        // ζ(2,1) = π²/6
        let want = std::f64::consts::PI.powi(2) / 6.0;
        assert!((hurwitz_zeta_2(1.0) - want).abs() < 1e-9);
    }

    #[test]
    fn hurwitz_zeta_2_decreases() {
        assert!(hurwitz_zeta_2(1.0) > hurwitz_zeta_2(2.0));
        assert!(hurwitz_zeta_2(2.0) > hurwitz_zeta_2(10.0));
    }
}
