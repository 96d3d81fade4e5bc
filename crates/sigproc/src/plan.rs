//! Precomputed FFT plans.
//!
//! The free functions in [`crate::fft`] recompute twiddle factors and the
//! bit-reversal permutation on every call. Monte-Carlo workloads (the
//! Davies-Harte fGn generator runs one same-size FFT per instance per
//! figure) pay that cost thousands of times, so this module hoists it:
//!
//! * [`FftPlan`] — per-stage twiddle tables plus the bit-reversal swap
//!   list for one power-of-two size; `forward`/`inverse` run in place
//!   with zero allocation.
//! * [`BluesteinPlan`] — the chirp sequence and the pre-transformed
//!   chirp filter for one arbitrary size, turning a Bluestein call from
//!   three FFTs plus trigonometry into two table-driven FFTs.
//! * [`plan_for`] — a small process-wide LRU so the [`crate::fft`] free
//!   functions transparently reuse plans.
//!
//! ## Bit-compatibility
//!
//! The twiddle tables are filled with the *same iterative product*
//! (`w *= wlen`) the free functions used, and the butterfly executes the
//! same operations in the same order, so a planned transform returns
//! **bit-identical** results to the original code — the determinism
//! tests in `sst-traffic` and `sst-core` rely on this.
//!
//! ## Example
//!
//! ```
//! use sst_sigproc::{fft, Complex, FftPlan};
//!
//! let plan = FftPlan::new(8);
//! let mut data = [Complex::ONE; 8];
//! plan.forward(&mut data);
//! assert_eq!(data, {
//!     let mut d = [Complex::ONE; 8];
//!     fft::fft_pow2_in_place(&mut d);
//!     d
//! });
//! ```

use crate::complex::Complex;
use crate::fft::{is_power_of_two, next_pow2};
use std::sync::{Arc, Mutex, OnceLock};

/// A reusable FFT plan for one power-of-two length.
///
/// Holds per-stage twiddle tables (forward sign; the inverse conjugates
/// on the fly, which is exact) and the bit-reversal permutation as a
/// swap list.
#[derive(Clone, Debug)]
pub struct FftPlan {
    n: usize,
    /// Concatenated twiddles for stages `len = 2, 4, …, n`; stage `s`
    /// (0-based) occupies `[2^s - 1, 2^(s+1) - 1)` and holds `2^s`
    /// factors.
    twiddles: Vec<Complex>,
    /// Pairs `(i, j)` with `i < j` to swap for the bit-reversal pass.
    swaps: Vec<(u32, u32)>,
}

impl FftPlan {
    /// Builds a plan for length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(is_power_of_two(n), "fft length {n} is not a power of two");
        // Twiddle tables: replicate the iterative product of the
        // original loop exactly (do NOT replace with direct `cis(k·ang)`
        // — that would change low-order bits).
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2usize;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            let mut w = Complex::ONE;
            for _ in 0..len / 2 {
                twiddles.push(w);
                w *= wlen;
            }
            len <<= 1;
        }
        // Bit-reversal swap list, identical traversal to the in-place
        // permutation loop.
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i as u32, j as u32));
            }
        }
        FftPlan { n, twiddles, swaps }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is for the degenerate length-≤1 transform.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    #[inline]
    fn permute(&self, data: &mut [Complex]) {
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
    }

    fn transform(&self, data: &mut [Complex], inverse: bool) {
        let n = self.n;
        assert_eq!(data.len(), n, "buffer length does not match plan length");
        if n <= 1 {
            return;
        }
        self.permute(data);
        let mut stage_off = 0usize;
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let stage = &self.twiddles[stage_off..stage_off + half];
            // Split-borrow butterflies: same operations in the same
            // order as the historical loop, expressed through iterators
            // so the hot loop carries no bounds checks. conj() is exact,
            // so the inverse path matches the original sign-flipped
            // iterative twiddle product bit for bit.
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                if inverse {
                    for ((x, y), &tw) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                        let u = *x;
                        let v = *y * tw.conj();
                        *x = u + v;
                        *y = u - v;
                    }
                } else {
                    for ((x, y), &tw) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                        let u = *x;
                        let v = *y * tw;
                        *x = u + v;
                        *y = u - v;
                    }
                }
            }
            stage_off += half;
            len <<= 1;
        }
    }

    /// In-place forward FFT.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn forward(&self, data: &mut [Complex]) {
        self.transform(data, false);
    }

    /// In-place inverse FFT, normalized by `1/n`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn inverse(&self, data: &mut [Complex]) {
        self.transform(data, true);
        let scale = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    }

    /// In-place inverse FFT without the `1/n` normalization.
    pub fn inverse_unnormalized(&self, data: &mut [Complex]) {
        self.transform(data, true);
    }
}

/// Scratch buffers for [`BluesteinPlan::transform`], reusable across
/// calls to avoid per-transform allocation.
#[derive(Clone, Debug, Default)]
pub struct BluesteinScratch {
    a: Vec<Complex>,
}

/// A reusable Bluestein (chirp-z) plan for one arbitrary length.
///
/// Precomputes the chirp sequence and the forward transform of the
/// chirp filter **per direction**, so each call runs exactly two
/// table-driven FFTs and reproduces the historical free-standing
/// implementation bit for bit (the two filter spectra are equal only
/// mathematically, not in floating point, so sharing one table would
/// drift low-order bits on the inverse path).
#[derive(Clone, Debug)]
pub struct BluesteinPlan {
    n: usize,
    m: usize,
    /// `chirp[k] = exp(-iπ k²/n)` (forward sign; the inverse chirp is
    /// its exact conjugate).
    chirp: Vec<Complex>,
    /// Forward FFT of the forward-direction chirp filter `b`.
    b_fft_fwd: Vec<Complex>,
    /// Forward FFT of the inverse-direction chirp filter.
    b_fft_inv: Vec<Complex>,
    inner: Arc<FftPlan>,
}

impl BluesteinPlan {
    /// Builds a plan for length `n ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "bluestein length must be >= 1");
        let m = next_pow2(2 * n - 1);
        let inner = plan_for(m);
        let mut chirp = Vec::with_capacity(n);
        for k in 0..n {
            // k² mod 2n keeps the angle small for numeric stability.
            let k2 = ((k as u128 * k as u128) % (2 * n as u128)) as f64;
            chirp.push(Complex::cis(-std::f64::consts::PI * k2 / n as f64));
        }
        // b[k] = conj(direction chirp[k]); the inverse chirp is
        // conj(chirp), so its filter holds the chirp values themselves.
        let mut b_fwd = vec![Complex::ZERO; m];
        let mut b_inv = vec![Complex::ZERO; m];
        b_fwd[0] = chirp[0].conj();
        b_inv[0] = chirp[0];
        for k in 1..n {
            let c = chirp[k].conj();
            b_fwd[k] = c;
            b_fwd[m - k] = c;
            b_inv[k] = chirp[k];
            b_inv[m - k] = chirp[k];
        }
        inner.forward(&mut b_fwd);
        inner.forward(&mut b_inv);
        BluesteinPlan {
            n,
            m,
            chirp,
            b_fft_fwd: b_fwd,
            b_fft_inv: b_inv,
            inner,
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is for the degenerate length-≤1 transform.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// Computes the DFT of `input` into a new vector.
    ///
    /// `inverse` gives the unnormalized inverse DFT (the caller divides
    /// by `n`, matching [`crate::fft::ifft`]).
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the plan length.
    pub fn transform(
        &self,
        input: &[Complex],
        inverse: bool,
        scratch: &mut BluesteinScratch,
    ) -> Vec<Complex> {
        assert_eq!(
            input.len(),
            self.n,
            "input length does not match plan length"
        );
        // conj(chirp) is exact (cos is even, sin is odd), so the data
        // path reproduces the historical chirp values bit for bit in
        // both directions; the filter spectrum comes from the matching
        // per-direction table.
        let a = &mut scratch.a;
        a.clear();
        a.resize(self.m, Complex::ZERO);
        for k in 0..self.n {
            let c = if inverse {
                self.chirp[k].conj()
            } else {
                self.chirp[k]
            };
            a[k] = input[k] * c;
        }
        self.inner.forward(a);
        let b_fft = if inverse {
            &self.b_fft_inv
        } else {
            &self.b_fft_fwd
        };
        for (za, zb) in a.iter_mut().zip(b_fft) {
            *za *= *zb;
        }
        self.inner.inverse(a);
        (0..self.n)
            .map(|k| {
                let c = if inverse {
                    self.chirp[k].conj()
                } else {
                    self.chirp[k]
                };
                a[k] * c
            })
            .collect()
    }
}

/// Process-wide plan cache capacity (distinct power-of-two sizes kept).
const PLAN_CACHE_CAP: usize = 16;

/// Shared mutex-guarded LRU used by every plan cache in the workspace
/// (FFT, Bluestein, and the fGn plans in `sst-traffic`).
///
/// The builder runs **outside** the lock, so a panicking or erroring
/// construction can never poison the cache (and a poisoned mutex from
/// an unrelated panic is recovered, not propagated — the cached `Arc`s
/// are always internally consistent). If two threads race to build the
/// same entry, the first insertion wins and both get the same `Arc`.
pub fn lru_fetch<T, E>(
    cache: &Mutex<Vec<Arc<T>>>,
    cap: usize,
    hit: impl Fn(&T) -> bool,
    build: impl FnOnce() -> Result<T, E>,
) -> Result<Arc<T>, E> {
    {
        let mut guard = cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pos) = guard.iter().position(|p| hit(p)) {
            // Move to the back (most recently used).
            let plan = guard.remove(pos);
            guard.push(Arc::clone(&plan));
            return Ok(plan);
        }
    }
    // Lock released while building: construction may be slow or panic.
    let plan = Arc::new(build()?);
    let mut guard = cache.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(pos) = guard.iter().position(|p| hit(p)) {
        // A racing builder inserted first; share its entry.
        let existing = guard.remove(pos);
        guard.push(Arc::clone(&existing));
        return Ok(existing);
    }
    if guard.len() >= cap {
        guard.remove(0);
    }
    guard.push(Arc::clone(&plan));
    Ok(plan)
}

/// Returns the shared plan for power-of-two length `n`, building and
/// caching it on first use (small LRU, capacity `PLAN_CACHE_CAP`).
///
/// # Panics
///
/// Panics if `n` is not a power of two (before touching the cache, so
/// the panic is per-call, never cache-wide).
pub fn plan_for(n: usize) -> Arc<FftPlan> {
    assert!(is_power_of_two(n), "fft length {n} is not a power of two");
    static CACHE: OnceLock<Mutex<Vec<Arc<FftPlan>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let result: Result<_, std::convert::Infallible> = lru_fetch(
        cache,
        PLAN_CACHE_CAP,
        |p| p.len() == n,
        || Ok(FftPlan::new(n)),
    );
    result.expect("infallible")
}

/// Returns the shared Bluestein plan for arbitrary length `n`, building
/// and caching it on first use (small LRU, capacity `PLAN_CACHE_CAP`).
///
/// # Panics
///
/// Panics if `n == 0` (before touching the cache).
pub fn bluestein_for(n: usize) -> Arc<BluesteinPlan> {
    assert!(n >= 1, "bluestein length must be >= 1");
    static CACHE: OnceLock<Mutex<Vec<Arc<BluesteinPlan>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let result: Result<_, std::convert::Infallible> = lru_fetch(
        cache,
        PLAN_CACHE_CAP,
        |p| p.len() == n,
        || Ok(BluesteinPlan::new(n)),
    );
    result.expect("infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft;

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new(i as f64 * 0.37 - 1.0, (i as f64).sin()))
            .collect()
    }

    /// The seed's transform loop, kept verbatim as the bit-compatibility
    /// reference (the `fft::*` free functions now delegate to plans, so
    /// comparing against them would be circular).
    fn seed_transform_pow2(data: &mut [Complex], inverse: bool) {
        let n = data.len();
        assert!(n != 0 && n & (n - 1) == 0);
        if n <= 1 {
            return;
        }
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                data.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            let half = len / 2;
            for start in (0..n).step_by(len) {
                let mut w = Complex::ONE;
                for k in 0..half {
                    let u = data[start + k];
                    let v = data[start + k + half] * w;
                    data[start + k] = u + v;
                    data[start + k + half] = u - v;
                    w *= wlen;
                }
            }
            len <<= 1;
        }
    }

    /// The seed's Bluestein transform, verbatim, as the pinned
    /// bit-compatibility reference for both directions.
    fn seed_bluestein(input: &[Complex], inverse: bool) -> Vec<Complex> {
        let n = input.len();
        let m = next_pow2(2 * n - 1);
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut chirp = Vec::with_capacity(n);
        for k in 0..n {
            let k2 = ((k as u128 * k as u128) % (2 * n as u128)) as f64;
            chirp.push(Complex::cis(sign * std::f64::consts::PI * k2 / n as f64));
        }
        let mut a = vec![Complex::ZERO; m];
        for k in 0..n {
            a[k] = input[k] * chirp[k];
        }
        let mut b = vec![Complex::ZERO; m];
        b[0] = chirp[0].conj();
        for k in 1..n {
            let c = chirp[k].conj();
            b[k] = c;
            b[m - k] = c;
        }
        seed_transform_pow2(&mut a, false);
        seed_transform_pow2(&mut b, false);
        for k in 0..m {
            a[k] *= b[k];
        }
        seed_transform_pow2(&mut a, true);
        let scale = 1.0 / m as f64;
        for z in a.iter_mut() {
            *z = z.scale(scale);
        }
        (0..n).map(|k| a[k] * chirp[k]).collect()
    }

    #[test]
    fn bluestein_plan_is_bit_identical_to_the_pinned_seed_transform() {
        let mut scratch = BluesteinScratch::default();
        for &n in &[3usize, 7, 100, 257, 1000] {
            let plan = BluesteinPlan::new(n);
            let x = ramp(n);
            assert_eq!(
                plan.transform(&x, false, &mut scratch),
                seed_bluestein(&x, false),
                "forward n={n}"
            );
            assert_eq!(
                plan.transform(&x, true, &mut scratch),
                seed_bluestein(&x, true),
                "inverse n={n}"
            );
        }
    }

    #[test]
    fn plan_is_bit_identical_to_the_pinned_seed_loop() {
        for &n in &[1usize, 2, 8, 64, 1024, 1 << 15] {
            let plan = FftPlan::new(n);
            let orig = ramp(n);
            let mut got = orig.clone();
            let mut want = orig.clone();
            plan.forward(&mut got);
            seed_transform_pow2(&mut want, false);
            assert_eq!(got, want, "forward n={n}");
            let mut got = orig.clone();
            let mut want = orig;
            plan.inverse(&mut got);
            seed_transform_pow2(&mut want, true);
            let scale = 1.0 / n as f64;
            for z in want.iter_mut() {
                *z = z.scale(scale);
            }
            assert_eq!(got, want, "inverse n={n}");
        }
    }

    #[test]
    fn planned_forward_is_bit_identical_to_free_fft() {
        for &n in &[1usize, 2, 4, 8, 64, 1024, 1 << 14] {
            let plan = FftPlan::new(n);
            let mut a = ramp(n);
            let mut b = a.clone();
            plan.forward(&mut a);
            fft::fft_pow2_in_place(&mut b);
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn planned_inverse_is_bit_identical_to_free_ifft() {
        for &n in &[2usize, 16, 256, 4096] {
            let plan = FftPlan::new(n);
            let mut a = ramp(n);
            let mut b = a.clone();
            plan.inverse(&mut a);
            fft::ifft_pow2_in_place(&mut b);
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn round_trip_identity() {
        let plan = FftPlan::new(128);
        let orig = ramp(128);
        let mut data = orig.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        for (x, y) in data.iter().zip(&orig) {
            assert!((*x - *y).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn rejects_non_pow2() {
        FftPlan::new(12);
    }

    #[test]
    #[should_panic(expected = "does not match plan length")]
    fn rejects_wrong_buffer_length() {
        let plan = FftPlan::new(8);
        let mut data = vec![Complex::ZERO; 4];
        plan.forward(&mut data);
    }

    #[test]
    fn bluestein_plan_matches_free_fft() {
        for &n in &[3usize, 5, 7, 12, 31, 100, 257] {
            let plan = BluesteinPlan::new(n);
            let mut scratch = BluesteinScratch::default();
            let x = ramp(n);
            let got = plan.transform(&x, false, &mut scratch);
            let want = fft::fft(&x);
            for (g, w) in got.iter().zip(&want) {
                assert!((*g - *w).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn bluestein_plan_inverse_matches_free_ifft() {
        for &n in &[3usize, 7, 100] {
            let plan = BluesteinPlan::new(n);
            let mut scratch = BluesteinScratch::default();
            let x = ramp(n);
            let mut got = plan.transform(&x, true, &mut scratch);
            let inv = 1.0 / n as f64;
            for z in got.iter_mut() {
                *z = z.scale(inv);
            }
            let want = fft::ifft(&x);
            for (g, w) in got.iter().zip(&want) {
                assert!((*g - *w).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_stable() {
        let plan = BluesteinPlan::new(31);
        let mut scratch = BluesteinScratch::default();
        let x = ramp(31);
        let first = plan.transform(&x, false, &mut scratch);
        let second = plan.transform(&x, false, &mut scratch);
        assert_eq!(first, second);
    }

    #[test]
    fn shared_cache_returns_same_plan() {
        let a = plan_for(512);
        let b = plan_for(512);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 512);
    }

    #[test]
    fn invalid_length_panic_does_not_poison_the_cache() {
        let bad = std::panic::catch_unwind(|| plan_for(12));
        assert!(bad.is_err(), "non-power-of-two must panic");
        // The cache must still serve valid lengths afterwards.
        let plan = plan_for(256);
        let mut data = ramp(256);
        plan.forward(&mut data);
        assert!(data.iter().all(|z| z.is_finite()));
    }
}
