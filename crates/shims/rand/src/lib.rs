//! Offline stand-in for the `rand` crate.
//!
//! The workspace builds with no network access, so this crate provides the
//! small slice of the `rand 0.8` API the sources use: [`RngCore`],
//! [`SeedableRng`], the [`Rng`] extension trait (`gen`, `gen_range`,
//! `gen_bool`, `fill`), and [`rngs::StdRng`].
//!
//! `StdRng` here is **ChaCha12, bit-compatible with upstream `rand
//! 0.8`**: the same block function, `rand_core`'s exact PCG32-based
//! `seed_from_u64`, the same `Standard` sampling, and the same
//! `gen_range` widening-multiply algorithm — so any explicit seed
//! yields the value stream real `rand` would produce (the workspace's
//! statistical test tolerances were calibrated against that stream).
//!
//! Like upstream `rand_chacha`, `StdRng` buffers four ChaCha blocks
//! (64 words) per refill. The buffer length cannot change the value
//! stream: the keystream is the blocks at counters 0, 1, 2, … laid end
//! to end, and `rand_core`'s consumption rules read it word by word in
//! order whatever the buffer holds — `next_u32` takes the next word,
//! `next_u64` the next two (low word first), and a `next_u64` at the
//! last buffered word takes its high word from the first word of the
//! next refill, which is the next block's first word either way. So the
//! buffer length only moves *when* each block is computed.
//!
//! Four blocks, because four blocks are computed together: on x86_64 a
//! refill runs the four ChaCha states side by side, one block per
//! 32-bit lane of the 128-bit SSE2 registers, in about the time of two
//! scalar blocks. SSE2 is part of the x86_64 baseline, so this
//! path needs no runtime feature detection; other architectures compute
//! the four blocks one after another with the scalar block function,
//! which is also the reference the SIMD refill is tested against. The
//! price is size: a generator is 304 bytes (a one-block buffer needs
//! 112), and a fresh one's first draw computes four blocks.

#![deny(unsafe_code)]

use std::ops::Range;

/// Low-level uniform bit generator.
pub trait RngCore {
    /// Next 32 uniform bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 uniform bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let last = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&last[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Deterministic construction from a seed.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Constructs the generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Constructs the generator from a `u64`, expanding it exactly like
    /// `rand_core 0.6` (a PCG32 stream written to the seed in 4-byte
    /// little-endian chunks) so seeds produce the same generator state as
    /// upstream `rand 0.8`.
    fn seed_from_u64(mut state: u64) -> Self {
        fn pcg32(state: &mut u64) -> [u8; 4] {
            const MUL: u64 = 6_364_136_223_846_793_005;
            const INC: u64 = 11_634_580_027_462_260_723;
            *state = state.wrapping_mul(MUL).wrapping_add(INC);
            let s = *state;
            let xorshifted = (((s >> 18) ^ s) >> 27) as u32;
            let rot = (s >> 59) as u32;
            xorshifted.rotate_right(rot).to_le_bytes()
        }
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            let word = pcg32(&mut state);
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
        Self::from_seed(seed)
    }
}

/// Types samplable uniformly from an `RngCore` (the `Standard`
/// distribution of upstream `rand`).
pub trait Standard: Sized {
    /// Draws one uniform value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // As upstream rand 0.8.5: the sign bit of one u32 word.
        (rng.next_u32() as i32) < 0
    }
}

macro_rules! impl_standard_int {
    ($($t:ty => $via:ident),* $(,)?) => {$(
        impl Standard for $t {
            #[inline]
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$via() as $t
            }
        }
    )*};
}

impl_standard_int!(
    u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
    usize => next_u64, i8 => next_u32, i16 => next_u32, i32 => next_u32,
    i64 => next_u64, isize => next_u64,
);

/// Types uniformly samplable within a range (the `SampleUniform` of
/// upstream `rand`), reproducing `rand 0.8.5`'s draw algorithm exactly:
/// widening multiply with zone rejection on the type-dependent "large"
/// type (`u32` for ≤32-bit integers, `u64` for 64-bit ones), so a given
/// seed yields the same values upstream would produce.
pub trait SampleUniform: Sized {
    /// Draws a value from `[lo, hi]` (inclusive).
    fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;

    /// Draws a value from `[lo, hi)`.
    fn sample_in<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty => ($unsigned:ty, $large:ty, $wide:ty)),* $(,)?) => {$(
        impl SampleUniform for $t {
            // A caller that draws once per sample (a stratified pick)
            // must not pay a call for it wherever it draws from two
            // sites.
            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "cannot sample from an empty range");
                let range = (hi as $unsigned).wrapping_sub(lo as $unsigned).wrapping_add(1) as $large;
                if range == 0 {
                    // Span covers the whole type.
                    return Standard::sample(rng);
                }
                let zone = if (<$unsigned>::MAX as u64) <= u16::MAX as u64 {
                    // Small types: reject the exact surplus.
                    let ints_to_reject = (<$large>::MAX - range + 1) % range;
                    <$large>::MAX - ints_to_reject
                } else {
                    (range << range.leading_zeros()).wrapping_sub(1)
                };
                loop {
                    let v: $large = Standard::sample(rng);
                    let m = (v as $wide).wrapping_mul(range as $wide);
                    let hi_part = (m >> (<$large>::BITS as usize)) as $large;
                    let lo_part = m as $large;
                    if lo_part <= zone {
                        return lo.wrapping_add(hi_part as $t);
                    }
                }
            }

            #[inline]
            fn sample_in<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "cannot sample from an empty range");
                Self::sample_inclusive(lo, hi - 1, rng)
            }
        }
    )*};
}

impl_sample_uniform_int!(
    u8 => (u8, u32, u64),
    u16 => (u16, u32, u64),
    u32 => (u32, u32, u64),
    u64 => (u64, u64, u128),
    usize => (usize, u64, u128),
    i8 => (u8, u32, u64),
    i16 => (u16, u32, u64),
    i32 => (u32, u32, u64),
    i64 => (u64, u64, u128),
    isize => (usize, u64, u128),
);

macro_rules! impl_sample_uniform_float {
    ($($t:ty => ($uty:ty, $discard:expr, $exp_one:expr)),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample_in<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "cannot sample from an empty range");
                let scale = hi - lo;
                // rand 0.8: a mantissa-uniform value in [1, 2), then
                // fused into [lo, hi).
                let bits: $uty = Standard::sample(rng);
                let value1_2 = <$t>::from_bits($exp_one | (bits >> $discard));
                let res = value1_2 * scale + (lo - scale);
                if res < hi { res } else { hi.next_down() }
            }

            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                Self::sample_in(lo, hi, rng)
            }
        }
    )*};
}

impl_sample_uniform_float!(
    f32 => (u32, 9u32, 0x3F80_0000u32),
    f64 => (u64, 12u64, 0x3FF0_0000_0000_0000u64),
);

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_in(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_inclusive(lo, hi, rng)
    }
}

/// Extension methods over any [`RngCore`] (blanket-implemented).
pub trait Rng: RngCore {
    /// Draws a uniform value of type `T`.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability outside [0,1]");
        self.gen::<f64>() < p
    }

    /// Fills an integer/byte slice with uniform values.
    #[inline]
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// Words per ChaCha block.
    const BLOCK_WORDS: usize = 16;

    /// Words per refill: four ChaCha blocks (see the crate docs).
    const BUF_WORDS: usize = 4 * BLOCK_WORDS;

    /// The standard generator: **ChaCha12**, bit-compatible with
    /// `rand 0.8`'s `StdRng`.
    ///
    /// Reproduces upstream's value stream exactly: the ChaCha block
    /// function with a 64-bit block counter and zero stream id, and
    /// `rand_core`'s `BlockRng` word-consumption rules for
    /// `next_u32`/`next_u64` (including the buffer-straddling edge
    /// case). Results are buffered four blocks at a time. Combined with
    /// the `rand_core`-exact `seed_from_u64`, any seed yields the same
    /// value stream real `rand` would produce.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        key: [u32; 8],
        counter: u64,
        buf: [u32; BUF_WORDS],
        index: usize,
    }

    /// One ChaCha12 block: the reference the SIMD refill is tested
    /// against, and the refill itself off x86_64.
    #[cfg(any(test, not(target_arch = "x86_64")))]
    #[allow(clippy::many_single_char_names)]
    pub(crate) fn chacha12_block(key: &[u32; 8], counter: u64, out: &mut [u32]) {
        macro_rules! quarter_round {
            ($a:ident, $b:ident, $c:ident, $d:ident) => {
                $a = $a.wrapping_add($b);
                $d = ($d ^ $a).rotate_left(16);
                $c = $c.wrapping_add($d);
                $b = ($b ^ $c).rotate_left(12);
                $a = $a.wrapping_add($b);
                $d = ($d ^ $a).rotate_left(8);
                $c = $c.wrapping_add($d);
                $b = ($b ^ $c).rotate_left(7);
            };
        }
        // State in named locals so the 96 quarter-round operations
        // compile to straight-line register code (no bounds checks).
        let (ia, ib, ic, id) = (
            0x6170_7865u32,
            0x3320_646eu32,
            0x7962_2d32u32,
            0x6b20_6574u32,
        );
        let (ie, ig, ih, ii) = (key[0], key[1], key[2], key[3]);
        let (ij, ik, il, im) = (key[4], key[5], key[6], key[7]);
        // Words 12-13: 64-bit block counter; 14-15: stream id, always 0.
        let (in_, io) = (counter as u32, (counter >> 32) as u32);
        let (ip, iq) = (0u32, 0u32);
        let (mut a, mut b, mut c, mut d) = (ia, ib, ic, id);
        let (mut e, mut g, mut h, mut i) = (ie, ig, ih, ii);
        let (mut j, mut k, mut l, mut m) = (ij, ik, il, im);
        let (mut n, mut o, mut p, mut q) = (in_, io, ip, iq);
        for _ in 0..6 {
            // Column round.
            quarter_round!(a, e, j, n);
            quarter_round!(b, g, k, o);
            quarter_round!(c, h, l, p);
            quarter_round!(d, i, m, q);
            // Diagonal round.
            quarter_round!(a, g, l, q);
            quarter_round!(b, h, m, n);
            quarter_round!(c, i, j, o);
            quarter_round!(d, e, k, p);
        }
        out[0] = a.wrapping_add(ia);
        out[1] = b.wrapping_add(ib);
        out[2] = c.wrapping_add(ic);
        out[3] = d.wrapping_add(id);
        out[4] = e.wrapping_add(ie);
        out[5] = g.wrapping_add(ig);
        out[6] = h.wrapping_add(ih);
        out[7] = i.wrapping_add(ii);
        out[8] = j.wrapping_add(ij);
        out[9] = k.wrapping_add(ik);
        out[10] = l.wrapping_add(il);
        out[11] = m.wrapping_add(im);
        out[12] = n.wrapping_add(in_);
        out[13] = o.wrapping_add(io);
        out[14] = p.wrapping_add(ip);
        out[15] = q.wrapping_add(iq);
    }

    /// The four blocks at counters `counter … counter + 3` (wrapping),
    /// laid end to end.
    pub(crate) fn chacha12_four_blocks(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        #[cfg(target_arch = "x86_64")]
        crate::sys::chacha12_four_blocks(key, counter, out);
        #[cfg(not(target_arch = "x86_64"))]
        for (b, block) in (0u64..).zip(out.chunks_exact_mut(BLOCK_WORDS)) {
            chacha12_block(key, counter.wrapping_add(b), block);
        }
    }

    impl StdRng {
        fn refill(&mut self) {
            chacha12_four_blocks(&self.key, self.counter, &mut self.buf);
            self.counter = self.counter.wrapping_add(4);
            self.index = 0;
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            if self.index >= BUF_WORDS {
                self.refill();
            }
            let w = self.buf[self.index];
            self.index += 1;
            w
        }

        fn next_u64(&mut self) -> u64 {
            // rand_core BlockRng consumption rules.
            let index = self.index;
            if index < BUF_WORDS - 1 {
                self.index += 2;
                (u64::from(self.buf[index + 1]) << 32) | u64::from(self.buf[index])
            } else if index >= BUF_WORDS {
                self.refill();
                self.index = 2;
                (u64::from(self.buf[1]) << 32) | u64::from(self.buf[0])
            } else {
                // Straddles the buffer boundary: low word is the last of
                // this block, high word the first of the next.
                let lo = u64::from(self.buf[BUF_WORDS - 1]);
                self.refill();
                self.index = 1;
                (u64::from(self.buf[0]) << 32) | lo
            }
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            let mut chunks = dest.chunks_exact_mut(4);
            for chunk in &mut chunks {
                chunk.copy_from_slice(&self.next_u32().to_le_bytes());
            }
            let rem = chunks.into_remainder();
            if !rem.is_empty() {
                let last = self.next_u32().to_le_bytes();
                rem.copy_from_slice(&last[..rem.len()]);
            }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut key = [0u32; 8];
            for (word, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
                *word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
            }
            StdRng {
                key,
                counter: 0,
                buf: [0; BUF_WORDS],
                index: BUF_WORDS,
            }
        }
    }
}

/// The SSE2 refill: the one place this crate uses `unsafe`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sys {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_cvtsi128_si64, _mm_or_si128, _mm_set1_epi32, _mm_set_epi32,
        _mm_slli_epi32, _mm_srli_epi32, _mm_unpackhi_epi64, _mm_xor_si128,
    };

    /// The four ChaCha12 blocks at counters `counter … counter + 3`
    /// (wrapping), laid end to end: word for word what four calls of
    /// the scalar block function produce.
    pub(crate) fn chacha12_four_blocks(key: &[u32; 8], counter: u64, out: &mut [u32; 64]) {
        // SAFETY: the callee's only requirement is its
        // `target_feature(enable = "sse2")`, and SSE2 is part of the
        // x86_64 baseline, so every x86_64 CPU this code runs on has it.
        unsafe { four_blocks_sse2(key, counter, out) }
    }

    /// The ChaCha12 rounds on four states at once: vector `w` holds
    /// state word `w` of block `b` in 32-bit lane `b`.
    #[target_feature(enable = "sse2")]
    fn four_blocks_sse2(key: &[u32; 8], counter: u64, out: &mut [u32; 64]) {
        macro_rules! rotl {
            ($v:expr, $n:literal) => {{
                let v = $v;
                _mm_or_si128(_mm_slli_epi32::<$n>(v), _mm_srli_epi32::<{ 32 - $n }>(v))
            }};
        }
        macro_rules! quarter_round {
            ($x:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
                $x[$a] = _mm_add_epi32($x[$a], $x[$b]);
                $x[$d] = rotl!(_mm_xor_si128($x[$d], $x[$a]), 16);
                $x[$c] = _mm_add_epi32($x[$c], $x[$d]);
                $x[$b] = rotl!(_mm_xor_si128($x[$b], $x[$c]), 12);
                $x[$a] = _mm_add_epi32($x[$a], $x[$b]);
                $x[$d] = rotl!(_mm_xor_si128($x[$d], $x[$a]), 8);
                $x[$c] = _mm_add_epi32($x[$c], $x[$d]);
                $x[$b] = rotl!(_mm_xor_si128($x[$b], $x[$c]), 7);
            };
        }
        let word = |w: u32| _mm_set1_epi32(w as i32);
        // Block b's 64-bit counter is `counter + b`: its low words
        // differ per lane, and its high words too where the low word
        // carries (or the whole counter wraps).
        let c = [0u64, 1, 2, 3].map(|b| counter.wrapping_add(b));
        let lanes = |f: fn(u64) -> u32| {
            _mm_set_epi32(
                f(c[3]) as i32,
                f(c[2]) as i32,
                f(c[1]) as i32,
                f(c[0]) as i32,
            )
        };
        let init: [__m128i; 16] = [
            word(0x6170_7865),
            word(0x3320_646e),
            word(0x7962_2d32),
            word(0x6b20_6574),
            word(key[0]),
            word(key[1]),
            word(key[2]),
            word(key[3]),
            word(key[4]),
            word(key[5]),
            word(key[6]),
            word(key[7]),
            lanes(|c| c as u32),
            lanes(|c| (c >> 32) as u32),
            word(0),
            word(0),
        ];
        let mut x = init;
        for _ in 0..6 {
            // Column round.
            quarter_round!(x, 0, 4, 8, 12);
            quarter_round!(x, 1, 5, 9, 13);
            quarter_round!(x, 2, 6, 10, 14);
            quarter_round!(x, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round!(x, 0, 5, 10, 15);
            quarter_round!(x, 1, 6, 11, 12);
            quarter_round!(x, 2, 7, 8, 13);
            quarter_round!(x, 3, 4, 9, 14);
        }
        for (w, (v, i)) in x.into_iter().zip(init).enumerate() {
            let v = _mm_add_epi32(v, i);
            // Lanes 0-1 and 2-3 as two 64-bit moves, low lane first.
            let lo = _mm_cvtsi128_si64(v) as u64;
            let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64;
            out[w] = lo as u32;
            out[16 + w] = (lo >> 32) as u32;
            out[32 + w] = hi as u32;
            out[48 + w] = (hi >> 32) as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn floats_are_unit_interval() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.gen::<f64>();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = StdRng::seed_from_u64(5);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let k = r.gen_range(0usize..5);
            seen[k] = true;
            let p = r.gen_range(1024u16..65535);
            assert!((1024..65535).contains(&p));
            let f = r.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
    }

    #[test]
    fn mean_of_uniform_is_half() {
        let mut r = StdRng::seed_from_u64(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.gen::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    /// Reference generator: four blocks per refill, as upstream
    /// `rand_chacha` buffers, each from the scalar block function — the
    /// stream the SIMD refill must reproduce word for word.
    struct FourBlockRng {
        key: [u32; 8],
        counter: u64,
        buf: [u32; 64],
        index: usize,
    }

    impl FourBlockRng {
        fn refill(&mut self) {
            for b in 0..4u64 {
                let c = self.counter.wrapping_add(b);
                let lo = (b as usize) * 16;
                super::rngs::chacha12_block(&self.key, c, &mut self.buf[lo..lo + 16]);
            }
            self.counter = self.counter.wrapping_add(4);
            self.index = 0;
        }
    }

    impl super::RngCore for FourBlockRng {
        fn next_u32(&mut self) -> u32 {
            if self.index >= 64 {
                self.refill();
            }
            let w = self.buf[self.index];
            self.index += 1;
            w
        }

        fn next_u64(&mut self) -> u64 {
            let index = self.index;
            if index < 63 {
                self.index += 2;
                (u64::from(self.buf[index + 1]) << 32) | u64::from(self.buf[index])
            } else if index >= 64 {
                self.refill();
                self.index = 2;
                (u64::from(self.buf[1]) << 32) | u64::from(self.buf[0])
            } else {
                let lo = u64::from(self.buf[63]);
                self.refill();
                self.index = 1;
                (u64::from(self.buf[0]) << 32) | lo
            }
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            let mut chunks = dest.chunks_exact_mut(4);
            for chunk in &mut chunks {
                chunk.copy_from_slice(&self.next_u32().to_le_bytes());
            }
            let rem = chunks.into_remainder();
            if !rem.is_empty() {
                let last = self.next_u32().to_le_bytes();
                rem.copy_from_slice(&last[..rem.len()]);
            }
        }
    }

    impl SeedableRng for FourBlockRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut key = [0u32; 8];
            for (word, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
                *word = u32::from_le_bytes(chunk.try_into().unwrap());
            }
            FourBlockRng {
                key,
                counter: 0,
                buf: [0; 64],
                index: 64,
            }
        }
    }

    /// One draw of a mixed script, as comparable bits.
    fn draw(rng: &mut impl Rng, op: u64) -> Vec<u64> {
        match op % 7 {
            0 => vec![u64::from(rng.next_u32())],
            1 => vec![rng.next_u64()],
            2 => {
                let mut bytes = [0u8; 13];
                let n = 1 + (op as usize / 7) % 13;
                rng.fill_bytes(&mut bytes[..n]);
                bytes.iter().map(|&b| u64::from(b)).collect()
            }
            3 => vec![rng.gen_range(0..(op | 1) as usize) as u64],
            4 => vec![u64::from(rng.gen_range(3u16..1000))],
            5 => vec![rng.gen_range(-1.0f64..1.0).to_bits()],
            _ => vec![rng.gen::<f64>().to_bits(), u64::from(rng.gen::<bool>())],
        }
    }

    #[test]
    fn four_block_refill_matches_four_scalar_blocks() {
        // Counters at the start, where the lanes' low words carry into
        // different high words (2^32 - 1 sits in lane 0, 1, 2 or 3), and
        // where the 64-bit counter wraps.
        let edge = 1u64 << 32;
        let counters = [
            0,
            4,
            edge - 4,
            edge - 3,
            edge - 2,
            edge - 1,
            edge,
            u64::MAX - 3,
            u64::MAX - 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for seed in [0u64, 1, 7, 101, 4242, u64::MAX] {
            let key = FourBlockRng::seed_from_u64(seed).key;
            for counter in counters {
                let mut got = [0u32; 64];
                super::rngs::chacha12_four_blocks(&key, counter, &mut got);
                let mut want = [0u32; 64];
                for (b, block) in (0u64..).zip(want.chunks_exact_mut(16)) {
                    super::rngs::chacha12_block(&key, counter.wrapping_add(b), block);
                }
                assert_eq!(got, want, "seed {seed} counter {counter:#x}");
            }
        }
    }

    #[test]
    fn generator_matches_the_scalar_four_block_stream() {
        // A lead of `lead` single words puts every later draw at an odd
        // or even word offset; each script runs well past five refills
        // (a refill is 64 words), and starts with a `next_u64` so lead 63
        // straddles the first refill boundary.
        for seed in [0u64, 1, 7, 101, 4242, u64::MAX] {
            for lead in 0..70u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut four = FourBlockRng::seed_from_u64(seed);
                for _ in 0..lead {
                    assert_eq!(rng.next_u32(), four.next_u32());
                }
                let mut state = seed ^ (lead << 32) ^ 0x9E37_79B9_7F4A_7C15;
                for step in 0..240 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let op = if step == 0 { 1 } else { state };
                    assert_eq!(
                        draw(&mut rng, op),
                        draw(&mut four, op),
                        "seed {seed} lead {lead} step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn generator_holds_four_blocks() {
        // Key, counter, index and a four-block buffer: upstream's size.
        assert!(std::mem::size_of::<StdRng>() <= 304);
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = StdRng::from_seed([0u8; 32]);
        let a = r.gen::<u64>();
        let b = r.gen::<u64>();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
