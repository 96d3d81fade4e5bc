//! A keyed hasher for tables keyed by `u64`.
//!
//! std's default hasher is SipHash-1-3: keyed, so whoever picks the
//! keys cannot predict the table layout, but slow for one `u64` word.
//! [`KeyedU64`] keeps the keying and drops the cost: a key hashes to
//! [`derive_seed`]`(table_key, key)` — a SplitMix64-style
//! multiply-xorshift finalizer over the key and a per-table random
//! `table_key`. Each builder draws its `table_key` from a fresh std
//! [`RandomState`], so two tables (and two processes) lay the same
//! keys out differently, and nothing that reads a table in iteration
//! order may depend on that order.
//!
//! The finalizer is keyed, not a pseudo-random function as SipHash
//! is: keys picked without knowledge of the table key cannot be made
//! to collide, but an attacker who could watch many probes of one
//! table (timings, say) might learn more about its layout than SipHash
//! would give away. The tables that use it are keyed per table and
//! live for one process.
//!
//! ```
//! use sst_stats::hash::U64Map;
//!
//! let mut streams: U64Map<&str> = U64Map::default();
//! streams.insert(7, "seven");
//! assert_eq!(streams.get(&7), Some(&"seven"));
//! ```

use crate::rng::derive_seed;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` keyed by `u64` under a [`KeyedU64`] hasher.
pub type U64Map<V> = HashMap<u64, V, KeyedU64>;

/// Builds [`KeyedU64Hasher`]s under one random table key.
#[derive(Clone, Copy, Debug)]
pub struct KeyedU64 {
    key: u64,
}

impl KeyedU64 {
    /// A builder with a fresh random table key: std's [`RandomState`]
    /// draws new SipHash keys for every builder, and hashing a constant
    /// under them gives a `u64` nobody outside the process can predict.
    pub fn new() -> Self {
        KeyedU64 {
            key: RandomState::new().hash_one(0u64),
        }
    }
}

impl Default for KeyedU64 {
    fn default() -> Self {
        KeyedU64::new()
    }
}

impl BuildHasher for KeyedU64 {
    type Hasher = KeyedU64Hasher;

    fn build_hasher(&self) -> KeyedU64Hasher {
        KeyedU64Hasher { hash: self.key }
    }
}

/// The hasher [`KeyedU64`] builds. A `u64` key is one
/// [`Hasher::write_u64`]: one finalizer round. Other inputs fold in as
/// little-endian 8-byte words, the last one zero-padded.
#[derive(Clone, Copy, Debug)]
pub struct KeyedU64Hasher {
    hash: u64,
}

impl Hasher for KeyedU64Hasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.hash = derive_seed(self.hash, x);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Buckets of a 2¹⁰-bucket table, as a swiss table picks them: the
    /// low bits of the hash.
    const BUCKETS: usize = 1 << 10;

    /// Hashes `keys` under `builder` into [`BUCKETS`] buckets by the
    /// low bits and by the top bits (a swiss table's control byte),
    /// and checks every bucket holds between a quarter and twice its
    /// fair share. At 64 keys a bucket, a bucket of a random function
    /// breaks that bound with probability below 10⁻¹⁰.
    fn assert_spread(builder: KeyedU64, keys: impl Iterator<Item = u64>, what: &str) {
        let mut low = vec![0usize; BUCKETS];
        let mut high = vec![0usize; BUCKETS];
        let mut n = 0;
        for k in keys {
            let h = builder.hash_one(k);
            low[h as usize & (BUCKETS - 1)] += 1;
            high[(h >> 54) as usize] += 1;
            n += 1;
        }
        let fair = n / BUCKETS;
        for (bits, counts) in [("low", &low), ("high", &high)] {
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(
                *min >= fair / 4 && *max <= fair * 2,
                "{what}, {bits} bits: buckets hold {min}..={max}, fair share {fair}"
            );
        }
    }

    #[test]
    fn builders_key_their_tables_differently() {
        let (a, b) = (KeyedU64::new(), KeyedU64::new());
        for k in [0u64, 1, 42, u64::MAX] {
            assert_ne!(a.hash_one(k), b.hash_one(k), "key {k}");
        }
        // One builder is one function.
        assert_eq!(a.hash_one(42u64), a.hash_one(42u64));
    }

    #[test]
    fn sequential_and_strided_keys_spread_evenly() {
        let n = 64 * BUCKETS as u64;
        let builders = [0, 1, 0x9E37_79B9_7F4A_7C15, u64::MAX]
            .map(|key| KeyedU64 { key })
            .into_iter()
            .chain([KeyedU64::new()]);
        for builder in builders {
            assert_spread(builder, 0..n, "sequential keys");
            assert_spread(builder, (0..n).map(|i| i << 32), "keys 2^32 apart");
            assert_spread(
                builder,
                (0..n).map(|i| (i << 32) | 7),
                "keys 2^32 apart, low word set",
            );
        }
    }

    #[test]
    fn byte_writes_fold_as_words() {
        let builder = KeyedU64 { key: 5 };
        let mut words = builder.build_hasher();
        words.write_u64(0x0807_0605_0403_0201);
        words.write_u64(0x09);
        let mut bytes = builder.build_hasher();
        bytes.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(words.finish(), bytes.finish());
    }

    #[test]
    fn maps_work_under_the_keyed_hasher() {
        let mut map: U64Map<u64> = U64Map::default();
        for k in 0..10_000u64 {
            map.insert(k << 32, k);
        }
        assert!((0..10_000u64).all(|k| map[&(k << 32)] == k));
        assert_eq!(map.len(), 10_000);
    }
}
