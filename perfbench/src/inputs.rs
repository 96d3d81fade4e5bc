//! Seeded input generation. Every input is a pure function of the
//! `--seed` argument; the program under test only sees the generated
//! points.

use sst_nettrace::{PacketTrace, TraceSynthesizer};

/// SplitMix64 finalizer: a well-mixed bijection on `u64`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th independent seed derived from `seed`.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    mix(seed ^ mix(i))
}

/// Size of a Bell-Labs-calibrated packet trace (heavy-tailed flow
/// durations, α_d = 3 − 2H, Zipf host popularity).
#[derive(Clone, Copy, Debug)]
pub struct TraceShape {
    /// Distinct hosts; OD pairs grow roughly with their square.
    pub hosts: u32,
    /// Mean offered rate, bytes per second.
    pub mean_rate: f64,
    /// Trace length, seconds.
    pub duration: f64,
}

impl TraceShape {
    /// Synthesizes the trace for `seed`.
    pub fn synthesize(&self, seed: u64) -> PacketTrace {
        TraceSynthesizer::bell_labs_like()
            .hosts(self.hosts)
            .mean_rate(self.mean_rate)
            .duration(self.duration)
            .synthesize(seed)
    }

    /// One `(OD-pair key, bytes)` point per packet, in arrival order.
    pub fn od_points(&self, seed: u64) -> Vec<(u64, f64)> {
        self.synthesize(seed).od_keyed_points()
    }

    /// One `(5-tuple key, bytes)` point per packet, in arrival order.
    pub fn flow_points(&self, seed: u64) -> Vec<(u64, f64)> {
        self.synthesize(seed).flow_keyed_points()
    }
}

/// The key a point carries in replay epoch `salt`: unchanged in epoch
/// 0, an unrelated key otherwise, so a replayed flow reaches the
/// monitor as a new one.
pub fn remap(key: u64, salt: u64) -> u64 {
    if salt == 0 {
        key
    } else {
        mix(key ^ mix(salt))
    }
}

/// Which of `n` collectors watches `key`: a hash partition, so each
/// key's points reach exactly one collector, in order.
pub fn collector_of(key: u64, n: usize) -> usize {
    (mix(key) % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: TraceShape = TraceShape {
        hosts: 200,
        mean_rate: 2.0e5,
        duration: 20.0,
    };

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(SMALL.od_points(5), SMALL.od_points(5));
        assert_eq!(SMALL.flow_points(5), SMALL.flow_points(5));
        assert!(!SMALL.od_points(5).is_empty());
    }

    #[test]
    fn generators_differ_across_seeds() {
        assert_ne!(SMALL.od_points(5), SMALL.od_points(6));
        assert_ne!(SMALL.flow_points(5), SMALL.flow_points(6));
        assert_ne!(sub_seed(5, 0), sub_seed(6, 0));
        assert_ne!(sub_seed(5, 0), sub_seed(5, 1));
    }

    #[test]
    fn remap_keeps_epoch_zero_and_separates_epochs() {
        assert_eq!(remap(42, 0), 42);
        assert_ne!(remap(42, 1), 42);
        assert_ne!(remap(42, 1), remap(42, 2));
        assert_eq!(remap(42, 3), remap(42, 3));
    }

    #[test]
    fn partition_is_stable_and_uses_every_collector() {
        let mut seen = [0usize; 2];
        for k in 0..1000u64 {
            let c = collector_of(k, 2);
            assert_eq!(c, collector_of(k, 2));
            seen[c] += 1;
        }
        assert!(seen.iter().all(|&n| n > 400), "{seen:?}");
    }
}
