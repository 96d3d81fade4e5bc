//! Flow-level trace synthesis — the Bell-Labs-trace substitute.
//!
//! The paper's real traces (Bell Labs, March 8 2000, ~40 minutes,
//! hundreds of host pairs) are no longer retrievable, so we synthesize a
//! packet trace calibrated to every property the paper reports about
//! them:
//!
//! * aggregate Hurst parameter ≈ **0.62**,
//! * marginal (binned-rate) tail index ≈ **1.71** (Fig. 8b),
//! * mean rate ≈ **1.21 × 10⁴ bytes/s** for the measured subset (Fig. 6b),
//! * hundreds of OD pairs, TCP/UDP mix, realistic packet sizes.
//!
//! The construction is flow-level (an M/G/∞ body): sessions arrive
//! Poisson, each transfers a Pareto-distributed byte volume at a bounded
//! random rate, so session *durations* are heavy-tailed with the same
//! shape `α_d`, and the aggregate rate process is LRD with
//! `H = (3 − α_d)/2` (Taqqu's limit). Choosing `α_d = 3 − 2·0.62 = 1.76`
//! pins the Hurst parameter; the burst concurrency then produces a
//! binned-rate tail that measures ≈ 1.7 like the paper's.
//!
//! Packets are emitted flow by flow and then put in time order by a
//! two-pass distribution sort, not a comparison sort. The coarse pass
//! scatters them into 256 equal time slices by counting sort (fewer
//! for traces under 65 536 packets); the fine pass scatters each slice
//! into buckets of about 2 packets the same way and finishes with an
//! insertion sort that moves a packet only past strictly later times.
//! Bucket keys `⌊t·scale⌋` never decrease as `t` grows, and both
//! scatters keep emission order within a bucket, so packets with equal
//! times keep their emission order: the result is exactly a stable
//! sort by time for any finite times, not only distinct ones. The sort
//! renumbers each packet's flow as it places it. Its memory is one
//! scratch buffer of packets (16 B per packet) plus counts per slice
//! and per bucket, and no per-packet keys: the peak is two packet
//! buffers of the trace's length.

use crate::packet::{FlowKey, Packet, Protocol};
use crate::trace::PacketTrace;
use rand::Rng;
use sst_stats::dist::{poisson, BoundedPareto, Distribution, Pareto};
use sst_stats::rng::rng_from_seed;

/// Canonical packet sizes (bytes) and their probabilities — the classic
/// trimodal Internet mix (ACK / default-MTU / Ethernet-MTU).
const PACKET_SIZE_MIX: [(u32, f64); 3] = [(40, 0.5), (576, 0.25), (1500, 0.25)];

/// The cumulative probabilities of the first two sizes in
/// [`PACKET_SIZE_MIX`] (0.5 and 0.75, both exact).
const SIZE_EDGES: [f64; 2] = [
    PACKET_SIZE_MIX[0].1,
    PACKET_SIZE_MIX[0].1 + PACKET_SIZE_MIX[1].1,
];

/// The largest size in [`PACKET_SIZE_MIX`].
const MAX_PACKET_SIZE: f64 = PACKET_SIZE_MIX[2].0 as f64;

/// The mean of [`PACKET_SIZE_MIX`], bytes.
const MEAN_PACKET_SIZE: f64 = PACKET_SIZE_MIX[0].0 as f64 * PACKET_SIZE_MIX[0].1
    + PACKET_SIZE_MIX[1].0 as f64 * PACKET_SIZE_MIX[1].1
    + PACKET_SIZE_MIX[2].0 as f64 * PACKET_SIZE_MIX[2].1;

/// Configuration for the flow-level synthesizer.
///
/// # Examples
///
/// ```
/// use sst_nettrace::TraceSynthesizer;
/// let trace = TraceSynthesizer::bell_labs_like().duration(60.0).synthesize(7);
/// assert!(trace.len() > 0);
/// assert!(trace.duration() >= 60.0);
/// ```
#[derive(Clone, Debug)]
pub struct TraceSynthesizer {
    duration: f64,
    target_hurst: f64,
    mean_rate: f64,
    mean_flow_bytes: f64,
    n_hosts: u32,
    min_flow_rate: f64,
    max_flow_rate: f64,
}

impl TraceSynthesizer {
    /// The Bell-Labs-calibrated preset: 40 minutes, H ≈ 0.62, mean rate
    /// 1.21e4 B/s, ~200 hosts. (Use [`TraceSynthesizer::duration`] and
    /// [`TraceSynthesizer::mean_rate`] to scale runs down for tests.)
    pub fn bell_labs_like() -> Self {
        TraceSynthesizer {
            duration: 2400.0,
            target_hurst: 0.62,
            mean_rate: 1.21e4,
            mean_flow_bytes: 3.0e4,
            n_hosts: 200,
            min_flow_rate: 5.0e4,
            max_flow_rate: 2.0e7,
        }
    }

    /// Sets the trace duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics unless positive.
    pub fn duration(mut self, secs: f64) -> Self {
        assert!(secs > 0.0, "duration must be positive");
        self.duration = secs;
        self
    }

    /// Sets the target aggregate Hurst parameter (must be in `(1/2, 1)`).
    ///
    /// # Panics
    ///
    /// Panics outside `(1/2, 1)`.
    pub fn target_hurst(mut self, h: f64) -> Self {
        assert!(h > 0.5 && h < 1.0, "Hurst must be in (1/2,1)");
        self.target_hurst = h;
        self
    }

    /// Sets the target mean rate in bytes/second.
    ///
    /// # Panics
    ///
    /// Panics unless positive.
    pub fn mean_rate(mut self, rate: f64) -> Self {
        assert!(rate > 0.0, "mean rate must be positive");
        self.mean_rate = rate;
        self
    }

    /// Sets the number of distinct hosts (OD endpoints).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2.
    pub fn hosts(mut self, n: u32) -> Self {
        assert!(n >= 2, "need at least two hosts");
        self.n_hosts = n;
        self
    }

    /// The flow-duration tail shape implied by the target Hurst:
    /// `α_d = 3 − 2H`.
    pub fn duration_shape(&self) -> f64 {
        3.0 - 2.0 * self.target_hurst
    }

    /// Synthesizes the packet trace deterministically from `seed`.
    pub fn synthesize(&self, seed: u64) -> PacketTrace {
        let mut rng = rng_from_seed(seed);
        let alpha_d = self.duration_shape();
        let size_dist = Pareto::with_mean(alpha_d, self.mean_flow_bytes);
        // λ flows/s so that λ·E[S] = mean_rate.
        let lambda = self.mean_rate / self.mean_flow_bytes;
        let trains = TrainModel::new(self.min_flow_rate, self.max_flow_rate);

        // Zipf-ish popularity over hosts: host i chosen ∝ 1/(i+1).
        let weights: Vec<f64> = (0..self.n_hosts).map(|i| 1.0 / (i + 1) as f64).collect();
        let total_w: f64 = weights.iter().sum();

        // Flows that record no packet inside [0, duration] are left out
        // of the table: `flow_id[i]` is flow i's index in `kept`, or
        // u32::MAX for a dropped flow, and the sort renumbers packets.
        let mut kept: Vec<FlowKey> = Vec::new();
        let mut flow_id: Vec<u32> = Vec::new();
        // Sized for the target volume with headroom, so the buffer does
        // not grow by doubling; capacity never written is never resident.
        let expected = self.mean_rate * self.duration / MEAN_PACKET_SIZE;
        let mut packets: Vec<Packet> = Vec::with_capacity((1.25 * expected) as usize + 64);
        // Warm-up before t=0 so long flows already in progress at the
        // trace start contribute (stationarity).
        let warmup = (5.0 * self.mean_flow_bytes / self.min_flow_rate).max(30.0);
        let dt_arrivals = 0.1; // arrival bookkeeping granularity, seconds
        let mut t = -warmup;
        while t < self.duration {
            let n_new = poisson(&mut rng, lambda * dt_arrivals);
            for _ in 0..n_new {
                let start = t + rng.gen::<f64>() * dt_arrivals;
                let bytes = size_dist.sample(&mut rng);
                let key = self.random_flow_key(&mut rng, &weights, total_w);
                let recorded = packets.len();
                let id = flow_id.len() as u32;
                trains.emit_flow(&mut rng, &mut packets, id, start, bytes, self.duration);
                if packets.len() > recorded {
                    flow_id.push(kept.len() as u32);
                    kept.push(key);
                } else {
                    flow_id.push(u32::MAX);
                }
            }
            t += dt_arrivals;
        }
        sort_by_time(&mut packets, self.duration, &flow_id);
        PacketTrace::new(kept, packets, self.duration)
    }

    fn random_flow_key(&self, rng: &mut impl Rng, weights: &[f64], total_w: f64) -> FlowKey {
        fn pick(rng: &mut impl Rng, weights: &[f64], total_w: f64) -> u32 {
            let mut x = rng.gen::<f64>() * total_w;
            for (i, w) in weights.iter().enumerate() {
                if x < *w {
                    return i as u32;
                }
                x -= w;
            }
            (weights.len() - 1) as u32
        }
        let src = pick(rng, weights, total_w);
        let mut dst = pick(rng, weights, total_w);
        if dst == src {
            dst = (src + 1) % self.n_hosts;
        }
        let proto = if rng.gen::<f64>() < 0.9 {
            Protocol::Tcp
        } else {
            Protocol::Udp
        };
        FlowKey {
            src,
            dst,
            src_port: rng.gen_range(1024..65535),
            dst_port: *[80u16, 443, 8080, 25, 53]
                .get(rng.gen_range(0..5))
                .expect("in range"),
            proto,
        }
    }
}

/// Train-structured within-flow transmission.
///
/// A flow transfers its bytes as a sequence of packet *trains*: each
/// train has an instantaneous rate drawn from a bounded Pareto(1.71)
/// and a heavy-tailed duration, with short idle gaps in between. Two
/// calibration facts follow (both matching the paper's measurements of
/// the Bell Labs trace):
///
/// * the **time-weighted** distribution of the instantaneous rate — which
///   is what binning observes — inherits the train-rate tail (α ≈ 1.71,
///   Fig. 8b), because train durations are independent of train rates
///   (contrast: constant-rate flows weight fast flows by 1/rate and
///   lighten the observed tail by a full power);
/// * exceedance 1-bursts track train/flow durations and stay
///   heavy-tailed (Fig. 7b).
#[derive(Clone, Copy, Debug)]
struct TrainModel {
    rate_dist: BoundedPareto,
    duration_dist: Pareto,
    mean_gap: f64,
}

impl TrainModel {
    fn new(min_rate: f64, max_rate: f64) -> Self {
        TrainModel {
            rate_dist: BoundedPareto::new(1.71, min_rate, max_rate),
            // Train length: Pareto(1.5), mean 100 ms.
            duration_dist: Pareto::with_mean(1.5, 0.1),
            mean_gap: 0.15,
        }
    }

    /// Expected bytes delivered by one train, `E[R]·E[T]`.
    fn mean_train_volume(&self) -> f64 {
        self.rate_dist.mean() * self.duration_dist.mean()
    }

    /// Emits the packets of one flow from `start`; only packets landing
    /// in `[0, horizon]` are recorded.
    ///
    /// The flow's size sets its *train count* (`⌈bytes / E[R·T]⌉`), and
    /// every train then ships its full `R·T` volume. Capping a train at
    /// the flow's residual bytes would make fast trains brief (active
    /// time ∝ 1/R) and lighten the observed rate tail by one power — the
    /// train-count formulation keeps rate and active-time independent,
    /// which is what pins the binned marginal tail at the train-rate α.
    fn emit_flow(
        &self,
        rng: &mut impl Rng,
        packets: &mut Vec<Packet>,
        flow_id: u32,
        start: f64,
        bytes: f64,
        horizon: f64,
    ) {
        let n_trains = ((bytes / self.mean_train_volume()).round() as usize).max(1);
        let mut t = start;
        for _ in 0..n_trains {
            if t > horizon {
                return;
            }
            let rate = self.rate_dist.sample(rng);
            let train_len = self.duration_dist.sample(rng).min(10.0);
            let volume = rate * train_len;
            let mut shipped = 0.0f64;
            while shipped < volume {
                let size = draw_packet_size(rng);
                // With a full-size packet's worth left, the clamp below
                // is the identity (40 ≤ size ≤ 1500 ≤ ⌈rest⌉).
                let rest = volume - shipped;
                let effective = if rest >= MAX_PACKET_SIZE {
                    size
                } else {
                    size.min(rest.ceil() as u32).max(40)
                };
                if t >= 0.0 {
                    if t > horizon {
                        return;
                    }
                    packets.push(Packet {
                        time: t,
                        size: effective,
                        flow: flow_id,
                    });
                } else if t > horizon {
                    return;
                }
                shipped += effective as f64;
                t += effective as f64 / rate;
            }
            // Idle gap between trains (exponential, mean 150 ms).
            let u: f64 = rng.gen::<f64>().max(1e-12);
            t += (-u.ln()) * self.mean_gap;
        }
    }
}

/// Draws a size from [`PACKET_SIZE_MIX`]: the first size whose
/// cumulative probability exceeds a uniform `x`. The cumulative sums
/// are exact doubles and `x < 1`, so counting the edges `x` has reached
/// picks the same size as scanning the table.
fn draw_packet_size(rng: &mut impl Rng) -> u32 {
    let x: f64 = rng.gen();
    let [(s0, _), (s1, _), (s2, _)] = PACKET_SIZE_MIX;
    [s0, s1, s2][usize::from(x >= SIZE_EDGES[0]) + usize::from(x >= SIZE_EDGES[1])]
}

/// Time slices of [`sort_by_time`]'s coarse pass, at most.
const TIME_SLICES: usize = 256;

/// The coarse pass's slice count for `n` packets: 256, or fewer so a
/// short trace pays no per-slice cost for slices of a packet or two.
fn slice_count(n: usize) -> usize {
    (n / TIME_SLICES).clamp(1, TIME_SLICES)
}

/// Packets per bucket, on average, in [`sort_by_time`]'s fine pass.
const PACKETS_PER_BUCKET: usize = 2;

/// Sorts `packets` stably by time and renumbers each packet's flow as
/// `flow_id[flow]` on the way: the result equals a stable
/// `sort_by(partial_cmp)` on time followed by the renumbering, for any
/// finite times (see the module docs).
///
/// `horizon` sets the slice and bucket scale only; times outside
/// `[0, horizon]` land in the first or last slice and are still
/// ordered correctly.
fn sort_by_time(packets: &mut [Packet], horizon: f64, flow_id: &[u32]) {
    let n = packets.len();
    // Coarse pass: stable counting scatter into equal time slices.
    let slices = slice_count(n);
    let scale = slices as f64 / horizon;
    let slice_of = |t: f64| ((t * scale) as usize).min(slices - 1);
    let mut starts = [0usize; TIME_SLICES + 1];
    for p in packets.iter() {
        starts[slice_of(p.time) + 1] += 1;
    }
    for j in 0..slices {
        starts[j + 1] += starts[j];
    }
    let mut scratch = vec![
        Packet {
            time: 0.0,
            size: 0,
            flow: 0,
        };
        n
    ];
    let mut next = starts;
    for p in packets.iter() {
        let slot = &mut next[slice_of(p.time)];
        scratch[*slot] = Packet {
            flow: flow_id[p.flow as usize],
            ..*p
        };
        *slot += 1;
    }
    // Fine pass, per slice: stable counting scatter back into
    // `packets` over buckets of about `PACKETS_PER_BUCKET`, then an
    // insertion sort that never moves a packet past an equal time.
    let mut counts: Vec<usize> = Vec::new();
    for j in 0..slices {
        let (lo, hi) = (starts[j], starts[j + 1]);
        let (src, dst) = (&scratch[lo..hi], &mut packets[lo..hi]);
        let buckets = src.len() / PACKETS_PER_BUCKET + 1;
        let fine = scale * buckets as f64;
        let first = j * buckets;
        let bucket_of = |t: f64| ((t * fine) as usize).saturating_sub(first).min(buckets - 1);
        counts.clear();
        counts.resize(buckets + 1, 0);
        for p in src {
            counts[bucket_of(p.time) + 1] += 1;
        }
        for b in 0..buckets {
            counts[b + 1] += counts[b];
        }
        for p in src {
            let slot = &mut counts[bucket_of(p.time)];
            dst[*slot] = *p;
            *slot += 1;
        }
        for i in 1..dst.len() {
            let p = dst[i];
            let mut k = i;
            while k > 0 && dst[k - 1].time > p.time {
                dst[k] = dst[k - 1];
                k -= 1;
            }
            dst[k] = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_trace(seed: u64) -> PacketTrace {
        TraceSynthesizer::bell_labs_like()
            .duration(120.0)
            .synthesize(seed)
    }

    #[test]
    fn determinism() {
        assert_eq!(quick_trace(3), quick_trace(3));
        assert_ne!(quick_trace(3), quick_trace(4));
    }

    #[test]
    fn mean_rate_close_to_target() {
        let t = TraceSynthesizer::bell_labs_like()
            .duration(600.0)
            .synthesize(11);
        let target = 1.21e4;
        // Heavy-tailed flow sizes: slow convergence; accept a wide band.
        assert!(
            (t.mean_rate() - target).abs() / target < 0.5,
            "rate={} target={target}",
            t.mean_rate()
        );
    }

    #[test]
    fn packets_sorted_and_in_horizon() {
        let t = quick_trace(5);
        let mut prev = 0.0;
        for p in t.packets() {
            assert!(p.time >= prev);
            assert!(p.time <= t.duration());
            assert!(p.size >= 40 && p.size <= 1500);
            prev = p.time;
        }
    }

    #[test]
    fn many_od_pairs() {
        let t = TraceSynthesizer::bell_labs_like()
            .duration(300.0)
            .synthesize(9);
        assert!(t.od_pair_count() > 50, "pairs={}", t.od_pair_count());
    }

    #[test]
    fn duration_shape_matches_target_hurst() {
        let s = TraceSynthesizer::bell_labs_like();
        assert!((s.duration_shape() - 1.76).abs() < 1e-12);
        let s2 = s.clone().target_hurst(0.8);
        assert!((s2.duration_shape() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn binned_series_is_lrd() {
        // Consensus Hurst of the 10 ms-binned rate should be in the LRD
        // band around the 0.62 target.
        let t = TraceSynthesizer::bell_labs_like()
            .duration(1200.0)
            .synthesize(21);
        let ts = t.to_rate_series(0.01);
        let h = sst_hurst_probe::consensus(ts.values());
        assert!(h > 0.52 && h < 0.8, "H={h}");
    }

    // Minimal local probe to avoid a dev-dependency cycle with sst-hurst:
    // aggregated-variance estimate, which is all this smoke test needs.
    mod sst_hurst_probe {
        pub fn consensus(values: &[f64]) -> f64 {
            let n = values.len();
            let var = |xs: &[f64]| {
                let m = xs.iter().sum::<f64>() / xs.len() as f64;
                xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
            };
            let agg = |m: usize| {
                let blocks = n / m;
                let means: Vec<f64> = (0..blocks)
                    .map(|b| values[b * m..(b + 1) * m].iter().sum::<f64>() / m as f64)
                    .collect();
                var(&means)
            };
            let (m1, m2) = (16usize, 1024usize);
            let (v1, v2) = (agg(m1), agg(m2));
            1.0 + ((v2 / v1).ln() / ((m2 as f64 / m1 as f64).ln())) / 2.0
        }
    }

    /// `sort_by_time` against a stable `sort_by(partial_cmp)` then the
    /// renumbering, bit for bit: each packet's size is its emission
    /// index, so any reordering of equal times shows.
    fn check_sort(times: &[f64], horizon: f64) {
        let flow_id = [3u32, 1, 4, 0, 6, 2, 5];
        let packets: Vec<Packet> = times
            .iter()
            .enumerate()
            .map(|(i, &time)| Packet {
                time,
                size: i as u32 + 1,
                flow: (i % flow_id.len()) as u32,
            })
            .collect();
        let mut want = packets.clone();
        want.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite"));
        for p in &mut want {
            p.flow = flow_id[p.flow as usize];
        }
        let mut got = packets;
        sort_by_time(&mut got, horizon, &flow_id);
        let bits = |v: &[Packet]| -> Vec<(u64, u32, u32)> {
            v.iter()
                .map(|p| (p.time.to_bits(), p.size, p.flow))
                .collect()
        };
        assert_eq!(bits(&got), bits(&want), "horizon {horizon}");
    }

    /// A small deterministic generator for the sort tests.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn time_sort_matches_stable_sort_on_edge_cases() {
        // Zero packets, one packet, all times equal.
        check_sort(&[], 1.0);
        check_sort(&[0.25], 1.0);
        check_sort(&[7.5; 300], 10.0);
        check_sort(&[0.0; 50], 10.0);
        // 0.0 and -0.0 compare equal and keep their order, and
        // t == horizon lands in the last slice.
        check_sort(&[0.0, -0.0, 10.0, 0.0, -0.0, 10.0, 5.0, -0.0], 10.0);
        // Times exactly on slice edges (and the float neighbours of
        // each), emitted in reverse, then forwards, and repeated so the
        // trace is long enough for all 256 slices.
        for horizon in [1.0, 120.0, 0.05, 3.0] {
            let mut edges = Vec::new();
            for k in (0..=TIME_SLICES).rev() {
                let edge = k as f64 * horizon / TIME_SLICES as f64;
                edges.extend([edge.next_up(), edge, edge.next_down().max(0.0)]);
            }
            edges.extend(edges.clone().iter().rev());
            let times = edges.repeat(TIME_SLICES * TIME_SLICES / edges.len() + 1);
            assert_eq!(slice_count(times.len()), TIME_SLICES);
            check_sort(&times, horizon);
        }
        // Bucket edges: a trace of 300 packets is one slice of 151
        // buckets, whose edges are the multiples of horizon / 151.
        let horizon = 2.0;
        let buckets = 300 / PACKETS_PER_BUCKET + 1;
        let times: Vec<f64> = (0..300)
            .map(|i| ((i * 7) % buckets) as f64 * horizon / buckets as f64)
            .collect();
        assert_eq!(slice_count(times.len()), 1);
        check_sort(&times, horizon);
    }

    #[test]
    fn time_sort_matches_stable_sort_on_random_and_tied_times() {
        let mut state = 17;
        for (n, horizon, distinct) in [
            (5_000, 60.0, None),
            (5_000, 60.0, Some(40)),
            (2_000, 0.05, Some(3)),
            (20_000, 120.0, Some(2_000)),
        ] {
            // Equal times across flows: draw from `distinct` values.
            let grid: Vec<f64> = (0..distinct.unwrap_or(0))
                .map(|_| lcg(&mut state) * horizon)
                .collect();
            let times: Vec<f64> = (0..n)
                .map(|_| match distinct {
                    Some(k) => grid[(lcg(&mut state) * k as f64) as usize],
                    None => lcg(&mut state) * horizon,
                })
                .collect();
            check_sort(&times, horizon);
            // A burst: every time inside one slice.
            let burst: Vec<f64> = times.iter().map(|t| 0.5 + t / horizon * 1e-3).collect();
            check_sort(&burst, horizon);
        }
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn invalid_duration_panics() {
        TraceSynthesizer::bell_labs_like().duration(0.0);
    }
}
