//! Pins key-grouped batch ingest to per-point ingest: an engine fed
//! through `offer_batch` — which groups each pass by key and feeds every
//! stream its run in one table probe — must hold byte-identical state to
//! one fed the same points through `offer`, for every sampler, shard
//! count and batch size, with eviction and compaction running, untiered
//! and with the sketch tier on. Also pins
//! what a sequenced collector ships per flush on that path.

use sst_monitor::topology::Collector;
use sst_monitor::{
    encode_snapshot, Frame, FrameDecoder, MonitorConfig, MonitorEngine, SamplerSpec,
};
use std::collections::BTreeSet;

/// One SplitMix64 step: the test's own seeded source.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `(0, 1]`.
fn unit(state: &mut u64) -> f64 {
    ((splitmix(state) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// `n` keyed points with heavy-tailed flow popularity (Pareto ranks,
/// α = 1.1, up to 20 000 flows: a few flows carry most points, most
/// flows a handful) and heavy-tailed values (Pareto sizes, α = 1.5).
fn heavy_tailed_points(seed: u64, n: usize) -> Vec<(u64, f64)> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            let rank = unit(&mut s).powf(-1.0 / 1.1).min(20_000.0) as u64;
            let key = rank.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let value = 40.0 * unit(&mut s).powf(-1.0 / 1.5);
            (key, value)
        })
        .collect()
}

fn specs() -> [SamplerSpec; 5] {
    [
        SamplerSpec::TakeAll,
        SamplerSpec::Systematic { interval: 7 },
        SamplerSpec::Stratified { interval: 5 },
        SamplerSpec::SimpleRandom { rate: 0.3 },
        SamplerSpec::Bss {
            interval: 10,
            epsilon: 1.0,
            n_pre: 16,
            l: 4,
        },
    ]
}

/// Batch sizes straddling the parallel fan-out threshold (4096) and the
/// 2¹⁶-point grouping pass, each with the number of batches to feed.
const BATCHES: [(usize, usize); 4] = [(1, 1500), (4095, 3), (4096, 3), (70_000, 2)];

/// Idle eviction, an LRU cap and compaction, sweeping once per batch so
/// per-point and batched feeds sweep at the same ticks.
fn config(spec: SamplerSpec, shards: usize, batch: usize) -> MonitorConfig {
    MonitorConfig::default()
        .sampler(spec)
        .shards(shards)
        .seed(11)
        .evict_idle_after(1000)
        .max_streams(300)
        .compact_budget(768)
        .sweep_every(batch as u64)
}

/// [`config`], with the sketch tier on when `tiered`: 16 exact
/// streams, so the long tail is sketched and hot tail keys promote,
/// demoting cold streams.
fn case_config(spec: SamplerSpec, tiered: bool, shards: usize, batch: usize) -> MonitorConfig {
    let config = config(spec, shards, batch);
    if tiered {
        config
            .max_exact_keys(16)
            .sketch_bytes(1 << 14)
            .promote_after(8)
    } else {
        config
    }
}

#[test]
fn grouped_batches_match_pointwise_offer_bytes() {
    for (batch, n_batches) in BATCHES {
        let points = heavy_tailed_points(batch as u64, batch * n_batches);
        let cases = specs()
            .into_iter()
            .flat_map(|spec| [(spec, false), (spec, true)]);
        for (spec, tiered) in cases {
            let mut pointwise = MonitorEngine::new(case_config(spec, tiered, 1, batch));
            for &(k, v) in &points {
                pointwise.offer(k, v);
            }
            let expected = encode_snapshot(&pointwise.full_snapshot());
            assert!(
                tiered || pointwise.lifecycle_stats().evicted > 0,
                "batch {batch} {spec:?}: nothing evicted"
            );
            assert!(
                !tiered || pointwise.tier_stats().is_some_and(|t| t.demotions > 0),
                "batch {batch} {spec:?}: nothing demoted"
            );
            for shards in [1, 2, 8] {
                let mut grouped = MonitorEngine::new(case_config(spec, tiered, shards, batch));
                for chunk in points.chunks(batch) {
                    grouped.offer_batch(chunk);
                }
                assert_eq!(
                    grouped.lifecycle_stats(),
                    pointwise.lifecycle_stats(),
                    "batch {batch} shards {shards} {spec:?} tiered {tiered}: lifecycle"
                );
                assert!(
                    encode_snapshot(&grouped.full_snapshot()) == expected,
                    "batch {batch} shards {shards} {spec:?} tiered {tiered}: snapshot bytes differ"
                );
            }
        }
    }
}

#[test]
fn grouped_flushes_ship_exactly_the_live_keys_offered() {
    let spec = specs()[4];
    for (batch, n_batches) in BATCHES {
        let points = heavy_tailed_points(batch as u64 ^ 0x5EA1, batch * n_batches);
        for shards in [1, 2, 8] {
            let mut c = Collector::new_sequenced(5, config(spec, shards, batch));
            let mut shipped_any = false;
            for (i, chunk) in points.chunks(batch).enumerate() {
                c.offer_batch(chunk);
                let offered: BTreeSet<u64> = chunk.iter().map(|&(k, _)| k).collect();
                let live: BTreeSet<u64> = c
                    .engine()
                    .snapshot()
                    .streams()
                    .iter()
                    .map(|e| e.key)
                    .collect();
                let expected: Vec<u64> = offered.intersection(&live).copied().collect();

                let first = c.next_seq();
                c.seal_flush();
                let mut decoder = FrameDecoder::new();
                for (_, bytes) in c.unsent_window(first) {
                    decoder.push(bytes);
                }
                let mut shipped: Vec<u64> = Vec::new();
                while let Some(frame) = decoder.next_frame().expect("sealed frames decode") {
                    match frame {
                        Frame::Delta(snap) => shipped.extend(snap.streams().iter().map(|e| e.key)),
                        Frame::DeltaDiff(diffs) => shipped.extend(diffs.iter().map(|d| d.key)),
                        Frame::Evicted(_) => {}
                        other => panic!("flush {i}: unexpected {}", other.kind_name()),
                    }
                }
                shipped.sort_unstable();
                assert_eq!(
                    shipped, expected,
                    "batch {batch} shards {shards} flush {i}: shipped keys"
                );
                shipped_any |= !shipped.is_empty();
                if c.next_seq() > first {
                    c.ack(c.next_seq() - 1);
                }
            }
            assert!(
                shipped_any,
                "batch {batch} shards {shards}: nothing shipped"
            );
        }
    }
}
