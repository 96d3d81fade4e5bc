//! The engine's load-bearing guarantee, pinned end to end: sharded
//! ingest of a deterministic synthesized packet trace is bit-for-bit
//! equivalent to unsharded ingest — kept samples (reservoir), moments,
//! Hurst block accumulators, tail ladders, sampler counters, all of it
//! — and snapshots of disjoint engines merge to the same bits.

use sst_monitor::{
    decode_snapshot, encode_snapshot, EngineSnapshot, MonitorConfig, MonitorEngine, SamplerSpec,
};
use sst_nettrace::TraceSynthesizer;

fn trace_points() -> Vec<(u64, f64)> {
    // The Bell-Labs preset is a sparse measured subset (~14 pkt/s);
    // raise the offered load so the engine sees a dense multiplexed
    // stream worth sharding.
    TraceSynthesizer::bell_labs_like()
        .duration(240.0)
        .mean_rate(2.0e5)
        .synthesize(20050607)
        .od_keyed_points()
}

fn config(spec: SamplerSpec) -> MonitorConfig {
    MonitorConfig::default()
        .sampler(spec)
        .seed(42)
        .tail_thresholds(vec![64.0, 576.0, 1400.0])
}

fn snapshot_with_shards(points: &[(u64, f64)], spec: SamplerSpec, shards: usize) -> EngineSnapshot {
    let mut engine = MonitorEngine::new(config(spec).shards(shards));
    // Mix batch sizes so both the inline and the pool-fanned ingest
    // paths are exercised.
    let (head, tail) = points.split_at(points.len() / 3);
    for &(k, v) in head {
        engine.offer(k, v);
    }
    for chunk in tail.chunks(1 << 14) {
        engine.offer_batch(chunk);
    }
    engine.snapshot()
}

#[test]
fn sharded_ingest_is_bit_identical_for_1_2_8_shards() {
    let points = trace_points();
    assert!(points.len() > 50_000, "workload too small to mean anything");
    for spec in [
        SamplerSpec::Systematic { interval: 7 },
        SamplerSpec::SimpleRandom { rate: 0.2 },
        SamplerSpec::Bss {
            interval: 11,
            epsilon: 1.0,
            n_pre: 8,
            l: 3,
        },
    ] {
        let reference = snapshot_with_shards(&points, spec, 1);
        assert!(reference.stream_count() > 10, "{spec:?}: too few streams");
        for shards in [2usize, 8] {
            let sharded = snapshot_with_shards(&points, spec, shards);
            // Full bitwise equality: every stream entry (kept-sample
            // reservoir, Welford moments, dyadic Hurst blocks, tail
            // ladder, sampler counters) and hence every aggregate.
            assert_eq!(sharded, reference, "{spec:?} with {shards} shards");
            assert_eq!(
                sharded.aggregate(),
                reference.aggregate(),
                "{spec:?} aggregate with {shards} shards"
            );
        }
    }
}

#[test]
fn disjoint_engines_merge_to_the_unsharded_bits() {
    let points = trace_points();
    let spec = SamplerSpec::Systematic { interval: 5 };
    let whole = snapshot_with_shards(&points, spec, 4);
    // Network roll-up: three collectors, each watching a disjoint key
    // slice (as a deployment would partition links).
    let mut parts: Vec<MonitorEngine> = (0..3)
        .map(|_| MonitorEngine::new(config(spec).shards(2)))
        .collect();
    for &(k, v) in &points {
        parts[(k % 3) as usize].offer(k, v);
    }
    let merged = parts
        .iter()
        .map(|e| e.snapshot())
        .fold(EngineSnapshot::default(), |acc, s| acc.merge(s));
    assert_eq!(merged, whole);
    // And the codec carries the roll-up losslessly.
    let back = decode_snapshot(&encode_snapshot(&merged)).expect("decode");
    assert_eq!(back, whole);
}

#[test]
fn engine_online_hurst_tracks_offline_estimate_on_fgn() {
    // Acceptance bound: the engine's per-stream online Hurst agrees
    // with the offline aggregated-variance estimator within 0.02 when
    // the sampler keeps everything.
    use sst_hurst::VarianceTimeEstimator;
    use sst_traffic::FgnGenerator;
    for &h in &[0.6, 0.75, 0.9] {
        let vals = FgnGenerator::new(h)
            .expect("valid H")
            .generate_values(1 << 16, 13);
        let mut engine = MonitorEngine::new(
            MonitorConfig::default()
                .sampler(SamplerSpec::TakeAll)
                .shards(2),
        );
        for &v in &vals {
            engine.offer(7, v);
        }
        let snap = engine.snapshot();
        let online = snap.streams()[0]
            .summary
            .hurst_estimate()
            .expect("enough data");
        let offline = VarianceTimeEstimator::default()
            .estimate(&vals)
            .expect("enough data")
            .hurst;
        assert!(
            (online - offline).abs() < 0.02,
            "H={h}: engine online {online:.4} vs offline {offline:.4}"
        );
    }
}

#[test]
fn sampled_streams_still_recover_mean_and_tail_shape() {
    // The monitoring point of the paper's samplers: at 1-in-7 the kept
    // stream's mean tracks the full stream's mean per OD pair.
    let points = trace_points();
    let full = snapshot_with_shards(&points, SamplerSpec::TakeAll, 2);
    let sampled = snapshot_with_shards(&points, SamplerSpec::Systematic { interval: 7 }, 2);
    let full_mean = full.aggregate().moments.mean();
    let samp_mean = sampled.aggregate().moments.mean();
    assert!(
        (samp_mean - full_mean).abs() / full_mean < 0.1,
        "sampled mean {samp_mean:.1} vs full {full_mean:.1}"
    );
    let kept_ratio = sampled.sampler_totals().kept as f64 / full.sampler_totals().kept as f64;
    assert!(
        (kept_ratio - 1.0 / 7.0).abs() < 0.02,
        "kept ratio {kept_ratio:.4} vs 1/7"
    );
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn rollup_bytes_match_pinned_digests() {
    // FNV-1a digests of the operator's roll-up, as perfbench's
    // `rollup_merge` runs it at a smaller shape: four link engines over
    // one Zipf host population (so busy OD pairs appear on every link),
    // left-folded from the empty snapshot, compacted to 768 B per
    // summary and encoded. Reservoir merges mix parts that never filled
    // (weight 1) with full ones, and the compaction subsamples every
    // merged reservoir above its budget. Any change to the merge keys,
    // their order, the entry merge or the compaction moves them.
    const PINS: [(u64, u64); 2] = [(101, 0xd8c5_79d6_47bb_1ed2), (4242, 0x0d19_449e_920b_0784)];
    for (seed, pin) in PINS {
        let config = MonitorConfig::default()
            .sampler(SamplerSpec::Bss {
                interval: 10,
                epsilon: 1.0,
                n_pre: 16,
                l: 4,
            })
            .shards(1)
            .seed(seed)
            .tail_thresholds(vec![64.0, 256.0, 576.0, 1024.0, 1400.0]);
        let links: Vec<EngineSnapshot> = (0..4u64)
            .map(|link| {
                let points = TraceSynthesizer::bell_labs_like()
                    .hosts(60)
                    .mean_rate(3.0e5)
                    .duration(30.0)
                    .synthesize(seed * 10 + link)
                    .od_keyed_points();
                let mut engine = MonitorEngine::new(config.clone());
                engine.offer_batch(&points);
                engine.full_snapshot()
            })
            .collect();
        let input_streams: usize = links.iter().map(EngineSnapshot::stream_count).sum();
        let mut merged = links
            .into_iter()
            .fold(EngineSnapshot::default(), |acc, s| acc.merge(s));
        assert!(
            merged.stream_count() < input_streams,
            "seed {seed}: links share no key"
        );
        merged.compact(768);
        assert!(
            merged.streams().iter().any(
                |e| e.summary.reservoir.items.len() < e.summary.reservoir.seen.min(64) as usize
            ),
            "seed {seed}: compaction kept every item"
        );
        let bytes = encode_snapshot(&merged);
        assert_eq!(
            fnv1a(&bytes),
            pin,
            "seed {seed}: {} streams, {} B",
            merged.stream_count(),
            bytes.len()
        );
    }
}
