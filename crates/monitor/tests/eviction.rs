//! Lifecycle-layer pins: eviction edge cases and the compaction memory
//! bound.
//!
//! * an evicted key that reappears resumes as a *fresh* stream (sampler
//!   re-seeded exactly as on first sight),
//! * final-snapshot-on-evict keeps the full snapshot bit-identical to a
//!   never-evicting engine when keys do not outlive their eviction,
//! * zero-stream snapshots stay merge identities,
//! * compaction bounds steady-state per-stream memory below 1 KB under
//!   a 100k-key churn workload while totals stay exact.

use sst_core::stream::{StreamSampler, StreamingSystematic};
use sst_monitor::{decode_snapshot, encode_snapshot, MonitorConfig, MonitorEngine, SamplerSpec};
use sst_stats::rng::derive_seed;

#[test]
fn evicted_key_resumes_as_a_fresh_stream() {
    let mut engine = MonitorEngine::new(
        MonitorConfig::default()
            .sampler(SamplerSpec::Systematic { interval: 5 })
            .seed(9)
            .evict_idle_after(100)
            .sweep_every(50),
    );
    for i in 0..500u64 {
        engine.offer(42, (i % 13) as f64);
    }
    // Advance the clock on another key until 42 is idle, then sweep.
    for i in 0..500u64 {
        engine.offer(7, i as f64);
    }
    engine.maintain();
    let live: Vec<u64> = engine.snapshot().streams().iter().map(|e| e.key).collect();
    assert!(!live.contains(&42), "42 must be evicted, live: {live:?}");
    // A standalone engine keeps the final in its retired store, served
    // by full_snapshot.
    let full = engine.full_snapshot();
    let final42 = full
        .streams()
        .iter()
        .find(|e| e.key == 42)
        .expect("final snapshot retained");
    assert_eq!(final42.sampler.offered, 500);

    // Reappearance: the fresh stream's sampler is seeded from
    // (base_seed, key) exactly as on first sight — pin it against a
    // raw sampler at that seed.
    let mut raw = StreamingSystematic::new(5, derive_seed(9, 42)).unwrap();
    for i in 0..300u64 {
        let v = (i % 7) as f64;
        assert_eq!(engine.offer(42, v), raw.offer(v), "point {i}");
    }
    let snap = engine.snapshot();
    let fresh = snap
        .streams()
        .iter()
        .find(|e| e.key == 42)
        .expect("fresh incarnation is live");
    assert_eq!(fresh.sampler, raw.snapshot(), "fresh sampler state");
    assert_eq!(fresh.sampler.offered, 300, "counts restart from zero");

    // The full snapshot still accounts for both incarnations.
    let full = engine.full_snapshot();
    let merged42 = full.streams().iter().find(|e| e.key == 42).unwrap();
    assert_eq!(merged42.sampler.offered, 800);
}

#[test]
fn final_snapshot_on_evict_merges_identically_to_never_evicting() {
    // Burst workload: each key lives in one contiguous block of points
    // and never reappears, so eviction always happens after a stream's
    // last point — the full snapshot must then be *bit-identical* to a
    // never-evicting engine's (no compaction configured).
    let points: Vec<(u64, f64)> = (0..40_000u64)
        .map(|i| (i / 80, 1.0 + (i % 17) as f64))
        .collect();
    for spec in [
        SamplerSpec::TakeAll,
        SamplerSpec::Systematic { interval: 7 },
        SamplerSpec::Bss {
            interval: 9,
            epsilon: 1.0,
            n_pre: 8,
            l: 3,
        },
    ] {
        let base = MonitorConfig::default().sampler(spec).seed(5).shards(2);
        let mut reference = MonitorEngine::new(base.clone());
        let mut evicting =
            MonitorEngine::new(base.evict_idle_after(200).sweep_every(128).max_streams(64));
        for &(k, v) in &points {
            reference.offer(k, v);
            evicting.offer(k, v);
        }
        evicting.maintain();
        let stats = evicting.lifecycle_stats();
        assert!(
            stats.evicted > 300,
            "{spec:?}: eviction must actually run (evicted {})",
            stats.evicted
        );
        assert!(
            evicting.stream_count() < reference.stream_count(),
            "{spec:?}: live table must shrink"
        );
        assert_eq!(
            evicting.full_snapshot(),
            reference.snapshot(),
            "{spec:?}: finals + live must reassemble the never-evicting bits"
        );
    }
}

#[test]
fn zero_stream_snapshots_stay_merge_identities() {
    let empty = MonitorEngine::new(MonitorConfig::default()).snapshot();
    assert_eq!(empty.stream_count(), 0);
    // Codec round-trips the identity.
    assert_eq!(decode_snapshot(&encode_snapshot(&empty)).unwrap(), empty);

    let mut engine = MonitorEngine::new(
        MonitorConfig::default().sampler(SamplerSpec::Systematic { interval: 3 }),
    );
    for i in 0..5000u64 {
        engine.offer(i % 11, (i % 101) as f64);
    }
    let s = engine.snapshot();
    assert_eq!(empty.clone().merge(s.clone()), s, "left identity");
    assert_eq!(s.clone().merge(empty.clone()), s, "right identity");
    // An evicting engine that saw nothing is the identity too.
    let mut idle = MonitorEngine::new(
        MonitorConfig::default()
            .evict_idle_after(10)
            .max_streams(4)
            .compact_budget(512),
    );
    idle.maintain();
    let idle_snap = idle.full_snapshot();
    assert_eq!(idle_snap.stream_count(), 0);
    assert_eq!(idle_snap.merge(s.clone()), s);
}

#[test]
fn compaction_bounds_per_stream_memory_under_100k_key_churn() {
    // The scale acceptance pin: 2^20 points over ~131k churning keys
    // (each key lives for 8 consecutive points, then never returns).
    // With idle eviction + compaction, total engine state must
    // amortize below 1 KB per distinct key, while the full snapshot
    // keeps aggregate totals exact.
    let n: u64 = 1 << 20;
    let points: Vec<(u64, f64)> = (0..n).map(|i| (i / 8, 40.0 + (i % 1461) as f64)).collect();
    let distinct = (n / 8) as usize;
    assert!(distinct > 100_000, "churn workload must exceed 100k keys");

    let mut engine = MonitorEngine::new(
        MonitorConfig::default()
            .shards(2)
            .seed(3)
            .evict_idle_after(4096)
            .sweep_every(4096)
            .compact_budget(768),
    );
    for chunk in points.chunks(1 << 14) {
        engine.offer_batch(chunk);
    }
    engine.maintain();

    let stats = engine.lifecycle_stats();
    assert!(
        stats.evicted as usize >= distinct - 2048,
        "churned keys must retire (evicted {} of {distinct})",
        stats.evicted
    );
    assert!(
        engine.stream_count() < 2048,
        "live table stays small ({} live)",
        engine.stream_count()
    );

    // Memory bound: total state (live + retired) per distinct key.
    let per_key = engine.estimated_state_bytes() as f64 / distinct as f64;
    assert!(
        per_key < 1024.0,
        "steady-state per-stream state must stay under 1 KB, got {per_key:.0} B"
    );

    // Totals stay exact: every point is accounted for in the full
    // snapshot even though almost every stream was evicted+compacted.
    let full = engine.full_snapshot();
    assert_eq!(full.stream_count(), distinct);
    let totals = full.sampler_totals();
    assert_eq!(totals.offered, n as usize);
    assert_eq!(totals.kept, n as usize, "TakeAll keeps everything");
    let agg = full.aggregate();
    assert_eq!(agg.moments.count(), n);
    assert_eq!(agg.tail.total(), n);
    let exact_sum: f64 = points.iter().map(|&(_, v)| v).sum();
    let vol = agg.kept_volume();
    assert!(
        ((vol - exact_sum) / exact_sum).abs() < 1e-9,
        "kept volume {vol} vs exact {exact_sum}"
    );
}
