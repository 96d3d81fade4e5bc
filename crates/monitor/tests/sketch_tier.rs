//! Acceptance pins for the two-tier (exact + sketch) keyed store:
//!
//! * the default `TierConfig` is the all-exact identity (no sketch
//!   section, exact-path bits unperturbed),
//! * 1.3M+ distinct keys fit a fixed sketch byte budget with
//!   offered/kept totals exact and snapshots byte-identical across
//!   shard counts,
//! * heavy-hitter streams in the exact tier are bit-identical to an
//!   all-exact engine, and the sketched tail's Hurst estimate stays
//!   within tolerance of one,
//! * promotion/demotion is deterministic, eviction frees exact slots,
//!   and the sketch image rides the collector → aggregator topology
//!   byte-identically,
//! * tiered snapshot and collector wire bytes match pinned digests,
//!   and so do an untiered steady-workload collector's wire bytes.

mod common;

use common::{finish, flush, ingest};
use sst_monitor::topology::{Aggregator, Collector};
use sst_monitor::{
    encode_frame, encode_snapshot, MonitorConfig, MonitorEngine, SamplerSpec, TierConfig,
};
use sst_nettrace::TraceSynthesizer;
use sst_traffic::FgnGenerator;

fn tiered(max_exact: usize) -> MonitorConfig {
    MonitorConfig::default()
        .sampler(SamplerSpec::TakeAll)
        .seed(77)
        .max_exact_keys(max_exact)
        .sketch_bytes(1 << 20)
}

#[test]
fn default_tier_config_is_all_exact_identity() {
    assert!(!TierConfig::default().enabled());
    let mut engine = MonitorEngine::new(MonitorConfig::default().shards(2).seed(3));
    for i in 0..20_000u64 {
        engine.offer(i % 100, (i % 13) as f64);
    }
    let snap = engine.snapshot();
    // No sketch section: the encoded bytes are the legacy v1 layout.
    assert!(snap.sketch().is_none());
    assert!(engine.tier_stats().is_none());
    assert_eq!(snap.sampler_totals().offered, 20_000);
}

#[test]
fn exact_path_unperturbed_below_the_cap() {
    // A tiered engine whose cap is never reached must keep every
    // per-stream state bit-identical to an untiered engine: the tier
    // only ever *routes*, it never touches exact streams.
    let pts: Vec<(u64, f64)> = (0..50_000u64)
        .map(|i| ((i * 2654435761) % 64, (i % 29) as f64))
        .collect();
    let mut plain = MonitorEngine::new(MonitorConfig::default().shards(4).seed(77));
    plain.offer_batch(&pts);
    let mut capped = MonitorEngine::new(tiered(1 << 20).shards(4));
    capped.offer_batch(&pts);
    assert_eq!(plain.snapshot().streams(), capped.snapshot().streams());
    let sk = capped.snapshot();
    let sk = sk.sketch().expect("tiered engine carries a sketch section");
    assert_eq!(sk.sampler.offered, 0, "nothing was sketched");
    let stats = capped.tier_stats().unwrap();
    assert_eq!(stats.exact_keys, 64);
    assert_eq!(stats.promotions + stats.demotions, 0);
}

#[test]
fn churn_1_4m_keys_fixed_budget_exact_totals_and_shard_identity() {
    // ~4.2M points over ~1.4M distinct keys — 10× past the 131k-key
    // scale — against 512 exact slots and a ~1 MiB sketch budget.
    const N: u64 = 1 << 22;
    let mut encodings = Vec::new();
    for shards in [1usize, 8] {
        let config = tiered(512).shards(shards).promote_after(1 << 20);
        let mut engine = MonitorEngine::new(config);
        let pts: Vec<(u64, f64)> = (0..N).map(|i| (i / 3, (i % 17) as f64 + 1.0)).collect();
        for chunk in pts.chunks(1 << 16) {
            engine.offer_batch(chunk);
        }
        engine.maintain();
        assert!(engine.stream_count() <= 512);
        let snap = engine.full_snapshot();
        // Totals are sacred: every point is counted exactly, however
        // many keys overflowed into the sketch.
        let totals = snap.sampler_totals();
        assert_eq!(totals.offered, N as usize);
        assert_eq!(totals.kept, N as usize);
        assert_eq!(snap.aggregate().moments.count(), N);
        // Bounded state: exact tier + fixed sketch structures, far
        // below anything per-key.
        let bytes = engine.estimated_state_bytes();
        assert!(bytes < 8 << 20, "state bytes {bytes} not bounded");
        let stats = engine.tier_stats().unwrap();
        assert!(
            stats.sketched_keys > 100_000,
            "sketch saw the key flood (estimate {})",
            stats.sketched_keys
        );
        encodings.push(encode_snapshot(&snap));
    }
    assert_eq!(encodings[0], encodings[1], "shards 1 vs 8");
}

#[test]
fn heavy_hitter_streams_bit_identical_to_all_exact() {
    // 16 heavy keys admitted first, a sparse tail of thousands beyond
    // the cap: the heavy streams' bits must equal an all-exact run's.
    let mut pts: Vec<(u64, f64)> = (0..16u64).map(|k| (k, 1.0)).collect();
    for i in 0..200_000u64 {
        if i % 4 == 0 {
            pts.push((10_000 + i, 2.0)); // tail: one point per key
        } else {
            pts.push((i % 16, 40.0 + (i % 11) as f64));
        }
    }
    let config = |t: bool| {
        let c = MonitorConfig::default()
            .sampler(SamplerSpec::Systematic { interval: 2 })
            .seed(9)
            .shards(2);
        if t {
            c.max_exact_keys(32).sketch_bytes(1 << 16)
        } else {
            c
        }
    };
    let mut exact = MonitorEngine::new(config(false));
    exact.offer_batch(&pts);
    let mut two_tier = MonitorEngine::new(config(true));
    two_tier.offer_batch(&pts);
    let exact_snap = exact.snapshot();
    let tier_snap = two_tier.snapshot();
    for k in 0..16u64 {
        let reference = exact_snap.streams().iter().find(|e| e.key == k).unwrap();
        let tiered_entry = tier_snap.streams().iter().find(|e| e.key == k).unwrap();
        // Bit-for-bit: sampler counters, moments, reservoir, Hurst
        // cascade, tail ladder — a promoted-for-life heavy hitter sees
        // exactly the points an all-exact engine would have fed it.
        assert_eq!(reference, tiered_entry, "heavy key {k}");
        assert_eq!(
            reference.summary.hurst_estimate(),
            tiered_entry.summary.hurst_estimate(),
            "heavy key {k} H"
        );
    }
    assert!(two_tier.tier_stats().unwrap().sketched_keys > 1_000);
}

#[test]
fn promotion_demotes_coldest_deterministically() {
    // 4 exact slots filled first-sight; a sparse sketched tail; then
    // key 99 turns hot and must be promoted, demoting the coldest
    // (fewest kept, then least-recently-touched) exact stream.
    let mut pts: Vec<(u64, f64)> = Vec::new();
    for k in 0..4u64 {
        for _ in 0..(4 + k * 8) {
            pts.push((k, 5.0)); // key 0 is the coldest
        }
    }
    for i in 0..200u64 {
        pts.push((10 + i % 40, 1.0)); // tail noise, never promoted
    }
    for _ in 0..200 {
        pts.push((99, 9.0)); // hot: count-min reaches promote_after
    }
    let mut encodings = Vec::new();
    for shards in [1usize, 8] {
        let mut engine = MonitorEngine::new(
            tiered(4)
                .shards(shards)
                .promote_after(16)
                .sketch_bytes(1 << 14),
        );
        engine.offer_batch(&pts);
        let stats = engine.tier_stats().unwrap();
        assert_eq!(stats.promotions, 1, "exactly key 99 promotes");
        assert_eq!(stats.demotions, 1, "exactly one victim demotes");
        assert!(engine.stream_count() <= 4);
        let snap = engine.full_snapshot();
        // The promoted key is live-exact; the demoted final is in the
        // retired store, so totals stay exact.
        assert!(snap.streams().iter().any(|e| e.key == 99));
        assert!(
            snap.streams().iter().any(|e| e.key == 0),
            "victim's final kept"
        );
        assert_eq!(snap.sampler_totals().offered, pts.len());
        encodings.push(encode_snapshot(&snap));
    }
    assert_eq!(encodings[0], encodings[1], "demotion is shard-independent");
}

#[test]
fn eviction_frees_exact_slots() {
    // Lifecycle eviction empties the live table; tier admission sees
    // the freed slots (membership *is* live-stream presence), so fresh
    // keys go exact again instead of being sketched forever.
    let mut engine = MonitorEngine::new(
        tiered(8)
            .evict_idle_after(64)
            .sweep_every(32)
            .promote_after(1 << 20), // promotion off: only eviction frees slots
    );
    for k in 0..8u64 {
        engine.offer(k, 1.0);
    }
    assert_eq!(engine.stream_count(), 8);
    // A steady flood on one new key: sketched while the table is full,
    // admitted exactly once the idle 8 are swept out.
    for _ in 0..200 {
        engine.offer(1_000, 1.0);
    }
    engine.maintain();
    assert!(engine.stream_count() < 8, "idle exact streams evicted");
    assert!(
        engine.snapshot().streams().iter().any(|e| e.key == 1_000),
        "freed slot admits the flood key exactly"
    );
    // Every point is still counted somewhere.
    let totals = engine.full_snapshot().sampler_totals();
    assert_eq!(totals.offered, 8 + 200);
}

#[test]
fn sketched_tail_hurst_within_tolerance_of_all_exact() {
    // 32 long-range-dependent flows (fGn, H = 0.8) in runs; 8 stay
    // exact, 24 are sketched. The tiered aggregate H and the
    // projection bank's tail H must track the all-exact aggregate H.
    const FLOWS: u64 = 32;
    const RUN: usize = 512;
    const PER_FLOW: usize = 1 << 13;
    let flows: Vec<Vec<f64>> = (0..FLOWS)
        .map(|f| {
            FgnGenerator::new(0.8)
                .unwrap()
                .generate_values(PER_FLOW, 100 + f)
        })
        .collect();
    let mut pts: Vec<(u64, f64)> = Vec::with_capacity(FLOWS as usize * PER_FLOW);
    for start in (0..PER_FLOW).step_by(RUN) {
        for (f, vals) in flows.iter().enumerate() {
            for v in &vals[start..start + RUN] {
                pts.push((f as u64, *v));
            }
        }
    }
    let mut exact = MonitorEngine::new(MonitorConfig::default().seed(77).shards(2));
    exact.offer_batch(&pts);
    let h_exact = exact
        .snapshot()
        .aggregate()
        .hurst_estimate()
        .expect("all-exact aggregate H");
    let mut two_tier = MonitorEngine::new(tiered(8).shards(2));
    two_tier.offer_batch(&pts);
    let tier_snap = two_tier.full_snapshot();
    let h_tiered = tier_snap
        .aggregate()
        .hurst_estimate()
        .expect("tiered aggregate H");
    assert!(
        (h_tiered - h_exact).abs() < 0.15,
        "aggregate H drifted: exact {h_exact:.3}, tiered {h_tiered:.3}"
    );
    let h_tail = tier_snap
        .sketch()
        .unwrap()
        .projected_hurst()
        .expect("projection bank estimable");
    assert!(
        (h_tail - h_exact).abs() < 0.2,
        "tail H drifted: exact {h_exact:.3}, projected {h_tail:.3}"
    );
}

/// Streams `points` through a tiered collector in many flushes and
/// returns the aggregator's assembled snapshot bytes.
fn collect_over_wire(config: MonitorConfig, points: &[(u64, f64)]) -> Vec<u8> {
    let mut collector = Collector::new_sequenced(7, config);
    let mut wire = Vec::new();
    for chunk in points.chunks(2_000) {
        collector.offer_batch(chunk);
        flush(&mut collector, &mut wire).unwrap();
    }
    finish(&mut collector, &mut wire).unwrap();
    let mut agg = Aggregator::new();
    ingest(&mut agg, &wire).unwrap();
    encode_snapshot(&agg.snapshot()).to_vec()
}

#[test]
fn tiered_collector_topology_is_byte_identical() {
    // A single tiered collector's frames reassemble to exactly the
    // standalone engine's full snapshot — sketch section included —
    // for every shard count. (One promotion/demotion event; repeated
    // same-key demotions coalesce per `Evicted` frame by design and
    // are pinned separately below.)
    let mut pts: Vec<(u64, f64)> = (0..16u64).map(|k| (k, 3.0)).collect();
    for i in 0..60_000u64 {
        if i % 2 == 0 {
            pts.push((1_000 + i, 1.0)); // unique sketched tail
        } else {
            pts.push((i % 16, (i % 19) as f64 + 1.0));
        }
        if i == 30_000 {
            // One late heavy hitter: a single promotion, demoting the
            // coldest exact stream exactly once.
            for _ in 0..100 {
                pts.push((999, 8.0));
            }
        }
    }
    let config = tiered(16).sketch_bytes(1 << 16).promote_after(64);
    let mut reference = MonitorEngine::new(config.clone());
    for chunk in pts.chunks(2_000) {
        reference.offer_batch(chunk);
    }
    let stats = reference.tier_stats().unwrap();
    assert_eq!(stats.promotions, 1);
    assert_eq!(stats.demotions, 1);
    let want = encode_snapshot(&reference.full_snapshot()).to_vec();
    for shards in [1usize, 2] {
        let got = collect_over_wire(config.clone().shards(shards), &pts);
        assert_eq!(got, want, "shards {shards}");
    }
}

#[test]
fn tiered_collector_churn_carries_sketch_and_totals() {
    // Hot promote/demote churn: repeated finals of one key coalesce
    // per `Evicted` frame (wire semantics), so exact-tier floats may
    // differ from a standalone fold in the last ulp — but the sketch
    // image is bit-identical through the topology, totals stay exact,
    // and the whole assembled snapshot is byte-identical across the
    // collector's shard counts.
    // Two alternating hot sets of 24 keys (> 16 exact slots) switching
    // every 4 000 points, plus a one-shot long tail: the off-duty set
    // gets demoted while the on-duty set promotes, and both keep
    // accumulating *guaranteed* SpaceSaving counts while sketched — so
    // churn stays heavy under the two-signal promotion gate, which a
    // static hot set no longer triggers (a demoted key's frozen
    // candidate entry can't instantly re-promote on a bare count-min
    // estimate).
    let pts: Vec<(u64, f64)> = (0..120_000u64)
        .map(|i| {
            let key = if i % 3 == 0 {
                1_000_000 + i
            } else {
                24 * ((i / 4_000) % 2) + i % 24
            };
            (key, (i % 19) as f64 + 1.0)
        })
        .collect();
    let config = tiered(16).sketch_bytes(1 << 16).promote_after(32);
    let mut reference = MonitorEngine::new(config.clone());
    for chunk in pts.chunks(2_000) {
        reference.offer_batch(chunk);
    }
    assert!(reference.tier_stats().unwrap().demotions > 100, "churny");
    let want = reference.full_snapshot();

    let mut collector = Collector::new_sequenced(7, config.clone());
    let mut wire = Vec::new();
    for chunk in pts.chunks(2_000) {
        collector.offer_batch(chunk);
        flush(&mut collector, &mut wire).unwrap();
    }
    finish(&mut collector, &mut wire).unwrap();
    let mut agg = Aggregator::new();
    ingest(&mut agg, &wire).unwrap();
    let got = agg.snapshot();

    assert_eq!(got.sketch(), want.sketch(), "sketch bit-identical");
    assert_eq!(got.sampler_totals(), want.sampler_totals());
    assert_eq!(
        got.aggregate().moments.count(),
        want.aggregate().moments.count()
    );
    // Same streams with the same exact per-stream counters.
    assert_eq!(got.stream_count(), want.stream_count());
    for (g, w) in got.streams().iter().zip(want.streams().iter()) {
        assert_eq!(g.key, w.key);
        assert_eq!(g.sampler, w.sampler, "key {}", g.key);
        assert_eq!(
            g.summary.moments.count(),
            w.summary.moments.count(),
            "key {}",
            g.key
        );
    }
    // And the assembled pipeline output itself is shard-independent.
    let one = collect_over_wire(config.clone().shards(1), &pts);
    let two = collect_over_wire(config.shards(2), &pts);
    assert_eq!(one, two, "collector shards 1 vs 2");
}

#[test]
fn serve_side_retired_cap_keeps_totals_exact() {
    // An aggregator bounding its retired store demotes the smallest
    // finals into sketch form: stream count drops, totals don't.
    let pts: Vec<(u64, f64)> = (0..50_000u64).map(|i| (i % 400, 2.0)).collect();
    let drive = |agg: &mut Aggregator| {
        let mut collector = Collector::new_sequenced(
            3,
            MonitorConfig::default()
                .seed(5)
                .evict_idle_after(300)
                .sweep_every(128),
        );
        let mut wire = Vec::new();
        for chunk in pts.chunks(1_000) {
            collector.offer_batch(chunk);
            flush(&mut collector, &mut wire).unwrap();
        }
        finish(&mut collector, &mut wire).unwrap();
        ingest(agg, &wire).unwrap();
    };
    let mut plain = Aggregator::new();
    drive(&mut plain);
    let mut capped = Aggregator::new().max_exact_keys(32).sketch_bytes(1 << 16);
    drive(&mut capped);
    let full = plain.snapshot();
    let tight = capped.snapshot();
    assert!(full.stream_count() > tight.stream_count());
    let sk = tight.sketch().expect("cap overflow built a sketch");
    assert!(sk.demotions > 0);
    // Offered/kept totals and moment counts survive the demotions.
    assert_eq!(full.sampler_totals(), tight.sampler_totals());
    assert_eq!(
        full.aggregate().moments.count(),
        tight.aggregate().moments.count()
    );
    assert!(capped.estimated_state_bytes() < plain.estimated_state_bytes());
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Alternating hot sets of 24 keys (over 16 exact slots) switching
/// every 3 000 points, a one-shot tail on every third point, and seeded
/// values: promotion and demotion churn on every switch.
fn churn_points(seed: u64) -> Vec<(u64, f64)> {
    let mut s = seed;
    (0..90_000u64)
        .map(|i| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = if i % 3 == 0 {
                (s >> 20) | 1 << 50
            } else {
                24 * ((i / 3_000) % 2) + (s >> 59) % 24
            };
            (key, 40.0 + (s >> 33) as f64 / f64::from(1u32 << 21))
        })
        .collect()
}

#[test]
fn tiered_bytes_match_pinned_digests() {
    // FNV-1a digests of (a) the encoded full snapshot of a tiered
    // engine and (b) every byte a tiered collector ships: `Hello`, each
    // flush's sealed window and the closing frames. They were taken
    // before tiered ingest moved to one stream-table probe per exact
    // point and SpaceSaving to an indexed heap, and they are the same
    // for every shard count. Any change to routing, victim choice or
    // the heavy-hitter table's contents moves them.
    const PINS: [(u64, u64, u64); 2] = [
        (3, 0x276e_5302_5e39_6a70, 0x6a29_b445_a275_b536),
        (41, 0x8aa8_ed72_e1b7_0517, 0xc3b1_aac2_8fba_33cb),
    ];
    for ((seed, snapshot_pin, wire_pin), shards) in PINS
        .into_iter()
        .flat_map(|pin| [1usize, 2, 8].map(|shards| (pin, shards)))
    {
        let config = tiered(16)
            .sampler(SamplerSpec::Bss {
                interval: 4,
                epsilon: 1.0,
                n_pre: 8,
                l: 2,
            })
            .seed(seed)
            .shards(shards)
            .sketch_bytes(1 << 14)
            .promote_after(24)
            .evict_idle_after(20_000)
            .compact_budget(768)
            .sweep_every(2_000);
        let pts = churn_points(seed);
        let mut engine = MonitorEngine::new(config.clone());
        for chunk in pts.chunks(2_000) {
            engine.offer_batch(chunk);
        }
        let demotions = engine.tier_stats().unwrap().demotions;
        assert!(demotions >= 100, "seed {seed}: {demotions} demotions");
        let snapshot = fnv1a(&encode_snapshot(&engine.full_snapshot()));

        let mut collector = Collector::new_sequenced(7, config);
        let mut wire = Vec::new();
        for chunk in pts.chunks(2_000) {
            collector.offer_batch(chunk);
            flush(&mut collector, &mut wire).unwrap();
        }
        finish(&mut collector, &mut wire).unwrap();
        let wire = fnv1a(&wire);
        assert_eq!(
            (snapshot, wire),
            (snapshot_pin, wire_pin),
            "seed {seed} shards {shards}"
        );
    }
}

#[test]
fn eight_table_keys_one_snapshot() {
    // Every stream table, grouping index and SpaceSaving table draws
    // its own random hash key, so eight engines alive at once lay the
    // same keys out eight ways. No byte may depend on that layout,
    // whatever the shard count.
    let config = |shards| {
        tiered(16)
            .seed(3)
            .shards(shards)
            .sketch_bytes(1 << 14)
            .promote_after(24)
            .evict_idle_after(20_000)
            .compact_budget(768)
            .sweep_every(2_000)
    };
    let pts = churn_points(3);
    let mut engines: Vec<MonitorEngine> = [1usize, 2, 8, 1, 2, 8, 1, 2]
        .into_iter()
        .map(|shards| MonitorEngine::new(config(shards)))
        .collect();
    for chunk in pts.chunks(2_000) {
        for engine in &mut engines {
            engine.offer_batch(chunk);
        }
    }
    assert!(engines[0].tier_stats().unwrap().promotions >= 100);
    let bytes: Vec<Vec<u8>> = engines
        .iter()
        .map(|e| encode_snapshot(&e.full_snapshot()).to_vec())
        .collect();
    for (i, b) in bytes.iter().enumerate() {
        assert!(
            *b == bytes[0],
            "engine {i} ({} shards) differs",
            engines[i].config().n_shards
        );
    }
}

/// OD-keyed packet sizes (40..1500 B, many repeats) from a short
/// Bell-Labs-like trace: thousands of points per busy key.
fn steady_points(seed: u64) -> Vec<(u64, f64)> {
    TraceSynthesizer::bell_labs_like()
        .hosts(40)
        .duration(240.0)
        .mean_rate(4.0e5)
        .synthesize(seed)
        .od_keyed_points()
}

/// Writes a `Resync {from_seq}` answer to `wire` — the `Resync`-mode
/// `Hello`, then the rebuilt window — and acks it.
fn resync(c: &mut Collector, from_seq: u64, wire: &mut Vec<u8>) {
    let hello = c.handle_resync(from_seq);
    wire.extend_from_slice(&encode_frame(&hello));
    let mut through = None;
    for (seq, bytes) in c.unsent_window(0) {
        wire.extend_from_slice(bytes);
        through = Some(seq);
    }
    if let Some(seq) = through {
        c.ack(seq);
    }
}

#[test]
fn steady_bytes_match_pinned_digests() {
    // FNV-1a digests of every byte an *untiered* collector on the
    // steady OD workload's sampler and ladder ships, where `DeltaDiff`
    // frames dominate: `Hello`, each 2 000-point flush's sealed window,
    // one mid-session resync, and the closing frames. They were taken
    // while every seal still compared each key's live state with a
    // stored copy of its last shipped entry, and they are the same for
    // every shard count. One arm runs a reservoir above 64 slots.
    const PINS: [(u64, usize, u64); 3] = [
        (5, 64, 0x9ef4_2e31_b363_9e18),
        (29, 64, 0xcef9_98ca_f885_573a),
        (5, 200, 0xacbd_21a7_f7b5_ba67),
    ];
    for ((seed, capacity, pin), shards) in PINS
        .into_iter()
        .flat_map(|pin| [1usize, 2, 8].map(|shards| (pin, shards)))
    {
        let config = MonitorConfig::default()
            .sampler(SamplerSpec::Bss {
                interval: 10,
                epsilon: 1.0,
                n_pre: 16,
                l: 4,
            })
            .seed(seed)
            .shards(shards)
            .reservoir_capacity(capacity)
            .tail_thresholds(vec![64.0, 256.0, 576.0, 1024.0, 1400.0]);
        let pts = steady_points(seed);
        let chunks: Vec<&[(u64, f64)]> = pts.chunks(2_000).collect();
        let mut reference = MonitorEngine::new(config.clone());
        let mut collector = Collector::new_sequenced(7, config);
        let mut wire = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            reference.offer_batch(chunk);
            collector.offer_batch(chunk);
            flush(&mut collector, &mut wire).unwrap();
            if i == chunks.len() / 2 {
                let from_seq = collector.next_seq();
                resync(&mut collector, from_seq, &mut wire);
            }
        }
        finish(&mut collector, &mut wire).unwrap();
        let mut agg = Aggregator::new();
        ingest(&mut agg, &wire).unwrap();
        assert_eq!(
            agg.snapshot(),
            reference.snapshot(),
            "seed {seed} shards {shards}"
        );
        assert_eq!(
            fnv1a(&wire),
            pin,
            "seed {seed} capacity {capacity} shards {shards}: {} points, {} B",
            pts.len(),
            wire.len()
        );
    }
}
