//! The wire-boundary merge-equivalence pins: N collector processes
//! streaming frames to one aggregator reassemble **byte-identical**
//! `EngineSnapshot` output to a single unsharded engine on the same
//! keyed trace — over in-memory pipes and over Unix sockets, with and
//! without eviction in the collectors. Also pins which keys a flush
//! ships: exactly the distinct keys offered since the previous flush
//! that are still live, whatever the ingest path or shard count.

mod common;
mod duplex;

use common::{finish, flush, ingest};
use duplex::{open_session, pump};
use sst_monitor::topology::{Aggregator, Collector, SessionDriver, SessionError};
use sst_monitor::{
    decode_snapshot, encode_snapshot, EngineSnapshot, Frame, FrameDecoder, MonitorConfig,
    MonitorEngine, SamplerSpec, WireError,
};
use sst_nettrace::TraceSynthesizer;
use std::collections::BTreeSet;
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::{Arc, Mutex};

fn trace_points() -> Vec<(u64, f64)> {
    TraceSynthesizer::bell_labs_like()
        .duration(150.0)
        .mean_rate(1.5e5)
        .synthesize(20050607)
        .od_keyed_points()
}

fn config(spec: SamplerSpec) -> MonitorConfig {
    MonitorConfig::default()
        .sampler(spec)
        .seed(42)
        .tail_thresholds(vec![64.0, 576.0, 1400.0])
}

/// Streams a key partition through a collector into `w`, flushing
/// periodically so the wire carries many Delta (and possibly Evicted)
/// frames rather than one blob.
fn drive_collector(
    mut collector: Collector,
    points: &[(u64, f64)],
    part: u64,
    n_parts: u64,
    w: &mut impl Write,
) {
    for chunk in partition(points, part, n_parts).chunks(5000) {
        for &(k, v) in chunk {
            collector.offer(k, v);
        }
        flush(&mut collector, w).expect("flush");
    }
    finish(&mut collector, w).expect("finish");
}

/// As [`drive_collector`], but straight into `agg` over a duplex link
/// that carries the aggregator's acks and resync requests back.
/// Returns the finished collector.
fn drive_duplex(
    mut collector: Collector,
    points: &[(u64, f64)],
    part: u64,
    n_parts: u64,
    agg: &mut Aggregator,
) -> Collector {
    let mut driver = SessionDriver::new();
    let mut sent = 0u64;
    open_session(&collector, &mut driver, agg).expect("hello");
    for chunk in partition(points, part, n_parts).chunks(5000) {
        for &(k, v) in chunk {
            collector.offer(k, v);
        }
        collector.seal_flush();
        pump(&mut collector, &mut sent, &mut driver, agg);
    }
    collector.seal_finish();
    pump(&mut collector, &mut sent, &mut driver, agg);
    driver.finish(agg).expect("clean eof");
    collector
}

/// The keys of partition `part` of `n_parts`.
fn partition(points: &[(u64, f64)], part: u64, n_parts: u64) -> Vec<(u64, f64)> {
    points
        .iter()
        .filter(|&&(k, _)| k % n_parts == part)
        .copied()
        .collect()
}

#[test]
fn two_collectors_one_aggregator_match_the_unsharded_engine_bytes() {
    let points = trace_points();
    assert!(points.len() > 20_000, "workload too small to mean anything");
    for spec in [
        SamplerSpec::Systematic { interval: 7 },
        SamplerSpec::Bss {
            interval: 11,
            epsilon: 1.0,
            n_pre: 8,
            l: 3,
        },
    ] {
        // The single **unsharded** engine (n_shards = 1).
        let mut reference = MonitorEngine::new(config(spec));
        for &(k, v) in &points {
            reference.offer(k, v);
        }
        // Two collectors (sharded internally — also crossing the shard
        // count) stream to an aggregator over in-memory pipes.
        let mut agg = Aggregator::new();
        for part in 0..2u64 {
            let mut pipe: Vec<u8> = Vec::new();
            drive_collector(
                Collector::new_sequenced(part, config(spec).shards(2)),
                &points,
                part,
                2,
                &mut pipe,
            );
            ingest(&mut agg, &pipe).expect("ingest");
        }
        assert!(agg.all_done());
        let assembled = agg.snapshot();
        assert_eq!(assembled, reference.snapshot(), "{spec:?}");
        // Byte-identical, not merely structurally equal.
        assert_eq!(
            encode_snapshot(&assembled),
            encode_snapshot(&reference.snapshot()),
            "{spec:?}: serialized bytes"
        );
    }
}

#[test]
fn topology_over_unix_sockets_matches_the_unsharded_engine() {
    let points = trace_points();
    let spec = SamplerSpec::Systematic { interval: 5 };
    let mut reference = MonitorEngine::new(config(spec));
    for &(k, v) in &points {
        reference.offer(k, v);
    }
    let dir = std::env::temp_dir().join(format!("sst_topology_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let path = dir.join("aggregator.sock");
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind");

    let agg = Arc::new(Mutex::new(Aggregator::new()));
    let assembled = std::thread::scope(|scope| {
        // Aggregator side: one thread per accepted connection, feeding
        // the shared state — interleaving across sessions is safe.
        let agg_srv = Arc::clone(&agg);
        let server = scope.spawn(move || {
            let mut conns = Vec::new();
            for part in 0..3 {
                let (stream, _) = listener.accept().expect("accept");
                let agg = Arc::clone(&agg_srv);
                conns.push(std::thread::spawn(move || {
                    // Decode frames off the socket, lock per frame.
                    let mut stream = stream;
                    let mut dec = sst_monitor::FrameDecoder::new();
                    let mut buf = [0u8; 8192];
                    let mut session = part as u64;
                    let mut first = true;
                    loop {
                        use std::io::Read;
                        let n = stream.read(&mut buf).expect("read");
                        if n == 0 {
                            break;
                        }
                        dec.push(&buf[..n]);
                        while let Some(sf) = dec.next_seq_frame().expect("frame") {
                            if first {
                                if let sst_monitor::Frame::Hello { collector_id, .. } = sf.frame {
                                    session = collector_id;
                                }
                                first = false;
                            }
                            agg.lock()
                                .unwrap()
                                .feed_seq(session, sf.seq, sf.frame)
                                .expect("feed");
                        }
                    }
                    assert_eq!(dec.pending_bytes(), 0, "clean EOF");
                }));
            }
            for c in conns {
                c.join().expect("conn thread");
            }
        });
        // Collector side: three concurrent processes-in-miniature.
        let mut clients = Vec::new();
        for part in 0..3u64 {
            let points = &points;
            let path = path.clone();
            clients.push(scope.spawn(move || {
                let mut sock = UnixStream::connect(&path).expect("connect");
                drive_collector(
                    Collector::new_sequenced(part, config(spec).shards(2)),
                    points,
                    part,
                    3,
                    &mut sock,
                );
            }));
        }
        for c in clients {
            c.join().expect("collector thread");
        }
        server.join().expect("server thread");
        let snap = agg.lock().unwrap().snapshot();
        snap
    });
    let _ = std::fs::remove_file(&path);
    assert_eq!(assembled, reference.snapshot());
    assert_eq!(
        encode_snapshot(&assembled),
        encode_snapshot(&reference.snapshot())
    );
}

#[test]
fn evicting_collectors_reassemble_the_never_evicting_bits() {
    // Burst keys (never reappear): collectors evict aggressively and
    // ship finals as Evicted frames; the aggregator must still hold
    // exactly the bits of a single never-evicting engine.
    let points: Vec<(u64, f64)> = (0..60_000u64)
        .map(|i| (i / 60, 2.0 + (i % 23) as f64))
        .collect();
    let spec = SamplerSpec::Systematic { interval: 4 };
    let mut reference = MonitorEngine::new(config(spec));
    for &(k, v) in &points {
        reference.offer(k, v);
    }
    let mut agg = Aggregator::new();
    for part in 0..2u64 {
        let mut pipe: Vec<u8> = Vec::new();
        drive_collector(
            Collector::new_sequenced(part, config(spec).evict_idle_after(300).sweep_every(128)),
            &points,
            part,
            2,
            &mut pipe,
        );
        ingest(&mut agg, &pipe).expect("ingest");
    }
    // Eviction must genuinely have happened for the pin to mean much.
    let frames_have_evictions = {
        let mut pipe: Vec<u8> = Vec::new();
        drive_collector(
            Collector::new_sequenced(9, config(spec).evict_idle_after(300).sweep_every(128)),
            &points,
            0,
            2,
            &mut pipe,
        );
        sst_monitor::decode_frames(&pipe)
            .unwrap()
            .iter()
            .any(|f| matches!(f, sst_monitor::Frame::Evicted(_)))
    };
    assert!(
        frames_have_evictions,
        "workload must trigger Evicted frames"
    );
    assert_eq!(agg.snapshot(), reference.snapshot());
}

#[test]
fn a_clean_duplex_link_never_resyncs() {
    // Collectors that compact, idle-evict and tier, over a lossless
    // link that carries the aggregator's acks and resync requests back:
    // every diff finds its base, so no session ever resyncs, and the
    // aggregator assembles exactly what the same sessions written down
    // one-way pipes do.
    let points = trace_points();
    let config = config(SamplerSpec::Bss {
        interval: 5,
        epsilon: 1.0,
        n_pre: 8,
        l: 2,
    })
    .shards(2)
    .max_exact_keys(24)
    .sketch_bytes(1 << 14)
    .promote_after(16)
    .evict_idle_after(4_000)
    .compact_budget(768)
    .sweep_every(1_000);
    let mut duplex = Aggregator::new();
    let mut piped = Aggregator::new();
    for part in 0..2u64 {
        let c = drive_duplex(
            Collector::new_sequenced(part, config.clone()),
            &points,
            part,
            2,
            &mut duplex,
        );
        assert_eq!(c.resyncs(), 0, "collector {part}");
        let stats = c.engine().lifecycle_stats();
        assert!(
            stats.evicted > 0 && stats.sweeps > 0,
            "collector {part}: {stats:?}"
        );
        let tier = c.engine().tier_stats().expect("tiered");
        assert!(tier.demotions > 0, "collector {part}: {tier:?}");
        let mut pipe: Vec<u8> = Vec::new();
        drive_collector(
            Collector::new_sequenced(part, config.clone()),
            &points,
            part,
            2,
            &mut pipe,
        );
        ingest(&mut piped, &pipe).expect("ingest");
    }
    assert!(duplex.all_done());
    assert_eq!(duplex.snapshot(), piped.snapshot());
    assert_eq!(
        encode_snapshot(&duplex.snapshot()),
        encode_snapshot(&piped.snapshot())
    );
}

#[test]
fn legacy_snapshot_files_are_rejected_on_the_wire() {
    // v1 `.ssm` bytes are the file format, not a session: pushed down a
    // socket they fail at the magic and leave the aggregator empty, while
    // the snapshot codec still reads them whole.
    let mut engine = MonitorEngine::new(config(SamplerSpec::TakeAll));
    for i in 0..4000u64 {
        engine.offer(i % 13, (i % 97) as f64);
    }
    let snap = engine.snapshot();
    let v1 = encode_snapshot(&snap);
    let mut agg = Aggregator::new();
    assert!(matches!(
        ingest(&mut agg, &v1),
        Err(SessionError::Wire(WireError::BadMagic))
    ));
    assert_eq!(agg.collector_count(), 0);
    assert_eq!(agg.snapshot(), EngineSnapshot::default());
    assert_eq!(decode_snapshot(&v1), Ok(snap));
}

/// One SplitMix64 step: the tests' own seeded source, independent of
/// the crate's RNGs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The points of flush round `round`: half on 32 hot keys, half on one
/// of four groups of 100 cold keys. The cold group rotates every three
/// rounds, so its keys sit idle for nine rounds (evicted) and then
/// reappear; within a round a cold key's gaps sometimes exceed the
/// idle limit too, so it is evicted and re-created mid-round.
fn churn_round(seed: u64, round: u64, n: usize) -> Vec<(u64, f64)> {
    let mut s = seed ^ round.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let group = (round / 3) % 4;
    (0..n)
        .map(|_| {
            let r = splitmix(&mut s);
            let key = if r & 1 == 0 {
                r >> 59
            } else {
                1000 + group * 100 + (r >> 32) % 100
            };
            (key, ((r >> 8) % 1500) as f64)
        })
        .collect()
}

/// What a run of [`sealed_rounds`] saw.
struct SealedRun {
    /// Every sealed frame, in seal order.
    window_bytes: Vec<u8>,
    /// Keys shipped in a `Delta`/`DeltaDiff` after they had left in an
    /// `Evicted` frame.
    reappeared: usize,
    promotions: u64,
    demotions: u64,
    evicted: u64,
}

/// Offers `rounds` rounds of [`churn_round`] points to a sequenced
/// collector — through `offer_batch` on even rounds, point by point
/// on odd ones — sealing after each. Asserts that every seal ships, in
/// its `Delta`/`DeltaDiff` frames, exactly the distinct keys offered
/// that round that are still live at seal time, each once.
fn sealed_rounds(config: MonitorConfig, seed: u64, rounds: u64, per_round: usize) -> SealedRun {
    let mut c = Collector::new_sequenced(3, config);
    let mut run = SealedRun {
        window_bytes: Vec::new(),
        reappeared: 0,
        promotions: 0,
        demotions: 0,
        evicted: 0,
    };
    let mut gone: BTreeSet<u64> = BTreeSet::new();
    for round in 0..rounds {
        let points = churn_round(seed, round, per_round);
        if round % 2 == 0 {
            c.offer_batch(&points);
        } else {
            for &(k, v) in &points {
                c.offer(k, v);
            }
        }
        let offered: BTreeSet<u64> = points.iter().map(|&(k, _)| k).collect();
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
            run.window_bytes.extend_from_slice(bytes);
            decoder.push(bytes);
        }
        let mut shipped: Vec<u64> = Vec::new();
        while let Some(frame) = decoder.next_frame().expect("sealed frames decode") {
            match frame {
                Frame::Delta(snap) => shipped.extend(snap.streams().iter().map(|e| e.key)),
                Frame::DeltaDiff(diffs) => shipped.extend(diffs.iter().map(|d| d.key)),
                Frame::Evicted(finals) => gone.extend(finals.iter().map(|e| e.key)),
                other => panic!("round {round}: unexpected {}", other.kind_name()),
            }
        }
        run.reappeared += shipped.iter().filter(|k| gone.remove(k)).count();
        shipped.sort_unstable();
        assert_eq!(shipped, expected, "round {round}: shipped keys");
        if c.next_seq() > first {
            c.ack(c.next_seq() - 1);
        }
    }
    if let Some(t) = c.engine().tier_stats() {
        run.promotions = t.promotions;
        run.demotions = t.demotions;
    }
    run.evicted = c.engine().lifecycle_stats().evicted;
    run
}

#[test]
fn seal_flush_ships_exactly_the_live_keys_touched_since_the_last_seal() {
    let base = config(SamplerSpec::Bss {
        interval: 5,
        epsilon: 1.0,
        n_pre: 8,
        l: 2,
    })
    .evict_idle_after(400)
    .sweep_every(64);
    // Tiered (serial ingest, promotions and demotions) and untiered
    // with batches past the parallel fan-out threshold.
    let cases = [
        (
            "tiered",
            base.clone()
                .max_exact_keys(96)
                .promote_after(4)
                .sketch_bytes(1 << 14),
            2048,
        ),
        ("parallel", base, 6000),
    ];
    for (name, config, per_round) in cases {
        let runs: Vec<SealedRun> = [1, 2, 8]
            .into_iter()
            .map(|n| sealed_rounds(config.clone().shards(n), 77, 30, per_round))
            .collect();
        let one = &runs[0];
        assert!(one.evicted > 0, "{name}: no evictions");
        assert!(
            one.reappeared > 0,
            "{name}: no key came back after eviction"
        );
        if name == "tiered" {
            assert!(one.promotions > 0, "{name}: no promotions");
            assert!(one.demotions > 0, "{name}: no demotions");
        }
        for (run, n) in runs.iter().zip([1, 2, 8]).skip(1) {
            assert!(
                run.window_bytes == one.window_bytes,
                "{name}: sealed bytes differ between shards(1) and shards({n})"
            );
        }
    }
}
