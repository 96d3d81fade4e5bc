//! Criterion benches for the layered online monitoring engine:
//! single-stream offer throughput, 10k-stream sharded vs sequential
//! ingest (the persistent-worker-pool payoff), snapshot/merge cost,
//! summary compaction, wire-frame round-trips, eviction churn, the
//! sketch tier (key-flood absorption and promote/demote turnover), and
//! the event-loop transport (64-session epoll serve, multi-loop
//! sharded serve, TCP round-trip).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sst_monitor::topology::{Aggregator, Collector};
use sst_monitor::transport::{EventLoopServer, MultiLoopServer, ServeOptions};
use sst_monitor::EngineSnapshot;
use sst_monitor::{
    decode_frames, encode_frame, Frame, MonitorConfig, MonitorEngine, SamplerSpec, WIRE_VERSION,
};

/// One whole collector session's bytes: a `Fresh` `Hello`, then
/// `delta` and `Bye` at seqs 0 and 1.
fn delta_session(delta: &Frame) -> Vec<u8> {
    use sst_monitor::wire::{encode_frame_seq, HelloResume};
    let mut bytes = encode_frame(&Frame::Hello {
        protocol: WIRE_VERSION,
        collector_id: 1,
        resume: Some(HelloResume::Fresh { first_seq: 0 }),
    })
    .to_vec();
    bytes.extend_from_slice(&encode_frame_seq(0, delta));
    bytes.extend_from_slice(&encode_frame_seq(1, &Frame::Bye));
    bytes
}

/// Deterministic bursty multiplexed workload over `n_keys` streams.
fn points(n: usize, n_keys: u64) -> Vec<(u64, f64)> {
    (0..n)
        .map(|i| {
            let key = (i as u64).wrapping_mul(2654435761) % n_keys;
            let v = if (i / 53) % 13 == 0 {
                250.0 + (i % 11) as f64
            } else {
                2.0 + (i % 5) as f64
            };
            (key, v)
        })
        .collect()
}

fn spec() -> SamplerSpec {
    SamplerSpec::Bss {
        interval: 10,
        epsilon: 1.0,
        n_pre: 16,
        l: 4,
    }
}

fn bench_offer(c: &mut Criterion) {
    let pts = points(1 << 18, 1);
    let mut g = c.benchmark_group("monitor");
    g.throughput(Throughput::Elements(pts.len() as u64));
    g.bench_function("offer_single_stream", |b| {
        b.iter(|| {
            let mut engine = MonitorEngine::new(MonitorConfig::default().sampler(spec()).seed(3));
            for &(k, v) in &pts {
                engine.offer(k, v);
            }
            engine.stream_count()
        });
    });
    g.finish();
}

fn bench_sharded_ingest(c: &mut Criterion) {
    // 10k concurrent streams; the sharded row fans shard batches across
    // the persistent worker pool, the sequential row is one shard.
    let pts = points(1 << 20, 10_000);
    let mut g = c.benchmark_group("monitor/ingest_10k_streams");
    g.sample_size(10);
    g.throughput(Throughput::Elements(pts.len() as u64));
    g.bench_function("sequential", |b| {
        b.iter(|| {
            let mut engine =
                MonitorEngine::new(MonitorConfig::default().sampler(spec()).shards(1).seed(3));
            engine.offer_batch(&pts);
            engine.stream_count()
        });
    });
    g.bench_function("sharded", |b| {
        b.iter(|| {
            let mut engine =
                MonitorEngine::new(MonitorConfig::default().sampler(spec()).shards(8).seed(3));
            engine.offer_batch(&pts);
            engine.stream_count()
        });
    });
    g.finish();
}

fn bench_snapshot_merge(c: &mut Criterion) {
    let pts = points(1 << 19, 4096);
    let mut engine = MonitorEngine::new(MonitorConfig::default().sampler(spec()).shards(4).seed(3));
    engine.offer_batch(&pts);
    let snap = engine.snapshot();
    let (even, odd): (Vec<_>, Vec<_>) =
        snap.streams().iter().cloned().partition(|e| e.key % 2 == 0);
    let a = EngineSnapshot::from_streams(even);
    let b = EngineSnapshot::from_streams(odd);
    let mut g = c.benchmark_group("monitor");
    g.throughput(Throughput::Elements(snap.stream_count() as u64));
    g.bench_function("snapshot_4096_streams", |bch| {
        bch.iter(|| engine.snapshot().stream_count());
    });
    g.bench_function("merge_4096_streams", |bch| {
        bch.iter(|| a.clone().merge(b.clone()).aggregate().moments.count());
    });
    g.finish();
}

fn bench_compaction(c: &mut Criterion) {
    // Compacting a 4096-stream snapshot toward the 768 B default
    // budget — the aggregator-side memory bound.
    let pts = points(1 << 19, 4096);
    let mut engine = MonitorEngine::new(MonitorConfig::default().sampler(spec()).shards(4).seed(3));
    engine.offer_batch(&pts);
    let snap = engine.snapshot();
    let mut g = c.benchmark_group("monitor");
    g.throughput(Throughput::Elements(snap.stream_count() as u64));
    g.bench_function("compact_4096_streams", |b| {
        b.iter(|| {
            let mut s = snap.clone();
            s.compact(768);
            s.stream_count()
        });
    });
    g.finish();
}

fn bench_wire_roundtrip(c: &mut Criterion) {
    // A collector flush interval on the wire: Hello + a 4096-stream
    // Delta + Bye, encoded and decoded back.
    let pts = points(1 << 19, 4096);
    let mut engine = MonitorEngine::new(MonitorConfig::default().sampler(spec()).shards(4).seed(3));
    engine.offer_batch(&pts);
    let delta = Frame::Delta(engine.snapshot());
    let mut g = c.benchmark_group("monitor");
    g.sample_size(10);
    g.throughput(Throughput::Elements(engine.stream_count() as u64));
    g.bench_function("wire_roundtrip", |b| {
        b.iter(|| {
            let bytes = delta_session(&delta);
            decode_frames(&bytes).expect("clean stream").len()
        });
    });
    g.finish();
}

fn bench_evict_churn(c: &mut Criterion) {
    // 2^18 points over ~32k churning keys (8 points per key, never
    // reappearing) with idle eviction + compaction — the lifecycle
    // layer's steady-state cost.
    let pts: Vec<(u64, f64)> = (0..1u64 << 18)
        .map(|i| (i / 8, 40.0 + (i % 1461) as f64))
        .collect();
    let mut g = c.benchmark_group("monitor");
    g.sample_size(10);
    g.throughput(Throughput::Elements(pts.len() as u64));
    g.bench_function("evict_churn", |b| {
        b.iter(|| {
            let mut engine = MonitorEngine::new(
                MonitorConfig::default()
                    .shards(2)
                    .seed(3)
                    .evict_idle_after(4096)
                    .sweep_every(4096)
                    .compact_budget(768),
            );
            for chunk in pts.chunks(1 << 14) {
                engine.offer_batch(chunk);
            }
            engine.maintain();
            engine.lifecycle_stats().evicted
        });
    });
    g.finish();
}

fn bench_sketch_churn(c: &mut Criterion) {
    // 2^18 points over ~130k distinct keys against 512 exact slots and
    // a fixed sketch budget — the sketch tier's absorb path (count-min,
    // heavy-hitter list, projection cascades) at key-flood rates.
    let pts: Vec<(u64, f64)> = (0..1u64 << 18)
        .map(|i| (i / 2, 2.0 + (i % 17) as f64))
        .collect();
    let mut g = c.benchmark_group("monitor");
    g.sample_size(10);
    g.throughput(Throughput::Elements(pts.len() as u64));
    g.bench_function("sketch_churn", |b| {
        b.iter(|| {
            let mut engine = MonitorEngine::new(
                MonitorConfig::default()
                    .shards(2)
                    .seed(3)
                    .max_exact_keys(512)
                    .sketch_bytes(1 << 18)
                    .promote_after(1 << 20),
            );
            for chunk in pts.chunks(1 << 14) {
                engine.offer_batch(chunk);
            }
            engine.tier_stats().expect("tiered").sketched_keys
        });
    });
    g.finish();
}

fn bench_promote_demote(c: &mut Criterion) {
    // Heavy-hitter turnover: 64 hot keys rotating through 16 exact
    // slots with a low promotion threshold — prices the promote →
    // demote-coldest → retire cycle, the tier's worst-case path.
    let pts: Vec<(u64, f64)> = (0..1u64 << 17)
        .map(|i| {
            let phase = i / (1 << 11); // hot set rotates every 2048 points
            let key = (phase * 16 + i % 16) % 64;
            (key, 2.0 + (i % 13) as f64)
        })
        .collect();
    let mut g = c.benchmark_group("monitor");
    g.sample_size(10);
    g.throughput(Throughput::Elements(pts.len() as u64));
    g.bench_function("promote_demote", |b| {
        b.iter(|| {
            let mut engine = MonitorEngine::new(
                MonitorConfig::default()
                    .shards(2)
                    .seed(3)
                    .max_exact_keys(16)
                    .sketch_bytes(1 << 16)
                    .promote_after(64),
            );
            for chunk in pts.chunks(1 << 14) {
                engine.offer_batch(chunk);
            }
            let stats = engine.tier_stats().expect("tiered");
            stats.promotions + stats.demotions
        });
    });
    g.finish();
}

/// Pre-sealed session byte streams for the serve benches: 64
/// collectors, each sealing its partition of a 2^15-point workload in
/// 128-point intervals — the `Hello`, then every sealed frame through
/// the `Bye`.
fn serve_pipes(sessions: u64) -> Vec<Vec<u8>> {
    (0..sessions)
        .map(|part| {
            let mut collector =
                Collector::new_sequenced(part, MonitorConfig::default().sampler(spec()).seed(3));
            let mine: Vec<(u64, f64)> = points(1 << 15, 256)
                .into_iter()
                .filter(|&(k, _)| k % sessions == part)
                .collect();
            let mut pipe = encode_frame(&collector.hello()).to_vec();
            for chunk in mine.chunks(128) {
                collector.offer_batch(chunk);
                collector.seal_flush();
            }
            collector.seal_finish();
            for (_, bytes) in collector.unsent_window(0) {
                pipe.extend_from_slice(bytes);
            }
            pipe
        })
        .collect()
}

fn bench_event_loop_serve(c: &mut Criterion) {
    // 64 collector sessions drained by one event loop. Delivery is
    // *staged*: a writer thread feeds one session at a time (yielding
    // after each) while the other sessions sit connected but idle —
    // the steady state a live aggregator actually sees, where each
    // epoll(7) wait returns just the ready event, O(ready) rather than
    // O(registered) per round.
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    const SESSIONS: u64 = 64;
    let pipes = serve_pipes(SESSIONS);
    let total_bytes: usize = pipes.iter().map(Vec::len).sum();
    let mut g = c.benchmark_group("monitor");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(total_bytes as u64));
    g.bench_function("serve_epoll_64_sessions", |b| {
        b.iter(|| {
            let mut server = EventLoopServer::new(
                Aggregator::new(),
                ServeOptions {
                    collectors: SESSIONS as usize,
                    accept_timeout: None,
                },
            );
            let mut writers = Vec::with_capacity(pipes.len());
            for _ in 0..pipes.len() {
                let (tx, rx) = UnixStream::pair().expect("socketpair");
                writers.push(tx);
                server.add_session(rx).expect("add_session");
            }
            // Each writer half-closes after its session and stays open
            // until the run ends, so the serve's acks always land in a
            // live socket buffer.
            let feeder = std::thread::spawn({
                let pipes = pipes.clone();
                move || {
                    for (tx, pipe) in writers.iter_mut().zip(&pipes) {
                        tx.write_all(pipe).expect("buffered write");
                        tx.shutdown(std::net::Shutdown::Write).expect("half-close");
                        std::thread::yield_now();
                    }
                    writers
                }
            });
            let (agg, rep) = server.run().expect("event loop");
            drop(feeder.join().expect("feeder"));
            assert_eq!(rep.completed, SESSIONS as usize);
            agg.snapshot().stream_count()
        });
    });
    g.finish();
}

fn bench_multi_loop_serve(c: &mut Criterion) {
    // The same 64 pre-encoded sessions sharded across N event loops,
    // dealt round-robin to per-loop aggregators and
    // merged at snapshot time. On a single core this prices the
    // sharding machinery (threads, wake pipes, snapshot merge); on N
    // cores it is the scaling row.
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    const SESSIONS: u64 = 64;
    let pipes = serve_pipes(SESSIONS);
    let total_bytes: usize = pipes.iter().map(Vec::len).sum();
    let mut g = c.benchmark_group("monitor");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(total_bytes as u64));
    for loops in [2usize, 4] {
        g.bench_function(format!("serve_multi_loop_{loops}x"), |b| {
            b.iter(|| {
                let mut server = MultiLoopServer::new(
                    (0..loops).map(|_| Aggregator::new()).collect(),
                    ServeOptions {
                        collectors: SESSIONS as usize,
                        accept_timeout: None,
                    },
                );
                for pipe in &pipes {
                    let (mut tx, rx) = UnixStream::pair().expect("socketpair");
                    tx.write_all(pipe).expect("buffered write");
                    drop(tx);
                    server.add_session(rx);
                }
                let (aggs, rep) = server.run().expect("event loops");
                assert_eq!(rep.completed, SESSIONS as usize);
                aggs.snapshot().stream_count()
            });
        });
    }
    g.finish();
}

fn bench_tcp_roundtrip(c: &mut Criterion) {
    // The wire_roundtrip workload (Hello + 4096-stream Delta + Bye)
    // pushed through a real TCP loopback connection into a one-loop
    // serve — wire_roundtrip minus this row is the in-memory floor,
    // this row adds the socket, accept and epoll cost.
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    let pts = points(1 << 19, 4096);
    let mut engine = MonitorEngine::new(MonitorConfig::default().sampler(spec()).shards(4).seed(3));
    engine.offer_batch(&pts);
    let session = delta_session(&Frame::Delta(engine.snapshot()));
    let mut g = c.benchmark_group("monitor");
    g.sample_size(10);
    g.throughput(Throughput::Elements(engine.stream_count() as u64));
    g.bench_function("tcp_roundtrip", |b| {
        b.iter(|| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let mut server = MultiLoopServer::new(
                vec![Aggregator::new()],
                ServeOptions {
                    collectors: 1,
                    accept_timeout: None,
                },
            );
            server.add_tcp_listener(listener).expect("register");
            let writer = std::thread::spawn({
                let session = session.clone();
                move || {
                    // Half-close, then drain the serve's acks until it
                    // hangs up, so no ack meets a closed socket.
                    let mut sock = TcpStream::connect(addr).expect("connect");
                    sock.write_all(&session).expect("write session");
                    sock.shutdown(std::net::Shutdown::Write)
                        .expect("half-close");
                    std::io::copy(&mut sock, &mut std::io::sink()).expect("drain acks");
                }
            });
            let (aggs, rep) = server.run().expect("event loop");
            writer.join().expect("writer");
            assert_eq!(rep.completed, 1);
            aggs.snapshot().stream_count()
        });
    });
    g.finish();
}

fn bench_resync_after_kill(c: &mut Criterion) {
    // The ISSUE 7 recovery row: a sequenced collector's connection is
    // hard-killed mid-stream (half the window delivered, no Bye), and
    // the clock runs until a reconnect has replayed, the watermark has
    // skipped the duplicates, the session has completed, and the
    // assembled snapshot equals the unsharded engine's bytes. The
    // delta against `tcp_roundtrip`-style clean delivery prices the
    // whole recovery path: EOF detection, park/suspend, resumed
    // admission, duplicate-skip replay, final ack handshake.
    use sst_monitor::retry::{Backoff, SequencedSender};
    use sst_monitor::transport::SessionStream;
    use std::io::Write;
    use std::net::{Shutdown, TcpListener, TcpStream};
    let pts = points(1 << 15, 256);
    let mut reference = MonitorEngine::new(MonitorConfig::default().sampler(spec()).seed(3));
    reference.offer_batch(&pts);
    let reference_bytes = sst_monitor::encode_snapshot(&reference.snapshot());
    let mut g = c.benchmark_group("monitor");
    g.sample_size(10);
    g.throughput(Throughput::Elements(pts.len() as u64));
    g.bench_function("resync_after_kill", |b| {
        b.iter(|| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let mut server = MultiLoopServer::new(
                vec![Aggregator::new()],
                ServeOptions {
                    collectors: 1,
                    accept_timeout: None,
                },
            );
            server.add_tcp_listener(listener).expect("register");
            let server_thread = std::thread::spawn(move || server.run().expect("event loop"));
            let mut collector =
                Collector::new_sequenced(7, MonitorConfig::default().sampler(spec()).seed(3));
            // First connection: half the workload on the wire, then a
            // hard kill before any ack can trim the window.
            let (first, second) = pts.split_at(pts.len() / 2);
            collector.offer_batch(first);
            collector.seal_flush();
            {
                let mut sock = TcpStream::connect(addr).expect("connect");
                sock.write_all(&encode_frame(&collector.hello()))
                    .expect("hello");
                for (_, bytes) in collector.unsent_window(0) {
                    sock.write_all(bytes).expect("window");
                }
                let _ = sock.shutdown(Shutdown::Both);
            }
            // The clock keeps running through detection + resumption:
            // the sender replays the full window and the serve's parked
            // watermark drops the half it already applied.
            collector.offer_batch(second);
            let sender = SequencedSender::new(
                collector,
                move || TcpStream::connect(addr).map(SessionStream::from),
                Backoff::new(1, 4, 7),
                64,
            );
            sender.finish().expect("resync within budget");
            let (agg, rep) = server_thread.join().expect("server");
            assert_eq!(rep.completed, 1);
            assert_eq!(
                sst_monitor::encode_snapshot(&agg.snapshot()),
                reference_bytes,
                "recovered snapshot must equal the unsharded bytes"
            );
            rep.completed
        });
    });
    g.finish();
}

fn bench_diff_flush(c: &mut Criterion) {
    // The differential-flush steady state: 4096 slowly-changing streams with 8
    // new points each since the last acked flush. `diff_flush_steady`
    // prices one collector seal of that interval — a diff per stream
    // from its ship record and journal, the size choice, and the
    // encoded wire-v4 `DeltaDiff` frames; the offers between seals are
    // not timed. `diff_vs_cumulative_bytes` encodes one such interval
    // down both paths and pins the ≥5× payload saving the differential
    // frames exist for (the measured ratio is ~10×).
    use sst_monitor::wire::encode_frame_seq;
    use sst_monitor::{diff_entry, StreamDiff};
    use std::time::{Duration, Instant};
    const STREAMS: u64 = 4096;
    let config = MonitorConfig::default()
        .sampler(SamplerSpec::Systematic { interval: 2 })
        .seed(3)
        .reservoir_capacity(256);
    // 600 warmup points per stream: reservoirs full, cascades deep —
    // the regime where per-flush change is small relative to state.
    let warmup: Vec<(u64, f64)> = (0..STREAMS * 600)
        .map(|i| (i % STREAMS, 2.0 + (i % 97) as f64))
        .collect();
    let interval = |round: u64| -> Vec<(u64, f64)> {
        (0..STREAMS * 8)
            .map(|i| (i % STREAMS, 3.0 + ((i + round) % 89) as f64))
            .collect()
    };
    let mut engine = MonitorEngine::new(config.clone());
    engine.offer_batch(&warmup);
    let base = engine.snapshot();
    engine.offer_batch(&interval(0));
    let grown = engine.snapshot();
    let diff_frame = |seq| {
        let diffs: Vec<StreamDiff> = base
            .streams()
            .iter()
            .zip(grown.streams())
            .map(|(b, n)| diff_entry(b, n).expect("steady streams diff"))
            .collect();
        encode_frame_seq(seq, &Frame::DeltaDiff(diffs))
    };
    let mut collector = Collector::new_sequenced(0, config);
    collector.offer_batch(&warmup);
    let seal = |collector: &mut Collector| {
        collector.seal_flush();
        collector.ack(collector.next_seq() - 1);
    };
    seal(&mut collector);
    let mut round = 0;
    let mut g = c.benchmark_group("monitor");
    g.sample_size(10);
    g.throughput(Throughput::Elements(STREAMS));
    g.bench_function("diff_flush_steady", |b| {
        b.iter_custom(|iters| {
            let mut spent = Duration::ZERO;
            for _ in 0..iters {
                round += 1;
                collector.offer_batch(&interval(round));
                let start = Instant::now();
                seal(&mut collector);
                spent += start.elapsed();
            }
            spent
        });
    });
    g.bench_function("diff_vs_cumulative_bytes", |b| {
        b.iter(|| {
            let diff_bytes = diff_frame(1).len();
            let full_bytes = encode_frame_seq(1, &Frame::Delta(grown.clone())).len();
            assert!(
                full_bytes >= 5 * diff_bytes,
                "differential flush must ship ≥5× fewer bytes \
                 (diff {diff_bytes} B, cumulative {full_bytes} B)"
            );
            full_bytes - diff_bytes
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_offer, bench_sharded_ingest, bench_snapshot_merge,
        bench_compaction, bench_wire_roundtrip, bench_evict_churn,
        bench_sketch_churn, bench_promote_demote,
        bench_event_loop_serve, bench_multi_loop_serve, bench_tcp_roundtrip,
        bench_resync_after_kill, bench_diff_flush
}
criterion_main!(benches);
