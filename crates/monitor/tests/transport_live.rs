//! Live-socket pins for the event-loop transport: real serves on Unix
//! **and** TCP listeners — one loop and sharded across N loops behind
//! the accept dispatcher — with many concurrent collector clients and
//! hostile sessions injected, and the assembled snapshot still
//! byte-identical to one unsharded engine over the same points (N ≥ 64
//! mixed transports).
//!
//! The robustness half: the same byte-identity invariant with seeded
//! faults injected on the links ([`FaultyLink`]) and `--retry`-style
//! forwarders ([`SequencedSender`]) riding them out — plus a serve
//! *restart* mid-run survived via full-snapshot resync.

mod common;

use common::{finish, flush, ingest};
use sst_monitor::fault::{FaultyLink, Front, Target};
use sst_monitor::retry::{Backoff, SequencedSender};
use sst_monitor::topology::{Aggregator, Collector};
use sst_monitor::transport::{MultiLoopServer, ServeOptions, SessionStream, FALLBACK_ID_BASE};
use sst_monitor::{
    encode_frame, encode_snapshot, EngineSnapshot, Frame, MonitorConfig, MonitorEngine, SamplerSpec,
};
use std::collections::BTreeSet;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn config(spec: SamplerSpec) -> MonitorConfig {
    MonitorConfig::default()
        .sampler(spec)
        .seed(42)
        .tail_thresholds(vec![64.0, 576.0, 1400.0])
}

/// A serve over `loops` event loops, stopping at `collectors`
/// completed sessions or after a minute without delivered bytes (the
/// hang guard).
fn serve(loops: usize, collectors: u64) -> MultiLoopServer {
    MultiLoopServer::new(
        (0..loops).map(|_| Aggregator::new()).collect(),
        ServeOptions {
            collectors: collectors as usize,
            accept_timeout: Some(Duration::from_secs(60)),
        },
    )
}

/// A multiplexed keyed workload: enough keys that every one of 64
/// partitions is non-empty, bursty values for non-trivial summaries.
fn keyed_points(n: usize, n_keys: u64) -> Vec<(u64, f64)> {
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

/// The keys of partition `part` of `n_parts`.
fn partition(points: &[(u64, f64)], part: u64, n_parts: u64) -> Vec<(u64, f64)> {
    points
        .iter()
        .filter(|&&(k, _)| k % n_parts == part)
        .copied()
        .collect()
}

/// Partition `part` of `n_parts` as one whole collector session, the
/// bytes a lossless pipe carries, sealed over several flushes.
fn session_pipe(points: &[(u64, f64)], part: u64, n_parts: u64, spec: SamplerSpec) -> Vec<u8> {
    let mut collector = Collector::new_sequenced(part, config(spec).shards(2));
    let mut pipe = Vec::new();
    for chunk in partition(points, part, n_parts).chunks(2500) {
        collector.offer_batch(chunk);
        flush(&mut collector, &mut pipe).expect("in-memory");
    }
    finish(&mut collector, &mut pipe).expect("in-memory");
    pipe
}

/// Partition `part` of `n_parts` as a one-way v2 session, the way a
/// pre-sequencing forwarder sent it: `Hello{protocol: 2}` without a
/// resume mode, one cumulative `Delta` of the keys each flush touched,
/// then `Bye`.
fn v2_session(points: &[(u64, f64)], part: u64, n_parts: u64, spec: SamplerSpec) -> Vec<u8> {
    let mut engine = MonitorEngine::new(config(spec).shards(2));
    let mut bytes = encode_frame(&Frame::Hello {
        protocol: 2,
        collector_id: part,
        resume: None,
    })
    .to_vec();
    for chunk in partition(points, part, n_parts).chunks(2500) {
        engine.offer_batch(chunk);
        let touched: BTreeSet<u64> = chunk.iter().map(|&(k, _)| k).collect();
        let entries = engine
            .snapshot()
            .streams()
            .iter()
            .filter(|e| touched.contains(&e.key))
            .cloned()
            .collect();
        bytes.extend_from_slice(&encode_frame(&Frame::Delta(EngineSnapshot::from_streams(
            entries,
        ))));
    }
    bytes.extend_from_slice(&encode_frame(&Frame::Bye));
    bytes
}

/// Writes a whole pre-encoded session, half-closes, and drains the
/// serve's acks until it hangs up — so no ack is ever written to a
/// closed socket.
fn send_session(mut sock: SessionStream, bytes: &[u8]) {
    sock.write_all(bytes).expect("write session");
    sock.shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    std::io::copy(&mut sock, &mut std::io::sink()).expect("drain acks");
}

/// Runs `server` to completion; returns the assembled snapshot and
/// the report.
fn run(server: MultiLoopServer) -> (sst_monitor::EngineSnapshot, sst_monitor::ServeReport) {
    let (aggs, rep) = server.run().expect("event loops");
    (aggs.snapshot(), rep)
}

/// The tentpole scenario: `n` collectors — even ids over the Unix
/// socket, odd ids over TCP — plus garbage, mid-frame-disconnect, and
/// connect-and-close clients, against a live serve. The healthy `n`
/// must assemble to the unsharded engine's bytes; the hostiles must be
/// isolated, not fatal.
fn hostile_mixed_scenario(tag: &str, n: u64, points: &[(u64, f64)], mut server: MultiLoopServer) {
    let spec = SamplerSpec::Systematic { interval: 7 };
    let mut reference = MonitorEngine::new(config(spec));
    for &(k, v) in points {
        reference.offer(k, v);
    }

    let dir = std::env::temp_dir().join(format!("sst_transport_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let uds_path = dir.join("agg.sock");
    let _ = std::fs::remove_file(&uds_path);
    let uds = UnixListener::bind(&uds_path).expect("bind uds");
    let tcp = TcpListener::bind("127.0.0.1:0").expect("bind tcp");
    let tcp_addr = tcp.local_addr().expect("tcp addr");
    server.add_unix_listener(uds).expect("register uds");
    server.add_tcp_listener(tcp).expect("register tcp");

    // Collector 0 holds its whole session back until every hostile
    // client has connected, written, and closed — so the server cannot
    // reach its n-completion target (and stop) before it has seen and
    // judged every hostile session. That makes the report assertions
    // below deterministic, not a race.
    let hostiles_done = std::sync::atomic::AtomicUsize::new(0);
    const N_HOSTILE: usize = 6;

    let (assembled, rep) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(move || run(server));
        let mut clients = Vec::new();
        // Hostile client 1: garbage bytes on TCP.
        let hd = &hostiles_done;
        clients.push(scope.spawn(move || {
            let mut sock = TcpStream::connect(tcp_addr).expect("connect tcp");
            let _ = sock.write_all(b"SSWF but then it all goes wrong \xff\xff\xff");
            drop(sock);
            hd.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }));
        // Hostile client 2: a valid prefix torn off mid-frame (UDS).
        let uds_path2 = uds_path.clone();
        let hd = &hostiles_done;
        clients.push(scope.spawn(move || {
            let mut pipe = Vec::new();
            let mut c = Collector::new_sequenced(9000, config(spec));
            c.offer_batch(&keyed_points(5000, 16));
            finish(&mut c, &mut pipe).expect("in-memory");
            let mut sock = UnixStream::connect(&uds_path2).expect("connect uds");
            let _ = sock.write_all(&pipe[..pipe.len() - 7]);
            drop(sock);
            hd.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }));
        // Hostile client 3: a lone Hello then a torn Delta on TCP —
        // frames *were* delivered, so the rollback path is exercised.
        let hd = &hostiles_done;
        clients.push(scope.spawn(move || {
            let mut sock = TcpStream::connect(tcp_addr).expect("connect tcp");
            let hello = encode_frame(&Frame::Hello {
                protocol: sst_monitor::WIRE_VERSION,
                collector_id: 9001,
                resume: None,
            });
            let mut engine = MonitorEngine::new(config(spec));
            engine.offer_batch(&keyed_points(3000, 8));
            let delta = encode_frame(&Frame::Delta(engine.snapshot()));
            let _ = sock.write_all(&hello);
            let _ = sock.write_all(&delta[..delta.len() / 2]);
            drop(sock);
            hd.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }));
        // Hostile clients 4–6: connect-and-close probes on both
        // transports — must not consume collector slots.
        for i in 0..3u64 {
            let uds_path = uds_path.clone();
            let hd = &hostiles_done;
            clients.push(scope.spawn(move || {
                if i % 2 == 0 {
                    drop(TcpStream::connect(tcp_addr));
                } else {
                    drop(UnixStream::connect(&uds_path));
                }
                hd.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }));
        }
        // n healthy collectors, mixed transports.
        for part in 0..n {
            let uds_path = uds_path.clone();
            let hd = &hostiles_done;
            clients.push(scope.spawn(move || {
                if part == 0 {
                    while hd.load(std::sync::atomic::Ordering::SeqCst) < N_HOSTILE {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                let sock = if part % 2 == 0 {
                    SessionStream::from(UnixStream::connect(&uds_path).expect("connect uds"))
                } else {
                    SessionStream::from(TcpStream::connect(tcp_addr).expect("connect tcp"))
                };
                send_session(sock, &session_pipe(points, part, n, spec));
            }));
        }
        for c in clients {
            c.join().expect("client thread");
        }
        server_thread.join().expect("server thread")
    });
    let _ = std::fs::remove_file(&uds_path);

    assert_eq!(
        rep.completed, n as usize,
        "{tag}: all healthy collectors count"
    );
    assert!(!rep.timed_out, "{tag}");
    // Garbage + two torn streams fail; probes may race EOF-vs-reset on
    // TCP (a reset counts as a failure, not a probe), so only bound
    // their split.
    assert!(
        rep.failures.len() >= 3,
        "{tag}: garbage + two torn streams must be recorded: {:?}",
        rep.failures
    );
    assert_eq!(
        rep.failures.len() + rep.probes,
        N_HOSTILE,
        "{tag}: every hostile session ends up logged"
    );
    assert_eq!(
        rep.sessions.len(),
        n as usize,
        "{tag}: one stats entry per completed session"
    );
    assert!(
        rep.sessions.iter().all(|s| s.bytes > 0 && s.frames > 0),
        "{tag}: delivery counters are live"
    );
    assert_eq!(assembled, reference.snapshot(), "{tag}");
    assert_eq!(
        encode_snapshot(&assembled),
        encode_snapshot(&reference.snapshot()),
        "{tag}: byte-identical to the unsharded run"
    );
}

#[test]
fn event_loop_64_mixed_sessions_with_hostile_clients_match_unsharded_bytes() {
    const N: u64 = 64;
    let points = keyed_points(300_000, 512);
    hostile_mixed_scenario("single", N, &points, serve(1, N));
}

#[test]
fn multi_loop_mixed_sessions_with_hostile_clients_match_unsharded_bytes() {
    const N: u64 = 16;
    let points = keyed_points(120_000, 256);
    for loops in [2usize, 4] {
        hostile_mixed_scenario(&format!("multi_x{loops}"), N, &points, serve(loops, N));
    }
}

/// Read-budget fairness: a firehose session that *never stops sending*
/// must not starve slow sessions sharing its loop. The serve target is
/// the four slow sessions alone — it is reachable only if their frames
/// land while the firehose is still blasting (the per-round byte
/// budget leaves the fd readable for level-triggered epoll and hands
/// the loop on).
#[test]
fn slow_sessions_complete_while_a_firehose_is_streaming() {
    const SLOW: u64 = 4;
    let spec = SamplerSpec::Systematic { interval: 7 };
    let points = keyed_points(20_000, 64);
    let mut reference = MonitorEngine::new(config(spec));
    for &(k, v) in &points {
        reference.offer(k, v);
    }

    let dir = std::env::temp_dir().join(format!("sst_fair_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let uds_path = dir.join("fair.sock");
    let _ = std::fs::remove_file(&uds_path);
    let uds = UnixListener::bind(&uds_path).expect("bind uds");
    // One loop, so the firehose and the slow sessions share it. The
    // minute-long idle deadline is the hang guard: if the firehose
    // *did* starve the slow sessions, it fails the test instead of
    // wedging it.
    let mut server = serve(1, SLOW);
    server.add_unix_listener(uds).expect("register uds");

    let start = Instant::now();
    let (assembled, rep) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(move || run(server));
        // The firehose: Hello, then an endless stream of large
        // Delta frames until the server hangs up on it.
        let fire_path = uds_path.clone();
        scope.spawn(move || {
            let mut sock = UnixStream::connect(&fire_path).expect("connect firehose");
            let hello = encode_frame(&Frame::Hello {
                protocol: sst_monitor::WIRE_VERSION,
                collector_id: 9999,
                resume: None,
            });
            let mut engine = MonitorEngine::new(config(spec));
            engine.offer_batch(&keyed_points(30_000, 128));
            let delta = encode_frame(&Frame::Delta(engine.snapshot()));
            if sock.write_all(&hello).is_err() {
                return;
            }
            loop {
                // Ends with a write error once the serve reaches
                // its target and closes the socket (Rust ignores
                // SIGPIPE, so this is Err, not a signal death).
                if sock.write_all(&delta).is_err() {
                    return;
                }
            }
        });
        // Give the firehose a head start so it is mid-stream (and
        // has delivered frames) before any slow session arrives.
        std::thread::sleep(Duration::from_millis(50));
        for part in 0..SLOW {
            let points = &points;
            let uds_path = uds_path.clone();
            scope.spawn(move || {
                let sock = UnixStream::connect(&uds_path).expect("connect slow");
                send_session(sock.into(), &session_pipe(points, part, SLOW, spec));
            });
        }
        server_thread.join().expect("server thread")
    });
    let _ = std::fs::remove_file(&uds_path);

    assert_eq!(
        rep.completed, SLOW as usize,
        "every slow session must land despite the firehose"
    );
    assert!(!rep.timed_out, "must not need the idle deadline");
    assert_eq!(
        rep.aborted, 1,
        "the firehose was still mid-stream at shutdown"
    );
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "slow sessions must land within a bounded time, took {:?}",
        start.elapsed()
    );
    assert_eq!(
        assembled,
        reference.snapshot(),
        "the aborted firehose must leave no trace"
    );
}

/// The serve loop runs the same state machine an in-memory replay
/// does, so the same sessions must assemble to the same bytes:
/// [`SessionDriver::push`] straight into one aggregator vs the event
/// loop over live Unix sockets.
#[test]
fn in_memory_driver_and_event_loop_assemble_identical_bytes() {
    let points = keyed_points(60_000, 96);
    let spec = SamplerSpec::Bss {
        interval: 11,
        epsilon: 1.0,
        n_pre: 8,
        l: 3,
    };
    const N: u64 = 4;
    let session_pipes: Vec<Vec<u8>> = (0..N)
        .map(|part| session_pipe(&points, part, N, spec))
        .collect();

    // In memory: each session's bytes pushed through its own driver,
    // in socket-read-sized chunks.
    let in_memory = {
        let mut agg = Aggregator::new();
        for (i, pipe) in session_pipes.iter().enumerate() {
            let frames =
                ingest(&mut agg, pipe, FALLBACK_ID_BASE + i as u64).expect("clean session");
            assert!(frames > 0);
        }
        agg.snapshot()
    };

    // Event loop: the same byte streams over live sockets.
    let dir = std::env::temp_dir().join(format!("sst_transport_eq_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let uds_path = dir.join("eq.sock");
    let _ = std::fs::remove_file(&uds_path);
    let uds = UnixListener::bind(&uds_path).expect("bind uds");
    let mut server = serve(1, N);
    server.add_unix_listener(uds).expect("register uds");
    let event_loop = std::thread::scope(|scope| {
        let server_thread = scope.spawn(move || run(server));
        for pipe in &session_pipes {
            let uds_path = uds_path.clone();
            scope.spawn(move || {
                let sock = UnixStream::connect(&uds_path).expect("connect");
                send_session(sock.into(), pipe);
            });
        }
        let (snapshot, rep) = server_thread.join().expect("server thread");
        assert_eq!(rep.completed, N as usize);
        snapshot
    });
    let _ = std::fs::remove_file(dir.join("eq.sock"));

    assert_eq!(in_memory, event_loop);
    assert_eq!(encode_snapshot(&in_memory), encode_snapshot(&event_loop));
    // And both equal the unsharded engine (partitions cover every key).
    let mut reference = MonitorEngine::new(config(spec));
    for &(k, v) in &points {
        reference.offer(k, v);
    }
    assert_eq!(event_loop, reference.snapshot());
}

/// Streams partition `part` of `n_parts` through a collector with a
/// generous retry budget — the library equivalent of `monitor_tool
/// forward --retry`. Panics if the budget runs out: the fault plans go
/// clean past a threshold, so a healthy stack always converges.
fn drive_sequenced(
    part: u64,
    n_parts: u64,
    points: &[(u64, f64)],
    spec: SamplerSpec,
    connect: impl FnMut() -> std::io::Result<SessionStream>,
) {
    let mine = partition(points, part, n_parts);
    let mut sender = SequencedSender::new(
        Collector::new_sequenced(part, config(spec).shards(2)),
        connect,
        // Small, capped delays keep the test fast; the seed makes each
        // forwarder's schedule distinct but reproducible.
        Backoff::new(2, 40, 0xFA01 ^ part),
        200,
    );
    for chunk in mine.chunks(600) {
        sender.collector_mut().offer_batch(chunk);
        sender.flush().expect("sequenced flush within retry budget");
    }
    sender
        .finish()
        .expect("sequenced finish within retry budget");
}

/// The ISSUE 7 headline run: `n` sequenced collectors — even ids over
/// a Unix-socket fault proxy, odd ids over a TCP fault proxy — with
/// the first `faulted` connections per proxy mangled (drops, mid-frame
/// kills, delays, split writes) by seed-determined plans. Every
/// forwarder must converge through retries, and the assembled snapshot
/// must still be byte-identical to the unsharded engine.
fn faulted_scenario(
    tag: &str,
    n: u64,
    points: &[(u64, f64)],
    mut server: MultiLoopServer,
    seed: u64,
) {
    let spec = SamplerSpec::Systematic { interval: 7 };
    let mut reference = MonitorEngine::new(config(spec));
    for &(k, v) in points {
        reference.offer(k, v);
    }

    let dir = std::env::temp_dir().join(format!("sst_fault_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let uds_path = dir.join("agg.sock");
    let _ = std::fs::remove_file(&uds_path);
    let uds = UnixListener::bind(&uds_path).expect("bind uds");
    let tcp = TcpListener::bind("127.0.0.1:0").expect("bind tcp");
    let tcp_addr = tcp.local_addr().expect("tcp addr");
    server.add_unix_listener(uds).expect("register uds");
    server.add_tcp_listener(tcp).expect("register tcp");

    // The proxies: every forwarder connects *through* these.
    const FAULTED_PER_PROXY: u64 = 40;
    let proxy_uds_path = dir.join("proxy.sock");
    let _ = std::fs::remove_file(&proxy_uds_path);
    let proxy_uds = FaultyLink::spawn(
        Front::Unix(UnixListener::bind(&proxy_uds_path).expect("bind proxy uds")),
        Target::Unix(uds_path.to_string_lossy().into_owned()),
        seed,
        FAULTED_PER_PROXY,
    )
    .expect("spawn uds proxy");
    let proxy_tcp_listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy tcp");
    let proxy_tcp_front = Front::Tcp(proxy_tcp_listener);
    let proxy_tcp_addr = proxy_tcp_front.tcp_addr().expect("proxy tcp addr");
    let proxy_tcp = FaultyLink::spawn(
        proxy_tcp_front,
        Target::Tcp(tcp_addr.to_string()),
        seed ^ 0x5EED,
        FAULTED_PER_PROXY,
    )
    .expect("spawn tcp proxy");

    let (assembled, rep) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(move || run(server));
        let mut clients = Vec::new();
        for part in 0..n {
            let proxy_uds_path = proxy_uds_path.clone();
            let points = &points;
            clients.push(scope.spawn(move || {
                if part % 2 == 0 {
                    drive_sequenced(part, n, points, spec, move || {
                        UnixStream::connect(&proxy_uds_path).map(SessionStream::from)
                    });
                } else {
                    drive_sequenced(part, n, points, spec, move || {
                        TcpStream::connect(proxy_tcp_addr).map(SessionStream::from)
                    });
                }
            }));
        }
        for c in clients {
            c.join().expect("forwarder thread");
        }
        server_thread.join().expect("server thread")
    });
    let accepted = proxy_uds.accepted() + proxy_tcp.accepted();
    drop(proxy_uds);
    drop(proxy_tcp);
    let _ = std::fs::remove_file(&uds_path);
    let _ = std::fs::remove_file(dir.join("proxy.sock"));

    assert_eq!(rep.completed, n as usize, "{tag}: every collector lands");
    assert!(!rep.timed_out, "{tag}");
    assert!(
        accepted > n,
        "{tag}: faults must have forced retries (accepted {accepted} ≤ {n} connections)"
    );
    assert!(
        !rep.failures.is_empty(),
        "{tag}: killed sessions must be recorded (accepted {accepted})"
    );
    assert_eq!(assembled, reference.snapshot(), "{tag}");
    assert_eq!(
        encode_snapshot(&assembled),
        encode_snapshot(&reference.snapshot()),
        "{tag}: byte-identical to the unsharded run despite injected faults"
    );
    // ISSUE 9: second-and-later flushes ride differential frames, and
    // the injected faults (which force resyncs and re-baselines) must
    // not cost that — nor, per the asserts above, bit-exactness.
    let diff_bytes: u64 = rep.sessions.iter().map(|s| s.diff_bytes).sum();
    assert!(
        diff_bytes > 0,
        "{tag}: faulted sessions must still deliver differential frames"
    );
}

#[test]
fn sequenced_sessions_survive_seeded_faults_single_loop() {
    const N: u64 = 64;
    let points = keyed_points(120_000, 256);
    faulted_scenario("single", N, &points, serve(1, N), 0xC0FFEE);
}

#[test]
fn sequenced_sessions_survive_seeded_faults_multi_loop() {
    const N: u64 = 64;
    let points = keyed_points(120_000, 256);
    for loops in [2usize, 4] {
        faulted_scenario(
            &format!("multi_x{loops}"),
            N,
            &points,
            serve(loops, N),
            0xC0FFEE ^ loops as u64,
        );
    }
}

/// Version negotiation live: one-way v2 sessions (as pre-sequencing
/// forwarders sent them) and sequenced v4 forwarders share one serve,
/// and the assembled snapshot is still the unsharded engine's bytes —
/// a v2-only binary keeps working unchanged against this aggregator.
#[test]
fn mixed_v2_and_v3_sessions_assemble_identical_bytes() {
    const N: u64 = 8;
    let spec = SamplerSpec::Systematic { interval: 7 };
    let points = keyed_points(60_000, 128);
    let mut reference = MonitorEngine::new(config(spec));
    for &(k, v) in &points {
        reference.offer(k, v);
    }
    let dir = std::env::temp_dir().join(format!("sst_mixed_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let uds_path = dir.join("mixed.sock");
    let _ = std::fs::remove_file(&uds_path);
    let uds = UnixListener::bind(&uds_path).expect("bind uds");
    let mut server = serve(1, N);
    server.add_unix_listener(uds).expect("register uds");
    let (assembled, rep) = std::thread::scope(|scope| {
        let server_thread = scope.spawn(move || run(server));
        for part in 0..N {
            let uds_path = uds_path.clone();
            let points = &points;
            scope.spawn(move || {
                if part % 2 == 0 {
                    // One-way v2: the serve never writes back to it.
                    let mut sock = UnixStream::connect(&uds_path).expect("connect uds");
                    sock.write_all(&v2_session(points, part, N, spec))
                        .expect("write v2 session");
                } else {
                    drive_sequenced(part, N, points, spec, move || {
                        UnixStream::connect(&uds_path).map(SessionStream::from)
                    });
                }
            });
        }
        server_thread.join().expect("server thread")
    });
    let _ = std::fs::remove_file(dir.join("mixed.sock"));
    assert_eq!(rep.completed, N as usize);
    assert!(rep.failures.is_empty(), "{:?}", rep.failures);
    assert_eq!(
        encode_snapshot(&assembled),
        encode_snapshot(&reference.snapshot()),
        "mixed-version serve must still assemble the reference bytes"
    );
}

/// The serve process dies mid-run and a new one takes over the same
/// socket: retrying forwarders must reconnect, be told to resync (the
/// fresh aggregator has no per-collector watermark), re-baseline from
/// a full snapshot, and still assemble the reference bytes. The first
/// serve's teardown also exercises the best-effort `Shutdown` frame.
#[test]
fn serve_restart_mid_run_survived_by_full_snapshot_resync() {
    const N: u64 = 8;
    let spec = SamplerSpec::Systematic { interval: 7 };
    let points = keyed_points(60_000, 128);
    let mut reference = MonitorEngine::new(config(spec));
    for &(k, v) in &points {
        reference.offer(k, v);
    }

    let dir = std::env::temp_dir().join(format!("sst_restart_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let uds_path = dir.join("restart.sock");
    let _ = std::fs::remove_file(&uds_path);

    let phase_a_done = AtomicUsize::new(0);
    let serve2_up = AtomicBool::new(false);

    // Serve 1 stops after ONE completed session — the throwaway dummy
    // below — stranding the 8 sequenced forwarders mid-stream.
    let uds1 = UnixListener::bind(&uds_path).expect("bind uds 1");
    let mut serve1 = serve(1, 1);
    serve1.add_unix_listener(uds1).expect("register uds 1");

    let (assembled, rep2) = std::thread::scope(|scope| {
        let serve1_thread = scope.spawn(move || run(serve1));
        let mut clients = Vec::new();
        for part in 0..N {
            let uds_path = uds_path.clone();
            let points = &points;
            let phase_a_done = &phase_a_done;
            let serve2_up = &serve2_up;
            clients.push(scope.spawn(move || {
                let mine: Vec<(u64, f64)> = points
                    .iter()
                    .filter(|&&(k, _)| k % N == part)
                    .copied()
                    .collect();
                let connect_path = uds_path.clone();
                let mut sender = SequencedSender::new(
                    Collector::new_sequenced(part, config(spec).shards(2)),
                    move || UnixStream::connect(&connect_path).map(SessionStream::from),
                    Backoff::new(2, 40, 0xBEEF ^ part),
                    400,
                );
                let (first, second) = mine.split_at(mine.len() / 2);
                sender.collector_mut().offer_batch(first);
                sender.flush().expect("phase A flush");
                phase_a_done.fetch_add(1, Ordering::SeqCst);
                while !serve2_up.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(2));
                }
                sender.collector_mut().offer_batch(second);
                sender.flush().expect("phase B flush");
                sender.finish().expect("finish against serve 2");
            }));
        }
        // Once every forwarder has frames inside serve 1, complete the
        // dummy session so serve 1 reaches its target and tears down.
        while phase_a_done.load(Ordering::SeqCst) < N as usize {
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            let mut dummy = Collector::new_sequenced(9000, config(spec));
            dummy.offer_batch(&keyed_points(500, 4));
            let mut pipe = Vec::new();
            finish(&mut dummy, &mut pipe).expect("in-memory");
            let sock = UnixStream::connect(&uds_path).expect("connect dummy");
            send_session(sock.into(), &pipe);
        }
        serve1_thread.join().expect("serve 1 thread");
        // Same path, fresh process state: the restart.
        let _ = std::fs::remove_file(&uds_path);
        let uds2 = UnixListener::bind(&uds_path).expect("bind uds 2");
        let mut serve2 = serve(1, N);
        serve2.add_unix_listener(uds2).expect("register uds 2");
        let serve2_thread = scope.spawn(move || run(serve2));
        serve2_up.store(true, Ordering::SeqCst);
        for c in clients {
            c.join().expect("forwarder thread");
        }
        serve2_thread.join().expect("serve 2 thread")
    });
    let _ = std::fs::remove_file(dir.join("restart.sock"));

    assert_eq!(
        rep2.completed, N as usize,
        "every forwarder must land on the restarted serve"
    );
    assert_eq!(
        encode_snapshot(&assembled),
        encode_snapshot(&reference.snapshot()),
        "restart must be invisible in the assembled bytes (full-snapshot resync)"
    );
}
