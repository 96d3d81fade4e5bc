//! `monitor-tool` — drive the layered monitoring stack over synthetic
//! packet traces: run a standalone engine, inspect/merge snapshots, or
//! assemble a collector → aggregator topology over Unix sockets.
//!
//! ```text
//! monitor-tool run [--seed N] [--duration SECS] [--shards N]
//!                  [--interval C] [--snapshot OUT.ssm]
//!                  [--evict-idle TICKS] [--max-streams N] [--compact BYTES]
//!                  [--max-exact-keys N] [--sketch-bytes B]
//!     synthesize a Bell-Labs-like trace, ingest it as per-OD-pair
//!     streams (batched through the worker pool), print the link report,
//!     optionally write the snapshot. --max-exact-keys enables the
//!     two-tier store: at most N exact live streams, the long tail in
//!     a fixed-memory sketch of --sketch-bytes bytes (default 256 KiB)
//! monitor-tool info IN.ssm          # decode a snapshot, print the report
//! monitor-tool merge OUT.ssm IN.ssm [IN.ssm …]
//!     merge snapshots (disjoint or overlapping key sets) into one
//! monitor-tool serve SOCKET [--tcp HOST:PORT] --collectors N [--out OUT.ssm]
//!                  [--accept-timeout SECS] [--loops N] [--report-sessions]
//!                  [--max-exact-keys N] [--sketch-bytes B]
//!     accept collector sessions on a Unix socket (and, with --tcp, a
//!     TCP listener) until N sessions *delivered frames and closed
//!     cleanly*, assemble them, print the merged report. One accept
//!     dispatcher hands sessions to epoll event loops: one by default,
//!     --loops N for one per core. --report-sessions prints
//!     per-session delivery counters so the loop balance is
//!     inspectable. Hostile sessions — garbage bytes, mid-frame
//!     disconnects, connect-and-close probes — are logged and
//!     isolated, never fatal. --max-exact-keys caps each session's
//!     *retired* store server-side (overflow finals demote into a
//!     per-session sketch); --sketch-bytes compacts sketch images.
//! monitor-tool forward TARGET [--tcp] [--id K] [--partition I/N] [--seed N]
//!                  [--duration SECS] [--interval C] [--flush-every P]
//!                  [--evict-idle TICKS] [--compact BYTES]
//!                  [--max-exact-keys N] [--sketch-bytes B]
//!                  [--retry N] [--backoff-ms B]
//!     synthesize the shared trace, keep only keys hashing to partition
//!     I of N, and stream Hello/Delta/Evicted/Bye frames to TARGET —
//!     a Unix socket path, or host:port with --tcp. With --retry N the
//!     session is *sequenced* (wire v3): every frame carries a seq,
//!     acks trim an in-flight window, and up to N reconnects — connect
//!     *and* mid-stream failures alike — replay the unacked tail (or
//!     resync from a full snapshot after a serve restart) on a capped
//!     exponential backoff starting at B ms (default 50).
//! ```
//!
//! With the default (no-eviction) configuration, `serve` + N×`forward`
//! on the same seed reproduce, byte for byte, the snapshot `run`
//! computes single-process — the wire-boundary merge-equivalence
//! guarantee, demoable from the shell, over either socket family. With
//! `--evict-idle` the clocks differ (each forwarder counts only its
//! partition's points, `run` counts all), so a key that reappears after
//! eviction restarts its sampler at different logical times: *totals*
//! stay exact, but kept sample sets — and hence the bytes — can diverge
//! from `run`'s.

use sst_monitor::retry::{Backoff, SequencedSender};
use sst_monitor::topology::Aggregator;
use sst_monitor::transport::{MultiLoopServer, ServeOptions, SessionStream};
use sst_monitor::Collector;
use sst_monitor::{
    decode_snapshot, encode_snapshot, EngineSnapshot, MonitorConfig, MonitorEngine, SamplerSpec,
};
use sst_nettrace::TraceSynthesizer;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.into_iter();
    match it.next().as_deref() {
        Some("run") => run(it.collect()),
        Some("info") => {
            let path = it
                .next()
                .unwrap_or_else(|| die("info needs a snapshot path"));
            report(&load(&path));
        }
        Some("merge") => {
            let out = it
                .next()
                .unwrap_or_else(|| die("merge needs an output path"));
            let inputs: Vec<String> = it.collect();
            if inputs.is_empty() {
                die("merge needs at least one input snapshot");
            }
            let mut merged = EngineSnapshot::default();
            for p in &inputs {
                merged = merged.merge(load(p));
            }
            let bytes = encode_snapshot(&merged);
            std::fs::write(&out, &bytes).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
            eprintln!(
                "merged {} snapshots into {out}: {} streams, {} bytes",
                inputs.len(),
                merged.stream_count(),
                bytes.len()
            );
            report(&merged);
        }
        Some("serve") => serve(it.collect()),
        Some("forward") => forward(it.collect()),
        _ => die("usage: monitor-tool run|info|merge|serve|forward …  (see the module docs)"),
    }
}

/// Shared trace + engine shape so `run` and N×`forward` agree.
struct Workload {
    seed: u64,
    duration: f64,
    interval: usize,
    evict_idle: Option<u64>,
    max_streams: Option<usize>,
    compact: Option<usize>,
    max_exact_keys: Option<usize>,
    sketch_bytes: Option<usize>,
}

impl Workload {
    fn points(&self) -> Vec<(u64, f64)> {
        let trace = TraceSynthesizer::bell_labs_like()
            .duration(self.duration)
            .synthesize(self.seed);
        eprintln!(
            "trace: {} packets over {} OD pairs, {:.0}s",
            trace.len(),
            trace.od_pair_count(),
            trace.duration()
        );
        trace.od_keyed_points()
    }

    fn config(&self, shards: usize) -> MonitorConfig {
        let mut config = MonitorConfig::default()
            .sampler(if self.interval <= 1 {
                SamplerSpec::TakeAll
            } else {
                SamplerSpec::Bss {
                    interval: self.interval,
                    epsilon: 1.0,
                    n_pre: 16,
                    l: 4,
                }
            })
            .shards(shards)
            .seed(self.seed)
            // Packet sizes are 40..1500 bytes: a ladder on that scale.
            .tail_thresholds(vec![64.0, 256.0, 576.0, 1024.0, 1400.0]);
        if let Some(t) = self.evict_idle {
            config = config.evict_idle_after(t);
        }
        if let Some(n) = self.max_streams {
            config = config.max_streams(n);
        }
        if let Some(b) = self.compact {
            config = config.compact_budget(b);
        }
        if let Some(n) = self.max_exact_keys {
            config = config.max_exact_keys(n);
        }
        if let Some(b) = self.sketch_bytes {
            config = config.sketch_bytes(b);
        }
        config
    }
}

fn run(rest: Vec<String>) {
    let mut w = Workload {
        seed: 1,
        duration: 120.0,
        interval: 10,
        evict_idle: None,
        max_streams: None,
        compact: None,
        max_exact_keys: None,
        sketch_bytes: None,
    };
    let mut shards = 4usize;
    let mut snapshot_path: Option<String> = None;
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match a.as_str() {
            "--seed" => w.seed = parse(&num("--seed"), "--seed"),
            "--duration" => w.duration = parse(&num("--duration"), "--duration"),
            "--shards" => shards = parse(&num("--shards"), "--shards"),
            "--interval" => w.interval = parse(&num("--interval"), "--interval"),
            "--snapshot" => snapshot_path = Some(num("--snapshot")),
            "--evict-idle" => w.evict_idle = Some(parse(&num("--evict-idle"), "--evict-idle")),
            "--max-streams" => {
                w.max_streams = Some(parse(&num("--max-streams"), "--max-streams"));
            }
            "--compact" => w.compact = Some(parse(&num("--compact"), "--compact")),
            "--max-exact-keys" => {
                w.max_exact_keys = Some(parse(&num("--max-exact-keys"), "--max-exact-keys"));
            }
            "--sketch-bytes" => {
                w.sketch_bytes = Some(parse(&num("--sketch-bytes"), "--sketch-bytes"));
            }
            other => die(&format!("unexpected argument '{other}'")),
        }
    }
    let points = w.points();
    let mut engine = MonitorEngine::new(w.config(shards));
    // Stream the trace through in batches, as a collector would.
    for chunk in points.chunks(1 << 16) {
        engine.offer_batch(chunk);
    }
    engine.maintain();
    let stats = engine.lifecycle_stats();
    if stats.evicted > 0 {
        eprintln!(
            "lifecycle: {} evicted, {} retired, {} live, ~{} KiB state",
            stats.evicted,
            stats.retired,
            engine.stream_count(),
            engine.estimated_state_bytes() >> 10
        );
    }
    if let Some(t) = engine.tier_stats() {
        eprintln!(
            "tier: {} exact, ~{} sketched, {} promotions, {} demotions, ~{} KiB sketch",
            t.exact_keys,
            t.sketched_keys,
            t.promotions,
            t.demotions,
            t.sketch_state_bytes >> 10
        );
    }
    let snap = engine.full_snapshot();
    report(&snap);
    if let Some(path) = snapshot_path {
        let bytes = encode_snapshot(&snap);
        std::fs::write(&path, &bytes).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        eprintln!("wrote {path}: {} bytes", bytes.len());
    }
}

fn serve(rest: Vec<String>) {
    let mut it = rest.into_iter();
    let socket = it
        .next()
        .unwrap_or_else(|| die("serve needs a socket path"));
    let mut collectors = 1usize;
    let mut out: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut accept_timeout: Option<Duration> = None;
    let mut loops = 1usize;
    let mut report_sessions = false;
    let mut max_exact_keys: Option<usize> = None;
    let mut sketch_bytes: Option<usize> = None;
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match a.as_str() {
            "--collectors" => collectors = parse(&num("--collectors"), "--collectors"),
            "--out" => out = Some(num("--out")),
            "--tcp" => tcp = Some(num("--tcp")),
            "--accept-timeout" => {
                let secs: f64 = parse(&num("--accept-timeout"), "--accept-timeout");
                // try_from rejects NaN, infinity, and out-of-range;
                // the explicit check below rejects zero and negatives.
                match Duration::try_from_secs_f64(secs) {
                    Ok(d) if !d.is_zero() => accept_timeout = Some(d),
                    _ => die("--accept-timeout needs a positive (finite) number of seconds"),
                }
            }
            "--loops" => {
                loops = parse(&num("--loops"), "--loops");
                if loops == 0 {
                    die("--loops needs at least 1");
                }
            }
            "--report-sessions" => report_sessions = true,
            "--max-exact-keys" => {
                max_exact_keys = Some(parse(&num("--max-exact-keys"), "--max-exact-keys"));
            }
            "--sketch-bytes" => {
                sketch_bytes = Some(parse(&num("--sketch-bytes"), "--sketch-bytes"));
            }
            other => die(&format!("unexpected argument '{other}'")),
        }
    }
    let _ = std::fs::remove_file(&socket);
    let listener =
        UnixListener::bind(&socket).unwrap_or_else(|e| die(&format!("bind {socket}: {e}")));
    let plural = if loops == 1 { "" } else { "s" };
    eprintln!("listening on {socket} for {collectors} collector(s) [{loops} event loop{plural}]");
    let make_agg = || {
        let mut a = Aggregator::new();
        if let Some(n) = max_exact_keys {
            a = a.max_exact_keys(n);
        }
        if let Some(b) = sketch_bytes {
            a = a.sketch_bytes(b);
        }
        a
    };
    let mut server = MultiLoopServer::new(
        (0..loops).map(|_| make_agg()).collect(),
        ServeOptions {
            collectors,
            accept_timeout,
        },
    );
    server
        .add_unix_listener(listener)
        .unwrap_or_else(|e| die(&format!("register unix listener: {e}")));
    if let Some(addr) = &tcp {
        let l = TcpListener::bind(addr).unwrap_or_else(|e| die(&format!("bind {addr}: {e}")));
        // :0 resolves to an ephemeral port; print the real one so
        // forwarders (and tests) can find it.
        match l.local_addr() {
            Ok(a) => eprintln!("listening on tcp {a}"),
            Err(_) => eprintln!("listening on tcp {addr}"),
        }
        server
            .add_tcp_listener(l)
            .unwrap_or_else(|e| die(&format!("register tcp listener: {e}")));
    }
    let (aggs, rep) = server
        .run()
        .unwrap_or_else(|e| die(&format!("event loops: {e}")));
    let _ = std::fs::remove_file(&socket);
    for f in &rep.failures {
        eprintln!(
            "session failed ({}, id {}): {} — isolated, kept serving",
            f.peer,
            f.session.map_or("unknown".into(), |s| s.to_string()),
            f.error
        );
    }
    if rep.probes > 0 {
        eprintln!("ignored {} connect-and-close probe(s)", rep.probes);
    }
    if report_sessions {
        for s in &rep.sessions {
            eprintln!(
                "session delivered: id={} peer={} loop={} frames={} bytes={} \
                 diff_bytes={} full_bytes={} resyncs={}",
                s.session.map_or("-".into(), |id| id.to_string()),
                s.peer,
                s.worker,
                s.frames,
                s.bytes,
                s.diff_bytes,
                s.full_bytes,
                s.resyncs
            );
        }
    }
    if rep.aborted > 0 {
        eprintln!(
            "dropped {} session(s) still mid-stream at shutdown",
            rep.aborted
        );
    }
    if rep.timed_out {
        eprintln!(
            "accept timeout: assembled {} of {collectors} expected collector(s)",
            rep.completed
        );
    }
    eprintln!(
        "assembled {} collector session(s), ~{} KiB aggregator state",
        aggs.collector_count(),
        aggs.estimated_state_bytes() >> 10
    );
    let snap = aggs.snapshot();
    report(&snap);
    if let Some(path) = out {
        let bytes = encode_snapshot(&snap);
        std::fs::write(&path, &bytes).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        eprintln!("wrote {path}: {} bytes", bytes.len());
    }
}

fn forward(rest: Vec<String>) {
    let mut it = rest.into_iter();
    let socket = it
        .next()
        .unwrap_or_else(|| die("forward needs a socket path (or host:port with --tcp)"));
    let mut w = Workload {
        seed: 1,
        duration: 120.0,
        interval: 10,
        evict_idle: None,
        max_streams: None,
        compact: None,
        max_exact_keys: None,
        sketch_bytes: None,
    };
    let mut id: Option<u64> = None;
    let mut part = 0u64;
    let mut n_parts = 1u64;
    let mut flush_every = 1usize << 14;
    let mut tcp = false;
    let mut retry = 0u32;
    let mut backoff_ms = 50u64;
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match a.as_str() {
            "--tcp" => tcp = true,
            "--seed" => w.seed = parse(&num("--seed"), "--seed"),
            "--duration" => w.duration = parse(&num("--duration"), "--duration"),
            "--interval" => w.interval = parse(&num("--interval"), "--interval"),
            "--id" => id = Some(parse(&num("--id"), "--id")),
            "--partition" => {
                let spec = num("--partition");
                let (i, n) = spec
                    .split_once('/')
                    .unwrap_or_else(|| die("--partition expects I/N"));
                part = parse(i, "--partition");
                n_parts = parse(n, "--partition");
                if n_parts == 0 || part >= n_parts {
                    die("--partition needs I < N, N >= 1");
                }
            }
            "--flush-every" => flush_every = parse(&num("--flush-every"), "--flush-every"),
            "--evict-idle" => w.evict_idle = Some(parse(&num("--evict-idle"), "--evict-idle")),
            "--compact" => w.compact = Some(parse(&num("--compact"), "--compact")),
            "--max-exact-keys" => {
                w.max_exact_keys = Some(parse(&num("--max-exact-keys"), "--max-exact-keys"));
            }
            "--sketch-bytes" => {
                w.sketch_bytes = Some(parse(&num("--sketch-bytes"), "--sketch-bytes"));
            }
            "--retry" => retry = parse(&num("--retry"), "--retry"),
            "--backoff-ms" => backoff_ms = parse(&num("--backoff-ms"), "--backoff-ms"),
            other => die(&format!("unexpected argument '{other}'")),
        }
    }
    let points: Vec<(u64, f64)> = w
        .points()
        .into_iter()
        .filter(|&(k, _)| k % n_parts == part)
        .collect();
    let collector_id = id.unwrap_or(part);
    if retry > 0 {
        // Sequenced (wire v3) path: seq/ack window, reconnect with
        // backoff, replay or full-snapshot resync.
        let target = socket.clone();
        let connect = move || -> std::io::Result<SessionStream> {
            if tcp {
                TcpStream::connect(target.as_str()).map(SessionStream::from)
            } else {
                UnixStream::connect(target.as_str()).map(SessionStream::from)
            }
        };
        let backoff = Backoff::new(
            backoff_ms,
            backoff_ms.saturating_mul(64),
            w.seed ^ collector_id,
        );
        let mut sender = SequencedSender::new(
            Collector::new_sequenced(collector_id, w.config(2)),
            connect,
            backoff,
            retry,
        );
        for chunk in points.chunks(flush_every.max(1)) {
            sender.collector_mut().offer_batch(chunk);
            sender
                .flush()
                .unwrap_or_else(|e| die(&format!("flush: {e}")));
        }
        let reconnects = sender.reconnects();
        let collector = sender
            .finish()
            .unwrap_or_else(|e| die(&format!("finish: {e}")));
        let stats = collector.engine().lifecycle_stats();
        eprintln!(
            "forwarded {} points as collector {collector_id} (partition {part}/{n_parts}, \
             {} evicted, sequenced, {} reconnects)",
            points.len(),
            stats.evicted,
            reconnects
        );
        return;
    }
    let mut sock: Box<dyn Write> = if tcp {
        Box::new(
            TcpStream::connect(&socket).unwrap_or_else(|e| die(&format!("connect {socket}: {e}"))),
        )
    } else {
        Box::new(
            UnixStream::connect(&socket).unwrap_or_else(|e| die(&format!("connect {socket}: {e}"))),
        )
    };
    let mut collector = Collector::new(collector_id, w.config(2));
    for chunk in points.chunks(flush_every.max(1)) {
        collector.offer_batch(chunk);
        collector
            .flush(&mut sock)
            .unwrap_or_else(|e| die(&format!("flush: {e}")));
    }
    collector
        .finish(&mut sock)
        .unwrap_or_else(|e| die(&format!("finish: {e}")));
    let stats = collector.engine().lifecycle_stats();
    eprintln!(
        "forwarded {} points as collector {collector_id} (partition {part}/{n_parts}, {} evicted)",
        points.len(),
        stats.evicted
    );
}

fn report(snap: &EngineSnapshot) {
    let agg = snap.aggregate();
    let totals = snap.sampler_totals();
    println!("streams        : {}", snap.stream_count());
    if let Some(sk) = snap.sketch() {
        let tail_h = sk
            .projected_hurst()
            .map_or("(insufficient data)".to_string(), |h| format!("{h:.3}"));
        println!(
            "tier           : {} exact, ~{} sketched, {} promotions, {} demotions, \
             ~{} KiB sketch, tail Hurst {}",
            snap.stream_count(),
            sk.distinct_keys(),
            sk.promotions,
            sk.demotions,
            sst_core::summary::Compactable::estimated_bytes(sk) >> 10,
            tail_h
        );
    }
    println!(
        "offered/kept   : {} / {} (inspected {})",
        totals.offered, totals.kept, totals.inspected
    );
    println!(
        "kept mean/std  : {:.3} / {:.3}",
        agg.moments.mean(),
        agg.moments.stddev()
    );
    match agg.hurst_estimate() {
        Some(h) => println!("online Hurst   : {h:.3}"),
        None => println!("online Hurst   : (insufficient data)"),
    }
    let ladder: Vec<(f64, u64)> = agg.tail.ladder().collect();
    if !ladder.is_empty() {
        let cells: Vec<String> = ladder
            .iter()
            .map(|(t, c)| {
                format!(
                    "P(>{t:.0})={:.4}",
                    *c as f64 / agg.tail.total().max(1) as f64
                )
            })
            .collect();
        println!("tail           : {}", cells.join("  "));
    }
    println!("top streams by kept volume:");
    println!(
        "{:>18} {:>12} {:>14} {:>10}",
        "key", "kept", "volume", "mean"
    );
    for e in snap.top_streams(5) {
        println!(
            "{:>18x} {:>12} {:>14.0} {:>10.2}",
            e.key,
            e.sampler.kept,
            e.summary.kept_volume(),
            e.summary.moments.mean()
        );
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("{what}: cannot parse '{s}'")))
}

fn load(path: &str) -> EngineSnapshot {
    let bytes = std::fs::read(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    decode_snapshot(&bytes).unwrap_or_else(|e| die(&format!("decode {path}: {e}")))
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
