//! `steady_diff` and `churn_tiered`: two sequenced collectors in a
//! closed loop from one generator thread, into an `EventLoopServer`
//! (default backend) on a second thread, over two socket pairs.
//!
//! Each flush offers a batch, calls `seal_flush`, writes the unsent
//! window and waits for the `Ack`. One item is one flush; its latency
//! runs from `seal_flush` to the `Ack`. The input is one bounded,
//! seeded trace, replayed in rounds of `ROUND_POINTS` points that a
//! key hash splits between the collectors. `churn_tiered` remaps keys
//! per replay epoch so replayed flows arrive as new ones.
//!
//! Both threads run on one processor (see `main.rs`), and the
//! generator's sockets block: while it waits for an `Ack` it sleeps in
//! `read`, and the serve loop runs in its place on the same processor.
//! A flush's latency is then the work of both sides plus two local
//! context switches, not the wake-up of an idle virtual processor,
//! which on a shared host swings from run to run; `README.md` records
//! ten-run sets of the ways tried.
//!
//! A serve session holds state that grows with its length (a
//! sequenced collector logs every evicted final for the session's
//! lifetime), so the timed phase runs as a series of sessions of
//! `Kind::session_epochs` replay epochs. Between sessions, outside the
//! timed phase, the finished session is closed and a new one is opened
//! and warmed up. Memory then depends on the session length, not on
//! how many flushes the run fits into its seconds. The last session is
//! checked against its reference.

use crate::inputs::{collector_of, remap, TraceShape};
use crate::tracer::{totals_by_name, Tracer};
use crate::{Check, Values, Workload};
use sst_monitor::topology::SeqOutcome;
use sst_monitor::topology::{Aggregator, Collector};
use sst_monitor::transport::{EventLoopServer, ServeOptions, ServeReport};
use sst_monitor::wire::{encode_frame, Frame, FrameDecoder};
use sst_monitor::{
    encode_snapshot, EngineSnapshot, MonitorConfig, MonitorEngine, SamplerSpec, SummarySnapshot,
};
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Collectors (and socket pairs) per run.
const COLLECTORS: usize = 2;
/// Points per round; each collector flushes its share of a round:
/// 16384 points per collector flush, the default `--flush-every` of
/// `monitor_tool forward`.
const ROUND_POINTS: usize = COLLECTORS << 14;
/// Key spaces `churn_tiered` cycles through.
const CHURN_SALTS: u64 = 2;
/// Session bytes the traced run keeps for the serve-side replay.
const CAPTURE_LIMIT: usize = 64 << 20;
/// Item id of the flushes outside the timed phase (warm-up, session
/// completion).
const UNTIMED: u64 = u64::MAX;

/// Thousands of OD pairs, ~0.9M points (~14 MiB of input).
const SHAPE: TraceShape = TraceShape {
    hosts: 2000,
    mean_rate: 4.0e6,
    duration: 120.0,
};

/// Which of the two online workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// OD keys, all-exact, no lifecycle: the diff path.
    SteadyDiff,
    /// 5-tuple keys, tiered, idle eviction, compaction: the full path.
    ChurnTiered,
}

impl Kind {
    fn salts(self) -> u64 {
        match self {
            Kind::SteadyDiff => 1,
            Kind::ChurnTiered => CHURN_SALTS,
        }
    }

    /// Timed replay epochs per serve session. A session's state grows
    /// with its length, and replacing it costs a set-up's worth of
    /// untimed work; these keep a session near 100 MiB of resident
    /// memory and a few seconds long. `churn_tiered` visits each of its
    /// key spaces twice per session.
    fn session_epochs(self) -> u64 {
        match self {
            Kind::SteadyDiff => 16,
            Kind::ChurnTiered => 2 * CHURN_SALTS,
        }
    }

    fn points(self, seed: u64) -> Vec<(u64, f64)> {
        match self {
            Kind::SteadyDiff => SHAPE.od_points(seed),
            Kind::ChurnTiered => SHAPE.flow_points(seed),
        }
    }

    fn config(self, seed: u64) -> MonitorConfig {
        let base = MonitorConfig::default()
            .sampler(SamplerSpec::Bss {
                interval: 10,
                epsilon: 1.0,
                n_pre: 16,
                l: 4,
            })
            .shards(1)
            .seed(seed)
            // Packet sizes are 40..1500 bytes: a ladder on that scale.
            .tail_thresholds(vec![64.0, 256.0, 576.0, 1024.0, 1400.0]);
        match self {
            Kind::SteadyDiff => base,
            // Sources in README.md: an exact cap below the ~1270 flows
            // a collector holds live, the sketch budget of the
            // repository's `monitor/promote_demote` bench, eviction
            // after four flushes idle, and the roll-up's compaction
            // budget.
            Kind::ChurnTiered => base
                .max_exact_keys(1024)
                .sketch_bytes(1 << 16)
                .evict_idle_after(4 << 14)
                .compact_budget(768),
        }
    }
}

/// Splits round `round` of the replay into per-collector batches.
fn fill_round(points: &[(u64, f64)], salts: u64, round: u64, batches: &mut [Vec<(u64, f64)>]) {
    let per_epoch = points.len().div_ceil(ROUND_POINTS) as u64;
    let salt = (round / per_epoch) % salts;
    let start = (round % per_epoch) as usize * ROUND_POINTS;
    let end = (start + ROUND_POINTS).min(points.len());
    for b in batches.iter_mut() {
        b.clear();
    }
    for &(k, v) in &points[start..end] {
        let k = remap(k, salt);
        batches[collector_of(k, batches.len())].push((k, v));
    }
}

/// Equal moment counts, and means and variances equal to rounding.
fn same_moments(a: &SummarySnapshot, b: &SummarySnapshot) -> bool {
    let (a, b) = (&a.moments, &b.moments);
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
    a.count() == b.count() && close(a.mean(), b.mean()) && close(a.variance(), b.variance())
}

/// One collector and its end of a socket pair.
struct Link {
    collector: Collector,
    stream: UnixStream,
    dec: FrameDecoder,
    /// Next window sequence number not yet written.
    sent: u64,
    acked: Option<u64>,
    resyncs: u64,
    /// Written chunks kept for the replay: (written in the traced
    /// phase, bytes).
    capture: Vec<(bool, Vec<u8>)>,
}

impl Link {
    fn open(id: u64, config: MonitorConfig, stream: UnixStream, capture: bool) -> io::Result<Link> {
        let collector = Collector::new_sequenced(id, config);
        let mut link = Link {
            collector,
            stream,
            dec: FrameDecoder::new(),
            sent: 0,
            acked: None,
            resyncs: 0,
            capture: Vec::new(),
        };
        let hello = encode_frame(&link.collector.hello());
        link.stream.write_all(&hello)?;
        if capture {
            link.capture.push((false, hello.to_vec()));
        }
        Ok(link)
    }

    /// Writes every sealed frame not yet written; returns the bytes.
    /// `capture: Some(traced)` keeps a copy for the replay, tagged with
    /// whether it was written in the traced phase.
    fn write_window(&mut self, capture: Option<bool>) -> io::Result<usize> {
        let mut n = 0;
        let mut kept = Vec::new();
        for (_, bytes) in self.collector.unsent_window(self.sent) {
            self.stream.write_all(bytes)?;
            n += bytes.len();
            if capture.is_some() {
                kept.extend_from_slice(bytes);
            }
        }
        self.sent = self.collector.next_seq();
        if let Some(traced) = capture {
            self.capture.push((traced, kept));
        }
        Ok(n)
    }

    /// Blocks until everything sealed is acknowledged, answering any
    /// `Resync` with a re-baseline.
    fn wait_ack(&mut self) -> io::Result<()> {
        let mut buf = [0u8; 1024];
        loop {
            while let Some(frame) = self.dec.next_frame().map_err(invalid)? {
                match frame {
                    Frame::Ack { through_seq } => {
                        self.collector.ack(through_seq);
                        self.acked = Some(through_seq);
                    }
                    Frame::Resync { from_seq } => {
                        self.resyncs += 1;
                        let hello = self.collector.handle_resync(from_seq);
                        if let Frame::Hello {
                            resume: Some(r), ..
                        } = &hello
                        {
                            self.sent = r.first_seq();
                        }
                        self.stream.write_all(&encode_frame(&hello))?;
                        self.write_window(None)?;
                    }
                    other => {
                        return Err(invalid(format!("unexpected frame {}", other.kind_name())))
                    }
                }
            }
            let target = self.collector.next_seq().checked_sub(1);
            if target.is_none() || self.acked >= target {
                return Ok(());
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                Ok(n) => self.dec.push(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Seals the `Bye`, delivers it and closes the write half.
    fn close(&mut self) -> io::Result<()> {
        self.collector.seal_finish();
        self.write_window(None)?;
        self.wait_ack()?;
        self.stream.shutdown(Shutdown::Write)
    }
}

fn invalid(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

type ServeResult = io::Result<(Aggregator, ServeReport)>;

/// Lifecycle and tier counters summed over a session's collectors.
#[derive(Clone, Copy, Default)]
struct Counts {
    evicted: u64,
    promotions: u64,
    demotions: u64,
    sketched: u64,
}

impl Counts {
    fn plus(self, o: Counts) -> Counts {
        Counts {
            evicted: self.evicted + o.evicted,
            promotions: self.promotions + o.promotions,
            demotions: self.demotions + o.demotions,
            sketched: self.sketched + o.sketched,
        }
    }

    fn minus(self, o: Counts) -> Counts {
        Counts {
            evicted: self.evicted - o.evicted,
            promotions: self.promotions - o.promotions,
            demotions: self.demotions - o.demotions,
            sketched: self.sketched - o.sketched,
        }
    }
}

/// One serve loop and its collectors.
struct Session {
    links: Vec<Link>,
    server: JoinHandle<ServeResult>,
    /// Global index of the session's first round.
    first_round: u64,
    /// Rounds split in this session, warm-up included.
    rounds: u64,
    /// Flushes in this session, warm-up included.
    flushes: u64,
    capturing: bool,
    captured: usize,
}

impl Session {
    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for l in &self.links {
            let e = l.collector.engine();
            c.evicted += e.lifecycle_stats().evicted;
            if let Some(t) = e.tier_stats() {
                c.promotions += t.promotions;
                c.demotions += t.demotions;
            }
            if let Some(sk) = e.sketch_snapshot() {
                c.sketched += sk.sampler.offered as u64;
            }
        }
        c
    }
}

/// What the closed sessions showed.
#[derive(Default)]
struct Closed {
    sessions: u64,
    failed_sessions: u64,
    serve_resyncs: u64,
    link_resyncs: u64,
    snapshot_ms: Vec<f64>,
    agg_state_mb: f64,
    /// Session bytes of the traced run's first session, per link.
    capture: Vec<Vec<(bool, Vec<u8>)>>,
}

/// A running online pipeline.
pub struct Online {
    kind: Kind,
    seed: u64,
    points: Vec<(u64, f64)>,
    batches: Vec<Vec<(u64, f64)>>,
    session: Option<Session>,
    /// Rounds split so far over all sessions.
    next_round: u64,
    /// Keep the next session's bytes for the serve-side replay.
    capture_next: bool,
    closed: Closed,
    traced: bool,
    // Traced-phase accounting.
    points_offered: u64,
    bytes_written: u64,
    traced_flushes: u64,
    dirty_entries: u64,
    base: Counts,
    counted: Counts,
    live_streams: usize,
}

impl Online {
    fn setup(kind: Kind, seed: u64, capture: bool) -> Online {
        let mut w = Online {
            kind,
            seed,
            points: kind.points(seed),
            batches: vec![Vec::new(); COLLECTORS],
            session: None,
            next_round: 0,
            capture_next: capture,
            closed: Closed::default(),
            traced: false,
            points_offered: 0,
            bytes_written: 0,
            traced_flushes: 0,
            dirty_entries: 0,
            base: Counts::default(),
            counted: Counts::default(),
            live_streams: 0,
        };
        w.open_session();
        w
    }

    /// Starts a serve loop and its collectors, then warms up for one
    /// full epoch, so every key has shipped once and holds a diff
    /// baseline before any timed flush.
    fn open_session(&mut self) {
        let capture = std::mem::take(&mut self.capture_next);
        let mut server = EventLoopServer::new(
            Aggregator::new(),
            ServeOptions {
                collectors: COLLECTORS,
                accept_timeout: Some(Duration::from_secs(60)),
            },
        );
        let mut links = Vec::new();
        for id in 0..COLLECTORS as u64 {
            let (client, serve_end) = UnixStream::pair().expect("socket pair");
            server.add_session(serve_end).expect("register session");
            let link = Link::open(id, self.kind.config(self.seed), client, capture);
            links.push(link.expect("hello to serve"));
        }
        self.session = Some(Session {
            links,
            server: std::thread::spawn(move || server.run()),
            first_round: self.next_round,
            rounds: 0,
            flushes: 0,
            capturing: capture,
            captured: 0,
        });
        let per_epoch = self.points.len().div_ceil(ROUND_POINTS) as u64;
        let mut off = Tracer::new(false);
        for _ in 0..per_epoch * COLLECTORS as u64 {
            self.flush(UNTIMED, &mut off);
        }
    }

    /// One collector flush; returns the `seal_flush` → `Ack` latency.
    fn flush(&mut self, item: u64, tr: &mut Tracer) -> f64 {
        let s = self.session.as_mut().expect("open session");
        let li = (s.flushes % COLLECTORS as u64) as usize;
        if li == 0 {
            fill_round(
                &self.points,
                self.kind.salts(),
                self.next_round,
                &mut self.batches,
            );
            self.next_round += 1;
            s.rounds += 1;
        }
        s.flushes += 1;
        let batch = &self.batches[li];
        let counted = self.traced && item != UNTIMED;
        if counted {
            let mut keys: Vec<u64> = batch.iter().map(|p| p.0).collect();
            keys.sort_unstable();
            keys.dedup();
            self.dirty_entries += keys.len() as u64;
            self.points_offered += batch.len() as u64;
            self.traced_flushes += 1;
        }
        s.capturing &= s.captured < CAPTURE_LIMIT;
        let capture = s.capturing.then_some(self.traced);
        let link = &mut s.links[li];
        tr.begin("bench.flush", item);
        tr.time("ingest.offer", item, || link.collector.offer_batch(batch));
        let t0 = Instant::now();
        tr.time("topology.seal_flush", item, || link.collector.seal_flush());
        let n = tr
            .time("transport.write", item, || link.write_window(capture))
            .expect("write to serve");
        tr.time("transport.ack_wait", item, || link.wait_ack())
            .expect("ack from serve");
        let latency = t0.elapsed().as_secs_f64();
        tr.end();
        if capture.is_some() {
            s.captured += n;
        }
        if counted {
            self.bytes_written += n as u64;
        }
        latency
    }

    fn session_counts(&self) -> Counts {
        self.session
            .as_ref()
            .map(Session::counts)
            .unwrap_or_default()
    }

    fn start_traced(&mut self) {
        self.base = self.session_counts();
        self.traced = true;
    }

    fn end_traced(&mut self) {
        self.counted = self.counted.plus(self.session_counts().minus(self.base));
        self.traced = false;
    }

    /// Replaces the session once it has run its timed rounds.
    fn rotate_if_due(&mut self) {
        let per_epoch = self.points.len().div_ceil(ROUND_POINTS) as u64;
        // One warm-up epoch, then the timed ones.
        let due = self.session.as_ref().is_some_and(|s| {
            s.flushes % COLLECTORS as u64 == 0
                && s.rounds >= per_epoch * (1 + self.kind.session_epochs())
        });
        if due {
            self.close_session(true);
            self.open_session();
            if self.traced {
                self.base = self.session_counts();
            }
        }
    }

    /// Completes the session's last round and closes it. When `record`,
    /// adds its outcome to `closed` and returns its assembled snapshot
    /// with the rounds it ran.
    fn close_session(&mut self, record: bool) -> Option<(EngineSnapshot, Range<u64>)> {
        let mut off = Tracer::new(false);
        while self
            .session
            .as_ref()
            .is_some_and(|s| s.flushes % COLLECTORS as u64 != 0)
        {
            self.flush(UNTIMED, &mut off);
        }
        let mut s = self.session.take().expect("open session");
        if self.traced {
            self.counted = self.counted.plus(s.counts().minus(self.base));
            self.base = Counts::default();
        }
        self.live_streams = s
            .links
            .iter()
            .map(|l| l.collector.engine().stream_count())
            .sum();
        for link in &mut s.links {
            link.close().expect("close session");
        }
        let (agg, report) = s
            .server
            .join()
            .expect("serve thread panicked")
            .expect("serve loop");
        if !record {
            return None;
        }
        let t = Instant::now();
        let snap = agg.snapshot();
        let c = &mut self.closed;
        c.snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        c.agg_state_mb = c
            .agg_state_mb
            .max(agg.estimated_state_bytes() as f64 / (1 << 20) as f64);
        c.sessions += 1;
        c.failed_sessions += (report.failures.len() + report.aborted) as u64
            + (COLLECTORS as u64).saturating_sub(report.completed as u64);
        c.serve_resyncs += report.sessions.iter().map(|x| x.resyncs).sum::<u64>();
        c.link_resyncs += s.links.iter().map(|l| l.resyncs).sum::<u64>();
        if c.capture.is_empty() && s.links.iter().any(|l| !l.capture.is_empty()) {
            c.capture = s
                .links
                .iter_mut()
                .map(|l| std::mem::take(&mut l.capture))
                .collect();
        }
        Some((snap, s.first_round..s.first_round + s.rounds))
    }

    /// Replays the reference: a session's rounds into engines outside
    /// the pipeline. Returns whether the assembled snapshot matches.
    fn reference_matches(&self, got: &EngineSnapshot, rounds: Range<u64>) -> bool {
        let config = self.kind.config(self.seed);
        let mut batches = vec![Vec::new(); COLLECTORS];
        match self.kind {
            Kind::SteadyDiff => {
                // One unsharded engine fed every point: byte-equal.
                let mut reference = MonitorEngine::new(config);
                for r in rounds {
                    fill_round(&self.points, self.kind.salts(), r, &mut batches);
                    for b in &batches {
                        reference.offer_batch(b);
                    }
                }
                encode_snapshot(got) == encode_snapshot(&reference.snapshot())
            }
            Kind::ChurnTiered => {
                // One engine per collector, same batches (eviction and
                // sweeps follow each engine's own ticks): exact totals,
                // counters per stream, a bit-identical sketch, and each
                // stream's mean and variance. A stream's finals may
                // merge in another order than the reference's, so
                // those agree to rounding.
                let mut refs: Vec<MonitorEngine> = (0..COLLECTORS)
                    .map(|_| MonitorEngine::new(config.clone()))
                    .collect();
                let mut offered = 0u64;
                for r in rounds {
                    fill_round(&self.points, self.kind.salts(), r, &mut batches);
                    for (e, b) in refs.iter_mut().zip(&batches) {
                        e.offer_batch(b);
                        offered += b.len() as u64;
                    }
                }
                let want = refs
                    .iter()
                    .map(MonitorEngine::full_snapshot)
                    .fold(EngineSnapshot::default(), EngineSnapshot::merge);
                drop(refs);
                got.sketch().is_some()
                    && got.sketch() == want.sketch()
                    && got.sampler_totals() == want.sampler_totals()
                    && got.sampler_totals().offered as u64 == offered
                    && same_moments(&got.aggregate(), &want.aggregate())
                    && got.stream_count() == want.stream_count()
                    && got.streams().iter().zip(want.streams()).all(|(g, w)| {
                        g.key == w.key
                            && g.sampler == w.sampler
                            && same_moments(&g.summary, &w.summary)
                    })
            }
        }
    }

    /// Runs the captured session bytes through the serve side's
    /// decoder and aggregator, timing each.
    fn replay(&self, values: &mut Values) {
        let mut agg = Aggregator::new();
        let (mut decode_ns, mut decode_bytes) = (0u128, 0usize);
        let (mut diff_ns, mut diff_frames, mut diff_bytes) = (0u128, 0u64, 0usize);
        let (mut full_ns, mut full_frames, mut full_bytes) = (0u128, 0u64, 0usize);
        let mut resyncs = 0u64;
        for (id, chunks) in self.closed.capture.iter().enumerate() {
            let mut dec = FrameDecoder::new();
            for (traced, bytes) in chunks {
                let t = Instant::now();
                dec.push(bytes);
                let mut frames = Vec::new();
                while let Some(sf) = dec.next_seq_frame().expect("captured bytes decode") {
                    frames.push((sf, dec.last_frame_bytes()));
                }
                if *traced {
                    decode_ns += t.elapsed().as_nanos();
                    decode_bytes += bytes.len();
                }
                for (sf, n) in frames {
                    let diff = matches!(sf.frame, Frame::DeltaDiff(_));
                    let data = sf.seq.is_some();
                    let t = Instant::now();
                    let out = agg.feed_seq(id as u64, sf.seq, sf.frame);
                    let ns = t.elapsed().as_nanos();
                    if matches!(out, Ok(SeqOutcome::NeedResync { .. }) | Err(_)) {
                        resyncs += 1;
                    }
                    if !*traced || !data {
                        continue;
                    }
                    if diff {
                        (diff_ns, diff_frames, diff_bytes) =
                            (diff_ns + ns, diff_frames + 1, diff_bytes + n);
                    } else {
                        (full_ns, full_frames, full_bytes) =
                            (full_ns + ns, full_frames + 1, full_bytes + n);
                    }
                }
            }
        }
        let per = |ns: u128, n: u64| {
            if n == 0 {
                0.0
            } else {
                ns as f64 / n as f64 / 1e3
            }
        };
        values.insert(
            "wire.decode_ns_per_byte",
            decode_ns as f64 / decode_bytes.max(1) as f64,
        );
        values.insert(
            "topology.apply_diff_us_per_frame",
            per(diff_ns, diff_frames),
        );
        values.insert(
            "topology.apply_full_us_per_frame",
            per(full_ns, full_frames),
        );
        values.insert(
            "wire.diff_bytes_frac",
            diff_bytes as f64 / (diff_bytes + full_bytes).max(1) as f64,
        );
        if resyncs > 0 {
            eprintln!("replay: {resyncs} frames needed a resync");
        }
    }

    fn finish(mut self, tr: &Tracer, values: &mut Values) -> Check {
        let (snap, rounds) = self.close_session(true).expect("recorded session");
        let matches = self.reference_matches(&snap, rounds);
        drop(snap);
        if !matches {
            eprintln!(
                "{:?}: assembled snapshot differs from the reference",
                self.kind
            );
        }
        let c = &self.closed;
        if tr.enabled() {
            let totals = totals_by_name(tr.spans());
            let total = |name: &str| totals.get(name).map_or(0, |t| t.1) as f64;
            let mean_ms = |name: &str| {
                totals
                    .get(name)
                    .map_or(0.0, |&(n, ns)| ns as f64 / n.max(1) as f64 / 1e6)
            };
            let flushes = self.traced_flushes.max(1) as f64;
            let points = self.points_offered.max(1) as f64;
            let n = self.counted;
            values.insert("ingest.offer_ns_per_point", total("ingest.offer") / points);
            values.insert("ingest.live_streams", self.live_streams as f64);
            values.insert("sketch.absorbed_frac", n.sketched as f64 / points);
            values.insert("sketch.promotions", n.promotions as f64);
            values.insert("sketch.demotions", n.demotions as f64);
            values.insert("lifecycle.evicted_per_flush", n.evicted as f64 / flushes);
            values.insert("topology.seal_flush_ms", mean_ms("topology.seal_flush"));
            values.insert(
                "topology.seal_ns_per_dirty_entry",
                total("topology.seal_flush") / self.dirty_entries.max(1) as f64,
            );
            values.insert("wire.bytes_per_flush", self.bytes_written as f64 / flushes);
            values.insert("wire.bytes_per_point", self.bytes_written as f64 / points);
            values.insert("transport.write_ms", mean_ms("transport.write"));
            values.insert("transport.ack_wait_ms", mean_ms("transport.ack_wait"));
            values.insert("transport.failed_sessions", c.failed_sessions as f64);
            values.insert("topology.resyncs", c.serve_resyncs as f64);
            values.insert("topology.snapshot_ms", crate::stats::median(&c.snapshot_ms));
            values.insert("topology.agg_state_mb", c.agg_state_mb);
            self.replay(values);
        }
        Check {
            attempted: 1 + c.sessions * COLLECTORS as u64,
            failed: u64::from(!matches) + c.failed_sessions + c.link_resyncs.max(c.serve_resyncs),
        }
    }
}

/// `steady_diff`.
pub struct SteadyDiff(Online);
/// `churn_tiered`.
pub struct ChurnTiered(Online);

macro_rules! online_workload {
    ($t:ident, $kind:expr) => {
        impl Workload for $t {
            /// The generator and the serve loop.
            const THREADS: usize = 2;
            fn setup(seed: u64, trace: bool) -> Self {
                $t(Online::setup($kind, seed, trace))
            }
            fn discard(mut self) {
                self.0.close_session(false);
            }
            fn start_traced(&mut self) {
                self.0.start_traced();
            }
            fn end_traced(&mut self) {
                self.0.end_traced();
            }
            fn between_items(&mut self) {
                self.0.rotate_if_due();
            }
            fn item(&mut self, item: u64, tr: &mut Tracer) -> f64 {
                self.0.flush(item, tr)
            }
            fn finish(self, tr: &Tracer, values: &mut Values) -> Check {
                self.0.finish(tr, values)
            }
        }
    };
}

online_workload!(SteadyDiff, Kind::SteadyDiff);
online_workload!(ChurnTiered, Kind::ChurnTiered);
