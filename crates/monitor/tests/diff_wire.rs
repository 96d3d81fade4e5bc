//! ISSUE 9 integration pins: differential wire frames (`DeltaDiff`,
//! wire v4).
//!
//! * Steady-state flushes of slowly-changing streams ship ≥5× fewer
//!   payload bytes than the cumulative `Delta` path, measured on the
//!   actual sealed wire frames — while the assembled snapshot stays
//!   **bit-for-bit identical** to the unsharded engine.
//! * A corrupt patch (bad fingerprint, impossible reservoir length)
//!   turns into `Resync{from_seq}` recovery, never wrong bytes.
//! * Against an aggregator that compacts live entries server-side
//!   (`compact_budget`), the collector detects the resync storm and
//!   degrades to cumulative frames — correctness never depends on the
//!   peer holding a baseline.

mod duplex;

use duplex::{open_session, pump};
use sst_monitor::topology::SeqOutcome;
use sst_monitor::wire::HelloResume;
use sst_monitor::{
    diff_entry, encode_frame, encode_snapshot, Aggregator, Collector, Frame, MonitorConfig,
    MonitorEngine, SamplerSpec, SessionDriver, StreamDiff, WIRE_VERSION,
};

fn config() -> MonitorConfig {
    MonitorConfig::default()
        .sampler(SamplerSpec::Systematic { interval: 2 })
        .seed(41)
        .reservoir_capacity(256)
}

/// Deterministic per-(key, tick) value with enough variety to touch
/// every summary section.
fn value(key: u64, tick: u64) -> f64 {
    let x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(tick);
    (x % 613) as f64 - 300.0 + if x.is_multiple_of(97) { 5_000.0 } else { 0.0 }
}

const STREAMS: u64 = 1024;
const WARMUP_PER_STREAM: u64 = 600;
const ROUNDS: u64 = 6;
const POINTS_PER_ROUND: u64 = 8;

/// The headline pin: after a warmup that fills every reservoir, each
/// steady-state round adds ≤8 points per stream. The differential
/// session must ship ≥5× fewer bytes for those rounds than an
/// identical session whose collector has stopped diffing — and both
/// must assemble to the unsharded engine's exact bytes.
#[test]
fn steady_state_diff_flushes_ship_5x_fewer_bytes_and_identical_bits() {
    let mut reference = MonitorEngine::new(config());
    let mut diffing = Collector::new_sequenced(1, config());
    // A collector stops diffing for the session once it has served
    // more than two resyncs (`RESYNC_DIFF_LIMIT`): force three before
    // any data, and open its session with the last re-baseline's
    // `Resync`-mode Hello.
    let mut cumulative = Collector::new_sequenced(1, config());
    let mut cum_hello = cumulative.hello();
    for _ in 0..3 {
        cum_hello = cumulative.handle_resync(0);
    }
    assert_eq!(cumulative.resyncs(), 3);

    let offer_round = |tick0: u64,
                       per_stream: u64,
                       reference: &mut MonitorEngine,
                       a: &mut Collector,
                       b: &mut Collector| {
        for t in 0..per_stream {
            for k in 0..STREAMS {
                let v = value(k, tick0 + t);
                reference.offer(k, v);
                a.offer(k, v);
                b.offer(k, v);
            }
        }
    };

    let mut agg_diff = Aggregator::new();
    let mut drv_diff = SessionDriver::new();
    let mut sent_diff = 0u64;
    open_session(&diffing, &mut drv_diff, &mut agg_diff).unwrap();
    let mut agg_cum = Aggregator::new();
    let mut drv_cum = SessionDriver::new();
    let Frame::Hello {
        resume: Some(HelloResume::Resync { first_seq }),
        ..
    } = cum_hello
    else {
        panic!("a resync answers with a Resync-mode hello, got {cum_hello:?}");
    };
    let mut sent_cum = first_seq;
    drv_cum
        .push(&encode_frame(&cum_hello), &mut agg_cum)
        .unwrap();

    // Warmup: fill the reservoirs (cap 256, one kept per 2 offered) so
    // steady state is the slowly-changing regime the issue targets.
    offer_round(
        0,
        WARMUP_PER_STREAM,
        &mut reference,
        &mut diffing,
        &mut cumulative,
    );
    diffing.seal_flush();
    cumulative.seal_flush();
    pump(&mut diffing, &mut sent_diff, &mut drv_diff, &mut agg_diff);
    pump(&mut cumulative, &mut sent_cum, &mut drv_cum, &mut agg_cum);

    let mut diff_bytes = 0u64;
    let mut cum_bytes = 0u64;
    for round in 0..ROUNDS {
        offer_round(
            WARMUP_PER_STREAM + round * POINTS_PER_ROUND,
            POINTS_PER_ROUND,
            &mut reference,
            &mut diffing,
            &mut cumulative,
        );
        diffing.seal_flush();
        cumulative.seal_flush();
        diff_bytes += pump(&mut diffing, &mut sent_diff, &mut drv_diff, &mut agg_diff);
        cum_bytes += pump(&mut cumulative, &mut sent_cum, &mut drv_cum, &mut agg_cum);
    }

    diffing.seal_finish();
    cumulative.seal_finish();
    pump(&mut diffing, &mut sent_diff, &mut drv_diff, &mut agg_diff);
    pump(&mut cumulative, &mut sent_cum, &mut drv_cum, &mut agg_cum);

    // Byte pin: the differential path wins by at least 5× in steady
    // state (it is ~10× at these parameters; 5× leaves headroom for
    // codec evolution without masking a regression to parity).
    assert!(
        diff_bytes > 0 && cum_bytes >= 5 * diff_bytes,
        "steady-state rounds: diff path shipped {diff_bytes} B, \
         cumulative path {cum_bytes} B — expected ≥5× reduction"
    );
    assert!(
        drv_diff.diff_bytes() > 0,
        "DeltaDiff frames must have flowed"
    );
    assert_eq!(drv_diff.resyncs(), 0, "clean link: no resyncs");

    // Bit-exactness: both sessions assemble the unsharded engine's
    // exact snapshot bytes.
    let want = reference.snapshot();
    assert_eq!(agg_diff.snapshot(), want);
    assert_eq!(agg_cum.snapshot(), want);
    assert_eq!(
        encode_snapshot(&agg_diff.snapshot()),
        encode_snapshot(&want)
    );
}

/// Builds the per-stream diffs between two growth stages of the same
/// engine (16 keys, all summary sections moving).
fn staged_diffs() -> (
    sst_monitor::EngineSnapshot,
    sst_monitor::EngineSnapshot,
    Vec<StreamDiff>,
) {
    let mk = |n: u64| {
        let mut e = MonitorEngine::new(config());
        for i in 0..n {
            let k = i % 16;
            e.offer(k, value(k, i));
        }
        e.snapshot()
    };
    let base = mk(40_000);
    let grown = mk(44_000);
    let diffs = base
        .streams()
        .iter()
        .zip(grown.streams())
        .map(|(b, n)| diff_entry(b, n).expect("grown entries diff"))
        .collect();
    (base, grown, diffs)
}

fn hello(resume: HelloResume) -> Frame {
    Frame::Hello {
        protocol: WIRE_VERSION,
        collector_id: 1,
        resume: Some(resume),
    }
}

/// A corrupt patch must surface as `NeedResync` — the watermark does
/// not advance, later frames are ignored until the re-baseline, and
/// the re-baselined state is exactly right. Never wrong bytes.
#[test]
fn corrupt_patch_yields_resync_then_exact_rebaseline() {
    let (base, grown, diffs) = staged_diffs();
    for mutate in [
        // A fingerprint that doesn't match the receiver's baseline.
        (|d: &mut StreamDiff| d.base.moments_count += 1) as fn(&mut StreamDiff),
        // A structurally impossible reservoir patch.
        |d: &mut StreamDiff| {
            if let Some(p) = d.patch.reservoir.as_mut() {
                p.new_len += 100_000;
            } else {
                d.base.reservoir_seen += 1;
            }
        },
        // A sampler delta that would break kept ≤ inspected ≤ offered.
        |d: &mut StreamDiff| d.sampler_delta.1 += 1_000_000,
    ] {
        let mut agg = Aggregator::new();
        agg.feed_seq(1, None, hello(HelloResume::Fresh { first_seq: 0 }))
            .unwrap();
        assert_eq!(
            agg.feed_seq(1, Some(0), Frame::FullSnapshot(base.clone()))
                .unwrap(),
            SeqOutcome::Applied
        );
        let mut bad = diffs.clone();
        mutate(&mut bad[3]);
        assert_eq!(
            agg.feed_seq(1, Some(1), Frame::DeltaDiff(bad)).unwrap(),
            SeqOutcome::NeedResync { from_seq: 1 },
            "a corrupt patch must demand a resync at its own seq"
        );
        // Everything until the resync hello is dropped, even a valid
        // retry of the same frame: the live view may be part-written.
        assert_eq!(
            agg.feed_seq(1, Some(1), Frame::DeltaDiff(diffs.clone()))
                .unwrap(),
            SeqOutcome::Ignored
        );
        // Re-baseline exactly as `Collector::handle_resync` would.
        agg.feed_seq(1, None, hello(HelloResume::Resync { first_seq: 1 }))
            .unwrap();
        assert_eq!(
            agg.feed_seq(1, Some(1), Frame::FullSnapshot(grown.clone()))
                .unwrap(),
            SeqOutcome::Applied
        );
        assert_eq!(agg.snapshot(), grown, "re-baseline lands the exact bytes");
    }
}

/// A valid diff stream applies idempotently under the seq watermark:
/// redelivered frames are skipped, and the result is bit-identical to
/// the cumulative path.
#[test]
fn diff_frames_apply_idempotently_under_redelivery() {
    let (base, grown, diffs) = staged_diffs();
    let mut agg = Aggregator::new();
    agg.feed_seq(1, None, hello(HelloResume::Fresh { first_seq: 0 }))
        .unwrap();
    agg.feed_seq(1, Some(0), Frame::FullSnapshot(base)).unwrap();
    assert_eq!(
        agg.feed_seq(1, Some(1), Frame::DeltaDiff(diffs.clone()))
            .unwrap(),
        SeqOutcome::Applied
    );
    // Redelivery (e.g. a replay after reconnect) must be a no-op.
    assert_eq!(
        agg.feed_seq(1, Some(1), Frame::DeltaDiff(diffs)).unwrap(),
        SeqOutcome::Duplicate
    );
    assert_eq!(agg.snapshot(), grown);
}

/// A differential frame is data: without a seq, or under an id that has
/// had no `Hello`, it is a protocol violation that leaves no state.
#[test]
fn diff_frames_are_rejected_in_unsequenced_sessions() {
    let (_, _, diffs) = staged_diffs();
    let mut agg = Aggregator::new();
    assert!(agg
        .feed_seq(1, Some(0), Frame::DeltaDiff(diffs.clone()))
        .is_err());
    assert_eq!(agg.collector_count(), 0, "no phantom collector");
    agg.feed_seq(1, None, hello(HelloResume::Fresh { first_seq: 0 }))
        .unwrap();
    assert!(agg.feed_seq(1, None, Frame::DeltaDiff(diffs)).is_err());
    assert_eq!(agg.last_seq(1), None, "nothing applied");
}

/// An aggregator that compacts live entries (`compact_budget`) can't
/// hold the collector's baseline: every differential flush costs a
/// resync. The collector must notice (resync counter past the limit),
/// drop to cumulative frames, and converge — with totals exact.
#[test]
fn server_side_compaction_degrades_diffing_to_cumulative() {
    let mut agg = Aggregator::new().compact_budget(256);
    let mut collector = Collector::new_sequenced(7, config());
    let mut driver = SessionDriver::new();
    let mut sent = 0u64;
    open_session(&collector, &mut driver, &mut agg).unwrap();

    let mut offered = 0usize;
    let mut offer_round = |c: &mut Collector, tick0: u64| {
        for t in 0..32 {
            for k in 0..64u64 {
                c.offer(k, value(k, tick0 + t));
                offered += 1;
            }
        }
    };
    for round in 0..8u64 {
        offer_round(&mut collector, round * 32);
        collector.seal_flush();
        pump(&mut collector, &mut sent, &mut driver, &mut agg);
    }
    assert!(
        collector.resyncs() >= 1,
        "server-side compaction must have broken at least one diff"
    );
    let resyncs_at_steady = collector.resyncs();

    // Once degraded, cumulative rounds apply cleanly: no new resyncs.
    for round in 8..12u64 {
        offer_round(&mut collector, round * 32);
        collector.seal_flush();
        pump(&mut collector, &mut sent, &mut driver, &mut agg);
    }
    assert_eq!(
        collector.resyncs(),
        resyncs_at_steady,
        "cumulative fallback must not keep resyncing"
    );
    collector.seal_finish();
    pump(&mut collector, &mut sent, &mut driver, &mut agg);
    // Compaction approximates distributions, never totals.
    assert_eq!(agg.snapshot().sampler_totals().offered, offered);
}
