//! Differential wire frames (`DeltaDiff`, wire v4):
//!
//! * Steady-state flushes of slowly-changing streams ship ≥5× fewer
//!   payload bytes than the cumulative `Delta` frames carrying the same
//!   entries, measured on the actual wire frames — while the assembled
//!   snapshot stays **bit-for-bit identical** to the unsharded engine.
//! * A corrupt patch (bad fingerprint, impossible reservoir length)
//!   turns into `Resync{from_seq}` recovery, never wrong bytes.

mod duplex;

use duplex::{open_session, pump};
use sst_monitor::topology::SeqOutcome;
use sst_monitor::wire::{encode_frame_seq, HelloResume};
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
/// session must ship ≥5× fewer bytes for those rounds than the
/// cumulative `Delta` frames that would carry the same rounds' entries
/// — and both must assemble to the unsharded engine's exact bytes.
#[test]
fn steady_state_diff_flushes_ship_5x_fewer_bytes_and_identical_bits() {
    let mut reference = MonitorEngine::new(config());
    let mut diffing = Collector::new_sequenced(1, config());
    let offer_round = |tick0: u64, per_stream: u64, r: &mut MonitorEngine, c: &mut Collector| {
        for t in 0..per_stream {
            for k in 0..STREAMS {
                let v = value(k, tick0 + t);
                r.offer(k, v);
                c.offer(k, v);
            }
        }
    };

    let mut agg_diff = Aggregator::new();
    let mut drv_diff = SessionDriver::new();
    let mut sent_diff = 0u64;
    open_session(&diffing, &mut drv_diff, &mut agg_diff).unwrap();
    // The cumulative side: every round's entries as the `Delta` frame a
    // seal of the touched streams (here all of them) would carry,
    // replayed through a second aggregator.
    let mut agg_cum = Aggregator::new();
    let mut drv_cum = SessionDriver::new();
    drv_cum
        .push(&encode_frame(&diffing.hello()), &mut agg_cum)
        .unwrap();
    let mut cum_seq = 0;
    let mut ship_cumulative = |reference: &MonitorEngine| {
        let bytes = encode_frame_seq(cum_seq, &Frame::Delta(reference.snapshot()));
        cum_seq += 1;
        drv_cum.push(&bytes, &mut agg_cum).unwrap();
        bytes.len() as u64
    };

    // Warmup: fill the reservoirs (cap 256, one kept per 2 offered) so
    // steady state is the slowly-changing regime differential frames
    // target.
    offer_round(0, WARMUP_PER_STREAM, &mut reference, &mut diffing);
    diffing.seal_flush();
    pump(&mut diffing, &mut sent_diff, &mut drv_diff, &mut agg_diff);
    ship_cumulative(&reference);

    let mut diff_bytes = 0u64;
    let mut cum_bytes = 0u64;
    for round in 0..ROUNDS {
        offer_round(
            WARMUP_PER_STREAM + round * POINTS_PER_ROUND,
            POINTS_PER_ROUND,
            &mut reference,
            &mut diffing,
        );
        diffing.seal_flush();
        diff_bytes += pump(&mut diffing, &mut sent_diff, &mut drv_diff, &mut agg_diff);
        cum_bytes += ship_cumulative(&reference);
    }

    diffing.seal_finish();
    pump(&mut diffing, &mut sent_diff, &mut drv_diff, &mut agg_diff);

    // Byte pin: the differential path wins by at least 5× in steady
    // state (5× leaves headroom for codec evolution without masking a
    // regression to parity).
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
