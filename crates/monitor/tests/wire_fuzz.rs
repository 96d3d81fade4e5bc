//! Decode robustness: snapshot and frame decoding must *reject*
//! malformed input — truncations, length overflows, random byte
//! mutations — with errors, never panics. The proptests below mutate
//! valid encodings at random and drive both the whole-buffer and the
//! incremental decoders.

use proptest::prelude::*;
use sst_monitor::topology::SeqOutcome;
use sst_monitor::wire::{encode_frame_seq, HelloResume, SeqFrame};
use sst_monitor::{
    decode_frames, decode_snapshot, diff_entry, encode_frame, encode_snapshot, Aggregator,
    EngineSnapshot, Frame, FrameDecoder, MonitorConfig, MonitorEngine, SamplerSpec,
    SnapshotCodecError, StreamDiff, WIRE_VERSION,
};
use std::sync::OnceLock;

/// [`valid_stream`] plus the byte offsets at which a truncation still
/// leaves a whole (shorter) frame stream: 0 and every frame end.
fn valid_stream_with_boundaries() -> (Vec<u8>, Vec<usize>) {
    let bytes = valid_stream();
    let mut boundaries = vec![0usize];
    let mut dec = FrameDecoder::new();
    let mut consumed_to = 0usize;
    dec.push(&bytes);
    while dec.next_frame().expect("valid stream").is_some() {
        consumed_to = bytes.len() - dec.pending_bytes();
        boundaries.push(consumed_to);
    }
    assert_eq!(consumed_to, bytes.len(), "whole stream decodes");
    (bytes, boundaries)
}

/// `Hello` under `collector_id`, then `data` at seqs 0, 1, … — a fresh
/// session's bytes.
fn fresh_session(collector_id: u64, data: &[Frame]) -> Vec<u8> {
    let mut bytes = encode_frame(&Frame::Hello {
        protocol: WIRE_VERSION,
        collector_id,
        resume: Some(HelloResume::Fresh { first_seq: 0 }),
    })
    .to_vec();
    for (seq, frame) in (0..).zip(data) {
        bytes.extend_from_slice(&encode_frame_seq(seq, frame));
    }
    bytes
}

/// A representative frame stream: Hello, a Delta, an Evicted, a full
/// snapshot, Bye.
fn valid_stream() -> Vec<u8> {
    let mut engine = MonitorEngine::new(
        MonitorConfig::default()
            .sampler(SamplerSpec::Bss {
                interval: 10,
                epsilon: 1.0,
                n_pre: 8,
                l: 4,
            })
            .shards(3)
            .seed(5),
    );
    for i in 0..20_000u64 {
        let key = i % 23;
        let v = if (i / 41) % 9 == 0 { 150.0 } else { 2.0 };
        engine.offer(key, v);
    }
    let snap = engine.snapshot();
    let evicted = snap.streams()[..5].to_vec();
    fresh_session(
        17,
        &[
            Frame::Delta(snap.clone()),
            Frame::Evicted(evicted),
            Frame::FullSnapshot(snap),
            Frame::Bye,
        ],
    )
}

/// A representative *tiered* frame stream: the Delta and FullSnapshot
/// payloads carry a populated `SKT1` sketch section (count-min rows,
/// heavy-hitter list, projection cascades, promotion counters).
fn valid_sketch_stream() -> Vec<u8> {
    let mut engine = MonitorEngine::new(
        MonitorConfig::default()
            .sampler(SamplerSpec::Systematic { interval: 3 })
            .shards(2)
            .seed(11)
            .max_exact_keys(8)
            .sketch_bytes(1 << 14)
            .promote_after(32),
    );
    for i in 0..30_000u64 {
        let key = if i % 5 == 0 { i % 400 + 100 } else { i % 6 };
        engine.offer(key, (i % 13) as f64 + 1.0);
    }
    let snap = engine.full_snapshot();
    assert!(snap.sketch().is_some(), "sketch section present");
    let evicted = snap.streams()[..3.min(snap.stream_count())].to_vec();
    fresh_session(
        31,
        &[
            Frame::Delta(snap.clone()),
            Frame::Evicted(evicted),
            Frame::FullSnapshot(snap),
            Frame::Bye,
        ],
    )
}

/// A sketch image whose projection cascades disagree in count is no
/// bank a sequence of pushes and merges could make: the snapshot
/// decoder refuses it, in a `.ssm` file and inside a frame, and never
/// panics on it.
#[test]
fn sketch_cascades_out_of_lockstep_decode_to_an_error() {
    let mut engine = MonitorEngine::new(
        MonitorConfig::default()
            .seed(2)
            .max_exact_keys(4)
            .sketch_bytes(1 << 12),
    );
    for i in 0..5_000u64 {
        engine.offer(i % 64, (i % 31) as f64);
    }
    let snap = engine.full_snapshot();
    let bytes = encode_snapshot(&snap).to_vec();
    assert_eq!(decode_snapshot(&bytes).unwrap(), snap);
    // The section ends with the cascades, then promotions and
    // demotions (8 B each). Every cascade has the same encoded length,
    // so the last one starts one cascade length before those.
    let cascades = snap.sketch().unwrap().projections.cascades();
    assert!(cascades.len() >= 2);
    let (_, levels) = cascades[0].raw_parts();
    let carries = levels.iter().filter(|(_, c)| c.is_some()).count();
    let cascade_len = 16 + 41 * levels.len() + 8 * carries;
    let last = bytes.len() - 16 - cascade_len;
    let count = u64::from_le_bytes(bytes[last..last + 8].try_into().unwrap());
    assert_eq!(count, cascades[0].count(), "located the last cascade");
    for bump in [1u64, u64::MAX] {
        let mut bad = bytes.clone();
        bad[last..last + 8].copy_from_slice(&count.wrapping_add(bump).to_le_bytes());
        assert!(
            matches!(
                decode_snapshot(&bad),
                Err(SnapshotCodecError::Corrupt("projection bank"))
            ),
            "count {count} + {bump}"
        );
        let mut framed = fresh_session(3, &[Frame::FullSnapshot(snap.clone())]);
        let at = framed.len() - bytes.len();
        assert_eq!(framed[at..], bytes[..], "the frame ends with the image");
        framed[at..].copy_from_slice(&bad);
        assert!(
            decode_frames(&framed).is_err(),
            "framed, count {count} + {bump}"
        );
        decode_every_way(&framed);
    }
}

/// A representative bidirectional byte soup: a replay Hello,
/// sequenced data frames, and the three aggregator-originated control
/// frames — everything the decoder can legally meet on one
/// connection, in one buffer.
fn valid_sequenced_stream(first_seq: u64) -> Vec<u8> {
    let mut engine = MonitorEngine::new(
        MonitorConfig::default()
            .sampler(SamplerSpec::Systematic { interval: 9 })
            .seed(13),
    );
    for i in 0..10_000u64 {
        engine.offer(i % 17, 1.0 + (i % 29) as f64);
    }
    let snap = engine.snapshot();
    let evicted = snap.streams()[..3].to_vec();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&encode_frame(&Frame::Hello {
        protocol: WIRE_VERSION,
        collector_id: 23,
        resume: Some(HelloResume::Replay { first_seq }),
    }));
    let mut seq = first_seq;
    for frame in [
        Frame::Delta(snap.clone()),
        Frame::Evicted(evicted),
        Frame::FullSnapshot(snap),
        Frame::Bye,
    ] {
        bytes.extend_from_slice(&encode_frame_seq(seq, &frame));
        seq += 1;
    }
    for frame in [
        Frame::Ack { through_seq: seq },
        Frame::Resync {
            from_seq: first_seq,
        },
        Frame::Shutdown,
    ] {
        bytes.extend_from_slice(&encode_frame(&frame));
    }
    bytes
}

/// Two growth stages of one engine plus the per-stream diffs between
/// them — the ingredients of a differential (v4) session. Cached:
/// proptest runs hundreds of cases.
fn diff_fixture() -> &'static (EngineSnapshot, EngineSnapshot, Vec<StreamDiff>) {
    static FIXTURE: OnceLock<(EngineSnapshot, EngineSnapshot, Vec<StreamDiff>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mk = |n: u64| {
            let mut engine = MonitorEngine::new(
                MonitorConfig::default()
                    .sampler(SamplerSpec::Systematic { interval: 3 })
                    .seed(19),
            );
            for i in 0..n {
                engine.offer(i % 17, ((i % 41) as f64) - 20.0);
            }
            engine.snapshot()
        };
        let base = mk(8_000);
        let grown = mk(10_000);
        let diffs = base
            .streams()
            .iter()
            .zip(grown.streams())
            .map(|(b, n)| diff_entry(b, n).expect("grown entries diff"))
            .collect();
        (base, grown, diffs)
    })
}

/// A representative *differential* stream: resume Hello, a
/// sequenced FullSnapshot baseline, a `DeltaDiff`, `Bye`.
fn valid_diff_stream(first_seq: u64) -> Vec<u8> {
    let (base, _, diffs) = diff_fixture();
    let mut bytes = encode_frame(&Frame::Hello {
        protocol: WIRE_VERSION,
        collector_id: 29,
        resume: Some(HelloResume::Fresh { first_seq }),
    })
    .to_vec();
    bytes.extend_from_slice(&encode_frame_seq(
        first_seq,
        &Frame::FullSnapshot(base.clone()),
    ));
    bytes.extend_from_slice(&encode_frame_seq(
        first_seq + 1,
        &Frame::DeltaDiff(diffs.clone()),
    ));
    bytes.extend_from_slice(&encode_frame_seq(first_seq + 2, &Frame::Bye));
    bytes
}

/// Every frame of `bytes`, with its seq, decoded from one whole
/// buffer.
fn whole_buffer_frames(bytes: &[u8]) -> Vec<SeqFrame> {
    let mut dec = FrameDecoder::new();
    dec.push(bytes);
    let frames = std::iter::from_fn(|| dec.next_seq_frame().expect("valid stream")).collect();
    assert_eq!(dec.pending_bytes(), 0);
    frames
}

#[test]
fn byte_at_a_time_decode_matches_whole_buffer_decode() {
    // One byte per push walks every partial-input branch of the
    // parser: a prefix shorter than the frame magic (4 bytes), a
    // header short of 10 bytes, and a payload short of its declared
    // length.
    for (name, bytes) in [
        ("v4", valid_stream()),
        ("v4 sketch", valid_sketch_stream()),
        ("v4 sequenced", valid_sequenced_stream(5)),
        ("v4 diff", valid_diff_stream(9)),
    ] {
        let want = whole_buffer_frames(&bytes);
        let frames: Vec<Frame> = want.iter().map(|sf| sf.frame.clone()).collect();
        assert_eq!(decode_frames(&bytes).expect(name), frames, "{name}");
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for byte in &bytes {
            dec.push(std::slice::from_ref(byte));
            while let Some(sf) = dec.next_seq_frame().expect(name) {
                got.push(sf);
            }
        }
        assert_eq!(dec.pending_bytes(), 0, "{name}");
        assert_eq!(got, want, "{name}: frames and seqs");
    }
}

/// Decoding must return — Ok or Err, never panic, never hang.
fn decode_every_way(bytes: &[u8]) {
    let _ = decode_frames(bytes);
    let _ = decode_snapshot(bytes);
    // Incremental, in awkward chunk sizes; stop on first error like a
    // real connection handler would.
    let mut dec = FrameDecoder::new();
    'outer: for chunk in bytes.chunks(13) {
        dec.push(chunk);
        loop {
            match dec.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => break 'outer,
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutated_frame_streams_never_panic(
        muts in proptest::collection::vec((0usize..1_000_000, 0u8..=255u8), 1..12),
    ) {
        let mut bytes = valid_stream();
        for &(pos, val) in &muts {
            let i = pos % bytes.len();
            bytes[i] = val;
        }
        decode_every_way(&bytes);
    }

    #[test]
    fn random_garbage_never_panics(
        bytes in proptest::collection::vec(0u8..=255u8, 0..4096),
    ) {
        decode_every_way(&bytes);
    }

    #[test]
    fn random_truncations_never_panic(cut in 0usize..1_000_000) {
        let (bytes, boundaries) = valid_stream_with_boundaries();
        let cut = cut % (bytes.len() + 1);
        decode_every_way(&bytes[..cut]);
        if boundaries.contains(&cut) {
            // A cut on a frame boundary is a shorter valid stream.
            prop_assert!(decode_frames(&bytes[..cut]).is_ok());
        } else {
            // A cut inside a frame is incomplete or corrupt, never
            // silently whole.
            prop_assert!(decode_frames(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn mutated_v1_snapshots_never_panic(
        muts in proptest::collection::vec((0usize..1_000_000, 0u8..=255u8), 1..12),
    ) {
        let mut engine = MonitorEngine::new(MonitorConfig::default().seed(2));
        for i in 0..3000u64 {
            engine.offer(i % 7, (i % 31) as f64);
        }
        let mut bytes = encode_snapshot(&engine.snapshot()).to_vec();
        for &(pos, val) in &muts {
            let i = pos % bytes.len();
            bytes[i] = val;
        }
        let _ = decode_snapshot(&bytes);
        let _ = decode_frames(&bytes);
    }

    #[test]
    fn mutated_sketch_streams_never_panic(
        muts in proptest::collection::vec((0usize..1_000_000, 0u8..=255u8), 1..12),
    ) {
        let mut bytes = valid_sketch_stream();
        for &(pos, val) in &muts {
            let i = pos % bytes.len();
            bytes[i] = val;
        }
        decode_every_way(&bytes);
    }

    #[test]
    fn truncated_sketch_streams_never_panic(cut in 0usize..1_000_000) {
        let bytes = valid_sketch_stream();
        let cut = cut % (bytes.len() + 1);
        decode_every_way(&bytes[..cut]);
    }

    #[test]
    fn mutated_v1_sketch_snapshots_never_panic(
        muts in proptest::collection::vec((0usize..1_000_000, 0u8..=255u8), 1..12),
    ) {
        // Mutations inside the trailing SKT1 section (or anywhere
        // before it) must come back as errors or valid decodes, never
        // panics or runaway allocations.
        let mut engine = MonitorEngine::new(
            MonitorConfig::default()
                .seed(2)
                .max_exact_keys(4)
                .sketch_bytes(1 << 12),
        );
        for i in 0..5_000u64 {
            engine.offer(i % 64, (i % 31) as f64);
        }
        let mut bytes = encode_snapshot(&engine.full_snapshot()).to_vec();
        for &(pos, val) in &muts {
            let i = pos % bytes.len();
            bytes[i] = val;
        }
        let _ = decode_snapshot(&bytes);
        let _ = decode_frames(&bytes);
    }

    #[test]
    fn declared_length_overflows_are_rejected_not_allocated(
        kind in 0u8..=8u8,
        len in (1u32 << 28)..=u32::MAX,
    ) {
        // A hostile header declaring a huge payload must fail fast
        // (no allocation, no panic), whatever the kind byte says.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SSWF");
        bytes.push(WIRE_VERSION);
        bytes.push(kind);
        bytes.extend_from_slice(&len.to_le_bytes());
        prop_assert!(decode_frames(&bytes).is_err());
    }

    #[test]
    fn mutated_sequenced_streams_never_panic(
        first_seq in 0u64..1_000,
        muts in proptest::collection::vec((0usize..1_000_000, 0u8..=255u8), 1..12),
    ) {
        let mut bytes = valid_sequenced_stream(first_seq);
        for &(pos, val) in &muts {
            let i = pos % bytes.len();
            bytes[i] = val;
        }
        decode_every_way(&bytes);
    }

    #[test]
    fn truncated_sequenced_streams_never_panic(
        first_seq in 0u64..1_000,
        cut in 0usize..1_000_000,
    ) {
        let bytes = valid_sequenced_stream(first_seq);
        let cut = cut % (bytes.len() + 1);
        decode_every_way(&bytes[..cut]);
    }

    #[test]
    fn sequenced_streams_round_trip_their_seqs(first_seq in 0u64..u64::MAX / 2) {
        // The bidirectional decoder must hand back exactly the seqs
        // the sender stamped — data frames numbered, Hello and
        // control frames seq-less — through arbitrary re-chunking.
        let bytes = valid_sequenced_stream(first_seq);
        let mut dec = FrameDecoder::new();
        let mut seqs = Vec::new();
        for chunk in bytes.chunks(7) {
            dec.push(chunk);
            while let Some(sf) = dec.next_seq_frame().expect("valid stream") {
                seqs.push(sf.seq);
            }
        }
        let expected: Vec<Option<u64>> = std::iter::once(None)
            .chain((0..4).map(|i| Some(first_seq + i)))
            .chain([None, None, None])
            .collect();
        prop_assert_eq!(seqs, expected);
    }

    #[test]
    fn mutated_diff_streams_never_panic(
        first_seq in 0u64..1_000,
        muts in proptest::collection::vec((0usize..1_000_000, 0u8..=255u8), 1..12),
    ) {
        let mut bytes = valid_diff_stream(first_seq);
        for &(pos, val) in &muts {
            let i = pos % bytes.len();
            bytes[i] = val;
        }
        decode_every_way(&bytes);
    }

    #[test]
    fn truncated_diff_streams_never_panic(
        first_seq in 0u64..1_000,
        cut in 0usize..1_000_000,
    ) {
        let bytes = valid_diff_stream(first_seq);
        let cut = cut % (bytes.len() + 1);
        decode_every_way(&bytes[..cut]);
    }

    #[test]
    fn structurally_corrupt_patches_demand_resync_not_wrong_bytes(
        entry in 0usize..1_000,
        field in 0u8..8u8,
        bump in 1u64..1_000_000,
    ) {
        // Whichever guarded integer a corruption lands on — a baseline
        // fingerprint field, a sampler counter delta, a structural
        // length — the aggregator must answer `NeedResync` and latch
        // the session as awaiting resync, never apply the patch. The
        // part-written live view must not advance either: even a valid
        // redelivery of the same seq is ignored until the resync hello.
        let (base, _, diffs) = diff_fixture();
        let entry = entry % diffs.len();
        let mut bad = diffs.clone();
        let d = &mut bad[entry];
        match field {
            0 => d.base.moments_count = d.base.moments_count.wrapping_add(bump),
            1 => d.base.reservoir_seen = d.base.reservoir_seen.wrapping_add(bump),
            2 => d.base.reservoir_len = d.base.reservoir_len.wrapping_add(bump),
            3 => d.base.cascade_count = d.base.cascade_count.wrapping_add(bump),
            4 => d.base.cascade_levels = d.base.cascade_levels.wrapping_add(bump),
            5 => d.base.tail_total = d.base.tail_total.wrapping_add(bump),
            // A kept-count delta outrunning offered breaks the sampler
            // invariant kept ≤ inspected ≤ offered.
            6 => d.sampler_delta.1 = d.sampler_delta.1.saturating_add(1_000_000 + bump),
            _ => {
                if let Some(p) = d.patch.reservoir.as_mut() {
                    p.new_len = p.new_len.saturating_add(100_000 + bump as usize);
                } else {
                    d.base.reservoir_seen = d.base.reservoir_seen.wrapping_add(bump);
                }
            }
        }
        let mut agg = Aggregator::new();
        agg.feed_seq(
            7,
            None,
            Frame::Hello {
                protocol: WIRE_VERSION,
                collector_id: 7,
                resume: Some(sst_monitor::wire::HelloResume::Fresh { first_seq: 0 }),
            },
        )
        .unwrap();
        prop_assert_eq!(
            agg.feed_seq(7, Some(0), Frame::FullSnapshot(base.clone())).unwrap(),
            SeqOutcome::Applied
        );
        prop_assert_eq!(
            agg.feed_seq(7, Some(1), Frame::DeltaDiff(bad)).unwrap(),
            SeqOutcome::NeedResync { from_seq: 1 }
        );
        prop_assert_eq!(
            agg.feed_seq(7, Some(1), Frame::DeltaDiff(diffs.clone())).unwrap(),
            SeqOutcome::Ignored
        );
    }
}
