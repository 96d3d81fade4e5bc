//! Transport layer: the length-prefixed frame protocol collectors and
//! the aggregator speak over one socket, with snapshot payloads in the
//! v1 snapshot codec.
//!
//! ## Frame format (protocol v4)
//!
//! ```text
//! frame   := magic "SSWF" | version u8 (= 4) | kind u8 | len u32le | payload[len]
//! ```
//!
//! | kind | frame          | payload                                              |
//! |-----:|----------------|------------------------------------------------------|
//! | 0    | `Hello`        | protocol u8, collector id u64le, mode u8, first_seq u64le |
//! | 1    | `FullSnapshot` | seq u64le, v1 snapshot bytes (`SSMON1…`) — all live  |
//! | 2    | `Delta`        | seq u64le, v1 snapshot bytes — changed streams, cumulative |
//! | 3    | `Evicted`      | seq u64le, v1 snapshot bytes — final entries of retired streams |
//! | 4    | `Bye`          | seq u64le                                            |
//! | 5    | `Ack`          | through_seq u64le                                    |
//! | 6    | `Resync`       | from_seq u64le                                       |
//! | 7    | `Shutdown`     | empty                                                |
//! | 8    | `DeltaDiff`    | seq u64le, `SSDF…` diff payload                      |
//!
//! Sessions are **sequenced and acknowledged**: every
//! collector-originated data frame carries a `u64` sequence number
//! (the `Hello` carries the first sequence the connection will send,
//! plus a resume mode — see [`HelloResume`]), and three
//! aggregator-originated frames flow back on the same connection:
//! `Ack` (frames through `through_seq` are applied — the sender may
//! drop them from its replay window), `Resync` (the aggregator is
//! missing frames from `from_seq` on and wants a full-snapshot
//! re-baseline), and `Shutdown` (graceful drain on serve teardown).
//! `DeltaDiff` carries per-stream **differential** payloads
//! ([`crate::diff::StreamDiff`]) applied against the receiver's live
//! view under the seq watermark, with `Resync` as the recovery path
//! whenever a patch fails validation. A frame at any other version is
//! [`WireError::UnsupportedVersion`].
//!
//! Snapshot-bearing payloads reuse [`crate::codec`] verbatim, so a
//! frame round-trip is exactly as lossless as the snapshot codec
//! (bit-exact). `Delta` and `FullSnapshot` entries are **cumulative**
//! per stream — the receiver *replaces* its copy of those keys rather
//! than merging, which is what keeps a re-sent delta idempotent.
//! `Evicted` finals *merge* — which is why their redelivery is guarded
//! by the sequence watermark, never by blind re-application.
//!
//! ## File format (v1)
//!
//! The v1 snapshot codec (`SSMON1…`, [`crate::codec`]) is the `.ssm`
//! **file** format: [`crate::codec::decode_snapshot`] reads it, and
//! `monitor_tool info`/`merge` and the shard → link → network roll-up
//! consume it. It is not a socket protocol: a stream that opens with
//! the v1 magic is [`WireError::BadMagic`] once its prefix stops
//! matching `SSWF`.
//!
//! ## Robustness
//!
//! Decoding never panics on untrusted input: truncated buffers report
//! incompleteness (`Ok(None)` from the incremental decoder, an error
//! from the whole-buffer entry points), declared lengths are capped at
//! [`MAX_FRAME_BYTES`] before any allocation, and payloads are
//! validated by the v1 codec's structural checks. The `wire_fuzz`
//! proptests drive random byte mutations through both decoders, and
//! feed every valid stream shape to [`FrameDecoder`] one byte at a
//! time.

use crate::codec::{
    decode_diff_payload, decode_snapshot, diff_payload_len, encoded_diff_len, entries_len,
    put_diff_payload, put_entries, put_snapshot, snapshot_len, SnapshotCodecError,
};
use crate::diff::StreamDiff;
use crate::engine::{EngineSnapshot, StreamEntry};
use bytes::{Buf, BufMut, Bytes};
use std::fmt;

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: &[u8; 4] = b"SSWF";

/// The wire protocol version, the only one a socket accepts:
/// sequenced, acknowledged sessions with differential (`DeltaDiff`)
/// data frames.
pub const WIRE_VERSION: u8 = 4;

/// Hard cap on a declared frame payload length — rejects
/// length-overflow attacks before any allocation happens. 256 MiB is
/// ~1M streams at worst-case entry size, far beyond a sane frame.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

const KIND_HELLO: u8 = 0;
const KIND_FULL: u8 = 1;
const KIND_DELTA: u8 = 2;
const KIND_EVICTED: u8 = 3;
const KIND_BYE: u8 = 4;
const KIND_ACK: u8 = 5;
const KIND_RESYNC: u8 = 6;
const KIND_SHUTDOWN: u8 = 7;
const KIND_DELTA_DIFF: u8 = 8;

/// Wire decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer does not start with the frame magic.
    BadMagic,
    /// The frame declares a protocol version this decoder cannot read.
    UnsupportedVersion(u8),
    /// Unknown frame kind byte.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_FRAME_BYTES`].
    Oversize(u64),
    /// The buffer ended before the declared frame (whole-buffer entry
    /// points only; the incremental decoder reports `Ok(None)`).
    Truncated,
    /// A snapshot payload failed the v1 codec's validation.
    Snapshot(SnapshotCodecError),
    /// A fixed-layout payload held an invalid value.
    Corrupt(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => f.write_str("not a wire frame (bad magic)"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire protocol v{v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversize(n) => write!(f, "frame length {n} exceeds cap"),
            WireError::Truncated => f.write_str("frame buffer truncated"),
            WireError::Snapshot(e) => write!(f, "snapshot payload: {e}"),
            WireError::Corrupt(what) => write!(f, "corrupt frame field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<SnapshotCodecError> for WireError {
    fn from(e: SnapshotCodecError) -> Self {
        WireError::Snapshot(e)
    }
}

/// How a `Hello` relates this connection to the collector's prior
/// sessions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HelloResume {
    /// A brand-new session; data seqs start at `first_seq` (normally
    /// 0).
    Fresh {
        /// Sequence number of the first data frame to follow.
        first_seq: u64,
    },
    /// A reconnect that will replay its unacked window verbatim,
    /// starting at `first_seq`. The aggregator skips any seq it
    /// already applied.
    Replay {
        /// Sequence number of the first replayed frame.
        first_seq: u64,
    },
    /// The answer to an aggregator `Resync` request: the live view is
    /// about to be re-baselined by a `FullSnapshot`, with fresh seqs
    /// starting at `first_seq`.
    Resync {
        /// Sequence number of the first re-baseline frame.
        first_seq: u64,
    },
}

impl HelloResume {
    fn mode_byte(self) -> u8 {
        match self {
            HelloResume::Fresh { .. } => 0,
            HelloResume::Replay { .. } => 1,
            HelloResume::Resync { .. } => 2,
        }
    }

    /// Sequence number of the first data frame this connection sends.
    pub fn first_seq(self) -> u64 {
        match self {
            HelloResume::Fresh { first_seq }
            | HelloResume::Replay { first_seq }
            | HelloResume::Resync { first_seq } => first_seq,
        }
    }
}

/// One protocol frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Opens a collector session: protocol version + collector id.
    Hello {
        /// Protocol version the sender speaks.
        protocol: u8,
        /// Stable id of the sending collector.
        collector_id: u64,
        /// How this connection resumes prior state. Always `Some` on
        /// the wire: a decoded `Hello` carries its mode, [`encode_frame`]
        /// refuses `None`, and the aggregator rejects it.
        resume: Option<HelloResume>,
    },
    /// Every live stream of the sender, cumulative (receiver replaces
    /// its whole live view of this collector).
    FullSnapshot(EngineSnapshot),
    /// Streams changed since the last flush, cumulative (receiver
    /// replaces those keys).
    Delta(EngineSnapshot),
    /// Final snapshots of evicted streams (receiver retires those
    /// keys; successive finals for a reappearing key merge).
    Evicted(Vec<StreamEntry>),
    /// Per-stream differential payloads: each
    /// diff advances the receiver's live entry for its key from the
    /// acked baseline — bit-exactly — or fails validation, turning
    /// into a `Resync` re-baseline. Never merged, never applied out of
    /// order: the seq watermark makes redelivery idempotent
    /// (duplicates skip) and gaps explicit.
    DeltaDiff(Vec<StreamDiff>),
    /// Clean end of a collector session.
    Bye,
    /// Aggregator → collector: every frame through `through_seq` is
    /// applied; the sender may drop them from its replay window.
    Ack {
        /// Highest contiguous applied sequence number.
        through_seq: u64,
    },
    /// Aggregator → collector: frames from `from_seq` on are missing —
    /// re-baseline with a `Resync`-mode `Hello`, the unacked evicted
    /// finals, and a `FullSnapshot`.
    Resync {
        /// First sequence number the aggregator does not hold.
        from_seq: u64,
    },
    /// Aggregator → collector: the serve is draining; reconnect later.
    Shutdown,
}

impl Frame {
    /// Short human name of the frame kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::FullSnapshot(_) => "FullSnapshot",
            Frame::Delta(_) => "Delta",
            Frame::Evicted(_) => "Evicted",
            Frame::DeltaDiff(_) => "DeltaDiff",
            Frame::Bye => "Bye",
            Frame::Ack { .. } => "Ack",
            Frame::Resync { .. } => "Resync",
            Frame::Shutdown => "Shutdown",
        }
    }

    /// `true` for the aggregator-originated control frames (`Ack`,
    /// `Resync`, `Shutdown`).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Frame::Ack { .. } | Frame::Resync { .. } | Frame::Shutdown
        )
    }
}

/// A decoded frame together with the sequence number its envelope
/// carried.
#[derive(Clone, Debug, PartialEq)]
pub struct SeqFrame {
    /// The data-frame sequence number: `Some` for every data frame,
    /// `None` for `Hello`s and control frames.
    pub seq: Option<u64>,
    /// The frame itself.
    pub frame: Frame,
}

/// Serializes a `Hello` or an aggregator control frame (`Ack`,
/// `Resync`, `Shutdown`) — the frames that carry no data seq.
///
/// # Panics
///
/// On data frames, which carry a seq and go through
/// [`encode_frame_seq`], and on a `Hello` without a resume mode.
pub fn encode_frame(frame: &Frame) -> Bytes {
    match frame {
        Frame::Hello {
            protocol,
            collector_id,
            resume: Some(resume),
        } => assemble(KIND_HELLO, None, 18, |b| {
            b.put_u8(*protocol);
            b.put_u64_le(*collector_id);
            b.put_u8(resume.mode_byte());
            b.put_u64_le(resume.first_seq());
        }),
        Frame::Hello { resume: None, .. } => panic!("a Hello carries a resume mode"),
        Frame::Ack { through_seq } => assemble(KIND_ACK, None, 8, |b| {
            b.put_u64_le(*through_seq);
        }),
        Frame::Resync { from_seq } => assemble(KIND_RESYNC, None, 8, |b| {
            b.put_u64_le(*from_seq);
        }),
        Frame::Shutdown => assemble(KIND_SHUTDOWN, None, 0, |_| {}),
        other => panic!(
            "{} frames are sequenced; use encode_frame_seq",
            other.kind_name()
        ),
    }
}

/// Serializes one **data** frame (`FullSnapshot`, `Delta`, `Evicted`,
/// `DeltaDiff`, `Bye`) with the given sequence number.
///
/// # Panics
///
/// If the payload exceeds [`MAX_FRAME_BYTES`] — such a frame could
/// never be decoded (and past `u32::MAX` its length field would
/// silently truncate), so refusing loudly at the writer beats shipping
/// bytes every receiver must reject. [`topology::Collector`] never
/// gets here: it splits large snapshots across frames at a byte
/// target 16× below the cap, which callers encoding their own
/// `Delta`/`FullSnapshot` frames should mirror. Also panics on frames
/// that do not carry a data sequence number (`Hello` and control
/// frames go through [`encode_frame`]).
///
/// [`topology::Collector`]: crate::topology::Collector
pub fn encode_frame_seq(seq: u64, frame: &Frame) -> Bytes {
    match frame {
        Frame::FullSnapshot(snap) => snapshot_frame(KIND_FULL, seq, snap),
        Frame::Delta(snap) => snapshot_frame(KIND_DELTA, seq, snap),
        Frame::Evicted(entries) => evicted_frame(seq, entries),
        Frame::DeltaDiff(diffs) => {
            encode_diff_frame_seq(seq, diffs, diffs.iter().map(encoded_diff_len).sum())
        }
        Frame::Bye => assemble(KIND_BYE, Some(seq), 0, |_| {}),
        other => panic!("{} frames do not carry a data seq", other.kind_name()),
    }
}

/// [`encode_frame_seq`] of a `DeltaDiff` frame carrying `diffs`, whose
/// [`encoded_diff_len`]s sum to `entries_len` — a collector's seal has
/// computed each one already.
pub(crate) fn encode_diff_frame_seq(seq: u64, diffs: &[StreamDiff], entries_len: usize) -> Bytes {
    let len = diff_payload_len(diffs.len(), entries_len);
    assemble(KIND_DELTA_DIFF, Some(seq), len, |b| {
        put_diff_payload(b, diffs);
    })
}

/// An `Evicted` frame of `finals`: the bytes of
/// `EngineSnapshot::from_streams(finals)`, written from the finals in
/// place, ordered by key. Only a chunk that repeats a key — a stream
/// demoted and then evicted within one seal — is merged per key into
/// a snapshot first.
fn evicted_frame(seq: u64, finals: &[StreamEntry]) -> Bytes {
    let mut sorted: Vec<&StreamEntry> = finals.iter().collect();
    sorted.sort_by_key(|e| e.key);
    if sorted.windows(2).any(|w| w[0].key == w[1].key) {
        let merged = EngineSnapshot::from_streams(finals.to_vec());
        return snapshot_frame(KIND_EVICTED, seq, &merged);
    }
    assemble(
        KIND_EVICTED,
        Some(seq),
        entries_len(sorted.iter().copied(), None),
        |b| put_entries(b, sorted.iter().copied(), None),
    )
}

fn snapshot_frame(kind: u8, seq: u64, snap: &EngineSnapshot) -> Bytes {
    assemble(kind, Some(seq), snapshot_len(snap), |b| {
        put_snapshot(b, snap);
    })
}

/// One frame: header, the seq when there is one, then the payload
/// `put_payload` appends (about `payload_hint` bytes), all written
/// into a single buffer; the length field is filled in last.
fn assemble(
    kind: u8,
    seq: Option<u64>,
    payload_hint: usize,
    put_payload: impl FnOnce(&mut Vec<u8>),
) -> Bytes {
    let head = FRAME_MAGIC.len() + 6;
    let seq_len = if seq.is_some() { 8 } else { 0 };
    let mut buf = Vec::with_capacity(head + seq_len + payload_hint);
    buf.put_slice(FRAME_MAGIC);
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(kind);
    buf.put_u32_le(0);
    if let Some(s) = seq {
        buf.put_u64_le(s);
    }
    put_payload(&mut buf);
    let len = buf.len() - head;
    assert!(
        len <= MAX_FRAME_BYTES,
        "frame payload {} exceeds the {} B wire cap — chunk the snapshot across frames",
        len - seq_len,
        MAX_FRAME_BYTES
    );
    let len = u32::try_from(len)
        .expect("frame length fits u32: capped at MAX_FRAME_BYTES by the assert above");
    buf[head - 4..head].copy_from_slice(&len.to_le_bytes());
    Bytes::from(buf)
}

/// Reads an exactly-8-byte little-endian `u64` field without a panic
/// path: short or long slices are wire corruption, not programmer bugs.
fn le_u64(bytes: &[u8]) -> Result<u64, WireError> {
    let arr: [u8; 8] = bytes
        .try_into()
        .map_err(|_| WireError::Corrupt("u64 field length"))?;
    Ok(u64::from_le_bytes(arr))
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<SeqFrame, WireError> {
    // Data frames open with their seq; `Hello` and control frames
    // carry none.
    let (seq, payload) = if matches!(
        kind,
        KIND_FULL | KIND_DELTA | KIND_EVICTED | KIND_BYE | KIND_DELTA_DIFF
    ) {
        if payload.len() < 8 {
            return Err(WireError::Corrupt("missing data seq"));
        }
        let (s, rest) = payload.split_at(8);
        (Some(le_u64(s)?), rest)
    } else {
        (None, payload)
    };
    let frame = match kind {
        KIND_HELLO => {
            if payload.len() != 18 {
                return Err(WireError::Corrupt("hello payload length"));
            }
            let mut p = payload;
            let protocol = p.get_u8();
            let collector_id = p.get_u64_le();
            let mode = p.get_u8();
            let first_seq = p.get_u64_le();
            let resume = match mode {
                0 => HelloResume::Fresh { first_seq },
                1 => HelloResume::Replay { first_seq },
                2 => HelloResume::Resync { first_seq },
                _ => return Err(WireError::Corrupt("hello resume mode")),
            };
            Frame::Hello {
                protocol,
                collector_id,
                resume: Some(resume),
            }
        }
        KIND_FULL => Frame::FullSnapshot(decode_snapshot(payload)?),
        KIND_DELTA => Frame::Delta(decode_snapshot(payload)?),
        KIND_EVICTED => Frame::Evicted(decode_snapshot(payload)?.into_streams()),
        KIND_DELTA_DIFF => Frame::DeltaDiff(decode_diff_payload(payload)?),
        KIND_BYE => {
            if !payload.is_empty() {
                return Err(WireError::Corrupt("bye payload not empty"));
            }
            Frame::Bye
        }
        KIND_ACK => {
            if payload.len() != 8 {
                return Err(WireError::Corrupt("ack payload length"));
            }
            Frame::Ack {
                through_seq: le_u64(payload)?,
            }
        }
        KIND_RESYNC => {
            if payload.len() != 8 {
                return Err(WireError::Corrupt("resync payload length"));
            }
            Frame::Resync {
                from_seq: le_u64(payload)?,
            }
        }
        KIND_SHUTDOWN => {
            if !payload.is_empty() {
                return Err(WireError::Corrupt("shutdown payload not empty"));
            }
            Frame::Shutdown
        }
        other => return Err(WireError::UnknownKind(other)),
    };
    Ok(SeqFrame { seq, frame })
}

/// Incremental frame decoder: push bytes in as they arrive, pop frames
/// out as they complete.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// On-the-wire size (header + payload) of the last frame returned
    /// by [`FrameDecoder::next_seq_frame`], for byte accounting.
    last_frame_bytes: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a completed frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// On-the-wire size (header + payload) of the most recent frame
    /// returned by [`FrameDecoder::next_frame`] /
    /// [`FrameDecoder::next_seq_frame`]; 0 before the first frame.
    /// Lets receivers attribute transport bytes to frame kinds.
    pub fn last_frame_bytes(&self) -> usize {
        self.last_frame_bytes
    }

    /// Pops the next completed frame, `Ok(None)` when more bytes are
    /// needed. Drops the sequence number — sequenced consumers use
    /// [`FrameDecoder::next_seq_frame`].
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed input; the decoder is then poisoned
    /// for that stream (callers should drop the connection).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        Ok(self.next_seq_frame()?.map(|sf| sf.frame))
    }

    /// Pops the next completed frame with its sequence number (`None`
    /// for `Hello`s and control frames).
    ///
    /// # Errors
    ///
    /// As [`FrameDecoder::next_frame`].
    pub fn next_seq_frame(&mut self) -> Result<Option<SeqFrame>, WireError> {
        if self.buf.starts_with(FRAME_MAGIC) {
            return self.try_frame();
        }
        // The magic is not whole yet: wait while the buffer could
        // still become it, reject once it mismatches.
        if FRAME_MAGIC.starts_with(&self.buf) {
            Ok(None)
        } else {
            Err(WireError::BadMagic)
        }
    }

    fn try_frame(&mut self) -> Result<Option<SeqFrame>, WireError> {
        const HEADER: usize = 4 + 1 + 1 + 4;
        let Some((header, rest)) = self.buf.split_first_chunk::<HEADER>() else {
            return Ok(None);
        };
        let &[_, _, _, _, version, kind, l0, l1, l2, l3] = header;
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::Oversize(len as u64));
        }
        let Some(payload) = rest.get(..len) else {
            return Ok(None);
        };
        let frame = decode_payload(kind, payload)?;
        self.buf.drain(..HEADER + len);
        self.last_frame_bytes = HEADER + len;
        Ok(Some(frame))
    }
}

/// Decodes a complete buffer into its frames.
///
/// # Errors
///
/// [`WireError::Truncated`] if the buffer ends mid-frame, plus every
/// structural error the incremental decoder reports.
pub fn decode_frames(bytes: &[u8]) -> Result<Vec<Frame>, WireError> {
    let mut dec = FrameDecoder::new();
    dec.push(bytes);
    let mut frames = Vec::new();
    loop {
        match dec.next_frame()? {
            Some(f) => frames.push(f),
            None => {
                return if dec.pending_bytes() == 0 {
                    Ok(frames)
                } else {
                    Err(WireError::Truncated)
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_snapshot;
    use crate::engine::{MonitorConfig, MonitorEngine, SamplerSpec};

    fn sample_snapshot(seed: u64) -> EngineSnapshot {
        let mut engine = MonitorEngine::new(
            MonitorConfig::default()
                .sampler(SamplerSpec::Systematic { interval: 3 })
                .shards(2)
                .seed(seed),
        );
        for i in 0..5000u64 {
            engine.offer(i % 17, (i % 251) as f64);
        }
        engine.snapshot()
    }

    /// `hello` then `data` at seqs from `first_seq`, as one buffer.
    fn session(hello: &Frame, first_seq: u64, data: &[Frame]) -> Vec<u8> {
        let mut bytes = encode_frame(hello).to_vec();
        for (i, f) in data.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame_seq(first_seq + i as u64, f));
        }
        bytes
    }

    fn hello(collector_id: u64, resume: HelloResume) -> Frame {
        Frame::Hello {
            protocol: WIRE_VERSION,
            collector_id,
            resume: Some(resume),
        }
    }

    /// Decodes `bytes` pushed one byte at a time, stopping at the first
    /// error.
    fn decode_byte_at_a_time(bytes: &[u8]) -> Result<Vec<Frame>, WireError> {
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for byte in bytes {
            dec.push(std::slice::from_ref(byte));
            while let Some(f) = dec.next_frame()? {
                frames.push(f);
            }
        }
        Ok(frames)
    }

    #[test]
    fn frame_stream_round_trips_bit_exact() {
        let snap = sample_snapshot(5);
        let evicted: Vec<StreamEntry> = snap.streams()[..3].to_vec();
        let hello = hello(42, HelloResume::Fresh { first_seq: 0 });
        let data = vec![
            Frame::Delta(sample_snapshot(9)),
            Frame::Evicted(evicted),
            Frame::FullSnapshot(snap),
            Frame::Bye,
        ];
        let frames: Vec<Frame> = std::iter::once(hello.clone())
            .chain(data.iter().cloned())
            .collect();
        assert_eq!(
            decode_frames(&session(&hello, 0, &data)).expect("decode"),
            frames
        );
    }

    #[test]
    fn evicted_frames_encode_the_snapshot_of_their_finals() {
        // Out of key order, and with a repeated key (a stream demoted,
        // then evicted, within one seal): the bytes are those of the
        // canonical snapshot of the finals, merged per key.
        let a = sample_snapshot(5);
        let b = sample_snapshot(6);
        let mut finals: Vec<StreamEntry> = a.streams()[..6].iter().rev().cloned().collect();
        let unique = finals.clone();
        finals.push(b.streams()[2].clone());
        for chunk in [Vec::new(), unique, finals] {
            let snap = EngineSnapshot::from_streams(chunk.clone());
            let frame = Frame::Evicted(chunk);
            let want = snapshot_frame(KIND_EVICTED, 9, &snap);
            assert_eq!(encode_frame_seq(9, &frame), want);
        }
    }

    #[test]
    fn sequenced_v3_frames_round_trip_with_their_seqs() {
        let snap = sample_snapshot(5);
        let evicted: Vec<StreamEntry> = snap.streams()[..2].to_vec();
        let hello = hello(42, HelloResume::Replay { first_seq: 17 });
        let data = [
            Frame::Evicted(evicted),
            Frame::Delta(sample_snapshot(9)),
            Frame::FullSnapshot(snap),
            Frame::Bye,
        ];
        let controls = [
            Frame::Ack { through_seq: 20 },
            Frame::Resync { from_seq: 18 },
            Frame::Shutdown,
        ];
        let mut bytes = session(&hello, 17, &data);
        for f in &controls {
            bytes.extend_from_slice(&encode_frame(f));
        }
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let mut got = Vec::new();
        while let Some(sf) = dec.next_seq_frame().expect("clean stream") {
            got.push(sf);
        }
        assert_eq!(
            got[0],
            SeqFrame {
                seq: None,
                frame: hello
            }
        );
        for (i, f) in data.iter().enumerate() {
            assert_eq!(
                got[1 + i],
                SeqFrame {
                    seq: Some(17 + i as u64),
                    frame: f.clone()
                }
            );
        }
        for (i, f) in controls.iter().enumerate() {
            assert_eq!(
                got[1 + data.len() + i],
                SeqFrame {
                    seq: None,
                    frame: f.clone()
                }
            );
        }
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn hello_resume_modes_round_trip() {
        for resume in [
            HelloResume::Fresh { first_seq: 0 },
            HelloResume::Replay { first_seq: 914 },
            HelloResume::Resync {
                first_seq: u64::MAX,
            },
        ] {
            let hello = hello(3, resume);
            assert_eq!(decode_frames(&encode_frame(&hello)), Ok(vec![hello]));
        }
    }

    #[test]
    fn control_frames_below_v3_are_rejected() {
        // An Ack inside a v2 envelope: the version alone rejects it.
        let mut bytes = encode_frame(&Frame::Ack { through_seq: 7 }).to_vec();
        bytes[4] = 2;
        assert_eq!(decode_frames(&bytes), Err(WireError::UnsupportedVersion(2)));
    }

    #[test]
    fn legacy_streams_are_rejected_whole_and_byte_at_a_time() {
        // A v2 envelope (its 9-byte Hello), a v3 envelope (a v4 session
        // re-tagged), and a bare v1 snapshot: none is a v4 frame
        // stream, whether it arrives in one buffer or byte by byte.
        let mut v2 = Vec::new();
        v2.extend_from_slice(FRAME_MAGIC);
        v2.extend_from_slice(&[2, KIND_HELLO]);
        v2.extend_from_slice(&9u32.to_le_bytes());
        v2.push(2);
        v2.extend_from_slice(&5u64.to_le_bytes());
        let mut v3 = session(
            &hello(5, HelloResume::Fresh { first_seq: 0 }),
            0,
            &[Frame::Delta(sample_snapshot(1)), Frame::Bye],
        );
        v3[4] = 3;
        let v1 = encode_snapshot(&sample_snapshot(3)).to_vec();
        for (name, bytes, want) in [
            ("v2", v2, WireError::UnsupportedVersion(2)),
            ("v3", v3, WireError::UnsupportedVersion(3)),
            ("v1", v1, WireError::BadMagic),
        ] {
            assert_eq!(decode_frames(&bytes), Err(want.clone()), "{name}");
            assert_eq!(decode_byte_at_a_time(&bytes), Err(want), "{name}");
        }
    }

    #[test]
    fn incremental_decode_across_arbitrary_chunking() {
        let hello = hello(7, HelloResume::Fresh { first_seq: 0 });
        let data = [Frame::Delta(sample_snapshot(1)), Frame::Bye];
        let bytes = session(&hello, 0, &data);
        let frames: Vec<Frame> = std::iter::once(hello).chain(data).collect();
        for chunk in [1usize, 3, 7, 64, 1021] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in bytes.chunks(chunk) {
                dec.push(piece);
                while let Some(f) = dec.next_frame().expect("clean stream") {
                    got.push(f);
                }
            }
            assert_eq!(got, frames, "chunk size {chunk}");
            assert_eq!(dec.pending_bytes(), 0);
        }
    }

    #[test]
    fn oversize_length_rejected_without_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(FRAME_MAGIC);
        bytes.push(WIRE_VERSION);
        bytes.push(1); // FullSnapshot
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frames(&bytes),
            Err(WireError::Oversize(u32::MAX as u64))
        );
    }

    #[test]
    fn unknown_kind_and_version_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(FRAME_MAGIC);
        bytes.push(99);
        bytes.push(0);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            decode_frames(&bytes),
            Err(WireError::UnsupportedVersion(99))
        );

        let mut bytes = Vec::new();
        bytes.extend_from_slice(FRAME_MAGIC);
        bytes.push(WIRE_VERSION);
        bytes.push(200);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_frames(&bytes), Err(WireError::UnknownKind(200)));
    }

    #[test]
    fn truncation_is_reported_not_panicked() {
        let bytes = encode_frame_seq(0, &Frame::Delta(sample_snapshot(2)));
        for cut in [1usize, 4, 5, 9, 10, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(
                decode_frames(&bytes[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_rejected_early() {
        assert_eq!(decode_frames(b"GARBAGE!"), Err(WireError::BadMagic));
        assert_eq!(decode_frames(b"SS"), Err(WireError::Truncated));
        assert_eq!(decode_frames(b"SSMON1"), Err(WireError::BadMagic));
    }
}
