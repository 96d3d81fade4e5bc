//! Transport layer: a versioned, length-prefixed frame protocol for
//! collector ⇄ aggregator streams, generalizing the v1 snapshot codec.
//!
//! ## Frame format (protocols v2–v4)
//!
//! ```text
//! frame   := magic "SSWF" | version u8 | kind u8 | len u32le | payload[len]
//! ```
//!
//! | kind | frame          | v2 payload                                  | v3+ payload |
//! |-----:|----------------|---------------------------------------------|------------|
//! | 0    | `Hello`        | protocol u8, collector id u64le              | + mode u8, first_seq u64le |
//! | 1    | `FullSnapshot` | v1 snapshot bytes (`SSMON1…`) — all live     | seq u64le, then as v2 |
//! | 2    | `Delta`        | v1 snapshot bytes — changed streams, cumulative | seq u64le, then as v2 |
//! | 3    | `Evicted`      | v1 snapshot bytes — final entries of retired streams | seq u64le, then as v2 |
//! | 4    | `Bye`          | empty                                        | seq u64le |
//! | 5    | `Ack`          | — (v3+ only)                                 | through_seq u64le |
//! | 6    | `Resync`       | — (v3+ only)                                 | from_seq u64le |
//! | 7    | `Shutdown`     | — (v3+ only)                                 | empty |
//! | 8    | `DeltaDiff`    | — (v4 only)                                  | seq u64le, `SSDF…` diff payload |
//!
//! Version 2 is the original **one-way** framed protocol. Version 3
//! makes sessions **sequenced and acknowledged**: every
//! collector-originated data frame carries a `u64` sequence number
//! (the `Hello` carries the first sequence the connection will send,
//! plus a resume mode — see [`HelloResume`]), and three
//! aggregator-originated frames flow back on the same connection:
//! `Ack` (frames through `through_seq` are applied — the sender may
//! drop them from its replay window), `Resync` (the aggregator is
//! missing frames from `from_seq` on and wants a full-snapshot
//! re-baseline), and `Shutdown` (graceful drain on serve teardown).
//! Version 4 adds the `DeltaDiff` frame: per-stream **differential**
//! payloads ([`crate::diff::StreamDiff`]) applied against the
//! receiver's live view under the seq watermark, with `Resync` as the
//! recovery path whenever a patch fails validation — the steady-state
//! bytes win the ROADMAP's delta-diff item calls for. Every version
//! decodes through the same [`FrameDecoder`]; `Hello` negotiation
//! picks the highest common version, so v2 and v3 peers are accepted
//! verbatim by a v4 aggregator.
//!
//! Snapshot-bearing payloads reuse [`crate::codec`] verbatim, so a
//! frame round-trip is exactly as lossless as the snapshot codec
//! (bit-exact). `Delta` and `FullSnapshot` entries are **cumulative**
//! per stream — the receiver *replaces* its copy of those keys rather
//! than merging, which is what keeps a re-sent delta idempotent.
//! `Evicted` finals *merge* — which is why their redelivery is guarded
//! by the v3 sequence watermark, never by blind re-application.
//!
//! ## Backward compatibility (v1)
//!
//! A byte stream that begins with the v1 snapshot magic (`SSMON1`) is
//! decoded as a single implicit [`Frame::FullSnapshot`] — existing
//! `.ssm` files written by `monitor_tool` keep working against every
//! frame consumer ([`FrameDecoder`] buffers until the legacy snapshot
//! decodes whole).
//!
//! ## Robustness
//!
//! Decoding never panics on untrusted input: truncated buffers report
//! incompleteness (`Ok(None)` from the incremental decoder, an error
//! from the whole-buffer entry points), declared lengths are capped at
//! [`MAX_FRAME_BYTES`] before any allocation, and payloads are
//! validated by the v1 codec's structural checks. The `wire_fuzz`
//! proptests drive random byte mutations through both decoders and
//! every protocol version, and feed each valid version to
//! [`FrameDecoder`] one byte at a time.

use crate::codec::{
    decode_diff_payload, decode_snapshot, encode_diff_payload, encode_snapshot, SnapshotCodecError,
};
use crate::diff::StreamDiff;
use crate::engine::{EngineSnapshot, StreamEntry};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Magic bytes opening every framed (v2/v3) frame.
pub const FRAME_MAGIC: &[u8; 4] = b"SSWF";

/// Current wire protocol version: sequenced, acknowledged sessions
/// with differential (`DeltaDiff`) data frames. (v1 is the bare
/// snapshot codec, v2 the one-way framed protocol, v3 sequenced
/// sessions without diffs.)
pub const WIRE_VERSION: u8 = 4;

/// The first sequenced protocol version: any frame tagged at or above
/// this carries the v3 session machinery (data seqs, resume-mode
/// `Hello`s, control frames). v3 streams — what every pre-diff sender
/// emits — decode unchanged.
pub const WIRE_VERSION_SEQUENCED: u8 = 3;

/// The one-way framed protocol version — still fully accepted; what
/// pre-sequencing collectors emit.
pub const WIRE_VERSION_FRAMED: u8 = 2;

/// Hard cap on a declared frame payload length — rejects
/// length-overflow attacks before any allocation happens. 256 MiB is
/// ~1M streams at worst-case entry size, far beyond a sane frame.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// The v1 snapshot magic (re-checked here for legacy detection).
const V1_MAGIC: &[u8; 6] = b"SSMON1";

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
    /// The buffer starts with neither the frame magic nor the v1
    /// snapshot magic.
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

/// How a v3 (sequenced) `Hello` relates this connection to the
/// collector's prior sessions.
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
        /// `Some` on a sequenced (v3) session: how this connection
        /// resumes prior state. `None` on unsequenced (v2) sessions.
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
    /// Per-stream differential payloads (v4, sequenced only): each
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
    /// `Resync`, `Shutdown`) that only exist at protocol v3.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Frame::Ack { .. } | Frame::Resync { .. } | Frame::Shutdown
        )
    }
}

/// A decoded frame together with the v3 sequence number its envelope
/// carried (`None` for v2/legacy frames, `Hello`s and control frames).
#[derive(Clone, Debug, PartialEq)]
pub struct SeqFrame {
    /// The v3 data-frame sequence number, if any.
    pub seq: Option<u64>,
    /// The frame itself.
    pub frame: Frame,
}

/// Serializes one frame.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_FRAME_BYTES`] — such a frame
/// could never be decoded (and past `u32::MAX` its length field would
/// silently truncate), so refusing loudly at the writer beats shipping
/// bytes every receiver must reject. [`topology::Collector`] never
/// gets here: it splits large snapshots across frames at a byte
/// target 16× below the cap, which callers encoding their own
/// `Delta`/`FullSnapshot` frames should mirror.
///
/// [`topology::Collector`]: crate::topology::Collector
pub fn encode_frame(frame: &Frame) -> Bytes {
    let (version, kind, payload): (u8, u8, Bytes) = match frame {
        Frame::Hello {
            protocol,
            collector_id,
            resume: None,
        } => {
            let mut b = BytesMut::with_capacity(9);
            b.put_u8(*protocol);
            b.put_u64_le(*collector_id);
            (WIRE_VERSION_FRAMED, KIND_HELLO, b.freeze())
        }
        Frame::Hello {
            protocol,
            collector_id,
            resume: Some(resume),
        } => {
            let mut b = BytesMut::with_capacity(18);
            b.put_u8(*protocol);
            b.put_u64_le(*collector_id);
            b.put_u8(resume.mode_byte());
            b.put_u64_le(resume.first_seq());
            (WIRE_VERSION, KIND_HELLO, b.freeze())
        }
        Frame::FullSnapshot(snap) => (WIRE_VERSION_FRAMED, KIND_FULL, encode_snapshot(snap)),
        Frame::Delta(snap) => (WIRE_VERSION_FRAMED, KIND_DELTA, encode_snapshot(snap)),
        Frame::Evicted(entries) => (
            WIRE_VERSION_FRAMED,
            KIND_EVICTED,
            encode_snapshot(&EngineSnapshot::from_streams(entries.clone())),
        ),
        Frame::DeltaDiff(_) => {
            panic!("DeltaDiff frames are sequenced; use encode_frame_seq")
        }
        Frame::Bye => (WIRE_VERSION_FRAMED, KIND_BYE, Bytes::new()),
        Frame::Ack { through_seq } => (
            WIRE_VERSION,
            KIND_ACK,
            Bytes::copy_from_slice(&through_seq.to_le_bytes()),
        ),
        Frame::Resync { from_seq } => (
            WIRE_VERSION,
            KIND_RESYNC,
            Bytes::copy_from_slice(&from_seq.to_le_bytes()),
        ),
        Frame::Shutdown => (WIRE_VERSION, KIND_SHUTDOWN, Bytes::new()),
    };
    assemble(version, kind, &payload, None)
}

/// Serializes one **data** frame (`FullSnapshot`, `Delta`, `Evicted`,
/// `DeltaDiff`, `Bye`) at the current protocol version with the given
/// sequence number.
///
/// # Panics
///
/// As [`encode_frame`] on oversize payloads, and on frames that do not
/// carry a data sequence number (`Hello` encodes its resume info via
/// [`encode_frame`]; control frames are unsequenced).
pub fn encode_frame_seq(seq: u64, frame: &Frame) -> Bytes {
    let (kind, payload): (u8, Bytes) = match frame {
        Frame::FullSnapshot(snap) => (KIND_FULL, encode_snapshot(snap)),
        Frame::Delta(snap) => (KIND_DELTA, encode_snapshot(snap)),
        Frame::Evicted(entries) => (
            KIND_EVICTED,
            encode_snapshot(&EngineSnapshot::from_streams(entries.clone())),
        ),
        Frame::DeltaDiff(diffs) => (KIND_DELTA_DIFF, encode_diff_payload(diffs)),
        Frame::Bye => (KIND_BYE, Bytes::new()),
        other => panic!("{} frames do not carry a data seq", other.kind_name()),
    };
    assemble(WIRE_VERSION, kind, &payload, Some(seq))
}

fn assemble(version: u8, kind: u8, payload: &[u8], seq: Option<u64>) -> Bytes {
    let seq_len = if seq.is_some() { 8 } else { 0 };
    assert!(
        payload.len() + seq_len <= MAX_FRAME_BYTES,
        "frame payload {} exceeds the {} B wire cap — chunk the snapshot across frames",
        payload.len(),
        MAX_FRAME_BYTES
    );
    let mut buf = BytesMut::with_capacity(FRAME_MAGIC.len() + 6 + seq_len + payload.len());
    buf.put_slice(FRAME_MAGIC);
    buf.put_u8(version);
    buf.put_u8(kind);
    let len = u32::try_from(payload.len() + seq_len)
        .expect("frame length fits u32: capped at MAX_FRAME_BYTES by the assert above");
    buf.put_u32_le(len);
    if let Some(s) = seq {
        buf.put_u64_le(s);
    }
    buf.put_slice(payload);
    buf.freeze()
}

/// Reads an exactly-8-byte little-endian `u64` field without a panic
/// path: short or long slices are wire corruption, not programmer bugs.
fn le_u64(bytes: &[u8]) -> Result<u64, WireError> {
    let arr: [u8; 8] = bytes
        .try_into()
        .map_err(|_| WireError::Corrupt("u64 field length"))?;
    Ok(u64::from_le_bytes(arr))
}

fn decode_payload(version: u8, kind: u8, payload: &[u8]) -> Result<SeqFrame, WireError> {
    let sequenced = version >= WIRE_VERSION_SEQUENCED;
    // Sequenced data frames open with their seq; everything else
    // carries none.
    let (seq, payload) = if sequenced
        && matches!(
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
            let want = if sequenced { 18 } else { 9 };
            if payload.len() != want {
                return Err(WireError::Corrupt("hello payload length"));
            }
            let mut p = payload;
            let protocol = p.get_u8();
            let collector_id = p.get_u64_le();
            let resume = if sequenced {
                let mode = p.get_u8();
                let first_seq = p.get_u64_le();
                Some(match mode {
                    0 => HelloResume::Fresh { first_seq },
                    1 => HelloResume::Replay { first_seq },
                    2 => HelloResume::Resync { first_seq },
                    _ => return Err(WireError::Corrupt("hello resume mode")),
                })
            } else {
                None
            };
            Frame::Hello {
                protocol,
                collector_id,
                resume,
            }
        }
        KIND_FULL => Frame::FullSnapshot(decode_snapshot(payload)?),
        KIND_DELTA => Frame::Delta(decode_snapshot(payload)?),
        KIND_EVICTED => Frame::Evicted(decode_snapshot(payload)?.into_streams()),
        KIND_DELTA_DIFF => {
            if version < WIRE_VERSION {
                return Err(WireError::Corrupt("differential frame below protocol v4"));
            }
            Frame::DeltaDiff(decode_diff_payload(payload)?)
        }
        KIND_BYE => {
            if !payload.is_empty() {
                return Err(WireError::Corrupt("bye payload not empty"));
            }
            Frame::Bye
        }
        KIND_ACK | KIND_RESYNC if !sequenced => {
            return Err(WireError::Corrupt("control frame below protocol v3"));
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
            if !sequenced {
                return Err(WireError::Corrupt("control frame below protocol v3"));
            }
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
/// out as they complete. Handles the v1 legacy form (a bare snapshot)
/// by buffering until the whole snapshot decodes.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Set once the stream is known to be a v1 legacy snapshot.
    legacy: bool,
    /// The legacy snapshot was emitted; only EOF may follow.
    legacy_done: bool,
    /// Buffer length at which the next legacy decode attempt runs —
    /// doubled after every failed (truncated) attempt, so an N-byte
    /// legacy stream costs O(N) total parse work instead of a full
    /// re-parse per pushed chunk (quadratic).
    legacy_retry_at: usize,
    /// The transport reported end-of-input ([`FrameDecoder::finish`]):
    /// attempt the legacy decode regardless of the retry threshold.
    eof: bool,
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

    /// Tells the decoder no more bytes are coming (EOF). Only needed
    /// for v1 legacy streams, whose length isn't declared up front:
    /// it forces the final decode attempt regardless of the
    /// amortization threshold. Frames already buffered whole are
    /// unaffected.
    pub fn finish(&mut self) {
        self.eof = true;
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
    /// needed. Drops the v3 sequence number — sequenced consumers use
    /// [`FrameDecoder::next_seq_frame`].
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed input; the decoder is then poisoned
    /// for that stream (callers should drop the connection).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        Ok(self.next_seq_frame()?.map(|sf| sf.frame))
    }

    /// Pops the next completed frame with its v3 sequence number
    /// (`None` seq for v2/legacy frames, `Hello`s and control frames).
    ///
    /// # Errors
    ///
    /// As [`FrameDecoder::next_frame`].
    pub fn next_seq_frame(&mut self) -> Result<Option<SeqFrame>, WireError> {
        if self.legacy_done {
            return if self.buf.is_empty() {
                Ok(None)
            } else {
                Err(WireError::Corrupt("bytes after legacy snapshot"))
            };
        }
        if self.legacy {
            return self.try_legacy();
        }
        if self.buf.starts_with(FRAME_MAGIC) {
            return self.try_v2();
        }
        if self.buf.starts_with(V1_MAGIC) {
            self.legacy = true;
            return self.try_legacy();
        }
        // Neither magic is whole yet: wait while the buffer could still
        // become either form, reject once it mismatches both.
        if FRAME_MAGIC.starts_with(&self.buf) || V1_MAGIC.starts_with(&self.buf) {
            Ok(None)
        } else {
            Err(WireError::BadMagic)
        }
    }

    fn try_legacy(&mut self) -> Result<Option<SeqFrame>, WireError> {
        if !self.eof && self.buf.len() < self.legacy_retry_at {
            return Ok(None);
        }
        match decode_snapshot(&self.buf) {
            Ok(snap) => {
                self.last_frame_bytes = self.buf.len();
                self.buf.clear();
                self.legacy_done = true;
                Ok(Some(SeqFrame {
                    seq: None,
                    frame: Frame::FullSnapshot(snap),
                }))
            }
            Err(SnapshotCodecError::Truncated) => {
                // Geometric back-off: don't re-parse the whole prefix
                // until the buffer has roughly doubled.
                self.legacy_retry_at = self.buf.len().saturating_mul(2).max(4096);
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn try_v2(&mut self) -> Result<Option<SeqFrame>, WireError> {
        const HEADER: usize = 4 + 1 + 1 + 4;
        let Some((header, rest)) = self.buf.split_first_chunk::<HEADER>() else {
            return Ok(None);
        };
        let &[_, _, _, _, version, kind, l0, l1, l2, l3] = header;
        if !(WIRE_VERSION_FRAMED..=WIRE_VERSION).contains(&version) {
            return Err(WireError::UnsupportedVersion(version));
        }
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::Oversize(len as u64));
        }
        let Some(payload) = rest.get(..len) else {
            return Ok(None);
        };
        let frame = decode_payload(version, kind, payload)?;
        self.buf.drain(..HEADER + len);
        self.last_frame_bytes = HEADER + len;
        Ok(Some(frame))
    }
}

/// Decodes a complete buffer into its frames. Accepts both the v2
/// frame stream and a bare v1 snapshot (one implicit `FullSnapshot`).
///
/// # Errors
///
/// [`WireError::Truncated`] if the buffer ends mid-frame, plus every
/// structural error the incremental decoder reports.
pub fn decode_frames(bytes: &[u8]) -> Result<Vec<Frame>, WireError> {
    let mut dec = FrameDecoder::new();
    dec.push(bytes);
    dec.finish();
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

    fn roundtrip(frames: &[Frame]) -> Vec<Frame> {
        let mut bytes = Vec::new();
        for f in frames {
            bytes.extend_from_slice(&encode_frame(f));
        }
        decode_frames(&bytes).expect("decode")
    }

    #[test]
    fn frame_stream_round_trips_bit_exact() {
        let snap = sample_snapshot(5);
        let evicted: Vec<StreamEntry> = snap.streams()[..3].to_vec();
        let frames = vec![
            Frame::Hello {
                protocol: WIRE_VERSION,
                collector_id: 42,
                resume: None,
            },
            Frame::Delta(sample_snapshot(9)),
            Frame::Evicted(evicted),
            Frame::FullSnapshot(snap),
            Frame::Bye,
        ];
        assert_eq!(roundtrip(&frames), frames);
    }

    #[test]
    fn sequenced_v3_frames_round_trip_with_their_seqs() {
        let snap = sample_snapshot(5);
        let evicted: Vec<StreamEntry> = snap.streams()[..2].to_vec();
        let hello = Frame::Hello {
            protocol: WIRE_VERSION,
            collector_id: 42,
            resume: Some(HelloResume::Replay { first_seq: 17 }),
        };
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
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame(&hello));
        for (i, f) in data.iter().enumerate() {
            bytes.extend_from_slice(&encode_frame_seq(17 + i as u64, f));
        }
        for f in &controls {
            bytes.extend_from_slice(&encode_frame(f));
        }
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        dec.finish();
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
            let hello = Frame::Hello {
                protocol: WIRE_VERSION,
                collector_id: 3,
                resume: Some(resume),
            };
            assert_eq!(roundtrip(std::slice::from_ref(&hello)), vec![hello]);
        }
    }

    #[test]
    fn control_frames_below_v3_are_rejected() {
        // Hand-craft an Ack inside a v2 envelope: structurally framed,
        // semantically impossible (v2 is one-way).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(FRAME_MAGIC);
        bytes.push(WIRE_VERSION_FRAMED);
        bytes.push(5); // Ack
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(
            decode_frames(&bytes),
            Err(WireError::Corrupt("control frame below protocol v3"))
        );
    }

    #[test]
    fn incremental_decode_across_arbitrary_chunking() {
        let frames = vec![
            Frame::Hello {
                protocol: WIRE_VERSION,
                collector_id: 7,
                resume: None,
            },
            Frame::Delta(sample_snapshot(1)),
            Frame::Bye,
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&encode_frame(f));
        }
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
    fn legacy_v1_snapshot_decodes_as_full_snapshot() {
        let snap = sample_snapshot(3);
        let v1 = encode_snapshot(&snap);
        let frames = decode_frames(&v1).expect("legacy decode");
        assert_eq!(frames, vec![Frame::FullSnapshot(snap)]);
        // Incrementally too, in awkward chunks.
        let mut dec = FrameDecoder::new();
        let (a, b) = v1.split_at(v1.len() / 2);
        dec.push(a);
        assert_eq!(dec.next_frame().expect("partial"), None);
        dec.push(b);
        assert!(matches!(
            dec.next_frame().expect("whole"),
            Some(Frame::FullSnapshot(_))
        ));
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
        let bytes = encode_frame(&Frame::Delta(sample_snapshot(2)));
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
    }
}
