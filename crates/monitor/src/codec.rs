//! Compact binary codec for [`EngineSnapshot`]s — the **v1 payload
//! format** of the transport layer.
//!
//! Shard and link snapshots travel — to a collector, to disk, across a
//! network roll-up — so the format is a fixed-layout little-endian
//! encoding in the style of `sst-nettrace`'s trace codec. The decode
//! path validates every structural invariant (magic, lengths, sorted
//! keys, ladder monotonicity) and never panics on untrusted input;
//! round-trips are **bit-exact** (the summaries are serialized from
//! their raw Welford/cascade state, not from derived statistics).
//!
//! A bare buffer in this format is the `.ssm` file form. [`crate::wire`]
//! builds the socket protocol on it: snapshot-bearing frames
//! (`Delta`/`FullSnapshot`/`Evicted`) carry exactly these bytes as
//! payloads.

use crate::diff::{BaseFingerprint, StreamDiff};
use crate::engine::{EngineSnapshot, StreamEntry};
use crate::sketch::SketchSnapshot;
use crate::summary::{
    ReservoirPatch, ReservoirSnapshot, SummaryPatch, SummarySnapshot, TailCounter,
};
use bytes::{Buf, BufMut, Bytes};
use sst_core::sketch::{CountMinSketch, MAX_DEPTH};
use sst_core::stream::SamplerSnapshot;
use sst_hurst::online::{CascadePatch, OnlineVarianceTime};
use sst_hurst::{ProjectionBank, MAX_PROJECTIONS};
use sst_stats::RunningStats;
use std::fmt;
use std::sync::Arc;

/// Magic bytes + version prefix of the format.
const MAGIC: &[u8; 6] = b"SSMON1";

/// Magic opening a wire-v4 `DeltaDiff` frame payload.
const DIFF_MAGIC: &[u8; 4] = b"SSDF";

/// Magic of the optional trailing sketch-tier section. A v1 snapshot
/// remains exactly the stream records when no sketch is present, so
/// untiered engines produce byte-identical output to every prior
/// release.
const SKETCH_MAGIC: &[u8; 4] = b"SKT1";

/// Decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotCodecError {
    /// The buffer does not begin with the expected magic/version.
    BadMagic,
    /// The buffer ended before the declared contents.
    Truncated,
    /// A field held an invalid value.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotCodecError::BadMagic => f.write_str("not a monitor snapshot (bad magic)"),
            SnapshotCodecError::Truncated => f.write_str("snapshot buffer truncated"),
            SnapshotCodecError::Corrupt(what) => write!(f, "corrupt snapshot field: {what}"),
        }
    }
}

impl std::error::Error for SnapshotCodecError {}

fn put_running_stats(buf: &mut Vec<u8>, rs: &RunningStats) {
    let (n, mean, m2, min, max) = rs.raw_parts();
    buf.put_u64_le(n);
    buf.put_f64_le(mean);
    buf.put_f64_le(m2);
    buf.put_f64_le(min);
    buf.put_f64_le(max);
}

fn get_running_stats(buf: &mut &[u8]) -> Result<RunningStats, SnapshotCodecError> {
    if buf.remaining() < 40 {
        return Err(SnapshotCodecError::Truncated);
    }
    let n = buf.get_u64_le();
    let mean = buf.get_f64_le();
    let m2 = buf.get_f64_le();
    let min = buf.get_f64_le();
    let max = buf.get_f64_le();
    Ok(RunningStats::from_raw_parts(n, mean, m2, min, max))
}

fn put_sampler(buf: &mut Vec<u8>, s: &SamplerSnapshot) {
    buf.put_u64_le(s.offered as u64);
    buf.put_u64_le(s.kept as u64);
    buf.put_u64_le(s.inspected as u64);
}

fn get_sampler(buf: &mut &[u8]) -> Result<SamplerSnapshot, SnapshotCodecError> {
    if buf.remaining() < 24 {
        return Err(SnapshotCodecError::Truncated);
    }
    let offered = usize_len(buf.get_u64_le(), "sampler offered")?;
    let kept = usize_len(buf.get_u64_le(), "sampler kept")?;
    let inspected = usize_len(buf.get_u64_le(), "sampler inspected")?;
    if kept > inspected || inspected > offered {
        return Err(SnapshotCodecError::Corrupt("sampler counters"));
    }
    Ok(SamplerSnapshot {
        offered,
        kept,
        inspected,
    })
}

fn put_cascade(buf: &mut Vec<u8>, cascade: &OnlineVarianceTime) {
    let (count, levels) = cascade.raw_parts();
    buf.put_u64_le(count);
    buf.put_u64_le(levels.len() as u64);
    for (stats, carry) in levels {
        put_running_stats(buf, stats);
        match carry {
            Some(sum) => {
                buf.put_u8(1);
                buf.put_f64_le(*sum);
            }
            None => buf.put_u8(0),
        }
    }
}

fn get_cascade(buf: &mut &[u8]) -> Result<OnlineVarianceTime, SnapshotCodecError> {
    if buf.remaining() < 8 {
        return Err(SnapshotCodecError::Truncated);
    }
    let count = buf.get_u64_le();
    let n_levels = get_len(buf, 41)?;
    if n_levels > 64 {
        return Err(SnapshotCodecError::Corrupt("level count"));
    }
    let mut levels = Vec::with_capacity(n_levels);
    for _ in 0..n_levels {
        let stats = get_running_stats(buf)?;
        if buf.remaining() < 1 {
            return Err(SnapshotCodecError::Truncated);
        }
        let carry = match buf.get_u8() {
            0 => None,
            1 => {
                if buf.remaining() < 8 {
                    return Err(SnapshotCodecError::Truncated);
                }
                Some(buf.get_f64_le())
            }
            _ => return Err(SnapshotCodecError::Corrupt("carry flag")),
        };
        levels.push((stats, carry));
    }
    Ok(OnlineVarianceTime::from_raw_parts(count, levels))
}

fn put_summary(buf: &mut Vec<u8>, s: &SummarySnapshot) {
    put_running_stats(buf, &s.moments);
    // Online Hurst cascade: count, then levels with a carry flag.
    put_cascade(buf, &s.hurst);
    // Reservoir.
    let r = &s.reservoir;
    buf.put_u64_le(r.cap as u64);
    buf.put_u64_le(r.seed);
    buf.put_u64_le(r.seen);
    buf.put_u64_le(r.items.len() as u64);
    for &v in &r.items {
        buf.put_f64_le(v);
    }
    // Tail ladder.
    let (thresholds, counts, total) = s.tail.raw_parts();
    buf.put_u64_le(thresholds.len() as u64);
    for &t in thresholds {
        buf.put_f64_le(t);
    }
    for &c in counts {
        buf.put_u64_le(c);
    }
    buf.put_u64_le(total);
}

/// Reads a tail ladder of `n` thresholds, whose bytes `get_len` has
/// checked are present. A ladder equal bit for bit to `last`, the one
/// read before it, shares `last`'s allocation; any other becomes the
/// new `last`.
fn get_ladder(
    buf: &mut &[u8],
    n: usize,
    last: &mut Option<Arc<[f64]>>,
) -> Result<Arc<[f64]>, SnapshotCodecError> {
    let bytes = buf.get(..n * 8).ok_or(SnapshotCodecError::Truncated)?;
    if let Some(ladder) = last.as_ref().filter(|l| {
        l.len() == n
            && l.iter()
                .zip(bytes.chunks_exact(8))
                .all(|(t, b)| t.to_bits().to_le_bytes() == b)
    }) {
        let ladder = Arc::clone(ladder);
        buf.advance(n * 8);
        return Ok(ladder);
    }
    let ladder: Arc<[f64]> = (0..n).map(|_| buf.get_f64_le()).collect();
    if !ladder.windows(2).all(|w| matches!(w, [a, b] if a < b)) {
        return Err(SnapshotCodecError::Corrupt("tail ladder order"));
    }
    *last = Some(Arc::clone(&ladder));
    Ok(ladder)
}

/// Reads one summary; `ladder` carries the tail ladder read last (see
/// [`get_ladder`]).
fn get_summary(
    buf: &mut &[u8],
    ladder: &mut Option<Arc<[f64]>>,
) -> Result<SummarySnapshot, SnapshotCodecError> {
    let moments = get_running_stats(buf)?;
    let hurst = get_cascade(buf)?;
    if buf.remaining() < 24 {
        return Err(SnapshotCodecError::Truncated);
    }
    let cap = usize_len(buf.get_u64_le(), "reservoir cap")?;
    let seed = buf.get_u64_le();
    let seen = buf.get_u64_le();
    let n_items = get_len(buf, 8)?;
    if n_items > cap || (n_items as u64) > seen {
        return Err(SnapshotCodecError::Corrupt("reservoir size"));
    }
    let mut items = Vec::with_capacity(n_items);
    for _ in 0..n_items {
        items.push(buf.get_f64_le());
    }
    let reservoir = ReservoirSnapshot {
        cap,
        seed,
        seen,
        items,
    };
    let n_thresholds = get_len(buf, 16)?;
    let thresholds = get_ladder(buf, n_thresholds, ladder)?;
    let mut counts = Vec::with_capacity(n_thresholds);
    for _ in 0..n_thresholds {
        counts.push(buf.get_u64_le());
    }
    if buf.remaining() < 8 {
        return Err(SnapshotCodecError::Truncated);
    }
    let total = buf.get_u64_le();
    if counts.iter().any(|&c| c > total) {
        return Err(SnapshotCodecError::Corrupt("tail counts exceed total"));
    }
    let tail = TailCounter::from_raw_parts(thresholds, counts, total);
    Ok(SummarySnapshot {
        moments,
        hurst,
        reservoir,
        tail,
    })
}

fn put_sketch(buf: &mut Vec<u8>, sk: &SketchSnapshot) {
    buf.put_slice(SKETCH_MAGIC);
    put_sampler(buf, &sk.sampler);
    put_summary(buf, &sk.summary);
    // Count-min geometry + cells.
    buf.put_u64_le(sk.cm.depth() as u64);
    buf.put_u64_le(sk.cm.width() as u64);
    buf.put_u64_le(sk.cm.seed());
    buf.put_u64_le(sk.cm.total());
    for &c in sk.cm.cells() {
        buf.put_u64_le(c);
    }
    // SpaceSaving candidates.
    buf.put_u64_le(sk.heavy_capacity);
    buf.put_u64_le(sk.heavy.len() as u64);
    for &(k, c, e) in &sk.heavy {
        buf.put_u64_le(k);
        buf.put_u64_le(c);
        buf.put_u64_le(e);
    }
    // Sign-projection cascades.
    buf.put_u64_le(sk.projections.seed());
    buf.put_u64_le(sk.projections.len() as u64);
    for cascade in &sk.projections.cascades() {
        put_cascade(buf, cascade);
    }
    buf.put_u64_le(sk.promotions);
    buf.put_u64_le(sk.demotions);
}

fn get_sketch(
    buf: &mut &[u8],
    ladder: &mut Option<Arc<[f64]>>,
) -> Result<SketchSnapshot, SnapshotCodecError> {
    if buf.remaining() < SKETCH_MAGIC.len() {
        return Err(SnapshotCodecError::Truncated);
    }
    if buf.get(..SKETCH_MAGIC.len()) != Some(SKETCH_MAGIC.as_slice()) {
        return Err(SnapshotCodecError::Corrupt("trailing bytes after streams"));
    }
    buf.advance(SKETCH_MAGIC.len());
    let sampler = get_sampler(buf)?;
    let summary = get_summary(buf, ladder)?;
    if buf.remaining() < 32 {
        return Err(SnapshotCodecError::Truncated);
    }
    let depth = usize_len(buf.get_u64_le(), "sketch depth")?;
    let width = usize_len(buf.get_u64_le(), "sketch width")?;
    let cm_seed = buf.get_u64_le();
    let cm_total = buf.get_u64_le();
    if depth == 0 || depth > MAX_DEPTH || !width.is_power_of_two() || width > (1 << 26) {
        return Err(SnapshotCodecError::Corrupt("count-min geometry"));
    }
    let n_cells = depth * width;
    if buf.remaining() < n_cells.saturating_mul(8) {
        return Err(SnapshotCodecError::Truncated);
    }
    let mut cells = Vec::with_capacity(n_cells);
    for _ in 0..n_cells {
        cells.push(buf.get_u64_le());
    }
    let cm = CountMinSketch::from_raw_parts(depth, width, cm_seed, cells, cm_total)
        .ok_or(SnapshotCodecError::Corrupt("count-min cells"))?;
    if buf.remaining() < 8 {
        return Err(SnapshotCodecError::Truncated);
    }
    let heavy_capacity = buf.get_u64_le();
    if heavy_capacity > (1 << 22) {
        return Err(SnapshotCodecError::Corrupt("candidate capacity"));
    }
    let n_heavy = get_len(buf, 24)?;
    if (n_heavy as u64) > heavy_capacity {
        return Err(SnapshotCodecError::Corrupt("candidate count"));
    }
    let mut heavy = Vec::with_capacity(n_heavy);
    let mut prev: Option<u64> = None;
    for _ in 0..n_heavy {
        let k = buf.get_u64_le();
        let c = buf.get_u64_le();
        let e = buf.get_u64_le();
        if prev.is_some_and(|p| k <= p) {
            return Err(SnapshotCodecError::Corrupt("candidate keys not ascending"));
        }
        prev = Some(k);
        heavy.push((k, c, e));
    }
    if buf.remaining() < 16 {
        return Err(SnapshotCodecError::Truncated);
    }
    let proj_seed = buf.get_u64_le();
    let n_proj = usize_len(buf.get_u64_le(), "projection count")?;
    if n_proj == 0 || n_proj > MAX_PROJECTIONS {
        return Err(SnapshotCodecError::Corrupt("projection count"));
    }
    let mut cascades = Vec::with_capacity(n_proj);
    for _ in 0..n_proj {
        cascades.push(get_cascade(buf)?);
    }
    let projections = ProjectionBank::from_raw_parts(proj_seed, cascades)
        .ok_or(SnapshotCodecError::Corrupt("projection bank"))?;
    if buf.remaining() < 16 {
        return Err(SnapshotCodecError::Truncated);
    }
    let promotions = buf.get_u64_le();
    let demotions = buf.get_u64_le();
    Ok(SketchSnapshot {
        sampler,
        summary,
        cm,
        heavy,
        heavy_capacity,
        projections,
        promotions,
        demotions,
    })
}

/// Serializes a snapshot into a freshly allocated buffer. A sketch
/// section, when present, follows the stream records as a `SKT1`
/// trailer; without one the bytes are exactly the pre-tier format.
pub fn encode_snapshot(snap: &EngineSnapshot) -> Bytes {
    let mut buf = Vec::with_capacity(snapshot_len(snap));
    put_snapshot(&mut buf, snap);
    Bytes::from(buf)
}

/// Exact length of [`encode_snapshot`]'s output.
pub(crate) fn snapshot_len(snap: &EngineSnapshot) -> usize {
    entries_len(snap.streams().iter(), snap.sketch())
}

/// Exact length of what [`put_entries`] appends for `streams` and
/// `sketch`.
pub(crate) fn entries_len<'a>(
    streams: impl Iterator<Item = &'a StreamEntry>,
    sketch: Option<&SketchSnapshot>,
) -> usize {
    let entries: usize = streams.map(|e| summary_entry_len(&e.summary)).sum();
    MAGIC.len() + 8 + entries + sketch.map_or(0, sketch_len)
}

/// Exact encoded size of one cumulative entry holding `s`.
fn summary_entry_len(s: &SummarySnapshot) -> usize {
    let (thresholds, _, _) = s.tail.raw_parts();
    encoded_entry_len(&s.hurst, s.reservoir.items.len(), thresholds.len())
}

/// Exact size of [`put_sketch`]'s section: its sampler and summary are
/// an entry without the key.
fn sketch_len(sk: &SketchSnapshot) -> usize {
    let cascades: usize = sk.projections.cascades().iter().map(cascade_len).sum();
    SKETCH_MAGIC.len() + summary_entry_len(&sk.summary) - 8
        + 32
        + 8 * sk.cm.cells().len()
        + 16
        + 24 * sk.heavy.len()
        + 16
        + cascades
        + 16
}

/// Appends [`encode_snapshot`]'s bytes to `buf`.
pub(crate) fn put_snapshot(buf: &mut Vec<u8>, snap: &EngineSnapshot) {
    put_entries(buf, snap.streams().iter(), snap.sketch());
}

/// Appends the snapshot bytes of `streams`, whose keys must strictly
/// ascend, and `sketch` to `buf` — [`encode_snapshot`] of the snapshot
/// they make, without building it.
pub(crate) fn put_entries<'a>(
    buf: &mut Vec<u8>,
    streams: impl ExactSizeIterator<Item = &'a StreamEntry>,
    sketch: Option<&SketchSnapshot>,
) {
    buf.put_slice(MAGIC);
    buf.put_u64_le(streams.len() as u64);
    for e in streams {
        buf.put_u64_le(e.key);
        put_sampler(buf, &e.sampler);
        put_summary(buf, &e.summary);
    }
    if let Some(sk) = sketch {
        put_sketch(buf, sk);
    }
}

/// Converts a decoded 64-bit count to an in-memory `usize` without a
/// silently-truncating `as` cast: a value that does not fit (a 32-bit
/// host fed a fabricated 64-bit length) is wire corruption, not a
/// length.
fn usize_len(v: u64, what: &'static str) -> Result<usize, SnapshotCodecError> {
    usize::try_from(v).map_err(|_| SnapshotCodecError::Corrupt(what))
}

fn get_len(buf: &mut &[u8], elem_bytes: usize) -> Result<usize, SnapshotCodecError> {
    if buf.remaining() < 8 {
        return Err(SnapshotCodecError::Truncated);
    }
    let n = usize_len(buf.get_u64_le(), "length field")?;
    if buf.remaining() < n.saturating_mul(elem_bytes) {
        return Err(SnapshotCodecError::Truncated);
    }
    Ok(n)
}

/// Deserializes a snapshot from a buffer produced by
/// [`encode_snapshot`].
///
/// An incomplete `SKT1` trailer decodes as
/// [`SnapshotCodecError::Truncated`] (so incremental readers wait for
/// the rest), while non-sketch trailing bytes are
/// [`SnapshotCodecError::Corrupt`]. Note the v1 format is not
/// self-delimiting: a reader that stops exactly at the last stream
/// record would accept a sketchless prefix — which is why it is only
/// read from whole buffers (files, length-prefixed frame payloads).
///
/// # Errors
///
/// Any structural problem yields a [`SnapshotCodecError`]; the function
/// never panics on untrusted input.
pub fn decode_snapshot(mut buf: &[u8]) -> Result<EngineSnapshot, SnapshotCodecError> {
    if buf.get(..MAGIC.len()) != Some(MAGIC.as_slice()) {
        return Err(SnapshotCodecError::BadMagic);
    }
    buf.advance(MAGIC.len());
    let n_streams = get_len(&mut buf, 8)?;
    let mut streams = Vec::with_capacity(n_streams.min(1 << 20));
    let mut prev_key: Option<u64> = None;
    let mut ladder = None;
    for _ in 0..n_streams {
        if buf.remaining() < 32 {
            return Err(SnapshotCodecError::Truncated);
        }
        let key = buf.get_u64_le();
        if let Some(p) = prev_key {
            if key <= p {
                return Err(SnapshotCodecError::Corrupt("stream keys not ascending"));
            }
        }
        prev_key = Some(key);
        let sampler = get_sampler(&mut buf)?;
        let summary = get_summary(&mut buf, &mut ladder)?;
        streams.push(StreamEntry {
            key,
            sampler,
            summary,
        });
    }
    let sketch = if buf.is_empty() {
        None
    } else {
        Some(get_sketch(&mut buf, &mut ladder)?)
    };
    if !buf.is_empty() {
        return Err(SnapshotCodecError::Corrupt("trailing bytes after sketch"));
    }
    // Keys strictly ascend (checked above): already canonical.
    Ok(EngineSnapshot::from_ascending(streams).with_sketch(sketch))
}

// ---- differential (wire v4 `DeltaDiff`) payloads ------------------
//
// Layout: `"SSDF"` magic, varint entry count, then per entry (keys
// strictly ascending):
//
// ```text
// key u64le
// sampler deltas        3 × varint (offered, kept, inspected)
// baseline fingerprint  6 × varint
// flags u8              bit0 moments, bit1 cascade, bit2 reservoir,
//                       bit3 tail
// [moments]             40 B RunningStats verbatim
// [cascade]             varint count_delta, varint new_levels (≤ 64),
//                       varint n_changed, then per changed level:
//                       varint index, 40 B stats, carry u8 (+ f64le)
// [reservoir]           varint seen_delta, varint new_len,
//                       varint n_slots, then per slot:
//                       varint index, f64le value
// [tail]                varint n_rungs, n_rungs × varint count delta,
//                       varint total_delta
// ```
//
// Monotone counters travel as unsigned LEB128 varints (a steady-state
// delta is small); floats travel verbatim — never delta-encoded — so
// reassembly is bit-exact. Decoding validates structure only (bounded
// allocations, ascending indices, known flags); whether a patch fits
// the receiver's baseline is the apply-time check that turns into a
// resync.

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut &[u8]) -> Result<u64, SnapshotCodecError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        if buf.remaining() < 1 {
            return Err(SnapshotCodecError::Truncated);
        }
        let byte = buf.get_u8();
        let bits = (byte & 0x7F) as u64;
        if shift == 63 && bits > 1 {
            return Err(SnapshotCodecError::Corrupt("varint overflow"));
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(SnapshotCodecError::Corrupt("varint too long"))
}

/// Encoded length of a varint, for exact size arithmetic.
fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7).max(1)
}

const FLAG_MOMENTS: u8 = 1;
const FLAG_CASCADE: u8 = 1 << 1;
const FLAG_RESERVOIR: u8 = 1 << 2;
const FLAG_TAIL: u8 = 1 << 3;

fn put_diff_entry(buf: &mut Vec<u8>, d: &StreamDiff) {
    buf.put_u64_le(d.key);
    let (off, kept, insp) = d.sampler_delta;
    put_varint(buf, off);
    put_varint(buf, kept);
    put_varint(buf, insp);
    let fp = &d.base;
    put_varint(buf, fp.moments_count);
    put_varint(buf, fp.reservoir_seen);
    put_varint(buf, fp.reservoir_len);
    put_varint(buf, fp.cascade_count);
    put_varint(buf, fp.cascade_levels);
    put_varint(buf, fp.tail_total);
    let p = &d.patch;
    let mut flags = 0u8;
    flags |= p.moments.map_or(0, |_| FLAG_MOMENTS);
    flags |= p.hurst.as_ref().map_or(0, |_| FLAG_CASCADE);
    flags |= p.reservoir.as_ref().map_or(0, |_| FLAG_RESERVOIR);
    flags |= p.tail.as_ref().map_or(0, |_| FLAG_TAIL);
    buf.put_u8(flags);
    if let Some(m) = &p.moments {
        put_running_stats(buf, m);
    }
    if let Some(c) = &p.hurst {
        put_varint(buf, c.count_delta);
        put_varint(buf, c.new_levels as u64);
        put_varint(buf, c.changed.len() as u64);
        for (idx, stats, carry) in &c.changed {
            put_varint(buf, *idx as u64);
            put_running_stats(buf, stats);
            match carry {
                Some(sum) => {
                    buf.put_u8(1);
                    buf.put_f64_le(*sum);
                }
                None => buf.put_u8(0),
            }
        }
    }
    if let Some(r) = &p.reservoir {
        put_varint(buf, r.seen_delta);
        put_varint(buf, r.new_len as u64);
        put_varint(buf, r.slots.len() as u64);
        for &(idx, v) in &r.slots {
            put_varint(buf, idx as u64);
            buf.put_f64_le(v);
        }
    }
    if let Some((deltas, total)) = &p.tail {
        put_varint(buf, deltas.len() as u64);
        for &c in deltas {
            put_varint(buf, c);
        }
        put_varint(buf, *total);
    }
}

fn get_diff_entry(buf: &mut &[u8]) -> Result<StreamDiff, SnapshotCodecError> {
    if buf.remaining() < 8 {
        return Err(SnapshotCodecError::Truncated);
    }
    let key = buf.get_u64_le();
    let sampler_delta = (get_varint(buf)?, get_varint(buf)?, get_varint(buf)?);
    let base = BaseFingerprint {
        moments_count: get_varint(buf)?,
        reservoir_seen: get_varint(buf)?,
        reservoir_len: get_varint(buf)?,
        cascade_count: get_varint(buf)?,
        cascade_levels: get_varint(buf)?,
        tail_total: get_varint(buf)?,
    };
    if buf.remaining() < 1 {
        return Err(SnapshotCodecError::Truncated);
    }
    let flags = buf.get_u8();
    if flags & !(FLAG_MOMENTS | FLAG_CASCADE | FLAG_RESERVOIR | FLAG_TAIL) != 0 {
        return Err(SnapshotCodecError::Corrupt("diff flags"));
    }
    let moments = if flags & FLAG_MOMENTS != 0 {
        Some(get_running_stats(buf)?)
    } else {
        None
    };
    let hurst = if flags & FLAG_CASCADE != 0 {
        let count_delta = get_varint(buf)?;
        let new_levels = usize_len(get_varint(buf)?, "cascade levels")?;
        if new_levels > 64 {
            return Err(SnapshotCodecError::Corrupt("diff level count"));
        }
        let n_changed = usize_len(get_varint(buf)?, "changed levels")?;
        if n_changed > new_levels {
            return Err(SnapshotCodecError::Corrupt("diff changed levels"));
        }
        let mut changed = Vec::with_capacity(n_changed);
        let mut prev: Option<usize> = None;
        for _ in 0..n_changed {
            let idx = usize_len(get_varint(buf)?, "patch index")?;
            if idx >= new_levels || prev.is_some_and(|q| idx <= q) {
                return Err(SnapshotCodecError::Corrupt("diff level index"));
            }
            prev = Some(idx);
            let stats = get_running_stats(buf)?;
            if buf.remaining() < 1 {
                return Err(SnapshotCodecError::Truncated);
            }
            let carry = match buf.get_u8() {
                0 => None,
                1 => {
                    if buf.remaining() < 8 {
                        return Err(SnapshotCodecError::Truncated);
                    }
                    Some(buf.get_f64_le())
                }
                _ => return Err(SnapshotCodecError::Corrupt("diff carry flag")),
            };
            changed.push((idx, stats, carry));
        }
        Some(CascadePatch {
            count_delta,
            new_levels,
            changed,
        })
    } else {
        None
    };
    let reservoir = if flags & FLAG_RESERVOIR != 0 {
        let seen_delta = get_varint(buf)?;
        let new_len = usize_len(get_varint(buf)?, "reservoir len")?;
        let n_slots = usize_len(get_varint(buf)?, "patched slots")?;
        // Each slot is ≥ 9 encoded bytes: bounds the allocation by
        // what the buffer can actually hold.
        if n_slots > new_len || buf.remaining() < n_slots.saturating_mul(9) {
            return Err(if buf.remaining() < n_slots.saturating_mul(9) {
                SnapshotCodecError::Truncated
            } else {
                SnapshotCodecError::Corrupt("diff slot count")
            });
        }
        let mut slots = Vec::with_capacity(n_slots);
        let mut prev: Option<usize> = None;
        for _ in 0..n_slots {
            let idx = usize_len(get_varint(buf)?, "patch index")?;
            if idx >= new_len || prev.is_some_and(|q| idx <= q) {
                return Err(SnapshotCodecError::Corrupt("diff slot index"));
            }
            prev = Some(idx);
            if buf.remaining() < 8 {
                return Err(SnapshotCodecError::Truncated);
            }
            slots.push((idx, buf.get_f64_le()));
        }
        Some(ReservoirPatch {
            seen_delta,
            new_len,
            slots,
        })
    } else {
        None
    };
    let tail = if flags & FLAG_TAIL != 0 {
        let n_rungs = usize_len(get_varint(buf)?, "tail rungs")?;
        // Each delta is ≥ 1 encoded byte.
        if buf.remaining() < n_rungs {
            return Err(SnapshotCodecError::Truncated);
        }
        let mut deltas = Vec::with_capacity(n_rungs);
        for _ in 0..n_rungs {
            deltas.push(get_varint(buf)?);
        }
        Some((deltas, get_varint(buf)?))
    } else {
        None
    };
    Ok(StreamDiff {
        key,
        sampler_delta,
        base,
        patch: SummaryPatch {
            moments,
            hurst,
            reservoir,
            tail,
        },
    })
}

/// Appends a `DeltaDiff` frame payload to `buf`.
pub(crate) fn put_diff_payload(buf: &mut Vec<u8>, diffs: &[StreamDiff]) {
    buf.put_slice(DIFF_MAGIC);
    put_varint(buf, diffs.len() as u64);
    for d in diffs {
        put_diff_entry(buf, d);
    }
}

/// Exact length of the `DeltaDiff` payload of `n` diffs whose
/// [`encoded_diff_len`]s sum to `entries_len`.
pub(crate) fn diff_payload_len(n: usize, entries_len: usize) -> usize {
    DIFF_MAGIC.len() + varint_len(n as u64) + entries_len
}

/// Deserializes a `DeltaDiff` frame payload. Structural validation
/// only — never panics on untrusted input; baseline fit is checked at
/// apply time.
///
/// # Errors
///
/// Any structural problem yields a [`SnapshotCodecError`].
pub(crate) fn decode_diff_payload(mut buf: &[u8]) -> Result<Vec<StreamDiff>, SnapshotCodecError> {
    if buf.get(..DIFF_MAGIC.len()) != Some(DIFF_MAGIC.as_slice()) {
        return Err(SnapshotCodecError::BadMagic);
    }
    buf.advance(DIFF_MAGIC.len());
    let n = usize_len(get_varint(&mut buf)?, "diff entries")?;
    // Each entry is ≥ 18 encoded bytes (key + 10 varints + flags).
    if buf.remaining() < n.saturating_mul(18) {
        return Err(SnapshotCodecError::Truncated);
    }
    let mut diffs = Vec::with_capacity(n);
    let mut prev: Option<u64> = None;
    for _ in 0..n {
        let d = get_diff_entry(&mut buf)?;
        if prev.is_some_and(|p| d.key <= p) {
            return Err(SnapshotCodecError::Corrupt("diff keys not ascending"));
        }
        prev = Some(d.key);
        diffs.push(d);
    }
    if !buf.is_empty() {
        return Err(SnapshotCodecError::Corrupt("trailing bytes after diffs"));
    }
    Ok(diffs)
}

/// Exact encoded size of one diff entry — what the collector weighs
/// against [`encoded_entry_len`] when choosing diff-vs-full per key,
/// and sizes its `DeltaDiff` frames by.
pub(crate) fn encoded_diff_len(d: &StreamDiff) -> usize {
    let (off, kept, insp) = d.sampler_delta;
    let fp = &d.base;
    let mut n = 8
        + varint_len(off)
        + varint_len(kept)
        + varint_len(insp)
        + varint_len(fp.moments_count)
        + varint_len(fp.reservoir_seen)
        + varint_len(fp.reservoir_len)
        + varint_len(fp.cascade_count)
        + varint_len(fp.cascade_levels)
        + varint_len(fp.tail_total)
        + 1;
    let p = &d.patch;
    if p.moments.is_some() {
        n += 40;
    }
    if let Some(c) = &p.hurst {
        n += varint_len(c.count_delta)
            + varint_len(c.new_levels as u64)
            + varint_len(c.changed.len() as u64);
        for (idx, _, carry) in &c.changed {
            n += varint_len(*idx as u64) + 40 + 1 + carry.map_or(0, |_| 8);
        }
    }
    if let Some(r) = &p.reservoir {
        n += varint_len(r.seen_delta)
            + varint_len(r.new_len as u64)
            + varint_len(r.slots.len() as u64);
        for &(idx, _) in &r.slots {
            n += varint_len(idx as u64) + 8;
        }
    }
    if let Some((deltas, total)) = &p.tail {
        n += varint_len(deltas.len() as u64) + varint_len(*total);
        for &c in deltas {
            n += varint_len(c);
        }
    }
    n
}

/// Exact encoded size of one cumulative entry (key, sampler,
/// summary) whose summary holds `hurst`, `items` retained reservoir
/// samples and a tail ladder of `rungs` thresholds.
pub(crate) fn encoded_entry_len(hurst: &OnlineVarianceTime, items: usize, rungs: usize) -> usize {
    let reservoir = 32 + 8 * items;
    let tail = 16 + 16 * rungs;
    8 + 24 + 40 + cascade_len(hurst) + reservoir + tail
}

/// Exact size of [`put_cascade`]'s bytes for `cascade`.
fn cascade_len(cascade: &OnlineVarianceTime) -> usize {
    let (_, levels) = cascade.raw_parts();
    let carries = levels.iter().filter(|(_, carry)| carry.is_some()).count();
    16 + levels.len() * 41 + carries * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MonitorConfig, MonitorEngine, SamplerSpec};

    fn sample_snapshot() -> EngineSnapshot {
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
        for i in 0..30_000u64 {
            let key = i % 23;
            let v = if (i / 41) % 9 == 0 { 150.0 } else { 2.0 };
            engine.offer(key, v);
        }
        engine.snapshot()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let snap = sample_snapshot();
        let encoded = encode_snapshot(&snap);
        let back = decode_snapshot(&encoded).expect("decode");
        assert_eq!(snap, back);
        // Derived statistics survive too.
        assert_eq!(
            snap.aggregate().hurst_estimate(),
            back.aggregate().hurst_estimate()
        );
    }

    #[test]
    fn decoded_entries_share_one_ladder() {
        use crate::summary::TailCounter;
        let snap = sample_snapshot();
        assert!(snap.stream_count() > 2);
        // An engine's streams count tails on its one ladder.
        let first = snap.streams()[0].summary.tail.thresholds();
        for e in snap.streams() {
            assert!(Arc::ptr_eq(e.summary.tail.thresholds(), first));
        }
        let encoded = encode_snapshot(&snap);
        let back = decode_snapshot(&encoded).expect("decode");
        let ladder = back.streams()[0].summary.tail.thresholds();
        assert!(!Arc::ptr_eq(ladder, first), "decoded into a fresh ladder");
        for e in back.streams() {
            assert!(Arc::ptr_eq(e.summary.tail.thresholds(), ladder));
        }
        assert_eq!(encode_snapshot(&back), encoded);
        // A ladder that differs from the one before it gets its own
        // allocation, and the next equal one shares it.
        let mut streams = back.into_streams();
        let other = TailCounter::new(&[1.0, 2.0]);
        streams[1].summary.tail = TailCounter::from_raw_parts(vec![1.0, 2.0], vec![0, 0], 0);
        streams[2].summary.tail = other;
        let mixed = encode_snapshot(&EngineSnapshot::from_streams(streams));
        let back = decode_snapshot(&mixed).expect("decode");
        let ladders: Vec<&Arc<[f64]>> = back
            .streams()
            .iter()
            .map(|e| e.summary.tail.thresholds())
            .collect();
        assert!(!Arc::ptr_eq(ladders[0], ladders[1]));
        assert!(Arc::ptr_eq(ladders[1], ladders[2]));
        assert!(!Arc::ptr_eq(ladders[2], ladders[3]));
        assert_eq!(&ladders[3][..], &ladders[0][..]);
        assert_eq!(encode_snapshot(&back), mixed);
    }

    #[test]
    fn round_trip_empty_snapshot() {
        let snap = EngineSnapshot::default();
        assert_eq!(decode_snapshot(&encode_snapshot(&snap)).unwrap(), snap);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            decode_snapshot(b"NOTASNAP"),
            Err(SnapshotCodecError::BadMagic)
        );
        assert_eq!(decode_snapshot(b""), Err(SnapshotCodecError::BadMagic));
    }

    #[test]
    fn truncation_rejected_at_every_boundary() {
        let encoded = encode_snapshot(&sample_snapshot());
        for cut in [
            MAGIC.len(),
            MAGIC.len() + 4,
            MAGIC.len() + 12,
            encoded.len() / 3,
            encoded.len() / 2,
            encoded.len() - 1,
        ] {
            assert!(
                decode_snapshot(&encoded[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn unsorted_keys_rejected() {
        let snap = sample_snapshot();
        let mut raw = encode_snapshot(&snap).to_vec();
        // Stream records start after magic + count; overwrite the first
        // key with a large value so the second is out of order.
        let off = MAGIC.len() + 8;
        raw[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&raw),
            Err(SnapshotCodecError::Corrupt(_)) | Err(SnapshotCodecError::Truncated)
        ));
    }

    fn tiered_snapshot() -> EngineSnapshot {
        let mut engine = MonitorEngine::new(
            MonitorConfig::default()
                .sampler(SamplerSpec::Systematic { interval: 3 })
                .shards(2)
                .seed(11)
                .max_exact_keys(8)
                .sketch_bytes(1 << 14)
                .promote_after(64),
        );
        for i in 0..60_000u64 {
            let key = i % 500; // far past the exact cap
            let v = if key < 4 { 400.0 } else { (i % 13) as f64 };
            engine.offer(key, v);
        }
        engine.full_snapshot()
    }

    #[test]
    fn sketch_section_round_trips_bit_exact() {
        let snap = tiered_snapshot();
        let sk = snap.sketch().expect("tiered engine carries a sketch");
        assert!(sk.sampler.offered > 0, "tail was actually sketched");
        let back = decode_snapshot(&encode_snapshot(&snap)).expect("decode");
        assert_eq!(snap, back);
        assert_eq!(
            snap.sketch().unwrap().cm.total(),
            back.sketch().unwrap().cm.total()
        );
    }

    #[test]
    fn sketch_truncation_yields_truncated() {
        let snap = tiered_snapshot();
        let sketchless = encode_snapshot(&snap.clone().with_sketch(None)).len();
        let encoded = encode_snapshot(&snap);
        assert!(encoded.len() > sketchless + 4);
        // Cut everywhere inside the SKT1 section (past its magic): a
        // reader of a partial buffer must see Truncated, never Corrupt,
        // so it knows to wait for the rest.
        for cut in (sketchless + 1..encoded.len()).step_by(7) {
            assert_eq!(
                decode_snapshot(&encoded[..cut]),
                Err(SnapshotCodecError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn garbage_after_streams_rejected() {
        let snap = sample_snapshot();
        let mut raw = encode_snapshot(&snap).to_vec();
        raw.extend_from_slice(b"JUNKJUNK");
        assert!(matches!(
            decode_snapshot(&raw),
            Err(SnapshotCodecError::Corrupt(_))
        ));
        // Garbage *after a valid sketch* is rejected too.
        let mut raw = encode_snapshot(&tiered_snapshot()).to_vec();
        raw.extend_from_slice(b"JUNKJUNK");
        assert!(decode_snapshot(&raw).is_err());
    }

    #[test]
    fn merged_snapshots_round_trip() {
        let a = sample_snapshot();
        let mut engine = MonitorEngine::new(MonitorConfig::default().seed(9));
        for i in 0..5000u64 {
            engine.offer(1000 + (i % 5), (i % 100) as f64);
        }
        let merged = a.merge(engine.snapshot());
        let back = decode_snapshot(&encode_snapshot(&merged)).expect("decode");
        assert_eq!(merged, back);
    }

    fn encode_diff_payload(diffs: &[StreamDiff]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_diff_payload(&mut buf, diffs);
        buf
    }

    #[test]
    fn snapshot_len_is_exact() {
        let sample = sample_snapshot();
        for snap in [
            EngineSnapshot::default(),
            sample.clone(),
            tiered_snapshot(),
            EngineSnapshot::default().with_sketch(tiered_snapshot().sketch().cloned()),
        ] {
            assert_eq!(encode_snapshot(&snap).len(), snapshot_len(&snap));
        }
        let evicted = &sample.streams()[1..4];
        let mut buf = Vec::new();
        put_entries(&mut buf, evicted.iter(), None);
        assert_eq!(buf.len(), entries_len(evicted.iter(), None));
    }

    #[test]
    fn encoded_entry_len_is_exact() {
        for e in sample_snapshot().streams() {
            let one = EngineSnapshot::from_streams(vec![e.clone()]);
            let s = &e.summary;
            let (thresholds, _, _) = s.tail.raw_parts();
            let predicted = encoded_entry_len(&s.hurst, s.reservoir.items.len(), thresholds.len());
            assert_eq!(encode_snapshot(&one).len(), MAGIC.len() + 8 + predicted);
        }
    }

    /// The diffs between two growth stages of `sample_snapshot`'s
    /// engine — one per stream, all sections exercised.
    fn sample_diffs() -> Vec<StreamDiff> {
        let mk = |n: u64| {
            let mut engine = MonitorEngine::new(
                MonitorConfig::default()
                    .sampler(SamplerSpec::Systematic { interval: 2 })
                    .seed(5),
            );
            for i in 0..n {
                let key = i % 23;
                let v = if (i / 41) % 9 == 0 { 150.0 } else { 2.0 };
                engine.offer(key, v);
            }
            engine.snapshot().into_streams()
        };
        let base = mk(25_000);
        let new = mk(30_000);
        base.iter()
            .zip(&new)
            .map(|(b, n)| crate::diff::diff_entry(b, n).expect("grown entries diff"))
            .collect()
    }

    #[test]
    fn diff_payload_round_trips_bit_exact() {
        let diffs = sample_diffs();
        assert!(!diffs.is_empty());
        let encoded = encode_diff_payload(&diffs);
        assert_eq!(decode_diff_payload(&encoded).expect("decode"), diffs);
        // The empty payload round-trips too.
        let empty = encode_diff_payload(&[]);
        assert_eq!(decode_diff_payload(&empty).unwrap(), Vec::new());
    }

    #[test]
    fn encoded_diff_len_is_exact() {
        let diffs = sample_diffs();
        let encoded = encode_diff_payload(&diffs);
        let predicted: usize = DIFF_MAGIC.len()
            + varint_len(diffs.len() as u64)
            + diffs.iter().map(encoded_diff_len).sum::<usize>();
        assert_eq!(encoded.len(), predicted);
        let entries_len = diffs.iter().map(encoded_diff_len).sum();
        assert_eq!(encoded.len(), diff_payload_len(diffs.len(), entries_len));
    }

    #[test]
    fn diff_payload_truncation_rejected_at_every_cut() {
        let encoded = encode_diff_payload(&sample_diffs());
        for cut in 0..encoded.len() {
            assert!(
                decode_diff_payload(&encoded[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn diff_payload_trailing_garbage_rejected() {
        let mut raw = encode_diff_payload(&sample_diffs());
        raw.push(0);
        assert!(decode_diff_payload(&raw).is_err());
    }

    #[test]
    fn diff_payload_keys_must_ascend() {
        let mut diffs = sample_diffs();
        diffs.swap(0, 1);
        let encoded = encode_diff_payload(&diffs);
        assert!(matches!(
            decode_diff_payload(&encoded),
            Err(SnapshotCodecError::Corrupt(_))
        ));
    }
}
