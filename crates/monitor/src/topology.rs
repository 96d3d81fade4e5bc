//! Topology layer: N collector processes streaming frames to one
//! aggregator whose merged state is bit-for-bit what a single unsharded
//! engine would hold.
//!
//! A [`Collector`] wraps a [`MonitorEngine`] and speaks the sequenced
//! [`crate::wire`] protocol: it *seals* its state into numbered frames
//! held in a replay window until the aggregator acks them, and a
//! transport writer ([`crate::retry::SequencedSender`], or anything
//! else that ships [`Collector::unsent_window`]) owns the socket. Its
//! engine's shards list each stream on its first point since the last
//! seal, so a seal visits only the keys touched since the previous one
//! and ships each as a `DeltaDiff` patch against the last shipped
//! entry where that is smaller, else as a cumulative `Delta`, plus
//! `Evicted` frames for streams its lifecycle layer retired.
//!
//! An [`Aggregator`] consumes frames from many collectors. Its state is
//! *per collector*: a live view (replaced by `Delta`/`FullSnapshot`
//! entries — they are cumulative — and patched in place by
//! `DeltaDiff`s) and a retired store (folded from `Evicted` finals).
//! Because each collector's frames are ordered within its own session
//! and state is never shared across collectors, the aggregate is
//! **independent of how sessions interleave** — feed the connections
//! concurrently or one after another, the final snapshot is the same
//! bits. Every session opens with a `Hello`: a peer that sends data
//! first, or speaks any wire version but v4, fails without touching
//! aggregator state.
//!
//! A tiered collector ([`crate::TierConfig`]) additionally ships its
//! cumulative sketch-tier image on the last `Delta` of every seal;
//! the aggregator holds the latest image per collector (replace
//! semantics, like the live view) and folds them into its assembled
//! snapshot. The aggregator can also tier *itself*:
//! [`Aggregator::max_exact_keys`] caps each collector's retired store,
//! demoting the smallest finals into a per-collector sketch.
//!
//! ## The wire-boundary merge-equivalence guarantee
//!
//! For collectors watching disjoint key sets (the deployment shape: a
//! collector per link/tap), [`Aggregator::snapshot`] equals the
//! snapshot of one engine that ingested every collector's points —
//! extending the in-process N ∈ {1, 2, 8} shard pins across the wire.
//! The `topology_wire` integration tests pin this bit-for-bit over both
//! in-memory pipes and Unix sockets.

use crate::codec::encoded_diff_len;
use crate::diff::{apply_diff, StreamDiff};
use crate::engine::{EngineSnapshot, MonitorConfig, MonitorEngine, StreamEntry};
use crate::sketch::SketchSnapshot;
use crate::wire::{
    encode_diff_frame_seq, encode_frame, encode_frame_seq, Frame, FrameDecoder, HelloResume,
    WireError, WIRE_VERSION,
};
use bytes::Bytes;
use sst_core::stream::StreamDecision;
use sst_core::summary::{Compactable, MergeableSummary};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::{Mutex, PoisonError};

/// A [`Collector`]'s session state: the unacked replay window, the
/// eviction log behind resumable sessions, and whether differential
/// flushes are still on. What each live key last shipped lives with
/// its stream in the engine, not here.
struct SeqState {
    /// Sequence number the next sealed data frame gets.
    next_seq: u64,
    /// Highest sequence the aggregator has acknowledged.
    last_acked: Option<u64>,
    /// Encoded, unacked data frames, oldest first — replayed verbatim
    /// after a reconnect.
    window: VecDeque<(u64, Bytes)>,
    /// Every evicted final shipped this session, tagged with the seq
    /// of the frame that last carried it. `Evicted` finals *merge* at
    /// the aggregator, so a resync must re-send exactly the tail the
    /// aggregator is missing — never blindly re-send everything. Kept
    /// for the session lifetime: that is what lets a `Resync{from: 0}`
    /// after a full aggregator restart rebuild byte-identical totals.
    evicted_log: Vec<(u64, StreamEntry)>,
    /// A `Bye` has been sealed; a resync must re-seal it after the
    /// re-baseline frames.
    bye_sealed: bool,
    /// `Resync` round-trips served this session. Each one says the
    /// aggregator's live view diverged from what this collector
    /// shipped (lost frames, a restart, or server-side compaction
    /// rewriting entries under us).
    resyncs: u32,
    /// Ship differential frames where they are smaller. Cleared past
    /// [`RESYNC_DIFF_LIMIT`]: against a peer that keeps diverging
    /// (e.g. an aggregator compacting its live entries), diffs only
    /// buy resync storms — cumulative `Delta`s are then strictly
    /// better.
    ///
    /// While it is set, every live stream that has shipped keeps the
    /// record of its last ship — what the aggregator's live view holds
    /// for it under the seq watermark, and the base its next
    /// `DeltaDiff` is computed against. The collector keeps no copy of
    /// the shipped entries.
    diff_enabled: bool,
}

impl SeqState {
    fn new() -> Self {
        SeqState {
            next_seq: 0,
            last_acked: None,
            window: VecDeque::new(),
            evicted_log: Vec::new(),
            bye_sealed: false,
            resyncs: 0,
            diff_enabled: true,
        }
    }

    fn seal(&mut self, frame: &Frame) -> u64 {
        self.seal_with(|seq| encode_frame_seq(seq, frame))
    }

    /// Seals the frame `encode` writes under the next seq.
    fn seal_with(&mut self, encode: impl FnOnce(u64) -> Bytes) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.window.push_back((seq, encode(seq)));
        seq
    }

    /// Seals `diffs` as `DeltaDiff` frames of about
    /// [`TARGET_FRAME_BYTES`] each, `lens[i]` being the encoded length
    /// of `diffs[i]`.
    fn seal_diffs(&mut self, diffs: &[StreamDiff], lens: &[usize]) {
        let mut at = 0;
        for n in chunk_lens(lens.iter().copied()) {
            let (chunk, bytes) = (&diffs[at..at + n], lens[at..at + n].iter().sum());
            self.seal_with(|seq| encode_diff_frame_seq(seq, chunk, bytes));
            at += n;
        }
    }

    /// Seals `finals` as `Evicted` frames and moves each final into
    /// the eviction log, tagged with its frame's seq.
    fn seal_evicted(&mut self, finals: Vec<StreamEntry>) {
        for chunk in frame_chunks(finals, entry_frame_bytes) {
            let frame = Frame::Evicted(chunk);
            let seq = self.seal(&frame);
            if let Frame::Evicted(chunk) = frame {
                self.evicted_log.extend(chunk.into_iter().map(|e| (seq, e)));
            }
        }
    }
}

/// A monitoring engine that seals its state into sequenced wire frames
/// (protocol v4: seq/ack replay window, resync, differential flushes).
pub struct Collector {
    id: u64,
    /// Tracks dirty keys: its shards list each stream on its first
    /// point since the last seal.
    engine: MonitorEngine,
    seq: SeqState,
}

/// Target payload per `Delta`/`Evicted` frame, in (estimated) bytes —
/// 16× below [`crate::wire::MAX_FRAME_BYTES`], so even generous
/// estimate error can't reach the wire cap whatever
/// `reservoir_capacity` or ladder the config chose. Splitting is free
/// because entries are cumulative (`Delta`) or per-key finals
/// (`Evicted`).
const TARGET_FRAME_BYTES: usize = 16 << 20;

/// Resyncs a session tolerates before concluding the peer can't hold
/// its baseline (most likely a server-side `compact_budget` rewriting
/// live entries between flushes) and dropping back to cumulative
/// `Delta` frames for the rest of the session. One resync is normal
/// after a fault or aggregator restart; repeated ones mean every
/// differential flush costs a full re-baseline — strictly worse than
/// never diffing.
const RESYNC_DIFF_LIMIT: u32 = 2;

/// Estimated frame footprint of a `Delta`/`Evicted` entry.
fn entry_frame_bytes(e: &StreamEntry) -> usize {
    64 + e.summary.estimated_bytes()
}

/// The item counts of consecutive chunks of items of the given
/// `sizes`, split greedily at [`TARGET_FRAME_BYTES`] (always at least
/// one item per chunk).
fn chunk_lens(sizes: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut lens = Vec::new();
    let (mut bytes, mut n) = (0usize, 0usize);
    for b in sizes {
        if n > 0 && bytes + b > TARGET_FRAME_BYTES {
            lens.push(n);
            (bytes, n) = (0, 0);
        }
        bytes += b;
        n += 1;
    }
    if n > 0 {
        lens.push(n);
    }
    lens
}

/// Splits `items` into owned chunks at [`TARGET_FRAME_BYTES`]
/// boundaries of `size` (see [`chunk_lens`]), moving every item once;
/// a single chunk is `items` itself.
fn frame_chunks<T>(mut items: Vec<T>, size: impl Fn(&T) -> usize) -> Vec<Vec<T>> {
    // Chunk lengths first, so the splits below move each item once.
    let lens = chunk_lens(items.iter().map(size));
    let Some((_, tail)) = lens.split_first() else {
        return Vec::new();
    };
    // Split from the back so each `split_off` moves only its chunk.
    let mut chunks = Vec::with_capacity(lens.len());
    for &n in tail.iter().rev() {
        chunks.push(items.split_off(items.len() - n));
    }
    chunks.push(items);
    chunks.reverse();
    chunks
}

/// The `Delta` frames of one seal: `entries` chunked at
/// [`TARGET_FRAME_BYTES`], with a tiered engine's cumulative sketch
/// image riding the *last* one (replace semantics at the aggregator) —
/// on an empty `Delta` when no entry ships cumulatively.
fn delta_frames(entries: Vec<StreamEntry>, mut sketch: Option<SketchSnapshot>) -> Vec<Frame> {
    let chunks = frame_chunks(entries, entry_frame_bytes);
    let last = chunks.len().saturating_sub(1);
    let mut frames: Vec<Frame> = chunks
        .into_iter()
        .enumerate()
        .map(|(i, chunk)| {
            let sk = if i == last { sketch.take() } else { None };
            Frame::Delta(EngineSnapshot::from_streams(chunk).with_sketch(sk))
        })
        .collect();
    if let Some(sk) = sketch {
        frames.push(Frame::Delta(
            EngineSnapshot::from_streams(Vec::new()).with_sketch(Some(sk)),
        ));
    }
    frames
}

impl Collector {
    /// Wraps an engine configuration as a collector with the given id.
    /// Data frames carry sequence numbers, unacked frames are retained
    /// in a replay window, and evicted finals are logged for the
    /// session lifetime so any suffix of the session can be resynced —
    /// the price of surviving aggregator restarts byte-identically.
    ///
    /// The engine's `retain_evicted` is forced **off**: evicted finals
    /// leave through `Evicted` frames and the aggregator owns them —
    /// holding a second copy here would defeat the memory bound. For
    /// the same reason the collector keeps no copy of the live entries
    /// it shipped: the engine lists the keys touched between seals, and
    /// each shipped stream carries a record of its last ship from which
    /// the next seal builds its diff.
    ///
    /// # Panics
    ///
    /// As [`MonitorEngine::new`] (invalid sampler spec or shard count).
    pub fn new_sequenced(id: u64, config: MonitorConfig) -> Self {
        let mut engine = MonitorEngine::new(config.retain_evicted(false));
        engine.track_dirty();
        Collector {
            id,
            engine,
            seq: SeqState::new(),
        }
    }

    /// `Resync` round-trips this collector has served.
    pub fn resyncs(&self) -> u32 {
        self.seq.resyncs
    }

    /// The collector id (sent in `Hello`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The wrapped engine (snapshots, lifecycle stats).
    pub fn engine(&self) -> &MonitorEngine {
        &self.engine
    }

    /// Offers one point of stream `key`. The stream's first point
    /// since the last seal lists its key on its shard for the next
    /// seal; later points cost one branch on state the shard already
    /// holds.
    pub fn offer(&mut self, key: u64, value: f64) -> StreamDecision {
        self.engine.offer(key, value)
    }

    /// Offers a batch of keyed points, tracking touched keys as
    /// [`Collector::offer`] does — per stream, not per point, on the
    /// serial, parallel and tiered ingest paths alike.
    pub fn offer_batch(&mut self, points: &[(u64, f64)]) {
        self.engine.offer_batch(points);
    }

    /// Seals everything pending into the replay window as sequenced
    /// frames: `Evicted` frames for streams retired since the last
    /// seal (each final also tagged into the eviction log), then
    /// `DeltaDiff` frames for dirty keys whose differential encoding
    /// beats the cumulative one, then `Delta` frames for the rest.
    /// Nothing is written — a transport writer ships
    /// [`Collector::unsent_window`] and trims it via
    /// [`Collector::ack`].
    ///
    /// A dirty entry ships as a diff only when all of: diffing is
    /// still on (it turns off for the session after more than two
    /// resyncs, `RESYNC_DIFF_LIMIT`), the stream has shipped before
    /// (and was not evicted since — an evicted stream's state, ship
    /// record included, is gone, and the aggregator drops the key from
    /// its live view), the pair is structurally diffable (counters only
    /// grew, reservoir/cascade never shrank), and the encoded diff is
    /// strictly smaller than the encoded cumulative entry. Anything
    /// else falls back to the cumulative `Delta` path — correctness
    /// never depends on diffing.
    ///
    /// The seal costs what changed, not what is held: each dirty
    /// stream builds its diff from its ship record — the counters it
    /// last shipped and the journal of reservoir slots and cascade
    /// levels rewritten since (see [`crate::diff`]) — then restarts
    /// the record at its current state. A snapshot is built only for
    /// an entry that ships cumulatively, and each diff's encoded length
    /// is computed once, for the size rule, the frame split and the
    /// frame buffer alike.
    pub fn seal_flush(&mut self) {
        let evicted = self.engine.drain_evicted();
        let sketch = self.engine.sketch_snapshot();
        let budget = self.engine.config().lifecycle.compact_budget;
        let st = &mut self.seq;
        st.seal_evicted(evicted);
        let diff_enabled = st.diff_enabled;
        let (mut diffs, mut lens, mut full) = (Vec::new(), Vec::new(), Vec::new());
        self.engine.for_each_dirty(|key, state| {
            if !diff_enabled {
                full.push(state.entry(key));
                return;
            }
            let diff = state
                .reship(key, budget)
                .map(|d| (encoded_diff_len(&d), d))
                .filter(|(len, _)| *len < state.summary.encoded_entry_len());
            match diff {
                Some((len, d)) => {
                    lens.push(len);
                    diffs.push(d);
                }
                None => full.push(state.entry(key)),
            }
        });
        self.engine.clear_dirty();
        st.seal_diffs(&diffs, &lens);
        // The cumulative sketch image rides the last sealed Delta —
        // never a DeltaDiff, whose payload is per-stream only.
        for frame in delta_frames(full, sketch) {
            st.seal(&frame);
        }
    }

    /// Seals pending state, then a `Bye`. Idempotent across resyncs:
    /// [`Collector::handle_resync`] re-seals the `Bye` after the
    /// re-baseline frames.
    pub fn seal_finish(&mut self) {
        self.seal_flush();
        self.seq.seal(&Frame::Bye);
        self.seq.bye_sealed = true;
    }

    /// The `Hello` opening a connection: `Fresh` for a never-connected
    /// session, otherwise `Replay` from the oldest unacked frame (the
    /// aggregator skips any seq it already applied).
    pub fn hello(&self) -> Frame {
        let st = &self.seq;
        let resume = if st.next_seq == 0 && st.last_acked.is_none() {
            HelloResume::Fresh { first_seq: 0 }
        } else {
            HelloResume::Replay {
                first_seq: st.window.front().map_or(st.next_seq, |&(s, _)| s),
            }
        };
        Frame::Hello {
            protocol: WIRE_VERSION,
            collector_id: self.id,
            resume: Some(resume),
        }
    }

    /// Records an aggregator `Ack {through_seq}`: acked frames leave
    /// the replay window.
    pub fn ack(&mut self, through_seq: u64) {
        let st = &mut self.seq;
        while st.window.front().is_some_and(|&(s, _)| s <= through_seq) {
            st.window.pop_front();
        }
        if st.last_acked.is_none_or(|a| a < through_seq) {
            st.last_acked = Some(through_seq);
        }
    }

    /// Answers an aggregator `Resync {from_seq}`: the window is
    /// superseded wholesale by a re-baseline — the evicted finals the
    /// aggregator is missing (log entries tagged at or past
    /// `from_seq`, re-sealed under fresh seqs), then a `FullSnapshot`
    /// of the entire live engine state, then the `Bye` again if one
    /// was already sealed. Returns the `Resync`-mode `Hello` to send
    /// before the rebuilt window.
    ///
    /// The `FullSnapshot` ships every live stream, so each one's ship
    /// record restarts at its current state — or is dropped, with its
    /// journal, once diffing has stopped for the session.
    pub fn handle_resync(&mut self, from_seq: u64) -> Frame {
        // Everything pending joins the re-baseline: dirty keys are in
        // the full snapshot, pending evictions seal first.
        let pending = self.engine.drain_evicted();
        let snap = self.engine.snapshot();
        self.engine.clear_dirty();
        let st = &mut self.seq;
        st.window.clear();
        let first_seq = st.next_seq;
        // Re-send the evicted tail the aggregator is missing, fresh
        // seqs, and re-tag the log so a *second* resync stays exact.
        let mut resend: Vec<StreamEntry> = Vec::new();
        let mut kept: Vec<(u64, StreamEntry)> = Vec::new();
        for (tag, entry) in std::mem::take(&mut st.evicted_log) {
            if tag >= from_seq {
                resend.push(entry);
            } else {
                kept.push((tag, entry));
            }
        }
        resend.extend(pending);
        st.evicted_log = kept;
        st.seal_evicted(resend);
        // The FullSnapshot re-baselines both sides at once: the
        // aggregator's live view becomes exactly these entries, so
        // they are what future diffs must be computed against. Repeated
        // resyncs mean the peer can't hold a baseline (most likely
        // server-side compaction) — give up on diffing for the session.
        st.resyncs += 1;
        if st.resyncs > RESYNC_DIFF_LIMIT {
            st.diff_enabled = false;
        }
        let budget = self.engine.config().lifecycle.compact_budget;
        for (_, state) in self.engine.live_states_mut() {
            if st.diff_enabled {
                state.mark_shipped(budget);
            } else {
                state.forget_shipped();
            }
        }
        st.seal(&Frame::FullSnapshot(snap));
        if st.bye_sealed {
            st.seal(&Frame::Bye);
        }
        Frame::Hello {
            protocol: WIRE_VERSION,
            collector_id: self.id,
            resume: Some(HelloResume::Resync { first_seq }),
        }
    }

    /// The unacked window frames at or past `from_seq`, oldest first
    /// (encoded, ready to write).
    pub fn unsent_window(&self, from_seq: u64) -> impl Iterator<Item = (u64, &Bytes)> {
        self.seq
            .window
            .iter()
            .filter(move |&&(s, _)| s >= from_seq)
            .map(|&(s, ref b)| (s, b))
    }

    /// Sequence number the next sealed frame will get.
    pub fn next_seq(&self) -> u64 {
        self.seq.next_seq
    }

    /// `true` once the sealed `Bye` (and everything before it) has
    /// been acknowledged — the session is durably complete.
    pub fn finish_acked(&self) -> bool {
        self.seq.bye_sealed && self.seq.window.is_empty()
    }
}

/// Per-collector state inside the aggregator.
#[derive(Default)]
struct CollectorState {
    /// Latest cumulative entry per live key (Delta/FullSnapshot
    /// replace).
    live: BTreeMap<u64, StreamEntry>,
    /// Folded evicted finals per key.
    retired: BTreeMap<u64, StreamEntry>,
    /// Latest cumulative sketch-tier image this collector reported
    /// (sketch-bearing `Delta`s and `FullSnapshot`s replace it, like
    /// the live view).
    sketch: Option<SketchSnapshot>,
    /// Retired finals *this aggregator* demoted into sketch form to
    /// honor [`Aggregator::max_exact_keys`] — additive, never replaced
    /// by collector frames (those contributions left the retired map
    /// for good).
    absorbed: Option<SketchSnapshot>,
    done: bool,
    /// Highest applied data-frame seq. The watermark is what makes
    /// redelivery idempotent — duplicate seqs are skipped, which
    /// matters because `Evicted` finals merge.
    last_seq: Option<u64>,
    /// A `Resync` was requested; data frames are ignored until the
    /// `Resync`-mode `Hello` re-baselines the session.
    awaiting_resync: bool,
}

/// A suspended collector's aggregator state, parked in the
/// [`AdmissionRegistry`] between a session's failure and its
/// resumption (possibly on a different serve loop). Opaque: only
/// [`Aggregator::park_collector`] produces one and only
/// [`Aggregator::restore_collector`] consumes it.
pub struct ParkedCollector(CollectorState);

/// What [`Aggregator::feed_seq`] did with a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqOutcome {
    /// The frame was applied.
    Applied,
    /// Duplicate seq — already applied in a prior connection; skipped.
    Duplicate,
    /// Dropped: the session is awaiting a resync re-baseline.
    Ignored,
    /// A gap was detected: the caller should send
    /// `Resync { from_seq }` back to the collector. Data frames are
    /// ignored until the `Resync`-mode `Hello` arrives.
    NeedResync {
        /// First sequence number the aggregator is missing.
        from_seq: u64,
    },
}

/// Assembles frames from many collectors into one mergeable state.
#[derive(Default)]
pub struct Aggregator {
    collectors: BTreeMap<u64, CollectorState>,
    /// Optional byte budget applied to incoming summaries.
    compact_budget: Option<usize>,
    /// Per-collector retired-store cap; overflow entries demote into
    /// the collector's absorbed sketch.
    max_exact_keys: Option<usize>,
    /// Byte budget applied to incoming and absorbed sketch images.
    sketch_budget: Option<usize>,
}

impl Aggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Aggregator::default()
    }

    /// Compacts every incoming summary toward `bytes` (bounds
    /// aggregator memory under huge fan-in; totals stay exact).
    pub fn compact_budget(mut self, bytes: usize) -> Self {
        self.compact_budget = Some(bytes);
        self
    }

    /// Caps each collector's **retired** store at `n` keys: beyond it,
    /// the smallest finals (minimum `(kept count, key)`) demote into a
    /// per-collector sketch — totals stay exact, per-key attribution of
    /// the demoted tail becomes approximate. The *live* view is not
    /// capped here: live entries are cumulative views the collector
    /// replaces wholesale, so dropping one server-side would lose its
    /// totals; a collector bounds its own live table with
    /// [`crate::TierConfig`] / lifecycle eviction.
    pub fn max_exact_keys(mut self, n: usize) -> Self {
        self.max_exact_keys = Some(n);
        self
    }

    /// Compacts every incoming (and server-side absorbed) sketch image
    /// toward `bytes`. Totals stay exact.
    pub fn sketch_bytes(mut self, bytes: usize) -> Self {
        self.sketch_budget = Some(bytes);
        self
    }

    /// Applies one frame from the session of `collector_id` (the id
    /// from that session's `Hello`) with its wire sequence number —
    /// `None` for `Hello`s.
    ///
    /// Sessions are idempotent across redelivery: `last_seq` is
    /// tracked per collector (and survives re-admission), duplicate
    /// seqs are skipped, and a gap turns into a
    /// [`SeqOutcome::NeedResync`] rather than silent corruption.
    ///
    /// # Errors
    ///
    /// [`WireError::Corrupt`] on protocol violations, with no state
    /// created: aggregator control frames fed as collector frames, a
    /// `Hello` without a resume mode, a data frame without a seq, and
    /// a data frame under an id that has had no `Hello`.
    pub fn feed_seq(
        &mut self,
        collector_id: u64,
        seq: Option<u64>,
        frame: Frame,
    ) -> Result<SeqOutcome, WireError> {
        if frame.is_control() {
            return Err(WireError::Corrupt(
                "aggregator control frame from a collector",
            ));
        }
        if let Frame::Hello { resume, .. } = frame {
            let resume = resume.ok_or(WireError::Corrupt("hello without a resume mode"))?;
            let state = self.collectors.entry(collector_id).or_default();
            state.done = false;
            if let HelloResume::Replay { first_seq } = resume {
                // Keep everything: the whole point of a replay is that
                // prior state (and its seq watermark) stands.
                let expected = state.last_seq.map_or(0, |s| s + 1);
                if first_seq > expected {
                    state.awaiting_resync = true;
                    return Ok(SeqOutcome::NeedResync { from_seq: expected });
                }
            } else {
                // Any other Hello restarts the session's live view: a
                // fresh session re-sends cumulative state, and a
                // `Resync` re-baselines it with the coming
                // FullSnapshot. Retired finals (and server-side absorbed
                // sketches) were real evictions and stay — a resyncing
                // collector re-sends only the evicted tail past the
                // watermark we reported. The reported sketch is
                // cumulative like the live view: cleared here, replaced
                // by the next sketch-bearing frame.
                state.live.clear();
                state.sketch = None;
                state.last_seq = resume.first_seq().checked_sub(1);
            }
            state.awaiting_resync = false;
            return Ok(SeqOutcome::Applied);
        }
        // Data frame: sequence bookkeeping before any state change.
        // The watermark advances only *after* the frame applies — a
        // differential frame that fails validation must not count as
        // applied, or the resync would skip it.
        let seq = seq.ok_or(WireError::Corrupt("data frame without a seq"))?;
        let state = self
            .collectors
            .get_mut(&collector_id)
            .ok_or(WireError::Corrupt("data frame before hello"))?;
        if state.awaiting_resync {
            return Ok(SeqOutcome::Ignored);
        }
        let expected = state.last_seq.map_or(0, |s| s + 1);
        if seq < expected {
            return Ok(SeqOutcome::Duplicate);
        }
        if seq > expected {
            state.awaiting_resync = true;
            return Ok(SeqOutcome::NeedResync { from_seq: expected });
        }
        match frame {
            Frame::Hello { .. } | Frame::Ack { .. } | Frame::Resync { .. } | Frame::Shutdown => {
                unreachable!("handled above")
            }
            Frame::Delta(snap) => {
                // A sketch-bearing Delta replaces the cumulative sketch
                // view; sketchless Deltas (the non-final chunks of a
                // flush, or any untiered collector's) leave it alone.
                let (streams, sketch) = snap.into_parts();
                for mut e in streams {
                    if let Some(b) = self.compact_budget {
                        e.summary.compact(b);
                    }
                    state.live.insert(e.key, e);
                }
                if let Some(mut sk) = sketch {
                    if let Some(b) = self.sketch_budget {
                        sk.compact(b);
                    }
                    state.sketch = Some(sk);
                }
            }
            Frame::FullSnapshot(snap) => {
                // A full snapshot is the entire engine image: the
                // sketch view is replaced unconditionally (cleared for
                // an untiered engine).
                let (streams, sketch) = snap.into_parts();
                state.live.clear();
                for mut e in streams {
                    if let Some(b) = self.compact_budget {
                        e.summary.compact(b);
                    }
                    state.live.insert(e.key, e);
                }
                state.sketch = sketch.map(|mut sk| {
                    if let Some(b) = self.sketch_budget {
                        sk.compact(b);
                    }
                    sk
                });
            }
            Frame::Evicted(entries) => {
                for mut e in entries {
                    if let Some(b) = self.compact_budget {
                        e.summary.compact(b);
                    }
                    state.live.remove(&e.key);
                    match state.retired.entry(e.key) {
                        Entry::Vacant(v) => {
                            v.insert(e);
                        }
                        Entry::Occupied(mut o) => {
                            let held = o.get_mut();
                            held.sampler.merge_from(&e.sampler);
                            held.summary.merge_from(&e.summary);
                            if let Some(b) = self.compact_budget {
                                held.summary.compact(b);
                            }
                        }
                    }
                }
                // Retired-store tiering: beyond the cap, demote the
                // smallest finals — minimum `(kept count, key)`, a
                // deterministic total order — into the per-collector
                // absorbed sketch. Totals stay exact.
                if let Some(cap) = self.max_exact_keys {
                    while state.retired.len() > cap {
                        let victim = state
                            .retired
                            .iter()
                            .map(|(&k, e)| (e.summary.moments.count(), k))
                            .min()
                            .map(|(_, k)| k)
                            .expect("retired store over a non-negative cap is non-empty");
                        let e = state.retired.remove(&victim).expect("victim present");
                        let sk = state.absorbed.get_or_insert_with(SketchSnapshot::default);
                        sk.absorb_entry(&e);
                        if let Some(b) = self.sketch_budget {
                            sk.compact(b);
                        }
                    }
                }
            }
            Frame::DeltaDiff(diffs) => {
                // Diffs apply in-place against the live view. Any
                // failure — unknown key, baseline fingerprint mismatch
                // (e.g. our compact_budget rewrote the entry), or a
                // structurally invalid patch — turns into a resync at
                // this frame's seq: the watermark has not advanced, so
                // the collector re-baselines from here. A frame that
                // fails partway may leave earlier entries updated;
                // that's fine, the resync's FullSnapshot replaces the
                // live view wholesale.
                for d in &diffs {
                    let applied = state
                        .live
                        .get_mut(&d.key)
                        .is_some_and(|e| apply_diff(e, d).is_ok());
                    if !applied {
                        state.awaiting_resync = true;
                        return Ok(SeqOutcome::NeedResync { from_seq: seq });
                    }
                    if let Some(b) = self.compact_budget {
                        let e = state.live.get_mut(&d.key).expect("applied above");
                        e.summary.compact(b);
                    }
                }
            }
            Frame::Bye => state.done = true,
        }
        state.last_seq = Some(seq);
        Ok(SeqOutcome::Applied)
    }

    /// Highest applied sequence number of `collector_id`'s session
    /// (`None` for unknown ids and before its first data frame).
    pub fn last_seq(&self, collector_id: u64) -> Option<u64> {
        self.collectors.get(&collector_id).and_then(|s| s.last_seq)
    }

    /// `true` once `collector_id`'s session has applied its `Bye`.
    pub fn session_done(&self, collector_id: u64) -> bool {
        self.collectors.get(&collector_id).is_some_and(|s| s.done)
    }

    /// `true` while `collector_id` is waiting out a requested resync.
    pub fn awaiting_resync(&self, collector_id: u64) -> bool {
        self.collectors
            .get(&collector_id)
            .is_some_and(|s| s.awaiting_resync)
    }

    /// Extracts `collector_id`'s whole state (live, retired, seq
    /// watermark) for parking in the [`AdmissionRegistry`] while its
    /// session is down. The collector vanishes from this aggregator —
    /// [`Aggregator::restore_collector`] puts the state back wherever
    /// the session resumes.
    pub fn park_collector(&mut self, collector_id: u64) -> Option<ParkedCollector> {
        self.collectors.remove(&collector_id).map(ParkedCollector)
    }

    /// Re-injects state parked by [`Aggregator::park_collector`]
    /// (possibly from another loop's aggregator) ahead of a resumed
    /// session's frames.
    pub fn restore_collector(&mut self, collector_id: u64, parked: ParkedCollector) {
        self.collectors.insert(collector_id, parked.0);
    }

    /// Collector sessions seen so far.
    pub fn collector_count(&self) -> usize {
        self.collectors.len()
    }

    /// `true` once every known session has sent `Bye`.
    pub fn all_done(&self) -> bool {
        !self.collectors.is_empty() && self.collectors.values().all(|c| c.done)
    }

    /// The assembled snapshot: for every collector (ascending id),
    /// retired finals then live entries, canonically merged, plus the
    /// sketch images (each collector's reported sketch, then its
    /// server-side absorbed one) folded in the same ascending-id order.
    /// For disjoint collectors this is bit-for-bit the single-engine
    /// snapshot ([`MonitorEngine::full_snapshot`] semantics) — sketch
    /// section included for a lone tiered collector.
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut entries: Vec<StreamEntry> = Vec::new();
        let mut sketch: Option<SketchSnapshot> = None;
        for state in self.collectors.values() {
            entries.extend(state.retired.values().cloned());
            entries.extend(state.live.values().cloned());
            for sk in state.sketch.iter().chain(state.absorbed.iter()) {
                match &mut sketch {
                    None => sketch = Some(sk.clone()),
                    Some(acc) => acc.merge_from(sk),
                }
            }
        }
        EngineSnapshot::from_streams(entries).with_sketch(sketch)
    }

    /// Approximate bytes held across all per-collector state, sketch
    /// images included.
    pub fn estimated_state_bytes(&self) -> usize {
        self.collectors
            .values()
            .map(|c| {
                let entries: usize = c
                    .live
                    .values()
                    .chain(c.retired.values())
                    .map(|e| 64 + e.summary.estimated_bytes())
                    .sum();
                let sketches: usize = c
                    .sketch
                    .iter()
                    .chain(c.absorbed.iter())
                    .map(Compactable::estimated_bytes)
                    .sum();
                entries + sketches
            })
            .sum()
    }
}

/// Who holds a collector id in the admission registry.
enum IdOwner {
    /// An open session (by its transport-assigned token) is feeding
    /// under this id.
    Open(u64),
    /// A completed session delivered this id's state; nobody may claim
    /// it again within this serve run (a late "reconnect" after a
    /// clean `Bye` is indistinguishable from a spoof).
    Completed,
    /// A session failed mid-stream; its aggregator state is
    /// parked here until the collector reconnects and resumes —
    /// idempotently, thanks to the parked seq watermark.
    Suspended(Box<ParkedCollector>),
}

/// Result of [`AdmissionRegistry::claim`].
pub enum Claim {
    /// The id is granted, no prior state.
    New,
    /// The id is granted and carries the parked state of the suspended
    /// session being resumed — restore it into the claiming loop's
    /// aggregator before feeding frames.
    Resumed(Box<ParkedCollector>),
    /// Another open session owns the id, or a completed session
    /// delivered it: the claimant must be failed before the frame
    /// touches any aggregator.
    Rejected,
}

/// Collector-id admission table shared by every serve loop of one run.
///
/// An id already owned by another *open* session, or delivered by a
/// *completed* one, cannot be claimed again — a spoofed `Hello` is
/// rejected before it can reset the real collector's live view. Ids
/// free up again when their session fails, so a collector that crashed
/// mid-stream can reconnect and resend its cumulative state.
///
/// The table is its own type (rather than event-loop-private state, as
/// it originally was) because under multi-loop serving
/// ([`crate::transport::MultiLoopServer`]) sessions land on different
/// loops: admission must be global or a spoofer could dodge it by
/// connecting until the dispatcher hands it a different loop than its
/// victim. It is a small `Mutex`ed map, consulted only on the *first*
/// frame a session sends under each id (the per-session
/// [`SessionDriver`] caches ids it already fed), so cross-loop
/// contention is a handful of lock acquisitions per session, not per
/// frame.
#[derive(Default)]
pub struct AdmissionRegistry {
    owners: Mutex<BTreeMap<u64, IdOwner>>,
}

impl AdmissionRegistry {
    /// An empty registry (wrap it in an `Arc` to share across loops).
    pub fn new() -> Self {
        AdmissionRegistry::default()
    }

    /// Recovers the map even if a panicking loop thread poisoned the
    /// lock: the table holds only small plain data, never mid-mutation
    /// invariants.
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, IdOwner>> {
        self.owners.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims `id` on behalf of the session `token`: grants free ids,
    /// re-grants ids this very session holds, resumes suspended ids
    /// (handing their parked state to the claimant, which must restore
    /// it into its aggregator or the state is lost), and rejects ids
    /// owned by another open session or delivered by a completed one —
    /// the caller must then fail the claiming session *before* the
    /// frame touches any aggregator.
    pub fn claim(&self, id: u64, token: u64) -> Claim {
        let mut owners = self.lock();
        match owners.get(&id) {
            None => {
                owners.insert(id, IdOwner::Open(token));
                Claim::New
            }
            Some(IdOwner::Open(t)) if *t == token => Claim::New,
            Some(IdOwner::Open(_)) | Some(IdOwner::Completed) => Claim::Rejected,
            Some(IdOwner::Suspended(_)) => {
                let Some(IdOwner::Suspended(parked)) = owners.insert(id, IdOwner::Open(token))
                else {
                    unreachable!("matched Suspended above")
                };
                Claim::Resumed(parked)
            }
        }
    }

    /// Parks a failed session's aggregator state under its
    /// id, to be handed to whichever session (on whichever loop)
    /// resumes it.
    pub fn suspend(&self, id: u64, parked: ParkedCollector) {
        self.lock().insert(id, IdOwner::Suspended(Box::new(parked)));
    }

    /// Marks every id in `ids` as delivered by a completed session:
    /// within this run a later claimant would be a spoof.
    pub fn complete(&self, ids: impl Iterator<Item = u64>) {
        let mut owners = self.lock();
        for id in ids {
            owners.insert(id, IdOwner::Completed);
        }
    }

    /// Frees every id the (failed) session `token` held open, so the
    /// real collector can reconnect and resend cumulative state.
    pub fn release(&self, token: u64) {
        self.lock()
            .retain(|_, o| !matches!(o, IdOwner::Open(t) if *t == token));
    }
}

/// The per-loop aggregators of a multi-loop serve, assembled at
/// snapshot/report time.
///
/// Each serve loop owns a private [`Aggregator`] that its sessions feed
/// lock-free; nothing is shared while bytes flow. Only when the run is
/// over are the per-loop states combined — via
/// [`EngineSnapshot::merge`], whose canonical key-wise form makes the
/// assembled snapshot independent of *which* loop each collector
/// happened to land on. For collectors watching disjoint key sets the
/// result is byte-identical to one unsharded engine (and to a
/// single-loop serve of the same sessions), whatever the dispatcher's
/// placement — pinned by `tests/transport_live.rs` for 1, 2 and 4
/// loops.
#[derive(Default)]
pub struct AggregatorSet {
    aggs: Vec<Aggregator>,
}

impl AggregatorSet {
    /// Wraps the per-loop aggregators a finished multi-loop run left.
    pub fn new(aggs: Vec<Aggregator>) -> Self {
        AggregatorSet { aggs }
    }

    /// How many per-loop aggregators the set holds.
    pub fn loops(&self) -> usize {
        self.aggs.len()
    }

    /// Completed collector sessions across all loops.
    pub fn collector_count(&self) -> usize {
        self.aggs.iter().map(Aggregator::collector_count).sum()
    }

    /// Approximate bytes held across every loop's per-collector state.
    pub fn estimated_state_bytes(&self) -> usize {
        self.aggs
            .iter()
            .map(Aggregator::estimated_state_bytes)
            .sum()
    }

    /// The assembled snapshot: every loop's snapshot merged
    /// canonically (the empty snapshot is the merge identity, so idle
    /// loops contribute nothing).
    pub fn snapshot(&self) -> EngineSnapshot {
        self.aggs
            .iter()
            .map(Aggregator::snapshot)
            .fold(EngineSnapshot::default(), EngineSnapshot::merge)
    }
}

/// Why a collector session failed.
#[derive(Debug)]
pub enum SessionError {
    /// The byte stream violated the wire protocol (or carried a frame
    /// the aggregator rejected, e.g. data before any `Hello`).
    Wire(WireError),
    /// The connection closed with a partial frame still buffered.
    MidFrameEof,
    /// The session tried to feed under a collector id the transport's
    /// admission policy refused (e.g. an id another session owns).
    IdRejected(u64),
    /// A session's connection ended (even on a clean frame boundary)
    /// after its `Hello` but before its `Bye` was applied. A collector
    /// explicitly ends with `Bye` and anything less is a torn
    /// connection the peer will resume — completing it would mark the
    /// id delivered and reject the resumption as a spoof.
    SequencedEof(u64),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Wire(e) => write!(f, "wire: {e}"),
            SessionError::MidFrameEof => f.write_str("connection closed mid-frame"),
            SessionError::IdRejected(id) => {
                write!(f, "collector id {id} already owned by another session")
            }
            SessionError::SequencedEof(id) => {
                write!(f, "sequenced session {id} disconnected before its Bye")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// The per-session state machine the serve loop runs for every
/// connection: bytes in, aggregator mutations out.
///
/// A `SessionDriver` owns one connection's [`FrameDecoder`] and session
/// identity. Push bytes as they arrive ([`SessionDriver::push`]), call
/// [`SessionDriver::finish`] at EOF; each completed frame is fed to the
/// [`Aggregator`] under the id from the session's latest `Hello`. A
/// frame before any `Hello` fails the session.
///
/// The driver never touches the aggregator except through
/// [`Aggregator::feed_seq`]/[`Aggregator::park_collector`], so the same
/// state machine serves live sockets in the event loop (which owns its
/// aggregator, no lock) and in-memory byte slices pushed directly —
/// the reference replay the transport tests compare served bytes
/// against.
#[derive(Default)]
pub struct SessionDriver {
    dec: FrameDecoder,
    session: Option<u64>,
    frames: usize,
    /// Every collector id this session fed at least one frame under —
    /// a session that re-`Hello`s under new ids touches several, and
    /// [`SessionDriver::abort`] must roll back all of them.
    fed: BTreeSet<u64>,
    /// Encoded aggregator → collector control frames (`Ack`, `Resync`)
    /// awaiting transport write — the transport drains this via
    /// [`SessionDriver::take_outbound`] and owns partial-write
    /// handling.
    outbound: Vec<u8>,
    /// Highest seq already queued in an `Ack`, so acks fire once per
    /// advance, not once per pushed chunk.
    acked_through: Option<u64>,
    /// Wire bytes (header + payload) received in differential
    /// (`DeltaDiff`) frames.
    diff_bytes: u64,
    /// Wire bytes received in cumulative data frames (`Delta`,
    /// `FullSnapshot`, `Evicted`).
    full_bytes: u64,
    /// `Resync` requests this session has issued.
    resyncs: u64,
}

impl SessionDriver {
    /// A fresh session, before its `Hello`.
    pub fn new() -> Self {
        SessionDriver::default()
    }

    /// Feeds a chunk of received bytes, applying every frame that
    /// completes. Equivalent to [`SessionDriver::push_admitted`] with
    /// an admit-everything policy — for transports whose peers are
    /// trusted to use distinct ids (in-process pipes, local Unix
    /// sockets).
    ///
    /// # Errors
    ///
    /// [`SessionError::Wire`] on malformed bytes or a rejected frame;
    /// the session is then dead (callers should [`SessionDriver::abort`]
    /// and drop the connection).
    pub fn push(&mut self, bytes: &[u8], agg: &mut Aggregator) -> Result<(), SessionError> {
        self.push_admitted(bytes, agg, &mut |_, _| true)
    }

    /// As [`SessionDriver::push`], but `admit` is consulted **before**
    /// the first frame under each newly-claimed collector id is
    /// applied — returning `false` fails the session with
    /// [`SessionError::IdRejected`] *before* the frame can touch the
    /// aggregator (a spoofed `Hello` would otherwise clear the real
    /// collector's live view). Network-facing transports use this to
    /// refuse ids already owned by another live or completed session —
    /// and, handed the aggregator, to restore parked state when
    /// admitting a *resumed* session.
    ///
    /// # Errors
    ///
    /// As [`SessionDriver::push`], plus [`SessionError::IdRejected`].
    pub fn push_admitted(
        &mut self,
        bytes: &[u8],
        agg: &mut Aggregator,
        admit: &mut dyn FnMut(u64, &mut Aggregator) -> bool,
    ) -> Result<(), SessionError> {
        self.dec.push(bytes);
        self.drain(agg, admit)
    }

    /// Signals EOF: verifies the stream ended on a frame boundary and,
    /// once a `Hello` arrived, after its `Bye` applied.
    ///
    /// # Errors
    ///
    /// [`SessionError::MidFrameEof`] if bytes of an incomplete frame
    /// remain; [`SessionError::SequencedEof`] if the session's `Bye`
    /// has not applied — a torn connection whose peer will reconnect
    /// and resume, so completing it here would mark the id delivered
    /// and spoof-reject the resumption.
    pub fn finish(&self, agg: &Aggregator) -> Result<(), SessionError> {
        if self.dec.pending_bytes() != 0 {
            return Err(SessionError::MidFrameEof);
        }
        match self.session {
            Some(id) if !agg.session_done(id) => Err(SessionError::SequencedEof(id)),
            _ => Ok(()),
        }
    }

    /// Rolls the session's contribution back out of the aggregator:
    /// the state of every collector id it fed frames under is dropped
    /// (no-op if it never delivered a frame). Call when a session
    /// that will not resume is torn down, e.g. at serve shutdown.
    pub fn abort(&self, agg: &mut Aggregator) {
        for &id in &self.fed {
            agg.park_collector(id);
        }
    }

    /// Frames successfully fed so far. Transports use `> 0` to tell a
    /// real collector session from a connect-and-probe that must not
    /// consume a collector slot.
    pub fn frames_delivered(&self) -> usize {
        self.frames
    }

    /// Wire bytes received in differential (`DeltaDiff`) frames.
    pub fn diff_bytes(&self) -> u64 {
        self.diff_bytes
    }

    /// Wire bytes received in cumulative data frames (`Delta`,
    /// `FullSnapshot`, `Evicted`).
    pub fn full_bytes(&self) -> u64 {
        self.full_bytes
    }

    /// `Resync` requests this session has issued back to its peer.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// The session's established id: its latest `Hello`'s collector
    /// id.
    pub fn session_id(&self) -> Option<u64> {
        self.session
    }

    /// Every collector id this session has fed frames under (what
    /// [`SessionDriver::abort`] would roll back).
    pub fn fed_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.fed.iter().copied()
    }

    /// Drains the encoded aggregator → collector control frames
    /// (`Ack`, `Resync`) queued since the last take. The transport
    /// owns writing them — including partial writes and write-interest
    /// re-arming on nonblocking sockets.
    pub fn take_outbound(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.outbound)
    }

    /// `true` when control frames are queued for the collector.
    pub fn has_outbound(&self) -> bool {
        !self.outbound.is_empty()
    }

    fn drain(
        &mut self,
        agg: &mut Aggregator,
        admit: &mut dyn FnMut(u64, &mut Aggregator) -> bool,
    ) -> Result<(), SessionError> {
        while let Some(sf) = self.dec.next_seq_frame().map_err(SessionError::Wire)? {
            let frame = sf.frame;
            let wire_bytes = self.dec.last_frame_bytes() as u64;
            match &frame {
                Frame::DeltaDiff(_) => self.diff_bytes += wire_bytes,
                Frame::Delta(_) | Frame::FullSnapshot(_) | Frame::Evicted(_) => {
                    self.full_bytes += wire_bytes;
                }
                _ => {}
            }
            let id = match (&frame, self.session) {
                (Frame::Hello { collector_id, .. }, _) => {
                    self.session = Some(*collector_id);
                    *collector_id
                }
                (_, Some(id)) => id,
                (_, None) => {
                    return Err(SessionError::Wire(WireError::Corrupt("frame before hello")));
                }
            };
            // Admission runs before the frame is applied: a refused id
            // must leave no trace (not even a `Hello`'s live-view
            // reset). A granted resumption restores parked state into
            // `agg` inside the closure, ahead of this frame.
            if !self.fed.contains(&id) && !admit(id, agg) {
                return Err(SessionError::IdRejected(id));
            }
            match agg
                .feed_seq(id, sf.seq, frame)
                .map_err(SessionError::Wire)?
            {
                SeqOutcome::NeedResync { from_seq } => {
                    self.resyncs += 1;
                    self.outbound
                        .extend_from_slice(&encode_frame(&Frame::Resync { from_seq }));
                }
                SeqOutcome::Applied | SeqOutcome::Duplicate | SeqOutcome::Ignored => {}
            }
            self.frames += 1;
            self.fed.insert(id);
        }
        // Ack once per drained batch, and only when the watermark
        // moved — a per-session outbound buffer the transport flushes.
        if let Some(through) = self.session.and_then(|id| agg.last_seq(id)) {
            if self.acked_through.is_none_or(|a| a < through) {
                self.acked_through = Some(through);
                self.outbound.extend_from_slice(&encode_frame(&Frame::Ack {
                    through_seq: through,
                }));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SamplerSpec;
    use crate::wire::SeqFrame;

    fn keyed_points(n: usize, n_keys: u64) -> Vec<(u64, f64)> {
        (0..n)
            .map(|i| {
                let key = (i as u64).wrapping_mul(0x9E37_79B9) % n_keys;
                (key, 1.0 + (i % 97) as f64)
            })
            .collect()
    }

    #[test]
    fn frame_chunks_split_greedily_at_the_target_and_keep_order() {
        const MIB: usize = 1 << 20;
        // Sizes in MiB against the 16 MiB target: a chunk closes before
        // the item that would overflow it, and an oversized item still
        // ships alone.
        let sizes = vec![6, 6, 6, 20, 1, 15, 2];
        let chunks = frame_chunks(sizes.clone(), |&mb| mb * MIB);
        assert_eq!(
            chunks,
            vec![vec![6, 6], vec![6], vec![20], vec![1, 15], vec![2]]
        );
        assert_eq!(chunks.concat(), sizes);
        assert_eq!(frame_chunks(vec![3], |_| MIB), vec![vec![3]]);
        assert!(frame_chunks(Vec::<usize>::new(), |_| MIB).is_empty());
    }

    fn config() -> MonitorConfig {
        MonitorConfig::default()
            .sampler(SamplerSpec::Systematic { interval: 4 })
            .seed(11)
    }

    /// Appends every unacked frame `c` sealed to `pipe` and acks them,
    /// as a lossless pipe delivers everything it accepted.
    fn ship(c: &mut Collector, pipe: &mut Vec<u8>) {
        let mut through = None;
        for (seq, bytes) in c.unsent_window(0) {
            pipe.extend_from_slice(bytes);
            through = Some(seq);
        }
        if let Some(seq) = through {
            c.ack(seq);
        }
    }

    /// `c`'s whole session over a lossless pipe: `Hello`, one seal of
    /// `points`, `Bye`.
    fn session_pipe(mut c: Collector, points: &[(u64, f64)]) -> Vec<u8> {
        let mut pipe = encode_frame(&c.hello()).to_vec();
        c.offer_batch(points);
        c.seal_finish();
        ship(&mut c, &mut pipe);
        pipe
    }

    /// A fresh session's `Hello` under `collector_id`.
    fn hello_frame(collector_id: u64) -> Frame {
        Frame::Hello {
            protocol: WIRE_VERSION,
            collector_id,
            resume: Some(HelloResume::Fresh { first_seq: 0 }),
        }
    }

    /// Feeds one whole session's bytes to `agg`.
    fn ingest(agg: &mut Aggregator, pipe: &[u8]) {
        let mut driver = SessionDriver::new();
        driver.push(pipe, agg).expect("clean session");
        driver.finish(agg).expect("clean eof");
    }

    #[test]
    fn two_collectors_assemble_to_the_unsharded_bits_over_a_pipe() {
        let points = keyed_points(40_000, 64);
        // Reference: one engine sees everything.
        let mut reference = MonitorEngine::new(config().shards(2));
        for &(k, v) in &points {
            reference.offer(k, v);
        }
        // Two collectors partition the keys; several seals each.
        let mut collectors = [
            Collector::new_sequenced(0, config()),
            Collector::new_sequenced(1, config()),
        ];
        let mut pipes = collectors
            .each_ref()
            .map(|c| encode_frame(&c.hello()).to_vec());
        for (i, chunk) in points.chunks(7000).enumerate() {
            for &(k, v) in chunk {
                collectors[(k % 2) as usize].offer(k, v);
            }
            // Interleave seals to exercise repeated deltas and diffs.
            let c = i % 2;
            collectors[c].seal_flush();
            ship(&mut collectors[c], &mut pipes[c]);
        }
        for c in 0..2 {
            collectors[c].seal_finish();
            ship(&mut collectors[c], &mut pipes[c]);
        }
        let mut agg = Aggregator::new();
        for pipe in &pipes {
            ingest(&mut agg, pipe);
        }
        assert!(agg.all_done());
        assert_eq!(agg.collector_count(), 2);
        assert_eq!(agg.snapshot(), reference.snapshot());
    }

    #[test]
    fn interleaving_does_not_change_the_aggregate() {
        let points = keyed_points(20_000, 32);
        let mut collectors = [
            Collector::new_sequenced(0, config()),
            Collector::new_sequenced(1, config()),
        ];
        let mut pipes = collectors
            .each_ref()
            .map(|c| encode_frame(&c.hello()).to_vec());
        for chunk in points.chunks(3000) {
            for &(k, v) in chunk {
                collectors[(k % 2) as usize].offer(k, v);
            }
            for c in 0..2 {
                collectors[c].seal_flush();
                ship(&mut collectors[c], &mut pipes[c]);
            }
        }
        for c in 0..2 {
            collectors[c].seal_finish();
            ship(&mut collectors[c], &mut pipes[c]);
        }
        // Sequential sessions vs frame-interleaved sessions.
        let mut seq = Aggregator::new();
        ingest(&mut seq, &pipes[0]);
        ingest(&mut seq, &pipes[1]);
        let mut interleaved = Aggregator::new();
        let decoded: Vec<Vec<SeqFrame>> = pipes
            .iter()
            .map(|p| {
                let mut dec = FrameDecoder::new();
                dec.push(p);
                std::iter::from_fn(|| dec.next_seq_frame().unwrap()).collect()
            })
            .collect();
        let max = decoded[0].len().max(decoded[1].len());
        for i in 0..max {
            for (c, frames) in decoded.iter().enumerate() {
                if let Some(sf) = frames.get(i) {
                    interleaved
                        .feed_seq(c as u64, sf.seq, sf.frame.clone())
                        .unwrap();
                }
            }
        }
        assert_eq!(seq.snapshot(), interleaved.snapshot());
    }

    #[test]
    fn hello_version_negotiates_down_never_rejects() {
        // The envelope version is what gates a session (the decoder
        // accepts only v4); the protocol ceiling a `Hello` declares
        // inside it is informational and never grounds for rejection.
        let mut agg = Aggregator::new();
        for protocol in [1u8, 2, 3, 77] {
            agg.feed_seq(
                u64::from(protocol),
                None,
                Frame::Hello {
                    protocol,
                    collector_id: u64::from(protocol),
                    resume: Some(HelloResume::Fresh { first_seq: 0 }),
                },
            )
            .expect("negotiated, not rejected");
        }
        assert_eq!(agg.collector_count(), 4);
    }

    #[test]
    fn data_frames_before_a_hello_are_rejected_without_creating_state() {
        // A rejected frame must not leave a phantom collector behind:
        // one would hold `all_done()` false for the rest of the run.
        let mut engine = MonitorEngine::new(config());
        engine.offer_batch(&keyed_points(2000, 4));
        let delta = Frame::Delta(engine.snapshot());
        let mut agg = Aggregator::new();
        for (seq, frame) in [
            (Some(0), delta.clone()),
            (Some(0), Frame::Bye),
            (None, delta.clone()),
            (
                None,
                Frame::Hello {
                    protocol: WIRE_VERSION,
                    collector_id: 6,
                    resume: None,
                },
            ),
        ] {
            let kind = frame.kind_name();
            assert!(
                matches!(agg.feed_seq(6, seq, frame), Err(WireError::Corrupt(_))),
                "{kind} at {seq:?}"
            );
            assert_eq!(agg.collector_count(), 0, "{kind} at {seq:?}");
        }
        // After a Hello, a data frame still needs its seq.
        agg.feed_seq(6, None, hello_frame(6)).unwrap();
        assert!(matches!(
            agg.feed_seq(6, None, delta),
            Err(WireError::Corrupt(_))
        ));
        assert_eq!(agg.last_seq(6), None);
    }

    #[test]
    fn sequenced_replay_skips_duplicates_and_gaps_request_resync() {
        let mut engine = MonitorEngine::new(config());
        engine.offer_batch(&keyed_points(2000, 4));
        let snap = engine.snapshot();
        let mut agg = Aggregator::new();
        let hello = |resume| Frame::Hello {
            protocol: WIRE_VERSION,
            collector_id: 9,
            resume: Some(resume),
        };
        agg.feed_seq(9, None, hello(HelloResume::Fresh { first_seq: 0 }))
            .unwrap();
        assert_eq!(
            agg.feed_seq(9, Some(0), Frame::Delta(snap.clone()))
                .unwrap(),
            SeqOutcome::Applied
        );
        assert_eq!(agg.last_seq(9), Some(0));
        // Reconnect replaying from 0: the duplicate is skipped (the
        // watermark protects the non-idempotent Evicted merge), the
        // new frame applies.
        agg.feed_seq(9, None, hello(HelloResume::Replay { first_seq: 0 }))
            .unwrap();
        assert_eq!(
            agg.feed_seq(9, Some(0), Frame::Delta(snap.clone()))
                .unwrap(),
            SeqOutcome::Duplicate
        );
        assert_eq!(
            agg.feed_seq(9, Some(1), Frame::Delta(snap.clone()))
                .unwrap(),
            SeqOutcome::Applied
        );
        // A gap asks for a resync and ignores frames until the
        // re-baseline Hello.
        assert_eq!(
            agg.feed_seq(9, Some(5), Frame::Delta(snap.clone()))
                .unwrap(),
            SeqOutcome::NeedResync { from_seq: 2 }
        );
        assert!(agg.awaiting_resync(9));
        assert_eq!(
            agg.feed_seq(9, Some(6), Frame::Delta(snap.clone()))
                .unwrap(),
            SeqOutcome::Ignored
        );
        agg.feed_seq(9, None, hello(HelloResume::Resync { first_seq: 7 }))
            .unwrap();
        assert_eq!(
            agg.feed_seq(9, Some(7), Frame::FullSnapshot(snap.clone()))
                .unwrap(),
            SeqOutcome::Applied
        );
        assert_eq!(agg.snapshot(), snap);
    }

    #[test]
    fn parked_state_survives_re_admission() {
        let mut engine = MonitorEngine::new(config());
        engine.offer_batch(&keyed_points(2000, 4));
        let snap = engine.snapshot();
        let mut agg_a = Aggregator::new();
        agg_a
            .feed_seq(
                4,
                None,
                Frame::Hello {
                    protocol: WIRE_VERSION,
                    collector_id: 4,
                    resume: Some(HelloResume::Fresh { first_seq: 0 }),
                },
            )
            .unwrap();
        agg_a
            .feed_seq(4, Some(0), Frame::Delta(snap.clone()))
            .unwrap();
        // Session fails: park, hand through the registry, resume on a
        // different loop's aggregator.
        let registry = AdmissionRegistry::new();
        registry.suspend(4, agg_a.park_collector(4).expect("state"));
        assert_eq!(agg_a.collector_count(), 0);
        let Claim::Resumed(parked) = registry.claim(4, 1 << 33) else {
            panic!("suspended id resumes");
        };
        let mut agg_b = Aggregator::new();
        agg_b.restore_collector(4, *parked);
        assert_eq!(agg_b.last_seq(4), Some(0), "seq watermark travels");
        assert_eq!(agg_b.snapshot(), snap);
        // And the id is now open: a second claimant is a spoof.
        assert!(matches!(registry.claim(4, 77), Claim::Rejected));
    }

    #[test]
    fn session_driver_replays_a_collector_pipe_chunk_by_chunk() {
        let pipe = session_pipe(
            Collector::new_sequenced(5, config()),
            &keyed_points(8000, 16),
        );
        // Reference: the whole session pushed at once.
        let mut want = Aggregator::new();
        ingest(&mut want, &pipe);
        // Driver: awkward chunk sizes, EOF at the end.
        for chunk in [1usize, 13, 4096] {
            let mut agg = Aggregator::new();
            let mut driver = SessionDriver::new();
            for piece in pipe.chunks(chunk) {
                driver.push(piece, &mut agg).expect("clean stream");
            }
            driver.finish(&agg).expect("clean eof");
            assert_eq!(driver.session_id(), Some(5));
            assert!(driver.frames_delivered() >= 2, "hello + data + bye");
            assert_eq!(agg.snapshot(), want.snapshot(), "chunk size {chunk}");
        }
    }

    #[test]
    fn session_driver_rejects_peers_that_do_not_open_with_a_v4_hello() {
        // A bare v1 `.ssm` snapshot, a v2 session (9-byte Hello), a v3
        // session (a v4 one re-tagged) and a v4 data frame with no
        // Hello before it: each fails the session, whole or in small
        // pushes, and leaves no aggregator state.
        let mut engine = MonitorEngine::new(config());
        engine.offer_batch(&keyed_points(3000, 8));
        let v1 = crate::codec::encode_snapshot(&engine.snapshot()).to_vec();
        let mut v2 = b"SSWF\x02\x00\x09\x00\x00\x00\x02".to_vec();
        v2.extend_from_slice(&4u64.to_le_bytes());
        let mut v3 = session_pipe(
            Collector::new_sequenced(4, config()),
            &keyed_points(3000, 8),
        );
        v3[4] = 3;
        let headless = crate::wire::encode_frame_seq(0, &Frame::Delta(engine.snapshot())).to_vec();
        for (name, bytes) in [("v1", v1), ("v2", v2), ("v3", v3), ("headless", headless)] {
            for chunk in [1usize, 4096] {
                let mut agg = Aggregator::new();
                let mut driver = SessionDriver::new();
                let failed = bytes
                    .chunks(chunk)
                    .find_map(|piece| driver.push(piece, &mut agg).err());
                assert!(
                    matches!(failed, Some(SessionError::Wire(_))),
                    "{name}/{chunk}: {failed:?}"
                );
                assert_eq!(driver.frames_delivered(), 0, "{name}/{chunk}");
                assert_eq!(driver.session_id(), None, "{name}/{chunk}");
                assert_eq!(agg.collector_count(), 0, "{name}/{chunk}");
            }
        }
    }

    #[test]
    fn session_driver_rejects_garbage_without_touching_the_aggregator() {
        let mut agg = Aggregator::new();
        let mut driver = SessionDriver::new();
        assert!(matches!(
            driver.push(b"GARBAGE, NOT A FRAME", &mut agg),
            Err(SessionError::Wire(WireError::BadMagic))
        ));
        assert_eq!(driver.frames_delivered(), 0);
        driver.abort(&mut agg);
        assert_eq!(agg.collector_count(), 0);
    }

    #[test]
    fn session_driver_mid_frame_eof_aborts_cleanly() {
        // A session that dies mid-frame must report the failure and be
        // removable, leaving the aggregator as if it never connected.
        let pipe = session_pipe(
            Collector::new_sequenced(8, config()),
            &keyed_points(5000, 8),
        );
        let mut agg = Aggregator::new();
        let mut driver = SessionDriver::new();
        // Cut inside the final frame: earlier frames land, the cut one
        // doesn't.
        driver
            .push(&pipe[..pipe.len() - 3], &mut agg)
            .expect("whole frames are fine");
        assert!(driver.frames_delivered() > 0);
        assert!(matches!(
            driver.finish(&agg),
            Err(SessionError::MidFrameEof)
        ));
        assert_eq!(agg.collector_count(), 1, "partial frames were fed");
        driver.abort(&mut agg);
        assert_eq!(agg.collector_count(), 0, "abort rolls the session back");
    }

    #[test]
    fn sequenced_eof_without_bye_fails_instead_of_completing() {
        // A sequenced session torn at a frame boundary (clean EOF, no
        // Bye) must fail — its peer will resume; completing it would
        // mark the id delivered and reject the resumption as a spoof.
        let mut collector = Collector::new_sequenced(3, config());
        collector.offer_batch(&keyed_points(2000, 8));
        collector.seal_flush();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame(&collector.hello()));
        for (_, b) in collector.unsent_window(0) {
            bytes.extend_from_slice(b);
        }
        let mut agg = Aggregator::new();
        let mut driver = SessionDriver::new();
        driver.push(&bytes, &mut agg).expect("whole frames");
        assert!(matches!(
            driver.finish(&agg),
            Err(SessionError::SequencedEof(3))
        ));
        // With the Bye replayed on a second connection, it completes.
        collector.seal_finish();
        let mut rest = Vec::new();
        rest.extend_from_slice(&encode_frame(&collector.hello()));
        for (_, b) in collector.unsent_window(0) {
            rest.extend_from_slice(b);
        }
        let mut driver2 = SessionDriver::new();
        driver2.push(&rest, &mut agg).expect("replay");
        driver2.finish(&agg).expect("bye applied");
        assert!(agg.session_done(3));
    }

    #[test]
    fn session_driver_abort_rolls_back_every_id_it_fed() {
        // One connection re-Helloing under a second id before dying:
        // abort must remove *both* ids' state, not just the latest.
        let mut engine = MonitorEngine::new(config());
        engine.offer_batch(&keyed_points(2000, 4));
        let delta = Frame::Delta(engine.snapshot());
        let mut bytes = Vec::new();
        for id in [10, 11] {
            bytes.extend_from_slice(&encode_frame(&hello_frame(id)));
            bytes.extend_from_slice(&encode_frame_seq(0, &delta));
        }
        let mut agg = Aggregator::new();
        let mut driver = SessionDriver::new();
        driver.push(&bytes, &mut agg).expect("valid frames");
        assert_eq!(agg.collector_count(), 2);
        driver.abort(&mut agg);
        assert_eq!(agg.collector_count(), 0, "both fed ids rolled back");
    }

    #[test]
    fn redelivered_delta_is_idempotent() {
        // Deltas are cumulative: the same one applied at two
        // consecutive seqs must not double-count (replacement, not
        // merge).
        let mut engine = MonitorEngine::new(config());
        engine.offer_batch(&keyed_points(5000, 8));
        let delta = Frame::Delta(engine.snapshot());
        let mut once = Aggregator::new();
        once.feed_seq(3, None, hello_frame(3)).unwrap();
        once.feed_seq(3, Some(0), delta.clone()).unwrap();
        let mut twice = Aggregator::new();
        twice.feed_seq(3, None, hello_frame(3)).unwrap();
        for seq in [0, 1] {
            assert_eq!(
                twice.feed_seq(3, Some(seq), delta.clone()).unwrap(),
                SeqOutcome::Applied
            );
        }
        assert_eq!(once.snapshot(), twice.snapshot());
        assert_eq!(once.snapshot(), engine.snapshot());
    }

    /// Checks the frames a seal (or resync) just added to `c`'s window
    /// against the comparison rule, moving `shipped` — the model of
    /// the aggregator's live view — along. Returns how many entries
    /// shipped as diffs, and cumulatively as first sightings, as
    /// undiffable pairs, as diffs not strictly smaller, and after
    /// diffing stopped.
    fn check_window(
        c: &Collector,
        from_seq: u64,
        shipped: &mut BTreeMap<u64, StreamEntry>,
    ) -> [usize; 5] {
        let live: BTreeMap<u64, StreamEntry> = c
            .engine()
            .snapshot()
            .into_streams()
            .into_iter()
            .map(|e| (e.key, e))
            .collect();
        let diffing = c.resyncs() <= RESYNC_DIFF_LIMIT;
        let mut counts = [0; 5];
        for (_, bytes) in c.unsent_window(from_seq) {
            let mut dec = FrameDecoder::new();
            dec.push(bytes);
            let frame = dec.next_seq_frame().unwrap().unwrap().frame;
            match frame {
                Frame::Evicted(finals) => {
                    for e in finals {
                        shipped.remove(&e.key);
                    }
                }
                Frame::FullSnapshot(snap) => {
                    assert_eq!(snap.streams(), c.engine().snapshot().streams());
                    shipped.clear();
                    shipped.extend(snap.into_streams().into_iter().map(|e| (e.key, e)));
                }
                Frame::DeltaDiff(diffs) => {
                    assert!(diffing, "no diff ships once diffing stopped");
                    for d in diffs {
                        let now = &live[&d.key];
                        let base = shipped.get(&d.key).expect("a diff has a shipped base");
                        assert_eq!(Some(&d), crate::diff_entry(base, now).as_ref());
                        shipped.insert(d.key, now.clone());
                        counts[0] += 1;
                    }
                }
                Frame::Delta(snap) => {
                    for e in snap.into_streams() {
                        assert_eq!(&e, &live[&e.key]);
                        let reason = match shipped.get(&e.key) {
                            _ if !diffing => 4,
                            None => 1,
                            Some(base) => match crate::diff_entry(base, &e) {
                                None => 2,
                                Some(d) => {
                                    let s = &e.summary;
                                    let rungs = s.tail.raw_parts().0.len();
                                    let full = crate::codec::encoded_entry_len(
                                        &s.hurst,
                                        s.reservoir.items.len(),
                                        rungs,
                                    );
                                    assert!(
                                        encoded_diff_len(&d) >= full,
                                        "key {} shipped cumulatively though its diff is smaller",
                                        e.key
                                    );
                                    3
                                }
                            },
                        };
                        counts[reason] += 1;
                        shipped.insert(e.key, e);
                    }
                }
                Frame::Bye => {}
                other => panic!("unexpected {} frame", other.kind_name()),
            }
        }
        counts
    }

    #[test]
    fn journaled_seal_ships_what_the_comparison_rule_would() {
        // Seeded op sequences on a collector: batches with repeated
        // values (slots rewritten with equal values), sweeps whose
        // compaction prunes cascade levels that later regrow, idle
        // eviction and re-appearance, resyncs at random seals, and
        // reservoir capacities either side of 64. After every seal the
        // sealed frames must be exactly what comparing each key's
        // current entry with its last shipped entry decides.
        let (mut stopped, mut not_smaller) = (0, 0);
        let arms = [
            (1u64, 64usize, true),
            (2, 200, false),
            (3, 64, false),
            (4, 200, true),
        ];
        for (seed, capacity, compacting) in arms {
            let mut config = MonitorConfig::default()
                .sampler(SamplerSpec::Bss {
                    interval: 3,
                    epsilon: 1.0,
                    n_pre: 8,
                    l: 2,
                })
                .seed(seed)
                .shards(2)
                .reservoir_capacity(capacity)
                .evict_idle_after(3_000)
                .sweep_every(2_500);
            if compacting {
                config = config.compact_budget(900);
            }
            let mut c = Collector::new_sequenced(1, config);
            let mut shipped = BTreeMap::new();
            let mut totals = [0; 5];
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            for round in 0..100u64 {
                // A hot set, plus a warm set that rotates away (and
                // idles out) and comes back every 8 rounds, plus a key
                // first seen with one point whose burst next round
                // outgrows what it shipped.
                let warm = 100 + (round / 2 % 4) * 10;
                let mut batch: Vec<(u64, f64)> = (0..200 + next(1800))
                    .map(|_| {
                        let key = if next(3) == 0 {
                            next(12)
                        } else {
                            warm + next(10)
                        };
                        (key, [40.0, 576.0, 1500.0, 1500.0][next(4) as usize])
                    })
                    .collect();
                batch.push((1_000 + round, 40.0));
                batch.extend((0..900).map(|i| (999 + round, f64::from(40 + i % 7))));
                c.offer_batch(&batch);
                let from_seq = c.next_seq();
                if next(25) == 0 {
                    c.handle_resync(next(from_seq + 1));
                } else {
                    c.seal_flush();
                }
                let counts = check_window(&c, from_seq, &mut shipped);
                for (t, n) in totals.iter_mut().zip(counts) {
                    *t += n;
                }
                c.ack(c.next_seq().saturating_sub(1));
            }
            let [diffs, first, undiffable, larger, after_limit] = totals;
            not_smaller += larger;
            assert!(diffs > 200, "seed {seed}: {diffs} diffs");
            assert!(first > 30, "seed {seed}: {first} first sightings");
            assert_eq!(
                undiffable > 0,
                compacting,
                "seed {seed}: {undiffable} undiffable"
            );
            assert!(c.engine().lifecycle_stats().evicted > 0, "seed {seed}");
            if c.resyncs() > RESYNC_DIFF_LIMIT {
                // Once diffing stops, no stream keeps a ship record.
                assert!(after_limit > 0);
                stopped += 1;
                assert!(c.engine.live_states_mut().all(|(_, st)| !st.is_shipped()));
            }
        }
        assert!(stopped > 0, "some session outlives its diffing");
        assert!(not_smaller > 0, "no diff lost on size");
    }
}
