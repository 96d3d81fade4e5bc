//! # sst-monitor — layered online monitoring with mergeable summaries
//!
//! `sst-core`'s samplers are one implementation each
//! ([`sst_core::stream`]), which the offline reproduction drives over a
//! slice; this crate is the deployable side: a push-based engine that
//! feeds them one point at a time, multiplexing thousands of concurrent
//! keyed streams (OD flows, link ids, 5-tuples) over
//! [`sst_core::stream::StreamSampler`]s, and keeps, per
//! stream and with bounded memory, Welford moments, a mergeable
//! reservoir, online dyadic variance-time Hurst state, and
//! tail-exceedance counters.
//!
//! ## Collector topology — the five layers
//!
//! ```text
//!            keyed points (k, v)
//!                  │
//!  ┌───────────────▼───────────────┐
//!  │ ingest    shard routing,      │  SamplerSpec, ShardSet
//!  │           per-stream samplers │
//!  ├───────────────────────────────┤
//!  │ lifecycle eviction (idle/LRU) │  LifecycleConfig, Compactable
//!  │           + compaction        │  final snapshots on evict
//!  ├───────────────────────────────┤
//!  │ wire      v4 frames           │  Hello/Delta/DeltaDiff/
//!  │           (length-prefixed)   │  FullSnapshot/Evicted/Bye
//!  ├───────────────────────────────┤
//!  │ topology  Collector ⇒         │  N processes ⇒ one merged
//!  │           Aggregator          │  state, interleaving-proof,
//!  │           SessionDriver       │  per-session state machine
//!  ├───────────────────────────────┤
//!  │ transport epoll event loops,  │  UDS + TCP listeners, hostile
//!  │           1 or 1/core, one    │  sessions isolated, no mutex;
//!  │           accept dispatcher   │  per-loop aggs merge at the end
//!  └───────────────────────────────┘
//! ```
//!
//! [`MonitorEngine`] (in [`engine`]) is the facade over the top two
//! layers and keeps the original single-process API; [`wire`] and
//! [`topology`] extend it across process boundaries, and [`transport`]
//! puts it on real sockets: [`transport::MultiLoopServer`] accepts
//! Unix-domain and TCP collector sessions on one dispatcher and shards
//! them across `epoll(7)` event loops ([`transport::EventLoopServer`]),
//! one per core or just one — one bad session is isolated and
//! logged, never fatal. Per-loop [`topology::Aggregator`]s merge at
//! snapshot time via [`topology::AggregatorSet`]; spoof rejection
//! stays global through the shared [`topology::AdmissionRegistry`].
//!
//! ## The merge-equivalence guarantee
//!
//! Streams are routed to shards by key hash and every per-stream
//! computation depends only on `(base_seed, key)` and that stream's
//! point order, so:
//!
//! * an [`MonitorEngine`] snapshot is **bit-for-bit identical** for any
//!   shard count (N ∈ {1, 2, 8} pinned by the integration tests),
//! * [`EngineSnapshot::merge`] combines engines watching disjoint key
//!   sets associatively — shard → link → network roll-ups all yield the
//!   bits a single unsharded engine would have produced, and
//! * the same holds **across the wire**: collectors streaming frames to
//!   an [`topology::Aggregator`] assemble to the single-engine bits
//!   (pinned over in-memory pipes and Unix sockets).
//!
//! Eviction emits a final snapshot per retired stream, so bounded
//! memory never costs totals; compaction ([`sst_core::summary::Compactable`])
//! prunes reservoirs and coarse Hurst levels toward a per-stream byte
//! budget.
//!
//! ## Example
//!
//! ```
//! use sst_monitor::{MonitorConfig, MonitorEngine, SamplerSpec};
//!
//! let mut engine = MonitorEngine::new(
//!     MonitorConfig::default()
//!         .sampler(SamplerSpec::Bss { interval: 20, epsilon: 1.0, n_pre: 16, l: 4 })
//!         .shards(8)
//!         .seed(7)
//!         .max_streams(64)        // LRU-evict beyond 64 live streams
//!         .compact_budget(1024),  // keep each summary under ~1 KB
//! );
//! // 100 concurrent streams, multiplexed arrivals.
//! for i in 0..200_000u64 {
//!     let key = i % 100;
//!     let value = if i % 970 < 30 { 900.0 } else { 10.0 };
//!     engine.offer(key, value);
//! }
//! // Live streams are LRU-bounded; evicted finals keep totals exact.
//! engine.maintain();
//! assert!(engine.stream_count() <= 64);
//! let full = engine.full_snapshot();
//! assert_eq!(full.sampler_totals().offered, 200_000);
//! // Snapshots serialize losslessly for collectors.
//! let bytes = sst_monitor::encode_snapshot(&engine.snapshot());
//! assert_eq!(
//!     sst_monitor::decode_snapshot(&bytes).unwrap(),
//!     engine.snapshot()
//! );
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is the
// minimal `epoll(7)` FFI in `transport::sys`, which carries
// its own narrowly-scoped `#[allow(unsafe_code)]` and safety comments.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod diff;
pub mod engine;
pub mod fault;
pub mod ingest;
pub mod lifecycle;
pub mod retry;
pub mod sketch;
pub mod summary;
pub mod topology;
pub mod transport;
pub mod wire;

pub use codec::{decode_snapshot, encode_snapshot, SnapshotCodecError};
pub use diff::{apply_diff, diff_entry, BaseFingerprint, StreamDiff};
pub use engine::{EngineSnapshot, MonitorConfig, MonitorEngine, SamplerSpec, StreamEntry};
pub use fault::{FaultPlan, FaultyLink};
pub use lifecycle::{LifecycleConfig, LifecycleStats};
pub use retry::{Backoff, SequencedSender};
pub use sketch::{SketchSnapshot, TierConfig, TierStats};
pub use summary::{StreamSummary, SummaryConfig, SummarySnapshot};
pub use topology::{
    AdmissionRegistry, Aggregator, AggregatorSet, Collector, SessionDriver, SessionError,
};
pub use transport::{
    EventLoopServer, MultiLoopServer, ServeOptions, ServeReport, SessionStats, SessionStream,
};
pub use wire::{decode_frames, encode_frame, Frame, FrameDecoder, WireError, WIRE_VERSION};
