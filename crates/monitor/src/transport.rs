//! Socket transport for the collector topology: `epoll(7)` event loops
//! serving many collector sessions at once, on one loop or one loop per
//! core, behind one accept dispatcher.
//!
//! ## Why an event loop
//!
//! Sampled-NetFlow-style deployments put *hundreds* of exporters behind
//! one aggregation point; at that fan-in a thread per connection costs
//! a stack and a scheduler slot per mostly-idle socket, and a mutex
//! around the aggregator besides. The frame protocol is already
//! incremental ([`FrameDecoder`] is push-based) and the per-session
//! logic is a pure state machine ([`SessionDriver`]), so only the
//! socket layer is needed:
//!
//! * every listener and connection is non-blocking,
//! * one `epoll_wait` multiplexes all of a loop's sessions
//!   (level-triggered — a partially-drained buffer simply reports
//!   readable again, which the per-round read budget relies on),
//! * readable bytes feed each session's [`SessionDriver`], which feeds
//!   the [`Aggregator`] **directly** — no mutex,
//! * both Unix-domain and TCP listeners can serve concurrently, and
//!   pre-accepted streams can be injected for tests and benches.
//!
//! Because the aggregator keys state per session and is
//! interleaving-independent, the served snapshot is **byte-identical**
//! to an in-memory [`SessionDriver`] replay of the same sessions (and
//! to a single unsharded engine over the same points) — pinned by
//! `tests/transport_live.rs`.
//!
//! ## Serving
//!
//! [`MultiLoopServer`] is the one accept path. A dispatcher thread owns
//! the listeners and hands accepted connections round-robin to `N`
//! worker loops over SPSC queues (an in-band wake pipe makes a blocked
//! worker notice the handoff); `N = 1` is the single-loop serve. Each
//! worker owns a **private** [`Aggregator`] its sessions feed
//! lock-free; the only cross-loop state is the [`AdmissionRegistry`] —
//! consulted once per session id, not per frame — so a spoofed
//! collector id is rejected no matter which loop its victim landed on.
//! Per-loop aggregators are merged at snapshot time
//! ([`AggregatorSet`]), and the canonical merge makes the assembled
//! snapshot independent of dispatcher placement.
//!
//! [`EventLoopServer`] is one such loop standing alone, for callers
//! that accept their own connections (benches, an embedding
//! supervisor): it serves the sessions injected into it and returns its
//! one [`Aggregator`].
//!
//! ## Failure isolation
//!
//! One bad session must never kill the aggregator. A session that sends
//! garbage, speaks any wire version but v4, violates the protocol, or
//! disconnects mid-frame is recorded in the [`ServeReport`], and the
//! state it fed is parked in the [`AdmissionRegistry`] for its
//! collector to resume; everything already assembled keeps serving. A
//! peer that fails before its `Hello` fed nothing. A connect-then-close
//! probe (zero frames delivered) does not consume a collector slot.
//! The assembled snapshot is exactly the union of *completed* sessions:
//! `Hello` through `Bye`, clean EOF.
//!
//! ## Shutdown
//!
//! A serve returns when `collectors` sessions have completed, or —
//! with [`ServeOptions::accept_timeout`] — when no session delivered
//! bytes for that long (so a serve waiting on clients that never come,
//! or that stall, terminates instead of blocking forever). Both
//! conditions are global: completions count across loops, and activity
//! on any loop defers the idle deadline for all. A standalone loop also
//! returns once it has no session left to serve. Sessions still in
//! flight at shutdown are aborted and counted in
//! [`ServeReport::aborted`].
//!
//! `io_uring` (batched submission, zero-syscall steady state) is the
//! natural next step past `epoll(7)` and is tracked in the ROADMAP.
//!
//! [`FrameDecoder`]: crate::wire::FrameDecoder

use crate::topology::{AdmissionRegistry, Aggregator, AggregatorSet, Claim, SessionDriver};
use crate::wire::{encode_frame, Frame};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Minimal FFI bindings for `epoll(7)` — the one hole in the crate's
/// no-unsafe rule, confined to this module and wrapped by the safe
/// [`sys::Epoll`]. (No `libc` dependency: the workspace builds offline,
/// and a handful of `#[repr(C)]` lines beat a vendored crate.)
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;

    /// `struct epoll_event` from `<sys/epoll.h>`. On x86-64 the kernel
    /// ABI packs it (no padding between the `u32` and the `u64`);
    /// elsewhere it is naturally aligned.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        /// Ready-event bitmask (`EPOLLIN` | …).
        events: u32,
        /// The caller's token, returned verbatim with each event.
        data: u64,
    }

    /// There is input to read (interest and ready mask).
    const EPOLLIN: u32 = 0x001;
    /// Writing is possible without blocking (interest and ready mask).
    const EPOLLOUT: u32 = 0x004;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// An owned, level-triggered epoll instance: fds are watched under
    /// a caller-chosen `u64` token, and [`Epoll::wait`] reports the
    /// tokens of ready fds. The interest set lives in the kernel, so a
    /// wakeup costs O(ready), not O(watched) — the difference between
    /// draining 64 hot sessions and re-scanning 10 000 idle ones to
    /// find them. The fd is closed on drop.
    pub struct Epoll {
        epfd: RawFd,
        /// Reused event buffer; 256 ready fds per wakeup is far past
        /// the serve loop's per-round appetite.
        events: Vec<EpollEvent>,
    }

    impl Epoll {
        /// `epoll_create1(EPOLL_CLOEXEC)`.
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: no pointers involved; a plain fd-returning call.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                epfd,
                events: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` is a valid, live `#[repr(C)]` epoll_event;
            // the kernel only reads it (and ignores it for DEL).
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Starts watching `fd` for readability, tagged `token`.
        pub fn register(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, EPOLLIN)
        }

        /// Adds or removes write interest on a watched `fd` (read
        /// interest stays armed either way). The serve loop arms this
        /// only while a session has undelivered outbound bytes —
        /// level-triggered write readiness on an idle healthy socket
        /// would otherwise busy-spin the loop.
        pub fn set_writable(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            let events = if writable {
                EPOLLIN | EPOLLOUT
            } else {
                EPOLLIN
            };
            self.ctl(EPOLL_CTL_MOD, fd, token, events)
        }

        /// Stops watching `fd`.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks until ≥ 1 watched fd is readable / writable / hung
        /// up / errored, or `timeout_ms` elapses (`-1` = forever),
        /// retrying on `EINTR`. Appends the tokens of ready fds to
        /// `ready` (which the caller clears) and returns the count —
        /// `0` means timeout.
        pub fn wait(&mut self, timeout_ms: i32, ready: &mut Vec<u64>) -> io::Result<usize> {
            loop {
                // SAFETY: `events` is a valid, exclusively-borrowed
                // buffer of `#[repr(C)]` epoll_event structs; the
                // kernel writes at most `events.len()` entries.
                let rc = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.events.as_mut_ptr(),
                        self.events.len() as c_int,
                        timeout_ms as c_int,
                    )
                };
                if rc >= 0 {
                    let n = rc as usize;
                    for ev in self.events.iter().take(n) {
                        // Copy out first: the struct is packed on
                        // x86-64, so a direct field borrow would be
                        // misaligned.
                        let ev = *ev;
                        ready.push(ev.data);
                    }
                    return Ok(n);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `epfd` is an fd this struct exclusively owns.
            unsafe { close(self.epfd) };
        }
    }
}

use sys::Epoll;

/// A connected collector stream over either supported transport.
pub enum SessionStream {
    /// A Unix-domain connection.
    Unix(UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
}

impl SessionStream {
    /// Switches the socket between blocking and non-blocking mode.
    ///
    /// # Errors
    ///
    /// The underlying `fcntl`'s error.
    pub fn set_nonblocking(&self, v: bool) -> io::Result<()> {
        match self {
            SessionStream::Unix(s) => s.set_nonblocking(v),
            SessionStream::Tcp(s) => s.set_nonblocking(v),
        }
    }

    /// Sets the blocking-read timeout (`None` blocks indefinitely) —
    /// how a retrying forwarder bounds its wait for acks.
    ///
    /// # Errors
    ///
    /// The underlying `setsockopt`'s error.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            SessionStream::Unix(s) => s.set_read_timeout(t),
            SessionStream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    /// Clones the underlying socket handle (shared fd, independent
    /// cursor) — how the fault proxy splits a connection into its two
    /// shuttle directions.
    ///
    /// # Errors
    ///
    /// The underlying `dup`'s error.
    pub fn try_clone(&self) -> io::Result<SessionStream> {
        Ok(match self {
            SessionStream::Unix(s) => SessionStream::Unix(s.try_clone()?),
            SessionStream::Tcp(s) => SessionStream::Tcp(s.try_clone()?),
        })
    }

    /// Shuts down one or both halves of the connection.
    ///
    /// # Errors
    ///
    /// The underlying `shutdown`'s error.
    pub fn shutdown(&self, how: std::net::Shutdown) -> io::Result<()> {
        match self {
            SessionStream::Unix(s) => s.shutdown(how),
            SessionStream::Tcp(s) => s.shutdown(how),
        }
    }

    fn peer_label(&self) -> String {
        match self {
            SessionStream::Unix(_) => "uds".to_string(),
            SessionStream::Tcp(s) => s
                .peer_addr()
                .map(|a| format!("tcp {a}"))
                .unwrap_or_else(|_| "tcp".to_string()),
        }
    }
}

impl AsRawFd for SessionStream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            SessionStream::Unix(s) => s.as_raw_fd(),
            SessionStream::Tcp(s) => s.as_raw_fd(),
        }
    }
}

impl Read for SessionStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            SessionStream::Unix(s) => s.read(buf),
            SessionStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for SessionStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            SessionStream::Unix(s) => s.write(buf),
            SessionStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            SessionStream::Unix(s) => s.flush(),
            SessionStream::Tcp(s) => s.flush(),
        }
    }
}

impl From<UnixStream> for SessionStream {
    fn from(s: UnixStream) -> Self {
        SessionStream::Unix(s)
    }
}

impl From<TcpStream> for SessionStream {
    fn from(s: TcpStream) -> Self {
        SessionStream::Tcp(s)
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }

    /// Accepts one pending connection, `Ok(None)` when none is queued.
    fn accept(&self) -> io::Result<Option<SessionStream>> {
        let res = match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| SessionStream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| SessionStream::Tcp(s)),
        };
        match res {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            // Transient conditions (peer reset, fd exhaustion) must
            // not kill the dispatcher: losing every assembled
            // aggregator over them would be the total-loss failure
            // this transport exists to prevent. Back off briefly —
            // under EMFILE the listener stays readable, so level-
            // triggered epoll would otherwise spin hot — and retry
            // next round.
            Err(e) if accept_error_is_transient(&e) => {
                std::thread::sleep(std::time::Duration::from_millis(10));
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

/// `accept(2)` failures that indicate a transient per-connection or
/// resource condition rather than a broken listener: the peer reset
/// before we got to it (`ECONNABORTED`), or process/system fd
/// exhaustion (`EMFILE`/`ENFILE`). Callers should back off briefly and
/// keep serving — dying would discard every completed session.
fn accept_error_is_transient(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::ConnectionAborted
        // EMFILE = 24, ENFILE = 23 on every Linux ABI this targets.
        || matches!(e.raw_os_error(), Some(23) | Some(24))
}

/// The error a `read` reporting more bytes than its buffer holds ends
/// the session with — a broken reader, handled like corrupt input
/// instead of a slice-index panic.
fn short_read(n: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("read reported {n} bytes, more than its buffer holds"),
    )
}

/// How a serve run decides it is done.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Stop once this many sessions completed (≥ 1 frame delivered,
    /// clean EOF), counted across loops. Probes and failed sessions do
    /// not count.
    pub collectors: usize,
    /// Stop when no session on any loop delivered bytes for this long
    /// — the guard against clients that never connect (or stall
    /// forever). `None` waits indefinitely.
    pub accept_timeout: Option<Duration>,
}

/// One failed session, as recorded in the [`ServeReport`].
#[derive(Clone, Debug)]
pub struct SessionFailure {
    /// Transport-level peer label (`"uds"` / `"tcp <addr>"`).
    pub peer: String,
    /// The session id it had established, if any.
    pub session: Option<u64>,
    /// Human-readable failure cause.
    pub error: String,
}

/// Per-completed-session delivery counters — the observability that
/// makes multi-loop load balance inspectable (`serve
/// --report-sessions` prints one line per entry).
#[derive(Clone, Debug)]
pub struct SessionStats {
    /// Transport-level peer label (`"uds"` / `"tcp <addr>"`).
    pub peer: String,
    /// The collector id the session established, if any.
    pub session: Option<u64>,
    /// Wire bytes the session delivered.
    pub bytes: u64,
    /// Frames the session delivered.
    pub frames: usize,
    /// Wire bytes delivered in differential (`DeltaDiff`) frames.
    pub diff_bytes: u64,
    /// Wire bytes delivered in cumulative data frames (`Delta`,
    /// `FullSnapshot`, `Evicted`).
    pub full_bytes: u64,
    /// `Resync` requests the serve side issued to this session.
    pub resyncs: u64,
    /// Which serve loop pumped it (`0` on a single loop). A report's
    /// [`ServeReport::sessions`] is always sorted by `(collector id,
    /// worker)`.
    pub worker: usize,
}

/// What a serve run saw: the observability half of failure isolation.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Sessions that delivered ≥ 1 frame and closed cleanly — the ones
    /// whose state the assembled snapshot holds.
    pub completed: usize,
    /// Connect-then-close probes (clean EOF, zero frames): logged,
    /// never counted against `collectors`.
    pub probes: usize,
    /// Sessions that failed (garbage, protocol violation, mid-frame
    /// disconnect, read error); the state each fed was parked for its
    /// collector to resume.
    pub failures: Vec<SessionFailure>,
    /// Sessions still mid-stream at shutdown; the state each fed is
    /// dropped from the aggregator.
    pub aborted: usize,
    /// `true` when the run ended on `accept_timeout` instead of
    /// reaching the collector target.
    pub timed_out: bool,
    /// Per-session delivery counters for every completed session,
    /// always sorted by `(collector id, worker)` — independent of
    /// completion order and loop placement.
    pub sessions: Vec<SessionStats>,
}

impl ServeReport {
    /// Folds another loop's report into this one (counters sum,
    /// failure and session lists concatenate).
    fn absorb(&mut self, other: ServeReport) {
        self.completed += other.completed;
        self.probes += other.probes;
        self.failures.extend(other.failures);
        self.aborted += other.aborted;
        self.timed_out |= other.timed_out;
        self.sessions.extend(other.sessions);
    }
}

struct Session {
    stream: SessionStream,
    driver: SessionDriver,
    peer: String,
    /// Unique per accepted connection — the ownership token in the
    /// collector-id registry.
    token: u64,
    /// Wire bytes delivered so far (reported in [`SessionStats`]).
    bytes: u64,
    /// Outbound bytes (acks/resyncs to the collector) not yet
    /// accepted by the socket — the partial-write carry-over buffer.
    out: Vec<u8>,
    /// Whether write interest is currently armed with epoll.
    /// Tracked so the interest set is only touched on transitions.
    write_armed: bool,
}

impl Session {
    /// Pushes as much of `self.out` as the socket will take right now.
    /// `Ok(true)` when the buffer drained fully, `Ok(false)` when bytes
    /// remain (socket buffer full — write interest should be armed).
    fn flush_outbound(&mut self) -> io::Result<bool> {
        let mut written = 0usize;
        while written < self.out.len() {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => {
                    self.out.drain(..written);
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer closed mid-ack",
                    ));
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.out.drain(..written);
                    return Err(e);
                }
            }
        }
        self.out.drain(..written);
        Ok(self.out.is_empty())
    }
}

/// How one readable session left the round.
enum SessionEnd {
    /// Still open; its socket buffer is drained for now.
    Open,
    /// Clean EOF.
    Done,
    /// Dead: protocol or I/O failure.
    Failed(String),
}

/// What every loop of one serve run shares: the completion count, the
/// stop/timeout flags, the idle clock, the id-admission registry, the
/// session-token allocator, one wake pipe per worker so a loop
/// blocked in `epoll_wait` can be nudged (for a handed-off session or
/// a stop), and the dispatcher's wake pipe, nudged when a worker exits
/// or a stop is requested. A standalone [`EventLoopServer`] owns a
/// private one, so each stop condition has one code path.
struct ServeShared {
    start: Instant,
    completed: AtomicUsize,
    stop: AtomicBool,
    timed_out: AtomicBool,
    /// Milliseconds after `start` of the latest byte delivery, on any
    /// loop. (Accepting alone is *not* activity — see the dispatcher.)
    last_activity_ms: AtomicU64,
    /// Spoofed-id admission, consulted by every loop.
    admission: AdmissionRegistry,
    /// Session-token allocator — shared across loops so tokens stay
    /// globally unique (they are the admission ownership handles).
    next_token: AtomicU64,
    /// Write ends of each worker's wake pipe, by worker index (none
    /// for a standalone loop).
    wakers: Vec<UnixStream>,
    /// Workers whose `run()` returned (so the dispatcher does not wait
    /// for handoffs nobody will take).
    exited: AtomicUsize,
    /// Write end of the dispatcher's wake pipe (none for a standalone
    /// loop).
    dispatcher_waker: Option<UnixStream>,
}

impl ServeShared {
    fn new(wakers: Vec<UnixStream>, dispatcher_waker: Option<UnixStream>) -> ServeShared {
        ServeShared {
            start: Instant::now(),
            completed: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            last_activity_ms: AtomicU64::new(0),
            admission: AdmissionRegistry::new(),
            next_token: AtomicU64::new(TOKEN_BASE),
            wakers,
            exited: AtomicUsize::new(0),
            dispatcher_waker,
        }
    }

    /// Nudges worker `i` out of its `epoll_wait`. A full pipe is fine
    /// — the worker is waking anyway.
    fn wake(&self, i: usize) {
        if let Some(mut w) = self.wakers.get(i) {
            let _ = w.write(&[1]);
        }
    }

    fn wake_all(&self) {
        for mut w in &self.wakers {
            let _ = w.write(&[1]);
        }
    }

    /// Nudges the dispatcher out of its `epoll_wait` to recheck the
    /// stop and exit flags.
    fn wake_dispatcher(&self) {
        if let Some(mut w) = self.dispatcher_waker.as_ref() {
            let _ = w.write(&[1]);
        }
    }

    /// Records one completed session; returns the new global count.
    fn record_completed(&self) -> usize {
        self.completed.fetch_add(1, Ordering::SeqCst) + 1
    }

    fn note_activity(&self) {
        self.last_activity_ms
            .store(self.start.elapsed().as_millis() as u64, Ordering::SeqCst);
    }

    /// How long since the last byte delivery on any loop.
    fn idle_for(&self) -> Duration {
        let last = Duration::from_millis(self.last_activity_ms.load(Ordering::SeqCst));
        self.start.elapsed().saturating_sub(last)
    }

    fn request_stop(&self, timed_out: bool) {
        if timed_out {
            self.timed_out.store(true, Ordering::SeqCst);
        }
        self.stop.store(true, Ordering::SeqCst);
        self.wake_all();
        self.wake_dispatcher();
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A worker loop's session intake: the dispatcher's SPSC handoff queue
/// plus the read end of the wake pipe that makes a blocked worker
/// notice a handoff (or a stop).
struct Intake {
    rx: mpsc::Receiver<SessionStream>,
    wake: UnixStream,
    /// `false` once the dispatcher dropped its sender — no further
    /// sessions can ever arrive. (The wake fd stays registered: stop
    /// broadcasts still travel through it.)
    open: bool,
}

/// Swallows every pending byte of a wake pipe's read end. `Ok(false)`
/// means EOF: every write end is gone.
fn drain_wake(mut wake: &UnixStream) -> io::Result<bool> {
    let mut buf = [0u8; 64];
    loop {
        match wake.read(&mut buf) {
            Ok(0) => return Ok(false),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// A loop's token space: sessions get unique tokens from
/// [`TOKEN_BASE`] up and the intake wake pipe takes the top value, so
/// one `u64` names either. (The dispatcher's own epoll names listeners
/// by index and its wake pipe by the top value too.)
const TOKEN_WAKE: u64 = u64::MAX;

/// First session token. Tokens only need to be unique and to stay
/// below [`TOKEN_WAKE`].
const TOKEN_BASE: u64 = 1 << 32;

/// One serve loop: per-connection [`SessionDriver`]s over one
/// exclusively-owned [`Aggregator`] and one epoll instance — see the
/// module docs. [`MultiLoopServer`] runs one per worker; standing
/// alone, a loop serves the connections its caller accepted
/// ([`EventLoopServer::add_session`]).
///
/// ```no_run
/// use sst_monitor::topology::Aggregator;
/// use sst_monitor::transport::{EventLoopServer, ServeOptions};
/// use std::os::unix::net::UnixStream;
///
/// let mut server = EventLoopServer::new(
///     Aggregator::new(),
///     ServeOptions { collectors: 1, accept_timeout: Some(std::time::Duration::from_secs(30)) },
/// );
/// let (collector_end, serve_end) = UnixStream::pair()?;
/// server.add_session(serve_end)?;
/// // … a collector streams its session into `collector_end` …
/// # drop(collector_end);
/// let (agg, report) = server.run()?;
/// let snapshot = agg.snapshot();
/// # std::io::Result::Ok(())
/// ```
pub struct EventLoopServer {
    /// Keyed by session token — stable across removals, unlike the
    /// old `Vec` + swap-remove indexing.
    sessions: BTreeMap<u64, Session>,
    agg: Aggregator,
    opts: ServeOptions,
    report: ServeReport,
    /// This loop's index, stamped into [`SessionStats::worker`].
    worker: usize,
    /// Stop conditions, admission and token allocation: shared across
    /// a [`MultiLoopServer`]'s loops, private to a standalone loop.
    shared: Arc<ServeShared>,
    /// Dispatcher handoff queue; `None` when serving standalone.
    intake: Option<Intake>,
}

impl EventLoopServer {
    /// A standalone serve loop that will assemble into `agg`
    /// (pre-configure its retired-store cap and sketch budget there)
    /// under the given stop conditions.
    pub fn new(agg: Aggregator, opts: ServeOptions) -> Self {
        let shared = Arc::new(ServeShared::new(Vec::new(), None));
        Self::with_shared(agg, opts, 0, shared, None)
    }

    /// Loop `worker` of a serve run coordinated through `shared`.
    fn with_shared(
        agg: Aggregator,
        opts: ServeOptions,
        worker: usize,
        shared: Arc<ServeShared>,
        intake: Option<Intake>,
    ) -> Self {
        EventLoopServer {
            sessions: BTreeMap::new(),
            agg,
            opts,
            report: ServeReport::default(),
            worker,
            shared,
            intake,
        }
    }

    /// Registers an already-accepted connection (tests, benches, or a
    /// supervisor that does its own accepting).
    ///
    /// # Errors
    ///
    /// The `set_nonblocking` I/O error.
    pub fn add_session(&mut self, stream: impl Into<SessionStream>) -> io::Result<()> {
        self.install_session(stream.into())?;
        Ok(())
    }

    /// Makes `stream` a tracked session and returns its token (the
    /// caller registers the fd with epoll when the loop is live).
    fn install_session(&mut self, stream: SessionStream) -> io::Result<u64> {
        stream.set_nonblocking(true)?;
        // Globally unique even across loops, so it doubles as the
        // ownership token in the shared id registry.
        let token = self.shared.next_token.fetch_add(1, Ordering::SeqCst);
        let driver = SessionDriver::new();
        let peer = stream.peer_label();
        self.sessions.insert(
            token,
            Session {
                stream,
                driver,
                peer,
                token,
                bytes: 0,
                out: Vec::new(),
                write_armed: false,
            },
        );
        Ok(token)
    }

    /// Runs the loop to completion and returns the assembled
    /// aggregator plus the session report.
    ///
    /// # Errors
    ///
    /// Only loop-fatal I/O errors: epoll creation or the wait syscall.
    /// Per-session errors never surface here — they are isolated into
    /// [`ServeReport::failures`].
    pub fn run(mut self) -> io::Result<(Aggregator, ServeReport)> {
        let mut epoll = Epoll::new()?;
        for (&token, s) in &self.sessions {
            epoll.register(s.stream.as_raw_fd(), token)?;
        }
        if let Some(intake) = &self.intake {
            epoll.register(intake.wake.as_raw_fd(), TOKEN_WAKE)?;
        }
        let shared = Arc::clone(&self.shared);
        // The idle clock starts when the loop does.
        shared.note_activity();
        let mut ready: Vec<u64> = Vec::new();
        loop {
            // This or another loop reached the target or the idle
            // deadline.
            if shared.stopped() || shared.completed.load(Ordering::SeqCst) >= self.opts.collectors {
                break;
            }
            // No open session and no dispatcher that may still hand
            // one over: no event can ever arrive, so waiting would
            // hang forever. (Not a timeout — `completed < collectors`
            // in the report already tells the caller the target was
            // unreachable.)
            if self.sessions.is_empty() && !self.intake.as_ref().is_some_and(|i| i.open) {
                break;
            }
            let timeout_ms = match self.opts.accept_timeout {
                Some(t) => {
                    let idle = shared.idle_for();
                    if idle >= t {
                        shared.request_stop(true);
                        break;
                    }
                    // +1 so a sub-millisecond remainder still sleeps
                    // instead of spinning; clamped below i32::MAX so
                    // a ~25-day timeout can't overflow into the
                    // negative-means-infinite encoding.
                    (t - idle).as_millis().min(i32::MAX as u128 - 1) as i32 + 1
                }
                None => -1,
            };
            ready.clear();
            if epoll.wait(timeout_ms, &mut ready)? == 0 {
                continue; // Timeout tick; the deadline check above decides.
            }
            // Ascending token order: sessions oldest-accepted first,
            // the wake pipe last — a deterministic sweep (epoll
            // reports in readiness order, which tests must not depend
            // on).
            ready.sort_unstable();
            for &token in &ready {
                if token == TOKEN_WAKE {
                    self.drain_intake(&epoll)?;
                } else {
                    self.pump_ready_session(token, &epoll)?;
                }
            }
        }
        // Shutdown: roll back sessions still mid-stream so the snapshot
        // is exactly the completed sessions (probes have nothing fed).
        // Every session that sent its `Hello` gets a best-effort
        // Shutdown frame first — the graceful-drain notice that tells a
        // retrying forwarder to reconnect (and resync) instead of
        // waiting on acks that will never come.
        for (_, mut session) in std::mem::take(&mut self.sessions) {
            if session.driver.session_id().is_some() {
                let _ = session.stream.write(&encode_frame(&Frame::Shutdown));
            }
            if session.driver.frames_delivered() > 0 {
                session.driver.abort(&mut self.agg);
                self.report.aborted += 1;
            }
        }
        self.report.timed_out = shared.timed_out.load(Ordering::SeqCst);
        self.report.sessions.sort_by_key(|s| (s.session, s.worker));
        Ok((self.agg, self.report))
    }

    /// Handles a wake-pipe readiness: swallows the wake bytes and
    /// takes every handed-off session out of the intake queue.
    fn drain_intake(&mut self, epoll: &Epoll) -> io::Result<()> {
        let Some(intake) = self.intake.as_mut() else {
            return Ok(());
        };
        if !drain_wake(&intake.wake)? {
            // Every waker write end is gone (teardown): drop out of
            // the interest set or level-triggered epoll would spin on
            // the EOF.
            epoll.deregister(intake.wake.as_raw_fd())?;
            intake.open = false;
        }
        while let Some(intake) = self.intake.as_mut() {
            match intake.rx.try_recv() {
                Ok(stream) => {
                    let fd = stream.as_raw_fd();
                    let t = self.install_session(stream)?;
                    epoll.register(fd, t)?;
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    // The dispatcher hung up: no more sessions, ever.
                    // The wake fd stays registered — stop broadcasts
                    // still arrive through it.
                    intake.open = false;
                    break;
                }
            }
        }
        Ok(())
    }

    /// Pumps one ready session and settles its fate: still open,
    /// completed (counted, its ids sealed), or failed (parked for
    /// resumption, its open ids released and the failure recorded).
    fn pump_ready_session(&mut self, token: u64, epoll: &Epoll) -> io::Result<()> {
        let Some(session) = self.sessions.get_mut(&token) else {
            return Ok(());
        };
        // Write half first: if this wakeup is a write-readiness for a
        // previously-full socket buffer, drain the carried-over acks
        // before reading more (the collector's in-flight window is
        // waiting on them).
        if !session.out.is_empty() {
            if let Err(e) = session.flush_outbound() {
                self.settle_failed(token, epoll, format!("write: {e}"))?;
                return Ok(());
            }
        }
        let (end, bytes_read) = Self::pump(session, &mut self.agg, &self.shared.admission);
        session.bytes += bytes_read as u64;
        if bytes_read > 0 {
            self.shared.note_activity();
        }
        match end {
            SessionEnd::Open => {
                // Queue whatever the driver produced this round
                // (acks/resyncs), push what the socket will take now,
                // and arm/disarm write interest on transitions only.
                let fresh = session.driver.take_outbound();
                session.out.extend_from_slice(&fresh);
                if !session.out.is_empty() {
                    if let Err(e) = session.flush_outbound() {
                        self.settle_failed(token, epoll, format!("write: {e}"))?;
                        return Ok(());
                    }
                }
                let want = !session.out.is_empty();
                if want != session.write_armed {
                    epoll.set_writable(session.stream.as_raw_fd(), token, want)?;
                    session.write_armed = want;
                }
            }
            SessionEnd::Done => {
                let Some(session) = self.sessions.remove(&token) else {
                    // Already settled — a failure path raced this ready
                    // event; there is nothing left to tear down.
                    return Ok(());
                };
                epoll.deregister(session.stream.as_raw_fd())?;
                if session.driver.frames_delivered() > 0 {
                    self.report.completed += 1;
                    // Its ids are spoken for within this run: a later
                    // claimant would be a spoof.
                    self.shared.admission.complete(session.driver.fed_ids());
                    self.report.sessions.push(SessionStats {
                        peer: session.peer.clone(),
                        session: session.driver.session_id(),
                        bytes: session.bytes,
                        frames: session.driver.frames_delivered(),
                        diff_bytes: session.driver.diff_bytes(),
                        full_bytes: session.driver.full_bytes(),
                        resyncs: session.driver.resyncs(),
                        worker: self.worker,
                    });
                    if self.shared.record_completed() >= self.opts.collectors {
                        self.shared.request_stop(false);
                    }
                } else {
                    self.report.probes += 1;
                }
            }
            SessionEnd::Failed(error) => {
                self.settle_failed(token, epoll, error)?;
            }
        }
        Ok(())
    }

    /// Settles a failed session. The per-collector state it fed is
    /// *parked* in the shared admission registry — keyed by collector
    /// id, so the retrying forwarder can resume it from any loop —
    /// with its delivery watermark intact; replayed frames at or below
    /// the watermark will be skipped, which is what makes the retry
    /// idempotent rather than double-counted. A session that failed
    /// before its `Hello` fed nothing.
    fn settle_failed(&mut self, token: u64, epoll: &Epoll, error: String) -> io::Result<()> {
        let Some(session) = self.sessions.remove(&token) else {
            // Already settled by an earlier error on the same tick.
            return Ok(());
        };
        epoll.deregister(session.stream.as_raw_fd())?;
        let admission = &self.shared.admission;
        for id in session.driver.fed_ids() {
            if let Some(parked) = self.agg.park_collector(id) {
                admission.suspend(id, parked);
            }
        }
        // Free any ids still merely *open* under this session's token
        // (parked ids moved to Suspended above and are kept) so the
        // collector can reconnect and resend cumulative state.
        admission.release(session.token);
        self.report.failures.push(SessionFailure {
            peer: session.peer.clone(),
            session: session.driver.session_id(),
            error,
        });
        Ok(())
    }

    /// Per-session byte budget for one readiness round. A firehose
    /// peer whose data arrives faster than we drain it would otherwise
    /// keep `read` returning data forever and monopolize the loop;
    /// capping the round leaves the fd readable for level-triggered
    /// epoll and lets every other session make progress in between.
    const MAX_ROUND_BYTES: usize = 4 << 20;

    /// Drains one readable session's socket buffer into its driver —
    /// up to [`Self::MAX_ROUND_BYTES`] per round — returning how it
    /// ended plus the bytes read (the caller's idle-deadline currency
    /// — EOF-only rounds deliver nothing). Frames pass the
    /// id-admission registry before they apply, so a session claiming
    /// an id another session owns — even one on a different loop —
    /// fails *before* it can touch that collector's state.
    fn pump(
        session: &mut Session,
        agg: &mut Aggregator,
        admission: &AdmissionRegistry,
    ) -> (SessionEnd, usize) {
        let token = session.token;
        let mut admit = |id: u64, agg: &mut Aggregator| match admission.claim(id, token) {
            Claim::New => true,
            // A suspended collector parked by a failed session
            // (possibly on another loop): restore its state —
            // delivery watermark included — into *this* loop's
            // aggregator before the first frame applies.
            Claim::Resumed(parked) => {
                agg.restore_collector(id, *parked);
                true
            }
            Claim::Rejected => false,
        };
        let mut buf = [0u8; 64 * 1024];
        let mut total = 0usize;
        loop {
            match session.stream.read(&mut buf) {
                Ok(0) => {
                    let end = match session.driver.finish(agg) {
                        Ok(()) => SessionEnd::Done,
                        Err(e) => SessionEnd::Failed(e.to_string()),
                    };
                    return (end, total);
                }
                Ok(n) => {
                    let Some(bytes) = buf.get(..n) else {
                        return (SessionEnd::Failed(short_read(n).to_string()), total);
                    };
                    total += n;
                    if let Err(e) = session.driver.push_admitted(bytes, agg, &mut admit) {
                        return (SessionEnd::Failed(e.to_string()), total);
                    }
                    if total >= Self::MAX_ROUND_BYTES {
                        return (SessionEnd::Open, total);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return (SessionEnd::Open, total)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return (SessionEnd::Failed(format!("read: {e}")), total),
            }
        }
    }
}

/// The serve front end: a dispatcher thread accepts and hands
/// connections round-robin to `N` worker [`EventLoopServer`]s (one per
/// core; `N = 1` is the single-loop serve), each owning a private
/// [`Aggregator`]; the admission registry is the only state shared
/// while bytes flow, and the per-loop aggregators merge at snapshot
/// time ([`AggregatorSet`]) — see the module docs.
///
/// ```no_run
/// use sst_monitor::topology::Aggregator;
/// use sst_monitor::transport::{MultiLoopServer, ServeOptions};
/// use std::os::unix::net::UnixListener;
///
/// let mut server = MultiLoopServer::new(
///     (0..4).map(|_| Aggregator::new()).collect(),
///     ServeOptions { collectors: 64, accept_timeout: Some(std::time::Duration::from_secs(30)) },
/// );
/// server.add_unix_listener(UnixListener::bind("/tmp/agg.sock")?)?;
/// let (aggs, report) = server.run()?;
/// assert_eq!(report.completed, 64);
/// let snapshot = aggs.snapshot();
/// # std::io::Result::Ok(())
/// ```
pub struct MultiLoopServer {
    aggs: Vec<Aggregator>,
    opts: ServeOptions,
    listeners: Vec<Listener>,
    /// Pre-accepted sessions (tests, benches), dealt round-robin to
    /// the workers before the loops start.
    pre: Vec<SessionStream>,
}

impl MultiLoopServer {
    /// A serve with one worker loop per aggregator in `aggs`
    /// (pre-configure retired-store caps and sketch budgets there).
    pub fn new(aggs: Vec<Aggregator>, opts: ServeOptions) -> Self {
        MultiLoopServer {
            aggs,
            opts,
            listeners: Vec::new(),
            pre: Vec::new(),
        }
    }

    /// Registers a Unix-domain listener (switched to non-blocking);
    /// the dispatcher owns it.
    ///
    /// # Errors
    ///
    /// The `set_nonblocking` I/O error.
    pub fn add_unix_listener(&mut self, l: UnixListener) -> io::Result<()> {
        l.set_nonblocking(true)?;
        self.listeners.push(Listener::Unix(l));
        Ok(())
    }

    /// Registers a TCP listener (switched to non-blocking); the
    /// dispatcher owns it.
    ///
    /// # Errors
    ///
    /// The `set_nonblocking` I/O error.
    pub fn add_tcp_listener(&mut self, l: TcpListener) -> io::Result<()> {
        l.set_nonblocking(true)?;
        self.listeners.push(Listener::Tcp(l));
        Ok(())
    }

    /// Injects an already-accepted connection; it is assigned to a
    /// worker round-robin before the loops start.
    pub fn add_session(&mut self, stream: impl Into<SessionStream>) {
        self.pre.push(stream.into());
    }

    /// Runs dispatcher and workers to completion; returns the
    /// per-loop aggregators (merge with [`AggregatorSet::snapshot`])
    /// and the fused report.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when constructed with zero aggregators;
    /// otherwise only loop-fatal I/O errors (epoll creation, the wait
    /// syscall, listener accept), from whichever thread hit one first.
    /// Per-session errors are isolated into [`ServeReport::failures`].
    pub fn run(self) -> io::Result<(AggregatorSet, ServeReport)> {
        let MultiLoopServer {
            aggs,
            opts,
            listeners,
            pre,
        } = self;
        let n = aggs.len();
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "multi-loop serve needs at least one aggregator",
            ));
        }

        // The dispatcher's epoll first, so a creation failure surfaces
        // before any thread spawns.
        let mut epoll = Epoll::new()?;
        for (i, l) in listeners.iter().enumerate() {
            epoll.register(l.as_raw_fd(), i as u64)?;
        }
        let (dispatcher_waker, dispatcher_wake) = UnixStream::pair()?;
        dispatcher_waker.set_nonblocking(true)?;
        dispatcher_wake.set_nonblocking(true)?;
        epoll.register(dispatcher_wake.as_raw_fd(), TOKEN_WAKE)?;

        let mut wakers = Vec::with_capacity(n);
        let mut intakes = Vec::with_capacity(n);
        let mut senders = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel();
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            wake_tx.set_nonblocking(true)?;
            wake_rx.set_nonblocking(true)?;
            wakers.push(wake_tx);
            intakes.push(Intake {
                rx,
                wake: wake_rx,
                open: true,
            });
            senders.push(tx);
        }
        let shared = Arc::new(ServeShared::new(wakers, Some(dispatcher_waker)));
        let mut workers: Vec<EventLoopServer> = aggs
            .into_iter()
            .zip(intakes)
            .enumerate()
            .map(|(i, (agg, intake))| {
                EventLoopServer::with_shared(agg, opts.clone(), i, shared.clone(), Some(intake))
            })
            .collect();
        // Deterministic placement for injected sessions: worker i
        // gets pre[i], pre[i+n], …
        for (j, stream) in pre.into_iter().enumerate() {
            if let Some(w) = workers.get_mut(j % n) {
                w.add_session(stream)?;
            }
        }

        let (dispatch_res, joined) = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|server| {
                    let sh = shared.clone();
                    scope.spawn(move || {
                        let res = server.run();
                        sh.exited.fetch_add(1, Ordering::SeqCst);
                        sh.wake_dispatcher();
                        res
                    })
                })
                .collect();

            let dispatch_res = if listeners.is_empty() {
                // Injected-sessions-only run: nothing will ever be
                // accepted, so hang up the handoff queues *now* —
                // waiting for workers that are waiting for us would
                // deadlock. Workers self-enforce the idle deadline
                // through the shared clock.
                Ok(())
            } else {
                let wake = &dispatcher_wake;
                Self::dispatch(&listeners, wake, &mut epoll, &senders, &shared, &opts, n)
            };
            // Hang up the handoff queues — workers drain what is
            // queued, then see `Disconnected` and finish — and nudge
            // any worker parked in `epoll_wait` so it notices.
            drop(senders);
            shared.wake_all();
            if dispatch_res.is_err() {
                // A dispatcher-fatal error must not strand N running
                // loops.
                shared.request_stop(false);
            }
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            (dispatch_res, joined)
        });

        let mut report = ServeReport::default();
        let mut per_loop = Vec::with_capacity(n);
        let mut first_err = dispatch_res.err();
        for res in joined {
            match res {
                Ok(Ok((agg, r))) => {
                    per_loop.push(agg);
                    report.absorb(r);
                }
                Ok(Err(e)) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
                Err(_) => {
                    if first_err.is_none() {
                        first_err = Some(io::Error::other("serve loop panicked"));
                    }
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        report.timed_out = shared.timed_out.load(Ordering::SeqCst);
        // Placement-independent presentation: by collector id, then
        // loop.
        report.sessions.sort_by_key(|s| (s.session, s.worker));
        Ok((AggregatorSet::new(per_loop), report))
    }

    /// The dispatcher loop: waits on the listeners, accepts, and deals
    /// connections round-robin to the workers. Also the idle-deadline
    /// authority of last resort — it re-checks the shared clock even
    /// when every worker is parked on an empty loop. It blocks until a
    /// connection, a byte on `wake` (a worker exited or a stop was
    /// requested) or the idle deadline.
    fn dispatch(
        listeners: &[Listener],
        wake: &UnixStream,
        epoll: &mut Epoll,
        senders: &[mpsc::Sender<SessionStream>],
        shared: &ServeShared,
        opts: &ServeOptions,
        n: usize,
    ) -> io::Result<()> {
        let mut rr = 0usize;
        let mut ready: Vec<u64> = Vec::new();
        loop {
            if shared.stopped() || shared.exited.load(Ordering::SeqCst) >= n {
                return Ok(());
            }
            let timeout_ms = match opts.accept_timeout {
                Some(t) => {
                    let idle = shared.idle_for();
                    if idle >= t {
                        shared.request_stop(true);
                        return Ok(());
                    }
                    // As in the worker loop: +1 against spinning,
                    // clamped clear of the negative-means-infinite
                    // encoding.
                    (t - idle).as_millis().min(i32::MAX as u128 - 1) as i32 + 1
                }
                None => -1,
            };
            ready.clear();
            if epoll.wait(timeout_ms, &mut ready)? == 0 {
                continue;
            }
            for &token in &ready {
                if token == TOKEN_WAKE {
                    // The flags are rechecked at the top of the loop.
                    drain_wake(wake)?;
                    continue;
                }
                let Some(listener) = listeners.get(token as usize) else {
                    continue;
                };
                // Accepting alone is *not* activity: a periodic prober
                // (health check, port scan) must not defer the idle
                // deadline forever — only delivered bytes do.
                while let Some(stream) = listener.accept()? {
                    let mut stream = Some(stream);
                    // Round-robin, skipping workers that already
                    // exited (their receiver is gone).
                    for _ in 0..n {
                        let w = rr % n;
                        rr += 1;
                        let Some(s) = stream.take() else {
                            break; // placed on an earlier worker
                        };
                        let Some(sender) = senders.get(w) else {
                            break;
                        };
                        match sender.send(s) {
                            Ok(()) => {
                                shared.wake(w);
                                break;
                            }
                            Err(mpsc::SendError(s)) => stream = Some(s),
                        }
                    }
                    // Every worker gone: the connection drops; the
                    // `exited` check above ends the dispatcher.
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MonitorConfig, MonitorEngine, SamplerSpec};
    use crate::topology::Collector;

    fn config() -> MonitorConfig {
        MonitorConfig::default()
            .sampler(SamplerSpec::Systematic { interval: 3 })
            .seed(9)
    }

    fn keyed_points(n: usize, n_keys: u64) -> Vec<(u64, f64)> {
        (0..n)
            .map(|i| {
                let key = (i as u64).wrapping_mul(0x9E37_79B9) % n_keys;
                (key, 1.0 + (i % 53) as f64)
            })
            .collect()
    }

    /// Encodes one collector session (Hello … Bye) as wire bytes: a
    /// seal per 1500 points, every sealed frame shipped in order.
    fn session_bytes(id: u64, points: &[(u64, f64)]) -> Vec<u8> {
        let mut c = Collector::new_sequenced(id, config());
        let mut pipe = crate::wire::encode_frame(&c.hello()).to_vec();
        for chunk in points.chunks(1500) {
            c.offer_batch(chunk);
            c.seal_flush();
        }
        c.seal_finish();
        for (_, bytes) in c.unsent_window(0) {
            pipe.extend_from_slice(bytes);
        }
        pipe
    }

    /// A loaded socketpair read end: `bytes` buffered, then EOF
    /// (payloads stay far below the kernel buffer, so the blocking
    /// write cannot deadlock the single thread).
    fn loaded_stream(bytes: &[u8]) -> UnixStream {
        let (mut tx, rx) = UnixStream::pair().expect("socketpair");
        tx.write_all(bytes).expect("buffered write");
        drop(tx); // EOF for the server side.
        rx
    }

    fn inject(server: &mut EventLoopServer, bytes: &[u8]) {
        server
            .add_session(loaded_stream(bytes))
            .expect("add_session");
    }

    #[test]
    fn event_loop_assembles_injected_sessions_to_the_reference_bits() {
        let points = keyed_points(12_000, 24);
        let mut reference = MonitorEngine::new(config());
        for &(k, v) in &points {
            reference.offer(k, v);
        }
        let mut server = EventLoopServer::new(
            Aggregator::new(),
            ServeOptions {
                collectors: 3,
                accept_timeout: None,
            },
        );
        for part in 0..3u64 {
            let mine: Vec<_> = points
                .iter()
                .filter(|&&(k, _)| k % 3 == part)
                .copied()
                .collect();
            inject(&mut server, &session_bytes(part, &mine));
        }
        let (agg, report) = server.run().expect("serve");
        assert_eq!(report.completed, 3);
        assert!(report.failures.is_empty());
        assert_eq!(agg.snapshot(), reference.snapshot());
    }

    #[test]
    fn hostile_sessions_are_isolated_and_rolled_back() {
        let points = keyed_points(9000, 16);
        let mut reference = MonitorEngine::new(config());
        for &(k, v) in &points {
            reference.offer(k, v);
        }
        let mut server = EventLoopServer::new(
            Aggregator::new(),
            ServeOptions {
                collectors: 2,
                accept_timeout: None,
            },
        );
        // Two healthy halves…
        for part in 0..2u64 {
            let mine: Vec<_> = points
                .iter()
                .filter(|&&(k, _)| k % 2 == part)
                .copied()
                .collect();
            inject(&mut server, &session_bytes(part, &mine));
        }
        // …plus a garbage client, a mid-frame disconnect (valid
        // prefix, torn tail), and two connect-and-close probes.
        inject(&mut server, b"SSWF this was never a frame");
        let torn = session_bytes(700, &keyed_points(4000, 7));
        inject(&mut server, &torn[..torn.len() - 5]);
        inject(&mut server, b"");
        inject(&mut server, b"");
        let (agg, report) = server.run().expect("serve survives hostility");
        assert_eq!(report.completed, 2);
        assert_eq!(report.probes, 2);
        assert_eq!(report.failures.len(), 2);
        assert_eq!(
            agg.snapshot(),
            reference.snapshot(),
            "hostile sessions must leave no trace in the snapshot"
        );
    }

    #[test]
    fn spoofed_collector_id_is_rejected_without_touching_state() {
        // A healthy session completes as id 4; a second session then
        // claiming id 4 with a valid Hello must be refused before its
        // Hello can reset (or its frames replace) the real state.
        // Sessions sweep in token (= injection) order, so the healthy
        // one goes first.
        let points = keyed_points(8000, 16);
        let mut reference = MonitorEngine::new(config());
        for &(k, v) in &points {
            reference.offer(k, v);
        }
        let mut server = EventLoopServer::new(
            Aggregator::new(),
            ServeOptions {
                collectors: 2, // Unreachable: the run ends when nothing is left.
                accept_timeout: None,
            },
        );
        // Different data, same id.
        let spoof = session_bytes(4, &keyed_points(2000, 4));
        inject(&mut server, &session_bytes(4, &points));
        inject(&mut server, &spoof);
        let (agg, report) = server.run().expect("serve");
        assert_eq!(report.completed, 1);
        assert_eq!(report.failures.len(), 1);
        assert!(
            report.failures[0].error.contains("already owned"),
            "got: {}",
            report.failures[0].error
        );
        assert_eq!(
            agg.snapshot(),
            reference.snapshot(),
            "the spoofer must leave no trace"
        );
    }

    #[test]
    fn a_failed_session_frees_its_id_for_reconnect() {
        // A collector that dies mid-frame and reconnects under the
        // same id must be admitted again (its failed session was
        // parked, and the fresh session's cumulative state replaces
        // the parked live view).
        let points = keyed_points(8000, 16);
        let mut reference = MonitorEngine::new(config());
        for &(k, v) in &points {
            reference.offer(k, v);
        }
        let full = session_bytes(3, &points);
        let mut server = EventLoopServer::new(
            Aggregator::new(),
            ServeOptions {
                collectors: 1,
                accept_timeout: None,
            },
        );
        // Torn session first in token order (fails and frees the id),
        // the reconnect second.
        inject(&mut server, &full[..full.len() - 5]);
        inject(&mut server, &full);
        let (agg, report) = server.run().expect("serve");
        assert_eq!(report.completed, 1);
        assert_eq!(report.failures.len(), 1, "the torn session failed");
        assert_eq!(agg.snapshot(), reference.snapshot());
    }

    #[test]
    fn accept_timeout_unblocks_a_short_handed_serve() {
        // A live listener nobody else connects to: without the idle
        // deadline the serve would wait forever for collectors 2–5.
        let dir = std::env::temp_dir().join(format!("sst_evl_timeout_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("socket dir");
        let path = dir.join("idle.sock");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        let points = keyed_points(5000, 8);
        let mut server = MultiLoopServer::new(
            vec![Aggregator::new()],
            ServeOptions {
                collectors: 5, // Only one will ever arrive.
                accept_timeout: Some(Duration::from_millis(50)),
            },
        );
        server.add_unix_listener(listener).expect("register");
        server.add_session(loaded_stream(&session_bytes(0, &points)));
        let start = Instant::now();
        let (aggs, report) = server.run().expect("serve");
        let _ = std::fs::remove_file(&path);
        assert!(report.timed_out);
        assert_eq!(report.completed, 1);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "must not block forever"
        );
        assert_eq!(aggs.collector_count(), 1, "the delivered session stays");
    }

    #[test]
    fn exhausted_sessions_without_listeners_end_without_a_timeout_flag() {
        // No listeners and no open sessions left: nothing can ever
        // arrive, so run() returns immediately — and that is a target
        // shortfall (completed < collectors), not a timeout.
        let points = keyed_points(5000, 8);
        let mut server = EventLoopServer::new(
            Aggregator::new(),
            ServeOptions {
                collectors: 5,
                accept_timeout: None,
            },
        );
        inject(&mut server, &session_bytes(0, &points));
        let (agg, report) = server.run().expect("serve");
        assert!(!report.timed_out, "no accept_timeout was configured");
        assert_eq!(report.completed, 1);
        assert_eq!(agg.collector_count(), 1);
    }

    #[test]
    fn completed_sessions_report_their_delivery_counters() {
        let points = keyed_points(10_000, 16);
        let mut server = EventLoopServer::new(
            Aggregator::new(),
            ServeOptions {
                collectors: 2,
                accept_timeout: None,
            },
        );
        let halves: Vec<Vec<u8>> = (0..2u64)
            .map(|part| {
                let mine: Vec<_> = points
                    .iter()
                    .filter(|&&(k, _)| k % 2 == part)
                    .copied()
                    .collect();
                session_bytes(part, &mine)
            })
            .collect();
        for bytes in &halves {
            inject(&mut server, bytes);
        }
        inject(&mut server, b""); // A probe: no stats entry.
        let (_, report) = server.run().expect("serve");
        assert_eq!(report.sessions.len(), 2, "one entry per completed session");
        for (stats, bytes) in report.sessions.iter().zip(&halves) {
            assert_eq!(stats.bytes, bytes.len() as u64, "every wire byte counted");
            assert!(stats.frames > 0);
            assert_eq!(stats.worker, 0, "single-loop serve is worker 0");
        }
        let ids: Vec<_> = report.sessions.iter().map(|s| s.session).collect();
        assert_eq!(ids, vec![Some(0), Some(1)]);
    }

    #[test]
    fn multi_loop_matches_the_reference_bits_with_hostiles() {
        let points = keyed_points(12_000, 24);
        let mut reference = MonitorEngine::new(config());
        for &(k, v) in &points {
            reference.offer(k, v);
        }
        for loops in [1usize, 2, 4] {
            let mut server = MultiLoopServer::new(
                (0..loops).map(|_| Aggregator::new()).collect(),
                ServeOptions {
                    collectors: 4,
                    accept_timeout: None,
                },
            );
            for part in 0..4u64 {
                let mine: Vec<_> = points
                    .iter()
                    .filter(|&&(k, _)| k % 4 == part)
                    .copied()
                    .collect();
                server.add_session(loaded_stream(&session_bytes(part, &mine)));
            }
            // Hostiles spread across loops: garbage, torn tail, a
            // probe.
            server.add_session(loaded_stream(b"SSWF this was never a frame"));
            let torn = session_bytes(900, &keyed_points(4000, 7));
            server.add_session(loaded_stream(&torn[..torn.len() - 5]));
            server.add_session(loaded_stream(b""));
            let (aggs, report) = server.run().expect("multi-loop serve");
            assert_eq!(aggs.loops(), loops);
            assert_eq!(report.completed, 4, "x{loops}");
            assert_eq!(report.probes, 1, "x{loops}");
            assert_eq!(report.failures.len(), 2, "x{loops}");
            assert_eq!(
                aggs.snapshot(),
                reference.snapshot(),
                "assembled snapshot must not depend on loop count ({loops})"
            );
            let by_worker: std::collections::BTreeSet<_> =
                report.sessions.iter().map(|s| s.worker).collect();
            assert!(
                by_worker.len() > 1 || loops == 1,
                "round-robin must spread 4 sessions past one loop (x{loops})"
            );
        }
    }

    #[test]
    fn cross_loop_spoof_is_rejected_by_the_shared_admission_table() {
        // Two sessions claim the same collector id from *different*
        // loops. Exactly one may win — whichever the race favors —
        // and both carry identical bytes, so the assembled snapshot
        // is the reference either way.
        let points = keyed_points(8000, 16);
        let mut reference = MonitorEngine::new(config());
        for &(k, v) in &points {
            reference.offer(k, v);
        }
        let bytes = session_bytes(4, &points);
        let mut server = MultiLoopServer::new(
            (0..2).map(|_| Aggregator::new()).collect(),
            ServeOptions {
                collectors: 2, // Unreachable: one twin must lose.
                accept_timeout: None,
            },
        );
        server.add_session(loaded_stream(&bytes)); // → worker 0
        server.add_session(loaded_stream(&bytes)); // → worker 1
        let (aggs, report) = server.run().expect("serve");
        assert_eq!(report.completed, 1, "exactly one twin may land");
        assert_eq!(report.failures.len(), 1);
        assert!(
            report.failures[0].error.contains("already owned"),
            "got: {}",
            report.failures[0].error
        );
        assert_eq!(
            aggs.snapshot(),
            reference.snapshot(),
            "the losing twin must leave no trace"
        );
    }

    #[test]
    fn multi_loop_accept_timeout_stops_every_loop() {
        let dir = std::env::temp_dir().join(format!("sst_mls_timeout_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("socket dir");
        let path = dir.join("idle.sock");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        let points = keyed_points(5000, 8);
        let mut server = MultiLoopServer::new(
            (0..2).map(|_| Aggregator::new()).collect(),
            ServeOptions {
                collectors: 5, // Only one will ever arrive.
                accept_timeout: Some(Duration::from_millis(50)),
            },
        );
        server.add_unix_listener(listener).expect("register");
        server.add_session(loaded_stream(&session_bytes(0, &points)));
        let start = Instant::now();
        let (aggs, report) = server.run().expect("serve");
        let _ = std::fs::remove_file(&path);
        assert!(report.timed_out);
        assert_eq!(report.completed, 1);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "must not block forever"
        );
        assert_eq!(aggs.collector_count(), 1);
    }

    #[test]
    fn multi_loop_returns_when_its_sessions_end_not_at_the_deadline() {
        // Both sessions end at once while the dispatcher is blocked in
        // `epoll_wait` on a listener nobody connects to. The finishing
        // worker's stop and the workers' exits wake it, so run()
        // returns long before the 10 s idle deadline would.
        let dir = std::env::temp_dir().join(format!("sst_mls_exit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("socket dir");
        let path = dir.join("quiet.sock");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        let points = keyed_points(6000, 12);
        let mut server = MultiLoopServer::new(
            (0..2).map(|_| Aggregator::new()).collect(),
            ServeOptions {
                collectors: 2,
                accept_timeout: Some(Duration::from_secs(10)),
            },
        );
        server.add_unix_listener(listener).expect("register");
        for part in 0..2u64 {
            let mine: Vec<_> = points
                .iter()
                .filter(|&&(k, _)| k % 2 == part)
                .copied()
                .collect();
            server.add_session(loaded_stream(&session_bytes(part, &mine)));
        }
        let start = Instant::now();
        let (aggs, report) = server.run().expect("serve");
        let elapsed = start.elapsed();
        let _ = std::fs::remove_file(&path);
        assert_eq!(report.completed, 2);
        assert!(!report.timed_out);
        assert_eq!(aggs.collector_count(), 2);
        assert!(
            elapsed < Duration::from_secs(2),
            "run() returned {elapsed:?} after its sessions ended"
        );
    }

    #[test]
    fn epoll_backend_reports_ready_tokens() {
        let mut b = Epoll::new().expect("epoll_create1");
        let (mut tx_a, rx_a) = UnixStream::pair().expect("pair");
        let (_tx_b, rx_b) = UnixStream::pair().expect("pair");
        rx_a.set_nonblocking(true).expect("nonblocking");
        rx_b.set_nonblocking(true).expect("nonblocking");
        b.register(rx_a.as_raw_fd(), 7).expect("register a");
        b.register(rx_b.as_raw_fd(), 8).expect("register b");
        tx_a.write_all(b"x").expect("write a");
        let mut ready = Vec::new();
        b.wait(1000, &mut ready).expect("wait");
        assert_eq!(ready, vec![7], "only the written-to fd is ready");
        // Level-triggered: unread data keeps reporting.
        ready.clear();
        b.wait(1000, &mut ready).expect("wait");
        assert_eq!(ready, vec![7]);
        b.deregister(rx_a.as_raw_fd()).expect("deregister");
        ready.clear();
        assert_eq!(b.wait(0, &mut ready).expect("wait"), 0);
    }
}
