//! Socket transport for the collector topology: event-loop serving of
//! many collector sessions at once — over a pluggable readiness
//! [`Backend`] (`poll(2)` or `epoll(7)`), on one loop or one loop per
//! core — plus the blocking per-connection pump the threaded transport
//! shares.
//!
//! ## Why an event loop
//!
//! The original `monitor_tool serve` burned one blocking OS thread per
//! collector connection. Sampled-NetFlow-style deployments put
//! *hundreds* of exporters behind one aggregation point; at that fan-in
//! the thread-per-connection model costs a stack and a scheduler slot
//! per mostly-idle socket, and a mutex around the aggregator besides.
//! The frame protocol is already incremental ([`FrameDecoder`] is
//! push-based) and the per-session logic is a pure state machine
//! ([`SessionDriver`]), so only the socket layer had to change:
//!
//! * every listener and connection is non-blocking,
//! * one readiness call multiplexes all of them (level-triggered — a
//!   partially-drained buffer simply reports readable again),
//! * readable bytes feed each session's [`SessionDriver`], which feeds
//!   the [`Aggregator`] **directly** — no mutex, no threads,
//! * both Unix-domain and TCP listeners can serve concurrently, and
//!   pre-accepted streams can be injected for tests and benches.
//!
//! Because the aggregator keys state per session and is
//! interleaving-independent, the event loop's snapshot is
//! **byte-identical** to the threaded transport's (and to a single
//! unsharded engine over the same points) — pinned by
//! `tests/transport_live.rs`.
//!
//! ## Readiness backends
//!
//! The loop drives a [`Backend`] — register/deregister fds under a
//! token, wait for readiness. Two implementations ship:
//!
//! * [`BackendKind::Poll`] — `poll(2)` over one *persistent* pollfd
//!   set (re-marshalled only when the session set changes, not every
//!   wakeup). Portable, O(sessions) per wakeup in the kernel.
//! * [`BackendKind::Epoll`] — `epoll(7)`, the Linux default: the
//!   interest set lives in the kernel, so steady state is O(ready)
//!   per wakeup regardless of how many idle sessions are parked.
//!
//! Both are level-triggered, which the per-round read budget relies on
//! (a capped session's fd simply reports readable again next round).
//!
//! ## Multi-loop serving
//!
//! One event loop saturates one core. [`MultiLoopServer`] shards
//! sessions across `N` loops (one per core): a dispatcher thread owns
//! the listeners and hands accepted connections round-robin to `N`
//! worker loops over SPSC queues (an in-band wake pipe makes a blocked
//! worker notice the handoff). Each worker owns a **private**
//! [`Aggregator`] its sessions feed lock-free; the only cross-loop
//! state is the [`AdmissionRegistry`] — consulted once per session id,
//! not per frame — so a spoofed collector id is rejected no matter
//! which loop its victim landed on. Per-loop aggregators are merged at
//! snapshot time ([`AggregatorSet`]), and the canonical merge makes
//! the assembled snapshot independent of dispatcher placement.
//!
//! ## Failure isolation
//!
//! One bad session must never kill the aggregator. A session that sends
//! garbage, violates the protocol, or disconnects mid-frame is rolled
//! back ([`SessionDriver::abort`]) and recorded in the
//! [`ServeReport`]; everything already assembled keeps serving. A
//! connect-then-close probe (zero frames delivered) does not consume a
//! collector slot. The assembled snapshot is exactly the union of
//! *completed* sessions: ≥ 1 frame delivered, clean EOF.
//!
//! ## Shutdown
//!
//! [`EventLoopServer::run`] returns when `collectors` sessions have
//! completed, or — with [`ServeOptions::accept_timeout`] — when no
//! session delivered bytes for that long (so a serve waiting on clients
//! that never come, or that stall, terminates instead of blocking
//! forever). Under [`MultiLoopServer`] both conditions are global:
//! completions count across loops, and activity on any loop defers the
//! idle deadline for all. Sessions still in flight at shutdown are
//! aborted and counted in [`ServeReport::aborted`].
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
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Minimal FFI bindings for `poll(2)` and `epoll(7)` — the one hole in
/// the crate's no-unsafe rule, confined to this module and wrapped by
/// the safe [`sys::poll_fds`] / [`sys::Epoll`]. (No `libc` dependency:
/// the container's workspace is offline, and a handful of `#[repr(C)]`
/// lines beat a vendored crate.)
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_ulong};

    /// `struct pollfd` from `<poll.h>` (identical layout on every
    /// Linux ABI this workspace targets).
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    /// There is input to read.
    pub const POLLIN: i16 = 0x001;
    /// Writing is possible without blocking.
    pub const POLLOUT: i16 = 0x004;
    /// Error condition (revents only).
    pub const POLLERR: i16 = 0x008;
    /// Peer hung up (revents only).
    pub const POLLHUP: i16 = 0x010;

    /// `struct epoll_event` from `<sys/epoll.h>`. On x86-64 the kernel
    /// ABI packs it (no padding between the `u32` and the `u64`);
    /// elsewhere it is naturally aligned.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        /// Ready-event bitmask (`EPOLLIN` | …).
        pub events: u32,
        /// The caller's token, returned verbatim with each event.
        pub data: u64,
    }

    /// There is input to read (interest and ready mask).
    pub const EPOLLIN: u32 = 0x001;
    /// Writing is possible without blocking (interest and ready mask).
    pub const EPOLLOUT: u32 = 0x004;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
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

    /// Blocks until an fd in `fds` is ready or `timeout_ms` elapses
    /// (`-1` = forever), retrying on `EINTR`. Returns the ready count
    /// (`0` on timeout); `revents` is filled in place.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `fds` is a valid, exclusively-borrowed slice of
            // `#[repr(C)]` pollfd-layout structs; the kernel writes
            // only `revents` within it.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms as c_int) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// An owned epoll instance; the fd is closed on drop.
    pub struct Epoll {
        epfd: RawFd,
    }

    impl Epoll {
        /// `epoll_create1(EPOLL_CLOEXEC)`.
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: no pointers involved; a plain fd-returning call.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { epfd })
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

        /// Adds `fd` to the interest set, level-triggered, tagged with
        /// `token`, watching for the given event mask.
        pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, events)
        }

        /// Re-tags and/or re-masks an fd already in the interest set.
        pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, events)
        }

        /// Removes `fd` from the interest set.
        pub fn del(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks until ≥ 1 event or `timeout_ms` (`-1` = forever),
        /// retrying on `EINTR`. Returns how many entries of `events`
        /// were filled (`0` on timeout).
        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            loop {
                // SAFETY: `events` is a valid, exclusively-borrowed
                // slice of `#[repr(C)]` epoll_event structs; the
                // kernel writes at most `events.len()` entries.
                let rc = unsafe {
                    epoll_wait(
                        self.epfd,
                        events.as_mut_ptr(),
                        events.len() as c_int,
                        timeout_ms as c_int,
                    )
                };
                if rc >= 0 {
                    return Ok(rc as usize);
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

/// A readiness multiplexer the serve loop drives: fds are watched for
/// readability under a caller-chosen `u64` token, and [`Backend::wait`]
/// reports the tokens of ready fds. Both implementations are
/// level-triggered — an fd with unread data keeps reporting ready —
/// which the per-round read budget relies on.
pub trait Backend: Send {
    /// Human-readable backend name (`"poll"` / `"epoll"`).
    fn name(&self) -> &'static str;

    /// Starts watching `fd` for readability, tagged `token`.
    ///
    /// # Errors
    ///
    /// The underlying registration syscall's error, if any.
    fn register(&mut self, fd: RawFd, token: u64) -> io::Result<()>;

    /// Re-tags an already-watched `fd` with a new `token`.
    ///
    /// # Errors
    ///
    /// The underlying syscall's error; `NotFound` when `fd` was never
    /// registered.
    fn modify(&mut self, fd: RawFd, token: u64) -> io::Result<()>;

    /// Adds or removes write interest on an already-watched `fd`
    /// (read interest stays armed either way). The serve loop arms
    /// this only while a session has undelivered outbound bytes —
    /// level-triggered write readiness on an idle healthy socket would
    /// otherwise busy-spin the loop.
    ///
    /// # Errors
    ///
    /// The underlying syscall's error; `NotFound` when `fd` was never
    /// registered.
    fn set_writable(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()>;

    /// Stops watching `fd`. Must be called *before* the fd is closed
    /// (the poll backend keeps a private fd table).
    ///
    /// # Errors
    ///
    /// The underlying syscall's error; `NotFound` when `fd` was never
    /// registered.
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;

    /// Blocks until ≥ 1 watched fd is readable / hung up / errored, or
    /// `timeout_ms` elapses (`-1` = forever). Appends the tokens of
    /// ready fds to `ready` (which the caller clears) and returns the
    /// count — `0` means timeout.
    ///
    /// # Errors
    ///
    /// Only loop-fatal errors from the wait syscall itself.
    fn wait(&mut self, timeout_ms: i32, ready: &mut Vec<u64>) -> io::Result<usize>;
}

/// `poll(2)` over one **persistent** pollfd set.
///
/// The fd table and its parallel token list live across rounds and
/// mutate only on register/deregister — the old per-wakeup
/// rebuild-the-whole-`Vec` marshalling is gone. The kernel still scans
/// all entries per wakeup (inherent to `poll`), which is what
/// [`EpollBackend`] improves on.
struct PollBackend {
    fds: Vec<sys::PollFd>,
    tokens: Vec<u64>,
}

impl PollBackend {
    fn new() -> PollBackend {
        PollBackend {
            fds: Vec::new(),
            tokens: Vec::new(),
        }
    }

    fn position(&self, fd: RawFd) -> io::Result<usize> {
        self.fds
            .iter()
            .position(|p| p.fd == fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
    }
}

impl Backend for PollBackend {
    fn name(&self) -> &'static str {
        "poll"
    }

    fn register(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
        self.fds.push(sys::PollFd {
            fd,
            events: sys::POLLIN,
            revents: 0,
        });
        self.tokens.push(token);
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
        let i = self.position(fd)?;
        self.tokens[i] = token;
        Ok(())
    }

    fn set_writable(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        let i = self.position(fd)?;
        self.tokens[i] = token;
        self.fds[i].events = if writable {
            sys::POLLIN | sys::POLLOUT
        } else {
            sys::POLLIN
        };
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self.position(fd)?;
        self.fds.swap_remove(i);
        self.tokens.swap_remove(i);
        Ok(())
    }

    fn wait(&mut self, timeout_ms: i32, ready: &mut Vec<u64>) -> io::Result<usize> {
        let n = sys::poll_fds(&mut self.fds, timeout_ms)?;
        if n > 0 {
            for (pfd, &token) in self.fds.iter().zip(&self.tokens) {
                let mask = sys::POLLIN | sys::POLLOUT | sys::POLLERR | sys::POLLHUP;
                if pfd.revents & mask != 0 {
                    ready.push(token);
                }
            }
        }
        Ok(ready.len())
    }
}

/// `epoll(7)`: the interest set lives in the kernel, so a wakeup costs
/// O(ready), not O(watched) — the difference between draining 64 hot
/// sessions and re-scanning 10 000 idle ones to find them.
struct EpollBackend {
    ep: sys::Epoll,
    /// Reused event buffer; 256 ready fds per wakeup is far past the
    /// serve loop's per-round appetite.
    events: Vec<sys::EpollEvent>,
}

impl EpollBackend {
    fn new() -> io::Result<EpollBackend> {
        Ok(EpollBackend {
            ep: sys::Epoll::new()?,
            events: vec![sys::EpollEvent { events: 0, data: 0 }; 256],
        })
    }
}

impl Backend for EpollBackend {
    fn name(&self) -> &'static str {
        "epoll"
    }

    fn register(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ep.add(fd, token, sys::EPOLLIN)
    }

    fn modify(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ep.modify(fd, token, sys::EPOLLIN)
    }

    fn set_writable(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        let events = if writable {
            sys::EPOLLIN | sys::EPOLLOUT
        } else {
            sys::EPOLLIN
        };
        self.ep.modify(fd, token, events)
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ep.del(fd)
    }

    fn wait(&mut self, timeout_ms: i32, ready: &mut Vec<u64>) -> io::Result<usize> {
        let n = self.ep.wait(&mut self.events, timeout_ms)?;
        for ev in &self.events[..n] {
            // Copy out first: the struct is packed on x86-64, so a
            // direct field borrow would be misaligned.
            let ev = *ev;
            ready.push(ev.data);
        }
        Ok(n)
    }
}

/// Which readiness backend a serve loop uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// `poll(2)` with a persistent pollfd set — portable baseline.
    Poll,
    /// `epoll(7)` — O(ready) wakeups; the Linux default.
    Epoll,
}

impl Default for BackendKind {
    fn default() -> Self {
        if cfg!(target_os = "linux") {
            BackendKind::Epoll
        } else {
            BackendKind::Poll
        }
    }
}

impl BackendKind {
    /// The name [`Backend::name`] will report.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Poll => "poll",
            BackendKind::Epoll => "epoll",
        }
    }

    /// Instantiates the backend.
    fn create(self) -> io::Result<Box<dyn Backend>> {
        match self {
            BackendKind::Poll => Ok(Box::new(PollBackend::new())),
            BackendKind::Epoll => Ok(Box::new(EpollBackend::new()?)),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "poll" => Ok(BackendKind::Poll),
            "epoll" => Ok(BackendKind::Epoll),
            other => Err(format!("unknown backend '{other}' (poll|epoll)")),
        }
    }
}

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
            // not kill the loop: losing the whole assembled aggregator
            // over them would be the total-loss failure this transport
            // exists to prevent. Back off briefly — under EMFILE the
            // listener stays readable, so poll would otherwise spin
            // hot — and retry next round.
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
/// keep serving — dying would discard every completed session. Shared
/// by the event loop and the threaded accept loop so the two
/// transports classify identically.
pub fn accept_error_is_transient(e: &io::Error) -> bool {
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

/// How [`EventLoopServer::run`] decides it is done.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Stop once this many sessions completed (≥ 1 frame delivered,
    /// clean EOF). Probes and failed sessions do not count. Under
    /// [`MultiLoopServer`] the count is global across loops.
    pub collectors: usize,
    /// Stop when no session delivered bytes for this long — the guard
    /// against clients that never connect (or stall forever). `None`
    /// waits indefinitely. Under [`MultiLoopServer`] activity on any
    /// loop defers the deadline for all.
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
    /// Which serve loop pumped it (always `0` single-loop).
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
    /// disconnect, read error); each was rolled back out of the
    /// aggregator.
    pub failures: Vec<SessionFailure>,
    /// Sessions still mid-stream at shutdown, rolled back likewise.
    pub aborted: usize,
    /// `true` when the run ended on `accept_timeout` instead of
    /// reaching the collector target.
    pub timed_out: bool,
    /// Per-session delivery counters for every completed session
    /// (multi-loop: sorted by collector id, then worker).
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
    /// collector-id registry (the fallback id doubles as it).
    token: u64,
    /// Wire bytes delivered so far (reported in [`SessionStats`]).
    bytes: u64,
    /// Outbound bytes (acks/resyncs to a sequenced collector) not yet
    /// accepted by the socket — the partial-write carry-over buffer.
    out: Vec<u8>,
    /// Whether write interest is currently armed with the backend.
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

/// Cross-loop coordination for one multi-loop serve run: the global
/// completion count, the stop/timeout flags, the shared idle clock,
/// and one wake pipe per worker so a loop blocked in its backend can
/// be nudged (for a handed-off session or a stop).
struct ServeShared {
    start: Instant,
    completed: AtomicUsize,
    stop: AtomicBool,
    timed_out: AtomicBool,
    /// Milliseconds after `start` of the latest byte delivery, on any
    /// loop. (Accepting alone is *not* activity — see the dispatcher.)
    last_activity_ms: AtomicU64,
    /// Write ends of each worker's wake pipe, by worker index.
    wakers: Mutex<Vec<UnixStream>>,
    /// Workers whose `run()` returned (so the dispatcher does not wait
    /// for handoffs nobody will take).
    exited: AtomicUsize,
}

impl ServeShared {
    fn new() -> ServeShared {
        ServeShared {
            start: Instant::now(),
            completed: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            last_activity_ms: AtomicU64::new(0),
            wakers: Mutex::new(Vec::new()),
            exited: AtomicUsize::new(0),
        }
    }

    fn wakers(&self) -> std::sync::MutexGuard<'_, Vec<UnixStream>> {
        self.wakers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Nudges worker `i` out of its backend wait. A full pipe is fine
    /// — the worker is waking anyway.
    fn wake(&self, i: usize) {
        if let Some(w) = self.wakers().get_mut(i) {
            let _ = w.write(&[1]);
        }
    }

    fn wake_all(&self) {
        for w in self.wakers().iter_mut() {
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

/// Token space: listeners get `0..n` and sessions get unique ids from
/// [`FALLBACK_ID_BASE`] up, so one `u64` names either; the intake wake
/// pipe takes the top value.
const TOKEN_WAKE: u64 = u64::MAX;

/// Base of the fallback session-id range handed to legacy (Hello-less)
/// sessions — past `u32`, so it cannot collide with forwarders' small
/// collector ids.
pub const FALLBACK_ID_BASE: u64 = 1 << 32;

/// The single-threaded serve loop: non-blocking listeners,
/// per-connection [`SessionDriver`]s, one exclusively-owned
/// [`Aggregator`], a pluggable readiness [`Backend`] — see the module
/// docs for the design.
///
/// ```no_run
/// use sst_monitor::topology::Aggregator;
/// use sst_monitor::transport::{BackendKind, EventLoopServer, ServeOptions};
/// use std::os::unix::net::UnixListener;
///
/// let mut server = EventLoopServer::new(
///     Aggregator::new(),
///     ServeOptions { collectors: 64, accept_timeout: Some(std::time::Duration::from_secs(30)) },
/// )
/// .with_backend(BackendKind::Epoll);
/// server.add_unix_listener(UnixListener::bind("/tmp/agg.sock")?)?;
/// let (agg, report) = server.run()?;
/// assert_eq!(report.completed, 64);
/// let snapshot = agg.snapshot();
/// # std::io::Result::Ok(())
/// ```
pub struct EventLoopServer {
    listeners: Vec<Listener>,
    /// Keyed by session token — stable across removals, unlike the
    /// old `Vec` + swap-remove indexing.
    sessions: BTreeMap<u64, Session>,
    agg: Aggregator,
    opts: ServeOptions,
    report: ServeReport,
    backend_kind: BackendKind,
    /// Shared under [`MultiLoopServer`]; private otherwise. Either
    /// way, spoofed-id admission goes through it.
    admission: Arc<AdmissionRegistry>,
    /// Session-token allocator — shared across loops so tokens stay
    /// globally unique (they are the admission ownership handles).
    next_token: Arc<AtomicU64>,
    /// This loop's index, stamped into [`SessionStats::worker`].
    worker: usize,
    /// Multi-loop coordination; `None` when serving standalone.
    shared: Option<Arc<ServeShared>>,
    /// Dispatcher handoff queue; `None` when serving standalone.
    intake: Option<Intake>,
}

impl EventLoopServer {
    /// A standalone serve loop that will assemble into `agg`
    /// (pre-configure its compaction budget there) under the given
    /// stop conditions, on the platform-default backend.
    pub fn new(agg: Aggregator, opts: ServeOptions) -> Self {
        EventLoopServer {
            listeners: Vec::new(),
            sessions: BTreeMap::new(),
            agg,
            opts,
            report: ServeReport::default(),
            backend_kind: BackendKind::default(),
            admission: Arc::new(AdmissionRegistry::new()),
            next_token: Arc::new(AtomicU64::new(FALLBACK_ID_BASE)),
            worker: 0,
            shared: None,
            intake: None,
        }
    }

    /// Selects the readiness backend (default: epoll on Linux).
    #[must_use]
    pub fn with_backend(mut self, kind: BackendKind) -> Self {
        self.backend_kind = kind;
        self
    }

    /// A worker loop for [`MultiLoopServer`]: shared admission, shared
    /// token allocator, shared stop/idle state, dispatcher intake.
    #[allow(clippy::too_many_arguments)]
    fn for_worker(
        agg: Aggregator,
        opts: ServeOptions,
        backend_kind: BackendKind,
        admission: Arc<AdmissionRegistry>,
        next_token: Arc<AtomicU64>,
        worker: usize,
        shared: Arc<ServeShared>,
        intake: Intake,
    ) -> Self {
        EventLoopServer {
            listeners: Vec::new(),
            sessions: BTreeMap::new(),
            agg,
            opts,
            report: ServeReport::default(),
            backend_kind,
            admission,
            next_token,
            worker,
            shared: Some(shared),
            intake: Some(intake),
        }
    }

    /// Registers a Unix-domain listener (switched to non-blocking).
    ///
    /// # Errors
    ///
    /// The `set_nonblocking` I/O error.
    pub fn add_unix_listener(&mut self, l: UnixListener) -> io::Result<()> {
        l.set_nonblocking(true)?;
        self.listeners.push(Listener::Unix(l));
        Ok(())
    }

    /// Registers a TCP listener (switched to non-blocking).
    ///
    /// # Errors
    ///
    /// The `set_nonblocking` I/O error.
    pub fn add_tcp_listener(&mut self, l: TcpListener) -> io::Result<()> {
        l.set_nonblocking(true)?;
        self.listeners.push(Listener::Tcp(l));
        Ok(())
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
    /// caller registers the fd with the backend when one is live).
    fn install_session(&mut self, stream: SessionStream) -> io::Result<u64> {
        stream.set_nonblocking(true)?;
        // Globally unique even across loops, so it doubles as the
        // ownership token in the shared id registry.
        let token = self.next_token.fetch_add(1, Ordering::SeqCst);
        let driver = SessionDriver::new(token);
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

    /// Whether any event can still arrive: a live listener, an open
    /// session, or a dispatcher that may still hand sessions over.
    fn can_make_progress(&self) -> bool {
        !self.listeners.is_empty()
            || !self.sessions.is_empty()
            || self.intake.as_ref().is_some_and(|i| i.open)
    }

    /// Runs the loop to completion and returns the assembled
    /// aggregator plus the session report.
    ///
    /// # Errors
    ///
    /// Only loop-fatal I/O errors: backend creation, the readiness
    /// syscall, or a listener accept failing. Per-session errors never
    /// surface here — they are isolated into [`ServeReport::failures`].
    pub fn run(mut self) -> io::Result<(Aggregator, ServeReport)> {
        let mut backend = self.backend_kind.create()?;
        for (i, l) in self.listeners.iter().enumerate() {
            backend.register(l.as_raw_fd(), i as u64)?;
        }
        for (&token, s) in &self.sessions {
            backend.register(s.stream.as_raw_fd(), token)?;
        }
        if let Some(intake) = &self.intake {
            backend.register(intake.wake.as_raw_fd(), TOKEN_WAKE)?;
        }
        let mut last_activity = Instant::now();
        let mut ready: Vec<u64> = Vec::new();
        loop {
            // Global stop (multi-loop): another loop reached the
            // target or the idle deadline.
            if self.shared.as_ref().is_some_and(|sh| sh.stopped()) {
                break;
            }
            let completed = match &self.shared {
                Some(sh) => sh.completed.load(Ordering::SeqCst),
                None => self.report.completed,
            };
            if completed >= self.opts.collectors {
                break;
            }
            // Nothing connected and nothing to connect through: no
            // event can ever arrive, so waiting would hang forever.
            // (Not a timeout — `completed < collectors` in the report
            // already tells the caller the target was unreachable.)
            if !self.can_make_progress() {
                break;
            }
            let timeout_ms = match self.opts.accept_timeout {
                Some(t) => {
                    let idle = match &self.shared {
                        Some(sh) => sh.idle_for(),
                        None => last_activity.elapsed(),
                    };
                    if idle >= t {
                        match &self.shared {
                            Some(sh) => sh.request_stop(true),
                            None => self.report.timed_out = true,
                        }
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
            if backend.wait(timeout_ms, &mut ready)? == 0 {
                continue; // Timeout tick; the deadline check above decides.
            }
            // Ascending token order: listeners first, then sessions
            // oldest-accepted first, the wake pipe last — the same
            // deterministic sweep on both backends (epoll reports in
            // readiness order, which tests must not depend on).
            ready.sort_unstable();
            for &token in &ready {
                if token == TOKEN_WAKE {
                    self.drain_intake(backend.as_mut())?;
                } else if token < FALLBACK_ID_BASE {
                    // Accepting alone is *not* activity: a periodic
                    // prober (health check, port scan) must not defer
                    // the idle deadline forever — only delivered
                    // bytes do, below.
                    loop {
                        let accepted = self
                            .listeners
                            .get(token as usize)
                            .ok_or_else(|| io::Error::other("ready token out of listener range"))?
                            .accept()?;
                        let Some(stream) = accepted else {
                            break;
                        };
                        let fd = stream.as_raw_fd();
                        let t = self.install_session(stream)?;
                        backend.register(fd, t)?;
                    }
                } else {
                    self.pump_ready_session(token, backend.as_mut(), &mut last_activity)?;
                }
            }
        }
        // Shutdown: roll back sessions still mid-stream so the snapshot
        // is exactly the completed sessions (probes have nothing fed).
        // Sequenced peers get a best-effort Shutdown frame first — the
        // graceful-drain notice that tells a retrying forwarder to
        // reconnect (and resync) instead of waiting on acks that will
        // never come.
        for (_, mut session) in std::mem::take(&mut self.sessions) {
            if session.driver.is_sequenced() {
                let _ = session.stream.write(&encode_frame(&Frame::Shutdown));
            }
            if session.driver.frames_delivered() > 0 {
                session.driver.abort(&mut self.agg);
                self.report.aborted += 1;
            }
        }
        Ok((self.agg, self.report))
    }

    /// Handles a wake-pipe readiness: swallows the wake bytes and
    /// takes every handed-off session out of the intake queue.
    fn drain_intake(&mut self, backend: &mut dyn Backend) -> io::Result<()> {
        let Some(intake) = self.intake.as_mut() else {
            return Ok(());
        };
        let mut buf = [0u8; 64];
        loop {
            match intake.wake.read(&mut buf) {
                Ok(0) => {
                    // Every waker write end is gone (teardown): drop
                    // out of the interest set or a level-triggered
                    // backend would spin on the EOF.
                    backend.deregister(intake.wake.as_raw_fd())?;
                    intake.open = false;
                    break;
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        while let Some(intake) = self.intake.as_mut() {
            match intake.rx.try_recv() {
                Ok(stream) => {
                    let fd = stream.as_raw_fd();
                    let t = self.install_session(stream)?;
                    backend.register(fd, t)?;
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
    /// completed (counted, its ids sealed), or failed (sequenced:
    /// parked for resumption; otherwise rolled back; either way its
    /// open ids are released and the failure recorded).
    fn pump_ready_session(
        &mut self,
        token: u64,
        backend: &mut dyn Backend,
        last_activity: &mut Instant,
    ) -> io::Result<()> {
        let Some(session) = self.sessions.get_mut(&token) else {
            return Ok(());
        };
        // Write half first: if this wakeup is a write-readiness for a
        // previously-full socket buffer, drain the carried-over acks
        // before reading more (the collector's in-flight window is
        // waiting on them).
        if !session.out.is_empty() {
            if let Err(e) = session.flush_outbound() {
                self.settle_failed(token, backend, format!("write: {e}"))?;
                return Ok(());
            }
        }
        let (end, bytes_read) = Self::pump(session, &mut self.agg, &self.admission);
        session.bytes += bytes_read as u64;
        if bytes_read > 0 {
            match &self.shared {
                Some(sh) => sh.note_activity(),
                None => *last_activity = Instant::now(),
            }
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
                        self.settle_failed(token, backend, format!("write: {e}"))?;
                        return Ok(());
                    }
                }
                let want = !session.out.is_empty();
                if want != session.write_armed {
                    backend.set_writable(session.stream.as_raw_fd(), token, want)?;
                    session.write_armed = want;
                }
            }
            SessionEnd::Done => {
                let Some(session) = self.sessions.remove(&token) else {
                    // Already settled — a failure path raced this ready
                    // event; there is nothing left to tear down.
                    return Ok(());
                };
                backend.deregister(session.stream.as_raw_fd())?;
                if session.driver.frames_delivered() > 0 {
                    self.report.completed += 1;
                    // Its ids are spoken for within this run: a later
                    // claimant would be a spoof.
                    self.admission.complete(session.driver.fed_ids());
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
                    if let Some(sh) = &self.shared {
                        if sh.record_completed() >= self.opts.collectors {
                            sh.request_stop(false);
                        }
                    }
                } else {
                    self.report.probes += 1;
                }
            }
            SessionEnd::Failed(error) => {
                self.settle_failed(token, backend, error)?;
            }
        }
        Ok(())
    }

    /// Settles a failed session. An unsequenced session is rolled back
    /// wholesale (the pre-seq/ack contract: its partial contribution
    /// must leave no trace). A sequenced session's per-collector state
    /// is instead *parked* in the shared admission registry — keyed by
    /// collector id, so the retrying forwarder can resume it from any
    /// loop — with its delivery watermark intact; replayed frames at
    /// or below the watermark will be skipped, which is what makes the
    /// retry idempotent rather than double-counted.
    fn settle_failed(
        &mut self,
        token: u64,
        backend: &mut dyn Backend,
        error: String,
    ) -> io::Result<()> {
        let Some(session) = self.sessions.remove(&token) else {
            // Already settled by an earlier error on the same tick.
            return Ok(());
        };
        backend.deregister(session.stream.as_raw_fd())?;
        if session.driver.is_sequenced() {
            for id in session.driver.fed_ids() {
                if let Some(parked) = self.agg.park_collector(id) {
                    self.admission.suspend(id, parked);
                }
            }
        } else {
            session.driver.abort(&mut self.agg);
        }
        // Free any ids still merely *open* under this session's token
        // (parked ids moved to Suspended above and are kept) so the
        // collector can reconnect and resend cumulative state.
        self.admission.release(session.token);
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
    /// capping the round re-arms the level-triggered backend (the fd
    /// stays readable) and lets every other session make progress in
    /// between.
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
            // A suspended collector parked by a failed sequenced
            // session (possibly on another loop): restore its state —
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
                    let end = match session.driver.finish_admitted(agg, &mut admit) {
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

/// One serve loop per core: a dispatcher thread accepts and hands
/// connections round-robin to `N` worker [`EventLoopServer`]s, each
/// owning a private [`Aggregator`]; the admission registry is the only
/// state shared while bytes flow, and the per-loop aggregators merge
/// at snapshot time ([`AggregatorSet`]) — see the module docs.
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
    backend_kind: BackendKind,
    listeners: Vec<Listener>,
    /// Pre-accepted sessions (tests, benches), dealt round-robin to
    /// the workers before the loops start.
    pre: Vec<SessionStream>,
}

impl MultiLoopServer {
    /// A multi-loop serve: one worker loop per aggregator in `aggs`
    /// (pre-configure compaction budgets there), platform-default
    /// backend.
    pub fn new(aggs: Vec<Aggregator>, opts: ServeOptions) -> Self {
        MultiLoopServer {
            aggs,
            opts,
            backend_kind: BackendKind::default(),
            listeners: Vec::new(),
            pre: Vec::new(),
        }
    }

    /// Selects the readiness backend for every loop (default: epoll
    /// on Linux).
    #[must_use]
    pub fn with_backend(mut self, kind: BackendKind) -> Self {
        self.backend_kind = kind;
        self
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
    /// otherwise only loop-fatal I/O errors (backend creation, the
    /// readiness syscall, listener accept), from whichever thread hit
    /// one first. Per-session errors are isolated into
    /// [`ServeReport::failures`].
    pub fn run(self) -> io::Result<(AggregatorSet, ServeReport)> {
        let MultiLoopServer {
            aggs,
            opts,
            backend_kind,
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
        let shared = Arc::new(ServeShared::new());
        let admission = Arc::new(AdmissionRegistry::new());
        let next_token = Arc::new(AtomicU64::new(FALLBACK_ID_BASE));

        // The dispatcher's backend first, so a creation failure
        // surfaces before any thread spawns.
        let mut backend = backend_kind.create()?;
        for (i, l) in listeners.iter().enumerate() {
            backend.register(l.as_raw_fd(), i as u64)?;
        }

        let mut workers = Vec::with_capacity(n);
        let mut senders = Vec::with_capacity(n);
        for (i, agg) in aggs.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            wake_tx.set_nonblocking(true)?;
            wake_rx.set_nonblocking(true)?;
            shared.wakers().push(wake_tx);
            workers.push(EventLoopServer::for_worker(
                agg,
                opts.clone(),
                backend_kind,
                admission.clone(),
                next_token.clone(),
                i,
                shared.clone(),
                Intake {
                    rx,
                    wake: wake_rx,
                    open: true,
                },
            ));
            senders.push(tx);
        }
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
                Self::dispatch(&listeners, backend.as_mut(), &senders, &shared, &opts, n)
            };
            // Hang up the handoff queues — workers drain what is
            // queued, then see `Disconnected` and finish — and nudge
            // any worker parked in its backend so it notices.
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
    /// when every worker is parked on an empty loop.
    fn dispatch(
        listeners: &[Listener],
        backend: &mut dyn Backend,
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
            // Cap the wait so stop/exited flags are noticed within a
            // tick even without a readiness event.
            let timeout_ms = match opts.accept_timeout {
                Some(t) => {
                    let idle = shared.idle_for();
                    if idle >= t {
                        shared.request_stop(true);
                        return Ok(());
                    }
                    (t - idle).as_millis().min(100) as i32 + 1
                }
                None => 100,
            };
            ready.clear();
            if backend.wait(timeout_ms, &mut ready)? == 0 {
                continue;
            }
            for &token in &ready {
                let Some(listener) = listeners.get(token as usize) else {
                    continue;
                };
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

/// The blocking per-connection pump the **threaded** transport uses:
/// reads `stream` to EOF, feeding each chunk to a [`SessionDriver`]
/// under a short-lived aggregator lock (held per chunk, so concurrent
/// sessions interleave freely).
///
/// A poisoned mutex — some *other* session thread panicked mid-feed —
/// is recovered via [`PoisonError::into_inner`]: the aggregator's
/// per-collector state is keyed by session, so the panicking session's
/// damage cannot extend past its own id, and losing every completed
/// session to a poison flag would be strictly worse.
///
/// A failed blocking pump: the I/O-level cause plus the collector id
/// the session had established before dying — the triage handle an
/// operator needs to tell *which* of N collectors is flapping (the
/// event loop reports the same through [`SessionFailure::session`]).
#[derive(Debug)]
pub struct PumpError {
    /// The session's established id, if it got that far.
    pub session: Option<u64>,
    /// What killed it ([`SessionError`] wrapped as `InvalidData`, or
    /// the stream's read error).
    ///
    /// [`SessionError`]: crate::topology::SessionError
    pub error: io::Error,
}

impl std::fmt::Display for PumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.session {
            Some(id) => write!(f, "session {id}: {}", self.error),
            None => self.error.fmt(f),
        }
    }
}

impl std::error::Error for PumpError {}

/// Returns the number of frames delivered (`0` ⇒ the connection was a
/// probe and must not consume a collector slot).
///
/// # Errors
///
/// [`PumpError`] carrying the established session id (if any) and the
/// cause. On failure the session's partial contribution has already
/// been rolled back ([`SessionDriver::abort`]).
pub fn pump_blocking(
    stream: &mut impl Read,
    agg: &Mutex<Aggregator>,
    fallback_id: u64,
) -> Result<usize, PumpError> {
    fn lock(agg: &Mutex<Aggregator>) -> std::sync::MutexGuard<'_, Aggregator> {
        agg.lock().unwrap_or_else(PoisonError::into_inner)
    }
    let mut driver = SessionDriver::new(fallback_id);
    let mut buf = [0u8; 64 * 1024];
    let fail = |driver: &SessionDriver, error: io::Error| {
        driver.abort(&mut lock(agg));
        PumpError {
            session: driver.session_id(),
            error,
        }
    };
    loop {
        let n = match stream.read(&mut buf) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(fail(&driver, e)),
        };
        // Bind each step's result before inspecting it: the guard
        // temporary in `lock(agg)` lives to the end of its statement,
        // and `fail` needs the lock again.
        if n == 0 {
            let res = driver.finish(&mut lock(agg));
            res.map_err(|e| fail(&driver, io::Error::new(io::ErrorKind::InvalidData, e)))?;
            return Ok(driver.frames_delivered());
        }
        let Some(bytes) = buf.get(..n) else {
            return Err(fail(&driver, short_read(n)));
        };
        let res = driver.push(bytes, &mut lock(agg));
        res.map_err(|e| fail(&driver, io::Error::new(io::ErrorKind::InvalidData, e)))?;
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

    /// Encodes one collector session (Hello … Bye) as wire bytes.
    fn session_bytes(id: u64, points: &[(u64, f64)]) -> Vec<u8> {
        let mut c = Collector::new(id, config());
        let mut pipe = Vec::new();
        for chunk in points.chunks(1500) {
            c.offer_batch(chunk);
            c.flush(&mut pipe).unwrap();
        }
        c.finish(&mut pipe).unwrap();
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

    fn both_backends() -> [BackendKind; 2] {
        [BackendKind::Poll, BackendKind::Epoll]
    }

    #[test]
    fn event_loop_assembles_injected_sessions_to_the_reference_bits() {
        let points = keyed_points(12_000, 24);
        let mut reference = MonitorEngine::new(config());
        for &(k, v) in &points {
            reference.offer(k, v);
        }
        for kind in both_backends() {
            let mut server = EventLoopServer::new(
                Aggregator::new(),
                ServeOptions {
                    collectors: 3,
                    accept_timeout: None,
                },
            )
            .with_backend(kind);
            for part in 0..3u64 {
                let mine: Vec<_> = points
                    .iter()
                    .filter(|&&(k, _)| k % 3 == part)
                    .copied()
                    .collect();
                inject(&mut server, &session_bytes(part, &mine));
            }
            let (agg, report) = server.run().expect("serve");
            assert_eq!(report.completed, 3, "backend {kind}");
            assert!(report.failures.is_empty(), "backend {kind}");
            assert_eq!(agg.snapshot(), reference.snapshot(), "backend {kind}");
        }
    }

    #[test]
    fn hostile_sessions_are_isolated_and_rolled_back() {
        let points = keyed_points(9000, 16);
        let mut reference = MonitorEngine::new(config());
        for &(k, v) in &points {
            reference.offer(k, v);
        }
        for kind in both_backends() {
            let mut server = EventLoopServer::new(
                Aggregator::new(),
                ServeOptions {
                    collectors: 2,
                    accept_timeout: None,
                },
            )
            .with_backend(kind);
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
            assert_eq!(report.completed, 2, "backend {kind}");
            assert_eq!(report.probes, 2, "backend {kind}");
            assert_eq!(report.failures.len(), 2, "backend {kind}");
            assert_eq!(
                agg.snapshot(),
                reference.snapshot(),
                "hostile sessions must leave no trace in the snapshot ({kind})"
            );
        }
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
        for kind in both_backends() {
            let mut server = EventLoopServer::new(
                Aggregator::new(),
                ServeOptions {
                    collectors: 2, // Unreachable: the run ends when nothing is left.
                    accept_timeout: None,
                },
            )
            .with_backend(kind);
            let mut spoof = Vec::new();
            let mut c = Collector::new(4, config());
            c.offer_batch(&keyed_points(2000, 4)); // Different data, same id.
            c.finish(&mut spoof).unwrap();
            inject(&mut server, &session_bytes(4, &points));
            inject(&mut server, &spoof);
            let (agg, report) = server.run().expect("serve");
            assert_eq!(report.completed, 1, "backend {kind}");
            assert_eq!(report.failures.len(), 1, "backend {kind}");
            assert!(
                report.failures[0].error.contains("already owned"),
                "got: {} ({kind})",
                report.failures[0].error
            );
            assert_eq!(
                agg.snapshot(),
                reference.snapshot(),
                "the spoofer must leave no trace ({kind})"
            );
        }
    }

    #[test]
    fn a_failed_session_frees_its_id_for_reconnect() {
        // A collector that dies mid-frame and reconnects under the
        // same id must be admitted again (its failed contribution was
        // rolled back, the resent cumulative state replaces nothing).
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
        // deadline the loop would wait forever for collectors 2–5.
        let dir = std::env::temp_dir().join(format!("sst_evl_timeout_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("socket dir");
        let path = dir.join("idle.sock");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        let points = keyed_points(5000, 8);
        let mut server = EventLoopServer::new(
            Aggregator::new(),
            ServeOptions {
                collectors: 5, // Only one will ever arrive.
                accept_timeout: Some(Duration::from_millis(50)),
            },
        );
        server.add_unix_listener(listener).expect("register");
        inject(&mut server, &session_bytes(0, &points));
        let start = Instant::now();
        let (agg, report) = server.run().expect("serve");
        let _ = std::fs::remove_file(&path);
        assert!(report.timed_out);
        assert_eq!(report.completed, 1);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "must not block forever"
        );
        assert_eq!(agg.collector_count(), 1, "the delivered session stays");
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
        for kind in both_backends() {
            for loops in [1usize, 2, 4] {
                let mut server = MultiLoopServer::new(
                    (0..loops).map(|_| Aggregator::new()).collect(),
                    ServeOptions {
                        collectors: 4,
                        accept_timeout: None,
                    },
                )
                .with_backend(kind);
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
                assert_eq!(report.completed, 4, "{kind} x{loops}");
                assert_eq!(report.probes, 1, "{kind} x{loops}");
                assert_eq!(report.failures.len(), 2, "{kind} x{loops}");
                assert_eq!(
                    aggs.snapshot(),
                    reference.snapshot(),
                    "assembled snapshot must not depend on backend ({kind}) or loop count ({loops})"
                );
                let by_worker: std::collections::BTreeSet<_> =
                    report.sessions.iter().map(|s| s.worker).collect();
                assert!(
                    by_worker.len() > 1 || loops == 1,
                    "round-robin must spread 4 sessions past one loop ({kind} x{loops})"
                );
            }
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
        for kind in both_backends() {
            let mut server = MultiLoopServer::new(
                (0..2).map(|_| Aggregator::new()).collect(),
                ServeOptions {
                    collectors: 2, // Unreachable: one twin must lose.
                    accept_timeout: None,
                },
            )
            .with_backend(kind);
            server.add_session(loaded_stream(&bytes)); // → worker 0
            server.add_session(loaded_stream(&bytes)); // → worker 1
            let (aggs, report) = server.run().expect("serve");
            assert_eq!(report.completed, 1, "{kind}: exactly one twin may land");
            assert_eq!(report.failures.len(), 1, "{kind}");
            assert!(
                report.failures[0].error.contains("already owned"),
                "got: {} ({kind})",
                report.failures[0].error
            );
            assert_eq!(
                aggs.snapshot(),
                reference.snapshot(),
                "the losing twin must leave no trace ({kind})"
            );
        }
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
    fn poll_backend_keeps_its_fd_table_across_deregisters() {
        // The persistent-pollfd contract: register/deregister mutate
        // the one table, and waits see exactly the surviving fds.
        let mut b = PollBackend::new();
        let (mut tx_a, rx_a) = UnixStream::pair().expect("pair");
        let (mut tx_b, rx_b) = UnixStream::pair().expect("pair");
        rx_a.set_nonblocking(true).expect("nonblocking");
        rx_b.set_nonblocking(true).expect("nonblocking");
        b.register(rx_a.as_raw_fd(), 10).expect("register a");
        b.register(rx_b.as_raw_fd(), 20).expect("register b");
        tx_a.write_all(b"x").expect("write a");
        tx_b.write_all(b"y").expect("write b");
        let mut ready = Vec::new();
        b.wait(1000, &mut ready).expect("wait");
        ready.sort_unstable();
        assert_eq!(ready, vec![10, 20]);
        b.deregister(rx_a.as_raw_fd()).expect("deregister a");
        ready.clear();
        b.wait(1000, &mut ready).expect("wait");
        assert_eq!(ready, vec![20], "a deregistered fd must vanish");
        assert!(
            b.deregister(rx_a.as_raw_fd()).is_err(),
            "double deregister is NotFound"
        );
    }

    #[test]
    fn epoll_backend_reports_ready_tokens() {
        let mut b = EpollBackend::new().expect("epoll_create1");
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

    #[test]
    fn pump_blocking_recovers_a_poisoned_aggregator() {
        let points = keyed_points(6000, 8);
        let agg = Mutex::new(Aggregator::new());
        // Poison the mutex the way a panicking session thread would.
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = agg.lock().unwrap();
                panic!("session thread dies while holding the lock");
            })
            .join()
        });
        assert!(agg.lock().is_err(), "mutex must actually be poisoned");
        let bytes = session_bytes(4, &points);
        let frames =
            pump_blocking(&mut bytes.as_slice(), &agg, FALLBACK_ID_BASE).expect("recovered");
        assert!(frames > 0);
        let guard = agg.lock().unwrap_or_else(PoisonError::into_inner);
        let mut reference = MonitorEngine::new(config());
        for &(k, v) in &points {
            reference.offer(k, v);
        }
        assert_eq!(guard.snapshot(), reference.snapshot());
    }

    #[test]
    fn pump_blocking_rolls_back_failed_sessions() {
        let agg = Mutex::new(Aggregator::new());
        let bytes = session_bytes(6, &keyed_points(4000, 8));
        let err = pump_blocking(&mut &bytes[..bytes.len() - 4], &agg, FALLBACK_ID_BASE)
            .expect_err("mid-frame EOF must fail");
        assert_eq!(err.error.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.session, Some(6), "failure names the collector");
        assert_eq!(agg.lock().unwrap().collector_count(), 0);
    }
}
