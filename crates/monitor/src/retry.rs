//! Reconnect, backoff, and replay for sequenced collector sessions.
//!
//! The transport layer serves sessions; this module makes the *client*
//! side survive the transport failing. Two pieces:
//!
//! * [`Backoff`] — the shared retry schedule: capped exponential with
//!   deterministic seeded jitter, monotone non-decreasing. Every
//!   retrying component (connect and mid-stream alike) draws from the
//!   same schedule so operators reason about one curve, and tests can
//!   pin it exactly (same seed ⇒ same delays).
//! * [`SequencedSender`] — drives a sequenced [`Collector`] over a
//!   reconnecting [`SessionStream`]: seals frames into the in-flight
//!   window, writes them, consumes `Ack`s to trim the window, replays
//!   the unacked tail after a reconnect, and degrades to a
//!   full-snapshot re-baseline when the aggregator answers `Resync`
//!   (serve restart, replay gap). `monitor_tool forward --retry` is a
//!   thin shell around it.
//!
//! ## Silence is not delivery
//!
//! [`SequencedSender::finish`] returns `Ok` only once an `Ack` covers
//! every frame through the `Bye`. A peer that reads the bytes but
//! never acks them — stuck, mid-restart, or not speaking the
//! back-channel at all — has confirmed nothing, so a read timeout
//! after the final window is a connection failure like EOF or a
//! reset: it consumes a retry, and the reconnect replays the unacked
//! window. Replay is idempotent (the aggregator's seq watermark skips
//! frames it already applied), so retrying a tail that did land costs
//! bytes, never correctness; once the budget is spent, `finish`
//! reports the error instead of claiming delivery.

use crate::topology::Collector;
use crate::transport::SessionStream;
use crate::wire::{encode_frame, Frame, FrameDecoder, HelloResume};
use std::io::{self, Read, Write};
use std::time::Duration;

/// Capped exponential backoff with deterministic seeded jitter.
///
/// The delay sequence is monotone non-decreasing (a running max — a
/// jitter draw can never *shorten* the wait below an earlier one),
/// capped at `cap_ms`, and fully determined by `(base_ms, cap_ms,
/// seed)` — two instances with the same parameters produce the same
/// schedule, which is what lets the fault-injection tests run the
/// same nominal timeline every time.
#[derive(Clone, Debug)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    seed: u64,
    state: u64,
    attempt: u32,
    floor: u64,
}

impl Backoff {
    /// A schedule starting at `base_ms`, doubling per attempt, capped
    /// at `cap_ms`, with jitter drawn from `seed`. Zero parameters are
    /// clamped sane (`base ≥ 1`, `cap ≥ base`).
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Backoff {
        let base_ms = base_ms.max(1);
        Backoff {
            base_ms,
            cap_ms: cap_ms.max(base_ms),
            seed,
            state: (seed ^ 0x9E37_79B9_7F4A_7C15).max(1),
            attempt: 0,
            floor: 0,
        }
    }

    /// xorshift64* — tiny, seedable, and good enough for jitter.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The next delay in the schedule, in milliseconds.
    pub fn next_delay_ms(&mut self) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << self.attempt.min(20))
            .min(self.cap_ms);
        // Half-jitter: uniform in [exp/2, exp], so consecutive
        // retries from many collectors de-synchronize without any
        // delay collapsing to zero.
        let half = exp / 2;
        let jittered = half + self.next_u64() % (exp - half + 1);
        self.attempt = self.attempt.saturating_add(1);
        self.floor = self.floor.max(jittered).min(self.cap_ms);
        self.floor
    }

    /// Rewinds to the start of the schedule (same seed ⇒ the same
    /// delays will replay).
    pub fn reset(&mut self) {
        *self = Backoff::new(self.base_ms, self.cap_ms, self.seed);
    }
}

/// How long [`SequencedSender::finish`] waits for an ack before
/// treating the connection as stuck and retrying.
const ACK_WAIT: Duration = Duration::from_millis(500);

/// What one bounded read of the server's back-channel produced.
enum ReadEvent {
    /// Completed frames (possibly none yet — mid-frame).
    Frames(Vec<Frame>),
    /// The read timed out / would block; connection still open.
    Silence,
}

/// One live connection of a [`SequencedSender`].
struct Conn {
    stream: SessionStream,
    dec: FrameDecoder,
    /// The next window sequence number not yet written on *this*
    /// connection (replays restart it at the Hello's `first_seq`).
    sent: u64,
}

impl Conn {
    /// Reads whatever the server has sent, bounded by the stream's
    /// current blocking mode / read timeout.
    ///
    /// # Errors
    ///
    /// EOF (`UnexpectedEof`), read errors, and wire corruption
    /// (`InvalidData`) — all of which the sender treats as
    /// connection-fatal and feeds to the retry path.
    fn read_event(&mut self) -> io::Result<ReadEvent> {
        let mut buf = [0u8; 4096];
        match self.stream.read(&mut buf) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "aggregator closed the connection",
            )),
            Ok(n) => {
                self.dec.push(&buf[..n]);
                let mut frames = Vec::new();
                loop {
                    match self.dec.next_frame() {
                        Ok(Some(f)) => frames.push(f),
                        Ok(None) => break,
                        Err(e) => {
                            return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                        }
                    }
                }
                Ok(ReadEvent::Frames(frames))
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(ReadEvent::Silence)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(ReadEvent::Frames(Vec::new())),
            Err(e) => Err(e),
        }
    }
}

/// Drives a sequenced [`Collector`] over a reconnecting transport —
/// the client half of the seq/ack protocol. See the module docs.
pub struct SequencedSender<F: FnMut() -> io::Result<SessionStream>> {
    collector: Collector,
    connect: F,
    backoff: Backoff,
    retries_left: u32,
    conn: Option<Conn>,
    /// Reconnects performed (observability; `forward` prints it).
    reconnects: u32,
}

impl<F: FnMut() -> io::Result<SessionStream>> SequencedSender<F> {
    /// Wraps a sequenced `collector` (see [`Collector::new_sequenced`])
    /// around a `connect` factory, allowing `retries` reconnect
    /// attempts drawn from `backoff`.
    ///
    /// # Panics
    ///
    /// If `collector` is not sequenced.
    pub fn new(collector: Collector, connect: F, backoff: Backoff, retries: u32) -> Self {
        assert!(
            collector.is_sequenced(),
            "SequencedSender needs a sequenced collector"
        );
        SequencedSender {
            collector,
            connect,
            backoff,
            retries_left: retries,
            conn: None,
            reconnects: 0,
        }
    }

    /// The wrapped collector (offer points through this).
    pub fn collector_mut(&mut self) -> &mut Collector {
        &mut self.collector
    }

    /// Reconnects performed so far.
    pub fn reconnects(&self) -> u32 {
        self.reconnects
    }

    /// `Resync` re-baselines served so far (each one re-sent the
    /// unacked evicted tail plus a full snapshot — and, past a couple,
    /// disabled differential frames for the session).
    pub fn resyncs(&self) -> u32 {
        self.collector.resyncs()
    }

    /// Records a connection failure: drops the connection, consumes a
    /// retry (or propagates `e` when the budget is spent), sleeps the
    /// backoff delay.
    fn note_failure(&mut self, e: io::Error) -> io::Result<()> {
        self.conn = None;
        if self.retries_left == 0 {
            return Err(e);
        }
        self.retries_left -= 1;
        self.reconnects += 1;
        std::thread::sleep(Duration::from_millis(self.backoff.next_delay_ms()));
        Ok(())
    }

    /// Ensures a live connection: connects, sends the resume `Hello`
    /// (`Fresh` first time, `Replay` from the oldest unacked frame
    /// after), retrying through the backoff schedule.
    fn ensure_connected(&mut self) -> io::Result<()> {
        while self.conn.is_none() {
            let attempt = (|| -> io::Result<Conn> {
                let mut stream = (self.connect)()?;
                let hello = self.collector.hello();
                let sent = match &hello {
                    Frame::Hello {
                        resume: Some(r), ..
                    } => r.first_seq(),
                    _ => 0,
                };
                stream.write_all(&encode_frame(&hello))?;
                Ok(Conn {
                    stream,
                    dec: FrameDecoder::new(),
                    sent,
                })
            })();
            match attempt {
                Ok(conn) => self.conn = Some(conn),
                Err(e) => self.note_failure(e)?,
            }
        }
        Ok(())
    }

    /// Writes every sealed window frame not yet sent on this
    /// connection (blocking writes; partial writes are `write_all`'s
    /// problem).
    fn push_window(&mut self) -> io::Result<()> {
        let conn = self.conn.as_mut().expect("connected");
        for (seq, bytes) in self.collector.unsent_window(conn.sent) {
            conn.stream.write_all(bytes)?;
            conn.sent = seq + 1;
        }
        conn.sent = conn.sent.max(self.collector.next_seq());
        Ok(())
    }

    /// Applies one server frame: `Ack` trims the window, `Resync`
    /// re-baselines (re-sends the missing evicted tail and a full
    /// snapshot under a `Resync`-mode `Hello`), `Shutdown` converts to
    /// a connection error so the retry path reconnects elsewhere.
    fn apply_server_frame(&mut self, frame: Frame) -> io::Result<()> {
        match frame {
            Frame::Ack { through_seq } => {
                self.collector.ack(through_seq);
                Ok(())
            }
            Frame::Resync { from_seq } => {
                let hello = self.collector.handle_resync(from_seq);
                let first = match &hello {
                    Frame::Hello {
                        resume: Some(HelloResume::Resync { first_seq }),
                        ..
                    } => *first_seq,
                    _ => 0,
                };
                let conn = self.conn.as_mut().expect("connected");
                conn.stream.write_all(&encode_frame(&hello))?;
                conn.sent = first;
                self.push_window()
            }
            Frame::Shutdown => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "aggregator is shutting down",
            )),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected aggregator frame {other:?}"),
            )),
        }
    }

    /// Drains whatever the server has queued without blocking.
    fn poll_server(&mut self) -> io::Result<()> {
        loop {
            let conn = self.conn.as_mut().expect("connected");
            conn.stream.set_nonblocking(true)?;
            let ev = conn.read_event();
            conn.stream.set_nonblocking(false)?;
            match ev? {
                ReadEvent::Silence => return Ok(()),
                ReadEvent::Frames(frames) => {
                    if frames.is_empty() {
                        return Ok(());
                    }
                    for f in frames {
                        self.apply_server_frame(f)?;
                    }
                }
            }
        }
    }

    /// Seals everything pending and delivers it, reconnecting and
    /// replaying as needed. Returns as soon as the bytes are written
    /// — acks are consumed opportunistically, not awaited.
    ///
    /// # Errors
    ///
    /// The last connection error once the retry budget is spent.
    pub fn flush(&mut self) -> io::Result<()> {
        self.collector.seal_flush();
        self.deliver()
    }

    fn deliver(&mut self) -> io::Result<()> {
        loop {
            self.ensure_connected()?;
            let step = self.push_window().and_then(|()| self.poll_server());
            match step {
                Ok(()) => return Ok(()),
                Err(e) => self.note_failure(e)?,
            }
        }
    }

    /// Seals the `Bye` and runs the session to durable completion:
    /// every frame through the `Bye` written and acknowledged. Consumes the sender and
    /// returns the collector (tests inspect its engine).
    ///
    /// # Errors
    ///
    /// The last connection error once the retry budget is spent — a
    /// peer that never acks the final frames ends here too.
    pub fn finish(mut self) -> io::Result<Collector> {
        self.collector.seal_finish();
        loop {
            self.ensure_connected()?;
            match self.finish_round() {
                Ok(true) => return Ok(self.collector),
                Ok(false) => {}
                Err(e) => self.note_failure(e)?,
            }
        }
    }

    /// One connected attempt at completion: write the tail, then wait
    /// (bounded) for acks. `Ok(true)` = durably done; `Ok(false)` =
    /// keep waiting on this connection.
    fn finish_round(&mut self) -> io::Result<bool> {
        self.push_window()?;
        self.conn
            .as_mut()
            .expect("connected")
            .stream
            .set_read_timeout(Some(ACK_WAIT))?;
        loop {
            if self.collector.finish_acked() {
                return Ok(true);
            }
            match self.conn.as_mut().expect("connected").read_event()? {
                ReadEvent::Silence => {
                    // No ack within the wait: the peer is stuck (or we
                    // are mid-restart). Retry.
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no ack for the final frames",
                    ));
                }
                ReadEvent::Frames(frames) => {
                    for f in frames {
                        self.apply_server_frame(f)?;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mut a = Backoff::new(10, 1000, 42);
        let mut b = Backoff::new(10, 1000, 42);
        let sa: Vec<u64> = (0..12).map(|_| a.next_delay_ms()).collect();
        let sb: Vec<u64> = (0..12).map(|_| b.next_delay_ms()).collect();
        assert_eq!(sa, sb);
        let mut c = Backoff::new(10, 1000, 43);
        let sc: Vec<u64> = (0..12).map(|_| c.next_delay_ms()).collect();
        assert_ne!(sa, sc, "different seeds should jitter differently");
    }

    #[test]
    fn backoff_is_monotone_and_capped() {
        let mut b = Backoff::new(7, 350, 9);
        let mut prev = 0;
        for i in 0..40 {
            let d = b.next_delay_ms();
            assert!(d >= prev, "delay shrank at attempt {i}: {prev} -> {d}");
            assert!(d <= 350, "delay above cap at attempt {i}: {d}");
            prev = d;
        }
        assert_eq!(prev, 350, "schedule should saturate at the cap");
    }

    #[test]
    fn backoff_reset_replays_the_schedule() {
        let mut b = Backoff::new(5, 500, 77);
        let first: Vec<u64> = (0..8).map(|_| b.next_delay_ms()).collect();
        b.reset();
        let second: Vec<u64> = (0..8).map(|_| b.next_delay_ms()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn backoff_clamps_degenerate_parameters() {
        let mut b = Backoff::new(0, 0, 0);
        let d = b.next_delay_ms();
        assert!(d >= 1, "zero base must clamp to at least 1ms, got {d}");
        assert!(b.next_delay_ms() >= d);
    }

    #[test]
    fn finish_fails_against_a_peer_that_never_acks() {
        // The peer drains every byte and never writes back: nothing was
        // confirmed, so once the retries are spent `finish` must report
        // an error, not delivery.
        use crate::engine::{MonitorConfig, SamplerSpec};
        use std::os::unix::net::UnixStream;
        let mut drains = Vec::new();
        let connect = || -> io::Result<SessionStream> {
            let (client, mut peer) = UnixStream::pair()?;
            drains.push(std::thread::spawn(move || {
                let _ = io::copy(&mut peer, &mut io::sink());
            }));
            Ok(SessionStream::from(client))
        };
        let config = MonitorConfig::default()
            .sampler(SamplerSpec::Systematic { interval: 2 })
            .seed(1);
        let mut sender = SequencedSender::new(
            Collector::new_sequenced(1, config),
            connect,
            Backoff::new(1, 2, 7),
            1,
        );
        sender
            .collector_mut()
            .offer_batch(&[(1, 2.0), (2, 3.0), (1, 4.0)]);
        sender.flush().expect("writes need no ack");
        let err = sender.finish().err().expect("silence must not be delivery");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(drains.len(), 2, "one retry taken before giving up");
        for d in drains {
            d.join().expect("drain thread");
        }
    }
}
