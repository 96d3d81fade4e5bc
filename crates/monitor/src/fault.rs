//! Deterministic fault injection for transport tests: a seeded
//! man-in-the-middle proxy that mangles collector connections in
//! reproducible ways.
//!
//! [`FaultyLink`] sits between forwarders and a serve socket. Every
//! accepted connection gets a [`FaultPlan`] derived *only* from the
//! proxy seed and the connection's accept index, so a test run with a
//! fixed seed injects the same faults every time:
//!
//! * **drop** — the connection dies before any byte crosses,
//! * **truncate / kill-after-N** — forwarding stops mid-stream (and,
//!   with the byte budget landing inside a frame, mid-frame),
//! * **delay** — each forwarded chunk stalls a few milliseconds,
//! * **split** — writes are sliced into tiny chunks so frame headers
//!   and payloads straddle arbitrary read boundaries.
//!
//! Connections past `clean_after` pass through untouched — the
//! convergence guarantee that lets a test assert *eventual* success:
//! a retrying forwarder needs only finitely many attempts before it
//! gets a clean link. The server→client direction (acks, resyncs) is
//! always shuttled verbatim; a killed connection tears down both
//! directions, which is exactly the torn-session the seq/ack protocol
//! exists to survive.

use crate::transport::SessionStream;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where the proxy forwards to — the real serve socket.
#[derive(Clone, Debug)]
pub enum Target {
    /// A Unix-domain socket path.
    Unix(String),
    /// A TCP address (`host:port`).
    Tcp(String),
}

impl Target {
    fn connect(&self) -> io::Result<SessionStream> {
        Ok(match self {
            Target::Unix(path) => SessionStream::Unix(UnixStream::connect(path)?),
            Target::Tcp(addr) => SessionStream::Tcp(TcpStream::connect(addr.as_str())?),
        })
    }
}

/// What the proxy does to one connection's client→server byte stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Kill both directions after forwarding this many client bytes
    /// (`Some(0)` = drop the connection outright).
    pub kill_after: Option<u64>,
    /// Sleep this long before each forwarded chunk.
    pub delay_ms: u64,
    /// Forward at most this many bytes per write (splits frames).
    pub chunk: usize,
}

impl FaultPlan {
    /// The identity plan: bytes pass through untouched.
    pub fn clean() -> FaultPlan {
        FaultPlan {
            kill_after: None,
            delay_ms: 0,
            chunk: usize::MAX,
        }
    }

    /// The plan for connection number `index` under `seed`:
    /// deterministic, clean at and past `clean_after`. Faulty plans
    /// cycle through drop / early kill (mid-frame truncation) / late
    /// kill / delay / split, with the magnitudes drawn from the seed.
    pub fn for_connection(seed: u64, index: u64, clean_after: u64) -> FaultPlan {
        if index >= clean_after {
            return FaultPlan::clean();
        }
        let mut state = (seed ^ (index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut plan = FaultPlan::clean();
        match next() % 5 {
            0 => plan.kill_after = Some(0),
            // Well inside a session's first frames: tears mid-frame
            // more often than not.
            1 => plan.kill_after = Some(64 + next() % 4096),
            2 => plan.kill_after = Some(4096 + next() % 65_536),
            3 => plan.delay_ms = 1 + next() % 5,
            _ => plan.chunk = 1 + (next() % 7) as usize,
        }
        // Half the delayed/split connections *also* die eventually, so
        // the matrix covers compound failures.
        if plan.kill_after.is_none() && next() % 2 == 0 {
            plan.kill_after = Some(1024 + next() % 32_768);
        }
        plan
    }
}

/// The listening front of a [`FaultyLink`].
pub enum Front {
    /// Accept on a Unix-domain listener.
    Unix(UnixListener),
    /// Accept on a TCP listener.
    Tcp(TcpListener),
}

impl Front {
    /// The bound TCP address, when the front is TCP (tests bind port 0
    /// and need the ephemeral port back).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            Front::Unix(_) => None,
            Front::Tcp(l) => l.local_addr().ok(),
        }
    }

    fn accept(&self) -> io::Result<Option<SessionStream>> {
        let res = match self {
            Front::Unix(l) => l.accept().map(|(s, _)| SessionStream::Unix(s)),
            Front::Tcp(l) => l.accept().map(|(s, _)| SessionStream::Tcp(s)),
        };
        match res {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Front::Unix(l) => l.set_nonblocking(true),
            Front::Tcp(l) => l.set_nonblocking(true),
        }
    }
}

/// A running fault-injection proxy; dropping it stops the accept loop
/// (in-flight shuttles drain on their own).
pub struct FaultyLink {
    stop: Arc<AtomicBool>,
    accepted: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl FaultyLink {
    /// Starts proxying `front` → `target` with plans drawn from
    /// `seed`, connections `0..clean_after` faulted, the rest clean.
    ///
    /// # Errors
    ///
    /// Setting the front listener non-blocking.
    pub fn spawn(front: Front, target: Target, seed: u64, clean_after: u64) -> io::Result<Self> {
        front.set_nonblocking()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicU64::new(0));
        let t_stop = stop.clone();
        let t_accepted = accepted.clone();
        let thread = std::thread::spawn(move || {
            while !t_stop.load(Ordering::SeqCst) {
                match front.accept() {
                    Ok(Some(client)) => {
                        let index = t_accepted.fetch_add(1, Ordering::SeqCst);
                        let plan = FaultPlan::for_connection(seed, index, clean_after);
                        let target = target.clone();
                        std::thread::spawn(move || {
                            let _ = shuttle(client, &target, plan);
                        });
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        });
        Ok(FaultyLink {
            stop,
            accepted,
            thread: Some(thread),
        })
    }

    /// Connections accepted so far (tests assert faults actually
    /// happened by checking this passed `clean_after`).
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }
}

impl Drop for FaultyLink {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Shuttles one connection: client→server through the fault plan,
/// server→client verbatim on a second thread. Returns when the
/// faulted direction ends (kill, EOF, or error).
fn shuttle(mut client: SessionStream, target: &Target, plan: FaultPlan) -> io::Result<()> {
    if plan.kill_after == Some(0) {
        let _ = client.shutdown(Shutdown::Both);
        return Ok(());
    }
    let mut upstream = match target.connect() {
        Ok(s) => s,
        Err(_) => {
            // Serve is down (restart window): the client sees a drop
            // and retries — exactly the real-world failure.
            let _ = client.shutdown(Shutdown::Both);
            return Ok(());
        }
    };
    // Back-channel: acks/resyncs flow to the client unmangled.
    let mut back_up = upstream.try_clone()?;
    let back_client = client.try_clone()?;
    std::thread::spawn(move || {
        let mut back_client = back_client;
        let mut buf = [0u8; 4096];
        loop {
            match back_up.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    // A reader claiming more than the buffer ends the
                    // relay like any other broken back-channel.
                    let Some(chunk) = buf.get(..n) else { break };
                    if back_client.write_all(chunk).is_err() {
                        break;
                    }
                }
            }
        }
        let _ = back_client.shutdown(Shutdown::Write);
    });
    let mut forwarded = 0u64;
    let mut buf = [0u8; 8192];
    loop {
        let n = match client.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let mut off = 0;
        while off < n {
            if let Some(kill) = plan.kill_after {
                if forwarded >= kill {
                    let _ = upstream.shutdown(Shutdown::Both);
                    let _ = client.shutdown(Shutdown::Both);
                    return Ok(());
                }
            }
            let mut take = (n - off).min(plan.chunk);
            if let Some(kill) = plan.kill_after {
                // Land the kill exactly on its byte budget, mid-chunk.
                take = take.min((kill - forwarded) as usize).max(1);
            }
            if plan.delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(plan.delay_ms));
            }
            let Some(chunk) = buf.get(off..off + take) else {
                break; // take is clamped to n - off; nothing to forward
            };
            if upstream.write_all(chunk).is_err() {
                let _ = client.shutdown(Shutdown::Both);
                return Ok(());
            }
            forwarded += take as u64;
            off += take;
        }
    }
    // Clean client EOF: let the server finish and answer.
    let _ = upstream.shutdown(Shutdown::Write);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_eventually_clean() {
        for index in 0..32 {
            assert_eq!(
                FaultPlan::for_connection(11, index, 16),
                FaultPlan::for_connection(11, index, 16),
            );
        }
        for index in 16..64 {
            assert_eq!(
                FaultPlan::for_connection(11, index, 16),
                FaultPlan::clean(),
                "connection {index} past clean_after must be clean"
            );
        }
        let faulted = (0..16)
            .filter(|&i| FaultPlan::for_connection(11, i, 16) != FaultPlan::clean())
            .count();
        assert_eq!(faulted, 16, "every pre-threshold connection is faulted");
    }
}
