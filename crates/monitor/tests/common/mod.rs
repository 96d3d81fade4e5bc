//! The integration tests' collector ⇄ aggregator plumbing over
//! lossless pipes (in-memory buffers, sockets that never fail).

use sst_monitor::{encode_frame, Aggregator, Collector, SessionDriver, SessionError};
use std::io::{self, Write};

/// Seals with `seal` and writes the sealed window to `w` — the `Hello`
/// first when the session has sealed nothing yet — then acks it: a
/// lossless pipe delivers everything it accepted.
fn ship(c: &mut Collector, w: &mut impl Write, seal: fn(&mut Collector)) -> io::Result<()> {
    if c.next_seq() == 0 {
        w.write_all(&encode_frame(&c.hello()))?;
    }
    seal(c);
    let mut through = None;
    for (seq, bytes) in c.unsent_window(0) {
        w.write_all(bytes)?;
        through = Some(seq);
    }
    if let Some(seq) = through {
        c.ack(seq);
    }
    Ok(())
}

/// [`Collector::seal_flush`], shipped to `w`.
pub fn flush(c: &mut Collector, w: &mut impl Write) -> io::Result<()> {
    ship(c, w, Collector::seal_flush)
}

/// [`Collector::seal_finish`], shipped to `w`: the session's last
/// frames, through its `Bye`.
pub fn finish(c: &mut Collector, w: &mut impl Write) -> io::Result<()> {
    ship(c, w, Collector::seal_finish)
}

/// Runs one whole session's bytes into `agg` through a
/// [`SessionDriver`], in socket-read-sized (64 KiB) pushes. Returns the
/// frames delivered.
pub fn ingest(agg: &mut Aggregator, bytes: &[u8]) -> Result<usize, SessionError> {
    let mut driver = SessionDriver::new();
    for chunk in bytes.chunks(64 * 1024) {
        driver.push(chunk, agg)?;
    }
    driver.finish(agg)?;
    Ok(driver.frames_delivered())
}
