//! A lossless in-memory duplex link between one collector and an
//! aggregator: sealed frames go in through a `SessionDriver`, and the
//! aggregator's acks and resync requests come back to the collector.

use sst_monitor::wire::HelloResume;
use sst_monitor::{
    decode_frames, encode_frame, Aggregator, Collector, Frame, SessionDriver, SessionError,
};

/// Ships the collector's sealed window into the driver/aggregator,
/// answering `Ack`s and `Resync`s until the link is quiescent.
/// Returns the wire bytes shipped (window frames only, not hellos).
pub fn pump(
    collector: &mut Collector,
    sent: &mut u64,
    driver: &mut SessionDriver,
    agg: &mut Aggregator,
) -> u64 {
    let mut shipped = 0u64;
    loop {
        let mut buf = Vec::new();
        for (_seq, bytes) in collector.unsent_window(*sent) {
            buf.extend_from_slice(bytes);
        }
        shipped += buf.len() as u64;
        *sent = collector.next_seq();
        driver.push(&buf, agg).expect("clean in-memory link");
        let out = driver.take_outbound();
        if out.is_empty() {
            return shipped;
        }
        let mut resynced = false;
        for f in decode_frames(&out).expect("well-formed control frames") {
            match f {
                Frame::Ack { through_seq } => collector.ack(through_seq),
                Frame::Resync { from_seq } => {
                    let hello = collector.handle_resync(from_seq);
                    let first = match &hello {
                        Frame::Hello {
                            resume: Some(HelloResume::Resync { first_seq }),
                            ..
                        } => *first_seq,
                        other => panic!("resync answer must be a Resync hello, got {other:?}"),
                    };
                    driver
                        .push(&encode_frame(&hello), agg)
                        .expect("resync hello");
                    *sent = first;
                    resynced = true;
                }
                other => panic!("unexpected server frame {other:?}"),
            }
        }
        if !resynced && collector.unsent_window(*sent).next().is_none() {
            return shipped;
        }
    }
}

/// Pushes `collector`'s opening `Hello` through `driver`.
pub fn open_session(
    collector: &Collector,
    driver: &mut SessionDriver,
    agg: &mut Aggregator,
) -> Result<(), SessionError> {
    driver.push(&encode_frame(&collector.hello()), agg)
}
