//! `rollup_merge`: the operator's shard → link → network roll-up
//! (`monitor_tool merge`) on one thread, no sockets. Set-up encodes
//! `LINKS` per-link `.ssm` snapshots whose OD keys overlap; one item
//! decodes them all, merges them left to right, compacts and encodes
//! the result.

use crate::inputs::{sub_seed, TraceShape};
use crate::tracer::{totals_by_name, Tracer};
use crate::{Check, Values, Workload};
use sst_monitor::SamplerSpec;
use sst_monitor::{decode_snapshot, encode_snapshot, EngineSnapshot, MonitorConfig, MonitorEngine};
use std::collections::BTreeSet;

/// Links rolled up per item.
const LINKS: u64 = 4;
/// Per-summary byte budget of the network-level snapshot.
const COMPACT_BUDGET: usize = 768;

/// One link's trace: a Zipf host population shared by every link, so
/// the busy OD pairs appear on all of them.
const LINK_SHAPE: TraceShape = TraceShape {
    hosts: 600,
    mean_rate: 1.0e6,
    duration: 60.0,
};

/// A prepared roll-up.
pub struct Rollup {
    inputs: Vec<Vec<u8>>,
    input_streams: usize,
    shared_key_frac: f64,
    /// The last roll-up's encoded output.
    output: Vec<u8>,
}

fn link_snapshot(seed: u64, link: u64) -> EngineSnapshot {
    let config = MonitorConfig::default()
        .sampler(SamplerSpec::Bss {
            interval: 10,
            epsilon: 1.0,
            n_pre: 16,
            l: 4,
        })
        .shards(1)
        .seed(seed)
        .tail_thresholds(vec![64.0, 256.0, 576.0, 1024.0, 1400.0]);
    let mut engine = MonitorEngine::new(config);
    for chunk in LINK_SHAPE.od_points(sub_seed(seed, link)).chunks(1 << 16) {
        engine.offer_batch(chunk);
    }
    engine.full_snapshot()
}

/// The roll-up as `monitor_tool merge` does it: a left fold from the
/// empty snapshot.
fn merge_left(snaps: Vec<EngineSnapshot>, item: u64, tr: &mut Tracer) -> EngineSnapshot {
    let mut merged = EngineSnapshot::default();
    for s in snaps {
        merged = tr.time("engine.merge", item, || merged.merge(s));
    }
    merged
}

/// The same roll-up associated the other way: `a + (b + (c + d))`.
fn merge_right(mut snaps: Vec<EngineSnapshot>) -> EngineSnapshot {
    let mut acc = snaps.pop().unwrap_or_default();
    while let Some(s) = snaps.pop() {
        acc = s.merge(acc);
    }
    acc
}

/// Reservoir merges are seeded resamples, so a different association
/// keeps different samples; everything a merge must keep exactly —
/// the key set, sampler counters, moment counts, tail ladders — must
/// agree, and the means to rounding.
fn same_totals(a: &EngineSnapshot, b: &EngineSnapshot) -> bool {
    a.sampler_totals() == b.sampler_totals()
        && a.stream_count() == b.stream_count()
        && a.streams().iter().zip(b.streams()).all(|(x, y)| {
            let (mx, my) = (x.summary.moments.mean(), y.summary.moments.mean());
            x.key == y.key
                && x.sampler == y.sampler
                && x.summary.moments.count() == y.summary.moments.count()
                && x.summary.tail.raw_parts().1 == y.summary.tail.raw_parts().1
                && x.summary.tail.total() == y.summary.tail.total()
                && (mx - my).abs() <= 1e-9 * mx.abs().max(1.0)
        })
}

impl Rollup {
    fn decode_all(&self, item: u64, tr: &mut Tracer) -> Vec<EngineSnapshot> {
        self.inputs
            .iter()
            .map(|b| {
                tr.time("codec.decode", item, || decode_snapshot(b))
                    .expect("own .ssm decodes")
            })
            .collect()
    }
}

impl Workload for Rollup {
    fn setup(seed: u64, _trace: bool) -> Self {
        let snaps: Vec<EngineSnapshot> = (0..LINKS).map(|l| link_snapshot(seed, l)).collect();
        let input_streams: usize = snaps.iter().map(EngineSnapshot::stream_count).sum();
        let distinct: BTreeSet<u64> = snaps
            .iter()
            .flat_map(|s| s.streams().iter().map(|e| e.key))
            .collect();
        let mut w = Rollup {
            inputs: snaps.iter().map(|s| encode_snapshot(s).to_vec()).collect(),
            input_streams,
            shared_key_frac: 1.0 - distinct.len() as f64 / input_streams.max(1) as f64,
            output: Vec::new(),
        };
        w.item(u64::MAX, &mut Tracer::new(false));
        w
    }

    fn item(&mut self, item: u64, tr: &mut Tracer) -> f64 {
        let t = std::time::Instant::now();
        tr.begin("bench.rollup", item);
        let snaps = self.decode_all(item, tr);
        let mut merged = merge_left(snaps, item, tr);
        tr.time("engine.compact", item, || merged.compact(COMPACT_BUDGET));
        let out = tr.time("codec.encode", item, || encode_snapshot(&merged));
        tr.end();
        self.output = out.to_vec();
        t.elapsed().as_secs_f64()
    }

    fn finish(self, tr: &Tracer, values: &mut Values) -> Check {
        let mut off = Tracer::new(false);
        let got = decode_snapshot(&self.output).expect("roll-up output decodes");
        // Determinism: a fresh left fold reproduces the timed bytes.
        let mut again = merge_left(self.decode_all(0, &mut off), 0, &mut off);
        again.compact(COMPACT_BUDGET);
        let mut other = merge_right(self.decode_all(0, &mut off));
        other.compact(COMPACT_BUDGET);
        let ok = encode_snapshot(&again).as_ref() == self.output.as_slice()
            && same_totals(&got, &other)
            && got.stream_count() > 0;
        if !ok {
            eprintln!("rollup_merge: roll-up differs from the reference association");
        }
        if tr.enabled() {
            let totals = totals_by_name(tr.spans());
            let ns = |name: &str| totals.get(name).map_or(0, |t| t.1) as f64;
            let items = totals.get("bench.rollup").map_or(0, |t| t.0).max(1) as f64;
            let in_bytes: usize = self.inputs.iter().map(Vec::len).sum();
            let out_streams = got.stream_count().max(1) as f64;
            values.insert(
                "codec.decode_ns_per_byte",
                ns("codec.decode") / (items * in_bytes as f64),
            );
            values.insert(
                "engine.merge_us_per_stream",
                ns("engine.merge") / 1e3 / (items * self.input_streams as f64),
            );
            values.insert(
                "engine.compact_us_per_stream",
                ns("engine.compact") / 1e3 / (items * out_streams),
            );
            values.insert(
                "codec.encode_ns_per_byte",
                ns("codec.encode") / (items * self.output.len().max(1) as f64),
            );
            values.insert("engine.shared_key_frac", self.shared_key_frac);
        }
        Check {
            attempted: 1,
            failed: u64::from(!ok),
        }
    }
}
