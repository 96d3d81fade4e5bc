//! The name registry — workloads, end-to-end and per-layer metrics —
//! and the one-line JSON result. `BENCHMARK.json` at the repository
//! root mirrors these lists.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Workload names with the reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "steady_diff",
        "OD-keyed collector->serve steady state: wire-v4 DeltaDiff updates dominate; sketch, lifecycle and merge barely run",
    ),
    (
        "churn_tiered",
        "5-tuple keys with tiering and idle eviction: new-key Delta, Evicted frames and sketch images; a diff-path gain must not tax it",
    ),
    (
        "rollup_merge",
        "shard->link->network roll-up of overlapping-key .ssm snapshots on one thread: decode, merge, compact, encode",
    ),
    (
        "paper_sweep",
        "the reproduction on one thread: fGn trace, four samplers over the paper's rate grid, Hurst estimate",
    ),
];

/// End-to-end metrics: name and unit. Every workload reports all of
/// them from its untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "frac"),
];

/// Per-layer metrics: name and unit, reported by the traced run. A
/// layer a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("ingest.offer_ns_per_point", "ns"),
    ("ingest.live_streams", "count"),
    ("sketch.absorbed_frac", "frac"),
    ("sketch.promotions", "count"),
    ("sketch.demotions", "count"),
    ("lifecycle.evicted_per_flush", "count"),
    ("topology.seal_flush_ms", "ms"),
    ("topology.seal_ns_per_dirty_entry", "ns"),
    ("wire.bytes_per_flush", "B"),
    ("wire.bytes_per_point", "B"),
    ("wire.diff_bytes_frac", "frac"),
    ("transport.write_ms", "ms"),
    ("transport.ack_wait_ms", "ms"),
    ("transport.failed_sessions", "count"),
    ("wire.decode_ns_per_byte", "ns"),
    ("topology.apply_diff_us_per_frame", "us"),
    ("topology.apply_full_us_per_frame", "us"),
    ("topology.resyncs", "count"),
    ("topology.snapshot_ms", "ms"),
    ("topology.agg_state_mb", "MB"),
    ("codec.decode_ns_per_byte", "ns"),
    ("engine.merge_us_per_stream", "us"),
    ("engine.compact_us_per_stream", "us"),
    ("codec.encode_ns_per_byte", "ns"),
    ("engine.shared_key_frac", "frac"),
    ("traffic.build_ms", "ms"),
    ("traffic.fgn_ms", "ms"),
    ("core.sample_us.systematic", "us"),
    ("core.sample_us.stratified", "us"),
    ("core.sample_us.simple_random", "us"),
    ("core.sample_us.bss", "us"),
    ("core.bss_overhead", "frac"),
    ("hurst.estimate_ms", "ms"),
    ("self_frac.bench", "frac"),
    ("self_frac.ingest", "frac"),
    ("self_frac.topology", "frac"),
    ("self_frac.transport", "frac"),
    ("self_frac.codec", "frac"),
    ("self_frac.engine", "frac"),
    ("self_frac.traffic", "frac"),
    ("self_frac.core", "frac"),
    ("self_frac.hurst", "frac"),
    ("trace.spans", "count"),
    ("trace.traced_per_s", "1/s"),
    ("trace.untraced_per_s", "1/s"),
    ("trace.overhead_per_s", "1/s"),
    ("load.nproc", "count"),
    ("load.threads", "count"),
    ("load.connections", "count"),
];

/// What one run produced.
pub struct Outcome {
    /// Every check passed and the load budget held.
    pub correct: bool,
    /// Operations attempted (timed items plus reference checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

/// The result line: `registry` selects which metrics are printed, in
/// order; a registered metric the run did not measure prints as 0.
pub fn result_json(o: &Outcome, registry: &[(&str, &str)]) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in registry.iter().enumerate() {
        let v = o.values.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.correct, o.attempted, o.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `true` for a name of 1–64 characters from `[A-Za-z0-9_.-]` that
    /// starts with a letter or digit.
    fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn all_names() -> Vec<&'static str> {
        WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect()
    }

    #[test]
    fn names_are_valid_and_unique() {
        let names = all_names();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let unique: BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn name_rule_rejects_bad_characters() {
        assert!(valid_name("core.sample_us.bss"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("ü"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // a copy of the benchmark without the repository
        };
        let names = all_names();
        for n in &names {
            assert!(text.contains(&format!("\"name\": \"{n}\"")), "{n} missing");
        }
        assert_eq!(text.matches("\"name\":").count(), names.len());
        for (_, why) in WORKLOADS {
            assert!(text.contains(why), "why text differs: {why}");
        }
    }

    #[test]
    fn result_line_has_every_registered_metric() {
        let mut values = BTreeMap::new();
        values.insert("setup_s", 0.5);
        values.insert("latency_p50_ms", f64::NAN);
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            values,
        };
        let line = result_json(&o, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }
}
