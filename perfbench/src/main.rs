//! End-to-end benchmark of the monitor and the reproduction, with a
//! traced per-layer breakdown. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! A run sets up `SETUP_REPEATS` times (seeded input generation plus
//! warm-up; the median is `setup_s`), runs the timed phase for
//! `--seconds`, checks the outputs against a reference outside the
//! timed phase, and prints one JSON line last on stdout. `--trace 1`
//! splits the timed phase into a traced and an untraced half and
//! reports the per-layer metrics instead of the end-to-end ones.

mod inputs;
mod metrics;
mod online;
mod process;
mod rollup;
mod stats;
mod sweep;
mod tracer;

use metrics::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tracer::{self_time_by_layer, Tracer};

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Timed items per phase at least: p90 then has ten samples beyond it.
const MIN_ITEMS: usize = 100;
/// A timed phase never runs longer than this, whatever `--seconds`.
const MAX_PHASE: Duration = Duration::from_secs(120);
/// Groups the timed phase's items fall into for the throughput and
/// latency statistics (trimmed means across the groups).
const RATE_WINDOWS: usize = 10;

/// What a workload's reference check found.
pub struct Check {
    /// Checks and sessions attempted beyond the timed items.
    pub attempted: u64,
    /// Failed sessions, resyncs and reference mismatches.
    pub failed: u64,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Threads the workload runs on.
    const THREADS: usize = 1;
    /// Generates the inputs for `seed` and warms up. `trace` tells the
    /// workload to keep what the traced run's breakdown needs.
    fn setup(seed: u64, trace: bool) -> Self;
    /// Releases what set-up started, unchecked.
    fn discard(self) {}
    /// Called before the traced half of a traced run.
    fn start_traced(&mut self) {}
    /// Called after the traced half of a traced run.
    fn end_traced(&mut self) {}
    /// Untimed work between two items, such as replacing a finished
    /// serve session; its time is left out of the timed phase.
    fn between_items(&mut self) {}
    /// Runs item `item`; returns its latency in seconds.
    fn item(&mut self, item: u64, tr: &mut Tracer) -> f64;
    /// Checks the outputs against the reference; in a traced run also
    /// adds the per-layer values.
    fn finish(self, tr: &Tracer, values: &mut Values) -> Check;
}

/// Latencies and completion times of one timed phase.
struct Phase {
    latencies: Vec<f64>,
    ends: Vec<f64>,
}

impl Phase {
    fn throughput(&self) -> f64 {
        stats::windowed_rate(&self.ends, RATE_WINDOWS)
    }
}

fn timed<W: Workload>(w: &mut W, seconds: f64, tr: &mut Tracer, first: u64) -> Phase {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut p = Phase {
        latencies: Vec::new(),
        ends: Vec::new(),
    };
    while (start.elapsed() - paused < budget || p.latencies.len() < MIN_ITEMS)
        && start.elapsed() < MAX_PHASE
    {
        let t = Instant::now();
        w.between_items();
        paused += t.elapsed();
        let item = first + p.latencies.len() as u64;
        p.latencies.push(w.item(item, tr));
        p.ends.push((start.elapsed() - paused).as_secs_f64());
    }
    p
}

fn run<W: Workload>(name: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let inherited_sockets = process::sockets();
    let nproc = process::nproc();
    // A workload of several threads runs them all on one processor: a
    // hand-off between them is then a local context switch, not the
    // wake-up of another (virtual) processor, whose delay swings with
    // the host.
    if W::THREADS > 1 {
        if let Err(e) = process::bind_to_first_cpu() {
            eprintln!("{name}: could not bind to one processor: {e}");
        }
    }
    let mut setups = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let w = W::setup(seed, trace);
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUP_REPEATS {
            w.discard();
        } else {
            last = Some(w);
        }
    }
    let mut w = last.expect("at least one set-up");
    let mut values = Values::new();
    let mut tr = Tracer::new(trace);
    let mut off = Tracer::new(false);
    let (items, plain) = if trace {
        w.start_traced();
        let traced = timed(&mut w, seconds / 2.0, &mut tr, 0);
        w.end_traced();
        let n = traced.latencies.len();
        let untraced = timed(&mut w, seconds / 2.0, &mut off, n as u64);
        values.insert("trace.traced_per_s", traced.throughput());
        values.insert("trace.untraced_per_s", untraced.throughput());
        values.insert(
            "trace.overhead_per_s",
            traced.throughput() - untraced.throughput(),
        );
        (n + untraced.latencies.len(), None)
    } else {
        let p = timed(&mut w, seconds, &mut off, 0);
        (p.latencies.len(), Some(p))
    };
    let mut threads = process::threads();
    let connections = process::connections(inherited_sockets);
    let check = w.finish(&tr, &mut values);
    threads = threads.max(process::threads());
    // The design's own threads are allowed even on a single-processor
    // machine.
    let budget = nproc.max(W::THREADS);
    let within_budget = threads <= budget && connections <= budget;
    if !within_budget {
        eprintln!(
            "{name}: {threads} threads, {connections} connections exceed the budget of {budget}"
        );
    }

    let attempted = items as u64 + check.attempted;
    let failed = check.failed + u64::from(!within_budget);
    values.insert("setup_s", stats::median(&setups));
    if let Some(p) = plain {
        values.insert("throughput_per_s", p.throughput());
        let ms: Vec<f64> = p.latencies.iter().map(|s| s * 1e3).collect();
        // Each group keeps MIN_ITEMS items, so its p90 has ten beyond it.
        let groups = (ms.len() / MIN_ITEMS).clamp(1, RATE_WINDOWS);
        values.insert(
            "latency_p50_ms",
            stats::windowed_percentile(&ms, 50.0, groups),
        );
        values.insert(
            "latency_p90_ms",
            stats::windowed_percentile(&ms, 90.0, groups),
        );
    }
    values.insert("peak_rss_mb", process::peak_rss_mb());
    values.insert("success_frac", 1.0 - failed as f64 / attempted as f64);
    values.insert("load.nproc", nproc as f64);
    values.insert("load.threads", threads as f64);
    values.insert("load.connections", connections as f64);
    if trace {
        add_self_fracs(&tr, &mut values);
        values.insert("trace.spans", tr.spans().len() as f64);
        write_spans(name, seed, &tr);
    }
    eprintln!(
        "{name}: seed {seed}, {items} items, setups {setups:?} s, {threads} threads, {connections} connections"
    );
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
    }
}

/// Each layer's self time as a share of the traced items' time, for
/// every layer with a registered `self_frac.<layer>` metric; `bench` is
/// the benchmark's own glue.
fn add_self_fracs(tr: &Tracer, values: &mut Values) {
    let spans = tr.spans();
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(tracer::Span::duration_ns)
        .sum();
    let by_layer = self_time_by_layer(spans);
    for (name, _) in PER_LAYER {
        if let Some(layer) = name.strip_prefix("self_frac.") {
            let t = by_layer.get(layer).copied().unwrap_or(0);
            values.insert(name, t as f64 / total.max(1) as f64);
        }
    }
}

/// Writes the traced run's spans next to the benchmark's sources.
fn write_spans(name: &str, seed: u64, tr: &Tracer) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{name}-seed{seed}.tsv");
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tr.write_tsv(&mut f)?;
        std::io::Write::flush(&mut f)
    });
    match written {
        Ok(()) => eprintln!("{name}: {} spans written to {path}", tr.spans().len()),
        Err(e) => eprintln!("{name}: could not write {path}: {e}"),
    }
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let Some(workload) = workload else {
        usage("--workload is required");
    };
    let outcome = match workload.as_str() {
        "steady_diff" => run::<online::SteadyDiff>(&workload, seed, seconds, trace),
        "churn_tiered" => run::<online::ChurnTiered>(&workload, seed, seconds, trace),
        "rollup_merge" => run::<rollup::Rollup>(&workload, seed, seconds, trace),
        "paper_sweep" => run::<sweep::Sweep>(&workload, seed, seconds, trace),
        other => usage(&format!("unknown workload {other}")),
    };
    let registry = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!("{}", metrics::result_json(&outcome, registry));
    if !outcome.correct {
        std::process::exit(1);
    }
}
