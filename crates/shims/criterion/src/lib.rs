//! Offline stand-in for `criterion`.
//!
//! Implements the subset of the criterion 0.5 API the workspace's benches
//! use — `criterion_group!`/`criterion_main!`, `Criterion::default()`,
//! benchmark groups with `sample_size`/`throughput`/`warm_up_time`/
//! `measurement_time`, `bench_function`/`bench_with_input`, and
//! `Bencher::iter` — as a straightforward wall-clock harness:
//!
//! * each benchmark is warmed up, then timed over `sample_size` samples;
//! * the **median** per-iteration time is reported (robust to scheduler
//!   noise), plus min/max;
//! * when the `CRITERION_JSON` environment variable names a file, one
//!   JSON line per benchmark is appended:
//!   `{"id":…,"ns_per_iter":…,"min_ns":…,"mad_ns":…,"samples":…,"iters":…,"throughput_elems":…}`
//!   — `ns_per_iter` is the median, `mad_ns` the median absolute
//!   deviation of the samples from it, `samples` their count and `iters`
//!   the iterations per sample; the workspace's `scripts/bench_json.sh`
//!   uses this to build `BENCH_samplers.json`.
//!
//! `cargo test` executes harness-less bench binaries with `--test`; in
//! that mode every benchmark runs exactly one iteration as a smoke test
//! (still appending its id to `CRITERION_JSON` when set, which is how
//! `scripts/check_bench_ids.sh` enumerates the harness's current ids).
//!
//! As in criterion, the first positional argument is a name filter:
//! only benchmarks whose id contains it run, so
//! `cargo bench -p sst-bench --bench monitor -- diff_flush` runs the
//! `monitor/diff_flush*` rows alone. Without one, every benchmark runs.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation for a benchmark group (reported alongside time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier: `function_name/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a parameter value.
    pub fn new<N: Display, P: Display>(name: N, param: P) -> Self {
        BenchmarkId {
            id: format!("{name}/{param}"),
        }
    }

    /// Creates an id from a parameter value only.
    pub fn from_parameter<P: Display>(param: P) -> Self {
        BenchmarkId {
            id: param.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over the harness-chosen number of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Lets `routine` run the iterations itself: it gets the iteration
    /// count and returns the time they took, so work it does between
    /// the timed parts stays out of the measurement.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        self.elapsed = routine(self.iters);
    }

    /// Times `routine` with a per-iteration setup step excluded from the
    /// measurement (approximated: setup runs inside the loop but its cost
    /// is measured and subtracted).
    pub fn iter_with_setup<S, I, O, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let setup_start = Instant::now();
        let mut inputs = Vec::with_capacity(self.iters as usize);
        for _ in 0..self.iters {
            inputs.push(setup());
        }
        let _setup_cost = setup_start.elapsed();
        let start = Instant::now();
        for input in inputs {
            black_box(routine(input));
        }
        self.elapsed = start.elapsed();
    }
}

/// Measurement configuration, shared by [`Criterion`] and groups.
#[derive(Clone, Debug)]
struct MeasureCfg {
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    smoke_test: bool,
    /// Run only the benchmarks whose id contains this.
    filter: Option<String>,
}

impl MeasureCfg {
    fn default_cfg() -> Self {
        let (smoke_test, filter) = parse_args(std::env::args().skip(1));
        MeasureCfg {
            sample_size: 20,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_millis(1500),
            smoke_test,
            filter,
        }
    }
}

/// The smoke-test flag (`--test`) and the name filter (the first
/// argument that is not a flag) of a bench binary's arguments.
fn parse_args(args: impl IntoIterator<Item = String>) -> (bool, Option<String>) {
    let mut smoke_test = false;
    let mut filter = None;
    for arg in args {
        if arg == "--test" {
            smoke_test = true;
        } else if !arg.starts_with('-') && filter.is_none() {
            filter = Some(arg);
        }
    }
    (smoke_test, filter)
}

/// Top-level harness state.
#[derive(Clone, Debug)]
pub struct Criterion {
    cfg: MeasureCfg,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            cfg: MeasureCfg::default_cfg(),
        }
    }
}

impl Criterion {
    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.cfg.sample_size = n.max(2);
        self
    }

    /// Sets the warm-up duration.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.cfg.warm_up = d;
        self
    }

    /// Sets the measurement budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.cfg.measurement = d;
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group<N: Display>(&mut self, name: N) -> BenchmarkGroup<'_> {
        let cfg = self.cfg.clone();
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
            cfg,
            throughput: None,
        }
    }

    /// Benchmarks a function outside any group.
    pub fn bench_function<N, F>(&mut self, id: N, f: F) -> &mut Self
    where
        N: Display,
        F: FnMut(&mut Bencher),
    {
        let cfg = self.cfg.clone();
        run_benchmark(&id.to_string(), &cfg, None, f);
        self
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    cfg: MeasureCfg,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timing samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.cfg.sample_size = n.max(2);
        self
    }

    /// Sets the warm-up duration for this group.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.cfg.warm_up = d;
        self
    }

    /// Sets the measurement budget for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.cfg.measurement = d;
        self
    }

    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmarks a closure under `id` within this group.
    pub fn bench_function<N, F>(&mut self, id: N, f: F) -> &mut Self
    where
        N: Display,
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        run_benchmark(&full, &self.cfg, self.throughput, f);
        self
    }

    /// Benchmarks a closure parameterized by `input`.
    pub fn bench_with_input<N, I, F>(&mut self, id: N, input: &I, mut f: F) -> &mut Self
    where
        N: Display,
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        run_benchmark(&full, &self.cfg, self.throughput, |b| f(b, input));
        self
    }

    /// Finishes the group (reporting is per-benchmark; kept for API
    /// compatibility).
    pub fn finish(self) {}
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    id: &str,
    cfg: &MeasureCfg,
    throughput: Option<Throughput>,
    mut f: F,
) {
    if cfg.filter.as_deref().is_some_and(|name| !id.contains(name)) {
        return;
    }
    if cfg.smoke_test {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        println!("{id}: smoke test ok");
        // Still record the id (with the single-iteration time) when JSON
        // output was requested: `scripts/check_bench_ids.sh` runs the
        // harness in smoke mode to enumerate the current benchmark ids
        // and diff them against the committed BENCH_samplers.json.
        append_json(id, &[b.elapsed.as_nanos() as f64], 1, throughput);
        return;
    }
    // Calibration: time one iteration to size the warm-up and samples.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let once = b.elapsed.max(Duration::from_nanos(20));

    // Warm-up loop.
    let warm_end = Instant::now() + cfg.warm_up;
    while Instant::now() < warm_end {
        let mut wb = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut wb);
        if once > cfg.warm_up {
            break; // one iteration already exceeds the warm-up budget
        }
    }

    // Choose per-sample iteration count so the whole measurement stays
    // within the budget.
    let per_sample = cfg.measurement.as_secs_f64() / cfg.sample_size as f64;
    let iters = (per_sample / once.as_secs_f64()).floor().clamp(1.0, 1e9) as u64;

    let mut samples_ns: Vec<f64> = Vec::with_capacity(cfg.sample_size);
    for _ in 0..cfg.sample_size {
        let mut sb = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut sb);
        samples_ns.push(sb.elapsed.as_nanos() as f64 / iters as f64);
    }
    samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let median = median_of(&samples_ns);
    let lo = samples_ns[0];
    let hi = samples_ns[samples_ns.len() - 1];

    let thr = match throughput {
        Some(Throughput::Elements(n)) if median > 0.0 => {
            format!("  thrpt: {} elem/s", human_rate(n as f64 / (median * 1e-9)))
        }
        Some(Throughput::Bytes(n)) if median > 0.0 => {
            format!("  thrpt: {}B/s", human_rate(n as f64 / (median * 1e-9)))
        }
        _ => String::new(),
    };
    println!(
        "{id:<50} time: [{} {} {}]{thr}",
        human_time(lo),
        human_time(median),
        human_time(hi)
    );
    append_json(id, &samples_ns, iters, throughput);
}

fn human_time(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.2} ns")
    } else if ns < 1e6 {
        format!("{:.3} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn human_rate(per_s: f64) -> String {
    if per_s >= 1e9 {
        format!("{:.3} G", per_s / 1e9)
    } else if per_s >= 1e6 {
        format!("{:.3} M", per_s / 1e6)
    } else if per_s >= 1e3 {
        format!("{:.3} K", per_s / 1e3)
    } else {
        format!("{per_s:.1} ")
    }
}

/// The median of ascending `sorted` (its upper middle when even).
fn median_of(sorted: &[f64]) -> f64 {
    sorted[sorted.len() / 2]
}

/// Appends one benchmark's [`record_line`] to the `CRITERION_JSON`
/// file, when that names one.
fn append_json(id: &str, sorted_ns: &[f64], iters: u64, throughput: Option<Throughput>) {
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let line = record_line(id, sorted_ns, iters, throughput);
    if let Ok(mut fh) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = fh.write_all(line.as_bytes());
    }
}

/// One benchmark's JSON record from its per-iteration sample times
/// (ascending, at least one), newline-terminated.
fn record_line(id: &str, sorted_ns: &[f64], iters: u64, throughput: Option<Throughput>) -> String {
    let median = median_of(sorted_ns);
    let mut deviations: Vec<f64> = sorted_ns.iter().map(|t| (t - median).abs()).collect();
    deviations.sort_by(f64::total_cmp);
    let thr = match throughput {
        Some(Throughput::Elements(n)) => format!(",\"throughput_elems\":{n}"),
        Some(Throughput::Bytes(n)) => format!(",\"throughput_bytes\":{n}"),
        None => String::new(),
    };
    format!(
        "{{\"id\":\"{}\",\"ns_per_iter\":{:.1},\"min_ns\":{:.1},\"mad_ns\":{:.1},\"samples\":{},\"iters\":{}{}}}\n",
        id.replace('"', "'"),
        median,
        sorted_ns[0],
        median_of(&deviations),
        sorted_ns.len(),
        iters,
        thr
    )
}

/// Declares a benchmark group: either `criterion_group!(name, fn…)` or the
/// braced form with an explicit `config = …`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench `main` that runs the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_ids_format() {
        assert_eq!(BenchmarkId::new("fgn", 1024).to_string(), "fgn/1024");
        assert_eq!(BenchmarkId::from_parameter(7).to_string(), "7");
    }

    #[test]
    fn harness_runs_and_reports() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        // Whatever name filter the test binary was run with.
        c.cfg.filter = None;
        let mut g = c.benchmark_group("shim");
        g.throughput(Throughput::Elements(10));
        let mut runs = 0u64;
        g.bench_function("tiny", |b| {
            b.iter(|| {
                runs += 1;
                black_box(runs)
            })
        });
        g.finish();
        assert!(runs > 0, "benchmark closure must have executed");
    }

    #[test]
    fn positional_argument_filters_by_name() {
        let args = |a: &[&str]| parse_args(a.iter().map(|s| s.to_string()));
        assert_eq!(args(&["--bench"]), (false, None));
        assert_eq!(args(&["--test"]), (true, None));
        assert_eq!(
            args(&["--bench", "diff_flush"]),
            (false, Some("diff_flush".to_string()))
        );
        assert_eq!(
            args(&["--test", "wire", "tcp"]),
            (true, Some("wire".to_string()))
        );
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        c.cfg.filter = Some("keep".to_string());
        let mut ran = Vec::new();
        let mut g = c.benchmark_group("shim");
        for id in ["keep_me", "drop_me", "also_keep"] {
            g.bench_function(id, |b| {
                ran.push(id);
                b.iter(|| ())
            });
        }
        g.finish();
        ran.dedup();
        assert_eq!(ran, ["keep_me", "also_keep"]);
    }

    #[test]
    fn human_units() {
        assert!(human_time(12.0).ends_with("ns"));
        assert!(human_time(12_000.0).ends_with("µs"));
        assert!(human_time(12_000_000.0).ends_with("ms"));
        assert!(human_time(2e9).ends_with('s'));
    }

    #[test]
    fn record_carries_median_min_mad_and_sample_count() {
        let line = record_line(
            "g/\"x\"",
            &[10.0, 11.0, 12.0, 15.0, 40.0],
            7,
            Some(Throughput::Elements(3)),
        );
        // Median 12; deviations {0, 1, 2, 3, 28} → MAD 2.
        assert_eq!(
            line,
            "{\"id\":\"g/'x'\",\"ns_per_iter\":12.0,\"min_ns\":10.0,\"mad_ns\":2.0,\"samples\":5,\"iters\":7,\"throughput_elems\":3}\n"
        );
        let smoke = record_line("one", &[5.0], 1, None);
        assert_eq!(
            smoke,
            "{\"id\":\"one\",\"ns_per_iter\":5.0,\"min_ns\":5.0,\"mad_ns\":0.0,\"samples\":1,\"iters\":1}\n"
        );
    }
}
