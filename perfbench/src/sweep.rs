//! `paper_sweep`: the reproduction on one thread. One item is one
//! instance: a synthetic trace at the paper's H = 0.8 with a Pareto
//! (α = 1.5, mean 5.68) marginal, systematic, stratified, simple-random
//! and BSS sampling over the paper's rate grid, and a Hurst estimate.

use crate::inputs::sub_seed;
use crate::tracer::{totals_by_name, Tracer};
use crate::{Check, Values, Workload};
use sst_core::stream::{
    StreamSampler, StreamingBss, StreamingSimpleRandom, StreamingStratified, StreamingSystematic,
};
use sst_core::{
    run_bss_experiment, run_experiment, BssSampler, OnlineTuning, Sampler, SimpleRandomSampler,
    StratifiedSampler, SystematicSampler, ThresholdPolicy,
};
use sst_hurst::WaveletEstimator;
use sst_traffic::{FgnPlan, FgnScratch, SyntheticTraceSpec};

const LEN: usize = 1 << 17;
const HURST: f64 = 0.8;
const ALPHA: f64 = 1.5;
const MEAN: f64 = 5.68;
/// Sampling instances per rate point (the reproduction's quick scale).
const INSTANCES: usize = 9;
/// Interval of the stream ≡ offline check; divides `LEN`, so
/// stratified sampling has no partial final bucket.
const CHECK_INTERVAL: usize = 128;
/// Traced instances whose fGn generation is timed again on its own.
const FGN_PROBES: u64 = 16;

/// The paper's synthetic rate grid: 9 log-spaced rates over
/// 1e-5…1e-1, keeping those that expect at least 10 samples.
fn rates() -> Vec<f64> {
    (0..9)
        .map(|i| 10f64.powf(-5.0 + 0.5 * i as f64))
        .filter(|r| r * LEN as f64 >= 10.0)
        .collect()
}

/// The paper's online BSS threshold: ε = 1, L from the Eq.-35 η
/// estimate.
fn policy() -> ThresholdPolicy {
    ThresholdPolicy::Online(OnlineTuning {
        epsilon: 1.0,
        alpha: ALPHA,
        ..OnlineTuning::default()
    })
}

fn bss(interval: usize) -> BssSampler {
    BssSampler::new(interval, policy()).expect("valid BSS configuration")
}

fn trace_spec(seed: u64) -> SyntheticTraceSpec {
    SyntheticTraceSpec::new()
        .length(LEN)
        .hurst(HURST)
        .pareto_marginal(ALPHA, MEAN)
        .seed(seed)
}

/// Kept `(index, value)` pairs of a streaming sampler over `values`.
fn stream_kept(s: &mut dyn StreamSampler, values: &[f64]) -> (Vec<usize>, Vec<f64>) {
    let mut idx = Vec::new();
    let mut kept = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        if s.offer(v).is_kept() {
            idx.push(i);
            kept.push(v);
        }
    }
    (idx, kept)
}

/// The stream ≡ offline pin on one trace: each sampler keeps the same
/// samples whether fed the slice or pushed point by point.
fn stream_matches_offline(values: &[f64], seed: u64) -> bool {
    let c = CHECK_INTERVAL;
    let rate = 1.0 / c as f64;
    let same = |offline: &[usize], off_vals: &[f64], s: &mut dyn StreamSampler| {
        let (idx, kept) = stream_kept(s, values);
        idx == offline && kept == off_vals
    };
    let sys = SystematicSampler::new(c).sample(values, seed);
    let strat = StratifiedSampler::new(c).sample(values, seed);
    let rand = SimpleRandomSampler::new(rate).sample(values, seed);
    let b = bss(c);
    let l = b.effective_l(values.len());
    let b_out = b.with_l(l).sample_detailed(values, seed);
    same(
        sys.indices(),
        sys.values(),
        &mut StreamingSystematic::new(c, seed).expect("valid"),
    ) && same(
        strat.indices(),
        strat.values(),
        &mut StreamingStratified::new(c, seed).expect("valid"),
    ) && same(
        rand.indices(),
        rand.values(),
        &mut StreamingSimpleRandom::new(rate, seed).expect("valid"),
    ) && same(
        b_out.samples.indices(),
        b_out.samples.values(),
        &mut StreamingBss::new(c, policy(), l, seed).expect("valid"),
    )
}

/// Mean time of `FgnPlan::generate_values_into` alone, in ms, over the
/// first traced instances' seeds. It runs after the timed phase, so it
/// adds nothing to the traced items, their self times or the tracing
/// overhead; `traffic.build_ms` minus it is the marginal transform.
fn fgn_ms(seed: u64, instances: u64) -> f64 {
    let plan = FgnPlan::new(HURST, LEN).expect("valid fGn parameters");
    let (mut out, mut scratch) = (Vec::new(), FgnScratch::default());
    let n = instances.min(FGN_PROBES);
    let t = std::time::Instant::now();
    for i in 0..n {
        plan.generate_values_into(sub_seed(seed, i), &mut out, &mut scratch);
    }
    t.elapsed().as_secs_f64() * 1e3 / n.max(1) as f64
}

/// A prepared sweep.
pub struct Sweep {
    seed: u64,
    rates: Vec<f64>,
    /// `sample()` calls per sampler, in the order of `SAMPLERS`.
    calls: [u64; 4],
    overhead_sum: f64,
    overhead_n: u64,
    hurst_failures: u64,
}

/// Span names of the four samplers, in `Sweep::calls` order.
const SAMPLERS: [&str; 4] = [
    "core.systematic",
    "core.stratified",
    "core.simple_random",
    "core.bss",
];

impl Workload for Sweep {
    fn setup(seed: u64, _trace: bool) -> Self {
        let mut w = Sweep {
            seed,
            rates: rates(),
            calls: [0; 4],
            overhead_sum: 0.0,
            overhead_n: 0,
            hurst_failures: 0,
        };
        w.item(u64::MAX, &mut Tracer::new(false));
        w
    }

    fn start_traced(&mut self) {
        self.calls = [0; 4];
        self.overhead_sum = 0.0;
        self.overhead_n = 0;
    }

    fn item(&mut self, item: u64, tr: &mut Tracer) -> f64 {
        let t = std::time::Instant::now();
        let s = sub_seed(self.seed, item);
        tr.begin("bench.instance", item);
        let trace = tr.time("traffic.build", item, || trace_spec(s).build());
        let values = trace.values();
        for &rate in &self.rates {
            let c = (1.0 / rate).round().max(1.0) as usize;
            let per_c = INSTANCES.min(c);
            tr.time(SAMPLERS[0], item, || {
                run_experiment(values, &SystematicSampler::new(c), per_c, s)
            });
            tr.time(SAMPLERS[1], item, || {
                run_experiment(values, &StratifiedSampler::new(c), per_c, s)
            });
            tr.time(SAMPLERS[2], item, || {
                run_experiment(values, &SimpleRandomSampler::new(rate), INSTANCES, s)
            });
            let b = bss(c);
            let r = tr.time(SAMPLERS[3], item, || {
                run_bss_experiment(values, &b, per_c, s)
            });
            self.calls[0] += per_c as u64;
            self.calls[1] += per_c as u64;
            self.calls[2] += INSTANCES as u64;
            self.calls[3] += per_c as u64;
            self.overhead_sum += r.mean_overhead();
            self.overhead_n += 1;
        }
        let h = tr.time("hurst.estimate", item, || {
            WaveletEstimator::default().estimate(values)
        });
        if h.is_err() {
            self.hurst_failures += 1;
        }
        tr.end();
        t.elapsed().as_secs_f64()
    }

    fn finish(self, tr: &Tracer, values: &mut Values) -> Check {
        let s = sub_seed(self.seed, 0);
        let trace = trace_spec(s).build();
        let ok = stream_matches_offline(trace.values(), s);
        if !ok {
            eprintln!("paper_sweep: streaming samplers differ from the offline ones");
        }
        if tr.enabled() {
            let totals = totals_by_name(tr.spans());
            let mean_ms = |name: &str| {
                totals
                    .get(name)
                    .map_or(0.0, |&(n, ns)| ns as f64 / n.max(1) as f64 / 1e6)
            };
            let ns = |name: &str| totals.get(name).map_or(0, |t| t.1) as f64;
            values.insert("traffic.build_ms", mean_ms("traffic.build"));
            let instances = totals.get("bench.instance").map_or(0, |t| t.0);
            values.insert("traffic.fgn_ms", fgn_ms(self.seed, instances));
            let keys = [
                "core.sample_us.systematic",
                "core.sample_us.stratified",
                "core.sample_us.simple_random",
                "core.sample_us.bss",
            ];
            for ((key, span), calls) in keys.iter().zip(SAMPLERS).zip(self.calls) {
                values.insert(key, ns(span) / 1e3 / calls.max(1) as f64);
            }
            values.insert(
                "core.bss_overhead",
                self.overhead_sum / self.overhead_n.max(1) as f64,
            );
            values.insert("hurst.estimate_ms", mean_ms("hurst.estimate"));
        }
        Check {
            attempted: 1,
            failed: u64::from(!ok) + self.hurst_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_grid_keeps_ten_expected_samples() {
        let r = rates();
        assert_eq!(r.len(), 7);
        assert!(r.iter().all(|&x| x * LEN as f64 >= 10.0));
        assert!((r[r.len() - 1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn check_interval_divides_the_trace() {
        assert_eq!(LEN % CHECK_INTERVAL, 0);
    }
}
