//! Criterion benches: traffic generation throughput (fGn, copula
//! transform, on/off aggregation, M/G/∞, packet-trace synthesis).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sst_nettrace::TraceSynthesizer;
use sst_stats::dist::Pareto;
use sst_traffic::{copula, FgnGenerator, MgInfModel, OnOffModel};

fn bench_generators(c: &mut Criterion) {
    let mut g = c.benchmark_group("generators");
    for n in [1usize << 14, 1 << 17] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("fgn_davies_harte", n), &n, |b, &n| {
            let gen = FgnGenerator::new(0.8).expect("valid");
            b.iter(|| gen.generate_values(n, 7));
        });
        g.bench_with_input(BenchmarkId::new("fgn_plus_copula", n), &n, |b, &n| {
            let gen = FgnGenerator::new(0.8).expect("valid");
            let marginal = Pareto::with_mean(1.5, 5.68);
            b.iter(|| copula::transform_values(&gen.generate_values(n, 7), &marginal));
        });
        g.bench_with_input(BenchmarkId::new("onoff_32_sources", n), &n, |b, &n| {
            let model = OnOffModel::for_hurst(0.8, 32).expect("valid");
            b.iter(|| model.generate(n, 7));
        });
        g.bench_with_input(BenchmarkId::new("mginf", n), &n, |b, &n| {
            let model = MgInfModel::new(2.0, 1.4, 10.0).expect("valid");
            b.iter(|| model.generate(n, 7));
        });
    }
    // Packet traces count packets: the sparse Bell-Labs preset, and the
    // online workloads' shape (2000 hosts at 4 MB/s, ~0.85M packets).
    let traces = [
        (
            "bell_labs_packet_trace_60s",
            TraceSynthesizer::bell_labs_like().duration(60.0),
        ),
        (
            "packet_trace_2000_hosts_120s",
            TraceSynthesizer::bell_labs_like()
                .hosts(2000)
                .mean_rate(4.0e6)
                .duration(120.0),
        ),
    ];
    for (id, synth) in traces {
        g.throughput(Throughput::Elements(synth.synthesize(7).len() as u64));
        g.bench_function(id, |b| b.iter(|| synth.synthesize(7)));
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_generators
}
criterion_main!(benches);
