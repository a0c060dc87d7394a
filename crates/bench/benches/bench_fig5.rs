//! Criterion companion to FIG5: one fully-instrumented 196-core run
//! (queue series + node activity recording enabled), RR vs LBN.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hyperspace_bench::experiments::{run_sat, SatRunConfig};
use hyperspace_core::{MapperSpec, TopologySpec};
use hyperspace_sat::gen;

fn bench_fig5(c: &mut Criterion) {
    let cnf = gen::uf20_91(2017);
    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    for (name, mapper) in [
        ("rr", MapperSpec::RoundRobin),
        (
            "lbn",
            MapperSpec::LeastBusy {
                status_period: None,
            },
        ),
    ] {
        let cfg = SatRunConfig::new(TopologySpec::Torus2D { w: 14, h: 14 }, mapper);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let report = run_sat(std::hint::black_box(&cnf), &cfg);
                // The instrumented artefacts Figure 5 is drawn from:
                (
                    report.metrics.queued_series.len(),
                    report.metrics.activity_spread().to_bits(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
