//! Layer-1 engine microbenchmarks: message throughput of the one step
//! kernel stepped inline as a single shard (`seq`) versus cut into one
//! shard per core on as many worker threads (`parallel`), on light
//! (flood-fill) and heavy (DPLL activation) handlers. The heavy group
//! is also the K-sweep the sharding work is judged on: `sequential`
//! pays no barrier, lock or atomic, so every `sharded:K` id beside it
//! shows what the exchange and the barriers cost or buy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hyperspace_apps::traversal::FloodFill;
use hyperspace_bench::experiments::{run_sat, SatRunConfig};
use hyperspace_core::{BackendSpec, MapperSpec, Partition, TopologySpec};
use hyperspace_sat::gen;
use hyperspace_sim::{ShardedConfig, ShardedSimulation, SimConfig};
use hyperspace_topology::Torus;

fn bench_flood_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim-flood-32x32");
    group.sample_size(20);
    for (name, scfg) in [
        ("sequential", ShardedConfig::with_shards(1)),
        ("parallel", ShardedConfig::default()),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let mut sim = ShardedSimulation::new(
                    Torus::new_2d(32, 32),
                    FloodFill,
                    SimConfig {
                        record_queue_series: false,
                        ..SimConfig::default()
                    },
                    scfg.clone(),
                );
                sim.inject(0, ());
                sim.run_to_quiescence().unwrap();
                sim.metrics().total_delivered
            })
        });
    }
    group.finish();
}

fn bench_sat_stepper(c: &mut Criterion) {
    let cnf = gen::uf20_91(2017);
    let mut group = c.benchmark_group("sim-sat-14x14");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    let sharded = [2, 4, 8].map(|shards| {
        let backend = BackendSpec::Sharded {
            shards,
            partition: Partition::Block,
            threads: None,
        };
        (format!("sharded:{shards}"), backend)
    });
    let backends = [
        ("sequential".to_string(), BackendSpec::Sequential),
        ("parallel".to_string(), BackendSpec::Parallel),
    ];
    for (name, backend) in backends.into_iter().chain(sharded) {
        let mut cfg = SatRunConfig::new(
            TopologySpec::Torus2D { w: 14, h: 14 },
            MapperSpec::LeastBusy {
                status_period: None,
            },
        );
        cfg.backend = backend;
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| run_sat(std::hint::black_box(&cnf), &cfg).computation_time)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flood_fill, bench_sat_stepper);
criterion_main!(benches);
