//! **PERF** — layer-1 interchangeability demo: the same `NodeProgram`
//! run on the time-stepped simulator (one shard inline, and one shard
//! per core on worker threads) and on the channel-based threaded demo.
//! Reports wall-clock times.

use std::time::Instant;

use hyperspace_apps::traversal::FloodFill;
use hyperspace_sim::threaded::{run_threaded, SimAdapter};
use hyperspace_sim::{ShardedConfig, ShardedSimulation, SimConfig, Simulation};
use hyperspace_topology::{Topology, Torus};

fn main() {
    for side in [16u32, 32, 64] {
        let nodes = (side * side) as usize;
        // Sequential simulator.
        let t0 = Instant::now();
        let mut sim = Simulation::new(Torus::new_2d(side, side), FloodFill, SimConfig::default());
        sim.inject(0, ());
        sim.run_to_quiescence().unwrap();
        let seq = t0.elapsed();
        let delivered = sim.metrics().total_delivered;

        // The same kernel, one shard per core on worker threads.
        let t0 = Instant::now();
        let mut sim = ShardedSimulation::new(
            Torus::new_2d(side, side),
            FloodFill,
            SimConfig::default(),
            ShardedConfig::default(),
        );
        sim.inject(0, ());
        sim.run_to_quiescence().unwrap();
        let par = t0.elapsed();
        assert_eq!(sim.metrics().total_delivered, delivered);

        // Threaded backend (real concurrency, no step clock).
        let topo = Torus::new_2d(side, side);
        let t0 = Instant::now();
        let (states, report) = run_threaded(&topo, &SimAdapter(FloodFill), vec![(0, ())], 4);
        let thr = t0.elapsed();
        assert!(states.iter().all(|&v| v));
        assert_eq!(report.total_delivered, delivered);

        println!(
            "{:>10} ({nodes:>5} cores): sim-seq {seq:>10.1?}  sim-par {par:>10.1?}  threaded(4) {thr:>10.1?}  [{} messages]",
            topo.name(),
            delivered
        );
    }
    println!("\nAll three backends delivered identical message totals and states.");
}
