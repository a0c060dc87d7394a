//! Listing 1: the message-passing mesh traversal, written directly against
//! layer 1, on three different machines.
//!
//! Demonstrates the base programming model (init + receive handlers) and
//! the §V-C instrumentation: the traversal wavefront is visible in the
//! queue time series, and every node's visit in the node-activity map.
//!
//! Run with: `cargo run --release --example traversal`

use hyperspace::apps::traversal::{DistanceLabel, FloodFill};
use hyperspace::obs::ascii;
use hyperspace::sim::{SimConfig, Simulation};
use hyperspace::topology::{Hypercube, Topology, Torus};

fn main() {
    // Flood-fill on the paper's three machine families.
    println!("== Listing 1 flood fill ==");
    flood(Torus::new_2d(14, 14));
    flood(Torus::new_3d(6, 6, 6));
    flood(Hypercube::new(8));

    // The distance-labelling variant doubles as an in-simulator check of
    // the topology's distance function.
    println!("\n== distance labelling on a 16x16 torus ==");
    let mut sim = Simulation::new(Torus::new_2d(16, 16), DistanceLabel, SimConfig::default());
    sim.inject(0, 0);
    sim.run_to_quiescence().unwrap();
    let topo = Torus::new_2d(16, 16);
    let ok = (0..256u32).all(|n| sim.state(n).unwrap() == topo.distance(0, n));
    println!("labels match Topology::distance: {ok}");
    let queued = &sim.metrics().queued_series;
    let series: Vec<f64> = queued.iter().map(|&q| q as f64).collect();
    println!("queued messages while the wavefront expands and drains:");
    println!("{}", ascii::render_line_chart(&series, 60, 10));
}

fn flood<T: Topology + 'static>(topo: T) {
    let name = topo.name();
    let mut sim = Simulation::new(topo, FloodFill, SimConfig::default());
    sim.inject(0, ());
    let report = sim.run_to_quiescence().unwrap();
    let visited = sim.states().iter().filter(|&&v| v).count();
    println!(
        "{name:>16}: visited {visited}/{} nodes in {} steps ({} messages)",
        sim.states().len(),
        report.steps,
        sim.metrics().total_delivered,
    );
}
