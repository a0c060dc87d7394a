//! **ABL-R** — neighbour-restricted vs. virtualised any-to-any mapping.
//!
//! The paper's §V-A model restricts messages to adjacent cores, but real
//! hyperspace machines (SpiNNaker, §II-A) virtualise arbitrary topologies
//! over their NoC. This ablation compares, at equal core counts:
//!
//! 1. the paper's model — adjacent-only sends, least-busy mapping;
//! 2. a virtualised fabric — global-random mapping over hop-by-hop routed
//!    delivery (messages occupy the NoC for `distance` steps);
//! 3. the idealised fully connected machine.
//!
//! Writes `results/ablation_routing.csv`.

use hyperspace_bench::experiments::{paper_suite, suite_means, write_results_csv, SatRunConfig};
use hyperspace_core::{MapperSpec, TopologySpec};

fn main() {
    let suite = paper_suite();
    let sizes = [36usize, 196, 1024];
    println!(
        "{:>8} {:>28} {:>14} {:>12}",
        "cores", "configuration", "time (mean)", "mean hops"
    );
    let mut csv = String::from("cores,configuration,time_mean,mean_hops\n");
    for &cores in &sizes {
        let torus = TopologySpec::torus2d_fitting(cores);
        let configs = [
            (
                "torus adjacent + LBN",
                torus.clone(),
                MapperSpec::LeastBusy {
                    status_period: None,
                },
            ),
            (
                "torus NoC + global-random",
                torus,
                MapperSpec::GlobalRandom { seed: 0x6105 },
            ),
            (
                "fully connected + random",
                TopologySpec::Full { n: cores as u32 },
                MapperSpec::Random { seed: 0xF0_11 },
            ),
        ];
        for (name, topo, mapper) in configs {
            let cfg = SatRunConfig::new(topo, mapper);
            let [t, h] = suite_means(&suite, &cfg, |report| {
                [
                    report.computation_time as f64,
                    report.metrics.hop_histogram.mean(),
                ]
            });
            println!("{cores:>8} {name:>28} {t:>14.1} {h:>12.2}");
            csv.push_str(&format!("{cores},{name},{t:.3},{h:.3}\n"));
        }
    }
    write_results_csv("ablation_routing.csv", &csv);
    println!(
        "\nReading: global-random mapping buys fully-connected-like load\n\
         spreading at the cost of multi-hop transit latency; the gap to the\n\
         ideal machine is the price of the NoC."
    );
}
