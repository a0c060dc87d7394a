//! **ABL-I** — cross-layer hint ablation (§III-B3).
//!
//! The weight-aware mapper keeps sub-problems below a size threshold on
//! the issuing node, avoiding shipping work that is cheaper than the hop
//! it would travel. Compared against RR/LBN on two hint-rich workloads:
//! the DPLL solver (hint = residual clause count) and distributed
//! Fibonacci (hint = argument). Writes `results/ablation_hints.csv`.

use hyperspace_apps::FibProgram;
use hyperspace_bench::experiments::{paper_suite, suite_means, write_results_csv, SatRunConfig};
use hyperspace_core::{MapperSpec, StackBuilder, TopologySpec};

fn fib_time(mapper: MapperSpec, n: u64) -> f64 {
    let report = StackBuilder::new(FibProgram)
        .topology(TopologySpec::Torus2D { w: 14, h: 14 })
        .mapper(mapper)
        .halt_on_root_reply(false)
        .run(n, 0);
    report.computation_time as f64
}

fn main() {
    let suite = paper_suite();
    let topo = TopologySpec::Torus2D { w: 14, h: 14 };
    let mappers = [
        ("round-robin", MapperSpec::RoundRobin),
        (
            "least-busy",
            MapperSpec::LeastBusy {
                status_period: None,
            },
        ),
        (
            "weight-aware(8)",
            MapperSpec::WeightAware {
                local_threshold: 8,
                status_period: None,
            },
        ),
        (
            "weight-aware(24)",
            MapperSpec::WeightAware {
                local_threshold: 24,
                status_period: None,
            },
        ),
    ];

    println!(
        "{:>18} {:>16} {:>16} {:>14}",
        "mapper", "SAT time (mean)", "SAT msgs (mean)", "fib(17) time"
    );
    let mut csv = String::from("mapper,sat_time_mean,sat_msgs_mean,fib17_time\n");
    for (name, mapper) in mappers {
        let cfg = SatRunConfig::new(topo.clone(), mapper.clone());
        let [t, m] = suite_means(&suite, &cfg, |report| {
            [
                report.computation_time as f64,
                report.metrics.total_sent as f64,
            ]
        });
        let f = fib_time(mapper.clone(), 17);
        println!("{name:>18} {t:>16.1} {m:>16.1} {f:>14.1}");
        csv.push_str(&format!("{name},{t:.3},{m:.3},{f:.3}\n"));
    }
    write_results_csv("ablation_hints.csv", &csv);
    println!(
        "\nFinding: because sub-problems are self-contained messages, keeping\n\
         work local still costs a (loopback) queue slot, so message totals do\n\
         not drop - and local execution serialises the node. Hints pay off\n\
         only with a zero-cost local execution path; with the paper's\n\
         one-message-per-step cores, plain least-busy wins. Raising the\n\
         threshold (24) visibly re-serialises the computation."
    );
}
