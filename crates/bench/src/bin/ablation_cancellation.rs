//! **ABL-C** — speculative-branch cancellation ablation.
//!
//! The paper ignores losing `Any`-join branches (§IV-C); their sub-trees
//! keep burning mesh capacity. The `with_cancellation` extension withdraws
//! them. This ablation measures both configurations on the Figure 5
//! machine. Writes `results/ablation_cancellation.csv`.

use hyperspace_bench::experiments::{paper_suite, suite_means, write_results_csv, SatRunConfig};
use hyperspace_core::{MapperSpec, TopologySpec};

fn main() {
    let suite = paper_suite();
    let machines = [16usize, 64, 196, 400, 1024];
    println!(
        "{:>8} {:>10} {:>14} {:>14} {:>14} {:>12}",
        "cores", "cancel", "time (mean)", "msgs (mean)", "activations", "cancelled"
    );
    let mut csv =
        String::from("cores,cancellation,time_mean,msgs_mean,activations_mean,cancelled_mean\n");
    for &cores in &machines {
        for cancel in [false, true] {
            let mut cfg = SatRunConfig::new(
                TopologySpec::torus2d_fitting(cores),
                MapperSpec::LeastBusy {
                    status_period: None,
                },
            );
            cfg.cancellation = cancel;
            let [t, m, a, c] = suite_means(&suite, &cfg, |report| {
                [
                    report.computation_time as f64,
                    report.metrics.total_sent as f64,
                    report.rec_totals.started as f64,
                    report.rec_totals.cancelled as f64,
                ]
            });
            println!("{cores:>8} {cancel:>10} {t:>14.1} {m:>14.1} {a:>14.1} {c:>12.1}");
            csv.push_str(&format!("{cores},{cancel},{t:.3},{m:.3},{a:.3},{c:.3}\n"));
        }
    }
    write_results_csv("ablation_cancellation.csv", &csv);
    println!(
        "\nExpected: cancellation prunes losing sub-trees, cutting messages\n\
         and drain time, most visibly on small congested machines."
    );
}
