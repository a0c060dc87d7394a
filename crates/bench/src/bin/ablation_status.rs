//! **ABL-S** — status-broadcast ablation (§III-B2).
//!
//! Adaptive mapping can refresh its activity estimates with periodic
//! status broadcasts; each broadcast costs one message per link per
//! period. This sweep quantifies the trade-off between estimate freshness
//! and interconnect overhead. Writes `results/ablation_status.csv`.

use hyperspace_bench::experiments::{paper_suite, suite_means, write_results_csv, SatRunConfig};
use hyperspace_core::{MapperSpec, TopologySpec};

fn main() {
    let suite = paper_suite();
    // Period 4 on a degree-4 torus injects exactly one status message per
    // node per step — the machine's entire service capacity. Anything more
    // aggressive diverges (queues grow without bound), so the sweep stops
    // there.
    let periods: [Option<u64>; 4] = [None, Some(16), Some(8), Some(4)];
    let machines = [36usize, 196, 1024];
    println!(
        "{:>8} {:>10} {:>14} {:>14} {:>14}",
        "cores", "period", "time (mean)", "msgs (mean)", "status msgs"
    );
    let mut csv = String::from("cores,status_period,time_mean,msgs_mean,status_mean\n");
    for &cores in &machines {
        for period in periods {
            // With broadcasts enabled the machine never drains, so this
            // ablation measures time-to-root-verdict for every row.
            let mut cfg = SatRunConfig::new(
                TopologySpec::torus2d_fitting(cores),
                MapperSpec::LeastBusy {
                    status_period: period,
                },
            );
            cfg.halt_on_root = true;
            let [t, m, s] = suite_means(&suite, &cfg, |report| {
                [
                    report.computation_time as f64,
                    report.metrics.total_sent as f64,
                    report.status_total as f64,
                ]
            });
            let period_str = period.map_or("off".to_string(), |p| p.to_string());
            println!("{cores:>8} {period_str:>10} {t:>14.1} {m:>14.1} {s:>14.1}");
            csv.push_str(&format!("{cores},{period_str},{t:.3},{m:.3},{s:.3}\n"));
        }
    }
    write_results_csv("ablation_status.csv", &csv);
    println!(
        "\nExpected: aggressive broadcasting (period 2) floods small machines\n\
         with status traffic; piggy-backing alone (off) is close to optimal."
    );
}
