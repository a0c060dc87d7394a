//! **ABL-W** — workload-regime calibration (documented in EXPERIMENTS.md).
//!
//! Shows how per-activation simplification strength sets the speculative
//! tree size, and hence which regime the scaling experiments run in:
//! fixpoint simplification solves uf20-91 almost outright (tens of
//! activations, no congestion — no scaling signal), while split-only
//! reproduces the message volumes visible in the paper's Figure 5. Writes
//! `results/ablation_simplify.csv`.

use hyperspace_bench::experiments::{paper_suite, suite_means, write_results_csv, SatRunConfig};
use hyperspace_core::{MapperSpec, TopologySpec};
use hyperspace_sat::SimplifyMode;

fn main() {
    let suite = paper_suite();
    let modes = [
        SimplifyMode::Fixpoint,
        SimplifyMode::SinglePass,
        SimplifyMode::SplitOnly,
    ];
    let machines = [16usize, 196, 1024];
    println!(
        "{:>13} {:>8} {:>14} {:>14} {:>12} {:>14}",
        "mode", "cores", "time (mean)", "activations", "peak queue", "speedup 16->1024"
    );
    let mut csv = String::from("mode,cores,time_mean,activations_mean,peak_queue_mean\n");
    for mode in modes {
        let mut first_time = 0.0;
        let mut last_time = 0.0;
        for &cores in &machines {
            let mut cfg = SatRunConfig::new(
                TopologySpec::torus2d_fitting(cores),
                MapperSpec::LeastBusy {
                    status_period: None,
                },
            );
            cfg.mode = mode;
            let [t, a, p] = suite_means(&suite, &cfg, |report| {
                [
                    report.computation_time as f64,
                    report.rec_totals.started as f64,
                    report.metrics.peak_queued() as f64,
                ]
            });
            if cores == machines[0] {
                first_time = t;
            }
            if cores == machines[machines.len() - 1] {
                last_time = t;
            }
            let speedup = if cores == machines[machines.len() - 1] {
                format!("{:.2}x", first_time / last_time)
            } else {
                String::new()
            };
            println!(
                "{:>13} {cores:>8} {t:>14.1} {a:>14.1} {p:>12.1} {speedup:>14}",
                mode.to_string()
            );
            csv.push_str(&format!("{mode},{cores},{t:.3},{a:.3},{p:.3}\n"));
        }
    }
    write_results_csv("ablation_simplify.csv", &csv);
}
