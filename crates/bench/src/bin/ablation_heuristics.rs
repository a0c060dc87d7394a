//! **ABL-H** — branching-heuristic ablation (§V-B calls the heuristic
//! "algorithm-independent"; this quantifies how much it matters).
//!
//! For every heuristic: sequential search statistics and distributed
//! computation time on the Figure 5 machine. Writes
//! `results/ablation_heuristics.csv`.

use hyperspace_bench::experiments::{
    column_means, paper_suite, suite_means, write_results_csv, SatRunConfig,
};
use hyperspace_core::{MapperSpec, TopologySpec};
use hyperspace_sat::heuristics::ALL_HEURISTICS;
use hyperspace_sat::{cdcl, dpll, SimplifyMode};

fn main() {
    let suite = paper_suite();
    let topo = TopologySpec::Torus2D { w: 14, h: 14 };
    let mapper = MapperSpec::LeastBusy {
        status_period: None,
    };

    println!(
        "{:>16} {:>12} {:>12} {:>14} {:>14}",
        "heuristic", "seq nodes", "seq decisions", "mesh time", "mesh messages"
    );
    let mut csv =
        String::from("heuristic,seq_nodes_mean,seq_decisions_mean,mesh_time_mean,mesh_msgs_mean\n");
    for h in ALL_HEURISTICS {
        let [n, d] = column_means(suite.iter().map(|cnf| {
            let (result, stats) = dpll::solve(cnf, h);
            assert!(result.is_sat());
            [stats.nodes as f64, stats.decisions as f64]
        }));
        let mut cfg = SatRunConfig::new(topo.clone(), mapper.clone());
        cfg.heuristic = h;
        cfg.mode = SimplifyMode::Fixpoint; // heuristics matter most with the real solver
        let [t, m] = suite_means(&suite, &cfg, |report| {
            [
                report.computation_time as f64,
                report.metrics.total_sent as f64,
            ]
        });
        println!(
            "{:>16} {n:>12.1} {d:>12.1} {t:>14.1} {m:>14.1}",
            h.to_string()
        );
        csv.push_str(&format!("{h},{n:.3},{d:.3},{t:.3},{m:.3}\n"));
    }
    write_results_csv("ablation_heuristics.csv", &csv);

    // Solver-strength footnote: the clause-learning baseline the paper's
    // barebone DPLL deliberately omits (§V-B).
    let [decisions, learned] = column_means(suite.iter().map(|cnf| {
        let (r, stats) = cdcl::solve(cnf);
        assert!(r.is_sat());
        [stats.decisions as f64, stats.learned as f64]
    }));
    println!(
        "\nCDCL-lite baseline (sequential): {decisions:.1} decisions, {learned:.1} learned clauses (mean)"
    );
}
