//! The paper's headline use case: solving a random 3-SAT instance on a
//! simulated 196-core 2-D torus, with the Figure 5 instrumentation.
//!
//! Generates a satisfiable uf20-91-distribution instance, solves it
//! distributed (round robin vs least-busy-neighbour), verifies the model,
//! and renders the temporal/spatial unfolding.
//!
//! Run with: `cargo run --release --example sat_mesh [seed]`

use hyperspace::core::{MapperSpec, StackBuilder, TopologySpec};
use hyperspace::obs::ascii;
use hyperspace::sat::{
    check_model, gen, DpllProgram, Heuristic, SimplifyMode, SubProblem, Verdict,
};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2017u64);
    let cnf = gen::uf20_91(seed);
    println!(
        "instance: uniform 3-SAT, {} vars, {} clauses (seed {seed})",
        cnf.num_vars(),
        cnf.num_clauses()
    );

    for mapper in [
        MapperSpec::RoundRobin,
        MapperSpec::LeastBusy {
            status_period: None,
        },
    ] {
        let name = mapper.name();
        let program =
            DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly);
        let report = StackBuilder::new(program)
            .topology(TopologySpec::Torus2D { w: 14, h: 14 })
            .mapper(mapper)
            .halt_on_root_reply(false)
            .run(SubProblem::root(cnf.clone()), 0);

        let verdict = report.result.expect("root verdict");
        match &verdict {
            Verdict::Sat(model) => {
                assert!(check_model(&cnf, model), "solver returned an invalid model");
                println!("\n== {name}: SAT (model verified) ==");
            }
            Verdict::Unsat => println!("\n== {name}: UNSAT =="),
        }
        println!(
            "computation time {} steps | {} messages | {} activations | speculative wins {}",
            report.computation_time,
            report.metrics.total_sent,
            report.rec_totals.started,
            report.rec_totals.speculative_wins,
        );
        let metrics = &report.metrics;
        let series: Vec<f64> = metrics.queued_series.iter().map(|&q| q as f64).collect();
        println!("interconnect activity (queued messages vs step):");
        println!("{}", ascii::render_line_chart(&series, 60, 10));
        println!(
            "node activity (messages delivered per core), spread {:.3}:",
            metrics.activity_spread()
        );
        println!("{}", ascii::render_heatmap(&metrics.delivered_per_node, 14));
    }
}
