//! **FIG5** — regenerates Figure 5: temporal and spatial unfolding of SAT
//! problems on a 196-core 2D torus, round-robin versus least-busy-
//! neighbour.
//!
//! Top row: superimposed queued-messages-versus-time traces for the 20
//! benchmark problems. Bottom row: heatmaps of total messages delivered
//! per node for one problem. Writes `results/fig5_queues_{rr,lbn}.csv`
//! and `results/fig5_heatmap_{rr,lbn}.csv`.
//!
//! Usage: `cargo run --release -p hyperspace-bench --bin fig5_unfolding`

use hyperspace_bench::experiments::{paper_suite, run_sat, write_results_csv, SatRunConfig};
use hyperspace_core::{MapperSpec, TopologySpec};
use hyperspace_obs::ascii;

const SIDE: u32 = 14; // 14 x 14 = 196 cores, the Figure 5 machine

fn main() {
    let suite = paper_suite();
    let topo = TopologySpec::Torus2D { w: SIDE, h: SIDE };
    let mappers = [
        ("Round Robin", "rr", MapperSpec::RoundRobin),
        (
            "Least Busy Neighbour",
            "lbn",
            MapperSpec::LeastBusy {
                status_period: None,
            },
        ),
    ];

    for (label, tag, mapper) in mappers {
        let cfg = SatRunConfig::new(topo.clone(), mapper);
        let mut traces: Vec<Vec<f64>> = Vec::with_capacity(suite.len());
        let mut first = None;
        let mut peaks = Vec::new();
        let mut times = Vec::new();
        for (i, cnf) in suite.iter().enumerate() {
            let report = run_sat(cnf, &cfg);
            times.push(report.computation_time);
            peaks.push(report.metrics.peak_queued());
            let queued = &report.metrics.queued_series;
            traces.push(queued.iter().map(|&q| q as f64).collect());
            if i == 0 {
                first = Some(report.metrics);
            }
        }
        let first = first.expect("at least one instance");

        // Temporal unfolding: all traces superimposed (Figure 5 top).
        println!("== {label} ==");
        println!(
            "computation time: min {} / mean {:.0} / max {} steps; peak queued: max {}",
            times.iter().min().unwrap(),
            times.iter().sum::<u64>() as f64 / times.len() as f64,
            times.iter().max().unwrap(),
            peaks.iter().max().unwrap(),
        );
        let named: Vec<(String, &[f64])> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("p{i:02}"), t.as_slice()))
            .collect();
        // Render only a handful of traces to keep the chart legible; all 20
        // go to the CSV.
        let shown: Vec<(&str, &[f64])> = named
            .iter()
            .take(5)
            .map(|(n, t)| (n.as_str(), *t))
            .collect();
        println!("queued messages vs simulation step (first 5 problems):");
        println!("{}", ascii::render_multi_chart(&shown, 64, 12));

        // Spatial unfolding: heatmap of deliveries (Figure 5 bottom).
        println!(
            "total messages delivered per node (problem 0), spread={:.3}:",
            first.activity_spread()
        );
        let side = SIDE as usize;
        println!("{}", ascii::render_heatmap(&first.delivered_per_node, side));

        // CSVs: queue traces (column per problem) and the heatmap.
        let max_len = traces.iter().map(|t| t.len()).max().unwrap_or(0);
        let mut csv_q = String::from("step");
        for i in 0..traces.len() {
            csv_q.push_str(&format!(",p{i:02}"));
        }
        csv_q.push('\n');
        for step in 0..max_len {
            csv_q.push_str(&step.to_string());
            for t in &traces {
                match t.get(step) {
                    Some(v) => csv_q.push_str(&format!(",{v}")),
                    None => csv_q.push(','),
                }
            }
            csv_q.push('\n');
        }
        write_results_csv(&format!("fig5_queues_{tag}.csv"), &csv_q);

        let mut csv_h = String::from("x,y,delivered\n");
        for (i, delivered) in first.delivered_per_node.iter().enumerate() {
            csv_h.push_str(&format!("{},{},{delivered}\n", i % side, i / side));
        }
        write_results_csv(&format!("fig5_heatmap_{tag}.csv"), &csv_h);
    }

    println!(
        "\nExpected shape (§V-E): least-busy-neighbour unfolds work across\n\
         more of the mesh (lower heatmap spread) and drains queues sooner\n\
         (shorter traces) than round robin."
    );
}
