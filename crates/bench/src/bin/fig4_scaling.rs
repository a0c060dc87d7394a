//! **FIG4** — regenerates Figure 4: SAT solver scalability versus topology
//! and mapping algorithm.
//!
//! Sweeps machine sizes 16..1024 over the five curves (2D/3D torus x
//! RR/LBN, fully connected), solving the same 20 satisfiable uf20-91
//! instances on every machine. Prints the log-log table, an ASCII rendering
//! of the figure, the paper-shape checks, and writes
//! `results/fig4_scaling.csv`.
//!
//! Usage: `cargo run --release -p hyperspace-bench --bin fig4_scaling`

use hyperspace_bench::experiments::{
    fig4_curves, paper_suite, suite_performance, write_results_csv, SatRunConfig, FIG4_CORE_COUNTS,
};
use hyperspace_obs::ascii;

/// A CSV cell: six decimals, `nan` for NaN.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "nan".to_string()
    } else {
        format!("{v:.6}")
    }
}

fn main() {
    let suite = paper_suite();
    let curves = fig4_curves(None);
    println!(
        "FIG4: {} instances x {} machine sizes x {} curves\n",
        suite.len(),
        FIG4_CORE_COUNTS.len(),
        curves.len()
    );

    let mut table: Vec<(String, Vec<f64>)> = Vec::new();
    let mut csv_out = String::from("curve,cores,topology,mapper,mean_perf,std_perf,mean_time\n");
    for (label, topos, mapper) in &curves {
        let mut ys = Vec::new();
        for (i, topo) in topos.iter().enumerate() {
            let cfg = SatRunConfig::new(topo.clone(), mapper.clone());
            let (stats, perfs) = suite_performance(&suite, &cfg);
            let mean_time: f64 = perfs.iter().map(|p| 1.0 / p).sum::<f64>() / perfs.len() as f64;
            ys.push(stats.mean);
            csv_out.push_str(&format!(
                "{label},{},{},{},{},{},{}\n",
                FIG4_CORE_COUNTS[i],
                topo.name(),
                mapper.name(),
                fmt_f64(stats.mean),
                fmt_f64(stats.std),
                fmt_f64(mean_time),
            ));
            eprint!(".");
        }
        eprintln!(" {label}");
        table.push((label.clone(), ys));
    }

    let series: Vec<(&str, &[f64])> = table
        .iter()
        .map(|(l, ys)| (l.as_str(), ys.as_slice()))
        .collect();
    println!(
        "\nPerformance (1/computation-time), mean over {} instances:\n",
        suite.len()
    );
    println!(
        "{}",
        ascii::render_loglog_table("cores", &FIG4_CORE_COUNTS, &series)
    );

    // ASCII rendition of the figure: log10(perf) vs curves.
    for (label, ys) in &table {
        let logged: Vec<f64> = ys.iter().map(|y| y.log10()).collect();
        println!("{label}:");
        println!("{}", ascii::render_line_chart(&logged, 56, 8));
    }

    check_shape(&table);

    write_results_csv("fig4_scaling.csv", &csv_out);
}

/// The qualitative claims of §V-D, asserted against the measured data.
fn check_shape(table: &[(String, Vec<f64>)]) {
    let get = |name: &str| -> &[f64] {
        &table
            .iter()
            .find(|(l, _)| l == name)
            .unwrap_or_else(|| panic!("missing curve {name}"))
            .1
    };
    let t2rr = get("2D Torus + RR");
    let t3rr = get("3D Torus + RR");
    let t2lbn = get("2D Torus + LBN");
    let t3lbn = get("3D Torus + LBN");
    let full = get("Fully connected");
    let last = FIG4_CORE_COUNTS.len() - 1;

    let checks: Vec<(&str, bool)> = vec![
        (
            "scaling: every curve improves from 16 to 1024 cores",
            table.iter().all(|(_, ys)| ys[last] > ys[0]),
        ),
        (
            "dimensionality: 3D+RR >= 2D+RR at every size",
            t3rr.iter().zip(t2rr).all(|(a, b)| a >= b),
        ),
        (
            "adaptive overhead: LBN below RR on the smallest machines (<100 cores)",
            t2lbn[0] < t2rr[0] && t3lbn[0] < t3rr[0],
        ),
        (
            "adaptive benefit: 2D+LBN overtakes 2D+RR at large sizes",
            t2lbn[last] > t2rr[last],
        ),
        (
            "large 2D+LBN roughly matches 3D+RR (within 2x, mid-to-large sizes)",
            (3..=last).any(|i| (t2lbn[i] / t3rr[i]) > 0.5 && (t2lbn[i] / t3rr[i]) < 2.0),
        ),
        (
            "3D+LBN approaches fully connected at the largest size (>= 75%)",
            t3lbn[last] >= 0.75 * full[last],
        ),
        (
            "fully connected is the best curve at the largest size (within 5%)",
            full[last] >= 0.95 * table.iter().map(|(_, ys)| ys[last]).fold(0.0, f64::max),
        ),
    ];

    println!("shape checks (paper §V-D):");
    let mut all_ok = true;
    for (desc, ok) in checks {
        println!("  [{}] {desc}", if ok { "PASS" } else { "FAIL" });
        all_ok &= ok;
    }
    if !all_ok {
        println!("  (see EXPERIMENTS.md for discussion of deviations)");
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn csv_cells_have_six_decimals_and_spell_nan() {
        assert_eq!(super::fmt_f64(0.5), "0.500000");
        assert_eq!(super::fmt_f64(f64::NAN), "nan");
    }
}
