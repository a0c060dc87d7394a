//! **ABL-X** — expression portfolio vs flat-config baseline.
//!
//! The combinator language (PR 10) claims its compositional strategies
//! are *free*: an expression portfolio mixing LDS probes
//! (`limit(discrepancy, ...)`), an iterative-deepening `or(...)` retry
//! chain and CDCL restart schedules must match or beat the legacy flat
//! diversified portfolio on SAT workloads — same deterministic race
//! machinery, richer strategy space. For each seeded uf-class instance
//! both portfolios race to completion; reported per side: total search
//! nodes (layer-4 activations for mesh members, decisions for CDCL) and
//! logical units to first solution. The sweep asserts the ABL-X claim:
//! summed over the instance set, the expression portfolio answers within
//! `BUDGET_RATIO` of the flat baseline's units to first solution.
//!
//! `--smoke` runs tiny instances so CI can keep the binary honest;
//! `--out PATH` writes the machine-readable `BENCH_strategy.json`.

use hyperspace_bench::experiments::race;
use hyperspace_bench::harness::{emit, Args};
use hyperspace_core::PortfolioSpec;
use hyperspace_obs::JsonValue;
use hyperspace_portfolio::PortfolioRunner;
use hyperspace_sat::{gen, Cnf};

/// The expression under test: a discrepancy-limited heuristic probe, an
/// iterative-deepening node-budget chain, and two restart-scheduled
/// CDCL members — none of which the flat baseline's members carry.
const EXPRESSION: &str = "portfolio(\
    limit(discrepancy,2,and(branch(dlis),value(neg))),\
    or(limit(nodes,256,mesh),limit(nodes,4096,mesh),mesh),\
    restart(luby:64,cdcl),\
    restart(fixed:128,and(value(neg),probe(7),cdcl)))";

/// Expression latency budget relative to the flat baseline ("matches or
/// beats", with 10% headroom for epoch-rounding noise).
const BUDGET_RATIO: f64 = 1.10;

fn main() {
    let args = Args::from_env();
    let smoke = args.smoke();

    let epoch = 16u64;
    let instances: Vec<(String, Cnf)> = if smoke {
        (0..2u64)
            .map(|s| {
                (
                    format!("ksat12-50 seed {s}"),
                    gen::random_ksat(s, 12, 50, 3),
                )
            })
            .collect()
    } else {
        [1u64, 2, 3, 5, 8]
            .into_iter()
            .map(|s| (format!("uf20-91 seed {s}"), gen::uf20_91(s)))
            .collect()
    };

    let lowered = EXPRESSION
        .parse::<PortfolioSpec>()
        .expect("sweep expression parses and lowers")
        .epoch(epoch);
    let flat = PortfolioSpec::diversified_sat(4).epoch(epoch);

    println!(
        "strategy sweep{} (ABL-X; expression portfolio vs flat diversified-4)",
        if smoke { " [smoke]" } else { "" }
    );
    println!("expression: {EXPRESSION}");
    println!("baseline:   {}\n", flat.describe());
    println!(
        "{:<22} {:>12} {:>12} {:>10}   {:>12} {:>12} {:>10}",
        "instance", "expr-nodes", "expr-units", "wall", "flat-nodes", "flat-units", "wall"
    );

    let mut per_instance = Vec::new();
    let (mut expr_nodes, mut expr_units) = (0u64, 0u64);
    let (mut flat_nodes, mut flat_units) = (0u64, 0u64);
    for (name, cnf) in &instances {
        let (e, e_report) = race(PortfolioRunner::new(lowered.clone()), |r| r.run_sat(cnf));
        let (f, _) = race(PortfolioRunner::new(flat.clone()), |r| r.run_sat(cnf));
        println!(
            "{:<22} {:>12} {:>12} {:>10.1?}   {:>12} {:>12} {:>10.1?}",
            name, e.nodes, e.first_units, e.wall, f.nodes, f.first_units, f.wall
        );
        let winner = e_report.winner.expect("decided");
        println!(
            "{:<22} winner: member {} ({})",
            "", winner, e_report.members[winner].strategy
        );
        expr_nodes += e.nodes;
        expr_units += e.first_units;
        flat_nodes += f.nodes;
        flat_units += f.first_units;
        per_instance.push(JsonValue::object([
            ("instance", JsonValue::str(name)),
            (
                "expression",
                JsonValue::object([
                    ("nodes", JsonValue::UInt(e.nodes)),
                    ("first_units", JsonValue::UInt(e.first_units)),
                    ("winner", JsonValue::UInt(winner as u64)),
                ]),
            ),
            (
                "flat",
                JsonValue::object([
                    ("nodes", JsonValue::UInt(f.nodes)),
                    ("first_units", JsonValue::UInt(f.first_units)),
                ]),
            ),
        ]));
    }

    let ratio = expr_units as f64 / flat_units.max(1) as f64;
    let pass = ratio <= BUDGET_RATIO;
    println!(
        "\n=> expression units {expr_units} vs flat units {flat_units} \
         (ratio {ratio:.3}, budget {BUDGET_RATIO}); nodes {expr_nodes} vs {flat_nodes}"
    );

    let json = JsonValue::object([
        ("bench", JsonValue::str("strategy_sweep")),
        ("mode", JsonValue::str(if smoke { "smoke" } else { "full" })),
        ("expression", JsonValue::str(EXPRESSION)),
        ("baseline", JsonValue::str(flat.describe())),
        ("instances", JsonValue::Array(per_instance)),
        (
            "totals",
            JsonValue::object([
                ("expression_nodes", JsonValue::UInt(expr_nodes)),
                ("expression_first_units", JsonValue::UInt(expr_units)),
                ("flat_nodes", JsonValue::UInt(flat_nodes)),
                ("flat_first_units", JsonValue::UInt(flat_units)),
            ]),
        ),
        ("units_ratio", JsonValue::Float(ratio)),
        ("budget_ratio", JsonValue::Float(BUDGET_RATIO)),
        ("pass", JsonValue::Bool(pass)),
    ]);
    emit(&args, &json);

    assert!(
        pass,
        "ABL-X claim failed: expression portfolio took {ratio:.3}x the flat \
         baseline's units to first solution (budget {BUDGET_RATIO}x)"
    );
}
