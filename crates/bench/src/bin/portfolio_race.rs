//! **ABL-F** — portfolio-of-K vs best/median/worst single strategy.
//!
//! For each workload (uf-class SAT, 0/1 knapsack, small TSP) this sweep
//! first runs every member strategy *alone* to completion, then races
//! the full portfolio with knowledge sharing (learned clauses between
//! CDCL members, incumbents between B&B members). Reported per
//! configuration: search nodes expanded (layer-4 activations for mesh
//! members, decisions for CDCL), logical units to first solution, and
//! wall time. The sweep asserts the ABL-F claim: on at least one
//! workload the portfolio expands fewer total nodes than the *worst*
//! member running alone AND answers in fewer units than the *median*
//! member — diversity plus early cancellation beats betting on one
//! configuration without oracle knowledge of which one is best.
//!
//! `--smoke` runs tiny instances so CI can keep the binary honest.

use hyperspace_apps::{
    knapsack_reference, seeded_items, tsp_reference, BnbKnapsackProgram, BnbKnapsackTask, Item,
    TspInstance, TspProgram, TspTask,
};
use hyperspace_bench::experiments::{race, RaceCost};
use hyperspace_bench::harness::Args;
use hyperspace_core::{MapperSpec, ObjectiveSpec, PortfolioSpec, PruneSpec, StrategySpec};
use hyperspace_portfolio::{PortfolioReport, PortfolioRunner};
use hyperspace_sat::{gen, Heuristic, Polarity, RestartPolicy, SimplifyMode};

/// Solo baselines (each strategy as a one-member portfolio — identical
/// accounting) followed by the shared-knowledge portfolio race.
fn sweep(
    name: &str,
    members: Vec<StrategySpec>,
    epoch: u64,
    objective: ObjectiveSpec,
    run: &dyn Fn(PortfolioRunner) -> PortfolioReport,
) -> Wins {
    println!("{name}");
    println!(
        "  {:<44} {:>10} {:>12} {:>10}",
        "configuration", "nodes", "first-units", "wall"
    );
    let race_of = |label: String, members: Vec<StrategySpec>| {
        let spec = PortfolioSpec::new(members).epoch(epoch);
        let (cost, report) = race(PortfolioRunner::new(spec).objective(objective), run);
        println!(
            "  {label:<44} {:>10} {:>12} {:>10.1?}",
            cost.nodes, cost.first_units, cost.wall
        );
        (cost, report)
    };
    let singles: Vec<RaceCost> = members
        .iter()
        .map(|member| race_of(format!("solo {}", member.describe()), vec![member.clone()]).0)
        .collect();
    let (folio, report) = race_of(format!("portfolio-of-{}", members.len()), members);
    println!(
        "  winner: member {} ({}); epochs {}; clauses shared/imported {}/{}; bounds {}/{}",
        report.winner.expect("winner"),
        report.members[report.winner.expect("winner")].strategy,
        report.epochs,
        report.clauses_shared,
        report.clauses_imported,
        report.bounds_shared,
        report.bounds_imported,
    );

    let mut nodes: Vec<u64> = singles.iter().map(|t| t.nodes).collect();
    nodes.sort_unstable();
    let worst_nodes = *nodes.last().expect("nonempty");
    let mut first: Vec<u64> = singles.iter().map(|t| t.first_units).collect();
    first.sort_unstable();
    let median_first = first[first.len() / 2];
    let beats_worst = folio.nodes < worst_nodes;
    let beats_median = folio.first_units < median_first;
    println!(
        "  => total nodes {} vs worst single {} ({}); first solution {} vs median single {} ({})\n",
        folio.nodes,
        worst_nodes,
        if beats_worst { "WIN" } else { "loss" },
        folio.first_units,
        median_first,
        if beats_median { "WIN" } else { "loss" },
    );
    Wins {
        nodes: beats_worst,
        latency: beats_median,
    }
}

/// Which halves of the ABL-F claim one workload satisfied.
struct Wins {
    /// Portfolio total nodes < worst single member alone.
    nodes: bool,
    /// Portfolio first solution < median single member.
    latency: bool,
}

fn main() {
    let smoke = Args::from_env().smoke();
    println!(
        "portfolio race sweep{} (ABL-F; solo baselines share no knowledge)\n",
        if smoke { " [smoke]" } else { "" }
    );

    // SAT: heuristically strong and weak mesh members plus CDCL members
    // on restarts. The weak members are exactly what a user cannot know
    // to avoid a priori — the portfolio's insurance policy.
    let (sat_seed, epoch) = if smoke { (3u64, 16) } else { (2017u64, 32) };
    let cnf = if smoke {
        gen::random_ksat(sat_seed, 12, 50, 3)
    } else {
        gen::uf20_91(sat_seed)
    };
    let sat_members = vec![
        StrategySpec::mesh().with_heuristic(Heuristic::JeroslowWang),
        StrategySpec::mesh()
            .with_heuristic(Heuristic::Dlis)
            .with_polarity(Polarity::Negative),
        StrategySpec::mesh()
            .with_heuristic(Heuristic::FirstUnassigned)
            .with_simplify(if smoke {
                SimplifyMode::SinglePass
            } else {
                SimplifyMode::SplitOnly
            }),
        StrategySpec::cdcl(RestartPolicy::Luby(8)),
        StrategySpec::cdcl(RestartPolicy::Fixed(32))
            .with_polarity(Polarity::Negative)
            .with_seed(7),
    ];
    let cnf_for_run = cnf.clone();
    let sat_win = sweep(
        &format!(
            "sat uf-class ({} vars, {} clauses) torus2d:6x6",
            cnf.num_vars(),
            cnf.num_clauses()
        ),
        sat_members,
        epoch,
        ObjectiveSpec::Enumerate,
        &move |r: PortfolioRunner| r.run_sat(&cnf_for_run),
    );

    // Knapsack: exhaustive vs pruned vs greedy-warm-started members; the
    // incumbent bus feeds the warm start to everyone.
    let n = if smoke { 9 } else { 14 };
    let items = seeded_items(2017, n, 14, 22);
    let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
    let oracle = knapsack_reference(&items, capacity);
    let greedy = greedy_knapsack(&items, capacity);
    assert!(greedy <= oracle, "greedy is feasible");
    let knap_members = vec![
        StrategySpec::mesh(), // exhaustive: the member you don't want to bet on
        StrategySpec::mesh().with_prune(PruneSpec::incumbent()),
        StrategySpec::mesh()
            .with_prune(PruneSpec::Incumbent {
                initial: Some(greedy as i64),
            })
            .with_mapper(MapperSpec::Random { seed: 5 }),
    ];
    let (items_run, oracle_run) = (items.clone(), oracle);
    let knap_win = sweep(
        &format!("bnb-knapsack n={n} cap={capacity} torus2d:6x6 (oracle {oracle}, greedy warm start {greedy})"),
        knap_members,
        epoch,
        ObjectiveSpec::Maximise,
        &move |r: PortfolioRunner| {
            let report = r.run_mesh(
                |_, _| BnbKnapsackProgram,
                BnbKnapsackTask::root(items_run.clone(), capacity),
            );
            assert_eq!(
                report.best_incumbent,
                Some(oracle_run as i64),
                "portfolio must reach the oracle optimum"
            );
            report
        },
    );

    // TSP: pruned members on diverse placements plus a nearest-neighbour
    // warm start.
    let tn = if smoke { 6 } else { 8 };
    let inst = TspInstance::random(2017, tn, 50);
    let t_oracle = tsp_reference(&inst);
    let nn = nearest_neighbour(&inst);
    assert!(nn >= t_oracle, "greedy tour is feasible");
    let tsp_members = vec![
        StrategySpec::mesh(), // exhaustive
        StrategySpec::mesh().with_prune(PruneSpec::incumbent()),
        StrategySpec::mesh()
            .with_prune(PruneSpec::Incumbent {
                initial: Some(nn as i64),
            })
            .with_mapper(MapperSpec::Random { seed: 9 }),
    ];
    let (inst_run, t_oracle_run) = (inst.clone(), t_oracle);
    let tsp_win = sweep(
        &format!("tsp n={tn} torus2d:6x6 (oracle {t_oracle}, nearest-neighbour warm start {nn})"),
        tsp_members,
        epoch,
        ObjectiveSpec::Minimise,
        &move |r: PortfolioRunner| {
            let report = r.run_mesh(|_, _| TspProgram, TspTask::root(inst_run.clone()));
            assert_eq!(
                report.best_incumbent,
                Some(t_oracle_run as i64),
                "portfolio must reach the oracle optimum"
            );
            report
        },
    );

    let wins = [sat_win, knap_win, tsp_win];
    if smoke {
        // Smoke instances are too small for strategy disparity to show
        // in total nodes; the latency half of the claim must still hold.
        assert!(
            wins.iter().any(|w| w.latency),
            "ABL-F smoke: the portfolio must beat the median member to \
             first solution on at least one workload"
        );
    } else {
        assert!(
            wins.iter().any(|w| w.nodes && w.latency),
            "ABL-F claim failed: the portfolio must beat worst-single on \
             nodes and median-single to first solution on at least one \
             workload"
        );
    }
    println!(
        "ABL-F holds: portfolio beat worst-single nodes on {}/3 and median-single latency on {}/3 workloads",
        wins.iter().filter(|w| w.nodes).count(),
        wins.iter().filter(|w| w.latency).count()
    );
}

/// Greedy density-order knapsack fill: a feasible warm start.
fn greedy_knapsack(items: &[Item], capacity: u32) -> u64 {
    let mut left = capacity;
    let mut value = 0u64;
    for item in items {
        if item.weight <= left {
            left -= item.weight;
            value += item.value as u64;
        }
    }
    value
}

/// Nearest-neighbour tour cost from city 0: a feasible warm start.
fn nearest_neighbour(inst: &TspInstance) -> u64 {
    let n = inst.n;
    let mut visited = vec![false; n];
    visited[0] = true;
    let (mut at, mut cost) = (0usize, 0u64);
    for _ in 1..n {
        let next = (0..n)
            .filter(|&c| !visited[c])
            .min_by_key(|&c| inst.dist[at * n + c])
            .expect("unvisited city remains");
        cost += inst.dist[at * n + next];
        visited[next] = true;
        at = next;
    }
    cost + inst.dist[at * n]
}
