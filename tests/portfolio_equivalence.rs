//! Portfolio determinism: the *entire* [`PortfolioReport`] — winner id,
//! per-member summaries and counters, shared-clause and incumbent-bus
//! totals — must be bit-identical across runner driver-thread counts and
//! across member execution backends (seq / parallel / sharded:{1,2,7}).
//! The race is keyed on logical progress only, so nothing here may move
//! when the hardware does.

use hyperspace::apps::{
    knapsack_reference, sort_by_density, tsp_reference, BnbKnapsackProgram, BnbKnapsackTask, Item,
    TspInstance, TspProgram, TspTask,
};
use hyperspace::core::{
    BackendSpec, MapperSpec, ObjectiveSpec, Partition, PortfolioSpec, PruneSpec, StrategySpec,
    TopologySpec,
};
use hyperspace::portfolio::{PortfolioReport, PortfolioRunner};
use hyperspace::sat::{gen, Cnf, Heuristic, Polarity, RestartPolicy, SimplifyMode};
use proptest::prelude::*;

/// Backend choices every mesh member must survive unchanged.
fn backend_matrix() -> Vec<BackendSpec> {
    vec![
        BackendSpec::Sequential,
        BackendSpec::Parallel,
        BackendSpec::sharded(1),
        BackendSpec::Sharded {
            shards: 2,
            partition: Partition::RoundRobin,
            threads: Some(2),
        },
        BackendSpec::Sharded {
            shards: 7,
            partition: Partition::Block,
            threads: Some(3),
        },
    ]
}

/// Rewrites every mesh member's backend, rotated by `choice` so that one
/// portfolio mixes several backends at once.
fn with_backends(spec: &PortfolioSpec, choice: usize) -> PortfolioSpec {
    let matrix = backend_matrix();
    let mut spec = spec.clone();
    for (j, member) in spec.members.iter_mut().enumerate() {
        member.attempts[0].backend = matrix[(choice + j) % matrix.len()].clone();
    }
    spec
}

fn arb_topology() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        (2u32..5, 2u32..5).prop_map(|(w, h)| TopologySpec::Torus2D { w, h }),
        (2u32..4).prop_map(|dim| TopologySpec::Hypercube { dim }),
        (4u32..9).prop_map(|n| TopologySpec::Ring { n }),
    ]
}

fn arb_mapper() -> impl Strategy<Value = MapperSpec> {
    prop_oneof![
        Just(MapperSpec::RoundRobin),
        Just(MapperSpec::LeastBusy {
            status_period: None
        }),
        any::<u64>().prop_map(|seed| MapperSpec::Random { seed }),
    ]
}

/// A mixed SAT portfolio: mesh members across heuristics/polarities plus
/// two CDCL members so the clause bus is live.
fn sat_members() -> PortfolioSpec {
    PortfolioSpec::new(vec![
        StrategySpec::mesh().with_heuristic(Heuristic::JeroslowWang),
        StrategySpec::mesh()
            .with_heuristic(Heuristic::Dlis)
            .with_polarity(Polarity::Negative)
            .with_simplify(SimplifyMode::SinglePass),
        StrategySpec::cdcl(RestartPolicy::Luby(4)).with_seed(3),
        StrategySpec::cdcl(RestartPolicy::Fixed(6))
            .with_polarity(Polarity::Negative)
            .with_seed(11),
    ])
    .epoch(16)
}

fn race_sat(
    spec: &PortfolioSpec,
    topology: &TopologySpec,
    mapper: &MapperSpec,
    threads: usize,
    cnf: &Cnf,
) -> PortfolioReport {
    PortfolioRunner::new(spec.clone())
        .topology(topology.clone())
        .mapper(mapper.clone())
        .threads(threads)
        .run_sat(cnf)
}

fn items_from(raw: Vec<(u32, u32)>) -> Vec<Item> {
    let mut items: Vec<Item> = raw
        .into_iter()
        .map(|(weight, value)| Item { weight, value })
        .collect();
    sort_by_density(&mut items);
    items
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// SAT races: report bit-identical across driver threads and member
    /// backends; the winner's verdict never changes.
    #[test]
    fn sat_portfolio_reports_are_bit_identical(
        seed in any::<u64>(),
        topology in arb_topology(),
        mapper in arb_mapper(),
    ) {
        let cnf = gen::random_ksat(seed, 8, 36, 3);
        let spec = sat_members();
        let reference = race_sat(&with_backends(&spec, 0), &topology, &mapper, 1, &cnf);
        prop_assert!(reference.winner.is_some(), "race must end");
        for choice in 0..3 {
            for threads in [1usize, 2, 5] {
                let spec = with_backends(&spec, choice);
                let report = race_sat(&spec, &topology, &mapper, threads, &cnf);
                prop_assert_eq!(
                    &report,
                    &reference,
                    "backend rotation {} / threads {} diverged",
                    choice,
                    threads
                );
            }
        }
    }

    /// B&B knapsack races: optimum equals the DP oracle and the full
    /// report (incumbent bus counters included) is bit-identical.
    #[test]
    fn knapsack_portfolio_reports_are_bit_identical(
        raw in proptest::collection::vec((1u32..16, 1u32..24), 4..8),
        topology in arb_topology(),
        warm_gap in 0u32..4,
    ) {
        let items = items_from(raw);
        let capacity = (items.iter().map(|i| i.weight).sum::<u32>() / 2).max(1);
        let oracle = knapsack_reference(&items, capacity);
        let warm = oracle.saturating_sub(warm_gap as u64) as i64;
        let spec = PortfolioSpec::new(vec![
            StrategySpec::mesh(),
            StrategySpec::mesh().with_prune(PruneSpec::incumbent()),
            StrategySpec::mesh()
                .with_prune(PruneSpec::Incumbent { initial: Some(warm) })
                .with_mapper(MapperSpec::Random { seed: 5 }),
        ])
        .epoch(16);
        let mapper = MapperSpec::LeastBusy { status_period: None };
        let run = |spec: &PortfolioSpec, threads: usize| {
            PortfolioRunner::new(spec.clone())
                .topology(topology.clone())
                .mapper(mapper.clone())
                .objective(ObjectiveSpec::Maximise)
                .threads(threads)
                .run_mesh(|_, _| BnbKnapsackProgram, BnbKnapsackTask::root(items.clone(), capacity))
        };
        let reference = run(&with_backends(&spec, 0), 1);
        prop_assert_eq!(reference.best_incumbent, Some(oracle as i64));
        for choice in 0..3 {
            for threads in [1usize, 3] {
                let report = run(&with_backends(&spec, choice), threads);
                prop_assert_eq!(
                    &report,
                    &reference,
                    "backend rotation {} / threads {} diverged",
                    choice,
                    threads
                );
            }
        }
    }

    /// TSP races: same contract under the minimisation objective.
    #[test]
    fn tsp_portfolio_reports_are_bit_identical(
        seed in any::<u64>(),
        n in 4usize..7,
    ) {
        let inst = TspInstance::random(seed, n, 40);
        let oracle = tsp_reference(&inst);
        let spec = PortfolioSpec::new(vec![
            StrategySpec::mesh().with_prune(PruneSpec::incumbent()),
            StrategySpec::mesh()
                .with_prune(PruneSpec::incumbent())
                .with_mapper(MapperSpec::Random { seed: 9 }),
        ])
        .epoch(16);
        let run = |spec: &PortfolioSpec, threads: usize| {
            PortfolioRunner::new(spec.clone())
                .topology(TopologySpec::Torus2D { w: 4, h: 4 })
                .mapper(MapperSpec::LeastBusy { status_period: None })
                .objective(ObjectiveSpec::Minimise)
                .threads(threads)
                .run_mesh(|_, _| TspProgram, TspTask::root(inst.clone()))
        };
        let reference = run(&with_backends(&spec, 0), 1);
        prop_assert_eq!(reference.best_incumbent, Some(oracle as i64));
        for choice in 1..3 {
            let report = run(&with_backends(&spec, choice), 2);
            prop_assert_eq!(&report, &reference, "backend rotation {} diverged", choice);
        }
    }
}
