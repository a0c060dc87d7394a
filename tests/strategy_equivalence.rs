//! Strategy-expression determinism and compatibility.
//!
//! The combinator language is sugar over the same deterministic race
//! machinery as flat strategy specs, so three contracts hold:
//!
//! 1. `Display`/`FromStr` round-trip exactly over *random* expression
//!    trees (proptest) — the language's own contract — and every tree
//!    that lowers yields a [`PortfolioSpec`] whose flat rendering (the
//!    wire format the service persists and caches on) parses back to an
//!    equal value, `>>` chains and member backends included.
//! 2. Expression-driven races — including `limit(discrepancy, ...)`
//!    scopes and `restart(luby:N, ...)` schedules — produce bit-identical
//!    [`PortfolioReport`]s across member backends (seq / parallel /
//!    sharded:{1,2,7}) and driver-thread counts.
//! 3. A flat [`PortfolioSpec`] and the expression text naming the same
//!    members are *equal values*, so they race identically by
//!    construction.

use hyperspace::core::{
    BackendSpec, LimitSpec, MapperSpec, Partition, PortfolioSpec, StrategyExpr, StrategySpec,
    TopologySpec,
};
use hyperspace::portfolio::{PortfolioReport, PortfolioRunner};
use hyperspace::sat::{gen, Cnf, Heuristic, Polarity, RestartPolicy, SimplifyMode};
use proptest::prelude::*;

fn parse(s: &str) -> StrategyExpr {
    s.parse::<StrategyExpr>()
        .unwrap_or_else(|e| panic!("{s:?} failed to parse: {e}"))
}

/// Backend choices every mesh attempt must survive unchanged.
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

/// The acceptance-criteria expression: a discrepancy-limited mesh probe,
/// a Luby-restarting CDCL member, an iterative-deepening `or(...)` chain
/// and a time-boxed mesh scout, raced as one portfolio.
fn criteria_expr() -> StrategyExpr {
    parse(
        "portfolio(\
           limit(discrepancy,2,and(branch(dlis),value(neg))),\
           restart(luby:64,cdcl),\
           or(limit(nodes,256,mesh),mesh),\
           limit(time,20000,and(branch(most-frequent),mesh)))",
    )
}

/// Races `expr` with every attempt's backend rewritten from the matrix
/// (rotated by `choice` so one race mixes several backends at once).
fn race_expr(expr: &StrategyExpr, choice: usize, threads: usize, cnf: &Cnf) -> PortfolioReport {
    let matrix = backend_matrix();
    let mut spec = PortfolioSpec::new(expr.members().expect("expression lowers")).epoch(16);
    for (j, plan) in spec.members.iter_mut().enumerate() {
        for attempt in plan.attempts.iter_mut() {
            attempt.backend = matrix[(choice + j) % matrix.len()].clone();
        }
    }
    PortfolioRunner::new(spec)
        .topology(TopologySpec::Torus2D { w: 4, h: 4 })
        .mapper(MapperSpec::RoundRobin)
        .threads(threads)
        .run_sat(cnf)
}

#[test]
fn criteria_expression_races_identically_everywhere() {
    // The full backend x threads matrix over the acceptance
    // expression: one reference run, every other configuration must
    // reproduce its report bit-for-bit.
    let cnf = gen::uf20_91(13);
    let expr = criteria_expr();
    let reference = race_expr(&expr, 0, 1, &cnf);
    assert!(reference.winner.is_some(), "race must end with a winner");
    for choice in 0..3 {
        for threads in [1usize, 2, 5] {
            let report = race_expr(&expr, choice, threads, &cnf);
            assert_eq!(
                report, reference,
                "backend rotation {choice} / threads {threads} diverged"
            );
        }
    }
}

#[test]
fn flat_portfolios_equal_the_expression_naming_the_same_members() {
    let flat = PortfolioSpec::new(vec![
        StrategySpec::mesh().with_heuristic(Heuristic::JeroslowWang),
        StrategySpec::mesh()
            .with_heuristic(Heuristic::Dlis)
            .with_polarity(Polarity::Negative)
            .with_simplify(SimplifyMode::SinglePass),
        StrategySpec::cdcl(RestartPolicy::Luby(4)).with_seed(3),
    ]);
    let expr: PortfolioSpec = "portfolio(\
           mesh,\
           and(branch(dlis),value(neg),simplify(single-pass)),\
           restart(luby:4,probe(3)))"
        .parse()
        .expect("expression lowers");
    assert_eq!(expr, flat);
}

/// One random leaf primitive, built from its canonical text (the same
/// strings the parser's own corpus pins down).
fn gen_leaf(rng: &mut proptest::TestRng) -> StrategyExpr {
    match (0usize..11).sample(rng) {
        0 => parse("mesh"),
        1 => parse("cdcl"),
        2 => parse("branch(dlis)"),
        3 => parse("branch(jeroslow-wang)"),
        4 => parse(&format!("branch(random:{})", (0u64..1000).sample(rng))),
        5 => parse("value(neg)"),
        6 => parse(&format!("probe({})", (0u64..100).sample(rng))),
        7 => parse("simplify(split-only)"),
        8 => parse("prune(incumbent:40)"),
        9 => parse("map(weight-aware:4:8)"),
        _ => parse("backend(sharded:2:rr)"),
    }
}

/// A random expression tree bounded to `depth` combinator levels — well
/// under the parser's depth/token limits, so every generated tree must
/// survive the wire format.
fn gen_expr(rng: &mut proptest::TestRng, depth: u32) -> StrategyExpr {
    // Bias toward leaves as depth grows, hard leaf floor at depth 0.
    if depth == 0 || (0u32..3).sample(rng) == 0 {
        return gen_leaf(rng);
    }
    let children = |rng: &mut proptest::TestRng| {
        let n = (1usize..4).sample(rng);
        (0..n).map(|_| gen_expr(rng, depth - 1)).collect::<Vec<_>>()
    };
    match (0usize..8).sample(rng) {
        0 => StrategyExpr::And(children(rng)),
        1 => StrategyExpr::Or(children(rng)),
        2 => StrategyExpr::Portfolio(children(rng)),
        3 => StrategyExpr::Restart(
            RestartPolicy::Luby((1u64..512).sample(rng)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        4 => StrategyExpr::Restart(
            RestartPolicy::Fixed((1u64..512).sample(rng)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        5 => StrategyExpr::Limit(
            LimitSpec::discrepancy((0u64..64).sample(rng)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        6 => StrategyExpr::Limit(
            LimitSpec::nodes((1u64..100_000).sample(rng)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        _ => StrategyExpr::Limit(
            LimitSpec::time((1u64..100_000).sample(rng)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
    }
}

/// Strategy over random expression trees (the shim has no
/// `prop_recursive`, so the recursion lives in [`gen_expr`]).
struct ArbExpr;

impl Strategy for ArbExpr {
    type Value = StrategyExpr;
    fn sample(&self, rng: &mut proptest::TestRng) -> StrategyExpr {
        gen_expr(rng, 3)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random expression trees render to text that parses back to the
    /// same tree — the wire format loses nothing.
    #[test]
    fn random_expressions_display_round_trip(expr in ArbExpr) {
        let text = expr.to_string();
        let back: StrategyExpr = text.parse()
            .unwrap_or_else(|e| panic!("{text:?} failed to re-parse: {e}"));
        prop_assert_eq!(back, expr, "{}", text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every random tree that lowers yields a plan whose flat text
    /// parses back to an equal plan — the wire format of the *plan*
    /// loses nothing, `>>` chains and member backends included.
    #[test]
    fn lowered_plans_display_round_trip(expr in ArbExpr) {
        if let Ok(members) = expr.members() {
            let spec = PortfolioSpec::new(members);
            let text = spec.to_string();
            let back: PortfolioSpec = text.parse()
                .unwrap_or_else(|e| panic!("{text:?} failed to re-parse: {e}"));
            prop_assert_eq!(back, spec, "{} lowered to {}", expr, text);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Expression races over random 3-SAT stay bit-identical across the
    /// backend matrix and thread counts.
    #[test]
    fn random_instances_race_identically(seed in any::<u64>()) {
        let cnf = gen::random_ksat(seed, 8, 36, 3);
        let expr = criteria_expr();
        let reference = race_expr(&expr, 0, 1, &cnf);
        prop_assert!(reference.winner.is_some(), "race must end");
        for choice in 1..3 {
            for threads in [2usize, 5] {
                let report = race_expr(&expr, choice, threads, &cnf);
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
}
