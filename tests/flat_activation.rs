//! The flat-layout activation path reproduces the nested-`Vec` one bit for
//! bit: whole mesh runs and a portfolio race against values recorded
//! before the layout changed, and the sequential solver against a naive
//! recursive DPLL over the nested reference.
//! Likewise the call-record slab and the ticket-keyed record table before
//! it: limited-discrepancy, cancelling and branch-and-bound runs, and a
//! program that suspends again under one parent ticket after an `Any`
//! win, against values recorded at that parent commit. Likewise the children a split
//! decides before they run: each against the split-then-simplify
//! reference, and hint-reading mesh runs against values recorded while
//! every child still simplified its own formula. Likewise a child
//! travelling as its path from the root formula, in every mode: its
//! residual against the reference's assignment chain it stands for,
//! simplified as the mode simplifies, for every heuristic, polarity and
//! budget.
//! Likewise batches held inline or spilled, and call records that count
//! their pending sub-calls: batches wider than two, `All` joins, empty
//! batches and a wide cancelling race against values recorded while every
//! batch and every record's pending list was a `Vec`.

use hyperspace::apps::{
    seeded_items, BnbKnapsackProgram, BnbKnapsackTask, FibProgram, NQueensProgram, QueensTask,
    TspInstance, TspProgram, TspTask,
};
use hyperspace::core::{
    BackendSpec, MapperSpec, ObjectiveSpec, PortfolioSpec, PruneSpec, RecRunReport, StackBuilder,
    TopologySpec,
};
use hyperspace::mapping::trigger;
use hyperspace::portfolio::PortfolioRunner;
use hyperspace::recursion::{FnProgram, FrontierSnapshot, Rec, RecProgram, RecStats, Step};
use hyperspace::sat::heuristics::ALL_HEURISTICS;
use hyperspace::sat::simplify::Simplified;
use hyperspace::sat::{
    dpll, gen, Assignment, Clause, Cnf, DpllProgram, Heuristic, Lit, Model, Polarity, SimplifyMode,
    SolveStats, SubProblem, Var, Verdict,
};
use proptest::prelude::*;

/// The reference: the nested clause storage this layout replaced, with
/// the straightforward algorithms over it.
type Naive = Vec<Vec<Lit>>;

fn naive_assign(formula: &Naive, lit: Lit) -> Naive {
    formula
        .iter()
        .filter(|clause| !clause.contains(&lit))
        .map(|clause| {
            let kept = clause.iter().copied().filter(|&l| l != lit.negated());
            kept.collect()
        })
        .collect()
}

/// The pure literal of the lowest-numbered variable, if any.
fn naive_pure(formula: &Naive, num_vars: u32) -> Option<Lit> {
    let occurs = |lit: Lit| formula.iter().flatten().any(|&l| l == lit);
    (0..num_vars)
        .map(|v| Lit::pos(Var(v)))
        .find(|&pos| occurs(pos) != occurs(pos.negated()))
        .map(|pos| if occurs(pos) { pos } else { pos.negated() })
}

/// The literals lines 6–11 forced, by kind, each in the order forced.
#[derive(Default)]
struct Forced {
    units: Vec<Lit>,
    pures: Vec<Lit>,
}

/// Listing 4 lines 2–11 over the reference; returns the outcome and the
/// forced literals.
fn naive_simplify(formula: &mut Naive, num_vars: u32, mode: SimplifyMode) -> (Simplified, Forced) {
    let mut forced = Forced::default();
    for round in 0.. {
        if formula.iter().any(|c| c.is_empty()) {
            return (Simplified::Unsat, forced);
        }
        if formula.is_empty() {
            return (Simplified::Sat, forced);
        }
        if mode == SimplifyMode::SplitOnly || (round > 0 && mode == SimplifyMode::SinglePass) {
            break;
        }
        let before = forced.units.len() + forced.pures.len();
        while let Some(unit) = formula.iter().find(|c| c.len() == 1) {
            forced.units.push(unit[0]);
            *formula = naive_assign(formula, unit[0]);
            if formula.iter().any(|c| c.is_empty()) {
                return (Simplified::Unsat, forced);
            }
        }
        while let Some(pure) = naive_pure(formula, num_vars) {
            forced.pures.push(pure);
            *formula = naive_assign(formula, pure);
            if mode == SimplifyMode::SinglePass {
                break;
            }
        }
        if forced.units.len() + forced.pures.len() == before {
            break;
        }
    }
    (Simplified::Undecided, forced)
}

/// Sequential DPLL over the reference, recursing: lines 2–11 to
/// fixpoint, then the heuristic's literal on the residual, tried first,
/// then its negation. Counts into `stats` as `dpll::solve` counts.
fn naive_dpll(
    mut formula: Naive,
    num_vars: u32,
    mut assign: Assignment,
    heuristic: Heuristic,
    depth: u64,
    stats: &mut SolveStats,
) -> Option<Model> {
    stats.nodes += 1;
    stats.max_depth = stats.max_depth.max(depth);
    let (outcome, forced) = naive_simplify(&mut formula, num_vars, SimplifyMode::Fixpoint);
    stats.unit_props += forced.units.len() as u64;
    stats.pure_assigns += forced.pures.len() as u64;
    for lit in forced.units.into_iter().chain(forced.pures) {
        assign.assign(lit.var(), lit.demanded_value());
    }
    match outcome {
        Simplified::Sat => return Some(assign.complete()),
        Simplified::Unsat => return None,
        Simplified::Undecided => {}
    }
    let lit = heuristic
        .select(&flat(num_vars, &formula))
        .expect("undecided");
    stats.decisions += 1;
    [lit, lit.negated()].into_iter().find_map(|branch| {
        let mut assign = assign.clone();
        assign.assign(branch.var(), branch.demanded_value());
        let child = naive_assign(&formula, branch);
        naive_dpll(child, num_vars, assign, heuristic, depth + 1, stats)
    })
}

/// Small formulas dense in the awkward cases: empty clauses, duplicate
/// and complementary literals within a clause, variables that occur
/// nowhere or vanish after one assignment.
fn arb_formula() -> impl Strategy<Value = (u32, Naive)> {
    let lit = (0u32..64, any::<bool>());
    let clauses = proptest::collection::vec(proptest::collection::vec(lit, 0..5), 0..14);
    (1u32..9, clauses).prop_map(|(num_vars, clauses)| {
        let lit = |(v, positive): (u32, bool)| Lit::with_polarity(Var(v % num_vars), positive);
        let formula = clauses
            .into_iter()
            .map(|clause| clause.into_iter().map(lit).collect())
            .collect();
        (num_vars, formula)
    })
}

/// Formulas of the sizes the simplification kernel runs at — up to 40
/// variables and 120 clauses of 1 to 6 literals — in two mixes. Every
/// variable has a preferred polarity. Unit-dense: one clause in eight is a
/// unit in its variable's preferred polarity (so conflicts come from
/// propagation chains, not from two opposed units), every other literal
/// takes the polarity drawn. Pure-dense: one clause in sixteen is a unit
/// and five literals in eight take the preferred polarity, so most
/// variables are pure or become so. Over 4000 draws `Fixpoint` ends
/// `Sat`/`Unsat`/`Undecided` 44/37/19 % of the time and forces 4.7 units
/// and 5.7 pure literals a formula; an undecided residual keeps 12
/// clauses on average.
fn arb_kernel_formula() -> impl Strategy<Value = (u32, Naive)> {
    // (variable, polarity drawn, sixteenths draw: preferred polarity below
    // the mix's threshold).
    let lit = (0u32..1 << 16, any::<bool>(), 0u8..16);
    // (literals, sixteenths draw: cut to a unit below the mix's threshold).
    let clause = (proptest::collection::vec(lit, 2..7), 0u8..16);
    let clauses = proptest::collection::vec(clause, 1..121);
    (2u32..41, clauses, any::<bool>(), any::<u64>()).prop_map(
        |(num_vars, clauses, unit_dense, preferred)| {
            let (unit_below, preferred_below) = if unit_dense { (2, 0) } else { (1, 10) };
            let formula = clauses
                .into_iter()
                .map(|(mut lits, unit_draw)| {
                    let unit = unit_draw < unit_below;
                    if unit {
                        lits.truncate(1);
                    }
                    let lit = |(v, positive, draw): (u32, bool, u8)| {
                        let var = v % num_vars;
                        let positive = if draw < preferred_below || (unit && unit_dense) {
                            preferred >> var & 1 == 1
                        } else {
                            positive
                        };
                        Lit::with_polarity(Var(var), positive)
                    };
                    lits.into_iter().map(lit).collect()
                })
                .collect();
            (num_vars, formula)
        },
    )
}

fn flat(num_vars: u32, formula: &Naive) -> Cnf {
    let clauses = formula.iter().map(|c| Clause::new(c.clone())).collect();
    Cnf::new(num_vars, clauses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sequential_dpll_equals_a_naive_recursive_dpll(
        case in prop_oneof![arb_formula(), arb_kernel_formula()],
    ) {
        let (num_vars, formula) = case;
        let cnf = flat(num_vars, &formula);
        for heuristic in ALL_HEURISTICS {
            let mut stats = SolveStats::default();
            let model = naive_dpll(formula.clone(), num_vars, Assignment::new(num_vars), heuristic, 0, &mut stats);
            let (result, got) = dpll::solve(&cnf, heuristic);
            prop_assert_eq!((result.model(), got), (model.as_ref(), stats), "{}", heuristic);
        }
    }

    #[test]
    fn born_children_equal_split_then_simplify(
        case in prop_oneof![arb_formula(), arb_kernel_formula()],
        heuristic in 0..ALL_HEURISTICS.len(),
    ) {
        let (num_vars, formula) = case;
        for mode in [SimplifyMode::Fixpoint, SimplifyMode::SinglePass, SimplifyMode::SplitOnly] {
            for polarity in [Polarity::Positive, Polarity::Negative] {
                for discrepancy in [None, Some(0), Some(2)] {
                    let program = DpllProgram::new(ALL_HEURISTICS[heuristic])
                        .with_mode(mode)
                        .with_polarity(polarity);
                    let mut root = SubProblem::root(flat(num_vars, &formula));
                    root.discrepancy = discrepancy;
                    let reached =
                        lines_2_to_11(formula.clone(), num_vars, Assignment::new(num_vars), mode);
                    check_activation(&program, root, num_vars, reached, 5);
                }
            }
        }
    }

    #[test]
    fn split_only_paths_equal_the_assign_chain(
        case in prop_oneof![arb_formula(), arb_kernel_formula()],
    ) {
        let (num_vars, formula) = case;
        check_paths(num_vars, &formula, SimplifyMode::SplitOnly, 5);
    }
}

/// Every heuristic, polarity and discrepancy budget under `mode`, `depth`
/// levels deep from the root of `formula`: each child's residual, read
/// off its path, against the reference's assignment chain simplified as
/// `mode` simplifies.
fn check_paths(num_vars: u32, formula: &Naive, mode: SimplifyMode, depth: u32) {
    for heuristic in ALL_HEURISTICS {
        for polarity in [Polarity::Positive, Polarity::Negative] {
            for discrepancy in [None, Some(0), Some(2)] {
                let program = DpllProgram::new(heuristic)
                    .with_mode(mode)
                    .with_polarity(polarity);
                let mut root = SubProblem::root(flat(num_vars, formula));
                root.discrepancy = discrepancy;
                let reached =
                    lines_2_to_11(formula.clone(), num_vars, Assignment::new(num_vars), mode);
                check_activation(&program, root, num_vars, reached, depth);
            }
        }
    }
}

#[test]
fn paths_read_awkward_clauses_like_the_assign_chain_in_every_mode() {
    let formula = |clauses: &[&[i32]]| -> Naive {
        let lits = |c: &&[i32]| c.iter().map(|&d| Lit::from_dimacs(d)).collect();
        clauses.iter().map(lits).collect()
    };
    let cases = [
        // Duplicate literals: `x ∨ x` is no unit, and `¬x ∨ ¬x` empties in
        // one assignment.
        formula(&[
            &[1, 2, 1],
            &[-1, -1],
            &[-2, 3, -2],
            &[2, -3, 4],
            &[-4, -4, 1],
        ]),
        // A literal beside its negation: closed by either value.
        formula(&[
            &[1, -1, 2],
            &[-2, 3],
            &[3, -3],
            &[-1, -3, 4],
            &[2, 4, -2, -4],
        ]),
        // An empty root clause: the root is `Unsat` before any split.
        formula(&[&[1, 2], &[], &[-1, 3]]),
        // A unit, which the first branch of `first` falsifies under
        // `SplitOnly` and the root forces under the propagating modes, and
        // a variable that occurs nowhere.
        formula(&[&[2], &[-2, 3], &[-3, 4, 1], &[-4, -1], &[3, 4]]),
    ];
    for clauses in &cases {
        for mode in [
            SimplifyMode::Fixpoint,
            SimplifyMode::SinglePass,
            SimplifyMode::SplitOnly,
        ] {
            check_paths(6, clauses, mode, 6);
        }
    }
}

/// What an activation reaches after Listing 4 lines 2–11 when it
/// simplifies its own formula, over the reference: the outcome, the
/// residual and the assignment.
fn lines_2_to_11(
    mut formula: Naive,
    num_vars: u32,
    mut assign: Assignment,
    mode: SimplifyMode,
) -> (Simplified, Naive, Assignment) {
    let (outcome, forced) = naive_simplify(&mut formula, num_vars, mode);
    for lit in forced.units.into_iter().chain(forced.pures) {
        assign.assign(lit.var(), lit.demanded_value());
    }
    (outcome, formula, assign)
}

/// Starts `sub`, whose activation must reach `reached`, and checks every
/// child it spawns against the reference — the activation's residual
/// under the branch, then the child's own lines 2–11 — then, for
/// `depth - 1` more levels, the children themselves.
fn check_activation(
    program: &DpllProgram,
    sub: SubProblem,
    num_vars: u32,
    reached: (Simplified, Naive, Assignment),
    depth: u32,
) {
    let (outcome, formula, assign) = reached;
    let discrepancy = sub.discrepancy;
    let calls = match (program.start(sub), outcome) {
        (Step::Done(Verdict::Sat(model)), Simplified::Sat) => {
            return assert_eq!(model, assign.complete());
        }
        (Step::Done(Verdict::Unsat), Simplified::Unsat) => return,
        (Step::Spawn(spawn), Simplified::Undecided) => spawn.calls,
        (_, outcome) => panic!("the activation did not end {outcome:?}"),
    };
    let selected = program
        .heuristic()
        .select(&flat(num_vars, &formula))
        .expect("undecided");
    let lit = match program.polarity() {
        Polarity::Positive => selected,
        Polarity::Negative => selected.negated(),
    };
    let branches = match discrepancy {
        Some(0) => vec![(lit, discrepancy)],
        _ => vec![
            (lit, discrepancy),
            (lit.negated(), discrepancy.map(|d| d - 1)),
        ],
    };
    assert_eq!(calls.len(), branches.len());
    for (call, (branch, budget)) in calls.into_iter().zip(branches) {
        let before = naive_assign(&formula, branch);
        let mut path = assign.clone();
        path.assign(branch.var(), branch.demanded_value());
        let expected = lines_2_to_11(before.clone(), num_vars, path, program.mode());
        assert_eq!(program.weight(&call), before.len() as u32);
        assert_eq!(call.discrepancy, budget);
        if expected.0 == Simplified::Unsat {
            assert!(call.residual().has_empty_clause(), "{branch:?}");
        } else {
            assert_eq!(*call.residual(), flat(num_vars, &expected.1), "{branch:?}");
            assert_eq!(call.assignment(), expected.2, "{branch:?}");
        }
        if depth > 1 {
            check_activation(program, call, num_vars, expected, depth - 1);
        }
    }
}

/// A model as a bit string, variable 0 first.
fn bits(model: &[bool]) -> String {
    model.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// The paper's machine and mapper, run to quiescence.
fn mesh_14x14(program: DpllProgram) -> StackBuilder<DpllProgram> {
    StackBuilder::new(program)
        .topology(TopologySpec::Torus2D { w: 14, h: 14 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .halt_on_root_reply(false)
}

#[test]
fn mesh_runs_reproduce_the_nested_layout_pins() {
    let runs: Vec<(u64, u64, u64, String)> = [1u64, 2, 3]
        .into_iter()
        .map(|seed| {
            let cnf = gen::satisfiable_ksat(seed, 30, 136, 3);
            let program =
                DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly);
            let report = mesh_14x14(program).run(SubProblem::root(cnf), 0);
            let Some(Verdict::Sat(model)) = report.result else {
                panic!("seed {seed}: satisfiable by construction");
            };
            (seed, report.rec_totals.started, report.steps, bits(&model))
        })
        .collect();
    // (seed, activations, steps, model) recorded at the parent commit
    // (nested `Vec<Clause>` storage, SipHash ticket tables).
    let pins = [
        (1, 19913, 578, "000101000000010000011111011010"),
        (2, 24319, 522, "110000111101111110000000001011"),
        (3, 33931, 1013, "111101101100101101111000110011"),
    ];
    let got: Vec<(u64, u64, u64, &str)> = runs
        .iter()
        .map(|(seed, acts, steps, model)| (*seed, *acts, *steps, model.as_str()))
        .collect();
    assert_eq!(got, pins);
}

#[test]
fn portfolio_race_reproduces_the_nested_layout_pin() {
    let cnf = gen::satisfiable_ksat(11, 40, 182, 3);
    let report = PortfolioRunner::new(PortfolioSpec::diversified_sat(4).epoch(64))
        .threads(2)
        .topology(TopologySpec::Torus2D { w: 6, h: 6 })
        .run_sat(&cnf);
    let members: Vec<(u64, u64)> = report
        .members
        .iter()
        .map(|m| (m.summary.steps, m.summary.activations_started))
        .collect();
    let winner = report
        .winner_summary()
        .and_then(|s| s.result.as_deref())
        .and_then(|r| r.strip_prefix("Sat(["))
        .and_then(|r| r.strip_suffix("])"))
        .map(|r| bits(&r.split(", ").map(|t| t == "true").collect::<Vec<_>>()));
    // Recorded at the parent commit, like the mesh pins above.
    assert_eq!(report.winner, Some(2));
    assert_eq!(report.epochs, 1);
    assert_eq!(members, [(23, 151), (30, 229), (18, 89), (20, 109)]);
    assert_eq!(
        winner.as_deref(),
        Some("1111011111110001011111100001101100000010")
    );
}

#[test]
fn propagating_mesh_runs_reproduce_the_per_literal_compaction_pins() {
    use Heuristic::{Dlis, JeroslowWang};
    use SimplifyMode::{Fixpoint, SinglePass};
    // (seed, mode, heuristic, activations, steps, delivered, model)
    // recorded at the parent commit (one whole-formula compaction per
    // forced literal).
    let pins = [
        (
            1,
            Fixpoint,
            JeroslowWang,
            53,
            21,
            107,
            "1000111100101110110000101110110100010110",
        ),
        (
            2,
            Fixpoint,
            Dlis,
            79,
            25,
            159,
            "0110100001101011011101110100000010010100",
        ),
        (
            3,
            Fixpoint,
            JeroslowWang,
            81,
            27,
            163,
            "0101110001001011011100011111010011000100",
        ),
        (
            4,
            SinglePass,
            Dlis,
            231,
            27,
            463,
            "1010100000110001000000101100001100011000",
        ),
        (
            5,
            SinglePass,
            JeroslowWang,
            65,
            24,
            131,
            "1000010110011010100000000000110011011111",
        ),
    ];
    for (seed, mode, heuristic, activations, steps, delivered, model) in pins {
        let cnf = gen::satisfiable_ksat(seed, 40, 182, 3);
        let program = DpllProgram::new(heuristic).with_mode(mode);
        let report = mesh_14x14(program).run(SubProblem::root(cnf), 0);
        let (stats, got_steps, got_delivered) = counters(&report);
        assert_eq!(
            (
                stats.started,
                got_steps,
                got_delivered,
                answer(&report).as_str()
            ),
            (activations, steps, delivered, model),
            "seed {seed}, {mode}, {heuristic}"
        );
    }
}

#[test]
fn weight_aware_mesh_runs_reproduce_the_self_simplifying_pins() {
    use Heuristic::{Dlis, FirstUnassigned, JeroslowWang, MostFrequent};
    use SimplifyMode::{Fixpoint, SinglePass};
    // The mapper keeps a sub-problem lighter than the threshold on its
    // node, so these runs read every hint: (seed, mode, heuristic,
    // threshold, activations, steps, delivered, model), recorded at the
    // parent commit (each child simplified its own formula).
    let pins = [
        (
            1,
            Fixpoint,
            JeroslowWang,
            64,
            53,
            27,
            107,
            "1000111100101110110000101110110100010110",
        ),
        (
            2,
            Fixpoint,
            Dlis,
            120,
            79,
            57,
            159,
            "0110100001101011011101110100000010010100",
        ),
        (
            3,
            SinglePass,
            MostFrequent,
            64,
            107,
            25,
            215,
            "0001110001001011011100011111010011000100",
        ),
        (
            4,
            SinglePass,
            JeroslowWang,
            120,
            109,
            41,
            219,
            "1010100000110001000000101100001100011000",
        ),
        (
            5,
            Fixpoint,
            FirstUnassigned,
            150,
            97,
            65,
            195,
            "1000010110011010000000000100110011011111",
        ),
        (
            6,
            SinglePass,
            Dlis,
            150,
            101,
            90,
            203,
            "0110010101101101111001101101011110110100",
        ),
    ];
    for (seed, mode, heuristic, threshold, activations, steps, delivered, model) in pins {
        let cnf = gen::satisfiable_ksat(seed, 40, 182, 3);
        let report = StackBuilder::new(DpllProgram::new(heuristic).with_mode(mode))
            .topology(TopologySpec::Torus2D { w: 14, h: 14 })
            .mapper(MapperSpec::WeightAware {
                local_threshold: threshold,
                status_period: None,
            })
            .halt_on_root_reply(false)
            .run(SubProblem::root(cnf), 0);
        let (stats, got_steps, got_delivered) = counters(&report);
        assert_eq!(
            (
                stats.started,
                got_steps,
                got_delivered,
                answer(&report).as_str()
            ),
            (activations, steps, delivered, model),
            "seed {seed}, {mode}, {heuristic}, threshold {threshold}"
        );
    }
}

#[test]
fn sequential_dpll_reproduces_the_per_literal_compaction_stats() {
    // The unit and pure counts witness the order literals are forced in:
    // full `SolveStats` of `dpll::solve` on uf20-91 seeds 1 to 5, recorded
    // at the parent commit as (decisions, unit_props, pure_assigns, nodes,
    // max_depth, model).
    let stats = |decisions, unit_props, pure_assigns, nodes, max_depth| SolveStats {
        decisions,
        unit_props,
        pure_assigns,
        nodes,
        max_depth,
    };
    let pins = [
        (
            1,
            Heuristic::JeroslowWang,
            stats(3, 13, 0, 4, 3),
            "10110100000010110101",
        ),
        (
            1,
            Heuristic::FirstUnassigned,
            stats(6, 10, 0, 7, 6),
            "10110100000010110101",
        ),
        (
            2,
            Heuristic::JeroslowWang,
            stats(9, 45, 6, 16, 7),
            "11001000010100001010",
        ),
        (
            2,
            Heuristic::FirstUnassigned,
            stats(8, 40, 0, 14, 5),
            "01011011110110001000",
        ),
        (
            3,
            Heuristic::JeroslowWang,
            stats(8, 9, 2, 9, 8),
            "11000001100111011111",
        ),
        (
            3,
            Heuristic::FirstUnassigned,
            stats(6, 10, 4, 7, 6),
            "11000100000110011001",
        ),
        (
            4,
            Heuristic::JeroslowWang,
            stats(6, 12, 1, 7, 6),
            "01110100010010000100",
        ),
        (
            4,
            Heuristic::FirstUnassigned,
            stats(6, 12, 1, 7, 6),
            "01110100010011110100",
        ),
        (
            5,
            Heuristic::JeroslowWang,
            stats(7, 27, 0, 10, 6),
            "11101000011100110001",
        ),
        (
            5,
            Heuristic::FirstUnassigned,
            stats(4, 28, 4, 7, 4),
            "11101000011100110001",
        ),
    ];
    for (seed, heuristic, expected, model) in pins {
        let (result, got) = dpll::solve(&gen::uf20_91(seed), heuristic);
        let got_model = bits(result.model().expect("uf20-91 instances are satisfiable"));
        assert_eq!(
            (got, got_model.as_str()),
            (expected, model),
            "seed {seed}, {heuristic}"
        );
    }
}

/// What a run pins beside its answer: the layer-4 counters summed over
/// the nodes, the steps taken and the envelopes delivered.
fn counters<Out>(report: &RecRunReport<Out>) -> (RecStats, u64, u64) {
    (
        report.rec_totals,
        report.steps,
        report.metrics.total_delivered,
    )
}

/// The answer as the pins spell it: the model's bits, or the verdict.
fn answer(report: &RecRunReport<Verdict>) -> String {
    match &report.result {
        Some(Verdict::Sat(model)) => bits(model),
        other => format!("{other:?}"),
    }
}

#[test]
fn single_branch_and_cancelling_runs_reproduce_the_parent_pins() {
    let split_only =
        || DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly);
    let root = |seed| SubProblem::root(gen::satisfiable_ksat(seed, 30, 136, 3));
    // Limited-discrepancy search: a spent budget spawns one branch (the
    // `assign` path), an unspent one both (the `split` path). The first
    // run ends inconclusive, the second finds a model.
    let lds_2 = mesh_14x14(split_only()).run(root(1).with_discrepancy(2), 0);
    let lds_6 = mesh_14x14(split_only()).run(root(5).with_discrepancy(6), 0);
    // Losing branches withdrawn: every cancel path of the call records.
    let cancelling = mesh_14x14(split_only()).cancellation(true).run(root(2), 0);
    let stats = |started, stale_replies, speculative_wins, cancels_sent, cancelled| RecStats {
        started,
        completed: started - cancelled,
        stale_replies,
        speculative_wins,
        cancels_sent,
        cancelled,
        ..RecStats::default()
    };
    // Recorded at the parent commit (records in a ticket-keyed table,
    // two `assign` scans per split).
    assert_eq!(
        (counters(&lds_2), answer(&lds_2).as_str()),
        ((stats(562, 0, 0, 0, 0), 51, 1125), "Some(Unsat)")
    );
    assert_eq!(
        (counters(&lds_6), answer(&lds_6).as_str()),
        (
            (stats(6006, 9, 9, 0, 0), 202, 12013),
            "101001100111111000000000110011"
        )
    );
    assert_eq!(
        (counters(&cancelling), answer(&cancelling).as_str()),
        (
            (stats(24319, 277, 45, 1406, 1129), 559, 48916),
            "110000111101111110000000001011"
        )
    );
}

#[test]
fn knapsack_bnb_reproduces_the_parent_pin_on_both_engines() {
    // `Join::All` batches: every reply lands in its result slot.
    let items = seeded_items(7, 14, 16, 24);
    let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
    for backend in [BackendSpec::Sequential, BackendSpec::sharded(2)] {
        let report = StackBuilder::new(BnbKnapsackProgram)
            .topology(TopologySpec::Torus2D { w: 6, h: 6 })
            .mapper(MapperSpec::LeastBusy {
                status_period: None,
            })
            .objective(ObjectiveSpec::Maximise)
            .prune(PruneSpec::incumbent())
            .backend(backend.clone())
            .halt_on_root_reply(false)
            .run(BnbKnapsackTask::root(items.clone(), capacity), 0);
        // Recorded at the parent commit.
        assert_eq!(
            (counters(&report), report.result),
            (
                (
                    RecStats {
                        started: 2472,
                        completed: 2472,
                        pruned: 1840,
                        incumbent_updates: 250,
                        ..RecStats::default()
                    },
                    673,
                    9625
                ),
                Some(102)
            ),
            "{backend:?}"
        );
    }
}

#[test]
fn inline_and_spilled_batches_reproduce_the_parent_pins() {
    fn machine<P: RecProgram>(program: P) -> StackBuilder<P> {
        StackBuilder::new(program)
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .mapper(MapperSpec::LeastBusy {
                status_period: None,
            })
            .halt_on_root_reply(false)
    }
    fn pin<Out: Clone>(report: RecRunReport<Out>) -> (Option<Out>, (RecStats, u64, u64)) {
        (report.result.clone(), counters(&report))
    }
    let stats = |started, completed, pruned, incumbent_updates| RecStats {
        started,
        completed,
        pruned,
        incumbent_updates,
        ..RecStats::default()
    };
    // Recorded at the parent commit. Batches wider than two: N-Queens'
    // safe columns and an 8-city tour's unvisited cities.
    let queens = machine(NQueensProgram).run(QueensTask::root(6), 0);
    assert_eq!(pin(queens), (Some(4), (stats(153, 153, 0, 0), 69, 307)));
    let tsp = machine(TspProgram)
        .objective(ObjectiveSpec::Minimise)
        .prune(PruneSpec::incumbent())
        .run(TspTask::root(TspInstance::random(5, 8, 40)), 0);
    assert_eq!(
        pin(tsp),
        (Some(80), (stats(1614, 1614, 2687, 126), 2777, 9107))
    );
    // `All` joins of two.
    let fib = machine(FibProgram).run(12, 0);
    assert_eq!(pin(fib), (Some(144), (stats(465, 465, 0, 0), 108, 931)));
    // Empty batches of both joins beside a wide one.
    let empty = FnProgram::new(|n: u64| -> Rec<u64, u64> {
        match n {
            0 => Rec::done(1),
            1 => Rec::call_all(vec![]).then_all(|rs| Rec::done(rs.len() as u64 + 10)),
            2 => Rec::call_any(vec![], |_| true).then_any(|r| Rec::done(r.unwrap_or(20))),
            _ => Rec::call_all(vec![0, 1, 2, n - 1]).then_all(|rs| Rec::done(rs.iter().sum())),
        }
    });
    let empty = machine(empty).run(6, 0);
    assert_eq!(pin(empty), (Some(144), (stats(17, 17, 0, 0), 17, 35)));
    // A short chain races four long ones in one `Any` batch: with
    // cancellation its win withdraws them all, link by link.
    let race = || {
        FnProgram::new(|n: u64| -> Rec<u64, u64> {
            match n {
                0 => Rec::done(1),
                1..=9 => Rec::call(n - 1).then(|r| Rec::done(r + 1)),
                _ => Rec::call_any(vec![n - 10, 8, 9, 7, 6], |r| *r > 0)
                    .then_any(|r| Rec::done(r.unwrap_or(0))),
            }
        })
    };
    let race_stats = |completed, cancels_sent, cancelled| RecStats {
        started: 38,
        completed,
        stale_replies: 4,
        speculative_wins: 1,
        cancels_sent,
        cancelled,
        ..RecStats::default()
    };
    let ignored = machine(race()).run(12, 0);
    assert_eq!(pin(ignored), (Some(3), (race_stats(38, 0, 0), 22, 77)));
    let cancelled = machine(race()).cancellation(true).run(12, 0);
    assert_eq!(pin(cancelled), (Some(3), (race_stats(17, 25, 21), 17, 81)));
}

/// Two batches under one parent ticket: `n < 100` counts down a chain of
/// calls and returns `n`; a `100` races a short chain against a long one,
/// is resumed by the short one while the long one is still out, and then
/// calls again. The win forgets the long chain and vacates the first
/// record before the activation resumes, so with or without cancellation
/// the second record is the only one that answers to the parent ticket,
/// and the long chain's reply arrives stale. A `200` sums three such
/// activations.
fn two_batch_program() -> impl hyperspace::recursion::RecProgram<Arg = u64, Out = u64> {
    FnProgram::new(|n: u64| -> Rec<u64, u64> {
        match n {
            0 => Rec::done(0),
            1..=99 => Rec::call(n - 1).then(|r| Rec::done(r + 1)),
            100 => Rec::call_any(vec![1, 40], |r| *r > 0).then_any(|first| {
                Rec::call(3).then(move |second| Rec::done(first.unwrap_or(0) * 100 + second))
            }),
            _ => Rec::call_all(vec![100, 100, 100]).then_all(|rs| Rec::done(rs.iter().sum())),
        }
    })
}

#[test]
fn a_won_record_is_gone_before_its_successor_suspends() {
    let frontier_at = |cancel: bool, steps: u64| {
        let mut sim = StackBuilder::new(two_batch_program())
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .mapper(MapperSpec::RoundRobin)
            .cancellation(cancel)
            .halt_on_root_reply(false)
            .build();
        sim.inject(0, trigger(200));
        for _ in 0..steps {
            sim.step().unwrap();
        }
        let mut machine = FrontierSnapshot::default();
        for node in 0..16 {
            machine.absorb(&sim.state(node).app.frontier(), None);
        }
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.state(0).root_result(), Some(&309), "cancel {cancel}");
        for node in 0..16 {
            let app = &sim.state(node).app;
            assert_eq!(app.live_records(), 0, "cancel {cancel}: node {node} leaked");
        }
        let stats = (0..16).map(|node| sim.state(node).app.stats);
        let stale: u64 = stats.map(|s| s.stale_replies).sum();
        (machine, stale)
    };
    // Mid-run frontiers and stale-reply totals recorded when a won record
    // still lingered until its last losing reply (the three such rows were
    // never counted as open, so forgetting the losers at once moves none
    // of these values).
    let snapshot = |open_records, pending_calls| FrontierSnapshot {
        open_records,
        pending_calls,
        ..FrontierSnapshot::default()
    };
    assert_eq!(frontier_at(false, 12), (snapshot(40, 42), 3));
    assert_eq!(frontier_at(true, 12), (snapshot(31, 33), 3));
}
