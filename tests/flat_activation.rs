//! The flat-layout activation path reproduces the nested-`Vec` one bit for
//! bit: `Cnf::assign` and in-place simplification against a naive
//! reference, whole mesh runs and a portfolio race against values recorded
//! before the layout changed, and the ticket-table hasher's spread.

use std::hash::{BuildHasher, BuildHasherDefault};

use hyperspace::core::{MapperSpec, PortfolioSpec, StackBuilder, TopologySpec};
use hyperspace::mapping::{Ticket, TicketHasher};
use hyperspace::portfolio::PortfolioRunner;
use hyperspace::sat::simplify::{simplify_with, Simplified};
use hyperspace::sat::{
    gen, Assignment, Clause, Cnf, DpllProgram, Heuristic, Lit, SimplifyMode, SubProblem, Var,
    Verdict,
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

/// Listing 4 lines 6–11 over the reference; returns the outcome and the
/// forced literals, units first within each round, in the order forced.
fn naive_simplify(
    formula: &mut Naive,
    num_vars: u32,
    mode: SimplifyMode,
) -> (Simplified, Vec<Lit>) {
    let mut forced = Vec::new();
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
        let before = forced.len();
        while let Some(unit) = formula.iter().find(|c| c.len() == 1) {
            forced.push(unit[0]);
            *formula = naive_assign(formula, unit[0]);
            if formula.iter().any(|c| c.is_empty()) {
                return (Simplified::Unsat, forced);
            }
        }
        while let Some(pure) = naive_pure(formula, num_vars) {
            forced.push(pure);
            *formula = naive_assign(formula, pure);
            if mode == SimplifyMode::SinglePass {
                break;
            }
        }
        if forced.len() == before {
            break;
        }
    }
    (Simplified::Undecided, forced)
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

fn flat(num_vars: u32, formula: &Naive) -> Cnf {
    let clauses = formula.iter().map(|c| Clause::new(c.clone())).collect();
    Cnf::new(num_vars, clauses)
}

/// Every read the flat formula offers agrees with the reference.
fn assert_same(cnf: &Cnf, formula: &Naive) {
    let views: Vec<&[Lit]> = cnf.clauses().collect();
    assert_eq!(views, *formula);
    assert_eq!(cnf.num_clauses(), formula.len());
    assert_eq!(cnf.is_trivially_sat(), formula.is_empty());
    assert_eq!(cnf.has_empty_clause(), formula.iter().any(|c| c.is_empty()));
    let lits: Vec<Lit> = formula.iter().flatten().copied().collect();
    assert_eq!(cnf.iter_lits().collect::<Vec<_>>(), lits);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_assign_equals_the_nested_reference(
        case in arb_formula(),
        order in any::<u64>(),
        values in any::<u32>(),
    ) {
        let (num_vars, mut formula) = case;
        let mut cnf = flat(num_vars, &formula);
        assert_same(&cnf, &formula);
        // Assign every variable once, starting anywhere.
        for k in 0..num_vars {
            let var = Var(((order % u64::from(num_vars)) as u32 + k) % num_vars);
            let lit = Lit::with_polarity(var, values >> k & 1 == 1);
            cnf = cnf.assign(var, lit.demanded_value());
            formula = naive_assign(&formula, lit);
            assert_same(&cnf, &formula);
        }
        prop_assert!(formula.iter().all(|c| c.is_empty()));
    }

    #[test]
    fn in_place_simplification_equals_the_nested_reference(case in arb_formula()) {
        let (num_vars, formula) = case;
        for mode in [SimplifyMode::Fixpoint, SimplifyMode::SinglePass, SimplifyMode::SplitOnly] {
            let mut cnf = flat(num_vars, &formula);
            let mut assignment = Assignment::new(num_vars);
            let (outcome, stats) = simplify_with(&mut cnf, &mut assignment, mode);
            let mut reference = formula.clone();
            let (expected, forced) = naive_simplify(&mut reference, num_vars, mode);
            prop_assert_eq!(&outcome, &expected);
            prop_assert_eq!(stats.unit_props + stats.pure_assigns, forced.len() as u64);
            let mut expected_assignment = Assignment::new(num_vars);
            for lit in forced {
                expected_assignment.assign(lit.var(), lit.demanded_value());
            }
            prop_assert_eq!(&assignment, &expected_assignment);
            // An `Unsat` outcome returns mid-round, formula unspecified.
            if outcome != Simplified::Unsat {
                assert_same(&cnf, &reference);
            }
        }
    }
}

/// A model as a bit string, variable 0 first.
fn bits(model: &[bool]) -> String {
    model.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

#[test]
fn mesh_runs_reproduce_the_nested_layout_pins() {
    let runs: Vec<(u64, u64, u64, String)> = [1u64, 2, 3]
        .into_iter()
        .map(|seed| {
            let cnf = gen::satisfiable_ksat(seed, 30, 136, 3);
            let program =
                DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly);
            let report = StackBuilder::new(program)
                .topology(TopologySpec::Torus2D { w: 14, h: 14 })
                .mapper(MapperSpec::LeastBusy {
                    status_period: None,
                })
                .halt_on_root_reply(false)
                .run(SubProblem::root(cnf), 0);
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
fn ticket_hasher_has_no_degenerate_bucket() {
    let hash = |t: Ticket| BuildHasherDefault::<TicketHasher>::default().hash_one(t.raw());
    // hashbrown picks the bucket from the low bits and the in-group tag
    // from the top seven; neither may collapse, machine-wide or — as the
    // per-node tables see them — for one issuing node.
    const LOW: usize = 1 << 12;
    let mut low = vec![0u32; LOW];
    let mut top = [0u32; 128];
    for node in 0..196 {
        let mut own = vec![0u32; LOW];
        for serial in 0..4096 {
            let h = hash(Ticket::new(node, serial));
            low[h as usize % LOW] += 1;
            own[h as usize % LOW] += 1;
            top[(h >> 57) as usize] += 1;
        }
        // One key a bucket on average; uniform hashing peaks near 8.
        let max = own.iter().max().unwrap();
        assert!(*max <= 16, "node {node}: {max} serials share a bucket");
    }
    // 196 keys a bucket and 6272 a tag on average.
    let max = low.iter().max().unwrap();
    assert!(*max <= 3 * 196, "fullest low-bit bucket holds {max}");
    let (min, max) = (top.iter().min().unwrap(), top.iter().max().unwrap());
    assert!(*min >= 5600 && *max <= 6900, "tags range {min}..{max}");
}
