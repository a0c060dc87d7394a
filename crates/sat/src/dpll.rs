//! Sequential DPLL: the single-core reference solver.
//!
//! An iterative depth-first driver over the mesh's kernel: one
//! [`RootFormula`](crate::RootFormula) built from the formula as given,
//! and an explicit stack of decision levels, each a path from that root
//! with its residual as counters, which hold its assignment too. A child
//! copies its parent's counters into the buffer a finished level left
//! behind, forces its branch and runs its lines 6–11 there, exactly as a
//! [`DpllProgram`](crate::DpllProgram) child decides itself, and the
//! branching literal comes from the same choice. Classic backtracking —
//! "try `L = true` first, then `L = false`" — replaces the mesh's
//! speculative evaluation of both. Nothing recurses natively: depth costs
//! one level of counters on the heap, not a stack frame.

use crate::cnf::{check_model, Cnf, Lit, Model};
use crate::heuristics::Heuristic;
use crate::program::Path;
use crate::simplify::{Residual, Simplified, SimplifyMode, SimplifyStats};

/// Verdict of a solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a witness model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// True for [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            SatResult::Unsat => None,
        }
    }
}

/// Search statistics (workload measures for the experiments).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Unit propagations applied.
    pub unit_props: u64,
    /// Pure-literal assignments applied.
    pub pure_assigns: u64,
    /// Search-tree nodes visited: the root and every child descended to.
    pub nodes: u64,
    /// Deepest decision level reached.
    pub max_depth: u64,
}

/// A node on the branch being searched: its path, with its residual as
/// counters over the root formula, and the literal of its second branch
/// while its first is searched.
#[derive(Clone)]
struct Level {
    path: Path,
    counters: Residual,
    untried: Option<Lit>,
}

/// Solves `cnf` with the given branching heuristic.
///
/// Returns the verdict and search statistics. Any returned model is
/// verified against the input before returning (a `debug_assert`).
pub fn solve(cnf: &Cnf, heuristic: Heuristic) -> (SatResult, SolveStats) {
    let mode = SimplifyMode::Fixpoint;
    let mut forced = SimplifyStats::default();
    let mut counters = Residual::default();
    let path = Path::root(cnf.clone(), &mut counters).child(None, mode, &mut counters, &mut forced);
    let mut levels = vec![Level {
        path,
        counters,
        untried: None,
    }];
    let mut stats = SolveStats {
        nodes: 1,
        ..SolveStats::default()
    };
    let mut depth = 0;
    let result = loop {
        let level = &mut levels[depth];
        let (parent, lit) = match level.path.verdict(&level.counters) {
            Simplified::Sat => break SatResult::Sat(level.counters.model()),
            Simplified::Undecided => {
                let lit = level.path.select(heuristic, &level.counters);
                let lit = lit.expect("undecided formula has literals");
                stats.decisions += 1;
                level.untried = Some(lit.negated());
                (depth, lit)
            }
            // Back to the deepest node whose second branch is untried.
            Simplified::Unsat => {
                let open = levels[..depth].iter().rposition(|l| l.untried.is_some());
                let Some(parent) = open else {
                    break SatResult::Unsat;
                };
                let lit = levels[parent].untried.take();
                (
                    parent,
                    lit.expect("the level was found by its untried branch"),
                )
            }
        };
        // The child goes into the buffer of the level that stood there last.
        depth = parent + 1;
        if levels.len() == depth {
            levels.push(levels[parent].clone());
        }
        let [from, to] = levels
            .get_disjoint_mut([parent, depth])
            .expect("two levels");
        to.counters.clone_from(&from.counters);
        to.untried = None;
        to.path = from
            .path
            .clone()
            .child(Some(lit), mode, &mut to.counters, &mut forced);
        stats.nodes += 1;
        stats.max_depth = stats.max_depth.max(depth as u64);
    };
    if let SatResult::Sat(model) = &result {
        debug_assert!(check_model(cnf, model), "solver produced invalid model");
    }
    (stats.unit_props, stats.pure_assigns) = (forced.unit_props, forced.pure_assigns);
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{Clause, Lit};
    use crate::heuristics::ALL_HEURISTICS;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d)
    }

    fn cnf(clauses: &[&[i32]], vars: u32) -> Cnf {
        Cnf::new(
            vars,
            clauses
                .iter()
                .map(|c| c.iter().map(|&d| lit(d)).collect::<Clause>())
                .collect(),
        )
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let (r, _) = solve(&cnf(&[], 1), Heuristic::FirstUnassigned);
        assert!(r.is_sat());
        let (r, _) = solve(&cnf(&[&[1], &[-1]], 1), Heuristic::FirstUnassigned);
        assert_eq!(r, SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_2_into_1_is_unsat() {
        // Two pigeons, one hole: p1 & p2 & (!p1 | !p2).
        let f = cnf(&[&[1], &[2], &[-1, -2]], 2);
        for h in ALL_HEURISTICS {
            let (r, _) = solve(&f, h);
            assert_eq!(r, SatResult::Unsat, "{h}");
        }
    }

    #[test]
    fn simple_sat_with_model_check() {
        let f = cnf(&[&[1, 2, 3], &[-1, -2], &[-2, -3], &[-1, -3], &[2, 3]], 3);
        for h in ALL_HEURISTICS {
            let (r, _) = solve(&f, h);
            let model = r.model().unwrap_or_else(|| panic!("{h} said UNSAT"));
            assert!(check_model(&f, model), "{h} model invalid");
        }
    }

    #[test]
    fn stats_are_recorded() {
        // Needs at least one real decision.
        let f = cnf(&[&[1, 2], &[-1, -2], &[1, -2], &[-1, 2]], 2);
        let (r, stats) = solve(&f, Heuristic::FirstUnassigned);
        assert_eq!(r, SatResult::Unsat);
        assert!(stats.decisions >= 1);
        assert!(stats.nodes >= 3);
        assert!(stats.max_depth >= 1);
    }

    #[test]
    fn unsat_php_3_into_2() {
        // Pigeonhole: 3 pigeons, 2 holes. Variables p(i,h) = i*2+h+1.
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..3i32 {
            clauses.push(vec![i * 2 + 1, i * 2 + 2]); // each pigeon somewhere
        }
        for h in 0..2i32 {
            for i in 0..3i32 {
                for j in (i + 1)..3i32 {
                    clauses.push(vec![-(i * 2 + h + 1), -(j * 2 + h + 1)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let f = cnf(&refs, 6);
        let (r, stats) = solve(&f, Heuristic::JeroslowWang);
        assert_eq!(r, SatResult::Unsat);
        assert!(stats.nodes > 1);
    }
}
