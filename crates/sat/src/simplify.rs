//! Problem simplification: unit propagation and pure-literal assignment
//! (Listing 4, lines 6–11).

use crate::cnf::{Assignment, Cnf, Lit, Var};
use crate::heuristics::occurrence_counts;

/// Outcome of simplifying a sub-problem to fixpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Simplified {
    /// Every clause satisfied; the accompanying assignment (completed with
    /// `false` for free variables) is a model.
    Sat,
    /// An empty clause appeared: this branch is unsatisfiable.
    Unsat,
    /// Neither: a decision is required.
    Undecided,
}

/// Statistics of one simplification pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Variables forced by unit clauses.
    pub unit_props: u64,
    /// Variables fixed by pure-literal elimination.
    pub pure_assigns: u64,
}

/// How aggressively each activation simplifies before branching.
///
/// The choice decides the *workload* a formula generates on the mesh: the
/// stronger the simplification, the smaller the speculative search tree.
/// Our fixpoint DPLL collapses uf20-91 instances to a few dozen
/// activations, far below the traffic the paper's evaluation exhibits
/// (Figure 5 shows hundreds of queued messages on 196 cores), so the
/// benchmark harness also offers the weaker modes — see EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SimplifyMode {
    /// Unit propagation and pure-literal assignment to fixpoint (the
    /// strongest solver; the library default).
    #[default]
    Fixpoint,
    /// One pass of unit propagation over the current clause list followed
    /// by one pass of pure-literal assignment — the literal reading of
    /// Listing 4's straight-line body (lines 6–11).
    SinglePass,
    /// No propagation at all: pure Davis–Putnam splitting. Generates the
    /// largest speculative trees (roughly the message volume the paper's
    /// plots imply).
    SplitOnly,
}

impl std::fmt::Display for SimplifyMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimplifyMode::Fixpoint => "fixpoint",
            SimplifyMode::SinglePass => "single-pass",
            SimplifyMode::SplitOnly => "split-only",
        })
    }
}

impl std::str::FromStr for SimplifyMode {
    type Err = crate::heuristics::SatSpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax: `fixpoint`,
    /// `single-pass`, `split-only`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fixpoint" => Ok(SimplifyMode::Fixpoint),
            "single-pass" => Ok(SimplifyMode::SinglePass),
            "split-only" => Ok(SimplifyMode::SplitOnly),
            other => Err(crate::heuristics::SatSpecParseError(format!(
                "{s:?}: expected fixpoint, single-pass or split-only, got {other:?}"
            ))),
        }
    }
}

/// Runs unit propagation and pure-literal assignment to fixpoint, mutating
/// the formula and recording forced values in `assignment`.
pub fn simplify(cnf: &mut Cnf, assignment: &mut Assignment) -> (Simplified, SimplifyStats) {
    simplify_with(cnf, assignment, SimplifyMode::Fixpoint)
}

/// [`simplify`] with an explicit [`SimplifyMode`].
pub fn simplify_with(
    cnf: &mut Cnf,
    assignment: &mut Assignment,
    mode: SimplifyMode,
) -> (Simplified, SimplifyStats) {
    let mut stats = SimplifyStats::default();
    let mut first_iteration = true;
    loop {
        if cnf.has_empty_clause() {
            return (Simplified::Unsat, stats);
        }
        if cnf.is_trivially_sat() {
            return (Simplified::Sat, stats);
        }
        if !first_iteration && mode != SimplifyMode::Fixpoint {
            return (Simplified::Undecided, stats);
        }
        if mode == SimplifyMode::SplitOnly {
            return (Simplified::Undecided, stats);
        }
        let mut changed = false;
        // Unit propagation (lines 6–8): drain every unit clause reachable
        // from the current formula.
        while let Some(lit) = cnf.first_unit() {
            assignment.assign(lit.var(), lit.demanded_value());
            cnf.assign_in_place(lit.var(), lit.demanded_value(), |_| {});
            stats.unit_props += 1;
            changed = true;
            if cnf.has_empty_clause() {
                return (Simplified::Unsat, stats);
            }
        }
        // Pure-literal assignment (lines 9–11): a variable occurring with a
        // single polarity can be fixed to satisfy all its clauses. Fixing
        // one only removes clauses, so the occurrence counts are built once
        // and kept current by the removals.
        let mut counts = occurrence_counts(cnf);
        while let Some(pure) = lowest_pure_literal(&counts) {
            assignment.assign(pure.var(), pure.demanded_value());
            cnf.assign_in_place(pure.var(), pure.demanded_value(), |lit| {
                counts[lit.index()] -= 1
            });
            stats.pure_assigns += 1;
            changed = true;
            if mode == SimplifyMode::SinglePass {
                break;
            }
        }
        first_iteration = false;
        if !changed {
            return (Simplified::Undecided, stats);
        }
    }
}

/// Finds a literal whose variable occurs with only one polarity, if any
/// (the lowest-numbered such variable).
pub fn find_pure_literal(cnf: &Cnf) -> Option<Lit> {
    lowest_pure_literal(&occurrence_counts(cnf))
}

/// The pure literal of the lowest-numbered variable in a table of
/// per-literal occurrence counts (indexed by [`Lit::index`]).
fn lowest_pure_literal(counts: &[u32]) -> Option<Lit> {
    let var = counts
        .chunks_exact(2)
        .position(|c| (c[0] == 0) != (c[1] == 0))?;
    Some(Lit::with_polarity(Var(var as u32), counts[var * 2] != 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::check_model;

    fn lit(d: i32) -> Lit {
        Lit::from_dimacs(d)
    }

    fn cnf(clauses: &[&[i32]], vars: u32) -> Cnf {
        Cnf::new(
            vars,
            clauses
                .iter()
                .map(|c| c.iter().map(|&d| lit(d)).collect())
                .collect(),
        )
    }

    #[test]
    fn unit_propagation_chain() {
        // x1 & (!x1 | x2) & (!x2 | x3): pure unit chain to SAT.
        let mut f = cnf(&[&[1], &[-1, 2], &[-2, 3]], 3);
        let mut a = Assignment::new(3);
        let (out, stats) = simplify(&mut f, &mut a);
        assert_eq!(out, Simplified::Sat);
        assert!(stats.unit_props >= 1);
        let original = cnf(&[&[1], &[-1, 2], &[-2, 3]], 3);
        assert!(check_model(&original, &a.complete()));
    }

    #[test]
    fn unit_conflict_detected() {
        let mut f = cnf(&[&[1], &[-1]], 1);
        let mut a = Assignment::new(1);
        let (out, _) = simplify(&mut f, &mut a);
        assert_eq!(out, Simplified::Unsat);
    }

    #[test]
    fn pure_literal_eliminates() {
        // x1 occurs only positively: fixing it satisfies both clauses.
        let mut f = cnf(&[&[1, 2], &[1, -2]], 2);
        let mut a = Assignment::new(2);
        let (out, stats) = simplify(&mut f, &mut a);
        assert_eq!(out, Simplified::Sat);
        assert!(stats.pure_assigns >= 1);
        assert_eq!(a.value(Var(0)), Some(true));
    }

    #[test]
    fn undecided_when_branching_needed() {
        // 2-SAT with both polarities everywhere and no units.
        let mut f = cnf(&[&[1, 2], &[-1, -2], &[1, -2], &[-1, 2]], 2);
        let mut a = Assignment::new(2);
        let (out, stats) = simplify(&mut f, &mut a);
        assert_eq!(out, Simplified::Undecided);
        assert_eq!(stats.unit_props, 0);
        assert_eq!(stats.pure_assigns, 0);
    }

    #[test]
    fn find_pure_none_when_mixed() {
        let f = cnf(&[&[1, -2], &[-1, 2]], 2);
        assert_eq!(find_pure_literal(&f), None);
    }

    #[test]
    fn find_pure_negative_polarity() {
        let f = cnf(&[&[-1, 2], &[-1, -2]], 2);
        assert_eq!(find_pure_literal(&f), Some(lit(-1)));
    }
}
