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
    /// Unit propagation to fixpoint followed by exactly one pure-literal
    /// assignment (the lowest-numbered pure variable), with no second
    /// round — the closest reading of Listing 4's straight-line body
    /// (lines 6–11) that still leaves no unit clause behind.
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
///
/// Counter-based: a forced literal visits the clauses it occurs in, not the
/// formula, and the formula is compacted once, on the way out. An
/// activation that forces nothing returns before any table is built.
pub fn simplify_with(
    cnf: &mut Cnf,
    assignment: &mut Assignment,
    mode: SimplifyMode,
) -> (Simplified, SimplifyStats) {
    let mut stats = SimplifyStats::default();
    if cnf.has_empty_clause() {
        return (Simplified::Unsat, stats);
    }
    if cnf.is_trivially_sat() {
        return (Simplified::Sat, stats);
    }
    if mode == SimplifyMode::SplitOnly {
        return (Simplified::Undecided, stats);
    }
    let counts = occurrence_counts(cnf);
    if cnf.clause_lens().all(|len| len != 1) && lowest_pure_literal(&counts).is_none() {
        return (Simplified::Undecided, stats);
    }
    let mut residual = Residual::new(cnf, counts);
    // Unit propagation (lines 6–8): drain every unit clause reachable from
    // the current formula, lowest clause first.
    while let Some(unit) = residual.first_unit(cnf) {
        assignment.assign(unit.var(), unit.demanded_value());
        stats.unit_props += 1;
        if residual.force(cnf, unit) {
            return (Simplified::Unsat, stats);
        }
    }
    // Pure-literal assignment (lines 9–11): a variable occurring with a
    // single polarity can be fixed to satisfy all its clauses. Fixing one
    // only removes clauses, so no unit and no conflict can follow.
    while let Some(pure) = lowest_pure_literal(&residual.counts) {
        assignment.assign(pure.var(), pure.demanded_value());
        stats.pure_assigns += 1;
        residual.force(cnf, pure);
        if mode == SimplifyMode::SinglePass {
            break;
        }
    }
    residual.compact(cnf);
    let outcome = if cnf.is_trivially_sat() {
        Simplified::Sat
    } else {
        Simplified::Undecided
    };
    (outcome, stats)
}

/// The residual of a formula under the literals forced so far in one
/// [`simplify_with`] call, kept as counters over the untouched formula.
struct Residual {
    /// Live occurrences of each literal, indexed by [`Lit::index`]; both
    /// counts of an assigned variable are zero.
    counts: Vec<u32>,
    /// The clauses each literal occurs in, ascending, once per occurrence:
    /// literal `l`'s run of `occurs` ends (exclusively) at
    /// `occur_ends[l]` and starts where `l - 1`'s ends.
    occur_ends: Vec<u32>,
    occurs: Vec<u32>,
    /// Occurrences not yet falsified in each clause, [`SATISFIED`] once
    /// the clause has left the formula. Occurrences, not distinct
    /// literals: `x ∨ x` counts two and is not a unit.
    remaining: Vec<u32>,
    /// Variables assigned by this call. The path's [`Assignment`] is not
    /// consulted: it may hold variables the formula no longer mentions.
    assigned: Vec<bool>,
}

/// [`Residual::remaining`] of a clause some forced literal satisfied.
const SATISFIED: u32 = u32::MAX;

impl Residual {
    /// Tables for `cnf`, whose literal occurrence counts are `counts`.
    fn new(cnf: &Cnf, counts: Vec<u32>) -> Residual {
        // Each run is filled through its own end offset, which therefore
        // starts at the run's start and arrives at its end.
        let mut occur_ends = Vec::with_capacity(counts.len());
        let mut total = 0;
        for &count in &counts {
            occur_ends.push(total);
            total += count;
        }
        let mut occurs = vec![0; total as usize];
        for (i, clause) in cnf.clauses().enumerate() {
            for lit in clause {
                let end = &mut occur_ends[lit.index()];
                occurs[*end as usize] = i as u32;
                *end += 1;
            }
        }
        Residual {
            counts,
            occur_ends,
            occurs,
            remaining: cnf.clause_lens().collect(),
            assigned: vec![false; cnf.num_vars() as usize],
        }
    }

    /// The clauses `lit` occurs in, live or not.
    fn occurrences(&self, lit: Lit) -> std::ops::Range<usize> {
        let start = match lit.index() {
            0 => 0,
            i => self.occur_ends[i - 1],
        };
        start as usize..self.occur_ends[lit.index()] as usize
    }

    /// Whether `lit`'s variable is still unassigned: in a clause that is
    /// still in the formula, whether that occurrence is.
    fn is_free(&self, lit: Lit) -> bool {
        !self.assigned[lit.var().0 as usize]
    }

    /// The literal of the first unit clause, if any (Listing 4 line 7).
    fn first_unit(&self, cnf: &Cnf) -> Option<Lit> {
        let i = self.remaining.iter().position(|&left| left == 1)?;
        let unit = cnf.clause(i).iter().find(|&&lit| self.is_free(lit));
        Some(*unit.expect("a clause with an occurrence left shows it"))
    }

    /// Applies `lit` to every clause it occurs in: a clause showing it
    /// leaves the formula and gives its live occurrences back to
    /// `counts`, a clause showing its negation loses that occurrence.
    /// Returns whether some clause lost its last one.
    fn force(&mut self, cnf: &Cnf, lit: Lit) -> bool {
        let var = lit.var().0 as usize;
        debug_assert!(!self.assigned[var]);
        for at in self.occurrences(lit) {
            let i = self.occurs[at] as usize;
            if std::mem::replace(&mut self.remaining[i], SATISFIED) == SATISFIED {
                continue;
            }
            for &other in cnf.clause(i) {
                // `var` itself is not marked yet: `x ∨ ¬x` returns both.
                if self.is_free(other) {
                    self.counts[other.index()] -= 1;
                }
            }
        }
        let mut conflict = false;
        for at in self.occurrences(lit.negated()) {
            let left = &mut self.remaining[self.occurs[at] as usize];
            if *left != SATISFIED {
                *left -= 1;
                conflict |= *left == 0;
                self.counts[lit.negated().index()] -= 1;
            }
        }
        self.assigned[var] = true;
        debug_assert_eq!(self.counts[var * 2..var * 2 + 2], [0, 0]);
        conflict
    }

    /// Writes the residual back into `cnf`: satisfied clauses and
    /// falsified literals go, everything else keeps its order.
    fn compact(&self, cnf: &mut Cnf) {
        cnf.retain(|i| self.remaining[i] != SATISFIED, |lit| self.is_free(lit));
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
    fn forcing_a_literal_matches_the_copying_assign() {
        // A duplicate literal, `¬x` twice in one clause, `x ∨ ¬x`, and a
        // clause the assignment empties.
        let original = cnf(&[&[1, 2, 1], &[-1, 3, -1], &[-1], &[2, 3], &[1, -1, 2]], 3);
        for value in [true, false] {
            let mut f = original.clone();
            let mut residual = Residual::new(&f, occurrence_counts(&f));
            let conflict = residual.force(&f, Lit::with_polarity(Var(0), value));
            residual.compact(&mut f);
            assert_eq!(f, original.assign(Var(0), value));
            assert_eq!(conflict, f.has_empty_clause());
            assert_eq!(conflict, value);
            assert_eq!(residual.counts, occurrence_counts(&f));
        }
    }

    #[test]
    fn repeated_occurrences_count_one_by_one() {
        // `x ∨ x` is not a unit; falsifying `x` empties it in one step.
        let mut f = cnf(&[&[1, 1], &[-1, -1, 2], &[-2, -2]], 2);
        let mut a = Assignment::new(2);
        let (out, stats) = simplify(&mut f, &mut a);
        assert_eq!((out, stats.unit_props), (Simplified::Undecided, 0));
        let mut residual = Residual::new(&f, occurrence_counts(&f));
        assert_eq!(residual.first_unit(&f), None);
        assert!(residual.force(&f, lit(-1)));
        // `¬x ∨ ¬x ∨ y` becomes the unit `y` when `x` holds.
        let mut residual = Residual::new(&f, occurrence_counts(&f));
        assert!(!residual.force(&f, lit(1)));
        assert_eq!(residual.first_unit(&f), Some(lit(2)));
    }

    #[test]
    fn single_pass_fixes_exactly_one_pure_literal() {
        // Unit chain x1, x2 to fixpoint, then x3 alone of the pure x3, x4.
        let mut f = cnf(&[&[1], &[-1, 2], &[3, 5, -6], &[4, -5, 6]], 6);
        let mut a = Assignment::new(6);
        let (out, stats) = simplify_with(&mut f, &mut a, SimplifyMode::SinglePass);
        assert_eq!(out, Simplified::Undecided);
        assert_eq!((stats.unit_props, stats.pure_assigns), (2, 1));
        assert_eq!(f, cnf(&[&[4, -5, 6]], 6));
        assert_eq!(a.value(Var(2)), Some(true));
        assert_eq!(a.value(Var(3)), None);
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
