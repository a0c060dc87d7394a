//! Problem simplification: unit propagation and pure-literal assignment
//! (Listing 4, lines 6–11).
//!
//! One kernel: a search keeps each sub-problem's residual as counters
//! over the formula it started from, as given, and runs the propagation
//! loop on them against that formula's occurrence lists, writing no
//! formula. The mesh's [`DpllProgram`](crate::DpllProgram) copies a
//! parent's counters into each child it ships; the sequential
//! [`dpll`](crate::dpll) solver into each decision level of its stack.

use crate::cnf::{Assignment, Cnf, Lit, Var};

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

/// Literals forced by lines 6–11, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SimplifyStats {
    /// Variables forced by unit clauses.
    pub(crate) unit_props: u64,
    /// Variables fixed by pure-literal elimination.
    pub(crate) pure_assigns: u64,
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

/// The clauses each literal of a formula occurs in, ascending, once per
/// occurrence, in one buffer: `2n + 1` offsets, then the lists. Literal
/// `l`'s list runs from offset `l` to offset `l + 1`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Occurrences {
    lists: Vec<u32>,
}

impl Occurrences {
    /// The lists of `cnf`, whose literal occurrence counts are `counts`.
    pub(crate) fn new(cnf: &Cnf, counts: &[u32]) -> Occurrences {
        let total: u32 = counts.iter().sum();
        let mut lists = Vec::with_capacity(counts.len() + 1 + total as usize);
        // Offset `l + 1` starts where literal `l`'s list starts and is the
        // cursor that fills it, so it arrives where the list ends.
        let mut start = counts.len() as u32 + 1;
        lists.push(start);
        for &count in counts {
            lists.push(start);
            start += count;
        }
        lists.resize(start as usize, 0);
        for (i, clause) in cnf.clauses().enumerate() {
            for lit in clause {
                let cursor = lit.index() + 1;
                let at = lists[cursor] as usize;
                lists[at] = i as u32;
                lists[cursor] += 1;
            }
        }
        Occurrences { lists }
    }

    /// The clauses `lit` occurs in, live or not.
    pub(crate) fn of(&self, lit: Lit) -> &[u32] {
        let i = lit.index();
        &self.lists[self.lists[i] as usize..self.lists[i + 1] as usize]
    }
}

/// The residual of a search's root formula under the literals forced so
/// far, kept as counters over that untouched formula and its
/// [`Occurrences`]: a propagating sub-problem's, which a split copies
/// into each child.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Residual {
    /// Three tables in one buffer, so that a child's copy is one copy into
    /// a buffer a finished sub-problem left behind:
    /// - `[..clauses_at]`, the live occurrences of each literal, indexed
    ///   by [`Lit::index`] (both counts of an assigned variable are zero);
    /// - `[clauses_at..vars_at]`, the occurrences not yet falsified in each
    ///   clause, [`SATISFIED`] once the clause has left the formula.
    ///   Occurrences, not distinct literals: `x ∨ x` counts two and is not
    ///   a unit;
    /// - `[vars_at..]`, whether this residual forced each variable:
    ///   [`FREE`] or [`FORCED`] (the value goes to the caller's
    ///   [`Assignment`], which is not consulted).
    state: Vec<u32>,
    clauses_at: usize,
    vars_at: usize,
    /// Clauses not yet satisfied.
    live: u32,
}

impl Clone for Residual {
    fn clone(&self) -> Residual {
        Residual {
            state: self.state.clone(),
            ..*self
        }
    }

    /// Overwrites these counters in their own buffer.
    fn clone_from(&mut self, source: &Residual) {
        self.state.clone_from(&source.state);
        (self.clauses_at, self.vars_at, self.live) =
            (source.clauses_at, source.vars_at, source.live);
    }
}

/// Whether a residual forced a variable: no, or yes.
const FREE: u32 = 0;
const FORCED: u32 = 1;

/// The remaining count of a clause some forced literal satisfied.
const SATISFIED: u32 = u32::MAX;

impl Residual {
    /// Counters for `cnf`, nothing forced yet: its
    /// [`occurrence_counts`](crate::heuristics::occurrence_counts)
    /// and clause lengths, written into one allocation of the final size.
    pub(crate) fn new(cnf: &Cnf) -> Residual {
        let num_vars = cnf.num_vars() as usize;
        let clauses_at = num_vars * 2;
        let vars_at = clauses_at + cnf.num_clauses();
        let mut state = Vec::with_capacity(vars_at + num_vars);
        state.resize(clauses_at, 0);
        for lit in cnf.iter_lits() {
            state[lit.index()] += 1;
        }
        state.extend(cnf.clause_lens());
        state.resize(vars_at + num_vars, FREE);
        Residual {
            state,
            clauses_at,
            vars_at,
            live: cnf.num_clauses() as u32,
        }
    }

    /// Counters of no formula, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.state.clear();
        (self.clauses_at, self.vars_at, self.live) = (0, 0, 0);
    }

    /// Clauses not yet satisfied: the residual's clause count.
    pub(crate) fn live(&self) -> u32 {
        self.live
    }

    /// Live occurrences of each literal, indexed by [`Lit::index`]: the
    /// residual's [`occurrence_counts`](crate::heuristics::occurrence_counts).
    pub(crate) fn live_counts(&self) -> &[u32] {
        &self.state[..self.clauses_at]
    }

    /// Occurrences of each clause not yet falsified, or [`SATISFIED`].
    fn remaining(&self) -> &[u32] {
        &self.state[self.clauses_at..self.vars_at]
    }

    /// Whether `lit`'s variable is still unassigned: in a clause that is
    /// still in the formula, whether that occurrence is.
    fn is_free(&self, lit: Lit) -> bool {
        self.state[self.vars_at + lit.var().0 as usize] == FREE
    }

    /// The residual formula's clauses, in order, over `cnf` (the formula
    /// these counters are over): each clause still in the formula as its
    /// length and its free literals.
    pub(crate) fn clauses<'a>(
        &'a self,
        cnf: &'a Cnf,
    ) -> impl Iterator<Item = (usize, impl Iterator<Item = Lit> + 'a)> + 'a {
        let live = self.remaining().iter().enumerate();
        live.filter(|&(_, &left)| left != SATISFIED)
            .map(move |(i, &left)| {
                let free = cnf
                    .clause(i)
                    .iter()
                    .copied()
                    .filter(|&lit| self.is_free(lit));
                (left as usize, free)
            })
    }

    /// The first clause from `from` on that is still in the formula, or
    /// the clause count if none is.
    pub(crate) fn first_live(&self, from: usize) -> usize {
        let remaining = &self.remaining()[from..];
        let live = remaining.iter().position(|&left| left != SATISFIED);
        from + live.unwrap_or(remaining.len())
    }

    /// Listing 4 lines 6–11 from the current counters, recording each
    /// literal forced in `assignment`. Returns whether a clause lost its
    /// last occurrence, which ends the propagation where it stands.
    pub(crate) fn propagate(
        &mut self,
        occurrences: &Occurrences,
        cnf: &Cnf,
        mode: SimplifyMode,
        assignment: &mut Assignment,
        stats: &mut SimplifyStats,
    ) -> bool {
        // Unit propagation (lines 6–8): drain every unit clause reachable
        // from the current formula, lowest clause first.
        while let Some(unit) = self.first_unit(cnf) {
            stats.unit_props += 1;
            assignment.assign(unit.var(), unit.demanded_value());
            if self.force(occurrences, cnf, unit) {
                return true;
            }
        }
        // Pure-literal assignment (lines 9–11): a variable occurring with
        // a single polarity can be fixed to satisfy all its clauses. Fixing
        // one only removes clauses, so no unit and no conflict can follow.
        while let Some(pure) = lowest_pure_literal(self.live_counts()) {
            stats.pure_assigns += 1;
            assignment.assign(pure.var(), pure.demanded_value());
            self.force(occurrences, cnf, pure);
            if mode == SimplifyMode::SinglePass {
                break;
            }
        }
        false
    }

    /// The literal of the first unit clause, if any (Listing 4 line 7).
    fn first_unit(&self, cnf: &Cnf) -> Option<Lit> {
        let i = self.remaining().iter().position(|&left| left == 1)?;
        let unit = cnf.clause(i).iter().find(|&&lit| self.is_free(lit));
        Some(*unit.expect("a clause with an occurrence left shows it"))
    }

    /// Applies `lit` to every clause it occurs in: a clause showing it
    /// leaves the formula and gives its live occurrences back to the
    /// counts, a clause showing its negation loses that occurrence.
    /// Returns whether some clause lost its last one.
    pub(crate) fn force(&mut self, occurrences: &Occurrences, cnf: &Cnf, lit: Lit) -> bool {
        let var = lit.var().0 as usize;
        debug_assert!(self.is_free(lit));
        for &i in occurrences.of(lit) {
            let i = i as usize;
            let left = &mut self.state[self.clauses_at + i];
            if std::mem::replace(left, SATISFIED) == SATISFIED {
                continue;
            }
            self.live -= 1;
            for &other in cnf.clause(i) {
                // `var` itself is not marked yet: `x ∨ ¬x` returns both.
                if self.is_free(other) {
                    self.state[other.index()] -= 1;
                }
            }
        }
        let mut conflict = false;
        let negated = lit.negated();
        for &i in occurrences.of(negated) {
            let left = &mut self.state[self.clauses_at + i as usize];
            if *left != SATISFIED {
                *left -= 1;
                conflict |= *left == 0;
                self.state[negated.index()] -= 1;
            }
        }
        self.state[self.vars_at + var] = FORCED;
        debug_assert_eq!(self.live_counts()[var * 2..var * 2 + 2], [0, 0]);
        conflict
    }
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
    use crate::heuristics::occurrence_counts;

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

    fn tables(f: &Cnf) -> (Occurrences, Residual) {
        let residual = Residual::new(f);
        (Occurrences::new(f, residual.live_counts()), residual)
    }

    /// The residual formula `residual` stands for over `f`, written out.
    fn written(residual: &Residual, f: &Cnf) -> Cnf {
        let clauses = residual.clauses(f).map(|(_, free)| free.collect());
        Cnf::new(f.num_vars(), clauses.collect())
    }

    /// Lines 6–11 under `mode` on fresh counters over `f`: the outcome,
    /// the literals forced, the residual and the assignment.
    fn simplified(f: &Cnf, mode: SimplifyMode) -> (Simplified, SimplifyStats, Cnf, Assignment) {
        let (occurrences, mut residual) = tables(f);
        let (mut a, mut stats) = (Assignment::new(f.num_vars()), SimplifyStats::default());
        let outcome = if residual.propagate(&occurrences, f, mode, &mut a, &mut stats) {
            Simplified::Unsat
        } else if residual.live() == 0 {
            Simplified::Sat
        } else {
            Simplified::Undecided
        };
        (outcome, stats, written(&residual, f), a)
    }

    #[test]
    fn unit_propagation_chain() {
        // x1 & (!x1 | x2) & (!x2 | x3): pure unit chain to SAT.
        let f = cnf(&[&[1], &[-1, 2], &[-2, 3]], 3);
        let (out, stats, _, a) = simplified(&f, SimplifyMode::Fixpoint);
        assert_eq!(out, Simplified::Sat);
        assert!(stats.unit_props >= 1);
        assert!(check_model(&f, &a.complete()));
    }

    #[test]
    fn unit_conflict_detected() {
        let f = cnf(&[&[1], &[-1]], 1);
        let (out, ..) = simplified(&f, SimplifyMode::Fixpoint);
        assert_eq!(out, Simplified::Unsat);
    }

    #[test]
    fn pure_literal_eliminates() {
        // x1 occurs only positively: fixing it satisfies both clauses.
        let f = cnf(&[&[1, 2], &[1, -2]], 2);
        let (out, stats, _, a) = simplified(&f, SimplifyMode::Fixpoint);
        assert_eq!(out, Simplified::Sat);
        assert!(stats.pure_assigns >= 1);
        assert_eq!(a.value(Var(0)), Some(true));
    }

    #[test]
    fn undecided_when_branching_needed() {
        // 2-SAT with both polarities everywhere and no units.
        let f = cnf(&[&[1, 2], &[-1, -2], &[1, -2], &[-1, 2]], 2);
        let (out, stats, residual, _) = simplified(&f, SimplifyMode::Fixpoint);
        assert_eq!(out, Simplified::Undecided);
        assert_eq!(stats, SimplifyStats::default());
        assert_eq!(residual, f);
    }

    #[test]
    fn forcing_a_literal_drops_satisfied_clauses_and_falsified_occurrences() {
        // A duplicate literal, `¬x` twice in one clause, `x ∨ ¬x`, and a
        // clause the assignment empties.
        let f = cnf(&[&[1, 2, 1], &[-1, 3, -1], &[-1], &[2, 3], &[1, -1, 2]], 3);
        let expected = [
            (true, cnf(&[&[3], &[], &[2, 3]], 3)),
            (false, cnf(&[&[2], &[2, 3]], 3)),
        ];
        for (value, expected) in expected {
            let (occurrences, mut residual) = tables(&f);
            let conflict = residual.force(&occurrences, &f, Lit::with_polarity(Var(0), value));
            let after = written(&residual, &f);
            assert_eq!(after, expected);
            assert_eq!(conflict, after.has_empty_clause());
            assert_eq!(conflict, value);
            assert_eq!(residual.live_counts(), occurrence_counts(&after));
            assert_eq!(residual.live as usize, after.num_clauses());
            assert!(residual.clauses(&f).all(|(len, free)| len == free.count()));
        }
    }

    #[test]
    fn repeated_occurrences_count_one_by_one() {
        // `x ∨ x` is not a unit; falsifying `x` empties it in one step.
        let f = cnf(&[&[1, 1], &[-1, -1, 2], &[-2, -2]], 2);
        let (out, stats, ..) = simplified(&f, SimplifyMode::Fixpoint);
        assert_eq!((out, stats.unit_props), (Simplified::Undecided, 0));
        let (occurrences, mut residual) = tables(&f);
        assert_eq!(residual.first_unit(&f), None);
        assert!(residual.force(&occurrences, &f, lit(-1)));
        // `¬x ∨ ¬x ∨ y` becomes the unit `y` when `x` holds.
        let (occurrences, mut residual) = tables(&f);
        assert!(!residual.force(&occurrences, &f, lit(1)));
        assert_eq!(residual.first_unit(&f), Some(lit(2)));
    }

    #[test]
    fn a_single_pass_child_assigns_exactly_one_of_two_pure_literals() {
        use crate::heuristics::Heuristic;
        use crate::program::{DpllProgram, SubProblem};
        use hyperspace_recursion::{RecProgram, Step};

        // Nothing to force at the root. Branching on x1 (the first
        // literal) leaves x2 and x3 pure in both children, and x4, x5 in
        // both polarities.
        let parent = cnf(
            &[
                &[1, 2, 4],
                &[-1, -2, 4],
                &[1, 3, 5],
                &[-1, -3, 5],
                &[-4, -5],
            ],
            5,
        );
        let program =
            DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SinglePass);
        let Step::Spawn(spawn) = program.start(SubProblem::root(parent)) else {
            panic!("the root splits");
        };
        assert_eq!(spawn.calls.len(), 2);
        // Each child: three clauses left once x1 takes its value, then x2
        // fixed to close the one it occurs in.
        let expected = [
            (lit(1), cnf(&[&[-3, 5], &[-4, -5]], 5), lit(-2)),
            (lit(-1), cnf(&[&[3, 5], &[-4, -5]], 5), lit(2)),
        ];
        for (child, (branch, residual, pure)) in spawn.calls.iter().zip(expected) {
            let mut a = Assignment::new(5);
            a.assign(branch.var(), branch.demanded_value());
            a.assign(pure.var(), pure.demanded_value());
            let got = (
                child.residual().into_owned(),
                &child.assign,
                program.weight(child),
            );
            assert_eq!(got, (residual, &a, 3), "{branch:?}");
        }
    }

    #[test]
    fn single_pass_fixes_exactly_one_pure_literal() {
        // Unit chain x1, x2 to fixpoint, then x3 alone of the pure x3, x4.
        let f = cnf(&[&[1], &[-1, 2], &[3, 5, -6], &[4, -5, 6]], 6);
        let (out, stats, residual, a) = simplified(&f, SimplifyMode::SinglePass);
        assert_eq!(out, Simplified::Undecided);
        assert_eq!((stats.unit_props, stats.pure_assigns), (2, 1));
        assert_eq!(residual, cnf(&[&[4, -5, 6]], 6));
        assert_eq!(a.value(Var(2)), Some(true));
        assert_eq!(a.value(Var(3)), None);
    }
}
