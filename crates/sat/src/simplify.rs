//! Problem simplification: unit propagation and pure-literal assignment
//! (Listing 4, lines 6–11).
//!
//! One kernel: a search keeps each sub-problem's residual as counters
//! over the formula it started from, as given, and runs the propagation
//! loop on them against that formula's occurrence lists, writing no
//! formula. The mesh's [`DpllProgram`](crate::DpllProgram) copies a
//! parent's counters into each child it ships; the sequential
//! [`dpll`](crate::dpll) solver into each decision level of its stack.
//!
//! A literal's count is its occurrences in the clauses still open,
//! whatever its variable's state, and forcing a literal *parks* its
//! negation's count: it takes a fixed offset far larger than any
//! formula's occurrences off it. Closing a clause then takes every one
//! of its occurrences off the counts without asking which are still
//! free; a false literal's count stays below zero, a true one's reads 0,
//! and every reader takes a count of zero or less as no live occurrence.

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
    pub(crate) fn new(cnf: &Cnf, counts: &[i32]) -> Occurrences {
        let mut lists = Vec::with_capacity(counts.len() + 1 + cnf.num_lits());
        // Offset `l + 1` starts where literal `l`'s list starts and is the
        // cursor that fills it, so it arrives where the list ends.
        let mut start = counts.len() as u32 + 1;
        lists.push(start);
        for &count in counts {
            lists.push(start);
            start += count as u32;
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
///
/// The counters are a function of the root formula and the literals
/// forced, not of the order they were forced in, so two residuals over
/// one root and one assignment compare equal.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Residual {
    /// Two tables in one buffer, so that a child's copy is one copy into
    /// a buffer a finished sub-problem left behind:
    /// - `[..clauses_at]`, each literal's count, indexed by
    ///   [`Lit::index`]: its occurrences in the clauses still in the
    ///   formula, whatever its variable's state, less [`PARK`] once the
    ///   literal is false. A free literal's count is its live
    ///   occurrences, a true one's is 0 (every clause showing it has
    ///   left), a false one's is below zero: whether a variable is forced
    ///   reads off its two counts, and its value goes to the caller's
    ///   [`Assignment`], which is not consulted;
    /// - `[clauses_at..]`, the occurrences not yet falsified in each
    ///   clause, [`SATISFIED`] once the clause has left the formula.
    ///   Occurrences, not distinct literals: `x ∨ x` counts two and is not
    ///   a unit.
    state: Vec<i32>,
    clauses_at: usize,
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
        (self.clauses_at, self.live) = (source.clauses_at, source.live);
    }
}

/// What forcing a literal takes off its negation's count: more than any
/// formula's occurrences (which [`Residual::new`] asserts), so a false
/// literal's count stays below zero while the clauses that close later
/// take their occurrences off it, as off every other literal's.
const PARK: i32 = 1 << 30;

/// The remaining count of a clause some forced literal satisfied.
const SATISFIED: i32 = i32::MAX;

impl Residual {
    /// Counters for `cnf`, nothing forced yet: its
    /// [`occurrence_counts`](crate::heuristics::occurrence_counts)
    /// and clause lengths, written into one allocation of the final size.
    ///
    /// # Panics
    ///
    /// If `cnf` has [`PARK`] literal occurrences or more.
    pub(crate) fn new(cnf: &Cnf) -> Residual {
        assert!(
            cnf.num_lits() < PARK as usize,
            "{} literal occurrences leave a false literal's count no room below zero",
            cnf.num_lits()
        );
        let clauses_at = cnf.num_vars() as usize * 2;
        let mut state = Vec::with_capacity(clauses_at + cnf.num_clauses());
        state.resize(clauses_at, 0);
        for lit in cnf.iter_lits() {
            state[lit.index()] += 1;
        }
        state.extend(cnf.clause_lens().map(|len| len as i32));
        Residual {
            state,
            clauses_at,
            live: cnf.num_clauses() as u32,
        }
    }

    /// Counters of no formula, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.state.clear();
        (self.clauses_at, self.live) = (0, 0);
    }

    /// Clauses not yet satisfied: the residual's clause count.
    pub(crate) fn live(&self) -> u32 {
        self.live
    }

    /// Each literal's count, indexed by [`Lit::index`]: a free literal's
    /// live occurrences, 0 for a true literal, below zero for a false one.
    /// Read with positive meaning "occurs", it is the residual's
    /// [`occurrence_counts`](crate::heuristics::occurrence_counts).
    pub(crate) fn live_counts(&self) -> &[i32] {
        &self.state[..self.clauses_at]
    }

    /// Occurrences of each clause not yet falsified, or [`SATISFIED`].
    fn remaining(&self) -> &[i32] {
        &self.state[self.clauses_at..]
    }

    /// Whether `lit`, shown by a clause still in the formula, is free: a
    /// free literal counts that clause, a false one is below zero.
    fn is_free(&self, lit: Lit) -> bool {
        self.state[lit.index()] > 0
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

    /// Applies `lit`, whose variable is free, to every clause it occurs
    /// in: a clause showing it leaves the formula and takes each of its
    /// occurrences off its literal's count, free or not, and a clause
    /// showing its negation loses that occurrence. Parks the negation's
    /// count below zero. Returns whether some clause lost its last
    /// occurrence.
    pub(crate) fn force(&mut self, occurrences: &Occurrences, cnf: &Cnf, lit: Lit) -> bool {
        let negated = lit.negated();
        let (counts, remaining) = self.state.split_at_mut(self.clauses_at);
        debug_assert!(counts[lit.index()] >= 0 && counts[negated.index()] >= 0);
        let mut closed = 0;
        for &i in occurrences.of(lit) {
            let i = i as usize;
            if std::mem::replace(&mut remaining[i], SATISFIED) == SATISFIED {
                continue;
            }
            closed += 1;
            // `x ∨ ¬x` takes its `¬x` off before the count is parked.
            for &other in cnf.clause(i) {
                counts[other.index()] -= 1;
            }
        }
        self.live -= closed;
        counts[negated.index()] -= PARK;
        let mut conflict = false;
        for &i in occurrences.of(negated) {
            let left = &mut remaining[i as usize];
            if *left != SATISFIED {
                *left -= 1;
                conflict |= *left == 0;
            }
        }
        debug_assert_eq!(
            (counts[lit.index()], counts[negated.index()]),
            (0, {
                let open = occurrences.of(negated).iter();
                open.filter(|&&i| remaining[i as usize] != SATISFIED)
                    .count() as i32
                    - PARK
            }),
            "a true literal counts nothing, a false one its open occurrences less PARK"
        );
        conflict
    }
}

/// The pure literal of the lowest-numbered variable in a table of
/// per-literal counts (indexed by [`Lit::index`]), where a count of zero
/// or less is no live occurrence: a forced variable's two are 0 and
/// below zero.
fn lowest_pure_literal(counts: &[i32]) -> Option<Lit> {
    let var = counts
        .chunks_exact(2)
        .position(|c| (c[0] > 0) != (c[1] > 0))?;
    Some(Lit::with_polarity(Var(var as u32), counts[var * 2] > 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::check_model;
    use crate::heuristics::occurrence_counts;
    use proptest::prelude::*;

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
            // A free literal counts its occurrences in the written
            // residual; the forced variable's true literal counts none and
            // its false one is parked below zero.
            let forced = Lit::with_polarity(Var(0), value);
            let (counts, written_counts) = (residual.live_counts(), occurrence_counts(&after));
            assert_eq!(counts[2..], written_counts[2..]);
            assert_eq!(counts[forced.index()], 0);
            assert!(counts[forced.negated().index()] < 0);
            assert_eq!(residual.live as usize, after.num_clauses());
            assert!(residual.clauses(&f).all(|(len, free)| len == free.count()));
        }
    }

    /// Formulas over 1–8 variables whose clauses draw from a few
    /// literals, so duplicated literals, `x ∨ ¬x` and empty clauses come
    /// often.
    fn arb_cnf() -> impl Strategy<Value = Cnf> {
        let clause = proptest::collection::vec((0u32..8, any::<bool>()), 0..6);
        (1u32..9, proptest::collection::vec(clause, 0..14)).prop_map(|(vars, raw)| {
            let clauses = raw.into_iter().map(|lits| {
                let lits = lits.into_iter();
                lits.map(|(v, pos)| Lit::with_polarity(Var(v % vars), pos))
                    .collect()
            });
            Cnf::new(vars, clauses.collect())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Forcing distinct variables one by one, in an order and with
        /// polarities drawn per variable, conflicts or not: after each
        /// force the counts read as the written residual, and the same
        /// literals forced in a second order leave equal counters.
        #[test]
        fn parked_counts_read_as_the_written_residual(
            f in arb_cnf(),
            draws in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 8..9),
            take in 0usize..9,
        ) {
            let draws = &draws[..f.num_vars() as usize];
            let mut lits: Vec<(u32, Lit)> = draws
                .iter()
                .enumerate()
                .map(|(v, &(key, _, pos))| (key, Lit::with_polarity(Var(v as u32), pos)))
                .collect();
            lits.sort_unstable();
            lits.truncate(take);
            let (occurrences, mut residual) = tables(&f);
            for (step, &(_, lit)) in lits.iter().enumerate() {
                residual.force(&occurrences, &f, lit);
                let after = written(&residual, &f);
                let forced = |var: Var| lits[..=step].iter().any(|&(_, l)| l.var() == var);
                let written_counts = occurrence_counts(&after);
                for (i, (&count, &occurs)) in residual.live_counts().iter().zip(&written_counts).enumerate() {
                    if forced(Var(i as u32 / 2)) {
                        prop_assert!(count <= 0, "{f:?}, {:?}: literal {i} counts {count}", &lits[..=step]);
                    } else {
                        prop_assert_eq!(count, occurs, "{:?}, {:?}: literal {}", f, &lits[..=step], i);
                    }
                }
                prop_assert_eq!(residual.live() as usize, after.num_clauses());
            }
            let mut reordered: Vec<(u32, Lit)> = lits
                .iter()
                .map(|&(_, lit)| (draws[lit.var().0 as usize].1, lit))
                .collect();
            reordered.sort_unstable();
            let mut again = Residual::new(&f);
            for &(_, lit) in &reordered {
                again.force(&occurrences, &f, lit);
            }
            prop_assert_eq!(again, residual, "{:?}: {:?} then {:?}", f, lits, reordered);
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
