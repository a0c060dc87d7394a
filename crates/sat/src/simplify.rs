//! Problem simplification: unit propagation and pure-literal assignment
//! (Listing 4, lines 6–11).
//!
//! One kernel: a search keeps each sub-problem's residual as counters
//! over the formula it started from, as given, and runs the propagation
//! loop on them against that formula's occurrence lists, writing no
//! formula. A mesh [`DpllProgram`](crate::DpllProgram) child copies or
//! takes its parent's counters as it starts; the sequential
//! [`dpll`](crate::dpll) solver copies them into each decision level.
//!
//! A literal's count is its occurrences in the clauses still open,
//! whatever its variable's state, and forcing a literal *parks* its
//! negation's count: it takes a fixed offset far larger than any
//! formula's occurrences off it. Closing a clause then takes every one
//! of its occurrences off the counts without asking which are still
//! free; a false literal's count stays below zero, a true one's reads 0,
//! and every reader takes a count of zero or less as no live occurrence.
//! So the counters are the assignment too: a variable is false when its
//! positive literal's count is below zero, true when its negative one's
//! is, and free otherwise.
//!
//! Unit propagation scans the clause counts for the first unit, but not
//! from clause 0 each time: forcing a literal takes an occurrence off
//! only the clauses showing its negation, whose list is ascending, so
//! `Residual::force` reports the lowest clause it took down to one
//! occurrence, and `Residual::propagate` takes a `from` clause before
//! which no clause is a unit. The scan resumes at the lower of the
//! report and the clause after the unit just forced; a child of a split
//! passes its branch force's report, since its parent's counters are at
//! fixpoint, and only a root scans from clause 0.

use std::cell::RefCell;
use std::sync::Arc;

use crate::cnf::{Assignment, Cnf, Lit, Model, Var};

/// Outcome of simplifying a sub-problem to fixpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Simplified {
    /// Every clause satisfied; the assignment the counters hold (completed
    /// with `false` for free variables) is a model.
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
/// [`Occurrences`]: a sub-problem's, which its children share until each
/// writes its own, and its assignment, which reads off the parked counts.
///
/// The counters are a function of the root formula and the literals
/// forced, not of the order they were forced in, so two residuals over
/// one root and one assignment compare equal.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Residual {
    /// Two tables in one buffer, which clones share until one writes:
    /// - `[..clauses_at]`, each literal's count, indexed by
    ///   [`Lit::index`]: its occurrences in the clauses still in the
    ///   formula, whatever its variable's state, less [`PARK`] once the
    ///   literal is false. A free literal's count is its live
    ///   occurrences, a true one's is 0 (every clause showing it has
    ///   left), a false one's is below zero: a variable's value reads off
    ///   its two counts ([`Residual::value`]), and no other record of the
    ///   assignment is kept;
    /// - `[clauses_at..]`, the occurrences not yet falsified in each
    ///   clause, [`SATISFIED`] once the clause has left the formula.
    ///   Occurrences, not distinct literals: `x ∨ x` counts two and is not
    ///   a unit.
    state: Arc<[i32]>,
    clauses_at: usize,
    /// Clauses not yet satisfied.
    live: u32,
}

impl Clone for Residual {
    /// Shares the buffer: the first write of either holder copies it.
    fn clone(&self) -> Residual {
        Residual {
            state: Arc::clone(&self.state),
            ..*self
        }
    }

    /// Overwrites these counters in their own buffer (see [`copy_into`]).
    fn clone_from(&mut self, source: &Residual) {
        copy_into(&mut self.state, &source.state);
        (self.clauses_at, self.live) = (source.clauses_at, source.live);
    }
}

/// Writes `source` into `target`'s buffer, or into a new one if another
/// holder shares it or it does not fit.
fn copy_into(target: &mut Arc<[i32]>, source: &[i32]) {
    match Arc::get_mut(target) {
        Some(own) if own.len() == source.len() => own.copy_from_slice(source),
        _ => *target = Arc::from(source),
    }
}

/// How many sub-problem bodies, and how many buffers, a thread's free
/// lists keep: a thread may drop more than it takes.
pub(crate) const FREE_LIST: usize = 64;

thread_local! {
    /// Buffers no one else holds: finished sub-problems' counters.
    static BUFFERS: RefCell<Vec<Arc<[i32]>>> = const { RefCell::new(Vec::new()) };
}

/// `state`, to write: first copied into a buffer off this thread's free
/// list if another holder shares it (no `Weak` is ever made).
fn owned(state: &mut Arc<[i32]>) -> &mut [i32] {
    if Arc::strong_count(state) != 1 {
        let mut own = BUFFERS
            .with(|free| free.borrow_mut().pop())
            .unwrap_or_default();
        copy_into(&mut own, state);
        *state = own;
    }
    Arc::get_mut(state).expect("a buffer just copied is its holder's own")
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
        let lens = cnf.clause_lens().map(|len| len as i32);
        let mut state = std::iter::repeat_n(0, clauses_at).chain(lens).collect();
        let counts = &mut owned(&mut state)[..clauses_at];
        for lit in cnf.iter_lits() {
            counts[lit.index()] += 1;
        }
        Residual {
            state,
            clauses_at,
            live: cnf.num_clauses() as u32,
        }
    }

    /// Drops these counters, returning their buffer to this thread's free
    /// list if no one else holds it and the list has room.
    pub(crate) fn release(self) {
        if Arc::strong_count(&self.state) == 1 {
            let _ = BUFFERS.try_with(|free| {
                let mut free = free.borrow_mut();
                if free.len() < FREE_LIST {
                    free.push(self.state);
                }
            });
        }
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
    pub(crate) fn is_free(&self, lit: Lit) -> bool {
        self.state[lit.index()] > 0
    }

    /// The value forced on `var`: false if its positive literal's count is
    /// parked below zero, true if its negative one's is, none if neither.
    pub(crate) fn value(&self, var: Var) -> Option<bool> {
        let counts = &self.state[var.0 as usize * 2..][..2];
        match (counts[0] < 0, counts[1] < 0) {
            (true, _) => Some(false),
            (_, true) => Some(true),
            _ => None,
        }
    }

    /// The variables of the formula these counters are over.
    fn vars(&self) -> impl Iterator<Item = Var> {
        (0..self.clauses_at as u32 / 2).map(Var)
    }

    /// The assignment the counts hold: every literal forced so far.
    pub(crate) fn assignment(&self) -> Assignment {
        let mut assignment = Assignment::new(self.clauses_at as u32 / 2);
        for var in self.vars() {
            if let Some(value) = self.value(var) {
                assignment.assign(var, value);
            }
        }
        assignment
    }

    /// The assignment completed with `false` for free variables: a model
    /// once no clause is left.
    pub(crate) fn model(&self) -> Model {
        self.vars()
            .map(|var| self.value(var) == Some(true))
            .collect()
    }

    /// The residual formula's clauses, in order, over `cnf` (the formula
    /// these counters are over): each clause still in the formula as its
    /// length and its free literals.
    pub(crate) fn clauses<'a>(
        &'a self,
        cnf: &'a Cnf,
    ) -> impl Iterator<Item = (usize, impl Iterator<Item = Lit> + 'a)> + Clone + 'a {
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

    /// The clauses forcing `lit` would close, read without writing: the
    /// open ones it occurs in, each once. Its list is ascending, so a
    /// clause's repeats of `lit` are adjacent.
    pub(crate) fn closed_by(&self, occurrences: &Occurrences, lit: Lit) -> u32 {
        let clauses = occurrences.of(lit).chunk_by(|a, b| a == b);
        let open = clauses.filter(|run| self.remaining()[run[0] as usize] != SATISFIED);
        open.count() as u32
    }

    /// Listing 4 lines 6–11 from the current counters, as `mode` runs
    /// them: none under `SplitOnly`. Returns whether a clause lost its
    /// last occurrence, which ends the propagation where it stands.
    ///
    /// No clause before `from` is a unit (a `debug_assert` checks it):
    /// 0 on fresh counters, and after a force on counters at fixpoint the
    /// force's [`Forced::unit_from`], so the unit scan starts where the
    /// force can have made one.
    pub(crate) fn propagate(
        &mut self,
        occurrences: &Occurrences,
        cnf: &Cnf,
        mode: SimplifyMode,
        mut from: usize,
        stats: &mut SimplifyStats,
    ) -> bool {
        if mode == SimplifyMode::SplitOnly {
            return false;
        }
        // Unit propagation (lines 6–8): drain every unit clause reachable
        // from the current formula, lowest clause first. Forcing clause
        // `i`'s unit closes `i` and makes units only from its report on,
        // so the scan resumes at the lower of the two.
        while let Some((i, unit)) = self.first_unit(cnf, from) {
            stats.unit_props += 1;
            let forced = self.force(occurrences, cnf, unit);
            if forced.conflict {
                return true;
            }
            from = forced.unit_from.min(i + 1);
        }
        // Pure-literal assignment (lines 9–11): a variable occurring with
        // a single polarity can be fixed to satisfy all its clauses. Fixing
        // one only removes clauses, so no unit and no conflict can follow.
        while let Some(pure) = lowest_pure_literal(self.live_counts()) {
            stats.pure_assigns += 1;
            self.force(occurrences, cnf, pure);
            if mode == SimplifyMode::SinglePass {
                break;
            }
        }
        false
    }

    /// The first unit clause from `from` on, none being before it, and its
    /// literal (Listing 4 line 7).
    fn first_unit(&self, cnf: &Cnf, from: usize) -> Option<(usize, Lit)> {
        let remaining = self.remaining();
        debug_assert!(
            !remaining[..from].contains(&1),
            "a unit clause before clause {from}, where the scan starts"
        );
        let i = from + remaining[from..].iter().position(|&left| left == 1)?;
        let unit = cnf.clause(i).iter().find(|&&lit| self.is_free(lit));
        Some((i, *unit.expect("a clause with an occurrence left shows it")))
    }

    /// Applies `lit`, whose variable is free, to every clause it occurs
    /// in: a clause showing it leaves the formula and takes each of its
    /// occurrences off its literal's count, free or not, and a clause
    /// showing its negation loses that occurrence. Parks the negation's
    /// count below zero. Reports whether some clause lost its last
    /// occurrence, and the lowest clause this took down to one: only the
    /// negation's clauses lose an occurrence, so if no clause was a unit
    /// before the force, none before the reported one is after it.
    pub(crate) fn force(&mut self, occurrences: &Occurrences, cnf: &Cnf, lit: Lit) -> Forced {
        let negated = lit.negated();
        let (counts, remaining) = owned(&mut self.state).split_at_mut(self.clauses_at);
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
        let mut forced = Forced {
            conflict: false,
            unit_from: remaining.len(),
        };
        // The list is ascending and walked from its top, so the last
        // clause taken down to one is the lowest: a conditional move per
        // clause, no branch to mispredict.
        for &i in occurrences.of(negated).iter().rev() {
            let left = &mut remaining[i as usize];
            if *left != SATISFIED {
                *left -= 1;
                forced.conflict |= *left == 0;
                if *left == 1 {
                    forced.unit_from = i as usize;
                }
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
        forced
    }
}

/// What [`Residual::force`] did to the clauses showing the forced
/// literal's negation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Forced {
    /// Some clause lost its last occurrence.
    pub(crate) conflict: bool,
    /// The lowest clause the force took down to one occurrence, or the
    /// clause count if it took none: where [`Residual::propagate`]'s unit
    /// scan starts after this force on counters at fixpoint.
    pub(crate) unit_from: usize,
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

    impl Residual {
        /// Where the buffer is, to tell a copy from a shared one.
        pub(crate) fn buffer(&self) -> *const i32 {
            self.state.as_ptr()
        }
    }

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
        let mut stats = SimplifyStats::default();
        let outcome = if residual.propagate(&occurrences, f, mode, 0, &mut stats) {
            Simplified::Unsat
        } else if residual.live() == 0 {
            Simplified::Sat
        } else {
            Simplified::Undecided
        };
        (outcome, stats, written(&residual, f), residual.assignment())
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
            let conflict = residual
                .force(&occurrences, &f, Lit::with_polarity(Var(0), value))
                .conflict;
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

    /// `f` under `assign`, written the naive way: the clauses no literal
    /// of `assign` satisfies, each without the literals it falsifies.
    fn naive_written(f: &Cnf, assign: &Assignment) -> Cnf {
        let holds = |lit: Lit| assign.value(lit.var()) == Some(lit.demanded_value());
        let open = f
            .clauses()
            .filter(|clause| !clause.iter().any(|&lit| holds(lit)));
        let clauses = open.map(|clause| {
            let free = clause.iter().copied();
            free.filter(|lit| assign.value(lit.var()).is_none())
                .collect()
        });
        Cnf::new(f.num_vars(), clauses.collect())
    }

    /// Lines 6–11 under `mode` on `f` under `assign`, rewriting the
    /// formula after every literal: records each literal forced in
    /// `assign` and returns whether a clause emptied.
    fn naive_propagate(f: &Cnf, assign: &mut Assignment, mode: SimplifyMode) -> bool {
        if mode == SimplifyMode::SplitOnly {
            return false;
        }
        loop {
            let residual = naive_written(f, assign);
            if residual.has_empty_clause() {
                return true;
            }
            let Some(unit) = residual.clauses().find(|clause| clause.len() == 1) else {
                break;
            };
            assign.assign(unit[0].var(), unit[0].demanded_value());
        }
        while let Some(pure) = lowest_pure_literal(&occurrence_counts(&naive_written(f, assign))) {
            assign.assign(pure.var(), pure.demanded_value());
            if mode == SimplifyMode::SinglePass {
                break;
            }
        }
        false
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Drawn literals forced one by one, each on a free variable (a
        /// draw whose variable is forced already is skipped), with lines
        /// 6–11 under a drawn mode at the start and after each force until
        /// a clause empties: the counters hold the assignment the forced
        /// literals make, its completion is their model, and fresh
        /// counters forced with its literals in variable order equal them.
        #[test]
        fn the_counters_are_the_assignment(
            f in arb_cnf(),
            draws in proptest::collection::vec((0u32..8, any::<bool>()), 0..10),
            mode in 0usize..3,
        ) {
            let modes = [SimplifyMode::Fixpoint, SimplifyMode::SinglePass, SimplifyMode::SplitOnly];
            let mode = modes[mode];
            let (occurrences, mut residual) = tables(&f);
            let mut expected = Assignment::new(f.num_vars());
            let mut conflict = f.has_empty_clause();
            let draws = draws.iter().map(|&(v, pos)| Some(Lit::with_polarity(Var(v % f.num_vars()), pos)));
            for draw in std::iter::once(None).chain(draws) {
                if let Some(lit) = draw {
                    if expected.value(lit.var()).is_some() {
                        continue;
                    }
                    expected.assign(lit.var(), lit.demanded_value());
                    conflict |= residual.force(&occurrences, &f, lit).conflict;
                }
                if !conflict {
                    conflict = residual.propagate(&occurrences, &f, mode, 0, &mut SimplifyStats::default());
                    prop_assert_eq!(conflict, naive_propagate(&f, &mut expected, mode), "{:?}", f);
                }
            }
            prop_assert_eq!(residual.assignment(), expected.clone(), "{:?}", f);
            prop_assert_eq!(residual.model(), expected.complete(), "{:?}", f);
            let mut fresh = Residual::new(&f);
            for var in (0..f.num_vars()).map(Var) {
                if let Some(value) = expected.value(var) {
                    fresh.force(&occurrences, &f, Lit::with_polarity(var, value));
                }
            }
            prop_assert_eq!(fresh, residual, "{:?}", f);
        }

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

        /// Lines 6–11 under a propagating mode from fresh counters, then
        /// after each drawn force on a free variable, from that force's
        /// report; at the fixpoint this leaves (unless a clause emptied),
        /// a drawn branch literal forced on a free variable: propagating
        /// from its report ends as propagating from clause 0 does, with
        /// the same conflict, the same literals forced by kind and equal
        /// counters.
        #[test]
        fn propagating_from_a_forces_report_is_propagating_from_clause_0(
            f in arb_cnf(),
            draws in proptest::collection::vec((0u32..8, any::<bool>()), 0..4),
            branch in (0u32..8, any::<bool>()),
            single_pass in any::<bool>(),
        ) {
            let mode = if single_pass { SimplifyMode::SinglePass } else { SimplifyMode::Fixpoint };
            let (occurrences, mut residual) = tables(&f);
            let mut stats = SimplifyStats::default();
            let mut conflict =
                f.has_empty_clause() || residual.propagate(&occurrences, &f, mode, 0, &mut stats);
            for &(v, pos) in &draws {
                let lit = Lit::with_polarity(Var(v % f.num_vars()), pos);
                if !conflict && residual.value(lit.var()).is_none() {
                    let forced = residual.force(&occurrences, &f, lit);
                    conflict = forced.conflict
                        || residual.propagate(&occurrences, &f, mode, forced.unit_from, &mut stats);
                }
            }
            let vars = f.num_vars();
            let mut free = (0..vars).map(|k| Var((branch.0 + k) % vars));
            if let (false, Some(var)) = (conflict, free.find(|&var| residual.value(var).is_none())) {
                let lit = Lit::with_polarity(var, branch.1);
                let forced = residual.force(&occurrences, &f, lit);
                let mut from_0 = residual.clone();
                let (mut resumed, mut restarted) = (SimplifyStats::default(), SimplifyStats::default());
                let conflict = forced.conflict
                    || residual.propagate(&occurrences, &f, mode, forced.unit_from, &mut resumed);
                let again =
                    forced.conflict || from_0.propagate(&occurrences, &f, mode, 0, &mut restarted);
                prop_assert_eq!((conflict, resumed), (again, restarted), "{:?}: {:?}", f, lit);
                prop_assert_eq!(residual, from_0, "{:?}: {:?}", f, lit);
            }
        }
    }

    #[test]
    fn repeated_occurrences_count_one_by_one() {
        // `x ∨ x` is not a unit; falsifying `x` empties it in one step,
        // taking it through one occurrence on the way.
        let f = cnf(&[&[1, 1], &[-1, -1, 2], &[-2, -2]], 2);
        let (out, stats, ..) = simplified(&f, SimplifyMode::Fixpoint);
        assert_eq!((out, stats.unit_props), (Simplified::Undecided, 0));
        let (occurrences, mut residual) = tables(&f);
        assert_eq!(residual.first_unit(&f, 0), None);
        let forced = residual.force(&occurrences, &f, lit(-1));
        let conflict = Forced {
            conflict: true,
            unit_from: 0,
        };
        assert_eq!(forced, conflict);
        // `¬x ∨ ¬x ∨ y` becomes the unit `y` when `x` holds, and the force
        // reports it; so does `¬y ∨ ¬y`'s empty clause when `y` holds too.
        let (occurrences, mut residual) = tables(&f);
        let forced = residual.force(&occurrences, &f, lit(1));
        let unit = Forced {
            conflict: false,
            unit_from: 1,
        };
        assert_eq!(forced, unit);
        assert_eq!(residual.first_unit(&f, forced.unit_from), Some((1, lit(2))));
        let forced = residual.force(&occurrences, &f, lit(2));
        let conflict = Forced {
            conflict: true,
            unit_from: 2,
        };
        assert_eq!(forced, conflict);
        // A force that takes no clause down to one reports the clause
        // count.
        let (occurrences, mut residual) = tables(&f);
        let forced = residual.force(&occurrences, &f, lit(-2));
        let none = Forced {
            conflict: false,
            unit_from: 3,
        };
        assert_eq!(forced, none);
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
                child.assignment(),
                program.weight(child),
            );
            assert_eq!(got, (residual, a, 3), "{branch:?}");
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
