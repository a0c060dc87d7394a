//! Listing 4: DPLL as a layer-4/5 recursive program.
//!
//! ```text
//! function solve_sat(problem):
//!     if consistent(problem) then yield Result(SAT)
//!     if exist_empty_clause(problem) then yield Result(UNSAT)
//!     ... unit_propagate ... assign_pure ...
//!     L <- select_literal(problem)
//!     subp1 <- assign(problem, L, True)
//!     subp2 <- assign(problem, L, False)
//!     yield [is_SAT, Call(subp1), Call(subp2)]
//!     result <- yield Sync()
//!     yield result
//! ```
//!
//! Each activation simplifies its sub-problem, finishes if decided, and
//! otherwise forks the two polarity branches as *speculative* sub-calls
//! joined by non-deterministic choice: whichever returns SAT first resumes
//! the activation "without waiting for [the] other result" (§V-B); if both
//! return UNSAT the activation is UNSAT.
//!
//! A sub-problem travels as its *path* from the formula the search
//! started from (the guiding paths of distributed SAT solvers), not as a
//! copy of its residual formula: a shared [`RootFormula`], which
//! [`SubProblem::root`] builds from its formula as given, and counters
//! over it: the remaining occurrences of each clause and a count per
//! literal, its occurrences in the clauses still open less a fixed offset
//! once it is false. The parked counts are the path's assignment. The
//! residual is the root formula under it, in the root's clause order.
//!
//! A split reads and its children write. The split reads each child's
//! mapping hint (the clauses live once its literal holds) off the
//! parent's counters, at fixpoint, and both children share them. A child
//! starting forces its literal and runs its lines 6–11 (none under
//! `SplitOnly`) against the root's occurrence lists: its first write
//! takes the counters' buffer if its sibling has started already, or
//! copies it into a recycled buffer if not. So a queued child is its
//! parent's counters plus one literal. Neither which child copies nor
//! where the simplification runs is observable: messages, steps, mapping
//! hints and verdicts are those of every activation simplifying its own
//! sub-problem.
//!
//! Every heuristic reads the counters: `first` branches on the first free
//! literal of the first open clause, DLIS and most-frequent read the live
//! counts, and Jeroslow–Wang and `random` walk the residual's clauses in
//! the root's order. The sequential [`dpll`](crate::dpll) solver walks
//! the same paths, with the same choice.
//!
//! A [`SubProblem`] travels as a handle: one pointer to a
//! [`SubProblemBody`], so the mesh moves an 8-byte payload however large
//! the formula. Bodies and counter buffers are recycled through bounded
//! free lists per thread: dropping a sub-problem returns its body, and
//! its buffer if no other sub-problem holds it. A split's first child
//! takes a body (the last keeps its parent's), and a child that copies
//! takes a buffer, so a steady-state split allocates nothing.

use std::borrow::Cow;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use hyperspace_mapping::Weight;
use hyperspace_recursion::{Calls, Join, RecProgram, Resumed, Spawn, Step};

use crate::cnf::{check_model, Assignment, Cnf, Lit, Model};
use crate::heuristics::{
    jeroslow_wang, most_frequent_lit, most_frequent_var, random_lit, Heuristic,
};
use crate::simplify::{
    Forced, Occurrences, Residual, Simplified, SimplifyMode, SimplifyStats, FREE_LIST,
};

/// A self-contained DPLL sub-problem, as shipped between nodes: a handle
/// to its [`SubProblemBody`], whose public fields and methods it
/// dereferences to (`sub.discrepancy`, `sub.assignment()`).
#[derive(Debug, PartialEq, Eq)]
pub struct SubProblem(Option<Box<SubProblemBody>>);

/// What a [`SubProblem`] holds: its parent's path and counters, which it
/// shares until it writes them, and the literal the split gave it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SubProblemBody {
    /// Remaining discrepancy budget (limited-discrepancy search): how many
    /// more times this path may deviate from the heuristic's preferred
    /// branch. `None` — the default — is the classic unlimited search.
    /// At `Some(0)` only the preferred branch is spawned, so the tree an
    /// LDS run explores is a pure function of the root budget — and a
    /// run ending `Unsat` is *inconclusive* (a model may hide behind a
    /// denied discrepancy), which the portfolio layer reports as an
    /// exhausted attempt rather than a verdict.
    pub discrepancy: Option<u64>,
    /// The parent's path (a root's own); `None` on the free list.
    path: Option<Path>,
    /// The parent's counters at fixpoint (a root's, fresh).
    counters: Residual,
    /// The mode of the parent's lines 2–11, and so of this sub-problem's;
    /// a root's reads `SplitOnly` until it starts, as nothing has run.
    mode: SimplifyMode,
    /// The literal the split gave this sub-problem; `None` for a root.
    lit: Option<Lit>,
    /// The residual's clause count once `lit` holds, before the
    /// sub-problem's own lines 6–11: the mapping hint.
    weight: Weight,
}

impl SubProblemBody {
    /// The path and counters this sub-problem's lines 2–11 reach, on a
    /// scratch copy of the counters.
    fn reached(&self) -> (Path, Residual) {
        let (mut counters, stats) = (self.counters.clone(), &mut SimplifyStats::default());
        let parent = self.path.clone().expect("a live sub-problem is on a path");
        let path = parent.child(self.lit, self.mode, &mut counters, stats);
        (path, counters)
    }

    /// The residual formula this sub-problem's lines 2–11 leave (a root's
    /// is its formula as given): the root formula without the clauses its
    /// assignment satisfies and the literals it falsifies, in order.
    pub fn residual(&self) -> Cow<'_, Cnf> {
        let (path, counters) = self.reached();
        let root = &path.root.cnf;
        let clauses = counters.clauses(root).map(|(_, free)| free.collect());
        Cow::Owned(Cnf::new(root.num_vars(), clauses.collect()))
    }

    /// The assignment on the path to this sub-problem once its lines 2–11
    /// have run, decisions and forced literals alike, read off its
    /// counters; a root's assigns nothing.
    pub fn assignment(&self) -> Assignment {
        self.reached().1.assignment()
    }

    /// The root formula this sub-problem's path starts from.
    pub fn root_formula(&self) -> Option<&Arc<RootFormula>> {
        self.path.as_ref().map(|path| &path.root)
    }

    /// Makes this body, which holds `parent`'s counters, the child of a
    /// split on `parent` in which `lit` holds, with `discrepancy` left.
    fn child_of(&mut self, parent: Path, lit: Lit, discrepancy: Option<u64>, mode: SimplifyMode) {
        self.weight = parent.hint(lit, &self.counters);
        (self.lit, self.discrepancy, self.mode) = (Some(lit), discrepancy, mode);
        self.path = Some(parent);
    }
}

/// The formula a search started from, as given, with the clauses each
/// literal occurs in: shared by every sub-problem on its paths, which
/// read their residuals against it.
#[derive(Debug, PartialEq, Eq)]
pub struct RootFormula {
    cnf: Cnf,
    occurrences: Occurrences,
}

/// Where a sub-problem stands once its lines 2–11 have run: its residual
/// is the root formula under the assignment its counters hold, and these
/// are what its activation reads besides them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Path {
    root: Arc<RootFormula>,
    /// No clause before this one is open; unless `empty` or no clause is,
    /// this one is.
    first_open: u32,
    /// Some open clause has no free literal left: an empty clause.
    empty: bool,
}

impl Path {
    /// The root of a search over `cnf`, as given, and `counters` fresh
    /// over it: its lines 2–11 are [`Path::child`] with no literal.
    pub(crate) fn root(cnf: Cnf, counters: &mut Residual) -> Path {
        *counters = Residual::new(&cnf);
        let occurrences = Occurrences::new(&cnf, counters.live_counts());
        Path {
            empty: cnf.has_empty_clause(),
            root: Arc::new(RootFormula { cnf, occurrences }),
            first_open: 0,
        }
    }

    /// The mapping hint of this path's child in which `lit` holds: the
    /// clauses live once `lit` holds, read off `counters`, this path's.
    pub(crate) fn hint(&self, lit: Lit, counters: &Residual) -> Weight {
        counters.live() - counters.closed_by(&self.root.occurrences, lit)
    }

    /// This path's child in which `lit` holds (with no literal, this
    /// root) after its lines 2–11 under `mode`: `counters`, this path's,
    /// become the child's, each literal forced counted in `stats`.
    pub(crate) fn child(
        self,
        lit: Option<Lit>,
        mode: SimplifyMode,
        counters: &mut Residual,
        stats: &mut SimplifyStats,
    ) -> Path {
        let (cnf, occurrences) = (&self.root.cnf, &self.root.occurrences);
        // A split's counters are at fixpoint, so the force's report is
        // where a unit can first stand; a root's are fresh, so its unit
        // scan starts at clause 0.
        let forced = match lit {
            Some(lit) => counters.force(occurrences, cnf, lit),
            None => Forced {
                conflict: self.empty,
                unit_from: 0,
            },
        };
        let empty =
            forced.conflict || counters.propagate(occurrences, cnf, mode, forced.unit_from, stats);
        Path {
            first_open: counters.first_live(self.first_open as usize) as u32,
            root: self.root,
            empty,
        }
    }

    /// Lines 2–4: an empty clause, then an empty formula, where `counters`
    /// are this path's.
    pub(crate) fn verdict(&self, counters: &Residual) -> Simplified {
        if self.empty {
            Simplified::Unsat
        } else if counters.live() == 0 {
            Simplified::Sat
        } else {
            Simplified::Undecided
        }
    }

    /// Line 12: `heuristic`'s literal on this path's residual, read off
    /// `counters`, the path's own.
    pub(crate) fn select(&self, heuristic: Heuristic, counters: &Residual) -> Option<Lit> {
        let root = &self.root.cnf;
        match heuristic {
            // The first free literal of the first open clause: the first
            // literal of the residual.
            Heuristic::FirstUnassigned => {
                let clause = root.clause(self.first_open as usize);
                clause.iter().copied().find(|&lit| counters.is_free(lit))
            }
            Heuristic::MostFrequent => most_frequent_var(counters.live_counts()),
            Heuristic::Dlis => most_frequent_lit(counters.live_counts()),
            Heuristic::JeroslowWang => jeroslow_wang(root.num_vars(), counters.clauses(root)),
            Heuristic::Random(seed) => random_lit(
                seed,
                root.num_vars(),
                counters.live() as usize,
                counters.clauses(root),
            ),
        }
    }
}

thread_local! {
    /// Bodies this thread's dropped sub-problems returned. Boxed: the
    /// allocation a handle points to is what is recycled.
    #[allow(clippy::vec_box)]
    static FREE: RefCell<Vec<Box<SubProblemBody>>> = const { RefCell::new(Vec::new()) };
}

impl SubProblem {
    /// The root sub-problem of a formula (unlimited discrepancies).
    pub fn root(cnf: Cnf) -> SubProblem {
        let mut root = SubProblemBody::default();
        root.path = Some(Path::root(cnf, &mut root.counters));
        (root.weight, root.mode) = (root.counters.live(), SimplifyMode::SplitOnly);
        SubProblem::boxed(root)
    }

    /// A handle to `body`, in a box off this thread's free list (a new
    /// one if the list is empty).
    fn boxed(body: SubProblemBody) -> SubProblem {
        let mut boxed = FREE
            .with(|free| free.borrow_mut().pop())
            .unwrap_or_default();
        *boxed = body;
        SubProblem(Some(boxed))
    }

    /// The root sub-problem with a limited-discrepancy budget.
    pub fn with_discrepancy(mut self, budget: u64) -> SubProblem {
        self.discrepancy = Some(budget);
        self
    }
}

impl Deref for SubProblem {
    type Target = SubProblemBody;

    fn deref(&self) -> &SubProblemBody {
        self.0.as_deref().expect("a live sub-problem has its body")
    }
}

impl DerefMut for SubProblem {
    fn deref_mut(&mut self) -> &mut SubProblemBody {
        self.0
            .as_deref_mut()
            .expect("a live sub-problem has its body")
    }
}

/// Releases the counters and returns the body to this thread's free list,
/// unless the list is full (or the thread is exiting).
impl Drop for SubProblem {
    fn drop(&mut self) {
        if let Some(mut body) = self.0.take() {
            body.path = None;
            std::mem::take(&mut body.counters).release();
            let _ = FREE.try_with(|free| {
                let mut free = free.borrow_mut();
                if free.len() < FREE_LIST {
                    free.push(body);
                }
            });
        }
    }
}

/// A clone shares the counters: it copies none until it writes.
impl Clone for SubProblem {
    fn clone(&self) -> SubProblem {
        SubProblem::boxed((**self).clone())
    }
}

/// The verdict carried back through the mesh.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Satisfiable with this witness.
    Sat(Model),
    /// This branch admits no model.
    Unsat,
}

impl Verdict {
    /// The `is_SAT` validator of Listing 4 line 15.
    pub fn is_sat(&self) -> bool {
        matches!(self, Verdict::Sat(_))
    }
}

/// Which polarity of the selected branching literal is tried first — a
/// portfolio-diversification knob: both branches are eventually explored
/// (they race speculatively), but the order decides which half of the
/// search space the mesh floods into first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Polarity {
    /// Try the literal in the polarity the heuristic demanded (the
    /// classic behaviour).
    #[default]
    Positive,
    /// Try the negated polarity first.
    Negative,
}

impl std::fmt::Display for Polarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Polarity::Positive => "pos",
            Polarity::Negative => "neg",
        })
    }
}

impl std::str::FromStr for Polarity {
    type Err = crate::heuristics::SatSpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax: `pos`, `neg`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pos" => Ok(Polarity::Positive),
            "neg" => Ok(Polarity::Negative),
            other => Err(crate::heuristics::SatSpecParseError(format!(
                "{s:?}: expected pos or neg, got {other:?}"
            ))),
        }
    }
}

/// Listing 4's `solve_sat` as a [`RecProgram`].
pub struct DpllProgram {
    heuristic: Heuristic,
    mode: SimplifyMode,
    polarity: Polarity,
}

impl DpllProgram {
    /// A program branching with the given heuristic and fixpoint
    /// simplification (the strongest solver).
    pub fn new(heuristic: Heuristic) -> Self {
        DpllProgram {
            heuristic,
            mode: SimplifyMode::Fixpoint,
            polarity: Polarity::Positive,
        }
    }

    /// Selects the per-activation simplification strength (workload knob
    /// for the scaling experiments; see [`SimplifyMode`]).
    pub fn with_mode(mut self, mode: SimplifyMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects which branch polarity is tried first (portfolio
    /// diversification; see [`Polarity`]).
    pub fn with_polarity(mut self, polarity: Polarity) -> Self {
        self.polarity = polarity;
        self
    }

    /// The branching heuristic in use.
    pub fn heuristic(&self) -> Heuristic {
        self.heuristic
    }

    /// The simplification mode in use.
    pub fn mode(&self) -> SimplifyMode {
        self.mode
    }

    /// The first-branch polarity in use.
    pub fn polarity(&self) -> Polarity {
        self.polarity
    }

    /// The first branch's literal (line 12), from the heuristic's choice.
    fn branch(&self, selected: Option<Lit>) -> Lit {
        let lit = selected.expect("undecided formula has literals");
        match self.polarity {
            Polarity::Positive => lit,
            Polarity::Negative => lit.negated(),
        }
    }

    /// Lines 12–16: the heuristic's choice on `path`, then a child for
    /// each branch, the last in `sub`'s body. Following the heuristic
    /// costs no discrepancy; going against it spends one.
    fn split(&self, mut sub: SubProblem, path: Path) -> Calls<SubProblem> {
        let lit = self.branch(path.select(self.heuristic, &sub.counters));
        let discrepancy = sub.discrepancy;
        if discrepancy == Some(0) {
            sub.child_of(path, lit, discrepancy, self.mode);
            return Calls::one(sub);
        }
        let mut first = sub.clone();
        first.child_of(path.clone(), lit, discrepancy, self.mode);
        let discrepancy = discrepancy.map(|d| d - 1);
        sub.child_of(path, lit.negated(), discrepancy, self.mode);
        Calls::two(first, sub)
    }
}

impl RecProgram for DpllProgram {
    type Arg = SubProblem;
    type Out = Verdict;
    /// Nothing is live across the suspension: the continuation merely
    /// forwards the chosen branch's verdict (or UNSAT).
    type Frame = ();

    fn start(&self, mut sub: SubProblem) -> Step<Self> {
        let body = &mut *sub;
        let parent = body.path.take().expect("a live sub-problem is on a path");
        let stats = &mut SimplifyStats::default();
        let path = parent.child(body.lit, self.mode, &mut body.counters, stats);
        match path.verdict(&body.counters) {
            Simplified::Sat => {
                let model = body.counters.model();
                debug_assert!(
                    check_model(&path.root.cnf, &model),
                    "a satisfied leaf's model satisfies its root formula"
                );
                Step::Done(Verdict::Sat(model))
            }
            Simplified::Unsat => Step::Done(Verdict::Unsat),
            // Both branches spawn, or the preferred one alone when the
            // discrepancy budget is spent: deviating would cost a
            // discrepancy we no longer have.
            Simplified::Undecided => Step::Spawn(Spawn {
                calls: self.split(sub, path),
                join: Join::Any(|v: &Verdict| v.is_sat()),
                frame: (),
            }),
        }
    }

    fn resume(&self, _frame: (), results: Resumed<Verdict>) -> Step<Self> {
        match results {
            Resumed::Any(Some(v)) => Step::Done(v),
            Resumed::Any(None) => Step::Done(Verdict::Unsat),
            Resumed::All(_) => unreachable!("DPLL only uses Any joins"),
        }
    }

    /// Cross-layer hint (§III-B3): residual clause count approximates the
    /// work a sub-problem represents. The count before the sub-problem's
    /// own simplification, which its split read off the parent's
    /// counters.
    fn weight(&self, arg: &SubProblem) -> Weight {
        arg.weight
    }

    /// A subtree denied by a budget (e.g. the strategy language's
    /// `limit(nodes,N)`) answers `Unsat` — neutral under the `Any` join
    /// (it never wins the race), so a budget-limited run reporting
    /// `Unsat` is *inconclusive*, exactly like an exhausted
    /// limited-discrepancy search.
    fn pruned(&self, _arg: &SubProblem) -> Option<Verdict> {
        Some(Verdict::Unsat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::gen;
    use hyperspace_recursion::eval_local;

    #[test]
    fn local_evaluation_matches_oracle() {
        for seed in 0..20 {
            let cnf = gen::random_ksat(seed, 8, 34, 3);
            let program = DpllProgram::new(Heuristic::JeroslowWang);
            let verdict = eval_local(&program, SubProblem::root(cnf.clone()));
            let oracle = brute::solve(&cnf);
            assert_eq!(
                verdict.is_sat(),
                oracle.is_sat(),
                "seed {seed}: distributed-program semantics diverge from oracle"
            );
            if let Verdict::Sat(model) = verdict {
                assert!(check_model(&cnf, &model), "seed {seed}: invalid model");
            }
        }
    }

    #[test]
    fn a_recycled_body_carries_nothing_into_a_root() {
        FREE.with(|free| free.borrow_mut().clear());
        // A split of a wider formula under a budget, dropped before its
        // children start: both bodies go back on the free list.
        let program =
            DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly);
        let dirty = SubProblem::root(gen::random_ksat(1, 12, 50, 3)).with_discrepancy(3);
        let Step::Spawn(spawn) = program.start(dirty) else {
            panic!("the root splits");
        };
        drop(spawn);
        assert_eq!(FREE.with(|free| free.borrow().len()), 2);
        let cnf = gen::random_ksat(2, 8, 20, 3);
        let fresh = {
            let cnf = cnf.clone();
            let on_a_fresh_thread = std::thread::spawn(move || SubProblem::root(cnf));
            on_a_fresh_thread
                .join()
                .expect("a fresh thread builds a root")
        };
        let root = SubProblem::root(cnf);
        assert_eq!(
            FREE.with(|free| free.borrow().len()),
            1,
            "the root took a dirty body"
        );
        assert_eq!(root, fresh);
    }

    /// What starting a sub-problem gives, which the copy-or-take choice
    /// must not move: its verdict, or its children in spawn order,
    /// compared by value (budget, literal, weight, path and counters).
    type Started = Result<Verdict, Vec<SubProblem>>;

    /// Starts `sub`: what it gives and, if it split, whether its
    /// activation wrote the buffer `sub` held (it took it) rather than a
    /// copy.
    fn start(program: &DpllProgram, sub: SubProblem) -> (Started, Option<bool>) {
        let held = sub.counters.buffer();
        match program.start(sub) {
            Step::Done(verdict) => (Ok(verdict), None),
            Step::Spawn(spawn) => {
                let children: Vec<_> = spawn.calls.into_iter().collect();
                let took = children[0].counters.buffer() == held;
                (Err(children), Some(took))
            }
        }
    }

    /// The two children of a split.
    fn two(started: Started) -> (SubProblem, SubProblem) {
        let mut calls = started
            .expect_err("an undecided activation splits")
            .into_iter();
        let (Some(first), Some(last), None) = (calls.next(), calls.next(), calls.next()) else {
            panic!("two branches");
        };
        (first, last)
    }

    /// Starts the children of the split of a sub-problem `make` makes,
    /// first-then-last, then those of the same split made again
    /// last-then-first, then again with the first cloned before either
    /// starts: each order gives the same outcomes, and the last to start
    /// takes the buffer the others copied. Then the same for each
    /// grandchild that splits, `depth` levels deep. Returns the splits
    /// checked.
    fn check_copy_or_take(
        program: &DpllProgram,
        make: &dyn Fn() -> SubProblem,
        depth: u32,
    ) -> usize {
        let split = || two(start(program, make()).0);
        let took = |expected: bool, took: Option<bool>| took.is_none_or(|took| took == expected);
        let (first, last) = split();
        let ((a, a_took), (b, b_took)) = (start(program, first), start(program, last));
        assert!(took(false, a_took) && took(true, b_took), "first then last");
        let (first, last) = split();
        let ((b2, b_took), (a2, a_took)) = (start(program, last), start(program, first));
        assert!(took(true, a_took) && took(false, b_took), "last then first");
        let (first, last) = split();
        let extra = first.clone();
        let ((a3, a_took), (b3, b_took)) = (start(program, first), start(program, last));
        let (c3, c_took) = start(program, extra);
        let cloned = took(false, a_took) && took(false, b_took) && took(true, c_took);
        assert!(cloned, "cloned");
        assert_eq!((&a2, &b2), (&a, &b), "last then first");
        assert_eq!((&a3, &b3, &c3), (&a, &b, &a), "cloned");
        let mut checked = 1;
        if depth > 1 {
            for grandchild in [a, b].into_iter().filter_map(Result::err).flatten() {
                if start(program, grandchild.clone()).1.is_some() {
                    checked += check_copy_or_take(program, &|| grandchild.clone(), depth - 1);
                }
            }
        }
        checked
    }
    #[test]
    fn children_give_the_same_outcomes_in_either_order_or_cloned() {
        for mode in [SimplifyMode::SplitOnly, SimplifyMode::Fixpoint] {
            for polarity in [Polarity::Positive, Polarity::Negative] {
                let program = DpllProgram::new(Heuristic::FirstUnassigned)
                    .with_mode(mode)
                    .with_polarity(polarity);
                let mut checked = 0;
                for seed in 1..=3 {
                    let cnf = gen::satisfiable_ksat(seed, 20, 85, 3);
                    checked += check_copy_or_take(&program, &|| SubProblem::root(cnf.clone()), 3);
                }
                assert!(checked >= 9, "{mode} {polarity}: {checked} splits");
            }
        }
    }

    #[test]
    fn a_one_child_split_copies_nothing() {
        for mode in [SimplifyMode::SplitOnly, SimplifyMode::Fixpoint] {
            let program = DpllProgram::new(Heuristic::FirstUnassigned).with_mode(mode);
            let mut sub = SubProblem::root(gen::satisfiable_ksat(1, 20, 85, 3)).with_discrepancy(0);
            let mut levels = 0;
            loop {
                let (started, took) = start(&program, sub);
                let Err(children) = started else { break };
                assert_eq!(took, Some(true), "{mode}: level {levels} copied");
                let [child] = <[SubProblem; 1]>::try_from(children).expect("one branch");
                (sub, levels) = (child, levels + 1);
            }
            assert!(levels > 1, "{mode}: {levels} levels");
        }
    }

    #[test]
    fn weight_is_clause_count() {
        let cnf = gen::random_ksat(3, 10, 40, 3);
        let program = DpllProgram::new(Heuristic::FirstUnassigned);
        assert_eq!(program.weight(&SubProblem::root(cnf)), 40);
    }

    #[test]
    fn negative_polarity_still_matches_oracle() {
        for seed in 0..12 {
            let cnf = gen::random_ksat(seed, 8, 34, 3);
            let program =
                DpllProgram::new(Heuristic::JeroslowWang).with_polarity(Polarity::Negative);
            let verdict = eval_local(&program, SubProblem::root(cnf.clone()));
            let oracle = brute::solve(&cnf);
            assert_eq!(verdict.is_sat(), oracle.is_sat(), "seed {seed}");
            if let Verdict::Sat(model) = verdict {
                assert!(check_model(&cnf, &model), "seed {seed}");
            }
        }
    }

    #[test]
    fn polarity_round_trips_and_defaults_positive() {
        assert_eq!(
            DpllProgram::new(Heuristic::Dlis).polarity(),
            Polarity::Positive
        );
        for p in [Polarity::Positive, Polarity::Negative] {
            assert_eq!(p.to_string().parse::<Polarity>().unwrap(), p);
        }
        assert!("positive".parse::<Polarity>().is_err());
    }

    #[test]
    fn sat_parse_errors_share_the_expected_got_shape() {
        use crate::cdcl::RestartPolicy;

        let cases: [(&str, String); 4] = [
            (
                "\"up\": expected pos or neg, got \"up\"",
                "up".parse::<Polarity>().unwrap_err().to_string(),
            ),
            (
                "\"vsids\": expected first, most-frequent, dlis, jeroslow-wang or random:SEED, \
                 got \"vsids\"",
                "vsids".parse::<Heuristic>().unwrap_err().to_string(),
            ),
            (
                "\"none\": expected fixpoint, single-pass or split-only, got \"none\"",
                "none".parse::<SimplifyMode>().unwrap_err().to_string(),
            ),
            (
                "\"luby:0\": expected off, fixed:N or luby:N, got \"luby:0\"",
                "luby:0".parse::<RestartPolicy>().unwrap_err().to_string(),
            ),
        ];
        for (expected, got) in cases {
            assert_eq!(got, format!("invalid solver spec: {expected}"));
        }
    }

    #[test]
    fn limited_discrepancy_sat_verdicts_are_sound() {
        // An LDS run may miss models (Unsat is inconclusive), but any model
        // it does report must be genuine, and a generous budget must
        // reconverge with the oracle.
        for seed in 0..12 {
            let cnf = gen::random_ksat(seed, 8, 34, 3);
            let oracle = brute::solve(&cnf);
            let program = DpllProgram::new(Heuristic::JeroslowWang);
            for budget in [0, 1, 2, 64] {
                let root = SubProblem::root(cnf.clone()).with_discrepancy(budget);
                let verdict = eval_local(&program, root);
                if let Verdict::Sat(model) = &verdict {
                    assert!(check_model(&cnf, model), "seed {seed} budget {budget}");
                }
                if verdict.is_sat() {
                    assert!(
                        oracle.is_sat(),
                        "seed {seed} budget {budget}: phantom model"
                    );
                }
            }
            // 64 discrepancies over 8 variables is effectively unbounded.
            let root = SubProblem::root(cnf.clone()).with_discrepancy(64);
            assert_eq!(
                eval_local(&program, root).is_sat(),
                oracle.is_sat(),
                "seed {seed}: generous LDS budget diverges from oracle"
            );
        }
    }

    #[test]
    fn zero_discrepancy_follows_only_the_heuristic_path() {
        // With budget 0 the search is a single heuristic-guided probe.
        let cnf = gen::uf20_91(7);
        let program = DpllProgram::new(Heuristic::JeroslowWang);
        let root = SubProblem::root(cnf.clone()).with_discrepancy(0);
        if let Verdict::Sat(model) = eval_local(&program, root) {
            assert!(check_model(&cnf, &model));
        }
    }

    #[test]
    fn uf20_local_run() {
        let cnf = gen::uf20_91(42);
        let program = DpllProgram::new(Heuristic::JeroslowWang);
        let verdict = eval_local(&program, SubProblem::root(cnf.clone()));
        match verdict {
            Verdict::Sat(model) => assert!(check_model(&cnf, &model)),
            Verdict::Unsat => panic!("uf20-91 instances are satisfiable"),
        }
    }
}
