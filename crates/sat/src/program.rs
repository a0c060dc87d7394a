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
//! An activation below the root travels as its *path* from the formula
//! the search started from (the guiding paths of distributed SAT
//! solvers), not as a copy of its residual formula: a shared
//! [`RootFormula`], which the root activation builds from its formula as
//! given before it runs its own lines 2–11 on fresh counters over it, and
//! the residual as those counters: the remaining occurrences of each
//! clause and a count per literal, its occurrences in the clauses still
//! open less a fixed offset once it is false. The parked counts are the
//! path's assignment, so the counters are all a path holds of its own.
//! The residual is the root formula under that assignment, in the root's
//! clause order.
//!
//! A split copies the parent's counters into the first child and moves
//! them into the last, forces each child's branch literal on them and
//! runs the child's lines 6–11 there (none under `SplitOnly`) against the
//! root's occurrence lists; no formula is written. A child arrives
//! decided or not (a conflict flag, its live clause count), with its
//! mapping hint (the clauses live once its branch literal holds), and its
//! activation goes straight to line 12. Where the simplification runs is
//! not observable: messages, steps, mapping hints and verdicts are those
//! of every activation simplifying its own sub-problem.
//!
//! Every heuristic reads the counters: `first` branches on the first free
//! literal of the first open clause, DLIS and most-frequent read the live
//! counts, and Jeroslow–Wang and `random` walk the residual's clauses in
//! the root's order. The sequential [`dpll`](crate::dpll) solver walks
//! the same paths, with the same choice.
//!
//! A [`SubProblem`] travels as a handle: one pointer to a
//! [`SubProblemBody`], so the mesh moves an 8-byte payload however large
//! the formula. Bodies are recycled through a bounded free list per
//! thread: dropping a sub-problem returns its body with its counters'
//! buffer (but no formula), and [`SubProblem::root`], `clone` and every
//! split take one. A split writes its children's counters into the
//! buffers finished activations left behind, so a child that fits them
//! allocates nothing.

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
use crate::simplify::{Occurrences, Residual, Simplified, SimplifyMode, SimplifyStats};

/// A self-contained DPLL sub-problem, as shipped between nodes: a handle
/// to its [`SubProblemBody`], whose public fields and methods it
/// dereferences to (`sub.discrepancy`, `sub.assignment()`).
#[derive(Debug, PartialEq, Eq)]
pub struct SubProblem(Option<Box<SubProblemBody>>);

/// What a [`SubProblem`] holds: a root's formula, or a path from a shared
/// root with its residual as counters over that root.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SubProblemBody {
    /// A root's formula, as given, for its own activation to simplify;
    /// empty below the root. Read through [`SubProblemBody::residual`].
    cnf: Cnf,
    /// Remaining discrepancy budget (limited-discrepancy search): how many
    /// more times this path may deviate from the heuristic's preferred
    /// branch. `None` — the default — is the classic unlimited search.
    /// At `Some(0)` only the preferred branch is spawned, so the tree an
    /// LDS run explores is a pure function of the root budget — and a
    /// run ending `Unsat` is *inconclusive* (a model may hide behind a
    /// denied discrepancy), which the portfolio layer reports as an
    /// exhausted attempt rather than a verdict.
    pub discrepancy: Option<u64>,
    /// A sub-problem's place below the root: the root formula under the
    /// assignment `counters` hold.
    path: Option<Path>,
    /// A path's residual as counters over its root formula, which its
    /// split copies into its children; their parked counts are the
    /// assignment on the path. Otherwise a buffer kept for a later owner.
    counters: Residual,
}

impl SubProblemBody {
    /// The residual formula: the one a root carries, or one written from
    /// the counters of a sub-problem below it — the root formula without
    /// the clauses its assignment satisfies and the literals it falsifies,
    /// in the root's clause order.
    pub fn residual(&self) -> Cow<'_, Cnf> {
        match &self.path {
            None => Cow::Borrowed(&self.cnf),
            Some(path) => {
                let root = &path.root.cnf;
                let clauses = self.counters.clauses(root).map(|(_, free)| free.collect());
                Cow::Owned(Cnf::new(root.num_vars(), clauses.collect()))
            }
        }
    }

    /// The assignment on the path to this sub-problem, decisions and
    /// forced literals alike, read off its counters; a root's assigns
    /// nothing.
    pub fn assignment(&self) -> Assignment {
        match &self.path {
            None => Assignment::new(self.cnf.num_vars()),
            Some(_) => self.counters.assignment(),
        }
    }

    /// The root formula a sub-problem's path starts from; `None` for a
    /// root, which carries its formula.
    pub fn root_formula(&self) -> Option<&Arc<RootFormula>> {
        self.path.as_ref().map(|path| &path.root)
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

/// Where a sub-problem below the root stands: its residual is the root
/// formula under the assignment its counters hold, and these are what
/// its activation reads besides them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Path {
    root: Arc<RootFormula>,
    /// The residual's clause count once the split's literal holds, before
    /// the sub-problem's own propagation: the mapping hint.
    weight: Weight,
    /// No clause before this one is open; unless `empty` or no clause is,
    /// this one is.
    first_open: u32,
    /// Some open clause has no free literal left: an empty clause.
    empty: bool,
}

impl Path {
    /// The root of a search over `cnf`, as given, after its lines 2–11
    /// under `mode` on `counters`, which this overwrites. Counts each
    /// literal forced in `stats`.
    pub(crate) fn simplified_root(
        cnf: Cnf,
        mode: SimplifyMode,
        counters: &mut Residual,
        stats: &mut SimplifyStats,
    ) -> Path {
        *counters = Residual::new(&cnf);
        let occurrences = Occurrences::new(&cnf, counters.live_counts());
        let weight = cnf.num_clauses() as Weight;
        let empty =
            cnf.has_empty_clause() || counters.propagate(&occurrences, &cnf, mode, 0, stats);
        Path {
            root: Arc::new(RootFormula { cnf, occurrences }),
            weight,
            first_open: counters.first_live(0) as u32,
            empty,
        }
    }

    /// The child of a split on this path in which `lit` holds: `counters`,
    /// this path's, become the child's once `lit` is forced and the
    /// child's lines 6–11 under `mode` have run on them, each literal
    /// forced counted in `stats`. Its mapping hint is the clauses live
    /// once `lit` holds, before the propagation.
    pub(crate) fn child(
        &self,
        lit: Lit,
        mode: SimplifyMode,
        counters: &mut Residual,
        stats: &mut SimplifyStats,
    ) -> Path {
        let (cnf, occurrences) = (&self.root.cnf, &self.root.occurrences);
        // The parent's counters are at fixpoint: the force's report is
        // where a unit can first stand.
        let forced = counters.force(occurrences, cnf, lit);
        let weight = counters.live();
        let empty =
            forced.conflict || counters.propagate(occurrences, cnf, mode, forced.unit_from, stats);
        Path {
            root: Arc::clone(&self.root),
            weight,
            first_open: counters.first_live(self.first_open as usize) as u32,
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

/// How many bodies a thread's free list keeps. A recycled body keeps its
/// largest buffers, and a thread may drop more bodies than it takes (a
/// race's caller drops what its per-epoch workers built), so the list is
/// bounded.
const FREE_BODIES: usize = 64;

thread_local! {
    /// Bodies this thread's dropped sub-problems returned. Boxed: the
    /// allocation a handle points to is what is recycled.
    #[allow(clippy::vec_box)]
    static FREE: RefCell<Vec<Box<SubProblemBody>>> = const { RefCell::new(Vec::new()) };
}

impl SubProblem {
    /// The root sub-problem of a formula (unlimited discrepancies).
    pub fn root(cnf: Cnf) -> SubProblem {
        let mut sub = SubProblem::recycled(None);
        sub.cnf = cnf;
        sub
    }

    /// A handle to a body off this thread's free list (a new one if the
    /// list is empty), with `discrepancy`, no formula, no path and no
    /// counters.
    fn recycled(discrepancy: Option<u64>) -> SubProblem {
        let mut body = FREE
            .with(|free| free.borrow_mut().pop())
            .unwrap_or_default();
        body.discrepancy = discrepancy;
        body.counters.clear();
        SubProblem(Some(body))
    }

    /// The child of a split on `parent` in which `lit` holds, in a
    /// recycled body: `fill` writes the parent's counters into the body's
    /// buffer, then `lit` is forced and the child's lines 6–11 run on
    /// them.
    fn child(
        parent: &Path,
        lit: Lit,
        mode: SimplifyMode,
        discrepancy: Option<u64>,
        fill: impl FnOnce(&mut Residual),
    ) -> SubProblem {
        let mut sub = SubProblem::recycled(discrepancy);
        let body = &mut *sub;
        fill(&mut body.counters);
        let stats = &mut SimplifyStats::default();
        body.path = Some(parent.child(lit, mode, &mut body.counters, stats));
        sub
    }

    /// Lines 2–11: a root runs them on counters over its formula, which
    /// becomes the root formula of its path; a path, whose split already
    /// ran them, reads its verdict off its flag and counters.
    fn simplify(&mut self, mode: SimplifyMode) -> Simplified {
        let body = &mut **self;
        let path = body.path.get_or_insert_with(|| {
            let cnf = std::mem::take(&mut body.cnf);
            let stats = &mut SimplifyStats::default();
            Path::simplified_root(cnf, mode, &mut body.counters, stats)
        });
        path.verdict(&body.counters)
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

/// Returns the body to this thread's free list, unless the list is full
/// (or the thread is exiting), in which case the body is freed.
impl Drop for SubProblem {
    fn drop(&mut self) {
        if let Some(mut body) = self.0.take() {
            // No free list keeps a formula alive, a root's or a shared one.
            body.cnf = Cnf::default();
            body.path = None;
            let _ = FREE.try_with(|free| {
                let mut free = free.borrow_mut();
                if free.len() < FREE_BODIES {
                    free.push(body);
                }
            });
        }
    }
}

impl Clone for SubProblem {
    fn clone(&self) -> SubProblem {
        let mut sub = SubProblem::recycled(self.discrepancy);
        sub.cnf.clone_from(&self.cnf);
        sub.path.clone_from(&self.path);
        sub.counters.clone_from(&self.counters);
        sub
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

    /// Lines 12–16: the heuristic's choice on the parent's path, then a
    /// child on that path for each branch to spawn. The last child takes
    /// the parent's counters; the parent's body returns to the free list
    /// when `sub` drops.
    fn split(&self, mut sub: SubProblem) -> Calls<SubProblem> {
        let parent = &mut *sub;
        let path = parent
            .path
            .take()
            .expect("lines 2–11 put every activation on its path");
        let lit = self.branch(path.select(self.heuristic, &parent.counters));
        // Each child is decided here: the first on a copy of the parent's
        // counters, the last on the counters themselves. Following the
        // heuristic costs no discrepancy; going against it spends one.
        let discrepancy = parent.discrepancy;
        let last = |lit, discrepancy, parent: &mut SubProblemBody| {
            SubProblem::child(&path, lit, self.mode, discrepancy, |counters| {
                std::mem::swap(counters, &mut parent.counters);
            })
        };
        if discrepancy == Some(0) {
            return Calls::one(last(lit, discrepancy, parent));
        }
        let first = SubProblem::child(&path, lit, self.mode, discrepancy, |counters| {
            counters.clone_from(&parent.counters);
        });
        Calls::two(
            first,
            last(lit.negated(), discrepancy.map(|d| d - 1), parent),
        )
    }
}

impl RecProgram for DpllProgram {
    type Arg = SubProblem;
    type Out = Verdict;
    /// Nothing is live across the suspension: the continuation merely
    /// forwards the chosen branch's verdict (or UNSAT).
    type Frame = ();

    fn start(&self, mut sub: SubProblem) -> Step<Self> {
        match sub.simplify(self.mode) {
            Simplified::Sat => {
                let model = sub.counters.model();
                debug_assert!(
                    sub.root_formula()
                        .is_some_and(|root| check_model(&root.cnf, &model)),
                    "a satisfied leaf's model satisfies its root formula"
                );
                return Step::Done(Verdict::Sat(model));
            }
            Simplified::Unsat => return Step::Done(Verdict::Unsat),
            Simplified::Undecided => {}
        }
        // Both branches spawn, or the preferred one alone when the
        // discrepancy budget is spent: deviating would cost a discrepancy
        // we no longer have.
        Step::Spawn(Spawn {
            calls: self.split(sub),
            join: Join::Any(|v: &Verdict| v.is_sat()),
            frame: (),
        })
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
    /// own simplification, which a path carries beside its verdict.
    fn weight(&self, arg: &SubProblem) -> Weight {
        match &arg.path {
            Some(path) => path.weight,
            None => arg.cnf.num_clauses() as Weight,
        }
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

    /// A handle to a body built in place, bypassing the free list.
    fn handle(cnf: Cnf, discrepancy: Option<u64>, counters: Residual) -> SubProblem {
        SubProblem(Some(Box::new(SubProblemBody {
            cnf,
            discrepancy,
            path: None,
            counters,
        })))
    }

    #[test]
    fn a_recycled_body_carries_nothing_into_a_root() {
        FREE.with(|free| free.borrow_mut().clear());
        let dirty = gen::random_ksat(1, 12, 50, 3);
        let counters = Residual::new(&dirty);
        drop(handle(dirty, Some(3), counters));
        assert_eq!(FREE.with(|free| free.borrow().len()), 1);
        let cnf = gen::random_ksat(2, 8, 20, 3);
        let fresh = handle(cnf.clone(), None, Residual::default());
        let root = SubProblem::root(cnf);
        assert_eq!(
            FREE.with(|free| free.borrow().len()),
            0,
            "the root took the dirty body"
        );
        assert_eq!(root, fresh);
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
