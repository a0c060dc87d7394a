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
//! Where the simplification runs is not observable: under `Fixpoint` and
//! `SinglePass` a child's lines 6–11 run at its parent, which builds one
//! set of occurrence lists per split and ships each child already reduced
//! (a child that hit a conflict ships as one empty clause, a satisfied one
//! as the empty formula). The child's activation reads its verdict off
//! that formula and goes straight to line 12. Only the root simplifies its
//! own formula; `SplitOnly`, which propagates nothing, splits with
//! [`Cnf::split`]. Messages, steps, mapping hints and verdicts are those
//! of every activation simplifying its own sub-problem.

use hyperspace_mapping::Weight;
use hyperspace_recursion::{Join, RecProgram, Resumed, Spawn, Step};

use crate::cnf::{Assignment, Cnf, Lit, Model};
use crate::heuristics::Heuristic;
use crate::simplify::{simplify_with, Child, Simplified, SimplifyMode, Split};

/// A self-contained DPLL sub-problem, as shipped between nodes: the
/// residual formula plus the assignment accumulated on the path to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubProblem {
    /// Residual formula (satisfied clauses and falsified literals already
    /// removed).
    pub cnf: Cnf,
    /// Assignments made so far (decision + forced), full-width — except
    /// in a child its parent already found conflicting (`cnf` one empty
    /// clause), whose verdict needs none and which ships it empty.
    pub assign: Assignment,
    /// Remaining discrepancy budget (limited-discrepancy search): how many
    /// more times this path may deviate from the heuristic's preferred
    /// branch. `None` — the default — is the classic unlimited search.
    /// At `Some(0)` only the preferred branch is spawned, so the tree an
    /// LDS run explores is a pure function of the root budget — and a
    /// run ending `Unsat` is *inconclusive* (a model may hide behind a
    /// denied discrepancy), which the portfolio layer reports as an
    /// exhausted attempt rather than a verdict.
    pub discrepancy: Option<u64>,
    /// Set when the parent's split wrote `cnf` already simplified (which
    /// must not happen twice: `SinglePass` would fix a second pure
    /// literal), to the clause count the formula had before its
    /// simplification — the mapping hint [`DpllProgram`] reports. `None`:
    /// `cnf` is as given, to be simplified by its own activation.
    born: Option<Weight>,
}

impl SubProblem {
    /// The root sub-problem of a formula (unlimited discrepancies).
    pub fn root(cnf: Cnf) -> SubProblem {
        let assign = Assignment::new(cnf.num_vars());
        SubProblem {
            cnf,
            assign,
            discrepancy: None,
            born: None,
        }
    }

    /// A child of a split: `cnf` still to be simplified.
    fn unborn(cnf: Cnf, assign: Assignment, discrepancy: Option<u64>) -> SubProblem {
        SubProblem {
            cnf,
            assign,
            discrepancy,
            born: None,
        }
    }

    /// A child a [`Split`] wrote simplified.
    fn born(child: Child, discrepancy: Option<u64>) -> SubProblem {
        SubProblem {
            cnf: child.cnf,
            assign: child.assign,
            discrepancy,
            born: Some(child.clauses_before),
        }
    }

    /// Lines 2–11: the verdict of this sub-problem's formula once
    /// simplified, which a born sub-problem's already is — the empty
    /// formula, one empty clause, or a residual without an empty clause.
    fn simplify(&mut self, mode: SimplifyMode) -> Simplified {
        if self.born.is_none() {
            return simplify_with(&mut self.cnf, &mut self.assign, mode).0;
        }
        match self.cnf.clauses().next() {
            None => Simplified::Sat,
            Some([]) => Simplified::Unsat,
            Some(_) => Simplified::Undecided,
        }
    }

    /// The root sub-problem with a limited-discrepancy budget.
    pub fn with_discrepancy(mut self, budget: u64) -> SubProblem {
        self.discrepancy = Some(budget);
        self
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

    /// Lines 12–16 under `SplitOnly`: both children copied by one
    /// [`Cnf::split`] scan (by [`Cnf::assign`] when the preferred branch
    /// spawns alone), each to be simplified by its own activation.
    fn split_only(&self, sub: SubProblem) -> Vec<SubProblem> {
        let lit = self.branch(self.heuristic.select(&sub.cnf));
        let (var, value) = (lit.var(), lit.demanded_value());
        let mut assign_true = sub.assign.clone();
        assign_true.assign(var, value);
        if sub.discrepancy == Some(0) {
            let cnf = sub.cnf.assign(var, value);
            return vec![SubProblem::unborn(cnf, assign_true, sub.discrepancy)];
        }
        let (when_true, when_false) = sub.cnf.split(var);
        let (cnf1, cnf2) = if value {
            (when_true, when_false)
        } else {
            (when_false, when_true)
        };
        let mut assign_false = sub.assign;
        assign_false.assign(var, !value);
        vec![
            // Following the heuristic costs no discrepancy; going against
            // it spends one.
            SubProblem::unborn(cnf1, assign_true, sub.discrepancy),
            SubProblem::unborn(cnf2, assign_false, sub.discrepancy.map(|d| d - 1)),
        ]
    }

    /// Lines 12–16 under a propagating mode: one count of the formula
    /// feeds the heuristic and the split's occurrence lists, and each
    /// child is born simplified.
    fn split_propagating(&self, sub: SubProblem) -> Vec<SubProblem> {
        let split = Split::new(&sub.cnf, self.mode);
        let lit = self.branch(self.heuristic.select_counted(&sub.cnf, split.counts()));
        if sub.discrepancy == Some(0) {
            let child = split.last_child(lit, sub.assign);
            return vec![SubProblem::born(child, sub.discrepancy)];
        }
        let first = split.child(lit, &sub.assign);
        let second = split.last_child(lit.negated(), sub.assign);
        vec![
            SubProblem::born(first, sub.discrepancy),
            SubProblem::born(second, sub.discrepancy.map(|d| d - 1)),
        ]
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
            Simplified::Sat => return Step::Done(Verdict::Sat(sub.assign.complete())),
            Simplified::Unsat => return Step::Done(Verdict::Unsat),
            Simplified::Undecided => {}
        }
        // Both branches spawn, or the preferred one alone when the
        // discrepancy budget is spent: deviating would cost a discrepancy
        // we no longer have.
        let calls = if self.mode == SimplifyMode::SplitOnly {
            self.split_only(sub)
        } else {
            self.split_propagating(sub)
        };
        Step::Spawn(Spawn {
            calls,
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
    /// work a sub-problem represents. The count before simplification,
    /// which a born sub-problem carries beside its reduced formula.
    fn weight(&self, arg: &SubProblem) -> Weight {
        arg.born.unwrap_or(arg.cnf.num_clauses() as Weight)
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
    use crate::cnf::check_model;
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
