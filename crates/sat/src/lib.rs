//! Boolean satisfiability substrate for the hyperspace solver stack.
//!
//! The paper's evaluation (§V) runs a "barebone implementation of the
//! Davis-Putnam-Logemann-Loveland (DPLL) algorithm" over uniform random
//! 3-SAT problems (20 variables, 91 clauses, all satisfiable — the SATLIB
//! `uf20-91` suite). This crate supplies every piece of that workload:
//!
//! * [`Cnf`] / [`Lit`] / [`Clause`] — formula representation, plus DIMACS
//!   parsing and serialisation ([`dimacs`]). A [`Cnf`] is one flat
//!   compressed-row pair of buffers (every literal back to back, one end
//!   offset per clause) read through borrowed `&[Lit]` views
//!   ([`Cnf::clauses`], [`Cnf::clause`]); the owned [`Clause`] is what
//!   formulas are built from and what the CDCL solver learns and exports.
//!   A [`SubProblem`] is a handle to a body recycled through a per-thread
//!   free list. It copies no formula: it travels as its path, an `Arc` to
//!   the [`RootFormula`] the search started from, its parent's counters
//!   over that formula, shared with its sibling, and its branch literal;
//! * [`gen`] — seeded uniform random k-SAT (the SATLIB distribution), a
//!   satisfiable-filtered `uf20_91` generator substituting for the offline
//!   benchmark files, a planted-solution generator for larger instances
//!   and the pigeonhole formulas, unsatisfiable by construction;
//! * [`simplify`] — unit propagation and pure-literal assignment
//!   (Listing 4 lines 6–11), the one DPLL propagation kernel. A search
//!   keeps each sub-problem's residual as counters over the formula it
//!   started from, as given: one remaining-occurrence counter per clause
//!   and one count per literal (parked below zero once it is false),
//!   against one occurrence list per literal, so a forced literal visits
//!   only the clauses it occurs in and no formula is written. A mesh
//!   child copies or takes its parent's counters as it starts and decides
//!   itself there; sequential [`dpll`] does the same on each decision
//!   level of its stack. The same counters feed the heuristics;
//! * [`heuristics`] — branching-variable selection (first-unassigned,
//!   most-frequent, DLIS, Jeroslow-Wang, seeded random);
//! * [`dpll`] — the sequential reference solver with search statistics;
//! * [`cdcl`] — a clause-learning/backjumping baseline (the machinery the
//!   paper's barebone solver deliberately omits, §V-B);
//! * [`brute`] — an exhaustive oracle for property tests;
//! * [`DpllProgram`] — Listing 4 itself: DPLL as a layer-4/5
//!   [`hyperspace_recursion::RecProgram`], forking each decision into two
//!   speculative sub-problems joined by non-deterministic choice.

#![warn(missing_docs)]

pub mod brute;
pub mod cdcl;
mod cnf;
pub mod dimacs;
pub mod dpll;
pub mod gen;
pub mod heuristics;
mod program;
pub mod simplify;

pub use cdcl::{CdclConfig, CdclSolver, CdclStatus, RestartPolicy};
pub use cnf::{check_model, Assignment, Clause, Cnf, Lit, Model, Var};
pub use dpll::{SatResult, SolveStats};
pub use heuristics::{Heuristic, SatSpecParseError};
pub use program::{DpllProgram, Polarity, RootFormula, SubProblem, SubProblemBody, Verdict};
pub use simplify::{Simplified, SimplifyMode};
