//! Deterministic solver portfolios.
//!
//! Real supercomputer solvers rarely bet on one configuration: they race
//! *diversified* strategies over the same instance and share what each
//! learns along the way (the elastic-portfolio approach of Hurley et al.
//! and the search-combinator view of Schrijvers et al.). This crate is
//! that orchestration layer on top of the repo's five-layer stacks:
//!
//! * a [`PortfolioRunner`] launches one member per [`StrategySpec`] —
//!   mesh stacks with different heuristics, simplification strengths,
//!   branch polarities, mapper placements, prune warm starts and
//!   backends, plus (for SAT) sequential CDCL solvers on restart
//!   schedules. A mesh member drives no machine of its own: it is an
//!   epoch policy over core's [`StackRun`](hyperspace_core::StackRun),
//!   the handle `StackBuilder::run` and the service drive too;
//! * members advance in lock-step **sync epochs** (a fixed budget of
//!   simulated steps / search operations per epoch). An epoch is one
//!   fork-join over the race's owned members — chunks of consecutive
//!   members on up to [`PortfolioRunner::threads`] threads, the first
//!   chunk on the calling thread and each other one moved by value to a
//!   helper thread — and the join is the epoch barrier where knowledge
//!   is exchanged, on the calling thread alone.
//!   The helpers outlive the race: the calling thread keeps them, idle
//!   between epochs, for its next race, and they exit when it does.
//!   At the barrier CDCL members export the clauses they learned (bounded
//!   by length/LBD budgets) onto a deduplicating bus and import every
//!   sibling's lemmas, while branch-and-bound members publish their
//!   incumbents, which are re-injected into trailing members through
//!   the ordinary `MapPayload::Bound` gossip channel;
//! * the first member to answer wins; losers are cancelled through the
//!   existing [`StopHandle`](hyperspace_sim::StopHandle) machinery and
//!   the whole race is folded into a [`PortfolioReport`].
//!
//! # Determinism
//!
//! Everything the race decides — the winner, every member's counters,
//! how many clauses and bounds crossed the bus — is keyed on *logical*
//! progress (simulated steps, search operations), never wall clock.
//! Members only interact at epoch barriers (every member is back on the
//! caller's thread there), each member's engine is itself bit-identical across
//! execution backends, and barrier bookkeeping runs in member-id order —
//! down to which member's panic a faulting race re-raises (the lowest
//! id's). The resulting [`PortfolioReport`] is therefore
//! bit-identical for every runner thread count and every member backend
//! choice — the same contract the layer-1 backends honour, lifted one
//! layer up. The equivalence suite (`tests/portfolio_equivalence.rs`)
//! enforces it.

#![warn(missing_docs)]

mod member;
mod report;
mod runner;

pub use report::{MemberReport, PortfolioReport};
pub use runner::{PortfolioRace, PortfolioRunner};

// The specs live in `hyperspace-core` (they are part of the job
// description surface); re-export them for convenience.
pub use hyperspace_core::{EngineSpec, PortfolioSpec, StrategySpec};
