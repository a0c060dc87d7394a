//! Stack assembly for the hyperspace solver framework.
//!
//! The paper's model is explicitly modular: "One possible realization of
//! the model is to have a repertoire of modules (representing alternative
//! implementations for each layer) ... New applications for hyperspace
//! machines can then be developed quickly by assembling the appropriate set
//! of modules from this repertoire" (§VII). This crate is that assembly
//! point: pick a [`TopologySpec`], a [`MapperSpec`] and a
//! [`hyperspace_recursion::RecProgram`], and [`StackBuilder`] wires layers
//! 1–4 together and runs the result.
//!
//! ```
//! use hyperspace_core::{MapperSpec, StackBuilder, TopologySpec};
//! use hyperspace_recursion::{FnProgram, Rec};
//!
//! let sum = FnProgram::new(|n: u64| -> Rec<u64, u64> {
//!     if n < 1 {
//!         Rec::done(0)
//!     } else {
//!         Rec::call(n - 1).then(move |total| Rec::done(total + n))
//!     }
//! });
//! let report = StackBuilder::new(sum)
//!     .topology(TopologySpec::Torus2D { w: 4, h: 4 })
//!     .mapper(MapperSpec::LeastBusy { status_period: None })
//!     .run(10, 0);
//! assert_eq!(report.result, Some(55));
//! ```
//!
//! A running stack has one handle, [`StackRun`]
//! ([`StackBuilder::into_run`]): advance it to a step, read its root
//! result and machine-wide frontier, inject a bound at its root, fold it
//! into its [`RecRunReport`]. [`StackBuilder::run`] drives one from
//! checkpoint barrier to barrier, [`StackBuilder::start`] hands one out
//! as the [`RunSlice`] the solver service schedules, and a portfolio
//! member is an epoch policy over one.

#![warn(missing_docs)]

mod expr;
mod report;
mod slice;
mod spec;
mod stack;

pub use expr::{LimitKind, LimitSpec, StrategyExpr, MAX_EXPR_DEPTH, MAX_EXPR_TOKENS};
pub use report::{IncumbentEvent, RecRunReport, RunSummary};
pub use slice::{RunSlice, SliceOutcome, StackRun};
pub use spec::{
    BackendSpec, CheckpointSpec, EngineSpec, MapperSpec, MemberPlan, ObjectiveSpec, PortfolioSpec,
    PruneSpec, SpecParseError, StrategySpec, TopologySpec,
};
pub use stack::{summarise, ErasedStackJob, JobParams, StackBuilder, StackProgram, StackSim};

pub use hyperspace_sim::{ObsHandle, Observer, Partition, StopHandle};
