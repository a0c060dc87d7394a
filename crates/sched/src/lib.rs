//! **Layer 2 — Scheduling** (paper §III-A2).
//!
//! This layer "maintains a number of concurrent processes that communicate
//! via the message passing functions provided by layer 1. Each process has a
//! state that is initialized at startup and then transformed by a handler
//! function when a message is received. The layer is responsible for
//! scheduling if processes are more numerous than hardware threads."
//!
//! [`SchedulerHost`] is a layer-1 [`hyperspace_sim::NodeProgram`] that multiplexes many
//! lightweight [`Process`]es onto each node. Messages address processes
//! through [`ProcAddr`] `(node, proc)` pairs; arriving messages are queued
//! in per-process mailboxes and *serviced* according to a [`SchedPolicy`]
//! — so arrival order and service order can differ, which is exactly the
//! scheduling freedom the paper assigns to this layer. Processes may spawn
//! further processes, exchange zero-cost local messages, and exit.
//!
//! Assembled stacks do not pass through this layer: `hyperspace-core`'s
//! `StackProgram` is the mapping host over the recursion host straight on
//! layer 1 (the mapping host *is* the node's single process).
//! Applications that need several processes per node use this layer
//! directly (e.g. the portfolio-solver example runs several independent
//! SAT solvers as competing processes per node).

#![warn(missing_docs)]

mod host;
mod policy;
mod process;

pub use host::{NodeSched, SchedMsg, SchedulerHost};
pub use policy::SchedPolicy;
pub use process::{ProcAddr, ProcCtx, Process};
