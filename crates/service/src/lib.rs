//! **hyperspace-service** — a multi-tenant solver service over the
//! five-layer stack.
//!
//! The paper's §VII pitch is that solvers assembled from the layer
//! repertoire can be "developed quickly" and deployed as reusable
//! machines. Everything below this crate solves *one* problem per
//! [`hyperspace_core::StackBuilder::run`]; this crate turns the
//! repertoire into a long-running **service**:
//!
//! * a pool of persistent worker threads ([`SolverService`]) fed by a
//!   shared **priority queue** — higher-priority jobs run first, ties
//!   run in submission order;
//! * **typed jobs** ([`JobKind`]): SAT (from [`hyperspace_sat::Cnf`] or
//!   DIMACS text), knapsack, n-queens, fib, sum, or any user-supplied
//!   [`hyperspace_recursion::RecProgram`] via type erasure — each with
//!   its own machine configuration ([`JobSpec`]: topology, mapper,
//!   layer-4 cancellation, step cap, root placement);
//! * **deadlines and cancellation** ([`JobRequest::deadline`],
//!   [`JobHandle::cancel`]): wall-clock budgets count from submission,
//!   and both queued and mid-solve jobs stop cooperatively through the
//!   engine's [`hyperspace_sim::StopHandle`] hook, yielding
//!   [`JobOutcome::TimedOut`] / [`JobOutcome::Cancelled`] without
//!   stalling the pool;
//! * **one job lifecycle**: every started job is a
//!   [`hyperspace_core::RunSlice`] (one stack or a whole race, one slice
//!   or many cut at checkpoint barriers), and every decision about it —
//!   admit, pick up, preempt, suspend, restart, retire, recover — is an
//!   event on one clock-free, thread-free [`scheduler::Scheduler`] behind
//!   one mutex; the worker pool only drives it, running slices, store
//!   writes and handle wake-ups outside that lock, and every job leaves
//!   through one door;
//! * a keyed **result cache**: [`JobSpec::cache_key`] normalises a job
//!   into a canonical string, and repeated identical submissions are
//!   answered with the cached [`hyperspace_core::RunSummary`] without
//!   re-solving;
//! * a [`ServiceStats`] report: throughput, queue-wait and solve-time
//!   histograms (`hyperspace_obs::Histogram`), cache hit rate, and
//!   per-worker utilization;
//! * a **live observability layer** ([`SolverService::observe`] →
//!   [`ServiceObserver`]): per-job progress probes fed from inside the
//!   engines (steps, deliveries, frontier, incumbents, checkpoint and
//!   barrier timing), a lifecycle flight recorder whose tail is dumped
//!   when a worker panics, JSON snapshots and ASCII dashboards — all
//!   strictly one-way, so observed runs stay bit-identical to
//!   un-observed ones.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use hyperspace_service::{JobKind, JobRequest, JobSpec, SolverService};
//! use hyperspace_core::TopologySpec;
//! use hyperspace_sat::gen;
//!
//! let service = SolverService::with_workers(2);
//!
//! // A SAT instance on a 6x6 torus, high priority, 10s budget.
//! let sat = JobRequest::new(
//!     JobSpec::new(JobKind::sat(gen::uf20_91(42)))
//!         .topology(TopologySpec::Torus2D { w: 6, h: 6 }),
//! )
//! .priority(10)
//! .deadline(Duration::from_secs(10));
//! let handle = service.submit(sat);
//!
//! // A knapsack job rides along at default priority.
//! let other = service.submit(JobKind::fib(12));
//!
//! assert!(handle.wait().outcome.is_completed());
//! assert!(other.wait().outcome.is_completed());
//! println!("{}", service.stats());
//! ```

#![warn(missing_docs)]

mod handle;
mod job;
mod observe;
pub mod persist;
pub mod scheduler;
mod service;
mod stats;

pub use handle::{JobHandle, JobStatus};
pub use job::{JobKind, JobOutcome, JobRequest, JobResult, JobSpec};
pub use observe::ServiceObserver;
pub use service::{ServiceConfig, SolverService};
pub use stats::ServiceStats;
