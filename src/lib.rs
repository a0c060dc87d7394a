//! # hyperspace
//!
//! A multi-layer programming model for developing combinatorial solvers on
//! massively-parallel machines with regular topologies ("hyperspace
//! computers"), reproducing Tarawneh et al., *Programming Model to Develop
//! Supercomputer Combinatorial Solvers*, ICPP P2S2 2017.
//!
//! This facade re-exports the whole stack; see the individual crates for
//! the layer-by-layer story:
//!
//! | layer | crate | concern |
//! |-------|-------|---------|
//! | 1 | [`sim`] (+ [`topology`]) | message passing on a simulated mesh |
//! | 2 | [`sched`] | many lightweight processes per core |
//! | 3 | [`mapping`] | destination-less sends, mesh-level load balancing |
//! | 4 | [`recursion`] | continuation-based fork/join over messages |
//! | 5 | [`apps`], [`sat`] | plain recursive problem logic |
//!
//! [`core`] assembles the layers; [`service`] turns assembled stacks
//! into a multi-tenant solver service (worker pool, priority queue,
//! deadlines, result cache); [`obs`] holds the live telemetry, the
//! run-log [`obs::Histogram`] and the [`obs::ascii`] charts;
//! `hyperspace-bench` regenerates every figure of the paper (see
//! EXPERIMENTS.md).
//!
//! ## Quickstart
//!
//! ```
//! use hyperspace::core::{MapperSpec, StackBuilder, TopologySpec};
//! use hyperspace::recursion::{FnProgram, Rec};
//!
//! // Listing 3: sum(n) over a simulated 196-core torus.
//! let sum = FnProgram::new(|n: u64| -> Rec<u64, u64> {
//!     if n < 1 {
//!         Rec::done(0)
//!     } else {
//!         Rec::call(n - 1).then(move |total| Rec::done(total + n))
//!     }
//! });
//! let report = StackBuilder::new(sum)
//!     .topology(TopologySpec::Torus2D { w: 14, h: 14 })
//!     .mapper(MapperSpec::LeastBusy { status_period: None })
//!     .run(100, 0);
//! assert_eq!(report.result, Some(5050));
//! ```

pub use hyperspace_apps as apps;
pub use hyperspace_core as core;
pub use hyperspace_mapping as mapping;
pub use hyperspace_obs as obs;
pub use hyperspace_portfolio as portfolio;
pub use hyperspace_recursion as recursion;
pub use hyperspace_sat as sat;
pub use hyperspace_sched as sched;
pub use hyperspace_service as service;
pub use hyperspace_sim as sim;
pub use hyperspace_store as store;
pub use hyperspace_topology as topology;
