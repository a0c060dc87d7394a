//! **Layer 1 — Message Passing** (paper §III-A1, §IV-A).
//!
//! The base layer of the model is "a computer architecture that can emulate
//! a message passing system". This crate provides it behind one
//! [`NodeProgram`] interface, as **one engine**:
//!
//! * the step kernel ([`sharded`]) — the paper's evaluation backend
//!   (§IV-A): a deterministic *time-stepped* simulator. On each step,
//!   every node with a non-empty inbox pops one message and runs its
//!   `receive` handler; sends are enqueued for the following step; queues
//!   are unbounded (§V-A). The machine's state is cut into K shards that
//!   exchange at step barriers in deterministic key order, so a run is
//!   bit-identical for every shard count, partitioner and worker-thread
//!   count. [`Simulation`] is the kernel at K = 1, stepped inline on the
//!   calling thread; [`ShardedSimulation`] takes any K and runs its
//!   shards inline or on worker threads.
//! * [`mod@reference`] — the same semantics as a naive interpreter that
//!   visits every node every step and shares no queue code with the
//!   kernel: the oracle of the equivalence suites and the dense baseline
//!   of the stepping benchmark.
//!
//! Instrumentation matches §V-C: per-step queued-message totals
//! (*interconnect activity*), per-node delivered counts (*node activity*)
//! and first/last activity steps (*computation time*).
//!
//! # Example: Listing 1's mesh traversal
//!
//! ```
//! use hyperspace_sim::{NodeProgram, Outbox, SimConfig, Simulation};
//! use hyperspace_topology::{NodeId, Torus};
//!
//! struct Traverse;
//! impl NodeProgram for Traverse {
//!     type Msg = ();
//!     type State = bool; // visited flag
//!     fn init(&self, _node: NodeId, _ctx: &hyperspace_sim::InitCtx) -> bool { false }
//!     fn on_message(&self, visited: &mut bool, _msg: (), ctx: &mut Outbox<'_, ()>) {
//!         if !*visited {
//!             *visited = true;
//!             for port in 0..ctx.degree() {
//!                 ctx.send_port(port, ());
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Torus::new_2d(8, 8), Traverse, SimConfig::default());
//! sim.inject(0, ());
//! let report = sim.run_to_quiescence().unwrap();
//! assert!((0..64).all(|n| *sim.state(n)));
//! // Wavefront reaches the opposite corner (distance 8) at step 9; the
//! // duplicate-message backlog at the far corner drains by step 12.
//! assert_eq!(report.computation_time, 12);
//! ```

#![warn(missing_docs)]

mod checkpoint;
pub mod codec;
mod control;
mod engine;
mod envelope;
mod program;
pub mod record;
pub mod reference;
mod shard;
pub mod sharded;

pub use checkpoint::SimCheckpoint;
pub use codec::{Codec, CodecError};
pub use control::StopHandle;
pub use engine::{
    panic_message, DeliveryModel, RunOutcome, RunReport, SimConfig, SimError, Simulation,
    StepReport,
};
pub use envelope::Envelope;
pub use program::{InitCtx, NodeProgram, Outbox};
pub use sharded::{Partition, ShardedConfig, ShardedSimulation, SimShell};

pub use hyperspace_obs::{ObsHandle, Observer};
pub use hyperspace_topology::{NodeId, Topology};
