//! Demonstration applications for the hyperspace solver stack.
//!
//! The paper closes by noting the fork-join mechanism "is in fact more
//! general" than SAT solving (§VI-C). These programs exercise that
//! generality — and double as workload generators for the benchmark
//! harness:
//!
//! * [`SumProgram`] — Listings 2/3: the linear recursion `sum(n)`;
//!   zero parallelism, pure call/reply chain (a latency probe).
//! * [`FibProgram`] — naive Fibonacci; exponential fan-out of tiny tasks
//!   joined with `All` (a throughput/mapping stress test).
//! * [`NQueensProgram`] — counts N-Queens placements; irregular fan-out
//!   with `All` joins summing counts.
//! * [`KnapsackProgram`] — 0/1 knapsack by branch and bound, pruning on
//!   a path's own value; demonstrates cross-layer weight hints (§III-B3).
//! * [`BnbKnapsackProgram`] — exact 0/1 knapsack driven by the stack's
//!   optimisation mode: a *shared* incumbent gossips through the mesh
//!   and prunes via the fractional-relaxation upper bound. Both knapsack
//!   programs run on one task, [`BnbKnapsackTask`].
//! * [`TspProgram`] — small-instance TSP by branch and bound with a
//!   reduced-cost lower bound (the minimisation complement).
//! * [`traversal`] — Listing 1's flood-fill, written directly against
//!   layer 1.
//!
//! A search task is a path over one shared instance, as a SAT sub-problem
//! is a path over its root formula: the knapsack items and the TSP
//! distance matrix sit behind one `Arc` that every task of a search holds,
//! and a child adds O(1) to its parent — the next item, a visited city, or
//! (N-Queens, whose instance is its size) three attack masks. Moving a
//! task through the mesh copies no instance.

#![warn(missing_docs)]

pub mod fib;
pub mod knapsack;
pub mod nqueens;
pub mod sum;
pub mod traversal;
pub mod tsp;

pub use fib::FibProgram;
pub use knapsack::{
    fractional_bound, knapsack_reference, seeded_items, sort_by_density, total_value,
    BnbKnapsackProgram, BnbKnapsackTask, Item, KnapsackProgram, KNAPSACK_MAX_TOTAL_VALUE,
};
pub use nqueens::{NQueensProgram, QueensTask, QUEENS_MAX_N};
pub use sum::SumProgram;
pub use tsp::{tsp_reference, TspInstance, TspProgram, TspTask, TSP_INFEASIBLE, TSP_MAX_CITIES};
