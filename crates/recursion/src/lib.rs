//! **Layer 4 — Recursion** (paper §III-A4, §IV-C).
//!
//! "The purpose of layer 4 is to hide message passing entirely and run
//! recursive applications written in a high-level programming model. The
//! conversion between message passing and the target programming model is
//! achieved using continuation: the ability to suspend a program, preserve
//! its state then resume its execution sometime later."
//!
//! Stable Rust has no native coroutines, so this crate offers *two*
//! equivalent encodings of the paper's `yield` mechanism:
//!
//! * [`RecProgram`] — defunctionalised continuations: the program returns
//!   [`Step::Spawn`] carrying its sub-calls (a [`Calls`] batch, inline up
//!   to two) and an explicit `Frame` value (the saved activation), and is
//!   later resumed with `resume(frame, results)`. This is the
//!   zero-overhead form used by the SAT solver.
//! * [`Rec`] / [`FnProgram`] — a CPS combinator layer recovering
//!   Listing 3's ergonomics: `Rec::call(n - 1).then(move |total|
//!   Rec::done(total + n))`. The boxed `FnOnce` closure *is* the saved
//!   continuation, stored verbatim in the call record.
//!
//! [`RecursionHost`] drives either encoding over layer 3: each subcall
//!   becomes a ticketed `Request`, each pending activation a *call record*
//!   (Figure 3) holding the frame, the join mode, a count of pending
//!   sub-calls and, for an `All` join, result slots. A node's records are
//!   rows of a slab reached through the sub-call tickets; a finished
//!   activation's row is reused by the next one to suspend. Joins follow
//!   §IV-C:
//!
//! * [`Join::All`] — `yield Sync()`: resume once every subcall returned,
//!   with the results in a [`Calls`] batch of their own;
//! * [`Join::Any`] — non-deterministic choice: resume as soon as a result
//!   satisfies the validator (`is_valid`), ignoring or (optionally,
//!   beyond-paper) *cancelling* the remaining evaluations.

#![warn(missing_docs)]

mod calls;
mod cps;
mod host;
mod program;

pub use calls::Calls;
pub use cps::{FnProgram, Pending, Rec};
pub use host::{BnbMode, FrontierSnapshot, IncumbentEvent, RecState, RecStats, RecursionHost};
pub use program::{eval_local, Join, Objective, RecProgram, Resumed, Spawn, Step};
