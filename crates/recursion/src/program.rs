//! The defunctionalised recursive-program interface.

use hyperspace_mapping::Weight;

use crate::Calls;

/// Direction of an optimisation objective (branch-and-bound mode).
///
/// An *incumbent* is the best complete solution value found anywhere in
/// the mesh so far. Under `Maximise` a candidate improves the incumbent
/// when it is strictly larger; under `Minimise` when strictly smaller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Larger solution values are better (e.g. knapsack value).
    Maximise,
    /// Smaller solution values are better (e.g. tour cost).
    Minimise,
}

impl Objective {
    /// Whether `candidate` strictly improves on `incumbent`.
    pub fn improves(self, candidate: i64, incumbent: i64) -> bool {
        match self {
            Objective::Maximise => candidate > incumbent,
            Objective::Minimise => candidate < incumbent,
        }
    }

    /// Whether a subtree whose best-case `bound` can still beat
    /// `incumbent` — the complement is the prune condition.
    pub fn bound_beats(self, bound: i64, incumbent: i64) -> bool {
        self.improves(bound, incumbent)
    }

    /// The better of two values under this objective.
    pub fn better(self, a: i64, b: i64) -> i64 {
        if self.improves(b, a) {
            b
        } else {
            a
        }
    }
}

/// A recursive program in suspended-activation form.
///
/// A conventional recursive function
///
/// ```text
/// f(arg) = ... f(a1) ... f(a2) ...
/// ```
///
/// is encoded as a state machine: [`RecProgram::start`] runs the body up to
/// the first batch of recursive calls and returns either the final answer
/// ([`Step::Done`]) or a [`Spawn`]: the sub-call arguments, a join mode, and
/// a `Frame` capturing everything needed to continue. When the join
/// completes, [`RecProgram::resume`] continues from the frame. Programs may
/// suspend any number of times before finishing.
pub trait RecProgram: Send + Sync + 'static {
    /// Argument of a (sub-)invocation — must be self-contained, as it
    /// travels in messages. It may share an immutable instance through
    /// an `Arc`, as every search task in `hyperspace-apps` does.
    type Arg: Clone + Send;
    /// Result of an invocation.
    type Out: Clone + Send;
    /// A saved activation: everything live across a suspension point.
    type Frame: Send;

    /// Begins evaluating `f(arg)`, running until the first suspension.
    fn start(&self, arg: Self::Arg) -> Step<Self>;

    /// Continues a suspended activation with its sub-call results.
    fn resume(&self, frame: Self::Frame, results: Resumed<Self::Out>) -> Step<Self>;

    /// Cross-layer size hint for a sub-call (§III-B3); 0 means none.
    /// Hint-aware mappers (layer 3) use this to keep small work local and
    /// delegate big work to idle regions.
    fn weight(&self, _arg: &Self::Arg) -> Weight {
        0
    }

    // --- Optimisation-mode hooks (branch and bound) -------------------
    //
    // Enumeration programs ignore all three defaults. An optimisation
    // program additionally tells the host (a) which completed results
    // are feasible solutions whose value may become the shared
    // incumbent, (b) the best value still achievable below an
    // unexpanded argument, and (c) what to answer for a pruned subtree.
    // The host (layer 4) does the rest: incumbents gossip through the
    // mesh as ordinary layer-3 messages and the prune predicate runs
    // before each activation is expanded.

    /// The objective value of a completed result, if it represents a
    /// feasible solution (`None` for enumeration programs and for
    /// infeasible sentinels). Must be *achievable*: only values that a
    /// genuine solution attains may ever become the incumbent,
    /// otherwise pruning loses the optimum.
    fn solution_value(&self, _out: &Self::Out) -> Option<i64> {
        None
    }

    /// The best objective value still achievable in the subtree rooted
    /// at `arg` — an upper bound under [`Objective::Maximise`], a lower
    /// bound under [`Objective::Minimise`]. `None` disables pruning for
    /// this argument.
    fn bound(&self, _arg: &Self::Arg) -> Option<i64> {
        None
    }

    /// The result to reply for a subtree pruned before expansion. It
    /// must be *dominated*: no better than any solution the subtree
    /// could have produced is required, only that it never beats the
    /// true optimum (e.g. the value accumulated so far for a maximiser,
    /// an infeasible sentinel for a minimiser). `None` disables pruning
    /// for this argument.
    fn pruned(&self, _arg: &Self::Arg) -> Option<Self::Out> {
        None
    }
}

/// Outcome of running an activation until its next suspension point.
pub enum Step<P: RecProgram + ?Sized> {
    /// The invocation finished with this result.
    Done(P::Out),
    /// The invocation suspended on a batch of sub-calls.
    Spawn(Spawn<P>),
}

/// A batch of sub-calls plus the continuation to run when they join.
pub struct Spawn<P: RecProgram + ?Sized> {
    /// Sub-call arguments, issued in order (slot `i` of an
    /// [`Resumed::All`] corresponds to the `i`-th call).
    pub calls: Calls<P::Arg>,
    /// When to resume.
    pub join: Join<P::Out>,
    /// The saved activation.
    pub frame: P::Frame,
}

/// Join modes for a batch of sub-calls (§IV-C).
#[derive(Clone, Copy)]
pub enum Join<R> {
    /// Wait for every result (`yield Sync()` after plain `Call`s).
    All,
    /// Non-deterministic choice: resume with the first result satisfying
    /// the validator; if all results arrive and none does, resume with
    /// `None` ("a null value is returned to the application").
    Any(fn(&R) -> bool),
}

impl<R> std::fmt::Debug for Join<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Join::All => f.write_str("Join::All"),
            Join::Any(_) => f.write_str("Join::Any(..)"),
        }
    }
}

/// The results handed back at resumption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Resumed<R> {
    /// All results, in sub-call order ([`Join::All`]): a batch comes back
    /// in the container it went out in, inline up to two.
    All(Calls<R>),
    /// The first valid result, or `None` if every sub-call returned an
    /// invalid one ([`Join::Any`]).
    Any(Option<R>),
}

impl<R> Resumed<R> {
    /// Unwraps a single-call [`Join::All`] result.
    pub fn into_single(self) -> R {
        match self {
            Resumed::All(v) if v.len() == 1 => v.into_iter().next().expect("len checked"),
            Resumed::All(v) => panic!("expected exactly one result, got {}", v.len()),
            Resumed::Any(_) => panic!("expected an All join"),
        }
    }

    /// Unwraps a [`Join::All`] result batch.
    pub fn into_all(self) -> Calls<R> {
        match self {
            Resumed::All(v) => v,
            Resumed::Any(_) => panic!("expected an All join"),
        }
    }

    /// Unwraps a [`Join::Any`] result.
    pub fn into_any(self) -> Option<R> {
        match self {
            Resumed::Any(r) => r,
            Resumed::All(_) => panic!("expected an Any join"),
        }
    }
}

/// Drives a [`RecProgram`] to completion *locally* (single core, no mesh),
/// evaluating sub-calls depth-first in issue order.
///
/// This is the reference sequential semantics: the distributed execution
/// over a hyperspace machine must produce the same result for programs
/// whose `Any`-joins are confluent (and exactly the same result for pure
/// `All`-join programs). The test-suites use it as an oracle.
///
/// The recursion lives on the heap, not the native stack: a stack of
/// suspended activations, each with the calls it has yet to issue, and
/// one stack of the results their finished calls returned. Depth is
/// bounded by memory only.
pub fn eval_local<P: RecProgram>(program: &P, arg: P::Arg) -> P::Out {
    /// An activation waiting on its batch; its results so far are
    /// `results[base..]`. An `Any` join keeps only the first valid one.
    struct Suspended<P: RecProgram> {
        frame: P::Frame,
        join: Join<P::Out>,
        calls: <Calls<P::Arg> as IntoIterator>::IntoIter,
        base: usize,
    }
    let mut stack: Vec<Suspended<P>> = Vec::new();
    let mut results: Vec<P::Out> = Vec::new();
    let mut step = program.start(arg);
    loop {
        match step {
            Step::Spawn(Spawn { calls, join, frame }) => stack.push(Suspended {
                frame,
                join,
                calls: calls.into_iter(),
                base: results.len(),
            }),
            Step::Done(out) => {
                let Some(top) = stack.last() else {
                    return out;
                };
                match top.join {
                    Join::All => results.push(out),
                    Join::Any(valid) if results.len() == top.base && valid(&out) => {
                        results.push(out)
                    }
                    Join::Any(_) => {}
                }
            }
        }
        // Issue the innermost activation's next call, or resume it once
        // every call has returned.
        let top = stack.last_mut().expect("an activation is suspended");
        step = match top.calls.next() {
            Some(call) => program.start(call),
            None => {
                let Suspended {
                    frame, join, base, ..
                } = stack.pop().expect("an activation is suspended");
                let resumed = match join {
                    Join::All => Resumed::All(results.drain(base..).collect()),
                    Join::Any(_) if results.len() > base => Resumed::Any(results.pop()),
                    Join::Any(_) => Resumed::Any(None),
                };
                program.resume(frame, resumed)
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resumed_unwrappers() {
        assert_eq!(Resumed::All(Calls::one(7)).into_single(), 7);
        assert_eq!(*Resumed::All(Calls::two(1, 2)).into_all(), [1, 2]);
        assert_eq!(Resumed::<u32>::Any(Some(3)).into_any(), Some(3));
        assert_eq!(Resumed::<u32>::Any(None).into_any(), None);
    }

    #[test]
    #[should_panic(expected = "expected exactly one result")]
    fn into_single_rejects_batches() {
        Resumed::All(Calls::two(1, 2)).into_single();
    }

    #[test]
    #[should_panic(expected = "expected an Any join")]
    fn into_any_rejects_all() {
        Resumed::All(Calls::one(1)).into_any();
    }

    #[test]
    fn join_debug() {
        assert_eq!(format!("{:?}", Join::<u32>::All), "Join::All");
        assert_eq!(format!("{:?}", Join::<u32>::Any(|_| true)), "Join::Any(..)");
    }
}
