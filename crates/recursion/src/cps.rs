//! The CPS combinator layer: Listing 3 ergonomics on stable Rust.
//!
//! A recursive function is written as a plain closure `Fn(Arg) -> Rec<Arg,
//! Out>`; every suspension point becomes a combinator whose boxed `FnOnce`
//! continuation is the paper's saved context. [`FnProgram`] adapts such a
//! closure to [`RecProgram`], with the boxed continuation serving as the
//! `Frame` stored in layer 4's call records.
//!
//! ```
//! use hyperspace_recursion::{FnProgram, Rec};
//!
//! // Listing 3: sum(n) = 0 if n < 1 else n + sum(n - 1)
//! let sum = FnProgram::new(|n: u64| {
//!     if n < 1 {
//!         Rec::done(0) // yield Result(0)
//!     } else {
//!         Rec::call(n - 1) // yield Call(n-1); total <- yield Sync()
//!             .then(move |total| Rec::done(total + n)) // yield Result(total + n)
//!     }
//! });
//! # let _ = sum;
//! ```

use crate::program::{Join, RecProgram, Resumed, Spawn, Step};
use crate::Calls;

/// The continuation type saved across suspensions.
type Cont<A, R> = Box<dyn FnOnce(Resumed<R>) -> Rec<A, R> + Send>;

/// A step of a CPS-encoded recursive computation.
pub enum Rec<A, R> {
    /// `yield Result(value)`.
    Done(R),
    /// One or more `yield Call(...)` followed by a join; `cont` is the code
    /// after the `yield Sync()`.
    Suspend {
        /// Sub-call arguments.
        calls: Calls<A>,
        /// Join mode.
        join: Join<R>,
        /// Code to run with the join's results.
        cont: Cont<A, R>,
    },
}

impl<A, R> Rec<A, R> {
    /// Finishes the invocation with `value`.
    pub fn done(value: R) -> Self {
        Rec::Done(value)
    }

    /// Issues a single sub-call; chain with [`Pending::then`].
    pub fn call(arg: A) -> Pending<A, R, R> {
        Pending::build(Calls::one(arg), Join::All)
    }

    /// Issues a batch of sub-calls joined with [`Join::All`]; chain with
    /// [`Pending::then_all`] receiving the results in call order, in the
    /// batch's own container.
    pub fn call_all(args: impl Into<Calls<A>>) -> Pending<A, R, Calls<R>> {
        Pending::build(args.into(), Join::All)
    }

    /// Issues a batch of speculative sub-calls with non-deterministic
    /// choice (§IV-C): the continuation receives the first result that
    /// satisfies `is_valid`, or `None` if none does.
    pub fn call_any(
        args: impl Into<Calls<A>>,
        is_valid: fn(&R) -> bool,
    ) -> Pending<A, R, Option<R>> {
        Pending::build(args.into(), Join::Any(is_valid))
    }
}

/// A suspension under construction: sub-calls issued, continuation not yet
/// attached. `T` is the shape of results the continuation will receive.
pub struct Pending<A, R, T> {
    calls: Calls<A>,
    join: Join<R>,
    // T records which `then` shape applies; phantom keeps the builder
    // type-safe.
    _marker_t: std::marker::PhantomData<fn() -> T>,
}

impl<A, R, T> Pending<A, R, T> {
    fn build(calls: Calls<A>, join: Join<R>) -> Self {
        Pending {
            calls,
            join,
            _marker_t: std::marker::PhantomData,
        }
    }
}

impl<A: 'static, R: 'static> Pending<A, R, R> {
    /// Attaches the continuation for a single sub-call.
    pub fn then<F>(self, f: F) -> Rec<A, R>
    where
        F: FnOnce(R) -> Rec<A, R> + Send + 'static,
    {
        Rec::Suspend {
            calls: self.calls,
            join: self.join,
            cont: Box::new(move |res| f(res.into_single())),
        }
    }
}

impl<A: 'static, R: 'static> Pending<A, R, Calls<R>> {
    /// Attaches the continuation for an all-join batch.
    pub fn then_all<F>(self, f: F) -> Rec<A, R>
    where
        F: FnOnce(Calls<R>) -> Rec<A, R> + Send + 'static,
    {
        Rec::Suspend {
            calls: self.calls,
            join: self.join,
            cont: Box::new(move |res| f(res.into_all())),
        }
    }
}

impl<A: 'static, R: 'static> Pending<A, R, Option<R>> {
    /// Attaches the continuation for a non-deterministic-choice batch.
    pub fn then_any<F>(self, f: F) -> Rec<A, R>
    where
        F: FnOnce(Option<R>) -> Rec<A, R> + Send + 'static,
    {
        Rec::Suspend {
            calls: self.calls,
            join: self.join,
            cont: Box::new(move |res| f(res.into_any())),
        }
    }
}

/// Adapts a `Fn(Arg) -> Rec<Arg, Out>` closure into a [`RecProgram`].
pub struct FnProgram<A, R, F> {
    f: F,
    _marker: std::marker::PhantomData<fn(A) -> R>,
}

impl<A, R, F> FnProgram<A, R, F>
where
    A: Clone + Send + 'static,
    R: Clone + Send + 'static,
    F: Fn(A) -> Rec<A, R> + Send + Sync + 'static,
{
    /// Wraps the recursive function body.
    pub fn new(f: F) -> Self {
        FnProgram {
            f,
            _marker: std::marker::PhantomData,
        }
    }

    fn lower(step: Rec<A, R>) -> Step<Self> {
        match step {
            Rec::Done(v) => Step::Done(v),
            Rec::Suspend { calls, join, cont } => Step::Spawn(Spawn {
                calls,
                join,
                frame: cont,
            }),
        }
    }
}

impl<A, R, F> RecProgram for FnProgram<A, R, F>
where
    A: Clone + Send + 'static,
    R: Clone + Send + 'static,
    F: Fn(A) -> Rec<A, R> + Send + Sync + 'static,
{
    type Arg = A;
    type Out = R;
    type Frame = Cont<A, R>;

    fn start(&self, arg: A) -> Step<Self> {
        Self::lower((self.f)(arg))
    }

    fn resume(&self, frame: Self::Frame, results: Resumed<R>) -> Step<Self> {
        Self::lower(frame(results))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::eval_local;

    #[test]
    fn sum_program_evaluates() {
        let sum = FnProgram::new(|n: u64| {
            if n < 1 {
                Rec::done(0)
            } else {
                Rec::call(n - 1).then(move |total| Rec::done(total + n))
            }
        });
        assert_eq!(eval_local(&sum, 10), 55);
        assert_eq!(eval_local(&sum, 0), 0);
        assert_eq!(eval_local(&sum, 100), 5050);
    }

    #[test]
    fn fib_with_all_join() {
        let fib = FnProgram::new(|n: u64| {
            if n < 2 {
                Rec::done(n)
            } else {
                Rec::call_all(vec![n - 1, n - 2]).then_all(|rs| Rec::done(rs[0] + rs[1]))
            }
        });
        let expect = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55];
        for (n, &e) in expect.iter().enumerate() {
            assert_eq!(eval_local(&fib, n as u64), e);
        }
    }

    #[test]
    fn any_join_picks_first_valid() {
        // "Find a perfect square in {n, n+1, n+2} or return 0."
        let search = FnProgram::new(|probe: u64| {
            if probe >= 100 {
                // leaf: is `probe - 100` a perfect square?
                let v = probe - 100;
                let root = (v as f64).sqrt() as u64;
                Rec::done(if root * root == v { v } else { u64::MAX })
            } else {
                Rec::call_any(vec![100 + probe, 100 + probe + 1, 100 + probe + 2], |r| {
                    *r != u64::MAX
                })
                .then_any(|r| Rec::done(r.unwrap_or(0)))
            }
        });
        // probe=3 -> candidates 3,4,5 -> 4 is the first valid square.
        assert_eq!(eval_local(&search, 3), 4);
        // probe=5 -> 5,6,7 -> none valid -> 0.
        assert_eq!(eval_local(&search, 5), 0);
    }

    #[test]
    fn multi_suspension_activation() {
        // Two sequential suspensions in one activation: g(n) = sum of two
        // sub-calls computed one after the other.
        let two_phase = FnProgram::new(|n: u32| -> Rec<u32, u32> {
            if n == 0 {
                Rec::done(1)
            } else {
                Rec::call(0)
                    .then(move |a: u32| Rec::call(0).then(move |b: u32| Rec::done(a + b + n)))
            }
        });
        assert_eq!(eval_local(&two_phase, 5), 7);
    }
}
