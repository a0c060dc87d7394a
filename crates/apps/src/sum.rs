//! Listing 2/3: `sum(n) = n + sum(n-1)` as an explicit [`RecProgram`].
//!
//! The CPS form of this program appears throughout the documentation; this
//! module is the defunctionalised twin, useful where a nameable, zero-
//! allocation frame type matters.

use hyperspace_recursion::{Calls, Join, RecProgram, Resumed, Spawn, Step};

/// The paper's running example: sum of `1..=n` by linear recursion.
#[derive(Clone, Copy)]
pub struct SumProgram;

/// Saved activation: the `n` to add when the sub-call returns (the
/// `Continue(ticket, n)` record of Listing 2).
pub struct SumFrame {
    n: u64,
}

impl RecProgram for SumProgram {
    type Arg = u64;
    type Out = u64;
    type Frame = SumFrame;

    fn start(&self, n: u64) -> Step<Self> {
        if n < 1 {
            Step::Done(0)
        } else {
            Step::Spawn(Spawn {
                calls: Calls::one(n - 1),
                join: Join::All,
                frame: SumFrame { n },
            })
        }
    }

    fn resume(&self, frame: SumFrame, results: Resumed<u64>) -> Step<Self> {
        Step::Done(results.into_single() + frame.n)
    }

    fn weight(&self, arg: &u64) -> u32 {
        // Remaining chain length is exactly the sub-problem size.
        (*arg).min(u32::MAX as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperspace_core::{MapperSpec, StackBuilder, TopologySpec};
    use hyperspace_recursion::eval_local;

    #[test]
    fn closed_form() {
        for n in [0u64, 1, 2, 10, 50] {
            assert_eq!(eval_local(&SumProgram, n), n * (n + 1) / 2);
        }
    }

    #[test]
    fn distributed_matches_closed_form() {
        let report = StackBuilder::new(SumProgram)
            .topology(TopologySpec::Ring { n: 8 })
            .mapper(MapperSpec::RoundRobin)
            .run(20, 3);
        assert_eq!(report.result, Some(210));
    }

    #[test]
    fn weight_saturates() {
        assert_eq!(SumProgram.weight(&5), 5);
        assert_eq!(SumProgram.weight(&(u64::MAX)), u32::MAX);
    }
}
