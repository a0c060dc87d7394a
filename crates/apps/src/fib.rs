//! Naive Fibonacci: the classic fork-join stress test.
//!
//! `fib(n)` spawns an exponential tree of tiny tasks — the worst case for
//! a mapping layer, since every activation immediately forks two more. Used
//! by the benchmarks to stress mapping policies independently of SAT.

use hyperspace_recursion::{Calls, Join, RecProgram, Resumed, Spawn, Step};

/// `fib(n) = fib(n-1) + fib(n-2)`, branching on every `n >= 2`.
#[derive(Clone, Copy)]
pub struct FibProgram;

impl RecProgram for FibProgram {
    type Arg = u64;
    type Out = u64;
    type Frame = ();

    fn start(&self, n: u64) -> Step<Self> {
        if n < 2 {
            Step::Done(n)
        } else {
            Step::Spawn(Spawn {
                calls: Calls::two(n - 1, n - 2),
                join: Join::All,
                frame: (),
            })
        }
    }

    fn resume(&self, _frame: (), results: Resumed<u64>) -> Step<Self> {
        let rs = results.into_all();
        Step::Done(rs[0] + rs[1])
    }

    fn weight(&self, arg: &u64) -> u32 {
        *arg as u32
    }
}

/// Closed-form oracle (iterative).
pub fn fib_reference(n: u64) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        let next = a + b;
        a = b;
        b = next;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperspace_core::{MapperSpec, StackBuilder, TopologySpec};
    use hyperspace_recursion::eval_local;

    #[test]
    fn reference_is_correct() {
        let expect = [0u64, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55];
        for (n, &e) in expect.iter().enumerate() {
            assert_eq!(fib_reference(n as u64), e);
        }
    }

    #[test]
    fn local_matches_reference() {
        for n in 0..15 {
            assert_eq!(eval_local(&FibProgram, n), fib_reference(n));
        }
    }

    #[test]
    fn distributed_fib_on_every_mapper() {
        for mapper in [
            MapperSpec::RoundRobin,
            MapperSpec::LeastBusy {
                status_period: None,
            },
            MapperSpec::WeightAware {
                local_threshold: 3,
                status_period: None,
            },
        ] {
            let report = StackBuilder::new(FibProgram)
                .topology(TopologySpec::Torus2D { w: 4, h: 4 })
                .mapper(mapper.clone())
                .run(13, 0);
            assert_eq!(report.result, Some(233), "{mapper:?}");
        }
    }

    #[test]
    fn fan_out_spreads_activations() {
        let report = StackBuilder::new(FibProgram)
            .topology(TopologySpec::Torus2D { w: 6, h: 6 })
            .mapper(MapperSpec::LeastBusy {
                status_period: None,
            })
            .halt_on_root_reply(false)
            .run(15, 0);
        // fib(15) spawns 1973 activations; they must not pile on one node.
        assert_eq!(report.rec_totals.started, 1973);
        let max_node = report
            .metrics
            .delivered_per_node
            .iter()
            .copied()
            .max()
            .unwrap();
        let total: u64 = report.metrics.delivered_per_node.iter().sum();
        assert!(
            (max_node as f64) < 0.25 * total as f64,
            "one node absorbed {max_node}/{total} deliveries"
        );
    }
}
