//! Property tests: the distributed recursion host agrees with the local
//! reference evaluator on randomly generated programs.

use hyperspace_mapping::{trigger, LeastBusyMapper, MapConfig, MappingHost, RoundRobinMapper};
use hyperspace_recursion::{eval_local, Join, RecProgram, RecursionHost, Resumed, Spawn, Step};
use hyperspace_sim::{SimConfig, Simulation};
use hyperspace_topology::Torus;
use proptest::prelude::*;

/// A synthetic recursive program whose shape is driven by a seed table:
/// argument `k` spawns `branch[k % len]` children, each strictly smaller
/// than `k` (guaranteeing termination), and combines results by summing
/// plus its own id.
#[derive(Clone)]
struct TreeProgram {
    branch: Vec<u8>,
}

impl RecProgram for TreeProgram {
    type Arg = u32;
    type Out = u64;
    type Frame = u32;

    fn start(&self, k: u32) -> Step<Self> {
        let b = self.branch[k as usize % self.branch.len()] as u32;
        let calls: Vec<u32> = (0..b)
            .map(|i| (k.wrapping_mul(7).wrapping_add(i)) % k.max(1))
            .filter(|&c| c < k)
            .collect();
        if calls.is_empty() {
            return Step::Done(k as u64);
        }
        Step::Spawn(Spawn {
            calls: calls.into(),
            join: Join::All,
            frame: k,
        })
    }

    fn resume(&self, k: u32, results: Resumed<u64>) -> Step<Self> {
        Step::Done(results.into_all().into_iter().sum::<u64>() + k as u64)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random program shapes x random roots: distributed == local.
    #[test]
    fn distributed_equals_local_reference(
        branch in proptest::collection::vec(0u8..4, 1..6),
        root_arg in 1u32..40,
        lbn in any::<bool>(),
    ) {
        let program = TreeProgram { branch: branch.clone() };
        let expect = eval_local(&program, root_arg);

        let rec = RecursionHost::new(TreeProgram { branch: branch.clone() });
        let cfg = MapConfig::default();
        let got = if lbn {
            let host = MappingHost::new(rec, LeastBusyMapper::factory(), cfg);
            let mut sim = Simulation::new(Torus::new_2d(4, 4), host, SimConfig::default());
            sim.inject(0, trigger(root_arg));
            sim.run_to_quiescence().unwrap();
            *sim.state(0).root_result().expect("root result")
        } else {
            let host = MappingHost::new(rec, RoundRobinMapper::factory(), cfg);
            let mut sim = Simulation::new(Torus::new_2d(4, 4), host, SimConfig::default());
            sim.inject(0, trigger(root_arg));
            sim.run_to_quiescence().unwrap();
            *sim.state(0).root_result().expect("root result")
        };
        prop_assert_eq!(got, expect);
    }

    /// `Any` joins whose validator rejects everything resume with `None`
    /// exactly once, distributed or local.
    #[test]
    fn any_join_none_valid_is_deterministic(n in 1u64..12) {
        struct NeverValid;
        impl RecProgram for NeverValid {
            type Arg = u64;
            type Out = u64;
            type Frame = ();
            fn start(&self, k: u64) -> Step<Self> {
                if k == 0 {
                    return Step::Done(1);
                }
                Step::Spawn(Spawn {
                    calls: vec![k - 1, k / 2].into(),
                    join: Join::Any(|_| false),
                    frame: (),
                })
            }
            fn resume(&self, _f: (), results: Resumed<u64>) -> Step<Self> {
                // Always resumed with None.
                assert_eq!(results, Resumed::Any(None));
                Step::Done(0)
            }
        }
        let expect = eval_local(&NeverValid, n);
        prop_assert_eq!(expect, if n == 0 { 1 } else { 0 });
        let host = MappingHost::new(
            RecursionHost::new(NeverValid),
            RoundRobinMapper::factory(),
            MapConfig::default(),
        );
        let mut sim = Simulation::new(Torus::new_2d(3, 3), host, SimConfig::default());
        sim.inject(0, trigger(n));
        sim.run_to_quiescence().unwrap();
        prop_assert_eq!(sim.state(0).root_result(), Some(&expect));
    }
}
