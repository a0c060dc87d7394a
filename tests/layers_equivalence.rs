//! Cross-layer equivalence: the same recursive computation yields the same
//! answer whether evaluated locally, over any topology, or under any
//! mapping policy — the separation-of-concerns guarantee of §III-B1.
//!
//! The second half of this suite holds the one step kernel to its
//! independent oracle: for random topology × program × seed × engine
//! configuration, the kernel — as one shard inline and as K ∈ {2, 7}
//! shards under both partitioners, inline and on worker threads — must
//! reproduce [`hyperspace::sim::reference`]'s run: outcome or error,
//! final states, every [`hyperspace::sim::record::SimMetrics`] field and
//! the full event trace.

use hyperspace::apps::fib::fib_reference;
use hyperspace::apps::{FibProgram, NQueensProgram, QueensTask, SumProgram};
use hyperspace::core::{BackendSpec, MapperSpec, StackBuilder, TopologySpec};
use hyperspace::mapping::{trigger, MapConfig, MapState, MappingHost};
use hyperspace::recursion::{eval_local, RecursionHost};
use hyperspace::sim::{
    reference, DeliveryModel, InitCtx, NodeId, NodeProgram, Outbox, Partition, RunOutcome,
    ShardedConfig, ShardedSimulation, SimConfig, Topology,
};
use proptest::prelude::*;

fn all_mappers() -> Vec<MapperSpec> {
    vec![
        MapperSpec::RoundRobin,
        MapperSpec::LeastBusy {
            status_period: None,
        },
        MapperSpec::Random { seed: 11 },
        MapperSpec::WeightAware {
            local_threshold: 3,
            status_period: None,
        },
    ]
}

fn all_topologies() -> Vec<TopologySpec> {
    vec![
        TopologySpec::Torus2D { w: 4, h: 4 },
        TopologySpec::Torus3D { x: 3, y: 3, z: 3 },
        TopologySpec::Hypercube { dim: 4 },
        TopologySpec::Full { n: 12 },
        TopologySpec::Ring { n: 7 },
        TopologySpec::Grid(vec![5, 3]),
    ]
}

#[test]
fn sum_is_mapper_and_topology_independent() {
    let expect = eval_local(&SumProgram, 25);
    assert_eq!(expect, 325);
    for topo in all_topologies() {
        for mapper in all_mappers() {
            let report = StackBuilder::new(SumProgram)
                .topology(topo.clone())
                .mapper(mapper.clone())
                .run(25, 0);
            assert_eq!(
                report.result,
                Some(expect),
                "sum diverged on {topo:?} + {mapper:?}"
            );
        }
    }
}

#[test]
fn fib_is_mapper_and_topology_independent() {
    let expect = fib_reference(14);
    for topo in all_topologies() {
        let report = StackBuilder::new(FibProgram)
            .topology(topo.clone())
            .mapper(MapperSpec::LeastBusy {
                status_period: None,
            })
            .run(14, 1);
        assert_eq!(report.result, Some(expect), "fib diverged on {topo:?}");
    }
}

#[test]
fn nqueens_count_is_placement_independent() {
    // Same computation rooted at different nodes of different machines.
    for (topo, root) in [
        (TopologySpec::Torus2D { w: 5, h: 5 }, 0u32),
        (TopologySpec::Torus2D { w: 5, h: 5 }, 24),
        (TopologySpec::Hypercube { dim: 5 }, 17),
    ] {
        let report = StackBuilder::new(NQueensProgram)
            .topology(topo.clone())
            .mapper(MapperSpec::RoundRobin)
            .run(QueensTask::root(6), root);
        assert_eq!(report.result, Some(4), "{topo:?} root {root}");
    }
}

#[test]
fn status_broadcasts_do_not_change_results() {
    // Periods below the node service rate (degree / period >= 1 msg/step)
    // overload the machine by design — see ablation_status. These stay in
    // the stable regime.
    for period in [None, Some(16), Some(8)] {
        let report = StackBuilder::new(SumProgram)
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .mapper(MapperSpec::LeastBusy {
                status_period: period,
            })
            .run(30, 0);
        assert_eq!(report.result, Some(465), "period {period:?}");
    }
}

// ---------------------------------------------------------------------
// The kernel against the reference interpreter
// ---------------------------------------------------------------------

/// A deterministic layer-1 program driven purely by its message payload:
/// every delivery folds a commutative hash into the node state and
/// forwards a decremented TTL along payload-derived ports — or, with
/// `far`, to a payload-derived node anywhere on the machine. Each node
/// also stays busy for `pulses` ticks, emitting on some of them, so a
/// ticking run crosses dead steps between the flood's end and quiescence.
#[derive(Clone)]
struct SeededScatter {
    far: bool,
    pulses: u32,
}

fn mix(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31) ^ v
}

impl NodeProgram for SeededScatter {
    type Msg = u64;
    type State = (u64, u32);

    fn init(&self, node: NodeId, _ctx: &InitCtx) -> (u64, u32) {
        (mix(node as u64), self.pulses)
    }

    fn on_message(&self, state: &mut (u64, u32), msg: u64, ctx: &mut Outbox<'_, u64>) {
        // Commutative fold: independent of delivery order within a batch.
        state.0 = state.0.wrapping_add(mix(msg));
        let ttl = msg & 0xFF;
        if ttl > 0 {
            let degree = ctx.degree();
            ctx.send_port((msg >> 8) as usize % degree, msg - 1);
            if ttl.is_multiple_of(3) && self.far {
                ctx.send(((msg >> 16) % ctx.num_nodes() as u64) as NodeId, msg - 1);
            } else if ttl.is_multiple_of(3) {
                ctx.send_port((msg >> 16) as usize % degree, msg - 1);
            }
        }
    }

    fn on_tick(&self, state: &mut (u64, u32), ctx: &mut Outbox<'_, u64>) {
        if state.1 > 0 {
            state.1 -= 1;
            if (state.0 ^ ctx.step()).is_multiple_of(5) {
                ctx.send_port(0, (state.0 & !0xFF) | 2);
            }
        }
    }

    fn is_idle(&self, state: &(u64, u32)) -> bool {
        state.1 == 0
    }
}

fn arb_topology() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        (2u32..6, 2u32..6).prop_map(|(w, h)| TopologySpec::Torus2D { w, h }),
        (2u32..4, 2u32..4, 2u32..4).prop_map(|(x, y, z)| TopologySpec::Torus3D { x, y, z }),
        (2u32..6).prop_map(|dim| TopologySpec::Hypercube { dim }),
        (3u32..20).prop_map(|n| TopologySpec::Ring { n }),
        (2u32..5, 2u32..5).prop_map(|(a, b)| TopologySpec::Grid(vec![a, b])),
    ]
}

fn arb_mapper() -> impl Strategy<Value = MapperSpec> {
    prop_oneof![
        Just(MapperSpec::RoundRobin),
        Just(MapperSpec::LeastBusy {
            status_period: None
        }),
        any::<u64>().prop_map(|seed| MapperSpec::Random { seed }),
        any::<u64>().prop_map(|seed| MapperSpec::GlobalRandom { seed }),
    ]
}

/// Every way the kernel can be driven: one shard inline (`seq`), and
/// K ∈ {2, 7} × {block, rr} × T ∈ {1 (inline), 3 (worker threads)}.
fn kernel_matrix() -> Vec<ShardedConfig> {
    let mut matrix = vec![ShardedConfig::with_shards(1)];
    for shards in [2, 7] {
        for partition in [Partition::Block, Partition::RoundRobin] {
            for threads in [1, 3] {
                matrix.push(ShardedConfig {
                    shards,
                    partition,
                    threads: Some(threads),
                });
            }
        }
    }
    matrix
}

/// Runs `program` on the kernel under every configuration of
/// [`kernel_matrix`] and demands the reference interpreter's run each
/// time: outcome or error value, steps, every `SimMetrics` field, the
/// full trace, and the states as `digest` renders them.
fn assert_kernel_matches_reference<P, D>(
    topo: &TopologySpec,
    program: P,
    cfg: &SimConfig,
    injections: &[(NodeId, P::Msg)],
    digest: impl Fn(&P::State) -> D,
) where
    P: NodeProgram + Clone,
    D: PartialEq + std::fmt::Debug,
{
    let oracle = reference::run(&topo.build(), &program, cfg, injections.iter().cloned());
    let expect: Vec<D> = oracle.states.iter().map(&digest).collect();
    for scfg in kernel_matrix() {
        let tag = format!(
            "K={} {:?} T={:?}",
            scfg.shards, scfg.partition, scfg.threads
        );
        let mut sim = ShardedSimulation::new(topo.build(), program.clone(), cfg.clone(), scfg);
        for (node, msg) in injections {
            sim.inject(*node, msg.clone());
        }
        match (sim.run_to_quiescence(), &oracle.result) {
            (Ok(report), Ok(oracle_report)) => {
                assert_eq!(report.outcome, oracle_report.outcome, "{tag}");
                assert_eq!(report.steps, oracle_report.steps, "{tag}");
                assert_eq!(
                    report.computation_time, oracle_report.computation_time,
                    "{}",
                    tag
                );
                assert_eq!(sim.metrics(), &oracle.metrics, "{tag}");
                assert_eq!(sim.trace(), oracle.trace.as_slice(), "{tag}");
                let nodes = 0..sim.topology().num_nodes() as NodeId;
                let states: Vec<D> = nodes.map(|node| digest(sim.state(node))).collect();
                assert_eq!(&states, &expect, "{tag}");
            }
            (got, oracle_result) => {
                assert_eq!(got.err(), oracle_result.clone().err(), "{tag}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Layer 1 on random machines, payloads and engine configurations:
    /// however the kernel is sharded and threaded, its run is the
    /// reference interpreter's.
    #[test]
    fn kernel_matches_the_reference_interpreter(
        topo in arb_topology(),
        seed in any::<u64>(),
        root_seed in any::<u32>(),
        delivery in prop_oneof![
            Just(DeliveryModel::AdjacentOnly),
            Just(DeliveryModel::Routed),
            Just(DeliveryModel::Direct),
        ],
        msgs_per_step in prop_oneof![Just(1u32), Just(3)],
        tick_every in prop_oneof![Just(None), Just(Some(4u64))],
        queue_capacity in prop_oneof![Just(None), (2usize..7).prop_map(Some)],
    ) {
        let root = (root_seed as usize % topo.num_nodes()) as NodeId;
        // Bounded TTL keeps the flood finite; upper bits steer it.
        let payload = (seed & !0xFF) | 14;
        let cfg = SimConfig {
            delivery,
            msgs_per_step,
            tick_every,
            queue_capacity,
            record_trace: true,
            ..SimConfig::default()
        };
        let program = SeededScatter {
            far: delivery != DeliveryModel::AdjacentOnly,
            pulses: 3,
        };
        assert_kernel_matches_reference(&topo, program, &cfg, &[(root, payload)], |s| *s);
    }

    /// Full-stack equivalence on random machines, mappers and inputs:
    /// the recursive sum must produce identical reports — result, step
    /// count, metrics — on every backend spelling, K ∈ {1, 2, 7}.
    #[test]
    fn stack_backends_are_equivalent(
        topo in arb_topology(),
        mapper in arb_mapper(),
        n in 0u64..30,
        root_seed in any::<u32>(),
    ) {
        let nodes = topo.num_nodes() as u32;
        let root = root_seed % nodes;
        let run = |backend: BackendSpec| {
            StackBuilder::new(SumProgram)
                .topology(topo.clone())
                .mapper(mapper.clone())
                .backend(backend)
                .run(n, root)
        };
        let seq = run(BackendSpec::Sequential);
        prop_assert_eq!(seq.result, Some(n * (n + 1) / 2));
        for backend in [
            BackendSpec::Parallel,
            BackendSpec::sharded(1),
            BackendSpec::Sharded {
                shards: 2,
                partition: Partition::RoundRobin,
                threads: Some(2),
            },
            BackendSpec::Sharded {
                shards: 7,
                partition: Partition::Block,
                threads: Some(3),
            },
        ] {
            let other = run(backend.clone());
            prop_assert_eq!(other.result, seq.result, "{}", backend);
            prop_assert_eq!(other.steps, seq.steps, "{}", backend);
            prop_assert_eq!(other.computation_time, seq.computation_time, "{}", backend);
            prop_assert_eq!(&other.rec_totals, &seq.rec_totals, "{}", backend);
            prop_assert_eq!(&other.metrics, &seq.metrics, "{}", backend);
        }
    }
}

/// A machine larger than 64 × 64 nodes, so one shard's active set spans
/// more than one summary word: walkers placed on both sides of the
/// 4,096-node boundary, routed far sends and ticks that visit everyone.
#[test]
fn a_shard_of_more_than_4096_nodes_matches_the_reference_interpreter() {
    let topo = TopologySpec::Torus2D { w: 72, h: 72 };
    let cfg = SimConfig {
        delivery: DeliveryModel::Routed,
        tick_every: Some(4),
        record_trace: true,
        ..SimConfig::default()
    };
    let program = SeededScatter {
        far: true,
        pulses: 2,
    };
    let walkers: Vec<(NodeId, u64)> = [0, 63, 4_095, 4_096, 4_160, 5_183]
        .into_iter()
        .map(|node| (node, (mix(node as u64) & !0xFF) | 14))
        .collect();
    assert_kernel_matches_reference(&topo, program, &cfg, &walkers, |s| *s);
}

/// The full five-layer stack through the reference interpreter: a
/// least-busy mapper with a status period makes every 6th step a tick
/// step on which all nodes broadcast, on top of the recursion's own
/// traffic. Assembled by hand from public constructors so the very same
/// layer-1 program runs on the interpreter and on the kernel, and tied
/// back to what `StackBuilder::run` reports for the same job.
#[test]
fn the_full_stack_runs_identically_on_the_reference_interpreter() {
    let topo = TopologySpec::Torus2D { w: 4, h: 4 };
    let mapper = MapperSpec::LeastBusy {
        status_period: Some(6),
    };
    let stack = || {
        MappingHost::new(
            RecursionHost::new(FibProgram),
            mapper.factory(),
            MapConfig {
                status_period: mapper.status_period(),
                halt_on_root_reply: true,
            },
        )
    };
    let cfg = SimConfig {
        tick_every: mapper.status_period(),
        record_trace: true,
        ..SimConfig::default()
    };
    let oracle = reference::run(&topo.build(), &stack(), &cfg, [(5, trigger(11))]);
    let report = oracle.result.clone().expect("reference run");
    assert_eq!(report.outcome, RunOutcome::Halted);
    assert_eq!(oracle.states[5].root_result(), Some(&fib_reference(11)));
    assert!(
        oracle.states.iter().all(|st| st.status_in > 0),
        "ticks fired"
    );

    for scfg in kernel_matrix() {
        let tag = format!(
            "K={} {:?} T={:?}",
            scfg.shards, scfg.partition, scfg.threads
        );
        let mut sim = ShardedSimulation::new(topo.build(), stack(), cfg.clone(), scfg);
        sim.inject(5, trigger(11));
        let got = sim.run_to_quiescence().expect("kernel run");
        assert_eq!(
            (got.outcome, got.steps),
            (report.outcome, report.steps),
            "{tag}"
        );
        assert_eq!(sim.metrics(), &oracle.metrics, "{tag}");
        assert_eq!(sim.trace(), oracle.trace.as_slice(), "{tag}");
        for (node, expect) in oracle.states.iter().enumerate() {
            let st = sim.state(node as NodeId);
            let digest =
                |st: &MapState<_, _>| (st.received(), st.requests_in, st.replies_in, st.status_in);
            assert_eq!(digest(st), digest(expect), "{tag}: node {node}");
            assert_eq!(st.app.stats, expect.app.stats, "{tag}: node {node}");
        }
    }

    let built = StackBuilder::new(FibProgram)
        .topology(topo)
        .mapper(mapper.clone())
        .run(11, 5);
    assert_eq!(built.result, Some(fib_reference(11)));
    assert_eq!(built.steps, report.steps);
    // `record_trace` aside the engine configuration is the same, so the
    // metrics are too.
    assert_eq!(built.metrics, oracle.metrics);
}

#[test]
fn conservation_no_activation_is_lost_or_duplicated() {
    // Quiescent fib run: every request serviced exactly once, every call
    // answered exactly once, no call records leak.
    let report = StackBuilder::new(FibProgram)
        .topology(TopologySpec::Torus3D { x: 3, y: 3, z: 3 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .halt_on_root_reply(false)
        .run(13, 0);
    // fib(13) spawns 2*fib(14)-1 = 753 activations.
    assert_eq!(report.rec_totals.started, 753);
    assert_eq!(report.rec_totals.completed, 753);
    assert_eq!(report.requests_total, 753);
    assert_eq!(report.replies_total, 753);
    assert_eq!(report.rec_totals.stale_replies, 0);
}
