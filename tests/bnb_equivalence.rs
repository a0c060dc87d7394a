//! Branch-and-bound conformance: for random optimisation instances the
//! B&B optimum must equal the classical oracle (DP for knapsack, brute
//! force for TSP), and the *entire run* — incumbent trace, node counts,
//! prune counts, metrics — must be bit-identical across the sequential,
//! parallel and sharded (K ∈ {1, 2, 7}) backends at multiple thread
//! counts. Incumbents travel as ordinary envelopes, so nothing here is
//! allowed to depend on the backend.

use hyperspace::apps::{
    knapsack_reference, sort_by_density, tsp_reference, BnbKnapsackProgram, BnbKnapsackTask, Item,
    TspInstance, TspProgram, TspTask,
};
use hyperspace::core::{
    BackendSpec, MapperSpec, ObjectiveSpec, Partition, PruneSpec, RecRunReport, StackBuilder,
    TopologySpec,
};
use proptest::prelude::*;

/// The backends every B&B case must survive unchanged.
fn backend_matrix() -> Vec<BackendSpec> {
    vec![
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
        BackendSpec::Sharded {
            shards: 7,
            partition: Partition::RoundRobin,
            threads: Some(7),
        },
    ]
}

fn arb_topology() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        (2u32..6, 2u32..6).prop_map(|(w, h)| TopologySpec::Torus2D { w, h }),
        (2u32..5).prop_map(|dim| TopologySpec::Hypercube { dim }),
        (4u32..12).prop_map(|n| TopologySpec::Ring { n }),
    ]
}

fn arb_mapper() -> impl Strategy<Value = MapperSpec> {
    prop_oneof![
        Just(MapperSpec::RoundRobin),
        Just(MapperSpec::LeastBusy {
            status_period: None
        }),
        any::<u64>().prop_map(|seed| MapperSpec::Random { seed }),
        (1u32..4).prop_map(|t| MapperSpec::WeightAware {
            local_threshold: t,
            status_period: None,
        }),
    ]
}

/// Deterministic item list from raw (weight, value) pairs, density
/// sorted so the fractional bound is tight.
fn items_from(raw: Vec<(u32, u32)>) -> Vec<Item> {
    let mut items: Vec<Item> = raw
        .into_iter()
        .map(|(weight, value)| Item { weight, value })
        .collect();
    sort_by_density(&mut items);
    items
}

macro_rules! assert_reports_identical {
    ($other:expr, $seq:expr, $tag:expr) => {{
        let (other, seq, tag): (&RecRunReport<u64>, &RecRunReport<u64>, &str) =
            (&$other, &$seq, &$tag);
        prop_assert_eq!(&other.result, &seq.result, "result {}", tag);
        prop_assert_eq!(other.outcome, seq.outcome, "outcome {}", tag);
        prop_assert_eq!(other.steps, seq.steps, "steps {}", tag);
        prop_assert_eq!(
            other.computation_time,
            seq.computation_time,
            "computation_time {}",
            tag
        );
        // Layer-4 optimisation state: incumbents, traces, prune counts.
        prop_assert_eq!(
            other.best_incumbent,
            seq.best_incumbent,
            "best_incumbent {}",
            tag
        );
        prop_assert_eq!(
            &other.incumbent_trace,
            &seq.incumbent_trace,
            "incumbent_trace {}",
            tag
        );
        prop_assert_eq!(&other.rec_totals, &seq.rec_totals, "rec_totals {}", tag);
        prop_assert_eq!(other.bounds_total, seq.bounds_total, "bounds_total {}", tag);
        prop_assert_eq!(
            other.requests_total,
            seq.requests_total,
            "requests_total {}",
            tag
        );
        prop_assert_eq!(
            other.replies_total,
            seq.replies_total,
            "replies_total {}",
            tag
        );
        // Layer-1 instrumentation.
        prop_assert_eq!(
            &other.metrics.delivered_per_node,
            &seq.metrics.delivered_per_node,
            "delivered_per_node {}",
            tag
        );
        prop_assert_eq!(
            &other.metrics.sent_per_node,
            &seq.metrics.sent_per_node,
            "sent_per_node {}",
            tag
        );
        prop_assert_eq!(
            other.metrics.queued_series.as_slice(),
            seq.metrics.queued_series.as_slice(),
            "queued_series {}",
            tag
        );
        prop_assert_eq!(
            other.metrics.delivered_series.as_slice(),
            seq.metrics.delivered_series.as_slice(),
            "delivered_series {}",
            tag
        );
        prop_assert_eq!(
            &other.metrics.hop_histogram,
            &seq.metrics.hop_histogram,
            "hop_histogram {}",
            tag
        );
        prop_assert_eq!(
            other.metrics.total_sent,
            seq.metrics.total_sent,
            "total_sent {}",
            tag
        );
        prop_assert_eq!(
            other.metrics.total_delivered,
            seq.metrics.total_delivered,
            "total_delivered {}",
            tag
        );
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) The B&B knapsack optimum equals the DP oracle, with and
    /// without pruning; (b) the full run — incumbent trace, node/prune
    /// counts, metrics — is bit-identical across every backend.
    #[test]
    fn bnb_knapsack_matches_dp_identically_on_every_backend(
        raw in proptest::collection::vec((1u32..16, 1u32..24), 4..9),
        topo in arb_topology(),
        mapper in arb_mapper(),
        cap_pct in 20u32..70,
        root_seed in any::<u32>(),
    ) {
        let items = items_from(raw);
        let capacity = (items.iter().map(|i| i.weight).sum::<u32>() * cap_pct / 100).max(1);
        let expect = knapsack_reference(&items, capacity);
        let nodes = topo.num_nodes() as u32;
        let root = root_seed % nodes;
        let run = |backend: BackendSpec, prune: PruneSpec| {
            StackBuilder::new(BnbKnapsackProgram)
                .topology(topo.clone())
                .mapper(mapper.clone())
                .backend(backend)
                .objective(ObjectiveSpec::Maximise)
                .prune(prune)
                .halt_on_root_reply(false)
                .run(BnbKnapsackTask::root(items.clone(), capacity), root)
        };

        // Pruning must not change the answer — only the work.
        let seq = run(BackendSpec::Sequential, PruneSpec::incumbent());
        prop_assert_eq!(seq.result, Some(expect), "pruned optimum != DP");
        prop_assert_eq!(seq.best_incumbent, Some(expect as i64));
        let exhaustive = run(BackendSpec::Sequential, PruneSpec::Off);
        prop_assert_eq!(exhaustive.result, Some(expect), "exhaustive optimum != DP");
        prop_assert!(
            seq.rec_totals.started <= exhaustive.rec_totals.started,
            "pruning may never expand more nodes"
        );

        for backend in backend_matrix() {
            let other = run(backend.clone(), PruneSpec::incumbent());
            let tag = format!("[{backend}]");
            assert_reports_identical!(other, seq, tag);
        }
    }

    /// The TSP minimisation complement: optimum equals brute force and
    /// the run is bit-identical across backends (halt-on-root-reply
    /// path).
    #[test]
    fn bnb_tsp_matches_brute_force_identically_on_every_backend(
        seed in any::<u64>(),
        n in 4usize..7,
        topo in arb_topology(),
        mapper in arb_mapper(),
        root_seed in any::<u32>(),
    ) {
        let inst = TspInstance::random(seed, n, 40);
        let expect = tsp_reference(&inst);
        let nodes = topo.num_nodes() as u32;
        let root = root_seed % nodes;
        let run = |backend: BackendSpec| {
            StackBuilder::new(TspProgram)
                .topology(topo.clone())
                .mapper(mapper.clone())
                .backend(backend)
                .objective(ObjectiveSpec::Minimise)
                .prune(PruneSpec::incumbent())
                .run(TspTask::root(inst.clone()), root)
        };
        let seq = run(BackendSpec::Sequential);
        prop_assert_eq!(seq.result, Some(expect), "B&B optimum != brute force");
        for backend in backend_matrix() {
            let other = run(backend.clone());
            let tag = format!("[{backend}]");
            assert_reports_identical!(other, seq, tag);
        }
    }
}

#[test]
fn incumbent_trace_is_monotone_per_node_and_ends_at_the_optimum() {
    // A drained maximisation run: per node the trace improves strictly,
    // and the globally last event is the optimum (the gossip flood has
    // reached everyone by quiescence).
    let mut items = vec![
        Item {
            weight: 4,
            value: 9,
        },
        Item {
            weight: 3,
            value: 8,
        },
        Item {
            weight: 6,
            value: 11,
        },
        Item {
            weight: 2,
            value: 3,
        },
        Item {
            weight: 5,
            value: 6,
        },
        Item {
            weight: 7,
            value: 13,
        },
        Item {
            weight: 1,
            value: 2,
        },
        Item {
            weight: 3,
            value: 5,
        },
    ];
    sort_by_density(&mut items);
    let capacity = 14;
    let expect = knapsack_reference(&items, capacity);
    let report = StackBuilder::new(BnbKnapsackProgram)
        .topology(TopologySpec::Torus2D { w: 4, h: 4 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .objective(ObjectiveSpec::Maximise)
        .prune(PruneSpec::incumbent())
        .halt_on_root_reply(false)
        .run(BnbKnapsackTask::root(items, capacity), 0);
    assert_eq!(report.result, Some(expect));
    assert!(!report.incumbent_trace.is_empty());
    assert_eq!(
        report.incumbent_trace.last().map(|e| e.value),
        Some(expect as i64)
    );
    for node in 0..16u32 {
        let mut last = None;
        for e in report.incumbent_trace.iter().filter(|e| e.node == node) {
            if let Some(prev) = last {
                assert!(e.value > prev, "node {node} trace not strictly improving");
            }
            last = Some(e.value);
        }
        if let Some(final_value) = last {
            assert!(final_value <= expect as i64, "incumbent above optimum");
        }
    }
}
