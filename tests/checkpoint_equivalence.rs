//! Checkpoint/suspend/resume bit-identity — the headline guarantee of
//! the checkpoint subsystem, enforced on randomised inputs:
//!
//! * **run-to-completion ≡ run-suspend-resume**: cutting a run at *any*
//!   checkpoint boundary, serialising it through the byte codec, and
//!   resuming — on the same backend or any other (seq / parallel /
//!   sharded:{1,2,7}, both partitioners) — produces an identical
//!   `RunReport`, final states, metrics and event trace;
//! * **crash-restore ≡ run-to-completion**: restoring durable
//!   checkpoint bytes after the original machine is gone finishes the
//!   run identically;
//! * **checkpoints are canonical**: every backend emits byte-identical
//!   checkpoints for the same run at the same step — and the bytes are
//!   pinned by a golden fixture written before the engines were unified,
//!   because durable-store records hold them;
//! * **sliced stack runs ≡ monolithic runs** for the full five-layer
//!   stack (where state lives in closures and suspension parks the live
//!   machine instead of serialising it);
//! * **resumed portfolio races ≡ uninterrupted races**: same winner,
//!   same bus counters, per-member reports equal, whatever the epoch
//!   chunking — and whether the chunks are cut by hand or by driving the
//!   race as the [`RunSlice`] it is;
//! * **every job kind, sliced or whole, served or direct** reproduces
//!   the summaries recorded at the commit before the service's job
//!   lifecycle was unified (`tests/golden/job_matrix.expected`).

use std::sync::Arc;

use hyperspace::core::{
    BackendSpec, CheckpointSpec, JobParams, MapperSpec, ObsHandle, PortfolioSpec, RunSlice,
    RunSummary, SliceOutcome, StackBuilder, TopologySpec,
};
use hyperspace::obs::JobProbe;
use hyperspace::sat::gen;
use hyperspace::sim::{
    DeliveryModel, InitCtx, NodeId, NodeProgram, Outbox, Partition, RunOutcome, ShardedConfig,
    ShardedSimulation, SimCheckpoint, SimConfig, Simulation,
};
use proptest::prelude::*;

fn mix(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31) ^ v
}

/// A deterministic scatter flood with a TTL — state and message types
/// are plain `u64`s, so the program is checkpointable through the codec.
#[derive(Clone)]
struct SeededScatter;

impl NodeProgram for SeededScatter {
    type Msg = u64;
    type State = u64;

    fn init(&self, node: NodeId, _ctx: &InitCtx) -> u64 {
        mix(node as u64)
    }

    fn on_message(&self, state: &mut u64, msg: u64, ctx: &mut Outbox<'_, u64>) {
        *state = state.wrapping_add(mix(msg));
        let ttl = msg & 0xFF;
        if ttl > 0 {
            let degree = ctx.degree();
            ctx.send_port((msg >> 8) as usize % degree, msg - 1);
            if ttl.is_multiple_of(3) {
                ctx.send_port((msg >> 16) as usize % degree, msg - 1);
            }
        }
    }
}

/// Far sends (routed transit) plus a hot node 0 (inbox backlog); the
/// state fold is order-sensitive, so a reordered queue changes it.
#[derive(Clone)]
struct FarScatter;

impl NodeProgram for FarScatter {
    type Msg = u64;
    type State = u64;

    fn init(&self, node: NodeId, _ctx: &InitCtx) -> u64 {
        mix(node as u64)
    }

    fn on_message(&self, state: &mut u64, msg: u64, ctx: &mut Outbox<'_, u64>) {
        *state = state.wrapping_mul(31).wrapping_add(mix(msg) ^ ctx.step());
        let ttl = msg & 0xFF;
        if ttl > 0 {
            let n = ctx.num_nodes() as u64;
            ctx.send(((msg >> 8) % n) as NodeId, (mix(msg) & !0xFF) | (ttl - 1));
            if ttl.is_multiple_of(2) {
                ctx.send(0, (mix(msg ^ 1) & !0xFF) | (ttl - 1));
            }
        }
    }
}

/// The checkpoint format is durable: `tests/golden/ckpt_routed_midflight.bin`
/// was written by `Simulation::snapshot()` at commit cbd4b49 (the last one
/// with two engines) on a routed 5x5-torus `FarScatter` run cut at step 9
/// with 9 messages in transit and a 2-deep backlog; finishing it there
/// took 50 steps and 153 deliveries and snapshotted to
/// `ckpt_routed_final.bin` (states, every metric and the full trace).
/// Today's kernel must read those bytes, re-emit them unchanged at the
/// cut, and finish to the same final bytes, under any sharding.
#[test]
fn golden_checkpoint_restores_finishes_and_re_encodes_byte_for_byte() {
    let mid = std::fs::read("tests/golden/ckpt_routed_midflight.bin").expect("golden fixture");
    let fin = std::fs::read("tests/golden/ckpt_routed_final.bin").expect("golden fixture");
    let ckpt = SimCheckpoint::from_bytes(&mid).expect("parent-commit bytes decode");
    assert_eq!(ckpt.step(), 9);
    let cfg = SimConfig {
        delivery: DeliveryModel::Routed,
        record_trace: true,
        ..SimConfig::default()
    };
    let topo = || hyperspace::topology::Torus::new_2d(5, 5);
    for scfg in [
        ShardedConfig::with_shards(1),
        ShardedConfig {
            shards: 3,
            partition: Partition::RoundRobin,
            threads: Some(2),
        },
    ] {
        let tag = format!("K={}", scfg.shards);
        let mut sim = ShardedSimulation::restore(topo(), FarScatter, cfg.clone(), scfg, &ckpt)
            .expect("restores");
        assert_eq!(
            sim.snapshot().to_bytes(),
            mid,
            "{tag}: re-encode at the cut"
        );
        let report = sim.run_to_quiescence().expect("finishes");
        assert_eq!(report.outcome, RunOutcome::Quiescent, "{tag}");
        assert_eq!(report.steps, 50, "{tag}");
        assert_eq!(sim.metrics().total_delivered, 153, "{tag}");
        assert_eq!(sim.snapshot().to_bytes(), fin, "{tag}: final state");
    }
    // The sequential face reads the same bytes.
    let mut seq = Simulation::restore(topo(), FarScatter, cfg, &ckpt).expect("restores");
    assert_eq!(seq.snapshot().to_bytes(), mid);
    seq.run_to_quiescence().expect("finishes");
    assert_eq!(seq.snapshot().to_bytes(), fin);
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

fn sharded_matrix() -> Vec<ShardedConfig> {
    vec![
        // What the `parallel` backend lowers to.
        ShardedConfig::default(),
        ShardedConfig {
            shards: 1,
            partition: Partition::Block,
            threads: Some(1),
        },
        ShardedConfig {
            shards: 2,
            partition: Partition::RoundRobin,
            threads: Some(2),
        },
        ShardedConfig {
            shards: 7,
            partition: Partition::Block,
            threads: Some(3),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Layer-1 bit-identity: cut a run at an arbitrary step, round-trip
    /// the checkpoint through durable bytes, resume on every backend.
    #[test]
    fn snapshot_resume_is_bit_identical_across_backends(
        topo_spec in arb_topology(),
        seed in any::<u64>(),
        root_seed in any::<u32>(),
        cut_seed in any::<u32>(),
    ) {
        let nodes = topo_spec.num_nodes();
        let root = (root_seed as usize % nodes) as NodeId;
        let payload = (seed & !0xFF) | 14;
        let cfg = SimConfig { record_trace: true, ..SimConfig::default() };

        // Uninterrupted reference.
        let mut reference = Simulation::new(topo_spec.build(), SeededScatter, cfg.clone());
        reference.inject(root, payload);
        let ref_report = reference.run_to_quiescence().expect("reference run");
        let ref_trace = reference.trace().to_vec();
        let (ref_states, ref_metrics) = reference.into_parts();

        // Cut at an arbitrary boundary within the run (including 0 and
        // the final step).
        let cut = cut_seed as u64 % (ref_report.steps + 1);
        let mut interrupted = Simulation::new(topo_spec.build(), SeededScatter, cfg.clone());
        interrupted.inject(root, payload);
        interrupted.set_max_steps(cut);
        interrupted.run_to_quiescence().expect("prefix run");
        let bytes = interrupted.snapshot().to_bytes();
        drop(interrupted); // the original machine is gone (crash model)
        let ckpt = SimCheckpoint::from_bytes(&bytes).expect("durable bytes");
        prop_assert_eq!(ckpt.step(), cut);

        // Resume sequentially.
        let mut seq = Simulation::restore(
            topo_spec.build(), SeededScatter, cfg.clone(), &ckpt,
        ).expect("seq restore");
        let report = seq.run_to_quiescence().expect("seq resume");
        prop_assert_eq!(report.outcome, ref_report.outcome);
        prop_assert_eq!(report.steps, ref_report.steps);
        prop_assert_eq!(report.computation_time, ref_report.computation_time);
        prop_assert_eq!(seq.trace(), ref_trace.as_slice());
        let (states, metrics) = seq.into_parts();
        prop_assert_eq!(&states, &ref_states);
        prop_assert_eq!(&metrics.queued_series, &ref_metrics.queued_series);
        prop_assert_eq!(&metrics.delivered_per_node, &ref_metrics.delivered_per_node);
        prop_assert_eq!(&metrics.sent_per_node, &ref_metrics.sent_per_node);
        prop_assert_eq!(&metrics.hop_histogram, &ref_metrics.hop_histogram);
        prop_assert_eq!(metrics.total_sent, ref_metrics.total_sent);
        prop_assert_eq!(metrics.first_delivery_step, ref_metrics.first_delivery_step);
        prop_assert_eq!(metrics.last_delivery_step, ref_metrics.last_delivery_step);

        // Resume sharded under every configuration; each resumed run
        // must also re-emit the canonical checkpoint for its own step.
        for scfg in sharded_matrix() {
            let tag = format!("K={} {:?}", scfg.shards, scfg.partition);
            let mut sharded = ShardedSimulation::restore(
                topo_spec.build(), SeededScatter, cfg.clone(), scfg, &ckpt,
            ).expect("sharded restore");
            prop_assert_eq!(
                sharded.snapshot().to_bytes(), bytes.clone(),
                "restored checkpoint must re-serialise canonically ({})", &tag
            );
            let report = sharded.run_to_quiescence().expect("sharded resume");
            prop_assert_eq!(report.outcome, ref_report.outcome, "{}", &tag);
            prop_assert_eq!(report.steps, ref_report.steps, "{}", &tag);
            prop_assert_eq!(sharded.trace(), ref_trace.as_slice(), "{}", &tag);
            let (states, metrics) = sharded.into_parts();
            prop_assert_eq!(&states, &ref_states, "{}", &tag);
            prop_assert_eq!(&metrics.queued_series, &ref_metrics.queued_series, "{}", &tag);
            prop_assert_eq!(
                &metrics.delivered_per_node, &ref_metrics.delivered_per_node, "{}", &tag
            );
            prop_assert_eq!(&metrics.hop_histogram, &ref_metrics.hop_histogram, "{}", &tag);
        }
    }

    /// Every backend emits byte-identical checkpoints at every boundary
    /// — the canonical-format property the restore matrix relies on.
    #[test]
    fn checkpoint_bytes_are_canonical_across_backends(
        topo_spec in arb_topology(),
        seed in any::<u64>(),
        cut_seed in any::<u32>(),
    ) {
        let payload = (seed & !0xFF) | 11;
        let cfg = SimConfig { record_trace: true, ..SimConfig::default() };
        let mut probe = Simulation::new(topo_spec.build(), SeededScatter, cfg.clone());
        probe.inject(0, payload);
        let steps = probe.run_to_quiescence().expect("probe").steps;
        let cut = cut_seed as u64 % (steps + 1);

        let mut seq = Simulation::new(topo_spec.build(), SeededScatter, cfg.clone());
        seq.inject(0, payload);
        seq.set_max_steps(cut);
        seq.run_to_quiescence().expect("seq prefix");
        let reference = seq.snapshot().to_bytes();

        for scfg in sharded_matrix() {
            let tag = format!("K={} {:?}", scfg.shards, scfg.partition);
            let mut sharded = ShardedSimulation::new(
                topo_spec.build(), SeededScatter, cfg.clone(), scfg,
            );
            sharded.inject(0, payload);
            sharded.set_max_steps(cut);
            sharded.run_to_quiescence().expect("sharded prefix");
            prop_assert_eq!(sharded.snapshot().to_bytes(), reference.clone(), "{}", &tag);
        }
    }

    /// Full-stack bit-identity: a checkpointed (sliced) solve equals the
    /// monolithic solve on every backend, for any interval.
    #[test]
    fn sliced_stack_runs_match_monolithic_runs(
        topo_spec in arb_topology(),
        interval in 1u64..40,
        root_seed in any::<u32>(),
        fib in 6u64..11,
    ) {
        use hyperspace::apps::FibProgram;
        let nodes = topo_spec.num_nodes();
        let root = (root_seed as usize % nodes) as NodeId;
        let build = || {
            StackBuilder::new(FibProgram)
                .topology(topo_spec.clone())
                .mapper(MapperSpec::LeastBusy { status_period: None })
        };
        let reference = build().run(fib, root);
        for backend in [BackendSpec::Sequential, BackendSpec::sharded(3)] {
            let sliced = build()
                .backend(backend.clone())
                .checkpoint(CheckpointSpec::every(interval))
                .run(fib, root);
            let tag = format!("{backend} interval={interval}");
            prop_assert_eq!(&sliced.result, &reference.result, "{}", &tag);
            prop_assert_eq!(sliced.outcome, reference.outcome, "{}", &tag);
            prop_assert_eq!(sliced.steps, reference.steps, "{}", &tag);
            prop_assert_eq!(sliced.computation_time, reference.computation_time, "{}", &tag);
            prop_assert_eq!(&sliced.rec_totals, &reference.rec_totals, "{}", &tag);
            prop_assert_eq!(
                &sliced.metrics.queued_series, &reference.metrics.queued_series, "{}", &tag
            );
            prop_assert_eq!(
                &sliced.metrics.delivered_per_node,
                &reference.metrics.delivered_per_node,
                "{}", &tag
            );
        }
    }

    /// Suspending through the erased RunSlice surface at every barrier —
    /// the exact path the service's preemptive scheduler drives — leaves
    /// the summary bit-identical.
    #[test]
    fn manually_suspended_slices_finish_identically(
        interval in 1u64..30,
        sum in 5u64..25,
    ) {
        let build = || {
            StackBuilder::new(hyperspace::apps::SumProgram)
                .topology(TopologySpec::Torus2D { w: 4, h: 4 })
        };
        let reference = build().run(sum, 0).summary();
        let mut slice = build()
            .checkpoint(CheckpointSpec::every(interval))
            .start(sum, 0);
        let summary = loop {
            match slice.run_slice() {
                SliceOutcome::Finished(summary) => break summary,
                SliceOutcome::Yielded(next) => slice = next,
            }
        };
        prop_assert_eq!(summary, reference);
    }
}

/// Drives a started race as the [`RunSlice`] it is, to its summary;
/// every yield must land on a whole number of `chunk`-epoch slices, and
/// the race's observer `probe` must have seen every `epoch`-step epoch
/// up to that barrier.
fn drive_slices(
    race: hyperspace::portfolio::PortfolioRace,
    slice_steps: u64,
    epoch: u64,
    probe: &JobProbe,
) -> (RunSummary, u64) {
    let mut slice: Box<dyn RunSlice> = Box::new(race);
    let mut yields = 0u64;
    loop {
        match slice.run_slice() {
            SliceOutcome::Finished(summary) => return (summary, yields),
            SliceOutcome::Yielded(next) => {
                yields += 1;
                assert_eq!(next.steps_done(), yields * slice_steps);
                assert_eq!(probe.epoch() * epoch, next.steps_done());
                slice = next;
            }
        }
    }
}

/// A probe to observe a race with, and the handle that attaches it.
fn race_probe() -> (Arc<JobProbe>, ObsHandle) {
    let probe = Arc::new(JobProbe::new(0, "race", None));
    (probe.clone(), ObsHandle::new(probe))
}

/// The checkpoint spec under which a race of `epoch`-step epochs cuts
/// its slices every `chunk` epochs (`u64::MAX`: one slice, the whole
/// race).
fn every_epochs(chunk: u64, epoch: u64) -> CheckpointSpec {
    match chunk {
        u64::MAX => CheckpointSpec::Off,
        n => CheckpointSpec::every(n * epoch),
    }
}

/// A resumed portfolio race picks the same winner with identical bus
/// counters: driving the race in chunks of 1, 2 or 5 epochs (suspending
/// between chunks) equals the uninterrupted run, member for member —
/// and so does driving it through `run_slice` under a checkpoint spec
/// worth 1, 3 or all of its epochs.
#[test]
fn resumed_portfolio_races_pick_the_same_winner_with_identical_bus_counters() {
    use hyperspace::portfolio::PortfolioRunner;
    for seed in [7u64, 21] {
        let cnf = gen::uf20_91(seed);
        // Two-step epochs: these races run five and six of them (one, at
        // the default thirty-two), so every chunking below really cuts.
        let runner = PortfolioRunner::new(PortfolioSpec::diversified_sat(5).epoch(2))
            .topology(TopologySpec::Torus2D { w: 6, h: 6 })
            .threads(2);
        let reference = runner.run_sat(&cnf);
        assert!(reference.epochs >= 5, "seed={seed}");
        for chunk in [1u64, 3, u64::MAX] {
            let epoch = runner.spec().epoch_steps;
            let params = JobParams {
                topology: TopologySpec::Torus2D { w: 6, h: 6 },
                checkpoint: every_epochs(chunk, epoch),
                portfolio: Some(runner.spec().clone()),
                ..JobParams::default()
            };
            let (probe, obs) = race_probe();
            let sliced = PortfolioRunner::from_params(&params)
                .expect("the params carry a portfolio")
                .threads(2)
                .observer(obs);
            let (summary, yields) = drive_slices(
                sliced.start_sat(&cnf),
                chunk.saturating_mul(epoch),
                epoch,
                &probe,
            );
            let tag = format!("seed={seed} run_slice chunk={chunk}");
            assert_eq!(summary, reference.clone().into_summary(), "{tag}");
            assert_eq!(yields, (reference.epochs - 1) / chunk, "{tag}");
        }
        for chunk in [1u64, 2, 5] {
            let mut race = runner.start_sat(&cnf);
            let mut chunks = 0u64;
            while !race.run_epochs(chunk) {
                chunks += 1;
                assert!(chunks < 1_000_000, "race must converge");
            }
            let resumed = race.finish();
            let tag = format!("seed={seed} chunk={chunk}");
            assert_eq!(resumed.winner, reference.winner, "{tag}");
            assert_eq!(resumed.outcome, reference.outcome, "{tag}");
            assert_eq!(resumed.epochs, reference.epochs, "{tag}");
            assert_eq!(resumed.clauses_shared, reference.clauses_shared, "{tag}");
            assert_eq!(
                resumed.clauses_imported, reference.clauses_imported,
                "{tag}"
            );
            assert_eq!(resumed.bounds_shared, reference.bounds_shared, "{tag}");
            assert_eq!(resumed.bounds_imported, reference.bounds_imported, "{tag}");
            assert_eq!(resumed.members.len(), reference.members.len(), "{tag}");
            for (a, b) in resumed.members.iter().zip(reference.members.iter()) {
                assert_eq!(a.summary, b.summary, "{tag} member {}", a.id);
                assert_eq!(a.finished_epoch, b.finished_epoch, "{tag} member {}", a.id);
                assert_eq!(
                    a.clauses_exported, b.clauses_exported,
                    "{tag} member {}",
                    a.id
                );
                assert_eq!(
                    a.clauses_imported, b.clauses_imported,
                    "{tag} member {}",
                    a.id
                );
            }
        }
    }
}

/// A B&B portfolio suspended mid-race resumes with its incumbent bus
/// intact and still reports the oracle optimum.
#[test]
fn resumed_bnb_portfolio_race_matches_the_uninterrupted_incumbent_flow() {
    use hyperspace::apps::{knapsack_reference, seeded_items, BnbKnapsackProgram, BnbKnapsackTask};
    use hyperspace::core::{ObjectiveSpec, PruneSpec, StrategySpec};
    use hyperspace::portfolio::PortfolioRunner;

    let items = seeded_items(13, 10, 14, 22);
    let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
    let oracle = knapsack_reference(&items, capacity) as i64;
    let spec = PortfolioSpec::new(vec![
        StrategySpec::mesh().with_prune(PruneSpec::incumbent()),
        StrategySpec::mesh()
            .with_prune(PruneSpec::incumbent())
            .with_mapper(MapperSpec::Random { seed: 3 }),
    ]);
    let runner = PortfolioRunner::new(spec)
        .topology(TopologySpec::Torus2D { w: 4, h: 4 })
        .objective(ObjectiveSpec::Maximise);
    let make = |_: usize, _: &StrategySpec| BnbKnapsackProgram;
    let reference = runner.run_mesh(make, BnbKnapsackTask::root(items.clone(), capacity));
    assert_eq!(reference.best_incumbent, Some(oracle));

    let mut race = runner.start_mesh(make, BnbKnapsackTask::root(items.clone(), capacity));
    while !race.run_epochs(1) {}
    let resumed = race.finish();
    assert_eq!(resumed.winner, reference.winner);
    assert_eq!(resumed.best_incumbent, Some(oracle));
    assert_eq!(resumed.bounds_shared, reference.bounds_shared);
    assert_eq!(resumed.bounds_imported, reference.bounds_imported);
    assert_eq!(resumed.epochs, reference.epochs);

    // The same race driven as a `RunSlice`, its slices 1, 3 or all of
    // its epochs long, folds to the uninterrupted summary.
    let epoch = runner.spec().epoch_steps;
    for chunk in [1u64, 3, u64::MAX] {
        let params = JobParams {
            topology: TopologySpec::Torus2D { w: 4, h: 4 },
            objective: ObjectiveSpec::Maximise,
            checkpoint: every_epochs(chunk, epoch),
            portfolio: Some(runner.spec().clone()),
            ..JobParams::default()
        };
        let (probe, obs) = race_probe();
        let sliced = PortfolioRunner::from_params(&params)
            .expect("the params carry a portfolio")
            .observer(obs);
        let race = sliced.start_mesh(make, BnbKnapsackTask::root(items.clone(), capacity));
        let (summary, yields) = drive_slices(race, chunk.saturating_mul(epoch), epoch, &probe);
        assert_eq!(summary, reference.clone().into_summary(), "chunk={chunk}");
        assert_eq!(yields, (reference.epochs - 1) / chunk, "chunk={chunk}");
    }
}

/// The fixed job matrix behind `tests/golden/job_matrix.expected`: every
/// persistable [`JobKind`], plus the SAT job under a flat and under an
/// expression portfolio.
fn job_matrix() -> Vec<(&'static str, hyperspace::service::JobSpec)> {
    use hyperspace::apps::{seeded_items, sort_by_density, TspInstance};
    use hyperspace::core::{ObjectiveSpec, PruneSpec};
    use hyperspace::service::{JobKind, JobSpec};
    let mut items = seeded_items(13, 8, 14, 22);
    sort_by_density(&mut items);
    let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
    let sat = || JobSpec::new(JobKind::sat(gen::uf20_91(3)));
    let expression = "portfolio(or(limit(nodes,64,mesh),mesh),cdcl)";
    vec![
        ("sat", sat()),
        (
            "knapsack",
            JobSpec::new(JobKind::knapsack(items.clone(), capacity)),
        ),
        (
            "bnb-knapsack",
            JobSpec::new(JobKind::bnb_knapsack(items, capacity))
                .objective(ObjectiveSpec::Maximise)
                .prune(PruneSpec::incumbent()),
        ),
        (
            "tsp",
            JobSpec::new(JobKind::tsp(TspInstance::random(1, 5, 10)))
                .objective(ObjectiveSpec::Minimise)
                .prune(PruneSpec::incumbent()),
        ),
        ("nqueens", JobSpec::new(JobKind::nqueens(6))),
        ("fib", JobSpec::new(JobKind::fib(10))),
        ("sum", JobSpec::new(JobKind::sum(20))),
        (
            "sat-diversified4",
            sat().portfolio(PortfolioSpec::diversified_sat(4)),
        ),
        (
            "sat-expression",
            sat().portfolio(expression.parse().expect("valid expression")),
        ),
    ]
}

/// Sliced or whole, one stack or a race, through a two-worker service or
/// through `into_erased().run(..)`: every cell of the matrix renders the
/// `RunSummary` recorded at commit 516ff1e, the last one where a job
/// changed shape four times between `submit()` and its result (the
/// recorder printed exactly the lines this test rebuilds).
#[test]
fn job_matrix_reproduces_the_parent_recorded_summaries_served_and_direct() {
    use hyperspace::service::{JobSpec, ServiceConfig, SolverService};
    let golden = std::fs::read_to_string("tests/golden/job_matrix.expected").expect("golden file");
    // No cache: each cell must really run (the cache key ignores the
    // checkpoint spec, so the sliced cell would be served the whole one).
    let service = SolverService::new(ServiceConfig {
        workers: 2,
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let mut lines = Vec::new();
    for (name, spec) in job_matrix() {
        for checkpoint in [CheckpointSpec::Off, CheckpointSpec::every(7)] {
            let cell = || {
                let kind = spec.kind.try_clone().expect("data-carrying kinds clone");
                let params = spec.params.clone();
                JobSpec { kind, params }
                    .topology(TopologySpec::Torus2D { w: 4, h: 4 })
                    .checkpoint(checkpoint)
            };
            let served = service.submit(cell()).wait();
            assert!(!served.from_cache, "{name} {checkpoint}");
            let served = served.outcome.summary().expect("completed").clone();
            let direct = cell();
            let direct = direct.kind.into_erased().run(&direct.params);
            lines.push(format!("{name} {checkpoint} service {served:?}"));
            lines.push(format!("{name} {checkpoint} direct {direct:?}"));
        }
    }
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), golden.len());
    for (line, expected) in lines.iter().zip(golden) {
        assert_eq!(line, expected);
    }
}
