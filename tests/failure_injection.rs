//! Failure-injection paths: bounded queues, step caps and panicking
//! handlers surface as structured errors/outcomes rather than silent
//! corruption or deadlocks.

use hyperspace::apps::{knapsack_reference, seeded_items, BnbKnapsackProgram, BnbKnapsackTask};
use hyperspace::core::{
    BackendSpec, MapperSpec, ObjectiveSpec, PruneSpec, StackBuilder, TopologySpec,
};
use hyperspace::recursion::{RecProgram, Resumed, Step};
use hyperspace::sat::{gen, DpllProgram, Heuristic, SimplifyMode, SubProblem};
use hyperspace::sim::{
    InitCtx, NodeId, NodeProgram, Outbox, Partition, RunOutcome, ShardedConfig, ShardedSimulation,
    SimConfig, SimError,
};

#[test]
fn bounded_queues_overflow_with_diagnostics() {
    // A split-only SAT run floods queues far beyond 3 entries on a small
    // mesh; the engine must pinpoint the overflowing node and step.
    let cnf = gen::uf20_91(1);
    let program = DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly);
    let mut sim = StackBuilder::new(program)
        .topology(TopologySpec::Torus2D { w: 4, h: 4 })
        .mapper(MapperSpec::RoundRobin)
        .sim_config(SimConfig {
            queue_capacity: Some(3),
            ..SimConfig::default()
        })
        .build();
    sim.inject(0, hyperspace::mapping::trigger(SubProblem::root(cnf)));
    let err = sim
        .run_to_quiescence()
        .expect_err("3-entry queues cannot hold a split-only search");
    match &err {
        SimError::QueueOverflow { node, step, len } => {
            assert!((*node as usize) < 16);
            assert!(*step > 0);
            assert!(*len > 3);
        }
        other => panic!("expected QueueOverflow, got {other:?}"),
    }
    // The error formats usefully.
    let msg = format!("{err}");
    assert!(msg.contains("overflowed"), "{msg}");
}

#[test]
fn step_cap_reports_max_steps_outcome() {
    let cnf = gen::uf20_91(2);
    let program = DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly);
    let mut sim = StackBuilder::new(program)
        .topology(TopologySpec::Torus2D { w: 4, h: 4 })
        .mapper(MapperSpec::RoundRobin)
        .halt_on_root_reply(false)
        .max_steps(10) // far too few to finish
        .build();
    sim.inject(0, hyperspace::mapping::trigger(SubProblem::root(cnf)));
    let report = sim.run_to_quiescence().unwrap();
    assert_eq!(report.outcome, RunOutcome::MaxSteps);
    assert_eq!(report.steps, 10);
    // Messages remain queued: the run was genuinely truncated.
    assert!(sim.queued() > 0);
}

/// Flood-fill that detonates at one chosen node.
#[derive(Clone)]
struct PanicAt(NodeId);

impl NodeProgram for PanicAt {
    type Msg = ();
    type State = bool;
    fn init(&self, _node: NodeId, _ctx: &InitCtx) -> bool {
        false
    }
    fn on_message(&self, visited: &mut bool, _msg: (), ctx: &mut Outbox<'_, ()>) {
        if ctx.node() == self.0 {
            panic!("injected fault at node {}", self.0);
        }
        if !*visited {
            *visited = true;
            ctx.broadcast(());
        }
    }
}

#[test]
fn panicking_node_in_one_shard_surfaces_sim_error_without_deadlock() {
    // Node 27 sits in the middle of one of four shards; its panic must
    // come back as a structured SimError while the three sibling shards
    // finish their barrier protocol and exit (a deadlock would hang this
    // test forever — finishing *is* the assertion).
    for partition in [Partition::Block, Partition::RoundRobin] {
        for threads in [1usize, 4] {
            let mut sim = ShardedSimulation::new(
                hyperspace::topology::Torus::new_2d(6, 6),
                PanicAt(27),
                SimConfig::default(),
                ShardedConfig {
                    shards: 4,
                    partition,
                    threads: Some(threads),
                },
            );
            sim.inject(0, ());
            let err = sim
                .run_to_quiescence()
                .expect_err("the fault must surface as an error");
            match &err {
                SimError::HandlerPanic {
                    node,
                    step,
                    message,
                } => {
                    assert_eq!(*node, 27, "{partition:?} T={threads}");
                    assert!(*step > 0);
                    assert!(message.contains("injected fault"), "{message}");
                }
                other => panic!("expected HandlerPanic, got {other:?}"),
            }
            let msg = format!("{err}");
            assert!(msg.contains("panicked"), "{msg}");
            // Nodes the flood reached before the fault keep their state.
            assert!(*sim.state(0), "root was visited before the fault");
        }
    }
}

#[test]
fn panic_error_is_deterministic_across_shard_layouts() {
    // The surfaced error must not depend on sharding: same node, same
    // step, same message for every layout (and for repeated runs).
    let run = |shards: usize, threads: usize| {
        let mut sim = ShardedSimulation::new(
            hyperspace::topology::Torus::new_2d(6, 6),
            PanicAt(20),
            SimConfig::default(),
            ShardedConfig {
                shards,
                partition: Partition::Block,
                threads: Some(threads),
            },
        );
        sim.inject(0, ());
        sim.run_to_quiescence().expect_err("fault")
    };
    let baseline = run(1, 1);
    for (shards, threads) in [(2, 2), (4, 4), (9, 3), (36, 2)] {
        assert_eq!(run(shards, threads), baseline, "K={shards} T={threads}");
    }
}

/// Re-broadcasts every delivery; node 9 panics on its second message.
#[derive(Clone)]
struct SecondTouchOfNine;

impl NodeProgram for SecondTouchOfNine {
    type Msg = ();
    type State = u32;
    fn init(&self, _node: NodeId, _ctx: &InitCtx) -> u32 {
        0
    }
    fn on_message(&self, seen: &mut u32, _msg: (), ctx: &mut Outbox<'_, ()>) {
        *seen += 1;
        if ctx.node() == 9 && *seen == 2 {
            panic!("second touch of node 9");
        }
        ctx.broadcast(());
    }
}

#[test]
fn a_faulted_step_leaves_the_same_machine_for_every_sharding() {
    // Node 9 faults with messages of its own still to handle, and other
    // nodes of its shard still to run. The faulting node loses the rest
    // of its step, nobody else does — so the machine left behind, and
    // every step resumed from it, is the same whatever the sharding.
    let cfg = SimConfig {
        msgs_per_step: 3,
        ..SimConfig::default()
    };
    let run = |shards: usize, partition: Partition, threads: usize| {
        let mut sim = ShardedSimulation::new(
            hyperspace::topology::Torus::new_2d(5, 5),
            SecondTouchOfNine,
            cfg.clone(),
            ShardedConfig {
                shards,
                partition,
                threads: Some(threads),
            },
        );
        sim.inject(0, ());
        sim.inject(12, ());
        let err = sim.run_to_quiescence().expect_err("node 9 faults");
        let after_fault = sim.snapshot().to_bytes();
        sim.set_max_steps(sim.current_step() + 3);
        let resumed = sim.run_to_quiescence().expect("the machine resumes");
        assert_eq!(resumed.outcome, RunOutcome::MaxSteps);
        (err, after_fault, sim.snapshot().to_bytes())
    };
    let expect = run(1, Partition::Block, 1);
    assert!(
        matches!(expect.0, SimError::HandlerPanic { node: 9, .. }),
        "{:?}",
        expect.0
    );
    for shards in [1, 3, 4, 7] {
        for partition in [Partition::Block, Partition::RoundRobin] {
            for threads in [1, 3] {
                let got = run(shards, partition, threads);
                let tag = format!("K={shards} {partition:?} T={threads}");
                assert_eq!(got.0, expect.0, "{tag}: the error");
                assert!(got.1 == expect.1, "{tag}: the machine after the fault");
                assert!(got.2 == expect.2, "{tag}: the machine after resuming");
            }
        }
    }
}

/// [`BnbKnapsackProgram`] with a booby trap: expanding the specific
/// take-take prefix task detonates. The trap sits two levels deep, so
/// the panic fires from inside a pruning-enabled search.
struct BoobyTrappedKnapsack {
    inner: BnbKnapsackProgram,
    trap_value: u32,
}

impl RecProgram for BoobyTrappedKnapsack {
    type Arg = BnbKnapsackTask;
    type Out = u64;
    type Frame = ();

    fn start(&self, task: BnbKnapsackTask) -> Step<Self> {
        if task.next == 2 && task.value == self.trap_value {
            panic!("injected fault in B&B subtree");
        }
        match self.inner.start(task) {
            Step::Done(v) => Step::Done(v),
            Step::Spawn(s) => Step::Spawn(hyperspace::recursion::Spawn {
                calls: s.calls,
                join: s.join,
                frame: (),
            }),
        }
    }

    fn resume(&self, _frame: (), results: Resumed<u64>) -> Step<Self> {
        match self.inner.resume((), results) {
            Step::Done(v) => Step::Done(v),
            Step::Spawn(_) => unreachable!("knapsack resumes are terminal"),
        }
    }

    fn solution_value(&self, out: &u64) -> Option<i64> {
        self.inner.solution_value(out)
    }

    fn bound(&self, arg: &BnbKnapsackTask) -> Option<i64> {
        self.inner.bound(arg)
    }

    fn pruned(&self, arg: &BnbKnapsackTask) -> Option<u64> {
        self.inner.pruned(arg)
    }
}

#[test]
fn handler_panic_inside_bnb_search_surfaces_without_corrupting_incumbents() {
    // A panic mid-search on the sharded backend must come back as a
    // structured HandlerPanic (sibling shards exit their barriers), and
    // the incumbent state every node holds at the point of failure must
    // still satisfy its invariants: traces strictly improving, nothing
    // above the true optimum, node incumbent == last trace entry.
    let items = seeded_items(97, 14, 9, 15);
    let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
    let optimum = knapsack_reference(&items, capacity) as i64;
    // The take-take prefix (first two densest items) is expanded before
    // any incumbent can dominate it, so the trap always fires.
    let trap_value = items[0].value + items[1].value;
    let program = BoobyTrappedKnapsack {
        inner: BnbKnapsackProgram,
        trap_value,
    };
    let mut sim = StackBuilder::new(program)
        .topology(TopologySpec::Torus2D { w: 4, h: 4 })
        .mapper(MapperSpec::RoundRobin)
        .backend(BackendSpec::sharded(4))
        .objective(ObjectiveSpec::Maximise)
        .prune(PruneSpec::incumbent())
        .build();
    sim.inject(
        0,
        hyperspace::mapping::trigger(BnbKnapsackTask::root(items, capacity)),
    );
    let err = sim
        .run_to_quiescence()
        .expect_err("the booby trap must detonate");
    match &err {
        SimError::HandlerPanic { message, .. } => {
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected HandlerPanic, got {other:?}"),
    }
    for node in 0..16u32 {
        let rec = &sim.state(node).app;
        let trace = rec.incumbent_trace();
        for pair in trace.windows(2) {
            assert!(
                pair[1].value > pair[0].value,
                "node {node}: trace not strictly improving"
            );
        }
        for e in trace {
            assert!(e.value <= optimum, "node {node}: incumbent above optimum");
        }
        assert_eq!(
            rec.incumbent(),
            trace.last().map(|e| e.value),
            "node {node}: incumbent diverged from its trace"
        );
    }
}

#[test]
fn worker_panic_dumps_the_flight_recorder_tail_for_the_failing_job() {
    use hyperspace::obs::{EventKind, CRASH_DUMP_TAIL};
    use hyperspace::service::{JobKind, JobOutcome, JobSpec, SolverService};

    let on_torus =
        |kind: JobKind| JobSpec::new(kind).topology(TopologySpec::Torus2D { w: 4, h: 4 });
    let service = SolverService::with_workers(1);
    let observer = service.observe();
    // Healthy traffic first, so the recorder tail has context to keep.
    for n in [5u64, 6, 7] {
        assert!(service
            .submit(on_torus(JobKind::sum(n)))
            .wait()
            .outcome
            .is_completed());
    }
    // Then a job whose handler detonates mid-recursion (no checkpoint
    // spec, so the crash is terminal rather than restarted).
    let doomed = JobKind::erased_with_factory("detonator", detonating_sum);
    let failed = service.submit(on_torus(doomed)).wait();
    let crashed_id = failed.id;
    match failed.outcome {
        JobOutcome::Failed(reason) => assert!(reason.contains("injected"), "{reason}"),
        other => panic!("expected Failed, got {other:?}"),
    }

    // Exactly one crash dump, attributed to the failing job, holding
    // the recorder's last-N events with the crash itself at the tail.
    let crashes = observer.crashes();
    assert_eq!(crashes.len(), 1);
    let dump = &crashes[0];
    assert_eq!(dump.job, crashed_id);
    assert!(
        dump.message.contains("injected worker crash"),
        "{}",
        dump.message
    );
    assert!(!dump.events.is_empty() && dump.events.len() <= CRASH_DUMP_TAIL);
    let last = dump.events.last().unwrap();
    assert_eq!(last.kind, EventKind::Crashed);
    assert_eq!(last.job, Some(crashed_id));
    assert!(
        last.detail.as_deref().unwrap_or("").contains("injected"),
        "crash event carries the panic message"
    );
    // The dump preserves the doomed job's own lead-up (submit + start),
    // not just the crash line.
    for kind in [EventKind::Submitted, EventKind::Started] {
        assert!(
            dump.events
                .iter()
                .any(|e| e.kind == kind && e.job == Some(crashed_id)),
            "dump is missing the {kind:?} event of job {crashed_id}"
        );
    }
    // Events are in recorded order (sequence numbers ascend).
    for pair in dump.events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
}

/// The recursive sum that detonates at `n == 3`, the doomed workload of
/// the worker-crash tests.
fn detonating_sum() -> hyperspace::core::ErasedStackJob {
    use hyperspace::recursion::{FnProgram, Rec};
    hyperspace::core::ErasedStackJob::new(
        FnProgram::new(|n: u64| -> Rec<u64, u64> {
            if n == 3 {
                panic!("injected worker crash");
            }
            if n < 1 {
                Rec::done(0)
            } else {
                Rec::call(n - 1).then(move |total| Rec::done(total + n))
            }
        }),
        20,
    )
}

#[test]
fn a_factory_panicking_on_restart_fails_the_job_and_leaves_the_pool_alive() {
    // A workload's own code — here the factory the service re-invokes
    // for a checkpoint restart — must not be able to kill a worker: it
    // runs on the worker, inside the panic guard, like the handlers.
    use hyperspace::core::CheckpointSpec;
    use hyperspace::obs::EventKind;
    use hyperspace::service::{JobKind, JobOutcome, JobSpec, ServiceConfig, SolverService};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    let on_torus =
        |kind: JobKind| JobSpec::new(kind).topology(TopologySpec::Torus2D { w: 4, h: 4 });
    let service = SolverService::new(ServiceConfig {
        workers: 1,
        max_restarts: 2,
        ..ServiceConfig::default()
    });
    let observer = service.observe();
    // Threads the factory ran on, in call order.
    let calls = Arc::new(Mutex::new(Vec::<String>::new()));
    let doomed = {
        let calls = Arc::clone(&calls);
        JobKind::erased_with_factory("refuser", move || {
            let mut calls = calls.lock().unwrap();
            calls.push(std::thread::current().name().unwrap_or("?").to_string());
            if calls.len() > 1 {
                drop(calls); // the panic below must not poison the test's own log
                panic!("factory refuses to rebuild");
            }
            detonating_sum()
        })
    };
    let failed = service
        .submit(on_torus(doomed).checkpoint(CheckpointSpec::Interval { steps: 4 }))
        .wait_timeout(Duration::from_secs(60))
        .expect("a panicking factory must fail the job, not hang its handle");
    match &failed.outcome {
        JobOutcome::Failed(reason) => {
            assert!(reason.contains("factory refuses to rebuild"), "{reason}")
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    // First start plus one call per restart, every one on the worker.
    assert_eq!(*calls.lock().unwrap(), ["hyperspace-worker-0"; 3]);
    let stats = service.stats();
    assert_eq!((stats.restarts, stats.failed), (2, 1), "{stats}");
    assert_eq!(stats.submitted, stats.finished(), "{stats}");
    let crashed = observer.registry().recorder().snapshot();
    let crashed = crashed.iter().filter(|e| e.kind == EventKind::Crashed);
    assert_eq!(crashed.count(), 3, "the handler once, the factory twice");
    assert_eq!(observer.crashes().len(), 3);

    // The pool survived and none of the service's locks is poisoned:
    // further submissions run, the cache answers, stats read.
    let served = || {
        service
            .submit(on_torus(JobKind::sum(10)))
            .wait_timeout(Duration::from_secs(60))
            .expect("the worker must still be serving")
    };
    let after = served();
    assert!(after.outcome.is_completed(), "{:?}", after.outcome);
    assert!(served().from_cache, "the cache lock must still be usable");
    assert_eq!(service.stats().completed, 2);
    // `shutdown()` drains and joins; a dead worker would block it forever.
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(service.shutdown());
    });
    let stats = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("shutdown() must return");
    assert_eq!(stats.submitted, stats.finished(), "{stats}");
}

#[test]
fn a_factory_panicking_on_its_first_call_fails_the_job_through_the_handle() {
    // The first factory call used to happen inside `submit()`, on the
    // submitter's thread: the panic unwound the caller and left the
    // submission counted but never finished.
    use hyperspace::service::{JobKind, JobOutcome, JobSpec, SolverService};
    let service = SolverService::with_workers(1);
    let handle = service.submit(
        JobSpec::new(JobKind::erased_with_factory(
            "stillborn",
            || -> hyperspace::core::ErasedStackJob { panic!("factory never builds") },
        ))
        .topology(TopologySpec::Torus2D { w: 4, h: 4 }),
    );
    let failed = handle
        .wait_timeout(std::time::Duration::from_secs(60))
        .expect("the failure must reach the handle");
    match &failed.outcome {
        JobOutcome::Failed(reason) => assert!(reason.contains("never builds"), "{reason}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(failed.worker, Some(0), "the factory ran on the worker");
    let stats = service.shutdown();
    assert_eq!((stats.failed, stats.restarts), (1, 0), "{stats}");
    assert_eq!(stats.submitted, stats.finished(), "{stats}");
}

#[test]
fn generous_capacity_is_equivalent_to_unbounded() {
    // With a cap the run never reaches, results match the unbounded run.
    let cnf = gen::uf20_91(3);
    let run = |capacity| {
        let program =
            DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly);
        let mut sim = StackBuilder::new(program)
            .topology(TopologySpec::Torus2D { w: 6, h: 6 })
            .mapper(MapperSpec::RoundRobin)
            .halt_on_root_reply(false)
            .sim_config(SimConfig {
                queue_capacity: capacity,
                ..SimConfig::default()
            })
            .build();
        sim.inject(
            0,
            hyperspace::mapping::trigger(SubProblem::root(cnf.clone())),
        );
        let report = sim.run_to_quiescence().unwrap();
        (report.steps, sim.metrics().total_delivered)
    };
    assert_eq!(run(None), run(Some(1_000_000)));
}
