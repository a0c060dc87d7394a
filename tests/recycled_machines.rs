//! A finished machine serves the next run of its shape on the same
//! thread: `StackRun::finish`, or dropping an unfinished run, parks it,
//! and the next `StackBuilder::into_run` of the same program type,
//! topology and backend re-initialises it. A recycled machine must run
//! exactly as a fresh one: every run here is compared, report field by
//! report field, with the same job on a fresh thread, whose machine is
//! new. A counting allocator shows that the machine really was recycled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::sync::Arc;

use hyperspace::apps::{
    seeded_items, BnbKnapsackProgram, BnbKnapsackTask, TspInstance, TspProgram, TspTask,
};
use hyperspace::core::{
    IncumbentEvent, MapperSpec, ObjectiveSpec, PortfolioSpec, PruneSpec, RecRunReport,
    StackBuilder, TopologySpec,
};
use hyperspace::obs::JobProbe;
use hyperspace::portfolio::PortfolioRunner;
use hyperspace::recursion::{RecProgram, RecStats};
use hyperspace::sat::{gen, DpllProgram, Heuristic, SimplifyMode, SubProblem};
use hyperspace::sim::record::SimMetrics;
use hyperspace::sim::{ObsHandle, RunOutcome, StopHandle};

/// Counts the allocations of each thread on that thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Everything a report holds, comparable.
type Observed<Out> = (
    Option<Out>,
    RunOutcome,
    u64,
    u64,
    RecStats,
    [u64; 5],
    Option<i64>,
    Vec<IncumbentEvent>,
    SimMetrics,
);

fn observed<Out>(r: RecRunReport<Out>) -> Observed<Out> {
    let totals = [
        r.requests_total,
        r.replies_total,
        r.status_total,
        r.cancels_total,
        r.bounds_total,
    ];
    (
        r.result,
        r.outcome,
        r.steps,
        r.computation_time,
        r.rec_totals,
        totals,
        r.best_incumbent,
        r.incumbent_trace,
        r.metrics,
    )
}

/// A job: a builder and a root, made afresh for each run.
struct Job<P: RecProgram> {
    name: &'static str,
    make: fn() -> (StackBuilder<P>, P::Arg),
}

impl<P: RecProgram> Job<P>
where
    P::Out: PartialEq + Debug,
{
    /// Runs the job on this thread; returns what it reported and the
    /// allocations it made.
    fn run(&self) -> (Observed<P::Out>, u64) {
        let before = ALLOCS.with(Cell::get);
        let (builder, root) = (self.make)();
        let report = observed(builder.run(root, 0));
        (report, ALLOCS.with(Cell::get) - before)
    }

    /// The job on a fresh thread, whose machine is new.
    fn fresh(&self) -> (Observed<P::Out>, u64)
    where
        P::Out: Send,
    {
        let make = self.make;
        std::thread::spawn(move || Job { name: "", make }.run())
            .join()
            .expect("the fresh run finishes")
    }

    /// Runs the job on this thread and demands the fresh thread's report.
    fn assert_runs_as_fresh(&self, after: &str)
    where
        P::Out: Send,
    {
        let (fresh, _) = self.fresh();
        let (recycled, _) = self.run();
        assert_eq!(recycled, fresh, "{} after {after}", self.name);
    }
}

/// A SAT job on `w`x`w` under `backend`, drained to quiescence.
fn sat(w: u32, backend: &str, seed: u64) -> (StackBuilder<DpllProgram>, SubProblem) {
    let program = DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly);
    let builder = StackBuilder::new(program)
        .topology(TopologySpec::Torus2D { w, h: w })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .backend(backend.parse().expect("a backend spelling"))
        .halt_on_root_reply(false);
    (builder, SubProblem::root(gen::uf20_91(seed)))
}

const MESH_SAT: Job<DpllProgram> = Job {
    name: "14x14 split-only SAT",
    make: || sat(14, "seq", 2017),
};

const KNAPSACK: Job<BnbKnapsackProgram> = Job {
    name: "6x6 knapsack with pruning",
    make: || {
        let items = seeded_items(3, 14, 40, 100);
        let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
        let builder = StackBuilder::new(BnbKnapsackProgram)
            .topology(TopologySpec::Torus2D { w: 6, h: 6 })
            .mapper(MapperSpec::LeastBusy {
                status_period: None,
            })
            .objective(ObjectiveSpec::Maximise)
            .prune(PruneSpec::incumbent());
        (builder, BnbKnapsackTask::root(items, capacity))
    },
};

const TSP: Job<TspProgram> = Job {
    name: "TSP with cancellation",
    make: || {
        let builder = StackBuilder::new(TspProgram)
            .topology(TopologySpec::Torus2D { w: 6, h: 6 })
            .mapper(MapperSpec::LeastBusy {
                status_period: None,
            })
            .objective(ObjectiveSpec::Minimise)
            .prune(PruneSpec::incumbent())
            .cancellation(true);
        (builder, TspTask::root(TspInstance::random(4, 8, 100)))
    },
};

#[test]
fn a_recycled_machine_runs_as_a_fresh_one_on_every_backend() {
    for backend in [
        "seq",
        "parallel",
        "sharded:2",
        "sharded:2:2",
        "sharded:2:rr",
    ] {
        let job = Job {
            name: backend,
            make: match backend {
                "seq" => || sat(8, "seq", 42),
                "parallel" => || sat(8, "parallel", 42),
                "sharded:2" => || sat(8, "sharded:2", 42),
                "sharded:2:2" => || sat(8, "sharded:2:2", 42),
                _ => || sat(8, "sharded:2:rr", 42),
            },
        };
        let (fresh, fresh_allocs) = job.fresh();
        let warm = Job {
            name: backend,
            make: match backend {
                "seq" => || sat(8, "seq", 7),
                "parallel" => || sat(8, "parallel", 7),
                "sharded:2" => || sat(8, "sharded:2", 7),
                "sharded:2:2" => || sat(8, "sharded:2:2", 7),
                _ => || sat(8, "sharded:2:rr", 7),
            },
        };
        let (recycled, recycled_allocs) = std::thread::spawn(move || {
            warm.run();
            job.run()
        })
        .join()
        .expect("the recycled run finishes");
        assert_eq!(recycled, fresh, "{backend}");
        assert!(
            recycled_allocs < fresh_allocs,
            "{backend}: the machine was not recycled ({recycled_allocs} >= {fresh_allocs})"
        );
    }
}

#[test]
fn interleaved_shapes_on_one_thread_run_as_fresh() {
    std::thread::spawn(|| {
        MESH_SAT.assert_runs_as_fresh("nothing");
        KNAPSACK.assert_runs_as_fresh("SAT");
        TSP.assert_runs_as_fresh("knapsack");
        MESH_SAT.assert_runs_as_fresh("TSP");
        MESH_SAT.assert_runs_as_fresh("SAT");
    })
    .join()
    .expect("the runs finish");
}

/// A 6x6 member-shaped SAT job: the shape of a `portfolio_sat` member.
const MEMBER: Job<DpllProgram> = Job {
    name: "6x6 SAT",
    make: || sat(6, "seq", 11),
};

#[test]
fn every_kind_of_unfinished_run_leaves_a_machine_that_runs_as_fresh() {
    std::thread::spawn(|| {
        // Halted on the root reply, with sub-problems still queued.
        let (builder, root) = sat(6, "seq", 3);
        let halted = builder.halt_on_root_reply(true).run(root, 0);
        assert_eq!(halted.outcome, RunOutcome::Halted);
        MEMBER.assert_runs_as_fresh("a run halted on its root reply");

        // Stopped at its step cap, mid-search.
        let (builder, root) = sat(6, "seq", 3);
        let capped = builder.max_steps(40).run(root, 0);
        assert_eq!(capped.outcome, RunOutcome::MaxSteps);
        MEMBER.assert_runs_as_fresh("a run stopped at max_steps");

        // A race whose losers are cancelled: its member machines finish
        // on this thread and are parked here.
        let report = PortfolioRunner::new(PortfolioSpec::diversified_sat(4).epoch(8))
            .threads(2)
            .topology(TopologySpec::Torus2D { w: 6, h: 6 })
            .run_sat(&gen::uf20_91(5));
        assert!(report.winner.is_some());
        MEMBER.assert_runs_as_fresh("a portfolio race's cancelled losers");

        // Dropped mid-run.
        let (builder, root) = sat(6, "seq", 3);
        let mut run = builder.into_run(root, 0);
        assert_eq!(run.advance_to(25), None);
        drop(run);
        MEMBER.assert_runs_as_fresh("a run dropped mid-run");

        // Withdrawn calls advanced slab generations and left stragglers.
        let (builder, root) = sat(6, "seq", 3);
        let withdrawing = builder.cancellation(true).run(root, 0);
        assert!(withdrawing.rec_totals.cancels_sent > 0);
        MEMBER.assert_runs_as_fresh("a run that withdrew calls");
    })
    .join()
    .expect("the runs finish");
}

#[test]
fn a_parked_machine_keeps_no_observer_stop_handle_or_root_formula() {
    std::thread::spawn(|| {
        let probe = Arc::new(JobProbe::new(0, "parked", None));
        let stop = StopHandle::new();
        let root = SubProblem::root(gen::uf20_91(9));
        let formula = Arc::clone(root.root_formula().expect("a root is a path"));
        let (builder, _) = sat(6, "seq", 9);
        let mut run = builder
            .observer(ObsHandle::new(probe.clone()))
            .stop(stop.clone())
            .into_run(root, 0);
        assert_eq!(run.advance_to(30), None, "mid-search");
        assert!(Arc::strong_count(&probe) > 1);
        drop(run);
        assert_eq!(Arc::strong_count(&probe), 1, "the observer");
        assert_eq!(Arc::strong_count(&formula), 1, "the root formula");
        // The parked machine does not poll the tripped handle: the next
        // run on it, with none of its own, finishes as a fresh one does.
        stop.stop();
        MEMBER.assert_runs_as_fresh("a run whose stop handle then tripped");
    })
    .join()
    .expect("the runs finish");
}
