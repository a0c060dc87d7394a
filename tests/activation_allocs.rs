//! A DPLL sub-problem travels as a handle to a recycled body: the
//! envelope a mesh step moves stays small, a `SplitOnly` or `Fixpoint`
//! activation allocates no more than recorded here (on a recycled machine
//! too), a `SplitOnly` solve holds no more heap than recorded here, a
//! node the search never touches costs no more bytes than recorded here,
//! a recycled body carries nothing from one solve into the next, and no
//! free list keeps a search's root formula alive. The sequential solver, on the same
//! kernel, allocates no more per node than recorded here either. A
//! branch-and-bound task is a path over its shared instance, so its
//! activations allocate no more than recorded here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::Arc;

use hyperspace::apps::{
    seeded_items, BnbKnapsackProgram, BnbKnapsackTask, NQueensProgram, QueensTask, TspInstance,
    TspProgram, TspTask,
};
use hyperspace::core::{
    BackendSpec, MapperSpec, ObjectiveSpec, PruneSpec, RecRunReport, StackBuilder, TopologySpec,
};
use hyperspace::mapping::MapMsg;
use hyperspace::obs::JobProbe;
use hyperspace::recursion::{eval_local, RecProgram, RecStats, Step};
use hyperspace::sat::heuristics::ALL_HEURISTICS;
use hyperspace::sat::{dpll, gen, DpllProgram, Heuristic, SimplifyMode, SubProblem, Verdict};
use hyperspace::sim::{Envelope, ObsHandle};

/// Counts the allocations of each thread on that thread, so tests running
/// in parallel do not see each other's, and the heap bytes the thread
/// holds: what it allocated less what it freed, and their high-water
/// mark.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts `allocs` allocations requesting `bytes` and moves the live
/// bytes by `delta`.
fn count(allocs: u64, bytes: usize, delta: i64) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The `mesh_sat` benchmark's machine: a 14x14 torus, the least-busy
/// mapper, the sequential engine, drained to quiescence.
fn mesh_sat(mode: SimplifyMode) -> StackBuilder<DpllProgram> {
    StackBuilder::new(DpllProgram::new(Heuristic::FirstUnassigned).with_mode(mode))
        .topology(TopologySpec::Torus2D { w: 14, h: 14 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .backend(BackendSpec::Sequential)
        .halt_on_root_reply(false)
}

#[test]
fn a_sub_problem_is_one_pointer_and_its_envelope_stays_small() {
    // 104 and 152 bytes while the sub-problem held its fields inline.
    assert!(size_of::<SubProblem>() <= 16, "{}", size_of::<SubProblem>());
    let envelope = size_of::<Envelope<MapMsg<SubProblem, Verdict>>>();
    assert!(envelope <= 72, "{envelope}");
}

#[test]
fn a_split_only_activation_allocates_at_most_the_recorded_count() {
    let mesh = mesh_sat(SimplifyMode::SplitOnly);
    let root = SubProblem::root(gen::satisfiable_ksat(1, 30, 136, 3));
    let before = ALLOCS.with(Cell::get);
    let report = mesh.run(root, 0);
    let allocs = ALLOCS.with(Cell::get) - before;
    let activations = report.rec_totals.started;
    assert_eq!(activations, 19913);
    let per_activation = allocs as f64 / activations as f64;
    // While every split allocated its children's buffers and the
    // sub-problem travelled inline, this solve made 3.64 allocations per
    // activation (3.47 over ten `mesh_sat` pool formulas). With recycled
    // bodies it made 1.62. With each child on its path from one shared
    // root formula it made 1.32, most of them a vector for the spawn's
    // calls and one for each new call record's pending tickets. With both
    // calls inline in the spawn and the record counting its pending ones
    // it makes 0.47: the models of satisfied leaves, bodies beyond the
    // free list, each node's first slab rows and inbox, and the run's own
    // setup. With each path carrying counters over the root, which hold
    // its assignment, it still makes 0.47 (9,400 allocations): a body is
    // one box and one buffer in every mode. With siblings sharing their
    // parent's counters until each writes its own, a buffer serves every
    // child of a split: 0.43 (8,589).
    assert!(
        per_activation <= 0.472,
        "{allocs} allocations, {per_activation:.3} per activation"
    );
}

#[test]
fn a_second_split_only_solve_allocates_at_most_the_recorded_count() {
    // The same solve twice on a fresh thread: the second takes the machine
    // the first one parked, so none of layers 1-4 grows a buffer again.
    // While every run built its machine anew it made 0.431 allocations per
    // activation (8,589), as the first still does; on the recycled machine
    // it makes 0.126 (2,503): the models of satisfied leaves, the bodies
    // and counter buffers beyond the free lists' 64, and the report's own
    // metrics.
    let (allocs, activations) = std::thread::spawn(|| {
        let solve = || {
            let root = SubProblem::root(gen::satisfiable_ksat(1, 30, 136, 3));
            let before = ALLOCS.with(Cell::get);
            let report = mesh_sat(SimplifyMode::SplitOnly).run(root, 0);
            (ALLOCS.with(Cell::get) - before, report.rec_totals.started)
        };
        solve();
        solve()
    })
    .join()
    .expect("the solves run");
    assert_eq!(activations, 19913);
    let per_activation = allocs as f64 / activations as f64;
    assert!(
        per_activation <= 0.15,
        "{allocs} allocations, {per_activation:.3} per activation"
    );
}

#[test]
fn a_split_only_solve_holds_at_most_the_recorded_heap() {
    // On a fresh thread, so no free list is warm: the heap the drained
    // `mesh_sat` solve of one pool formula holds at its high-water mark,
    // above what the thread held when it began (the formula, its root
    // and the machine's description). While every queued child held
    // counters of its own it was 3,160,880 bytes: at its peak the solve
    // queues 1,710 children of 898 parents. With siblings sharing their
    // parent's counters until each writes it is 2,522,292 bytes.
    let high_water = std::thread::spawn(|| {
        let mesh = mesh_sat(SimplifyMode::SplitOnly);
        let root = SubProblem::root(gen::satisfiable_ksat(1, 30, 136, 3));
        let before = LIVE.with(Cell::get);
        PEAK.with(|peak| peak.set(before));
        let report = mesh.run(root, 0);
        assert_eq!(report.rec_totals.started, 19913);
        PEAK.with(Cell::get) - before
    })
    .join()
    .expect("the solve runs");
    assert!(high_water <= 2_600_000, "{high_water} bytes");
}

/// A `portfolio_sat` member's machine under `heuristic`: a 6x6 torus, the
/// least-busy mapper, the sequential engine, drained to quiescence.
fn member(heuristic: Heuristic) -> StackBuilder<DpllProgram> {
    StackBuilder::new(DpllProgram::new(heuristic))
        .topology(TopologySpec::Torus2D { w: 6, h: 6 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .backend(BackendSpec::Sequential)
        .halt_on_root_reply(false)
}

#[test]
fn a_fixpoint_activation_allocates_at_most_the_recorded_count() {
    // Allocations per activation over ten `portfolio_sat` pool formulas,
    // solved one after another on one thread. While each child was born
    // simplified (its formula written compacted from a split's own
    // occurrence lists and counters) they were 7.10 (Jeroslow–Wang), 5.67
    // (DLIS), 6.06 (most-frequent) and 4.52 (first). With each child on
    // its path, as counters over one shared root formula, they were 5.55,
    // 4.13, 4.55 and 3.00. With both calls inline in the spawn and each
    // call record counting its pending ones they are 4.57, 3.16, 3.57 and
    // 2.04: Jeroslow–Wang's scores, the models of satisfied leaves, layers
    // 3-4's first rows and each run's own setup. With the counters the
    // only record of a path's assignment they are 4.51, 3.11, 3.55 and
    // 2.02; with a split's children sharing its counters, 4.46, 3.06,
    // 3.52 and 1.99.
    let bounds = [
        (Heuristic::JeroslowWang, 4.62),
        (Heuristic::Dlis, 3.22),
        (Heuristic::MostFrequent, 3.62),
        (Heuristic::FirstUnassigned, 2.09),
    ];
    for (heuristic, bound) in bounds {
        let (mut allocs, mut activations) = (0, 0);
        for s in 1..=10 {
            let (machine, root) = (member(heuristic), gen::satisfiable_ksat(s, 40, 182, 3));
            let root = SubProblem::root(root);
            let before = ALLOCS.with(Cell::get);
            let report = machine.run(root, 0);
            allocs += ALLOCS.with(Cell::get) - before;
            activations += report.rec_totals.started;
        }
        let per_activation = allocs as f64 / activations as f64;
        assert!(
            per_activation <= bound,
            "{heuristic}: {allocs} allocations, {per_activation:.3} per activation"
        );
    }
}

#[test]
fn a_sequential_dpll_node_allocates_at_most_the_recorded_count() {
    // Allocations per node over ten satisfiable 40-variable formulas.
    // While every decision copied the formula into both children and
    // every node compacted its own, they were 4.24 to 5.09 for every
    // heuristic. On decision levels that copy counters into buffers the
    // stack keeps, a node allocates little beyond Jeroslow–Wang's scores,
    // each level's first counters and each solve's own setup: 0.28
    // (random) to 2.14 (Jeroslow–Wang) while each level also kept an
    // assignment, 0.16 to 1.61 since the counters hold it.
    for heuristic in ALL_HEURISTICS {
        let (mut allocs, mut nodes) = (0, 0);
        for s in 0..10 {
            let cnf = gen::satisfiable_ksat(s, 40, 182, 3);
            let before = ALLOCS.with(Cell::get);
            let (result, stats) = dpll::solve(&cnf, heuristic);
            allocs += ALLOCS.with(Cell::get) - before;
            nodes += stats.nodes;
            assert!(result.is_sat(), "seed {s}: satisfiable by construction");
        }
        let per_node = allocs as f64 / nodes as f64;
        assert!(
            per_node <= 2.5,
            "{heuristic}: {allocs} allocations, {per_node:.3} per node"
        );
    }
}

/// The `bnb_sharded` benchmark's machine on the sequential engine: a 6x6
/// torus, the least-busy mapper, incumbent pruning under `objective`,
/// halted on the root reply.
fn bnb<P: RecProgram>(program: P, objective: ObjectiveSpec) -> StackBuilder<P> {
    StackBuilder::new(program)
        .topology(TopologySpec::Torus2D { w: 6, h: 6 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .backend(BackendSpec::Sequential)
        .objective(objective)
        .prune(PruneSpec::incumbent())
        .halt_on_root_reply(true)
}

/// Allocations per activation over one run from each root, one after
/// another on this thread, and the activations they took.
fn allocs_per_activation<P: RecProgram>(
    machine: impl Fn() -> StackBuilder<P>,
    roots: impl IntoIterator<Item = P::Arg>,
) -> (f64, u64) {
    let (mut allocs, mut activations) = (0, 0);
    for root in roots {
        let machine = machine();
        let before = ALLOCS.with(Cell::get);
        let report = machine.run(root, 0);
        allocs += ALLOCS.with(Cell::get) - before;
        activations += report.rec_totals.started;
    }
    (allocs as f64 / activations as f64, activations)
}

#[test]
fn a_branch_and_bound_activation_allocates_at_most_the_recorded_count() {
    // Seeds 1-10 of the `bnb_sharded` benchmark's generators. While every
    // child copied its instance (the item list, the distance matrix, the
    // placed columns) and an `All` join's results came back in a fresh
    // vector, these were 3.25 (knapsack), 5.85 (TSP) and 4.57 (N-Queens).
    // On paths over one shared instance, with the results in the batch's
    // own container, they are 1.52, 3.00 and 2.00. A batch of more than
    // two spills twice, once for its calls and once for their results,
    // which is what keeps TSP's wide batches near three.
    let knapsacks = (1..=10).map(|s| {
        let items = seeded_items(s, 14, 40, 100);
        let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
        BnbKnapsackTask::root(items, capacity)
    });
    let knapsack = allocs_per_activation(
        || bnb(BnbKnapsackProgram, ObjectiveSpec::Maximise),
        knapsacks,
    );
    let tours = (1..=10).map(|s| TspTask::root(TspInstance::random(s, 8, 100)));
    let tsp = allocs_per_activation(|| bnb(TspProgram, ObjectiveSpec::Minimise), tours);
    let boards = (1..=10).map(|_| QueensTask::root(7));
    let queens = allocs_per_activation(|| bnb(NQueensProgram, ObjectiveSpec::Enumerate), boards);
    let rows = [
        ("knapsack", knapsack, 25_821, 1.57),
        ("tsp", tsp, 22_892, 3.05),
        ("queens", queens, 5_520, 2.05),
    ];
    let mut over = Vec::new();
    for (name, (per_activation, activations), expected, bound) in rows {
        assert_eq!(activations, expected, "{name}");
        if per_activation > bound {
            over.push(format!("{name}: {per_activation:.3} per activation"));
        }
    }
    assert!(over.is_empty(), "{over:?}");
}

/// The parts of a run a recycled body could disturb.
fn outcome(report: RecRunReport<Verdict>) -> (Option<Verdict>, u64, RecStats, u64) {
    (
        report.result,
        report.steps,
        report.rec_totals,
        report.metrics.total_delivered,
    )
}

#[test]
fn recycled_bodies_carry_nothing_into_the_next_solve() {
    // A first solve over more variables, in the other mode, leaves this
    // thread's free list full of wider formulas and assignments than the
    // second one needs, and of bodies last used as the other mode's
    // children (paths with counters or without).
    let first = || SubProblem::root(gen::satisfiable_ksat(7, 40, 182, 3));
    let second = || SubProblem::root(gen::satisfiable_ksat(2, 30, 136, 3));
    use SimplifyMode::{Fixpoint, SplitOnly};
    for (warm, mode) in [(Fixpoint, SplitOnly), (SplitOnly, Fixpoint)] {
        let alone = std::thread::spawn(move || outcome(mesh_sat(mode).run(second(), 0)))
            .join()
            .expect("a fresh thread solves");
        mesh_sat(warm).run(first(), 0);
        let after = outcome(mesh_sat(mode).run(second(), 0));
        assert_eq!(after, alone, "{mode} after {warm}");
    }
}

#[test]
fn a_body_back_on_the_free_list_holds_no_root_formula() {
    for mode in [SimplifyMode::SplitOnly, SimplifyMode::Fixpoint] {
        let program = DpllProgram::new(Heuristic::FirstUnassigned).with_mode(mode);
        let root = SubProblem::root(gen::satisfiable_ksat(3, 30, 136, 3));
        let Step::Spawn(spawn) = program.start(root) else {
            panic!("{mode}: the root splits");
        };
        let mut calls = spawn.calls.into_iter();
        let (Some(first), Some(second), None) = (calls.next(), calls.next(), calls.next()) else {
            panic!("{mode}: two branches");
        };
        let formula = Arc::clone(first.root_formula().expect("a child is a path"));
        assert!(Arc::ptr_eq(&formula, second.root_formula().unwrap()));
        assert_eq!(Arc::strong_count(&formula), 3, "{mode}");
        // One branch solved on this thread, the other on the mesh: every
        // sub-problem of both drops, and the bodies that go back on the
        // free lists hold no root. Nor does the machine the mesh run
        // parked on this thread, nor its observer.
        eval_local(&program, first);
        assert_eq!(Arc::strong_count(&formula), 2, "{mode}");
        let probe = Arc::new(JobProbe::new(0, "parked", None));
        let observed = mesh_sat(mode).observer(ObsHandle::new(probe.clone()));
        observed.run(second, 0);
        assert_eq!(Arc::strong_count(&formula), 1, "{mode}");
        assert_eq!(Arc::strong_count(&probe), 1, "{mode}");
    }
}

/// Bytes requested from the allocator per node that `pigeonhole(1)`
/// never touches (it touches 6): its first solve on a fresh thread, and
/// its second on the same thread, on a 128x128 torus less the same solves
/// on the 14x14 `mesh_sat` machine, over the difference in nodes.
fn bytes_per_untouched_node() -> (f64, f64) {
    let solves = |w: u32| {
        std::thread::spawn(move || {
            let solve = || {
                let root = SubProblem::root(gen::pigeonhole(1));
                let before = BYTES.with(Cell::get);
                let report = mesh_sat(SimplifyMode::SplitOnly)
                    .topology(TopologySpec::Torus2D { w, h: w })
                    .run(root, 0);
                assert_eq!(report.result, Some(Verdict::Unsat));
                BYTES.with(Cell::get) - before
            };
            (solve(), solve())
        })
        .join()
        .expect("the solves run")
    };
    let (big, small) = (solves(128), solves(14));
    let untouched = (128 * 128 - 14 * 14) as f64;
    let per_node = |big: u64, small: u64| (big as f64 - small as f64) / untouched;
    (per_node(big.0, small.0), per_node(big.1, small.1))
}

#[test]
fn an_untouched_node_costs_at_most_the_recorded_bytes() {
    // While every run built its machine anew, each solve requested 920.1
    // bytes per untouched node: its states, inbox, boxed mapper and count
    // table, its share of the adjacency and the report's counters. With
    // the mappers held by value the first requests 532.1. The second runs
    // on the machine the first parked and requests 16.0: the report's two
    // per-node counters, which it keeps.
    let (first, second) = bytes_per_untouched_node();
    assert!(
        first <= 560.0,
        "first solve: {first:.1} bytes per untouched node"
    );
    assert!(
        second <= 24.0,
        "second solve: {second:.1} bytes per untouched node"
    );
}
