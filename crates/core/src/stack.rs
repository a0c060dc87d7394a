//! [`StackBuilder`]: wire layers 1–4 around a recursive program, hand the
//! assembled machine out as a [`StackRun`] and fold it into its report
//! ([`summarise`]).
//!
//! A finished machine serves the next run: [`StackRun::finish`] (or
//! dropping an unfinished run) parks it on a short per-thread list, and
//! [`StackBuilder::into_run`] takes one of its shape from there — same
//! program type, topology and backend — instead of building and growing
//! a new one. Parking drops the run's queued envelopes, what its node
//! states hold of it, its program and its configuration, so a parked
//! machine keeps nothing of the run but the room its buffers grew.
//! Taking it re-initialises every node under the new run's program
//! through the one initialisation path a new machine takes
//! ([`SimShell::start`]), so a recycled machine runs exactly as a fresh
//! one would.

use std::any::Any;
use std::cell::RefCell;

use hyperspace_mapping::{MapConfig, MappingHost};
use hyperspace_recursion::{BnbMode, FrontierSnapshot, RecProgram, RecStats, RecursionHost};
use hyperspace_sim::{
    NodeId, ObsHandle, RunOutcome, ShardedSimulation, SimConfig, SimShell, StopHandle, Topology,
};

use crate::expr::LimitKind;
use crate::report::{IncumbentEvent, RecRunReport, RunSummary};
use crate::slice::{RunSlice, SliceOutcome, StackRun};
use crate::spec::{
    BackendSpec, CheckpointSpec, MapperSpec, ObjectiveSpec, PruneSpec, SpecMapperFactory,
    TopologySpec,
};

/// The concrete layer-1 program type of an assembled stack.
pub type StackProgram<P> = MappingHost<RecursionHost<P>, SpecMapperFactory>;

/// The concrete simulation type of an assembled stack: the one layer-1
/// machine, sharded and threaded as the [`BackendSpec`] says (`seq` is a
/// single shard stepped inline).
pub type StackSim<P> = ShardedSimulation<Box<dyn Topology>, StackProgram<P>>;

/// Assembles the five-layer solver stack:
///
/// * layer 1: the time-stepped simulator ([`ShardedSimulation`]),
/// * layer 2: single-process nodes (the mapping host *is* the node's
///   process; multi-process nodes are available via `hyperspace-sched` for
///   applications that need them),
/// * layer 3: ticketed mapping with the chosen [`MapperSpec`],
/// * layer 4: continuation-based recursion ([`RecursionHost`]),
/// * layer 5: your [`RecProgram`].
pub struct StackBuilder<P: RecProgram> {
    program: P,
    topology: TopologySpec,
    mapper: MapperSpec,
    backend: BackendSpec,
    cancellation: bool,
    halt_on_root_reply: bool,
    objective: ObjectiveSpec,
    prune: PruneSpec,
    checkpoint: CheckpointSpec,
    node_budget: Option<u64>,
    logical_cap: Option<u64>,
    sim: SimConfig,
}

impl<P: RecProgram> StackBuilder<P> {
    /// Starts a builder with the paper's defaults: a 14x14 torus (the
    /// Figure 5 machine), round-robin mapping, the sequential backend,
    /// no cancellation, halt on root reply.
    pub fn new(program: P) -> Self {
        StackBuilder {
            program,
            topology: TopologySpec::Torus2D { w: 14, h: 14 },
            mapper: MapperSpec::RoundRobin,
            backend: BackendSpec::Sequential,
            cancellation: false,
            halt_on_root_reply: true,
            objective: ObjectiveSpec::Enumerate,
            prune: PruneSpec::Off,
            checkpoint: CheckpointSpec::Off,
            node_budget: None,
            logical_cap: None,
            sim: SimConfig::default(),
        }
    }

    /// Starts a builder on a job's machine: every [`JobParams`] field a
    /// single stack reads (`root_node` goes to [`StackBuilder::run`] /
    /// [`StackBuilder::start`]; `portfolio` is the race's concern). The
    /// one path from job parameters to a stack — erased jobs and
    /// portfolio members both assemble through it, then apply their own
    /// overrides with the setters below.
    pub fn from_params(program: P, params: &JobParams) -> Self {
        let mut builder = StackBuilder::new(program);
        builder.topology = params.topology.clone();
        builder.mapper = params.mapper.clone();
        builder.backend = params.backend.clone();
        builder.cancellation = params.cancellation;
        builder.objective = params.objective;
        builder.prune = params.prune;
        builder.checkpoint = params.checkpoint;
        builder.sim.max_steps = params.max_steps;
        builder.sim.stop = params.stop.clone();
        builder.sim.obs = params.obs.clone();
        builder
    }

    /// Selects the machine topology.
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.topology = spec;
        self
    }

    /// Selects the mapping policy.
    pub fn mapper(mut self, spec: MapperSpec) -> Self {
        self.mapper = spec;
        self
    }

    /// Enables withdrawal of losing speculative branches (beyond-paper;
    /// ablation ABL-C).
    pub fn cancellation(mut self, on: bool) -> Self {
        self.cancellation = on;
        self
    }

    /// Selects the optimisation objective. [`ObjectiveSpec::Maximise`] /
    /// [`ObjectiveSpec::Minimise`] switch layer 4 into branch-and-bound
    /// mode: feasible solution values become shared incumbents that
    /// gossip through the mesh as ordinary envelopes.
    pub fn objective(mut self, spec: ObjectiveSpec) -> Self {
        self.objective = spec;
        self
    }

    /// Selects the pruning policy of a branch-and-bound run (ignored
    /// under [`ObjectiveSpec::Enumerate`]).
    pub fn prune(mut self, spec: PruneSpec) -> Self {
        self.prune = spec;
        self
    }

    /// Selects the checkpoint policy. Under
    /// [`CheckpointSpec::Interval`] the run is driven in slices of that
    /// many steps — each ending at a step barrier where it can be
    /// suspended ([`StackBuilder::start`]) — and is bit-identical to an
    /// uninterrupted run (this never changes what is computed).
    pub fn checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = spec;
        self
    }

    /// Whether the run halts as soon as the root result is known (the
    /// paper's computation-time measurement) or drains to quiescence.
    pub fn halt_on_root_reply(mut self, on: bool) -> Self {
        self.halt_on_root_reply = on;
        self
    }

    /// Overrides the layer-1 engine configuration (step caps, tracing,
    /// ...). The builder still forces `tick_every` to match the mapper's
    /// status period.
    pub fn sim_config(mut self, cfg: SimConfig) -> Self {
        self.sim = cfg;
        self
    }

    /// Attaches a passive observer (see [`hyperspace_sim::Observer`]):
    /// the engine reports steps and checkpoints to it, and slice
    /// barriers report live frontier progress. Observation never
    /// changes what is computed — results, metrics, traces and
    /// checkpoint bytes stay bit-identical with it on or off.
    pub fn observer(mut self, obs: ObsHandle) -> Self {
        self.sim.obs = obs;
        self
    }

    /// Selects the execution backend. All backends produce bit-identical
    /// results (enforced by the cross-backend equivalence suite); the
    /// choice trades wall-clock time for cores.
    pub fn backend(mut self, spec: BackendSpec) -> Self {
        self.backend = spec;
        self
    }

    /// Applies a portfolio member's *machine-level* knobs — backend,
    /// prune policy (warm starts included) and mapper override — to this
    /// builder. A member prune of [`PruneSpec::Off`] is the strategy
    /// default ("no opinion") and leaves any policy already set on the
    /// builder in place. Program-level knobs (heuristic, simplify mode,
    /// polarity) are the member program's concern: apply them when
    /// constructing the program handed to [`StackBuilder::new`]. This is
    /// the hook the portfolio subsystem assembles each member stack
    /// through.
    pub fn strategy(mut self, member: &crate::spec::StrategySpec) -> Self {
        self.backend = member.backend.clone();
        if member.prune != PruneSpec::Off {
            self.prune = member.prune;
        }
        if let Some(mapper) = &member.mapper {
            self.mapper = mapper.clone();
        }
        // Discrepancy limits scope the *root argument* of a search (e.g.
        // `SubProblem::with_discrepancy`), which the caller constructs;
        // the machine layers have nothing to apply.
        if let Some(budget) = member.tightest(LimitKind::Nodes) {
            self = self.node_budget(budget);
        }
        if let Some(cap) = member.tightest(LimitKind::Time) {
            self = self.logical_cap(cap);
        }
        self
    }

    /// Caps how many layer-4 activations the run may *expand*
    /// (`limit(nodes,N)` in the strategy language): once the budget is
    /// reached, further requests are answered with the program's pruned
    /// sentinel instead of being expanded. Deterministic — the budget is
    /// enforced per node against its local start counter, a pure function
    /// of the delivery order. Tighter of repeated caps wins.
    pub fn node_budget(mut self, budget: u64) -> Self {
        self.node_budget = Some(self.node_budget.map_or(budget, |b| b.min(budget)));
        self
    }

    /// Caps the run at `cap` *logical* steps (`limit(time,N)` in the
    /// strategy language) — a deterministic stand-in for wall-clock time
    /// limits. Applied at assembly as a floor under the engine's
    /// [`StackBuilder::max_steps`] safety cap, so it composes with later
    /// `max_steps` calls; tighter of repeated caps wins.
    pub fn logical_cap(mut self, cap: u64) -> Self {
        self.logical_cap = Some(self.logical_cap.map_or(cap, |c| c.min(cap)));
        self
    }

    /// Safety cap on simulated steps.
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.sim.max_steps = steps;
        self
    }

    /// Attaches a cooperative stop handle: when it trips (external
    /// cancellation or its wall-clock deadline), the run ends with
    /// [`RunOutcome::Stopped`] instead of running to completion.
    pub fn stop(mut self, handle: StopHandle) -> Self {
        self.sim.stop = Some(handle);
        self
    }

    /// Bounds the run to `budget` of wall-clock time from now, keeping
    /// any stop handle already attached: its explicit flag still works,
    /// and if it already carries a *tighter* deadline, that one wins.
    pub fn deadline(mut self, budget: std::time::Duration) -> Self {
        let deadline = std::time::Instant::now() + budget;
        self.sim.stop = Some(match self.sim.stop.take() {
            Some(handle) => handle.until(deadline),
            None => StopHandle::with_deadline(deadline),
        });
        self
    }

    /// Resolves the builder into its layer-1 ingredients: the machine's
    /// shape, the host program and the engine config.
    fn assemble(self) -> (Shape, StackProgram<P>, SimConfig) {
        let mut sim_cfg = self.sim.clone();
        sim_cfg.tick_every = self.mapper.status_period();
        if let Some(cap) = self.logical_cap {
            sim_cfg.max_steps = sim_cfg.max_steps.min(cap);
        }
        // Global mappers address arbitrary nodes: switch the engine to the
        // hop-by-hop NoC model unless the user already chose one.
        if self.mapper.needs_global_delivery()
            && sim_cfg.delivery == hyperspace_sim::DeliveryModel::AdjacentOnly
        {
            sim_cfg.delivery = hyperspace_sim::DeliveryModel::Routed;
        }
        let host_cfg = MapConfig {
            status_period: self.mapper.status_period(),
            halt_on_root_reply: self.halt_on_root_reply,
        };
        let mut rec = RecursionHost::new(self.program);
        if self.cancellation {
            rec = rec.with_cancellation();
        }
        if let Some(budget) = self.node_budget {
            rec = rec.with_node_budget(budget);
        }
        if let Some(objective) = self.objective.objective() {
            rec = rec.with_bnb(BnbMode {
                objective,
                prune: self.prune.is_enabled(),
                initial_incumbent: self.prune.initial_incumbent(),
            });
        }
        let host = MappingHost::new(rec, self.mapper.factory(), host_cfg);
        let shape = Shape {
            topology: self.topology,
            backend: self.backend,
        };
        (shape, host, sim_cfg)
    }

    /// Builds the simulation on the selected backend without running it
    /// (for step-by-step inspection); inject root problems with
    /// [`hyperspace_mapping::trigger`]. The machine is always a new one.
    pub fn build(self) -> StackSim<P> {
        let (shape, host, sim_cfg) = self.assemble();
        ShardedSimulation::new(shape.topology.build(), host, sim_cfg, shape.backend.lower())
    }

    /// Assembles the stack and injects the root problem, without
    /// executing anything: the typed handle on the running stack, driven
    /// with [`StackRun::advance_to`] and folded with [`StackRun::finish`].
    /// [`StackBuilder::run`] and [`StackBuilder::start`] both drive one,
    /// so they cross identical step barriers; a portfolio member is an
    /// epoch policy over one. The run's step cap is the tighter of
    /// [`StackBuilder::max_steps`] and [`StackBuilder::logical_cap`].
    ///
    /// The machine is the one the last run of the same shape (program
    /// type, topology and backend) finished on this thread, if it is
    /// parked here, re-initialised for this run; else a new one. Either
    /// way the run is the same.
    pub fn into_run(self, root_arg: P::Arg, root_node: NodeId) -> StackRun<P> {
        // `Off` degenerates to a single slice spanning the whole cap.
        let interval = self.checkpoint.interval().unwrap_or(u64::MAX);
        let (shape, host, sim_cfg) = self.assemble();
        let (cap, obs) = (sim_cfg.max_steps, sim_cfg.obs.clone());
        let shell = unpark::<P>(&shape)
            .unwrap_or_else(|| SimShell::new(shape.topology.build(), shape.backend.lower()));
        let mut sim = shell.start(host, sim_cfg);
        sim.inject(root_node, hyperspace_mapping::trigger(root_arg));
        StackRun {
            sim: Some(sim),
            shape,
            root: root_node,
            interval,
            cap,
            obs,
            outcome: RunOutcome::MaxSteps,
        }
    }

    /// Runs `program(root_arg)` rooted at `root_node` on the selected
    /// backend and collects the full report. Under a
    /// [`CheckpointSpec::Interval`] the run is driven slice by slice
    /// through the same step barriers a suspended run would cross —
    /// with, by determinism, a bit-identical result. The next run of the
    /// same shape on this thread reuses the machine (see
    /// [`StackBuilder::into_run`]).
    pub fn run(self, root_arg: P::Arg, root_node: NodeId) -> RecRunReport<P::Out> {
        let mut run = self.into_run(root_arg, root_node);
        while run.advance_slice().is_none() {}
        run.finish()
    }
}

impl<P: RecProgram> StackBuilder<P>
where
    P::Out: std::fmt::Debug,
{
    /// Assembles the stack, injects the root problem, and returns it as
    /// a suspended [`RunSlice`] without executing anything. Each
    /// [`RunSlice::run_slice`] call then advances one checkpoint
    /// interval (the whole run, under [`CheckpointSpec::Off`]); between
    /// calls the run is parked at a step barrier and can be queued,
    /// migrated to another worker thread, or dropped. The preemptive
    /// service scheduler is built on this. Like [`StackBuilder::run`] it
    /// takes its machine through [`StackBuilder::into_run`].
    pub fn start(self, root_arg: P::Arg, root_node: NodeId) -> Box<dyn RunSlice> {
        Box::new(self.into_run(root_arg, root_node))
    }
}

/// The shape of an assembled machine: what a parked machine must share
/// with the next run to serve it (the program type aside).
#[derive(Clone, PartialEq)]
pub(crate) struct Shape {
    topology: TopologySpec,
    backend: BackendSpec,
}

/// How many parked machines a thread keeps. The widest real traffic is a
/// four-member portfolio race, whose coordinator thread assembles all
/// four member machines and finishes them.
const SPARES: usize = 4;

/// A machine parked for the next run of its shape on this thread.
struct Spare<P: RecProgram> {
    shape: Shape,
    shell: SimShell<Box<dyn Topology>, StackProgram<P>>,
}

thread_local! {
    /// This thread's parked machines, each a `Spare<P>` of some program
    /// type `P` (every [`RecProgram`] is `'static`, so any can be held).
    static PARKED: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a machine of `shape` running `P` off this thread's list. A
/// thread keeps machines of its last shape only: spares of any other are
/// dropped.
fn unpark<P: RecProgram>(shape: &Shape) -> Option<SimShell<Box<dyn Topology>, StackProgram<P>>> {
    let fits = |spare: &Box<dyn Any>| {
        (spare.downcast_ref::<Spare<P>>()).is_some_and(|spare| spare.shape == *shape)
    };
    let spare = PARKED.try_with(|parked| {
        let mut parked = parked.borrow_mut();
        parked.retain(fits);
        parked.pop()
    });
    let spare = spare.ok()??.downcast::<Spare<P>>().ok()?;
    Some(spare.shell)
}

/// Ends `sim`'s run and parks the machine on this thread's list, unless
/// the list is full.
pub(crate) fn park<P: RecProgram>(shape: Shape, sim: StackSim<P>) {
    let shell = sim.into_shell();
    let _ = PARKED.try_with(|parked| {
        let mut parked = parked.borrow_mut();
        if parked.len() < SPARES {
            parked.push(Box::new(Spare { shape, shell }));
        }
    });
}

/// Folds a finished stack simulation into its report: layer-3/4 counters
/// summed over all nodes, the best incumbent by the
/// [`FrontierSnapshot::absorb`] rule, the root result and the merged
/// incumbent trace.
pub fn summarise<P: RecProgram>(
    mut sim: StackSim<P>,
    outcome: RunOutcome,
    root_node: NodeId,
) -> RecRunReport<P::Out> {
    fold(&mut sim, outcome, root_node)
}

/// [`summarise`] in place: reads the node states where they are and moves
/// only the metrics out, leaving the machine to serve another run.
pub(crate) fn fold<P: RecProgram>(
    sim: &mut StackSim<P>,
    outcome: RunOutcome,
    root_node: NodeId,
) -> RecRunReport<P::Out> {
    let metrics = sim.take_metrics();
    let mut report = RecRunReport {
        result: sim.state(root_node).root_result().cloned(),
        outcome,
        steps: sim.current_step(),
        computation_time: metrics.computation_time(),
        metrics,
        rec_totals: RecStats::default(),
        requests_total: 0,
        replies_total: 0,
        status_total: 0,
        cancels_total: 0,
        bounds_total: 0,
        best_incumbent: None,
        incumbent_trace: Vec::new(),
    };
    let mut frontier = FrontierSnapshot::default();
    for node in 0..sim.topology().num_nodes() as NodeId {
        let st = sim.state(node);
        let rs = &st.app;
        report.rec_totals += rs.stats;
        report.requests_total += st.requests_in;
        report.replies_total += st.replies_in;
        report.status_total += st.status_in;
        report.cancels_total += st.cancels_in;
        report.bounds_total += st.bounds_in;
        frontier.absorb(&rs.frontier(), rs.objective());
        report
            .incumbent_trace
            .extend(rs.incumbent_trace().iter().map(|e| IncumbentEvent {
                step: e.step,
                value: e.value,
                node,
            }));
    }
    report.best_incumbent = frontier.incumbent;
    // Canonical merged order: by observation step, then value, then
    // node — a pure function of the deterministic delivery order, so the
    // merged trace is bit-identical across backends.
    report
        .incumbent_trace
        .sort_by_key(|e| (e.step, e.value, e.node));
    report
}

/// Machine/run parameters applied to an [`ErasedStackJob`] at execution
/// time: the part of a job a *service* decides per request, separate from
/// the program + argument the submitter provides.
#[derive(Clone, Debug)]
pub struct JobParams {
    /// Machine topology to assemble.
    pub topology: TopologySpec,
    /// Mapping policy.
    pub mapper: MapperSpec,
    /// Execution backend. Backends are bit-identical (enforced by the
    /// equivalence suite), so this only affects wall-clock time.
    pub backend: BackendSpec,
    /// Withdraw losing speculative branches (layer-4 cancellation).
    pub cancellation: bool,
    /// Optimisation objective (branch-and-bound mode when not
    /// [`ObjectiveSpec::Enumerate`]). Part of the computation: it
    /// changes search behaviour and reports, so services must key
    /// caches on it.
    pub objective: ObjectiveSpec,
    /// Pruning policy of a branch-and-bound run. Also part of the
    /// computation (it changes node counts, traces and metrics).
    pub prune: PruneSpec,
    /// Checkpoint policy. Like the backend this never changes what is
    /// computed (sliced runs are bit-identical to uninterrupted ones),
    /// so it is *not* part of service cache keys; it only makes the job
    /// suspendable/preemptible and crash-recoverable.
    pub checkpoint: CheckpointSpec,
    /// Safety cap on simulated steps.
    pub max_steps: u64,
    /// Node receiving the trigger.
    pub root_node: NodeId,
    /// Cooperative stop/deadline control.
    pub stop: Option<StopHandle>,
    /// Race a portfolio of members instead of one stack — the one
    /// description of *what to search* a job carries. Flat member lists
    /// and strategy expressions both arrive here already lowered
    /// (`"...".parse::<PortfolioSpec>()` accepts either grammar), so
    /// nothing downstream interprets an expression. Honoured by
    /// portfolio-aware runners (the solver service and
    /// `hyperspace-portfolio`'s `PortfolioRunner`); a plain
    /// [`ErasedStackJob::new`] job ignores it. Part of the computation —
    /// the member set changes the search — so services must key caches
    /// on its `describe()`.
    pub portfolio: Option<crate::spec::PortfolioSpec>,
    /// Passive telemetry sink threaded into the assembled stack. Like
    /// the checkpoint policy this never changes what is computed (the
    /// observer has no channel back into the run), so it is *not* part
    /// of service cache keys.
    pub obs: ObsHandle,
}

impl Default for JobParams {
    fn default() -> Self {
        JobParams {
            topology: TopologySpec::Torus2D { w: 14, h: 14 },
            mapper: MapperSpec::LeastBusy {
                status_period: None,
            },
            backend: BackendSpec::Sequential,
            cancellation: false,
            objective: ObjectiveSpec::Enumerate,
            prune: PruneSpec::Off,
            checkpoint: CheckpointSpec::Off,
            max_steps: 1_000_000,
            root_node: 0,
            stop: None,
            portfolio: None,
            obs: ObsHandle::off(),
        }
    }
}

/// A type-erased solver job: any [`RecProgram`] plus its root argument,
/// boxed behind one uniform "start with these parameters" closure.
///
/// This is what lets a single worker pool host SAT, knapsack, n-queens
/// and arbitrary user programs side by side: the pool sees only
/// `ErasedStackJob`s, the [`RunSlice`]s they start as, and
/// [`RunSummary`]s. Every job is a slice from start to finish — without
/// a checkpoint interval it is one slice spanning the whole step cap.
pub struct ErasedStackJob {
    start: Box<StartFn>,
}

/// Assembles a job's stack (or race) under the given parameters and
/// hands it back suspended at step zero.
type StartFn = dyn FnOnce(&JobParams) -> Box<dyn RunSlice> + Send;

impl ErasedStackJob {
    /// Erases `program(root_arg)` into a uniform job.
    pub fn new<P>(program: P, root_arg: P::Arg) -> Self
    where
        P: RecProgram,
        P::Out: std::fmt::Debug,
    {
        ErasedStackJob::from_start_fn(move |params: &JobParams| {
            StackBuilder::from_params(program, params).start(root_arg, params.root_node)
        })
    }

    /// Erases a closure that assembles the run itself — the hook
    /// portfolio-aware services use to put multi-member races (whose
    /// slices end at sync-epoch barriers) on the same worker pools as
    /// single-stack solves.
    pub fn from_start_fn(
        start: impl FnOnce(&JobParams) -> Box<dyn RunSlice> + Send + 'static,
    ) -> Self {
        ErasedStackJob {
            start: Box::new(start),
        }
    }

    /// Assembles the job and hands it back suspended at step zero,
    /// without executing anything; drive it with
    /// [`RunSlice::run_slice`].
    pub fn start(self, params: &JobParams) -> Box<dyn RunSlice> {
        (self.start)(params)
    }

    /// Assembles the job and drives it slice by slice to completion —
    /// bit-identical whatever the checkpoint interval.
    pub fn run(self, params: &JobParams) -> RunSummary {
        let mut slice = self.start(params);
        loop {
            match slice.run_slice() {
                SliceOutcome::Finished(summary) => break summary,
                SliceOutcome::Yielded(next) => slice = next,
            }
        }
    }
}

impl std::fmt::Debug for ErasedStackJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ErasedStackJob(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperspace_recursion::{FnProgram, Rec};

    fn sum_program() -> impl RecProgram<Arg = u64, Out = u64> {
        FnProgram::new(|n: u64| -> Rec<u64, u64> {
            if n < 1 {
                Rec::done(0)
            } else {
                Rec::call(n - 1).then(move |total| Rec::done(total + n))
            }
        })
    }

    #[test]
    fn default_stack_runs() {
        let report = StackBuilder::new(sum_program()).run(10, 0);
        assert_eq!(report.result, Some(55));
        assert_eq!(report.outcome, RunOutcome::Halted);
        assert!(report.computation_time > 0);
        assert!(report.performance() > 0.0);
        assert_eq!(report.rec_totals.started, 11);
    }

    #[test]
    fn every_mapper_spec_runs() {
        for spec in [
            MapperSpec::RoundRobin,
            MapperSpec::LeastBusy {
                status_period: None,
            },
            MapperSpec::LeastBusy {
                status_period: Some(4),
            },
            MapperSpec::Random { seed: 9 },
            MapperSpec::WeightAware {
                local_threshold: 2,
                status_period: None,
            },
        ] {
            let report = StackBuilder::new(sum_program())
                .topology(TopologySpec::Torus2D { w: 4, h: 4 })
                .mapper(spec.clone())
                .run(8, 0);
            assert_eq!(report.result, Some(36), "{:?}", spec);
        }
    }

    #[test]
    fn every_topology_spec_runs() {
        for spec in [
            TopologySpec::Torus2D { w: 4, h: 4 },
            TopologySpec::Torus3D { x: 3, y: 3, z: 3 },
            TopologySpec::Hypercube { dim: 4 },
            TopologySpec::Full { n: 16 },
            TopologySpec::Ring { n: 12 },
            TopologySpec::Grid(vec![4, 4]),
        ] {
            let report = StackBuilder::new(sum_program())
                .topology(spec.clone())
                .run(6, 0);
            assert_eq!(report.result, Some(21), "{:?}", spec);
        }
    }

    #[test]
    fn quiescent_run_counts_everything() {
        let report = StackBuilder::new(sum_program())
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .halt_on_root_reply(false)
            .run(12, 5);
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        assert_eq!(report.result, Some(78));
        // 13 activations, each serviced exactly once.
        assert_eq!(report.rec_totals.started, 13);
        assert_eq!(report.rec_totals.completed, 13);
        assert_eq!(report.requests_total, 13);
        assert_eq!(report.replies_total, 13);
    }

    #[test]
    fn global_random_mapper_switches_to_routed_delivery() {
        // Global mapping targets arbitrary nodes; the builder must flip
        // the engine into the NoC model so those sends are legal, and the
        // computation must still be correct.
        let report = StackBuilder::new(sum_program())
            .topology(TopologySpec::Torus2D { w: 6, h: 6 })
            .mapper(MapperSpec::GlobalRandom { seed: 3 })
            .run(15, 0);
        assert_eq!(report.result, Some(120));
        // Multi-hop deliveries occurred (hop histogram saw > 1).
        assert!(report.metrics.hop_histogram.max().unwrap_or(0) > 1);
    }

    #[test]
    fn tripped_stop_handle_interrupts_run() {
        let stop = StopHandle::new();
        stop.stop();
        let report = StackBuilder::new(sum_program())
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .stop(stop)
            .run(1000, 0);
        assert_eq!(report.outcome, RunOutcome::Stopped);
        assert_eq!(report.result, None);
    }

    #[test]
    fn expired_deadline_stops_immediately() {
        let report = StackBuilder::new(sum_program())
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .deadline(std::time::Duration::ZERO)
            .run(1000, 0);
        assert_eq!(report.outcome, RunOutcome::Stopped);
    }

    #[test]
    fn generous_deadline_does_not_interfere() {
        let report = StackBuilder::new(sum_program())
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .deadline(std::time::Duration::from_secs(3600))
            .run(10, 0);
        assert_eq!(report.result, Some(55));
        assert_eq!(report.outcome, RunOutcome::Halted);
    }

    #[test]
    fn erased_job_matches_typed_run() {
        let params = JobParams {
            topology: TopologySpec::Torus2D { w: 4, h: 4 },
            mapper: MapperSpec::RoundRobin,
            ..JobParams::default()
        };
        let job = ErasedStackJob::new(sum_program(), 10);
        let summary = job.run(&params);
        assert_eq!(summary.result.as_deref(), Some("55"));
        let typed = StackBuilder::new(sum_program())
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .mapper(MapperSpec::RoundRobin)
            .run(10, 0);
        assert_eq!(typed.summary(), summary);
    }

    #[test]
    fn checkpointed_runs_are_bit_identical_to_monolithic_ones() {
        use crate::spec::CheckpointSpec;
        let run = |checkpoint: CheckpointSpec, backend: BackendSpec| {
            StackBuilder::new(sum_program())
                .topology(TopologySpec::Torus2D { w: 4, h: 4 })
                .backend(backend)
                .checkpoint(checkpoint)
                .run(12, 0)
        };
        let reference = run(CheckpointSpec::Off, BackendSpec::Sequential);
        assert_eq!(reference.result, Some(78));
        for backend in [
            BackendSpec::Sequential,
            BackendSpec::Parallel,
            BackendSpec::sharded(3),
        ] {
            for interval in [1u64, 7, 1_000_000] {
                let sliced = run(CheckpointSpec::every(interval), backend.clone());
                let tag = format!("{backend} interval={interval}");
                assert_eq!(sliced.result, reference.result, "{tag}");
                assert_eq!(sliced.outcome, reference.outcome, "{tag}");
                assert_eq!(sliced.steps, reference.steps, "{tag}");
                assert_eq!(sliced.computation_time, reference.computation_time, "{tag}");
                assert_eq!(sliced.rec_totals, reference.rec_totals, "{tag}");
                assert_eq!(
                    sliced.metrics.delivered_per_node, reference.metrics.delivered_per_node,
                    "{tag}"
                );
                assert_eq!(
                    sliced.metrics.queued_series.as_slice(),
                    reference.metrics.queued_series.as_slice(),
                    "{tag}"
                );
            }
        }
    }

    #[test]
    fn suspended_slices_expose_checkpoint_metadata_and_finish_identically() {
        use crate::slice::SliceOutcome;
        use crate::spec::CheckpointSpec;
        use hyperspace_obs::JobProbe;
        use std::sync::Arc;
        let reference = StackBuilder::new(sum_program())
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .run(12, 0)
            .summary();
        // The barrier's frontier reaches observers through `on_progress`.
        let probe = Arc::new(JobProbe::new(0, "sum", None));
        let mut slice = StackBuilder::new(sum_program())
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .checkpoint(CheckpointSpec::every(5))
            .observer(ObsHandle::new(probe.clone()))
            .start(12, 0);
        assert_eq!(slice.steps_done(), 0, "start() must not execute steps");
        let mut yields = 0u32;
        let summary = loop {
            match slice.run_slice() {
                SliceOutcome::Finished(summary) => break summary,
                SliceOutcome::Yielded(next) => {
                    yields += 1;
                    slice = next;
                    assert_eq!(probe.steps(), slice.steps_done());
                    assert!(probe.steps().is_multiple_of(5), "cuts land on barriers");
                    assert!(
                        probe.open_records() > 0,
                        "mid-run frontier must hold suspended activations"
                    );
                }
            }
        };
        assert!(yields > 0, "a 5-step slice must yield at least once");
        assert_eq!(summary, reference, "suspend/resume must not change the run");
    }

    #[test]
    fn erased_checkpointed_job_matches_monolithic_summary() {
        use crate::spec::CheckpointSpec;
        let monolithic = ErasedStackJob::new(sum_program(), 10).run(&JobParams {
            topology: TopologySpec::Torus2D { w: 4, h: 4 },
            ..JobParams::default()
        });
        let params = JobParams {
            topology: TopologySpec::Torus2D { w: 4, h: 4 },
            checkpoint: CheckpointSpec::every(3),
            ..JobParams::default()
        };
        // Driven whole.
        let sliced = ErasedStackJob::new(sum_program(), 10).run(&params);
        assert_eq!(sliced, monolithic);
        // Without an interval the whole run is one slice.
        let whole = ErasedStackJob::new(sum_program(), 10).start(&JobParams {
            checkpoint: CheckpointSpec::Off,
            ..params.clone()
        });
        match whole.run_slice() {
            SliceOutcome::Finished(summary) => assert_eq!(summary, monolithic),
            SliceOutcome::Yielded(_) => panic!("`Off` has no barrier to yield at"),
        }
        // Driven manually, slice by slice, from a suspended start.
        let mut slice = ErasedStackJob::new(sum_program(), 10).start(&params);
        assert_eq!(slice.steps_done(), 0, "start() must not execute steps");
        let mut yields = 0u32;
        let summary = loop {
            match slice.run_slice() {
                SliceOutcome::Finished(summary) => break summary,
                SliceOutcome::Yielded(next) => {
                    yields += 1;
                    slice = next;
                }
            }
        };
        assert!(yields > 0, "a 3-step interval must cut the run");
        assert_eq!(summary, monolithic);
    }

    #[test]
    fn sharded_backend_matches_sequential() {
        use crate::spec::BackendSpec;
        use hyperspace_sim::Partition;
        let run = |backend: BackendSpec| {
            StackBuilder::new(sum_program())
                .topology(TopologySpec::Torus2D { w: 6, h: 6 })
                .mapper(MapperSpec::LeastBusy {
                    status_period: None,
                })
                .backend(backend)
                .run(25, 7)
        };
        let seq = run(BackendSpec::Sequential);
        assert_eq!(seq.result, Some(325));
        for backend in [
            BackendSpec::Parallel,
            BackendSpec::sharded(1),
            BackendSpec::sharded(4),
            BackendSpec::Sharded {
                shards: 7,
                partition: Partition::RoundRobin,
                threads: Some(2),
            },
        ] {
            let sharded = run(backend.clone());
            assert_eq!(sharded.result, seq.result, "{backend}");
            assert_eq!(sharded.steps, seq.steps, "{backend}");
            assert_eq!(sharded.computation_time, seq.computation_time, "{backend}");
            assert_eq!(sharded.rec_totals, seq.rec_totals, "{backend}");
            assert_eq!(
                sharded.metrics.delivered_per_node, seq.metrics.delivered_per_node,
                "{backend}"
            );
            assert_eq!(
                sharded.metrics.queued_series.as_slice(),
                seq.metrics.queued_series.as_slice(),
                "{backend}"
            );
        }
    }

    #[test]
    fn strategy_with_default_prune_keeps_the_builder_policy() {
        // `Off` is the strategy default ("no opinion"): applying such a
        // member must not discard a job-level prune policy already set.
        use crate::spec::StrategySpec;
        let builder = StackBuilder::new(sum_program())
            .prune(PruneSpec::incumbent())
            .strategy(&StrategySpec::mesh());
        assert_eq!(builder.prune, PruneSpec::incumbent());
        // An explicit member policy (warm starts included) wins.
        let builder = StackBuilder::new(sum_program())
            .prune(PruneSpec::incumbent())
            .strategy(&StrategySpec::mesh().with_prune(PruneSpec::Incumbent { initial: Some(7) }));
        assert_eq!(builder.prune, PruneSpec::Incumbent { initial: Some(7) });
    }

    #[test]
    fn sharded_stack_reraises_handler_panics_with_the_original_message() {
        // A panicking program must fail the same way on every backend:
        // a panic whose message names the faulting node and step and
        // ends in the program's own text, not a queue-capacity expect.
        for backend in [
            BackendSpec::Sequential,
            BackendSpec::Parallel,
            BackendSpec::sharded(4),
        ] {
            let bomb = FnProgram::new(|n: u64| -> Rec<u64, u64> {
                if n == 0 {
                    panic!("injected stack fault");
                }
                Rec::call(n - 1).then(move |total| Rec::done(total + n))
            });
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                StackBuilder::new(bomb)
                    .topology(TopologySpec::Torus2D { w: 4, h: 4 })
                    .backend(backend.clone())
                    .run(3, 0)
            }));
            let payload = result.expect_err("the fault must propagate as a panic");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                message.starts_with("handler of node "),
                "{backend}: {message}"
            );
            assert!(message.contains("panicked at step"), "{backend}: {message}");
            assert!(
                message.ends_with("injected stack fault"),
                "{backend}: {message}"
            );
        }
    }

    #[test]
    fn sharded_backend_honours_global_random_mapper() {
        // GlobalRandom forces routed delivery: cross-shard transit paths.
        use crate::spec::BackendSpec;
        let run = |backend: BackendSpec| {
            StackBuilder::new(sum_program())
                .topology(TopologySpec::Torus2D { w: 6, h: 6 })
                .mapper(MapperSpec::GlobalRandom { seed: 3 })
                .backend(backend)
                .run(15, 0)
        };
        let seq = run(BackendSpec::Sequential);
        let sharded = run(BackendSpec::sharded(5));
        assert_eq!(seq.result, Some(120));
        assert_eq!(sharded.result, seq.result);
        assert_eq!(sharded.steps, seq.steps);
        assert_eq!(
            sharded.metrics.hop_histogram.max(),
            seq.metrics.hop_histogram.max()
        );
        assert_eq!(
            sharded.metrics.delivered_per_node,
            seq.metrics.delivered_per_node
        );
    }
}
