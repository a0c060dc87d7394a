//! The machine and its driver: K shards stepped in lockstep.
//!
//! [`ShardedSimulation`] partitions the machine's *state*: nodes are
//! split into K shards ([`Partition::Block`] keeps contiguous id ranges
//! together, [`Partition::RoundRobin`] stripes them) and every shard runs
//! the one step kernel (the `shard` module). The driver only decides who
//! steps them:
//!
//! * **inline** — one thread owns every shard (always the case for K = 1,
//!   which is [`crate::Simulation`]). Mail between shards is handed over
//!   directly and step results are returned by value: no lock, no
//!   barrier, no atomic, and nothing is allocated per run;
//! * **on T worker threads** — long-lived scoped workers, each owning a
//!   contiguous group of shards, meet at barriers and exchange through
//!   per-pair mailboxes. The caller's thread is worker 0 and doubles as
//!   the coordinator.
//!
//! # Determinism
//!
//! A run is **bit-identical** — same final states, same [`SimMetrics`],
//! same event trace, same checkpoint bytes — for any shard count, any
//! partitioner and any worker-thread count, because the kernel orders
//! everything that crosses a shard boundary by its `(step, sender,
//! emission index)` key before it touches a queue. Thread interleaving
//! can change *when* work happens but never *what order* any queue
//! observes. [`crate::reference`] is the independent oracle the kernel
//! is tested against.
//!
//! # Failure containment
//!
//! A panicking node handler would leave sibling shards waiting at a
//! barrier forever. The kernel catches it: the faulting node drops the
//! rest of its step, every other node finishes it — so the machine left
//! behind does not depend on the sharding — and the coordinator reports
//! the first panic in node order as [`SimError::HandlerPanic`]. Every
//! worker exits cleanly.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use hyperspace_obs::{ObsHandle, Phase};
use hyperspace_topology::{Csr, NodeId, Topology};

use crate::checkpoint::{encode_body, CheckpointState, SimCheckpoint};
use crate::codec::{Codec, CodecError};
use crate::engine::{DeliveryModel, RunOutcome, RunReport, SimConfig, SimError, StepReport};
use crate::envelope::Envelope;
use crate::program::{InitCtx, NodeProgram};
use crate::record::{SimMetrics, TraceEvent, TraceKind};
use crate::shard::{Env, Key, Keyed, Shard, StepOut};

/// How nodes are assigned to shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Partition {
    /// Contiguous id blocks: shard 0 gets the lowest ids. Preserves mesh
    /// locality for row-major topologies, so most neighbour traffic stays
    /// intra-shard.
    #[default]
    Block,
    /// Striped assignment (`node % shards`): spreads hot id ranges evenly
    /// at the cost of more cross-shard traffic.
    RoundRobin,
}

impl Partition {
    /// The nodes of `shard`, in ascending id order (possibly empty when
    /// there are more shards than nodes).
    pub fn nodes_of(&self, shard: usize, num_nodes: usize, shards: usize) -> Vec<NodeId> {
        match self {
            // The first `num_nodes % shards` blocks get one extra node.
            Partition::Block => {
                let (base, rem) = (num_nodes / shards, num_nodes % shards);
                let lo = shard * base + shard.min(rem);
                let hi = lo + base + usize::from(shard < rem);
                (lo as NodeId..hi as NodeId).collect()
            }
            Partition::RoundRobin => (shard..num_nodes)
                .step_by(shards)
                .map(|n| n as NodeId)
                .collect(),
        }
    }
}

/// How a machine is cut into shards and how many threads step them, on
/// top of a [`SimConfig`].
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Number of shards (clamped to at least 1; may exceed the node
    /// count, leaving trailing shards empty).
    pub shards: usize,
    /// Node-to-shard assignment policy.
    pub partition: Partition,
    /// Worker threads driving the shards (`None` = one per shard, up to
    /// the machine's parallelism). Results are identical for every
    /// value; this only trades wall-clock for cores.
    pub threads: Option<usize>,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(4),
            partition: Partition::Block,
            threads: None,
        }
    }
}

impl ShardedConfig {
    /// A block-partitioned configuration with `shards` shards;
    /// `with_shards(1)` is the sequential machine, stepped inline on the
    /// calling thread.
    pub fn with_shards(shards: usize) -> Self {
        ShardedConfig {
            shards,
            partition: Partition::Block,
            threads: None,
        }
    }
}

/// K×K mailbox matrix of the threaded driver; slot `[dst][src]` carries
/// one phase's messages from shard `src` to shard `dst`. Writers post
/// whole batches, readers drain their row — a barrier separates the two.
struct MailGrid<M> {
    slots: Vec<Vec<Mutex<Vec<Keyed<M>>>>>,
}

impl<M> MailGrid<M> {
    fn new(shards: usize) -> Self {
        MailGrid {
            slots: (0..shards)
                .map(|_| (0..shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
        }
    }

    /// Posts `batch` into the `[dst][src]` slot by swapping buffers: the
    /// slot takes the batch's contents and the caller gets back the
    /// slot's drained-but-allocated vector, so posting buffers recycle
    /// their capacity step after step instead of reallocating.
    fn post(&self, dst: usize, src: usize, batch: &mut Vec<Keyed<M>>) {
        if batch.is_empty() {
            return;
        }
        let mut slot = self.slots[dst][src].lock().expect("mail slot poisoned");
        debug_assert!(slot.is_empty(), "mail slot drained every step");
        std::mem::swap(&mut *slot, batch);
    }

    /// Drains every sender's slot for `dst` into `mail`.
    fn collect(&self, dst: usize, mail: &mut Vec<Keyed<M>>) {
        for slot in &self.slots[dst] {
            mail.append(&mut slot.lock().expect("mail slot poisoned"));
        }
    }
}

/// [`Shared::next`] value telling the workers to exit (steps count
/// from 1).
const FINISH: u64 = 0;

/// What the worker threads of one run share. Exists only when more than
/// one worker runs.
struct Shared<M> {
    barrier: Barrier,
    /// The step to execute next, or [`FINISH`]; published by the
    /// coordinator before the command barrier. The coordinator owns the
    /// clock: dead-step fast-forwards advance it by more than one.
    next: AtomicU64,
    /// Phase-1 mail (routed arrivals and migrations) and phase-3 mail
    /// (sends). Two grids, because a fast worker posts its sends while a
    /// slow one still drains its phase-1 row.
    hop_mail: MailGrid<M>,
    send_mail: MailGrid<M>,
    /// Step results of workers 1.., read by the coordinator after the
    /// end-of-step barrier (its own are returned by value).
    outs: Vec<Mutex<StepOut>>,
}

/// Why a run stopped abnormally. A handler panic keeps its payload, so
/// that each public face can decide what to do with it.
pub(crate) struct Fault {
    pub(crate) error: SimError,
    pub(crate) payload: Option<Box<dyn Any + Send>>,
}

impl From<Fault> for SimError {
    fn from(fault: Fault) -> SimError {
        fault.error
    }
}

/// The machine-wide view of the run between steps, owned by whichever
/// thread coordinates.
struct Clock {
    step: u64,
    /// Messages queued anywhere (inboxes plus transit).
    queued: u64,
    halted: bool,
    /// Every node idle; refreshed by each step and at the start of a run.
    idle: bool,
}

impl Default for Clock {
    /// Step 0 of a machine with nothing queued.
    fn default() -> Self {
        Clock {
            step: 0,
            queued: 0,
            halted: false,
            idle: true,
        }
    }
}

impl Clock {
    /// Decides whether to run another step: `Some(outcome)` ends the
    /// run, `None` means the clock now shows the step to execute. The
    /// per-step series live in shard 0's metrics (`series`).
    fn decide(&mut self, cfg: &SimConfig, series: &mut SimMetrics) -> Option<RunOutcome> {
        // Completion checks come before the stop check: a run that
        // halted or drained during its final step has a finished result,
        // and a deadline tripping in that same instant must not discard
        // it.
        if self.halted {
            return Some(RunOutcome::Halted);
        }
        if self.queued == 0 && self.idle {
            return Some(RunOutcome::Quiescent);
        }
        if cfg.stop.as_ref().is_some_and(|stop| stop.should_stop()) {
            return Some(RunOutcome::Stopped);
        }
        if self.step >= cfg.max_steps {
            return Some(RunOutcome::MaxSteps);
        }
        // Event-driven fast-forward: with nothing queued anywhere, the
        // only possible work left is the next tick — every step until
        // then delivers nothing, runs no handler and stages nothing.
        // Synthesise those steps' (empty) records and jump, instead of
        // waking every shard to do nothing.
        if self.queued == 0 {
            // A period of 0 means ticks never fire.
            if let Some(k) = cfg.tick_every.filter(|&k| k > 0) {
                let next_tick = (self.step / k + 1) * k;
                while self.step < (next_tick - 1).min(cfg.max_steps) {
                    self.step += 1;
                    if cfg.record_queue_series {
                        series.queued_series.push(0);
                        series.delivered_series.push(0);
                    }
                    cfg.obs.on_step(self.step, 0, 0);
                }
                if self.step >= cfg.max_steps {
                    return Some(RunOutcome::MaxSteps);
                }
            }
        }
        self.step += 1;
        None
    }

    /// Books the step just executed; returns what it delivered. Errors
    /// take their canonical order: panics before overflows (handlers run
    /// before sends are absorbed). The observer sees each successfully
    /// completed step, never a failed one.
    fn absorb(
        &mut self,
        cfg: &SimConfig,
        out: &mut StepOut,
        series: &mut SimMetrics,
    ) -> Result<u64, Fault> {
        self.queued = out.queued;
        self.halted |= out.halted;
        self.idle = !out.busy;
        let step = self.step;
        if let Some((node, payload)) = out.panic.take() {
            let message = crate::panic_message(payload.as_ref(), "handler panicked");
            let error = SimError::HandlerPanic {
                node,
                step,
                message,
            };
            let payload = Some(payload);
            return Err(Fault { error, payload });
        }
        if let Some((_, node, len)) = out.overflow.take() {
            let error = SimError::QueueOverflow { node, step, len };
            return Err(Fault {
                error,
                payload: None,
            });
        }
        if cfg.record_queue_series {
            series.queued_series.push(out.queued);
            series.delivered_series.push(out.delivered);
        }
        cfg.obs.on_step(step, out.delivered, out.queued);
        Ok(out.delivered)
    }
}

/// Runs `f` on `shard`, attributed to `phase` when this step is sampled.
fn timed<P: NodeProgram>(
    obs: &ObsHandle,
    sampled: bool,
    phase: Phase,
    shard: &mut Shard<P>,
    f: impl FnOnce(&mut Shard<P>),
) {
    if sampled {
        obs.time_phase(shard.id, phase, || f(shard));
    } else {
        f(shard);
    }
}

/// Carries every `out[d]` of the group's shards to shard `d`'s `mail`.
/// Inline (`via` is `None`) the group is the whole machine and the
/// buffers are handed over directly; between workers they go through
/// the grid, with a barrier between posting and draining.
fn exchange<P: NodeProgram>(
    group: &mut [Shard<P>],
    via: Option<(&MailGrid<P::Msg>, &Barrier)>,
    obs: &ObsHandle,
) {
    match via {
        None => {
            for src in 0..group.len() {
                for dst in (0..group.len()).filter(|&dst| dst != src) {
                    let mut batch = std::mem::take(&mut group[src].out[dst]);
                    group[dst].mail.append(&mut batch);
                    group[src].out[dst] = batch;
                }
            }
        }
        Some((grid, barrier)) => {
            for shard in group.iter_mut() {
                let src = shard.id;
                for (dst, batch) in shard.out.iter_mut().enumerate() {
                    if dst != src {
                        grid.post(dst, src, batch);
                    }
                }
            }
            obs.time_phase(group[0].id, Phase::BarrierWait, || barrier.wait());
            for shard in group.iter_mut() {
                grid.collect(shard.id, &mut shard.mail);
            }
        }
    }
}

/// One simulated step of a group of shards — the fixed phase order of
/// the kernel (see [`crate::shard`]) — reported into `out`. `shared` is
/// `None` when the group is the whole machine.
fn step_group<T: Topology, P: NodeProgram>(
    group: &mut [Shard<P>],
    env: &Env<'_, T, P>,
    step: u64,
    shared: Option<&Shared<P::Msg>>,
    out: &mut StepOut,
) {
    let obs = &env.cfg.obs;
    // Phase attribution is sampled (see `ObsHandle::phase_sampled`): on
    // unsampled steps each phase below is the bare call, no clock reads.
    let sampled = obs.phase_sampled(step);
    // A machine of one shard exchanges with nobody: the kernel has
    // already put its traffic into the inboxes.
    let alone = group[0].alone();
    if env.cfg.delivery == DeliveryModel::Routed {
        for shard in group.iter_mut() {
            timed(obs, sampled, Phase::Delivery, shard, |s| s.hop(env));
        }
        if !alone {
            exchange(group, shared.map(|s| (&s.hop_mail, &s.barrier)), obs);
            for shard in group.iter_mut() {
                timed(obs, sampled, Phase::Exchange, shard, |s| s.absorb_hop(env));
            }
        }
    }
    for shard in group.iter_mut() {
        shard.run(env, step);
    }
    if !alone {
        exchange(group, shared.map(|s| (&s.send_mail, &s.barrier)), obs);
        for shard in group.iter_mut() {
            timed(obs, sampled, Phase::Exchange, shard, |s| {
                s.absorb_sends(env)
            });
        }
    }
    *out = StepOut::default();
    for shard in group.iter_mut() {
        shard.finish(env, out);
    }
}

/// A machine between runs: a topology cut into shards, with every
/// node's state and queue buffers, but no program, no run configuration
/// and nothing a run left behind. [`SimShell::start`] runs a program on
/// it; [`ShardedSimulation::into_shell`] hands a machine back as one, so
/// that the next run of the same program type on the same topology and
/// sharding reuses the buffers the last one grew.
pub struct SimShell<T: Topology, P: NodeProgram> {
    topo: T,
    csr: Csr,
    /// `(shard, local index)` of every node.
    home: Vec<(usize, usize)>,
    threads: usize,
    shards: Vec<Shard<P>>,
}

impl<T: Topology, P: NodeProgram> SimShell<T, P> {
    /// An empty machine: `topo` cut into K shards as `scfg` says, no node
    /// initialised yet.
    pub fn new(topo: T, scfg: ShardedConfig) -> Self {
        let n = topo.num_nodes();
        let k = scfg.shards.max(1);
        let csr = Csr::build(&topo);
        let mut home = vec![(0, 0); n];
        let shards = (0..k)
            .map(|id| {
                let nodes = scfg.partition.nodes_of(id, n, k);
                for (li, &node) in nodes.iter().enumerate() {
                    home[node as usize] = (id, li);
                }
                Shard::new(id, k, &nodes)
            })
            .collect();
        let threads = match scfg.threads {
            Some(threads) => threads,
            None if k == 1 => 1,
            None => std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1),
        };
        SimShell {
            topo,
            csr,
            home,
            threads: threads.clamp(1, k),
            shards,
        }
    }

    /// Makes the machine that runs `program` under `cfg`: every node
    /// initialised in global id order, whatever the partition — by
    /// `program.init` on an empty shell, by [`NodeProgram::reinit`] on a
    /// node a run has left — every queue empty, the clock at step 0.
    pub fn start(self, program: P, mut cfg: SimConfig) -> ShardedSimulation<T, P> {
        // A zero budget would deliver nothing forever (see the field's
        // doc); clamp rather than panic so sweeps over budgets are safe.
        cfg.msgs_per_step = cfg.msgs_per_step.max(1);
        let SimShell {
            topo,
            csr,
            home,
            threads,
            shards,
        } = self;
        let mut sim = ShardedSimulation {
            topo,
            program,
            cfg,
            csr,
            home,
            threads,
            shards,
            clock: Clock::default(),
            merged: None,
        };
        sim.init();
        let (n, k) = (sim.home.len(), sim.shards.len());
        for shard in &mut sim.shards {
            shard.metrics = SimMetrics::new(n, sim.cfg.record_node_activity);
        }
        sim.merged = (k > 1).then(|| (SimMetrics::new(n, false), Vec::new()));
        sim
    }
}

/// A deterministic time-stepped simulation of a hyperspace machine
/// running one [`NodeProgram`] on every node, its state cut into K
/// shards: same API shape as [`crate::Simulation`] (which is this
/// machine at K = 1), bit-identical results for every configuration.
pub struct ShardedSimulation<T: Topology, P: NodeProgram> {
    topo: T,
    program: P,
    cfg: SimConfig,
    csr: Csr,
    /// `(shard, local index)` of every node.
    home: Vec<(usize, usize)>,
    threads: usize,
    shards: Vec<Shard<P>>,
    clock: Clock,
    /// The machine-wide metrics and trace folded from the shards after
    /// each run. A single shard's instrumentation already is the
    /// machine's and is read in place (`None`).
    merged: Option<(SimMetrics, Vec<TraceEvent>)>,
}

impl<T: Topology, P: NodeProgram> ShardedSimulation<T, P> {
    /// Builds the machine: K shards, each owning its partition's node
    /// states and queues. Nodes are initialised in global id order via
    /// `program.init`, whatever the partition.
    pub fn new(topo: T, program: P, cfg: SimConfig, scfg: ShardedConfig) -> Self {
        SimShell::new(topo, scfg).start(program, cfg)
    }

    /// Ends the run and hands the machine back as a shell: queued and
    /// in-flight envelopes are dropped, every node state is released
    /// ([`NodeProgram::release`]), and the program is dropped with the
    /// run's configuration. The next [`SimShell::start`] re-initialises
    /// the nodes.
    pub fn into_shell(mut self) -> SimShell<T, P> {
        for shard in &mut self.shards {
            shard.clear();
            shard
                .states
                .iter_mut()
                .for_each(|st| self.program.release(st));
        }
        let ShardedSimulation {
            topo,
            csr,
            home,
            threads,
            shards,
            ..
        } = self;
        SimShell {
            topo,
            csr,
            home,
            threads,
            shards,
        }
    }

    /// The one initialisation path, on an empty shell and on a machine a
    /// run has left alike: every shard emptied, every node initialised
    /// in global id order, the clock at step 0.
    fn init(&mut self) {
        for shard in &mut self.shards {
            shard.fit_inboxes();
            shard.clear();
        }
        let n = self.home.len();
        for node in 0..n as NodeId {
            let ictx = InitCtx {
                node,
                num_nodes: n,
                neighbours: self.csr.neighbours(node),
            };
            let (shard, local) = self.home[node as usize];
            // Every shard's nodes are ascending, so pushing in global
            // order fills each shard in its local order.
            let states = &mut self.shards[shard].states;
            match states.get_mut(local) {
                Some(state) => self.program.reinit(state, node, &ictx),
                None => states.push(self.program.init(node, &ictx)),
            }
        }
        self.clock = Clock::default();
    }

    /// Moves the run's measurements out (the ones [`Self::metrics`]
    /// reads), leaving empty ones behind.
    pub fn take_metrics(&mut self) -> SimMetrics {
        match &mut self.merged {
            Some((metrics, _)) => std::mem::take(metrics),
            None => std::mem::take(&mut self.shards[0].metrics),
        }
    }

    /// Injects an external trigger message into `node`'s inbox (§IV-A:
    /// "the backend kickstarts computations by sending EMPTY_MSG to a
    /// user-selected node"). The source is recorded as the node itself.
    pub fn inject(&mut self, node: NodeId, msg: P::Msg) {
        let (shard, local) = self.home[node as usize];
        let step = self.clock.step;
        let trigger = Envelope {
            src: node,
            dst: node,
            sent_step: step,
            hops: 0,
            payload: msg,
        };
        // Triggers arrive from outside the machine: no capacity bound.
        let inboxes = &mut self.shards[shard].inboxes;
        inboxes.push(None, local, (step, node, 0), trigger);
        self.clock.queued += 1;
    }

    /// Current simulation step (number of steps executed so far).
    pub fn current_step(&self) -> u64 {
        self.clock.step
    }

    /// Replaces the `max_steps` cap. Combined with the re-entrant
    /// [`ShardedSimulation::run_to_quiescence`] this yields bounded
    /// *epochs*: run to a cap ([`RunOutcome::MaxSteps`]), inspect or
    /// inject, raise the cap, resume — the portfolio subsystem's
    /// synchronisation mechanism.
    pub fn set_max_steps(&mut self, cap: u64) {
        self.cfg.max_steps = cap;
    }

    /// Total messages currently queued (inboxes plus transit).
    pub fn queued(&self) -> u64 {
        self.clock.queued
    }

    /// Immutable access to a node's state.
    pub fn state(&self, node: NodeId) -> &P::State {
        let (shard, local) = self.home[node as usize];
        &self.shards[shard].states[local]
    }

    /// Shard 0's node states: every node's, on a single-shard machine.
    pub(crate) fn first_shard_states(&self) -> &[P::State] {
        &self.shards[0].states
    }

    /// The run's measurements so far (refreshed after every run).
    pub fn metrics(&self) -> &SimMetrics {
        match &self.merged {
            Some((metrics, _)) => metrics,
            None => &self.shards[0].metrics,
        }
    }

    /// The event trace in delivery order (empty unless `record_trace`
    /// is set).
    pub fn trace(&self) -> &[TraceEvent] {
        match &self.merged {
            Some((_, trace)) => trace,
            None => &self.shards[0].trace,
        }
    }

    /// The simulated machine's topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// Executes one simulation step, on the calling thread.
    pub fn step(&mut self) -> Result<StepReport, SimError> {
        Ok(self.step_once()?)
    }

    /// Steps until no messages remain, a handler halts the run, the step
    /// cap is reached, or the stop handle trips.
    pub fn run_to_quiescence(&mut self) -> Result<RunReport, SimError> {
        Ok(self.drive()?)
    }

    /// Splits the machine into a run's read-only context and the parts
    /// the run mutates.
    fn parts(&mut self) -> (Env<'_, T, P>, &mut [Shard<P>], &mut Clock) {
        let env = Env {
            topo: &self.topo,
            program: &self.program,
            csr: &self.csr,
            cfg: &self.cfg,
            home: &self.home,
        };
        (env, &mut self.shards, &mut self.clock)
    }

    pub(crate) fn step_once(&mut self) -> Result<StepReport, Fault> {
        let (env, shards, clock) = self.parts();
        clock.step += 1;
        let mut out = StepOut::default();
        step_group(shards, &env, clock.step, None, &mut out);
        let booked = clock.absorb(env.cfg, &mut out, &mut shards[0].metrics);
        self.refresh_merged();
        Ok(StepReport {
            step: self.clock.step,
            delivered: booked?,
            queued_after: self.clock.queued,
            halted: self.clock.halted,
        })
    }

    pub(crate) fn drive(&mut self) -> Result<RunReport, Fault> {
        let k = self.shards.len();
        // Contiguous shard groups, one worker each. Recompute the worker
        // count from the group size: `k = 5, threads = 4` yields only 3
        // non-empty groups, and the barrier must match exactly.
        let group_size = k.div_ceil(self.threads);
        let workers = k.div_ceil(group_size);
        let (env, shards, clock) = self.parts();
        clock.idle = shards.iter().all(|s| s.idle(env.program, env.cfg));
        let outcome = if workers == 1 {
            let mut out = StepOut::default();
            loop {
                if let Some(outcome) = clock.decide(env.cfg, &mut shards[0].metrics) {
                    break Ok(outcome);
                }
                step_group(shards, &env, clock.step, None, &mut out);
                if let Err(fault) = clock.absorb(env.cfg, &mut out, &mut shards[0].metrics) {
                    break Err(fault);
                }
            }
        } else {
            let shared = Shared {
                barrier: Barrier::new(workers),
                next: AtomicU64::new(FINISH),
                hop_mail: MailGrid::new(k),
                send_mail: MailGrid::new(k),
                outs: (1..workers).map(|_| Mutex::default()).collect(),
            };
            let mut groups = shards.chunks_mut(group_size);
            let first = groups.next().expect("a machine has at least one shard");
            std::thread::scope(|scope| {
                for (group, slot) in groups.zip(&shared.outs) {
                    let (env, shared) = (&env, &shared);
                    scope.spawn(move || follow(group, env, shared, slot));
                }
                lead(first, &env, &shared, clock)
            })
        };
        self.refresh_merged();
        Ok(RunReport {
            outcome: outcome?,
            steps: self.clock.step,
            computation_time: self.metrics().computation_time(),
        })
    }

    /// Folds the shards' instrumentation into the machine-wide view —
    /// first each shard's hop tally into its own histogram, which a
    /// single shard's metrics are read from in place. Every run, step
    /// and restore returns through here.
    fn refresh_merged(&mut self) {
        self.shards.iter_mut().for_each(Shard::fold_hops);
        let Some((metrics, trace)) = &mut self.merged else {
            return;
        };
        // Shard 0 carries the machine-wide per-step series.
        *metrics = self.shards[0].metrics.clone();
        for shard in &self.shards[1..] {
            metrics.merge_shard(&shard.metrics);
        }
        trace.clear();
        trace.extend(self.shards.iter().flat_map(|s| s.trace.iter().copied()));
        // Per step the machine emits all Deliver events (ascending
        // destination), then all Send events (ascending sender). Each
        // shard's fragment is already in that order for its own nodes; a
        // stable sort by the global key recovers the exact interleaving.
        trace.sort_by_key(|e| {
            let (rank, node) = match e.kind {
                TraceKind::Deliver => (0u8, e.dst),
                TraceKind::Send => (1u8, e.src),
            };
            (e.step, rank, node)
        });
    }

    /// Consumes the simulation, returning final states (global node
    /// order) and metrics.
    pub fn into_parts(mut self) -> (Vec<P::State>, SimMetrics) {
        let metrics = match self.merged.take() {
            Some((metrics, _)) => metrics,
            None => std::mem::take(&mut self.shards[0].metrics),
        };
        let mut owned: Vec<_> = self
            .shards
            .into_iter()
            .map(|shard| shard.states.into_iter())
            .collect();
        // Each shard holds its nodes ascending: walking the nodes in
        // global order drains every shard front to back.
        let states = self
            .home
            .iter()
            .map(|&(shard, _)| owned[shard].next().expect("one state per node"))
            .collect();
        (states, metrics)
    }
}

/// A follower's run loop: waits for the coordinator's command, steps its
/// group of shards, publishes the result.
fn follow<T: Topology, P: NodeProgram>(
    group: &mut [Shard<P>],
    env: &Env<'_, T, P>,
    shared: &Shared<P::Msg>,
    slot: &Mutex<StepOut>,
) {
    let obs = &env.cfg.obs;
    // Barrier waits are attributed to the worker's first shard; the
    // observer sees one span per wait per worker thread.
    let worker = group[0].id;
    loop {
        // command visible to every thread
        obs.time_phase(worker, Phase::BarrierWait, || shared.barrier.wait());
        let step = shared.next.load(Ordering::SeqCst);
        if step == FINISH {
            return;
        }
        let mut out = StepOut::default();
        step_group(group, env, step, Some(shared), &mut out);
        *slot.lock().expect("step slot poisoned") = out;
        // step results published
        obs.time_phase(worker, Phase::BarrierWait, || shared.barrier.wait());
    }
}

/// Worker 0's run loop: steps its own group like a follower and, while
/// its siblings wait at the command barrier, folds every worker's step
/// results and decides what happens next.
fn lead<T: Topology, P: NodeProgram>(
    group: &mut [Shard<P>],
    env: &Env<'_, T, P>,
    shared: &Shared<P::Msg>,
    clock: &mut Clock,
) -> Result<RunOutcome, Fault> {
    let (cfg, obs) = (env.cfg, &env.cfg.obs);
    let mut fault = None;
    loop {
        let verdict = match fault.take() {
            Some(fault) => Some(Err(fault)),
            None => clock.decide(cfg, &mut group[0].metrics).map(Ok),
        };
        let next = if verdict.is_some() {
            FINISH
        } else {
            clock.step
        };
        shared.next.store(next, Ordering::SeqCst);
        obs.time_phase(0, Phase::BarrierWait, || shared.barrier.wait());
        if let Some(verdict) = verdict {
            return verdict;
        }
        let mut out = StepOut::default();
        step_group(group, env, clock.step, Some(shared), &mut out);
        obs.time_phase(0, Phase::BarrierWait, || shared.barrier.wait());
        for slot in &shared.outs {
            out.merge(std::mem::take(
                &mut *slot.lock().expect("step slot poisoned"),
            ));
        }
        fault = clock.absorb(cfg, &mut out, &mut group[0].metrics).err();
    }
}

impl<T: Topology, P: NodeProgram> ShardedSimulation<T, P>
where
    P::State: Codec,
    P::Msg: Codec,
{
    /// Serialises the machine's complete logical state at the current
    /// step barrier. Valid between steps only (which is whenever the
    /// caller can observe `&self`): the staging buffers are drained
    /// every step and the hop tallies folded after every run, so a
    /// checkpoint never holds half a step. The bytes are a pure function
    /// of the logical state — identical whatever the shard count,
    /// partitioner or thread count — and restore under any other.
    pub fn snapshot(&self) -> SimCheckpoint {
        let n = self.home.len();
        // Each shard's transit queue is key-sorted; the union in key
        // order is the machine's global FIFO.
        let mut transit: Vec<(Key, NodeId, &Envelope<P::Msg>)> = self
            .shards
            .iter()
            .flat_map(|s| s.transit.iter().map(|m| (m.key, m.at, &m.env)))
            .collect();
        transit.sort_by_key(|&(key, _, _)| key);
        let body = self.cfg.obs.time_phase(0, Phase::CheckpointEncode, || {
            encode_body(
                (0..n as NodeId).map(|node| self.state(node)),
                (self.home.iter()).map(|&(shard, local)| &self.shards[shard].inboxes.queues[local]),
                transit.len(),
                transit.into_iter(),
                self.metrics(),
                self.trace(),
            )
        });
        self.cfg.obs.on_checkpoint(body.len() as u64);
        SimCheckpoint::new(self.clock.step, self.clock.halted, n, body)
    }

    /// Rebuilds a machine from a checkpoint — taken under *any* sharding
    /// — ready to resume exactly where the snapshot was taken:
    /// continuing the run produces bit-identical states, metrics and
    /// traces to a run that was never interrupted. The caller supplies
    /// the same topology, program and engine config the checkpoint was
    /// taken under (a machine-size mismatch is rejected); the sharding
    /// configuration is free (resume a sequential run `sharded:7`,
    /// re-shard a `sharded:2` run as `sharded:5`, ...).
    pub fn restore(
        topo: T,
        program: P,
        cfg: SimConfig,
        scfg: ShardedConfig,
        ckpt: &SimCheckpoint,
    ) -> Result<Self, CodecError> {
        let mut sim = ShardedSimulation::new(topo, program, cfg, scfg);
        let n = sim.home.len();
        if ckpt.num_nodes() != n {
            return Err(CodecError::Invalid(format!(
                "checkpoint is for a {}-node machine, topology has {n}",
                ckpt.num_nodes()
            )));
        }
        let state = CheckpointState::<P::State, P::Msg>::decode(ckpt)?;
        sim.clock = Clock {
            step: ckpt.step(),
            queued: state.queued(),
            halted: ckpt.halted(),
            idle: true,
        };
        for (node, (st, inbox)) in state.states.into_iter().zip(state.inboxes).enumerate() {
            let (shard, local) = sim.home[node];
            sim.shards[shard].states[local] = st;
            sim.shards[shard].inboxes.restore(local, inbox);
        }
        // The canonical transit list is globally key-sorted, so each
        // shard receives its slice already in its required order.
        for (key, at, env) in state.transit {
            let shard = &mut sim.shards[sim.home[at as usize].0];
            shard.transit.push(Keyed { key, at, env });
        }
        // All instrumentation is parked on shard 0: per-node vectors
        // scatter-add under `merge_shard`, so one shard holding the whole
        // prefix and the rest holding zeros folds back to the exact
        // machine-wide view.
        sim.shards[0].metrics = state.metrics;
        sim.shards[0].trace = state.trace;
        sim.refresh_merged();
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Outbox;
    use crate::{reference, Simulation, StopHandle};
    use hyperspace_topology::{Hypercube, Ring, Torus};

    /// Flood-fill traversal (Listing 1).
    #[derive(Clone)]
    struct Traverse;
    impl NodeProgram for Traverse {
        type Msg = ();
        type State = bool;
        fn init(&self, _node: NodeId, _ctx: &InitCtx) -> bool {
            false
        }
        fn on_message(&self, visited: &mut bool, _msg: (), ctx: &mut Outbox<'_, ()>) {
            if !*visited {
                *visited = true;
                ctx.broadcast(());
            }
        }
    }

    /// Routed far sends: exercises transit queues crossing shards.
    #[derive(Clone)]
    struct FarEcho;
    impl NodeProgram for FarEcho {
        type Msg = u32;
        type State = u64;
        fn init(&self, _node: NodeId, _ctx: &InitCtx) -> u64 {
            0
        }
        fn on_message(&self, state: &mut u64, msg: u32, ctx: &mut Outbox<'_, u32>) {
            *state = state.wrapping_mul(31).wrapping_add(ctx.step());
            if msg > 0 {
                let far = (ctx.node() as u64 * 7 + msg as u64) % ctx.num_nodes() as u64;
                ctx.send(far as NodeId, msg - 1);
            }
        }
    }

    /// Tick-driven counter: exercises the on_tick / is_idle path and the
    /// dead-step fast-forward.
    #[derive(Clone)]
    struct Ticker;
    impl NodeProgram for Ticker {
        type Msg = ();
        type State = u32;
        fn init(&self, _node: NodeId, _ctx: &InitCtx) -> u32 {
            0
        }
        fn on_message(&self, count: &mut u32, _msg: (), _ctx: &mut Outbox<'_, ()>) {
            *count += 100;
        }
        fn on_tick(&self, count: &mut u32, ctx: &mut Outbox<'_, ()>) {
            if *count < 3 {
                *count += 1;
                if ctx.node() == 0 && *count == 2 {
                    ctx.broadcast(());
                }
            }
        }
        fn is_idle(&self, count: &u32) -> bool {
            *count >= 3
        }
    }

    /// Every node floods its port-0 neighbour: overflows a bounded inbox
    /// on the send path.
    #[derive(Clone)]
    struct Flood;
    impl NodeProgram for Flood {
        type Msg = ();
        type State = ();
        fn init(&self, _n: NodeId, _c: &InitCtx) {}
        fn on_message(&self, _s: &mut (), _m: (), ctx: &mut Outbox<'_, ()>) {
            for _ in 0..8 {
                ctx.send_port(0, ());
            }
        }
    }

    /// Non-adjacent senders flood node 0 through the transit queue:
    /// overflows on the routed-arrival path.
    #[derive(Clone)]
    struct FarFlood;
    impl NodeProgram for FarFlood {
        type Msg = ();
        type State = ();
        fn init(&self, _n: NodeId, _c: &InitCtx) {}
        fn on_message(&self, _s: &mut (), _m: (), ctx: &mut Outbox<'_, ()>) {
            if ctx.node() != 0 {
                for _ in 0..4 {
                    ctx.send(0, ());
                }
            }
        }
    }

    /// The kernel's contract in one place: for every shard count,
    /// partitioner and thread count the run equals the reference
    /// interpreter's — outcome or error value, steps, states, every
    /// metric and the full trace.
    fn assert_k_invariant<T: Topology + Clone, P: NodeProgram + Clone>(
        name: &str,
        topo: T,
        program: P,
        cfg: SimConfig,
        injections: Vec<(NodeId, P::Msg)>,
    ) where
        P::State: std::fmt::Debug + PartialEq,
    {
        let cfg = SimConfig {
            record_trace: true,
            ..cfg
        };
        let oracle = reference::run(&topo, &program, &cfg, injections.iter().cloned());
        for shards in [1usize, 2, 3, 7, 64] {
            for partition in [Partition::Block, Partition::RoundRobin] {
                for threads in [1usize, 3] {
                    let tag = format!("{name}: K={shards} {partition:?} T={threads}");
                    let scfg = ShardedConfig {
                        shards,
                        partition,
                        threads: Some(threads),
                    };
                    let mut sim =
                        ShardedSimulation::new(topo.clone(), program.clone(), cfg.clone(), scfg);
                    for (node, msg) in &injections {
                        sim.inject(*node, msg.clone());
                    }
                    let result = sim.run_to_quiescence();
                    match (&result, &oracle.result) {
                        (Ok(report), Ok(expect)) => {
                            assert_eq!(report.outcome, expect.outcome, "{tag}");
                            assert_eq!(report.steps, expect.steps, "{tag}");
                            assert_eq!(report.computation_time, expect.computation_time, "{tag}");
                            assert_eq!(sim.metrics(), &oracle.metrics, "{tag}");
                            assert_eq!(sim.trace(), oracle.trace.as_slice(), "{tag}");
                            assert_eq!(sim.into_parts().0, oracle.states, "{tag}");
                        }
                        (got, expect) => {
                            assert_eq!(got.as_ref().err(), expect.as_ref().err(), "{tag}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_sharding_of_every_scenario_matches_the_reference() {
        let routed = SimConfig {
            delivery: DeliveryModel::Routed,
            ..SimConfig::default()
        };
        assert_k_invariant(
            "torus flood",
            Torus::new_2d(6, 6),
            Traverse,
            SimConfig::default(),
            vec![(7, ())],
        );
        assert_k_invariant(
            "hypercube flood",
            Hypercube::new(5),
            Traverse,
            SimConfig::default(),
            vec![(17, ())],
        );
        assert_k_invariant(
            "more shards than nodes",
            Ring::new(3),
            Traverse,
            SimConfig::default(),
            vec![(1, ())],
        );
        assert_k_invariant(
            "routed transit across shards",
            Torus::new_2d(5, 5),
            FarEcho,
            routed.clone(),
            vec![(0, 9), (13, 11)],
        );
        assert_k_invariant(
            "wide budget",
            Ring::new(9),
            Traverse,
            SimConfig {
                msgs_per_step: 3,
                ..SimConfig::default()
            },
            vec![(4, ())],
        );
        assert_k_invariant(
            "tick hooks and dead-step fast-forward",
            Torus::new_2d(4, 4),
            Ticker,
            SimConfig {
                tick_every: Some(2),
                ..SimConfig::default()
            },
            vec![],
        );
        assert_k_invariant(
            "ticks over routed traffic",
            Ring::new(10),
            Ticker,
            SimConfig {
                tick_every: Some(3),
                ..routed.clone()
            },
            vec![(2, ())],
        );
        assert_k_invariant(
            "step cap mid-flood",
            Torus::new_2d(6, 6),
            Traverse,
            SimConfig {
                max_steps: 3,
                ..SimConfig::default()
            },
            vec![(0, ())],
        );
        assert_k_invariant(
            "overflow on the send path",
            Ring::new(4),
            Flood,
            SimConfig {
                queue_capacity: Some(4),
                ..SimConfig::default()
            },
            vec![(0, ())],
        );
        assert_k_invariant(
            "overflow on the routed-arrival path",
            Ring::new(12),
            FarFlood,
            SimConfig {
                queue_capacity: Some(3),
                ..routed
            },
            vec![(4, ()), (5, ()), (6, ()), (7, ())],
        );
    }

    #[test]
    fn partitioners_cover_all_nodes_exactly_once() {
        for partition in [Partition::Block, Partition::RoundRobin] {
            for (n, k) in [(10usize, 3usize), (7, 7), (5, 9), (16, 1), (1, 4)] {
                let mut seen = vec![0u32; n];
                for shard in 0..k {
                    let nodes = partition.nodes_of(shard, n, k);
                    assert!(nodes.windows(2).all(|w| w[0] < w[1]), "ascending");
                    for &node in &nodes {
                        seen[node as usize] += 1;
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "{partition:?} n={n} k={k}");
            }
        }
    }

    #[test]
    fn adjacency_assertion_names_the_missing_link() {
        // 0 -> 20 is a wrap-around link of the 5x5 torus, 0 -> 7 is none.
        #[derive(Clone)]
        struct BadSend;
        impl NodeProgram for BadSend {
            type Msg = ();
            type State = ();
            fn init(&self, _n: NodeId, _c: &InitCtx) {}
            fn on_message(&self, _s: &mut (), _m: (), ctx: &mut Outbox<'_, ()>) {
                if ctx.node() == 0 {
                    ctx.send(20, ());
                    ctx.send(7, ());
                }
            }
        }
        let scfg = ShardedConfig {
            shards: 2,
            partition: Partition::Block,
            threads: Some(2),
        };
        let mut sim =
            ShardedSimulation::new(Torus::new_2d(5, 5), BadSend, SimConfig::default(), scfg);
        sim.inject(0, ());
        match sim.run_to_quiescence().unwrap_err() {
            SimError::HandlerPanic { node, message, .. } => {
                assert_eq!(node, 0);
                assert_eq!(message, "adjacent-only delivery: 0 -> 7 is not a mesh link");
            }
            other => panic!("expected HandlerPanic, got {other:?}"),
        }
    }

    #[test]
    fn routed_hop_counts_follow_the_mesh_distance() {
        // FarEcho from node 0 with 3 to go: 0 -> 3 -> 23 -> 12, that is
        // 2 + 1 + 3 links on the 5x5 torus (3 -> 23 is a wrap-around link
        // and skips the transit queue), after the zero-hop trigger.
        let cfg = SimConfig {
            delivery: DeliveryModel::Routed,
            ..SimConfig::default()
        };
        let scfg = ShardedConfig {
            shards: 3,
            partition: Partition::RoundRobin,
            threads: Some(2),
        };
        let mut sim = ShardedSimulation::new(Torus::new_2d(5, 5), FarEcho, cfg, scfg);
        sim.inject(0, 3);
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(sim.metrics().hop_histogram.count(), 4);
        assert_eq!(sim.metrics().hop_histogram.sum(), 6);
        assert_eq!(report.steps, 7);
    }

    #[test]
    fn completed_run_beats_a_tripped_stop_handle() {
        let stop = StopHandle::new();
        let mut sim = ShardedSimulation::new(
            Torus::new_2d(4, 4),
            Traverse,
            SimConfig {
                stop: Some(stop.clone()),
                ..SimConfig::default()
            },
            ShardedConfig::with_shards(3),
        );
        sim.inject(0, ());
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        // Completion precedence: a tripped handle after quiescence must
        // not flip the outcome.
        stop.stop();
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, RunOutcome::Quiescent);
    }

    #[test]
    fn pre_tripped_stop_reports_stopped() {
        let stop = StopHandle::new();
        stop.stop();
        let mut sim = ShardedSimulation::new(
            Torus::new_2d(4, 4),
            Traverse,
            SimConfig {
                stop: Some(stop),
                ..SimConfig::default()
            },
            ShardedConfig::with_shards(4),
        );
        sim.inject(0, ());
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, RunOutcome::Stopped);
        assert_eq!(report.steps, 0);
    }

    /// Flood-fill that panics on `node`'s first message.
    #[derive(Clone)]
    struct PanicOnce(NodeId);
    impl NodeProgram for PanicOnce {
        type Msg = ();
        type State = u32;
        fn init(&self, _n: NodeId, _c: &InitCtx) -> u32 {
            0
        }
        fn on_message(&self, seen: &mut u32, _m: (), ctx: &mut Outbox<'_, ()>) {
            *seen += 1;
            if ctx.node() == self.0 && *seen == 1 {
                panic!("first touch of node {}", self.0);
            }
            if *seen == 1 {
                ctx.broadcast(());
            }
        }
    }

    #[test]
    fn panicking_handler_surfaces_the_same_error_for_every_k_and_t() {
        // Inline or threaded, one shard or many: the lowest faulting
        // node wins, the message survives, nobody deadlocks — and the
        // machine stays consistent, so the run can resume (the program
        // only panics on the node's first message). Nodes 20..24 share a
        // block shard with the panicker at K = 4: their popped but
        // unprocessed batches must not corrupt the queued counter.
        for (shards, threads) in [(1, 1), (4, 1), (4, 2), (4, 4)] {
            let mut sim = ShardedSimulation::new(
                Torus::new_2d(6, 6),
                PanicOnce(20),
                SimConfig::default(),
                ShardedConfig {
                    shards,
                    partition: Partition::Block,
                    threads: Some(threads),
                },
            );
            sim.inject(0, ());
            let tag = format!("K={shards} T={threads}");
            match sim.run_to_quiescence().unwrap_err() {
                SimError::HandlerPanic {
                    node,
                    step,
                    message,
                } => {
                    assert_eq!((node, step), (20, 6), "{tag}");
                    assert_eq!(message, "first touch of node 20", "{tag}");
                }
                other => panic!("{tag}: expected HandlerPanic, got {other:?}"),
            }
            assert!(sim.queued() < 1_000, "{tag}: no counter underflow");
            let report = sim.run_to_quiescence().expect("resume completes");
            assert_eq!(report.outcome, RunOutcome::Quiescent, "{tag}");
            assert_eq!(sim.queued(), 0, "{tag}");
        }
    }

    #[test]
    fn panic_payloads_render_through_one_ladder_with_the_callers_default() {
        let caught = |f: fn()| std::panic::catch_unwind(f).expect_err("panics");
        let text = |f: fn()| crate::panic_message(caught(f).as_ref(), "fallback");
        assert_eq!(text(|| panic!("static text")), "static text");
        assert_eq!(text(|| panic!("formatted {}", 7)), "formatted 7");
        assert_eq!(text(|| std::panic::panic_any(7u32)), "fallback");

        // The kernel's own default, pinned: a handler whose payload is
        // not a string reports as "handler panicked".
        #[derive(Clone)]
        struct Mute;
        impl NodeProgram for Mute {
            type Msg = ();
            type State = ();
            fn init(&self, _n: NodeId, _c: &InitCtx) {}
            fn on_message(&self, _s: &mut (), _m: (), _ctx: &mut Outbox<'_, ()>) {
                std::panic::panic_any(7u32);
            }
        }
        let mut sim = ShardedSimulation::new(
            Torus::new_2d(3, 3),
            Mute,
            SimConfig::default(),
            ShardedConfig::with_shards(1),
        );
        sim.inject(0, ());
        match sim.run_to_quiescence().unwrap_err() {
            SimError::HandlerPanic { message, .. } => assert_eq!(message, "handler panicked"),
            other => panic!("expected HandlerPanic, got {other:?}"),
        }
    }

    #[test]
    fn checkpoints_are_byte_identical_for_every_sharding() {
        // At every cut point every configuration must emit the *same
        // bytes* — the canonical format is a pure function of the
        // logical state.
        let cfg = SimConfig {
            record_trace: true,
            delivery: DeliveryModel::Routed,
            ..SimConfig::default()
        };
        for cut in [0u64, 1, 3, 6] {
            let mut seq = Simulation::new(Torus::new_2d(5, 5), FarEcho, cfg.clone());
            seq.inject(0, 9);
            seq.inject(13, 11);
            seq.set_max_steps(cut);
            seq.run_to_quiescence().unwrap();
            let reference = seq.snapshot().to_bytes();
            for shards in [2usize, 7] {
                for partition in [Partition::Block, Partition::RoundRobin] {
                    let scfg = ShardedConfig {
                        shards,
                        partition,
                        threads: Some(2),
                    };
                    let mut sim =
                        ShardedSimulation::new(Torus::new_2d(5, 5), FarEcho, cfg.clone(), scfg);
                    sim.inject(0, 9);
                    sim.inject(13, 11);
                    sim.set_max_steps(cut);
                    sim.run_to_quiescence().unwrap();
                    assert_eq!(
                        sim.snapshot().to_bytes(),
                        reference,
                        "cut={cut} K={shards} {partition:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn checkpoints_restore_under_any_sharding() {
        // Snapshot a sequential run mid-flight and resume it sharded —
        // and hand a sharded run's own checkpoint back to a single
        // shard — with bit-identical final results.
        let cfg = SimConfig {
            record_trace: true,
            delivery: DeliveryModel::Routed,
            ..SimConfig::default()
        };
        let injections = [(0, 9), (13, 11)];
        let oracle = reference::run(&Torus::new_2d(5, 5), &FarEcho, &cfg, injections);
        let expect = oracle.result.expect("reference run");

        let mut seq = Simulation::new(Torus::new_2d(5, 5), FarEcho, cfg.clone());
        for (node, msg) in injections {
            seq.inject(node, msg);
        }
        seq.set_max_steps(4);
        seq.run_to_quiescence().unwrap();
        let ckpt = seq.snapshot();

        for shards in [1usize, 2, 7] {
            let scfg = ShardedConfig {
                shards,
                partition: Partition::RoundRobin,
                threads: Some(2),
            };
            let mut resumed =
                ShardedSimulation::restore(Torus::new_2d(5, 5), FarEcho, cfg.clone(), scfg, &ckpt)
                    .expect("restores");
            resumed.set_max_steps(6);
            resumed.run_to_quiescence().unwrap();
            let mid = resumed.snapshot();
            resumed.set_max_steps(cfg.max_steps);
            let report = resumed.run_to_quiescence().unwrap();
            assert_eq!(report.outcome, expect.outcome, "K={shards}");
            assert_eq!(report.steps, expect.steps, "K={shards}");
            assert_eq!(resumed.trace(), oracle.trace.as_slice(), "K={shards}");
            assert_eq!(resumed.metrics(), &oracle.metrics, "K={shards}");
            assert_eq!(resumed.into_parts().0, oracle.states, "K={shards}");
            let mut seq_resumed =
                Simulation::restore(Torus::new_2d(5, 5), FarEcho, cfg.clone(), &mid)
                    .expect("sharded checkpoint restores on one shard");
            seq_resumed.set_max_steps(cfg.max_steps);
            seq_resumed.run_to_quiescence().unwrap();
            assert_eq!(seq_resumed.states(), oracle.states.as_slice(), "K={shards}");
        }
    }

    #[test]
    fn crash_restore_finishes_the_run_identically() {
        // A worker dies mid-run (simulated by dropping the simulation);
        // the job restarts from its last durable checkpoint under a
        // different sharding and the final report is indistinguishable
        // from an uninterrupted run.
        let cfg = SimConfig::default();
        let oracle = reference::run(&Torus::new_2d(6, 6), &Traverse, &cfg, [(7, ())]);
        let mut sim = ShardedSimulation::new(
            Torus::new_2d(6, 6),
            Traverse,
            cfg.clone(),
            ShardedConfig::with_shards(3),
        );
        sim.inject(7, ());
        sim.set_max_steps(3);
        sim.run_to_quiescence().unwrap();
        let last_checkpoint = sim.snapshot().to_bytes();
        drop(sim); // the crash

        let ckpt = SimCheckpoint::from_bytes(&last_checkpoint).expect("durable bytes");
        let mut recovered = ShardedSimulation::restore(
            Torus::new_2d(6, 6),
            Traverse,
            cfg,
            ShardedConfig::with_shards(5),
            &ckpt,
        )
        .expect("restores");
        let report = recovered.run_to_quiescence().unwrap();
        assert_eq!(report.steps, oracle.result.expect("reference run").steps);
        assert_eq!(recovered.metrics(), &oracle.metrics);
        assert_eq!(recovered.into_parts().0, oracle.states);
    }
}
