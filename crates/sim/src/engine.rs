//! The time-stepped simulation engine (paper §IV-A, §V-A).
//!
//! Execution model, per simulated step:
//!
//! 1. **transit phase** (routed delivery only): every in-flight message
//!    advances one hop along its deterministic minimal route; messages
//!    reaching their destination join its inbox;
//! 2. **handler phase**: every node pops up to `msgs_per_step` messages
//!    from its inbox (the paper pops exactly one) and runs the program's
//!    `receive` handler, staging any sends;
//! 3. **delivery phase**: staged sends are appended to destination inboxes
//!    in deterministic (sender id, emission order) order, becoming visible
//!    at the next step.
//!
//! Because handlers only touch their own node's state and sends are staged,
//! the handler phase parallelises embarrassingly; `SimConfig::parallel`
//! runs it on scoped threads with results bit-identical to sequential
//! stepping.

use std::collections::VecDeque;

use crate::checkpoint::{encode_body, CheckpointState, SimCheckpoint, TransitKey};
use crate::codec::{Codec, CodecError};
use crate::control::StopHandle;
use crate::envelope::Envelope;
use crate::program::{InitCtx, NodeCtx, NodeProgram, Outbox};
use crate::record::{SimMetrics, TraceEvent, TraceKind};
use hyperspace_obs::{saturating_nanos, ObsHandle, Phase};
use hyperspace_topology::{NodeId, Topology};

/// How sends traverse the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DeliveryModel {
    /// Sends must target direct neighbours (the paper's §V-A assumption:
    /// "messages can be communicated between adjacent cores only").
    #[default]
    AdjacentOnly,
    /// Sends may target any node; messages advance one hop per step along
    /// the topology's deterministic minimal route (a simple NoC model).
    Routed,
    /// Sends may target any node and arrive the next step regardless of
    /// distance (the fully-connected baseline's semantics).
    Direct,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Hard step cap; a run hitting it reports [`RunOutcome::MaxSteps`].
    pub max_steps: u64,
    /// Inbox pops per node per step (the paper uses 1). A budget of `0`
    /// could never drain queued work — `run_to_quiescence` would spin
    /// forever delivering nothing — so construction clamps it to at
    /// least 1.
    pub msgs_per_step: u32,
    /// Message traversal semantics.
    pub delivery: DeliveryModel,
    /// Record the per-step queued-message series (Figure 5 top).
    pub record_queue_series: bool,
    /// Record per-node delivered/sent counts (Figure 5 bottom).
    pub record_node_activity: bool,
    /// Record a full send/deliver event trace (testing; costly).
    pub record_trace: bool,
    /// Execute the handler phase on a scoped thread pool.
    pub parallel: bool,
    /// Visit every node every step (the pre-active-set dense baseline)
    /// instead of only the event-driven active set (nodes with pending
    /// deliveries, plus everyone on tick steps). Results are
    /// bit-identical either way — the active set only skips nodes that
    /// provably have no work — so this exists as a benchmark baseline
    /// and an escape hatch, enforced by the equivalence suites.
    pub dense_stepping: bool,
    /// Invoke `NodeProgram::on_tick` for every node each `k` steps.
    pub tick_every: Option<u64>,
    /// Bounded-inbox failure injection: exceeding this capacity aborts the
    /// run with [`SimError::QueueOverflow`]. `None` models the paper's
    /// unbounded queues.
    pub queue_capacity: Option<usize>,
    /// Cooperative run control: when the handle trips (explicit stop or
    /// wall-clock deadline), [`Simulation::run_to_quiescence`] ends the
    /// run with [`RunOutcome::Stopped`]. Checked between steps, so all
    /// per-step invariants hold at the point of interruption.
    pub stop: Option<StopHandle>,
    /// Passive telemetry sink (see [`hyperspace_obs::Observer`]). Off by
    /// default; when attached, the engine reports each completed step
    /// and each checkpoint encode/decode. Observation is one-way — an
    /// observer has no channel back into the step loop — so results,
    /// metrics, traces and checkpoint bytes are bit-identical with
    /// observation on or off.
    pub obs: ObsHandle,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_steps: 1_000_000,
            msgs_per_step: 1,
            delivery: DeliveryModel::AdjacentOnly,
            record_queue_series: true,
            record_node_activity: true,
            record_trace: false,
            parallel: false,
            dense_stepping: false,
            tick_every: None,
            queue_capacity: None,
            stop: None,
            obs: ObsHandle::off(),
        }
    }
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// No messages remained anywhere in the machine.
    Quiescent,
    /// A handler called [`Outbox::halt`] (e.g. root result available).
    Halted,
    /// The `max_steps` safety cap was reached.
    MaxSteps,
    /// The run's [`StopHandle`] tripped (cancellation or deadline).
    Stopped,
}

/// Summary of a completed run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Steps executed.
    pub steps: u64,
    /// §V-C computation time: steps between first and last message,
    /// inclusive.
    pub computation_time: u64,
}

/// Per-step summary returned by [`Simulation::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepReport {
    /// The step just executed (1-based).
    pub step: u64,
    /// Messages delivered to handlers during this step.
    pub delivered: u64,
    /// Messages queued (inboxes + transit) after this step.
    pub queued_after: u64,
    /// Whether some handler requested a halt.
    pub halted: bool,
}

/// Errors surfaced by the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A bounded inbox overflowed (failure injection mode).
    QueueOverflow {
        /// Node whose inbox overflowed.
        node: NodeId,
        /// Step at which the overflow occurred.
        step: u64,
        /// Queue length that violated the bound.
        len: usize,
    },
    /// A node's handler panicked. The sequential engine propagates the
    /// panic; the sharded backend catches it and surfaces this error so
    /// sibling shards shut down cleanly instead of deadlocking at a step
    /// barrier.
    HandlerPanic {
        /// Node whose handler panicked (lowest id if several did).
        node: NodeId,
        /// Step at which the panic occurred.
        step: u64,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::QueueOverflow { node, step, len } => write!(
                f,
                "inbox of node {node} overflowed at step {step} (len {len})"
            ),
            SimError::HandlerPanic {
                node,
                step,
                message,
            } => write!(
                f,
                "handler of node {node} panicked at step {step}: {message}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Below this mesh size the per-step cost of spawning scoped handler
/// threads exceeds what parallelism recovers; `parallel` runs fall back
/// to sequential stepping (results are bit-identical either way).
const PARALLEL_MIN_NODES: usize = 128;

/// Adds `node` to the active set (idempotent). The invariant the
/// scheduler rests on: `mask[n]` ⇔ `n ∈ active`.
#[inline]
fn mark_active(active: &mut Vec<NodeId>, mask: &mut [bool], node: NodeId) {
    let i = node as usize;
    if !mask[i] {
        mask[i] = true;
        active.push(node);
    }
}

/// Splits `slice` into disjoint `&mut` element references at the given
/// strictly-ascending indices — how the parallel handler phase hands a
/// sparse work list to scoped threads without cloning or `unsafe`.
fn gather_mut<'a, S>(mut slice: &'a mut [S], ids: &[NodeId]) -> Vec<&'a mut S> {
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    let mut out = Vec::with_capacity(ids.len());
    let mut base = 0usize;
    for &id in ids {
        let rest = std::mem::take(&mut slice);
        let (_, tail) = rest.split_at_mut(id as usize - base);
        let (item, tail) = tail.split_first_mut().expect("id within slice");
        out.push(item);
        slice = tail;
        base = id as usize + 1;
    }
    out
}

/// A deterministic time-stepped simulation of a hyperspace machine running
/// one [`NodeProgram`] on every node.
pub struct Simulation<T: Topology, P: NodeProgram> {
    topo: T,
    program: P,
    ctx: NodeCtx,
    cfg: SimConfig,
    states: Vec<P::State>,
    inboxes: Vec<VecDeque<Envelope<P::Msg>>>,
    /// Routed-mode in-flight messages, tagged with their current
    /// position and their global delivery key (`enqueue step, sender,
    /// emission index`). The deque stays key-sorted by construction —
    /// survivors keep their relative order, new entries enqueue with
    /// strictly larger keys — which is what makes checkpoints portable
    /// to and from the sharded backend, whose transit queues are keyed
    /// the same way.
    transit: VecDeque<(TransitKey, NodeId, Envelope<P::Msg>)>,
    /// Per-node staging buffers, reused across steps.
    staged: Vec<Vec<Envelope<P::Msg>>>,
    /// Per-node delivery batches, reused across steps.
    batches: Vec<Vec<Envelope<P::Msg>>>,
    /// The event-driven active set: nodes with pending inbox deliveries,
    /// in insertion order, deduplicated by `active_mask`. Only these
    /// nodes are visited by phase 2 (sorted into `work` first); empty
    /// and unmaintained under `dense_stepping`.
    active: Vec<NodeId>,
    /// `active_mask[n]` ⇔ node `n` is in `active`.
    active_mask: Vec<bool>,
    /// This step's sorted work list; recycled across steps.
    work: Vec<NodeId>,
    step: u64,
    queued: u64,
    halted: bool,
    /// Worker count for the parallel handler phase, resolved once at
    /// construction. The fork-join spawns scoped threads *per step*
    /// (~tens of µs of overhead), so small meshes are clamped to 1 —
    /// they finish faster sequentially.
    handler_threads: usize,
    metrics: SimMetrics,
    trace: Vec<TraceEvent>,
}

impl<T: Topology, P: NodeProgram> Simulation<T, P> {
    /// Builds the machine: initialises every node's state via
    /// `program.init` and empty queues.
    pub fn new(topo: T, program: P, mut cfg: SimConfig) -> Self {
        // A zero budget would deliver nothing forever (see the field's
        // doc); clamp rather than panic so sweeps over budgets are safe.
        cfg.msgs_per_step = cfg.msgs_per_step.max(1);
        let n = topo.num_nodes();
        let ctx = NodeCtx::new(&topo);
        let mut states = Vec::with_capacity(n);
        for node in 0..n as NodeId {
            let init_ctx = InitCtx {
                node,
                num_nodes: n,
                neighbours: ctx.csr.neighbours(node),
            };
            states.push(program.init(node, &init_ctx));
        }
        let metrics = SimMetrics::new(n, cfg.record_node_activity);
        Simulation {
            topo,
            program,
            ctx,
            cfg,
            states,
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            transit: VecDeque::new(),
            staged: (0..n).map(|_| Vec::new()).collect(),
            batches: (0..n).map(|_| Vec::new()).collect(),
            active: Vec::new(),
            active_mask: vec![false; n],
            work: Vec::new(),
            step: 0,
            queued: 0,
            halted: false,
            handler_threads: if n >= PARALLEL_MIN_NODES {
                std::thread::available_parallelism()
                    .map(|t| t.get())
                    .unwrap_or(1)
                    .min(n)
            } else {
                1
            },
            metrics,
            trace: Vec::new(),
        }
    }

    /// Injects an external trigger message into `node`'s inbox (§IV-A:
    /// "the backend kickstarts computations by sending EMPTY_MSG to a
    /// user-selected node"). The source is recorded as the node itself.
    pub fn inject(&mut self, node: NodeId, msg: P::Msg) {
        self.inboxes[node as usize].push_back(Envelope {
            src: node,
            dst: node,
            sent_step: self.step,
            hops: 0,
            payload: msg,
        });
        self.queued += 1;
        if !self.cfg.dense_stepping {
            mark_active(&mut self.active, &mut self.active_mask, node);
        }
    }

    /// Current simulation step (number of steps executed so far).
    pub fn current_step(&self) -> u64 {
        self.step
    }

    /// Replaces the `max_steps` cap. Combined with the re-entrant
    /// [`Simulation::run_to_quiescence`] this yields bounded *epochs*: run
    /// to a cap ([`RunOutcome::MaxSteps`]), inspect or inject, raise the
    /// cap, resume — the portfolio subsystem's synchronisation mechanism.
    pub fn set_max_steps(&mut self, cap: u64) {
        self.cfg.max_steps = cap;
    }

    /// Total messages currently queued (inboxes plus transit).
    pub fn queued(&self) -> u64 {
        self.queued
    }

    /// Immutable access to a node's state.
    pub fn state(&self, node: NodeId) -> &P::State {
        &self.states[node as usize]
    }

    /// All node states, indexed by node id.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// The run's measurements so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// The event trace (empty unless `record_trace` is set).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The simulated machine's topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// Executes one simulation step.
    pub fn step(&mut self) -> Result<StepReport, SimError> {
        self.step += 1;
        let step = self.step;
        let sparse = !self.cfg.dense_stepping;
        // First overflow in delivery order. Phase-1 arrivals carry keys
        // from earlier steps, so any phase-1 candidate precedes every
        // phase-3 candidate of this step; within each phase, pushes
        // already happen in ascending key order. Keeping the first
        // candidate found therefore yields the globally smallest — the
        // same winner the sharded coordinator's min-key rule picks.
        let mut overflow: Option<SimError> = None;
        // Phase-attributed profiling: `None` (one branch, no clock
        // reads) unless an observer is attached and this step lands on
        // the sampling grid.
        let mut pc = self.cfg.obs.phase_clock(0, step);

        // Phase 1: advance routed in-flight messages one hop.
        if self.cfg.delivery == DeliveryModel::Routed {
            for _ in 0..self.transit.len() {
                let (key, at, mut env) = self.transit.pop_front().expect("len checked");
                let next = self.topo.next_hop(at, env.dst);
                if next != at {
                    env.advance_hop();
                }
                if next == env.dst {
                    let dst = env.dst;
                    self.inboxes[dst as usize].push_back(env);
                    if sparse {
                        mark_active(&mut self.active, &mut self.active_mask, dst);
                    }
                    if let Some(cap) = self.cfg.queue_capacity {
                        let len = self.inboxes[dst as usize].len();
                        if len > cap && overflow.is_none() {
                            overflow = Some(SimError::QueueOverflow {
                                node: dst,
                                step,
                                len,
                            });
                        }
                    }
                } else {
                    self.transit.push_back((key, next, env));
                }
            }
        }

        let n = self.states.len();
        let tick = matches!(self.cfg.tick_every, Some(k) if k > 0 && step.is_multiple_of(k));

        // Build this step's work list in ascending node order: everyone
        // on dense or tick steps, otherwise exactly the active set.
        self.work.clear();
        if !sparse || tick {
            self.work.extend(0..n as NodeId);
            // A tick step visits every node anyway; pending marks are
            // subsumed and re-derived from inbox occupancy below.
            self.active.clear();
        } else {
            std::mem::swap(&mut self.work, &mut self.active);
            self.work.sort_unstable();
        }

        // Phase 2: pop batches (sequential — cheap) then run handlers.
        let budget = self.cfg.msgs_per_step as usize;
        let mut delivered = 0u64;
        for wi in 0..self.work.len() {
            let node = self.work[wi] as usize;
            let inbox = &mut self.inboxes[node];
            let batch = &mut self.batches[node];
            debug_assert!(batch.is_empty());
            for _ in 0..budget {
                match inbox.pop_front() {
                    Some(env) => batch.push(env),
                    None => break,
                }
            }
            delivered += batch.len() as u64;
            // Re-derive this node's membership: each work-list entry is
            // unique and was either swapped out of `active` or cleared
            // above, so a plain push keeps the mask invariant.
            if sparse {
                let more = !inbox.is_empty();
                self.active_mask[node] = more;
                if more {
                    self.active.push(node as NodeId);
                }
            }
        }
        self.queued -= delivered;
        if delivered > 0 {
            self.metrics.first_delivery_step.get_or_insert(step);
            self.metrics.last_delivery_step = Some(step);
            self.metrics.total_delivered += delivered;
        }
        if self.cfg.record_node_activity {
            for &node in &self.work {
                self.metrics.delivered_per_node[node as usize] +=
                    self.batches[node as usize].len() as u64;
            }
        }
        if self.cfg.record_trace {
            for &node in &self.work {
                for env in &self.batches[node as usize] {
                    self.trace.push(TraceEvent {
                        step,
                        kind: TraceKind::Deliver,
                        src: env.src,
                        dst: env.dst,
                        hops: env.hops,
                    });
                }
            }
        }
        for &node in &self.work {
            for env in &self.batches[node as usize] {
                self.metrics.hop_histogram.record(env.hops as u64);
            }
        }
        if let Some(pc) = pc.as_mut() {
            pc.lap(Phase::Delivery);
        }

        let halted_flag = {
            let work = std::mem::take(&mut self.work);
            let halted = self.run_handlers(step, tick, &work);
            self.work = work;
            halted
        };
        if halted_flag {
            self.halted = true;
        }
        if let Some(pc) = pc.as_mut() {
            pc.lap(Phase::Handler);
        }

        // Phase 3: deterministic delivery of staged sends. Only work
        // nodes ran handlers, so only they can have staged anything.
        for wi in 0..self.work.len() {
            let node = self.work[wi] as usize;
            for (emission, env) in self.staged[node].drain(..).enumerate() {
                if self.cfg.record_trace {
                    self.trace.push(TraceEvent {
                        step,
                        kind: TraceKind::Send,
                        src: env.src,
                        dst: env.dst,
                        hops: 0,
                    });
                }
                if self.cfg.record_node_activity {
                    self.metrics.sent_per_node[node] += 1;
                }
                self.metrics.total_sent += 1;
                self.queued += 1;
                match self.cfg.delivery {
                    // Self-loopback sends never enter the NoC: they are
                    // local-queue moves (zero links), not routed traffic.
                    DeliveryModel::Routed
                        if env.src != env.dst && !self.ctx.csr.are_adjacent(env.src, env.dst) =>
                    {
                        let key: TransitKey = (step, node as NodeId, emission as u32);
                        self.transit.push_back((key, env.src, env));
                    }
                    _ => {
                        let dst = env.dst as usize;
                        let mut env = env;
                        env.complete_direct();
                        self.inboxes[dst].push_back(env);
                        if sparse {
                            mark_active(&mut self.active, &mut self.active_mask, dst as NodeId);
                        }
                        if let Some(cap) = self.cfg.queue_capacity {
                            if self.inboxes[dst].len() > cap && overflow.is_none() {
                                overflow = Some(SimError::QueueOverflow {
                                    node: dst as NodeId,
                                    step,
                                    len: self.inboxes[dst].len(),
                                });
                            }
                        }
                    }
                }
            }
        }
        if let Some(pc) = pc.as_mut() {
            // The staged-send fan-out is delivery work too; the active
            // set doubles as the single-shard load signal.
            pc.lap(Phase::Delivery);
            self.cfg.obs.on_shard_active(0, self.work.len() as u64);
        }
        if let Some(err) = overflow {
            return Err(err);
        }

        if self.cfg.record_queue_series {
            self.metrics.queued_series.push(self.queued);
            self.metrics.delivered_series.push(delivered);
        }

        self.cfg.obs.on_step(step, delivered, self.queued);

        Ok(StepReport {
            step,
            delivered,
            queued_after: self.queued,
            halted: self.halted,
        })
    }

    /// Runs the handler phase over the work list's drained batches;
    /// returns the halt flag. Sequential or thread-parallel per config —
    /// identical results.
    fn run_handlers(&mut self, step: u64, tick: bool, work: &[NodeId]) -> bool {
        let program = &self.program;
        let csr = &self.ctx.csr;
        let num_nodes = self.states.len();
        let adjacent_only = self.cfg.delivery == DeliveryModel::AdjacentOnly;

        let body = |node: usize,
                    state: &mut P::State,
                    batch: &mut Vec<Envelope<P::Msg>>,
                    staged: &mut Vec<Envelope<P::Msg>>|
         -> bool {
            let mut halt = false;
            let neighbours = csr.neighbours(node as NodeId);
            for env in batch.drain(..) {
                let mut outbox = Outbox {
                    node: node as NodeId,
                    step,
                    src: env.src,
                    hops: env.hops,
                    neighbours,
                    topo_nodes: num_nodes,
                    adjacent_only,
                    staged,
                    halt: &mut halt,
                };
                program.on_message(state, env.payload, &mut outbox);
            }
            if tick {
                let mut outbox = Outbox {
                    node: node as NodeId,
                    step,
                    src: node as NodeId,
                    hops: 0,
                    neighbours,
                    topo_nodes: num_nodes,
                    adjacent_only,
                    staged,
                    halt: &mut halt,
                };
                program.on_tick(state, &mut outbox);
            }
            halt
        };

        let threads = if self.cfg.parallel {
            self.handler_threads
        } else {
            1
        };
        // Forking scoped threads per step only pays off for wide work
        // lists; a sparse frontier finishes faster inline.
        if threads > 1 && work.len() >= PARALLEL_MIN_NODES {
            // Fork-join over contiguous work-list chunks; staged sends
            // stay per-node, so results are bit-identical to sequential
            // stepping regardless of the chunking.
            let states = gather_mut(&mut self.states, work);
            let batches = gather_mut(&mut self.batches, work);
            let staged = gather_mut(&mut self.staged, work);
            let mut refs: Vec<_> = work
                .iter()
                .zip(states)
                .zip(batches)
                .zip(staged)
                .map(|(((&node, state), batch), staged)| (node as usize, state, batch, staged))
                .collect();
            let chunk = refs.len().div_ceil(threads);
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(threads);
                for chunk_refs in refs.chunks_mut(chunk) {
                    handles.push(scope.spawn(move || {
                        let mut halt = false;
                        for (node, state, batch, staged) in chunk_refs.iter_mut() {
                            halt |= body(*node, state, batch, staged);
                        }
                        halt
                    }));
                }
                // Join every thread before folding — `any` would
                // short-circuit and leak running workers.
                let halts: Vec<bool> = handles
                    .into_iter()
                    .map(|h| h.join().expect("handler thread panicked"))
                    .collect();
                halts.into_iter().any(|h| h)
            })
        } else {
            let mut halt = false;
            for &node in work {
                let node = node as usize;
                halt |= body(
                    node,
                    &mut self.states[node],
                    &mut self.batches[node],
                    &mut self.staged[node],
                );
            }
            halt
        }
    }

    /// Steps until no messages remain, a handler halts the run, or the step
    /// cap is reached.
    pub fn run_to_quiescence(&mut self) -> Result<RunReport, SimError> {
        loop {
            // Completion checks come before the stop check: a run that
            // halted or drained during its final step has a finished
            // result, and a deadline tripping in that same instant must
            // not discard it.
            if self.halted {
                return Ok(self.report(RunOutcome::Halted));
            }
            if self.queued == 0 {
                let idle = self.cfg.tick_every.is_none()
                    || self.states.iter().all(|state| self.program.is_idle(state));
                if idle {
                    return Ok(self.report(RunOutcome::Quiescent));
                }
            }
            if let Some(stop) = &self.cfg.stop {
                if stop.should_stop() {
                    return Ok(self.report(RunOutcome::Stopped));
                }
            }
            if self.step >= self.cfg.max_steps {
                return Ok(self.report(RunOutcome::MaxSteps));
            }
            // Event-driven fast-forward: with nothing queued anywhere,
            // the only possible work left is the next tick — every step
            // until then delivers nothing, runs no handler and stages
            // nothing. Synthesise those steps' (empty) records and jump.
            if !self.cfg.dense_stepping && self.queued == 0 {
                if let Some(k) = self.cfg.tick_every {
                    // checked_div: k == 0 means ticks never fire.
                    if let Some(next_tick) = self.step.checked_div(k).map(|q| (q + 1) * k) {
                        let skip_to = (next_tick - 1).min(self.cfg.max_steps);
                        while self.step < skip_to {
                            self.step += 1;
                            if self.cfg.record_queue_series {
                                self.metrics.queued_series.push(0);
                                self.metrics.delivered_series.push(0);
                            }
                            self.cfg.obs.on_step(self.step, 0, 0);
                        }
                        if self.step >= self.cfg.max_steps {
                            continue; // re-run the completion checks
                        }
                    }
                }
            }
            self.step()?;
        }
    }

    fn report(&self, outcome: RunOutcome) -> RunReport {
        RunReport {
            outcome,
            steps: self.step,
            computation_time: self.metrics.computation_time(),
        }
    }

    /// Consumes the simulation, returning final states and metrics.
    pub fn into_parts(self) -> (Vec<P::State>, SimMetrics) {
        (self.states, self.metrics)
    }
}

impl<T: Topology, P: NodeProgram> Simulation<T, P>
where
    P::State: Codec,
    P::Msg: Codec,
{
    /// Serialises the simulation's complete logical state at the current
    /// step barrier. Valid between steps only (which is whenever the
    /// caller can observe `&self`): staging buffers are drained every
    /// step, so a checkpoint never holds half a step. The result is the
    /// canonical cross-backend format — byte-identical to what a
    /// [`crate::ShardedSimulation`] of the same run would emit at the
    /// same step, and restorable on either backend.
    pub fn snapshot(&self) -> SimCheckpoint {
        debug_assert!(self.staged.iter().all(|s| s.is_empty()));
        debug_assert!(self.batches.iter().all(|b| b.is_empty()));
        let started = self.cfg.obs.enabled().then(std::time::Instant::now);
        let body = encode_body(
            self.states.iter(),
            self.inboxes.iter(),
            self.transit.len(),
            self.transit.iter().map(|(key, at, env)| (*key, *at, env)),
            &self.metrics,
            &self.trace,
        );
        if let Some(started) = started {
            let nanos = saturating_nanos(started.elapsed());
            self.cfg.obs.on_checkpoint(body.len() as u64, nanos);
            self.cfg.obs.on_phase(0, Phase::CheckpointEncode, nanos);
        }
        SimCheckpoint::new(self.step, self.halted, self.states.len(), body)
    }

    /// Rebuilds a simulation from a checkpoint, ready to resume exactly
    /// where the snapshot was taken: continuing the run produces
    /// bit-identical states, metrics and traces to a run that was never
    /// interrupted. The caller supplies the same topology, program and
    /// config the checkpoint was taken under; a machine-size mismatch is
    /// rejected.
    pub fn restore(
        topo: T,
        program: P,
        cfg: SimConfig,
        ckpt: &SimCheckpoint,
    ) -> Result<Self, CodecError> {
        let mut sim = Simulation::new(topo, program, cfg);
        if ckpt.num_nodes() != sim.states.len() {
            return Err(CodecError::Invalid(format!(
                "checkpoint is for a {}-node machine, topology has {}",
                ckpt.num_nodes(),
                sim.states.len()
            )));
        }
        let started = sim.cfg.obs.enabled().then(std::time::Instant::now);
        let state = CheckpointState::<P::State, P::Msg>::decode(ckpt)?;
        if let Some(started) = started {
            sim.cfg.obs.on_restore(
                ckpt.size_bytes() as u64,
                saturating_nanos(started.elapsed()),
            );
        }
        sim.queued = state.queued();
        sim.states = state.states;
        sim.inboxes = state.inboxes;
        sim.transit = state.transit.into();
        sim.metrics = state.metrics;
        sim.trace = state.trace;
        sim.step = ckpt.step();
        sim.halted = ckpt.halted();
        // The active set is derived state, not part of the checkpoint:
        // rebuild it from inbox occupancy (a fresh sim starts with an
        // all-false mask and an empty list).
        if !sim.cfg.dense_stepping {
            for node in 0..sim.inboxes.len() {
                if !sim.inboxes[node].is_empty() {
                    mark_active(&mut sim.active, &mut sim.active_mask, node as NodeId);
                }
            }
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperspace_topology::{FullyConnected, Ring, Torus};

    /// Flood-fill traversal from Listing 1.
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

    #[test]
    fn flood_fill_visits_every_node() {
        let mut sim = Simulation::new(Torus::new_2d(6, 6), Traverse, SimConfig::default());
        sim.inject(0, ());
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        assert!(sim.states().iter().all(|&v| v));
        // Every node received at least one message.
        assert!(sim.metrics().delivered_per_node.iter().all(|&c| c > 0));
    }

    #[test]
    fn two_node_ring_timing_is_exact() {
        // Ring of 3 (ring of 2 merges ports). Trigger at node 0.
        // step 1: node 0 handles trigger, sends to 1 and 2.
        // step 2: nodes 1 and 2 handle, each sends 2 messages (to 0 and each
        //         other).
        // step 3: node 0 pops one duplicate, nodes 1,2 pop each other's
        //         duplicate; all dropped (visited). One message left for 0.
        // step 4: node 0 pops the last duplicate.
        let mut sim = Simulation::new(Ring::new(3), Traverse, SimConfig::default());
        sim.inject(0, ());
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        assert_eq!(report.steps, 4);
        assert_eq!(report.computation_time, 4);
        assert_eq!(sim.metrics().total_delivered, 1 + 2 + 4);
        // Node 0 delivered: trigger + 2 replies = 3.
        assert_eq!(sim.metrics().delivered_per_node[0], 3);
    }

    #[test]
    fn one_pop_per_step_serialises_hot_node() {
        // All nodes send to node 0 at once; node 0 drains one per step.
        struct AllToZero;
        impl NodeProgram for AllToZero {
            type Msg = u8;
            type State = u32;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> u32 {
                0
            }
            fn on_message(&self, count: &mut u32, msg: u8, ctx: &mut Outbox<'_, u8>) {
                *count += 1;
                if msg == 1 && ctx.node() != 0 {
                    // forward a unit of work to node 0
                    ctx.send(0, 2);
                }
            }
        }
        let n = 5u32;
        let mut sim = Simulation::new(
            FullyConnected::new(n),
            AllToZero,
            SimConfig {
                delivery: DeliveryModel::Direct,
                ..SimConfig::default()
            },
        );
        for node in 1..n {
            sim.inject(node, 1);
        }
        let report = sim.run_to_quiescence().unwrap();
        // step 1: the 4 triggers; steps 2..5: node 0 pops one per step.
        assert_eq!(report.steps, 5);
        assert_eq!(*sim.state(0), 4);
    }

    #[test]
    fn msgs_per_step_budget_widens_throughput() {
        struct AllToZero;
        impl NodeProgram for AllToZero {
            type Msg = ();
            type State = u32;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> u32 {
                0
            }
            fn on_message(&self, count: &mut u32, _m: (), _ctx: &mut Outbox<'_, ()>) {
                *count += 1;
            }
        }
        let mut sim = Simulation::new(
            FullyConnected::new(9),
            AllToZero,
            SimConfig {
                delivery: DeliveryModel::Direct,
                msgs_per_step: 4,
                ..SimConfig::default()
            },
        );
        for _ in 0..8 {
            sim.inject(0, ());
        }
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.steps, 2);
        assert_eq!(*sim.state(0), 8);
    }

    #[test]
    fn adjacent_only_rejects_remote_sends() {
        struct BadSend;
        impl NodeProgram for BadSend {
            type Msg = ();
            type State = ();
            fn init(&self, _n: NodeId, _c: &InitCtx) {}
            fn on_message(&self, _s: &mut (), _m: (), ctx: &mut Outbox<'_, ()>) {
                ctx.send(5, ()); // nodes 0 and 5 are not adjacent on a 4x4 torus
            }
        }
        let mut sim = Simulation::new(Torus::new_2d(4, 4), BadSend, SimConfig::default());
        sim.inject(0, ());
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.step()));
        assert!(res.is_err(), "expected adjacency assertion to fire");
        let payload = res.unwrap_err();
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("adjacent-only delivery: 0 -> 5 is not a mesh link")
        );
    }

    /// Node 0 sends to a neighbour, to a node two links away and to one
    /// four links away; the others note the step their message arrived.
    struct FarSends;
    impl NodeProgram for FarSends {
        type Msg = u8;
        type State = Option<u64>;
        fn init(&self, _n: NodeId, _c: &InitCtx) -> Option<u64> {
            None
        }
        fn on_message(&self, got: &mut Option<u64>, msg: u8, ctx: &mut Outbox<'_, u8>) {
            if msg == 0 {
                for dst in [1, 5, 10] {
                    ctx.send(dst, 1);
                }
            } else {
                *got = Some(ctx.step());
            }
        }
    }

    #[test]
    fn routed_sends_enter_transit_only_beyond_a_mesh_link() {
        let cfg = SimConfig {
            delivery: DeliveryModel::Routed,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(Torus::new_2d(4, 4), FarSends, cfg);
        sim.inject(0, 0);
        sim.step().unwrap();
        // The neighbour's copy went straight to its inbox.
        assert_eq!(sim.transit.len(), 2);
        sim.run_to_quiescence().unwrap();
        let arrived = [1, 5, 10].map(|node| sim.state(node).unwrap());
        assert_eq!(arrived, [2, 3, 5]);
        // Trigger 0 hops, then 1 + 2 + 4 links.
        assert_eq!(sim.metrics().hop_histogram.count(), 4);
        assert_eq!(sim.metrics().hop_histogram.sum(), 7);
    }

    #[test]
    fn broadcast_fan_out_is_counted_per_link_not_per_envelope() {
        // One broadcast from node 0 on a degree-4 torus: 4 sends, 4
        // one-hop deliveries. The fan-out must neither collapse into a
        // single send nor inflate any envelope's hop count.
        struct BroadcastOnce;
        impl NodeProgram for BroadcastOnce {
            type Msg = ();
            type State = ();
            fn init(&self, _n: NodeId, _c: &InitCtx) {}
            fn on_message(&self, _s: &mut (), _m: (), ctx: &mut Outbox<'_, ()>) {
                if ctx.node() == 0 && ctx.sender() == 0 && ctx.hops() == 0 {
                    ctx.broadcast(());
                }
            }
        }
        let mut sim = Simulation::new(Torus::new_2d(4, 4), BroadcastOnce, SimConfig::default());
        sim.inject(0, ());
        sim.run_to_quiescence().unwrap();
        let m = sim.metrics();
        assert_eq!(m.total_sent, 4);
        assert_eq!(m.total_delivered, 5); // trigger + 4 fan-out copies
        assert_eq!(m.sent_per_node[0], 4);
        // Hop histogram: the zero-hop trigger plus exactly 4 one-hop
        // deliveries — 4 links total, one per fan-out envelope.
        assert_eq!(m.hop_histogram.count(), 5);
        assert_eq!(m.hop_histogram.sum(), 4);
        assert_eq!(m.hop_histogram.max(), Some(1));
    }

    #[test]
    fn self_send_is_a_zero_hop_local_delivery_under_every_model() {
        // A node's message to itself traverses zero mesh links; it must
        // be delivered the next step with zero recorded hops under all
        // three delivery models (under Routed it must not detour
        // through the transit queue and pick up phantom latency).
        struct SelfPing;
        impl NodeProgram for SelfPing {
            type Msg = u8;
            type State = Option<u64>;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> Option<u64> {
                None
            }
            fn on_message(&self, got: &mut Option<u64>, msg: u8, ctx: &mut Outbox<'_, u8>) {
                if msg == 1 {
                    ctx.send(ctx.node(), 2);
                } else {
                    *got = Some(ctx.step());
                }
            }
        }
        for delivery in [
            DeliveryModel::AdjacentOnly,
            DeliveryModel::Routed,
            DeliveryModel::Direct,
        ] {
            let mut sim = Simulation::new(
                Torus::new_2d(4, 4),
                SelfPing,
                SimConfig {
                    delivery,
                    ..SimConfig::default()
                },
            );
            sim.inject(5, 1);
            let report = sim.run_to_quiescence().unwrap();
            // Trigger handled at step 1; loopback delivered at step 2.
            assert_eq!(*sim.state(5), Some(2), "{delivery:?}");
            assert_eq!(report.steps, 2, "{delivery:?}");
            assert_eq!(sim.metrics().hop_histogram.max(), Some(0), "{delivery:?}");
        }
    }

    #[test]
    fn routed_delivery_takes_distance_steps() {
        struct Echo;
        impl NodeProgram for Echo {
            type Msg = u8;
            type State = Option<u64>;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> Option<u64> {
                None
            }
            fn on_message(&self, got: &mut Option<u64>, msg: u8, ctx: &mut Outbox<'_, u8>) {
                if msg == 1 && ctx.node() == 0 {
                    ctx.send(9, 2); // distance 3 on a ring of 10? no: ring-10 dist(0,9)=1
                    ctx.send(5, 3); // distance 5
                } else {
                    *got = Some(ctx.step());
                }
            }
        }
        let mut sim = Simulation::new(
            Ring::new(10),
            Echo,
            SimConfig {
                delivery: DeliveryModel::Routed,
                ..SimConfig::default()
            },
        );
        sim.inject(0, 1);
        sim.run_to_quiescence().unwrap();
        // Trigger handled at step 1. Adjacent send (0->9) delivered step 2.
        assert_eq!(*sim.state(9), Some(2));
        // Distance-5 send: 5 transit phases then handled: step 1+5 = 6.
        assert_eq!(*sim.state(5), Some(6));
        // Hop histogram saw a 5-hop delivery.
        assert_eq!(sim.metrics().hop_histogram.max(), Some(5));
    }

    #[test]
    fn halt_stops_the_run_with_messages_pending() {
        struct HaltAfter;
        impl NodeProgram for HaltAfter {
            type Msg = u32;
            type State = ();
            fn init(&self, _n: NodeId, _c: &InitCtx) {}
            fn on_message(&self, _s: &mut (), msg: u32, ctx: &mut Outbox<'_, u32>) {
                if msg > 0 {
                    ctx.broadcast(msg - 1);
                }
                if msg == 5 {
                    ctx.halt();
                }
            }
        }
        let mut sim = Simulation::new(Torus::new_2d(4, 4), HaltAfter, SimConfig::default());
        sim.inject(0, 5);
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, RunOutcome::Halted);
        assert_eq!(report.steps, 1);
        assert!(sim.queued() > 0);
    }

    #[test]
    fn queue_capacity_overflow_error() {
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
        let mut sim = Simulation::new(
            Ring::new(4),
            Flood,
            SimConfig {
                queue_capacity: Some(4),
                ..SimConfig::default()
            },
        );
        sim.inject(0, ());
        let err = sim.run_to_quiescence().unwrap_err();
        match err {
            SimError::QueueOverflow { len, .. } => assert!(len > 4),
            other => panic!("expected QueueOverflow, got {other:?}"),
        }
    }

    #[test]
    fn tick_hook_fires_on_schedule() {
        struct Ticker;
        impl NodeProgram for Ticker {
            type Msg = ();
            type State = u32;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> u32 {
                0
            }
            fn on_message(&self, _s: &mut u32, _m: (), _ctx: &mut Outbox<'_, ()>) {}
            fn on_tick(&self, ticks: &mut u32, _ctx: &mut Outbox<'_, ()>) {
                *ticks += 1;
            }
        }
        let mut sim = Simulation::new(
            Ring::new(3),
            Ticker,
            SimConfig {
                tick_every: Some(2),
                ..SimConfig::default()
            },
        );
        for _ in 0..6 {
            sim.step().unwrap();
        }
        assert_eq!(*sim.state(0), 3); // steps 2, 4, 6
    }

    #[test]
    fn queue_series_tracks_totals() {
        let mut sim = Simulation::new(Torus::new_2d(4, 4), Traverse, SimConfig::default());
        sim.inject(0, ());
        sim.run_to_quiescence().unwrap();
        let series = sim.metrics().queued_series.as_slice();
        // Ends at zero (quiescent) and peaked somewhere in the middle.
        assert_eq!(*series.last().unwrap(), 0);
        assert!(sim.metrics().peak_queued() >= 4);
        // Conservation: sent + injected == delivered at quiescence.
        assert_eq!(sim.metrics().total_sent + 1, sim.metrics().total_delivered);
    }

    #[test]
    fn completed_run_beats_a_tripped_stop_handle() {
        // Drain a flood-fill to quiescence, then re-enter the loop with
        // the stop handle tripped: the finished run must still report
        // Quiescent, not Stopped — completion has precedence.
        let stop = crate::StopHandle::new();
        let mut sim = Simulation::new(
            Torus::new_2d(4, 4),
            Traverse,
            SimConfig {
                stop: Some(stop.clone()),
                ..SimConfig::default()
            },
        );
        sim.inject(0, ());
        sim.run_to_quiescence().unwrap();
        stop.stop();
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, RunOutcome::Quiescent);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        // Reference: an uninterrupted flood-fill. Then, for several cut
        // points, run to the cut, snapshot, round-trip the bytes,
        // restore, and finish: everything must match the reference.
        let cfg = SimConfig {
            record_trace: true,
            ..SimConfig::default()
        };
        let mut reference = Simulation::new(Torus::new_2d(6, 6), Traverse, cfg.clone());
        reference.inject(7, ());
        let ref_report = reference.run_to_quiescence().unwrap();
        for cut in [0u64, 1, 2, 5, ref_report.steps] {
            let mut sim = Simulation::new(Torus::new_2d(6, 6), Traverse, cfg.clone());
            sim.inject(7, ());
            sim.set_max_steps(cut);
            sim.run_to_quiescence().unwrap();
            let ckpt = sim.snapshot();
            assert_eq!(ckpt.step(), cut.min(ref_report.steps));
            let bytes = ckpt.to_bytes();
            let ckpt = SimCheckpoint::from_bytes(&bytes).expect("bytes round-trip");
            let mut resumed =
                Simulation::restore(Torus::new_2d(6, 6), Traverse, cfg.clone(), &ckpt)
                    .expect("restores");
            let report = resumed.run_to_quiescence().unwrap();
            assert_eq!(report.outcome, ref_report.outcome, "cut={cut}");
            assert_eq!(report.steps, ref_report.steps, "cut={cut}");
            assert_eq!(
                report.computation_time, ref_report.computation_time,
                "cut={cut}"
            );
            assert_eq!(resumed.states(), reference.states(), "cut={cut}");
            assert_eq!(resumed.trace(), reference.trace(), "cut={cut}");
            assert_eq!(resumed.queued(), reference.queued(), "cut={cut}");
            let m = resumed.metrics();
            let rm = reference.metrics();
            assert_eq!(m.delivered_per_node, rm.delivered_per_node, "cut={cut}");
            assert_eq!(m.sent_per_node, rm.sent_per_node, "cut={cut}");
            assert_eq!(m.hop_histogram, rm.hop_histogram, "cut={cut}");
            assert_eq!(
                m.queued_series.as_slice(),
                rm.queued_series.as_slice(),
                "cut={cut}"
            );
            assert_eq!(m.total_sent, rm.total_sent, "cut={cut}");
            assert_eq!(m.first_delivery_step, rm.first_delivery_step, "cut={cut}");
            assert_eq!(m.last_delivery_step, rm.last_delivery_step, "cut={cut}");
        }
    }

    #[test]
    fn snapshot_captures_routed_transit_mid_flight() {
        // A distance-5 send is cut while in transit: the restored run
        // must deliver it at the same step with the same hop count.
        struct Echo;
        impl NodeProgram for Echo {
            type Msg = u8;
            type State = Option<u64>;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> Option<u64> {
                None
            }
            fn on_message(&self, got: &mut Option<u64>, msg: u8, ctx: &mut Outbox<'_, u8>) {
                if msg == 1 && ctx.node() == 0 {
                    ctx.send(5, 3);
                } else {
                    *got = Some(ctx.step());
                }
            }
        }
        let cfg = SimConfig {
            delivery: DeliveryModel::Routed,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(Ring::new(10), Echo, cfg.clone());
        sim.inject(0, 1);
        sim.set_max_steps(3); // the send is 2 hops into its 5-hop route
        sim.run_to_quiescence().unwrap();
        let ckpt = sim.snapshot();
        let mut resumed = Simulation::restore(Ring::new(10), Echo, cfg, &ckpt).expect("restores");
        resumed.run_to_quiescence().unwrap();
        assert_eq!(*resumed.state(5), Some(6));
        assert_eq!(resumed.metrics().hop_histogram.max(), Some(5));
    }

    #[test]
    fn restore_rejects_wrong_machine_sizes_and_corrupt_bytes() {
        let mut sim = Simulation::new(Torus::new_2d(4, 4), Traverse, SimConfig::default());
        sim.inject(0, ());
        sim.set_max_steps(2);
        sim.run_to_quiescence().unwrap();
        let ckpt = sim.snapshot();
        // Wrong topology size.
        assert!(
            Simulation::restore(Torus::new_2d(6, 6), Traverse, SimConfig::default(), &ckpt)
                .is_err()
        );
        // Truncated payloads fail cleanly.
        let bytes = ckpt.to_bytes();
        for cut in (0..bytes.len()).step_by(7) {
            assert!(SimCheckpoint::from_bytes(&bytes[..cut]).is_err(), "{cut}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        // 128 nodes: at PARALLEL_MIN_NODES, so the parallel branch
        // genuinely forks threads rather than falling back.
        let run = |parallel: bool| {
            let mut sim = Simulation::new(
                Torus::new_3d(8, 4, 4),
                Traverse,
                SimConfig {
                    parallel,
                    record_trace: true,
                    ..SimConfig::default()
                },
            );
            sim.inject(17, ());
            let report = sim.run_to_quiescence().unwrap();
            let trace = sim.trace().to_vec();
            let (states, metrics) = sim.into_parts();
            (report.steps, states, metrics, trace)
        };
        let (steps_s, states_s, metrics_s, trace_s) = run(false);
        let (steps_p, states_p, metrics_p, trace_p) = run(true);
        assert_eq!(steps_s, steps_p);
        assert_eq!(states_s, states_p);
        assert_eq!(metrics_s.delivered_per_node, metrics_p.delivered_per_node);
        assert_eq!(
            metrics_s.queued_series.as_slice(),
            metrics_p.queued_series.as_slice()
        );
        assert_eq!(trace_s, trace_p);
    }

    #[test]
    fn dense_stepping_is_bit_identical_to_active_set() {
        let run = |dense_stepping| {
            let mut sim = Simulation::new(
                Torus::new_2d(6, 6),
                Traverse,
                SimConfig {
                    dense_stepping,
                    record_trace: true,
                    ..SimConfig::default()
                },
            );
            sim.inject(7, ());
            let report = sim.run_to_quiescence().unwrap();
            let trace = sim.trace().to_vec();
            let (states, metrics) = sim.into_parts();
            (report.steps, states, metrics, trace)
        };
        let (steps_a, states_a, metrics_a, trace_a) = run(false);
        let (steps_d, states_d, metrics_d, trace_d) = run(true);
        assert_eq!(steps_a, steps_d);
        assert_eq!(states_a, states_d);
        assert_eq!(metrics_a.delivered_per_node, metrics_d.delivered_per_node);
        assert_eq!(metrics_a.sent_per_node, metrics_d.sent_per_node);
        assert_eq!(
            metrics_a.queued_series.as_slice(),
            metrics_d.queued_series.as_slice()
        );
        assert_eq!(
            metrics_a.delivered_series.as_slice(),
            metrics_d.delivered_series.as_slice()
        );
        assert_eq!(metrics_a.hop_histogram, metrics_d.hop_histogram);
        assert_eq!(metrics_a.total_sent, metrics_d.total_sent);
        assert_eq!(metrics_a.total_delivered, metrics_d.total_delivered);
        assert_eq!(trace_a, trace_d);
    }

    #[test]
    fn zero_msgs_per_step_is_clamped_to_one() {
        // A zero budget would make every step a no-op and the run an
        // infinite spin; the engine clamps it to 1 at construction.
        let run = |msgs_per_step| {
            let mut sim = Simulation::new(
                Torus::new_2d(4, 4),
                Traverse,
                SimConfig {
                    msgs_per_step,
                    ..SimConfig::default()
                },
            );
            sim.inject(0, ());
            let report = sim.run_to_quiescence().unwrap();
            (report.steps, sim.metrics().total_delivered)
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn routed_arrivals_respect_queue_capacity() {
        // Non-adjacent senders flood node 0 purely through the transit
        // queue, so every delivery lands on the phase-1 arrival path —
        // which must enforce `queue_capacity` exactly like the direct
        // staged-send path.
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
        let mut sim = Simulation::new(
            Ring::new(12),
            FarFlood,
            SimConfig {
                delivery: DeliveryModel::Routed,
                queue_capacity: Some(3),
                ..SimConfig::default()
            },
        );
        for node in [4, 5, 6, 7] {
            sim.inject(node, ());
        }
        let err = sim.run_to_quiescence().unwrap_err();
        match err {
            SimError::QueueOverflow { node, len, .. } => {
                assert_eq!(node, 0);
                assert!(len > 3);
            }
            other => panic!("expected QueueOverflow, got {other:?}"),
        }
    }

    #[test]
    fn tick_only_program_runs_ticks_with_empty_inboxes() {
        // No messages ever flow: under the active set every step is
        // "dead" except the tick cadence, which must still visit every
        // node, and the fast-forward must synthesise the skipped steps'
        // records bit-identically to the dense walk.
        struct Busy;
        impl NodeProgram for Busy {
            type Msg = ();
            type State = u32;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> u32 {
                0
            }
            fn on_message(&self, _s: &mut u32, _m: (), _ctx: &mut Outbox<'_, ()>) {}
            fn on_tick(&self, ticks: &mut u32, _ctx: &mut Outbox<'_, ()>) {
                *ticks += 1;
            }
            fn is_idle(&self, ticks: &u32) -> bool {
                *ticks >= 3
            }
        }
        let run = |dense_stepping| {
            let mut sim = Simulation::new(
                Ring::new(5),
                Busy,
                SimConfig {
                    tick_every: Some(5),
                    dense_stepping,
                    ..SimConfig::default()
                },
            );
            let report = sim.run_to_quiescence().unwrap();
            let series = sim.metrics().queued_series.as_slice().to_vec();
            let (states, _) = sim.into_parts();
            (report.outcome, report.steps, states, series)
        };
        let sparse = run(false);
        assert_eq!(sparse, run(true));
        let (outcome, steps, states, series) = sparse;
        assert_eq!(outcome, RunOutcome::Quiescent);
        assert_eq!(steps, 15); // ticks at 5, 10, 15 — then every node idle
        assert_eq!(states, vec![3; 5]);
        assert_eq!(series, vec![0; 15]);
    }

    #[test]
    fn idle_node_reactivates_on_late_routed_arrival() {
        // Node 5 handles a message at step 1 and drains out of the
        // active set; a distance-5 send launched the same step must
        // still wake it on arrival five steps later.
        struct Echo;
        impl NodeProgram for Echo {
            type Msg = u8;
            type State = Option<u64>;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> Option<u64> {
                None
            }
            fn on_message(&self, got: &mut Option<u64>, msg: u8, ctx: &mut Outbox<'_, u8>) {
                if msg == 1 && ctx.node() == 0 {
                    ctx.send(5, 2);
                } else {
                    *got = Some(ctx.step());
                }
            }
        }
        let mut sim = Simulation::new(
            Ring::new(10),
            Echo,
            SimConfig {
                delivery: DeliveryModel::Routed,
                ..SimConfig::default()
            },
        );
        sim.inject(5, 0); // wakes node 5, which records and goes idle
        sim.inject(0, 1); // launches the far send the same step
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        // Handled at step 1, then re-woken by the 5-hop arrival.
        assert_eq!(*sim.state(5), Some(6));
    }

    #[test]
    fn restore_mid_backlog_rebuilds_the_active_set() {
        // Cut while node 0 still holds a half-drained backlog: the
        // restored run (whose active set is rebuilt from inbox
        // occupancy, not checkpointed) must finish identically.
        struct CountDeliveries;
        impl NodeProgram for CountDeliveries {
            type Msg = ();
            type State = u32;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> u32 {
                0
            }
            fn on_message(&self, count: &mut u32, _m: (), _ctx: &mut Outbox<'_, ()>) {
                *count += 1;
            }
        }
        let cfg = SimConfig {
            delivery: DeliveryModel::Direct,
            ..SimConfig::default()
        };
        let mut reference = Simulation::new(FullyConnected::new(9), CountDeliveries, cfg.clone());
        for _ in 0..6 {
            reference.inject(0, ());
        }
        let ref_report = reference.run_to_quiescence().unwrap();
        assert_eq!(ref_report.steps, 6); // one pop per step

        let mut sim = Simulation::new(FullyConnected::new(9), CountDeliveries, cfg.clone());
        for _ in 0..6 {
            sim.inject(0, ());
        }
        sim.set_max_steps(3);
        sim.run_to_quiescence().unwrap();
        let ckpt = sim.snapshot();
        let mut resumed = Simulation::restore(FullyConnected::new(9), CountDeliveries, cfg, &ckpt)
            .expect("restores");
        let report = resumed.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, ref_report.outcome);
        assert_eq!(report.steps, ref_report.steps);
        assert_eq!(*resumed.state(0), 6);
        assert_eq!(
            resumed.metrics().queued_series.as_slice(),
            reference.metrics().queued_series.as_slice()
        );
    }
}
