//! The sharded deterministic backend.
//!
//! [`crate::Simulation`] serialises every step through one queue; its
//! `parallel` mode forks threads for the handler phase but keeps all
//! message state global. This module partitions the *state*: nodes are
//! split into K shards ([`Partition::Block`] keeps contiguous id ranges
//! together, [`Partition::RoundRobin`] stripes them), each shard owns its
//! nodes' inboxes, staged sends and routed-transit queue, and shards step
//! concurrently on long-lived worker threads that meet at per-step
//! barriers.
//!
//! # Determinism
//!
//! The backend's contract is that its run is **bit-identical** to the
//! sequential engine — same final states, same [`SimMetrics`], same event
//! trace — for any shard count, any partitioner and any worker-thread
//! count. Everything that crosses a shard boundary is exchanged through
//! per-pair mailboxes and re-ordered by an explicit key before it touches
//! a queue:
//!
//! * every send is keyed by `(step, sender, emission index)` — exactly
//!   the order the sequential engine's phase 3 delivers staged sends;
//! * the routed transit queue is kept sorted by that key, which *is* the
//!   sequential engine's global FIFO order (survivors keep their relative
//!   order and new entries are enqueued with strictly larger keys);
//! * inbox pushes absorb mailbox contents in merged key order, so a
//!   destination sees contributions from many shards in the same order
//!   one big queue would have produced.
//!
//! Thread interleaving can therefore change *when* work happens but never
//! *what order* any queue observes.
//!
//! # Failure containment
//!
//! A panicking node handler would leave sibling shards waiting at a
//! barrier forever. The shard loop catches handler panics, finishes the
//! step's barrier protocol with the shard marked failed, and the
//! coordinator converts the first panic (lowest node id) into
//! [`SimError::HandlerPanic`] — every worker exits cleanly.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Barrier, Mutex};

use hyperspace_obs::{saturating_nanos, Phase};

use crate::checkpoint::{encode_body, CheckpointState, SimCheckpoint};
use crate::codec::{Codec, CodecError};
use crate::engine::{DeliveryModel, RunOutcome, RunReport, SimConfig, SimError};
use crate::envelope::Envelope;
use crate::program::{InitCtx, NodeProgram, Outbox};
use crate::record::{SimMetrics, TraceEvent, TraceKind};
use hyperspace_topology::{Csr, NodeId, Topology};

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

/// The `[lo, hi)` node-id range of block-partition `shard`: the first
/// `num_nodes % shards` shards get one extra node. Single source of
/// truth for the block layout — `shard_of`, `nodes_of` and `local_of`
/// all derive from it.
fn block_bounds(shard: usize, num_nodes: usize, shards: usize) -> (usize, usize) {
    let base = num_nodes / shards;
    let rem = num_nodes % shards;
    let lo = if shard < rem {
        shard * (base + 1)
    } else {
        rem * (base + 1) + (shard - rem) * base
    };
    (lo, lo + if shard < rem { base + 1 } else { base })
}

impl Partition {
    /// The shard owning `node` under this policy.
    pub fn shard_of(&self, node: NodeId, num_nodes: usize, shards: usize) -> usize {
        let node = node as usize;
        debug_assert!(node < num_nodes && shards > 0);
        match self {
            Partition::Block => {
                let base = num_nodes / shards;
                let rem = num_nodes % shards;
                let (big, _) = block_bounds(rem, num_nodes, shards);
                if node < big {
                    node / (base + 1)
                } else {
                    rem + (node - big) / base.max(1)
                }
            }
            Partition::RoundRobin => node % shards,
        }
    }

    /// The nodes of `shard`, in ascending id order (possibly empty when
    /// there are more shards than nodes).
    pub fn nodes_of(&self, shard: usize, num_nodes: usize, shards: usize) -> Vec<NodeId> {
        match self {
            Partition::Block => {
                let (lo, hi) = block_bounds(shard, num_nodes, shards);
                (lo as NodeId..hi as NodeId).collect()
            }
            Partition::RoundRobin => (shard..num_nodes)
                .step_by(shards)
                .map(|n| n as NodeId)
                .collect(),
        }
    }

    /// The index of `node` within [`Partition::nodes_of`] its shard.
    fn local_of(&self, node: NodeId, num_nodes: usize, shards: usize) -> usize {
        let node = node as usize;
        match self {
            Partition::Block => {
                let shard = self.shard_of(node as NodeId, num_nodes, shards);
                let (lo, _) = block_bounds(shard, num_nodes, shards);
                node - lo
            }
            Partition::RoundRobin => node / shards,
        }
    }

    /// Short name used by spec syntax (`block` / `rr`).
    pub fn name(&self) -> &'static str {
        match self {
            Partition::Block => "block",
            Partition::RoundRobin => "rr",
        }
    }
}

/// Configuration of the sharded backend, on top of a [`SimConfig`]
/// (whose `parallel` flag is ignored here — sharding *is* the
/// parallelism).
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
    /// A block-partitioned configuration with `shards` shards.
    pub fn with_shards(shards: usize) -> Self {
        ShardedConfig {
            shards,
            ..ShardedConfig::default()
        }
    }
}

/// Exchange-ordering key: `(enqueue step, sender, emission index)` —
/// the sequential engine's global delivery order (also the checkpoint
/// format's transit key, which is what makes checkpoints portable
/// between backends).
type Key = crate::checkpoint::TransitKey;

/// An envelope travelling between shards, tagged with its ordering key
/// and (for routed transit) its current mesh position.
struct Keyed<M> {
    key: Key,
    at: NodeId,
    env: Envelope<M>,
}

/// K×K mailbox matrix; slot `[dst][src]` carries one step's messages
/// from shard `src` to shard `dst`. Writers post whole batches, readers
/// drain their row and merge by key — barriers separate the two.
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
    /// slot's drained-but-allocated vector, so the posting buffers
    /// recycle their capacity step after step instead of reallocating.
    fn post(&self, dst: usize, src: usize, batch: &mut Vec<Keyed<M>>) {
        if batch.is_empty() {
            return;
        }
        let mut slot = self.slots[dst][src].lock().expect("mail slot poisoned");
        debug_assert!(slot.is_empty(), "mail slot drained every step");
        std::mem::swap(&mut *slot, batch);
    }

    /// Drains every sender's slot for `dst` into `out` in ascending key
    /// order (each slot is already sorted, so this is a merge; a sort
    /// keeps the code obvious and the result identical). `out` is a
    /// reusable buffer — cleared here, capacity retained.
    fn collect_into(&self, dst: usize, out: &mut Vec<Keyed<M>>) {
        out.clear();
        for slot in &self.slots[dst] {
            out.append(&mut slot.lock().expect("mail slot poisoned"));
        }
        out.sort_by_key(|k| k.key);
    }
}

/// One shard: a contiguous slice of the machine's state plus its own
/// queues and instrumentation.
struct Shard<P: NodeProgram> {
    id: usize,
    /// Global node ids owned by this shard, ascending.
    nodes: Vec<NodeId>,
    states: Vec<Option<P::State>>,
    inboxes: Vec<VecDeque<Envelope<P::Msg>>>,
    staged: Vec<Vec<Envelope<P::Msg>>>,
    batches: Vec<Vec<Envelope<P::Msg>>>,
    /// Routed in-flight messages positioned in this shard, sorted by key.
    transit: Vec<Keyed<P::Msg>>,
    /// Local indices with pending inbox deliveries (insertion order,
    /// deduplicated by `active_mask`); the shard's slice of the
    /// event-driven active set. Empty and unmaintained under
    /// `dense_stepping`.
    active: Vec<usize>,
    /// `active_mask[li]` ⇔ `li ∈ active`.
    active_mask: Vec<bool>,
    /// This step's sorted work list; recycled across steps.
    work: Vec<usize>,
    /// Reusable per-destination-shard posting buffers (phase-1 arrivals
    /// and migrations, phase-3 sends); swapped with mail slots.
    post_arrivals: Vec<Vec<Keyed<P::Msg>>>,
    post_migrations: Vec<Vec<Keyed<P::Msg>>>,
    post_sends: Vec<Vec<Keyed<P::Msg>>>,
    /// Reusable transit survivor/merge buffer.
    transit_buf: Vec<Keyed<P::Msg>>,
    /// Reusable mailbox collection buffer.
    mail_buf: Vec<Keyed<P::Msg>>,
    /// Messages resident in this shard (inboxes + transit).
    queued: u64,
    /// Deliveries during the current step.
    step_delivered: u64,
    halted: bool,
    idle: bool,
    overflow: Option<(Key, NodeId, usize)>,
    panic: Option<(NodeId, String)>,
    metrics: SimMetrics,
    trace: Vec<TraceEvent>,
}

impl<P: NodeProgram> Shard<P> {
    /// Adds local index `li` to the shard's active set (idempotent; the
    /// invariant is `active_mask[li]` ⇔ `li ∈ active`).
    #[inline]
    fn mark_active(&mut self, li: usize) {
        if !self.active_mask[li] {
            self.active_mask[li] = true;
            self.active.push(li);
        }
    }
}

/// Per-step results a shard publishes for the coordinator.
#[derive(Default)]
struct StepOut {
    delivered: u64,
    queued: u64,
    halted: bool,
    idle: bool,
    overflow: Option<(Key, NodeId, usize)>,
    panic: Option<(NodeId, String)>,
}

const CMD_STEP: u8 = 0;
const CMD_FINISH: u8 = 1;

/// State shared by all worker threads for one run.
struct Shared<M> {
    barrier: Barrier,
    command: AtomicU8,
    /// The step workers are commanded to execute next. Published by the
    /// coordinator before each `CMD_STEP` so dead-step fast-forwards
    /// (which advance the clock without waking the workers) stay in
    /// sync with every shard's notion of time.
    step: AtomicU64,
    /// Phase-1 mail: routed messages that reached their destination.
    arrivals: MailGrid<M>,
    /// Phase-1 mail: routed messages whose position moved shards.
    migrations: MailGrid<M>,
    /// Phase-3 mail: staged sends bound for destination inboxes.
    sends: MailGrid<M>,
    step_outs: Vec<Mutex<StepOut>>,
}

/// Read-only run context shared by all phases.
struct RunEnv<'a, T, P> {
    topo: &'a T,
    program: &'a P,
    csr: &'a Csr,
    cfg: &'a SimConfig,
    partition: Partition,
    num_nodes: usize,
    shards: usize,
}

impl<'a, T: Topology, P: NodeProgram> RunEnv<'a, T, P> {
    fn shard_of(&self, node: NodeId) -> usize {
        self.partition.shard_of(node, self.num_nodes, self.shards)
    }

    fn local_of(&self, node: NodeId) -> usize {
        self.partition.local_of(node, self.num_nodes, self.shards)
    }
}

/// The coordinator's view of the run, driven from worker thread 0
/// between the end-of-step barrier and the next command barrier (all
/// other threads are parked at the command barrier in that window).
struct Coordinator<'a> {
    cfg: &'a SimConfig,
    max_steps: u64,
    step: u64,
    queued: u64,
    halted: bool,
    idle_all: bool,
    first_iteration: bool,
    pending_error: Option<SimError>,
    queued_series: Vec<u64>,
    delivered_series: Vec<u64>,
    outcome: Option<RunOutcome>,
}

/// The coordinator's owned outputs, extracted once the worker scope (and
/// with it the coordinator's borrows of the simulation) has ended.
struct CoordOut {
    step: u64,
    queued: u64,
    halted: bool,
    queued_series: Vec<u64>,
    delivered_series: Vec<u64>,
    pending_error: Option<SimError>,
    outcome: Option<RunOutcome>,
}

impl<'a> Coordinator<'a> {
    /// Folds every shard's [`StepOut`] for the step just executed into
    /// the global view, picking canonical (sequential-order) winners for
    /// errors: panics by lowest node, overflows by lowest delivery key,
    /// panics before overflows (phase 2 precedes phase 3).
    fn aggregate<M>(&mut self, shared: &Shared<M>) {
        let mut delivered = 0u64;
        let mut queued = 0u64;
        let mut idle = true;
        let mut overflow: Option<(Key, NodeId, usize)> = None;
        let mut panic: Option<(NodeId, String)> = None;
        for slot in &shared.step_outs {
            let out = std::mem::take(&mut *slot.lock().expect("step slot poisoned"));
            delivered += out.delivered;
            queued += out.queued;
            self.halted |= out.halted;
            idle &= out.idle;
            if let Some(cand) = out.overflow {
                if overflow.as_ref().is_none_or(|best| cand.0 < best.0) {
                    overflow = Some(cand);
                }
            }
            if let Some(cand) = out.panic {
                if panic.as_ref().is_none_or(|best| cand.0 < best.0) {
                    panic = Some(cand);
                }
            }
        }
        self.queued = queued;
        self.idle_all = idle;
        if let Some((node, message)) = panic {
            self.pending_error = Some(SimError::HandlerPanic {
                node,
                step: self.step,
                message,
            });
        } else if let Some((_, node, len)) = overflow {
            self.pending_error = Some(SimError::QueueOverflow {
                node,
                step: self.step,
                len,
            });
        } else {
            if self.cfg.record_queue_series {
                self.queued_series.push(queued);
                self.delivered_series.push(delivered);
            }
            // Same contract as the sequential engine: the observer sees
            // each successfully completed step, never a failed one.
            self.cfg.obs.on_step(self.step, delivered, queued);
        }
    }

    /// Decides whether to run another step, mirroring
    /// [`crate::Simulation::run_to_quiescence`]'s check order exactly
    /// (completion beats a tripped stop handle).
    fn decide<M>(&mut self, shared: &Shared<M>) -> u8 {
        if !self.first_iteration {
            self.aggregate(shared);
        }
        self.first_iteration = false;
        if self.pending_error.is_some() {
            return CMD_FINISH;
        }
        if self.halted {
            self.outcome = Some(RunOutcome::Halted);
            return CMD_FINISH;
        }
        if self.queued == 0 && self.idle_all {
            self.outcome = Some(RunOutcome::Quiescent);
            return CMD_FINISH;
        }
        if let Some(stop) = &self.cfg.stop {
            if stop.should_stop() {
                self.outcome = Some(RunOutcome::Stopped);
                return CMD_FINISH;
            }
        }
        if self.step >= self.max_steps {
            self.outcome = Some(RunOutcome::MaxSteps);
            return CMD_FINISH;
        }
        // Event-driven fast-forward, mirroring the sequential engine's
        // `run_to_quiescence`: with nothing queued anywhere the only
        // possible work left is the next tick, so the steps until then
        // are dead on every shard — synthesise their (empty) records
        // here instead of waking all workers to do nothing.
        if !self.cfg.dense_stepping && self.queued == 0 {
            if let Some(k) = self.cfg.tick_every {
                // checked_div: k == 0 means ticks never fire.
                if let Some(next_tick) = self.step.checked_div(k).map(|q| (q + 1) * k) {
                    let skip_to = (next_tick - 1).min(self.max_steps);
                    while self.step < skip_to {
                        self.step += 1;
                        if self.cfg.record_queue_series {
                            self.queued_series.push(0);
                            self.delivered_series.push(0);
                        }
                        self.cfg.obs.on_step(self.step, 0, 0);
                    }
                    if self.step >= self.max_steps {
                        self.outcome = Some(RunOutcome::MaxSteps);
                        return CMD_FINISH;
                    }
                }
            }
        }
        self.step += 1;
        shared.step.store(self.step, Ordering::SeqCst);
        CMD_STEP
    }
}

/// Merges two key-sorted vectors into `out` (cleared first), draining
/// both inputs but keeping all three allocations for reuse.
fn merge_sorted_into<M>(a: &mut Vec<Keyed<M>>, b: &mut Vec<Keyed<M>>, out: &mut Vec<Keyed<M>>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut ai, mut bi) = (a.drain(..).peekable(), b.drain(..).peekable());
    loop {
        match (ai.peek(), bi.peek()) {
            (Some(x), Some(y)) => {
                if x.key <= y.key {
                    out.push(ai.next().expect("peeked"));
                } else {
                    out.push(bi.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.extend(ai.by_ref()),
            (None, _) => {
                out.extend(bi.by_ref());
                return;
            }
        }
    }
}

/// A deterministic sharded execution of one [`NodeProgram`] over a
/// topology: same API shape as [`crate::Simulation`], bit-identical
/// results, K-way concurrent state.
pub struct ShardedSimulation<T: Topology, P: NodeProgram> {
    topo: T,
    program: P,
    cfg: SimConfig,
    partition: Partition,
    threads: usize,
    csr: Csr,
    shards: Vec<Shard<P>>,
    step: u64,
    queued: u64,
    halted: bool,
    merged_metrics: SimMetrics,
    merged_trace: Vec<TraceEvent>,
    queued_series: Vec<u64>,
    delivered_series: Vec<u64>,
}

impl<T: Topology, P: NodeProgram> ShardedSimulation<T, P> {
    /// Builds the sharded machine: K shards, each owning its partition's
    /// node states and queues. Nodes are initialised in global id order,
    /// exactly like the sequential engine.
    pub fn new(topo: T, program: P, mut cfg: SimConfig, scfg: ShardedConfig) -> Self {
        // Same clamp as the sequential engine: a zero budget can never
        // drain queued work.
        cfg.msgs_per_step = cfg.msgs_per_step.max(1);
        let n = topo.num_nodes();
        let k = scfg.shards.max(1);
        let csr = Csr::build(&topo);
        let mut shards: Vec<Shard<P>> = (0..k)
            .map(|id| {
                let nodes = scfg.partition.nodes_of(id, n, k);
                let len = nodes.len();
                Shard {
                    id,
                    nodes,
                    states: (0..len).map(|_| None).collect(),
                    inboxes: (0..len).map(|_| VecDeque::new()).collect(),
                    staged: (0..len).map(|_| Vec::new()).collect(),
                    batches: (0..len).map(|_| Vec::new()).collect(),
                    transit: Vec::new(),
                    active: Vec::new(),
                    active_mask: vec![false; len],
                    work: Vec::new(),
                    post_arrivals: (0..k).map(|_| Vec::new()).collect(),
                    post_migrations: (0..k).map(|_| Vec::new()).collect(),
                    post_sends: (0..k).map(|_| Vec::new()).collect(),
                    transit_buf: Vec::new(),
                    mail_buf: Vec::new(),
                    queued: 0,
                    step_delivered: 0,
                    halted: false,
                    idle: true,
                    overflow: None,
                    panic: None,
                    metrics: SimMetrics::new(n, cfg.record_node_activity),
                    trace: Vec::new(),
                }
            })
            .collect();
        for node in 0..n as NodeId {
            let ictx = InitCtx {
                node,
                num_nodes: n,
                neighbours: csr.neighbours(node),
            };
            let state = program.init(node, &ictx);
            let sid = scfg.partition.shard_of(node, n, k);
            let li = scfg.partition.local_of(node, n, k);
            shards[sid].states[li] = Some(state);
        }
        let threads = scfg
            .threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|t| t.get())
                    .unwrap_or(1)
            })
            .clamp(1, k);
        ShardedSimulation {
            topo,
            program,
            cfg,
            partition: scfg.partition,
            threads,
            csr,
            shards,
            step: 0,
            queued: 0,
            halted: false,
            merged_metrics: SimMetrics::new(n, false),
            merged_trace: Vec::new(),
            queued_series: Vec::new(),
            delivered_series: Vec::new(),
        }
    }

    /// Injects an external trigger message into `node`'s inbox (same
    /// semantics as [`crate::Simulation::inject`]).
    pub fn inject(&mut self, node: NodeId, msg: P::Msg) {
        let n = self.topo.num_nodes();
        let k = self.shards.len();
        let sid = self.partition.shard_of(node, n, k);
        let li = self.partition.local_of(node, n, k);
        self.shards[sid].inboxes[li].push_back(Envelope {
            src: node,
            dst: node,
            sent_step: self.step,
            hops: 0,
            payload: msg,
        });
        self.shards[sid].queued += 1;
        self.queued += 1;
        if !self.cfg.dense_stepping {
            self.shards[sid].mark_active(li);
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads this run will use.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Current simulation step (number of steps executed so far).
    pub fn current_step(&self) -> u64 {
        self.step
    }

    /// Replaces the `max_steps` cap (same epoch-stepping contract as
    /// [`crate::Simulation::set_max_steps`]; the run remains bit-identical
    /// to a sequential engine driven through the same cap sequence).
    pub fn set_max_steps(&mut self, cap: u64) {
        self.cfg.max_steps = cap;
    }

    /// Total messages currently queued (all shards, inboxes + transit).
    pub fn queued(&self) -> u64 {
        self.queued
    }

    /// Immutable access to a node's state.
    pub fn state(&self, node: NodeId) -> &P::State {
        let n = self.topo.num_nodes();
        let k = self.shards.len();
        let sid = self.partition.shard_of(node, n, k);
        let li = self.partition.local_of(node, n, k);
        self.shards[sid].states[li]
            .as_ref()
            .expect("every node initialised")
    }

    /// The merged run measurements (valid after a run; series are
    /// recorded by the coordinator, per-node counters by the shards).
    pub fn metrics(&self) -> &SimMetrics {
        &self.merged_metrics
    }

    /// The merged event trace in sequential-engine order (empty unless
    /// `record_trace` is set).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.merged_trace
    }

    /// The simulated machine's topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// Steps all shards until no messages remain, a handler halts the
    /// run, the step cap is reached, or the stop handle trips — with the
    /// same outcome precedence as the sequential engine.
    pub fn run_to_quiescence(&mut self) -> Result<RunReport, SimError> {
        let k = self.shards.len();
        // Contiguous shard groups, one worker thread each. Recompute the
        // thread count from the group size: `k = 5, threads = 4` yields
        // only 3 non-empty groups, and the barrier must match exactly.
        let group_size = k.div_ceil(self.threads);
        let workers = k.div_ceil(group_size);
        let shared: Shared<P::Msg> = Shared {
            barrier: Barrier::new(workers),
            command: AtomicU8::new(CMD_STEP),
            step: AtomicU64::new(self.step),
            arrivals: MailGrid::new(k),
            migrations: MailGrid::new(k),
            sends: MailGrid::new(k),
            step_outs: (0..k).map(|_| Mutex::new(StepOut::default())).collect(),
        };
        // Lazy like the per-step check: the scan only matters when no
        // messages are queued.
        let idle_all = self.cfg.tick_every.is_none()
            || (self.queued == 0
                && self.shards.iter().all(|s| {
                    s.states
                        .iter()
                        .map(|st| st.as_ref().expect("initialised"))
                        .all(|st| self.program.is_idle(st))
                }));
        // The coordinator and run environment borrow `self`'s fields;
        // scope them so the post-run bookkeeping can mutate `self`.
        let mut coordinator = {
            let mut coordinator = Coordinator {
                cfg: &self.cfg,
                max_steps: self.cfg.max_steps,
                step: self.step,
                queued: self.queued,
                halted: self.halted,
                idle_all,
                first_iteration: true,
                pending_error: None,
                queued_series: Vec::new(),
                delivered_series: Vec::new(),
                outcome: None,
            };
            let env = RunEnv {
                topo: &self.topo,
                program: &self.program,
                csr: &self.csr,
                cfg: &self.cfg,
                partition: self.partition,
                num_nodes: self.topo.num_nodes(),
                shards: k,
            };
            let mut groups: Vec<&mut [Shard<P>]> = self.shards.chunks_mut(group_size).collect();
            debug_assert_eq!(groups.len(), workers);
            let first = groups.remove(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .into_iter()
                    .map(|group| {
                        let env = &env;
                        let shared = &shared;
                        scope.spawn(move || drive(group, env, shared, None))
                    })
                    .collect();
                drive(first, &env, &shared, Some(&mut coordinator));
                for handle in handles {
                    handle.join().expect("shard worker thread panicked");
                }
            });
            CoordOut {
                step: coordinator.step,
                queued: coordinator.queued,
                halted: coordinator.halted,
                queued_series: coordinator.queued_series,
                delivered_series: coordinator.delivered_series,
                pending_error: coordinator.pending_error,
                outcome: coordinator.outcome,
            }
        };
        self.step = coordinator.step;
        self.queued = coordinator.queued;
        self.halted = coordinator.halted;
        self.queued_series.append(&mut coordinator.queued_series);
        self.delivered_series
            .append(&mut coordinator.delivered_series);
        self.rebuild_merged();
        match coordinator.pending_error {
            Some(err) => Err(err),
            None => {
                let outcome = coordinator.outcome.expect("coordinator always decides");
                Ok(RunReport {
                    outcome,
                    steps: self.step,
                    computation_time: self.merged_metrics.computation_time(),
                })
            }
        }
    }

    /// Computes the merged metrics and trace from the shards plus the
    /// coordinator's series — the sequential engine's view of the run.
    fn merged_parts(&self) -> (SimMetrics, Vec<TraceEvent>) {
        let mut metrics = SimMetrics::new(self.topo.num_nodes(), self.cfg.record_node_activity);
        for shard in &self.shards {
            metrics.merge_shard(&shard.metrics);
        }
        if self.cfg.record_queue_series {
            for &v in &self.queued_series {
                metrics.queued_series.push(v);
            }
            for &v in &self.delivered_series {
                metrics.delivered_series.push(v);
            }
        }
        let mut trace = Vec::new();
        if self.cfg.record_trace {
            trace = self
                .shards
                .iter()
                .flat_map(|s| s.trace.iter().copied())
                .collect();
            // Per step the sequential engine emits all Deliver events
            // (ascending destination), then all Send events (ascending
            // sender). Each shard's fragment is already in that order for
            // its own nodes; a stable sort by the global key recovers the
            // exact sequential interleaving.
            trace.sort_by_key(|e| {
                let (rank, node) = match e.kind {
                    TraceKind::Deliver => (0u8, e.dst),
                    TraceKind::Send => (1u8, e.src),
                };
                (e.step, rank, node)
            });
        }
        (metrics, trace)
    }

    /// Rebuilds the merged metrics and trace from the shards plus the
    /// coordinator's series.
    fn rebuild_merged(&mut self) {
        let (metrics, trace) = self.merged_parts();
        self.merged_metrics = metrics;
        self.merged_trace = trace;
    }

    fn locate(&self, node: NodeId) -> (usize, usize) {
        let n = self.topo.num_nodes();
        let k = self.shards.len();
        (
            self.partition.shard_of(node, n, k),
            self.partition.local_of(node, n, k),
        )
    }

    /// Consumes the simulation, returning final states (global node
    /// order) and merged metrics.
    pub fn into_parts(mut self) -> (Vec<P::State>, SimMetrics) {
        let n = self.topo.num_nodes();
        let mut flat: Vec<Option<P::State>> = (0..n).map(|_| None).collect();
        for shard in &mut self.shards {
            for (li, state) in shard.states.iter_mut().enumerate() {
                flat[shard.nodes[li] as usize] = state.take();
            }
        }
        let states = flat
            .into_iter()
            .map(|s| s.expect("every node initialised"))
            .collect();
        (states, self.merged_metrics)
    }
}

impl<T: Topology, P: NodeProgram> ShardedSimulation<T, P>
where
    P::State: Codec,
    P::Msg: Codec,
{
    /// Serialises the sharded machine's complete logical state at the
    /// current step barrier, in the canonical cross-backend format:
    /// byte-identical to the [`crate::Simulation::snapshot`] of the same
    /// run at the same step, whatever the shard count, partitioner or
    /// thread count — and restorable on either backend.
    pub fn snapshot(&self) -> SimCheckpoint {
        debug_assert!(self.shards.iter().all(
            |s| s.staged.iter().all(|b| b.is_empty()) && s.batches.iter().all(|b| b.is_empty())
        ));
        let n = self.topo.num_nodes();
        let (metrics, trace) = self.merged_parts();
        let mut states: Vec<&P::State> = Vec::with_capacity(n);
        let mut inboxes: Vec<&VecDeque<Envelope<P::Msg>>> = Vec::with_capacity(n);
        for node in 0..n as NodeId {
            let (sid, li) = self.locate(node);
            states.push(self.shards[sid].states[li].as_ref().expect("initialised"));
            inboxes.push(&self.shards[sid].inboxes[li]);
        }
        // Each shard's transit queue is key-sorted; the union in key
        // order is exactly the sequential engine's global FIFO.
        let mut transit: Vec<(Key, NodeId, &Envelope<P::Msg>)> = self
            .shards
            .iter()
            .flat_map(|s| s.transit.iter().map(|k| (k.key, k.at, &k.env)))
            .collect();
        transit.sort_by_key(|&(key, _, _)| key);
        let started = self.cfg.obs.enabled().then(std::time::Instant::now);
        let body = encode_body(
            states.into_iter(),
            inboxes.into_iter(),
            transit.len(),
            transit.into_iter(),
            &metrics,
            &trace,
        );
        if let Some(started) = started {
            let nanos = saturating_nanos(started.elapsed());
            self.cfg.obs.on_checkpoint(body.len() as u64, nanos);
            self.cfg.obs.on_phase(0, Phase::CheckpointEncode, nanos);
        }
        SimCheckpoint::new(self.step, self.halted, n, body)
    }

    /// Rebuilds a sharded simulation from a checkpoint — taken on *any*
    /// backend, under any shard count — ready to resume bit-identically.
    /// The caller supplies the same topology, program and engine config
    /// the checkpoint was taken under; the sharding configuration is
    /// free (resume a sequential run `sharded:7`, re-shard a `sharded:2`
    /// run as `sharded:5`, ...).
    pub fn restore(
        topo: T,
        program: P,
        cfg: SimConfig,
        scfg: ShardedConfig,
        ckpt: &SimCheckpoint,
    ) -> Result<Self, CodecError> {
        let mut sim = ShardedSimulation::new(topo, program, cfg, scfg);
        let n = sim.topo.num_nodes();
        if ckpt.num_nodes() != n {
            return Err(CodecError::Invalid(format!(
                "checkpoint is for a {}-node machine, topology has {n}",
                ckpt.num_nodes()
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
        for (node, st) in state.states.into_iter().enumerate() {
            let (sid, li) = sim.locate(node as NodeId);
            sim.shards[sid].states[li] = Some(st);
        }
        for (node, inbox) in state.inboxes.into_iter().enumerate() {
            let (sid, li) = sim.locate(node as NodeId);
            sim.shards[sid].queued += inbox.len() as u64;
            // The active set is derived state (never checkpointed):
            // rebuild each shard's slice from inbox occupancy, exactly
            // like the sequential engine's restore.
            if !sim.cfg.dense_stepping && !inbox.is_empty() {
                sim.shards[sid].mark_active(li);
            }
            sim.shards[sid].inboxes[li] = inbox;
        }
        // The canonical transit list is globally key-sorted, so each
        // shard receives its slice already in its required order.
        for (key, at, env) in state.transit {
            let (sid, _) = sim.locate(at);
            sim.shards[sid].transit.push(Keyed { key, at, env });
            sim.shards[sid].queued += 1;
        }
        // All merged instrumentation is parked on shard 0: per-node
        // vectors scatter-add under `merge_shard`, so one shard holding
        // the whole prefix and the rest holding zeros folds back to the
        // exact sequential view. The global per-step series live on the
        // coordinator's side.
        let mut metrics = state.metrics;
        sim.queued_series = std::mem::take(&mut metrics.queued_series).into_vec();
        sim.delivered_series = std::mem::take(&mut metrics.delivered_series).into_vec();
        sim.shards[0].metrics = metrics;
        sim.shards[0].trace = state.trace;
        sim.step = ckpt.step();
        sim.halted = ckpt.halted();
        sim.rebuild_merged();
        Ok(sim)
    }
}

/// One worker thread's run loop, driving a contiguous group of shards.
/// The thread holding `coordinator` (thread 0) additionally aggregates
/// step results and publishes the next command while its siblings wait
/// at the command barrier.
fn drive<T: Topology, P: NodeProgram>(
    group: &mut [Shard<P>],
    env: &RunEnv<'_, T, P>,
    shared: &Shared<P::Msg>,
    mut coordinator: Option<&mut Coordinator<'_>>,
) {
    let routed = env.cfg.delivery == DeliveryModel::Routed;
    // Barrier waits are attributed to the worker's first shard; the
    // observer sees one span per wait per worker thread.
    let worker = group.first().map(|s| s.id).unwrap_or(0);
    let obs = &env.cfg.obs;
    loop {
        if let Some(coord) = coordinator.as_deref_mut() {
            let cmd = coord.decide(shared);
            shared.command.store(cmd, Ordering::SeqCst);
        }
        // command visible to every thread
        obs.time_barrier(worker, || shared.barrier.wait());
        if shared.command.load(Ordering::SeqCst) == CMD_FINISH {
            return;
        }
        // The coordinator owns the clock: dead-step fast-forwards can
        // advance it by more than one between commands.
        let step = shared.step.load(Ordering::SeqCst);
        // Phase attribution is sampled (see `ObsHandle::phase_sampled`):
        // on unsampled steps each phase call below is the bare function,
        // no clock reads.
        let sampled = obs.phase_sampled(step);
        if routed {
            for shard in group.iter_mut() {
                if sampled {
                    let id = shard.id;
                    obs.time_phase(id, Phase::Delivery, || phase_transit(shard, env, shared));
                } else {
                    phase_transit(shard, env, shared);
                }
            }
            // transit mail fully posted
            obs.time_barrier(worker, || shared.barrier.wait());
            for shard in group.iter_mut() {
                if sampled {
                    let id = shard.id;
                    obs.time_phase(id, Phase::Exchange, || absorb_transit(shard, env, shared));
                } else {
                    absorb_transit(shard, env, shared);
                }
            }
        }
        for shard in group.iter_mut() {
            if sampled {
                let id = shard.id;
                obs.time_phase(id, Phase::Handler, || {
                    phase_handlers(shard, env, shared, step)
                });
            } else {
                phase_handlers(shard, env, shared, step);
            }
        }
        // send mail fully posted
        obs.time_barrier(worker, || shared.barrier.wait());
        for shard in group.iter_mut() {
            if sampled {
                let id = shard.id;
                obs.time_phase(id, Phase::Exchange, || absorb_sends(shard, env, shared));
            } else {
                absorb_sends(shard, env, shared);
            }
        }
        if sampled {
            // Per-shard load after the step: the active-set size drives
            // the imbalance signal (dense runs visit every local node).
            for shard in group.iter() {
                let load = if env.cfg.dense_stepping {
                    shard.inboxes.len() as u64
                } else {
                    shard.active.len() as u64
                };
                obs.on_shard_active(shard.id, load);
            }
        }
        // step results published
        obs.time_barrier(worker, || shared.barrier.wait());
    }
}

/// Phase 1 (routed delivery only): advance this shard's in-flight
/// messages one hop; arrivals and shard-crossing survivors go to mail.
fn phase_transit<T: Topology, P: NodeProgram>(
    shard: &mut Shard<P>,
    env: &RunEnv<'_, T, P>,
    shared: &Shared<P::Msg>,
) {
    let Shard {
        id,
        transit,
        transit_buf,
        post_arrivals,
        post_migrations,
        queued,
        ..
    } = shard;
    *queued -= transit.len() as u64;
    debug_assert!(transit_buf.is_empty());
    for mut kenv in transit.drain(..) {
        let next = env.topo.next_hop(kenv.at, kenv.env.dst);
        if next != kenv.at {
            kenv.env.advance_hop();
        }
        kenv.at = next;
        if next == kenv.env.dst {
            post_arrivals[env.shard_of(next)].push(kenv);
        } else if env.shard_of(next) == *id {
            transit_buf.push(kenv);
        } else {
            post_migrations[env.shard_of(next)].push(kenv);
        }
    }
    // Survivors become the new transit queue; the drained old vector
    // becomes next step's survivor buffer — no allocation either way.
    std::mem::swap(transit, transit_buf);
    *queued += transit.len() as u64;
    for (dst, batch) in post_arrivals.iter_mut().enumerate() {
        shared.arrivals.post(dst, *id, batch);
    }
    for (dst, batch) in post_migrations.iter_mut().enumerate() {
        shared.migrations.post(dst, *id, batch);
    }
}

/// Phase 1 absorb: take arrivals into inboxes and migrated messages into
/// the local transit queue, both in global key order.
fn absorb_transit<T: Topology, P: NodeProgram>(
    shard: &mut Shard<P>,
    env: &RunEnv<'_, T, P>,
    shared: &Shared<P::Msg>,
) {
    let sparse = !env.cfg.dense_stepping;
    shared.arrivals.collect_into(shard.id, &mut shard.mail_buf);
    {
        let Shard {
            nodes,
            inboxes,
            active,
            active_mask,
            overflow,
            mail_buf,
            queued,
            ..
        } = shard;
        *queued += mail_buf.len() as u64;
        for Keyed { key, env: msg, .. } in mail_buf.drain(..) {
            let li = env.local_of(msg.dst);
            inboxes[li].push_back(msg);
            if sparse && !active_mask[li] {
                active_mask[li] = true;
                active.push(li);
            }
            // Routed arrivals respect `queue_capacity` exactly like the
            // direct-delivery path in `absorb_sends`; arrivals land in
            // ascending key order, so the first violation found is the
            // shard's lowest-key candidate.
            if let Some(cap) = env.cfg.queue_capacity {
                let len = inboxes[li].len();
                if len > cap && overflow.is_none() {
                    *overflow = Some((key, nodes[li], len));
                }
            }
        }
    }
    shared
        .migrations
        .collect_into(shard.id, &mut shard.mail_buf);
    shard.queued += shard.mail_buf.len() as u64;
    if !shard.mail_buf.is_empty() {
        let Shard {
            transit,
            transit_buf,
            mail_buf,
            ..
        } = shard;
        debug_assert!(transit_buf.is_empty());
        merge_sorted_into(transit, mail_buf, transit_buf);
        std::mem::swap(transit, transit_buf);
    }
}

/// Phases 2 and 3 (local half): pop batches, run handlers (catching
/// panics), then stage outgoing sends into transit or mail.
fn phase_handlers<T: Topology, P: NodeProgram>(
    shard: &mut Shard<P>,
    env: &RunEnv<'_, T, P>,
    shared: &Shared<P::Msg>,
    step: u64,
) {
    let cfg = env.cfg;
    let budget = cfg.msgs_per_step as usize;
    let num_local = shard.nodes.len();
    let tick = matches!(cfg.tick_every, Some(k) if k > 0 && step.is_multiple_of(k));
    let sparse = !cfg.dense_stepping;

    // Build this step's work list: on tick steps (and under
    // `dense_stepping`) every local node runs, otherwise only the
    // shard's active set. Sorting restores ascending local order — the
    // order the dense loop visits — so every per-node effect below is
    // emitted in the exact dense sequence. Nodes outside the work list
    // have empty inboxes and (on a non-tick step) would run nothing:
    // skipping them is unobservable.
    shard.work.clear();
    if !sparse || tick {
        shard.work.extend(0..num_local);
        shard.active.clear();
    } else {
        std::mem::swap(&mut shard.work, &mut shard.active);
        shard.work.sort_unstable();
    }

    // Pop this step's batches, re-deriving active-set membership: a
    // worked node stays active iff its inbox still has a backlog. Work
    // entries are unique, so the unconditional push keeps the mask
    // invariant.
    let mut delivered = 0u64;
    for wi in 0..shard.work.len() {
        let li = shard.work[wi];
        let inbox = &mut shard.inboxes[li];
        let batch = &mut shard.batches[li];
        debug_assert!(batch.is_empty());
        for _ in 0..budget {
            match inbox.pop_front() {
                Some(env) => batch.push(env),
                None => break,
            }
        }
        delivered += batch.len() as u64;
        if sparse {
            let more = !inbox.is_empty();
            shard.active_mask[li] = more;
            if more {
                shard.active.push(li);
            }
        }
    }
    shard.queued -= delivered;
    shard.step_delivered = delivered;
    if delivered > 0 {
        shard.metrics.first_delivery_step.get_or_insert(step);
        shard.metrics.last_delivery_step = Some(step);
        shard.metrics.total_delivered += delivered;
    }
    if cfg.record_node_activity {
        for &li in &shard.work {
            shard.metrics.delivered_per_node[shard.nodes[li] as usize] +=
                shard.batches[li].len() as u64;
        }
    }
    if cfg.record_trace {
        for &li in &shard.work {
            for env in &shard.batches[li] {
                shard.trace.push(TraceEvent {
                    step,
                    kind: TraceKind::Deliver,
                    src: env.src,
                    dst: env.dst,
                    hops: env.hops,
                });
            }
        }
    }
    for &li in &shard.work {
        for env in &shard.batches[li] {
            shard.metrics.hop_histogram.record(env.hops as u64);
        }
    }

    // Run handlers, containing panics to this shard.
    let adjacent_only = cfg.delivery == DeliveryModel::AdjacentOnly;
    for wi in 0..shard.work.len() {
        let li = shard.work[wi];
        let node = shard.nodes[li];
        let state = shard.states[li].as_mut().expect("initialised");
        let batch = &mut shard.batches[li];
        let staged = &mut shard.staged[li];
        let neighbours = env.csr.neighbours(node);
        let mut halt = false;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for delivery in batch.drain(..) {
                let mut outbox = Outbox {
                    node,
                    step,
                    src: delivery.src,
                    hops: delivery.hops,
                    neighbours,
                    topo_nodes: env.num_nodes,
                    adjacent_only,
                    staged,
                    halt: &mut halt,
                };
                env.program.on_message(state, delivery.payload, &mut outbox);
            }
            if tick {
                let mut outbox = Outbox {
                    node,
                    step,
                    src: node,
                    hops: 0,
                    neighbours,
                    topo_nodes: env.num_nodes,
                    adjacent_only,
                    staged,
                    halt: &mut halt,
                };
                env.program.on_tick(state, &mut outbox);
            }
        }));
        if halt {
            shard.halted = true;
        }
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "handler panicked".to_string());
            shard.panic = Some((node, message));
            // Skip this shard's remaining nodes — the run is aborting.
            // Every popped batch (this node's partially drained one and
            // the skipped nodes' untouched ones) was already counted as
            // delivered and subtracted from `queued`; drop them all so a
            // later resume sees empty batches and consistent accounting.
            for batch in shard.batches.iter_mut() {
                batch.clear();
            }
            break;
        }
    }

    // Phase 3, local half: stage sends in (sender, emission) order,
    // batched into the reusable per-destination posting buffers.
    for wi in 0..shard.work.len() {
        let li = shard.work[wi];
        let src = shard.nodes[li];
        for (emission, mut msg) in shard.staged[li].drain(..).enumerate() {
            if cfg.record_trace {
                shard.trace.push(TraceEvent {
                    step,
                    kind: TraceKind::Send,
                    src: msg.src,
                    dst: msg.dst,
                    hops: 0,
                });
            }
            if cfg.record_node_activity {
                shard.metrics.sent_per_node[src as usize] += 1;
            }
            shard.metrics.total_sent += 1;
            let key: Key = (step, src, emission as u32);
            if cfg.delivery == DeliveryModel::Routed
                && msg.src != msg.dst
                && !env.csr.are_adjacent(msg.src, msg.dst)
            {
                // Enters the NoC at the sender's position — owned by this
                // shard, and keyed above everything already in transit.
                shard.transit.push(Keyed {
                    key,
                    at: msg.src,
                    env: msg,
                });
                shard.queued += 1;
            } else {
                msg.complete_direct();
                let at = msg.dst;
                shard.post_sends[env.shard_of(at)].push(Keyed { key, at, env: msg });
            }
        }
    }
    for (dst, batch) in shard.post_sends.iter_mut().enumerate() {
        shared.sends.post(dst, shard.id, batch);
    }
}

/// Phase 3 absorb: push staged sends into destination inboxes in global
/// key order, check capacity, and publish this shard's step results.
fn absorb_sends<T: Topology, P: NodeProgram>(
    shard: &mut Shard<P>,
    env: &RunEnv<'_, T, P>,
    shared: &Shared<P::Msg>,
) {
    let sparse = !env.cfg.dense_stepping;
    shared.sends.collect_into(shard.id, &mut shard.mail_buf);
    {
        let Shard {
            nodes,
            inboxes,
            active,
            active_mask,
            overflow,
            mail_buf,
            queued,
            ..
        } = shard;
        *queued += mail_buf.len() as u64;
        for Keyed { key, env: msg, .. } in mail_buf.drain(..) {
            let li = env.local_of(msg.dst);
            inboxes[li].push_back(msg);
            if sparse && !active_mask[li] {
                active_mask[li] = true;
                active.push(li);
            }
            // The `is_none` guard keeps any phase-1 candidate: routed
            // arrivals carry earlier-step keys, so they are always below
            // this step's send keys — first-found is lowest-key.
            if let Some(cap) = env.cfg.queue_capacity {
                let len = inboxes[li].len();
                if len > cap && overflow.is_none() {
                    *overflow = Some((key, nodes[li], len));
                }
            }
        }
    }
    // Idleness only matters once nothing is queued anywhere (the
    // coordinator checks `queued == 0 && idle_all`), so — like the
    // sequential engine — skip the per-node scan while this shard still
    // holds messages.
    shard.idle = env.cfg.tick_every.is_none()
        || (shard.queued == 0
            && shard
                .states
                .iter()
                .map(|st| st.as_ref().expect("initialised"))
                .all(|st| env.program.is_idle(st)));
    let mut out = shared.step_outs[shard.id]
        .lock()
        .expect("step slot poisoned");
    *out = StepOut {
        delivered: shard.step_delivered,
        queued: shard.queued,
        halted: shard.halted,
        idle: shard.idle,
        overflow: shard.overflow.take(),
        panic: shard.panic.take(),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use crate::StopHandle;
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

    fn seq_run<T: Topology + Clone, P: NodeProgram + Clone>(
        topo: &T,
        program: &P,
        cfg: &SimConfig,
        injections: &[(NodeId, P::Msg)],
    ) -> (RunReport, Vec<P::State>, SimMetrics, Vec<TraceEvent>)
    where
        P::State: Clone,
    {
        let mut sim = Simulation::new(topo.clone(), program.clone(), cfg.clone());
        for (node, msg) in injections {
            sim.inject(*node, msg.clone());
        }
        let report = sim.run_to_quiescence().expect("sequential run");
        let trace = sim.trace().to_vec();
        let (states, metrics) = sim.into_parts();
        (report, states, metrics, trace)
    }

    fn sharded_run<T: Topology + Clone, P: NodeProgram + Clone>(
        topo: &T,
        program: &P,
        cfg: &SimConfig,
        scfg: ShardedConfig,
        injections: &[(NodeId, P::Msg)],
    ) -> (RunReport, Vec<P::State>, SimMetrics, Vec<TraceEvent>)
    where
        P::State: Clone,
    {
        let mut sim = ShardedSimulation::new(topo.clone(), program.clone(), cfg.clone(), scfg);
        for (node, msg) in injections {
            sim.inject(*node, msg.clone());
        }
        let report = sim.run_to_quiescence().expect("sharded run");
        let trace = sim.trace().to_vec();
        let (states, metrics) = sim.into_parts();
        (report, states, metrics, trace)
    }

    fn assert_equivalent<T: Topology + Clone, P: NodeProgram + Clone>(
        topo: T,
        program: P,
        cfg: SimConfig,
        injections: Vec<(NodeId, P::Msg)>,
    ) where
        P::State: Clone + std::fmt::Debug + PartialEq,
    {
        let cfg = SimConfig {
            record_trace: true,
            ..cfg
        };
        let (report_s, states_s, metrics_s, trace_s) = seq_run(&topo, &program, &cfg, &injections);
        for shards in [1usize, 2, 3, 7, 64] {
            for partition in [Partition::Block, Partition::RoundRobin] {
                for threads in [1usize, 3] {
                    let scfg = ShardedConfig {
                        shards,
                        partition,
                        threads: Some(threads),
                    };
                    let (report, states, metrics, trace) =
                        sharded_run(&topo, &program, &cfg, scfg, &injections);
                    let tag = format!("K={shards} {partition:?} T={threads}");
                    assert_eq!(report.outcome, report_s.outcome, "{tag}");
                    assert_eq!(report.steps, report_s.steps, "{tag}");
                    assert_eq!(report.computation_time, report_s.computation_time, "{tag}");
                    assert_eq!(states, states_s, "{tag}");
                    assert_eq!(
                        metrics.delivered_per_node, metrics_s.delivered_per_node,
                        "{tag}"
                    );
                    assert_eq!(metrics.sent_per_node, metrics_s.sent_per_node, "{tag}");
                    assert_eq!(
                        metrics.queued_series.as_slice(),
                        metrics_s.queued_series.as_slice(),
                        "{tag}"
                    );
                    assert_eq!(
                        metrics.delivered_series.as_slice(),
                        metrics_s.delivered_series.as_slice(),
                        "{tag}"
                    );
                    assert_eq!(metrics.hop_histogram, metrics_s.hop_histogram, "{tag}");
                    assert_eq!(metrics.total_sent, metrics_s.total_sent, "{tag}");
                    assert_eq!(metrics.total_delivered, metrics_s.total_delivered, "{tag}");
                    assert_eq!(
                        metrics.first_delivery_step, metrics_s.first_delivery_step,
                        "{tag}"
                    );
                    assert_eq!(
                        metrics.last_delivery_step, metrics_s.last_delivery_step,
                        "{tag}"
                    );
                    assert_eq!(trace, trace_s, "{tag}");
                }
            }
        }
    }

    #[test]
    fn partitioners_cover_all_nodes_exactly_once() {
        for partition in [Partition::Block, Partition::RoundRobin] {
            for (n, k) in [(10usize, 3usize), (7, 7), (5, 9), (16, 1), (1, 4)] {
                let mut seen = vec![0u32; n];
                for shard in 0..k {
                    let nodes = partition.nodes_of(shard, n, k);
                    assert!(nodes.windows(2).all(|w| w[0] < w[1]), "ascending");
                    for (li, &node) in nodes.iter().enumerate() {
                        seen[node as usize] += 1;
                        assert_eq!(partition.shard_of(node, n, k), shard, "{partition:?}");
                        assert_eq!(partition.local_of(node, n, k), li, "{partition:?}");
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "{partition:?} n={n} k={k}");
            }
        }
    }

    #[test]
    fn flood_fill_matches_sequential_bit_for_bit() {
        assert_equivalent(
            Torus::new_2d(6, 6),
            Traverse,
            SimConfig::default(),
            vec![(7, ())],
        );
    }

    #[test]
    fn hypercube_flood_matches_sequential() {
        assert_equivalent(
            Hypercube::new(5),
            Traverse,
            SimConfig::default(),
            vec![(17, ())],
        );
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
        let (report, _, metrics, _) =
            sharded_run(&Torus::new_2d(5, 5), &FarEcho, &cfg, scfg, &[(0, 3)]);
        assert_eq!(metrics.hop_histogram.count(), 4);
        assert_eq!(metrics.hop_histogram.sum(), 6);
        assert_eq!(report.steps, 7);
    }

    #[test]
    fn routed_transit_matches_sequential() {
        assert_equivalent(
            Torus::new_2d(5, 5),
            FarEcho,
            SimConfig {
                delivery: DeliveryModel::Routed,
                ..SimConfig::default()
            },
            vec![(0, 9), (13, 11)],
        );
    }

    #[test]
    fn wide_budget_matches_sequential() {
        assert_equivalent(
            Ring::new(9),
            Traverse,
            SimConfig {
                msgs_per_step: 3,
                ..SimConfig::default()
            },
            vec![(4, ())],
        );
    }

    /// Tick-driven counter: exercises the on_tick / is_idle path.
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

    #[test]
    fn tick_hooks_match_sequential() {
        assert_equivalent(
            Torus::new_2d(4, 4),
            Ticker,
            SimConfig {
                tick_every: Some(2),
                ..SimConfig::default()
            },
            vec![],
        );
    }

    #[test]
    fn queue_overflow_error_matches_sequential() {
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
        let cfg = SimConfig {
            queue_capacity: Some(4),
            ..SimConfig::default()
        };
        let mut seq = Simulation::new(Ring::new(4), Flood, cfg.clone());
        seq.inject(0, ());
        let seq_err = seq.run_to_quiescence().unwrap_err();
        for shards in [1usize, 2, 4] {
            let mut sim = ShardedSimulation::new(
                Ring::new(4),
                Flood,
                cfg.clone(),
                ShardedConfig {
                    shards,
                    partition: Partition::RoundRobin,
                    threads: Some(2),
                },
            );
            sim.inject(0, ());
            let err = sim.run_to_quiescence().unwrap_err();
            assert_eq!(err, seq_err, "K={shards}");
        }
    }

    #[test]
    fn routed_arrival_overflow_matches_sequential() {
        // Non-adjacent senders flood node 0 through the transit queue:
        // the overflow fires on the phase-1 arrival path, and every
        // shard count must report the sequential engine's exact error.
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
        let cfg = SimConfig {
            delivery: DeliveryModel::Routed,
            queue_capacity: Some(3),
            ..SimConfig::default()
        };
        let injections: Vec<(NodeId, ())> = vec![(4, ()), (5, ()), (6, ()), (7, ())];
        let mut seq = Simulation::new(Ring::new(12), FarFlood, cfg.clone());
        for &(node, msg) in &injections {
            seq.inject(node, msg);
        }
        let seq_err = seq.run_to_quiescence().unwrap_err();
        assert!(matches!(seq_err, SimError::QueueOverflow { node: 0, .. }));
        for shards in [1usize, 2, 5] {
            for partition in [Partition::Block, Partition::RoundRobin] {
                let mut sim = ShardedSimulation::new(
                    Ring::new(12),
                    FarFlood,
                    cfg.clone(),
                    ShardedConfig {
                        shards,
                        partition,
                        threads: Some(2),
                    },
                );
                for &(node, msg) in &injections {
                    sim.inject(node, msg);
                }
                let err = sim.run_to_quiescence().unwrap_err();
                assert_eq!(err, seq_err, "K={shards} {partition:?}");
            }
        }
    }

    #[test]
    fn dense_stepping_matches_sequential() {
        // The dense baseline must stay bit-identical across backends
        // too — it is the reference the active set is judged against.
        assert_equivalent(
            Torus::new_2d(6, 6),
            Traverse,
            SimConfig {
                dense_stepping: true,
                ..SimConfig::default()
            },
            vec![(7, ())],
        );
    }

    #[test]
    fn dense_and_active_set_sharded_runs_are_bit_identical() {
        // Direct sparse-vs-dense comparison on the sharded backend,
        // with ticks and routed traffic in play.
        let run = |dense_stepping| {
            let cfg = SimConfig {
                delivery: DeliveryModel::Routed,
                tick_every: Some(3),
                dense_stepping,
                record_trace: true,
                ..SimConfig::default()
            };
            let scfg = ShardedConfig {
                shards: 3,
                partition: Partition::Block,
                threads: Some(3),
            };
            sharded_run(&Ring::new(10), &Ticker, &cfg, scfg, &[(2, ())])
        };
        let (report_a, states_a, metrics_a, trace_a) = run(false);
        let (report_d, states_d, metrics_d, trace_d) = run(true);
        assert_eq!(report_a.outcome, report_d.outcome);
        assert_eq!(report_a.steps, report_d.steps);
        assert_eq!(states_a, states_d);
        assert_eq!(
            metrics_a.queued_series.as_slice(),
            metrics_d.queued_series.as_slice()
        );
        assert_eq!(metrics_a.total_delivered, metrics_d.total_delivered);
        assert_eq!(trace_a, trace_d);
    }

    #[test]
    fn halt_and_resume_semantics_match_sequential() {
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
        // not flip the outcome (mirrors the sequential engine's test).
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

    #[test]
    fn max_steps_cap_matches_sequential() {
        let cfg = SimConfig {
            max_steps: 3,
            ..SimConfig::default()
        };
        let mut seq = Simulation::new(Torus::new_2d(6, 6), Traverse, cfg.clone());
        seq.inject(0, ());
        let seq_report = seq.run_to_quiescence().unwrap();
        assert_eq!(seq_report.outcome, RunOutcome::MaxSteps);
        let mut sim = ShardedSimulation::new(
            Torus::new_2d(6, 6),
            Traverse,
            cfg,
            ShardedConfig::with_shards(5),
        );
        sim.inject(0, ());
        let report = sim.run_to_quiescence().unwrap();
        assert_eq!(report.outcome, RunOutcome::MaxSteps);
        assert_eq!(report.steps, seq_report.steps);
        assert_eq!(sim.queued(), seq.queued());
    }

    #[test]
    fn panicking_handler_surfaces_error_not_deadlock() {
        #[derive(Clone)]
        struct PanicAt(NodeId);
        impl NodeProgram for PanicAt {
            type Msg = ();
            type State = bool;
            fn init(&self, _n: NodeId, _c: &InitCtx) -> bool {
                false
            }
            fn on_message(&self, visited: &mut bool, _m: (), ctx: &mut Outbox<'_, ()>) {
                if ctx.node() == self.0 {
                    panic!("injected fault at node {}", self.0);
                }
                if !*visited {
                    *visited = true;
                    ctx.broadcast(());
                }
            }
        }
        let mut sim = ShardedSimulation::new(
            Torus::new_2d(6, 6),
            PanicAt(20),
            SimConfig::default(),
            ShardedConfig {
                shards: 4,
                partition: Partition::Block,
                threads: Some(4),
            },
        );
        sim.inject(0, ());
        let err = sim.run_to_quiescence().unwrap_err();
        match err {
            SimError::HandlerPanic {
                node,
                step,
                message,
            } => {
                assert_eq!(node, 20);
                assert!(step > 0);
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected HandlerPanic, got {other:?}"),
        }
    }

    #[test]
    fn resuming_after_a_handler_panic_keeps_accounting_consistent() {
        // Nodes 20..24 share a block shard with the panicker; their
        // popped-but-unprocessed batches must not corrupt the queued
        // counter (or trip the empty-batch invariant) on a later run.
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
        let mut sim = ShardedSimulation::new(
            Torus::new_2d(6, 6),
            PanicOnce(20),
            SimConfig::default(),
            ShardedConfig {
                shards: 4,
                partition: Partition::Block,
                threads: Some(2),
            },
        );
        sim.inject(0, ());
        let err = sim.run_to_quiescence().unwrap_err();
        assert!(matches!(err, SimError::HandlerPanic { node: 20, .. }));
        let queued_after_fault = sim.queued();
        assert!(queued_after_fault < 1_000, "no counter underflow");
        // The program only panics on the node's first message; resuming
        // drains the rest of the flood without tripping any invariant.
        let report = sim.run_to_quiescence().expect("resume completes");
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        assert_eq!(sim.queued(), 0);
        assert!(report.steps > 0);
    }

    #[test]
    fn more_shards_than_nodes_is_fine() {
        assert_equivalent(Ring::new(3), Traverse, SimConfig::default(), vec![(1, ())]);
    }

    #[test]
    fn checkpoints_are_byte_identical_across_backends() {
        // At every cut point, the sequential engine and every sharded
        // configuration must emit the *same bytes* — the canonical
        // format is a pure function of the logical state.
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
            for shards in [1usize, 2, 7] {
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
    fn checkpoints_restore_across_backends() {
        // Snapshot a sequential run mid-flight and resume it sharded —
        // and re-shard a sharded checkpoint under a different K — with
        // bit-identical final results.
        let cfg = SimConfig {
            record_trace: true,
            delivery: DeliveryModel::Routed,
            ..SimConfig::default()
        };
        let (ref_report, ref_states, ref_metrics, ref_trace) =
            seq_run(&Torus::new_2d(5, 5), &FarEcho, &cfg, &[(0, 9), (13, 11)]);

        let mut seq = Simulation::new(Torus::new_2d(5, 5), FarEcho, cfg.clone());
        seq.inject(0, 9);
        seq.inject(13, 11);
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
            let report = resumed.run_to_quiescence().unwrap();
            assert_eq!(report.outcome, ref_report.outcome, "K={shards}");
            assert_eq!(report.steps, ref_report.steps, "K={shards}");
            assert_eq!(resumed.trace(), ref_trace.as_slice(), "K={shards}");
            // Re-shard this sharded run's own checkpoint under another K
            // and hand it back to the sequential engine.
            let mid = resumed.snapshot();
            let mut seq_resumed =
                Simulation::restore(Torus::new_2d(5, 5), FarEcho, cfg.clone(), &mid)
                    .expect("sharded checkpoint restores sequentially");
            seq_resumed.run_to_quiescence().unwrap();
            let (states, metrics) = resumed.into_parts();
            assert_eq!(&states, &ref_states, "K={shards}");
            assert_eq!(
                metrics.delivered_per_node, ref_metrics.delivered_per_node,
                "K={shards}"
            );
            assert_eq!(
                metrics.hop_histogram, ref_metrics.hop_histogram,
                "K={shards}"
            );
            assert_eq!(
                metrics.queued_series.as_slice(),
                ref_metrics.queued_series.as_slice(),
                "K={shards}"
            );
            assert_eq!(seq_resumed.states(), ref_states.as_slice(), "K={shards}");
        }
    }

    #[test]
    fn crash_restore_finishes_the_run_identically() {
        // A worker dies mid-run (simulated by dropping the simulation);
        // the job restarts from its last checkpoint and the final report
        // is indistinguishable from an uninterrupted run.
        let cfg = SimConfig::default();
        let (ref_report, ref_states, ref_metrics, _) =
            seq_run(&Torus::new_2d(6, 6), &Traverse, &cfg, &[(7, ())]);
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
        assert_eq!(report.outcome, ref_report.outcome);
        assert_eq!(report.steps, ref_report.steps);
        let (states, metrics) = recovered.into_parts();
        assert_eq!(states, ref_states);
        assert_eq!(metrics.delivered_per_node, ref_metrics.delivered_per_node);
        assert_eq!(metrics.total_sent, ref_metrics.total_sent);
    }
}
