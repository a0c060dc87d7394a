//! The step kernel: one [`Shard`] of the machine and its fixed phase
//! order (paper §IV-A, §V-A).
//!
//! A shard owns a slice of the nodes — their states, inboxes, staged
//! sends and the routed messages currently positioned on them — and
//! executes a simulated step in four calls, always in this order:
//!
//! 1. [`Shard::hop`] (routed delivery only): every in-flight message
//!    advances one link along its deterministic minimal route;
//! 2. [`Shard::absorb_hop`]: arrivals join their destination inbox,
//!    messages whose position moved shards join the local transit queue;
//! 3. [`Shard::run`]: every node of the work list takes up to
//!    `msgs_per_step` messages (the paper takes exactly one): a delivery
//!    pass counts and records them in place, then each node's handler
//!    pops them straight from its inbox and runs the program's `receive`
//!    on each, staging sends in one shard-wide buffer that is then keyed
//!    and addressed;
//! 4. [`Shard::absorb_sends`]: sends join their destination inbox,
//!    visible from the next step on.
//!
//! A delivered envelope is moved twice: from the staging buffer into an
//! inbox, and from the inbox into its handler.
//!
//! Between a producing call and its absorb the driver (see
//! [`crate::sharded`]) carries every `out[d]` buffer to shard `d`'s
//! `mail`. Everything that touches a queue does so in ascending
//! [`Key`] order — `(step, sender, emission index)`, the order one big
//! queue would have seen — so a run is bit-identical for every shard
//! count and partition. A machine with a single shard has nobody to
//! exchange with: its sends and arrivals are produced in key order
//! already and go straight into the inboxes.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use hyperspace_obs::Phase;
use hyperspace_topology::{Csr, NodeId, Topology};

use crate::checkpoint::TransitKey;
use crate::engine::{DeliveryModel, SimConfig};
use crate::envelope::Envelope;
use crate::program::{NodeProgram, Outbox};
use crate::record::{SimMetrics, TraceEvent, TraceKind};

/// Exchange-ordering key: `(enqueue step, sender, emission index)` —
/// the machine's global delivery order, and the checkpoint format's
/// transit key.
pub(crate) type Key = TransitKey;

/// An envelope tagged with its ordering key and its current mesh
/// position (the destination itself once it has arrived).
pub(crate) struct Keyed<M> {
    pub(crate) key: Key,
    pub(crate) at: NodeId,
    pub(crate) env: Envelope<M>,
}

/// Read-only run context shared by every shard.
pub(crate) struct Env<'a, T, P> {
    pub(crate) topo: &'a T,
    pub(crate) program: &'a P,
    pub(crate) csr: &'a Csr,
    pub(crate) cfg: &'a SimConfig,
    /// `(shard, local index)` of every node.
    pub(crate) home: &'a [(usize, usize)],
}

/// What one shard reports about one step; folded over shards (and over
/// worker threads) with [`StepOut::merge`].
#[derive(Default)]
pub(crate) struct StepOut {
    pub(crate) delivered: u64,
    /// Messages resident in the shard after the step (inboxes + transit).
    pub(crate) queued: u64,
    pub(crate) halted: bool,
    /// Some node is not idle; only meaningful while `queued == 0`.
    pub(crate) busy: bool,
    /// Lowest-key capacity violation: `(key, node, inbox length)`.
    pub(crate) overflow: Option<(Key, NodeId, usize)>,
    /// Lowest-node handler panic with its payload.
    pub(crate) panic: Option<(NodeId, Box<dyn Any + Send>)>,
}

impl StepOut {
    /// Folds another report in, keeping the canonical winners: the
    /// overflow with the lowest delivery key, the panic of the lowest
    /// node.
    pub(crate) fn merge(&mut self, other: StepOut) {
        self.delivered += other.delivered;
        self.queued += other.queued;
        self.halted |= other.halted;
        self.busy |= other.busy;
        if let Some(cand) = other.overflow {
            if self.overflow.as_ref().is_none_or(|best| cand.0 < best.0) {
                self.overflow = Some(cand);
            }
        }
        if let Some(cand) = other.panic {
            if self.panic.as_ref().is_none_or(|best| cand.0 < best.0) {
                self.panic = Some(cand);
            }
        }
    }
}

/// A set of local indices as a two-level bitmap: bit `li` of `words`,
/// and bit `w` of `summary` for every non-zero `words[w]`. Inserting is
/// two idempotent ORs; draining visits only the non-zero words and
/// yields the members in ascending order, so the work list needs no
/// sort — a step costs O(summary words + non-empty words + members),
/// not O(k log k), and a summary word covers 4,096 indices.
struct ActiveSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl ActiveSet {
    /// An empty set over local indices `0..len`.
    fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        ActiveSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    // Plain `#[inline]`: `inline(always)` on `insert` and `drain_into`
    // read ~1 % faster on `l1_dense` but ~1 % slower on `l1_sparse`.
    /// Adds `li` (idempotent).
    #[inline]
    fn insert(&mut self, li: usize) {
        let w = li / 64;
        self.words[w] |= 1 << (li % 64);
        self.summary[w / 64] |= 1 << (w % 64);
    }

    /// Appends every member to `out` in ascending order and leaves the
    /// set empty.
    #[inline]
    fn drain_into(&mut self, out: &mut Vec<usize>) {
        let ActiveSet { words, summary } = self;
        for (si, flags) in summary.iter_mut().enumerate() {
            let mut flags = std::mem::take(flags);
            while flags != 0 {
                let w = si * 64 + flags.trailing_zeros() as usize;
                flags &= flags - 1;
                let mut bits = std::mem::take(&mut words[w]);
                while bits != 0 {
                    out.push(w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Empties the set.
    fn clear(&mut self) {
        self.words.fill(0);
        self.summary.fill(0);
    }
}

/// A shard's inboxes with the event-driven active set derived from
/// them — one structure, so that a message can only enter an inbox
/// through [`Inboxes::push`].
pub(crate) struct Inboxes<M> {
    pub(crate) queues: Vec<VecDeque<Envelope<M>>>,
    /// The longest each queue grew this run, as the delivery pass saw it
    /// (a queue only grows between delivery passes).
    peaks: Vec<u32>,
    /// Messages held in all queues.
    held: u64,
    /// Local indices with pending deliveries. Derived state — never
    /// checkpointed, rebuilt from queue occupancy.
    active: ActiveSet,
    /// The step's lowest-key capacity violation so far.
    overflow: Option<(Key, NodeId, usize)>,
}

impl<M> Inboxes<M> {
    /// Appends `msg` to local inbox `li` (of node `msg.dst`): wakes the
    /// node and checks the capacity bound. Callers push in ascending key
    /// order (arrivals of a step carry earlier-step keys than its
    /// sends), so the first violation found is the lowest-key one.
    #[inline]
    pub(crate) fn push(&mut self, capacity: Option<usize>, li: usize, key: Key, msg: Envelope<M>) {
        let node = msg.dst;
        let queue = &mut self.queues[li];
        queue.push_back(msg);
        if let Some(cap) = capacity {
            if queue.len() > cap && self.overflow.is_none() {
                self.overflow = Some((key, node, queue.len()));
            }
        }
        self.held += 1;
        self.active.insert(li);
    }

    /// Installs a restored queue; the active set follows its occupancy.
    pub(crate) fn restore(&mut self, li: usize, queue: VecDeque<Envelope<M>>) {
        self.held += queue.len() as u64;
        if !queue.is_empty() {
            self.active.insert(li);
        }
        self.queues[li] = queue;
    }
}

/// The nodes a shard owns: the arithmetic progression `first + li *
/// stride` over its local indices `li` (stride 1 for a block, K for a
/// stripe).
#[derive(Clone, Copy)]
struct Span {
    first: NodeId,
    stride: NodeId,
}

impl Span {
    #[inline]
    fn node(self, li: usize) -> NodeId {
        self.first + li as NodeId * self.stride
    }
}

/// One shard: a slice of the machine's state plus its own queues and
/// instrumentation.
pub(crate) struct Shard<P: NodeProgram> {
    pub(crate) id: usize,
    span: Span,
    pub(crate) states: Vec<P::State>,
    pub(crate) inboxes: Inboxes<P::Msg>,
    /// This step's sends, recycled across steps. Handlers run in
    /// ascending node order, so the buffer is in `(sender, emission)`
    /// order — the key order the send pass needs.
    sends: Vec<Envelope<P::Msg>>,
    /// Routed in-flight messages positioned in this shard, sorted by key
    /// (survivors keep their relative order, new entries enqueue with
    /// strictly larger keys).
    pub(crate) transit: Vec<Keyed<P::Msg>>,
    /// The drained half of the transit double buffer.
    survivors: Vec<Keyed<P::Msg>>,
    /// This step's work list in ascending local index (the drained
    /// active set, or every node on a tick step); recycled across steps.
    work: Vec<usize>,
    /// Outgoing mail by destination shard. `out[id]` is this shard's
    /// traffic to itself: it never leaves, and is merged with the
    /// incoming mail by key.
    pub(crate) out: Vec<Vec<Keyed<P::Msg>>>,
    /// Incoming mail, filled by the driver between produce and absorb.
    pub(crate) mail: Vec<Keyed<P::Msg>>,
    /// Position in `work` of the node whose handlers are running.
    cursor: usize,
    /// Messages that node still has to pop this step: counted as
    /// delivered already, and dropped if its handler panics.
    to_pop: usize,
    /// This step's deliveries, halt request and lowest-node handler
    /// panic, reported by [`Shard::finish`].
    delivered: u64,
    halted: bool,
    panic: Option<(NodeId, Box<dyn Any + Send>)>,
    /// Deliveries by hop count for counts below 64, not yet in
    /// `metrics.hop_histogram` (see [`Shard::fold_hops`]).
    hops: [u64; 64],
    pub(crate) metrics: SimMetrics,
    pub(crate) trace: Vec<TraceEvent>,
}

impl<P: NodeProgram> Shard<P> {
    /// An empty shard `id` of `shards`, owning the ascending progression
    /// `nodes` (states are pushed by the machine in node order).
    pub(crate) fn new(id: usize, shards: usize, nodes: &[NodeId]) -> Self {
        let len = nodes.len();
        let first = nodes.first().copied().unwrap_or(0);
        let stride = nodes.get(1).map_or(1, |second| second - first);
        let span = Span { first, stride };
        debug_assert!((0..len).all(|li| nodes[li] == span.node(li)));
        Shard {
            id,
            span,
            states: Vec::with_capacity(len),
            inboxes: Inboxes {
                queues: (0..len).map(|_| VecDeque::new()).collect(),
                peaks: vec![0; len],
                held: 0,
                active: ActiveSet::new(len),
                overflow: None,
            },
            sends: Vec::new(),
            transit: Vec::new(),
            survivors: Vec::new(),
            work: Vec::new(),
            out: (0..shards).map(|_| Vec::new()).collect(),
            mail: Vec::new(),
            cursor: 0,
            to_pop: 0,
            delivered: 0,
            halted: false,
            panic: None,
            hops: [0; 64],
            metrics: SimMetrics::default(),
            trace: Vec::new(),
        }
    }

    /// Sizes each inbox for a new run: one the last run left more than
    /// half idle shrinks to that run's longest queue, so that a recycled
    /// machine keeps about the room a fresh one grows.
    pub(crate) fn fit_inboxes(&mut self) {
        let inboxes = &mut self.inboxes;
        for (queue, peak) in inboxes.queues.iter_mut().zip(&mut inboxes.peaks) {
            let peak = std::mem::take(peak) as usize;
            if queue.capacity() > 2 * peak {
                queue.shrink_to(peak);
            }
        }
    }

    /// Empties every queue and buffer of the shard and its per-step
    /// report, keeping their capacity: queued envelopes are dropped, and
    /// the metrics and trace start over. Node states are the machine's
    /// to re-initialise.
    pub(crate) fn clear(&mut self) {
        let inboxes = &mut self.inboxes;
        inboxes.queues.iter_mut().for_each(VecDeque::clear);
        inboxes.held = 0;
        inboxes.active.clear();
        inboxes.overflow = None;
        self.sends.clear();
        self.transit.clear();
        self.survivors.clear();
        self.work.clear();
        self.out.iter_mut().for_each(Vec::clear);
        self.mail.clear();
        self.cursor = 0;
        self.to_pop = 0;
        self.delivered = 0;
        self.halted = false;
        self.panic = None;
        self.hops = [0; 64];
        self.metrics = SimMetrics::default();
        self.trace.clear();
    }

    /// Whether this is the machine's only shard: nothing arrives from
    /// elsewhere, so its traffic needs no merge — and local indices are
    /// node ids.
    pub(crate) fn alone(&self) -> bool {
        self.out.len() == 1
    }

    /// Messages resident in this shard (inboxes + transit).
    pub(crate) fn queued(&self) -> u64 {
        self.inboxes.held + self.transit.len() as u64
    }

    /// Moves the hop tally into `metrics.hop_histogram`. The delivery
    /// pass counts a hop below 64 with one add; the driver folds the
    /// tally in before anyone reads the metrics.
    pub(crate) fn fold_hops(&mut self) {
        let histogram = &mut self.metrics.hop_histogram;
        for (hops, count) in self.hops.iter_mut().enumerate() {
            histogram.record_n(hops as u64, std::mem::take(count));
        }
    }

    /// Phase 1 (routed delivery only): advance this shard's in-flight
    /// messages one hop. Survivors still positioned here stay in
    /// transit; arrivals and shard-crossing survivors are addressed to
    /// their new shard.
    pub(crate) fn hop<T: Topology>(&mut self, env: &Env<'_, T, P>) {
        let alone = self.alone();
        for mut msg in self.transit.drain(..) {
            let next = env.topo.next_hop(msg.at, msg.env.dst);
            if next != msg.at {
                msg.env.advance_hop();
            }
            msg.at = next;
            let (shard, li) = env.home[next as usize];
            if next != msg.env.dst && shard == self.id {
                self.survivors.push(msg);
            } else if alone {
                self.inboxes
                    .push(env.cfg.queue_capacity, li, msg.key, msg.env);
            } else {
                self.out[shard].push(msg);
            }
        }
        // Survivors become the new transit queue; the drained old vector
        // becomes next step's survivor buffer — no allocation either way.
        std::mem::swap(&mut self.transit, &mut self.survivors);
    }

    /// Puts this shard's own traffic behind the mail it received and
    /// restores global key order (every contribution is already sorted,
    /// so this is a merge; a sort keeps the code obvious and the result
    /// identical).
    fn gather(&mut self) {
        self.mail.append(&mut self.out[self.id]);
        self.mail.sort_by_key(|msg| msg.key);
    }

    /// Phase 1 absorb: arrivals into inboxes, migrated messages into the
    /// local transit queue, both in global key order.
    pub(crate) fn absorb_hop<T>(&mut self, env: &Env<'_, T, P>) {
        self.gather();
        let resident = self.transit.len();
        for msg in self.mail.drain(..) {
            if msg.at == msg.env.dst {
                let (_, li) = env.home[msg.at as usize];
                self.inboxes
                    .push(env.cfg.queue_capacity, li, msg.key, msg.env);
            } else {
                self.transit.push(msg);
            }
        }
        if self.transit.len() > resident {
            self.transit.sort_by_key(|msg| msg.key);
        }
    }

    /// Phases 2 and 3 (local half): count and record this step's
    /// deliveries, run the handlers over the work list (containing
    /// panics), then key and address the staged sends.
    pub(crate) fn run<T: Topology>(&mut self, env: &Env<'_, T, P>, step: u64) {
        let cfg = env.cfg;
        let span = self.span;
        // Phase-attributed profiling: `None` (one branch, no clock
        // reads) unless an observer is attached and this step lands on
        // the sampling grid.
        let mut clock = cfg.obs.phase_clock(self.id, step);
        let tick = matches!(cfg.tick_every, Some(k) if k > 0 && step.is_multiple_of(k));

        // Build this step's work list in ascending node order: everyone
        // on tick steps, otherwise exactly the active set, which drains
        // in order. Nodes outside it have empty inboxes and nothing to
        // run — skipping them is unobservable.
        let inboxes = &mut self.inboxes;
        self.work.clear();
        if tick {
            self.work.extend(0..self.states.len());
            // Pending marks are subsumed and re-derived from inbox
            // occupancy below.
            inboxes.active.clear();
        } else {
            inboxes.active.drain_into(&mut self.work);
        }

        // The delivery pass: a node takes the first `take` messages of
        // its inbox. They are counted and recorded where they lie; its
        // handlers pop exactly that many.
        let budget = cfg.msgs_per_step as usize;
        let mut delivered = 0u64;
        for &li in &self.work {
            let queue = &inboxes.queues[li];
            let peak = &mut inboxes.peaks[li];
            *peak = (*peak).max(queue.len() as u32);
            let take = queue.len().min(budget);
            for msg in queue.range(..take) {
                match self.hops.get_mut(msg.hops as usize) {
                    Some(count) => *count += 1,
                    None => self.metrics.hop_histogram.record(msg.hops as u64),
                }
                if cfg.record_trace {
                    self.trace.push(TraceEvent {
                        step,
                        kind: TraceKind::Deliver,
                        src: msg.src,
                        dst: msg.dst,
                        hops: msg.hops,
                    });
                }
            }
            delivered += take as u64;
            if cfg.record_node_activity {
                self.metrics.delivered_per_node[span.node(li) as usize] += take as u64;
            }
            // The set was drained (or cleared) above: a worked node
            // stays active iff its inbox keeps a backlog.
            if queue.len() > take {
                inboxes.active.insert(li);
            }
        }
        inboxes.held -= delivered;
        self.delivered = delivered;
        if delivered > 0 {
            self.metrics.first_delivery_step.get_or_insert(step);
            self.metrics.last_delivery_step = Some(step);
            self.metrics.total_delivered += delivered;
        }
        if let Some(clock) = clock.as_mut() {
            clock.lap(Phase::Delivery);
        }

        self.halted = false;
        self.run_handlers(env, step, tick);
        if let Some(clock) = clock.as_mut() {
            clock.lap(Phase::Handler);
        }

        // Phase 3, local half: sends leave in (sender, emission) order,
        // the buffer's order; the emission index restarts per sender.
        let alone = self.alone();
        let (mut sender, mut emission) = (None, 0u32);
        for mut msg in self.sends.drain(..) {
            let src = msg.src;
            emission = if sender == Some(src) { emission + 1 } else { 0 };
            sender = Some(src);
            if cfg.record_trace {
                self.trace.push(TraceEvent {
                    step,
                    kind: TraceKind::Send,
                    src,
                    dst: msg.dst,
                    hops: 0,
                });
            }
            if cfg.record_node_activity {
                self.metrics.sent_per_node[src as usize] += 1;
            }
            self.metrics.total_sent += 1;
            let key: Key = (step, src, emission);
            // Self-loopback sends never enter the NoC: they are
            // local-queue moves (zero links), not routed traffic.
            if cfg.delivery == DeliveryModel::Routed
                && src != msg.dst
                && !env.csr.are_adjacent(src, msg.dst)
            {
                // Enters the NoC at the sender's position — owned by
                // this shard, keyed above everything in transit.
                self.transit.push(Keyed {
                    key,
                    at: src,
                    env: msg,
                });
            } else {
                msg.complete_direct();
                let at = msg.dst;
                if alone {
                    self.inboxes.push(cfg.queue_capacity, at as usize, key, msg);
                } else {
                    self.out[env.home[at as usize].0].push(Keyed { key, at, env: msg });
                }
            }
        }
        if let Some(clock) = clock.as_mut() {
            // Addressing the staged fan-out is delivery work too; the
            // work list is the shard's load signal.
            clock.lap(Phase::Delivery);
            cfg.obs.on_shard_active(self.id, self.work.len() as u64);
        }
    }

    /// Runs the handlers over the work list. A panicking handler costs
    /// only its own node the rest of its step: its remaining messages
    /// (already counted as delivered) are dropped, its node and payload
    /// go into the step report — the first one, which is the lowest
    /// node — and every later node still runs. So the machine's state
    /// after a fault is the same for every sharding, and sibling shards
    /// finish the step instead of waiting at a barrier forever.
    fn run_handlers<T>(&mut self, env: &Env<'_, T, P>, step: u64, tick: bool) {
        let mut from = 0;
        while let Err(payload) =
            catch_unwind(AssertUnwindSafe(|| self.handle(env, step, tick, from)))
        {
            let li = self.work[self.cursor];
            self.inboxes.queues[li].drain(..self.to_pop);
            self.to_pop = 0;
            self.panic.get_or_insert((self.span.node(li), payload));
            from = self.cursor + 1;
        }
    }

    /// Serves the work list from position `from` on: each node pops the
    /// messages the delivery pass counted for it and runs `on_message`
    /// on each (then `on_tick` on tick steps), with `cursor` on the node
    /// being served and `to_pop` its messages still to pop.
    fn handle<T>(&mut self, env: &Env<'_, T, P>, step: u64, tick: bool, from: usize) {
        let budget = env.cfg.msgs_per_step as usize;
        for (wi, &li) in self.work.iter().enumerate().skip(from) {
            self.cursor = wi;
            let node = self.span.node(li);
            let state = &mut self.states[li];
            let queue = &mut self.inboxes.queues[li];
            let mut outbox = Outbox {
                node,
                step,
                src: node,
                hops: 0,
                neighbours: env.csr.neighbours(node),
                topo_nodes: env.home.len(),
                adjacent_only: env.cfg.delivery == DeliveryModel::AdjacentOnly,
                base: 0,
                staged: &mut self.sends,
                halt: &mut self.halted,
            };
            self.to_pop = queue.len().min(budget);
            while self.to_pop > 0 {
                self.to_pop -= 1;
                let msg = queue.pop_front().expect("the delivery pass counted it");
                (outbox.src, outbox.hops) = (msg.src, msg.hops);
                outbox.base = outbox.staged.len();
                env.program.on_message(state, msg.payload, &mut outbox);
            }
            if tick {
                (outbox.src, outbox.hops) = (node, 0);
                outbox.base = outbox.staged.len();
                env.program.on_tick(state, &mut outbox);
            }
        }
    }

    /// Phase 3 absorb: sends into destination inboxes in global key
    /// order.
    pub(crate) fn absorb_sends<T>(&mut self, env: &Env<'_, T, P>) {
        self.gather();
        for msg in self.mail.drain(..) {
            let (_, li) = env.home[msg.at as usize];
            self.inboxes
                .push(env.cfg.queue_capacity, li, msg.key, msg.env);
        }
    }

    /// Whether every node of this shard reports idle. Only matters once
    /// nothing is queued anywhere, so the per-node scan is skipped while
    /// the shard still holds messages.
    pub(crate) fn idle(&self, program: &P, cfg: &SimConfig) -> bool {
        cfg.tick_every.is_none()
            || (self.queued() == 0 && self.states.iter().all(|state| program.is_idle(state)))
    }

    /// Closes the step: folds this shard's results into `out` (field by
    /// field — a `StepOut` built per shard per step shows in the
    /// sparse-torus profile).
    pub(crate) fn finish<T>(&mut self, env: &Env<'_, T, P>, out: &mut StepOut) {
        out.delivered += self.delivered;
        out.queued += self.queued();
        out.halted |= self.halted;
        out.busy |= !self.idle(env.program, env.cfg);
        if self.inboxes.overflow.is_some() || self.panic.is_some() {
            out.merge(StepOut {
                overflow: self.inboxes.overflow.take(),
                panic: self.panic.take(),
                ..StepOut::default()
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ActiveSet;
    use std::collections::BTreeSet;

    /// Lengths around one word and one summary word (64 × 64 indices).
    const LENS: [usize; 8] = [1, 63, 64, 65, 4095, 4096, 4097, 70_000];

    fn drain(set: &mut ActiveSet) -> Vec<usize> {
        let mut out = Vec::new();
        set.drain_into(&mut out);
        out
    }

    #[test]
    fn random_inserts_drain_ascending_and_deduplicated() {
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng as usize % bound
        };
        for len in LENS {
            let mut set = ActiveSet::new(len);
            // Few, many and far more inserts than members, with
            // duplicates and both ends of the range, reusing one set.
            for inserts in [1, len / 3 + 1, 3 * len] {
                let mut oracle = BTreeSet::from([0, len - 1]);
                set.insert(0);
                set.insert(len - 1);
                for _ in 0..inserts {
                    let li = next(len);
                    set.insert(li);
                    set.insert(li);
                    oracle.insert(li);
                }
                let got = drain(&mut set);
                assert_eq!(got, oracle.into_iter().collect::<Vec<_>>(), "len {len}");
                assert!(
                    drain(&mut set).is_empty(),
                    "len {len}: a drain empties the set"
                );
            }
        }
    }

    #[test]
    fn clear_empties_the_set() {
        for len in LENS {
            let mut set = ActiveSet::new(len);
            for li in (0..len).step_by(61) {
                set.insert(li);
            }
            set.insert(len - 1);
            set.clear();
            assert!(drain(&mut set).is_empty(), "len {len}");
            set.insert(len / 2);
            assert_eq!(drain(&mut set), [len / 2], "len {len}");
        }
    }
}
