//! [`SchedulerHost`]: the layer-1 program that multiplexes processes.

use std::collections::VecDeque;
use std::marker::PhantomData;

use hyperspace_sim::{InitCtx, NodeId, NodeProgram, Outbox};

use crate::policy::SchedPolicy;
use crate::process::{ProcAddr, ProcCtx, Process};

/// Safety cap on process activations per host invocation; hitting it means
/// two local processes are ping-ponging messages without ever yielding,
/// which is a program bug (local livelock).
const LOCAL_ACTIVATION_CAP: u32 = 65_536;

/// Layer-1 payload carrying a process-addressed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedMsg<M> {
    /// Sending process id on the source node.
    pub src_proc: u32,
    /// Destination process id on the destination node.
    pub dst_proc: u32,
    /// Application payload.
    pub inner: M,
}

/// Node-local bookkeeping action recorded during a handler run and applied
/// when it returns.
pub(crate) enum LocalAction<M> {
    /// Deliver a message to a local mailbox.
    Deliver(u32, ProcAddr, M),
    /// Remove the process.
    Exit(u32),
}

/// Per-node scheduler state: the process table and mailboxes.
pub struct NodeSched<P: Process> {
    slots: Vec<Option<Box<P>>>,
    mailboxes: Vec<VecDeque<(ProcAddr, P::Msg)>>,
    /// Arrival-ordered queue of (proc, src, msg) used by the FIFO policy.
    fifo: VecDeque<(u32, ProcAddr, P::Msg)>,
    rr_cursor: usize,
    next_proc_id: u32,
    /// Messages dropped because their target process had exited.
    pub dropped: u64,
    /// Handler activations executed on this node.
    pub serviced: u64,
}

impl<P: Process> NodeSched<P> {
    fn new(initial: Vec<P>) -> Self {
        let n = initial.len();
        NodeSched {
            slots: initial.into_iter().map(|p| Some(Box::new(p))).collect(),
            mailboxes: (0..n).map(|_| VecDeque::new()).collect(),
            fifo: VecDeque::new(),
            rr_cursor: 0,
            next_proc_id: n as u32,
            dropped: 0,
            serviced: 0,
        }
    }

    /// Immutable access to process `id` if alive.
    pub fn process(&self, id: u32) -> Option<&P> {
        self.slots.get(id as usize)?.as_deref()
    }

    fn ensure_slot(&mut self, id: u32) {
        if id as usize >= self.slots.len() {
            self.slots.resize_with(id as usize + 1, || None);
            self.mailboxes.resize_with(id as usize + 1, VecDeque::new);
        }
    }

    fn enqueue(&mut self, policy: SchedPolicy, proc: u32, src: ProcAddr, msg: P::Msg) {
        self.ensure_slot(proc);
        if self.slots[proc as usize].is_none() {
            self.dropped += 1;
            return;
        }
        match policy {
            SchedPolicy::Fifo => self.fifo.push_back((proc, src, msg)),
            _ => self.mailboxes[proc as usize].push_back((src, msg)),
        }
    }

    /// Selects the next activation per policy. Returns `None` when no live
    /// pending work remains.
    fn select(&mut self, policy: SchedPolicy) -> Option<(u32, ProcAddr, P::Msg)> {
        match policy {
            SchedPolicy::Fifo => loop {
                let (proc, src, msg) = self.fifo.pop_front()?;
                if self.slots[proc as usize].is_some() {
                    return Some((proc, src, msg));
                }
                self.dropped += 1;
            },
            SchedPolicy::RoundRobin => {
                let n = self.mailboxes.len();
                for off in 0..n {
                    let i = (self.rr_cursor + off) % n;
                    if self.slots[i].is_none() {
                        self.dropped += self.mailboxes[i].len() as u64;
                        self.mailboxes[i].clear();
                        continue;
                    }
                    if let Some((src, msg)) = self.mailboxes[i].pop_front() {
                        self.rr_cursor = (i + 1) % n;
                        return Some((i as u32, src, msg));
                    }
                }
                None
            }
            SchedPolicy::Priority => {
                // Fixed priorities: lower process id = higher priority.
                for i in 0..self.mailboxes.len() {
                    if self.slots[i].is_none() {
                        self.dropped += self.mailboxes[i].len() as u64;
                        self.mailboxes[i].clear();
                        continue;
                    }
                    if let Some((src, msg)) = self.mailboxes[i].pop_front() {
                        return Some((i as u32, src, msg));
                    }
                }
                None
            }
        }
    }

    /// Runs one activation; returns false when nothing was runnable.
    fn service_one(
        &mut self,
        policy: SchedPolicy,
        node: NodeId,
        outbox: &mut Outbox<'_, SchedMsg<P::Msg>>,
    ) -> bool {
        let Some((proc, src, msg)) = self.select(policy) else {
            return false;
        };
        let mut process = self.slots[proc as usize]
            .take()
            .expect("select returns live processes");
        let mut actions: Vec<LocalAction<P::Msg>> = Vec::new();
        let mut spawned: Vec<(u32, Box<P>)> = Vec::new();
        let mut exited = false;
        {
            let mut ctx = ProcCtx {
                outbox,
                self_addr: ProcAddr::new(node, proc),
                src,
                actions: &mut actions,
                spawned: &mut spawned,
                next_proc_id: &mut self.next_proc_id,
            };
            process.on_message(msg, &mut ctx);
        }
        self.serviced += 1;
        // Apply spawns first so local deliveries to fresh processes land.
        for (id, p) in spawned {
            self.ensure_slot(id);
            debug_assert!(self.slots[id as usize].is_none());
            self.slots[id as usize] = Some(p);
        }
        // Re-insert the running process (unless it exited) *before* applying
        // deliveries, so messages it sent to itself are not dropped.
        if actions
            .iter()
            .any(|a| matches!(a, LocalAction::Exit(id) if *id == proc))
        {
            exited = true;
        }
        if !exited {
            self.slots[proc as usize] = Some(process);
        }
        for action in actions {
            match action {
                LocalAction::Deliver(to, from, msg) => self.enqueue(policy, to, from, msg),
                LocalAction::Exit(id) => {
                    if id != proc {
                        self.slots[id as usize] = None;
                    }
                }
            }
        }
        true
    }
}

/// The layer-2 host: a [`NodeProgram`] managing a process table per node.
///
/// `factory(node, ctx)` creates each node's initial processes (ids `0..k`).
/// Messages are [`SchedMsg`]-wrapped; external triggers should be injected
/// as `SchedMsg { src_proc: 0, dst_proc: <target>, inner }`.
pub struct SchedulerHost<P, F> {
    factory: F,
    policy: SchedPolicy,
    _marker: PhantomData<fn() -> P>,
}

impl<P, F> SchedulerHost<P, F>
where
    P: Process,
    F: Fn(NodeId, &InitCtx) -> Vec<P> + Sync,
{
    /// Creates a host that services every arrival at once (the paper's
    /// §V-A "pop one message per step" semantics); the policy orders the
    /// backlog that local sends build up within one activation.
    pub fn new(factory: F, policy: SchedPolicy) -> Self {
        SchedulerHost {
            factory,
            policy,
            _marker: PhantomData,
        }
    }

    fn drain_local(
        &self,
        state: &mut NodeSched<P>,
        node: NodeId,
        outbox: &mut Outbox<'_, SchedMsg<P::Msg>>,
    ) {
        let mut activations = 0u32;
        while state.service_one(self.policy, node, outbox) {
            activations += 1;
            assert!(
                activations < LOCAL_ACTIVATION_CAP,
                "node {node}: local activation livelock"
            );
        }
    }
}

impl<P, F> NodeProgram for SchedulerHost<P, F>
where
    P: Process,
    F: Fn(NodeId, &InitCtx) -> Vec<P> + Sync,
{
    type Msg = SchedMsg<P::Msg>;
    type State = NodeSched<P>;

    fn init(&self, node: NodeId, ctx: &InitCtx) -> NodeSched<P> {
        NodeSched::new((self.factory)(node, ctx))
    }

    fn on_message(
        &self,
        state: &mut NodeSched<P>,
        msg: SchedMsg<P::Msg>,
        ctx: &mut Outbox<'_, SchedMsg<P::Msg>>,
    ) {
        let node = ctx.node();
        let src = ProcAddr::new(ctx.sender(), msg.src_proc);
        state.enqueue(self.policy, msg.dst_proc, src, msg.inner);
        // Service the arrival plus any local follow-on messages it
        // generates: local communication models within-node computation
        // and is free of interconnect cost.
        self.drain_local(state, node, ctx);
    }
}
