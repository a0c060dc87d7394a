//! The node-program interface exposed by layer 1.
//!
//! Following §IV-A, an application is a pair of functions: `init`, computing
//! each node's starting state, and `receive` (here [`NodeProgram::on_message`]),
//! transforming that state whenever a message is delivered. While handling a
//! message the node may queue further sends through the [`Outbox`].

use crate::envelope::Envelope;
use hyperspace_topology::NodeId;

/// Context available to [`NodeProgram::init`].
pub struct InitCtx<'a> {
    pub(crate) node: NodeId,
    pub(crate) num_nodes: usize,
    pub(crate) neighbours: &'a [NodeId],
}

impl<'a> InitCtx<'a> {
    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Machine size.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// This node's neighbour list, in port order.
    pub fn neighbours(&self) -> &[NodeId] {
        self.neighbours
    }

    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.neighbours.len()
    }
}

/// A program executed identically by every node (SPMD style).
///
/// The program value itself is shared immutably across all nodes (and across
/// the worker threads of a sharded run); all per-node mutation goes through
/// `State`.
pub trait NodeProgram: Sync {
    /// Message payload exchanged between nodes.
    type Msg: Clone + Send;
    /// Per-node mutable state.
    type State: Send;

    /// Computes the initial state of `node` (Listing 1's `init`).
    fn init(&self, node: NodeId, ctx: &InitCtx) -> Self::State;

    /// Re-initialises `state`, which a run of this program type left on
    /// `node`, to what `init(node, ctx)` would return: equal in
    /// everything but the capacity of its buffers. A machine that serves
    /// another run ([`crate::SimShell`]) initialises its nodes through
    /// this; the default builds a fresh state.
    fn reinit(&self, state: &mut Self::State, node: NodeId, ctx: &InitCtx) {
        *state = self.init(node, ctx);
    }

    /// Drops what a run left in `state` that the run's own data could be
    /// reached through, when the machine is parked between runs
    /// ([`crate::ShardedSimulation::into_shell`]); `reinit` sees the rest.
    /// The default keeps the state as it is until then.
    fn release(&self, _state: &mut Self::State) {}

    /// Handles one delivered message (Listing 1's `receive`).
    fn on_message(&self, state: &mut Self::State, msg: Self::Msg, ctx: &mut Outbox<'_, Self::Msg>);

    /// Optional periodic hook, invoked for every node each `tick_every`
    /// steps when [`crate::SimConfig::tick_every`] is set. The paper's model
    /// is purely message-driven; this hook exists for adaptive mapping
    /// layers that emit periodic status messages (§III-B2).
    fn on_tick(&self, _state: &mut Self::State, _ctx: &mut Outbox<'_, Self::Msg>) {}

    /// Whether this node has no internal pending work.
    ///
    /// Only consulted when `tick_every` is configured: a run is quiescent
    /// once no messages are queued *and* every node reports idle, so a
    /// program that works through an internal backlog on its ticks keeps
    /// receiving them until the backlog empties.
    fn is_idle(&self, _state: &Self::State) -> bool {
        true
    }
}

/// Send-side context handed to message handlers.
///
/// Sends are *staged*: they become visible in destination queues at the next
/// simulation step, which is what makes a run independent of the order (and
/// the thread) in which the step's nodes are visited.
pub struct Outbox<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) step: u64,
    pub(crate) src: NodeId,
    pub(crate) hops: u32,
    pub(crate) neighbours: &'a [NodeId],
    pub(crate) topo_nodes: usize,
    pub(crate) adjacent_only: bool,
    /// `staged.len()` when the current handler invocation began: the
    /// buffer may already hold earlier invocations' sends.
    pub(crate) base: usize,
    pub(crate) staged: &'a mut Vec<Envelope<M>>,
    pub(crate) halt: &'a mut bool,
}

impl<'a, M> Outbox<'a, M> {
    /// The node executing the handler.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current simulation step.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Sender of the message being handled (layer 2 exposes this; layer 3
    /// replaces it with tickets).
    pub fn sender(&self) -> NodeId {
        self.src
    }

    /// Hops the handled message travelled.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.neighbours.len()
    }

    /// Neighbour reached through `port`.
    pub fn neighbour(&self, port: usize) -> NodeId {
        self.neighbours[port]
    }

    /// Neighbour list in port order.
    pub fn neighbours(&self) -> &[NodeId] {
        self.neighbours
    }

    /// Machine size.
    pub fn num_nodes(&self) -> usize {
        self.topo_nodes
    }

    /// Queues a message through local port `port`.
    pub fn send_port(&mut self, port: usize, msg: M) {
        let dst = self.neighbours[port];
        self.staged.push(Envelope {
            src: self.node,
            dst,
            sent_step: self.step,
            hops: 0,
            payload: msg,
        });
    }

    /// Queues a message to node `dst`.
    ///
    /// Under [`crate::DeliveryModel::AdjacentOnly`] (the paper's §V-A
    /// assumption) `dst` must be a direct neighbour; this is checked and
    /// panics otherwise, as it indicates a broken mapping layer. Under
    /// `Routed` the message travels hop-by-hop; under `Direct` it arrives in
    /// one step regardless of distance.
    pub fn send(&mut self, dst: NodeId, msg: M) {
        assert!(
            (dst as usize) < self.topo_nodes,
            "send to nonexistent node {dst}"
        );
        // A node may always send to itself (local loopback queue); remote
        // destinations must be mesh links under adjacent-only delivery.
        if self.adjacent_only && dst != self.node {
            assert!(
                self.neighbours.contains(&dst),
                "adjacent-only delivery: {} -> {dst} is not a mesh link",
                self.node
            );
        }
        self.staged.push(Envelope {
            src: self.node,
            dst,
            sent_step: self.step,
            hops: 0,
            payload: msg,
        });
    }

    /// Sends `msg` to every neighbour (Listing 1, lines 8–9).
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for port in 0..self.neighbours.len() {
            self.send_port(port, msg.clone());
        }
    }

    /// Requests the simulation to halt at the end of this step (used by the
    /// solver stack once the root result is known).
    pub fn halt(&mut self) {
        *self.halt = true;
    }

    /// Number of messages staged by this handler invocation so far.
    pub fn staged_count(&self) -> usize {
        self.staged.len() - self.base
    }
}
