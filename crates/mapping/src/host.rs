//! [`MappingHost`]: the layer-1 program implementing ticketed,
//! destination-less message passing (§IV-B).

use hyperspace_sim::{InitCtx, NodeId, NodeProgram, Outbox};

use crate::mapper::{MapView, Mapper, MapperFactory, Target};
use crate::msg::{MapMsg, MapPayload, Weight};
use crate::ticket::{Ticket, TicketMap};

/// An application written against layer 3 (§IV-B's programming style).
///
/// Handlers never see node identities: requests arrive with the ticket to
/// quote when replying, and results of this node's own calls return through
/// [`TicketHandler::on_reply`] identified by the ticket [`CallCtx::call`]
/// returned.
pub trait TicketHandler: Sync {
    /// Request (sub-problem) payload.
    type Req: Clone + Send;
    /// Response (result) payload.
    type Resp: Clone + Send;
    /// Per-node application state.
    type State: Send;

    /// Initial application state of `node`.
    fn init(&self, node: NodeId) -> Self::State;

    /// Services a request; must eventually cause exactly one
    /// `ctx.reply(reply_to, ...)` (possibly only after further calls
    /// return).
    fn on_request(
        &self,
        state: &mut Self::State,
        req: Self::Req,
        reply_to: Ticket,
        ctx: &mut dyn CallCtx<Self::Req, Self::Resp>,
    );

    /// Receives the result of a call this node made earlier.
    fn on_reply(
        &self,
        state: &mut Self::State,
        ticket: Ticket,
        resp: Self::Resp,
        ctx: &mut dyn CallCtx<Self::Req, Self::Resp>,
    );

    /// A caller withdrew the request it had issued with `reply_to`; the
    /// application should abandon the corresponding work (and cancel its
    /// own outstanding sub-calls). Default: ignore, matching the paper's
    /// "remaining evaluations are ignored" baseline.
    fn on_cancel(
        &self,
        _state: &mut Self::State,
        _reply_to: Ticket,
        _ctx: &mut dyn CallCtx<Self::Req, Self::Resp>,
    ) {
    }

    /// An incumbent-bound update arrived from a neighbour (branch-and-
    /// bound optimisation mode). Default: ignore — only optimisation
    /// hosts react.
    fn on_bound(
        &self,
        _state: &mut Self::State,
        _value: i64,
        _ctx: &mut dyn CallCtx<Self::Req, Self::Resp>,
    ) {
    }
}

/// The call/reply interface layer 3 exposes upwards.
pub trait CallCtx<Q, R> {
    /// Issues a sub-problem without naming a destination; layer 3 picks one
    /// (§III-A3). Returns the ticket its reply will quote.
    fn call(&mut self, req: Q) -> Ticket {
        self.call_hint(req, 0)
    }

    /// Like [`CallCtx::call`] with a cross-layer size hint (§III-B3).
    fn call_hint(&mut self, req: Q, hint: Weight) -> Ticket;

    /// Sends the result for a serviced request back to its caller.
    fn reply(&mut self, ticket: Ticket, resp: R);

    /// Withdraws a previously issued call. Layer 3 routes the cancel to
    /// the node the request was mapped to; a straggling reply that crosses
    /// the cancel in flight is delivered anyway and must be tolerated.
    fn cancel(&mut self, ticket: Ticket);

    /// Broadcasts an incumbent-bound update to every neighbour. The
    /// bounds ride the ordinary envelope machinery (port sends staged
    /// this step, delivered next step), so their arrival order — and
    /// therefore every pruning decision keyed on it — is deterministic
    /// and backend-independent.
    fn share_bound(&mut self, value: i64);

    /// Current simulation step (diagnostics).
    fn step(&self) -> u64;

    /// Requests the whole run to halt at the end of this step.
    fn halt(&mut self);
}

/// Layer-3 behaviour switches.
#[derive(Clone, Debug)]
pub struct MapConfig {
    /// Broadcast a `Status` message to every neighbour each `p` steps.
    /// Requires the engine's `tick_every = Some(p)` (see
    /// [`MappingHost::recommended_tick`]). These broadcasts refresh
    /// adaptive mappers' estimates but *cost interconnect capacity* — the
    /// §III-B2 overhead that makes adaptive mapping a net loss on small
    /// meshes (Figure 4, < 100 cores).
    pub status_period: Option<u64>,
    /// Halt the simulation when a root reply arrives (computation time is
    /// then "trigger to root result", the quantity Figure 4 plots).
    pub halt_on_root_reply: bool,
}

impl Default for MapConfig {
    fn default() -> Self {
        MapConfig {
            status_period: None,
            halt_on_root_reply: true,
        }
    }
}

/// Full per-node state of the mapping layer.
pub struct MapState<H: TicketHandler, M> {
    /// Application state.
    pub app: H::State,
    mapper: M,
    received: u64,
    next_serial: u32,
    root_tickets: TicketMap<()>,
    /// Where each outstanding ticket's request was mapped (for cancels).
    ticket_dst: TicketMap<NodeId>,
    /// Results of root calls triggered on this node.
    pub root_results: Vec<(Ticket, H::Resp)>,
    /// Requests serviced by this node.
    pub requests_in: u64,
    /// Replies received by this node.
    pub replies_in: u64,
    /// Status broadcasts received by this node.
    pub status_in: u64,
    /// Cancels received by this node.
    pub cancels_in: u64,
    /// Incumbent-bound updates received by this node.
    pub bounds_in: u64,
    /// Calls issued by this node.
    pub calls_out: u64,
}

impl<H: TicketHandler, M: Mapper> MapState<H, M> {
    /// Total messages this node has received (the LBN activity metric).
    pub fn received(&self) -> u64 {
        self.received
    }

    /// The mapper's current state (e.g. for inspecting LBN counts).
    pub fn mapper(&self) -> &M {
        &self.mapper
    }

    /// First root result, if any arrived.
    pub fn root_result(&self) -> Option<&H::Resp> {
        self.root_results.first().map(|(_, r)| r)
    }
}

/// Concrete [`CallCtx`] bound to a node's outbox and mapper.
struct HostCtx<'a, 'b, Q, R, M: Mapper> {
    outbox: &'a mut Outbox<'b, MapMsg<Q, R>>,
    mapper: &'a mut M,
    received: u64,
    next_serial: &'a mut u32,
    node: NodeId,
    calls_issued: &'a mut u64,
    ticket_dst: &'a mut TicketMap<NodeId>,
}

impl<'a, 'b, Q: Clone + Send, R: Clone + Send, M: Mapper> CallCtx<Q, R>
    for HostCtx<'a, 'b, Q, R, M>
{
    fn call_hint(&mut self, req: Q, hint: Weight) -> Ticket {
        let ticket = Ticket::new(self.node, *self.next_serial);
        // A wrapped serial would re-issue a ticket that may still be live.
        *self.next_serial = self.next_serial.checked_add(1).unwrap_or_else(|| {
            panic!("ticket serials exhausted on node {}", self.node);
        });
        *self.calls_issued += 1;
        let view = MapView {
            degree: self.outbox.degree(),
            num_nodes: self.outbox.num_nodes(),
            local_load: self.received,
            hint,
        };
        let dst = match self.mapper.choose(&view) {
            Target::Local => self.node,
            Target::Port(p) => self.outbox.neighbour(p),
            Target::Node(n) => n,
        };
        self.ticket_dst.insert(ticket.raw(), dst);
        self.outbox.send(
            dst,
            MapMsg {
                load: self.received,
                payload: MapPayload::Request { ticket, hint, req },
            },
        );
        ticket
    }

    fn cancel(&mut self, ticket: Ticket) {
        if let Some(dst) = self.ticket_dst.remove(&ticket.raw()) {
            self.outbox.send(
                dst,
                MapMsg {
                    load: self.received,
                    payload: MapPayload::Cancel { ticket },
                },
            );
        }
    }

    fn share_bound(&mut self, value: i64) {
        for port in 0..self.outbox.degree() {
            self.outbox.send_port(
                port,
                MapMsg {
                    load: self.received,
                    payload: MapPayload::Bound { value },
                },
            );
        }
    }

    fn reply(&mut self, ticket: Ticket, resp: R) {
        self.outbox.send(
            ticket.node(),
            MapMsg {
                load: self.received,
                payload: MapPayload::Reply { ticket, resp },
            },
        );
    }

    fn step(&self) -> u64 {
        self.outbox.step()
    }

    fn halt(&mut self) {
        self.outbox.halt();
    }
}

/// Builds the message to inject to kick off a root call at some node
/// (§IV-B's `Trigger`).
pub fn trigger<Q, R>(req: Q) -> MapMsg<Q, R> {
    MapMsg {
        load: 0,
        payload: MapPayload::Trigger { req },
    }
}

/// Builds an externally sourced incumbent-bound message, injectable into
/// any node the way [`trigger`] messages are. The receiving node treats
/// it exactly like a gossiped [`MapPayload::Bound`]: it merges the value
/// into its incumbent and re-broadcasts on strict improvement, flooding
/// the mesh. This is how a portfolio coordinator feeds one member's
/// incumbent to another at a sync epoch.
pub fn bound<Q, R>(value: i64) -> MapMsg<Q, R> {
    MapMsg {
        load: 0,
        payload: MapPayload::Bound { value },
    }
}

/// The layer-3 host: owns the per-node mapper and ticket bookkeeping and
/// drives a [`TicketHandler`].
pub struct MappingHost<H, F> {
    handler: H,
    factory: F,
    cfg: MapConfig,
}

impl<H, F> MappingHost<H, F>
where
    H: TicketHandler,
    F: MapperFactory,
{
    /// Builds a host with the given application handler and mapper factory.
    pub fn new(handler: H, factory: F, cfg: MapConfig) -> Self {
        MappingHost {
            handler,
            factory,
            cfg,
        }
    }

    /// Engine `tick_every` needed for this host's status broadcasts.
    pub fn recommended_tick(&self) -> Option<u64> {
        self.cfg.status_period
    }

    /// The application handler.
    pub fn handler(&self) -> &H {
        &self.handler
    }
}

impl<H, F> NodeProgram for MappingHost<H, F>
where
    H: TicketHandler,
    F: MapperFactory,
{
    type Msg = MapMsg<H::Req, H::Resp>;
    type State = MapState<H, F::M>;

    fn init(&self, node: NodeId, ctx: &InitCtx) -> Self::State {
        assert!(
            ctx.degree() > 0,
            "mapping layer requires a connected topology (node {node} has degree 0)"
        );
        MapState {
            app: self.handler.init(node),
            mapper: self.factory.build(node, ctx.degree()),
            received: 0,
            next_serial: 0,
            root_tickets: TicketMap::default(),
            ticket_dst: TicketMap::default(),
            root_results: Vec::new(),
            requests_in: 0,
            replies_in: 0,
            status_in: 0,
            cancels_in: 0,
            bounds_in: 0,
            calls_out: 0,
        }
    }

    fn on_message(
        &self,
        state: &mut Self::State,
        msg: MapMsg<H::Req, H::Resp>,
        outbox: &mut Outbox<'_, Self::Msg>,
    ) {
        let node = outbox.node();
        state.received += 1;
        // Feed the piggy-backed load estimate to the mapper; self-loopback
        // messages carry no new information.
        let sender = outbox.sender();
        if sender != node {
            if let Some(port) = outbox.neighbours().iter().position(|&n| n == sender) {
                state.mapper.observe(port, msg.load);
            }
        }

        macro_rules! ctx {
            () => {
                HostCtx {
                    outbox,
                    mapper: &mut state.mapper,
                    received: state.received,
                    next_serial: &mut state.next_serial,
                    node,
                    calls_issued: &mut state.calls_out,
                    ticket_dst: &mut state.ticket_dst,
                }
            };
        }

        match msg.payload {
            MapPayload::Status => {
                state.status_in += 1;
            }
            MapPayload::Request { ticket, req, .. } => {
                state.requests_in += 1;
                let mut ctx = ctx!();
                self.handler
                    .on_request(&mut state.app, req, ticket, &mut ctx);
            }
            MapPayload::Reply { ticket, resp } => {
                state.replies_in += 1;
                state.ticket_dst.remove(&ticket.raw());
                // Only a triggered node holds root tickets; the rest skip
                // the probe.
                if !state.root_tickets.is_empty()
                    && state.root_tickets.remove(&ticket.raw()).is_some()
                {
                    state.root_results.push((ticket, resp));
                    if self.cfg.halt_on_root_reply {
                        outbox.halt();
                    }
                } else {
                    let mut ctx = ctx!();
                    self.handler
                        .on_reply(&mut state.app, ticket, resp, &mut ctx);
                }
            }
            MapPayload::Trigger { req } => {
                let mut ctx = ctx!();
                let ticket = ctx.call(req);
                state.root_tickets.insert(ticket.raw(), ());
            }
            MapPayload::Cancel { ticket } => {
                state.cancels_in += 1;
                let mut ctx = ctx!();
                self.handler.on_cancel(&mut state.app, ticket, &mut ctx);
            }
            MapPayload::Bound { value } => {
                state.bounds_in += 1;
                let mut ctx = ctx!();
                self.handler.on_bound(&mut state.app, value, &mut ctx);
            }
        }
    }

    fn on_tick(&self, state: &mut Self::State, outbox: &mut Outbox<'_, Self::Msg>) {
        if let Some(period) = self.cfg.status_period {
            if period > 0 && outbox.step() % period == 0 {
                for port in 0..outbox.degree() {
                    outbox.send_port(
                        port,
                        MapMsg {
                            load: state.received,
                            payload: MapPayload::Status,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::RoundRobinMapper;
    use hyperspace_sim::{SimConfig, Simulation};
    use hyperspace_topology::Torus;

    /// Answers every request with its own payload.
    struct Echo;

    impl TicketHandler for Echo {
        type Req = u64;
        type Resp = u64;
        type State = ();

        fn init(&self, _node: NodeId) {}

        fn on_request(&self, _: &mut (), req: u64, to: Ticket, ctx: &mut dyn CallCtx<u64, u64>) {
            ctx.reply(to, req);
        }

        fn on_reply(&self, _: &mut (), _: Ticket, _: u64, _: &mut dyn CallCtx<u64, u64>) {}
    }

    /// A mapping host whose nodes have all but `left` of their ticket
    /// serials behind them.
    struct LongRunning<F> {
        host: MappingHost<Echo, F>,
        left: u32,
    }

    impl<F: MapperFactory> NodeProgram for LongRunning<F> {
        type Msg = MapMsg<u64, u64>;
        type State = MapState<Echo, F::M>;

        fn init(&self, node: NodeId, ctx: &InitCtx) -> Self::State {
            let mut state = self.host.init(node, ctx);
            state.next_serial = u32::MAX - self.left;
            state
        }

        fn on_message(
            &self,
            state: &mut Self::State,
            msg: Self::Msg,
            out: &mut Outbox<'_, Self::Msg>,
        ) {
            self.host.on_message(state, msg, out);
        }
    }

    /// Triggers `calls` root calls, one after the other, on a node with
    /// `left` serials left; returns the tickets and results it collected.
    fn root_calls(left: u32, calls: u64) -> Vec<(Ticket, u64)> {
        let cfg = MapConfig {
            halt_on_root_reply: false,
            ..MapConfig::default()
        };
        let host = MappingHost::new(Echo, RoundRobinMapper::factory(), cfg);
        let program = LongRunning { host, left };
        let mut sim = Simulation::new(Torus::new_2d(3, 3), program, SimConfig::default());
        for req in 0..calls {
            sim.inject(4, trigger(req));
            sim.run_to_quiescence().unwrap();
        }
        sim.state(4).root_results.clone()
    }

    #[test]
    fn the_last_serials_are_still_issued() {
        let last = |back: u32| Ticket::new(4, u32::MAX - back);
        assert_eq!(root_calls(2, 2), [(last(2), 0), (last(1), 1)]);
    }

    #[test]
    #[should_panic(expected = "ticket serials exhausted on node 4")]
    fn serial_exhaustion_panics_instead_of_reissuing_live_tickets() {
        root_calls(2, 3);
    }
}
