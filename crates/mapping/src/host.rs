//! [`MappingHost`]: the layer-1 program implementing ticketed,
//! destination-less message passing (§IV-B).

use hyperspace_sim::{InitCtx, NodeId, NodeProgram, Outbox};

use crate::mapper::{MapView, Mapper, MapperFactory, Target};
use crate::msg::{MapMsg, MapPayload, Weight};
use crate::ticket::{Ticket, SLOT_BITS};

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

    /// Re-initialises `state`, which a run of this handler type left on
    /// `node`, to what `init(node)` would return, keeping the capacity of
    /// its buffers (see [`NodeProgram::reinit`]). The default builds a
    /// fresh state.
    fn reinit(&self, state: &mut Self::State, node: NodeId) {
        *state = self.init(node);
    }

    /// Drops what a run left in `state` that its data could be reached
    /// through, as the machine is parked (see [`NodeProgram::release`]).
    /// The default keeps the state as it is.
    fn release(&self, _state: &mut Self::State) {}

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
    /// This node's outstanding calls, one slot each.
    calls: CallSlab,
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

    /// First root result, if any arrived.
    pub fn root_result(&self) -> Option<&H::Resp> {
        self.root_results.first().map(|(_, r)| r)
    }
}

/// A node's outstanding calls: one slot per live call, reused through a
/// free list. Slot `i` issues the serial `generation << SLOT_BITS | i`.
///
/// A stale reply never aliases a live call. Layer 3's contract is one
/// reply per request, so after a reply nothing quotes its ticket again and
/// the slot may reissue it. Only a withdrawal ([`CallCtx::cancel`]) frees
/// a slot while a reply may still be in flight, so a withdrawal advances
/// the generation; a slot whose generation would wrap is retired.
#[derive(Default)]
struct CallSlab {
    /// Per slot: the serial it issues and, while its call is live, where
    /// the call was mapped and whether it is a root call.
    slots: Vec<(u32, Option<(NodeId, bool)>)>,
    free: Vec<u32>,
}

impl CallSlab {
    /// Forgets every slot: serials restart at generation 0, and slots a
    /// wrapped generation retired come back. The table keeps room for as
    /// many slots as the last run opened.
    fn clear(&mut self) {
        let used = self.slots.len();
        self.slots.clear();
        fit(&mut self.slots, used);
        self.free.clear();
        fit(&mut self.free, used);
    }

    /// Takes a slot for a call mapped to `dst`; returns its ticket.
    fn open(&mut self, node: NodeId, dst: NodeId) -> Ticket {
        let index = self.free.pop().unwrap_or_else(|| {
            let (index, limit) = (self.slots.len() as u32, 1u32 << SLOT_BITS);
            assert!(index < limit, "node {node} has used all {limit} call slots");
            self.slots.push((index, None));
            index
        });
        let (serial, call) = &mut self.slots[index as usize];
        *call = Some((dst, false));
        Ticket::new(node, *serial)
    }

    /// Releases the live call `ticket` names, at a new generation if it is
    /// `withdrawn`; returns its destination and root flag, or `None` for a
    /// withdrawn call's straggler.
    fn close(&mut self, ticket: Ticket, withdrawn: bool) -> Option<(NodeId, bool)> {
        let (serial, call) = self.slots.get_mut(ticket.slot())?;
        let call = call.take_if(|_| *serial == ticket.serial())?;
        if withdrawn {
            let Some(next) = serial.checked_add(1 << SLOT_BITS) else {
                return Some(call);
            };
            *serial = next;
        }
        self.free.push(ticket.slot() as u32);
        Some(call)
    }
}

/// Shrinks `buf` to the `used` entries the last run needed if it left the
/// buffer more than half idle, so that a recycled node keeps about the
/// room a fresh one grows.
fn fit<T>(buf: &mut Vec<T>, used: usize) {
    if buf.capacity() > 2 * used {
        buf.shrink_to(used);
    }
}

/// Concrete [`CallCtx`] bound to a node's outbox and mapper.
struct HostCtx<'a, 'b, Q, R, M: Mapper> {
    outbox: &'a mut Outbox<'b, MapMsg<Q, R>>,
    mapper: &'a mut M,
    received: u64,
    node: NodeId,
    calls_issued: &'a mut u64,
    calls: &'a mut CallSlab,
}

impl<'a, 'b, Q: Clone + Send, R: Clone + Send, M: Mapper> CallCtx<Q, R>
    for HostCtx<'a, 'b, Q, R, M>
{
    fn call_hint(&mut self, req: Q, hint: Weight) -> Ticket {
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
        let ticket = self.calls.open(self.node, dst);
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
        if let Some((dst, _)) = self.calls.close(ticket, true) {
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
            calls: CallSlab::default(),
            root_results: Vec::new(),
            requests_in: 0,
            replies_in: 0,
            status_in: 0,
            cancels_in: 0,
            bounds_in: 0,
            calls_out: 0,
        }
    }

    fn reinit(&self, state: &mut Self::State, node: NodeId, ctx: &InitCtx) {
        self.handler.reinit(&mut state.app, node);
        self.factory.reinit(&mut state.mapper, node, ctx.degree());
        state.received = 0;
        state.calls.clear();
        state.root_results.clear();
        state.requests_in = 0;
        state.replies_in = 0;
        state.status_in = 0;
        state.cancels_in = 0;
        state.bounds_in = 0;
        state.calls_out = 0;
    }

    fn release(&self, state: &mut Self::State) {
        self.handler.release(&mut state.app);
        state.root_results.clear();
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
                    node,
                    calls_issued: &mut state.calls_out,
                    calls: &mut state.calls,
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
                if state
                    .calls
                    .close(ticket, false)
                    .is_some_and(|(_, root)| root)
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
                let ticket = ctx!().call(req);
                if let (_, Some((_, root))) = &mut state.calls.slots[ticket.slot()] {
                    *root = true;
                }
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

    /// Request 1 is answered at once and request 2 one round trip later
    /// (after a call of its own). Request 0 makes its node a caller: it
    /// withdraws its first call, issues a second from the same slot, and
    /// issues a third when the first one's straggling reply lands. The
    /// caller answers its parent with the second call's result.
    struct Straggler;

    #[derive(Default)]
    struct Log {
        /// Every `on_reply`, in arrival order.
        replies: Vec<(Ticket, u64)>,
        /// A caller's parent, and its withdrawn, second and third calls.
        parent: Option<Ticket>,
        calls: Vec<Ticket>,
        /// A request 2's own call and the ticket that call answers for.
        forwards: Vec<(Ticket, Ticket)>,
    }

    impl TicketHandler for Straggler {
        type Req = u64;
        type Resp = u64;
        type State = Log;

        fn init(&self, _node: NodeId) -> Log {
            Log::default()
        }

        fn on_request(&self, log: &mut Log, req: u64, to: Ticket, ctx: &mut dyn CallCtx<u64, u64>) {
            match req {
                0 => {
                    let withdrawn = ctx.call(1);
                    ctx.cancel(withdrawn);
                    log.calls = vec![withdrawn, ctx.call(2)];
                    log.parent = Some(to);
                }
                1 => ctx.reply(to, 1),
                _ => {
                    let own = ctx.call(1);
                    log.forwards.push((own, to));
                }
            }
        }

        fn on_reply(&self, log: &mut Log, t: Ticket, resp: u64, ctx: &mut dyn CallCtx<u64, u64>) {
            log.replies.push((t, resp));
            if let Some(at) = log.forwards.iter().position(|(own, _)| *own == t) {
                let (_, to) = log.forwards.swap_remove(at);
                ctx.reply(to, 2);
            } else if t == log.calls[0] {
                log.calls.push(ctx.call(1));
            } else if t == log.calls[1] {
                ctx.reply(log.parent.expect("a caller has a parent"), resp);
            }
        }
    }

    fn host() -> MappingHost<Straggler, impl MapperFactory> {
        let cfg = MapConfig {
            halt_on_root_reply: false,
            ..MapConfig::default()
        };
        MappingHost::new(Straggler, RoundRobinMapper::factory(), cfg)
    }

    #[test]
    fn a_withdrawn_calls_straggler_reaches_on_reply_after_its_slot_is_reissued() {
        let mut sim = Simulation::new(Torus::new_2d(3, 3), host(), SimConfig::default());
        sim.inject(4, trigger(0));
        sim.run_to_quiescence().unwrap();
        let caller = (0..9).find(|&n| !sim.state(n).app.calls.is_empty());
        let state = sim.state(caller.expect("node 4's root call made a caller"));
        let [withdrawn, live, third] = state.app.calls[..] else {
            panic!("three calls, got {:?}", state.app.calls);
        };
        // The live call took the withdrawn call's slot, at a new generation.
        assert_eq!(withdrawn.slot(), live.slot());
        assert_ne!(withdrawn, live);
        // The straggler landed first, quoting its own ticket, while the
        // live call still held the slot: the third call got another one.
        assert_eq!(state.app.replies[0], (withdrawn, 1));
        assert_ne!(third.slot(), live.slot());
        let mut rest = state.app.replies[1..].to_vec();
        rest.sort();
        let mut expected = vec![(live, 2), (third, 1)];
        expected.sort();
        assert_eq!(rest, expected);
        // The live call's reply completed it: the root has its answer.
        assert_eq!(sim.state(4).root_result(), Some(&2));
        assert!(state.calls.slots.iter().all(|(_, call)| call.is_none()));
    }

    #[test]
    fn sequential_calls_keep_a_one_slot_table() {
        let mut sim = Simulation::new(Torus::new_2d(3, 3), host(), SimConfig::default());
        for _ in 0..1000 {
            sim.inject(4, trigger(1));
            sim.run_to_quiescence().unwrap();
        }
        let state = sim.state(4);
        assert_eq!(state.calls_out, 1000);
        assert_eq!(state.calls.slots.len(), 1);
        assert_eq!(state.root_results, vec![(Ticket::new(4, 0), 1); 1000]);
    }

    #[test]
    fn a_slot_whose_generations_are_spent_is_retired() {
        let mut calls = CallSlab::default();
        for generation in 0..1u32 << (32 - SLOT_BITS) {
            let t = calls.open(7, 3);
            assert_eq!((t.slot(), t.serial() >> SLOT_BITS), (0, generation));
            assert_eq!(calls.close(t, true), Some((3, false)));
            assert_eq!(calls.close(t, false), None, "a straggler is stale");
        }
        // Slot 0 would wrap back to its first generation: a new slot serves.
        assert_eq!(calls.open(7, 3).slot(), 1);
    }

    #[test]
    #[should_panic(expected = "node 7 has used all 1048576 call slots")]
    fn overflowing_the_slot_space_panics() {
        let mut calls = CallSlab::default();
        for _ in 0..=1u32 << SLOT_BITS {
            calls.open(7, 3);
        }
    }
}
