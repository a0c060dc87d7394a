//! Layer-boundary probes: delegating wrappers around the public traits
//! each layer is written against. Nothing in the product crates is
//! instrumented; a traced stack is the same stack with a wrapper at each
//! boundary, and [`crate::workloads::stack`] checks that it reproduces
//! the untraced run's simulated counters exactly.
//!
//! Each wrapper adds one span (count, total nanoseconds) per crossing. A
//! layer's self time is its span total minus the totals of the spans
//! nested inside it; [`StackSpans::self_times`] does that arithmetic.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use hyperspace_mapping::{CallCtx, MapView, Mapper, MapperFactory, Target, Ticket, TicketHandler};
use hyperspace_recursion::{RecProgram, Resumed, Spawn, Step};
use hyperspace_sim::{InitCtx, NodeId, NodeProgram, Outbox};

/// One boundary's aggregate: crossings and the wall time spent inside.
/// Relaxed atomics: these are statistics read after the run has joined.
#[derive(Default)]
pub struct Span {
    count: AtomicU64,
    nanos: AtomicU64,
}

impl Span {
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
        self.count.fetch_add(1, Relaxed);
        out
    }

    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    pub fn secs(&self) -> f64 {
        self.nanos.load(Relaxed) as f64 / 1e9
    }
}

/// The spans of one traced stack, outermost first.
#[derive(Default)]
pub struct StackSpans {
    /// Layer-1 handler calls into the mapping host (`on_message`, `on_tick`).
    pub node: Span,
    /// Mapping host calls into the layer-4 handler.
    pub handler: Span,
    /// Layer-4 calls back down into mapping (`call_hint`, `reply`, ...).
    pub ctx: Span,
    /// `Mapper::choose`, nested inside `ctx`.
    pub choose: Span,
    /// `RecProgram::start` and `resume`: the problem logic.
    pub logic: Span,
    /// `RecProgram::bound`.
    pub bound: Span,
    /// The remaining program hooks (`weight`, `solution_value`, `pruned`).
    pub hooks: Span,
}

/// Self time per layer, in seconds, from one set of spans.
pub struct SelfTimes {
    pub mapping: f64,
    pub recursion: f64,
    pub logic: f64,
}

impl StackSpans {
    /// Mapping owns the host span outside the handler plus the calls the
    /// handler makes back into it; recursion owns the handler span minus
    /// those calls and minus the program; the program owns its hooks.
    pub fn self_times(&self) -> SelfTimes {
        let logic = self.logic.secs() + self.bound.secs() + self.hooks.secs();
        SelfTimes {
            mapping: self.node.secs() - self.handler.secs() + self.ctx.secs(),
            recursion: self.handler.secs() - self.ctx.secs() - logic,
            logic,
        }
    }
}

/// Times every layer-1 handler invocation of `N`.
pub struct TimedNode<N> {
    inner: N,
    spans: Arc<StackSpans>,
}

impl<N> TimedNode<N> {
    pub fn new(inner: N, spans: Arc<StackSpans>) -> Self {
        TimedNode { inner, spans }
    }
}

impl<N: NodeProgram> NodeProgram for TimedNode<N> {
    type Msg = N::Msg;
    type State = N::State;

    fn init(&self, node: NodeId, ctx: &InitCtx) -> N::State {
        self.inner.init(node, ctx)
    }

    fn on_message(&self, state: &mut N::State, msg: N::Msg, ctx: &mut Outbox<'_, N::Msg>) {
        self.spans
            .node
            .time(|| self.inner.on_message(state, msg, ctx))
    }

    fn on_tick(&self, state: &mut N::State, ctx: &mut Outbox<'_, N::Msg>) {
        self.spans.node.time(|| self.inner.on_tick(state, ctx))
    }

    fn is_idle(&self, state: &N::State) -> bool {
        self.inner.is_idle(state)
    }
}

/// Times every call layer 3 makes into the layer-4 handler `H`, handing
/// it a [`TimedCtx`] so the calls it makes back down are timed too.
pub struct TimedHandler<H> {
    inner: H,
    spans: Arc<StackSpans>,
}

impl<H> TimedHandler<H> {
    pub fn new(inner: H, spans: Arc<StackSpans>) -> Self {
        TimedHandler { inner, spans }
    }
}

impl<H: TicketHandler> TicketHandler for TimedHandler<H> {
    type Req = H::Req;
    type Resp = H::Resp;
    type State = H::State;

    fn init(&self, node: NodeId) -> H::State {
        self.inner.init(node)
    }

    fn on_request(
        &self,
        state: &mut H::State,
        req: H::Req,
        reply_to: Ticket,
        ctx: &mut dyn CallCtx<H::Req, H::Resp>,
    ) {
        let mut ctx = TimedCtx {
            inner: ctx,
            spans: &self.spans,
        };
        self.spans
            .handler
            .time(|| self.inner.on_request(state, req, reply_to, &mut ctx))
    }

    fn on_reply(
        &self,
        state: &mut H::State,
        ticket: Ticket,
        resp: H::Resp,
        ctx: &mut dyn CallCtx<H::Req, H::Resp>,
    ) {
        let mut ctx = TimedCtx {
            inner: ctx,
            spans: &self.spans,
        };
        self.spans
            .handler
            .time(|| self.inner.on_reply(state, ticket, resp, &mut ctx))
    }

    fn on_cancel(
        &self,
        state: &mut H::State,
        reply_to: Ticket,
        ctx: &mut dyn CallCtx<H::Req, H::Resp>,
    ) {
        let mut ctx = TimedCtx {
            inner: ctx,
            spans: &self.spans,
        };
        self.spans
            .handler
            .time(|| self.inner.on_cancel(state, reply_to, &mut ctx))
    }

    fn on_bound(&self, state: &mut H::State, value: i64, ctx: &mut dyn CallCtx<H::Req, H::Resp>) {
        let mut ctx = TimedCtx {
            inner: ctx,
            spans: &self.spans,
        };
        self.spans
            .handler
            .time(|| self.inner.on_bound(state, value, &mut ctx))
    }
}

/// The layer-3 context as layer 4 sees it, with the sending calls timed.
struct TimedCtx<'a, Q, R> {
    inner: &'a mut dyn CallCtx<Q, R>,
    spans: &'a StackSpans,
}

impl<Q, R> CallCtx<Q, R> for TimedCtx<'_, Q, R> {
    fn call_hint(&mut self, req: Q, hint: u32) -> Ticket {
        self.spans.ctx.time(|| self.inner.call_hint(req, hint))
    }

    fn reply(&mut self, ticket: Ticket, resp: R) {
        self.spans.ctx.time(|| self.inner.reply(ticket, resp))
    }

    fn cancel(&mut self, ticket: Ticket) {
        self.spans.ctx.time(|| self.inner.cancel(ticket))
    }

    fn share_bound(&mut self, value: i64) {
        self.spans.ctx.time(|| self.inner.share_bound(value))
    }

    fn step(&self) -> u64 {
        self.inner.step()
    }

    fn halt(&mut self) {
        self.inner.halt()
    }
}

/// Times `Mapper::choose`.
pub struct TimedMapper<M> {
    inner: M,
    spans: Arc<StackSpans>,
}

impl<M: Mapper> Mapper for TimedMapper<M> {
    fn choose(&mut self, view: &MapView) -> Target {
        self.spans.choose.time(|| self.inner.choose(view))
    }

    fn observe(&mut self, port: usize, load: u64) {
        self.inner.observe(port, load)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Builds a [`TimedMapper`] around each mapper `F` builds.
pub struct TimedMapperFactory<F> {
    inner: F,
    spans: Arc<StackSpans>,
}

impl<F> TimedMapperFactory<F> {
    pub fn new(inner: F, spans: Arc<StackSpans>) -> Self {
        TimedMapperFactory { inner, spans }
    }
}

impl<F: MapperFactory> MapperFactory for TimedMapperFactory<F> {
    type M = TimedMapper<F::M>;

    fn build(&self, node: NodeId, degree: usize) -> Self::M {
        TimedMapper {
            inner: self.inner.build(node, degree),
            spans: Arc::clone(&self.spans),
        }
    }
}

/// Times the problem logic `P`.
pub struct TimedProgram<P> {
    inner: P,
    spans: Arc<StackSpans>,
}

impl<P> TimedProgram<P> {
    pub fn new(inner: P, spans: Arc<StackSpans>) -> Self {
        TimedProgram { inner, spans }
    }
}

/// A wrapper program's `Step` carries the same three types as the
/// wrapped program's; only the program parameter differs.
fn rewrap<P, W>(step: Step<P>) -> Step<W>
where
    P: RecProgram,
    W: RecProgram<Arg = P::Arg, Out = P::Out, Frame = P::Frame>,
{
    match step {
        Step::Done(out) => Step::Done(out),
        Step::Spawn(Spawn { calls, join, frame }) => Step::Spawn(Spawn { calls, join, frame }),
    }
}

impl<P: RecProgram> RecProgram for TimedProgram<P> {
    type Arg = P::Arg;
    type Out = P::Out;
    type Frame = P::Frame;

    fn start(&self, arg: P::Arg) -> Step<Self> {
        rewrap(self.spans.logic.time(|| self.inner.start(arg)))
    }

    fn resume(&self, frame: P::Frame, results: Resumed<P::Out>) -> Step<Self> {
        rewrap(self.spans.logic.time(|| self.inner.resume(frame, results)))
    }

    fn weight(&self, arg: &P::Arg) -> u32 {
        self.spans.hooks.time(|| self.inner.weight(arg))
    }

    fn solution_value(&self, out: &P::Out) -> Option<i64> {
        self.spans.hooks.time(|| self.inner.solution_value(out))
    }

    fn bound(&self, arg: &P::Arg) -> Option<i64> {
        self.spans.bound.time(|| self.inner.bound(arg))
    }

    fn pruned(&self, arg: &P::Arg) -> Option<P::Out> {
        self.spans.hooks.time(|| self.inner.pruned(arg))
    }
}
