//! [`RecursionHost`]: drives a [`RecProgram`] over the layer-3 ticket
//! interface, maintaining the paper's *call records* (Figure 3).
//!
//! Every suspended activation becomes a [`CallRecord`] holding the saved
//! frame, the join mode, a count of its outstanding sub-calls and, for an
//! `All` join, one result slot per sub-call. Sub-calls are issued through
//! [`CallCtx::call_hint`]; their tickets index back into the records. When
//! a join completes the frame is resumed, possibly producing more records,
//! until the activation finishes and its result is replied to the parent
//! ticket.
//!
//! The records of a node form a slab: a `Vec` of rows plus a free list,
//! found through a vector indexed by the sub-call ticket's
//! [`Ticket::slot`]. A suspension takes a vacant row and the reply that
//! completes the join gives it back, before the activation resumes: a row
//! holds a frame exactly while its activation waits. A row lists no
//! pending calls: a reply decrements the row's count of them, and the
//! tickets a won `Any` join or a cancel must forget sit in the row as a
//! [`Calls`] batch, inline for up to two (a wider batch's spilled buffer
//! stays with the row, as do an `All` join's result slots). A forgotten
//! call's reply finds no sub-call and counts as stale.
//! So in steady state a sub-call costs two vector indexings, and neither
//! a spawn of up to two calls, nor its record, nor the [`Calls`] batch
//! its results resume with allocates. The slab counts its pending
//! sub-calls, so [`RecState::frontier`] is O(1), and at most one row
//! answers to a parent ticket.

use std::collections::HashMap;

use hyperspace_mapping::{CallCtx, Ticket, TicketHandler};
use hyperspace_sim::NodeId;

use crate::program::{Join, Objective, RecProgram, Resumed, Spawn, Step};
use crate::Calls;

/// Branch-and-bound configuration of a [`RecursionHost`].
///
/// When attached, every completed activation whose result is a feasible
/// solution ([`RecProgram::solution_value`]) may improve the node's
/// *incumbent*; improvements are broadcast to the neighbours as layer-3
/// `Bound` messages and gossip through the mesh (receivers that improve
/// re-broadcast). With `prune` enabled, each incoming request is tested
/// against the local incumbent *before* expansion: a subtree whose
/// [`RecProgram::bound`] cannot beat the incumbent is answered with
/// [`RecProgram::pruned`] instead of being searched.
///
/// Because bounds are ordinary envelopes, the incumbent a node holds at
/// any simulated step — and therefore every pruning decision — is a pure
/// function of the deterministic delivery order, making B&B runs
/// bit-identical across execution backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BnbMode {
    /// Direction of the objective.
    pub objective: Objective,
    /// Whether to evaluate the prune predicate before expanding.
    pub prune: bool,
    /// Optional externally supplied starting incumbent (e.g. a greedy
    /// warm start).
    pub initial_incumbent: Option<i64>,
}

/// One improvement of a node's incumbent: the simulated step at which
/// the improving value was *observed* (solution completed locally, or
/// bound message delivered) and the value itself. Traces are
/// deterministic and bit-identical across backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IncumbentEvent {
    /// Simulation step of the observation.
    pub step: u64,
    /// The incumbent value after the update.
    pub value: i64,
}

/// One suspended activation (a row of Figure 3's call-record table).
///
/// Rows live in a slab ([`RecState`]'s `records`): a row whose activation
/// has resumed or been cancelled is vacant (it holds no frame) and is
/// handed, with its `results` buffer and any spilled `tickets`, to the
/// next activation that suspends on this node.
struct CallRecord<P: RecProgram> {
    /// Where this activation's final result must be sent.
    parent: Ticket,
    /// The saved continuation; `None` while the row is vacant.
    frame: Option<P::Frame>,
    /// Join mode of the outstanding batch.
    join: Join<P::Out>,
    /// Result slots of an `All` join, one per sub-call, in issue order
    /// (an `Any` join keeps no results).
    results: Vec<Option<P::Out>>,
    /// Sub-calls not yet answered or forgotten.
    pending: u32,
    /// Every sub-call's ticket, in issue order, for forgetting the ones
    /// still live ([`SubCalls`] knows which) when an `Any` join wins or a
    /// cancel arrives. Answered ones stay listed until the row is vacated.
    tickets: Calls<Ticket>,
}

/// Counters exposed for experiments and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecStats {
    /// Activations started (requests serviced).
    pub started: u64,
    /// Activations completed with a reply.
    pub completed: u64,
    /// Replies to sub-calls forgotten by an `Any` win or withdrawn by a
    /// cancel.
    pub stale_replies: u64,
    /// Activations whose `Any` join was satisfied before all sub-calls
    /// returned (speculation wins).
    pub speculative_wins: u64,
    /// Sub-calls withdrawn by cancellation.
    pub cancels_sent: u64,
    /// Activations abandoned because a parent cancelled them.
    pub cancelled: u64,
    /// Requests answered by the prune predicate without expansion
    /// (branch-and-bound mode).
    pub pruned: u64,
    /// Times this node's incumbent improved (locally or via a bound
    /// message).
    pub incumbent_updates: u64,
}

impl std::ops::AddAssign for RecStats {
    /// Sums another node's counters into these (machine-wide totals).
    fn add_assign(&mut self, other: RecStats) {
        self.started += other.started;
        self.completed += other.completed;
        self.stale_replies += other.stale_replies;
        self.speculative_wins += other.speculative_wins;
        self.cancels_sent += other.cancels_sent;
        self.cancelled += other.cancelled;
        self.pruned += other.pruned;
        self.incumbent_updates += other.incumbent_updates;
    }
}

/// Per-node layer-4 state.
pub struct RecState<P: RecProgram> {
    /// The call-record slab; `free` lists its vacant rows.
    records: Vec<CallRecord<P>>,
    free: Vec<u32>,
    /// How many rows this run has taken: untouched rows are taken lowest
    /// first, so they are the first `rows_used`.
    rows_used: u32,
    /// A row is vacated only once no sub-call points to it (its losers
    /// forgotten), so a reply never finds a reused row.
    sub_calls: SubCalls,
    /// parent ticket -> record row, for cancellation lookups: kept only by
    /// a host [`RecursionHost::with_cancellation`], as only such a host
    /// (every node runs the same one) ever sends a `Cancel`.
    parent_index: HashMap<Ticket, u32>,
    /// The sub-calls the live rows wait on.
    pending_calls: u64,
    /// Objective direction, when the host runs in B&B mode (used by
    /// report folding to pick the best incumbent across nodes).
    objective: Option<Objective>,
    /// Best feasible solution value this node knows of.
    incumbent: Option<i64>,
    /// Every improvement of `incumbent`, in observation order.
    incumbent_trace: Vec<IncumbentEvent>,
    /// Observable counters.
    pub stats: RecStats,
}

impl<P: RecProgram> RecState<P> {
    fn new(bnb: Option<&BnbMode>) -> Self {
        RecState {
            records: Vec::new(),
            free: Vec::new(),
            rows_used: 0,
            sub_calls: SubCalls::default(),
            parent_index: HashMap::new(),
            pending_calls: 0,
            objective: bnb.map(|m| m.objective),
            incumbent: bnb.and_then(|m| m.initial_incumbent),
            incumbent_trace: Vec::new(),
            stats: RecStats::default(),
        }
    }

    /// Drops every frame and result a run left, vacating every row.
    fn release(&mut self) {
        for rec in &mut self.records {
            rec.frame = None;
            rec.results.clear();
            rec.pending = 0;
            rec.tickets.clear();
        }
    }

    /// Makes this state the one `RecState::new(bnb)` returns, but for the
    /// room it keeps: the rows the last run took, and the indexes as wide
    /// as it needed them (a buffer it left more than half idle shrinks).
    /// Every row is vacant and listed free, lowest on top, as a fresh
    /// slab would push it.
    fn reset(&mut self, bnb: Option<&BnbMode>) {
        self.release();
        let rows = std::mem::take(&mut self.rows_used) as usize;
        self.records.truncate(rows);
        fit(&mut self.records, rows);
        self.free.clear();
        fit(&mut self.free, rows);
        self.free.extend((0..rows as u32).rev());
        let slots = self.sub_calls.0.len();
        self.sub_calls.0.clear();
        fit(&mut self.sub_calls.0, slots);
        self.parent_index.clear();
        self.pending_calls = 0;
        self.objective = bnb.map(|m| m.objective);
        self.incumbent = bnb.and_then(|m| m.initial_incumbent);
        self.incumbent_trace.clear();
        self.stats = RecStats::default();
    }

    /// Number of live call records (suspended activations) on this node.
    pub fn live_records(&self) -> usize {
        self.records.len() - self.free.len()
    }

    /// Objective direction when the host runs in B&B mode.
    pub fn objective(&self) -> Option<Objective> {
        self.objective
    }

    /// This node's current incumbent (best feasible solution value it
    /// knows of), if any.
    pub fn incumbent(&self) -> Option<i64> {
        self.incumbent
    }

    /// Every improvement of this node's incumbent, in observation order.
    pub fn incumbent_trace(&self) -> &[IncumbentEvent] {
        &self.incumbent_trace
    }

    /// Captures this node's search frontier for a checkpoint: how many
    /// activations are suspended (with how many sub-calls outstanding)
    /// and what the node's incumbent view is. The saved records themselves
    /// are plain data (a built-in program's frame is `()` or a small
    /// struct; only an [`FnProgram`](crate::FnProgram) frame holds a
    /// closure), but `RecState` has no `Codec` yet, so they are preserved
    /// by suspending the live machine (or re-derived by deterministic
    /// replay), never serialised — and this summary is what checkpoint
    /// metadata and observability surfaces carry.
    pub fn frontier(&self) -> FrontierSnapshot {
        FrontierSnapshot {
            open_records: self.live_records() as u64,
            pending_calls: self.pending_calls,
            incumbent: self.incumbent,
            incumbent_updates: self.stats.incumbent_updates,
        }
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

/// A node's outstanding sub-calls by [`Ticket::slot`] (layer 3 gives each
/// live call its own slot): the ticket a reply must quote, and the record
/// row and result slot it fills. A reply quoting any other ticket — a
/// withdrawn call's straggler, even once its slot is reissued — is stale.
#[derive(Default)]
struct SubCalls(Vec<Option<(Ticket, u32, u32)>>);

impl SubCalls {
    fn insert(&mut self, ticket: Ticket, row: u32, slot: u32) {
        if ticket.slot() >= self.0.len() {
            self.0.resize(ticket.slot() + 1, None);
        }
        self.0[ticket.slot()] = Some((ticket, row, slot));
    }

    /// Forgets `ticket`; returns its row and result slot if it was live.
    fn take(&mut self, ticket: Ticket) -> Option<(u32, u32)> {
        let entry = self.0.get_mut(ticket.slot())?;
        let (_, row, slot) = entry.take_if(|(live, ..)| *live == ticket)?;
        Some((row, slot))
    }

    /// Forgets `ticket` if it is still live as the `slot`-th sub-call of
    /// `row`. Layer 3 reissues an answered call's ticket unchanged, so the
    /// same ticket may by now name another row's call.
    fn withdraw(&mut self, ticket: Ticket, row: u32, slot: u32) -> bool {
        let entry = self.0.get_mut(ticket.slot());
        entry.is_some_and(|entry| entry.take_if(|live| *live == (ticket, row, slot)).is_some())
    }
}

/// A summary of the branch-and-bound / recursion frontier held by one
/// node (or, after [`FrontierSnapshot::absorb`], a whole machine) at a
/// checkpoint boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontierSnapshot {
    /// Suspended activations still waiting on sub-calls.
    pub open_records: u64,
    /// Outstanding sub-call tickets across the open records.
    pub pending_calls: u64,
    /// Best feasible solution value known (B&B mode).
    pub incumbent: Option<i64>,
    /// Incumbent improvements observed so far.
    pub incumbent_updates: u64,
}

impl FrontierSnapshot {
    /// Folds another node's frontier into this one; `objective` decides
    /// which incumbent wins (absent outside B&B mode).
    pub fn absorb(&mut self, other: &FrontierSnapshot, objective: Option<Objective>) {
        self.open_records += other.open_records;
        self.pending_calls += other.pending_calls;
        self.incumbent_updates += other.incumbent_updates;
        self.incumbent = match (self.incumbent, other.incumbent) {
            (Some(a), Some(b)) => Some(match objective {
                Some(obj) => obj.better(a, b),
                None => a,
            }),
            (a, b) => a.or(b),
        };
    }
}

/// Layer-4 host: adapts a [`RecProgram`] to layer 3's [`TicketHandler`].
pub struct RecursionHost<P> {
    program: P,
    cancel_losers: bool,
    bnb: Option<BnbMode>,
    node_budget: Option<u64>,
}

impl<P: RecProgram> RecursionHost<P> {
    /// Paper-faithful behaviour: when an `Any` join is satisfied, the
    /// "remaining evaluations are ignored" (their work still runs to
    /// completion and occupies the mesh).
    pub fn new(program: P) -> Self {
        RecursionHost {
            program,
            cancel_losers: false,
            bnb: None,
            node_budget: None,
        }
    }

    /// Beyond-paper extension: actively withdraw losing speculative
    /// branches, pruning their entire sub-trees (ablation ABL-C).
    pub fn with_cancellation(mut self) -> Self {
        self.cancel_losers = true;
        self
    }

    /// Enables branch-and-bound optimisation mode: incumbent sharing
    /// and (per `mode.prune`) pre-expansion pruning.
    pub fn with_bnb(mut self, mode: BnbMode) -> Self {
        self.bnb = Some(mode);
        self
    }

    /// Caps how many activations each node may expand (the strategy
    /// language's `limit(nodes,N)` scope): once a node has started
    /// `budget` activations, further requests are answered with the
    /// program's [`RecProgram::pruned`] sentinel instead of expanding.
    /// The check is purely local — a node's own start counter, a
    /// function of the deterministic delivery order — so budgeted runs
    /// stay bit-identical across backends. Programs without a pruned
    /// sentinel (`None`) cannot be budget-denied and expand normally.
    pub fn with_node_budget(mut self, budget: u64) -> Self {
        self.node_budget = Some(budget);
        self
    }

    /// Merges `value` into the node's incumbent. On strict improvement
    /// the update is recorded in the trace (keyed by the step at which
    /// it was observed) and, when `broadcast`, gossiped to the
    /// neighbours.
    fn note_incumbent(
        &self,
        state: &mut RecState<P>,
        value: i64,
        broadcast: bool,
        ctx: &mut dyn CallCtx<P::Arg, P::Out>,
    ) {
        let Some(mode) = &self.bnb else { return };
        let improved = match state.incumbent {
            Some(inc) => mode.objective.improves(value, inc),
            None => true,
        };
        if !improved {
            return;
        }
        state.incumbent = Some(value);
        state.incumbent_trace.push(IncumbentEvent {
            step: ctx.step(),
            value,
        });
        state.stats.incumbent_updates += 1;
        if broadcast {
            ctx.share_bound(value);
        }
    }

    /// The prune predicate, evaluated before an activation is expanded:
    /// `Some(result)` answers the request without searching the subtree.
    fn try_prune(&self, state: &RecState<P>, arg: &P::Arg) -> Option<P::Out> {
        let mode = self.bnb.as_ref()?;
        if !mode.prune {
            return None;
        }
        let incumbent = state.incumbent?;
        let bound = self.program.bound(arg)?;
        if mode.objective.bound_beats(bound, incumbent) {
            return None; // the subtree can still improve — expand it
        }
        self.program.pruned(arg)
    }

    /// Runs an activation until it either completes (reply sent) or
    /// suspends (record created).
    fn drive(
        &self,
        state: &mut RecState<P>,
        mut step: Step<P>,
        parent: Ticket,
        ctx: &mut dyn CallCtx<P::Arg, P::Out>,
    ) {
        loop {
            match step {
                Step::Done(out) => {
                    if self.bnb.is_some() {
                        if let Some(value) = self.program.solution_value(&out) {
                            self.note_incumbent(state, value, true, ctx);
                        }
                    }
                    ctx.reply(parent, out);
                    state.stats.completed += 1;
                    return;
                }
                Step::Spawn(Spawn { calls, join, frame }) => {
                    if calls.is_empty() {
                        // Degenerate batch: resume immediately.
                        let resumed = match join {
                            Join::All => Resumed::All(Calls::new()),
                            Join::Any(_) => Resumed::Any(None),
                        };
                        step = self.program.resume(frame, resumed);
                        continue;
                    }
                    let row = state.free.pop().unwrap_or_else(|| {
                        state.records.push(CallRecord {
                            parent,
                            frame: None,
                            join: Join::All,
                            results: Vec::new(),
                            pending: 0,
                            tickets: Calls::new(),
                        });
                        (state.records.len() - 1) as u32
                    });
                    state.rows_used = state.rows_used.max(row + 1);
                    let rec = &mut state.records[row as usize];
                    let width = calls.len();
                    for (slot, arg) in calls.into_iter().enumerate() {
                        let hint = self.program.weight(&arg);
                        let t = ctx.call_hint(arg, hint);
                        state.sub_calls.insert(t, row, slot as u32);
                        rec.tickets.push(t);
                    }
                    if let Join::All = join {
                        rec.results.resize_with(width, || None);
                    }
                    rec.parent = parent;
                    rec.frame = Some(frame);
                    rec.join = join;
                    rec.pending = width as u32;
                    state.pending_calls += width as u64;
                    if self.cancel_losers {
                        state.parent_index.insert(parent, row);
                    }
                    return;
                }
            }
        }
    }

    /// Forgets the sub-calls of `row` still outstanding, in issue order; a
    /// cancelling host also withdraws each with a `Cancel`. Their replies
    /// then find no sub-call and count as stale.
    fn forget(&self, state: &mut RecState<P>, row: u32, ctx: &mut dyn CallCtx<P::Arg, P::Out>) {
        let rec = &mut state.records[row as usize];
        for (slot, &t) in rec.tickets.iter().enumerate() {
            if state.sub_calls.withdraw(t, row, slot as u32) {
                if self.cancel_losers {
                    ctx.cancel(t);
                    state.stats.cancels_sent += 1;
                }
                rec.pending -= 1;
                state.pending_calls -= 1;
            }
        }
        debug_assert_eq!(rec.pending, 0);
    }

    /// Returns `row`, whose sub-calls are all answered or forgotten, to the
    /// free list, with the frame and parent ticket its activation resumes
    /// with.
    fn vacate(&self, state: &mut RecState<P>, row: u32) -> (P::Frame, Ticket) {
        let rec = &mut state.records[row as usize];
        debug_assert_eq!(rec.pending, 0);
        let frame = rec.frame.take().expect("a live row holds its frame");
        rec.results.clear();
        rec.tickets.clear();
        if self.cancel_losers {
            state.parent_index.remove(&rec.parent);
        }
        state.free.push(row);
        (frame, rec.parent)
    }
}

impl<P: RecProgram> TicketHandler for RecursionHost<P> {
    type Req = P::Arg;
    type Resp = P::Out;
    type State = RecState<P>;

    fn init(&self, _node: NodeId) -> RecState<P> {
        RecState::new(self.bnb.as_ref())
    }

    fn reinit(&self, state: &mut RecState<P>, _node: NodeId) {
        state.reset(self.bnb.as_ref());
    }

    fn release(&self, state: &mut RecState<P>) {
        state.release();
    }

    fn on_request(
        &self,
        state: &mut RecState<P>,
        arg: P::Arg,
        reply_to: Ticket,
        ctx: &mut dyn CallCtx<P::Arg, P::Out>,
    ) {
        // Prune predicate first: a subtree that cannot beat the
        // incumbent this node holds *right now* (every bound delivered
        // before this request included) is answered without expansion.
        if let Some(out) = self.try_prune(state, &arg) {
            state.stats.pruned += 1;
            ctx.reply(reply_to, out);
            return;
        }
        // A spent node budget denies expansion the same way: the pruned
        // sentinel answers the request and the subtree is never searched.
        if self.node_budget.is_some_and(|b| state.stats.started >= b) {
            if let Some(out) = self.program.pruned(&arg) {
                state.stats.pruned += 1;
                ctx.reply(reply_to, out);
                return;
            }
        }
        state.stats.started += 1;
        let step = self.program.start(arg);
        self.drive(state, step, reply_to, ctx);
    }

    fn on_reply(
        &self,
        state: &mut RecState<P>,
        ticket: Ticket,
        resp: P::Out,
        ctx: &mut dyn CallCtx<P::Arg, P::Out>,
    ) {
        let Some((row, slot)) = state.sub_calls.take(ticket) else {
            // Straggler for a call forgotten by an `Any` win or a cancel.
            state.stats.stale_replies += 1;
            return;
        };
        let rec = &mut state.records[row as usize];
        rec.pending -= 1;
        state.pending_calls -= 1;

        let resumed = match rec.join {
            Join::All => {
                rec.results[slot as usize] = Some(resp);
                if rec.pending > 0 {
                    return;
                }
                Resumed::All(
                    rec.results
                        .drain(..)
                        .map(|r| r.expect("all slots filled"))
                        .collect(),
                )
            }
            Join::Any(valid) if valid(&resp) => {
                // First valid result wins; the rest are forgotten.
                if rec.pending > 0 {
                    state.stats.speculative_wins += 1;
                }
                self.forget(state, row, ctx);
                Resumed::Any(Some(resp))
            }
            // Everything returned, nothing valid: null result.
            Join::Any(_) if rec.pending == 0 => Resumed::Any(None),
            Join::Any(_) => return,
        };
        let (frame, parent) = self.vacate(state, row);
        let step = self.program.resume(frame, resumed);
        self.drive(state, step, parent, ctx);
    }

    fn on_cancel(
        &self,
        state: &mut RecState<P>,
        reply_to: Ticket,
        ctx: &mut dyn CallCtx<P::Arg, P::Out>,
    ) {
        // The caller withdrew the request it issued with `reply_to`. Find
        // the activation working on it, abandon it, and recursively cancel
        // its own outstanding sub-calls.
        let Some(row) = state.parent_index.remove(&reply_to) else {
            // Already replied (reply and cancel crossed in flight) — or the
            // request never started an activation here. Nothing to do.
            return;
        };
        state.stats.cancelled += 1;
        self.forget(state, row, ctx);
        self.vacate(state, row);
    }

    fn on_bound(&self, state: &mut RecState<P>, value: i64, ctx: &mut dyn CallCtx<P::Arg, P::Out>) {
        // Gossip flood: re-broadcast only on strict improvement, so the
        // wave dies out once every node holds the best value.
        self.note_incumbent(state, value, true, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cps::{FnProgram, Rec};
    use crate::program::eval_local;
    use hyperspace_mapping::{trigger, LeastBusyMapper, MapConfig, MappingHost, RoundRobinMapper};
    use hyperspace_sim::{SimConfig, Simulation};
    use hyperspace_topology::{Hypercube, Torus};

    fn sum_program() -> FnProgram<u64, u64, impl Fn(u64) -> Rec<u64, u64> + Send + Sync> {
        FnProgram::new(|n: u64| -> Rec<u64, u64> {
            if n < 1 {
                Rec::done(0)
            } else {
                Rec::call(n - 1).then(move |total| Rec::done(total + n))
            }
        })
    }

    #[test]
    fn distributed_sum_matches_listing_3() {
        let host = MappingHost::new(
            RecursionHost::new(sum_program()),
            RoundRobinMapper::factory(),
            MapConfig::default(),
        );
        let mut sim = Simulation::new(Torus::new_2d(4, 4), host, SimConfig::default());
        sim.inject(0, trigger(10));
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.state(0).root_result(), Some(&55));
    }

    #[test]
    fn distributed_fib_fans_out() {
        let fib = FnProgram::new(|n: u64| {
            if n < 2 {
                Rec::done(n)
            } else {
                Rec::call_all(vec![n - 1, n - 2]).then_all(|rs| Rec::done(rs[0] + rs[1]))
            }
        });
        let host = MappingHost::new(
            RecursionHost::new(fib),
            LeastBusyMapper::factory(),
            MapConfig::default(),
        );
        let mut sim = Simulation::new(Hypercube::new(4), host, SimConfig::default());
        sim.inject(3, trigger(12));
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.state(3).root_result(), Some(&144));
        // fib spreads real work across many nodes.
        let busy = (0..16).filter(|&n| sim.state(n).requests_in > 0).count();
        assert!(busy >= 8, "expected fan-out, only {busy} busy nodes");
    }

    /// Binary tree counting its leaves, with a pruned sentinel of 0 —
    /// lets tests observe exactly how much of the tree was expanded.
    struct LeafCounter;

    impl RecProgram for LeafCounter {
        type Arg = u64;
        type Out = u64;
        type Frame = ();

        fn start(&self, n: u64) -> Step<Self> {
            if n == 0 {
                Step::Done(1)
            } else {
                Step::Spawn(Spawn {
                    calls: Calls::two(n - 1, n - 1),
                    join: Join::All,
                    frame: (),
                })
            }
        }

        fn resume(&self, _frame: (), results: Resumed<u64>) -> Step<Self> {
            match results {
                Resumed::All(rs) => Step::Done(rs.iter().sum()),
                Resumed::Any(_) => unreachable!("LeafCounter only joins All"),
            }
        }

        fn pruned(&self, _arg: &u64) -> Option<u64> {
            Some(0)
        }
    }

    #[test]
    fn node_budget_denies_expansion_deterministically() {
        let run = |budget: Option<u64>| {
            let mut host = RecursionHost::new(LeafCounter);
            if let Some(b) = budget {
                host = host.with_node_budget(b);
            }
            let host = MappingHost::new(host, RoundRobinMapper::factory(), MapConfig::default());
            let mut sim = Simulation::new(Torus::new_2d(4, 4), host, SimConfig::default());
            sim.inject(0, trigger(6));
            sim.run_to_quiescence().unwrap();
            let result = *sim.state(0).root_result().unwrap();
            let pruned: u64 = (0..16).map(|n| sim.state(n).app.stats.pruned).sum();
            (result, pruned)
        };
        let (full, pruned) = run(None);
        assert_eq!(full, 64, "unbudgeted tree counts every leaf");
        assert_eq!(pruned, 0);
        let (capped, pruned) = run(Some(2));
        assert!(capped < 64, "budget must deny part of the tree");
        assert!(pruned > 0, "denied requests count as pruned");
        assert_eq!(
            run(Some(2)),
            (capped, pruned),
            "budgeted runs deterministic"
        );
    }

    #[test]
    fn any_join_resolves_without_waiting() {
        // Leaves return their argument; the root asks for any even result.
        let pick = FnProgram::new(|n: u64| {
            if n < 100 {
                Rec::done(n)
            } else {
                Rec::call_any(vec![1, 2, 3, 4], |r| r % 2 == 0)
                    .then_any(|r| Rec::done(r.unwrap_or(999)))
            }
        });
        let host = MappingHost::new(
            RecursionHost::new(pick),
            RoundRobinMapper::factory(),
            MapConfig::default(),
        );
        let mut sim = Simulation::new(Torus::new_2d(4, 4), host, SimConfig::default());
        sim.inject(0, trigger(100));
        sim.run_to_quiescence().unwrap();
        let result = *sim.state(0).root_result().unwrap();
        assert!(result == 2 || result == 4, "got {result}");
    }

    #[test]
    fn any_join_exhaustion_yields_none() {
        let pick = FnProgram::new(|n: u64| {
            if n < 100 {
                Rec::done(n)
            } else {
                Rec::call_any(vec![1, 3, 5], |r| r % 2 == 0)
                    .then_any(|r| Rec::done(r.unwrap_or(999)))
            }
        });
        let host = MappingHost::new(
            RecursionHost::new(pick),
            RoundRobinMapper::factory(),
            MapConfig::default(),
        );
        let mut sim = Simulation::new(Torus::new_2d(4, 4), host, SimConfig::default());
        sim.inject(0, trigger(100));
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.state(0).root_result(), Some(&999));
    }

    #[test]
    fn no_records_leak_after_all_join_run() {
        let host = MappingHost::new(
            RecursionHost::new(sum_program()),
            RoundRobinMapper::factory(),
            MapConfig {
                halt_on_root_reply: false,
                ..MapConfig::default()
            },
        );
        let mut sim = Simulation::new(Torus::new_2d(4, 4), host, SimConfig::default());
        sim.inject(0, trigger(25));
        sim.run_to_quiescence().unwrap();
        for node in 0..16 {
            assert_eq!(sim.state(node).app.live_records(), 0, "node {node} leaked");
        }
        let started: u64 = (0..16).map(|n| sim.state(n).app.stats.started).sum();
        let completed: u64 = (0..16).map(|n| sim.state(n).app.stats.completed).sum();
        assert_eq!(started, 26);
        assert_eq!(completed, 26);
    }

    #[test]
    fn frontier_snapshot_tracks_suspended_activations() {
        let host = MappingHost::new(
            RecursionHost::new(sum_program()),
            RoundRobinMapper::factory(),
            MapConfig {
                halt_on_root_reply: false,
                ..MapConfig::default()
            },
        );
        let mut sim = Simulation::new(Torus::new_2d(4, 4), host, SimConfig::default());
        sim.inject(0, trigger(25));
        // Mid-run: the linear recursion holds a chain of suspended
        // activations, each waiting on exactly one sub-call.
        for _ in 0..12 {
            sim.step().unwrap();
        }
        let mut machine = FrontierSnapshot::default();
        for node in 0..16 {
            machine.absorb(&sim.state(node).app.frontier(), None);
        }
        assert!(machine.open_records > 0, "mid-run frontier must be open");
        assert_eq!(machine.pending_calls, machine.open_records);
        assert_eq!(machine.incumbent, None, "no B&B mode, no incumbent");
        // Run to completion: the frontier drains.
        sim.run_to_quiescence().unwrap();
        let mut done = FrontierSnapshot::default();
        for node in 0..16 {
            done.absorb(&sim.state(node).app.frontier(), None);
        }
        assert_eq!(done.open_records, 0);
        assert_eq!(done.pending_calls, 0);
    }

    /// The frontier as a walk over every slab row finds it: rows holding a
    /// frame, and the sub-calls they wait on. Checks on the way that each
    /// row's pending count is the number of live sub-calls that point to
    /// it, that each of those is among the row's tickets, and that a row
    /// without a frame (vacant: its activation resumed or was cancelled)
    /// waits on none.
    fn walked<P: RecProgram>(state: &RecState<P>) -> (u64, u64) {
        let mut live = vec![0u32; state.records.len()];
        for &(ticket, row, _) in state.sub_calls.0.iter().flatten() {
            live[row as usize] += 1;
            let record = &state.records[row as usize];
            assert!(record.tickets.contains(&ticket), "row {row}");
        }
        let mut walk = (0, 0);
        for (row, (record, live)) in state.records.iter().zip(live).enumerate() {
            assert_eq!(record.pending, live);
            if record.frame.is_some() {
                walk.0 += 1;
                walk.1 += live as u64;
            } else {
                assert_eq!(live, 0, "vacant row {row} waits on a sub-call");
            }
        }
        walk
    }

    /// Runs `root` to quiescence on a 4x4 torus, checking after every step
    /// that each node's frontier counters and rows' pending counts equal
    /// the walk. Returns the cancelled activations and the stale replies.
    fn counters_follow_the_walk<P: RecProgram<Arg = u64>>(
        host: RecursionHost<P>,
        root: u64,
    ) -> (u64, u64) {
        let cfg = MapConfig {
            halt_on_root_reply: false,
            ..MapConfig::default()
        };
        let host = MappingHost::new(host, RoundRobinMapper::factory(), cfg);
        let mut sim = Simulation::new(Torus::new_2d(4, 4), host, SimConfig::default());
        sim.inject(0, trigger(root));
        loop {
            let report = sim.step().unwrap();
            for node in 0..16 {
                let app = &sim.state(node).app;
                let f = app.frontier();
                let counted = (f.open_records, f.pending_calls);
                assert_eq!(counted, walked(app), "node {node}, step {}", report.step);
            }
            if report.queued_after == 0 {
                break;
            }
        }
        let stats = (0..16).map(|node| sim.state(node).app.stats);
        stats.fold((0, 0), |(c, s), st| {
            (c + st.cancelled, s + st.stale_replies)
        })
    }

    /// Two batches under one parent ticket, as in
    /// `tests/flat_activation.rs`: a `100` races a short chain against a
    /// long one and calls again once the short one wins, while the long
    /// one is still out; the won row is vacant before the second call.
    fn two_batch_program() -> impl RecProgram<Arg = u64, Out = u64> {
        FnProgram::new(|n: u64| -> Rec<u64, u64> {
            match n {
                0 => Rec::done(0),
                1..=99 => Rec::call(n - 1).then(|r| Rec::done(r + 1)),
                100 => Rec::call_any(vec![1, 40], |r| *r > 0).then_any(|first| {
                    Rec::call(3).then(move |second| Rec::done(first.unwrap_or(0) * 100 + second))
                }),
                _ => Rec::call_all(vec![100, 100, 100]).then_all(|rs| Rec::done(rs.iter().sum())),
            }
        })
    }

    #[test]
    fn frontier_counters_equal_a_walk_of_the_slab_at_every_step() {
        let (cancelled, stale) =
            counters_follow_the_walk(RecursionHost::new(two_batch_program()), 200);
        assert_eq!((cancelled, stale), (0, 3));
        let (_, stale) = counters_follow_the_walk(
            RecursionHost::new(two_batch_program()).with_cancellation(),
            200,
        );
        assert_eq!(stale, 3);
        // A short chain races two long ones: its win withdraws them while
        // they are suspended, and each withdrawn link withdraws the next.
        let race = FnProgram::new(|n: u64| -> Rec<u64, u64> {
            match n {
                0 => Rec::done(1),
                1..=9 => Rec::call(n - 1).then(|r| Rec::done(r + 1)),
                _ => Rec::call_any(vec![n - 10, 8, 9], |r| *r > 0)
                    .then_any(|r| Rec::done(r.unwrap_or(0))),
            }
        });
        let (cancelled, stale) =
            counters_follow_the_walk(RecursionHost::new(race).with_cancellation(), 12);
        assert!(
            cancelled > 0 && stale > 0,
            "{cancelled} cancelled, {stale} stale"
        );
    }

    #[test]
    fn a_withdrawal_leaves_a_reissued_ticket_alone() {
        // Eight staggered races: race `k` waits on a chain `k` long, then
        // races an invalid leaf, a long chain and a short one. The leaf's
        // reply frees its slot with the same ticket, which a later race on
        // that node takes for one of its own calls; the short chain's win
        // must withdraw only what its own record still waits on.
        let staggered = || {
            FnProgram::new(|n: u64| -> Rec<u64, u64> {
                match n {
                    0 => Rec::done(0),
                    1..=99 => Rec::call(n - 1).then(|r| Rec::done(r + 1)),
                    100..=199 => Rec::call(n - 100).then(|_| {
                        Rec::call_any(vec![0, 30, 5], |r| *r > 0)
                            .then_any(|r| Rec::done(r.map_or(0, |_| 1)))
                    }),
                    _ => Rec::call_all((100..108).collect::<Vec<_>>())
                        .then_all(|rs| Rec::done(rs.iter().sum())),
                }
            })
        };
        assert_eq!(eval_local(&staggered(), 200), 8);
        let (_, stale) = counters_follow_the_walk(RecursionHost::new(staggered()), 200);
        assert_eq!(stale, 8, "each race ignores its long chain");
        let (cancelled, _) =
            counters_follow_the_walk(RecursionHost::new(staggered()).with_cancellation(), 200);
        assert!(cancelled > 0);
    }

    #[test]
    fn frontier_absorb_folds_incumbents_by_objective() {
        let a = FrontierSnapshot {
            open_records: 2,
            pending_calls: 3,
            incumbent: Some(10),
            incumbent_updates: 2,
        };
        let b = FrontierSnapshot {
            open_records: 1,
            pending_calls: 1,
            incumbent: Some(25),
            incumbent_updates: 1,
        };
        let mut max = a;
        max.absorb(&b, Some(Objective::Maximise));
        assert_eq!(max.open_records, 3);
        assert_eq!(max.pending_calls, 4);
        assert_eq!(max.incumbent, Some(25));
        assert_eq!(max.incumbent_updates, 3);
        let mut min = a;
        min.absorb(&b, Some(Objective::Minimise));
        assert_eq!(min.incumbent, Some(10));
        let mut one_sided = FrontierSnapshot::default();
        one_sided.absorb(&b, Some(Objective::Minimise));
        assert_eq!(one_sided.incumbent, Some(25));
    }
}
