//! [`RecursionHost`]: drives a [`RecProgram`] over the layer-3 ticket
//! interface, maintaining the paper's *call records* (Figure 3).
//!
//! Every suspended activation becomes a [`CallRecord`] holding the saved
//! frame, one result slot per sub-call and the join mode. Sub-calls are
//! issued through [`CallCtx::call_hint`]; their tickets index back into the
//! records. When a join completes the frame is resumed, possibly producing
//! more records, until the activation finishes and its result is replied to
//! the parent ticket.
//!
//! The records of a node form a slab: a `Vec` of rows plus a free list,
//! found through the sub-call tickets alone (`ticket -> (row, result
//! slot)`). A suspension takes a vacant row, buffers and all, and the
//! reply that completes the join gives it back, so in steady state an
//! activation costs one table insert and one removal per sub-call and no
//! allocation of its own. Rows are *not* keyed by the parent ticket: an
//! activation resumed early by an `Any` join may suspend again while its
//! first record still waits for the losing replies, and then two records
//! answer to one parent.

use hyperspace_mapping::{CallCtx, Ticket, TicketHandler, TicketMap};
use hyperspace_sim::NodeId;

use crate::program::{Join, Objective, RecProgram, Resumed, Spawn, Step};

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

impl BnbMode {
    /// Maximisation with pruning and no warm start.
    pub fn maximise() -> BnbMode {
        BnbMode {
            objective: Objective::Maximise,
            prune: true,
            initial_incumbent: None,
        }
    }

    /// Minimisation with pruning and no warm start.
    pub fn minimise() -> BnbMode {
        BnbMode {
            objective: Objective::Minimise,
            prune: true,
            initial_incumbent: None,
        }
    }
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
/// is over becomes [`Row::Vacant`] and is handed, `results` and `pending`
/// buffers included, to the next activation that suspends on this node.
struct CallRecord<P: RecProgram> {
    /// Where this activation's final result must be sent.
    parent: Ticket,
    /// The saved continuation; taken when the join fires.
    frame: Option<P::Frame>,
    /// Join mode of the outstanding batch.
    join: Join<P::Out>,
    /// Result slots of an `All` join, one per sub-call, in issue order
    /// (an `Any` join keeps no results).
    results: Vec<Option<P::Out>>,
    /// Sub-call tickets still outstanding.
    pending: Vec<Ticket>,
    /// Whether the row is in use, and how.
    row: Row,
}

/// What a slab row currently holds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Row {
    /// On the free list.
    Vacant,
    /// A suspended activation waiting on its join.
    Open,
    /// `Any` join already satisfied: remaining replies are ignored, the
    /// record lingers only until the last of them has arrived.
    Closed,
}

/// Counters exposed for experiments and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecStats {
    /// Activations started (requests serviced).
    pub started: u64,
    /// Activations completed with a reply.
    pub completed: u64,
    /// Replies that arrived for already-closed or cancelled records.
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

/// Per-node layer-4 state.
pub struct RecState<P: RecProgram> {
    /// The call-record slab; `free` lists its vacant rows.
    records: Vec<CallRecord<P>>,
    free: Vec<u32>,
    /// sub-call ticket -> (record row, result slot). A row is vacated only
    /// once no ticket maps to it, so a reply never finds a reused row.
    ticket_index: TicketMap<(u32, u32)>,
    /// parent ticket -> record row, for cancellation lookups: kept only by
    /// a host [`RecursionHost::with_cancellation`], as only such a host
    /// (every node runs the same one) ever sends a `Cancel`.
    parent_index: TicketMap<u32>,
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
            ticket_index: TicketMap::default(),
            parent_index: TicketMap::default(),
            objective: bnb.map(|m| m.objective),
            incumbent: bnb.and_then(|m| m.initial_incumbent),
            incumbent_trace: Vec::new(),
            stats: RecStats::default(),
        }
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
        let mut snapshot = FrontierSnapshot {
            incumbent: self.incumbent,
            incumbent_updates: self.stats.incumbent_updates,
            ..FrontierSnapshot::default()
        };
        for record in &self.records {
            match record.row {
                Row::Vacant => {}
                Row::Closed => snapshot.closed_records += 1,
                Row::Open => {
                    snapshot.open_records += 1;
                    snapshot.pending_calls += record.pending.len() as u64;
                }
            }
        }
        snapshot
    }
}

/// A summary of the branch-and-bound / recursion frontier held by one
/// node (or, after [`FrontierSnapshot::absorb`], a whole machine) at a
/// checkpoint boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontierSnapshot {
    /// Suspended activations still waiting on sub-calls.
    pub open_records: u64,
    /// Records whose join already fired (or were cancelled) and linger
    /// only for bookkeeping.
    pub closed_records: u64,
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
        self.closed_records += other.closed_records;
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

    /// The wrapped program.
    pub fn program(&self) -> &P {
        &self.program
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
                            Join::All => Resumed::All(Vec::new()),
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
                            pending: Vec::new(),
                            row: Row::Vacant,
                        });
                        (state.records.len() - 1) as u32
                    });
                    let rec = &mut state.records[row as usize];
                    for (slot, arg) in calls.into_iter().enumerate() {
                        let hint = self.program.weight(&arg);
                        let t = ctx.call_hint(arg, hint);
                        state.ticket_index.insert(t.raw(), (row, slot as u32));
                        rec.pending.push(t);
                    }
                    if let Join::All = join {
                        rec.results.resize_with(rec.pending.len(), || None);
                    }
                    rec.parent = parent;
                    rec.frame = Some(frame);
                    rec.join = join;
                    rec.row = Row::Open;
                    if self.cancel_losers {
                        state.parent_index.insert(parent.raw(), row);
                    }
                    return;
                }
            }
        }
    }

    /// Returns `row`, whose activation is over and whose sub-calls are all
    /// answered or withdrawn, to the free list.
    fn vacate(&self, state: &mut RecState<P>, row: u32) {
        let rec = &mut state.records[row as usize];
        debug_assert!(rec.row != Row::Vacant && rec.pending.is_empty());
        rec.row = Row::Vacant;
        rec.frame = None;
        rec.results.clear();
        // The parent ticket may by now name a successor: an activation
        // resumed by an `Any` win suspends again under the same ticket
        // while this row still waits for its stragglers.
        let parent = rec.parent.raw();
        if self.cancel_losers && state.parent_index.get(&parent) == Some(&row) {
            state.parent_index.remove(&parent);
        }
        state.free.push(row);
    }
}

impl<P: RecProgram> TicketHandler for RecursionHost<P> {
    type Req = P::Arg;
    type Resp = P::Out;
    type State = RecState<P>;

    fn init(&self, _node: NodeId) -> RecState<P> {
        RecState::new(self.bnb.as_ref())
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
        let Some((row, slot)) = state.ticket_index.remove(&ticket.raw()) else {
            // Straggler for a record already resolved/cancelled.
            state.stats.stale_replies += 1;
            return;
        };
        let rec = &mut state.records[row as usize];
        if let Some(at) = rec.pending.iter().position(|t| *t == ticket) {
            rec.pending.remove(at);
        }

        if rec.row == Row::Closed {
            state.stats.stale_replies += 1;
            if rec.pending.is_empty() {
                self.vacate(state, row);
            }
            return;
        }

        match rec.join {
            Join::All => {
                rec.results[slot as usize] = Some(resp);
                if rec.pending.is_empty() {
                    let results: Vec<P::Out> = rec
                        .results
                        .drain(..)
                        .map(|r| r.expect("all slots filled"))
                        .collect();
                    let frame = rec.frame.take().expect("frame present until resumed");
                    let parent = rec.parent;
                    self.vacate(state, row);
                    let step = self.program.resume(frame, Resumed::All(results));
                    self.drive(state, step, parent, ctx);
                }
            }
            Join::Any(valid) => {
                if valid(&resp) {
                    // First valid result wins; ignore (or cancel) the rest.
                    rec.row = Row::Closed;
                    if !rec.pending.is_empty() {
                        state.stats.speculative_wins += 1;
                    }
                    let frame = rec.frame.take().expect("frame present until resumed");
                    let parent = rec.parent;
                    if self.cancel_losers {
                        for t in rec.pending.drain(..) {
                            state.ticket_index.remove(&t.raw());
                            ctx.cancel(t);
                            state.stats.cancels_sent += 1;
                        }
                    }
                    if rec.pending.is_empty() {
                        self.vacate(state, row);
                    }
                    let step = self.program.resume(frame, Resumed::Any(Some(resp)));
                    self.drive(state, step, parent, ctx);
                } else if rec.pending.is_empty() {
                    // Everything returned, nothing valid: null result.
                    let frame = rec.frame.take().expect("frame present until resumed");
                    let parent = rec.parent;
                    self.vacate(state, row);
                    let step = self.program.resume(frame, Resumed::Any(None));
                    self.drive(state, step, parent, ctx);
                }
            }
        }
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
        let Some(row) = state.parent_index.remove(&reply_to.raw()) else {
            // Already replied (reply and cancel crossed in flight) — or the
            // request never started an activation here. Nothing to do.
            return;
        };
        state.stats.cancelled += 1;
        for t in state.records[row as usize].pending.drain(..) {
            state.ticket_index.remove(&t.raw());
            ctx.cancel(t);
            state.stats.cancels_sent += 1;
        }
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
                    calls: vec![n - 1, n - 1],
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

    #[test]
    fn frontier_absorb_folds_incumbents_by_objective() {
        let a = FrontierSnapshot {
            open_records: 2,
            closed_records: 1,
            pending_calls: 3,
            incumbent: Some(10),
            incumbent_updates: 2,
        };
        let b = FrontierSnapshot {
            open_records: 1,
            closed_records: 0,
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
