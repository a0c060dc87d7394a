//! The epoch-synchronised race loop and knowledge bus. The race reads
//! members only through [`MemberDrive`]: units, incumbents and clauses
//! at epoch barriers; it never touches a member's machine. Observers
//! see each epoch's progress and bus traffic through `on_epoch`.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use hyperspace_core::{
    EngineSpec, JobParams, LimitKind, MapperSpec, MemberPlan, ObjectiveSpec, PortfolioSpec,
    PruneSpec, RunSlice, SliceOutcome, StrategySpec, TopologySpec,
};
use hyperspace_recursion::RecProgram;
use hyperspace_sat::{Cnf, DpllProgram, Lit, SubProblem, Verdict};
use hyperspace_sim::{ObsHandle, RunOutcome, StopHandle};

use crate::member::{cdcl_config, CdclMember, ChainMember, EpochStatus, MemberDrive, MeshMember};
use crate::report::{MemberReport, PortfolioReport};

/// Races a [`PortfolioSpec`]'s members over one job.
///
/// The runner is the spec (*what* to race), a [`JobParams`] (the machine
/// every member shares: topology, base mapper and prune policy,
/// objective, cancellation, step cap, root placement, stop handle,
/// observer) and a thread count; each attempt's [`StrategySpec`]
/// diversifies on top of the machine. The race advances in sync epochs
/// and its full [`PortfolioReport`] is bit-identical across
/// [`PortfolioRunner::threads`] values and member backend choices.
pub struct PortfolioRunner {
    spec: PortfolioSpec,
    /// The shared machine. Its own `portfolio` slot stays empty (the
    /// spec lives beside it); `backend` is not read — members pick their
    /// own backends — and `checkpoint` only sizes the race's slices.
    params: JobParams,
    threads: usize,
}

impl PortfolioRunner {
    /// A runner with the stack defaults ([`JobParams::default`]: the
    /// paper's 14x14 torus, adaptive least-busy mapping, a one-million
    /// step cap, root at node 0) and one thread per member (capped by
    /// the machine).
    pub fn new(spec: PortfolioSpec) -> PortfolioRunner {
        PortfolioRunner::on(spec, JobParams::default())
    }

    /// A runner configured from a job's parameters (the service path,
    /// and the way to set machine knobs without a setter here —
    /// cancellation, step cap, root placement): the job's portfolio on
    /// the job's machine. Returns `None` when the params carry no
    /// portfolio.
    pub fn from_params(params: &JobParams) -> Option<PortfolioRunner> {
        let mut params = params.clone();
        let spec = params.portfolio.take()?;
        Some(PortfolioRunner::on(spec, params))
    }

    fn on(spec: PortfolioSpec, params: JobParams) -> PortfolioRunner {
        let threads = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
            .min(spec.members.len().max(1));
        PortfolioRunner {
            spec,
            params,
            threads,
        }
    }

    /// The portfolio being raced.
    pub fn spec(&self) -> &PortfolioSpec {
        &self.spec
    }

    /// Selects the machine topology shared by all members.
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.params.topology = spec;
        self
    }

    /// Selects the base mapping policy (members may override).
    pub fn mapper(mut self, spec: MapperSpec) -> Self {
        self.params.mapper = spec;
        self
    }

    /// Selects the optimisation objective (enables the incumbent bus).
    pub fn objective(mut self, spec: ObjectiveSpec) -> Self {
        self.params.objective = spec;
        self
    }

    /// The base pruning policy. Members whose own
    /// [`StrategySpec::prune`] is [`PruneSpec::Off`] (the strategy
    /// default, meaning "no opinion") inherit it; members with an
    /// explicit policy — warm starts in particular — keep theirs.
    pub fn prune(mut self, spec: PruneSpec) -> Self {
        self.params.prune = spec;
        self
    }

    /// How many threads an epoch's fork-join steps the members on: the
    /// caller's and up to `threads − 1` helpers the calling thread keeps
    /// from race to race (`1` spawns nothing). Any value produces the
    /// same report; this only trades wall-clock for cores.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches an external stop handle, polled at epoch barriers: when
    /// it trips, the race ends with [`RunOutcome::Stopped`] and every
    /// open member is cancelled.
    pub fn stop(mut self, handle: StopHandle) -> Self {
        self.params.stop = Some(handle);
        self
    }

    /// Attaches a passive observer: the race reports each member's
    /// progress and the knowledge-bus traffic at every epoch barrier.
    /// Observation never changes the race (reports stay bit-identical
    /// with it on or off). Member engines run un-observed — a race's
    /// live signal is its epoch cadence, not member step noise.
    pub fn observer(mut self, obs: ObsHandle) -> Self {
        self.params.obs = obs;
        self
    }

    /// Races the portfolio over a SAT instance. Mesh members run the
    /// distributed DPLL program under their strategy knobs; CDCL members
    /// run the resumable clause-learning solver and exchange learned
    /// clauses at every epoch barrier.
    pub fn run_sat(&self, cnf: &Cnf) -> PortfolioReport {
        let mut race = self.start_sat(cnf);
        race.run_epochs(u64::MAX);
        race.finish()
    }

    /// Begins a SAT race without driving it: the returned
    /// [`PortfolioRace`] advances epoch by epoch under the caller's
    /// control and can be suspended between epochs indefinitely.
    pub fn start_sat(&self, cnf: &Cnf) -> PortfolioRace {
        // SAT is a decision problem: its mesh members always enumerate,
        // whatever objective the job names for the incumbent bus.
        let machine = JobParams {
            objective: ObjectiveSpec::Enumerate,
            ..self.params.clone()
        };
        let members = self
            .spec
            .members
            .iter()
            .map(|plan| sat_plan_member(&machine, cnf, plan))
            .collect();
        self.begin(members)
    }

    /// Races the portfolio over an arbitrary recursive program; `make`
    /// builds each member's program from its index and strategy (unit
    /// programs just ignore both). Only mesh members are meaningful
    /// here.
    ///
    /// # Panics
    ///
    /// If the spec contains a CDCL member — clause exchange needs a SAT
    /// workload ([`PortfolioRunner::run_sat`]).
    pub fn run_mesh<P, F>(&self, make: F, root_arg: P::Arg) -> PortfolioReport
    where
        P: RecProgram,
        P::Arg: Clone,
        P::Out: std::fmt::Debug,
        F: Fn(usize, &StrategySpec) -> P,
    {
        let mut race = self.start_mesh(make, root_arg);
        race.run_epochs(u64::MAX);
        race.finish()
    }

    /// Begins a mesh race without driving it (see
    /// [`PortfolioRunner::start_sat`]).
    ///
    /// # Panics
    ///
    /// If the spec contains a CDCL member or an `or(...)` chain — clause
    /// exchange and attempt hand-over need a SAT workload.
    pub fn start_mesh<P, F>(&self, make: F, root_arg: P::Arg) -> PortfolioRace
    where
        P: RecProgram,
        P::Arg: Clone,
        P::Out: std::fmt::Debug,
        F: Fn(usize, &StrategySpec) -> P,
    {
        let members = self
            .spec
            .members
            .iter()
            .enumerate()
            .map(|(id, plan)| {
                let [attempt] = plan.attempts.as_slice() else {
                    panic!("member {id} is an or(...) chain; only SAT portfolios race chains");
                };
                match attempt.engine {
                    EngineSpec::Mesh => Box::new(MeshMember::new(
                        make(id, attempt),
                        root_arg.clone(),
                        attempt,
                        &self.params,
                    )) as Box<dyn MemberDrive>,
                    EngineSpec::Cdcl { .. } => panic!(
                        "member {id} is a CDCL strategy; only SAT portfolios race CDCL members"
                    ),
                }
            })
            .collect();
        self.begin(members)
    }

    /// Wraps freshly assembled members into a suspended race.
    fn begin(&self, members: Vec<Box<dyn MemberDrive>>) -> PortfolioRace {
        let n = members.len();
        assert!(n > 0, "a portfolio needs at least one member");
        let epoch_len = self.spec.epoch_steps.max(1);
        // One checkpoint interval's worth of whole epochs per slice; `Off`
        // is one slice spanning the whole race — the very
        // `run_epochs(u64::MAX)` call `run_sat` makes.
        let epochs_per_slice = match self.params.checkpoint.interval() {
            Some(steps) => steps.div_ceil(epoch_len).max(1),
            None => u64::MAX,
        };
        PortfolioRace {
            epoch_len,
            epochs_per_slice,
            max_len: self.spec.max_clause_len as usize,
            max_lbd: self.spec.max_clause_lbd as usize,
            objective: self.params.objective,
            max_steps: self.params.max_steps,
            threads: self.threads,
            stop: self.params.stop.clone(),
            obs: self.params.obs.clone(),
            strategies: self.spec.members.iter().map(|p| p.describe()).collect(),
            members,
            st: RaceState::new(n),
        }
    }
}

/// Assembles one SAT attempt: a mesh DPLL stack (discrepancy limits
/// scope the root problem, any limit makes completion conditional on a
/// `Sat` verdict) or a CDCL solver (time limits cap its operations,
/// node limits its decisions).
fn sat_attempt(machine: &JobParams, cnf: &Cnf, spec: &StrategySpec) -> Box<dyn MemberDrive> {
    match spec.engine {
        EngineSpec::Mesh => {
            let program = DpllProgram::new(spec.seeded_heuristic())
                .with_mode(spec.simplify)
                .with_polarity(spec.polarity);
            let mut root = SubProblem::root(cnf.clone());
            if let Some(d) = spec.tightest(LimitKind::Discrepancy) {
                root = root.with_discrepancy(d);
            }
            let member = MeshMember::new(program, root, spec, machine);
            if spec.limits.is_empty() {
                Box::new(member)
            } else {
                // A limited search proves nothing by running dry: only a
                // model is conclusive, `Unsat` books as exhaustion.
                Box::new(member.with_acceptance(|v: &Verdict| v.is_sat()))
            }
        }
        EngineSpec::Cdcl { restart } => {
            let time = spec.tightest(LimitKind::Time).unwrap_or(u64::MAX);
            let max_ops = time.min(machine.max_steps);
            Box::new(
                CdclMember::new(cnf, cdcl_config(spec, restart), max_ops)
                    .with_max_decisions(spec.tightest(LimitKind::Nodes)),
            )
        }
    }
}

/// Assembles one racing member from its plan: single attempts run
/// directly, `or(...)` chains wrap a lazy attempt factory (which owns
/// its inputs, since it rebuilds attempts mid-race).
fn sat_plan_member(machine: &JobParams, cnf: &Cnf, plan: &MemberPlan) -> Box<dyn MemberDrive> {
    if let [attempt] = plan.attempts.as_slice() {
        return sat_attempt(machine, cnf, attempt);
    }
    let machine = machine.clone();
    let cnf = cnf.clone();
    let attempts = plan.attempts.clone();
    Box::new(ChainMember::new(
        attempts.len(),
        Box::new(move |i| sat_attempt(&machine, &cnf, &attempts[i])),
    ))
}

/// The coordinator's persistent bookkeeping, carried across
/// [`PortfolioRace::run_epochs`] calls so a race can be suspended at any
/// epoch barrier and resumed later without losing bus state.
struct RaceState {
    open: Vec<bool>,
    /// `(finish units, member id)` pairs; sorted ascending once the race
    /// is decided — the head is the winner.
    finished: Vec<(u64, usize)>,
    finished_epoch: Vec<Option<u64>>,
    clauses_exported: Vec<u64>,
    clauses_imported: Vec<u64>,
    bounds_exported: Vec<u64>,
    bounds_imported: Vec<u64>,
    seen_clauses: HashSet<Vec<Lit>>,
    bus_best: Option<i64>,
    bus_clauses: u64,
    bus_clause_deliveries: u64,
    bus_bounds: u64,
    bus_bound_deliveries: u64,
    epochs: u64,
    race_outcome: RunOutcome,
    decided: bool,
}

impl RaceState {
    fn new(n: usize) -> RaceState {
        RaceState {
            open: vec![true; n],
            finished: Vec::new(),
            finished_epoch: vec![None; n],
            clauses_exported: vec![0; n],
            clauses_imported: vec![0; n],
            bounds_exported: vec![0; n],
            bounds_imported: vec![0; n],
            seen_clauses: HashSet::new(),
            bus_best: None,
            bus_clauses: 0,
            bus_clause_deliveries: 0,
            bus_bounds: 0,
            bus_bound_deliveries: 0,
            epochs: 0,
            race_outcome: RunOutcome::MaxSteps,
            decided: false,
        }
    }
}

/// A portfolio race in flight, suspended between sync epochs.
///
/// The race's members checkpoint at their existing epoch barriers: every
/// [`PortfolioRace::run_epochs`] call advances a bounded number of
/// epochs and then parks the whole race — live member machines plus bus
/// bookkeeping — inertly in this value. Driving a race in chunks of any
/// size yields a [`PortfolioReport`] bit-identical to an uninterrupted
/// [`PortfolioRunner::run_sat`]/[`PortfolioRunner::run_mesh`] call: the
/// same winner, the same bus counters (enforced by the checkpoint
/// equivalence suite). This is what makes whole portfolio races
/// suspendable/preemptible service jobs: the race *is* a [`RunSlice`],
/// each slice one checkpoint interval's worth of epochs.
pub struct PortfolioRace {
    epoch_len: u64,
    epochs_per_slice: u64,
    max_len: usize,
    max_lbd: usize,
    objective: ObjectiveSpec,
    max_steps: u64,
    threads: usize,
    stop: Option<StopHandle>,
    obs: ObsHandle,
    strategies: Vec<String>,
    members: Vec<Box<dyn MemberDrive>>,
    st: RaceState,
}

impl PortfolioRace {
    /// Advances the race by up to `budget` sync epochs (or until it is
    /// decided) and returns whether it is now decided. Between epochs the
    /// race is plain owned data, resumable at any later time.
    pub fn run_epochs(&mut self, budget: u64) -> bool {
        for _ in 0..budget {
            if self.st.decided {
                break;
            }
            self.run_epoch();
        }
        self.st.decided
    }

    /// One sync epoch: members step concurrently to the epoch's cap
    /// ([`step_members`]), then completion is checked and knowledge
    /// exchanged on this thread alone, in member-id order.
    fn run_epoch(&mut self) {
        if self.stop.as_ref().is_some_and(|s| s.should_stop()) {
            self.st.race_outcome = RunOutcome::Stopped;
            return self.settle();
        }
        let cap = self
            .st
            .epochs
            .saturating_add(1)
            .saturating_mul(self.epoch_len)
            .min(self.max_steps);
        let statuses = step_members(&mut self.members, self.threads, cap);
        let st = &mut self.st;
        st.epochs += 1;
        for (id, status) in statuses.into_iter().enumerate() {
            if !st.open[id] {
                continue;
            }
            match status {
                EpochStatus::Running => {}
                EpochStatus::Finished => {
                    st.open[id] = false;
                    st.finished_epoch[id] = Some(st.epochs - 1);
                    st.finished.push((self.members[id].units(), id));
                }
                EpochStatus::Exhausted | EpochStatus::Stopped => st.open[id] = false,
            }
        }
        // Per-epoch observation captures each member's progress plus
        // what *this* epoch's bus moved (deltas of the cumulative export
        // counters; zero when the race is decided at the barrier and no
        // bus runs). Purely passive: nothing flows back into the race.
        let before = self
            .obs
            .enabled()
            .then(|| (st.clauses_exported.clone(), st.bounds_exported.clone()));
        let decided = !st.finished.is_empty() || st.open.iter().all(|o| !o);
        if !decided {
            self.exchange_clauses();
            self.exchange_incumbents();
        }
        if let Some((clauses0, bounds0)) = before {
            for (id, member) in self.members.iter().enumerate() {
                self.obs.on_epoch(
                    self.st.epochs,
                    id,
                    member.units(),
                    self.st.clauses_exported[id] - clauses0[id],
                    self.st.bounds_exported[id] - bounds0[id],
                );
            }
        }
        if decided {
            self.settle();
        }
    }

    /// The clause bus: collect fresh (bus-unseen) lemmas from every open
    /// member, then fan each out to every *other* open member.
    fn exchange_clauses(&mut self) {
        let st = &mut self.st;
        let mut fresh: Vec<(usize, hyperspace_sat::Clause)> = Vec::new();
        for (id, member) in self.members.iter_mut().enumerate() {
            if !st.open[id] {
                continue;
            }
            for clause in member.export_clauses(self.max_len, self.max_lbd) {
                let mut key: Vec<Lit> = clause.lits().to_vec();
                key.sort_unstable();
                key.dedup();
                if st.seen_clauses.insert(key) {
                    st.clauses_exported[id] += 1;
                    st.bus_clauses += 1;
                    fresh.push((id, clause));
                }
            }
        }
        if fresh.is_empty() {
            return;
        }
        for (id, member) in self.members.iter_mut().enumerate() {
            if !st.open[id] {
                continue;
            }
            let batch: Vec<&hyperspace_sat::Clause> = fresh
                .iter()
                .filter(|(src, _)| *src != id)
                .map(|(_, c)| c)
                .collect();
            let absorbed = member.import_clauses(&batch);
            st.clauses_imported[id] += absorbed;
            st.bus_clause_deliveries += absorbed;
        }
    }

    /// The incumbent bus (optimisation jobs): publish the best value any
    /// open member holds, then re-inject it into trailing members.
    fn exchange_incumbents(&mut self) {
        let Some(obj) = self.objective.objective() else {
            return;
        };
        let st = &mut self.st;
        let mut best: Option<(i64, usize)> = None;
        for (id, member) in self.members.iter().enumerate() {
            if !st.open[id] {
                continue;
            }
            if let Some(v) = member.best_incumbent() {
                if best.is_none_or(|(b, _)| obj.improves(v, b)) {
                    best = Some((v, id));
                }
            }
        }
        let Some((value, contributor)) = best else {
            return;
        };
        if st.bus_best.is_none_or(|b| obj.improves(value, b)) {
            st.bus_best = Some(value);
            st.bus_bounds += 1;
            st.bounds_exported[contributor] += 1;
        }
        for (id, member) in self.members.iter_mut().enumerate() {
            let trailing = |mine: i64| obj.improves(value, mine);
            if st.open[id] && member.best_incumbent().is_none_or(trailing) {
                member.inject_bound(value);
                st.bounds_imported[id] += 1;
                st.bus_bound_deliveries += 1;
            }
        }
    }

    /// Decides the race: order the finishers (earliest answer wins,
    /// lowest id on ties) and cancel every still-open member through its
    /// stop handle.
    fn settle(&mut self) {
        self.st.decided = true;
        self.st.finished.sort_unstable();
        for (member, still_open) in self.members.iter_mut().zip(&mut self.st.open) {
            if std::mem::take(still_open) {
                member.cancel();
            }
        }
    }

    /// Folds the race into its report. On a decided race this is the
    /// exact report an uninterrupted run would have produced; on a race
    /// abandoned mid-suspension every member is cancelled first and the
    /// race books as [`RunOutcome::Stopped`].
    pub fn finish(mut self) -> PortfolioReport {
        if !self.st.decided {
            self.st.race_outcome = RunOutcome::Stopped;
            self.settle();
        }
        let PortfolioRace {
            objective,
            strategies,
            members,
            st,
            ..
        } = self;
        let winner = st.finished.first().map(|&(_, id)| id);
        let objective = objective.objective();
        let mut reports: Vec<MemberReport> = Vec::with_capacity(members.len());
        for (id, member) in members.into_iter().enumerate() {
            let units = member.units();
            let summary = member.finish();
            let finish_units = st.finished_epoch[id].map(|_| units);
            reports.push(MemberReport {
                id,
                strategy: strategies[id].clone(),
                summary,
                finish_units,
                finished_epoch: st.finished_epoch[id],
                clauses_exported: st.clauses_exported[id],
                clauses_imported: st.clauses_imported[id],
                bounds_exported: st.bounds_exported[id],
                bounds_imported: st.bounds_imported[id],
            });
        }

        let outcome = match winner {
            Some(id) => reports[id].summary.outcome,
            None => st.race_outcome,
        };
        // The authoritative incumbent folds every member's final view
        // (winners may have improved past the last bus exchange).
        let best_incumbent = objective.and_then(|obj| {
            reports
                .iter()
                .filter_map(|m| m.summary.best_incumbent)
                .reduce(|a, b| obj.better(a, b))
        });

        PortfolioReport {
            winner,
            outcome,
            epochs: st.epochs,
            best_incumbent,
            clauses_shared: st.bus_clauses,
            clauses_imported: st.bus_clause_deliveries,
            bounds_shared: st.bus_bounds,
            bounds_imported: st.bus_bound_deliveries,
            members: reports,
        }
    }
}

impl RunSlice for PortfolioRace {
    fn run_slice(mut self: Box<Self>) -> SliceOutcome {
        if self.run_epochs(self.epochs_per_slice) {
            SliceOutcome::Finished(self.finish().into_summary())
        } else {
            SliceOutcome::Yielded(self)
        }
    }

    fn steps_done(&self) -> u64 {
        self.st.epochs.saturating_mul(self.epoch_len)
    }
}

/// What a faulting member leaves behind: its caught panic payload.
type Fault = Box<dyn std::any::Any + Send>;

/// A chunk of members, by value, as a helper steps them.
type Chunk = Vec<Box<dyn MemberDrive>>;

/// What stepping a chunk leaves: the chunk, its members' statuses and
/// its caught fault.
type Stepped = (Chunk, Vec<EpochStatus>, Option<Fault>);

/// A race driver thread that outlives the race: it steps each chunk it
/// receives to the cap sent with it and sends the chunk back. Its
/// thread-local free lists (recycled sub-problem bodies) stay warm from
/// one race to the next.
struct Helper {
    chunks: Sender<(Chunk, u64)>,
    stepped: Receiver<Stepped>,
    thread: JoinHandle<()>,
}

impl Helper {
    fn spawn() -> Helper {
        let (chunks, inbox) = channel::<(Chunk, u64)>();
        let (outbox, stepped) = channel();
        let thread = std::thread::spawn(move || {
            // Ends when the owner drops its end of either channel.
            while let Ok((mut chunk, cap)) = inbox.recv() {
                let (statuses, fault) = step_chunk(&mut chunk, cap);
                if outbox.send((chunk, statuses, fault)).is_err() {
                    break;
                }
            }
        });
        Helper {
            chunks,
            stepped,
            thread,
        }
    }
}

/// The helpers a calling thread steps chunks 1.. on, spawned as its races
/// first need them. They exit, joined, when the thread-local drops at the
/// calling thread's end.
#[derive(Default)]
struct Helpers(Vec<Helper>);

impl Drop for Helpers {
    fn drop(&mut self) {
        // Dropping a helper's channels ends its loop.
        let threads: Vec<_> = self.0.drain(..).map(|helper| helper.thread).collect();
        for thread in threads {
            let _ = thread.join();
        }
    }
}

thread_local! {
    static HELPERS: RefCell<Helpers> = RefCell::new(Helpers::default());
}

/// Steps `members` to `cap` in order inside one `catch_unwind`: a panic
/// stops the chunk there and leaves the rest `Running`.
fn step_chunk(members: &mut [Box<dyn MemberDrive>], cap: u64) -> (Vec<EpochStatus>, Option<Fault>) {
    let mut statuses = vec![EpochStatus::Running; members.len()];
    let fault = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for (member, status) in members.iter_mut().zip(&mut statuses) {
            *status = member.run_epoch(cap);
        }
    }))
    .err();
    (statuses, fault)
}

/// Steps every member to the absolute unit `cap` as one fork-join and
/// returns their statuses in member-id order. The members split into
/// chunks of consecutive ids: chunk 0 runs on the calling thread, chunk
/// `k` moves by value to the calling thread's helper `k − 1` (a
/// persistent thread, spawned the first time a race needs it; `threads
/// == 1` sends nothing) and comes back with its statuses, and receiving
/// every chunk back is the rendezvous. A member panic is contained in
/// its chunk — the chunk stops there, siblings finish their epoch — and
/// once every chunk is back in place the *lowest* chunk's payload is
/// re-raised with its original message, exactly as a direct single-stack
/// run would fail, so which fault a race reports never depends on
/// `threads` or on wall-clock arrival.
fn step_members(members: &mut Chunk, threads: usize, cap: u64) -> Vec<EpochStatus> {
    let n = members.len();
    let chunk = n.div_ceil(threads.clamp(1, n));
    let sent = n.div_ceil(chunk) - 1;
    // Taken out for the epoch, so a member may race a portfolio of its own.
    let mut helpers = HELPERS.take();
    while helpers.0.len() < sent {
        helpers.0.push(Helper::spawn());
    }
    for (k, helper) in helpers.0[..sent].iter().enumerate().rev() {
        let tail = members.split_off((k + 1) * chunk);
        helper
            .chunks
            .send((tail, cap))
            .expect("a race helper outlives its owner's races");
    }
    let (mut statuses, fault) = step_chunk(members, cap);
    let mut faults = vec![fault];
    for helper in &helpers.0[..sent] {
        let (mut back, chunk_statuses, fault) = helper
            .stepped
            .recv()
            .expect("a race helper sends back every chunk it receives");
        members.append(&mut back);
        statuses.extend(chunk_statuses);
        faults.push(fault);
    }
    HELPERS.set(helpers);
    if let Some(payload) = faults.into_iter().flatten().next() {
        std::panic::resume_unwind(payload);
    }
    statuses
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    use hyperspace_core::RunSummary;
    use hyperspace_sat::Clause;

    use super::*;

    /// A member that finishes in its first epoch and records, under its
    /// id, the thread that stepped it.
    struct Recorder {
        id: usize,
        steps: Arc<Mutex<Vec<(usize, ThreadId)>>>,
    }

    impl MemberDrive for Recorder {
        fn run_epoch(&mut self, _cap: u64) -> EpochStatus {
            let on = std::thread::current().id();
            self.steps.lock().unwrap().push((self.id, on));
            EpochStatus::Finished
        }

        fn units(&self) -> u64 {
            0
        }

        fn best_incumbent(&self) -> Option<i64> {
            None
        }

        fn inject_bound(&mut self, _value: i64) {}

        fn export_clauses(&mut self, _max_len: usize, _max_lbd: usize) -> Vec<Clause> {
            Vec::new()
        }

        fn import_clauses(&mut self, _clauses: &[&Clause]) -> u64 {
            0
        }

        fn cancel(&mut self) {}

        fn finish(self: Box<Self>) -> RunSummary {
            unreachable!("the races here are dropped, not folded")
        }
    }

    #[test]
    fn consecutive_races_step_chunk_1_on_the_same_helper() {
        let spec = PortfolioSpec::new(vec![StrategySpec::mesh(); 2]);
        let runner = PortfolioRunner::new(spec).threads(2);
        let steps = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..2 {
            let members = (0..2).map(|id| {
                let steps = Arc::clone(&steps);
                Box::new(Recorder { id, steps }) as Box<dyn MemberDrive>
            });
            let mut race = runner.begin(members.collect());
            assert!(race.run_epochs(u64::MAX));
        }
        let steps = steps.lock().unwrap();
        let stepped_on = |id: usize| -> Vec<ThreadId> {
            let mine = steps.iter().filter(|&&(member, _)| member == id);
            mine.map(|&(_, on)| on).collect()
        };
        let caller = std::thread::current().id();
        assert_eq!(stepped_on(0), [caller, caller]);
        let chunk_1 = stepped_on(1);
        assert_eq!(chunk_1.len(), 2);
        assert_ne!(chunk_1[0], caller);
        assert_eq!(
            chunk_1[0], chunk_1[1],
            "one helper steps chunk 1 in both races"
        );
    }
}
