//! The epoch-synchronised race loop and knowledge bus.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Barrier, Mutex};

use hyperspace_core::{
    CheckpointMeta, EngineSpec, JobParams, LimitKind, MapperSpec, MemberPlan, ObjectiveSpec,
    PortfolioSpec, PruneSpec, RunSlice, SliceOutcome, StrategySpec, TopologySpec,
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
/// observer) and a driver-thread count; each attempt's [`StrategySpec`]
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
    /// step cap, root at node 0) and one driver thread per member
    /// (capped by the machine).
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

    /// Driver threads stepping members within an epoch. Any value
    /// produces the same report; this only trades wall-clock for cores.
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
            members: members.into_iter().map(Mutex::new).collect(),
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
            if let Some(d) = spec
                .limits
                .iter()
                .filter(|l| l.kind == LimitKind::Discrepancy)
                .map(|l| l.n)
                .min()
            {
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
            let max_ops = spec
                .limits
                .iter()
                .filter(|l| l.kind == LimitKind::Time)
                .map(|l| l.n)
                .fold(machine.max_steps, u64::min);
            let max_decisions = spec
                .limits
                .iter()
                .filter(|l| l.kind == LimitKind::Nodes)
                .map(|l| l.n)
                .min();
            Box::new(
                CdclMember::new(cnf, cdcl_config(spec, restart), max_ops)
                    .with_max_decisions(max_decisions),
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
    members: Vec<Mutex<Box<dyn MemberDrive>>>,
    st: RaceState,
}

impl PortfolioRace {
    /// The best incumbent any member currently holds (optimisation
    /// portfolios; `None` otherwise). Callable between epochs.
    pub fn best_incumbent(&self) -> Option<i64> {
        let obj = self.objective.objective()?;
        self.members
            .iter()
            .filter_map(|m| m.lock().expect("member lock poisoned").best_incumbent())
            .reduce(|a, b| obj.better(a, b))
    }

    /// Advances the race by up to `budget` sync epochs (or until it is
    /// decided) and returns whether it is now decided. Epochs step
    /// members concurrently on scoped driver threads and meet at
    /// barriers where completion is checked and knowledge exchanged, in
    /// member-id order; `threads == 1` degenerates to a spawn-free
    /// inline loop through the same code.
    pub fn run_epochs(&mut self, budget: u64) -> bool {
        if self.st.decided || budget == 0 {
            return self.st.decided;
        }
        let n = self.members.len();
        let threads = self.threads.clamp(1, n);
        let chunk = n.div_ceil(threads);
        // Recompute the driver count from the chunking (`n = 5,
        // threads = 4` yields only 3 non-empty chunks; the barrier must
        // match exactly).
        let drivers = n.div_ceil(chunk);
        let shared = DriverShared {
            barrier: Barrier::new(drivers),
            cap: AtomicU64::new(0),
            done: AtomicBool::new(false),
            statuses: (0..n)
                .map(|_| AtomicU8::new(status_code(EpochStatus::Running)))
                .collect(),
            panic: Mutex::new(None),
        };
        let members = &self.members;
        let st = &mut self.st;
        let epoch_len = self.epoch_len;
        let max_len = self.max_len;
        let max_lbd = self.max_lbd;
        let objective = self.objective.objective();
        let max_steps = self.max_steps;
        let stop = self.stop.as_ref();
        let obs = &self.obs;
        std::thread::scope(|scope| {
            for d in 1..drivers {
                let shared = &shared;
                let range = d * chunk..((d + 1) * chunk).min(n);
                scope.spawn(move || drive_members(members, shared, range));
            }
            let own = 0..chunk.min(n);
            let lock = |id: usize| members[id].lock().expect("member lock poisoned");
            let mut ran = 0u64;
            loop {
                if ran >= budget {
                    break; // suspended at an epoch barrier, resumable
                }
                if stop.is_some_and(|s| s.should_stop()) {
                    st.race_outcome = RunOutcome::Stopped;
                    st.decided = true;
                    break;
                }
                let cap = st
                    .epochs
                    .saturating_add(1)
                    .saturating_mul(epoch_len)
                    .min(max_steps);
                shared.cap.store(cap, Ordering::SeqCst);
                shared.barrier.wait(); // start of epoch: cap visible everywhere
                drive_range(members, &shared, own.clone());
                shared.barrier.wait(); // end of epoch: statuses published
                if shared.panic.lock().expect("panic slot").is_some() {
                    break;
                }
                st.epochs += 1;
                ran += 1;
                for (id, slot) in shared.statuses.iter().enumerate() {
                    if !st.open[id] {
                        continue;
                    }
                    match status_from(slot.load(Ordering::SeqCst)) {
                        EpochStatus::Running => {}
                        EpochStatus::Finished => {
                            st.open[id] = false;
                            st.finished_epoch[id] = Some(st.epochs - 1);
                            st.finished.push((lock(id).units(), id));
                        }
                        EpochStatus::Exhausted | EpochStatus::Stopped => st.open[id] = false,
                    }
                }
                // Per-epoch observation captures each member's progress
                // plus what *this* epoch's bus moved (deltas of the
                // cumulative export counters). Purely passive: nothing
                // flows back into the race.
                let before = obs
                    .enabled()
                    .then(|| (st.clauses_exported.clone(), st.bounds_exported.clone()));
                if !st.finished.is_empty() || st.open.iter().all(|o| !o) {
                    st.decided = true;
                    if obs.enabled() {
                        // Decided at the barrier: no bus ran this epoch,
                        // so the traffic deltas are zero by definition.
                        for id in 0..n {
                            obs.on_epoch(st.epochs, id, lock(id).units(), 0, 0);
                        }
                    }
                    break;
                }

                // Knowledge bus, in member-id order (drivers are parked
                // at the epoch barrier, so the locks are uncontended).
                // Learned clauses first: collect fresh (bus-unseen)
                // lemmas from every open member...
                let mut fresh: Vec<(usize, hyperspace_sat::Clause)> = Vec::new();
                for id in 0..n {
                    if !st.open[id] {
                        continue;
                    }
                    for clause in lock(id).export_clauses(max_len, max_lbd) {
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
                // ...then fan each lemma out to every *other* open
                // member.
                if !fresh.is_empty() {
                    for id in 0..n {
                        if !st.open[id] {
                            continue;
                        }
                        let batch: Vec<&hyperspace_sat::Clause> = fresh
                            .iter()
                            .filter(|(src, _)| *src != id)
                            .map(|(_, c)| c)
                            .collect();
                        let absorbed = lock(id).import_clauses(&batch);
                        st.clauses_imported[id] += absorbed;
                        st.bus_clause_deliveries += absorbed;
                    }
                }

                // Incumbent bus (optimisation jobs): publish the best
                // value any member holds, then re-inject it into
                // trailing members.
                if let Some(obj) = objective {
                    let mut best: Option<(i64, usize)> = None;
                    for (id, _) in st.open.iter().enumerate().filter(|(_, o)| **o) {
                        if let Some(v) = lock(id).best_incumbent() {
                            best = Some(match best {
                                None => (v, id),
                                Some((b, _)) if obj.improves(v, b) => (v, id),
                                Some(keep) => keep,
                            });
                        }
                    }
                    if let Some((value, contributor)) = best {
                        let improved = match st.bus_best {
                            None => true,
                            Some(b) => obj.improves(value, b),
                        };
                        if improved {
                            st.bus_best = Some(value);
                            st.bus_bounds += 1;
                            st.bounds_exported[contributor] += 1;
                        }
                        for id in 0..n {
                            if !st.open[id] {
                                continue;
                            }
                            let mut member = lock(id);
                            let trailing = match member.best_incumbent() {
                                None => true,
                                Some(mine) => obj.improves(value, mine),
                            };
                            if trailing {
                                member.inject_bound(value);
                                st.bounds_imported[id] += 1;
                                st.bus_bound_deliveries += 1;
                            }
                        }
                    }
                }

                if let Some((clauses0, bounds0)) = before {
                    for id in 0..n {
                        obs.on_epoch(
                            st.epochs,
                            id,
                            lock(id).units(),
                            st.clauses_exported[id] - clauses0[id],
                            st.bounds_exported[id] - bounds0[id],
                        );
                    }
                }
            }
            // Release the parked drivers whatever happened.
            shared.done.store(true, Ordering::SeqCst);
            shared.barrier.wait();
        });
        // Re-raise any contained member panic exactly like a direct
        // single-stack run would.
        if let Some(payload) = shared.panic.lock().expect("panic slot").take() {
            std::panic::resume_unwind(payload);
        }
        if self.st.decided {
            self.settle();
        }
        self.st.decided
    }

    /// The race is decided: order the finishers (earliest answer wins,
    /// lowest id on ties) and cancel every still-open member through its
    /// stop handle.
    fn settle(&mut self) {
        self.st.finished.sort_unstable();
        for (id, still_open) in self.st.open.iter_mut().enumerate() {
            if *still_open {
                self.members[id]
                    .lock()
                    .expect("member lock poisoned")
                    .cancel();
                *still_open = false;
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
            self.st.decided = true;
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
            let member = member.into_inner().expect("member lock poisoned");
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

    fn checkpoint(&self) -> CheckpointMeta {
        let mut meta = CheckpointMeta {
            steps: self.steps_done(),
            ..CheckpointMeta::default()
        };
        meta.frontier.incumbent = self.best_incumbent();
        meta
    }
}

/// Epoch-synchronised state shared by the coordinator and its driver
/// threads.
struct DriverShared {
    /// Two waits per epoch: start (cap published) and end (statuses
    /// published).
    barrier: Barrier,
    /// Absolute unit cap of the current epoch.
    cap: AtomicU64,
    /// Raised once the race is over; drivers parked at the start
    /// barrier exit.
    done: AtomicBool,
    /// Per-member epoch statuses (encoded [`EpochStatus`]).
    statuses: Vec<AtomicU8>,
    /// First member panic, re-raised by the owning thread after the
    /// drivers shut down (a member panicking must fail the race the way
    /// it would fail a direct run — not deadlock a barrier).
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

fn status_code(status: EpochStatus) -> u8 {
    match status {
        EpochStatus::Running => 0,
        EpochStatus::Finished => 1,
        EpochStatus::Exhausted => 2,
        EpochStatus::Stopped => 3,
    }
}

fn status_from(code: u8) -> EpochStatus {
    match code {
        0 => EpochStatus::Running,
        1 => EpochStatus::Finished,
        2 => EpochStatus::Exhausted,
        _ => EpochStatus::Stopped,
    }
}

/// One long-lived driver thread: parked at the epoch barrier, steps its
/// member chunk when the coordinator opens an epoch, exits when the
/// race ends.
fn drive_members(
    members: &[Mutex<Box<dyn MemberDrive>>],
    shared: &DriverShared,
    range: std::ops::Range<usize>,
) {
    loop {
        shared.barrier.wait(); // start of epoch (or shutdown)
        if shared.done.load(Ordering::SeqCst) {
            return;
        }
        drive_range(members, shared, range.clone());
        shared.barrier.wait(); // end of epoch
    }
}

/// Steps one chunk of members to the current epoch cap, containing
/// member panics so sibling drivers never deadlock at the barrier.
fn drive_range(
    members: &[Mutex<Box<dyn MemberDrive>>],
    shared: &DriverShared,
    range: std::ops::Range<usize>,
) {
    let cap = shared.cap.load(Ordering::SeqCst);
    for id in range {
        if shared.panic.lock().expect("panic slot").is_some() {
            return; // a sibling faulted: the race is aborting
        }
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            members[id]
                .lock()
                .expect("member lock poisoned")
                .run_epoch(cap)
        }));
        match stepped {
            Ok(status) => shared.statuses[id].store(status_code(status), Ordering::SeqCst),
            Err(payload) => {
                let mut slot = shared.panic.lock().expect("panic slot");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    }
}
