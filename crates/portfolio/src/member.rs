//! The erased member abstraction: anything that can race in epochs. A
//! mesh member is an epoch policy over one [`StackRun`] (stop handle,
//! acceptance predicate, terminal status); a CDCL member wraps the
//! resumable solver; a chain hands over between attempts.

use hyperspace_core::{JobParams, RunSummary, StackBuilder, StackRun, StrategySpec};
use hyperspace_recursion::RecProgram;
use hyperspace_sat::{cdcl, CdclConfig, CdclSolver, CdclStatus, Clause, Cnf, SatResult, Verdict};
use hyperspace_sim::{ObsHandle, RunOutcome, StopHandle};

/// What one epoch of driving did to a member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EpochStatus {
    /// Epoch budget exhausted, search still open.
    Running,
    /// Produced its answer during this epoch.
    Finished,
    /// Hit the global step cap without an answer.
    Exhausted,
    /// Its stop handle tripped.
    Stopped,
}

/// One racing member, type-erased. All methods are called between
/// epochs only, in member-id order (or concurrently for `run_epoch`,
/// which touches only the member's own state).
pub(crate) trait MemberDrive: Send {
    /// Advances the member to the absolute unit cap (simulated steps /
    /// search operations). Terminal members return their terminal status
    /// without doing work.
    fn run_epoch(&mut self, cap: u64) -> EpochStatus;

    /// Logical units consumed so far.
    fn units(&self) -> u64;

    /// Best incumbent this member holds (optimisation members).
    fn best_incumbent(&self) -> Option<i64>;

    /// Injects a bus incumbent; it floods the member's mesh through the
    /// ordinary bound-gossip channel.
    fn inject_bound(&mut self, value: i64);

    /// Drains the clauses this member learned since the last export,
    /// within the bus budgets (CDCL members; empty otherwise).
    fn export_clauses(&mut self, max_len: usize, max_lbd: usize) -> Vec<Clause>;

    /// Absorbs sibling lemmas; returns how many were taken (CDCL
    /// members; 0 otherwise).
    fn import_clauses(&mut self, clauses: &[&Clause]) -> u64;

    /// Cancels a losing member through its stop handle.
    fn cancel(&mut self);

    /// Finalises the member into its erased run summary.
    fn finish(self: Box<Self>) -> RunSummary;
}

/// Boxed acceptance predicate over a program's root result.
type AcceptFn<Out> = Box<dyn Fn(&Out) -> bool + Send>;

/// A full five-layer stack racing as one member: an epoch policy over
/// one [`StackRun`] — its own stop handle, an acceptance predicate and
/// the terminal status the race books.
pub(crate) struct MeshMember<P: RecProgram> {
    run: StackRun<P>,
    handle: StopHandle,
    terminal: Option<EpochStatus>,
    /// Acceptance predicate for *limited* (incomplete) attempts: a run
    /// that completes with a root result this predicate rejects — e.g.
    /// `Unsat` from a limited-discrepancy search — was merely exhausted,
    /// not answered, and books as [`EpochStatus::Exhausted`] so an
    /// `or(...)` chain can hand over to its next attempt.
    accept: Option<AcceptFn<P::Out>>,
}

impl<P: RecProgram> MeshMember<P>
where
    P::Out: std::fmt::Debug,
{
    /// Assembles the member's stack and injects the root problem. This
    /// is the one place a member's overrides meet the job's machine:
    /// `params` supplies topology, objective, cancellation, step cap,
    /// root placement and the base prune/mapping policies; `attempt`
    /// diversifies on top — its `limit(time,N)` tightens the run's cap,
    /// so the member exhausts (and stops being driven) once it spends
    /// its own budget, even if the race continues.
    pub(crate) fn new(
        program: P,
        root_arg: P::Arg,
        attempt: &StrategySpec,
        params: &JobParams,
    ) -> Self {
        let handle = StopHandle::new();
        // A member prune of `Off` is the strategy default ("no opinion")
        // and leaves the job-level policy set just before it in place;
        // explicit member policies — warm starts in particular — win.
        // The member seed is folded into seeded mappers so same-policy
        // members explore different placements.
        // Member engines run un-observed and stop through their own
        // handle: the race polls the job's at its epoch barriers.
        let run = StackBuilder::from_params(program, params)
            .observer(ObsHandle::off())
            .strategy(attempt)
            .mapper(attempt.seeded_mapper(&params.mapper))
            .stop(handle.clone())
            .into_run(root_arg, params.root_node);
        MeshMember {
            run,
            handle,
            terminal: None,
            accept: None,
        }
    }

    /// Installs the acceptance predicate limited attempts complete
    /// through (see the `accept` field).
    pub(crate) fn with_acceptance(
        mut self,
        accept: impl Fn(&P::Out) -> bool + Send + 'static,
    ) -> Self {
        self.accept = Some(Box::new(accept));
        self
    }
}

impl<P: RecProgram> MemberDrive for MeshMember<P>
where
    P::Out: std::fmt::Debug,
{
    fn run_epoch(&mut self, cap: u64) -> EpochStatus {
        if let Some(terminal) = self.terminal {
            return terminal;
        }
        let status = match self.run.advance_to(cap) {
            None => return EpochStatus::Running,
            Some(RunOutcome::Halted | RunOutcome::Quiescent) => match &self.accept {
                // A limited attempt only *finishes* when its result is
                // conclusive; running out of tree is exhaustion.
                Some(accept) if !self.run.root_result().is_some_and(accept) => {
                    EpochStatus::Exhausted
                }
                _ => EpochStatus::Finished,
            },
            Some(RunOutcome::Stopped) => EpochStatus::Stopped,
            Some(RunOutcome::MaxSteps) => EpochStatus::Exhausted,
        };
        self.terminal = Some(status);
        status
    }

    fn units(&self) -> u64 {
        self.run.steps()
    }

    fn best_incumbent(&self) -> Option<i64> {
        self.run.frontier().incumbent
    }

    fn inject_bound(&mut self, value: i64) {
        self.run.inject_bound(value);
    }

    fn export_clauses(&mut self, _max_len: usize, _max_lbd: usize) -> Vec<Clause> {
        Vec::new() // mesh sub-problems carry no learned clauses
    }

    fn import_clauses(&mut self, _clauses: &[&Clause]) -> u64 {
        0
    }

    fn cancel(&mut self) {
        if self.terminal.is_some() {
            return;
        }
        // The loser observes the trip through the ordinary stop path:
        // the run ends with `Stopped` before executing another step.
        self.handle.stop();
        let outcome = self.run.advance_to(u64::MAX);
        debug_assert_eq!(outcome, Some(RunOutcome::Stopped));
        self.terminal = Some(EpochStatus::Stopped);
    }

    fn finish(self: Box<Self>) -> RunSummary {
        self.run.finish().summary()
    }
}

/// A sequential clause-learning solver racing as one member (SAT only).
pub(crate) struct CdclMember {
    solver: CdclSolver,
    max_ops: u64,
    /// Decision budget (`limit(nodes,N)` on a CDCL attempt), checked at
    /// epoch barriers: a solver over budget without an answer exhausts.
    max_decisions: Option<u64>,
    terminal: Option<EpochStatus>,
}

impl CdclMember {
    pub(crate) fn new(cnf: &Cnf, cfg: CdclConfig, max_ops: u64) -> Self {
        CdclMember {
            solver: CdclSolver::new(cnf, cfg),
            max_ops,
            max_decisions: None,
            terminal: None,
        }
    }

    /// Caps the solver's decisions (checked between epochs only, so
    /// budgeted runs stay deterministic).
    pub(crate) fn with_max_decisions(mut self, budget: Option<u64>) -> Self {
        self.max_decisions = budget;
        self
    }
}

impl MemberDrive for CdclMember {
    fn run_epoch(&mut self, cap: u64) -> EpochStatus {
        if let Some(terminal) = self.terminal {
            return terminal;
        }
        let cap = cap.min(self.max_ops);
        let budget = cap.saturating_sub(self.solver.ops());
        let max_decisions = self.max_decisions;
        let status = match self.solver.run(budget) {
            CdclStatus::Done(_) => EpochStatus::Finished,
            CdclStatus::Budget
                if self.solver.ops() >= self.max_ops
                    || max_decisions.is_some_and(|d| self.solver.stats().decisions >= d) =>
            {
                EpochStatus::Exhausted
            }
            CdclStatus::Budget => return EpochStatus::Running,
        };
        self.terminal = Some(status);
        status
    }

    fn units(&self) -> u64 {
        self.solver.ops()
    }

    fn best_incumbent(&self) -> Option<i64> {
        None // decision procedure: no objective value
    }

    fn inject_bound(&mut self, _value: i64) {}

    fn export_clauses(&mut self, max_len: usize, max_lbd: usize) -> Vec<Clause> {
        self.solver.export_learned(max_len, max_lbd)
    }

    fn import_clauses(&mut self, clauses: &[&Clause]) -> u64 {
        self.solver.import_clauses(clauses.iter().copied())
    }

    fn cancel(&mut self) {
        if self.terminal.is_none() {
            self.terminal = Some(EpochStatus::Stopped);
        }
    }

    fn finish(self: Box<Self>) -> RunSummary {
        let stats = self.solver.stats();
        // Render the verdict in the mesh solver's vocabulary so winner
        // summaries read the same whichever engine produced them.
        let result = self.solver.result().map(|r| match r {
            SatResult::Sat(model) => format!("{:?}", Verdict::Sat(model.clone())),
            SatResult::Unsat => format!("{:?}", Verdict::Unsat),
        });
        let outcome = match self.terminal {
            Some(EpochStatus::Finished) => RunOutcome::Halted,
            Some(EpochStatus::Stopped) => RunOutcome::Stopped,
            _ => RunOutcome::MaxSteps,
        };
        RunSummary {
            result,
            outcome,
            steps: self.solver.ops(),
            computation_time: self.solver.ops(),
            total_sent: 0,
            total_delivered: 0,
            activations_started: stats.decisions,
            activations_completed: stats.decisions,
            nodes_pruned: 0,
            best_incumbent: None,
        }
    }
}

/// An `or(...)` chain racing as one member: attempts tried in sequence,
/// each constructed lazily when its predecessor exhausts. The chain's
/// units are cumulative over attempts, so the race's epoch caps and
/// winner ordering see one continuous member. Only `Exhausted` hands
/// over — a `Finished` or `Stopped` attempt settles the whole chain.
pub(crate) struct ChainMember {
    make: Box<dyn Fn(usize) -> Box<dyn MemberDrive> + Send>,
    inner: Box<dyn MemberDrive>,
    attempt: usize,
    attempts: usize,
    base_units: u64,
    terminal: Option<EpochStatus>,
}

impl ChainMember {
    pub(crate) fn new(
        attempts: usize,
        make: Box<dyn Fn(usize) -> Box<dyn MemberDrive> + Send>,
    ) -> Self {
        assert!(attempts > 0, "a chain needs at least one attempt");
        let inner = make(0);
        ChainMember {
            make,
            inner,
            attempt: 0,
            attempts,
            base_units: 0,
            terminal: None,
        }
    }
}

impl MemberDrive for ChainMember {
    fn run_epoch(&mut self, cap: u64) -> EpochStatus {
        if let Some(terminal) = self.terminal {
            return terminal;
        }
        loop {
            // The chain's absolute cap, rebased to the current attempt.
            let inner_cap = cap.saturating_sub(self.base_units);
            match self.inner.run_epoch(inner_cap) {
                EpochStatus::Running => return EpochStatus::Running,
                EpochStatus::Finished => {
                    self.terminal = Some(EpochStatus::Finished);
                    return EpochStatus::Finished;
                }
                EpochStatus::Stopped => {
                    self.terminal = Some(EpochStatus::Stopped);
                    return EpochStatus::Stopped;
                }
                EpochStatus::Exhausted => {
                    self.base_units += self.inner.units();
                    self.attempt += 1;
                    if self.attempt >= self.attempts {
                        self.terminal = Some(EpochStatus::Exhausted);
                        return EpochStatus::Exhausted;
                    }
                    self.inner = (self.make)(self.attempt);
                    if self.base_units >= cap {
                        // The fresh attempt starts next epoch.
                        return EpochStatus::Running;
                    }
                }
            }
        }
    }

    fn units(&self) -> u64 {
        self.base_units + self.inner.units()
    }

    fn best_incumbent(&self) -> Option<i64> {
        self.inner.best_incumbent()
    }

    fn inject_bound(&mut self, value: i64) {
        self.inner.inject_bound(value);
    }

    fn export_clauses(&mut self, max_len: usize, max_lbd: usize) -> Vec<Clause> {
        self.inner.export_clauses(max_len, max_lbd)
    }

    fn import_clauses(&mut self, clauses: &[&Clause]) -> u64 {
        self.inner.import_clauses(clauses)
    }

    fn cancel(&mut self) {
        if self.terminal.is_none() {
            self.inner.cancel();
            self.terminal = Some(EpochStatus::Stopped);
        }
    }

    fn finish(self: Box<Self>) -> RunSummary {
        // The chain's summary is its last live attempt's (earlier
        // exhausted attempts answered nothing by definition).
        self.inner.finish()
    }
}

/// Builds the CDCL configuration a strategy describes.
pub(crate) fn cdcl_config(member: &StrategySpec, restart: cdcl::RestartPolicy) -> CdclConfig {
    CdclConfig {
        restart,
        polarity: member.polarity,
        seed: member.seed,
    }
}
