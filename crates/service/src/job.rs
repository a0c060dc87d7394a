//! Job specifications: what a tenant submits to the service.
//!
//! A [`JobSpec`] is the *full* description of one solve — the workload
//! ([`JobKind`]) plus the machine/run configuration (topology, mapper,
//! cancellation, step cap, root placement). Two submissions with equal
//! specs are the same computation, which is what makes the service's
//! result cache sound: [`JobSpec::cache_key`] renders the spec into a
//! canonical string (erased user programs are opaque and therefore
//! uncacheable).

use std::time::Duration;

use hyperspace_apps::{
    total_value, BnbKnapsackProgram, BnbKnapsackTask, FibProgram, Item, KnapsackProgram,
    NQueensProgram, QueensTask, SumProgram, TspInstance, TspProgram, TspTask,
    KNAPSACK_MAX_TOTAL_VALUE, QUEENS_MAX_N, TSP_MAX_CITIES,
};
use hyperspace_core::{
    BackendSpec, CheckpointSpec, EngineSpec, ErasedStackJob, JobParams, LimitKind, MapperSpec,
    ObjectiveSpec, PortfolioSpec, PruneSpec, RunSummary, TopologySpec,
};
use hyperspace_portfolio::PortfolioRunner;
use hyperspace_recursion::RecProgram;
use hyperspace_sat::{dimacs, Cnf, DpllProgram, Heuristic, SimplifyMode, SubProblem};

/// The workload of one job: which program runs and on what input.
pub enum JobKind {
    /// Boolean satisfiability via the distributed DPLL program.
    Sat {
        /// The formula.
        cnf: Cnf,
        /// Branching heuristic.
        heuristic: Heuristic,
        /// Per-activation simplification strength.
        mode: SimplifyMode,
    },
    /// 0/1 knapsack by distributed branch and bound, each branch pruned
    /// against the value on its own path.
    Knapsack {
        /// Item list (pre-sort by density for tighter bounds).
        items: Vec<Item>,
        /// Knapsack capacity.
        capacity: u32,
    },
    /// Exact 0/1 knapsack via the stack's optimisation mode: shared
    /// incumbent + fractional-relaxation pruning. Submit with
    /// `objective(Maximise)` and a prune policy.
    BnbKnapsack {
        /// Item list (pre-sort by density for tighter bounds).
        items: Vec<Item>,
        /// Knapsack capacity.
        capacity: u32,
    },
    /// Small-instance TSP by branch and bound with a reduced-cost lower
    /// bound. Submit with `objective(Minimise)` and a prune policy.
    Tsp {
        /// The distance matrix.
        inst: TspInstance,
    },
    /// Count of N-queens placements.
    NQueens {
        /// Board size.
        n: u8,
    },
    /// Naive Fibonacci (throughput stress).
    Fib {
        /// Index.
        n: u64,
    },
    /// Linear-recursion sum (latency probe).
    Sum {
        /// Upper bound.
        n: u64,
    },
    /// An arbitrary user-supplied recursive program, type-erased.
    /// Opaque to the cache.
    Erased {
        /// Display label for stats and debugging.
        label: String,
        /// The boxed job.
        job: ErasedStackJob,
    },
    /// An arbitrary user program behind a re-invocable factory. Like
    /// [`JobKind::Erased`] it is opaque to the cache, but because the
    /// service can re-create the job it also supports checkpoint
    /// restarts after a worker crash.
    ErasedFactory {
        /// Display label for stats and debugging.
        label: String,
        /// Builds a fresh copy of the job on demand.
        factory: std::sync::Arc<dyn Fn() -> ErasedStackJob + Send + Sync>,
    },
}

impl JobKind {
    /// SAT with the service defaults (Jeroslow–Wang, fixpoint
    /// simplification — the strongest solver).
    pub fn sat(cnf: Cnf) -> JobKind {
        JobKind::Sat {
            cnf,
            heuristic: Heuristic::JeroslowWang,
            mode: SimplifyMode::Fixpoint,
        }
    }

    /// SAT with explicit solver configuration.
    pub fn sat_with(cnf: Cnf, heuristic: Heuristic, mode: SimplifyMode) -> JobKind {
        JobKind::Sat {
            cnf,
            heuristic,
            mode,
        }
    }

    /// SAT parsed from DIMACS text.
    pub fn sat_dimacs(text: &str) -> Result<JobKind, dimacs::DimacsError> {
        Ok(JobKind::sat(dimacs::parse(text)?))
    }

    /// 0/1 knapsack.
    pub fn knapsack(items: Vec<Item>, capacity: u32) -> JobKind {
        JobKind::Knapsack { items, capacity }
    }

    /// Exact 0/1 knapsack with shared-incumbent branch and bound.
    pub fn bnb_knapsack(items: Vec<Item>, capacity: u32) -> JobKind {
        JobKind::BnbKnapsack { items, capacity }
    }

    /// Small-instance TSP with shared-incumbent branch and bound.
    pub fn tsp(inst: TspInstance) -> JobKind {
        JobKind::Tsp { inst }
    }

    /// N-queens placement count.
    pub fn nqueens(n: u8) -> JobKind {
        JobKind::NQueens { n }
    }

    /// Naive Fibonacci.
    pub fn fib(n: u64) -> JobKind {
        JobKind::Fib { n }
    }

    /// `sum(1..=n)`.
    pub fn sum(n: u64) -> JobKind {
        JobKind::Sum { n }
    }

    /// An arbitrary recursive program. Uncacheable (the service cannot
    /// see inside the closure to normalise it).
    pub fn erased<P>(label: impl Into<String>, program: P, root_arg: P::Arg) -> JobKind
    where
        P: RecProgram,
        P::Out: std::fmt::Debug,
    {
        JobKind::Erased {
            label: label.into(),
            job: ErasedStackJob::new(program, root_arg),
        }
    }

    /// An arbitrary program behind a re-invocable factory: still
    /// uncacheable, but rebuildable — which is what lets the service
    /// restart it from its last checkpoint if a worker dies mid-solve.
    pub fn erased_with_factory(
        label: impl Into<String>,
        factory: impl Fn() -> ErasedStackJob + Send + Sync + 'static,
    ) -> JobKind {
        JobKind::ErasedFactory {
            label: label.into(),
            factory: std::sync::Arc::new(factory),
        }
    }

    /// A duplicate of this workload, when one can be made: every
    /// data-carrying kind clones; closure-backed [`JobKind::Erased`]
    /// jobs cannot (the service cannot duplicate an arbitrary
    /// `FnOnce`), which is why they are excluded from checkpoint
    /// restarts — use [`JobKind::erased_with_factory`] for those.
    pub fn try_clone(&self) -> Option<JobKind> {
        match self {
            JobKind::Sat {
                cnf,
                heuristic,
                mode,
            } => Some(JobKind::Sat {
                cnf: cnf.clone(),
                heuristic: *heuristic,
                mode: *mode,
            }),
            JobKind::Knapsack { items, capacity } => Some(JobKind::Knapsack {
                items: items.clone(),
                capacity: *capacity,
            }),
            JobKind::BnbKnapsack { items, capacity } => Some(JobKind::BnbKnapsack {
                items: items.clone(),
                capacity: *capacity,
            }),
            JobKind::Tsp { inst } => Some(JobKind::Tsp { inst: inst.clone() }),
            JobKind::NQueens { n } => Some(JobKind::NQueens { n: *n }),
            JobKind::Fib { n } => Some(JobKind::Fib { n: *n }),
            JobKind::Sum { n } => Some(JobKind::Sum { n: *n }),
            JobKind::Erased { .. } => None,
            JobKind::ErasedFactory { label, factory } => Some(JobKind::ErasedFactory {
                label: label.clone(),
                factory: std::sync::Arc::clone(factory),
            }),
        }
    }

    /// Short workload label for stats.
    pub fn label(&self) -> String {
        match self {
            JobKind::Sat { .. } => "sat".into(),
            JobKind::Knapsack { .. } => "knapsack".into(),
            JobKind::BnbKnapsack { .. } => "bnb-knapsack".into(),
            JobKind::Tsp { .. } => "tsp".into(),
            JobKind::NQueens { .. } => "nqueens".into(),
            JobKind::Fib { .. } => "fib".into(),
            JobKind::Sum { .. } => "sum".into(),
            JobKind::Erased { label, .. } => label.clone(),
            JobKind::ErasedFactory { label, .. } => label.clone(),
        }
    }

    /// Canonical rendering of the workload for cache keying; `None` for
    /// uncacheable (erased) workloads. A portfolio SAT job takes its
    /// solver knobs from the member strategies, so the superseded
    /// kind-level heuristic/mode are excluded from its token — two
    /// submissions racing the same members over the same formula are
    /// the same computation.
    fn cache_token(&self, portfolio: bool) -> Option<String> {
        match self {
            JobKind::Sat {
                cnf,
                heuristic,
                mode,
            } => Some(if portfolio {
                format!("sat/-/-/{}", dimacs::to_string(cnf))
            } else {
                format!("sat/{heuristic}/{mode}/{}", dimacs::to_string(cnf))
            }),
            JobKind::Knapsack { items, capacity } | JobKind::BnbKnapsack { items, capacity } => {
                let items: Vec<_> = items
                    .iter()
                    .map(|i| format!("{}w{}v", i.weight, i.value))
                    .collect();
                Some(format!("{}/{capacity}/{}", self.label(), items.join(",")))
            }
            JobKind::Tsp { inst } => {
                let cells: Vec<String> = inst.dist.iter().map(|d| d.to_string()).collect();
                Some(format!("tsp/{}/{}", inst.n, cells.join(",")))
            }
            JobKind::NQueens { n } => Some(format!("nqueens/{n}")),
            JobKind::Fib { n } => Some(format!("fib/{n}")),
            JobKind::Sum { n } => Some(format!("sum/{n}")),
            JobKind::Erased { .. } | JobKind::ErasedFactory { .. } => None,
        }
    }

    /// Converts the workload into the uniform boxed job the pool runs.
    /// When the params it is started with carry a portfolio, the job
    /// races that member set through a [`PortfolioRunner`] instead of
    /// assembling one stack; SAT portfolios take their solver knobs from
    /// the member strategies, superseding the kind-level heuristic/mode.
    /// Erased workloads are opaque and always run single-stack. A
    /// factory-backed kind runs its factory here — user code, so the
    /// service calls this on a worker, inside its panic guard.
    pub fn into_erased(self) -> ErasedStackJob {
        match self {
            JobKind::Sat {
                cnf,
                heuristic,
                mode,
            } => ErasedStackJob::from_start_fn(move |params| {
                match PortfolioRunner::from_params(params) {
                    Some(runner) => Box::new(runner.start_sat(&cnf)),
                    None => ErasedStackJob::new(
                        DpllProgram::new(heuristic).with_mode(mode),
                        SubProblem::root(cnf),
                    )
                    .start(params),
                }
            }),
            JobKind::Knapsack { items, capacity } => {
                erase(KnapsackProgram, BnbKnapsackTask::root(items, capacity))
            }
            JobKind::BnbKnapsack { items, capacity } => {
                erase(BnbKnapsackProgram, BnbKnapsackTask::root(items, capacity))
            }
            JobKind::Tsp { inst } => erase(TspProgram, TspTask::root(inst)),
            JobKind::NQueens { n } => erase(NQueensProgram, QueensTask::root(n)),
            JobKind::Fib { n } => erase(FibProgram, n),
            JobKind::Sum { n } => erase(SumProgram, n),
            JobKind::Erased { job, .. } => job,
            JobKind::ErasedFactory { factory, .. } => factory(),
        }
    }
}

/// Boxes a mesh program as a uniform pool job: one stack, or — when the
/// params it is started with carry a portfolio — a race of that member
/// set. Either way the started job is a slice, cut at the params'
/// checkpoint interval (a race at the sync-epoch barriers inside it).
fn erase<P>(program: P, root_arg: P::Arg) -> ErasedStackJob
where
    P: RecProgram + Clone,
    P::Arg: Clone,
    P::Out: std::fmt::Debug,
{
    ErasedStackJob::from_start_fn(move |params| match PortfolioRunner::from_params(params) {
        Some(runner) => Box::new(runner.start_mesh(|_, _| program.clone(), root_arg)),
        None => ErasedStackJob::new(program, root_arg).start(params),
    })
}

/// Decides whether a worker can run a spec: its workload's size fits its
/// program and its portfolio fits its workload. Returns the rejection
/// reason when it does not. The one such check: `submit()` and
/// `recover()` both call it, so nothing a worker would panic on — a TSP
/// instance outside 2 to [`TSP_MAX_CITIES`] cities, an N-Queens board
/// above [`QUEENS_MAX_N`], knapsack items whose values sum past
/// [`KNAPSACK_MAX_TOTAL_VALUE`], an empty member list or attempt chain, or a
/// strategy only SAT workloads can execute (CDCL engines, discrepancy
/// budgets and `or(...)` retry chains all manipulate the SAT search tree)
/// on another workload — is ever queued, and nothing the spec grammar
/// refuses (a hand-built CDCL attempt under a discrepancy budget) is
/// persisted in a rendering recovery could not read back. Erased
/// workloads ignore the members and accept any well-formed portfolio.
pub(crate) fn refuse_unrunnable(kind: &JobKind, params: &JobParams) -> Option<String> {
    match kind {
        JobKind::Tsp { inst } if !(2..=TSP_MAX_CITIES).contains(&inst.n) => {
            let n = inst.n;
            return Some(format!(
                "tsp instance size {n} is outside 2..={TSP_MAX_CITIES}"
            ));
        }
        JobKind::NQueens { n } if *n > QUEENS_MAX_N => {
            return Some(format!("nqueens board size {n} exceeds {QUEENS_MAX_N}"));
        }
        JobKind::Knapsack { items, .. } | JobKind::BnbKnapsack { items, .. } => {
            let total = total_value(items);
            if total > KNAPSACK_MAX_TOTAL_VALUE {
                let label = kind.label();
                return Some(format!(
                    "{label} item values sum to {total}, past {KNAPSACK_MAX_TOTAL_VALUE}"
                ));
            }
        }
        _ => {}
    }
    let folio = params.portfolio.as_ref()?;
    if folio.members.is_empty() {
        return Some("portfolio has no members; a race needs at least one".into());
    }
    let sat_capable = matches!(
        kind,
        JobKind::Sat { .. } | JobKind::Erased { .. } | JobKind::ErasedFactory { .. }
    );
    let label = kind.label();
    for (id, plan) in folio.members.iter().enumerate() {
        if plan.attempts.is_empty() {
            return Some(format!(
                "portfolio member {id} has no attempts; a member needs at least one"
            ));
        }
        if let Some(err) = plan
            .attempts
            .iter()
            .find_map(|a| a.check_limits_fit_engine().err())
        {
            return Some(format!("portfolio member {id}: {err}"));
        }
        if sat_capable {
            continue;
        }
        if plan.attempts.len() > 1 {
            return Some(format!(
                "portfolio member {id} is an or(...) retry chain, but workload {label:?} \
                 is not SAT; only SAT jobs re-run exhausted attempts"
            ));
        }
        let attempt = &plan.attempts[0];
        if matches!(attempt.engine, EngineSpec::Cdcl { .. }) {
            return Some(format!(
                "portfolio member {id} is a CDCL strategy, but workload {label:?} is \
                 not SAT; only SAT portfolios race CDCL members"
            ));
        }
        if let Some(l) = attempt
            .limits
            .iter()
            .find(|l| l.kind == LimitKind::Discrepancy)
        {
            return Some(format!(
                "portfolio member {id} scopes limit({l}), but workload {label:?} is \
                 not SAT; discrepancy budgets follow the SAT branching heuristic"
            ));
        }
    }
    None
}

impl std::fmt::Debug for JobKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JobKind::{}", self.label())
    }
}

/// A complete job description: workload plus machine/run configuration.
#[derive(Debug)]
pub struct JobSpec {
    /// The workload.
    pub kind: JobKind,
    /// Machine/run configuration. The defaults — and the single source
    /// of truth for them — are [`JobParams::default`]; `params.stop` is
    /// ignored at submission (the service installs its own handle).
    pub params: JobParams,
}

impl JobSpec {
    /// A spec with the service defaults ([`JobParams::default`]: the
    /// paper's 14x14 torus, adaptive least-busy mapping, no layer-4
    /// cancellation).
    pub fn new(kind: JobKind) -> JobSpec {
        JobSpec {
            kind,
            params: JobParams::default(),
        }
    }

    /// Selects the machine topology.
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.params.topology = spec;
        self
    }

    /// Selects the mapping policy.
    pub fn mapper(mut self, spec: MapperSpec) -> Self {
        self.params.mapper = spec;
        self
    }

    /// Selects the execution backend. Backends are bit-identical (the
    /// cross-backend equivalence suite enforces it), so this changes how
    /// fast the job runs, never what it computes — which is why it is
    /// *not* part of [`JobSpec::cache_key`].
    pub fn backend(mut self, spec: BackendSpec) -> Self {
        self.params.backend = spec;
        self
    }

    /// Enables withdrawal of losing speculative branches.
    pub fn cancellation(mut self, on: bool) -> Self {
        self.params.cancellation = on;
        self
    }

    /// Selects the optimisation objective (branch-and-bound mode when
    /// not `Enumerate`). Part of the computation — and of the cache key.
    pub fn objective(mut self, spec: ObjectiveSpec) -> Self {
        self.params.objective = spec;
        self
    }

    /// Selects the pruning policy of a branch-and-bound run. Part of
    /// the computation — and of the cache key.
    pub fn prune(mut self, spec: PruneSpec) -> Self {
        self.params.prune = spec;
        self
    }

    /// Selects the checkpoint policy. `interval:N` makes the job
    /// suspendable/preemptible at every `N`-step barrier and eligible
    /// for checkpoint restarts after a worker crash. Like the backend
    /// it never changes what is computed (a run cut into many slices
    /// is bit-identical to the same run as one slice, which is what
    /// `off` is), so it is *not* part of [`JobSpec::cache_key`].
    pub fn checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.params.checkpoint = spec;
        self
    }

    /// Races a portfolio of diversified members instead of one stack:
    /// the first member to answer wins, losers are cancelled, and
    /// members exchange learned clauses / incumbents at deterministic
    /// sync epochs. Build the spec from flat members
    /// ([`PortfolioSpec::new`]) or parse it from text — the flat
    /// `epoch=..;len=..;lbd=..;member|member` form or a strategy
    /// expression such as `portfolio(or(limit(nodes,64,mesh),mesh),cdcl)`;
    /// both spellings of one member set are the same spec, the same
    /// verdict at submission and the same cache entry. The full member
    /// set is part of the computation — and of the cache key,
    /// superseding kind-level SAT knobs — though member *backends* are
    /// not (they are bit-identical). Only the winner's summary is
    /// cached.
    pub fn portfolio(mut self, spec: PortfolioSpec) -> Self {
        self.params.portfolio = Some(spec);
        self
    }

    /// Overrides the step cap.
    pub fn max_steps(mut self, steps: u64) -> Self {
        self.params.max_steps = steps;
        self
    }

    /// Places the root trigger.
    pub fn root_node(mut self, node: u32) -> Self {
        self.params.root_node = node;
        self
    }

    /// The normalised cache key of this spec, or `None` if the workload
    /// is uncacheable. Equal keys denote identical computations. The
    /// execution backend is deliberately excluded: backends are
    /// bit-identical, so a summary computed sequentially may be served
    /// to a sharded resubmission and vice versa.
    pub fn cache_key(&self) -> Option<String> {
        let folio = self.params.portfolio.as_ref();
        self.kind.cache_token(folio.is_some()).map(|token| {
            format!(
                "{token}|{}|{}|cancel={}|obj={}|prune={}|steps={}|root={}|portfolio={}",
                self.params.topology,
                self.params.mapper,
                self.params.cancellation,
                self.params.objective,
                self.params.prune,
                self.params.max_steps,
                self.params.root_node,
                // The member set changes the computation; member
                // *backends* do not (describe() strips them), keeping the
                // backend-never-splits-the-cache invariant.
                folio.map_or_else(|| "none".into(), |p| p.describe())
            )
        })
    }
}

/// A [`JobSpec`] plus scheduling directives: queue priority and an
/// optional deadline (measured from submission — queue wait counts).
#[derive(Debug)]
pub struct JobRequest {
    /// What to solve and on which machine.
    pub spec: JobSpec,
    /// Queue priority: higher runs first; ties run in submission order.
    pub priority: i32,
    /// Wall-clock budget from submission; expiry yields
    /// [`JobOutcome::TimedOut`].
    pub deadline: Option<Duration>,
}

impl JobRequest {
    /// A request with default priority (0) and no deadline.
    pub fn new(spec: JobSpec) -> JobRequest {
        JobRequest {
            spec,
            priority: 0,
            deadline: None,
        }
    }

    /// Sets the queue priority (higher runs first).
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the wall-clock budget from submission.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }
}

impl From<JobSpec> for JobRequest {
    fn from(spec: JobSpec) -> JobRequest {
        JobRequest::new(spec)
    }
}

impl From<JobKind> for JobRequest {
    fn from(kind: JobKind) -> JobRequest {
        JobRequest::new(JobSpec::new(kind))
    }
}

/// How a job ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// The solve ran to completion (inspect the summary's `outcome` for
    /// halted/quiescent/step-cap detail).
    Completed(RunSummary),
    /// The deadline expired — while queued or mid-solve.
    TimedOut,
    /// The submitter cancelled the job — while queued or mid-solve.
    Cancelled,
    /// The job panicked or the service shut down before running it.
    Failed(String),
}

impl JobOutcome {
    /// Whether the job produced a completed summary.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed(_))
    }

    /// The completed summary, if any.
    pub fn summary(&self) -> Option<&RunSummary> {
        match self {
            JobOutcome::Completed(s) => Some(s),
            _ => None,
        }
    }
}

/// Everything the service reports back for one job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job's service-assigned id.
    pub id: u64,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Whether the result was served from the cache (no solve ran).
    pub from_cache: bool,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait: Duration,
    /// Time spent solving (zero for cache hits and pre-run rejections).
    pub solve_time: Duration,
    /// Worker that serviced the job, if it reached a worker.
    pub worker: Option<usize>,
    /// Global execution sequence number (order workers started jobs),
    /// if the job reached a worker.
    pub exec_seq: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperspace_sat::gen;

    #[test]
    fn cache_keys_identify_identical_specs() {
        let a = JobSpec::new(JobKind::sat(gen::uf20_91(1)));
        let b = JobSpec::new(JobKind::sat(gen::uf20_91(1)));
        let c = JobSpec::new(JobKind::sat(gen::uf20_91(2)));
        assert_eq!(a.cache_key(), b.cache_key());
        assert_ne!(a.cache_key(), c.cache_key());
        // Machine configuration is part of the computation.
        let d = JobSpec::new(JobKind::sat(gen::uf20_91(1))).topology(TopologySpec::Ring { n: 8 });
        assert_ne!(a.cache_key(), d.cache_key());
    }

    #[test]
    fn backend_choice_does_not_split_the_cache() {
        // Same computation on different backends must share one cache
        // entry — backends are bit-identical, so the cached summary is
        // valid for all of them.
        let seq = JobSpec::new(JobKind::sat(gen::uf20_91(1)));
        let sharded = JobSpec::new(JobKind::sat(gen::uf20_91(1))).backend(BackendSpec::sharded(8));
        assert_eq!(seq.cache_key(), sharded.cache_key());
    }

    #[test]
    fn checkpoint_spec_does_not_split_the_cache() {
        // Checkpointing is scheduling, not computation: sliced runs are
        // bit-identical to monolithic ones, so — like the backend — the
        // checkpoint spec must not split cache entries.
        let monolithic = JobSpec::new(JobKind::sat(gen::uf20_91(1)));
        let sliced =
            JobSpec::new(JobKind::sat(gen::uf20_91(1))).checkpoint(CheckpointSpec::every(128));
        assert_eq!(monolithic.cache_key(), sliced.cache_key());
    }

    #[test]
    fn rebuildable_kinds_clone_and_erased_closures_do_not() {
        assert!(JobKind::sat(gen::uf20_91(1)).try_clone().is_some());
        assert!(JobKind::sum(9).try_clone().is_some());
        assert!(JobKind::nqueens(5).try_clone().is_some());
        use hyperspace_recursion::{FnProgram, Rec};
        let erased = JobKind::erased(
            "identity",
            FnProgram::new(|n: u64| -> Rec<u64, u64> { Rec::done(n) }),
            3,
        );
        assert!(erased.try_clone().is_none(), "FnOnce jobs cannot duplicate");
        let factory = JobKind::erased_with_factory("made", || {
            ErasedStackJob::new(
                FnProgram::new(|n: u64| -> Rec<u64, u64> { Rec::done(n) }),
                3,
            )
        });
        let cloned = factory.try_clone().expect("factories re-invoke");
        assert_eq!(cloned.label(), "made");
        assert_eq!(JobSpec::new(cloned).cache_key(), None, "still uncacheable");
    }

    #[test]
    fn erased_jobs_are_uncacheable() {
        use hyperspace_recursion::{FnProgram, Rec};
        let p = FnProgram::new(|n: u64| -> Rec<u64, u64> { Rec::done(n) });
        let spec = JobSpec::new(JobKind::erased("identity", p, 3));
        assert_eq!(spec.cache_key(), None);
        assert_eq!(spec.kind.label(), "identity");
    }

    #[test]
    fn dimacs_round_trip_feeds_sat_jobs() {
        let cnf = gen::uf20_91(5);
        let text = dimacs::to_string(&cnf);
        let kind = JobKind::sat_dimacs(&text).expect("valid dimacs");
        let direct = JobKind::sat(cnf);
        assert_eq!(
            JobSpec::new(kind).cache_key(),
            JobSpec::new(direct).cache_key()
        );
    }

    #[test]
    fn objective_and_prune_are_part_of_the_cache_key() {
        let spec = |objective: ObjectiveSpec, prune: PruneSpec| {
            JobSpec::new(JobKind::bnb_knapsack(
                vec![Item {
                    weight: 2,
                    value: 3,
                }],
                5,
            ))
            .objective(objective)
            .prune(prune)
        };
        let a = spec(ObjectiveSpec::Maximise, PruneSpec::incumbent());
        let b = spec(ObjectiveSpec::Maximise, PruneSpec::incumbent());
        assert_eq!(a.cache_key(), b.cache_key());
        // Different objective, different prune policy, different warm
        // start: all distinct computations.
        let c = spec(ObjectiveSpec::Enumerate, PruneSpec::incumbent());
        let d = spec(ObjectiveSpec::Maximise, PruneSpec::Off);
        let e = spec(
            ObjectiveSpec::Maximise,
            PruneSpec::Incumbent { initial: Some(9) },
        );
        assert_ne!(a.cache_key(), c.cache_key());
        assert_ne!(a.cache_key(), d.cache_key());
        assert_ne!(a.cache_key(), e.cache_key());
        // The backend still does not split the cache.
        let f =
            spec(ObjectiveSpec::Maximise, PruneSpec::incumbent()).backend(BackendSpec::sharded(4));
        assert_eq!(a.cache_key(), f.cache_key());
    }

    #[test]
    fn bnb_kinds_have_distinct_tokens_from_plain_knapsack() {
        let items = vec![Item {
            weight: 1,
            value: 2,
        }];
        let plain = JobSpec::new(JobKind::knapsack(items.clone(), 5));
        let bnb = JobSpec::new(JobKind::bnb_knapsack(items, 5));
        assert_ne!(plain.cache_key(), bnb.cache_key());
        let tsp = JobSpec::new(JobKind::tsp(TspInstance::random(1, 4, 10)));
        assert!(tsp.cache_key().is_some());
        assert_eq!(tsp.kind.label(), "tsp");
    }

    #[test]
    fn random_heuristic_seed_splits_the_cache() {
        // Regression: `Heuristic::Random` used to render as "random"
        // with the seed dropped, so two genuinely different solver
        // configurations shared one cache entry.
        let spec = |seed: u64| {
            JobSpec::new(JobKind::sat_with(
                gen::uf20_91(1),
                Heuristic::Random(seed),
                SimplifyMode::Fixpoint,
            ))
        };
        assert_ne!(spec(1).cache_key(), spec(2).cache_key());
        assert_eq!(spec(1).cache_key(), spec(1).cache_key());
    }

    #[test]
    fn jobs_differing_only_in_heuristic_or_mode_never_share_a_cache_entry() {
        // Satellite audit: every solver-relevant JobSpec field must
        // split the key.
        let base = || gen::uf20_91(1);
        let mut keys = vec![
            JobSpec::new(JobKind::sat_with(
                base(),
                Heuristic::JeroslowWang,
                SimplifyMode::Fixpoint,
            ))
            .cache_key(),
            JobSpec::new(JobKind::sat_with(
                base(),
                Heuristic::Dlis,
                SimplifyMode::Fixpoint,
            ))
            .cache_key(),
            JobSpec::new(JobKind::sat_with(
                base(),
                Heuristic::JeroslowWang,
                SimplifyMode::SplitOnly,
            ))
            .cache_key(),
        ];
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 3, "heuristic/mode must each split the key");
    }

    #[test]
    fn portfolio_member_set_is_part_of_the_cache_key() {
        use hyperspace_core::{PortfolioSpec, StrategySpec};
        let single = JobSpec::new(JobKind::sat(gen::uf20_91(1)));
        let folio =
            |spec: PortfolioSpec| JobSpec::new(JobKind::sat(gen::uf20_91(1))).portfolio(spec);
        let two = folio(PortfolioSpec::diversified_sat(2));
        let three = folio(PortfolioSpec::diversified_sat(3));
        assert_ne!(single.cache_key(), two.cache_key());
        assert_ne!(two.cache_key(), three.cache_key());
        assert_eq!(
            two.cache_key(),
            folio(PortfolioSpec::diversified_sat(2)).cache_key()
        );
        // Member backends are bit-identical and must not split the
        // cache; any other member knob must.
        let seq_members = folio(PortfolioSpec::new(vec![StrategySpec::mesh()]));
        let sharded_members = folio(PortfolioSpec::new(vec![
            StrategySpec::mesh().with_backend(BackendSpec::sharded(4))
        ]));
        assert_eq!(seq_members.cache_key(), sharded_members.cache_key());
        let reseeded = folio(PortfolioSpec::new(vec![StrategySpec::mesh().with_seed(9)]));
        assert_ne!(seq_members.cache_key(), reseeded.cache_key());
    }

    #[test]
    fn superseded_kind_level_sat_knobs_do_not_split_portfolio_caches() {
        use hyperspace_core::PortfolioSpec;
        // A SAT portfolio takes its solver knobs from the member
        // strategies; two submissions differing only in the ignored
        // kind-level heuristic/mode are the same computation.
        let folio = |heuristic: Heuristic, mode: SimplifyMode| {
            JobSpec::new(JobKind::sat_with(gen::uf20_91(1), heuristic, mode))
                .portfolio(PortfolioSpec::diversified_sat(3))
        };
        let a = folio(Heuristic::JeroslowWang, SimplifyMode::Fixpoint);
        let b = folio(Heuristic::Dlis, SimplifyMode::SplitOnly);
        assert_eq!(a.cache_key(), b.cache_key());
        // Without a portfolio the kind-level knobs matter as before.
        let c = JobSpec::new(JobKind::sat_with(
            gen::uf20_91(1),
            Heuristic::JeroslowWang,
            SimplifyMode::Fixpoint,
        ));
        let d = JobSpec::new(JobKind::sat_with(
            gen::uf20_91(1),
            Heuristic::Dlis,
            SimplifyMode::Fixpoint,
        ));
        assert_ne!(c.cache_key(), d.cache_key());
        // And the portfolio key never collides with a single-stack key.
        assert_ne!(a.cache_key(), c.cache_key());
    }

    #[test]
    fn scalar_kinds_have_distinct_keys() {
        let keys: Vec<Option<String>> = [
            JobKind::fib(10),
            JobKind::sum(10),
            JobKind::nqueens(6),
            JobKind::knapsack(
                vec![Item {
                    weight: 1,
                    value: 2,
                }],
                5,
            ),
        ]
        .into_iter()
        .map(|k| JobSpec::new(k).cache_key())
        .collect();
        for (i, a) in keys.iter().enumerate() {
            assert!(a.is_some());
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
