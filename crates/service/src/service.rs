//! [`SolverService`]: the multi-tenant worker pool.

use std::collections::{BinaryHeap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hyperspace_core::{JobParams, RunSlice, RunSummary, SliceOutcome};
use hyperspace_obs::{
    saturating_micros, saturating_nanos, Event, EventKind, Gauge, ObsHandle, Observer, Phase,
    Registry,
};
use hyperspace_sim::{panic_message, RunOutcome};
use hyperspace_store::JobStore;

use crate::handle::{JobHandle, JobShared};
use crate::job::{JobKind, JobOutcome, JobRequest, JobResult, JobSpec};
use crate::observe::ServiceObserver;
use crate::persist;
use crate::stats::{saturating_i64, ServiceStats, StatsInner};

/// Unwraps a lock or condvar-wait result on one of the service's own
/// mutexes (`queue`, `cache`, `stats`) — the one place the service's
/// lock-poisoning policy is written down: **fail-stop**.
///
/// Nothing a workload supplies runs under these locks (factories, stack
/// assembly and handlers execute inside `process_job`'s panic guard, on
/// a worker, holding none of them), so poison can only mean the
/// service's *own* bookkeeping panicked half-way through an update. What
/// the locks guard carries cross-field invariants that a half-applied
/// update breaks silently — `finished() <= submitted`, `jobs_by_kind`
/// summing to `finished()`, `running` matching the workers that hold a
/// job, the cache's map/order pair — so recovering the guard with
/// `PoisonError::into_inner` would keep scheduling and reporting from a
/// state nobody can vouch for. Panicking surfaces the bug at once.
fn unpoisoned<G>(guard: std::sync::LockResult<G>) -> G {
    guard.expect("service lock poisoned: the service's own bookkeeping panicked mid-update")
}

/// A job as it sits in the priority queue: its description plus, while
/// it is parked at a checkpoint barrier, its live run.
struct QueuedJob {
    priority: i32,
    seq: u64,
    submitted_at: Instant,
    deadline_at: Option<Instant>,
    params: JobParams,
    /// The workload, until a run consumes it: a checkpoint-enabled job
    /// whose kind duplicates ([`JobKind::try_clone`]) starts from a copy
    /// and keeps the original, which is what lets a crashed attempt be
    /// dropped and started afresh; every other job gives its kind away.
    kind: Option<JobKind>,
    /// The live run of a job suspended at a checkpoint barrier
    /// (preemption / explicit suspend); resuming it is bit-identical to
    /// never stopping. `None` until started and while a worker runs it.
    slice: Option<Box<dyn RunSlice>>,
    cache_key: Option<String>,
    label: String,
    shared: Arc<JobShared>,
    /// Crash-recovery attempts consumed.
    attempt: u32,
    /// Steps completed at the last observed checkpoint barrier.
    checkpoint_steps: u64,
    /// After a crash restart: replay (deterministically) to this step
    /// before preemption checks resume — the logical "restore from the
    /// last checkpoint".
    resume_floor: u64,
    /// Queue wait to the *first* pickup (re-queues from preemption are
    /// scheduling churn, not queue wait).
    first_wait: Option<Duration>,
    /// Execution sequence number assigned at first pickup.
    exec_seq: Option<u64>,
    /// Solve time accumulated over earlier slices of this job.
    solve_so_far: Duration,
    /// The job's durable spec encoding — present iff the service has a
    /// store and the workload is persistable. Encoded exactly once (at
    /// submission or recovery) and reused verbatim by every barrier
    /// persist.
    spec_bytes: Option<Arc<Vec<u8>>>,
    /// Sequence number of the job's next durable write; resumes — not
    /// resets — across recovery, so a record's freshness is always
    /// comparable.
    persist_seq: u64,
}

impl QueuedJob {
    /// A job that has not run yet: no durable encoding and no progress
    /// (`submit` and `recover` fill those in).
    fn new(
        shared: Arc<JobShared>,
        priority: i32,
        spec: JobSpec,
        deadline: Option<Duration>,
    ) -> QueuedJob {
        let now = Instant::now();
        QueuedJob {
            priority,
            seq: 0, // assigned under the queue lock, in `enqueue`
            submitted_at: now,
            deadline_at: deadline.map(|d| now + d),
            cache_key: spec.cache_key(),
            label: spec.kind.label(),
            params: JobParams {
                // Any caller-provided stop handle is replaced by the
                // job's own (installed at execution time).
                stop: None,
                ..spec.params
            },
            kind: Some(spec.kind),
            slice: None,
            shared,
            attempt: 0,
            checkpoint_steps: 0,
            resume_floor: 0,
            first_wait: None,
            exec_seq: None,
            solve_so_far: Duration::ZERO,
            spec_bytes: None,
            persist_seq: 0,
        }
    }
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}

impl Eq for QueuedJob {}

impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedJob {
    /// Max-heap order: higher priority first; FIFO within a priority.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

struct QueueInner {
    heap: BinaryHeap<QueuedJob>,
    next_seq: u64,
    running: usize,
    shutdown: bool,
}

/// Bounded FIFO result cache: when full, the oldest entry is evicted.
/// Bounded because the service is long-running and keys embed full
/// problem renderings — an unbounded map would grow without limit under
/// a stream of distinct jobs.
struct ResultCache {
    map: HashMap<String, RunSummary>,
    order: std::collections::VecDeque<String>,
    capacity: usize,
}

impl ResultCache {
    fn new(capacity: usize) -> ResultCache {
        ResultCache {
            map: HashMap::new(),
            order: std::collections::VecDeque::new(),
            capacity,
        }
    }

    fn get(&self, key: &str) -> Option<RunSummary> {
        self.map.get(key).cloned()
    }

    fn insert(&mut self, key: &str, summary: RunSummary) {
        if self.capacity == 0 {
            return;
        }
        if self.map.contains_key(key) {
            return; // identical computation; keep the original entry
        }
        while self.map.len() >= self.capacity {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.map.remove(&oldest);
                }
                None => break,
            }
        }
        self.map.insert(key.to_string(), summary);
        self.order.push_back(key.to_string());
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

struct ServiceInner {
    queue: Mutex<QueueInner>,
    /// Signalled on push and on shutdown; workers wait here.
    available: Condvar,
    /// Signalled when a worker finishes a job; drain waiters wait here.
    drained: Condvar,
    cache: Mutex<ResultCache>,
    stats: Mutex<StatsInner>,
    next_id: AtomicU64,
    exec_seq: AtomicU64,
    started: Instant,
    workers: usize,
    max_restarts: u32,
    /// Live telemetry: per-job probes, lifecycle flight recorder, crash
    /// dumps. Strictly one-way — nothing read from here feeds back into
    /// scheduling or solving, so results stay bit-identical whether
    /// anyone is watching or not.
    registry: Arc<Registry>,
    /// Cached `queue.depth` gauge cell (skips the registry name lookup
    /// on every push/pop).
    depth: Gauge,
    /// The durable on-disk job store, when configured
    /// ([`ServiceConfig::store_dir`]).
    store: Option<Arc<JobStore>>,
    /// Set by [`SolverService::kill`]: simulate abrupt process death.
    /// Workers stop at their next barrier without finishing handles,
    /// and durable records are left in place for the next service to
    /// recover.
    killed: AtomicBool,
}

/// Configuration of a [`SolverService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker pool size.
    pub workers: usize,
    /// Whether worker threads start immediately
    /// ([`SolverService::start`] launches them otherwise).
    pub start_workers: bool,
    /// Maximum entries in the result cache; the oldest entry is evicted
    /// at capacity. `0` disables caching entirely.
    pub cache_capacity: usize,
    /// How many times a checkpointed, rebuildable job whose worker
    /// crashed (panicked) mid-solve is restarted from its last
    /// checkpoint before being reported [`JobOutcome::Failed`].
    /// Restarts re-derive the checkpoint state by deterministic replay,
    /// so a recovered job's result is bit-identical to an uninterrupted
    /// one. `0` disables crash recovery (jobs without checkpoints are
    /// never restarted regardless).
    pub max_restarts: u32,
    /// Directory of the durable on-disk job store. When set, every
    /// checkpoint-enabled persistable job's latest record (spec +
    /// progress floor) survives process death under this directory, and
    /// a new service opened over the same directory recovers all
    /// in-flight jobs before its workers start
    /// ([`SolverService::recovered`]). `None` (the default) disables
    /// persistence entirely.
    pub store_dir: Option<PathBuf>,
    /// Capacity of the service-wide flight recorder (events kept in the
    /// ring, and finished jobs whose probes stay readable). Bounds-checked
    /// on service construction: values are clamped into `[1, 2^20]`, so a
    /// zero capacity keeps the most recent event rather than silently
    /// recording nothing.
    pub flight_recorder_capacity: usize,
    /// How many trailing flight-recorder events a crash dump preserves.
    /// Clamped into `[1, flight_recorder_capacity]`.
    pub crash_dump_tail: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 16),
            start_workers: true,
            cache_capacity: 4096,
            max_restarts: 1,
            store_dir: None,
            flight_recorder_capacity: 256,
            crash_dump_tail: hyperspace_obs::CRASH_DUMP_TAIL,
        }
    }
}

/// A multi-tenant solver service: persistent worker threads pull typed
/// jobs off a shared priority queue, assemble the requested five-layer
/// stack, and solve under the job's deadline; identical submissions are
/// served from a keyed result cache.
///
/// Workers outlive jobs (the pool is the long-lived "machine" of §VII's
/// repertoire vision); per-job machine configuration — topology, mapper,
/// layer-4 cancellation — travels with each [`JobRequest`], so tenants
/// with different workloads share the same pool.
///
/// ```
/// use hyperspace_service::{JobKind, SolverService};
///
/// let service = SolverService::with_workers(2);
/// let job = service.submit(JobKind::sum(100));
/// let result = job.wait();
/// let summary = result.outcome.summary().expect("completed");
/// assert_eq!(summary.result.as_deref(), Some("5050"));
/// ```
pub struct SolverService {
    inner: Arc<ServiceInner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Handles of jobs recovered from the durable store at startup.
    recovered: Vec<JobHandle>,
}

impl SolverService {
    /// A service with the given configuration.
    ///
    /// # Panics
    ///
    /// When [`ServiceConfig::store_dir`] is set but the directory cannot
    /// be created or scanned — a service that silently dropped its
    /// durability guarantee would be worse than one that refuses to
    /// start.
    pub fn new(cfg: ServiceConfig) -> SolverService {
        assert!(cfg.workers >= 1, "a service needs at least one worker");
        let store = cfg
            .store_dir
            .as_ref()
            .map(|dir| Arc::new(JobStore::open(dir).expect("open the durable job store")));
        let registry = Arc::new(Registry::with_limits(
            cfg.flight_recorder_capacity.clamp(1, 1 << 20),
            cfg.crash_dump_tail,
        ));
        let depth = registry.gauge("queue.depth");
        let inner = Arc::new(ServiceInner {
            queue: Mutex::new(QueueInner {
                heap: BinaryHeap::new(),
                next_seq: 0,
                running: 0,
                shutdown: false,
            }),
            available: Condvar::new(),
            drained: Condvar::new(),
            cache: Mutex::new(ResultCache::new(cfg.cache_capacity)),
            stats: Mutex::new(StatsInner::new(cfg.workers)),
            next_id: AtomicU64::new(0),
            exec_seq: AtomicU64::new(0),
            started: Instant::now(),
            workers: cfg.workers,
            max_restarts: cfg.max_restarts,
            registry,
            depth,
            store,
            killed: AtomicBool::new(false),
        });
        let mut service = SolverService {
            inner,
            threads: Vec::new(),
            recovered: Vec::new(),
        };
        service.recover();
        if cfg.start_workers {
            service.start();
        }
        service
    }

    /// Scans the durable store and re-queues every in-flight job it
    /// finds, before the workers start (so recovered jobs re-enter in
    /// their original submission order, ahead of anything submitted to
    /// this incarnation). Each keeps its original id and replays
    /// deterministically to its last checkpoint barrier; corrupt
    /// records — and records whose portfolio fails the submission
    /// check — are quarantined and counted as persist errors. No-op
    /// without a store.
    fn recover(&mut self) {
        let Some(store) = self.inner.store.clone() else {
            return;
        };
        let outcome = store.scan().expect("scan the durable job store");
        let mut persist_errors = outcome.corrupt.len() as u64;
        for manifest in outcome.jobs {
            let record = match persist::decode_record(&manifest.payload) {
                Ok(record)
                    if crate::job::validate_portfolio(&record.kind, &record.params).is_none() =>
                {
                    record
                }
                _ => {
                    // Manifest framing was healthy (the CRC proves the
                    // bytes are the ones written) but the job record
                    // inside does not decode, or fails the check
                    // `submit()` runs and would panic a worker;
                    // quarantine it like the scan does so the next
                    // restart is not haunted by it too.
                    let _ = store.remove(manifest.job_id);
                    persist_errors += 1;
                    continue;
                }
            };
            let id = manifest.job_id;
            let next = self.inner.next_id.load(Ordering::Relaxed).max(id + 1);
            self.inner.next_id.store(next, Ordering::Relaxed);
            let shared = JobShared::new(id);
            self.recovered.push(JobHandle {
                shared: Arc::clone(&shared),
            });
            {
                let mut stats = unpoisoned(self.inner.stats.lock());
                stats.submitted += 1;
                stats.recovered += 1;
            }
            let spec = JobSpec {
                kind: record.kind,
                params: record.params,
            };
            // Deadlines are wall-clock budgets from the original
            // submission; after a restart of unknown delay they are
            // meaningless, so recovered jobs run without one.
            let mut job = QueuedJob::new(shared, record.priority, spec, None);
            // Through the job's probe, not the registry directly: the
            // probe counts the recovery (see `JobProbe::recovers`) and
            // forwards the event to the shared flight recorder.
            self.inner.registry.probe(id, &job.label).on_event(
                &Event::new(
                    EventKind::Recovered,
                    Some(id),
                    saturating_i64(record.checkpoint_steps),
                )
                .with_detail(job.label.clone()),
            );
            job.checkpoint_steps = record.checkpoint_steps;
            // Replay deterministically to the last durable barrier
            // before preemption checks resume — the cross-process
            // "restore from checkpoint".
            job.resume_floor = record.checkpoint_steps;
            job.spec_bytes = Some(Arc::new(record.spec_bytes));
            job.persist_seq = manifest.job_seq + 1;
            admit(&self.inner, job);
        }
        if persist_errors > 0 {
            unpoisoned(self.inner.stats.lock()).persist_errors += persist_errors;
        }
    }

    /// Handles of the jobs recovered from the durable store when this
    /// service started (empty without a [`ServiceConfig::store_dir`]).
    /// Recovered jobs replay deterministically to their last durable
    /// checkpoint barrier, so their eventual [`RunSummary`]s are
    /// bit-identical to an uninterrupted run.
    pub fn recovered(&self) -> &[JobHandle] {
        &self.recovered
    }

    /// Simulates abrupt process death (crash-recovery testing): stops
    /// the pool *without* draining the queue, without finishing
    /// outstanding handles, and without touching the durable store.
    /// Running checkpointed jobs stop at their next barrier — their
    /// latest durable record stays on disk — while a job without a
    /// checkpoint interval is one slice and runs it to completion (there
    /// is no barrier to stop it at). A new
    /// service opened over the same [`ServiceConfig::store_dir`]
    /// recovers everything still in flight.
    pub fn kill(self) {
        self.inner.killed.store(true, Ordering::SeqCst);
        // Drop does the rest: with the killed flag set it skips
        // aborting queued jobs and just stops and joins the workers.
    }

    /// A running service with `workers` worker threads.
    pub fn with_workers(workers: usize) -> SolverService {
        SolverService::new(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        })
    }

    /// A service whose workers have not started yet: submissions queue
    /// up but nothing executes until [`SolverService::start`]. Used by
    /// tests needing deterministic queue ordering, and by embedders that
    /// want to pre-fill the queue.
    pub fn paused(workers: usize) -> SolverService {
        SolverService::new(ServiceConfig {
            workers,
            start_workers: false,
            ..ServiceConfig::default()
        })
    }

    /// Launches the worker threads (idempotent).
    pub fn start(&mut self) {
        if !self.threads.is_empty() {
            return;
        }
        for wid in 0..self.inner.workers {
            let inner = Arc::clone(&self.inner);
            self.threads.push(
                std::thread::Builder::new()
                    .name(format!("hyperspace-worker-{wid}"))
                    .spawn(move || worker_loop(inner, wid))
                    .expect("spawn worker thread"),
            );
        }
    }

    /// Submits a job; returns immediately with a handle. Invalid
    /// portfolio requests (no members, or SAT-only strategies such as
    /// CDCL members on a non-SAT workload — clause exchange needs a
    /// formula) are rejected here with [`JobOutcome::Failed`] rather
    /// than panicking a worker later.
    pub fn submit(&self, request: impl Into<JobRequest>) -> JobHandle {
        let request = request.into();
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        // Count the submission before the job becomes poppable so no
        // stats snapshot can observe completed > submitted.
        unpoisoned(self.inner.stats.lock()).submitted += 1;
        let shared = JobShared::new(id);
        let handle = JobHandle {
            shared: Arc::clone(&shared),
        };
        if let Some(reason) =
            crate::job::validate_portfolio(&request.spec.kind, &request.spec.params)
        {
            // Refused at the door: never queued, so no `Submitted` event
            // and no durable record.
            let job = QueuedJob::new(shared, request.priority, request.spec, None);
            retire(&self.inner, job, JobOutcome::Failed(reason), None);
            return handle;
        }
        // Persistable = checkpoint-enabled + a workload the spec grammar
        // can serialise (closure-backed kinds cannot cross a process
        // boundary; every kind that serialises also clones, so it can
        // restart). Encoded once, here.
        let spec_bytes =
            if self.inner.store.is_some() && request.spec.params.checkpoint.is_enabled() {
                persist::encode_spec(request.priority, &request.spec.kind, &request.spec.params)
                    .map(Arc::new)
            } else {
                None
            };
        let mut job = QueuedJob::new(shared, request.priority, request.spec, request.deadline);
        job.spec_bytes = spec_bytes;
        self.inner.registry.record(
            Event::new(EventKind::Submitted, Some(id), i64::from(request.priority))
                .with_detail(job.label.clone()),
        );
        // Make the submission durable *before* it becomes poppable: a
        // process killed the instant submit() returns must still
        // recover this job.
        persist_job(&self.inner, &mut job, None);
        admit(&self.inner, job);
        handle
    }

    /// A cloneable live view of the service: per-job progress probes,
    /// the lifecycle flight recorder, queue-depth/steps-per-second
    /// dashboard series, JSON snapshots, and crash dumps. Observation
    /// is strictly read-only and never perturbs results — the
    /// bit-identity suite runs every backend with it on and off and
    /// asserts identical reports and checkpoint bytes.
    pub fn observe(&self) -> ServiceObserver {
        ServiceObserver::new(Arc::clone(&self.inner.registry))
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        unpoisoned(self.inner.queue.lock()).heap.len()
    }

    /// A snapshot of the service's operational metrics.
    pub fn stats(&self) -> ServiceStats {
        let queue_depth = self.queue_depth();
        let cache_entries = unpoisoned(self.inner.cache.lock()).len();
        let stats = unpoisoned(self.inner.stats.lock());
        let mut jobs_by_kind: Vec<(String, u64)> = stats
            .jobs_by_kind
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        jobs_by_kind.sort();
        ServiceStats {
            workers: self.inner.workers,
            uptime: self.inner.started.elapsed(),
            submitted: stats.submitted,
            completed: stats.completed,
            timed_out: stats.timed_out,
            cancelled: stats.cancelled,
            failed: stats.failed,
            cache_hits: stats.cache_hits,
            preemptions: stats.preemptions,
            suspensions: stats.suspensions,
            restarts: stats.restarts,
            persisted: stats.persisted,
            recovered: stats.recovered,
            persist_errors: stats.persist_errors,
            cache_entries,
            queue_depth,
            queue_wait_us: stats.queue_wait_us.clone(),
            solve_time_us: stats.solve_time_us.clone(),
            per_worker_jobs: stats.per_worker_jobs.clone(),
            per_worker_busy: stats
                .per_worker_busy_us
                .iter()
                .map(|&us| Duration::from_micros(us))
                .collect(),
            jobs_by_kind,
        }
    }

    /// Blocks until every queued and running job has finished.
    ///
    /// # Panics
    ///
    /// On a [`paused`](SolverService::paused) service with jobs queued:
    /// no worker exists to drain them, so the wait could never end.
    pub fn drain(&self) {
        let mut q = unpoisoned(self.inner.queue.lock());
        if self.threads.is_empty() && !(q.heap.is_empty() && q.running == 0) {
            // Release the lock before panicking so the Drop path can
            // still abort the queued jobs.
            drop(q);
            panic!(
                "drain() on a paused service with queued jobs would block forever; \
                 call start() first"
            );
        }
        while !(q.heap.is_empty() && q.running == 0) {
            q = unpoisoned(self.inner.drained.wait(q));
        }
    }

    /// Graceful shutdown: waits for all accepted jobs to finish, stops
    /// the workers, and returns the final stats. On a paused service the
    /// workers are started first so queued jobs still complete.
    pub fn shutdown(mut self) -> ServiceStats {
        self.start();
        self.drain();
        let stats = self.stats();
        self.halt_workers();
        stats
    }

    /// Stops workers and joins them; queued jobs are *not* drained —
    /// the caller has already drained or aborted them.
    fn halt_workers(&mut self) {
        {
            let mut q = unpoisoned(self.inner.queue.lock());
            q.shutdown = true;
        }
        self.inner.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Marks every still-queued job cancelled (used on drop so no
    /// handle waits forever).
    fn abort_queued(&self) {
        if self.inner.killed.load(Ordering::SeqCst) {
            // Simulated process death: queued jobs keep their durable
            // records and their handles deliberately never finish —
            // recovery by the next service incarnation owns them now.
            return;
        }
        let jobs: Vec<QueuedJob> = {
            let mut q = unpoisoned(self.inner.queue.lock());
            q.shutdown = true;
            self.inner.depth.set(0);
            std::mem::take(&mut q.heap).into_vec()
        };
        for job in jobs {
            retire(&self.inner, job, JobOutcome::Cancelled, None);
        }
    }
}

impl Drop for SolverService {
    fn drop(&mut self) {
        self.abort_queued();
        self.halt_workers();
    }
}

fn worker_loop(inner: Arc<ServiceInner>, wid: usize) {
    loop {
        let job = {
            let mut q = unpoisoned(inner.queue.lock());
            loop {
                if inner.killed.load(Ordering::SeqCst) {
                    // Simulated process death: stop without popping —
                    // whatever is queued belongs to recovery.
                    return;
                }
                if let Some(job) = q.heap.pop() {
                    q.running += 1;
                    inner.depth.set(q.heap.len() as u64);
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = unpoisoned(inner.available.wait(q));
            }
        };
        process_job(&inner, wid, job);
        {
            let mut q = unpoisoned(inner.queue.lock());
            q.running -= 1;
        }
        inner.drained.notify_all();
    }
}

/// Whether the queue holds work that should preempt a running job of
/// `priority` at its next checkpoint barrier. Strictly higher priority
/// only: equal-priority work waits its FIFO turn, so two long jobs can
/// never ping-pong each other.
fn higher_priority_waiting(inner: &ServiceInner, priority: i32) -> bool {
    unpoisoned(inner.queue.lock())
        .heap
        .peek()
        .is_some_and(|job| job.priority > priority)
}

/// Pushes `job` onto the heap — the only place that does — or hands it
/// back when the queue is shut down. With `fresh_seq` it takes the next
/// submission `seq` and so enters at the back of its priority class;
/// without, it keeps the one it has.
fn enqueue(inner: &ServiceInner, mut job: QueuedJob, fresh_seq: bool) -> Option<QueuedJob> {
    let mut q = unpoisoned(inner.queue.lock());
    if q.shutdown {
        return Some(job);
    }
    if fresh_seq {
        job.seq = q.next_seq;
        q.next_seq += 1;
    }
    q.heap.push(job);
    inner.depth.set(q.heap.len() as u64);
    drop(q);
    inner.available.notify_one();
    None
}

/// Queues a new or recovered job. A service that is already shut down
/// refuses it instead, so no handle waits forever.
fn admit(inner: &ServiceInner, job: QueuedJob) {
    if let Some(job) = enqueue(inner, job, true) {
        let refusal = JobOutcome::Failed("service is shut down".into());
        retire(inner, job, refusal, None);
    }
}

/// Puts a suspended or restarted job back into the priority queue. With
/// `to_back` false (preemption, crash restarts) it keeps its original
/// submission `seq` and so resumes ahead of later arrivals at the same
/// priority; with `to_back` true (explicit [`JobHandle::suspend`]) it
/// takes a fresh `seq` and re-enters at the back of its priority class,
/// letting already-queued peers overtake. On a shutting-down service the
/// job is retired as cancelled instead, so no handle waits forever.
fn requeue(inner: &ServiceInner, job: QueuedJob, to_back: bool) {
    if let Some(job) = enqueue(inner, job, to_back) {
        retire(inner, job, JobOutcome::Cancelled, None);
    }
}

/// Writes `job`'s current durable record — its pre-encoded spec, its
/// progress floor, and (when the slice's state is byte-serialisable)
/// its checkpoint bytes — and bumps the persist sequence. No-op for
/// jobs without a store or spec encoding. Persist failures are counted
/// and recorded, never fatal: the job keeps running, it just loses
/// crash durability back to its previous record.
fn persist_job(inner: &ServiceInner, job: &mut QueuedJob, checkpoint: Option<&[u8]>) {
    let (Some(store), Some(spec)) = (inner.store.as_ref(), job.spec_bytes.as_ref()) else {
        return;
    };
    let payload = persist::encode_record(spec, job.checkpoint_steps, checkpoint);
    // The store's put is temp-file + fsync + rename; attribute its wall
    // time to the job's fsync phase and the service-wide persist span.
    // Events route through the probe so persist/recover counters tick.
    let probe = inner.registry.probe(job.shared.id, &job.label);
    let started = Instant::now();
    let result = store.put(job.shared.id, job.persist_seq, &payload);
    let nanos = saturating_nanos(started.elapsed());
    probe.on_phase(0, Phase::Fsync, nanos);
    inner.registry.span("store.persist").record(nanos);
    match result {
        Ok(()) => {
            job.persist_seq += 1;
            unpoisoned(inner.stats.lock()).persisted += 1;
            probe.on_event(&Event::new(
                EventKind::Persisted,
                Some(job.shared.id),
                saturating_i64(job.checkpoint_steps),
            ));
        }
        Err(err) => {
            unpoisoned(inner.stats.lock()).persist_errors += 1;
            probe.on_event(
                &Event::new(EventKind::Persisted, Some(job.shared.id), -1)
                    .with_detail(format!("persist failed: {err}")),
            );
        }
    }
}

/// A worker crashed (panicked) mid-solve. If the job still holds its
/// workload and has restart budget, re-queue it *without* a run — the
/// next pickup starts it afresh and replays deterministically to the
/// last checkpoint barrier (`resume_floor`) — returning `None`; no
/// workload code runs here. Otherwise hand the job back with the
/// failure message.
fn crash(inner: &ServiceInner, mut job: QueuedJob, message: String) -> Option<(QueuedJob, String)> {
    // Record the crash, then preserve the flight recorder's tail so the
    // dump includes the crash event itself and the lead-up to it.
    let id = job.shared.id;
    inner.registry.record(
        Event::new(
            EventKind::Crashed,
            Some(id),
            saturating_i64(job.checkpoint_steps),
        )
        .with_detail(message.clone()),
    );
    inner.registry.dump_crash(id, message.clone());
    if job.kind.is_none() || job.attempt >= inner.max_restarts {
        return Some((job, message));
    }
    job.attempt += 1;
    job.resume_floor = job.checkpoint_steps;
    // The restart replays from step zero and re-times everything up to
    // the floor; keeping the pre-crash slice time would count every
    // replayed step twice in the job's reported solve time.
    job.solve_so_far = Duration::ZERO;
    job.shared.set_queued();
    unpoisoned(inner.stats.lock()).restarts += 1;
    inner.registry.record(Event::new(
        EventKind::Restarted,
        Some(id),
        saturating_i64(job.resume_floor),
    ));
    requeue(inner, job, false);
    None
}

/// Maps a finished run's summary to a job outcome, caching completed
/// results.
fn summary_outcome(inner: &ServiceInner, job: &QueuedJob, summary: RunSummary) -> JobOutcome {
    match summary.outcome {
        RunOutcome::Stopped => {
            if job.shared.cancelled.load(Ordering::SeqCst) {
                JobOutcome::Cancelled
            } else {
                JobOutcome::TimedOut
            }
        }
        _ => {
            if let Some(key) = &job.cache_key {
                unpoisoned(inner.cache.lock()).insert(key, summary.clone());
            }
            JobOutcome::Completed(summary)
        }
    }
}

/// The worker's share of a retirement: which worker held the job when
/// it ended, how long its last attempt ran there (`None`: decided at
/// pickup, nothing executed), and whether the cache answered.
struct Attempt {
    wid: usize,
    ran_for: Option<Duration>,
    from_cache: bool,
}

/// The one way out of the service, whoever decides the job is over: a
/// worker (`attempt`), `submit` refusing it, or a shutting-down service
/// cancelling what is queued or parked. The only writer of [`JobResult`],
/// the terminal counters, label count and event, and the durable-record
/// removal — so every exit leaves the same records.
fn retire(inner: &ServiceInner, job: QueuedJob, outcome: JobOutcome, attempt: Option<Attempt>) {
    let (worker, ran_for, from_cache) = match attempt {
        Some(a) => (Some(a.wid), a.ran_for, a.from_cache),
        None => (None, None, false),
    };
    let solve_time = job.solve_so_far + ran_for.unwrap_or_default();
    let queue_wait = {
        let mut stats = unpoisoned(inner.stats.lock());
        match &outcome {
            JobOutcome::Completed(_) => {
                stats.completed += 1;
                if from_cache {
                    stats.cache_hits += 1;
                }
            }
            JobOutcome::TimedOut => stats.timed_out += 1,
            JobOutcome::Cancelled => stats.cancelled += 1,
            JobOutcome::Failed(_) => stats.failed += 1,
        }
        if !from_cache && solve_time > Duration::ZERO {
            stats.solve_time_us.record(saturating_micros(solve_time));
        }
        if let Some(wid) = worker {
            stats.per_worker_jobs[wid] += 1;
            stats.per_worker_busy_us[wid] += saturating_micros(ran_for.unwrap_or_default());
        }
        *stats.jobs_by_kind.entry(job.label.clone()).or_insert(0) += 1;
        match (job.first_wait, &outcome) {
            // Recorded by the worker at first pickup.
            (Some(wait), _) => wait,
            // A failure no worker saw is a refusal at the door: the job
            // never waited in the queue, so it adds no sample.
            (None, JobOutcome::Failed(_)) => Duration::ZERO,
            // Left the queue without reaching a worker (drop, shutdown):
            // it still waited there, and its wait belongs in the
            // distribution like everyone else's.
            (None, _) => {
                let wait = job.submitted_at.elapsed();
                stats.queue_wait_us.record(saturating_micros(wait));
                wait
            }
        }
    };
    // Terminal lifecycle event (failures were already recorded as
    // `Crashed`, with the flight-recorder tail dumped, in `crash`).
    let terminal = match &outcome {
        JobOutcome::Completed(_) => Some(EventKind::Completed),
        JobOutcome::TimedOut => Some(EventKind::TimedOut),
        JobOutcome::Cancelled => Some(EventKind::Cancelled),
        JobOutcome::Failed(_) => None,
    };
    if let Some(kind) = terminal {
        inner.registry.record(Event::new(
            kind,
            Some(job.shared.id),
            saturating_i64(saturating_micros(solve_time)),
        ));
    }
    inner.registry.retire_probe(job.shared.id);
    // A terminal job no longer needs a durable record — and one retired
    // at a graceful shutdown must not be resurrected by the next
    // incarnation (only a kill leaves records behind).
    if job.spec_bytes.is_some() {
        if let Some(store) = inner.store.as_ref() {
            let _ = store.remove(job.shared.id);
        }
    }
    job.shared.finish(JobResult {
        id: job.shared.id,
        outcome,
        from_cache,
        queue_wait,
        solve_time,
        worker,
        exec_seq: job.exec_seq,
    });
}

fn process_job(inner: &ServiceInner, wid: usize, mut job: QueuedJob) {
    // One timestamp anchors both measurements: everything before it is
    // queue wait, everything after it is solve time. (Taking separate
    // `elapsed()` readings here used to leak the stats-lock acquisition
    // into neither/both, depending on contention.)
    let picked_up = Instant::now();
    if job.first_wait.is_none() {
        // First pickup: this is the job's queue wait — later re-queues
        // from preemption are scheduling churn, not queue wait.
        let wait = picked_up.saturating_duration_since(job.submitted_at);
        job.first_wait = Some(wait);
        job.exec_seq = Some(inner.exec_seq.fetch_add(1, Ordering::SeqCst));
        unpoisoned(inner.stats.lock())
            .queue_wait_us
            .record(saturating_micros(wait));
    }

    let mut from_cache = false;
    let mut executed = false;
    let outcome = 'decide: {
        if job.shared.cancelled.load(Ordering::SeqCst) {
            break 'decide JobOutcome::Cancelled;
        }
        if job.deadline_at.is_some_and(|d| picked_up >= d) {
            // Expired while queued: reject without occupying the worker.
            break 'decide JobOutcome::TimedOut;
        }
        if job.slice.is_none() {
            if let Some(hit) = job
                .cache_key
                .as_ref()
                .and_then(|key| unpoisoned(inner.cache.lock()).get(key))
            {
                from_cache = true;
                break 'decide JobOutcome::Completed(hit);
            }
        }

        job.shared.set_running();
        executed = true;
        inner.registry.record(Event::new(
            EventKind::Started,
            Some(job.shared.id),
            saturating_i64(wid as u64),
        ));
        // What runs next under the guard: the parked slice, or — first
        // start, crash restart and recovery alike — a run assembled afresh.
        let mut run: Box<dyn FnOnce() -> SliceOutcome> = match job.slice.take() {
            Some(slice) => Box::new(move || slice.run_slice()),
            None => {
                // A checkpoint-enabled job runs a copy of its workload and
                // keeps the original for a restart after a crash; every
                // other job never restarts, so it skips the clone.
                let copy = match &job.kind {
                    Some(kind) if job.params.checkpoint.is_enabled() => kind.try_clone(),
                    _ => None,
                };
                let kind = copy.or_else(|| job.kind.take());
                let mut params = job.params.clone();
                // The per-job probe rides with the engine for its whole
                // life (restarts re-use the same probe: step counters
                // only move forward through deterministic replay).
                let probe = inner.registry.probe(job.shared.id, &job.label);
                params.obs = ObsHandle::new(probe as Arc<dyn Observer>);
                let mut stop = job.shared.stop.clone();
                if let Some(deadline) = job.deadline_at {
                    // Absolute, so a resumed job keeps its original
                    // budget: the handle travels with the suspended sim.
                    stop = stop.until(deadline);
                }
                params.stop = Some(stop);
                Box::new(move || {
                    let kind = kind.expect("a job without a live run still holds its workload");
                    kind.into_erased().start(&params).run_slice()
                })
            }
        };

        // The slice loop: advance one checkpoint interval at a time; at
        // every barrier honour cancellation, explicit suspension, and
        // priority preemption. Everything a workload supplies (factory,
        // assembly, handlers) runs inside this one guard, holding no lock.
        loop {
            let slice = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                Err(panic) => {
                    let busy = picked_up.elapsed();
                    match crash(inner, job, panic_message(panic.as_ref(), "job panicked")) {
                        None => {
                            // Restarting from the checkpoint. The crashed
                            // attempt still occupied this worker; the
                            // terminal accounting never runs for it, so
                            // bill the busy time here.
                            unpoisoned(inner.stats.lock()).per_worker_busy_us[wid] +=
                                saturating_micros(busy);
                            return;
                        }
                        Some((returned, msg)) => {
                            job = returned;
                            break 'decide JobOutcome::Failed(msg);
                        }
                    }
                }
                Ok(SliceOutcome::Finished(summary)) => {
                    break 'decide summary_outcome(inner, &job, summary);
                }
                Ok(SliceOutcome::Yielded(slice)) => slice,
            };
            job.checkpoint_steps = slice.steps_done();
            inner.registry.record(Event::new(
                EventKind::SliceYielded,
                Some(job.shared.id),
                saturating_i64(job.checkpoint_steps),
            ));
            if job.checkpoint_steps > job.resume_floor {
                // A new durable barrier (replay below the floor
                // re-derives state the store already has).
                persist_job(inner, &mut job, slice.checkpoint_bytes().as_deref());
            }
            if inner.killed.load(Ordering::SeqCst) {
                // Simulated process death: stop here, leaving the
                // barrier record durable and the handle unfinished —
                // recovery owns this job now.
                return;
            }
            if job.shared.cancelled.load(Ordering::SeqCst) {
                break 'decide JobOutcome::Cancelled;
            }
            // Crash recovery: replay to the last checkpoint before
            // anything may interleave again (a suspend request made
            // meanwhile stays pending).
            let replaying = job.checkpoint_steps < job.resume_floor;
            let suspend = !replaying && job.shared.suspend.swap(false, Ordering::SeqCst);
            if replaying || !(suspend || higher_priority_waiting(inner, job.priority)) {
                run = Box::new(move || slice.run_slice());
                continue;
            }
            // Preempted: park the live run back in the queue and free
            // this worker for the higher-priority job. One reading of
            // the clock feeds both the worker's busy counter and the
            // job's accumulated solve time — separate `elapsed()` calls
            // drifted apart.
            let busy = picked_up.elapsed();
            {
                let mut stats = unpoisoned(inner.stats.lock());
                if suspend {
                    stats.suspensions += 1;
                } else {
                    stats.preemptions += 1;
                }
                stats.per_worker_busy_us[wid] += saturating_micros(busy);
            }
            job.solve_so_far += busy;
            job.slice = Some(slice);
            job.shared.set_queued();
            inner.registry.record(Event::new(
                if suspend {
                    EventKind::Suspended
                } else {
                    EventKind::Preempted
                },
                Some(job.shared.id),
                saturating_i64(job.checkpoint_steps),
            ));
            requeue(inner, job, suspend);
            return;
        }
    };

    // One reading of the clock for the final attempt: both the job's
    // total solve time and the worker's busy counter are derived from
    // it, so they cannot drift apart.
    let attempt = Attempt {
        wid,
        ran_for: executed.then(|| picked_up.elapsed()),
        from_cache,
    };
    retire(inner, job, outcome, Some(attempt));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobKind, JobSpec};
    use hyperspace_core::TopologySpec;

    fn small(kind: JobKind) -> JobRequest {
        JobRequest::new(JobSpec::new(kind).topology(TopologySpec::Torus2D { w: 4, h: 4 }))
    }

    #[test]
    fn sum_job_completes() {
        let service = SolverService::with_workers(2);
        let result = service.submit(small(JobKind::sum(10))).wait();
        let summary = result.outcome.summary().expect("completed");
        assert_eq!(summary.result.as_deref(), Some("55"));
        assert!(!result.from_cache);
        assert_eq!(service.stats().completed, 1);
    }

    #[test]
    fn identical_jobs_hit_the_cache() {
        let service = SolverService::with_workers(1);
        let first = service.submit(small(JobKind::fib(10))).wait();
        let second = service.submit(small(JobKind::fib(10))).wait();
        assert!(!first.from_cache);
        assert!(second.from_cache);
        assert_eq!(
            first.outcome.summary().unwrap(),
            second.outcome.summary().unwrap()
        );
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn paused_service_executes_by_priority() {
        let mut service = SolverService::paused(1);
        let low = service.submit(small(JobKind::sum(5)).priority(-1));
        let high = service.submit(small(JobKind::sum(6)).priority(10));
        let mid = service.submit(small(JobKind::sum(7)).priority(3));
        service.start();
        let (low, high, mid) = (low.wait(), high.wait(), mid.wait());
        assert!(high.exec_seq < mid.exec_seq, "high before mid");
        assert!(mid.exec_seq < low.exec_seq, "mid before low");
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let service = SolverService::with_workers(3);
        let handles: Vec<_> = (1..=12)
            .map(|n| service.submit(small(JobKind::sum(n))))
            .collect();
        let stats = service.shutdown();
        assert_eq!(stats.completed, 12);
        for h in handles {
            assert!(h.try_result().expect("finished").outcome.is_completed());
        }
    }

    #[test]
    fn result_cache_is_bounded_and_evicts_fifo() {
        let mut cache = ResultCache::new(2);
        let summary = |n: u64| RunSummary {
            result: Some(n.to_string()),
            outcome: RunOutcome::Halted,
            steps: n,
            computation_time: n,
            total_sent: 0,
            total_delivered: 0,
            activations_started: 0,
            activations_completed: 0,
            nodes_pruned: 0,
            best_incumbent: None,
        };
        cache.insert("a", summary(1));
        cache.insert("b", summary(2));
        assert_eq!(cache.len(), 2);
        cache.insert("c", summary(3)); // evicts "a"
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_none());
        assert!(cache.get("b").is_some() && cache.get("c").is_some());
        // Re-inserting an existing key neither grows nor reorders.
        cache.insert("b", summary(9));
        assert_eq!(cache.get("b").unwrap().steps, 2);
        // Capacity 0 disables caching.
        let mut off = ResultCache::new(0);
        off.insert("x", summary(1));
        assert_eq!(off.len(), 0);
    }

    #[test]
    fn cache_capacity_zero_disables_hits_end_to_end() {
        let service = SolverService::new(ServiceConfig {
            workers: 1,
            start_workers: true,
            cache_capacity: 0,
            max_restarts: 1,
            ..ServiceConfig::default()
        });
        let first = service.submit(small(JobKind::fib(9))).wait();
        let second = service.submit(small(JobKind::fib(9))).wait();
        assert!(!first.from_cache && !second.from_cache);
        assert_eq!(service.stats().cache_hits, 0);
    }

    #[test]
    fn shutdown_on_a_paused_service_starts_workers_and_drains() {
        let service = SolverService::paused(2);
        let handle = service.submit(small(JobKind::sum(8)));
        let stats = service.shutdown();
        assert_eq!(stats.completed, 1);
        assert!(handle.try_result().expect("drained").outcome.is_completed());
    }

    #[test]
    #[should_panic(expected = "would block forever")]
    fn drain_on_a_paused_service_with_queued_jobs_panics() {
        let service = SolverService::paused(1);
        let _handle = service.submit(small(JobKind::sum(8)));
        service.drain();
    }

    #[test]
    fn stats_never_show_more_finished_than_submitted() {
        let service = SolverService::with_workers(4);
        let handles: Vec<_> = (0..40u64)
            .map(|n| service.submit(small(JobKind::sum(n % 7))))
            .collect();
        // Sample snapshots while jobs are in flight.
        for _ in 0..200 {
            let s = service.stats();
            assert!(
                s.finished() <= s.submitted,
                "finished {} > submitted {}",
                s.finished(),
                s.submitted
            );
        }
        for h in handles {
            h.wait();
        }
    }

    #[test]
    fn cdcl_members_on_non_sat_jobs_are_rejected_at_submit() {
        use hyperspace_core::PortfolioSpec;
        let service = SolverService::with_workers(1);
        let spec = JobSpec::new(JobKind::fib(10))
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .portfolio(PortfolioSpec::diversified_sat(6)); // members 4+ are CDCL
        let result = service.submit(spec).wait();
        match result.outcome {
            JobOutcome::Failed(reason) => {
                assert!(reason.contains("CDCL"), "{reason}");
                assert!(reason.contains("fib"), "{reason}");
            }
            other => panic!("expected a submit-time rejection, got {other:?}"),
        }
        assert!(result.worker.is_none(), "never reached a worker");
        assert_eq!(service.stats().failed, 1);
        // A SAT job with the same members is accepted and completes.
        let ok = service
            .submit(
                JobSpec::new(JobKind::sat(hyperspace_sat::gen::uf20_91(2)))
                    .topology(TopologySpec::Torus2D { w: 4, h: 4 })
                    .portfolio(PortfolioSpec::diversified_sat(6)),
            )
            .wait();
        assert!(ok.outcome.is_completed());
    }

    #[test]
    fn a_panic_without_a_message_fails_the_job_as_job_panicked() {
        // The service's default text for non-string payloads, pinned
        // (the kernel's own is "handler panicked").
        let service = SolverService::with_workers(1);
        let mute = JobKind::erased_with_factory("mute", || -> hyperspace_core::ErasedStackJob {
            std::panic::panic_any(7u32)
        });
        let result = service.submit(small(mute)).wait();
        assert_eq!(result.outcome, JobOutcome::Failed("job panicked".into()));
    }

    #[test]
    fn dropping_the_service_cancels_queued_jobs() {
        let service = SolverService::paused(1);
        let handle = service.submit(small(JobKind::sum(5)));
        let other = service.submit(small(JobKind::sum(6)));
        // A waiter already blocked on the handle must be woken by the
        // drop-path cancellation, not left hanging forever.
        let waiter = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.wait())
        };
        let inner = Arc::clone(&service.inner);
        drop(service);
        let woken = waiter.join().expect("waiter thread");
        assert_eq!(woken.outcome, JobOutcome::Cancelled);
        let late = handle.wait();
        assert_eq!(late.outcome, JobOutcome::Cancelled);
        assert_eq!(other.wait().outcome, JobOutcome::Cancelled);
        // Cancelled-in-queue jobs still record their queue wait.
        let stats = inner.stats.lock().expect("stats poisoned");
        assert_eq!(stats.cancelled, 2);
        assert_eq!(
            stats.queue_wait_us.count(),
            2,
            "both aborted jobs must land in the queue-wait histogram"
        );
    }

    #[test]
    fn observe_exposes_probes_and_lifecycle_events() {
        let service = SolverService::with_workers(1);
        let observer = service.observe();
        let result = service.submit(small(JobKind::sum(12))).wait();
        assert!(result.outcome.is_completed());
        service.drain();
        // The job's probe saw engine steps from inside the solve loop.
        let probes = observer.probes();
        assert_eq!(probes.len(), 1);
        assert!(probes[0].steps() > 0, "probe fed from the engine");
        assert!(probes[0].delivered() > 0);
        assert_eq!(observer.total_steps(), probes[0].steps());
        // The flight recorder holds the full lifecycle in order.
        let events = observer.registry().recorder().snapshot();
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        use hyperspace_obs::EventKind::*;
        assert!(kinds.starts_with(&[Submitted, Started]), "{kinds:?}");
        assert_eq!(*kinds.last().unwrap(), Completed);
        assert!(events.iter().all(|e| e.job == Some(result.id)));
        // Queue is empty again; the snapshot is valid JSON with the
        // documented sections.
        assert_eq!(observer.queue_depth(), 0);
        let json = observer.snapshot().to_string();
        for key in ["counters", "gauges", "jobs", "events", "crashes"] {
            assert!(json.contains(&format!("\"{key}\"")), "{key} in {json}");
        }
    }

    #[test]
    fn submit_after_shutdown_fails_cleanly() {
        let mut service = SolverService::paused(1);
        service.start();
        let inner = Arc::clone(&service.inner);
        drop(service);
        let q = inner.queue.lock().unwrap();
        assert!(q.shutdown);
    }

    #[test]
    fn preempt_then_finish_records_each_job_exactly_once() {
        use crate::handle::JobStatus;
        use hyperspace_core::CheckpointSpec;
        let service = SolverService::with_workers(1);
        let long = service.submit(
            JobRequest::new(
                JobSpec::new(JobKind::fib(40))
                    .topology(TopologySpec::Torus2D { w: 4, h: 4 })
                    .checkpoint(CheckpointSpec::every(200)),
            )
            .priority(-5),
        );
        while long.status() != JobStatus::Running {
            std::thread::yield_now();
        }
        // With one worker, the quick job can only run if the long job
        // is preempted at a checkpoint barrier.
        let quick = service.submit(small(JobKind::sum(6)).priority(50));
        assert!(quick.wait().outcome.is_completed());
        long.cancel();
        assert_eq!(long.wait().outcome, JobOutcome::Cancelled);
        let stats = service.stats();
        assert!(stats.preemptions >= 1, "long job preempted at a barrier");
        // The regression this pins: a preempted job's re-queues are
        // scheduling churn, not fresh queue waits, and its slices are
        // one solve — each job lands in each histogram exactly once.
        assert_eq!(stats.queue_wait_us.count(), 2, "{stats}");
        assert_eq!(stats.solve_time_us.count(), 2, "{stats}");
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hyperspace-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_config(dir: &std::path::Path, start_workers: bool) -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            start_workers,
            store_dir: Some(dir.to_path_buf()),
            ..ServiceConfig::default()
        }
    }

    /// A small checkpoint-enabled job — the durable store only persists
    /// jobs that can restart from a checkpoint barrier.
    fn durable_job(n: u64) -> JobRequest {
        use hyperspace_core::CheckpointSpec;
        JobRequest::new(
            JobSpec::new(JobKind::sum(n))
                .topology(TopologySpec::Torus2D { w: 4, h: 4 })
                .checkpoint(CheckpointSpec::every(64)),
        )
    }

    #[test]
    fn submitted_jobs_are_durable_until_terminal() {
        let dir = store_dir("durable");
        let mut service = SolverService::new(durable_config(&dir, false));
        let handle = service.submit(durable_job(30));
        // Persisted at submission, before any worker could touch it.
        let store = JobStore::open(&dir).expect("open");
        assert!(store.get(handle.id()).expect("get").is_some());
        service.start();
        assert!(handle.wait().outcome.is_completed());
        service.drain();
        // A terminal job no longer needs its record.
        assert!(store.get(handle.id()).expect("get").is_none());
        assert!(service.stats().persisted >= 1);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_service_recovers_queued_jobs_bit_identically() {
        let dir = store_dir("recover");
        // Reference: the same job on a store-less service.
        let reference = SolverService::with_workers(1).submit(durable_job(9)).wait();
        let expected = reference.outcome.summary().expect("completed").clone();

        let service = SolverService::new(durable_config(&dir, false));
        let handle = service.submit(durable_job(9).priority(2));
        let id = handle.id();
        service.kill();
        // The kill left the handle unfinished and the record on disk.
        assert!(handle.try_result().is_none());

        let revived = SolverService::new(durable_config(&dir, true));
        let recovered = revived.recovered().to_vec();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].id(), id, "recovered under its original id");
        let result = recovered[0].wait();
        assert_eq!(
            result.outcome.summary().expect("completed"),
            &expected,
            "recovered summary is bit-identical to an uninterrupted run"
        );
        assert_eq!(revived.stats().recovered, 1);
        revived.drain();
        let store = JobStore::open(&dir).expect("open");
        assert!(store.get(id).expect("get").is_none(), "record retired");
        drop(revived);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
