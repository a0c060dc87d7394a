//! [`SolverService`]: the multi-tenant worker pool — a driver around one
//! [`Scheduler`] behind one mutex.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hyperspace_core::{JobParams, RunSlice, SliceOutcome};
use hyperspace_obs::{
    saturating_micros, saturating_nanos, Event, EventKind, Gauge, ObsHandle, Observer, Phase,
    Registry,
};
use hyperspace_sim::panic_message;
use hyperspace_store::JobStore;

use crate::handle::{JobHandle, JobShared};
use crate::job::{JobKind, JobOutcome, JobRequest, JobSpec};
use crate::observe::ServiceObserver;
use crate::persist;
use crate::scheduler::{Barrier, Crash, Exit, Job, Pickup, Scheduler};
use crate::stats::{saturating_i64, ServiceStats};

/// Unwraps a lock or condvar-wait result on the scheduler's mutex — the
/// service's lock-poisoning policy: **fail-stop**. No workload code and
/// no store I/O runs under the lock, so poison means a [`Scheduler`]
/// event panicked half-way. Every cross-field invariant
/// (`finished() <= submitted`, `jobs_by_kind` summing to `finished()`,
/// queue, running count, cache) lives in that one value, so recovering
/// the guard would schedule and report from a state nobody can vouch for.
fn unpoisoned<G>(guard: std::sync::LockResult<G>) -> G {
    guard.expect("service lock poisoned: the scheduler panicked mid-event")
}

/// What the driver parks with each [`Job`]; the scheduler never reads it.
struct Work {
    shared: Arc<JobShared>,
    params: JobParams,
    /// The workload, until a run consumes it (a checkpoint-enabled job
    /// whose kind duplicates runs a copy and keeps this for a restart).
    kind: Option<JobKind>,
    /// A run parked at a barrier; resuming it equals never stopping.
    slice: Option<Box<dyn RunSlice>>,
    /// The durable spec encoding, made once; present iff the service has
    /// a store and the workload is persistable.
    spec_bytes: Option<Vec<u8>>,
}

/// A handle and its job, submitted now.
fn new_job(
    id: u64,
    priority: i32,
    spec: JobSpec,
    deadline: Option<Duration>,
    spec_bytes: Option<Vec<u8>>,
) -> (JobHandle, Job<Work>) {
    let now = Instant::now();
    let (key, label) = (spec.cache_key(), spec.kind.label());
    let deadline_at = deadline.map(|d| now + d);
    let shared = JobShared::new(id);
    let work = Work {
        shared: Arc::clone(&shared),
        // The job's own stop handle replaces any caller-provided one.
        params: JobParams {
            stop: None,
            ..spec.params
        },
        kind: Some(spec.kind),
        slice: None,
        spec_bytes,
    };
    let job = Job::new(id, priority, now, deadline_at, key, label, work);
    (JobHandle { shared }, job)
}

struct ServiceInner {
    scheduler: Mutex<Scheduler<Work>>,
    /// Signalled on push and on shutdown; workers wait here.
    available: Condvar,
    /// Signalled when a worker releases a job; drain waiters wait here.
    drained: Condvar,
    workers: usize,
    /// Live telemetry: per-job probes, lifecycle flight recorder, crash
    /// dumps. Strictly one-way — nothing read from here feeds back into
    /// scheduling or solving.
    registry: Arc<Registry>,
    /// Cached `queue.depth` gauge cell.
    depth: Gauge,
    /// The durable on-disk job store ([`ServiceConfig::store_dir`]).
    store: Option<Arc<JobStore>>,
}

impl ServiceInner {
    /// Applies one scheduler event under the lock; republishes the queue
    /// depth.
    fn with<R>(&self, event: impl FnOnce(&mut Scheduler<Work>) -> R) -> R {
        let mut scheduler = unpoisoned(self.scheduler.lock());
        let decision = event(&mut scheduler);
        self.depth.set(scheduler.queue_depth() as u64);
        decision
    }

    /// Records a lifecycle event of job `id` in the flight recorder.
    fn record(&self, kind: EventKind, id: u64, value: u64) {
        let event = Event::new(kind, Some(id), saturating_i64(value));
        self.registry.record(event);
    }
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
        let inner = Arc::new(ServiceInner {
            scheduler: Mutex::new(Scheduler::new(&cfg, Instant::now())),
            available: Condvar::new(),
            drained: Condvar::new(),
            workers: cfg.workers,
            depth: registry.gauge("queue.depth"),
            registry,
            store,
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

    /// Re-queues every in-flight job in the durable store, in submission
    /// order and before the workers start, under its original id; it
    /// replays to its last checkpoint barrier. Corrupt records, and those
    /// that fail the submission check, are quarantined and counted as
    /// persist errors.
    fn recover(&mut self) {
        let Some(store) = self.inner.store.clone() else {
            return;
        };
        let outcome = store.scan().expect("scan the durable job store");
        let mut quarantined = outcome.corrupt.len() as u64;
        for manifest in outcome.jobs {
            let record = match persist::decode_record(&manifest.payload) {
                Ok(record)
                    if crate::job::refuse_unrunnable(&record.kind, &record.params).is_none() =>
                {
                    record
                }
                _ => {
                    // The manifest's CRC held, but the record inside does
                    // not decode, or fails the check `submit()` runs and
                    // would panic a worker: quarantine it like the scan
                    // does, so the next restart is not haunted by it too.
                    let _ = store.remove(manifest.job_id);
                    quarantined += 1;
                    continue;
                }
            };
            let (id, steps) = (manifest.job_id, record.checkpoint_steps);
            let spec = JobSpec {
                kind: record.kind,
                params: record.params,
            };
            // Deadlines are wall-clock budgets from the original
            // submission, meaningless after a restart of unknown delay.
            let (handle, mut job) =
                new_job(id, record.priority, spec, None, Some(record.spec_bytes));
            // Through the job's probe, which counts the recovery and
            // forwards the event to the flight recorder.
            let event = Event::new(EventKind::Recovered, Some(id), saturating_i64(steps));
            let probe = self.inner.registry.probe(id, &job.label);
            probe.on_event(&event.with_detail(job.label.clone()));
            // Replay deterministically to the last durable barrier before
            // preemption checks resume — the cross-process "restore from
            // checkpoint".
            (job.checkpoint_steps, job.resume_floor) = (steps, steps);
            job.persist_seq = manifest.job_seq + 1;
            self.inner.with(|s| s.recover(job));
            self.recovered.push(handle);
        }
        self.inner.with(|s| s.quarantined(quarantined));
    }

    /// Handles of the jobs recovered from the durable store when this
    /// service started (empty without a [`ServiceConfig::store_dir`]).
    /// Recovered jobs replay deterministically to their last durable
    /// checkpoint barrier, so their eventual
    /// [`hyperspace_core::RunSummary`]s are bit-identical to an
    /// uninterrupted run.
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
        // Drop does the rest: a killed scheduler retires nothing.
        self.inner.with(|s| s.kill());
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

    /// Submits a job; returns immediately with a handle. Sizes a program
    /// cannot search (a TSP instance outside 2 to 32 cities, an N-Queens
    /// board above 32) and invalid portfolio requests (no members, or
    /// SAT-only strategies such as CDCL members on a non-SAT workload —
    /// clause exchange needs a formula) are rejected here with
    /// [`JobOutcome::Failed`] rather than panicking a worker later.
    pub fn submit(&self, request: impl Into<JobRequest>) -> JobHandle {
        let JobRequest {
            spec,
            priority,
            deadline,
        } = request.into();
        let inner = &self.inner;
        let refusal = crate::job::refuse_unrunnable(&spec.kind, &spec.params);
        // Persistable = checkpoint-enabled + a workload the spec grammar
        // can serialise (closure-backed kinds cannot cross a process
        // boundary; every kind that serialises also clones, so it can
        // restart).
        let durable =
            refusal.is_none() && inner.store.is_some() && spec.params.checkpoint.is_enabled();
        let spec_bytes = durable
            .then(|| persist::encode_spec(priority, &spec.kind, &spec.params))
            .flatten();
        let id = inner.with(|s| s.issue_id());
        let (handle, mut job) = new_job(id, priority, spec, deadline, spec_bytes);
        // Refused at the door: never queued, no `Submitted` event, no
        // durable record. Otherwise durable *before* it becomes poppable:
        // a process killed the instant submit() returns still recovers it.
        if refusal.is_none() {
            let event = Event::new(EventKind::Submitted, Some(id), i64::from(priority));
            inner.registry.record(event.with_detail(job.label.clone()));
            persist_job(inner, &mut job, None);
        }
        match inner.with(|s| s.submit(Instant::now(), job, refusal)) {
            Some(exit) => leave(inner, exit),
            None => inner.available.notify_one(),
        }
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
        self.inner.with(|s| s.queue_depth())
    }

    /// A snapshot of the service's operational metrics, taken under one
    /// lock: every counter in it describes the same moment.
    pub fn stats(&self) -> ServiceStats {
        self.inner.with(|s| s.stats(Instant::now()))
    }

    /// Blocks until every queued and running job has finished.
    ///
    /// # Panics
    ///
    /// On a [`paused`](SolverService::paused) service with jobs queued:
    /// no worker exists to drain them, so the wait could never end.
    pub fn drain(&self) {
        let idle = |s: &Scheduler<Work>| s.queue_depth() == 0 && s.running() == 0;
        let mut s = unpoisoned(self.inner.scheduler.lock());
        if self.threads.is_empty() && !idle(&s) {
            // Release the lock before panicking so the Drop path can
            // still abort the queued jobs.
            drop(s);
            panic!(
                "drain() on a paused service with queued jobs would block forever; \
                 call start() first"
            );
        }
        while !idle(&s) {
            s = unpoisoned(self.inner.drained.wait(s));
        }
    }

    /// Graceful shutdown: waits for all accepted jobs to finish, stops
    /// the workers, and returns the final stats. On a paused service the
    /// workers are started first so queued jobs still complete.
    pub fn shutdown(mut self) -> ServiceStats {
        self.start();
        self.drain();
        self.stats() // Drop stops and joins the workers
    }
}

impl Drop for SolverService {
    /// Cancels every still-queued job, so no handle waits forever (a
    /// killed service leaves them to recovery), then stops and joins the
    /// workers.
    fn drop(&mut self) {
        for exit in self.inner.with(|s| s.shutdown(Instant::now())) {
            leave(&self.inner, exit);
        }
        self.inner.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(inner: Arc<ServiceInner>, wid: usize) {
    let cancelled = |w: &Work| w.shared.cancelled.load(Ordering::SeqCst);
    loop {
        let mut s = unpoisoned(inner.scheduler.lock());
        let next = loop {
            match s.pickup(Instant::now(), wid, cancelled) {
                Pickup::Wait => s = unpoisoned(inner.available.wait(s)),
                Pickup::Stop => return,
                Pickup::Run(job) => break Ok(job),
                Pickup::Leave(exit) => break Err(exit),
            }
        };
        inner.depth.set(s.queue_depth() as u64);
        drop(s);
        match next {
            Ok(job) => run_job(&inner, wid, job),
            Err(exit) => leave(&inner, exit),
        }
        inner.with(|s| s.release());
        inner.drained.notify_all();
    }
}

/// Writes `job`'s durable record — its spec encoding, progress floor and
/// (when the slice's state is byte-serialisable) checkpoint bytes — and
/// reports the outcome to the scheduler; a no-op without a store or spec
/// encoding. A failure is recorded, never fatal: the job keeps running,
/// it just loses crash durability back to its previous record.
fn persist_job(inner: &ServiceInner, job: &mut Job<Work>, checkpoint: Option<&[u8]>) {
    let (Some(store), Some(spec)) = (&inner.store, &job.payload.spec_bytes) else {
        return;
    };
    let payload = persist::encode_record(spec, job.checkpoint_steps, checkpoint);
    // The put is temp-file + fsync + rename: its wall time goes to the
    // job's fsync phase and the service-wide persist span, its event
    // through the probe so the persist counters tick.
    let probe = inner.registry.probe(job.id, &job.label);
    let started = Instant::now();
    let result = store.put(job.id, job.persist_seq, &payload);
    let nanos = saturating_nanos(started.elapsed());
    probe.on_phase(0, Phase::Fsync, nanos);
    inner.registry.span("store.persist").record(nanos);
    let steps = saturating_i64(job.checkpoint_steps);
    let event = match &result {
        Ok(()) => Event::new(EventKind::Persisted, Some(job.id), steps),
        Err(err) => Event::new(EventKind::Persisted, Some(job.id), -1)
            .with_detail(format!("persist failed: {err}")),
    };
    probe.on_event(&event);
    inner.with(|s| s.persisted(job, result.is_ok()));
}

/// Requeues a parked or restarting job (retiring it once shut down); its
/// handle reads `Queued` before another worker can pop it.
fn requeue(inner: &ServiceInner, job: Job<Work>) {
    job.payload.shared.set_queued();
    match inner.with(|s| s.requeue(Instant::now(), job)) {
        Some(exit) => leave(inner, exit),
        None => inner.available.notify_one(),
    }
}

/// The driver's share of every way out, after the scheduler counted it:
/// terminal event, durable-record removal, the handle's result.
fn leave(inner: &ServiceInner, Exit { job, result }: Exit<Work>) {
    // Failures were already recorded as `Crashed`, with the flight
    // recorder's tail dumped.
    let terminal = match &result.outcome {
        JobOutcome::Completed(_) => Some(EventKind::Completed),
        JobOutcome::TimedOut => Some(EventKind::TimedOut),
        JobOutcome::Cancelled => Some(EventKind::Cancelled),
        JobOutcome::Failed(_) => None,
    };
    if let Some(kind) = terminal {
        inner.record(kind, job.id, saturating_micros(result.solve_time));
    }
    inner.registry.retire_probe(job.id);
    // A terminal job needs no durable record — and one retired at a
    // graceful shutdown must not be resurrected (only a kill leaves
    // records behind).
    if let (Some(store), Some(_)) = (&inner.store, &job.payload.spec_bytes) {
        let _ = store.remove(job.id);
    }
    job.payload.shared.finish(result);
}

/// Runs a picked-up job slice by slice; at every barrier the scheduler
/// decides whether it continues, parks, leaves or stops. Everything a
/// workload supplies (factory, assembly, handlers) runs inside one panic
/// guard, holding no lock.
fn run_job(inner: &ServiceInner, wid: usize, mut job: Job<Work>) {
    let shared = Arc::clone(&job.payload.shared);
    shared.set_running();
    inner.record(EventKind::Started, job.id, wid as u64);
    // The parked slice, or — first start, crash restart and recovery
    // alike — a run assembled afresh.
    let mut run: Box<dyn FnOnce() -> SliceOutcome> = match job.payload.slice.take() {
        Some(slice) => Box::new(move || slice.run_slice()),
        None => {
            let work = &mut job.payload;
            let copy = match &work.kind {
                Some(kind) if work.params.checkpoint.is_enabled() => kind.try_clone(),
                _ => None,
            };
            let kind = copy.or_else(|| work.kind.take());
            let mut params = work.params.clone();
            // The per-job probe rides with the engine for its whole life
            // (a restart re-uses it: step counters only move forward
            // through deterministic replay).
            let probe = inner.registry.probe(job.id, &job.label);
            params.obs = ObsHandle::new(probe as Arc<dyn Observer>);
            // An absolute deadline, so a resumed job keeps its budget.
            let stop = shared.stop.clone();
            params.stop = Some(match job.deadline_at {
                Some(deadline) => stop.until(deadline),
                None => stop,
            });
            Box::new(move || {
                let kind = kind.expect("a job without a live run still holds its workload");
                kind.into_erased().start(&params).run_slice()
            })
        }
    };
    let cancelled = || shared.cancelled.load(Ordering::SeqCst);
    loop {
        let slice = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            Err(panic) => {
                let message = panic_message(panic.as_ref(), "job panicked");
                // Record the crash, then dump the flight recorder's tail,
                // crash event included.
                let steps = saturating_i64(job.checkpoint_steps);
                let event = Event::new(EventKind::Crashed, Some(job.id), steps);
                inner.registry.record(event.with_detail(message.clone()));
                inner.registry.dump_crash(job.id, message.clone());
                let can_restart = job.payload.kind.is_some();
                match inner.with(|s| s.crashed(Instant::now(), job, can_restart, message)) {
                    Crash::Restart(job) => {
                        inner.record(EventKind::Restarted, job.id, job.resume_floor);
                        requeue(inner, job);
                    }
                    Crash::Fail(exit) => leave(inner, exit),
                }
                return;
            }
            Ok(SliceOutcome::Finished(summary)) => {
                let exit = inner.with(|s| s.finished(Instant::now(), job, summary, cancelled()));
                return leave(inner, exit);
            }
            Ok(SliceOutcome::Yielded(slice)) => slice,
        };
        let fresh = job.reach(slice.steps_done());
        inner.record(EventKind::SliceYielded, job.id, job.checkpoint_steps);
        if fresh {
            persist_job(inner, &mut job, slice.checkpoint_bytes().as_deref());
        }
        let suspend = || shared.suspend.swap(false, Ordering::SeqCst);
        let decision = inner.with(|s| s.barrier(Instant::now(), job, cancelled(), suspend));
        job = match decision {
            Barrier::Continue(job) => job,
            Barrier::Park { mut job, suspended } => {
                job.payload.slice = Some(slice);
                let kind = match suspended {
                    true => EventKind::Suspended,
                    false => EventKind::Preempted,
                };
                inner.record(kind, job.id, job.checkpoint_steps);
                return requeue(inner, job);
            }
            Barrier::Leave(exit) => {
                drop(slice);
                return leave(inner, exit);
            }
            // Simulated process death: the barrier's record stays durable
            // and the handle unfinished — recovery owns this job now.
            Barrier::Stop(_) => return,
        };
        run = Box::new(move || slice.run_slice());
    }
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
            assert!(
                s.queue_depth as u64 + s.finished() <= s.submitted,
                "queued {} + finished {} > submitted {}",
                s.queue_depth,
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
        let stats = inner.with(|s| s.stats(Instant::now()));
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
