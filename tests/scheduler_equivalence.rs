//! The service's [`Scheduler`] against a reference twin.
//!
//! `Twin` below is a second scheduler written for reading, not speed: a
//! sorted `Vec` for the queue, linear scans for the cache and the label
//! counts, plain counters assembled into a [`ServiceStats`] only when
//! asked. It shares no code with the real one. A seeded generator drives
//! both through the same random event sequences — submissions (some
//! refused, some durable, some with deadlines or cache keys), pickups,
//! checkpoint barriers with persists that fail, finished and crashed
//! slices, cancel and suspend requests, clock ticks, kills followed by a
//! recovery from a model store, and a final shutdown — and compares every
//! decision and every stats snapshot.
//!
//! After every event the harness also checks, on its own bookkeeping:
//! - no job leaves twice;
//! - `Σ jobs_by_kind == finished()`;
//! - `queue_depth + running + finished() == submitted` (until a kill,
//!   which abandons what is in flight by design);
//! - each pickup takes the highest priority waiting, and the earliest
//!   admitted within it — where a preempted or restarted job keeps its
//!   place and a suspended one goes to the back;
//! - across a kill and a recovery nothing is lost (every unfinished job
//!   with a durable record comes back) or duplicated (no finished job
//!   does);
//! - at the end every job left exactly once, or was abandoned by a kill
//!   without a durable record.
//!
//! On a failure the sequence is shrunk (events dropped one at a time
//! while it still fails) and printed with its case number, which seeds
//! the generator.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hyperspace::core::RunSummary;
use hyperspace::obs::{saturating_micros, Histogram};
use hyperspace::service::scheduler::{Barrier, Crash, Exit, Job, Pickup, Scheduler};
use hyperspace::service::{JobOutcome, JobResult, ServiceConfig, ServiceStats};
use hyperspace::sim::RunOutcome;
use proptest::collection::vec;
use proptest::prelude::*;

const WORKERS: usize = 2;
const CACHE_CAPACITY: usize = 3;
const MAX_RESTARTS: u32 = 1;
const LABELS: [&str; 3] = ["fib", "sat", "sum"];

// ---------------------------------------------------------------------
// The reference twin.
// ---------------------------------------------------------------------

struct TwinJob {
    /// The harness's name for the job (the real scheduler's payload).
    serial: usize,
    id: u64,
    priority: i32,
    seq: u64,
    submitted_at: Instant,
    deadline_at: Option<Instant>,
    key: Option<String>,
    label: String,
    attempt: u32,
    steps: u64,
    floor: u64,
    persist_seq: u64,
    parked: bool,
    to_back: bool,
    first_wait: Option<Duration>,
    exec_seq: Option<u64>,
    solve: Duration,
    worker: Option<usize>,
    picked_up: Option<Instant>,
}

impl TwinJob {
    fn new(serial: usize, t: &Tenant, id: u64, now: Instant) -> TwinJob {
        TwinJob {
            serial,
            id,
            priority: t.priority,
            seq: 0,
            submitted_at: now,
            deadline_at: t.deadline.map(|d| now + d),
            key: t.key.clone(),
            label: t.label.to_string(),
            attempt: 0,
            steps: 0,
            floor: 0,
            persist_seq: 0,
            parked: false,
            to_back: false,
            first_wait: None,
            exec_seq: None,
            solve: Duration::ZERO,
            worker: None,
            picked_up: None,
        }
    }
}

enum TwinBarrier {
    Continue(TwinJob),
    Park(TwinJob, bool),
    Leave(TwinJob, JobResult),
    Stop,
}

#[derive(Default)]
struct Twin {
    /// Waiting jobs, next to run first.
    queue: Vec<TwinJob>,
    next_id: u64,
    next_seq: u64,
    next_exec: u64,
    running: usize,
    shutdown: bool,
    killed: bool,
    started: Option<Instant>,
    /// Cache entries, oldest first.
    cache: Vec<(String, RunSummary)>,
    submitted: u64,
    completed: u64,
    timed_out: u64,
    cancelled: u64,
    failed: u64,
    cache_hits: u64,
    preemptions: u64,
    suspensions: u64,
    restarts: u64,
    persisted: u64,
    recovered: u64,
    persist_errors: u64,
    queue_wait: Histogram,
    solve_time: Histogram,
    jobs_per_worker: Vec<u64>,
    busy_us_per_worker: Vec<u64>,
    by_kind: Vec<(String, u64)>,
}

impl Twin {
    fn new(now: Instant) -> Twin {
        Twin {
            started: Some(now),
            jobs_per_worker: vec![0; WORKERS],
            busy_us_per_worker: vec![0; WORKERS],
            ..Twin::default()
        }
    }

    /// Inserts behind every job of higher or equal priority admitted
    /// earlier.
    fn insert(&mut self, mut job: TwinJob, fresh: bool) {
        if fresh {
            job.seq = self.next_seq;
            self.next_seq += 1;
        }
        let mut at = 0;
        while at < self.queue.len()
            && (self.queue[at].priority > job.priority
                || (self.queue[at].priority == job.priority && self.queue[at].seq < job.seq))
        {
            at += 1;
        }
        self.queue.insert(at, job);
    }

    fn cached(&self, key: &str) -> Option<RunSummary> {
        self.cache
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, s)| s.clone())
    }

    fn cache_put(&mut self, key: &str, summary: RunSummary) {
        if CACHE_CAPACITY == 0 || self.cached(key).is_some() {
            return;
        }
        if self.cache.len() == CACHE_CAPACITY {
            self.cache.remove(0);
        }
        self.cache.push((key.to_string(), summary));
    }

    fn busy(&mut self, job: &TwinJob, d: Duration) {
        if let Some(w) = job.worker {
            self.busy_us_per_worker[w] += saturating_micros(d);
        }
    }

    fn leave(
        &mut self,
        now: Instant,
        job: TwinJob,
        outcome: JobOutcome,
        ran: Option<Duration>,
        hit: bool,
    ) -> (TwinJob, JobResult) {
        match &outcome {
            JobOutcome::Completed(_) => self.completed += 1,
            JobOutcome::TimedOut => self.timed_out += 1,
            JobOutcome::Cancelled => self.cancelled += 1,
            JobOutcome::Failed(_) => self.failed += 1,
        }
        if hit {
            self.cache_hits += 1;
        }
        let solve = job.solve + ran.unwrap_or(Duration::ZERO);
        if !hit && !solve.is_zero() {
            self.solve_time.record(saturating_micros(solve));
        }
        if let Some(w) = job.worker {
            self.jobs_per_worker[w] += 1;
        }
        self.busy(&job, ran.unwrap_or(Duration::ZERO));
        match self.by_kind.iter_mut().find(|(k, _)| *k == job.label) {
            Some(entry) => entry.1 += 1,
            None => self.by_kind.push((job.label.clone(), 1)),
        }
        let queue_wait = if let Some(w) = job.first_wait {
            w
        } else if matches!(outcome, JobOutcome::Failed(_)) {
            Duration::ZERO
        } else {
            let w = now.saturating_duration_since(job.submitted_at);
            self.queue_wait.record(saturating_micros(w));
            w
        };
        let result = JobResult {
            id: job.id,
            outcome,
            from_cache: hit,
            queue_wait,
            solve_time: solve,
            worker: job.worker,
            exec_seq: job.exec_seq,
        };
        (job, result)
    }

    fn issue_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn submit(
        &mut self,
        now: Instant,
        job: TwinJob,
        refusal: Option<String>,
    ) -> Option<(TwinJob, JobResult)> {
        self.submitted += 1;
        if let Some(reason) = refusal {
            return Some(self.leave(now, job, JobOutcome::Failed(reason), None, false));
        }
        if self.shutdown {
            let reason = "service is shut down".to_string();
            return Some(self.leave(now, job, JobOutcome::Failed(reason), None, false));
        }
        self.insert(job, true);
        None
    }

    fn recover(&mut self, job: TwinJob) {
        if job.id >= self.next_id {
            self.next_id = job.id + 1;
        }
        self.submitted += 1;
        self.recovered += 1;
        self.insert(job, true);
    }

    fn persisted(&mut self, job: &mut TwinJob, ok: bool) {
        if ok {
            self.persisted += 1;
            job.persist_seq += 1;
        } else {
            self.persist_errors += 1;
        }
    }

    fn pickup(&mut self, now: Instant, w: usize, cancelled: bool) -> TwinPickup {
        if self.killed {
            return TwinPickup::Stop;
        }
        if self.queue.is_empty() {
            return if self.shutdown {
                TwinPickup::Stop
            } else {
                TwinPickup::Wait
            };
        }
        let mut job = self.queue.remove(0);
        self.running += 1;
        job.worker = Some(w);
        job.picked_up = Some(now);
        if job.first_wait.is_none() {
            let wait = now.saturating_duration_since(job.submitted_at);
            self.queue_wait.record(saturating_micros(wait));
            job.first_wait = Some(wait);
            job.exec_seq = Some(self.next_exec);
            self.next_exec += 1;
        }
        if cancelled {
            let (job, r) = self.leave(now, job, JobOutcome::Cancelled, None, false);
            return TwinPickup::Leave(job, r);
        }
        if let Some(d) = job.deadline_at {
            if now >= d {
                let (job, r) = self.leave(now, job, JobOutcome::TimedOut, None, false);
                return TwinPickup::Leave(job, r);
            }
        }
        if !job.parked {
            if let Some(hit) = job.key.as_deref().and_then(|k| self.cached(k)) {
                let (job, r) = self.leave(now, job, JobOutcome::Completed(hit), None, true);
                return TwinPickup::Leave(job, r);
            }
        }
        TwinPickup::Run(job)
    }

    fn ran(job: &TwinJob, now: Instant) -> Duration {
        now.saturating_duration_since(job.picked_up.expect("running"))
    }

    fn barrier(
        &mut self,
        now: Instant,
        mut job: TwinJob,
        cancelled: bool,
        suspend: &mut dyn FnMut() -> bool,
    ) -> TwinBarrier {
        if self.killed {
            return TwinBarrier::Stop;
        }
        let ran = Twin::ran(&job, now);
        if cancelled {
            let (job, r) = self.leave(now, job, JobOutcome::Cancelled, Some(ran), false);
            return TwinBarrier::Leave(job, r);
        }
        if job.steps < job.floor {
            return TwinBarrier::Continue(job);
        }
        let suspended = suspend();
        let outranked = self.queue.iter().any(|q| q.priority > job.priority);
        if !suspended && !outranked {
            return TwinBarrier::Continue(job);
        }
        if suspended {
            self.suspensions += 1;
        } else {
            self.preemptions += 1;
        }
        self.busy(&job, ran);
        job.solve += ran;
        job.parked = true;
        job.to_back = suspended;
        TwinBarrier::Park(job, suspended)
    }

    fn finished(
        &mut self,
        now: Instant,
        job: TwinJob,
        summary: RunSummary,
        cancelled: bool,
    ) -> (TwinJob, JobResult) {
        let ran = Twin::ran(&job, now);
        let outcome = if summary.outcome != RunOutcome::Stopped {
            if let Some(k) = job.key.clone() {
                self.cache_put(&k, summary.clone());
            }
            JobOutcome::Completed(summary)
        } else if cancelled {
            JobOutcome::Cancelled
        } else {
            JobOutcome::TimedOut
        };
        self.leave(now, job, outcome, Some(ran), false)
    }

    fn crashed(
        &mut self,
        now: Instant,
        mut job: TwinJob,
        can_restart: bool,
        message: String,
    ) -> (TwinJob, Option<JobResult>) {
        let ran = Twin::ran(&job, now);
        if can_restart && job.attempt < MAX_RESTARTS {
            job.attempt += 1;
            job.floor = job.steps;
            job.solve = Duration::ZERO;
            job.parked = false;
            self.restarts += 1;
            self.busy(&job, ran);
            return (job, None);
        }
        let (job, result) = self.leave(now, job, JobOutcome::Failed(message), Some(ran), false);
        (job, Some(result))
    }

    fn requeue(&mut self, now: Instant, mut job: TwinJob) -> Option<(TwinJob, JobResult)> {
        job.worker = None;
        job.picked_up = None;
        if self.shutdown {
            return Some(self.leave(now, job, JobOutcome::Cancelled, None, false));
        }
        let fresh = job.to_back;
        job.to_back = false;
        self.insert(job, fresh);
        None
    }

    fn shutdown(&mut self, now: Instant) -> Vec<(TwinJob, JobResult)> {
        self.shutdown = true;
        if self.killed {
            return Vec::new();
        }
        let queued: Vec<TwinJob> = self.queue.drain(..).collect();
        queued
            .into_iter()
            .map(|job| self.leave(now, job, JobOutcome::Cancelled, None, false))
            .collect()
    }

    fn stats(&self, now: Instant) -> ServiceStats {
        let mut by_kind = self.by_kind.clone();
        by_kind.sort();
        ServiceStats {
            workers: WORKERS,
            uptime: now.saturating_duration_since(self.started.expect("started")),
            submitted: self.submitted,
            completed: self.completed,
            timed_out: self.timed_out,
            cancelled: self.cancelled,
            failed: self.failed,
            cache_hits: self.cache_hits,
            preemptions: self.preemptions,
            suspensions: self.suspensions,
            restarts: self.restarts,
            persisted: self.persisted,
            recovered: self.recovered,
            persist_errors: self.persist_errors,
            cache_entries: self.cache.len(),
            queue_depth: self.queue.len(),
            queue_wait_us: self.queue_wait.clone(),
            solve_time_us: self.solve_time.clone(),
            per_worker_jobs: self.jobs_per_worker.clone(),
            per_worker_busy: self
                .busy_us_per_worker
                .iter()
                .map(|&us| Duration::from_micros(us))
                .collect(),
            jobs_by_kind: by_kind,
        }
    }
}

enum TwinPickup {
    Wait,
    Stop,
    Run(TwinJob),
    Leave(TwinJob, JobResult),
}

// ---------------------------------------------------------------------
// The harness.
// ---------------------------------------------------------------------

/// One decision, in a form both schedulers can be compared on.
#[derive(Debug, PartialEq)]
enum Decision {
    Queued,
    Wait,
    Stop,
    Run(usize),
    Continue(usize),
    Park(usize, bool),
    Restart(usize),
    /// Stopped where it stood by a kill.
    Dropped(usize),
    Left(usize, String),
}

/// The handle side of a job, and what the harness knows about it.
#[derive(Clone)]
struct Tenant {
    priority: i32,
    deadline: Option<Duration>,
    key: Option<String>,
    label: &'static str,
    /// Has a durable spec encoding.
    durable: bool,
    cancelled: bool,
    suspend: bool,
    /// Steps of the live run parked with the job, if any.
    slice_steps: Option<u64>,
    /// FIFO key: the harness's own reading of "admitted earlier".
    order: u64,
    exits: u32,
    /// Lost by a kill without a durable record.
    abandoned: bool,
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        cache_capacity: CACHE_CAPACITY,
        max_restarts: MAX_RESTARTS,
        ..ServiceConfig::default()
    }
}

/// A job on a worker: the real one and the twin's.
type Held = (Job<usize>, TwinJob, u64);

struct World {
    now: Instant,
    real: Scheduler<usize>,
    twin: Twin,
    tenants: Vec<Tenant>,
    workers: Vec<Option<Held>>,
    /// Serials waiting in the queue.
    queued: Vec<usize>,
    /// The model store: job id → (persist seq, steps, serial).
    store: BTreeMap<u64, (u64, u64, usize)>,
    next_order: u64,
    killed: bool,
    log: Vec<String>,
}

impl World {
    fn new() -> World {
        let now = Instant::now();
        World {
            now,
            real: Scheduler::new(&config(), now),
            twin: Twin::new(now),
            tenants: Vec::new(),
            workers: (0..WORKERS).map(|_| None).collect(),
            queued: Vec::new(),
            store: BTreeMap::new(),
            next_order: 0,
            killed: false,
            log: Vec::new(),
        }
    }

    /// A worker is done with its job on both sides.
    fn release(&mut self) {
        self.real.release();
        self.twin.running -= 1;
    }

    fn order(&mut self) -> u64 {
        self.next_order += 1;
        self.next_order
    }

    fn same(&mut self, real: Decision, twin: Decision) -> Result<(), String> {
        self.log.push(format!("{real:?}"));
        if real != twin {
            return Err(format!("decision: real {real:?} vs twin {twin:?}"));
        }
        Ok(())
    }

    /// Books an exit (both sides already agree on it).
    fn exit(&mut self, serial: usize, result: &JobResult) -> Result<Decision, String> {
        let t = &mut self.tenants[serial];
        if t.exits > 0 || t.abandoned {
            return Err(format!("job {serial} left twice: {result:?}"));
        }
        t.exits += 1;
        self.queued.retain(|&s| s != serial);
        if t.durable {
            self.store.remove(&result.id);
        }
        Ok(Decision::Left(serial, format!("{result:?}")))
    }

    fn real_exit(&mut self, exit: Exit<usize>) -> Result<Decision, String> {
        self.exit(exit.job.payload, &exit.result)
    }

    fn twin_exit(&self, (job, result): (TwinJob, JobResult)) -> Decision {
        Decision::Left(job.serial, format!("{result:?}"))
    }

    /// A pickup took `serial`: it must be the highest priority waiting,
    /// and the earliest admitted within that priority.
    fn check_pick(&mut self, serial: usize) -> Result<(), String> {
        let me = &self.tenants[serial];
        if !self.queued.contains(&serial) {
            return Err(format!("picked {serial}, which is not queued"));
        }
        for &q in &self.queued {
            let other = &self.tenants[q];
            if q != serial
                && (other.priority > me.priority
                    || (other.priority == me.priority && other.order < me.order))
            {
                return Err(format!("picked {serial} ahead of {q}"));
            }
        }
        self.queued.retain(|&s| s != serial);
        Ok(())
    }

    /// Requeues a parked or restarting job on both sides; a suspended
    /// one (`to_back`) takes a fresh FIFO key, anything else keeps its
    /// own.
    fn requeue(
        &mut self,
        job: Job<usize>,
        tj: TwinJob,
        to_back: bool,
    ) -> Result<(Decision, Decision), String> {
        let serial = job.payload;
        let real = match self.real.requeue(self.now, job) {
            Some(exit) => self.real_exit(exit)?,
            None => Decision::Queued,
        };
        let twin = match self.twin.requeue(self.now, tj) {
            Some(left) => self.twin_exit(left),
            None => Decision::Queued,
        };
        if real == Decision::Queued {
            if to_back {
                self.tenants[serial].order = self.order();
            }
            self.queued.push(serial);
        }
        Ok((real, twin))
    }

    fn persist(&mut self, serial: usize, id: u64, seq: u64, steps: u64, ok: bool) {
        if ok {
            self.store.insert(id, (seq, steps, serial));
        }
    }

    fn submit(&mut self, a: u64, b: u64) -> Result<(), String> {
        let serial = self.tenants.len();
        let refusal = (a >> 17).is_multiple_of(10);
        let tenant = Tenant {
            priority: (a % 4) as i32 - 1,
            deadline: (b & 1 == 1).then(|| Duration::from_micros((b >> 1) % 4000)),
            key: (!(b >> 13).is_multiple_of(3)).then(|| format!("k{}", (b >> 15) % 4)),
            label: LABELS[((a >> 8) % 3) as usize],
            durable: (a >> 16) & 1 == 1 && !refusal,
            cancelled: false,
            suspend: false,
            slice_steps: None,
            order: 0,
            exits: 0,
            abandoned: false,
        };
        let persist_ok = !(a >> 20).is_multiple_of(6);
        let refusal = refusal.then(|| "refused at the door".to_string());
        let (rid, tid) = (self.real.issue_id(), self.twin.issue_id());
        if rid != tid {
            return Err(format!("ids: real {rid} vs twin {tid}"));
        }
        let now = self.now;
        let mut job = Job::new(
            rid,
            tenant.priority,
            now,
            tenant.deadline.map(|d| now + d),
            tenant.key.clone(),
            tenant.label.to_string(),
            serial,
        );
        let mut twin_job = TwinJob::new(serial, &tenant, tid, now);
        let durable = tenant.durable;
        self.tenants.push(tenant);
        if durable {
            self.persist(serial, rid, 0, 0, persist_ok);
            self.real.persisted(&mut job, persist_ok);
            self.twin.persisted(&mut twin_job, persist_ok);
        }
        let real = match self.real.submit(now, job, refusal.clone()) {
            Some(exit) => self.real_exit(exit)?,
            None => Decision::Queued,
        };
        let twin = match self.twin.submit(now, twin_job, refusal) {
            Some(left) => self.twin_exit(left),
            None => Decision::Queued,
        };
        if real == Decision::Queued {
            self.tenants[serial].order = self.order();
            self.queued.push(serial);
        }
        self.same(real, twin)
    }

    fn pickup(&mut self, w: usize) -> Result<(), String> {
        if self.workers[w].is_some() {
            return Ok(());
        }
        let now = self.now;
        let tenants = &self.tenants;
        let real = self.real.pickup(now, w, |&s| tenants[s].cancelled);
        let twin_cancelled = self
            .twin
            .queue
            .first()
            .is_some_and(|j| self.tenants[j.serial].cancelled);
        let twin = self.twin.pickup(now, w, twin_cancelled);
        let (real, twin) = match (real, twin) {
            (Pickup::Run(job), TwinPickup::Run(tj)) => {
                let serial = job.payload;
                self.check_pick(serial)?;
                let steps = self.tenants[serial].slice_steps.take().unwrap_or(0);
                let d = (Decision::Run(serial), Decision::Run(tj.serial));
                self.workers[w] = Some((job, tj, steps));
                d
            }
            (Pickup::Leave(exit), TwinPickup::Leave(tj, r)) => {
                self.check_pick(exit.job.payload)?;
                self.tenants[exit.job.payload].slice_steps = None;
                let d = (self.real_exit(exit)?, self.twin_exit((tj, r)));
                self.release();
                d
            }
            (real, twin) => (pickup_decision(real), twin_pickup_decision(twin)),
        };
        self.same(real, twin)
    }

    fn barrier(&mut self, w: usize, b: u64) -> Result<(), String> {
        let Some((mut job, mut tj, steps)) = self.workers[w].take() else {
            return Ok(());
        };
        let serial = job.payload;
        let steps = steps + 1 + b % 40;
        let persist_ok = !(b >> 8).is_multiple_of(5);
        let fresh = job.reach(steps);
        tj.steps = steps;
        if fresh != (steps > tj.floor) {
            return Err(format!("reach: real {fresh} for job {serial}"));
        }
        if fresh && self.tenants[serial].durable {
            self.persist(serial, job.id, job.persist_seq, steps, persist_ok);
            self.real.persisted(&mut job, persist_ok);
            self.twin.persisted(&mut tj, persist_ok);
        }
        let now = self.now;
        let (cancelled, suspend) = (self.tenants[serial].cancelled, self.tenants[serial].suspend);
        let (mut real_asked, mut twin_asked) = (false, false);
        let real = self.real.barrier(now, job, cancelled, || {
            real_asked = true;
            suspend
        });
        let twin = self.twin.barrier(now, tj, cancelled, &mut || {
            twin_asked = true;
            suspend
        });
        if real_asked != twin_asked {
            return Err(format!(
                "suspend consulted: real {real_asked} vs twin {twin_asked}"
            ));
        }
        if real_asked {
            self.tenants[serial].suspend = false;
        }
        let (real, twin) = match (real, twin) {
            (Barrier::Continue(job), TwinBarrier::Continue(tj)) => {
                let d = (Decision::Continue(serial), Decision::Continue(tj.serial));
                self.workers[w] = Some((job, tj, steps));
                d
            }
            (Barrier::Park { job, suspended }, TwinBarrier::Park(tj, t_suspended)) => {
                let d = (
                    Decision::Park(serial, suspended),
                    Decision::Park(tj.serial, t_suspended),
                );
                self.same(d.0, d.1)?;
                self.tenants[serial].slice_steps = Some(steps);
                let d = self.requeue(job, tj, suspended)?;
                self.release();
                d
            }
            (Barrier::Leave(exit), TwinBarrier::Leave(tj, r)) => {
                let d = (self.real_exit(exit)?, self.twin_exit((tj, r)));
                self.release();
                d
            }
            (Barrier::Stop(job), TwinBarrier::Stop) => {
                self.release();
                (Decision::Dropped(job.payload), Decision::Dropped(serial))
            }
            (real, twin) => (barrier_decision(real), twin_barrier_decision(twin)),
        };
        self.same(real, twin)
    }

    fn finish(&mut self, w: usize, b: u64) -> Result<(), String> {
        let Some((job, tj, steps)) = self.workers[w].take() else {
            return Ok(());
        };
        let serial = job.payload;
        let stopped = b.is_multiple_of(4);
        let summary = RunSummary {
            result: (!stopped).then(|| format!("{}", job.id)),
            outcome: if stopped {
                RunOutcome::Stopped
            } else {
                RunOutcome::Halted
            },
            steps,
            computation_time: steps,
            total_sent: 0,
            total_delivered: 0,
            activations_started: 0,
            activations_completed: 0,
            nodes_pruned: 0,
            best_incumbent: None,
        };
        let cancelled = self.tenants[serial].cancelled;
        let now = self.now;
        let real = self.real.finished(now, job, summary.clone(), cancelled);
        let twin = self.twin.finished(now, tj, summary, cancelled);
        let d = (self.real_exit(real)?, self.twin_exit(twin));
        self.release();
        self.same(d.0, d.1)
    }

    fn crash(&mut self, w: usize, b: u64) -> Result<(), String> {
        let Some((job, tj, _)) = self.workers[w].take() else {
            return Ok(());
        };
        let serial = job.payload;
        let can_restart = !b.is_multiple_of(3);
        let now = self.now;
        let message = format!("boom {serial}");
        let real = self.real.crashed(now, job, can_restart, message.clone());
        let twin = self.twin.crashed(now, tj, can_restart, message);
        let d = match (real, twin) {
            (Crash::Restart(job), (tj, None)) => {
                self.same(Decision::Restart(serial), Decision::Restart(tj.serial))?;
                self.requeue(job, tj, false)?
            }
            (Crash::Fail(exit), (tj, Some(r))) => (self.real_exit(exit)?, self.twin_exit((tj, r))),
            (Crash::Restart(_), _) => (Decision::Restart(serial), Decision::Stop),
            (Crash::Fail(_), _) => (Decision::Stop, Decision::Restart(serial)),
        };
        self.release();
        self.same(d.0, d.1)
    }

    /// Kills this incarnation — each busy worker either reaches a barrier
    /// (and stops there) or finishes its slice — and recovers every
    /// durable record into a fresh pair of schedulers.
    fn kill_and_recover(&mut self, b: u64) -> Result<(), String> {
        self.real.kill();
        self.twin.killed = true;
        self.killed = true;
        for w in 0..WORKERS {
            if (b >> w) & 1 == 1 {
                self.finish(w, 1)?;
            } else {
                self.barrier(w, b >> 8)?;
            }
        }
        let now = self.now;
        let real = self.real.shutdown(now);
        let twin = self.twin.shutdown(now);
        if !real.is_empty() || !twin.is_empty() {
            return Err("a killed scheduler retired its queue".into());
        }
        // Never duplicate: no finished job left a record behind.
        for (id, &(_, _, serial)) in &self.store {
            if self.tenants[serial].exits > 0 {
                return Err(format!("job {id} finished but its record survives"));
            }
        }
        // Never lose: an unfinished job without a record is one that never
        // had a durable write; everything else comes back.
        let recorded: Vec<usize> = self.store.values().map(|&(_, _, s)| s).collect();
        for (serial, t) in self.tenants.iter_mut().enumerate() {
            if t.exits == 0 && !t.abandoned && !recorded.contains(&serial) {
                t.abandoned = true;
            }
        }
        self.queued.clear();
        self.real = Scheduler::new(&config(), now);
        self.twin = Twin::new(now);
        self.killed = false;
        let records: Vec<(u64, (u64, u64, usize))> =
            self.store.iter().map(|(&id, &r)| (id, r)).collect();
        for (id, (seq, steps, serial)) in records {
            let t = &mut self.tenants[serial];
            // A new process: fresh handles, no deadline, no parked run.
            t.cancelled = false;
            t.suspend = false;
            t.slice_steps = None;
            t.deadline = None;
            let mut job = Job::new(
                id,
                t.priority,
                now,
                None,
                t.key.clone(),
                t.label.into(),
                serial,
            );
            let mut tj = TwinJob::new(serial, t, id, now);
            job.checkpoint_steps = steps;
            job.resume_floor = steps;
            job.persist_seq = seq + 1;
            (tj.steps, tj.floor, tj.persist_seq) = (steps, steps, seq + 1);
            self.real.recover(job);
            self.twin.recover(tj);
            self.tenants[serial].order = self.order();
            self.queued.push(serial);
        }
        self.log.push(format!("recovered {}", self.queued.len()));
        Ok(())
    }

    /// A graceful end: everything queued is cancelled, every held job
    /// finishes.
    fn wind_down(&mut self) -> Result<(), String> {
        let now = self.now;
        let real = self.real.shutdown(now);
        let twin = self.twin.shutdown(now);
        if real.len() != twin.len() {
            return Err(format!(
                "shutdown: real {} vs twin {}",
                real.len(),
                twin.len()
            ));
        }
        let mut last: Option<(i32, u64)> = None;
        for (exit, left) in real.into_iter().zip(twin) {
            let t = &self.tenants[exit.job.payload];
            // Pickup order: priority first, then admission.
            let key = (-t.priority, t.order);
            if last.is_some_and(|l| l > key) {
                return Err("shutdown retired out of pickup order".into());
            }
            last = Some(key);
            let d = (self.real_exit(exit)?, self.twin_exit(left));
            self.same(d.0, d.1)?;
        }
        // A late submission is refused; a suspended job parks into the
        // shut-down queue and leaves cancelled; what still runs finishes;
        // free workers stop.
        self.submit(P0, 0)?;
        for w in 0..WORKERS {
            if let Some((job, ..)) = &self.workers[w] {
                self.tenants[job.payload].suspend = true;
            }
            self.barrier(w, 0)?;
            self.finish(w, 1)?;
            self.pickup(w)?;
        }
        self.check()?;
        for (serial, t) in self.tenants.iter().enumerate() {
            if t.exits != 1 && !t.abandoned {
                return Err(format!("job {serial} left {} times", t.exits));
            }
        }
        Ok(())
    }

    /// The per-event invariants.
    fn check(&self) -> Result<(), String> {
        let real = self.real.stats(self.now);
        let twin = self.twin.stats(self.now);
        let (r, t) = (format!("{real:?}"), format!("{twin:?}"));
        if r != t {
            return Err(format!("stats:\n real {r}\n twin {t}"));
        }
        let by_kind: u64 = real.jobs_by_kind.iter().map(|(_, n)| n).sum();
        if by_kind != real.finished() {
            return Err(format!(
                "jobs_by_kind {by_kind} != finished {}",
                real.finished()
            ));
        }
        let held = self.workers.iter().flatten().count();
        if self.real.running() != held {
            return Err(format!("running {} with {held} held", self.real.running()));
        }
        if real.queue_depth != self.queued.len() {
            return Err(format!(
                "queue depth {} vs {:?}",
                real.queue_depth, self.queued
            ));
        }
        let accounted = real.queue_depth as u64 + held as u64 + real.finished();
        if !self.killed && accounted != real.submitted {
            return Err(format!(
                "queued {} + running {held} + finished {} != submitted {}",
                real.queue_depth,
                real.finished(),
                real.submitted
            ));
        }
        Ok(())
    }

    fn apply(&mut self, &(kind, a, b): &(u8, u64, u64)) -> Result<(), String> {
        self.now += Duration::from_micros(1 + a % 64);
        let w = (a % WORKERS as u64) as usize;
        let pick = |n: usize| (b % n.max(1) as u64) as usize;
        match kind {
            0..=2 => self.submit(a, b)?,
            3..=5 => self.pickup(w)?,
            6..=8 => self.barrier(w, b)?,
            9 => self.finish(w, b)?,
            10 => self.crash(w, b)?,
            11 => {
                let s = pick(self.tenants.len());
                if let Some(t) = self.tenants.get_mut(s) {
                    t.cancelled = true;
                }
            }
            12 => {
                let s = pick(self.tenants.len());
                if let Some(t) = self.tenants.get_mut(s) {
                    t.suspend = true;
                }
            }
            13 => self.now += Duration::from_micros(b % 5000),
            _ if a % 8 == 0 => self.kill_and_recover(b)?,
            _ => {}
        }
        self.check()
    }
}

fn pickup_decision(p: Pickup<usize>) -> Decision {
    match p {
        Pickup::Wait => Decision::Wait,
        Pickup::Stop => Decision::Stop,
        Pickup::Run(job) => Decision::Run(job.payload),
        Pickup::Leave(exit) => Decision::Left(exit.job.payload, format!("{:?}", exit.result)),
    }
}

fn twin_pickup_decision(p: TwinPickup) -> Decision {
    match p {
        TwinPickup::Wait => Decision::Wait,
        TwinPickup::Stop => Decision::Stop,
        TwinPickup::Run(job) => Decision::Run(job.serial),
        TwinPickup::Leave(job, r) => Decision::Left(job.serial, format!("{r:?}")),
    }
}

fn barrier_decision(b: Barrier<usize>) -> Decision {
    match b {
        Barrier::Continue(job) => Decision::Continue(job.payload),
        Barrier::Park { job, suspended } => Decision::Park(job.payload, suspended),
        Barrier::Leave(exit) => Decision::Left(exit.job.payload, format!("{:?}", exit.result)),
        Barrier::Stop(job) => Decision::Dropped(job.payload),
    }
}

fn twin_barrier_decision(b: TwinBarrier) -> Decision {
    match b {
        TwinBarrier::Continue(job) => Decision::Continue(job.serial),
        TwinBarrier::Park(job, suspended) => Decision::Park(job.serial, suspended),
        TwinBarrier::Leave(job, r) => Decision::Left(job.serial, format!("{r:?}")),
        TwinBarrier::Stop => Decision::Stop,
    }
}

/// Runs one event sequence to its end; the error names the first
/// disagreement or broken invariant.
fn run(events: &[(u8, u64, u64)]) -> Result<(), String> {
    let mut world = World::new();
    for (i, event) in events.iter().enumerate() {
        world
            .apply(event)
            .map_err(|e| format!("event {i} {event:?}: {e}\n  after {:?}", world.log))?;
    }
    world.wind_down()
}

/// Drops events one at a time while the sequence still fails.
fn shrink(mut events: Vec<(u8, u64, u64)>) -> Vec<(u8, u64, u64)> {
    let mut i = 0;
    while i < events.len() {
        let mut shorter = events.clone();
        shorter.remove(i);
        if run(&shorter).is_err() {
            events = shorter;
        } else {
            i += 1;
        }
    }
    events
}

fn events() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    vec((0u8..16, any::<u64>(), any::<u64>()), 0..160)
}

#[test]
fn scheduler_matches_the_reference_twin_event_by_event() {
    // The case number is the seed: `rng_for(case, NAME)` regenerates the
    // sequence.
    const NAME: &str = "scheduler_matches_the_reference_twin_event_by_event";
    for case in 0..ProptestConfig::with_cases(48).effective_cases() as u64 {
        let events = events().sample(&mut proptest::rng_for(case, NAME));
        if let Err(first) = run(&events) {
            let small = shrink(events);
            let why = run(&small).expect_err("the shrunk sequence still fails");
            panic!("case {case}: {first}\n\nshrunk to {small:?}:\n{why}");
        }
    }
}

/// A priority-0 submission, accepted (not refused), not durable.
const P0: u64 = 1 | 1 << 17;
/// The same at priority 1.
const P1: u64 = 2 | 1 << 17;

#[test]
fn a_preempted_job_resumes_ahead_of_later_arrivals_and_a_suspended_one_behind() {
    let events = [
        (0, P0, 0), // job 0
        (0, P0, 0), // job 1
        (3, 0, 0),  // worker 0 runs job 0
        (3, 1, 0),  // worker 1 runs job 1
        (0, P0, 0), // job 2 waits
        (0, P1, 0), // job 3 waits, ahead of job 2
        (6, 0, 0),  // job 0's barrier: preempted by job 3, keeps its place
        (12, 0, 1), // suspend job 1
        (6, 1, 0),  // job 1's barrier: suspended, to the back
        (3, 0, 0),  // worker 0 runs job 3
        (3, 1, 0),  // worker 1 runs job 0, ahead of job 2
        (9, 0, 1),  // job 3 completes
        (3, 0, 0),  // worker 0 runs job 2, ahead of job 1
    ];
    let mut world = World::new();
    for event in &events {
        world.apply(event).unwrap();
    }
    let decisions: Vec<&str> = world
        .log
        .iter()
        .map(String::as_str)
        .filter(|d| !d.starts_with("Left"))
        .collect();
    assert_eq!(
        decisions,
        [
            "Queued",
            "Queued",
            "Run(0)",
            "Run(1)",
            "Queued",
            "Queued",
            "Park(0, false)",
            "Queued",
            "Park(1, true)",
            "Queued",
            "Run(3)",
            "Run(0)",
            "Run(2)",
        ]
    );
    world.wind_down().unwrap();
}
