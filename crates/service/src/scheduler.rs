//! [`Scheduler`]: every decision the service's worker pool makes, as one
//! plain value — admission, pickup order, expiry, cache answers,
//! preemption and suspension at barriers, crash restarts, retirement,
//! recovery and shutdown, with the counters they move and the result
//! cache. It holds no lock, starts no thread, reads no clock (events take
//! `now`) and does no I/O (persist results come back as
//! [`Scheduler::persisted`]); [`crate::SolverService`] drives it from
//! behind one mutex. Each event is one method returning a small
//! decision. The payload `P` rides along with each [`Job`] unread: what
//! the driver knows about it (a cancel request, whether a crashed run can
//! be rebuilt) comes in as an argument.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use hyperspace_core::RunSummary;
use hyperspace_obs::saturating_micros;
use hyperspace_sim::RunOutcome;

use crate::job::{JobOutcome, JobResult};
use crate::stats::ServiceStats;
use crate::ServiceConfig;

/// A job as the scheduler sees it — its place in the queue, progress and
/// timings — plus the driver's payload.
pub struct Job<P> {
    /// The service-assigned id.
    pub id: u64,
    priority: i32,
    /// FIFO position within a priority class.
    seq: u64,
    submitted_at: Instant,
    /// Absolute wall-clock deadline, if the submitter set one.
    pub deadline_at: Option<Instant>,
    cache_key: Option<String>,
    /// Workload label: the `jobs_by_kind` key.
    pub label: String,
    /// Crash restarts consumed.
    attempt: u32,
    /// Steps completed at the last checkpoint barrier.
    pub checkpoint_steps: u64,
    /// After a crash restart or a recovery: replay to this step before
    /// preemption checks resume — the logical "restore from checkpoint".
    pub resume_floor: u64,
    /// Sequence number of the next durable write; resumes — not resets —
    /// across recovery, so a record's freshness is always comparable.
    pub persist_seq: u64,
    /// Parked with its live run: resuming it never consults the cache.
    parked: bool,
    /// Suspended: the next requeue takes a fresh `seq`.
    to_back: bool,
    /// Queue wait to the *first* pickup (re-queues from preemption are
    /// scheduling churn, not queue wait), and the execution sequence
    /// number assigned there.
    first_wait: Option<Duration>,
    exec_seq: Option<u64>,
    /// Solve time accumulated over earlier slices.
    solve_so_far: Duration,
    /// The worker holding the job and when it picked it up.
    on: Option<(usize, Instant)>,
    /// What the driver parks with the job; never read here.
    pub payload: P,
}

impl<P> Job<P> {
    /// A job that has not run yet, submitted at `submitted_at`.
    pub fn new(
        id: u64,
        priority: i32,
        submitted_at: Instant,
        deadline_at: Option<Instant>,
        cache_key: Option<String>,
        label: String,
        payload: P,
    ) -> Job<P> {
        Job {
            id,
            priority,
            seq: 0,
            submitted_at,
            deadline_at,
            cache_key,
            label,
            attempt: 0,
            checkpoint_steps: 0,
            resume_floor: 0,
            persist_seq: 0,
            parked: false,
            to_back: false,
            first_wait: None,
            exec_seq: None,
            solve_so_far: Duration::ZERO,
            on: None,
            payload,
        }
    }

    /// Records a barrier after `steps` steps; true when that is progress
    /// the store lacks (replay below the floor re-derives the rest).
    pub fn reach(&mut self, steps: u64) -> bool {
        self.checkpoint_steps = steps;
        steps > self.resume_floor
    }

    fn ran_for(&self, now: Instant) -> Duration {
        let (_, picked_up) = self.on.expect("a job on a worker");
        now.saturating_duration_since(picked_up)
    }
}

/// A job leaving the service and the result its handle receives; the
/// driver's share is the same for every way out.
pub struct Exit<P> {
    /// The retired job.
    pub job: Job<P>,
    /// Everything the submitter gets back.
    pub result: JobResult,
}

/// What a free worker does next.
pub enum Pickup<P> {
    /// The queue is empty: wait for work.
    Wait,
    /// Shut down or killed: the worker exits.
    Stop,
    /// Run (start or resume) this job.
    Run(Job<P>),
    /// Cancelled or expired in the queue, or answered from the cache.
    Leave(Exit<P>),
}

/// What a running job does at a checkpoint barrier.
pub enum Barrier<P> {
    /// Run the next slice.
    Continue(Job<P>),
    /// Park the live run (preempted or suspended); hand it to
    /// [`Scheduler::requeue`].
    Park {
        /// The parked job.
        job: Job<P>,
        /// Suspended by its submitter rather than preempted.
        suspended: bool,
    },
    /// Cancelled mid-run.
    Leave(Exit<P>),
    /// Killed: drop the job; its durable record is the next process's.
    Stop(Job<P>),
}

/// What happens to a job whose run panicked.
pub enum Crash<P> {
    /// Start afresh, replaying to the last barrier; hand it to
    /// [`Scheduler::requeue`].
    Restart(Job<P>),
    /// Out of restarts, or nothing to rebuild from.
    Fail(Exit<P>),
}

/// Result cache, bounded (keys embed whole problems, and the service runs
/// for long) by evicting the oldest entry when full.
#[derive(Default)]
struct ResultCache {
    map: HashMap<String, RunSummary>,
    order: VecDeque<String>,
    capacity: usize,
}

impl ResultCache {
    fn insert(&mut self, key: &str, summary: RunSummary) {
        // Capacity 0 disables caching; an identical computation keeps
        // the original entry.
        if self.capacity == 0 || self.map.contains_key(key) {
            return;
        }
        if self.map.len() == self.capacity {
            let oldest = self.order.pop_front().expect("a full cache has entries");
            self.map.remove(&oldest);
        }
        self.map.insert(key.to_string(), summary);
        self.order.push_back(key.to_string());
    }
}

/// The service's queue, counters and cache, and every decision over them.
pub struct Scheduler<P> {
    /// Waiting jobs in pickup order: higher priority first, then FIFO.
    queue: BTreeMap<(Reverse<i32>, u64), Job<P>>,
    next_id: u64,
    next_seq: u64,
    next_exec: u64,
    /// Jobs a worker popped and has not released yet.
    running: usize,
    shutdown: bool,
    killed: bool,
    max_restarts: u32,
    started: Instant,
    cache: ResultCache,
    /// The counters, kept in their snapshot's shape.
    stats: ServiceStats,
}

impl<P> Scheduler<P> {
    /// An empty scheduler for `cfg`'s workers, cache and restart budget,
    /// started at `now`.
    pub fn new(cfg: &ServiceConfig, now: Instant) -> Self {
        Scheduler {
            queue: BTreeMap::new(),
            next_id: 0,
            next_seq: 0,
            next_exec: 0,
            running: 0,
            shutdown: false,
            killed: false,
            max_restarts: cfg.max_restarts,
            started: now,
            cache: ResultCache {
                capacity: cfg.cache_capacity,
                ..ResultCache::default()
            },
            stats: ServiceStats {
                workers: cfg.workers,
                per_worker_jobs: vec![0; cfg.workers],
                per_worker_busy: vec![Duration::ZERO; cfg.workers],
                ..ServiceStats::default()
            },
        }
    }

    /// The next job id.
    pub fn issue_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// A submission: counted and queued at the back of its priority
    /// class, or refused (`Failed`) for a `refuse` reason or after shutdown.
    pub fn submit(&mut self, now: Instant, job: Job<P>, refuse: Option<String>) -> Option<Exit<P>> {
        self.stats.submitted += 1;
        match refuse.or_else(|| self.shutdown.then(|| "service is shut down".into())) {
            Some(reason) => Some(self.retire(now, job, JobOutcome::Failed(reason), false)),
            None => {
                self.enqueue(job, true);
                None
            }
        }
    }

    /// A job rebuilt from the durable store under its original id (later
    /// ids follow it). Recovery comes first, in the store's id order.
    pub fn recover(&mut self, job: Job<P>) {
        self.next_id = self.next_id.max(job.id + 1);
        self.stats.submitted += 1;
        self.stats.recovered += 1;
        self.enqueue(job, true);
    }

    /// Durable records that failed to decode and were quarantined.
    pub fn quarantined(&mut self, records: u64) {
        self.stats.persist_errors += records;
    }

    /// The store's answer to a write of `job`'s record.
    pub fn persisted(&mut self, job: &mut Job<P>, ok: bool) {
        if ok {
            job.persist_seq += 1;
            self.stats.persisted += 1;
        } else {
            self.stats.persist_errors += 1;
        }
    }

    /// Worker `worker` asks for work. The head of the queue runs unless it
    /// was `cancelled`, its deadline passed, or — with no parked run —
    /// the cache holds its answer.
    pub fn pickup(
        &mut self,
        now: Instant,
        worker: usize,
        cancelled: impl FnOnce(&P) -> bool,
    ) -> Pickup<P> {
        // Killed, whatever is queued belongs to recovery.
        if self.killed || (self.shutdown && self.queue.is_empty()) {
            return Pickup::Stop;
        }
        let Some((_, mut job)) = self.queue.pop_first() else {
            return Pickup::Wait;
        };
        self.running += 1;
        job.on = Some((worker, now));
        if job.first_wait.is_none() {
            let wait = now.saturating_duration_since(job.submitted_at);
            self.stats.queue_wait_us.record(saturating_micros(wait));
            job.first_wait = Some(wait);
            job.exec_seq = Some(self.next_exec);
            self.next_exec += 1;
        }
        let key = job.cache_key.as_ref().filter(|_| !job.parked);
        let hit = key.and_then(|key| self.cache.map.get(key).cloned());
        let outcome = if cancelled(&job.payload) {
            JobOutcome::Cancelled
        } else if job.deadline_at.is_some_and(|d| now >= d) {
            JobOutcome::TimedOut
        } else if let Some(hit) = hit {
            JobOutcome::Completed(hit)
        } else {
            return Pickup::Run(job);
        };
        Pickup::Leave(self.retire(now, job, outcome, false))
    }

    /// A running job reached a barrier (after [`Job::reach`] and any
    /// persist). A kill stops it, a cancel retires it, replay continues;
    /// otherwise a `suspend` request (consulted only here, so one made
    /// during replay stays pending) parks it at the back of its class,
    /// and strictly higher-priority work waiting parks it in place —
    /// equal priority waits its turn, so two long jobs never ping-pong.
    pub fn barrier(
        &mut self,
        now: Instant,
        mut job: Job<P>,
        cancelled: bool,
        suspend: impl FnOnce() -> bool,
    ) -> Barrier<P> {
        if self.killed {
            return Barrier::Stop(job);
        }
        if cancelled {
            return Barrier::Leave(self.retire(now, job, JobOutcome::Cancelled, true));
        }
        if job.checkpoint_steps < job.resume_floor {
            return Barrier::Continue(job);
        }
        let suspended = suspend();
        let outranked = self
            .queue
            .first_key_value()
            .is_some_and(|(_, q)| q.priority > job.priority);
        if !suspended && !outranked {
            return Barrier::Continue(job);
        }
        if suspended {
            self.stats.suspensions += 1;
        } else {
            self.stats.preemptions += 1;
        }
        let ran_for = job.ran_for(now);
        self.bill(&job, ran_for);
        job.solve_so_far += ran_for;
        job.parked = true;
        job.to_back = suspended;
        Barrier::Park { job, suspended }
    }

    /// A running job's last slice returned `summary`: stopped, it was
    /// `cancelled` or timed out; otherwise it completed and is cached.
    pub fn finished(
        &mut self,
        now: Instant,
        job: Job<P>,
        summary: RunSummary,
        cancelled: bool,
    ) -> Exit<P> {
        let outcome = match summary.outcome {
            RunOutcome::Stopped if cancelled => JobOutcome::Cancelled,
            RunOutcome::Stopped => JobOutcome::TimedOut,
            _ => {
                if let Some(key) = &job.cache_key {
                    self.cache.insert(key, summary.clone());
                }
                JobOutcome::Completed(summary)
            }
        };
        self.retire(now, job, outcome, true)
    }

    /// A running job panicked: it restarts if it has budget left and a
    /// workload to rebuild from (`can_restart`), else fails with `message`.
    pub fn crashed(
        &mut self,
        now: Instant,
        mut job: Job<P>,
        can_restart: bool,
        message: String,
    ) -> Crash<P> {
        if !can_restart || job.attempt >= self.max_restarts {
            return Crash::Fail(self.retire(now, job, JobOutcome::Failed(message), true));
        }
        job.attempt += 1;
        job.resume_floor = job.checkpoint_steps;
        // The restart re-times every replayed step; keeping the pre-crash
        // slice time would count them twice in the reported solve time.
        job.solve_so_far = Duration::ZERO;
        job.parked = false;
        self.stats.restarts += 1;
        // No retirement bills the crashed attempt's busy time; this does.
        self.bill(&job, job.ran_for(now));
        Crash::Restart(job)
    }

    /// Puts a parked or restarting job back in the queue — a suspended one
    /// at the back of its class, any other in its old place — or, once
    /// shut down, retires it `Cancelled`.
    pub fn requeue(&mut self, now: Instant, mut job: Job<P>) -> Option<Exit<P>> {
        job.on = None;
        if self.shutdown {
            return Some(self.retire(now, job, JobOutcome::Cancelled, false));
        }
        let fresh = std::mem::take(&mut job.to_back);
        self.enqueue(job, fresh);
        None
    }

    /// A worker is done with the job it popped, every effect applied.
    pub fn release(&mut self) {
        self.running -= 1;
    }

    /// Simulated process death: workers stop at their next pickup or
    /// barrier, and nothing queued is retired.
    pub fn kill(&mut self) {
        self.killed = true;
    }

    /// Stops admissions and retires everything queued `Cancelled`, in
    /// pickup order — unless killed: then the queue is recovery's.
    pub fn shutdown(&mut self, now: Instant) -> Vec<Exit<P>> {
        self.shutdown = true;
        if self.killed {
            return Vec::new();
        }
        std::mem::take(&mut self.queue)
            .into_values()
            .map(|job| self.retire(now, job, JobOutcome::Cancelled, false))
            .collect()
    }

    /// Jobs waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Jobs popped by a worker and not yet released.
    pub fn running(&self) -> usize {
        self.running
    }

    /// A snapshot of the counters at `now`.
    pub fn stats(&self, now: Instant) -> ServiceStats {
        ServiceStats {
            uptime: now.saturating_duration_since(self.started),
            cache_entries: self.cache.map.len(),
            queue_depth: self.queue.len(),
            ..self.stats.clone()
        }
    }

    fn enqueue(&mut self, mut job: Job<P>, fresh_seq: bool) {
        if fresh_seq {
            job.seq = self.next_seq;
            self.next_seq += 1;
        }
        self.queue.insert((Reverse(job.priority), job.seq), job);
    }

    /// Adds `ran_for` to the busy time of the worker holding `job`.
    fn bill(&mut self, job: &Job<P>, ran_for: Duration) {
        if let Some((w, _)) = job.on {
            self.stats.per_worker_busy[w] += Duration::from_micros(saturating_micros(ran_for));
        }
    }

    /// The one way out: counters, label count, histograms, [`JobResult`].
    /// `ran`: the job leaves a worker it ran on; a completion without
    /// running is a cache hit.
    fn retire(&mut self, now: Instant, job: Job<P>, outcome: JobOutcome, ran: bool) -> Exit<P> {
        let ran_for = if ran {
            job.ran_for(now)
        } else {
            Duration::ZERO
        };
        let from_cache = !ran && outcome.is_completed();
        let solve_time = job.solve_so_far + ran_for;
        let stats = &mut self.stats;
        match &outcome {
            JobOutcome::Completed(_) => stats.completed += 1,
            JobOutcome::TimedOut => stats.timed_out += 1,
            JobOutcome::Cancelled => stats.cancelled += 1,
            JobOutcome::Failed(_) => stats.failed += 1,
        }
        stats.cache_hits += u64::from(from_cache);
        if !from_cache && solve_time > Duration::ZERO {
            stats.solve_time_us.record(saturating_micros(solve_time));
        }
        let kinds = &mut stats.jobs_by_kind;
        match kinds.binary_search_by(|(k, _)| k.as_str().cmp(&job.label)) {
            Ok(i) => kinds[i].1 += 1,
            Err(i) => kinds.insert(i, (job.label.clone(), 1)),
        }
        let worker = job.on.map(|(w, _)| w);
        if let Some(w) = worker {
            self.stats.per_worker_jobs[w] += 1;
        }
        self.bill(&job, ran_for);
        let queue_wait = match (job.first_wait, &outcome) {
            (Some(wait), _) => wait,
            // A failure no worker saw is a refusal at the door: the job
            // never waited, so it adds no sample.
            (None, JobOutcome::Failed(_)) => Duration::ZERO,
            // Left the queue without reaching a worker (shutdown): its
            // wait belongs in the distribution like everyone else's.
            (None, _) => {
                let wait = now.saturating_duration_since(job.submitted_at);
                self.stats.queue_wait_us.record(saturating_micros(wait));
                wait
            }
        };
        let result = JobResult {
            id: job.id,
            outcome,
            from_cache,
            queue_wait,
            solve_time,
            worker,
            exec_seq: job.exec_seq,
        };
        Exit { job, result }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(n: u64) -> RunSummary {
        RunSummary {
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
        }
    }

    #[test]
    fn result_cache_is_bounded_and_evicts_fifo() {
        let with = |capacity| ResultCache {
            capacity,
            ..ResultCache::default()
        };
        let mut cache = with(2);
        cache.insert("a", summary(1));
        cache.insert("b", summary(2));
        assert_eq!(cache.map.len(), 2);
        cache.insert("c", summary(3)); // evicts "a"
        assert_eq!(cache.map.len(), 2);
        assert!(!cache.map.contains_key("a"));
        assert!(cache.map.contains_key("b") && cache.map.contains_key("c"));
        // Re-inserting an existing key neither grows nor reorders.
        cache.insert("b", summary(9));
        assert_eq!(cache.map["b"].steps, 2);
        // Capacity 0 disables caching.
        let mut off = with(0);
        off.insert("x", summary(1));
        assert!(off.map.is_empty());
    }

    #[test]
    fn a_shut_down_scheduler_refuses_submissions_and_requeues() {
        let t0 = Instant::now();
        let cfg = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let mut s = Scheduler::<()>::new(&cfg, t0);
        let job = |s: &mut Scheduler<()>| {
            let id = s.issue_id();
            Job::new(id, 0, t0, None, None, "sum".into(), ())
        };
        let first = job(&mut s);
        assert!(s.submit(t0, first, None).is_none());
        let Pickup::Run(running) = s.pickup(t0, 0, |_| false) else {
            panic!("the queued job runs")
        };
        assert!(s.shutdown(t0).is_empty(), "nothing left queued");
        let late = job(&mut s);
        let refused = s.submit(t0, late, None).expect("refused");
        assert_eq!(
            refused.result.outcome,
            JobOutcome::Failed("service is shut down".into())
        );
        let parked = s.requeue(t0, running).expect("cancelled");
        assert_eq!(parked.result.outcome, JobOutcome::Cancelled);
        assert_eq!(parked.result.worker, None);
        s.release();
        assert_eq!((s.queue_depth(), s.running()), (0, 0));
        assert!(matches!(s.pickup(t0, 0, |_| false), Pickup::Stop));
        let stats = s.stats(t0);
        assert_eq!((stats.submitted, stats.finished()), (2, 2));
    }
}
