//! [`JobHandle`]: the submitter's side of a job.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use hyperspace_sim::StopHandle;

use crate::job::JobResult;

/// Lifecycle of a submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the priority queue.
    Queued,
    /// A worker is solving it.
    Running,
    /// Finished; the result is available.
    Done,
}

/// State shared between a [`JobHandle`] and the worker pool.
pub(crate) struct JobShared {
    pub(crate) id: u64,
    /// Trips the step loop of a running solve (cancellation; workers
    /// attach the deadline on top when they pick the job up).
    pub(crate) stop: StopHandle,
    /// Distinguishes submitter cancellation from deadline expiry when a
    /// run ends `Stopped`.
    pub(crate) cancelled: AtomicBool,
    /// One-shot request to park the job back into the queue at its next
    /// checkpoint barrier (checkpointed jobs only; cleared when
    /// honoured).
    pub(crate) suspend: AtomicBool,
    pub(crate) state: Mutex<(JobStatus, Option<JobResult>)>,
    pub(crate) done: Condvar,
}

impl JobShared {
    pub(crate) fn new(id: u64) -> Arc<JobShared> {
        Arc::new(JobShared {
            id,
            stop: StopHandle::new(),
            cancelled: AtomicBool::new(false),
            suspend: AtomicBool::new(false),
            state: Mutex::new((JobStatus::Queued, None)),
            done: Condvar::new(),
        })
    }

    pub(crate) fn set_running(&self) {
        let mut state = self.state.lock().expect("job state poisoned");
        if state.0 == JobStatus::Queued {
            state.0 = JobStatus::Running;
        }
    }

    /// A preempted/suspended job goes back to the queue.
    pub(crate) fn set_queued(&self) {
        let mut state = self.state.lock().expect("job state poisoned");
        if state.0 == JobStatus::Running {
            state.0 = JobStatus::Queued;
        }
    }

    pub(crate) fn finish(&self, result: JobResult) {
        let mut state = self.state.lock().expect("job state poisoned");
        debug_assert!(state.1.is_none(), "job finished twice");
        *state = (JobStatus::Done, Some(result));
        self.done.notify_all();
    }
}

/// Handle to a submitted job: poll, block, or cancel.
///
/// Cloning is cheap; every clone observes the same job.
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) shared: Arc<JobShared>,
}

impl JobHandle {
    /// The service-assigned job id.
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Current lifecycle state.
    pub fn status(&self) -> JobStatus {
        self.shared.state.lock().expect("job state poisoned").0
    }

    /// Requests cooperative cancellation: a queued job is dropped when a
    /// worker reaches it; a running job's step loop stops at the next
    /// step boundary. The eventual outcome is
    /// [`crate::JobOutcome::Cancelled`] (unless the job already
    /// finished).
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::SeqCst);
        self.shared.stop.stop();
    }

    /// Requests that a *running* job be suspended back into the
    /// priority queue at its next checkpoint barrier, letting other
    /// work overtake it; it resumes — bit-identically, from exactly
    /// where it stopped — once it reaches the head of the queue again.
    /// One-shot: the request is consumed when honoured. Only
    /// checkpointed jobs (a [`hyperspace_core::CheckpointSpec`]
    /// interval on the spec) have barriers to suspend at; any other job
    /// is one slice with no barrier inside it, and this is a no-op.
    pub fn suspend(&self) {
        self.shared.suspend.store(true, Ordering::SeqCst);
    }

    /// The result, if the job already finished (non-blocking).
    pub fn try_result(&self) -> Option<JobResult> {
        self.shared
            .state
            .lock()
            .expect("job state poisoned")
            .1
            .clone()
    }

    /// Blocks until the job finishes and returns its result.
    pub fn wait(&self) -> JobResult {
        let mut state = self.shared.state.lock().expect("job state poisoned");
        while state.1.is_none() {
            state = self.shared.done.wait(state).expect("job state poisoned");
        }
        state.1.clone().expect("checked above")
    }

    /// Blocks up to `timeout` for the result.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.shared.state.lock().expect("job state poisoned");
        while state.1.is_none() {
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self
                .shared
                .done
                .wait_timeout(state, deadline - now)
                .expect("job state poisoned");
            state = next;
        }
        state.1.clone()
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id())
            .field("status", &self.status())
            .finish()
    }
}
