//! [`ServiceStats`]: the service's aggregate operational report.

use std::time::Duration;

use hyperspace_obs::Histogram;

/// Converts an unsigned counter (step counts, byte sizes, microsecond
/// totals) to the flight recorder's signed `value` field, saturating at
/// `i64::MAX` instead of wrapping negative (`as i64` would turn a
/// corrupted or adversarial `u64::MAX` into `-1`). All
/// externally-influenced u64 → i64 conversions in the service go
/// through this.
pub(crate) fn saturating_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// A point-in-time snapshot of the service's operational metrics.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Worker pool size.
    pub workers: usize,
    /// Time since the service started.
    pub uptime: Duration,
    /// Jobs accepted.
    pub submitted: u64,
    /// Jobs that ran to completion (including step-cap endings).
    pub completed: u64,
    /// Jobs that hit their deadline (queued or mid-solve).
    pub timed_out: u64,
    /// Jobs cancelled by their submitters (or dropped at shutdown).
    pub cancelled: u64,
    /// Jobs that panicked or were refused.
    pub failed: u64,
    /// Results served straight from the cache.
    pub cache_hits: u64,
    /// Times a running job was preempted back into the queue because
    /// higher-priority work was waiting (automatic time-slicing).
    pub preemptions: u64,
    /// Times a submitter suspended a running job via
    /// [`crate::JobHandle::suspend`].
    pub suspensions: u64,
    /// Jobs restarted from their last checkpoint after a worker crash.
    pub restarts: u64,
    /// Durable records written to the on-disk job store.
    pub persisted: u64,
    /// Jobs rebuilt from the on-disk job store after a process restart.
    pub recovered: u64,
    /// Store writes that failed plus on-disk records that failed to
    /// decode (corrupt records are quarantined, never trusted).
    pub persist_errors: u64,
    /// Entries currently held by the result cache.
    pub cache_entries: usize,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Distribution of queue-wait times (microseconds).
    pub queue_wait_us: Histogram,
    /// Distribution of solve times (microseconds; cache hits excluded).
    pub solve_time_us: Histogram,
    /// Jobs serviced per worker.
    pub per_worker_jobs: Vec<u64>,
    /// Cumulative busy time per worker.
    pub per_worker_busy: Vec<Duration>,
    /// Finished-job counts by workload label, sorted by label.
    pub jobs_by_kind: Vec<(String, u64)>,
}

impl ServiceStats {
    /// Jobs that reached a terminal state.
    pub fn finished(&self) -> u64 {
        self.completed + self.timed_out + self.cancelled + self.failed
    }

    /// Finished jobs per second of uptime.
    pub fn throughput(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.finished() as f64 / secs
        }
    }

    /// Fraction of completed jobs served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.completed as f64
        }
    }

    /// Fraction of a worker's wall-clock spent solving. Unknown worker
    /// ids report `0.0` — a dashboard polling a stale snapshot must not
    /// panic the caller.
    pub fn worker_utilization(&self, worker: usize) -> f64 {
        let up = self.uptime.as_secs_f64();
        let busy = match self.per_worker_busy.get(worker) {
            Some(d) => d.as_secs_f64(),
            None => return 0.0,
        };
        if up == 0.0 {
            0.0
        } else {
            busy / up
        }
    }
}

fn render_histogram(
    f: &mut std::fmt::Formatter<'_>,
    name: &str,
    h: &Histogram,
) -> std::fmt::Result {
    if h.count() == 0 {
        return writeln!(f, "  {name}: (no samples)");
    }
    writeln!(
        f,
        "  {name}: n={} mean={:.0}us min={}us max={}us",
        h.count(),
        h.mean(),
        h.min().unwrap_or(0),
        h.max().unwrap_or(0)
    )?;
    for (i, &count) in h.buckets().iter().enumerate() {
        if count > 0 {
            let (lo, hi) = Histogram::bucket_range(i);
            writeln!(f, "    [{lo:>8}us .. {hi:>10}us] {count}")?;
        }
    }
    Ok(())
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "service: {} workers, up {:.2?}, {:.1} jobs/s",
            self.workers,
            self.uptime,
            self.throughput()
        )?;
        writeln!(
            f,
            "  jobs: {} submitted | {} completed | {} timed-out | {} cancelled | {} failed | {} queued",
            self.submitted,
            self.completed,
            self.timed_out,
            self.cancelled,
            self.failed,
            self.queue_depth
        )?;
        writeln!(
            f,
            "  cache: {} hits ({:.0}% of completions), {} entries held",
            self.cache_hits,
            self.cache_hit_rate() * 100.0,
            self.cache_entries
        )?;
        if self.preemptions + self.suspensions + self.restarts > 0 {
            writeln!(
                f,
                "  scheduling: {} preemptions | {} suspensions | {} checkpoint restarts",
                self.preemptions, self.suspensions, self.restarts
            )?;
        }
        if self.persisted + self.recovered + self.persist_errors > 0 {
            writeln!(
                f,
                "  durability: {} persisted | {} recovered | {} persist errors",
                self.persisted, self.recovered, self.persist_errors
            )?;
        }
        render_histogram(f, "queue wait", &self.queue_wait_us)?;
        render_histogram(f, "solve time", &self.solve_time_us)?;
        let workers = self.per_worker_jobs.iter().zip(&self.per_worker_busy);
        for (w, (jobs, busy)) in workers.enumerate() {
            writeln!(
                f,
                "  worker {w}: {jobs} jobs, busy {busy:.2?} ({:.0}% utilised)",
                self.worker_utilization(w) * 100.0
            )?;
        }
        if !self.jobs_by_kind.is_empty() {
            let kinds: Vec<String> = self
                .jobs_by_kind
                .iter()
                .map(|(k, n)| format!("{k}={n}"))
                .collect();
            writeln!(f, "  by kind: {}", kinds.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_worker_snapshot() -> ServiceStats {
        ServiceStats {
            workers: 2,
            uptime: Duration::from_secs(10),
            per_worker_jobs: vec![1, 2],
            per_worker_busy: vec![Duration::from_secs(5), Duration::from_secs(1)],
            ..ServiceStats::default()
        }
    }

    #[test]
    fn worker_utilization_is_zero_for_unknown_workers() {
        let stats = two_worker_snapshot();
        assert!((stats.worker_utilization(0) - 0.5).abs() < 1e-9);
        assert!((stats.worker_utilization(1) - 0.1).abs() < 1e-9);
        // Out-of-range ids must not panic (a dashboard may poll with a
        // worker count from an older snapshot).
        assert_eq!(stats.worker_utilization(2), 0.0);
        assert_eq!(stats.worker_utilization(usize::MAX), 0.0);
    }

    #[test]
    fn display_survives_per_worker_vectors_of_different_lengths() {
        // Both vectors are public, so a hand-built or stale snapshot can
        // disagree on the worker count; printing it must not panic.
        let mut stats = two_worker_snapshot();
        stats.per_worker_busy.pop();
        let text = stats.to_string();
        assert!(text.contains("worker 0: 1 jobs, busy 5.00s (50% utilised)"));
        assert!(!text.contains("worker 1"));
    }

    #[test]
    fn saturating_i64_is_exact_below_the_cap() {
        assert_eq!(saturating_i64(0), 0);
        assert_eq!(saturating_i64(1), 1);
        assert_eq!(saturating_i64(i64::MAX as u64), i64::MAX);
    }

    #[test]
    fn saturating_i64_saturates_instead_of_wrapping_negative() {
        // `as i64` would map these to i64::MIN and -1 respectively.
        assert_eq!(saturating_i64(i64::MAX as u64 + 1), i64::MAX);
        assert_eq!(saturating_i64(u64::MAX), i64::MAX);
    }
}
