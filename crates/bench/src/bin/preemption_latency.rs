//! **ABL-C (checkpointing)** — short-job queue latency with and without
//! preemptive scheduling.
//!
//! The scenario every multi-tenant solver service fears: long
//! branch-and-bound-class jobs occupy the whole worker pool and
//! head-of-line-block a stream of short interactive jobs. This sweep
//! fills a small pool with effectively-endless background jobs, then
//! submits a burst of short high-priority jobs and measures each one's
//! queue wait (submission to first execution):
//!
//! * **baseline** — background jobs run monolithically (`checkpoint
//!   off`): a short job waits for a whole long job to finish;
//! * **preemption** — background jobs carry `checkpoint interval:N`:
//!   the scheduler suspends them at the next step barrier and the short
//!   job overtakes, so its wait is bounded by one checkpoint interval
//!   of simulated work rather than one whole job.
//!
//! Reported: p50/p99/max short-job queue wait per configuration. The
//! sweep asserts the ABL-C claim — short-job p99 queue wait is strictly
//! lower with preemption enabled — and `--smoke` shrinks the workload
//! so CI can keep the binary honest.

use std::time::{Duration, Instant};

use hyperspace_bench::harness::Args;
use hyperspace_core::{CheckpointSpec, TopologySpec};
use hyperspace_service::{JobKind, JobRequest, JobSpec, ServiceConfig, SolverService};

struct Scenario {
    /// Background (long) jobs submitted up front.
    long_jobs: usize,
    /// Step cap bounding each long job's total work.
    long_steps: u64,
    /// Checkpoint interval of the preemptible configuration.
    interval: u64,
    /// Short jobs in the burst.
    short_jobs: usize,
    workers: usize,
}

/// A long job: a deep linear recursion on the paper's 14x14 torus,
/// bounded by a step cap so the run is deterministic work of a known
/// size (it ends `MaxSteps`). Linear recursion keeps queues constant,
/// so the background load is pure compute, not memory pressure.
fn long_job(steps: u64, checkpoint: CheckpointSpec, salt: u64) -> JobRequest {
    JobRequest::new(
        JobSpec::new(JobKind::sum(1_000_000_000 + salt))
            .topology(TopologySpec::Torus2D { w: 14, h: 14 })
            .max_steps(steps)
            .checkpoint(checkpoint),
    )
}

/// A short job: a small sum on a small torus, high priority.
fn short_job(n: u64) -> JobRequest {
    JobRequest::new(JobSpec::new(JobKind::sum(n)).topology(TopologySpec::Torus2D { w: 4, h: 4 }))
        .priority(10)
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one configuration and returns the sorted short-job queue waits.
fn run(scenario: &Scenario, checkpoint: CheckpointSpec) -> Vec<Duration> {
    let service = SolverService::new(ServiceConfig {
        workers: scenario.workers,
        start_workers: true,
        cache_capacity: 0, // measure execution, not cache luck
        max_restarts: 0,
        store_dir: None,
        ..ServiceConfig::default()
    });
    let long_handles: Vec<_> = (0..scenario.long_jobs)
        .map(|i| service.submit(long_job(scenario.long_steps, checkpoint, i as u64)))
        .collect();
    // Let the pool fill with background work before the burst.
    while long_handles
        .iter()
        .filter(|h| h.status() == hyperspace_service::JobStatus::Running)
        .count()
        < scenario.workers
    {
        std::thread::yield_now();
    }
    let mut waits: Vec<Duration> = Vec::with_capacity(scenario.short_jobs);
    for i in 0..scenario.short_jobs {
        let handle = service.submit(short_job(20 + (i as u64 % 5)));
        let result = handle.wait();
        assert!(
            result.outcome.is_completed(),
            "short job must complete: {:?}",
            result.outcome
        );
        waits.push(result.queue_wait);
        // Space the burst out so every short job finds the pool busy
        // with resumed background work, not with its predecessor.
        std::thread::sleep(Duration::from_millis(1));
    }
    // Cancel the background jobs explicitly: drop only aborts *queued*
    // jobs, and joining workers still inside a monolithic long job
    // would stall teardown for that job's full remaining runtime.
    for handle in &long_handles {
        handle.cancel();
    }
    drop(service);
    waits.sort();
    waits
}

fn report(label: &str, waits: &[Duration]) -> (Duration, Duration) {
    let p50 = percentile(waits, 0.50);
    let p99 = percentile(waits, 0.99);
    println!(
        "  {label:<12} short-job queue wait: p50 {p50:>10.2?}  p99 {p99:>10.2?}  max {:>10.2?}  (n={})",
        waits.last().copied().unwrap_or_default(),
        waits.len()
    );
    (p50, p99)
}

fn main() {
    let smoke = Args::from_env().smoke();
    let scenario = if smoke {
        Scenario {
            long_jobs: 3,
            long_steps: 400_000,
            interval: 2_000,
            short_jobs: 8,
            workers: 2,
        }
    } else {
        Scenario {
            long_jobs: 6,
            long_steps: 2_000_000,
            interval: 2_000,
            short_jobs: 40,
            workers: 2,
        }
    };
    println!(
        "ABL-C preemption latency: {} workers, {} long jobs ({} steps each), burst of {} short jobs",
        scenario.workers, scenario.long_jobs, scenario.long_steps, scenario.short_jobs
    );

    let start = Instant::now();
    println!("checkpoint off (monolithic background jobs):");
    let baseline = run(&scenario, CheckpointSpec::Off);
    let (base_p50, base_p99) = report("baseline", &baseline);

    println!(
        "checkpoint interval:{} (preemptible background jobs):",
        scenario.interval
    );
    let preemptive = run(&scenario, CheckpointSpec::every(scenario.interval));
    let (pre_p50, pre_p99) = report("preemption", &preemptive);

    println!(
        "  speedup: p50 {:.1}x  p99 {:.1}x  (total sweep {:.2?})",
        base_p50.as_secs_f64() / pre_p50.as_secs_f64().max(1e-9),
        base_p99.as_secs_f64() / pre_p99.as_secs_f64().max(1e-9),
        start.elapsed()
    );

    // The ABL-C claim: preemption strictly lowers short-job tail
    // latency under long-job background load.
    assert!(
        pre_p99 < base_p99,
        "preemption must strictly lower short-job p99 queue wait \
         (baseline {base_p99:?}, preemption {pre_p99:?})"
    );
    println!("ABL-C claim holds: preemption strictly lowers short-job p99 queue wait");
}
