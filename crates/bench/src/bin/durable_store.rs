//! **ABL-D (durable job store)** — what crash durability costs, and
//! what the checkpoint interval buys back.
//!
//! The store's two prices:
//!
//! * **persist overhead** — every checkpoint barrier past the replay
//!   floor rewrites the job's manifest (temp file + fsync + rename), so
//!   a smaller interval means more synchronous disk work per solve;
//! * **replay cost** — recovery re-runs the persisted spec from step 0
//!   (stack-slice node states hold live closures, so only the spec and
//!   the barrier floor are durable), with preemption suppressed up to
//!   the floor. Recovery time therefore tracks the durable solve time,
//!   and the interval's real lever is persist overhead — the floor only
//!   records how far the dead process provably got.
//!
//! This bench makes the trade measurable: one long recursive-sum job
//! per checkpoint interval, killed mid-flight at a fixed poll point,
//! then recovered by a second service over the same directory. For each
//! interval it reports the uninterrupted solve time, the durable solve
//! time (persist overhead included), the recovery-to-completion time,
//! the recovered floor, and the number of manifest writes — emitted as
//! `BENCH_store.json` (via `--out PATH`) so the committed baseline
//! keeps the trajectory diffable.
//!
//! Each run also re-asserts the headline invariant: the recovered
//! summary is bit-identical to the uninterrupted reference.

use std::time::{Duration, Instant};

use hyperspace_bench::harness::{emit, Args};
use hyperspace_core::{CheckpointSpec, TopologySpec};
use hyperspace_obs::JsonValue;
use hyperspace_service::{JobKind, JobRequest, JobSpec, JobStatus, ServiceConfig, SolverService};
use hyperspace_store::JobStore;

fn config(dir: Option<std::path::PathBuf>) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        start_workers: true,
        cache_capacity: 0, // measure solves, not cache luck
        max_restarts: 1,
        store_dir: dir,
        ..ServiceConfig::default()
    }
}

fn job(n: u64, interval: u64) -> JobRequest {
    JobRequest::new(
        JobSpec::new(JobKind::sum(n))
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .checkpoint(CheckpointSpec::every(interval)),
    )
}

struct Sample {
    interval: u64,
    uninterrupted: Duration,
    durable: Duration,
    recovery: Duration,
    floor_steps: u64,
    persists: u64,
}

fn measure(n: u64, interval: u64) -> Sample {
    // Uninterrupted reference (also the bit-identity oracle).
    let reference = SolverService::new(config(None));
    let started = Instant::now();
    let expected = reference
        .submit(job(n, interval))
        .wait()
        .outcome
        .summary()
        .expect("reference completes")
        .clone();
    let uninterrupted = started.elapsed();
    drop(reference);

    // Durable, uninterrupted: the persist overhead in isolation.
    let dir = std::env::temp_dir().join(format!(
        "hyperspace-abl-d-{interval}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let service = SolverService::new(config(Some(dir.clone())));
    let started = Instant::now();
    let durable_summary = service
        .submit(job(n, interval))
        .wait()
        .outcome
        .summary()
        .expect("durable run completes")
        .clone();
    let durable = started.elapsed();
    assert_eq!(durable_summary, expected, "persistence must not perturb");
    let persists = service.stats().persisted;
    drop(service);

    // Kill mid-flight, then time recovery to completion.
    let service = SolverService::new(config(Some(dir.clone())));
    let handle = service.submit(job(n, interval));
    while handle.status() != JobStatus::Running {
        std::thread::yield_now();
    }
    // Kill once the first barrier persist lands, or after a quarter of
    // the measured durable solve time for intervals too coarse to ever
    // re-persist — either way provably before the job can finish, so
    // the record is still on disk when the axe falls.
    let store = JobStore::open(&dir).expect("open");
    let kill_by = Instant::now() + (durable / 4).max(Duration::from_millis(1));
    while Instant::now() < kill_by {
        match store.get(handle.id()) {
            Ok(Some(m)) if m.job_seq >= 1 => break,
            _ => std::thread::yield_now(),
        }
    }
    service.kill();
    let manifest = store
        .get(handle.id())
        .expect("get")
        .expect("record survives the kill");
    let record =
        hyperspace_service::persist::decode_record(&manifest.payload).expect("healthy record");
    let floor_steps = record.checkpoint_steps;

    let started = Instant::now();
    let revived = SolverService::new(config(Some(dir.clone())));
    let recovered = revived.recovered().to_vec();
    assert_eq!(recovered.len(), 1, "the killed job is recovered");
    let summary = recovered[0]
        .wait()
        .outcome
        .summary()
        .expect("recovered job completes")
        .clone();
    let recovery = started.elapsed();
    assert_eq!(summary, expected, "recovery must be bit-identical");
    drop(revived);
    let _ = std::fs::remove_dir_all(&dir);

    Sample {
        interval,
        uninterrupted,
        durable,
        recovery,
        floor_steps,
        persists,
    }
}

fn main() {
    let args = Args::from_env();
    let smoke = args.smoke();
    let n: u64 = if smoke { 20_000 } else { 120_000 };
    let intervals: &[u64] = if smoke {
        &[200, 2_000, 20_000]
    } else {
        &[100, 500, 2_000, 10_000, 50_000]
    };

    println!("ABL-D durable store: sum({n}) on a 4x4 torus, kill mid-flight, recover");
    let mut samples = Vec::new();
    for &interval in intervals {
        let s = measure(n, interval);
        println!(
            "  every {:>6}: solve {:>7.1?} | durable {:>7.1?} ({} persists) | recovery {:>7.1?} from floor {}",
            s.interval, s.uninterrupted, s.durable, s.persists, s.recovery, s.floor_steps
        );
        samples.push(s);
    }

    let sweep = samples.iter().map(|s| {
        JsonValue::object([
            ("interval", JsonValue::UInt(s.interval)),
            (
                "uninterrupted_us",
                JsonValue::UInt(s.uninterrupted.as_micros() as u64),
            ),
            ("durable_us", JsonValue::UInt(s.durable.as_micros() as u64)),
            (
                "recovery_us",
                JsonValue::UInt(s.recovery.as_micros() as u64),
            ),
            ("floor_steps", JsonValue::UInt(s.floor_steps)),
            ("persists", JsonValue::UInt(s.persists)),
        ])
    });
    emit(
        &args,
        &JsonValue::object([
            ("workload", JsonValue::str(format!("sum({n}) torus 4x4"))),
            ("sweep", JsonValue::Array(sweep.collect())),
        ]),
    );
}
