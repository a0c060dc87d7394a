//! Kill-and-restart crash recovery, end to end.
//!
//! The durable job store's contract: a process killed mid-flight loses
//! no checkpoint-enabled job, and every recovered job's eventual
//! `RunSummary` is **bit-identical** to a run that was never
//! interrupted — recovery re-submits the persisted spec and replays
//! deterministically to the last durable barrier, and the engines are
//! bit-exact, so the cut point is unobservable in the result.
//!
//! The choreography is deterministic, not timing-hopeful: one worker,
//! one long checkpointed job submitted first, three more queued behind
//! it. `SolverService::kill()` models process death — the long job
//! stops at its next checkpoint barrier (its record stays durable), the
//! queued three are never popped, and none of the four handles ever
//! finish. A second service over the same `store_dir` must recover all
//! four under their original ids.

use std::time::{Duration, Instant};

use hyperspace::core::{
    CheckpointSpec, JobParams, LimitSpec, PortfolioSpec, StrategySpec, TopologySpec,
};
use hyperspace::obs::EventKind;
use hyperspace::sat::{gen, RestartPolicy};
use hyperspace::service::persist::{decode_record, encode_record, encode_spec};
use hyperspace::service::{JobKind, JobRequest, JobSpec, JobStatus, ServiceConfig, SolverService};
use hyperspace::sim::codec::Writer;
use hyperspace::sim::Codec;
use hyperspace::store::JobStore;

fn store_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hyperspace-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &std::path::Path) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        start_workers: true,
        cache_capacity: 0, // summaries must come from real runs
        max_restarts: 1,
        store_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    }
}

/// The four-job workload: one long job that is mid-flight at the kill,
/// three short ones queued behind it. All checkpoint-enabled (the store
/// only persists jobs that can restart from a barrier).
fn workload() -> Vec<JobRequest> {
    let job = |kind: JobKind, every: u64| {
        JobRequest::new(
            JobSpec::new(kind)
                .topology(TopologySpec::Torus2D { w: 4, h: 4 })
                .checkpoint(CheckpointSpec::every(every)),
        )
    };
    vec![
        // Long enough that the kill lands between barriers, not after
        // the last one: ~100k recursive activations.
        job(JobKind::sum(100_000), 500),
        job(JobKind::fib(14), 100),
        job(JobKind::nqueens(6), 250),
        job(JobKind::sum(333), 64),
    ]
}

#[test]
fn killed_process_recovers_all_jobs_with_bit_identical_summaries() {
    // Uninterrupted reference: same jobs, same worker count, no store.
    let reference_service = SolverService::new(ServiceConfig {
        store_dir: None,
        ..config(std::path::Path::new("/unused"))
    });
    let reference: Vec<_> = workload()
        .into_iter()
        .map(|job| {
            let summary = reference_service
                .submit(job)
                .wait()
                .outcome
                .summary()
                .expect("reference completes")
                .clone();
            summary
        })
        .collect();
    drop(reference_service);

    // Incarnation 1: submit everything, wait until the long job is
    // mid-flight, then die.
    let dir = store_dir("e2e");
    let service = SolverService::new(config(&dir));
    let handles: Vec<_> = workload().into_iter().map(|j| service.submit(j)).collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    while handles[0].status() != JobStatus::Running {
        assert!(Instant::now() < deadline, "long job never started");
        std::thread::yield_now();
    }
    let ids: Vec<u64> = handles.iter().map(|h| h.id()).collect();
    service.kill();

    // Process death: no handle resolved, every record still on disk.
    for h in &handles {
        assert!(h.try_result().is_none(), "kill must not finish handles");
    }
    {
        let store = JobStore::open(&dir).expect("open");
        let scan = store.scan().expect("scan");
        assert_eq!(scan.jobs.len(), 4, "all four records survive the kill");
        assert!(scan.corrupt.is_empty());
        // The long job reached at least one barrier persist beyond its
        // submit-time record.
        assert!(
            scan.jobs.iter().any(|m| m.job_seq >= 1),
            "the running job re-persisted at a checkpoint barrier"
        );
    }

    // Incarnation 2: same directory, fresh process state.
    let revived = SolverService::new(config(&dir));
    let recovered = revived.recovered().to_vec();
    assert_eq!(recovered.len(), 4, "every in-flight job is recovered");
    // The flight recorder saw each recovery (checked now, before the
    // replay's slice events can evict them from the ring).
    let events = revived.observe().registry().recorder().snapshot();
    let recoveries = events
        .iter()
        .filter(|e| e.kind == EventKind::Recovered)
        .count();
    assert_eq!(recoveries, 4);
    let mut recovered_ids: Vec<u64> = recovered.iter().map(|h| h.id()).collect();
    recovered_ids.sort_unstable();
    let mut expected_ids = ids.clone();
    expected_ids.sort_unstable();
    assert_eq!(recovered_ids, expected_ids, "original job ids are kept");

    // The headline guarantee: recovered summaries are bit-identical to
    // the uninterrupted reference, whatever the cut point was.
    for (handle, expected) in recovered.iter().zip(reference.iter()) {
        let result = handle.wait();
        let summary = result.outcome.summary().expect("recovered job completes");
        assert_eq!(
            summary,
            expected,
            "job {} diverged after crash recovery",
            handle.id()
        );
    }

    let stats = revived.stats();
    assert_eq!(stats.recovered, 4);
    assert_eq!(stats.completed, 4);

    // Terminal jobs retire their records: the store ends empty, so a
    // third incarnation would recover nothing.
    revived.drain();
    let store = JobStore::open(&dir).expect("open");
    let scan = store.scan().expect("scan");
    assert!(scan.jobs.is_empty(), "completed jobs retire their records");
    assert!(scan.corrupt.is_empty());
    drop(revived);
    let third = SolverService::new(config(&dir));
    assert!(third.recovered().is_empty());
    drop(third);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_ignores_quarantined_garbage_and_still_recovers_the_rest() {
    let dir = store_dir("garbage");
    // A paused durable service with two queued jobs, killed.
    let service = SolverService::new(ServiceConfig {
        start_workers: false,
        ..config(&dir)
    });
    let a = service.submit(workload().remove(3));
    let b = service.submit(workload().remove(1));
    let (a_id, b_id) = (a.id(), b.id());
    service.kill();

    // A torn temp file and a corrupt manifest land next to the records.
    std::fs::write(dir.join(".tmp-feedface"), b"torn write").expect("tmp");
    std::fs::write(dir.join("job-00000000000000ff.hsj"), b"zeroed by disk").expect("bad");

    let revived = SolverService::new(config(&dir));
    let recovered = revived.recovered().to_vec();
    let mut got: Vec<u64> = recovered.iter().map(|h| h.id()).collect();
    got.sort_unstable();
    let mut want = vec![a_id, b_id];
    want.sort_unstable();
    assert_eq!(got, want, "healthy records recover around the garbage");
    for h in &recovered {
        assert!(h.wait().outcome.is_completed());
    }
    assert_eq!(revived.stats().persist_errors, 1, "corruption is counted");
    // The corrupt file was quarantined, not deleted and not trusted.
    assert!(dir.join("job-00000000000000ff.corrupt").exists());
    assert!(!dir.join(".tmp-feedface").exists(), "torn temp swept");
    drop(revived);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `spec` (fresh [`encode_spec`] output, whose last byte is the empty
/// strategy slot) with that slot filled — what a pre-lowering writer
/// produced and today's writer no longer can.
fn with_strategy_slot(spec: &[u8], expr: &str) -> Vec<u8> {
    let (body, slot) = spec.split_at(spec.len() - 1);
    assert_eq!(slot, [0], "encode_spec leaves the strategy slot empty");
    let mut w = Writer::new();
    Some(expr.to_string()).encode(&mut w);
    [body, &w.into_bytes()].concat()
}

#[test]
fn recovery_rejects_records_that_submission_would_reject() {
    // Four records with healthy framing and CRCs that no worker can
    // run: an expression that parses but does not lower, a record naming
    // its members in both slots, a CDCL member on a non-SAT job, and the
    // flat spelling of a CDCL member under a discrepancy budget (which
    // only a hand-built spec can still render).
    let small = |portfolio: Option<&str>| JobParams {
        topology: TopologySpec::Torus2D { w: 4, h: 4 },
        checkpoint: CheckpointSpec::every(64),
        portfolio: portfolio.map(|text| text.parse().expect("valid portfolio text")),
        ..JobParams::default()
    };
    let sat = JobKind::sat(gen::uf20_91(1));
    let plain = encode_spec(0, &sat, &small(None)).expect("persistable");
    let folio =
        encode_spec(0, &sat, &small(Some("epoch=32;len=8;lbd=8;mesh"))).expect("persistable");
    let specs = [
        with_strategy_slot(&plain, "restart(luby:64,mesh)"),
        with_strategy_slot(&folio, "mesh"),
        encode_spec(
            0,
            &JobKind::nqueens(5),
            &small(Some("epoch=32;len=8;lbd=8;cdcl")),
        )
        .expect("persistable"),
        encode_spec(
            0,
            &sat,
            &JobParams {
                portfolio: Some(PortfolioSpec::new(vec![StrategySpec::cdcl(
                    RestartPolicy::Off,
                )
                .with_limit(LimitSpec::discrepancy(2))])),
                ..small(None)
            },
        )
        .expect("persistable"),
    ];
    let dir = store_dir("unrunnable");
    {
        let store = JobStore::open(&dir).expect("open");
        for (id, spec) in specs.iter().enumerate() {
            store
                .put(id as u64, 0, &encode_record(spec, 0, None))
                .expect("put");
        }
        assert_eq!(store.scan().expect("scan").jobs.len(), 4, "all CRC-valid");
    }

    let revived = SolverService::new(ServiceConfig {
        max_restarts: 2,
        ..config(&dir)
    });
    assert!(
        revived.recovered().is_empty(),
        "nothing runnable to recover"
    );
    revived.drain();
    let stats = revived.stats();
    assert_eq!(stats.persist_errors, 4);
    assert_eq!(stats.restarts, 0, "no worker ever saw the records");
    let events = revived.observe().registry().recorder().snapshot();
    assert!(events.iter().all(|e| e.kind != EventKind::Crashed));
    let scan = JobStore::open(&dir).expect("open").scan().expect("scan");
    assert!(scan.jobs.is_empty(), "rejected records are removed");
    drop(revived);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_quarantines_knapsack_records_whose_values_overflow_a_task() {
    // Two items worth 2^31 each sum past a task's `u32` value: submission
    // refuses such a job, so a record of one (written before the check
    // existed) is quarantined at recovery, never handed to a worker.
    let rich = hyperspace::apps::Item {
        weight: 1,
        value: 1 << 31,
    };
    let params = JobParams {
        topology: TopologySpec::Torus2D { w: 4, h: 4 },
        checkpoint: CheckpointSpec::every(64),
        ..JobParams::default()
    };
    let dir = store_dir("rich-knapsack");
    {
        let store = JobStore::open(&dir).expect("open");
        for (id, kind) in [
            JobKind::knapsack(vec![rich; 2], 2),
            JobKind::bnb_knapsack(vec![rich; 2], 2),
        ]
        .iter()
        .enumerate()
        {
            let spec = encode_spec(0, kind, &params).expect("persistable");
            store
                .put(id as u64, 0, &encode_record(&spec, 0, None))
                .expect("put");
        }
    }
    let revived = SolverService::new(config(&dir));
    assert!(
        revived.recovered().is_empty(),
        "nothing runnable to recover"
    );
    revived.drain();
    let stats = revived.stats();
    assert_eq!((stats.persist_errors, stats.restarts), (2, 0));
    let events = revived.observe().registry().recorder().snapshot();
    assert!(events.iter().all(|e| e.kind != EventKind::Crashed));
    let scan = JobStore::open(&dir).expect("open").scan().expect("scan");
    assert!(scan.jobs.is_empty(), "rejected records are removed");
    drop(revived);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_job_records_decode_key_and_run_as_at_the_parent() {
    // Written by the commit before portfolios became the one strategy
    // carrier: a version-1 and a version-2 record of a flat
    // `diversified_sat(6)` job and a version-2 record whose strategy
    // slot holds `portfolio(or(limit(nodes,64,mesh),mesh),
    // restart(luby:64,cdcl))`, with the cache keys and summaries that
    // commit produced for them.
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let expected = std::fs::read_to_string(golden.join("job_records.expected")).expect("pins");
    let pin = |name: &str, what: &str| {
        let prefix = format!("{name} {what} ");
        expected.lines().find_map(|l| l.strip_prefix(&prefix))
    };
    let service = SolverService::new(ServiceConfig {
        workers: 1,
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    for name in [
        "job_record_v1_portfolio",
        "job_record_v2_portfolio",
        "job_record_v2_strategy",
    ] {
        let payload = std::fs::read(golden.join(format!("{name}.bin"))).expect("golden record");
        let job = decode_record(&payload).unwrap_or_else(|e| panic!("{name}: {e}"));
        let folio: PortfolioSpec = job.params.portfolio.clone().expect("lowered");
        // Re-encoding writes the flat rendering; nothing is lost.
        let again = encode_spec(job.priority, &job.kind, &job.params).expect("persistable");
        let again = decode_record(&encode_record(&again, 0, None)).expect("re-decodes");
        assert_eq!(again.params.portfolio.as_ref(), Some(&folio), "{name}");
        let spec = JobSpec {
            kind: job.kind,
            params: job.params,
        };
        // The strategy record's key changed by design (it now equals its
        // flat spelling's); the portfolio records' keys may not.
        if let Some(key) = pin(name, "key") {
            assert_eq!(format!("{:?}", spec.cache_key().expect("cacheable")), key);
        } else {
            assert_eq!(
                folio.describe(),
                "epoch=32;len=8;lbd=8;mesh,limit=nodes:64>>mesh|cdcl,restart=luby:64"
            );
        }
        let result = service.submit(spec).wait();
        let summary = result.outcome.summary().expect("completes");
        assert_eq!(
            format!("{summary:?}"),
            pin(name, "summary").expect("pinned")
        );
    }
}
