//! `service_mix`: multi-tenant traffic through `SolverService`, end to
//! end. Two closed-loop client threads each walk a seeded job list
//! against two workers, a 64-entry result cache and a durable store. Per
//! pass: 60 % SAT (uf20-91, drawn with repeats from 256 formulas, so the
//! working set overflows the cache and roughly one job in ten hits),
//! 20 % 16-item branch-and-bound knapsacks, 20 % `sum(4k..8k)` jobs
//! checkpointed every 1000 steps, which makes them durable. Jobs are
//! small, so queueing, slicing, persisting and per-job stack assembly
//! are the cost, not the step loop.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hyperspace_apps::{knapsack_reference, seeded_items, Item, SumProgram};
use hyperspace_core::{CheckpointSpec, ObjectiveSpec, PruneSpec};
use hyperspace_obs::JsonValue;
use hyperspace_sat::{check_model, gen, Cnf};
use hyperspace_service::{
    persist, JobKind, JobOutcome, JobRequest, JobResult, JobSpec, ServiceConfig, ServiceStats,
    SolverService,
};
use hyperspace_store::JobStore;

use super::l1::checkpoint_probe;
use super::mesh_sat;
use super::portfolio_sat::parse_model;
use crate::harness::{Layers, Sample, TraceCtx, TraceReport, Workload};
use crate::host::HostGauge;
use crate::spec::THREADS;
use crate::stats::{median, median_secs, percentile, sorted, Rng};

const FORMULAS: usize = 256;
const SAT_JOBS: usize = 96;
const KNAPSACK_JOBS: usize = 32;
const SUM_JOBS: usize = 32;
const CACHE_CAPACITY: usize = 64;
const CHECKPOINT_EVERY: u64 = 1_000;
/// Jobs each client submits between two readings of the host gauge: a
/// fifth of its list, about a quarter of a second.
const ROUND: usize = 32;

enum Job {
    /// Index into the formula table.
    Sat(usize),
    Knapsack {
        items: Vec<Item>,
        capacity: u32,
        optimum: u64,
    },
    Sum(u64),
}

/// One job as the client saw it. Every field but `submit_ns` comes back
/// with the service's own result, so the per-job spans of the trace cost
/// the measured pass one extra clock read per job.
struct Row {
    sample: Sample,
    id: u64,
    kind: &'static str,
    submit_ns: u64,
    queue: Duration,
    solve: Duration,
    from_cache: bool,
}

pub struct ServiceMix {
    service: Option<SolverService>,
    store_dir: PathBuf,
    formulas: Vec<Cnf>,
    clients: [Vec<Job>; THREADS],
}

/// A directory under the benchmark's `out/` that no other set-up of this
/// or any concurrent process uses.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = crate::out_dir().join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service(workers: usize, store_dir: &Path) -> SolverService {
    SolverService::new(ServiceConfig {
        workers,
        cache_capacity: CACHE_CAPACITY,
        store_dir: Some(store_dir.to_path_buf()),
        ..ServiceConfig::default()
    })
}

fn sum_request(n: u64) -> JobRequest {
    JobRequest::new(
        JobSpec::new(JobKind::sum(n)).checkpoint(CheckpointSpec::every(CHECKPOINT_EVERY)),
    )
}

impl ServiceMix {
    pub fn new(seed: u64) -> ServiceMix {
        let mut rng = Rng::new(seed);
        let formulas = (0..FORMULAS)
            .map(|_| gen::uf20_91(rng.next_u64()))
            .collect();
        // The same evenly spaced sum sizes under every seed; the seed
        // decides who submits which, and when.
        let total_sums = (SUM_JOBS * THREADS) as u64;
        let mut sums: Vec<u64> = (0..total_sums)
            .map(|k| 4_000 + k * 4_000 / total_sums)
            .collect();
        rng.shuffle(&mut sums);
        let clients = std::array::from_fn(|_| {
            let mut jobs: Vec<Job> = (0..SAT_JOBS)
                .map(|_| Job::Sat(rng.below(FORMULAS as u64) as usize))
                .collect();
            jobs.extend((0..KNAPSACK_JOBS).map(|_| {
                let items = seeded_items(rng.next_u64(), 16, 40, 100);
                let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
                let optimum = knapsack_reference(&items, capacity);
                Job::Knapsack {
                    items,
                    capacity,
                    optimum,
                }
            }));
            jobs.extend((0..SUM_JOBS).map(|_| Job::Sum(sums.pop().expect("dealt evenly"))));
            rng.shuffle(&mut jobs);
            jobs
        });
        let store_dir = scratch_dir("store");
        ServiceMix {
            service: Some(service(THREADS, &store_dir)),
            store_dir,
            formulas,
            clients,
        }
    }

    fn request(&self, job: &Job) -> JobRequest {
        match job {
            Job::Sat(i) => JobKind::sat(self.formulas[*i].clone()).into(),
            Job::Knapsack {
                items, capacity, ..
            } => JobRequest::new(
                JobSpec::new(JobKind::bnb_knapsack(items.clone(), *capacity))
                    .objective(ObjectiveSpec::Maximise)
                    .prune(PruneSpec::incumbent()),
            ),
            Job::Sum(n) => sum_request(*n),
        }
    }

    /// The oracle for one finished job.
    fn correct(&self, job: &Job, result: &JobResult) -> bool {
        let JobOutcome::Completed(summary) = &result.outcome else {
            return false;
        };
        let rendered = summary.result.as_deref();
        match job {
            Job::Sat(i) => rendered
                .and_then(parse_model)
                .is_some_and(|model| check_model(&self.formulas[*i], &model)),
            Job::Knapsack { optimum, .. } => {
                rendered == Some(optimum.to_string().as_str())
                    && summary.best_incumbent == Some(*optimum as i64)
            }
            Job::Sum(n) => rendered == Some((n * (n + 1) / 2).to_string().as_str()),
        }
    }

    /// One client: submit, wait, check, next. The unit is a layer-4
    /// activation; a cache hit ran none.
    fn walk(&self, jobs: &[Job]) -> Vec<Row> {
        let service = self.service.as_ref().expect("service is up");
        jobs.iter()
            .map(|job| {
                let request = self.request(job);
                let started = Instant::now();
                let handle = service.submit(request);
                let submit_ns = started.elapsed().as_nanos() as u64;
                let result = handle.wait();
                let latency_ns = started.elapsed().as_nanos() as u64;
                let ran = result.outcome.summary().filter(|_| !result.from_cache);
                Row {
                    sample: Sample {
                        latency_ns,
                        units: ran.map_or(0, |s| s.activations_started),
                        steps: ran.map_or(0, |s| s.steps),
                        ok: self.correct(job, &result),
                        quiet_ns: latency_ns as f64,
                    },
                    id: result.id,
                    kind: match job {
                        Job::Sat(_) => "sat",
                        Job::Knapsack { .. } => "bnb-knapsack",
                        Job::Sum(_) => "sum",
                    },
                    submit_ns,
                    queue: result.queue_wait,
                    solve: result.solve_time,
                    from_cache: result.from_cache,
                }
            })
            .collect()
    }

    /// Both clients at once, a round of their lists at a time; rows in
    /// round, then client order. The clients meet after each round so
    /// that the gauge reads the host with the service idle, and every job
    /// of the round is brought to the quiet pace by the round's factor.
    fn rows(&self, host: &mut HostGauge) -> Vec<Row> {
        let rounds = self.clients[0].len().div_ceil(ROUND);
        let mut rows = Vec::new();
        for round in 0..rounds {
            let from = rows.len();
            let mark = host.mark();
            std::thread::scope(|scope| {
                let clients: Vec<_> = self
                    .clients
                    .iter()
                    .filter_map(|jobs| jobs.chunks(ROUND).nth(round))
                    .map(|jobs| scope.spawn(move || self.walk(jobs)))
                    .collect();
                rows.extend(
                    clients
                        .into_iter()
                        .flat_map(|c| c.join().expect("client thread")),
                );
            });
            let factor = host.quiet_factor(&mark);
            rows[from..]
                .iter_mut()
                .for_each(|r| r.sample.quiet_ns *= factor);
        }
        rows
    }

    fn stats(&self) -> ServiceStats {
        self.service.as_ref().expect("service is up").stats()
    }
}

impl Drop for ServiceMix {
    fn drop(&mut self) {
        // Stop and join the workers before the store directory goes.
        drop(self.service.take());
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

impl Workload for ServiceMix {
    fn pass(&mut self, host: &mut HostGauge, out: &mut Vec<Sample>) {
        out.extend(self.rows(host).into_iter().map(|r| r.sample));
    }

    /// Which of two clients' identical SAT jobs reaches the cache first
    /// is a race, so a pass's summed counters may move by a hair.
    fn counter_tolerance(&self) -> f64 {
        0.01
    }

    fn trace(&mut self, ctx: &TraceCtx<'_>) -> TraceReport {
        let before = self.stats();
        let mut rows = Vec::new();
        let mut pass_s = Vec::new();
        for _ in 0..2 {
            let started = Instant::now();
            rows.extend(self.rows(&mut HostGauge::off()));
            pass_s.push(started.elapsed().as_secs_f64());
        }
        let after = self.stats();
        let failed = rows.iter().filter(|r| !r.sample.ok).count();

        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let col = |f: &dyn Fn(&Row) -> Option<f64>| {
            sorted(&rows.iter().filter_map(f).collect::<Vec<_>>())
        };
        let submit_us = col(&|r| Some(r.submit_ns as f64 / 1e3));
        let queue_ms = col(&|r| Some(ms(r.queue)));
        let solve_ms = col(&|r| (!r.from_cache).then(|| ms(r.solve)));
        let overhead_ms =
            col(&|r| Some(r.sample.latency_ns as f64 / 1e6 - ms(r.queue) - ms(r.solve)));
        let wall: f64 = pass_s.iter().sum();
        let busy = |s: &ServiceStats| {
            s.per_worker_busy
                .iter()
                .map(Duration::as_secs_f64)
                .sum::<f64>()
        };
        let completed = (after.completed - before.completed) as f64;

        let mut layers: Layers = vec![
            ("service.submit_us_p50".into(), percentile(&submit_us, 50.0)),
            (
                "service.queue_wait_ms_p50".into(),
                percentile(&queue_ms, 50.0),
            ),
            (
                "service.queue_wait_ms_p90".into(),
                percentile(&queue_ms, 90.0),
            ),
            ("service.solve_ms_p50".into(), percentile(&solve_ms, 50.0)),
            ("service.solve_ms_p90".into(), percentile(&solve_ms, 90.0)),
            (
                "service.overhead_ms_p50".into(),
                percentile(&overhead_ms, 50.0),
            ),
            (
                "service.cache_hit_frac".into(),
                (after.cache_hits - before.cache_hits) as f64 / completed,
            ),
            (
                "service.worker_busy_frac".into(),
                (busy(&after) - busy(&before)) / (wall * THREADS as f64),
            ),
            (
                "service.persisted".into(),
                (after.persisted - before.persisted) as f64,
            ),
            (
                "service.persist_errors".into(),
                (after.persist_errors - before.persist_errors) as f64,
            ),
            (
                "service.preemptions".into(),
                (after.preemptions - before.preemptions) as f64,
            ),
            ("trace_overhead_frac".into(), ctx.overhead(&pass_s)),
        ];

        // The machine every job assembles: the service's default stack
        // (14x14 torus, least-busy, seq) is `mesh_sat`'s machine.
        let machine = mesh_sat::config();
        layers.push(("topology.build_ms".into(), machine.topology_build_ms()));
        layers.push((
            "core.build_us_per_op".into(),
            machine.build_us(|| SumProgram),
        ));
        layers.extend(checkpoint_probe());
        let payload = record_probe(&mut layers);
        store_probe(&payload, &mut layers);
        recovery_probe(&mut layers);

        // Per-job spans, all sharing the job id.
        let jobs = rows
            .iter()
            .map(|r| {
                JsonValue::object([
                    ("id", JsonValue::UInt(r.id)),
                    ("kind", JsonValue::str(r.kind)),
                    ("from_cache", JsonValue::Bool(r.from_cache)),
                    ("submit_us", JsonValue::Float(r.submit_ns as f64 / 1e3)),
                    ("queue_ms", JsonValue::Float(ms(r.queue))),
                    ("solve_ms", JsonValue::Float(ms(r.solve))),
                    (
                        "total_ms",
                        JsonValue::Float(r.sample.latency_ns as f64 / 1e6),
                    ),
                ])
            })
            .collect();
        TraceReport {
            layers,
            attempted: rows.len(),
            failed,
            detail: JsonValue::object([("jobs", JsonValue::Array(jobs))]),
        }
    }
}

/// Times `persist::encode_record` on a durable job's record (the bytes a
/// barrier persist writes) and returns that payload.
fn record_probe(layers: &mut Layers) -> Vec<u8> {
    let request = sum_request(6_000);
    let spec_bytes = persist::encode_spec(0, &request.spec.kind, &request.spec.params)
        .expect("sum jobs are persistable");
    let encode = || persist::encode_record(&spec_bytes, CHECKPOINT_EVERY, None);
    layers.push((
        "service.encode_record_us".into(),
        median_secs(99, encode) * 1e6,
    ));
    encode()
}

/// Direct timing of the durable store on the benchmark's own disk: 64
/// puts of a job record over 8 live jobs, as many gets, one scan.
fn store_probe(payload: &[u8], layers: &mut Layers) {
    let dir = scratch_dir("store-probe");
    let store = JobStore::open(&dir).expect("open the probe store");
    let mut put_ms = Vec::new();
    let mut get_us = Vec::new();
    for i in 0..64u64 {
        let started = Instant::now();
        store.put(i % 8, i / 8, payload).expect("put");
        put_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    for i in 0..64u64 {
        let started = Instant::now();
        let manifest = store.get(i % 8).expect("get").expect("record exists");
        get_us.push(started.elapsed().as_secs_f64() * 1e6);
        assert_eq!(manifest.payload, payload);
    }
    let started = Instant::now();
    let scanned = store.scan().expect("scan");
    let scan_ms = started.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(scanned);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    let put_ms = sorted(&put_ms);
    layers.push(("store.put_ms_p50".into(), percentile(&put_ms, 50.0)));
    layers.push(("store.put_ms_p90".into(), percentile(&put_ms, 90.0)));
    layers.push(("store.get_us_p50".into(), median(&get_us)));
    layers.push(("store.scan_ms".into(), scan_ms));
    layers.push(("store.payload_bytes".into(), payload.len() as f64));
}

/// One kill-and-recover cycle of a long durable job: the uninterrupted
/// durable solve, then the same job killed after its first barrier
/// persist and recovered by a second service over the same directory.
fn recovery_probe(layers: &mut Layers) {
    let job = || sum_request(60_000);
    let dir = scratch_dir("store-recovery");

    let reference = service(1, &dir);
    let started = Instant::now();
    let expected = reference.submit(job()).wait().outcome;
    let solve_s = started.elapsed().as_secs_f64();
    drop(reference);

    let doomed = service(1, &dir);
    let handle = doomed.submit(job());
    let store = JobStore::open(&dir).expect("open the recovery store");
    let give_up = Instant::now() + Duration::from_secs_f64(solve_s / 2.0);
    while Instant::now() < give_up {
        match store.get(handle.id()) {
            Ok(Some(manifest)) if manifest.job_seq >= 1 => break,
            _ => std::thread::yield_now(),
        }
    }
    doomed.kill();

    let started = Instant::now();
    let revived = service(1, &dir);
    let recovered = revived.recovered().to_vec();
    let outcomes: Vec<JobOutcome> = recovered.iter().map(|h| h.wait().outcome).collect();
    let recovery_s = started.elapsed().as_secs_f64();
    drop(revived);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        outcomes.len() == 1 && outcomes[0] == expected && expected.is_completed(),
        "the killed job must recover to the uninterrupted result"
    );
    layers.push(("service.recovery_ms".into(), recovery_s * 1e3));
    layers.push(("service.recovery_over_solve".into(), recovery_s / solve_s));
}
