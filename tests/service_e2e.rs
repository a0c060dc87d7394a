//! End-to-end tests of the solver-service semantics: priority ordering,
//! deadline expiry, mid-flight cancellation, and result caching.
//!
//! All workloads are seeded and deterministic; timing-sensitive steps
//! (waiting for a job to start) poll observable state rather than
//! sleeping fixed amounts, so the tests are robust on slow machines.

use std::time::{Duration, Instant};

use hyperspace::core::{CheckpointSpec, MapperSpec, TopologySpec};
use hyperspace::sat::gen;
use hyperspace::service::{JobKind, JobOutcome, JobRequest, JobSpec, JobStatus, SolverService};

fn on_small_torus(kind: JobKind) -> JobSpec {
    JobSpec::new(kind).topology(TopologySpec::Torus2D { w: 4, h: 4 })
}

/// A job that cannot finish within any test budget: naive fib(40) needs
/// ~10^8 activations.
fn endless() -> JobSpec {
    JobSpec::new(JobKind::fib(40)).topology(TopologySpec::Torus2D { w: 14, h: 14 })
}

/// The endless job, checkpointed: suspendable/preemptible every 200
/// simulated steps.
fn endless_checkpointed() -> JobSpec {
    endless().checkpoint(CheckpointSpec::every(200))
}

#[test]
fn priorities_order_execution_with_fifo_ties() {
    // A paused single-worker service makes queue order fully
    // deterministic: everything is queued before the worker starts.
    let mut service = SolverService::paused(1);
    let urgent_a = service.submit(JobRequest::new(on_small_torus(JobKind::sum(10))).priority(5));
    let background = service.submit(JobRequest::new(on_small_torus(JobKind::sum(11))).priority(-3));
    let normal = service.submit(JobRequest::new(on_small_torus(JobKind::sum(12))));
    let urgent_b = service.submit(JobRequest::new(on_small_torus(JobKind::sum(13))).priority(5));
    service.start();

    let order = [
        urgent_a.wait().exec_seq.unwrap(),
        background.wait().exec_seq.unwrap(),
        normal.wait().exec_seq.unwrap(),
        urgent_b.wait().exec_seq.unwrap(),
    ];
    // urgent_a before urgent_b (FIFO within priority 5), both before
    // normal (0), background (-3) last.
    assert!(order[0] < order[3], "FIFO violated within priority class");
    assert!(order[3] < order[2], "urgent ran after normal");
    assert!(order[2] < order[1], "normal ran after background");
}

#[test]
fn deadline_expiry_times_out_without_stalling_the_pool() {
    let service = SolverService::with_workers(2);
    let doomed = service.submit(JobRequest::new(endless()).deadline(Duration::from_millis(50)));
    let result = doomed
        .wait_timeout(Duration::from_secs(60))
        .expect("deadline must interrupt the solve well within a minute");
    assert_eq!(result.outcome, JobOutcome::TimedOut);
    assert!(!result.from_cache);

    // The pool is healthy afterwards: a normal job completes.
    let after = service.submit(on_small_torus(JobKind::sum(20))).wait();
    let summary = after.outcome.summary().expect("pool must keep serving");
    assert_eq!(summary.result.as_deref(), Some("210"));
    assert_eq!(service.stats().timed_out, 1);
}

#[test]
fn deadline_expiring_in_queue_rejects_without_solving() {
    // Single worker busy with an endless job; the queued job's 1ms
    // budget expires long before a worker reaches it.
    let service = SolverService::with_workers(1);
    let blocker = service.submit(JobRequest::new(endless()).priority(10));
    let starved = service.submit(
        JobRequest::new(on_small_torus(JobKind::sum(5))).deadline(Duration::from_millis(1)),
    );
    // Give the blocker time to be picked up, then release the worker.
    while blocker.status() == JobStatus::Queued {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(5));
    blocker.cancel();

    let result = starved
        .wait_timeout(Duration::from_secs(60))
        .expect("starved job must resolve");
    assert_eq!(result.outcome, JobOutcome::TimedOut);
    assert_eq!(result.solve_time, Duration::ZERO, "must not have run");
}

#[test]
fn mid_flight_cancellation_stops_a_running_job() {
    let service = SolverService::with_workers(1);
    let victim = service.submit(JobRequest::new(endless()));

    // Wait until the worker has genuinely started solving.
    let patience = Instant::now();
    while victim.status() != JobStatus::Running {
        assert!(
            patience.elapsed() < Duration::from_secs(30),
            "job never started"
        );
        std::thread::yield_now();
    }
    victim.cancel();
    let result = victim
        .wait_timeout(Duration::from_secs(60))
        .expect("cancel must interrupt the solve");
    assert_eq!(result.outcome, JobOutcome::Cancelled);

    // The worker survives and serves the next job.
    let next = service.submit(on_small_torus(JobKind::sum(4))).wait();
    assert_eq!(
        next.outcome.summary().expect("completed").result.as_deref(),
        Some("10")
    );
}

#[test]
fn cancelling_a_queued_job_never_runs_it() {
    let mut service = SolverService::paused(1);
    let cancelled = service.submit(on_small_torus(JobKind::sum(9)));
    let kept = service.submit(on_small_torus(JobKind::sum(3)));
    cancelled.cancel();
    service.start();
    assert_eq!(cancelled.wait().outcome, JobOutcome::Cancelled);
    assert_eq!(cancelled.wait().solve_time, Duration::ZERO);
    assert!(kept.wait().outcome.is_completed());
}

#[test]
fn repeated_sat_submissions_hit_the_cache_with_identical_reports() {
    let service = SolverService::with_workers(2);
    let spec = || {
        JobSpec::new(JobKind::sat(gen::uf20_91(7)))
            .topology(TopologySpec::Torus2D { w: 6, h: 6 })
            .mapper(MapperSpec::LeastBusy {
                status_period: None,
            })
    };
    let first = service.submit(spec()).wait();
    let second = service.submit(spec()).wait();
    let third = service.submit(spec()).wait();

    assert!(!first.from_cache);
    assert!(second.from_cache && third.from_cache);
    let original = first.outcome.summary().expect("sat job completes");
    assert!(original.result.as_deref().unwrap().starts_with("Sat("));
    assert_eq!(original, second.outcome.summary().unwrap());
    assert_eq!(original, third.outcome.summary().unwrap());

    // A different seed is a different computation: cache miss.
    let other = service
        .submit(
            JobSpec::new(JobKind::sat(gen::uf20_91(8)))
                .topology(TopologySpec::Torus2D { w: 6, h: 6 }),
        )
        .wait();
    assert!(!other.from_cache);

    let stats = service.stats();
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.completed, 4);
    assert!(stats.cache_hit_rate() > 0.0);
}

#[test]
fn sharded_jobs_run_and_share_the_cache_with_sequential_ones() {
    // Backends are bit-identical, so the cache key ignores the backend:
    // a job solved sequentially serves a sharded resubmission from the
    // cache (and vice versa), with an identical summary either way.
    use hyperspace::core::BackendSpec;
    let service = SolverService::with_workers(2);
    let spec = |backend: BackendSpec| {
        JobSpec::new(JobKind::sat(gen::uf20_91(9)))
            .topology(TopologySpec::Torus2D { w: 6, h: 6 })
            .backend(backend)
    };
    let sequential = service.submit(spec(BackendSpec::Sequential)).wait();
    let sharded = service.submit(spec(BackendSpec::sharded(4))).wait();
    assert!(!sequential.from_cache);
    assert!(sharded.from_cache, "backends must share one cache entry");
    assert_eq!(
        sequential.outcome.summary().unwrap(),
        sharded.outcome.summary().unwrap()
    );

    // A fresh sharded computation (new seed) actually runs sharded and
    // produces the same summary a sequential solve of it would.
    let sharded_first = service.submit(spec2(10, BackendSpec::sharded(3))).wait();
    let sequential_second = service.submit(spec2(10, BackendSpec::Sequential)).wait();
    assert!(!sharded_first.from_cache);
    assert!(sequential_second.from_cache);
    assert_eq!(
        sharded_first.outcome.summary().unwrap(),
        sequential_second.outcome.summary().unwrap()
    );

    fn spec2(seed: u64, backend: hyperspace::core::BackendSpec) -> JobSpec {
        JobSpec::new(JobKind::sat(gen::uf20_91(seed)))
            .topology(TopologySpec::Torus2D { w: 6, h: 6 })
            .backend(backend)
    }
}

#[test]
fn objective_and_prune_specs_split_the_cache_but_backends_share_it() {
    // Extends the backend-agnostic-cache test: the objective/prune
    // configuration *is* part of the computation (it changes search
    // behaviour, node counts and reports), so jobs differing only there
    // must not share a cache entry — while identical specs on different
    // backends still must.
    use hyperspace::apps::{sort_by_density, Item};
    use hyperspace::core::{BackendSpec, ObjectiveSpec, PruneSpec};
    let mut items = vec![
        Item {
            weight: 3,
            value: 9,
        },
        Item {
            weight: 5,
            value: 10,
        },
        Item {
            weight: 2,
            value: 7,
        },
        Item {
            weight: 4,
            value: 3,
        },
        Item {
            weight: 6,
            value: 14,
        },
        Item {
            weight: 1,
            value: 2,
        },
    ];
    sort_by_density(&mut items);
    let service = SolverService::with_workers(2);
    let spec = |objective: ObjectiveSpec, prune: PruneSpec| {
        JobSpec::new(JobKind::bnb_knapsack(items.clone(), 10))
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .objective(objective)
            .prune(prune)
    };

    let pruned = service
        .submit(spec(ObjectiveSpec::Maximise, PruneSpec::incumbent()))
        .wait();
    let exhaustive = service
        .submit(spec(ObjectiveSpec::Maximise, PruneSpec::Off))
        .wait();
    let enumerate = service
        .submit(spec(ObjectiveSpec::Enumerate, PruneSpec::Off))
        .wait();
    assert!(!pruned.from_cache);
    assert!(
        !exhaustive.from_cache,
        "prune policy must be part of the cache key"
    );
    assert!(
        !enumerate.from_cache,
        "objective must be part of the cache key"
    );
    // All three agree on the optimum, but the B&B runs report what the
    // enumeration run cannot: incumbents and prune counts.
    let s_pruned = pruned.outcome.summary().expect("completed").clone();
    let s_exhaustive = exhaustive.outcome.summary().expect("completed");
    let s_enumerate = enumerate.outcome.summary().expect("completed");
    assert_eq!(s_pruned.result, s_exhaustive.result);
    assert_eq!(s_pruned.result, s_enumerate.result);
    assert!(s_pruned.nodes_pruned > 0);
    assert_eq!(s_exhaustive.nodes_pruned, 0);
    assert!(s_pruned.best_incumbent.is_some());
    assert_eq!(s_enumerate.best_incumbent, None);
    assert!(
        s_pruned.activations_started < s_exhaustive.activations_started,
        "pruning must shrink the search"
    );

    // Identical spec on a different backend: cache hit with the exact
    // same summary (backends are bit-identical, enforced by the B&B
    // equivalence suite).
    let sharded = service
        .submit(
            spec(ObjectiveSpec::Maximise, PruneSpec::incumbent()).backend(BackendSpec::sharded(4)),
        )
        .wait();
    assert!(sharded.from_cache, "backends must share one cache entry");
    assert_eq!(&s_pruned, sharded.outcome.summary().unwrap());
}

#[test]
fn mixed_seeded_workload_loses_nothing() {
    // A deterministic mixed batch: every handle resolves exactly once
    // with the right answer.
    let service = SolverService::with_workers(4);
    let mut handles = Vec::new();
    for n in 1..=20u64 {
        handles.push((
            service.submit(JobRequest::new(on_small_torus(JobKind::sum(n))).priority(n as i32 % 4)),
            (n * (n + 1) / 2).to_string(),
        ));
    }
    for n in 1..=10u64 {
        handles.push((
            service.submit(on_small_torus(JobKind::fib(n))),
            hyperspace::apps::fib::fib_reference(n).to_string(),
        ));
    }
    let mut ids = std::collections::HashSet::new();
    for (handle, expected) in handles {
        let result = handle.wait();
        assert!(ids.insert(result.id), "duplicate id");
        let summary = result.outcome.summary().expect("job completed");
        assert_eq!(summary.result.as_deref(), Some(expected.as_str()));
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 30);
    assert_eq!(stats.finished(), 30);
}

#[test]
fn high_priority_jobs_preempt_a_checkpointed_long_job() {
    // One worker, occupied by an endless checkpointed job: a
    // higher-priority short job must overtake it at the next checkpoint
    // barrier instead of waiting for it to finish (it never would).
    let service = SolverService::with_workers(1);
    let long = service.submit(JobRequest::new(endless_checkpointed()));
    let patience = Instant::now();
    while long.status() != JobStatus::Running {
        assert!(
            patience.elapsed() < Duration::from_secs(30),
            "long job never started"
        );
        std::thread::yield_now();
    }
    let short = service.submit(JobRequest::new(on_small_torus(JobKind::sum(20))).priority(5));
    let result = short
        .wait_timeout(Duration::from_secs(60))
        .expect("the short job must preempt the long one");
    let summary = result.outcome.summary().expect("completed");
    assert_eq!(summary.result.as_deref(), Some("210"));
    // The long job survived its preemption and is running (or queued)
    // again; it keeps its handle semantics and can be cancelled.
    assert_ne!(long.status(), JobStatus::Done);
    long.cancel();
    let long_result = long
        .wait_timeout(Duration::from_secs(60))
        .expect("cancel must end the long job");
    assert_eq!(long_result.outcome, JobOutcome::Cancelled);
    let stats = service.stats();
    assert!(
        stats.preemptions >= 1,
        "the scheduler must have recorded the preemption: {stats}"
    );
}

#[test]
fn suspend_parks_a_running_job_behind_its_priority_class() {
    // Explicitly suspending the running long job sends it to the back
    // of its priority class, so an equal-priority job that was queued
    // behind it gets the worker.
    let service = SolverService::with_workers(1);
    let long = service.submit(JobRequest::new(endless_checkpointed()));
    let patience = Instant::now();
    while long.status() != JobStatus::Running {
        assert!(
            patience.elapsed() < Duration::from_secs(30),
            "long job never started"
        );
        std::thread::yield_now();
    }
    let peer = service.submit(JobRequest::new(on_small_torus(JobKind::sum(12))));
    long.suspend();
    let result = peer
        .wait_timeout(Duration::from_secs(60))
        .expect("the suspended job must yield the worker to its peer");
    assert_eq!(
        result
            .outcome
            .summary()
            .expect("completed")
            .result
            .as_deref(),
        Some("78")
    );
    // The suspended job resumes afterwards — from exactly where it
    // stopped — and remains cancellable.
    long.cancel();
    assert_eq!(
        long.wait_timeout(Duration::from_secs(60))
            .expect("resumes then honours the cancel")
            .outcome,
        JobOutcome::Cancelled
    );
    assert!(service.stats().suspensions >= 1);
}

#[test]
fn checkpointed_jobs_report_identical_summaries_and_share_the_cache() {
    // Checkpointing is pure scheduling: the sliced run's summary is
    // bit-identical to the monolithic one, and the two must share a
    // cache entry (like backends, the checkpoint spec is not part of
    // the computation).
    let service = SolverService::with_workers(1);
    let spec = || {
        JobSpec::new(JobKind::sat(gen::uf20_91(3))).topology(TopologySpec::Torus2D { w: 6, h: 6 })
    };
    let monolithic = service.submit(spec()).wait();
    let sliced = service
        .submit(spec().checkpoint(CheckpointSpec::every(50)))
        .wait();
    assert!(!monolithic.from_cache);
    assert!(
        sliced.from_cache,
        "the checkpoint spec must not split the cache"
    );
    assert_eq!(
        monolithic.outcome.summary().unwrap(),
        sliced.outcome.summary().unwrap()
    );
    // And with the cache disabled, a genuinely re-executed sliced run
    // still produces the identical summary.
    let uncached = SolverService::new(hyperspace::service::ServiceConfig {
        workers: 1,
        start_workers: true,
        cache_capacity: 0,
        max_restarts: 1,
        store_dir: None,
        ..hyperspace::service::ServiceConfig::default()
    });
    let a = uncached.submit(spec()).wait();
    let b = uncached
        .submit(spec().checkpoint(CheckpointSpec::every(37)))
        .wait();
    assert!(!a.from_cache && !b.from_cache);
    assert_eq!(
        a.outcome.summary().unwrap(),
        b.outcome.summary().unwrap(),
        "sliced and monolithic runs must be bit-identical"
    );
}

#[test]
fn crashed_workers_restart_checkpointed_jobs_from_their_last_checkpoint() {
    use hyperspace::core::ErasedStackJob;
    use hyperspace::recursion::{FnProgram, Rec};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    // A booby-trapped job: the first build panics mid-recursion, every
    // rebuild runs clean — modelling a worker dying mid-solve.
    let builds = Arc::new(AtomicU32::new(0));
    let make_kind = {
        let builds = Arc::clone(&builds);
        move || {
            let builds = Arc::clone(&builds);
            JobKind::erased_with_factory("boobytrap", move || {
                let attempt = builds.fetch_add(1, Ordering::SeqCst);
                ErasedStackJob::new(
                    FnProgram::new(move |n: u64| -> Rec<u64, u64> {
                        if attempt == 0 && n == 3 {
                            panic!("injected worker crash");
                        }
                        if n < 1 {
                            Rec::done(0)
                        } else {
                            Rec::call(n - 1).then(move |total| Rec::done(total + n))
                        }
                    }),
                    20,
                )
            })
        }
    };

    let service = SolverService::with_workers(1);
    let recovered = service
        .submit(on_small_torus(make_kind()).checkpoint(CheckpointSpec::every(10)))
        .wait();
    let summary = recovered
        .outcome
        .summary()
        .expect("the job must complete after its checkpoint restart");
    assert_eq!(summary.result.as_deref(), Some("210"));
    assert_eq!(builds.load(Ordering::SeqCst), 2, "exactly one rebuild");
    let stats = service.stats();
    assert_eq!(stats.restarts, 1);
    assert_eq!(stats.failed, 0);

    // Without a checkpoint spec the same crash still fails the job —
    // restarts are a checkpoint-subsystem feature, not a blanket retry.
    let builds2 = Arc::new(AtomicU32::new(0));
    let kind = {
        let builds2 = Arc::clone(&builds2);
        JobKind::erased_with_factory("boobytrap-nockpt", move || {
            builds2.fetch_add(1, Ordering::SeqCst);
            ErasedStackJob::new(
                FnProgram::new(|n: u64| -> Rec<u64, u64> {
                    if n == 3 {
                        panic!("injected worker crash");
                    }
                    if n < 1 {
                        Rec::done(0)
                    } else {
                        Rec::call(n - 1).then(move |total| Rec::done(total + n))
                    }
                }),
                20,
            )
        })
    };
    let failed = service.submit(on_small_torus(kind)).wait();
    match failed.outcome {
        JobOutcome::Failed(reason) => assert!(reason.contains("injected"), "{reason}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    assert_eq!(
        builds2.load(Ordering::SeqCst),
        1,
        "no retry without checkpoints"
    );
}

#[test]
fn dropped_service_wakes_blocked_waiters_with_recorded_queue_waits() {
    // Satellite regression: drain-on-drop must wake every handle —
    // including waiters already blocked in wait() — and the cancelled
    // jobs' results must carry their genuine queue wait.
    let service = SolverService::paused(1);
    let handle = service.submit(on_small_torus(JobKind::sum(5)));
    let waiter = {
        let handle = handle.clone();
        std::thread::spawn(move || handle.wait())
    };
    // Give the job a measurable queue wait before the drop.
    std::thread::sleep(Duration::from_millis(2));
    drop(service);
    let result = waiter.join().expect("blocked waiter must be woken");
    assert_eq!(result.outcome, JobOutcome::Cancelled);
    assert!(
        result.queue_wait >= Duration::from_millis(2),
        "cancelled queued jobs must report their time in the queue, got {:?}",
        result.queue_wait
    );
    assert_eq!(result.solve_time, Duration::ZERO);
}

#[test]
fn portfolio_jobs_complete_and_cache_winner_only() {
    use hyperspace::core::{BackendSpec, PortfolioSpec};

    let service = SolverService::with_workers(2);
    let cnf = gen::uf20_91(7);
    let folio = |spec: PortfolioSpec| {
        on_small_torus(JobKind::sat(cnf.clone()))
            .mapper(MapperSpec::LeastBusy {
                status_period: None,
            })
            .portfolio(spec)
    };

    let first = service
        .submit(folio(PortfolioSpec::diversified_sat(4)))
        .wait();
    let summary = first.outcome.summary().expect("portfolio job completed");
    assert!(
        summary.result.as_deref().unwrap_or("").starts_with("Sat"),
        "uf20-91 is satisfiable: {:?}",
        summary.result
    );
    assert!(!first.from_cache);

    // Same member set: served from the cache (winner-only summary).
    let second = service
        .submit(folio(PortfolioSpec::diversified_sat(4)))
        .wait();
    assert!(second.from_cache);
    assert_eq!(
        first.outcome.summary().unwrap(),
        second.outcome.summary().unwrap()
    );

    // A different member set is a different computation.
    let third = service
        .submit(folio(PortfolioSpec::diversified_sat(2)))
        .wait();
    assert!(!third.from_cache);

    // Member backends never split the cache: rewrite every mesh member
    // onto the sharded backend and hit the original entry.
    let mut sharded = PortfolioSpec::diversified_sat(4);
    for member in &mut sharded.members {
        member.attempts[0].backend = BackendSpec::sharded(2);
    }
    let fourth = service.submit(folio(sharded)).wait();
    assert!(
        fourth.from_cache,
        "member backends must not split the cache"
    );

    let stats = service.shutdown();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.cache_hits, 2);
}

#[test]
fn portfolio_bnb_job_reports_the_oracle_optimum() {
    use hyperspace::apps::{knapsack_reference, seeded_items};
    use hyperspace::core::{ObjectiveSpec, PortfolioSpec, PruneSpec, StrategySpec};

    let items = seeded_items(11, 9, 14, 22);
    let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
    let oracle = knapsack_reference(&items, capacity);
    let spec = PortfolioSpec::new(vec![
        StrategySpec::mesh().with_prune(PruneSpec::incumbent()),
        StrategySpec::mesh()
            .with_prune(PruneSpec::incumbent())
            .with_mapper(MapperSpec::Random { seed: 3 }),
    ]);

    let service = SolverService::with_workers(1);
    let result = service
        .submit(
            on_small_torus(JobKind::bnb_knapsack(items, capacity))
                .objective(ObjectiveSpec::Maximise)
                .portfolio(spec),
        )
        .wait();
    let summary = result.outcome.summary().expect("completed");
    assert_eq!(summary.best_incumbent, Some(oracle as i64));
}

#[test]
fn legacy_cache_keys_are_byte_for_byte_unchanged() {
    // Satellite audit for the strategy-language upgrade: every
    // pre-expression spec must keep its exact legacy key, byte for byte
    // — an upgraded service re-serves its warm cache. The snapshots
    // below are pinned from the pre-upgrade key format.
    use hyperspace::core::PortfolioSpec;

    let sum = on_small_torus(JobKind::sum(5));
    assert_eq!(
        sum.cache_key().as_deref(),
        Some(
            "sum/5|torus2d:4x4|least-busy|cancel=false|obj=enumerate|prune=off|\
             steps=1000000|root=0|portfolio=none"
        )
    );
    // Flat portfolios keep the legacy `portfolio=` rendering (the giant
    // DIMACS token is elided; prefix and suffix pin the shape).
    let folio =
        JobSpec::new(JobKind::sat(gen::uf20_91(1))).portfolio(PortfolioSpec::diversified_sat(2));
    let key = folio.cache_key().expect("cacheable");
    assert!(key.starts_with("sat/-/-/p cnf 20 91\n"), "{key}");
    assert!(
        key.ends_with(
            "|torus2d:14x14|least-busy|cancel=false|obj=enumerate|prune=off|\
             steps=1000000|root=0|portfolio=epoch=32;len=8;lbd=8;mesh|mesh,h=dlis,pol=neg,seed=1"
        ),
        "{key}"
    );
    // An expression's key equals the key of the flat text it lowers to.
    let lowered = |text: &str| {
        on_small_torus(JobKind::sum(5)).portfolio(text.parse().expect("valid portfolio text"))
    };
    let strategic = lowered("limit(nodes,64,mesh)");
    assert_eq!(
        strategic.cache_key().as_deref(),
        Some(
            "sum/5|torus2d:4x4|least-busy|cancel=false|obj=enumerate|prune=off|\
             steps=1000000|root=0|portfolio=epoch=32;len=8;lbd=8;mesh,limit=nodes:64"
        )
    );
    assert_eq!(
        strategic.cache_key(),
        lowered("epoch=32;len=8;lbd=8;mesh,limit=nodes:64").cache_key()
    );
}

#[test]
fn strategy_expression_jobs_complete_and_cache_on_describe() {
    use hyperspace::core::{LimitSpec, PortfolioSpec, StrategySpec};

    let service = SolverService::with_workers(2);
    let cnf = gen::uf20_91(7);
    let sub = |text: &str| {
        on_small_torus(JobKind::sat(cnf.clone()))
            .mapper(MapperSpec::LeastBusy {
                status_period: None,
            })
            .portfolio(text.parse().expect("valid expression"))
    };

    let race = "portfolio(limit(discrepancy,2,mesh),restart(luby:64,cdcl),mesh)";
    let first = service.submit(sub(race)).wait();
    let summary = first.outcome.summary().expect("strategy job completed");
    assert!(
        summary.result.as_deref().unwrap_or("").starts_with("Sat"),
        "uf20-91 is satisfiable: {:?}",
        summary.result
    );
    assert!(!first.from_cache);

    // The same expression is the same computation: cache hit.
    let second = service.submit(sub(race)).wait();
    assert!(second.from_cache);
    assert_eq!(
        first.outcome.summary().unwrap(),
        second.outcome.summary().unwrap()
    );

    // A different expression is a different computation.
    let third = service
        .submit(sub("portfolio(limit(discrepancy,4,mesh),mesh)"))
        .wait();
    assert!(!third.from_cache);

    // backend(...) combinators are bit-identical execution detail:
    // describe() strips them, so the key matches the first submission.
    let fourth = service
        .submit(sub(
            "portfolio(limit(discrepancy,2,and(backend(sharded:2:rr),mesh)),\
             restart(luby:64,cdcl),mesh)",
        ))
        .wait();
    assert!(fourth.from_cache, "backend nodes must not split the cache");

    // One computation spelled twice is one entry: the flat members the
    // third expression lowers to are served from its run.
    let flat = PortfolioSpec::new(vec![
        StrategySpec::mesh().with_limit(LimitSpec::discrepancy(4)),
        StrategySpec::mesh(),
    ]);
    let fifth = service.submit(sub("mesh").portfolio(flat)).wait();
    assert!(fifth.from_cache, "the flat spelling ran again");
    assert_eq!(fifth.outcome.summary(), third.outcome.summary());

    let stats = service.shutdown();
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.cache_hits, 3);
}

#[test]
fn invalid_strategy_requests_fail_at_submission() {
    use hyperspace::core::{LimitSpec, MemberPlan, PortfolioSpec, StrategySpec};
    use hyperspace::sat::RestartPolicy;

    let service = SolverService::with_workers(1);
    let rejection = |spec: JobSpec| match service.submit(spec).wait() {
        result if result.worker.is_some() => panic!("reached a worker: {result:?}"),
        result => match result.outcome {
            JobOutcome::Failed(reason) => reason,
            other => panic!("expected Failed, got {other:?}"),
        },
    };
    let queens = |text: &str| {
        on_small_torus(JobKind::nqueens(5)).portfolio(text.parse().expect("valid portfolio text"))
    };
    // SAT-only strategies on a non-SAT workload get one verdict however
    // they are spelled: flat text and expression, same reason.
    let flat = rejection(queens("epoch=32;len=8;lbd=8;mesh,limit=discrepancy:2"));
    assert!(flat.contains("discrepancy"), "{flat}");
    assert_eq!(rejection(queens("limit(discrepancy,2,mesh)")), flat);
    // A race needs members, and a member needs attempts: rejected here,
    // not by an assertion on a worker thread.
    let no_members = PortfolioSpec::new(Vec::<StrategySpec>::new());
    let reason = rejection(on_small_torus(JobKind::sat(gen::uf20_91(1))).portfolio(no_members));
    assert!(reason.contains("no members"), "{reason}");
    let no_attempts = PortfolioSpec::new(vec![MemberPlan { attempts: vec![] }]);
    let reason = rejection(on_small_torus(JobKind::sat(gen::uf20_91(1))).portfolio(no_attempts));
    assert!(reason.contains("no attempts"), "{reason}");
    // What neither grammar can spell any more is refused when hand-built
    // too, or a durable job could be accepted here and dropped by the
    // recovery that re-reads its rendering.
    let contradictory =
        StrategySpec::cdcl(RestartPolicy::Off).with_limit(LimitSpec::discrepancy(2));
    let contradictory = PortfolioSpec::new(vec![contradictory]);
    assert!(contradictory.to_string().parse::<PortfolioSpec>().is_err());
    let reason = rejection(on_small_torus(JobKind::sat(gen::uf20_91(1))).portfolio(contradictory));
    assert!(
        reason.contains("expected a mesh search underneath, got cdcl"),
        "{reason}"
    );
    // Node-limited mesh strategies on recursion workloads are fine.
    let result = service.submit(queens("limit(nodes,100000,mesh)")).wait();
    assert!(result.outcome.is_completed(), "{:?}", result.outcome);
}

#[test]
fn sizes_a_program_cannot_search_fail_at_submission() {
    use hyperspace::apps::{Item, TspInstance};
    use hyperspace::obs::EventKind;

    // A tour of 33 cities overflows a task's visited mask, a board of 33
    // rows its attack masks, and items whose values sum past `u32` a
    // task's value. All are refused here, not by a panic on a worker that
    // a checkpointed job would then restart.
    let service = SolverService::with_workers(1);
    let observer = service.observe();
    let checkpointed = |kind| on_small_torus(kind).checkpoint(CheckpointSpec::every(8));
    let rich = Item {
        weight: 1,
        value: 1 << 31,
    };
    for (kind, expected) in [
        (
            JobKind::tsp(TspInstance::random(1, 33, 100)),
            "size 33 is outside 2..=32",
        ),
        (
            JobKind::tsp(TspInstance::random(1, 1, 100)),
            "size 1 is outside 2..=32",
        ),
        (JobKind::nqueens(33), "size 33 exceeds 32"),
        (
            JobKind::knapsack(vec![rich; 2], 2),
            "knapsack item values sum to 4294967296, past 4294967295",
        ),
        (
            JobKind::bnb_knapsack(vec![rich; 2], 2),
            "bnb-knapsack item values sum to 4294967296",
        ),
    ] {
        let result = service.submit(checkpointed(kind)).wait();
        assert_eq!(result.worker, None, "{result:?}");
        match result.outcome {
            JobOutcome::Failed(reason) => assert!(reason.contains(expected), "{reason}"),
            other => panic!("expected Failed, got {other:?}"),
        }
    }
    let stats = service.shutdown();
    assert_eq!((stats.failed, stats.restarts), (5, 0), "{stats}");
    let events = observer.registry().recorder().snapshot();
    assert!(
        !events.iter().any(|e| e.kind == EventKind::Crashed),
        "{events:?}"
    );
}

/// The lifecycle trail of every job the recorder saw entering the
/// service (a `submitted` or `recovered` event) must end in exactly one
/// way out: its last lifecycle event is terminal, and at most one of
/// `completed`/`timed_out`/`cancelled` was ever written for it.
fn assert_every_trail_ends_in_one_way_out(events: &[hyperspace::obs::Event]) {
    use hyperspace::obs::EventKind::*;
    let mut trails = std::collections::BTreeMap::<u64, Vec<_>>::new();
    for event in events {
        // Persist/checkpoint/epoch events are telemetry, not lifecycle.
        if let (Some(id), false) = (
            event.job,
            matches!(event.kind, Persisted | Checkpoint | Epoch),
        ) {
            trails.entry(id).or_default().push(event.kind);
        }
    }
    for (id, trail) in trails {
        if !trail.iter().any(|k| matches!(k, Submitted | Recovered)) {
            continue;
        }
        let last = trail.last().expect("non-empty");
        assert!(
            matches!(last, Completed | TimedOut | Cancelled | Crashed),
            "job {id} ends in {last:?}: {trail:?}"
        );
        let ways_out = trail
            .iter()
            .filter(|k| matches!(k, Completed | TimedOut | Cancelled));
        assert!(ways_out.count() <= 1, "job {id} left twice: {trail:?}");
    }
}

#[test]
fn every_way_out_of_the_service_leaves_the_same_records() {
    use hyperspace::core::{PortfolioSpec, StrategySpec};
    use hyperspace::obs::EventKind;
    use hyperspace::service::{ServiceConfig, ServiceStats};
    use hyperspace::store::JobStore;

    let dir = std::env::temp_dir().join(format!("hyperspace-ways-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = |start_workers: bool| ServiceConfig {
        workers: 1,
        start_workers,
        store_dir: Some(dir.clone()),
        // Roomy enough that two-step slices cannot push a job's
        // `submitted` event out of the ring.
        flight_recorder_capacity: 1 << 16,
        ..ServiceConfig::default()
    };
    let durable = |kind: JobKind| on_small_torus(kind).checkpoint(CheckpointSpec::every(8));
    let resolved = |handle: &hyperspace::service::JobHandle| {
        handle
            .wait_timeout(Duration::from_secs(60))
            .expect("every handle gets a result")
    };
    let by_kind_sums_to_finished = |stats: &ServiceStats| {
        let by_kind: u64 = stats.jobs_by_kind.iter().map(|(_, n)| n).sum();
        assert_eq!(by_kind, stats.finished(), "{stats}");
    };

    let service = SolverService::new(config(true));
    let observer = service.observe();
    // Completes; hits the cache.
    let done = resolved(&service.submit(durable(JobKind::sum(10))));
    assert!(done.outcome.is_completed() && !done.from_cache);
    assert!(resolved(&service.submit(durable(JobKind::sum(10)))).from_cache);
    // Refused at submission: a race without members, a CDCL member on a
    // workload that has no clauses to learn. Never queued: no wait, no
    // queue-wait sample.
    let waits = service.stats().queue_wait_us.count();
    let no_members = PortfolioSpec::new(Vec::<StrategySpec>::new());
    for refused in [
        durable(JobKind::sat(gen::uf20_91(1))).portfolio(no_members),
        durable(JobKind::nqueens(5)).portfolio(PortfolioSpec::diversified_sat(6)),
    ] {
        let refused = resolved(&service.submit(refused));
        assert!(
            matches!(refused.outcome, JobOutcome::Failed(_)),
            "{refused:?}"
        );
        assert_eq!((refused.worker, refused.queue_wait), (None, Duration::ZERO));
    }
    assert_eq!(service.stats().queue_wait_us.count(), waits);
    by_kind_sums_to_finished(&service.stats());
    // Behind a running blocker: one job times out in the queue, one is
    // cancelled there; then the blocker is cancelled mid-run.
    let blocker = service.submit(JobRequest::new(endless_checkpointed()).priority(10));
    while blocker.status() != JobStatus::Running {
        std::thread::yield_now();
    }
    let starved = service
        .submit(JobRequest::new(durable(JobKind::sum(5))).deadline(Duration::from_millis(1)));
    let unwanted = service.submit(durable(JobKind::sum(9)));
    unwanted.cancel();
    std::thread::sleep(Duration::from_millis(5));
    blocker.cancel();
    assert_eq!(resolved(&blocker).outcome, JobOutcome::Cancelled);
    assert_eq!(resolved(&starved).outcome, JobOutcome::TimedOut);
    assert_eq!(resolved(&unwanted).outcome, JobOutcome::Cancelled);
    let stats = service.stats();
    assert_eq!(stats.finished(), stats.submitted, "{stats}");
    by_kind_sums_to_finished(&stats);
    // A long job, a barrier every two steps, suspended just before the
    // service is dropped: it parks into a queue that is shutting down.
    // (Should the worker honour the request before the drop begins, the
    // job resumes and completes instead — every assertion below holds
    // either way.)
    let long = service.submit(
        on_small_torus(JobKind::nqueens(8)).checkpoint(CheckpointSpec::Interval { steps: 2 }),
    );
    while long.status() != JobStatus::Running {
        std::thread::yield_now();
    }
    long.suspend();
    drop(service);
    let long = resolved(&long);
    let events = observer.registry().recorder().snapshot();
    if long.outcome == JobOutcome::Cancelled {
        let trail: Vec<_> = events.iter().filter(|e| e.job == Some(long.id)).collect();
        let [.., parked, left] = trail.as_slice() else {
            panic!("{trail:?}")
        };
        assert_eq!(
            (parked.kind, left.kind),
            (EventKind::Suspended, EventKind::Cancelled)
        );
    } else {
        assert!(long.outcome.is_completed(), "{long:?}");
    }
    assert_every_trail_ends_in_one_way_out(&events);

    // Still queued when a paused service is dropped.
    let paused = SolverService::new(config(false));
    assert!(paused.recovered().is_empty(), "every record was retired");
    let observer = paused.observe();
    let queued = paused.submit(durable(JobKind::sum(7)));
    assert_eq!(paused.stats().persisted, 1, "durable at submission");
    drop(paused);
    assert_eq!(resolved(&queued).outcome, JobOutcome::Cancelled);
    assert_every_trail_ends_in_one_way_out(&observer.registry().recorder().snapshot());

    // No finished job left a durable record behind.
    let left = JobStore::open(&dir).expect("open").scan().expect("scan");
    assert!(left.jobs.is_empty() && left.corrupt.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn finished_probes_are_bounded_by_the_flight_recorder_capacity() {
    use hyperspace::service::ServiceConfig;

    // The same forty tiny jobs through a service that may hold eight
    // finished probes and through one that may hold them all.
    let run = |flight_recorder_capacity: usize| {
        let service = SolverService::new(ServiceConfig {
            workers: 2,
            cache_capacity: 0, // every job runs, so every job gets a probe
            flight_recorder_capacity,
            ..ServiceConfig::default()
        });
        let handles: Vec<_> = (0..40u64)
            .map(|i| service.submit(on_small_torus(JobKind::sum(3 + i % 5))))
            .collect();
        for handle in &handles {
            assert!(handle.wait().outcome.is_completed());
        }
        let newest = handles.iter().map(|h| h.id()).max().expect("forty jobs");
        (service.observe(), newest)
    };
    let (bounded, newest) = run(8);
    let (roomy, _) = run(1 << 16);

    let held: Vec<u64> = bounded.probes().iter().map(|p| p.id()).collect();
    assert!(held.len() <= 8, "finished probes pile up: {held:?}");
    assert!(held.contains(&newest), "the newest job's probe is held");
    assert_eq!(roomy.probes().len(), 40);
    // An evicted probe's steps stay in the lifetime total.
    assert!(bounded.total_steps() > 0);
    assert_eq!(bounded.total_steps(), roomy.total_steps());
}
