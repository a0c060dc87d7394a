//! Behavioural smoke tests of the portfolio subsystem: verdict
//! correctness, winner semantics, knowledge-bus accounting, and
//! cancellation of losers. (The cross-backend/thread bit-identity
//! proptests live in the workspace-level `portfolio_equivalence` suite.)

use hyperspace_apps::{knapsack_reference, seeded_items, BnbKnapsackProgram, BnbKnapsackTask};
use hyperspace_core::{
    JobParams, MapperSpec, ObjectiveSpec, PortfolioSpec, PruneSpec, StackBuilder, StrategySpec,
    TopologySpec,
};
use hyperspace_portfolio::PortfolioRunner;
use hyperspace_sat::{brute, gen, DpllProgram, Heuristic, Polarity, RestartPolicy, SubProblem};
use hyperspace_sim::{RunOutcome, StopHandle};

fn small_runner(spec: PortfolioSpec) -> PortfolioRunner {
    PortfolioRunner::new(spec)
        .topology(TopologySpec::Torus2D { w: 4, h: 4 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
}

#[test]
fn sat_portfolio_agrees_with_oracle() {
    for seed in 0..6u64 {
        let cnf = gen::random_ksat(seed, 9, 40, 3);
        let oracle = brute::solve(&cnf).is_sat();
        let report = small_runner(PortfolioSpec::diversified_sat(5)).run_sat(&cnf);
        let winner = report.winner.expect("someone answers");
        let summary = report.winner_summary().expect("winner summary");
        let result = summary.result.as_deref().expect("winner has a verdict");
        assert_eq!(
            result.starts_with("Sat"),
            oracle,
            "seed {seed}: winner {winner} said {result}"
        );
        // Losers were cancelled or exhausted, never left running.
        for m in &report.members {
            if m.id != winner && m.finished_epoch.is_none() {
                assert!(
                    matches!(
                        m.summary.outcome,
                        RunOutcome::Stopped | RunOutcome::MaxSteps
                    ),
                    "member {}: {:?}",
                    m.id,
                    m.summary.outcome
                );
            }
        }
    }
}

/// PHP(pigeons, holes): unsatisfiable for pigeons > holes, and hard for
/// decision-negation learning — guarantees a multi-epoch refutation.
fn pigeonhole(pigeons: u32, holes: u32) -> hyperspace_sat::Cnf {
    use hyperspace_sat::{Clause, Cnf, Lit, Var};
    let var = |p: u32, h: u32| Var(p * holes + h);
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..holes).map(|h| Lit::pos(var(p, h))).collect::<Clause>());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                clauses.push(Clause::new(vec![
                    Lit::neg(var(p1, h)),
                    Lit::neg(var(p2, h)),
                ]));
            }
        }
    }
    Cnf::new(pigeons * holes, clauses)
}

#[test]
fn cdcl_members_exchange_clauses_on_hard_instances() {
    // A pigeonhole instance makes CDCL members learn for many epochs;
    // with two or more CDCL members and small epochs, lemmas must cross
    // the bus.
    let cnf = pigeonhole(5, 4);
    let members = vec![
        StrategySpec::cdcl(RestartPolicy::Off),
        StrategySpec::cdcl(RestartPolicy::Luby(4)).with_seed(5),
        StrategySpec::cdcl(RestartPolicy::Fixed(8))
            .with_polarity(Polarity::Negative)
            .with_seed(9),
    ];
    let spec = PortfolioSpec::new(members).epoch(8);
    let report = small_runner(spec).run_sat(&cnf);
    assert!(report.winner.is_some(), "race must end");
    assert!(
        report.clauses_shared > 0,
        "no lemmas crossed the bus: {report:?}"
    );
    assert!(report.clauses_imported >= report.clauses_shared);
    let exported: u64 = report.members.iter().map(|m| m.clauses_exported).sum();
    assert_eq!(exported, report.clauses_shared);
}

#[test]
fn bnb_portfolio_reaches_the_oracle_optimum_and_shares_bounds() {
    let items = seeded_items(2017, 10, 14, 22);
    let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
    let oracle = knapsack_reference(&items, capacity);
    // A cold exhaustive member, a pruned member, and a pruned member on
    // a different placement: diversity makes incumbents flow.
    let members = vec![
        StrategySpec::mesh(),
        StrategySpec::mesh().with_prune(PruneSpec::incumbent()),
        StrategySpec::mesh()
            .with_prune(PruneSpec::incumbent())
            .with_mapper(MapperSpec::Random { seed: 7 }),
    ];
    let spec = PortfolioSpec::new(members).epoch(16);
    let report = small_runner(spec)
        .objective(ObjectiveSpec::Maximise)
        .run_mesh(
            |_, _| BnbKnapsackProgram,
            BnbKnapsackTask::root(items, capacity),
        );
    assert_eq!(report.best_incumbent, Some(oracle as i64));
    assert!(report.winner.is_some());
    assert!(
        report.bounds_shared > 0,
        "no incumbents crossed the bus: {report:?}"
    );
}

#[test]
fn members_inherit_the_job_level_prune_policy() {
    // A member whose strategy leaves prune at the default `Off` ("no
    // opinion") must pick up the runner's job-level policy — the
    // service threads `JobSpec::prune` through exactly this path.
    let items = seeded_items(2017, 10, 14, 22);
    let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
    let run = |prune: PruneSpec| {
        small_runner(PortfolioSpec::new(vec![StrategySpec::mesh()]).epoch(16))
            .objective(ObjectiveSpec::Maximise)
            .prune(prune)
            .run_mesh(
                |_, _| BnbKnapsackProgram,
                BnbKnapsackTask::root(items.clone(), capacity),
            )
    };
    let exhaustive = run(PruneSpec::Off);
    let pruned = run(PruneSpec::incumbent());
    let oracle = knapsack_reference(&items, capacity) as i64;
    assert_eq!(exhaustive.best_incumbent, Some(oracle));
    assert_eq!(pruned.best_incumbent, Some(oracle));
    assert!(pruned.members[0].summary.nodes_pruned > 0, "{pruned:?}");
    assert!(
        pruned.members[0].summary.activations_started
            < exhaustive.members[0].summary.activations_started,
        "job-level pruning must shrink the member's search"
    );
    // An explicit member-level warm start still wins over the base.
    let warm = small_runner(PortfolioSpec::new(vec![StrategySpec::mesh().with_prune(
        PruneSpec::Incumbent {
            initial: Some(oracle),
        },
    )]))
    .objective(ObjectiveSpec::Maximise)
    .prune(PruneSpec::Off)
    .run_mesh(
        |_, _| BnbKnapsackProgram,
        BnbKnapsackTask::root(items.clone(), capacity),
    );
    assert_eq!(warm.best_incumbent, Some(oracle));
    assert!(warm.members[0].summary.nodes_pruned > 0);
}

#[test]
fn external_stop_cancels_the_whole_race() {
    let stop = StopHandle::new();
    stop.stop();
    let cnf = gen::uf20_91(1);
    let report = small_runner(PortfolioSpec::diversified_sat(3))
        .stop(stop)
        .run_sat(&cnf);
    assert_eq!(report.outcome, RunOutcome::Stopped);
    assert_eq!(report.winner, None);
    assert_eq!(report.epochs, 0);
}

/// The machine `small_runner` races on, as job parameters.
fn small_params() -> JobParams {
    JobParams {
        topology: TopologySpec::Torus2D { w: 4, h: 4 },
        mapper: MapperSpec::LeastBusy {
            status_period: None,
        },
        ..JobParams::default()
    }
}

#[test]
fn single_member_portfolio_reduces_to_its_member() {
    let cnf = gen::uf20_91(4);
    let member = StrategySpec::mesh().with_heuristic(Heuristic::JeroslowWang);
    let spec = PortfolioSpec::new(vec![member.clone()]);
    let report = small_runner(spec).run_sat(&cnf);
    assert_eq!(report.winner, Some(0));
    assert_eq!(report.clauses_shared, 0);
    assert_eq!(report.bounds_shared, 0);
    // A member is its strategy's solo run, driven in epochs: the winner
    // summary equals the builder's, bit for bit.
    let program = DpllProgram::new(member.seeded_heuristic())
        .with_mode(member.simplify)
        .with_polarity(member.polarity);
    let solo = StackBuilder::from_params(program, &small_params())
        .strategy(&member)
        .run(SubProblem::root(cnf.clone()), 0)
        .summary();
    assert_eq!(report.winner_summary(), Some(&solo));
    let summary = report.into_summary();
    assert!(summary.result.as_deref().unwrap_or("").starts_with("Sat"));

    // Under an objective the member's incumbent fold matters too: a
    // one-member knapsack race with incumbent pruning is the solo run.
    let items = seeded_items(5, 12, 16, 24);
    let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
    let member = StrategySpec::mesh();
    let report = small_runner(PortfolioSpec::new(vec![member.clone()]))
        .objective(ObjectiveSpec::Maximise)
        .prune(PruneSpec::incumbent())
        .run_mesh(
            |_, _| BnbKnapsackProgram,
            BnbKnapsackTask::root(items.clone(), capacity),
        );
    let params = JobParams {
        objective: ObjectiveSpec::Maximise,
        prune: PruneSpec::incumbent(),
        ..small_params()
    };
    let solo = StackBuilder::from_params(BnbKnapsackProgram, &params)
        .strategy(&member)
        .run(BnbKnapsackTask::root(items.clone(), capacity), 0)
        .summary();
    assert_eq!(report.winner, Some(0));
    assert_eq!(report.winner_summary(), Some(&solo));
    let optimum = knapsack_reference(&items, capacity) as i64;
    assert_eq!(solo.best_incumbent, Some(optimum));
    assert_eq!(report.best_incumbent, Some(optimum));
}

#[test]
fn member_panics_propagate_without_deadlocking_the_drivers() {
    // A booby-trapped member program must surface its panic from the
    // race (as a direct run would), original message intact, whatever
    // thread stepped it.
    use hyperspace_recursion::{FnProgram, Rec};
    let bomb = || {
        FnProgram::new(|n: u64| -> Rec<u64, u64> {
            if n == 0 {
                panic!("injected portfolio fault");
            }
            Rec::call(n - 1).then(move |total| Rec::done(total + n))
        })
    };
    for threads in [1usize, 2] {
        let spec = PortfolioSpec::new(vec![
            StrategySpec::mesh(),
            StrategySpec::mesh().with_mapper(MapperSpec::Random { seed: 3 }),
        ])
        .epoch(8);
        let runner = small_runner(spec).threads(threads);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner.run_mesh(|_, _| bomb(), 5u64)
        }));
        let payload = result.expect_err("the fault must propagate");
        let message = hyperspace_sim::panic_message(payload.as_ref(), "");
        assert!(
            message.contains("injected portfolio fault"),
            "threads {threads}: {message}"
        );
    }
    // The drivers survive the fault: a clean race on this thread's
    // helpers completes and reports what a single-threaded one does.
    let sum = |_: usize, _: &StrategySpec| {
        FnProgram::new(|n: u64| -> Rec<u64, u64> {
            if n == 0 {
                return Rec::done(0);
            }
            Rec::call(n - 1).then(move |total| Rec::done(total + n))
        })
    };
    let spec = PortfolioSpec::new(vec![
        StrategySpec::mesh(),
        StrategySpec::mesh().with_mapper(MapperSpec::Random { seed: 3 }),
    ])
    .epoch(8);
    let [one, two] = [1, 2].map(|threads| {
        small_runner(spec.clone())
            .threads(threads)
            .run_mesh(sum, 5u64)
    });
    assert!(two.winner.is_some());
    assert_eq!(two, one);
}

#[test]
fn the_lowest_members_panic_is_the_one_reported() {
    // Which fault a race re-raises is a function of member ids, never of
    // wall-clock arrival or the thread count: members 1.. fault on their
    // first activation, member 0 hundreds of calls later in the same
    // epoch, and member 0's message is the one that surfaces.
    use hyperspace_recursion::{FnProgram, Rec};
    let make = |id: usize, _: &StrategySpec| {
        FnProgram::new(move |n: u64| -> Rec<u64, u64> {
            if id > 0 || n == 0 {
                panic!("fault in member {id}");
            }
            Rec::call(n - 1).then(move |total| Rec::done(total + n))
        })
    };
    for threads in [1usize, 2, 4] {
        let spec = PortfolioSpec::new(vec![StrategySpec::mesh(); 4]).epoch(4096);
        let runner = small_runner(spec).threads(threads);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner.run_mesh(make, 300u64)
        }));
        let payload = result.expect_err("the fault must propagate");
        let message = hyperspace_sim::panic_message(payload.as_ref(), "");
        assert!(
            message.ends_with("fault in member 0"),
            "threads {threads}: {message}"
        );
    }
}

#[test]
#[should_panic(expected = "CDCL strategy")]
fn cdcl_members_are_rejected_for_non_sat_jobs() {
    let spec = PortfolioSpec::new(vec![StrategySpec::cdcl(RestartPolicy::Off)]);
    let items = seeded_items(1, 4, 9, 9);
    let _ = small_runner(spec)
        .objective(ObjectiveSpec::Maximise)
        .run_mesh(|_, _| BnbKnapsackProgram, BnbKnapsackTask::root(items, 9));
}
