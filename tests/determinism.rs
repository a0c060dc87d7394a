//! Determinism and parallel-equivalence guarantees: identical
//! configurations produce bit-identical runs, the `parallel` backend
//! is indistinguishable from the sequential one, and the sharded
//! backend's trace is invariant under its worker-thread count.

use hyperspace::core::{
    BackendSpec, MapperSpec, Partition, RecRunReport, StackBuilder, TopologySpec,
};
use hyperspace::sat::{gen, DpllProgram, Heuristic, SimplifyMode, SubProblem, Verdict};
use hyperspace::sim::record::TraceEvent;
use hyperspace::sim::SimConfig;

fn run(backend: BackendSpec, seed: u64) -> RecRunReport<Verdict> {
    run_in(SimplifyMode::SplitOnly, backend, seed)
}

fn run_in(mode: SimplifyMode, backend: BackendSpec, seed: u64) -> RecRunReport<Verdict> {
    let cnf = gen::uf20_91(seed);
    let program = DpllProgram::new(Heuristic::FirstUnassigned).with_mode(mode);
    StackBuilder::new(program)
        .topology(TopologySpec::Torus2D { w: 8, h: 8 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .backend(backend)
        .halt_on_root_reply(false)
        .run(SubProblem::root(cnf), 0)
}

#[test]
fn repeated_runs_are_identical() {
    let a = run(BackendSpec::Sequential, 2017);
    let b = run(BackendSpec::Sequential, 2017);
    assert_eq!(a.computation_time, b.computation_time);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.metrics.total_sent, b.metrics.total_sent);
    assert_eq!(a.metrics.delivered_per_node, b.metrics.delivered_per_node);
    assert_eq!(
        a.metrics.queued_series.as_slice(),
        b.metrics.queued_series.as_slice()
    );
    assert_eq!(a.result, b.result);
}

#[test]
fn parallel_stepper_matches_sequential_exactly() {
    for seed in [2017u64, 42] {
        let seq = run(BackendSpec::Sequential, seed);
        let par = run(BackendSpec::Parallel, seed);
        assert_eq!(seq.steps, par.steps, "seed {seed}");
        assert_eq!(seq.computation_time, par.computation_time);
        assert_eq!(seq.metrics.total_sent, par.metrics.total_sent);
        assert_eq!(
            seq.metrics.delivered_per_node,
            par.metrics.delivered_per_node
        );
        assert_eq!(
            seq.metrics.queued_series.as_slice(),
            par.metrics.queued_series.as_slice()
        );
        assert_eq!(seq.result, par.result);
        assert_eq!(seq.rec_totals, par.rec_totals);
    }
}

#[test]
fn sharded_sat_runs_match_sequential_in_both_modes() {
    // On two threads, which of a split's children copies its parent's
    // counters and which takes them depends on which thread starts its
    // child first: the run must not show it.
    let sharded: BackendSpec = "sharded:2:2".parse().expect("a backend spelling");
    for mode in [SimplifyMode::SplitOnly, SimplifyMode::Fixpoint] {
        for seed in [2017u64, 42] {
            let seq = run_in(mode, BackendSpec::Sequential, seed);
            let other = run_in(mode, sharded.clone(), seed);
            assert_eq!(other.result, seq.result, "{mode} seed {seed}");
            assert_eq!(other.steps, seq.steps, "{mode} seed {seed}");
            assert_eq!(other.computation_time, seq.computation_time);
            assert_eq!(other.rec_totals, seq.rec_totals, "{mode} seed {seed}");
            assert_eq!(other.metrics, seq.metrics, "{mode} seed {seed}");
        }
    }
}

/// One sharded SAT run with an explicit worker-thread count, returning
/// everything observable: the full event trace, metrics and summary
/// numbers.
fn sharded_run(
    seed: u64,
    shards: u32,
    partition: Partition,
    threads: u32,
) -> (Vec<TraceEvent>, Vec<u64>, Vec<u64>, u64, u64) {
    let cnf = gen::uf20_91(seed);
    let program = DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly);
    let mut sim = StackBuilder::new(program)
        .topology(TopologySpec::Torus2D { w: 8, h: 8 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .backend(BackendSpec::Sharded {
            shards,
            partition,
            threads: Some(threads),
        })
        .halt_on_root_reply(false)
        .sim_config(SimConfig {
            record_trace: true,
            ..SimConfig::default()
        })
        .build();
    sim.inject(0, hyperspace::mapping::trigger(SubProblem::root(cnf)));
    let report = sim.run_to_quiescence().expect("sharded SAT run");
    let trace = sim.trace().to_vec();
    let metrics = sim.metrics();
    (
        trace,
        metrics.delivered_per_node.clone(),
        metrics.queued_series.as_slice().to_vec(),
        metrics.total_sent,
        report.steps,
    )
}

#[test]
fn sharded_runs_are_identical_across_thread_counts() {
    // Same seed, same shard layout, different worker-thread counts: the
    // trace (and everything derived from it) must be bit-identical.
    // Repeat each configuration to also catch run-to-run nondeterminism.
    let baseline = sharded_run(2017, 7, Partition::RoundRobin, 1);
    assert!(!baseline.0.is_empty(), "trace recorded");
    for threads in [1u32, 2, 5, 7] {
        for repeat in 0..2 {
            let run = sharded_run(2017, 7, Partition::RoundRobin, threads);
            assert_eq!(
                run, baseline,
                "threads={threads} repeat={repeat} diverged from single-threaded baseline"
            );
        }
    }
}

#[test]
fn sharded_trace_is_partition_and_shard_count_invariant() {
    // The trace must not depend on how the state was sharded at all.
    let baseline = sharded_run(42, 1, Partition::Block, 1);
    for (shards, partition) in [
        (2, Partition::Block),
        (7, Partition::Block),
        (7, Partition::RoundRobin),
        (64, Partition::RoundRobin),
    ] {
        let run = sharded_run(42, shards, partition, 3);
        assert_eq!(run, baseline, "K={shards} {partition:?} diverged");
    }
}

#[test]
fn different_seeds_differ() {
    // Sanity check that the workload generator actually varies.
    let a = run(BackendSpec::Sequential, 1);
    let b = run(BackendSpec::Sequential, 2);
    assert_ne!(
        (a.steps, a.metrics.total_sent),
        (b.steps, b.metrics.total_sent)
    );
}
