//! Observation bit-identity: attaching an observer to any layer of the
//! stack must not change what is computed. Every suite here runs the
//! same workload with observation ON and OFF and asserts the observable
//! artefacts — run reports, metrics, traces, checkpoint bytes, service
//! summaries, portfolio reports — are identical, while the observer
//! itself demonstrably saw the run (so the tests can't pass vacuously).

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use hyperspace::core::{
    BackendSpec, MapperSpec, PortfolioSpec, RecRunReport, StackBuilder, TopologySpec,
};
use hyperspace::obs::{JobProbe, ObsHandle, Observer};
use hyperspace::obs::{Phase, TraceBuffer};
use hyperspace::portfolio::{PortfolioReport, PortfolioRunner};
use hyperspace::sat::{gen, DpllProgram, Heuristic, SimplifyMode, SubProblem, Verdict};
use hyperspace::sim::record::TraceEvent;
use hyperspace::sim::{
    DeliveryModel, InitCtx, NodeId, NodeProgram, Outbox, Partition, ShardedConfig,
    ShardedSimulation, SimConfig, Simulation,
};

fn probe() -> (Arc<JobProbe>, ObsHandle) {
    let p = Arc::new(JobProbe::new(0, "equivalence", None));
    let h = ObsHandle::new(Arc::clone(&p) as _);
    (p, h)
}

fn stack_run(obs: ObsHandle, seed: u64, backend: BackendSpec) -> RecRunReport<Verdict> {
    let cnf = gen::uf20_91(seed);
    let program = DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly);
    StackBuilder::new(program)
        .topology(TopologySpec::Torus2D { w: 8, h: 8 })
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .backend(backend)
        .halt_on_root_reply(false)
        .observer(obs)
        .run(SubProblem::root(cnf), 0)
}

fn assert_reports_identical(on: &RecRunReport<Verdict>, off: &RecRunReport<Verdict>, tag: &str) {
    assert_eq!(on.steps, off.steps, "{tag}");
    assert_eq!(on.computation_time, off.computation_time, "{tag}");
    assert_eq!(on.result, off.result, "{tag}");
    assert_eq!(on.rec_totals, off.rec_totals, "{tag}");
    assert_eq!(on.metrics.total_sent, off.metrics.total_sent, "{tag}");
    assert_eq!(
        on.metrics.delivered_per_node, off.metrics.delivered_per_node,
        "{tag}"
    );
    assert_eq!(
        on.metrics.queued_series.as_slice(),
        off.metrics.queued_series.as_slice(),
        "{tag}"
    );
}

#[test]
fn stack_reports_are_identical_with_observation_on_and_off() {
    for backend in [BackendSpec::Sequential, BackendSpec::Parallel] {
        let off = stack_run(ObsHandle::off(), 2017, backend.clone());
        let (p, handle) = probe();
        let on = stack_run(handle, 2017, backend.clone());
        assert_reports_identical(&on, &off, &format!("{backend}"));
        // The probe genuinely watched the run it did not perturb.
        assert_eq!(p.steps(), off.steps, "probe saw every step");
        assert!(p.delivered() > 0, "probe saw deliveries");
    }
}

/// The checkpoint-equivalence scatter workload: plain `u64` state and
/// messages, so runs are checkpointable through the codec.
#[derive(Clone)]
struct SeededScatter;

fn mix(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31) ^ v
}

impl NodeProgram for SeededScatter {
    type Msg = u64;
    type State = u64;

    fn init(&self, node: NodeId, _ctx: &InitCtx) -> u64 {
        mix(node as u64)
    }

    fn on_message(&self, state: &mut u64, msg: u64, ctx: &mut Outbox<'_, u64>) {
        *state = state.wrapping_add(mix(msg));
        let ttl = msg & 0xFF;
        if ttl > 0 {
            let degree = ctx.degree();
            ctx.send_port((msg >> 8) as usize % degree, msg - 1);
            if ttl.is_multiple_of(3) {
                ctx.send_port((msg >> 16) as usize % degree, msg - 1);
            }
        }
    }
}

#[test]
fn checkpoint_bytes_are_identical_with_observation_on_and_off() {
    let topo = || hyperspace::topology::Torus::new_2d(5, 5);
    let payload = (0xABCDu64 << 8) | 14;
    let run_to_cut = |obs: ObsHandle, cut: u64| {
        let cfg = SimConfig {
            obs,
            record_trace: true,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(topo(), SeededScatter, cfg);
        sim.inject(3, payload);
        sim.set_max_steps(cut);
        sim.run_to_quiescence().expect("prefix run");
        (sim.snapshot().to_bytes(), sim.trace().to_vec())
    };
    for cut in [0u64, 7, 40] {
        let (bytes_off, trace_off) = run_to_cut(ObsHandle::off(), cut);
        let (p, handle) = probe();
        let (bytes_on, trace_on) = run_to_cut(handle, cut);
        assert_eq!(bytes_on, bytes_off, "checkpoint bytes diverged at {cut}");
        assert_eq!(trace_on, trace_off, "trace diverged at {cut}");
        if cut > 0 {
            assert!(p.steps() > 0, "probe saw the prefix run");
            assert!(p.checkpoints() > 0, "probe saw the snapshot encode");
        }
    }
}

/// Records everything the step loop tells an observer, verbatim.
#[derive(Default)]
struct Recorder {
    steps: Mutex<Vec<(u64, u64, u64)>>,
    loads: Mutex<Vec<(usize, u64)>>,
    phases: Mutex<BTreeSet<&'static str>>,
}

impl Observer for Recorder {
    fn on_step(&self, step: u64, delivered: u64, queued: u64) {
        self.steps.lock().unwrap().push((step, delivered, queued));
    }
    fn on_shard_active(&self, shard: usize, nodes: u64) {
        self.loads.lock().unwrap().push((shard, nodes));
    }
    fn on_phase(&self, _shard: usize, phase: Phase, _nanos: u64) {
        self.phases.lock().unwrap().insert(phase.as_str());
    }
}

#[test]
fn the_observer_feed_does_not_depend_on_the_backend_spelling() {
    // `seq` and `sharded:1` are the same machine, so an observer must be
    // fed the same run: the per-step series (ticks and their dead-step
    // fast-forward included), the per-shard load signal (nodes visited
    // on each sampled step) and the set of phase labels — with no
    // barrier wait and no exchange, because one worker waits for nobody.
    // For K in {1, 3} the run itself must not notice the observer.
    let run = |scfg: Option<ShardedConfig>, obs: ObsHandle| {
        let cfg = SimConfig {
            obs,
            tick_every: Some(4),
            record_trace: true,
            ..SimConfig::default()
        };
        let topo = hyperspace::topology::Torus::new_2d(5, 5);
        let payload = (0xABCDu64 << 8) | 14;
        match scfg {
            None => {
                let mut sim = Simulation::new(topo, SeededScatter, cfg);
                sim.inject(3, payload);
                sim.set_max_steps(64);
                sim.run_to_quiescence().expect("run");
                (sim.snapshot().to_bytes(), sim.metrics().clone())
            }
            Some(scfg) => {
                let mut sim = ShardedSimulation::new(topo, SeededScatter, cfg, scfg);
                sim.inject(3, payload);
                sim.set_max_steps(64);
                sim.run_to_quiescence().expect("run");
                (sim.snapshot().to_bytes(), sim.metrics().clone())
            }
        }
    };
    let observed = |scfg: Option<ShardedConfig>| {
        let recorder = Arc::new(Recorder::default());
        let handle = ObsHandle::new(Arc::clone(&recorder) as _).with_phase_period(1);
        let out = run(scfg, handle);
        let recorder = Arc::into_inner(recorder).expect("the run dropped its handles");
        (
            out,
            recorder.steps.into_inner().unwrap(),
            recorder.loads.into_inner().unwrap(),
            recorder.phases.into_inner().unwrap(),
        )
    };
    let (seq_out, seq_steps, seq_loads, seq_phases) = observed(None);
    let (k1_out, k1_steps, k1_loads, k1_phases) = observed(Some(ShardedConfig::with_shards(1)));
    assert_eq!(seq_out, k1_out);
    assert_eq!(seq_steps, k1_steps, "on_step series");
    assert_eq!(seq_loads, k1_loads, "on_shard_active series");
    assert_eq!(seq_phases, k1_phases, "phase labels");
    assert_eq!(
        seq_phases.into_iter().collect::<Vec<_>>(),
        ["checkpoint_encode", "delivery", "handler"],
        "a single worker has nothing to exchange and nobody to wait for"
    );
    // The feed is the run's own record: one `on_step` per step, equal to
    // the recorded series; the load is the work list — every node on a
    // tick step, the active set otherwise.
    let metrics = &seq_out.1;
    let recorded: Vec<_> = (metrics.delivered_series.as_slice().iter())
        .zip(metrics.queued_series.as_slice())
        .enumerate()
        .map(|(i, (&delivered, &queued))| (i as u64 + 1, delivered, queued))
        .collect();
    assert_eq!(seq_steps, recorded);
    assert!(seq_loads.iter().all(|&(shard, _)| shard == 0));
    assert!(
        seq_loads.contains(&(0, 25)),
        "a tick step visits every node"
    );
    assert_eq!(seq_loads[0], (0, 1), "step 1 visits the injected node only");

    for shards in [1usize, 3] {
        let scfg = ShardedConfig {
            shards,
            partition: Partition::RoundRobin,
            threads: Some(2),
        };
        let (on, steps, ..) = observed(Some(scfg.clone()));
        assert_eq!(on, run(Some(scfg), ObsHandle::off()), "K={shards}");
        assert_eq!(on, seq_out, "K={shards}");
        assert_eq!(steps, seq_steps, "K={shards}: on_step series");
    }
}

/// A probe with an attached trace buffer and every-step phase timing —
/// the most invasive profiling configuration there is.
fn profiled_probe() -> (Arc<JobProbe>, ObsHandle) {
    let p = Arc::new(
        JobProbe::new(0, "profiled", None).with_phase_trace(Arc::new(TraceBuffer::new(4096))),
    );
    let h = ObsHandle::new(Arc::clone(&p) as _).with_phase_period(1);
    (p, h)
}

#[test]
fn sequential_runs_are_bit_identical_under_the_phase_profiler() {
    let run = |obs: ObsHandle| {
        let cfg = SimConfig {
            obs,
            record_trace: true,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(
            hyperspace::topology::Torus::new_2d(5, 5),
            SeededScatter,
            cfg,
        );
        sim.inject(3, (0xABCDu64 << 8) | 44);
        let report = sim.run_to_quiescence().expect("run");
        (
            report.steps,
            sim.snapshot().to_bytes(),
            sim.trace().to_vec(),
        )
    };
    let off = run(ObsHandle::off());
    assert!(
        off.0 >= 16,
        "workload long enough to cross the default sampling period"
    );

    // Every-step timing plus a trace buffer: maximum perturbation risk.
    let (p, handle) = profiled_probe();
    let on = run(handle);
    assert_eq!(on, off, "run diverged under every-step phase profiling");
    for phase in [Phase::Delivery, Phase::Handler, Phase::CheckpointEncode] {
        let (count, _, _) = p.phases().phase_total(phase);
        assert!(count > 0, "{phase:?} went unattributed");
    }
    assert!(!p.trace_samples().is_empty(), "trace buffer captured spans");

    // Default (sampled) period: still identical, and still attributing.
    let (p16, h16) = probe();
    let sampled = run(h16);
    assert_eq!(sampled, off, "run diverged under sampled profiling");
    let (count, _, _) = p16.phases().phase_total(Phase::Handler);
    assert!(count > 0, "sampled profiling attributed nothing");
    assert!(
        count <= p.phases().phase_total(Phase::Handler).0,
        "sampling must not record more spans than every-step timing"
    );
}

#[test]
fn sharded_runs_are_bit_identical_under_the_phase_profiler() {
    const SHARDS: usize = 4;
    let run = |obs: ObsHandle| {
        let cfg = SimConfig {
            obs,
            record_trace: true,
            delivery: DeliveryModel::Routed,
            ..SimConfig::default()
        };
        // One thread per shard so barrier waits attribute to every
        // shard, and routed delivery so the transit phase runs.
        let mut sim = ShardedSimulation::new(
            hyperspace::topology::Torus::new_2d(6, 6),
            SeededScatter,
            cfg,
            ShardedConfig {
                shards: SHARDS,
                partition: Partition::RoundRobin,
                threads: Some(SHARDS),
            },
        );
        sim.inject(0, (0x55AAu64 << 8) | 23);
        let report = sim.run_to_quiescence().expect("sharded run");
        (
            report.steps,
            sim.snapshot().to_bytes(),
            sim.trace().to_vec(),
        )
    };
    let off = run(ObsHandle::off());
    let (p, handle) = profiled_probe();
    let on = run(handle);
    assert_eq!(on, off, "sharded run diverged under the phase profiler");
    assert_eq!(p.phases().shard_count(), SHARDS, "every shard reported");
    for shard in 0..SHARDS {
        for phase in [
            Phase::Delivery,
            Phase::Exchange,
            Phase::Handler,
            Phase::BarrierWait,
        ] {
            let slot = p.phases().shard(shard).expect("shard slot");
            assert!(
                slot.stat(phase).count() > 0,
                "shard {shard} {phase:?} unattributed"
            );
        }
    }
    let (encodes, _, _) = p.phases().phase_total(Phase::CheckpointEncode);
    assert!(encodes > 0, "snapshot encode unattributed");
    // The final sampled step may legitimately report empty active sets
    // (the run quiesces), so only the invariant is asserted here.
    let (max, mean) = p.phases().load().expect("active-set loads reported");
    assert!(max >= mean, "load signal: max {max} mean {mean}");
}

#[test]
fn sharded_runs_are_identical_with_observation_on_and_off() {
    let run = |obs: ObsHandle| -> (Vec<TraceEvent>, Vec<u64>, u64, Vec<u8>) {
        let cfg = SimConfig {
            obs,
            record_trace: true,
            ..SimConfig::default()
        };
        let mut sim = ShardedSimulation::new(
            hyperspace::topology::Torus::new_2d(6, 6),
            SeededScatter,
            cfg,
            ShardedConfig {
                shards: 4,
                partition: Partition::RoundRobin,
                threads: Some(3),
            },
        );
        sim.inject(0, (0x55AAu64 << 8) | 11);
        let report = sim.run_to_quiescence().expect("sharded run");
        let bytes = sim.snapshot().to_bytes();
        let metrics = sim.metrics();
        (
            sim.trace().to_vec(),
            metrics.delivered_per_node.clone(),
            report.steps,
            bytes,
        )
    };
    let off = run(ObsHandle::off());
    let (p, handle) = probe();
    let on = run(handle);
    assert_eq!(on, off, "sharded run diverged under observation");
    assert_eq!(p.steps(), off.2, "probe saw every sharded step");
    assert!(
        p.phases().phase_total(Phase::BarrierWait).0 > 0,
        "probe timed shard barrier waits"
    );
}

#[test]
fn sharded_stack_reports_are_identical_with_observation_on_and_off() {
    let run = |obs: ObsHandle| {
        let cnf = gen::uf20_91(42);
        let program =
            DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly);
        let mut sim = StackBuilder::new(program)
            .topology(TopologySpec::Torus2D { w: 6, h: 6 })
            .mapper(MapperSpec::RoundRobin)
            .backend(BackendSpec::Sharded {
                shards: 4,
                partition: Partition::Block,
                threads: Some(2),
            })
            .halt_on_root_reply(false)
            .observer(obs)
            .build();
        sim.inject(0, hyperspace::mapping::trigger(SubProblem::root(cnf)));
        let report = sim.run_to_quiescence().expect("sharded SAT run");
        (
            report.steps,
            sim.metrics().total_sent,
            sim.metrics().delivered_per_node.clone(),
        )
    };
    let off = run(ObsHandle::off());
    let (p, handle) = probe();
    let on = run(handle);
    assert_eq!(on, off);
    assert_eq!(p.steps(), off.0);
}

#[test]
fn portfolio_reports_are_identical_with_observation_on_and_off() {
    let cnf = gen::random_ksat(7, 8, 36, 3);
    let spec = PortfolioSpec::diversified_sat(3);
    let race = |obs: ObsHandle| -> PortfolioReport {
        PortfolioRunner::new(spec.clone())
            .topology(TopologySpec::Torus2D { w: 4, h: 4 })
            .mapper(MapperSpec::RoundRobin)
            .threads(2)
            .observer(obs)
            .run_sat(&cnf)
    };
    let off = race(ObsHandle::off());
    let (p, handle) = probe();
    let on = race(handle);
    assert_eq!(on, off, "portfolio report diverged under observation");
    assert!(p.epoch() > 0, "probe saw the race's epochs");
}

#[test]
fn service_results_match_an_unobserved_direct_run() {
    use hyperspace::service::{JobKind, JobSpec, SolverService};

    // The service wires a probe into every job it executes; the summary
    // it returns must match a direct, completely unobserved stack run.
    let cnf = gen::uf20_91(5);
    let direct = StackBuilder::new(
        DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly),
    )
    .topology(TopologySpec::Torus2D { w: 6, h: 6 })
    .mapper(MapperSpec::LeastBusy {
        status_period: None,
    })
    .run(SubProblem::root(cnf.clone()), 0);

    let service = SolverService::with_workers(2);
    let observer = service.observe();
    let result = service
        .submit(
            JobSpec::new(JobKind::sat_with(
                cnf,
                Heuristic::FirstUnassigned,
                SimplifyMode::SplitOnly,
            ))
            .topology(TopologySpec::Torus2D { w: 6, h: 6 })
            .mapper(MapperSpec::LeastBusy {
                status_period: None,
            }),
        )
        .wait();
    let summary = result.outcome.summary().expect("completed");
    assert_eq!(summary.steps, direct.steps);
    assert_eq!(summary.computation_time, direct.computation_time);
    assert_eq!(summary.total_sent, direct.metrics.total_sent);
    assert_eq!(
        summary.result.as_deref(),
        direct.result.as_ref().map(|v| format!("{v:?}")).as_deref()
    );
    assert_eq!(observer.total_steps(), direct.steps);
}
