//! `l1_sparse` and `l1_dense`: the layer-1 engine alone, layers 2-5
//! bypassed, used the two opposite ways. A handful of walkers on a large
//! torus leave almost every inbox empty (the active-set path); one
//! message per node keeps every inbox busy (delivery and queues).

use std::sync::Arc;
use std::time::Instant;

use hyperspace_obs::JsonValue;
use hyperspace_sched::{ProcAddr, ProcCtx, Process, SchedMsg, SchedPolicy, SchedulerHost};
use hyperspace_sim::{InitCtx, NodeId, NodeProgram, Outbox, RunOutcome, SimConfig, Simulation};
use hyperspace_topology::Torus;

use crate::harness::{Layers, Sample, TraceCtx, TraceReport, Workload};
use crate::host::HostGauge;
use crate::probes::{StackSpans, TimedNode};
use crate::stats::{median, median_secs, Rng};

fn mix(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31) ^ v
}

/// A self-sustaining flood: every delivered message is forwarded through
/// a state-chosen port, so the traffic in flight never drains. The same
/// program as the repository's `sparse_stepping` bench.
#[derive(Clone)]
struct ForwardForever;

impl NodeProgram for ForwardForever {
    type Msg = u64;
    type State = u64;

    fn init(&self, node: NodeId, _ctx: &InitCtx) -> u64 {
        mix(node as u64)
    }

    fn on_message(&self, state: &mut u64, msg: u64, ctx: &mut Outbox<'_, u64>) {
        *state = state.wrapping_add(mix(msg));
        let degree = ctx.degree();
        ctx.send_port(*state as usize % degree, msg.wrapping_add(1));
    }
}

pub struct L1 {
    side: u32,
    steps_per_op: u64,
    /// Where each message starts and what it carries.
    injections: Vec<(NodeId, u64)>,
}

/// Ops per pass. A pass starts a fresh simulation, so every pass repeats
/// the first one exactly.
const OPS_PER_PASS: usize = 10;

impl L1 {
    /// 4 walkers on a 48x48 torus, 100k steps per op.
    pub fn sparse(seed: u64) -> L1 {
        let mut rng = Rng::new(seed);
        let nodes: Vec<u64> = (0..48 * 48).collect();
        let injections = rng
            .draw(&nodes, 4)
            .into_iter()
            .map(|n| (n as NodeId, rng.next_u64() | 0x100))
            .collect();
        L1 {
            side: 48,
            steps_per_op: 100_000,
            injections,
        }
    }

    /// One message on every node of a 14x14 torus, 5k steps per op.
    pub fn dense(seed: u64) -> L1 {
        let mut rng = Rng::new(seed);
        let injections = (0..14 * 14)
            .map(|n| (n as NodeId, rng.next_u64() | 0x100))
            .collect();
        L1 {
            side: 14,
            steps_per_op: 5_000,
            injections,
        }
    }

    fn torus(&self) -> Torus {
        Torus::new_2d(self.side, self.side)
    }

    /// One pass over a fresh simulation of `program`: each op raises the
    /// step cap and runs to it. The unit is a delivered envelope.
    fn run_pass<N: NodeProgram<Msg = u64>>(
        &self,
        program: N,
        host: &mut HostGauge,
        out: &mut Vec<Sample>,
    ) {
        // Without the per-step queue series: at a million steps per pass
        // they are 16 MB the kernel faults in afresh every pass, which on a
        // virtual machine made the run-to-run spread four times wider and
        // measures the host's memory, not the step loop.
        let cfg = SimConfig {
            record_queue_series: false,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(self.torus(), program, cfg);
        for &(node, payload) in &self.injections {
            sim.inject(node, payload);
        }
        let messages = self.injections.len() as u64;
        for op in 1..=OPS_PER_PASS as u64 {
            let before = sim.metrics().total_delivered;
            let cap = op * self.steps_per_op;
            sim.set_max_steps(cap);
            let mark = host.mark();
            let report = sim.run_to_quiescence().expect("unbounded queues");
            let (latency_ns, quiet_ns) = host.finish(&mark);
            let delivered = sim.metrics().total_delivered - before;
            // Messages that meet in one inbox are popped over several
            // steps, so the delivered count is bounded, not fixed.
            let ok = report.outcome == RunOutcome::MaxSteps
                && report.steps == cap
                && (self.steps_per_op..=self.steps_per_op * messages).contains(&delivered);
            out.push(Sample {
                latency_ns,
                units: delivered,
                steps: self.steps_per_op,
                ok,
                quiet_ns,
            });
        }
    }
}

impl Workload for L1 {
    fn pass(&mut self, host: &mut HostGauge, out: &mut Vec<Sample>) {
        self.run_pass(ForwardForever, host, out);
    }

    fn trace(&mut self, ctx: &TraceCtx<'_>) -> TraceReport {
        let spans = Arc::new(StackSpans::default());
        let mut traced = Vec::new();
        let mut pass_s = Vec::new();
        for _ in 0..2 {
            let started = Instant::now();
            self.run_pass(
                TimedNode::new(ForwardForever, Arc::clone(&spans)),
                &mut HostGauge::off(),
                &mut traced,
            );
            pass_s.push(started.elapsed().as_secs_f64());
        }
        let failed = ctx.failures(&traced);
        let run_s: f64 = traced.iter().map(|s| s.latency_ns as f64 / 1e9).sum();
        let delivered: u64 = traced.iter().map(|s| s.units).sum();
        let steps: u64 = traced.iter().map(|s| s.steps).sum();
        let sim_self = run_s - spans.node.secs();
        let mut layers: Layers = vec![
            (
                "topology.build_ms".into(),
                median_secs(9, || self.torus()) * 1e3,
            ),
            ("sim.steps".into(), steps as f64),
            ("sim.delivered".into(), delivered as f64),
            ("sim.self_s".into(), sim_self),
            (
                "sim.self_ns_per_delivered".into(),
                sim_self * 1e9 / delivered as f64,
            ),
            ("trace_overhead_frac".into(), ctx.overhead(&pass_s)),
        ];
        if self.side == 14 {
            layers.push(("sched.dispatch_ns".into(), sched_dispatch_ns()));
        }
        TraceReport {
            layers,
            attempted: traced.len(),
            failed,
            detail: JsonValue::object([(
                "node",
                JsonValue::object([
                    ("count", JsonValue::UInt(spans.node.count())),
                    ("total_s", JsonValue::Float(spans.node.secs())),
                ]),
            )]),
        }
    }
}

/// The same forwarding flood written as a layer-2 process.
struct Forwarder(u64);

impl Process for Forwarder {
    type Msg = u64;

    fn on_message(&mut self, msg: u64, ctx: &mut ProcCtx<'_, '_, '_, Self>) {
        self.0 = self.0.wrapping_add(mix(msg));
        let port = self.0 as usize % ctx.degree();
        ctx.send(ProcAddr::new(ctx.neighbour(port), 0), msg.wrapping_add(1));
    }
}

/// Wall nanoseconds per process activation of a one-second dense flood
/// through `SchedulerHost` on the `l1_dense` machine. Its distance from
/// that workload's `host_ns_per_unit` is the layer-2 tax. No production
/// stack pays it: `StackBuilder` mounts the mapping host directly on
/// layer 1, so this number predicts no end-to-end metric.
fn sched_dispatch_ns() -> f64 {
    let host = SchedulerHost::new(
        |node: NodeId, _: &InitCtx| vec![Forwarder(mix(node as u64))],
        SchedPolicy::Fifo,
    );
    let mut sim = Simulation::new(Torus::new_2d(14, 14), host, SimConfig::default());
    for node in 0..14 * 14 {
        sim.inject(
            node,
            SchedMsg {
                src_proc: 0,
                dst_proc: 0,
                inner: mix(node as u64) | 0x100,
            },
        );
    }
    let started = Instant::now();
    let mut cap = 0;
    while started.elapsed().as_secs_f64() < 1.0 {
        cap += 1_000;
        sim.set_max_steps(cap);
        sim.run_to_quiescence().expect("unbounded queues");
    }
    let wall = started.elapsed().as_secs_f64();
    let serviced: u64 = sim.states().iter().map(|s| s.serviced).sum();
    wall * 1e9 / serviced as f64
}

/// Snapshot and restore of a mid-flood `l1_dense` machine: encode time,
/// decode time and the canonical byte size, medians of nine.
pub fn checkpoint_probe() -> Layers {
    let topo = || Torus::new_2d(14, 14);
    let mut sim = Simulation::new(topo(), ForwardForever, SimConfig::default());
    for node in 0..14 * 14 {
        sim.inject(node, mix(node as u64) | 0x100);
    }
    sim.set_max_steps(1_000);
    sim.run_to_quiescence().expect("unbounded queues");
    let mut encode_ms = Vec::new();
    let mut restore_ms = Vec::new();
    let mut bytes = 0;
    for _ in 0..9 {
        let started = Instant::now();
        let encoded = sim.snapshot().to_bytes();
        encode_ms.push(started.elapsed().as_secs_f64() * 1e3);
        bytes = encoded.len();
        let started = Instant::now();
        let ckpt = hyperspace_sim::SimCheckpoint::from_bytes(&encoded).expect("own bytes decode");
        let restored = Simulation::restore(topo(), ForwardForever, SimConfig::default(), &ckpt)
            .expect("own checkpoint restores");
        restore_ms.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(restored.current_step(), sim.current_step());
    }
    vec![
        ("sim.checkpoint_encode_ms".into(), median(&encode_ms)),
        ("sim.checkpoint_restore_ms".into(), median(&restore_ms)),
        ("sim.checkpoint_bytes".into(), bytes as f64),
    ]
}
