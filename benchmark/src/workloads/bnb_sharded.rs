//! `bnb_sharded`: branch and bound on the sharded engine. One op is one
//! `StackBuilder::run` on `sharded:2:2` over a 6x6 torus with incumbent
//! pruning: six 14-item knapsacks (maximise) and four 8-city tours
//! (minimise) per pass. About two activations per step, so the barrier
//! and exchange path carries the cost, with `Bound` gossip on top.

use std::sync::Arc;
use std::time::Instant;

use hyperspace_apps::{
    knapsack_reference, seeded_items, tsp_reference, BnbKnapsackProgram, BnbKnapsackTask,
    TspInstance, TspProgram, TspTask,
};
use hyperspace_core::{BackendSpec, MapperSpec, ObjectiveSpec, PruneSpec, TopologySpec};
use hyperspace_sim::{ObsHandle, RunOutcome};

use super::stack::{spans_json, stack_layers, Run, StackCfg, TracedTotals};
use crate::harness::{Layers, Sample, TraceCtx, TraceReport, Workload};
use crate::host::HostGauge;
use crate::pools;
use crate::probes::StackSpans;
use crate::spec::THREADS;
use crate::stats::Rng;

const KNAPSACKS: usize = 6;
const TOURS: usize = 4;
/// Sized so that an op takes 50 to 90 ms at the ~75 us a sharded step
/// costs on the two-core grading machine, and 120 ops fit in the budget.
const KNAPSACK_ITEMS: usize = 14;

pub fn config(objective: ObjectiveSpec, backend: BackendSpec) -> StackCfg {
    StackCfg {
        topology: TopologySpec::Torus2D { w: 6, h: 6 },
        mapper: MapperSpec::LeastBusy {
            status_period: None,
        },
        backend,
        objective,
        prune: PruneSpec::incumbent(),
        drain: false,
    }
}

/// `sharded:2:2`: one shard and one worker thread per core.
pub fn sharded() -> BackendSpec {
    BackendSpec::Sharded {
        shards: THREADS as u32,
        partition: Default::default(),
        threads: Some(THREADS as u32),
    }
}

/// One op: a root problem and its reference optimum.
pub enum Op {
    Knapsack { root: BnbKnapsackTask, optimum: u64 },
    Tour { root: TspTask, optimum: u64 },
}

impl Op {
    /// The knapsack of pool seed `s`: the repository's shared
    /// generator, capacity half the total weight.
    pub fn knapsack(s: u64) -> Op {
        let items = seeded_items(s, KNAPSACK_ITEMS, 40, 100);
        let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
        let root = BnbKnapsackTask::root(items, capacity);
        let optimum = knapsack_reference(&root.items, root.capacity);
        Op::Knapsack { root, optimum }
    }

    /// The 8-city tour of pool seed `s`.
    pub fn tour(s: u64) -> Op {
        let root = TspTask::root(TspInstance::random(s, 8, 100));
        let optimum = tsp_reference(&root.inst);
        Op::Tour { root, optimum }
    }

    fn config(&self, backend: BackendSpec) -> StackCfg {
        match self {
            Op::Knapsack { .. } => config(ObjectiveSpec::Maximise, backend),
            Op::Tour { .. } => config(ObjectiveSpec::Minimise, backend),
        }
    }

    /// The measured path.
    pub fn run(&self, backend: BackendSpec) -> Run<u64> {
        let cfg = self.config(backend);
        match self {
            Op::Knapsack { root, .. } => {
                cfg.run(BnbKnapsackProgram, root.clone(), ObsHandle::off())
            }
            Op::Tour { root, .. } => cfg.run(TspProgram, root.clone(), ObsHandle::off()),
        }
    }

    fn run_traced(&self, spans: &Arc<StackSpans>, totals: &mut TracedTotals) -> Run<u64> {
        let cfg = self.config(sharded());
        match self {
            Op::Knapsack { root, .. } => {
                cfg.run_traced(BnbKnapsackProgram, root.clone(), spans, totals)
            }
            Op::Tour { root, .. } => cfg.run_traced(TspProgram, root.clone(), spans, totals),
        }
    }

    /// The oracle: the run halted on the root reply, and both the folded
    /// result and the best incumbent are the reference optimum.
    fn solved(&self, run: &Run<u64>) -> bool {
        let (Op::Knapsack { optimum, .. } | Op::Tour { optimum, .. }) = self;
        run.outcome == RunOutcome::Halted
            && run.result == Some(*optimum)
            && run.best_incumbent == Some(*optimum as i64)
    }
}

pub struct BnbSharded {
    ops: Vec<Op>,
}

impl BnbSharded {
    pub fn new(seed: u64) -> BnbSharded {
        let mut rng = Rng::new(seed);
        let knapsacks = rng.draw(pools::BNB_KNAPSACK, KNAPSACKS);
        let tours = rng.draw(pools::BNB_TSP, TOURS);
        let mut ops: Vec<Op> = knapsacks
            .into_iter()
            .map(Op::knapsack)
            .chain(tours.into_iter().map(Op::tour))
            .collect();
        rng.shuffle(&mut ops);
        BnbSharded { ops }
    }

    /// One untraced pass on `backend`; the unit is a layer-4 activation.
    fn pass_on(&self, backend: &BackendSpec, host: &mut HostGauge, out: &mut Vec<Sample>) {
        for op in &self.ops {
            let mark = host.mark();
            let run = op.run(backend.clone());
            let (latency_ns, quiet_ns) = host.finish(&mark);
            out.push(Sample {
                latency_ns,
                quiet_ns,
                units: run.counters.activations,
                steps: run.counters.steps,
                ok: op.solved(&run),
            });
        }
    }
}

impl Workload for BnbSharded {
    fn pass(&mut self, host: &mut HostGauge, out: &mut Vec<Sample>) {
        self.pass_on(&sharded(), host, out);
    }

    fn trace(&mut self, ctx: &TraceCtx<'_>) -> TraceReport {
        let spans = Arc::new(StackSpans::default());
        let mut totals = TracedTotals::default();
        let mut failed = 0;
        let mut pass_s = Vec::new();
        for _ in 0..2 {
            let started = Instant::now();
            for (op, reference) in self.ops.iter().zip(ctx.reference) {
                let run = op.run_traced(&spans, &mut totals);
                let same = run.counters.activations == reference.units
                    && run.counters.steps == reference.steps;
                failed += usize::from(!same || !op.solved(&run));
            }
            pass_s.push(started.elapsed().as_secs_f64());
        }
        let cfg = config(ObjectiveSpec::Maximise, sharded());
        let mut layers: Layers = Vec::new();
        stack_layers(&spans, &totals, THREADS, "apps", &mut layers);
        layers.push(("topology.build_ms".into(), cfg.topology_build_ms()));
        layers.push((
            "core.build_us_per_op".into(),
            cfg.build_us(|| BnbKnapsackProgram),
        ));
        layers.push(("trace_overhead_frac".into(), ctx.overhead(&pass_s)));

        // The single-thread baseline: the same ops on the sequential
        // engine. Backends are bit-identical, so the counters must match.
        let mut seq = Vec::new();
        let started = Instant::now();
        self.pass_on(&BackendSpec::Sequential, &mut HostGauge::off(), &mut seq);
        let seq_s = started.elapsed().as_secs_f64();
        failed += ctx.failures(&seq);
        layers.push(("sim.sharded_over_seq".into(), seq_s / ctx.untraced_pass_s));

        TraceReport {
            layers,
            attempted: 3 * self.ops.len(),
            failed,
            detail: spans_json(&spans),
        }
    }
}
