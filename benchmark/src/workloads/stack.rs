//! What the two mesh workloads share: one stack configuration run either
//! through `StackBuilder::run` (the measured path) or as a hand-assembled
//! copy with a probe at every layer boundary (the traced path), and the
//! layer-metric arithmetic over the probes' spans.

use std::sync::Arc;
use std::time::Instant;

use hyperspace_core::{
    BackendSpec, MapperSpec, ObjectiveSpec, PruneSpec, StackBuilder, TopologySpec,
};
use hyperspace_mapping::{trigger, MapConfig, MapState, Mapper, MappingHost};
use hyperspace_obs::{JobProbe, JsonValue, Phase};
use hyperspace_recursion::{BnbMode, Objective, RecProgram, RecursionHost};
use hyperspace_sim::{ObsHandle, RunOutcome, ShardedSimulation, SimConfig, Simulation, Topology};

use crate::harness::Layers;
use crate::probes::{Span, StackSpans, TimedHandler, TimedMapperFactory, TimedNode, TimedProgram};
use crate::stats::median_secs;

/// Every run is rooted at node 0.
const ROOT: u32 = 0;

#[derive(Clone)]
pub struct StackCfg {
    pub topology: TopologySpec,
    pub mapper: MapperSpec,
    pub backend: BackendSpec,
    pub objective: ObjectiveSpec,
    pub prune: PruneSpec,
    /// Drain to quiescence instead of halting on the root reply.
    pub drain: bool,
}

/// The simulated counters a run is identified by. A traced run must
/// reproduce the untraced run's exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub steps: u64,
    pub delivered: u64,
    pub activations: u64,
    pub pruned: u64,
    pub bounds_in: u64,
}

impl Counters {
    pub fn add(&mut self, other: &Counters) {
        self.steps += other.steps;
        self.delivered += other.delivered;
        self.activations += other.activations;
        self.pruned += other.pruned;
        self.bounds_in += other.bounds_in;
    }
}

pub struct Run<Out> {
    pub result: Option<Out>,
    pub best_incumbent: Option<i64>,
    pub outcome: RunOutcome,
    pub counters: Counters,
}

/// Wall time and thread-seconds of waiting of a set of traced runs.
#[derive(Default)]
pub struct TracedTotals {
    pub counters: Counters,
    pub run_s: f64,
    pub barrier_wait_s: f64,
    pub exchange_s: f64,
}

type TracedHandler<P> = TimedHandler<RecursionHost<TimedProgram<P>>>;

/// Folds the traced stack's final node states the way
/// `hyperspace_core::summarise` folds the plain stack's.
fn fold<'a, P, M>(
    states: impl Iterator<Item = &'a MapState<TracedHandler<P>, M>>,
    objective: Option<Objective>,
) -> (Option<P::Out>, Option<i64>, Counters)
where
    P: RecProgram,
    M: Mapper + 'a,
{
    let mut result = None;
    let mut best: Option<i64> = None;
    let mut counters = Counters::default();
    for (node, st) in states.enumerate() {
        counters.activations += st.app.stats.started;
        counters.pruned += st.app.stats.pruned;
        counters.bounds_in += st.bounds_in;
        if let (Some(objective), Some(inc)) = (objective, st.app.incumbent()) {
            best = Some(best.map_or(inc, |b| objective.better(b, inc)));
        }
        if node as u32 == ROOT {
            result = st.root_result().cloned();
        }
    }
    (result, best, counters)
}

impl StackCfg {
    pub fn builder<P: RecProgram>(&self, program: P) -> StackBuilder<P> {
        StackBuilder::new(program)
            .topology(self.topology.clone())
            .mapper(self.mapper.clone())
            .backend(self.backend.clone())
            .objective(self.objective)
            .prune(self.prune)
            .halt_on_root_reply(!self.drain)
    }

    /// The measured path: one `StackBuilder::run`.
    pub fn run<P: RecProgram>(&self, program: P, arg: P::Arg, obs: ObsHandle) -> Run<P::Out> {
        let report = self.builder(program).observer(obs).run(arg, ROOT);
        Run {
            result: report.result,
            best_incumbent: report.best_incumbent,
            outcome: report.outcome,
            counters: Counters {
                steps: report.steps,
                delivered: report.metrics.total_delivered,
                activations: report.rec_totals.started,
                pruned: report.rec_totals.pruned,
                bounds_in: report.bounds_total,
            },
        }
    }

    /// The traced path: the same stack assembled by hand, through public
    /// constructors only, with a probe at each boundary. Adds this run's
    /// wall time and waits to `totals`.
    pub fn run_traced<P: RecProgram>(
        &self,
        program: P,
        arg: P::Arg,
        spans: &Arc<StackSpans>,
        totals: &mut TracedTotals,
    ) -> Run<P::Out> {
        let mut rec = RecursionHost::new(TimedProgram::new(program, Arc::clone(spans)));
        let objective = self.objective.objective();
        if let Some(objective) = objective {
            rec = rec.with_bnb(BnbMode {
                objective,
                prune: self.prune.is_enabled(),
                initial_incumbent: self.prune.initial_incumbent(),
            });
        }
        let host = MappingHost::new(
            TimedHandler::new(rec, Arc::clone(spans)),
            TimedMapperFactory::new(self.mapper.factory(), Arc::clone(spans)),
            MapConfig {
                status_period: self.mapper.status_period(),
                halt_on_root_reply: !self.drain,
            },
        );
        let node = TimedNode::new(host, Arc::clone(spans));
        let probe = Arc::new(JobProbe::new(0, "traced", None));
        let sim_cfg = SimConfig {
            tick_every: self.mapper.status_period(),
            // Every step's phases, not a sample: the totals are compared
            // with wall time.
            obs: ObsHandle::new(probe.clone()).with_phase_period(1),
            ..SimConfig::default()
        };
        let topo = self.topology.build();
        let started;
        let (outcome, steps, delivered, folded) = match self.backend.sharded_config() {
            Some(scfg) => {
                let mut sim = ShardedSimulation::new(topo, node, sim_cfg, scfg);
                sim.inject(ROOT, trigger(arg));
                started = Instant::now();
                let report = sim.run_to_quiescence().expect("unbounded queues");
                totals.run_s += started.elapsed().as_secs_f64();
                let nodes = sim.topology().num_nodes() as u32;
                let folded = fold::<P, _>((0..nodes).map(|n| sim.state(n)), objective);
                (
                    report.outcome,
                    report.steps,
                    sim.metrics().total_delivered,
                    folded,
                )
            }
            None => {
                let mut sim = Simulation::new(topo, node, sim_cfg);
                sim.inject(ROOT, trigger(arg));
                started = Instant::now();
                let report = sim.run_to_quiescence().expect("unbounded queues");
                totals.run_s += started.elapsed().as_secs_f64();
                let folded = fold::<P, _>(sim.states().iter(), objective);
                (
                    report.outcome,
                    report.steps,
                    sim.metrics().total_delivered,
                    folded,
                )
            }
        };
        let phases = probe.phases();
        totals.barrier_wait_s += phases.phase_total(Phase::BarrierWait).1 as f64 / 1e9;
        totals.exchange_s += phases.phase_total(Phase::Exchange).1 as f64 / 1e9;
        let (result, best_incumbent, mut counters) = folded;
        counters.steps = steps;
        counters.delivered = delivered;
        totals.counters.add(&counters);
        Run {
            result,
            best_incumbent,
            outcome,
            counters,
        }
    }

    /// Median milliseconds of building the topology alone.
    pub fn topology_build_ms(&self) -> f64 {
        median_secs(9, || self.topology.build()) * 1e3
    }

    /// Median microseconds of assembling the whole machine (topology,
    /// node states, queues) with `StackBuilder::build`, unrun.
    pub fn build_us<P: RecProgram>(&self, make: impl Fn() -> P) -> f64 {
        median_secs(9, || self.builder(make()).build()) * 1e6
    }
}

fn per(total_s: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_s * 1e9 / count as f64
    }
}

/// The sim, mapping, recursion and logic rows of the layer table.
/// `logic` names the layer-5 crate the program came from (`sat`/`apps`).
pub fn stack_layers(
    spans: &StackSpans,
    totals: &TracedTotals,
    threads: usize,
    logic: &str,
    out: &mut Layers,
) {
    let c = &totals.counters;
    let own = spans.self_times();
    // Thread-seconds the engine spent outside handlers: delivery,
    // exchange, barrier waits and, on the sharded engine, idling.
    let sim_self = totals.run_s * threads as f64 - spans.node.secs();
    out.push(("sim.steps".into(), c.steps as f64));
    out.push(("sim.delivered".into(), c.delivered as f64));
    out.push(("sim.self_s".into(), sim_self));
    out.push((
        "sim.self_ns_per_delivered".into(),
        per(sim_self, c.delivered),
    ));
    out.push(("sim.barrier_wait_s".into(), totals.barrier_wait_s));
    out.push(("sim.exchange_s".into(), totals.exchange_s));
    out.push(("mapping.msgs".into(), spans.node.count() as f64));
    out.push(("mapping.self_s".into(), own.mapping));
    out.push((
        "mapping.self_ns_per_msg".into(),
        per(own.mapping, spans.node.count()),
    ));
    out.push(("mapping.choose_calls".into(), spans.choose.count() as f64));
    out.push(("mapping.choose_s".into(), spans.choose.secs()));
    out.push(("mapping.bound_msgs".into(), c.bounds_in as f64));
    out.push(("recursion.activations".into(), c.activations as f64));
    out.push(("recursion.pruned".into(), c.pruned as f64));
    let considered = c.activations + c.pruned;
    out.push((
        "recursion.prune_frac".into(),
        if considered == 0 {
            0.0
        } else {
            c.pruned as f64 / considered as f64
        },
    ));
    out.push(("recursion.self_s".into(), own.recursion));
    out.push((
        "recursion.self_ns_per_activation".into(),
        per(own.recursion, c.activations),
    ));
    out.push((format!("{logic}.logic_calls"), spans.logic.count() as f64));
    out.push((format!("{logic}.logic_s"), own.logic));
    out.push((
        format!("{logic}.logic_ns_per_call"),
        per(own.logic, spans.logic.count()),
    ));
    if logic == "apps" {
        out.push(("apps.bound_calls".into(), spans.bound.count() as f64));
    }
}

/// The raw spans, for the trace file.
pub fn spans_json(spans: &StackSpans) -> JsonValue {
    let span = |s: &Span| {
        JsonValue::object([
            ("count", JsonValue::UInt(s.count())),
            ("total_s", JsonValue::Float(s.secs())),
        ])
    };
    let own = spans.self_times();
    JsonValue::object([
        ("node", span(&spans.node)),
        ("handler", span(&spans.handler)),
        ("ctx", span(&spans.ctx)),
        ("choose", span(&spans.choose)),
        ("logic", span(&spans.logic)),
        ("bound", span(&spans.bound)),
        ("hooks", span(&spans.hooks)),
        (
            "self_s",
            JsonValue::object([
                ("mapping", JsonValue::Float(own.mapping)),
                ("recursion", JsonValue::Float(own.recursion)),
                ("logic", JsonValue::Float(own.logic)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperspace_apps::{seeded_items, BnbKnapsackProgram, BnbKnapsackTask};
    use hyperspace_sat::{gen, DpllProgram, Heuristic, SimplifyMode, SubProblem};

    /// The wrappers are transparent: the hand-assembled traced stack
    /// gives the same answer and the same simulated counters as
    /// `StackBuilder::run`, on both engines.
    #[test]
    fn traced_assembly_matches_stack_builder() {
        let spans = Arc::new(StackSpans::default());
        let mut totals = TracedTotals::default();

        let sat = StackCfg {
            topology: TopologySpec::Torus2D { w: 6, h: 6 },
            mapper: MapperSpec::LeastBusy {
                status_period: None,
            },
            backend: BackendSpec::Sequential,
            objective: ObjectiveSpec::Enumerate,
            prune: PruneSpec::Off,
            drain: true,
        };
        let program =
            || DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly);
        let root = SubProblem::root(gen::uf20_91(5));
        let plain = sat.run(program(), root.clone(), ObsHandle::off());
        let traced = sat.run_traced(program(), root, &spans, &mut totals);
        assert_eq!(traced.counters, plain.counters);
        assert_eq!(traced.result, plain.result);
        assert_eq!(traced.outcome, plain.outcome);
        assert!(plain.counters.activations > 0);
        assert_eq!(spans.node.count(), plain.counters.delivered);

        let bnb = StackCfg {
            backend: "sharded:2:2".parse().unwrap(),
            objective: ObjectiveSpec::Maximise,
            prune: PruneSpec::incumbent(),
            drain: false,
            ..sat
        };
        let items = seeded_items(3, 12, 14, 22);
        let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
        let root = BnbKnapsackTask::root(items, capacity);
        let plain = bnb.run(BnbKnapsackProgram, root.clone(), ObsHandle::off());
        let traced = bnb.run_traced(BnbKnapsackProgram, root, &spans, &mut totals);
        assert_eq!(traced.counters, plain.counters);
        assert_eq!(traced.result, plain.result);
        assert_eq!(traced.best_incumbent, plain.best_incumbent);
        assert!(plain.counters.pruned > 0 && plain.counters.bounds_in > 0);
    }
}
