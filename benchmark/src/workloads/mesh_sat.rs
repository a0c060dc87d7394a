//! `mesh_sat`: the paper's Figure 4 point scaled up from uf20. One op is
//! one `StackBuilder::run` of a DPLL solve on a 14x14 torus with the
//! least-busy mapper, the sequential engine and the paper's baseline
//! solver (first-unassigned branching, split-only, drained to quiescence
//! so the whole speculative tree is expanded).

use std::sync::Arc;
use std::time::Instant;

use hyperspace_core::{BackendSpec, MapperSpec, ObjectiveSpec, PruneSpec, TopologySpec};
use hyperspace_obs::JobProbe;
use hyperspace_recursion::eval_local;
use hyperspace_sat::{
    check_model, gen, Cnf, DpllProgram, Heuristic, SimplifyMode, SubProblem, Verdict,
};
use hyperspace_sim::{ObsHandle, RunOutcome};

use super::stack::{spans_json, stack_layers, Run, StackCfg, TracedTotals};
use crate::harness::{Layers, Sample, TraceCtx, TraceReport, Workload};
use crate::host::HostGauge;
use crate::pools;
use crate::probes::StackSpans;
use crate::stats::Rng;

const SUITE: usize = 20;

pub struct MeshSat {
    cfg: StackCfg,
    suite: Vec<Cnf>,
}

pub fn program() -> DpllProgram {
    DpllProgram::new(Heuristic::FirstUnassigned).with_mode(SimplifyMode::SplitOnly)
}

pub fn config() -> StackCfg {
    StackCfg {
        topology: TopologySpec::Torus2D { w: 14, h: 14 },
        mapper: MapperSpec::LeastBusy {
            status_period: None,
        },
        backend: BackendSpec::Sequential,
        objective: ObjectiveSpec::Enumerate,
        prune: PruneSpec::Off,
        drain: true,
    }
}

/// The 30-variable formula of pool seed `s`.
pub fn formula(s: u64) -> Cnf {
    gen::satisfiable_ksat(s, 30, 136, 3)
}

/// The oracle: the run drained, and its model satisfies the formula.
fn solved(cnf: &Cnf, run: &Run<Verdict>) -> bool {
    run.outcome == RunOutcome::Quiescent
        && matches!(&run.result, Some(Verdict::Sat(model)) if check_model(cnf, model))
}

impl MeshSat {
    pub fn new(seed: u64) -> MeshSat {
        let suite = Rng::new(seed)
            .draw(pools::MESH_SAT, SUITE)
            .into_iter()
            .map(formula)
            .collect();
        MeshSat {
            cfg: config(),
            suite,
        }
    }

    /// One pass with `obs` attached to every run; the unit is a layer-4
    /// activation.
    fn observed_pass(&self, obs: &ObsHandle, host: &mut HostGauge, out: &mut Vec<Sample>) {
        for cnf in &self.suite {
            let root = SubProblem::root(cnf.clone());
            let mark = host.mark();
            let run = self.cfg.run(program(), root, obs.clone());
            let (latency_ns, quiet_ns) = host.finish(&mark);
            out.push(Sample {
                latency_ns,
                quiet_ns,
                units: run.counters.activations,
                steps: run.counters.steps,
                ok: solved(cnf, &run),
            });
        }
    }
}

impl Workload for MeshSat {
    fn pass(&mut self, host: &mut HostGauge, out: &mut Vec<Sample>) {
        self.observed_pass(&ObsHandle::off(), host, out);
    }

    fn trace(&mut self, ctx: &TraceCtx<'_>) -> TraceReport {
        let spans = Arc::new(StackSpans::default());
        let mut totals = TracedTotals::default();
        let mut failed = 0;
        let mut pass_s = Vec::new();
        for _ in 0..2 {
            let started = Instant::now();
            for (cnf, reference) in self.suite.iter().zip(ctx.reference) {
                let root = SubProblem::root(cnf.clone());
                let run = self.cfg.run_traced(program(), root, &spans, &mut totals);
                let same = run.counters.activations == reference.units
                    && run.counters.steps == reference.steps;
                failed += usize::from(!same || !solved(cnf, &run));
            }
            pass_s.push(started.elapsed().as_secs_f64());
        }
        let mut layers: Layers = Vec::new();
        stack_layers(&spans, &totals, 1, "sat", &mut layers);
        layers.push(("topology.build_ms".into(), self.cfg.topology_build_ms()));
        layers.push(("core.build_us_per_op".into(), self.cfg.build_us(program)));
        layers.push(("trace_overhead_frac".into(), ctx.overhead(&pass_s)));

        // The zero-stack floor: the same program on the same suite,
        // evaluated depth first on one core with no mesh under it.
        let started = Instant::now();
        for cnf in &self.suite {
            let verdict = eval_local(&program(), SubProblem::root(cnf.clone()));
            failed += usize::from(!verdict.is_sat());
        }
        layers.push(("sat.local_solve_s".into(), started.elapsed().as_secs_f64()));

        // Observability overhead: the same pass with a default-period
        // probe attached, against this process's bare passes.
        let probe = Arc::new(JobProbe::new(0, "mesh_sat", None));
        let mut observed = Vec::new();
        let started = Instant::now();
        self.observed_pass(
            &ObsHandle::new(probe.clone()),
            &mut HostGauge::off(),
            &mut observed,
        );
        let observed_s = started.elapsed().as_secs_f64();
        failed += ctx.failures(&observed);
        layers.push((
            "obs.overhead_frac".into(),
            observed_s / ctx.untraced_pass_s - 1.0,
        ));

        TraceReport {
            layers,
            attempted: 4 * self.suite.len(),
            failed,
            detail: spans_json(&spans),
        }
    }
}
