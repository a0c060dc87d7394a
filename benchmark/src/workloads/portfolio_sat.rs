//! `portfolio_sat`: the portfolio layer. One op is one
//! `PortfolioRunner::run_sat` race of `diversified_sat(4)` (epoch 64) on
//! two driver threads over 6x6 tori, on satisfiable 40-variable
//! formulas. The solving is a few dozen steps; assembling four member
//! machines, the epoch barrier and cancelling the losers are the cost.

use std::sync::Arc;
use std::time::Instant;

use hyperspace_core::{PortfolioSpec, TopologySpec};
use hyperspace_obs::{JobProbe, JsonValue};
use hyperspace_portfolio::{PortfolioReport, PortfolioRunner};
use hyperspace_sat::{check_model, gen, Cnf};
use hyperspace_sim::ObsHandle;

use crate::harness::{Layers, Sample, TraceCtx, TraceReport, Workload};
use crate::host::HostGauge;
use crate::pools;
use crate::spec::THREADS;
use crate::stats::Rng;

const SUITE: usize = 20;

pub struct PortfolioSat {
    suite: Vec<Cnf>,
}

/// The 40-variable formula of pool seed `s`.
pub fn formula(s: u64) -> Cnf {
    gen::satisfiable_ksat(s, 40, 182, 3)
}

pub fn spec() -> PortfolioSpec {
    PortfolioSpec::diversified_sat(4).epoch(64)
}

pub fn runner(spec: PortfolioSpec, obs: ObsHandle) -> PortfolioRunner {
    PortfolioRunner::new(spec)
        .threads(THREADS)
        .topology(TopologySpec::Torus2D { w: 6, h: 6 })
        .observer(obs)
}

/// The model inside a summary's `Debug`-rendered `Sat([true, false, ..])`.
pub fn parse_model(rendered: &str) -> Option<Vec<bool>> {
    let inner = rendered.strip_prefix("Sat([")?.strip_suffix("])")?;
    inner
        .split(", ")
        .map(|tok| match tok {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        })
        .collect()
}

/// The oracle: some member answered, and its model satisfies the formula.
fn solved(cnf: &Cnf, report: &PortfolioReport) -> bool {
    report
        .winner_summary()
        .and_then(|s| s.result.as_deref())
        .and_then(parse_model)
        .is_some_and(|model| check_model(cnf, &model))
}

impl PortfolioSat {
    pub fn new(seed: u64) -> PortfolioSat {
        let suite = Rng::new(seed)
            .draw(pools::PORTFOLIO_SAT, SUITE)
            .into_iter()
            .map(formula)
            .collect();
        PortfolioSat { suite }
    }

    /// One pass of races under `runner`. The unit is an expanded node
    /// (all members); the steps are the winner's `finish_units`.
    fn race_pass(
        &self,
        runner: &PortfolioRunner,
        host: &mut HostGauge,
        out: &mut Vec<Sample>,
    ) -> Vec<PortfolioReport> {
        self.suite
            .iter()
            .map(|cnf| {
                let mark = host.mark();
                let report = runner.run_sat(cnf);
                let (latency_ns, quiet_ns) = host.finish(&mark);
                out.push(Sample {
                    latency_ns,
                    quiet_ns,
                    units: report.total_expanded(),
                    steps: report
                        .winner
                        .and_then(|w| report.members[w].finish_units)
                        .unwrap_or(0),
                    ok: solved(cnf, &report),
                });
                report
            })
            .collect()
    }
}

impl Workload for PortfolioSat {
    fn pass(&mut self, host: &mut HostGauge, out: &mut Vec<Sample>) {
        self.race_pass(&runner(spec(), ObsHandle::off()), host, out);
    }

    fn trace(&mut self, ctx: &TraceCtx<'_>) -> TraceReport {
        // The portfolio's inside is not reachable through public traits;
        // its traced pass is the race with an epoch observer attached,
        // and its layer numbers come from the reports.
        let probe = Arc::new(JobProbe::new(0, "portfolio_sat", None));
        let observed = runner(spec(), ObsHandle::new(probe.clone()));
        let mut traced = Vec::new();
        let mut reports = Vec::new();
        let mut pass_s = Vec::new();
        for _ in 0..2 {
            let started = Instant::now();
            reports.extend(self.race_pass(&observed, &mut HostGauge::off(), &mut traced));
            pass_s.push(started.elapsed().as_secs_f64());
        }
        let mut failed = ctx.failures(&traced);
        let mut attempted = traced.len();

        // Each member alone over the same suite: what the best single
        // strategy would have cost, in wall time per pass.
        let mut solo_s = Vec::new();
        for member in spec().members {
            let solo = runner(PortfolioSpec::new(vec![member]).epoch(64), ObsHandle::off());
            let mut samples = Vec::new();
            let started = Instant::now();
            self.race_pass(&solo, &mut HostGauge::off(), &mut samples);
            solo_s.push(started.elapsed().as_secs_f64());
            failed += samples.iter().filter(|s| !s.ok).count();
            attempted += samples.len();
        }
        let best_solo_s = solo_s.iter().copied().fold(f64::INFINITY, f64::min);

        let races = reports.len() as f64;
        let sum = |f: fn(&PortfolioReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
        let nodes = sum(PortfolioReport::total_expanded);
        let race_s: f64 = traced.iter().map(|s| s.latency_ns as f64 / 1e9).sum();
        let layers: Layers = vec![
            (
                "portfolio.epochs_per_race".into(),
                sum(|r| r.epochs) / races,
            ),
            ("portfolio.nodes_per_race".into(), nodes / races),
            ("portfolio.clauses_shared".into(), sum(|r| r.clauses_shared)),
            (
                "portfolio.clauses_imported".into(),
                sum(|r| r.clauses_imported),
            ),
            ("portfolio.wall_us_per_node".into(), race_s * 1e6 / nodes),
            (
                "portfolio.race_over_best_solo".into(),
                ctx.untraced_pass_s / best_solo_s,
            ),
            ("trace_overhead_frac".into(), ctx.overhead(&pass_s)),
        ];
        let winners: Vec<JsonValue> = (0..spec().members.len())
            .map(|id| {
                JsonValue::UInt(reports.iter().filter(|r| r.winner == Some(id)).count() as u64)
            })
            .collect();
        TraceReport {
            layers,
            attempted,
            failed,
            detail: JsonValue::object([
                ("races", JsonValue::UInt(reports.len() as u64)),
                ("wins_by_member", JsonValue::Array(winners)),
                (
                    "solo_pass_s",
                    JsonValue::Array(solo_s.into_iter().map(JsonValue::Float).collect()),
                ),
                ("epochs_observed", JsonValue::UInt(probe.epoch())),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_parse_from_the_debug_rendering() {
        let rendered = format!(
            "{:?}",
            hyperspace_sat::Verdict::Sat(vec![true, false, true])
        );
        assert_eq!(parse_model(&rendered), Some(vec![true, false, true]));
        assert_eq!(parse_model("Unsat"), None);
        assert_eq!(parse_model("Sat([maybe])"), None);
    }
}
