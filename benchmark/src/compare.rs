//! `compare BASE.json NEW.json`: applies the bounds of [`crate::spec`]
//! to two `result.json` files, one row per (workload, end-to-end metric).

use std::process::ExitCode;

use hyperspace_obs::JsonValue;

use crate::spec::{Better, Metric, END_TO_END, WORKLOADS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound (or
    /// unknown, for want of runs), so the medians cannot tell a change of
    /// that size from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Runs a result needs before its quartiles say anything about spread.
const MIN_RUNS: u64 = 3;

/// One side of a comparison: the median of a metric over a result's runs
/// and the interquartile spread as a share of it. The spread of fewer
/// than [`MIN_RUNS`] runs is unknown, which reads as infinite.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub median: f64,
    pub spread: f64,
}

pub fn verdict(metric: &Metric, base: Side, new: Side) -> Verdict {
    if metric.bound > 0.0 && base.spread.max(new.spread) > metric.bound {
        return Verdict::Unresolved;
    }
    // Positive when `new` is worse, as a share of the base median; an
    // absolute difference for the exact (bound 0) metric, whose healthy
    // base is zero.
    let scale = if metric.bound > 0.0 && base.median != 0.0 {
        base.median.abs()
    } else {
        1.0
    };
    let worse = match metric.better {
        Better::Lower => (new.median - base.median) / scale,
        Better::Higher => (base.median - new.median) / scale,
    };
    if worse > metric.bound {
        Verdict::Regressed
    } else if worse < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The configuration two results must share: everything in `config` but
/// the number of runs, which only sets how well the spread is known.
fn comparable_config(doc: &JsonValue) -> Vec<(String, JsonValue)> {
    match doc.get("config") {
        Some(JsonValue::Object(fields)) => fields
            .iter()
            .filter(|(k, _)| k != "runs")
            .cloned()
            .collect(),
        _ => Vec::new(),
    }
}

fn side(doc: &JsonValue, workload: &str, metric: &str) -> Result<Side, String> {
    let summary = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("summary"))
        .and_then(|s| s.get(metric))
        .ok_or_else(|| format!("result lacks {workload}/{metric}"))?;
    let num = |key: &str| {
        summary
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{workload}/{metric} lacks {key}"))
    };
    let median = num("median")?;
    let spread = if (num("n")? as u64) < MIN_RUNS {
        f64::INFINITY
    } else if median == 0.0 {
        0.0
    } else {
        (num("q3")? - num("q1")?) / median.abs()
    };
    Ok(Side { median, spread })
}

pub fn run(files: &[String]) -> ExitCode {
    let [base_path, new_path] = files else {
        eprintln!("usage: compare BASE.json NEW.json");
        return ExitCode::from(2);
    };
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (base_cfg, new_cfg) = (comparable_config(&base), comparable_config(&new));
    if base_cfg.is_empty() || base_cfg != new_cfg {
        eprintln!(
            "refusing to compare: seed, budget, thread count or workload set differ\n  base: {}\n  new:  {}",
            JsonValue::Object(base_cfg),
            JsonValue::Object(new_cfg)
        );
        return ExitCode::from(2);
    }
    println!(
        "{:<14} {:<20} {:>14} {:>14}  {:<24} verdict",
        "workload", "metric", "base", "new", "new/base"
    );
    let mut regressed = 0;
    let mut unresolved = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (a, b) = match (side(&base, w.name, m.name), side(&new, w.name, m.name)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let v = verdict(m, a, b);
            regressed += usize::from(v == Verdict::Regressed);
            unresolved += usize::from(v == Verdict::Unresolved);
            let ratio = if a.median == 0.0 {
                "n/a (base is 0)".to_string()
            } else {
                format!("{:.4} of {:.6}", b.median / a.median, a.median)
            };
            println!(
                "{:<14} {:<20} {:>14.6} {:>14.6}  {:<24} {} (bound {} %, spread {:.2} / {:.2} %)",
                w.name,
                m.name,
                a.median,
                b.median,
                ratio,
                v.as_str(),
                m.bound * 100.0,
                a.spread * 100.0,
                b.spread * 100.0
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    if regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    fn steady(median: f64) -> Side {
        Side {
            median,
            spread: 0.01,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let ops = end_to_end("ops_per_s").unwrap(); // higher is better
        let bound = ops.bound;
        assert_eq!(
            verdict(ops, steady(100.0), steady(100.0)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(ops, steady(100.0), steady(100.0 * (1.0 - bound) - 1.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(ops, steady(100.0), steady(100.0 * (1.0 + bound) + 1.0)),
            Verdict::Improved
        );
        let p50 = end_to_end("op_latency_p50_ms").unwrap(); // lower is better
        assert_eq!(
            verdict(p50, steady(10.0), steady(10.0 * (1.0 + p50.bound) + 0.1)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(p50, steady(10.0), steady(10.0 * (1.0 - p50.bound) - 0.1)),
            Verdict::Improved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let ops = end_to_end("ops_per_s").unwrap();
        let noisy = Side {
            median: 100.0,
            spread: ops.bound * 1.5,
        };
        assert_eq!(verdict(ops, noisy, steady(50.0)), Verdict::Unresolved);
        assert_eq!(verdict(ops, steady(100.0), noisy), Verdict::Unresolved);
        // Too few runs to know the spread: the same, but the exact metric
        // needs no spread to call a failure a regression.
        let unknown = |median| Side {
            median,
            spread: f64::INFINITY,
        };
        assert_eq!(
            verdict(ops, steady(100.0), unknown(100.0)),
            Verdict::Unresolved
        );
        let failed = end_to_end("failed_frac").unwrap();
        assert_eq!(
            verdict(failed, unknown(0.0), unknown(0.001)),
            Verdict::Regressed
        );
    }

    #[test]
    fn any_failure_regresses_the_exact_metric() {
        let failed = end_to_end("failed_frac").unwrap();
        let zero = Side {
            median: 0.0,
            spread: 0.0,
        };
        assert_eq!(verdict(failed, zero, zero), Verdict::WithinBound);
        assert_eq!(verdict(failed, zero, steady(0.001)), Verdict::Regressed);
        assert_eq!(verdict(failed, steady(0.001), zero), Verdict::Improved);
    }
}
