//! The measuring loop every workload runs under, in one process per
//! workload: set up with one discarded warm-up pass (several times, for a
//! steady `setup_s`), then whole timed passes over the workload's fixed
//! op list until the budget is spent. The traced variant runs the
//! same passes with the layer probes attached.

use std::time::{Duration, Instant};

use hyperspace_obs::JsonValue;

use crate::host::HostGauge;
use crate::spec::{self, MAX_OVERRUN, MIN_OPS, SETUP_REPEATS, WINDOW_OPS};
use crate::stats::{median, percentile, quartiles, sorted};
use crate::workloads;

/// One completed op.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall nanoseconds from issuing the op to holding its checked result.
    pub latency_ns: u64,
    /// Logical units of work the op did (see `host_ns_per_unit`).
    pub units: u64,
    /// Simulated steps the op took.
    pub steps: u64,
    /// The op completed and its answer matched the oracle.
    pub ok: bool,
    /// The latency at the quiet grading machine's pace, in nanoseconds:
    /// `latency_ns` times the host gauge's factor for the op.
    pub quiet_ns: f64,
}

/// Named per-layer values of a traced run.
pub type Layers = Vec<(String, f64)>;

/// What a traced run hands back besides the layer values.
pub struct TraceReport {
    pub layers: Layers,
    /// Traced ops attempted and failed (wrong answer, or simulated
    /// counters differing from the untraced reference).
    pub attempted: usize,
    pub failed: usize,
    /// Workload-specific detail for the trace file (spans, per-job rows).
    pub detail: JsonValue,
}

/// What the traced pass is compared against.
pub struct TraceCtx<'a> {
    /// The untraced warm-up pass, op by op.
    pub reference: &'a [Sample],
    /// Median wall seconds of an untraced pass in this process.
    pub untraced_pass_s: f64,
}

impl TraceCtx<'_> {
    /// Ops of `samples` (one or more whole passes) that failed or whose
    /// simulated counters differ from the reference pass's.
    pub fn failures(&self, samples: &[Sample]) -> usize {
        samples
            .iter()
            .zip(self.reference.iter().cycle())
            .filter(|(s, r)| !s.ok || s.units != r.units || s.steps != r.steps)
            .count()
    }

    /// `trace_overhead_frac`: the median of the traced passes' wall times
    /// over the untraced median, less one.
    pub fn overhead(&self, pass_s: &[f64]) -> f64 {
        median(pass_s) / self.untraced_pass_s - 1.0
    }
}

pub trait Workload {
    /// Runs every op of the fixed op list once, in list order, reading
    /// `host` after each op (or each round of concurrent ops).
    fn pass(&mut self, host: &mut HostGauge, out: &mut Vec<Sample>);

    /// Share by which a pass's summed counters may differ from the first
    /// pass's. Zero, the default, demands op-by-op equality.
    fn counter_tolerance(&self) -> f64 {
        0.0
    }

    /// Runs the traced passes and this workload's layer probes.
    fn trace(&mut self, ctx: &TraceCtx<'_>) -> TraceReport;
}

/// Ops of `pass` whose simulated counters differ from the reference pass.
fn counter_mismatches(reference: &[Sample], pass: &[Sample], tolerance: f64) -> usize {
    if reference.len() != pass.len() {
        return pass.len().max(1);
    }
    if tolerance == 0.0 {
        return reference
            .iter()
            .zip(pass)
            .filter(|(a, b)| a.units != b.units || a.steps != b.steps)
            .count();
    }
    let total = |s: &[Sample], f: fn(&Sample) -> u64| s.iter().map(f).sum::<u64>() as f64;
    let off = |f: fn(&Sample) -> u64| {
        let want = total(reference, f);
        (total(pass, f) - want).abs() > tolerance * want
    };
    usize::from(off(|s| s.units) || off(|s| s.steps))
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result of one workload process, either mode.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Metric name and value, in table order.
    pub metrics: Vec<(String, f64)>,
    /// Extra fields for `result.json` / the trace file.
    pub detail: JsonValue,
}

fn quartile_json(values: &[f64]) -> JsonValue {
    let (q1, q3) = quartiles(values);
    JsonValue::object([
        ("n", JsonValue::UInt(values.len() as u64)),
        ("q1", JsonValue::Float(q1)),
        ("median", JsonValue::Float(median(values))),
        ("q3", JsonValue::Float(q3)),
    ])
}

/// Measures the end-to-end metrics of `name`, tracing off. Every timing
/// is reported at the quiet grading machine's pace (see `host.rs`).
pub fn measure(name: &str, seed: u64, seconds: f64) -> Outcome {
    let budget = Duration::from_secs_f64(seconds);
    // A full-budget run repeats its set-up, so that `setup_s` is a median
    // and not one draw, and keeps going until the latency percentiles
    // have their samples; a short (smoke) run sets up once and takes the
    // ops its budget gives.
    let full = seconds >= spec::FULL_SECONDS;
    let (setups, min_ops) = if full {
        (SETUP_REPEATS, MIN_OPS)
    } else {
        (1, 1)
    };
    let mut host = HostGauge::new(workloads::threads(name));
    // Set-up covers instance generation, oracles, opening the service and
    // store, and the warm-up pass. On a host slow enough that the repeats
    // would outlast the measurement itself, they stop early.
    let mut setup_s = Vec::new();
    let mut state = None;
    let setting_up = Instant::now();
    while setup_s.is_empty() || (setup_s.len() < setups && setting_up.elapsed() < budget) {
        drop(state.take());
        host.sample();
        let mark = host.mark();
        let mut workload = workloads::build(name, seed);
        let mut warm = Vec::new();
        workload.pass(&mut host, &mut warm);
        let wall = host.elapsed(&mark).as_secs_f64();
        setup_s.push(wall * host.quiet_factor(&mark));
        state = Some((workload, warm));
    }
    let (mut workload, warm) = state.expect("at least one set-up");
    let tolerance = workload.counter_tolerance();
    let mut failed = warm.iter().filter(|s| !s.ok).count();

    let mut ops: Vec<Sample> = Vec::new();
    let mut raw_pass_s = Vec::new();
    let mut pass_s = Vec::new();
    let mut pass_ns_per_unit = Vec::new();
    let timed = Instant::now();
    while timed.elapsed() < budget
        || (ops.len() < min_ops && timed.elapsed() < budget.mul_f64(MAX_OVERRUN))
    {
        let from = ops.len();
        host.sample();
        let mark = host.mark();
        workload.pass(&mut host, &mut ops);
        let wall = host.elapsed(&mark).as_secs_f64();
        let pass = &ops[from..];
        // The pass at the quiet machine's pace: the wall time net of the
        // gauge, scaled as its ops' latencies were.
        let latency_ns: f64 = pass.iter().map(|s| s.latency_ns as f64).sum();
        let quiet_ns: f64 = pass.iter().map(|s| s.quiet_ns).sum();
        let quiet = wall * quiet_ns / latency_ns;
        let units: u64 = pass.iter().map(|s| s.units).sum();
        raw_pass_s.push(wall);
        pass_s.push(quiet);
        pass_ns_per_unit.push(quiet * 1e9 / units as f64);
        failed += pass.iter().filter(|s| !s.ok).count();
        failed += counter_mismatches(&warm, pass, tolerance);
    }
    let attempted = warm.len() + ops.len();
    drop(workload);

    // A latency percentile is taken over a window of whole passes holding
    // at least `WINDOW_OPS` ops, and the run reports the median over its
    // windows: a change that makes one op in ten slow moves every
    // window's 90th percentile, a disturbance the gauge missed moves the
    // windows it fell in. The two rates are those of the median pass: a
    // pass is the same ops every time.
    let latency_ms: Vec<f64> = ops.iter().map(|s| s.quiet_ns / 1e6).collect();
    let per_window = WINDOW_OPS.div_ceil(warm.len());
    let windows = (pass_s.len() / per_window).max(1);
    let window_ops = pass_s.len() / windows * warm.len();
    let windowed = |p: f64| {
        let of_window: Vec<f64> = latency_ms
            .chunks_exact(window_ops)
            .map(|w| percentile(&sorted(w), p))
            .collect();
        median(&of_window)
    };
    let slowdown = host.slowdowns();
    let steps: u64 = ops.iter().map(|s| s.steps).sum();
    let value = |name: &str| match name {
        "ops_per_s" => warm.len() as f64 / median(&pass_s),
        "op_latency_p50_ms" => windowed(50.0),
        "op_latency_p90_ms" => windowed(90.0),
        "host_ns_per_unit" => median(&pass_ns_per_unit),
        "sim_steps_per_op" => steps as f64 / ops.len() as f64,
        "failed_frac" => failed as f64 / attempted as f64,
        "setup_s" => median(&setup_s),
        "peak_rss_mb" => peak_rss_mb(),
        other => unreachable!("no such end-to-end metric: {other}"),
    };
    let metrics = spec::END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), value(m.name)))
        .collect();
    let detail = JsonValue::object([
        ("passes", JsonValue::UInt(pass_s.len() as u64)),
        ("ops_per_pass", JsonValue::UInt(warm.len() as u64)),
        ("timed_ops", JsonValue::UInt(ops.len() as u64)),
        ("latency_windows", JsonValue::UInt(windows as u64)),
        ("ops_per_window", JsonValue::UInt(window_ops as u64)),
        ("timed_s", JsonValue::Float(raw_pass_s.iter().sum())),
        ("setups", JsonValue::UInt(setup_s.len() as u64)),
        ("host_slowdown", quartile_json(&slowdown)),
        ("raw_pass_s", quartile_json(&raw_pass_s)),
        ("pass_s", quartile_json(&pass_s)),
        ("op_latency_ms", quartile_json(&latency_ms)),
        ("setup_s", quartile_json(&setup_s)),
    ]);
    Outcome {
        attempted,
        failed,
        metrics,
        detail,
    }
}

/// Runs `name` with the layer probes: untraced passes for the baseline
/// (about a third of the budget, at least two), then the workload's own
/// traced passes and probes.
pub fn trace(name: &str, seed: u64, seconds: f64) -> Outcome {
    let mut workload = workloads::build(name, seed);
    let mut off = HostGauge::off();
    let mut reference = Vec::new();
    workload.pass(&mut off, &mut reference);
    let mut failed = reference.iter().filter(|s| !s.ok).count();
    let mut attempted = reference.len();

    let baseline = Duration::from_secs_f64(seconds / 3.0);
    let mut pass_s = Vec::new();
    let started = Instant::now();
    while pass_s.len() < 2 || started.elapsed() < baseline {
        let mut pass = Vec::new();
        let t = Instant::now();
        workload.pass(&mut off, &mut pass);
        pass_s.push(t.elapsed().as_secs_f64());
        failed += pass.iter().filter(|s| !s.ok).count();
        failed += counter_mismatches(&reference, &pass, workload.counter_tolerance());
        attempted += pass.len();
    }

    let report = workload.trace(&TraceCtx {
        reference: &reference,
        untraced_pass_s: median(&pass_s),
    });
    drop(workload);
    attempted += report.attempted;
    failed += report.failed;

    // Every per-layer metric is reported by every workload; the ones whose
    // layer this workload does not exercise read 0.
    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| {
            let value = report
                .layers
                .iter()
                .find(|(name, _)| name == m.name)
                .map_or(0.0, |(_, v)| *v);
            (m.name.to_string(), value)
        })
        .collect();
    for (layer, _) in &report.layers {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == layer),
            "{name} reported {layer:?}, which is not a listed per-layer metric"
        );
    }
    let detail = JsonValue::object([
        ("untraced_pass_s", quartile_json(&pass_s)),
        ("spans", report.detail),
    ]);
    Outcome {
        attempted,
        failed,
        metrics,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(units: u64, steps: u64) -> Sample {
        Sample {
            latency_ns: 1,
            units,
            steps,
            ok: true,
            quiet_ns: 1.0,
        }
    }

    #[test]
    fn exact_counters_are_compared_op_by_op() {
        let reference = [sample(10, 5), sample(20, 7)];
        assert_eq!(counter_mismatches(&reference, &reference, 0.0), 0);
        // Same totals, different ops: still a mismatch on both.
        let swapped = [sample(20, 7), sample(10, 5)];
        assert_eq!(counter_mismatches(&reference, &swapped, 0.0), 2);
        assert_eq!(counter_mismatches(&reference, &reference[..1], 0.0), 1);
    }

    #[test]
    fn tolerant_counters_are_compared_in_total() {
        let reference = [sample(1000, 500), sample(1000, 500)];
        let near = [sample(1005, 500), sample(1000, 498)];
        assert_eq!(counter_mismatches(&reference, &near, 0.01), 0);
        let far = [sample(1100, 500), sample(1000, 500)];
        assert_eq!(counter_mismatches(&reference, &far, 0.01), 1);
    }
}
