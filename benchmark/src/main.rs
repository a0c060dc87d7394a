//! `hyperspace-benchmark`: one end-to-end benchmark of the five-layer
//! solver stack with a layer-tax trace. See README.md.
//!
//! ```text
//! hyperspace-benchmark run     [--seed N] [--seconds S] [--runs K] [--smoke]
//! hyperspace-benchmark trace   [--seed N] [--seconds S] [--smoke]
//! hyperspace-benchmark compare BASE.json NEW.json
//! hyperspace-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last form measures one workload in this process and prints its
//! metrics as one JSON object on the last line of standard output; `run`
//! and `trace` start one such process per workload, and the grader's
//! harness calls it directly.

mod compare;
mod harness;
mod host;
mod pools;
mod probes;
mod report;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use hyperspace_obs::JsonValue;

/// Where result and trace files and the service's store go: `out/` beside
/// this package's manifest, so nothing is written outside the checkout.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's out/ directory");
    dir
}

/// Command-line options after the subcommand, all optional.
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub runs: usize,
    pub smoke: bool,
    pub files: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        trace: false,
        runs: spec::DEFAULT_RUNS,
        smoke: false,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
        }
        match arg.as_str() {
            "--workload" => opts.workload = Some(value("a workload name")?.to_string()),
            "--seed" => opts.seed = num(arg, value("a number")?)?,
            "--seconds" => opts.seconds = num(arg, value("a number")?)?,
            "--trace" => opts.trace = num::<u8>(arg, value("0 or 1")?)? != 0,
            "--runs" => opts.runs = num(arg, value("a number")?)?,
            "--smoke" => opts.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            file => opts.files.push(file.to_string()),
        }
    }
    if opts.smoke {
        // One-second budgets, one run each: about fifteen seconds in all.
        opts.seconds = 1.0;
        opts.runs = 1;
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", opts.seconds));
    }
    if opts.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(opts)
}

/// The one JSON object the grading harness reads from the last line.
/// `failed_frac` is zero on a healthy run, and that harness wants metrics
/// that never are: it reads failures from `failed` and `attempted`.
fn result_line(table: &[spec::Metric], outcome: &harness::Outcome) -> JsonValue {
    let metrics = table
        .iter()
        .zip(&outcome.metrics)
        .filter(|(m, _)| m.name != spec::FAILED_FRAC)
        .map(|(m, (name, value))| {
            (
                name.clone(),
                JsonValue::object([
                    ("value", JsonValue::Float(*value)),
                    ("unit", JsonValue::str(m.unit)),
                ]),
            )
        });
    JsonValue::object([
        ("correct", JsonValue::Bool(outcome.failed == 0)),
        ("attempted", JsonValue::UInt(outcome.attempted as u64)),
        ("failed", JsonValue::UInt(outcome.failed as u64)),
        ("metrics", JsonValue::object(metrics)),
    ])
}

/// Measures one workload in this process: the grader's protocol.
fn one_workload(opts: &Options) -> ExitCode {
    let name = opts.workload.as_deref().expect("checked by the caller");
    if !spec::WORKLOADS.iter().any(|w| w.name == name) {
        eprintln!("unknown workload {name:?}");
        return ExitCode::from(2);
    }
    let outcome = if opts.trace {
        harness::trace(name, opts.seed, opts.seconds)
    } else {
        harness::measure(name, opts.seed, opts.seconds)
    };
    let table: &[spec::Metric] = if opts.trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    for (metric, (name, value)) in table.iter().zip(&outcome.metrics) {
        println!("{name:<34} {value:>16.6} {}", metric.unit);
    }
    if opts.trace {
        let path = out_dir().join(format!("trace_{name}.json"));
        let doc = JsonValue::object([
            ("workload", JsonValue::str(name)),
            ("seed", JsonValue::UInt(opts.seed)),
            (
                "layers",
                JsonValue::object(
                    outcome
                        .metrics
                        .iter()
                        .map(|(n, v)| (n.clone(), JsonValue::Float(*v))),
                ),
            ),
            ("detail", outcome.detail.clone()),
        ]);
        std::fs::write(&path, hyperspace_obs::pretty(&doc)).expect("write the trace file");
    }
    println!("detail {}", outcome.detail);
    // Failures travel in the line (`correct`, `failed`); a non-zero exit
    // would tell the caller there is no result to read. `run` and `trace`
    // turn them into their own exit code.
    println!("{}", result_line(table, &outcome));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(cmd @ ("run" | "trace" | "compare")) => (cmd, &args[1..]),
        _ => ("", &args[..]),
    };
    let opts = match parse(rest) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("{err}\nusage: see benchmark/README.md");
            return ExitCode::from(2);
        }
    };
    match command {
        "run" => report::run(&opts),
        "trace" => report::trace(&opts),
        "compare" => compare::run(&opts.files),
        _ if opts.workload.is_some() => one_workload(&opts),
        _ => {
            eprintln!(
                "usage: run | trace | compare A B | --workload NAME ... (see benchmark/README.md)"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real (tiny) run renders to a line that parses back, with exactly
    /// the keys of the protocol and every end-to-end metric but
    /// `failed_frac`, each a positive number with its unit.
    #[test]
    fn result_line_is_well_formed() {
        let outcome = harness::measure("l1_dense", 7, 0.05);
        assert_eq!(outcome.failed, 0);
        let line = result_line(&spec::END_TO_END, &outcome).to_string();
        let JsonValue::Object(fields) = JsonValue::parse(&line).expect("the line parses") else {
            panic!("the line is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let JsonValue::Object(metrics) = &fields[3].1 else {
            panic!("metrics is not an object");
        };
        let want: Vec<&str> = spec::END_TO_END
            .iter()
            .map(|m| m.name)
            .filter(|n| *n != spec::FAILED_FRAC)
            .collect();
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, want);
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(JsonValue::as_f64);
            assert!(value.is_some_and(|v| v > 0.0), "{name}: {value:?}");
            assert!(
                matches!(metric.get("unit"), Some(JsonValue::Str(_))),
                "{name}"
            );
        }
    }
}
