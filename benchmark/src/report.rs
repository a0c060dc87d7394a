//! The `run` and `trace` commands: one fresh child process per workload
//! (and per repeat), their results gathered into one table and one
//! `out/result.json` with the provenance needed to compare two of them.

use std::process::{Command, ExitCode, Stdio};

use hyperspace_obs::{pretty, JsonValue};

use crate::spec::{self, Metric, END_TO_END, PER_LAYER, THREADS, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use crate::{out_dir, Options};

/// What one child process printed.
struct Child {
    attempted: u64,
    failed: u64,
    /// Metric values in table order (`failed_frac` recomputed from the
    /// counts, since the child's last line leaves it out).
    values: Vec<f64>,
    detail: JsonValue,
}

fn u64_of(v: Option<&JsonValue>) -> u64 {
    v.and_then(JsonValue::as_f64).unwrap_or(0.0) as u64
}

/// Runs one workload in a fresh process of this same executable and
/// parses its last line (the grader's protocol) and its detail line.
fn child(workload: &str, opts: &Options, trace: bool, table: &[Metric]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start the child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let line = JsonValue::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .and_then(|d| JsonValue::parse(d).ok())
        .unwrap_or(JsonValue::Null);
    let attempted = u64_of(line.get("attempted"));
    let failed = u64_of(line.get("failed"));
    let metrics = line.get("metrics").ok_or("result line without metrics")?;
    let values = table
        .iter()
        .map(|m| {
            if m.name == spec::FAILED_FRAC {
                return Ok(failed as f64 / attempted.max(1) as f64);
            }
            metrics
                .get(m.name)
                .and_then(|v| v.get("value"))
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{workload}: result line lacks {}", m.name))
        })
        .collect::<Result<_, String>>()?;
    Ok(Child {
        attempted,
        failed,
        values,
        detail,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The part of a result two runs must share to be comparable.
fn config_json(opts: &Options) -> JsonValue {
    JsonValue::object([
        ("seed", JsonValue::UInt(opts.seed)),
        ("seconds", JsonValue::Float(opts.seconds)),
        ("threads", JsonValue::UInt(THREADS as u64)),
        ("runs", JsonValue::UInt(opts.runs as u64)),
        (
            "workloads",
            JsonValue::Array(WORKLOADS.iter().map(|w| JsonValue::str(w.name)).collect()),
        ),
    ])
}

fn provenance_json() -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    JsonValue::object([
        ("nproc", JsonValue::UInt(nproc as u64)),
        ("oversubscribed", JsonValue::Bool(THREADS > nproc)),
        (
            "rustc",
            JsonValue::str(command_line("rustc", &["--version"])),
        ),
        (
            "commit",
            JsonValue::str(command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
    ])
}

/// `run`: every workload, tracing off, `--runs` times each.
pub fn run(opts: &Options) -> ExitCode {
    let mut workloads = Vec::new();
    let mut any_failed = false;
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..opts.runs {
            match child(w.name, opts, false, &END_TO_END) {
                Ok(c) => runs.push(c),
                Err(err) => {
                    eprintln!("{err}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!(
            "{} ({} run{})",
            w.name,
            runs.len(),
            if runs.len() == 1 { "" } else { "s" }
        );
        let mut summary = Vec::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r.values[i]).collect();
            let (q1, q3) = quartiles(&values);
            let samples = match m.name {
                "op_latency_p50_ms" | "op_latency_p90_ms" => format!(
                    "  (over {} timed ops a run)",
                    u64_of(runs[0].detail.get("timed_ops"))
                ),
                _ => String::new(),
            };
            println!(
                "  {:<20} {:>16.6} {:<6} spread {:>6.2} %{samples}",
                m.name,
                median(&values),
                m.unit,
                spread(&values) * 100.0
            );
            summary.push((
                m.name,
                JsonValue::object([
                    ("unit", JsonValue::str(m.unit)),
                    ("n", JsonValue::UInt(values.len() as u64)),
                    ("q1", JsonValue::Float(q1)),
                    ("median", JsonValue::Float(median(&values))),
                    ("q3", JsonValue::Float(q3)),
                ]),
            ));
        }
        any_failed |= runs.iter().any(|r| r.failed > 0);
        let runs_json = runs
            .into_iter()
            .map(|r| {
                JsonValue::object([
                    ("attempted", JsonValue::UInt(r.attempted)),
                    ("failed", JsonValue::UInt(r.failed)),
                    (
                        "metrics",
                        JsonValue::object(
                            END_TO_END
                                .iter()
                                .zip(r.values)
                                .map(|(m, v)| (m.name, JsonValue::Float(v))),
                        ),
                    ),
                    ("detail", r.detail),
                ])
            })
            .collect();
        workloads.push((
            w.name,
            JsonValue::object([
                ("why", JsonValue::str(w.why)),
                ("graded", JsonValue::Bool(w.graded)),
                ("summary", JsonValue::object(summary)),
                ("runs", JsonValue::Array(runs_json)),
            ]),
        ));
    }
    let doc = JsonValue::object([
        ("benchmark", JsonValue::str("hyperspace-benchmark")),
        ("config", config_json(opts)),
        ("provenance", provenance_json()),
        ("workloads", JsonValue::object(workloads)),
    ]);
    let path = out_dir().join("result.json");
    std::fs::write(&path, pretty(&doc)).expect("write result.json");
    println!("wrote {}", path.display());
    if any_failed {
        eprintln!("FAILED: some op failed, was refused or gave a wrong answer (failed_frac > 0)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `trace`: every workload once with the layer probes. Prints one table,
/// each metric under the workloads that exercise its layer; the children
/// write `out/trace_<workload>.json`.
pub fn trace(opts: &Options) -> ExitCode {
    let mut columns = Vec::new();
    let mut any_failed = false;
    for w in &WORKLOADS {
        match child(w.name, opts, true, &PER_LAYER) {
            Ok(c) => {
                any_failed |= c.failed > 0;
                columns.push(c.values);
            }
            Err(err) => {
                eprintln!("{err}");
                return ExitCode::FAILURE;
            }
        }
    }
    print!("{:<34}", "metric");
    for w in &WORKLOADS {
        print!(" {:>14}", w.name);
    }
    println!(" unit");
    for (i, m) in PER_LAYER.iter().enumerate() {
        print!("{:<34}", m.name);
        for column in &columns {
            if column[i] == 0.0 {
                print!(" {:>14}", "-");
            } else {
                print!(" {:>14.4}", column[i]);
            }
        }
        println!(" {}", m.unit);
    }
    println!("wrote {}/trace_<workload>.json", out_dir().display());
    if any_failed {
        eprintln!("FAILED: a traced run gave a wrong answer or different simulated counters");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
