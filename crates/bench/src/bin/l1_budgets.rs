//! **ABL-E / ABL-O / ABL-T (layer-1 budgets)** — what the step kernel's
//! active set buys and what a job's probe costs, on the two machines
//! that bracket the design space (`benchmark/`'s `l1_sparse` and
//! `l1_dense`):
//!
//! * **sparse** — a handful of walkers on a large torus: almost every
//!   node is idle almost every step, and a step is sub-microsecond, so
//!   fixed per-step costs dominate. The active set must buy a large win
//!   (≥ 5× steps/sec) over the reference interpreter, which burns the
//!   whole machine scanning empty inboxes; and it is the worst case for
//!   any instrumentation (the phase profiler reads the clock on sampled
//!   steps only — see `ObsHandle::phase_period` — because of it).
//! * **dense** — one message in flight per node: the active set
//!   degenerates to the full node list, which its bitmap drains in node
//!   order without a sort, and a delivered envelope moves only from the
//!   staging buffer to an inbox and from the inbox to its handler, so
//!   the kernel must beat the reference interpreter's plain scan and
//!   per-node batches clearly (≥ 1.7×); steps are long, so a probe cost
//!   that scales with *work* rather than steps shows here.
//!
//! Two questions per machine: *stepping* — kernel against
//! `hyperspace_sim::reference` (the equivalence suites prove the two
//! bit-identical; this proves the speed half) — and *probe* — the kernel
//! carrying a [`JobProbe`] with default phase sampling, exactly what a
//! service job carries, against `ObsHandle::off()` (≥ 0.9× on both).
//! Every row is judged on its cleanest interleaved pair; a missed floor
//! fails the process. `--smoke` shrinks the machines for CI (the
//! assertions still run); `--out PATH` writes the report.

use std::sync::Arc;

use hyperspace_bench::harness::{emit, interleaved, Args, Flood};
use hyperspace_obs::{JobProbe, JsonValue, ObsHandle};

const TRIALS: usize = 5;

enum Question {
    /// Kernel vs reference interpreter.
    Stepping,
    /// Probed kernel vs bare kernel.
    Probe,
}

struct Row {
    question: Question,
    flood: Flood,
    /// Steps per trial.
    steps: u64,
    /// Least acceptable `a / b` of the cleanest pair.
    floor: f64,
}

fn main() {
    let args = Args::from_env();
    let smoke = args.smoke();
    // The smoke torus is cache-resident, so its steps are cheaper and
    // the probe's fixed ~30ns a step would weigh more than it does on
    // the real machine; eight walkers keep the step cost comparable.
    let sparse = || Flood {
        name: "sparse",
        side: if smoke { 32 } else { 48 },
        messages: if smoke { 8 } else { 4 },
    };
    let dense = || Flood {
        name: "dense",
        side: if smoke { 8 } else { 14 },
        messages: if smoke { 64 } else { 196 },
    };
    // The reference interpreter pays for every node every step, so the
    // sparse stepping row is short; the sparse probe row is long because
    // its steps are ~170ns each and a trial must outlast timer noise.
    let rows = [
        Row {
            question: Question::Stepping,
            flood: sparse(),
            steps: if smoke { 2_000 } else { 40_000 },
            floor: 5.0,
        },
        Row {
            question: Question::Stepping,
            flood: dense(),
            steps: if smoke { 20_000 } else { 60_000 },
            floor: 1.7,
        },
        Row {
            question: Question::Probe,
            flood: sparse(),
            steps: if smoke { 80_000 } else { 400_000 },
            floor: 0.9,
        },
        Row {
            question: Question::Probe,
            flood: dense(),
            steps: if smoke { 20_000 } else { 60_000 },
            floor: 0.9,
        },
    ];

    println!("layer-1 budgets (cleanest of {TRIALS} interleaved pairs per row):");
    let mut reports = Vec::new();
    let mut missed = Vec::new();
    for row in &rows {
        let (flood, steps) = (&row.flood, row.steps);
        let (question, a_name, b_name) = match row.question {
            Question::Stepping => ("stepping", "kernel", "reference"),
            Question::Probe => ("probe", "probed", "bare"),
        };
        let label = format!("{question}/{}", flood.name);
        println!(
            "{label}: {a_name} vs {b_name}, {}x{} torus, {} in flight, {steps} steps",
            flood.side, flood.side, flood.messages
        );
        let bare = || flood.on_engine(steps, ObsHandle::off()).steps_per_sec;
        let pairs = match row.question {
            Question::Stepping => interleaved(&label, TRIALS, bare, || {
                flood.on_reference(steps).steps_per_sec
            }),
            Question::Probe => interleaved(
                &label,
                TRIALS,
                || {
                    let probe = Arc::new(JobProbe::new(0, flood.name, None));
                    flood.on_engine(steps, ObsHandle::new(probe)).steps_per_sec
                },
                bare,
            ),
        };
        let pass = pairs.ratio >= row.floor;
        println!(
            "  best {a_name} {:.0} steps/s, best {b_name} {:.0} steps/s, cleanest pair {:.2}x \
             (floor {}x): {}",
            pairs.a,
            pairs.b,
            pairs.ratio,
            row.floor,
            if pass { "pass" } else { "FAIL" }
        );
        if !pass {
            missed.push(format!("{label} {:.2}x < {}x", pairs.ratio, row.floor));
        }
        reports.push(JsonValue::object([
            ("question", JsonValue::str(question)),
            ("machine", JsonValue::str(flood.name)),
            ("nodes", JsonValue::UInt(flood.nodes())),
            ("messages", JsonValue::UInt(flood.messages)),
            ("steps", JsonValue::UInt(steps)),
            (a_name, JsonValue::Float(pairs.a)),
            (b_name, JsonValue::Float(pairs.b)),
            ("ratio", JsonValue::Float(pairs.ratio)),
            ("floor", JsonValue::Float(row.floor)),
            ("pass", JsonValue::Bool(pass)),
        ]));
    }

    emit(
        &args,
        &JsonValue::object([
            ("bench", JsonValue::str("l1_budgets")),
            ("mode", JsonValue::str(if smoke { "smoke" } else { "full" })),
            ("trials", JsonValue::UInt(TRIALS as u64)),
            ("rows", JsonValue::Array(reports)),
            ("pass", JsonValue::Bool(missed.is_empty())),
        ]),
    );
    assert!(
        missed.is_empty(),
        "layer-1 budget missed: {}",
        missed.join("; ")
    );
    println!(
        "layer-1 budgets hold: kernel >= 5x the reference on sparse work and >= 1.7x on dense; \
         a probed kernel >= 0.9x bare on both"
    );
}
