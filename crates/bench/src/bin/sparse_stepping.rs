//! **ABL-E (active-set stepping)** — the event-driven scheduler's
//! performance trajectory, made provable.
//!
//! The engine promises that its active set changes *when* work happens,
//! never *what* is computed (the equivalence suites prove the bit-by-bit
//! half against `hyperspace_sim::reference`, the naive interpreter that
//! visits every node every step). This bench proves the other half with
//! numbers, against that same interpreter as the dense baseline, on the
//! two workloads that bracket the design space:
//!
//! * **sparse walker** — a handful of messages wander a large torus, so
//!   almost every node is idle almost every step. The active set must
//!   buy a large win (≥ 5× steps/sec) over the dense visit-every-node
//!   loop, because the dense loop burns the whole machine scanning
//!   empty inboxes.
//! * **dense flood** — every node delivers every step, so the active
//!   set degenerates to the full node list. Here the bookkeeping must
//!   be close to free: active-set throughput must stay within the
//!   regression budget (< 10% below the dense loop).
//!
//! Both comparisons run interleaved best-of-N and the result is emitted
//! as machine-readable `BENCH_sparse.json` (via `--out PATH`), so the
//! committed baseline makes the trajectory diffable: a future PR that
//! erodes the sparse win or bloats the dense bookkeeping shows up as a
//! changed baseline, not a vibe.
//!
//! `--smoke` shrinks the workload for CI; the assertions still run.

use std::time::Instant;

use hyperspace_obs::{pretty, JsonValue};
use hyperspace_sim::{reference, InitCtx, NodeId, NodeProgram, Outbox, SimConfig, Simulation};
use hyperspace_topology::Torus;

fn mix(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31) ^ v
}

/// A self-sustaining deterministic flood: every delivered message is
/// forwarded to a state-chosen port, so in-flight traffic is constant
/// for as many steps as the cap allows. Injecting one message per node
/// makes a dense flood; injecting a handful onto a large torus makes a
/// sparse walker swarm where almost every inbox is empty almost always.
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

struct Workload {
    /// Human tag for printouts and the JSON baseline.
    name: &'static str,
    /// Torus side (nodes = side * side — the paper's machine shape).
    side: u32,
    /// Steps per trial.
    steps: u64,
    /// Concurrent messages kept in flight.
    messages: u64,
    /// Timed trials per stepping mode (best-of).
    trials: usize,
}

/// One timed run — on the engine, or (`dense`) on the reference
/// interpreter; returns steps/sec.
fn trial(w: &Workload, dense: bool) -> f64 {
    let topo = Torus::new_2d(w.side, w.side);
    let cfg = SimConfig {
        max_steps: w.steps,
        ..SimConfig::default()
    };
    let nodes = u64::from(w.side) * u64::from(w.side);
    let injections =
        (0..w.messages).map(|m| (((m * nodes / w.messages) % nodes) as NodeId, mix(m) | 0x100));
    let start = Instant::now();
    let (steps, delivered) = if dense {
        let run = reference::run(&topo, &ForwardForever, &cfg, injections);
        let report = run.result.expect("unbounded queues");
        (report.steps, run.metrics.total_delivered)
    } else {
        let mut sim = Simulation::new(topo, ForwardForever, cfg);
        for (node, payload) in injections {
            sim.inject(node, payload);
        }
        let report = sim.run_to_quiescence().expect("unbounded queues");
        (report.steps, sim.metrics().total_delivered)
    };
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(steps, w.steps, "flood must never drain");
    // Walkers that collide on one inbox are popped across several steps
    // (`msgs_per_step`), so delivery count is bounded, not exact.
    assert!(
        delivered >= w.steps && delivered <= w.steps * w.messages,
        "implausible delivery count {delivered}"
    );
    steps as f64 / elapsed
}

/// Interleaved best-of-N: active-set and dense trials alternate (after
/// one discarded warmup each), so CPU frequency drift and cache warmup
/// hit both sides equally instead of whichever ran last.
fn best_of_interleaved(w: &Workload) -> (f64, f64) {
    trial(w, false);
    trial(w, true);
    let mut active = 0.0f64;
    let mut dense = 0.0f64;
    for t in 0..w.trials {
        let steps = trial(w, false);
        println!("  [{}] active-set trial {t}: {steps:>12.0} steps/s", w.name);
        active = active.max(steps);
        let steps = trial(w, true);
        println!("  [{}] dense      trial {t}: {steps:>12.0} steps/s", w.name);
        dense = dense.max(steps);
    }
    (active, dense)
}

fn workload_json(w: &Workload, active: f64, dense: f64) -> JsonValue {
    JsonValue::object([
        (
            "config",
            JsonValue::object([
                (
                    "nodes",
                    JsonValue::UInt(u64::from(w.side) * u64::from(w.side)),
                ),
                ("steps", JsonValue::UInt(w.steps)),
                ("messages", JsonValue::UInt(w.messages)),
                ("trials", JsonValue::UInt(w.trials as u64)),
            ]),
        ),
        (
            "active_set",
            JsonValue::object([("steps_per_sec", JsonValue::Float(active))]),
        ),
        (
            "dense",
            JsonValue::object([("steps_per_sec", JsonValue::Float(dense))]),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let (sparse, dense) = if smoke {
        (
            Workload {
                name: "sparse",
                side: 32,
                steps: 2_000,
                messages: 4,
                trials: 3,
            },
            Workload {
                name: "dense",
                side: 8,
                steps: 20_000,
                messages: 64,
                trials: 3,
            },
        )
    } else {
        (
            Workload {
                name: "sparse",
                side: 48,
                steps: 40_000,
                messages: 4,
                trials: 5,
            },
            Workload {
                name: "dense",
                side: 14,
                steps: 60_000,
                messages: 196,
                trials: 5,
            },
        )
    };
    const SPARSE_SPEEDUP_FLOOR: f64 = 5.0;
    const DENSE_BUDGET_PCT: f64 = 10.0;

    println!(
        "ABL-E active-set stepping: sparse {}x{} torus / {} walkers, dense {}x{} torus / {} in flight",
        sparse.side, sparse.side, sparse.messages, dense.side, dense.side, dense.messages
    );

    println!(
        "sparse walker ({} steps x {} trials):",
        sparse.steps, sparse.trials
    );
    let (sparse_active, sparse_dense) = best_of_interleaved(&sparse);
    let speedup = sparse_active / sparse_dense;
    println!(
        "best-of-{}: active-set {sparse_active:.0} steps/s vs dense {sparse_dense:.0} steps/s \
         -> {speedup:.1}x speedup (floor {SPARSE_SPEEDUP_FLOOR}x)",
        sparse.trials
    );

    println!(
        "dense flood ({} steps x {} trials):",
        dense.steps, dense.trials
    );
    let (dense_active, dense_dense) = best_of_interleaved(&dense);
    let regression_pct = (1.0 - dense_active / dense_dense) * 100.0;
    println!(
        "best-of-{}: active-set {dense_active:.0} steps/s vs dense {dense_dense:.0} steps/s \
         -> {regression_pct:.2}% regression (budget {DENSE_BUDGET_PCT}%)",
        dense.trials
    );

    let pass = speedup >= SPARSE_SPEEDUP_FLOOR && regression_pct < DENSE_BUDGET_PCT;
    let mut sparse_json = workload_json(&sparse, sparse_active, sparse_dense);
    if let JsonValue::Object(fields) = &mut sparse_json {
        fields.push(("speedup".into(), JsonValue::Float(speedup)));
        fields.push((
            "speedup_floor".into(),
            JsonValue::Float(SPARSE_SPEEDUP_FLOOR),
        ));
    }
    let mut dense_json = workload_json(&dense, dense_active, dense_dense);
    if let JsonValue::Object(fields) = &mut dense_json {
        fields.push(("regression_pct".into(), JsonValue::Float(regression_pct)));
        fields.push(("budget_pct".into(), JsonValue::Float(DENSE_BUDGET_PCT)));
    }
    let json = JsonValue::object([
        ("bench", JsonValue::str("sparse_stepping")),
        ("mode", JsonValue::str(if smoke { "smoke" } else { "full" })),
        ("sparse", sparse_json),
        ("dense", dense_json),
        ("pass", JsonValue::Bool(pass)),
    ]);
    let rendered = pretty(&json);
    println!("{rendered}");
    if let Some(path) = out_path {
        std::fs::write(&path, &rendered).expect("write benchmark baseline");
        println!("wrote {path}");
    }

    assert!(
        speedup >= SPARSE_SPEEDUP_FLOOR,
        "sparse speedup {speedup:.1}x is below the {SPARSE_SPEEDUP_FLOOR}x floor \
         (active-set {sparse_active:.0} steps/s, dense {sparse_dense:.0} steps/s)"
    );
    assert!(
        regression_pct < DENSE_BUDGET_PCT,
        "dense regression {regression_pct:.2}% exceeds the {DENSE_BUDGET_PCT}% budget \
         (active-set {dense_active:.0} steps/s, dense {dense_dense:.0} steps/s)"
    );
    println!(
        "ABL-E claim holds: >= {SPARSE_SPEEDUP_FLOOR}x on sparse work, \
         < {DENSE_BUDGET_PCT}% cost on dense work"
    );
}
