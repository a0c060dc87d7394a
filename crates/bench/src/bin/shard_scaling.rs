//! **PERF** — shard-count sweep of the step kernel.
//!
//! Runs SAT (torus and hypercube machines) and n-queens workloads with
//! the machine as a single shard stepped inline (`seq` — printed first:
//! it pays no barrier, lock or atomic, so every row below it shows what
//! the exchange and the barriers cost or buy) and cut into K ∈ {2, 4, 8}
//! shards on worker threads, verifying along the way that every
//! configuration produces the same step count and root result (bit-
//! identical by contract), then reports wall-clock times and speedups.

use std::time::{Duration, Instant};

use hyperspace_core::{BackendSpec, MapperSpec, PartitionSpec, StackBuilder, TopologySpec};
use hyperspace_sat::{gen, DpllProgram, Heuristic, SimplifyMode, SubProblem};

use hyperspace_apps::{NQueensProgram, QueensTask};

const SHARD_COUNTS: [u32; 3] = [2, 4, 8];

/// One timed run: wall-clock, simulated steps, rendered root result.
struct Timing {
    elapsed: Duration,
    steps: u64,
    result: String,
}

fn sat_run(topology: TopologySpec, vars: u32, backend: BackendSpec) -> Timing {
    // A hard random 3-SAT instance near the phase-transition ratio with
    // fixpoint simplification: each handler invocation does real
    // propagation work, which is what shard-level parallelism buys back.
    // Full drain (no root-reply halt) keeps the whole mesh busy.
    let cnf = gen::random_ksat(2017, vars, (vars as usize * 43).div_ceil(10), 3);
    let program = DpllProgram::new(Heuristic::JeroslowWang).with_mode(SimplifyMode::Fixpoint);
    let start = Instant::now();
    let report = StackBuilder::new(program)
        .topology(topology)
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .backend(backend)
        .halt_on_root_reply(false)
        .run(SubProblem::root(cnf), 0);
    Timing {
        elapsed: start.elapsed(),
        steps: report.steps,
        result: format!("{:?}", report.result.map(|v| v.is_sat())),
    }
}

fn queens_run(topology: TopologySpec, n: u8, backend: BackendSpec) -> Timing {
    let start = Instant::now();
    let report = StackBuilder::new(NQueensProgram)
        .topology(topology)
        .mapper(MapperSpec::LeastBusy {
            status_period: None,
        })
        .backend(backend)
        .halt_on_root_reply(false)
        .run(QueensTask::root(n), 0);
    Timing {
        elapsed: start.elapsed(),
        steps: report.steps,
        result: format!("{:?}", report.result),
    }
}

fn sweep(label: &str, partition: PartitionSpec, run: impl Fn(BackendSpec) -> Timing) {
    let seq = run(BackendSpec::Sequential);
    println!(
        "{label:<28} seq (K=1 inline) {:>10.1?}  ({} steps, result {})",
        seq.elapsed, seq.steps, seq.result
    );
    for shards in SHARD_COUNTS {
        let backend = BackendSpec::Sharded {
            shards,
            partition,
            threads: None,
        };
        let t = run(backend);
        assert_eq!(
            t.steps, seq.steps,
            "{label}: sharded K={shards} diverged from sequential"
        );
        assert_eq!(t.result, seq.result, "{label}: K={shards} result diverged");
        let speedup = seq.elapsed.as_secs_f64() / t.elapsed.as_secs_f64().max(1e-9);
        println!(
            "{label:<28} sharded:{shards:<2}       {:>10.1?}  ({speedup:.2}x vs seq)",
            t.elapsed
        );
    }
    println!();
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    println!("shard-count scaling sweep (identical steps/results asserted)");
    println!("available parallelism: {cores} core(s) — speedups are bounded by this\n");
    sweep("sat 3sat-44 torus2d:12x12", PartitionSpec::Block, |b| {
        sat_run(TopologySpec::Torus2D { w: 12, h: 12 }, 44, b)
    });
    sweep("sat 3sat-44 hypercube:7", PartitionSpec::Block, |b| {
        sat_run(TopologySpec::Hypercube { dim: 7 }, 44, b)
    });
    sweep("nqueens:8 torus2d:12x12", PartitionSpec::RoundRobin, |b| {
        queens_run(TopologySpec::Torus2D { w: 12, h: 12 }, 8, b)
    });
    println!("all sharded configurations were bit-identical to sequential");
}
