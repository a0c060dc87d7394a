//! Depth is not bounded by the native stack: `eval_local`, the reference
//! semantics every equivalence suite uses as its oracle, keeps its
//! suspended activations on the heap, and the sequential DPLL solver its
//! decision levels.

use hyperspace::recursion::{eval_local, FnProgram, Rec};
use hyperspace::sat::{dpll, Clause, Cnf, Heuristic, Lit, Var};

/// 2 MiB, the default stack of spawned threads and test threads.
const SMALL_STACK: usize = 2 << 20;

/// Runs `f` on a thread with a stack of `bytes`.
fn on_a_stack<T: Send + 'static>(bytes: usize, f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(bytes)
        .spawn(f)
        .expect("a thread spawns")
        .join()
        .expect("the thread finishes")
}

#[test]
fn eval_local_sums_a_million_deep_chain_on_a_two_mib_stack() {
    const DEPTH: u64 = 1_000_000;
    let total = on_a_stack(SMALL_STACK, || {
        // Listing 3: sum(n) = 0 if n < 1 else n + sum(n - 1).
        let sum = FnProgram::new(|n: u64| {
            if n < 1 {
                Rec::done(0)
            } else {
                Rec::call(n - 1).then(move |total| Rec::done(total + n))
            }
        });
        eval_local(&sum, DEPTH)
    });
    assert_eq!(total, DEPTH * (DEPTH + 1) / 2);
}

#[test]
fn eval_local_keeps_each_activations_results_apart_at_depth() {
    // Every level forks a leaf beside a deep chain, alternately joined
    // `All` and `Any`: while the chain runs, the leaf's result waits under
    // every deeper level's (or, for `Any`, is invalid and dropped), so a
    // result stack shared by the suspended activations must hand each
    // exactly its own.
    let total = on_a_stack(SMALL_STACK, || {
        let program = FnProgram::new(|n: u64| -> Rec<u64, u64> {
            match n {
                0 => Rec::done(1),
                n if n % 2 == 0 => {
                    Rec::call_all(vec![0, n - 1]).then_all(|rs| Rec::done(rs[0] + rs[1]))
                }
                n => Rec::call_any(vec![0, n - 1], |r| *r > 1)
                    .then_any(|r| Rec::done(r.unwrap_or(0) + 1)),
            }
        });
        eval_local(&program, 200_000)
    });
    // f(1) = 1 (no valid result, plus one); every level above adds one:
    // the leaf's 1 under `All`, its own under `Any`.
    assert_eq!(total, 200_000);
}

#[test]
fn sequential_dpll_descends_five_hundred_decisions_on_a_64_kib_stack() {
    const BLOCKS: u32 = 500;
    // `(a ∨ b)(¬a ∨ ¬b)` for each block: no unit and no pure literal, so
    // every block takes one decision, and the first one's unit closes it.
    let clauses = (0..BLOCKS).flat_map(|i| {
        let (a, b) = (Var(2 * i), Var(2 * i + 1));
        [
            Clause::new(vec![Lit::pos(a), Lit::pos(b)]),
            Clause::new(vec![Lit::neg(a), Lit::neg(b)]),
        ]
    });
    let cnf = Cnf::new(2 * BLOCKS, clauses.collect());
    // A solver recursing once per decision overflows this stack.
    let (result, stats) = on_a_stack(64 << 10, move || {
        dpll::solve(&cnf, Heuristic::FirstUnassigned)
    });
    assert!(result.is_sat());
    assert_eq!(stats.max_depth, u64::from(BLOCKS));
}
