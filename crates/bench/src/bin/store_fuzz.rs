//! Durable-decode fuzz driver — the crash-recovery trust boundary,
//! hammered.
//!
//! Recovery reads bytes nobody vouches for: manifests that survived a
//! kill -9 mid-rename, checkpoints from a disk with opinions, job
//! records from a previous (possibly newer, possibly corrupt) build.
//! [`hyperspace_bench::fuzz`] mutates *valid* encodings of all three
//! surfaces — byte flips, truncations, inflated length prefixes,
//! cross-corpus splices, appended garbage — and requires every decoder
//! to answer with a clean `CodecError`: no panic, no attacker-sized
//! allocation, ever.
//!
//! Deterministic by construction: a failure reproduces from the printed
//! `(seed, iteration)` pair (`--seed N`, `--iters N`). `--smoke` runs
//! the 10k-input CI tier; the full run is 200k inputs.

use hyperspace_bench::fuzz;
use hyperspace_bench::harness::Args;

fn main() {
    let args = Args::from_env();
    let seed = args.u64_or("--seed", 0xD15C_0DE5);
    let iterations = args.u64_or("--iters", if args.smoke() { 10_000 } else { 200_000 });

    let surfaces: Vec<&'static str> = fuzz::targets().iter().map(|t| t.name).collect();
    println!(
        "store fuzz: {iterations} mutated inputs over {} (seed {seed:#x})",
        surfaces.join(" + ")
    );

    let report = match fuzz::run(iterations, seed) {
        Ok(report) => report,
        Err(failure) => {
            eprintln!("FUZZ FAILURE: {failure}");
            std::process::exit(1);
        }
    };

    assert_eq!(report.iterations, iterations);
    assert_eq!(report.accepted + report.rejected, iterations);
    assert!(
        report.rejected > iterations / 2,
        "mutations must actually corrupt inputs (rejected {}/{iterations})",
        report.rejected
    );
    let pct = 100.0 * report.rejected as f64 / iterations as f64;
    println!(
        "  zero panics | {} rejected cleanly ({pct:.1}%) | {} mutations survived as valid",
        report.rejected, report.accepted
    );
}
