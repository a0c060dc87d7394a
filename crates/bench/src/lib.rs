//! Experiment harness shared by the `src/bin` binaries and the criterion
//! benches: [`experiments`] holds what the paper-side sweeps share (the
//! SAT run, suite means, the Figure 4 curves, the portfolio race),
//! [`harness`] what the self-checking bins share (command line, flood,
//! interleaved A/B loop, report writer), [`fuzz`] the durable-decode
//! mutation fuzzer. End-to-end workloads live in `benchmark/`.

pub mod experiments;
pub mod fuzz;
pub mod harness;
