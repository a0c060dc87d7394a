#!/bin/sh
# Builds the benchmark, runs its tests and a smoke run of every workload
# (one-second budgets, about fifteen seconds in all), then checks that
# `compare` reads the smoke result (one run a workload, so every timing
# row is `unresolved`; none may be `regressed`). Ready for CI to call.
set -eu
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline -q
cargo run --release --offline -q -- run --smoke
cargo run --release --offline -q -- compare out/result.json out/result.json
