#!/bin/sh
# Builds the sampler, profiles a one-second `mesh_sat` run of the
# benchmark binary with it and checks that the report, with its
# "innermost <= outermost" table, names the known hot spot of that
# workload. Skips (exit 0) where the toolchain is missing.
set -eu
cd "$(dirname "$0")"
for tool in gcc addr2line nm python3; do
    command -v "$tool" >/dev/null || { echo "sigprof check skipped: no $tool"; exit 0; }
done
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
gcc -O2 -shared -fPIC -o "$out/sigprof.so" sigprof.c
cargo build --release --offline --manifest-path ../../benchmark/Cargo.toml
bench="${CARGO_TARGET_DIR:-$PWD/../../benchmark/target}/release/hyperspace-benchmark"
# The binary itself, not `cargo run`: every process under LD_PRELOAD
# samples itself and writes $PROF_OUT when it exits.
PROF_OUT="$out/prof.txt" LD_PRELOAD="$out/sigprof.so" \
    "$bench" --workload mesh_sat --seed 1 --seconds 1 --trace 0 >/dev/null
python3 symbolize.py "$out/prof.txt" --top 10 | tee "$out/report.txt"
grep -q 'hyperspace_sat::program' "$out/report.txt"
grep -q -- '-- by innermost <= outermost' "$out/report.txt"
