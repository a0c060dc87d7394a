#!/usr/bin/env bash
# Alternating A/B pairs of the end-to-end benchmark between two revisions.
#
#   tools/abpair/abpair.sh [-w WORKLOAD]... [-n PAIRS] [-s SECONDS]
#                          [-f FIRST_SEED] [-d DIR] PARENT_REV CHANGE_REV
#
# Builds each revision in turn at one path, DIR/build: a `git archive`
# export and a fresh target directory there, the binary moved out to
# DIR/bin/SIDE before the next side is exported over it. Then for every
# workload it runs PAIRS pairs of `--workload W --seed i --seconds S
# --trace 0`, the parent first in odd pairs and the change first in even
# ones. Prints, per pair and side, `ops_per_s`, the host gauge's median
# slowdown, raw ops/s (ops per pass over the median raw pass time, from
# the `detail` line), `peak_rss_mb`, `setup_s`, `sim_steps_per_op` and
# failed ops, then each side's median and quartiles. Passing one revision
# twice is an A/A run: it says whether the two builds are byte-identical
# and prints the floor, the spread of one binary against itself.
# Defaults: every graded workload, 10 pairs, 25 s, seeds from 1, DIR a
# fresh temporary directory. Raw outputs stay in DIR/runs.
# See README.md beside this script for why the sides are built this way.
set -euo pipefail

usage() {
    sed -n '4,5p' "$0" >&2
    exit 2
}

workloads=()
pairs=10
seconds=25
first_seed=1
dir=""
while getopts "w:n:s:f:d:h" opt; do
    case "$opt" in
    w) workloads+=("$OPTARG") ;;
    n) pairs=$OPTARG ;;
    s) seconds=$OPTARG ;;
    f) first_seed=$OPTARG ;;
    d) dir=$OPTARG ;;
    *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -eq 2 ] && [ "$pairs" -ge 2 ] || usage
[ ${#workloads[@]} -gt 0 ] || workloads=(mesh_sat l1_sparse l1_dense portfolio_sat)
[ -n "$dir" ] || dir=$(mktemp -d)

repo=$(git rev-parse --show-toplevel)
declare -A rev=([parent]=$1 [change]=$2)
# One path for both builds: cargo hashes a path dependency's absolute
# path into its symbols, so sides built in two directories differ in
# code layout even at one revision.
mkdir -p "$dir/bin"
for side in parent change; do
    rm -rf "$dir/build"
    mkdir -p "$dir/build"
    git -C "$repo" archive "${rev[$side]}" | tar -x -C "$dir/build"
    echo "building $side (${rev[$side]}) in $dir/build" >&2
    CARGO_TARGET_DIR="$dir/build/benchmark/target" \
        cargo build --release --offline --quiet --manifest-path "$dir/build/benchmark/Cargo.toml"
    mv "$dir/build/benchmark/target/release/hyperspace-benchmark" "$dir/bin/$side"
done
aa=""
if [ "$(git -C "$repo" rev-parse "$1^{commit}")" = "$(git -C "$repo" rev-parse "$2^{commit}")" ]; then
    if cmp -s "$dir/bin/parent" "$dir/bin/change"; then same=yes; else same=no; fi
    aa="A/A run of one revision (builds byte-identical: $same): every move is the floor"
    echo "$aa" >&2
fi

mkdir -p "$dir/runs"
run() { # side workload seed
    "$dir/bin/$1" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 \
        >"$dir/runs/$2.$3.$1.txt"
}
for workload in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((first_seed + i))
        if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            echo "$workload seed $seed: $side" >&2
            run "$side" "$workload" "$seed"
        done
    done
done

python3 - "$dir/runs" "$first_seed" "$pairs" "$aa" "${workloads[@]}" <<'EOF'
import json, statistics, sys

runs, first, pairs, aa, workloads = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4], sys.argv[5:]

def read(workload, seed, side):
    lines = open(f"{runs}/{workload}.{seed}.{side}.txt").read().splitlines()
    detail = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
    result = json.loads(lines[-1])
    metric = lambda name: result["metrics"][name]["value"]
    return {
        "ops_per_s": metric("ops_per_s"),
        "gauge": detail["host_slowdown"]["median"],
        "raw": detail["ops_per_pass"] / detail["raw_pass_s"]["median"],
        "peak_rss_mb": metric("peak_rss_mb"),
        "setup_s": metric("setup_s"),
        "steps": metric("sim_steps_per_op"),
        "failed": result["failed"],
    }

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

cols = ["ops_per_s", "gauge", "raw", "peak_rss_mb", "setup_s", "steps", "failed"]
if aa:
    print(f"\n{aa}")
for workload in workloads:
    rows = [(first + i, read(workload, first + i, "parent"), read(workload, first + i, "change"))
            for i in range(pairs)]
    print(f"\n{workload}: {pairs} alternating pairs (parent | change)")
    print(f"{'seed':>5} " + " ".join(f"{c:>21}" for c in cols))
    for seed, p, c in rows:
        print(f"{seed:>5} " + " ".join(f"{p[k]:>10.4g}|{c[k]:<10.4g}" for k in cols))
    for key in ["ops_per_s", "gauge", "raw", "peak_rss_mb", "setup_s"]:
        p = [r[1][key] for r in rows]
        c = [r[2][key] for r in rows]
        pq, cq = quartiles(p), quartiles(c)
        move = (cq[1] / pq[1] - 1) * 100
        higher = sum(b > a for a, b in zip(p, c))
        lower = sum(b < a for a, b in zip(p, c))
        print(f"{key:>11}: parent {pq[1]:.4g} (q1 {pq[0]:.4g}, q3 {pq[2]:.4g}, iqr {pq[2] - pq[0]:.3g})"
              f"  change {cq[1]:.4g} (q1 {cq[0]:.4g}, q3 {cq[2]:.4g})"
              f"  move {move:+.1f} %  change higher in {higher}/{len(rows)}, lower in {lower}/{len(rows)}")
    tied = sum(r[1]["steps"] == r[2]["steps"] for r in rows)
    failed = [sum(r[i]["failed"] for r in rows) for i in (1, 2)]
    print(f"sim_steps_per_op tied in {tied}/{len(rows)}; failed ops parent {failed[0]}, change {failed[1]}")
EOF
echo "raw outputs: $dir/runs" >&2
