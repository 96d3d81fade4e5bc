#!/usr/bin/env bash
# Paired A/B run of the end-to-end benchmark (perfbench/): BASE_REV
# against the working tree.
#
#   scripts/perf_ab.sh BASE_REV [workload...]
#
# BASE_REV is resolved to its full commit hash, and its tree is
# exported with `git archive` into ${TMPDIR:-/tmp}/perf_ab-base-HASH
# and built there with its own target dir. That directory outlives the
# run: a later run against the same commit reuses the built binary and
# rebuilds only when it is missing. The working tree's perfbench builds
# in perfbench/target as usual; the per-run results directory is
# removed on exit. Each
# workload then runs PAIRS pairs of untraced runs on the same seed,
# alternating which side goes first, and every run must report
# `"correct": true`. Per metric the script prints each side's median and
# quartiles, how many pairs the change won (by the metric's `better`
# direction in BENCHMARK.json), the median per-pair ratio
# change / base, and a percentile-bootstrap 95% confidence interval of
# that median (2000 resamples of the pairs from a fixed RNG seed, so a
# rerun on the same JSON prints the same interval; one pair gives
# [r, r]).
#
# Environment: PAIRS (default 10), SECONDS_PER_RUN (default 5), SEED
# (default 101), TRACE (default 0; 1 compares the per-layer metrics).
# Default workloads: every workload in BENCHMARK.json.
set -euo pipefail

if [[ $# -lt 1 ]]; then
    echo "usage: $0 BASE_REV [workload...]" >&2
    exit 2
fi
base_rev=$1
shift

root=$(git rev-parse --show-toplevel)
base_hash=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")
pairs=${PAIRS:-10}
seconds=${SECONDS_PER_RUN:-5}
seed=${SEED:-101}
trace=${TRACE:-0}
if [[ $# -gt 0 ]]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c '
import json, sys
print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))
' "$root/BENCHMARK.json")
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
trap 'rm -rf "$work"' EXIT

base_dir="${TMPDIR:-/tmp}/perf_ab-base-$base_hash"
base_bin="$base_dir/target/release/perfbench"
if [[ -x $base_bin ]]; then
    echo "reusing base ($base_rev) perfbench built in $base_dir" >&2
else
    echo "building base ($base_rev) perfbench in $base_dir" >&2
    # A fresh export: an interrupted earlier one may have left a partial tree.
    rm -rf "$base_dir/tree"
    mkdir -p "$base_dir/tree"
    git -C "$root" archive "$base_hash" | tar -x -C "$base_dir/tree"
    CARGO_TARGET_DIR="$base_dir/target" cargo build --release --offline --quiet \
        --manifest-path "$base_dir/tree/perfbench/Cargo.toml"
fi
echo "building change (working tree) perfbench" >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml"
change_bin="$root/perfbench/target/release/perfbench"

# run SIDE BIN WORKLOAD PAIR: appends the run's JSON line to
# $work/WORKLOAD.SIDE.jsonl.
run() {
    local line
    line=$("$2" --workload "$3" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1) || true
    if [[ $line != *'"correct": true'* ]]; then
        echo "$1 run of $3 (pair $4) failed its reference check: $line" >&2
        exit 1
    fi
    echo "$line" >>"$work/$3.$1.jsonl"
}

for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        echo "$w: pair $i/$pairs" >&2
        if ((i % 2)); then
            run base "$base_bin" "$w" "$i"
            run change "$change_bin" "$w" "$i"
        else
            run change "$change_bin" "$w" "$i"
            run base "$base_bin" "$w" "$i"
        fi
    done
    python3 - "$root/BENCHMARK.json" "$work/$w.base.jsonl" "$work/$w.change.jsonl" "$w" "$base_rev" <<'EOF'
import json, random, statistics, sys

bench, base_path, change_path, workload, base_rev = sys.argv[1:]
spec = json.load(open(bench))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
load = lambda p: [json.loads(l)["metrics"] for l in open(p)]
base, change = load(base_path), load(change_path)

def bootstrap_ci(ratios, resamples=2000, seed=0x5EED):
    """Percentile-bootstrap 95% CI of the median of `ratios`."""
    if len(ratios) == 1:
        return ratios[0], ratios[0]
    rng = random.Random(seed)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(resamples)
    )
    return medians[int(0.025 * resamples)], medians[int(0.975 * resamples) - 1]

def spread(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return f"{q[1]:>12.4g} [{q[0]:.4g}, {q[2]:.4g}]"

print(f"\n{workload}: base {base_rev} vs working tree, {len(base)} pairs")
print(f"{'metric':<36} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32} {'wins':>6} {'ratio':>7} {'95% CI':>17}")
for name in base[0]:
    b = [m[name]["value"] for m in base]
    c = [m[name]["value"] for m in change]
    if not any(b) and not any(c):
        continue
    higher = better.get(name, "higher") == "higher"
    wins = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
    ratios = [y / x for x, y in zip(b, c) if x]
    ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
    ci = "[{:.3f}, {:.3f}]".format(*bootstrap_ci(ratios)) if ratios else "-"
    print(f"{name:<36} {spread(b):>32} {spread(c):>32} {wins:>3}/{len(b):<2} {ratio:>7} {ci:>17}")
EOF
done
