#!/usr/bin/env bash
# Runs the sampler/experiment criterion benches and writes the results as
# a JSON array to BENCH_samplers.json (or $1), so successive PRs can
# track the performance trajectory.
#
# The workspace's offline criterion harness appends one JSON object per
# benchmark to the file named by $CRITERION_JSON:
#   {"id": "...", "ns_per_iter": ..., "min_ns": ..., "mad_ns": ...,
#    "samples": ..., "iters": ..., "throughput_elems": ...}
# ns_per_iter is the median per-iteration time over the samples, min_ns
# the fastest sample, mad_ns the median absolute deviation from the
# median, samples the sample count and iters the iterations per sample.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_samplers.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# Keep this bench list in sync with scripts/check_bench_ids.sh, which
# diffs the ids these benches emit against the committed JSON.
CRITERION_JSON="$tmp" cargo bench -p sst-bench \
    --bench samplers --bench sigproc --bench generators --bench experiments \
    --bench monitor

{
    echo '['
    sed '$!s/$/,/' "$tmp"
    echo ']'
} > "$out"

echo "wrote $(grep -c ns_per_iter "$out") benchmark records to $out"
