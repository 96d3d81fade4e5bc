#!/usr/bin/env bash
# Fails when the benchmark ids recorded in BENCH_samplers.json (or $1)
# drift from the ids the bench harness actually emits — a renamed or
# deleted benchmark would otherwise leave a stale perf record that the
# next PR "tracks" against nothing.
#
# The criterion shim's smoke mode (`-- --test`) runs every benchmark for
# one iteration and still appends its id to $CRITERION_JSON, so the
# enumeration costs seconds, not the full measurement budget.
#
# The monitor bench covers the lifecycle/wire/transport layers too:
# monitor/{compact_4096_streams,wire_roundtrip,evict_churn} plus the
# sketch-tier rows monitor/{sketch_churn,promote_demote} and the
# event-loop transport rows
# monitor/{serve_epoll_64_sessions,serve_multi_loop_2x,
# serve_multi_loop_4x,tcp_roundtrip} and the
# differential-wire rows
# monitor/{diff_flush_steady,diff_vs_cumulative_bytes} ride in the
# same --bench monitor harness below.
set -euo pipefail
cd "$(dirname "$0")/.."

ref="${1:-BENCH_samplers.json}"
if [[ ! -f "$ref" ]]; then
    echo "error: no benchmark record at $ref" >&2
    exit 2
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# Keep this bench list in sync with scripts/bench_json.sh.
CRITERION_JSON="$tmp" cargo bench -p sst-bench \
    --bench samplers --bench sigproc --bench generators --bench experiments \
    --bench monitor \
    -- --test >/dev/null

ids_of() { grep -o '"id":"[^"]*"' "$1" | sort -u; }

if ! diff <(ids_of "$ref") <(ids_of "$tmp") >/dev/null; then
    echo "benchmark ids drifted between $ref and the bench harness:" >&2
    diff <(ids_of "$ref") <(ids_of "$tmp") >&2 || true
    echo "regenerate the record with scripts/bench_json.sh" >&2
    exit 1
fi
echo "bench ids match $ref ($(ids_of "$ref" | wc -l) benchmarks)"
