#!/usr/bin/env bash
# Perf-regression gate:
#
#   1. Run the pinned workload — n = 5000 planted 9-block input,
#      LOCALSEARCH, --threads 1, --seed 0 — and diff
#      its run report against the committed baseline with aggclust-trace.
#      Deterministic work counters are gated exactly (any drift means the
#      algorithm did different work); span self-time *shares* are gated
#      with a generous tolerance (absolute times do not transfer across
#      machines, shares mostly do).
#   2. Self-test the gate: doctor the baseline (halve a gated counter,
#      double a span's self time) and assert the diff now FAILS — a gate
#      that cannot fail is not a gate.
#   3. Smoke-check the flamegraph path: `aggclust-trace fold` on the
#      workload's JSONL trace must emit well-formed folded-stack lines
#      including the local_search span.
#
# The pinned thread count and the tier-independent band width make the
# gated counters machine-independent, so the committed baseline stays
# valid on any host.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=target/release/aggclust
TRACE_BIN=target/release/aggclust-trace
if [ ! -x "$BIN" ]; then
    cargo build --release -q -p aggclust-cli
fi
if [ ! -x "$TRACE_BIN" ]; then
    cargo build --release -q -p aggclust-trace
fi

BASELINE=ci/baselines/local_search_n5000.json
[ -f "$BASELINE" ] || { echo "missing baseline $BASELINE" >&2; exit 1; }

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Same planted 9-block family as ci/trace-schema.sh / ci/kill-resume.sh.
awk -v n=5000 'BEGIN {
  for (v = 0; v < n; v++) {
    base = v % 9
    b = (base + (v % 5 == 0)) % 9
    c = (base + (v % 7 == 0)) % 9
    printf "%d,%d,%d\n", base, b, c
  }
}' > "$WORK/in5000.csv"

# Counters that must not move at all on the pinned workload. Everything the
# run does per distance lookup / node visit / kernel batch is covered, so a
# silently-added O(n^2) pass or a broken early-exit shows up here before any
# wall-clock measurement could see it through the noise.
GATED_COUNTERS=oracle_dense_evals,oracle_packed_evals,oracle_lazy_evals,ls_passes,ls_nodes_visited,ls_moves,kernels_row_batches,mem_high_water_bytes

run_workload() {
    "$BIN" aggregate --input "$WORK/in5000.csv" \
        --algorithm local-search --no-refine --threads 1 --seed 0 \
        --metrics-out "$1" --output /dev/null --log-level error \
        ${2:+--trace-out "$2"}
}

echo "== pinned workload: n=5000 local-search, threads=1 =="
run_workload "$WORK/current.json" "$WORK/trace.jsonl"

echo "== gate: current vs committed baseline =="
"$TRACE_BIN" diff --before "$BASELINE" --after "$WORK/current.json" \
    --gate-counters "$GATED_COUNTERS" \
    --share-tolerance-pts 25 --min-ns 20000000 \
    --fail-on-regression

echo "== self-test: a doctored baseline must FAIL the gate =="
python3 - "$BASELINE" "$WORK/doctored_counter.json" "$WORK/doctored_timing.json" <<'EOF'
import json, sys
base = json.load(open(sys.argv[1]))

# Doctored baseline 1: the run "used to" do half the oracle work, so the
# current run looks like a 2x counter regression. (The pinned workload reads
# no dense matrix, so the packed evaluations of its lower bound are the
# oracle work to halve.)
doc = json.loads(json.dumps(base))
doc["metrics"]["oracle_packed_evals"] //= 2
json.dump(doc, open(sys.argv[2], "w"))

# Doctored baseline 2: local_search "used to" be a sliver of the profile;
# rescale every other span up so local_search's share collapses in the
# baseline and the current run's share reads as a blow-up.
doc = json.loads(json.dumps(base))
for name, span in doc["timings"].items():
    if name != "local_search":
        span["total_ns"] *= 50
        span["self_ns"] *= 50
json.dump(doc, open(sys.argv[3], "w"))
EOF
for doctored in doctored_counter doctored_timing; do
    if "$TRACE_BIN" diff --before "$WORK/$doctored.json" --after "$WORK/current.json" \
        --gate-counters "$GATED_COUNTERS" \
        --share-tolerance-pts 25 --min-ns 20000000 \
        --fail-on-regression > "$WORK/$doctored.out"; then
        echo "gate self-test FAILED: $doctored baseline passed the gate" >&2
        cat "$WORK/$doctored.out" >&2
        exit 1
    fi
    grep -q "REGRESSION" "$WORK/$doctored.out"
    echo "OK: $doctored baseline tripped the gate"
done

echo "== flamegraph fold smoke-check =="
"$TRACE_BIN" fold --trace "$WORK/trace.jsonl" > "$WORK/folded.txt"
# Folded-stack grammar: 'name(;name)* <integer>' per line, nothing else.
awk '!/^[A-Za-z0-9_]+(;[A-Za-z0-9_]+)* [0-9]+$/ { print "bad folded line: " $0; bad = 1 }
     END { exit bad }' "$WORK/folded.txt"
grep -q "local_search " "$WORK/folded.txt"
grep -q "consensus;lower_bound " "$WORK/folded.txt"
echo "OK: $(wc -l < "$WORK/folded.txt") folded stacks, grammar valid"

echo "perf-gate: all checks passed"
