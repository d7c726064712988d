#!/usr/bin/env bash
# Observability acceptance checks (ISSUE 4):
#
#   1. Run an n = 2000 aggregation with --trace-out/--metrics-out and
#      validate both machine-readable outputs against their schemas:
#      every trace line is a JSON object of type event/span_start/span_end
#      with the documented keys, span ends pair with starts, and the run
#      report is {"schema":"aggclust-run-report-v1","metrics":{...}} with
#      every counter a non-negative integer.
#   2. Check the paper's Figure 5 scaling claim on the counters themselves:
#      at n = 5000, SAMPLING's distance-oracle evaluations stay O(n·s)
#      (≤ 5% of n²) while BALLS pays the full Θ(n²).
#   3. Validate the host block (DESIGN.md §6g): every run report carries
#      {"host":{arch,os,cpus,features,simd_requested,simd_selected}}, the
#      kernels_dispatch_tier metric is a known tier name matching the
#      host's selected tier, and a run forced to AGGCLUST_SIMD=swar
#      reports exactly that tier.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=target/release/aggclust
if [ ! -x "$BIN" ]; then
    cargo build --release -q -p aggclust-cli
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# Planted 9-block structure with deterministic disagreements (same family
# as ci/kill-resume.sh) at two sizes.
gen_input() {
    awk -v n="$1" 'BEGIN {
      for (v = 0; v < n; v++) {
        base = v % 9
        b = (base + (v % 5 == 0)) % 9
        c = (base + (v % 7 == 0)) % 9
        printf "%d,%d,%d\n", base, b, c
      }
    }'
}
gen_input 2000 > "$WORK/in2000.csv"
gen_input 5000 > "$WORK/in5000.csv"

echo "== n = 2000 run with --trace-out / --metrics-out =="
# BALLS reads the dense matrix; its LOCALSEARCH refinement (on by default)
# keeps the local_search span in the trace.
"$BIN" aggregate --input "$WORK/in2000.csv" --algorithm balls \
    --trace-out "$WORK/trace.jsonl" --metrics-out "$WORK/report.json" \
    --output /dev/null --log-level error

echo "== trace + report schema validation =="
python3 - "$WORK/trace.jsonl" "$WORK/report.json" <<'EOF'
import json
import sys

trace_path, report_path = sys.argv[1], sys.argv[2]

LEVELS = {"error", "warn", "info", "debug", "trace"}
open_spans = {}
counts = {"event": 0, "span_start": 0, "span_end": 0}

def is_uint(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0

with open(trace_path) as f:
    for lineno, line in enumerate(f, 1):
        rec = json.loads(line)
        kind = rec.get("type")
        assert kind in counts, f"line {lineno}: unknown type {kind!r}"
        counts[kind] += 1
        assert is_uint(rec.get("ts_ns")), f"line {lineno}: bad ts_ns"
        assert is_uint(rec.get("tid")) and rec["tid"] >= 1, f"line {lineno}: bad tid"
        assert isinstance(rec.get("fields"), dict), f"line {lineno}: bad fields"
        if kind == "event":
            assert rec.get("level") in LEVELS, f"line {lineno}: bad level"
            assert isinstance(rec.get("message"), str), f"line {lineno}: bad message"
        else:
            assert isinstance(rec.get("span"), str), f"line {lineno}: bad span"
            assert is_uint(rec.get("id")), f"line {lineno}: bad id"
            if kind == "span_start":
                assert rec["id"] not in open_spans, f"line {lineno}: id reused"
                open_spans[rec["id"]] = rec["span"]
            else:
                assert open_spans.pop(rec["id"], None) == rec["span"], \
                    f"line {lineno}: span_end without matching start"
                assert is_uint(rec.get("elapsed_ns")), f"line {lineno}: bad elapsed_ns"

assert counts["span_start"] > 0, "no spans were traced"
assert counts["span_end"] == counts["span_start"], "unbalanced spans"
assert not open_spans, f"spans never closed: {open_spans}"
spans = counts["span_start"]

report = json.load(open(report_path))
assert report.get("schema") == "aggclust-run-report-v1", "bad report schema tag"
metrics = report["metrics"]
TIERS = {"scalar", "swar", "sse2", "avx2", "avx512", "neon"}
host = report.get("host")
assert isinstance(host, dict), "report: missing host block"
assert isinstance(host.get("arch"), str) and host["arch"], "host: bad arch"
assert isinstance(host.get("os"), str) and host["os"], "host: bad os"
assert is_uint(host.get("cpus")) and host["cpus"] >= 1, "host: bad cpus"
assert isinstance(host.get("features"), list) and \
    all(isinstance(f, str) for f in host["features"]), "host: bad features"
assert host.get("simd_requested") in TIERS | {"auto"}, "host: bad simd_requested"
assert host.get("simd_selected") in TIERS, "host: bad simd_selected"

tier = metrics.get("kernels_dispatch_tier")
assert tier in TIERS, f"report: kernels_dispatch_tier {tier!r} not a tier name"
assert tier == host["simd_selected"], \
    f"report: dispatch tier {tier!r} != host simd_selected {host['simd_selected']!r}"

REQUIRED = [
    "oracle_dense_evals", "oracle_lazy_evals",
    "oracle_packed_evals", "kernels_fallback_scalar",
    "kernels_row_batches",
    "ls_passes", "ls_nodes_visited", "ls_moves",
    "linkage_merges", "linkage_chain_rebuilds",
    "balls_formed", "furthest_centers", "pivot_rounds", "exact_nodes",
    "sampling_runs", "sampling_sampled", "sampling_assigned",
    "sampling_reclustered",
    "checkpoint_saves", "checkpoint_retries", "checkpoint_failures",
    "checkpoint_corruptions",
    "interrupts_deadline", "interrupts_iteration_cap",
    "interrupts_cancelled", "interrupts_memory",
    "faults_injected",
    "mem_high_water_bytes",
]
for key in REQUIRED:
    assert is_uint(metrics.get(key)), f"report: bad counter {key!r}"
for key in ("ls_delta_hist", "checkpoint_bytes_hist"):
    hist = metrics.get(key)
    assert isinstance(hist, list) and len(hist) == 9 and all(map(is_uint, hist)), \
        f"report: bad histogram {key!r}"
assert isinstance(metrics.get("ls_improvement"), (int, float)), "bad ls_improvement"
assert metrics["ls_nodes_visited"] > 0, "LOCALSEARCH counters did not fire"
assert metrics["oracle_dense_evals"] > 0, "oracle counters did not fire"
assert metrics["oracle_packed_evals"] > 0, \
    "packed SWAR kernel counters did not fire -- dense build not on the packed path?"
assert metrics["kernels_row_batches"] > 0, \
    "kernels_row_batches did not fire -- banded fill not batching rows?"

# Timings block (ISSUE 9): per-span count/total/self/max aggregates, the
# self/total split consistent, and the spans this workload must traverse
# present with real time attributed.
timings = report.get("timings")
assert isinstance(timings, dict) and timings, "report: missing timings block"
for name, span in timings.items():
    assert isinstance(name, str) and name, "timings: empty span name"
    for key in ("count", "total_ns", "self_ns", "max_ns"):
        assert is_uint(span.get(key)), f"timings[{name!r}]: bad {key}"
    assert span["count"] > 0, f"timings[{name!r}]: zero count"
    assert span["self_ns"] <= span["total_ns"], \
        f"timings[{name!r}]: self_ns exceeds total_ns"
    assert span["max_ns"] <= span["total_ns"], \
        f"timings[{name!r}]: max_ns exceeds total_ns"
    hist = span.get("ns_hist")
    assert isinstance(hist, list) and len(hist) == 9 and all(map(is_uint, hist)), \
        f"timings[{name!r}]: bad ns_hist"
    assert sum(hist) == span["count"], \
        f"timings[{name!r}]: ns_hist does not sum to count"
for required_span in ("local_search", "dense_build", "condensed_alloc",
                      "cost", "lower_bound"):
    assert required_span in timings, f"timings: {required_span!r} span missing"
assert timings["local_search"]["total_ns"] > 0, "local_search span untimed"
assert timings["dense_build"]["total_ns"] >= \
    timings["condensed_alloc"]["total_ns"], \
    "condensed_alloc must nest inside dense_build"

# Faults array: a clean run records no injections.
faults = report.get("faults")
assert isinstance(faults, list), "report: missing faults array"
assert faults == [], f"clean run recorded injections: {faults}"

print(f"trace OK: {counts['event']} events, {spans} balanced spans; "
      f"report OK: {len(REQUIRED) + 2} metrics, {len(timings)} timed spans; "
      f"host OK: {host['arch']}/{host['cpus']}cpu tier={tier}")
EOF

echo "== n = 5000 scaling contrast: SAMPLING O(n*s) vs BALLS Theta(n^2) =="
"$BIN" aggregate --input "$WORK/in5000.csv" --sample 200 --no-refine \
    --metrics-out "$WORK/sampling.json" --output /dev/null --log-level error
"$BIN" aggregate --input "$WORK/in5000.csv" --algorithm balls --no-refine \
    --metrics-out "$WORK/balls.json" --output /dev/null --log-level error
python3 - "$WORK/sampling.json" "$WORK/balls.json" <<'EOF'
import json
import sys

def total_evals(path):
    m = json.load(open(path))["metrics"]
    return m["oracle_dense_evals"] + m["oracle_lazy_evals"]

n = 5000
sampling, balls = total_evals(sys.argv[1]), total_evals(sys.argv[2])
print(f"SAMPLING: {sampling} oracle evals ({100 * sampling / n**2:.2f}% of n^2)")
print(f"BALLS:    {balls} oracle evals ({100 * balls / n**2:.2f}% of n^2)")
assert sampling <= 0.05 * n**2, \
    f"SAMPLING oracle evals {sampling} exceed 5% of n^2 = {0.05 * n**2:.0f}"
assert balls >= 0.5 * n**2, \
    f"BALLS oracle evals {balls} below n^2/2 — is the counter wired?"
print("OK: the Figure 5 scaling claim holds on the counters")
EOF

echo "== capped run: the lazy oracle must serve it and labels must match =="
"$BIN" aggregate --input "$WORK/in2000.csv" --algorithm balls \
    --no-refine --output "$WORK/unconstrained.txt" --log-level error
"$BIN" aggregate --input "$WORK/in2000.csv" --algorithm balls \
    --no-refine --mem-budget-mb 1 \
    --metrics-out "$WORK/capped.json" --output "$WORK/capped.txt" \
    --log-level error
cmp "$WORK/unconstrained.txt" "$WORK/capped.txt"
python3 - "$WORK/capped.json" <<'EOF'
import json
import sys

metrics = json.load(open(sys.argv[1]))["metrics"]
assert metrics["oracle_lazy_evals"] > 0, "oracle_lazy_evals did not fire"
assert metrics["oracle_dense_evals"] == 0, "capped run still read a dense matrix"
print(f"OK: capped run made {metrics['oracle_lazy_evals']} lazy evaluations; "
      f"labels match the dense run")
EOF

echo "== capped LOCALSEARCH on total inputs: label counts, no matrix =="
"$BIN" aggregate --input "$WORK/in2000.csv" --algorithm local-search \
    --no-refine --output "$WORK/ls_unconstrained.txt" --log-level error
"$BIN" aggregate --input "$WORK/in2000.csv" --algorithm local-search \
    --no-refine --mem-budget-mb 1 \
    --metrics-out "$WORK/ls_capped.json" --output "$WORK/ls_capped.txt" \
    2> "$WORK/ls_capped.err"
cmp "$WORK/ls_unconstrained.txt" "$WORK/ls_capped.txt"
if grep -q "warning" "$WORK/ls_capped.err"; then
    cat "$WORK/ls_capped.err" >&2
    exit 1
fi
python3 - "$WORK/ls_capped.json" <<'EOF'
import json
import sys

metrics = json.load(open(sys.argv[1]))["metrics"]
assert metrics["oracle_lazy_evals"] == 0, "capped LOCALSEARCH read the lazy oracle"
assert metrics["oracle_dense_evals"] == 0, "capped LOCALSEARCH read a dense matrix"
assert metrics["ls_nodes_visited"] > 0, "LOCALSEARCH counters did not fire"
print("OK: capped LOCALSEARCH ran on label counts with no warning; labels match")
EOF

echo "== forced tier: AGGCLUST_SIMD=swar must be honored and reported =="
AGGCLUST_SIMD=swar "$BIN" aggregate --input "$WORK/in2000.csv" \
    --algorithm local-search --metrics-out "$WORK/swar.json" \
    --output /dev/null --log-level error
python3 - "$WORK/swar.json" <<'EOF'
import json
import sys

report = json.load(open(sys.argv[1]))
host, metrics = report["host"], report["metrics"]
assert host["simd_requested"] == "swar", f"requested {host['simd_requested']!r}"
assert host["simd_selected"] == "swar", f"selected {host['simd_selected']!r}"
assert metrics["kernels_dispatch_tier"] == "swar", \
    f"dispatch tier {metrics['kernels_dispatch_tier']!r} ignored AGGCLUST_SIMD=swar"
print("OK: AGGCLUST_SIMD=swar selected, recorded in host block and metrics")
EOF

echo "== faulted run: injections must land in the report's faults array =="
"$BIN" aggregate --input "$WORK/in2000.csv" --algorithm local-search \
    --no-refine --fault-plan "cli.input=delay:ms=5" \
    --metrics-out "$WORK/faulted.json" --output /dev/null --log-level error
python3 - "$WORK/faulted.json" <<'EOF'
import json
import sys

report = json.load(open(sys.argv[1]))
faults, metrics = report["faults"], report["metrics"]
assert isinstance(faults, list) and faults, "armed run recorded no injections"
assert all(isinstance(f, str) and f for f in faults), f"bad fault entries: {faults}"
assert any("cli.input" in f and "delay" in f for f in faults), \
    f"expected a cli.input delay injection, got: {faults}"
assert metrics["faults_injected"] == len(faults), \
    f"faults_injected={metrics['faults_injected']} != len(faults)={len(faults)}"
print(f"OK: {len(faults)} injections embedded, matching faults_injected")
EOF

echo "== --progress: heartbeats render as single stderr lines =="
# A missing label in every 11th row keeps LOCALSEARCH on the oracle path,
# long enough (seconds) for the 200 ms heartbeat cadence; on total inputs
# it finishes in tens of milliseconds.
awk -F, -v OFS=, 'NR % 11 == 0 { $3 = "?" } 1' "$WORK/in5000.csv" \
    > "$WORK/in5000_missing.csv"
"$BIN" aggregate --input "$WORK/in5000_missing.csv" --algorithm local-search \
    --no-refine --threads 1 --progress --output /dev/null \
    --log-level error 2> "$WORK/progress.txt"
grep -q "^progress: local_search " "$WORK/progress.txt"
awk '!/^progress: [a-z_]+ [0-9]+\/[0-9]+ / { print "bad progress line: " $0; bad = 1 }
     END { exit bad }' "$WORK/progress.txt"
echo "OK: $(wc -l < "$WORK/progress.txt") progress heartbeats, format valid"
