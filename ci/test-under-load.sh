#!/usr/bin/env bash
# Tests under load: ROUNDS rounds (first argument, default 20) of two
# concurrent `cargo test` processes running the core library's unit tests
# and the counter-determinism and checkpoint-resume suites beside a CPU
# busy loop. Each run measures its
# counters on its own registry, so neither the other process nor the
# loaded CPU may change a result. Any failed run fails the script.
set -euo pipefail

cd "$(dirname "$0")/.."
ROUNDS=${1:-20}
TESTS=(cargo test -q -p aggclust-core --lib --test telemetry_determinism --test checkpoint_resume)
"${TESTS[@]}" --no-run

WORK=$(mktemp -d)
BUSY=""
trap '[ -z "$BUSY" ] || kill "$BUSY" 2>/dev/null; rm -rf "$WORK"' EXIT

failed=0
for round in $(seq 1 "$ROUNDS"); do
    (while :; do :; done) &
    BUSY=$!
    "${TESTS[@]}" >"$WORK/a.log" 2>&1 & A=$!
    "${TESTS[@]}" >"$WORK/b.log" 2>&1 & B=$!
    status=0
    wait "$A" || status=1
    wait "$B" || status=1
    kill "$BUSY" && wait "$BUSY" 2>/dev/null || true
    BUSY=""
    if [ "$status" -eq 0 ]; then
        echo "round $round/$ROUNDS: ok"
    else
        failed=$((failed + 1))
        echo "round $round/$ROUNDS: FAILED"
        grep -h -B2 -A8 "panicked" "$WORK"/a.log "$WORK"/b.log | head -60 || true
    fi
done
echo "test-under-load: $((ROUNDS - failed))/$ROUNDS rounds passed"
[ "$failed" -eq 0 ]
