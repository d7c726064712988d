#!/usr/bin/env bash
# Kill-and-resume acceptance check (ISSUE 3):
#
#   1. Run LOCALSEARCH on n = 5000 with --checkpoint, SIGKILL it at ~50 ms
#      (a real crash: no handler runs, no final checkpoint is flushed).
#   2. Resume from whatever checkpoint survived on disk.
#   3. The resumed labels must be byte-identical to an uninterrupted run.
#
# Then the same kill/resume cycle under --mem-budget-mb 4, a cap far below
# the ~100 MB dense-matrix footprint: the run degrades to the lazy oracle
# (with a warning), and its resume must still produce the uncapped
# reference labels. The caller wraps this script in `timeout 60`.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=target/release/aggclust
if [ ! -x "$BIN" ]; then
    cargo build --release -q -p aggclust-cli
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# n = 5000, m = 3: planted 9-block structure with deterministic disagreement
# on every 5th and 7th row, so LOCALSEARCH has real moves to make.
awk 'BEGIN {
  for (v = 0; v < 5000; v++) {
    base = v % 9
    b = (base + (v % 5 == 0)) % 9
    c = (base + (v % 7 == 0)) % 9
    printf "%d,%d,%d\n", base, b, c
  }
}' > "$WORK/input.csv"

args=(aggregate --input "$WORK/input.csv" --algorithm local-search --no-refine)

echo "== reference (uninterrupted) =="
"$BIN" "${args[@]}" --output "$WORK/ref.txt"

# SIGKILL a checkpointed run at ~50 ms, resume it with the same extra
# options, and require the reference labels. $1 names the round; the rest
# are extra aggregate options (e.g. a memory cap).
kill_and_resume() {
    local round=$1
    shift
    local ckpt="$WORK/$round.ckpt"
    echo "== $round: victim (SIGKILL at ~50 ms) =="
    "$BIN" "${args[@]}" "$@" --checkpoint "$ckpt" --checkpoint-every-ms 5 \
        --output "$WORK/$round.victim.txt" 2>/dev/null &
    victim=$!
    sleep 0.05
    # The O(n²) matrix build precedes the first checkpoint; killing before
    # one exists would only exercise the (also valid) fresh-start path.
    # Hold the kill until a checkpoint is on disk or the victim exits.
    for _ in $(seq 1 300); do
        [ -f "$ckpt" ] && break
        kill -0 "$victim" 2>/dev/null || break
        sleep 0.01
    done
    kill -KILL "$victim" 2>/dev/null || echo "note: run finished before the kill"
    wait "$victim" 2>/dev/null || true
    if [ -f "$ckpt" ]; then
        echo "checkpoint survived the kill ($(wc -c < "$ckpt") bytes)"
    else
        echo "note: killed before the first checkpoint; resume starts fresh"
    fi

    echo "== $round: resume =="
    "$BIN" "${args[@]}" "$@" --checkpoint "$ckpt" --resume \
        --output "$WORK/$round.resumed.txt"
    cmp "$WORK/ref.txt" "$WORK/$round.resumed.txt"
    echo "OK: $round resumed labels are byte-identical to the uninterrupted run"
}

kill_and_resume uncapped
kill_and_resume capped --mem-budget-mb 4

echo "== --mem-budget-mb degradation smoke =="
"$BIN" "${args[@]}" --mem-budget-mb 4 --output "$WORK/mem.txt" 2> "$WORK/mem.err"
grep -q "lazy oracle" "$WORK/mem.err"
cmp "$WORK/ref.txt" "$WORK/mem.txt"
echo "OK: memory-capped run degraded to the lazy oracle with identical labels"
