#!/usr/bin/env bash
#===- scripts/perf_smoke.sh - Simulator hot-path perf smoke --------------===#
#
# Runs the heaviest bench binary (fig13_main_comparison) cold on one job,
# once with the engine's phase 1 on one thread and once spread over
# several (--sim-threads), and records both as entries in
# BENCH_sim_hotpath.json. The two legs must print byte-identical tables:
# the thread count may change wall time only. Wall time and
# accesses/second are informational — CI machines vary too much for a
# hard threshold — so this script fails when the binary fails or the
# legs disagree, never on timing.
#
# simulated_accesses and accesses_per_second come from the bench's own
# --emit-json artifact (the obs/ counters and the summed "sim.execute"
# phase seconds), not from re-scraping stdout or re-dividing by wall
# clock: the rate then measures the simulation hot path itself, without
# mapping/clustering time diluting it. Without python3 the script falls
# back to stderr scraping and wall-clock division, and says so.
#
# Usage: scripts/perf_smoke.sh <build-dir> [output-json] [sim-threads]
#
#===----------------------------------------------------------------------===#

set -u -o pipefail

BUILD_DIR="${1:?usage: perf_smoke.sh <build-dir> [output-json] [sim-threads]}"
OUT_JSON="${2:-BENCH_sim_hotpath.json}"
SIM_THREADS="${3:-4}"
BENCH="$BUILD_DIR/bench/fig13_main_comparison"

if [ ! -x "$BENCH" ]; then
  echo "perf_smoke: $BENCH not built" >&2
  exit 1
fi

# One cold leg: throwaway cache directory and a single worker so the
# measurement is the raw single-run simulation path. Arguments: a label
# for log lines, the --sim-threads value and the file that receives the
# bench's stdout. Each leg appends one JSON object to the ENTRIES
# accumulator.
ENTRIES=""
run_leg() {
  local LABEL="$1" THREADS="$2" STDOUT_FILE="$3"
  local CACHE_DIR STDERR_LOG ARTIFACT
  CACHE_DIR="$(mktemp -d)"
  STDERR_LOG="$(mktemp)"
  ARTIFACT="$(mktemp)"

  local START_NS END_NS
  START_NS=$(date +%s%N)
  if ! "$BENCH" --jobs=1 --cache-dir="$CACHE_DIR" --no-timing \
      --sim-threads="$THREADS" \
      --emit-json="$ARTIFACT" >"$STDOUT_FILE" 2>"$STDERR_LOG"; then
    echo "perf_smoke: fig13_main_comparison failed ($LABEL)" >&2
    cat "$STDERR_LOG" >&2
    rm -rf "$CACHE_DIR" "$STDERR_LOG" "$ARTIFACT"
    exit 1
  fi
  END_NS=$(date +%s%N)

  local WALL_S
  WALL_S=$(awk -v a="$START_NS" -v b="$END_NS" \
           'BEGIN { printf "%.3f", (b - a) / 1e9 }')

  local METRICS
  if command -v python3 >/dev/null 2>&1; then
    # Accesses from the artifact's obs counter, the rate from accesses /
    # summed sim.execute phase seconds, plus the full per-phase map.
    METRICS=$(python3 - "$ARTIFACT" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
totals = {}
for run in doc.get("runs", []):
    for phase in run.get("phases", []):
        totals[phase["name"]] = (totals.get(phase["name"], 0.0)
                                 + (phase.get("seconds") or 0.0))
accesses = doc.get("simulated_accesses", 0)
execute = totals.get("sim.execute", 0.0)
rate = int(accesses / execute) if execute > 0 else 0
print(json.dumps({
    "simulated_accesses": accesses,
    "sim_execute_seconds": round(execute, 6),
    "accesses_per_second": rate,
    "phase_seconds": {k: round(v, 6) for k, v in sorted(totals.items())},
}))
PYEOF
    )
  else
    echo "perf_smoke: python3 missing, falling back to stderr scraping" >&2
    # The runner prints "[exec] jobs=1 simulated=<runs> accesses=<N> ..."
    local ACCESSES RATE
    ACCESSES=$(sed -n 's/.*\[exec\].* accesses=\([0-9]*\).*/\1/p' \
               "$STDERR_LOG" | tail -1)
    ACCESSES="${ACCESSES:-0}"
    RATE=$(awk -v n="$ACCESSES" -v s="$WALL_S" \
           'BEGIN { printf "%.0f", (s > 0 ? n / s : 0) }')
    METRICS=$(printf '{"simulated_accesses": %s, "sim_execute_seconds": 0, "accesses_per_second": %s, "phase_seconds": {}}' \
              "$ACCESSES" "$RATE")
  fi
  rm -rf "$CACHE_DIR" "$STDERR_LOG" "$ARTIFACT"

  local ENTRY
  ENTRY=$(printf '{"config": "cold cache, --jobs=1 --sim-threads=%s", "sim_threads": %s, "wall_seconds": %s, %s' \
          "$THREADS" "$THREADS" "$WALL_S" "${METRICS#\{}")
  if [ -n "$ENTRIES" ]; then
    ENTRIES="$ENTRIES,
    $ENTRY"
  else
    ENTRIES="$ENTRY"
  fi
  echo "perf_smoke: $LABEL: ${WALL_S}s wall, $METRICS"
}

ONE_OUT="$(mktemp)"
MANY_OUT="$(mktemp)"
run_leg "1 thread" 1 "$ONE_OUT"
run_leg "$SIM_THREADS threads" "$SIM_THREADS" "$MANY_OUT"
if ! cmp -s "$ONE_OUT" "$MANY_OUT"; then
  echo "perf_smoke: --sim-threads=$SIM_THREADS changed the tables:" >&2
  diff "$ONE_OUT" "$MANY_OUT" >&2
  rm -f "$ONE_OUT" "$MANY_OUT"
  exit 1
fi
rm -f "$ONE_OUT" "$MANY_OUT"

# The CPU count of the measuring machine: wall seconds are only
# comparable between like machines.
CPUS=$(nproc 2>/dev/null || echo 1)

cat > "$OUT_JSON" <<EOF
{
  "schema": "cta-sim-hotpath-v2",
  "benchmark": "fig13_main_comparison",
  "cpus": $CPUS,
  "entries": [
    $ENTRIES
  ]
}
EOF

echo "perf_smoke: wrote $OUT_JSON (cpus=$CPUS)"
