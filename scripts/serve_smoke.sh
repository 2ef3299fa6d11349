#!/usr/bin/env bash
#===- scripts/serve_smoke.sh - End-to-end smoke of cta serve -------------===#
#
# Boots a real daemon on a scratch Unix socket and drives it with the
# cta client load generator: a warm-only phase (every request after the
# prime must be answered from the in-memory index), then a warm/cold mix
# (cold requests carry unique alphas, so each one exercises the full
# admission -> dispatch -> simulate path). Both the captured response
# document and the bench report are validated against the published
# schemas, and the daemon must drain cleanly on SIGTERM: exit 0, socket
# unlinked, summary line on stderr.
#
# A second daemon then runs with the full telemetry plane enabled
# (--metrics-port 0 --log-json): /metrics and /healthz are scraped
# mid-load (missing or non-monotonic counters fail), every request trace
# the event log admits must also complete, warm throughput with
# telemetry on is gated at <= 5%
# against the telemetry-off daemon (both measured interleaved on this
# same host, best-of-ten per side), and an unwritable --log-json path
# must die with the positioned caret diagnostic.
#
# Usage: scripts/serve_smoke.sh <build-dir> [output-bench-json]
#
# The optional second argument saves the warm-phase cta-serve-bench-v1
# report (the document compare_bench.py gates on) outside the scratch
# directory, e.g. for upload or baseline refresh.
#
#===----------------------------------------------------------------------===#

set -u -o pipefail

BUILD_DIR="${1:?usage: serve_smoke.sh <build-dir> [output-bench-json]}"
OUT_BENCH="${2:-}"
CTA="$BUILD_DIR/tools/cta/cta"
SCRIPTS_DIR="$(cd "$(dirname "$0")" && pwd)"

if [ ! -x "$CTA" ]; then
  echo "serve_smoke: $CTA not built" >&2
  exit 1
fi

DIR="$(mktemp -d)"
SOCK="$DIR/serve.sock"
SRV_PID=""
SRV2_PID=""
fail() {
  echo "serve_smoke: $1" >&2
  [ -s "$DIR/serve.log" ] && sed 's/^/serve_smoke: [daemon] /' "$DIR/serve.log" >&2
  exit 1
}
cleanup() {
  [ -n "$SRV_PID" ] && kill -KILL "$SRV_PID" 2>/dev/null
  [ -n "$SRV2_PID" ] && kill -KILL "$SRV2_PID" 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT

"$CTA" serve --socket "$SOCK" --cache-dir "$DIR/cache" --jobs 4 \
  2>"$DIR/serve.log" &
SRV_PID=$!

for _ in $(seq 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$SRV_PID" 2>/dev/null || fail "daemon died before creating the socket"
  sleep 0.1
done
[ -S "$SOCK" ] || fail "daemon never created $SOCK"

# Phase 1: warm throughput. One priming request populates the index;
# the 300 measured requests must then all be served warm. The captured
# response and the bench report both go through the schema checker.
"$CTA" client --socket "$SOCK" --workload cg --machine dunnington \
  --requests 300 --concurrency 8 --mix 1:0 \
  --emit-json "$DIR/warm-bench.json" \
  --dump-response "$DIR/warm-resp.json" \
  || fail "warm client run failed"
python3 "$SCRIPTS_DIR/check_artifact_schema.py" \
  "$DIR/warm-bench.json" "$DIR/warm-resp.json" \
  || fail "warm artifacts violate the schema"
python3 - "$DIR/warm-bench.json" <<'PYEOF' || fail "warm phase was not warm"
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"] == doc["requests"] == 300, doc
assert doc["cache_status"] == {"warm": 300}, doc["cache_status"]
PYEOF

# One 10000-request warm measurement run against socket $1, report to $2;
# with warm answers spliced from the daemon's memo it lasts about 0.2 s
# on a 4-vCPU host (2000 requests lasted 40 ms, too short to time).
# Single 0.2s samples swing with scheduler noise far beyond the 5%
# overhead gate, so the gate below interleaves several of these per
# daemon and compares peak against peak.
warm_try() {
  "$CTA" client --socket "$1" --workload cg --machine dunnington \
    --requests 10000 --concurrency 8 --mix 1:0 \
    --emit-json "$2"
}
pick_best() {
  python3 - "$1" "$1".try* <<'PYEOF'
import json, shutil, sys
best = max(sys.argv[2:],
           key=lambda p: json.load(open(p))["requests_per_second"])
shutil.copy(best, sys.argv[1])
PYEOF
}

# Phase 2: warm/cold mix on a different workload so the cold requests
# really run the simulator (unique alphas -> unique fingerprints).
"$CTA" client --socket "$SOCK" --workload sp --machine nehalem \
  --requests 60 --concurrency 4 --mix 2:1 \
  --emit-json "$DIR/mix-bench.json" \
  || fail "mixed client run failed"
python3 "$SCRIPTS_DIR/check_artifact_schema.py" "$DIR/mix-bench.json" \
  || fail "mixed artifact violates the schema"
python3 - "$DIR/mix-bench.json" <<'PYEOF' || fail "mixed phase lost requests"
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"] == doc["requests"] == 60, doc
status = doc["cache_status"]
cold = sum(v for k, v in status.items() if k != "warm")
assert status.get("warm", 0) == 40 and cold == 20, status
PYEOF

# Phase 3: the telemetry plane. A second daemon with the Prometheus
# endpoint (kernel-assigned port, parsed from the startup line) and the
# structured event log. The first daemon stays up for
# now: the overhead gate below measures both interleaved.
SOCK2="$DIR/serve-tel.sock"
"$CTA" serve --socket "$SOCK2" --cache-dir "$DIR/cache-tel" --jobs 4 \
  --metrics-port 0 --log-json "$DIR/events.jsonl" \
  2>"$DIR/serve-tel.log" &
SRV2_PID=$!
for _ in $(seq 100); do
  [ -S "$SOCK2" ] && break
  kill -0 "$SRV2_PID" 2>/dev/null || fail "telemetry daemon died on startup"
  sleep 0.1
done
[ -S "$SOCK2" ] || fail "telemetry daemon never created $SOCK2"
METRICS_URL=""
for _ in $(seq 50); do
  METRICS_URL="$(sed -n 's/^cta serve: metrics on \(http[^ ]*\)$/\1/p' \
    "$DIR/serve-tel.log")"
  [ -n "$METRICS_URL" ] && break
  sleep 0.1
done
[ -n "$METRICS_URL" ] || fail "telemetry daemon never printed its metrics URL"

scrape() {
  python3 - "$METRICS_URL" "$1" <<'PYEOF'
import sys, urllib.request
base = sys.argv[1].rsplit("/metrics", 1)[0]
with urllib.request.urlopen(base + "/healthz", timeout=10) as r:
    assert r.read().decode().strip() == "ok", "/healthz is not ok"
with urllib.request.urlopen(sys.argv[1], timeout=10) as r:
    text = r.read().decode()
with open(sys.argv[2], "w") as f:
    f.write(text)
for needed in ("cta_serve_requests_total", "cta_uptime_seconds",
               "cta_serve_latency_warm_bucket"):
    assert any(l.startswith(needed) for l in text.splitlines()), \
        f"{needed} missing from /metrics"
PYEOF
}

# Warm phase with telemetry on, same recipe as phase 1 so the overhead
# gate below compares like with like. The warm load finishes in tens of
# milliseconds, so /metrics is sampled before it and again mid-way
# through the (much slower) cold mix that follows.
scrape "$DIR/metrics-1.txt" || fail "pre-load /metrics scrape failed"
# Unmeasured 300-request warm-up mirroring phase 1, so both daemons
# enter the measurement below from the same state (the telemetry-off
# daemon already served its 300-request phase 1).
"$CTA" client --socket "$SOCK2" --workload cg --machine dunnington \
  --requests 300 --concurrency 8 --mix 1:0 \
  || fail "telemetry warm-up client run failed"

# Overhead measurement: ten 10000-request warm runs per daemon,
# strictly interleaved (off, on, off, on, ...) so slow host drift hits
# both sides equally instead of biasing whichever side ran later. The
# gate compares the best run of each side.
for i in $(seq 10); do
  warm_try "$SOCK" "$DIR/warm-off-long.json.try$i" \
    || fail "telemetry-off warm measurement run failed"
  warm_try "$SOCK2" "$DIR/warm-tel-bench.json.try$i" \
    || fail "telemetry-on warm measurement run failed"
done
pick_best "$DIR/warm-off-long.json"
pick_best "$DIR/warm-tel-bench.json"

# Graceful shutdown of the telemetry-off daemon: SIGTERM must drain,
# unlink the socket and exit 0.
kill -TERM "$SRV_PID"
wait "$SRV_PID"
SRV_RC=$?
SRV_PID=""
[ "$SRV_RC" -eq 0 ] || fail "daemon exited $SRV_RC on SIGTERM"
[ -S "$SOCK" ] && fail "daemon left $SOCK behind"
grep -q '^\[serve\] requests=' "$DIR/serve.log" \
  || fail "daemon exited without its summary line"

# A cold mix, and the event log records the lifecycle of every cold
# request. Its 40 cold simulations take over a second on a 4-vCPU host,
# so the scrape below lands mid-load; the client must still be running
# once the scrape is done, or the scrape proved nothing.
"$CTA" client --socket "$SOCK2" --workload sp --machine nehalem \
  --requests 80 --concurrency 2 --mix 1:1 &
CLIENT_PID=$!
sleep 0.3
scrape "$DIR/metrics-2.txt" || { kill "$CLIENT_PID" 2>/dev/null; \
  fail "mid-load /metrics scrape failed"; }
kill -0 "$CLIENT_PID" 2>/dev/null \
  || fail "the cold mix finished before the mid-load /metrics scrape"
wait "$CLIENT_PID" || fail "telemetry mixed client run failed"
scrape "$DIR/metrics-3.txt" || fail "post-load /metrics scrape failed"
python3 - "$DIR/metrics-1.txt" "$DIR/metrics-2.txt" "$DIR/metrics-3.txt" \
  <<'PYEOF' || fail "counters missing or non-monotonic across scrapes"
import sys
def counters(path):
    out = {}
    for line in open(path):
        if line.startswith("#") or not line.strip():
            continue
        name, value = line.rsplit(None, 1)
        if name.endswith("_total") or "_bucket" in name or \
                name.endswith("_count"):
            out[name] = float(value)
    return out
scrapes = [counters(p) for p in sys.argv[1:]]
assert scrapes[0], "no counters in the first scrape"
for earlier, later in zip(scrapes, scrapes[1:]):
    for name, value in earlier.items():
        assert later.get(name, -1.0) >= value, \
            f"{name} went backwards: {value} -> {later.get(name)}"
assert scrapes[-1]["cta_serve_requests_total"] > \
    scrapes[0]["cta_serve_requests_total"], \
    "cta_serve_requests_total never advanced across the load"
PYEOF
kill -TERM "$SRV2_PID"
wait "$SRV2_PID"
SRV_RC=$?
SRV2_PID=""
[ "$SRV_RC" -eq 0 ] || fail "telemetry daemon exited $SRV_RC on SIGTERM"
python3 "$SCRIPTS_DIR/check_artifact_schema.py" \
  "$DIR/events.jsonl" "$DIR/warm-tel-bench.json" \
  || fail "telemetry artifacts violate the schema"
python3 - "$DIR/events.jsonl" <<'PYEOF' || fail "event log lost a request"
import json, sys
events = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert events, "event log is empty"
# Every cold request that was admitted must close: one completed event
# per admitted trace.
admitted = {e["trace_id"]: e for e in events
            if e["event"] == "admitted" and "trace_id" in e}
assert admitted, "no admitted events carry a trace_id"
completed = {e.get("trace_id") for e in events if e["event"] == "completed"}
missing = set(admitted) - completed
assert not missing, f"admitted traces never completed: {sorted(missing)}"
print(f"serve_smoke: event log OK ({len(admitted)} traces, all completed)")
PYEOF

# Telemetry overhead gate: warm throughput with the full plane on must
# stay within 5% of the telemetry-off run measured on this same host.
python3 "$SCRIPTS_DIR/compare_bench.py" \
  "$DIR/warm-off-long.json" "$DIR/warm-tel-bench.json" --max-regress=5 \
  || fail "telemetry overhead exceeds the 5% gate"

# Negative: an unwritable --log-json path dies with the positioned caret
# diagnostic naming the flag, before the daemon ever listens.
if "$CTA" serve --socket "$DIR/neg.sock" \
    --log-json /nonexistent-dir/events.jsonl 2>"$DIR/neg.log"; then
  fail "unwritable --log-json unexpectedly succeeded"
fi
grep -q "cannot write event log" "$DIR/neg.log" \
  || fail "unwritable --log-json died without the diagnostic"
grep -q -- "--log-json" "$DIR/neg.log" \
  || fail "--log-json diagnostic does not name the flag"

if [ -n "$OUT_BENCH" ]; then
  cp "$DIR/warm-bench.json" "$OUT_BENCH"
  echo "serve_smoke: wrote $OUT_BENCH"
fi

sed 's/^/serve_smoke: [daemon] /' "$DIR/serve.log"
echo "serve_smoke: OK (warm 300/300, mixed 60/60, telemetry plane live, clean SIGTERM drain)"
