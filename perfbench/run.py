#!/usr/bin/env python3
"""The CTA benchmark: one command, three workloads, outputs checked.

    python3 perfbench/run.py --workload sweep_cold|serve_warm|serve_mixed
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the program from the
checkout's sources into .bench_build/ (perfbench/CMakeLists.txt); every run
works in its own directory under .bench_run/ and removes it at the end.

--trace 0 measures the end-to-end metrics with no tracing anywhere.
--trace 1 is a separate, traced invocation of the same workload that
reports the per-layer metrics from the benchmark's own spans.

stdout carries a readable report (every metric with its unit and sample
count, host facts, output checks) and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
perfbench/README.md documents the workloads, metrics and layer map.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUNS_DIR = ".bench_run"
BUILD_TYPE = "RelWithDebInfo"

MACHINES = ["harpertown", "nehalem", "dunnington"]
# The warm keys: TopologyAware on the three presets for four apps whose
# priming is cheap, with DSL sources of different sizes.
WARM_APPS = ["applu", "galgel", "facesim", "mesa"]
COLD_STRATEGIES = ["topology-aware", "combined", "adaptive-greedy",
                   "adaptive-mw"]
DAEMON_JOBS = 2
LOAD_CONNS = 2
SETUP_REPS = 5          # cold daemon boots (serve) per run
SWEEP_SETUP_EVERY = 6   # an extra in-process set-up after every 6 runs
WARM_ROUND_REQUESTS = 10000
PROBE_RATE = 100.0      # warm requests per second beside the cold load
REPLAY_WARM_REPEAT = 200
# Every end-to-end time is scaled by this over the median reading of the
# benchmark's own host probe (Probe.h) taken beside the work, so it reads in
# seconds of a host on which the probe takes 20 ms. Shared virtual machines
# run the same code up to 1.5x slower for minutes at a time; the probe
# follows that and no change to the program can move it.
PROBE_REFERENCE_S = 0.020

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "ok_ratio": "ratio", "p50_ms": "ms", "tail_ms": "ms",
}

# (name, unit); every workload reports every one, 0 where its load never
# crosses the layer. per_layer_metrics() says how each is derived.
PER_LAYER = [
    ("core.tag.cpu_s", "s"), ("core.tag.iterations", "count"),
    ("core.coarsen.cpu_s", "s"), ("core.coarsen.groups_out", "count"),
    ("core.dependence.cpu_s", "s"), ("core.cluster.cpu_s", "s"),
    ("core.cluster.groups_in", "count"), ("core.cluster.merges", "count"),
    ("core.cluster.peak_mb", "MB"), ("core.schedule.cpu_s", "s"),
    ("core.baseline.cpu_s", "s"), ("core.pipeline_whole.cpu_s", "s"),
    ("sim.trace_compile.cpu_s", "s"), ("sim.trace_compile.calls", "count"),
    ("sim.execute.cpu_s", "s"), ("sim.execute.accesses", "count"),
    ("sim.execute.maccesses_per_cpu_s", "M/s"),
    ("runtime.adapt.cpu_s", "s"), ("runtime.adapt.remaps", "count"),
    ("exec.fingerprint.cpu_us", "us"), ("exec.cache_store.cpu_s", "s"),
    ("exec.cache_store.bytes", "bytes"), ("frontend.parse.cpu_us", "us"),
    ("serve.request_parse.cpu_us", "us"), ("serve.warm_lookup.cpu_us", "us"),
    ("serve.render.cpu_us", "us"), ("serve.response_bytes", "bytes"),
    ("serve.queue_s.p50", "s"), ("serve.queue_s.p90", "s"),
    ("serve.service_s.p50", "s"), ("serve.service_s.p90", "s"),
    ("serve.transport_us.p50", "us"), ("serve.probe_us.p50", "us"),
    ("serve.probe_us.p99", "us"), ("serve.probe_late_ms.max", "ms"),
    ("workloads.build.cpu_s", "s"), ("trace.remainder_cpu_s", "s"),
    ("trace.overhead_s", "s"),
]


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    """The environment for every process started: no CTA_* settings leak
    in, so no workload turns on --sim-threads, --workers or a cache."""
    return {k: v for k, v in os.environ.items() if not k.startswith("CTA_")}


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolated percentile (q in [0, 100]); also the number of
    samples strictly above it."""
    s = sorted(values)
    if not s:
        return 0.0, 0
    pos = (len(s) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    v = s[lo] + (s[hi] - s[lo]) * (pos - lo)
    return v, sum(1 for x in s if x > v)


def tail(values, q):
    """The q-th percentile, refusing one with fewer than ten samples
    beyond it."""
    v, beyond = percentile(values, q)
    if beyond < 10:
        raise BenchError("p%g of %d samples has only %d beyond it"
                         % (q, len(values), beyond))
    return v


def median(values):
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------------
# Build and host facts
# --------------------------------------------------------------------------

def check_checkout():
    for rel in ("src/CMakeLists.txt", "tools/cta/CMakeLists.txt",
                "workloads/dsl", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise BenchError("not a CTA checkout: %s is missing" % rel)


def build():
    """Configures once, then brings the three targets up to date."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    logpath = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "cta", "perfbench", "loadgen"])
    with open(logpath, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=child_env()).returncode != 0:
                with open(logpath) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def tool(name):
    return os.path.abspath(os.path.join(
        BUILD_DIR, "cta_tool/cta" if name == "cta" else name))


def source_revision():
    """The git revision when there is one, else a digest of the sources
    the benchmark builds (a checkout need not be a repository)."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def proc_stat():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    return [int(x) for x in fields]


class Interference:
    """CPU use over the measured phase, from /proc/stat, set against the
    CPU the processes under measurement used themselves."""

    def start(self):
        self.t0 = time.monotonic()
        self.s0 = proc_stat()
        self.own0 = own_cpu()

    def stop(self, extra_own=0.0):
        wall = time.monotonic() - self.t0
        d = [b - a for a, b in zip(self.s0, proc_stat())]
        hz = os.sysconf("SC_CLK_TCK")
        busy = (sum(d[:8]) - d[3] - d[4]) / hz
        own = own_cpu() - self.own0 + extra_own
        return {
            "measured_wall_s": round(wall, 3),
            "busy_cpu_s": round(busy, 3),
            "own_cpu_s": round(own, 3),
            "other_cpu_s": round(max(0.0, busy - own), 3),
            "steal_s": round(d[7] / hz, 3),
        }


def own_cpu():
    """CPU of this process and its reaped children."""
    a = os.times()
    return a.user + a.system + a.children_user + a.children_system


def host_facts():
    with open("/proc/loadavg") as f:
        load = f.read().split()[:3]
    return {"nproc": os.cpu_count(), "build_type": BUILD_TYPE,
            "revision": source_revision(), "loadavg": " ".join(load)}


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------

def run_tool(cmd, cwd, timeout=170):
    out = subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True,
                         text=True, timeout=timeout)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-3000:])
        raise BenchError("%s exited with %d" % (os.path.basename(cmd[0]),
                                                 out.returncode))
    return out.stdout


def load_json(path):
    with open(path) as f:
        return json.load(f)


def frame(payload):
    data = payload.encode()
    return struct.pack(">I", len(data)) + data


def recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise BenchError("daemon closed the connection")
        buf += chunk
    return buf


def recv_frame(sock):
    (n,) = struct.unpack(">I", recv_exact(sock, 4))
    return recv_exact(sock, n).decode()


class Daemon:
    """One `cta serve` process, stopped and waited for in every case."""

    def __init__(self, rundir, tag):
        self.sock = os.path.join(rundir, "d%s.sock" % tag)
        cmd = [tool("cta"), "serve", "--socket", os.path.basename(self.sock),
               "--jobs", str(DAEMON_JOBS), "--cache-dir", "cache-%s" % tag]
        self.log = open(os.path.join(rundir, "daemon-%s.log" % tag), "w")
        self.proc = subprocess.Popen(cmd, cwd=rundir, env=child_env(),
                                     stdout=self.log, stderr=self.log)

    def wait_ready(self, timeout=20.0):
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            if self.proc.poll() is not None:
                raise BenchError("cta serve exited during start-up")
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.connect(self.sock)
                return
            except OSError:
                time.sleep(0.002)
        raise BenchError("cta serve did not start listening")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def cpu_seconds(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def dsl_text(app, salt):
    with open(os.path.join("workloads", "dsl", app + ".cta")) as f:
        return "# perfbench %s\n%s" % (salt, f.read())


def request(dsl, app, strategy, machine=None, topo=None):
    req = {"schema": "cta-serve-req-v1", "client": "perfbench",
           "dsl": dsl, "dsl_name": app + ".cta", "strategy": strategy}
    if topo is not None:
        req["topo"] = topo
    else:
        req["machine"] = machine
    return json.dumps(req, separators=(",", ":"))


def warm_payloads(seed):
    return [request(dsl_text(app, "seed %d warm %s/%s" % (seed, app, m)),
                    app, "topology-aware", machine=m)
            for app in WARM_APPS for m in MACHINES]


def cold_payloads(seed, degraded_topo):
    """Three quarters of app x {3 presets, degraded Dunnington} x 4
    strategies, balanced: every (app, machine) three times and every (app,
    strategy) three times, so p90 sees the same mix under every seed. The
    seed picks the quarter left out and the order; a salted comment gives
    every request a fresh fingerprint."""
    apps = sorted(os.path.splitext(n)[0]
                  for n in os.listdir(os.path.join("workloads", "dsl"))
                  if n.endswith(".cta"))
    machines = MACHINES + ["dunnington-degraded"]
    cells = []
    for a, app in enumerate(apps):
        for m, machine in enumerate(machines):
            skip = (a + m + seed) % len(COLD_STRATEGIES)
            for s, strat in enumerate(COLD_STRATEGIES):
                if s != skip:
                    cells.append((app, machine, strat))
    rng = random.Random(seed)
    rng.shuffle(cells)
    out = []
    for n, (app, m, strat) in enumerate(cells):
        dsl = dsl_text(app, "seed %d cold %d" % (seed, n))
        if m == "dunnington-degraded":
            out.append(request(dsl, app, strat, topo=degraded_topo))
        else:
            out.append(request(dsl, app, strat, machine=m))
    return out, cells


def prime(daemon, payloads):
    """Sends every warm payload once (pipelined on one connection) and
    returns the answers in payload order, plus how many failed."""
    answers = {}
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(daemon.sock)
        for i, p in enumerate(payloads):
            s.sendall(frame('{"id":"prime%d",' % i + p[1:]))
        for _ in payloads:
            resp = recv_frame(s)
            answers[json.loads(resp).get("id")] = resp
    ordered, failed = [], 0
    for i in range(len(payloads)):
        resp = answers.get("prime%d" % i, "")
        doc = json.loads(resp) if resp else {}
        if doc.get("status") != "ok" or doc.get("cache_status") != "miss":
            failed += 1
        ordered.append(resp)
    return ordered, failed


def boot_and_prime(rundir, payloads):
    """SETUP_REPS cold boots, each with an empty cache; all but the last
    daemon are stopped. Returns (daemon, set-up samples, priming answers,
    priming failures)."""
    samples, failed, daemon, answers = [], 0, None, None
    for rep in range(SETUP_REPS):
        if daemon:
            daemon.stop()
        t0 = time.monotonic()
        daemon = Daemon(rundir, str(rep))
        try:
            daemon.wait_ready()
            answers, bad = prime(daemon, payloads)
        except BaseException:
            daemon.stop()
            raise
        samples.append(time.monotonic() - t0)
        failed += bad
    return daemon, samples, answers, failed


def record_probe(report, probes, raw_cpu):
    """Host facts: the probe readings the times were scaled by, and the
    unscaled CPU they scaled."""
    report["interference"]["host_probe_ms"] = " ".join(
        "%.3f" % (1e3 * x) for x in probes)
    report["interference"]["unscaled_cpu_s"] = " ".join(
        "%.3f" % x for x in raw_cpu)


def write_lines(path, lines):
    with open(path, "w") as f:
        for line in lines:
            f.write(line + "\n")


# --------------------------------------------------------------------------
# Spans -> per-layer table
# --------------------------------------------------------------------------

def layer_table(spans):
    """Self CPU per span name (a span's CPU minus its children's), calls,
    and the summed counts."""
    child_cpu = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_cpu[s["parent"]] += s["cpu"]
    table = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s["name"], {"self_cpu_s": 0.0, "calls": 0,
                                           "counts": {}})
        row["self_cpu_s"] += s["cpu"] - child_cpu[i]
        row["calls"] += 1
        for k, v in s["counts"].items():
            if k == "peak_kb":
                row["counts"][k] = max(row["counts"].get(k, 0), v)
            else:
                row["counts"][k] = row["counts"].get(k, 0) + v
    return table


def per_layer_metrics(table, traced_cpu):
    def cpu(name):
        return table.get(name, {}).get("self_cpu_s", 0.0)

    def per_call_us(name):
        row = table.get(name)
        return 1e6 * row["self_cpu_s"] / row["calls"] if row else 0.0

    def count(name, key):
        return table.get(name, {}).get("counts", {}).get(key, 0)

    exec_cpu = cpu("sim.execute")
    m = {
        "core.tag.cpu_s": cpu("core.tag"),
        "core.tag.iterations": count("core.tag", "iterations"),
        "core.coarsen.cpu_s": cpu("core.coarsen"),
        "core.coarsen.groups_out": count("core.coarsen", "groups_out"),
        "core.dependence.cpu_s": cpu("core.dependence"),
        "core.cluster.cpu_s": cpu("core.cluster"),
        "core.cluster.groups_in": count("core.cluster", "groups_in"),
        "core.cluster.merges": count("core.cluster", "merges"),
        "core.cluster.peak_mb": count("core.cluster", "peak_kb") / 1024.0,
        "core.schedule.cpu_s": cpu("core.schedule"),
        "core.baseline.cpu_s": cpu("core.baseline"),
        "core.pipeline_whole.cpu_s": cpu("core.pipeline_whole"),
        "sim.trace_compile.cpu_s": cpu("sim.trace_compile"),
        "sim.trace_compile.calls": count("sim.trace_compile", "compiles"),
        "sim.execute.cpu_s": exec_cpu,
        "sim.execute.accesses": count("sim.execute", "accesses"),
        "sim.execute.maccesses_per_cpu_s":
            count("sim.execute", "accesses") / exec_cpu / 1e6
            if exec_cpu > 0 else 0.0,
        "runtime.adapt.cpu_s": cpu("runtime.adapt"),
        "runtime.adapt.remaps": count("runtime.adapt", "remaps"),
        "exec.fingerprint.cpu_us": per_call_us("exec.fingerprint"),
        "exec.cache_store.cpu_s": cpu("exec.cache_store"),
        "exec.cache_store.bytes": count("exec.cache_store", "bytes"),
        "frontend.parse.cpu_us": per_call_us("frontend.parse"),
        "serve.request_parse.cpu_us": per_call_us("serve.request_parse"),
        "serve.warm_lookup.cpu_us": per_call_us("serve.warm_lookup"),
        "serve.render.cpu_us": per_call_us("serve.render"),
        "serve.response_bytes":
            count("serve.render", "bytes") / table["serve.render"]["calls"]
            if "serve.render" in table else 0.0,
        "trace.remainder_cpu_s":
            traced_cpu - sum(r["self_cpu_s"] for r in table.values()),
    }
    return m


def print_layer_table(table, traced_cpu):
    print("\nper-layer self CPU of the traced phase (span name: self CPU, "
          "calls, counts)")
    total = 0.0
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_cpu_s"]):
        total += row["self_cpu_s"]
        counts = " ".join("%s=%.6g" % kv for kv in sorted(row["counts"].items()))
        print("  %-24s %10.6f s %7d calls  %s"
              % (name, row["self_cpu_s"], row["calls"], counts))
    print("  %-24s %10.6f s  (process CPU not inside any span)"
          % ("remainder", traced_cpu - total))
    print("  %-24s %10.6f s  (= process CPU of the traced phase)"
          % ("total", traced_cpu))


# --------------------------------------------------------------------------
# sweep_cold
# --------------------------------------------------------------------------

def sweep_checks(result, expected):
    """Returns (attempted, failed, notes) for one sweep's outputs."""
    notes, failed = [], 0
    tasks = result["tasks"]
    accesses = sum(t["accesses"] for t in tasks)
    if accesses != expected["simulated_accesses"]:
        failed += 1
        notes.append("simulated accesses %d != %d"
                     % (accesses, expected["simulated_accesses"]))
    cycles = {(t["machine"], t["app"], t["strategy"]): t["cycles"]
              for t in tasks}
    for t in tasks:
        want = expected["cycles"].get(t["machine"], {}).get(
            t["app"], {}).get(t["strategy"])
        if t["strategy"] != "TopologyAware" and want != t["cycles"]:
            failed += 1
            notes.append("%s/%s/%s cycles %d != recorded %s"
                         % (t["machine"], t["app"], t["strategy"],
                            t["cycles"], want))
    geomeans = {}
    for m in MACHINES:
        apps = sorted({a for (mm, a, s) in cycles if mm == m})
        logs = [math.log(cycles[(m, a, "TopologyAware")] / cycles[(m, a, "Base")])
                for a in apps]
        geomeans[m] = math.exp(sum(logs) / len(logs))
        if geomeans[m] > expected["ta_geomean"][m] + expected["ta_geomean_slack"]:
            failed += 1
            notes.append("ta_geomean.%s %.4f above recorded %.4f + %.3f"
                         % (m, geomeans[m], expected["ta_geomean"][m],
                            expected["ta_geomean_slack"]))
    return len(tasks) + 1 + len(MACHINES), failed, notes, geomeans


def sweep_pass(rundir, seed, n, extra):
    out = os.path.join(rundir, "sweep-%d.json" % n)
    cmd = [tool("perfbench"), "sweep", "--cache-dir",
           os.path.join(rundir, "cache-%d" % n), "--out", out,
           "--seed", str(seed)] + extra
    run_tool(cmd, cwd=".")
    return load_json(out)


def run_sweep_cold(args, rundir, report):
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    attempted = failed = 0
    if args.trace:
        plain = sweep_pass(rundir, args.seed, 0, [
            "--emit-json", os.path.join(rundir, "artifact.json")])
        spans_path = os.path.join(rundir, "spans.json")
        traced = sweep_pass(rundir, args.seed, 1, ["--trace", spans_path])
        for res in (plain, traced):
            a, f, notes, _ = sweep_checks(res, expected)
            attempted, failed = attempted + a, failed + f
            report["checks"] += notes
        differ = [(a["machine"], a["app"], a["strategy"])
                  for a, b in zip(plain["tasks"], traced["tasks"])
                  if a["cycles"] != b["cycles"]]
        attempted += len(plain["tasks"])
        failed += len(differ)
        report["checks"].append(
            "traced sweep reproduces the untraced cycles on %d of %d tasks"
            % (len(plain["tasks"]) - len(differ), len(plain["tasks"])))
        table = layer_table(load_json(spans_path))
        metrics = per_layer_metrics(table, traced["cpu_s"])
        metrics["workloads.build.cpu_s"] = median(plain["build_cpu_s"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        print_layer_table(table, traced["cpu_s"])
        reconcile(table, load_json(os.path.join(rundir, "artifact.json")))
        print("tracing overhead: traced %.3f s - untraced %.3f s = %+.3f s"
              % (traced["wall_s"], plain["wall_s"],
                 metrics["trace.overhead_s"]))
        return attempted, failed, metrics

    passes = []
    window = Interference()
    window.start()
    start = time.monotonic()
    while True:
        res = sweep_pass(rundir, args.seed, len(passes),
                         ["--setup-every", str(SWEEP_SETUP_EVERY)])
        passes.append(res)
        a, f, notes, geomeans = sweep_checks(res, expected)
        attempted, failed = attempted + a, failed + f
        report["checks"] += notes
        elapsed = time.monotonic() - start
        if elapsed + res["wall_s"] > args.seconds * 1.1:
            break
    report["interference"] = window.stop()
    report["ta_geomean"] = {m: round(v, 6) for m, v in geomeans.items()}
    # Each pass is a fresh, cold process; another runs while it fits in
    # --seconds. Each pass's times are scaled by its host probe (read after
    # every run), each run then counts at its best over the passes, and the
    # sweep's wall and CPU are the sums of those per-run bests.
    probes = [median([t["probe_s"] for t in p["tasks"]]) for p in passes]
    scale = [PROBE_REFERENCE_S / x for x in probes]
    record_probe(report, probes, [p["cpu_s"] for p in passes])
    best_wall = [min(p["tasks"][i]["latency_s"] * f
                     for p, f in zip(passes, scale))
                 for i in range(len(passes[0]["tasks"]))]
    best_cpu = [min(p["tasks"][i]["cpu_s"] * f for p, f in zip(passes, scale))
                for i in range(len(passes[0]["tasks"]))]
    # Per-run cost is taken in CPU, which a stolen vCPU does not inflate.
    cost_ms = [x * 1e3 for x in best_cpu]
    setup = [x * f for p, f in zip(passes, scale) for x in p["setup_s"]]
    n = len(passes) * len(best_wall)
    metrics = {
        "setup_s": (min(setup), len(setup)),
        "wall_s": (sum(best_wall), n),
        "cpu_s": (sum(best_cpu), n),
        "peak_rss_mb": (median([p["peak_rss_kb"] / 1024.0 for p in passes]),
                        len(passes)),
        "p50_ms": (percentile(cost_ms, 50)[0], n),
        "tail_ms": (tail(cost_ms, 90), n),
    }
    report["samples_note"] = ("108 runs, each its best of %d cold pass(es); "
                              "per-run CPU, p90 as the tail" % len(passes))
    return attempted, failed, metrics


def reconcile(table, artifact):
    """Sets the traced per-layer CPU beside the program's own phase seconds
    (wall, summed over runs) from the untraced --emit-json artifact."""
    phases = {}
    for run in artifact["runs"]:
        for p in run["phases"]:
            phases[p["name"]] = phases.get(p["name"], 0.0) + p["seconds"]

    def cpu(*names):
        return sum(table.get(n, {}).get("self_cpu_s", 0.0) for n in names)

    rows = [("pipeline.tag", cpu("core.tag", "core.coarsen"),
             "core.tag + core.coarsen"),
            ("pipeline.cluster", cpu("core.cluster"), "core.cluster"),
            ("sim.execute", cpu("sim.execute"), "sim.execute")]
    print("\nreconciliation at one job: program phase seconds vs traced "
          "self CPU (whole-pipeline spans excluded)")
    for phase, traced, label in rows:
        prog = phases.get(phase, 0.0)
        print("  %-18s program %8.3f s   traced %8.3f s (%s)   gap %+.3f s"
              % (phase, prog, traced, label, traced - prog))


# --------------------------------------------------------------------------
# serve_warm / serve_mixed
# --------------------------------------------------------------------------

def run_serve(args, rundir, report, mixed):
    payloads = warm_payloads(args.seed)
    write_lines(os.path.join(rundir, "warm.jsonl"), payloads)
    cold, cells = [], []
    if mixed:
        topo = run_tool([tool("perfbench"), "degraded-topo"], cwd=".")
        cold, cells = cold_payloads(args.seed, topo)
        write_lines(os.path.join(rundir, "cold.jsonl"), cold)

    daemon, setup, answers, prime_failed = boot_and_prime(rundir, payloads)
    attempted = SETUP_REPS * len(payloads)
    failed = prime_failed
    try:
        write_lines(os.path.join(rundir, "expect.jsonl"), answers)
        common = ["--socket", os.path.basename(daemon.sock),
                  "--pid", str(daemon.proc.pid), "--payloads", "warm.jsonl",
                  "--expect", "expect.jsonl", "--seed", str(args.seed),
                  "--conns", str(LOAD_CONNS), "--out", "load.json"]
        if mixed:
            cmd = [tool("loadgen"), "mixed", "--cold", "cold.jsonl",
                   "--probe-rate", str(PROBE_RATE)] + common
        else:
            cmd = [tool("loadgen"), "warm", "--round-requests",
                   str(WARM_ROUND_REQUESTS), "--seconds",
                   str(args.seconds)] + common
        window = Interference()
        window.start()
        cpu0 = daemon.cpu_seconds()
        run_tool(cmd, cwd=rundir, timeout=170)
        report["interference"] = window.stop(daemon.cpu_seconds() - cpu0)
        load = load_json(os.path.join(rundir, "load.json"))
        peak = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    probe = median([x / 1e6 for x in load["host_probe_us"]] if mixed
                   else [r["host_probe_s"] for r in load["rounds"]])
    scale = PROBE_REFERENCE_S / probe
    attempted += load["attempted"]
    failed += load["failed"]
    for why, n in load["reasons"].items():
        report["checks"].append("%d response(s): %s" % (n, why))

    if mixed:
        lat_ms = [c["latency_s"] * 1e3 for c in load["cold"]]
        wall = [load["wall_s"]]
        cpu = [load["cpu_s"]]
        p50 = percentile(lat_ms, 50)[0]
        tail_v = tail(lat_ms, 90)
        n_lat = len(lat_ms)
        report["samples_note"] = ("cold requests, p90 as the tail; %d warm "
                                  "probes beside them"
                                  % len(load["probe_latency_us"]))
    else:
        # The host's speed swings within seconds and its vCPUs get stolen
        # in bursts, so each figure is the best short round's: a round is
        # 10 000 requests, and its p99 has 100 samples beyond it.
        rounds = load["rounds"]
        wall = [min(r["wall_s"] for r in rounds)]
        cpu = [min(r["cpu_s"] for r in rounds)]
        p50 = min(r["p50_us"] for r in rounds) / 1e3
        tail_v = min(r["p99_us"] for r in rounds) / 1e3
        n_lat = len(load["latency_us"])
        report["samples_note"] = ("warm requests, p99 as the tail; best of "
                                  "%d rounds of %d; %.0f req/s"
                                  % (len(rounds), WARM_ROUND_REQUESTS,
                                     WARM_ROUND_REQUESTS / wall[0]))
    record_probe(report, [probe], cpu)
    metrics = {
        "setup_s": (min(setup) * scale, len(setup)),
        "wall_s": (median(wall) * scale, len(wall)),
        "cpu_s": (median(cpu) * scale, len(cpu)),
        "peak_rss_mb": (peak, 1),
        "p50_ms": (p50 * scale, n_lat),
        "tail_ms": (tail_v * scale, n_lat),
    }
    if not args.trace:
        return attempted, failed, metrics

    # Traced: the same daemon load gave the server-side split; now replay
    # the payloads in process with spans.
    layer = serve_layer_metrics(load, mixed)
    if mixed:
        pick = replay_subset(cells)
        requests = [cold[i] for i in pick]
        repeat = 1
    else:
        requests, repeat = payloads, REPLAY_WARM_REPEAT
    write_lines(os.path.join(rundir, "replay.jsonl"), requests)
    rep_out = os.path.join(rundir, "replay.json")
    spans_path = os.path.join(rundir, "spans.json")
    run_tool([tool("perfbench"), "replay", "--prime",
              os.path.join(rundir, "warm.jsonl"), "--requests",
              os.path.join(rundir, "replay.jsonl"), "--cache-dir",
              os.path.join(rundir, "replay-cache"), "--out", rep_out,
              "--spans", spans_path, "--repeat", str(repeat)], cwd=".")
    rep = load_json(rep_out)
    want_warm = not mixed
    bad = [r for r in rep["requests"]
           if not (r["ok"] and r["traced_ok"] and r["warm"] == want_warm
                   and r["traced_warm"] == want_warm
                   and r["cycles"] == r["traced_cycles"])]
    if mixed:
        daemon_cycles = [load["cold"][i]["cycles"] for i in pick]
        bad += [i for i, r in enumerate(rep["requests"])
                if r["cycles"] != daemon_cycles[i]]
    attempted += len(rep["requests"])
    failed += len(bad)
    report["checks"].append(
        "in-process replay: %d of %d requests ok, %s, cycles equal untraced%s"
        % (len(rep["requests"]) - len(bad), len(rep["requests"]),
           "warm" if want_warm else "cold",
           " and daemon" if mixed else ""))
    table = layer_table(load_json(spans_path))
    layer.update(per_layer_metrics(table, rep["traced_cpu_s"]))
    layer["trace.overhead_s"] = rep["traced_wall_s"] - rep["untraced_wall_s"]
    print_layer_table(table, rep["traced_cpu_s"])
    print("tracing overhead (replay): traced %.3f s - untraced %.3f s = "
          "%+.3f s" % (rep["traced_wall_s"], rep["untraced_wall_s"],
                       layer["trace.overhead_s"]))
    return attempted, failed, layer


def replay_subset(cells):
    """The traced replay's share of the cold set: the first request sent
    for each (app, strategy), 48 in all."""
    seen, pick = set(), []
    for i, (app, _, strat) in enumerate(cells):
        if (app, strat) not in seen:
            seen.add((app, strat))
            pick.append(i)
    return pick


def serve_layer_metrics(load, mixed):
    m = {}
    if mixed:
        q = [c["queue_s"] for c in load["cold"]]
        s = [c["service_s"] for c in load["cold"]]
        lat = load["probe_latency_us"]
        svc = load["probe_service_us"]
        m["serve.probe_us.p50"] = percentile(lat, 50)[0]
        m["serve.probe_us.p99"] = tail(lat, 99)
        m["serve.probe_late_ms.max"] = max(load["probe_late_us"]) / 1e3
    else:
        q = [0.0] * len(load["service_us"])
        s = [x / 1e6 for x in load["service_us"]]
        lat, svc = load["latency_us"], load["service_us"]
    m["serve.queue_s.p50"] = percentile(q, 50)[0]
    m["serve.queue_s.p90"] = tail(q, 90) if max(q) > 0 else 0.0
    m["serve.service_s.p50"] = percentile(s, 50)[0]
    m["serve.service_s.p90"] = tail(s, 90)
    m["serve.transport_us.p50"] = percentile(
        [a - b for a, b in zip(lat, svc)], 50)[0]
    return m


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

WORKLOADS = {
    "sweep_cold": run_sweep_cold,
    "serve_warm": lambda a, d, r: run_serve(a, d, r, mixed=False),
    "serve_mixed": lambda a, d, r: run_serve(a, d, r, mixed=True),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    check_checkout()
    build()
    facts = host_facts()
    rundir = os.path.join(RUNS_DIR, "%s-s%d-t%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    report = {"checks": []}
    try:
        attempted, failed, metrics = WORKLOADS[args.workload](
            args, rundir, report)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    facts.update(report.get("interference", {}))
    correct = failed == 0

    print("== perfbench %s  seed=%d  seconds=%g  trace=%d ==" % (
        args.workload, args.seed, args.seconds, args.trace))
    for k, v in facts.items():
        print("  host %-16s %s" % (k, v))
    if report.get("ta_geomean"):
        print("  ta_geomean (TopologyAware/Base cycles, per machine): " +
              ", ".join("%s %.4f" % kv for kv in report["ta_geomean"].items()))
    print("  checks: %d attempted, %d failed" % (attempted, failed))
    for note in report["checks"]:
        print("    " + note)

    out = {}
    if args.trace:
        print("\nper-layer metrics")
        for name, unit in PER_LAYER:
            value = float(metrics.get(name, 0.0))
            out[name] = {"value": value, "unit": unit}
            print("  %-34s %16.6f %s" % (name, value, unit))
    else:
        metrics["ok_ratio"] = (1.0 - failed / attempted if attempted else 0.0,
                               attempted)
        print("\nend-to-end metrics (%s)" % report.get("samples_note", ""))
        for name, unit in END_TO_END_UNITS.items():
            value, samples = metrics[name]
            out[name] = {"value": float(value), "unit": unit}
            print("  %-12s %16.6f %-5s samples=%d"
                  % (name, value, unit, samples))
    result = {"correct": correct, "attempted": int(attempted),
              "failed": int(failed), "metrics": out}
    os.makedirs(RUNS_DIR, exist_ok=True)
    with open(os.path.join(RUNS_DIR, "last-%s-t%d.json"
                           % (args.workload, args.trace)), "w") as f:
        json.dump({"facts": facts, "checks": report["checks"],
                   "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
