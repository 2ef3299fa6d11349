#!/usr/bin/env python3
"""Gate CI on perf-smoke regressions (stdlib only).

Usage: compare_bench.py BASELINE FRESH [--max-regress PCT]

Compares a freshly measured perf-smoke BENCH_sim_hotpath.json (FRESH)
against the committed baseline (BASELINE) and fails when

 * the cold-run wall_seconds regressed by more than PCT percent
   (default 15 — wide enough for shared-runner noise, tight enough to
   catch a hot-path slip), or
 * simulated_accesses differ — the two files then measured different
   work, and the wall-clock comparison would be meaningless, or
 * the benchmark names differ.

cta-sim-hotpath-v2 documents carry an "entries" list — one entry per
phase-1 thread count (--sim-threads=1, --sim-threads=N). Every baseline
entry is gated independently against the fresh entry with the same
sim_threads, and all entries within one file must agree on
simulated_accesses: results are bit-exact across thread counts by
contract, so a drifting access count means a thread count simulated
different work, which is a correctness failure, not noise.

When both files are cta-serve-bench-v1 documents (the `cta client`
load report), the gated metric is requests_per_second instead — a
*drop* beyond PCT fails — after checking that requests, concurrency
and the warm:cold mix match, that every request completed ok, and that
the cache_status histograms agree (a warm-serving regression shows up
as misses before it shows up as latency).

cta-adaptive-bench-v1 documents (bench/adaptive_headroom) are gated on
correctness, not wall clock: simulated cycles are machine-independent,
so every (scenario, workload, strategy) cell must match the committed
baseline *exactly* — drift means the mapper or the adaptive executor
changed behaviour, and the baseline must be re-committed deliberately.
On top of that the fresh file's own numbers must honour the adaptive
contract: on the "degraded" scenario every Adaptive* strategy needs
cycles <= 0.9x the TopologyAware cycles of the same workload (the
>= 10% win the runtime/ subsystem exists for), and on the "uniform"
scenario Adaptive* may cost at most 5% over TopologyAware (do no harm).

Improvements and within-threshold noise pass with a one-line summary.
The per-phase breakdown (phase_seconds, present since PR 5) is reported
informationally when both files carry it but never gates: phase
attribution shifts are interesting, not actionable.
"""

import json
import sys


def die(msg, code=1):
    print(f"compare_bench: {msg}", file=sys.stderr)
    sys.exit(code)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read {path}: {e}", 2)


def compare_serve(base, fresh, max_regress):
    for key in ("benchmark", "requests", "concurrency", "mix"):
        if base.get(key) != fresh.get(key):
            die(f"{key} mismatch: baseline {base.get(key)!r} vs fresh "
                f"{fresh.get(key)!r} — the runs measured different load, "
                "re-baseline deliberately if the recipe changed")
    for name, doc in (("baseline", base), ("fresh", fresh)):
        if doc.get("ok") != doc.get("requests"):
            die(f"{name} run was not clean: ok {doc.get('ok')} of "
                f"{doc.get('requests')} requests ({doc.get('errors')})")
    if base.get("cache_status") != fresh.get("cache_status"):
        die(f"cache_status mismatch: baseline {base.get('cache_status')} "
            f"vs fresh {fresh.get('cache_status')} — warm serving broke "
            "before throughput did")

    # The server-attributed latency split (telemetry plane): reported
    # informationally when both files carry it but never gated —
    # queue/service attribution shifts are interesting, not actionable.
    for key in ("server_queue_seconds", "server_service_seconds"):
        b, f = base.get(key), fresh.get(key)
        if isinstance(b, dict) and isinstance(f, dict):
            print(f"compare_bench:   {key}: mean "
                  f"{b.get('mean', 0.0):.6f}s -> {f.get('mean', 0.0):.6f}s, "
                  f"p99 {b.get('p99', 0.0):.6f}s -> {f.get('p99', 0.0):.6f}s")

    base_rps = base.get("requests_per_second")
    fresh_rps = fresh.get("requests_per_second")
    if not isinstance(base_rps, (int, float)) or base_rps <= 0:
        die(f"baseline requests_per_second unusable: {base_rps!r}", 2)
    if not isinstance(fresh_rps, (int, float)) or fresh_rps <= 0:
        die(f"fresh requests_per_second unusable: {fresh_rps!r}", 2)

    delta_pct = (fresh_rps - base_rps) / base_rps * 100.0
    summary = (f"throughput {base_rps:.0f} -> {fresh_rps:.0f} req/s "
               f"({delta_pct:+.1f}%), {fresh.get('requests')} requests at "
               f"concurrency {fresh.get('concurrency')}, "
               f"mix {fresh.get('mix')}")
    if -delta_pct > max_regress:
        die(f"REGRESSION: {summary} exceeds the {max_regress:.0f}% gate")
    print(f"compare_bench: OK: {summary} (gate {max_regress:.0f}%)")
    return 0


def gate_wall(base, fresh, max_regress, what):
    """Gate one wall_seconds measurement; returns the summary line."""
    base_wall = base.get("wall_seconds")
    fresh_wall = fresh.get("wall_seconds")
    if not isinstance(base_wall, (int, float)) or base_wall <= 0:
        die(f"baseline wall_seconds unusable for {what}: {base_wall!r}", 2)
    if not isinstance(fresh_wall, (int, float)) or fresh_wall <= 0:
        die(f"fresh wall_seconds unusable for {what}: {fresh_wall!r}", 2)

    delta_pct = (fresh_wall - base_wall) / base_wall * 100.0
    summary = (f"{what}: wall {base_wall:.3f}s -> {fresh_wall:.3f}s "
               f"({delta_pct:+.1f}%), "
               f"{fresh.get('simulated_accesses')} accesses")

    base_phases = base.get("phase_seconds")
    fresh_phases = fresh.get("phase_seconds")
    if isinstance(base_phases, dict) and isinstance(fresh_phases, dict):
        for name in sorted(set(base_phases) | set(fresh_phases)):
            print(f"compare_bench:   phase {name}: "
                  f"{base_phases.get(name, 0.0):.3f}s -> "
                  f"{fresh_phases.get(name, 0.0):.3f}s")

    if delta_pct > max_regress:
        die(f"REGRESSION: {summary} exceeds the {max_regress:.0f}% gate")
    return summary


def compare_hotpath_v2(base, fresh, max_regress):
    if base.get("benchmark") != fresh.get("benchmark"):
        die(f"benchmark mismatch: baseline {base.get('benchmark')!r} vs "
            f"fresh {fresh.get('benchmark')!r}")

    base_entries = base.get("entries")
    fresh_entries = fresh.get("entries")
    if not isinstance(base_entries, list) or not base_entries:
        die("baseline has no entries", 2)
    if not isinstance(fresh_entries, list) or not fresh_entries:
        die("fresh has no entries", 2)

    # Thread counts are bit-exact by contract: every entry in one file
    # must have simulated the exact same accesses.
    for name, entries in (("baseline", base_entries),
                          ("fresh", fresh_entries)):
        counts = {e.get("simulated_accesses") for e in entries}
        if len(counts) != 1:
            die(f"{name} entries disagree on simulated_accesses "
                f"({sorted(counts)}) — thread counts diverged, this is a "
                "bit-exactness failure, not noise")

    fresh_by_threads = {e.get("sim_threads"): e for e in fresh_entries}
    summaries = []
    for b in base_entries:
        threads = b.get("sim_threads")
        f = fresh_by_threads.get(threads)
        if f is None:
            die(f"fresh file has no sim_threads={threads} entry — the "
                "perf-smoke recipe changed, re-baseline deliberately")
        if b.get("simulated_accesses") != f.get("simulated_accesses"):
            die(f"simulated_accesses mismatch at sim_threads={threads}: "
                f"baseline {b.get('simulated_accesses')} vs fresh "
                f"{f.get('simulated_accesses')} — the runs did different "
                "work, re-baseline deliberately if the workload changed")
        summaries.append(
            gate_wall(b, f, max_regress, f"sim_threads={threads}"))
    for line in summaries:
        print(f"compare_bench: OK: {line} (gate {max_regress:.0f}%)")
    return 0


ADAPTIVE_DEGRADED_MAX_RATIO = 0.9   # >= 10% win required
ADAPTIVE_UNIFORM_MAX_RATIO = 1.05   # <= 5% overhead allowed


def adaptive_cells(doc, name):
    """Flattens a cta-adaptive-bench-v1 into {(scenario, workload,
    strategy): cycles}."""
    cells = {}
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        die(f"{name} has no scenarios", 2)
    for scenario in scenarios:
        sname = scenario.get("name")
        for entry in scenario.get("entries", []):
            key = (sname, entry.get("workload"), entry.get("strategy"))
            cycles = entry.get("cycles")
            if not isinstance(cycles, int) or cycles <= 0:
                die(f"{name} cycles unusable at {key}: {cycles!r}", 2)
            cells[key] = cycles
    return cells


def compare_adaptive(base, fresh):
    if base.get("benchmark") != fresh.get("benchmark"):
        die(f"benchmark mismatch: baseline {base.get('benchmark')!r} vs "
            f"fresh {fresh.get('benchmark')!r}")
    if base.get("adapt_interval") != fresh.get("adapt_interval"):
        die(f"adapt_interval mismatch: baseline "
            f"{base.get('adapt_interval')} vs fresh "
            f"{fresh.get('adapt_interval')} — the runs measured different "
            "remap cadences, re-baseline deliberately")

    base_cells = adaptive_cells(base, "baseline")
    fresh_cells = adaptive_cells(fresh, "fresh")
    if set(base_cells) != set(fresh_cells):
        only_base = sorted(set(base_cells) - set(fresh_cells))
        only_fresh = sorted(set(fresh_cells) - set(base_cells))
        die(f"grid mismatch: baseline-only {only_base}, fresh-only "
            f"{only_fresh} — the recipe changed, re-baseline deliberately")

    # Simulated cycles are exact and machine-independent: any drift is a
    # behaviour change in the mapper or the adaptive executor.
    for key in sorted(base_cells):
        if base_cells[key] != fresh_cells[key]:
            die(f"cycles drifted at {key}: baseline {base_cells[key]} vs "
                f"fresh {fresh_cells[key]} — simulated cycles are "
                "deterministic, so this is a behaviour change; re-commit "
                "BENCH_adaptive.json deliberately if it is intended")

    # The adaptive contract, checked on the fresh file's own numbers.
    gates = []
    for (scenario, workload, strategy), cycles in sorted(fresh_cells.items()):
        if not strategy.startswith("Adaptive"):
            continue
        static_key = (scenario, workload, "TopologyAware")
        if static_key not in fresh_cells:
            die(f"no TopologyAware cell for {scenario}/{workload} to gate "
                f"{strategy} against", 2)
        ratio = cycles / fresh_cells[static_key]
        if scenario == "degraded":
            limit, what = ADAPTIVE_DEGRADED_MAX_RATIO, ">= 10% win"
        elif scenario == "uniform":
            limit, what = ADAPTIVE_UNIFORM_MAX_RATIO, "<= 5% overhead"
        else:
            continue
        summary = (f"{scenario}/{workload}: {strategy} {ratio:.3f}x "
                   f"TopologyAware (gate {limit}x, {what})")
        if ratio > limit:
            die(f"REGRESSION: {summary}")
        gates.append(summary)

    if not gates:
        die("no Adaptive* cells were gated — the recipe changed, "
            "re-baseline deliberately", 2)
    for line in gates:
        print(f"compare_bench: OK: {line}")
    print(f"compare_bench: OK: all {len(base_cells)} cells exactly match "
          "the committed baseline")
    return 0


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    max_regress = 15.0
    for a in argv[1:]:
        if a.startswith("--max-regress="):
            try:
                max_regress = float(a.split("=", 1)[1])
            except ValueError:
                die(f"bad --max-regress value in '{a}'", 2)
        elif a.startswith("--"):
            die(f"unknown flag '{a}'", 2)
    if len(args) != 2:
        die("usage: compare_bench.py BASELINE FRESH [--max-regress PCT]", 2)

    base, fresh = load(args[0]), load(args[1])

    serve = "cta-serve-bench-v1"
    hotpath = "cta-sim-hotpath-v2"
    adaptive = "cta-adaptive-bench-v1"
    if base.get("schema") in (serve, hotpath, adaptive) or \
            fresh.get("schema") in (serve, hotpath, adaptive):
        if base.get("schema") != fresh.get("schema"):
            die(f"schema mismatch: baseline {base.get('schema')!r} vs "
                f"fresh {fresh.get('schema')!r}")
        if base.get("schema") == serve:
            return compare_serve(base, fresh, max_regress)
        if base.get("schema") == adaptive:
            return compare_adaptive(base, fresh)
        return compare_hotpath_v2(base, fresh, max_regress)

    # Legacy single-entry BENCH_sim_hotpath (pre-v2, no "schema" key).
    if base.get("benchmark") != fresh.get("benchmark"):
        die(f"benchmark mismatch: baseline {base.get('benchmark')!r} vs "
            f"fresh {fresh.get('benchmark')!r}")

    base_acc = base.get("simulated_accesses")
    fresh_acc = fresh.get("simulated_accesses")
    if base_acc != fresh_acc:
        die(f"simulated_accesses mismatch: baseline {base_acc} vs fresh "
            f"{fresh_acc} — the runs did different work, re-baseline "
            "deliberately if the workload changed")

    summary = gate_wall(base, fresh, max_regress, "cold run")
    print(f"compare_bench: OK: {summary} (gate {max_regress:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
