#!/usr/bin/env python3
"""The admission-path benchmark: one workload, one run, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload svc-diurnal-http --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (span records go to ``perfbench/out/``).  Either way
the outputs are checked, and the last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every output check passed.  Other modes:

``--all``
    every workload, ``--reps`` times, interleaved, each run in its own
    process, then the traced runs; prints every metric by name and unit
    and writes ``perfbench/out/all.json``.
``--self-test``
    tiny sizes: every metric in ``BENCHMARK.json`` is printed with its
    unit, and the generated inputs repeat for a seed.

Metric names, units and the run length come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SPEC = ROOT / "BENCHMARK.json"

# One BLAS thread: on a small shared machine a second BLAS thread only
# competes with the interpreter for the same cores, which adds noise and
# no speed (numpy reads these when it is first imported).
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


def _prepare_imports() -> None:
    """Make ``perfbench`` and the checkout's ``src/repro`` importable.

    Exits non-zero, printing no result, when the checkout has no
    ``src/repro`` (the benchmark measures the program next to it, never
    another copy).
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure: {src / 'repro'} is missing")
    sys.path[:0] = [str(src), str(ROOT)]


#: Units of the simulated metrics each pass reports.
SIM_UNITS = {"sim_rejected_frac": "fraction", "sim_mean_wait_s": "s",
             "sim_mean_frag": "index", "refused_frac": "fraction"}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (0..1) of unsorted values."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def machine() -> dict:
    """Where and under what load a run happened."""
    return {
        "machine": platform.platform(),
        "cpu": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


# -- one run --------------------------------------------------------------------

def _sim_check(first, result, errors: list[str]) -> None:
    """Simulated outputs and PERF counts must repeat exactly, and the
    passes must time the same units of work."""
    if result.digest != first.digest:
        errors.append("determinism: pass digest differs at one seed")
    if result.sim != first.sim:
        errors.append("determinism: sim metrics differ at one seed")
    if result.perf != first.perf:
        errors.append("determinism: PERF counts differ at one seed")
    if len(result.op_s) != len(first.op_s) \
            or len(result.latencies_s) != len(first.latencies_s):
        errors.append("determinism: passes timed different operations")


def least(rows: list[list[float]]) -> list[float]:
    """Element by element, the least of equally long rows."""
    return [min(column) for column in zip(*rows)]


def run_untraced(workload, seconds: float, setup_s: float) -> tuple:
    """Passes while they fit in ``seconds``; the end-to-end metrics.

    Every pass replays the same inputs and times each unit of work (a
    request, an arrival, a submit) in the same order.  Each unit's host
    time is its least over the passes: a shared host slows single
    stretches of a pass, rarely the same stretch of every pass, so the
    least time is the program's own.
    """
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - started
        if len(passes) >= workload.min_passes \
                and elapsed + passes[-1].wall_s > seconds:
            break
    first = passes[0]
    errors = [line for p in passes for line in p.errors]
    for result in passes[1:]:
        _sim_check(first, result, errors)
    errors += workload.final_checks()
    wall = sum(least([p.op_s for p in passes]))
    latencies = least([p.latencies_s for p in passes])
    metrics = {
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (first.tasks / wall, "tasks/s"),
        "submit_p50_us": (percentile(latencies, 0.50) * 1e6, "us"),
        "submit_p99_us": (percentile(latencies, 0.99) * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                        .ru_maxrss / 1024, "MB"),
        **{name: (value, SIM_UNITS[name])
           for name, value in first.sim.items()},
    }
    if "checkpoint_ms" in first.extra:
        checkpoint_ms = least([p.extra["checkpoint_ms"] for p in passes])
        metrics["checkpoint_p50_ms"] = (statistics.median(checkpoint_ms),
                                        "ms")
        metrics["requests_per_s"] = (first.extra["requests"] / wall,
                                     "req/s")
    attempted = sum(p.attempted for p in passes)
    metrics["error_frac"] = (len(errors) / max(1, attempted), "fraction")
    info = {"passes": len(passes), "latency_samples": len(latencies),
            "pass_walls_s": [p.wall_s for p in passes]}
    return metrics, attempted, errors, info


def layer_metrics(tracer, result, restore_s: float) -> dict:
    """The per-layer metrics of one traced pass (``restore_s`` is the
    restore of the round-trip check, which runs untraced)."""
    perf = result.perf
    extra = result.extra
    counters = tracer.counters
    span_calls, span_self = tracer.span_calls, tracer.span_self
    skips = (perf["item_memo_skips"] + perf["shape_memo_skips"]
             + perf["dominance_skips"])
    screens = perf["screen_cache_hits"] + perf["screen_cache_misses"]
    requests = span_calls("manager.request")
    plans = span_calls("defrag.plan")
    return {
        "api.requests": extra.get("requests", 0),
        "api.self_s": tracer.layer_self("api"),
        "api.status_4xx": extra.get("status_4xx", 0),
        "api.status_5xx": extra.get("status_5xx", 0),
        "admission.calls": span_calls("admission.admit"),
        "admission.self_s": span_self("admission.admit"),
        "admission.refused_rate": counters.get("admission.refused_rate", 0),
        "admission.refused_depth": counters.get("admission.refused_depth",
                                                0),
        "app.self_s": tracer.layer_self("app"),
        "app.journal_len": extra.get("journal_len", 0),
        "app.telemetry_len": extra.get("telemetry_len", 0),
        "checkpoint.snapshot_s": tracer.span_total("checkpoint.snapshot"),
        "checkpoint.restore_s": restore_s,
        "checkpoint.bytes": extra.get("checkpoint_bytes", 0),
        "gc.pause_s": span_self("gc.collect"),
        "gc.gen2_collections": tracer.gen2_collections,
        "kernel.drain.calls": span_calls("kernel.drain"),
        "kernel.drain.self_s": span_self("kernel.drain"),
        "kernel.sample.self_s": span_self("kernel.sample"),
        "kernel.admission_probes": perf["admission_probes"],
        "kernel.memo_skip_ratio": (skips / (skips + perf["admission_probes"])
                                   if skips + perf["admission_probes"]
                                   else 0.0),
        "events.processed": counters.get("events.processed", 0),
        "events.self_s": span_self("events.run"),
        "ports.acquire.calls": span_calls("ports.acquire"),
        "ports.busy_sim_s": counters.get("ports.busy_sim_s", 0.0),
        "ports.wait_sim_s": counters.get("ports.wait_sim_s", 0.0),
        "fleet.request.calls": span_calls("fleet.request"),
        "fleet.request.self_s": span_self("fleet.request"),
        "fleet.member_skips": perf["fleet_member_skips"],
        "manager.request.calls": requests,
        "manager.request.self_s": span_self("manager.request"),
        "manager.request.success_ratio": (
            counters.get("manager.request.successes", 0) / requests
            if requests else 0.0),
        "manager.prefetch.self_s": span_self("manager.prefetch"),
        "manager.release.self_s": span_self("manager.release"),
        "defrag.plan.calls": plans,
        "defrag.plan.self_s": span_self("defrag.plan"),
        "defrag.plan.success_ratio": (
            counters.get("defrag.plan.successes", 0) / plans
            if plans else 0.0),
        "defrag.plan_prefetch.self_s": span_self("defrag.plan_prefetch"),
        "defrag.screen_calls": perf["screen_calls"],
        "defrag.screen_windows": perf["screen_windows"],
        "defrag.screen_cache_hit_ratio": (
            perf["screen_cache_hits"] / screens if screens else 0.0),
        "defrag.evict_moves_calls": perf["evict_moves_calls"],
        "fit.calls": tracer.layer_calls("fit"),
        "fit.self_s": tracer.layer_self("fit"),
        "fit.first_fit_scalar": perf["first_fit_scalar"],
        "fit.first_fit_vector": perf["first_fit_vector"],
        "free_space.calls": tracer.layer_calls("free_space"),
        "free_space.self_s": tracer.layer_self("free_space"),
        "campaign.setup_s": (tracer.span_total("campaign.build_manager")
                             + tracer.span_total("campaign.make_workload")),
        "trace.unattributed_s": span_self("bench.pass"),
    }


def tail_attribution(tracer) -> dict:
    """Per-layer self time of the submits above p99 vs the median ones.

    Submit requests are the ``api.submit`` spans; their request ids key
    the per-request self times the tracer accumulated.
    """
    submit = tracer.name_id("api.submit")
    durations = []
    for request, per in tracer.by_request.items():
        if submit in per:
            total = sum(per.values())
            durations.append((total, request))
    if len(durations) < 100:
        return {}
    durations.sort()
    cut = durations[int(0.99 * len(durations)):]
    mid = len(durations) // 2
    band = durations[max(0, mid - len(cut) // 2):mid + len(cut) // 2 + 1]

    def mean_layers(group):
        out: dict[str, float] = {}
        for _, request in group:
            for layer, seconds in tracer.request_layers(request).items():
                out[layer] = out.get(layer, 0.0) + seconds * 1e6 / len(group)
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    return {
        "submits": len(durations),
        "above_p99": len(cut),
        "median_band": len(band),
        "above_p99_mean_us": mean_layers(cut),
        "median_mean_us": mean_layers(band),
    }


def run_traced(workload, seconds: float, seed: int) -> tuple:
    """Pairs of untraced and traced passes over the same inputs, for
    half the time budget; the per-layer metrics."""
    from perfbench.tracer import Tracer, install

    untraced, traced, layers = [], [], []
    errors: list[str] = []
    tails = {}
    started = time.perf_counter()
    while True:
        first = not traced
        untraced.append(workload.run_pass())
        tracer = Tracer()
        installed = install(tracer)
        try:
            result = workload.run_pass(tracer)
        finally:
            installed.uninstall()
        if first:
            errors += workload.final_checks()
        traced.append(result)
        _sim_check(untraced[-1], result, errors)
        layers.append(layer_metrics(tracer, result, workload.restore_s))
        if first:
            tails = tail_attribution(tracer)
            tracer.dump(OUT / f"{workload.name}-seed{seed}-spans",
                        {"workload": workload.name, "seed": seed,
                         "tail_attribution": tails, **machine()})
        del tracer
        elapsed = time.perf_counter() - started
        if len(traced) >= max(1, workload.min_passes // 2) \
                and elapsed + untraced[-1].wall_s + result.wall_s \
                > seconds / 2:
            break
    for result in untraced[1:]:
        _sim_check(untraced[0], result, errors)
    for result in untraced + traced:
        errors += result.errors
    metrics = {name: statistics.median(row[name] for row in layers)
               for name in layers[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced) - 1.0)
    attempted = sum(p.attempted for p in untraced + traced)
    info = {"pairs": len(traced), "tail_attribution": tails}
    return metrics, attempted, errors, info


#: Fresh-interpreter imports and workload set-ups per run; ``setup_s``
#: adds the median of each.  Nine rather than five: on a shared host
#: single set-ups fall into fast and slow phases, and with five the
#: median of a run flipped between the two.
SETUPS = 9


#: Fresh-interpreter imports and workload set-ups per run; ``setup_s``
#: adds the median of each.  Nine rather than five: on a shared host
#: single set-ups fall into fast and slow phases, and with five the
#: median of a run flipped between the two.
SETUPS = 9


def _import_seconds() -> float:
    """Wall seconds of a fresh interpreter importing the benchmark and
    the program (the import share of set-up, measured in isolation)."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import perfbench.workloads"],
                   cwd=ROOT, env={**os.environ, "PYTHONPATH": os.pathsep.join(
                       sys.path[:2])}, check=True)
    return time.perf_counter() - started


def run_one(args) -> int:
    """One workload, one run, one JSON result line."""
    _prepare_imports()
    spec = json.loads(SPEC.read_text())
    import_s = statistics.median(_import_seconds() for _ in range(SETUPS))
    from perfbench import workloads

    setups = []
    workload = None
    for _ in range(SETUPS):
        workload = workloads.make(args.workload, args.seed, tiny=args.tiny)
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    if args.trace:
        values, attempted, errors, info = run_traced(
            workload, args.seconds, args.seed)
        reported = {entry["name"]: {"value": values[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in spec["per_layer"]}
    else:
        values, attempted, errors, info = run_untraced(
            workload, args.seconds, setup_s)
        reported = {entry["name"]: {"value": values[entry["name"]][0],
                                    "unit": values[entry["name"]][1]}
                    for entry in spec["end_to_end"]}
        info["all_end_to_end"] = {name: {"value": v, "unit": u}
                                  for name, (v, u) in values.items()}
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "setup_runs_s": setups,
              "import_s": import_s, **info, **machine(), "errors": errors}
    print(json.dumps(report), file=sys.stderr)
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {"correct": not errors, "attempted": max(1, attempted),
              "failed": len(errors), "metrics": reported}
    print(json.dumps(result))
    return 0 if not errors else 1


# -- every workload, interleaved ------------------------------------------------

def _child(workload: str, seed: int, seconds: float, trace: int,
           tiny: bool) -> dict:
    """One run in its own process; its parsed result and report."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        command.append("--tiny")
    proc = subprocess.run(command, capture_output=True, text=True,
                          cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    report = {}
    for line in proc.stderr.splitlines():
        if line.startswith("{"):
            report = json.loads(line)
    return {"workload": workload, "seed": seed, "trace": trace,
            "returncode": proc.returncode, "result": result,
            "report": report}


def run_all(args) -> int:
    """Every workload ``--reps`` times, interleaved, then traced once."""
    _prepare_imports()
    from perfbench.workloads import NAMES as names

    runs = []
    for rep in range(args.reps):
        order = names[rep % len(names):] + names[:rep % len(names)]
        for name in order:
            runs.append(_child(name, args.seed + rep, args.seconds, 0,
                               args.tiny))
            print(f"rep {rep} {name}: rc={runs[-1]['returncode']}",
                  file=sys.stderr)
    for name in names:
        runs.append(_child(name, args.seed, args.seconds, 1, args.tiny))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "all.json").write_text(json.dumps(runs, indent=1))

    ok = all(run["returncode"] == 0 for run in runs)
    for name in names:
        print(f"\n== {name}")
        rows = [r["report"].get("all_end_to_end", {}) for r in runs
                if r["workload"] == name and r["trace"] == 0]
        for metric in sorted({m for row in rows for m in row}):
            values = [row[metric]["value"] for row in rows if metric in row]
            unit = next(row[metric]["unit"] for row in rows
                        if metric in row)
            print(f"  {metric:<20} {statistics.median(values):>14.6g} "
                  f"{unit:<9} (median of {len(values)}; "
                  f"{min(values):.6g}..{max(values):.6g})")
        traced = [r for r in runs if r["workload"] == name
                  and r["trace"] == 1]
        for run in traced:
            for metric, entry in run["result"]["metrics"].items():
                print(f"  {metric:<32} {entry['value']:>14.6g} "
                      f"{entry['unit']}")
            tails = run["report"].get("tail_attribution") or {}
            if tails:
                print(f"  tail attribution ({tails['above_p99']} submits "
                      f"above p99 vs {tails['median_band']} at the median"
                      f"), self time per submit in us:")
                for layer, value in tails["above_p99_mean_us"].items():
                    median = tails["median_mean_us"].get(layer, 0.0)
                    print(f"    {layer:<12} {value:>10.1f} {median:>10.1f}")
    print(f"\nwrote {OUT / 'all.json'}; all checks "
          f"{'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def self_test(args) -> int:
    """Tiny sizes: names, units and input determinism."""
    _prepare_imports()
    from perfbench import workloads

    problems = []
    committed = json.loads(SPEC.read_text())
    readme = (ROOT / "perfbench" / "README.md").read_text()
    for entry in committed["end_to_end"] + committed["per_layer"]:
        if f"`{entry['name']}`" not in readme:
            problems.append(f"README.md does not define {entry['name']}")
    for entry in committed["workloads"]:
        if entry["name"] not in workloads.NAMES:
            problems.append(f"BENCHMARK.json names unknown workload "
                            f"{entry['name']}")
    for name in workloads.NAMES:
        first = workloads.make(name, 3, tiny=True).inputs_digest()
        again = workloads.make(name, 3, tiny=True).inputs_digest()
        other = workloads.make(name, 4, tiny=True).inputs_digest()
        if first != again:
            problems.append(f"{name}: inputs differ for one seed")
        if first == other:
            problems.append(f"{name}: inputs ignore the seed")
        for trace, table in ((0, committed["end_to_end"]),
                             (1, committed["per_layer"])):
            run = _child(name, 3, 1, trace, tiny=True)
            printed = run["result"]["metrics"]
            if run["returncode"] != 0:
                problems.append(f"{name} trace={trace}: exit "
                                f"{run['returncode']}")
            for entry in table:
                got = printed.get(entry["name"])
                if got is None or got.get("unit") != entry["unit"]:
                    problems.append(f"{name} trace={trace}: "
                                    f"{entry['name']} missing or wrong unit")
            if set(printed) != {entry["name"] for entry in table}:
                problems.append(f"{name} trace={trace}: unexpected metrics")
    for line in problems:
        print(f"self-test: {line}")
    print(f"self-test {'passed' if not problems else 'FAILED'}")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to the chosen mode."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (self-test sizes)")
    parser.add_argument("--all", action="store_true",
                        help="every workload, interleaved repetitions")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]
    if args.self_test:
        return self_test(args)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
