"""``python -m repro.campaign`` — run a parameter-sweep campaign.

The default grid is the acceptance scenario of the campaign engine:
2 devices x 3 rearrangement policies x 2 workloads x 2 seeds = 24 runs,
executed in parallel, summarized per cell and compared policy against
policy.  Every axis is overridable::

    python -m repro.campaign                          # default 24-run grid
    python -m repro.campaign --devices XCV200 --seeds 0 1 2 3
    python -m repro.campaign --workloads random heavy-tail --jobs 2
    python -m repro.campaign --csv out.csv --json out.json
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.defrag_policy import DEFRAG_POLICY_NAMES
from repro.faults import FAULT_PLAN_NAMES
from repro.fleet.policies import DEFAULT_DEVICE_POLICY, DEVICE_POLICY_NAMES
from repro.placement.free_space import FREE_SPACE_NAMES
from repro.sched.ports import PORT_MODEL_NAMES, normalize_port_model
from repro.sched.prefetch import PREFETCH_MODES
from repro.sched.queues import QUEUE_NAMES
from repro.sched.workload import WORKLOADS
from repro.stack import AXES, HEADLINE

from .aggregate import CampaignResult
from .runner import ScenarioResult, default_jobs, run_campaign
from .spec import POLICY_NAMES, PORT_KINDS, CampaignSpec

#: Small parts keep the default grid fast while still exercising
#: rearrangement (both are real Spartan-II entries of the device table).
DEFAULT_DEVICES = ("XC2S15", "XC2S30")
DEFAULT_WORKLOADS = ("random", "bursty")
DEFAULT_SEEDS = (0, 1)


def build_parser() -> argparse.ArgumentParser:
    """The campaign CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Parallel parameter-sweep campaigns over the "
                    "run-time logic-space manager.",
    )
    grid = parser.add_argument_group("grid axes")
    grid.add_argument("--devices", nargs="+", default=list(DEFAULT_DEVICES),
                      metavar="NAME", help="device names (see repro.device)")
    grid.add_argument("--policies", nargs="+", default=list(POLICY_NAMES),
                      choices=POLICY_NAMES, metavar="POLICY",
                      help=f"rearrangement policies {POLICY_NAMES}")
    grid.add_argument("--workloads", nargs="+",
                      default=list(DEFAULT_WORKLOADS),
                      choices=sorted(WORKLOADS), metavar="NAME",
                      help=f"workload families {sorted(WORKLOADS)}")
    grid.add_argument("--seeds", nargs="+", type=int,
                      default=list(DEFAULT_SEEDS), metavar="N",
                      help="RNG seeds (one run per seed per cell)")
    grid.add_argument("--fits", nargs="+", default=["first"],
                      choices=("first", "best", "bottom-left"),
                      metavar="FIT", help="placement fit strategies")
    grid.add_argument("--port-kinds", nargs="+", default=["boundary-scan"],
                      choices=PORT_KINDS, metavar="KIND",
                      dest="port_kinds",
                      help=f"configuration-port kinds {PORT_KINDS}: the "
                           "cost model pricing port seconds (how those "
                           "seconds are *served* is --ports)")
    grid.add_argument("--free-space", nargs="+", default=["incremental"],
                      choices=FREE_SPACE_NAMES, metavar="ENGINE",
                      dest="free_spaces",
                      help=f"free-space engines {FREE_SPACE_NAMES}")
    grid.add_argument("--defrag", nargs="+", default=["on-failure"],
                      choices=DEFRAG_POLICY_NAMES, metavar="POLICY",
                      dest="defrags",
                      help=f"defrag trigger policies {DEFRAG_POLICY_NAMES}")
    grid.add_argument("--queue", nargs="+", default=["fifo"],
                      choices=QUEUE_NAMES, metavar="DISCIPLINE",
                      dest="queues",
                      help=f"queue disciplines {QUEUE_NAMES}")
    grid.add_argument("--ports", nargs="+", default=["serial"],
                      type=normalize_port_model, metavar="MODEL",
                      dest="ports",
                      help="reconfiguration-port service models "
                           f"{PORT_MODEL_NAMES} (multi-N or a bare "
                           "port count, e.g. '--ports 2'; the pricing "
                           "side is --port-kinds)")
    grid.add_argument("--fleet-size", nargs="+", type=int, default=[1],
                      metavar="N", dest="fleet_sizes",
                      help="fleet sizes: identical fabrics sharing the "
                           "workload (1 = the single-device paper model)")
    grid.add_argument("--device-policy", nargs="+",
                      default=[DEFAULT_DEVICE_POLICY],
                      choices=DEVICE_POLICY_NAMES, metavar="POLICY",
                      dest="device_policies",
                      help="fleet device-selection policies "
                           f"{DEVICE_POLICY_NAMES}")
    grid.add_argument("--fleet-devices", nargs="+", default=[],
                      metavar="NAME", dest="fleet_devices",
                      help="extra member devices joining each --devices "
                           "value in a heterogeneous fleet (pins the "
                           "fleet size; leave --fleet-size unset)")
    grid.add_argument("--prefetch", nargs="+", default=["never"],
                      choices=PREFETCH_MODES, metavar="MODE",
                      dest="prefetches",
                      help=f"configuration-prefetch modes {PREFETCH_MODES}: "
                           "resident-bitstream cache (cache) plus "
                           "idle-window planned loads (plan)")
    grid.add_argument("--faults", nargs="+", default=["none"],
                      choices=FAULT_PLAN_NAMES, metavar="PLAN",
                      dest="faults",
                      help=f"seeded fault plans {FAULT_PLAN_NAMES}: "
                           "member death mid-surge, stuck-at region "
                           "outbreaks, flaky configuration ports "
                           "(kill-member needs --fleet-size >= 2)")
    grid.add_argument("--trace", metavar="FILE", default=None,
                      help="replay an NDJSON arrival trace: adds the "
                           "'trace' workload reading FILE (one JSON "
                           "object per line: at/tenant/qos/height/"
                           "width/duration/max_wait)")
    size = parser.add_argument_group("workload sizing")
    size.add_argument("--tasks", type=int, default=30, metavar="N",
                      help="tasks per run for task-stream workloads")
    size.add_argument("--apps", type=int, default=3, metavar="N",
                      help="applications per run for chain workloads")
    size.add_argument("--priority-levels", type=int, default=1,
                      metavar="N", dest="priority_levels",
                      help="QoS priority classes drawn per task/app "
                           "(1 = priority-unaware, keeps historical "
                           "random streams)")
    execution = parser.add_argument_group("execution")
    execution.add_argument("--jobs", type=int, default=None, metavar="N",
                           help="worker processes (default: min(8, cores); "
                                "1 = serial)")
    execution.add_argument("--metric", default="mean_waiting",
                           choices=ScenarioResult.ALL_METRIC_FIELDS,
                           help="metric for the policy-comparison table")
    execution.add_argument("--csv", metavar="PATH",
                           help="write per-run results as CSV")
    execution.add_argument("--json", metavar="PATH",
                           help="write per-run results as JSON")
    execution.add_argument("--quiet", action="store_true",
                           help="suppress tables (exports still written)")
    return parser


def campaign_from_args(args: argparse.Namespace) -> CampaignSpec:
    """Translate parsed CLI arguments into a :class:`CampaignSpec`.

    ``--trace FILE`` appends the ``trace`` replay workload (reading
    FILE) to whatever ``--workloads`` named, so a recorded arrival
    sequence can ride next to synthetic families in one grid.
    """
    grid = {axis.grid: getattr(args, axis.grid) for axis in AXES}
    params: dict[str, dict] = {}
    if args.trace is not None:
        params["trace"] = {"path": args.trace}
        if "trace" not in args.workloads:
            grid["workloads"] = [*args.workloads, "trace"]
    for name in args.workloads:
        family = WORKLOADS[name]
        if family.size_param:
            size = args.tasks if family.kind == "tasks" else args.apps
            params[name] = {family.size_param: size}
            if args.priority_levels > 1:
                params[name]["priority_levels"] = args.priority_levels
        # families without a size_param (fig1) are fixed scenarios.
    return CampaignSpec(**grid, workload_params=params)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    campaign = campaign_from_args(args)
    try:
        specs = campaign.expand()
    except (KeyError, ValueError) as exc:
        # Unknown device/axis values surface here; argparse choices
        # catch the rest.
        print(f"error: {exc.args[0] if exc.args else exc}",
              file=sys.stderr)
        return 2
    jobs = args.jobs if args.jobs is not None else default_jobs()
    if not args.quiet:
        # Required axes are always counted, optional ones once swept.
        terms = [
            f"{len(getattr(args, axis.grid))} {axis.label}"
            for axis in AXES if axis.swept
            and (axis.required or len(getattr(args, axis.grid)) > 1)
        ]
        print(f"campaign: {len(specs)} runs ({' x '.join(terms)}), "
              f"{jobs} worker(s)")
    started = time.perf_counter()
    results = CampaignResult(run_campaign(specs, jobs=jobs))
    elapsed = time.perf_counter() - started
    if not args.quiet:
        results.summary_table().show()
        results.pivot_table(HEADLINE, args.metric).show()
        for axis in AXES:
            if axis.pivot and len(getattr(args, axis.grid)) > 1:
                results.pivot_table(axis.field, args.metric).show()
        sim_seconds = sum(r.wall_seconds for r in results.results)
        print(
            f"\n{len(results)} runs in {elapsed:.2f} s wall "
            f"({sim_seconds:.2f} s of scenario compute"
            + (f", {sim_seconds / elapsed:.1f}x parallel speedup"
               if elapsed > 0 else "")
            + ")"
        )
    try:
        if args.csv:
            print(f"wrote {results.to_csv(args.csv)}")
        if args.json:
            print(f"wrote {results.to_json(args.json)}")
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
