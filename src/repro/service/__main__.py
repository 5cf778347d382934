"""Run the always-on admission service: ``python -m repro.service``.

Boots a :class:`~repro.service.app.ReproService` (or restores one from
a checkpoint), serves it over HTTP and runs until ``SIGINT``/``SIGTERM``
or a ``POST /shutdown`` — optionally writing a checkpoint on the way
out, so a stopped service resumes exactly where it left off:

.. code-block:: console

   $ python -m repro.service --port 8327 --fleet-size 2 &
   $ curl -s localhost:8327/tasks -d '{"height":4,"width":4,"exec_seconds":1.0}'
   $ curl -s -X POST localhost:8327/shutdown

Simulated time is decoupled from wall time by default (clients advance
it explicitly); ``--auto-advance R`` attaches a wall-clock ticker that
advances R simulated seconds per wall second for interactive use.

``--replay WORKLOAD`` runs the replay-to-service driver in-process
instead of serving: the seeded workload is pushed through the door,
the service settles, and the summary is printed as JSON — the CI smoke
path and a quick way to compare door behaviour across configs.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys

from repro.sched.workload import WorkloadSpec, get_workload
from repro.stack import AXES

from . import checkpoint
from .api import ServiceAPI
from .app import ReproService, ServiceConfig
from .qos import QOS_NAMES


def build_parser() -> argparse.ArgumentParser:
    """The service daemon's command line."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Always-on admission service over the scheduling "
                    "stack (REST/JSON, QoS door, checkpoint/restore).",
    )
    net = parser.add_argument_group("network")
    net.add_argument("--host", default="127.0.0.1")
    net.add_argument("--port", type=int, default=8327,
                     help="TCP port (0 picks an ephemeral one)")
    stack = parser.add_argument_group("scheduling stack")
    stack.add_argument("--device", default="XC2S15",
                       help="primary member device name")
    stack.add_argument("--fleet-size", type=int, default=1,
                       help="number of member devices (copies of "
                            "--device unless --fleet-devices names them)")
    stack.add_argument("--fleet-devices", nargs="+", default=[],
                       metavar="NAME",
                       help="extra member device names, appended after "
                            "--device")
    stack.add_argument("--device-policy", default="first-fit",
                       help="fleet device-selection policy")
    stack.add_argument("--queue", default="priority",
                       help="queue discipline (priority honours QoS)")
    stack.add_argument("--ports", default="serial",
                       help="reconfiguration-port model per member")
    stack.add_argument("--rearrange", default="concurrent",
                       help="rearrangement policy (none/halt/concurrent)")
    stack.add_argument("--fit", default="first",
                       help="placement heuristic")
    stack.add_argument("--defrag", default="on-failure",
                       help="defragmentation policy")
    stack.add_argument("--prefetch", default="never",
                       help="configuration-prefetch mode "
                            "(never/cache/plan)")
    door = parser.add_argument_group("admission door")
    door.add_argument("--max-queue-depth", type=int, default=None,
                      help="waiting-queue bound before the door sheds "
                           "load (default: the door's built-in bound)")
    life = parser.add_argument_group("lifecycle")
    life.add_argument("--restore", metavar="PATH",
                      help="boot from a checkpoint file instead of fresh")
    life.add_argument("--checkpoint-on-exit", metavar="PATH",
                      help="write a checkpoint on graceful shutdown")
    life.add_argument("--auto-advance", type=float, default=0.0,
                      metavar="RATE",
                      help="advance RATE simulated seconds per wall "
                           "second (default 0: clients drive the clock)")
    replay = parser.add_argument_group("replay mode (no server)")
    replay.add_argument("--replay", metavar="WORKLOAD",
                        help="replay a seeded workload through the door "
                             "in-process, print the JSON summary, exit")
    replay.add_argument("--replay-tasks", type=int, default=200,
                        help="workload size (the family's size knob)")
    replay.add_argument("--replay-seed", type=int, default=0)
    replay.add_argument("--replay-tenants", nargs="+",
                        default=["default"], metavar="TENANT",
                        help="tenant names, assigned round-robin")
    return parser


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    """Translate parsed CLI flags into a :class:`ServiceConfig` (each
    stack flag's destination is its config field)."""
    config = {axis.service: getattr(args, axis.service)
              for axis in AXES if axis.service}
    if args.max_queue_depth is not None:
        config["max_queue_depth"] = args.max_queue_depth
    return ServiceConfig(**config)


def _build_service(args: argparse.Namespace) -> ReproService:
    """Fresh service from flags, or one restored from --restore."""
    if args.restore:
        return checkpoint.load(args.restore)
    return ReproService(config_from_args(args))


async def _ticker(api: ServiceAPI, rate: float) -> None:
    """Advance simulated time from the wall clock (--auto-advance)."""
    while True:
        await asyncio.sleep(0.1)
        api.service.advance(seconds=0.1 * rate)


async def _serve(args: argparse.Namespace, service: ReproService) -> int:
    """Serve until shutdown, optionally checkpoint on the way out."""
    api = ServiceAPI(service)
    host, port = await api.start(args.host, args.port)
    print(json.dumps({
        "serving": f"http://{host}:{port}",
        "qos": list(QOS_NAMES),
        "now": api.service.now,
    }), flush=True)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, api.shutdown.set)
    ticker = (asyncio.ensure_future(_ticker(api, args.auto_advance))
              if args.auto_advance > 0 else None)
    await api.shutdown.wait()
    if ticker is not None:
        ticker.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await ticker
    await api.stop()
    if args.checkpoint_on_exit:
        saved = checkpoint.save(api.service, args.checkpoint_on_exit)
        print(json.dumps({"checkpoint": str(saved)}), flush=True)
    return 0


def _replay(args: argparse.Namespace, service: ReproService,
            workload: WorkloadSpec) -> int:
    """Replay mode: drive the door in-process and print the summary."""
    from repro.campaign.replay import replay_workload

    spec_kwargs = {}
    if workload.size_param:
        spec_kwargs[workload.size_param] = args.replay_tasks
    summary = replay_workload(
        service, args.replay, seed=args.replay_seed,
        tenants=tuple(args.replay_tenants) or ("default",),
        **spec_kwargs,
    )
    print(json.dumps(summary, indent=2), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: replay mode or serve-until-shutdown.  A malformed
    config or an unknown replay workload prints one ``error:`` line and
    exits 2."""
    args = build_parser().parse_args(argv)
    try:
        workload = get_workload(args.replay) if args.replay else None
        service = _build_service(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}",
              file=sys.stderr)
        return 2
    if workload is not None:
        return _replay(args, service, workload)
    return asyncio.run(_serve(args, service))


if __name__ == "__main__":
    sys.exit(main())
