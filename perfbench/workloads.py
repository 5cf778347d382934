"""The three workloads: inputs, set-up, one measured pass, output checks.

A *pass* is one complete, deterministic replay of a workload's inputs
on a freshly built stack.  Every pass of a run replays the same inputs,
so every pass must produce the same simulated outputs (the pass digest)
and the same ``repro.perf`` counts; the runner repeats passes for the
measured duration and compares them.  A pass also times each of its
units of work (a request, an arrival) in the same order every time, so
the runner can take each unit's least time over the passes.

Process-global state is reset at the start of every pass, so each pass
starts from the same state: the ``repro.perf.PERF`` counters and the
cost memos of ``repro.core.manager`` are cleared (cold, as in a fresh
process), and a full collection empties the collector's generations so
its pauses fall at the same points of every pass.  Interpreter warm-up
(lazy imports, first-call costs) is paid once by the untimed warm-up
pass in :meth:`Workload.setup`.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass, field

import repro.core.manager as manager_module
from repro.campaign.replay import service_trace
from repro.campaign.runner import run_scenario
from repro.campaign.spec import ScenarioSpec, normalize_params
from repro.perf import PERF
from repro.sched.kernel import SchedulingKernel
from repro.service import ReproService, ServiceAPI, ServiceConfig
from repro.service import checkpoint

from .tracer import Tracer

#: Module-level memos that outlive a run (see the module docstring).
_GLOBAL_MEMOS = ("_MOVE_COST_MEMO", "_CONFIG_COST_MEMO")


def reset_process_state() -> None:
    """Clear every process-global counter and memo a pass can touch.

    Raises :class:`AttributeError` when a memo is gone, so a renamed
    memo fails the run instead of letting passes start warm.
    """
    PERF.reset()
    for name in _GLOBAL_MEMOS:
        getattr(manager_module, name).clear()
    gc.collect()


def digest(obj) -> str:
    """A stable hash of JSON-ready data."""
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class PassResult:
    """What one pass measured and produced."""

    #: host seconds of the measured pass.
    wall_s: float
    #: tasks submitted.
    tasks: int
    #: per-submit latencies in host seconds, in submission order.
    latencies_s: list[float]
    #: host seconds of each unit of work (svc: each request of the plan
    #: with its client-side handling; batch: each task's arrival and the
    #: simulation up to the next one), in order; they add up to
    #: ``wall_s``.
    op_s: list[float]
    #: the simulated end-to-end metrics (deterministic per seed).
    sim: dict
    #: hash of the simulated outputs (deterministic per seed).
    digest: str
    #: ``repro.perf`` counters at the end of the pass.
    perf: dict
    #: failed output checks and malformed responses, one line each.
    errors: list[str] = field(default_factory=list)
    #: operations attempted (requests or scenario runs).
    attempted: int = 0
    #: workload-specific measurements (request counts, checkpoints...).
    extra: dict = field(default_factory=dict)


class Workload:
    """Interface of one benchmark workload."""

    name = ""
    #: passes every run makes, whatever the time budget.
    min_passes = 1
    #: seconds :func:`repro.service.checkpoint.restore` took in
    #: :meth:`final_checks` (0 where nothing is restored).
    restore_s = 0.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def inputs_digest(self) -> str:
        """Hash of the generated inputs (equal for equal seeds)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Generate inputs, build and warm the stack (timed as set-up)."""
        raise NotImplementedError

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        """One measured pass; ``tracer`` when tracing."""
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Checks that run once per run, after the first pass."""
        return []


# -- svc-diurnal-http -----------------------------------------------------------

#: The service under test: a 2-member fleet of the default device with
#: the priority queue, serial ports, concurrent rearrangement and
#: on-failure defrag, and a tight door.
SVC_CONFIG = dict(device="XC2S15", fleet_size=2, queue="priority",
                  ports="serial", rearrange="concurrent",
                  defrag="on-failure", max_queue_depth=16)
SVC_TENANTS = ("alice", "bob", "carol")
#: Submissions per pass, the tiny size of the self-test, and the passes
#: every run makes (about 36 s on a 2-core x86-64 VM).
SVC_SUBMISSIONS = 3000
SVC_TINY = 120
SVC_PASSES = 8
#: Request mix per submission: a read with this probability (task view
#: or stats), a cancel attempt with this one.  These shares are assumed,
#: not measured: no client of the service records its real mix.  The
#: README gives how much the host metrics move when they change.
SVC_READ_SHARE = 0.5
SVC_STATS_SHARE = 0.2
SVC_CANCEL_SHARE = 0.03
#: POST /checkpoint calls per pass, evenly spaced over the submissions
#: (one fewer than this; also assumed).
SVC_CHECKPOINTS = 12


async def http_request(host: str, port: int, method: str, path: str,
                       body: dict | None = None) -> tuple[int, bytes]:
    """One HTTP/1.1 request on its own connection; (status, body bytes).

    Raises :class:`ValueError` on a response that is not well formed.
    """
    data = json.dumps(body).encode() if body is not None else b""
    head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(data)}\r\n\r\n").encode()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(head + data)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    header, sep, payload = raw.partition(b"\r\n\r\n")
    if not sep:
        raise ValueError(f"{method} {path}: no header terminator")
    lines = header.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ValueError(f"{method} {path}: bad status line {lines[0]!r}")
    length = None
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    if length is not None and length != len(payload):
        raise ValueError(f"{method} {path}: body {len(payload)} bytes, "
                         f"Content-Length {length}")
    return int(parts[1]), payload


def _json_object(payload: bytes | None) -> dict:
    """A response body as a JSON object ({} when it is not one; the
    status checks then flag the response)."""
    try:
        value = json.loads(payload) if payload is not None else {}
    except ValueError:
        return {}
    return value if isinstance(value, dict) else {}


class ServiceWorkload(Workload):
    """Closed-loop HTTP replay of a diurnal trace through ``ServiceAPI``.

    One client sends one request at a time on a fresh connection, in
    one process.  Concurrent clients would reorder the ``at`` stamps,
    which the service refuses (the clock cannot go backwards).
    """

    name = "svc-diurnal-http"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.min_passes = 1 if tiny else SVC_PASSES
        self.trace: list[dict] = []
        self.plan: list[tuple] = []
        #: the raw mid-run snapshot and the mutations applied after it,
        #: kept from the first pass for the round-trip check.
        self._mid_snapshot: bytes | None = None
        self._mutations_after: list[tuple] = []
        self._final_journal: list | None = None
        self._final_telemetry: list | None = None

    def _make_inputs(self) -> tuple[list[dict], list[tuple]]:
        n = SVC_TINY if self.tiny else SVC_SUBMISSIONS
        trace = service_trace("diurnal", device=SVC_CONFIG["device"],
                              seed=self.seed, tenants=SVC_TENANTS, n=n,
                              peak_rate=20.0, priority_levels=3)
        rng = random.Random(f"svc-mix-{self.seed}")
        plan: list[tuple] = []
        for index in range(n):
            plan.append(("submit", index))
            draw = rng.random()
            if draw < SVC_CANCEL_SHARE:
                plan.append(("cancel", rng.randrange(8)))
            elif draw < SVC_CANCEL_SHARE + SVC_READ_SHARE:
                if rng.random() < SVC_STATS_SHARE / SVC_READ_SHARE:
                    plan.append(("stats",))
                else:
                    plan.append(("read", rng.randrange(1 << 30)))
            if (index + 1) % (n // SVC_CHECKPOINTS) == 0 and index + 1 < n:
                plan.append(("checkpoint",))
        plan.append(("settle",))
        return trace, plan

    def inputs_digest(self) -> str:
        trace, plan = self._make_inputs()
        return digest([trace, plan])

    def setup(self) -> None:
        self.trace, self.plan = self._make_inputs()
        reset_process_state()
        # Warm-up: the first 60 submissions with their reads, one
        # checkpoint and a settle, on a throwaway service.
        warm = [op for op in self.plan
                if op[0] in ("read", "stats", "cancel")
                or op[0] == "submit" and op[1] < 60]
        cut = warm.index(("submit", 59)) + 1
        asyncio.run(self._replay(self.trace, warm[:cut] + [
            ("checkpoint",), ("settle",)]))

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        reset_process_state()
        return asyncio.run(self._replay(self.trace, self.plan, tracer,
                                        keep=self._mid_snapshot is None))

    async def _replay(self, trace: list[dict], plan: list[tuple],
                      tracer: Tracer | None = None,
                      keep: bool = False) -> PassResult:
        api = ServiceAPI(ReproService(ServiceConfig(**SVC_CONFIG)))
        host, port = await api.start(port=0)
        try:
            return await self._drive(api, host, port, trace, plan,
                                     tracer, keep)
        finally:
            await api.stop()

    async def _drive(self, api: ServiceAPI, host: str, port: int,
                     trace: list[dict], plan: list[tuple],
                     tracer: Tracer | None, keep: bool) -> PassResult:
        perf_counter = time.perf_counter
        errors: list[str] = []
        latencies: list[float] = []
        statuses: list[int] = []
        checkpoint_ms: list[float] = []
        checkpoint_bytes: list[int] = []
        admitted_ids: list[int] = []
        mutations: list[tuple] = []
        refused = 0
        mid_checkpoint = sum(1 for op in plan if op[0] == "checkpoint") // 2
        checkpoints_seen = 0
        kinds = {}
        if tracer is not None:
            kinds = {kind: tracer.name_id("api." + kind) for kind in
                     ("submit", "read", "stats", "cancel", "checkpoint",
                      "settle")}
            tracer.push(tracer.name_id("bench.pass"))

        async def call(kind: str, method: str, path: str,
                       body: dict | None = None):
            if tracer is not None:
                tracer.request += 1
                tracer.push(kinds[kind])
            started = perf_counter()
            try:
                status, payload = await http_request(host, port, method,
                                                     path, body)
            except (ValueError, ConnectionError) as exc:
                errors.append(f"{kind}: {exc}")
                return None, None, perf_counter() - started
            finally:
                if tracer is not None:
                    tracer.pop()
            elapsed = perf_counter() - started
            statuses.append(status)
            if status >= 500:
                errors.append(f"{method} {path}: status {status}")
            return status, payload, elapsed

        # marks[i] is when op i began; the last mark ends the pass.
        marks: list[float] = []
        for op in plan:
            marks.append(perf_counter())
            kind = op[0]
            if kind == "submit":
                submission = trace[op[1]]
                status, payload, elapsed = await call(
                    "submit", "POST", "/tasks", submission)
                latencies.append(elapsed)
                view = _json_object(payload)
                if status is None:
                    continue
                if status == 202 and view.get("admitted"):
                    admitted_ids.append(view["task"])
                    mutations.append(("submit", op[1]))
                elif status == 429 and view.get("admitted") is False:
                    refused += 1
                    mutations.append(("submit", op[1]))
                else:
                    errors.append(f"submit {op[1]}: status {status}")
            elif kind == "read" and admitted_ids:
                task = admitted_ids[op[1] % len(admitted_ids)]
                status, _, _ = await call("read", "GET", f"/tasks/{task}")
                if status is not None and status != 200:
                    errors.append(f"read {task}: status {status}")
            elif kind == "stats":
                status, _, _ = await call("stats", "GET", "/stats")
                if status is not None and status != 200:
                    errors.append(f"stats: status {status}")
            elif kind == "cancel" and admitted_ids:
                task = admitted_ids[-1 - op[1] % len(admitted_ids)]
                status, payload, _ = await call("read", "GET",
                                                f"/tasks/{task}")
                if status != 200:
                    if status is not None:
                        errors.append(f"read {task}: status {status}")
                    continue
                if _json_object(payload).get("state") in ("queued",
                                                          "running"):
                    status, _, _ = await call("cancel", "DELETE",
                                              f"/tasks/{task}")
                    if status == 200:
                        mutations.append(("cancel", task))
                    elif status is not None:
                        errors.append(f"cancel {task}: status {status}")
            elif kind == "checkpoint":
                status, payload, elapsed = await call(
                    "checkpoint", "POST", "/checkpoint")
                if status != 200:
                    continue
                checkpoint_ms.append(elapsed * 1e3)
                checkpoint_bytes.append(len(payload))
                checkpoints_seen += 1
                if keep and checkpoints_seen == mid_checkpoint:
                    self._mid_snapshot = payload
                    mutations = []
            elif kind == "settle":
                status, _, _ = await call("settle", "POST", "/clock/settle")
                if status is not None and status != 200:
                    errors.append(f"settle: status {status}")
        marks.append(perf_counter())
        if tracer is not None:
            tracer.pop()

        service = api.service
        engine = service.engine
        metrics = engine.metrics
        if keep and self._mid_snapshot is not None:
            self._mutations_after = mutations
            self._final_journal = list(engine.journal)
            self._final_telemetry = list(engine.telemetry)
        states: dict[str, int] = {}
        for task in engine.tasks.values():
            states[task.state.value] = states.get(task.state.value, 0) + 1
        submissions = sum(1 for op in plan if op[0] == "submit")
        terminal = sum(states.get(s, 0) for s in
                       ("finished", "rejected", "cancelled", "dropped"))
        if refused + terminal != submissions:
            errors.append(
                f"conservation: {refused} refused + {terminal} terminal "
                f"!= {submissions} submissions ({states})")
        door = service.door.stats.values()
        if sum(s.submitted for s in door) != submissions \
                or sum(s.admitted for s in door) != len(engine.tasks):
            errors.append("conservation: door counters disagree with "
                          "the task registry")
        admitted = len(engine.tasks)
        sim = {
            "sim_rejected_frac": ((metrics.rejected + metrics.dropped_tasks)
                                  / admitted if admitted else 0.0),
            "sim_mean_wait_s": metrics.mean_waiting,
            "sim_mean_frag": metrics.mean_fragmentation,
            "refused_frac": refused / submissions if submissions else 0.0,
        }
        return PassResult(
            wall_s=marks[-1] - marks[0],
            tasks=submissions,
            latencies_s=latencies,
            op_s=[end - start for start, end in zip(marks, marks[1:])],
            sim=sim,
            digest=digest([engine.journal, engine.telemetry, statuses]),
            perf=PERF.snapshot(),
            errors=errors,
            attempted=len(statuses) + len(errors),
            extra={
                "requests": len(statuses),
                "status_4xx": sum(1 for s in statuses if 400 <= s < 500),
                "status_5xx": sum(1 for s in statuses if s >= 500),
                "checkpoint_ms": checkpoint_ms,
                "checkpoint_bytes": max(checkpoint_bytes, default=0),
                "journal_len": len(engine.journal),
                "telemetry_len": len(engine.telemetry),
            },
        )

    def final_checks(self) -> list[str]:
        """Checkpoint round trip: restore the mid-run snapshot into a
        fresh service, apply the rest of the pass's mutations, and
        require a bit-identical journal and telemetry."""
        if self._mid_snapshot is None:
            return ["round trip: no mid-run checkpoint was taken"]
        state = json.loads(self._mid_snapshot)
        started = time.perf_counter()
        service = checkpoint.restore(state)
        self.restore_s = time.perf_counter() - started
        for kind, value in self._mutations_after:
            if kind == "submit":
                service.submit(**self.trace[value])
            else:
                service.cancel(value)
        service.settle()
        errors = []
        if service.engine.journal != self._final_journal:
            errors.append("round trip: journal differs after restore")
        if service.engine.telemetry != self._final_telemetry:
            errors.append("round trip: telemetry differs after restore")
        return errors


# -- batch workloads ------------------------------------------------------------

#: Mean inter-arrival of the heavy-tail stream.  0.03 s keeps every seed
#: deep in overload: between an idle fabric and overload these streams
#: are bistable (some seeds collapse into a port-bound backlog, others
#: never contend), and host time and outcomes then swing by 2x from seed
#: to seed.
BATCH_MEAN_INTERARRIVAL = 0.03
#: Queueing patience of every batch task, in simulated seconds.
BATCH_MAX_WAIT = 8.0


@dataclass(frozen=True)
class BatchShape:
    """One batch workload: a group of seeded campaign scenarios."""

    device: str
    queue: str
    ports: str
    size_range: tuple[int, int]
    #: the ``repro.sched.workload`` stream and its mean inter-arrival.
    workload: str
    mean_interarrival: float
    #: tasks per scenario, scenarios per pass, and the passes every run
    #: makes.
    n: int
    scenarios: int
    passes: int


class BatchWorkload(Workload):
    """``run_scenario`` over a group of seeded task streams.

    Every pass runs the same ``scenarios`` scenarios, whose seeds derive
    from the workload seed.  Submit latency is the host time of
    ``SchedulingKernel.enqueue`` for each arriving task: the admission
    pass the task's arrival triggers, the batch counterpart of the
    service's ``POST /tasks``.
    """

    def __init__(self, name: str, shape: BatchShape, seed: int,
                 tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.name = name
        self.shape = shape
        self.n = 30 if tiny else shape.n
        self.scenarios = 1 if tiny else shape.scenarios
        self.min_passes = 1 if tiny else shape.passes

    def _specs(self, n: int | None = None) -> list[ScenarioSpec]:
        """The scenarios of a pass."""
        shape = self.shape
        params = normalize_params({
            "n": n or self.n, "size_range": shape.size_range,
            "priority_levels": 3, "max_wait": BATCH_MAX_WAIT,
            "mean_interarrival": shape.mean_interarrival,
        })
        return [
            ScenarioSpec(device=shape.device, policy="concurrent",
                         workload=shape.workload, seed=self.seed * 1000 + k,
                         queue=shape.queue, ports=shape.ports,
                         workload_params=params)
            for k in range(self.scenarios)
        ]

    def inputs_digest(self) -> str:
        from repro.device.devices import device as device_by_name
        from repro.sched.workload import make_workload

        dev = device_by_name(self.shape.device)
        rows = []
        for spec in self._specs():
            for task in make_workload(spec.workload, dev, spec.seed,
                                      **spec.params()):
                rows.append((task.arrival, task.height, task.width,
                             task.exec_seconds, task.priority))
        return digest(rows)

    def setup(self) -> None:
        self.inputs_digest()
        reset_process_state()
        run_scenario(self._specs(n=20)[0])

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        reset_process_state()
        specs = self._specs()
        latencies: list[float] = []
        original = SchedulingKernel.__dict__["enqueue"]
        perf_counter = time.perf_counter

        def timed_enqueue(kernel, *args, **kwargs):
            started = perf_counter()
            marks.append(started)
            original(kernel, *args, **kwargs)
            latencies.append(perf_counter() - started)

        SchedulingKernel.enqueue = timed_enqueue
        results = []
        # marks split the pass at each scenario's start and each task's
        # arrival: a unit of work is one arrival and the simulation up to
        # the next one.
        marks: list[float] = []
        try:
            if tracer is not None:
                scenario = tracer.name_id("campaign.run_scenario")
                tracer.push(tracer.name_id("bench.pass"))
            for k, spec in enumerate(specs):
                marks.append(perf_counter())
                if tracer is not None:
                    tracer.request = k + 1
                    tracer.push(scenario)
                try:
                    results.append(run_scenario(spec))
                finally:
                    if tracer is not None:
                        tracer.pop()
            marks.append(perf_counter())
            if tracer is not None:
                tracer.pop()
        finally:
            SchedulingKernel.enqueue = original
        errors = []
        for spec, result in zip(specs, results):
            if result.finished + result.rejected + result.dropped != self.n:
                errors.append(
                    f"conservation: seed {spec.seed}: {result.finished} "
                    f"finished + {result.rejected} rejected + "
                    f"{result.dropped} dropped != {self.n}")
        total = self.n * len(results)
        if len(latencies) != total:
            errors.append(f"{len(latencies)} enqueue calls for {total} "
                          "tasks")
        rows = []
        for result in results:
            row = result.to_row()
            row.pop("wall_seconds")
            rows.append(row)
        finished = sum(r.finished for r in results)
        sim = {
            "sim_rejected_frac": (sum(r.rejected + r.dropped for r in results)
                                  / total),
            "sim_mean_wait_s": (sum(r.mean_waiting * r.finished
                                    for r in results) / finished
                                if finished else 0.0),
            "sim_mean_frag": (sum(r.mean_fragmentation for r in results)
                              / len(results)),
            "refused_frac": 0.0,
        }
        return PassResult(
            wall_s=marks[-1] - marks[0], tasks=total, latencies_s=latencies,
            op_s=[end - start for start, end in zip(marks, marks[1:])],
            sim=sim, digest=digest(rows), perf=PERF.snapshot(),
            errors=errors, attempted=len(results),
        )


#: Batch workload shapes by name.  ``batch-backfill-v200`` replays
#: uniform service times (the ``random`` stream): one heavy-tail scenario
#: differs from the next in host time by about 48 % (one standard
#: deviation), a uniform one by about 25 %, so the same run length holds
#: a steadier sample of the planner's work.  Its run holds as many
#: scenarios as two passes allow, because the scenarios a seed draws
#: move its metrics more than the host does.  ``batch-fifo-v1000`` runs
#: but is not gated in ``BENCHMARK.json``: its run-to-run spread on a
#: shared 2-core machine is wider than the largest bound the benchmark
#: may set.
BATCH_SHAPES = {
    "batch-backfill-v200": BatchShape(
        device="XCV200", queue="backfill", ports="icap",
        size_range=(3, 10), workload="random",
        mean_interarrival=BATCH_MEAN_INTERARRIVAL, n=300, scenarios=30,
        passes=2),
    "batch-fifo-v1000": BatchShape(
        device="XCV1000", queue="fifo", ports="serial",
        size_range=(7, 22), workload="heavy-tail",
        mean_interarrival=BATCH_MEAN_INTERARRIVAL, n=200, scenarios=15,
        passes=2),
}


#: Every workload the benchmark can run, gated or not.
NAMES = ("svc-diurnal-http", *BATCH_SHAPES)


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload called ``name`` at ``seed``."""
    if name == ServiceWorkload.name:
        return ServiceWorkload(seed, tiny)
    if name in BATCH_SHAPES:
        return BatchWorkload(name, BATCH_SHAPES[name], seed, tiny)
    raise KeyError(f"unknown workload {name!r}")
