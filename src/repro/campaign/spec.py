"""Declarative experiment specifications and grid expansion.

A campaign is a cartesian grid over the experiment axes the paper's
evaluation (and the related policy-matrix studies: floor-plan
prediction, strip packing with delays) sweep:

    device x rearrange policy x fit x port x free-space engine
           x defrag policy x queue x port model x fleet size
           x device-selection policy x prefetch mode x fault plan
           x workload x seed

:class:`ScenarioSpec` pins one point of that grid; :class:`CampaignSpec`
holds the axes and expands them into a deterministic run list.  Both
read the axes from the one table :data:`repro.stack.AXES`.  Specs are
plain picklable data so the runner can ship them to worker processes
unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

from repro.fleet.policies import DEFAULT_DEVICE_POLICY
from repro.sched.workload import get_workload as workload_by_name
from repro.stack import (  # the name tuples are re-exported here
    AXES,
    AXIS,
    POLICY_NAMES,
    PORT_KINDS,
    check_fleet,
)

#: The axes in expansion order: the stack axes in table order, then the
#: workload and the seed, which vary fastest.
_EXPANSION = sorted(AXES, key=lambda axis: axis.inner)


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully pinned experiment scenario.

    All fields are primitive (strings, ints, a params tuple) so the spec
    pickles cheaply, hashes, and round-trips through JSON.  Workload
    parameters are stored as a sorted tuple of ``(key, value)`` pairs;
    use :meth:`params` for the dict form.
    """

    device: str
    policy: str
    workload: str
    seed: int
    fit: str = "first"
    port_kind: str = "boundary-scan"
    free_space: str = "incremental"
    defrag: str = "on-failure"
    queue: str = "fifo"
    ports: str = "serial"
    #: fleet axes: how many fabrics share the workload (1 = the paper's
    #: single-device model), which device-selection policy routes
    #: requests, and — for heterogeneous fleets — the *additional*
    #: member devices joining the primary ``device`` (when given, they
    #: pin ``fleet_size`` to ``1 + len(fleet_devices)``; the primary
    #: stays member 0 and sizes the workload).
    fleet_size: int = 1
    device_policy: str = DEFAULT_DEVICE_POLICY
    fleet_devices: tuple[str, ...] = ()
    #: configuration-prefetch mode (``never`` / ``cache`` / ``plan``);
    #: ``never`` reproduces the historical behaviour bit for bit.
    prefetch: str = "never"
    #: named fault plan injected into the run (see
    #: :data:`repro.faults.FAULT_PLAN_NAMES`); ``none`` injects nothing
    #: and reproduces the fault-free behaviour bit for bit.
    faults: str = "none"
    workload_params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        # Every axis is resolved to its canonical value (the port model
        # "2" -> "multi-2", a device list -> a tuple); a frozen
        # dataclass, so write through object.__setattr__.
        for axis in AXES:
            object.__setattr__(self, axis.field,
                               axis.resolve(getattr(self, axis.field)))
        check_fleet(self.fleet_size, self.fleet_devices)
        if self.fleet_devices:
            object.__setattr__(self, "fleet_size",
                               1 + len(self.fleet_devices))
        if self.faults != "none" and self.scheduler_kind != "tasks":
            raise ValueError(
                "fault plans apply to independent-task workloads only"
            )
        if self.faults == "kill-member" and self.fleet_size < 2:
            raise ValueError(
                "the kill-member fault plan needs a fleet "
                "(fleet_size >= 2)"
            )

    @property
    def scheduler_kind(self) -> str:
        """``"tasks"`` or ``"apps"`` — derived from the workload family."""
        return workload_by_name(self.workload).kind

    def params(self) -> dict:
        """Workload parameters as a dict."""
        return dict(self.workload_params)

    def cells(self) -> dict:
        """Every axis's row value, in field order; a device list (the
        fleet composition) is ``"+"``-joined so rows stay scalar (empty
        for homogeneous fleets)."""
        values = {f.name: getattr(self, f.name)
                  for f in fields(self) if f.name in AXIS}
        return {name: "+".join(value) if isinstance(value, tuple)
                else value for name, value in values.items()}

    def to_dict(self) -> dict:
        """JSON-friendly representation, in field order.

        The sparse axes (see :data:`repro.stack.AXES`: the queue and
        port models, the fleet axes, prefetch and faults) are emitted
        only when they differ from their defaults.  This keeps the
        exported row shape — and the committed golden snapshots —
        bit-identical for campaigns that never touch them.
        :meth:`CampaignResult.rows
        <repro.campaign.aggregate.CampaignResult.rows>` back-fills the
        columns for mixed sweeps.
        """
        out = {
            name: value for name, value in self.cells().items()
            if not AXIS[name].sparse
            or getattr(self, name) != AXIS[name].default
        }
        out["workload_params"] = self.params()
        return out


def normalize_params(params: dict | None) -> tuple[tuple[str, object], ...]:
    """Canonical (sorted, hashable) form of a workload-parameter dict."""
    if not params:
        return ()
    return tuple(sorted(params.items()))


@dataclass
class CampaignSpec:
    """The axes of a sweep; :meth:`expand` yields the run grid.

    Axis order in the expansion is fixed (the stack axes in
    :data:`repro.stack.AXES` order, then workload, then seed) so a
    campaign's run list — and therefore its result ordering — is
    deterministic for a given spec.
    """

    devices: list[str] = field(default_factory=lambda: ["XCV200"])
    policies: list[str] = field(default_factory=lambda: list(POLICY_NAMES))
    workloads: list[str] = field(default_factory=lambda: ["random"])
    seeds: list[int] = field(default_factory=lambda: [0])
    fits: list[str] = field(default_factory=lambda: ["first"])
    port_kinds: list[str] = field(default_factory=lambda: ["boundary-scan"])
    free_spaces: list[str] = field(default_factory=lambda: ["incremental"])
    defrags: list[str] = field(default_factory=lambda: ["on-failure"])
    queues: list[str] = field(default_factory=lambda: ["fifo"])
    ports: list[str] = field(default_factory=lambda: ["serial"])
    fleet_sizes: list[int] = field(default_factory=lambda: [1])
    device_policies: list[str] = field(
        default_factory=lambda: [DEFAULT_DEVICE_POLICY]
    )
    prefetches: list[str] = field(default_factory=lambda: ["never"])
    faults: list[str] = field(default_factory=lambda: ["none"])
    #: additional member devices joining each run's primary device
    #: (one heterogeneous composition for the whole campaign; when
    #: non-empty it overrides ``fleet_sizes``, which must stay at its
    #: default — the composition *is* the fleet-size axis then).
    fleet_devices: list[str] = field(default_factory=list)
    #: per-workload generator parameters, keyed by workload name,
    #: e.g. ``{"random": {"n": 30}, "codec-swap": {"n_apps": 4}}``.
    workload_params: dict[str, dict] = field(default_factory=dict)

    def _grid(self) -> list[list]:
        """Each axis's values in expansion order (a pinned fleet
        composition is one value for every run)."""
        if self.fleet_devices and self.fleet_sizes != [1]:
            raise ValueError(
                "fleet_devices pins the fleet composition; "
                "leave fleet_sizes at its default"
            )
        return [getattr(self, axis.grid) if axis.swept
                else [getattr(self, axis.grid)] for axis in _EXPANSION]

    def expand(self) -> list[ScenarioSpec]:
        """The cartesian product of the axes, in deterministic order."""
        names = [axis.field for axis in _EXPANSION]
        specs = []
        for values in itertools.product(*self._grid()):
            point = dict(zip(names, values))
            specs.append(ScenarioSpec(
                **point,
                workload_params=normalize_params(
                    self.workload_params.get(point["workload"])
                ),
            ))
        return specs

    @property
    def size(self) -> int:
        """Number of runs the grid expands to."""
        return math.prod(len(values) for values in self._grid())
