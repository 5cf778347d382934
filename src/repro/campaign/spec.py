"""Declarative experiment specifications and grid expansion.

A campaign is a cartesian grid over the experiment axes the paper's
evaluation (and the related policy-matrix studies: floor-plan
prediction, strip packing with delays) sweep:

    device x rearrange policy x fit x port x free-space engine
           x defrag policy x queue x port model x fleet size
           x device-selection policy x workload x seed

:class:`ScenarioSpec` pins one point of that grid; :class:`CampaignSpec`
holds the axes and expands them into a deterministic run list.  Specs
are plain picklable data so the runner can ship them to worker
processes unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.defrag_policy import DEFRAG_POLICY_NAMES
from repro.core.manager import RearrangePolicy
from repro.device.devices import device as device_by_name
from repro.faults import FAULT_PLAN_NAMES
from repro.fleet.policies import DEFAULT_DEVICE_POLICY, DEVICE_POLICY_NAMES
from repro.placement.fit import fitter
from repro.placement.free_space import FREE_SPACE_NAMES
from repro.sched.ports import normalize_port_model
from repro.sched.prefetch import normalize_prefetch_mode
from repro.sched.queues import QUEUE_NAMES
from repro.sched.workload import get_workload as workload_by_name

#: Valid rearrangement policy names (the RearrangePolicy values).
POLICY_NAMES = tuple(p.value for p in RearrangePolicy)
#: Valid configuration-port kinds (see repro.core.cost.CostModel).
PORT_KINDS = ("boundary-scan", "selectmap")


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
        device_by_name(self.device)  # raises KeyError when unknown
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown policy {self.policy!r}; choose from {POLICY_NAMES}"
            )
        if self.port_kind not in PORT_KINDS:
            raise ValueError(
                f"unknown port {self.port_kind!r}; choose from {PORT_KINDS}"
            )
        if self.free_space not in FREE_SPACE_NAMES:
            raise ValueError(
                f"unknown free-space engine {self.free_space!r}; "
                f"choose from {FREE_SPACE_NAMES}"
            )
        if self.defrag not in DEFRAG_POLICY_NAMES:
            raise ValueError(
                f"unknown defrag policy {self.defrag!r}; "
                f"choose from {DEFRAG_POLICY_NAMES}"
            )
        if self.queue not in QUEUE_NAMES:
            raise ValueError(
                f"unknown queue discipline {self.queue!r}; "
                f"choose from {QUEUE_NAMES}"
            )
        # Canonicalise the port model ("2" -> "multi-2"); frozen
        # dataclass, so write through object.__setattr__.
        object.__setattr__(self, "ports", normalize_port_model(self.ports))
        if self.device_policy not in DEVICE_POLICY_NAMES:
            raise ValueError(
                f"unknown device policy {self.device_policy!r}; "
                f"choose from {DEVICE_POLICY_NAMES}"
            )
        # An explicit heterogeneous member list pins the fleet size.
        object.__setattr__(
            self, "fleet_devices", tuple(self.fleet_devices)
        )
        for name in self.fleet_devices:
            device_by_name(name)  # raises KeyError when unknown
        if self.fleet_devices:
            if self.fleet_size != 1:
                raise ValueError(
                    "fleet_devices pins the fleet composition; "
                    "leave fleet_size at its default"
                )
            object.__setattr__(
                self, "fleet_size", 1 + len(self.fleet_devices)
            )
        if self.fleet_size < 1:
            raise ValueError("fleet_size must be at least 1")
        object.__setattr__(
            self, "prefetch", normalize_prefetch_mode(self.prefetch)
        )
        fitter(self.fit)  # raises on unknown strategy
        workload = workload_by_name(self.workload)  # raises on unknown
        if self.faults not in FAULT_PLAN_NAMES:
            raise ValueError(
                f"unknown fault plan {self.faults!r}; "
                f"choose from {FAULT_PLAN_NAMES}"
            )
        if self.faults != "none" and workload.kind != "tasks":
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

    @property
    def rearrange_policy(self) -> RearrangePolicy:
        """The enum value behind :attr:`policy`."""
        return RearrangePolicy(self.policy)

    def params(self) -> dict:
        """Workload parameters as a dict."""
        return dict(self.workload_params)

    def fleet_label(self) -> str:
        """The scalar row/cell form of :attr:`fleet_devices`: member
        names ``"+"``-joined, empty for homogeneous fleets.  The single
        definition behind both :meth:`to_dict` and the aggregation
        back-fill, so exports and group keys can never drift apart."""
        return "+".join(self.fleet_devices)

    def fleet_device_names(self) -> tuple[str, ...]:
        """Member device names of the fleet, primary first.

        ``fleet_devices`` members join the primary ``device``;
        otherwise the fleet is ``fleet_size`` copies of it.  A 1-tuple
        means the single-device paper model, run as a 1-member fleet.
        """
        if self.fleet_devices:
            return (self.device, *self.fleet_devices)
        return (self.device,) * self.fleet_size

    def to_dict(self) -> dict:
        """JSON-friendly representation.

        The scheduling-policy axes (``queue``, ``ports``) and the fleet
        axes (``fleet_size``, ``device_policy``, ``fleet_devices`` —
        the latter flattened to a ``"+"``-joined string so rows stay
        scalar) are emitted only when they differ from their defaults.
        This keeps the exported row shape — and the committed golden
        snapshots — bit-identical for campaigns that never touch them.
        Aggregation reads the attributes directly, and
        :meth:`CampaignResult.rows
        <repro.campaign.aggregate.CampaignResult.rows>` back-fills the
        columns for mixed sweeps.
        """
        out = {
            "device": self.device,
            "policy": self.policy,
            "workload": self.workload,
            "seed": self.seed,
            "fit": self.fit,
            "port_kind": self.port_kind,
            "free_space": self.free_space,
            "defrag": self.defrag,
        }
        if self.queue != "fifo":
            out["queue"] = self.queue
        if self.ports != "serial":
            out["ports"] = self.ports
        if self.fleet_size != 1:
            out["fleet_size"] = self.fleet_size
        if self.device_policy != DEFAULT_DEVICE_POLICY:
            out["device_policy"] = self.device_policy
        if self.fleet_devices:
            out["fleet_devices"] = self.fleet_label()
        if self.prefetch != "never":
            out["prefetch"] = self.prefetch
        if self.faults != "none":
            out["faults"] = self.faults
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

    Axis order in the expansion is fixed (device, policy, fit, port,
    free-space engine, defrag policy, queue discipline, port model,
    fleet size, device-selection policy, prefetch mode, fault plan,
    workload, seed) so a campaign's run list — and therefore its result
    ordering — is deterministic for a given spec.
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

    def _fleet_size_axis(self) -> list[int]:
        """The fleet-size axis, collapsed by an explicit composition."""
        if self.fleet_devices:
            if self.fleet_sizes != [1]:
                raise ValueError(
                    "fleet_devices pins the fleet composition; "
                    "leave fleet_sizes at its default"
                )
            return [1 + len(self.fleet_devices)]
        return self.fleet_sizes

    def expand(self) -> list[ScenarioSpec]:
        """The cartesian product of the axes, in deterministic order."""
        fleet_devices = tuple(self.fleet_devices)
        return [
            ScenarioSpec(
                device=dev,
                policy=pol,
                workload=wl,
                seed=seed,
                fit=fit,
                port_kind=port,
                free_space=space,
                defrag=defrag,
                queue=queue,
                ports=ports,
                fleet_size=fleet if not fleet_devices else 1,
                device_policy=device_policy,
                fleet_devices=fleet_devices,
                prefetch=prefetch,
                faults=faults,
                workload_params=normalize_params(
                    self.workload_params.get(wl)
                ),
            )
            for dev, pol, fit, port, space, defrag, queue, ports,
            fleet, device_policy, prefetch, faults, wl, seed
            in itertools.product(
                self.devices,
                self.policies,
                self.fits,
                self.port_kinds,
                self.free_spaces,
                self.defrags,
                self.queues,
                self.ports,
                self._fleet_size_axis(),
                self.device_policies,
                self.prefetches,
                self.faults,
                self.workloads,
                self.seeds,
            )
        ]

    @property
    def size(self) -> int:
        """Number of runs the grid expands to."""
        return (
            len(self.devices)
            * len(self.policies)
            * len(self.fits)
            * len(self.port_kinds)
            * len(self.free_spaces)
            * len(self.defrags)
            * len(self.queues)
            * len(self.ports)
            * len(self._fleet_size_axis())
            * len(self.device_policies)
            * len(self.prefetches)
            * len(self.faults)
            * len(self.workloads)
            * len(self.seeds)
        )
