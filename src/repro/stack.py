"""The stack axes: one table behind the campaign grid and the service.

A run-time stack is the paper's logic-space manager plus the layers the
reproduction puts around it: the device (or a fleet of devices), the
rearrangement policy, the placement fit, the configuration-port kind,
the free-space engine, the defrag trigger, the queue discipline, the
port model, the device-selection policy, the prefetch mode and a fault
plan.  :mod:`repro.campaign` sweeps these axes, with the workload and
the seed, as a grid; :mod:`repro.service` runs one point of it from a
:class:`~repro.service.app.ServiceConfig`.

:data:`AXES` lists every axis once, in order.  Each :class:`Axis` row
names its :class:`~repro.campaign.spec.ScenarioSpec` field, the
:class:`~repro.campaign.spec.CampaignSpec` field that sweeps it (also
the campaign CLI's destination), the ``ServiceConfig`` field if the
service has the axis, what it accepts, its default and whether its
export column is sparse.  The spec and config checks, the sparse
columns, the grid expansion, the campaign CLI's banner and pivot
tables and the summary table's cells all iterate the table; only the
cross-field rules are written out where they apply (named fleet
devices pin the fleet size, fault plans need a task workload, the
``kill-member`` plan needs a fleet).

:func:`build_fleet` builds the fleet of managers both the campaign
runner and the service run on.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

from repro.core.cost import CostModel
from repro.core.defrag_policy import DEFRAG_POLICY_NAMES
from repro.core.manager import LogicSpaceManager, RearrangePolicy
from repro.device.devices import device as device_by_name
from repro.device.fabric import Fabric
from repro.faults import FAULT_PLAN_NAMES
from repro.fleet.manager import FleetManager
from repro.fleet.policies import DEFAULT_DEVICE_POLICY, DEVICE_POLICY_NAMES
from repro.placement.fit import fitter
from repro.placement.free_space import FREE_SPACE_NAMES
from repro.sched.ports import normalize_port_model
from repro.sched.prefetch import normalize_prefetch_mode
from repro.sched.queues import QUEUE_NAMES
from repro.sched.workload import get_workload

#: Valid rearrangement policy names (the RearrangePolicy values).
POLICY_NAMES = tuple(p.value for p in RearrangePolicy)
#: Valid configuration-port kinds (see repro.core.cost.CostModel).
PORT_KINDS = ("boundary-scan", "selectmap")
#: The most members a fleet may have: every member's fabric is built
#: up front, so a config asking for more is refused before any is.
MAX_FLEET_SIZE = 64


def check_int(name: str, value, minimum: int | None = None,
              maximum: int | None = None) -> int:
    """``value`` if it is an integer (a boolean is not) from ``minimum``
    to ``maximum``, else :class:`ValueError` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be at most {maximum}, got {value}")
    return value


def check_fleet(fleet_size: int, fleet_devices: tuple[str, ...]) -> None:
    """Named fleet devices pin the fleet composition, so an explicit
    fleet size next to them is a :class:`ValueError`."""
    if fleet_devices and fleet_size != 1:
        raise ValueError("fleet_devices pins the fleet composition; "
                         "leave fleet_size at its default")


def _registered(field: str, lookup: Callable[[str], object]) -> Callable:
    """A resolver keeping a name ``lookup`` knows (``lookup`` raises
    :class:`KeyError` for the others)."""
    def resolve(value):
        if not isinstance(value, str):
            raise ValueError(f"{field} must be a name, got {value!r}")
        lookup(value)
        return value
    return resolve


def _seed(value) -> int:
    """A resolver keeping an integer seed."""
    return check_int("seed", value)


def _fleet_size(value) -> int:
    """A resolver keeping a fleet size (an integer from 1 to
    :data:`MAX_FLEET_SIZE`)."""
    return check_int("fleet_size", value, 1, MAX_FLEET_SIZE)


def _fleet_devices(value) -> tuple[str, ...]:
    """A resolver turning a list of known device names, at most
    :data:`MAX_FLEET_SIZE` with the primary device, into a tuple."""
    if not isinstance(value, (list, tuple)):
        raise ValueError("fleet_devices must be a list of device names, "
                         f"got {value!r}")
    if 1 + len(value) > MAX_FLEET_SIZE:
        raise ValueError(f"fleet_devices names {len(value)} devices; a "
                         f"fleet has at most {MAX_FLEET_SIZE} members")
    return tuple(_registered("fleet_devices", device_by_name)(name)
                 for name in value)


@dataclass(frozen=True)
class Axis:
    """One row of :data:`AXES`."""

    #: the ScenarioSpec field: the export column and the pivot key.
    field: str
    #: the CampaignSpec field holding the values swept (and the
    #: campaign CLI's destination for them).
    grid: str
    #: the accepted names, or the registry's resolver: it returns the
    #: canonical value and raises KeyError or ValueError on the others.
    accepts: tuple | Callable
    #: what one value is, for error messages; the run banner counts
    #: the values swept in ``plural`` (``noun`` + "s" when empty).
    noun: str
    plural: str = ""
    #: the ScenarioSpec default (``None``: a required field).
    default: object = None
    #: whether exports leave the column out at its default.
    sparse: bool = False
    #: the summary/pivot table column ("" for the seed: runs are pooled
    #: over seeds).
    header: str = ""
    #: the ServiceConfig field ("" where the service has no such axis).
    service: str = ""
    #: False where the campaign pins one value for every run instead of
    #: sweeping a list (the fleet composition).
    swept: bool = True
    #: whether the axis picks the run's input, not its stack (workload
    #: and seed): the expansion varies these fastest.
    inner: bool = False
    #: whether the campaign CLI prints its pivot table when swept.
    pivot: bool = False

    @property
    def label(self) -> str:
        """The banner's word for several values of the axis."""
        return self.plural or self.noun + "s"

    @property
    def required(self) -> bool:
        """Whether a ScenarioSpec must name a value (no default)."""
        return self.default is None

    def resolve(self, value):
        """The canonical form of ``value``; :class:`KeyError` or
        :class:`ValueError` when the axis does not accept it."""
        if isinstance(self.accepts, tuple):
            if value not in self.accepts:
                raise ValueError(f"unknown {self.noun} {value!r}; "
                                 f"choose from {self.accepts}")
            return value
        return self.accepts(value)


#: Every stack axis, in table order: the summary table's cell columns
#: (seed aside, :data:`HEADLINE` last), the run banner's terms and the
#: order of the CLI's pivot tables.  The expansion varies the ``inner``
#: axes fastest; exports follow the ScenarioSpec's field order.
AXES = (
    Axis("device", "devices", _registered("device", device_by_name),
         "device", header="device", service="device"),
    Axis("policy", "policies", POLICY_NAMES, "policy", "policies",
         header="policy", service="rearrange"),
    Axis("workload", "workloads", _registered("workload", get_workload),
         "workload", header="workload", inner=True),
    Axis("seed", "seeds", _seed, "seed", inner=True),
    Axis("fit", "fits", _registered("fit", fitter), "fit",
         default="first", header="fit", service="fit"),
    Axis("port_kind", "port_kinds", PORT_KINDS, "port", "port kinds",
         default="boundary-scan", header="port"),
    Axis("free_space", "free_spaces", FREE_SPACE_NAMES, "free-space engine",
         "engines", default="incremental", header="free_space"),
    Axis("defrag", "defrags", DEFRAG_POLICY_NAMES, "defrag policy",
         "defrag policies", default="on-failure", header="defrag",
         service="defrag", pivot=True),
    Axis("queue", "queues", QUEUE_NAMES, "queue discipline",
         default="fifo", sparse=True, header="queue", service="queue",
         pivot=True),
    Axis("ports", "ports", normalize_port_model, "port model",
         default="serial", sparse=True, header="ports", service="ports",
         pivot=True),
    Axis("fleet_size", "fleet_sizes", _fleet_size, "fleet size", default=1,
         sparse=True, header="fleet", service="fleet_size", pivot=True),
    Axis("fleet_devices", "fleet_devices", _fleet_devices, "fleet device",
         default=(), sparse=True, header="members",
         service="fleet_devices", swept=False),
    Axis("device_policy", "device_policies", DEVICE_POLICY_NAMES,
         "device policy", "device policies", default=DEFAULT_DEVICE_POLICY,
         sparse=True, header="dev_policy", service="device_policy",
         pivot=True),
    Axis("prefetch", "prefetches", normalize_prefetch_mode, "prefetch mode",
         default="never", sparse=True, header="prefetch",
         service="prefetch", pivot=True),
    Axis("faults", "faults", FAULT_PLAN_NAMES, "fault plan",
         default="none", sparse=True, header="faults", pivot=True),
)

#: The rows by ScenarioSpec field.
AXIS = {axis.field: axis for axis in AXES}

#: The axis the paper compares (no rearrangement, halting, concurrent
#: relocation): the campaign CLI always prints its pivot table, and the
#: summary table puts its column last so one cell's policies read
#: across a row.
HEADLINE = "policy"


def build_fleet(device: str, fleet_size: int = 1,
                fleet_devices: tuple[str, ...] = (), *,
                rearrange: str, fit: str, defrag: str, device_policy: str,
                free_space: str = "incremental",
                port_kind: str = "boundary-scan") -> FleetManager:
    """The fleet of logic-space managers a stack runs on.

    The member-list rule: named ``fleet_devices`` join the primary
    ``device`` (member 0, which sizes the workload); without them the
    fleet is ``fleet_size`` copies of ``device``.  Every member gets
    its own fabric, cost model and manager.  A single device is a
    1-member fleet, which delegates every call to its manager and so
    reproduces the single-device event stream (and the golden rows)
    bit for bit.
    """
    names = (device, *fleet_devices) if fleet_devices \
        else (device,) * fleet_size
    members = []
    for name in names:
        dev = device_by_name(name)
        members.append(LogicSpaceManager(
            Fabric(dev, free_space=free_space),
            cost_model=CostModel(dev, port_kind=port_kind),
            policy=RearrangePolicy(rearrange),
            fit=fit,
            defrag_policy=defrag,
        ))
    return FleetManager(members, policy=device_policy)
