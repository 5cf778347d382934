"""Multi-fabric fleet scheduling: shard one workload across N devices.

The paper's run-time manager governs *one* reconfigurable device.  This
package adds the device dimension on top without duplicating any of the
single-device machinery:

* :mod:`repro.fleet.manager` — :class:`FleetManager`, a drop-in for the
  :class:`~repro.core.manager.LogicSpaceManager` surface the schedulers
  consume, multiplexing placements over member managers (possibly
  heterogeneous devices) and routing releases back to the hosting
  fabric;
* :mod:`repro.fleet.policies` — pluggable device-selection policies
  (``first-fit`` / ``round-robin`` / ``least-loaded`` / ``best-fit``)
  deciding which member a request tries first.

The fleet is the only manager shape the scheduling layer sees: the
:class:`~repro.sched.kernel.SchedulingKernel` wraps a bare manager as a
1-member fleet and instantiates one reconfiguration-port model per
member, so port charging, HALT arithmetic and proactive
defragmentation all stay per-device.  Campaigns sweep the axis through
``--fleet-size`` / ``--device-policy`` / ``--fleet-devices``
(:mod:`repro.campaign`).
"""

from .manager import FleetManager
from .policies import (
    DEFAULT_DEVICE_POLICY,
    DEVICE_POLICIES,
    DEVICE_POLICY_NAMES,
    BestFitPolicy,
    DeviceSelectionPolicy,
    FirstFitPolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    make_device_policy,
)

__all__ = [
    "DEFAULT_DEVICE_POLICY",
    "DEVICE_POLICIES",
    "DEVICE_POLICY_NAMES",
    "BestFitPolicy",
    "DeviceSelectionPolicy",
    "FirstFitPolicy",
    "FleetManager",
    "LeastLoadedPolicy",
    "RoundRobinPolicy",
    "make_device_policy",
]
