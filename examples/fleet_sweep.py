#!/usr/bin/env python3
"""Fleet sweep: shard one surge over fleets of 1/2/4 fabrics.

The multi-fabric face of ``python -m repro.campaign``: the
``fleet-surge`` workload arrives fast enough to overwhelm a single
XC2S15 — most tasks time out waiting for space — while a fleet of four
absorbs the same stream almost losslessly.  The sweep reads two
aggregate views:

* the fleet table (one column per fleet size): rejections collapse and
  waiting shrinks as fabrics are added;
* the device-policy duel at a contended fleet size: ``least-loaded``
  and ``best-fit`` beat occupancy-blind ``round-robin``.

Every run is built as a fleet; fleet size 1 is the single device.

Run:  python examples/fleet_sweep.py
"""

from repro.campaign import CampaignResult, CampaignSpec, run_campaign
from repro.campaign.aggregate import GROUP_AXES
from repro.fleet import DEVICE_POLICY_NAMES


def main() -> None:
    """Expand, run and report the fleet-axis campaign grid."""
    grid = CampaignSpec(
        devices=["XC2S15"],
        policies=["concurrent"],
        workloads=["fleet-surge"],
        seeds=[0, 1, 2, 3],
        fleet_sizes=[1, 2, 4],
        device_policies=list(DEVICE_POLICY_NAMES),
        workload_params={"fleet-surge": {"n": 40}},
    )
    specs = grid.expand()
    print(f"grid: {grid.size} scenarios "
          f"({len(grid.fleet_sizes)} fleet sizes "
          f"x {len(grid.device_policies)} device policies "
          f"x {len(grid.seeds)} seeds)")

    results = CampaignResult(run_campaign(specs, jobs=4))

    results.pivot_table("fleet_size", "rejected").show()
    results.pivot_table("fleet_size", "mean_waiting").show()
    results.pivot_table("device_policy", "rejected").show()

    # Adding fabrics absorbs the surge for every selection policy.
    rejected = results.group_means("rejected")
    size_axis = GROUP_AXES.index("fleet_size")
    by_size: dict[str, list[float]] = {}
    for key, value in rejected.items():
        by_size.setdefault(key[size_axis], []).append(value)
    means = {size: sum(vs) / len(vs) for size, vs in by_size.items()}
    print(f"\nmean rejected by fleet size: "
          f"{ {s: round(v, 2) for s, v in sorted(means.items())} }")
    assert means["1"] > means["2"] > means["4"]


if __name__ == "__main__":
    main()
