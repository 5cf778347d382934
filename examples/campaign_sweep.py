#!/usr/bin/env python3
"""Campaign sweep: a policy x workload x device grid, run in parallel.

The programmatic face of ``python -m repro.campaign``: build a
:class:`~repro.campaign.CampaignSpec` grid, fan it out over worker
processes, and read the two aggregate views the paper's evaluation
cares about —

* the summary table (per device/workload/policy cell, seeds averaged);
* the policy duel: NONE vs HALT vs CONCURRENT side by side, where the
  paper's claim shows up as CONCURRENT matching HALT's waiting times
  with *zero* halted seconds.

Run:  python examples/campaign_sweep.py
"""

from repro.campaign import CampaignResult, CampaignSpec, run_campaign


def main() -> None:
    """Expand, run and report a 36-run campaign grid."""
    grid = CampaignSpec(
        devices=["XC2S15", "XC2S30"],
        policies=["none", "halt", "concurrent"],
        workloads=["random", "bursty", "heavy-tail"],
        seeds=[0, 1],
        workload_params={
            "random": {"n": 25},
            "bursty": {"n": 25, "burst_size": 5},
            "heavy-tail": {"n": 25, "exec_cap": 8.0},
        },
    )
    specs = grid.expand()
    print(f"grid: {grid.size} scenarios "
          f"({len(grid.devices)} devices x {len(grid.policies)} policies "
          f"x {len(grid.workloads)} workloads x {len(grid.seeds)} seeds)")

    results = CampaignResult(run_campaign(specs, jobs=4))

    results.summary_table().show()
    results.pivot_table("policy", "mean_waiting").show()
    results.pivot_table("policy", "halted_seconds").show()

    # The paper's contribution, read off the aggregate: concurrent
    # rearrangement never halts anything.
    halted = results.group_means("halted_seconds")
    concurrent_halt = [v for (*_, policy), v in halted.items()
                       if policy == "concurrent"]
    print(f"\nhalted seconds under CONCURRENT, all cells: "
          f"{concurrent_halt} (all zero — the moves were transparent)")
    assert all(v == 0.0 for v in concurrent_halt)


if __name__ == "__main__":
    main()
