"""Golden regression: fixed campaign grids, field by field.

Scheduler and placement refactors must not silently change the science.
Six snapshots are pinned:

* ``campaign_24.json`` — the canonical 24-run grid (the CLI's default
  axes: 2 devices x 3 policies x 2 workloads x 2 seeds, sized down to
  stay fast);
* ``campaign_defrag.json`` — an 8-run defrag-axis grid (1 device x
  concurrent x the fragmentation-hostile workload x 2 seeds x 4 defrag
  trigger policies), so proactive-consolidation regressions are caught
  the same way;
* ``campaign_sched.json`` — the 24-run queue-discipline x port-model
  grid over a priority-mixed impatient stream, pinning the scheduling
  kernel's policy layers the same way;
* ``campaign_fleet.json`` — a 16-run fleet-size x device-selection
  policy grid over the surge workload, pinning the multi-fabric layer
  (and, together with ``tests/test_fleet.py``'s force-fleet run of the
  24-run grid, the claim that a 1-member fleet changes nothing);
* ``campaign_faults.json`` — an 8-run grid of every fault plan on a
  2-member fleet;
* ``campaign_apps.json`` — a 96-run grid of application chains (Fig. 1
  and codec-swap) x policy x prefetch mode x fleet size x queue, the
  only snapshot of the application scheduler.

The first two grids run entirely on the default ``fifo`` + ``serial``
policies, so they double as the proof that the kernel refactor is
behaviour-preserving: their rows must stay bit-identical.

When a change *intentionally* moves the numbers (a new heuristic, a
cost-model fix), regenerate the snapshots and review the diff like any
other code change:

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_campaign.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.campaign.aggregate import CampaignResult
from repro.campaign.runner import ScenarioResult, run_campaign
from repro.campaign.spec import CampaignSpec

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "campaign_24.json"
GOLDEN_DEFRAG_PATH = GOLDEN_DIR / "campaign_defrag.json"
GOLDEN_SCHED_PATH = GOLDEN_DIR / "campaign_sched.json"
GOLDEN_FLEET_PATH = GOLDEN_DIR / "campaign_fleet.json"
GOLDEN_FAULTS_PATH = GOLDEN_DIR / "campaign_faults.json"
GOLDEN_APPS_PATH = GOLDEN_DIR / "campaign_apps.json"

#: The CLI's default grid axes with a fast task count; any edit here
#: requires regenerating the snapshot.
GOLDEN_GRID = dict(
    devices=["XC2S15", "XC2S30"],
    policies=["none", "halt", "concurrent"],
    workloads=["random", "bursty"],
    seeds=[0, 1],
    workload_params={"random": {"n": 10}, "bursty": {"n": 10}},
)

#: The defrag-axis grid: every trigger policy over the hostile workload.
GOLDEN_DEFRAG_GRID = dict(
    devices=["XC2S15"],
    policies=["concurrent"],
    workloads=["fragmenting"],
    seeds=[0, 1],
    defrags=["never", "on-failure", "threshold", "idle"],
    workload_params={"fragmenting": {"n": 14}},
)

#: The scheduling-policy grid: every queue discipline x every port
#: model over an impatient priority-mixed stream (1 device x concurrent
#: x fragmenting x 2 seeds x 4 queues x 3 port models = 24 runs).
GOLDEN_SCHED_GRID = dict(
    devices=["XC2S15"],
    policies=["concurrent"],
    workloads=["fragmenting"],
    seeds=[0, 1],
    queues=["fifo", "priority", "sjf", "backfill"],
    ports=["serial", "multi-2", "icap"],
    workload_params={"fragmenting": {"n": 25, "priority_levels": 3}},
)

#: The fleet grid: fleet-size x device-selection policy over the surge
#: workload built to overwhelm one device but not a few (1 device x
#: concurrent x fleet-surge x 2 seeds x 2 fleet sizes x 4 policies =
#: 16 runs).
GOLDEN_FLEET_GRID = dict(
    devices=["XC2S15"],
    policies=["concurrent"],
    workloads=["fleet-surge"],
    seeds=[0, 1],
    fleet_sizes=[2, 4],
    device_policies=["first-fit", "round-robin", "least-loaded",
                     "best-fit"],
    workload_params={"fleet-surge": {"n": 30}},
)

#: The fault grid: every fault plan over the surge workload on a
#: 2-member fleet (1 device x concurrent x fleet-surge x 2 seeds x
#: 4 fault plans = 8 runs).  Rows carry the sparse failover columns
#: (relocated / restarted / dropped / recovery_seconds), so this is
#: the committed record of what each fault plan costs.
GOLDEN_FAULTS_GRID = dict(
    devices=["XC2S15"],
    policies=["concurrent"],
    workloads=["fleet-surge"],
    seeds=[0, 1],
    fleet_sizes=[2],
    faults=["none", "kill-member", "outbreak", "flaky-port"],
    workload_params={"fleet-surge": {"n": 24}},
)

#: The application grid: function chains under both rearranging
#: policies, every prefetch mode, one and two fabrics and two queue
#: disciplines, with the idle-port defrag trigger (1 device x 2 policies
#: x 2 workloads x 2 seeds x 3 prefetch modes x 2 fleet sizes x 2
#: queues = 96 runs).  Codec-swap runs eight apps twice through their
#: chains: at the default four, neither a blocking admission pass nor
#: reordered owner ids moves a row.
GOLDEN_APPS_GRID = dict(
    devices=["XC2S15"],
    policies=["halt", "concurrent"],
    workloads=["fig1", "codec-swap"],
    seeds=[1, 3],
    prefetches=["never", "cache", "plan"],
    fleet_sizes=[1, 2],
    queues=["fifo", "sjf"],
    defrags=["idle"],
    workload_params={"codec-swap": {"n_apps": 8, "repeats": 2,
                                    "priority_levels": 3}},
)

#: Integer-valued metric columns are compared exactly; the rest admit
#: only float-representation noise.
EXACT_FIELDS = {
    "finished", "rejected", "rearrangements", "moves",
    "proactive_defrags", "defrag_moves",
    "faults_injected", "members_lost", "relocated", "restarted",
    "dropped",
}


def run_grid(grid: dict) -> list[dict]:
    """Execute a grid serially and export comparable rows.

    Rows go through :meth:`CampaignResult.rows`, the same path the
    CSV/JSON exports use: sparse axis columns (queue/ports) are
    back-filled for grids that sweep them and absent — bit-identical to
    the historical shape — for grids that do not.
    """
    spec = CampaignSpec(**grid)
    rows = CampaignResult(run_campaign(spec.expand(), jobs=1)).rows()
    for row in rows:
        row.pop("wall_seconds")  # measurement noise, never compared
    return rows


def run_golden_grid() -> list[dict]:
    """The canonical 24-run grid (kept as a named helper: other suites
    import it as the reference execution of the default axes)."""
    return run_grid(GOLDEN_GRID)


def check_against_snapshot(rows: list[dict], path: Path) -> None:
    """Compare rows to the snapshot at ``path`` (or regenerate it)."""
    if os.environ.get("REGEN_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows, indent=2) + "\n")
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"golden snapshot {path.name} missing; "
        "run with REGEN_GOLDEN=1 to create it"
    )
    golden = json.loads(path.read_text())
    assert len(golden) == len(rows)
    for index, (expected, actual) in enumerate(zip(golden, rows)):
        assert expected.keys() == actual.keys(), f"run {index}: columns"
        for field, want in expected.items():
            got = actual[field]
            context = f"run {index} ({actual['device']}/" \
                      f"{actual['policy']}/{actual['workload']}/" \
                      f"{actual['defrag']}/seed {actual['seed']}): {field}"
            if isinstance(want, float) and field not in EXACT_FIELDS:
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12), context
            else:
                assert got == want, context


def test_golden_campaign_snapshot():
    rows = run_golden_grid()
    assert len(rows) == 24
    check_against_snapshot(rows, GOLDEN_PATH)


def test_golden_defrag_snapshot():
    rows = run_grid(GOLDEN_DEFRAG_GRID)
    assert len(rows) == 8
    # The axis must genuinely vary: proactive policies fire on this
    # workload, reactive-only ones never do.
    by_defrag: dict[str, int] = {}
    for row in rows:
        by_defrag[row["defrag"]] = (
            by_defrag.get(row["defrag"], 0) + row["proactive_defrags"]
        )
    assert by_defrag["never"] == 0
    assert by_defrag["on-failure"] == 0
    assert by_defrag["threshold"] > 0
    assert by_defrag["idle"] > 0
    check_against_snapshot(rows, GOLDEN_DEFRAG_PATH)


def test_golden_sched_snapshot():
    rows = run_grid(GOLDEN_SCHED_GRID)
    assert len(rows) == 24
    # The new axes are genuine columns of the exported rows ...
    assert {row["queue"] for row in rows} == {
        "fifo", "priority", "sjf", "backfill"
    }
    assert {row["ports"] for row in rows} == {"serial", "multi-2", "icap"}
    # ... and genuine knobs: admission order moves the science, and the
    # port models change how much channel time the same traffic costs.
    waiting = {}
    busy = {}
    for row in rows:
        waiting.setdefault(row["queue"], set()).add(round(row["mean_waiting"], 9))
        busy.setdefault(row["ports"], set()).add(
            round(row["port_busy_seconds"], 9)
        )
    assert any(waiting["fifo"] != waiting[q]
               for q in ("priority", "sjf", "backfill"))
    assert busy["serial"] != busy["icap"]
    check_against_snapshot(rows, GOLDEN_SCHED_PATH)


def test_golden_fleet_snapshot():
    rows = run_grid(GOLDEN_FLEET_GRID)
    assert len(rows) == 16
    # The fleet axes are genuine columns of the exported rows ...
    assert {row["fleet_size"] for row in rows} == {2, 4}
    assert {row["device_policy"] for row in rows} == {
        "first-fit", "round-robin", "least-loaded", "best-fit"
    }
    # ... and genuine knobs: adding fabrics absorbs the surge (fewer
    # rejections at every selection policy), and the selection policy
    # itself moves the science at a fixed fleet size.
    rejected: dict[tuple[int, str], float] = {}
    for row in rows:
        key = (row["fleet_size"], row["device_policy"])
        rejected[key] = rejected.get(key, 0) + row["rejected"]
    for policy in ("first-fit", "round-robin", "least-loaded",
                   "best-fit"):
        assert rejected[(2, policy)] > rejected[(4, policy)]
    assert len({rejected[(2, p)] for p in
                ("first-fit", "round-robin", "least-loaded")}) > 1
    check_against_snapshot(rows, GOLDEN_FLEET_PATH)


def test_golden_faults_snapshot():
    rows = run_grid(GOLDEN_FAULTS_GRID)
    assert len(rows) == 8
    # The fault axis is a genuine column of the exported rows ...
    assert {row["faults"] for row in rows} == {
        "none", "kill-member", "outbreak", "flaky-port"
    }
    # ... the failover columns ride along for the whole swept grid ...
    for row in rows:
        for field in ("relocated", "restarted", "dropped",
                      "recovery_seconds", "port_retry_seconds"):
            assert field in row
    # ... and the plans do what their names say: only kill-member
    # loses members, only flaky-port burns retry seconds, and the
    # fault-free baseline stays spotless.
    by_plan: dict[str, list[dict]] = {}
    for row in rows:
        by_plan.setdefault(row["faults"], []).append(row)
    for row in by_plan["none"]:
        assert row["faults_injected"] == 0
        assert row["members_lost"] == 0
    for row in by_plan["kill-member"]:
        assert row["members_lost"] == 1
        assert row["dropped"] == 0  # homogeneous fleet: nothing is lost
    for row in by_plan["outbreak"]:
        assert row["faults_injected"] == 2 and row["members_lost"] == 0
    for row in by_plan["flaky-port"]:
        assert row["port_retry_seconds"] == pytest.approx(2.4)
    check_against_snapshot(rows, GOLDEN_FAULTS_PATH)


def test_golden_apps_snapshot():
    rows = run_grid(GOLDEN_APPS_GRID)
    assert len(rows) == 96
    # The grid exercises what it pins: codec-swap chains rearrange, the
    # idle trigger consolidates, and the bitstream cache hits ...
    swaps = [row for row in rows if row["workload"] == "codec-swap"]
    assert all(row["rearrangements"] > 0 for row in swaps)
    assert sum(row["proactive_defrags"] for row in rows) > 0
    assert sum(row["prefetch_hits"] for row in rows
               if row["prefetch"] != "never") > 0
    # ... every run samples the fabric on admissions and releases ...
    for row in rows:
        assert row["mean_fragmentation"] > 0
        assert row["mean_utilization"] > 0
    # ... and the queue discipline orders waiting functions: some cell
    # comes out differently under fifo than under sjf.
    by_queue: dict[str, dict[tuple, tuple]] = {"fifo": {}, "sjf": {}}
    for row in rows:
        cell = (row["policy"], row["workload"], row["seed"],
                row["prefetch"], row["fleet_size"])
        by_queue[row["queue"]][cell] = (row["makespan"],
                                        row["stall_seconds"])
    assert by_queue["fifo"].keys() == by_queue["sjf"].keys()
    assert by_queue["fifo"] != by_queue["sjf"]
    check_against_snapshot(rows, GOLDEN_APPS_PATH)


@pytest.mark.parametrize(
    "device_policy", ["first-fit", "round-robin", "least-loaded",
                      "best-fit"]
)
def test_fleet_grid_serial_equals_parallel(device_policy):
    """Fleet scheduling stays a pure function of the spec: the parallel
    pool returns the exact serial result list for every selection
    policy."""
    grid = dict(GOLDEN_FLEET_GRID)
    grid["device_policies"] = [device_policy]
    specs = CampaignSpec(**grid).expand()
    assert run_campaign(specs, jobs=2) == run_campaign(specs, jobs=1)


@pytest.mark.parametrize("queue", ["fifo", "priority", "sjf", "backfill"])
def test_sched_grid_serial_equals_parallel(queue):
    """Every discipline stays a pure function of the spec: the parallel
    pool returns the exact serial result list."""
    grid = dict(GOLDEN_SCHED_GRID)
    grid["queues"] = [queue]
    grid["ports"] = ["serial", "multi-2"]
    specs = CampaignSpec(**grid).expand()
    assert run_campaign(specs, jobs=2) == run_campaign(specs, jobs=1)


def test_golden_covers_every_cell_once():
    """The snapshot grid is the full cartesian product: every
    (device, policy, workload, seed) combination appears exactly once."""
    rows = run_golden_grid()
    cells = {(r["device"], r["policy"], r["workload"], r["seed"])
             for r in rows}
    assert len(cells) == 24
    # And the summary pools exactly the two seeds per cell.
    spec = CampaignSpec(**GOLDEN_GRID)
    summary = CampaignResult(run_campaign(spec.expand(), jobs=1)).summary_table()
    assert len(summary.rows) == 12
    assert all(row[summary.headers.index("seeds")] == "2"
               for row in summary.rows)


def test_golden_rows_expose_all_metric_fields():
    rows = run_golden_grid()
    metric_columns = set(ScenarioResult.METRIC_FIELDS) - {"wall_seconds"}
    assert metric_columns <= set(rows[0].keys())
