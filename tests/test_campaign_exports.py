"""What a campaign prints and exports, pinned column by column.

The golden snapshots compare each row's key *set*; they never read the
CSV or JSON exports, the tables or the CLI banner.  This file pins the
order of all of them through the CLI, on two small grids:

* one sweeping every sparse axis (queue discipline, port model, fleet
  size, device-selection policy, prefetch mode, fault plan) over a
  plain and a tenant-labelled workload, so every sparse spec column
  and every sparse metric group appears in some runs and not others;
* one with a heterogeneous fleet composition (``--fleet-devices``)
  sweeping the four dense optional axes instead.

Every expected order below is written out literally, so a refactor of
the axis bookkeeping cannot move a column without failing here.
"""

import csv
import json

from repro.campaign.cli import main

SPARSE_GRID = [
    "--devices", "XC2S15", "--policies", "concurrent",
    "--workloads", "random", "multi-tenant", "--seeds", "0",
    "--queue", "fifo", "priority", "--ports", "serial", "icap",
    "--fleet-size", "1", "2",
    "--device-policy", "first-fit", "least-loaded",
    "--prefetch", "never", "cache", "--faults", "none", "outbreak",
    "--tasks", "4", "--jobs", "1",
]

FLEET_GRID = [
    "--devices", "XC2S15", "--policies", "none", "concurrent",
    "--workloads", "random", "--seeds", "0",
    "--fits", "first", "best",
    "--port-kinds", "boundary-scan", "selectmap",
    "--free-space", "incremental", "recompute",
    "--defrag", "on-failure", "threshold",
    "--fleet-devices", "XC2S30", "--tasks", "4", "--jobs", "1",
]

#: A spec record's keys, in order; the sparse ones appear only away
#: from these defaults (``fleet_devices`` flattened to a string).
SPEC_KEYS = ["device", "policy", "workload", "seed", "fit", "port_kind",
             "free_space", "defrag", "queue", "ports", "fleet_size",
             "device_policy", "fleet_devices", "prefetch", "faults",
             "workload_params"]
SPARSE_DEFAULTS = {"queue": "fifo", "ports": "serial", "fleet_size": "1",
                   "device_policy": "first-fit", "fleet_devices": "",
                   "prefetch": "never", "faults": "none"}

METRIC_KEYS = ["finished", "rejected", "mean_waiting", "mean_turnaround",
               "halted_seconds", "port_busy_seconds", "makespan",
               "rearrangements", "moves", "proactive_defrags",
               "defrag_moves", "defrag_port_seconds", "mean_fragmentation",
               "mean_utilization", "stall_seconds", "prefetched_fraction",
               "wall_seconds"]
PREFETCH_KEYS = ["config_stall_seconds", "prefetch_hits", "prefetch_loads",
                 "cache_evictions"]
FAULT_KEYS = ["faults_injected", "members_lost", "relocated", "restarted",
              "dropped", "recovery_seconds", "port_retry_seconds"]
TRACE_KEYS = ["tenant_fairness"]

#: The cell columns of the summary and pivot tables.
CELL_HEADERS = ["device", "workload", "fit", "port", "free_space",
                "defrag", "queue", "ports", "fleet", "members",
                "dev_policy", "prefetch", "faults", "policy"]
SUMMARY_HEADERS = CELL_HEADERS + [
    "seeds", "finished", "rejected", "mean_waiting", "mean_turnaround",
    "halted_seconds", "rearrangements", "mean_fragmentation",
]


def run_cli(args, tmp_path, capsys):
    """Run the campaign CLI with CSV and JSON exports; returns the
    banner line, the (title, headers) of every printed table, the CSV
    header and rows, and the JSON records."""
    csv_path, json_path = tmp_path / "runs.csv", tmp_path / "runs.json"
    assert main([*args, "--csv", str(csv_path),
                 "--json", str(json_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    tables = [
        (line, [cell.strip() for cell in lines[index + 2].split("|")])
        for index, line in enumerate(lines)
        if line.startswith("campaign summary") or " comparison — " in line
    ]
    header = csv_path.read_text().splitlines()[0]
    with csv_path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    return lines[0], tables, header, rows, json.loads(json_path.read_text())


def check_records(rows, records):
    """Each JSON record's spec and metric keys, in order, against the
    run's axis values as its (back-filled) CSV row states them."""
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        spec = [key for key in SPEC_KEYS
                if key not in SPARSE_DEFAULTS
                or row.get(key, SPARSE_DEFAULTS[key])
                != SPARSE_DEFAULTS[key]]
        assert list(record["spec"]) == spec
        metrics = list(METRIC_KEYS)
        if row.get("prefetch", "never") != "never":
            metrics += PREFETCH_KEYS
        if row.get("faults", "none") != "none":
            metrics += FAULT_KEYS
        if row["workload"] == "multi-tenant":
            metrics += TRACE_KEYS
        assert list(record["metrics"]) == metrics


def pivot(name, dropped, values):
    """The expected (title, headers) of one pivot table."""
    return (f"{name} comparison — mean_waiting",
            [h for h in CELL_HEADERS if h != dropped] + values)


def test_sparse_axis_grid_prints_and_exports_in_a_fixed_order(tmp_path,
                                                              capsys):
    banner, tables, header, rows, records = run_cli(SPARSE_GRID, tmp_path,
                                                    capsys)
    assert banner == (
        "campaign: 128 runs (1 devices x 1 policies x 2 workloads "
        "x 1 seeds x 2 queue disciplines x 2 port models x 2 fleet sizes "
        "x 2 device policies x 2 prefetch modes x 2 fault plans), "
        "1 worker(s)"
    )
    assert header == ",".join(
        SPEC_KEYS[:12] + ["prefetch", "faults"] + METRIC_KEYS
        + PREFETCH_KEYS + FAULT_KEYS + TRACE_KEYS
    )
    check_records(rows, records)
    # Every record shape the grid can produce is present.
    assert len({tuple(r["spec"]) for r in records}) == 64
    assert len({tuple(r["metrics"]) for r in records}) == 8
    assert tables == [
        ("campaign summary (128 runs)", SUMMARY_HEADERS),
        pivot("policy", "policy", ["concurrent"]),
        pivot("queue", "queue", ["fifo", "priority"]),
        pivot("ports", "ports", ["serial", "icap"]),
        pivot("fleet", "fleet", ["1", "2"]),
        pivot("dev_policy", "dev_policy", ["first-fit", "least-loaded"]),
        pivot("prefetch", "prefetch", ["never", "cache"]),
        pivot("faults", "faults", ["none", "outbreak"]),
    ]


def test_fleet_composition_grid_prints_and_exports_in_a_fixed_order(
        tmp_path, capsys):
    banner, tables, header, rows, records = run_cli(FLEET_GRID, tmp_path,
                                                    capsys)
    assert banner == (
        "campaign: 32 runs (1 devices x 2 policies x 1 workloads "
        "x 1 seeds x 2 fits x 2 port kinds x 2 engines "
        "x 2 defrag policies), 1 worker(s)"
    )
    assert header == ",".join(
        SPEC_KEYS[:8] + ["fleet_size", "fleet_devices"] + METRIC_KEYS
    )
    assert {(row["fleet_size"], row["fleet_devices"]) for row in rows} \
        == {("2", "XC2S30")}
    check_records(rows, records)
    assert tables == [
        ("campaign summary (32 runs)", SUMMARY_HEADERS),
        pivot("policy", "policy", ["none", "concurrent"]),
        pivot("defrag", "defrag", ["on-failure", "threshold"]),
    ]
