"""Campaign engine: grid expansion, determinism, parallel equivalence."""

import dataclasses
import json

import pytest

from repro.campaign import (
    CampaignResult,
    CampaignSpec,
    POLICY_NAMES,
    ScenarioResult,
    ScenarioSpec,
    run_campaign,
    run_scenario,
)
from repro.campaign.cli import build_parser, campaign_from_args, main
from repro.service import ServiceConfig
from repro.stack import AXES, AXIS

TINY = {"n": 8, "size_range": (2, 5)}


def tiny_campaign(**overrides) -> CampaignSpec:
    defaults = dict(
        devices=["XC2S15"],
        policies=["none", "concurrent"],
        workloads=["random"],
        seeds=[0, 1],
        workload_params={"random": dict(TINY)},
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


# -- spec / expansion -------------------------------------------------------


def test_grid_expansion_size_and_order():
    campaign = CampaignSpec(
        devices=["XC2S15", "XC2S30"],
        policies=list(POLICY_NAMES),
        workloads=["random", "bursty"],
        seeds=[0, 1],
    )
    specs = campaign.expand()
    assert len(specs) == campaign.size == 2 * 3 * 2 * 2
    # Deterministic order: device is the slowest-varying axis, seed the
    # fastest.
    assert specs[0] == ScenarioSpec("XC2S15", "none", "random", 0)
    assert specs[1].seed == 1
    assert specs[2].workload == "bursty"
    assert specs[-1] == ScenarioSpec("XC2S30", "concurrent", "bursty", 1)
    # Expansion is reproducible.
    assert specs == campaign.expand()


def test_per_workload_params_only_reach_their_workload():
    campaign = tiny_campaign(
        workloads=["random", "bursty"],
        workload_params={"random": {"n": 5}},
    )
    by_workload = {s.workload: s for s in campaign.expand()}
    assert by_workload["random"].params() == {"n": 5}
    assert by_workload["bursty"].params() == {}


def test_spec_validation():
    with pytest.raises(KeyError):
        ScenarioSpec("NOPE", "none", "random", 0)
    with pytest.raises(ValueError):
        ScenarioSpec("XC2S15", "sometimes", "random", 0)
    with pytest.raises(KeyError):
        ScenarioSpec("XC2S15", "none", "mystery", 0)
    with pytest.raises(ValueError):
        ScenarioSpec("XC2S15", "none", "random", 0, port_kind="uart")


#: One value each axis refuses, in table order.
BAD_AXIS_VALUES = {
    "device": "NOPE", "policy": "sometimes", "workload": "mystery",
    "seed": "0", "fit": "psychic", "port_kind": "uart",
    "free_space": "psychic", "defrag": "sometimes", "queue": "lottery",
    "ports": "pigeon", "fleet_size": True, "fleet_devices": ("NOPE",),
    "device_policy": "psychic", "prefetch": "always", "faults": "gremlins",
}


@pytest.mark.parametrize("name", list(BAD_AXIS_VALUES))
def test_spec_validation_covers_every_axis(name):
    spec = dict(device="XC2S15", policy="none", workload="random", seed=0)
    with pytest.raises((KeyError, ValueError)):
        ScenarioSpec(**{**spec, name: BAD_AXIS_VALUES[name]})


def test_axis_table_matches_the_spec_fields():
    """Every ScenarioSpec field but the workload parameters is one
    table row, with the row's default; CampaignSpec sweeps it from a
    field starting at that default; ServiceConfig names it or not."""
    spec_fields = {f.name: f for f in dataclasses.fields(ScenarioSpec)}
    assert set(spec_fields) - {"workload_params"} == set(AXIS)
    assert list(BAD_AXIS_VALUES) == [axis.field for axis in AXES]
    grid = CampaignSpec()
    for axis in AXES:
        default = spec_fields[axis.field].default
        assert (None if default is dataclasses.MISSING else default) \
            == axis.default
        if not axis.required:
            start = getattr(grid, axis.grid)
            assert start == ([axis.default] if axis.swept
                             else list(axis.default))
    service_fields = {f.name for f in dataclasses.fields(ServiceConfig)}
    assert service_fields - {"max_queue_depth"} == {
        axis.service for axis in AXES if axis.service
    }


def test_scheduler_kind_derived_from_workload():
    assert ScenarioSpec("XC2S15", "none", "random", 0).scheduler_kind == "tasks"
    assert ScenarioSpec("XC2S15", "none", "fig1", 0).scheduler_kind == "apps"


def test_free_space_axis_expands_and_validates():
    with pytest.raises(ValueError):
        ScenarioSpec("XC2S15", "none", "random", 0, free_space="psychic")
    campaign = tiny_campaign(free_spaces=["recompute", "incremental"])
    specs = campaign.expand()
    assert len(specs) == campaign.size == 2 * 2 * 2
    engines = {s.free_space for s in specs}
    assert engines == {"recompute", "incremental"}
    assert specs[0].to_dict()["free_space"] in engines


def test_free_space_engines_agree_on_the_science():
    """The engine axis must be a pure performance knob: both engines
    see identical MER sets, so every scheduling metric matches."""
    base = dict(device="XC2S15", policy="concurrent", workload="random",
                seed=5, workload_params=(("n", 12),))
    reference = run_scenario(ScenarioSpec(free_space="recompute", **base))
    incremental = run_scenario(ScenarioSpec(free_space="incremental", **base))
    for name in ScenarioResult.METRIC_FIELDS:
        if name == "wall_seconds":
            continue
        assert getattr(reference, name) == getattr(incremental, name), name


# -- determinism ------------------------------------------------------------


def test_same_spec_same_seed_identical_result():
    spec = ScenarioSpec("XC2S15", "concurrent", "random", 7,
                        workload_params=(("n", 10),))
    first, second = run_scenario(spec), run_scenario(spec)
    # wall_seconds is compare-excluded; everything scientific must match.
    assert first == second
    assert first.to_row().keys() == second.to_row().keys()


def test_different_seeds_differ():
    base = dict(device="XC2S15", policy="concurrent", workload="random",
                workload_params=(("n", 10),))
    a = run_scenario(ScenarioSpec(seed=0, **base))
    b = run_scenario(ScenarioSpec(seed=1, **base))
    assert a != b


def test_parallel_equals_serial():
    specs = tiny_campaign().expand()
    serial = run_campaign(specs, jobs=1)
    parallel = run_campaign(specs, jobs=2)
    assert len(serial) == len(parallel) == len(specs)
    assert serial == parallel  # index-aligned, wall clock excluded


def test_halt_penalty_reaches_application_flows():
    """Moving a *running* function under HALT stops it for the move
    span; under CONCURRENT the same moves are free — the policy duel
    must be visible for application workloads, not only task streams."""
    base = dict(device="XC2S15", workload="codec-swap", seed=3,
                workload_params=(("n_apps", 3),))
    halt = run_scenario(ScenarioSpec(policy="halt", **base))
    conc = run_scenario(ScenarioSpec(policy="concurrent", **base))
    assert halt.rearrangements > 0
    assert halt.halted_seconds > 0.0
    assert conc.halted_seconds == 0.0
    assert halt.makespan > conc.makespan


def test_task_runs_report_zero_prefetched_fraction():
    """Independent-task scenarios never prefetch; their exported
    fraction must read 0, not a vacuous 100 %."""
    result = run_scenario(ScenarioSpec("XC2S15", "none", "random", 0,
                                       workload_params=(("n", 5),)))
    assert result.prefetched_fraction == 0.0


def test_application_workload_scenario():
    spec = ScenarioSpec("XC2S30", "concurrent", "codec-swap", 3,
                        workload_params=(("n_apps", 2),))
    result = run_scenario(spec)
    assert result.finished == 2
    assert result.makespan > 0
    assert 0.0 <= result.prefetched_fraction <= 1.0
    # Identical seed reproduces the application run too.
    assert run_scenario(spec) == result


# -- aggregation / export ---------------------------------------------------


@pytest.fixture(scope="module")
def small_results():
    return CampaignResult(run_campaign(tiny_campaign().expand(), jobs=1))


def test_summary_table(small_results):
    table = small_results.summary_table()
    rendered = table.render()
    # One row per (device, workload, policy) cell; 2 seeds pooled.
    assert len(table.rows) == 2
    assert "none" in rendered and "concurrent" in rendered


def test_policy_table(small_results):
    table = small_results.pivot_table("policy", "mean_waiting")
    assert table.headers == [
        "device", "workload", "fit", "port", "free_space", "defrag",
        "queue", "ports", "fleet", "members", "dev_policy", "prefetch",
        "faults", "none", "concurrent"
    ]
    assert len(table.rows) == 1
    with pytest.raises(KeyError):
        small_results.pivot_table("policy", "not_a_metric")


def test_rows_backfill_mixed_pre_fleet_and_fleet_results():
    """A result list mixing pre-fleet rows (sparse axes omitted) and
    fleet rows must export rectangular: every row carries the swept
    sparse columns, back-filled from the spec's defaults."""
    pre_fleet = ScenarioResult(
        spec=ScenarioSpec("XC2S15", "none", "random", 0), finished=3
    )
    fleet = ScenarioResult(
        spec=ScenarioSpec("XC2S15", "none", "random", 1, fleet_size=2,
                          device_policy="least-loaded"),
        finished=5,
    )
    hetero = ScenarioResult(
        spec=ScenarioSpec("XC2S15", "none", "random", 2,
                          fleet_devices=("XC2S30",)),
        finished=7,
    )
    rows = CampaignResult([pre_fleet, fleet, hetero]).rows()
    assert [set(row) for row in rows] == [set(rows[0])] * 3
    assert [row["fleet_size"] for row in rows] == [1, 2, 2]
    assert [row["device_policy"] for row in rows] == [
        "first-fit", "least-loaded", "first-fit"
    ]
    assert [row["fleet_devices"] for row in rows] == ["", "", "XC2S30"]
    # Sparse back-fill never disturbs the base axes or the metrics.
    assert [row["seed"] for row in rows] == [0, 1, 2]
    assert [row["finished"] for row in rows] == [3, 5, 7]


def test_rows_without_sparse_axes_keep_the_historical_columns():
    """A campaign that never touches a sparse axis exports exactly the
    pre-fleet column set (the shape the golden snapshots pin)."""
    result = ScenarioResult(
        spec=ScenarioSpec("XC2S15", "none", "random", 0), finished=1
    )
    (row,) = CampaignResult([result]).rows()
    for column in ("queue", "ports", "fleet_size", "device_policy",
                   "fleet_devices"):
        assert column not in row


def test_groups_keep_heterogeneous_fleets_apart():
    """A heterogeneous fleet never pools with a homogeneous fleet of
    the same size: the composition is part of the aggregation cell."""
    homo = ScenarioResult(
        spec=ScenarioSpec("XC2S15", "none", "random", 0, fleet_size=2),
        rejected=1,
    )
    hetero = ScenarioResult(
        spec=ScenarioSpec("XC2S15", "none", "random", 0,
                          fleet_devices=("XC2S30",)),
        rejected=5,
    )
    result = CampaignResult([homo, hetero])
    assert len(result.groups()) == 2
    assert sorted(result.group_means("rejected").values()) == [1.0, 5.0]


def test_pivot_table_with_single_valued_axis():
    """Degenerate pivot: an axis swept at one value yields exactly one
    value column, one row per remaining cell, and no NaN padding."""
    results = [
        ScenarioResult(
            spec=ScenarioSpec("XC2S15", policy, "random", seed),
            rejected=seed,
        )
        for policy in ("none", "concurrent")
        for seed in (0, 1)
    ]
    table = CampaignResult(results).pivot_table("defrag", "rejected")
    assert table.headers[-1] == "on-failure"
    # Two remaining cells (one per rearrangement policy), seed-pooled.
    assert len(table.rows) == 2
    assert [row[-1] for row in table.rows] == ["0.5", "0.5"]
    with pytest.raises(KeyError):
        CampaignResult(results).pivot_table("seed", "rejected")


def test_csv_json_export(small_results, tmp_path):
    csv_path = small_results.to_csv(tmp_path / "out.csv")
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(small_results)
    assert lines[0].startswith("device,policy,workload,seed")

    json_path = small_results.to_json(tmp_path / "out.json")
    payload = json.loads(json_path.read_text())
    assert len(payload) == len(small_results)
    assert payload[0]["spec"]["device"] == "XC2S15"
    assert set(payload[0]["metrics"]) == set(ScenarioResult.METRIC_FIELDS)


# -- CLI --------------------------------------------------------------------


def test_cli_default_grid_is_24_runs():
    args = build_parser().parse_args([])
    campaign = campaign_from_args(args)
    assert campaign.size == 24


def test_cli_smoke(tmp_path, capsys):
    code = main([
        "--devices", "XC2S15",
        "--policies", "none", "concurrent",
        "--workloads", "random",
        "--seeds", "0",
        "--tasks", "6",
        "--jobs", "1",
        "--csv", str(tmp_path / "cli.csv"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "campaign summary" in out
    assert "policy comparison" in out
    assert (tmp_path / "cli.csv").exists()
