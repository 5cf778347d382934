"""repro.analysis over campaign results from both free-space engines.

The analysis layer (stats, reporting tables, ASCII visualisation) is
what the campaign exports feed; these tests drive it with real results
produced under each free-space engine, plus the degenerate shapes the
aggregation helpers must survive: an empty campaign and a single run.
"""

import pytest

from repro.analysis.reporting import series
from repro.analysis.stats import confidence_interval_95, mean, stddev
from repro.analysis.visualize import (
    render_occupancy,
    render_timeline,
    timeline_from_application_runs,
)
from repro.campaign.aggregate import CampaignResult
from repro.campaign.runner import build_manager, run_campaign, run_scenario
from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.placement.free_space import FREE_SPACE_NAMES
from repro.sched.scheduler import ApplicationFlowScheduler
from repro.sched.workload import make_workload


def engine_campaign() -> CampaignResult:
    """A small grid sweeping the free-space engine axis."""
    spec = CampaignSpec(
        devices=["XC2S15"],
        policies=["none", "concurrent"],
        workloads=["random"],
        seeds=[0, 1],
        free_spaces=list(FREE_SPACE_NAMES),
        workload_params={"random": {"n": 8}},
    )
    return CampaignResult(run_campaign(spec.expand(), jobs=1))


@pytest.fixture(scope="module")
def both_engines():
    return engine_campaign()


class TestTablesAcrossEngines:
    def test_summary_has_one_row_per_engine_cell(self, both_engines):
        table = both_engines.summary_table()
        assert "free_space" in table.headers
        # 2 policies x 2 engines, seeds pooled.
        assert len(table.rows) == 4
        rendered = table.render()
        assert "recompute" in rendered and "incremental" in rendered

    def test_engine_axis_never_changes_group_means(self, both_engines):
        """Seed-averaged metrics are identical per engine: the engine
        axis is a pure performance knob, visible only in wall clock."""
        means = both_engines.group_means("mean_waiting")
        by_cell: dict[tuple, dict[str, float]] = {}
        for (device, workload, fit, port, engine, defrag, queue, ports,
             fleet, members, dev_policy, prefetch, faults, policy), \
                value in means.items():
            by_cell.setdefault(
                (device, workload, fit, port, defrag, queue, ports,
                 fleet, members, dev_policy, prefetch, faults, policy),
                {})[engine] = value
        for cell, engines in by_cell.items():
            assert len(engines) == len(FREE_SPACE_NAMES), cell
            values = list(engines.values())
            assert all(v == pytest.approx(values[0]) for v in values), cell

    def test_policy_table_keeps_engines_apart(self, both_engines):
        table = both_engines.pivot_table("policy", "mean_fragmentation")
        assert table.headers[:5] == [
            "device", "workload", "fit", "port", "free_space"
        ]
        assert len(table.rows) == len(FREE_SPACE_NAMES)

    def test_stats_over_exported_rows(self, both_engines):
        waits = [row["mean_waiting"] for row in both_engines.rows()]
        assert len(waits) == 8
        assert stddev(waits) >= 0.0
        lo, hi = confidence_interval_95(waits)
        assert lo <= mean(waits) <= hi
        chart = series("waiting by run", list(range(len(waits))), waits,
                       x_label="run", y_label="s")
        assert len(chart.rows) == len(waits)


class TestDegenerateShapes:
    def test_empty_campaign(self):
        empty = CampaignResult([])
        assert len(empty) == 0
        assert empty.rows() == []
        assert empty.groups() == {}
        assert empty.group_means("mean_waiting") == {}
        table = empty.summary_table()
        assert table.rows == [] and "0 runs" in table.title
        assert empty.pivot_table("policy", "mean_waiting").rows == []
        with pytest.raises(ValueError):
            empty.to_csv("unused.csv")

    def test_single_run(self, tmp_path):
        result = run_scenario(
            ScenarioSpec("XC2S15", "none", "random", 0,
                         workload_params=(("n", 5),))
        )
        single = CampaignResult([result])
        assert len(single.summary_table().rows) == 1
        policy = single.pivot_table("policy", "finished")
        assert len(policy.rows) == 1 and policy.headers[-1] == "none"
        csv_path = single.to_csv(tmp_path / "single.csv")
        assert len(csv_path.read_text().strip().splitlines()) == 2
        payload = single.to_json(tmp_path / "single.json")
        assert payload.exists()


class TestVisualizeAcrossEngines:
    @pytest.mark.parametrize("engine", FREE_SPACE_NAMES)
    def test_occupancy_render_reflects_manager_state(self, engine):
        spec = ScenarioSpec("XC2S15", "none", "random", 0,
                            free_space=engine,
                            workload_params=(("n", 6),))
        manager = build_manager(spec)
        manager.request(2, 3, 1)
        manager.request(3, 2, 2)
        text = render_occupancy(manager.fabric.occupancy)
        assert "1" in text and "2" in text and "." in text
        manager.release(1)
        after = render_occupancy(manager.fabric.occupancy)
        assert "1" not in after and "2" in after

    @pytest.mark.parametrize("engine", FREE_SPACE_NAMES)
    def test_timeline_from_real_application_runs(self, engine):
        spec = ScenarioSpec("XC2S30", "concurrent", "codec-swap", 1,
                            free_space=engine,
                            workload_params=(("n_apps", 2),))
        manager = build_manager(spec)
        apps = make_workload("codec-swap", manager.fabric.device, 1,
                             n_apps=2)
        runs = ApplicationFlowScheduler(manager).run(apps)
        rows = timeline_from_application_runs(runs)
        assert len(rows) == 2
        chart = render_timeline(rows, width=48)
        assert chart.count("|") >= 4  # two framed rows
        assert "1" in chart  # first function glyph appears

    def test_timeline_engines_render_identically(self):
        charts = []
        for engine in FREE_SPACE_NAMES:
            spec = ScenarioSpec("XC2S30", "concurrent", "codec-swap", 1,
                                free_space=engine,
                                workload_params=(("n_apps", 2),))
            manager = build_manager(spec)
            apps = make_workload("codec-swap", manager.fabric.device, 1,
                                 n_apps=2)
            runs = ApplicationFlowScheduler(manager).run(apps)
            charts.append(
                render_timeline(timeline_from_application_runs(runs),
                                width=48)
            )
        assert charts[0] == charts[1]
