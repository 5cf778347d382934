"""Aggregation of campaign results: tables, exports, policy duels.

The campaign runner returns one :class:`~repro.campaign.runner.ScenarioResult`
per grid point; this module folds them for consumption through
:mod:`repro.analysis`:

* :meth:`CampaignResult.summary_table` — mean metrics grouped over
  seeds, one row per (device, workload, policy) cell, rendered with the
  shared ASCII :class:`~repro.analysis.reporting.Table`;
* :meth:`CampaignResult.pivot_table` — one axis side by side for one
  metric across the grid (on ``policy``, the defrag-study shape: NONE
  vs HALT vs CONCURRENT side by side);
* :meth:`CampaignResult.to_csv` / :meth:`CampaignResult.to_json` — flat
  per-run exports for external tooling.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.reporting import Table
from repro.analysis.stats import mean
from repro.stack import AXES, AXIS, HEADLINE

from .runner import ScenarioResult

#: Metrics shown per group in the summary table.
SUMMARY_METRICS = (
    "finished", "rejected", "mean_waiting", "mean_turnaround",
    "halted_seconds", "rearrangements", "mean_fragmentation",
)


#: Non-seed axes of an aggregation cell, in the column order of the
#: tables: :data:`repro.stack.AXES` order, policy last so policy duels
#: read across a row.
GROUP_AXES = tuple(axis.field for axis in AXES
                   if axis.header and axis.field != HEADLINE) + (HEADLINE,)
#: Table headers matching GROUP_AXES (``port_kind`` is shown as "port").
GROUP_HEADERS = tuple(AXIS[name].header for name in GROUP_AXES)


def _group_key(result: ScenarioResult) -> tuple[str, ...]:
    """Aggregation cell of one result: every axis except the seed, so
    only seeds are ever averaged together — ``fleet_devices`` included,
    so a heterogeneous fleet never pools with a homogeneous one of the
    same size.  Values are the row cells, str()-ed so the integer
    ``fleet_size`` renders like every other axis."""
    cells = result.spec.cells()
    return tuple(str(cells[axis]) for axis in GROUP_AXES)


@dataclass
class CampaignResult:
    """All results of one campaign, with aggregation helpers."""

    results: list[ScenarioResult]

    def __len__(self) -> int:
        return len(self.results)

    def rows(self) -> list[dict]:
        """Flat per-run dicts (spec axes + metric columns).

        Every row has the columns some run of the campaign exports, in
        field order then :attr:`ScenarioResult.ALL_METRIC_FIELDS` order:
        a sparse axis column or metric another run emits is back-filled
        from the spec and the result, so exports stay rectangular.
        Campaigns that never touch the sparse axes keep the historical
        column set bit-identically.
        """
        axes = {name for r in self.results for name in r.spec.to_dict()}
        metrics = {name for r in self.results for name in r.metric_columns()}
        return [
            {**{name: value for name, value in r.spec.cells().items()
                if name in axes},
             **{name: getattr(r, name)
                for name in ScenarioResult.ALL_METRIC_FIELDS
                if name in metrics}}
            for r in self.results
        ]

    def groups(self) -> dict[tuple[str, ...], list[ScenarioResult]]:
        """Results bucketed by every :data:`GROUP_AXES` axis, seeds
        pooled.

        Group order follows first appearance in the run list, which the
        deterministic grid expansion fixes.
        """
        out: dict[tuple[str, ...], list[ScenarioResult]] = {}
        for result in self.results:
            out.setdefault(_group_key(result), []).append(result)
        return out

    def group_means(
        self, metric: str
    ) -> dict[tuple[str, ...], float]:
        """Per-group mean of one metric column (prefetch, fault and
        fairness metrics included — they sit at their defaults for
        cells that never touch those axes)."""
        known = ScenarioResult.ALL_METRIC_FIELDS
        if metric not in known:
            raise KeyError(
                f"unknown metric {metric!r}; choose from {known}"
            )
        return {
            key: mean([getattr(r, metric) for r in results])
            for key, results in self.groups().items()
        }

    def summary_table(self) -> Table:
        """Mean metrics per non-seed grid cell (see GROUP_AXES)."""
        table = Table(
            f"campaign summary ({len(self.results)} runs)",
            list(GROUP_HEADERS) + ["seeds"] + [m for m in SUMMARY_METRICS],
        )
        groups = self.groups()
        for key, results in groups.items():
            cells: list[object] = [*key, len(results)]
            for metric in SUMMARY_METRICS:
                cells.append(mean([getattr(r, metric) for r in results]))
            table.add(*cells)
        return table

    def pivot_table(self, axis: str, metric: str = "mean_waiting") -> Table:
        """One grid axis side by side: one column per value of ``axis``,
        one row per cell of the remaining axes, cells are seed-averaged
        ``metric``.

        ``axis`` is any :data:`GROUP_AXES` entry.  On ``policy`` this
        is the paper's defrag-study comparison generalized to the whole
        grid: read across a row to see what each rearrangement policy
        buys on that cell.
        """
        if axis not in GROUP_AXES:
            raise KeyError(
                f"unknown axis {axis!r}; choose from {GROUP_AXES}"
            )
        pivot = GROUP_AXES.index(axis)
        means = self.group_means(metric)
        values: list[str] = []
        cells: dict[tuple[str, ...], dict[str, float]] = {}
        for key, value in means.items():
            pivot_value = key[pivot]
            rest = key[:pivot] + key[pivot + 1:]
            if pivot_value not in values:
                values.append(pivot_value)
            cells.setdefault(rest, {})[pivot_value] = value
        headers = [h for i, h in enumerate(GROUP_HEADERS) if i != pivot]
        table = Table(
            f"{GROUP_HEADERS[pivot]} comparison — {metric}",
            headers + values,
        )
        for rest, by_value in cells.items():
            table.add(
                *rest,
                *[by_value.get(v, float("nan")) for v in values],
            )
        return table

    def to_csv(self, path: str | Path) -> Path:
        """Write one CSV row per run; returns the path written."""
        path = Path(path)
        rows = self.rows()
        if not rows:
            raise ValueError("no results to export")
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        return path

    def to_json(self, path: str | Path) -> Path:
        """Write the full result list (spec + metrics) as JSON.

        Prefetch, fault and fairness metrics are emitted sparsely, like
        their spec axes: only for runs that touch them, so campaigns
        that never do serialize bit-identically to the committed
        snapshots.
        """
        path = Path(path)
        payload = [
            {"spec": r.spec.to_dict(),
             "metrics": {m: getattr(r, m) for m in r.metric_columns()}}
            for r in self.results
        ]
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path
