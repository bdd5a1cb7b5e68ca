"""The paired collection-factor sweep at smoke scale."""

from itertools import product

import pytest

from repro.experiments import collection_factors
from repro.experiments.collection_factors import (
    AXES,
    _resolvable_band,
    pareto_front,
)


@pytest.fixture(scope="module")
def table():
    return collection_factors.run("smoke")


def _metrics(row):
    return {
        "accuracy": row["accuracy (%)"],
        "capture_cost": row["capture cost"],
        "inference_cost": row["inference cost"],
    }


def _dominates(b, a):
    return (
        b["accuracy"] >= a["accuracy"]
        and b["capture_cost"] <= a["capture_cost"]
        and b["inference_cost"] <= a["inference_cost"]
        and b != a
    )


class TestPareto:
    def test_pareto_front_drops_dominated_points(self):
        points = [
            {"accuracy": 90.0, "capture_cost": 10.0, "inference_cost": 5.0},
            {"accuracy": 80.0, "capture_cost": 10.0, "inference_cost": 5.0},
            {"accuracy": 95.0, "capture_cost": 20.0, "inference_cost": 5.0},
            {"accuracy": 85.0, "capture_cost": 5.0, "inference_cost": 9.0},
        ]
        assert pareto_front(points) == [0, 2, 3]

    def test_identical_points_all_survive(self):
        point = {"accuracy": 1.0, "capture_cost": 1.0, "inference_cost": 1.0}
        assert pareto_front([dict(point), dict(point)]) == [0, 1]


class TestGrid:
    def test_default_grids_exclude_unresolvable_band(self):
        assert _resolvable_band(4, 12.0)
        assert _resolvable_band(8, 8.0)
        assert not _resolvable_band(8, 12.0)
        assert not _resolvable_band(16, 12.0)
        kept = {
            name: sum(
                _resolvable_band(dec, omega0)
                for _, dec, omega0, _ in product(*axes.values())
            )
            for name, axes in AXES.items()
        }
        assert kept == {"smoke": 16, "bench": 99, "paper": 345}


class TestSmokeRun:
    def test_one_row_per_kept_cell(self, table):
        axes = AXES["smoke"]
        expected = [
            (rate, dec, omega0, kl)
            for rate, dec, omega0, kl in product(
                axes["fault_rate"], axes["decimation"], axes["omega0"],
                axes["kl_threshold"],
            )
            if _resolvable_band(dec, omega0)
        ]
        cells = [
            (row["fault rate"], row["decimation"], row["omega0"],
             row["KL_th"])
            for row in table.rows
        ]
        assert cells == expected
        for row in table.rows:
            assert _resolvable_band(row["decimation"], row["omega0"])
            assert 0.0 <= row["accuracy (%)"] <= 100.0

    def test_front_rows_are_non_dominated(self, table):
        for rate in AXES["smoke"]["fault_rate"]:
            rows = [r for r in table.rows if r["fault rate"] == rate]
            assert any(r["pareto"] == "*" for r in rows)
            for row in rows:
                dominated = any(
                    _dominates(_metrics(other), _metrics(row))
                    for other in rows
                )
                assert dominated == (row["pareto"] != "*")

    def test_capture_cost_is_paired_per_decimation(self, table):
        # Every cell at one (fault rate, decimation) fits on one capture.
        costs = {}
        for row in table.rows:
            key = (row["fault rate"], row["decimation"])
            costs.setdefault(key, set()).add(row["capture cost"])
        assert all(len(values) == 1 for values in costs.values())
        # A coarser decimation digitizes fewer samples of that capture.
        for rate in AXES["smoke"]["fault_rate"]:
            by_decimation = [
                costs[(rate, dec)].pop()
                for dec in sorted(AXES["smoke"]["decimation"])
            ]
            assert by_decimation == sorted(by_decimation, reverse=True)
