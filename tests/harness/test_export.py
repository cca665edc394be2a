"""Tests for result export (CSV)."""

import csv

import pytest

from repro.harness.export import CSV_FIELDS, result_row, write_cdf_csv, write_csv
from repro.harness.runner import RunResult


@pytest.fixture
def results():
    return [
        RunResult(
            "primcast", "LAN", 2, 4, 12345.6,
            {"count": 10, "mean": 1.25, "p50": 1.0, "p95": 2.0, "p99": 3.0},
            events=999,
        ),
        RunResult(
            "fastcast", "LAN", 2, 4, 2345.0,
            {"count": 7, "mean": 4.5, "p50": 4.0, "p95": 6.0, "p99": 9.0},
        ),
    ]


def test_result_row_fields(results):
    row = result_row(results[0])
    assert set(row) == set(CSV_FIELDS)
    assert row["throughput"] == 12345.6
    assert row["samples"] == 10
    assert row["events"] == 999


def test_csv_round_trip(tmp_path, results):
    path = tmp_path / "out.csv"
    write_csv(str(path), results)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert rows[0]["protocol"] == "primcast"
    assert float(rows[0]["p95_ms"]) == 2.0
    assert rows[1]["protocol"] == "fastcast"


def test_cdf_csv(tmp_path):
    path = tmp_path / "cdf.csv"
    write_cdf_csv(
        str(path),
        {"primcast": [(100.0, 0.5), (110.0, 1.0)], "whitebox": [(120.0, 1.0)]},
    )
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3
    assert rows[0]["series"] == "primcast"
    assert float(rows[2]["latency_ms"]) == 120.0
