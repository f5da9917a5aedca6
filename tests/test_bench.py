import csv
import json

import numpy as np
import pytest

from mvgmn import bench as B
from mvgmn.errors import ConfigurationError, InputError


def fake_records(agg, exponent, lengths=(256, 512, 1024, 2048), c=50.0):
    return [
        B.BenchRecord(agg, L, int(c * L**exponent), 5)
        for L in lengths
    ]


def test_fit_slope_linear_power_law():
    slope, r2 = B.fit_slope(fake_records("ssm", 1.0))
    assert slope == pytest.approx(1.0, abs=0.01)
    assert r2 > 0.999


def test_fit_slope_quadratic_power_law():
    slope, _ = B.fit_slope(fake_records("attention", 2.0))
    assert slope == pytest.approx(2.0, abs=0.01)


def test_fit_slope_three_halves_power_law():
    slope, _ = B.fit_slope(fake_records("x", 1.5, c=500.0))
    assert slope == pytest.approx(1.5, abs=0.01)


def test_fit_slope_input_validation():
    with pytest.raises(InputError):
        B.fit_slope(fake_records("a", 1.0, lengths=(256, 512, 1024)))
    mixed = fake_records("a", 1.0) + fake_records("b", 1.0)
    with pytest.raises(InputError):
        B.fit_slope(mixed)


def test_run_scaling_bench_validation():
    with pytest.raises(ConfigurationError):
        B.run_scaling_bench(repeats=3)
    with pytest.raises(ConfigurationError):
        B.run_scaling_bench(lengths=(256, 512), repeats=5)
    with pytest.raises(ConfigurationError):
        B.run_scaling_bench(lengths=(250, 1000), repeats=5)  # not divisible by views
    with pytest.raises(ConfigurationError):
        B.run_scaling_bench(lengths=(8, 16, 32, 64), repeats=5, views=0)


def test_small_sweep_records_and_outputs(tmp_path):
    lengths = (64, 128, 256, 512)
    records = B.run_scaling_bench(
        aggregators=("ssm",), lengths=lengths, width=8, repeats=5
    )
    assert [r.length for r in records] == list(lengths)
    assert all(r.median_ns > 0 for r in records)
    assert all(r.repeats == 5 for r in records)

    csv_path = tmp_path / "bench.csv"
    B.write_csv(records, csv_path)
    rows = list(csv.reader(open(csv_path)))
    assert rows[0] == ["aggregator", "L", "median_ns", "repeats"]
    assert len(rows) == 5

    summary_path = tmp_path / "bench.json"
    B.write_summary(records, summary_path)
    summary = json.loads(summary_path.read_text())
    assert "ssm" in summary["slopes"]
    assert len(summary["records"]) == 4


def test_repeated_runs_are_stable():
    # timing stability gate: identical config twice, medians within 20%
    kwargs = dict(aggregators=("ssm",), lengths=(1024,), width=8, repeats=5)
    with_1 = B.run_scaling_bench(**kwargs)[0].median_ns
    with_2 = B.run_scaling_bench(**kwargs)[0].median_ns
    assert abs(with_1 - with_2) / max(with_1, with_2) < 0.20
