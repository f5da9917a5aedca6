import itertools
import json
import os
import time

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
        B.run_scaling_bench(lengths=(250, 500, 1000, 2000), repeats=5)  # not divisible by views
    # a sweep with nothing to fit is refused before any timing
    with pytest.raises(ConfigurationError, match="aggregator"):
        B.run_scaling_bench(aggregators=(), lengths=(64, 128, 256, 512), repeats=5)
    with pytest.raises(ConfigurationError, match="at least 4 lengths"):
        B.run_scaling_bench(lengths=(), repeats=5)
    with pytest.raises(ConfigurationError, match="at least 4 lengths"):
        B.run_scaling_bench(lengths=(8, 32), repeats=5)  # spans two doublings
    with pytest.raises(ConfigurationError, match="two doublings"):
        B.run_scaling_bench(lengths=(256, 384, 512, 768), repeats=5)


def test_small_sweep_records_and_outputs():
    lengths = (64, 128, 256, 512)
    records = B.run_scaling_bench(
        aggregators=("ssm",), lengths=lengths, width=8, repeats=5
    )
    assert [r.length for r in records] == list(lengths)
    assert all(r.median_ns > 0 for r in records)
    assert all(r.repeats == 5 for r in records)

    summary = json.loads(json.dumps(B.summarize(records)))
    assert set(summary["slopes"]) == {"ssm"}
    assert summary["records"][0] == {
        "aggregator": "ssm", "length": 64, "median_ns": records[0].median_ns, "repeats": 5,
    }
    assert len(summary["records"]) == 4
    env = summary["env"]
    assert set(env) == {
        "python", "numpy", "blas", "nproc", "affinity", "MVGMN_THREADS", "git_sha",
    }
    assert env["numpy"] == np.__version__ and env["nproc"] == os.cpu_count()
    assert env["git_sha"] is None or len(env["git_sha"]) == 40


def test_unknown_aggregator_fails_before_any_timing(monkeypatch):
    timed = []
    drawn = []  # parameter and grid draws
    monkeypatch.setattr(B, "forward_grid_batch", lambda *args: timed.append(args))
    monkeypatch.setattr(B, "init_state", lambda *args, **kwargs: drawn.append(args))
    monkeypatch.setattr(B, "Xoshiro256pp", lambda *args: drawn.append(args))
    with pytest.raises(ConfigurationError, match="unknown aggregator 'bogus'"):
        B.run_scaling_bench(aggregators=("ssm", "bogus"), lengths=(64, 128, 256, 512), repeats=5)
    assert timed == []
    # the bad length comes last, after lengths whose configs are valid
    with pytest.raises(ConfigurationError, match="not a multiple of 4 views"):
        B.run_scaling_bench(aggregators=("ssm",), lengths=(64, 128, 256, 514), repeats=5)
    assert drawn == []


def test_each_length_draws_one_grid_for_every_aggregator(monkeypatch):
    seeds = []
    rng_class = B.Xoshiro256pp

    def counting_rng(seed):
        seeds.append(seed)
        return rng_class(seed)

    timed = []

    def untimed(calls, repeats):
        timed.extend(calls)
        return [1] * len(calls)

    monkeypatch.setattr(B, "Xoshiro256pp", counting_rng)
    monkeypatch.setattr(B, "median_call_ns", untimed)
    records = B.run_scaling_bench(
        aggregators=("ssm", "linear"), lengths=(64, 128, 256, 512), width=8, repeats=5
    )
    assert len(records) == len(timed) == 8
    assert len(seeds) == len(set(seeds)) == 4
    # timed length-major, so each length's two calls are adjacent
    for ssm_call, linear_call in zip(timed[0::2], timed[1::2]):
        assert ssm_call.args[1] is linear_call.args[1]
    assert [(r.aggregator, r.length) for r in records] == [
        (aggregator, length) for aggregator in ("ssm", "linear") for length in (64, 128, 256, 512)
    ]


def busy_call(log, tag, cpu_ns=1_000_000):
    def call():
        log.append(tag)
        end = time.thread_time_ns() + cpu_ns
        while time.thread_time_ns() < end:
            pass

    return call


def test_median_call_ns_samples_calls_round_robin():
    log = []
    medians = B.median_call_ns([busy_call(log, "a"), busy_call(log, "b", 2_000_000)], repeats=5)
    assert len(medians) == 2 and 0 < medians[0] < medians[1]
    # each call's warm-ups and probe, then one sample of each call per pass
    untimed = B._WARMUP + 1
    assert log[: 2 * untimed] == ["a"] * untimed + ["b"] * untimed
    assert [tag for tag, _ in itertools.groupby(log[2 * untimed :])] == ["a", "b"] * 5


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity API")
def test_median_call_ns_pins_one_core_and_restores():
    before = os.sched_getaffinity(0)
    seen = []
    assert B.median_call_ns([lambda: seen.append(os.sched_getaffinity(0))], repeats=3)[0] > 0
    assert seen and all(len(cores) == 1 and cores <= before for cores in seen)
    assert os.sched_getaffinity(0) == before


@pytest.mark.timing
def test_repeated_runs_are_stable():
    # timing stability gate: identical config twice, L=1024 medians within 20%.
    # Both sweeps are sampled round-robin in one timer call, length-major, so
    # the two L=1024 calls run back to back in every pass and a slow stretch
    # of the host lands on both medians, not on one sweep only
    records = B.run_scaling_bench(
        aggregators=("ssm", "ssm"), lengths=(128, 256, 512, 1024), width=8, repeats=5
    )
    with_1, with_2 = (r.median_ns for r in records if r.length == 1024)
    assert abs(with_1 - with_2) / max(with_1, with_2) < 0.20
