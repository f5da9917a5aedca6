"""Forward-latency scaling benchmark: scan aggregation versus self-attention.

Times aggregator-only forward passes (pre-fused random grids, no fusion or
data loading in the timed region) on a fixed view count with the time axis
swept, so the vertex count L = V*T grows geometrically. A log-log slope fit
over the sweep separates linear-time scan aggregation from the quadratic
self-attention baseline. Medians of repeated runs after warmup; the process
is pinned to one core where the platform allows it.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .model import ModelConfig, ModelState, forward_grid_batch, init_state
from .rng import Xoshiro256pp, derive_seed
from .tensor import Tensor

DEFAULT_LENGTHS = (256, 512, 1024, 2048, 4096, 8192, 16384)
_BENCH_TAG = 0x42454E43  # "BENC"

# keep a single timed sample above ~50 timer resolutions
_MIN_SAMPLE_NS = 5_000_000
_WARMUP = 2  # untimed forwards before the probe


@dataclass(frozen=True)
class BenchRecord:
    aggregator: str
    length: int
    median_ns: int
    repeats: int


@contextmanager
def pin_to_one_core():
    """Restrict the process to a single logical core while inside, if supported.

    On exit the previous affinity is restored.
    """
    try:
        cores = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cores)})
    except (AttributeError, OSError):
        cores = None
    try:
        yield
    finally:
        if cores is not None:
            os.sched_setaffinity(0, cores)


def _bench_state(aggregator: str, length: int, width: int, views: int, seed: int) -> ModelState:
    if length % views != 0:
        raise ConfigurationError(f"length {length} is not a multiple of {views} views")
    config = ModelConfig(
        views=views,
        time_steps=length // views,
        width=width,
        n_classes=8,
        rgb_dim=4,
        sk_dim=4,
        patches=1,
        n_blocks=2,
        scan_mode="view_time",
        aggregator=aggregator,
        knn_k=3,
    )
    return init_state(config, seed=seed, dtype=np.float32)


def _timed_forward(state: ModelState, grid: Tensor, repeats: int) -> int:
    """Median per-forward time in ns; auto-batches runs when one is too fast.

    Garbage collection is paused inside the timed region so collector pauses
    do not masquerade as forward-pass cost.
    """
    for _ in range(_WARMUP):
        forward_grid_batch(state, grid)
    probe_start = time.perf_counter_ns()
    forward_grid_batch(state, grid)
    probe = max(time.perf_counter_ns() - probe_start, 1)
    inner = max(1, math.ceil(_MIN_SAMPLE_NS / probe))
    samples = []
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter_ns()
            for _ in range(inner):
                forward_grid_batch(state, grid)
            samples.append((time.perf_counter_ns() - start) / inner)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return int(np.median(samples))


def run_scaling_bench(
    aggregators=("ssm", "attention"),
    lengths=DEFAULT_LENGTHS,
    width: int = 64,
    repeats: int = 5,
    views: int = 4,
    seed: int = 0,
) -> list[BenchRecord]:
    """Time each aggregator across the length sweep on one substrate."""
    if repeats < 5:
        raise ConfigurationError("repeats must be at least 5")
    if views < 1:
        raise ConfigurationError("views must be at least 1")
    lengths = sorted(lengths)
    if len(lengths) > 1 and lengths[-1] < 4 * lengths[0]:
        raise ConfigurationError(
            "length sweep must span at least two doublings for a slope fit"
        )
    records = []
    for aggregator in aggregators:
        for length in lengths:
            state = _bench_state(aggregator, length, width, views, seed)
            rng = Xoshiro256pp(derive_seed(seed, _BENCH_TAG, length))
            grid = Tensor(
                rng.normals(length * width).reshape(1, length, width).astype(np.float32)
            )
            median = _timed_forward(state, grid, repeats)
            records.append(
                BenchRecord(
                    aggregator=aggregator,
                    length=length,
                    median_ns=median,
                    repeats=repeats,
                )
            )
    return records


def fit_slope(records: list[BenchRecord]) -> tuple[float, float]:
    """Least-squares slope of log(time) vs log(length), plus fit R^2."""
    if len({r.aggregator for r in records}) != 1:
        raise InputError("fit_slope expects records from a single aggregator")
    if len(records) < 4:
        raise InputError("fit_slope needs at least 4 length points")
    x = np.log([r.length for r in records])
    y = np.log([r.median_ns for r in records])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def write_csv(records: list[BenchRecord], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["aggregator", "L", "median_ns", "repeats"])
        for r in records:
            writer.writerow([r.aggregator, r.length, r.median_ns, r.repeats])


def summarize(records: list[BenchRecord]) -> dict:
    """JSON-ready summary with per-aggregator fitted slopes."""
    by_agg: dict[str, list[BenchRecord]] = {}
    for r in records:
        by_agg.setdefault(r.aggregator, []).append(r)
    slopes = {}
    for agg, rows in by_agg.items():
        slope, r2 = fit_slope(rows)
        slopes[agg] = {"slope": round(slope, 4), "r2": round(r2, 6)}
    return {"records": [asdict(r) for r in records], "slopes": slopes}


def write_summary(records: list[BenchRecord], path) -> None:
    with open(path, "w") as f:
        json.dump(summarize(records), f, indent=2, sort_keys=True)
