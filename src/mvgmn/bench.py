"""Forward-latency scaling benchmark: scan aggregation versus self-attention.

Times aggregator-only forward passes (pre-fused random grids, no fusion or
data loading in the timed region) on a fixed view count with the time axis
swept, so the vertex count L = V*T grows geometrically. A log-log slope fit
over the sweep separates linear-time scan aggregation from the quadratic
self-attention baseline. ``median_call_ns`` is the one timer, for any calls:
medians of repeated runs after warmup on the calling thread's CPU clock,
sampled round-robin across the calls, with the collector paused and the
process pinned to one core where the platform allows it.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InputError
from .model import ModelConfig, forward_grid_batch, init_state
from .rng import Xoshiro256pp, derive_seed
from .tensor import Tensor

DEFAULT_LENGTHS = (256, 512, 1024, 2048, 4096, 8192, 16384)
_BENCH_TAG = 0x42454E43  # "BENC"

# keep a single timed sample above ~50 timer resolutions
_MIN_SAMPLE_NS = 5_000_000
_WARMUP = 2  # untimed calls before the probe
_VIEWS = 4
MIN_SLOPE_POINTS = 4  # lengths a slope fit needs


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


def _git_sha() -> str | None:
    """HEAD's commit read from the source checkout's .git; None outside a clone."""
    git = Path(__file__).resolve().parents[2] / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    """What a timing depends on beyond the code: interpreter, numpy, BLAS, cores."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "MVGMN_THREADS": os.environ.get("MVGMN_THREADS"),
        "git_sha": _git_sha(),
    }


def _bench_config(aggregator: str, length: int, width: int) -> ModelConfig:
    if length % _VIEWS != 0:
        raise ConfigurationError(f"length {length} is not a multiple of {_VIEWS} views")
    return ModelConfig(
        views=_VIEWS,
        time_steps=length // _VIEWS,
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


def _bench_grid(length: int, width: int) -> Tensor:
    """The fused grid every aggregator is timed on at one length."""
    rng = Xoshiro256pp(derive_seed(0, _BENCH_TAG, length))
    return Tensor(rng.normals(length * width).reshape(1, length, width).astype(np.float32))


def median_call_ns(calls, repeats: int) -> list[int]:
    """Median time of one call of each of ``calls`` in ns, one median per call.

    Each call gets its own warm-ups and a probe, which auto-batches the call
    when one run is too fast to time. Then every pass takes one sample of
    each call in turn, so a slow stretch of the host is shared by all the
    calls instead of landing on one.

    Runs pinned to one core and reads the calling thread's CPU clock, not the
    wall clock: time the core spends on other processes is not charged to the
    call. (The process clock would charge a BLAS worker spin-waiting on
    another core.) Garbage collection is paused inside the timed region so
    collector pauses do not masquerade as the call's cost.
    """
    with pin_to_one_core():
        inner = []
        for call in calls:
            for _ in range(_WARMUP):
                call()
            probe_start = time.thread_time_ns()
            call()
            probe = max(time.thread_time_ns() - probe_start, 1)
            inner.append(max(1, math.ceil(_MIN_SAMPLE_NS / probe)))
        samples = [[] for _ in calls]
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for _ in range(repeats):
                for call, n, own in zip(calls, inner, samples):
                    start = time.thread_time_ns()
                    for _ in range(n):
                        call()
                    own.append((time.thread_time_ns() - start) / n)
                    gc.collect()
        finally:
            if gc_was_enabled:
                gc.enable()
    return [int(np.median(own)) for own in samples]


def run_scaling_bench(
    aggregators=("ssm", "attention"),
    lengths=DEFAULT_LENGTHS,
    width: int = 64,
    repeats: int = 5,
) -> list[BenchRecord]:
    """Time each aggregator's forward across the length sweep on one substrate.

    Every model config is checked before any parameter or grid is drawn, so
    a bad aggregator or length fails at once. Each length's grid is drawn
    once and shared by every aggregator; the sweep is then timed round-robin
    by ``median_call_ns``.
    """
    if repeats < 5:
        raise ConfigurationError("repeats must be at least 5")
    if not aggregators:
        raise ConfigurationError("the sweep needs at least one aggregator")
    lengths = sorted(lengths)
    if len(lengths) < MIN_SLOPE_POINTS:
        raise ConfigurationError(
            f"the sweep needs at least {MIN_SLOPE_POINTS} lengths for a slope fit, got {len(lengths)}"
        )
    if lengths[-1] < 4 * lengths[0]:
        raise ConfigurationError(
            "length sweep must span at least two doublings for a slope fit"
        )
    cases = [(aggregator, length) for aggregator in aggregators for length in lengths]
    configs = [_bench_config(aggregator, length, width) for aggregator, length in cases]
    grids = {length: _bench_grid(length, width) for length in lengths}
    calls = [
        partial(forward_grid_batch, init_state(config, seed=0, dtype=np.float32), grids[length])
        for config, (_, length) in zip(configs, cases)
    ]
    medians = median_call_ns(calls, repeats)
    return [
        BenchRecord(aggregator=aggregator, length=length, median_ns=median, repeats=repeats)
        for (aggregator, length), median in zip(cases, medians)
    ]


def fit_slope(records: list[BenchRecord]) -> tuple[float, float]:
    """Least-squares slope of log(time) vs log(length), plus fit R^2."""
    if len({r.aggregator for r in records}) != 1:
        raise InputError("fit_slope expects records from a single aggregator")
    if len(records) < MIN_SLOPE_POINTS:
        raise InputError(f"fit_slope needs at least {MIN_SLOPE_POINTS} length points")
    x = np.log([r.length for r in records])
    y = np.log([r.median_ns for r in records])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def summarize(records: list[BenchRecord]) -> dict:
    """JSON-ready summary with per-aggregator fitted slopes and the environment."""
    by_agg: dict[str, list[BenchRecord]] = {}
    for r in records:
        by_agg.setdefault(r.aggregator, []).append(r)
    slopes = {}
    for agg, rows in by_agg.items():
        slope, r2 = fit_slope(rows)
        slopes[agg] = {"slope": round(slope, 4), "r2": round(r2, 6)}
    return {"records": [asdict(r) for r in records], "slopes": slopes, "env": environment()}
