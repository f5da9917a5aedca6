"""mvgmn benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 36 --trace 0

Workloads are ``train``, ``infer`` and ``long_seq`` (see workloads.py and
README.md). The package is imported from ``src/`` next to this directory, so
a checkout without it exits with code 2 and prints no result. Human-readable
lines come first, including the run's environment; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when an output check failed.
BLAS runs on one thread (see below).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread, set before numpy loads. The benchmark is one client in one
# process; on a shared 2-core x86 host a second BLAS thread makes batched
# matmuls wait for a core another tenant holds: the infer workload's batch-24
# forward went from 85 to 154 ms with one core busy, and to 86 ms with one
# thread, while batch-1 requests, too small to thread, stayed at 7.5-8 ms.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
COVERAGE_TOLERANCE = 0.10


def import_mvgmn() -> SimpleNamespace:
    """Import the package from this checkout's ``src/``, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mvgmn
    from mvgmn import data, errors, graph, model, rng, scan, tensor, train

    if Path(mvgmn.__file__).resolve().parent != src / "mvgmn":
        raise ImportError(f"mvgmn was imported from {mvgmn.__file__}, not from {src}")
    return SimpleNamespace(
        data=data, errors=errors, graph=graph, model=model, rng=rng,
        scan=scan, tensor=tensor, train=train,
    )


def _blas_threads() -> int | None:
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
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


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "MVGMN_THREADS": os.environ.get("MVGMN_THREADS"),
        "seed": seed,
        "git_sha": _git_sha(),
    }


def _per_op(total: float, n_ops: int, scale: float = 1000.0) -> float:
    return total * scale / n_ops if n_ops else 0.0


def per_layer(workload, result: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced phase, per operation unless noted."""
    tr = result["tracer"]
    peaks = result["probe"].scan_peaks
    n = len(tr.op_s)
    incl, self_s, bwd, calls = tr.incl_s, tr.self_s, tr.bwd_s, tr.calls
    primary = workload.primary
    traced = result["traced"]["kinds"][primary]
    untraced = result["untraced"]["kinds"][primary]
    overhead = statistics.median(traced) - statistics.median(untraced)
    evals = result["traced"].get("evals")
    ms, count = "ms", "count"
    return {
        "scan.fwd_ms": (_per_op(incl["scan"], n), ms),
        "scan.bwd_ms": (_per_op(bwd["scan"] + bwd["scan.selective"], n), ms),
        "scan.selective_fwd_ms": (_per_op(incl["scan.selective"], n), ms),
        "scan.selective_bwd_ms": (_per_op(bwd["scan.selective"], n), ms),
        "scan.calls": (_per_op(calls["scan"], n, 1.0), count),
        "scan.peak_bytes": (statistics.mean(peaks) if peaks else 0.0, "bytes"),
        "graph.build_ms": (_per_op(incl["graph.build"], n), ms),
        "graph.knn_ms": (_per_op(incl["graph.knn"], n), ms),
        "graph.normalize_ms": (_per_op(incl["graph.normalize"], n), ms),
        "graph.propagate_ms": (_per_op(self_s["model.forward"], n), ms),
        "graph.bwd_ms": (_per_op(bwd["graph"], n), ms),
        "graph.calls": (_per_op(calls["graph.build"], n, 1.0), count),
        "fusion.fwd_ms": (_per_op(incl["fusion"], n), ms),
        "fusion.bwd_ms": (_per_op(bwd["fusion"], n), ms),
        "tensor.tape_ops": (statistics.mean(tr.tape_ops) if tr.tape_ops else 0.0, count),
        "tensor.backward_ms": (_per_op(incl["tensor.backward"], n), ms),
        "train.update_ms": (_per_op(incl["train.update"], n), ms),
        "train.eval_ms": (statistics.median(evals) * 1000 if evals else 0.0, ms),
        "model.head_ms": (_per_op(self_s["model.head"], n), ms),
        "model.forward_ms": (_per_op(incl["model.forward"], n), ms),
        "data.generate_s": (workload.setup_part("generate"), "s"),
        "data.load_s": (workload.setup_part("load"), "s"),
        "rusage.minor_faults": (_per_op(tr.minor_faults, n, 1.0), count),
        "rusage.sys_ms": (_per_op(tr.sys_s, n), ms),
        "trace.overhead_ms": (overhead * 1000, ms),
        "trace.coverage": (tr.attributed_s() / sum(tr.op_s) if n else 0.0, "ratio"),
    }


def _print_metrics(title: str, metrics: dict[str, tuple[float, str]], names=None) -> None:
    print(title)
    for key, (value, unit) in metrics.items():
        label = f"{key} ({names[key]})" if names and key in names else key
        print(f"  {label:<58} {value:>14.4f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    try:
        mvgmn = import_mvgmn()
    except ImportError as err:
        print(f"perfbench: cannot import mvgmn from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    env = environment(args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    workload = WORKLOADS[args.workload](mvgmn, args.seed, workdir)
    try:
        result = workload.run(args.seconds, bool(args.trace))
    except mvgmn.errors.MvgmnError as err:
        workload.outcome.fail(f"set-up raised {type(err).__name__}: {err}")
        result = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()  # only when no other run is using it
        except OSError:
            pass

    outcome = workload.outcome
    metrics: dict[str, tuple[float, str]] = {}
    if result is not None and not args.trace:
        timed = result["timed"]
        metrics = {
            "setup_s": (workload.setup_s(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            **workload.end_to_end(timed),
        }
        counts = {k: len(v) for k, v in timed["kinds"].items()}
        tail = workload.tail
        beyond = int(len(timed["kinds"][workload.primary]) * (100 - tail) / 100)
        _print_metrics(
            f"end-to-end, {args.workload} (samples per kind {counts}, "
            f"tail p{tail} with {beyond} samples beyond it):",
            {**metrics, **workload.extras(timed)},
            workload.names,
        )
    elif result is not None:
        metrics = per_layer(workload, result)
        _print_metrics(f"per-layer, {args.workload} (per traced op unless a count):", metrics)
        tr = result["tracer"]
        coverage = metrics["trace.coverage"][0]
        if abs(1.0 - coverage) <= COVERAGE_TOLERANCE:
            print(f"attribution: layer self times cover {coverage:.1%} of {len(tr.op_s)} ops: ok")
        else:
            where, secs = tr.largest_gap()
            print(f"attribution: layer self times cover {coverage:.1%} of {len(tr.op_s)} ops; "
                  f"missing span {where}, {_per_op(secs, len(tr.op_s)):.3f} ms per op")
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    print(f"attempted {outcome.attempted} failed {outcome.failed}")

    correct = result is not None and outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, outcome.failed, 1),
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
