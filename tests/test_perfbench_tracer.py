"""The benchmark's per-layer tracer wraps package functions by name.

It lives outside the package (perfbench/tracer.py), so a renamed or deleted
function would otherwise only show up when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import numpy as np

from mvgmn import graph, model, scan, tensor

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

WRAPPED = [
    (model, "fuse_batch"),
    (model, "forward_grid_batch"),
    (model, "mean_axis"),
    (scan, "apply_direction"),
    (scan, "selective_scan"),
    (graph, "build_graph"),
    (graph, "knn_edges"),
    (graph, "normalized_operator"),
    (tensor.GradTape, "record"),
    (tensor.GradTape, "backward"),
]


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_package_and_records_every_layer():
    originals = [getattr(owner, name) for owner, name in WRAPPED]
    cfg = model.ModelConfig(views=2, time_steps=2, width=4, n_classes=3, rgb_dim=3,
                            sk_dim=2, patches=2, n_blocks=2, knn_k=1, attn_dim=2,
                            state_dim=2)
    state = model.init_state(cfg, seed=0)
    rng = np.random.default_rng(0)
    rgb = rng.standard_normal((2, 2, 2, 2, 3))
    sk = rng.standard_normal((2, 2, 4, 2))

    with _tracer_module().Tracer(model, scan, graph, tensor) as tracer:
        for (owner, name), original in zip(WRAPPED, originals):
            assert getattr(owner, name) is not original, name
        tracer.begin_op()
        with tensor.GradTape() as tape:
            logits = model.forward_batch(state, rgb, sk)
            tape.backward(tensor.softmax_cross_entropy(logits, np.array([0, 1])))
        tracer.end_op()

    for (owner, name), original in zip(WRAPPED, originals):
        assert getattr(owner, name) is original, name
    for span in ("fusion", "model.forward", "model.head", "scan", "scan.selective",
                 "graph.build", "graph.knn", "graph.normalize", "tensor.backward"):
        assert tracer.calls[span] > 0, span
