"""Finite-difference gradient oracle for the tests.

``check_gradients`` compares the tape's gradients against central finite
differences; ``sum_all`` reduces a tensor to the scalar loss it needs. Only
tests call either, so they live here and not in ``mvgmn.tensor``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from mvgmn.errors import ConfigurationError, NumericError
from mvgmn.tensor import GradTape, Tensor, custom_op


def sum_all(a: Tensor) -> Tensor:
    out_data = np.asarray(a.data.sum(), dtype=a.data.dtype)
    return custom_op(out_data, [a], lambda g: [np.broadcast_to(g, a.data.shape).copy()])


def check_gradients(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-5,
) -> float:
    """Compare tape gradients against central finite differences.

    ``loss_fn`` must rebuild the graph from the current parameter values and
    return a scalar loss. Returns the worst relative error over every scalar
    parameter entry, with the hybrid denominator max(1, |fd|, |analytic|).
    """
    params = list(params)
    for p in params:
        if p.data.dtype != np.float64:
            raise ConfigurationError("check_gradients requires float64 parameters")
    with GradTape() as tape:
        tape.backward(loss_fn())
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]
    for p in params:
        p.grad = None

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(loss_fn().data)
            flat[i] = orig - h
            f_minus = float(loss_fn().data)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError("finite-difference evaluation is non-finite")
            fd = (f_plus - f_minus) / (2.0 * h)
            err = abs(fd - gflat[i]) / max(1.0, abs(fd), abs(gflat[i]))
            worst = max(worst, err)
    return worst
