"""SGD training loop with a plateau learning-rate schedule, plus evaluation.

Plain SGD (no momentum or weight decay) at an initial rate of 0.0025; the
rate is cut by 10x whenever evaluation top-1 has not exceeded its best for 5
consecutive epochs (the counter resets on improvement and after each cut).
The improvement baseline is the untrained model's evaluation accuracy.

Per-epoch shuffles are derived from (seed, epoch), so a run is reproducible
bit-for-bit from its config.
"""

from __future__ import annotations

import ctypes
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset, Splits, check_fields
from .errors import ConfigurationError, InputError, NumericError
from .model import ModelState, forward_batch
from .rng import Xoshiro256pp, derive_seed
from .tensor import GradTape, softmax_cross_entropy

_EPOCH_TAG = 0x45504F43  # "EPOC"
_PLATEAU_FACTOR = 0.1
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_BYTES = 1 << 30
_MMAP_BYTES = 32 << 20  # glibc's ceiling on 64-bit; mallopt refuses more


def _libc():
    try:
        return ctypes.CDLL(None)  # the C library the process already runs on
    except (OSError, TypeError):  # no handle for the running process (Windows)
        return None


def hold_heap() -> bool:
    """Keep freed memory in the C heap instead of returning it to the kernel.

    A training step frees and re-allocates the same arrays every step. With
    glibc's defaults the freed memory is trimmed or unmapped, and the next
    step faults every page back in. This raises glibc's trim threshold to
    1 GiB and its mmap threshold to 32 MiB. Both or neither: the mmap
    threshold goes first, and a refusal skips the trim threshold, since
    either one alone faults more than the defaults. A C library without
    ``mallopt`` (macOS, Windows) is left alone. The setting holds for the
    whole process; returns whether it was made.
    """
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if not mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES):
        return False
    return bool(mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES))


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.0025
    patience: int = 5
    batch_size: int = 32  # 64 reproduces the reference recipe
    max_epochs: int = 64
    seed: int = 0
    protocol: str = "cross_subject"

    def __post_init__(self):
        check_fields(self)
        if self.lr0 <= 0:
            raise ConfigurationError("lr0 must be positive")


class PlateauScheduler:
    """Multiply lr by 0.1 after ``patience`` non-improving updates."""

    def __init__(self, lr0: float, patience: int):
        self.lr = lr0
        self.patience = patience
        self._bad = 0

    def update(self, improved: bool) -> float:
        if improved:
            self._bad = 0
        else:
            self._bad += 1
            if self._bad >= self.patience:
                self.lr *= _PLATEAU_FACTOR
                self._bad = 0
        return self.lr


@dataclass
class EpochRow:
    epoch: int
    loss: float
    top1: float
    lr: float
    sec: float


@dataclass
class TrainLog:
    rows: list[EpochRow] = field(default_factory=list)

    def append(self, row: EpochRow, path=None) -> None:
        self.rows.append(row)
        if path is not None:
            with open(path, "a") as f:
                f.write(json.dumps(asdict(row)) + "\n")


def _batches(indices: np.ndarray, size: int):
    for start in range(0, len(indices), size):
        yield indices[start : start + size]


def worker_count() -> int:
    """Threads in evaluate's batch pool: the MVGMN_THREADS env var, default 1."""
    raw = os.environ.get("MVGMN_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigurationError(f"MVGMN_THREADS must be a positive integer, got {raw!r}")
    return count


def top1_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax equals the label; ties go to the lower index."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise InputError(f"logits {logits.shape} do not pair with labels {labels.shape}")
    if logits.shape[0] == 0:
        raise InputError("top1_accuracy requires at least one sample")
    return float((logits.argmax(axis=1) == labels).mean())


def evaluate(
    state: ModelState,
    dataset: Dataset,
    indices: np.ndarray,
    batch_size: int = 64,
    mask_view: int | None = None,
) -> float:
    """Top-1 accuracy over the given samples; argmax ties go to the lower class."""
    indices = np.asarray(indices, dtype=np.intp)
    if indices.size == 0:
        raise InputError("evaluate requires a non-empty split")
    if batch_size < 1:
        raise ConfigurationError(f"batch size must be at least 1, got {batch_size}")

    def run(batch: np.ndarray) -> np.ndarray:
        return forward_batch(
            state, dataset.rgb[batch], dataset.sk[batch], mask_view=mask_view
        ).data

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        logits = list(pool.map(run, _batches(indices, batch_size)))
    return top1_accuracy(np.concatenate(logits), dataset.labels[indices])


def train_loop(
    state: ModelState,
    dataset: Dataset,
    splits: Splits,
    cfg: TrainConfig,
    log_path=None,
    progress=None,
) -> tuple[ModelState, TrainLog]:
    """Optimize in place; returns the state and the per-epoch log.

    Holds the process's heap first (``hold_heap``).
    """
    hold_heap()
    train_idx = dataset.index_of(splits.train_ids)
    test_idx = dataset.index_of(splits.test_ids)
    mask_view = splits.masked_view
    sched = PlateauScheduler(cfg.lr0, cfg.patience)
    log = TrainLog()
    best = evaluate(state, dataset, test_idx, cfg.batch_size, mask_view)

    for epoch in range(1, cfg.max_epochs + 1):
        started = time.monotonic()
        order = list(train_idx)
        Xoshiro256pp(derive_seed(cfg.seed, _EPOCH_TAG, epoch)).shuffle(order)
        order = np.asarray(order, dtype=np.intp)
        lr = sched.lr
        total_loss = 0.0
        for batch_no, batch in enumerate(_batches(order, cfg.batch_size)):
            try:
                with GradTape() as tape:
                    logits = forward_batch(state, dataset.rgb[batch], dataset.sk[batch])
                    loss = softmax_cross_entropy(logits, dataset.labels[batch])
                    loss_value = float(loss.data)
                    tape.backward(loss)
            except NumericError as err:
                raise NumericError(
                    f"aborting at epoch {epoch}, batch {batch_no}: {err}"
                ) from err
            total_loss += loss_value * len(batch)
            for p in state.params.values():
                if p.grad is not None:
                    p.data -= (lr * p.grad).astype(p.data.dtype, copy=False)
            state.zero_grads()
        top1 = evaluate(state, dataset, test_idx, cfg.batch_size, mask_view)
        row = EpochRow(
            epoch=epoch,
            loss=total_loss / len(order),
            top1=top1,
            lr=lr,
            sec=time.monotonic() - started,
        )
        log.append(row, log_path)
        if progress is not None:
            progress(row)
        improved = top1 > best
        best = max(best, top1)
        sched.update(improved)
    return state, log
