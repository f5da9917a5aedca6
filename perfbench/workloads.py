"""The benchmark's workloads: ``train``, ``infer`` and ``long_seq``.

Each workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned. All inputs derive from
the run's seed. A workload sets itself up ``SETUP_BEFORE`` times, warms up
while computing the reference outputs its checks compare against, runs the
timed phases, and sets itself up ``SETUP_AFTER`` more times; ``setup_s`` is
the median of all set-ups. The phases:

    --trace 0   one untraced phase of the full run length
    --trace 1   an untraced phase of a third of it, then a traced phase of
                the rest; the difference of their median operation times
                is the tracing overhead

Every workload reports the same end-to-end metrics; what each one measures
is in the workload's ``names`` and in README.md. The tail percentile
(``tail``) of train and long_seq is the highest with ten samples beyond it in
every run, also when the machine is slow (train made 76 to 109 steps in
36 s runs on 2 cores). infer's p99 has 40+ samples beyond it but doubles from run
to run with other tenants' load on a shared machine, so p90 is its bounded
tail and p99 is printed beside it.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path
from unittest import mock

import numpy as np

from tracer import Tracer

# set-ups before and after the timed phases, so that one slow stretch of the
# machine or its disk does not hold all of them
SETUP_BEFORE, SETUP_AFTER = 3, 2
# 10 classes x 16 samples; the cross-subject split holds out 2 of 10 subjects
SAMPLES_PER_CLASS = 16
TRAIN_SAMPLES = 96  # three full batches of 32 per epoch, for every seed
EVAL_SAMPLES = 24  # held-out samples, or all of them if a seed gives fewer
BATCH_SIZE = 32
BATCHED_EVERY = 64  # infer: one batched forward per this many requests
LONG_GRIDS = 4
# float32 logits from differently shaped but equivalent computations
RTOL, ATOL = 1e-4, 1e-5
_LONG_TAG = 0x4C4F4E47  # "LONG"



class _Deadline(Exception):
    """Raised from a step hook to end ``train_loop`` when the phase is over."""


class Outcome:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 5:
            self.problems.append(reason)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _ms(seconds: float) -> float:
    return seconds * 1000.0


class Workload:
    """Shared run structure; subclasses define setup, warm-up and one phase."""

    name = ""
    primary = ""  # the operation kind whose latency is op_ms_p50
    tail: int  # percentile reported as op_ms_tail
    names: dict[str, str]  # end-to-end metric -> what it measures here

    def __init__(self, mvgmn, seed: int, workdir: Path):
        self.m = mvgmn
        self.seed = seed
        self.workdir = workdir
        self.outcome = Outcome()
        self.setup_parts: list[dict[str, float]] = []

    # subclasses: one set-up, timed by parts; returns {"generate": s, ...}
    def setup_once(self, index: int) -> dict[str, float]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Warm caches and compute the references the checks compare to."""

    def phase(self, seconds: float, tracer: Tracer | None) -> dict:
        """Run the closed loop for ``seconds``, at least one operation.

        Returns {"kinds": {kind: [seconds, ...]}, "wall": seconds, ...}.
        """
        raise NotImplementedError

    def end_to_end(self, result: dict) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def extras(self, result: dict) -> dict[str, tuple[float, str]]:
        """Metrics printed in the human-readable lines only, not in the result."""
        return {}

    def run(self, seconds: float, trace: bool) -> dict:
        self._set_up(SETUP_BEFORE)
        self.prepare()
        if not trace:
            result = {"timed": self.phase(seconds, None)}
        else:
            mods = (self.m.model, self.m.scan, self.m.graph, self.m.tensor)
            untraced = self.phase(seconds / 3.0, None)
            with Tracer(*mods) as tracer:
                traced = self.phase(seconds * 2.0 / 3.0, tracer)
            with Tracer(*mods, peaks=True) as probe:
                self.phase(0.0, probe)  # a single operation (pair, for long_seq)
            result = {"untraced": untraced, "traced": traced, "tracer": tracer, "probe": probe}
        self._set_up(SETUP_AFTER)
        return result

    def _set_up(self, times: int) -> None:
        for _ in range(times):
            self.setup_parts.append(self.setup_once(len(self.setup_parts)))

    def setup_s(self) -> float:
        return statistics.median(sum(p.values()) for p in self.setup_parts)

    def setup_part(self, part: str) -> float:
        return statistics.median(p.get(part, 0.0) for p in self.setup_parts)


# ---------------------------------------------------------------------------
# data-backed workloads
# ---------------------------------------------------------------------------


class _DatasetWorkload(Workload):
    """Set-up: generate the synthetic dataset from the seed, load, init."""

    def setup_once(self, index: int) -> dict[str, float]:
        data, model = self.m.data, self.m.model
        out = self.workdir / f"data{index}"
        t0 = time.perf_counter()
        spec = data.SyntheticSpec(samples_per_class=SAMPLES_PER_CLASS, seed=self.seed)
        manifest = data.generate_synthetic(spec, out)
        t1 = time.perf_counter()
        dataset = data.load_dataset(out / "manifest.json")
        t2 = time.perf_counter()
        splits = data.make_splits(manifest, "cross_subject")
        self.config = model.config_for_dataset(dataset.spec)
        self.state = model.init_state(self.config, seed=self.seed)
        t3 = time.perf_counter()
        self.dataset = dataset
        if len(splits.train_ids) < TRAIN_SAMPLES:
            raise self.m.errors.InputError(
                f"seed {self.seed} gives {len(splits.train_ids)} training samples, "
                f"fewer than {TRAIN_SAMPLES}"
            )
        self.splits = self.m.data.Splits(
            splits.train_ids[:TRAIN_SAMPLES],
            splits.test_ids[:EVAL_SAMPLES],
            splits.protocol,
            splits.masked_view,
        )
        return {"generate": t1 - t0, "load": t2 - t1, "init": t3 - t2}


class TrainWorkload(_DatasetWorkload):
    """``train_loop`` on the default recipe, evaluate passes included."""

    name = "train"
    primary = "step"
    tail = 85
    names = {
        "op_ms_p50": "step_ms_p50",
        "op_ms_tail": "step_ms_p85",
        "aux_ms_p50": "evaluate pass, median ms",
        "samples_per_s": "train_samples_per_s",
    }

    def _train_cfg(self, epochs: int):
        return self.m.train.TrainConfig(
            lr0=0.0025, batch_size=BATCH_SIZE, max_epochs=epochs, seed=self.seed
        )

    def _train(self, epochs: int, deadline: float, tracer: Tracer | None) -> dict:
        """One ``train_loop`` from a fresh init; hooks time steps and evals."""
        m = self.m
        state = m.model.init_state(self.config, seed=self.seed)
        steps: list[float] = []
        losses: list[float] = []
        evals: list[float] = []
        eval_samples = 0
        started = [0.0]
        outcome = self.outcome

        class StepTape(m.tensor.GradTape):
            def __enter__(self):
                outcome.attempted += 1
                started[0] = time.perf_counter()
                if tracer is not None:
                    tracer.begin_op()
                return super().__enter__()

        zero_grads = state.zero_grads

        def step_end():
            zero_grads()
            if tracer is not None:
                tracer.add_update_span()
                steps.append(tracer.end_op())
            else:
                steps.append(time.perf_counter() - started[0])
            if time.perf_counter() >= deadline:
                raise _Deadline

        loss_fn = m.train.softmax_cross_entropy

        def loss_capture(logits, labels):
            loss = loss_fn(logits, labels)
            losses.append(float(loss.data))
            return loss

        evaluate = m.train.evaluate

        def timed_evaluate(state_, dataset, indices, *args, **kwargs):
            nonlocal eval_samples
            t0 = time.perf_counter()
            top1 = evaluate(state_, dataset, indices, *args, **kwargs)
            evals.append(time.perf_counter() - t0)
            eval_samples += len(indices)
            return top1

        state.zero_grads = step_end
        t0 = time.perf_counter()
        with mock.patch.object(m.train, "GradTape", StepTape), \
                mock.patch.object(m.train, "softmax_cross_entropy", loss_capture), \
                mock.patch.object(m.train, "evaluate", timed_evaluate):
            try:
                m.train.train_loop(state, self.dataset, self.splits, self._train_cfg(epochs))
            except _Deadline:
                pass
            except m.errors.MvgmnError as err:
                self.outcome.fail(f"train_loop raised {type(err).__name__}: {err}")
        wall = time.perf_counter() - t0
        return {
            "kinds": {"step": steps},
            "losses": losses,
            "evals": evals,
            "eval_samples": eval_samples,
            "wall": wall,
        }

    def prepare(self) -> None:
        # one full epoch, untimed: warms caches and gives the loss sequence
        # every timed run from the same seed must reproduce exactly
        before = self.outcome.attempted
        ref = self._train(1, math.inf, None)
        self.outcome.attempted = before  # reference steps are not operations
        self.reference_losses = ref["losses"]
        self._check_losses(ref["losses"], "reference run")

    def _check_losses(self, losses: list[float], label: str) -> None:
        bad = [x for x in losses if not math.isfinite(x)]
        if bad:
            self.outcome.fail(f"{label}: {len(bad)} non-finite step losses", len(bad))

    def phase(self, seconds: float, tracer: Tracer | None) -> dict:
        result = self._train(10_000, time.perf_counter() + seconds, tracer)
        losses = result["losses"]
        self._check_losses(losses, "timed run")
        ref = self.reference_losses
        n = min(len(ref), len(losses))
        mismatched = sum(1 for a, b in zip(ref[:n], losses[:n]) if a != b)
        if mismatched:
            self.outcome.fail(
                f"{mismatched} of the first {n} step losses differ from the "
                "reference run with the same seed",
                mismatched,
            )
        return result

    def end_to_end(self, result: dict) -> dict[str, tuple[float, str]]:
        steps = result["kinds"]["step"]
        train_s = result["wall"] - sum(result["evals"])
        return {
            "op_ms_p50": (_ms(statistics.median(steps)), "ms"),
            "op_ms_tail": (_ms(percentile(steps, self.tail)), "ms"),
            "aux_ms_p50": (_ms(statistics.median(result["evals"])), "ms"),
            "samples_per_s": (BATCH_SIZE * len(steps) / train_s, "1/s"),
        }

    def extras(self, result: dict) -> dict[str, tuple[float, str]]:
        return {"eval_samples_per_s": (result["eval_samples"] / sum(result["evals"]), "1/s")}


class InferWorkload(_DatasetWorkload):
    """Batch-1 ``forward_batch`` requests over held-out samples, no tape."""

    name = "infer"
    primary = "request"
    tail = 90
    names = {
        "op_ms_p50": "latency_ms_p50",
        "op_ms_tail": "latency_ms_p90",
        "aux_ms_p50": "batched forward of the held-out samples, median ms",
        "samples_per_s": "batch-1 requests per second",
    }

    def _batched(self) -> tuple[np.ndarray, float]:
        held = self.held
        t0 = time.perf_counter()
        logits = self.m.model.forward_batch(
            self.state, self.dataset.rgb[held], self.dataset.sk[held]
        ).data
        return logits, time.perf_counter() - t0

    def prepare(self) -> None:
        self.held = self.dataset.index_of(self.splits.test_ids)
        self.reference, _ = self._batched()
        for j in self.held:  # warm-up pass
            self.m.model.forward_batch(
                self.state, self.dataset.rgb[j : j + 1], self.dataset.sk[j : j + 1]
            )

    def phase(self, seconds: float, tracer: Tracer | None) -> dict:
        m, ds, held = self.m, self.dataset, self.held
        latencies: list[float] = []
        batched: list[float] = []
        deadline = time.perf_counter() + seconds
        t_start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            k = i % len(held)
            j = held[k]
            i += 1
            self.outcome.attempted += 1
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.begin_op()
            try:
                logits = m.model.forward_batch(self.state, ds.rgb[j : j + 1], ds.sk[j : j + 1])
            except m.errors.MvgmnError as err:
                self.outcome.fail(f"request {i} raised {type(err).__name__}: {err}")
                continue
            finally:
                dur = tracer.end_op() if tracer is not None else time.perf_counter() - t0
            latencies.append(dur)
            if not np.allclose(logits.data[0], self.reference[k], rtol=RTOL, atol=ATOL):
                self.outcome.fail(
                    f"batch-1 logits of sample {ds.ids[j]} differ from the batched forward"
                )
            # spread over the run, so that a slow stretch of the machine
            # weighs on the batched figure as much as on the requests
            if tracer is None and i % BATCHED_EVERY == 1:
                logits, dur = self._batched()
                batched.append(dur)
                if not np.allclose(logits, self.reference, rtol=RTOL, atol=ATOL):
                    self.outcome.fail("a repeated batched forward changed its logits")
        wall = time.perf_counter() - t_start - sum(batched)
        return {"kinds": {"request": latencies}, "batched": batched, "wall": wall}

    def end_to_end(self, result: dict) -> dict[str, tuple[float, str]]:
        lat = result["kinds"]["request"]
        return {
            "op_ms_p50": (_ms(statistics.median(lat)), "ms"),
            "op_ms_tail": (_ms(percentile(lat, self.tail)), "ms"),
            "aux_ms_p50": (_ms(statistics.median(result["batched"])), "ms"),
            "samples_per_s": (len(lat) / result["wall"], "1/s"),
        }

    def extras(self, result: dict) -> dict[str, tuple[float, str]]:
        return {"latency_ms_p99": (_ms(percentile(result["kinds"]["request"], 99)), "ms")}


# ---------------------------------------------------------------------------
# long sequences on pre-fused grids
# ---------------------------------------------------------------------------


class LongSeqWorkload(Workload):
    """Batch-1 grids at L = V*T = 512; forward-only and forward+backward."""

    name = "long_seq"
    primary = "fwd"
    tail = 75
    names = {
        "op_ms_p50": "fwd_ms_p50",
        "op_ms_tail": "fwd_ms_p75",
        "aux_ms_p50": "fwd_bwd_ms_p50",
        "samples_per_s": "requests per second, both kinds",
    }
    views, time_steps, width = 4, 128, 64

    def setup_once(self, index: int) -> dict[str, float]:
        m = self.m
        t0 = time.perf_counter()
        self.config = m.model.ModelConfig(
            views=self.views, time_steps=self.time_steps, width=self.width,
            n_classes=8, rgb_dim=4, sk_dim=4, patches=1, n_blocks=2,
            scan_mode="view_time", aggregator="mvgmn", knn_k=3,
        )
        self.state = m.model.init_state(self.config, seed=self.seed)
        t1 = time.perf_counter()
        rng = m.rng.Xoshiro256pp(m.rng.derive_seed(self.seed, _LONG_TAG))
        length = self.views * self.time_steps
        self.grids = []
        for _ in range(LONG_GRIDS):
            data = rng.normals(length * self.width).reshape(1, length, self.width)
            self.grids.append(m.tensor.Tensor(data.astype(np.float32)))
        self.labels = [np.asarray([rng.below(self.config.n_classes)]) for _ in self.grids]
        t2 = time.perf_counter()
        return {"init": t1 - t0, "grids": t2 - t1}

    def _forward(self, g: int) -> np.ndarray:
        return self.m.model.forward_grid_batch(self.state, self.grids[g]).data

    def _forward_backward(self, g: int) -> np.ndarray:
        m = self.m
        with m.tensor.GradTape() as tape:
            logits = m.model.forward_grid_batch(self.state, self.grids[g])
            loss = m.tensor.softmax_cross_entropy(logits, self.labels[g])
            tape.backward(loss)
        return logits.data

    def prepare(self) -> None:
        self._forward(0)
        self._forward_backward(0)
        self.state.zero_grads()

    def phase(self, seconds: float, tracer: Tracer | None) -> dict:
        kinds: dict[str, list[float]] = {"fwd": [], "fwd_bwd": []}
        deadline = time.perf_counter() + seconds
        t_start = time.perf_counter()
        pair = 0
        while pair == 0 or time.perf_counter() < deadline:
            g = pair % LONG_GRIDS
            pair += 1
            out = {}
            for kind, call in (("fwd", self._forward), ("fwd_bwd", self._forward_backward)):
                self.outcome.attempted += 1
                t0 = time.perf_counter()
                if tracer is not None:
                    tracer.begin_op()
                try:
                    out[kind] = call(g)
                except self.m.errors.MvgmnError as err:
                    self.outcome.fail(f"{kind} request raised {type(err).__name__}: {err}")
                finally:
                    dur = tracer.end_op() if tracer is not None else time.perf_counter() - t0
                if kind in out:
                    kinds[kind].append(dur)
            self._check(out)
        wall = time.perf_counter() - t_start
        return {"kinds": kinds, "wall": wall}

    def _check(self, out: dict) -> None:
        grads = [p.grad for p in self.state.params.values() if p.grad is not None]
        self.state.zero_grads()
        if "fwd_bwd" not in out:
            return
        if not grads or not all(np.all(np.isfinite(g)) for g in grads):
            self.outcome.fail("forward+backward left a missing or non-finite gradient")
        if "fwd" in out and not np.allclose(out["fwd"], out["fwd_bwd"], rtol=RTOL, atol=ATOL):
            self.outcome.fail("forward-only logits differ from the forward+backward logits")

    def end_to_end(self, result: dict) -> dict[str, tuple[float, str]]:
        fwd, fwd_bwd = result["kinds"]["fwd"], result["kinds"]["fwd_bwd"]
        return {
            "op_ms_p50": (_ms(statistics.median(fwd)), "ms"),
            "op_ms_tail": (_ms(percentile(fwd, self.tail)), "ms"),
            "aux_ms_p50": (_ms(statistics.median(fwd_bwd)), "ms"),
            "samples_per_s": ((len(fwd) + len(fwd_bwd)) / result["wall"], "1/s"),
        }


WORKLOADS = {w.name: w for w in (TrainWorkload, InferWorkload, LongSeqWorkload)}
