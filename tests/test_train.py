import json
import platform
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mvgmn import data as D
from mvgmn import model as M
from mvgmn import train as TR
from mvgmn.errors import ConfigurationError, InputError, NumericError

TRAIN_SPEC = D.SyntheticSpec(
    views=2,
    time_steps=4,
    patches=2,
    rgb_dim=8,
    sk_dim=6,
    n_classes=3,
    n_subjects=4,
    samples_per_class=16,
    noise_sigma=0.05,
    seed=11,
    latent_dim=6,
)


@pytest.fixture(scope="module")
def trainable(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    manifest = D.generate_synthetic(TRAIN_SPEC, root)
    dataset = D.load_dataset(root / "manifest.json")
    splits = D.make_splits(manifest, "cross_subject")
    return dataset, splits


def small_state(seed=0, **overrides):
    cfg = M.config_for_dataset(
        TRAIN_SPEC,
        width=8,
        n_blocks=2,
        knn_k=2,
        attn_dim=4,
        state_dim=4,
        **overrides,
    )
    return M.init_state(cfg, seed=seed)


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------


def test_plateau_schedule_five_flat_epochs():
    sched = TR.PlateauScheduler(0.0025, 5)
    for _ in range(5):
        lr = sched.update(improved=False)
    assert lr == pytest.approx(0.00025)  # effective from epoch 6 onward


def test_plateau_counter_resets_on_improvement():
    sched = TR.PlateauScheduler(1.0, 3)
    pattern = [False, False, True, False, False, False]
    for improved in pattern:
        lr = sched.update(improved)
    assert lr == pytest.approx(0.1)  # only the trailing run of 3 triggers
    sched.update(True)
    assert sched.update(False) == pytest.approx(0.1)  # counter restarted


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TR.TrainConfig(lr0=0.0)
    with pytest.raises(ConfigurationError):
        TR.TrainConfig(patience=0)


# ---------------------------------------------------------------------------
# accuracy helper
# ---------------------------------------------------------------------------


def test_top1_ties_break_toward_lower_class():
    logits = np.array([[0.5, 0.5, 0.1], [0.2, 0.9, 0.9]])
    assert TR.top1_accuracy(logits, np.array([0, 1])) == 1.0
    assert TR.top1_accuracy(logits, np.array([1, 2])) == 0.0


def test_top1_matches_binomial_chance_level():
    rng = np.random.default_rng(0)
    n, c = 4000, 10
    logits = rng.random((n, c))
    labels = rng.integers(0, c, size=n)
    acc = TR.top1_accuracy(logits, labels)
    sigma = np.sqrt((1 / c) * (1 - 1 / c) / n)
    assert abs(acc - 1 / c) <= 3 * sigma


def test_top1_invariant_under_positive_rescaling():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((50, 4))
    labels = rng.integers(0, 4, size=50)
    base = TR.top1_accuracy(logits, labels)
    assert TR.top1_accuracy(logits * 37.5, labels) == base


def test_top1_rejects_empty():
    with pytest.raises(InputError):
        TR.top1_accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_evaluate_requires_samples(trainable):
    dataset, _ = trainable
    state = small_state()
    with pytest.raises(InputError):
        TR.evaluate(state, dataset, np.array([], dtype=np.intp))


def test_perfect_memorization_scores_one(trainable):
    dataset, splits = trainable
    # a state that memorizes its 4-sample train split must score exactly 1.0;
    # the linear aggregator memorizes reliably at high lr
    idx = dataset.index_of(splits.train_ids)[:4]
    state = small_state(seed=3, aggregator="linear")
    cfg = TR.TrainConfig(lr0=0.05, batch_size=4, max_epochs=120, seed=5, patience=120)
    sub_ids = [dataset.ids[i] for i in idx]
    sub_splits = D.Splits(sub_ids, sub_ids, "cross_subject", None)
    TR.train_loop(state, dataset, sub_splits, cfg)
    assert TR.evaluate(state, dataset, idx) == 1.0


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_vanishing_lr_leaves_parameters_unchanged(trainable):
    dataset, splits = trainable
    state = small_state(seed=1)
    before = {k: t.data.copy() for k, t in state.params.items()}
    cfg = TR.TrainConfig(lr0=1e-300, batch_size=16, max_epochs=2, seed=2)
    _, log = TR.train_loop(state, dataset, splits, cfg)
    for k, t in state.params.items():
        assert t.data.tobytes() == before[k].tobytes()
    assert log.rows[0].loss == pytest.approx(log.rows[1].loss)


def test_training_reduces_loss_and_is_deterministic(trainable, tmp_path):
    dataset, splits = trainable
    cfg = TR.TrainConfig(lr0=0.05, batch_size=16, max_epochs=5, seed=9)

    def run(log_path=None):
        state = small_state(seed=7)
        return TR.train_loop(state, dataset, splits, cfg, log_path=log_path)

    def stable(log):  # wall time is the one legitimately varying field
        return [(r.epoch, r.loss, r.top1, r.lr) for r in log.rows]

    state1, log1 = run(tmp_path / "log.jsonl")
    state2, log2 = run()
    assert stable(log1) == stable(log2)
    for k in state1.params:
        assert state1.params[k].data.tobytes() == state2.params[k].data.tobytes()
    assert log1.rows[-1].loss < log1.rows[0].loss
    lrs = [r.lr for r in log1.rows]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))  # non-increasing
    lines = (tmp_path / "log.jsonl").read_text().splitlines()
    assert len(lines) == 5
    row = json.loads(lines[0])
    assert set(row) == {"epoch", "loss", "top1", "lr", "sec"}


def test_lr_drops_when_accuracy_plateaus(trainable):
    dataset, splits = trainable
    state = small_state(seed=4)
    # vanishing lr means accuracy never improves over the baseline
    cfg = TR.TrainConfig(lr0=1e-300, batch_size=16, max_epochs=7, seed=3, patience=5)
    _, log = TR.train_loop(state, dataset, splits, cfg)
    assert [r.lr for r in log.rows] == pytest.approx(
        [1e-300] * 5 + [1e-301] * 2
    )


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_loss_reports_epoch_and_batch(trainable):
    dataset, splits = trainable
    poisoned = replace(dataset, rgb=dataset.rgb.copy())
    train_idx = poisoned.index_of(splits.train_ids)
    poisoned.rgb[train_idx] = 3e38  # overflows f32 in the first train batch
    state = small_state(seed=6)
    cfg = TR.TrainConfig(lr0=0.01, batch_size=len(train_idx), max_epochs=1, seed=1)
    with pytest.raises(NumericError, match="epoch 1, batch 0"):
        TR.train_loop(state, poisoned, splits, cfg)


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("MVGMN_THREADS", raising=False)
    assert TR.worker_count() == 1
    monkeypatch.setenv("MVGMN_THREADS", "4")
    assert TR.worker_count() == 4
    for raw in ("zero", "0", "-2"):
        monkeypatch.setenv("MVGMN_THREADS", raw)
        with pytest.raises(ConfigurationError, match=repr(raw)):
            TR.worker_count()


def test_threaded_evaluation_matches_serial(trainable, monkeypatch):
    dataset, splits = trainable
    state = small_state(seed=8)
    idx = dataset.index_of(splits.test_ids)
    top1_accuracy = TR.top1_accuracy
    seen = []

    def capture(logits, labels):
        seen.append(np.asarray(logits).tobytes())
        return top1_accuracy(logits, labels)

    monkeypatch.setattr(TR, "top1_accuracy", capture)
    monkeypatch.setenv("MVGMN_THREADS", "1")
    serial = TR.evaluate(state, dataset, idx, batch_size=4)
    monkeypatch.setenv("MVGMN_THREADS", "3")
    threaded = TR.evaluate(state, dataset, idx, batch_size=4)
    assert serial == threaded
    assert len(seen) == 2 and seen[0] == seen[1]


# ---------------------------------------------------------------------------
# heap policy
# ---------------------------------------------------------------------------


def test_train_loop_holds_the_heap(trainable, monkeypatch):
    held = []
    monkeypatch.setattr(TR, "hold_heap", lambda: held.append(True))
    dataset, splits = trainable
    TR.train_loop(small_state(), dataset, splits, TR.TrainConfig(max_epochs=1, batch_size=8))
    assert held == [True]


def test_hold_heap_sets_both_malloc_thresholds(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(TR, "_libc", lambda: SimpleNamespace(mallopt=mallopt))
    assert TR.hold_heap() is True
    assert sorted(calls) == [(-3, 32 << 20), (-1, 1 << 30)]


def test_hold_heap_sets_neither_threshold_when_one_is_refused(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 0  # glibc's answer to an mmap threshold above its ceiling

    monkeypatch.setattr(TR, "_libc", lambda: SimpleNamespace(mallopt=mallopt))
    assert TR.hold_heap() is False
    assert calls == [(-3, 32 << 20)]


@pytest.mark.parametrize("libc", [None, SimpleNamespace()], ids=["no_libc", "no_mallopt"])
def test_hold_heap_is_a_no_op_without_mallopt(monkeypatch, libc):
    monkeypatch.setattr(TR, "_libc", lambda: libc)
    assert TR.hold_heap() is False


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's heap policy")
def test_epochs_after_the_first_take_few_page_faults(tmp_path):
    # The default recipe at three batches of 32. Without a held heap, glibc
    # hands freed step arrays back to the kernel, and every later epoch faults
    # them in again: over ten thousand minor faults per epoch. conftest holds
    # the heap for the whole session; this checks the held heap keeps them out.
    import resource  # POSIX only, like the skip condition

    spec = D.SyntheticSpec(samples_per_class=16, seed=1)
    manifest = D.generate_synthetic(spec, tmp_path)
    dataset = D.load_dataset(tmp_path / "manifest.json")
    splits = D.make_splits(manifest, "cross_subject")
    splits = replace(splits, train_ids=splits.train_ids[:96], test_ids=splits.test_ids[:24])
    state = M.init_state(M.config_for_dataset(spec), seed=1)
    faults = []
    TR.train_loop(
        state, dataset, splits, TR.TrainConfig(max_epochs=4, seed=1),
        progress=lambda row: faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt),
    )
    per_epoch = np.diff(faults)
    assert len(per_epoch) == 3
    assert (per_epoch < 500).all(), f"minor faults per epoch after the first: {per_epoch}"
