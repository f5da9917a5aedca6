"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The full suite trains the
default synthetic task and runs the complexity sweep, so it takes tens of
minutes on one CPU core; every other test file stays fast.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from mvgmn import bench as B
from mvgmn import data as D
from mvgmn import graph as G
from mvgmn import model as M
from mvgmn import scan as S
from mvgmn import train as TR
from mvgmn import tensor as T
from mvgmn.cli import main as cli_main
from mvgmn.rng import Xoshiro256pp
from mvgmn.tensor import Tensor, check_gradients

from test_graph import brute_force_knn, brute_force_rule_edges, knn_edge_set, rule_edge_sets
from test_scan import selective_scan_reference


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# criterion 1 -----------------------------------------------------------------


def test_criterion_1_end_to_end_gradient_integrity():
    started = time.monotonic()
    cfg = M.ModelConfig(
        views=2,
        time_steps=2,
        width=8,
        n_classes=3,
        rgb_dim=6,
        sk_dim=5,
        patches=3,
        n_blocks=4,
        scan_mode="view_time",
        aggregator="mvgmn",
        knn_k=2,
        attn_dim=4,
        state_dim=4,
    )
    state = M.init_state(cfg, seed=0, dtype=np.float64)
    rng = np.random.default_rng(0)
    rgb = rng.standard_normal((1, 2, 2, 3, 6))
    sk = rng.standard_normal((1, 2, 4, 5))
    labels = np.array([1])

    def loss():
        logits = M.forward_batch(state, rgb, sk)
        return T.softmax_cross_entropy(logits, labels)

    err = check_gradients(loss, list(state.params.values()), h=1e-5)
    elapsed = time.monotonic() - started
    _report(
        "criterion 1 (gradient integrity)",
        err < 1e-4 and elapsed < 120,
        f"max rel err {err:.3e} over {M.count_parameters(state)} params in {elapsed:.1f}s",
    )


# criterion 2 -----------------------------------------------------------------


def test_criterion_2_scan_kernel_against_recurrence_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(200):
        length = int(rng.integers(1, 65))
        d = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        ssm = {
            "a_log": Tensor(rng.standard_normal((d, n)) * 0.5),
            "b_proj": Tensor(rng.standard_normal((d, n)) * 0.5),
            "c_proj": Tensor(rng.standard_normal((d, n)) * 0.5),
            "dt_weight": Tensor(rng.standard_normal((d, 1)) * 0.5),
            "dt_bias": Tensor(rng.standard_normal(1)),
            "skip_gain": Tensor(rng.standard_normal(d)),
        }
        x = rng.standard_normal((length, d))
        fast = S.selective_scan(Tensor(x[np.newaxis]), ssm).data[0]
        slow = selective_scan_reference(x, ssm)
        worst = max(worst, float(np.abs(fast - slow).max()))

    # analytic edges: zero step size, and a single step
    d = 3
    ssm = {
        "a_log": Tensor(rng.standard_normal((d, 2))),
        "b_proj": Tensor(rng.standard_normal((d, 2))),
        "c_proj": Tensor(rng.standard_normal((d, 2))),
        "dt_weight": Tensor(np.zeros((d, 1))),
        "dt_bias": Tensor([-1e9]),
        "skip_gain": Tensor(rng.standard_normal(d)),
    }
    x = rng.standard_normal((5, d))
    zero_dt_err = float(
        np.abs(
            S.selective_scan(Tensor(x[np.newaxis]), ssm).data[0] - ssm["skip_gain"].data * x
        ).max()
    )
    ssm_one = {
        "a_log": Tensor(rng.standard_normal((d, 2))),
        "b_proj": Tensor(rng.standard_normal((d, 2))),
        "c_proj": Tensor(rng.standard_normal((d, 2))),
        "dt_weight": Tensor(rng.standard_normal((d, 1))),
        "dt_bias": Tensor(rng.standard_normal(1)),
        "skip_gain": Tensor(rng.standard_normal(d)),
    }
    x1 = rng.standard_normal((1, d))
    dt = np.logaddexp(0, x1[0] @ ssm_one["dt_weight"].data[:, 0] + ssm_one["dt_bias"].data[0])
    drive = dt * np.outer(x1[0], x1[0] @ ssm_one["b_proj"].data)
    expect = drive @ (x1[0] @ ssm_one["c_proj"].data) + ssm_one["skip_gain"].data * x1[0]
    one_step_err = float(
        np.abs(S.selective_scan(Tensor(x1[np.newaxis]), ssm_one).data[0][0] - expect).max()
    )

    elapsed = time.monotonic() - started
    ok = worst < 1e-6 and zero_dt_err < 1e-12 and one_step_err < 1e-12 and elapsed < 30
    _report(
        "criterion 2 (scan kernel vs oracle)",
        ok,
        f"200 instances, worst |diff| {worst:.2e}, zero-step {zero_dt_err:.1e}, "
        f"one-step {one_step_err:.1e}, {elapsed:.1f}s",
    )


# criterion 3 -----------------------------------------------------------------


def test_criterion_3_graph_oracles():
    started = time.monotonic()
    rule_ok = all(
        rule_edge_sets(v, t) == brute_force_rule_edges(v, t)
        for v in range(1, 5)
        for t in range(1, 7)
    )
    time_e, view_e = rule_edge_sets(3, 8)
    count_ok = len(time_e) == 84 and len(view_e) == 24 and len(time_e | view_e) == 108

    rng = np.random.default_rng(7)
    knn_ok = True
    for trial in range(50):
        n = int(rng.integers(3, 25))
        k = int(rng.integers(1, min(4, n)))
        x = rng.standard_normal((n, int(rng.integers(1, 7))))
        if knn_edge_set(G.knn_edges(x, k)) != brute_force_knn(x, k):
            knn_ok = False
            break
    elapsed = time.monotonic() - started
    ok = rule_ok and count_ok and knn_ok and elapsed < 30
    _report(
        "criterion 3 (graph oracles)",
        ok,
        f"rule sets exact V<=4,T<=6; 3x8 rule count 108; 50 KNN instances exact; {elapsed:.1f}s",
    )


# criterion 4 -----------------------------------------------------------------


def test_criterion_4_permutation_algebra():
    started = time.monotonic()
    ok = True
    for v in range(1, 9):
        for t in range(1, 9):
            rng = np.random.default_rng(v * 100 + t)
            rows = Tensor(rng.standard_normal((v, t, 3)).reshape(v * t, 3))  # canonical
            seq = {}
            for order in S.SCAN_ORDERS:
                seq[order] = T.take_rows(rows, S.scan_permutation(order, v, t)).data
                back = T.take_rows(Tensor(seq[order]), S.inverse_permutation(order, v, t))
                ok &= np.array_equal(back.data, rows.data)
            ok &= np.array_equal(seq["view_backward"], seq["view_forward"][::-1])
            ok &= np.array_equal(seq["time_backward"], seq["time_forward"][::-1])
    elapsed = time.monotonic() - started
    _report(
        "criterion 4 (permutation algebra)",
        ok and elapsed < 10,
        f"exact round-trips and reversals for all orders, V,T <= 8; {elapsed:.1f}s",
    )


# criterion 5 -----------------------------------------------------------------


@pytest.mark.timing
def test_criterion_5_complexity_scaling():
    started = time.monotonic()
    with B.pin_to_one_core():
        records = B.run_scaling_bench(
            aggregators=("ssm", "attention"),
            lengths=B.DEFAULT_LENGTHS,
            width=64,
            repeats=7,
        )
    summary = B.summarize(records)["slopes"]
    ssm_slope, ssm_r2 = summary["ssm"]["slope"], summary["ssm"]["r2"]
    attn_slope = summary["attention"]["slope"]
    elapsed = time.monotonic() - started
    ok = ssm_slope <= 1.3 and ssm_r2 >= 0.98 and attn_slope >= 1.7 and elapsed < 600
    _report(
        "criterion 5 (linear vs quadratic complexity)",
        ok,
        f"ssm slope {ssm_slope:.3f} (R2 {ssm_r2:.4f}), attention slope {attn_slope:.3f}, "
        f"{elapsed:.0f}s",
    )


# criterion 6 -----------------------------------------------------------------


def test_criterion_6_learnability_gate(tmp_path):
    started = time.monotonic()
    spec = D.SyntheticSpec(seed=0)  # V=3, T=8, 10 classes, sigma 0.3, 2000 samples
    manifest = D.generate_synthetic(spec, tmp_path)
    dataset = D.load_dataset(tmp_path / "manifest.json")
    splits = D.make_splits(manifest, "cross_subject")
    cfg = TR.TrainConfig(max_epochs=30, seed=0)  # lr 0.0025, plateau 0.1/5
    state = M.init_state(M.config_for_dataset(spec), seed=0)
    state, log = TR.train_loop(state, dataset, splits, cfg)
    best = max(r.top1 for r in log.rows)
    first_hit = next((r.epoch for r in log.rows if r.top1 >= 0.9), None)
    loss_decreases = log.rows[4].loss < log.rows[0].loss

    # determinism of the training path under the same seed (first 3 epochs)
    short = replace(cfg, max_epochs=3)
    state_a = M.init_state(M.config_for_dataset(spec), seed=0)
    _, log_a = TR.train_loop(state_a, dataset, splits, short)
    state_b = M.init_state(M.config_for_dataset(spec), seed=0)
    _, log_b = TR.train_loop(state_b, dataset, splits, short)
    deterministic = [(r.loss, r.top1) for r in log_a.rows] == [
        (r.loss, r.top1) for r in log_b.rows
    ] and all(
        state_a.params[k].data.tobytes() == state_b.params[k].data.tobytes()
        for k in state_a.params
    )

    elapsed = time.monotonic() - started
    ok = best >= 0.9 and loss_decreases and deterministic and elapsed < 1800
    _report(
        "criterion 6 (learnability gate)",
        ok,
        f"best top1 {best:.3f} (>=0.9 first reached at epoch {first_hit}), "
        f"loss decreasing over first 5 epochs, deterministic replay, {elapsed:.0f}s",
    )


# criterion 7 -----------------------------------------------------------------


def test_criterion_7_ablation_ladder(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert cli_main([
        "gen-data", "--out", str(data_dir), "--seed", "3", "--classes", "4",
        "--samples-per-class", "25", "--subjects", "4",
    ]) == 0
    out_dir = tmp_path / "ablate"
    code = cli_main([
        "ablate", "--data", str(data_dir / "manifest.json"), "--out", str(out_dir),
        "--ladder", "both", "--epochs", "2", "--batch", "32", "--seed", "0",
        "--width", "16", "--state-dim", "16", "--blocks", "4",
    ])
    capsys.readouterr()
    rows = (out_dir / "ablation.csv").read_text().splitlines()[1:]
    table = {}
    for line in rows:
        variant, params, top1, latency = line.split(",")
        table[variant] = (int(params), float(top1), float(latency))
    aggs = {k.split("=")[1]: v for k, v in table.items() if k.startswith("aggregator=")}
    fusions = {k.split("=")[1]: v for k, v in table.items() if k.startswith("fusion=")}

    complete = set(aggs) == set(M.AGGREGATORS) and {"mean", "linear"} <= set(fusions)
    params_ok = (
        aggs["linear"][0] < aggs["gcn_rule"][0] == aggs["gcn_rule_knn"][0]
        and aggs["gcn_rule_knn"][0] < min(aggs["ssm"][0], aggs["mvgmn"][0])
    )
    accuracies_reported = all(0.0 <= v[1] <= 1.0 for v in table.values())
    ok = code == 0 and complete and params_ok and accuracies_reported
    _report(
        "criterion 7 (ablation ladder structure)",
        ok,
        f"{len(aggs)} aggregator rows + {len(fusions)} fusion rows; params "
        f"linear {aggs['linear'][0]} < gcn {aggs['gcn_rule'][0]} = "
        f"{aggs['gcn_rule_knn'][0]} < ssm-bearing {min(aggs['ssm'][0], aggs['mvgmn'][0])}",
    )


# criterion 8 -----------------------------------------------------------------


def test_criterion_8_determinism_and_format(tmp_path):
    spec = D.SyntheticSpec(
        views=2, time_steps=4, patches=2, rgb_dim=8, sk_dim=6, n_classes=3,
        n_subjects=4, samples_per_class=12, noise_sigma=0.2, seed=21, latent_dim=6,
    )
    D.generate_synthetic(spec, tmp_path / "a")
    D.generate_synthetic(spec, tmp_path / "b")
    gen_ok = D.dataset_digest(tmp_path / "a") == D.dataset_digest(tmp_path / "b")

    dataset = D.load_dataset(tmp_path / "a" / "manifest.json")
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    splits = D.make_splits(manifest, "cross_subject")
    cfg = TR.TrainConfig(max_epochs=2, batch_size=12, seed=4)
    ckpts = []
    for tag in ("x", "y"):
        state = M.init_state(
            M.config_for_dataset(spec, width=8, n_blocks=2, knn_k=2, state_dim=4), seed=4
        )
        TR.train_loop(state, dataset, splits, cfg)
        path = tmp_path / f"ckpt_{tag}.mvgc"
        M.save_checkpoint(path, state)
        ckpts.append(path.read_bytes())
    train_ok = ckpts[0] == ckpts[1]

    rng = np.random.default_rng(0)
    file_ok = True
    for trial in range(25):
        arr = rng.standard_normal((3, 5)).astype(np.float32 if trial % 2 else np.float64)
        D.write_feature_file(tmp_path / "t.mvgf", arr)
        back = D.read_feature_file(tmp_path / "t.mvgf")
        file_ok &= back.tobytes() == arr.tobytes() and back.dtype == arr.dtype

    ok = gen_ok and train_ok and file_ok
    _report(
        "criterion 8 (determinism and format)",
        ok,
        f"dataset digests equal: {gen_ok}; checkpoints byte-identical: {train_ok}; "
        f"feature files bitwise: {file_ok}",
    )
