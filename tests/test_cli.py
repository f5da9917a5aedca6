import json
from pathlib import Path

import numpy as np
import pytest

from mvgmn import model as model_mod
from mvgmn.cli import main


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ds")
    code = main([
        "gen-data", "--out", str(out), "--seed", "5", "--classes", "3",
        "--samples-per-class", "8", "--views", "2", "--time-steps", "4",
        "--subjects", "4", "--sigma", "0.1",
    ])
    assert code == 0
    return out


def _last_json(capsys):
    lines = [l for l in capsys.readouterr().out.strip().splitlines() if l]
    return json.loads(lines[-1])


TINY_MODEL = ["--width", "8", "--blocks", "2", "--knn-k", "2", "--state-dim", "4"]


def test_gen_data_deterministic(tmp_path, capsys):
    args = ["gen-data", "--out", None, "--seed", "7", "--classes", "2",
            "--samples-per-class", "4", "--subjects", "2"]
    digests = []
    for sub in ("a", "b"):
        args[2] = str(tmp_path / sub)
        assert main(args) == 0
        digests.append(_last_json(capsys)["digest"])
    assert digests[0] == digests[1]


def test_train_eval_round_trip(dataset_dir, tmp_path, capsys):
    run = tmp_path / "run"
    code = main([
        "train", "--data", str(dataset_dir / "manifest.json"), "--out", str(run),
        "--seed", "3", "--epochs", "2", "--batch", "8", *TINY_MODEL,
    ])
    assert code == 0
    summary = _last_json(capsys)
    assert Path(summary["checkpoint"]).exists()
    assert summary["parameters"] > 0
    log_lines = (run / "trainlog.jsonl").read_text().splitlines()
    assert len(log_lines) == 2
    assert set(json.loads(log_lines[0])) == {"epoch", "loss", "top1", "lr", "sec"}

    code = main([
        "eval", "--checkpoint", summary["checkpoint"],
        "--data", str(dataset_dir / "manifest.json"), "--protocol", "cross_subject",
    ])
    assert code == 0
    result = _last_json(capsys)
    assert 0.0 <= result["top1"] <= 1.0
    assert result["n_test"] > 0


def test_untrained_model_scores_near_chance(tmp_path, capsys):
    data = tmp_path / "chance_ds"
    assert main([
        "gen-data", "--out", str(data), "--seed", "2", "--classes", "10",
        "--samples-per-class", "40", "--subjects", "8",
    ]) == 0
    run = tmp_path / "run"
    # vanishing lr leaves the randomly initialized model untrained
    assert main([
        "train", "--data", str(data / "manifest.json"), "--out", str(run),
        "--seed", "1", "--epochs", "1", "--lr", "1e-300", *TINY_MODEL,
    ]) == 0
    ckpt = _last_json(capsys)["checkpoint"]
    assert main([
        "eval", "--checkpoint", ckpt, "--data", str(data / "manifest.json"),
    ]) == 0
    top1 = _last_json(capsys)["top1"]
    assert top1 <= 0.35  # 10 classes: chance is 0.1, binomial spread on 100 test samples


def test_config_file_precedence(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train.max_epochs": 3, "model.knn_k": 2,
                               "model.width": 8, "model.n_blocks": 2,
                               "model.state_dim": 4}))
    run = tmp_path / "run"
    code = main([
        "train", "--data", str(dataset_dir / "manifest.json"), "--out", str(run),
        "--config", str(cfg), "--epochs", "1", "--seed", "0",
    ])
    assert code == 0
    # flag --epochs 1 overrides the file's 3; file supplies the model shape
    assert len((run / "trainlog.jsonl").read_text().splitlines()) == 1


def test_unknown_config_key_rejected(dataset_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model.banana": 1}))
    code = main([
        "train", "--data", str(dataset_dir / "manifest.json"),
        "--out", str(tmp_path / "r"), "--config", str(cfg),
    ])
    assert code == 1
    assert "banana" in capsys.readouterr().err


def test_invalid_blocks_and_k_messages(dataset_dir, tmp_path, capsys):
    code = main([
        "train", "--data", str(dataset_dir / "manifest.json"),
        "--out", str(tmp_path / "r1"), "--blocks", "5", *TINY_MODEL[:2],
    ])
    assert code == 1
    assert "n_blocks" in capsys.readouterr().err
    code = main([
        "train", "--data", str(dataset_dir / "manifest.json"),
        "--out", str(tmp_path / "r2"), "--knn-k", "0", *TINY_MODEL[:2],
    ])
    assert code == 1
    assert "knn_k" in capsys.readouterr().err


def test_unknown_flag_and_subcommand_exit_one(capsys):
    assert main(["gen-data", "--out", "/tmp/x", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err
    assert main(["transmogrify"]) == 1


def test_bench_small_sweep(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main([
        "bench", "--out", str(out), "--aggregators", "ssm",
        "--lengths", "64,128,256,512", "--width", "8", "--repeats", "5",
    ])
    assert code == 0
    slopes = _last_json(capsys)
    assert "ssm" in slopes
    assert (out / "bench.csv").exists() and (out / "bench.json").exists()


def test_ablate_fusion_ladder(dataset_dir, tmp_path, capsys):
    out = tmp_path / "ablate"
    code = main([
        "ablate", "--data", str(dataset_dir / "manifest.json"), "--out", str(out),
        "--ladder", "fusion", "--epochs", "1", "--batch", "8", "--seed", "0",
        *TINY_MODEL,
    ])
    assert code == 0
    rows = (out / "ablation.csv").read_text().splitlines()
    assert rows[0] == "variant,params,top1,latency_ms"
    assert len(rows) == 4  # header + three fusion modes


def test_inspect_graph_schema(dataset_dir, capsys):
    code = main([
        "inspect-graph", "--data", str(dataset_dir / "manifest.json"),
        "--sample", "s000003", "--block", "1", "--seed", "0", *TINY_MODEL,
    ])
    assert code == 0
    payload = _last_json(capsys)
    assert set(payload) == {"n", "rule_time", "rule_view", "knn"}
    assert payload["n"] == 8  # 2 views x 4 steps
    assert len(payload["knn"]) == payload["n"] * 2  # k=2 out-edges per vertex


def test_corrupt_checkpoint_is_validation_error(dataset_dir, tmp_path, capsys):
    bad = tmp_path / "bad.mvgc"
    bad.write_bytes(b"not a checkpoint")
    code = main([
        "eval", "--checkpoint", str(bad), "--data", str(dataset_dir / "manifest.json"),
    ])
    assert code == 1


def test_truncated_checkpoint_is_validation_error(dataset_dir, tmp_path, capsys):
    cfg = model_mod.ModelConfig(views=2, time_steps=4, width=2, n_classes=3, rgb_dim=2,
                                sk_dim=2, patches=1, n_blocks=2, aggregator="linear")
    path = tmp_path / "cut.mvgc"
    model_mod.save_checkpoint(path, model_mod.init_state(cfg))
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        code = main(["eval", "--checkpoint", str(path),
                     "--data", str(dataset_dir / "manifest.json")])
        assert code == 1, f"prefix of {cut} bytes exited {code}"
    assert capsys.readouterr().err.count("error: ") == len(blob)


def _break_manifest(manifest, case):
    if case == "not_json":
        return "{not json"
    if case == "no_spec":
        del manifest["spec"]
    elif case == "sample_without_id":
        del manifest["samples"][0]["id"]
    else:
        manifest["spec"]["dropout"] = 0.1
    return json.dumps(manifest)


@pytest.mark.parametrize("case", ["not_json", "no_spec", "sample_without_id", "unknown_spec_key"])
def test_malformed_manifest_is_validation_error(dataset_dir, tmp_path, capsys, case):
    cfg = model_mod.ModelConfig(views=2, time_steps=4, width=2, n_classes=3, rgb_dim=2,
                                sk_dim=2, patches=1, n_blocks=2, aggregator="linear")
    ckpt = tmp_path / "model.mvgc"
    model_mod.save_checkpoint(ckpt, model_mod.init_state(cfg))
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    bad = dataset_dir / f"broken_{case}.json"  # beside the feature files it names
    bad.write_text(_break_manifest(manifest, case))
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(bad)])
    assert code == 1
    assert f"error: {bad}: malformed manifest" in capsys.readouterr().err


def test_unwritable_out_is_runtime_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = main([
        "gen-data", "--out", str(blocker), "--seed", "1", "--classes", "2",
        "--samples-per-class", "2", "--subjects", "2",
    ])
    assert code == 2
