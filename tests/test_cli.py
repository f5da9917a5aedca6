import json
import os
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

import mvgmn
from mvgmn import data as D
from mvgmn import model as model_mod
from mvgmn import train as train_mod
from mvgmn.cli import build_parser, main


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


@pytest.mark.parametrize(
    "command, key, value",
    [("train", "model.width", 8.0), ("train", "train.batch_size", 2.0),
     ("train", "train.lr0", "fast"), ("gen-data", "data.views", 2.0),
     ("train", "model.scan_mode", ["x"])],
)
def test_config_value_of_wrong_type_rejected(dataset_dir, tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    data = ["--data", str(dataset_dir / "manifest.json")] if command == "train" else []
    code = main([command, *data, "--out", str(tmp_path / "r"), "--config", str(cfg)])
    assert code == 1
    assert key.partition(".")[2] in capsys.readouterr().err


# besides a made-up key, settings that version 0.1.0 had and 0.2.0 fixes
@pytest.mark.parametrize(
    "key", ["model.banana", "model.head_gain", "model.gcn_layers_per_block", "train.plateau_factor"]
)
def test_unknown_config_key_rejected(dataset_dir, tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    code = main([
        "train", "--data", str(dataset_dir / "manifest.json"),
        "--out", str(tmp_path / "r"), "--config", str(cfg),
    ])
    assert code == 1
    assert key in capsys.readouterr().err


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


def test_help_exits_zero_and_usage_error_exits_one(capsys):
    assert main(["--help"]) == 0
    assert "usage: mvgmn" in capsys.readouterr().out
    assert main(["bench", "--help"]) == 0
    assert "--lengths" in capsys.readouterr().out
    assert main(["bench", "--out", "/tmp/x", "--repeats", "many"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--repeats" in err and "Traceback" not in err
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_bench_small_sweep(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main([
        "bench", "--out", str(out), "--aggregators", "ssm",
        "--lengths", "64,128,256,512", "--width", "8", "--repeats", "5",
    ])
    assert code == 0
    slopes = _last_json(capsys)
    assert "ssm" in slopes
    assert (out / "bench.json").exists() and not (out / "bench.csv").exists()


def test_bench_lengths_must_be_integers(tmp_path, capsys):
    code = main(["bench", "--out", str(tmp_path / "bench"), "--lengths", "abc"])
    assert code == 1
    assert "--lengths" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, message",
    [(["--aggregators", ""], "at least one aggregator"),
     (["--lengths", ""], "at least 4 lengths"),
     (["--lengths", "8,32"], "at least 4 lengths"),
     (["--aggregators", "ssm,bogus"], "unknown aggregator 'bogus'")],
)
def test_bench_refuses_a_sweep_it_cannot_fit(tmp_path, capsys, flag, message):
    out = tmp_path / "bench"
    assert main(["bench", "--out", str(out), "--aggregators", "ssm", *flag]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "bench.json").exists()


@pytest.mark.parametrize("flag", [["--views", "4"], ["--seed", "0"]])
def test_bench_substrate_is_fixed(tmp_path, capsys, flag):
    assert main(["bench", "--out", str(tmp_path / "bench"), *flag]) == 1
    assert flag[0] in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity API")
def test_bench_restores_cpu_affinity(tmp_path, capsys):
    before = os.sched_getaffinity(0)
    assert main([
        "bench", "--out", str(tmp_path / "bad"), "--aggregators", "ssm",
        "--lengths", "8,16,32,64", "--repeats", "3",
    ]) == 1
    assert os.sched_getaffinity(0) == before
    assert main([
        "bench", "--out", str(tmp_path / "ok"), "--aggregators", "ssm",
        "--lengths", "8,16,32,64", "--width", "4", "--repeats", "5",
    ]) == 0
    assert os.sched_getaffinity(0) == before


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


def test_ablate_trains_each_distinct_config_once(dataset_dir, tmp_path, capsys, monkeypatch):
    # with the default aggregator and fusion, aggregator=mvgmn and
    # fusion=cross_attention are one ModelConfig: 10 rows, 9 models
    trained = []
    train_loop = train_mod.train_loop

    def counting_train_loop(state, *args, **kwargs):
        trained.append(state.config)
        return train_loop(state, *args, **kwargs)

    monkeypatch.setattr(train_mod, "train_loop", counting_train_loop)
    out = tmp_path / "ablate"
    code = main([
        "ablate", "--data", str(dataset_dir / "manifest.json"), "--out", str(out),
        "--ladder", "both", "--epochs", "1", "--batch", "8", "--seed", "0",
        *TINY_MODEL,
    ])
    assert code == 0
    assert len(trained) == len(set(trained)) == 9
    rows = [line.split(",") for line in (out / "ablation.csv").read_text().splitlines()]
    assert rows[0] == ["variant", "params", "top1", "latency_ms"]
    variants = [row[0] for row in rows[1:]]
    assert variants == [f"aggregator={a}" for a in model_mod.AGGREGATORS] + [
        f"fusion={m}" for m in model_mod.FUSION_MODES
    ]
    table = {row[0]: row[1:] for row in rows[1:]}
    assert table["aggregator=mvgmn"] == table["fusion=cross_attention"]


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


def test_checkpoint_with_trailing_bytes_is_validation_error(dataset_dir, tmp_path, capsys):
    cfg = model_mod.ModelConfig(views=2, time_steps=4, width=2, n_classes=3, rgb_dim=2,
                                sk_dim=2, patches=1, n_blocks=2, aggregator="linear")
    path = tmp_path / "long.mvgc"
    model_mod.save_checkpoint(path, model_mod.init_state(cfg))
    end = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"junk")
    code = main(["eval", "--checkpoint", str(path),
                 "--data", str(dataset_dir / "manifest.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"4 trailing bytes after the last tensor (at byte offset {end})" in err
    assert "Traceback" not in err


def _tiny_checkpoint(path) -> Path:
    cfg = model_mod.ModelConfig(views=2, time_steps=4, width=2, n_classes=3, rgb_dim=2,
                                sk_dim=2, patches=1, n_blocks=2, aggregator="linear")
    model_mod.save_checkpoint(path, model_mod.init_state(cfg))
    return path


def test_checkpoint_with_a_repeated_tensor_is_validation_error(dataset_dir, tmp_path, capsys):
    # Its names, as a set, still match the config's layout.
    path = _tiny_checkpoint(tmp_path / "padded.mvgc")
    meta, tensors = D.read_tensor_container(path)
    name = next(iter(tensors))
    D.write_tensor_container(tmp_path / "one.mvgc", meta, {name: tensors[name]})
    blob, one = path.read_bytes(), (tmp_path / "one.mvgc").read_bytes()
    count_at = 10 + struct.unpack_from("<I", blob, 6)[0]
    path.write_bytes(blob[:count_at] + struct.pack("<I", len(tensors) + 1)
                     + blob[count_at + 4 :] + one[count_at + 4 :])
    code = main(["eval", "--checkpoint", str(path),
                 "--data", str(dataset_dir / "manifest.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"tensor {name!r} appears twice (at byte offset {len(blob)})" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path", ["nope", "a_dir"])
@pytest.mark.parametrize("command", ["train", "config", "eval_checkpoint", "eval_data",
                                     "inspect_graph"])
def test_missing_input_file_is_validation_error(dataset_dir, tmp_path, capsys, command, path):
    data = str(dataset_dir / "manifest.json")
    ckpt = str(_tiny_checkpoint(tmp_path / "model.mvgc"))
    (tmp_path / "a_dir").mkdir()
    bad = str(tmp_path / path)
    argv = {
        "train": ["train", "--data", bad, "--out", str(tmp_path / "run")],
        "config": ["train", "--data", data, "--config", bad, "--out", str(tmp_path / "run")],
        "eval_checkpoint": ["eval", "--checkpoint", bad, "--data", data],
        "eval_data": ["eval", "--checkpoint", ckpt, "--data", bad],
        "inspect_graph": ["inspect-graph", "--data", data, "--sample", "s000003",
                          "--block", "1", "--checkpoint", bad],
    }[command]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    why = "file not found" if path == "nope" else "not a file"
    assert f"error: {why}: {bad}" in err
    assert "Traceback" not in err


def _break_manifest(manifest, case):
    if case == "not_json":
        return "{not json"
    if case == "no_spec":
        del manifest["spec"]
    elif case == "sample_without_id":
        del manifest["samples"][0]["id"]
    elif case == "sample_without_subject":
        del manifest["samples"][0]["subject"]
    else:
        manifest["spec"]["dropout"] = 0.1
    return json.dumps(manifest)


@pytest.mark.parametrize(
    "case", ["not_json", "no_spec", "sample_without_id", "sample_without_subject", "unknown_spec_key"]
)
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


def test_out_of_range_label_is_validation_error(dataset_dir, tmp_path, capsys):
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    sample = next(s for s in manifest["samples"] if s["subject"] == 0)  # a training sample
    sample["label"] = 7  # 3 classes
    bad = dataset_dir / "broken_label.json"  # beside the feature files it names
    bad.write_text(json.dumps(manifest))
    code = main(["train", "--data", str(bad), "--out", str(tmp_path / "run"),
                 "--epochs", "1", *TINY_MODEL])
    assert code == 1
    err = capsys.readouterr().err
    assert "label must be an integer in [0, 3), got 7" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, flag, value",
    [("gen-data", "--sigma", "nan"), ("train", "--lr", "inf"), ("train", "--lr", "nan")],
)
def test_non_finite_number_is_validation_error(dataset_dir, tmp_path, capsys, command, flag, value):
    data = ["--data", str(dataset_dir / "manifest.json"), *TINY_MODEL] if command == "train" else []
    code = main([command, *data, "--out", str(tmp_path / "r"), flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert f"must be a finite number, got {value}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("case", ["list_id", "duplicate_id"])
def test_bad_sample_id_is_validation_error(dataset_dir, tmp_path, capsys, case):
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    samples = manifest["samples"]
    if case == "list_id":
        samples[0]["id"] = ["x"]
    else:
        samples[1]["id"] = samples[0]["id"]
    bad = dataset_dir / f"broken_{case}.json"  # beside the feature files it names
    bad.write_text(json.dumps(manifest))
    code = main(["train", "--data", str(bad), "--out", str(tmp_path / "run"),
                 "--epochs", "1", *TINY_MODEL])
    assert code == 1
    err = capsys.readouterr().err
    assert "id must be a string no earlier sample has" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_nonpositive_thread_count_is_validation_error(dataset_dir, tmp_path, capsys,
                                                       monkeypatch, threads):
    cfg = model_mod.ModelConfig(views=2, time_steps=4, width=2, n_classes=3, rgb_dim=2,
                                sk_dim=2, patches=1, n_blocks=2, aggregator="linear")
    ckpt = tmp_path / "model.mvgc"
    model_mod.save_checkpoint(ckpt, model_mod.init_state(cfg))
    monkeypatch.setenv("MVGMN_THREADS", threads)
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_dir / "manifest.json")])
    assert code == 1
    assert f"MVGMN_THREADS must be a positive integer, got {threads!r}" in capsys.readouterr().err


@pytest.mark.parametrize("batch", ["0", "-1"])
def test_eval_batch_must_be_positive(dataset_dir, tmp_path, capsys, batch):
    cfg = model_mod.ModelConfig(views=2, time_steps=4, width=2, n_classes=3, rgb_dim=2,
                                sk_dim=2, patches=1, n_blocks=2, aggregator="linear")
    ckpt = tmp_path / "model.mvgc"
    model_mod.save_checkpoint(ckpt, model_mod.init_state(cfg))
    code = main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(dataset_dir / "manifest.json"), "--batch", batch])
    assert code == 1
    assert "batch size must be at least 1" in capsys.readouterr().err


def test_unwritable_out_is_runtime_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = main([
        "gen-data", "--out", str(blocker), "--seed", "1", "--classes", "2",
        "--samples-per-class", "2", "--subjects", "2",
    ])
    assert code == 2


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        assert tomllib.load(f)["project"]["version"] == mvgmn.__version__


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["mvgmn"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 6  # one per subcommand in the quick start
    for words in commands:
        build_parser().parse_args(words)
