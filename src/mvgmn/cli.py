"""Command-line driver: data generation, training, ablation, benchmarks.

Configuration precedence is defaults < JSON config file < command-line flags.
Config files use flat dotted keys ("model.knn_k", "train.batch_size",
"data.noise_sigma"); unknown keys are errors. All outputs land under --out.

Exit codes: 0 success, 1 validation error (bad flags, config, or input
files), 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import data as data_mod
from . import model as model_mod
from . import train as train_mod
from .errors import (
    ConfigurationError,
    DimensionError,
    FormatError,
    InputError,
    MvgmnError,
)
from .tensor import scope

_MODEL_KEYS = {f.name for f in dataclasses.fields(model_mod.ModelConfig)} - set(
    model_mod.DATASET_FIELDS
)
_DATA_KEYS = {f.name for f in dataclasses.fields(data_mod.SyntheticSpec)}
_TRAIN_KEYS = {f.name for f in dataclasses.fields(train_mod.TrainConfig)}


class _UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(message, self)


def _load_config_file(path) -> dict[str, object]:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise InputError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise FormatError(f"config file {path} is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise FormatError(f"config file {path} must hold a JSON object")
    for key in raw:
        section, _, field = key.partition(".")
        known = {"data": _DATA_KEYS, "model": _MODEL_KEYS, "train": _TRAIN_KEYS}.get(section)
        if known is None or field not in known:
            raise ConfigurationError(f"unknown config key {key!r}")
    return raw


def _merged(args) -> dict[str, object]:
    """defaults < config file < flags, as a flat dotted-key dict.

    A config flag's argparse ``dest`` is its dotted key.
    """
    merged: dict[str, object] = {}
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
    for key, value in vars(args).items():
        if "." in key and value is not None:
            merged[key] = value
    return merged


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--aggregator", dest="model.aggregator", choices=model_mod.AGGREGATORS)
    p.add_argument("--scan-mode", dest="model.scan_mode",
                   choices=sorted(model_mod.SCAN_MODES))
    p.add_argument("--blocks", dest="model.n_blocks", type=int)
    p.add_argument("--knn-k", dest="model.knn_k", type=int)
    p.add_argument("--fusion", dest="model.fusion_mode", choices=model_mod.FUSION_MODES)
    p.add_argument("--width", dest="model.width", type=int)
    p.add_argument("--state-dim", dest="model.state_dim", type=int)


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--batch", dest="train.batch_size", type=int)
    p.add_argument("--epochs", dest="train.max_epochs", type=int)
    p.add_argument("--lr", dest="train.lr0", type=float)
    p.add_argument("--protocol", dest="train.protocol", choices=data_mod.PROTOCOLS)


def build_parser() -> _Parser:
    parser = _Parser(prog="mvgmn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", dest="data.seed", type=int)
    p.add_argument("--classes", dest="data.n_classes", type=int)
    p.add_argument("--samples-per-class", dest="data.samples_per_class", type=int)
    p.add_argument("--views", dest="data.views", type=int)
    p.add_argument("--time-steps", dest="data.time_steps", type=int)
    p.add_argument("--subjects", dest="data.n_subjects", type=int)
    p.add_argument("--sigma", dest="data.noise_sigma", type=float)
    p.add_argument("--patches", dest="data.patches", type=int)

    p = sub.add_parser("train", help="train on a dataset and write a checkpoint")
    p.add_argument("--data", required=True, help="path to manifest.json")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", dest="train.seed", type=int)
    _add_model_flags(p)
    _add_train_flags(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--protocol", choices=data_mod.PROTOCOLS, default="cross_subject")
    p.add_argument("--batch", type=int, default=64)

    p = sub.add_parser("ablate", help="run the aggregator and/or fusion ladders")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ladder", choices=("aggregator", "fusion", "both"), default="both")
    p.add_argument("--config")
    p.add_argument("--seed", dest="train.seed", type=int)
    _add_model_flags(p)
    _add_train_flags(p)

    p = sub.add_parser("bench", help="forward-latency scaling sweep")
    p.add_argument("--out", required=True)
    p.add_argument("--aggregators", default="ssm,attention")
    p.add_argument("--lengths", default=",".join(str(x) for x in bench_mod.DEFAULT_LENGTHS))
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--repeats", type=int, default=5)

    p = sub.add_parser("inspect-graph", help="dump one block's edge sets as JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--sample", required=True, help="sample id from the manifest")
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--config")
    p.add_argument("--seed", dest="train.seed", type=int)
    _add_model_flags(p)
    return parser


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    spec = data_mod.SyntheticSpec(**scope(_merged(args), "data"))
    out = _out_dir(args)
    manifest = data_mod.generate_synthetic(spec, out)
    digest = data_mod.dataset_digest(out)
    print(json.dumps({"samples": len(manifest["samples"]), "digest": digest,
                      "manifest": str(out / "manifest.json")}))
    return 0


def _prepare_training(args):
    merged = _merged(args)
    dataset = data_mod.load_dataset(args.data)
    train_cfg = train_mod.TrainConfig(**scope(merged, "train"))
    model_cfg = model_mod.config_for_dataset(dataset.spec, **scope(merged, "model"))
    manifest = json.loads(Path(args.data).read_text())
    splits = data_mod.make_splits(manifest, train_cfg.protocol)
    return dataset, splits, model_cfg, train_cfg


def _cmd_train(args) -> int:
    dataset, splits, model_cfg, train_cfg = _prepare_training(args)
    out = _out_dir(args)
    state = model_mod.init_state(model_cfg, seed=train_cfg.seed)
    print(f"parameters: {model_mod.count_parameters(state)}")
    log_path = out / "trainlog.jsonl"
    log_path.write_text("")
    state, log = train_mod.train_loop(
        state,
        dataset,
        splits,
        train_cfg,
        log_path=log_path,
        progress=lambda r: print(
            f"epoch {r.epoch}: loss {r.loss:.4f} top1 {r.top1:.4f} lr {r.lr:.6f}"
        ),
    )
    ckpt = out / "checkpoint.mvgc"
    model_mod.save_checkpoint(ckpt, state)
    final = log.rows[-1]
    print(json.dumps({"checkpoint": str(ckpt), "top1": final.top1,
                      "parameters": model_mod.count_parameters(state)}))
    return 0


def _cmd_eval(args) -> int:
    state = model_mod.load_checkpoint(args.checkpoint)
    dataset = data_mod.load_dataset(args.data)
    manifest = json.loads(Path(args.data).read_text())
    splits = data_mod.make_splits(manifest, args.protocol)
    top1 = train_mod.evaluate(
        state,
        dataset,
        dataset.index_of(splits.test_ids),
        batch_size=args.batch,
        mask_view=splits.masked_view,
    )
    print(json.dumps({"protocol": args.protocol, "top1": top1,
                      "n_test": len(splits.test_ids)}))
    return 0


def _cmd_ablate(args) -> int:
    dataset, splits, base_cfg, train_cfg = _prepare_training(args)
    out = _out_dir(args)
    variants: list[tuple[str, model_mod.ModelConfig]] = []
    if args.ladder in ("aggregator", "both"):
        for agg in model_mod.AGGREGATORS:
            variants.append(
                (f"aggregator={agg}", dataclasses.replace(base_cfg, aggregator=agg))
            )
    if args.ladder in ("fusion", "both"):
        for mode in model_mod.FUSION_MODES:
            variants.append(
                (f"fusion={mode}", dataclasses.replace(base_cfg, fusion_mode=mode))
            )
    rgb, sk = dataset.rgb[:1], dataset.sk[:1]  # single-sample latency input
    results: dict[model_mod.ModelConfig, dict] = {}  # variants with one config train once
    rows = []
    for name, cfg in variants:
        if cfg not in results:
            state = model_mod.init_state(cfg, seed=train_cfg.seed)
            params = model_mod.count_parameters(state)
            state, log = train_mod.train_loop(state, dataset, splits, train_cfg)
            latency = bench_mod.median_call_ns(
                [lambda: model_mod.forward_batch(state, rgb, sk)], repeats=5
            )[0] / 1e6
            results[cfg] = {"params": params, "top1": round(log.rows[-1].top1, 4),
                            "latency_ms": round(latency, 3)}
        row = {"variant": name, **results[cfg]}
        rows.append(row)
        print(f"{name:32s} params {row['params']:>10d} top1 {row['top1']:.4f} "
              f"latency {row['latency_ms']:.2f} ms")
    table = out / "ablation.csv"
    with open(table, "w") as f:
        f.write("variant,params,top1,latency_ms\n")
        for r in rows:
            f.write(f"{r['variant']},{r['params']},{r['top1']},{r['latency_ms']}\n")
    print(json.dumps({"table": str(table), "rows": rows}))
    return 0


def _cmd_bench(args) -> int:
    out = _out_dir(args)
    aggregators = tuple(a for a in args.aggregators.split(",") if a)
    try:
        lengths = tuple(int(x) for x in args.lengths.split(",") if x)
    except ValueError:
        raise ConfigurationError(
            f"--lengths must be comma-separated integers, got {args.lengths!r}"
        ) from None
    records = bench_mod.run_scaling_bench(
        aggregators=aggregators, lengths=lengths, width=args.width, repeats=args.repeats
    )
    summary = bench_mod.summarize(records)
    (out / "bench.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(json.dumps(summary["slopes"], sort_keys=True))
    return 0


def _cmd_inspect_graph(args) -> int:
    dataset = data_mod.load_dataset(args.data)
    if args.checkpoint:
        state = model_mod.load_checkpoint(args.checkpoint)
    else:
        merged = _merged(args)
        cfg = model_mod.config_for_dataset(dataset.spec, **scope(merged, "model"))
        state = model_mod.init_state(cfg, seed=merged.get("train.seed", 0))
    try:
        index = dataset.ids.index(args.sample)
    except ValueError:
        raise InputError(f"sample id {args.sample!r} not in dataset") from None
    time_mask, view_mask, nbrs = model_mod.inspect_graph(
        state, dataset.rgb[index : index + 1], dataset.sk[index : index + 1], args.block
    )
    print(json.dumps({
        "n": len(time_mask),
        "rule_time": np.argwhere(np.triu(time_mask)).tolist(),
        "rule_view": np.argwhere(np.triu(view_mask)).tolist(),
        "knn": sorted([i, int(j)] for i, row in enumerate(nbrs) for j in row),
    }))
    return 0


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "bench": _cmd_bench,
    "inspect-graph": _cmd_inspect_graph,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as err:
        err.parser.print_usage(sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ConfigurationError, InputError, FormatError, DimensionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (MvgmnError, OSError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
