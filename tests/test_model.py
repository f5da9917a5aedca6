import hashlib
import re
from dataclasses import asdict

import numpy as np
import pytest

import mvgmn
from mvgmn import data as D
from mvgmn import graph as G
from mvgmn import model as M
from mvgmn import tensor as T
from mvgmn import train as TR
from mvgmn.errors import ConfigurationError, FormatError, InputError
from mvgmn.rng import Xoshiro256pp
from mvgmn.tensor import Tensor
from gradcheck import check_gradients


def tiny_config(**overrides):
    base = dict(
        views=2,
        time_steps=2,
        width=4,
        n_classes=3,
        rgb_dim=3,
        sk_dim=2,
        patches=2,
        n_blocks=2,
        knn_k=1,
        attn_dim=2,
        state_dim=2,
    )
    base.update(overrides)
    return M.ModelConfig(**base)


def tiny_inputs(cfg, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    rgb = rng.standard_normal(
        (batch, cfg.views, cfg.time_steps, cfg.patches, cfg.rgb_dim)
    )
    sk = rng.standard_normal((batch, cfg.views, 2 * cfg.time_steps, cfg.sk_dim))
    return rgb, sk


# ---------------------------------------------------------------------------
# config and schedule
# ---------------------------------------------------------------------------


def test_block_schedule_view_time():
    assert M.block_schedule(2, "view_time") == ["view_forward", "time_forward"]
    assert M.block_schedule(4, "view_time") == [
        "view_forward", "view_backward", "time_forward", "time_backward",
    ]
    assert M.block_schedule(8, "view_time") == M.block_schedule(4, "view_time") * 2
    assert len(M.block_schedule(12, "view_time")) == 12


def test_block_schedule_single_axis_modes():
    assert M.block_schedule(4, "view_prioritized") == [
        "view_forward", "view_backward", "view_forward", "view_backward",
    ]
    assert M.block_schedule(2, "time_prioritized") == ["time_forward", "time_backward"]


def test_block_schedule_rejects_unsupported_counts():
    with pytest.raises(ConfigurationError):
        tiny_config(n_blocks=3)
    with pytest.raises(ConfigurationError):
        tiny_config(n_blocks=6)


def test_build_aggregator_layouts():
    def unit_groups(aggregator):
        names = M.init_state(tiny_config(aggregator=aggregator)).params
        return {k.split(".")[1] for k in names if k.startswith("unit00.")}

    assert unit_groups("mvgmn") == {"scan", "gcn"}
    assert unit_groups("gcn_rule") == {"mix", "gcn"}
    assert unit_groups("attention") == {"attn"}


def test_config_validation():
    with pytest.raises(ConfigurationError):
        tiny_config(aggregator="transformer")
    with pytest.raises(ConfigurationError):
        tiny_config(knn_k=0)
    with pytest.raises(ConfigurationError):
        tiny_config(knn_k=4)  # 2x2 grid has only 3 neighbors
    with pytest.raises(ConfigurationError):
        tiny_config(n_classes=1)
    # non-knn aggregators do not cap k against the grid
    tiny_config(knn_k=9, aggregator="ssm")


@pytest.mark.parametrize(
    "make, field, value, message",
    [(tiny_config, "scan_mode", ["x"], "scan_mode must be a string, got ['x']"),
     (tiny_config, "aggregator", 5, "aggregator must be a string, got 5"),
     (tiny_config, "width", True, "width must be an integer, got True"),
     (tiny_config, "state_dim", 0, "state_dim must be at least 1, got 0"),
     (tiny_config, "knn_k", -1, "knn_k must be at least 1, got -1"),
     (D.SyntheticSpec, "latent_dim", 0, "latent_dim must be at least 1, got 0"),
     (D.SyntheticSpec, "noise_sigma", False, "noise_sigma must be a number, got False"),
     (TR.TrainConfig, "patience", 0, "patience must be at least 1, got 0"),
     (TR.TrainConfig, "protocol", None, "protocol must be a string, got None"),
     (TR.TrainConfig, "lr0", "fast", "lr0 must be a number, got 'fast'"),
     (TR.TrainConfig, "lr0", float("nan"), "lr0 must be a finite number, got nan"),
     (TR.TrainConfig, "lr0", float("inf"), "lr0 must be a finite number, got inf"),
     (D.SyntheticSpec, "noise_sigma", float("nan"), "noise_sigma must be a finite number, got nan"),
     (D.SyntheticSpec, "noise_sigma", float("inf"), "noise_sigma must be a finite number, got inf")],
)
def test_config_fields_checked_by_declared_type(make, field, value, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        make(**{field: value})


def test_config_fields_accept_their_declared_types():
    # seed is the one integer that may be below 1; a float field takes an int
    D.SyntheticSpec(seed=-3, noise_sigma=0)
    TR.TrainConfig(seed=0, lr0=np.float64(0.01))
    tiny_config(scan_mode=np.str_("time_prioritized"))


# ---------------------------------------------------------------------------
# forward contracts
# ---------------------------------------------------------------------------


def test_logits_shape_and_determinism():
    cfg = tiny_config()
    state = M.init_state(cfg, seed=1)
    rgb, sk = tiny_inputs(cfg)
    out1 = M.forward_batch(state, rgb, sk).data
    out2 = M.forward_batch(state, rgb, sk).data
    assert out1.shape == (2, 3)
    assert out1.tobytes() == out2.tobytes()  # bitwise identical


def test_forward_grid_single_sample_shape():
    cfg = tiny_config()
    state = M.init_state(cfg, seed=2)
    grid = Tensor(np.random.default_rng(0).standard_normal((1, 4, 4)).astype(np.float32))
    assert M.forward_grid_batch(state, grid).shape == (1, 3)


def test_vertex_permutation_leaves_gap_logits_unchanged():
    # the linear aggregator is permutation-equivariant, so a consistent vertex
    # permutation changes both pooled operands identically
    cfg = tiny_config(aggregator="linear", views=2, time_steps=3, knn_k=1)
    state = M.init_state(cfg, seed=3)
    values = np.random.default_rng(1).standard_normal((1, 6, 4)).astype(np.float32)
    logits = M.forward_grid_batch(state, Tensor(values)).data
    perm = np.random.default_rng(2).permutation(6)
    logits_p = M.forward_grid_batch(state, Tensor(values[:, perm])).data
    np.testing.assert_allclose(logits, logits_p, atol=1e-5)


def test_linear_aggregator_has_no_cross_vertex_mixing():
    cfg = tiny_config(aggregator="linear")
    state = M.init_state(cfg, seed=4)
    values = np.random.default_rng(3).standard_normal((1, 4, 4)).astype(np.float32)
    bumped = values.copy()
    bumped[0, 2] += 1.0
    x0 = Tensor(values)
    x1 = Tensor(bumped)
    for unit, direction in enumerate(state.schedule):
        x0 = M._apply_unit(state, unit, direction, x0)
        x1 = M._apply_unit(state, unit, direction, x1)
    diff = np.abs(x0.data - x1.data)[0]
    assert diff[2].max() > 0
    assert diff[[0, 1, 3]].max() == 0.0


def test_scan_modes_differ_with_shared_weights():
    cfg_v = tiny_config(aggregator="ssm", scan_mode="view_prioritized")
    cfg_t = tiny_config(aggregator="ssm", scan_mode="time_prioritized")
    state_v = M.init_state(cfg_v, seed=5)
    state_t = M.init_state(cfg_t, seed=5)
    for a, b in zip(state_v.params.values(), state_t.params.values()):
        np.testing.assert_array_equal(a.data, b.data)  # identical weights
    values = Tensor(np.random.default_rng(4).standard_normal((1, 4, 4)).astype(np.float32))
    out_v = M.forward_grid_batch(state_v, values).data
    out_t = M.forward_grid_batch(state_t, values).data
    assert not np.allclose(out_v, out_t)


def test_masked_view_produces_zero_fused_rows():
    for mode in ("cross_attention", "mean", "linear"):
        cfg = tiny_config(fusion_mode=mode, views=3, knn_k=1)
        state = M.init_state(cfg, seed=6)
        rgb, sk = tiny_inputs(cfg)
        fused = M.fuse_batch(state, rgb, sk, mask_view=2).data
        grid = fused.reshape(2, 3, cfg.time_steps, cfg.width)
        assert np.all(grid[:, 2] == 0.0)
        assert np.any(grid[:, 0] != 0.0)


@pytest.mark.parametrize("mask_view", [None, 1])
@pytest.mark.parametrize("fusion_mode", M.FUSION_MODES)
@pytest.mark.parametrize("aggregator", M.AGGREGATORS)
def test_batched_forward_matches_per_sample(aggregator, fusion_mode, mask_view):
    # sample 1 has an all-zero view, so its graph alone takes the zero-norm
    # fallback; sample 2 has identical views, so its similarities tie exactly
    cfg = tiny_config(aggregator=aggregator, fusion_mode=fusion_mode)
    rgb, sk = tiny_inputs(cfg, batch=4, seed=11)
    rgb[1, 0] = 0.0
    sk[1, 0] = 0.0
    rgb[2, 1] = rgb[2, 0]
    sk[2, 1] = sk[2, 0]
    for dtype, tol in ((np.float64, dict(rtol=1e-12, atol=1e-12)),
                       (np.float32, dict(rtol=1e-4, atol=1e-5))):
        state = M.init_state(cfg, seed=12, dtype=dtype)
        fused = M.fuse_batch(state, rgb, sk, mask_view).data
        norms = np.linalg.norm(fused.reshape(4, cfg.views, cfg.time_steps, cfg.width), axis=-1)
        assert np.all(norms[1, 0] == 0.0)
        assert np.all(norms[[0, 2, 3], 0] > 0.0)
        batched = M.forward_batch(state, rgb, sk, mask_view).data
        for i in range(4):
            single = M.forward_batch(state, rgb[i : i + 1], sk[i : i + 1], mask_view).data
            np.testing.assert_allclose(batched[i], single[0], **tol)


def test_fuse_batch_rejects_mismatched_dims():
    cfg = tiny_config()
    state = M.init_state(cfg, seed=7)
    rgb, sk = tiny_inputs(cfg)
    with pytest.raises(ConfigurationError):
        M.fuse_batch(state, rgb[:, :, :, :, :2], sk)
    with pytest.raises(ConfigurationError):
        M.fuse_batch(state, rgb, sk, mask_view=5)


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------


def test_single_linear_map_parameter_count():
    cfg = tiny_config(aggregator="linear")
    state = M.init_state(cfg, seed=8)
    w = state.params["unit00.mix.weight"]
    b = state.params["unit00.mix.bias"]
    assert w.size + b.size == cfg.width * cfg.width + cfg.width


def test_mvgmn_minus_ssm_is_exactly_the_gcn_parameters():
    kwargs = dict(views=3, time_steps=4, width=8, n_classes=5, n_blocks=4)
    n_mvgmn = M.count_parameters(M.init_state(tiny_config(aggregator="mvgmn", **kwargs)))
    n_ssm = M.count_parameters(M.init_state(tiny_config(aggregator="ssm", **kwargs)))
    gcn_params = 4 * 1 * 8 * 8  # n_blocks * layers * D * D, no bias
    assert n_mvgmn - n_ssm == gcn_params


def test_parameter_ladder_ordering():
    kwargs = dict(views=3, time_steps=4, width=8, n_classes=5, n_blocks=4, knn_k=3)
    counts = {
        agg: M.count_parameters(M.init_state(tiny_config(aggregator=agg, **kwargs)))
        for agg in M.AGGREGATORS
    }
    assert counts["linear"] < counts["gcn_rule"] == counts["gcn_rule_knn"]
    ssm_bearing = min(counts["ssm"], counts["mvgmn"])
    assert counts["gcn_rule_knn"] < ssm_bearing
    assert counts["gcn_rule_knn"] < counts["attention"] < counts["attention_graph"]
    assert counts["ssm"] < counts["mvgmn"]


# ---------------------------------------------------------------------------
# gradients end to end
# ---------------------------------------------------------------------------


def test_end_to_end_gradients_subset():
    cfg = tiny_config()
    state = M.init_state(cfg, seed=9, dtype=np.float64)
    rgb, sk = tiny_inputs(cfg, batch=1, seed=10)
    labels = np.array([1])

    def loss():
        logits = M.forward_batch(state, rgb, sk)
        return T.softmax_cross_entropy(logits, labels)

    probe = [
        state.params["fusion.w_query"],
        state.params["unit00.scan.mamba.ssm.a_log"],
        state.params["unit00.scan.conv_kernel"],
        state.params["unit01.gcn.weight"],
        state.params["head.weight"],
    ]
    assert check_gradients(loss, probe, h=1e-5) < 1e-4


def test_end_to_end_gradients_every_parameter_at_batch_two():
    # the scan backward reduces the state-matrix gradient over the batch
    cfg = tiny_config(aggregator="mvgmn")
    state = M.init_state(cfg, seed=9, dtype=np.float64)
    rgb, sk = tiny_inputs(cfg, batch=2, seed=10)
    labels = np.array([1, 2])

    def loss():
        logits = M.forward_batch(state, rgb, sk)
        return T.softmax_cross_entropy(logits, labels)

    assert check_gradients(loss, list(state.params.values()), h=1e-5) < 1e-4


@pytest.mark.parametrize(
    "config, digest",
    [
        (tiny_config(), "57189ba2a153ede163cadde74a70a05ce059b49080491e81361c49377bed3a1f"),
        (
            M.config_for_dataset(D.SyntheticSpec()),
            "51e505c1de6ebe2ebcbc9aa9bd7f18462c93a6414dba240b762e86619c89cd05",
        ),
    ],
    ids=["tiny", "default_recipe"],
)
def test_init_state_bytes_are_pinned(config, digest):
    h = hashlib.sha256()
    for name, t in M.init_state(config, seed=0).params.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    assert h.hexdigest() == digest


# ---------------------------------------------------------------------------
# checkpoints and inspection
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_config()
    state = M.init_state(cfg, seed=11)
    path = tmp_path / "model.mvgc"
    M.save_checkpoint(path, state)
    loaded = M.load_checkpoint(path)
    assert loaded.config == cfg
    assert list(loaded.params) == list(state.params)
    for k in state.params:
        assert loaded.params[k].data.tobytes() == state.params[k].data.tobytes()
    rgb, sk = tiny_inputs(cfg)
    np.testing.assert_array_equal(
        M.forward_batch(loaded, rgb, sk).data, M.forward_batch(state, rgb, sk).data
    )
    M.save_checkpoint(tmp_path / "again.mvgc", loaded)
    assert (tmp_path / "again.mvgc").read_bytes() == path.read_bytes()


_THIS_VERSION = f"this is mvgmn {mvgmn.__version__}"


@pytest.mark.parametrize(
    "case, match",
    [("unknown_config_key", "dropout"), ("v0_1_config_key", "head_gain"),
     ("missing_tensor", "head.bias"), ("wrong_shape", "head.bias"),
     ("float_width", "width must be an integer"),
     # these messages name the package's version: an id from the case alone
     # stays put when the version changes
     pytest.param("no_version", f"a version before 0.3.0; {_THIS_VERSION}", id="no_version"),
     pytest.param("v0_2_version", f"version 0.2.0; {_THIS_VERSION}", id="v0_2_version"),
     pytest.param("v0_3_version", f"version 0.3.0; {_THIS_VERSION}", id="v0_3_version"),
     pytest.param("v0_4_version", f"version 0.4.0; {_THIS_VERSION}", id="v0_4_version"),
     pytest.param("v0_5_version", f"version 0.5.0; {_THIS_VERSION}", id="v0_5_version"),
     pytest.param("v0_6_version", f"version 0.6.0; {_THIS_VERSION}", id="v0_6_version")],
)
def test_checkpoint_must_fit_its_config(tmp_path, case, match):
    state = M.init_state(tiny_config(), seed=14)
    meta = {"kind": "mvgmn-checkpoint", "version": mvgmn.__version__}
    config = asdict(state.config)
    tensors = {k: t.data for k, t in state.params.items()}
    if case == "no_version":
        del meta["version"]
    elif case == "v0_2_version":
        meta["version"] = "0.2.0"
    elif case == "v0_3_version":
        meta["version"] = "0.3.0"
    elif case == "v0_4_version":
        meta["version"] = "0.4.0"
    elif case == "v0_5_version":
        meta["version"] = "0.5.0"
    elif case == "v0_6_version":
        meta["version"] = "0.6.0"
    elif case == "unknown_config_key":
        config["dropout"] = 0.1
    elif case == "v0_1_config_key":  # a field that version 0.1.0 checkpoints carry
        config["head_gain"] = 10.0
    elif case == "float_width":
        config["width"] = float(config["width"])
    elif case == "missing_tensor":
        del tensors["head.bias"]
    else:
        tensors["head.bias"] = np.zeros(4, dtype=np.float32)
    path = tmp_path / "bad.mvgc"
    D.write_tensor_container(path, {**meta, "config": config}, tensors)
    error = ConfigurationError if case == "float_width" else FormatError
    with pytest.raises(error, match=match):
        M.load_checkpoint(path)


def test_load_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    state = M.init_state(tiny_config(), seed=15)
    path = tmp_path / "model.mvgc"
    M.save_checkpoint(path, state)

    def no_draws(self, count):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(Xoshiro256pp, "normals", no_draws)
    loaded = M.load_checkpoint(path)
    assert list(loaded.params) == list(state.params)


def test_inspect_graph_returns_unit_graph():
    cfg = tiny_config()
    state = M.init_state(cfg, seed=12)
    rgb, sk = tiny_inputs(cfg)
    time_mask, view_mask, nbrs = M.inspect_graph(state, rgb, sk, block_index=1)
    assert time_mask.shape == view_mask.shape == (4, 4)
    assert nbrs.shape == (4, 1)  # one out-edge per vertex at k=1
    assert time_mask.any() and view_mask.any()
    with pytest.raises(InputError):
        M.inspect_graph(state, rgb, sk, block_index=7)
    lin = M.init_state(tiny_config(aggregator="linear"), seed=13)
    with pytest.raises(InputError):
        M.inspect_graph(lin, rgb, sk, block_index=0)


@pytest.mark.parametrize("aggregator", ["mvgmn", "attention_graph"])
def test_inspect_graph_reports_the_forward_graph(aggregator, monkeypatch):
    cfg = tiny_config(aggregator=aggregator, time_steps=3, knn_k=2)
    state = M.init_state(cfg, seed=16)
    rgb, sk = tiny_inputs(cfg, batch=1)
    built = []
    knn_edges = G.knn_edges

    def recording(x, k):
        built.append(knn_edges(x, k))
        return built[-1]

    monkeypatch.setattr(G, "knn_edges", recording)
    M.forward_batch(state, rgb, sk)
    monkeypatch.undo()
    assert len(built) == len(state.schedule)
    for unit, nbrs in enumerate(built):
        got = M.inspect_graph(state, rgb, sk, block_index=unit)[2]
        np.testing.assert_array_equal(got, nbrs[0])
