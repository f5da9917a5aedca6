import json
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mvgmn import data as D
from mvgmn.cli import main
from mvgmn.errors import ConfigurationError, FormatError, InputError
from mvgmn.rng import Xoshiro256pp

SMALL = D.SyntheticSpec(
    views=2,
    time_steps=4,
    patches=2,
    rgb_dim=6,
    sk_dim=4,
    n_classes=2,
    n_subjects=4,
    samples_per_class=10,
    noise_sigma=0.0,
    seed=7,
    latent_dim=5,
)


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------


def test_round_trip_zeros_and_header_size(tmp_path):
    path = tmp_path / "t.mvgf"
    arr = np.zeros((2, 3), dtype=np.float32)
    D.write_feature_file(path, arr)
    # magic(4) + version(2) + dtype(1) + rank(4) + dims(8) + payload(24)
    assert path.stat().st_size == 19 + 24
    back = D.read_feature_file(path)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr)


def test_truncated_payload_reports_counts(tmp_path):
    path = tmp_path / "t.mvgf"
    D.write_feature_file(path, np.ones((4, 4), dtype=np.float32))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FormatError, match="expects 64 bytes, found 56"):
        D.read_feature_file(path)


def test_dims_whose_product_overflows_int64_are_rejected(tmp_path, capsys):
    # 2**31 * 2**31 * 4 elements: an int64 product wraps to 0
    header = D.MAGIC + struct.pack("<HBI3I", D.VERSION, 1, 3, 2**31, 2**31, 4)
    feature = tmp_path / "huge.mvgf"
    feature.write_bytes(header)
    with pytest.raises(FormatError, match="payload expects"):
        D.read_feature_file(feature)
    meta = b'{"kind":"mvgmn-checkpoint"}'
    ckpt = tmp_path / "huge.mvgc"
    ckpt.write_bytes(D.CONTAINER_MAGIC + struct.pack("<HI", D.VERSION, len(meta)) + meta
                     + struct.pack("<IH", 1, 1) + b"w" + header)
    with pytest.raises(FormatError, match="payload expects"):
        D.read_tensor_container(ckpt)
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "none.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "payload expects" in err and "Traceback" not in err


def test_bad_magic_and_version(tmp_path):
    path = tmp_path / "t.mvgf"
    D.write_feature_file(path, np.ones(3, dtype=np.float32))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        D.read_feature_file(path)
    assert err.value.offset == 0

    D.write_feature_file(path, np.ones(3, dtype=np.float32))
    blob = bytearray(path.read_bytes())
    blob[4] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        D.read_feature_file(path)


def test_random_round_trips_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(100):
        rank = int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(1, 5)) for _ in range(rank))
        dtype = np.float32 if trial % 2 else np.float64
        arr = rng.standard_normal(shape).astype(dtype)
        path = tmp_path / f"r{trial}.mvgf"
        D.write_feature_file(path, arr)
        back = D.read_feature_file(path)
        assert back.dtype == arr.dtype
        assert back.tobytes() == arr.tobytes()


def test_container_round_trip(tmp_path):
    path = tmp_path / "c.mvgc"
    tensors = {
        "a.w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "b.bias": np.ones(4, dtype=np.float64),
    }
    meta = {"kind": "test", "value": 3}
    D.write_tensor_container(path, meta, tensors)
    meta2, back = D.read_tensor_container(path)
    assert meta2 == meta
    assert list(back) == ["a.w", "b.bias"]
    for k in tensors:
        assert back[k].tobytes() == tensors[k].tobytes()
        assert back[k].dtype == tensors[k].dtype


def test_container_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(InputError, match="float16"):
        D.write_tensor_container(tmp_path / "c.mvgc", {}, {"h": np.ones(2, np.float16)})


def test_truncated_container_reports_offset(tmp_path):
    path = tmp_path / "c.mvgc"
    tensors = {"a.w": np.ones((2, 3), dtype=np.float32), "b": np.zeros(2)}
    D.write_tensor_container(path, {"kind": "test"}, tensors)
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError) as err:
            D.read_tensor_container(path)
        assert 0 <= err.value.offset <= cut


def test_readers_refuse_trailing_bytes(tmp_path):
    feature = tmp_path / "t.mvgf"
    D.write_feature_file(feature, np.ones((2, 3), dtype=np.float32))
    end = feature.stat().st_size
    feature.write_bytes(feature.read_bytes() + b"junk")
    with pytest.raises(FormatError, match="4 trailing bytes after the last tensor") as err:
        D.read_feature_file(feature)
    assert err.value.offset == end

    container = tmp_path / "c.mvgc"
    tensors = {"a.w": np.ones((2, 3)), "b": np.zeros(2)}
    D.write_tensor_container(container, {"kind": "test"}, tensors)
    end = container.stat().st_size
    container.write_bytes(container.read_bytes() + b"junk")
    with pytest.raises(FormatError, match="4 trailing bytes after the last tensor") as err:
        D.read_tensor_container(container)
    assert err.value.offset == end


def test_container_refuses_a_repeated_tensor_name(tmp_path):
    container = tmp_path / "c.mvgc"
    D.write_tensor_container(container, {"kind": "test"}, {"a": np.ones(2), "b": np.zeros(3)})
    first = tmp_path / "a.mvgc"
    D.write_tensor_container(first, {"kind": "test"}, {"a": np.full(2, 7.0)})
    blob, entry = container.read_bytes(), first.read_bytes()
    count_at = 10 + struct.unpack_from("<I", blob, 6)[0]
    entry = entry[count_at + 4 :]  # the same metadata, so the same header length
    padded = blob[:count_at] + struct.pack("<I", 3) + blob[count_at + 4 :] + entry
    container.write_bytes(padded)
    with pytest.raises(FormatError, match="tensor 'a' appears twice") as err:
        D.read_tensor_container(container)
    assert err.value.offset == len(blob)


def test_missing_input_files_are_input_errors(tmp_path):
    with pytest.raises(InputError, match="file not found: .*nope.mvgc"):
        D.read_tensor_container(tmp_path / "nope.mvgc")
    with pytest.raises(InputError, match="file not found: .*manifest.json"):
        D.load_dataset(tmp_path / "manifest.json")
    manifest = _manifest(tmp_path)
    feature = tmp_path / manifest["samples"][3]["views"][1]["sk"]
    feature.unlink()
    with pytest.raises(InputError, match=re.escape(f"file not found: {feature}")):
        D.load_dataset(tmp_path / "manifest.json")
    feature.mkdir()
    with pytest.raises(InputError, match=re.escape(f"not a file: {feature}")):
        D.load_dataset(tmp_path / "manifest.json")
    with pytest.raises(InputError, match=re.escape(f"not a file: {tmp_path}")):
        D.read_tensor_container(tmp_path)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_sample_segments_one_per_frame():
    rng = Xoshiro256pp(1)
    assert D.sample_segments(8, 8, rng) == list(range(8))


def test_sample_segments_forced_ranges():
    idx = D.sample_segments(16, 8, Xoshiro256pp(2))
    for i, j in enumerate(idx):
        assert j in (2 * i, 2 * i + 1)
    assert idx == sorted(idx)


def test_sample_segments_deterministic():
    assert D.sample_segments(100, 7, Xoshiro256pp(3)) == D.sample_segments(
        100, 7, Xoshiro256pp(3)
    )


def test_sample_segments_rejects_short_input():
    with pytest.raises(InputError):
        D.sample_segments(5, 8, Xoshiro256pp(0))


def test_generator_deterministic(tmp_path):
    m1 = D.generate_synthetic(SMALL, tmp_path / "a")
    m2 = D.generate_synthetic(SMALL, tmp_path / "b")
    assert m1 == m2
    assert D.dataset_digest(tmp_path / "a") == D.dataset_digest(tmp_path / "b")
    m3 = D.generate_synthetic(replace(SMALL, seed=8), tmp_path / "c")
    assert D.dataset_digest(tmp_path / "a") != D.dataset_digest(tmp_path / "c")


def test_dataset_digest_is_pinned(tmp_path):
    # a stream that changed consistently would still reproduce its own digest
    D.generate_synthetic(D.SyntheticSpec(samples_per_class=2, seed=3), tmp_path)
    assert D.dataset_digest(tmp_path) == (
        "2df313e35bd4b00a2fdc8b48bdec6b848f8f95d84b88a90ce0e1324f8271351a"
    )


def test_manifest_schema_and_shapes(tmp_path):
    manifest = D.generate_synthetic(SMALL, tmp_path)
    assert manifest["version"] == 1
    assert len(manifest["samples"]) == 20
    sample = manifest["samples"][0]
    assert set(sample) == {"id", "label", "subject", "views"}
    assert len(sample["views"]) == SMALL.views
    rgb = D.read_feature_file(tmp_path / sample["views"][0]["rgb"])
    sk = D.read_feature_file(tmp_path / sample["views"][0]["sk"])
    assert rgb.shape == (SMALL.time_steps, SMALL.patches, SMALL.rgb_dim)
    assert sk.shape == (SMALL.sk_steps, SMALL.sk_dim)
    assert rgb.dtype == np.float32 and sk.dtype == np.float32


def test_views_unmix_to_shared_latent(tmp_path):
    D.generate_synthetic(SMALL, tmp_path)
    ds = D.load_dataset(tmp_path / "manifest.json")
    world = D.build_world(SMALL, Xoshiro256pp(SMALL.seed))
    # invert patch embedding then the orthogonal mixer, per view
    pinv = np.linalg.pinv(world.patch_maps[0])
    rgb = ds.rgb[0].astype(np.float64)  # [V, T, N_p, rgb_dim], sigma = 0
    lat1 = rgb[0, :, 0, :] @ pinv @ world.view_mixers[0].T
    lat2 = rgb[1, :, 0, :] @ pinv @ world.view_mixers[1].T
    np.testing.assert_allclose(lat1, lat2, atol=1e-6)


def test_noise_free_centroid_oracle_is_perfect(tmp_path):
    D.generate_synthetic(SMALL, tmp_path)
    ds = D.load_dataset(tmp_path / "manifest.json")
    feats = np.concatenate(
        [ds.rgb.mean(axis=(1, 2, 3)), ds.sk.mean(axis=(1, 2))], axis=1
    )
    train = (np.arange(len(ds)) // 2) % 2 == 0  # both classes on both sides
    centroids = np.stack(
        [feats[train & (ds.labels == c)].mean(axis=0) for c in range(2)]
    )
    d2 = ((feats[~train, None, :] - centroids[None]) ** 2).sum(axis=2)
    assert np.array_equal(d2.argmin(axis=1), ds.labels[~train])


def test_linear_probe_floor_on_raw_features(tmp_path):
    spec = replace(SMALL, n_classes=4, samples_per_class=12, seed=3)
    D.generate_synthetic(spec, tmp_path)
    ds = D.load_dataset(tmp_path / "manifest.json")
    feats = np.concatenate(
        [ds.rgb.mean(axis=(1, 2, 3)), ds.sk.mean(axis=(1, 2))], axis=1
    )
    feats = np.concatenate([feats, np.ones((len(ds), 1))], axis=1)
    onehot = np.eye(4)[ds.labels]
    w, *_ = np.linalg.lstsq(feats, onehot, rcond=None)
    acc = (feats @ w).argmax(axis=1) == ds.labels
    assert acc.mean() >= 0.99


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        D.SyntheticSpec(noise_sigma=-0.1)
    with pytest.raises(ConfigurationError):
        D.SyntheticSpec(n_classes=1)
    with pytest.raises(ConfigurationError):
        D.SyntheticSpec(views=0)


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def _manifest(tmp_path):
    return D.generate_synthetic(SMALL, tmp_path)


def test_cross_subject_holds_out_last_quarter(tmp_path):
    manifest = _manifest(tmp_path)
    splits = D.make_splits(manifest, "cross_subject")
    by_id = {s["id"]: s for s in manifest["samples"]}
    train_subjects = {by_id[i]["subject"] for i in splits.train_ids}
    test_subjects = {by_id[i]["subject"] for i in splits.test_ids}
    assert test_subjects == {3}  # 4 subjects -> holdout {3}
    assert train_subjects.isdisjoint(test_subjects)
    assert splits.masked_view is None


def test_splits_partition_ids(tmp_path):
    manifest = _manifest(tmp_path)
    for protocol in D.PROTOCOLS:
        splits = D.make_splits(manifest, protocol)
        all_ids = {s["id"] for s in manifest["samples"]}
        assert set(splits.train_ids) | set(splits.test_ids) == all_ids
        assert set(splits.train_ids).isdisjoint(splits.test_ids)
        assert splits.test_ids  # never empty


def test_cross_view_marks_last_view(tmp_path):
    manifest = _manifest(tmp_path)
    splits = D.make_splits(manifest, "cross_view")
    assert splits.protocol == "cross_view"
    assert splits.masked_view == SMALL.views - 1


def test_unknown_protocol(tmp_path):
    manifest = _manifest(tmp_path)
    with pytest.raises(ConfigurationError):
        D.make_splits(manifest, "cross_weather")


def test_load_dataset_round_trip(tmp_path):
    manifest = _manifest(tmp_path)
    ds = D.load_dataset(tmp_path / "manifest.json")
    assert len(ds) == 20
    assert ds.rgb.shape == (20, 2, 4, 2, 6)
    assert ds.sk.shape == (20, 2, 8, 4)
    assert ds.ids[0] == manifest["samples"][0]["id"]
    np.testing.assert_array_equal(
        ds.index_of([ds.ids[3], ds.ids[0]]), np.array([3, 0])
    )


@pytest.mark.parametrize(
    "field, value",
    [("label", 7), ("label", -1), ("label", 2.0), ("label", True), ("subject", 99)],
)
def test_load_dataset_rejects_bad_label_or_subject(tmp_path, field, value):
    spec = replace(SMALL, n_classes=3)  # 2.0 and True would pass as classes 2 and 1
    manifest = D.generate_synthetic(spec, tmp_path)
    sample = manifest["samples"][5]
    sample[field] = value
    bad = tmp_path / "bad_manifest.json"
    bad.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=f"sample {sample['id']!r}: {field} must be"):
        D.load_dataset(bad)


@pytest.mark.parametrize("case", ["list_id", "int_id", "duplicate_id"])
@pytest.mark.parametrize("reader", ["load_dataset", "make_splits"])
def test_sample_ids_must_be_distinct_strings(tmp_path, case, reader):
    manifest = D.generate_synthetic(SMALL, tmp_path)
    first = manifest["samples"][0]
    if case == "list_id":
        first["id"] = ["x"]
    elif case == "int_id":
        first["id"] = 3
    else:
        manifest["samples"][4]["id"] = first["id"]
    bad = tmp_path / "bad_manifest.json"
    bad.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="id must be a string no earlier sample has"):
        if reader == "load_dataset":
            D.load_dataset(bad)
        else:
            D.make_splits(manifest, "cross_subject")
