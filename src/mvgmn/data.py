"""Feature-file format, synthetic multi-view dataset generator, and splits.

Feature files (.mvgf) hold one little-endian row-major tensor:

    magic "MVGF" | version u16 | dtype u8 (1=f32, 2=f64) | rank u32 |
    dims rank*u32 | payload

A dataset is a directory with a ``manifest.json`` and one RGB-patch file
[T, N_p, D_rgb] plus one skeleton file [T_sk, D_sk] per (sample, view).

The generator builds each class as a latent temporal trajectory (a per-class
offset direction plus a sinusoid with class-specific frequency and phase),
mixes it per view through a fixed random orthogonal map, perturbs it per
subject, projects it through patch/skeleton embeddings, and adds Gaussian
noise. All randomness comes from one xoshiro256++ stream seeded from
``spec.seed``; the draw order below is part of the format and must not change:

    class offsets, class phases, view mixers, patch maps, skeleton map,
    subject scales, subject offsets, then per sample: subject id, segment
    sampling, per view [rgb noise, skeleton noise].
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FormatError, InputError
from .fusion import sample_segments
from .rng import Xoshiro256pp, derive_seed

MAGIC = b"MVGF"
VERSION = 1
_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODE_FOR_DTYPE = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}

_SPLIT_TAG = 0x53504C54  # "SPLT"


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------


def _tensor_block(array: np.ndarray) -> list[bytes]:
    """Header and little-endian payload of one tensor block, as byte strings."""
    arr = np.ascontiguousarray(array)
    if arr.dtype not in _CODE_FOR_DTYPE:
        raise InputError(f"unsupported dtype {arr.dtype}; use float32 or float64")
    return [
        MAGIC,
        struct.pack("<HB", VERSION, _CODE_FOR_DTYPE[arr.dtype]),
        struct.pack("<I", arr.ndim),
        struct.pack(f"<{arr.ndim}I", *arr.shape),
        arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes(),
    ]


def write_feature_file(path, array: np.ndarray) -> None:
    """Serialize one tensor; round-trips bitwise through read_feature_file."""
    block = _tensor_block(array)
    with open(path, "wb") as f:
        f.writelines(block)


def read_feature_file(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    arr, _ = _parse_tensor_block(blob, 0, str(path))
    return arr


def _unpack(fmt: str, blob: bytes, off: int, name: str, field: str) -> tuple:
    """``struct.unpack_from`` that reports a short read as a FormatError."""
    if off + struct.calcsize(fmt) > len(blob):
        raise FormatError(f"{name}: truncated {field}", offset=off)
    return struct.unpack_from(fmt, blob, off)


def _parse_tensor_block(blob: bytes, base: int, name: str) -> tuple[np.ndarray, int]:
    """Parse one tensor block starting at ``base``; returns (array, end offset)."""
    off = base
    if blob[off : off + 4] != MAGIC:
        raise FormatError(f"{name}: bad magic {blob[off:off + 4]!r}", offset=off)
    off += 4
    version, code = _unpack("<HB", blob, off, name, "header")
    if version != VERSION:
        raise FormatError(f"{name}: unsupported version {version}", offset=off)
    off += 2
    if code not in _DTYPE_CODES:
        raise FormatError(f"{name}: unknown dtype code {code}", offset=off)
    dtype = _DTYPE_CODES[code]
    off += 1
    (rank,) = _unpack("<I", blob, off, name, "rank field")
    off += 4
    dims = _unpack(f"<{rank}I", blob, off, name, "dims")
    off += 4 * rank
    count = int(np.prod(dims, dtype=np.int64)) if rank else 1
    nbytes = count * dtype.itemsize
    if off + nbytes > len(blob):
        raise FormatError(
            f"{name}: payload expects {nbytes} bytes, found {len(blob) - off}",
            offset=off,
        )
    arr = np.frombuffer(blob[off : off + nbytes], dtype=dtype).reshape(dims)
    return arr.copy(), off + nbytes


# ---------------------------------------------------------------------------
# named tensor container (checkpoints)
# ---------------------------------------------------------------------------

CONTAINER_MAGIC = b"MVGC"


def write_tensor_container(path, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    """Versioned container: JSON metadata plus named tensor blocks."""
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    parts = [
        CONTAINER_MAGIC,
        struct.pack("<H", VERSION),
        struct.pack("<I", len(meta_bytes)),
        meta_bytes,
        struct.pack("<I", len(tensors)),
    ]
    for name, arr in tensors.items():
        encoded = name.encode()
        parts += [struct.pack("<H", len(encoded)), encoded, *_tensor_block(arr)]
    with open(path, "wb") as f:
        f.writelines(parts)


def read_tensor_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        blob = f.read()
    name = str(path)
    if blob[:4] != CONTAINER_MAGIC:
        raise FormatError(f"{name}: bad container magic {blob[:4]!r}", offset=0)
    (version,) = _unpack("<H", blob, 4, name, "container version")
    if version != VERSION:
        raise FormatError(f"{name}: unsupported container version {version}", offset=4)
    (meta_len,) = _unpack("<I", blob, 6, name, "metadata length")
    (raw_meta,) = _unpack(f"<{meta_len}s", blob, 10, name, "metadata")
    try:
        meta = json.loads(raw_meta)
    except ValueError:  # bad UTF-8 or bad JSON
        raise FormatError(f"{name}: metadata is not valid JSON", offset=10) from None
    if not isinstance(meta, dict):
        raise FormatError(f"{name}: metadata is not a JSON object", offset=10)
    off = 10 + meta_len
    (count,) = _unpack("<I", blob, off, name, "tensor count")
    off += 4
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = _unpack("<H", blob, off, name, "tensor name length")
        (raw_name,) = _unpack(f"<{name_len}s", blob, off + 2, name, "tensor name")
        try:
            tensor_name = raw_name.decode()
        except UnicodeDecodeError:
            raise FormatError(f"{name}: tensor name is not UTF-8", offset=off + 2) from None
        off += 2 + name_len
        arr, off = _parse_tensor_block(blob, off, f"{name}:{tensor_name}")
        tensors[tensor_name] = arr
    return meta, tensors


# ---------------------------------------------------------------------------
# synthetic dataset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and difficulty knobs for the generated dataset."""

    views: int = 3
    time_steps: int = 8
    patches: int = 4
    rgb_dim: int = 32
    sk_dim: int = 16
    n_classes: int = 10
    n_subjects: int = 10
    samples_per_class: int = 200
    noise_sigma: float = 0.3
    seed: int = 0
    latent_dim: int = 12

    @property
    def sk_steps(self) -> int:
        return 2 * self.time_steps

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be nonnegative")
        for name in ("views", "time_steps", "patches", "rgb_dim", "sk_dim",
                     "n_subjects", "samples_per_class", "latent_dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if self.n_classes < 2:
            raise ConfigurationError("n_classes must be at least 2")


@dataclass
class GeneratorWorld:
    """Latent structure shared by every sample of one dataset."""

    class_offsets: np.ndarray  # [C, latent]
    class_freqs: np.ndarray  # [C]
    class_phases: np.ndarray  # [C]
    view_mixers: np.ndarray  # [V, latent, latent], orthogonal
    patch_maps: np.ndarray  # [N_p, latent, rgb_dim]
    skeleton_map: np.ndarray  # [latent, sk_dim]
    subject_scales: np.ndarray  # [S]
    subject_offsets: np.ndarray  # [S, latent]

    AMPLITUDE = 0.7
    FINE_GRID_FACTOR = 4


def build_world(spec: SyntheticSpec, rng: Xoshiro256pp) -> GeneratorWorld:
    """Draw the dataset-level latent structure (fixed draw order).

    Class directions are orthonormal whenever latent_dim allows it, so every
    class pair sits at the same margin; subject perturbations are kept well
    inside that margin (cross-subject generalization stays attainable).
    """
    lat = spec.latent_dim
    if spec.n_classes <= lat:
        offsets = rng.orthogonal(lat)[: spec.n_classes]
    else:
        offsets = rng.normals(spec.n_classes * lat).reshape(spec.n_classes, lat)
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
    phases = 2.0 * np.pi * rng.uniforms(spec.n_classes)
    freqs = np.arange(1, spec.n_classes + 1, dtype=np.float64)
    mixers = np.stack([rng.orthogonal(lat) for _ in range(spec.views)])
    patch_maps = rng.normals(spec.patches * lat * spec.rgb_dim).reshape(
        spec.patches, lat, spec.rgb_dim
    ) / np.sqrt(lat)
    skeleton_map = rng.normals(lat * spec.sk_dim).reshape(lat, spec.sk_dim) / np.sqrt(lat)
    scales = 1.0 + 0.05 * rng.normals(spec.n_subjects)
    sub_offsets = 0.05 * rng.normals(spec.n_subjects * lat).reshape(spec.n_subjects, lat)
    return GeneratorWorld(
        offsets, freqs, phases, mixers, patch_maps, skeleton_map, scales, sub_offsets
    )


def latent_trajectory(
    world: GeneratorWorld, label: int, subject: int, positions: np.ndarray
) -> np.ndarray:
    """Latent features [len(positions), latent] for one class and subject."""
    lat = world.class_offsets.shape[1]
    phase_grid = world.class_phases[label] + 2.0 * np.pi * np.arange(lat) / lat
    wave = np.sin(
        2.0 * np.pi * world.class_freqs[label] * positions[:, None] + phase_grid
    )
    base = world.class_offsets[label] + world.AMPLITUDE * wave
    return world.subject_scales[subject] * base + world.subject_offsets[subject]


def generate_synthetic(spec: SyntheticSpec, out_dir) -> dict:
    """Write feature files plus manifest.json under out_dir; returns manifest."""
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    rng = Xoshiro256pp(spec.seed)
    world = build_world(spec, rng)
    fine = world.FINE_GRID_FACTOR * spec.sk_steps
    ratio = spec.sk_steps // spec.time_steps

    samples = []
    total = spec.n_classes * spec.samples_per_class
    for index in range(total):
        label = index % spec.n_classes
        sample_id = f"s{index:06d}"
        subject = rng.below(spec.n_subjects)
        sk_idx = np.asarray(sample_segments(fine, spec.sk_steps, rng))
        positions = (sk_idx + 0.5) / fine
        lat = latent_trajectory(world, label, subject, positions)  # [T_sk, latent]
        rgb_lat = lat[::ratio]  # aligned instants, [T, latent]
        views = []
        for v in range(spec.views):
            mixed = lat @ world.view_mixers[v]
            mixed_rgb = rgb_lat @ world.view_mixers[v]
            rgb = np.stack(
                [mixed_rgb @ world.patch_maps[p] for p in range(spec.patches)], axis=1
            )  # [T, N_p, rgb_dim]
            rgb = rgb + spec.noise_sigma * rng.normals(rgb.size).reshape(rgb.shape)
            sk = mixed @ world.skeleton_map
            sk = sk + spec.noise_sigma * rng.normals(sk.size).reshape(sk.shape)
            rgb_path = f"features/{sample_id}_v{v}_rgb.mvgf"
            sk_path = f"features/{sample_id}_v{v}_sk.mvgf"
            write_feature_file(out / rgb_path, rgb.astype(np.float32))
            write_feature_file(out / sk_path, sk.astype(np.float32))
            views.append({"rgb": rgb_path, "sk": sk_path})
        samples.append(
            {"id": sample_id, "label": label, "subject": subject, "views": views}
        )

    manifest = {"version": 1, "spec": asdict(spec), "samples": samples}
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, sort_keys=True, separators=(",", ":"))
    return manifest


def dataset_digest(out_dir) -> str:
    """SHA-256 over the manifest and every referenced feature file."""
    out = Path(out_dir)
    h = hashlib.sha256()
    h.update((out / "manifest.json").read_bytes())
    manifest = json.loads((out / "manifest.json").read_text())
    for sample in manifest["samples"]:
        for view in sample["views"]:
            h.update((out / view["rgb"]).read_bytes())
            h.update((out / view["sk"]).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# loading and splits
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    """Manifest plus all feature tensors stacked in manifest order."""

    spec: SyntheticSpec
    ids: list[str]
    labels: np.ndarray  # [n]
    subjects: np.ndarray  # [n]
    rgb: np.ndarray  # [n, V, T, N_p, rgb_dim] float32
    sk: np.ndarray  # [n, V, T_sk, sk_dim] float32
    root: Path = field(default_factory=Path)

    def __len__(self) -> int:
        return len(self.ids)

    def index_of(self, ids: list[str]) -> np.ndarray:
        lookup = {s: i for i, s in enumerate(self.ids)}
        return np.asarray([lookup[s] for s in ids], dtype=np.intp)


def load_dataset(manifest_path) -> Dataset:
    path = Path(manifest_path)
    root = path.parent
    ids, labels, subjects, rgb_all, sk_all = [], [], [], [], []
    try:
        manifest = json.loads(path.read_text())
        spec = SyntheticSpec(**manifest["spec"])
        for sample in manifest["samples"]:
            ids.append(sample["id"])
            labels.append(sample["label"])
            subjects.append(sample["subject"])
            rgb_views, sk_views = [], []
            for view in sample["views"]:
                rgb_views.append(read_feature_file(root / view["rgb"]))
                sk_views.append(read_feature_file(root / view["sk"]))
            rgb_all.append(np.stack(rgb_views))
            sk_all.append(np.stack(sk_views))
        return Dataset(
            spec=spec,
            ids=ids,
            labels=np.asarray(labels, dtype=np.int64),
            subjects=np.asarray(subjects, dtype=np.int64),
            rgb=np.stack(rgb_all),
            sk=np.stack(sk_all),
            root=root,
        )
    except (ValueError, KeyError, TypeError) as err:  # not JSON, bad keys, mismatched shapes
        raise FormatError(f"{path}: malformed manifest: {type(err).__name__}: {err}") from None


PROTOCOLS = ("cross_subject", "cross_view")


@dataclass(frozen=True)
class Splits:
    train_ids: list[str]
    test_ids: list[str]
    protocol: str
    masked_view: int | None  # view zeroed at evaluation under cross_view


def make_splits(manifest: dict, protocol: str) -> Splits:
    """Partition sample ids for a protocol.

    cross_subject holds out the top quarter of subject ids entirely;
    cross_view keeps a seeded 25% of samples for evaluation and marks the
    last view for feature masking at test time (desk-scale analog of a
    held-out camera).
    """
    if protocol not in PROTOCOLS:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}"
        )
    spec = SyntheticSpec(**manifest["spec"])
    samples = manifest["samples"]
    if protocol == "cross_subject":
        if spec.n_subjects < 2:
            raise ConfigurationError("cross_subject requires at least 2 subjects")
        n_hold = max(1, spec.n_subjects // 4)
        holdout = set(range(spec.n_subjects - n_hold, spec.n_subjects))
        train = [s["id"] for s in samples if s["subject"] not in holdout]
        test = [s["id"] for s in samples if s["subject"] in holdout]
        return Splits(train, test, protocol, None)
    if spec.views < 2:
        raise ConfigurationError("cross_view requires at least 2 views")
    ids = [s["id"] for s in samples]
    rng = Xoshiro256pp(derive_seed(spec.seed, _SPLIT_TAG))
    order = list(ids)
    rng.shuffle(order)
    n_test = max(1, len(order) // 4)
    test_set = set(order[:n_test])
    return Splits(
        [s for s in ids if s not in test_set],
        [s for s in ids if s in test_set],
        protocol,
        spec.views - 1,
    )
