"""Versioned binary model file.

Layout: 4-byte magic ``DBTM``, little-endian uint32 format version, uint64
header length, a JSON header (inspectable with a text editor once past the
12-byte prelude), then raw little-endian array bytes at the offsets the
header's ``arrays`` directory records.  Each ensemble stores every array
field of ``tree.DecisionTree`` (``_TREE_FIELDS``), its trees laid end to end,
and ``tree_offsets``, where each tree's nodes start.  Every array's header
dtype must be the one this table gives it.  Two header entries repeat
another and must agree with it: ``schedule`` repeats the config's (T,
beta_start, beta_end), and ``mean_estimator`` repeats ``mean_config``'s
shrinkage and loss.  Writing is fully deterministic: the same model always
produces byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .boosting import MeanEstimator, MeanEstimatorConfig
from .data import Column
from .dbt import DbtConfig, DbtModel
from .tree import CATEGORICAL, DecisionTree, TreeParams

__all__ = ["save_model", "load_model", "ModelFormatError", "FORMAT_VERSION", "MAGIC"]

MAGIC = b"DBTM"
FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Unreadable, corrupt, or incompatible model file."""


# every array field of DecisionTree: (name, dtype in the file, dtype in memory);
# all but cat_values hold one entry per node
_TREE_FIELDS = (
    ("feature", "<i4", np.int32), ("threshold", "<f8", np.float64),
    ("is_categorical", "|u1", bool), ("cat_len", "<i8", np.int64),
    ("cat_values", "<i8", np.int64), ("default_left", "|u1", bool),
    ("children_left", "<i4", np.int32), ("children_right", "<i4", np.int32),
    ("value", "<f8", np.float64), ("split_gain", "<f8", np.float64),
)
_ENSEMBLE_DTYPES = dict(((name, dtype) for name, dtype, _ in _TREE_FIELDS),
                        tree_offsets="<i8")


def _pack_ensemble(trees, prefix, arrays):
    arrays[f"{prefix}.tree_offsets"] = np.cumsum([0] + [t.n_nodes for t in trees], dtype="<i8")
    for name, dtype, _ in _TREE_FIELDS:
        arrays[f"{prefix}.{name}"] = np.concatenate(
            [getattr(t, name) for t in trees] + [np.empty(0, dtype=dtype)]).astype(dtype)


def _check_ensemble(prefix, arrays, n_categories, max_code):
    """Raise ``ValueError`` unless the packed node tables of one ensemble
    describe trees that prediction can walk.  ``n_categories[f]`` is the
    schema's category count of input column f, or -1 where f is numeric; a
    split's codes lie below its column's count and below ``max_code`` (the
    ensemble's ``max_categorical_cardinality``, which no grown split reaches).
    The count bounds the category table that prediction builds.

    Children come after their parent (as the writer lays them out), so every
    walk from a root ends at a leaf.
    """
    def fail(what):
        raise ValueError(f"{prefix} trees: {what}")

    cat_feature = n_categories >= 0
    a = {}
    for name, dtype in _ENSEMBLE_DTYPES.items():
        a[name] = arrays[f"{prefix}.{name}"]
        if a[name].dtype != np.dtype(dtype) or a[name].ndim != 1:
            fail(f"{name} is not a 1-D {dtype} array")
    offs, feature = a["tree_offsets"], a["feature"]
    m = feature.shape[0]
    if any(a[name].shape[0] != m for name, _, _ in _TREE_FIELDS if name != "cat_values"):
        fail("node arrays differ in length")
    sizes = np.diff(offs)
    if offs.shape[0] == 0 or offs[0] != 0 or offs[-1] != m or (sizes < 1).any():
        fail("tree_offsets do not rise from 0 to the node count")

    local = np.arange(m) - np.repeat(offs[:-1], sizes)     # node id within its tree
    size = np.repeat(sizes, sizes)
    left, right = a["children_left"], a["children_right"]
    is_cat, cat_len = a["is_categorical"] != 0, a["cat_len"]
    leaf = feature == -1
    if ((feature < -1) | (feature >= cat_feature.shape[0])).any():
        fail("feature index out of range")
    if (leaf & ((left != -1) | (right != -1) | is_cat | ~np.isfinite(a["value"]))).any():
        fail("a leaf has children, a category set or a non-finite value")
    for child in (left, right):
        if (~leaf & ((child <= local) | (child >= size))).any():
            fail("a child index is out of range or not after its parent")
    if (is_cat[~leaf] != cat_feature[feature[~leaf]]).any():
        fail("a split rule does not match its column's kind")
    if np.isnan(a["threshold"][~leaf & ~is_cat]).any():
        fail("a numeric split has a NaN threshold")
    # no length past the stored codes, so that their int64 sum cannot wrap
    if ((cat_len < 0) | (cat_len > a["cat_values"].shape[0])).any() \
            or (cat_len[~is_cat] != 0).any() or cat_len.sum() != a["cat_values"].shape[0]:
        fail("category set lengths do not match the stored codes")
    codes = a["cat_values"]
    if ((codes < 0) | (codes >= max_code)
            | (codes >= np.repeat(n_categories[feature[is_cat]], cat_len[is_cat]))).any():
        fail("category code out of range")


def _unpack_ensemble(prefix, arrays, n_categories, max_code):
    _check_ensemble(prefix, arrays, n_categories, max_code)
    joined = {name: arrays[f"{prefix}.{name}"].astype(dtype) for name, _, dtype in _TREE_FIELDS}
    nodes = arrays[f"{prefix}.tree_offsets"]
    codes = np.cumsum(np.append(0, joined["cat_len"]))[nodes]   # where each tree's codes start
    trees = []
    for i in range(nodes.shape[0] - 1):
        fields = {name: a[nodes[i]:nodes[i + 1]] for name, a in joined.items()}
        fields["cat_values"] = joined["cat_values"][codes[i]:codes[i + 1]]
        trees.append(DecisionTree(**fields, n_features=n_categories.shape[0]))
    return trees


def _schedule_entry(config):
    """The header's ``schedule`` entry: the config's (T, beta_start, beta_end)."""
    return dict(T=config.T, beta_start=float(config.beta_start), beta_end=float(config.beta_end))


def save_model(model, path) -> None:
    """Write a trained per-timestep model of either kind."""
    if not isinstance(model, DbtModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    arrays: dict = {}
    _pack_ensemble(model.step_trees, "step", arrays)
    _pack_ensemble(model.mean_est.trees, "mean", arrays)

    est = model.mean_est
    header = {
        "kind": model.kind,
        "config": dataclasses.asdict(model.config),
        "mean_config": dataclasses.asdict(est.config),
        "mean_estimator": {"base_score": est.base_score, "shrinkage": est.config.shrinkage,
                           "loss": est.config.loss},
        "schedule": _schedule_entry(model.config),
        "schema": {
            "response": model.response_name,
            "columns": [
                {"name": c.name, "kind": c.kind,
                 "categories": None if c.categories is None else list(c.categories)}
                for c in model.columns
            ],
        },
        "standardization": (None if model.target_standardization is None
                            else list(model.target_standardization)),
        "positive_rate": model.train_positive_rate,
        "train_log": list(model.train_log),
        "arrays": [],
    }
    offset = 0
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        raw = arr.tobytes()
        header["arrays"].append({
            "name": name, "dtype": arr.dtype.str, "shape": list(arr.shape),
            "offset": offset, "nbytes": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)

    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(FORMAT_VERSION).tobytes())
        fh.write(np.uint64(len(head)).tobytes())
        fh.write(head)
        for raw in blobs:
            fh.write(raw)


def load_model(path):
    """Read a model file back; predictions are bit-identical to the saved model.

    Any file this build cannot turn into a valid model raises
    :class:`ModelFormatError`.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    version = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported model format version {version}, "
            f"this build reads version {FORMAT_VERSION}")
    head_len = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    try:
        header = json.loads(raw[16:16 + head_len].decode())
        return _decode(header, raw[16 + head_len:])
    except (ValueError, KeyError, TypeError) as exc:
        raise ModelFormatError(
            f"{path}: corrupt model file ({type(exc).__name__}: {exc})") from exc


def _decode(header, blob) -> DbtModel:
    """Build the model from a parsed header and the array bytes after it."""
    dtypes = {f"{prefix}.{name}": dtype
              for prefix in ("step", "mean") for name, dtype in _ENSEMBLE_DTYPES.items()}
    arrays = {}
    for spec in header["arrays"]:
        name = spec["name"]
        if name not in dtypes:
            raise ValueError(f"unknown array {name!r}")
        if spec["dtype"] != dtypes[name]:
            raise ValueError(f"array {name!r} has dtype {spec['dtype']!r}, not {dtypes[name]!r}")
        buf = blob[spec["offset"]:spec["offset"] + spec["nbytes"]]
        arrays[name] = np.frombuffer(buf, dtype=dtypes[name]).reshape(spec["shape"])

    config, mean_config = (
        cls(**{**header[key], "tree_params": TreeParams(**header[key]["tree_params"])})
        for key, cls in (("config", DbtConfig), ("mean_config", MeanEstimatorConfig)))

    columns = tuple(
        Column(c["name"], c["kind"],
               None if c["categories"] is None else tuple(c["categories"]))
        for c in header["schema"]["columns"]
    )
    n_categories = np.array([len(c.categories) if c.kind == CATEGORICAL else -1
                             for c in columns], dtype=np.int64)
    # before the schedule, whose cost grows with the T the header claims
    for prefix, n_trees in (("step", config.T), ("mean", mean_config.n_trees)):
        stored = arrays[f"{prefix}.tree_offsets"].size - 1
        if stored != n_trees:
            raise ValueError(f"{stored} {prefix} trees stored, where the config has {n_trees}")
    if header["schedule"] != _schedule_entry(config):
        raise ValueError(f"the schedule entry {header['schedule']} is not the config's")
    est = header["mean_estimator"]
    if [est["shrinkage"], est["loss"]] != [mean_config.shrinkage, mean_config.loss]:
        raise ValueError("the mean_estimator entry's shrinkage or loss is not mean_config's")
    config.schedule                         # built here so that an underflowing one is rejected
    mean_trees = _unpack_ensemble("mean", arrays, n_categories,
                                  mean_config.tree_params.max_categorical_cardinality)
    mean_est = MeanEstimator(base_score=est["base_score"], trees=tuple(mean_trees),
                             config=mean_config)
    # step trees read (noisy response, covariates, mean-estimate)
    step_categories = np.concatenate([[-1], n_categories, [-1]])
    std = header["standardization"]
    return DbtModel(
        mean_est=mean_est, config=config, columns=columns,
        step_trees=tuple(_unpack_ensemble("step", arrays, step_categories,
                                          config.tree_params.max_categorical_cardinality)),
        response_name=header["schema"]["response"],
        target_standardization=None if std is None else tuple(std),
        train_positive_rate=header["positive_rate"],
        train_log=tuple(header["train_log"]), kind=header["kind"],
    )
