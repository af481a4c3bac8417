"""Versioned binary model file.

Layout: 4-byte magic ``DBTM``, little-endian uint32 format version, uint64
header length, a JSON header (inspectable with a text editor once past the
12-byte prelude), then raw little-endian array bytes at the offsets the
header's ``arrays`` directory records.  Trees are stored as flat node tables
with explicit child indices; schedule arrays are recomputed on load from the
stored (T, beta_start, beta_end).  Writing is fully deterministic: the same
model always produces byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .boosting import MeanEstimator, MeanEstimatorConfig
from .data import Column
from .dbt import DbtConfig, DbtModel
from .schedule import build_linear_schedule
from .tree import CATEGORICAL, DecisionTree, TreeParams

__all__ = ["save_model", "load_model", "ModelFormatError", "FORMAT_VERSION", "MAGIC"]

MAGIC = b"DBTM"
FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Unreadable, corrupt, or incompatible model file."""


_NODE_FIELDS = (
    ("feature", "<i4"), ("threshold", "<f8"), ("default_left", "u1"),
    ("children_left", "<i4"), ("children_right", "<i4"),
    ("value", "<f8"), ("split_gain", "<f8"),
)


def _pack_ensemble(trees, prefix, arrays):
    counts = np.array([t.n_nodes for t in trees], dtype="<i8")
    arrays[f"{prefix}.tree_offsets"] = np.concatenate(
        [np.zeros(1, dtype="<i8"), np.cumsum(counts, dtype="<i8")])
    for name, dtype in _NODE_FIELDS:
        parts = [getattr(t, name).astype(dtype) for t in trees]
        arrays[f"{prefix}.{name}"] = (np.concatenate(parts) if parts
                                      else np.empty(0, dtype=dtype))
    is_cat, cat_len, cat_values = [], [], []
    for t in trees:
        for cats in t.left_categories:
            is_cat.append(cats is not None)
            cat_len.append(0 if cats is None else len(cats))
            if cats is not None and len(cats):
                cat_values.append(np.asarray(cats, dtype="<i8"))
    arrays[f"{prefix}.is_categorical"] = np.asarray(is_cat, dtype="u1")
    arrays[f"{prefix}.cat_len"] = np.asarray(cat_len, dtype="<i8")
    arrays[f"{prefix}.cat_values"] = (np.concatenate(cat_values) if cat_values
                                      else np.empty(0, dtype="<i8"))


_ENSEMBLE_DTYPES = dict(_NODE_FIELDS, tree_offsets="<i8", is_categorical="u1",
                        cat_len="<i8", cat_values="<i8")


def _check_ensemble(prefix, arrays, cat_feature, max_code):
    """Raise ``ValueError`` unless the packed node tables of one ensemble
    describe trees that prediction can walk; ``cat_feature[f]`` says whether
    input column f is categorical, and category codes lie below ``max_code``
    (the ensemble's ``max_categorical_cardinality``, which no grown split
    reaches).

    Children come after their parent (as the writer lays them out), so every
    walk from a root ends at a leaf.
    """
    def fail(what):
        raise ValueError(f"{prefix} trees: {what}")

    a = {}
    for name, dtype in _ENSEMBLE_DTYPES.items():
        a[name] = arrays[f"{prefix}.{name}"]
        if a[name].dtype != np.dtype(dtype) or a[name].ndim != 1:
            fail(f"{name} is not a 1-D {dtype} array")
    offs, feature = a["tree_offsets"], a["feature"]
    m = feature.shape[0]
    if any(a[name].shape[0] != m for name in
           [n for n, _ in _NODE_FIELDS] + ["is_categorical", "cat_len"]):
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
    if (cat_len < 0).any() or (cat_len[~is_cat] != 0).any() \
            or cat_len.sum() != a["cat_values"].shape[0]:
        fail("category set lengths do not match the stored codes")
    if ((a["cat_values"] < 0) | (a["cat_values"] >= max_code)).any():
        fail("category code out of range")


def _unpack_ensemble(prefix, arrays, cat_feature, max_code):
    _check_ensemble(prefix, arrays, cat_feature, max_code)
    n_features = cat_feature.shape[0]
    offs = arrays[f"{prefix}.tree_offsets"]
    cols = {name: arrays[f"{prefix}.{name}"] for name, _ in _NODE_FIELDS}
    is_cat = arrays[f"{prefix}.is_categorical"].astype(bool)
    cat_len = arrays[f"{prefix}.cat_len"]
    cat_values = arrays[f"{prefix}.cat_values"]
    cat_offs = np.concatenate([[0], np.cumsum(cat_len)])
    trees = []
    for i in range(offs.shape[0] - 1):
        lo, hi = int(offs[i]), int(offs[i + 1])
        cats = []
        for node in range(lo, hi):
            if is_cat[node]:
                a, b = int(cat_offs[node]), int(cat_offs[node + 1])
                cats.append(np.array(cat_values[a:b], dtype=np.int64))
            else:
                cats.append(None)
        trees.append(DecisionTree(
            feature=np.array(cols["feature"][lo:hi], dtype=np.int32),
            threshold=np.array(cols["threshold"][lo:hi], dtype=np.float64),
            left_categories=tuple(cats),
            default_left=np.array(cols["default_left"][lo:hi], dtype=bool),
            children_left=np.array(cols["children_left"][lo:hi], dtype=np.int32),
            children_right=np.array(cols["children_right"][lo:hi], dtype=np.int32),
            value=np.array(cols["value"][lo:hi], dtype=np.float64),
            split_gain=np.array(cols["split_gain"][lo:hi], dtype=np.float64),
            n_features=n_features,
        ))
    return trees


def save_model(model, path) -> None:
    """Write a trained per-timestep model of either kind."""
    if not isinstance(model, DbtModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    arrays: dict = {}
    _pack_ensemble(model.step_trees, "step", arrays)
    _pack_ensemble(model.mean_est.trees, "mean", arrays)

    header = {
        "kind": model.kind,
        "config": dataclasses.asdict(model.config),
        "mean_config": dataclasses.asdict(model.mean_config),
        "mean_estimator": {
            "base_score": model.mean_est.base_score,
            "shrinkage": model.mean_est.shrinkage,
            "loss": model.mean_est.loss,
        },
        "schedule": {
            "T": model.schedule.T,
            "beta_start": model.schedule.beta_start,
            "beta_end": model.schedule.beta_end,
        },
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
    arrays = {}
    for spec in header["arrays"]:
        buf = blob[spec["offset"]:spec["offset"] + spec["nbytes"]]
        arrays[spec["name"]] = np.frombuffer(
            buf, dtype=spec["dtype"]).reshape(spec["shape"])

    cfg = dict(header["config"])
    cfg["tree_params"] = TreeParams(**cfg["tree_params"])
    config = DbtConfig(**cfg)
    mc = dict(header["mean_config"])
    mc["tree_params"] = TreeParams(**mc["tree_params"])
    mean_config = MeanEstimatorConfig(**mc)

    columns = tuple(
        Column(c["name"], c["kind"],
               None if c["categories"] is None else tuple(c["categories"]))
        for c in header["schema"]["columns"]
    )
    cat_feature = np.array([c.kind == CATEGORICAL for c in columns], dtype=bool)
    sched = build_linear_schedule(header["schedule"]["T"],
                                  header["schedule"]["beta_start"],
                                  header["schedule"]["beta_end"])
    mean_est = MeanEstimator(
        base_score=header["mean_estimator"]["base_score"],
        trees=tuple(_unpack_ensemble("mean", arrays, cat_feature,
                                     mean_config.tree_params.max_categorical_cardinality)),
        shrinkage=header["mean_estimator"]["shrinkage"],
        loss=header["mean_estimator"]["loss"],
    )
    # step trees read (noisy response, covariates, mean-estimate)
    step_cat = np.concatenate([[False], cat_feature, [False]])
    std = header["standardization"]
    return DbtModel(
        schedule=sched, mean_est=mean_est,
        step_trees=tuple(_unpack_ensemble("step", arrays, step_cat,
                                          config.tree_params.max_categorical_cardinality)),
        config=config, mean_config=mean_config, columns=columns,
        response_name=header["schema"]["response"],
        target_standardization=None if std is None else tuple(std),
        train_positive_rate=header["positive_rate"],
        train_log=tuple(header["train_log"]), kind=header["kind"],
    )
