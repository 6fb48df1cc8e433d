"""Baseline unlearning routes: delete-retrain, relabel-poison, neuron zeroing.

The first two give the requesting client's kept positions or new labels and
rely on fair retraining rounds; the third edits the model directly by zeroing
the units most activated by forget-class probes.  Unit ranking and edits
address hidden parameterized layers only: output-layer units are class logits
whose scale is not comparable to hidden activations, and zeroing them is label
suppression rather than representation removal.
"""
from __future__ import annotations

import numpy as np

from . import nncore
from .nncore import ModelSpec, UnitId, make_rng


class RouteError(ValueError):
    pass


def editable_units(spec: ModelSpec) -> list[UnitId]:
    """Units of every parameterized layer except the final (output) one; a
    unit's position in this list is its index wherever units are ranked."""
    return [UnitId(l, k)
            for l in range(spec.param_layer_count - 1)
            for k in range(spec.unit_count(l))]


def delete_retrain_prepare(labels: np.ndarray, forget_class: int) -> np.ndarray:
    """The positions of every example not of the forget class, in order."""
    kept = np.flatnonzero(labels != forget_class)
    if len(kept) == 0:
        raise RouteError("deleting the forget class empties the shard")
    return kept


def relabel_poison_prepare(labels: np.ndarray, forget_class: int,
                           class_count: int, seed) -> np.ndarray:
    """A copy of labels with the forget class drawn uniformly over the others."""
    if class_count < 2:
        raise RouteError("relabeling needs at least two classes")
    rng = make_rng(seed, 701)
    hit = labels == forget_class
    draws = rng.integers(0, class_count - 1, size=int(hit.sum()))
    labels = labels.copy()
    labels[hit] = draws + (draws >= forget_class)
    return labels


def rank_units_by_activation(spec: ModelSpec, params: np.ndarray,
                             images: np.ndarray) -> np.ndarray:
    """Positions in editable_units(spec), highest mean activation over the
    forget-class probe images first, ties by position."""
    if len(images) == 0:
        raise RouteError("no forget-class probe images")
    acts = nncore.batch_unit_activations(spec, params, images)
    # each unit's mean over a contiguous row: the bits of its column's .mean()
    means = np.concatenate([np.ascontiguousarray(a.T).mean(axis=1) for a in acts])
    return np.argsort(-means, kind="stable")


def naive_zeroing(spec: ModelSpec, params: np.ndarray, images: np.ndarray,
                  top_m: int) -> np.ndarray:
    """Zero the top_m hidden units most activated by the forget-class probe images."""
    ranked = rank_units_by_activation(spec, params, images)
    if top_m < 0 or top_m > len(ranked):
        raise RouteError(
            f"top_m={top_m} outside [0, {len(ranked)}] editable units")
    units = editable_units(spec)
    return nncore.zero_units(spec, params, [units[p] for p in ranked[:top_m].tolist()])
