"""Baseline unlearning routes: delete-retrain, relabel-poison, neuron zeroing.

The first two give the requesting client's kept positions or new labels and
rely on fair retraining rounds; the third edits the model directly by zeroing
the units most activated by forget-class probes.  Unit ranking and edits
address positions on spec.hidden_units, the units of hidden parameterized
layers only: output-layer units are class logits whose scale is not
comparable to hidden activations, and zeroing them is label suppression
rather than representation removal.
"""
from __future__ import annotations

import numpy as np

from . import nncore
from .nncore import ConfigError, ModelSpec, make_rng


def delete_retrain_prepare(labels: np.ndarray, forget_class: int) -> np.ndarray:
    """The positions of every example not of the forget class, in order."""
    kept = np.flatnonzero(labels != forget_class)
    if len(kept) == 0:
        raise ConfigError("unlearn.requesting_clients: deleting the forget class empties "
                          "the shard")
    return kept


def relabel_poison_prepare(labels: np.ndarray, forget_class: int,
                           class_count: int, seed) -> np.ndarray:
    """A copy of labels with the forget class drawn uniformly over the others."""
    if class_count < 2:
        raise ValueError("relabeling needs at least two classes")
    rng = make_rng(seed, 701)
    hit = labels == forget_class
    draws = rng.integers(0, class_count - 1, size=int(hit.sum()))
    labels = labels.copy()
    labels[hit] = draws + (draws >= forget_class)
    return labels


def rank_units_by_activation(spec: ModelSpec, params: np.ndarray,
                             images: np.ndarray) -> np.ndarray:
    """Positions on spec.hidden_units, highest mean activation over the
    forget-class probe images first, ties by position."""
    if len(images) == 0:
        raise ConfigError("unlearn.requesting_clients: no forget-class probe images")
    acts = nncore.batch_unit_activations(spec, params, images)
    # each unit's mean over a contiguous row: the bits of its column's .mean()
    return np.argsort(-np.ascontiguousarray(acts.T).mean(axis=1), kind="stable")


def naive_zeroing(spec: ModelSpec, params: np.ndarray, images: np.ndarray,
                  top_m: int) -> np.ndarray:
    """Zero the top_m hidden units most activated by the forget-class probe images."""
    ranked = rank_units_by_activation(spec, params, images)
    if top_m < 0 or top_m > len(ranked):
        raise ValueError(f"top_m={top_m} outside [0, {len(ranked)}] hidden units")
    return nncore.zero_units(spec, params, ranked[:top_m])
