"""Cross-client constrained unlearning via attribution-ranked neuron edits.

Each client scores how much every hidden unit supports predicting the forget
class on its own data: the drop in the class's probability when the unit is
zeroed, averaged over its probes.  That is the limit of a Riemann-sum path
integral of the probability's derivative as the unit's activation scales
from 0 to its observed value (the completeness of integrated gradients);
attribute_unit keeps the m-step sum as the oracle.  A client uploads only its
top-N (unit, score) records.  The server compares the
requesting clients' scores against the best score any other client uploaded
for the same unit and orders the units by that ratio, lowest (most dominated
by the requesters) first.  The first select_n are zeroed whatever their
ratios: a unit with ratio 1 or more, which another client scores at least as
high, is zeroed when it ranks among them, and the audit record counts such
units in selected_shared.  The edit itself zeroes incoming weights and
biases, identically to the naive zeroing route.

A unit is its position on spec.hidden_units: scores are a (U,) float64
vector, an upload is a record array of (position, score), and the server's
dominance entries and selection are arrays of positions.  Ranks come from a
stable argsort, so ties go by position, which is (layer, unit) order.

Scoring cost per client: one forward pass over the probes, then one
batch_zeroed_unit_probs call: per hidden layer, one prefix pass up to the
next parameterized layer, that layer's output formed once, and blocks of
units, each unit's term subtracted from that output, through the layers
after it, forward only.

Raw examples never leave the clients; the server-side steps consume
SensitivityReports only.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import nncore
from .config import UnlearnConfig
from .datasets import DomainDataset
from .fedsim import ClientState
from .nncore import ModelSpec, UnitId, make_rng

UPLOAD = np.dtype([("unit", np.intp), ("score", np.float64)])


@dataclass(frozen=True)
class SensitivityReport:
    """A client's upload: per class, a record array of (unit, score), the
    unit as its position on spec.hidden_units, best first."""
    client_id: int
    per_class: dict[int, np.ndarray]


@dataclass
class AuditRecord:
    """What the server saw and did: entries are compute_dominance's arrays
    and selected their first select_n positions; units is spec.hidden_units.
    The JSON's selected_shared counts the selected units whose ratio is 1 or
    more: some other client scores them at least as high as a requester."""
    unlearn: UnlearnConfig
    seed: int
    units: np.ndarray
    reports: list[SensitivityReport]
    entries: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    selected: np.ndarray

    def to_json(self) -> str:
        u = self.unlearn
        units = [{"layer": layer, "unit": unit} for layer, unit in self.units.tolist()]
        positions, s_forget, s_max_other, ratio = (a.tolist() for a in self.entries)
        doc = {
            "forget_class": u.forget_class,
            "requesting_clients": list(u.requesting_clients),
            "config": {
                "top_n": u.top_n,
                "select_n": u.select_n,
                "probe_cap": u.probe_cap,
                "seed": self.seed,
            },
            "reports": [
                {
                    "client": r.client_id,
                    "classes": {
                        str(cid): [{**units[p], "score": s} for p, s in recs.tolist()]
                        for cid, recs in sorted(r.per_class.items())
                    },
                }
                for r in self.reports
            ],
            "entries": [
                {**units[p], "s_forget": f, "s_max_other": o, "r": q}
                for p, f, o, q in zip(positions, s_forget, s_max_other, ratio)
            ],
            "selected": [units[p] for p in self.selected.tolist()],
            "selection_capped": u.select_n > len(positions),
            "selected_shared": int((self.entries[3][:u.select_n] >= 1.0).sum()),
        }
        return json.dumps(doc, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# Attribution


def attribute_unit(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
                   target_class: int, unit: UnitId, m: int) -> float:
    """Riemann-sum attribution of one unit for one input, the oracle of
    sensitivity_scores.

    (1/m) * sum_{j=1..m} dP(target | input)/ds at s = j/m, where s scales the
    unit's activation a, so dP/ds = <a, dP/da>: beta * dP/d(activation) for
    a dense unit with activation beta, the gradient weighted by the site map
    for a conv channel.  As m grows the sum tends to
    P(target | input) - P(target | input, unit zeroed).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    spec.validate_unit(unit)
    site = nncore.batch_site_outputs(spec, params, np.asarray(inputs, dtype=np.float64)[None],
                                     unit.layer)
    grads = nncore.batch_unit_gradients(spec, params, np.repeat(site, m, axis=0), target_class,
                                        unit, np.arange(1, m + 1, dtype=np.float64) / m)
    return float((site[0, unit.unit] / m * grads.sum(axis=0)).sum())


def sensitivity_scores(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
                       target_class: int) -> np.ndarray:
    """Each hidden unit's mean ablation effect over the given inputs (N, C,
    H, W): the mean of P(target | x) - P(target | x, unit zeroed), a (U,)
    vector on spec.hidden_units.

    One forward pass gives P(target | x), and one batch_zeroed_unit_probs
    call every unit's zeroed probabilities.
    """
    if len(inputs) == 0:
        raise ValueError("sensitivity_scores needs a nonempty shard")
    if not 0 <= target_class < spec.class_count:
        raise ValueError(f"target class {target_class} out of range")
    plain = nncore.predict_probs(spec, params, inputs)[:, target_class]
    return (plain - nncore.batch_zeroed_unit_probs(spec, params, inputs,
                                                   target_class)).mean(axis=1)


def top_n_report(scores: np.ndarray, client_id: int, class_id: int,
                 top_n: int) -> SensitivityReport:
    """The client's upload for one class: its top_n units by score, best
    first, ties by position."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    records = np.empty(min(top_n, len(scores)), UPLOAD)
    records["unit"] = np.argsort(-scores, kind="stable")[:top_n]
    records["score"] = scores[records["unit"]]
    return SensitivityReport(client_id, {class_id: records})


# ---------------------------------------------------------------------------
# Server side


def compute_dominance(reports: list[SensitivityReport], requesting: Iterable[int],
                      forget_class: int, unit_count: int) -> tuple[np.ndarray, ...]:
    """Per unit a requester uploaded with a positive score: the ratio of the
    best score any non-requesting client uploaded for it (floored at +0.0,
    also where none did) to the requester's score.  A unit two requesters
    uploaded keeps its lowest ratio, the first requester's on a tie.

    Returns (positions, s_forget, s_max_other, ratio) in selection order:
    ascending ratio, then descending s_forget, then position.  Units the
    requester scored at or below zero are left out: the ratio is undefined
    or sign-flipped there and such units do not support the class.
    """
    requesting = sorted(set(requesting))
    by_client = {r.client_id: r.per_class.get(forget_class, np.empty(0, UPLOAD))
                 for r in reports}
    if missing := [rid for rid in requesting if rid not in by_client]:
        raise ValueError(f"no report from requesting client {missing[0]}")
    best = np.full(unit_count, -np.inf)
    for cid, records in by_client.items():
        if cid not in requesting:
            np.maximum.at(best, records["unit"], records["score"])
    s_max_other = np.where(best > 0.0, best, 0.0)
    own = np.concatenate([by_client[rid] for rid in requesting])
    own = own[own["score"] > 0.0]
    ratio = s_max_other[own["unit"]] / own["score"]
    # a unit's lowest ratio, the first requester's on a tie, is its first
    # entry in a stable sort by ratio
    first = np.argsort(ratio, kind="stable")
    first = first[np.unique(own["unit"][first], return_index=True)[1]]
    own, ratio = own[first], ratio[first]
    order = np.lexsort((own["unit"], -own["score"], ratio))
    positions = own["unit"][order]
    return positions, own["score"][order], s_max_other[positions], ratio[order]


# ---------------------------------------------------------------------------
# Orchestration


def probe_examples(state: ClientState, forget_class: int, probe_cap: int,
                   seed) -> DomainDataset:
    """The client's forget-class examples, a seeded sample of probe_cap of
    them when it holds more, in the client's order; only these are gathered."""
    candidates = np.flatnonzero(state.labels == forget_class)
    if len(candidates) > probe_cap:
        rng = make_rng((seed, state.client_id), 801)
        candidates = candidates[np.sort(rng.choice(len(candidates), size=probe_cap,
                                                   replace=False))]
    return DomainDataset(state.domain.images[state.index[candidates]],
                         state.labels[candidates], "probes", state.domain.class_count)


def fedcccu_pipeline(spec: ModelSpec, global_params: np.ndarray,
                     clients: list[ClientState], unlearn: UnlearnConfig,
                     seed: int) -> tuple[np.ndarray, AuditRecord]:
    """Full protocol: local scoring, top-N upload, dominance, selection, edit.

    Clients attribute the forget class over their own forget-class examples
    (capped at probe_cap); clients holding none upload an empty report.  The
    edit zeroes the selected units' incoming weights and biases.
    """
    forget_class = unlearn.forget_class
    if not 0 <= forget_class < spec.class_count:
        raise ValueError(f"forget class {forget_class} out of range")
    reports = []
    for state in sorted(clients, key=lambda c: c.client_id):
        probes = probe_examples(state, forget_class, unlearn.probe_cap, seed)
        if len(probes):
            scores = sensitivity_scores(spec, global_params, probes.images, forget_class)
            reports.append(top_n_report(scores, state.client_id, forget_class, unlearn.top_n))
        else:
            reports.append(SensitivityReport(state.client_id, {}))
    entries = compute_dominance(reports, unlearn.requesting_clients, forget_class,
                                len(spec.hidden_units))
    selected = entries[0][:unlearn.select_n]
    edited = nncore.zero_units(spec, global_params, selected)
    return edited, AuditRecord(unlearn, seed, spec.hidden_units, reports, entries, selected)
