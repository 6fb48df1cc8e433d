"""Cross-client constrained unlearning via attribution-ranked neuron edits.

Each client scores how much every hidden unit contributes to predicting the
forget class on its own data (a Riemann-sum path integral of the probability
gradient as the unit's activation scales from 0 to its observed value), and
uploads only its top-N (unit, score) records.  The server compares the
requesting client's scores against the best score any other client reported
for the same unit: units with a low ratio are dominated by the requester and
safe to zero, units with ratio near 1 are shared and kept.  The edit itself
zeroes incoming weights and biases, identically to the naive zeroing route.

Scoring cost per client: one prefix pass per editable layer over the probes,
up to the layer's activation site, gives every unit's activation, and the next
parameterized layer's output is formed once for the probes x m rows.  Per
unit, only the unit's rank-1 change is added to that output, and only the
layers after it run, forward and backward.  attribute_unit scores one unit
for one input through the same path.

Raw examples never leave the clients; the server-side steps consume
SensitivityReports only.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import nncore
from .config import UnlearnConfig
from .datasets import DomainDataset
from .fedsim import ClientState
from .nncore import ModelSpec, UnitId, make_rng
from .unlearn_routes import editable_units


class CccuError(ValueError):
    pass


@dataclass(frozen=True)
class SensitivityRecord:
    unit: UnitId
    class_id: int
    score: float


@dataclass(frozen=True)
class SensitivityReport:
    client_id: int
    per_class: dict[int, tuple[SensitivityRecord, ...]]

    def records_for(self, class_id: int) -> tuple[SensitivityRecord, ...]:
        return self.per_class.get(class_id, ())


@dataclass(frozen=True)
class DominanceEntry:
    unit: UnitId
    s_forget: float
    s_max_other: float
    ratio: float


@dataclass(frozen=True)
class RankSelection:
    units: tuple[UnitId, ...]
    capped: bool  # true when fewer entries existed than were requested


@dataclass
class AuditRecord:
    unlearn: UnlearnConfig
    seed: int
    reports: list[SensitivityReport]
    entries: list[DominanceEntry]
    selection: RankSelection

    def to_json(self) -> str:
        u = self.unlearn
        doc = {
            "forget_class": u.forget_class,
            "requesting_clients": list(u.requesting_clients),
            "config": {
                "riemann_steps": u.riemann_steps,
                "top_n": u.top_n,
                "select_n": u.select_n,
                "probe_cap": u.probe_cap,
                "seed": self.seed,
            },
            "reports": [
                {
                    "client": r.client_id,
                    "classes": {
                        str(cid): [
                            {"layer": rec.unit.layer, "unit": rec.unit.unit,
                             "score": rec.score}
                            for rec in recs
                        ]
                        for cid, recs in sorted(r.per_class.items())
                    },
                }
                for r in self.reports
            ],
            "entries": [
                {"layer": e.unit.layer, "unit": e.unit.unit,
                 "s_forget": e.s_forget, "s_max_other": e.s_max_other, "r": e.ratio}
                for e in self.entries
            ],
            "selected": [u.as_dict() for u in self.selection.units],
            "selection_capped": self.selection.capped,
        }
        return json.dumps(doc, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# Attribution


def attribute_unit(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
                   target_class: int, unit: UnitId, m: int) -> float:
    """Riemann-sum attribution of one unit for one input.

    (beta / m) * sum_{j=1..m} dP(target | input) / d(activation) evaluated at
    activation = (j/m) * beta, where beta is the unit's plain activation.
    """
    if m < 1:
        raise CccuError("m must be >= 1")
    spec.validate_unit(unit)
    site = nncore.batch_site_outputs(spec, params, np.asarray(inputs, dtype=np.float64)[None],
                                     unit.layer)
    beta = (site if site.ndim == 2 else site.mean(axis=(2, 3)))[0, unit.unit]
    rows = nncore.site_rows(spec, params, np.repeat(site, m, axis=0), unit.layer,
                            np.arange(1, m + 1, dtype=np.float64) / m)
    grads = nncore.batch_unit_gradients(spec, params, rows, target_class, unit)
    return float(beta / m * grads.sum())


def sensitivity_scores(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
                       target_class: int, m: int) -> list[SensitivityRecord]:
    """Mean attribution per editable unit over the given inputs (N, C, H, W).

    Per editable layer, one prefix pass over the inputs gives every unit's
    beta and the activation-site rows, and site_rows forms the next
    parameterized layer's output for the n * m rows; per unit,
    batch_unit_gradients updates that output and runs only the layers after
    it.
    """
    n = len(inputs)
    if n == 0:
        raise CccuError("sensitivity_scores needs a nonempty shard")
    if not 0 <= target_class < spec.class_count:
        raise CccuError(f"target class {target_class} out of range")
    if m < 1:
        raise CccuError("m must be >= 1")
    scales = np.tile(np.arange(1, m + 1, dtype=np.float64) / m, n)
    records = []
    for ordinal, units in itertools.groupby(editable_units(spec), key=lambda u: u.layer):
        site = nncore.batch_site_outputs(spec, params, inputs, ordinal)
        betas = site if site.ndim == 2 else site.mean(axis=(2, 3))
        rows = nncore.site_rows(spec, params, np.repeat(site, m, axis=0), ordinal, scales)
        for unit in units:
            grads = nncore.batch_unit_gradients(spec, params, rows, target_class, unit)
            values = betas[:, unit.unit] / m * grads.reshape(n, m).sum(axis=1)
            records.append(SensitivityRecord(unit, target_class, float(values.mean())))
    return records


def top_n_report(scores: list[SensitivityRecord], client_id: int,
                 top_n: int) -> SensitivityReport:
    """Keep the N best-scoring records per class, descending, ties by address."""
    if top_n < 1:
        raise CccuError("top_n must be >= 1")
    by_class: dict[int, list[SensitivityRecord]] = {}
    for rec in scores:
        by_class.setdefault(rec.class_id, []).append(rec)
    per_class = {}
    for cid, recs in by_class.items():
        recs.sort(key=lambda r: (-r.score, r.unit.layer, r.unit.unit))
        per_class[cid] = tuple(recs[:top_n])
    return SensitivityReport(client_id, per_class)


# ---------------------------------------------------------------------------
# Server side


def compute_dominance(reports: list[SensitivityReport], forget_client: int,
                      forget_class: int,
                      exclude: set[int] | None = None) -> list[DominanceEntry]:
    """Per unit in the forget client's list: ratio of the best score any
    non-forgetting client reported for the unit to the forget client's score.

    Units the forget client scored at or below zero are dropped: the ratio is
    undefined or sign-flipped there and such units do not support the class.
    Absence from every other list floors s_max_other at zero, so the ratio is
    never negative.
    """
    excluded = set(exclude) if exclude is not None else {forget_client}
    excluded.add(forget_client)
    forget_report = next((r for r in reports if r.client_id == forget_client), None)
    if forget_report is None:
        raise CccuError(f"no report from forget client {forget_client}")
    forget_records = forget_report.records_for(forget_class)
    if not forget_records:
        raise CccuError(
            f"forget client {forget_client} has no class-{forget_class} records")
    other_scores: dict[UnitId, float] = {}
    for report in reports:
        if report.client_id in excluded:
            continue
        for rec in report.records_for(forget_class):
            prev = other_scores.get(rec.unit)
            if prev is None or rec.score > prev:
                other_scores[rec.unit] = rec.score
    entries = []
    for rec in forget_records:
        if rec.score <= 0.0:
            continue
        s_max_other = max(0.0, other_scores.get(rec.unit, 0.0))
        entries.append(DominanceEntry(rec.unit, rec.score, s_max_other,
                                      s_max_other / rec.score))
    return entries


def rank_select(entries: list[DominanceEntry], n: int) -> RankSelection:
    """Ascending-ratio selection of n units; ties prefer higher s_forget."""
    if n < 0:
        raise CccuError("n must be >= 0")
    ordered = sorted(entries, key=lambda e: (e.ratio, -e.s_forget,
                                             e.unit.layer, e.unit.unit))
    capped = n > len(ordered)
    return RankSelection(tuple(e.unit for e in ordered[:min(n, len(ordered))]),
                         capped=capped)


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
        raise CccuError(f"forget class {forget_class} out of range")
    reports = []
    for state in sorted(clients, key=lambda c: c.client_id):
        probes = probe_examples(state, forget_class, unlearn.probe_cap, seed)
        if len(probes):
            scores = sensitivity_scores(spec, global_params, probes.images, forget_class,
                                        unlearn.riemann_steps)
            reports.append(top_n_report(scores, state.client_id, unlearn.top_n))
        else:
            reports.append(SensitivityReport(state.client_id, {}))
    requesters = set(unlearn.requesting_clients)
    merged: dict[UnitId, DominanceEntry] = {}
    for rid in sorted(requesters):
        report = next(r for r in reports if r.client_id == rid)
        if not report.records_for(forget_class):
            continue
        for entry in compute_dominance(reports, rid, forget_class, exclude=requesters):
            prev = merged.get(entry.unit)
            if prev is None or entry.ratio < prev.ratio:
                merged[entry.unit] = entry
    entries = sorted(merged.values(),
                     key=lambda e: (e.ratio, -e.s_forget, e.unit.layer, e.unit.unit))
    selection = rank_select(entries, unlearn.select_n)
    edited = nncore.zero_units(spec, global_params, selection.units)
    return edited, AuditRecord(unlearn, seed, reports, entries, selection)
