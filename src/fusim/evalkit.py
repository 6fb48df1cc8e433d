"""Per-client per-class accuracy reports and forgetting metrics.

Reports hold exact correct/total counts so the pooled global accuracy is an
identity, not a rounding artifact.  CSV output mirrors the benchmark tables:
one row per (client, class), percentages with two decimals, one column per
strategy; JSON keeps raw ratios and round-trips exactly.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from . import nncore
from .config import UnlearnConfig
from .datasets import DomainDataset
from .nncore import ModelSpec


class EvalError(ValueError):
    pass


@dataclass
class ClientEvaluation:
    class_correct: dict[int, int]
    class_total: dict[int, int]

    def accuracy(self, class_id: int) -> float:
        return self.class_correct[class_id] / self.class_total[class_id]

    @property
    def overall(self) -> float:
        return sum(self.class_correct.values()) / sum(self.class_total.values())


@dataclass
class EvaluationReport:
    clients: dict[int, ClientEvaluation]

    @property
    def global_correct(self) -> int:
        return sum(sum(c.class_correct.values()) for c in self.clients.values())

    @property
    def global_total(self) -> int:
        return sum(sum(c.class_total.values()) for c in self.clients.values())

    @property
    def global_accuracy(self) -> float:
        return self.global_correct / self.global_total

    @property
    def macro_global_accuracy(self) -> float:
        """Mean of per-client overall accuracies, summed in client-id order."""
        return float(np.mean([c.overall for _, c in sorted(self.clients.items())]))

    def per_class(self, client_id: int) -> dict[int, float]:
        ev = self.clients[client_id]
        return {c: ev.accuracy(c) for c in sorted(ev.class_total)}


@dataclass(frozen=True)
class ForgettingMetrics:
    """Percentage-point accuracy drops derived from two reports.

    forget_efficacy: drop on the forget class at requesting clients.
    collateral_retained: mean drop over retained classes across all clients.
    collateral_nonrequesting_forget: forget-class drop at the other clients
    (0.0 when every client requested).
    """
    forget_efficacy: float
    collateral_retained: float
    collateral_nonrequesting_forget: float


def evaluate_client(spec: ModelSpec, params: np.ndarray,
                    shard: DomainDataset) -> ClientEvaluation:
    if len(shard) == 0:
        raise EvalError("cannot evaluate an empty shard")
    ys = shard.labels
    preds = nncore.predict_probs(spec, params, shard.images).argmax(axis=1)
    correct: dict[int, int] = {}
    total: dict[int, int] = {}
    for c in np.unique(ys):
        mask = ys == c
        total[int(c)] = int(mask.sum())
        correct[int(c)] = int((preds[mask] == c).sum())
    return ClientEvaluation(correct, total)


def build_report(spec: ModelSpec, params: np.ndarray,
                 client_test_sets: dict[int, DomainDataset]) -> EvaluationReport:
    clients = {cid: evaluate_client(spec, params, shard)
               for cid, shard in sorted(client_test_sets.items())}
    return EvaluationReport(clients)


def forgetting_metrics(before: EvaluationReport, after: EvaluationReport,
                       unlearn: UnlearnConfig) -> ForgettingMetrics:
    if set(before.clients) != set(after.clients):
        raise EvalError("reports cover different clients")
    forget = unlearn.forget_class
    req = set(unlearn.requesting_clients)
    drops_forget_req = []
    drops_forget_other = []
    drops_retained = []
    for cid in sorted(before.clients):
        b, a = before.clients[cid], after.clients[cid]
        if b.class_total != a.class_total:
            raise EvalError(f"client {cid}: class coverage differs between reports")
        per_client_retained = []
        for c in sorted(b.class_total):
            drop = (b.accuracy(c) - a.accuracy(c)) * 100.0
            if c == forget:
                (drops_forget_req if cid in req else drops_forget_other).append(drop)
            else:
                per_client_retained.append(drop)
        if per_client_retained:
            drops_retained.append(float(np.mean(per_client_retained)))
    if not drops_forget_req:
        raise EvalError("no requesting client carries the forget class")
    return ForgettingMetrics(
        forget_efficacy=float(np.mean(drops_forget_req)),
        collateral_retained=float(np.mean(drops_retained)) if drops_retained else 0.0,
        collateral_nonrequesting_forget=(
            float(np.mean(drops_forget_other)) if drops_forget_other else 0.0),
    )


# ---------------------------------------------------------------------------
# Emission


def report_to_json(report: EvaluationReport) -> str:
    doc = {
        "global": {
            "correct": report.global_correct,
            "total": report.global_total,
            "accuracy": report.global_accuracy,
            "macro_accuracy": report.macro_global_accuracy,
        },
        "clients": {
            str(cid): {
                "overall": ev.overall,
                "classes": {
                    str(c): {"correct": ev.class_correct[c],
                             "total": ev.class_total[c],
                             "accuracy": ev.accuracy(c)}
                    for c in sorted(ev.class_total)
                },
            }
            for cid, ev in sorted(report.clients.items())
        },
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def report_from_json(text: str) -> EvaluationReport:
    """Inverse of report_to_json; clients and classes in integer order, as
    build_report makes them (JSON keys sort as strings: "10" before "2")."""
    doc = json.loads(text)
    clients = {}
    for cid, entry in sorted((int(k), v) for k, v in doc["clients"].items()):
        classes = sorted((int(c), v) for c, v in entry["classes"].items())
        clients[cid] = ClientEvaluation({c: v["correct"] for c, v in classes},
                                        {c: v["total"] for c, v in classes})
    return EvaluationReport(clients)


def _pct(value: float) -> str:
    return f"{value * 100.0:.2f}"


def combined_csv(reports: dict[str, EvaluationReport]) -> str:
    """Multi-strategy table keyed on identical (client, class) coverage."""
    names = list(reports)
    first = reports[names[0]]
    rows = [(cid, c) for cid, ev in sorted(first.clients.items())
            for c in sorted(ev.class_total)]
    for name in names[1:]:
        other = reports[name]
        other_rows = [(cid, c) for cid, ev in sorted(other.clients.items())
                      for c in sorted(ev.class_total)]
        if other_rows != rows:
            raise EvalError(f"report {name!r} covers different clients/classes")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["client", "class"] + names)
    for cid, c in rows:
        writer.writerow([cid, c] + [_pct(reports[n].clients[cid].accuracy(c))
                                    for n in names])
    return buf.getvalue()

