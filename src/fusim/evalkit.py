"""Per-client per-class accuracy reports and forgetting metrics.

A report is two (clients, classes) int64 count arrays, correct and total:
row i is client i, and a class absent from a client's test set has total 0.
Exact counts make the pooled global accuracy an identity, not a rounding
artifact.  CSV output mirrors the benchmark tables: one row per (client,
class) present, percentages with two decimals, one column per strategy;
JSON keeps the counts and their ratios, and reads back checked.
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
from .nncore import ConfigError, ModelSpec


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """correct and total counts, (clients, classes) int64; row i is client i."""
    correct: np.ndarray
    total: np.ndarray

    @property
    def global_accuracy(self) -> float:
        return int(self.correct.sum()) / int(self.total.sum())

    def accuracy(self) -> np.ndarray:
        """correct / total per cell, NaN where the class is absent."""
        with np.errstate(invalid="ignore"):
            return self.correct / self.total


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
                    shard: DomainDataset) -> tuple[np.ndarray, np.ndarray]:
    """The shard's correct and total counts per class, two (classes,) rows."""
    if len(shard) == 0:
        raise ValueError("cannot evaluate an empty shard")
    ys = shard.labels
    preds = nncore.predict_probs(spec, params, shard.images).argmax(axis=1)
    return (np.bincount(ys[preds == ys], minlength=spec.class_count),
            np.bincount(ys, minlength=spec.class_count))


def build_report(spec: ModelSpec, params: np.ndarray, test_sets: tuple[DomainDataset, ...],
                 client_sets: np.ndarray) -> EvaluationReport:
    """Row i holds the counts of test_sets[client_sets[i]]; each test set is
    counted once, however many clients share it."""
    correct, total = map(np.stack, zip(*(evaluate_client(spec, params, test_set)
                                         for test_set in test_sets)))
    return EvaluationReport(correct[client_sets], total[client_sets])


def forgetting_metrics(before: EvaluationReport, after: EvaluationReport,
                       unlearn: UnlearnConfig) -> ForgettingMetrics:
    """Means of the cells' drops, each in client then class order."""
    if before.total.shape != after.total.shape or (before.total != after.total).any():
        raise ValueError("reports cover different clients or classes")
    drop = (before.accuracy() - after.accuracy()) * 100.0
    present, forget = before.total > 0, unlearn.forget_class
    requesting = np.array([cid in unlearn.requesting_clients for cid in range(len(drop))])
    if forget >= drop.shape[1] or not (requesting & present[:, forget]).any():
        raise ConfigError("unlearn.requesting_clients: no requesting client carries the "
                          "forget class")
    at_forget = present[:, forget].copy()
    present[:, forget] = False  # present now marks the retained cells
    retained = [np.mean(row[cells]) for row, cells in zip(drop, present) if cells.any()]
    other = drop[at_forget & ~requesting, forget]
    return ForgettingMetrics(
        forget_efficacy=float(np.mean(drop[at_forget & requesting, forget])),
        collateral_retained=float(np.mean(retained)) if retained else 0.0,
        collateral_nonrequesting_forget=float(np.mean(other)) if len(other) else 0.0,
    )


# ---------------------------------------------------------------------------
# Emission


def report_to_json(report: EvaluationReport) -> str:
    overall = report.correct.sum(axis=1) / report.total.sum(axis=1)
    rows = zip(report.correct.tolist(), report.total.tolist(), report.accuracy().tolist(),
               overall.tolist())
    clients = {str(cid): {"overall": mean, "classes": {
        str(c): {"correct": ok[c], "total": n[c], "accuracy": acc[c]}
        for c in range(len(n)) if n[c]}} for cid, (ok, n, acc, mean) in enumerate(rows)}
    return json.dumps({"global": {"correct": int(report.correct.sum()),
                                  "total": int(report.total.sum()),
                                  "accuracy": report.global_accuracy,
                                  "macro_accuracy": float(np.mean(overall))},
                       "clients": clients}, sort_keys=True, indent=1)


def report_from_json(text: str | bytes, client_count: int, class_count: int,
                     path: str) -> EvaluationReport:
    """Inverse of report_to_json for clients 0..client_count-1 over
    class_count classes, from the text (or UTF-8 bytes) of the file at path.
    Any other text raises a ConfigError naming path and the first entry that
    is not a count."""
    def fault(message: str) -> ConfigError:
        return ConfigError(f"{path}: {message}; use a fresh output directory")
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise fault(f"not valid JSON ({exc})") from None
    clients = doc.get("clients") if isinstance(doc, dict) else None
    if not isinstance(clients, dict):
        raise fault("no 'clients' object")
    if set(clients) != {str(i) for i in range(client_count)}:
        raise fault(f"client ids {sorted(clients)} are not 0..{client_count - 1}")
    counts = [[[0] * class_count for _ in range(client_count)] for _ in range(2)]
    classes = {str(c): c for c in range(class_count)}
    for cid in range(client_count):
        entry = clients[str(cid)]
        cells = entry.get("classes") if isinstance(entry, dict) else None
        if not isinstance(cells, dict) or not cells:
            raise fault(f"client {cid}: no classes")
        for key, cell in cells.items():
            c = classes.get(key)
            cell = cell if isinstance(cell, dict) else {}
            ok, n = cell.get("correct"), cell.get("total")
            if (c is None or type(ok) is not int or type(n) is not int
                    or not 1 <= n < 2**63 or not 0 <= ok <= n):
                what = (f"not a class id in 0..{class_count - 1}" if c is None else
                        "correct and total must be integers" if {type(ok), type(n)} != {int}
                        else f"total {n} not in 1..{2**63 - 1}" if not 1 <= n < 2**63
                        else f"correct {ok} not in 0..{n}")
                raise fault(f"client {cid} class {key!r}: {what}")
            counts[0][cid][c], counts[1][cid][c] = ok, n
    return EvaluationReport(*np.array(counts, dtype=np.int64))


def combined_csv(reports: dict[str, EvaluationReport]) -> str:
    """Multi-strategy table keyed on identical (client, class) coverage."""
    names = list(reports)
    present = reports[names[0]].total > 0
    for name in names[1:]:
        other = reports[name].total
        if other.shape != present.shape or not np.array_equal(other > 0, present):
            raise ValueError(f"report {name!r} covers different clients/classes")
    columns = [(reports[n].accuracy()[present] * 100.0).tolist() for n in names]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["client", "class"] + names)
    clients, classes = (axis.tolist() for axis in np.nonzero(present))
    for cid, c, *pcts in zip(clients, classes, *columns):
        writer.writerow([cid, c] + [f"{pct:.2f}" for pct in pcts])
    return buf.getvalue()
