"""Evaluation report and metrics tests."""
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusim import datasets as ds
from fusim import evalkit as ek
from fusim import nncore as nn
from fusim.config import UnlearnConfig
from helpers import (library_step, reference_combined_csv, reference_forgetting_metrics,
                     reference_report_to_json, same_bits)

CLIENT0_FORGETS_0 = UnlearnConfig(forget_class=0, requesting_clients=(0,))


def constant_predictor(classes, winner, side=4):
    spec = nn.small_mlp((1, side, side), classes, hidden=3)
    params = np.zeros(spec.param_count)
    spec.views(params)["layer1.bias"][winner] = 5.0
    return spec, params


def shard_of(labels, side=4, value=0.3):
    return ds.DomainDataset(np.full((len(labels), 1, side, side), value),
                            np.asarray(labels, dtype=np.int64), "t", max(labels) + 1)


def report_from_counts(counts, classes=None):
    """A report from {client: {class: (correct, total)}}: clients 0..max,
    classes 0..classes-1 (default max + 1), total 0 where a pair is absent."""
    width = classes or 1 + max(c for table in counts.values() for c in table)
    arrays = np.zeros((2, 1 + max(counts), width), dtype=np.int64)
    for cid, table in counts.items():
        for c, pair in table.items():
            arrays[:, cid, c] = pair
    return ek.EvaluationReport(*arrays)


def counts_of(report):
    return report.correct.tolist(), report.total.tolist()


# ---------------------------------------------------------------------------
# per-class counts of one shard (build_report)


def test_perfect_predictor_all_ones():
    spec = nn.small_mlp((1, 4, 4), 2, hidden=4)
    rng = np.random.default_rng(1)
    images, labels = [], []
    for label in (0, 1):
        for _ in range(10):
            img = np.full((1, 4, 4), 0.1 if label == 0 else 0.9)
            images.append(img + rng.normal(0, 0.01, (1, 4, 4)))
            labels.append(label)
    shard = ds.DomainDataset(np.stack(images), np.asarray(labels), "t", 2)
    params = nn.init_params(spec, 3)
    for _ in range(60):
        params = library_step(spec, params, shard.images, shard.labels, 0.5)[0]
    report = ek.build_report(spec, params, {0: shard})
    assert counts_of(report) == ([[10, 10]], [[10, 10]])


def test_constant_predictor_balanced_two_class():
    spec, params = constant_predictor(2, winner=0)
    shard = shard_of([0] * 5 + [1] * 5)
    report = ek.build_report(spec, params, {0: shard})
    assert counts_of(report) == ([[5, 0]], [[5, 5]])
    assert report.accuracy().tolist() == [[1.0, 0.0]]


def test_per_class_accuracy_matches_hand_tally():
    spec, params = constant_predictor(3, winner=1)
    shard = shard_of([0, 0, 1, 1, 1, 2, 2, 2, 2, 1])
    # constant class-1 predictor: class 0 -> 0/2, class 1 -> 4/4, class 2 -> 0/4
    report = ek.build_report(spec, params, {0: shard})
    assert counts_of(report) == ([[0, 4, 0]], [[2, 4, 4]])
    assert report.correct.dtype == report.total.dtype == np.int64


def test_build_report_rows_are_client_ids():
    spec, params = constant_predictor(3, winner=2)
    shards = {1: shard_of([2, 2, 0]), 0: shard_of([1]), 2: shard_of([0, 2])}
    report = ek.build_report(spec, params, shards)
    assert counts_of(report) == ([[0, 0, 0], [0, 0, 2], [0, 0, 1]],
                                 [[0, 1, 0], [1, 0, 2], [1, 0, 1]])


def test_absent_classes_omitted():
    """A class absent from a client's test set has total 0 and no cell in
    the JSON or the CSV."""
    spec, params = constant_predictor(4, winner=0)
    shard = shard_of([0, 0, 2])
    report = ek.build_report(spec, params, {0: shard})
    assert counts_of(report) == ([[2, 0, 0, 0]], [[2, 0, 1, 0]])
    assert sorted(json.loads(ek.report_to_json(report))["clients"]["0"]["classes"]) == \
        ["0", "2"]
    assert ek.combined_csv({"x": report}) == "client,class,x\n0,0,100.00\n0,2,0.00\n"


# ---------------------------------------------------------------------------
# global accuracy identity


def test_global_accuracy_is_pooled_counts():
    report = report_from_counts({
        0: {0: (3, 4), 1: (2, 2)},
        1: {0: (1, 5), 1: (4, 4)},
    })
    assert report.global_accuracy == 10 / 15
    summary = json.loads(ek.report_to_json(report))["global"]
    assert (summary["correct"], summary["total"], summary["accuracy"]) == (10, 15, 10 / 15)
    assert summary["macro_accuracy"] == pytest.approx(np.mean([5 / 6, 5 / 9]))


# ---------------------------------------------------------------------------
# forgetting_metrics


def test_metrics_identical_reports_zero():
    r = report_from_counts({0: {0: (3, 4), 1: (2, 2)}, 1: {0: (1, 5), 1: (4, 4)}})
    m = ek.forgetting_metrics(r, r, CLIENT0_FORGETS_0)
    assert m.forget_efficacy == 0.0
    assert m.collateral_retained == 0.0
    assert m.collateral_nonrequesting_forget == 0.0


def test_metrics_benchmark_table_arithmetic():
    # requester forget class: 94.33% -> 16.55% is a 77.78-point drop
    before = report_from_counts({0: {0: (9433, 10000), 1: (9000, 10000)}})
    after = report_from_counts({0: {0: (1655, 10000), 1: (9000, 10000)}})
    m = ek.forgetting_metrics(before, after, CLIENT0_FORGETS_0)
    assert m.forget_efficacy == pytest.approx(77.78)
    assert m.collateral_retained == pytest.approx(0.0)


def test_metrics_hand_computed_means():
    before = report_from_counts({
        0: {0: (10, 10), 1: (8, 10), 2: (6, 10)},
        1: {0: (9, 10), 1: (7, 10), 2: (5, 10)},
    })
    after = report_from_counts({
        0: {0: (2, 10), 1: (7, 10), 2: (6, 10)},
        1: {0: (8, 10), 1: (7, 10), 2: (3, 10)},
    })
    m = ek.forgetting_metrics(before, after, CLIENT0_FORGETS_0)
    assert m.forget_efficacy == pytest.approx(80.0)
    # client 0 retained mean: (10 + 0)/2 = 5; client 1: (0 + 20)/2 = 10
    assert m.collateral_retained == pytest.approx(7.5)
    assert m.collateral_nonrequesting_forget == pytest.approx(10.0)


def test_metrics_antisymmetric():
    before = report_from_counts({0: {0: (10, 10), 1: (8, 10)}})
    after = report_from_counts({0: {0: (4, 10), 1: (6, 10)}})
    m1 = ek.forgetting_metrics(before, after, CLIENT0_FORGETS_0)
    m2 = ek.forgetting_metrics(after, before, CLIENT0_FORGETS_0)
    assert m1.forget_efficacy == -m2.forget_efficacy
    assert m1.collateral_retained == -m2.collateral_retained


def test_metrics_coverage_mismatch_errors():
    a = report_from_counts({0: {0: (1, 2)}})
    b = report_from_counts({1: {0: (1, 2)}})
    c = report_from_counts({0: {0: (1, 2), 1: (1, 2)}})
    d = report_from_counts({0: {0: (1, 2)}, 1: {0: (1, 2)}})
    e = report_from_counts({0: {0: (1, 2)}, 1: {0: (1, 3)}})
    for first, second in ((a, b), (a, c), (d, e)):
        with pytest.raises(ek.EvalError, match="cover different clients or classes"):
            ek.forgetting_metrics(first, second, CLIENT0_FORGETS_0)


@st.composite
def count_arrays(draw):
    """(total, before's correct, after's correct) for up to 6 clients over
    up to 12 classes, many cells absent (total 0) and every client holding
    a class."""
    k, c = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    cells = st.one_of(st.just(0), st.integers(1, 60))
    total = np.array(draw(st.lists(st.lists(cells, min_size=c, max_size=c),
                                   min_size=k, max_size=k)), dtype=np.int64).reshape(k, c)
    for i in np.flatnonzero(total.sum(axis=1) == 0):
        total[i, draw(st.integers(0, c - 1))] = draw(st.integers(1, 60))
    correct = [np.array([[draw(st.integers(0, n)) for n in row] for row in total.tolist()],
                        dtype=np.int64) for _ in range(2)]
    return total, *correct


def hexes(metrics):
    assert all(type(v) is float for v in dataclasses.astuple(metrics))
    return [v.hex() for v in dataclasses.astuple(metrics)]


@settings(max_examples=60)
@given(arrays=count_arrays(), data=st.data())
def test_arrays_give_the_per_cell_reference_bits(arrays, data):
    """On any counts, forgetting_metrics has the bits of the per-cell dict
    arithmetic in helpers (or raises its error), report_to_json and
    combined_csv its bytes; after sometimes has one total raised by one, so
    its coverage differs."""
    total, before_correct, after_correct = arrays
    k, c = total.shape
    after_total = total.copy()
    if data.draw(st.booleans()):
        after_total[data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, c - 1))] += 1
    before = ek.EvaluationReport(before_correct, total)
    after = ek.EvaluationReport(after_correct, after_total)
    unlearn = UnlearnConfig(forget_class=data.draw(st.integers(0, c - 1)),
                            requesting_clients=tuple(sorted(data.draw(
                                st.sets(st.integers(0, k - 1), min_size=1)))))
    try:
        want = reference_forgetting_metrics(before, after, unlearn)
    except ek.EvalError as exc:
        # the reference names the first client whose coverage differs
        message = "cover different clients or classes" if "coverage" in str(exc) else exc
        with pytest.raises(ek.EvalError, match=re.escape(str(message))):
            ek.forgetting_metrics(before, after, unlearn)
    else:
        assert hexes(ek.forgetting_metrics(before, after, unlearn)) == hexes(want)
    for report in (before, after):
        assert ek.report_to_json(report) == reference_report_to_json(report)
    reports = {"before": before, "after": after}
    try:
        want_csv = reference_combined_csv(reports)
    except ek.EvalError as exc:
        with pytest.raises(ek.EvalError, match=f"^{re.escape(str(exc))}$"):
            ek.combined_csv(reports)
    else:
        assert ek.combined_csv(reports) == want_csv


# ---------------------------------------------------------------------------
# emission


def test_json_roundtrip_exact():
    """A report's JSON holds its counts and accuracies only: the route and
    seed are in metrics.json's record, and the forgetting metrics too."""
    report = report_from_counts({0: {0: (3, 4), 1: (2, 2)}, 1: {0: (1, 5), 1: (4, 4)}})
    text = ek.report_to_json(report)
    assert sorted(json.loads(text)) == ["clients", "global"]
    back = ek.report_from_json(text, 2, 2)
    assert counts_of(back) == counts_of(report)
    assert ek.report_to_json(back) == text


def test_json_roundtrip_orders_clients_and_classes_by_integer_id():
    """JSON keys sort as strings ("10" before "2"); the rows and columns
    come back in integer order."""
    counts = {cid: {c: (cid % 3 + c % 2, 4 + c) for c in range(12)} for cid in range(12)}
    report = report_from_counts(counts)
    back = ek.report_from_json(ek.report_to_json(report), 12, 12)
    assert counts_of(back) == counts_of(report)
    assert back.total[10].tolist() == [4 + c for c in range(12)]


@settings(max_examples=30)
@given(arrays=count_arrays())
def test_json_roundtrip_property(arrays):
    """report_from_json(report_to_json(r), k, C) gives back r's arrays,
    absent cells included."""
    total, correct, _ = arrays
    report = ek.EvaluationReport(correct, total)
    back = ek.report_from_json(ek.report_to_json(report), *total.shape)
    assert same_bits(back.correct, correct) and same_bits(back.total, total)


def damaged(edit):
    """A two-client, three-class report's JSON text after edit(doc)."""
    doc = json.loads(ek.report_to_json(report_from_counts(
        {0: {0: (3, 4), 2: (1, 1)}, 1: {1: (0, 2)}}, classes=3)))
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("text, message", [
    ("{\"clients\": ", "not valid JSON"),
    (damaged(lambda doc: doc.pop("clients")), "no 'clients' object"),
    ("[1, 2]", "no 'clients' object"),
    (damaged(lambda doc: doc["clients"].pop("1")), r"client ids \['0'\] are not 0..1"),
    (damaged(lambda doc: doc["clients"].update({"2": doc["clients"]["1"]})),
     r"client ids \['0', '1', '2'\] are not 0..1"),
    (damaged(lambda doc: doc["clients"]["0"]["classes"].update(
        {"3": {"correct": 1, "total": 1}})), "client 0 class '3': not a class id in 0..2"),
    (damaged(lambda doc: doc["clients"]["1"]["classes"]["1"].update(total="x")),
     "client 1 class '1': correct and total must be integers"),
    (damaged(lambda doc: doc["clients"]["1"]["classes"]["1"].update(correct=1.0)),
     "client 1 class '1': correct and total must be integers"),
    (damaged(lambda doc: doc["clients"]["0"]["classes"].update({"1": 5})),
     "client 0 class '1': correct and total must be integers"),
    (damaged(lambda doc: doc["clients"]["0"]["classes"]["2"].update(correct=0, total=0)),
     "client 0 class '2': total 0 not in 1..9223372036854775807"),
    (damaged(lambda doc: doc["clients"]["0"]["classes"]["0"].update(correct=5)),
     r"client 0 class '0': correct 5 not in 0..4"),
    (damaged(lambda doc: doc["clients"]["0"]["classes"]["0"].update(correct=2**64, total=2**64)),
     "client 0 class '0': total 18446744073709551616 not in 1..9223372036854775807"),
    (damaged(lambda doc: doc["clients"]["1"].update(classes={})), "client 1: no classes"),
], ids=["json", "no-clients", "not-an-object", "missing-client", "extra-client",
        "class-out-of-range", "string-count", "float-count", "cell-not-object", "zero-total",
        "correct-above-total", "count-beyond-int64", "no-classes"])
def test_report_from_json_refuses_a_damaged_report(text, message):
    with pytest.raises(ek.EvalError, match=message):
        ek.report_from_json(text, 2, 3)


def test_emission_byte_stable(tmp_path):
    report = report_from_counts({0: {0: (3, 4)}})
    for emit in (ek.report_to_json, lambda r: ek.combined_csv({"x": r})):
        p1, p2 = tmp_path / "a", tmp_path / "b"
        p1.write_bytes(emit(report).encode("utf-8"))
        p2.write_bytes(emit(report_from_counts({0: {0: (3, 4)}}))
                       .encode("utf-8"))
        assert p1.read_bytes() == p2.read_bytes()


def test_csv_row_count_ten_clients_nine_classes():
    counts = {cid: {c: (1, 2) for c in range(9)} for cid in range(10)}
    report = report_from_counts(counts)
    text = ek.combined_csv({"before": report})
    lines = text.strip().split("\n")
    assert len(lines) == 1 + 90
    assert lines[0] == "client,class,before"
    assert lines[1] == "0,0,50.00"


def test_combined_csv_columns():
    counts = {0: {0: (1, 2), 1: (2, 2)}}
    a = report_from_counts(counts)
    b = report_from_counts({0: {0: (0, 2), 1: (2, 2)}})
    text = ek.combined_csv({"before": a, "delete": b})
    lines = text.strip().split("\n")
    assert lines[0] == "client,class,before,delete"
    assert lines[1] == "0,0,50.00,0.00"
    with pytest.raises(ek.EvalError):
        ek.combined_csv({"before": a, "bad": report_from_counts({1: {0: (1, 2)}})})


def test_combined_csv_strategy_columns_in_given_order():
    """The evaluate stage's report.csv: "before" then the route, and compare's
    table: the columns in the order given, not sorted."""
    before = report_from_counts({0: {0: (9, 10)}, 1: {0: (1, 3)}})
    after = report_from_counts({0: {0: (0, 10)}, 1: {0: (2, 3)}})
    assert ek.combined_csv({"before": before, "zeroing": after}) == (
        "client,class,before,zeroing\n0,0,90.00,0.00\n1,0,33.33,66.67\n")
    assert ek.combined_csv({"zeroing": after, "delete": before}).split("\n")[0] == \
        "client,class,zeroing,delete"
