"""Evaluation report and metrics tests."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusim import datasets as ds
from fusim import evalkit as ek
from fusim import nncore as nn
from fusim.config import UnlearnConfig
from helpers import library_step

CLIENT0_FORGETS_0 = UnlearnConfig(forget_class=0, requesting_clients=(0,))


def constant_predictor(classes, winner, side=4):
    spec = nn.small_mlp((1, side, side), classes, hidden=3)
    params = np.zeros(spec.param_count)
    spec.views(params)["layer1.bias"][winner] = 5.0
    return spec, params


def shard_of(labels, side=4, value=0.3):
    return ds.DomainDataset(np.full((len(labels), 1, side, side), value),
                            np.asarray(labels, dtype=np.int64), "t", max(labels) + 1)


def report_from_counts(counts):
    clients = {}
    for cid, table in counts.items():
        correct = {c: v[0] for c, v in table.items()}
        total = {c: v[1] for c, v in table.items()}
        clients[cid] = ek.ClientEvaluation(correct, total)
    return ek.EvaluationReport(clients)


# ---------------------------------------------------------------------------
# per-class accuracy of one shard (build_report)


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
    acc = ek.build_report(spec, params, {0: shard}).per_class(0)
    assert acc == {0: 1.0, 1: 1.0}


def test_constant_predictor_balanced_two_class():
    spec, params = constant_predictor(2, winner=0)
    shard = shard_of([0] * 5 + [1] * 5)
    acc = ek.build_report(spec, params, {0: shard}).per_class(0)
    assert acc == {0: 1.0, 1: 0.0}


def test_per_class_accuracy_matches_hand_tally():
    spec, params = constant_predictor(3, winner=1)
    shard = shard_of([0, 0, 1, 1, 1, 2, 2, 2, 2, 1])
    # constant class-1 predictor: class 0 -> 0/2, class 1 -> 4/4, class 2 -> 0/4
    acc = ek.build_report(spec, params, {0: shard}).per_class(0)
    assert acc == {0: 0.0, 1: 1.0, 2: 0.0}


def test_absent_classes_omitted():
    spec, params = constant_predictor(4, winner=0)
    shard = shard_of([0, 0, 2])
    acc = ek.build_report(spec, params, {0: shard}).per_class(0)
    assert set(acc) == {0, 2}


# ---------------------------------------------------------------------------
# global accuracy identity


def test_global_accuracy_is_pooled_counts():
    report = report_from_counts({
        0: {0: (3, 4), 1: (2, 2)},
        1: {0: (1, 5), 1: (4, 4)},
    })
    assert report.global_correct == 10
    assert report.global_total == 15
    assert report.global_accuracy == 10 / 15
    macro = np.mean([5 / 6, 5 / 9])
    assert report.macro_global_accuracy == pytest.approx(macro)


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
    with pytest.raises(ek.EvalError):
        ek.forgetting_metrics(a, b, CLIENT0_FORGETS_0)
    c = report_from_counts({0: {0: (1, 2), 1: (1, 2)}})
    with pytest.raises(ek.EvalError):
        ek.forgetting_metrics(a, c, CLIENT0_FORGETS_0)


# ---------------------------------------------------------------------------
# emission


def test_json_roundtrip_exact():
    """A report's JSON holds its counts and accuracies only: the route and
    seed are in metrics.json's record, and the forgetting metrics too."""
    report = report_from_counts({0: {0: (3, 4), 1: (2, 2)}, 1: {0: (1, 5), 1: (4, 4)}})
    text = ek.report_to_json(report)
    assert sorted(json.loads(text)) == ["clients", "global"]
    back = ek.report_from_json(text)
    assert back.clients == report.clients
    assert ek.report_to_json(back) == text


def test_json_roundtrip_orders_clients_and_classes_by_integer_id():
    counts = {cid: {c: (cid % 3 + c % 2, 4) for c in range(12)} for cid in range(12)}
    report = report_from_counts(counts)
    back = ek.report_from_json(ek.report_to_json(report))
    assert list(back.clients) == list(range(12))
    assert all(list(ev.class_total) == list(range(12)) for ev in back.clients.values())
    assert back.macro_global_accuracy == report.macro_global_accuracy


def test_json_text_survives_a_round_trip_of_clients_out_of_integer_order():
    """macro_accuracy is averaged in client-id order: the mean over clients
    0, 1, 3, 2 in dict order differs from it in the last bit."""
    report = report_from_counts({0: {0: (1, 3)}, 1: {0: (1, 3)}, 3: {0: (3, 7)},
                                 2: {0: (1, 3)}})
    text = ek.report_to_json(report)
    back = ek.report_from_json(text)
    assert list(back.clients) == [0, 1, 2, 3]
    assert ek.report_to_json(back) == text


CLASS_COUNTS = st.tuples(st.integers(0, 60), st.integers(1, 60)).map(
    lambda t: (min(t), t[1]))  # (correct, total), correct <= total


@settings(max_examples=30)
@given(counts=st.dictionaries(st.integers(0, 120),
                              st.dictionaries(st.integers(0, 120), CLASS_COUNTS,
                                              min_size=1, max_size=8),
                              min_size=1, max_size=8))
def test_json_roundtrip_property(counts):
    """For any client and class ids, the report comes back equal, with
    clients and classes in integer order ("10" after "2")."""
    report = report_from_counts(counts)
    back = ek.report_from_json(ek.report_to_json(report))
    assert back == report
    assert list(back.clients) == sorted(counts)
    for cid, ev in back.clients.items():
        assert list(ev.class_total) == list(ev.class_correct) == sorted(counts[cid])


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
