"""Baseline route tests."""
import dataclasses

import numpy as np
import pytest

from fusim import datasets as ds
from fusim import nncore as nn
from fusim import unlearn_routes as ur
from fusim.config import ConfigError
from helpers import library_step, same_bits, subset, synthetic_domain, vector


def shard_of(labels, value=0.5, side=4, class_count=10):
    """One constant image per label; value may be one number per example."""
    values = np.broadcast_to(np.asarray(value, dtype=np.float64), (len(labels),))
    images = np.ones((len(labels), 1, side, side)) * values[:, None, None, None]
    return ds.DomainDataset(images, np.asarray(labels, dtype=np.int64), "t", class_count)


def deleted(shard, forget_class):
    """The shard's examples at the positions delete keeps."""
    return subset(shard, ur.delete_retrain_prepare(shard.labels, forget_class))


def relabeled(shard, *args, **kwargs):
    """The shard with the labels relabel gives."""
    return dataclasses.replace(shard, labels=ur.relabel_poison_prepare(shard.labels, *args,
                                                                       **kwargs))


# ---------------------------------------------------------------------------
# delete


def test_delete_removes_forget_class_in_order():
    shard = shard_of([0, 1, 0, 2], value=[0.1, 0.2, 0.3, 0.4])
    assert ur.delete_retrain_prepare(shard.labels, 0).tolist() == [1, 3]
    out = deleted(shard, 0)
    assert out.labels.tolist() == [1, 2]
    assert np.array_equal(out.images, shard.images[[1, 3]])


def test_delete_without_forget_class_unchanged():
    shard = shard_of([1, 2], value=[0.1, 0.2])
    out = deleted(shard, 0)
    assert np.array_equal(out.labels, shard.labels)
    assert np.array_equal(out.images, shard.images)


def test_delete_drops_exact_count():
    shard = synthetic_domain(1, 4, (8, 8), 10, 100)
    zero_count = int((shard.labels == 0).sum())
    out = deleted(shard, 0)
    assert len(out) == len(shard) - zero_count
    assert zero_count == 100


def test_delete_empty_result_errors():
    with pytest.raises(ConfigError, match="deleting the forget class empties the shard"):
        deleted(shard_of([0, 0]), 0)


# ---------------------------------------------------------------------------
# relabel


def test_relabel_rewrites_only_forget_class():
    shard = shard_of([0, 0, 1], value=[0.1, 0.2, 0.3])
    out = relabeled(shard, 0, 3, seed=5)
    assert out.labels[2] == 1
    assert set(out.labels[:2].tolist()) <= {1, 2}
    assert np.array_equal(out.images, shard.images)
    assert shard.labels.tolist() == [0, 0, 1]  # the input shard is not edited


def test_relabel_no_forget_class_identical():
    out = relabeled(shard_of([1, 2]), 0, 3, seed=5)
    assert out.labels.tolist() == [1, 2]


def test_relabel_deterministic():
    shard = shard_of([0] * 50)
    a = relabeled(shard, 0, 10, seed=9)
    b = relabeled(shard, 0, 10, seed=9)
    assert np.array_equal(a.labels, b.labels)


def test_relabel_draws_match_one_scalar_draw_per_example():
    # the route's labels are those of one scalar draw per forget-class
    # example, in shard order, shifted past the forget class
    shard = shard_of([3, 1, 3, 0, 3, 3, 2] * 30)
    out = relabeled(shard, 3, 5, seed=(4, 853, 2))
    rng = nn.make_rng((4, 853, 2), 701)
    expected = []
    for label in shard.labels.tolist():
        if label == 3:
            draw = int(rng.integers(0, 4))
            label = draw if draw < 3 else draw + 1
        expected.append(label)
    assert out.labels.tolist() == expected


def test_relabel_uniform_over_other_classes():
    # multinomial oracle: each replacement class ~ Binomial(n, 1/9)
    n = 10000
    out = relabeled(shard_of([0] * n, side=1), 0, 10, seed=13)
    labels = out.labels
    assert not np.any(labels == 0)
    p = 1.0 / 9.0
    sigma = np.sqrt(n * p * (1 - p))
    counts = np.bincount(labels, minlength=10)[1:]
    assert np.all(np.abs(counts - n * p) <= 3 * sigma)


def test_relabel_needs_two_classes():
    with pytest.raises(ValueError, match="relabeling needs at least two classes"):
        relabeled(shard_of([0], class_count=1), 0, 1, seed=0)


# ---------------------------------------------------------------------------
# naive zeroing


def hand_net_three_units():
    # flatten(4) -> dense(4,3) -> relu -> dense(3,2) -> softmax
    spec = nn.small_mlp((1, 2, 2), 2, hidden=3)
    params = vector(spec, {
        "layer0.weight": [[0.1, 0.2, 0.9]] * 4,
        "layer0.bias": [0.0, 0.0, 0.01],
        "layer1.weight": [[1.0, -1.0]] * 3,
    })
    return spec, params


def test_naive_zeroing_selects_most_activated_unit_first():
    spec, params = hand_net_three_units()
    probes = shard_of([0], value=1.0, side=2)
    # hand-computed activations on an all-ones input: (0.4, 0.8, 3.61)
    assert nn.batch_unit_activations(spec, params, probes.images)[0, 2] == \
        pytest.approx(3.61, abs=1e-12)
    ranked = ur.rank_units_by_activation(spec, params, probes.images)
    assert ranked.tolist() == [2, 1, 0]
    assert spec.hidden_units[ranked[0]].tolist() == [0, 2]
    edited = spec.views(ur.naive_zeroing(spec, params, probes.images, 1))
    assert np.all(edited["layer0.weight"][:, 2] == 0.0)
    assert np.all(edited["layer0.weight"][:, :2] == spec.views(params)["layer0.weight"][:, :2])


def test_zeroing_rank_uses_each_columns_mean_bits():
    """A unit's mean is its activation column's .mean(), a pairwise sum from
    nine rows up.  Unit 0's column sums to 2**53 + 2 pairwise but to 2**53
    row by row, and unit 1's to 2**53 + 2 either way: the two tie, and the
    tie goes to position 0; means summed row by row would rank unit 1 first."""
    spec, _ = hand_net_three_units()
    params = vector(spec, {"layer0.weight": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                             [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                           "layer1.weight": [[1.0, -1.0]] * 3})
    big = 2.0 ** 53
    images = np.zeros((9, 1, 2, 2))
    images[:, 0, 0, 0] = [big, 1.0, 1.0, 1.0, 0, 0, 0, 0, 0]
    images[:, 0, 0, 1] = [big + 2.0, 0, 0, 0, 0, 0, 0, 0, 0]
    acts = nn.batch_unit_activations(spec, params, images)
    assert acts[:, 0].mean() == acts[:, 1].mean()
    assert acts.mean(axis=0)[0] < acts.mean(axis=0)[1]   # the data tells them apart
    assert ur.rank_units_by_activation(spec, params, images).tolist() == [0, 1, 2]


def test_naive_zeroing_top_zero_unchanged():
    spec, params = hand_net_three_units()
    edited = ur.naive_zeroing(spec, params, shard_of([0], side=2).images, 0)
    assert same_bits(edited, params)


def test_naive_zeroing_locality():
    spec, params = hand_net_three_units()
    edited = spec.views(ur.naive_zeroing(spec, params, shard_of([0], value=1.0, side=2).images,
                                         1))
    diff_names = [k for k, v in spec.views(params).items()
                  if not np.array_equal(edited[k], v)]
    assert diff_names == ["layer0.weight", "layer0.bias"]


def test_naive_zeroing_top_m_bounds():
    spec, params = hand_net_three_units()
    with pytest.raises(ValueError, match=r"top_m=4 outside \[0, 3\] hidden units"):
        ur.naive_zeroing(spec, params, shard_of([0], side=2).images, 4)


def test_naive_zeroing_needs_forget_probes():
    spec, params = hand_net_three_units()
    with pytest.raises(ConfigError, match="no forget-class probe images"):
        ur.naive_zeroing(spec, params, np.zeros((0, 1, 2, 2)), 1)


def test_naive_zeroing_all_hidden_units_collapses_forget_class():
    # train a small model on data where class 0 is slightly under-represented,
    # then zero every hidden unit: outputs collapse to the bias prior, which
    # puts the forget class at or below chance.
    spec = nn.small_mlp((1, 8, 8), 4, hidden=12)
    shard = synthetic_domain(6, 3, (8, 8), 4, 40)
    shard = subset(shard, np.flatnonzero(
        (shard.labels != 0) | (np.arange(len(shard)) % 5 != 0)))
    params = nn.init_params(spec, 7)
    for _ in range(80):
        params = library_step(spec, params, shard.images, shard.labels, 0.5)[0]
    probes = subset(shard, np.flatnonzero(shard.labels == 0)[:20])
    before = nn.predict_probs(spec, params, probes.images)
    assert before[:, 0].mean() > 0.5  # model actually knows class 0
    edited = ur.naive_zeroing(spec, params, probes.images, 12)
    after = nn.predict_probs(spec, edited, probes.images)
    assert np.all(after[:, 0] <= 1.0 / 4.0)


def test_routes_deterministic_under_shuffling_up_to_order():
    shard = shard_of([i % 3 for i in range(30)])
    shuffled = subset(shard, np.arange(30)[::-1])
    a = deleted(shard, 0)
    b = deleted(shuffled, 0)
    assert sorted(a.labels.tolist()) == sorted(b.labels.tolist())


def test_editable_units_exclude_output_layer():
    """Zeroing ranks and edits spec.hidden_units, every parameterized
    layer's units but the output layer's, (layer, unit) layer-major; with
    top_m every hidden unit, the output layer keeps its parameters."""
    spec = nn.small_mlp((1, 4, 4), 3, hidden=5)
    assert spec.hidden_units.tolist() == [[0, k] for k in range(5)]
    cnn = nn.small_cnn((1, 12, 12), 4)
    assert cnn.hidden_units.tolist() == [[0, k] for k in range(8)] + [[1, k] for k in range(16)]
    assert cnn.hidden_units.dtype == np.intp and not cnn.hidden_units.flags.writeable
    params = nn.init_params(cnn, 3)
    images = np.random.default_rng(3).uniform(0.0, 1.0, (4, 1, 12, 12))
    assert len(ur.rank_units_by_activation(cnn, params, images)) == 24
    edited = cnn.views(ur.naive_zeroing(cnn, params, images, 24))
    assert all(np.all(edited[f"layer{k}.{p}"] == 0.0) for k in (0, 1) for p in ("weight", "bias"))
    assert same_bits(edited["layer2.weight"], cnn.views(params)["layer2.weight"])
