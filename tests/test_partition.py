"""Partition strategy tests."""
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fusim import datasets as ds
from fusim import partition as pt
from fusim.config import STRATEGIES, ConfigError, PartitionConfig
from helpers import (reference_label_intersection, reference_partition_dirichlet, same_bits,
                     synthetic_domain)


def synth(classes=10, per_class=100, seed=1, name="synthetic"):
    return synthetic_domain(3, seed, (8, 8), classes, per_class, domain_id=name)


def label_marginal(dataset, indices, classes):
    labels = dataset.labels[indices]
    return np.bincount(labels, minlength=classes) / len(indices)


def pooled(domains):
    """The train pool over whole domains, in order: its labels and each
    domain's (name, start, stop) block, as experiment.build_task lays them."""
    stops = np.cumsum([len(d) for d in domains]).tolist()
    return (np.concatenate([d.labels for d in domains]),
            tuple(zip([d.domain_id for d in domains], [0] + stops[:-1], stops)))


def client_domains(plan):
    """Per client, the names of the domains it holds examples of."""
    return [set(c["domains"]) for c in plan.to_doc()["clients"]]


# ---------------------------------------------------------------------------
# iid


def test_iid_single_client_gets_everything():
    [client] = pt.partition_iid(15, 1, 0)
    assert client.dtype == np.intp and client.tolist() == list(range(15))


def test_iid_sizes_differ_by_at_most_one():
    clients = pt.partition_iid(10, 3, 7)
    assert sorted((len(c) for c in clients), reverse=True) == [4, 3, 3]


def test_iid_label_marginals_close_to_global():
    d = synth(classes=10, per_class=1000, seed=2)
    global_m = np.bincount(d.labels, minlength=10) / len(d)
    for c in pt.partition_iid(len(d), 10, 5):
        m = label_marginal(d, c, 10)
        assert np.max(np.abs(m - global_m)) < 0.05


def test_iid_too_many_clients():
    with pytest.raises(ConfigError,
                       match="partition.clients: cannot split 4 examples across 5 clients"):
        pt.partition_iid(4, 5, 0)


def test_iid_deterministic():
    first, second = pt.partition_iid(1000, 4, 9), pt.partition_iid(1000, 4, 9)
    assert [c.tolist() for c in first] == [c.tolist() for c in second]


# ---------------------------------------------------------------------------
# dirichlet


def test_dirichlet_huge_alpha_near_iid():
    d = synth(classes=10, per_class=1000, seed=3)
    global_m = np.bincount(d.labels, minlength=10) / len(d)
    for c in pt.partition_dirichlet(d.labels, 10, 1e6, 1):
        m = label_marginal(d, c, 10)
        assert np.max(np.abs(m - global_m)) < 0.02


def test_dirichlet_single_client():
    d = synth(classes=3, per_class=10)
    [client] = pt.partition_dirichlet(d.labels, 1, 0.1, 4)
    assert client.tolist() == list(range(30))


def test_dirichlet_small_alpha_concentrates_labels():
    d = synth(classes=10, per_class=100, seed=4)
    hits = 0
    for seed in range(10):
        for c in pt.partition_dirichlet(d.labels, 10, 0.1, seed):
            m = label_marginal(d, c, 10)
            if m.max() > 0.5:
                hits += 1
                break
    assert hits >= 8


def test_dirichlet_conservation_and_disjoint():
    d = synth(classes=5, per_class=40)
    clients = pt.partition_dirichlet(d.labels, 6, 0.5, 11)
    all_idx = [i for c in clients for i in c.tolist()]
    assert len(all_idx) == len(set(all_idx)) == len(d)


@given(st.sets(st.integers(0, 9), min_size=1), st.integers(1, 20), st.integers(1, 5),
       st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
@example({0, 3, 7}, 6, 3, 0.5, 2)   # classes 1, 2, 4-6, 8 and 9 absent
@example({5}, 8, 4, 0.5, 2)         # a single class, and not class 0
def test_dirichlet_classes_from_bincount_equal_np_unique_ones(present, per_class, clients,
                                                              alpha, seed):
    """The split over the classes np.bincount finds is the one over
    np.unique's, absent classes and all; the golden file and the digests
    hold only the configured seeds."""
    labels = np.random.default_rng(seed).permutation(np.repeat(sorted(present), per_class))
    assume(clients <= len(labels))
    expected = reference_partition_dirichlet(labels, clients, alpha, seed)
    if expected is None:
        with pytest.raises(ConfigError, match="no nonempty Dirichlet assignment"):
            pt.partition_dirichlet(labels, clients, alpha, seed)
    else:
        got = pt.partition_dirichlet(labels, clients, alpha, seed)
        assert len(got) == len(expected) and all(map(same_bits, got, expected))


def test_dirichlet_rejects_bad_alpha():
    d = synth(classes=2, per_class=5)
    with pytest.raises(ValueError, match="alpha must be positive, got 0.0"):
        pt.partition_dirichlet(d.labels, 2, 0.0, 0)


def test_dirichlet_impossible_assignment():
    d = synth(classes=2, per_class=2)
    with pytest.raises(ConfigError,
                       match="partition.clients: cannot assign 4 examples to 10 clients"):
        pt.partition_dirichlet(d.labels, 10, 1.0, 0)


# ---------------------------------------------------------------------------
# label_intersection


def source(classes, per_class, seed=1, name="synthetic"):
    """A synthetic domain's source, by its labels; no image is made."""
    return ds.synth_domain(ds.BaseStream(3, seed, (8, 8), classes), (), per_class, name)


def test_label_intersection_ten_and_nine():
    a = source(classes=10, per_class=10, name="a")
    b = source(classes=9, per_class=10, name="b")
    remapped = pt.label_intersection([a, b], 9)
    assert [d.class_count for d in remapped] == [9, 9]
    assert len(remapped[0]) == 90  # class 9 dropped
    assert len(remapped[1]) == 90
    keep = a.labels < 9
    assert np.array_equal(remapped[0].rows, a.rows[keep])
    assert np.array_equal(remapped[0].labels, a.labels[keep])
    assert remapped[0].size == a.size == 100  # the source still makes every sample
    # b has no higher class, so it is kept as it is
    assert remapped[1] is b


def test_label_intersection_identity():
    a = source(classes=4, per_class=5, name="a")
    b = source(classes=4, per_class=5, seed=2, name="b")
    remapped = pt.label_intersection([a, b], 4)
    assert remapped[0] is a and remapped[1] is b
    assert remapped[0].class_count == 4 and len(remapped[0]) == 20


def test_label_intersection_hundred_and_sixtyfive():
    a = source(classes=100, per_class=2, name="a")
    b = source(classes=65, per_class=2, name="b")
    remapped = pt.label_intersection([a, b], 65)
    assert [d.class_count for d in remapped] == [65, 65]
    assert np.array_equal(remapped[0].labels, a.labels[a.labels < 65])


# ---------------------------------------------------------------------------
# build_plan


def real_noniid(domains, group_sizes, resolution, alpha, seed):
    """The shared label space, the working resolution, then build_plan over
    the pool of whole domains: the steps experiment.build_task runs before
    planning a real_noniid split."""
    shared = min(d.class_count for d in domains)
    processed = [replace(d, images=ds.resize(d.images, resolution))
                 for d in reference_label_intersection(domains, shared)]
    part = PartitionConfig("real_noniid", alpha=alpha, group_sizes=tuple(group_sizes),
                           working_resolution=resolution)
    return pt.build_plan(part, *pooled(processed), seed), processed


def test_build_plan_single_domain_strategies():
    d = synth(classes=5, per_class=20, name="d")
    iid = pt.build_plan(PartitionConfig("iid", clients=4), *pooled([d]), 3)
    assert [c.tolist() for c in iid.clients] == \
        [c.tolist() for c in pt.partition_iid(len(d), 4, 3)]
    skewed = pt.build_plan(PartitionConfig("dirichlet", clients=4, alpha=0.5), *pooled([d]), 3)
    assert [c.tolist() for c in skewed.clients] == \
        [c.tolist() for c in pt.partition_dirichlet(d.labels, 4, 0.5, 3)]


def test_build_plan_rejects_group_count_mismatch():
    domains = [synth(name="a"), synth(name="b")]
    with pytest.raises(ValueError, match="2 domains but 3 group sizes"):
        pt.build_plan(PartitionConfig(group_sizes=(1, 1, 1)), *pooled(domains), 0)


def test_real_noniid_three_by_three():
    domains = [synth(per_class=30, seed=i, name=f"dom{i}") for i in range(3)]
    plan, processed = real_noniid(domains, [3, 3, 3], (8, 8), 100.0, 5)
    assert len(plan.clients) == 9
    assert client_domains(plan) == [{f"dom{g}"} for g in range(3) for _ in range(3)]
    assert len(processed) == 3


def test_real_noniid_two_by_five():
    domains = [synth(classes=10, per_class=20, seed=1, name="lo"),
               synth(classes=9, per_class=20, seed=2, name="hi")]
    plan, processed = real_noniid(domains, [5, 5], (8, 8), 100.0, 3)
    assert len(plan.clients) == 10
    assert client_domains(plan) == [{"lo"}] * 5 + [{"hi"}] * 5
    # shared label space across every client
    assert all(d.class_count == 9 for d in processed)


def test_real_noniid_single_group_degenerates():
    d = synth(classes=4, per_class=10, name="only")
    plan, processed = real_noniid([d], [1], (8, 8), 100.0, 0)
    assert len(plan.clients) == 1
    assert plan.clients[0].tolist() == list(range(len(processed[0])))


def test_real_noniid_resizes_to_working_resolution():
    a = synth(classes=4, per_class=10, name="a")
    b = synthetic_domain(3, 1, (16, 16), 4, 10, "downsample(2)", "b")
    assert b.images.shape[2:] == (8, 8)
    plan, processed = real_noniid([a, b], [2, 2], (12, 12), 100.0, 2)
    assert all(d.images.shape[2:] == (12, 12) for d in processed)
    pool = np.concatenate([d.images for d in processed])
    assert all(pool[index].shape[1:] == (1, 12, 12) for index in pt.materialize(plan))


def test_real_noniid_label_sets_identical_across_clients():
    domains = [synth(per_class=60, seed=i, name=f"d{i}") for i in range(3)]
    plan, processed = real_noniid(domains, [3, 3, 3], (8, 8), 100.0, 7)
    labels, _ = pooled(processed)
    label_sets = [frozenset(labels[index].tolist()) for index in pt.materialize(plan)]
    assert len(set(label_sets)) == 1
    # feature divergence: domain differs across groups, one domain per client
    assert client_domains(plan) == [{f"d{g}"} for g in range(3) for _ in range(3)]


# ---------------------------------------------------------------------------
# the plan over the pool


@pytest.mark.parametrize("clients, match", [
    (([0, 1], []), "client 1 received no samples"),
    (([0, 1], [2, 6]), r"client 1: indices outside the pool \[0, 6\)"),
    (([0, 1, 4], [1, 4, 5]), r"pool indices \[1, 4\]\.\.\. assigned to more than one"),
])
def test_plan_refuses_empty_outside_or_shared_clients(clients, match):
    with pytest.raises(ValueError, match=match):
        pt.PartitionPlan(tuple(np.array(c, dtype=np.intp) for c in clients),
                         (("a", 0, 4), ("b", 4, 6)))


@settings(max_examples=60)
@given(strategy=st.sampled_from(STRATEGIES),
       domains=st.lists(st.tuples(st.integers(8, 40), st.integers(1, 5), st.integers(1, 4)),
                        min_size=1, max_size=3),
       clients=st.integers(1, 6), alpha=st.floats(0.3, 100.0), seed=st.integers(0, 2 ** 16))
def test_plan_clients_are_disjoint_nonempty_pool_vectors_the_doc_restores(
        strategy, domains, clients, alpha, seed):
    """Under every strategy each client is a nonempty vector of pool indices
    no other client holds (iid and dirichlet cover the whole pool), and
    to_doc's per-domain indices plus each block's start give it back, and
    nothing else: each client's count is partition.json's record."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate([rng.integers(0, classes, size=n) for n, classes, _ in domains])
    stops = np.cumsum([n for n, _, _ in domains]).tolist()
    blocks = tuple(zip("zam", [0] + stops[:-1], stops))
    part = PartitionConfig(strategy, clients=clients, alpha=alpha,
                           group_sizes=tuple(size for *_, size in domains))
    try:
        plan = pt.build_plan(part, labels, blocks, seed)
    except ConfigError:
        assume(False)
    assert len(plan.clients) == sum(part.groups)
    held = np.concatenate(plan.clients)
    assert all(len(c) for c in plan.clients)
    assert len(np.unique(held)) == len(held)
    assert held.min() >= 0 and held.max() < stops[-1]
    if strategy != "real_noniid":
        assert len(held) == stops[-1]
    for c, entry in zip(plan.clients, plan.to_doc()["clients"]):
        restored = [i + start for name, start, _ in blocks
                    for i in entry["domains"].get(name, [])]
        assert restored == c.tolist() and list(entry) == ["domains"]


# ---------------------------------------------------------------------------
# plan serialization


def test_plan_json_roundtrip():
    """plan.json's document holds, per client, its indices into each
    domain's train split, and no copy of the count, strategy, seed or alpha
    partition.json's record holds, and survives JSON as it is."""
    domains = [synth(classes=5, per_class=20, name=n) for n in ("b", "a")]
    plan = pt.build_plan(PartitionConfig("dirichlet", clients=4, alpha=0.7),
                         *pooled(domains), 13)
    doc = plan.to_doc()
    assert json.loads(json.dumps(doc, sort_keys=True, indent=1)) == doc
    assert list(doc) == ["clients"]
    for c, entry in zip(plan.clients, doc["clients"]):
        assert list(entry) == ["domains"]
        assert entry["domains"] == {
            name: (c[(c >= a) & (c < b)] - a).tolist()
            for name, a, b in plan.blocks if ((c >= a) & (c < b)).any()}
    assert sum(len(ix) for c in doc["clients"] for ix in c["domains"].values()) == 200


# ---------------------------------------------------------------------------
# materialize


def test_materialize_gives_each_client_its_plan_indices_as_intp():
    d = synth(classes=4, per_class=10, name="d")
    plan = pt.build_plan(PartitionConfig("dirichlet", clients=3, alpha=0.5), *pooled([d]), 4)
    for c, index in zip(plan.clients, pt.materialize(plan)):
        assert index.dtype == np.intp and index.tolist() == c.tolist()
