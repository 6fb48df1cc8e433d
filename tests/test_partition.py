"""Partition strategy tests."""
import json

import numpy as np
import pytest

from fusim import datasets as ds
from fusim import partition as pt
from fusim.config import PartitionConfig


def synth(classes=10, per_class=100, seed=1, transforms="identity", name=None):
    spec = ds.SyntheticDomainSpec(
        base_pattern_seed=3, transforms=ds.parse_transforms(transforms),
        resolution=(8, 8), samples_per_class=per_class, class_count=classes)
    return ds.synth_domain(spec, seed, domain_id=name)


def label_marginal(dataset, indices, classes):
    labels = dataset.labels[list(indices)]
    return np.bincount(labels, minlength=classes) / len(indices)


# ---------------------------------------------------------------------------
# iid


def test_iid_single_client_gets_everything():
    d = synth(classes=3, per_class=5)
    plan = pt.partition_iid(d, 1, 0)
    assert len(plan.clients) == 1
    assert plan.clients[0].count == 15
    assert sorted(plan.clients[0].indices) == list(range(15))


def test_iid_sizes_differ_by_at_most_one():
    d = synth(classes=2, per_class=5)  # 10 examples
    plan = pt.partition_iid(d, 3, 7)
    assert sorted((c.count for c in plan.clients), reverse=True) == [4, 3, 3]


def test_iid_label_marginals_close_to_global():
    d = synth(classes=10, per_class=1000, seed=2)
    plan = pt.partition_iid(d, 10, 5)
    global_m = np.bincount(d.labels, minlength=10) / len(d)
    for c in plan.clients:
        m = label_marginal(d, c.indices, 10)
        assert np.max(np.abs(m - global_m)) < 0.05


def test_iid_too_many_clients():
    d = synth(classes=2, per_class=2)
    with pytest.raises(pt.PartitionError):
        pt.partition_iid(d, 5, 0)


def test_iid_deterministic():
    d = synth()
    assert pt.partition_iid(d, 4, 9) == pt.partition_iid(d, 4, 9)


# ---------------------------------------------------------------------------
# dirichlet


def test_dirichlet_huge_alpha_near_iid():
    d = synth(classes=10, per_class=1000, seed=3)
    plan = pt.partition_dirichlet(d, 10, 1e6, 1)
    global_m = np.bincount(d.labels, minlength=10) / len(d)
    for c in plan.clients:
        m = label_marginal(d, c.indices, 10)
        assert np.max(np.abs(m - global_m)) < 0.02


def test_dirichlet_single_client():
    d = synth(classes=3, per_class=10)
    plan = pt.partition_dirichlet(d, 1, 0.1, 4)
    assert plan.clients[0].count == 30


def test_dirichlet_small_alpha_concentrates_labels():
    d = synth(classes=10, per_class=100, seed=4)
    hits = 0
    for seed in range(10):
        plan = pt.partition_dirichlet(d, 10, 0.1, seed)
        for c in plan.clients:
            m = label_marginal(d, c.indices, 10)
            if m.max() > 0.5:
                hits += 1
                break
    assert hits >= 8


def test_dirichlet_conservation_and_disjoint():
    d = synth(classes=5, per_class=40)
    plan = pt.partition_dirichlet(d, 6, 0.5, 11)
    all_idx = [i for c in plan.clients for i in c.indices]
    assert len(all_idx) == len(set(all_idx)) == len(d)
    assert sum(c.count for c in plan.clients) == len(d)


def test_dirichlet_rejects_bad_alpha():
    d = synth(classes=2, per_class=5)
    with pytest.raises(pt.PartitionError):
        pt.partition_dirichlet(d, 2, 0.0, 0)


def test_dirichlet_impossible_assignment():
    d = synth(classes=2, per_class=2)
    with pytest.raises(pt.PartitionError):
        pt.partition_dirichlet(d, 10, 1.0, 0)


# ---------------------------------------------------------------------------
# label_intersection


def test_label_intersection_ten_and_nine():
    a = synth(classes=10, per_class=10, name="a")
    b = synth(classes=9, per_class=10, name="b")
    shared, mapping, remapped = pt.label_intersection([a, b])
    assert shared == list(range(9))
    assert mapping == {i: i for i in range(9)}
    assert remapped[0].class_count == 9
    assert len(remapped[0]) == 90  # class 9 dropped
    assert len(remapped[1]) == 90
    keep = a.labels < 9
    assert np.array_equal(remapped[0].images, a.images[keep])
    assert np.array_equal(remapped[0].labels, a.labels[keep])
    # b keeps every example, so its images are not copied
    assert remapped[1].images is b.images
    assert np.array_equal(remapped[1].labels, b.labels)


def test_label_intersection_identity():
    a = synth(classes=4, per_class=5, name="a")
    b = synth(classes=4, per_class=5, seed=2, name="b")
    shared, mapping, remapped = pt.label_intersection([a, b])
    assert shared == [0, 1, 2, 3]
    assert all(mapping[k] == k for k in mapping)
    assert len(remapped[0]) == 20


def test_label_intersection_hundred_and_sixtyfive():
    a = synth(classes=100, per_class=2, name="a")
    b = synth(classes=65, per_class=2, name="b")
    shared, _, _ = pt.label_intersection([a, b])
    assert len(shared) == 65


# ---------------------------------------------------------------------------
# build_plan


def real_noniid(domains, group_sizes, resolution, alpha, seed):
    """The shared label space, the working resolution, then build_plan: the
    steps experiment.build_task runs before planning a real_noniid split."""
    _, _, remapped = pt.label_intersection(domains)
    processed = [ds.resize(d, resolution) for d in remapped]
    part = PartitionConfig("real_noniid", alpha=alpha, group_sizes=tuple(group_sizes),
                           working_resolution=resolution)
    return pt.build_plan(part, processed, seed), processed


def test_build_plan_single_domain_strategies():
    d = synth(classes=5, per_class=20)
    assert pt.build_plan(PartitionConfig("iid", clients=4), [d], 3) == \
        pt.partition_iid(d, 4, 3)
    assert pt.build_plan(PartitionConfig("dirichlet", clients=4, alpha=0.5), [d], 3) == \
        pt.partition_dirichlet(d, 4, 0.5, 3)


def test_build_plan_rejects_group_count_mismatch():
    domains = [synth(name="a"), synth(name="b")]
    with pytest.raises(pt.PartitionError, match="2 domains but 3 group sizes"):
        pt.build_plan(PartitionConfig(group_sizes=(1, 1, 1)), domains, 0)


def test_real_noniid_three_by_three():
    domains = [synth(per_class=30, seed=i, name=f"dom{i}") for i in range(3)]
    plan, processed = real_noniid(domains, [3, 3, 3], (8, 8), 100.0, 5)
    assert len(plan.clients) == 9
    for i in range(3):
        assert plan.clients[i].domain_id == "dom0"
    for i in range(3, 6):
        assert plan.clients[i].domain_id == "dom1"
    assert len(processed) == 3


def test_real_noniid_two_by_five():
    domains = [synth(classes=10, per_class=20, seed=1, name="lo"),
               synth(classes=9, per_class=20, seed=2, name="hi")]
    plan, processed = real_noniid(domains, [5, 5], (8, 8), 100.0, 3)
    assert len(plan.clients) == 10
    assert {c.domain_id for c in plan.clients[:5]} == {"lo"}
    assert {c.domain_id for c in plan.clients[5:]} == {"hi"}
    # shared label space across every client
    assert all(d.class_count == 9 for d in processed)


def test_real_noniid_single_group_degenerates():
    d = synth(classes=4, per_class=10, name="only")
    plan, processed = real_noniid([d], [1], (8, 8), 100.0, 0)
    assert len(plan.clients) == 1
    assert plan.clients[0].count == len(processed[0])


def test_real_noniid_resizes_to_working_resolution():
    a = synth(classes=4, per_class=10, name="a")
    spec = ds.SyntheticDomainSpec(base_pattern_seed=3,
                                  transforms=ds.parse_transforms("downsample(2)"),
                                  resolution=(16, 16), samples_per_class=10,
                                  class_count=4)
    b = ds.synth_domain(spec, 1, domain_id="b")
    assert b.native_resolution == (8, 8)
    plan, processed = real_noniid([a, b], [2, 2], (12, 12), 100.0, 2)
    assert all(d.native_resolution == (12, 12) for d in processed)
    lookup = {d.domain_id: d for d in processed}
    shards = [lookup[c.domain_id].images[index]
              for c, index in zip(plan.clients, pt.materialize(plan))]
    assert all(s.shape[1:] == (1, 12, 12) for s in shards)


def test_real_noniid_label_sets_identical_across_clients():
    domains = [synth(per_class=60, seed=i, name=f"d{i}") for i in range(3)]
    plan, processed = real_noniid(domains, [3, 3, 3], (8, 8), 100.0, 7)
    lookup = {d.domain_id: d for d in processed}
    label_sets = [frozenset(lookup[c.domain_id].labels[index].tolist())
                  for c, index in zip(plan.clients, pt.materialize(plan))]
    assert len(set(label_sets)) == 1
    # feature divergence: domain differs across groups
    assert len({c.domain_id for c in plan.clients}) == 3


# ---------------------------------------------------------------------------
# plan serialization


def test_plan_json_roundtrip():
    """partition.json's document holds the plan's clients, and no copy of the
    strategy, seed or alpha its config record holds, and survives JSON as it
    is."""
    d = synth(classes=5, per_class=20)
    plan = pt.partition_dirichlet(d, 4, 0.7, 13)
    doc = plan.to_doc()
    assert json.loads(json.dumps(doc, sort_keys=True, indent=1)) == doc
    assert list(doc) == ["clients"]
    assert doc["clients"] == [{"domain": c.domain_id, "indices": list(c.indices),
                               "count": c.count} for c in plan.clients]
    assert sum(c["count"] for c in doc["clients"]) == len(d)


# ---------------------------------------------------------------------------
# materialize


def test_materialize_gives_each_client_its_plan_indices_as_intp():
    d = synth(classes=4, per_class=10, name="d")
    plan = pt.partition_dirichlet(d, 3, 0.5, 4)
    for c, index in zip(plan.clients, pt.materialize(plan)):
        assert index.dtype == np.intp and index.tolist() == list(c.indices)
