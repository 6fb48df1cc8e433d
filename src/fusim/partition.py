"""Client data assignment: IID, Dirichlet label skew, and domain-per-group.

A PartitionPlan is pure bookkeeping: per client, a domain id and a list of
example indices into that domain's dataset.  build_plan is the one entry
point that picks the configured regime:

* iid        — one dataset, uniform shuffle-split.
* dirichlet  — one dataset, per-class client proportions from Dirichlet(alpha);
               small alpha skews each client's label prior.
* real_noniid — one source domain per client group, each group splitting its
               domain via Dirichlet(alpha); feature distributions differ across
               groups while labels stay comparable.

label_intersection maps every domain onto the shared label space (a lookup
table over the label array, plus a mask that drops the rest), and
materialize turns a plan into per-client index vectors.  A plan is a pure
function of the config: to_doc records it in partition.json for readers,
and nothing reads that record back.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PartitionConfig
from .datasets import DomainDataset
from .nncore import make_rng

DIRICHLET_MAX_RETRIES = 100


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class ClientAssignment:
    domain_id: str
    indices: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class PartitionPlan:
    clients: tuple[ClientAssignment, ...]

    def __post_init__(self):
        per_domain: dict[str, set[int]] = {}
        for i, c in enumerate(self.clients):
            if c.count < 1:
                raise PartitionError(f"client {i} received no samples")
            seen = per_domain.setdefault(c.domain_id, set())
            overlap = seen.intersection(c.indices)
            if overlap:
                raise PartitionError(
                    f"client {i}: indices {sorted(overlap)[:4]}... already assigned "
                    f"within domain {c.domain_id}")
            seen.update(c.indices)

    def to_doc(self) -> dict:
        """The plan as the JSON document partition.json records; the strategy,
        seed and alpha are in the record's config values."""
        return {
            "clients": [
                {"domain": c.domain_id, "indices": list(c.indices), "count": c.count}
                for c in self.clients
            ],
        }


def partition_iid(dataset: DomainDataset, client_count: int, seed) -> PartitionPlan:
    """Shuffled near-equal split; client sizes differ by at most one."""
    n = len(dataset)
    if client_count < 1:
        raise PartitionError("client_count must be >= 1")
    if client_count > n:
        raise PartitionError(f"cannot split {n} examples across {client_count} clients")
    rng = make_rng(seed, 401)
    order = rng.permutation(n)
    base, extra = divmod(n, client_count)
    clients = []
    start = 0
    for k in range(client_count):
        size = base + (1 if k < extra else 0)
        clients.append(ClientAssignment(
            dataset.domain_id, tuple(sorted(int(i) for i in order[start:start + size]))))
        start += size
    return PartitionPlan(tuple(clients))


def _dirichlet_assign(labels: np.ndarray, client_count: int, alpha: float,
                      rng: np.random.Generator) -> list[list[int]]:
    buckets: list[list[int]] = [[] for _ in range(client_count)]
    classes = np.unique(labels)
    for c in classes:
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(idx.size)]
        props = rng.dirichlet([alpha] * client_count)
        cuts = (np.cumsum(props) * idx.size).astype(int)[:-1]
        for k, chunk in enumerate(np.split(idx, cuts)):
            buckets[k].extend(int(i) for i in chunk)
    return buckets


def partition_dirichlet(dataset: DomainDataset, client_count: int, alpha: float,
                        seed) -> PartitionPlan:
    """Per-class Dirichlet(alpha) proportions; redraws until no client is empty."""
    if alpha <= 0:
        raise PartitionError(f"alpha must be positive, got {alpha}")
    n = len(dataset)
    if client_count < 1:
        raise PartitionError("client_count must be >= 1")
    if client_count > n:
        raise PartitionError(f"cannot assign {n} examples to {client_count} clients")
    labels = dataset.labels
    for attempt in range(DIRICHLET_MAX_RETRIES):
        rng = make_rng(seed, 411, attempt)
        buckets = _dirichlet_assign(labels, client_count, alpha, rng)
        if all(buckets):
            clients = tuple(
                ClientAssignment(dataset.domain_id, tuple(sorted(b))) for b in buckets)
            return PartitionPlan(clients)
    raise PartitionError(
        f"no nonempty Dirichlet assignment found in {DIRICHLET_MAX_RETRIES} draws")


def label_intersection(domains: list[DomainDataset]):
    """Shared label range across domains, plus remapped, filtered datasets.

    The shared set is the intersection of each domain's [0, class_count)
    range; labels are remapped to a contiguous [0, len(shared)) space and
    out-of-intersection examples are dropped.  A domain that drops none keeps
    its image array, uncopied.
    """
    if not domains:
        raise PartitionError("need at least one domain")
    shared = set(range(domains[0].class_count))
    for d in domains[1:]:
        shared &= set(range(d.class_count))
    if not shared:
        raise PartitionError("label intersection across domains is empty")
    shared_sorted = sorted(shared)
    mapping = {old: new for new, old in enumerate(shared_sorted)}
    lut = np.full(max(d.class_count for d in domains), -1, dtype=np.int64)
    lut[shared_sorted] = np.arange(len(shared_sorted))
    remapped = []
    for d in domains:
        labels = lut[d.labels]
        keep = labels >= 0
        images = d.images
        if not keep.all():
            images, labels = images[keep], labels[keep]
        remapped.append(DomainDataset(images, labels, d.domain_id, len(shared_sorted)))
    return shared_sorted, mapping, remapped


def build_plan(part: PartitionConfig, domains: list[DomainDataset], seed: int) -> PartitionPlan:
    """The configured strategy's plan over the given domains, in config order.

    iid and dirichlet split the first (only) domain across part.clients;
    real_noniid gives domain g its own group of part.group_sizes[g] clients,
    split by Dirichlet(part.alpha) with seed (seed, 421, g).
    """
    if part.strategy == "iid":
        return partition_iid(domains[0], part.clients, seed)
    if part.strategy == "dirichlet":
        return partition_dirichlet(domains[0], part.clients, part.alpha, seed)
    if len(domains) != len(part.group_sizes):
        raise PartitionError(
            f"{len(domains)} domains but {len(part.group_sizes)} group sizes")
    clients = []
    for g, (domain, size) in enumerate(zip(domains, part.group_sizes)):
        clients.extend(partition_dirichlet(domain, size, part.alpha, (seed, 421, g)).clients)
    return PartitionPlan(tuple(clients))


def materialize(plan: PartitionPlan) -> list[np.ndarray]:
    """Per-client intp index vectors into each client's domain."""
    return [np.asarray(c.indices, dtype=np.intp) for c in plan.clients]
