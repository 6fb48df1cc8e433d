"""Client data assignment: IID, Dirichlet label skew, and domain-per-group.

A PartitionPlan is pure bookkeeping over the pooled train array, which holds
every domain's train split, one block per domain in config order: per
client, a sorted intp index vector into the pool.  build_plan is the one
entry point that picks the configured regime:

* iid        — the whole pool, uniform shuffle-split.
* dirichlet  — the whole pool, per-class client proportions from
               Dirichlet(alpha); small alpha skews each client's label prior.
* real_noniid — one domain block per client group, each group splitting its
               block via Dirichlet(alpha); feature distributions differ across
               groups while labels stay comparable.

Everything here reads labels only.  The data build streams images into its
pools, so every row's place must be known before any image exists:
label_intersection cuts each domain source to the shared label range by its
labels, the splits and the plan index the pools by labels, and materialize
gives the plan's per-client index vectors.  A plan is a pure function of the
config: to_doc gives plan.json, written for readers, and nothing reads it
back.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import PartitionConfig
from .datasets import DomainSource, subset
from .nncore import ConfigError, make_rng

DIRICHLET_MAX_RETRIES = 100


@dataclass(frozen=True, eq=False)
class PartitionPlan:
    """Per client a sorted intp index vector into the pool, and each domain's
    (name, start, stop) block of the pool, in config order."""
    clients: tuple[np.ndarray, ...]
    blocks: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        size = self.blocks[-1][2] if self.blocks else 0
        for i, c in enumerate(self.clients):
            if len(c) < 1:
                raise ValueError(f"client {i} received no samples")
            if c.min() < 0 or c.max() >= size:
                raise ValueError(f"client {i}: indices outside the pool [0, {size})")
        shared = np.flatnonzero(np.bincount(np.concatenate(self.clients), minlength=size) > 1)
        if shared.size:
            raise ValueError(
                f"pool indices {shared[:4].tolist()}... assigned to more than one client")

    def to_doc(self) -> dict:
        """The plan as plan.json's document: per client, per domain it holds
        examples of, their indices into that domain's train split.  Each
        client's count and the strategy, seed and alpha are in
        partition.json's record."""
        clients = []
        for c in self.clients:
            domains = {}
            for name, start, stop in self.blocks:
                a, b = np.searchsorted(c, (start, stop))
                if b > a:
                    domains[name] = (c[a:b] - start).tolist()
            clients.append({"domains": domains})
        return {"clients": clients}


def partition_iid(n: int, client_count: int, seed) -> list[np.ndarray]:
    """Shuffled near-equal split of range(n) across [partition] clients;
    client sizes differ by at most one."""
    if client_count < 1:
        raise ValueError("client_count must be >= 1")
    if client_count > n:
        raise ConfigError(f"partition.clients: cannot split {n} examples across "
                          f"{client_count} clients")
    order = make_rng(seed, 401).permutation(n)
    return [np.sort(part) for part in np.array_split(order, client_count)]


def partition_dirichlet(labels: np.ndarray, client_count: int, alpha: float, seed,
                        key: str = "partition.clients") -> list[np.ndarray]:
    """Per-class Dirichlet(alpha) proportions over the positions of labels;
    redraws until no client is empty.  key is the config key that set
    client_count, named when there are fewer positions than clients.  The
    classes come from np.bincount: np.unique would load numpy.ma."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    n = len(labels)
    if client_count < 1:
        raise ValueError("client_count must be >= 1")
    if client_count > n:
        raise ConfigError(f"{key}: cannot assign {n} examples to {client_count} clients")
    for attempt in range(DIRICHLET_MAX_RETRIES):
        rng = make_rng(seed, 411, attempt)
        buckets: list[list[np.ndarray]] = [[] for _ in range(client_count)]
        for c in np.flatnonzero(np.bincount(labels)):
            idx = np.flatnonzero(labels == c)
            idx = idx[rng.permutation(idx.size)]
            props = rng.dirichlet([alpha] * client_count)
            cuts = (np.cumsum(props) * idx.size).astype(int)[:-1]
            for k, chunk in enumerate(np.split(idx, cuts)):
                buckets[k].append(chunk)
        clients = [np.sort(np.concatenate(b)) for b in buckets]
        if all(len(c) for c in clients):
            return clients
    raise ConfigError(f"partition.alpha: no nonempty Dirichlet assignment of {n} examples to "
                      f"{client_count} clients found in {DIRICHLET_MAX_RETRIES} draws")


def label_intersection(domains: list[DomainSource], shared: int) -> list[DomainSource]:
    """Every domain cut to the shared labels [0, shared), by its labels.

    Every domain's labels start at 0, so no label changes value: examples of
    labels >= shared are dropped, and a domain with no such class is kept as
    it is.
    """
    return [d if d.class_count == shared else
            replace(subset(d, np.flatnonzero(d.labels < shared)), class_count=shared)
            for d in domains]


def build_plan(part: PartitionConfig, labels: np.ndarray,
               blocks: tuple[tuple[str, int, int], ...], seed: int) -> PartitionPlan:
    """The configured strategy's plan over the pool's labels and domain blocks.

    iid and dirichlet split the whole pool across part.clients; real_noniid
    gives block g its own group of part.group_sizes[g] clients, split by
    Dirichlet(part.alpha) with seed (seed, 421, g).
    """
    if part.strategy == "iid":
        clients = partition_iid(len(labels), part.clients, seed)
    elif part.strategy == "dirichlet":
        clients = partition_dirichlet(labels, part.clients, part.alpha, seed)
    elif len(blocks) != len(part.group_sizes):
        raise ValueError(f"{len(blocks)} domains but {len(part.group_sizes)} group sizes")
    else:
        clients = [c + start
                   for g, ((name, start, stop), size) in enumerate(zip(blocks, part.group_sizes))
                   for c in partition_dirichlet(labels[start:stop], size, part.alpha,
                                                (seed, 421, g),
                                                f"partition.group_sizes: domain {name!r}")]
    return PartitionPlan(tuple(clients), blocks)


def materialize(plan: PartitionPlan) -> list[np.ndarray]:
    """Per-client intp index vectors into the pool (the plan's, not copies)."""
    return list(plan.clients)
