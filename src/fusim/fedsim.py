"""Round-based federated training and the fair unlearning protocol.

Every round, all clients run local mini-batch SGD from the current global
parameters and the server takes the sample-count-weighted mean of their
submissions.  Training stops at the first round whose validation error drops
below the configured threshold; that round index is the convergence round.

During fair unlearning rounds only the requesting clients retrain; every
other client is represented by its cached last-known parameters (initialized
to the converged global model), so non-requesting clients perform zero
gradient computations.

Determinism: batch composition is drawn from a generator seeded by
(seed, client_id, round); indices inside a batch are sorted so the gradient
reduction order never depends on the draw, which keeps repeated runs and
degenerate protocol equivalences bit-identical.
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from . import nncore
from .datasets import DomainDataset
from .nncore import ModelSpec, ParameterSet, make_rng
from .partition import PartitionPlan, materialize


class FedError(ValueError):
    pass


@dataclass(frozen=True)
class FedConfig:
    rounds_max: int
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 0.1
    epsilon: float = 0.1
    seed: int = 0
    unlearn_rounds_max: int = 20
    checkpoint_every: int = 0  # 0 disables periodic checkpoints

    def __post_init__(self):
        if self.rounds_max < 0:
            raise FedError("rounds_max must be >= 0")
        if self.checkpoint_every < 0:
            raise FedError("checkpoint_every must be >= 0")
        if not 0.0 < self.epsilon < 1.0:
            raise FedError("epsilon must be in (0, 1)")
        if self.local_epochs < 0 or self.batch_size < 1:
            raise FedError("bad local_epochs or batch_size")
        if self.learning_rate <= 0 or not np.isfinite(self.learning_rate):
            raise FedError("learning_rate must be positive and finite")


class ClientState:
    """Per-client shard, cached last submission, step counter, gradient buffer."""

    def __init__(self, client_id: int, shard: DomainDataset):
        self.client_id = client_id
        self.cache: ParameterSet | None = None
        self.grad: nncore.FlatParams | None = None
        self.local_step_counter = 0
        self.replace_shard(shard)

    def replace_shard(self, shard: DomainDataset) -> None:
        if len(shard) == 0:
            raise FedError(f"client {self.client_id} has an empty shard")
        self.shard = shard

    @property
    def sample_count(self) -> int:
        return len(self.shard)


@dataclass(frozen=True)
class RoundLog:
    round_index: int
    val_error: float
    client_losses: dict[int, float]
    participants: tuple[int, ...]


@dataclass(frozen=True)
class UnlearnRequest:
    client_ids: tuple[int, ...]
    forget_class: int = 0

    def __post_init__(self):
        if not self.client_ids:
            raise FedError("unlearn request must name at least one client")
        object.__setattr__(self, "client_ids", tuple(sorted(set(self.client_ids))))


@dataclass
class TrainingResult:
    params: ParameterSet
    logs: list[RoundLog]
    convergence_round: int | None


def build_clients(plan: PartitionPlan, domains: dict[str, DomainDataset]) -> list[ClientState]:
    shards = materialize(plan, domains)
    return [ClientState(i, s) for i, s in enumerate(shards)]


def local_train(state: ClientState, global_params: ParameterSet, spec: ModelSpec,
                config: FedConfig, round_index: int = 0):
    """Local mini-batch SGD pass; returns (new params, mean batch loss).

    global_params is copied into a fresh flat model (nncore.FlatParams) that
    each step, one batch_loss_and_gradient and one sgd_step call, updates in
    place through state.grad, a flat gradient buffer reused every round.  The
    model is fresh per call: its views, returned, are the client's submission,
    which callers keep (client.cache, the updates).  global_params is unchanged.
    """
    model = nncore.flat_params(global_params)
    if state.grad is None or state.grad.layout != model.layout:
        state.grad = nncore.flat_params(global_params)
    losses = []
    rng = make_rng((config.seed, state.client_id, round_index), 501)
    x, y = state.shard.images, state.shard.labels
    n = len(y)
    for _ in range(config.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch_idx = np.sort(order[start:start + config.batch_size])
            try:
                loss, _ = nncore.batch_loss_and_gradient(
                    spec, model.views, x[batch_idx], y[batch_idx], out=state.grad)
            except nncore.NNError as exc:
                raise FedError(
                    f"client {state.client_id}, round {round_index}: {exc}") from exc
            nncore.sgd_step(model, state.grad, config.learning_rate)
            state.local_step_counter += 1
            losses.append(loss)
    mean_loss = float(np.mean(losses)) if losses else float("nan")
    if losses and not np.isfinite(mean_loss):
        raise FedError(
            f"client {state.client_id}, round {round_index}: non-finite loss")
    return model.views, mean_loss


def aggregate(updates) -> ParameterSet:
    """Weighted mean with weights n_k / sum(n_k), reduced in the given order.

    Computed as first + sum(w_k * (theta_k - first)) so that identical inputs
    aggregate to a bit-identical copy of themselves.
    """
    updates = list(updates)
    if not updates:
        raise FedError("nothing to aggregate")
    total = float(sum(w for _, w in updates))
    if total <= 0:
        raise FedError("total aggregation weight must be positive")
    first = updates[0][0]
    names = list(first)
    out: ParameterSet = {}
    for name in names:
        ref = first[name]
        acc = ref.copy()
        for params, weight in updates:
            arr = params.get(name)
            if arr is None or arr.shape != ref.shape:
                raise FedError(f"aggregate: parameter {name} missing or misshaped")
            acc += (weight / total) * (arr - ref)
        out[name] = acc
    for params, _ in updates:
        if list(params) != names:
            raise FedError("aggregate: parameter names differ across updates")
    return out


def _validation_error(spec: ModelSpec, params: ParameterSet,
                      val_x: np.ndarray, val_y: np.ndarray) -> float:
    preds = nncore.predict_probs(spec, params, val_x).argmax(axis=1)
    return float(1.0 - (preds == val_y).mean())


def run_training(spec: ModelSpec, clients: list[ClientState], val_x: np.ndarray,
                 val_y: np.ndarray, config: FedConfig,
                 initial_params: ParameterSet | None = None,
                 checkpoint_dir: str | None = None) -> TrainingResult:
    """FedAvg rounds until the validation error beats epsilon or the budget ends.

    With checkpoint_every > 0 and a checkpoint_dir, the aggregated model is
    written as round_<t>.fusim every checkpoint_every rounds.
    """
    params = initial_params if initial_params is not None \
        else nncore.init_params(spec, (config.seed, 601))
    logs: list[RoundLog] = []
    convergence_round = None
    ordered = sorted(clients, key=lambda c: c.client_id)
    for t in range(1, config.rounds_max + 1):
        updates = []
        losses = {}
        for client in ordered:
            new_params, loss = local_train(client, params, spec, config, round_index=t)
            client.cache = new_params
            updates.append((new_params, client.sample_count))
            losses[client.client_id] = loss
        params = aggregate(updates)
        err = _validation_error(spec, params, val_x, val_y)
        logs.append(RoundLog(t, err, losses, tuple(c.client_id for c in ordered)))
        if checkpoint_dir and config.checkpoint_every and t % config.checkpoint_every == 0:
            nncore.save_checkpoint(os.path.join(checkpoint_dir, f"round_{t}.fusim"),
                                   params)
        if err < config.epsilon:
            convergence_round = t
            break
    return TrainingResult(params, logs, convergence_round)


def fair_unlearn_rounds(global_params: ParameterSet, spec: ModelSpec,
                        clients: list[ClientState], request: UnlearnRequest,
                        val_x: np.ndarray, val_y: np.ndarray, config: FedConfig,
                        start_round: int = 0) -> tuple[ParameterSet, list[RoundLog]]:
    """Retraining rounds where only the requesting clients compute gradients.

    Non-requesting clients contribute their cached parameters (the model they
    already hold) at their original aggregation weights; their step counters
    never move.
    """
    ids = {c.client_id for c in clients}
    missing = set(request.client_ids) - ids
    if missing:
        raise FedError(f"unlearn request names unknown clients {sorted(missing)}")
    ordered = sorted(clients, key=lambda c: c.client_id)
    for client in ordered:
        client.cache = global_params
    requesters = [c for c in ordered if c.client_id in request.client_ids]
    params = global_params
    logs: list[RoundLog] = []
    for t in range(start_round + 1, start_round + config.unlearn_rounds_max + 1):
        losses = {}
        for client in requesters:
            new_params, loss = local_train(client, params, spec, config, round_index=t)
            client.cache = new_params
            losses[client.client_id] = loss
        params = aggregate([(c.cache, c.sample_count) for c in ordered])
        err = _validation_error(spec, params, val_x, val_y)
        logs.append(RoundLog(t, err, losses, tuple(c.client_id for c in requesters)))
        if err < config.epsilon:
            break
    return params, logs


def round_logs_to_csv(logs: list[RoundLog], client_ids: list[int]) -> str:
    """CSV stream: round, validation error, one loss column per client."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["round", "val_error"] + [f"loss_c{cid}" for cid in client_ids])
    for log in logs:
        row = [log.round_index, repr(log.val_error)]
        for cid in client_ids:
            loss = log.client_losses.get(cid)
            row.append("" if loss is None else repr(loss))
        writer.writerow(row)
    return buf.getvalue()
