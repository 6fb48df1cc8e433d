"""Round-based federated training and the fair unlearning protocol.

One round loop serves both.  Each round the training clients run local
mini-batch SGD from the current global parameters into their cached
submission, and the server takes the sample-count-weighted mean of every
client's cache.  The loop stops at the first round whose validation error
drops below [training] epsilon; in run_training that round is the
convergence round.

run_training makes every client a trainer.  fair_unlearn_rounds makes only
the requesting clients trainers; every other client is represented by its
cache, set to the converged global model, so non-requesting clients perform
zero gradient computations.  Both read their parameters from the config
sections (TrainingConfig, UnlearnConfig) and the experiment seed.

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
from .config import TrainingConfig, UnlearnConfig
from .datasets import DomainDataset
from .nncore import ModelSpec, ParameterSet, make_rng
from .partition import PartitionPlan, materialize


class FedError(ValueError):
    pass


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


@dataclass
class TrainingResult:
    params: ParameterSet
    logs: list[RoundLog]
    convergence_round: int | None


def build_clients(plan: PartitionPlan, domains: dict[str, DomainDataset]) -> list[ClientState]:
    shards = materialize(plan, domains)
    return [ClientState(i, s) for i, s in enumerate(shards)]


def local_train(state: ClientState, global_params: ParameterSet, spec: ModelSpec,
                training: TrainingConfig, seed: int, round_index: int = 0):
    """Local mini-batch SGD pass; returns (new params, mean batch loss).

    global_params is copied into a fresh flat model (nncore.FlatParams) that
    each step, one batch_loss_and_gradient and one sgd_step call, updates in
    place through state.grad, a flat gradient buffer reused every round.  The
    model is fresh per call: its views, returned, are the client's submission,
    which the round loop keeps in client.cache.  global_params is unchanged.
    """
    model = nncore.flat_params(global_params)
    if state.grad is None or state.grad.layout != model.layout:
        state.grad = nncore.flat_params(global_params)
    losses = []
    rng = make_rng((seed, state.client_id, round_index), 501)
    x, y = state.shard.images, state.shard.labels
    n = len(y)
    for _ in range(training.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, training.batch_size):
            batch_idx = np.sort(order[start:start + training.batch_size])
            try:
                loss, _ = nncore.batch_loss_and_gradient(
                    spec, model.views, x[batch_idx], y[batch_idx], out=state.grad)
            except nncore.NNError as exc:
                raise FedError(
                    f"client {state.client_id}, round {round_index}: {exc}") from exc
            nncore.sgd_step(model, state.grad, training.learning_rate)
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


def _rounds(spec: ModelSpec, ordered: list[ClientState], trainers: list[ClientState],
            params: ParameterSet, rounds: range, val_x: np.ndarray, val_y: np.ndarray,
            training: TrainingConfig, seed: int,
            checkpoint_dir: str | None = None) -> tuple[ParameterSet, list[RoundLog]]:
    """The one FedAvg round loop over the clients in client-id order.

    Each round the trainers run local_train into client.cache, every cache is
    aggregated in client-id order, the round is validated and logged, a
    checkpoint is written if one is due, and the loop stops at epsilon.
    """
    logs: list[RoundLog] = []
    for t in rounds:
        losses = {}
        for client in trainers:
            client.cache, losses[client.client_id] = local_train(
                client, params, spec, training, seed, round_index=t)
        params = aggregate([(c.cache, c.sample_count) for c in ordered])
        err = _validation_error(spec, params, val_x, val_y)
        logs.append(RoundLog(t, err, losses, tuple(c.client_id for c in trainers)))
        if checkpoint_dir and training.checkpoint_every and t % training.checkpoint_every == 0:
            nncore.save_checkpoint(os.path.join(checkpoint_dir, f"round_{t}.fusim"),
                                   params)
        if err < training.epsilon:
            break
    return params, logs


def run_training(spec: ModelSpec, clients: list[ClientState], val_x: np.ndarray,
                 val_y: np.ndarray, training: TrainingConfig, seed: int,
                 checkpoint_dir: str | None = None) -> TrainingResult:
    """FedAvg rounds from a seeded initial model, every client training, until
    the validation error beats epsilon or rounds_max ends.

    With checkpoint_every > 0 and a checkpoint_dir, the aggregated model is
    written as round_<t>.fusim every checkpoint_every rounds.
    """
    ordered = sorted(clients, key=lambda c: c.client_id)
    # The initial model is passed, not kept here, so the loop can free it
    # after round 1.
    params, logs = _rounds(spec, ordered, ordered, nncore.init_params(spec, (seed, 601)),
                           range(1, training.rounds_max + 1), val_x, val_y, training,
                           seed, checkpoint_dir)
    converged = bool(logs) and logs[-1].val_error < training.epsilon
    return TrainingResult(params, logs, logs[-1].round_index if converged else None)


def fair_unlearn_rounds(global_params: ParameterSet, spec: ModelSpec,
                        clients: list[ClientState], unlearn: UnlearnConfig,
                        val_x: np.ndarray, val_y: np.ndarray, training: TrainingConfig,
                        seed: int, start_round: int = 0) -> tuple[ParameterSet, list[RoundLog]]:
    """Up to unlearn.rounds_max rounds where only the requesting clients train.

    Non-requesting clients contribute their cached parameters (the model they
    already hold, set to global_params here) at their original aggregation
    weights; their step counters never move.
    """
    missing = set(unlearn.requesting_clients) - {c.client_id for c in clients}
    if missing:
        raise FedError(f"unlearn request names unknown clients {sorted(missing)}")
    ordered = sorted(clients, key=lambda c: c.client_id)
    for client in ordered:
        client.cache = global_params
    requesters = [c for c in ordered if c.client_id in unlearn.requesting_clients]
    return _rounds(spec, ordered, requesters, global_params,
                   range(start_round + 1, start_round + unlearn.rounds_max + 1),
                   val_x, val_y, training, seed)


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
