"""Round-based federated training and the fair unlearning protocol.

A model is nncore's one float64 vector, (P,).  One round loop serves both.
Each round the training clients run local mini-batch SGD from the current
global vector, in lockstep: their models are the rows of one (k, P) matrix,
and at each step one stacked engine call covers every run of trainers (a
slice of the matrix's rows) whose batches (gathered from the train pool,
not copies) have one size (nncore's stack axis), with each trainer's bits
those of its own k = 1 steps; sgd_step forms and applies each trainer's
gradient in turn in one (P,) vector.  The loop makes both, and the batch
buffers the steps gather into, once and passes them to local_train, whose
arguments are all required.  A non-finite gradient abandons the round with
a ValueError naming client, round and parameter (trainers before it in the
step have stepped).  The loop keeps one cache per client, the model the
loop started from until the client trains and then its latest submission,
a trainer's row; the server takes the sample-count-weighted mean of every
cache.  A round's validation error is 1 - correct / total over the
validation pool, counted by evalkit.evaluate_client as the reports are.
The loop stops at the first round whose error drops below [training]
epsilon; in run_training that round is the convergence round.

run_training makes every client a trainer.  fair_unlearn_rounds makes only
the requesting clients trainers; every other client is represented by the
converged global model the loop starts from, so non-requesting clients
perform zero gradient computations.  Both read their parameters from the
config sections (TrainingConfig, UnlearnConfig) and the experiment seed.

Determinism: batch composition is drawn from a generator seeded by
(seed, client_id, round); indices inside a batch are sorted so the gradient
reduction order never depends on the draw, which keeps repeated runs and
degenerate protocol equivalences bit-identical.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import evalkit, nncore
from .config import TrainingConfig, UnlearnConfig
from .datasets import DomainDataset
from .nncore import ModelSpec, make_rng
from .partition import PartitionPlan, materialize


class ClientState:
    """A client's view of the train pool (never written): an intp index vector
    into it and its own labels, domain.labels[index] until a route rewrites
    them."""

    def __init__(self, client_id: int, domain: DomainDataset, index):
        self.client_id = client_id
        self.local_step_counter = 0
        self.domain = domain
        self.index = np.asarray(index, dtype=np.intp)
        self.labels = domain.labels[self.index]

    def keep(self, positions) -> None:
        """Keep only the examples at positions, in that order."""
        self.index, self.labels = self.index[positions], self.labels[positions]

    @property
    def sample_count(self) -> int:
        return len(self.index)


@dataclass(frozen=True)
class RoundLog:
    round_index: int
    val_error: float
    client_losses: dict[int, float]


@dataclass
class TrainingResult:
    params: np.ndarray
    logs: list[RoundLog]
    convergence_round: int | None


def build_clients(plan: PartitionPlan, train: DomainDataset) -> list[ClientState]:
    return [ClientState(i, train, index) for i, index in enumerate(materialize(plan))]


def local_train(trainers: list[ClientState], global_params: np.ndarray, spec: ModelSpec,
                training: TrainingConfig, seed: int, round_index: int,
                models: np.ndarray, grad: np.ndarray, x: np.ndarray,
                y: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """One round of local mini-batch SGD for every trainer, in lockstep.

    models is a (k, P) matrix with one row per trainer, each row set to
    global_params here; grad is a (P,) vector, the scratch in which sgd_step
    forms each trainer's gradient in turn.  x, (k * batch_size, *input_shape)
    float64, and y, (k * batch_size,) int64, are the batch buffers: step s
    gathers every trainer's batch s into their rows, and each run of
    adjacent rows with full batches (batch_size rows), a slice of models,
    takes one batch_loss_and_gradient and one sgd_step call; a shorter batch
    steps alone, as a run of one.  Rows are ordered by full-batch count, so in a
    one-epoch round every full batch of a step is in one run.  Returns, in
    trainers' order, each trainer's row of models (its submission, a view)
    and its mean batch loss, both bit for bit those of its own k = 1 steps.
    global_params is unchanged.
    """
    k, size = len(trainers), training.batch_size
    models[...] = global_params
    batches = []
    for client in trainers:
        if (shape := client.domain.images.shape[1:]) != spec.input_shape:
            raise ValueError(f"client {client.client_id}: images of shape {shape}, "
                             f"the model takes {spec.input_shape}")
        rng = make_rng((seed, client.client_id, round_index), 501)
        n = client.sample_count
        orders = (rng.permutation(n) for _ in range(training.local_epochs))
        batches.append([np.sort(order[i:i + size]) for order in orders
                        for i in range(0, n, size)])
    rank = sorted(range(k), key=lambda i: -sum(len(b) == size for b in batches[i]))
    ranked = [trainers[i] for i in rank]
    batches = [batches[i] for i in rank]
    losses: list[list] = [[] for _ in range(k)]
    for step in range(max(map(len, batches), default=0)):
        runs: list[list[int]] = []  # [first row, end row, batch size]
        for r, client in enumerate(ranked):
            if step < len(batches[r]):
                idx = batches[r][step]
                x[r * size:r * size + len(idx)] = client.domain.images[client.index[idx]]
                y[r * size:r * size + len(idx)] = client.labels[idx]
                if len(idx) == size and runs and runs[-1][1:] == [r, size]:
                    runs[-1][1] = r + 1
                else:
                    runs.append([r, r + 1, len(idx)])
        for a, b, m in runs:
            model = models[a:b]
            rows = slice(a * size, (b - 1) * size + m)
            try:
                loss, gradient = nncore.batch_loss_and_gradient(spec, model, x[rows], y[rows])
                nncore.sgd_step(model, gradient, training.learning_rate, grad)
            except nncore.NNError as exc:
                client = ranked[a + (exc.row or 0)]
                raise ValueError(
                    f"client {client.client_id}, round {round_index}: {exc}") from exc
            for r in range(a, b):
                ranked[r].local_step_counter += 1
                losses[r].append(loss[r - a])
    out: list = [None] * k
    for r, i in enumerate(rank):
        mean_loss = float(np.mean(losses[r])) if losses[r] else float("nan")
        if losses[r] and not np.isfinite(mean_loss):
            raise ValueError(
                f"client {trainers[i].client_id}, round {round_index}: non-finite loss")
        out[i] = (models[r], mean_loss)
    return out


def aggregate(spec: ModelSpec, updates: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """Weighted mean with weights n_k / sum(n_k), reduced in the given order.

    Each update's parameters are spec's (P,) vector, such as a row of the
    round's model matrix.  Computed element-wise as
    first + sum((w_k / total) * (theta_k - first)), so that identical inputs
    aggregate to a bit-identical copy of themselves, in a fresh vector.
    """
    if not updates:
        raise ValueError("nothing to aggregate")
    total = float(sum(w for _, w in updates))
    if total <= 0:
        raise ValueError("total aggregation weight must be positive")
    first = updates[0][0]
    acc = first.copy()
    for params, weight in updates:
        spec.views(params)  # refuses a vector of another dtype, rank or P
        acc += (weight / total) * (params - first)
    return acc


def _rounds(spec: ModelSpec, ordered: list[ClientState], trainers: list[ClientState],
            params: np.ndarray, rounds: range, val: DomainDataset, training: TrainingConfig,
            seed: int, save_round: Callable[[int, np.ndarray], None] | None = None
            ) -> tuple[np.ndarray, list[RoundLog]]:
    """The one FedAvg round loop over the clients in client-id order.

    The trainers' model matrix, gradient vector and batch buffers are made
    once, here.  Every client's cache starts as params; each round
    local_train fills the trainers' rows and sets them as their caches,
    every cache is aggregated in client-id order, the model's error on val
    is counted and logged, the model is handed to save_round if a
    checkpoint is due, and the loop stops at epsilon.
    """
    logs: list[RoundLog] = []
    caches = {c.client_id: params for c in ordered}
    k, size = len(trainers), training.batch_size
    models, grad = np.empty((k, spec.param_count)), np.empty(spec.param_count)
    x, y = np.empty((k * size, *spec.input_shape)), np.empty(k * size, dtype=np.int64)
    for t in rounds:
        losses = {}
        submissions = local_train(trainers, params, spec, training, seed, t, models, grad,
                                  x, y)
        for client, (submission, loss) in zip(trainers, submissions):
            caches[client.client_id], losses[client.client_id] = submission, loss
        params = aggregate(spec, [(caches[c.client_id], c.sample_count) for c in ordered])
        correct, total = evalkit.evaluate_client(spec, params, val)
        err = 1.0 - int(correct.sum()) / int(total.sum())
        logs.append(RoundLog(t, err, losses))
        if save_round and training.checkpoint_every and t % training.checkpoint_every == 0:
            save_round(t, params)
        if err < training.epsilon:
            break
    return params, logs


def run_training(spec: ModelSpec, clients: list[ClientState], val: DomainDataset,
                 training: TrainingConfig, seed: int,
                 save_round: Callable[[int, np.ndarray], None] | None = None
                 ) -> TrainingResult:
    """FedAvg rounds from a seeded initial model, every client training, until
    the validation error beats epsilon or rounds_max ends.

    With checkpoint_every > 0 and a save_round, save_round(t, params) gets the
    aggregated model of every checkpoint_every-th round t.
    """
    ordered = sorted(clients, key=lambda c: c.client_id)
    # The initial model is passed, not kept here, so the loop can free it
    # after round 1.
    params, logs = _rounds(spec, ordered, ordered, nncore.init_params(spec, (seed, 601)),
                           range(1, training.rounds_max + 1), val, training, seed,
                           save_round)
    converged = bool(logs) and logs[-1].val_error < training.epsilon
    return TrainingResult(params, logs, logs[-1].round_index if converged else None)


def fair_unlearn_rounds(global_params: np.ndarray, spec: ModelSpec,
                        clients: list[ClientState], unlearn: UnlearnConfig,
                        val: DomainDataset, training: TrainingConfig, seed: int,
                        start_round: int = 0) -> tuple[np.ndarray, list[RoundLog]]:
    """Up to unlearn.rounds_max rounds where only the requesting clients train.

    Non-requesting clients contribute the model they already hold,
    global_params itself, which nothing writes, at their original
    aggregation weights; their step counters never move.
    """
    missing = set(unlearn.requesting_clients) - {c.client_id for c in clients}
    if missing:
        raise ValueError(f"unlearn request names unknown clients {sorted(missing)}")
    ordered = sorted(clients, key=lambda c: c.client_id)
    requesters = [c for c in ordered if c.client_id in unlearn.requesting_clients]
    return _rounds(spec, ordered, requesters, global_params,
                   range(start_round + 1, start_round + unlearn.rounds_max + 1), val,
                   training, seed)


def round_logs_to_csv(logs: list[RoundLog], client_ids: list[int]) -> str:
    """CSV stream: round, validation error, one loss column per client."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["round", "val_error"] + [f"loss_c{cid}" for cid in client_ids])
    for log in logs:
        row = [log.round_index, repr(float(log.val_error))]
        for cid in client_ids:
            loss = log.client_losses.get(cid)
            row.append("" if loss is None else repr(float(loss)))
        writer.writerow(row)
    return buf.getvalue()
