"""Federated training and fair-protocol tests."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusim import datasets as ds
from fusim import fedsim as fs
from fusim import nncore as nn
from fusim import partition as pt
from fusim.config import TrainingConfig, UnlearnConfig
from helpers import (copied_shard, library_step, on_copied_shard,
                     reference_loss_gradient_probs, same_bits, subset, synthetic_domain)

SEED = 3


def tiny_spec(classes=4, side=8):
    return nn.small_mlp((1, side, side), classes, hidden=16)


def make_federation(clients=3, classes=4, per_class=30, seed=2, side=8):
    domain = synthetic_domain(8, seed, (side, side), classes, per_class, domain_id="syn")
    splits = ds.stratified_split(domain, 0.0, 0.2, seed)
    train = subset(domain, splits.train)
    test = subset(domain, splits.test)
    plan = pt.PartitionPlan(tuple(pt.partition_iid(len(train), clients, seed)),
                            (("syn", 0, len(train)),))
    states = fs.build_clients(plan, train)
    return tiny_spec(classes, side), states, test


def cfg(**kw):
    base = dict(rounds_max=5, local_epochs=1, batch_size=16, learning_rate=0.5,
                epsilon=0.05)
    base.update(kw)
    return TrainingConfig(**base)


def unlearn(*client_ids, rounds_max=20):
    return UnlearnConfig(requesting_clients=client_ids, rounds_max=rounds_max)


def round_buffers(k, spec, config):
    """A round's model matrix, gradient scratch and batch buffers for k
    trainers, as the round loop makes them."""
    rows = k * config.batch_size
    return (np.empty((k, spec.param_count)), np.empty(spec.param_count),
            np.empty((rows, *spec.input_shape)), np.empty(rows, dtype=np.int64))


def train_round(trainers, params, spec, config, round_index):
    """local_train with a model matrix, a gradient scratch and batch buffers
    of its own."""
    return fs.local_train(trainers, params, spec, config, SEED, round_index,
                          *round_buffers(len(trainers), spec, config))


def reference_step(spec, params, x, y, learning_rate):
    """params - learning_rate * gradient, with the out-of-place reference's
    gradient: (the stepped vector, the loss)."""
    loss, grads, _ = reference_loss_gradient_probs(spec, params, x, y)
    return params - learning_rate * grads, loss


# ---------------------------------------------------------------------------
# local_train


def test_local_train_zero_epochs_identity():
    spec, states, _ = make_federation()
    params = nn.init_params(spec, 0)
    [(out, loss)] = train_round([states[0]], params, spec, cfg(local_epochs=0), 1)
    assert same_bits(out, params)
    assert states[0].local_step_counter == 0
    assert np.isnan(loss)


def test_local_train_single_example_is_one_sgd_step():
    spec, states, _ = make_federation()
    single = fs.ClientState(0, states[0].domain, states[0].index[:1])
    params = nn.init_params(spec, 1)
    config = cfg(local_epochs=1, batch_size=1, learning_rate=0.2)
    [(out, _)] = train_round([single], params, spec, config, 1)
    shard = copied_shard(single)
    expected, _, _ = library_step(spec, params, shard.images, shard.labels, 0.2)
    assert same_bits(out, expected)
    assert np.array_equal(expected, reference_step(spec, params, shard.images, shard.labels,
                                                   0.2)[0])
    assert single.local_step_counter == 1


def test_local_train_leaves_global_params_unchanged():
    spec, states, _ = make_federation()
    params = nn.init_params(spec, 1)
    snapshot = params.copy()
    [(out, _)] = train_round([states[0]], params, spec, cfg(local_epochs=2), 1)
    assert same_bits(params, snapshot)
    assert not np.shares_memory(out, params)
    assert not same_bits(out, params)


@pytest.mark.parametrize("model", ["small_mlp", "small_cnn"])
def test_local_train_bit_identical_to_out_of_place_steps(model):
    spec, states, _ = make_federation(side=8 if model == "small_mlp" else 10)
    if model == "small_cnn":  # 10x10 is the smallest input both conv blocks take
        spec = nn.small_cnn(spec.input_shape, spec.class_count)
    state = states[0]
    params = nn.init_params(spec, 1)
    config = cfg(local_epochs=2, batch_size=7)
    [(out, loss)] = train_round([state], params, spec, config, 4)
    expected, losses, shard = params, [], copied_shard(state)
    rng = nn.make_rng((SEED, state.client_id, 4), 501)
    for _ in range(config.local_epochs):
        order = rng.permutation(state.sample_count)
        for start in range(0, state.sample_count, config.batch_size):
            idx = np.sort(order[start:start + config.batch_size])
            expected, batch_loss = reference_step(spec, expected, shard.images[idx],
                                                  shard.labels[idx], config.learning_rate)
            losses.append(batch_loss)
    assert len(losses) > 4
    assert np.array_equal(out, expected)
    assert loss == float(np.mean(losses))


def test_local_train_reuses_the_round_matrices():
    """A call given the round's model matrix, gradient vector and batch
    buffers again writes into them, with the bits of a call given fresh
    ones; the submissions are rows of the model matrix."""
    spec, states, _ = make_federation()
    params = nn.init_params(spec, 1)
    config = cfg(local_epochs=2, batch_size=7)
    buffers = round_buffers(len(states), spec, config)
    models = buffers[0]
    first = fs.local_train(states, params, spec, config, SEED, 1, *buffers)
    start = fs.aggregate(spec, [(sub, 1) for sub, _ in first])
    second = fs.local_train(states, start, spec, config, SEED, 2, *buffers)
    fresh = [fs.ClientState(s.client_id, s.domain, s.index) for s in states]
    expected = train_round(fresh, start, spec, config, 2)
    for (sub, loss), (want, want_loss) in zip(second, expected):
        assert np.shares_memory(sub, models)
        assert not np.shares_memory(want, models)
        assert same_bits(sub, want) and loss == want_loss


def test_local_train_nonfinite_gradient_names_client_round_and_parameter():
    spec, states, _ = make_federation()
    params = nn.init_params(spec, 1)
    spec.views(params)["layer1.bias"][0] = np.nan
    snapshot = params.copy()
    with pytest.raises(ValueError,
                       match=r"client 1, round 3: non-finite values in gradient of layer0\.weight"):
        train_round([states[1]], params, spec, cfg(), 3)
    assert same_bits(params, snapshot)


def test_local_train_nonfinite_gradient_names_a_client_inside_the_stack():
    """Client 2's NaN pixel makes only its row's gradient non-finite; the
    error names it, the round and the parameter, the global parameters are
    untouched and nothing of the failed round is aggregated."""
    spec, states, val = make_federation()
    assert len({s.sample_count // 16 for s in states}) == 1  # rows in client order
    states[2] = on_copied_shard(states[2])  # a domain of its own for the NaN
    states[2].domain.images[0, 0, 0, 0] = np.nan
    params = nn.init_params(spec, 1)
    snapshot = params.copy()
    with mock.patch.object(fs, "aggregate", wraps=fs.aggregate) as spy:
        with pytest.raises(ValueError, match=r"client 2, round 5: non-finite values in "
                                              r"gradient of layer0\.weight"):
            fs.fair_unlearn_rounds(params, spec, states, unlearn(0, 2), val, cfg(), SEED,
                                   start_round=4)
    assert spy.call_count == 0
    assert same_bits(params, snapshot)
    assert states[1].local_step_counter == 0


def unstacked_round(client, params, spec, config, seed, round_index):
    """One client's local round from out-of-place reference steps:
    (model vector, mean loss, steps taken)."""
    shard = copied_shard(client)
    rng = nn.make_rng((seed, client.client_id, round_index), 501)
    losses, n = [], client.sample_count
    for _ in range(config.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = np.sort(order[start:start + config.batch_size])
            params, loss = reference_step(spec, params, shard.images[idx], shard.labels[idx],
                                          config.learning_rate)
            losses.append(loss)
    return params, float(np.mean(losses)) if losses else float("nan"), len(losses)


@pytest.mark.bitid
@settings(max_examples=25)
@given(sizes=st.lists(st.integers(1, 23), min_size=1, max_size=6),
       batch_size=st.integers(1, 9), epochs=st.integers(1, 2),
       model=st.sampled_from(["small_mlp", "small_cnn"]), seed=st.integers(0, 2**16))
def test_lockstep_round_bit_identical_to_unstacked_rounds(sizes, batch_size, epochs, model,
                                                           seed):
    """Ragged shards (unequal step counts, short last batches): every
    submission, mean loss and step count of a lockstep round equals, bit for
    bit, the client's own round as the one trainer (k = 1), and in value the
    round of out-of-place reference steps."""
    side = 6 if model == "small_mlp" else 10
    spec = getattr(nn, model)((1, side, side), 3)
    rng = np.random.default_rng(seed)
    clients = [fs.ClientState(i, ds.DomainDataset(rng.random((n, 1, side, side)),
                                                  rng.integers(0, 3, n), "syn", 3),
                              np.arange(n))
               for i, n in enumerate(sizes)]
    params = nn.init_params(spec, seed)
    config = cfg(batch_size=batch_size, local_epochs=epochs, learning_rate=0.3)
    got = train_round(clients, params, spec, config, 7)
    for client, (submission, loss) in zip(clients, got):
        replay = fs.ClientState(client.client_id, client.domain, client.index)
        [(alone, alone_loss)] = train_round([replay], params, spec, config, 7)
        assert same_bits(submission, alone)
        assert loss == alone_loss and client.local_step_counter == replay.local_step_counter
        vector, want_loss, steps = unstacked_round(replay, params, spec, config, SEED, 7)
        assert np.array_equal(submission, vector)
        assert loss == want_loss
        assert client.local_step_counter == steps


@pytest.mark.bitid
@settings(max_examples=25)
@given(data=st.data(), size=st.integers(1, 40), batch_size=st.integers(1, 9),
       epochs=st.integers(1, 2), model=st.sampled_from(["small_mlp", "small_cnn"]))
def test_lockstep_round_over_views_equals_the_round_over_copied_shards(data, size,
                                                                      batch_size, epochs,
                                                                      model):
    """Clients viewing one domain through unsorted, overlapping index vectors,
    some with rewritten labels: a lockstep round gives every submission, loss
    and step count bit for bit those of the round over copies of their shards,
    and leaves the domain's bytes as they were."""
    side = 6 if model == "small_mlp" else 10
    spec = getattr(nn, model)((1, side, side), 3)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    domain = ds.DomainDataset(rng.random((size, 1, side, side)), rng.integers(0, 3, size),
                              "syn", 3)
    before = domain.images.tobytes(), domain.labels.tobytes()
    views = []
    for i in range(data.draw(st.integers(1, 5))):
        index = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=25))
        views.append(fs.ClientState(i, domain, index))
        if data.draw(st.booleans()):
            views[-1].labels = rng.integers(0, 3, len(index))
    copies = [on_copied_shard(c) for c in views]
    params = nn.init_params(spec, 1)
    config = cfg(batch_size=batch_size, local_epochs=epochs, learning_rate=0.3)
    got = train_round(views, params, spec, config, 7)
    want = train_round(copies, params, spec, config, 7)
    for view, copy, (sub, loss), (want_sub, want_loss) in zip(views, copies, got, want):
        assert same_bits(sub, want_sub)
        assert loss == want_loss
        assert view.local_step_counter == copy.local_step_counter
    assert (domain.images.tobytes(), domain.labels.tobytes()) == before


def test_local_train_loss_decreases_on_separable_shard():
    spec, states, _ = make_federation(clients=1, per_class=50)
    params = nn.init_params(spec, 2)
    config = cfg(learning_rate=0.2)
    losses = []
    for r in range(1, 6):
        [(submission, loss)] = train_round([states[0]], params, spec, config, r)
        params = submission
        losses.append(loss)
    assert all(b < a for a, b in zip(losses, losses[1:]))


# ---------------------------------------------------------------------------
# aggregate


AGG_SPEC = nn.small_mlp((2,), 2, hidden=1)


def test_aggregate_identical_inputs_identity():
    spec = tiny_spec()
    params = nn.init_params(spec, 5)
    out = fs.aggregate(spec, [(params, 1), (params, 3), (params, 2)])
    assert same_bits(out, params)


def test_aggregate_forced_arithmetic():
    a, b = np.zeros(AGG_SPEC.param_count), np.full(AGG_SPEC.param_count, 4.0)
    out = fs.aggregate(AGG_SPEC, [(a, 1), (b, 3)])
    assert np.all(out == 3.0)


def test_aggregate_matches_independent_weighted_mean():
    rng = np.random.default_rng(9)
    sets = [(rng.normal(0, 1, AGG_SPEC.param_count), float(rng.integers(1, 50)))
            for _ in range(5)]
    out = fs.aggregate(AGG_SPEC, sets)
    total = sum(w for _, w in sets)
    oracle = np.zeros(AGG_SPEC.param_count)
    for params, w in sets:
        oracle += (w / total) * params
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_aggregate_weights_sum_to_one():
    weights = [3, 5, 11, 2]
    total = sum(weights)
    assert abs(sum(w / total for w in weights) - 1.0) < 1e-15


def test_aggregate_permutation_invariance_after_sorting():
    spec = tiny_spec()
    sets = [(nn.init_params(spec, i), i + 1) for i in range(4)]
    ordered = fs.aggregate(spec, sets)
    shuffled = [sets[2], sets[0], sets[3], sets[1]]
    resorted = fs.aggregate(spec, sorted(shuffled, key=lambda t: t[1]))
    assert same_bits(ordered, resorted)


def random_rows(seed, k):
    """k random models of AGG_SPEC as the rows of a (k, P) matrix."""
    return np.random.default_rng(seed).normal(0.0, 1.0, (k, AGG_SPEC.param_count))


weights_st = st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=6)


@given(seed=st.integers(0, 2**16), weights=weights_st)
def test_aggregate_identical_submissions_give_a_bit_identical_copy(seed, weights):
    row = random_rows(seed, 1)[0]
    out = fs.aggregate(AGG_SPEC, [(row, w) for w in weights])
    assert same_bits(out, row)
    assert not np.shares_memory(out, row)


@given(seed=st.integers(0, 2**16), weights=weights_st, power=st.integers(-20, 20))
def test_aggregate_weights_matter_only_through_their_ratios(seed, weights, power):
    rows = random_rows(seed, len(weights))
    scaled = [w * 2.0 ** power for w in weights]
    assert same_bits(fs.aggregate(AGG_SPEC, [(rows[i], w) for i, w in enumerate(weights)]),
                     fs.aggregate(AGG_SPEC, [(rows[i], w) for i, w in enumerate(scaled)]))


@given(seed=st.integers(0, 2**16), weights=weights_st)
def test_aggregate_of_rows_equals_the_per_array_formula(seed, weights):
    rows = random_rows(seed, len(weights))
    total = float(sum(weights))
    first = AGG_SPEC.views(rows[0])
    out = fs.aggregate(AGG_SPEC, [(rows[i], w) for i, w in enumerate(weights)])
    for name, got in AGG_SPEC.views(out).items():
        want = first[name].copy()
        for i, w in enumerate(weights):
            want += (w / total) * (AGG_SPEC.views(rows[i])[name] - first[name])
        assert got.tobytes() == want.tobytes()


def test_aggregate_errors():
    a = np.zeros(AGG_SPEC.param_count)
    with pytest.raises(ValueError, match="nothing to aggregate"):
        fs.aggregate(AGG_SPEC, [])
    with pytest.raises(ValueError, match="total aggregation weight must be positive"):
        fs.aggregate(AGG_SPEC, [(a, 0)])


# ---------------------------------------------------------------------------
# run_training


def test_run_training_zero_rounds():
    spec, states, val = make_federation()
    config = cfg(rounds_max=0)
    result = fs.run_training(spec, states, val, config, SEED)
    assert result.logs == []
    assert result.convergence_round is None
    assert same_bits(result.params, nn.init_params(spec, (SEED, 601)))


def test_run_training_single_client_equals_centralized_sgd():
    spec, states, val = make_federation(clients=1)
    config = cfg(rounds_max=3, epsilon=0.0001)
    result = fs.run_training(spec, states, val, config, SEED)
    # replay the same schedule by hand
    params = nn.init_params(spec, (SEED, 601))
    replay = fs.ClientState(0, states[0].domain, states[0].index)
    for t in range(1, 4):
        [(submission, _)] = train_round([replay], params, spec, config, t)
        params = submission
    assert same_bits(result.params, params)


def test_run_training_identical_shards_equal_centralized_full_batch():
    # with full-batch steps every client computes the same update, so the
    # weighted mean is bit-identical to the single-client run
    spec, states, val = make_federation(clients=1, per_class=20)
    domain, index = states[0].domain, states[0].index
    config = cfg(rounds_max=3, batch_size=len(index), epsilon=0.0001)
    clones = [fs.ClientState(i, domain, index) for i in range(3)]
    multi = fs.run_training(spec, clones, val, config, SEED)
    single = fs.run_training(spec, [fs.ClientState(0, domain, index)], val, config, SEED)
    assert same_bits(multi.params, single.params)


def test_run_training_records_convergence_and_stops():
    spec, states, val = make_federation(clients=3, per_class=40)
    config = cfg(rounds_max=40, epsilon=0.25, learning_rate=0.5)
    result = fs.run_training(spec, states, val, config, SEED)
    assert result.convergence_round is not None
    assert result.convergence_round == result.logs[-1].round_index
    assert result.logs[-1].val_error < 0.25
    for log in result.logs[:-1]:
        assert log.val_error >= 0.25


def test_run_training_bitwise_deterministic():
    def one_run():
        spec, states, val = make_federation(clients=3)
        return fs.run_training(spec, states, val, cfg(rounds_max=4), SEED)

    a = one_run()
    b = one_run()
    assert same_bits(a.params, b.params)
    assert a.logs == b.logs


def test_round_log_csv_layout():
    logs = [fs.RoundLog(1, 0.5, {0: 1.2, 1: 0.9}),
            fs.RoundLog(2, 0.4, {0: 1.0})]
    text = fs.round_logs_to_csv(logs, [0, 1])
    lines = text.strip().split("\n")
    assert lines[0] == "round,val_error,loss_c0,loss_c1"
    assert lines[2].endswith(",")  # client 1 absent in round 2


def test_round_log_csv_numpy_scalars_write_as_floats():
    """Losses taken from a loss array are numpy scalars; the CSV holds their
    float text, as for Python floats."""
    floats = [fs.RoundLog(1, 0.5, {0: 1.2, 1: 0.1 + 0.2})]
    scalars = [fs.RoundLog(1, np.float64(0.5),
                           {0: np.float64(1.2), 1: np.array([0.1 + 0.2])[0]})]
    assert fs.round_logs_to_csv(scalars, [0, 1]) == fs.round_logs_to_csv(floats, [0, 1])
    assert "np.float64" not in fs.round_logs_to_csv(scalars, [0, 1])


# ---------------------------------------------------------------------------
# fair_unlearn_rounds


def test_fair_rounds_all_clients_matches_run_training():
    spec, states, val = make_federation(clients=3)
    config = cfg(rounds_max=3, epsilon=0.001)
    init = nn.init_params(spec, (SEED, 601))
    full = fs.run_training(spec, states, val, config, SEED)

    spec2, states2, _ = make_federation(clients=3)
    request = unlearn(*(c.client_id for c in states2), rounds_max=3)
    edited, logs = fs.fair_unlearn_rounds(init, spec2, states2, request, val,
                                          config, SEED, start_round=0)
    assert same_bits(full.params, edited)
    assert [l.val_error for l in full.logs] == [l.val_error for l in logs]


def test_fair_rounds_zero_rounds_no_change():
    spec, states, val = make_federation()
    params = nn.init_params(spec, 4)
    out, logs = fs.fair_unlearn_rounds(params, spec, states, unlearn(1, rounds_max=0),
                                       val, cfg(), SEED)
    assert same_bits(out, params)
    assert logs == []


def test_fair_rounds_nonrequesting_counters_frozen():
    spec, states, val = make_federation(clients=4)
    config = cfg(rounds_max=2, epsilon=0.0001)
    trained = fs.run_training(spec, states, val, config, SEED)
    counters = {c.client_id: c.local_step_counter for c in states}
    fs.fair_unlearn_rounds(trained.params, spec, states, unlearn(1, rounds_max=3), val,
                           config, SEED, start_round=len(trained.logs))
    for c in states:
        if c.client_id == 1:
            assert c.local_step_counter > counters[1]
        else:
            assert c.local_step_counter == counters[c.client_id]


def test_fair_rounds_aggregate_the_models_nonrequesters_hold():
    spec, states, val = make_federation(clients=3)
    params = nn.init_params(spec, 1)
    config = cfg(epsilon=0.0001)
    out, _ = fs.fair_unlearn_rounds(params, spec, states, unlearn(1, rounds_max=1), val,
                                    config, SEED, start_round=4)
    [(trained, _)] = train_round([fs.ClientState(1, states[1].domain, states[1].index)],
                                 params, spec, config, 5)
    expected = fs.aggregate(spec, [(params, states[0].sample_count),
                                   (trained, states[1].sample_count),
                                   (params, states[2].sample_count)])
    assert same_bits(out, expected)


def test_fair_rounds_participants_logged():
    spec, states, val = make_federation(clients=3)
    params = nn.init_params(spec, 1)
    _, logs = fs.fair_unlearn_rounds(params, spec, states, unlearn(0, 2, rounds_max=2),
                                     val, cfg(epsilon=0.0001), SEED)
    assert logs and all(tuple(l.client_losses) == (0, 2) for l in logs)


def test_run_training_periodic_checkpoints():
    spec, states, val = make_federation(clients=2)
    config = cfg(rounds_max=5, epsilon=0.0001, checkpoint_every=2)
    saved = []
    result = fs.run_training(spec, states, val, config, SEED,
                             save_round=lambda t, params: saved.append((t, params)))
    assert [t for t, _ in saved] == [2, 4]
    assert len(result.logs) == 5
    assert saved[-1][1].shape == result.params.shape == (spec.param_count,)


def test_unlearn_request_validation():
    spec, states, val = make_federation()
    with pytest.raises(ValueError, match=r"unknown clients \[9\]"):
        fs.fair_unlearn_rounds(nn.init_params(spec, 0), spec, states, unlearn(9),
                               val, cfg(), SEED)
