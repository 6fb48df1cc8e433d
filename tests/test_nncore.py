"""Core substrate tests: forward oracle, finite differences, interventions."""
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fusim import fedsim
from fusim import nncore as nn
from helpers import (hidden_unit_ids, library_step, position, reference_backward,
                     reference_forward, reference_loss_gradient_probs,
                     reference_zeroed_unit_probs, same_bits, vector)


# ---------------------------------------------------------------------------
# Independent oracles, written before the code they check.


def oracle_forward_222(w0, b0, w1, b1, x):
    """Pure-Python forward for flatten-free 2-2-2 dense/relu/dense/softmax."""
    h = [x[0] * w0[0][0] + x[1] * w0[1][0] + b0[0],
         x[0] * w0[0][1] + x[1] * w0[1][1] + b0[1]]
    a = [max(v, 0.0) for v in h]
    z = [a[0] * w1[0][0] + a[1] * w1[1][0] + b1[0],
         a[0] * w1[0][1] + a[1] * w1[1][1] + b1[1]]
    m = max(z)
    e = [math.exp(v - m) for v in z]
    s = sum(e)
    return [v / s for v in e], a


def fd_param_gradients(spec, params, xs, ys, step=1e-5):
    """Central finite differences of the batch loss over every parameter."""
    g = np.zeros_like(params)
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + step
        lp = library_step(spec, params, xs, ys)[1]
        params[i] = orig - step
        lm = library_step(spec, params, xs, ys)[1]
        params[i] = orig
        g[i] = (lp - lm) / (2 * step)
    return g


def tiny_net_222():
    spec = nn.small_mlp((2,), 2, hidden=2)
    params = vector(spec, {
        "layer0.weight": [[0.4, -0.3], [0.7, 0.2]],
        "layer0.bias": [0.1, -0.05],
        "layer1.weight": [[0.9, -0.6], [-0.2, 0.8]],
        "layer1.bias": [0.05, 0.0],
    })
    return spec, params


def random_tiny_dense(rng):
    widths = [int(rng.integers(2, 5)) for _ in range(3)]
    spec = nn.small_mlp((widths[0],), widths[2], hidden=widths[1])
    params = nn.init_params(spec, int(rng.integers(0, 2**31)))
    return spec, params + rng.normal(0, 0.5, params.shape)


def rel_err(a, b, floor=1e-6):
    return np.abs(a - b) / np.maximum(np.abs(b), floor)


def row_scratch(model):
    """A scratch (P,) vector for one row of the (k, P) model."""
    return np.empty(model.shape[-1])


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_weights_uniform():
    spec = nn.small_mlp((3,), 4, hidden=3)
    params = np.zeros(spec.param_count)
    x = np.array([[0.3, -1.0, 2.0]])
    probs = nn.predict_probs(spec, params, x)[0]
    assert np.allclose(probs, 0.25)
    assert nn.batch_unit_activations(spec, params, x).shape == (1, len(spec.hidden_units))


def test_forward_identity_dense_softmax_of_onehot():
    # identity weights: the relu passes the non-negative one-hot input as it is
    spec = nn.small_mlp((3, 1, 1), 3, hidden=3)
    params = vector(spec, {"layer0.weight": np.eye(3), "layer1.weight": np.eye(3)})
    x = np.zeros((3, 1, 1))
    x[1, 0, 0] = 1.0
    probs = nn.predict_probs(spec, params, x[None])[0]
    expected = np.exp([0.0, 1.0, 0.0])
    expected /= expected.sum()
    assert np.allclose(probs, expected, atol=1e-12)


def test_forward_matches_hand_oracle_222():
    spec, params = tiny_net_222()
    x = np.array([0.5, -1.2])
    probs = nn.predict_probs(spec, params, x[None])[0]
    acts = nn.batch_unit_activations(spec, params, x[None])
    p = spec.views(params)
    expected, hidden = oracle_forward_222(
        p["layer0.weight"].tolist(), p["layer0.bias"].tolist(),
        p["layer1.weight"].tolist(), p["layer1.bias"].tolist(), x.tolist())
    assert np.allclose(probs, expected, atol=1e-12)
    assert np.allclose(acts[0], hidden, atol=1e-12)


def test_forward_shape_mismatch_message():
    spec, params = tiny_net_222()
    with pytest.raises(nn.NNError, match=r"input: expected shape \(2,\) per example") as exc:
        nn.predict_probs(spec, params, np.zeros((1, 3)))
    assert "(2,)" in str(exc.value)


def test_forward_probability_normalization_randomized():
    rng = np.random.default_rng(7)
    for _ in range(25):
        spec, params = random_tiny_dense(rng)
        x = rng.normal(0, 1, spec.input_shape)
        probs = nn.predict_probs(spec, params, x[None])[0]
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs >= 0)


def test_forward_deterministic():
    spec = nn.small_cnn((1, 12, 12), 5)
    params = nn.init_params(spec, 3)
    x = np.random.default_rng(1).uniform(0, 1, (1, 12, 12))
    a = nn.predict_probs(spec, params, x[None])
    b = nn.predict_probs(spec, params, x[None])
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# batch_loss_and_gradient


def test_loss_perfect_prediction_near_zero():
    spec = nn.small_mlp((2,), 2, hidden=2)
    params = vector(spec, {"layer0.weight": np.eye(2),
                           "layer1.weight": [[40.0, -40.0], [0.0, 0.0]]})
    _, loss, grads = library_step(spec, params, np.array([[1.0, 0.0]]), np.array([0]))
    assert loss < 1e-9
    assert np.max(np.abs(grads)) < 1e-9


def test_loss_uniform_is_log_c():
    spec = nn.small_mlp((3,), 5, hidden=3)
    params = np.zeros(spec.param_count)
    _, loss, _ = library_step(spec, params, np.array([[1.0, 2.0, 3.0]]), np.array([2]))
    assert abs(loss - math.log(5)) < 1e-12


def test_loss_errors():
    spec, params = tiny_net_222()
    model = params[None]
    with pytest.raises(nn.NNError):
        nn.batch_loss_and_gradient(spec, model, np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(nn.NNError):
        nn.batch_loss_and_gradient(spec, model, np.zeros((1, 2)), np.array([2]))


@given(n=st.integers(1, 8), m=st.integers(0, 9))
def test_loss_rejects_labels_of_another_length(n, m):
    """Too few labels used to raise IndexError; too many were ignored."""
    if m == n:
        m += 1
    spec, params = tiny_net_222()
    with pytest.raises(nn.NNError, match=rf"of {n}, got shape \({m},\)"):
        nn.batch_loss_and_gradient(spec, params[None], np.zeros((n, 2)),
                                   np.zeros(m, dtype=int))


@given(n=st.integers(1, 8), k=st.integers(1, 3))
def test_loss_rejects_labels_of_another_rank(n, k):
    """An (n, k) label array used to raise TypeError (or IndexError)."""
    spec, params = tiny_net_222()
    with pytest.raises(nn.NNError, match=rf"got shape \({n}, {k}\)"):
        nn.batch_loss_and_gradient(spec, params[None], np.zeros((n, 2)),
                                   np.zeros((n, k), dtype=int))


@given(labels=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       dtype=st.sampled_from([np.float64, np.float32, bool]))
def test_loss_rejects_labels_of_a_non_integer_dtype(labels, dtype):
    """Float labels such as 0.5 used to be truncated to class 0."""
    spec, params = tiny_net_222()
    ys = np.array(labels, dtype=dtype)
    with pytest.raises(nn.NNError, match=rf"dtype {np.dtype(dtype).name}$"):
        nn.batch_loss_and_gradient(spec, params[None], np.zeros((len(ys), 2)), ys)


def test_gradient_matches_finite_differences_222():
    spec, params = tiny_net_222()
    xs = np.array([[0.5, -1.2], [-0.3, 0.8]])
    ys = np.array([0, 1])
    _, _, grads = library_step(spec, params, xs, ys)
    fd = fd_param_gradients(spec, params, xs, ys)
    assert np.all(rel_err(grads, fd) < 1e-4)


def test_gradient_matches_finite_differences_conv():
    spec = nn.small_cnn((1, 10, 10), 3)
    params = nn.init_params(spec, 5)
    rng = np.random.default_rng(2)
    batch = [(rng.uniform(0, 1, (1, 10, 10)), int(rng.integers(0, 3))) for _ in range(3)]
    xs = np.stack([img for img, _ in batch])
    ys = np.array([lbl for _, lbl in batch])
    _, _, grads = library_step(spec, params, xs, ys)
    fd = fd_param_gradients(spec, params, xs, ys)
    assert np.all(rel_err(grads, fd) < 1e-4)


# ---------------------------------------------------------------------------
# sgd_step


ONE_WEIGHT_SPEC = nn.small_mlp((1,), 1, hidden=1)


def one_weight_step(gradient, learning_rate, weight=1.0):
    """A 1-1-1 model whose four parameters are weight, stepped on factors
    that form gradient for each: (the (1, P) model, its values before)."""
    model = np.full((1, 4), weight)
    kept = model.copy()
    factors = nn.GradientFactors(ONE_WEIGHT_SPEC, tuple(
        (o, np.ones((1, 1, 1)), np.full((1, 1, 1), gradient)) for o in (1, 0)))
    nn.sgd_step(model, factors, learning_rate, row_scratch(model))
    return model, kept


def test_sgd_zero_lr_identity():
    model, kept = one_weight_step(1.0, 0.0, weight=0.3)
    assert np.array_equal(model, kept)


def test_sgd_forced_arithmetic():
    model, _ = one_weight_step(0.5, 0.1)
    assert model[0, 0] == pytest.approx(0.95, abs=1e-15)


def test_sgd_matches_direct_recomputation():
    """Each row steps to params - lr * a^T g (and each bias to the sum of
    g), from factors a and g given directly."""
    rng = np.random.default_rng(11)
    spec = nn.small_mlp((4,), 2, hidden=3)
    model = rng.normal(0, 1, (2, spec.param_count))
    kept = model.copy()
    a0, g0 = rng.normal(0, 1, (2, 5, 4)), rng.normal(0, 1, (2, 5, 3))
    a1, g1 = rng.normal(0, 1, (2, 5, 3)), rng.normal(0, 1, (2, 5, 2))
    lr = 0.37
    factors = nn.GradientFactors(spec, ((1, a1, g1), (0, a0, g0)))
    nn.sgd_step(model, factors, lr, row_scratch(model))
    for i in range(2):
        grad = np.concatenate([(a0[i].T @ g0[i]).ravel(), np.add.reduce(g0[i], axis=0),
                               (a1[i].T @ g1[i]).ravel(), np.add.reduce(g1[i], axis=0)])
        assert np.array_equal(model[i], kept[i] - lr * grad)


def test_sgd_zero_gradient_identity():
    model, kept = one_weight_step(0.0, 0.5, weight=0.3)
    assert np.array_equal(model, kept)


def test_sgd_rejects_nonfinite_gradient():
    with pytest.raises(nn.NNError, match="gradient of layer0.weight"):
        one_weight_step(np.nan, 0.1)


def test_sgd_out_in_place_bit_identical_to_out_of_place():
    """A (k, P) model is updated in place, each row with the bits of its own
    k = 1 step and with the values of params - lr * gradient from the
    out-of-place reference, and scratch ends up holding the last row's
    gradient times the learning rate."""
    spec = nn.small_mlp((1, 4, 4), 3, hidden=6)
    sets = [nn.init_params(spec, i) for i in range(3)]
    model = np.stack(sets)
    x = np.random.default_rng(12).random((6, *spec.input_shape))
    y = np.array([0, 1, 2, 2, 1, 0])
    scratch = row_scratch(model)
    lr = 0.37
    _, factors = nn.batch_loss_and_gradient(spec, model, x, y)
    assert nn.sgd_step(model, factors, lr, scratch) is model
    for i, params in enumerate(sets):
        rows = slice(2 * i, 2 * i + 2)
        stepped, _, grads = library_step(spec, params, x[rows], y[rows], lr)
        assert same_bits(model[i], stepped)
        _, ref, _ = reference_loss_gradient_probs(spec, params, x[rows], y[rows])
        assert same_bits(stepped, params - lr * ref)
    assert same_bits(scratch, lr * grads)


def test_sgd_out_rejects_nonfinite_gradient_before_writing():
    """A NaN pixel in row 1's block makes only that row's gradient
    non-finite: row 0 steps, row 1 and row 2 are not written, and the error
    names row 1 and the first parameter."""
    spec = nn.small_mlp((1, 4, 4), 3, hidden=6)
    model = np.stack([nn.init_params(spec, i) for i in range(3)])
    x = np.random.default_rng(12).random((6, *spec.input_shape))
    x[3, 0, 1, 2] = np.nan
    kept = model.copy()
    _, factors = nn.batch_loss_and_gradient(spec, model, x, np.array([0, 1, 2, 2, 1, 0]))
    with pytest.raises(nn.NNError, match="non-finite values in gradient of layer0.weight$") \
            as exc:
        nn.sgd_step(model, factors, 0.1, row_scratch(model))
    assert exc.value.row == 1
    assert not same_bits(model[0], kept[0])
    assert same_bits(model[1:], kept[1:])


BOUNDARY_SPEC = nn.small_mlp((1, 3, 3), 3, hidden=4)
BOUNDARY_P = BOUNDARY_SPEC.param_count


def boundary_call(target, params, tmp_path):
    """Call target with params in the place it names: a model's (P,) vector
    (predict_probs, an update of aggregate, save_checkpoint), a (k, P) model
    (batch_loss_and_gradient, sgd_step's model) or sgd_step's scratch."""
    spec, good = BOUNDARY_SPEC, nn.init_params(BOUNDARY_SPEC, 0)
    x, y = np.zeros((2, *spec.input_shape)), np.array([0, 1])
    model = np.stack([good, good])
    _, factors = nn.batch_loss_and_gradient(spec, model, x, y)
    if target == "predict_probs":
        nn.predict_probs(spec, params, x)
    elif target == "batch_loss_and_gradient":
        nn.batch_loss_and_gradient(spec, params, x, y)
    elif target == "sgd_step_model":
        nn.sgd_step(params, factors, 0.1, row_scratch(model))
    elif target == "sgd_step_scratch":
        nn.sgd_step(model, factors, 0.1, params)
    elif target == "aggregate":
        fedsim.aggregate(spec, [(good, 1.0), (params, 1.0)])
    else:
        nn.save_checkpoint(tmp_path / "model.fusim", spec, params)
        assert False, "saved"


@pytest.mark.parametrize("target", ["predict_probs", "batch_loss_and_gradient",
                                    "sgd_step_model", "sgd_step_scratch", "aggregate",
                                    "save_checkpoint"])
@pytest.mark.parametrize("wrong", ["length", "dtype", "ndim"])
def test_parameters_of_another_shape_or_dtype_are_refused(tmp_path, target, wrong):
    """Every function that takes parameters refuses an array whose last
    axis is not P, whose dtype is not float64 or whose rank is not its own
    ((P,), or (k, P) for a stacked model), naming P and what it found; a
    refused sgd_step writes nothing and save_checkpoint leaves no file."""
    stacked = target in ("batch_loss_and_gradient", "sgd_step_model")
    shape = (2, BOUNDARY_P) if stacked else (BOUNDARY_P,)
    params = {"length": np.zeros(shape[:-1] + (BOUNDARY_P + 1,)),
              "dtype": np.zeros(shape, dtype=np.float32),
              "ndim": np.zeros(shape[1:] if stacked else (1,) + shape)}[wrong]
    kept = params.tobytes()
    with pytest.raises(nn.NNError, match="parameters must be a float64 array") as exc:
        boundary_call(target, params, tmp_path)
    assert (f"P = {BOUNDARY_P}, got {params.dtype} array of shape {params.shape}"
            in str(exc.value))
    assert params.tobytes() == kept
    assert not (tmp_path / "model.fusim").exists()


def formed_rows(spec, model, x, y, learning_rate=0.1, scratch=None):
    """One stacked step of model (a (k, P) matrix) on x and y: the loss and
    a copy of each gradient row sgd_step forms, in row order, taken as the
    row is checked; model is stepped in place."""
    rows, real = [], nn._all_finite

    def spy(v):
        rows.append(v.copy())
        return real(v)

    loss, factors = nn.batch_loss_and_gradient(spec, model, x, y)
    scratch = row_scratch(model) if scratch is None else scratch
    with mock.patch.object(nn, "_all_finite", spy):
        assert nn.sgd_step(model, factors, learning_rate, scratch) is model
    return loss, rows


def test_batch_gradient_out_buffers_bit_identical():
    """Every gradient, conv ones too, that sgd_step forms in its scratch row
    has the out-of-place reference's bits, with every element of the row
    written."""
    rng = np.random.default_rng(13)
    for spec in (nn.small_mlp((1, 6, 6), 4, hidden=8), nn.small_cnn((1, 10, 10), 4)):
        params = nn.init_params(spec, 4)
        x = rng.random((7, *spec.input_shape))
        y = rng.integers(0, 4, 7)
        loss, grads, _ = reference_loss_gradient_probs(spec, params, x, y)
        scratch = np.full(spec.param_count, np.nan)
        row_loss, [row] = formed_rows(spec, params[None].copy(), x, y, scratch=scratch)
        assert row_loss[0] == loss
        assert same_bits(row + 0.0, grads + 0.0)


def test_batch_gradient_out_rejects_other_layout():
    """A (k, P) model steps only on the factors of a call on k models of its
    own spec, with a (P,) scratch; nothing is written else."""
    spec, other_spec = (nn.small_mlp((1, 6, 6), 4, hidden=h) for h in (8, 7))
    model = np.stack([nn.init_params(spec, 4)] * 2)
    x, y = np.zeros((6, 1, 6, 6)), np.array([0, 1, 2, 3, 0, 1])
    _, factors = nn.batch_loss_and_gradient(spec, model, x[:2], y[:2])
    other = np.stack([nn.init_params(other_spec, 4)] * 2)
    _, other_factors = nn.batch_loss_and_gradient(other_spec, other, x[:2], y[:2])
    three = np.stack([nn.init_params(spec, 4)] * 3)
    _, three_factors = nn.batch_loss_and_gradient(spec, three, x[:3], y[:3])
    kept = model.tobytes()
    for gradient, scratch in ((other_factors, row_scratch(model)),
                              (three_factors, row_scratch(model)),
                              (factors, nn.init_params(other_spec, 4)),
                              (factors, model[0:1]), (factors, model)):
        with pytest.raises(nn.NNError, match=r"P = \d+, got|gradient of 3 models"):
            nn.sgd_step(model, gradient, 0.1, scratch)
    assert model.tobytes() == kept


@pytest.mark.bitid
@pytest.mark.parametrize("learning_rate", [-0.1, np.nan, np.inf])
def test_stacked_step_refuses_a_negative_or_nonfinite_learning_rate(learning_rate):
    spec = nn.small_mlp((1, 6, 6), 4, hidden=8)
    model = np.stack([nn.init_params(spec, 4)] * 2)
    _, factors = nn.batch_loss_and_gradient(spec, model, np.zeros((4, 1, 6, 6)),
                                            np.array([0, 1, 2, 3]))
    kept = model.tobytes()
    with pytest.raises(nn.NNError, match="learning rate must be finite and non-negative"):
        nn.sgd_step(model, factors, learning_rate, row_scratch(model))
    assert model.tobytes() == kept


@pytest.mark.parametrize("model, shapes", [
    ("small_mlp", [(100, 128), (128,), (128, 4), (4,)]),
    ("small_cnn", [(8, 1, 3, 3), (8,), (16, 8, 3, 3), (16,), (16, 4), (4,)]),
], ids=["small_mlp", "small_cnn"])
def test_views_tile_vector_in_spec_order(model, shapes):
    """spec.views are writable views that tile the vector back to back, each
    layer's weight then its bias in network order; a (k, P) matrix's views
    are (k, *shape), row i's those of row i."""
    spec = getattr(nn, model)((1, 10, 10), 4)
    params = nn.init_params(spec, 6)
    views = spec.views(params)
    names = [f"layer{o}.{kind}" for o in range(len(shapes) // 2) for kind in ("weight", "bias")]
    assert [(k, v.shape) for k, v in views.items()] == list(zip(names, shapes))
    offset = 0
    for view in views.values():
        assert np.shares_memory(view, params)
        assert same_bits(params[offset:offset + view.size], view.ravel())
        offset += view.size
    assert offset == params.size == spec.param_count
    rows = spec.views(np.stack([params, -params]), stacked=True)
    for name, view in views.items():
        assert same_bits(rows[name][0], view) and same_bits(rows[name][1], -view)
    params[:] = 7.0
    assert all(np.all(view == 7.0) for view in views.values())


# ---------------------------------------------------------------------------
# forward_with_scaled_unit


def test_scaled_unit_scale_one_bit_identical():
    spec, params = tiny_net_222()
    x = np.array([0.5, -1.2])
    plain = nn.predict_probs(spec, params, x[None])[0]
    for unit in (nn.UnitId(l, k) for l in range(2) for k in range(2)):
        scaled = nn.forward_with_scaled_unit(spec, params, x, unit, 1.0)
        assert np.array_equal(plain, scaled)


def test_scaled_unit_zero_downstream_zero_noop():
    spec, params = tiny_net_222()
    spec.views(params)["layer1.weight"][0, :] = 0.0  # unit (0,0) disconnected downstream
    x = np.array([0.5, -1.2])
    plain = nn.predict_probs(spec, params, x[None])[0]
    scaled = nn.forward_with_scaled_unit(spec, params, x, nn.UnitId(0, 0), 0.0)
    assert np.allclose(plain, scaled, atol=1e-15)


def test_scaled_unit_half_matches_hand_oracle():
    spec, params = tiny_net_222()
    x = np.array([0.5, -1.2])
    p = spec.views(params)
    _, hidden = oracle_forward_222(
        p["layer0.weight"].tolist(), p["layer0.bias"].tolist(),
        p["layer1.weight"].tolist(), p["layer1.bias"].tolist(), x.tolist())
    a = [hidden[0] * 0.5, hidden[1]]
    w1, b1 = p["layer1.weight"], p["layer1.bias"]
    z = [a[0] * w1[0][0] + a[1] * w1[1][0] + b1[0],
         a[0] * w1[0][1] + a[1] * w1[1][1] + b1[1]]
    e = [math.exp(v - max(z)) for v in z]
    expected = [v / sum(e) for v in e]
    got = nn.forward_with_scaled_unit(spec, params, x, nn.UnitId(0, 0), 0.5)
    assert np.allclose(got, expected, atol=1e-12)


def test_scaled_unit_invalid_unit():
    spec, params = tiny_net_222()
    with pytest.raises(nn.NNError, match="unit 9 out of range for layer 0"):
        nn.forward_with_scaled_unit(spec, params, np.zeros(2), nn.UnitId(0, 9), 0.5)
    with pytest.raises(nn.NNError, match="unit layer 5 out of range"):
        nn.forward_with_scaled_unit(spec, params, np.zeros(2), nn.UnitId(5, 0), 0.5)


def test_scaled_unit_conv_channel_scales_whole_map():
    spec = nn.small_cnn((1, 10, 10), 3)
    params = nn.init_params(spec, 9)
    x = np.random.default_rng(4).uniform(0, 1, (1, 10, 10))
    plain = nn.predict_probs(spec, params, x[None])[0]
    # layer 0's channels are the first positions of the hidden-unit axis
    ch = int(np.argmax(nn.batch_unit_activations(spec, params, x[None])[0, :spec.unit_count(0)]))
    scaled = nn.forward_with_scaled_unit(spec, params, x, nn.UnitId(0, ch), 0.0)
    # independent check: zero the channel by zeroing its filters and bias
    edited = nn.zero_units(spec, params, [ch])
    ref = nn.predict_probs(spec, edited, x[None])[0]
    assert np.allclose(scaled, ref, atol=1e-12)
    assert not np.allclose(plain, scaled)


# ---------------------------------------------------------------------------
# gradient_wrt_unit


def test_unit_gradient_zero_outgoing_weights():
    spec, params = tiny_net_222()
    spec.views(params)["layer1.weight"][1, :] = 0.0
    g = nn.gradient_wrt_unit(spec, params, np.array([0.5, -1.2]), 0, nn.UnitId(0, 1), 1.0)
    assert g == 0.0


def test_unit_gradient_dead_downstream_relu():
    spec = nn.small_cnn((1, 10, 10), 3)
    params = nn.init_params(spec, 0)
    spec.views(params)["layer1.bias"][...] = -100.0  # conv1's relu always dead
    x = np.random.default_rng(3).uniform(0.0, 1.0, (1, 10, 10))
    for k in range(spec.unit_count(0)):
        assert nn.gradient_wrt_unit(spec, params, x, 0, nn.UnitId(0, k), 1.0) == 0.0


def test_unit_gradient_matches_finite_difference():
    spec, params = tiny_net_222()
    x = np.array([0.9, 0.2])
    unit = nn.UnitId(0, 0)
    beta = nn.batch_unit_activations(spec, params, x[None])[0, 0]
    assert beta > 0
    s = 0.6
    delta = 1e-6
    pp = nn.forward_with_scaled_unit(spec, params, x, unit, s + delta)[0]
    pm = nn.forward_with_scaled_unit(spec, params, x, unit, s - delta)[0]
    fd = (pp - pm) / (2 * delta * beta)
    g = nn.gradient_wrt_unit(spec, params, x, 0, unit, s)
    assert rel_err(np.array(g), np.array(fd)) < 1e-4


def test_unit_gradient_conv_channel_sums_positions():
    # additive-perturbation finite difference on the whole channel map,
    # via a bias nudge on the channel (bias shifts every map position).
    spec = nn.small_cnn((1, 10, 10), 3)
    params = nn.init_params(spec, 6)
    x = np.random.default_rng(8).uniform(0.2, 1.0, (1, 10, 10))
    unit = nn.UnitId(1, 3)  # conv layer followed by relu: keep map positive
    spec.views(params)["layer1.bias"][...] += 0.5
    trace_map = nn.batch_unit_activations(spec, params, x[None])[0, position(spec, unit)]
    assert trace_map > 0
    delta = 1e-6
    pp_params = params.copy()
    spec.views(pp_params)["layer1.bias"][3] += delta
    pm_params = params.copy()
    spec.views(pm_params)["layer1.bias"][3] -= delta
    pp = nn.predict_probs(spec, pp_params, x[None])[0, 1]
    pm = nn.predict_probs(spec, pm_params, x[None])[0, 1]
    fd = (pp - pm) / (2 * delta)
    g = nn.gradient_wrt_unit(spec, params, x, 1, unit, 1.0)
    assert rel_err(np.array(g), np.array(fd)) < 1e-4


def test_unit_gradient_conv_channel_matches_scaled_forward_fd():
    # A constant channel map (zero filters, positive bias) makes scaling the
    # map the same as moving every position together, so the derivative of
    # the scaled forward pass is beta times the position-summed gradient.
    spec = nn.small_cnn((1, 16, 16), 3)
    x = np.random.default_rng(2).uniform(0.0, 1.0, (1, 16, 16))
    for ordinal, ch in ((0, 5), (1, 9)):
        params = nn.init_params(spec, 12)
        p = spec.views(params)
        p[f"layer{ordinal}.weight"][ch] = 0.0
        p[f"layer{ordinal}.bias"][ch] = 0.4
        unit = nn.UnitId(ordinal, ch)
        beta = nn.batch_unit_activations(spec, params, x[None])[0, position(spec, unit)]
        assert beta == pytest.approx(0.4)
        for s in (0.3, 0.8):
            delta = 1e-6
            pp = nn.forward_with_scaled_unit(spec, params, x, unit, s + delta)[2]
            pm = nn.forward_with_scaled_unit(spec, params, x, unit, s - delta)[2]
            fd = (pp - pm) / (2 * delta * beta)
            g = nn.gradient_wrt_unit(spec, params, x, 2, unit, s)
            assert abs(fd) > 1e-6
            assert rel_err(np.array(g), np.array(fd)) < 1e-4, (ordinal, s)


def test_unit_gradient_refuses_a_non_scalar_scale():
    """gradient_wrt_unit takes one scale in [0, 1], as forward_with_scaled_unit does."""
    spec, params = tiny_net_222()
    x, unit = np.array([0.5, -1.2]), nn.UnitId(0, 0)
    for call in (nn.gradient_wrt_unit, nn.forward_with_scaled_unit):
        args = (0, unit) if call is nn.gradient_wrt_unit else (unit,)
        for scale in (np.array([0.5]), [0.5], -0.1, 1.5):
            with pytest.raises(nn.NNError, match="scale must be a scalar in"):
                call(spec, params, x, *args, scale)


def fd_scaled_forward(spec, params, x, target, unit, s, delta=1e-6):
    """dP(target)/ds by central differences of forward_with_scaled_unit."""
    pp = nn.forward_with_scaled_unit(spec, params, x, unit, s + delta)[target]
    pm = nn.forward_with_scaled_unit(spec, params, x, unit, s - delta)[target]
    return (pp - pm) / (2 * delta)


@pytest.mark.parametrize("make_spec", [
    lambda: nn.small_mlp((1, 6, 6), 4, hidden=12),
    lambda: nn.small_cnn((1, 16, 16), 4),
], ids=["small_mlp", "small_cnn"])
def test_batch_unit_gradients_match_scaled_copy_engine(make_spec):
    """batch_zeroed_unit_probs gives forward_with_scaled_unit's values at
    scale 0 on every hidden unit, and batch_unit_gradients, weighted by the
    unit's site map (dP/ds = <a, dP/da>), the central differences of
    forward_with_scaled_unit in s on every unit of every layer."""
    spec = make_spec()
    params = nn.init_params(spec, 4)
    rng = np.random.default_rng(5)
    xs = rng.normal(0.0, 1.0, (3,) + spec.input_shape)  # mixed signs at every site
    scales = np.array([0.05, 0.5, 0.9])
    probs = nn.batch_zeroed_unit_probs(spec, params, xs, 1)
    assert probs.shape == (len(spec.hidden_units), len(xs))
    for unit, p in zip(hidden_unit_ids(spec), probs):
        want = [nn.forward_with_scaled_unit(spec, params, x, unit, 0.0)[1] for x in xs]
        np.testing.assert_allclose(p, want, rtol=1e-12, atol=1e-15)
    checked = 0
    for ordinal in range(spec.param_layer_count):
        site = nn.batch_site_outputs(spec, params, xs, ordinal)
        for unit in (nn.UnitId(ordinal, k) for k in range(spec.unit_count(ordinal))):
            for s in scales:
                got = nn.batch_unit_gradients(spec, params, site, 1, unit, np.full(len(xs), s))
                assert got.shape == site[:, unit.unit].shape
                dp_ds = (site[:, unit.unit] * got).reshape(len(xs), -1).sum(axis=1)
                fd = [fd_scaled_forward(spec, params, x, 1, unit, s) for x in xs]
                np.testing.assert_allclose(dp_ds, fd, rtol=1e-4, atol=1e-9)
                checked += int(np.count_nonzero(np.abs(dp_ds) > 1e-6))
    assert checked >= 20


def test_batch_unit_gradients_rejects_negative_scale():
    """batch_unit_gradients takes one finite non-negative scale a row; it and
    the scorer refuse a target class out of range."""
    spec = nn.small_cnn((1, 10, 10), 3)
    params = nn.init_params(spec, 1)
    xs = np.random.default_rng(0).uniform(0.0, 1.0, (2, 1, 10, 10))
    site = nn.batch_site_outputs(spec, params, xs, 0)
    unit = nn.UnitId(0, 0)
    with pytest.raises(nn.NNError, match="non-negative"):
        nn.batch_unit_gradients(spec, params, site, 0, unit, np.array([0.5, -0.1]))
    with pytest.raises(nn.NNError, match="non-negative"):
        nn.batch_unit_gradients(spec, params, site, 0, unit, np.array([0.5, np.inf]))
    with pytest.raises(nn.NNError, match=r"expected 2 scales, got shape \(1,\)"):
        nn.batch_unit_gradients(spec, params, site, 0, unit, np.array([0.5]))
    with pytest.raises(nn.NNError, match="input of layer"):  # rows of another layer's site
        nn.batch_unit_gradients(spec, params, site, 0, nn.UnitId(1, 0), np.array([0.5, 0.5]))
    for target in (-1, 3):  # a negative class once indexed from the end
        with pytest.raises(nn.NNError, match=f"target class {target} out of range"):
            nn.batch_unit_gradients(spec, params, site, target, unit, np.array([0.5, 0.5]))
        with pytest.raises(nn.NNError, match=f"target class {target} out of range"):
            nn.batch_zeroed_unit_probs(spec, params, xs, target)


@pytest.mark.parametrize("make_spec", [
    lambda: nn.small_mlp((1, 6, 6), 4, hidden=12),
    lambda: nn.small_cnn((1, 16, 16), 4),
], ids=["small_mlp", "small_cnn"])
def test_batch_unit_gradients_leave_site_rows_unchanged(make_spec):
    """batch_unit_gradients writes neither into its site rows nor into its
    scales, and batch_zeroed_unit_probs not into its inputs."""
    spec = make_spec()
    params = nn.init_params(spec, 8)
    xs = np.random.default_rng(1).uniform(0.0, 1.0, (3,) + spec.input_shape)
    site = nn.batch_site_outputs(spec, params, xs, 0)
    scales = np.array([0.0, 0.4, 1.0])
    kept = site.copy(), scales.copy(), xs.copy()
    for unit in (nn.UnitId(0, k) for k in range(spec.unit_count(0))):
        nn.batch_unit_gradients(spec, params, site, 0, unit, scales)
    nn.batch_zeroed_unit_probs(spec, params, xs, 0)
    assert all(np.array_equal(a, b) for a, b in zip((site, scales, xs), kept))


# ---------------------------------------------------------------------------
# element-wise layers: result bits and the write rule


def reference_unit_gradients(spec, params, x, target, unit, scales):
    """batch_unit_gradients of one unit on reference_forward and
    reference_backward, for x the network inputs: the layers after the site
    run on a copy of it with the unit scaled."""
    start = spec.site_position(unit.layer) + 1
    site = reference_forward(spec, params, x, 0, start)[0].copy()
    site[:, unit.unit] *= scales.reshape(-1, *(1,) * (site.ndim - 2))
    probs, caches = reference_forward(spec, params, site, start)
    seed = np.zeros(probs.shape)
    seed[:, target] = 1.0
    return reference_backward(spec, params, caches, seed, start)[0][:, unit.unit]


def hidden_layers(spec):
    return range(spec.param_layer_count - 1)


@pytest.mark.bitid
@pytest.mark.parametrize("model", ["small_mlp", "small_cnn"])
def test_engine_bits_equal_out_of_place_reference(model):
    """Evaluation, the loss and the gradient row a stacked step forms give
    the reference's bits.  Gradients are compared after + 0.0: relu backward
    multiplies by its mask and may give -0.0 where np.where gives +0.0, and
    nothing else."""
    spec = getattr(nn, model)((1, 12, 12), 4)
    rng = np.random.default_rng(21)
    for seed in range(6):
        # one draw of P values: the per-parameter draws of spec order, back to back
        params = nn.init_params(spec, seed) + rng.normal(0.0, 0.1, spec.param_count)
        x = rng.normal(0.0, 1.0, (9, *spec.input_shape))  # mixed signs: dead relu units
        y = rng.integers(0, 4, 9)
        loss, grads, probs = reference_loss_gradient_probs(spec, params, x, y)
        assert same_bits(nn.predict_probs(spec, params, x), probs)
        row_loss, [row] = formed_rows(spec, params[None].copy(), x, y)
        assert row_loss[0] == loss
        assert same_bits(row + 0.0, grads + 0.0)


@pytest.mark.bitid
@pytest.mark.parametrize("make_spec", [
    lambda: nn.small_mlp((1, 6, 6), 4, hidden=12),
    lambda: nn.small_cnn((1, 16, 16), 4),
], ids=["small_mlp", "small_cnn"])
def test_unstacked_outputs_equal_out_of_place_reference(make_spec):
    """On a fixed model, predict_probs, batch_zeroed_unit_probs and
    batch_unit_gradients (up to four units a layer) give the reference's
    bits: the engine's stack axis leaves unstacked calls as they were."""
    spec = make_spec()
    params = nn.init_params(spec, 6)
    x = np.random.default_rng(7).normal(0.0, 1.0, (5, *spec.input_shape))
    scales = np.array([0.0, 0.3, 0.5, 1.0, 0.8])
    assert same_bits(nn.predict_probs(spec, params, x), reference_forward(spec, params, x)[0])
    probs = nn.batch_zeroed_unit_probs(spec, params, x, 1)
    for ordinal in range(spec.param_layer_count):
        site = nn.batch_site_outputs(spec, params, x, ordinal)
        for unit in (nn.UnitId(ordinal, j) for j in range(min(4, spec.unit_count(ordinal)))):
            got = nn.batch_unit_gradients(spec, params, site, 1, unit, scales)
            want = reference_unit_gradients(spec, params, x, 1, unit, scales)
            assert same_bits(got + 0.0, want + 0.0), unit
            if ordinal in hidden_layers(spec):
                assert same_bits(probs[position(spec, unit)],
                                 reference_zeroed_unit_probs(spec, params, x, 1, unit))


@pytest.mark.bitid
@settings(max_examples=15)
@given(k=st.integers(1, 4), block=st.integers(1, 6), model=st.sampled_from(["mlp", "cnn"]),
       seed=st.integers(0, 2**16))
def test_stacked_loss_and_gradient_bit_identical_to_unstacked_calls(k, block, model, seed):
    """k models stacked on a leading axis, each on its own block of rows,
    give each model's k = 1 loss bit for bit; so do the gradient rows
    sgd_step forms from the call's factors, and the rows it steps.  Loss and
    gradient are the out-of-place reference's too."""
    spec = (nn.small_mlp((1, 6, 6), 3, hidden=5) if model == "mlp"
            else nn.small_cnn((1, 10, 10), 3))
    rng = np.random.default_rng(seed)
    sets = [nn.init_params(spec, (seed, i)) for i in range(k)]
    x = rng.normal(0.0, 1.0, (k * block, *spec.input_shape))
    y = rng.integers(0, 3, k * block)
    stacked = np.stack(sets)
    loss, rows = formed_rows(spec, stacked, x, y, learning_rate=0.3)
    assert loss.shape == (k,) and len(rows) == k
    for i, params in enumerate(sets):
        block_rows = slice(i * block, (i + 1) * block)
        stepped, want_loss, want = library_step(spec, params, x[block_rows], y[block_rows],
                                                0.3)
        assert loss[i] == want_loss
        assert same_bits(rows[i], want)
        assert same_bits(stacked[i], stepped)
        ref_loss, ref, _ = reference_loss_gradient_probs(spec, params, x[block_rows],
                                                         y[block_rows])
        assert ref_loss == want_loss
        assert same_bits(rows[i] + 0.0, ref + 0.0)


@pytest.mark.bitid
@pytest.mark.parametrize("k", [1, 4])
def test_stacked_step_makes_one_finite_pass_per_row(k):
    """One stacked step (batch_loss_and_gradient, then sgd_step) checks the
    gradient once per row, on the one (P,) scratch vector it forms each row
    in, and nowhere else."""
    spec = nn.small_mlp((1, 6, 6), 3, hidden=5)
    model = np.stack([nn.init_params(spec, i) for i in range(k)])
    x = np.random.default_rng(k).random((2 * k, *spec.input_shape))
    scratch = row_scratch(model)
    with mock.patch.object(nn, "_all_finite", wraps=nn._all_finite) as spy:
        _, factors = nn.batch_loss_and_gradient(spec, model, x, np.arange(2 * k) % 3)
        nn.sgd_step(model, factors, 0.1, scratch)
    assert spy.call_count == k
    assert all(call.args[0] is scratch for call in spy.call_args_list)


@pytest.mark.bitid
def test_stacked_errors_name_the_row():
    spec = nn.small_mlp((1, 3, 3), 3, hidden=4)
    stacked = np.stack([nn.init_params(spec, i) for i in range(3)])
    x = np.zeros((6, 1, 3, 3))
    with pytest.raises(nn.NNError, match="label out of range") as exc:
        nn.batch_loss_and_gradient(spec, stacked, x, np.array([0, 1, 2, 0, 3, 1]))
    assert exc.value.row == 2
    with pytest.raises(nn.NNError, match="7 rows do not split into 3"):
        nn.batch_loss_and_gradient(spec, stacked, np.zeros((7, 1, 3, 3)),
                                   np.zeros(7, dtype=int))
    # row 1 puts all its mass on class 0, so its label 2 gets probability 0
    spec.views(stacked, stacked=True)["layer1.bias"][1] = [1e4, 0.0, 0.0]
    with pytest.raises(nn.NNError, match="probability underflow") as exc:
        nn.batch_loss_and_gradient(spec, stacked, x, np.array([0, 1, 2, 0, 1, 2]))
    assert exc.value.row == 1


# ---------------------------------------------------------------------------
# unit blocks: a unit's values do not depend on the units beside it


# around numpy's eight summation accumulators and its 128-value pairwise block
CLASS_WIDTHS = [2, 3, 7, 8, 9, 10, 15, 16, 17, 33, 100, 128]


def special_rows(c, seed):
    """Rows of c values: normals, draws from ±0.0, ±inf, NaN, subnormals and
    values near the largest float, rows of ±0.0 alone (one all -0.0), rows
    whose sums overflow and rows of subnormals."""
    rng = np.random.default_rng(seed)
    tiny, least, big = 5e-324, 2.2250738585072014e-308, np.finfo(np.float64).max
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, least, -least,
                big, -big, big / 3, 1.0, -1.0]
    return np.concatenate([rng.normal(0.0, 1.0, (64, c)), rng.choice(specials, (96, c)),
                           rng.choice([0.0, -0.0], (32, c)), np.full((1, c), -0.0),
                           rng.choice([big, -big, big / 3, 1.0], (32, c)),
                           rng.choice([tiny, -tiny, least, 0.0], (32, c))])


def same_bits_or_nan(got, want):
    """The same bytes, np.signbit included, except that where want is NaN
    got need only be NaN too: numpy's compiled loops order the operands of a
    NaN + NaN add their own way, so which NaN a sum gives is not pinned."""
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


def softmax_pass(spec, h, seed):
    """The engine's softmax forward on h, then its backward on seed."""
    views = spec.views(nn.init_params(spec, 0))
    start = len(spec.layers) - 1
    probs, caches = nn._forward_engine(spec, views, h, keep_caches=True, start=start)
    return probs, nn._backward_engine(spec, views, caches, seed, start=start)[1]


@pytest.mark.bitid
@pytest.mark.parametrize("c", CLASS_WIDTHS)
def test_class_major_reductions_and_softmax_have_the_row_major_bits(c):
    """The softmax reduces over the classes along each row of C values, so
    a stack of row blocks, as batch_zeroed_unit_probs forms one (units, n,
    C) and a stacked training step one (k, B, C), gives every row the bytes
    of the engine's softmax of that row alone, forward and backward for a
    one-hot seed: zero maxima, signs of zero, overflowing sums and NaN rows
    included.  The engine writes into neither input."""
    h = special_rows(c, c)[:256].reshape(8, 32, c)
    kept = h.tobytes()
    spec = nn.small_mlp((1,), c, hidden=1)
    with np.errstate(all="ignore"):
        for target in sorted({0, c // 2, c - 1}):
            seed = np.zeros(h.shape)
            seed[..., target] = 1.0
            seed_kept = seed.tobytes()
            probs, g = softmax_pass(spec, h, seed)
            assert (h.tobytes(), seed.tobytes()) == (kept, seed_kept)
            flat_probs, flat_g = softmax_pass(spec, h.reshape(-1, c), seed.reshape(-1, c))
            assert same_bits_or_nan(probs.reshape(-1, c), flat_probs), target
            assert same_bits_or_nan(g.reshape(-1, c), flat_g), target
            for row in np.ndindex(h.shape[:2]):
                want_probs, want_g = softmax_pass(spec, h[row][None], seed[row][None])
                assert same_bits_or_nan(probs[row][None], want_probs), (target, row)
                assert same_bits_or_nan(g[row][None], want_g), (target, row)


@pytest.mark.bitid
def test_softmax_of_129_classes_takes_the_row_major_path():
    """At C = 129 numpy's row sum recurses and its order is no longer the
    eight accumulators; attribution over 128 and 129 classes reduces each
    row on its own all the same, with the out-of-place reference's bits."""
    for c in (128, 129):
        spec = nn.small_mlp((1, 4, 4), c, hidden=3)
        rng = np.random.default_rng(c)
        params = nn.init_params(spec, 1) + rng.normal(0.0, 0.5, spec.param_count)
        x = rng.normal(0.0, 1.0, (40, *spec.input_shape))
        scales = np.linspace(0.0, 1.0, 40)
        site = nn.batch_site_outputs(spec, params, x, 0)
        probs = nn.batch_zeroed_unit_probs(spec, params, x, c - 1)
        for unit, p in zip(hidden_unit_ids(spec), probs):
            got = nn.batch_unit_gradients(spec, params, site, c - 1, unit, scales)
            want = reference_unit_gradients(spec, params, x, c - 1, unit, scales)
            assert same_bits(got + 0.0, want + 0.0), (c, unit)
            assert same_bits(p, reference_zeroed_unit_probs(spec, params, x, c - 1, unit)), \
                (c, unit)


@pytest.mark.bitid
@pytest.mark.parametrize("make_spec", [
    lambda: nn.small_mlp((1, 8, 8), 10, hidden=24),
    lambda: nn.small_cnn((1, 12, 12), 10),
], ids=["small_mlp", "small_cnn"])
def test_tall_attribution_block_has_the_row_major_bits(make_spec):
    """On 320 rows, batch_zeroed_unit_probs under a cap of three units of
    each hidden layer a block, stacked on a leading axis, gives, byte for
    byte, the out-of-place reference of that layer's units, as does
    batch_unit_gradients on every layer (after + 0.0, see
    test_engine_bits_equal_out_of_place_reference); the inputs and the site
    rows keep their bytes."""
    spec = make_spec()
    rng = np.random.default_rng(11)
    params = nn.init_params(spec, 4) + rng.normal(0.0, 0.1, spec.param_count)
    x = np.repeat(rng.normal(0.0, 1.0, (16, *spec.input_shape)), 20, axis=0)
    scales = np.tile(np.arange(1, 21) / 20, 16)
    kept_x = x.tobytes()
    for ordinal in range(spec.param_layer_count):
        site = nn.batch_site_outputs(spec, params, x, ordinal)
        kept = site.tobytes()
        units = [nn.UnitId(ordinal, j) for j in range(min(4, spec.unit_count(ordinal)))]
        for unit in units:
            got = nn.batch_unit_gradients(spec, params, site, 3, unit, scales)
            want = reference_unit_gradients(spec, params, x, 3, unit, scales)
            assert same_bits(got + 0.0, want + 0.0), unit
        if ordinal in hidden_layers(spec):
            cap = 3 * next_output_size(spec, ordinal, len(x))  # three of its units a block
            with mock.patch.object(nn, "_UNIT_BLOCK_VALUES", cap):
                probs = nn.batch_zeroed_unit_probs(spec, params, x, 3)
            for unit in units:
                assert same_bits(probs[position(spec, unit)],
                                 reference_zeroed_unit_probs(spec, params, x, 3, unit))
        assert site.tobytes() == kept
    assert x.tobytes() == kept_x


def next_output_size(spec, ordinal, n):
    """The values of the next parameterized layer's output on n rows: one
    unit's share of a block of batch_zeroed_unit_probs."""
    return n * math.prod(spec._shapes[spec._param_positions[ordinal + 1] + 1])


BLOCK_MODELS = {"small_mlp": lambda: nn.small_mlp((1, 6, 6), 4, hidden=11),
                "small_cnn": lambda: nn.small_cnn((1, 12, 12), 4),
                "wide": lambda: nn.small_mlp((1, 4, 4), 130, hidden=5)}


@pytest.mark.bitid
@pytest.mark.parametrize("model,ordinal", [
    ("small_mlp", 0), ("small_cnn", 0), ("small_cnn", 1), ("wide", 0)])
@settings(max_examples=8)
@given(data=st.data())
def test_unit_blocks_equal_per_unit_calls(model, ordinal, data):
    """Every row over the whole hidden-unit axis gives, byte for byte, the
    row of the default block cap and the out-of-place reference's one-unit
    call, whatever the block cap: blocks of 1 to 5 units of hidden layer
    ordinal under a cap that is no multiple of a unit's values, so that the
    other layer's blocks hold other counts, one row or many, the first and
    the last class.  The wide model has 130 classes."""
    spec = BLOCK_MODELS[model]()
    seed = data.draw(st.integers(0, 2**16), label="seed")
    n = data.draw(st.sampled_from([1, 2, 7, 13]), label="rows")
    target = data.draw(st.sampled_from([0, spec.class_count - 1]), label="target")
    block = data.draw(st.integers(1, 5), label="block")
    rng = np.random.default_rng(seed)
    params = nn.init_params(spec, seed) + rng.normal(0.0, 0.1, spec.param_count)
    x = rng.normal(0.0, 1.0, (n, *spec.input_shape))
    per_unit = next_output_size(spec, ordinal, n)
    cap = block * per_unit + data.draw(st.integers(0, per_unit - 1), label="remainder")
    with mock.patch.object(nn, "_UNIT_BLOCK_VALUES", cap):
        got = nn.batch_zeroed_unit_probs(spec, params, x, target)
    assert got.shape == (len(spec.hidden_units), n)
    assert same_bits(got, nn.batch_zeroed_unit_probs(spec, params, x, target))
    for unit, row in zip(hidden_unit_ids(spec), got):
        assert same_bits(row, reference_zeroed_unit_probs(spec, params, x, target, unit))


@pytest.mark.bitid
def test_wide_output_falls_back_to_the_row_major_softmax():
    """With 130 classes (the config allows any class_count >= 2) zeroed
    probabilities of the hidden layer, unit gradients of both layers and the
    probabilities give the reference's bits through the engine's row-major
    softmax."""
    spec = nn.small_mlp((1, 6, 6), 130, hidden=12)
    rng = np.random.default_rng(13)
    params = nn.init_params(spec, 2) + rng.normal(0.0, 0.1, spec.param_count)
    x = rng.normal(0.0, 1.0, (48, *spec.input_shape))
    scales = np.linspace(0.0, 1.0, 48)
    assert same_bits(nn.predict_probs(spec, params, x), reference_forward(spec, params, x)[0])
    probs = nn.batch_zeroed_unit_probs(spec, params, x, 129)
    for ordinal in range(spec.param_layer_count):
        site = nn.batch_site_outputs(spec, params, x, ordinal)
        for unit in (nn.UnitId(ordinal, j) for j in (0, 5, 11)):
            got = nn.batch_unit_gradients(spec, params, site, 129, unit, scales)
            want = reference_unit_gradients(spec, params, x, 129, unit, scales)
            assert same_bits(got + 0.0, want + 0.0), unit
            if ordinal in hidden_layers(spec):
                assert same_bits(probs[position(spec, unit)],
                                 reference_zeroed_unit_probs(spec, params, x, 129, unit))


def test_relu_bits_equal_where_on_special_values():
    """The engine's relu gives np.where's bits for ±0, NaN, ±inf, subnormals
    and the extremes (np.maximum would propagate NaN)."""
    tiny, least_normal, big = 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308
    values = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                       least_normal, -least_normal, big, -big, 1.0, -1.0])
    expected = np.where(values > 0, values, 0.0)
    assert same_bits(np.fmax(values, 0.0), expected)
    spec = nn.small_mlp((1,), 2, hidden=1)
    params = nn.init_params(spec, 0)
    kept = values.tobytes()
    h, caches = nn._forward_engine(spec, spec.views(params), values[:, None],
                                   keep_caches=True, start=2, stop=3)
    assert same_bits(h[:, 0], expected)
    assert np.array_equal(caches[0][1][:, 0], values > 0)
    assert values.tobytes() == kept  # a relu that starts the range writes a new array


@pytest.mark.parametrize("make_spec", [
    lambda: nn.small_mlp((1, 6, 6), 4, hidden=12),
    lambda: nn.small_cnn((1, 12, 12), 4),
], ids=["small_mlp", "small_cnn"])
def test_engine_writes_into_no_caller_array(make_spec):
    """No public engine operation writes into its inputs or the parameter
    views (a stacked step writes only into its model and its scratch), and
    the backward pass writes into neither its seed gradient nor the
    caches."""
    spec = make_spec()
    params = nn.init_params(spec, 3)
    views = spec.views(params)
    rng = np.random.default_rng(4)
    x = rng.normal(0.0, 1.0, (5, *spec.input_shape))
    y = rng.integers(0, spec.class_count, 5)
    kept = [arr.tobytes() for arr in (params, x, y)]
    nn.predict_probs(spec, params, x)
    stacked = params[None].copy()
    nn.sgd_step(stacked, nn.batch_loss_and_gradient(spec, stacked, x, y)[1], 0.1,
                row_scratch(stacked))
    scales = np.linspace(0.0, 1.0, 5)
    nn.batch_zeroed_unit_probs(spec, params, x, 0)
    for ordinal in range(spec.param_layer_count):
        site = nn.batch_site_outputs(spec, params, x, ordinal)
        site_kept = site.tobytes(), scales.tobytes()
        for unit in (nn.UnitId(ordinal, unit) for unit in range(min(3, spec.unit_count(ordinal)))):
            nn.batch_unit_gradients(spec, params, site, 0, unit, scales)
        assert (site.tobytes(), scales.tobytes()) == site_kept
    # the training path's whole network, and the oracle path's layers after
    # the first layer's site, as batch_unit_gradients runs them
    start = spec.site_position(0) + 1
    site = nn.batch_site_outputs(spec, params, x, 0)
    runs = [(0, nn._forward_engine(spec, views, x, keep_caches=True)[1]),
            (start, nn._forward_engine(spec, views, site, keep_caches=True, start=start)[1])]
    seed = rng.normal(0.0, 1.0, (len(x), spec.class_count))

    def backward_inputs():
        return [a.tobytes() for _, caches in runs for c in caches for a in c
                if isinstance(a, np.ndarray)] + [site.tobytes(), seed.tobytes()]

    kept_backward = backward_inputs()
    for first, caches in runs:
        nn._backward_engine(spec, views, caches, seed, start=first)
    assert backward_inputs() == kept_backward
    assert [arr.tobytes() for arr in (params, x, y)] == kept


FINITE_SPEC = nn.small_mlp((1, 3, 3), 3, hidden=4)
FINITE_SIZES = {name: view.size for name, view
                in FINITE_SPEC.views(np.zeros(FINITE_SPEC.param_count)).items()}


def finite_case(data):
    """A (k, P) model of k copies of one model, one parameter name, a row
    of the stack and a position in that row's parameter."""
    seed = data.draw(st.integers(0, 2**16))
    stack = data.draw(st.sampled_from([1, 3]))
    model = np.tile(nn.init_params(FINITE_SPEC, seed), (stack, 1))
    name = data.draw(st.sampled_from(list(FINITE_SIZES)))
    row = data.draw(st.integers(0, stack - 1))
    position = data.draw(st.integers(0, FINITE_SIZES[name] - 1))
    return model, name, row, position


def finite_batch(model):
    """Four rows of inputs and labels per model in the stack."""
    k = len(model)
    x = np.random.default_rng(0).random((4 * k, *FINITE_SPEC.input_shape))
    return x, np.tile([0, 1, 2, 0], k)


def assert_stopped_at(model, row, kept, learning_rate):
    """Rows row.. of model hold kept, its values before the step, and the
    rows before row their own k = 1 steps from kept on their blocks of
    finite_batch."""
    x, y = finite_batch(kept)
    for i in range(len(kept)):
        want = (library_step(FINITE_SPEC, kept[i], x[4 * i:4 * i + 4], y[4 * i:4 * i + 4],
                             learning_rate)[0] if i < row else kept[i])
        assert same_bits(model[i], want)


@given(data=st.data(), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_sgd_step_rejects_one_nonfinite_gradient_element(data, bad):
    """A NaN or inf at any row, parameter and position of the gradient row a
    stacked step forms raises naming that row and parameter before the row
    is written: that row and the ones after it keep their bytes, and the
    rows before it have taken their steps."""
    model, name, row, position = finite_case(data)
    kept = model.copy()
    _, factors = nn.batch_loss_and_gradient(FINITE_SPEC, model, *finite_batch(model))
    real_form = nn.GradientFactors.form

    def planted(self, r, out):
        real_form(self, r, out)
        if r == row:
            out[name].flat[position] = bad

    match = f"non-finite values in gradient of {re.escape(name)}$"
    with mock.patch.object(nn.GradientFactors, "form", planted):
        with pytest.raises(nn.NNError, match=match) as exc:
            nn.sgd_step(model, factors, 0.1, row_scratch(model))
    assert exc.value.row == row
    assert_stopped_at(model, row, kept, 0.1)


@given(data=st.data(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       ordinal=st.integers(0, 1), which=st.sampled_from(["input", "output gradient"]))
def test_batch_gradient_out_rejects_one_nonfinite_element(data, bad, ordinal, which):
    """A NaN or inf at any position of one row's factor of one layer, as the
    backward pass hands the factors over, reaches that layer's weight
    gradient: the step names the row and that weight and stops before the
    row is written, the rows before it having stepped."""
    model, _, row, _ = finite_case(data)
    real_backward = nn._backward_engine

    def planted(*args, **kwargs):
        factors, g_in = real_backward(*args, **kwargs)
        [(a, g)] = [(a, g) for o, a, g in factors if o == ordinal]
        arr = (a if which == "input" else g)[row]
        arr.flat[data.draw(st.integers(0, arr.size - 1))] = bad
        return factors, g_in

    kept = model.copy()
    match = f"non-finite values in gradient of layer{ordinal}\\.weight$"
    with mock.patch.object(nn, "_backward_engine", planted), np.errstate(invalid="ignore"):
        with pytest.raises(nn.NNError, match=match) as exc:
            _, gradient = nn.batch_loss_and_gradient(FINITE_SPEC, model, *finite_batch(model))
            nn.sgd_step(model, gradient, 0.1, row_scratch(model))
    assert exc.value.row == row
    assert_stopped_at(model, row, kept, 0.1)


@given(data=st.data(), magnitude=st.one_of(st.floats(1e160, 1e300), st.just(1.7e308)),
       alternate=st.booleans())
def test_finite_checks_accept_a_vector_whose_square_overflows(data, magnitude, alternate):
    """v . v overflows to inf for these finite vectors (and so may their
    sum); the element scan then accepts them, without a warning, as every
    gradient row a stacked step forms in its scratch."""
    model, _, _, _ = finite_case(data)
    size = model.shape[-1]
    huge = magnitude * np.where(alternate & (np.arange(size) % 2 == 1), -1.0, 1.0)
    assert not math.isfinite(np.vdot(huge, huge))
    expected = model - 1e-200 * huge

    def huge_form(self, row, out):
        for view, part in zip(out.values(), FINITE_SPEC.views(huge).values()):
            view[...] = part

    _, factors = nn.batch_loss_and_gradient(FINITE_SPEC, model, *finite_batch(model))
    with mock.patch.object(nn.GradientFactors, "form", huge_form), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        nn.sgd_step(model, factors, 1e-200, row_scratch(model))
    assert np.array_equal(model, expected)


# ---------------------------------------------------------------------------
# zero_units edit primitive


def test_zero_units_empty_is_identity():
    spec = nn.small_mlp((1, 4, 4), 4, hidden=6)
    params = nn.init_params(spec, 2)
    assert same_bits(nn.zero_units(spec, params, []), params)


def test_zero_units_locality_and_idempotence():
    spec = nn.small_mlp((1, 4, 4), 4, hidden=6)
    params = nn.init_params(spec, 2)
    units = [1, 4]
    kept = params.copy()
    once = nn.zero_units(spec, params, units)
    twice = nn.zero_units(spec, once, units)
    assert same_bits(once, twice) and same_bits(params, kept)
    edited, p = spec.views(once), spec.views(params)
    assert np.all(edited["layer0.weight"][:, 1] == 0.0)
    assert edited["layer0.bias"][1] == 0.0
    keep = [k for k in range(6) if k not in (1, 4)]
    assert np.array_equal(edited["layer0.weight"][:, keep], p["layer0.weight"][:, keep])
    assert same_bits(edited["layer1.weight"], p["layer1.weight"])


@pytest.mark.parametrize("model", ["small_mlp", "small_cnn"])
def test_zero_units_refuses_a_position_off_the_axis(model):
    """A position is an index of spec.hidden_units: -1 (which would index
    from the end) and U are refused with an NNError naming the
    position, beside valid ones too, and the parameters are left as they
    were."""
    spec = getattr(nn, model)((1, 10, 10), 3)
    params = nn.init_params(spec, 5)
    kept = params.copy()
    count = len(spec.hidden_units)
    for bad in (-1, count):
        for positions in ([bad], [0, bad], np.array([count - 1, bad])):
            with pytest.raises(nn.NNError, match=rf"unit position {bad} out of range"):
                nn.zero_units(spec, params, positions)
    assert same_bits(params, kept)
    assert not same_bits(nn.zero_units(spec, params, [count - 1]), params)


# ---------------------------------------------------------------------------
# checkpoint io


def load_error(path, spec):
    with pytest.raises(nn.ConfigError, match=re.escape(str(path))) as info:
        nn.load_checkpoint(path, spec)
    assert str(path) in str(info.value)
    return str(info.value)


def test_checkpoint_roundtrip(tmp_path):
    spec = nn.small_cnn((1, 12, 12), 4)
    params = nn.init_params(spec, 13)
    path = tmp_path / "model.fusim"
    nn.save_checkpoint(path, spec, params)
    loaded = nn.load_checkpoint(path, spec)
    assert same_bits(params, loaded)
    raw = path.read_bytes()
    assert raw.startswith(b"\x93NUMPY\x01\x00")


def test_checkpoint_bad_magic(tmp_path):
    spec, _ = tiny_net_222()
    path = tmp_path / "bad.fusim"
    path.write_bytes(b"NOPE\nend\n")
    assert ("holds 0 float64 values, header byte 0 differs or is missing; "
            "the model takes 12") in load_error(path, spec)


def test_checkpoint_truncated(tmp_path):
    spec, params = tiny_net_222()
    path = tmp_path / "model.fusim"
    nn.save_checkpoint(path, spec, params)
    path.write_bytes(path.read_bytes()[:-12])
    assert "holds 10 float64 values and 4 bytes; the model takes 12" in load_error(path, spec)


def test_checkpoint_trailing_bytes(tmp_path):
    spec, params = tiny_net_222()
    path = tmp_path / "model.fusim"
    nn.save_checkpoint(path, spec, params)
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    assert "holds 13 float64 values; the model takes 12" in load_error(path, spec)


# float64 bit patterns hypothesis would rarely draw: -0.0, the smallest and
# largest subnormals, +-inf, a quiet NaN with a payload, a signalling NaN and
# a negative NaN
SPECIAL_BITS = [0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF,
                0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000ABC,
                0x7FF0000000000001, 0xFFF8000000000000]


def checkpoints():
    """(spec, vector): a small small_mlp or small_cnn spec and a (P,) vector
    of any float64 bit patterns."""
    bits = st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from(SPECIAL_BITS))
    specs = st.one_of(
        st.builds(lambda side, classes, hidden: nn.small_mlp((1, side, side), classes, hidden),
                  st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)),
        st.builds(lambda classes: nn.small_cnn((1, 10, 10), classes), st.integers(1, 3)))
    return specs.flatmap(lambda spec: st.tuples(st.just(spec), hnp.arrays(
        np.uint64, spec.param_count, elements=bits).map(lambda a: a.view(np.float64))))


def saved(tmp_path_factory, spec, vector):
    """vector saved as spec's parameters: the checkpoint's path and bytes."""
    path = tmp_path_factory.mktemp("ckpt") / "model.fusim"
    nn.save_checkpoint(path, spec, vector)
    return path, path.read_bytes()


@given(checkpoints())
def test_checkpoint_roundtrip_is_bit_exact(tmp_path_factory, checkpoint):
    spec, vector = checkpoint
    path, _ = saved(tmp_path_factory, spec, vector)
    loaded = nn.load_checkpoint(path, spec)
    assert same_bits(loaded, vector)
    # one fresh, writable vector
    assert loaded.flags.owndata and loaded.flags.writeable


@given(checkpoints())
def test_checkpoint_is_a_npy_vector(tmp_path_factory, checkpoint):
    spec, vector = checkpoint
    path, _ = saved(tmp_path_factory, spec, vector)
    assert same_bits(np.load(path), vector)


@given(checkpoints(), st.integers(0, 255), st.data())
def test_damaged_checkpoint_raises_checkpoint_error_only(tmp_path_factory, checkpoint,
                                                         extra, data):
    """Truncations, an extra trailing byte and a changed header byte are each
    refused, naming the file.  The file is cut at every byte of the header,
    the first value and the last value, and at one drawn byte: the data cuts
    between differ only in length."""
    spec, vector = checkpoint
    path, raw = saved(tmp_path_factory, spec, vector)
    header = len(raw) - 8 * len(vector)
    cuts = set(range(header + 8)) | set(range(len(raw) - 8, len(raw)))
    for cut in sorted(cuts | {data.draw(st.integers(0, len(raw) - 1))}):
        path.write_bytes(raw[:cut])
        load_error(path, spec)
    path.write_bytes(raw + bytes([extra]))
    assert f"holds {len(vector)} float64 values and 1 bytes" in load_error(path, spec)
    pos = data.draw(st.integers(0, header - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
    path.write_bytes(raw[:pos] + bytes([byte]) + raw[pos + 1:])
    assert f"header byte {pos} differs" in load_error(path, spec)


# ---------------------------------------------------------------------------
# model spec


def test_init_params_deterministic_and_shaped():
    spec = nn.small_mlp((1, 6, 6), 5, hidden=7)
    a = nn.init_params(spec, 42)
    b = nn.init_params(spec, 42)
    assert same_bits(a, b)
    assert a.shape == (spec.param_count,) and a.dtype == np.float64
    views = spec.views(a)
    assert np.all(views["layer0.bias"] == 0.0) and np.all(views["layer1.bias"] == 0.0)
    assert np.all(views["layer0.weight"] != 0.0)
