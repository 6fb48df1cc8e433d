"""Minimal dense/conv network substrate with unit-level interventions.

Models are pure data: a ModelSpec holds one of the two reference models,
small_mlp or small_cnn, as its layer stack, and a model's parameters are one
float64 ndarray whose last axis holds the spec's P values back to back, each
parameterized layer's weight then its bias in network order (layer0.weight,
layer0.bias, layer1.weight, ...): (P,) for one model, (k, P) for k models in
lockstep.  Every public function takes and returns that array; the
parameter names live only here, in the views spec.views(params) returns,
which refuse an array of another dtype, rank or P.  Every operation is a
deterministic function of its inputs; nothing keeps hidden state.  All
arithmetic is 64-bit.

Unit addressing: parameterized layers (dense, conv2d) are numbered 0, 1, ...
in network order, and a unit is an output neuron of a dense layer or an output
channel of a conv layer.  The "activation" of a unit is its value after the
relu that immediately follows its layer (or the raw layer output when no relu
follows).  Interventions scale that value; gradients are taken with respect
to it (summed over spatial positions for conv channels).  The hidden units,
every parameterized layer's but the output layer's, lie on one axis,
spec.hidden_units, whose row i is position i's (layer, unit);
batch_unit_activations, the scorer batch_zeroed_unit_probs and zero_units
work on that axis, and only the oracles address a unit, output units too,
by a UnitId.  The engine runs
any range of layer positions.  The scorer runs the inputs up to each next
parameterized layer once, subtracts each unit's rank-1 term from that
layer's output and runs only the layers after it, forward only and a block
of units at a time.  The oracles share nothing with it but the engine:
batch_unit_gradients runs the layers after a unit's site on a copy of
batch_site_outputs rows with the unit scaled, forward and backward, and
forward_with_scaled_unit runs the whole network on such a copy.

Local training holds models as the rows of a (k, P) matrix, k >= 1; the
engine takes an optional leading stack axis (views (k, *shape)) and runs k
models at once, each on its own block of rows, through the same layers,
whose products become one gemm per stack slice (np.matmul) and whose
reductions run over the trailing axes, so every model's numbers are bit for
bit those of a k = 1 call.  The one training step is
batch_loss_and_gradient, which hands its gradient to sgd_step as the factors
its backward pass holds (each parameterized layer's input and output
gradient), then sgd_step, which forms each row in one (P,) scratch vector,
checks it once, exactly (a NaN or inf makes np.vdot(v, v) non-finite, and
only then, or on its silent overflow, are the elements scanned to name the
parameter), and applies it while it is in cache; a non-finite row raises
before it is written, after the rows before it have stepped.  Element-wise
layers write only into arrays their own call made, never into its input,
the parameters or a cache read later.

A checkpoint is a NumPy .npy file (format 1.0) holding the model's (P,)
vector.  load_checkpoint compares the file's header byte for byte with the
one save_checkpoint writes for the spec's P and checks the data size, so a
file of any other model or a damaged one raises a ConfigError naming it.
ConfigError, the package's one error for a fault in what the user
supplies, is defined here, at the bottom of the import graph.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PARAM_KINDS = ("dense", "conv2d")


class ConfigError(ValueError):
    """A fault in what the user supplies: the config text, a flag, an IDX
    file or a file in the output directory.  The message names the key (line
    is its line number, or the command-line flag that set it) or the path.
    Every other error is an invariant of the program."""

    def __init__(self, message: str, line: int | str | None = None):
        prefix = f"line {line}" if isinstance(line, int) else line
        super().__init__(message if line is None else f"{prefix}: {message}")
        self.line = line


class NNError(ValueError):
    """A model construction or evaluation error.  In a stacked call, row is
    the stack row (the model) the error concerns, else None."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


# ---------------------------------------------------------------------------
# Specs


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a reference model.  kind is dense, conv2d, relu,
    maxpool2d (2x2 windows), flatten or softmax; a dense layer maps fan_in
    features to fan_out, a conv2d layer fan_in channels to fan_out with a
    kernel_size square kernel."""
    kind: str
    fan_in: int = 0
    fan_out: int = 0
    kernel_size: int = 0


@dataclass(frozen=True)
class UnitId:
    """The oracles' address of a unit: parameterized-layer ordinal, output index."""
    layer: int
    unit: int


@dataclass(frozen=True)
class ModelSpec:
    """Layer stack ending in softmax over class_count outputs, as small_mlp
    and small_cnn build it; the per-example shape after each layer is
    computed here, not checked, and so are param_count, the P values of the
    model's parameter vector, and hidden_units, the read-only (U, 2) intp
    array of every hidden unit's (layer, unit), layer-major."""
    layers: tuple[LayerSpec, ...]
    class_count: int
    input_shape: tuple[int, ...]

    def __post_init__(self):
        shapes = [self.input_shape]
        for layer in self.layers:
            shape = shapes[-1]
            if layer.kind == "dense":
                shape = (layer.fan_out,)
            elif layer.kind == "conv2d":
                k = layer.kernel_size - 1
                shape = (layer.fan_out, shape[1] - k, shape[2] - k)
            elif layer.kind == "maxpool2d":
                shape = (shape[0], shape[1] // 2, shape[2] // 2)
            elif layer.kind == "flatten":
                shape = (math.prod(shape),)
            shapes.append(shape)
        param_positions = tuple(i for i, l in enumerate(self.layers) if l.kind in PARAM_KINDS)
        # Activation site: the relu directly after the layer, else the layer itself.
        site_positions = tuple(p + 1 if self.layers[p + 1].kind == "relu" else p
                               for p in param_positions)
        # Each parameter's name, slice of the vector and shape, in vector order.
        slots, offset = [], 0
        for ordinal, p in enumerate(param_positions):
            l, k = self.layers[p], self.layers[p].kernel_size
            weight = (l.fan_in, l.fan_out) if l.kind == "dense" else (l.fan_out, l.fan_in, k, k)
            for name, shape in ((f"layer{ordinal}.weight", weight),
                                (f"layer{ordinal}.bias", (l.fan_out,))):
                size = math.prod(shape)
                slots.append((name, slice(offset, offset + size), shape))
                offset += size
        widths = [self.layers[p].fan_out for p in param_positions[:-1]]  # hidden layers'
        layer = np.repeat(np.arange(len(widths), dtype=np.intp), widths)
        unit = np.concatenate([np.arange(w, dtype=np.intp) for w in widths])
        hidden_units = np.stack([layer, unit], axis=1)
        hidden_units.flags.writeable = False
        object.__setattr__(self, "hidden_units", hidden_units)
        object.__setattr__(self, "_shapes", tuple(shapes))
        object.__setattr__(self, "_param_positions", param_positions)
        object.__setattr__(self, "_site_positions", site_positions)
        object.__setattr__(self, "_slots", tuple(slots))
        object.__setattr__(self, "param_count", offset)

    @property
    def param_layer_count(self) -> int:
        return len(self._param_positions)

    def layer_at(self, ordinal: int) -> LayerSpec:
        return self.layers[self._param_positions[ordinal]]

    def unit_count(self, ordinal: int) -> int:
        return self.layer_at(ordinal).fan_out

    def site_position(self, ordinal: int) -> int:
        return self._site_positions[ordinal]

    def validate_unit(self, unit: UnitId) -> None:
        if not 0 <= unit.layer < self.param_layer_count:
            raise NNError(
                f"unit layer {unit.layer} out of range (model has "
                f"{self.param_layer_count} parameterized layers)")
        width = self.unit_count(unit.layer)
        if not 0 <= unit.unit < width:
            raise NNError(
                f"unit {unit.unit} out of range for layer {unit.layer} (width {width})")

    def views(self, params: np.ndarray, stacked: bool = False) -> dict[str, np.ndarray]:
        """The named parameters of params, views in the order the vector
        holds them.

        params is one model's (P,) float64 vector, or with stacked the (k, P)
        matrix of k models, whose views are (k, *shape).  Any other array
        raises an NNError naming the P the model takes and what was
        found.
        """
        ndim, want = (2, "(k, P)") if stacked else (1, "(P,)")
        if not (isinstance(params, np.ndarray) and params.dtype == np.float64
                and params.ndim == ndim and params.shape[-1] == self.param_count):
            found = (f"{params.dtype} array of shape {params.shape}"
                     if isinstance(params, np.ndarray) else type(params).__name__)
            raise NNError(f"parameters must be a float64 array {want} with "
                          f"P = {self.param_count}, got {found}")
        lead = params.shape[:-1]
        return {name: params[..., at].reshape(lead + shape) for name, at, shape in self._slots}


def small_mlp(input_shape: Sequence[int], class_count: int, hidden: int = 128) -> ModelSpec:
    """Reference spec: flatten -> dense(hidden) -> relu -> dense(C) -> softmax."""
    layers = (LayerSpec("flatten"), LayerSpec("dense", math.prod(input_shape), hidden),
              LayerSpec("relu"), LayerSpec("dense", hidden, class_count), LayerSpec("softmax"))
    return ModelSpec(layers, class_count, tuple(input_shape))


def small_cnn(input_shape: Sequence[int], class_count: int) -> ModelSpec:
    """Reference spec: two conv/relu/pool blocks followed by a dense classifier."""
    c, h, w = input_shape
    h2, w2 = ((h - 2) // 2 - 2) // 2, ((w - 2) // 2 - 2) // 2
    block = (LayerSpec("relu"), LayerSpec("maxpool2d"))
    layers = (LayerSpec("conv2d", c, 8, 3), *block, LayerSpec("conv2d", 8, 16, 3), *block,
              LayerSpec("flatten"), LayerSpec("dense", 16 * h2 * w2, class_count),
              LayerSpec("softmax"))
    return ModelSpec(layers, class_count, tuple(input_shape))


# ---------------------------------------------------------------------------
# Parameters


def make_rng(seed, *tags: int) -> np.random.Generator:
    """Generator seeded from an int or tuple seed plus integer stream tags."""
    if isinstance(seed, (tuple, list)):
        entropy = tuple(int(s) for s in seed) + tags
    else:
        entropy = (int(seed),) + tags
    return np.random.default_rng(entropy)


def init_params(spec: ModelSpec, seed) -> np.ndarray:
    """Fan-in-scaled uniform weights, zero biases, fully seed-determined."""
    params = np.zeros(spec.param_count)
    views = spec.views(params)
    for ordinal in range(spec.param_layer_count):
        layer = spec.layer_at(ordinal)
        k = layer.kernel_size if layer.kind == "conv2d" else 1
        bound = 1.0 / np.sqrt(layer.fan_in * k * k)
        weight = views[f"layer{ordinal}.weight"]
        weight[...] = make_rng(seed, 101, ordinal).uniform(-bound, bound, size=weight.shape)
    return params


def zero_units(spec: ModelSpec, params: np.ndarray, positions) -> np.ndarray:
    """Zero the incoming weights and bias of the hidden units at positions
    (of spec.hidden_units) in a copy of params; idempotent, local.  A
    position off the axis raises an NNError naming it."""
    at = np.asarray(positions, dtype=np.intp)
    count = len(spec.hidden_units)
    if (bad := at[(at < 0) | (at >= count)]).size:
        raise NNError(f"unit position {int(bad[0])} out of range "
                      f"(the model has {count} hidden units)")
    out = params.copy()
    views = spec.views(out)
    for ordinal, unit in spec.hidden_units[at].tolist():
        w = views[f"layer{ordinal}.weight"]
        if w.ndim == 2:
            w[:, unit] = 0.0
        else:
            w[unit] = 0.0
        views[f"layer{ordinal}.bias"][unit] = 0.0
    return out


# ---------------------------------------------------------------------------
# Forward / backward engine (batched)


def _all_finite(v: np.ndarray) -> bool:
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())


def _as_batch(spec: ModelSpec, inputs: np.ndarray, start: int = 0) -> np.ndarray:
    """inputs as a float64 batch that feeds layer position start."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.shape[1:] != spec._shapes[start]:
        what = "input" if start == 0 else f"input of layer {start}"
        raise NNError(
            f"{what}: expected shape {spec._shapes[start]} per example, got {x.shape[1:]}")
    return x


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(..., C, H, W) -> (..., oh, ow, C, k, k) patches, a strided view."""
    *lead, c, h, w = x.shape
    oh, ow = h - k + 1, w - k + 1
    s = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (*lead, oh, ow, c, k, k), (*s[:-3], s[-2], s[-1], s[-3], s[-2], s[-1]))


def _forward_engine(spec: ModelSpec, params: dict[str, np.ndarray], x: np.ndarray,
                    keep_caches: bool = False, start: int = 0, stop: int | None = None):
    """Run layer positions start..stop-1 on a batch x that feeds layer start.

    params are spec.views of the parameters.  x is (B, ...), or (k, B, ...)
    with parameters stacked on a leading axis of k, or with one model's
    parameters where no conv layer runs (k blocks of rows through one
    model).  Returns (h, caches): h is the output of layer stop-1, caches
    feed _backward_engine.
    """
    stop = len(spec.layers) if stop is None else stop
    caches: list | None = [] if keep_caches else None
    h = x
    ordinal_counter = sum(1 for p in spec._param_positions if p < start)
    for pos in range(start, stop):
        layer = spec.layers[pos]
        kind = layer.kind
        if kind == "dense":
            w = params[f"layer{ordinal_counter}.weight"]
            b = params[f"layer{ordinal_counter}.bias"]
            if keep_caches:
                caches.append(("dense", h, ordinal_counter))
            h = h @ w
            h += b[..., None, :]
            ordinal_counter += 1
        elif kind == "conv2d":
            w = params[f"layer{ordinal_counter}.weight"]
            b = params[f"layer{ordinal_counter}.bias"]
            stack, out_c = w.shape[:-4], w.shape[-4]
            patches = _im2col(h, layer.kernel_size)
            lead = patches.shape[:-3]  # (*stack, B, oh, ow)
            cols = patches.reshape(*stack, -1, math.prod(patches.shape[-3:]))
            if keep_caches:
                caches.append(("conv2d", cols, ordinal_counter))
            out = np.matmul(cols, w.reshape(*stack, out_c, -1).swapaxes(-1, -2))
            h = np.add(np.moveaxis(out.reshape(*lead, out_c), -1, -3),
                       b[..., None, :, None, None], order="C")
            ordinal_counter += 1
        elif kind == "relu":
            if keep_caches:
                caches.append(("relu", h > 0))
            # every relu follows a dense or conv layer, whose output is this
            # call's own array, referenced nowhere else
            h = np.fmax(h, 0.0, out=h if pos > start else None)
        elif kind == "maxpool2d":
            *lead, c_, hh, ww = h.shape
            h2, w2 = hh // 2, ww // 2
            windows = h[..., :h2 * 2, :w2 * 2].reshape(*lead, c_, h2, 2, w2, 2)
            windows = windows.swapaxes(-3, -2).reshape(*lead, c_, h2, w2, 4)
            idx = windows.argmax(axis=-1)
            if keep_caches:
                caches.append(("maxpool2d", idx, h.shape))
            h = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
        elif kind == "flatten":
            if keep_caches:
                caches.append(("flatten", h.shape))
            h = h.reshape(*h.shape[:h.ndim - len(spec._shapes[pos])], -1)
        else:  # softmax
            h = h - h.max(axis=-1, keepdims=True)
            np.exp(h, out=h)
            h /= h.sum(axis=-1, keepdims=True)
            if keep_caches:
                caches.append(("softmax", h))
    return h, caches


def _backward_engine(spec: ModelSpec, params: dict[str, np.ndarray], caches: list,
                     grad_probs: np.ndarray, start: int = 0):
    """Backpropagate a gradient at the probabilities down to layer start.

    caches come from a _forward_engine run over start..end, stacked or not.
    Returns (factors, g): the parameter gradients of the layers passed, as
    their factors, one (ordinal, input, output gradient) per parameterized
    layer, output layer first (see GradientFactors), and g, the gradient at
    the input of layer start.  The pass stops at the first parameterized
    layer, whose input gradient nothing uses; g is then its output gradient.
    """
    factors = []
    g = grad_probs
    for pos in reversed(range(start, len(spec.layers))):
        cache = caches[pos - start]
        kind = cache[0]
        if kind == "dense":
            _, x_in, ordinal = cache
            factors.append((ordinal, x_in, g))
            if ordinal == 0:
                break
            g = g @ params[f"layer{ordinal}.weight"].swapaxes(-1, -2)
        elif kind == "conv2d":
            _, cols, ordinal = cache
            w = params[f"layer{ordinal}.weight"]
            stack, (out_c, c, k) = w.shape[:-4], w.shape[-4:-1]
            factors.append((ordinal, cols, g))
            if ordinal == 0:
                break
            pad = k - 1
            gpad = np.pad(g, [(0, 0)] * (g.ndim - 2) + [(pad, pad)] * 2)
            gpatches = _im2col(gpad, k)  # (*stack, B, H, W, out, k, k)
            wflip = np.moveaxis(w[..., ::-1, ::-1], -3, -1)  # (*stack, out, k, k, c)
            dx = np.matmul(gpatches.reshape(*stack, -1, out_c * k * k),
                           wflip.reshape(*stack, out_c * k * k, c))
            g = np.ascontiguousarray(np.moveaxis(dx.reshape(*gpatches.shape[:-3], c), -1, -3))
        elif kind == "relu":
            g *= cache[1]
        elif kind == "maxpool2d":
            _, idx, in_shape = cache
            *lead, c_, hh, ww = in_shape
            h2, w2 = idx.shape[-2:]
            dwin = np.zeros((*lead, c_, h2, w2, 4))
            np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
            dwin = dwin.reshape(*lead, c_, h2, w2, 2, 2).swapaxes(-3, -2)
            dx = np.zeros(in_shape)
            dx[..., :h2 * 2, :w2 * 2] = dwin.reshape(*lead, c_, h2 * 2, w2 * 2)
            g = dx
        elif kind == "flatten":
            g = g.reshape(cache[1])
        else:  # softmax
            probs = cache[1]
            dot = (g * probs).sum(axis=-1, keepdims=True)
            g = g - dot
            g *= probs
    return factors, g


# ---------------------------------------------------------------------------
# Public operations


def predict_probs(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Batched probabilities; no trace capture."""
    views = spec.views(params)
    probs, _ = _forward_engine(spec, views, _as_batch(spec, inputs))
    return probs


def batch_unit_activations(spec: ModelSpec, params: np.ndarray,
                           inputs: np.ndarray) -> np.ndarray:
    """Per-sample hidden unit activations, a (B, U) matrix on
    spec.hidden_units: each hidden layer's batch_site_outputs, a conv
    channel's averaged over positions."""
    out = []
    for ordinal in range(spec.param_layer_count - 1):
        site = batch_site_outputs(spec, params, inputs, ordinal)
        out.append(site if site.ndim == 2 else site.mean(axis=(2, 3)))
    return np.concatenate(out, axis=1)


def batch_site_outputs(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
                       ordinal: int) -> np.ndarray:
    """Per-sample output at the activation site of parameterized layer ordinal.

    (B, units) for a dense layer, (B, channels, H, W) for a conv layer.  Only
    the layers up to the site run.
    """
    spec.validate_unit(UnitId(ordinal, 0))
    views = spec.views(params)
    h, _ = _forward_engine(spec, views, _as_batch(spec, inputs),
                           stop=spec.site_position(ordinal) + 1)
    return h


def _check_scale(scale) -> float:
    if not np.isscalar(scale) or not 0.0 <= float(scale) <= 1.0:
        raise NNError(f"scale must be a scalar in [0, 1], got {scale!r}")
    return float(scale)


def forward_with_scaled_unit(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
                             unit: UnitId, scale: float) -> np.ndarray:
    """Forward pass with the unit's activation multiplied by scale in [0, 1].

    The whole network runs on a copy of the site with the unit scaled in it:
    this is the independent oracle for batch_zeroed_unit_probs, and its
    finite differences check batch_unit_gradients.
    """
    spec.validate_unit(unit)
    scale = _check_scale(scale)
    site = batch_site_outputs(spec, params, np.asarray(inputs, dtype=np.float64)[None],
                              unit.layer)
    site[:, unit.unit] *= scale
    probs, _ = _forward_engine(spec, spec.views(params), site,
                               start=spec.site_position(unit.layer) + 1)
    if not _all_finite(probs):
        raise NNError("non-finite values in probabilities")
    return probs[0]


def gradient_wrt_unit(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
                      target_class: int, unit: UnitId, scale: float) -> float:
    """d P(target_class | input) / d(activation), at the scaled activation."""
    spec.validate_unit(unit)
    scale = _check_scale(scale)
    site = batch_site_outputs(spec, params, np.asarray(inputs, dtype=np.float64)[None],
                              unit.layer)
    return float(batch_unit_gradients(spec, params, site, target_class, unit,
                                      np.array([scale])).sum())


def batch_unit_gradients(spec: ModelSpec, params: np.ndarray, sites: np.ndarray,
                         target_class: int, unit: UnitId, scales: np.ndarray) -> np.ndarray:
    """Per-row dP(target)/da at the unit's activation site, with a, the
    unit's activation, multiplied by the row's scale: (n,) for a dense unit,
    (n, H, W), the site map's shape, for a conv channel.

    sites are n rows of batch_site_outputs(..., unit.layer) and scales n
    finite non-negative values.  The unit is scaled in a copy of sites, and
    the engine runs the layers after the site on it, forward and then
    backward down to the site.  Nothing is written into sites.
    """
    spec.validate_unit(unit)
    if not 0 <= target_class < spec.class_count:
        raise NNError(f"target class {target_class} out of range")
    start = spec.site_position(unit.layer) + 1
    h = _as_batch(spec, sites, start).copy()
    s = np.asarray(scales, dtype=np.float64)
    if s.shape != (len(h),):
        raise NNError(f"expected {len(h)} scales, got shape {s.shape}")
    if not np.all(s >= 0.0) or not np.all(np.isfinite(s)):
        raise NNError("scales must be finite and non-negative")
    h[:, unit.unit] *= s.reshape(-1, *(1,) * (h.ndim - 2))
    views = spec.views(params)
    probs, caches = _forward_engine(spec, views, h, keep_caches=True, start=start)
    seed = np.zeros_like(probs)
    seed[:, target_class] = 1.0
    _, g = _backward_engine(spec, views, caches, seed, start=start)
    return g[:, unit.unit]


# A block of units holds at most this many float64 values of the next
# parameterized layer's output: about 60 units at digits3's 10 classes and
# some 55 probes a client.  Scoring digits3's nine clients (1 BLAS thread,
# 2-core x86 host) took the same time at caps from 2**15 to 2**22 values,
# for small_mlp and small_cnn alike, and about 35% longer at 2**12.
_UNIT_BLOCK_VALUES = 2**15


def batch_zeroed_unit_probs(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
                            target_class: int) -> np.ndarray:
    """Per-input P(target) with a hidden unit's activation zeroed, a (U, n)
    array whose row i is that of position i of spec.hidden_units.

    Per hidden layer, one engine call runs the previous hidden layer's pre
    (the inputs for the first) up to pre, the input of the next
    parameterized layer, whose output z0 is formed once.  The
    layers between the site and pre, maxpool and flatten in both reference
    models (no relu), act per channel, so zeroing unit j adds P_j(-a_j) to
    z0, a_j the unit's block of pre and P_j the layer restricted to it: the
    product with W[j] for a dense layer, one input channel's convolution for
    a conv layer.  Units run in blocks of at most _UNIT_BLOCK_VALUES values
    of z0, stacked along a leading axis, one forward-only engine call a
    block from the layer after the next one to the softmax.  Each unit's
    term is its own product (element-wise for a one-position unit, else one
    BLAS product per unit), and the layers after act on each unit's block of
    rows alone (np.matmul gives every stack slice the bits of its own
    product), so a unit's values do not depend on the block.
    """
    if not 0 <= target_class < spec.class_count:
        raise NNError(f"target class {target_class} out of range")
    views = spec.views(params)
    x = _as_batch(spec, inputs)
    n = len(x)
    out = np.empty((len(spec.hidden_units), n))
    row, pre, start = 0, x, 0
    for ordinal in range(spec.param_layer_count - 1):
        nxt = spec._param_positions[ordinal + 1]
        pre, _ = _forward_engine(spec, views, pre, start=start, stop=nxt)
        start = nxt
        z0, _ = _forward_engine(spec, views, pre, start=nxt, stop=nxt + 1)
        w, width = views[f"layer{ordinal + 1}.weight"], spec.unit_count(ordinal)
        block = max(1, _UNIT_BLOCK_VALUES // max(1, z0.size))
        for lo in range(0, width, block):
            js = np.arange(lo, min(lo + block, width), dtype=np.intp)
            d = np.moveaxis(-pre.reshape(n, width, -1)[:, js], 1, 0)  # (len(js), n, positions)
            if w.ndim == 2:
                wj = w.reshape(width, -1, w.shape[1])[js]
                dz = d * wj if wj.shape[1] == 1 else np.matmul(d, wj)
            else:
                k = w.shape[-1]
                patches = _im2col(d.reshape(len(js) * n, 1, *pre.shape[2:]), k)
                oh, ow = patches.shape[1:3]
                filters = w[:, js].reshape(len(w), len(js), k * k).transpose(1, 2, 0)
                dz = np.matmul(patches.reshape(len(js), n * oh * ow, k * k), filters)
                dz = np.moveaxis(dz.reshape(len(js), n, oh, ow, len(w)), -1, 2)
            z = np.add(dz, z0, order="C")
            out[row + lo:row + lo + len(js)] = _forward_engine(
                spec, views, z, start=nxt + 1)[0][..., target_class]
        row += width
    return out


@dataclass(frozen=True)
class GradientFactors:
    """A stacked call's gradients as (ordinal, a, g) per parameterized layer
    of spec, each (k, ...): a is the layer's input (k, B, fan_in), or for
    conv its im2col columns, and g the gradient at its output.  Layer 0's a
    is a view of the call's inputs, which must not change before
    form(row, out) writes model row's gradients into out, the spec.views of
    a (P,) vector: the weight gradient a^T g (for conv, g channels first
    times a) and the bias gradient g's sum."""
    spec: ModelSpec
    layers: tuple

    def form(self, row: int, out: dict[str, np.ndarray]) -> None:
        for ordinal, a, g in self.layers:
            a, g = a[row], g[row]
            w, b = out[f"layer{ordinal}.weight"], out[f"layer{ordinal}.bias"]
            if g.ndim == 2:
                np.matmul(a.T, g, out=w)
                np.add.reduce(g, axis=0, out=b)
            else:
                np.matmul(g.swapaxes(0, 1).reshape(len(w), -1), a, out=w.reshape(len(w), -1))
                np.add.reduce(np.moveaxis(g, 1, -1), axis=(0, 1, 2), out=b)


def batch_loss_and_gradient(spec: ModelSpec, model: np.ndarray,
                            inputs: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy loss and its gradient for k models on their batches.

    model is the (k, P) matrix of k >= 1 models; inputs and labels are k
    equal blocks of rows, block i for row i.  Returns the (k,) array of each
    model's mean loss and the GradientFactors that sgd_step forms, checks and
    applies one row at a time, every row with the bits of a k = 1 call on its
    block alone.  An NNError names the row it concerns.
    """
    views = spec.views(model, stacked=True)
    k = len(model)
    x = _as_batch(spec, inputs)
    ys = np.asarray(labels)
    n = x.shape[0]
    if n == 0:
        raise NNError("empty batch")
    if ys.shape != (n,) or ys.dtype.kind not in "iu":
        raise NNError(f"labels must be a 1-D integer array of {n}, got "
                      f"shape {ys.shape} dtype {ys.dtype}")
    if n % k:
        raise NNError(f"{n} rows do not split into {k} equal blocks")
    block = n // k
    bad = (ys < 0) | (ys >= spec.class_count)
    if bad.any():
        raise NNError(
            f"label out of range: got {int(ys.min())}..{int(ys.max())}, "
            f"class_count {spec.class_count}", int(np.flatnonzero(bad)[0]) // block)
    probs, caches = _forward_engine(spec, views, x.reshape(k, block, *x.shape[1:]),
                                    keep_caches=True)
    flat = probs.reshape(n, -1)
    rows = np.arange(n)
    py = flat[rows, ys]
    if (py <= 0.0).any():
        raise NNError("predicted probability underflow; loss not finite",
                      int(np.flatnonzero(py <= 0.0)[0]) // block)
    # the bits of -log(py).mean() over each model's block
    loss = -np.add.reduce(np.log(py).reshape(k, block), axis=-1) / block
    grad_probs = np.zeros(flat.shape)
    grad_probs[rows, ys] = -1.0 / (block * py)
    factors, _ = _backward_engine(spec, views, caches, grad_probs.reshape(probs.shape))
    return loss, GradientFactors(spec, tuple(factors))


def sgd_step(model: np.ndarray, factors: GradientFactors, learning_rate: float,
             scratch: np.ndarray) -> np.ndarray:
    """model's rows minus learning_rate times their gradients, in place.

    factors come from a batch_loss_and_gradient call on model, a (k, P)
    matrix.  Row by row, the gradient is formed in scratch, a (P,) vector,
    checked and applied while in cache, leaving scratch holding it times
    learning_rate; each row gets the bits of params - learning_rate *
    gradient.  A non-finite row raises, naming it, before it is written; the
    rows before it have stepped.
    """
    if learning_rate < 0 or not math.isfinite(learning_rate):
        raise NNError(f"learning rate must be finite and non-negative, got {learning_rate}")
    spec = factors.spec
    spec.views(model, stacked=True)  # refuses a model of another dtype, rank or P
    grad = spec.views(scratch)
    if len(model) != len(factors.layers[0][1]):
        raise NNError(f"gradient of {len(factors.layers[0][1])} models, "
                      f"parameters of {len(model)}")
    for row, vector in enumerate(model):
        factors.form(row, grad)
        if not _all_finite(scratch):
            name = next(n for n, v in grad.items() if not np.isfinite(v).all())
            raise NNError(f"non-finite values in gradient of {name}", row)
        np.multiply(scratch, learning_rate, out=scratch)
        np.subtract(vector, scratch, out=vector)
    return model


# ---------------------------------------------------------------------------
# Checkpoints: a NumPy .npy file (format 1.0) of the model's (P,) vector


def _npy_header(count: int) -> bytes:
    """The .npy format 1.0 header of a little-endian float64 vector of count."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": (count,)})
    return buf.getvalue()


def save_checkpoint(path, spec: ModelSpec, params: np.ndarray) -> None:
    """Write spec's (P,) vector params as little-endian float64 in a .npy
    file that np.load reads."""
    spec.views(params)  # refuses a vector of another dtype, rank or P
    with open(path, "wb") as fh:
        fh.write(_npy_header(spec.param_count))
        fh.write(np.ascontiguousarray(params, dtype="<f8"))


def load_checkpoint(path, spec: ModelSpec) -> np.ndarray:
    """spec's parameters from a checkpoint, as one fresh (P,) vector.

    The file must start with the header save_checkpoint writes for spec's P
    values, byte for byte, and hold exactly 8 P data bytes after it.  The
    header is compared, not parsed: numpy's parser raises other errors than
    ValueError on some damaged headers.  Any other file raises a
    ConfigError naming the file, the values it holds and the P the model
    takes.
    """
    count = spec.param_count
    header = _npy_header(count)
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(header) or len(data) != len(header) + 8 * count:
        found, odd = divmod(max(len(data) - len(header), 0), 8)
        at = next((i for i, (a, b) in enumerate(zip(data, header)) if a != b),
                  min(len(data), len(header)))
        raise ConfigError(
            f"{path}: holds {found} float64 values" + (f" and {odd} bytes" if odd else "")
            + ("" if at == len(header) else f", header byte {at} differs or is missing")
            + f"; the model takes {count}")
    return np.frombuffer(data, "<f8", count, len(header)).astype(np.float64)
