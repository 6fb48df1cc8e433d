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
to it (summed over spatial positions for conv channels).  The engine runs any
range of layer positions.  batch_site_outputs computes a layer's site once and
site_rows the next parameterized layer's output from it, once per layer;
batch_unit_gradients then adds one unit's rank-1 change to that output and
runs only the layers after it, per unit.  forward_with_scaled_unit runs the
whole network on a scaled copy and is the oracle for that shortcut.

site_rows stores a 2-D next-layer output class-major ((n, C) F-ordered, the
transpose of a (C, n) buffer) and batch_unit_gradients forms each unit's
output in that layout.  The softmax, forward and backward, reduces such a
block of C <= 128 classes across its class rows, in numpy's order for a
contiguous row, so with the row-major bits; any other block (training's,
prediction's, more than 128 classes) it reduces along the last axis.

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
the parameters, a cache read later or SiteRows.

A checkpoint is a NumPy .npy file (format 1.0) holding the model's (P,)
vector.  load_checkpoint compares the file's header byte for byte with the
one save_checkpoint writes for the spec's P and checks the data size, so a
file of any other model or a damaged one raises CheckpointError.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

PARAM_KINDS = ("dense", "conv2d")


class NNError(ValueError):
    """Base class for model construction and evaluation errors.  In a stacked
    call, row is the stack row (the model) the error concerns, else None."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ShapeMismatchError(NNError):
    pass


class InvalidUnitError(NNError):
    pass


class CheckpointError(NNError):
    pass


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
    """Address of one unit: parameterized-layer ordinal and output index."""
    layer: int
    unit: int

    def as_dict(self) -> dict:
        return {"layer": self.layer, "unit": self.unit}


@dataclass(frozen=True)
class ModelSpec:
    """Layer stack ending in softmax over class_count outputs, as small_mlp
    and small_cnn build it; the per-example shape after each layer is
    computed here, not checked, and so is param_count, the P values of the
    model's parameter vector."""
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
        # The first parameterized layer after each site; None for the output layer.
        next_positions = tuple(next((q for q in param_positions if q > s), None)
                               for s in site_positions)
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
        object.__setattr__(self, "_shapes", tuple(shapes))
        object.__setattr__(self, "_param_positions", param_positions)
        object.__setattr__(self, "_site_positions", site_positions)
        object.__setattr__(self, "_next_positions", next_positions)
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
            raise InvalidUnitError(
                f"unit layer {unit.layer} out of range (model has "
                f"{self.param_layer_count} parameterized layers)")
        width = self.unit_count(unit.layer)
        if not 0 <= unit.unit < width:
            raise InvalidUnitError(
                f"unit {unit.unit} out of range for layer {unit.layer} (width {width})")

    def views(self, params: np.ndarray, stacked: bool = False) -> dict[str, np.ndarray]:
        """The named parameters of params, views in the order the vector
        holds them.

        params is one model's (P,) float64 vector, or with stacked the (k, P)
        matrix of k models, whose views are (k, *shape).  Any other array
        raises ShapeMismatchError naming the P the model takes and what was
        found.
        """
        ndim, want = (2, "(k, P)") if stacked else (1, "(P,)")
        if not (isinstance(params, np.ndarray) and params.dtype == np.float64
                and params.ndim == ndim and params.shape[-1] == self.param_count):
            found = (f"{params.dtype} array of shape {params.shape}"
                     if isinstance(params, np.ndarray) else type(params).__name__)
            raise ShapeMismatchError(f"parameters must be a float64 array {want} with "
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


def zero_units(spec: ModelSpec, params: np.ndarray, units: Iterable[UnitId]) -> np.ndarray:
    """Zero the incoming weights and bias of each unit in a copy of params;
    idempotent, local."""
    out = params.copy()
    views = spec.views(out)
    for unit in units:
        spec.validate_unit(unit)
        layer = spec.layer_at(unit.layer)
        w = views[f"layer{unit.layer}.weight"]
        if layer.kind == "dense":
            w[:, unit.unit] = 0.0
        else:
            w[unit.unit] = 0.0
        views[f"layer{unit.layer}.bias"][unit.unit] = 0.0
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
        raise ShapeMismatchError(
            f"{what}: expected shape {spec._shapes[start]} per example, got {x.shape[1:]}")
    return x


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(..., C, H, W) -> (..., oh, ow, C, k, k) patches, a strided view."""
    *lead, c, h, w = x.shape
    oh, ow = h - k + 1, w - k + 1
    s = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (*lead, oh, ow, c, k, k), (*s[:-3], s[-2], s[-1], s[-3], s[-2], s[-1]))


# numpy sums a contiguous row of up to this many values in one unrolled loop
# (the block of its pairwise summation) and splits a longer one in two
_PAIRWISE_BLOCK = 128


def _class_rows(h: np.ndarray) -> np.ndarray | None:
    """h.T, its (C, n) class rows, when h is a 2-D block stored class-major
    (F-ordered, n > 1) with C <= _PAIRWISE_BLOCK; else None."""
    if (h.ndim == 2 and h.shape[1] <= _PAIRWISE_BLOCK and h.flags.f_contiguous
            and not h.flags.c_contiguous):
        return h.T
    return None


def _class_max(t: np.ndarray) -> np.ndarray:
    """h.max(axis=-1) for h = t.T, a left fold of np.maximum over the class
    rows t; only a zero maximum's sign may differ (numpy's SIMD max picks it
    by lane order), and exp(h - max) hides it."""
    return np.maximum.reduce(t, axis=0)


def _class_sum(t: np.ndarray) -> np.ndarray:
    """h.sum(axis=-1)'s bits for the C-ordered h = t.T, 2 <= C <=
    _PAIRWISE_BLOCK, in numpy's order for a contiguous row: from +0.0, eight
    accumulators at stride 8 combined pairwise, then the rest in order (all
    in order below 8).  Which NaN a NaN sum gives is not pinned."""
    if len(t) < 8:
        acc, rest = t[0] + 0.0, t[1:]
    else:
        full = len(t) - len(t) % 8
        r = t[:8] + 0.0
        for i in range(8, full, 8):
            r += t[i:i + 8]
        acc, rest = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])), t[full:]
    for row in rest:
        acc += row
    return acc


def _forward_engine(spec: ModelSpec, params: dict[str, np.ndarray], x: np.ndarray,
                    keep_caches: bool = False, start: int = 0, stop: int | None = None):
    """Run layer positions start..stop-1 on a batch x that feeds layer start.

    params are spec.views of the parameters.  x is (B, ...), or (k, B, ...)
    with parameters stacked on a leading axis of k.  Returns (h, caches): h
    is the output of layer stop-1, caches feed _backward_engine.
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
            t = _class_rows(h)
            if t is not None:
                t = t - _class_max(t)
                np.exp(t, out=t)
                t /= _class_sum(t)
                h = t.T
            else:  # a class-major block wider than 128 classes reduces C-ordered
                h = np.ascontiguousarray(h)
                h = h - h.max(axis=-1, keepdims=True)
                np.exp(h, out=h)
                h /= h.sum(axis=-1, keepdims=True)
            if keep_caches:
                caches.append(("softmax", h))
    return h, caches


def _backward_engine(spec: ModelSpec, params: dict[str, np.ndarray], caches: list,
                     grad_probs: np.ndarray, start: int = 0, wrt_params: bool = True):
    """Backpropagate a gradient at the probabilities down to layer start.

    caches come from a _forward_engine run over start..end, stacked or not.
    With wrt_params (start must be 0), returns the parameter gradients as
    their factors, one (ordinal, input, output gradient) per parameterized
    layer, output layer first (see GradientFactors), and stops at the first
    parameterized layer, whose input gradient nothing uses.  Otherwise
    returns the gradient at the input of layer start.
    """
    factors = []
    g = grad_probs
    for pos in reversed(range(start, len(spec.layers))):
        cache = caches[pos - start]
        kind = cache[0]
        if kind == "dense":
            _, x_in, ordinal = cache
            if wrt_params:
                factors.append((ordinal, x_in, g))
                if ordinal == 0:
                    break
            g = g @ params[f"layer{ordinal}.weight"].swapaxes(-1, -2)
        elif kind == "conv2d":
            _, cols, ordinal = cache
            w = params[f"layer{ordinal}.weight"]
            stack, (out_c, c, k) = w.shape[:-4], w.shape[-4:-1]
            if wrt_params:
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
            t = _class_rows(probs)
            if t is not None:
                gt = g.T - _class_sum(g.T * t)
                gt *= t
                g = gt.T
            else:
                dot = (g * probs).sum(axis=-1, keepdims=True)
                g = g - dot
                g *= probs
    return factors if wrt_params else g


# ---------------------------------------------------------------------------
# Public operations


def predict_probs(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Batched probabilities; no trace capture."""
    views = spec.views(params)
    probs, _ = _forward_engine(spec, views, _as_batch(spec, inputs))
    return probs


def batch_unit_activations(spec: ModelSpec, params: np.ndarray,
                           inputs: np.ndarray) -> list[np.ndarray]:
    """Per-sample unit activations, one (B, units) matrix per layer ordinal:
    each layer's batch_site_outputs, a conv channel's averaged over positions."""
    out = []
    for ordinal in range(spec.param_layer_count):
        site = batch_site_outputs(spec, params, inputs, ordinal)
        out.append(site if site.ndim == 2 else site.mean(axis=(2, 3)))
    return out


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


def forward_with_scaled_unit(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
                             unit: UnitId, scale: float) -> np.ndarray:
    """Forward pass with the unit's activation multiplied by scale in [0, 1].

    The whole network runs on a copy of the site with the unit scaled in it:
    this is the independent oracle for batch_unit_gradients.
    """
    spec.validate_unit(unit)
    if not np.isscalar(scale) or not 0.0 <= float(scale) <= 1.0:
        raise NNError(f"scale must be a scalar in [0, 1], got {scale!r}")
    site = batch_site_outputs(spec, params, np.asarray(inputs, dtype=np.float64)[None],
                              unit.layer)
    site[:, unit.unit] *= float(scale)
    probs, _ = _forward_engine(spec, spec.views(params), site,
                               start=spec.site_position(unit.layer) + 1)
    if not _all_finite(probs):
        raise NNError("non-finite values in probabilities")
    return probs[0]


def gradient_wrt_unit(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray,
                      target_class: int, unit: UnitId, scale: float) -> float:
    """d P(target_class | input) / d(activation), at the scaled activation."""
    spec.validate_unit(unit)
    if not 0 <= target_class < spec.class_count:
        raise NNError(f"target class {target_class} out of range")
    if not 0.0 <= float(scale) <= 1.0:
        raise NNError(f"scale must be in [0, 1], got {scale!r}")
    site = batch_site_outputs(spec, params, np.asarray(inputs, dtype=np.float64)[None],
                              unit.layer)
    rows = site_rows(spec, params, site, unit.layer, np.asarray([float(scale)]))
    g = batch_unit_gradients(spec, params, rows, target_class, unit)
    return float(g[0])


@dataclass(frozen=True)
class SiteRows:
    """Rows at one layer's activation site, prepared for batch_unit_gradients.

    pre is the input of the next parameterized layer (the site rows after the
    maxpool and flatten layers between the two) and z0 that layer's
    output, both for the unscaled rows.  The output layer has no next layer:
    there z0 holds pre's values and the product is the identity.  A 2-D z0 is
    class-major, (n, C) F-ordered, so that the softmax after it reduces
    across class rows; a conv z0 is C-ordered.  scales holds each row's
    activation scale, finite and non-negative.
    """
    ordinal: int
    pre: np.ndarray
    z0: np.ndarray
    scales: np.ndarray

    def __len__(self) -> int:
        return len(self.pre)


def site_rows(spec: ModelSpec, params: np.ndarray, sites: np.ndarray,
              ordinal: int, scales: np.ndarray) -> SiteRows:
    """SiteRows for rows of batch_site_outputs(..., ordinal), one scale a
    row; the next parameterized layer's product is formed and the scales
    checked here, once for all units."""
    spec.validate_unit(UnitId(ordinal, 0))
    s = np.asarray(scales, dtype=np.float64)
    if s.shape != (len(sites),):
        raise ShapeMismatchError(f"expected {len(sites)} scales, got shape {s.shape}")
    if not np.all(s >= 0.0) or not np.all(np.isfinite(s)):
        raise NNError("scales must be finite and non-negative")
    views = spec.views(params)
    start = spec.site_position(ordinal) + 1
    nxt = spec._next_positions[ordinal]
    x = _as_batch(spec, sites, start)
    pre, _ = _forward_engine(spec, views, x, start=start,
                             stop=len(spec.layers) - 1 if nxt is None else nxt)
    z0 = pre if nxt is None else _forward_engine(spec, views, pre, start=nxt, stop=nxt + 1)[0]
    return SiteRows(ordinal, pre, np.asfortranarray(z0) if z0.ndim == 2 else z0, s)


def batch_unit_gradients(spec: ModelSpec, params: np.ndarray, rows: SiteRows,
                         target_class: int, unit: UnitId) -> np.ndarray:
    """Per-row dP(target)/d(activation) at rows.scales.

    The layers between the site and the next parameterized layer, maxpool
    and flatten in both reference models (no relu), act per channel and
    commute with a non-negative scale, so scaling unit j by s
    changes that layer's output by the rank-1 term P_j((s - 1) * a_j): a_j is
    the unit's block of rows.pre and P_j the layer restricted to it, the
    product with W[j] for a dense layer or one input channel's convolution.
    Only the layers after the next parameterized layer run, forward and
    backward, and the gradient is read back through P_j alone; a conv
    channel's gradient is summed over positions.  Nothing is written into
    rows.
    """
    spec.validate_unit(unit)
    views = spec.views(params)
    if unit.layer != rows.ordinal:
        raise InvalidUnitError(f"unit layer {unit.layer} but rows of layer {rows.ordinal}")
    n = len(rows)
    units = spec.unit_count(unit.layer)
    nxt = spec._next_positions[unit.layer]
    a = rows.pre.reshape(n, units, -1)[:, unit.unit]
    d = (rows.scales - 1.0)[:, None] * a
    w = np.eye(rows.pre.shape[1]) if nxt is None else views[f"layer{unit.layer + 1}.weight"]
    if w.ndim == 2:
        wj = w.reshape(units, -1, w.shape[1])[unit.unit]
        z = np.empty_like(rows.z0)  # z0 + d w_j, in z0's layout
        if d.shape[1] == 1:
            # an outer product, which np.multiply writes in z's layout about 7x
            # faster than @ (2,560 x 10, 1 BLAS thread); it has d @ w_j's bits
            # except that a zero product keeps its sign (BLAS gives +0.0).  In
            # both reference models such a z feeds the softmax directly, and
            # exp(z - max) is the same for +-0.0.
            np.multiply(d, wj, out=z)
        else:
            z[...] = d @ wj
        z += rows.z0
    else:
        k = w.shape[-1]
        patches = _im2col(d.reshape(n, 1, *rows.pre.shape[2:]), k)
        dz = np.tensordot(patches, w[:, unit.unit:unit.unit + 1], axes=([3, 4, 5], [1, 2, 3]))
        z = rows.z0 + dz.transpose(0, 3, 1, 2)
    start = len(spec.layers) - 1 if nxt is None else nxt + 1
    probs, caches = _forward_engine(spec, views, z, keep_caches=True, start=start)
    seed = np.zeros_like(probs)
    seed[:, target_class] = 1.0
    g = _backward_engine(spec, views, caches, seed, start=start, wrt_params=False)
    if w.ndim == 2:
        ga = np.ascontiguousarray(g) @ wj.T  # BLAS gives a class-major g other bits
    else:
        # transposed convolution of g with the unit's input-channel filters
        u = np.tensordot(g, w[:, unit.unit], axes=([1], [0]))  # (n, oh, ow, k, k)
        oh, ow = g.shape[2:]
        ga = np.zeros((n, *rows.pre.shape[2:]))
        for dy in range(k):
            for dx in range(k):
                ga[:, dy:dy + oh, dx:dx + ow] += u[:, :, :, dy, dx]
        ga = ga.reshape(n, -1)
    return ga.sum(axis=1)


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
        raise ShapeMismatchError(f"{n} rows do not split into {k} equal blocks")
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
    factors = _backward_engine(spec, views, caches, grad_probs.reshape(probs.shape))
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
        raise ShapeMismatchError(f"gradient of {len(factors.layers[0][1])} models, "
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
    ValueError on some damaged headers.  Any other file raises
    CheckpointError naming the file, the values it holds and the P the
    model takes.
    """
    count = spec.param_count
    header = _npy_header(count)
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(header) or len(data) != len(header) + 8 * count:
        found, odd = divmod(max(len(data) - len(header), 0), 8)
        at = next((i for i, (a, b) in enumerate(zip(data, header)) if a != b),
                  min(len(data), len(header)))
        raise CheckpointError(
            f"{path}: holds {found} float64 values" + (f" and {odd} bytes" if odd else "")
            + ("" if at == len(header) else f", header byte {at} differs or is missing")
            + f"; the model takes {count}")
    return np.frombuffer(data, "<f8", count, len(header)).astype(np.float64)
