"""Small-image datasets: IDX loading and synthetic multi-domain generators.

A domain is first a DomainSource: its labels, the source sample each of its
rows holds, and a maker of the images of consecutive blocks of source
samples.  Cutting a domain to a label range (subset) and splitting it
(stratified_split) are index operations on the labels, so the data build
knows every sample's destination before any image exists and writes each
block straight into it.  A DomainDataset holds made images and their labels
as two arrays, images (N, C, H, W) float64 and labels (N,) int64, validated
on construction; the data build's pools are DomainDatasets.

Synthetic domains share one label space but differ in feature distribution:
each class has a seeded base pattern, samples add per-sample jitter, and a
domain transform (invert, noise, downsampling, background clutter) reshapes
the feature distribution without touching labels.
"""
from __future__ import annotations

import copy
import math
import re
import struct
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .nncore import ConfigError, make_rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Values per block of samples made at once: a block of the data build, and
# of the normal draws _transform_rngs moves a generator past.
BLOCK_VALUES = 2**16

TRANSFORM_KINDS = ("identity", "invert", "gaussian_noise", "downsample", "background_clutter")
# the kinds that take one argument: its type, the test its value must pass
# and the fault named when it does not
TRANSFORM_ARGS = {
    "gaussian_noise": (float, lambda v: 0.0 <= v < math.inf,
                       "gaussian_noise sigma must be finite and >= 0"),
    "downsample": (int, lambda v: v in (2, 4), "downsample factor must be 2 or 4"),
    "background_clutter": (float, lambda v: 0.0 <= v <= 1.0,
                           "background_clutter level must be in [0, 1]"),
}


@dataclass(frozen=True)
class DomainDataset:
    """Made examples as two arrays: images (N, C, H, W) float64 in [0, 1]
    and labels (N,) int64 in [0, class_count)."""
    images: np.ndarray
    labels: np.ndarray
    domain_id: str
    class_count: int

    def __post_init__(self):
        name = self.domain_id
        if self.images.ndim != 4 or self.images.dtype != np.float64:
            raise ValueError(
                f"domain {name}: images must be 4-D float64, got "
                f"{self.images.ndim}-D {self.images.dtype}")
        if self.labels.ndim != 1 or self.labels.dtype != np.int64:
            raise ValueError(
                f"domain {name}: labels must be 1-D int64, got "
                f"{self.labels.ndim}-D {self.labels.dtype}")
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"domain {name}: {len(self.images)} images but {len(self.labels)} labels")
        bad = (self.labels < 0) | (self.labels >= self.class_count)
        if bad.any():
            raise ValueError(
                f"domain {name}: label {self.labels[bad][0]} outside "
                f"[0, {self.class_count})")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class DomainSource:
    """One domain before its images exist.

    Row i has label labels[i] (int64) and holds source sample rows[i] of
    the size samples the source makes, each of resolution (h, w) before the
    transforms.  make(start, stop, *base) returns the (stop - start, 1, h',
    w') float64 images in [0, 1] of source samples start..stop-1, at the
    native resolution; it is called for consecutive blocks from sample 0 on,
    each sample once.  An IDX source takes no base; a synthetic one takes the
    (roll_index, noise) its stream's draw returned for the samples from
    start on, of which it reads the first stop - start.
    """
    domain_id: str
    labels: np.ndarray
    rows: np.ndarray
    class_count: int
    size: int
    resolution: tuple[int, int]
    make: Callable[..., np.ndarray]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Transform:
    """One transform of a chain: its kind and, for a kind in TRANSFORM_ARGS,
    its one argument (gaussian_noise's sigma, downsample's factor,
    background_clutter's level), else None."""
    kind: str
    arg: float | None = None

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform {self.kind!r}")
        if self.kind not in TRANSFORM_ARGS:
            if self.arg is not None:
                text = f"{self.kind}({self.arg})"
                raise ValueError(f"transform {self.kind}: expected no argument, got {text!r}")
        elif self.arg is None or not TRANSFORM_ARGS[self.kind][1](self.arg):
            raise ValueError(TRANSFORM_ARGS[self.kind][2])


def parse_transforms(text: str, key: str = "transform",
                     line: int | str | None = None) -> tuple[Transform, ...]:
    """Parse a transform chain such as 'invert+gaussian_noise(0.1)'; a '+'
    inside parentheses belongs to the argument ('gaussian_noise(1e+2)').
    A fault raises a ConfigError naming key, the chain's config key, and
    line, the line or flag that set it; Transform tests the values."""
    def fault(message: str) -> ConfigError:
        return ConfigError(f"{key}: {message}", line)
    out = []
    for part in re.split(r"\+(?![^()]*\))", text.strip()):
        part = part.strip()
        m = re.fullmatch(r"([a-z_0-9]+)(?:\(([^)]*)\))?", part)
        if not m:
            raise fault(f"cannot parse transform {part!r}")
        name, arg = m.groups()
        if name in TRANSFORM_ARGS:
            kind = TRANSFORM_ARGS[name][0]
            try:
                arg = kind(arg)
            except (TypeError, ValueError):
                what = "an integer" if kind is int else "a finite number"
                raise fault(f"transform {name}: expected {what} argument, got {part!r}") from None
        try:
            out.append(Transform(name, arg))
        except ValueError as exc:
            raise fault(str(exc)) from None
    return tuple(out)


# ---------------------------------------------------------------------------
# IDX format


def _read_idx(path, data: bytes, magic: int, dims: int) -> np.ndarray:
    """The uint8 payload of data, the bytes of the IDX file at path; the
    file must hold exactly its header (magic, then one big-endian size per
    dimension) and the declared payload, else a ConfigError names it."""
    header = 4 * (1 + dims)
    if len(data) < header:
        raise ConfigError(f"{path}: expected a {header}-byte header, got {len(data)}")
    found, *shape = struct.unpack(f">{1 + dims}I", data[:header])
    if found != magic:
        raise ConfigError(f"{path}: magic {found:#010x}, expected {magic:#010x}")
    size = math.prod(shape)
    payload = len(data) - header
    if payload < size:
        raise ConfigError(f"{path}: expected {size} payload bytes, got {payload}")
    if payload > size:
        raise ConfigError(f"{path}: {payload - size} bytes after the declared payload")
    return np.frombuffer(data, dtype=np.uint8, count=size, offset=header).reshape(shape)


def _class_count(labels: np.ndarray) -> int:
    """An IDX domain's class count: max label + 1, or 0 without labels."""
    return int(labels.max()) + 1 if len(labels) else 0


def idx_class_count(labels_path, files) -> int:
    """The class count load_idx gives, from the labels file alone; files
    maps each path to its bytes."""
    return _class_count(_read_idx(labels_path, files[labels_path], IDX_LABELS_MAGIC, 1))


def load_idx(images_path, labels_path, files, domain_id: str | None = None) -> DomainSource:
    """A big-endian IDX image/label pair as a source whose rows are the
    files' samples in order; it keeps the uint8 pixels and rescales them to
    [0, 1] a block at a time.  files maps each path to its bytes."""
    pixels = _read_idx(images_path, files[images_path], IDX_IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, files[labels_path], IDX_LABELS_MAGIC, 1).astype(np.int64)
    if len(pixels) != len(labels):
        raise ConfigError(f"{images_path}: {len(pixels)} images but {len(labels)} labels")
    name = domain_id if domain_id is not None else str(images_path)
    return DomainSource(name, labels, np.arange(len(labels), dtype=np.intp),
                        _class_count(labels), len(labels), pixels.shape[1:],
                        lambda start, stop: pixels[start:stop, None].astype(np.float64) / 255.0)


# ---------------------------------------------------------------------------
# Synthetic domains


def _box_blur(img: np.ndarray) -> np.ndarray:
    """3x3 mean over the last two axes with edge padding, written into img."""
    pad = [(0, 0)] * (img.ndim - 2) + [(1, 1), (1, 1)]
    padded = np.pad(img, pad, mode="edge")
    h, w = img.shape[-2:]
    img.fill(0.0)
    for dy in range(3):
        for dx in range(3):
            img += padded[..., dy:dy + h, dx:dx + w]
    img /= 9.0
    return img


def _class_patterns(seed: int, class_count: int, resolution: tuple[int, int]) -> np.ndarray:
    """Per class, blurred noise cut at its 0.65 quantile, then blurred; the cut
    is np.quantile's linear method written out, as np.quantile loads numpy.ma."""
    rng = make_rng(seed, 301)
    h, w = resolution
    patterns = np.empty((class_count, h, w))
    at = (h * w - 1) * 0.65
    i, t = int(at), at - int(at)
    for c in range(class_count):
        raw = _box_blur(rng.uniform(0.0, 1.0, (h, w)))
        a, b = np.sort(raw, axis=None)[i:i + 2]
        cut = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
        patterns[c] = _box_blur(np.where(raw > cut, 0.85, 0.15))
    return patterns


def _transform_rngs(transforms: tuple[Transform, ...], rng: np.random.Generator,
                    shape: tuple[int, int, int]) -> list[np.random.Generator]:
    """Per transform, the generator its draws start from when the chain is
    applied to a whole domain of shape (n, h, w) with rng, one transform
    after the other: the last transform that draws gets rng itself, and
    each one that draws before it a copy, rng being moved past its draws
    (uniform takes one word a value; normal's count is only known by
    drawing, a block at a time).  Drawing block after block from these
    generators gives the bits of the whole-domain draws."""
    n, h, w = shape
    last = max((i for i, tf in enumerate(transforms)
                if tf.kind in ("gaussian_noise", "background_clutter")), default=-1)
    rngs = []
    for i, tf in enumerate(transforms):
        if tf.kind == "downsample":
            h, w = -(-h // tf.arg), -(-w // tf.arg)
        rngs.append(rng if i >= last else copy.deepcopy(rng))
        if i < last and tf.kind == "background_clutter":
            rng.bit_generator.advance(n * h * w)
        elif i < last and tf.kind == "gaussian_noise":
            for left in range(n * h * w, 0, -BLOCK_VALUES):
                rng.standard_normal(min(left, BLOCK_VALUES))
    return rngs


def _apply_transforms(images: np.ndarray, transforms: tuple[Transform, ...],
                      rngs: list[np.random.Generator]) -> np.ndarray:
    """The transform chain on a block of (n, h, w) images, in place where the
    shape allows; transform i draws from rngs[i]."""
    for tf, rng in zip(transforms, rngs):
        if tf.kind == "invert":
            np.subtract(1.0, images, out=images)
        elif tf.kind == "gaussian_noise":
            images += rng.normal(0.0, tf.arg, images.shape)
            np.clip(images, 0.0, 1.0, out=images)
        elif tf.kind == "downsample":
            images = images[:, ::tf.arg, ::tf.arg]
        elif tf.kind == "background_clutter":
            clutter = _box_blur(rng.uniform(0.0, 1.0, images.shape))
            clutter *= tf.arg
            np.maximum(images, clutter, out=images)
    return images


class BaseStream:
    """The base sample stream that synthetic domains over one
    (base_pattern_seed, seed, resolution, class_count) share, drawn once, a
    block at a time.

    It holds the class patterns rolled by each of the nine shifts and its
    generator: draw(count) returns the next count samples' roll indices and
    noise, each sample's shift and then its noise drawn in that order, the
    noise into the array of the draw before when the count is the same.
    Sample i's draws depend on neither its class nor the domain's
    transforms, so the data build hands each block to every domain over the
    stream, and a domain of n samples uses the first n.

    A sample's shift is the pair rng.integers(-1, 2, size=2) would draw, read
    from one raw PCG64 word instead: integers applies Lemire's bounded draw
    to 32-bit halves, low half of a fresh word first, so the shift is
    ((half * 3) >> 32) - 1 of the low half, then of the high half, computed
    for a block's samples after its loop.  Lemire redraws only on a zero
    half (probability 2**-31 each); at such a word the loop steps the
    generator back one word and draws that sample's and every later
    sample's shift, in this block and the later ones, with integers itself.
    Either way the shifts, the noise and the generator's stream are those of
    the integers loop.
    """

    def __init__(self, base_pattern_seed: int, seed: int, resolution: tuple[int, int],
                 class_count: int):
        self.key = (base_pattern_seed, seed, tuple(resolution), class_count)
        patterns = _class_patterns(base_pattern_seed, class_count, resolution)
        # rolled[c, 3 * dy + dx + 4] is class c's pattern rolled by (dy, dx)
        self.rolled = np.stack([[np.roll(p, (dy, dx), axis=(0, 1))
                                 for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
                                for p in patterns])
        self._rng = make_rng((base_pattern_seed, seed), 311)
        self._raw = True   # shifts are still read from raw words
        self._noise = np.empty((0, *resolution))

    def draw(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The next count samples' (roll_index, noise); the next draw of the
        same count overwrites the noise."""
        rng = self._rng
        bits = rng.bit_generator
        random_raw, integers, standard_normal = bits.random_raw, rng.integers, rng.standard_normal
        words = np.empty(count, dtype=np.uint64)
        shifts = np.empty((count, 2), dtype=np.int64)
        noise = self._noise if len(self._noise) == count else np.empty((count, *self.key[2]))
        raw = count if self._raw else 0  # samples before this one take their shift from words
        for i in range(count):
            if i < raw:
                word = random_raw()
                if word & 0xFFFFFFFF and word >> 32:
                    words[i] = word
                else:
                    bits.advance(2**128 - 1)
                    raw = i
            if i >= raw:
                shifts[i] = integers(-1, 2, size=2)
            standard_normal(out=noise[i])
        self._raw = self._raw and raw == count
        shifts[:raw, 0] = (words[:raw] & 0xFFFFFFFF) * 3 >> 32
        shifts[:raw, 1] = (words[:raw] >> 32) * 3 >> 32
        shifts[:raw] -= 1
        # 0.08 * z has the bits of normal(0.0, 0.08)'s 0.0 + 0.08 * z up to
        # the sign of a zero, which adding a pattern (>= 0.15) erases
        noise *= 0.08
        self._noise = noise
        return 3 * shifts[:, 0] + shifts[:, 1] + 4, noise


def synth_domain(stream: BaseStream, transforms: tuple[Transform, ...],
                 samples_per_class: int, domain_id: str) -> DomainSource:
    """Deterministic synthetic domain: samples_per_class examples of each of
    the stream's classes, in one shared label space.

    Source sample i is the stream's sample i, of class i // samples_per_class,
    so domains over one stream that differ only in transforms or class size
    are pixel-aligned sample for sample.  The rows present the samples in an
    order seeded from the stream's (base_pattern_seed, seed), and so are the
    transforms' draws, which carry on from one block to the next: a block's
    images are its samples' pattern rolled by their shift, plus their noise,
    both from the stream's block make is handed, clipped, then transformed,
    with the bits of one whole-domain draw.
    """
    class_count, seeds, resolution = len(stream.rolled), stream.key[:2], stream.key[2]
    size = class_count * samples_per_class
    order = make_rng(seeds, 317).permutation(size)
    rngs = _transform_rngs(transforms, make_rng(seeds, 313), (size, *resolution))

    def make(start: int, stop: int, roll_index: np.ndarray, noise: np.ndarray) -> np.ndarray:
        images = stream.rolled[np.arange(start, stop) // samples_per_class,
                               roll_index[:stop - start]]
        images += noise[:stop - start]
        np.clip(images, 0.0, 1.0, out=images)
        return _apply_transforms(images, transforms, rngs)[:, None]
    return DomainSource(domain_id, order // samples_per_class, order, class_count, size,
                        resolution, make)


def resize(images: np.ndarray, target_resolution: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resampling of (N, C, H, W) images."""
    th, tw = target_resolution
    if th < 1 or tw < 1:
        raise ValueError("target resolution sides must be >= 1")
    h, w = images.shape[2:]
    if (th, tw) == (h, w):
        return images
    rows = (np.arange(th) * h // th).astype(np.intp)
    cols = (np.arange(tw) * w // tw).astype(np.intp)
    return images[:, :, rows[:, None], cols]


# ---------------------------------------------------------------------------
# Splits


@dataclass(frozen=True, eq=False)
class DomainSplits:
    """A domain's train, validation and test positions, each a sorted intp array."""
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def stratified_split(domain: DomainSource | DomainDataset, val_fraction: float,
                     test_fraction: float, seed) -> DomainSplits:
    """Per-class shuffled split of a domain's rows, by its labels; every
    class must land in the training part, else a ConfigError names the
    [evaluate] fractions."""
    labels = domain.labels
    rng = make_rng(seed, 331)
    train, val, test = ([np.empty(0, dtype=np.intp)] for _ in range(3))
    for c in range(domain.class_count):
        idx = np.flatnonzero(labels == c)
        if idx.size == 0:
            continue
        idx = idx[rng.permutation(idx.size)]
        n_val = int(round(val_fraction * idx.size))
        n_test = int(round(test_fraction * idx.size))
        if idx.size - n_val - n_test < 1:
            raise ConfigError(
                f"evaluate.val_fraction, evaluate.test_fraction: domain {domain.domain_id}: "
                f"class {c} has no training samples after split ({idx.size} total); lower "
                f"them or raise the samples per class")
        val.append(idx[:n_val])
        test.append(idx[n_val:n_val + n_test])
        train.append(idx[n_val + n_test:])
    return DomainSplits(*(np.sort(np.concatenate(part)) for part in (train, val, test)))


def subset(domain: DomainSource, indices) -> DomainSource:
    """The rows at the given integer positions, in that order."""
    idx = np.asarray(indices, dtype=np.intp)
    return replace(domain, labels=domain.labels[idx], rows=domain.rows[idx])
