"""Small-image datasets: IDX loading and synthetic multi-domain generators.

A DomainDataset holds one domain as two arrays, images (N, C, H, W) float64
and labels (N,) int64, and validates them on construction; resizing, subsets
and splits are index operations on those arrays.

Synthetic domains share one label space but differ in feature distribution:
each class has a seeded base pattern, samples add per-sample jitter, and a
domain transform (invert, noise, downsampling, background clutter) reshapes
the feature distribution without touching labels.
"""
from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, replace

import numpy as np

from .nncore import make_rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

TRANSFORM_KINDS = ("identity", "invert", "gaussian_noise", "downsample", "background_clutter")
# the kinds that take one argument: the Transform field it sets and its type
TRANSFORM_ARGS = {"gaussian_noise": ("sigma", float), "downsample": ("factor", int),
                  "background_clutter": ("level", float)}


class DatasetError(ValueError):
    pass


class IdxError(DatasetError):
    pass


class IdxMagicError(IdxError):
    pass


class IdxTruncatedError(IdxError):
    pass


class IdxCountMismatchError(IdxError):
    pass


@dataclass(frozen=True)
class DomainDataset:
    """One domain's examples as two arrays: images (N, C, H, W) float64 in
    [0, 1] and labels (N,) int64 in [0, class_count)."""
    images: np.ndarray
    labels: np.ndarray
    domain_id: str
    class_count: int

    def __post_init__(self):
        name = self.domain_id
        if self.images.ndim != 4 or self.images.dtype != np.float64:
            raise DatasetError(
                f"domain {name}: images must be 4-D float64, got "
                f"{self.images.ndim}-D {self.images.dtype}")
        if self.labels.ndim != 1 or self.labels.dtype != np.int64:
            raise DatasetError(
                f"domain {name}: labels must be 1-D int64, got "
                f"{self.labels.ndim}-D {self.labels.dtype}")
        if len(self.images) != len(self.labels):
            raise DatasetError(
                f"domain {name}: {len(self.images)} images but {len(self.labels)} labels")
        bad = (self.labels < 0) | (self.labels >= self.class_count)
        if bad.any():
            raise DatasetError(
                f"domain {name}: label {self.labels[bad][0]} outside "
                f"[0, {self.class_count})")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def native_resolution(self) -> tuple[int, int]:
        return self.images.shape[2], self.images.shape[3]


@dataclass(frozen=True)
class Transform:
    kind: str
    sigma: float = 0.0       # gaussian_noise
    factor: int = 2          # downsample
    level: float = 0.0       # background_clutter

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise DatasetError(f"unknown transform {self.kind!r}")
        if self.kind == "gaussian_noise" and not 0.0 <= self.sigma < math.inf:
            raise DatasetError("gaussian_noise sigma must be finite and >= 0")
        if self.kind == "downsample" and self.factor not in (2, 4):
            raise DatasetError("downsample factor must be 2 or 4")
        if self.kind == "background_clutter" and not 0.0 <= self.level <= 1.0:
            raise DatasetError("background_clutter level must be in [0, 1]")


def parse_transforms(text: str) -> tuple[Transform, ...]:
    """Parse a transform chain such as 'invert+gaussian_noise(0.1)'; a '+'
    inside parentheses belongs to the argument ('gaussian_noise(1e+2)')."""
    out = []
    for part in re.split(r"\+(?![^()]*\))", text.strip()):
        part = part.strip()
        m = re.fullmatch(r"([a-z_0-9]+)(?:\(([^)]*)\))?", part)
        if not m:
            raise DatasetError(f"cannot parse transform {part!r}")
        name, arg = m.group(1), m.group(2)
        if name not in TRANSFORM_KINDS:
            raise DatasetError(f"unknown transform {name!r}")
        if name not in TRANSFORM_ARGS:
            if arg is not None:
                raise DatasetError(f"transform {name}: expected no argument, got {part!r}")
            out.append(Transform(name))
            continue
        key, kind = TRANSFORM_ARGS[name]
        try:
            value = kind(arg)
        except (TypeError, ValueError):
            what = "an integer" if kind is int else "a finite number"
            raise DatasetError(f"transform {name}: expected {what} argument, "
                               f"got {part!r}") from None
        out.append(Transform(name, **{key: value}))
    return tuple(out)


# ---------------------------------------------------------------------------
# IDX format


def _read_idx(path, magic: int, dims: int) -> np.ndarray:
    """One IDX file's uint8 payload; the file must hold exactly its header
    (magic, then one big-endian size per dimension) and the declared payload."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = 4 * (1 + dims)
    if len(data) < header:
        raise IdxTruncatedError(f"{path}: expected a {header}-byte header, got {len(data)}")
    found, *shape = struct.unpack(f">{1 + dims}I", data[:header])
    if found != magic:
        raise IdxMagicError(f"{path}: magic {found:#010x}, expected {magic:#010x}")
    size = math.prod(shape)
    payload = len(data) - header
    if payload < size:
        raise IdxTruncatedError(f"{path}: expected {size} payload bytes, got {payload}")
    if payload > size:
        raise IdxError(f"{path}: {payload - size} bytes after the declared payload")
    return np.frombuffer(data, dtype=np.uint8, count=size, offset=header).reshape(shape)


def _class_count(labels: np.ndarray) -> int:
    """An IDX domain's class count: max label + 1, or 0 without labels."""
    return int(labels.max()) + 1 if len(labels) else 0


def idx_class_count(labels_path) -> int:
    """The class count load_idx gives, read from the labels file alone."""
    return _class_count(_read_idx(labels_path, IDX_LABELS_MAGIC, 1))


def load_idx(images_path, labels_path, domain_id: str | None = None) -> DomainDataset:
    """Load a big-endian IDX image/label pair, rescaling pixels to [0, 1]."""
    pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1).astype(np.int64)
    if len(pixels) != len(labels):
        raise IdxCountMismatchError(
            f"{images_path}: {len(pixels)} images but {len(labels)} labels")
    name = domain_id if domain_id is not None else str(images_path)
    return DomainDataset(pixels[:, None].astype(np.float64) / 255.0, labels, name,
                         _class_count(labels))


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
    rng = make_rng(seed, 301)
    h, w = resolution
    patterns = np.empty((class_count, h, w))
    for c in range(class_count):
        raw = _box_blur(rng.uniform(0.0, 1.0, (h, w)))
        cut = np.quantile(raw, 0.65)
        patterns[c] = _box_blur(np.where(raw > cut, 0.85, 0.15))
    return patterns


def _apply_transforms(images: np.ndarray, transforms: tuple[Transform, ...],
                      rng: np.random.Generator) -> np.ndarray:
    """The transform chain, applied in place where the shape allows."""
    for tf in transforms:
        if tf.kind == "identity":
            continue
        if tf.kind == "invert":
            np.subtract(1.0, images, out=images)
        elif tf.kind == "gaussian_noise":
            images += rng.normal(0.0, tf.sigma, images.shape)
            np.clip(images, 0.0, 1.0, out=images)
        elif tf.kind == "downsample":
            images = images[:, ::tf.factor, ::tf.factor]
        elif tf.kind == "background_clutter":
            clutter = _box_blur(rng.uniform(0.0, 1.0, images.shape))
            clutter *= tf.level
            np.maximum(images, clutter, out=images)
    return images


class BaseStream:
    """The base sample stream that synthetic domains over one
    (base_pattern_seed, seed, resolution, class_count) share, drawn once.

    It holds the class patterns rolled by each of the nine shifts and, for
    samples 0..count-1, each sample's shift and then its noise, drawn in that
    order.  Sample i's draws depend on neither its class nor the domain's
    transforms, so a domain of n <= count samples uses the first n.  The
    stream serves `uses` domains; the last one forms its images inside the
    noise array, which the stream then lets go.

    A sample's shift is the pair rng.integers(-1, 2, size=2) would draw, read
    from one raw PCG64 word instead: integers applies Lemire's bounded draw
    to 32-bit halves, low half of a fresh word first, so the shift is
    ((half * 3) >> 32) - 1 of the low half, then of the high half, computed
    for all samples after the loop.  Lemire redraws only on a zero half
    (probability 2**-31 each); at such a word the loop steps the generator
    back one word and draws that sample's and every later sample's shift
    with integers itself.  Either way the shifts, the noise and the
    generator's stream are those of the integers loop.
    """

    def __init__(self, base_pattern_seed: int, seed: int, resolution: tuple[int, int],
                 class_count: int, count: int, uses: int = 1):
        self.key = (base_pattern_seed, seed, tuple(resolution), class_count)
        patterns = _class_patterns(base_pattern_seed, class_count, resolution)
        # rolled[c, 3 * dy + dx + 4] is class c's pattern rolled by (dy, dx)
        self.rolled = np.stack([[np.roll(p, (dy, dx), axis=(0, 1))
                                 for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
                                for p in patterns])
        rng = make_rng((base_pattern_seed, seed), 311)
        bits = rng.bit_generator
        random_raw, integers, standard_normal = bits.random_raw, rng.integers, rng.standard_normal
        words = np.empty(count, dtype=np.uint64)
        shifts = np.empty((count, 2), dtype=np.int64)
        noise = np.empty((count, *resolution))
        raw = count  # samples before this one take their shift from words
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
        shifts[:raw, 0] = (words[:raw] & 0xFFFFFFFF) * 3 >> 32
        shifts[:raw, 1] = (words[:raw] >> 32) * 3 >> 32
        shifts[:raw] -= 1
        # 0.08 * z has the bits of normal(0.0, 0.08)'s 0.0 + 0.08 * z up to
        # the sign of a zero, which adding a pattern (>= 0.15) erases
        noise *= 0.08
        self.roll_index = 3 * shifts[:, 0] + shifts[:, 1] + 4
        self.noise: np.ndarray | None = noise
        self.uses = uses

    def base_images(self, samples_per_class: int) -> np.ndarray:
        """Clipped (n, h, w) images of samples 0..n-1, labelled class by
        class with samples_per_class each: pattern rolled by the sample's
        shift, plus its noise.  The last use writes them into the noise array."""
        class_count = len(self.rolled)
        n = class_count * samples_per_class
        if self.noise is None or n > len(self.noise):
            raise DatasetError(f"base stream {self.key} cannot serve {n} more samples")
        noise = self.noise[:n]
        self.uses -= 1
        if self.uses == 0:
            images, self.noise = noise, None
        else:
            images = np.empty_like(noise)
        for c in range(class_count):
            rows = slice(c * samples_per_class, (c + 1) * samples_per_class)
            np.add(noise[rows], self.rolled[c][self.roll_index[rows]], out=images[rows])
        np.clip(images, 0.0, 1.0, out=images)
        return images


def synth_domain(stream: BaseStream, transforms: tuple[Transform, ...],
                 samples_per_class: int, domain_id: str) -> DomainDataset:
    """Deterministic synthetic domain: samples_per_class examples of each of
    the stream's classes, in one shared label space.

    The images are the stream's first samples, so domains over one stream
    that differ only in transforms or class size are pixel-aligned sample
    for sample; the transforms' draws and the presentation order are seeded
    from the stream's (base_pattern_seed, seed).
    """
    class_count, seeds = len(stream.rolled), stream.key[:2]
    labels = np.repeat(np.arange(class_count, dtype=np.int64), samples_per_class)
    images = _apply_transforms(stream.base_images(samples_per_class), transforms,
                               make_rng(seeds, 313))
    order = make_rng(seeds, 317).permutation(len(labels))
    return DomainDataset(images[order][:, None], labels[order], domain_id, class_count)


def resize(dataset: DomainDataset, target_resolution: tuple[int, int]) -> DomainDataset:
    """Nearest-neighbor resampling; labels untouched."""
    th, tw = target_resolution
    if th < 1 or tw < 1:
        raise DatasetError("target resolution sides must be >= 1")
    h, w = dataset.native_resolution
    if (th, tw) == (h, w):
        return dataset
    rows = (np.arange(th) * h // th).astype(np.intp)
    cols = (np.arange(tw) * w // tw).astype(np.intp)
    return replace(dataset, images=dataset.images[:, :, rows[:, None], cols])


# ---------------------------------------------------------------------------
# Splits


@dataclass(frozen=True, eq=False)
class DomainSplits:
    """A domain's train, validation and test positions, each a sorted intp array."""
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def stratified_split(dataset: DomainDataset, val_fraction: float, test_fraction: float,
                     seed) -> DomainSplits:
    """Per-class shuffled split; every class must land in the training part."""
    labels = dataset.labels
    rng = make_rng(seed, 331)
    train, val, test = ([np.empty(0, dtype=np.intp)] for _ in range(3))
    for c in range(dataset.class_count):
        idx = np.flatnonzero(labels == c)
        if idx.size == 0:
            continue
        idx = idx[rng.permutation(idx.size)]
        n_val = int(round(val_fraction * idx.size))
        n_test = int(round(test_fraction * idx.size))
        if idx.size - n_val - n_test < 1:
            raise DatasetError(
                f"domain {dataset.domain_id}: class {c} has no training samples "
                f"after split ({idx.size} total)")
        val.append(idx[:n_val])
        test.append(idx[n_val:n_val + n_test])
        train.append(idx[n_val + n_test:])
    return DomainSplits(*(np.sort(np.concatenate(part)) for part in (train, val, test)))


def subset(dataset: DomainDataset, indices) -> DomainDataset:
    """The examples at the given integer positions, in that order."""
    idx = np.asarray(indices, dtype=np.intp)
    return replace(dataset, images=dataset.images[idx], labels=dataset.labels[idx])
