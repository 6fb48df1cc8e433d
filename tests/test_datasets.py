"""Dataset loading, synthesis and resampling tests."""
import itertools
import os
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fusim import datasets as ds
from fusim import experiment
from fusim import nncore as nn
from fusim.config import ConfigError, validate_config
from helpers import (TINY, file_bytes, made, reference_base_stream, reference_class_patterns,
                     reference_task_data, same_bits, save_idx, synthetic_domain, write_idx)


def write_idx_pair(tmp_path, images, labels):
    ip = tmp_path / "imgs-idx3-ubyte"
    lp = tmp_path / "lbls-idx1-ubyte"
    write_idx(images, labels, ip, lp)
    return ip, lp


# ---------------------------------------------------------------------------
# IDX


def test_load_idx_two_images(tmp_path):
    images = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    ip, lp = write_idx_pair(tmp_path, images, [1, 0])
    d = made(ds.load_idx(ip, lp, file_bytes(ip, lp)))
    assert len(d) == 2
    assert d.images.shape == (2, 1, 3, 4)
    assert d.labels.tolist() == [1, 0]
    assert np.allclose(d.images[1, 0] * 255.0, images[1])


def test_load_idx_count_mismatch(tmp_path):
    images = np.zeros((2, 3, 3), dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, [0, 1, 1])
    with pytest.raises(ConfigError, match=f"{ip}: 2 images but 3 labels"):
        ds.load_idx(ip, lp, file_bytes(ip, lp))


def test_load_idx_bad_magic(tmp_path):
    ip = tmp_path / "bad"
    ip.write_bytes(struct.pack(">IIII", 0x12345, 1, 2, 2) + b"\x00" * 4)
    lp = tmp_path / "lbl"
    lp.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
    with pytest.raises(ConfigError, match=f"{ip}: magic 0x00012345, expected 0x00000803"):
        ds.load_idx(ip, lp, file_bytes(ip, lp))


def test_load_idx_truncated(tmp_path):
    ip = tmp_path / "trunc"
    ip.write_bytes(struct.pack(">IIII", 0x803, 4, 5, 5) + b"\x00" * 10)
    lp = tmp_path / "lbl"
    lp.write_bytes(struct.pack(">II", 0x801, 4) + b"\x00" * 4)
    with pytest.raises(ConfigError, match=f"{ip}: expected 100 payload bytes, got 10"):
        ds.load_idx(ip, lp, file_bytes(ip, lp))


@pytest.mark.parametrize("which", ["images", "labels"])
def test_load_idx_refuses_trailing_bytes(tmp_path, which):
    images = np.zeros((2, 3, 3), dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, [0, 1])
    path = ip if which == "images" else lp
    path.write_bytes(path.read_bytes() + b"\x00" * 13)
    with pytest.raises(ConfigError, match=f"{path}: 13 bytes after"):
        ds.load_idx(ip, lp, file_bytes(ip, lp))


def test_load_idx_truncated_header(tmp_path):
    ip, lp = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    lp.write_bytes(lp.read_bytes()[:6])
    with pytest.raises(ConfigError, match=f"{lp}: expected a 8-byte header, got 6"):
        ds.load_idx(ip, lp, file_bytes(ip, lp))


def test_idx_roundtrip_bytes(tmp_path):
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(5, 6, 6), dtype=np.uint8)
    labels = rng.integers(0, 4, size=5)
    ip, lp = write_idx_pair(tmp_path, images, labels)
    d = made(ds.load_idx(ip, lp, file_bytes(ip, lp)))
    ip2 = tmp_path / "imgs2"
    lp2 = tmp_path / "lbls2"
    save_idx(d, ip2, lp2)
    assert ip2.read_bytes() == ip.read_bytes()
    assert lp2.read_bytes() == lp.read_bytes()


@given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=3, max_dims=3, max_side=6)),
       st.data())
def test_idx_roundtrip_bit_exact(tmp_path_factory, images, data):
    labels = data.draw(hnp.arrays(np.uint8, len(images), elements=st.integers(0, 9)))
    tmp = tmp_path_factory.mktemp("idx")
    ip, lp = write_idx_pair(tmp, images, labels)
    d = made(ds.load_idx(ip, lp, file_bytes(ip, lp)))
    assert np.array_equal(d.images[:, 0], images / 255.0)
    assert np.array_equal(d.labels, labels)
    assert np.array_equal(np.round(d.images[:, 0] * 255.0), images)


MNIST_IMAGES = os.path.join("data", "MNIST", "train-images-idx3-ubyte")
MNIST_LABELS = os.path.join("data", "MNIST", "train-labels-idx1-ubyte")


@pytest.mark.skipif(not os.path.exists(MNIST_IMAGES),
                    reason="MNIST training files not present")
def test_load_idx_mnist_training():
    d = ds.load_idx(MNIST_IMAGES, MNIST_LABELS, file_bytes(MNIST_IMAGES, MNIST_LABELS))
    assert len(d) == 60000
    assert d.class_count == 10


# ---------------------------------------------------------------------------
# synth_domain


def make_domain(seed, transforms="identity", resolution=(12, 12), samples_per_class=20,
                class_count=4):
    return synthetic_domain(5, seed, resolution, class_count, samples_per_class, transforms)


def test_synth_deterministic():
    a = make_domain(9)
    b = make_domain(9)
    assert len(a) == len(b) == 80
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.images, b.images)


def test_synth_label_marginals_uniform():
    d = make_domain(1)
    counts = np.bincount(d.labels, minlength=4)
    assert np.all(counts == 20)


def test_synth_invert_is_pixel_complement():
    ident = make_domain(2)
    inv = make_domain(2, "invert")
    assert np.array_equal(ident.labels, inv.labels)
    assert np.allclose(inv.images, 1.0 - ident.images, atol=1e-15)


def test_synth_gaussian_noise_mean_abs_difference():
    # sampling oracle: E|clip(x+eta)-x| for eta ~ N(0, 0.1) is 0.1*sqrt(2/pi)
    # reduced slightly by clipping; the contract band is [0.06, 0.10].
    a = make_domain(3, samples_per_class=50, class_count=10, resolution=(16, 16))
    b = make_domain(3, "gaussian_noise(0.1)", samples_per_class=50, class_count=10,
                    resolution=(16, 16))
    mad = float(np.abs(b.images - a.images).mean())
    assert 0.06 <= mad <= 0.10


def test_synth_downsample_halves_resolution():
    d = make_domain(4, "downsample(2)")
    assert d.images.shape[2:] == (6, 6)


def linear_probe_accuracy(xs, ys, train, test, classes, steps=60, learning_rate=0.5):
    """Test accuracy of a softmax regression on the flattened images, fitted
    to the train rows by full-batch gradient descent on the mean
    cross-entropy from weights uniform in +-1/sqrt(fan_in) and zero bias."""
    x = xs.reshape(len(xs), -1)
    bound = 1.0 / np.sqrt(x.shape[1])
    w = nn.make_rng(0, 101, 0).uniform(-bound, bound, size=(x.shape[1], classes))
    b = np.zeros(classes)
    onehot = np.eye(classes)[ys[train]]
    for _ in range(steps):
        z = x[train] @ w + b
        p = np.exp(z - z.max(axis=1, keepdims=True))
        g = (p / p.sum(axis=1, keepdims=True) - onehot) / len(onehot)
        w -= learning_rate * x[train].T @ g
        b -= learning_rate * g.sum(axis=0)
    return float(((x[test] @ w + b).argmax(axis=1) == ys[test]).mean())


def test_synth_linear_probe_separability():
    # class structure must survive each transform: a linear probe trained on
    # a held-out part of the transformed domain is far above chance.
    for chain in ("identity", "invert+gaussian_noise(0.1)",
                  "downsample(2)+background_clutter(0.3)"):
        d = make_domain(7, chain, samples_per_class=40)
        acc = linear_probe_accuracy(d.images, d.labels, slice(0, 120), slice(120, 160), 4)
        assert acc > 0.5, (chain, acc)


def per_sample_synth(base_pattern_seed, seed, resolution, class_count, samples_per_class,
                     transforms):
    """The per-sample synthetic generator, kept as an oracle for synth_domain:
    (images, labels) in presentation order."""
    def box_blur(img):
        padded = np.pad(img, 1, mode="edge")
        out = np.zeros_like(img)
        for dy in range(3):
            for dx in range(3):
                out += padded[dy:dy + img.shape[0], dx:dx + img.shape[1]]
        return out / 9.0

    h, w = resolution
    rng = nn.make_rng(base_pattern_seed, 301)
    patterns = []
    for _ in range(class_count):
        raw = box_blur(rng.uniform(0.0, 1.0, (h, w)))
        patterns.append(box_blur(np.where(raw > np.quantile(raw, 0.65), 0.85, 0.15)))
    rng_base = nn.make_rng((base_pattern_seed, seed), 311)
    images, labels = [], []
    for c in range(class_count):
        for _ in range(samples_per_class):
            dy, dx = rng_base.integers(-1, 2, size=2)
            sample = np.roll(patterns[c], (int(dy), int(dx)), axis=(0, 1))
            sample = sample + rng_base.normal(0.0, 0.08, (h, w))
            images.append(np.clip(sample, 0.0, 1.0))
            labels.append(c)
    images = np.stack(images)
    rng_tf = nn.make_rng((base_pattern_seed, seed), 313)
    for tf in transforms:
        if tf.kind == "invert":
            images = 1.0 - images
        elif tf.kind == "gaussian_noise":
            images = np.clip(images + rng_tf.normal(0.0, tf.arg, images.shape), 0.0, 1.0)
        elif tf.kind == "downsample":
            images = images[:, ::tf.arg, ::tf.arg]
        elif tf.kind == "background_clutter":
            n, hh, ww = images.shape
            clutter = np.stack([box_blur(rng_tf.uniform(0.0, 1.0, (hh, ww)))
                                for _ in range(n)])
            images = np.maximum(images, tf.arg * clutter)
    order = nn.make_rng((base_pattern_seed, seed), 317).permutation(len(labels))
    return images[order][:, None], np.asarray(labels)[order]


@pytest.mark.parametrize("chain", [
    "identity",
    "invert+gaussian_noise(0.1)+downsample(2)+background_clutter(0.4)",
    "background_clutter(0.3)+downsample(2)+invert+gaussian_noise(0.05)",
])
def test_synth_bit_identical_to_per_sample_generator(chain):
    d = synthetic_domain(13, 6, (12, 10), 4, 9, chain)
    images, labels = per_sample_synth(13, 6, (12, 10), 4, 9, ds.parse_transforms(chain))
    assert np.array_equal(d.images, images)
    assert np.array_equal(d.labels, labels)
    assert d.images.shape == images.shape


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(4, 28), st.integers(4, 28))
@example(3, 10, 4, 4)     # index 9.75: interpolated down from the upper neighbour
@example(3, 10, 4, 5)     # index 12.35: interpolated up from the lower one
@example(3, 10, 9, 9)     # index 52.0: the lower neighbour itself
def test_class_patterns_equal_the_np_quantile_cut(seed, class_count, h, w):
    """The cut written out has np.quantile's bits at any resolution; the
    golden file and the digests hold only the configured seeds."""
    assert same_bits(ds._class_patterns(seed, class_count, (h, w)),
                     reference_class_patterns(seed, class_count, (h, w)))


SHARED_STREAM_CONFIG = """
[experiment]
seed = 6
[data]
class_count = 4
samples_per_class = 7
base_pattern_seed = 13
[domain.mid]
transform = identity
resolution = 12x10
[domain.large]
transform = invert+gaussian_noise(0.1)+downsample(2)+background_clutter(0.4)
resolution = 12x10
samples_per_class = 9
[domain.other]
transform = gaussian_noise(0.05)
resolution = 8x8
samples_per_class = 5
[domain.small]
transform = background_clutter(0.3)+downsample(2)+invert
resolution = 12x10
samples_per_class = 4
[domain.mid_twin]
transform = invert
resolution = 12x10
[partition]
group_sizes = 1,1,1,1,1
"""

# splits that leave a validation and a test example of each class of 4
SPLIT_SMALL_DOMAINS = """
[evaluate]
val_fraction = 0.25
test_fraction = 0.25
"""


def domain_rows(data, name):
    """Domain name's images and labels put back together from a data
    build's pools: each pool holds a block per domain in config order, its
    rows at the positions the domain's splits give."""
    sp, n = data.splits[name], sum(map(len, vars(data.splits[name]).values()))
    test = ds.DomainDataset(np.concatenate([t.images for t in data.test_sets]),
                            np.concatenate([t.labels for t in data.test_sets]), "test",
                            data.train.class_count)
    images = np.empty((n, *data.train.images.shape[1:]))
    labels = np.empty(n, dtype=np.int64)
    for which, pool in (("train", data.train), ("val", data.val), ("test", test)):
        rows = getattr(sp, which)
        start = sum(len(getattr(other, which))
                    for other in itertools.takewhile(lambda s: s is not sp, data.splits.values()))
        images[rows] = pool.images[start:start + len(rows)]
        labels[rows] = pool.labels[start:start + len(rows)]
    return images, labels


@pytest.mark.parametrize("block_values", [ds.BLOCK_VALUES, 607, 1])
def test_streamed_build_shares_a_stream_bit_identically(monkeypatch, block_values):
    # four domains share the 12x10 stream at three class sizes, two of them
    # the same size; one domain draws its own stream at 8x8.  With 607
    # values a block holds 5 of the 12x10 samples and 9 of the 8x8 ones,
    # with 1 value one sample.
    monkeypatch.setattr(experiment, "BLOCK_VALUES", block_values)
    cfg = validate_config(SHARED_STREAM_CONFIG + SPLIT_SMALL_DOMAINS)
    data = experiment.Task(cfg).data
    assert list(data.splits) == [dc.name for dc in cfg.domains]
    for dc in cfg.domains:
        images, labels = per_sample_synth(13, 6, dc.resolution, 4, dc.samples_per_class or 7,
                                          dc.transforms)
        got_images, got_labels = domain_rows(data, dc.name)
        assert np.array_equal(got_images, ds.resize(images, cfg.partition.working_resolution)), \
            dc.name
        assert np.array_equal(got_labels, labels), dc.name


def test_a_domain_made_in_blocks_has_the_bits_of_one_block():
    """Both transforms that draw carry their generators from block to block."""
    def fresh():
        stream = ds.BaseStream(13, 6, (12, 10), 4)
        chain = ds.parse_transforms("gaussian_noise(0.1)+background_clutter(0.3)")
        return ds.synth_domain(stream, chain, 5, "d"), stream
    assert same_bits(made(*fresh(), pieces=(2, 1, 6)).images, made(*fresh(), pieces=()).images)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# A synthetic domain of four classes beside an IDX domain of six at 12x12:
# the IDX domain's labels 4 and 5 lie beyond the shared range.
IDX_BEYOND_SHARED = """
[experiment]
seed = 4
[data]
class_count = 4
samples_per_class = 12
[domain.synth]
transform = gaussian_noise(0.1)+background_clutter(0.2)
resolution = 8x8
[domain.real]
images = {images}
labels = {labels}
[partition]
group_sizes = 1,2
working_resolution = 10x10
"""


def config_text(name, tmp_path):
    """The config text of a name the streamed-build oracle runs on."""
    if name in ("digits3", "pair2"):
        return (CONFIG_DIR / f"{name}.ini").read_text()
    if name == "shared-stream":
        return SHARED_STREAM_CONFIG + SPLIT_SMALL_DOMAINS
    if name == "idx":
        paths = {part: tmp_path / f"real-{part}.idx" for part in ("images", "labels")}
        save_idx(synthetic_domain(2, 9, (12, 12), 6, 15), paths["images"], paths["labels"])
        return IDX_BEYOND_SHARED.format(**paths)
    strategy = {"iid": "strategy = iid\nclients = 3",
                "dirichlet": "strategy = dirichlet\nclients = 3\nalpha = 0.5"}[name]
    return TINY.format(route="none").replace("group_sizes = 2,2", strategy)


@pytest.mark.parametrize("name, block_values", [
    ("digits3", ds.BLOCK_VALUES), ("pair2", ds.BLOCK_VALUES), ("shared-stream", 607),
    ("idx", ds.BLOCK_VALUES), ("idx", 500), ("iid", 300), ("dirichlet", 300)])
def test_streamed_build_equals_the_whole_domain_build(tmp_path, monkeypatch, name, block_values):
    """The pools, labels, splits and plan of the streamed data build equal
    those of the whole-domain build bit for bit, with the default blocks
    and with blocks of a few samples that do not divide the domains."""
    monkeypatch.setattr(experiment, "BLOCK_VALUES", block_values)
    cfg = validate_config(config_text(name, tmp_path))
    task = experiment.Task(cfg)
    data, want = task.data, reference_task_data(cfg, task.spec.class_count)
    test = ds.DomainDataset(np.concatenate([t.images for t in data.test_sets]),
                            np.concatenate([t.labels for t in data.test_sets]), "test",
                            task.spec.class_count)
    for which, got in (("train", data.train), ("val", data.val), ("test", test)):
        assert same_bits(got.images, want[which].images), which
        assert same_bits(got.labels, want[which].labels), which
    assert list(data.splits) == list(want["splits"])
    for domain, sp in want["splits"].items():
        for part in ("train", "val", "test"):
            assert same_bits(getattr(data.splits[domain], part), getattr(sp, part))
    assert data.plan.blocks == want["plan"].blocks
    assert len(data.plan.clients) == len(want["plan"].clients)
    assert all(map(same_bits, data.plan.clients, want["plan"].clients))


def test_data_build_holds_its_pools_and_a_few_blocks():
    """The pair2 data build's traced heap peak is at most its pools' bytes
    plus 4 MB, room for a few blocks of BLOCK_VALUES float64 values (0.5 MB
    each) and the per-sample index vectors; it reads 2.2 MB.  The
    whole-domain build peaked at 51.1 MB against 24.7 MB of pools.  A first
    build, untraced, imports the modules numpy loads on first use."""
    cfg = validate_config((CONFIG_DIR / "pair2.ini").read_text())
    experiment.Task(cfg).data
    task = experiment.Task(cfg)
    tracemalloc.start()
    try:
        data = task.data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the test sets of a real_noniid split are the test pool's domain blocks
    pools = sum(a.nbytes for d in (data.train, data.val, *data.test_sets)
                for a in (d.images, d.labels))
    assert pools > 23e6
    assert peak <= pools + 4e6, (peak, pools)


def stream_from(rng, resolution):
    """A BaseStream whose shifts and noise come from rng (datasets.make_rng
    hands it out for the stream's tag, 311); rng is left where it ends."""
    def make_rng(seed, *tags):
        return rng if tags == (311,) else nn.make_rng(seed, *tags)
    with mock.patch.object(ds, "make_rng", make_rng):
        return ds.BaseStream(5, 0, resolution, 2)


def drawn(stream, count):
    """The roll indices and noise of count samples of stream, drawn in
    blocks of 1, 2, 3, ... samples (a copy of each, since a draw of the
    same count reuses the block's array) and joined."""
    blocks, size = [], 1
    while count:
        blocks.append([a.copy() for a in stream.draw(min(size, count))])
        count -= min(size, count)
        size += 1
    return tuple(np.concatenate(part) for part in zip(*blocks))


def live_state(rng):
    """rng's PCG64 state as far as any later draw reads it: `uinteger`
    buffers a word's high half and is read only while `has_uint32` is set."""
    state = rng.bit_generator.state
    if not state["has_uint32"]:
        del state["uinteger"]
    return state


def generator_at(state):
    """A PCG64 Generator set to the state dict `state`."""
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


def assert_same_stream(state, resolution, count):
    """BaseStream, drawing in uneven blocks, and the per-sample integers
    loop, each drawing from a generator at state, give the same shifts,
    noise and final state."""
    rng, reference_rng = generator_at(state), generator_at(state)
    got_roll_index, got_noise = drawn(stream_from(rng, resolution), count)
    roll_index, noise = reference_base_stream(reference_rng, resolution, count)
    assert same_bits(got_roll_index, roll_index)
    assert same_bits(got_noise, noise)
    assert live_state(rng) == live_state(reference_rng)


@pytest.mark.bitid
@given(st.integers(0, 2**32 - 1), st.integers(4, 16), st.integers(4, 16), st.integers(1, 300))
@example(7, 4, 5, 5)   # draws of 1, 2 and 2 samples: the last reuses the block's array
def test_base_stream_reads_integers_shifts_from_raw_words(seed, h, w, count):
    state = nn.make_rng((5, seed), 311).bit_generator.state
    assert_same_stream(state, (h, w), count)


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_state_before(word, inc, words_before):
    """A PCG64 state dict with increment inc whose raw stream gives
    words_before words and then `word`.  The state after `word`'s step has a
    high half with its top six bits clear, so its XSL-RR output is high ^ low
    unrotated; each step back inverts state -> state * multiplier + inc."""
    high = 0x0123456789ABCDEF
    state = high << 64 | (high ^ word)
    inverse = pow(PCG64_MULTIPLIER, -1, 2**128)
    for _ in range(words_before + 1):
        state = (state - inc) * inverse % 2**128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def zero_word_at(word, sample, resolution):
    """A PCG64 state from which the base stream draws `word` as the shift
    word of sample `sample`.  How many words the samples before it take
    depends on the start, so the start is searched: the fewest words before
    `word` at which the per-sample integers loop meets it at that sample."""
    inc = nn.make_rng(0).bit_generator.state["state"]["inc"]
    target = pcg64_state_before(word, inc, 0)
    for words_before in itertools.count(sample * (1 + resolution[0] * resolution[1])):
        state = pcg64_state_before(word, inc, words_before)
        rng = generator_at(state)
        reference_base_stream(rng, resolution, sample)
        if rng.bit_generator.state["state"] == target["state"]:
            assert rng.bit_generator.random_raw() == word
            return state


@pytest.mark.bitid
@pytest.mark.parametrize("word, sample", [(0xDEADBEEF << 32, 0), (0xDEADBEEF, 0), (0, 0),
                                          (0xDEADBEEF << 32, 3)],
                         ids=["low-half-zero", "high-half-zero", "both-zero", "later-sample"])
def test_base_stream_steps_back_at_a_zero_half(word, sample):
    resolution = (4, 5)
    assert_same_stream(zero_word_at(word, sample, resolution), resolution, 12)


def test_parse_transform_chain():
    chain = ds.parse_transforms("invert+gaussian_noise(0.15)")
    assert [t.kind for t in chain] == ["invert", "gaussian_noise"]
    assert chain[1].arg == 0.15
    with pytest.raises(ConfigError, match=r"^transform: unknown transform 'sharpen'$"):
        ds.parse_transforms("sharpen(2)")
    with pytest.raises(ConfigError, match=r"^transform: downsample factor must be 2 or 4$"):
        ds.parse_transforms("downsample(3)")
    with pytest.raises(ConfigError, match=r"^transform: transform invert: expected no argument, "
                                          r"got 'invert\( 2\)'$"):
        ds.parse_transforms("identity+invert( 2)")


def transforms():
    """Any valid Transform."""
    finite = dict(allow_nan=False, allow_infinity=False)
    return st.one_of(
        st.sampled_from([ds.Transform("identity"), ds.Transform("invert")]),
        st.floats(min_value=0.0, **finite).map(lambda v: ds.Transform("gaussian_noise", v)),
        st.sampled_from([2, 4]).map(lambda v: ds.Transform("downsample", v)),
        st.floats(0.0, 1.0).map(lambda v: ds.Transform("background_clutter", v)))


def render(tf: ds.Transform, arg=None) -> str:
    """tf as chain text; arg, when given, replaces its argument's text."""
    if tf.kind not in ds.TRANSFORM_ARGS:
        return tf.kind
    if arg is None:
        arg = repr(tf.arg)
    return f"{tf.kind}({arg})"


@given(st.lists(transforms(), min_size=1, max_size=5))
def test_transform_chain_round_trips_through_text(chain):
    assert ds.parse_transforms("+".join(map(render, chain))) == tuple(chain)


NOT_A_NUMBER = st.one_of(st.sampled_from(["", "nan", "inf", "-inf", "1e999", "0.1.2"]),
                         st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1))


@given(st.lists(transforms(), min_size=1, max_size=5).filter(
           lambda chain: any(tf.kind in ds.TRANSFORM_ARGS for tf in chain)),
       NOT_A_NUMBER, st.data())
def test_transform_argument_that_is_not_a_finite_number_is_refused(chain, bad, data):
    i = data.draw(st.sampled_from([i for i, tf in enumerate(chain)
                                   if tf.kind in ds.TRANSFORM_ARGS]))
    parts = [render(tf, bad if j == i else None) for j, tf in enumerate(chain)]
    with pytest.raises(ConfigError, match=rf"^transform: (transform {chain[i].kind}: "
                                          rf"expected|{chain[i].kind} \w+ must be)"):
        ds.parse_transforms("+".join(parts))


# ---------------------------------------------------------------------------
# resize


def test_resize_same_resolution_identical():
    d = make_domain(1)
    assert ds.resize(d.images, (12, 12)) is d.images


def test_resize_checkerboard_upscale():
    board = np.array([[0.0, 1.0], [1.0, 0.0]])
    img = ds.resize(board[None, None], (4, 4))[0, 0]
    expected = np.kron(board, np.ones((2, 2)))
    assert np.array_equal(img, expected)


def test_resize_roundtrip_bounded_aliasing():
    d = make_domain(5, resolution=(16, 16))
    up = ds.resize(d.images, (28, 28))
    back = ds.resize(up, (16, 16))
    mae = float(np.abs(d.images - back).mean())
    # measured on the frozen generator: 0.1553; pinned with headroom
    assert 0.0 < mae <= 0.20


def test_resize_keeps_the_images_apart():
    d = make_domain(8)
    r = ds.resize(d.images, (7, 9))
    assert r.shape == (len(d), 1, 7, 9)
    for image, small in zip(d.images, r):
        assert same_bits(ds.resize(image[None], (7, 9))[0], small)


# ---------------------------------------------------------------------------
# splits


def test_stratified_split_covers_classes():
    d = make_domain(2, samples_per_class=30)
    sp = ds.stratified_split(d, 0.1, 0.1, 17)
    for part in (sp.train, sp.val, sp.test):
        assert part.dtype == np.intp and np.all(part[1:] > part[:-1])  # sorted, distinct
        assert set(d.labels[part].tolist()) == set(range(4))
    assert np.array_equal(np.sort(np.concatenate([sp.train, sp.val, sp.test])),
                          np.arange(len(d)))


def test_stratified_split_deterministic():
    d = make_domain(2)
    a = ds.stratified_split(d, 0.1, 0.1, 3)
    b = ds.stratified_split(d, 0.1, 0.1, 3)
    for part in ("train", "val", "test"):
        assert same_bits(getattr(a, part), getattr(b, part))


# ---------------------------------------------------------------------------
# DomainDataset validation


def test_subset_is_an_index_operation():
    d = ds.synth_domain(ds.BaseStream(5, 3, (12, 12), 4), (), 20, "d")
    s = ds.subset(d, (5, 1, 5))
    assert s.rows.tolist() == d.rows[[5, 1, 5]].tolist()
    assert s.labels.tolist() == d.labels[[5, 1, 5]].tolist()
    assert (s.size, s.make) == (d.size, d.make)
    assert len(ds.subset(d, ())) == 0


def valid_arrays(n=3, classes=4):
    return np.zeros((n, 1, 2, 2)), np.arange(n, dtype=np.int64) % classes


@given(st.integers(0, 6).filter(lambda k: k != 4))
def test_dataset_rejects_images_of_wrong_ndim(ndim):
    _, labels = valid_arrays()
    images = np.zeros((3,) + (1,) * (ndim - 1)) if ndim else np.float64(0.0)
    with pytest.raises(ValueError, match="domain dom-x: images"):
        ds.DomainDataset(images, labels, "dom-x", 4)


@given(st.integers(0, 3).filter(lambda k: k != 1))
def test_dataset_rejects_labels_of_wrong_ndim(ndim):
    images, _ = valid_arrays()
    labels = np.zeros((3,) * ndim, dtype=np.int64)
    with pytest.raises(ValueError, match="domain dom-x: labels"):
        ds.DomainDataset(images, labels, "dom-x", 4)


def test_dataset_rejects_wrong_dtypes():
    images, labels = valid_arrays()
    with pytest.raises(ValueError, match="domain d: images .* float32"):
        ds.DomainDataset(images.astype(np.float32), labels, "d", 4)
    with pytest.raises(ValueError, match="domain d: labels .* int32"):
        ds.DomainDataset(images, labels.astype(np.int32), "d", 4)


@given(st.integers(0, 8), st.integers(0, 8))
def test_dataset_rejects_length_mismatch(n_images, n_labels):
    images = np.zeros((n_images, 1, 2, 2))
    labels = np.zeros(n_labels, dtype=np.int64)
    if n_images == n_labels:
        assert len(ds.DomainDataset(images, labels, "d", 1)) == n_images
    else:
        with pytest.raises(ValueError, match=f"domain d: {n_images} images but"):
            ds.DomainDataset(images, labels, "d", 1)


@given(st.integers(1, 12), st.lists(st.integers(-3, 14), min_size=1, max_size=10))
def test_dataset_rejects_out_of_range_label(class_count, labels):
    labels = np.asarray(labels, dtype=np.int64)
    images = np.zeros((len(labels), 1, 2, 2))
    bad = [v for v in labels.tolist() if not 0 <= v < class_count]
    if bad:
        with pytest.raises(ValueError,
                           match=f"domain d: label {bad[0]} outside \\[0, {class_count}\\)"):
            ds.DomainDataset(images, labels, "d", class_count)
    else:
        assert len(ds.DomainDataset(images, labels, "d", class_count)) == len(labels)
