"""Test-side helpers: a bit comparison, a parameter vector from named
arrays, one library training step of one model, the out-of-place engine
reference, the copied-shard reference for client views, and the IDX fixture
writers."""
import dataclasses
import struct

import numpy as np

from fusim import datasets as ds
from fusim import fedsim as fs
from fusim import nncore as nn


def same_bits(a, b) -> bool:
    """Same dtype, same shape and the same bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def vector(spec, named) -> np.ndarray:
    """spec's (P,) parameter vector holding the named arrays, zero elsewhere."""
    params = np.zeros(spec.param_count)
    views = spec.views(params)
    for name, value in named.items():
        views[name][...] = value
    return params


def library_step(spec, params, inputs, labels, learning_rate=0.0):
    """One library training step of one model's (P,) vector, run as a stack
    of one: batch_loss_and_gradient, then sgd_step.  Returns the stepped
    vector, the loss and the gradient the step formed, as a fresh vector, a
    float and a fresh vector; params is unchanged."""
    model, grad = params[None].copy(), np.empty_like(params)
    loss, factors = nn.batch_loss_and_gradient(spec, model, inputs, labels)
    factors.form(0, spec.views(grad))
    nn.sgd_step(model, factors, learning_rate, np.empty_like(params))
    return model[0], float(loss[0]), grad


def reference_forward(spec, params, h, start=0, stop=None):
    """The engine's forward arithmetic over layers start..stop-1, with every
    element-wise layer out of place: h @ w + b, np.where relu, e / e.sum
    softmax, and np.tensordot convolutions."""
    caches, p = [], spec.views(params)
    ordinal = sum(layer.kind in nn.PARAM_KINDS for layer in spec.layers[:start])
    for layer in spec.layers[start:stop]:
        if layer.kind == "dense":
            caches.append((h, ordinal))
            h = h @ p[f"layer{ordinal}.weight"] + p[f"layer{ordinal}.bias"]
            ordinal += 1
        elif layer.kind == "conv2d":
            patches = nn._im2col(h, layer.kernel_size)
            caches.append((patches, ordinal))
            out = np.tensordot(patches, p[f"layer{ordinal}.weight"],
                               axes=([3, 4, 5], [1, 2, 3]))
            h = (np.ascontiguousarray(out.transpose(0, 3, 1, 2))
                 + p[f"layer{ordinal}.bias"][None, :, None, None])
            ordinal += 1
        elif layer.kind == "relu":
            caches.append(h > 0)
            h = np.where(h > 0, h, 0.0)
        elif layer.kind == "maxpool2d":
            b, c, hh, ww = h.shape
            win = h[:, :, :hh // 2 * 2, :ww // 2 * 2].reshape(b, c, hh // 2, 2, ww // 2, 2)
            win = win.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, hh // 2, ww // 2, 4)
            idx = win.argmax(axis=-1)
            caches.append((idx, h.shape))
            h = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
        elif layer.kind == "flatten":
            caches.append(h.shape)
            h = h.reshape(len(h), -1)
        else:
            e = np.exp(h - h.max(axis=1, keepdims=True))
            h = e / e.sum(axis=1, keepdims=True)
            caches.append(h)
    return h, caches


def reference_backward(spec, params, caches, g, start=0):
    """The gradient at the input of layer start and the parameter gradients
    as a (P,) vector (zero for the layers before start), out of place:
    probs * (g - dot) softmax, np.where relu."""
    p, grads = spec.views(params), np.zeros(spec.param_count)
    views = spec.views(grads)
    for layer, cache in zip(reversed(spec.layers[start:]), reversed(caches)):
        if layer.kind == "softmax":
            g = cache * (g - (g * cache).sum(axis=1, keepdims=True))
        elif layer.kind == "relu":
            g = np.where(cache, g, 0.0)
        elif layer.kind == "flatten":
            g = g.reshape(cache)
        elif layer.kind == "maxpool2d":
            idx, in_shape = cache
            b, c, h2, w2 = idx.shape
            dwin = np.zeros((b, c, h2, w2, 4))
            np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
            g = np.zeros(in_shape)
            g[:, :, :h2 * 2, :w2 * 2] = dwin.reshape(b, c, h2, w2, 2, 2).transpose(
                0, 1, 2, 4, 3, 5).reshape(b, c, h2 * 2, w2 * 2)
        elif layer.kind == "dense":
            x_in, o = cache
            views[f"layer{o}.weight"][...] = x_in.T @ g
            views[f"layer{o}.bias"][...] = np.add.reduce(g, axis=0)
            g = g @ p[f"layer{o}.weight"].T
        else:
            patches, o = cache
            w = p[f"layer{o}.weight"]
            gs = g.transpose(0, 2, 3, 1)
            views[f"layer{o}.weight"][...] = np.tensordot(gs, patches,
                                                          axes=([0, 1, 2], [0, 1, 2]))
            views[f"layer{o}.bias"][...] = gs.sum(axis=(0, 1, 2))
            k = w.shape[-1]
            gpad = np.pad(g, ((0, 0), (0, 0), (k - 1, k - 1), (k - 1, k - 1)))
            dx = np.tensordot(nn._im2col(gpad, k), w[:, :, ::-1, ::-1],
                              axes=([3, 4, 5], [0, 2, 3]))
            g = np.ascontiguousarray(dx.transpose(0, 3, 1, 2))
    return g, grads


def reference_loss_gradient_probs(spec, params, x, y):
    """Mean cross-entropy, its parameter gradient vector and the
    probabilities, from reference_forward and reference_backward."""
    probs, caches = reference_forward(spec, params, x)
    n, rows = len(y), np.arange(len(y))
    loss = float(-np.add.reduce(np.log(probs[rows, y])) / n)
    g = np.zeros(probs.shape)
    g[rows, y] = -1.0 / (n * probs[rows, y])
    _, grads = reference_backward(spec, params, caches, g)
    return loss, grads, probs


def copied_shard(client) -> ds.DomainDataset:
    """The client's examples copied into a dataset of their own, with its labels."""
    return dataclasses.replace(ds.subset(client.domain, client.index),
                               labels=client.labels.copy())


def on_copied_shard(client) -> fs.ClientState:
    """The client over a copy of its examples, indexed 0..n-1: the reference a
    client viewing its train domain must match bit for bit."""
    shard = copied_shard(client)
    return fs.ClientState(client.client_id, shard, np.arange(len(shard)))


def write_idx(images, labels, images_path, labels_path) -> None:
    """Write uint8 images (N, H, W) and labels (N,) as a big-endian IDX pair."""
    n, h, w = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", ds.IDX_IMAGES_MAGIC, n, h, w))
        fh.write(np.asarray(images, dtype=np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", ds.IDX_LABELS_MAGIC, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


def save_idx(dataset, images_path, labels_path) -> None:
    """Serialize a single-channel dataset back to an IDX pair."""
    assert dataset.images.shape[1] == 1
    pixels = np.round(dataset.images[:, 0] * 255.0).astype(np.uint8)
    write_idx(pixels, dataset.labels, images_path, labels_path)
