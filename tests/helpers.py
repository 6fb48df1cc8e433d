"""Test-side helpers: a parameter-set comparison, the copied-shard reference
for client views, and the IDX fixture writers."""
import dataclasses
import struct

import numpy as np

from fusim import datasets as ds
from fusim import fedsim as fs


def params_equal(a, b) -> bool:
    """Same names in the same order and bit-identical arrays."""
    return list(a) == list(b) and all(np.array_equal(a[k], b[k]) for k in a)


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
