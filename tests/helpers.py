"""Test-side helpers: a bit comparison, a parameter vector from named
arrays, one library training step of one model, the out-of-place engine
reference, the per-unit loop for attribution scores, the copied-shard
reference for client views, the per-cell reference for evaluation reports,
the record-object reference for the fedcccu server, the per-sample integers
loop of the synthetic base stream, a synthetic domain over a stream of its
own, the IDX fixture writers, and the configparser reference for the config
reader."""
import configparser
import csv
import dataclasses
import io
import itertools
import json
import struct

import re

import numpy as np

from fusim import config as cf
from fusim import datasets as ds
from fusim import evalkit as ek
from fusim import fedsim as fs
from fusim import nncore as nn
from fusim.unlearn_routes import editable_units


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


def per_unit_sensitivity_scores(spec, params, inputs, target) -> np.ndarray:
    """fedcccu.sensitivity_scores as a loop over units: one
    batch_zeroed_unit_probs call per unit, its mean on a 1-D row."""
    plain = nn.predict_probs(spec, params, inputs)[:, target]
    return np.array([(plain - nn.batch_zeroed_unit_probs(spec, params, inputs, target,
                                                         [unit])[0]).mean()
                     for unit in editable_units(spec)])


def riemann_sensitivity_scores(spec, params, inputs, target, m) -> np.ndarray:
    """The m-step Riemann scores that fedcccu.sensitivity_scores gave before
    it took their limit: per unit, the mean over the inputs of
    fedcccu.attribute_unit(..., m), one batch_unit_gradients call per unit
    over every input's m rows, each step's gradient weighted by the unit's
    site map."""
    n = len(inputs)
    scales = np.tile(np.arange(1, m + 1, dtype=np.float64) / m, n)
    scores = []
    for ordinal, units in itertools.groupby(editable_units(spec), key=lambda u: u.layer):
        site = nn.batch_site_outputs(spec, params, inputs, ordinal)
        steps_site = np.repeat(site, m, axis=0)
        for unit in units:
            grads = nn.batch_unit_gradients(spec, params, steps_site, target, unit, scales)
            steps = grads.reshape(n, m, -1).sum(axis=1)
            a = site[:, unit.unit].reshape(n, -1)
            scores.append((a / m * steps).sum(axis=1).mean())
    return np.array(scores)


def copied_shard(client) -> ds.DomainDataset:
    """The client's examples copied into a dataset of their own, with its labels."""
    return dataclasses.replace(ds.subset(client.domain, client.index),
                               labels=client.labels.copy())


def on_copied_shard(client) -> fs.ClientState:
    """The client over a copy of its examples, indexed 0..n-1: the reference a
    client viewing its train domain must match bit for bit."""
    shard = copied_shard(client)
    return fs.ClientState(client.client_id, shard, np.arange(len(shard)))


def count_dicts(report) -> dict:
    """A report as per-client dicts, the form evalkit kept before its arrays:
    client id -> (class_correct, class_total), absent classes left out."""
    return {cid: ({c: ok[c] for c in range(len(n)) if n[c]},
                  {c: n[c] for c in range(len(n)) if n[c]})
            for cid, (ok, n) in enumerate(zip(report.correct.tolist(), report.total.tolist()))}


def reference_forgetting_metrics(before, after, unlearn) -> ek.ForgettingMetrics:
    """forgetting_metrics one cell at a time on count_dicts, in Python floats."""
    b_all, a_all = count_dicts(before), count_dicts(after)
    if set(b_all) != set(a_all):
        raise ek.EvalError("reports cover different clients")
    forget, req = unlearn.forget_class, set(unlearn.requesting_clients)
    drops_forget_req, drops_forget_other, drops_retained = [], [], []
    for cid in sorted(b_all):
        (bc, bt), (ac, at) = b_all[cid], a_all[cid]
        if bt != at:
            raise ek.EvalError(f"client {cid}: class coverage differs between reports")
        per_client_retained = []
        for c in sorted(bt):
            drop = (bc[c] / bt[c] - ac[c] / at[c]) * 100.0
            if c == forget:
                (drops_forget_req if cid in req else drops_forget_other).append(drop)
            else:
                per_client_retained.append(drop)
        if per_client_retained:
            drops_retained.append(float(np.mean(per_client_retained)))
    if not drops_forget_req:
        raise ek.EvalError("no requesting client carries the forget class")
    return ek.ForgettingMetrics(
        forget_efficacy=float(np.mean(drops_forget_req)),
        collateral_retained=float(np.mean(drops_retained)) if drops_retained else 0.0,
        collateral_nonrequesting_forget=(
            float(np.mean(drops_forget_other)) if drops_forget_other else 0.0))


def reference_report_to_json(report) -> str:
    """report_to_json from count_dicts: every ratio a Python int division."""
    clients = count_dicts(report)
    overall = {cid: sum(bc.values()) / sum(bt.values()) for cid, (bc, bt) in clients.items()}
    correct = sum(sum(bc.values()) for bc, _ in clients.values())
    total = sum(sum(bt.values()) for _, bt in clients.values())
    doc = {
        "global": {"correct": correct, "total": total, "accuracy": correct / total,
                   "macro_accuracy": float(np.mean([overall[cid] for cid in sorted(clients)]))},
        "clients": {str(cid): {"overall": overall[cid], "classes": {
            str(c): {"correct": bc[c], "total": bt[c], "accuracy": bc[c] / bt[c]}
            for c in sorted(bt)}} for cid, (bc, bt) in sorted(clients.items())},
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def reference_combined_csv(reports) -> str:
    """combined_csv one (client, class) row at a time on count_dicts."""
    names = list(reports)
    tables = {name: count_dicts(r) for name, r in reports.items()}
    rows = [(cid, c) for cid, (_, bt) in sorted(tables[names[0]].items()) for c in sorted(bt)]
    for name in names[1:]:
        if [(cid, c) for cid, (_, bt) in sorted(tables[name].items())
                for c in sorted(bt)] != rows:
            raise ek.EvalError(f"report {name!r} covers different clients/classes")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["client", "class"] + names)
    for cid, c in rows:
        writer.writerow([cid, c] + [
            f"{tables[n][cid][0][c] / tables[n][cid][1][c] * 100.0:.2f}" for n in names])
    return buf.getvalue()


@dataclasses.dataclass(frozen=True)
class Record:
    """One uploaded score, as the fedcccu server kept it before its arrays."""
    unit: nn.UnitId
    class_id: int
    score: float


@dataclasses.dataclass(frozen=True)
class Entry:
    unit: nn.UnitId
    s_forget: float
    s_max_other: float
    ratio: float


def reference_top_n(records: list[Record], top_n: int) -> dict[int, tuple[Record, ...]]:
    """The top_n records per class, descending, ties by (layer, unit)."""
    by_class: dict[int, list[Record]] = {}
    for rec in records:
        by_class.setdefault(rec.class_id, []).append(rec)
    return {cid: tuple(sorted(recs, key=lambda r: (-r.score, r.unit.layer, r.unit.unit))[:top_n])
            for cid, recs in by_class.items()}


def reference_dominance(uploads: dict, requester: int, forget_class: int,
                        excluded: set[int]) -> list[Entry]:
    """One requester's entries: the best score a client outside excluded
    uploaded for each of its positive-score units, floored at 0.0 by max."""
    other: dict = {}
    for cid, per_class in uploads.items():
        if cid in excluded:
            continue
        for rec in per_class.get(forget_class, ()):
            if rec.unit not in other or rec.score > other[rec.unit]:
                other[rec.unit] = rec.score
    entries = []
    for rec in uploads[requester].get(forget_class, ()):
        if rec.score <= 0.0:
            continue
        s_max_other = max(0.0, other.get(rec.unit, 0.0))
        entries.append(Entry(rec.unit, rec.score, s_max_other, s_max_other / rec.score))
    return entries


def reference_server(uploads: dict, unlearn) -> tuple[list[Entry], list[nn.UnitId], bool]:
    """The merge over requesters (the lowest ratio per unit, the first
    requester's on a tie), the entries in selection order, the selected units
    and whether fewer entries existed than select_n."""
    requesters = set(unlearn.requesting_clients)
    merged: dict = {}
    for rid in sorted(requesters):
        for entry in reference_dominance(uploads, rid, unlearn.forget_class, requesters):
            if entry.unit not in merged or entry.ratio < merged[entry.unit].ratio:
                merged[entry.unit] = entry
    entries = sorted(merged.values(),
                     key=lambda e: (e.ratio, -e.s_forget, e.unit.layer, e.unit.unit))
    return (entries, [e.unit for e in entries[:unlearn.select_n]],
            unlearn.select_n > len(entries))


def reference_audit_json(unlearn, seed, uploads, entries, selected, capped) -> str:
    """AuditRecord.to_json from the record objects."""
    u = unlearn
    doc = {
        "forget_class": u.forget_class,
        "requesting_clients": list(u.requesting_clients),
        "config": {"top_n": u.top_n, "select_n": u.select_n, "probe_cap": u.probe_cap,
                   "seed": seed},
        "reports": [{"client": cid, "classes": {
            str(c): [{"layer": r.unit.layer, "unit": r.unit.unit, "score": r.score}
                     for r in recs] for c, recs in sorted(per_class.items())}}
            for cid, per_class in uploads.items()],
        "entries": [{"layer": e.unit.layer, "unit": e.unit.unit, "s_forget": e.s_forget,
                     "s_max_other": e.s_max_other, "r": e.ratio} for e in entries],
        "selected": [unit.as_dict() for unit in selected],
        "selection_capped": capped,
        "selected_shared": sum(e.ratio >= 1.0 for e in entries[:u.select_n]),
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def reference_base_stream(rng, resolution, count):
    """The base stream's draw loop with each shift drawn by rng.integers:
    (roll_index, noise) of samples 0..count-1, noise scaled as the stream
    scales it.  rng is left where the loop leaves it."""
    integers, standard_normal = rng.integers, rng.standard_normal
    shifts = np.empty((count, 2), dtype=np.int64)
    noise = np.empty((count, *resolution))
    for i in range(count):
        shifts[i] = integers(-1, 2, size=2)
        standard_normal(out=noise[i])
    noise *= 0.08
    return 3 * shifts[:, 0] + shifts[:, 1] + 4, noise


def synthetic_domain(base_pattern_seed, seed, resolution, class_count, samples_per_class,
                     transforms="identity", domain_id="synthetic") -> ds.DomainDataset:
    """A synthetic domain over a base stream drawn for it alone, as
    build_raw_domains makes the one synthetic domain at its resolution;
    transforms is chain text."""
    stream = ds.BaseStream(base_pattern_seed, seed, resolution, class_count,
                           count=class_count * samples_per_class)
    return ds.synth_domain(stream, ds.parse_transforms(transforms), samples_per_class,
                           domain_id)


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


def _line_map(text: str) -> dict[tuple[str, str], int]:
    """Map (section, key) to the 1-based line where the key is set."""
    lines = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        m = re.match(r"\[([^\]]+)\]", stripped)
        if m:
            section = m.group(1).strip()
            lines[(section, None)] = lineno
            continue
        m = re.match(r"([^=:]+)[=:]", stripped)
        if m and section is not None:
            key = m.group(1).strip().lower()
            lines.setdefault((section, key), lineno)
    return lines


def reference_read(text: str) -> tuple:
    """config._read as configparser and a second scan for line numbers gave
    it: the reference the one-pass reader must equal on every config both
    accept."""
    # A header never holds a newline, so [DEFAULT] is an ordinary, unknown section.
    parser = configparser.ConfigParser(interpolation=None, default_section="\n",
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise cf.ConfigError(f"cannot parse config: {exc.message}", line) from exc
    lines = _line_map(text)
    sections = []
    for section in parser.sections():
        table = "domain" if section.startswith("domain.") else section
        if section == "domain.":
            raise cf.ConfigError("domain section needs a name: [domain.<name>]",
                                 lines.get((section, None)))
        if table not in {row[0] for row in cf.KEYS}:
            raise cf.ConfigError(f"unknown section [{section}]", lines.get((section, None)))
        keys = []
        for key, raw in parser.items(section):
            line = lines.get((section, key))
            if (table, key) not in cf._ROWS:
                raise cf.ConfigError(f"unknown key {section}.{key}", line)
            keys.append((key, cf._parse(cf._ROWS[table, key], raw.strip(), f"{section}.{key}",
                                        line), line))
        sections.append((section, lines.get((section, None)), tuple(keys)))
    return tuple(sections)
