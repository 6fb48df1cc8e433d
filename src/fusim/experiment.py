"""Experiment stages: partition, train, unlearn, evaluate, compare.

Stages read their prerequisites from the output directory when present and
build them otherwise, so any stage can resume from on-disk artifacts.  The
model spec comes from the config alone.  The data (domains, splits, plan,
pools) comes from the config too, never from the output directory: a
Task's build_task call makes it when a stage first has to run, so a finished
directory resumes without building it.  Of the partition stage's three
files, partition.json is its record (the config values, the IDX files'
sizes and hashes, each client's example count), the one a resume reads;
plan.json (each client's indices) and splits.json (each domain's split) are
written for readers, and nothing reads them back.  A compare trains once in
its output directory and runs only the unlearn and evaluate stages of each
route in a subdirectory.  All artifacts are pure functions of the config
text: no timestamps, sorted keys, fixed float formatting.  Each stage's
record artifact holds the canonical config values the stage depends on, and
a resume with any other value is refused.  Each stage returns a Stage that
says whether it ran, and a stage after one that ran runs too, so no artifact
outlives the model it describes.  A damaged file that a stage reads (an IDX
file, a record, a checkpoint, a report) is refused with a ConfigError naming
it, before the stage writes any file.  Files are written to a stage-local
temp directory and renamed into place on stage completion.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from . import evalkit, fedcccu, fedsim, nncore, unlearn_routes
from .config import ConfigError, ExperimentConfig, canonical
from .datasets import (BLOCK_VALUES, BaseStream, DomainDataset, DomainSplits, idx_class_count,
                       load_idx, resize, stratified_split, synth_domain)
from .nncore import ModelSpec
from .partition import PartitionPlan, build_plan, label_intersection


class _StageWriter:
    """Writes artifacts into a stage-local temp directory, then renames them
    into place on commit; the temp directory (and out_dir) is made on demand
    and removed when the writer's with block ends, committed or raised."""

    def __init__(self, out_dir: str, stage: str):
        self.out_dir = out_dir
        self.tmp_dir = os.path.join(out_dir, f".tmp-{stage}")
        self.names: list[str] = []

    def _tmp_path(self, name: str) -> str:
        os.makedirs(self.tmp_dir, exist_ok=True)
        self.names.append(name)
        return os.path.join(self.tmp_dir, name)

    def add_text(self, name: str, text: str) -> None:
        with open(self._tmp_path(name), "wb") as fh:
            fh.write(text.encode("utf-8"))

    def add_checkpoint(self, name: str, spec: ModelSpec, params: np.ndarray) -> None:
        nncore.save_checkpoint(self._tmp_path(name), spec, params)

    def commit(self) -> None:
        for name in self.names:
            os.replace(os.path.join(self.tmp_dir, name), os.path.join(self.out_dir, name))

    def __enter__(self) -> "_StageWriter":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.tmp_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Task assembly


@dataclass
class TaskData:
    """The data a running stage trains and evaluates on, made by build_task:
    train and val pool every domain's train and validation splits (train is
    the plan's index space), and client i is tested on
    test_sets[client_sets[i]], its group's view of the test pool."""
    plan: PartitionPlan
    splits: dict[str, DomainSplits]
    train: DomainDataset
    val: DomainDataset
    test_sets: tuple[DomainDataset, ...]
    client_sets: np.ndarray


class Task:
    """What the stages share: the config, the model spec over the shared
    label space, set at once, and the data, built on first use.  A finished
    stage needs only the spec, so a resume of a finished directory builds no
    data.  files holds each IDX file's bytes by path (_read_idx_files reads
    them when none are given) and is let go once the data is built.  Data
    that tests no requesting client on the forget class is refused."""

    def __init__(self, cfg: ExperimentConfig, files: dict[str, bytes] | None = None):
        self.cfg = cfg
        self.files = _read_idx_files(cfg) if files is None else files
        self.spec = build_spec(cfg, self.files)

    @functools.cached_property
    def data(self) -> TaskData:
        data = build_task(self.cfg, self.spec.class_count, self.files)
        u = self.cfg.unlearn
        if not any((data.test_sets[data.client_sets[rid]].labels == u.forget_class).any()
                   for rid in u.requesting_clients):
            raise ConfigError("unlearn.requesting_clients: none is tested on the forget class")
        self.files = {}
        return data


def _read_idx_files(cfg: ExperimentConfig) -> dict[str, bytes]:
    """The bytes of each IDX file the config names, by path, each read once."""
    files = {}
    for path in (p for dc in cfg.domains if dc.kind == "idx"
                 for p in (dc.images_path, dc.labels_path)):
        if path not in files:
            with open(path, "rb") as fh:
                files[path] = fh.read()
    return files


def build_spec(cfg: ExperimentConfig, files: dict[str, bytes]) -> ModelSpec:
    """The configured model over the shared label space, from the config alone.

    A synthetic domain has [data] class_count classes and an IDX domain max
    label + 1, read from its labels file's bytes in files only; the shared
    count is their minimum, the label range label_intersection keeps.  It
    must be at least 2, as over one class the softmax is always 1 and no
    route can forget anything, and must hold the forget class.
    """
    class_count = min(cfg.class_count if dc.kind == "synthetic"
                      else idx_class_count(dc.labels_path, files) for dc in cfg.domains)
    if class_count < 2:
        raise ConfigError(f"domains: the shared class count is {class_count}; forgetting "
                          f"a class needs at least two")
    if cfg.unlearn.forget_class >= class_count:
        raise ConfigError(f"unlearn.forget_class: {cfg.unlearn.forget_class} >= "
                          f"shared class count {class_count}")
    shape = (1, *cfg.partition.working_resolution)
    if cfg.model_spec == "small_mlp":
        return nncore.small_mlp(shape, class_count, hidden=cfg.hidden)
    return nncore.small_cnn(shape, class_count)


def build_task(cfg: ExperimentConfig, class_count: int, files: dict[str, bytes]) -> TaskData:
    """The one data build, from the config alone, streamed into its pools.

    First every domain is described by its labels alone (synth_domain,
    load_idx, over the IDX files' bytes in files), cut to build_spec's
    shared labels [0, class_count) and split by its labels.  That gives each
    source sample its destination before any image exists: a row of the
    train, validation or test pool, or none.  The pools hold one block per
    domain in config order and are three parts of one preallocated array.
    Then the images are made in blocks of at most BLOCK_VALUES source values
    and written straight into their rows, resized to the working resolution:
    the synthetic domains of one resolution advance together through one
    pass of their shared base stream, each block the pass draws handed to
    every one of them, and an IDX domain rescales its uint8 pixels a block
    at a time.  So the build holds the pools and a few blocks; every pool
    row has the bits the whole-domain build gave it.  The plan is built over
    the train pool.  A test group's set is the test pool's rows of the
    group: its domain's block under real_noniid, else the whole pool; the
    clients of group g are tested on test set g.
    """
    ev, part = cfg.evaluate, cfg.partition
    streams = {res: BaseStream(cfg.base_pattern_seed, cfg.seed, res, cfg.class_count)
               for res in dict.fromkeys(dc.resolution for dc in cfg.domains
                                        if dc.kind == "synthetic")}
    sources = label_intersection([
        load_idx(dc.images_path, dc.labels_path, files, dc.name) if dc.kind == "idx" else
        synth_domain(streams[dc.resolution], dc.transforms,
                     dc.samples_per_class or cfg.samples_per_class, dc.name)
        for dc in cfg.domains], class_count)
    # the domains made in one pass: those over one stream, or one IDX domain
    passes = [(None, [i]) for i, dc in enumerate(cfg.domains) if dc.kind == "idx"]
    passes += [(stream, [i for i, dc in enumerate(cfg.domains)
                         if dc.kind == "synthetic" and dc.resolution == res])
               for res, stream in streams.items()]
    splits = {}
    for d in sources:
        if not len(d):
            raise ConfigError(f"domain {d.domain_id!r} holds no example of the shared "
                              f"labels 0..{class_count - 1}")
        sp = splits[d.domain_id] = stratified_split(d, ev.val_fraction, ev.test_fraction,
                                                    (cfg.seed, 831))
        for key, rows, what in (("val_fraction", sp.val, "validation"),
                                ("test_fraction", sp.test, "test")):
            if not rows.size:
                raise ConfigError(f"evaluate.{key}: domain {d.domain_id!r} gets no {what} "
                                  f"examples; raise it or the samples per class")
    # dest[i][s]: the row of the joined pools that source sample s of domain i goes to, or -1
    dest = [np.full(d.size, -1, dtype=np.intp) for d in sources]
    blocks, spans, end = {}, {}, 0
    for which in ("train", "val", "test"):
        parts = [getattr(sp, which) for sp in splits.values()]
        stops = np.cumsum([len(p) for p in parts]).tolist()
        blocks[which] = tuple(zip(splits, [0] + stops[:-1], stops))
        for d, to, p, (_, start, stop) in zip(sources, dest, parts, blocks[which]):
            to[d.rows[p]] = np.arange(end + start, end + stop)
        spans[which], end = (end, end + stops[-1]), end + stops[-1]
    # every domain is single-channel
    images = np.empty((end, 1, *part.working_resolution))
    labels = np.empty(end, dtype=np.int64)
    for d, to in zip(sources, dest):
        labels[to[d.rows]] = d.labels
    for stream, members in passes:
        size = max(sources[i].size for i in members)
        step = max(1, BLOCK_VALUES // math.prod(sources[members[0]].resolution))
        for start in range(0, size, step):
            base = () if stream is None else stream.draw(min(step, size - start))
            for i in members:
                to = dest[i][start:start + step]
                if len(to):
                    block = resize(sources[i].make(start, start + len(to), *base),
                                   part.working_resolution)
                    keep = to >= 0   # all but the samples of labels the intersection cut
                    images[to[keep]] = block if keep.all() else block[keep]
                    del block   # before the next domain makes its block
    pools = {which: DomainDataset(images[a:b], labels[a:b], which, class_count)
             for which, (a, b) in spans.items()}
    train, test = pools["train"], pools["test"]
    plan = build_plan(part, train.labels, blocks["train"], cfg.seed)
    groups = blocks["test"] if part.strategy == "real_noniid" else (("test", 0, len(test)),)
    test_sets = tuple(DomainDataset(test.images[a:b], test.labels[a:b], name, class_count)
                      for name, a, b in groups)
    return TaskData(plan, splits, train, pools["val"], test_sets,
                    np.repeat(np.arange(len(groups)), part.groups))


def _splits_to_json(splits: dict[str, DomainSplits]) -> str:
    doc = {did: {"train": sp.train.tolist(), "val": sp.val.tolist(), "test": sp.test.tolist()}
           for did, sp in sorted(splits.items())}
    return json.dumps(doc, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# Stages

# The config sections each stage's artifacts depend on; the stage's record
# holds their canonical values.
_PARTITION_SECTIONS = ("experiment", "data", "domain", "partition", "evaluate")
_TRAIN_SECTIONS = _PARTITION_SECTIONS + ("model", "training")
_UNLEARN_SECTIONS = _TRAIN_SECTIONS + ("unlearn",)

# What a value the program reads back from a record must be: a test and its wording.
_COUNT = (lambda v: type(v) is int and v >= 0, "an int >= 0")
_INT_OR_NULL = (lambda v: v is None or type(v) is int, "an int or null")
_NUMBER = (lambda v: type(v) in (int, float), "a number")
_NUMBER_OR_NULL = (lambda v: v is None or type(v) in (int, float), "a number or null")
_METRICS = [f.name for f in dataclasses.fields(evalkit.ForgettingMetrics)]


@dataclass(frozen=True)
class Stage:
    """A stage's value (the Task, a model's parameters, or the before and
    after reports), its record artifact's document, whether it ran in this
    call, and the Stage it builds on (None for the partition stage)."""
    value: object
    record: dict
    ran: bool
    prior: Stage | None

    @property
    def task(self) -> Task:
        return self.value if self.prior is None else self.prior.task


def _stage(cfg: ExperimentConfig, out_dir: str, name: str, artifacts: tuple[str, ...],
           sections: tuple[str, ...], checks: dict, prior, resume, run,
           implied=lambda record: ()) -> Stage:
    """Resume or run one stage in out_dir; returns its Stage.

    artifacts names the files the stage always writes, and the first is its
    record: a JSON document whose "config" holds the canonical values of
    sections; implied(record) names the files the record says it wrote
    besides.  When every artifact exists, the record is read, must hold
    cfg's values and pass checks (a test per key the program reads back);
    the check comes before prior() (the Stage this one builds on), so a
    finished directory is checked against its fullest record first.  If
    every implied file exists too and the prior stage did not run, the
    value is resume(prior, record).  Otherwise run(prior, writer) writes
    the other artifacts and returns the value and the record, which is
    written with the values; a stage after one that ran runs too, since
    resumed it could describe a model that is no longer on disk.
    """
    def present(names) -> bool:
        return all(os.path.exists(os.path.join(out_dir, a)) for a in names)
    wanted = canonical(cfg, sections)
    record = None
    if present(artifacts):
        record = _read_record(os.path.join(out_dir, artifacts[0]), wanted, checks)
        if not present(implied(record)):
            record = None
    earlier = prior()
    if record is not None and (earlier is None or not earlier.ran):
        return Stage(resume(earlier, record), record, False, earlier)
    with _StageWriter(out_dir, name) as writer:
        value, record = run(earlier, writer)
        record["config"] = wanted
        writer.add_text(artifacts[0], json.dumps(record, sort_keys=True, indent=1))
        writer.commit()
    return Stage(value, record, True, earlier)


def _read_record(path: str, wanted: dict, checks: dict) -> dict:
    """The record at path; refused unless its config values equal wanted and
    each key of checks holds a value that passes the key's test."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    found = record.get("config") if isinstance(record, dict) else None
    if not isinstance(found, dict):
        raise ConfigError(f"{path}: no config record; use a fresh output directory")
    clauses = [f"{key} is {found.get(key)!r} but the config asks for {wanted.get(key)!r}"
               for key in {**wanted, **found} if found.get(key) != wanted.get(key)]
    clauses += [f"{key} is missing or not {what}" for key, (valid, what) in checks.items()
                if key not in record or not valid(record[key])]
    if clauses:
        raise ConfigError(f"{path}: {'; '.join(clauses)}; use a fresh output directory")
    return record


def _idx_files(files: dict[str, bytes]) -> dict:
    """Byte size and sha256 of each IDX file's bytes in files, by path."""
    return {path: {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
            for path, data in files.items()}


def ensure_partition(cfg: ExperimentConfig, out_dir: str) -> Stage:
    """The task's Stage.  partition.json records each client's example count,
    plan.json the plan and splits.json the splits, the last two for readers
    only; on resume only partition.json and the IDX files, whose sizes and
    hashes it holds, are read, and the data is built from the config when a
    stage first uses it.  Either way each IDX file is read once, here, for
    the record, the spec and the data alike."""
    files = _read_idx_files(cfg)

    def run(_, writer):
        task = Task(cfg, files)
        plan = task.data.plan
        writer.add_text("splits.json", _splits_to_json(task.data.splits))
        writer.add_text("plan.json", json.dumps(plan.to_doc(), sort_keys=True, indent=1))
        return task, {"clients": [{"count": len(c)} for c in plan.clients],
                      **({"idx_files": _idx_files(files)} if files else {})}

    def resume(_, record):
        for path, found in _idx_files(files).items():
            if found != (recorded := record.get("idx_files", {}).get(path)):
                raise ConfigError(f"{os.path.join(out_dir, 'partition.json')}: {path} is "
                                  f"{found} but the record holds {recorded}; use a fresh "
                                  f"output directory")
        return Task(cfg, files)
    return _stage(cfg, out_dir, "partition", ("partition.json", "splits.json", "plan.json"),
                  _PARTITION_SECTIONS, {}, lambda: None, resume, run)


def ensure_train(cfg: ExperimentConfig, out_dir: str) -> Stage:
    def run(partition, writer):
        task = partition.task
        data = task.data
        clients = fedsim.build_clients(data.plan, data.train)
        result = fedsim.run_training(
            task.spec, clients, data.val, cfg.training, cfg.seed,
            save_round=lambda t, params: writer.add_checkpoint(f"round_{t}.fusim", task.spec,
                                                               params))
        writer.add_checkpoint("checkpoint_trained.fusim", task.spec, result.params)
        writer.add_text("rounds_train.csv", fedsim.round_logs_to_csv(
            result.logs, [c.client_id for c in clients]))
        return result.params, {
            "convergence_round": result.convergence_round,
            "rounds_run": len(result.logs),
            "final_val_error": result.logs[-1].val_error if result.logs else None,
        }

    def round_checkpoints(record):
        every = cfg.training.checkpoint_every
        rounds = range(every, record["rounds_run"] + 1, every) if every else ()
        return [f"round_{t}.fusim" for t in rounds]
    ckpt = os.path.join(out_dir, "checkpoint_trained.fusim")
    return _stage(cfg, out_dir, "train", ("train_summary.json", "checkpoint_trained.fusim",
                                          "rounds_train.csv"),
                  _TRAIN_SECTIONS, {"rounds_run": _COUNT, "convergence_round": _INT_OR_NULL,
                                    "final_val_error": _NUMBER_OR_NULL},
                  lambda: ensure_partition(cfg, out_dir),
                  lambda partition, _: nncore.load_checkpoint(ckpt, partition.task.spec),
                  run, round_checkpoints)


def run_route(cfg: ExperimentConfig, task: Task, trained: np.ndarray,
              start_round: int):
    """Apply the configured route; returns (params, unlearn logs, extras)."""
    u = cfg.unlearn
    route = u.route
    extras: dict[str, object] = {}
    if route == "none":
        return trained, [], extras
    data = task.data
    clients = fedsim.build_clients(data.plan, data.train)
    if route in ("delete", "relabel"):
        for rid in u.requesting_clients:
            state = clients[rid]  # build_clients puts client i at i
            if route == "delete":
                state.keep(unlearn_routes.delete_retrain_prepare(state.labels, u.forget_class))
            else:
                state.labels = unlearn_routes.relabel_poison_prepare(
                    state.labels, u.forget_class, task.spec.class_count, (cfg.seed, 853, rid))
        params, logs = fedsim.fair_unlearn_rounds(
            trained, task.spec, clients, u, data.val, cfg.training, cfg.seed,
            start_round=start_round)
        extras["nonrequesting_steps"] = sum(
            c.local_step_counter for c in clients if c.client_id not in u.requesting_clients)
        return params, logs, extras
    if route == "zeroing":
        probes = np.concatenate([fedcccu.probe_examples(clients[rid], u.forget_class,
                                                        u.probe_cap, cfg.seed).images
                                 for rid in u.requesting_clients])
        top_m = max(1, round(u.top_m_fraction * len(task.spec.hidden_units)))
        params = unlearn_routes.naive_zeroing(task.spec, trained, probes, top_m)
        extras["zeroed_units"] = top_m
        return params, [], extras
    if route == "fedcccu":
        params, audit = fedcccu.fedcccu_pipeline(task.spec, trained, clients, u,
                                                 cfg.seed)
        extras["audit"] = audit
        extras["selected_units"] = len(audit.selected)
        return params, [], extras
    raise ValueError(f"stage unlearn: unknown route {route!r}")


def ensure_unlearn(cfg: ExperimentConfig, out_dir: str, trained: Stage | None = None) -> Stage:
    """The route's unlearned model, read from or written to out_dir.

    trained is ensure_train's Stage when it is held elsewhere (compare_routes
    shares one across routes); without it the train stage is read or built
    in out_dir.
    """
    def resume(trained, _):
        ckpt = os.path.join(out_dir, "checkpoint_unlearned.fusim")
        return nncore.load_checkpoint(ckpt, trained.task.spec)

    def run(trained, writer):
        task = trained.task
        params, logs, extras = run_route(cfg, task, trained.value,
                                         start_round=trained.record["rounds_run"])
        audit = extras.pop("audit", None)
        writer.add_checkpoint("checkpoint_unlearned.fusim", task.spec, params)
        writer.add_text("rounds_unlearn.csv", fedsim.round_logs_to_csv(
            logs, sorted(cfg.unlearn.requesting_clients)))
        if audit is not None:
            writer.add_text("audit_fedcccu.json", audit.to_json())
        return params, {"unlearn_rounds_run": len(logs),
                        "final_val_error": logs[-1].val_error if logs else None, **extras}
    audit_file = ("audit_fedcccu.json",) if cfg.unlearn.route == "fedcccu" else ()
    return _stage(cfg, out_dir, "unlearn", ("unlearn_summary.json", "checkpoint_unlearned.fusim",
                                            "rounds_unlearn.csv", *audit_file),
                  _UNLEARN_SECTIONS, {"unlearn_rounds_run": _COUNT},
                  lambda: trained or ensure_train(cfg, out_dir),
                  resume, run)


def ensure_evaluate(cfg: ExperimentConfig, out_dir: str, trained: Stage | None = None,
                    before: evalkit.EvaluationReport | None = None) -> Stage:
    """The (before, after) reports; the record holds the metrics.

    trained is as in ensure_unlearn.  When every evaluate artifact exists,
    the reports are read back from them and nothing is rewritten.  Otherwise
    before is the trained model's report when the caller already has it
    (compare_routes shares one across routes), else it is built.
    """
    route = cfg.unlearn.route

    def resume(unlearned, _):
        reports = []
        for name in ("report_before.json", "report_after.json"):
            path = os.path.join(out_dir, name)
            with open(path, "rb") as fh:
                reports.append(evalkit.report_from_json(
                    fh.read(), sum(cfg.partition.groups), unlearned.task.spec.class_count, path))
        return tuple(reports)

    def run(unlearned, writer):
        task = unlearned.task
        data = task.data
        shared = before if before is not None else evalkit.build_report(
            task.spec, unlearned.prior.value, data.test_sets, data.client_sets)
        after = evalkit.build_report(task.spec, unlearned.value, data.test_sets, data.client_sets)
        metrics = evalkit.forgetting_metrics(shared, after, cfg.unlearn)
        writer.add_text("report_before.json", evalkit.report_to_json(shared))
        writer.add_text("report_after.json", evalkit.report_to_json(after))
        writer.add_text("report.csv", evalkit.combined_csv({"before": shared, route: after}))
        # "route" repeats the record's unlearn.route for readers of metrics.json
        # alone (perfbench prints it); the record's value is the one checked
        return (shared, after), {"route": route, **dataclasses.asdict(metrics)}
    return _stage(cfg, out_dir, "evaluate", (
        "metrics.json", "report_before.json", "report_after.json", "report.csv"),
        _UNLEARN_SECTIONS, dict.fromkeys(_METRICS, _NUMBER),
        lambda: ensure_unlearn(cfg, out_dir, trained), resume, run)


def compare_routes(cfg: ExperimentConfig, routes: list[str], out_dir: str) -> str:
    """Run cfg under each of routes, one or more; returns compare.csv's text.

    The partition and train stages run once, in out_dir; each route's
    unlearn and evaluate stages run in out_dir/route_<label> from that
    trained model.  The "before" report is built at most once: each route
    passes the one it returned (built or read back) to the next.
    compare.csv is written only when it is absent or holds other text.
    """
    labels = []
    seen: dict[str, int] = {}
    for route in routes:
        seen[route] = seen.get(route, 0) + 1
        labels.append(route if seen[route] == 1 else f"{route}_{seen[route]}")
    reports: dict[str, "evalkit.EvaluationReport"] = {}
    trained = ensure_train(cfg, out_dir)
    before = None
    for route, label in zip(routes, labels):
        sub = os.path.join(out_dir, f"route_{label}")
        routed = dataclasses.replace(cfg, unlearn=dataclasses.replace(cfg.unlearn, route=route))
        before, reports[label] = ensure_evaluate(routed, sub, trained, before).value
    merged = {"before": before, **reports}
    text = evalkit.combined_csv(merged)
    path = os.path.join(out_dir, "compare.csv")
    if os.path.exists(path):
        with open(path, "rb") as fh:
            if fh.read() == text.encode("utf-8"):
                return text   # a finished compare writes nothing
    with _StageWriter(out_dir, "compare") as writer:
        writer.add_text("compare.csv", text)
        writer.commit()
    return text
