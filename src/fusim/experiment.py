"""Experiment stages: partition, train, unlearn, evaluate, compare.

Stages read their prerequisites from the output directory when present and
build them otherwise, so any stage can resume from on-disk artifacts.  The
model spec comes from the config alone.  The data (domains, splits, plan,
subsets) comes from the config too, never from the output directory: a
Task's build_task call makes it when a stage first has to run, so a finished
directory resumes without building it, and partition.json and splits.json
are records for readers that nothing reads back.  A compare trains once in
its output directory and runs only the unlearn and evaluate stages of each
route in a subdirectory.  All artifacts are pure functions of the config
text: no timestamps, sorted keys, fixed float formatting.  Each stage's
record artifact holds the canonical config values the stage depends on, and
a resume with any other value is refused.  Files are written to a
stage-local temp directory and renamed into place on stage completion.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

from . import evalkit, fedcccu, fedsim, nncore, unlearn_routes
from .config import ConfigError, DomainConfig, ExperimentConfig, canonical
from .datasets import (BaseStream, DomainDataset, DomainSplits, idx_class_count, load_idx,
                       resize, stratified_split, subset, synth_domain)
from .nncore import ModelSpec
from .partition import PartitionPlan, build_plan, label_intersection


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


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
    train is the pool of every domain's train split, the plan's index space."""
    plan: PartitionPlan
    splits: dict[str, DomainSplits]
    train: DomainDataset
    val_x: np.ndarray
    val_y: np.ndarray
    client_test_sets: dict[int, DomainDataset]


class Task:
    """What the stages share: the config, the model spec over the shared
    label space, set at once, and the data, built on first use.  A finished
    stage needs only the spec, so a resume of a finished directory builds no
    data."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.spec = build_spec(cfg)

    @functools.cached_property
    def data(self) -> TaskData:
        return build_task(self.cfg, self.spec.class_count)


def build_spec(cfg: ExperimentConfig) -> ModelSpec:
    """The configured model over the shared label space, from the config alone.

    A synthetic domain has [data] class_count classes and an IDX domain max
    label + 1, read from its labels file only; the shared count is their
    minimum, the label range label_intersection keeps, and it must hold the
    forget class.
    """
    class_count = min(cfg.class_count if dc.kind == "synthetic"
                      else idx_class_count(dc.labels_path) for dc in cfg.domains)
    if cfg.unlearn.forget_class >= class_count:
        raise ConfigError(f"unlearn.forget_class: {cfg.unlearn.forget_class} >= "
                          f"shared class count {class_count}")
    shape = (1, *cfg.partition.working_resolution)
    if cfg.model_spec == "small_mlp":
        return nncore.small_mlp(shape, class_count, hidden=cfg.hidden)
    return nncore.small_cnn(shape, class_count)


def build_raw_domains(cfg: ExperimentConfig) -> list[DomainDataset]:
    """Every configured domain, in config order.

    The synthetic domains of one resolution share one base stream, drawn
    once for the largest of them; they are built smallest first, so that
    the largest, built last, forms its images inside the stream's draws.
    """
    domains: dict[str, DomainDataset] = {}
    by_resolution: dict[tuple[int, int], list[tuple[int, DomainConfig]]] = {}
    for dc in cfg.domains:
        if dc.kind == "idx":
            domains[dc.name] = load_idx(dc.images_path, dc.labels_path, domain_id=dc.name)
        else:
            by_resolution.setdefault(dc.resolution, []).append(
                (dc.samples_per_class or cfg.samples_per_class, dc))
    for resolution, group in by_resolution.items():
        group.sort(key=lambda sized: sized[0])
        stream = BaseStream(cfg.base_pattern_seed, cfg.seed, resolution, cfg.class_count,
                            count=cfg.class_count * group[-1][0], uses=len(group))
        for size, dc in group:
            domains[dc.name] = synth_domain(stream, dc.transforms, size, dc.name)
    return [domains[dc.name] for dc in cfg.domains]


def build_task(cfg: ExperimentConfig, class_count: int) -> TaskData:
    """The one data build, from the config alone.

    Every domain is made, cut to build_spec's shared labels [0, class_count)
    and split by its labels.  Then, one domain at a time, it is resized, its
    train and test splits are written into its blocks of the preallocated
    train and test pools (one block per domain, in config order) and its
    validation subset is cut, after which the whole domain is released.  The
    plan is built over the train pool, and a client's test set is the test
    pool's rows of its group: its domain's block under real_noniid, else the
    whole pool.
    """
    ev, part = cfg.evaluate, cfg.partition
    domains = label_intersection(build_raw_domains(cfg), class_count)
    splits = {}
    for d in domains:
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
    channels = domains[0].images.shape[1]
    blocks, pools, val_sets = {}, {}, {}
    for which in ("train", "test"):
        stops = np.cumsum([len(getattr(sp, which)) for sp in splits.values()]).tolist()
        blocks[which] = tuple(zip(splits, [0] + stops[:-1], stops))
        pools[which] = DomainDataset(np.zeros((stops[-1], channels, *part.working_resolution)),
                                     np.zeros(stops[-1], dtype=np.int64), which, class_count)
    for i, d in enumerate(domains):
        domains[i] = None   # d is the one reference left to the whole domain
        d = resize(d, part.working_resolution)
        sp = splits[d.domain_id]
        for which, pool in pools.items():
            _, start, stop = blocks[which][i]
            index = getattr(sp, which)
            # mode="clip" writes straight into out; "raise" fills a temporary first
            np.take(d.images, index, axis=0, out=pool.images[start:stop], mode="clip")
            np.take(d.labels, index, out=pool.labels[start:stop], mode="clip")
        val_sets[d.domain_id] = subset(d, sp.val)
    del d
    val_x = np.concatenate([val_sets[did].images for did in sorted(val_sets)])
    val_y = np.concatenate([val_sets[did].labels for did in sorted(val_sets)])
    train, test = pools["train"], pools["test"]
    plan = build_plan(part, train.labels, blocks["train"], cfg.seed)
    groups = blocks["test"] if part.strategy == "real_noniid" else (("test", 0, len(test)),)
    client_test_sets = dict(enumerate(
        DomainDataset(test.images[a:b], test.labels[a:b], name, class_count)
        for (name, a, b), size in zip(groups, part.groups) for _ in range(size)))
    return TaskData(plan, splits, train, val_x, val_y, client_test_sets)


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


def _stage(cfg: ExperimentConfig, out_dir: str, name: str, artifacts: tuple[str, ...],
           sections: tuple[str, ...], checks: dict, prior, resume, run,
           implied=lambda record: ()):
    """Resume or run one stage in out_dir.

    artifacts names the files the stage always writes, and the first is its
    record: a JSON document whose "config" holds the canonical values of
    sections; implied(record) names the files the record says it wrote
    besides.  When every artifact exists, the record is read, must hold
    cfg's values and pass checks (a test per key the program reads back),
    and if every implied file exists too, the result is resume(prior(),
    record); the check comes before prior (the stage this one builds on), so
    a finished directory is checked against its fullest record first.
    Otherwise run(prior(), writer) writes the other artifacts and returns
    (result, record), and the record is written with the values.
    """
    def present(names) -> bool:
        return all(os.path.exists(os.path.join(out_dir, a)) for a in names)
    wanted = canonical(cfg, sections)
    record_path = os.path.join(out_dir, artifacts[0])
    if present(artifacts):
        record = _read_record(name, record_path, wanted, checks)
        if present(implied(record)):
            return resume(prior(), record)
    with _StageWriter(out_dir, name) as writer:
        result, record = run(prior(), writer)
        record["config"] = wanted
        writer.add_text(artifacts[0], json.dumps(record, sort_keys=True, indent=1))
        writer.commit()
    return result


def _read_record(stage: str, path: str, wanted: dict, checks: dict) -> dict:
    """The record at path; refused unless its config values equal wanted and
    each key of checks holds a value that passes the key's test."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except ValueError as exc:
        raise StageError(stage, f"{path}: not valid JSON: {exc}") from None
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


def _idx_files(cfg: ExperimentConfig) -> dict:
    """Byte size and sha256 of each IDX file the config reads, by path."""
    files = {}
    for path in (p for dc in cfg.domains if dc.kind == "idx"
                 for p in (dc.images_path, dc.labels_path)):
        with open(path, "rb") as fh:
            data = fh.read()
        files[path] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return files


def ensure_partition(cfg: ExperimentConfig, out_dir: str) -> Task:
    """The task.  partition.json records the plan and splits.json the splits,
    for readers; on resume only partition.json's config record and the IDX
    files, whose sizes and hashes it holds, are read, and the data is built
    from the config when a stage first uses it."""
    def run(_, writer):
        task = Task(cfg)
        writer.add_text("splits.json", _splits_to_json(task.data.splits))
        files = _idx_files(cfg)
        return task, {**task.data.plan.to_doc(), **({"idx_files": files} if files else {})}

    def resume(_, record):
        for path, found in _idx_files(cfg).items():
            if found != (recorded := record.get("idx_files", {}).get(path)):
                raise ConfigError(f"{os.path.join(out_dir, 'partition.json')}: {path} is "
                                  f"{found} but the record holds {recorded}; use a fresh "
                                  f"output directory")
        return Task(cfg)
    return _stage(cfg, out_dir, "partition", ("partition.json", "splits.json"),
                  _PARTITION_SECTIONS, {}, lambda: None, resume, run)


def ensure_train(cfg: ExperimentConfig, out_dir: str):
    def run(task, writer):
        data = task.data
        clients = fedsim.build_clients(data.plan, data.train)
        result = fedsim.run_training(
            task.spec, clients, data.val_x, data.val_y, cfg.training, cfg.seed,
            save_round=lambda t, params: writer.add_checkpoint(f"round_{t}.fusim", task.spec,
                                                               params))
        summary = {
            "convergence_round": result.convergence_round,
            "rounds_run": len(result.logs),
            "final_val_error": result.logs[-1].val_error if result.logs else None,
        }
        writer.add_checkpoint("checkpoint_trained.fusim", task.spec, result.params)
        writer.add_text("rounds_train.csv", fedsim.round_logs_to_csv(
            result.logs, [c.client_id for c in clients]))
        return (task, result.params, summary), summary

    def round_checkpoints(summary):
        every = cfg.training.checkpoint_every
        rounds = range(every, summary["rounds_run"] + 1, every) if every else ()
        return [f"round_{t}.fusim" for t in rounds]
    ckpt = os.path.join(out_dir, "checkpoint_trained.fusim")
    return _stage(cfg, out_dir, "train", ("train_summary.json", "checkpoint_trained.fusim",
                                          "rounds_train.csv"),
                  _TRAIN_SECTIONS, {"rounds_run": _COUNT, "convergence_round": _INT_OR_NULL,
                                    "final_val_error": _NUMBER_OR_NULL},
                  lambda: ensure_partition(cfg, out_dir),
                  lambda task, summary: (task, nncore.load_checkpoint(ckpt, task.spec), summary),
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
        pre_steps = {c.client_id: c.local_step_counter for c in clients}
        params, logs = fedsim.fair_unlearn_rounds(
            trained, task.spec, clients, u, data.val_x, data.val_y,
            cfg.training, cfg.seed, start_round=start_round)
        extras["nonrequesting_steps"] = sum(
            c.local_step_counter - pre_steps[c.client_id]
            for c in clients if c.client_id not in u.requesting_clients)
        return params, logs, extras
    if route == "zeroing":
        probes = np.concatenate([fedcccu.probe_examples(clients[rid], u.forget_class,
                                                        u.probe_cap, cfg.seed).images
                                 for rid in u.requesting_clients])
        editable = unlearn_routes.editable_units(task.spec)
        top_m = max(1, round(u.top_m_fraction * len(editable)))
        params = unlearn_routes.naive_zeroing(task.spec, trained, probes, top_m)
        extras["zeroed_units"] = top_m
        return params, [], extras
    if route == "fedcccu":
        params, audit = fedcccu.fedcccu_pipeline(task.spec, trained, clients, u,
                                                 cfg.seed)
        extras["audit"] = audit
        extras["selected_units"] = len(audit.selected)
        return params, [], extras
    raise StageError("unlearn", f"unknown route {route!r}")


def ensure_unlearn(cfg: ExperimentConfig, out_dir: str, trained_stage: tuple | None = None):
    """The route's unlearned model, read from or written to out_dir.

    trained_stage is ensure_train's (task, params, summary) for a trained
    stage held elsewhere (compare_routes shares one across routes); without
    it the trained stage is read or built in out_dir.
    """
    def resume(trained_stage, summary):
        task, trained, _ = trained_stage
        ckpt = os.path.join(out_dir, "checkpoint_unlearned.fusim")
        return task, trained, nncore.load_checkpoint(ckpt, task.spec), summary

    def run(trained_stage, writer):
        task, trained, train_summary = trained_stage
        params, logs, extras = run_route(cfg, task, trained,
                                         start_round=train_summary["rounds_run"])
        audit = extras.pop("audit", None)
        summary = {"unlearn_rounds_run": len(logs),
                   "final_val_error": logs[-1].val_error if logs else None, **extras}
        writer.add_checkpoint("checkpoint_unlearned.fusim", task.spec, params)
        writer.add_text("rounds_unlearn.csv", fedsim.round_logs_to_csv(
            logs, sorted(cfg.unlearn.requesting_clients)))
        if audit is not None:
            writer.add_text("audit_fedcccu.json", audit.to_json())
        return (task, trained, params, summary), summary
    audit_file = ("audit_fedcccu.json",) if cfg.unlearn.route == "fedcccu" else ()
    return _stage(cfg, out_dir, "unlearn", ("unlearn_summary.json", "checkpoint_unlearned.fusim",
                                            "rounds_unlearn.csv", *audit_file),
                  _UNLEARN_SECTIONS, {"unlearn_rounds_run": _COUNT},
                  lambda: trained_stage or ensure_train(cfg, out_dir),
                  resume, run)


def ensure_evaluate(cfg: ExperimentConfig, out_dir: str, trained_stage: tuple | None = None,
                    before: evalkit.EvaluationReport | None = None):
    """Before/after reports and metrics; trained_stage as in ensure_unlearn.

    When every evaluate artifact exists, the reports are read back from
    them, the metrics from metrics.json's record, and nothing is rewritten.
    Otherwise before is the trained model's report when the caller already
    has it (compare_routes shares one across routes), else it is built.
    """
    route = cfg.unlearn.route

    def resume(unlearned_stage, record):
        task, reports = unlearned_stage[0], []
        for name in ("report_before.json", "report_after.json"):
            path = os.path.join(out_dir, name)
            with open(path) as fh:
                try:
                    reports.append(evalkit.report_from_json(
                        fh.read(), sum(cfg.partition.groups), task.spec.class_count))
                except evalkit.EvalError as exc:
                    raise ConfigError(f"{path}: {exc}; use a fresh output directory") from None
        metrics = evalkit.ForgettingMetrics(**{name: record[name] for name in _METRICS})
        return task, *reports, metrics

    def run(unlearned_stage, writer):
        task, trained, unlearned, _ = unlearned_stage
        shared = before if before is not None else evalkit.build_report(
            task.spec, trained, task.data.client_test_sets)
        after = evalkit.build_report(task.spec, unlearned, task.data.client_test_sets)
        metrics = evalkit.forgetting_metrics(shared, after, cfg.unlearn)
        writer.add_text("report_before.json", evalkit.report_to_json(shared))
        writer.add_text("report_after.json", evalkit.report_to_json(after))
        writer.add_text("report.csv", evalkit.combined_csv({"before": shared, route: after}))
        # "route" repeats the record's unlearn.route for readers of metrics.json
        # alone (perfbench prints it); the record's value is the one checked
        return (task, shared, after, metrics), {"route": route, **dataclasses.asdict(metrics)}
    return _stage(cfg, out_dir, "evaluate", (
        "metrics.json", "report_before.json", "report_after.json", "report.csv"),
        _UNLEARN_SECTIONS, dict.fromkeys(_METRICS, _NUMBER),
        lambda: ensure_unlearn(cfg, out_dir, trained_stage), resume, run)


def compare_routes(cfgs: list[ExperimentConfig], out_dir: str) -> str:
    """Compare configs that differ only in route; returns compare.csv's text.

    The partition and train stages run once, in out_dir; each route's
    unlearn and evaluate stages run in out_dir/route_<label> from that
    trained model.  The "before" report is built at most once: each route
    passes the one it returned (built or read back) to the next.
    """
    if not cfgs:
        raise StageError("compare", "no configurations given")
    held = [canonical(cfg, _UNLEARN_SECTIONS) for cfg in cfgs]
    for values in held:
        del values["unlearn.route"]
    if any(values != held[0] for values in held[1:]):
        raise StageError("compare", "configurations differ beyond unlearn.route")
    labels = []
    seen: dict[str, int] = {}
    for cfg in cfgs:
        route = cfg.unlearn.route
        seen[route] = seen.get(route, 0) + 1
        labels.append(route if seen[route] == 1 else f"{route}_{seen[route]}")
    reports: dict[str, "evalkit.EvaluationReport"] = {}
    trained_stage = ensure_train(cfgs[0], out_dir)
    before = None
    for cfg, label in zip(cfgs, labels):
        sub = os.path.join(out_dir, f"route_{label}")
        _, before, after, _ = ensure_evaluate(cfg, sub, trained_stage, before)
        reports[label] = after
    merged = {"before": before, **reports}
    text = evalkit.combined_csv(merged)
    with _StageWriter(out_dir, "compare") as writer:
        writer.add_text("compare.csv", text)
        writer.commit()
    return text
