"""Experiment configuration: INI-style text with a strict, documented schema.

Each line is blank, a # or ; comment, a [section] header or a key = value
line; no line continues another and no section or key repeats.  The schema
is one table, KEYS: a row per key gives the field that holds its value, the
kind of text it takes and its bounds; the key's default is that field's
default.  Unknown sections or keys are rejected; a bad value names the key
and the line it came from (or the command-line flag that set it).  Every key
has a default, so the minimal valid config is an empty file: it describes
the reference benchmark (three synthetic domains, three clients each, small
MLP at 16x16).
"""
from __future__ import annotations

import functools
import math
import operator
import os
import re
from dataclasses import dataclass, field

from .datasets import TRANSFORM_ARGS, DatasetError, Transform, parse_transforms

ROUTES = ("none", "delete", "relabel", "zeroing", "fedcccu")
STRATEGIES = ("iid", "dirichlet", "real_noniid")
MODEL_SPECS = ("small_mlp", "small_cnn")

DEFAULT_DOMAINS = (
    ("clean", "identity"),
    ("noisy", "gaussian_noise(0.15)"),
    ("cluttered", "downsample(2)+background_clutter(0.35)"),
)


class ConfigError(ValueError):
    """A config the schema rejects; line is the line number, or the
    command-line flag, that set the offending key."""

    def __init__(self, message: str, line: int | str | None = None):
        prefix = f"line {line}" if isinstance(line, int) else line
        super().__init__(message if line is None else f"{prefix}: {message}")
        self.line = line


@dataclass(frozen=True)
class DomainConfig:
    name: str
    kind: str                      # synthetic | idx
    transforms: tuple[Transform, ...] = (Transform("identity"),)
    resolution: tuple[int, int] = (16, 16)
    samples_per_class: int | None = None
    images_path: str | None = None
    labels_path: str | None = None


@dataclass(frozen=True)
class PartitionConfig:
    strategy: str = "real_noniid"
    clients: int = 9
    alpha: float = 100.0
    group_sizes: tuple[int, ...] = (3, 3, 3)
    working_resolution: tuple[int, int] = (16, 16)

    @property
    def groups(self) -> tuple[int, ...]:
        """Clients per group, in config order: under real_noniid one group per
        domain (group_sizes), else one group of every client over all domains."""
        return self.group_sizes if self.strategy == "real_noniid" else (self.clients,)


@dataclass(frozen=True)
class TrainingConfig:
    rounds_max: int = 50
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 0.5
    epsilon: float = 0.10
    checkpoint_every: int = 0


@dataclass(frozen=True)
class UnlearnConfig:
    route: str = "none"
    forget_class: int = 0
    requesting_clients: tuple[int, ...] = (0,)
    rounds_max: int = 20
    top_m_fraction: float = 0.1
    top_n: int = 32
    select_n: int = 16
    probe_cap: int = 256


@dataclass(frozen=True)
class EvaluateConfig:
    val_fraction: float = 0.1
    test_fraction: float = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "experiment"
    seed: int = 0
    out_dir: str = ""
    model_spec: str = "small_mlp"
    hidden: int = 128
    class_count: int = 10
    samples_per_class: int = 150
    base_pattern_seed: int = 40
    domains: tuple[DomainConfig, ...] = ()
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    unlearn: UnlearnConfig = field(default_factory=UnlearnConfig)
    evaluate: EvaluateConfig = field(default_factory=EvaluateConfig)


# One row per key: (section, key, attribute, kind, bounds).  The attribute is
# the ExperimentConfig field that holds the value, dotted into a section's
# dataclass (for "domain", the [domain.<name>] sections: the DomainConfig
# field).  Kinds: int, float, ints (comma-separated integers), choice, str,
# res (HxW) and chain (a transform chain).  Bounds are the allowed range of
# every number of an int, float, ints or res key, and the values of a choice
# key.  A synthetic domain is drawn at 4x4 or more.
KEYS = (
    ("experiment", "name", "name", "str", None),
    ("experiment", "seed", "seed", "int", "[0, inf]"),
    ("experiment", "out_dir", "out_dir", "str", None),
    ("model", "spec", "model_spec", "choice", MODEL_SPECS),
    ("model", "hidden", "hidden", "int", "[1, inf]"),
    ("data", "class_count", "class_count", "int", "[2, inf]"),
    ("data", "samples_per_class", "samples_per_class", "int", "[4, inf]"),
    ("data", "base_pattern_seed", "base_pattern_seed", "int", "[0, inf]"),
    ("domain", "transform", "transforms", "chain", None),
    ("domain", "resolution", "resolution", "res", "[4, inf]"),
    ("domain", "samples_per_class", "samples_per_class", "int", "[4, inf]"),
    ("domain", "images", "images_path", "str", None),
    ("domain", "labels", "labels_path", "str", None),
    ("partition", "strategy", "partition.strategy", "choice", STRATEGIES),
    ("partition", "clients", "partition.clients", "int", "[1, inf]"),
    ("partition", "alpha", "partition.alpha", "float", "(0, inf]"),
    ("partition", "group_sizes", "partition.group_sizes", "ints", "[1, inf]"),
    ("partition", "working_resolution", "partition.working_resolution", "res", "[1, inf]"),
    ("training", "rounds_max", "training.rounds_max", "int", "[0, inf]"),
    ("training", "local_epochs", "training.local_epochs", "int", "[0, inf]"),
    ("training", "batch_size", "training.batch_size", "int", "[1, inf]"),
    ("training", "learning_rate", "training.learning_rate", "float", "(0, inf]"),
    ("training", "epsilon", "training.epsilon", "float", "(0, 1)"),
    ("training", "checkpoint_every", "training.checkpoint_every", "int", "[0, inf]"),
    ("unlearn", "route", "unlearn.route", "choice", ROUTES),
    ("unlearn", "forget_class", "unlearn.forget_class", "int", "[0, inf]"),
    ("unlearn", "requesting_clients", "unlearn.requesting_clients", "ints", "[0, inf]"),
    ("unlearn", "rounds_max", "unlearn.rounds_max", "int", "[0, inf]"),
    ("unlearn", "top_m_fraction", "unlearn.top_m_fraction", "float", "(0, 1]"),
    ("unlearn", "top_n", "unlearn.top_n", "int", "[1, inf]"),
    ("unlearn", "select_n", "unlearn.select_n", "int", "[0, inf]"),
    ("unlearn", "probe_cap", "unlearn.probe_cap", "int", "[1, inf]"),
    ("evaluate", "val_fraction", "evaluate.val_fraction", "float", "(0, 0.5)"),
    ("evaluate", "test_fraction", "evaluate.test_fraction", "float", "(0, 0.5)"),
)
_ROWS = {(row[0], row[1]): row for row in KEYS}


def _chain_text(transforms: tuple[Transform, ...]) -> str:
    return "+".join(t.kind if t.kind not in TRANSFORM_ARGS
                    else f"{t.kind}({getattr(t, TRANSFORM_ARGS[t.kind][0])!r})"
                    for t in transforms)


# The keys canonical records, all but the two no artifact depends on, each
# with its getter and its value's JSON form: the config text of res and chain
# values, a list for ints, the value itself for the other kinds.
_AS_JSON = {"res": lambda v: "%dx%d" % v, "chain": _chain_text, "ints": list}
_RECORDED = tuple((section, key, f"{section}.{key}", operator.attrgetter(attr),
                   _AS_JSON.get(kind, lambda v: v))
                  for section, key, attr, kind, _ in KEYS
                  if f"{section}.{key}" not in ("experiment.name", "experiment.out_dir"))
_EXPECTED = {"int": "an integer", "float": "a number", "ints": "comma-separated integers"}


def _parse(row: tuple, raw: str, what: str, where) -> object:
    """One key's value from its text, checked against its row's kind and bounds."""
    kind, bounds = row[3], row[4]
    if kind == "str":
        return raw
    if kind == "choice":
        if raw not in bounds:
            raise ConfigError(f"{what}: {raw!r} not one of {sorted(bounds)}", where)
        return raw
    if kind == "chain":
        try:
            return parse_transforms(raw)
        except DatasetError as exc:
            raise ConfigError(f"{what}: {exc}", where) from exc
    number = float if kind == "float" else int
    if kind == "res":
        m = re.fullmatch(r"(\d+)\s*[xX]\s*(\d+)", raw)
        if not m:
            raise ConfigError(f"{what}: expected HxW, got {raw!r}", where)
        values = int(m.group(1)), int(m.group(2))
    else:
        try:
            values = tuple(number(v) for v in raw.split(",") if v.strip()) \
                if kind == "ints" else (number(raw),)
        except ValueError:
            raise ConfigError(f"{what}: expected {_EXPECTED[kind]}, got {raw!r}",
                              where) from None
        if not values:
            raise ConfigError(f"{what}: empty list", where)
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"{what}: expected a finite number, got {raw!r}", where)
    lo, hi = (float(t) if number is float or "inf" in t else int(t)
              for t in bounds[1:-1].split(", "))
    for v in values:
        if not ((lo < v if bounds[0] == "(" else lo <= v)
                and (v < hi if bounds[-1] == ")" else v <= hi)):
            raise ConfigError(f"{what}: {v} outside allowed range "
                              f"{bounds[0]}{lo}, {hi}{bounds[-1]}", where)
    return values if kind in ("ints", "res") else values[0]


# A # or ; that starts a line or follows whitespace starts a comment; the
# rest of the line is blank, a [section] header or a key = value (or key:
# value) line, split at its first delimiter.
_COMMENT = re.compile(r"(?<!\S)[#;]")
_LINE = re.compile(r"\[(?P<section>.*)\]|(?P<key>[^\[=:][^=:]*?)\s*[=:]\s*(?P<value>.*)")


@functools.lru_cache(maxsize=4)
def _read(text: str) -> tuple:
    """The text's sections in order, each (section, header line, ((key, value,
    line), ...)), every value parsed and checked by its key's row.  Cached,
    as compare validates one text once per route."""
    sections, keys = {}, None
    for line, raw in enumerate(text.split("\n"), start=1):
        stripped = _COMMENT.split(raw, 1)[0].strip()
        if not stripped:
            continue
        m = _LINE.fullmatch(stripped)
        if m is None:
            raise ConfigError(f"not a [section] or key = value line: {stripped!r}", line)
        if m["section"] is not None:
            section = m["section"].strip()
            table = "domain" if section.startswith("domain.") else section
            if section in ("domain", "domain."):
                raise ConfigError("domain section needs a name: [domain.<name>]", line)
            if table not in {row[0] for row in KEYS}:
                raise ConfigError(f"unknown section [{section}]", line)
            if section in sections:
                raise ConfigError(f"repeated section [{section}], first on line "
                                  f"{sections[section][1]}", line)
            keys = {}
            sections[section] = section, line, keys
            continue
        key = m["key"].lower()
        if keys is None:
            raise ConfigError(f"key {key} before any [section] header", line)
        if (table, key) not in _ROWS:
            raise ConfigError(f"unknown key {section}.{key}", line)
        if key in keys:
            raise ConfigError(f"repeated key {section}.{key}, first on line {keys[key][2]}",
                              line)
        keys[key] = key, _parse(_ROWS[table, key], m["value"], f"{section}.{key}", line), line
    return tuple((section, line, tuple(keys.values()))
                 for section, line, keys in sections.values())


def validate_config(text: str, overrides=()) -> ExperimentConfig:
    """Parse and validate config text into a fully-defaulted ExperimentConfig.

    overrides are (flag, "section.key", text) triples whose value replaces
    the text's value of the key; the flag stands in for the line in errors.
    """
    sections = _read(text)
    headers = {section: line for section, line, _ in sections}
    entries = {section: {key: (value, line) for key, value, line in keys}
               for section, _, keys in sections}
    for flag, name, raw in overrides:
        section, key = name.rsplit(".", 1)
        value = _parse(_ROWS[section, key], raw, name, flag)
        entries.setdefault(section, {})[key] = value, flag

    def where(section, key=None):
        if key is None:
            return headers.get(section)
        return entries.get(section, {}).get(key, (None, None))[1]

    held: dict[str, dict] = {"": {}, "partition": {}, "training": {}, "unlearn": {},
                             "evaluate": {}}
    domains = []
    for section, keys in entries.items():
        if section.startswith("domain."):
            domains.append(_domain(section, {_ROWS["domain", key][2]: value
                                             for key, (value, _) in keys.items()}, where))
            continue
        for key, (value, _) in keys.items():
            holder, _, name = _ROWS[section, key][2].rpartition(".")
            held[holder][name] = value
    if not domains:
        domains = [DomainConfig(dn, "synthetic", transforms=parse_transforms(tf))
                   for dn, tf in DEFAULT_DOMAINS]

    top, part, unlearn = held[""], held["partition"], held["unlearn"]
    top.setdefault("out_dir", os.path.join("runs", top.get("name", ExperimentConfig.name)))
    strategy = part.get("strategy", PartitionConfig.strategy)
    if "group_sizes" not in part and strategy == "real_noniid" and len(domains) != 3:
        part["group_sizes"] = (1,) * len(domains)
    unlearn.setdefault("select_n", max(1, unlearn.get("top_n", UnlearnConfig.top_n) // 2))
    if "requesting_clients" in unlearn:
        unlearn["requesting_clients"] = tuple(sorted(set(unlearn["requesting_clients"])))
    cfg = ExperimentConfig(**top, domains=tuple(domains), partition=PartitionConfig(**part),
                           training=TrainingConfig(**held["training"]),
                           unlearn=UnlearnConfig(**unlearn),
                           evaluate=EvaluateConfig(**held["evaluate"]))

    p, u = cfg.partition, cfg.unlearn
    if p.strategy == "real_noniid" and len(p.group_sizes) != len(domains):
        raise ConfigError(
            f"partition.group_sizes: {len(p.group_sizes)} groups for "
            f"{len(domains)} domains", where("partition", "group_sizes"))
    if u.forget_class >= cfg.class_count:
        raise ConfigError(
            f"unlearn.forget_class: {u.forget_class} >= class_count {cfg.class_count}",
            where("unlearn", "forget_class"))
    if cfg.model_spec == "small_cnn" and min(p.working_resolution) < 10:
        raise ConfigError("partition.working_resolution: small_cnn needs at least 10x10",
                          where("partition", "working_resolution"))
    if cfg.model_spec == "small_cnn" and "hidden" in entries.get("model", {}):
        raise ConfigError("model.hidden: small_cnn has no hidden width; it is for "
                          "small_mlp only", where("model", "hidden"))
    total_clients = sum(p.groups)
    if u.requesting_clients[-1] >= total_clients:
        raise ConfigError(
            f"unlearn.requesting_clients: ids must be in [0, {total_clients})",
            where("unlearn", "requesting_clients"))
    return cfg


def _domain(section: str, values: dict, where) -> DomainConfig:
    """One [domain.<name>] section: synthetic, or an IDX image/label pair."""
    images, labels = values.get("images_path"), values.get("labels_path")
    if (images is None) != (labels is None):
        raise ConfigError(f"{section}: images and labels must come together", where(section))
    for key, path in (("images", images), ("labels", labels)):
        if path is not None and not os.path.exists(path):
            raise ConfigError(f"{section}.{key}: file not found: {path}", where(section, key))
    for key in ("transform", "resolution", "samples_per_class"):
        if images is not None and _ROWS["domain", key][2] in values:
            raise ConfigError(f"{section}.{key}: an IDX domain takes only images and labels",
                              where(section, key))
    return DomainConfig(section[len("domain."):], "synthetic" if images is None else "idx",
                        **values)


def canonical(cfg: ExperimentConfig, sections) -> dict:
    """The resolved values of the named sections, a flat section.key -> JSON
    value map.  Domain keys are named domain.<name>.<key>, and "domains" holds
    the domain order, on which group_sizes depends.  experiment.name and
    experiment.out_dir are left out: no artifact depends on them."""
    out = {}
    for section, key, name, get, as_json in _RECORDED:
        if section not in sections:
            continue
        if section != "domain":
            out[name] = as_json(get(cfg))
            continue
        for d in cfg.domains:
            out[f"domain.{d.name}.{key}"] = as_json(get(d))
    if "domain" in sections:
        out["domains"] = [d.name for d in cfg.domains]
    return out


def load_config(path, overrides=()) -> ExperimentConfig:
    """The config file at path, with overrides as in validate_config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text at byte offset {exc.start}") from None
    return validate_config(text, overrides)
