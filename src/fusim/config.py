"""Experiment configuration: INI-style text with a strict, documented schema.

The schema is one table, KEYS: a row per key gives the field that holds its
value, the kind of text it takes and its bounds; the key's default is that
field's default.  Unknown sections or keys are rejected; a bad value names
the key and the line it came from (or the command-line flag that set it).
Every key has a default, so the minimal valid config is an empty file: it
describes the reference benchmark (three synthetic domains, three clients
each, small MLP at 16x16).
"""
from __future__ import annotations

import configparser
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
    riemann_steps: int = 20
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
# every number of an int, float or ints key, and the values of a choice key.
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
    ("domain", "resolution", "resolution", "res", None),
    ("domain", "samples_per_class", "samples_per_class", "int", "[4, inf]"),
    ("domain", "images", "images_path", "str", None),
    ("domain", "labels", "labels_path", "str", None),
    ("partition", "strategy", "partition.strategy", "choice", STRATEGIES),
    ("partition", "clients", "partition.clients", "int", "[1, inf]"),
    ("partition", "alpha", "partition.alpha", "float", "(0, inf]"),
    ("partition", "group_sizes", "partition.group_sizes", "ints", "[1, inf]"),
    ("partition", "working_resolution", "partition.working_resolution", "res", None),
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
    ("unlearn", "riemann_steps", "unlearn.riemann_steps", "int", "[1, inf]"),
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


def _parse(row: tuple, raw: str, what: str, where) -> object:
    """One key's value from its text, checked against its row's kind and bounds."""
    kind, bounds = row[3], row[4]
    if kind == "str":
        return raw
    if kind == "choice":
        if raw not in bounds:
            raise ConfigError(f"{what}: {raw!r} not one of {sorted(bounds)}", where)
        return raw
    if kind == "res":
        m = re.fullmatch(r"(\d+)\s*[xX]\s*(\d+)", raw)
        if not m:
            raise ConfigError(f"{what}: expected HxW, got {raw!r}", where)
        return int(m.group(1)), int(m.group(2))
    if kind == "chain":
        try:
            return parse_transforms(raw)
        except DatasetError as exc:
            raise ConfigError(f"{what}: {exc}", where) from exc
    number = float if kind == "float" else int
    try:
        values = tuple(number(v) for v in raw.split(",") if v.strip()) \
            if kind == "ints" else (number(raw),)
    except ValueError:
        raise ConfigError(f"{what}: expected {_EXPECTED[kind]}, got {raw!r}", where) from None
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
    return values if kind == "ints" else values[0]


@functools.lru_cache(maxsize=4)
def _read(text: str) -> tuple:
    """The text's sections in order, each (section, header line, ((key, value,
    line), ...)), every value parsed and checked by its key's row.  Cached,
    as compare validates one text once per route."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError(f"cannot parse config: {exc.message}", line) from exc
    lines = _line_map(text)
    sections = []
    for section in parser.sections():
        table = "domain" if section.startswith("domain.") else section
        if section == "domain.":
            raise ConfigError("domain section needs a name: [domain.<name>]",
                              lines.get((section, None)))
        if table not in {row[0] for row in KEYS}:
            raise ConfigError(f"unknown section [{section}]", lines.get((section, None)))
        keys = []
        for key, raw in parser.items(section):
            line = lines.get((section, key))
            if (table, key) not in _ROWS:
                raise ConfigError(f"unknown key {section}.{key}", line)
            keys.append((key, _parse(_ROWS[table, key], raw.strip(), f"{section}.{key}", line),
                         line))
        sections.append((section, lines.get((section, None)), tuple(keys)))
    return tuple(sections)


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
    if p.strategy in ("iid", "dirichlet") and len(domains) != 1:
        raise ConfigError(
            f"partition.strategy {p.strategy!r} needs exactly one domain, "
            f"got {len(domains)}", where("partition", "strategy"))
    if u.forget_class >= cfg.class_count:
        raise ConfigError(
            f"unlearn.forget_class: {u.forget_class} >= class_count {cfg.class_count}",
            where("unlearn", "forget_class"))
    total_clients = sum(p.group_sizes) if p.strategy == "real_noniid" else p.clients
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
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(fh.read(), overrides)
