"""Experiment configuration: INI-style text with a strict, documented schema.

Unknown sections or keys are rejected; range violations name the key and the
line it came from.  Every key has a default, so the minimal valid config is
an empty file: it describes the reference benchmark (three synthetic domains,
three clients each, small MLP at 16x16).
"""
from __future__ import annotations

import configparser
import math
import os
import re
from dataclasses import dataclass, field

from .datasets import DatasetError, Transform, parse_transforms

ROUTES = ("none", "delete", "relabel", "zeroing", "fedcccu")
STRATEGIES = ("iid", "dirichlet", "real_noniid")
MODEL_SPECS = ("small_mlp", "small_cnn")

DEFAULT_DOMAINS = (
    ("clean", "identity"),
    ("noisy", "gaussian_noise(0.15)"),
    ("cluttered", "downsample(2)+background_clutter(0.35)"),
)


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class DomainConfig:
    name: str
    kind: str                      # synthetic | idx
    transforms: tuple[Transform, ...] = ()
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

    def comparable_key(self) -> tuple:
        """Everything a route comparison requires to be held fixed."""
        return (self.name, self.seed, self.model_spec, self.hidden,
                self.class_count, self.samples_per_class, self.base_pattern_seed,
                self.domains, self.partition, self.training,
                self.unlearn.forget_class, self.unlearn.requesting_clients,
                self.evaluate)


# ---------------------------------------------------------------------------
# Parsing helpers


_SCHEMA: dict[str, set[str]] = {
    "experiment": {"name", "seed", "out_dir"},
    "model": {"spec", "hidden"},
    "data": {"class_count", "samples_per_class", "base_pattern_seed"},
    "partition": {"strategy", "clients", "alpha", "group_sizes", "working_resolution"},
    "training": {"rounds_max", "local_epochs", "batch_size", "learning_rate",
                 "epsilon", "checkpoint_every"},
    "unlearn": {"route", "forget_class", "requesting_clients", "rounds_max",
                "top_m_fraction", "riemann_steps", "top_n", "select_n", "probe_cap"},
    "evaluate": {"val_fraction", "test_fraction"},
}
_DOMAIN_KEYS = {"transform", "resolution", "samples_per_class", "images", "labels"}


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


class _Reader:
    def __init__(self, parser: configparser.ConfigParser,
                 lines: dict[tuple[str, str], int]):
        self.parser = parser
        self.lines = lines

    def where(self, section: str, key: str | None = None) -> int | None:
        return self.lines.get((section, key))

    def get(self, section, key, default):
        if not self.parser.has_section(section) or not self.parser.has_option(section, key):
            return default
        return self.parser.get(section, key).strip()

    def get_int(self, section, key, default, lo=None, hi=None):
        raw = self.get(section, key, None)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}: expected an integer, got {raw!r}",
                              self.where(section, key))
        self._check_range(section, key, value, lo, hi)
        return value

    def get_float(self, section, key, default, lo=None, hi=None,
                  lo_open=False, hi_open=False):
        raw = self.get(section, key, None)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}: expected a number, got {raw!r}",
                              self.where(section, key))
        if not math.isfinite(value):
            raise ConfigError(f"{section}.{key}: expected a finite number, got {raw!r}",
                              self.where(section, key))
        self._check_range(section, key, value, lo, hi, lo_open, hi_open)
        return value

    def get_choice(self, section, key, default, choices):
        raw = self.get(section, key, None)
        if raw is None:
            return default
        if raw not in choices:
            raise ConfigError(
                f"{section}.{key}: {raw!r} not one of {sorted(choices)}",
                self.where(section, key))
        return raw

    def _check_range(self, section, key, value, lo, hi, lo_open=False, hi_open=False):
        bad = ((lo is not None and (value <= lo if lo_open else value < lo))
               or (hi is not None and (value >= hi if hi_open else value > hi)))
        if bad:
            lo_b = "(" if lo_open else "["
            hi_b = ")" if hi_open else "]"
            raise ConfigError(
                f"{section}.{key}: {value} outside allowed range "
                f"{lo_b}{lo if lo is not None else '-inf'}, "
                f"{hi if hi is not None else 'inf'}{hi_b}",
                self.where(section, key))


def _parse_resolution(raw: str, where, what: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)\s*[xX]\s*(\d+)", raw.strip())
    if not m:
        raise ConfigError(f"{what}: expected HxW, got {raw!r}", where)
    return int(m.group(1)), int(m.group(2))


def _parse_int_list(raw: str, where, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(v.strip()) for v in raw.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"{what}: expected comma-separated integers, got {raw!r}",
                          where)
    if not values:
        raise ConfigError(f"{what}: empty list", where)
    return values


def validate_config(text: str) -> ExperimentConfig:
    """Parse and validate config text into a fully-defaulted ExperimentConfig."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError(f"cannot parse config: {exc.message}", line) from exc
    lines = _line_map(text)
    reader = _Reader(parser, lines)

    for section in parser.sections():
        if section.startswith("domain."):
            name = section[len("domain."):]
            if not name:
                raise ConfigError("domain section needs a name: [domain.<name>]",
                                  reader.where(section))
            for key in parser.options(section):
                if key not in _DOMAIN_KEYS:
                    raise ConfigError(f"unknown key {section}.{key}",
                                      reader.where(section, key))
        elif section in _SCHEMA:
            for key in parser.options(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {section}.{key}",
                                      reader.where(section, key))
        else:
            raise ConfigError(f"unknown section [{section}]", reader.where(section))

    name = reader.get("experiment", "name", "experiment")
    seed = reader.get_int("experiment", "seed", 0, lo=0)
    out_dir = reader.get("experiment", "out_dir", os.path.join("runs", name))

    model_spec = reader.get_choice("model", "spec", "small_mlp", MODEL_SPECS)
    hidden = reader.get_int("model", "hidden", 128, lo=1)

    class_count = reader.get_int("data", "class_count", 10, lo=2)
    samples_per_class = reader.get_int("data", "samples_per_class", 150, lo=4)
    base_pattern_seed = reader.get_int("data", "base_pattern_seed", 40, lo=0)

    domains = []
    for section in parser.sections():
        if not section.startswith("domain."):
            continue
        dname = section[len("domain."):]
        images = reader.get(section, "images", None)
        labels = reader.get(section, "labels", None)
        if (images is None) != (labels is None):
            raise ConfigError(f"{section}: images and labels must come together",
                              reader.where(section))
        if images is not None:
            for p, key in ((images, "images"), (labels, "labels")):
                if not os.path.exists(p):
                    raise ConfigError(f"{section}.{key}: file not found: {p}",
                                      reader.where(section, key))
            domains.append(DomainConfig(dname, "idx", images_path=images,
                                        labels_path=labels))
            continue
        raw_tf = reader.get(section, "transform", "identity")
        try:
            transforms = parse_transforms(raw_tf)
        except DatasetError as exc:
            raise ConfigError(f"{section}.transform: {exc}",
                              reader.where(section, "transform")) from exc
        resolution = _parse_resolution(reader.get(section, "resolution", "16x16"),
                                       reader.where(section, "resolution"),
                                       f"{section}.resolution")
        spc = reader.get_int(section, "samples_per_class", None, lo=4)
        domains.append(DomainConfig(dname, "synthetic", transforms=transforms,
                                    resolution=resolution, samples_per_class=spc))
    if not domains:
        domains = [DomainConfig(dn, "synthetic", transforms=parse_transforms(tf))
                   for dn, tf in DEFAULT_DOMAINS]

    strategy = reader.get_choice("partition", "strategy", "real_noniid", STRATEGIES)
    clients = reader.get_int("partition", "clients", 9, lo=1)
    alpha = reader.get_float("partition", "alpha", 100.0, lo=0.0, lo_open=True)
    raw_groups = reader.get("partition", "group_sizes", None)
    if raw_groups is not None:
        group_sizes = _parse_int_list(raw_groups, reader.where("partition", "group_sizes"),
                                      "partition.group_sizes")
        if any(g < 1 for g in group_sizes):
            raise ConfigError("partition.group_sizes: entries must be >= 1",
                              reader.where("partition", "group_sizes"))
    else:
        group_sizes = tuple(1 for _ in domains) if strategy == "real_noniid" \
            and len(domains) != 3 else (3, 3, 3)
    working_resolution = _parse_resolution(
        reader.get("partition", "working_resolution", "16x16"),
        reader.where("partition", "working_resolution"), "partition.working_resolution")
    if strategy == "real_noniid" and len(group_sizes) != len(domains):
        raise ConfigError(
            f"partition.group_sizes: {len(group_sizes)} groups for "
            f"{len(domains)} domains", reader.where("partition", "group_sizes"))
    if strategy in ("iid", "dirichlet") and len(domains) != 1:
        raise ConfigError(
            f"partition.strategy {strategy!r} needs exactly one domain, "
            f"got {len(domains)}", reader.where("partition", "strategy"))
    partition = PartitionConfig(strategy, clients, alpha, group_sizes,
                                working_resolution)

    training = TrainingConfig(
        rounds_max=reader.get_int("training", "rounds_max", 50, lo=0),
        local_epochs=reader.get_int("training", "local_epochs", 1, lo=0),
        batch_size=reader.get_int("training", "batch_size", 32, lo=1),
        learning_rate=reader.get_float("training", "learning_rate", 0.5,
                                       lo=0.0, lo_open=True),
        epsilon=reader.get_float("training", "epsilon", 0.10, lo=0.0, hi=1.0,
                                 lo_open=True, hi_open=True),
        checkpoint_every=reader.get_int("training", "checkpoint_every", 0, lo=0),
    )

    route = reader.get_choice("unlearn", "route", "none", ROUTES)
    forget_class = reader.get_int("unlearn", "forget_class", 0, lo=0)
    if forget_class >= class_count:
        raise ConfigError(
            f"unlearn.forget_class: {forget_class} >= class_count {class_count}",
            reader.where("unlearn", "forget_class"))
    raw_req = reader.get("unlearn", "requesting_clients", "0")
    requesting = _parse_int_list(raw_req, reader.where("unlearn", "requesting_clients"),
                                 "unlearn.requesting_clients")
    total_clients = sum(group_sizes) if strategy == "real_noniid" else clients
    if any(r < 0 or r >= total_clients for r in requesting):
        raise ConfigError(
            f"unlearn.requesting_clients: ids must be in [0, {total_clients})",
            reader.where("unlearn", "requesting_clients"))
    top_n = reader.get_int("unlearn", "top_n", 32, lo=1)
    unlearn = UnlearnConfig(
        route=route,
        forget_class=forget_class,
        requesting_clients=tuple(sorted(set(requesting))),
        rounds_max=reader.get_int("unlearn", "rounds_max", 20, lo=0),
        top_m_fraction=reader.get_float("unlearn", "top_m_fraction", 0.1,
                                        lo=0.0, hi=1.0, lo_open=True),
        riemann_steps=reader.get_int("unlearn", "riemann_steps", 20, lo=1),
        top_n=top_n,
        select_n=reader.get_int("unlearn", "select_n", max(1, top_n // 2), lo=0),
        probe_cap=reader.get_int("unlearn", "probe_cap", 256, lo=1),
    )

    evaluate = EvaluateConfig(
        val_fraction=reader.get_float("evaluate", "val_fraction", 0.1,
                                      lo=0.0, hi=0.5, lo_open=True, hi_open=True),
        test_fraction=reader.get_float("evaluate", "test_fraction", 0.1,
                                       lo=0.0, hi=0.5, lo_open=True, hi_open=True),
    )

    return ExperimentConfig(
        name=name, seed=seed, out_dir=out_dir, model_spec=model_spec, hidden=hidden,
        class_count=class_count, samples_per_class=samples_per_class,
        base_pattern_seed=base_pattern_seed, domains=tuple(domains),
        partition=partition, training=training, unlearn=unlearn, evaluate=evaluate)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(fh.read())
