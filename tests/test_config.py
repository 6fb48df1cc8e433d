"""Config schema validation tests."""
import dataclasses
import re
from pathlib import Path

import pytest

from fusim.config import KEYS, ConfigError, load_config, validate_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_minimal_config_fills_defaults():
    cfg = validate_config("")
    assert cfg.unlearn.riemann_steps == 20
    assert cfg.unlearn.top_n == 32
    assert cfg.partition.alpha == 100.0
    assert cfg.unlearn.select_n == 16
    assert [d.name for d in cfg.domains] == ["clean", "noisy", "cluttered"]
    assert cfg.partition.strategy == "real_noniid"
    assert cfg.partition.group_sizes == (3, 3, 3)
    assert cfg.model_spec == "small_mlp"
    assert cfg.unlearn.route == "none"


def test_negative_alpha_names_key_and_line():
    text = "[partition]\nalpha = -1\n"
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert "partition.alpha" in str(exc.value)
    assert "line 2" in str(exc.value)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as exc:
        validate_config("[training]\nmomentum = 0.9\n")
    assert "training.momentum" in str(exc.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as exc:
        validate_config("[optimizer]\nkind = adam\n")
    assert "optimizer" in str(exc.value)


def test_unknown_route_rejected():
    with pytest.raises(ConfigError):
        validate_config("[unlearn]\nroute = distill\n")


def test_forget_class_range_checked():
    with pytest.raises(ConfigError) as exc:
        validate_config("[data]\nclass_count = 4\n[unlearn]\nforget_class = 7\n")
    assert "forget_class" in str(exc.value)


def test_requesting_clients_range_checked():
    with pytest.raises(ConfigError):
        validate_config("[unlearn]\nrequesting_clients = 42\n")


def test_group_sizes_must_match_domains():
    text = "[domain.a]\ntransform = identity\n[partition]\ngroup_sizes = 2,2\n"
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert "group_sizes" in str(exc.value)


def test_iid_needs_single_domain():
    text = ("[domain.a]\ntransform = identity\n[domain.b]\ntransform = invert\n"
            "[partition]\nstrategy = iid\ngroup_sizes = 1,1\n")
    with pytest.raises(ConfigError):
        validate_config(text)


def test_missing_idx_file_rejected():
    text = "[domain.real]\nimages = nope-images\nlabels = nope-labels\n"
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert "not found" in str(exc.value)


def test_bad_transform_chain_reports_domain():
    with pytest.raises(ConfigError) as exc:
        validate_config("[domain.x]\ntransform = sharpen(3)\n")
    assert "domain.x.transform" in str(exc.value)


@pytest.mark.parametrize("chain", ["gaussian_noise(abc)", "gaussian_noise()", "gaussian_noise",
                                   "downsample(x)", "gaussian_noise(nan)",
                                   "gaussian_noise(inf)", "invert(3)", "identity(1)"])
def test_bad_transform_argument_names_key_and_line(chain):
    text = f"[domain.clean]\ntransform = identity\n[domain.x]\ntransform = {chain}\n"
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert str(exc.value).startswith("line 4: domain.x.transform: ")
    assert exc.value.line == 4


def test_benchmark_config_parses_to_table_analogue():
    cfg = load_config("configs/digits3.ini")
    assert cfg.partition.strategy == "real_noniid"
    assert cfg.partition.group_sizes == (3, 3, 3)
    assert sum(cfg.partition.group_sizes) == 9
    assert len(cfg.domains) == 3
    assert cfg.class_count == 10
    assert cfg.partition.working_resolution == (16, 16)
    assert cfg.unlearn.riemann_steps == 20


def test_pair_config_parses():
    cfg = load_config("configs/pair2.ini")
    assert cfg.partition.group_sizes == (1, 5)
    assert cfg.unlearn.route == "fedcccu"
    assert cfg.domains[1].transforms[0].kind == "invert"


def test_select_n_defaults_to_half_top_n():
    cfg = validate_config("[unlearn]\ntop_n = 10\n")
    assert cfg.unlearn.select_n == 5


FLOAT_KEYS = [(section, key) for section, key, _, kind, _ in KEYS if kind == "float"]


def test_float_keys_come_from_the_table():
    assert {("partition", "alpha"), ("training", "learning_rate"), ("training", "epsilon"),
            ("unlearn", "top_m_fraction"), ("evaluate", "val_fraction"),
            ("evaluate", "test_fraction")} <= set(FLOAT_KEYS)


def test_table_holds_the_thirty_section_keys_and_five_domain_keys():
    names = [(section, key) for section, key, *_ in KEYS]
    assert len(set(names)) == len(names) == 35
    assert sum(section == "domain" for section, _ in names) == 5


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS)
def test_non_finite_float_names_key_and_line(section, key, raw):
    text = f"[experiment]\nseed = 1\n[{section}]\n{key} = {raw}\n"
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert f"{section}.{key}: expected a finite number, got {raw!r}" in str(exc.value)
    assert exc.value.line == 4


def key_text(section: str, key: str, value: str) -> tuple[str, str]:
    """Config text that sets one key on line 4, and the name errors give it."""
    header = "domain.x" if section == "domain" else section
    return f"# one key\n\n[{header}]\n{key} = {value}\n", f"{header}.{key}"


def out_of_range(kind: str, bounds) -> list[str]:
    """Values just outside a row's bounds: below, and above when finite."""
    if kind == "choice":
        return ["bogus"]
    lo, hi = bounds[1:-1].split(", ")
    values = [lo if bounds[0] == "(" else str(float(lo) - 0.5 if kind == "float"
                                              else int(lo) - 1)]
    if hi != "inf":
        values.append(hi if bounds[-1] == ")" else str(float(hi) * 2))
    return values


BOUNDED = [(section, key, value) for section, key, _, kind, bounds in KEYS if bounds
           for value in out_of_range(kind, bounds)]


@pytest.mark.parametrize("section,key,value", BOUNDED)
def test_every_bounded_key_refuses_a_value_out_of_range(section, key, value):
    text, name = key_text(section, key, value)
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert str(exc.value).startswith(f"line 4: {name}: ")
    assert exc.value.line == 4


@pytest.mark.parametrize("section,key", [(section, key) for section, key, _, kind, _ in KEYS
                                         if kind in ("int", "float", "ints")])
def test_every_numeric_key_refuses_text(section, key):
    text, name = key_text(section, key, "abc")
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert str(exc.value).startswith(f"line 4: {name}: expected ")
    assert str(exc.value).endswith("got 'abc'")


def test_out_of_range_message_names_the_range():
    with pytest.raises(ConfigError, match=re.escape(
            "line 2: partition.alpha: -1.0 outside allowed range (0.0, inf]")):
        validate_config("[partition]\nalpha = -1\n")
    with pytest.raises(ConfigError, match=re.escape(
            "--seed: experiment.seed: -1 outside allowed range [0, inf]")):
        validate_config("", [("--seed", "experiment.seed", "-1")])


def test_overrides_replace_the_text_value():
    cfg = validate_config("[experiment]\nseed = 4\n[unlearn]\nroute = delete\n",
                          [("--seed", "experiment.seed", "9"),
                           ("--route", "unlearn.route", "zeroing")])
    assert (cfg.seed, cfg.unlearn.route) == (9, "zeroing")


def readme_reference() -> list[tuple[str, str, str]]:
    """(section, key, value) of each key in README's config reference block;
    the [domain.<name>] keys have section "domain"."""
    block = README.read_text().split("## Config reference", 1)[1]
    block = block.split("```ini", 1)[1].split("```", 1)[0]
    found, section = [], None
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]").split(".")[0]
        elif "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            found.append((section, key, value))
    return found


def test_readme_config_reference_lists_the_table():
    assert sorted((s, k) for s, k, _ in readme_reference()) == \
        sorted((s, k) for s, k, *_ in KEYS)


PLACEHOLDERS = ("runs/<name>", "...", "path")


@pytest.mark.parametrize("section,key,value", [
    entry for entry in readme_reference() if entry[2] not in PLACEHOLDERS])
def test_readme_defaults_parse_to_the_table_defaults(section, key, value):
    """The table's default of a key is the default of the dataclass field
    that holds it."""
    attr = next(row[2] for row in KEYS if row[:2] == (section, key))
    holder, _, name = attr.rpartition(".")
    parsed = validate_config(key_text(section, key, value)[0])
    if section == "domain":
        parsed = parsed.domains[0]
    elif holder:
        parsed = getattr(parsed, holder)
    default = {f.name: f.default for f in dataclasses.fields(parsed)}[name]
    assert getattr(parsed, name) == default
