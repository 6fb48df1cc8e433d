"""Config schema validation tests."""
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusim import cli, config, experiment
from fusim.config import KEYS, ConfigError, load_config, validate_config
from fusim.datasets import TRANSFORM_KINDS
from helpers import reference_read

README = Path(__file__).resolve().parent.parent / "README.md"


def test_minimal_config_fills_defaults():
    cfg = validate_config("")
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


def test_a_config_that_sets_riemann_steps_is_refused(tmp_path, caplog):
    """unlearn.riemann_steps went when fedcccu's score became the limit of
    its Riemann sum: a config that still sets it exits 1 and names the key,
    as any unknown key does, before the command writes anything."""
    text = (README.parent / "configs" / "digits3.ini").read_text()
    assert "riemann_steps" not in text
    path = tmp_path / "old.ini"
    path.write_text(text.replace("[unlearn]\n", "[unlearn]\nriemann_steps = 20\n"))
    out = tmp_path / "o"
    argv = ["run", "--config", str(path), "--route", "fedcccu", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "unknown key unlearn.riemann_steps" in caplog.text
    assert not out.exists()


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as exc:
        validate_config("[optimizer]\nkind = adam\n")
    assert "optimizer" in str(exc.value)


@pytest.mark.parametrize("text, line", [
    ("[DEFAULT]\nseed = 5\n", 1),
    ("[experiment]\nseed = 1\n[DEFAULT]\nbogus = 2\n[training]\nrounds_max = 3\n", 3),
])
def test_default_section_is_an_unknown_section(tmp_path, caplog, text, line):
    """[DEFAULT] is no section of the schema, so it is refused by name and
    line like any other unknown section, and the command exits 1."""
    with pytest.raises(ConfigError, match=rf"^line {line}: unknown section \[DEFAULT\]$"):
        validate_config(text)
    path = tmp_path / "default.ini"
    path.write_text(text)
    assert cli.main(["partition", "--config", str(path), "--out", str(tmp_path / "o")]) \
        == cli.EXIT_CONFIG
    assert f"line {line}: unknown section [DEFAULT]" in caplog.text
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# The grammar: one pass over the lines, checked against the configparser reader


def numbers(bounds, number):
    """Text of a number inside a row's bounds."""
    lo, hi = (float(t) for t in bounds[1:-1].split(", "))
    if number is int:
        return st.integers(int(lo), int(lo) + 40).map(str)
    return st.floats(lo, min(hi, 1e6), exclude_min=bounds[0] == "(",
                     exclude_max=bounds[-1] == ")").map(repr)


# A word of a str value: a # or ; inside it, never at its start, where it
# would follow whitespace and start a comment.
WORDS = st.from_regex(r"[A-Za-z0-9_./-][A-Za-z0-9_./#;=:-]{0,6}", fullmatch=True)
ARGUMENTS = {"gaussian_noise": "(0.1)", "downsample": "(2)", "background_clutter": "(0.35)"}


def values(row):
    """Text of a valid value of the row's key."""
    kind, bounds = row[3], row[4]
    if kind == "choice":
        return st.sampled_from(bounds)
    if kind == "str":
        return st.lists(WORDS, max_size=3).map(" ".join)
    if kind == "chain":
        return st.tuples(st.lists(st.sampled_from(TRANSFORM_KINDS), min_size=1, max_size=3),
                         st.sampled_from(["+", " + "])).map(
            lambda t: t[1].join(tf + ARGUMENTS.get(tf, "") for tf in t[0]))
    if kind == "res":
        side = numbers(bounds, int)
        return st.tuples(side, st.sampled_from(["x", "X", " x "]), side).map("".join)
    if kind == "ints":
        return st.tuples(st.lists(numbers(bounds, int), min_size=1, max_size=4),
                         st.sampled_from([",", ", "])).map(lambda t: t[1].join(t[0]))
    return numbers(bounds, float if kind == "float" else int)


SPACES = st.sampled_from(["", " ", "  ", "\t"])
# An inline comment holds no second # or ; after whitespace: configparser then
# kept part of the comment in a value holding the other prefix (a#b # c ;d
# read a#b # c), where the one-pass reader stops at the first.
COMMENTS = st.sampled_from(["", " # note", "\t; note", "  #", " ;note = 3"])
NOISE = st.lists(st.sampled_from(["", "   ", "# note", "; a = b", "  # [training]",
                                  "\t;x"]), max_size=2)


@st.composite
def config_texts(draw):
    """Valid config text over any sections of the table, domain sections
    among them, in any order, each with any of its keys in any order.  Key
    lines of a section are indented no deeper than the key line before them,
    so that configparser reads no line as the continuation of a value."""
    names = draw(st.lists(st.from_regex(r"[A-Za-z0-9_]{1,5}", fullmatch=True),
                          unique=True, max_size=3))
    tables = sorted({row[0] for row in KEYS} - {"domain"})
    sections = draw(st.permutations(tables + [f"domain.{n}" for n in names]))
    lines = draw(NOISE)
    for section in sections[:draw(st.integers(0, len(sections)))]:
        lines.append(f"[{section}]" + draw(COMMENTS))
        table = "domain" if section.startswith("domain.") else section
        rows = draw(st.permutations([row for row in KEYS if row[0] == table]))
        rows = rows[:draw(st.integers(0, len(rows)))]
        indents = sorted(draw(st.lists(SPACES, min_size=len(rows), max_size=len(rows))),
                         key=len, reverse=True)
        for row, indent in zip(rows, indents):
            case = draw(st.sampled_from([str.lower, str.upper, str.title]))
            lines.append(f"{indent}{case(row[1])}{draw(SPACES)}{draw(st.sampled_from('=:'))}"
                         f"{draw(SPACES)}{draw(values(row))}{draw(COMMENTS)}")
            lines += draw(NOISE)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=200)
@given(config_texts())
def test_read_equals_the_configparser_reader_on_valid_text(text):
    assert config._read(text) == reference_read(text)


@pytest.mark.parametrize("name", ["digits3.ini", "pair2.ini"])
def test_reference_configs_validate_as_under_the_configparser_reader(monkeypatch, name):
    path = README.parent / "configs" / name
    cfg = load_config(path)
    monkeypatch.setattr(config, "_read", reference_read)
    assert load_config(path) == cfg


@pytest.mark.parametrize("text, line, message", [
    ("[training]\nthis is not a key\n", 2,
     "not a [section] or key = value line: 'this is not a key'"),
    ("# seed first\nseed = 1\n[experiment]\n", 2, "key seed before any [section] header"),
    ("[experiment]\nseed = 1\n\nSeed: 2\n", 4,
     "repeated key experiment.seed, first on line 2"),
    ("[training]\nrounds_max = 3\n[model]\n[training]\n", 4,
     "repeated section [training], first on line 1"),
    ("[experiment]\nseed = 1\n[DEFAULT]\nseed = 2\n", 3, "unknown section [DEFAULT]"),
    ("[domain.a]\ntransform = invert\n    +gaussian_noise(0.1)\n", 3,
     "not a [section] or key = value line: '+gaussian_noise(0.1)'"),
    ("[domain]\ntransform = identity\n", 1, "domain section needs a name: [domain.<name>]"),
    ("[training] rounds_max = 3\n", 1,
     "not a [section] or key = value line: '[training] rounds_max = 3'"),
    ("[training]\n= 3\n", 2, "not a [section] or key = value line: '= 3'"),
])
def test_every_refused_text_names_its_line(text, line, message):
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert str(exc.value) == f"line {line}: {message}"
    assert exc.value.line == line


def test_an_indented_key_is_a_key_of_its_own():
    """No line continues the value of the key before it."""
    cfg = validate_config("[experiment]\nname = a\n  seed = 9\n")
    assert (cfg.name, cfg.seed, cfg.out_dir) == ("a", 9, "runs/a")


def test_spaces_inside_a_header_are_stripped():
    assert config._read("# x\n[ training ]\nrounds_max = 3\n") == \
        (("training", 2, (("rounds_max", 3, 3),)),)


@pytest.mark.parametrize("line, name", [
    ("name = a#b", "a#b"),
    ("name=#b", "#b"),
    ("name = a;b ;c", "a;b"),
    ("name = # c", ""),
    ("name = a#b # c ;d", "a#b"),
])
def test_a_comment_starts_at_the_first_prefix_after_whitespace(line, name):
    assert validate_config(f"[experiment]\n{line}\n").name == name


def test_a_config_file_that_is_not_utf8_is_refused(tmp_path, caplog):
    """Byte 0xff begins no UTF-8 character: the command exits 1, naming the
    file and the byte's offset, and writes nothing."""
    data = b"[experiment]\r\nname = caf\xff\n"
    path = tmp_path / "latin.ini"
    path.write_bytes(data)
    out = tmp_path / "o"
    assert cli.main(["partition", "--config", str(path), "--out", str(out)]) == \
        cli.EXIT_CONFIG
    assert data.index(b"\xff") == 24
    assert f"config: {path}: not UTF-8 text at byte offset 24" in caplog.text
    assert not out.exists()


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


@pytest.mark.parametrize("resolution", ["8x8", "9x12", "12x9"])
def test_small_cnn_below_ten_by_ten_names_the_working_resolution(tmp_path, caplog,
                                                                 resolution):
    """Two conv/pool blocks leave no feature map below 10x10: a config error
    (exit 1) naming the key and its line, not a failed first stage."""
    text = f"[model]\nspec = small_cnn\n[partition]\nworking_resolution = {resolution}\n"
    with pytest.raises(ConfigError, match=r"^line 4: partition\.working_resolution: "
                                          r"small_cnn needs at least 10x10$"):
        validate_config(text)
    path = tmp_path / "cnn.ini"
    path.write_text(text)
    assert cli.main(["partition", "--config", str(path), "--out", str(tmp_path / "o")]) \
        == cli.EXIT_CONFIG
    assert "partition.working_resolution" in caplog.text
    assert not (tmp_path / "o").exists()
    assert validate_config(text.replace(resolution, "10x10")).partition.working_resolution \
        == (10, 10)
    validate_config(text.replace("small_cnn", "small_mlp"))


def test_small_cnn_refuses_a_hidden_width(tmp_path, caplog):
    """small_cnn has no hidden width: a hidden key would have no effect on the
    model, yet a finished directory would refuse a changed one, so it is
    refused, naming the key and its line, and the command exits 1 before
    building anything."""
    text = "[model]\nspec = small_cnn\nhidden = 64\n[partition]\nworking_resolution = 10x10\n"
    with pytest.raises(ConfigError, match=r"^line 3: model\.hidden: small_cnn "):
        validate_config(text)
    path = tmp_path / "cnn.ini"
    path.write_text(text)
    assert cli.main(["partition", "--config", str(path), "--out", str(tmp_path / "o")]) \
        == cli.EXIT_CONFIG
    assert "model.hidden" in caplog.text
    assert not (tmp_path / "o").exists()
    assert validate_config(text.replace("hidden = 64\n", "")).model_spec == "small_cnn"
    assert validate_config(text.replace("small_cnn", "small_mlp")).hidden == 64


@pytest.mark.parametrize("section, key, bad, least", [
    ("partition", "working_resolution", "0x16", "1x1"),
    ("domain.a", "resolution", "0x5", "4x4"),
])
def test_resolution_below_its_bound_names_the_key(tmp_path, caplog, section, key, bad,
                                                  least):
    """A working resolution side below 1, or a synthetic domain's below 4, is
    a config error (exit 1) naming the key and its line, not a failed first
    stage; the least allowed resolution is accepted."""
    text = f"[{section}]\n{key} = {bad}\n"
    with pytest.raises(ConfigError, match=rf"^line 2: {re.escape(section)}\.{key}: "
                                          r"\d+ outside allowed range \["):
        validate_config(text)
    path = tmp_path / "res.ini"
    path.write_text(text)
    assert cli.main(["partition", "--config", str(path), "--out", str(tmp_path / "o")]) \
        == cli.EXIT_CONFIG
    assert f"{section}.{key}" in caplog.text
    assert not (tmp_path / "o").exists()
    validate_config(text.replace(bad, least))


THREE_DOMAINS = """
[data]
samples_per_class = 30
class_count = 4
[domain.a]
transform = identity
resolution = 8x8
[domain.b]
transform = invert
resolution = 8x8
[domain.c]
transform = gaussian_noise(0.15)
resolution = 8x8
[partition]
{partition}
working_resolution = 8x8
"""


@pytest.mark.parametrize("strategy", ["iid", "dirichlet"])
def test_iid_and_dirichlet_split_every_domain(strategy):
    """iid and dirichlet split the train pool of all three domains: every
    client holds examples of each, and every client's test set is the whole
    test pool, the three domains' test sets that real_noniid gives its
    groups, one after another."""
    text = THREE_DOMAINS.format(partition=f"strategy = {strategy}\nclients = 4\nalpha = 1")
    data = experiment.Task(validate_config(text)).data
    assert [sorted(c["domains"]) for c in data.plan.to_doc()["clients"]] == [["a", "b", "c"]] * 4
    per_domain = experiment.Task(validate_config(THREE_DOMAINS.format(
        partition="strategy = real_noniid\ngroup_sizes = 1,1,1"))).data.client_test_sets
    whole = np.concatenate([per_domain[g].images for g in range(3)])
    for test_set in data.client_test_sets.values():
        assert np.shares_memory(test_set.images, data.client_test_sets[0].images)
        assert test_set.images.tobytes() == whole.tobytes()


def test_missing_idx_file_rejected():
    text = "[domain.real]\nimages = nope-images\nlabels = nope-labels\n"
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert "not found" in str(exc.value)


@pytest.mark.parametrize("key, value", [("transform", "invert"), ("resolution", "9x9"),
                                        ("samples_per_class", "4")])
def test_idx_domain_refuses_a_synthetic_key(tmp_path, caplog, key, value):
    """An IDX domain is its two files: a transform, resolution or
    samples_per_class key would have no effect, so it is refused, naming the
    key and its line, and the command exits 1 before building anything."""
    from helpers import write_idx
    write_idx(np.zeros((8, 4, 4)), np.arange(8) % 2, tmp_path / "a-images.idx",
              tmp_path / "a-labels.idx")
    text = (f"[domain.a]\nimages = {tmp_path / 'a-images.idx'}\n"
            f"labels = {tmp_path / 'a-labels.idx'}\n{key} = {value}\n"
            "[partition]\nworking_resolution = 4x4\n")
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert str(exc.value).startswith(f"line 4: domain.a.{key}: ")
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert cli.main(["partition", "--config", str(path), "--out", str(tmp_path / "o")]) \
        == cli.EXIT_CONFIG
    assert f"domain.a.{key}" in caplog.text
    assert not (tmp_path / "o").exists()
    validate_config(text.replace(f"{key} = {value}\n", ""))


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


def test_table_holds_the_twenty_nine_section_keys_and_five_domain_keys():
    names = [(section, key) for section, key, *_ in KEYS]
    assert len(set(names)) == len(names) == 34
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
    """Values just outside a row's bounds: below, and above when finite; for
    a resolution, its second side below."""
    if kind == "choice":
        return ["bogus"]
    lo, hi = bounds[1:-1].split(", ")
    if kind == "res":
        return [f"{lo}x{int(lo) - 1}"]
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
