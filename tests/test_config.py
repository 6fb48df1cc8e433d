"""Config schema validation tests."""
import pytest

from fusim.config import ConfigError, load_config, validate_config


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


FLOAT_KEYS = [("partition", "alpha"), ("training", "learning_rate"),
              ("training", "epsilon"), ("unlearn", "top_m_fraction"),
              ("evaluate", "val_fraction"), ("evaluate", "test_fraction")]


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS)
def test_non_finite_float_names_key_and_line(section, key, raw):
    text = f"[experiment]\nseed = 1\n[{section}]\n{key} = {raw}\n"
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    assert f"{section}.{key}: expected a finite number, got {raw!r}" in str(exc.value)
    assert exc.value.line == 4
