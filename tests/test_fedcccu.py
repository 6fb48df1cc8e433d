"""Attribution, dominance and pipeline tests."""
import inspect
import json

import numpy as np
import pytest

from fusim import datasets as ds
from fusim import fedcccu as fc
from fusim import fedsim as fs
from fusim import nncore as nn
from fusim.config import UnlearnConfig
from helpers import library_step, on_copied_shard, same_bits, vector


# ---------------------------------------------------------------------------
# Oracle battery: fixed tiny dense nets with healthy activations.


def battery():
    """(spec, params, input, unit, target) cases with beta > 0."""
    cases = []
    spec_a = nn.small_mlp((2,), 2, hidden=2)
    params_a = vector(spec_a, {
        "layer0.weight": [[0.8, -0.3], [0.5, 0.9]],
        "layer0.bias": [0.2, 0.1],
        "layer1.weight": [[1.2, -0.7], [-0.4, 1.0]],
        "layer1.bias": [0.05, -0.05],
    })
    cases.append((spec_a, params_a, np.array([0.9, 0.6]), nn.UnitId(0, 0), 0))
    cases.append((spec_a, params_a, np.array([0.9, 0.6]), nn.UnitId(0, 1), 1))

    spec_b = nn.small_mlp((3,), 3, hidden=4)
    rng = np.random.default_rng(21)
    params_b = nn.init_params(spec_b, 21)
    params_b = params_b + rng.normal(0, 0.4, params_b.shape)
    x_b = np.array([0.7, -0.2, 0.5])
    acts = nn.batch_unit_activations(spec_b, params_b, x_b[None])[0][0]
    for k in range(4):
        # keep units with a live activation and a non-cancelling path integral
        if acts[k] > 0.1 and abs(fc.attribute_unit(
                spec_b, params_b, x_b, 0, nn.UnitId(0, k), 200)) > 0.01:
            cases.append((spec_b, params_b, x_b, nn.UnitId(0, k), 0))
    return cases


def trapezoid_oracle(spec, params, x, unit, target, intervals=2000, delta=1e-6):
    """Independent path integral: finite differences on the scaled forward
    pass only (no backprop), trapezoid rule over the activation path."""
    beta = float(nn.batch_unit_activations(spec, params, x[None])[unit.layer][0, unit.unit])
    if beta == 0.0:
        return 0.0

    def p_at(scale):
        return float(nn.forward_with_scaled_unit(spec, params, x, unit, scale)[target])

    def g_fd(s):
        if s - delta < 0.0:
            return (p_at(s + delta) - p_at(s)) / (delta * beta)
        if s + delta > 1.0:
            return (p_at(s) - p_at(s - delta)) / (delta * beta)
        return (p_at(s + delta) - p_at(s - delta)) / (2 * delta * beta)

    grid = np.linspace(0.0, 1.0, intervals + 1)
    vals = np.array([g_fd(s) for s in grid])
    return beta * np.trapezoid(vals, dx=1.0 / intervals)


# ---------------------------------------------------------------------------
# attribute_unit


def test_attribution_zero_activation_is_exactly_zero():
    spec = nn.small_mlp((2,), 2, hidden=2)
    params = nn.init_params(spec, 3)
    spec.views(params)["layer0.bias"][...] = -50.0  # relu always dead
    att = fc.attribute_unit(spec, params, np.array([1.0, 1.0]), 0, nn.UnitId(0, 0), 20)
    assert att == 0.0


def test_attribution_m1_closed_form():
    for spec, params, x, unit, target in battery():
        att = fc.attribute_unit(spec, params, x, target, unit, 1)
        beta = float(nn.batch_unit_activations(spec, params, x[None])[unit.layer][0, unit.unit])
        g = nn.gradient_wrt_unit(spec, params, x, target, unit, 1.0)
        assert att == pytest.approx(beta * g, rel=1e-12)


def test_attribution_m20_within_5pct_of_m2000():
    for case in battery():
        spec, params, x, unit, target = case
        a20 = fc.attribute_unit(spec, params, x, target, unit, 20)
        a2000 = fc.attribute_unit(spec, params, x, target, unit, 2000)
        assert abs(a2000) > 1e-6
        assert abs(a20 - a2000) / abs(a2000) < 0.05, case


def test_attribution_m2000_within_1pct_of_trapezoid_oracle():
    for case in battery():
        spec, params, x, unit, target = case
        a2000 = fc.attribute_unit(spec, params, x, target, unit, 2000)
        oracle = trapezoid_oracle(spec, params, x, unit, target)
        assert abs(a2000 - oracle) / max(abs(oracle), 1e-9) < 0.01, case


def test_attribution_riemann_refinement_monotone():
    for case in battery():
        spec, params, x, unit, target = case
        ref = fc.attribute_unit(spec, params, x, target, unit, 2000)
        errs = [abs(fc.attribute_unit(spec, params, x, target, unit, m) - ref)
                for m in (5, 20, 100)]
        assert errs[0] >= errs[1] >= errs[2], (case, errs)


def test_attribution_path_extension_identity():
    # funnel model: every path crosses the single hidden unit, so the
    # probability is a fixed function of that unit's activation and the
    # attribution of a doubled input over doubled steps extends the original
    # attribution by exactly the second half of the path.
    # the relu after the hidden unit is inactive: 0.6 * 0.7 - 0.25 * 0.2 > 0
    spec = nn.small_mlp((2,), 3, hidden=1)
    params = vector(spec, {
        "layer0.weight": [[0.7], [-0.2]],
        "layer1.weight": [[1.1, -0.8, 0.3]],
        "layer1.bias": [0.0, 0.1, -0.1],
    })
    x = np.array([0.6, 0.25])
    unit = nn.UnitId(0, 0)
    m = 40
    beta = float(nn.batch_unit_activations(spec, params, x[None])[0][0, 0])
    beta2 = float(nn.batch_unit_activations(spec, params, 2 * x[None])[0][0, 0])
    assert beta2 == 2 * beta
    att_x = fc.attribute_unit(spec, params, x, 0, unit, m)
    att_2x = fc.attribute_unit(spec, params, 2 * x, 0, unit, 2 * m)
    tail = (beta / m) * sum(
        nn.gradient_wrt_unit(spec, params, 2 * x, 0, unit, j / (2 * m))
        for j in range(m + 1, 2 * m + 1))
    assert att_2x == pytest.approx(att_x + tail, rel=1e-10)


# ---------------------------------------------------------------------------
# sensitivity_scores


def small_trained_setup(model="small_mlp"):
    if model == "small_mlp":
        spec = nn.small_mlp((1, 8, 8), 4, hidden=10)
    else:
        spec = nn.small_cnn((1, 10, 10), 4)
    gen = ds.SyntheticDomainSpec(base_pattern_seed=14, resolution=spec.input_shape[1:],
                                 samples_per_class=20, class_count=4)
    shard = ds.synth_domain(gen, 6)
    params = nn.init_params(spec, 5)
    for _ in range(40):
        params = library_step(spec, params, shard.images, shard.labels, 0.5)[0]
    return spec, params, shard


def test_sensitivity_single_example_equals_attribution():
    spec, params, shard = small_trained_setup()
    records = fc.sensitivity_scores(spec, params, shard.images[:1], 0, 10)
    for rec in records:
        att = fc.attribute_unit(spec, params, shard.images[0], 0, rec.unit, 10)
        assert rec.score == pytest.approx(att, rel=1e-9, abs=1e-15)


def test_sensitivity_duplicated_shard_invariant():
    spec, params, shard = small_trained_setup()
    two = shard.images[:2]
    doubled = np.concatenate([two, two])
    a = fc.sensitivity_scores(spec, params, two, 1, 8)
    b = fc.sensitivity_scores(spec, params, doubled, 1, 8)
    for ra, rb in zip(a, b):
        assert ra.unit == rb.unit
        assert ra.score == pytest.approx(rb.score, rel=1e-10, abs=1e-15)


@pytest.mark.parametrize("model", ["small_mlp", "small_cnn"])
def test_sensitivity_two_example_mean_oracle(model):
    # small_cnn: units of both conv layers, the first scored through a suffix
    # that holds the second conv block
    spec, params, shard = small_trained_setup(model)
    two = shard.images[:2]
    records = fc.sensitivity_scores(spec, params, two, 2, 12)
    assert {r.unit.layer for r in records} == set(range(spec.param_layer_count - 1))
    for rec in records:
        a0 = fc.attribute_unit(spec, params, two[0], 2, rec.unit, 12)
        a1 = fc.attribute_unit(spec, params, two[1], 2, rec.unit, 12)
        assert rec.score == pytest.approx((a0 + a1) / 2, rel=1e-9, abs=1e-15)


def test_sensitivity_empty_shard_errors():
    spec, params, _ = small_trained_setup()
    with pytest.raises(fc.CccuError):
        fc.sensitivity_scores(spec, params, np.empty((0, 1, 8, 8)), 0, 5)


def test_sensitivity_rejects_zero_riemann_steps():
    spec, params, shard = small_trained_setup()
    with pytest.raises(fc.CccuError, match="m must be >= 1"):
        fc.sensitivity_scores(spec, params, shard.images[:2], 0, 0)


# ---------------------------------------------------------------------------
# top_n_report


def rec(layer, unit, score, cid=0):
    return fc.SensitivityRecord(nn.UnitId(layer, unit), cid, score)


def test_top_n_keeps_all_when_n_large():
    scores = [rec(0, 0, 0.5), rec(0, 1, 0.9), rec(0, 2, 0.1)]
    report = fc.top_n_report(scores, 3, 10)
    got = report.records_for(0)
    assert [r.score for r in got] == [0.9, 0.5, 0.1]


def test_top_n_selects_best_two():
    scores = [rec(0, 0, 0.5), rec(0, 1, 0.9), rec(0, 2, 0.1)]
    report = fc.top_n_report(scores, 0, 2)
    got = report.records_for(0)
    assert [(r.unit.unit, r.score) for r in got] == [(1, 0.9), (0, 0.5)]


def test_top_n_tie_break_layer_then_unit():
    scores = [rec(1, 3, 0.5), rec(0, 7, 0.5), rec(0, 2, 0.5)]
    report = fc.top_n_report(scores, 0, 3)
    got = report.records_for(0)
    assert [(r.unit.layer, r.unit.unit) for r in got] == [(0, 2), (0, 7), (1, 3)]


# ---------------------------------------------------------------------------
# compute_dominance


def report_of(cid, records, class_id=0):
    return fc.SensitivityReport(cid, {class_id: tuple(records)})


def test_dominance_absent_unit_ratio_zero():
    forget = report_of(0, [rec(0, 1, 0.8)])
    other = report_of(1, [rec(0, 2, 0.9, cid=0)])
    entries = fc.compute_dominance([forget, other], 0, 0)
    assert len(entries) == 1
    assert entries[0].s_max_other == 0.0
    assert entries[0].ratio == 0.0


def test_dominance_shared_unit_ratio_one():
    forget = report_of(0, [rec(0, 1, 0.8)])
    other = report_of(1, [rec(0, 1, 0.8)])
    entries = fc.compute_dominance([forget, other], 0, 0)
    assert entries[0].ratio == 1.0


def test_dominance_forced_arithmetic():
    forget = report_of(0, [rec(0, 1, 0.8)])
    o1 = report_of(1, [rec(0, 1, 0.2)])
    o2 = report_of(2, [rec(0, 1, 0.6)])
    entries = fc.compute_dominance([forget, o1, o2], 0, 0)
    assert entries[0].s_max_other == 0.6
    assert entries[0].ratio == pytest.approx(0.75)


def test_dominance_drops_nonpositive_forget_scores():
    forget = report_of(0, [rec(0, 1, 0.8), rec(0, 2, -0.3), rec(0, 3, 0.0)])
    entries = fc.compute_dominance([forget], 0, 0)
    assert [e.unit.unit for e in entries] == [1]


def test_dominance_negative_other_scores_floored():
    forget = report_of(0, [rec(0, 1, 0.8)])
    other = report_of(1, [rec(0, 1, -0.5)])
    entries = fc.compute_dominance([forget, other], 0, 0)
    assert entries[0].s_max_other == 0.0
    assert entries[0].ratio == 0.0


def test_dominance_missing_forget_report_errors():
    with pytest.raises(fc.CccuError):
        fc.compute_dominance([report_of(1, [rec(0, 1, 0.5)])], 0, 0)


# ---------------------------------------------------------------------------
# rank_select


def entry(layer, unit, s_forget, s_other):
    return fc.DominanceEntry(nn.UnitId(layer, unit), s_forget, s_other,
                             s_other / s_forget)


def test_rank_select_ascending_ratio():
    entries = [entry(0, 0, 1.0, 0.0), entry(0, 1, 1.0, 0.9), entry(0, 2, 1.0, 0.3)]
    sel = fc.rank_select(entries, 2)
    assert [u.unit for u in sel.units] == [0, 2]
    assert not sel.capped


def test_rank_select_zero():
    sel = fc.rank_select([entry(0, 0, 1.0, 0.0)], 0)
    assert sel.units == ()


def test_rank_select_tie_prefers_higher_forget_score():
    entries = [entry(0, 0, 0.4, 0.0), entry(0, 1, 0.9, 0.0)]
    sel = fc.rank_select(entries, 1)
    assert sel.units[0].unit == 1


def test_rank_select_caps_with_warning_flag():
    entries = [entry(0, 0, 1.0, 0.0)]
    sel = fc.rank_select(entries, 5)
    assert sel.capped
    assert len(sel.units) == 1


def test_rank_select_scale_invariant():
    entries = [entry(0, 0, 0.5, 0.2), entry(0, 1, 0.8, 0.1), entry(0, 2, 0.3, 0.25)]
    scaled = [fc.DominanceEntry(e.unit, 7.0 * e.s_forget, 7.0 * e.s_max_other,
                                (7.0 * e.s_max_other) / (7.0 * e.s_forget))
              for e in entries]
    assert fc.rank_select(entries, 2).units == fc.rank_select(scaled, 2).units


# ---------------------------------------------------------------------------
# the edit: nncore.zero_units on a trained model


def test_zero_units_zeroes_activation_on_probes():
    spec, params, shard = small_trained_setup()
    units = [nn.UnitId(0, 3)]
    edited = nn.zero_units(spec, params, units)
    acts = nn.batch_unit_activations(spec, edited, shard.images[:10])[0]
    assert np.all(acts[:, 3] == 0.0)


def test_edit_locality_bit_identical_elsewhere():
    spec, params, _ = small_trained_setup()
    edited = spec.views(nn.zero_units(spec, params, [nn.UnitId(0, 1)]))
    p = spec.views(params)
    w = edited["layer0.weight"]
    keep = [k for k in range(w.shape[1]) if k != 1]
    assert np.array_equal(w[:, keep], p["layer0.weight"][:, keep])
    assert np.array_equal(edited["layer1.weight"], p["layer1.weight"])
    assert np.array_equal(edited["layer1.bias"], p["layer1.bias"])


# ---------------------------------------------------------------------------
# pipeline


def test_probe_examples_of_a_view_equal_those_of_its_copied_shard():
    """The probes of a client viewing its domain are, bit for bit, those of a
    copy of its shard, capped or not; the client's own labels pick them."""
    gen = ds.SyntheticDomainSpec(base_pattern_seed=14, resolution=(8, 8),
                                 samples_per_class=20, class_count=4)
    domain = ds.synth_domain(gen, 6)
    view = fs.ClientState(3, domain, np.arange(len(domain))[::-3])
    for cap in (4, 1000):
        got = fc.probe_examples(view, 0, cap, 7)
        want = fc.probe_examples(on_copied_shard(view), 0, cap, 7)
        assert got.images.tobytes() == want.images.tobytes()
        assert got.labels.tolist() == want.labels.tolist()
        assert set(got.labels.tolist()) == {0} and len(got) == min(cap, 7)
    view.labels = np.where(view.labels == 0, 1, view.labels)
    assert len(fc.probe_examples(view, 0, 1000, 7)) == 0


def test_pipeline_single_client_degenerates():
    spec, params, shard = small_trained_setup()
    state = fs.ClientState(0, shard, np.arange(len(shard)))
    config = UnlearnConfig(forget_class=0, requesting_clients=(0,), riemann_steps=6,
                           top_n=5, select_n=3, probe_cap=8)
    edited, audit = fc.fedcccu_pipeline(spec, params, [state], config, 1)
    assert all(e.ratio == 0.0 for e in audit.entries)
    # selection is the requester's own positive-score units, best first
    positive = [r.unit for r in audit.reports[0].records_for(0) if r.score > 0]
    assert list(audit.selection.units) == positive[:3]
    assert not same_bits(edited, params)


def test_pipeline_select_zero_keeps_model():
    spec, params, shard = small_trained_setup()
    state = fs.ClientState(0, shard, np.arange(len(shard)))
    config = UnlearnConfig(forget_class=0, requesting_clients=(0,), riemann_steps=6,
                           top_n=5, select_n=0, probe_cap=8)
    edited, audit = fc.fedcccu_pipeline(spec, params, [state], config, 1)
    assert same_bits(edited, params)
    assert audit.selection.units == ()
    assert audit.reports


def test_pipeline_client_without_forget_data_uploads_empty_report():
    spec, params, shard = small_trained_setup()
    with_zero = fs.ClientState(0, shard, np.arange(len(shard)))
    without_zero = fs.ClientState(1, shard, np.flatnonzero(shard.labels != 0))
    config = UnlearnConfig(forget_class=0, requesting_clients=(0,), riemann_steps=5,
                           top_n=4, select_n=2, probe_cap=8)
    _, audit = fc.fedcccu_pipeline(spec, params, [with_zero, without_zero], config, 0)
    empty = next(r for r in audit.reports if r.client_id == 1)
    assert empty.per_class == {}


def test_pipeline_audit_json_serializes():
    spec, params, shard = small_trained_setup()
    state = fs.ClientState(0, shard, np.arange(len(shard)))
    config = UnlearnConfig(forget_class=1, requesting_clients=(0,), riemann_steps=4,
                           top_n=3, select_n=2, probe_cap=4)
    _, audit = fc.fedcccu_pipeline(spec, params, [state], config, 2)
    text = audit.to_json()
    assert '"forget_class": 1' in text
    assert '"selected"' in text
    doc = json.loads(text)
    assert doc["requesting_clients"] == [0]
    assert doc["config"] == {"riemann_steps": 4, "top_n": 3, "select_n": 2,
                             "probe_cap": 4, "seed": 2}


def test_privacy_boundary_server_ops_take_no_raw_data():
    banned = ("example", "shard", "probe", "input", "image", "dataset")
    for op in (fc.compute_dominance, fc.rank_select, nn.zero_units):
        names = [p.lower() for p in inspect.signature(op).parameters]
        assert not any(b in name for b in banned for name in names), op.__name__
