"""Attribution, dominance and pipeline tests."""
import inspect
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusim import fedcccu as fc
from fusim import fedsim as fs
from fusim import nncore as nn
from fusim.config import UnlearnConfig
from helpers import (Record, hidden_unit_ids, library_step, on_copied_shard,
                     per_unit_sensitivity_scores, position, reference_audit_json,
                     reference_server, reference_top_n, same_bits, synthetic_domain, vector)


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
    acts = nn.batch_unit_activations(spec_b, params_b, x_b[None])[0]
    for k in range(4):
        # keep units with a live activation and a non-cancelling path integral
        if acts[k] > 0.1 and abs(fc.attribute_unit(
                spec_b, params_b, x_b, 0, nn.UnitId(0, k), 200)) > 0.01:
            cases.append((spec_b, params_b, x_b, nn.UnitId(0, k), 0))
    return cases


def trapezoid_oracle(spec, params, x, unit, target, intervals=2000, delta=1e-6):
    """Independent path integral: finite differences on the scaled forward
    pass only (no backprop), trapezoid rule over the activation path."""
    beta = float(nn.batch_unit_activations(spec, params, x[None])[0, position(spec, unit)])
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
        beta = float(nn.batch_unit_activations(spec, params, x[None])[0, position(spec, unit)])
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
    beta = float(nn.batch_unit_activations(spec, params, x[None])[0, 0])
    beta2 = float(nn.batch_unit_activations(spec, params, 2 * x[None])[0, 0])
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
    shard = synthetic_domain(14, 6, spec.input_shape[1:], 4, 20)
    params = nn.init_params(spec, 5)
    for _ in range(40):
        params = library_step(spec, params, shard.images, shard.labels, 0.5)[0]
    return spec, params, shard


def ablation(spec, params, x, target, unit):
    """P(target | x) - P(target | x, unit zeroed) from the scaled forward
    pass alone."""
    return float(nn.predict_probs(spec, params, x[None])[0, target]
                 - nn.forward_with_scaled_unit(spec, params, x, unit, 0.0)[target])


def test_sensitivity_single_example_equals_attribution():
    """A one-example score is the limit of the unit's Riemann attribution:
    attribute_unit at m = 2000 is within 0.5% of the largest score."""
    spec, params, shard = small_trained_setup()
    scores = fc.sensitivity_scores(spec, params, shard.images[:1], 0)
    assert scores.shape == (len(spec.hidden_units),) and scores.dtype == np.float64
    scale = np.abs(scores).max()
    assert scale > 1e-3
    for unit, score in zip(hidden_unit_ids(spec), scores.tolist()):
        att = fc.attribute_unit(spec, params, shard.images[0], 0, unit, 2000)
        assert abs(att - score) < 5e-3 * scale, unit


def test_sensitivity_duplicated_shard_invariant():
    spec, params, shard = small_trained_setup()
    two = shard.images[:2]
    doubled = np.concatenate([two, two])
    a = fc.sensitivity_scores(spec, params, two, 1)
    b = fc.sensitivity_scores(spec, params, doubled, 1)
    assert a.shape == b.shape == (len(spec.hidden_units),)
    for sa, sb in zip(a.tolist(), b.tolist()):
        assert sa == pytest.approx(sb, rel=1e-10, abs=1e-15)


@pytest.mark.parametrize("model", ["small_mlp", "small_cnn"])
def test_sensitivity_two_example_mean_oracle(model):
    """Every hidden unit's score is the mean over the examples of
    P(t | x) - P(t | x, unit zeroed), the zeroed probability from
    forward_with_scaled_unit at scale 0.  small_cnn: units of both conv
    layers, the first scored through a suffix that holds the second conv
    block."""
    spec, params, shard = small_trained_setup(model)
    two = shard.images[:2]
    scores = fc.sensitivity_scores(spec, params, two, 2)
    units = hidden_unit_ids(spec)
    assert len(scores) == len(units)
    assert {u.layer for u in units} == set(range(spec.param_layer_count - 1))
    assert np.count_nonzero(np.abs(scores) > 1e-6) >= 3
    plain = nn.predict_probs(spec, params, two)[:, 2]
    for unit, score in zip(units, scores.tolist()):
        zeroed = [nn.forward_with_scaled_unit(spec, params, x, unit, 0.0)[2] for x in two]
        want = ((plain[0] - zeroed[0]) + (plain[1] - zeroed[1])) / 2
        assert score == pytest.approx(want, rel=1e-12, abs=1e-15), unit


@pytest.mark.bitid
@pytest.mark.parametrize("model", ["small_mlp", "small_cnn"])
def test_sensitivity_scores_equal_the_per_unit_loop(model):
    """One batch_zeroed_unit_probs call gives the per-unit loop's
    (U,) vector byte for byte, at probe counts on both sides of numpy's
    eight-accumulator sums and at 128, and so does a block cap of one
    unit's values plus one."""
    spec, params, shard = small_trained_setup(model)
    rng = np.random.default_rng(3)
    for n in (1, 7, 8, 9, 128):
        x = shard.images[np.arange(n) % len(shard.images)]
        x = x + rng.normal(0.0, 0.05, x.shape)
        want = per_unit_sensitivity_scores(spec, params, x, 1)
        assert same_bits(fc.sensitivity_scores(spec, params, x, 1), want), n
        with mock.patch.object(nn, "_UNIT_BLOCK_VALUES", n * spec.class_count + 1):
            assert same_bits(fc.sensitivity_scores(spec, params, x, 1), want), n


def test_sensitivity_empty_shard_errors():
    spec, params, _ = small_trained_setup()
    with pytest.raises(ValueError, match="sensitivity_scores needs a nonempty shard"):
        fc.sensitivity_scores(spec, params, np.empty((0, 1, 8, 8)), 0)


def test_sensitivity_rejects_zero_riemann_steps():
    """attribute_unit, the Riemann-sum oracle of sensitivity_scores, needs
    at least one step."""
    spec, params, shard = small_trained_setup()
    with pytest.raises(ValueError, match="m must be >= 1"):
        fc.attribute_unit(spec, params, shard.images[0], 0, nn.UnitId(0, 0), 0)


@pytest.mark.parametrize("model", ["small_mlp", "small_cnn"])
def test_oracles_share_no_step_with_the_scorer(model):
    """attribute_unit, gradient_wrt_unit and forward_with_scaled_unit check
    the scorer, so none of them runs its rank-1 step: with
    batch_zeroed_unit_probs made to raise, they give the same values on
    every parameterized layer, the output layer included, while
    sensitivity_scores raises."""
    spec, params, shard = small_trained_setup(model)
    x = shard.images[0]
    units = [nn.UnitId(layer, k) for layer in range(spec.param_layer_count)
             for k in range(min(3, spec.unit_count(layer)))]

    def oracle_values():
        return [(fc.attribute_unit(spec, params, x, 1, unit, 10),
                 nn.gradient_wrt_unit(spec, params, x, 1, unit, 0.5),
                 nn.forward_with_scaled_unit(spec, params, x, unit, 0.5).tolist())
                for unit in units]

    want = oracle_values()
    with mock.patch.object(nn, "batch_zeroed_unit_probs",
                           side_effect=AssertionError("the scorer ran")):
        assert oracle_values() == want
        with pytest.raises(AssertionError, match="the scorer ran"):
            fc.sensitivity_scores(spec, params, shard.images[:2], 1)


def cnn_case():
    """small_cnn with a trained-like perturbation and one input whose conv
    maps are not constant."""
    spec = nn.small_cnn((1, 12, 12), 4)
    rng = np.random.default_rng(17)
    params = nn.init_params(spec, 17) + rng.normal(0.0, 0.2, spec.param_count)
    return spec, params, rng.uniform(0.0, 1.0, spec.input_shape)


@pytest.mark.parametrize("ordinal", [0, 1])
def test_conv_attribution_converges_to_the_ablation(ordinal):
    """On a conv channel whose map is not constant, attribute_unit at
    m = 2000 is within 1% of the ablation difference: each step weights the
    gradient at every position of the site map by the map itself."""
    spec, params, x = cnn_case()
    site = nn.batch_site_outputs(spec, params, x[None], ordinal)[0]
    checked = 0
    for ch in range(spec.unit_count(ordinal)):
        unit = nn.UnitId(ordinal, ch)
        want = ablation(spec, params, x, 1, unit)
        if abs(want) < 1e-3:
            continue
        assert site[ch].max() > 0 and np.ptp(site[ch]) > 0.1 * site[ch].max()
        got = fc.attribute_unit(spec, params, x, 1, unit, 2000)
        assert abs(got - want) < 0.01 * abs(want), (unit, got, want)
        checked += 1
    assert checked >= 3


def test_conv_attribution_error_halves_as_m_doubles():
    """The step sum converges to the ablation difference at first order on
    conv channels too: each doubling of m about halves the error.  The two
    units' paths cross no relu kink; where one does, the error still falls
    like 1/m but not by a steady factor."""
    spec, params, x = cnn_case()
    for unit in (nn.UnitId(0, 6), nn.UnitId(1, 4)):
        want = ablation(spec, params, x, 1, unit)
        assert abs(want) > 1e-3
        errs = [abs(fc.attribute_unit(spec, params, x, 1, unit, m) - want)
                for m in (200, 400, 800, 1600)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.6 < coarse / fine < 2.5, (unit, errs)


# ---------------------------------------------------------------------------
# top_n_report


def test_top_n_keeps_all_when_n_large():
    report = fc.top_n_report(np.array([0.5, 0.9, 0.1]), 3, 0, 10)
    assert report.client_id == 3 and list(report.per_class) == [0]
    got = report.per_class[0]
    assert got.dtype == fc.UPLOAD
    assert got["score"].tolist() == [0.9, 0.5, 0.1]
    assert got["unit"].tolist() == [1, 0, 2]


def test_top_n_selects_best_two():
    report = fc.top_n_report(np.array([0.5, 0.9, 0.1]), 0, 4, 2)
    assert report.per_class[4].tolist() == [(1, 0.9), (0, 0.5)]


def test_top_n_tie_break_layer_then_unit():
    # small_cnn's hidden units: positions 0..7 are layer 0, 8..23 layer 1,
    # so position order is (layer, unit) order
    units = nn.small_cnn((1, 12, 12), 4).hidden_units
    scores = np.zeros(len(units))
    scores[[11, 7, 2]] = 0.5
    got = fc.top_n_report(scores, 0, 0, 3).per_class[0]["unit"].tolist()
    assert got == [2, 7, 11]
    assert units[got].tolist() == [[0, 2], [0, 7], [1, 3]]


# ---------------------------------------------------------------------------
# compute_dominance: (positions, s_forget, s_max_other, ratio), selection order


def report_of(cid, scores, class_id=0):
    """A client's upload of {position: score}, in the given order."""
    records = np.array(list(scores.items()), dtype=fc.UPLOAD)
    return fc.SensitivityReport(cid, {class_id: records})


def dominance(reports, requesting=(0,), unit_count=8):
    return fc.compute_dominance(reports, requesting, 0, unit_count)


def test_dominance_absent_unit_ratio_zero():
    positions, _, s_max_other, ratio = dominance([report_of(0, {1: 0.8}),
                                                  report_of(1, {2: 0.9})])
    assert positions.tolist() == [1]
    assert s_max_other.tolist() == [0.0]
    assert ratio.tolist() == [0.0]


def test_dominance_shared_unit_ratio_one():
    _, _, _, ratio = dominance([report_of(0, {1: 0.8}), report_of(1, {1: 0.8})])
    assert ratio.tolist() == [1.0]


def test_dominance_forced_arithmetic():
    _, s_forget, s_max_other, ratio = dominance([
        report_of(0, {1: 0.8}), report_of(1, {1: 0.2}), report_of(2, {1: 0.6})])
    assert s_forget.tolist() == [0.8]
    assert s_max_other.tolist() == [0.6]
    assert ratio[0] == pytest.approx(0.75)


def test_dominance_drops_nonpositive_forget_scores():
    positions, *_ = dominance([report_of(0, {1: 0.8, 2: -0.3, 3: 0.0, 4: -0.0})])
    assert positions.tolist() == [1]


def test_dominance_negative_other_scores_floored():
    # a best other score of -0.5 or -0.0 floors to +0.0, and so does the ratio
    for other in (-0.5, -0.0):
        _, _, s_max_other, ratio = dominance([report_of(0, {1: 0.8}),
                                              report_of(1, {1: other})])
        assert s_max_other.tolist() == [0.0] and ratio.tolist() == [0.0]
        assert math.copysign(1.0, s_max_other[0]) == math.copysign(1.0, ratio[0]) == 1.0


def test_dominance_missing_forget_report_errors():
    with pytest.raises(ValueError, match="no report from requesting client 0"):
        dominance([report_of(1, {1: 0.5})])


def test_dominance_merges_requesters_lowest_ratio_first_on_tie():
    """A unit two requesters uploaded keeps the lower ratio; on equal ratios
    the first requester's entry, with its s_forget; other requesters'
    scores never count as another client's."""
    reports = [report_of(0, {1: 0.8, 2: 0.4, 3: 0.5}), report_of(1, {1: 0.2}),
               report_of(2, {1: 1.6, 2: 0.8, 3: 0.25}), report_of(3, {})]
    positions, s_forget, s_max_other, ratio = dominance(reports, (0, 2))
    assert positions.tolist() == [3, 2, 1]
    assert s_forget.tolist() == [0.5, 0.4, 1.6]
    assert s_max_other.tolist() == [0.0, 0.0, 0.2]
    assert ratio.tolist() == [0.0, 0.0, 0.125]


# ---------------------------------------------------------------------------
# the selection: compute_dominance's first select_n positions


def audit_of(reports, select_n, requesting=(0,), unit_count=8):
    """The audit a pipeline writes for these uploads, and its JSON."""
    unlearn = UnlearnConfig(forget_class=0, requesting_clients=requesting,
                            select_n=select_n)
    entries = fc.compute_dominance(reports, requesting, 0, unit_count)
    units = nn.small_mlp((1,), 2, hidden=unit_count).hidden_units
    audit = fc.AuditRecord(unlearn, 1, units, reports, entries, entries[0][:select_n])
    return audit, json.loads(audit.to_json())


def test_rank_select_ascending_ratio():
    """The selection is the select_n lowest ratios."""
    reports = [report_of(0, {0: 1.0, 1: 1.0, 2: 1.0}), report_of(1, {1: 0.9, 2: 0.3})]
    audit, doc = audit_of(reports, 2)
    assert audit.selected.tolist() == [0, 2]
    assert [u["unit"] for u in doc["selected"]] == [0, 2]
    assert doc["selection_capped"] is False


def test_rank_select_zero():
    audit, doc = audit_of([report_of(0, {0: 1.0})], 0)
    assert audit.selected.tolist() == [] and doc["selected"] == []
    assert doc["selection_capped"] is False


def test_rank_select_tie_prefers_higher_forget_score():
    audit, _ = audit_of([report_of(0, {0: 0.4, 1: 0.9})], 1)
    assert audit.selected.tolist() == [1]


def test_rank_select_caps_with_warning_flag():
    audit, doc = audit_of([report_of(0, {0: 1.0})], 5)
    assert audit.selected.tolist() == [0]
    assert doc["selection_capped"] is True


def test_audit_counts_selected_units_another_client_shares():
    """selected_shared counts the selected units whose ratio is 1 or more;
    the selection rule does not look at it."""
    reports = [report_of(0, {0: 1.0, 1: 1.0, 2: 0.5}), report_of(1, {0: 1.0, 1: 0.8, 2: 0.6})]
    audit, doc = audit_of(reports, 2)
    assert audit.entries[3].tolist() == [0.8, 1.0, 1.2]
    assert audit.selected.tolist() == [1, 0]
    assert doc["selected_shared"] == 1
    assert audit_of(reports, 1)[1]["selected_shared"] == 0
    assert audit_of(reports, 5)[1]["selected_shared"] == 2


def test_rank_select_scale_invariant():
    forget, other = {0: 0.5, 1: 0.8, 2: 0.3}, {0: 0.2, 1: 0.1, 2: 0.25}
    scaled = [report_of(0, {p: 7.0 * s for p, s in forget.items()}),
              report_of(1, {p: 7.0 * s for p, s in other.items()})]
    assert dominance([report_of(0, forget), report_of(1, other)])[0][:2].tolist() == \
        dominance(scaled)[0][:2].tolist() == [1, 0]


SCORES = st.sampled_from([0.0, -0.0, -0.5, -1e-300, 1e-300, 0.25, 0.5, 0.75, 1.0, 3.0])


@st.composite
def server_inputs(draw):
    """Uploads of 2-6 clients over up to 24 units in two layers (some empty),
    1-3 requesters, and the top_n and select_n the server uses."""
    unit_count = draw(st.integers(1, 24))
    split = draw(st.integers(0, unit_count))
    units = [nn.UnitId(0, k) for k in range(split)] + \
        [nn.UnitId(1, k) for k in range(unit_count - split)]
    client_count = draw(st.integers(2, 6))
    scores = {cid: None if draw(st.booleans()) and draw(st.booleans()) else
              np.array(draw(st.lists(SCORES, min_size=unit_count, max_size=unit_count)))
              for cid in range(client_count)}
    requesting = tuple(sorted(draw(st.sets(st.integers(0, client_count - 1),
                                           min_size=1, max_size=3))))
    unlearn = UnlearnConfig(forget_class=draw(st.integers(0, 3)),
                            requesting_clients=requesting,
                            top_n=draw(st.integers(1, unit_count + 1)),
                            select_n=draw(st.integers(0, unit_count + 1)))
    return units, scores, unlearn


@given(server_inputs())
@settings(max_examples=150)
def test_array_server_gives_the_record_reference_bits(inputs):
    """Upload, dominance, merge and selection on arrays select the units the
    record-object server selected and write its audit JSON byte for byte,
    over ties, signed zeros, negative scores and empty uploads."""
    units, scores, unlearn = inputs
    c = unlearn.forget_class
    reports = [fc.top_n_report(v, cid, c, unlearn.top_n) if v is not None
               else fc.SensitivityReport(cid, {}) for cid, v in scores.items()]
    entries = fc.compute_dominance(reports, unlearn.requesting_clients, c, len(units))
    selected = entries[0][:unlearn.select_n]
    audit = fc.AuditRecord(unlearn, 3, np.array([(u.layer, u.unit) for u in units],
                                                np.intp).reshape(-1, 2),
                           reports, entries, selected)
    uploads = {cid: {} if v is None else reference_top_n(
        [Record(unit, c, score) for unit, score in zip(units, v.tolist())], unlearn.top_n)
        for cid, v in scores.items()}
    ref_entries, ref_selected, capped = reference_server(uploads, unlearn)
    assert [units[p] for p in selected.tolist()] == ref_selected
    assert audit.to_json() == reference_audit_json(unlearn, 3, uploads, ref_entries,
                                                   ref_selected, capped)


# ---------------------------------------------------------------------------
# the edit: nncore.zero_units on a trained model


def test_zero_units_zeroes_activation_on_probes():
    spec, params, shard = small_trained_setup()
    edited = nn.zero_units(spec, params, [3])
    acts = nn.batch_unit_activations(spec, edited, shard.images[:10])
    assert np.all(acts[:, 3] == 0.0)


def test_edit_locality_bit_identical_elsewhere():
    spec, params, _ = small_trained_setup()
    edited = spec.views(nn.zero_units(spec, params, [1]))
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
    domain = synthetic_domain(14, 6, (8, 8), 4, 20)
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
    config = UnlearnConfig(forget_class=0, requesting_clients=(0,),
                           top_n=5, select_n=3, probe_cap=8)
    edited, audit = fc.fedcccu_pipeline(spec, params, [state], config, 1)
    assert np.all(audit.entries[3] == 0.0)
    # selection is the requester's own positive-score units, best first
    upload = audit.reports[0].per_class[0]
    positive = upload["unit"][upload["score"] > 0].tolist()
    assert audit.selected.tolist() == positive[:3]
    assert same_bits(audit.units, spec.hidden_units)
    assert same_bits(edited, nn.zero_units(spec, params, positive[:3]))
    assert not same_bits(edited, params)


def test_pipeline_select_zero_keeps_model():
    spec, params, shard = small_trained_setup()
    state = fs.ClientState(0, shard, np.arange(len(shard)))
    config = UnlearnConfig(forget_class=0, requesting_clients=(0,),
                           top_n=5, select_n=0, probe_cap=8)
    edited, audit = fc.fedcccu_pipeline(spec, params, [state], config, 1)
    assert same_bits(edited, params)
    assert audit.selected.tolist() == []
    assert audit.reports


def test_pipeline_client_without_forget_data_uploads_empty_report():
    spec, params, shard = small_trained_setup()
    with_zero = fs.ClientState(0, shard, np.arange(len(shard)))
    without_zero = fs.ClientState(1, shard, np.flatnonzero(shard.labels != 0))
    config = UnlearnConfig(forget_class=0, requesting_clients=(0,),
                           top_n=4, select_n=2, probe_cap=8)
    _, audit = fc.fedcccu_pipeline(spec, params, [with_zero, without_zero], config, 0)
    empty = next(r for r in audit.reports if r.client_id == 1)
    assert empty.per_class == {}


def test_pipeline_audit_json_serializes():
    spec, params, shard = small_trained_setup()
    state = fs.ClientState(0, shard, np.arange(len(shard)))
    config = UnlearnConfig(forget_class=1, requesting_clients=(0,),
                           top_n=3, select_n=2, probe_cap=4)
    _, audit = fc.fedcccu_pipeline(spec, params, [state], config, 2)
    text = audit.to_json()
    assert '"forget_class": 1' in text
    assert '"selected"' in text
    doc = json.loads(text)
    assert doc["requesting_clients"] == [0]
    assert doc["config"] == {"top_n": 3, "select_n": 2, "probe_cap": 4, "seed": 2}


def test_privacy_boundary_server_ops_take_no_raw_data():
    banned = ("example", "shard", "probe", "input", "image", "dataset")
    for op in (fc.compute_dominance, nn.zero_units):
        names = [p.lower() for p in inspect.signature(op).parameters]
        assert not any(b in name for b in banned for name in names), op.__name__
