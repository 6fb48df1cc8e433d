"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""
import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from fusim import evalkit, experiment, fedcccu, fedsim, nncore as nn, unlearn_routes
from fusim.config import load_config
from helpers import library_step, position, riemann_sensitivity_scores, same_bits, vector

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(tag, elapsed, budget, detail):
    print(f"\n[{tag}] PASS ({elapsed:.1f}s < {budget:.0f}s budget): {detail}")


# ---------------------------------------------------------------------------
# Shared trained federations (module scope: train once, reuse across criteria)


@pytest.fixture(scope="module")
def digits3(tmp_path_factory):
    cfg = load_config(CONFIG_DIR / "digits3.ini")
    out = str(tmp_path_factory.mktemp("digits3"))
    task, trained, summary = experiment.ensure_train(cfg, out)
    before = evalkit.build_report(task.spec, trained, task.data.test_sets, task.data.client_sets)
    return cfg, task, trained, summary, before


@pytest.fixture(scope="module")
def pair2(tmp_path_factory):
    cfg = load_config(CONFIG_DIR / "pair2.ini")
    out = str(tmp_path_factory.mktemp("pair2"))
    task, trained, summary = experiment.ensure_train(cfg, out)
    before = evalkit.build_report(task.spec, trained, task.data.test_sets, task.data.client_sets)
    return cfg, task, trained, summary, before


def run_route(cfg, task, trained, summary, route, **overrides):
    c = dataclasses.replace(
        cfg, unlearn=dataclasses.replace(cfg.unlearn, route=route, **overrides))
    params, logs, extras = experiment.run_route(
        c, task, trained, start_round=summary["rounds_run"])
    after = evalkit.build_report(task.spec, params, task.data.test_sets, task.data.client_sets)
    return after, extras


def forget_drop(before, after, cid, forget=0):
    return 100.0 * (before.accuracy()[cid, forget] - after.accuracy()[cid, forget])


def mean_retained_drop(before, after, forget=0):
    retained = before.total > 0
    retained[:, forget] = False
    diff = before.accuracy() - after.accuracy()
    return float(np.mean([100.0 * np.mean(row[cells]) for row, cells in zip(diff, retained)]))


# ---------------------------------------------------------------------------
# Criterion 1: numeric core


def random_tiny_model(rng):
    widths = [int(rng.integers(2, 6)) for _ in range(3)]
    spec = nn.small_mlp((widths[0],), widths[2], hidden=widths[1])
    params = nn.init_params(spec, int(rng.integers(0, 2**31)))
    return spec, params + rng.normal(0, 0.6, params.shape)


def test_criterion_1_numeric_core():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    models = 0
    while models < 100:
        spec, params = random_tiny_model(rng)
        batch = [(rng.normal(0, 1, spec.input_shape), int(rng.integers(0, spec.class_count)))
                 for _ in range(2)]
        xs = np.stack([img for img, _ in batch])
        ys = np.array([lbl for _, lbl in batch])
        probs = nn.predict_probs(spec, params, xs[:1])[0]
        assert abs(probs.sum() - 1.0) < 1e-9
        _, _, grads = library_step(spec, params, xs, ys)
        step = 1e-5
        fd = np.zeros_like(params)
        for i in range(params.size):
            orig = params[i]
            params[i] = orig + step
            lp = library_step(spec, params, xs, ys)[1]
            params[i] = orig - step
            lm = library_step(spec, params, xs, ys)[1]
            params[i] = orig
            fd[i] = (lp - lm) / (2 * step)
        err = np.abs(grads - fd) / np.maximum(np.abs(fd), 1e-6)
        assert np.all(err < 1e-4), models
        models += 1

    # unit-activation gradients against finite differences (subset of models)
    checked = 0
    while checked < 20:
        spec, params = random_tiny_model(rng)
        x = rng.normal(0, 1, spec.input_shape)
        acts = nn.batch_unit_activations(spec, params, x[None])[0]
        live = [k for k in range(acts.size) if acts[k] > 0.05]
        if not live:
            continue
        unit = nn.UnitId(0, live[0])
        beta = acts[live[0]]
        s, delta = 0.5, 1e-6
        pp = nn.forward_with_scaled_unit(spec, params, x, unit, s + delta)[0]
        pm = nn.forward_with_scaled_unit(spec, params, x, unit, s - delta)[0]
        fd = (pp - pm) / (2 * delta * beta)
        g = nn.gradient_wrt_unit(spec, params, x, 0, unit, s)
        assert abs(g - fd) / max(abs(fd), 1e-6) < 1e-4
        checked += 1

    # sgd and aggregation against independent oracles
    spec, params = random_tiny_model(rng)
    xs = rng.normal(0, 1, (2, *spec.input_shape))
    stepped, _, grad = library_step(spec, params, xs, rng.integers(0, spec.class_count, 2),
                                    0.31)
    assert np.max(np.abs(stepped - (params - 0.31 * grad))) < 1e-12
    sets = [(rng.normal(0, 1, params.shape), float(rng.integers(1, 20))) for _ in range(5)]
    agg = fedsim.aggregate(spec, sets)
    total = sum(w for _, w in sets)
    oracle = sum((w / total) * p for p, w in sets)
    assert np.max(np.abs(agg - oracle)) < 1e-12

    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report("criterion 1", elapsed, 60,
            f"{models} models FD-checked at 1e-4; softmax 1e-9; sgd/aggregate 1e-12")


# ---------------------------------------------------------------------------
# Criterion 2: attribution suite


def attribution_battery():
    cases = []
    spec = nn.small_mlp((2,), 2, hidden=2)
    params = vector(spec, {
        "layer0.weight": [[0.8, -0.3], [0.5, 0.9]],
        "layer0.bias": [0.2, 0.1],
        "layer1.weight": [[1.2, -0.7], [-0.4, 1.0]],
        "layer1.bias": [0.05, -0.05],
    })
    cases.append((spec, params, np.array([0.9, 0.6]), nn.UnitId(0, 0), 0))
    cases.append((spec, params, np.array([0.9, 0.6]), nn.UnitId(0, 1), 1))
    spec_b = nn.small_mlp((3,), 3, hidden=4)
    rng = np.random.default_rng(90)
    params_b = nn.init_params(spec_b, 90)
    params_b = params_b + rng.normal(0, 0.5, params_b.shape)
    x = np.array([0.8, -0.1, 0.4])
    acts = nn.batch_unit_activations(spec_b, params_b, x[None])[0]
    for k in range(4):
        if acts[k] > 0.1 and abs(fc_att(spec_b, params_b, x, 0, nn.UnitId(0, k), 200)) > 0.01:
            cases.append((spec_b, params_b, x, nn.UnitId(0, k), 0))
    assert len(cases) >= 3
    return cases


def fc_att(spec, params, x, target, unit, m):
    return fedcccu.attribute_unit(spec, params, x, target, unit, m)


def test_criterion_2_attribution_suite():
    start = time.monotonic()
    # zero activation -> exactly zero
    spec = nn.small_mlp((2,), 2, hidden=2)
    params = nn.init_params(spec, 5)
    spec.views(params)["layer0.bias"][...] = -40.0
    assert fc_att(spec, params, np.ones(2), 0, nn.UnitId(0, 0), 20) == 0.0

    for case in attribution_battery():
        spec, params, x, unit, target = case
        beta = float(nn.batch_unit_activations(spec, params, x[None])[0, position(spec, unit)])
        g_full = nn.gradient_wrt_unit(spec, params, x, target, unit, 1.0)
        a1 = fc_att(spec, params, x, target, unit, 1)
        assert a1 == pytest.approx(beta * g_full, rel=1e-12)
        a2000 = fc_att(spec, params, x, target, unit, 2000)
        a20 = fc_att(spec, params, x, target, unit, 20)
        assert abs(a20 - a2000) / abs(a2000) < 0.05
        errs = [abs(fc_att(spec, params, x, target, unit, m) - a2000)
                for m in (5, 20, 100)]
        assert errs[0] >= errs[1] >= errs[2]

    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report("criterion 2", elapsed, 120,
            "beta=0 exact; m=1 closed form; m=20 within 5% of m=2000; refinement monotone")


def test_attribution_error_halves_as_m_doubles():
    """On criterion 2's battery the m-step attribution converges to the
    ablation difference P(t | x) - P(t | x, unit zeroed), the score
    sensitivity_scores computes, at first order: each doubling of m, from 5
    to 320 steps, about halves the error."""
    for spec, params, x, unit, target in attribution_battery():
        want = (nn.predict_probs(spec, params, x[None])[0, target]
                - nn.forward_with_scaled_unit(spec, params, x, unit, 0.0)[target])
        errs = [abs(fc_att(spec, params, x, target, unit, m) - want)
                for m in (5, 10, 20, 40, 80, 160, 320)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.8 < coarse / fine < 2.2, (unit, errs)


# ---------------------------------------------------------------------------
# Criterion 3: protocol suite


def test_criterion_3_protocol_suite():
    start = time.monotonic()
    cfg = load_config(CONFIG_DIR / "digits3.ini")

    def one_run():
        task = experiment.Task(cfg)
        clients = fedsim.build_clients(task.data.plan, task.data.train)
        result = fedsim.run_training(task.spec, clients, task.data.val, cfg.training,
                                     cfg.seed)
        return task, clients, result

    task_a, clients_a, run_a = one_run()
    task_b, clients_b, run_b = one_run()
    assert run_a.logs == run_b.logs
    assert same_bits(run_a.params, run_b.params)

    # fairness: zero gradient computations by non-requesting clients
    request = dataclasses.replace(cfg.unlearn, forget_class=0, requesting_clients=(0,))
    state0 = clients_a[0]
    state0.keep(unlearn_routes.delete_retrain_prepare(state0.labels, 0))
    pre = {c.client_id: c.local_step_counter for c in clients_a}
    fedsim.fair_unlearn_rounds(run_a.params, task_a.spec, clients_a, request,
                               task_a.data.val, cfg.training, cfg.seed,
                               start_round=len(run_a.logs))
    nonreq_steps = sum(c.local_step_counter - pre[c.client_id]
                       for c in clients_a if c.client_id != 0)
    assert nonreq_steps == 0
    assert clients_a[0].local_step_counter > pre[0]

    # aggregate identity and permutation invariants
    spec = task_a.spec
    p = nn.init_params(spec, 3)
    assert same_bits(fedsim.aggregate(spec, [(p, 2), (p, 5), (p, 1)]), p)
    sets = [(nn.init_params(spec, i), i + 1) for i in range(4)]
    shuffled = [sets[3], sets[1], sets[0], sets[2]]
    assert same_bits(fedsim.aggregate(spec, sets),
                     fedsim.aggregate(spec, sorted(shuffled, key=lambda t: t[1])))
    weights = [c.sample_count for c in clients_a]
    assert abs(sum(w / sum(weights) for w in weights) - 1.0) < 1e-15

    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report("criterion 3", elapsed, 300,
            "bit-identical runs; non-requesting gradient steps = 0; aggregate invariants")


# ---------------------------------------------------------------------------
# Criterion 4: benchmark training


def test_criterion_4_benchmark_training(digits3):
    start = time.monotonic()
    cfg, task, trained, summary, before = digits3
    assert len(task.data.plan.clients) == 9
    assert len({tuple(c["domains"]) for c in task.data.plan.to_doc()["clients"]}) == 3
    t0 = summary["convergence_round"]
    assert t0 is not None and t0 <= 50
    val_acc = 1.0 - summary["final_val_error"]
    assert val_acc >= 0.85
    elapsed = time.monotonic() - start
    assert elapsed < 600
    _report("criterion 4", elapsed, 600,
            f"9 clients / 3 domains: T0={t0}, val accuracy {val_acc:.3f} >= 0.85")


# ---------------------------------------------------------------------------
# Criterion 5: delete-retrain stays ineffective under the fair protocol


def test_criterion_5_delete_retrain_pattern(digits3):
    start = time.monotonic()
    cfg, task, trained, summary, before = digits3
    after, _ = run_route(cfg, task, trained, summary, "delete")
    domains = [set(c["domains"]) for c in task.data.plan.to_doc()["clients"]]
    same_domain = [cid for cid, d in enumerate(domains) if d == domains[0] and cid != 0]
    assert same_domain
    drops = {cid: forget_drop(before, after, cid) for cid in same_domain}
    assert all(d <= 10.0 for d in drops.values()), drops
    elapsed = time.monotonic() - start
    _report("criterion 5", elapsed, 600,
            f"same-domain non-requesting forget-class drops {drops} <= 10 points")


# ---------------------------------------------------------------------------
# Criterion 6: naive zeroing over-forgets everywhere


def test_criterion_6_naive_zeroing_over_forgetting(digits3):
    start = time.monotonic()
    cfg, task, trained, summary, before = digits3
    after_zero, _ = run_route(cfg, task, trained, summary, "zeroing")
    forget_acc = dict(enumerate(after_zero.accuracy()[:, 0].tolist()))
    assert all(a <= 0.05 for a in forget_acc.values()), forget_acc
    after_cccu, _ = run_route(cfg, task, trained, summary, "fedcccu")
    drop_zero = before.global_accuracy - after_zero.global_accuracy
    drop_cccu = before.global_accuracy - after_cccu.global_accuracy
    assert drop_zero > drop_cccu
    elapsed = time.monotonic() - start
    _report("criterion 6", elapsed, 600,
            f"forget-class <= 5% at all 9 clients; global drop {100*drop_zero:.1f} "
            f"> fedcccu {100*drop_cccu:.1f} points")


def test_fedcccu_selects_the_units_the_riemann_scores_select(digits3):
    """The ablation scores select the same units on digits3 as the m = 20
    Riemann scores the route used before (tests/helpers.py keeps that
    scorer), through the same uploads, dominance and select_n."""
    cfg, task, trained, summary, before = digits3
    u = cfg.unlearn
    _, extras = run_route(cfg, task, trained, summary, "fedcccu")
    reports = []
    for state in fedsim.build_clients(task.data.plan, task.data.train):
        probes = fedcccu.probe_examples(state, u.forget_class, u.probe_cap, cfg.seed)
        assert len(probes)
        scores = riemann_sensitivity_scores(task.spec, trained, probes.images,
                                            u.forget_class, 20)
        reports.append(fedcccu.top_n_report(scores, state.client_id, u.forget_class, u.top_n))
    want = fedcccu.compute_dominance(reports, u.requesting_clients, u.forget_class,
                                     len(task.spec.hidden_units))[0][:u.select_n]
    got = extras["audit"].selected
    assert len(got) == u.select_n
    assert sorted(got.tolist()) == sorted(want.tolist())


# ---------------------------------------------------------------------------
# Criterion 7: FedCCCU forgets at the requester with bounded collateral


def test_criterion_7_fedcccu_pattern(pair2):
    start = time.monotonic()
    cfg, task, trained, summary, before = pair2
    assert before.accuracy()[0, 0] >= 0.9  # requester actually knows the class

    after_cccu, extras = run_route(cfg, task, trained, summary, "fedcccu")
    after_delete, _ = run_route(cfg, task, trained, summary, "delete")
    after_zero, _ = run_route(cfg, task, trained, summary, "zeroing")

    cccu_drop = forget_drop(before, after_cccu, 0)
    delete_drop = forget_drop(before, after_delete, 0)
    cccu_retained = mean_retained_drop(before, after_cccu)
    zero_retained = mean_retained_drop(before, after_zero)

    assert cccu_drop >= 50.0
    assert cccu_retained <= 10.0
    assert cccu_drop > delete_drop
    assert cccu_retained < zero_retained

    elapsed = time.monotonic() - start
    assert elapsed < 900
    _report("criterion 7", elapsed, 900,
            f"requester forget drop {cccu_drop:.1f} >= 50 (delete {delete_drop:.1f}); "
            f"retained drop {cccu_retained:.2f} <= 10 (zeroing {zero_retained:.2f})")


# ---------------------------------------------------------------------------
# Criterion 8: dominance unit behavior


def test_criterion_8_dominance_units():
    start = time.monotonic()

    def upload(cid, scores):
        """Client cid's class-0 upload of {unit position: score}, in order."""
        return fedcccu.SensitivityReport(
            cid, {0: np.array(list(scores.items()), dtype=fedcccu.UPLOAD)})

    def dominance(reports):
        return fedcccu.compute_dominance(reports, (0,), 0, 8)

    positions, _, s_max_other, ratio = dominance([upload(0, {1: 0.8, 2: 0.5}),
                                                  upload(1, {2: 0.4})])
    by_unit = dict(zip(positions.tolist(), zip(s_max_other.tolist(), ratio.tolist())))
    assert by_unit[1] == (0.0, 0.0)
    assert by_unit[2][1] == pytest.approx(0.8)

    # global positive rescaling leaves the selection identical
    scale = 13.0
    scaled = dominance([upload(0, {1: 0.8 * scale, 2: 0.5 * scale}),
                        upload(1, {2: 0.4 * scale})])
    assert positions[:1].tolist() == scaled[0][:1].tolist()

    # deterministic tie-breaking: equal ratios order by s_forget then position
    ties = {5: 0.4, 3: 0.9, 4: 0.9}
    sel = dominance([upload(0, ties)])[0][:3].tolist()
    assert sel == [3, 4, 5]
    sel_again = dominance([upload(0, dict(reversed(ties.items())))])[0][:3].tolist()
    assert sel == sel_again

    elapsed = time.monotonic() - start
    _report("criterion 8", elapsed, 60,
            "absent units R=0; selection scale-invariant; ties deterministic")
