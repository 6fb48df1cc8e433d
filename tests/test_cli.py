"""End-to-end CLI and experiment orchestration tests on tiny configs."""
import dataclasses
import filecmp
import json
import logging
import os
import shutil

import pytest

from fusim import cli, evalkit, experiment, fedsim
from fusim.config import validate_config
from helpers import params_equal

TINY = """
[experiment]
name = tiny
seed = 5
[data]
samples_per_class = 30
class_count = 6
[domain.clean]
transform = identity
resolution = 8x8
[domain.noisy]
transform = gaussian_noise(0.15)
resolution = 8x8
[partition]
group_sizes = 2,2
working_resolution = 8x8
[training]
rounds_max = 8
learning_rate = 0.4
epsilon = 0.2
[unlearn]
route = {route}
rounds_max = 3
top_n = 8
select_n = 4
probe_cap = 16
riemann_steps = 5
"""


def write_cfg(tmp_path, route="none", name="cfg.ini"):
    path = tmp_path / name
    path.write_text(TINY.format(route=route))
    return path


def artifact_names(out):
    return sorted(p for p in os.listdir(out) if not p.startswith("."))


def test_route_none_pre_post_identical(tmp_path):
    cfg = validate_config(TINY.format(route="none"))
    _, before, after, metrics = experiment.ensure_evaluate(cfg, str(tmp_path / "run"))
    assert before.clients == after.clients
    assert metrics.forget_efficacy == 0.0
    assert metrics.collateral_retained == 0.0


def test_same_config_twice_byte_identical_artifacts(tmp_path):
    cfg = validate_config(TINY.format(route="fedcccu"))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    experiment.ensure_evaluate(cfg, out1)
    experiment.ensure_evaluate(cfg, out2)
    names = artifact_names(out1)
    assert names == artifact_names(out2)
    for name in names:
        assert filecmp.cmp(os.path.join(out1, name), os.path.join(out2, name),
                           shallow=False), name
    # stage temp directories are cleaned up on commit
    assert not [p for p in os.listdir(out1) if p.startswith(".tmp-")]


def test_fedcccu_run_writes_audit_with_selection(tmp_path):
    cfg = validate_config(TINY.format(route="fedcccu"))
    out = str(tmp_path / "run")
    experiment.ensure_evaluate(cfg, out)
    with open(os.path.join(out, "audit_fedcccu.json")) as fh:
        audit = json.load(fh)
    assert audit["selected"]
    assert audit["forget_class"] == 0
    assert len(audit["reports"]) == 4


def test_stage_resume_uses_existing_artifacts(tmp_path):
    cfg = validate_config(TINY.format(route="delete"))
    out = str(tmp_path / "run")
    task = experiment.ensure_partition(cfg, out)
    plan_file = os.path.join(out, "partition.json")
    first = open(plan_file).read()
    task2, params, summary = experiment.ensure_train(cfg, out)
    assert open(plan_file).read() == first
    assert task2.plan == task.plan
    # re-entry loads the checkpoint instead of retraining
    _, params2, summary2 = experiment.ensure_train(cfg, out)
    assert summary2 == summary
    assert params_equal(params, params2)


@pytest.mark.parametrize("checkpoint", ["checkpoint_trained.fusim",
                                        "checkpoint_unlearned.fusim"])
def test_resume_rejects_checkpoint_of_other_model(tmp_path, checkpoint):
    from fusim import nncore
    cfg = validate_config(TINY.format(route="delete"))
    out = str(tmp_path / "run")
    task, _, _, _ = experiment.ensure_unlearn(cfg, out)
    narrow = nncore.small_mlp(task.spec.input_shape, task.spec.class_count, hidden=7)
    nncore.save_checkpoint(os.path.join(out, checkpoint), nncore.init_params(narrow, 1))
    with pytest.raises(nncore.CheckpointError, match=r"parameter layer0\.weight"):
        experiment.ensure_unlearn(cfg, out)


def test_resume_refuses_artifacts_of_other_route_or_seed(tmp_path, caplog):
    cfg_path = write_cfg(tmp_path, route="none")
    out = str(tmp_path / "d")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out,
                     "--route", "zeroing"]) == cli.EXIT_OK
    finished = tree_bytes(out)
    caplog.clear()
    rc = cli.main(["run", "--config", str(cfg_path), "--out", out, "--route", "fedcccu"])
    assert rc == cli.EXIT_CONFIG
    assert "route is 'zeroing' but the config asks for 'fedcccu'" in caplog.text
    caplog.clear()
    rc = cli.main(["run", "--config", str(cfg_path), "--out", out, "--route", "zeroing",
                   "--seed", "3"])
    assert rc == cli.EXIT_CONFIG
    assert "seed is 5 but the config asks for 3" in caplog.text
    assert tree_bytes(out) == finished


def test_cli_run_exit_codes(tmp_path):
    cfg_path = write_cfg(tmp_path, route="delete")
    out = str(tmp_path / "out")
    rc = cli.main(["run", "--config", str(cfg_path), "--out", out])
    assert rc == cli.EXIT_OK
    assert os.path.exists(os.path.join(out, "metrics.json"))
    rc = cli.main(["run", "--config", str(tmp_path / "missing.ini")])
    assert rc == cli.EXIT_CONFIG
    bad = tmp_path / "bad.ini"
    for text in ("[unlearn]\nroute = nonsense\n",
                 "[domain.x]\ntransform = gaussian_noise(abc)\n"):
        bad.write_text(text)
        rc = cli.main(["run", "--config", str(bad)])
        assert rc == cli.EXIT_CONFIG


def test_cli_single_stages(tmp_path):
    cfg_path = write_cfg(tmp_path, route="relabel")
    out = str(tmp_path / "out")
    assert cli.main(["partition", "--config", str(cfg_path), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "partition.json"))
    assert cli.main(["train", "--config", str(cfg_path), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "checkpoint_trained.fusim"))
    assert cli.main(["unlearn", "--config", str(cfg_path), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "checkpoint_unlearned.fusim"))
    assert cli.main(["evaluate", "--config", str(cfg_path), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "report_after.json"))


def test_cli_route_override(tmp_path):
    cfg_path = write_cfg(tmp_path, route="none")
    out = str(tmp_path / "out")
    rc = cli.main(["run", "--config", str(cfg_path), "--out", out,
                   "--route", "zeroing"])
    assert rc == cli.EXIT_OK
    with open(os.path.join(out, "unlearn_summary.json")) as fh:
        assert json.load(fh)["route"] == "zeroing"


def test_compare_four_routes_merged_table(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = str(tmp_path / "cmp")
    rc = cli.main(["compare", "--config", str(cfg_path), "--out", out,
                   "--routes", "delete,relabel,zeroing,fedcccu"])
    assert rc == cli.EXIT_OK
    lines = open(os.path.join(out, "compare.csv")).read().strip().split("\n")
    assert lines[0] == "client,class,before,delete,relabel,zeroing,fedcccu"
    assert len(lines) == 1 + 4 * 6  # 4 clients x 6 classes


def test_compare_single_route_single_column(tmp_path):
    cfg = validate_config(TINY.format(route="delete"))
    text = experiment.compare_routes([cfg], str(tmp_path / "one"))
    assert text.splitlines()[0] == "client,class,before,delete"


def test_compare_rejects_differing_configs(tmp_path):
    a = validate_config(TINY.format(route="delete"))
    b = validate_config(TINY.format(route="zeroing").replace("seed = 5", "seed = 6"))
    with pytest.raises(experiment.StageError):
        experiment.compare_routes([a, b], str(tmp_path / "x"))


def test_compare_identical_routes_identical_columns(tmp_path):
    a = validate_config(TINY.format(route="delete"))
    text = experiment.compare_routes([a, a], str(tmp_path / "dup"))
    lines = text.strip().split("\n")
    assert lines[0] == "client,class,before,delete,delete_2"
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-1] == cells[-2]


COMPARED = ("delete", "relabel", "fedcccu")


def count_calls(monkeypatch, module, name: str, calls: list | None = None) -> list:
    """Append name to calls (a new list unless given) on each call of module.name."""
    calls = [] if calls is None else calls
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def count_trainings(monkeypatch) -> list:
    return count_calls(monkeypatch, fedsim, "run_training")


def count_reports(monkeypatch) -> list:
    return count_calls(monkeypatch, evalkit, "build_report")


def count_builds(monkeypatch) -> tuple[list, list]:
    """Entries per data build (experiment.build_task) and per domain made."""
    domains = count_calls(monkeypatch, experiment, "synth_domain")
    count_calls(monkeypatch, experiment, "load_idx", domains)
    return count_calls(monkeypatch, experiment, "build_task"), domains


def tree_bytes(root):
    found = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


@pytest.fixture(scope="module")
def compared(tmp_path_factory):
    """A finished 3-route compare: (base dir, config path, out dir, trainings run)."""
    base = tmp_path_factory.mktemp("compare")
    cfg_path = write_cfg(base)
    out = str(base / "cmp")
    with pytest.MonkeyPatch.context() as mp:
        calls = count_trainings(mp)
        rc = cli.main(["compare", "--config", str(cfg_path), "--out", out,
                       "--routes", ",".join(COMPARED)])
    assert rc == cli.EXIT_OK
    return base, cfg_path, out, len(calls)


def test_compare_trains_once_in_top_directory(compared):
    _, _, out, trainings = compared
    assert trainings == 1
    top = artifact_names(out)
    train_artifacts = ["checkpoint_trained.fusim", "partition.json", "rounds_train.csv",
                       "splits.json", "train_summary.json"]
    assert set(train_artifacts) <= set(top)
    for route in COMPARED:
        names = artifact_names(os.path.join(out, f"route_{route}"))
        assert "checkpoint_unlearned.fusim" in names
        assert not set(train_artifacts) & set(names)


def test_compare_builds_before_report_once(tmp_path, monkeypatch):
    calls = count_reports(monkeypatch)
    cfg = validate_config(TINY.format(route="delete"))
    routes = [dataclasses.replace(cfg, unlearn=dataclasses.replace(cfg.unlearn, route=r))
              for r in ("delete", "zeroing")]
    experiment.compare_routes(routes, str(tmp_path / "cmp"))
    assert len(calls) == 3  # one before report, one after report per route


def test_compare_route_artifacts_match_single_runs(compared):
    base, cfg_path, out, _ = compared
    for route in COMPARED:
        single = str(base / f"run_{route}")
        rc = cli.main(["run", "--config", str(cfg_path), "--out", single, "--route", route])
        assert rc == cli.EXIT_OK
        for name in ("metrics.json", "report_before.json", "report_before.csv",
                     "report_after.json", "checkpoint_unlearned.fusim"):
            assert filecmp.cmp(os.path.join(out, f"route_{route}", name),
                               os.path.join(single, name), shallow=False), (route, name)


def test_compare_resume_trains_nothing_and_changes_no_byte(compared, tmp_path, monkeypatch):
    _, cfg_path, out, _ = compared
    again = str(tmp_path / "again")
    shutil.copytree(out, again)
    finished = tree_bytes(again)
    calls = count_trainings(monkeypatch)
    reports = count_reports(monkeypatch)
    builds, domains = count_builds(monkeypatch)
    rc = cli.main(["compare", "--config", str(cfg_path), "--out", again,
                   "--routes", ",".join(COMPARED)])
    assert rc == cli.EXIT_OK
    assert calls == []
    assert reports == []
    assert builds == [] and domains == []
    assert "compare.csv" in finished
    assert tree_bytes(again) == finished


def test_compare_rebuilds_one_route_from_read_back_before_report(compared, tmp_path,
                                                                 monkeypatch):
    _, cfg_path, out, _ = compared
    again = str(tmp_path / "again")
    shutil.copytree(out, again)
    finished = tree_bytes(again)
    os.remove(os.path.join(again, f"route_{COMPARED[1]}", "metrics.json"))
    reports = count_reports(monkeypatch)
    _, domains = count_builds(monkeypatch)
    events = count_calls(monkeypatch, experiment, "ensure_evaluate")
    count_calls(monkeypatch, experiment, "build_task", events)
    rc = cli.main(["compare", "--config", str(cfg_path), "--out", again,
                   "--routes", ",".join(COMPARED)])
    assert rc == cli.EXIT_OK
    assert len(reports) == 1  # the rebuilt route's "after" report only
    # the data is built once, when the rebuilt route's evaluate stage runs
    assert events == ["ensure_evaluate"] * 2 + ["build_task", "ensure_evaluate"]
    assert len(domains) == 2
    assert tree_bytes(again) == finished


def test_compare_new_route_builds_the_data_once(compared, tmp_path, monkeypatch):
    """A route added to a finished compare builds the data once, inside its own
    stages, and writes what a fresh single run of that route writes."""
    _, cfg_path, out, _ = compared
    again = str(tmp_path / "again")
    shutil.copytree(out, again)
    finished = tree_bytes(again)
    events = count_calls(monkeypatch, experiment, "ensure_evaluate")
    count_calls(monkeypatch, experiment, "build_task", events)
    rc = cli.main(["compare", "--config", str(cfg_path), "--out", again,
                   "--routes", ",".join(COMPARED + ("zeroing",))])
    assert rc == cli.EXIT_OK
    assert events == ["ensure_evaluate"] * 4 + ["build_task"]  # inside the new route
    now = tree_bytes(again)
    for name, data in finished.items():
        if not name.startswith("compare"):
            assert now[name] == data, name
    monkeypatch.undo()
    single = str(tmp_path / "single")
    assert cli.main(["run", "--config", str(cfg_path), "--out", single,
                     "--route", "zeroing"]) == cli.EXIT_OK
    for name in ("checkpoint_unlearned.fusim", "metrics.json", "report_after.json"):
        assert filecmp.cmp(os.path.join(again, "route_zeroing", name),
                           os.path.join(single, name), shallow=False), name


EVALUATE_ARTIFACTS = ("report_before.json", "report_before.csv", "report_after.json",
                      "report_after.csv", "metrics.json", "plot_data.csv")


def test_run_resume_reads_evaluate_artifacts_back(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, route="delete")
    out = str(tmp_path / "run")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    finished = tree_bytes(out)
    inodes = {name: os.stat(os.path.join(out, name)).st_ino for name in EVALUATE_ARTIFACTS}
    cfg = validate_config(cfg_path.read_text())
    _, before, after, metrics = experiment.ensure_evaluate(cfg, out)
    reports = count_reports(monkeypatch)
    builds, domains = count_builds(monkeypatch)
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    assert reports == []
    assert builds == [] and domains == []
    assert tree_bytes(out) == finished
    assert {name: os.stat(os.path.join(out, name)).st_ino
            for name in EVALUATE_ARTIFACTS} == inodes
    fresh = str(tmp_path / "fresh")
    monkeypatch.undo()
    _, before2, after2, metrics2 = experiment.ensure_evaluate(cfg, fresh)
    assert list(before.clients) == list(before2.clients)
    assert before.clients == before2.clients and after.clients == after2.clients
    assert metrics == metrics2
    assert after.macro_global_accuracy == after2.macro_global_accuracy


def test_evaluate_resume_refuses_metrics_of_other_route(tmp_path, caplog):
    cfg_path = write_cfg(tmp_path, route="delete")
    out = str(tmp_path / "run")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    path = os.path.join(out, "metrics.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["route"] = "zeroing"
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    finished = tree_bytes(out)
    caplog.clear()
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_CONFIG
    assert "metrics.json: route is 'zeroing' but the config asks for 'delete'" in caplog.text
    assert tree_bytes(out) == finished


def test_partition_resume_builds_no_data(tmp_path, monkeypatch, caplog):
    cfg_path = write_cfg(tmp_path)
    out = str(tmp_path / "part")
    argv = ["partition", "--config", str(cfg_path), "--out", out]
    assert cli.main(argv) == cli.EXIT_OK
    finished = tree_bytes(out)
    caplog.set_level(logging.INFO, logger="fusim")
    caplog.clear()
    builds, domains = count_builds(monkeypatch)
    assert cli.main(argv) == cli.EXIT_OK
    assert builds == [] and domains == []
    assert "partition: 4 clients over 2 domains" in caplog.text
    assert tree_bytes(out) == finished


IDX_CFG = """
[experiment]
seed = 3
[domain.wide]
images = {wide}-images.idx
labels = {wide}-labels.idx
[domain.narrow]
images = {narrow}-images.idx
labels = {narrow}-labels.idx
[partition]
group_sizes = 1,2
working_resolution = 8x8
"""


@pytest.mark.parametrize("source", ["synthetic", "idx"])
def test_resumed_spec_equals_fresh_spec(tmp_path, monkeypatch, source):
    """The resumed spec comes from the config alone; the data it builds on
    first use is the fresh stage's, bit for bit."""
    if source == "idx":
        from fusim import datasets
        from helpers import save_idx
        for name, classes in (("wide", 6), ("narrow", 4)):
            spec = datasets.SyntheticDomainSpec(1, resolution=(8, 8), samples_per_class=12,
                                                class_count=classes)
            save_idx(datasets.synth_domain(spec, 0), tmp_path / f"{name}-images.idx",
                     tmp_path / f"{name}-labels.idx")
        cfg = validate_config(IDX_CFG.format(wide=tmp_path / "wide",
                                             narrow=tmp_path / "narrow"))
        classes = 4   # the labels both domains share
    else:
        cfg = validate_config(TINY.format(route="none"))
        classes = 6
    out = str(tmp_path / "part")
    fresh = experiment.ensure_partition(cfg, out)
    assert fresh.spec.class_count == classes
    assert {d.class_count for d in fresh.train_domains.values()} == {classes}
    builds, domains = count_builds(monkeypatch)
    resumed = experiment.ensure_partition(cfg, out)
    assert resumed.spec == fresh.spec and resumed.plan == fresh.plan
    assert builds == [] and domains == []
    assert resumed.val_x.tobytes() == fresh.val_x.tobytes()
    assert resumed.val_y.tobytes() == fresh.val_y.tobytes()
    assert resumed.splits == fresh.splits
    for i, test_set in fresh.client_test_sets.items():
        assert resumed.client_test_sets[i].images.tobytes() == test_set.images.tobytes()
    assert len(builds) == 1 and len(domains) == 2


@pytest.mark.parametrize("key,what", [("val_fraction", "validation"),
                                      ("test_fraction", "test")])
def test_partition_refuses_an_empty_split(tmp_path, caplog, key, what):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(TINY.format(route="none") + f"[evaluate]\n{key} = 0.01\n")
    out = str(tmp_path / "run")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_CONFIG
    assert f"evaluate.{key}: domain 'clean' gets no {what} examples" in caplog.text
    assert not os.path.exists(out)


def test_run_refuses_non_finite_learning_rate(tmp_path, caplog):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(TINY.format(route="delete").replace(
        "learning_rate = 0.4", "learning_rate = nan"))
    out = str(tmp_path / "run")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_CONFIG
    assert "training.learning_rate: expected a finite number, got 'nan'" in caplog.text
    assert not os.path.exists(out)


def test_run_refuses_forget_class_outside_shared_labels(tmp_path, caplog):
    """[data] class_count admits class 7, but the IDX labels run 0..4."""
    from fusim import datasets
    from helpers import save_idx
    spec = datasets.SyntheticDomainSpec(1, resolution=(8, 8), samples_per_class=12,
                                        class_count=5)
    save_idx(datasets.synth_domain(spec, 0), tmp_path / "real-images.idx",
             tmp_path / "real-labels.idx")
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(f"""
[domain.real]
images = {tmp_path / "real-images.idx"}
labels = {tmp_path / "real-labels.idx"}
[partition]
working_resolution = 8x8
[unlearn]
route = delete
forget_class = 7
""")
    out = str(tmp_path / "run")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_CONFIG
    assert "unlearn.forget_class: 7 >= shared class count 5" in caplog.text
    assert not os.path.exists(os.path.join(out, "checkpoint_trained.fusim"))
    assert not os.path.exists(out)
