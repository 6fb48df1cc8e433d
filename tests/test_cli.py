"""End-to-end CLI and experiment orchestration tests on tiny configs."""
import builtins
import dataclasses
import filecmp
import json
import logging
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fusim import cli, config, evalkit, experiment, fedsim, nncore
from fusim.config import validate_config
from helpers import (TINY, reference_evaluation_sets, reference_report,
                     reference_validation_error, same_bits, save_idx, synthetic_domain,
                     write_idx)

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def write_cfg(tmp_path, route="none", name="cfg.ini"):
    path = tmp_path / name
    path.write_text(TINY.format(route=route))
    return path


def artifact_names(out):
    return sorted(p for p in os.listdir(out) if not p.startswith("."))


def test_route_none_pre_post_identical(tmp_path):
    cfg = validate_config(TINY.format(route="none"))
    evaluated = experiment.ensure_evaluate(cfg, str(tmp_path / "run"))
    (before, after), metrics = evaluated.value, evaluated.record
    assert same_bits(before.correct, after.correct) and same_bits(before.total, after.total)
    assert metrics["forget_efficacy"] == 0.0
    assert metrics["collateral_retained"] == 0.0


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
    task = experiment.ensure_partition(cfg, out).value
    plan_file = os.path.join(out, "partition.json")
    first = open(plan_file).read()
    trained = experiment.ensure_train(cfg, out)
    task2, params, summary = trained.task, trained.value, trained.record
    assert open(plan_file).read() == first
    assert task2.data.plan.to_doc() == task.data.plan.to_doc()
    # re-entry loads the checkpoint instead of retraining
    again = experiment.ensure_train(cfg, out)
    params2, summary2 = again.value, again.record
    assert summary2 == summary
    assert same_bits(params, params2)


def test_each_stage_returns_its_value_record_and_whether_it_ran(tmp_path):
    """ensure_evaluate's Stage and the three it builds on: in a fresh
    directory every stage ran, in a finished one none did; either way each
    record is its record file's document and each value is what the stage's
    files hold."""
    cfg = validate_config(TINY.format(route="delete"))
    out = str(tmp_path / "run")
    records = ("metrics.json", "unlearn_summary.json", "train_summary.json", "partition.json")
    for ran in (True, False):
        chain = [experiment.ensure_evaluate(cfg, out)]
        while chain[-1].prior is not None:
            chain.append(chain[-1].prior)
        assert [stage.ran for stage in chain] == [ran] * 4
        for stage, name in zip(chain, records, strict=True):
            with open(os.path.join(out, name)) as fh:
                assert stage.record == json.load(fh), name
        evaluated, unlearned, trained, partition = chain
        task = partition.value
        assert isinstance(task, experiment.Task)
        assert all(stage.task is task for stage in chain)
        for stage, name in ((trained, "checkpoint_trained.fusim"),
                            (unlearned, "checkpoint_unlearned.fusim")):
            assert same_bits(stage.value,
                             nncore.load_checkpoint(os.path.join(out, name), task.spec)), name
        for report, name in zip(evaluated.value, ("report_before.json", "report_after.json"),
                                strict=True):
            with open(os.path.join(out, name)) as fh:
                assert evalkit.report_to_json(report) == fh.read(), name


@pytest.mark.parametrize("checkpoint", ["checkpoint_trained.fusim",
                                        "checkpoint_unlearned.fusim"])
def test_resume_rejects_checkpoint_of_other_model(tmp_path, checkpoint):
    from fusim import nncore
    cfg = validate_config(TINY.format(route="delete"))
    out = str(tmp_path / "run")
    task = experiment.ensure_unlearn(cfg, out).task
    narrow = nncore.small_mlp(task.spec.input_shape, task.spec.class_count, hidden=7)
    nncore.save_checkpoint(os.path.join(out, checkpoint), narrow,
                           nncore.init_params(narrow, 1))
    wide = task.spec.param_count
    with pytest.raises(config.ConfigError,
                       match=rf"{checkpoint}: holds 503 float64 values, header byte \d+ "
                             rf"differs or is missing; the model takes {wide}$"):
        experiment.ensure_unlearn(cfg, out)


def test_failed_train_stage_leaves_no_round_checkpoint(tmp_path, monkeypatch):
    """Round checkpoints are written through the train stage's temp directory:
    a stage that fails in round 3 leaves none of them in the output directory,
    nor the temp directory itself, and a rerun commits them with the stage."""
    cfg = validate_config(TINY.format(route="none"))
    cfg = dataclasses.replace(cfg, training=dataclasses.replace(
        cfg.training, checkpoint_every=1, epsilon=1e-9))
    out = str(tmp_path / "run")
    real = fedsim.local_train

    def fail_in_round_3(trainers, global_params, spec, training, seed, round_index, *rest):
        if round_index == 3:
            raise ValueError("client 0, round 3: forced")
        return real(trainers, global_params, spec, training, seed, round_index, *rest)
    monkeypatch.setattr(fedsim, "local_train", fail_in_round_3)
    with pytest.raises(ValueError, match="forced"):
        experiment.ensure_train(cfg, out)
    assert sorted(os.listdir(out)) == ["partition.json", "plan.json", "splits.json"]
    monkeypatch.undo()
    trained = experiment.ensure_train(cfg, out)
    task, params = trained.task, trained.value
    rounds = [f"round_{t}.fusim" for t in range(1, cfg.training.rounds_max + 1)]
    assert set(rounds) | {"train_summary.json"} <= set(artifact_names(out))
    last = nncore.load_checkpoint(os.path.join(out, rounds[-1]), task.spec)
    assert same_bits(last, params)


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
    """Each stage command in turn, each building its own data, leaves the
    directory a one-shot run writes, byte for byte."""
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
    one_shot = str(tmp_path / "one_shot")
    assert cli.main(["run", "--config", str(cfg_path), "--out", one_shot]) == 0
    assert tree_bytes(out) == tree_bytes(one_shot)


def test_cli_route_override(tmp_path):
    cfg_path = write_cfg(tmp_path, route="none")
    out = str(tmp_path / "out")
    rc = cli.main(["run", "--config", str(cfg_path), "--out", out,
                   "--route", "zeroing"])
    assert rc == cli.EXIT_OK
    with open(os.path.join(out, "unlearn_summary.json")) as fh:
        assert json.load(fh)["config"]["unlearn.route"] == "zeroing"


def test_compare_four_routes_merged_table(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = str(tmp_path / "cmp")
    rc = cli.main(["compare", "--config", str(cfg_path), "--out", out,
                   "--routes", "delete,relabel,zeroing,fedcccu"])
    assert rc == cli.EXIT_OK
    lines = open(os.path.join(out, "compare.csv")).read().strip().split("\n")
    assert lines[0] == "client,class,before,delete,relabel,zeroing,fedcccu"
    assert len(lines) == 1 + 4 * 6  # 4 clients x 6 classes


def test_no_command_loads_numpy_ma(tmp_path):
    """fusim has no masked array, and numpy.ma costs about 1.25 MB of memory
    to load.  numpy 2.4 loads it on np.unique without return_index and on
    np.quantile, so the data build avoids both (README, Determinism notes);
    fedcccu's np.unique(..., return_index=True) does not load it.  The
    commands run in a fresh interpreter, since this one may hold it already."""
    tiny = TINY.format(route="none")
    strategies = {"iid": "strategy = iid\nclients = 3",
                  "dirichlet": "strategy = dirichlet\nclients = 3\nalpha = 0.5"}
    (tmp_path / "tiny.ini").write_text(tiny)
    commands = [["compare", "--config", str(tmp_path / "tiny.ini"), "--out",
                 str(tmp_path / "tiny"), "--routes", "delete,relabel,zeroing,fedcccu"]]
    for name, keys in strategies.items():
        (tmp_path / f"{name}.ini").write_text(tiny.replace("group_sizes = 2,2", keys))
        commands.append(["run", "--config", str(tmp_path / f"{name}.ini"), "--out",
                         str(tmp_path / name)])
    script = ("import json, sys\nfrom fusim import cli\n"
              "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, 'numpy.ma' in sys.modules]))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                           capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [[cli.EXIT_OK] * 3, False]


def test_compare_single_route_single_column(tmp_path):
    cfg = validate_config(TINY.format(route="delete"))
    text = experiment.compare_routes(cfg, ["delete"], str(tmp_path / "one"))
    assert text.splitlines()[0] == "client,class,before,delete"


def test_compare_identical_routes_identical_columns(tmp_path):
    a = validate_config(TINY.format(route="delete"))
    text = experiment.compare_routes(a, ["delete", "delete"], str(tmp_path / "dup"))
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


PARTITION_ARTIFACTS = ("partition.json", "plan.json", "splits.json")
TRAIN_ARTIFACTS = PARTITION_ARTIFACTS + ("checkpoint_trained.fusim", "rounds_train.csv",
                                         "train_summary.json")
UNLEARN_ARTIFACTS = ("checkpoint_unlearned.fusim", "rounds_unlearn.csv",
                     "unlearn_summary.json")
EVALUATE_ARTIFACTS = ("report_before.json", "report_after.json", "report.csv",
                      "metrics.json")


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
    assert artifact_names(out) == sorted(TRAIN_ARTIFACTS + ("compare.csv",) + tuple(
        f"route_{route}" for route in COMPARED))
    for route in COMPARED:
        assert artifact_names(os.path.join(out, f"route_{route}")) == sorted(
            UNLEARN_ARTIFACTS + EVALUATE_ARTIFACTS
            + (("audit_fedcccu.json",) if route == "fedcccu" else ()))


def test_compare_builds_before_report_once(tmp_path, monkeypatch):
    calls = count_reports(monkeypatch)
    cfg = validate_config(TINY.format(route="delete"))
    experiment.compare_routes(cfg, ["delete", "zeroing"], str(tmp_path / "cmp"))
    assert len(calls) == 3  # one before report, one after report per route


def test_compare_route_artifacts_match_single_runs(compared):
    base, cfg_path, out, _ = compared
    for route in COMPARED:
        single = str(base / f"run_{route}")
        rc = cli.main(["run", "--config", str(cfg_path), "--out", single, "--route", route])
        assert rc == cli.EXIT_OK
        for name in ("metrics.json", "report_before.json", "report_after.json",
                     "report.csv", "checkpoint_unlearned.fusim"):
            assert filecmp.cmp(os.path.join(out, f"route_{route}", name),
                               os.path.join(single, name), shallow=False), (route, name)


def test_each_fact_has_one_home_on_disk(compared):
    """The forgetting metrics are in metrics.json alone, the route and seed in
    the records alone, and the partition strategy, seed and alpha in
    partition.json's config record alone; so the one before report a compare
    shares is the same file in every route."""
    _, _, out, _ = compared
    reports = tree_bytes(out)
    befores = {reports[os.path.join(f"route_{route}", "report_before.json")]
               for route in COMPARED}
    assert len(befores) == 1
    for route in COMPARED:
        for name in ("report_before.json", "report_after.json"):
            doc = json.loads(reports[os.path.join(f"route_{route}", name)])
            assert sorted(doc) == ["clients", "global"], (route, name)
    with open(os.path.join(out, "partition.json")) as fh:
        assert sorted(json.load(fh)) == ["clients", "config"]


def test_a_directory_with_the_copies_still_resumes(finished_run, tmp_path, monkeypatch):
    """A finished directory written when the reports held metadata and
    forgetting metrics, and partition.json the strategy, seed and alpha,
    resumes without building data or changing a byte."""
    cfg_path, finished = finished_run
    out = str(tmp_path / "run")
    shutil.copytree(finished, out)
    with open(os.path.join(out, "metrics.json")) as fh:
        metrics = json.load(fh)
    copies = {
        "report_before.json": {"metadata": {"strategy": "before", "route": "delete",
                                            "seed": 5}},
        "report_after.json": {"metadata": {"strategy": "after", "route": "delete",
                                           "seed": 5},
                              "forgetting_metrics": {key: metrics[key] for key in (
                                  "forget_efficacy", "collateral_retained",
                                  "collateral_nonrequesting_forget")}},
        "partition.json": {"strategy": "real_noniid", "seed": 5, "alpha": 100.0},
    }
    for name, extra in copies.items():
        path = os.path.join(out, name)
        with open(path) as fh:
            doc = json.load(fh)
        with open(path, "w") as fh:
            json.dump({**doc, **extra}, fh, sort_keys=True, indent=1)
    before = tree_bytes(out)
    builds, domains = count_builds(monkeypatch)
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    assert builds == [] and domains == []
    assert tree_bytes(out) == before


def tree_inodes(root):
    return {os.path.relpath(path, root): os.stat(path).st_ino
            for path in (os.path.join(base, name)
                         for base, _, files in os.walk(root) for name in files)}


def test_compare_resume_trains_nothing_and_changes_no_byte(compared, tmp_path, monkeypatch):
    """A second compare on a finished directory loads the config once,
    trains, evaluates and builds nothing, and writes nothing: every file
    keeps its bytes and its inode."""
    _, cfg_path, out, _ = compared
    again = str(tmp_path / "again")
    shutil.copytree(out, again)
    finished = tree_bytes(again)
    inodes = tree_inodes(again)
    calls = count_trainings(monkeypatch)
    reports = count_reports(monkeypatch)
    builds, domains = count_builds(monkeypatch)
    loads = count_calls(monkeypatch, cli, "load_config")
    rc = cli.main(["compare", "--config", str(cfg_path), "--out", again,
                   "--routes", ",".join(COMPARED)])
    assert rc == cli.EXIT_OK
    assert loads == ["load_config"]
    assert calls == []
    assert reports == []
    assert builds == [] and domains == []
    assert "compare.csv" in finished
    assert tree_bytes(again) == finished
    assert tree_inodes(again) == inodes


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


def test_run_resume_reads_evaluate_artifacts_back(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, route="delete")
    out = str(tmp_path / "run")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    assert artifact_names(out) == sorted(TRAIN_ARTIFACTS + UNLEARN_ARTIFACTS
                                         + EVALUATE_ARTIFACTS)
    finished = tree_bytes(out)
    inodes = {name: os.stat(os.path.join(out, name)).st_ino for name in EVALUATE_ARTIFACTS}
    cfg = validate_config(cfg_path.read_text())
    evaluated = experiment.ensure_evaluate(cfg, out)
    (before, after), metrics = evaluated.value, evaluated.record
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
    evaluated = experiment.ensure_evaluate(cfg, fresh)
    (before2, after2), metrics2 = evaluated.value, evaluated.record
    for read, built in ((before, before2), (after, after2)):
        assert same_bits(read.correct, built.correct) and same_bits(read.total, built.total)
    assert metrics == metrics2


def test_evaluate_resume_refuses_metrics_of_other_route(tmp_path, caplog):
    cfg_path = write_cfg(tmp_path, route="delete")
    out = str(tmp_path / "run")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    path = os.path.join(out, "metrics.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["config"]["unlearn.route"] = "zeroing"
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    finished = tree_bytes(out)
    caplog.clear()
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_CONFIG
    assert ("metrics.json: unlearn.route is 'zeroing' but the config asks for 'delete'"
            in caplog.text)
    assert tree_bytes(out) == finished


@pytest.mark.parametrize("key, edit", [("forget_efficacy", None),
                                       ("collateral_nonrequesting_forget", "12.5")])
def test_evaluate_resume_refuses_a_record_without_a_metric(tmp_path, caplog, key, edit):
    """A metrics.json record that lacks one of the three metrics, or holds
    other than a number for it, exits 1 naming the file and the key, and
    changes no file."""
    cfg_path = write_cfg(tmp_path, route="delete")
    out = str(tmp_path / "run")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    path = os.path.join(out, "metrics.json")
    with open(path) as fh:
        doc = json.load(fh)
    if edit is None:
        del doc[key]
    else:
        doc[key] = edit
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    finished = tree_bytes(out)
    caplog.clear()
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_CONFIG
    assert f"{path}: {key} is missing or not a number" in caplog.text
    assert tree_bytes(out) == finished


def edit_report(edit):
    """A damage for a finished report file: edit(doc) on its parsed JSON."""
    def damage(data):
        doc = json.loads(data)
        edit(doc)
        return json.dumps(doc).encode()
    return damage


@pytest.mark.parametrize("name, damage, clause", [
    ("report_after.json", lambda data: data[:len(data) // 2], "not valid JSON"),
    ("report_before.json", edit_report(lambda doc: doc.pop("clients")),
     "no 'clients' object"),
    ("report_after.json", edit_report(lambda doc: doc["clients"].pop("3")),
     "client ids ['0', '1', '2'] are not 0..3"),
    ("report_after.json", edit_report(lambda doc: doc["clients"]["0"]["classes"].update(
        {"13": {"correct": 1, "total": 1}})), "client 0 class '13': not a class id in 0..5"),
    ("report_before.json", edit_report(
        lambda doc: doc["clients"]["2"]["classes"]["1"].update(total="x")),
     "client 2 class '1': correct and total must be integers"),
    ("report_after.json", edit_report(
        lambda doc: doc["clients"]["1"]["classes"]["0"].update(correct=0, total=0)),
     "client 1 class '0': total 0 not in 1..9223372036854775807"),
    ("report_before.json", edit_report(
        lambda doc: doc["clients"]["0"]["classes"]["4"].update(correct=10 ** 6)),
     "client 0 class '4': correct 1000000 not in 0.."),
], ids=["json", "no-clients", "client-ids", "class-id", "count-type", "zero-total",
        "correct-above-total"])
def test_evaluate_resume_refuses_a_damaged_report(finished_run, tmp_path, caplog, name,
                                                  damage, clause):
    """A report file a resume reads back is checked count by count: a fault
    exits 1 naming the file and the fault, and changes no file."""
    cfg_path, finished = finished_run
    out = str(tmp_path / "run")
    shutil.copytree(finished, out)
    path = os.path.join(out, name)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(damage(data))
    before = tree_bytes(out)
    caplog.clear()
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_CONFIG
    assert f"config: {path}: {clause}" in caplog.text
    assert "; use a fresh output directory" in caplog.text
    assert tree_bytes(out) == before


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


def test_partition_log_counts_domains_not_groups(tmp_path, caplog):
    """An iid plan is one group of clients over every domain: the log names
    the configured domains, not the one group."""
    path = tmp_path / "iid.ini"
    path.write_text(TINY.format(route="none").replace("group_sizes = 2,2",
                                                      "strategy = iid\nclients = 3"))
    caplog.set_level(logging.INFO, logger="fusim")
    out = str(tmp_path / "part")
    assert cli.main(["partition", "--config", str(path), "--out", out]) == cli.EXIT_OK
    assert "partition: 3 clients over 2 domains" in caplog.text


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
    first use, the plan included, is the fresh stage's, bit for bit."""
    if source == "idx":
        for name, classes in (("wide", 6), ("narrow", 4)):
            save_idx(synthetic_domain(1, 0, (8, 8), classes, 12),
                     tmp_path / f"{name}-images.idx", tmp_path / f"{name}-labels.idx")
        cfg = validate_config(IDX_CFG.format(wide=tmp_path / "wide",
                                             narrow=tmp_path / "narrow"))
        classes = 4   # the labels both domains share
    else:
        cfg = validate_config(TINY.format(route="none"))
        classes = 6
    out = str(tmp_path / "part")
    fresh = experiment.ensure_partition(cfg, out).value
    assert fresh.spec.class_count == classes
    assert fresh.data.train.class_count == classes
    builds, domains = count_builds(monkeypatch)
    resumed = experiment.ensure_partition(cfg, out).value
    assert resumed.spec == fresh.spec
    assert builds == [] and domains == []
    got, want = resumed.data, fresh.data   # the first use, which builds the data
    assert got.plan.to_doc() == want.plan.to_doc()
    assert got.train.images.tobytes() == want.train.images.tobytes()
    assert same_bits(got.val.images, want.val.images)
    assert same_bits(got.val.labels, want.val.labels)
    assert got.splits.keys() == want.splits.keys()
    for name, sp in want.splits.items():
        for part in ("train", "val", "test"):
            assert same_bits(getattr(got.splits[name], part), getattr(sp, part))
    assert same_bits(got.client_sets, want.client_sets)
    for got_set, want_set in zip(got.test_sets, want.test_sets, strict=True):
        assert same_bits(got_set.images, want_set.images)
    assert len(builds) == 1 and len(domains) == 2


@pytest.mark.parametrize("partition", [
    "group_sizes = 2,2",
    "strategy = iid\nclients = 3",
    "strategy = dirichlet\nclients = 3\nalpha = 0.5",
], ids=["real_noniid", "iid", "dirichlet"])
def test_evaluation_equals_one_count_per_client_view(partition):
    """The reports and every round's validation error equal those counted
    on a view of each client's own test set and on the validation sets
    joined in domain-name order."""
    cfg = validate_config(TINY.format(route="none").replace("group_sizes = 2,2", partition))
    task = experiment.Task(cfg)
    data = task.data
    views, val_x, val_y = reference_evaluation_sets(cfg, task.spec.class_count)
    saved = []
    result = fedsim.run_training(
        task.spec, fedsim.build_clients(data.plan, data.train), data.val,
        dataclasses.replace(cfg.training, checkpoint_every=1), cfg.seed,
        save_round=lambda t, params: saved.append(params))
    assert [log.val_error for log in result.logs] == [
        reference_validation_error(task.spec, params, val_x, val_y) for params in saved]
    for params in (saved[0], result.params):
        got = evalkit.build_report(task.spec, params, data.test_sets, data.client_sets)
        want = reference_report(task.spec, params, views)
        assert same_bits(got.correct, want.correct) and same_bits(got.total, want.total)


@pytest.mark.parametrize("name,test_sets,clients", [("digits3", 3, 9), ("pair2", 2, 6)])
def test_build_report_counts_each_test_set_once(monkeypatch, name, test_sets, clients):
    """A report predicts each domain's test set once, not once per client."""
    task = experiment.Task(config.load_config(CONFIG_DIR / f"{name}.ini"))
    calls = count_calls(monkeypatch, evalkit, "evaluate_client")
    report = evalkit.build_report(task.spec, nncore.init_params(task.spec, 0),
                                  task.data.test_sets, task.data.client_sets)
    assert len(calls) == test_sets
    assert report.total.shape == (clients, task.spec.class_count)


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
    save_idx(synthetic_domain(1, 0, (8, 8), 5, 12), tmp_path / "real-images.idx",
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


def test_a_domain_with_no_shared_label_is_named(tmp_path, caplog):
    """An IDX domain labelled 5 throughout, beside a synthetic domain of
    three classes, holds no example of the shared labels 0..2: partition
    exits 1 naming the domain and those labels, and writes nothing."""
    write_idx(np.full((40, 8, 8), 128), np.full(40, 5), tmp_path / "real-images.idx",
              tmp_path / "real-labels.idx")
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(f"""
[data]
class_count = 3
[domain.synth]
resolution = 8x8
[domain.real]
images = {tmp_path / "real-images.idx"}
labels = {tmp_path / "real-labels.idx"}
[partition]
working_resolution = 8x8
""")
    out = tmp_path / "run"
    assert cli.main(["partition", "--config", str(cfg_path), "--out", str(out)]) == \
        cli.EXIT_CONFIG
    assert "domain 'real' holds no example of the shared labels 0..2" in caplog.text
    assert not out.exists()


def test_forget_class_outside_idx_labels_is_refused_before_any_domain_is_made(
        tmp_path, monkeypatch, caplog):
    """The shared class count comes from the IDX labels file alone, so a
    forget class it does not hold exits 1 before a domain, synthetic or IDX,
    is made."""
    save_idx(synthetic_domain(1, 0, (8, 8), 5, 12), tmp_path / "real-images.idx",
             tmp_path / "real-labels.idx")
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(f"""
[domain.clean]
transform = identity
resolution = 8x8
[domain.real]
images = {tmp_path / "real-images.idx"}
labels = {tmp_path / "real-labels.idx"}
[partition]
group_sizes = 1,1
working_resolution = 8x8
[unlearn]
route = delete
forget_class = 7
""")
    builds, domains = count_builds(monkeypatch)
    out = str(tmp_path / "run")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_CONFIG
    assert "unlearn.forget_class: 7 >= shared class count 5" in caplog.text
    assert domains == []
    assert not os.path.exists(out)


def test_data_class_count_does_not_cap_the_forget_class_of_idx_domains(tmp_path, caplog):
    """[data] class_count sizes synthetic domains only: over IDX domains
    alone, forget class 11 of a 12-class pair is inside the shared range,
    and forget class 12 is refused by the shared class count."""
    save_idx(synthetic_domain(1, 0, (8, 8), 12, 12), tmp_path / "real-images.idx",
             tmp_path / "real-labels.idx")
    for forget_class, code in ((11, cli.EXIT_OK), (12, cli.EXIT_CONFIG)):
        cfg_path = tmp_path / f"cfg{forget_class}.ini"
        cfg_path.write_text(f"""
[domain.real]
images = {tmp_path / "real-images.idx"}
labels = {tmp_path / "real-labels.idx"}
[partition]
working_resolution = 8x8
[unlearn]
forget_class = {forget_class}
""")
        out = str(tmp_path / f"run{forget_class}")
        assert cli.main(["partition", "--config", str(cfg_path), "--out", out]) == code
    assert "unlearn.forget_class: 12 >= shared class count 12" in caplog.text
    assert "class_count 10" not in caplog.text


def test_train_after_partition_reads_each_labels_file_once(tmp_path, monkeypatch):
    """fusim train on a finished partition stage reads each IDX labels file
    once, for the shared class count of the resumed stage's model spec; its
    data build takes that count and reads no labels file for it again."""
    for name, classes in (("wide", 6), ("narrow", 4)):
        save_idx(synthetic_domain(1, 0, (8, 8), classes, 12),
                 tmp_path / f"{name}-images.idx", tmp_path / f"{name}-labels.idx")
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(IDX_CFG.format(wide=tmp_path / "wide", narrow=tmp_path / "narrow"))
    out = str(tmp_path / "run")
    assert cli.main(["partition", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    read, real = [], experiment.idx_class_count

    def counted(path, *args):
        read.append(str(path))
        return real(path, *args)
    monkeypatch.setattr(experiment, "idx_class_count", counted)
    builds, _ = count_builds(monkeypatch)
    assert cli.main(["train", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    assert len(builds) == 1
    assert sorted(read) == [f"{tmp_path / name}-labels.idx" for name in ("narrow", "wide")]


@pytest.mark.parametrize("stage", ["partition", "train"])
def test_a_stage_reads_each_idx_file_once(tmp_path, monkeypatch, stage):
    """A fresh partition stage opens each IDX file once: the bytes read for
    the spec's class count serve the data build and partition.json's sizes
    and hashes too.  So does a train stage after it, whose partition resume
    checks those hashes."""
    paths = [tmp_path / f"real-{part}.idx" for part in ("images", "labels")]
    save_idx(synthetic_domain(1, 0, (8, 8), 5, 12), *paths)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(f"""
[domain.real]
images = {paths[0]}
labels = {paths[1]}
[partition]
working_resolution = 8x8
[training]
rounds_max = 1
""")
    out = str(tmp_path / "run")
    if stage == "train":
        assert cli.main(["partition", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    opened, real_open = [], builtins.open

    def counted(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", counted)
    assert cli.main([stage, "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    assert sorted(name for name in opened if name.endswith(".idx")) == sorted(map(str, paths))


@pytest.mark.parametrize("rewrite", ["images", "labels"])
def test_partition_resume_refuses_a_rewritten_idx_file(tmp_path, caplog, rewrite):
    """partition.json records each IDX file's byte size and sha256; a file
    rewritten in place, with the same size or not, is refused on resume,
    naming it, and no byte of the output directory changes."""
    import hashlib

    paths = {part: tmp_path / f"a-{part}.idx" for part in ("images", "labels")}
    save_idx(synthetic_domain(1, 0, (8, 8), 5, 12), paths["images"], paths["labels"])
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(f"""
[domain.a]
images = {paths["images"]}
labels = {paths["labels"]}
[partition]
working_resolution = 8x8
""")
    out = str(tmp_path / "run")
    assert cli.main(["partition", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    with open(os.path.join(out, "partition.json")) as fh:
        recorded = json.load(fh)["idx_files"]
    for path in paths.values():
        data = path.read_bytes()
        assert recorded[str(path)] == {"bytes": len(data),
                                       "sha256": hashlib.sha256(data).hexdigest()}
    assert cli.main(["partition", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    other = synthetic_domain(1, 1, (8, 8), 5, 12)
    if rewrite == "labels":  # one label fewer changes the size as well
        other = dataclasses.replace(other, images=other.images[:-1], labels=other.labels[:-1])
    save_idx(other, tmp_path / "other-images.idx", tmp_path / "other-labels.idx")
    paths[rewrite].write_bytes((tmp_path / f"other-{rewrite}.idx").read_bytes())
    finished = tree_bytes(out)
    caplog.clear()
    assert cli.main(["partition", "--config", str(cfg_path), "--out", out]) == cli.EXIT_CONFIG
    assert f"{os.path.join(out, 'partition.json')}: {paths[rewrite]} is " in caplog.text
    assert tree_bytes(out) == finished


def test_seed_override_is_checked_by_the_table(tmp_path, caplog):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "part"
    rc = cli.main(["partition", "--config", str(cfg_path), "--out", str(out), "--seed", "-1"])
    assert rc == cli.EXIT_CONFIG
    assert "config: --seed: experiment.seed: -1 outside allowed range [0, inf]" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("routes,message", [
    (" , ", "config: --routes: no routes given"),
    ("", "config: --routes: no routes given"),
    ("delete,bogus", "config: --routes: unlearn.route: 'bogus' not one of"),
])
def test_compare_refuses_routes_the_table_does_not_allow(tmp_path, caplog, routes, message):
    cfg_path = write_cfg(tmp_path)
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(cfg_path), "--out", str(out), "--routes", routes])
    assert rc == cli.EXIT_CONFIG
    assert message in caplog.text
    assert not out.exists()


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A finished delete run of TINY: (config path, out dir)."""
    base = tmp_path_factory.mktemp("finished")
    cfg_path = write_cfg(base, route="delete")
    out = str(base / "run")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    return cfg_path, out


@pytest.mark.parametrize("name,damage,rc,message", [
    pytest.param("train_summary.json", lambda data: data[:len(data) // 2], cli.EXIT_CONFIG,
                 "train_summary.json: not valid JSON",
                 id="train_summary.json-truncated-not-valid-JSON"),
    ("partition.json", lambda data: b"[1]", cli.EXIT_CONFIG,
     "partition.json: no config record; use a fresh output directory"),
    ("train_summary.json", lambda data: b"{}", cli.EXIT_CONFIG,
     "train_summary.json: no config record; use a fresh output directory"),
])
def test_resume_names_a_malformed_record(finished_run, tmp_path, caplog, name, damage, rc,
                                         message):
    cfg_path, finished = finished_run
    out = str(tmp_path / "run")
    shutil.copytree(finished, out)
    path = os.path.join(out, name)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(damage(data))
    before = tree_bytes(out)
    caplog.clear()
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == rc
    assert os.path.join(out, message) in caplog.text
    assert tree_bytes(out) == before


def tree_state(root):
    """Every directory under root, and every file with its bytes."""
    dirs = {os.path.relpath(os.path.join(base, name), root): None
            for base, names, _ in os.walk(root) for name in names}
    return {**dirs, **tree_bytes(root)}


def one_idx_domain(tmp_path, labels, route="none", damage=lambda data: data):
    """A config of one IDX domain of mid-grey 8x8 images with labels, its
    labels file's bytes passed through damage: (config path, images path,
    labels path)."""
    images, labels_path = tmp_path / "real-images.idx", tmp_path / "real-labels.idx"
    write_idx(np.full((len(labels), 8, 8), 128), labels, images, labels_path)
    labels_path.write_bytes(damage(labels_path.read_bytes()))
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(f"""
[domain.real]
images = {images}
labels = {labels_path}
[partition]
working_resolution = 8x8
[unlearn]
route = {route}
""")
    return cfg_path, images, labels_path


def damaged_idx(damage, needle):
    def make(tmp_path, finished):
        cfg_path, images, labels = one_idx_domain(tmp_path, np.arange(40) % 4, damage=damage)
        return cfg_path, tmp_path / "run", needle.format(images=images, labels=labels)
    return make


def damaged_tiny(edits, needle):
    def make(tmp_path, finished):
        cfg_path = write_cfg(tmp_path, route="delete")
        text = cfg_path.read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        cfg_path.write_text(text)
        return cfg_path, tmp_path / "run", needle
    return make


def damaged_artifact(name, damage, needle, remove=()):
    def make(tmp_path, finished):
        cfg_path, out = finished
        copy = tmp_path / "run"
        shutil.copytree(out, copy)
        (copy / name).write_bytes(damage((copy / name).read_bytes()))
        for other in remove:
            os.remove(copy / other)
        return cfg_path, copy, needle.format(path=copy / name)
    return make


ONE_CLASS = ("config: domains: the shared class count is 1; forgetting a class needs at "
             "least two")


def one_class(route):
    def make(tmp_path, finished):
        cfg_path, _, _ = one_idx_domain(tmp_path, np.zeros(40, dtype=int), route=route)
        return cfg_path, tmp_path / "run", ONE_CLASS
    return make


def requester_without_the_forget_class(tmp_path, finished):
    """A synthetic domain, then an IDX domain whose labels are 1..5, with
    client 2 of the IDX group requesting that class 0 be forgotten."""
    images, labels = tmp_path / "real-images.idx", tmp_path / "real-labels.idx"
    write_idx(np.full((50, 8, 8), 128), np.arange(50) % 5 + 1, images, labels)
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(f"""
[data]
class_count = 6
samples_per_class = 10
[domain.clean]
resolution = 8x8
[domain.real]
images = {images}
labels = {labels}
[partition]
group_sizes = 2,2
working_resolution = 8x8
[unlearn]
route = delete
requesting_clients = 2
""")
    return (cfg_path, tmp_path / "run",
            "config: unlearn.requesting_clients: none is tested on the forget class")


def idx_path_is_a_directory(tmp_path, finished):
    cfg_path, images, _ = one_idx_domain(tmp_path, np.arange(40) % 4)
    images.unlink()
    images.mkdir()
    return (cfg_path, tmp_path / "run",
            f"config: line 3: domain.real.images: file not found: {images}")


IID_ON_64 = """
[data]
class_count = 2
samples_per_class = 40
[domain.only]
resolution = 8x8
[partition]
strategy = iid
clients = 100
working_resolution = 8x8
"""


def iid_on_64(tmp_path, finished):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(IID_ON_64)
    return (cfg_path, tmp_path / "run",
            "config: partition.clients: cannot split 64 examples across 100 clients")


@pytest.mark.parametrize("make", [
    damaged_idx(lambda data: struct.pack(">I", 0x803) + data[4:],
                "config: {labels}: magic 0x00000803, expected 0x00000801"),
    damaged_idx(lambda data: data[:-3], "config: {labels}: expected 40 payload bytes, got 37"),
    damaged_idx(lambda data: struct.pack(">II", 0x801, 39) + data[8:-1],
                "config: {images}: 40 images but 39 labels"),
    damaged_artifact("checkpoint_trained.fusim", lambda data: data[:-8],
                     "config: {path}: holds", remove=["unlearn_summary.json"]),
    damaged_artifact("train_summary.json", lambda data: data[:len(data) // 2],
                     "config: {path}: not valid JSON"),
    damaged_artifact("report_after.json", lambda data: data[:len(data) // 2],
                     "config: {path}: not valid JSON"),
    damaged_tiny({"samples_per_class = 30\n": "samples_per_class = 4\n",
                  "probe_cap = 16\n": "probe_cap = 16\n[evaluate]\nval_fraction = 0.4\n"
                                      "test_fraction = 0.4\n"},
                 "config: evaluate.val_fraction, evaluate.test_fraction: domain clean: "
                 "class 0 has no training samples after split (4 total)"),
    iid_on_64,
    damaged_tiny({"group_sizes = 2,2\n": "strategy = dirichlet\nclients = 8\nalpha = 0.001\n"},
                 "config: partition.alpha: no nonempty Dirichlet assignment"),
    one_class("relabel"),
    one_class("none"),
    idx_path_is_a_directory,
    requester_without_the_forget_class,
], ids=["idx-labels-magic", "idx-labels-truncated", "idx-count-mismatch",
        "truncated-checkpoint", "summary-not-json", "report-not-json", "split-leaves-no-train",
        "iid-more-clients-than-examples", "dirichlet-tiny-alpha", "relabel-one-class",
        "none-one-class", "idx-path-is-a-directory", "requester-without-the-forget-class"])
def test_a_damaged_input_exits_1_names_it_and_writes_nothing(finished_run, tmp_path, caplog,
                                                             make):
    """A fault in the config, an IDX file or an output-directory artifact is
    the user's: the run exits 1, names the path or key, and creates or
    changes no file or directory."""
    cfg_path, out, needle = make(tmp_path, finished_run)
    before = tree_state(tmp_path)
    caplog.clear()
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert needle in caplog.text
    assert tree_state(tmp_path) == before


@pytest.mark.parametrize("make", [one_class("zeroing"), requester_without_the_forget_class],
                         ids=["one-class", "requester-without-the-forget-class"])
def test_compare_refuses_a_config_before_any_route_writes(tmp_path, caplog, make):
    """A compare builds one Task for all its routes, so a config that no
    route can run exits 1 before training, and creates no directory."""
    cfg_path, out, needle = make(tmp_path, None)
    before = tree_state(tmp_path)
    caplog.clear()
    assert cli.main(["compare", "--config", str(cfg_path), "--out", str(out),
                     "--routes", "zeroing,relabel"]) == cli.EXIT_CONFIG
    assert needle in caplog.text
    assert tree_state(tmp_path) == before


def test_a_stage_after_one_that_ran_runs_too(finished_run, tmp_path, caplog):
    """With the trained checkpoint replaced by a valid checkpoint of another
    model (init_params) and the unlearn record deleted, a rerun runs the
    unlearn stage, so the evaluate stage after it runs too: report_after.json
    is the report of the unlearned checkpoint on disk, not the one before.
    Refusing the checkpoint, exit 1 with no byte changed, would pass too."""
    cfg_path, finished = finished_run
    out = str(tmp_path / "run")
    shutil.copytree(finished, out)
    cfg = validate_config(cfg_path.read_text())
    task = experiment.Task(cfg)
    ckpt = os.path.join(out, "checkpoint_trained.fusim")
    nncore.save_checkpoint(ckpt, task.spec, nncore.init_params(task.spec, 1))
    os.remove(os.path.join(out, "unlearn_summary.json"))
    before = tree_bytes(out)
    caplog.clear()
    rc = cli.main(["run", "--config", str(cfg_path), "--out", out])
    if rc == cli.EXIT_CONFIG:
        assert ckpt in caplog.text
        assert tree_bytes(out) == before
        return
    assert rc == cli.EXIT_OK
    unlearned = nncore.load_checkpoint(os.path.join(out, "checkpoint_unlearned.fusim"),
                                       task.spec)
    assert not same_bits(unlearned, nncore.load_checkpoint(
        os.path.join(finished, "checkpoint_unlearned.fusim"), task.spec))
    data = task.data
    want = evalkit.build_report(task.spec, unlearned, data.test_sets, data.client_sets)
    with open(os.path.join(out, "report_after.json"), "rb") as fh:
        assert fh.read().decode("utf-8") == evalkit.report_to_json(want)


def test_a_fault_of_the_run_itself_exits_2(tmp_path, monkeypatch, caplog):
    def fail(*args):
        raise ValueError("client 0, round 1: forced")
    monkeypatch.setattr(fedsim, "local_train", fail)
    cfg_path = write_cfg(tmp_path, route="delete")
    out = str(tmp_path / "run")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_RUNTIME
    assert "runtime: client 0, round 1: forced" in caplog.text


@pytest.fixture(scope="module")
def finished_fedcccu_run(tmp_path_factory):
    """A finished fedcccu run of TINY with a round checkpoint every second
    round: (config path, out dir)."""
    base = tmp_path_factory.mktemp("finished_fedcccu")
    cfg_path = base / "cfg.ini"
    cfg_path.write_text(TINY.format(route="fedcccu").replace(
        "epsilon = 0.2\n", "epsilon = 0.2\ncheckpoint_every = 2\n"))
    out = str(base / "run")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    return cfg_path, out


STAGES = ("partition", "train", "unlearn", "evaluate")


def stage_of(name):
    """The stage of a run that writes the file name."""
    if name in PARTITION_ARTIFACTS:
        return "partition"
    if name in TRAIN_ARTIFACTS or name.startswith("round_"):
        return "train"
    return "evaluate" if name in EVALUATE_ARTIFACTS else "unlearn"


def count_stage_work(monkeypatch) -> list[list]:
    """The calls of the train, unlearn and evaluate stages' work: trainings,
    routes run and reports built."""
    return [count_trainings(monkeypatch), count_calls(monkeypatch, experiment, "run_route"),
            count_reports(monkeypatch)]


@pytest.mark.parametrize("name", ["rounds_train.csv", "rounds_unlearn.csv",
                                  "audit_fedcccu.json", "round_2.fusim", "plan.json",
                                  "splits.json"])
def test_a_deleted_stage_file_is_written_again(finished_fedcccu_run, tmp_path, monkeypatch,
                                               name):
    """Every file a stage writes is one of its artifacts, a round checkpoint
    one its record implies: with one deleted, a rerun runs that stage and
    every stage after it again, each doing its work and writing each of its
    files anew, and leaves every file as the first run wrote it."""
    cfg_path, finished = finished_fedcccu_run
    out = str(tmp_path / "run")
    shutil.copytree(finished, out)
    want, inodes = tree_bytes(out), tree_inodes(out)
    os.remove(os.path.join(out, name))
    stage = stage_of(name)
    work = count_stage_work(monkeypatch)
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    assert tree_bytes(out) == want
    assert [len(calls) for calls in work] == [int(stage != "unlearn"), 1, 2]
    kept = {n for n, inode in tree_inodes(out).items() if inodes[n] == inode}
    assert kept == {n for n in want if STAGES.index(stage_of(n)) < STAGES.index(stage)}


def test_a_deleted_train_file_reruns_every_route_of_a_compare(compared, tmp_path,
                                                               monkeypatch):
    """With rounds_train.csv deleted from a finished compare, the rerun
    trains again, so every route's unlearn and evaluate stages run again on
    the retrained model: one training, one route each, the shared before
    report and each route's after report.  Every file keeps its bytes; only
    the partition stage's files and compare.csv keep their inodes."""
    _, cfg_path, out, _ = compared
    again = str(tmp_path / "again")
    shutil.copytree(out, again)
    want, inodes = tree_bytes(again), tree_inodes(again)
    os.remove(os.path.join(again, "rounds_train.csv"))
    work = count_stage_work(monkeypatch)
    rc = cli.main(["compare", "--config", str(cfg_path), "--out", again,
                   "--routes", ",".join(COMPARED)])
    assert rc == cli.EXIT_OK
    assert tree_bytes(again) == want
    assert [len(calls) for calls in work] == [1, len(COMPARED), len(COMPARED) + 1]
    kept = {n for n, inode in tree_inodes(again).items() if inodes[n] == inode}
    assert kept == {*PARTITION_ARTIFACTS, "compare.csv"}


@pytest.mark.parametrize("name, key, value, what", [
    ("train_summary.json", "rounds_run", "x", "an int >= 0"),
    ("train_summary.json", "rounds_run", -1, "an int >= 0"),
    ("train_summary.json", "rounds_run", None, "an int >= 0"),
    ("train_summary.json", "convergence_round", 2.0, "an int or null"),
    ("train_summary.json", "convergence_round", ..., "an int or null"),
    ("train_summary.json", "final_val_error", "0.1", "a number or null"),
    ("train_summary.json", "final_val_error", ..., "a number or null"),
    ("unlearn_summary.json", "unlearn_rounds_run", True, "an int >= 0"),
    ("unlearn_summary.json", "unlearn_rounds_run", ..., "an int >= 0"),
], ids=["rounds_run-str", "rounds_run-negative", "rounds_run-null", "convergence_round-float",
        "convergence_round-missing", "final_val_error-str", "final_val_error-missing",
        "unlearn_rounds_run-bool", "unlearn_rounds_run-missing"])
def test_resume_refuses_a_damaged_summary(finished_run, tmp_path, caplog, name, key, value,
                                          what):
    """Each summary value the program reads back is checked: a wrong type or
    a missing key (value ...) exits 1 naming the file and the key, and
    changes no file."""
    cfg_path, finished = finished_run
    out = str(tmp_path / "run")
    shutil.copytree(finished, out)
    path = os.path.join(out, name)
    with open(path) as fh:
        doc = json.load(fh)
    if value is ...:
        del doc[key]
    else:
        doc[key] = value
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    before = tree_bytes(out)
    caplog.clear()
    assert cli.main(["unlearn", "--config", str(cfg_path), "--out", out]) == cli.EXIT_CONFIG
    assert f"config: {path}: {key} is missing or not {what}; use a fresh output directory" \
        in caplog.text
    assert tree_bytes(out) == before


def test_partition_artifacts_are_records_not_inputs(tmp_path):
    """The train stage takes its plan and splits from the config: editing
    plan.json (two clients of one domain swap their indices, and
    partition.json their counts) and splits.json (one domain swaps its
    validation and test lists) after the partition stage changes no byte of
    what it trains."""
    cfg_path = write_cfg(tmp_path)
    out = str(tmp_path / "run")
    assert cli.main(["partition", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    for name, key in (("plan.json", "domains"), ("partition.json", "count")):
        path = os.path.join(out, name)
        with open(path) as fh:
            doc = json.load(fh)
        first, second = doc["clients"][:2]
        if key == "domains":
            assert list(first["domains"]) == list(second["domains"])
        assert first[key] != second[key]
        first[key], second[key] = second[key], first[key]
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
    path = os.path.join(out, "splits.json")
    with open(path) as fh:
        doc = json.load(fh)
    noisy = doc["noisy"]
    noisy["val"], noisy["test"] = noisy["test"], noisy["val"]
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    edited = tree_bytes(out)
    assert cli.main(["train", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    one_shot = str(tmp_path / "one_shot")
    assert cli.main(["train", "--config", str(cfg_path), "--out", one_shot]) == cli.EXIT_OK
    now, fresh = tree_bytes(out), tree_bytes(one_shot)
    trained = set(fresh) - set(edited)
    assert "checkpoint_trained.fusim" in trained
    assert {name: now[name] for name in trained} == {name: fresh[name] for name in trained}
    assert {name: now[name] for name in edited} == edited


def test_partition_record_does_not_grow_with_the_example_count(tmp_path):
    """partition.json holds each client's count, not its indices: TINY at 30
    and at 60 samples per class writes records of one length, the counts'
    digits aside, whose counts are the plan's client sizes and sum to the
    train pool; the indices are plan.json's."""
    lengths = set()
    for per_class in (30, 60):
        cfg = validate_config(TINY.format(route="none").replace(
            "samples_per_class = 30\n", f"samples_per_class = {per_class}\n"))
        out = str(tmp_path / str(per_class))
        task = experiment.ensure_partition(cfg, out).value
        with open(os.path.join(out, "partition.json")) as fh:
            text = fh.read()
        with open(os.path.join(out, "plan.json")) as fh:
            plan = json.load(fh)
        counts = [c["count"] for c in json.loads(text)["clients"]]
        assert counts == [len(c) for c in task.data.plan.clients]
        assert counts == [sum(map(len, c["domains"].values())) for c in plan["clients"]]
        assert sum(counts) == len(task.data.train)
        lengths.add(len(text) - sum(len(str(n)) for n in counts))
    assert len(lengths) == 1


def test_main_calls_in_one_process_behave_as_alone(tmp_path, caplog):
    """main builds its parser once per process; calls with other subcommands
    and flags after it give the exit code, log and files each gives with a
    parser of its own."""
    caplog.set_level(logging.INFO, logger="fusim")
    cfg = str(write_cfg(tmp_path, route="zeroing"))
    calls = [["compare", "--config", cfg, "--routes", "zeroing", "--seed", "3"],
             ["partition", "--config", cfg],
             ["run", "--config", cfg, "--route", "none"],
             ["train", "--config", cfg, "--seed", "-1"]]

    def outcome(call, out):
        caplog.clear()
        rc = cli.main(call + ["--out", out])
        return (rc, caplog.text.replace(out, "OUT"),
                tree_bytes(out) if os.path.exists(out) else None)

    together = [outcome(call, str(tmp_path / f"together{i}")) for i, call in enumerate(calls)]
    assert cli.build_parser() is cli.build_parser()
    alone = []
    for i, call in enumerate(calls):
        cli.build_parser.cache_clear()
        alone.append(outcome(call, str(tmp_path / f"alone{i}")))
    assert together == alone
    assert [rc for rc, _, _ in together] == [cli.EXIT_OK] * 3 + [cli.EXIT_CONFIG]


def test_clients_view_the_train_domains():
    """A client's images are the train pool's array, which holds every train
    domain, not a copy; its index is the plan's and its labels the pool's at
    that index."""
    data = experiment.Task(validate_config(TINY.format(route="none"))).data
    clients = fedsim.build_clients(data.plan, data.train)
    for client, index in zip(clients, data.plan.clients):
        assert np.shares_memory(client.domain.images, data.train.images)
        assert client.index.tolist() == index.tolist()
        assert np.array_equal(client.labels, data.train.labels[client.index])


@pytest.mark.parametrize("route", ["delete", "relabel"])
def test_label_routes_edit_only_the_requesters_view(monkeypatch, route):
    """delete and relabel change the requesting client's index or labels and
    nothing else: the train pool's bytes and every other client's view
    stay as they were."""
    cfg = validate_config(TINY.format(route=route))
    task = experiment.Task(cfg)
    before = (task.data.train.images.tobytes(), task.data.train.labels.tobytes())
    built, real = [], fedsim.build_clients

    def spy(*args):
        built.append(real(*args))
        return built[-1]
    monkeypatch.setattr(fedsim, "build_clients", spy)
    experiment.run_route(cfg, task, nncore.init_params(task.spec, 0), start_round=0)
    [clients] = built
    assert (task.data.train.images.tobytes(), task.data.train.labels.tobytes()) == before
    forget = cfg.unlearn.forget_class
    for client, index in zip(clients, task.data.plan.clients):
        labels = task.data.train.labels[index]
        if client.client_id not in cfg.unlearn.requesting_clients:
            assert client.index.tolist() == index.tolist()
            assert np.array_equal(client.labels, labels)
        elif route == "delete":
            kept = labels != forget
            assert not kept.all()
            assert client.index.tolist() == index[kept].tolist()
            assert np.array_equal(client.labels, labels[kept])
        else:
            assert client.index.tolist() == index.tolist()
            assert (client.labels != forget).all() and (labels == forget).any()
            assert np.array_equal(client.labels[labels != forget], labels[labels != forget])


def test_changed_unlearn_key_after_train_runs_unlearn_on_the_trained_model(tmp_path,
                                                                          monkeypatch):
    cfg_path = write_cfg(tmp_path, route="delete")
    out = str(tmp_path / "run")
    assert cli.main(["train", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    trained = tree_bytes(out)
    changed = tmp_path / "changed.ini"
    changed.write_text(cfg_path.read_text().replace("rounds_max = 3", "rounds_max = 2"))
    trainings = count_trainings(monkeypatch)
    assert cli.main(["run", "--config", str(changed), "--out", out]) == cli.EXIT_OK
    assert trainings == []
    now = tree_bytes(out)
    assert {name: now[name] for name in trained} == trained
    with open(os.path.join(out, "unlearn_summary.json")) as fh:
        assert json.load(fh)["config"]["unlearn.rounds_max"] == 2


@pytest.mark.parametrize("old,new,record,clause", [
    ("learning_rate = 0.4", "learning_rate = 0.3", "train_summary.json",
     "training.learning_rate is 0.4 but the config asks for 0.3"),
    ("top_n = 8", "top_n = 9", os.path.join(f"route_{COMPARED[0]}", "metrics.json"),
     "unlearn.top_n is 8 but the config asks for 9"),
])
def test_compare_refuses_a_changed_key_where_it_is_recorded(compared, tmp_path, monkeypatch,
                                                            caplog, old, new, record, clause):
    _, cfg_path, out, _ = compared
    again = str(tmp_path / "again")
    shutil.copytree(out, again)
    finished = tree_bytes(again)
    changed = tmp_path / "changed.ini"
    changed.write_text(cfg_path.read_text().replace(old, new))
    builds, _ = count_builds(monkeypatch)
    caplog.clear()
    rc = cli.main(["compare", "--config", str(changed), "--out", again,
                   "--routes", ",".join(COMPARED)])
    assert rc == cli.EXIT_CONFIG
    assert f"{os.path.join(again, record)}: {clause}; use a fresh output directory" \
        in caplog.text
    assert builds == []
    assert tree_bytes(again) == finished


# A one-domain variant of TINY, so that partition.strategy has valid
# alternatives, at a working resolution small_cnn accepts.
KEYED = {
    "experiment": {"name": "keyed", "seed": "5"},
    "data": {"samples_per_class": "30", "class_count": "6"},
    "domain.clean": {"transform": "identity", "resolution": "8x8"},
    "partition": {"group_sizes": "4", "working_resolution": "10x10"},
    "training": {"rounds_max": "4", "learning_rate": "0.4", "epsilon": "0.2"},
    "unlearn": {"route": "delete", "rounds_max": "2", "top_n": "8", "select_n": "4",
                "probe_cap": "16"},
}
# One other valid value per key of the table; {idx} is an IDX pair's path
# prefix, and a domain's images and labels are set together.
ALTERNATIVES = {
    "experiment.name": "other", "experiment.seed": "6", "experiment.out_dir": "elsewhere",
    "model.spec": "small_cnn", "model.hidden": "64",
    "data.class_count": "5", "data.samples_per_class": "31", "data.base_pattern_seed": "41",
    "domain.transform": "invert", "domain.resolution": "10x10",
    "domain.samples_per_class": "30", "domain.images": "{idx}-images.idx",
    "domain.labels": "{idx}-labels.idx",
    "partition.strategy": "iid", "partition.clients": "4", "partition.alpha": "50",
    "partition.group_sizes": "3", "partition.working_resolution": "12x12",
    "training.rounds_max": "5", "training.local_epochs": "2", "training.batch_size": "16",
    "training.learning_rate": "0.3", "training.epsilon": "0.3",
    "training.checkpoint_every": "2",
    "unlearn.route": "zeroing", "unlearn.forget_class": "1",
    "unlearn.requesting_clients": "1", "unlearn.rounds_max": "3",
    "unlearn.top_m_fraction": "0.2", "unlearn.top_n": "10",
    "unlearn.select_n": "3", "unlearn.probe_cap": "8",
    "evaluate.val_fraction": "0.2", "evaluate.test_fraction": "0.2",
}
PARTITION_SECTIONS = {"experiment", "data", "domain", "partition", "evaluate"}
UNLEARN_SECTIONS = PARTITION_SECTIONS | {"model", "training", "unlearn"}
# The command's stage: its record, and the sections the stage depends on.
STAGE_RECORDS = {
    "partition": ("partition.json", PARTITION_SECTIONS),
    "train": ("train_summary.json", PARTITION_SECTIONS | {"model", "training"}),
    "unlearn": ("unlearn_summary.json", UNLEARN_SECTIONS),
    "run": ("metrics.json", UNLEARN_SECTIONS),
}


def render(sections: dict) -> str:
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())


@pytest.fixture(scope="module")
def keyed_run(tmp_path_factory):
    """A finished run of KEYED and an IDX pair: (base dir, out dir)."""
    base = tmp_path_factory.mktemp("keyed")
    save_idx(synthetic_domain(1, 0, (8, 8), 6, 12), base / "idx-images.idx",
             base / "idx-labels.idx")
    cfg_path = base / "keyed.ini"
    cfg_path.write_text(render(KEYED))
    out = str(base / "run")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out]) == cli.EXIT_OK
    return base, out


def test_key_alternatives_cover_the_table():
    assert set(ALTERNATIVES) == {f"{section}.{key}" for section, key, *_ in config.KEYS}


@pytest.mark.parametrize("name", sorted(ALTERNATIVES))
def test_resume_refuses_every_key_its_stage_depends_on(keyed_run, monkeypatch, caplog, name):
    """Each stage command on a finished directory, with one key changed: it
    is refused, naming the key and both values, when the stage depends on
    the key, and resumes otherwise; no data is built and no byte changes."""
    base, out = keyed_run
    section, key = name.rsplit(".", 1)
    header = "domain.clean" if section == "domain" else section
    changed = {s: dict(keys) for s, keys in KEYED.items()}
    changed.setdefault(header, {})[key] = ALTERNATIVES[name].format(idx=base / "idx")
    if key in ("images", "labels"):
        # an IDX section holds its two paths and nothing else
        changed[header] = {k: ALTERNATIVES[f"domain.{k}"].format(idx=base / "idx")
                           for k in ("images", "labels")}
    cfg_path = base / f"{name}.ini"
    cfg_path.write_text(render(changed))
    everything = tuple(UNLEARN_SECTIONS)
    old = config.canonical(validate_config(render(KEYED)), everything)
    new = config.canonical(validate_config(render(changed)), everything)
    recorded = f"domain.clean.{key}" if section == "domain" else name
    finished = tree_bytes(out)

    def no_data(*args, **kwargs):
        raise AssertionError("a resume built data")
    monkeypatch.setattr(experiment, "build_task", no_data)
    for command, (record, sections) in STAGE_RECORDS.items():
        caplog.clear()
        rc = cli.main([command, "--config", str(cfg_path), "--out", out])
        if name in ("experiment.name", "experiment.out_dir") or section not in sections:
            assert rc == cli.EXIT_OK, (command, caplog.text)
        else:
            assert rc == cli.EXIT_CONFIG, command
            assert old[recorded] != new[recorded]
            assert (f"{os.path.join(out, record)}: " in caplog.text
                    and f"{recorded} is {old[recorded]!r} but the config asks for "
                        f"{new[recorded]!r}" in caplog.text), caplog.text
        assert tree_bytes(out) == finished, command


def test_resume_refuses_reordered_domains(finished_run, tmp_path, caplog):
    """Reordering [domain.*] sections reassigns group_sizes: the record's
    domain order is checked too."""
    cfg_path, finished = finished_run
    out = str(tmp_path / "run")
    shutil.copytree(finished, out)
    text = cfg_path.read_text()
    clean = "[domain.clean]\ntransform = identity\nresolution = 8x8\n"
    swapped = tmp_path / "swapped.ini"
    swapped.write_text(text.replace(clean, "").replace("[partition]", clean + "[partition]"))
    before = tree_bytes(out)
    caplog.clear()
    assert cli.main(["run", "--config", str(swapped), "--out", out]) == cli.EXIT_CONFIG
    assert ("domains is ['clean', 'noisy'] but the config asks for ['noisy', 'clean']"
            in caplog.text)
    assert tree_bytes(out) == before
