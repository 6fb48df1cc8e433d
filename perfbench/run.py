"""fusim benchmark: one workload, timed or traced; prints every metric, then a JSON line.

    python3 perfbench/run.py --blas-threads 1 --workload pair2-delete \\
        --seed 2 --seconds 20 --trace 0

Run from the root of a source checkout; fusim is imported from ``src/``.
Every iteration is one child process (perfbench/iteration.py) that runs the
workload's ``fusim`` command line through ``fusim.cli.main``; the next one
starts only after it ends (a closed loop with one caller).  The BLAS thread
count of the children is fixed by ``--blas-threads``, because the default
thread count makes attribution time spread by about a fifth.

``--trace 0`` measures the end-to-end metrics: set-up is timed in SETUP_REPS
separate processes, then iterations run until ``--seconds`` have passed.
Times are normalised by a calibration kernel timed around them (see
iteration.Calibrator and tracer.warp); the table shows measured values too.
``--trace 1`` runs the tracer self-test and at least two traced iterations
with one untraced iteration between them, and reports the per-layer metrics
and the tracing overhead.  Metric names, units and directions come from
BENCHMARK.json.

Output checks: every ``fusim`` call exits 0; the artifact set hashes the same
in every iteration of a workload and seed and is unchanged by the resume
passes; the metrics are finite; non-requesting clients take no gradient
steps; in traced runs every count repeats exactly and the self times of the
main pass add up to its wall time.  A failed check counts as a failed
operation.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import mean, median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from tracer import STAGES, WORK, layer_totals, roots, self_times, warp  # noqa: E402

STAGE_METRICS = dict(zip(STAGES, ("partition_s", "train_s", "unlearn_s", "evaluate_s")))

SETUP_REPS = 5
TRACED_ITERATIONS = 2
CAL_REF_S = 0.02     # calibration kernel seconds that normalised times are scaled to
DEADLINE_S = 165.0   # no child outlives this, so a run ends within 180 s


@dataclass(frozen=True)
class Workload:
    """A reference config with a fixed round budget, and the fusim command run on it.

    The reference configs stop training when the validation error beats
    epsilon, and the round that happens in depends on the seed (pair2: 92 to
    over 200 rounds).  The benchmark keeps the config text but fixes the
    budget, with epsilon so small that training runs exactly `train_rounds`
    rounds and unlearning exactly one round, so that every seed does the same
    work.  The budgets are the rounds the reference seeds (pair2: 11,
    digits3: 7) run, so on those seeds the work equals the reference run's.
    """
    config: str
    train_rounds: int
    command: str
    routes: tuple[str, ...]


WORKLOADS = {
    # Training is almost all the work (120 rounds x 6 clients); no attribution.
    "pair2-delete": Workload("pair2", 120, "run", ("delete",)),
    # Attribution is almost all the work (9 clients x 128 units); 4 short rounds.
    "digits3-fedcccu": Workload("digits3", 4, "run", ("fedcccu",)),
    # Data, partition, orchestration, I/O and evaluation: three routes, three
    # trainings, then the same command again on the finished directory.
    "digits3-compare": Workload("digits3", 4, "compare", ("delete", "relabel", "zeroing")),
}


def budget_config(text: str, train_rounds: int) -> str:
    """The config text with the training and unlearning round budgets fixed."""
    want = {("training", "rounds_max"): str(train_rounds),
            ("training", "epsilon"): "1e-12",
            ("unlearn", "rounds_max"): "1"}
    section, out, done = None, [], set()
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
        elif "=" in stripped and not stripped.startswith(("#", ";")):
            key = (section, stripped.split("=", 1)[0].strip())
            if key in want:
                line = f"{key[1]} = {want[key]}"
                done.add(key)
        out.append(line)
    missing = set(want) - done
    if missing:
        raise SystemExit(f"config lacks {sorted(missing)}")
    return "\n".join(out) + "\n"


class Runner:
    """Starts child processes one at a time in a private work directory."""

    def __init__(self, work: str, blas_threads: int, started: float):
        self.work = work
        self.started = started
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
                        OMP_NUM_THREADS=str(blas_threads), MKL_NUM_THREADS=str(blas_threads))
        self.count = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, argv: list[str]) -> tuple[dict | None, str]:
        """Run one child to completion; (its JSON result or None, error text)."""
        try:
            proc = subprocess.run([sys.executable, *argv], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            return None, f"{argv[0]}: timed out"
        if proc.returncode != 0:
            return None, f"{argv[0]}: exit {proc.returncode}: {proc.stderr.strip()[-800:]}"
        lines = proc.stdout.strip().splitlines()
        try:
            return (json.loads(lines[-1]) if lines else {}), ""
        except json.JSONDecodeError:
            return None, f"{argv[0]}: unreadable result {lines[-1][:200]!r}"

    def job(self, **job) -> tuple[dict | None, str]:
        self.count += 1
        job.setdefault("out", os.path.join(self.work, f"out{self.count}"))
        path = os.path.join(self.work, f"job{self.count}.json")
        with open(path, "w") as fh:
            json.dump({"src": os.path.join(ROOT, "src"), **job}, fh)
        return self.child([os.path.join(HERE, "iteration.py"), path])


def fusim_argv(w: Workload, config_path: str, out: str, seed: int) -> list[str]:
    argv = [w.command, "--config", config_path, "--out", out, "--seed", str(seed)]
    if w.command == "compare":
        return argv + ["--routes", ",".join(w.routes)]
    return argv + ["--route", w.routes[0]]


def pass_totals(spans: list[list], names=()) -> dict[str, dict[str, dict]]:
    """layer_totals of the spans inside the main pass and the first resume pass."""
    selfs, top = self_times(spans), roots(spans)
    out = {}
    for r, root in enumerate(spans):
        name = root[0].removeprefix("bench.").removesuffix("_pass")
        if root[1] < 0 and name not in out:   # the first of the repeated resume passes
            inside = [i for i in range(r + 1, len(spans)) if top[i] == r]
            out[name] = layer_totals([spans[i] for i in inside], [selfs[i] for i in inside],
                                     names)
    return out


def warped_spans(doc: dict, normalise: bool) -> list[list]:
    """An iteration's spans with their times mapped through `warp`."""
    clock = warp(doc["calibration"], CAL_REF_S if normalise else None)
    return [[n, p, clock(a), clock(b), *rest] for n, p, a, b, *rest in doc["spans"]]


def pass_seconds(spans: list[list], name: str) -> list[float]:
    """Durations of the root spans called `name` ("bench.main_pass" or "bench.resume_pass")."""
    return [b - a for n, p, a, b, *_ in spans if p < 0 and n == name]


def iteration_metrics(doc: dict, r: dict) -> dict[str, tuple[float, float]]:
    """(measured, normalised) end-to-end values of one timed iteration."""
    out: dict[str, list[float]] = {}
    for normalise in (False, True):
        spans = warped_spans(doc, normalise)
        out.setdefault("run_s", []).append(pass_seconds(spans, "bench.main_pass")[0])
        out.setdefault("resume_s", []).append(median(pass_seconds(spans, "bench.resume_pass")))
        main = pass_totals(spans, STAGES)["main"]
        for stage, name in STAGE_METRICS.items():
            out.setdefault(name, []).append(main[stage]["self_s"])
    train = out["train_s"]
    out["train_steps_per_s"] = [r["train_steps"] / t for t in train]
    out["peak_rss_mb"] = [r["peak_rss_mb"]] * 2
    return {name: tuple(pair) for name, pair in out.items()}


def layer_metrics(spans: list[list], result: dict) -> tuple[dict, dict]:
    """Per-layer (counts, times) of one traced iteration, keyed by metric name.

    Names without a prefix cover the main pass; "resume." names the resume pass.
    """
    counts, times = {}, {}
    for pass_name, totals in pass_totals(spans, result["wrapped"]).items():
        prefix = "" if pass_name == "main" else f"{pass_name}."
        for name, t in totals.items():
            counts[f"{prefix}{name}.calls"] = t["calls"]
            if name in WORK:
                counts[f"{prefix}{name}.{WORK[name][0]}"] = t["work"]
            times[f"{prefix}{name}.busy_s"] = t["busy_s"]
            times[f"{prefix}{name}.self_s"] = t["self_s"]

    def get(key: str, table=counts):
        return table.get(key, 0)
    counts["fedsim.rounds"] = get("fedsim.run_training.rounds") + \
        get("fedsim.fair_unlearn_rounds.rounds")
    counts["fedsim.sgd_steps"] = get("nncore.sgd_step.calls")
    counts["fedsim.nonrequesting_steps"] = result["nonrequesting_steps"]
    counts["fedcccu.attribution_rows"] = get("nncore.batch_unit_gradients.rows")
    units = get("fedcccu.sensitivity_scores.units")
    counts["fedcccu.upload_ratio"] = get("fedcccu.top_n_report.records") / units if units else 0.0
    counts["experiment.artifact_bytes"] = result["artifact_bytes"]
    counts["experiment.train_reuse_ratio"] = \
        result["trained_models"] / max(1, get("fedsim.run_training.calls"))
    times["fedcccu.server.busy_s"] = sum(
        get(f"fedcccu.{f}.busy_s", times)
        for f in ("compute_dominance", "rank_select", "top_n_report"))
    return counts, times


def check_iteration(result: dict | None, error: str, digests: set) -> str:
    """Why a finished `run` iteration failed its output checks, or ''."""
    if result is None:
        return error
    if any(result["exit_codes"]):
        return f"fusim exit codes {result['exit_codes']}"
    if result["problems"]:
        return "; ".join(result["problems"])
    if result["resume_digest"] != result["main_digest"]:
        return "resume pass changed the artifact bytes"
    digests.add(result["main_digest"])
    if len(digests) > 1:
        return "artifact digest differs between iterations of one seed"
    return ""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1)
    args = p.parse_args(argv)
    started = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    if args.seed < 0 or not 1 <= args.blas_threads <= nproc:
        print(f"need --seed >= 0 and 1 <= --blas-threads <= nproc ({nproc})", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    ref_config = os.path.join(ROOT, "configs", f"{w.config}.ini")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(ROOT, "src", "fusim", "cli.py"))
            and os.path.isfile(ref_config) and os.path.isfile(spec_path)):
        print("not a fusim checkout: src/fusim, configs/ or BENCHMARK.json missing",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        with open(ref_config) as fh:
            config_path = os.path.join(work, f"{w.config}.ini")
            with open(config_path, "w") as out:
                out.write(budget_config(fh.read(), w.train_rounds))
        runner = Runner(work, args.blas_threads, started)
        print(f"workload {args.workload}: configs/{w.config}.ini, {w.train_rounds} training "
              f"rounds, 1 unlearning round, fusim {w.command} {','.join(w.routes)}, "
              f"seed {args.seed}, trace {args.trace}")
        run = traced if args.trace else timed
        metrics, attempted, failures, results = run(args, w, runner, config_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in results if r]
    if ok:
        env = ok[0]["env"]
        print(f"env: nproc {nproc}, python {env['python']}, numpy {env['numpy']}, "
              f"{env['blas']}, blas threads {env['blas_threads']} "
              f"(--blas-threads {args.blas_threads}), load average "
              f"{' '.join(f'{x:.2f}' for x in os.getloadavg())}")
        print(f"artifacts: sha256 {ok[0]['main_digest']} ({ok[0]['artifact_bytes']} bytes)")
        for rel, doc in sorted(ok[0]["forgetting"].items()):
            print(f"forgetting [{doc['route']}]: "
                  f"forget_efficacy_pp {doc['forget_efficacy']:.4f}, "
                  f"collateral_retained_pp {doc['collateral_retained']:.4f}, "
                  f"collateral_nonreq_forget_pp {doc['collateral_nonrequesting_forget']:.4f}")
    for reason in failures:
        print(f"FAILED: {reason}")
    print(f"ops_attempted {attempted}, ops_failed {len(failures)}, "
          f"ops_failed_frac {len(failures) / max(1, attempted):.4f}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"FAILED: no value for {missing}")
        return 1
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


def timed(args, w: Workload, runner: Runner, config_path: str):
    """End-to-end metrics: set-up in separate processes, then timed iterations."""
    failures, results, digests, setups = [], [], set(), []
    for _ in range(SETUP_REPS):
        res, err = runner.job(mode="setup", config=config_path, seed=args.seed)
        if res is None:
            failures.append(f"setup: {err}")
        else:
            kernel_s = mean(e - s for s, e in res["calibration"])
            setups.append((res["setup_s"], res["setup_s"] * CAL_REF_S / kernel_s))
    t0 = time.perf_counter()
    while not results or (time.perf_counter() - t0 < args.seconds
                          and runner.remaining() > 2 * max(
                              (r["run_s"] for r in results if r), default=0.0)):
        out = os.path.join(runner.work, f"run{len(results)}")
        res, err = runner.job(mode="run", trace="stages", config=config_path,
                              argv=fusim_argv(w, config_path, out, args.seed), out=out,
                              iteration=len(results), spans=out + ".spans.json")
        reason = check_iteration(res, err, digests)
        if reason:
            failures.append(f"iteration {len(results)}: {reason}")
            results.append(None)
            if res is None:
                break
            continue
        with open(out + ".spans.json") as fh:
            res["timed"] = iteration_metrics(json.load(fh), res)
        results.append(res)
    rows = [r["timed"] for r in results if r] + [{"setup_s": s} for s in setups]
    names = list(dict.fromkeys(k for row in rows for k in row))
    raw = {k: median(row[k][0] for row in rows if k in row) for k in names}
    metrics = {k: median(row[k][1] for row in rows if k in row) for k in names}
    print(f"iterations {len(results)}, set-up samples {len(setups)} (medians below), "
          f"train steps {results[0]['train_steps'] if results[0] else '?'}")
    print(f"  {'metric':<20} {'measured':>12} {'normalised':>12}")
    for name, value in raw.items():
        print(f"  {name:<20} {value:>12.6g} {metrics[name]:>12.6g}")
    return metrics, SETUP_REPS + len(results), failures, results


def traced(args, w: Workload, runner: Runner, config_path: str):
    """Per-layer metrics from traced iterations, after the tracer self-test."""
    failures, results, digests = [], [], set()
    res, err = runner.child([os.path.join(HERE, "selftest.py")])
    if res is None:
        failures.append(f"tracer self-test: {err}")
    keep = os.path.join(ROOT, ".bench_work", f"trace-{args.workload}-seed{args.seed}")
    shutil.rmtree(keep, ignore_errors=True)
    os.makedirs(keep)
    counts_seen, per_iter_times, run_s = None, [], {"stages": [], "full": []}
    # The untraced iteration, for the tracing overhead, sits between two traced
    # ones; the first also warms the host up.
    modes, longest = ["full"] * TRACED_ITERATIONS, 0.0
    modes.insert(1, "stages")
    t0 = time.perf_counter()
    while len(results) < len(modes) or (
            time.perf_counter() - t0 < args.seconds and runner.remaining() > 2 * longest):
        k = len(results)
        mode = modes[k] if k < len(modes) else "full"
        if mode == "stages" and runner.remaining() < (len(modes) - k + 0.5) * longest:
            print("tracing overhead: not measured, too little time left for the untraced run")
            modes.remove("stages")
            continue
        out = os.path.join(runner.work, f"run{k}")
        spans_path = os.path.join(keep if mode == "full" else runner.work,
                                  f"spans-iteration{k}.json")
        started = time.perf_counter()
        res, err = runner.job(mode="run", trace=mode, config=config_path,
                              argv=fusim_argv(w, config_path, out, args.seed), out=out,
                              iteration=k, spans=spans_path)
        longest = max(longest, time.perf_counter() - started)
        reason = check_iteration(res, err, digests)
        if not reason:
            with open(spans_path) as fh:
                spans = warped_spans(json.load(fh), normalise=True)
            run_s[mode].append(pass_seconds(spans, "bench.main_pass")[0])
        if not reason and mode == "full":
            reason = check_self_time_sum(spans)
            counts, times = layer_metrics(spans, res)
            if counts_seen is not None and counts != counts_seen:
                diff = sorted(k for k in counts if counts[k] != counts_seen.get(k))
                reason = f"deterministic counts differ between iterations: {diff[:8]}"
            counts_seen = counts_seen or counts
            per_iter_times.append(times)
        if reason:
            failures.append(f"iteration {k} ({mode}): {reason}")
            results.append(None)
            if res is None:
                break
            continue
        results.append(res)
    metrics = dict(counts_seen or {})
    if per_iter_times:
        for key in per_iter_times[0]:
            metrics[key] = median(t.get(key, 0.0) for t in per_iter_times)
    if run_s["full"] and run_s["stages"]:
        traced_s, plain_s = median(run_s["full"]), median(run_s["stages"])
        print(f"tracing overhead: traced run_s {traced_s:.6g} - untraced run_s "
              f"{plain_s:.6g} = {traced_s - plain_s:.6g} s")
    if per_iter_times:
        print(f"spans: {os.path.relpath(keep, ROOT)}/ ({len(per_iter_times)} traced iterations)")
        print_layers(metrics, next(r for r in results if r)["wrapped"])
        for key in ("fedsim.rounds", "fedsim.sgd_steps", "fedsim.nonrequesting_steps",
                    "fedcccu.attribution_rows", "fedcccu.upload_ratio",
                    "fedcccu.server.busy_s", "experiment.artifact_bytes",
                    "experiment.train_reuse_ratio"):
            value = metrics[key]
            print(f"  {key:<36} {value:.6g}" if isinstance(value, float) else f"  {key:<36} {value}")
    return metrics, 1 + len(results), failures, results


def print_layers(metrics: dict, names: list[str]) -> None:
    """One table per pass: the functions called, by descending self time."""
    for prefix, title in (("", "main pass"), ("resume.", "resume pass")):
        print(f"{title + ': function':<44} {'calls':>8} {'work':>15} {'busy_s':>9} {'self_s':>9}")
        called = sorted((n for n in names if metrics[f"{prefix}{n}.calls"]),
                        key=lambda n: -metrics[f"{prefix}{n}.self_s"])
        for name in called:
            key = prefix + name
            kind = WORK.get(name, ("",))[0]
            work = f"{metrics[f'{key}.{kind}']} {kind}" if kind else ""
            print(f"{name:<44} {metrics[key + '.calls']:>8} {work:>15} "
                  f"{metrics[key + '.busy_s']:>9.4f} {metrics[key + '.self_s']:>9.4f}")


def check_self_time_sum(spans: list[list]) -> str:
    """'' when the main pass's self times add up to its wall time."""
    selfs, top = self_times(spans), roots(spans)
    main = next(i for i, s in enumerate(spans) if s[0] == "bench.main_pass")
    total = sum(t for i, t in enumerate(selfs) if top[i] == main)
    wall = spans[main][3] - spans[main][2]
    print(f"self times of the main pass sum to {total:.9f} s; its run_s is {wall:.9f} s")
    return "" if abs(total - wall) <= 1e-6 * max(1.0, wall) else \
        f"self times sum to {total} s, run_s is {wall} s"


if __name__ == "__main__":
    sys.exit(main())
