"""One benchmark iteration in its own process; run.py starts it.

    python3 perfbench/iteration.py <job.json>

The job file names the mode and the inputs.  Mode ``setup`` times importing
fusim, loading the config and the partition stage until the Task is ready.
Mode ``run`` runs the workload's fusim command line through
``fusim.cli.main``: the main pass into a fresh directory, then repeated resume
passes on the finished directory, while a Calibrator samples the host's
speed.  With ``trace`` = ``stages`` only the stage functions are wrapped
(enough to split the wall time by stage); with ``full`` every public fusim
function is.  The spans and calibration samples are written to the job's
``spans`` path at the end, and one JSON line of results goes to standard
output.

Nothing from fusim or numpy is imported before the setup clock starts.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import signal
import sys
import time

# The resume pass is short, so it is repeated: at least RESUME_REPS[0] times
# and until RESUME_MIN_S seconds have passed, at most RESUME_REPS[1] times.
RESUME_REPS = (3, 12)
RESUME_MIN_S = 3.0


def artifact_digest(out_dir: str) -> tuple[str, int]:
    """sha256 over every file's relative path and bytes, and the total bytes."""
    h = hashlib.sha256()
    total = 0
    for base, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            h.update(len(data).to_bytes(8, "little") + data)
            total += len(data)
    return h.hexdigest(), total


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _json_files(out_dir: str, name: str) -> dict[str, dict]:
    """Every `name` under out_dir, keyed by the directory that holds it."""
    found = {}
    for base, dirs, files in os.walk(out_dir):
        dirs.sort()
        if name in files:
            with open(os.path.join(base, name)) as fh:
                found[os.path.relpath(base, out_dir)] = json.load(fh)
    return found


def train_steps(out_dir: str, batch_size: int, local_epochs: int) -> int:
    """Local SGD steps of the train stage, from the partition and round log."""
    steps = 0
    for rel, plan in _json_files(out_dir, "partition.json").items():
        with open(os.path.join(out_dir, rel, "rounds_train.csv")) as fh:
            rounds = sum(1 for _ in fh) - 1
        per_round = sum(-(-c["count"] // batch_size) for c in plan["clients"])
        steps += rounds * local_epochs * per_round
    return steps


def check_outputs(out_dir: str) -> list[str]:
    """Problems with the finished artifact set; empty when it is sound."""
    problems = []
    metrics = _json_files(out_dir, "metrics.json")
    if not metrics:
        problems.append("no metrics.json written")
    for rel, doc in metrics.items():
        for key in ("forget_efficacy", "collateral_retained",
                    "collateral_nonrequesting_forget"):
            if not isinstance(doc.get(key), (int, float)) or not math.isfinite(doc[key]):
                problems.append(f"{rel}/metrics.json: {key} missing or not finite")
    for rel, doc in _json_files(out_dir, "unlearn_summary.json").items():
        if doc.get("nonrequesting_steps", 0) != 0:
            problems.append(f"{rel}: non-requesting clients took "
                            f"{doc['nonrequesting_steps']} gradient steps")
    return problems


class Calibrator:
    """Times a fixed kernel shaped like fusim's work, as a gauge of host speed.

    On a shared host the speed drifts by a fifth or more over periods of
    seconds, so a time is normalised by this kernel's time measured around it.
    Inside a ``with`` block a SIGALRM handler times the kernel every PERIOD_S
    seconds while fusim runs; the handler runs between bytecodes of the main
    thread, so its intervals are later cut out of the spans they fall in.  The
    kernel mixes fusim's three kinds of work in about equal parts: small
    matrix products (a 32-row MLP step), calls on tiny arrays (as in data
    synthesis) and interpreter work.  It does not use fusim, so a change to
    fusim does not move it.  One sample takes about 20 ms on a 2-core x86 host.
    """
    MATMUL_STEPS = 30
    TINY_STEPS = 170
    LOOP_STEPS = 25000
    PERIOD_S = 0.25

    def __init__(self):
        import numpy as np
        self.np = np
        self.rng = np.random.default_rng(0)
        self.arrays = (self.rng.random((32, 256)), self.rng.random((256, 128)),
                       self.rng.random((128, 10)), self.rng.random((16, 16)))
        self.samples: list[tuple[float, float]] = []
        self.busy = False

    def sample(self, *_) -> None:
        if self.busy:   # a signal that arrives during a sample is dropped
            return
        self.busy = True
        np, rng, (x, w1, w2, img) = self.np, self.rng, self.arrays
        start = time.perf_counter()
        for _ in range(self.MATMUL_STEPS):
            h = np.maximum(x @ w1, 0.0)
            z = h @ w2
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            gh = (p @ w2.T) * (h > 0)
            h.T @ p, x.T @ gh
        for _ in range(self.TINY_STEPS):
            np.clip(np.roll(img, 1, axis=(0, 1)) + rng.normal(0.0, 0.1, img.shape), 0.0, 1.0)
        table: dict[int, int] = {}
        for i in range(self.LOOP_STEPS):
            table[i & 1023] = table.get(i & 511, 0) + i
        self.samples.append((start, time.perf_counter()))
        self.busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    t_import = time.perf_counter()
    sys.path.insert(0, job["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import dataclasses
    from fusim import cli, config, experiment
    from tracer import STAGES, Tracer

    result: dict = {}
    if job["mode"] == "setup":
        cfg = dataclasses.replace(config.load_config(job["config"]), seed=job["seed"])
        experiment.ensure_partition(cfg, job["out"])
        result["setup_s"] = time.perf_counter() - t_import
        calibrator = Calibrator()
        for _ in range(5):
            calibrator.sample()
        result["calibration"] = calibrator.samples
    else:
        tracer = Tracer(iteration=job["iteration"])
        tracer.install(only=None if job["trace"] == "full" else STAGES)
        calibrator = Calibrator()
        try:
            with calibrator:
                with tracer.span("bench.main_pass") as main_pass:
                    rc_main = cli.main(job["argv"])
                result["main_digest"], result["artifact_bytes"] = artifact_digest(job["out"])
                exit_codes = [rc_main]
                resume_start = time.perf_counter()
                while len(exit_codes) <= RESUME_REPS[0] or (
                        len(exit_codes) <= RESUME_REPS[1]
                        and time.perf_counter() - resume_start < RESUME_MIN_S):
                    with tracer.span("bench.resume_pass"):
                        exit_codes.append(cli.main(job["argv"]))
        finally:
            tracer.uninstall()
        result["resume_digest"], _ = artifact_digest(job["out"])
        result["run_s"] = main_pass[3] - main_pass[2]   # calibration included
        result["exit_codes"] = exit_codes
        result["wrapped"] = sorted(tracer.names)
        with open(job["spans"], "w") as fh:
            json.dump({"spans": tracer.spans, "calibration": calibrator.samples}, fh,
                      separators=(",", ":"))
        cfg = config.load_config(job["config"])
        result["train_steps"] = train_steps(job["out"], cfg.training.batch_size,
                                            cfg.training.local_epochs)
        result["problems"] = check_outputs(job["out"])
        result["forgetting"] = _json_files(job["out"], "metrics.json")
        result["nonrequesting_steps"] = sum(
            doc.get("nonrequesting_steps", 0)
            for doc in _json_files(job["out"], "unlearn_summary.json").values())
        result["trained_models"] = len({
            _sha256(os.path.join(job["out"], rel, "checkpoint_trained.fusim"))
            for rel in _json_files(job["out"], "train_summary.json")})
        import numpy
        result["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         **blas_info(numpy)}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def blas_info(numpy) -> dict:
    """OpenBLAS version and the thread count the loaded library really uses."""
    import ctypes
    info = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["blas_threads"] = getattr(lib, symbol)()
                return info
    info["blas_threads"] = None
    return info


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
