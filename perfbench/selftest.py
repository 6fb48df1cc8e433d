"""Self-test of the tracer: span arithmetic and clean removal of the wrappers.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Exits 0 and prints a JSON line when
every check holds; exits 1 naming the first check that failed.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)
from tracer import Tracer, fusim_modules, layer_totals, roots, self_times, warp  # noqa: E402


class CheckFailed(Exception):
    pass


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def check_self_time_arithmetic() -> None:
    # Times are binary fractions, so the arithmetic is exact.
    spans = [
        ["root", -1, 0.0, 10.0, None, 0],
        ["a", 0, 1.0, 4.0, 7, 0],
        ["a", 1, 1.5, 2.0, 3, 0],     # nested call of the same function
        ["b", 0, 5.0, 9.0, None, 0],
        ["c", 3, 5.0, 6.0, None, 0],
        ["c", 3, 6.5, 7.0, None, 0],
        ["other", -1, 20.0, 21.0, None, 1],
    ]
    selfs = self_times(spans)
    check(selfs == [3.0, 2.5, 0.5, 2.5, 1.0, 0.5, 1.0], f"self times {selfs}")
    top = roots(spans)
    check(top == [0, 0, 0, 0, 0, 0, 6], f"roots {top}")
    check(sum(t for t, r in zip(selfs, top) if r == 0) == 10.0,
          "self times under the root do not add up to its duration")
    overlap = self_times([["p", -1, 0.0, 4.0], ["q", 0, 1.0, 3.0], ["q", 0, 2.0, 4.0]])
    check(overlap[0] == 1.0, f"overlapping children counted twice: {overlap}")
    totals = layer_totals(spans, selfs, names=["unused"])
    check(totals["a"] == {"calls": 2, "work": 10, "busy_s": 3.5, "self_s": 3.0},
          f"totals of a {totals['a']}")
    check(totals["unused"]["calls"] == 0, "a name without spans has no zero entry")


def check_warp() -> None:
    samples = [[1.0, 2.0], [3.0, 4.0]]   # the kernel took 1 s twice
    cut = warp(samples, None)
    check(cut(5.0) - cut(0.0) == 3.0, "calibration time is not cut out")
    check(cut(1.5) == cut(1.0) == cut(2.0), "the clock runs during calibration")
    scaled = warp(samples, 0.25)
    check(scaled(5.0) - scaled(0.0) == 0.75, "time is not scaled by ref_s / kernel time")
    check(warp([], 0.25)(7.0) == 7.0, "without samples the clock is not the identity")


def check_wrappers_restore() -> None:
    modules = fusim_modules()
    before = {m.__name__: dict(vars(m)) for m in modules}
    by_name = {m.__name__: m for m in modules}
    nncore, datasets, experiment = (by_name[f"fusim.{n}"]
                                    for n in ("nncore", "datasets", "experiment"))
    original = nncore.make_rng
    tracer = Tracer(iteration=3)
    tracer.install()
    try:
        check(nncore.make_rng is not original, "nncore.make_rng was not wrapped")
        check(experiment.synth_domain is datasets.synth_domain,
              "an imported name and its module attribute got different wrappers")
        check("experiment.ensure_train" in tracer.names, "stage function not wrapped")
        nncore.make_rng(5)
        check([s[0] for s in tracer.spans] == ["nncore.make_rng"], "no span recorded")
        check(tracer.spans[0][5] == 3, "span lacks the iteration id")
        try:
            tracer.install()
        except RuntimeError:
            pass
        else:
            raise CheckFailed("a second install was accepted")
    finally:
        tracer.uninstall()
    for m in modules:
        now = vars(m)
        check(now.keys() == before[m.__name__].keys(), f"{m.__name__}: names changed")
        for attr, value in before[m.__name__].items():
            check(now[attr] is value, f"{m.__name__}.{attr} not restored")


def main() -> int:
    try:
        check_self_time_arithmetic()
        check_warp()
        check_wrappers_restore()
    except CheckFailed as exc:
        print(f"tracer self-test failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"selftest": "ok"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
