"""Golden digests: the sha256 of every artifact of a fixed set of fast runs,
made in one child process under one pinned arithmetic.

The bytes of a run depend on the arithmetic that makes them: the numpy
version, the OpenBLAS kernels and numpy's SIMD level (README, Determinism
notes).  PINNED fixes the last two to an AVX2 baseline most x86-64 hosts can
run, and tests/golden.json records the numpy version the digests were made
with.  tests/test_golden.py makes the runs again and compares.

A change that moves bits on purpose regenerates the file, and its diff shows
which artifacts moved:

    PYTHONPATH=src python tests/golden.py --write

Run with a directory argument, the script makes the runs there under the
environment it was started with and prints {run: {file: sha256}} as JSON.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden.json")

# OpenBLAS's Haswell kernels, numpy's AVX-512 paths off, one BLAS thread.
PINNED = {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4",
          "OPENBLAS_NUM_THREADS": "1"}

ROUTES = "delete,relabel,zeroing,fedcccu"


def runs() -> dict[str, tuple[str, str | None]]:
    """Each run's name, its config text and its seed override (or None)."""
    from helpers import TINY
    tiny = TINY.format(route="none")
    return {
        "tiny": (tiny, None),
        "tiny-iid": (tiny.replace("group_sizes = 2,2", "strategy = iid\nclients = 3"), None),
        "tiny-dirichlet": (tiny.replace("group_sizes = 2,2",
                                        "strategy = dirichlet\nclients = 3\nalpha = 0.5"), None),
        # small_cnn needs a working resolution of at least 10x10
        "tiny-cnn": ("[model]\nspec = small_cnn\n"
                     + tiny.replace("working_resolution = 8x8", "working_resolution = 10x10"),
                     None),
        "digits3": ((ROOT / "configs" / "digits3.ini").read_text(), "2"),
    }


def make_runs(out: Path) -> dict[str, dict[str, str]]:
    """Compare every route on every run into out/<run>; the sha256 of each
    artifact, by run and path relative to the run's directory."""
    from fusim import cli
    digests = {}
    for name, (text, seed) in runs().items():
        config = out / f"{name}.ini"
        config.write_text(text)
        argv = ["compare", "--config", str(config), "--routes", ROUTES,
                "--out", str(out / name)] + (["--seed", seed] if seed else [])
        if cli.main(argv) != cli.EXIT_OK:
            raise SystemExit(f"{name}: fusim {' '.join(argv)} failed")
        digests[name] = {path.relative_to(out / name).as_posix():
                         hashlib.sha256(path.read_bytes()).hexdigest()
                         for path in sorted((out / name).rglob("*")) if path.is_file()}
    return digests


def pinned_digests(out: Path) -> dict[str, dict[str, str]]:
    """make_runs in a child process under PINNED, with src/ on its path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, __file__, str(out)], capture_output=True,
                           text=True, env={**os.environ, **PINNED, "PYTHONPATH": path})
    if child.returncode:
        raise RuntimeError(f"golden runs failed (exit {child.returncode}):\n{child.stderr}")
    return json.loads(child.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        import tempfile

        import numpy as np
        with tempfile.TemporaryDirectory() as tmp:
            doc = {"numpy": np.__version__, "env": PINNED, "runs": pinned_digests(Path(tmp))}
        GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return 0
    if len(argv) == 1:
        print(json.dumps(make_runs(Path(argv[0]))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
