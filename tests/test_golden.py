"""The artifacts of tests/golden.py's runs keep the bytes tests/golden.json
records, under its pinned arithmetic.

The runs are made in one child process with OpenBLAS's Haswell kernels,
numpy's AVX-512 paths off and one BLAS thread.  A host that cannot run that
arithmetic (not x86-64, or no X86_V3, numpy's AVX2 level), or that has
another numpy version than the one the digests were made with, skips the
test and says why: its bytes would differ for reasons of its own.
"""
import json
import platform

import numpy as np
import pytest

import golden


def skip_reason(want: dict) -> str | None:
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"the pinned arithmetic needs an x86-64 host, this is {platform.machine()}"
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get("X86_V3"):
        return "the pinned arithmetic needs X86_V3 (AVX2, FMA3), which this host lacks"
    if np.__version__ != want["numpy"]:
        return f"the digests were made with numpy {want['numpy']}, this is {np.__version__}"
    return None


def test_artifacts_keep_the_golden_digests(tmp_path):
    want = json.loads(golden.GOLDEN.read_text())
    if reason := skip_reason(want):
        pytest.skip(reason)
    assert want["env"] == golden.PINNED
    got = golden.pinned_digests(tmp_path)
    moved = sorted(f"{run}/{path}"
                   for run in want["runs"].keys() | got.keys()
                   for path in want["runs"].get(run, {}).keys() | got.get(run, {}).keys()
                   if want["runs"].get(run, {}).get(path) != got.get(run, {}).get(path))
    assert not moved, (f"{len(moved)} artifacts moved, missing or new (regenerate with "
                       f"`PYTHONPATH=src python tests/golden.py --write`): " + ", ".join(moved))
