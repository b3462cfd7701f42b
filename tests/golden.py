"""Golden fingerprints: the bytes of each benchmark workload's tiny run.

    python tests/golden.py

runs ``perfbench/worker.py --tiny --seed 1`` for every workload, each in a
fresh process with BLAS pinned to one thread as ``perfbench/run.py`` pins
it, and writes ``tests/golden.json``: the SHA-256 of each file in ``FILES``
and the environment the runs were made in. ``tests/test_golden.py`` reruns
them and compares. Regenerate the file only in a change that means to move
the bytes, and list the fingerprints that moved.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
WORKLOADS = ("desk-train", "desk-generate", "paper-step")
FILES = ("encoder.ckpt", "decoder.ckpt", "clusters.jsonl", "summaries.jsonl")
SEED = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _blas_core() -> str:
    """The kernel set OpenBLAS chose for this CPU when numpy loaded it (a
    DYNAMIC_ARCH build chooses at run time), or ``"?"`` for another BLAS."""
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(handle, name):
                corename = getattr(handle, name)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "?"


def environment() -> dict:
    """What the bytes depend on beside the source: Python, numpy, and the
    BLAS build (name, version, configuration) and core numpy runs on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_configuration": blas.get("openblas configuration", "?"),
        "blas_core": _blas_core(),
    }


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def fingerprints(work: Path) -> dict[str, dict[str, str | None]]:
    """Run every workload's tiny run into ``work``, all at once, and hash
    each run's files."""
    env = {**os.environ, **{name: "1" for name in BLAS_ENV}, "PYTHONDONTWRITEBYTECODE": "1"}
    runs = {workload: subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", str(SEED), "--out", str(work / workload), "--tiny"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env)
        for workload in WORKLOADS}
    for workload, proc in runs.items():
        _, stderr = proc.communicate(timeout=300)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload}: worker exited {proc.returncode}\n{stderr[-2000:]}")
    return {workload: {name: _sha256(work / workload / name) for name in FILES}
            for workload in WORKLOADS}


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        found = fingerprints(Path(work))
    golden = {"seed": SEED, "environment": environment(), "fingerprints": found}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
