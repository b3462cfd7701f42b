"""The tiny benchmark runs give the bytes recorded in ``tests/golden.json``.

Every change that claims byte-identical outputs is checked here: a change
that moves one rounding anywhere in the pipeline moves a fingerprint. The
bytes also depend on the environment (numpy, and the BLAS build and core),
so a mismatch names every way the environment differs from the recorded
one. A change that means to move the bytes regenerates the file with
``python tests/golden.py``.
"""

import json

from golden import GOLDEN, environment, fingerprints


def test_tiny_runs_give_the_golden_bytes(tmp_path):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    found = fingerprints(tmp_path)
    expected = recorded["fingerprints"]
    moved = [f"{workload} {name}: {found[workload][name]} (recorded {digest})"
             for workload, files in expected.items() for name, digest in files.items()
             if found[workload][name] != digest]
    now = environment()
    differs = {key: f"{now.get(key)!r} here, {value!r} recorded"
               for key, value in recorded["environment"].items() if now.get(key) != value}
    assert not moved, ("fingerprints moved:\n  " + "\n  ".join(moved)
                       + f"\nenvironment: {differs or 'as recorded'}")
