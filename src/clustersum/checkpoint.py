"""Versioned binary model checkpoints, and the atomic file write that every
run artifact goes through.

Layout: an ASCII magic line, a JSON header line (format version, component
tag, model config, extra metadata, tensor names and shapes in payload
order), then the raw tensor payloads concatenated as little-endian float32,
row-major. Tensor order is the sorted name order, so files are byte-stable
for identical models. float32 is the only on-disk format: the header records
no dtype, and ``Model.save`` refuses any other rather than round it.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"CLUSTERSUM-CKPT"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    component: str
    config: dict
    tensors: dict[str, np.ndarray]
    extra: dict = field(default_factory=dict)


@contextmanager
def atomic_write(path: str | Path):
    """Yield a binary file beside ``path`` and rename it over ``path`` when the
    block exits cleanly: a failed write leaves the old file as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: list[dict]) -> None:
    """Atomically write one key-sorted JSON record per line."""
    lines = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    with atomic_write(path) as fh:
        fh.write(lines.encode("utf-8"))


def save_checkpoint(
    path: str | Path,
    component: str,
    config: dict,
    tensors: dict[str, np.ndarray],
    extra: dict | None = None,
) -> None:
    names = sorted(tensors)
    header = {
        "version": FORMAT_VERSION,
        "component": component,
        "config": config,
        "extra": extra or {},
        "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names],
    }
    with atomic_write(path) as fh:
        fh.write(MAGIC + b"\n")
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in names:
            arr = np.ascontiguousarray(tensors[name], dtype="<f4")
            fh.write(arr.tobytes(order="C"))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; each payload is read straight into its own fresh
    float32 array, with no intermediate buffer or copy."""
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != MAGIC:
            raise ValueError(f"{path} is not a model checkpoint (bad magic)")
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {header.get('version')}")
        tensors: dict[str, np.ndarray] = {}
        for entry in header["tensors"]:
            arr = np.empty(tuple(entry["shape"]), dtype="<f4")
            if fh.readinto(arr) != arr.nbytes:
                raise ValueError(f"truncated checkpoint payload for {entry['name']!r}")
            tensors[entry["name"]] = arr
    return Checkpoint(
        component=header["component"],
        config=header["config"],
        tensors=tensors,
        extra=header.get("extra", {}),
    )
