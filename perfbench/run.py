"""Benchmark for the clustersum pipeline.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each repetition is a fresh worker process (``worker.py``) that generates the
workload's corpus from ``--seed`` and drives every stage through
``clustersum.cli.main``, one closed-loop caller with BLAS pinned to one
thread. Repetitions run until ``--seconds`` is used up (at least one), and
the reported value of each metric is the median over them.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics of
traced repetitions, alternated with untraced ones to give the tracing
overhead. A failed output check counts in ``failed`` and still prints
metrics; a worker that dies, or a checkout without ``src/clustersum``,
exits non-zero without a result. Per-repetition details, the output
fingerprint and the environment go to ``.bench_runs/<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_runs"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set before numpy is imported here or in any worker.
for _name in BLAS_ENV:
    os.environ[_name] = str(BLAS_THREADS)

sys.path.insert(0, str(HERE))
from spans import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "pretrain_tokens_per_s": "tok/s",
    "decoder_tokens_per_s": "tok/s",
    "gen_tokens_per_s": "tok/s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "cluster_purity": "ratio",
    "mlm_loss": "nats",
    "decoder_val_loss": "nats",
    "summary_cosine_center": "cos",
    "nonempty_candidate_share": "ratio",
}
MIN_SETUPS = 5
WORKER_TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    """A worker died or printed no result: the run cannot be measured."""


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def run_worker(workload: str, seed: int, out: Path, trace: int, tiny: bool,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--out", str(out), "--trace", str(trace)]
    cmd += ["--tiny"] * tiny + ["--setup-only"] * setup_only
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result["setup_s"] = result.pop("first_stage_at") - spawned_at
    result["wall_s"] = time.monotonic() - spawned_at
    for ckpt in out.glob("*.ckpt"):
        ckpt.unlink()
    return result


def end_to_end(rep: dict) -> dict[str, float | None]:
    """Every end-to-end metric of one untraced repetition (None if undefined)."""
    stage_s = rep["stage_s"]
    tokens = rep.get("corpus_tokens")
    quality = rep["metrics"]

    def rate(count, stage):
        seconds = stage_s.get(stage)
        return count / seconds if count is not None and seconds else None

    return {
        "setup_s": rep["setup_s"],
        "run_s": sum(stage_s.values()),
        "pretrain_tokens_per_s": rate(tokens and tokens * rep["mlm_epochs"], "pretrain"),
        "decoder_tokens_per_s": rate(tokens and tokens * rep["decoder_epochs"],
                                     "train_decoder"),
        "gen_tokens_per_s": rate(quality.get("_gen_tokens"), "summarize"),
        "peak_rss_mb": rep["peak_rss_mb"],
        "ok_share": 1.0 - rep["failed"] / rep["attempted"],
        **{name: quality.get(name) for name in ("cluster_purity", "mlm_loss",
                                                "decoder_val_loss", "summary_cosine_center",
                                                "nonempty_candidate_share")},
    }


def median_of(rows: list[dict], name: str) -> float | None:
    values = [r[name] for r in rows if r.get(name) is not None]
    return statistics.median(values) if values else None


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """Repeat the workload for ``seconds`` and fold the repetitions into one result."""
    workdir = WORK / f"{name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    # The first set-up only refills the page cache a previous run may have evicted.
    setups = [run_worker(name, seed, workdir / f"setup{i}", 0, tiny, setup_only=True)
              for i in range(MIN_SETUPS)][1:]
    deadline = time.monotonic() + seconds
    reps: list[dict] = []
    while True:
        rep_trace = int(bool(trace) and len(reps) % 2 == 1)
        reps.append(run_worker(name, seed, workdir / f"rep{len(reps)}", rep_trace, tiny))
        reps[-1]["traced"] = bool(rep_trace)
        done_both = not trace or len(reps) >= 2
        if done_both and time.monotonic() + reps[-1]["wall_s"] > deadline:
            break

    untraced = [end_to_end(r) for r in reps if not r["traced"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if trace:
        traced = [r for r in reps if r["traced"]]
        layers = [r["layers"] for r in traced]
        metrics = {n: median_of(layers, n) for n in LAYER_UNITS if n != "trace.overhead_s"}
        traced_run_s = statistics.median(sum(r["stage_s"].values()) for r in traced)
        metrics["trace.overhead_s"] = traced_run_s - median_of(untraced, "run_s")
        units = LAYER_UNITS
    else:
        metrics = {n: median_of(untraced, n) for n in END_TO_END_UNITS}
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in setups + reps)
        units = END_TO_END_UNITS
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True) for r in reps}
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "environment": environment(),
        "repetitions": len(reps),
        "stage_s": {stage: median_of([r["stage_s"] for r in reps if not r["traced"]], stage)
                    for stage in reps[0]["stage_s"]},
        "fingerprint": reps[0]["fingerprint"],
        "fingerprint_stable": len(fingerprints) == 1,
        "failures": sorted({f for r in reps for f in r["failures"]}),
        "reps": reps,
    }
    WORK.mkdir(exist_ok=True)
    (WORK / f"{name}-seed{seed}{'-trace' if trace else ''}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return {
        "report": report,
        "result": {
            "correct": failed == 0 and all(v is not None for v in metrics.values()),
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        },
    }


def print_workload(outcome: dict) -> None:
    report, result = outcome["report"], outcome["result"]
    print(f"== {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{report['repetitions']} repetitions, {result['failed']}/{result['attempted']} "
          f"ops failed")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    stage_s = {k: v for k, v in report["stage_s"].items() if v is not None}
    print("stage_s " + json.dumps({k: round(v, 4) for k, v in stage_s.items()}))
    print("stage_share " + json.dumps({k: round(v / sum(stage_s.values()), 4)
                                       for k, v in stage_s.items()}))
    print("fingerprint " + json.dumps(report["fingerprint"], sort_keys=True)
          + ("" if report["fingerprint_stable"] else "  (differs between repetitions)"))
    for failure in report["failures"]:
        print(f"failed: {failure}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "undefined" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown:>14s} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: checks names and plumbing, not speed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "clustersum" / "cli.py").is_file():
        print(f"error: no clustersum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        outcomes = [run_workload(n, args.seed, args.seconds, args.trace, args.tiny)
                    for n in names]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for outcome in outcomes:
        print_workload(outcome)
        print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
