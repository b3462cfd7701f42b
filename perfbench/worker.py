"""One benchmark repetition in a fresh process.

Generates the workload's corpus from the seed, runs every pipeline stage
through ``clustersum.cli.main``, checks the artifacts and prints one JSON
object on its last stdout line. ``run.py`` starts this script; it is not
meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, make_corpus, write_corpus  # noqa: E402

FINGERPRINT_FILES = ("clusters.jsonl", "summaries.jsonl", "encoder.ckpt", "decoder.ckpt")


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _sha256(path: Path) -> str | None:
    if not path.exists():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _purity(assignment: dict[str, int], gold: dict[str, int]) -> float:
    majority: dict[int, dict[int, int]] = {}
    for doc_id, cluster in assignment.items():
        counts = majority.setdefault(cluster, {})
        counts[gold[doc_id]] = counts.get(gold[doc_id], 0) + 1
    return sum(max(c.values()) for c in majority.values()) / max(len(assignment), 1)


class Checks:
    """Output checks; each is one attempted op, and a failed one is reported."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def _artifact_metrics(out: Path, records: list[dict], config, checks: Checks) -> dict:
    """Quality metrics read from the artifacts, with the output checks."""
    metrics: dict = {}
    corpus_ids = [r["id"] for r in records]
    try:
        rows = _read_jsonl(out / "clusters.jsonl")
        num_clusters = next(r["k"] for r in rows if r.get("type") == "header")
        doc_rows = [r for r in rows if r.get("type") == "doc"]
        listed = [r["doc_id"] for r in doc_rows]
        if checks.check(sorted(listed) == sorted(corpus_ids),
                        "clusters.jsonl lists every corpus id exactly once"):
            gold = {r["id"]: r["topic"] for r in records}
            metrics["cluster_purity"] = _purity({r["doc_id"]: r["cluster"] for r in doc_rows},
                                                gold)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        checks.check(False, f"clusters.jsonl readable ({exc})")
        num_clusters = 0

    try:
        summaries = _read_jsonl(out / "summaries.jsonl")
        expected = num_clusters * min(config.retain_top_m, config.num_candidates)
        checks.check(len(summaries) == expected,
                     f"summaries.jsonl has {expected} rows (clusters x candidates), "
                     f"got {len(summaries)}")
        metrics["_gen_tokens"] = sum(int(r["token_count"]) for r in summaries)
        if summaries:
            metrics["nonempty_candidate_share"] = (
                sum(1 for r in summaries if r["text"]) / len(summaries))
        finite = [float(r["score"]) for r in summaries]
    except (OSError, ValueError, KeyError) as exc:
        checks.check(False, f"summaries.jsonl readable ({exc})")
        finite = []

    try:
        stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
        metrics["mlm_loss"] = float(stages["pretrain"]["final_loss"])
        metrics["decoder_val_loss"] = float(stages["train-decoder"]["final_val_loss"])
        report = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        metrics["summary_cosine_center"] = float(report["cosine_center"])
        finite += [metrics["mlm_loss"], metrics["decoder_val_loss"],
                   metrics["summary_cosine_center"],
                   *(float(v) for v in report["cosine_top_k"].values())]
        checks.check(all(math.isfinite(v) for v in finite), "losses and cosines are finite")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        checks.check(False, f"manifest.json and metrics.json readable ({exc})")
    return metrics


def _corpus_tokens(out: Path, records: list[dict], max_len: int) -> int:
    """Encoded corpus length in tokens, [CLS] and [SEP] included."""
    from clustersum import Vocabulary, encode

    vocab = Vocabulary.load(out / "vocab.txt")
    return sum(len(encode(r["text"], vocab, max_len).ids) for r in records)


def main(argv=None) -> int:
    args = _parse_args(argv)
    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    from clustersum import build_config, cli

    records = make_corpus(workload.corpus_spec(args.tiny), args.seed)
    corpus_path = out / "corpus.jsonl"
    write_corpus(records, corpus_path, workload.corpus.labelled)
    set_args = workload.set_args(args.tiny)
    config = build_config(None, workload.merged_settings(args.tiny))

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    first_stage_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_stage_at": first_stage_at}))
        return 0

    checks = Checks()
    stage_s: dict[str, float] = {}
    for stage in workload.stages:
        key = stage.replace("-", "_")
        call = cli.main if tracer is None else tracer.wrap(f"pipeline.{key}", cli.main)
        argv_stage = [stage, "--corpus", str(corpus_path), "--out", str(out), *set_args]
        start = time.perf_counter()
        try:
            code = call(argv_stage)
        except Exception as exc:  # noqa: BLE001 - a crashing stage is a failed op
            traceback.print_exc()
            code = f"{type(exc).__name__}: {exc}"
        stage_s[key] = time.perf_counter() - start
        checks.check(code == 0, f"stage {stage} returned {code!r}")

    metrics = _artifact_metrics(out, records, config, checks)
    result = {
        "first_stage_at": first_stage_at,
        "stage_s": stage_s,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": {name: _sha256(out / name) for name in FINGERPRINT_FILES},
        "metrics": metrics,
    }
    if (out / "vocab.txt").exists():
        result["corpus_tokens"] = _corpus_tokens(out, records, config.max_len)
        result["mlm_epochs"] = config.mlm_epochs
        result["decoder_epochs"] = config.decoder_epochs
    if tracer is not None:
        from spans import layer_metrics

        tracer.write(out / "spans.jsonl")
        result["layers"] = layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
