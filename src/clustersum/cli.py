"""Command-line entry points for the summarization pipeline.

One subcommand per entry of ``pipeline.STAGES``, in the table's order, plus
``run-all``; each dispatches through ``run_stage`` or ``run_all``. Flags
override config-file values which override preset defaults. Exit codes:
0 success, 2 configuration error, 3 corpus error, 4 artifact mismatch,
1 anything else.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import ConfigError, build_config, parse_setting
from .pipeline import (
    STAGES,
    ArtifactError,
    CorpusError,
    load_corpus,
    run_all,
    run_stage,
)

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="JSON-lines corpus file")
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--preset", choices=["desk", "paper"], help="model scale preset")
    parser.add_argument("--seed", type=int, help="run seed")
    parser.add_argument("--clustering", choices=["kmeans", "labels"])
    parser.add_argument("--num-clusters", type=int, dest="num_clusters")
    parser.add_argument("--no-pretraining", action="store_const", const=True,
                        dest="no_pretraining", help="skip encoder pretraining (ablation)")
    parser.add_argument("--no-decoder-init", action="store_const", const=True,
                        dest="no_decoder_init", help="random decoder init (ablation)")
    parser.add_argument("--unweighted-ce", action="store_const", const=True,
                        dest="unweighted_ce", help="ignore membership weights (ablation)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any configuration field")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustersum",
        description="Cluster a document corpus and write one abstractive summary per cluster.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*(s.name for s in STAGES), "run-all"]:
        p = sub.add_parser(name)
        _add_common(p)
        if name in ("evaluate", "run-all"):
            p.add_argument("--references", help="JSON-lines reference summaries for overlap scores")
    return parser


def _config_from_args(args: argparse.Namespace):
    overrides = {key: getattr(args, key) for key in (
        "preset", "seed", "clustering", "num_clusters", "no_pretraining",
        "no_decoder_init", "unweighted_ce")}
    overrides.update(parse_setting(item) for item in args.set)
    return build_config(args.config, overrides)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = _config_from_args(args)
        records = load_corpus(args.corpus, require_labels=config.uses_labels)
        references = getattr(args, "references", None)
        if args.command == "run-all":
            run_all(config, records, Path(args.out), references)
        else:
            run_stage(args.command, config, records, Path(args.out), references)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CorpusError as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return 3
    except ArtifactError as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
