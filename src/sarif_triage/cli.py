"""Command-line entry point.

Subcommands mirror the pipeline stages (``ingest``, ``context``,
``prompts``, ``adjudicate``, ``evaluate``) plus ``run`` for the whole
chain. All of them read a JSON config file; a handful of flags override
config values (flags win).

Exit codes: 0 success, 1 stage failure, 2 usage or configuration error,
including a SARIF file that is not JSON or not usable SARIF.

Only ``config`` is imported up front; the pipeline is imported when a
subcommand runs, so a bad config is rejected before any stage is loaded.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from .config import ConfigError, RunConfig, load_config

EXIT_OK = 0
EXIT_STAGE_FAILURE = 1
EXIT_USAGE = 2


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--output", help="override output_dir from the config")
    parser.add_argument(
        "--prompt-mode",
        choices=["OPTIMIZED", "BASELINE", "BOTH"],
        help="override prompt_mode from the config",
    )
    parser.add_argument(
        "--backend", choices=["mock", "live"], help="override backend.kind from the config"
    )
    parser.add_argument(
        "--parallelism", type=int, help="override parallelism from the config"
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip stages whose recorded inputs and outputs still hash-match",
    )
    parser.add_argument(
        "--csv", action="store_true", help="also write report.csv in the evaluate stage"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarif-triage",
        description="Adjudicate SARIF static-analysis alerts with an LLM backend.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("ingest", "parse the SARIF file and write findings.jsonl"),
        ("context", "extract code context for every finding"),
        ("prompts", "compile adjudication prompts"),
        ("adjudicate", "send prompts to the backend and record verdicts"),
        ("evaluate", "score verdicts against ground-truth labels"),
        ("run", "execute the full pipeline in order"),
    ):
        stage = sub.add_parser(name, help=help_text)
        _add_common_flags(stage)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {
        "output_dir": args.output,
        "prompt_mode": args.prompt_mode,
        "backend.kind": args.backend,
        "parallelism": args.parallelism,
    }
    if args.csv:
        overrides["write_csv"] = True
    return load_config(args.config, overrides)


def _print_ingest_summary(config: RunConfig) -> None:
    from .pipeline import read_rows

    by_cwe = Counter(row["cwe_id"] for row in read_rows(config.output_dir / "findings.jsonl"))
    print(f"ingested {by_cwe.total()} findings from {config.sarif_path}")
    for cwe in sorted(by_cwe):
        print(f"  {cwe}: {by_cwe[cwe]}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    from . import pipeline

    try:
        if args.command == "ingest":
            pipeline.write_config_echo(config)
            pipeline.stage_ingest(config, args.resume)
            _print_ingest_summary(config)
        elif args.command == "context":
            pipeline.write_config_echo(config)
            pipeline.stage_context(config, args.resume)
            print(f"contexts written under {config.output_dir}")
        elif args.command == "prompts":
            pipeline.write_config_echo(config)
            pipeline.stage_prompts(config, args.resume)
            print(f"prompts written to {config.output_dir / 'prompts.jsonl'}")
        elif args.command == "adjudicate":
            pipeline.write_config_echo(config)
            pipeline.stage_adjudicate(config, args.resume)
            print(f"adjudications written to {config.output_dir / 'adjudications.jsonl'}")
        elif args.command == "evaluate":
            pipeline.write_config_echo(config)
            pipeline.stage_evaluate(config, args.resume)
            print(f"report written to {config.output_dir / 'report.json'}")
            print((config.output_dir / "report.txt").read_text(encoding="utf-8"))
        elif args.command == "run":
            pipeline.run_all(config, args.resume)
            print(f"pipeline complete; artifacts under {config.output_dir}")
            report_txt = config.output_dir / "report.txt"
            if report_txt.is_file():
                print(report_txt.read_text(encoding="utf-8"))
    except pipeline.StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # An unparseable or non-SARIF input is a usage problem, not a
        # pipeline failure, whichever command ran the ingest stage.
        from .ingest import MalformedJson, NotSarif

        if isinstance(exc.__cause__, (MalformedJson, NotSarif)):
            return EXIT_USAGE
        return EXIT_STAGE_FAILURE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
