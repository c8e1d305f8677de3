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
from typing import Callable

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


def _ingest_summary(config: RunConfig) -> str:
    from .pipeline import read_rows

    by_cwe = Counter(row["cwe_id"] for row in read_rows(config.output_dir / "findings.jsonl"))
    return "\n".join([f"ingested {by_cwe.total()} findings from {config.sarif_path}",
                      *(f"  {cwe}: {by_cwe[cwe]}" for cwe in sorted(by_cwe))])


def _report(config: RunConfig) -> str:
    """The text report after a blank line, or nothing when there is none."""
    path = config.output_dir / "report.txt"
    return "\n" + path.read_text(encoding="utf-8") if path.is_file() else ""


# command: (help text, what it prints once done). ``run`` runs
# ``pipeline.run_all``, every other command ``pipeline.stage_<command>``.
_COMMANDS: dict[str, tuple[str, Callable[[RunConfig], str]]] = {
    "ingest": ("parse the SARIF file and write findings.jsonl", _ingest_summary),
    "context": ("extract code context for every finding",
                lambda c: f"contexts written under {c.output_dir}"),
    "prompts": ("compile adjudication prompts",
                lambda c: f"prompts written to {c.output_dir / 'prompts.jsonl'}"),
    "adjudicate": ("send prompts to the backend and record verdicts",
                   lambda c: f"adjudications written to {c.output_dir / 'adjudications.jsonl'}"),
    "evaluate": ("score verdicts against ground-truth labels",
                 lambda c: f"report written to {c.output_dir / 'report.json'}{_report(c)}"),
    "run": ("execute the full pipeline in order",
            lambda c: f"pipeline complete; artifacts under {c.output_dir}{_report(c)}"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sarif-triage",
        description="Adjudicate SARIF static-analysis alerts with an LLM backend.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        _add_common_flags(sub.add_parser(name, help=help_text))
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
        if args.command == "run":
            pipeline.run_all(config, args.resume)
        else:
            pipeline.write_config_echo(config)
            getattr(pipeline, f"stage_{args.command}")(config, args.resume)
        print(_COMMANDS[args.command][1](config))
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
