"""Command-line entry point.

One parser: a command, either a pipeline stage (``ingest``, ``context``,
``prompts``, ``adjudicate``, ``evaluate``) or ``run`` for the whole chain,
and flags in any order around it. Every command reads a JSON config file;
each override flag stores its text under the config key it overrides, a
flag not given overrides nothing (flags win), and the config's table alone
says which values a key accepts, so a flag accepts what its key accepts.

Exit codes: 0 success, 1 stage failure, 2 usage or configuration error,
including a SARIF file that is not JSON or not usable SARIF.

Only ``config`` is imported up front; the pipeline is imported when a
command runs, so a bad config is rejected before any stage is loaded.
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
        epilog="commands:\n" + "".join(f"  {name:<12}{help_text}\n"
                                       for name, (help_text, _) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands below")
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--output", dest="output_dir", help="override output_dir from the config")
    parser.add_argument("--prompt-mode", help="override prompt_mode from the config")
    parser.add_argument("--backend", dest="backend.kind",
                        help="override backend.kind from the config")
    parser.add_argument("--parallelism", help="override parallelism from the config")
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip stages whose recorded inputs and outputs still hash-match",
    )
    parser.add_argument(
        "--csv", dest="write_csv", action="store_const", const=True,
        help="also write report.csv in the evaluate stage",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    overrides = vars(build_parser().parse_args(argv))
    command, resume = overrides.pop("command"), overrides.pop("resume")
    try:
        config = load_config(overrides.pop("config"), overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    from . import pipeline

    try:
        if command == "run":
            pipeline.run_all(config, resume)
        else:
            pipeline.write_config_echo(config)
            getattr(pipeline, f"stage_{command}")(config, resume)
        print(_COMMANDS[command][1](config))
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
