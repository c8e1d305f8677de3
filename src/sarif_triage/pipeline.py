"""Pipeline orchestration: stage execution, artifact layout, and resume.

Artifact tree under ``output_dir``::

    run_config.json              resolved configuration echo
    findings.jsonl               one canonical finding per line
    contexts.jsonl               one optimized context per finding
    contexts_baseline.jsonl      one baseline context per finding (when baseline runs)
    prompts.jsonl                one prompt per (finding, mode): hash and exact text
    adjudications.jsonl          one verdict/UNEVALUATED row per (finding, mode)
    audit/<fid>.<mode>.json      full audit record per call
    report.json / report.txt     metrics (when labels are configured)
    .stamps/<stage>.json         input/output hashes for --resume

The run configuration (``RunConfig``, ``BackendConfig``, ``load_config``)
lives in ``config``; this module re-exports it. The adjudicate and evaluate
stages import ``adjudicate``, ``backend`` and ``evaluate`` only when they
run, so a ``--resume`` that skips them never loads the HTTP transport.

Each stage reads its inputs from disk, so deleting a downstream artifact
and re-running reproduces it. With the mock backend every artifact except
``audit/`` (which records wall-clock timestamps) is byte-identical across
reruns.

Every stage runs through ``_run_stage``: it declares its inputs once, and
``--resume`` skips it only when those inputs and the outputs recorded in
its stamp still hash-match. A stage that runs deletes the outputs its
previous stamp recorded and it no longer writes. The inputs each stamp
keys on:

    ingest      the SARIF file, cwe_map
    context     findings.jsonl, every source file a finding names, limits,
                baseline_style, prompt_mode
    prompts     findings.jsonl, contexts*.jsonl, every rubric file,
                prompt_mode, prompt_char_budget
    adjudicate  prompts.jsonl, the backend config, the mock script,
                max_output_chars
    evaluate    findings.jsonl, adjudications.jsonl, the labels file,
                write_csv
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from .config import BackendConfig, ConfigError, RunConfig, load_config  # noqa: F401 (re-exported)
from .context import (
    BaselineMode,
    CodeContext,
    SourceSnapshot,
    extract_baseline_context,
    extract_context,
)
from .ingest import Finding, canonicalize, load_findings_jsonl, parse_sarif, write_findings_jsonl
from .prompts import PromptBundle, PromptMode, compile_prompt, prompt_sha256
from .rubrics import default_rubric_dir, load_rubrics, rubric_for

if TYPE_CHECKING:
    from .backend import Backend


class StageError(RuntimeError):
    """A pipeline stage failed; maps to exit code 1."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


def build_backend(config: RunConfig) -> Backend:
    from .backend import HttpBackend, MockBackend

    if config.backend.kind == "mock":
        backend = MockBackend.from_script_file(config.backend.script_path)
        if config.backend.max_prompt_chars is not None:
            backend.max_prompt_chars = config.backend.max_prompt_chars
        return backend
    return HttpBackend(
        endpoint=config.backend.endpoint,
        key_env=config.backend.key_env,
        max_prompt_chars=config.backend.max_prompt_chars,
    )


# --------------------------------------------------------------------------
# Resume stamps


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stamp_path(config: RunConfig, stage: str) -> Path:
    return config.output_dir / ".stamps" / f"{stage}.json"


def _write_stamp(config: RunConfig, stage: str, inputs: dict[str, str], outputs: list[Path]) -> None:
    stamp = {
        "inputs": inputs,
        "outputs": {
            str(p.relative_to(config.output_dir)): _sha256_file(p) for p in outputs if p.is_file()
        },
    }
    path = _stamp_path(config, stage)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stamp, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_stamp(config: RunConfig, stage: str) -> dict[str, Any] | None:
    path = _stamp_path(config, stage)
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return None


def _stamp_matches(config: RunConfig, stamp: dict[str, Any], inputs: dict[str, str]) -> bool:
    if stamp.get("inputs") != inputs:
        return False
    for rel, expected in stamp.get("outputs", {}).items():
        target = config.output_dir / rel
        if not target.is_file() or _sha256_file(target) != expected:
            return False
    return True


def _run_stage(
    config: RunConfig,
    stage: str,
    resume: bool,
    inputs: dict[str, str],
    body: Callable[[], list[Path]],
) -> None:
    """Run ``body`` unless ``resume`` is set and the stage's stamp still
    matches ``inputs``; then delete what the previous stamp recorded and
    ``body`` no longer wrote, and stamp ``inputs`` with the paths ``body``
    returned. Any failure in ``body`` surfaces as a ``StageError``."""
    previous = _read_stamp(config, stage)
    if resume and previous is not None and _stamp_matches(config, previous, inputs):
        return
    try:
        outputs = body()
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, str(exc)) from exc
    if previous is not None:
        _remove_stale_outputs(config, previous, outputs)
    _write_stamp(config, stage, inputs, outputs)


def _remove_stale_outputs(config: RunConfig, stamp: dict[str, Any], outputs: list[Path]) -> None:
    """Delete each file ``stamp`` recorded that is not in ``outputs``, and
    any directory that leaves empty. Paths that lexically leave
    ``output_dir`` are never touched."""
    root = os.path.abspath(config.output_dir)
    kept = {os.path.abspath(p) for p in outputs}
    emptied = set()
    for rel in stamp.get("outputs", {}):
        path = os.path.abspath(os.path.join(root, rel))
        if path in kept or os.path.commonpath([root, path]) != root:
            continue
        if os.path.isfile(path):
            os.remove(path)
            emptied.add(os.path.dirname(path))
    for directory in sorted(emptied - {root}, reverse=True):
        if not os.listdir(directory):
            os.rmdir(directory)


def _require(stage: str, path: Path, producer: str) -> Path:
    if not path.is_file():
        raise StageError(stage, f"missing input {path}; run {producer} first")
    return path


# --------------------------------------------------------------------------
# Stages


def write_config_echo(config: RunConfig) -> None:
    config.output_dir.mkdir(parents=True, exist_ok=True)
    (config.output_dir / "run_config.json").write_text(
        json.dumps(asdict(config), indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )


def stage_ingest(config: RunConfig, resume: bool = False) -> None:
    inputs = {
        "sarif": _sha256_file(config.sarif_path),
        "cwe_map": _sha256_text(json.dumps(config.cwe_map, sort_keys=True)),
    }

    def body() -> list[Path]:
        out_path = config.output_dir / "findings.jsonl"
        doc = parse_sarif(config.sarif_path.read_bytes())
        write_findings_jsonl(canonicalize(doc, config.cwe_map), out_path)
        return [out_path]

    _run_stage(config, "ingest", resume, inputs, body)


def _context_inputs(
    config: RunConfig, findings: list[Finding], source: SourceSnapshot
) -> dict[str, str]:
    inputs = {"findings": _sha256_file(config.output_dir / "findings.jsonl")}
    uris = sorted({step.location.uri for f in findings for step in f.trace}
                  | {f.primary_location.uri for f in findings})
    for uri in uris:
        inputs[f"src:{uri}"] = source.sha256(uri)
    inputs["limits"] = _sha256_text(json.dumps(asdict(config.limits), sort_keys=True))
    inputs["baseline_style"] = config.baseline_style
    inputs["prompt_mode"] = config.prompt_mode
    return inputs


_CONTEXT_FILES = {
    PromptMode.OPTIMIZED: "contexts.jsonl",
    PromptMode.BASELINE: "contexts_baseline.jsonl",
}


def _write_contexts(config: RunConfig, mode: PromptMode, contexts: list[CodeContext]) -> Path:
    path = config.output_dir / _CONTEXT_FILES[mode]
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for ctx in contexts:
            fh.write(json.dumps(ctx.to_dict(), ensure_ascii=False) + "\n")
    return path


def load_contexts_jsonl(path: Path) -> dict[str, CodeContext]:
    contexts: dict[str, CodeContext] = {}
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                ctx = CodeContext.from_dict(json.loads(line))
                contexts[ctx.finding_id] = ctx
    return contexts


def stage_context(config: RunConfig, resume: bool = False) -> None:
    findings = load_findings_jsonl(
        _require("context", config.output_dir / "findings.jsonl", "ingest")
    )
    source = SourceSnapshot(config.source_root)

    def body() -> list[Path]:
        outputs: list[Path] = []
        modes = config.modes()
        if PromptMode.OPTIMIZED in modes:
            contexts = [extract_context(f, source, config.limits) for f in findings]
            outputs.append(_write_contexts(config, PromptMode.OPTIMIZED, contexts))
        if PromptMode.BASELINE in modes:
            style = BaselineMode(config.baseline_style)
            baseline = [extract_baseline_context(f, source, style, config.limits) for f in findings]
            outputs.append(_write_contexts(config, PromptMode.BASELINE, baseline))
        return outputs

    _run_stage(config, "context", resume, _context_inputs(config, findings, source), body)


def stage_prompts(config: RunConfig, resume: bool = False) -> None:
    findings_path = _require("prompts", config.output_dir / "findings.jsonl", "ingest")
    rubric_dir = config.rubric_dir or default_rubric_dir()
    rubric_inputs = {
        f"rubric:{p.name}": _sha256_file(p) for p in sorted(Path(rubric_dir).glob("*.rubric"))
    }
    inputs = {"findings": _sha256_file(findings_path), **rubric_inputs}
    inputs["prompt_mode"] = config.prompt_mode
    inputs["budget"] = str(config.prompt_char_budget)
    for name in _CONTEXT_FILES.values():
        path = config.output_dir / name
        if path.is_file():
            inputs[name] = _sha256_file(path)

    def body() -> list[Path]:
        findings = load_findings_jsonl(findings_path)
        store = load_rubrics(rubric_dir)
        modes = config.modes()
        contexts_by_mode = {
            mode: load_contexts_jsonl(_require("prompts", config.output_dir / name, "context"))
            for mode, name in _CONTEXT_FILES.items()
            if mode in modes
        }
        out_path = config.output_dir / "prompts.jsonl"
        with out_path.open("w", encoding="utf-8", newline="\n") as fh:
            for finding in findings:
                for mode in modes:
                    ctx = contexts_by_mode[mode].get(finding.finding_id)
                    if ctx is None:
                        raise StageError(
                            "prompts", f"no context for finding {finding.finding_id}"
                        )
                    rubric = rubric_for(finding.cwe_id, store)
                    bundle = compile_prompt(
                        finding, ctx, rubric, mode, config.prompt_char_budget
                    )
                    fh.write(json.dumps(bundle.to_dict(), ensure_ascii=False) + "\n")
        return [out_path]

    _run_stage(config, "prompts", resume, inputs, body)


def load_prompt_bundles(config: RunConfig) -> list[PromptBundle]:
    """The bundles ``prompts.jsonl`` holds, each checked against its
    ``prompt_sha256``."""
    bundles: list[PromptBundle] = []
    with (config.output_dir / "prompts.jsonl").open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            name = f"finding {row.get('finding_id')} ({row.get('mode')})"
            try:
                bundle = PromptBundle.from_dict(row)
            except KeyError as exc:
                raise StageError(
                    "adjudicate", f"prompts.jsonl row for {name} has no {exc}; run prompts again"
                ) from exc
            if prompt_sha256(bundle.system_text, bundle.user_text) != bundle.prompt_sha256:
                raise StageError(
                    "adjudicate", f"prompt for {name} does not match its recorded hash"
                )
            bundles.append(bundle)
    return bundles


def stage_adjudicate(
    config: RunConfig, resume: bool = False, sleep: Callable[[float], None] | None = None
) -> None:
    index_path = _require("adjudicate", config.output_dir / "prompts.jsonl", "prompts")
    inputs = {
        "prompts": _sha256_file(index_path),
        "backend": _sha256_text(json.dumps(asdict(config.backend), sort_keys=True)),
        "max_output_chars": str(config.max_output_chars),
    }
    if config.backend.kind == "mock" and config.backend.script_path:
        inputs["script"] = _sha256_file(Path(config.backend.script_path))

    def body() -> list[Path]:
        from . import adjudicate as adj
        from .backend import RetryPolicy

        retry = RetryPolicy(
            attempt_cap=config.backend.attempt_cap,
            backoff_base_s=config.backend.backoff_base_s,
            **({"sleep": sleep} if sleep is not None else {}),
        )
        bundles = load_prompt_bundles(config)
        backend = build_backend(config)
        try:
            results, audits = adj.adjudicate_all(
                bundles,
                backend,
                parallelism=config.parallelism,
                model=config.backend.model,
                retry=retry,
                max_output_chars=config.max_output_chars,
            )
        finally:
            backend.close()
        out_path = config.output_dir / "adjudications.jsonl"
        adj.write_adjudications_jsonl(results, out_path)
        audit_dir = config.output_dir / "audit"
        audit_dir.mkdir(parents=True, exist_ok=True)
        outputs = [out_path]
        # Audit writing is serialized here, one record per (finding, mode).
        for record in audits:
            path = audit_dir / f"{record.finding_id}.{record.mode.lower()}.json"
            path.write_text(
                json.dumps(record.to_dict(), ensure_ascii=False, indent=2) + "\n",
                encoding="utf-8",
            )
            outputs.append(path)
        return outputs

    _run_stage(config, "adjudicate", resume, inputs, body)


def stage_evaluate(config: RunConfig, resume: bool = False) -> None:
    if config.labels_path is None:
        raise ConfigError("evaluate requires labels_path in the config")
    findings_path = _require("evaluate", config.output_dir / "findings.jsonl", "ingest")
    adjudications_path = _require(
        "evaluate", config.output_dir / "adjudications.jsonl", "adjudicate"
    )
    inputs = {
        "findings": _sha256_file(findings_path),
        "adjudications": _sha256_file(adjudications_path),
        "labels": _sha256_file(config.labels_path),
        "write_csv": str(config.write_csv),
    }

    def body() -> list[Path]:
        from . import adjudicate as adj
        from . import evaluate as ev

        findings = load_findings_jsonl(findings_path)
        results = adj.load_adjudications_jsonl(adjudications_path)
        truths = ev.load_labels_jsonl(config.labels_path)

        reports: dict[str, ev.EvalReport] = {}
        for mode in config.modes():
            mode_rows = [r for r in results if r.mode == mode.value]
            reports[mode.value] = ev.build_report(findings, mode_rows, truths, mode.value)

        deltas = None
        if "BASELINE" in reports and "OPTIMIZED" in reports:
            deltas = ev.compare_modes(reports["BASELINE"], reports["OPTIMIZED"])

        payload: dict[str, Any] = {
            "modes": {mode: report.to_dict() for mode, report in reports.items()},
        }
        if deltas is not None:
            payload["delta"] = [row.to_dict() for row in deltas]
        report_path = config.output_dir / "report.json"
        report_path.write_text(
            json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        text_path = config.output_dir / "report.txt"
        text_path.write_text(ev.render_report_text(reports, deltas), encoding="utf-8")
        outputs = [report_path, text_path]
        if config.write_csv:
            csv_path = config.output_dir / "report.csv"
            ev.write_report_csv(reports, csv_path)
            outputs.append(csv_path)
        return outputs

    _run_stage(config, "evaluate", resume, inputs, body)


def run_all(
    config: RunConfig, resume: bool = False, sleep: Callable[[float], None] | None = None
) -> None:
    """Execute ingest -> context -> prompts -> adjudicate (-> evaluate when
    labels are configured), writing every stage's outputs before the next
    stage begins. Without labels, the report an earlier run left is deleted
    so that it cannot pass for this run's."""
    write_config_echo(config)
    stage_ingest(config, resume)
    stage_context(config, resume)
    stage_prompts(config, resume)
    stage_adjudicate(config, resume, sleep=sleep)
    if config.labels_path is not None:
        stage_evaluate(config, resume)
    else:
        previous = _read_stamp(config, "evaluate")
        if previous is not None:
            _remove_stale_outputs(config, previous, [])
        _stamp_path(config, "evaluate").unlink(missing_ok=True)
