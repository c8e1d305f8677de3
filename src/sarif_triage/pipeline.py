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

Every file goes to disk through ``write_file``, whole or not at all, and
the stamp records the SHA-256 it returns instead of reading the file back.
``write_rows`` writes each stage's rows, from its types' ``to_dict``, as JSON
Lines through it, and ``read_rows`` yields the rows of a ``*.jsonl`` artifact
or the labels file back for ``from_dict``.

The run configuration (``RunConfig``, ``BackendConfig``, ``load_config``)
lives in ``config``; this module re-exports it. Each stage imports the
modules it runs on (``ingest``, ``context``, ``prompts``, ``rubrics``,
``adjudicate``, ``backend``, ``evaluate``) only when its body runs, so a
``--resume`` loads only the modules of the stages it runs; one that skips
every stage loads none of them.

Each stage reads its inputs from disk, so deleting a downstream artifact
and re-running reproduces it. With the mock backend every artifact is
byte-identical across reruns except ``audit/``, which records wall-clock
timestamps, and ``.stamps/adjudicate.json``, which hashes those records.

Each stage is one ``_run_stage`` call of a function that hashes its inputs
and a body that writes its outputs; any failure in either, a file it cannot
hash included, is one ``StageError`` naming the stage. ``--resume`` skips
it only when those inputs and the outputs recorded in its stamp still
hash-match. A stage that runs deletes the outputs its previous stamp
recorded and it no longer writes. A stamp that cannot be decoded counts as
absent. A stage reads an artifact of the run only through ``_vouched``: the
SHA-256 it takes of the file for its own stamp must be the one the
producer's stamp recorded, or it stops before any work. As two vouched
files may come from different runs, ``evaluate`` checks that each mode's
rows cover the findings once each. The inputs each stamp keys on:

    ingest      the SARIF file, cwe_map
    context     findings.jsonl, every source file a finding names, limits,
                baseline_style, prompt_mode
    prompts     findings.jsonl, the contexts*.jsonl of its modes, every
                rubric file, prompt_mode, prompt_char_budget
    adjudicate  prompts.jsonl, the backend config, the mock script,
                max_output_chars
    evaluate    findings.jsonl, adjudications.jsonl, the labels file,
                write_csv

While ``findings.jsonl`` still hashes to the value the context stamp
recorded, ``--resume`` takes the source files to hash from that stamp's
``src:<uri>`` keys instead of parsing the findings to list them again.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from .config import BackendConfig, ConfigError, RunConfig, load_config  # noqa: F401 (re-exported)

if TYPE_CHECKING:
    from .backend import Backend
    from .ingest import Finding

# The stage functions a stage body calls by these names, looked up on this
# module when called: a wrapper set here (a tracer, a test's counter) is the
# one that runs. PEP 562 loads each from its home module on first use.
_STAGE_FUNCTIONS = {
    "parse_sarif": "ingest",
    "canonicalize": "ingest",
    "extract_context": "context",
    "extract_baseline_context": "context",
    "compile_prompt": "prompts",
}
_module = sys.modules[__name__]

# The rubric files shipped with the package: the ``rubrics`` package's own
# directory, named without importing it.
SHIPPED_RUBRIC_DIR = Path(__file__).with_name("rubrics")


def __getattr__(name: str) -> Any:
    home = _STAGE_FUNCTIONS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __package__), name)
    globals()[name] = value  # later lookups skip this function
    return value


class StageError(RuntimeError):
    """A pipeline stage failed; maps to exit code 1."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


def build_backend(config: RunConfig) -> Backend:
    from .backend import HttpBackend, MockBackend

    if config.backend.kind == "mock":
        return MockBackend.from_script_file(config.backend.script_path)
    return HttpBackend(config.backend.endpoint, config.backend.key_env)


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


# {"inputs": {name: hash or value}, "outputs": {path under output_dir: hash}}
Stamp = dict[str, dict[str, str]]


def _stamp_path(config: RunConfig, stage: str) -> Path:
    return config.output_dir / ".stamps" / f"{stage}.json"


def _is_str_map(value: Any) -> bool:
    return isinstance(value, dict) and all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    )


def _read_stamp(config: RunConfig, stage: str) -> Stamp | None:
    """The stage's stamp, or None, so the stage runs again, when there is
    none, it cannot be decoded, or it is not an object whose ``inputs`` and
    ``outputs`` map strings to strings."""
    path = _stamp_path(config, stage)
    if not path.is_file():
        return None
    try:
        stamp = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError):  # not UTF-8, not JSON, or past a decoder limit
        return None
    if not (isinstance(stamp, dict) and _is_str_map(stamp.get("inputs"))
            and _is_str_map(stamp.get("outputs"))):
        return None
    return stamp


def _stamp_matches(config: RunConfig, stamp: Stamp, inputs: dict[str, str]) -> bool:
    if stamp["inputs"] != inputs:
        return False
    for rel, expected in stamp["outputs"].items():
        target = config.output_dir / rel
        if not target.is_file() or _sha256_file(target) != expected:
            return False
    return True


def _run_stage(
    config: RunConfig,
    stage: str,
    resume: bool,
    inputs: Callable[[dict[str, str] | None], dict[str, str]],
    body: Callable[[], dict[Path, str]],
) -> None:
    """Run ``body`` unless ``resume`` is set and the stage's stamp still
    matches what ``inputs`` returns; then delete what the previous stamp
    recorded and ``body`` no longer wrote, and stamp the inputs with the
    ``{path: sha256}`` of each file ``body`` wrote. Any failure in
    ``inputs`` or ``body`` surfaces as a ``StageError`` naming ``stage``.

    ``inputs`` is given the inputs the previous stamp recorded (None when
    there is none to trust or ``resume`` is off), for a stage whose stamp
    lists what else it depends on."""
    previous = _read_stamp(config, stage)
    try:
        hashed = inputs(previous["inputs"] if resume and previous is not None else None)
        if resume and previous is not None and _stamp_matches(config, previous, hashed):
            return
        config.output_dir.mkdir(parents=True, exist_ok=True)
        outputs = body()
    except Exception as exc:
        raise StageError(stage, str(exc)) from exc
    if previous is not None:
        _remove_stale_outputs(config, previous, outputs)
    stamp = {
        "inputs": hashed,
        "outputs": {str(p.relative_to(config.output_dir)): sha for p, sha in outputs.items()},
    }
    path = _stamp_path(config, stage)
    path.parent.mkdir(exist_ok=True)
    write_file(path, [json.dumps(stamp, indent=2, sort_keys=True) + "\n"])


def _remove_stale_outputs(config: RunConfig, stamp: Stamp, outputs: Iterable[Path]) -> None:
    """Delete each file ``stamp`` recorded that is not in ``outputs``, and
    any directory that leaves empty. Paths that lexically leave
    ``output_dir`` are never touched."""
    root = os.path.abspath(config.output_dir)
    kept = {os.path.abspath(p) for p in outputs}
    emptied = set()
    for rel in stamp["outputs"]:
        path = os.path.abspath(os.path.join(root, rel))
        if path in kept or os.path.commonpath([root, path]) != root:
            continue
        if os.path.isfile(path):
            os.remove(path)
            emptied.add(os.path.dirname(path))
    for directory in sorted(emptied - {root}, reverse=True):
        if not os.listdir(directory):
            os.rmdir(directory)


def write_file(path: Path, chunks: Iterable[str]) -> str:
    """Write ``chunks`` to ``path`` as UTF-8 with line ends as given, and return
    the bytes' SHA-256. They go to a sibling temporary file that replaces
    ``path`` once all are written and is deleted if writing fails. A lone
    surrogate goes in as its ``\\uXXXX`` escape, which ``json`` reads back."""
    tmp = path.with_name(f".{path.name}.tmp")
    digest = hashlib.sha256()
    try:
        with tmp.open("wb") as fh:
            for chunk in chunks:
                data = chunk.encode("utf-8", "backslashreplace")
                digest.update(data)
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def write_rows(path: Path, rows: Iterable[dict[str, Any]]) -> str:
    """``write_file`` of ``rows`` as JSON Lines, non-ASCII kept."""
    return write_file(path, (json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


def read_rows(path: Path) -> Iterator[dict[str, Any]]:
    """The JSON object on each non-blank line of ``path``, in order; a
    ``ValueError`` naming the path and the line for one that is not UTF-8,
    not JSON, or past the decoder's depth or digit limit."""
    with path.open("rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}, line {number}: not JSON: {exc.msg} (column {exc.colno})"
                ) from exc
            except (ValueError, RecursionError) as exc:  # not UTF-8, or past a decoder limit
                raise ValueError(f"{path}, line {number}: not JSON: {exc}") from exc
            yield row


def _vouched(config: RunConfig, name: str, producer: str) -> str:
    """The SHA-256 of the artifact ``name``, once the ``producer`` stage's
    stamp records that hash as written; a ``ValueError`` when the file is
    missing or is not the one it wrote."""
    path = config.output_dir / name
    if not path.is_file():
        raise ValueError(f"missing input {path}; run {producer} first")
    sha = _sha256_file(path)
    stamp = _read_stamp(config, producer)
    if stamp is None or stamp["outputs"].get(name) != sha:
        raise ValueError(f"{path} is not the one {producer} wrote; run {producer} again")
    return sha


# --------------------------------------------------------------------------
# Stages


def write_config_echo(config: RunConfig) -> None:
    # A record is a tuple, which ``json`` writes as an array, so each nested
    # one goes in as a dict.
    echo = {**config._asdict(), "backend": config.backend._asdict(),
            "limits": config.limits._asdict()}
    config.output_dir.mkdir(parents=True, exist_ok=True)
    write_file(config.output_dir / "run_config.json",
               [json.dumps(echo, indent=2, sort_keys=True, default=str) + "\n"])


def stage_ingest(config: RunConfig, resume: bool = False) -> None:
    def inputs(stamped: dict[str, str] | None) -> dict[str, str]:
        return {
            "sarif": _sha256_file(config.sarif_path),
            "cwe_map": _sha256_text(json.dumps(config.cwe_map, sort_keys=True)),
        }

    def body() -> dict[Path, str]:
        results = _module.parse_sarif(config.sarif_path.read_bytes())
        findings = _module.canonicalize(results, config.cwe_map)
        path = config.output_dir / "findings.jsonl"
        return {path: write_rows(path, (f.to_dict() for f in findings))}

    _run_stage(config, "ingest", resume, inputs, body)


def _load_findings(path: Path) -> list[Finding]:
    from .ingest import Finding

    return [Finding.from_dict(row) for row in read_rows(path)]


def _source_uris(findings: list[Finding]) -> list[str]:
    """Every file a finding's primary location or trace names, sorted."""
    return sorted({step.location.uri for f in findings for step in f.trace}
                  | {f.primary_location.uri for f in findings})


_CONTEXT_FILES = {"OPTIMIZED": "contexts.jsonl", "BASELINE": "contexts_baseline.jsonl"}


def stage_context(config: RunConfig, resume: bool = False) -> None:
    from .source import SourceSnapshot

    source = SourceSnapshot(config.source_root)
    findings = functools.cache(lambda: _load_findings(config.output_dir / "findings.jsonl"))

    def inputs(stamped: dict[str, str] | None) -> dict[str, str]:
        findings_sha = _vouched(config, "findings.jsonl", "ingest")
        if stamped is not None and stamped.get("findings") == findings_sha:
            # The stamp of these same findings lists the files they name.
            uris = [key[len("src:"):] for key in stamped if key.startswith("src:")]
        else:
            uris = _source_uris(findings())
        return {
            "findings": findings_sha,
            **{f"src:{uri}": source.sha256(uri) for uri in uris},
            "limits": _sha256_text(json.dumps(config.limits._asdict(), sort_keys=True)),
            "baseline_style": config.baseline_style,
            "prompt_mode": config.prompt_mode,
        }

    def body() -> dict[Path, str]:
        from .context import BaselineMode

        style = BaselineMode(config.baseline_style)
        extract = {
            "OPTIMIZED": lambda f: _module.extract_context(f, source, config.limits),
            "BASELINE": lambda f: _module.extract_baseline_context(f, source, style, config.limits),
        }
        return {
            path: write_rows(path, (extract[mode](f).to_dict() for f in findings()))
            for mode in config.modes()
            for path in [config.output_dir / _CONTEXT_FILES[mode]]
        }

    _run_stage(config, "context", resume, inputs, body)


def stage_prompts(config: RunConfig, resume: bool = False) -> None:
    rubric_dir = Path(config.rubric_dir or SHIPPED_RUBRIC_DIR)

    def inputs(stamped: dict[str, str] | None) -> dict[str, str]:
        return {
            "findings": _vouched(config, "findings.jsonl", "ingest"),
            **{f"rubric:{p.name}": _sha256_file(p) for p in sorted(rubric_dir.glob("*.rubric"))},
            "prompt_mode": config.prompt_mode,
            "budget": str(config.prompt_char_budget),
            **{name: _vouched(config, name, "context")
               for name in map(_CONTEXT_FILES.get, config.modes())},
        }

    def body() -> dict[Path, str]:
        from .context import CodeContext
        from .prompts import PromptMode
        from .rubrics import load_rubrics, rubric_for

        findings = _load_findings(config.output_dir / "findings.jsonl")
        store = load_rubrics(rubric_dir)
        contexts_by_mode = {
            mode: {row["finding_id"]: CodeContext.from_dict(row)
                   for row in read_rows(config.output_dir / _CONTEXT_FILES[mode])}
            for mode in config.modes()
        }

        def rows() -> Iterator[dict[str, Any]]:
            for finding in findings:
                for mode in config.modes():
                    ctx = contexts_by_mode[mode].get(finding.finding_id)
                    if ctx is None:
                        raise ValueError(f"no context for finding {finding.finding_id}")
                    rubric = rubric_for(finding.cwe_id, store)
                    bundle = _module.compile_prompt(
                        finding, ctx, rubric, PromptMode(mode), config.prompt_char_budget
                    )
                    yield bundle.to_dict()

        path = config.output_dir / "prompts.jsonl"
        return {path: write_rows(path, rows())}

    _run_stage(config, "prompts", resume, inputs, body)


def stage_adjudicate(
    config: RunConfig, resume: bool = False, sleep: Callable[[float], None] | None = None
) -> None:
    prompts_path = config.output_dir / "prompts.jsonl"

    def inputs(stamped: dict[str, str] | None) -> dict[str, str]:
        script = config.backend.kind == "mock" and config.backend.script_path
        return {
            "prompts": _vouched(config, "prompts.jsonl", "prompts"),
            "backend": _sha256_text(json.dumps(config.backend._asdict(), sort_keys=True)),
            "max_output_chars": str(config.max_output_chars),
            **({"script": _sha256_file(Path(script))} if script else {}),
        }

    def body() -> dict[Path, str]:
        from . import adjudicate as adj
        from .backend import RetryPolicy
        from .prompts import PromptBundle

        retry = RetryPolicy(
            attempt_cap=config.backend.attempt_cap,
            backoff_base_s=config.backend.backoff_base_s,
            **({"sleep": sleep} if sleep is not None else {}),
        )
        try:
            bundles = [PromptBundle.from_dict(row) for row in read_rows(prompts_path)]
        except KeyError as exc:
            raise ValueError(f"{prompts_path} has a row with no {exc}, "
                             "as older versions wrote it; run prompts again") from exc
        backend = build_backend(config)
        try:
            results, audits = adj.adjudicate_all(
                bundles,
                backend,
                parallelism=config.parallelism,
                model=config.backend.model,
                retry=retry,
                max_output_chars=config.max_output_chars,
                max_prompt_chars=config.backend.max_prompt_chars,
            )
        finally:
            backend.close()
        path = config.output_dir / "adjudications.jsonl"
        outputs = {path: write_rows(path, (r.to_dict() for r in results))}
        audit_dir = config.output_dir / "audit"
        audit_dir.mkdir(exist_ok=True)
        # Audit writing is serialized here, one record per (finding, mode).
        for record in audits:
            path = audit_dir / f"{record['finding_id']}.{record['mode'].lower()}.json"
            text = json.dumps(record, ensure_ascii=False, indent=2) + "\n"
            outputs[path] = write_file(path, [text])
        return outputs

    _run_stage(config, "adjudicate", resume, inputs, body)


def stage_evaluate(config: RunConfig, resume: bool = False) -> None:
    if config.labels_path is None:
        raise ConfigError("evaluate requires labels_path in the config")
    findings_path = config.output_dir / "findings.jsonl"
    adjudications_path = config.output_dir / "adjudications.jsonl"

    def inputs(stamped: dict[str, str] | None) -> dict[str, str]:
        return {
            "findings": _vouched(config, "findings.jsonl", "ingest"),
            "adjudications": _vouched(config, "adjudications.jsonl", "adjudicate"),
            "labels": _sha256_file(config.labels_path),
            "write_csv": str(config.write_csv),
        }

    def body() -> dict[Path, str]:
        from . import adjudicate as adj
        from . import evaluate as ev

        findings = _load_findings(findings_path)
        results = [adj.AdjudicationResult.from_dict(row) for row in read_rows(adjudications_path)]
        truths = []
        for number, row in enumerate(read_rows(config.labels_path), 1):
            try:
                truths.append(ev.GroundTruth.from_dict(row))
            except ValueError as exc:
                raise ValueError(f"labels file {config.labels_path}, row {number}: {exc}") from exc

        ids = sorted(f.finding_id for f in findings)
        reports: dict[str, ev.EvalReport] = {}
        for mode in config.modes():
            mode_rows = [r for r in results if r.mode == mode]
            if sorted(r.finding_id for r in mode_rows) != ids:
                raise ValueError(f"{adjudications_path} does not hold one {mode} row per "
                                 f"finding of {findings_path}; run adjudicate again")
            reports[mode] = ev.build_report(findings, mode_rows, truths, mode)

        deltas = None
        if "BASELINE" in reports and "OPTIMIZED" in reports:
            deltas = ev.compare_modes(reports["BASELINE"], reports["OPTIMIZED"])

        payload: dict[str, Any] = {
            "modes": {mode: report.to_dict() for mode, report in reports.items()},
        }
        if deltas is not None:
            payload["delta"] = [row.to_dict() for row in deltas]
        out = config.output_dir
        texts = {
            "report.json": json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
            "report.txt": ev.render_report_text(reports, deltas),
        }
        if config.write_csv:
            texts["report.csv"] = ev.render_report_csv(reports)
        return {out / name: write_file(out / name, [text]) for name, text in texts.items()}

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
