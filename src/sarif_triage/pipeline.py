"""Pipeline orchestration: the stage table and its engine, the artifact
layout, and resume.

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
``write_rows`` writes records as JSON Lines through it, and ``read_rows``
yields the rows of a ``*.jsonl`` artifact or the labels file back. Every
file a stage hashes, and every stamp, comes back through
``source.read_file``, which checks the open descriptor: a path that holds
no regular file reads as None, and no read waits on a FIFO.

The run configuration (``RunConfig``, ``BackendConfig``, ``load_config``)
lives in ``config``; this module re-exports it. A stage imports the modules
it runs on only when its body runs, so a ``--resume`` that skips every
stage loads none of them. With the mock backend every artifact is
byte-identical across reruns except ``audit/``, which records wall-clock
timestamps, and ``.stamps/adjudicate.json``, which hashes those records.

A run is one loop over ``_STAGES``, whose rows name the artifacts each
stage reads, the other inputs its stamp keys on, its body, and when it runs
(``evaluate``: when labels are configured). ``_run_stage`` runs a row. It
reads each artifact once, and their SHA-256 must be the one the producer's
stamp recorded as written, or the stage stops before any work. ``--resume``
skips the stage while its inputs and the outputs its stamp recorded still
hash-match; a stamp that cannot be decoded counts as absent. Otherwise the
body is handed each artifact's records: the ones ``write_rows`` kept when
this process wrote those same bytes, so a ``run`` decodes no artifact it
wrote, else the rows decoded through their type's ``from_dict``, at most
once per process for the bytes they hold (a row that cannot be read names
its row and asks for the producer again). Each outside input the stamp
keys on is read once, and the body parses the bytes the stamp hashed. The
body writes the outputs, what the previous stamp recorded and the body no
longer wrote is deleted, and the stamp is written. A stage that does not
run has what an earlier run left of it deleted. Any failure on the way is
one ``StageError`` naming the stage (exit 1). As two vouched files may come
from different runs, ``prompts`` checks that each finding has a context and
``evaluate`` that each mode's rows cover the findings once each. A stamp
keys on its row's ``reads`` and ``keys``; while ``findings.jsonl`` still
hashes to the value the context stamp recorded, ``--resume`` takes the
source files to hash from that stamp's ``src:<uri>`` keys instead of
parsing the findings to list them.
"""

from __future__ import annotations

import codecs
import hashlib
import importlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple

from .config import BackendConfig, ConfigError, RunConfig, load_config  # noqa: F401 (re-exported)
from .source import SourceSnapshot, read_file

if TYPE_CHECKING:
    from .backend import Backend

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


def build_backend(config: RunConfig, reads: _Reads) -> Backend:
    """The backend ``config`` names; a mock's script is parsed from the
    bytes ``reads`` hashed for the stamp."""
    from .backend import HttpBackend, MockBackend

    if config.backend.kind == "mock":
        script = config.backend.script_path
        return MockBackend.from_script_file(script, reads.file(Path(script))[0])
    return HttpBackend(config.backend.endpoint, config.backend.key_env)


# --------------------------------------------------------------------------
# Resume stamps


def _read_hashed(path: Path) -> tuple[bytes, str] | None:
    """The bytes of ``path`` and their SHA-256, or None when it holds no
    regular file: every file this module hashes is read through here, once."""
    data = read_file(path)
    return None if data is None else (data, hashlib.sha256(data).hexdigest())


def _sha256_json(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


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
    data = read_file(_stamp_path(config, stage))
    if data is None:
        return None
    try:
        stamp = json.loads(data.decode("utf-8"))
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
        read = _read_hashed(config.output_dir / rel)
        if read is None or read[1] != expected:
            return False
    return True


def _remove_stale_outputs(config: RunConfig, stamp: Stamp | None,
                          outputs: Iterable[Path]) -> None:
    """Delete each file ``stamp``, if any, recorded that is not in
    ``outputs``, and any directory that leaves empty. Paths that lexically
    leave ``output_dir`` are never touched."""
    if stamp is None:
        return
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


def write_rows(path: Path, records: Iterable[Any]) -> str:
    """``write_file`` of each record's ``to_dict`` as JSON Lines, non-ASCII
    kept. Once every row of an artifact is on disk, its records are what a
    stage of this process that reads those bytes is handed: they are the
    records the rows decode to, so the file is not decoded again."""
    records = tuple(records)
    sha = write_file(path, (json.dumps(r.to_dict(), ensure_ascii=False) + "\n" for r in records))
    if path.name in _ARTIFACTS:
        _decoded[path.name] = (sha, records)
    return sha


def read_rows(path: Path, data: bytes | None = None) -> Iterator[dict[str, Any]]:
    """The JSON object on each non-blank line of ``path``, or of ``data``,
    its bytes as already read, in order, past a UTF-8 byte-order mark that
    opens the file; a ``ValueError`` naming the path and the line for one
    that is not UTF-8, not JSON, or past the decoder's depth or digit
    limit."""
    data = path.read_bytes() if data is None else data
    for number, line in enumerate(data.removeprefix(codecs.BOM_UTF8).split(b"\n"), 1):
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


# artifact: (the stage that writes it, the key its hash has in the stamp of a
# stage that reads it, the module and type of its rows)
_ARTIFACTS = {
    "findings.jsonl": ("ingest", "findings", "ingest", "Finding"),
    "contexts.jsonl": ("context", "contexts.jsonl", "context", "CodeContext"),
    "contexts_baseline.jsonl": ("context", "contexts_baseline.jsonl", "context", "CodeContext"),
    "prompts.jsonl": ("prompts", "prompts", "prompts", "PromptBundle"),
    "adjudications.jsonl": ("adjudicate", "adjudications", "adjudicate", "AdjudicationResult"),
}
_CONTEXT_FILES = {"OPTIMIZED": "contexts.jsonl", "BASELINE": "contexts_baseline.jsonl"}

# artifact: (the SHA-256 of the bytes last written or decoded, their
# records). Keyed by content, an entry is never stale; one per artifact, it
# stays bounded.
_decoded: dict[str, tuple[str, tuple[Any, ...]]] = {}


class _Reads:
    """What one run of a stage reads: the bytes and SHA-256 of each artifact
    it names, read once; their records, decoded when first asked for; the
    bytes and SHA-256 of each outside input, read once when first asked for;
    the stage's previous stamp when resuming; and one view of the source
    tree."""

    def __init__(self, config: RunConfig, names: Iterable[str], stamp: Stamp | None):
        self.config, self.stamp, self.data = config, stamp, {}
        self.files: dict[Path, tuple[bytes, str]] = {}
        self.source = SourceSnapshot(config.source_root)
        for name in names:
            # Only the file the producer's stamp records as written is read.
            producer, path = _ARTIFACTS[name][0], config.output_dir / name
            if (read := _read_hashed(path)) is None:
                raise ValueError(f"missing input {path}; run {producer} first")
            _, sha = self.data[name] = read
            written = _read_stamp(config, producer)
            if written is None or written["outputs"].get(name) != sha:
                raise ValueError(f"{path} is not the one {producer} wrote; run {producer} again")

    def file(self, path: Path) -> tuple[bytes, str]:
        """The bytes and SHA-256 of the outside input ``path``: the stamp
        keys on the hash, and the body parses the same bytes. A
        ``ValueError`` naming it when it holds no regular file."""
        if path not in self.files:
            if (read := _read_hashed(path)) is None:
                raise ValueError(f"input {path} is missing or not a regular file")
            self.files[path] = read
        return self.files[path]

    def __getitem__(self, name: str) -> tuple[Any, ...]:
        """The ``from_dict`` of each row of the artifact ``name``: the records
        this process last wrote or decoded as these same bytes, else decoded
        from them; a ``ValueError`` naming the row and asking for the
        producer again for a row without a key, as an older version may have
        written it, or one ``from_dict`` cannot read."""
        data, sha = self.data[name]
        cached = _decoded.get(name)
        if cached is None or cached[0] != sha:
            producer, _, module, type_name = _ARTIFACTS[name]
            path = self.config.output_dir / name
            cls = getattr(importlib.import_module(f".{module}", __package__), type_name)
            records = []
            for number, row in enumerate(read_rows(path, data), 1):
                try:
                    records.append(cls.from_dict(row))
                except KeyError as exc:
                    raise ValueError(f"{path}, row {number}: no {exc}, as older versions wrote "
                                     f"it; run {producer} again") from exc
                except TypeError as exc:
                    raise ValueError(f"{path}, row {number}: {type_name}.from_dict cannot read "
                                     f"it ({exc}); run {producer} again") from exc
            cached = _decoded[name] = (sha, tuple(records))
        return cached[1]


# --------------------------------------------------------------------------
# Stages


def write_config_echo(config: RunConfig) -> None:
    # A record is a tuple, which ``json`` writes as an array, so each nested
    # one goes in as a dict.
    echo = {**config._asdict(), "backend": config.backend._asdict(),
            "limits": config.limits._asdict()}
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # say, a component longer than the OS allows
        raise ConfigError(f"output_dir cannot be made a directory: {exc}") from exc
    try:
        write_file(config.output_dir / "run_config.json",
                   [json.dumps(echo, indent=2, sort_keys=True, default=str) + "\n"])
    except OSError as exc:  # say, a directory in the file's place
        raise ConfigError(f"output_dir cannot hold run_config.json: {exc}") from exc


def _ingest(config: RunConfig, reads: _Reads) -> dict[Path, str]:
    results = _module.parse_sarif(reads.file(config.sarif_path)[0])
    findings = _module.canonicalize(results, config.cwe_map)
    path = config.output_dir / "findings.jsonl"
    return {path: write_rows(path, findings)}


def _context_keys(config: RunConfig, reads: _Reads) -> dict[str, str]:
    stamp = reads.stamp
    if stamp is not None and stamp["inputs"].get("findings") == reads.data["findings.jsonl"][1]:
        # The stamp of these same findings lists the files they name.
        uris = [key[len("src:"):] for key in stamp["inputs"] if key.startswith("src:")]
    else:
        uris = sorted({loc.uri for f in reads["findings.jsonl"] for _, loc in f.steps()})
    return {
        **{f"src:{uri}": reads.source.sha256(uri) for uri in uris},
        "limits": _sha256_json(config.limits._asdict()),
        "baseline_style": config.baseline_style,
        "prompt_mode": config.prompt_mode,
    }


def _context(config: RunConfig, reads: _Reads) -> dict[Path, str]:
    source, style, limits = reads.source, config.baseline_style, config.limits
    extract = {
        "OPTIMIZED": lambda f: _module.extract_context(f, source, limits),
        "BASELINE": lambda f: _module.extract_baseline_context(f, source, style, limits),
    }
    return {
        path: write_rows(path, map(extract[mode], reads["findings.jsonl"]))
        for mode in config.modes()
        for path in [config.output_dir / _CONTEXT_FILES[mode]]
    }


def _rubric_dir(config: RunConfig) -> Path:
    return Path(config.rubric_dir or SHIPPED_RUBRIC_DIR)


def _prompts(config: RunConfig, reads: _Reads) -> dict[Path, str]:
    from .rubrics import load_rubrics, rubric_for

    # The only outside inputs the stamp hashed are the rubric files.
    store = load_rubrics(_rubric_dir(config), {p: data for p, (data, _) in reads.files.items()})
    contexts_by_mode = {mode: {ctx.finding_id: ctx for ctx in reads[_CONTEXT_FILES[mode]]}
                        for mode in config.modes()}

    def bundles() -> Iterator[Any]:
        for finding in reads["findings.jsonl"]:
            for mode in config.modes():
                ctx = contexts_by_mode[mode].get(finding.finding_id)
                if ctx is None:
                    raise ValueError(
                        f"{config.output_dir / _CONTEXT_FILES[mode]} holds no context for "
                        f"finding {finding.finding_id} of {config.output_dir / 'findings.jsonl'}; "
                        "run context again")
                rubric = rubric_for(finding.cwe_id, store)
                yield _module.compile_prompt(finding, ctx, rubric, mode, config.prompt_char_budget)

    path = config.output_dir / "prompts.jsonl"
    return {path: write_rows(path, bundles())}


def _adjudicate(
    config: RunConfig, reads: _Reads, sleep: Callable[[float], None] | None = None
) -> dict[Path, str]:
    """Send every prompt of ``prompts.jsonl`` to the backend. Each call's
    audit record is written to ``audit/<fid>.<mode>.json`` as soon as the
    call returns, so an interrupt keeps every record already received;
    ``adjudications.jsonl`` is written once every call is back, and then
    every other file directly under ``audit/`` is deleted."""
    from . import adjudicate as adj
    from .backend import RetryPolicy

    retry = RetryPolicy(attempt_cap=config.backend.attempt_cap,
                        backoff_base_s=config.backend.backoff_base_s,
                        **({"sleep": sleep} if sleep is not None else {}))
    audit_dir = config.output_dir / "audit"
    audit_dir.mkdir(exist_ok=True)
    outputs: dict[Path, str] = {}

    def write_audit(record: dict[str, Any]) -> None:
        path = audit_dir / f"{record['finding_id']}.{record['mode'].lower()}.json"
        text = json.dumps(record, ensure_ascii=False, indent=2) + "\n"
        outputs[path] = write_file(path, [text])

    backend = build_backend(config, reads)
    try:
        results, _ = adj.adjudicate_all(
            list(reads["prompts.jsonl"]), backend, parallelism=config.parallelism,
            model=config.backend.model, retry=retry, max_output_chars=config.max_output_chars,
            max_prompt_chars=config.backend.max_prompt_chars, on_audit=write_audit)
    finally:
        backend.close()
    path = config.output_dir / "adjudications.jsonl"
    outputs[path] = write_rows(path, results)
    # audit/ holds this run's records only: an interrupted run's record of
    # a (finding, mode) this run no longer has goes, as does a killed
    # write's temporary file.
    for stray in audit_dir.iterdir():
        if stray not in outputs and not stray.is_dir():
            stray.unlink()
    return outputs


def _evaluate(config: RunConfig, reads: _Reads) -> dict[Path, str]:
    from . import evaluate as ev

    truths = []
    row_of_id: dict[str, int] = {}  # the row that labels each finding_id
    labels = config.labels_path
    for number, row in enumerate(read_rows(labels, reads.file(labels)[0]), 1):
        try:
            truth = ev.GroundTruth.from_dict(row)
            if truth.finding_id in row_of_id:
                raise ValueError(f"finding_id {truth.finding_id!r} is already labelled "
                                 f"at row {row_of_id[truth.finding_id]}")
        except ValueError as exc:
            raise ValueError(f"labels file {labels}, row {number}: {exc}") from exc
        if truth.finding_id:
            row_of_id[truth.finding_id] = number
        truths.append(truth)

    findings, results = reads["findings.jsonl"], reads["adjudications.jsonl"]
    ids = sorted(f.finding_id for f in findings)
    reports: dict[str, ev.EvalReport] = {}
    for mode in config.modes():
        mode_rows = [r for r in results if r.mode == mode]
        if sorted(r.finding_id for r in mode_rows) != ids:
            raise ValueError(f"{config.output_dir / 'adjudications.jsonl'} does not hold one "
                             f"{mode} row per finding of {config.output_dir / 'findings.jsonl'}; "
                             "run adjudicate again")
        reports[mode] = ev.build_report(list(findings), mode_rows, truths, mode)

    both = "BASELINE" in reports and "OPTIMIZED" in reports
    deltas = ev.compare_modes(reports["BASELINE"], reports["OPTIMIZED"]) if both else None
    payload: dict[str, Any] = {"modes": {mode: r.to_dict() for mode, r in reports.items()}}
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


class _Stage(NamedTuple):
    """One row of the stage table."""

    reads: Callable[[RunConfig], Iterable[str]]  # the artifacts it reads
    keys: Callable[[RunConfig, _Reads], dict[str, str]]  # the stamp's other inputs
    body: Callable[..., dict[Path, str]]  # writes the outputs: {path: sha256}
    when: Callable[[RunConfig], bool] = lambda config: True


# The stages in the order they run.
_STAGES = {
    "ingest": _Stage(reads=lambda config: (), keys=lambda config, reads: {
        "sarif": reads.file(config.sarif_path)[1],
        "cwe_map": _sha256_json(config.cwe_map),
    }, body=_ingest),
    "context": _Stage(reads=lambda config: ["findings.jsonl"], keys=_context_keys, body=_context),
    "prompts": _Stage(
        reads=lambda config: ["findings.jsonl", *map(_CONTEXT_FILES.get, config.modes())],
        keys=lambda config, reads: {
            **{f"rubric:{p.name}": reads.file(p)[1]
               for p in sorted(_rubric_dir(config).glob("*.rubric"))},
            "prompt_mode": config.prompt_mode, "budget": str(config.prompt_char_budget),
        }, body=_prompts),
    "adjudicate": _Stage(reads=lambda config: ["prompts.jsonl"], keys=lambda config, reads: {
        "backend": _sha256_json(config.backend._asdict()),
        "max_output_chars": str(config.max_output_chars),
        **({"script": reads.file(Path(config.backend.script_path))[1]}
           if config.backend.kind == "mock" and config.backend.script_path else {}),
    }, body=_adjudicate),
    "evaluate": _Stage(
        reads=lambda config: ["findings.jsonl", "adjudications.jsonl"],
        keys=lambda config, reads: {"labels": reads.file(config.labels_path)[1],
                                    "write_csv": str(config.write_csv)},
        body=_evaluate, when=lambda config: config.labels_path is not None),
}


def _run_stage(name: str, config: RunConfig, resume: bool, **options: Any) -> None:
    """Run the stage ``name`` of ``_STAGES``, its body with ``options``, as
    the module docstring says; any failure is a ``StageError`` naming it."""
    stage = _STAGES[name]
    try:
        previous = _read_stamp(config, name)
        if not stage.when(config):
            _remove_stale_outputs(config, previous, [])
            _stamp_path(config, name).unlink(missing_ok=True)
            return
        reads = _Reads(config, stage.reads(config), previous if resume else None)
        inputs = {**{_ARTIFACTS[read][1]: sha for read, (_, sha) in reads.data.items()},
                  **stage.keys(config, reads)}
        if resume and previous is not None and _stamp_matches(config, previous, inputs):
            return
        config.output_dir.mkdir(parents=True, exist_ok=True)
        outputs = stage.body(config, reads, **options)
        _remove_stale_outputs(config, previous, outputs)
        stamp = {"inputs": inputs, "outputs": {
            str(p.relative_to(config.output_dir)): sha for p, sha in outputs.items()}}
        path = _stamp_path(config, name)
        path.parent.mkdir(exist_ok=True)
        write_file(path, [json.dumps(stamp, indent=2, sort_keys=True) + "\n"])
    except Exception as exc:
        raise StageError(f"stage {name}: {exc}") from exc


def stage_ingest(config: RunConfig, resume: bool = False) -> None:
    _run_stage("ingest", config, resume)


def stage_context(config: RunConfig, resume: bool = False) -> None:
    _run_stage("context", config, resume)


def stage_prompts(config: RunConfig, resume: bool = False) -> None:
    _run_stage("prompts", config, resume)


def stage_adjudicate(
    config: RunConfig, resume: bool = False, sleep: Callable[[float], None] | None = None
) -> None:
    _run_stage("adjudicate", config, resume, sleep=sleep)


def stage_evaluate(config: RunConfig, resume: bool = False) -> None:
    if not _STAGES["evaluate"].when(config):
        raise ConfigError("evaluate requires labels_path in the config")
    _run_stage("evaluate", config, resume)


def run_all(
    config: RunConfig, resume: bool = False, sleep: Callable[[float], None] | None = None
) -> None:
    """Run each stage of ``_STAGES`` in order through the ``stage_<name>``
    this module holds when it is called. One whose ``when`` is false
    (evaluate without labels) has what an earlier run left of it deleted,
    so a report cannot pass for this run's."""
    write_config_echo(config)
    for name, stage in _STAGES.items():
        if not stage.when(config):
            _run_stage(name, config, resume)
        elif name == "adjudicate":
            _module.stage_adjudicate(config, resume, sleep=sleep)
        else:
            getattr(_module, f"stage_{name}")(config, resume)
