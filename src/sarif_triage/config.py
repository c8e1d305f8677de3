"""Run configuration: the JSON config file, its defaults and its checks.

Standard library only, and no pipeline stage, so a process that only loads
a config (or fails on a bad one) imports nothing else of the package.
``_FIELDS`` gives each key its JSON type, conversion and bound; a "path"
is a string resolved against the config file's directory (an ``output_dir``
flag override, against the working directory). A key the table does not
name, or a value that breaks its entry, is a ``ConfigError`` naming the key.
``_check`` then checks what spans keys or reads the file system, before
any stage runs or any file is written.
"""

from __future__ import annotations

import json
import math
import os
import urllib.parse
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple


class ConfigError(ValueError):
    """Unusable run configuration; maps to exit code 2."""


class ContextLimits(NamedTuple):
    max_total_lines: int = 400
    # Intermediate spans longer than the threshold are cut to head + tail,
    # with the elided count recorded on the head segment.
    intermediate_elide_threshold: int = 60
    elide_head_lines: int = 20
    elide_tail_lines: int = 20


class BackendConfig(NamedTuple):
    kind: str = "mock"  # "mock" or "live"
    endpoint: str = ""
    model: str = "mock"
    key_env: str = "SARIF_TRIAGE_API_KEY"
    script_path: str | None = None
    max_prompt_chars: int | None = None
    attempt_cap: int = 4
    backoff_base_s: float = 0.5


class RunConfig(NamedTuple):
    sarif_path: Path
    source_root: Path
    output_dir: Path
    prompt_mode: str = "OPTIMIZED"  # OPTIMIZED | BASELINE | BOTH
    baseline_style: str = "WINDOW5"  # WINDOW5 | WHOLE_FILE
    backend: BackendConfig = BackendConfig()
    limits: ContextLimits = ContextLimits()
    prompt_char_budget: int | None = None
    max_output_chars: int = 16384
    parallelism: int = 1
    labels_path: Path | None = None
    rubric_dir: Path | None = None
    # One default dict serves every config that names no map: read it only.
    cwe_map: dict[str, str] = {}
    write_csv: bool = False

    def modes(self) -> tuple[str, ...]:
        """The names of the prompt modes the run compiles, in report order."""
        return ("BASELINE", "OPTIMIZED") if self.prompt_mode == "BOTH" else (self.prompt_mode,)


# The Python types ``json`` reads each type as; a number may be a string.
_JSON_TYPES = {"integer": (int, str), "number": (int, float, str), "string": (str,),
               "path": (str,), "boolean": (bool,), "object": (dict,)}


class _Field(NamedTuple):
    type: str  # a key of _JSON_TYPES
    convert: Callable[[Any], Any] | None = None  # after path resolution; a record reads its table
    bound: float | tuple[str, ...] | None = None  # a finite minimum, or the allowed values


_STRING = _Field("string")
_PATH = _Field("path")
_COUNT = _Field("integer", int, 1)
_FIELDS: dict[type, dict[str, _Field]] = {
    ContextLimits: dict.fromkeys(ContextLimits._fields, _COUNT),
    BackendConfig: {
        "kind": _Field("string", bound=("mock", "live")),
        "endpoint": _STRING, "model": _STRING, "key_env": _STRING,
        "script_path": _Field("path", str),
        "max_prompt_chars": _COUNT, "attempt_cap": _COUNT,
        "backoff_base_s": _Field("number", float, 0),
    },
    RunConfig: {
        "sarif_path": _PATH, "source_root": _PATH, "output_dir": _PATH,
        "prompt_mode": _Field("string", str.upper, ("OPTIMIZED", "BASELINE", "BOTH")),
        "baseline_style": _Field("string", str.upper, ("WINDOW5", "WHOLE_FILE")),
        "backend": _Field("object", BackendConfig), "limits": _Field("object", ContextLimits),
        "prompt_char_budget": _COUNT, "max_output_chars": _COUNT, "parallelism": _COUNT,
        "labels_path": _PATH, "rubric_dir": _PATH,
        "cwe_map": _Field("object", lambda rules: {rule: str(cwe) for rule, cwe in rules.items()}),
        "write_csv": _Field("boolean"),
    },
}


def parse_endpoint(endpoint: str) -> urllib.parse.SplitResult:
    """``endpoint`` split into its parts; ``ValueError`` unless it is an
    ``http``/``https`` URL with a host, a valid port and no credentials."""
    url = urllib.parse.urlsplit(endpoint)
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ValueError(f"backend endpoint must be an http(s) URL with a host: {endpoint!r}")
    if url.username is not None:
        raise ValueError("backend endpoint must not carry credentials; use key_env")
    try:
        url.port
    except ValueError as exc:  # not an integer, or outside 0-65535
        raise ValueError(f"backend endpoint has an invalid port: {endpoint!r}") from exc
    return url


def load_config(path: Path | str, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Read a JSON config file and apply flag overrides (flags win; a key
    in a section is written ``backend.kind``). A relative ``output_dir``
    override is taken from the working directory, where the flag was given."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"config file {path} cannot be read as JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        section, _, name = key.rpartition(".")
        if not section:
            data[key] = str(Path(value).absolute()) if key == "output_dir" else value
        elif isinstance(data.setdefault(section, {}), dict):  # else the table names it
            data[section] = {**data[section], name: value}
    return config_from_dict(data, base_dir=path.parent)


def config_from_dict(data: Mapping[str, Any], base_dir: Path | None = None) -> RunConfig:
    config = _record(RunConfig, data, Path(base_dir or ""), "")
    _check(config)
    return config


def _record(cls: type, data: Mapping[str, Any], base_dir: Path, prefix: str) -> Any:
    """``cls`` from the keys of ``data``, each of which its table must name;
    an absent key keeps its default."""
    for name in data:
        if name not in _FIELDS[cls]:
            raise ConfigError(f"config has an unknown key: {prefix}{name}")
    values = {}
    for name, field in _FIELDS[cls].items():
        if name not in cls._field_defaults and not data.get(name):
            raise ConfigError(f"config is missing required key: {prefix}{name}")
        if name in data:
            keep = data[name] is None and cls._field_defaults[name] is None  # a null default
            values[name] = None if keep else _value(field, data[name], base_dir, prefix + name)
    return cls(**values)


def _value(field: _Field, value: Any, base_dir: Path, key: str) -> Any:
    """``value`` converted and checked as ``field`` says."""
    if field.convert in _FIELDS and type(value) is dict:
        return _record(field.convert, value, base_dir, key + ".")
    try:
        if type(value) not in _JSON_TYPES[field.type]:
            raise ValueError(f"expected {field.type}, got {value!r}")
        if field.type == "path" and "\0" in value:
            raise ValueError("a path cannot hold a NUL character")
        if field.type == "path":
            value = base_dir / value
        if field.convert is not None:
            value = field.convert(value)
        if isinstance(field.bound, tuple) and value not in field.bound:
            raise ValueError(f"expected one of {', '.join(field.bound)}, got {value!r}")
        if isinstance(field.bound, (int, float)) and not field.bound <= value < math.inf:
            raise ValueError(f"expected a finite number of at least {field.bound}, got {value!r}")
    except ValueError as exc:
        raise ConfigError(f"config key {key} has an unusable value: {exc}") from exc
    return value


def _check(config: RunConfig) -> None:
    """The checks that span keys or read the file system."""
    if not config.sarif_path.is_file():
        raise ConfigError(f"sarif_path does not exist: {config.sarif_path}")
    if not config.source_root.is_dir():
        raise ConfigError(f"source_root does not exist: {config.source_root}")
    # The nearest path that exists, a dangling symlink included, is where
    # making the directory would start.
    existing = next(p for p in (config.output_dir, *config.output_dir.parents)
                    if os.path.lexists(p))
    if not existing.is_dir():
        raise ConfigError(f"output_dir cannot be made a directory: {existing} is not one")
    if config.labels_path is not None and not config.labels_path.is_file():
        raise ConfigError(f"labels_path does not exist: {config.labels_path}")
    if config.rubric_dir is not None and not (config.rubric_dir / "generic.rubric").is_file():
        raise ConfigError(f"rubric_dir holds no generic.rubric: {config.rubric_dir}")
    limits = config.limits
    if limits.elide_head_lines + limits.elide_tail_lines > limits.intermediate_elide_threshold:
        raise ConfigError("limits.elide_head_lines + limits.elide_tail_lines must not exceed "
                          "limits.intermediate_elide_threshold")
    backend = config.backend
    if backend.kind == "mock" and not (backend.script_path and Path(backend.script_path).is_file()):
        raise ConfigError(f"no mock script at backend.script_path: {backend.script_path}")
    if backend.kind == "live":
        try:
            parse_endpoint(backend.endpoint)
        except ValueError as exc:
            raise ConfigError(f"config key backend.endpoint has an unusable value: {exc}") from exc
