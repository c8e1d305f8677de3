"""Run configuration: the JSON config file, its defaults and its checks.

Standard library only, and no pipeline stage, so a process that only loads
a config (or fails on a bad one) imports nothing else of the package.
Relative paths in the config file (``sarif_path``, ``source_root``,
``output_dir``, ``labels_path``, ``rubric_dir``, ``backend.script_path``)
resolve against the file's directory; an ``output_dir`` given as a flag
override resolves against the working directory. A live backend's endpoint
is checked here, before any stage runs.
"""

from __future__ import annotations

import json
import urllib.parse
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple

if TYPE_CHECKING:
    from .prompts import PromptMode


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

    def modes(self) -> list[PromptMode]:
        from .prompts import PromptMode

        if self.prompt_mode == "BOTH":
            return [PromptMode.BASELINE, PromptMode.OPTIMIZED]
        return [PromptMode(self.prompt_mode)]


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
    """Read a JSON config file and apply flag overrides (flags win). A
    relative ``output_dir`` override is taken from the working directory,
    where the command line that gave it runs."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    merged = dict(data)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = str(Path(value).absolute()) if key == "output_dir" else value
    return config_from_dict(merged, base_dir=path.parent)


def _field_values(
    cls: type, data: Mapping[str, Any], prefix: str = "", **convert: Callable[[Any], Any]
) -> dict[str, Any]:
    """The entries of ``data`` that name fields of the record type ``cls``,
    each passed through ``convert[name]`` when given. Absent keys are left
    out, so ``cls`` supplies its own default. A conversion that fails
    raises ``ConfigError`` naming the key, written ``prefix + name``."""
    values = {name: data[name] for name in cls._fields if name in data}
    for key, value in values.items():
        if key not in convert:
            continue
        try:
            values[key] = convert[key](value)
        except ConfigError:
            raise
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"config key {prefix}{key} has an unusable value: {exc}") from exc
    return values


def _optional_int(value: Any) -> int | None:
    return None if value is None else int(value)


def _boolean(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def config_from_dict(data: Mapping[str, Any], base_dir: Path | None = None) -> RunConfig:
    def resolve(p: str | None) -> Path | None:
        if p is None:
            return None
        candidate = Path(p)
        if not candidate.is_absolute() and base_dir is not None:
            candidate = base_dir / candidate
        return candidate

    for required in ("sarif_path", "source_root", "output_dir"):
        if not data.get(required):
            raise ConfigError(f"config is missing required key: {required}")

    def script_path(value: str | None) -> str | None:
        return str(resolve(value)) if value else value

    def backend(value: Mapping[str, Any] | None) -> BackendConfig:
        return BackendConfig(**_field_values(
            BackendConfig, value or {}, "backend.",
            attempt_cap=int, backoff_base_s=float, script_path=script_path,
            max_prompt_chars=_optional_int,
        ))

    def limits(value: Mapping[str, Any] | None) -> ContextLimits:
        return ContextLimits(**_field_values(
            ContextLimits, value or {}, "limits.", **dict.fromkeys(ContextLimits._fields, int)
        ))

    def cwe_map(value: Mapping[str, Any] | None) -> dict[str, str]:
        return {str(k): str(v) for k, v in (value or {}).items()}

    def upper(value: Any) -> str:
        return str(value).upper()

    config = RunConfig(**_field_values(
        RunConfig, data,
        sarif_path=resolve, source_root=resolve, output_dir=resolve,
        labels_path=resolve, rubric_dir=resolve,
        prompt_mode=upper, baseline_style=upper,
        backend=backend, limits=limits, cwe_map=cwe_map,
        max_output_chars=int, parallelism=int, prompt_char_budget=_optional_int,
        write_csv=_boolean,
    ))
    validate_config(config)
    return config


def validate_config(config: RunConfig) -> None:
    if config.prompt_mode not in ("OPTIMIZED", "BASELINE", "BOTH"):
        raise ConfigError(f"prompt_mode must be OPTIMIZED, BASELINE, or BOTH, got {config.prompt_mode}")
    if config.baseline_style not in ("WINDOW5", "WHOLE_FILE"):
        raise ConfigError(f"baseline_style must be WINDOW5 or WHOLE_FILE, got {config.baseline_style}")
    if config.parallelism < 1:
        raise ConfigError("parallelism must be >= 1")
    if not config.sarif_path.is_file():
        raise ConfigError(f"sarif_path does not exist: {config.sarif_path}")
    if not config.source_root.is_dir():
        raise ConfigError(f"source_root does not exist: {config.source_root}")
    if config.labels_path is not None and not config.labels_path.is_file():
        raise ConfigError(f"labels_path does not exist: {config.labels_path}")
    if config.backend.kind not in ("mock", "live"):
        raise ConfigError(f"backend.kind must be mock or live, got {config.backend.kind}")
    if config.backend.kind == "mock":
        if not config.backend.script_path:
            raise ConfigError("mock backend requires backend.script_path")
        if not Path(config.backend.script_path).is_file():
            raise ConfigError(f"mock script not found: {config.backend.script_path}")
    if config.backend.kind == "live":
        if not config.backend.endpoint:
            raise ConfigError("live backend requires backend.endpoint")
        try:
            parse_endpoint(config.backend.endpoint)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
