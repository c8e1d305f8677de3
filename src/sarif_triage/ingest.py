"""SARIF 2.1.0 ingestion.

Parses analyzer output and canonicalizes every result into a ``Finding``: a
stable-identity record carrying the rule id, a normalized CWE id, the
diagnostic message, the primary location, and the ordered source-to-sink
trace taken from the result's first code flow.

Only ``codeFlows[0].threadFlows[0]`` is consumed; additional flows are
counted in ``Finding.extra_flow_count`` but not otherwise retained.
"""

from __future__ import annotations

import hashlib
import json
import re
import urllib.parse
from enum import Enum
from typing import Any, Iterable, Mapping, NamedTuple


class MalformedJson(ValueError):
    """The input bytes are not valid JSON."""


class NotSarif(ValueError):
    """The input is JSON but not a usable SARIF 2.1.0 document."""


CWE_UNKNOWN = "CWE-UNKNOWN"

_CWE_IN_TAG = re.compile(r"cwe[/-](\d+)", re.IGNORECASE)
_CWE_ID = re.compile(r"^CWE-(\d+)$", re.IGNORECASE)


def normalize_cwe(value: str) -> str:
    """Normalize a CWE spelling to ``CWE-NNN`` with at least three digits.

    Accepts bare numbers ("89"), prefixed ids ("cwe-89"), or analyzer tag
    strings ("external/cwe/cwe-089"). Unrecognizable input degrades to
    ``CWE-UNKNOWN``.
    """
    text = value.strip()
    m = _CWE_ID.match(text)
    if m is None:
        m = _CWE_IN_TAG.search(text)
    if m is None:
        if text.isdigit():
            return f"CWE-{text.zfill(3)}"
        return CWE_UNKNOWN
    return f"CWE-{m.group(1).zfill(3)}"


class StepKind(str, Enum):
    SOURCE = "SOURCE"
    STEP = "STEP"
    SINK = "SINK"


class _Location(NamedTuple):
    uri: str
    start_line: int
    end_line: int
    start_column: int | None = None
    end_column: int | None = None


class CodeLocation(_Location):
    """A physical source location. Lines and columns are 1-based; the end
    column is exclusive, following the SARIF region convention."""

    __slots__ = ()

    def __new__(
        cls,
        uri: str,
        start_line: int,
        end_line: int,
        start_column: int | None = None,
        end_column: int | None = None,
    ) -> "CodeLocation":
        if start_line < 1:
            raise ValueError(f"start_line must be >= 1, got {start_line}")
        if end_line < start_line:
            raise ValueError(f"end_line {end_line} precedes start_line {start_line}")
        return super().__new__(cls, uri, start_line, end_line, start_column, end_column)

    def to_dict(self) -> dict[str, Any]:
        return self._asdict()

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "CodeLocation":
        return cls(
            uri=d["uri"],
            start_line=d["start_line"],
            end_line=d["end_line"],
            start_column=d.get("start_column"),
            end_column=d.get("end_column"),
        )


class TraceStep(NamedTuple):
    """One step of a source-to-sink flow."""

    index: int  # 1-based position in the trace; hides ``tuple.index``
    kind: StepKind
    location: CodeLocation
    step_message: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind.value,
            "location": self.location.to_dict(),
            "step_message": self.step_message,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TraceStep":
        return cls(
            index=d["index"],
            kind=StepKind(d["kind"]),
            location=CodeLocation.from_dict(d["location"]),
            step_message=d.get("step_message", ""),
        )


class Finding(NamedTuple):
    """One canonicalized static-analysis alert."""

    finding_id: str
    rule_id: str
    cwe_id: str
    message: str
    primary_location: CodeLocation
    trace: tuple[TraceStep, ...]
    origin_index: int
    extra_flow_count: int = 0

    def to_dict(self) -> dict[str, Any]:
        # Key order is fixed and documented; findings.jsonl relies on it.
        return {
            "finding_id": self.finding_id,
            "rule_id": self.rule_id,
            "cwe_id": self.cwe_id,
            "message": self.message,
            "primary_location": self.primary_location.to_dict(),
            "trace": [s.to_dict() for s in self.trace],
            "origin_index": self.origin_index,
            "extra_flow_count": self.extra_flow_count,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Finding":
        return cls(
            finding_id=d["finding_id"],
            rule_id=d["rule_id"],
            cwe_id=d["cwe_id"],
            message=d["message"],
            primary_location=CodeLocation.from_dict(d["primary_location"]),
            trace=tuple(TraceStep.from_dict(s) for s in d.get("trace", [])),
            origin_index=d["origin_index"],
            extra_flow_count=d.get("extra_flow_count", 0),
        )


class SarifResult(NamedTuple):
    """One result as read from the document, before it gets its id."""

    rule_id: str
    cwe_id: str | None  # from the run's driver metadata
    message: str
    primary_location: CodeLocation
    trace: tuple[TraceStep, ...]  # from codeFlows[0].threadFlows[0]
    code_flow_count: int


def _normalize_uri(uri: str) -> str:
    uri = uri.replace("\\", "/")
    if uri.startswith("file://"):
        uri = uri[len("file://"):]
    uri = urllib.parse.unquote(uri)  # a URI reference (SARIF 2.1.0 §3.4.3)
    if uri.startswith("./"):
        uri = uri[2:]
    return uri


def _object(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise NotSarif(f"{where} is not an object")
    return value


def _member(obj: Mapping[str, Any], key: str, where: str) -> Mapping[str, Any]:
    """``obj[key]`` when it is an object, ``{}`` when absent or null."""
    value = obj.get(key)
    return {} if value is None else _object(value, f"{where}.{key}")


def _items(obj: Mapping[str, Any], key: str, where: str) -> list[Any]:
    """``obj[key]`` when it is an array, ``[]`` when absent or null."""
    value = obj.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise NotSarif(f"{where}.{key} is not an array")
    return value


def _string(obj: Mapping[str, Any], key: str, where: str) -> str:
    """``obj[key]`` when it is a string, ``""`` when absent."""
    value = obj.get(key, "")
    if not isinstance(value, str):
        raise NotSarif(f"{where}.{key} is not a string")
    return value


def _position(region: Mapping[str, Any], key: str, where: str) -> int | None:
    """``region[key]`` as a 1-based line or column, None when absent."""
    if key not in region:
        return None
    value = region[key]
    # bool is a subclass of int, but ``true`` is not line 1.
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise NotSarif(f"{where}.{key} is not an integer >= 1: {value!r}")
    return value


def _location_from_sarif(obj: Any, where: str) -> CodeLocation:
    phys = _object(obj, where).get("physicalLocation")
    if not isinstance(phys, dict):
        raise NotSarif(f"{where}: missing physicalLocation")
    where = f"{where}.physicalLocation"
    artifact = _member(phys, "artifactLocation", where)
    uri = _string(artifact, "uri", f"{where}.artifactLocation")
    if not uri:
        raise NotSarif(f"{where}: missing artifactLocation.uri")
    region = _member(phys, "region", where)
    where = f"{where}.region"
    start_line = _position(region, "startLine", where)
    if start_line is None:
        raise NotSarif(f"{where}: missing startLine")
    end_line = _position(region, "endLine", where) or start_line
    if end_line < start_line:
        raise NotSarif(f"{where}.endLine {end_line} precedes startLine {start_line}")
    return CodeLocation(
        uri=_normalize_uri(uri),
        start_line=start_line,
        end_line=end_line,
        start_column=_position(region, "startColumn", where),
        end_column=_position(region, "endColumn", where),
    )


def _rule_cwes_from_driver(driver: Mapping[str, Any], where: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for i, rule in enumerate(_items(driver, "rules", where)):
        rule_where = f"{where}.rules[{i}]"
        rule = _object(rule, rule_where)
        rule_id = _string(rule, "id", rule_where)
        if not rule_id:
            continue
        properties = _member(rule, "properties", rule_where)
        for tag in _items(properties, "tags", f"{rule_where}.properties"):
            cwe = normalize_cwe(str(tag))
            if cwe != CWE_UNKNOWN:
                out[rule_id] = cwe
                break
    return out


def _step_kind(index: int, length: int) -> StepKind:
    # Degenerate single-step traces render as SOURCE only.
    if index == 1:
        return StepKind.SOURCE
    if index == length:
        return StepKind.SINK
    return StepKind.STEP


def _trace_step(obj: Any, index: int, length: int, where: str) -> TraceStep:
    location = _member(_object(obj, where), "location", where)
    where += ".location"
    return TraceStep(
        index=index,
        kind=_step_kind(index, length),
        location=_location_from_sarif(location, where),
        step_message=_string(_member(location, "message", where), "text", f"{where}.message"),
    )


def _parse_result(obj: Any, where: str, rule_cwes: Mapping[str, str]) -> SarifResult:
    obj = _object(obj, where)
    rule_id = _string(obj, "ruleId", where)
    if not rule_id:
        raise NotSarif(f"{where}: missing ruleId")
    message = _string(_member(obj, "message", where), "text", f"{where}.message")
    locations = [
        _location_from_sarif(loc, f"{where}.locations[{i}]")
        for i, loc in enumerate(_items(obj, "locations", where))
    ]
    if not locations:
        raise NotSarif(f"{where}: result has no locations")

    code_flows = _items(obj, "codeFlows", where)
    steps: list[Any] = []
    flow_where = f"{where}.codeFlows[0]"
    if code_flows:
        thread_flows = _items(_object(code_flows[0], flow_where), "threadFlows", flow_where)
        if thread_flows:
            flow_where += ".threadFlows[0]"
            steps = _items(_object(thread_flows[0], flow_where), "locations", flow_where)
    return SarifResult(
        rule_id=rule_id,
        cwe_id=rule_cwes.get(rule_id),
        message=message,
        primary_location=locations[0],
        trace=tuple(
            _trace_step(step, j + 1, len(steps), f"{flow_where}.locations[{j}]")
            for j, step in enumerate(steps)
        ),
        code_flow_count=len(code_flows),
    )


def parse_sarif(raw: bytes | str) -> tuple[SarifResult, ...]:
    """Parse a SARIF 2.1.0 document into every run's results, in file order.

    Raises ``MalformedJson`` for byte streams that are not JSON and
    ``NotSarif`` for JSON that violates the SARIF shape this pipeline
    depends on (missing ``runs``, results without ``ruleId`` or locations,
    thread-flow steps without a physical location) or that gives a member
    the wrong type: ``runs``, ``results``, ``locations``, ``codeFlows``,
    ``threadFlows``, a thread flow's ``locations``, ``rules`` and ``tags``
    must be arrays; runs, results, locations, flow steps and rules objects;
    ``uri``, ``ruleId``, a rule's ``id`` and ``message.text`` strings; lines
    and columns integers >= 1 (not booleans), and ``endLine`` no less than
    ``startLine``. The error names the JSON path.
    """
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedJson(f"input is not UTF-8: {exc}") from exc
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # or a number or nest past the decoder's limits
        raise MalformedJson(f"input is not JSON: {exc}") from exc

    if not isinstance(data, dict):
        raise NotSarif("top-level value is not an object")
    if "runs" not in data or not isinstance(data["runs"], list):
        raise NotSarif("missing `runs` array")
    if not isinstance(data.get("version"), str) or not data["version"]:
        raise NotSarif("missing `version` string")

    results: list[SarifResult] = []
    for r, run in enumerate(data["runs"]):
        where = f"runs[{r}]"
        run = _object(run, where)
        driver = _member(_member(run, "tool", where), "driver", f"{where}.tool")
        rule_cwes = _rule_cwes_from_driver(driver, f"{where}.tool.driver")
        results.extend(
            _parse_result(res, f"{where}.results[{i}]", rule_cwes)
            for i, res in enumerate(_items(run, "results", where))
        )
    return tuple(results)


def compute_finding_id(
    rule_id: str,
    primary_location: CodeLocation,
    trace_locations: Iterable[CodeLocation],
    origin_index: int,
) -> str:
    """SHA-256 (lowercase hex) over the canonical identity of a finding:
    rule id, primary location, ordered trace locations, origin index."""
    payload = json.dumps(
        {
            "rule_id": rule_id,
            "primary_location": primary_location.to_dict(),
            "trace": [loc.to_dict() for loc in trace_locations],
            "origin_index": origin_index,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def canonicalize(
    results: Iterable[SarifResult], cwe_map: Mapping[str, str] | None = None
) -> list[Finding]:
    """Canonicalize every result ``parse_sarif`` returned into a ``Finding``.

    One finding per result, in file order. The CWE id is resolved from the
    rule's driver metadata tags, then from ``cwe_map``, else degrades to
    ``CWE-UNKNOWN``; canonicalization never drops a result.
    """
    cwe_map = cwe_map or {}
    findings: list[Finding] = []
    for origin_index, result in enumerate(results):
        cwe = result.cwe_id
        if cwe is None:
            fallback = cwe_map.get(result.rule_id)
            cwe = CWE_UNKNOWN if fallback is None else normalize_cwe(fallback)
        findings.append(
            Finding(
                finding_id=compute_finding_id(
                    result.rule_id,
                    result.primary_location,
                    (s.location for s in result.trace),
                    origin_index,
                ),
                rule_id=result.rule_id,
                cwe_id=cwe,
                message=result.message,
                primary_location=result.primary_location,
                trace=result.trace,
                origin_index=origin_index,
                extra_flow_count=max(0, result.code_flow_count - 1),
            )
        )
    return findings
