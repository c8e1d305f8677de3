"""SARIF 2.1.0 ingestion.

``parse_sarif`` reads every result of analyzer output straight into a
``Finding``: a stable-identity record carrying the rule id, the CWE id its
run's driver tags name (``CWE-UNKNOWN`` when they name none), the diagnostic
message, the primary location, and the ordered source-to-sink trace taken
from the result's first code flow. ``canonicalize`` then applies the run
config's ``cwe_map`` to the findings whose rule the tags left unknown. A
record's fields hold the values its ``findings.jsonl`` row holds; a step's
kind is the upper-case name the row spells.

Only ``codeFlows[0].threadFlows[0]`` is consumed; additional flows are
counted in ``Finding.extra_flow_count`` but not otherwise retained.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import urllib.parse
from typing import Any, Callable, Iterable, Mapping, NamedTuple


class MalformedJson(ValueError):
    """The input bytes are not valid JSON."""


class NotSarif(ValueError):
    """The input is JSON but not a usable SARIF 2.1.0 document."""


CWE_UNKNOWN = "CWE-UNKNOWN"

_CWE_IN_TAG = re.compile(r"cwe[/-](\d+)", re.IGNORECASE | re.ASCII)
_CWE_ID = re.compile(r"^CWE-(\d+)$", re.IGNORECASE | re.ASCII)


def normalize_cwe(value: str) -> str:
    """Normalize a CWE spelling to ``CWE-NNN`` with at least three ASCII
    digits.

    Accepts bare numbers ("89"), prefixed ids ("cwe-89"), or analyzer tag
    strings ("external/cwe/cwe-089"). Unrecognizable input, digits outside
    ASCII included, degrades to ``CWE-UNKNOWN``.
    """
    text = value.strip()
    m = _CWE_ID.match(text)
    if m is None:
        m = _CWE_IN_TAG.search(text)
    if m is None:
        if text.isascii() and text.isdigit():
            return f"CWE-{text.zfill(3)}"
        return CWE_UNKNOWN
    return f"CWE-{m.group(1).zfill(3)}"


_SCALARS = {"str": str, "int": int, "bool": bool, "None": type(None)}


@functools.cache
def _scalar_fields(cls: Any) -> dict[str, tuple[str, tuple[type, ...]]]:
    """Each field of ``cls`` annotated with scalars only (``int``, ``str |
    None``; ``NamedTuple`` keeps the text in a ``ForwardRef``), with that
    text and the JSON value types it admits."""
    fields = {}
    for name, ref in cls.__annotations__.items():
        text = getattr(ref, "__forward_arg__", ref)
        kinds = tuple(map(_SCALARS.get, text.split(" | ")))
        if None not in kinds:
            fields[name] = (text, kinds)
    return fields


def from_row(cls: Any, row: Mapping[str, Any], **nested: Callable[[Any], Any]) -> Any:
    """The ``cls`` record of a JSON row: each field holds the row's value for
    its name, passed through ``nested[name]`` where a field holds records.
    A ``KeyError`` names a key the row lacks, and a ``TypeError`` a scalar
    field whose value is of another type (a JSON ``true`` is no ``int``)."""
    values = {name: row[name] for name in cls._fields}
    for name, (annotation, kinds) in _scalar_fields(cls).items():
        if type(values[name]) not in kinds:
            raise TypeError(f"{cls.__name__}.{name} is {values[name]!r}, not {annotation}")
    return cls(**{**values, **{name: f(values[name]) for name, f in nested.items()}})


class CodeLocation(NamedTuple):
    """A physical source location. Lines and columns are 1-based; the end
    column is exclusive, following the SARIF region convention. The SARIF
    reader refuses a region whose lines are not ``1 <= start <= end``."""

    uri: str
    start_line: int
    end_line: int
    start_column: int | None = None
    end_column: int | None = None


class TraceStep(NamedTuple):
    """One step of a source-to-sink flow."""

    index: int  # 1-based position in the trace; hides ``tuple.index``
    kind: str  # SOURCE (the first step), SINK (the last of several) or STEP
    location: CodeLocation
    step_message: str


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

    def steps(self) -> list[tuple[int | None, CodeLocation]]:
        """The locations a code context reads: each trace step's, with its
        1-based index, or the primary location, with None, when the trace
        is empty."""
        if self.trace:
            return [(step.index, step.location) for step in self.trace]
        return [(None, self.primary_location)]

    def to_dict(self) -> dict[str, Any]:
        # Key order is field order; findings.jsonl relies on it.
        return {
            **self._asdict(),
            "primary_location": self.primary_location._asdict(),
            "trace": [{**s._asdict(), "location": s.location._asdict()} for s in self.trace],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Finding":
        location = functools.partial(from_row, CodeLocation)
        return from_row(cls, d, primary_location=location, trace=lambda steps: tuple(
            from_row(TraceStep, s, location=location) for s in steps))


def normalize_uri(uri: str) -> str:
    """``uri`` as a finding holds it: ``/`` separators, no ``file://`` or
    ``./`` prefix, percent-escapes decoded."""
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
        uri=normalize_uri(uri),
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


def _step_kind(index: int, length: int) -> str:
    # Degenerate single-step traces render as SOURCE only.
    if index == 1:
        return "SOURCE"
    if index == length:
        return "SINK"
    return "STEP"


def _trace_step(obj: Any, index: int, length: int, where: str) -> TraceStep:
    location = _member(_object(obj, where), "location", where)
    where += ".location"
    return TraceStep(
        index=index,
        kind=_step_kind(index, length),
        location=_location_from_sarif(location, where),
        step_message=_string(_member(location, "message", where), "text", f"{where}.message"),
    )


def _parse_result(obj: Any, where: str, rule_cwes: Mapping[str, str], origin_index: int) -> Finding:
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
    trace = tuple(
        _trace_step(step, j + 1, len(steps), f"{flow_where}.locations[{j}]")
        for j, step in enumerate(steps)
    )
    return Finding(
        finding_id=compute_finding_id(
            rule_id, locations[0], (s.location for s in trace), origin_index
        ),
        rule_id=rule_id,
        cwe_id=rule_cwes.get(rule_id, CWE_UNKNOWN),
        message=message,
        primary_location=locations[0],
        trace=trace,
        origin_index=origin_index,
        extra_flow_count=max(0, len(code_flows) - 1),
    )


def parse_sarif(raw: bytes) -> tuple[Finding, ...]:
    """Parse a SARIF 2.1.0 document into one ``Finding`` for each result of
    every run, in file order, its ``origin_index`` counted across runs; a
    UTF-8 byte-order mark that opens the bytes is skipped.

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
    try:
        data = json.loads(raw.decode("utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise MalformedJson(f"input is not UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # or a number or nest past the decoder's limits
        raise MalformedJson(f"input is not JSON: {exc}") from exc

    if not isinstance(data, dict):
        raise NotSarif("top-level value is not an object")
    if "runs" not in data or not isinstance(data["runs"], list):
        raise NotSarif("missing `runs` array")
    if not isinstance(data.get("version"), str) or not data["version"]:
        raise NotSarif("missing `version` string")

    findings: list[Finding] = []
    for r, run in enumerate(data["runs"]):
        where = f"runs[{r}]"
        run = _object(run, where)
        driver = _member(_member(run, "tool", where), "driver", f"{where}.tool")
        rule_cwes = _rule_cwes_from_driver(driver, f"{where}.tool.driver")
        for i, res in enumerate(_items(run, "results", where)):
            findings.append(_parse_result(res, f"{where}.results[{i}]", rule_cwes, len(findings)))
    return tuple(findings)


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
            "primary_location": primary_location._asdict(),
            "trace": [loc._asdict() for loc in trace_locations],
            "origin_index": origin_index,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def canonicalize(
    findings: Iterable[Finding], cwe_map: Mapping[str, str] | None = None
) -> list[Finding]:
    """Every finding ``parse_sarif`` returned, in file order, with the CWE id
    ``cwe_map`` names for its rule when the driver tags named none. A rule
    neither names stays ``CWE-UNKNOWN``; no finding is dropped."""
    cwe_map = cwe_map or {}
    return [
        finding._replace(cwe_id=normalize_cwe(cwe_map[finding.rule_id]))
        if finding.cwe_id == CWE_UNKNOWN and finding.rule_id in cwe_map
        else finding
        for finding in findings
    ]
