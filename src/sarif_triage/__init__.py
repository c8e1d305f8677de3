"""sarif_triage: LLM-adjudicated triage of SARIF static-analysis alerts.

Pipeline: parse SARIF results into canonical findings, slice the code
context along each dataflow trace, compile deterministic CWE-aware prompts,
adjudicate through a pluggable model backend, and score verdicts against
ground truth.

The names below are re-exported lazily (PEP 562): ``import sarif_triage``
loads no submodule, and each name imports its home module on first use, so
a command pays only for the stages it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "adjudicate": (
        "Adjudication", "AdjudicationResult", "AuditRecord", "BadEnum", "Confidence",
        "MissingField", "NotJson", "Verdict", "adjudicate_all", "validate_response",
    ),
    "backend": (
        "Backend", "BackendReply", "BackendRequest", "ContextOverflow", "Exhausted",
        "HttpBackend", "MockBackend", "RateLimited", "RetryPolicy", "TransportError", "send",
    ),
    "config": ("ContextLimits",),
    "context": (
        "BaselineMode", "CodeContext", "ContextSegment", "SegmentReason", "SourceSnapshot",
        "extract_baseline_context", "extract_context",
    ),
    "evaluate": (
        "ConfusionCounts", "EvalReport", "GroundTruth", "Label", "MismatchedSets", "Outcome",
        "build_report", "compare_modes", "f1", "score",
    ),
    "ingest": (
        "CodeLocation", "Finding", "MalformedJson", "NotSarif", "SarifDocument", "StepKind",
        "TraceStep", "canonicalize", "finding_id", "parse_sarif",
    ),
    "methods": ("MethodRecord", "UnbalancedBraces", "locate_methods"),
    "prompts": ("AnnotatedTrace", "PromptBundle", "PromptMode", "compile_prompt", "render_trace"),
    "rubrics": ("InvalidRubric", "Rubric", "RubricTag", "load_rubrics", "rubric_for"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
