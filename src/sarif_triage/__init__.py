"""sarif_triage: LLM-adjudicated triage of SARIF static-analysis alerts.

Pipeline: parse SARIF results into canonical findings, slice the code
context along each dataflow trace, compile deterministic CWE-aware prompts,
adjudicate through a pluggable model backend, and score verdicts against
ground truth.
"""

from .adjudicate import (
    Adjudication,
    AdjudicationResult,
    AuditRecord,
    BadEnum,
    Confidence,
    MissingField,
    NotJson,
    Verdict,
    adjudicate_all,
    validate_response,
)
from .backend import (
    Backend,
    BackendReply,
    BackendRequest,
    ContextOverflow,
    Exhausted,
    HttpBackend,
    MockBackend,
    RateLimited,
    RetryPolicy,
    TransportError,
    send,
)
from .context import (
    BaselineMode,
    CodeContext,
    ContextLimits,
    ContextSegment,
    SegmentReason,
    SourceSnapshot,
    extract_baseline_context,
    extract_context,
)
from .evaluate import (
    ConfusionCounts,
    EvalReport,
    GroundTruth,
    Label,
    MismatchedSets,
    Outcome,
    build_report,
    compare_modes,
    f1,
    score,
)
from .ingest import (
    CodeLocation,
    Finding,
    MalformedJson,
    NotSarif,
    SarifDocument,
    StepKind,
    TraceStep,
    canonicalize,
    finding_id,
    parse_sarif,
)
from .methods import MethodRecord, UnbalancedBraces, locate_methods
from .prompts import (
    AnnotatedTrace,
    PromptBundle,
    PromptMode,
    compile_prompt,
    render_trace,
)
from .rubrics import InvalidRubric, Rubric, RubricTag, load_rubrics, rubric_for

__version__ = "0.1.0"
