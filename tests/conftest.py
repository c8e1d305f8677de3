from __future__ import annotations

from pathlib import Path

import pytest

from sarif_triage.ingest import Finding, canonicalize, parse_sarif

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "sarif-triage",
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("sarif-triage")

FIXTURES = Path(__file__).parent / "fixtures"
JAVA_DIR = FIXTURES / "java"
SARIF_DIR = FIXTURES / "sarif"
OWASP_SRC = FIXTURES / "src_owasp"
GOLDEN_TRACE = FIXTURES / "golden_trace_owasp205.txt"
BOUNDARY_TABLE = FIXTURES / "java_boundaries.json"


@pytest.fixture(scope="session")
def owasp_finding() -> Finding:
    doc = parse_sarif((SARIF_DIR / "owasp205.sarif").read_bytes())
    findings = canonicalize(doc)
    assert len(findings) == 1
    return findings[0]


@pytest.fixture(scope="session")
def minimal_finding() -> Finding:
    doc = parse_sarif((SARIF_DIR / "minimal.sarif").read_bytes())
    findings = canonicalize(doc)
    assert len(findings) == 1
    return findings[0]
