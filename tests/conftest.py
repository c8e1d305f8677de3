from __future__ import annotations

import os
import subprocess
import sys
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
SRC = Path(__file__).resolve().parents[1] / "src"


def python_in_child(code: str, *args: str) -> subprocess.CompletedProcess[str]:
    """``code`` run by a child interpreter that imports the package from
    ``src``, with ``args`` as ``sys.argv[1:]``, and killed after 30 s: a read
    that blocks (say, on a FIFO) fails the calling test with
    ``subprocess.TimeoutExpired`` instead of stalling the suite."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=30)


def main_in_child(args: list[str]) -> tuple[int, str]:
    """The exit code and stderr of ``cli.main(args)`` in ``python_in_child``."""
    done = python_in_child("import sys; from sarif_triage.cli import main; "
                           "sys.exit(main(sys.argv[1:]))", *args)
    return done.returncode, done.stderr


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


# The shapes a path can take, each of which but "file" holds no regular file.
PATH_SHAPES = ("file", "missing", "dangling-symlink", "directory", "fifo", "symlink-loop",
               "through-a-file")


def put_shape(path: Path, shape: str, data: bytes) -> None:
    """Give ``path``, which holds nothing, the shape ``shape``: ``data`` as a
    regular file, nothing, a symlink to nothing, a directory, a FIFO, a
    symlink to itself, or a symlink to a path under a regular file (which
    holds ``data`` too). Skips the test where ``os.mkfifo`` is missing."""
    if shape == "file":
        path.write_bytes(data)
    elif shape == "dangling-symlink":
        path.symlink_to(path.with_name("nowhere"))
    elif shape == "directory":
        path.mkdir()
    elif shape == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("os.mkfifo is missing on this platform")
        os.mkfifo(path)
    elif shape == "symlink-loop":
        path.symlink_to(path.name)
    elif shape == "through-a-file":
        plain = path.with_name(f"{path.name}.plain")
        plain.write_bytes(data)
        path.symlink_to(plain / "x")
    else:
        assert shape == "missing", shape
