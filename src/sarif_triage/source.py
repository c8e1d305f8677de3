"""The run's view of the source tree.

Stdlib only, so that the context stamp can hash the files it lists without
loading the extractors. ``context`` re-exports ``SourceSnapshot`` and fills
its method-scan cache.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Any


class SourceSnapshot:
    """Read-only view of the source tree for one run: each file is read,
    hashed and method-scanned at most once. A URI that lexically leaves
    ``root`` (an absolute path elsewhere, or too many ``..``) reads as
    missing; symlinks are not resolved, so those inside the tree work."""

    def __init__(self, root: Path | str):
        self.root = os.path.abspath(root)
        self._files: dict[str, tuple[str, list[str]] | None] = {}
        # One method scan per URI, made and kept by ``context``.
        self.method_scans: dict[str, Any] = {}

    def _file(self, uri: str) -> tuple[str, list[str]] | None:
        """The file's SHA-256 hex digest and its lines, or None."""
        if uri not in self._files:
            path = os.path.abspath(os.path.join(self.root, uri))
            if os.path.commonpath([self.root, path]) != self.root or not os.path.isfile(path):
                self._files[uri] = None
            else:
                data = Path(path).read_bytes()
                text = data.decode("utf-8", errors="replace")
                text = text.replace("\r\n", "\n").replace("\r", "\n")
                lines = text.split("\n")
                if lines and lines[-1] == "":
                    lines.pop()  # trailing newline is not an extra line
                self._files[uri] = (hashlib.sha256(data).hexdigest(), lines)
        return self._files[uri]

    def sha256(self, uri: str) -> str:
        file = self._file(uri)
        return "missing" if file is None else file[0]

    def lines(self, uri: str) -> list[str] | None:
        file = self._file(uri)
        return None if file is None else file[1]
