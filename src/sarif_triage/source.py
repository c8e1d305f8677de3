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
    hashed and method-scanned at most once, and split into lines only when
    they are first asked for. A URI that lexically leaves ``root`` (an
    absolute path elsewhere, or too many ``..``) reads as missing; symlinks
    are not resolved, so those inside the tree work."""

    def __init__(self, root: Path | str):
        self.root = os.path.abspath(root)
        self._sha256: dict[str, str | None] = {}  # None: the file is missing
        self._unsplit: dict[str, bytes] = {}  # files read whose lines no one asked for yet
        self._lines: dict[str, list[str] | None] = {}
        # One method scan per URI, made and kept by ``context``.
        self.method_scans: dict[str, Any] = {}

    def sha256(self, uri: str) -> str:
        """The file's SHA-256 hex digest, or ``missing``."""
        if uri not in self._sha256:
            path = os.path.abspath(os.path.join(self.root, uri))
            if os.path.commonpath([self.root, path]) != self.root or not os.path.isfile(path):
                self._sha256[uri] = None
            else:
                data = self._unsplit[uri] = Path(path).read_bytes()
                self._sha256[uri] = hashlib.sha256(data).hexdigest()
        return self._sha256[uri] or "missing"

    def lines(self, uri: str) -> list[str] | None:
        """The file's lines, or None when it is missing."""
        if uri not in self._lines:
            self.sha256(uri)  # reads the file, once
            data = self._unsplit.pop(uri, None)
            if data is None:
                self._lines[uri] = None
            else:
                text = data.decode("utf-8", errors="replace")
                lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
                if lines and lines[-1] == "":
                    lines.pop()  # trailing newline is not an extra line
                self._lines[uri] = lines
        return self._lines[uri]
