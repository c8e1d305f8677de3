"""The run's view of the source tree, and ``read_file``, the pipeline's reader.

Stdlib only, so that the context stamp can hash the files it lists without
loading the extractors. ``context`` re-exports ``SourceSnapshot`` and fills
its method-scan cache.
"""

from __future__ import annotations

import errno
import hashlib
import os
import stat
from typing import Any

# O_NONBLOCK: opening a FIFO for reading would wait for a writer. O_BINARY:
# on Windows, a descriptor opened without it translates line ends.
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_BINARY", 0)
# Where opening finds no file: nothing, a path through a file, a symlink loop,
# a socket, or a name longer than the file system allows.
_NO_FILE = (errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.ENXIO, errno.ENAMETOOLONG)


def read_file(path: str | os.PathLike[str]) -> bytes | None:
    """The bytes of ``path``, or None unless it is a regular file: one open,
    which never waits, and the check made on the descriptor read, so the
    file checked is the file read. Any other error (say, EACCES) raises."""
    try:
        fd = os.open(path, _READ_FLAGS)
    except ValueError:  # a NUL in the path, which names no file
        return None
    except OSError as exc:
        if exc.errno in _NO_FILE:
            return None
        raise
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            return None
        with open(fd, "rb", buffering=0, closefd=False) as fh:
            return fh.read()
    finally:
        os.close(fd)


class SourceSnapshot:
    """Read-only view of the source tree for one run: each file is read,
    hashed and method-scanned at most once, and split into lines only when
    they are first asked for. A URI that lexically leaves ``root`` (an
    absolute path elsewhere, or too many ``..``) reads as missing; symlinks
    are not resolved, so those inside the tree work."""

    def __init__(self, root: str | os.PathLike[str]):
        self.root = os.path.abspath(root)
        self._inside = os.path.normcase(os.path.join(self.root, ""))  # ends in a separator
        self._sha256: dict[str, str | None] = {}  # None: the file is missing
        self._unsplit: dict[str, bytes | None] = {}  # files read whose lines no one asked for yet
        self._lines: dict[str, list[str] | None] = {}
        # One method scan per URI, made and kept by ``context``.
        self.method_scans: dict[str, Any] = {}

    def sha256(self, uri: str) -> str:
        """The file's SHA-256 hex digest, or ``missing``."""
        if uri not in self._sha256:
            path = os.path.abspath(os.path.join(self.root, uri))
            inside = os.path.normcase(path).startswith(self._inside)
            data = self._unsplit[uri] = read_file(path) if inside else None
            self._sha256[uri] = None if data is None else hashlib.sha256(data).hexdigest()
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
