from __future__ import annotations

import ast
import os
import socket

import pytest

from conftest import PATH_SHAPES, SRC, put_shape, python_in_child
from sarif_triage.source import read_file


@pytest.mark.parametrize("shape", PATH_SHAPES)
def test_read_file_returns_bytes_only_for_a_regular_file(tmp_path, shape):
    path = tmp_path / "target"
    put_shape(path, shape, b"bytes\r\n")
    want = b"bytes\r\n" if shape == "file" else None
    if shape == "fifo":
        # Opening a FIFO for reading can wait for a writer forever.
        done = python_in_child("import sys; from sarif_triage.source import read_file; "
                               "print(read_file(sys.argv[1]))", str(path))
        assert (done.returncode, done.stdout, done.stderr) == (0, f"{want}\n", "")
    else:
        assert read_file(path) == want
        assert read_file(str(path)) == want


def test_read_file_finds_no_file_where_no_path_could_name_one(tmp_path, monkeypatch):
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    assert read_file(plain) == b""
    assert read_file(plain / "x") is None  # through a file
    assert read_file(tmp_path) is None  # a directory
    assert read_file(str(plain) + "\0") is None
    assert read_file(tmp_path / ("x" * 300)) is None  # past the name length limit
    monkeypatch.chdir(tmp_path)  # a socket's path is short
    with socket.socket(socket.AF_UNIX) as listener:
        listener.bind("sock")
        assert read_file("sock") is None


@pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                    reason="needs POSIX permissions that bind the process")
def test_read_file_raises_where_a_file_is_there_but_cannot_be_read(tmp_path):
    path = tmp_path / "locked"
    path.write_bytes(b"secret")
    path.chmod(0)
    with pytest.raises(PermissionError):
        read_file(path)


# The functions that read a file themselves: the one reader, and the config
# loader, which keeps ``hashlib`` out of a process that only checks a config.
_READERS = {("source.py", "read_file"), ("config.py", "load_config")}


def _reads(node: ast.AST, function: str = "") -> list[tuple[str, int]]:
    """The enclosing function and line of each read under ``node``: a
    ``read_bytes`` or ``read_text``, or a call of an ``open`` (builtin, ``os``,
    ``io``, ``Path`` or other) whose arguments name no mode that writes,
    creates or appends."""
    found = []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Attribute) and node.attr in ("read_bytes", "read_text"):
        found.append((function, node.lineno))
    if isinstance(node, ast.Call):
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        args = [*node.args, *(k.value for k in node.keywords if k.arg == "mode")]
        modes = [a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        if callee == "open" and not any(set(mode) & set("wax") for mode in modes):
            found.append((function, node.lineno))
    for child in ast.iter_child_nodes(node):
        found += _reads(child, function)
    return found


def test_only_read_file_and_load_config_read_a_file():
    outside, readers = [], set()
    for path in sorted((SRC / "sarif_triage").rglob("*.py")):
        for function, line in _reads(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (path.name, function) in _READERS:
                readers.add((path.name, function))
            else:
                outside.append(f"{path.relative_to(SRC)}:{line} in {function or 'the module'}")
    assert outside == []
    assert readers == _READERS  # the walk sees the reads it lets pass
