"""Differential test: the token scanner against the frozen character
scanner it replaced (``char_scanner_oracle``). On every source without a
Java text block the two must return the same records and emit the same
warnings."""

from __future__ import annotations

import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import char_scanner_oracle  # noqa: E402
from sarif_triage import methods  # noqa: E402


def _scan(module, source: str):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = module.locate_methods(source, "Gen.java")
    rows = [
        (r.name, r.signature_line, r.start_line, r.end_line, r.file, r.signature_end_line)
        for r in records
    ]
    return rows, [(type(w.message).__name__, str(w.message)) for w in caught]


def _assert_same(source: str) -> None:
    assert '"""' not in source
    assert _scan(methods, source) == _scan(char_scanner_oracle, source)


# --------------------------------------------------------------------------
# Java-shaped sources

_NAME = st.sampled_from(["a", "run", "value", "get", "record", "x1", "$y", "_z", "Foo"])
_STRING = st.lists(
    st.sampled_from(["{", "}", "(", ")", ";", '\\"', "'", "//", "/*", "*/", "a", " ",
                     "\\\\", "\\n", "@"]),
    max_size=6,
).map(lambda parts: '"' + "".join(parts) + '"')
_CHAR = st.sampled_from(["'{'", "'}'", "'\"'", "'\\''", "'('", "')'", "';'", "'a'",
                         "'\\\\'", "'/'"])
_COMMENT = st.sampled_from([
    "// {\n", "// } unmatched \" '\n", "/* { */", "/* } ( */", "/*\n * } {\n */",
    "/** @return {@code x} */", "/*/ } */", "/* ) */", "// ) {\n",
])
_SEP = st.sampled_from([" ", "\n", "\n\n", "\t", "\n    "]) | _COMMENT.map(lambda c: f" {c} ")
_ANNOTATION = st.sampled_from([
    "@Override", "@Deprecated", '@SuppressWarnings("unchecked")',
    '@SuppressWarnings({"a", "}"})', "@Foo(value = {1, 2})", "@Bar({})",
    "@Baz(x = ')', y = \"(\")",
])
_LITERAL = _STRING | _CHAR | st.sampled_from(["1", "x", "null", "n + 1"])


def _join(draw, parts) -> str:
    return "".join(part + draw(_SEP) for part in parts)


@st.composite
def _statements(draw, depth: int = 0) -> str:
    count = draw(st.integers(0, 3))
    out = []
    for _ in range(count):
        choice = draw(st.integers(0, 9 if depth < 2 else 3))
        lit = draw(_LITERAL)
        if choice == 0:
            out.append(f"int v = {lit};")
        elif choice == 1:
            out.append(f"call({draw(_STRING)},{draw(_SEP)}{draw(_CHAR)}, f(a{draw(_SEP)}b));")
        elif choice == 2:
            out.append(draw(_COMMENT))
        elif choice == 3:
            out.append(f'String[] arr = {{"a", {lit}}};')
        elif choice == 4:
            out.append(f"if ({lit} != null) {{ {draw(_statements(depth + 1))} }} "
                       f"else {{ {draw(_statements(depth + 1))} }}")
        elif choice == 5:
            out.append(f"xs.forEach(x -> {{ {draw(_statements(depth + 1))} }});")
        elif choice == 6:
            out.append(
                "Runnable r = new Runnable() {"
                + draw(_SEP)
                + f"public void run() {{ {draw(_statements(depth + 1))} }}"
                + draw(_SEP) + "};"
            )
        elif choice == 7:
            out.append(f"for (int i = 0; i < n; i++) {{ {draw(_statements(depth + 1))} }}")
        elif choice == 8:
            out.append(f"submit(new Task() {{ void go() {{ {draw(_statements(depth + 1))} }} }});")
        else:
            out.append(f"class Local {{ int m() {{ {draw(_statements(depth + 1))} return 0; }} }}")
    return _join(draw, out)


@st.composite
def _method(draw) -> str:
    annotations = draw(st.lists(_ANNOTATION, max_size=2))
    modifiers = draw(st.sampled_from(["", "public ", "private static ", "protected final "]))
    ret = draw(st.sampled_from(["void ", "int ", "String ", "java.util.List<String> ",
                                "<T> T ", ""]))
    params = draw(st.sampled_from(["", "int a", "String s, char c", "@Ann({\"x\"}) int q"]))
    throws = draw(st.sampled_from(["", " throws Exception"]))
    # A block comment between two words still separates them.
    gap = draw(st.sampled_from([" ", "\n", "/**/", "/*}*/"]))
    head = _join(draw, annotations) + modifiers + ret.rstrip() + gap + draw(_NAME)
    return (head + draw(_SEP) + f"({params})" + throws + draw(_SEP)
            + "{" + draw(_SEP) + draw(_statements()) + "}")


@st.composite
def _members(draw, depth: int = 0) -> str:
    count = draw(st.integers(0, 4))
    out = []
    for _ in range(count):
        choice = draw(st.integers(0, 8 if depth < 2 else 4))
        if choice in (0, 1):
            out.append(draw(_method()))
        elif choice == 2:
            out.append(f"{draw(_ANNOTATION)} private String f = {draw(_LITERAL)};")
        elif choice == 3:
            out.append(draw(_COMMENT))
        elif choice == 4:
            out.append(f"abstract void {draw(_NAME)}(int x);")
        elif choice == 5:
            out.append(f"static {{ {draw(_statements(1))} }}")
        elif choice == 6:
            out.append(draw(_type(depth + 1)))
        elif choice == 7:
            out.append(f"{{ {draw(_statements(1))} }}")
        else:
            out.append(f"Runnable task = () -> {{ {draw(_statements(1))} }};")
    return _join(draw, out)


@st.composite
def _type(draw, depth: int = 0) -> str:
    annotation = draw(st.sampled_from(["", "@Entity ", '@Table(name = "t{") ']))
    kind = draw(st.sampled_from([
        "class", "final class", "interface", "enum", "record", "@interface",
    ]))
    name = draw(st.sampled_from(["Gen", "Inner", "Point"]))
    header = f"{annotation}public {kind} {name}"
    if kind == "record":
        header += "(int x, String y)"
    body = draw(_members(depth))
    if kind == "enum":
        body = "A, B(\"{\"), C { void m() { } };" + draw(_SEP) + body
    return header + draw(_SEP) + "{" + draw(_SEP) + body + "}"


@st.composite
def _java_source(draw) -> str:
    parts = ["package gen;", "import java.util.*;", draw(_type())]
    if draw(st.booleans()):
        parts.append(draw(_type()))
    source = _join(draw, parts)
    endings = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    if endings == "mixed":
        lines = source.split("\n")
        picks = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                              max_size=len(lines)))
        return "".join(line + end for line, end in zip(lines, picks))
    return source.replace("\n", endings)


@given(_java_source())
def test_token_scanner_matches_character_scanner_on_java_sources(source):
    _assert_same(source)


# --------------------------------------------------------------------------
# Broken sources: the Java-shaped ones with stray braces, parens, quotes and
# comment markers spliced in, so braces go unbalanced and literals and
# comments run on. Nothing is spliced in after a backslash, so no backslash
# stands before a line break: the character scanner lost count of such a
# line inside a literal.

_SPLICE = st.sampled_from(["{", "}", "(", ")", ";", '"', "'", "/*", "*/", "//", "\n", "@A({",
                           "void f() {", "class C {"])


def _without_text_blocks(source: str) -> str:
    while '"""' in source:
        source = source.replace('"""', '" "')
    return source


@st.composite
def _broken_source(draw) -> str:
    source = draw(_java_source())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(source)))
        if at and source[at - 1] == "\\":
            continue
        source = source[:at] + draw(_SPLICE) + source[at:]
    return _without_text_blocks(source)


@given(_broken_source())
# A stray literal opens the declaration buffer, so the method starts there.
@example("class A {\n'{'\nint f() {\n}\n}\n")
def test_token_scanner_matches_character_scanner_on_broken_sources(source):
    _assert_same(source)
