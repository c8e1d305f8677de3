"""Lexical method-boundary scanner for Java-family sources.

Finds every method and constructor with a brace-delimited body and reports
its name, normalized declaration text, and exact start/end lines. The
scanner is purely lexical and works on tokens, not characters: line and
block comments, text blocks (JEP 378), string and char literals, braces,
parens and semicolons, each found by one regular-expression match. Brace
depth is tracked over those tokens, and line numbers are counted only
where a record needs one. It does not build an AST, so dynamic dispatch,
overload resolution, and exotic grammar corners are out of scope.

Declaration text is collected only at top level and in type bodies,
where a declaration can start. Inside a method body only braces and
parens matter, so one match skips to the next of them. Bodies nested
inside a method body (lambdas, anonymous classes, local classes) never
produce separate records; they belong to the enclosing method.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class MethodRecord(NamedTuple):
    name: str
    signature_line: str  # declaration text, single line, whitespace-normalized
    start_line: int
    end_line: int
    file: str
    signature_end_line: int  # line holding the body's opening brace


class MethodScan(list[MethodRecord]):
    """The ``MethodRecord``s of one file, and ``problems``: each brace the
    scan could not balance, in the order met. Records closed before a
    problem are still there; one it left open is lost."""

    def __init__(self) -> None:
        super().__init__()
        self.problems: list[str] = []


_TYPE_KEYWORDS = {"class", "interface", "enum"}
_NON_METHOD_NAMES = {
    "if", "for", "while", "switch", "catch", "do", "try", "else", "finally",
    "return", "new", "throw", "synchronized", "assert", "case",
}
_IDENT = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
# ``@interface`` declares an annotation type; it is not an annotation.
_ANNOTATION = re.compile(r"@\s*(?!interface(?![A-Za-z0-9_$]))[A-Za-z_$][A-Za-z0-9_$.]*")
_TRAILING_IDENT = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*$")
# Comments and literals, whose braces and parens do not count. One left
# open runs to the end of the file.
_OPAQUE = (
    r"//[^\n]*"
    r"|/\*[\s\S]*?(?:\*/|\Z)"
    r'|"""(?:[^"\\]|\\[\s\S]?|"(?!""))*(?:"""|\Z)'
    r'|"[^"\\]*(?:\\[\s\S]?[^"\\]*)*(?:"|\Z)'
    r"|'[^'\\]*(?:\\[\s\S]?[^'\\]*)*(?:'|\Z)"
)
# Where a declaration can start, every token counts.
_TOKEN = re.compile(_OPAQUE + r"|[{}();]")
# In a method body only braces and parens change the scan's state, so this
# skips, in one match, everything up to the next one: code, comments,
# literals, and paren groups with no paren, brace, quote or slash inside.
_BODY_SKIP = re.compile(r"(?:[^/\"'{}()]+|/(?![/*])|" + _OPAQUE + r"""|\([^(){}"'/]*\))*""")

# Scanner contexts: what kind of brace-delimited region we are inside.
_TYPE = "type"
_METHOD = "method"
_BLOCK = "block"


def _normalize_signature(raw: str) -> str:
    sig = " ".join(raw.split())
    return sig.replace("( ", "(").replace(" )", ")")


def _strip_leading_annotations(sig: str) -> str:
    """Drop leading annotations (with optional argument lists) from a
    declaration so the remaining text starts at the modifiers."""
    rest = sig.lstrip()
    while True:
        m = _ANNOTATION.match(rest)
        if m is None:
            return rest
        tail = rest[m.end():].lstrip()
        if tail.startswith("("):
            depth = 0
            for i, ch in enumerate(tail):
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        tail = tail[i + 1:].lstrip()
                        break
            else:
                return tail  # unterminated annotation args; give up stripping
        rest = tail


def _tokens_before_paren(body: str) -> list[str]:
    idx = body.find("(")
    head = body if idx < 0 else body[:idx]
    return _IDENT.findall(head)


def _is_type_declaration(body: str) -> bool:
    if body.startswith("@interface") or body.startswith("@ interface"):
        return True
    tokens = _tokens_before_paren(body)
    if not _TYPE_KEYWORDS.isdisjoint(tokens):
        return True
    # `record Point(...)` is a type; `Record record(...)` is a method named
    # record, so only a non-final `record` token marks a declaration.
    if "record" in tokens[:-1]:
        return True
    return False


def _method_name(body: str) -> str | None:
    """The declared name when ``body``, a declaration that is not a type
    and has no leading annotations, reads as a method or constructor."""
    paren = body.find("(")
    if paren < 0 or "=" in body[:paren]:
        return None  # no parameter list, or a field or variable initializer
    m = _TRAILING_IDENT.search(body[:paren].rstrip())
    if m is None or m.group() in _NON_METHOD_NAMES:
        return None
    return m.group()


def locate_methods(source_text: str, file: str) -> MethodScan:
    """Scan ``source_text`` and return every method/constructor record,
    with a problem for each unmatched closing brace and one for a file
    that ends at nonzero brace depth."""
    text = source_text.replace("\r\n", "\n").replace("\r", "\n")
    records = MethodScan()
    # One entry per open brace block; a method's holds its name, signature,
    # first line and the line of its opening brace.
    stack: list[tuple[str, tuple[str, str, int, int] | None]] = []
    declaring = True  # at top level or in a type body
    # The declaration read since the last `;`, `{` or `}`, kept only while
    # declaring: code between tokens, literals verbatim, each block comment
    # as one space. `pending_start` is the offset of its first non-space.
    pending: list[str] = []
    pending_start: int | None = None
    paren_depth = 0  # parens since the last `;`, `{` or `}` (annotation args)
    expr_brace_depth = 0  # braces inside those parens, e.g. @Foo({"a"})
    pos = 0  # where the next token search starts
    line, counted = 1, 0  # the line at offset `counted`; offsets only grow

    def line_at(offset: int) -> int:
        nonlocal line, counted
        line += text.count("\n", counted, offset)
        counted = offset
        return line

    size = len(text)
    while True:
        if declaring:
            match = _TOKEN.search(text, pos)
            if match is None:
                break
            at = match.start()
            if at > pos:
                code = text[pos:at]
                if pending_start is None and not code.isspace():
                    pending_start = at - len(code.lstrip())
                pending.append(code)
            pos = match.end()
        else:
            at = _BODY_SKIP.match(text, pos).end()
            if at == size:
                break
            pos = at + 1
        kind = text[at]

        if kind == "(":
            paren_depth += 1
        elif kind == ")":
            if paren_depth:
                paren_depth -= 1
        elif kind == ";":  # seen only while declaring
            if paren_depth == 0:
                pending.clear()
                pending_start = None
                continue
        elif kind == "{":
            if paren_depth:
                expr_brace_depth += 1
            else:
                opened: tuple[str, tuple[str, str, int, int] | None] = (_BLOCK, None)
                if declaring:
                    sig = _normalize_signature("".join(pending))
                    body = _strip_leading_annotations(sig)
                    if _is_type_declaration(body):
                        opened = (_TYPE, None)
                    elif stack and (name := _method_name(body)) is not None:
                        first = line_at(at if pending_start is None else pending_start)
                        opened = (_METHOD, (name, sig, first, line_at(at)))
                    pending.clear()
                    pending_start = None
                stack.append(opened)
                declaring = opened[0] == _TYPE
                continue
        elif kind == "}":
            if expr_brace_depth:
                expr_brace_depth -= 1
            else:
                if stack:
                    _, method = stack.pop()
                    declaring = not stack or stack[-1][0] == _TYPE
                    if method is not None:
                        name, signature, first, brace_line = method
                        records.append(MethodRecord(
                            name=name,
                            signature_line=signature,
                            start_line=first,
                            end_line=line_at(at),
                            file=file,
                            signature_end_line=brace_line,
                        ))
                else:
                    records.problems.append(f"{file}:{line_at(at)}: unmatched closing brace")
                pending.clear()
                pending_start = None
                paren_depth = 0
                continue
        elif kind == "/":  # a comment, seen only while declaring
            if text[at + 1] == "*":
                pending.append(" ")
            continue
        # A literal, a paren, or a `{`, `}` or `;` inside parens: part of
        # the declaration text.
        if declaring:
            if pending_start is None:
                pending_start = at
            pending.append(match.group())

    if stack:
        records.problems.append(f"{file}: file ends inside {len(stack)} unclosed brace block(s)")
    records.sort(key=lambda r: (r.start_line, r.end_line))
    return records


def enclosing_method(
    records: list[MethodRecord], line: int
) -> MethodRecord | None:
    """Innermost method record whose line span contains ``line``."""
    best: MethodRecord | None = None
    for rec in records:
        if rec.start_line <= line <= rec.end_line:
            if best is None or (rec.end_line - rec.start_line) < (
                best.end_line - best.start_line
            ):
                best = rec
    return best
