"""Reference oracle: the character-at-a-time method scanner, frozen.

This is the scanner ``sarif_triage.methods.locate_methods`` replaced, kept
verbatim below this docstring so the differential test in
``test_methods_differential.py`` can check that the token scanner returns the same
records and warnings on every source without a Java text block. Nothing
under ``src/`` imports it.

Original module docstring:

Finds every method and constructor with a brace-delimited body and reports
its name, normalized declaration text, and exact start/end lines. The
scanner is purely lexical: it tracks line and block comments, string and
char literals, and brace depth. It does not build an AST, so dynamic
dispatch, overload resolution, and exotic grammar corners are out of scope.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass


class UnbalancedBraces(Warning):
    """Emitted when a file ends at nonzero brace depth. Methods closed
    before the imbalance are still returned."""


@dataclass(frozen=True)
class MethodRecord:
    name: str
    signature_line: str  # declaration text, single line, whitespace-normalized
    start_line: int
    end_line: int
    file: str
    signature_end_line: int  # line holding the body's opening brace

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "signature_line": self.signature_line,
            "start_line": self.start_line,
            "end_line": self.end_line,
            "file": self.file,
        }


_TYPE_KEYWORDS = {"class", "interface", "enum"}
_NON_METHOD_NAMES = {
    "if", "for", "while", "switch", "catch", "do", "try", "else", "finally",
    "return", "new", "throw", "synchronized", "assert", "case",
}
_IDENT = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_ANNOTATION = re.compile(r"@\s*[A-Za-z_$][A-Za-z0-9_$.]*")

# Scanner contexts: what kind of brace-delimited region we are inside.
_TOP = "top"
_TYPE = "type"
_METHOD = "method"
_BLOCK = "block"


def _normalize_signature(raw: str) -> str:
    sig = re.sub(r"\s+", " ", raw).strip()
    sig = sig.replace("( ", "(").replace(" )", ")")
    return sig


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
    if any(t in _TYPE_KEYWORDS for t in tokens):
        return True
    # `record Point(...)` is a type; `Record record(...)` is a method named
    # record, so only a non-final `record` token marks a declaration.
    if "record" in tokens[:-1]:
        return True
    return False


def _method_signature(buf: str) -> tuple[str, str] | None:
    """Return (name, normalized signature) when ``buf`` reads as a method or
    constructor declaration, else None."""
    sig = _normalize_signature(buf)
    if not sig:
        return None
    body = _strip_leading_annotations(sig)
    if not body:
        return None
    if _is_type_declaration(body):
        return None
    paren = body.find("(")
    if paren < 0:
        return None
    if "=" in body[:paren]:
        return None  # field or variable initializer
    head = body[:paren].rstrip()
    m = re.search(r"([A-Za-z_$][A-Za-z0-9_$]*)$", head)
    if m is None:
        return None
    name = m.group(1)
    if name in _NON_METHOD_NAMES:
        return None
    return name, sig


def locate_methods(source_text: str, file: str) -> list[MethodRecord]:
    """Scan ``source_text`` and return every method/constructor record.

    Emits an ``UnbalancedBraces`` warning when the file ends at nonzero
    brace depth; records closed before that point are still returned.
    """
    text = source_text.replace("\r\n", "\n").replace("\r", "\n")
    records: list[MethodRecord] = []
    stack: list[tuple[str, dict | None]] = []
    pending: list[str] = []
    pending_start_line: int | None = None
    paren_depth = 0  # parens inside the pending declaration (annotation args)
    expr_brace_depth = 0  # braces inside those parens, e.g. @Foo({"a"})

    i = 0
    line = 1
    n = len(text)
    state = "code"

    def clear_pending() -> None:
        nonlocal pending_start_line, paren_depth
        pending.clear()
        pending_start_line = None
        paren_depth = 0

    def push_char(ch: str) -> None:
        nonlocal pending_start_line
        if pending_start_line is None and not ch.isspace():
            pending_start_line = line
        pending.append(ch)

    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""

        if state == "line_comment":
            if ch == "\n":
                state = "code"
                line += 1
                push_char(" ")
            i += 1
            continue
        if state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
                push_char(" ")
                continue
            if ch == "\n":
                line += 1
            i += 1
            continue
        if state == "string":
            # Literal text stays part of the pending declaration buffer, but
            # braces inside it are never interpreted.
            if ch == "\\":
                pending.append(ch)
                if nxt:
                    pending.append(nxt)
                i += 2
                continue
            if ch == '"':
                state = "code"
            elif ch == "\n":
                line += 1  # unterminated string literal; keep line count sane
            pending.append(ch)
            i += 1
            continue
        if state == "char":
            if ch == "\\":
                pending.append(ch)
                if nxt:
                    pending.append(nxt)
                i += 2
                continue
            if ch == "'":
                state = "code"
            elif ch == "\n":
                line += 1
            pending.append(ch)
            i += 1
            continue

        # state == "code"
        if ch == "/" and nxt == "/":
            state = "line_comment"
            i += 2
            continue
        if ch == "/" and nxt == "*":
            state = "block_comment"
            i += 2
            continue
        if ch == '"':
            state = "string"
            push_char('"')
            i += 1
            continue
        if ch == "'":
            state = "char"
            push_char("'")
            i += 1
            continue
        if ch == "\n":
            push_char("\n")
            line += 1
            i += 1
            continue

        if ch == "(":
            paren_depth += 1
            push_char(ch)
            i += 1
            continue
        if ch == ")":
            paren_depth = max(0, paren_depth - 1)
            push_char(ch)
            i += 1
            continue

        if ch == "{":
            if paren_depth > 0:
                # Array-valued annotation argument, e.g. @Foo({"a", "b"}).
                expr_brace_depth += 1
                push_char(ch)
                i += 1
                continue
            ctx = stack[-1][0] if stack else _TOP
            buf = "".join(pending)
            if ctx in (_TOP, _TYPE):
                sig = _method_signature(buf) if ctx == _TYPE else None
                if _is_type_declaration(_strip_leading_annotations(_normalize_signature(buf))):
                    stack.append((_TYPE, None))
                elif sig is not None:
                    name, signature = sig
                    stack.append(
                        (
                            _METHOD,
                            {
                                "name": name,
                                "signature": signature,
                                "start_line": pending_start_line or line,
                                "signature_end_line": line,
                            },
                        )
                    )
                else:
                    stack.append((_BLOCK, None))
            else:
                stack.append((_BLOCK, None))
            clear_pending()
            i += 1
            continue

        if ch == "}":
            if expr_brace_depth > 0:
                expr_brace_depth -= 1
                push_char(ch)
                i += 1
                continue
            if stack:
                ctx, payload = stack.pop()
                if ctx == _METHOD and payload is not None:
                    records.append(
                        MethodRecord(
                            name=payload["name"],
                            signature_line=payload["signature"],
                            start_line=payload["start_line"],
                            end_line=line,
                            file=file,
                            signature_end_line=payload["signature_end_line"],
                        )
                    )
            else:
                warnings.warn(
                    UnbalancedBraces(f"{file}:{line}: unmatched closing brace")
                )
            clear_pending()
            i += 1
            continue

        if ch == ";" and paren_depth == 0:
            clear_pending()
            i += 1
            continue

        push_char(ch)
        i += 1

    if stack:
        warnings.warn(
            UnbalancedBraces(
                f"{file}: file ends inside {len(stack)} unclosed brace block(s)"
            )
        )
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
