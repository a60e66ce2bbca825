"""``# repro: noqa`` suppression comments.

A finding is suppressed when a comment of the form ::

    something()  # repro: noqa              (suppresses every rule)
    something()  # repro: noqa[SPMD-DIV]    (suppresses one rule)
    something()  # repro: noqa[RNG-GLOBAL, SPMD-DIV] why it is fine

covers the flagged line.  Comments are extracted with :mod:`tokenize`,
so a ``# repro: noqa`` *inside a string literal* is data, not a
suppression.  Each suppression covers the full line span of the
statement carrying it: a noqa on the closing line of a multi-line call
also suppresses the finding reported at the call's first line (findings
are reported at a node's ``lineno``).  For compound statements
(``if``/``for``/``def`` …) only the header lines up to the first body
statement are covered — a noqa on an ``if`` must not blanket its body.

A trailing free-text justification after the bracket is encouraged; it
is preserved on the entry (the self-lint test requires one for the
buffer-safety rules).  :meth:`Suppressions.unused` lists suppressions
that matched no finding, feeding the ``--strict-noqa`` advisory.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = ["Suppressions", "SuppressionEntry", "parse_suppressions",
           "is_suppressed"]

_ALL = "*"
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa"
    r"(?:\s*\[(?P<codes>[A-Za-z0-9_\-,\s]+)\])?"
    r"\s*(?P<justification>.*)$",
)


@dataclass
class SuppressionEntry:
    """One ``# repro: noqa`` comment."""

    line: int                  #: line the comment itself is on
    codes: frozenset[str]      #: rule codes, or {'*'} for all
    lines: frozenset[int]      #: every line this suppression covers
    justification: str = ""    #: free text after the bracket
    used: bool = False

    def matches(self, line: int, code: str) -> bool:
        return line in self.lines and (
            _ALL in self.codes or code.upper() in self.codes
        )


@dataclass
class Suppressions:
    """Every suppression of one source file, with usage tracking."""

    entries: list[SuppressionEntry] = field(default_factory=list)

    def suppress(self, line: int, code: str) -> bool:
        """True when the finding is noqa'd; marks the entry used."""
        hit = False
        for entry in self.entries:
            if entry.matches(line, code):
                entry.used = True
                hit = True
        return hit

    def unused(self) -> list[SuppressionEntry]:
        return [entry for entry in self.entries if not entry.used]

    def __bool__(self) -> bool:
        return bool(self.entries)


def _comment_tokens(source: str) -> list[tuple[int, str]]:
    """(line, text) of every real comment, via the tokenizer."""
    comments: list[tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Malformed tail (unterminated string, bad indent): keep every
        # comment found before the error.
        pass
    return comments


def _statement_spans(source: str) -> list[tuple[int, int]]:
    """Line spans of simple statements and compound-statement headers.

    A compound statement's span stops before its first body line, so a
    suppression on (say) a multi-line ``if`` condition covers the whole
    condition but none of the branch bodies.
    """
    try:
        tree = ast.parse(source)
    except (SyntaxError, ValueError):
        return []
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        end = node.end_lineno or start
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = min(end, body[0].lineno - 1)
            end = max(end, start)
        spans.append((start, end))
    return spans


def parse_suppressions(source: str) -> Suppressions:
    """Extract every ``# repro: noqa`` comment with the lines it covers."""
    spans = _statement_spans(source)
    suppressions = Suppressions()
    for lineno, text in _comment_tokens(source):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        codes_group = match.group("codes")
        if codes_group is None:
            codes = frozenset({_ALL})
        else:
            codes = frozenset(
                code.strip().upper()
                for code in codes_group.split(",") if code.strip()
            )
        covered = {lineno}
        for start, end in spans:
            if start <= lineno <= end:
                covered.update(range(start, end + 1))
        suppressions.entries.append(SuppressionEntry(
            line=lineno,
            codes=codes,
            lines=frozenset(covered),
            justification=(match.group("justification") or "").strip(),
        ))
    return suppressions


def is_suppressed(suppressions: Suppressions, line: int, code: str) -> bool:
    """True when rule ``code`` is noqa'd on ``line`` (marks usage)."""
    return suppressions.suppress(line, code)
