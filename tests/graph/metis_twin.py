"""The Python twin of ``_metis.c``: the oracle of the METIS reader.

:func:`parse_metis` has the signature of :func:`repro.native.parse_metis`
and is the per-line, per-token loop that ``repro.graph.io.read_metis`` ran
before the compiled kernel, held to the kernel's grammar (see
``_metis.c``): the same four arrays on a well-formed body, the same
``ValueError`` text on a malformed one.  The ``numpy_kernel`` fixture of
``tests/conftest.py`` installs it in place of the binding.
"""

from __future__ import annotations

import re

import numpy as np

from repro import native

_LINE_END = re.compile(rb"\r\n|\r|\n")
_TOKEN = re.compile(rb"[^ \t]+")
_INTEGER = re.compile(rb"[+-]?[0-9]+")
_NOT_ASCII = re.compile(rb"[^\x00-\x7f]")


class _Fault(Exception):
    """A ``_metis.c`` status (its ``TEXT_*`` codes) and its ``info``."""

    def __init__(self, status: int, *info: int) -> None:
        super().__init__(status)
        self.status = status
        self.info = np.array([*info, *[0] * (6 - len(info))], dtype=np.int64)


def _lines(text: bytes, pos: int, line: int):
    """``(file line, offset, content)`` of every line from ``pos`` on."""
    while pos < len(text):
        end = _LINE_END.search(text, pos)
        stop, after = (end.start(), end.end()) if end else (len(text), len(text))
        yield line, pos, text[pos:stop]
        pos, line = after, line + 1


def _value(line: int, offset: int, token: bytes) -> int:
    bad = _NOT_ASCII.search(token)
    if bad:
        raise _Fault(-6, line, offset + bad.start())
    if not _INTEGER.fullmatch(token):
        raise _Fault(-7, line, offset, len(token))
    value = int(token)
    if not -(2**63) <= value < 2**63:
        raise _Fault(-8, line, offset, len(token))
    return value


def _wrap(total: int) -> int:
    """``total`` as the kernel's uint64 sum read back as int64."""
    return (total + 2**63) % 2**64 - 2**63


def _body(text, pos, line, n, node_weights, edge_weights):
    vwgt = np.ones(n, dtype=np.int64)
    line_of = [0] * n
    entries: list[tuple[int, int, int]] = []  # (v, u, w) in file order
    v = 0
    for number, offset, content in _lines(text, pos, line):
        stripped = content.lstrip(b" \t")
        if stripped.startswith(b"%"):
            bad = _NOT_ASCII.search(content)
            if bad:
                raise _Fault(-6, number, offset + bad.start())
            continue
        if v == n:
            if stripped:
                rest = [c.lstrip(b" \t") for _, _, c in _lines(text, offset, number)]
                found = n + sum(1 for c in rest if c and not c.startswith(b"%"))
                raise _Fault(-13, number, found)
            continue
        line_of[v] = number
        tokens = [(offset + t.start(), t.group()) for t in _TOKEN.finditer(content)]
        pos_ = 0
        if node_weights:
            if not tokens:
                raise _Fault(-10, number)
            vwgt[v] = _value(number, *tokens[0])
            if vwgt[v] < 0:
                raise _Fault(-12, number, int(vwgt[v]), 0)
            pos_ = 1
        while pos_ < len(tokens):
            ident = _value(number, *tokens[pos_])
            if not 1 <= ident <= n:
                raise _Fault(-9, number, ident)
            pos_ += 1
            w = 1
            if edge_weights:
                if pos_ == len(tokens):
                    raise _Fault(-11, number, ident)
                w = _value(number, *tokens[pos_])
                if w < 0:
                    raise _Fault(-12, number, w, 1)
                pos_ += 1
            if ident - 1 != v:
                entries.append((v, ident - 1, w))
        v += 1
    if v < n:
        raise _Fault(-13, 0, v)
    return vwgt, line_of, entries


def _symmetry(line_of, entries) -> None:
    """The smallest (node, neighbour) whose entry has no mirror, or whose
    pair weighs differently both ways (node = the smaller end)."""
    weight: dict[tuple[int, int], int] = {}
    for v, u, w in entries:
        weight[v, u] = weight.get((v, u), 0) + w
    culprits = []
    for (c, o), here in weight.items():
        if (o, c) not in weight:
            culprits.append((c, o, -14, 0, 0))
        elif c < o and _wrap(here) != _wrap(weight[o, c]):
            culprits.append((c, o, -15, _wrap(here), _wrap(weight[o, c])))
    if culprits:
        c, o, status, here, there = min(culprits)
        raise _Fault(status, line_of[c], c + 1, o + 1, line_of[o], here, there)


def parse_metis(text: bytes, pos: int, line: int, n: int, node_weights: bool,
                edge_weights: bool):
    """:func:`repro.native.parse_metis` as a Python loop over the lines,
    the entries ``u > v`` grouped by ``u`` with a stable sort."""
    try:
        vwgt, line_of, entries = _body(text, pos, line, n, node_weights, edge_weights)
        _symmetry(line_of, entries)
    except _Fault as fault:
        raise native._fault("METIS reader", fault.status, native._metis_culprit(
            fault.status, fault.info, text, n)) from None
    upper = sorted((e for e in entries if e[1] > e[0]), key=lambda e: e[1])
    upper = np.array(upper, dtype=np.int64).reshape(-1, 3)
    return vwgt, upper[:, 0].copy(), upper[:, 1].copy(), upper[:, 2].copy()
