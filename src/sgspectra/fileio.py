"""Text formats: the .sg signed edge-list format and matrix dumps.

.sg format: `#` starts a comment, blank lines are ignored.  The first
effective line is `n <count>`, then one line per edge `u v s` with
s in {+, -, 1, -1}.  Writers emit edges canonically (u < v, sorted).
"""
from __future__ import annotations

import numpy as np

from .errors import ParseError
from .graphs import PLUS, SignedGraph, _takes_graph, build_graph, parse_sign


def parse_sg(text: str) -> SignedGraph:
    """Parse .sg text into a SignedGraph; a ParseError names the first faulty line."""
    n = None
    edges = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 2 or fields[0] != "n":
                raise ParseError(f"line {lineno}: expected 'n <count>', got {line!r}")
            try:
                n = int(fields[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {fields[1]!r}") from None
            if n < 0:
                raise ParseError(f"line {lineno}: vertex count must be non-negative")
            continue
        if len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 'u v s', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"line {lineno}: bad vertex token in {line!r}") from None
        try:
            s = parse_sign(fields[2])
        except ValueError:
            raise ParseError(f"line {lineno}: bad sign token {fields[2]!r}") from None
        # the graph's own checks, made here so that each error names its line
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: vertex out of range in edge ({u}, {v})")
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise ParseError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add(pair)
        edges.append((u, v, s))
    if n is None:
        raise ParseError("missing 'n <count>' header line")
    return build_graph(n, edges)


def _sg_lines(g: SignedGraph) -> list[str]:
    label = [f"{i} " for i in range(g.n)]  # each vertex formatted once, O(n + E) in all
    return [f"n {g.n}", *[f"{label[u]}{label[v]}{'+' if s == PLUS else '-'}" for u, v, s in g.edges]]


@_takes_graph
def to_sg_text(g: SignedGraph) -> str:
    """Canonical .sg text (edges sorted, u < v, trailing newline)."""
    return "\n".join(_sg_lines(g)) + "\n"


@_takes_graph
def to_edge_string(g: SignedGraph) -> str:
    """Single-line form of the .sg content, fields joined by '; '."""
    return "; ".join(_sg_lines(g))


def from_edge_string(text: str) -> SignedGraph:
    return parse_sg(text.replace("; ", "\n"))


def read_sg(path) -> SignedGraph:
    """The graph in the .sg file at path; a UTF-8 byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_sg(fh.read())


def write_sg(path, g: SignedGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_sg_text(g))


def format_matrix(m: np.ndarray) -> str:
    """Matrix dump: first line the order, then each row as format_spectrum writes it."""
    return "\n".join([str(m.shape[0]), *map(format_spectrum, m.tolist())]) + "\n"


def format_spectrum(values) -> str:
    """Real numbers on one line, one space apart, each at 17 significant digits."""
    values = tuple(values)
    return ("%.17g " * len(values))[:-1] % values
