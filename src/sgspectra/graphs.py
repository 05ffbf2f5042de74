"""Signed-graph representation: edges carry a +1/-1 sign.

Vertices are dense integers 0..n-1. Edges are stored once, canonically as
(u, v, sign) with 0 <= u < v < n, sign +-1 and (u, v) strictly increasing;
SignedGraph rejects any other order, and build_graph is the canonicalizer.
Queries are symmetric. Values are immutable after construction; every
operation here is a pure function, so graphs can be shared across threads.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import ItemsView, Iterable, Sequence

from .errors import (
    BadOrder,
    DuplicateEdge,
    EmptyGraph,
    LengthMismatch,
    SelfLoop,
    UnderlyingGraphMismatch,
    VertexOutOfRange,
)

PLUS = 1
MINUS = -1

_SIGN_TOKENS = {"+": PLUS, "-": MINUS, "1": PLUS, "-1": MINUS}


def parse_sign(token: str) -> int:
    """Map an edge-sign token (one of +, -, 1, -1) to +1/-1."""
    try:
        return _SIGN_TOKENS[token]
    except KeyError:
        raise ValueError(f"bad sign token {token!r}") from None


def sign_char(s: int) -> str:
    return "+" if s == PLUS else "-"


def _check_sign(s: int) -> None:
    if s not in (PLUS, MINUS):
        raise ValueError(f"edge sign must be +1 or -1, got {s!r}")


@dataclass(frozen=True)
class SignedGraph:
    """A simple undirected graph on vertices 0..n-1 with signed edges.

    edges must be canonical (see the module docstring); equality, hashing and
    the .sg writers rely on that order.  build_graph sorts any edge list."""

    n: int
    edges: tuple[tuple[int, int, int], ...]
    _nbrs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        # canonical order fills each neighbour map in ascending order
        nbrs: tuple[dict[int, int], ...] = tuple({} for _ in range(self.n))
        prev = (-1, -1)
        for u, v, s in self.edges:
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise VertexOutOfRange(f"edge ({u}, {v}) is not 0 <= u < v < n for n={self.n}")
            _check_sign(s)
            pair = (u, v)
            if pair <= prev:
                if pair == prev:
                    raise DuplicateEdge(f"edge ({u}, {v}) listed twice")
                raise ValueError(f"edge {pair} follows {prev}; edges must be sorted by (u, v)")
            prev = pair
            nbrs[u][v] = s
            nbrs[v][u] = s
        object.__setattr__(self, "_nbrs", nbrs)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._nbrs[u]

    def sign(self, u: int, v: int) -> int:
        """Sign of edge {u, v}; raises KeyError if absent."""
        if not self.has_edge(u, v):
            raise KeyError((min(u, v), max(u, v)))
        return self._nbrs[u][v]

    def neighbors(self, v: int) -> ItemsView[int, int]:
        """Ascending (neighbor, sign) pairs of vertex v, as a read-only view."""
        self._check_vertex(v)
        return self._nbrs[v].items()

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._nbrs[v])

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise VertexOutOfRange(f"vertex {v} out of range for n={self.n}")


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degree bookkeeping: total, positive, negative, net."""

    degree: tuple[int, ...]
    pos_degree: tuple[int, ...]
    neg_degree: tuple[int, ...]
    net_degree: tuple[int, ...]


@dataclass(frozen=True)
class CoRegularity:
    """Common (degree, net degree) pair when every vertex shares both."""

    r: int
    s: int
    complete: bool


def build_graph(n: int, edge_list: Iterable[tuple[int, int, int]]) -> SignedGraph:
    """Construct a SignedGraph, canonicalizing each edge to u < v and sorting by pair.

    SignedGraph rejects self-loops, duplicate pairs, out-of-range endpoints and bad signs.
    """
    canonical = [(u, v, s) if u < v else (v, u, s) for u, v, s in edge_list]
    canonical.sort(key=itemgetter(0, 1))
    return SignedGraph(n, tuple(canonical))


def degree_profile(g: SignedGraph) -> DegreeProfile:
    """Total, positive, negative and net degree of every vertex."""
    nbrs = [g.neighbors(v) for v in range(g.n)]
    d = [len(a) for a in nbrs]
    dp = [[s for _, s in a].count(PLUS) for a in nbrs]
    dm = [t - p for t, p in zip(d, dp)]
    net = [p - m for p, m in zip(dp, dm)]
    return DegreeProfile(tuple(d), tuple(dp), tuple(dm), tuple(net))


def min_max_neg_degree(g: SignedGraph) -> tuple[int, int]:
    """Minimum and maximum negative vertex degree."""
    if g.n == 0:
        raise EmptyGraph("negative-degree extremes need at least one vertex")
    dm = degree_profile(g).neg_degree
    return min(dm), max(dm)


def co_regularity(g: SignedGraph) -> CoRegularity | None:
    """The common (r, s) pair, or None unless all vertices share both values."""
    prof = degree_profile(g)
    pairs = set(zip(prof.degree, prof.net_degree))
    if len(pairs) != 1:
        return None
    r, s = pairs.pop()
    return CoRegularity(r, s, complete=(r == g.n - 1))


def apply_switching(g: SignedGraph, alpha: Sequence[int]) -> SignedGraph:
    """Multiply each edge sign by the +-1 values of its endpoints.

    Applying the same alpha twice is the identity.
    """
    if len(alpha) != g.n:
        raise LengthMismatch(f"switching function has length {len(alpha)}, graph order is {g.n}")
    for a in alpha:
        _check_sign(a)
    edges = tuple((u, v, alpha[u] * s * alpha[v]) for u, v, s in g.edges)
    return SignedGraph(g.n, edges)


def _spanning_forest(g: SignedGraph) -> tuple[list[int], int]:
    """Depth-first spanning forest of g: per-vertex signs that switch every
    tree edge positive (each root +1), and the number of trees."""
    theta = [0] * g.n
    trees = 0
    for root in range(g.n):
        if theta[root] != 0:
            continue
        trees += 1
        theta[root] = PLUS
        stack = [root]
        while stack:
            u = stack.pop()
            for v, s in g.neighbors(u):
                if theta[v] == 0:
                    theta[v] = s * theta[u]
                    stack.append(v)
    return theta, trees


def balancing_switch(g: SignedGraph) -> tuple[int, ...] | None:
    """A per-vertex sign assignment that makes every edge positive, or None.

    Tree edges of the spanning forest are switched positive by construction,
    then every non-tree edge must come out positive too.
    """
    theta, _ = _spanning_forest(g)
    for u, v, s in g.edges:
        if theta[u] * s * theta[v] != PLUS:
            return None
    return tuple(theta)


def is_balanced(g: SignedGraph) -> bool:
    """True iff g is switching-equivalent to the all-positive signature."""
    return balancing_switch(g) is not None


def switching_equivalent(g1: SignedGraph, g2: SignedGraph) -> bool:
    """True iff the two signatures on the same underlying graph differ by a switching."""
    # canonical edge order: equal unsigned edge sets are equal pair sequences
    if g1.n != g2.n or [e[:2] for e in g1.edges] != [e[:2] for e in g2.edges]:
        raise UnderlyingGraphMismatch("graphs must share vertex count and unsigned edge set")
    product = tuple((u, v, s * t) for (u, v, s), (_, _, t) in zip(g1.edges, g2.edges))
    return is_balanced(SignedGraph(g1.n, product))


def all_positive(g: SignedGraph) -> SignedGraph:
    """Same underlying graph with every edge positive."""
    return SignedGraph(g.n, tuple((u, v, PLUS) for u, v, _ in g.edges))


# family -> (minimum order, canonical edge pairs of order n)
_FAMILIES = {
    "cycle": (3, lambda n: [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]),
    "path": (1, lambda n: [(i, i + 1) for i in range(n - 1)]),
    "star": (2, lambda n: [(0, i) for i in range(1, n)]),
    "complete": (0, lambda n: [(u, v) for u in range(n) for v in range(u + 1, n)]),
    "empty": (0, lambda n: []),
}


def family_edge_pairs(family: str, n: int) -> list[tuple[int, int]]:
    """Canonical edge order of a generated family.

    cycle: (0,1), (1,2), ..., (n-2,n-1), then the closing edge (0,n-1) last.
    path:  (0,1), ..., (n-2,n-1).  star: center 0, spokes (0,1)..(0,n-1).
    complete: lexicographic pairs.  empty: none.
    """
    if family not in _FAMILIES:
        raise BadOrder(f"unknown family {family!r}")
    min_n, pairs = _FAMILIES[family]
    if n < min_n:
        raise BadOrder(f"{family} needs n >= {min_n}, got {n}")
    return pairs(n)


def generate(
    family: str,
    n: int,
    signs: str | Sequence[int] = "all_plus",
    *,
    q: float = 0.5,
    seed: int = 0,
) -> SignedGraph:
    """Build a named family with a signature rule.

    signs is "all_plus", "all_minus", "random" (each edge negative with
    probability q, seeded), or an explicit sign sequence (+-1 values or a
    string of +/- characters) matching the family's canonical edge order.
    """
    pairs = family_edge_pairs(family, n)
    if isinstance(signs, str) and signs in ("all_plus", "all_minus", "random"):
        if signs == "all_plus":
            sig = [PLUS] * len(pairs)
        elif signs == "all_minus":
            sig = [MINUS] * len(pairs)
        else:
            rng = random.Random(seed)
            sig = [MINUS if rng.random() < q else PLUS for _ in pairs]
    else:
        if isinstance(signs, str):
            sig = [parse_sign(c) for c in signs]
        else:
            sig = list(signs)
        if len(sig) != len(pairs):
            raise LengthMismatch(
                f"{family} on {n} vertices has {len(pairs)} edges, got {len(sig)} signs"
            )
    return build_graph(n, [(u, v, s) for (u, v), s in zip(pairs, sig)])


def random_signed_graph(n: int, p: float, q: float, seed: int) -> SignedGraph:
    """Seeded random graph: each pair is an edge with probability p, each
    present edge negative with probability q.

    Pairs are visited in lexicographic order and only rng.random() is drawn
    (one draw per pair, plus one per present edge), so a fixed (n, p, q, seed)
    replays bit-exactly across platforms and Python versions.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("edge and sign probabilities must lie in [0, 1]")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                s = MINUS if rng.random() < q else PLUS
                edges.append((u, v, s))
    return SignedGraph(n, tuple(edges))


def is_connected(g: SignedGraph) -> bool:
    """Connectivity of the underlying graph: its spanning forest has at most one tree."""
    return _spanning_forest(g)[1] <= 1
