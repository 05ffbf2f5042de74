"""Signed-graph representation: edges carry a +1/-1 sign.

Vertices are dense integers 0..n-1. Edges are stored once, canonically as
(u, v, sign) with 0 <= u < v < n, sign +-1 and (u, v) strictly increasing;
SignedGraph rejects any other order, and build_graph is the canonicalizer.
Queries are symmetric. Values are immutable after construction; every
operation here is a pure function, so graphs can be shared across threads.
"""
from __future__ import annotations

import functools
import numbers
import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import itemgetter
from typing import ItemsView, Sequence

from .errors import (
    ArgMismatch,
    BadOrder,
    ConfigInvalid,
    DuplicateEdge,
    EmptyGraph,
    LengthMismatch,
    NoSuchEdge,
    SameVertex,
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


def _check_sign(s) -> int:
    """s as a plain int if it is an integer (see _as_int) +1 or -1, else ValueError."""
    i = _as_int(s)
    if i not in (PLUS, MINUS):
        raise ValueError(f"edge sign must be +1 or -1, got {s!r}")
    return i


@dataclass(frozen=True)
class SignedGraph:
    """A simple undirected graph on vertices 0..n-1 with signed edges.

    edges must be canonical (see the module docstring); equality, hashing and
    the .sg writers rely on that order; any iterable is stored as a tuple.  n,
    endpoints and signs may be any integers (see _as_int) and are stored as
    plain ints: BadOrder, VertexOutOfRange and ValueError reject the rest, and
    LengthMismatch edges that are not iterable or an edge that is not a triple."""

    n: int
    edges: tuple[tuple[int, int, int], ...]
    _nbrs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = _order(self.n)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        # canonical order fills each neighbour map in ascending order
        nbrs: tuple[dict[int, int], ...] = tuple([{} for _ in range(n)])
        edges = _edge_tuple(self.edges)
        last = -1  # the previous edge's pair (u, v) as u * n + v, which orders pairs as tuples do
        plain = True
        for e in edges:
            try:
                u, v, s = e
            except (TypeError, ValueError):
                raise _not_triple(e) from None
            # tuples of plain ints skip the integer rule; anything else is stored converted
            if type(u) is not int or type(v) is not int or type(e) is not tuple:
                u, v = _ends(u, v)
                plain = False
            if not 0 <= u < v < n:
                if u == v:
                    raise SelfLoop(f"self-loop at vertex {u}")
                raise VertexOutOfRange(f"edge ({u}, {v}) is not 0 <= u < v < n for n={n}")
            if type(s) is not int or (s != PLUS and s != MINUS):
                s = _check_sign(s)
                plain = False
            key = u * n + v
            if key <= last:
                if key == last:
                    raise DuplicateEdge(f"edge ({u}, {v}) listed twice")
                raise ValueError(f"edge {(u, v)} follows {divmod(last, n)}; edges must be sorted by (u, v)")
            last = key
            nbrs[u][v] = s
            nbrs[v][u] = s
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges if plain else tuple(tuple(map(int, e)) for e in edges))
        object.__setattr__(self, "_nbrs", nbrs)

    def has_edge(self, u: int, v: int) -> bool:
        try:
            self._check_vertex(u)
            self._check_vertex(v)
        except VertexOutOfRange:
            return False
        return v in self._nbrs[u]

    def sign(self, u: int, v: int) -> int:
        """Sign of edge {u, v}; raises NoSuchEdge, a KeyError, if absent."""
        if not self.has_edge(u, v):
            raise NoSuchEdge(f"no edge ({u!r}, {v!r})")
        return self._nbrs[u][v]

    def neighbors(self, v: int) -> ItemsView[int, int]:
        """Ascending (neighbor, sign) pairs of vertex v, as a read-only view."""
        self._check_vertex(v)
        return self._nbrs[v].items()

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._nbrs[v])

    def _check_vertex(self, v: int) -> int:
        """v as a plain int, if it is a vertex: an integer (see _as_int) 0 <= v < n."""
        i = v if type(v) is int else _as_int(v)
        if i is None or not 0 <= i < self.n:
            raise VertexOutOfRange(f"vertex {v!r} out of range for n={self.n}")
        return i

    def _check_pair(self, a: int, b: int) -> tuple[int, int]:
        """a and b as plain ints if both are vertices (a checked first) and differ, else SameVertex."""
        i, j = self._check_vertex(a), self._check_vertex(b)
        if i == j:
            raise SameVertex(f"vertices must differ, both are {a}")
        return i, j


def _as_int(x) -> int | None:
    """x as a plain int if it is an integer: an int or another numbers.Integral
    such as a numpy integer, but never a bool.  None for anything else."""
    return int(x) if isinstance(x, numbers.Integral) and type(x) is not bool else None


def _order(n, what: str = "vertex count") -> int:
    """Order n as a plain int (the integer rule of _as_int), else BadOrder."""
    i = n if type(n) is int else _as_int(n)
    if i is None:
        raise BadOrder(f"{what} must be an integer, got {n!r}")
    return i


def _edge_tuple(edges) -> tuple:
    """edges as a tuple; LengthMismatch when they are not iterable."""
    try:
        return edges if type(edges) is tuple else tuple(edges)
    except TypeError:
        raise LengthMismatch(f"edges must be an iterable of (u, v, sign) triples, got {edges!r}") from None


def _not_triple(e) -> LengthMismatch:
    return LengthMismatch(f"edge {e!r} is not a (u, v, sign) triple")


def _not_graph(who: str, g) -> ArgMismatch:
    """The error for g, which is not a SignedGraph, given as who's graph."""
    return ArgMismatch(f"{who} takes a SignedGraph, got {type(g).__name__}")


def _takes_graph(fn):
    """fn, raising _not_graph(fn's name, g) before the call when its first
    argument g, given by position or by name, is not a SignedGraph.  The
    wrapper keeps fn's name, docstring, module and signature."""
    first = fn.__code__.co_varnames[0]

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        g = args[0] if args else kwargs.get(first)
        if not isinstance(g, SignedGraph):
            raise _not_graph(fn.__name__, g)
        return fn(*args, **kwargs)

    return checked


def _ends(u, v) -> tuple[int, int]:
    """Edge endpoints u and v as plain ints; VertexOutOfRange unless both are integers."""
    iu, iv = _as_int(u), _as_int(v)
    if iu is None or iv is None:
        raise VertexOutOfRange(f"edge ({u!r}, {v!r}) has a non-integer endpoint")
    return iu, iv


def _int_field(x, name: str) -> int:
    """x as a plain int (the integer rule of _as_int), else ConfigInvalid."""
    i = x if type(x) is int else _as_int(x)
    if i is None:
        raise ConfigInvalid(f"{name} must be an integer, got {x!r}")
    return i


def _real_field(x, name: str):
    """x if it is a real number (a numbers.Real, but never a bool), else ConfigInvalid."""
    # plain floats skip the slow abstract-class test
    if type(x) is not float and (not isinstance(x, numbers.Real) or type(x) is bool):
        raise ConfigInvalid(f"{name} must be a real number, got {x!r}")
    return x


def _probability(x, name: str) -> None:
    """ConfigInvalid unless x is a real number (see _real_field), ValueError unless in [0, 1]."""
    if not 0.0 <= _real_field(x, name) <= 1.0:
        raise ValueError("edge and sign probabilities must lie in [0, 1]")


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

    SignedGraph rejects self-loops, duplicate pairs, out-of-range endpoints and bad signs;
    a non-integer endpoint raises VertexOutOfRange before the sort, and edges that
    are not iterable or an edge that is not a triple LengthMismatch, as in SignedGraph.
    """
    canonical = []
    for e in _edge_tuple(edge_list):
        try:
            u, v, s = e
        except (TypeError, ValueError):
            raise _not_triple(e) from None
        if type(u) is not int or type(v) is not int:
            u, v = _ends(u, v)
        canonical.append((u, v, s) if u < v else (v, u, s))
    canonical.sort(key=itemgetter(0, 1))
    return SignedGraph(n, tuple(canonical))


@_takes_graph
def degree_profile(g: SignedGraph) -> DegreeProfile:
    """Total, positive, negative and net degree of every vertex."""
    nbrs = [g.neighbors(v) for v in range(g.n)]
    d = [len(a) for a in nbrs]
    dp = [[s for _, s in a].count(PLUS) for a in nbrs]
    dm = [t - p for t, p in zip(d, dp)]
    net = [p - m for p, m in zip(dp, dm)]
    return DegreeProfile(tuple(d), tuple(dp), tuple(dm), tuple(net))


@_takes_graph
def min_max_neg_degree(g: SignedGraph) -> tuple[int, int]:
    """Minimum and maximum negative vertex degree."""
    if g.n == 0:
        raise EmptyGraph("negative-degree extremes need at least one vertex")
    dm = degree_profile(g).neg_degree
    return min(dm), max(dm)


@_takes_graph
def co_regularity(g: SignedGraph) -> CoRegularity | None:
    """The common (r, s) pair, or None unless all vertices share both values."""
    prof = degree_profile(g)
    pairs = set(zip(prof.degree, prof.net_degree))
    if len(pairs) != 1:
        return None
    r, s = pairs.pop()
    return CoRegularity(r, s, complete=(r == g.n - 1))


@_takes_graph
def apply_switching(g: SignedGraph, alpha: Sequence[int]) -> SignedGraph:
    """Multiply each edge sign by the +-1 values of its endpoints.

    Applying the same alpha twice is the identity.  Raises LengthMismatch
    unless alpha is a sequence of g.n values, and ValueError on one not +-1.
    """
    try:
        k = len(alpha)
    except TypeError:  # no length: an int, or a 0-d array
        raise LengthMismatch(f"switching signs must be a sequence of +-1 values, got {alpha!r}") from None
    if k != g.n:
        raise LengthMismatch(f"switching function has length {k}, graph order is {g.n}")
    alpha = [_check_sign(a) for a in alpha]
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


@_takes_graph
def balancing_switch(g: SignedGraph) -> tuple[int, ...] | None:
    """A per-vertex sign assignment that makes every edge positive, or None.

    Tree edges of the spanning forest are switched positive by construction,
    then every non-tree edge must come out positive too.
    """
    theta, _ = _spanning_forest(g)
    return tuple(theta) if all(theta[u] * s * theta[v] == PLUS for u, v, s in g.edges) else None


@_takes_graph
def is_balanced(g: SignedGraph) -> bool:
    """True iff g is switching-equivalent to the all-positive signature."""
    return balancing_switch(g) is not None


@_takes_graph
def switching_equivalent(g1: SignedGraph, g2: SignedGraph) -> bool:
    """True iff the two signatures on the same underlying graph differ by a switching."""
    if not isinstance(g2, SignedGraph):
        raise _not_graph("switching_equivalent", g2)
    # canonical edge order: equal unsigned edge sets are equal pair sequences
    if g1.n != g2.n or [e[:2] for e in g1.edges] != [e[:2] for e in g2.edges]:
        raise UnderlyingGraphMismatch("graphs must share vertex count and unsigned edge set")
    product = tuple((u, v, s * t) for (u, v, s), (_, _, t) in zip(g1.edges, g2.edges))
    return is_balanced(SignedGraph(g1.n, product))


@_takes_graph
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


def _family_order(family: str, n) -> int:
    """n as a plain int if family is known and n an integer of at least its minimum order, else BadOrder."""
    if not isinstance(family, str) or family not in _FAMILIES:
        raise BadOrder(f"unknown family {family!r}")
    min_n = _FAMILIES[family][0]
    i = _order(n, f"{family} order")
    if i < min_n:
        raise BadOrder(f"{family} needs n >= {min_n}, got {n}")
    return i


def family_edge_pairs(family: str, n: int) -> list[tuple[int, int]]:
    """Canonical edge order of a generated family.

    cycle: (0,1), (1,2), ..., (n-2,n-1), then the closing edge (0,n-1) last.
    path:  (0,1), ..., (n-2,n-1).  star: center 0, spokes (0,1)..(0,n-1).
    complete: lexicographic pairs.  empty: none.
    """
    n = _family_order(family, n)
    return _FAMILIES[family][1](n)


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
    A non-integer seed or non-real q raises ConfigInvalid, a q outside
    [0, 1] ValueError, and signs that are no sequence LengthMismatch.
    """
    pairs = family_edge_pairs(family, n)
    if isinstance(signs, str) and signs in ("all_plus", "all_minus", "random"):
        if signs == "all_plus":
            sig = [PLUS] * len(pairs)
        elif signs == "all_minus":
            sig = [MINUS] * len(pairs)
        else:
            _probability(q, "q")
            sig = _random_signs(random.Random(_int_field(seed, "seed")), len(pairs), q)
    else:
        if isinstance(signs, str):
            sig = [parse_sign(c) for c in signs]
        elif isinstance(signs, Iterable):
            sig = list(signs)
        else:
            raise LengthMismatch(f"signs must be a sequence of +-1 values, got {signs!r}")
        if len(sig) != len(pairs):
            raise LengthMismatch(
                f"{family} on {n} vertices has {len(pairs)} edges, got {len(sig)} signs"
            )
    return build_graph(n, [(u, v, s) for (u, v), s in zip(pairs, sig)])


def _random_signs(rng: random.Random, k: int, q: float = 0.5) -> list[int]:
    """k signs, each MINUS with probability q, one rng.random() draw apiece."""
    return [MINUS if rng.random() < q else PLUS for _ in range(k)]


def random_signed_graph(n: int, p: float, q: float, seed: int) -> SignedGraph:
    """Seeded random graph: each pair is an edge with probability p, each
    present edge negative with probability q.

    Pairs are visited in lexicographic order and only rng.random() is drawn
    (one draw per pair, plus one per present edge), so a fixed (n, p, q, seed)
    replays bit-exactly across platforms and Python versions.  A non-integer
    n raises BadOrder, a non-real p or q or a non-integer seed ConfigInvalid.
    """
    _probability(p, "p")
    _probability(q, "q")
    rng = random.Random(_int_field(seed, "seed"))
    n = _order(n)
    rand = rng.random
    # a comprehension tests its condition before it builds its element, so
    # each pair's draw precedes its sign's
    edges = [(u, v, MINUS if rand() < q else PLUS) for u in range(n) for v in range(u + 1, n) if rand() < p]
    return SignedGraph(n, tuple(edges))


@_takes_graph
def is_connected(g: SignedGraph) -> bool:
    """Connectivity of the underlying graph: its spanning forest has at most one tree."""
    return _spanning_forest(g)[1] <= 1
