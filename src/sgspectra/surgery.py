"""Graph surgeries: vertex/edge deletion, edge addition, contraction.

Deletion and contraction re-index the surviving vertices order-preservingly
and return the old-index -> new-index map alongside the new graph.
"""
from __future__ import annotations

from .errors import DuplicateEdge, NoSuchEdge, NotAllowable, SameVertex, SelfLoop
from .graphs import SignedGraph, build_graph


def delete_vertex(g: SignedGraph, v: int) -> tuple[SignedGraph, dict[int, int]]:
    """Remove v and its incident edges; survivors keep their relative order."""
    g._check_vertex(v)
    vmap = {old: old - (old > v) for old in range(g.n) if old != v}
    # relabelling is monotone, so the surviving edges stay canonical
    edges = tuple(
        (vmap[u], vmap[w], s)
        for u, w, s in g.edges
        if u != v and w != v
    )
    return SignedGraph(g.n - 1, edges), vmap


def delete_edge(g: SignedGraph, u: int, v: int) -> tuple[SignedGraph, int]:
    """Remove edge {u, v}; returns the new graph and the removed edge's sign."""
    if not g.has_edge(u, v):
        raise NoSuchEdge(f"no edge ({u}, {v})")
    removed = g.sign(u, v)
    a, b = min(u, v), max(u, v)
    edges = tuple(e for e in g.edges if (e[0], e[1]) != (a, b))
    return SignedGraph(g.n, edges), removed


def add_edge(g: SignedGraph, u: int, v: int, s: int) -> SignedGraph:
    if u == v:
        raise SelfLoop(f"self-loop at vertex {u}")
    g._check_vertex(u)
    g._check_vertex(v)
    if g.has_edge(u, v):
        raise DuplicateEdge(f"edge ({u}, {v}) already present")
    return build_graph(g.n, list(g.edges) + [(u, v, s)])


def neighborhoods(g: SignedGraph, t: int) -> tuple[frozenset[int], frozenset[int]]:
    """Open and closed neighborhood of t."""
    open_nbhd = frozenset(w for w, _ in g.neighbors(t))
    return open_nbhd, open_nbhd | {t}


def disjoint_open_neighborhoods(g: SignedGraph, a: int, b: int) -> bool:
    if a == b:
        raise SameVertex(f"vertices must differ, both are {a}")
    na, _ = neighborhoods(g, a)
    nb, _ = neighborhoods(g, b)
    return not (na & nb)


def contract(g: SignedGraph, a: int, b: int) -> tuple[SignedGraph, dict[int, int], int]:
    """Merge a and b into one vertex adjacent to the union of their neighbors.

    Allowable only when every shared neighbor sees a and b with equal signs;
    the merged edge keeps that sign (a shared pair collapses to one edge).
    An edge between a and b is dropped.  The merged vertex takes the smaller
    freed slot; survivors re-index order-preservingly.

    Returns (graph, survivor old->new map, merged vertex's new index).
    """
    if a == b:
        raise SameVertex(f"vertices must differ, both are {a}")
    na = dict(g.neighbors(a))
    nb = dict(g.neighbors(b))
    for t in sorted(na.keys() & nb.keys()):
        if na[t] != nb[t]:
            raise NotAllowable(
                f"shared neighbor {t} sees {a} and {b} with conflicting signs"
            )
    lo, hi = min(a, b), max(a, b)
    vmap = {old: old - (old > hi) for old in range(g.n) if old not in (a, b)}
    merged = lo
    edges = [
        (vmap[u], vmap[w], s)
        for u, w, s in g.edges
        if u not in (a, b) and w not in (a, b)
    ]
    merged_signs = {**nb, **na}  # equal on shared keys by the check above
    for t in sorted(merged_signs):
        if t in (a, b):
            continue
        edges.append((merged, vmap[t], merged_signs[t]))
    return build_graph(g.n - 1, edges), vmap, merged
