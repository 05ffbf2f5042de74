"""Graph surgeries: vertex/edge deletion, edge addition, contraction.

Deletion and contraction re-index the surviving vertices order-preservingly
and return the old-index -> new-index map alongside the new graph.
"""
from __future__ import annotations

from bisect import bisect_left

from .errors import DuplicateEdge, NotAllowable
from .graphs import SignedGraph, _takes_graph, build_graph


@_takes_graph
def delete_vertex(g: SignedGraph, v: int) -> tuple[SignedGraph, dict[int, int]]:
    """Remove v and its incident edges; survivors keep their relative order."""
    v = g._check_vertex(v)
    vmap = {old: old - (old > v) for old in range(g.n) if old != v}
    # relabelling is monotone, so the surviving edges stay canonical
    edges = tuple(
        (vmap[u], vmap[w], s)
        for u, w, s in g.edges
        if u != v and w != v
    )
    return SignedGraph(g.n - 1, edges), vmap


@_takes_graph
def delete_edge(g: SignedGraph, u: int, v: int) -> tuple[SignedGraph, int]:
    """Remove edge {u, v}; returns the new graph and the removed edge's sign (g.sign raises NoSuchEdge)."""
    removed = g.sign(u, v)
    # canonical edges are sorted, and the pair (a, b) sorts just before its triple
    i = bisect_left(g.edges, (int(min(u, v)), int(max(u, v))))
    return SignedGraph(g.n, g.edges[:i] + g.edges[i + 1:]), removed


@_takes_graph
def add_edge(g: SignedGraph, u: int, v: int, s: int) -> SignedGraph:
    """g with edge {u, v} of sign s added; SignedGraph rejects a self-loop or a bad sign."""
    u, v = g._check_vertex(u), g._check_vertex(v)
    if g.has_edge(u, v):
        raise DuplicateEdge(f"edge ({u}, {v}) already present")
    return build_graph(g.n, list(g.edges) + [(u, v, s)])


@_takes_graph
def neighborhoods(g: SignedGraph, t: int) -> tuple[frozenset[int], frozenset[int]]:
    """Open and closed neighborhood of t."""
    open_nbhd = frozenset(w for w, _ in g.neighbors(t))
    return open_nbhd, open_nbhd | {t}


@_takes_graph
def disjoint_open_neighborhoods(g: SignedGraph, a: int, b: int) -> bool:
    """Whether a and b have disjoint open neighborhoods (no common
    neighbour), tested without building them."""
    a, b = g._check_pair(a, b)
    return g._nbrs[a].keys().isdisjoint(g._nbrs[b].keys())


@_takes_graph
def contract(g: SignedGraph, a: int, b: int) -> tuple[SignedGraph, dict[int, int], int]:
    """Merge a and b into one vertex adjacent to the union of their neighbors.

    Allowable only when every shared neighbor sees a and b with equal signs;
    the merged edge keeps that sign (a shared pair collapses to one edge).
    An edge between a and b is dropped.  The merged vertex takes the smaller
    freed slot; survivors re-index order-preservingly.

    Returns (graph, survivor old->new map, merged vertex's new index).
    """
    a, b = g._check_pair(a, b)
    na, nb = g._nbrs[a], g._nbrs[b]
    for t in sorted(na.keys() & nb.keys()):
        if na[t] != nb[t]:
            raise NotAllowable(
                f"shared neighbor {t} sees {a} and {b} with conflicting signs"
            )
    # delete the larger vertex; the smaller keeps its slot and edges and
    # gains the other's remaining neighbours (shared ones agree in sign)
    (lo, n_lo), (hi, n_hi) = ((a, na), (b, nb)) if a < b else ((b, nb), (a, na))
    sub, vmap = delete_vertex(g, hi)
    merged = vmap.pop(lo)
    gained = [(merged, vmap[t], s) for t, s in n_hi.items() if t != lo and t not in n_lo]
    return build_graph(g.n - 1, [*sub.edges, *gained]), vmap, merged
