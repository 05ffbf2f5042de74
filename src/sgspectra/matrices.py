"""The four matrices of a signed graph and their combinatorial quadratic forms.

assemble writes any number of them, of any orders, into one front-padded
stack: each graph's matrix fills the trailing block of its slot.  In float64
that is the stack eigen.eigenvalues_stack solves, and adjacency, laplacian,
net_laplacian and normalized_net_laplacian are its one-graph case, so each
formula is written once.  The entries come from the edge lists in a few
vectorised scatters.  The integer matrices (adjacency, Laplacian,
net-Laplacian) are built from the degrees and signs in exact integers: the
one-graph builders return int64, so identities like L - N = 2*diag(d-) can be
tested exactly.  The normalized net-Laplacian's entries are
N[i,j] / sqrt(d_i * d_j) in one division, which keeps the matrix exactly
symmetric (no post-hoc symmetrization).

The quad_form_* functions evaluate edge-sum formulas directly, independent of
any matrix product, and serve as oracles for the matrix quadratic forms.
"""
from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from .eigen import _real_vector
from .errors import ZeroDenominator
from .graphs import SignedGraph, _takes_graph, degree_profile


def assemble(slots: Sequence, dtype=np.float64) -> np.ndarray:
    """Stack of the matrices named by slots, a sequence of (builder, order,
    edges): builder one of this module's four matrix functions, order and
    edges a graph's, its edges flattened into an int64 array u0, v0, sign0,
    u1, ...

    Slot i of the returned (len(slots), top, top) array of dtype, top the
    largest order, holds that builder's matrix of that graph in its trailing
    block and zeros elsewhere.  An integer dtype holds the integer matrices
    exactly.
    """
    k = len(slots)
    orders = [n for _, n, _ in slots]
    top = max(orders, default=0)
    out = np.zeros((k, top, top), dtype)
    if not k:
        return out
    counts = [len(flat) // 3 for _, _, flat in slots]
    edges = np.concatenate([flat for _, _, flat in slots]).reshape(-1, 3)
    # each edge end's vertex in the stack's k * top, and the flat positions
    # of the edge's entries (u, v) and (v, u)
    first = np.array([i * top + top - n for i, n in enumerate(orders)], np.int64).repeat(counts)
    ends = edges[:, :2] + first[:, None]
    at = ends * top + (ends % top)[:, ::-1]
    s = edges[:, 2]

    def sums(weights=None):  # (k, top): each vertex's degree, or its edge ends' sum of weights
        return np.bincount(ends.ravel(), weights, k * top).reshape(k, top)

    builders = list(dict.fromkeys([b for b, _, _ in slots]))
    entries = [_ENTRIES[b](s, ends, sums) for b in builders]
    if len(builders) == 1:
        (off, diag), = entries
    else:  # each slot's entries from its own builder
        which = np.array([builders.index(b) for b, _, _ in slots])
        off = np.choose(which.repeat(counts), [o for o, _ in entries])
        diag = np.choose(which[:, None], [d for _, d in entries])
    out.reshape(-1)[at] = off[:, None]
    out.reshape(k, top * top)[:, ::top + 1] = diag
    return out


@_takes_graph
def adjacency(g: SignedGraph) -> np.ndarray:
    """Signed adjacency: entry (i, j) is the edge sign, 0 if not adjacent."""
    return assemble([(adjacency, g.n, _flat(g))], np.int64)[0]


@_takes_graph
def laplacian(g: SignedGraph) -> np.ndarray:
    """Degree diagonal (row sums of |A|) minus signed adjacency A."""
    return assemble([(laplacian, g.n, _flat(g))], np.int64)[0]


@_takes_graph
def net_laplacian(g: SignedGraph) -> np.ndarray:
    """Net-degree diagonal (row sums of A) minus signed adjacency A."""
    return assemble([(net_laplacian, g.n, _flat(g))], np.int64)[0]


@_takes_graph
def normalized_net_laplacian(g: SignedGraph) -> np.ndarray:
    """Net-Laplacian scaled by 1/sqrt(degree) on both sides.

    The scaling entry for a vertex of degree 0 is 0, so rows and columns of
    isolated vertices are identically zero.  Entries are computed as
    N[i,j] / sqrt(d_i * d_j) in one division, which keeps the matrix exactly
    symmetric and integer ratios (e.g. degree-regular graphs) exact.
    """
    return assemble([(normalized_net_laplacian, g.n, _flat(g))])[0]


def _flat(g: SignedGraph) -> np.ndarray:
    """g's edges flattened into one int64 array, as assemble takes them."""
    return np.fromiter(chain.from_iterable(g.edges), np.int64, 3 * len(g.edges))


def _normalized_entries(s, ends, sums):
    d, t = sums(), sums(s.repeat(2))  # degrees and net degrees
    du, dv = d.ravel()[ends].T
    d = np.maximum(d, 1)  # an isolated vertex has t = 0, and 0 / 1 is its 0
    return -s / np.sqrt(du * dv), t / np.sqrt(d * d)


# builder -> (its entries at edges of signs s, whose ends are the stack's
# vertices ends, and its diagonal), from the assembler's per-vertex sums
_ENTRIES = {
    adjacency: lambda s, ends, sums: (s, 0),
    laplacian: lambda s, ends, sums: (-s, sums()),
    net_laplacian: lambda s, ends, sums: (-s, sums(s.repeat(2))),
    normalized_net_laplacian: _normalized_entries,
}


@_takes_graph
def quad_form_laplacian(g: SignedGraph, x: Sequence[float]) -> float:
    """Sum over edges of (x_u - sign * x_v)^2; equals x^T L x.

    Raises LengthMismatch unless x is a real vector of the graph's order, and
    ValueError on a non-finite entry, as every quad_form_* does.
    """
    x = _real_vector(x, g.n, "quadratic form of non-finite entries")
    return float(sum((x[u] - s * x[v]) ** 2 for u, v, s in g.edges))


@_takes_graph
def quad_form_net_laplacian(g: SignedGraph, x: Sequence[float]) -> float:
    """quad_form_laplacian's edge sum minus twice the d- weighted square sum.

    Raises as quad_form_laplacian does (LengthMismatch, ValueError).
    """
    x = _real_vector(x, g.n, "quadratic form of non-finite entries")
    dm = degree_profile(g).neg_degree
    return float(quad_form_laplacian(g, x) - 2.0 * sum(m * xi * xi for m, xi in zip(dm, x)))


@_takes_graph
def quad_form_normalized(g: SignedGraph, x: Sequence[float]) -> float:
    """Net-Laplacian quadratic form over the degree-weighted square sum.

    Matches the Rayleigh quotient of the normalized net-Laplacian at
    y = sqrt(degree) * x when the graph has no isolated vertices.  Raises as
    quad_form_laplacian does (LengthMismatch, ValueError), and ZeroDenominator
    when the degree-weighted square sum is zero.
    """
    x = _real_vector(x, g.n, "quadratic form of non-finite entries")
    d = degree_profile(g).degree
    denom = float(sum(di * xi * xi for di, xi in zip(d, x)))
    if denom == 0.0:
        raise ZeroDenominator("degree-weighted square sum of the vector is zero")
    return quad_form_net_laplacian(g, x) / denom

