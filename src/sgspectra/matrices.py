"""The four matrices of a signed graph and their combinatorial quadratic forms.

Integer-valued matrices (adjacency, Laplacian, net-Laplacian) are built in
exact integer arithmetic (int64) from the adjacency, so identities like
L - N = 2*diag(d-) can be tested exactly; `eigenvalues` widens them to float.
The normalized net-Laplacian is assembled from the entrywise scaling formula,
which keeps it exactly symmetric (no post-hoc symmetrization).

The quad_form_* functions evaluate edge-sum formulas directly, independent of
any matrix product, and serve as oracles for the matrix quadratic forms.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .eigen import _real_vector
from .errors import ZeroDenominator
from .graphs import SignedGraph, degree_profile


def adjacency(g: SignedGraph) -> np.ndarray:
    """Signed adjacency: entry (i, j) is the edge sign, 0 if not adjacent."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v, s in g.edges:
        a[u, v] = s
        a[v, u] = s
    return a


def laplacian(g: SignedGraph) -> np.ndarray:
    """Degree diagonal (row sums of |A|) minus signed adjacency A."""
    a = adjacency(g)
    return np.diag(np.abs(a).sum(axis=1)) - a


def net_laplacian(g: SignedGraph) -> np.ndarray:
    """Net-degree diagonal (row sums of A) minus signed adjacency A."""
    a = adjacency(g)
    return np.diag(a.sum(axis=1)) - a


def normalized_net_laplacian(g: SignedGraph) -> np.ndarray:
    """Net-Laplacian scaled by 1/sqrt(degree) on both sides.

    The scaling entry for a vertex of degree 0 is 0, so rows and columns of
    isolated vertices are identically zero.  Entries are computed as
    N[i,j] / sqrt(d_i * d_j) in one division, which keeps the matrix exactly
    symmetric and integer ratios (e.g. degree-regular graphs) exact.
    """
    a = adjacency(g)
    d = np.abs(a).sum(axis=1)
    dd = np.outer(d, d)
    n_mat = np.diag(a.sum(axis=1)) - a
    return np.divide(n_mat, np.sqrt(dd), out=np.zeros(dd.shape), where=dd > 0)


def quad_form_laplacian(g: SignedGraph, x: Sequence[float]) -> float:
    """Sum over edges of (x_u - sign * x_v)^2; equals x^T L x.

    Raises LengthMismatch unless x is a real vector of the graph's order, and
    ValueError on a non-finite entry, as every quad_form_* does.
    """
    x = _real_vector(x, g.n, "quadratic form of non-finite entries")
    return float(sum((x[u] - s * x[v]) ** 2 for u, v, s in g.edges))


def quad_form_net_laplacian(g: SignedGraph, x: Sequence[float]) -> float:
    """quad_form_laplacian's edge sum minus twice the d- weighted square sum.

    Raises as quad_form_laplacian does (LengthMismatch, ValueError).
    """
    x = _real_vector(x, g.n, "quadratic form of non-finite entries")
    dm = degree_profile(g).neg_degree
    return float(quad_form_laplacian(g, x) - 2.0 * sum(m * xi * xi for m, xi in zip(dm, x)))


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

