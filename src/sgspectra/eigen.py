"""Dense symmetric eigensolver and independent small-matrix oracles.

The solver is self-contained: Householder tridiagonalization followed by
implicit-shift QL on the tridiagonal form.  Iteration is capped at 64 sweeps
per eigenvalue and off-diagonals below 1e-15 * scale are deflated to zero.
It computes eigenvalues only, since no check reads an eigenvector.  The QL
sweeps run on Python floats, which round as float64 does and index faster.

eigenvalues_many solves many matrices with one Householder reduction, which
runs over a stack of them with np.vecdot and np.matvec (numpy >= 2.2) on a
leading batch axis; eigenvalues is a batch of one.  The matrices go largest first into
stacks of at most _STACK_ENTRIES entries, each front-padded: a matrix of
order n sits in the trailing block of a zero slot of the stack's order top.
Its first top - n steps are then no-ops, which the reduction skips, and each
of its own steps slices vectors of exactly its own length and applies the
same float64 operations in the same order as a lone solve.  So a spectrum
does not depend on what it is solved with: bit for bit, it is what the
matrix gives alone.  Padding at the end would not keep this, since dot
products over padded lengths round differently (by up to 2.7e-15 * scale).
An entry -0.0 is read as 0.0.

charpoly_spectrum_oracle takes a completely different route for matrices of
order <= 6: characteristic-polynomial coefficients by the Faddeev-LeVerrier
recurrence in exact rational arithmetic, square-free factorization (Yun), and
Sturm-chain bisection inside Gershgorin bounds.  Every sign evaluation is
exact, so the oracle is immune to the iterative solver's failure modes and is
used to cross-validate it.
"""
from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BadOrder,
    DimensionTooLarge,
    LengthMismatch,
    NoConvergence,
    NonSymmetric,
    ZeroVector,
)

_DEFLATE = 1e-15
_MAX_SWEEPS = 64
_STACK_ENTRIES = 1 << 16  # per stack; bounds its memory and its temporaries


def _square(m) -> np.ndarray:
    """m as an array, once it is known to be a real square matrix."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSymmetric(f"expected a square matrix, got shape {m.shape}")
    if np.iscomplexobj(m):
        raise NonSymmetric(f"expected a real matrix, got dtype {m.dtype}")
    return m


def _stack(mats: list[np.ndarray]) -> np.ndarray:
    """One float64 stack at the largest order (mats come largest first), each
    matrix written into the trailing block of its slot, and -0.0 read as 0.0."""
    top = len(mats[0])
    a = np.zeros((len(mats), top, top))
    for slot, m in zip(a, mats):
        slot[top - len(m):, top - len(m):] = m
    if not (a == a.swapaxes(1, 2)).all():
        raise NonSymmetric("matrix is not exactly symmetric")
    a += 0.0  # -0.0 + 0.0 is 0.0; _tridiagonalize relies on having no -0.0
    return a


def _tridiagonalize(a: np.ndarray, orders: list[int]) -> None:
    """Householder reduction of a stack from _stack, in place: afterwards each
    matrix's diagonal and subdiagonal hold its tridiagonal form.

    orders[i] is the order of a[i].  Step k runs on the prefix of the stack
    whose matrices have begun their own steps, each on vectors of exactly
    its own length.  No entry a step reads is -0.0: the stack has none, and
    b - s is -0.0 only when b is.
    """
    top = a.shape[1]
    ascending = orders[::-1]
    for k in range(top - 2):
        s = a[:len(orders) - bisect.bisect_left(ascending, top - k)]
        x = s[:, k + 1:, k]
        x0 = x[:, 0]
        c = np.copysign(np.sqrt(np.vecdot(x, x)), x0)  # -alpha
        x0 += c
        u = x.copy()
        # a zero column gets beta = 0: its update is +-0.0, which changes no
        # entry, and its stored -alpha is a zero in place of a zero or of a
        # value too small to square, which QL deflates alike
        beta = np.array([2.0 / v if v else 0.0 for v in np.vecdot(u, u).tolist()])
        b = s[:, k + 1:, k + 1:]
        p = beta[:, None] * np.matvec(b, u)
        w = p - (0.5 * beta * np.vecdot(u, p))[:, None] * u
        t = w[:, :, None] * u[:, None, :]
        b -= t + t.swapaxes(1, 2)
        # later steps read only the trailing block and this subdiagonal entry
        np.negative(c, out=x0)


def _ql_implicit(d: list[float], e: list[float]) -> list[float]:
    """Implicit-shift QL on a tridiagonal; overwrites d with the eigenvalues."""
    n = len(d)
    if n <= 1:
        return d
    if n == 2:
        # the exact Jacobi values; keeps small integer spectra exact
        if e[0] != 0.0:
            tau = (d[1] - d[0]) / (2.0 * e[0])
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
            d[0] -= t * e[0]
            d[1] += t * e[0]
        return d
    ee = e + [0.0]
    scale = max(1.0, max(map(abs, d)) + max(map(abs, ee)))
    thresh = _DEFLATE * scale
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1 and abs(ee[m]) > thresh:
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > _MAX_SWEEPS:
                raise NoConvergence(f"eigenvalue {l} did not settle in {_MAX_SWEEPS} sweeps")
            g = (d[l + 1] - d[l]) / (2.0 * ee[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + ee[l] / (g + math.copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * ee[i]
                b = c * ee[i]
                r = math.hypot(f, g)
                ee[i + 1] = r
                if r == 0.0:
                    # underflow: deflate at i + 1 and sweep again
                    d[i + 1] -= p
                    ee[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                ee[l] = g
                ee[m] = 0.0
    return d


def eigenvalues_many(mats) -> list[np.ndarray]:
    """The eigenvalues of each symmetric matrix in mats, sorted ascending;
    each equals what that matrix gives when solved alone, bit for bit."""
    mats = [_square(m) for m in mats]
    slots = sorted(range(len(mats)), key=lambda i: len(mats[i]), reverse=True)
    spectra = [None] * len(mats)
    while slots:
        top = len(mats[slots[0]])
        chunk = slots[:max(1, _STACK_ENTRIES // max(1, top * top))]
        slots = slots[len(chunk):]
        orders = [len(mats[i]) for i in chunk]
        a = _stack([mats[i] for i in chunk])
        _tridiagonalize(a, orders)
        for i, n, d, e in zip(chunk, orders, np.diagonal(a, 0, 1, 2).tolist(),
                              np.diagonal(a, -1, 1, 2).tolist()):
            spectra[i] = np.sort(_ql_implicit(d[top - n:], e[top - n:]))
    return spectra


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending."""
    return eigenvalues_many([m])[0]


def rayleigh(m, x: Sequence[float]) -> float:
    """x^T m x / x^T x; always lies between the extreme eigenvalues."""
    a = np.asarray(_square(m), dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if len(x) != len(a):
        raise LengthMismatch(f"vector has length {len(x)}, matrix order is {len(a)}")
    denom = float(x @ x)
    if denom == 0.0:
        raise ZeroVector("Rayleigh quotient of the zero vector")
    return float(x @ (a @ x)) / denom


# --- exact characteristic-polynomial oracle (order <= 6) -------------------
#
# Polynomials are coefficient lists of Fractions, lowest degree first.

_ORACLE_MAX_DIM = 6
_ROOT_WIDTH = Fraction(1, 2**50)


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_deriv(p: list[Fraction]) -> list[Fraction]:
    if len(p) <= 1:
        return [Fraction(0)]
    return _poly_trim([k * c for k, c in enumerate(p)][1:])


def _poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = a[:]
    db, lb = len(b) - 1, b[-1]
    quot = [Fraction(0)] * max(1, len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        factor = a[k] / lb
        quot[k - db] = factor
        for j in range(db + 1):
            a[k - db + j] -= factor * b[j]
    return _poly_trim(quot), _poly_trim(a)


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _poly_trim(out)


def _poly_monic(p: list[Fraction]) -> list[Fraction]:
    lead = p[-1]
    return [c / lead for c in p]


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while not (len(b) == 1 and b[0] == 0):
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return _poly_monic(a)


def _squarefree_factors(p: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun's decomposition of monic p into (square-free factor, multiplicity)."""
    dp = _poly_deriv(p)
    g = _poly_gcd(p, dp)
    if len(g) == 1:
        return [(_poly_monic(p), 1)]
    b, _ = _poly_divmod(p, g)
    c, _ = _poly_divmod(dp, g)
    d = _poly_sub(c, _poly_deriv(b))
    factors = []
    mult = 1
    while len(b) > 1:
        a = _poly_gcd(b, d)
        if len(a) > 1:
            factors.append((_poly_monic(a), mult))
        b, _ = _poly_divmod(b, a)
        c, _ = _poly_divmod(d, a)
        d = _poly_sub(c, _poly_deriv(b))
        mult += 1
    return factors


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [p, _poly_deriv(p)]
    while len(chain[-1]) > 1:
        _, r = _poly_divmod(chain[-2], chain[-1])
        if len(r) == 1 and r[0] == 0:
            break
        chain.append([-c for c in r])
    return chain


def _sign_changes(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _refine_root(p: list[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    """Bisect the single simple root of p inside (lo, hi]."""
    if _poly_eval(p, hi) == 0:
        return hi
    fa = _poly_eval(p, lo)
    if fa == 0:
        # lo is itself a (different, uncounted) root; p is square-free, so
        # the sign just right of lo is the derivative's sign there
        fa = _poly_eval(_poly_deriv(p), lo)
    sign_lo = 1 if fa > 0 else -1
    while hi - lo > _ROOT_WIDTH:
        mid = (lo + hi) / 2
        val = _poly_eval(p, mid)
        if val == 0:
            return mid
        if (1 if val > 0 else -1) == sign_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _isolated_real_roots(p: list[Fraction], lo: Fraction, hi: Fraction) -> list[Fraction]:
    """All real roots of square-free monic p inside (lo, hi]."""
    if len(p) == 2:
        return [-p[0] / p[1]]
    chain = _sturm_chain(p)
    roots: list[Fraction] = []
    stack = [(lo, hi, _sign_changes(chain, lo) - _sign_changes(chain, hi))]
    while stack:
        a, b, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            roots.append(_refine_root(p, a, b))
            continue
        mid = (a + b) / 2
        left = _sign_changes(chain, a) - _sign_changes(chain, mid)
        stack.append((a, mid, left))
        stack.append((mid, b, count - left))
    return roots


def _fraction_matrix(m: np.ndarray) -> list[list[Fraction]]:
    n = m.shape[0]
    if np.issubdtype(m.dtype, np.integer):
        return [[Fraction(int(m[i, j])) for j in range(n)] for i in range(n)]
    return [[Fraction(float(m[i, j])) for j in range(n)] for i in range(n)]


def characteristic_polynomial(m) -> list[Fraction]:
    """Exact monic coefficients of det(xI - m), lowest degree first.

    Faddeev-LeVerrier recurrence over rationals; float entries convert
    exactly, so no rounding enters the coefficients.
    """
    m = np.asarray(m)
    n = m.shape[0]
    a = _fraction_matrix(m)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    work = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    prev_c = Fraction(0)
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                work[i][i] += prev_c
        am = [[sum(a[i][t] * work[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        prev_c = c
        work = am
    return coeffs


def _gershgorin_bounds(m: np.ndarray) -> tuple[Fraction, Fraction]:
    a = _fraction_matrix(m)
    n = len(a)
    lo = Fraction(0)
    hi = Fraction(0)
    for i in range(n):
        radius = sum(abs(a[i][j]) for j in range(n) if j != i)
        lo = min(lo, a[i][i] - radius)
        hi = max(hi, a[i][i] + radius)
    return lo - 1, hi + 1


def charpoly_spectrum_oracle(m) -> np.ndarray:
    """Eigenvalues of a symmetric matrix of order <= 6, computed without the
    iterative solver: exact characteristic polynomial, Yun square-free split,
    Sturm bisection within Gershgorin bounds.  Multiplicities are exact.
    """
    a = _square(m)
    if not np.array_equal(a, a.T):
        raise NonSymmetric("matrix is not exactly symmetric")
    n = a.shape[0]
    if n > _ORACLE_MAX_DIM:
        raise DimensionTooLarge(f"oracle accepts order <= {_ORACLE_MAX_DIM}, got {n}")
    if n == 0:
        return np.zeros(0)
    poly = characteristic_polynomial(a)
    lo, hi = _gershgorin_bounds(a)
    values: list[float] = []
    for factor, mult in _squarefree_factors(poly):
        for root in _isolated_real_roots(factor, lo, hi):
            values.extend([float(root)] * mult)
    if len(values) != n:
        raise NoConvergence(f"root isolation found {len(values)} of {n} eigenvalues")
    return np.sort(np.array(values))


def determinant_oracle(m) -> float:
    """Determinant via the exact characteristic polynomial's constant term."""
    m = np.asarray(m)
    n = m.shape[0]
    if n > _ORACLE_MAX_DIM:
        raise DimensionTooLarge(f"oracle accepts order <= {_ORACLE_MAX_DIM}, got {n}")
    if n == 0:
        return 1.0
    coeffs = characteristic_polynomial(m)
    return float(coeffs[0] if n % 2 == 0 else -coeffs[0])


# --- closed-form spectra used as fixtures -----------------------------------

def closed_form_cycle_spectrum(n: int, balanced: bool) -> np.ndarray:
    """Laplacian spectrum of a signed n-cycle, by balance class.

    Balanced cycles switch to all-positive: 2 - 2cos(2*pi*k/n).  Unbalanced
    cycles switch to a single negative edge: 2 - 2cos((2k+1)*pi/n).
    """
    if n < 3:
        raise BadOrder(f"cycle needs n >= 3, got {n}")
    if balanced:
        vals = [2.0 - 2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n)]
    else:
        vals = [2.0 - 2.0 * math.cos((2 * k + 1) * math.pi / n) for k in range(n)]
    return np.sort(np.array(vals))


def closed_form_path_spectrum(n: int) -> np.ndarray:
    """Laplacian spectrum of a path on n vertices: 2 - 2cos(k*pi/n)."""
    if n < 1:
        raise BadOrder(f"path needs n >= 1, got {n}")
    vals = [2.0 - 2.0 * math.cos(math.pi * k / n) for k in range(n)]
    return np.sort(np.array(vals))
