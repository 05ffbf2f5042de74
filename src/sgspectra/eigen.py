"""Dense symmetric eigensolver and independent small-matrix oracles.

The solver is self-contained: Householder tridiagonalization followed by
implicit-shift QL on the tridiagonal form.  Iteration is capped at 64 sweeps
per eigenvalue and off-diagonals below 1e-15 * scale are deflated to zero.
It computes eigenvalues only, since no check reads an eigenvector.  The QL
sweeps run on Python floats, which round as float64 does and index faster.
A sweep notes the lowest off-diagonal it leaves at or below the deflation
threshold and hands that point to the next sweep, or, once its eigenvalue
has settled, to the next eigenvalue; only an eigenvalue handed no point
scans for one, and the scan stops at the last off-diagonal slot, which
stays 0.0.  The deflation points, sweep counts and float operations are
those of the textbook scan (tql1), so the spectra are the same bits.

eigenvalues_stack solves a stack of matrices with one Householder reduction,
which runs over the stack with np.vecdot and np.matvec (numpy >= 2.2) on a
leading batch axis.  The stack is front-padded: a matrix of order n sits in
the trailing block of a zero slot of the stack's order top.  Its first
top - n steps are then no-ops, which the reduction skips, and each of its own
steps slices vectors of exactly its own length and applies the same float64
operations in the same order as a lone solve.  So a spectrum does not depend
on what it is solved with: bit for bit, it is what the matrix gives alone.
Padding at the end would not keep this, since dot products over padded
lengths round differently (by up to 2.7e-15 * scale).  For the same reason a
slot that repeats an earlier one of the stack (same order and bytes) is
solved once and gets a copy of its spectrum; nothing is kept between calls.
An entry -0.0 is read as 0.0.  The campaign and the checkers write their
stacks with matrices.assemble; eigenvalues is the front end for one array: it
widens it to float64 and solves it as a stack of one.  It raises NonSymmetric
unless its matrix is real, square, exactly symmetric and finite.

charpoly_spectrum_oracle takes a completely different route, at any order:
characteristic-polynomial coefficients by the Faddeev-LeVerrier recurrence in
exact rational arithmetic, then bisection by the Budan-Fourier count of sign
changes in the polynomial and its derivatives, which is exact because a
symmetric matrix has only real eigenvalues; an isolated root is refined by
bisection with p evaluated in integers at each dyadic point.  Every sign
evaluation is exact, so the oracle is immune to the iterative solver's
failure modes and is used to cross-validate it.  Before rounding to float,
it finds each eigenvalue within 2^-51, exactly when it is a multiple of 2^-51.
"""
from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    LengthMismatch,
    NoConvergence,
    NonSymmetric,
    ZeroVector,
)
from .graphs import _family_order

_DEFLATE = 1e-15
_MAX_SWEEPS = 64


def _square(m) -> np.ndarray:
    """m as an array, once it is known to be a real square matrix; an object
    array comes back as float64."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSymmetric(f"expected a square matrix, got shape {m.shape}")
    real = not np.iscomplexobj(m)
    if real and m.dtype.kind == "O":
        try:
            m = m.astype(np.float64)
        except TypeError:  # a complex entry
            real = False
    if not real:
        raise NonSymmetric(f"expected a real matrix, got dtype {m.dtype}")
    return m


def _real_vector(x, n: int | None = None, nonfinite: str | None = None) -> np.ndarray:
    """x as float64, once it is a real vector (of length n unless n is None).

    Raises LengthMismatch otherwise, a complex entry inside an object array
    included, and ValueError(nonfinite) on a non-finite entry unless
    nonfinite is None.
    """
    x = np.asarray(x)
    real = None
    if x.ndim == 1 and n in (None, len(x)) and not np.iscomplexobj(x):
        try:
            real = x.astype(np.float64)
        except TypeError:  # a complex entry in an object array
            pass
    if real is None:
        length = "" if n is None else f" of length {n}"
        raise LengthMismatch(f"expected a real vector{length}, got {x.dtype} {x.shape}")
    if nonfinite is not None and not np.isfinite(real).all():
        raise ValueError(nonfinite)
    return real


def _tridiagonalize(a: np.ndarray, orders: list[int]) -> None:
    """Householder reduction of a front-padded stack, in place: afterwards each
    matrix's diagonal and subdiagonal hold its tridiagonal form.

    orders[i] is the order of a[i], largest first.  Step k runs on the prefix
    of the stack whose matrices have begun their own steps, each on vectors
    of exactly its own length.  No entry a step reads is -0.0: the stack has
    none, and b - s is -0.0 only when b is.
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
    # m is the deflation point: the lowest index >= l whose |ee| is not above
    # thresh.  A sweep at (l, m) rewrites exactly ee[l..m] and leaves ee[m] at
    # 0.0, so it finds the next m among the values it writes, and when ee[l]
    # settles that m is l + 1's.  Only an eigenvalue handed no point (m < l)
    # scans for one; the scan needs no bound, since ee[n - 1] is 0.0 at every
    # scan and thresh > 0.
    m = -1
    for l in range(n):
        if m < l:
            m = l
            while abs(ee[m]) > thresh:
                m += 1
        sweeps = 0
        while m > l:
            sweeps += 1
            if sweeps > _MAX_SWEEPS:
                raise NoConvergence(f"eigenvalue {l} did not settle in {_MAX_SWEEPS} sweeps")
            g = (d[l + 1] - d[l]) / (2.0 * ee[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + ee[l] / (g + math.copysign(r, g))
            s = 1.0
            c = 1.0
            p = 0.0
            low = m  # the lowest index of ee[l + 1..m] not above thresh
            for i in range(m - 1, l - 1, -1):
                f = s * ee[i]
                b = c * ee[i]
                r = math.hypot(f, g)
                ee[i + 1] = r
                if not r > thresh:
                    low = i + 1
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
                if not abs(g) > thresh:
                    # eigenvalue l has settled; l + 1 starts at low
                    m = low
                    break
            m = low
    return d


def eigenvalues_stack(a: np.ndarray, orders: list[int]) -> list[np.ndarray]:
    """The eigenvalues of each matrix of a front-padded float64 stack, sorted
    ascending; each equals what that matrix gives when solved alone, bit for bit.

    orders[i] is the order of a[i], whose matrix fills its trailing block; the
    rest of the slot is zero.  The slots may come in any order.  A slot with
    the order and bytes of an earlier one is not solved again: it gets its own
    copy of that slot's spectrum.  The order is part of that key because a
    padded slot of order n and one of order n + 1 with a zero first row and
    column have equal bytes.  a may be overwritten.  Raises NonSymmetric
    unless each matrix is exactly symmetric with finite entries.
    """
    first: dict = {}  # (order, bytes) -> index of the first such slot
    source = [first.setdefault(key, i) for i, key in enumerate(zip(orders, map(np.ndarray.tobytes, a)))]
    slots = sorted((i for i, j in enumerate(source) if i == j), key=orders.__getitem__, reverse=True)
    if slots != list(range(len(orders))):
        a = a[slots]
    if not (a == a.swapaxes(1, 2)).all():
        raise NonSymmetric("matrix is not exactly symmetric")
    if not np.isfinite(a).all():
        raise NonSymmetric("expected finite entries")
    a += 0.0  # -0.0 + 0.0 is 0.0; _tridiagonalize relies on having no -0.0
    top = a.shape[1]
    kept = [orders[i] for i in slots]
    _tridiagonalize(a, kept)
    spectra = [None] * len(orders)
    for i, n, d, e in zip(slots, kept, np.diagonal(a, 0, 1, 2).tolist(), np.diagonal(a, -1, 1, 2).tolist()):
        spectra[i] = np.sort(_ql_implicit(d[top - n:], e[top - n:]))
    return [spectra[i] if i == j else spectra[j].copy() for i, j in enumerate(source)]


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending.

    Raises NonSymmetric unless m is a real, exactly symmetric square matrix
    with finite entries.
    """
    m = _square(m)
    return eigenvalues_stack(np.array(m, dtype=np.float64)[None], [len(m)])[0]


def rayleigh(m, x: Sequence[float]) -> float:
    """x^T m x / x^T x; always lies between the extreme eigenvalues.

    Raises NonSymmetric unless m is a real square matrix, LengthMismatch unless
    x is a real vector of its order, ValueError on a non-finite entry, and
    ZeroVector for x = 0.
    """
    a = np.asarray(_square(m), dtype=np.float64)
    x = _real_vector(x, len(a), "Rayleigh quotient of non-finite entries")
    if not np.isfinite(a).all():
        raise ValueError("Rayleigh quotient of non-finite entries")
    denom = float(x @ x)
    if denom == 0.0:
        raise ZeroVector("Rayleigh quotient of the zero vector")
    return float(x @ (a @ x)) / denom


# --- exact characteristic-polynomial oracle --------------------------------
#
# Polynomials are coefficient lists of Fractions, lowest degree first.

_ROOT_WIDTH = Fraction(1, 2**50)


def _poly_eval(p: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _refine_root(p: list[Fraction], lo: Fraction, hi: Fraction, positive: bool) -> Fraction:
    """Bisect the single simple root of p inside (lo, hi), dyadic rationals;
    positive tells whether p is positive just right of lo.

    p is evaluated in integers: at j / 2^s, the value of scale * p times
    2^(s * deg p), for scale the lcm of p's denominators, has p's sign.
    """
    scale = math.lcm(*(c.denominator for c in p))
    coeffs = [c.numerator * (scale // c.denominator) for c in reversed(p)]
    s = max(lo.denominator, hi.denominator).bit_length() - 1
    a = lo.numerator << (s - lo.denominator.bit_length() + 1)  # lo = a / 2^s
    b = hi.numerator << (s - hi.denominator.bit_length() + 1)  # hi = b / 2^s
    while (b - a) * _ROOT_WIDTH.denominator > 1 << s:
        mid = a + b  # (lo + hi) / 2 = mid / 2^(s + 1)
        s += 1
        val = 0
        for k, c in enumerate(coeffs):  # Horner, homogenised by powers of 2^s
            val = val * mid + (c << (s * k))
        if val == 0:
            return Fraction(mid, 1 << s)
        if (val > 0) == positive:
            a, b = mid, 2 * b
        else:
            a, b = 2 * a, mid
    return Fraction(a + b, 1 << (s + 1))


def characteristic_polynomial(m) -> list[Fraction]:
    """Exact monic coefficients of det(xI - m), lowest degree first.

    Faddeev-LeVerrier recurrence over rationals; float entries convert
    exactly, so no rounding enters the coefficients.  Raises NonSymmetric
    unless m is a real square matrix with finite entries.
    """
    m = _square(m)
    n = m.shape[0]
    # entries as exact rationals: integers as they are, the rest as floats
    if not np.issubdtype(m.dtype, np.integer):
        m = m.astype(np.float64)
        if not np.isfinite(m).all():
            raise NonSymmetric("expected finite entries")
    a = [[Fraction(x) for x in row] for row in m.tolist()]
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


def charpoly_spectrum_oracle(m) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, computed without the iterative
    solver: the exact characteristic polynomial p, then bisection of (-B, B),
    where B is the power of two above the Cauchy bound 1 + max |c_i| of the
    monic p, by the Budan-Fourier count of p, p', ..., p^(n).

    The roots are real, so the count is exact on every interval, multiplicity
    included.  Bisection stops at intervals of width 2^-50 and gives their
    midpoints: before rounding to float, each eigenvalue is found within 2^-51,
    and exactly when it is a multiple of 2^-51 (0.25, 3, 1 + 3 * 2^-51; not 0.1
    or 1 + 2^-52).  Roots more than 2^-50 apart keep their multiplicities;
    roots that share such an interval are each given as its midpoint.
    """
    a = _square(m)
    if not np.array_equal(a, a.T):
        raise NonSymmetric("matrix is not exactly symmetric")
    n = a.shape[0]
    poly = characteristic_polynomial(a)
    derivs = [poly]
    while len(derivs[-1]) > 1:
        derivs.append([k * c for k, c in enumerate(derivs[-1])][1:])
    top = Fraction(1 << math.ceil(1 + max(map(abs, poly[:-1]), default=0)).bit_length())
    values: list[float] = []
    # (lo, hi, whether p is positive just right of lo, sign changes of the
    # sequence just right of lo and just left of hi); their difference counts
    # the roots in (lo, hi).  At -top the sequence alternates in sign, at top
    # it is positive.
    stack = [(-top, top, n % 2 == 0, n, 0)]
    while stack:
        lo, hi, positive, left, right = stack.pop()
        count = left - right
        if count == 1:
            values.append(float(_refine_root(poly, lo, hi, positive)))
        elif count and hi - lo <= _ROOT_WIDTH:
            values.extend([float((lo + hi) / 2)] * count)
        elif count:
            mid = (lo + hi) / 2
            at = [_poly_eval(d, mid) for d in derivs]
            # with zeros dropped these are the changes just right of mid; a
            # root there of multiplicity mult (p, ..., p^(mult-1) vanish) adds
            # mult more just left of it
            mult = next(k for k, v in enumerate(at) if v)
            signs = [v > 0 for v in at if v]
            changes = sum(s != t for s, t in zip(signs, signs[1:]))
            values.extend([float(mid)] * mult)
            stack.append((lo, mid, positive, left, changes + mult))
            stack.append((mid, hi, signs[0], changes, right))
    if len(values) != n:
        raise NoConvergence(f"root isolation found {len(values)} of {n} eigenvalues")
    return np.sort(np.array(values))


def determinant_oracle(m) -> float:
    """Determinant: (-1)^n times the exact characteristic polynomial's constant term."""
    coeffs = characteristic_polynomial(m)
    return float(coeffs[0] if len(coeffs) % 2 else -coeffs[0])


# --- closed-form spectra used as fixtures -----------------------------------

def closed_form_cycle_spectrum(n: int, balanced: bool) -> np.ndarray:
    """Laplacian spectrum of a signed n-cycle, n an integer >= 3 (else BadOrder), by balance class.

    Balanced cycles switch to all-positive: 2 - 2cos(2*pi*k/n).  Unbalanced
    cycles switch to a single negative edge: 2 - 2cos((2k+1)*pi/n).
    """
    n = _family_order("cycle", n)
    if balanced:
        vals = [2.0 - 2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n)]
    else:
        vals = [2.0 - 2.0 * math.cos((2 * k + 1) * math.pi / n) for k in range(n)]
    return np.sort(np.array(vals))


def closed_form_path_spectrum(n: int) -> np.ndarray:
    """Laplacian spectrum of a path on n >= 1 vertices (else BadOrder): 2 - 2cos(k*pi/n)."""
    n = _family_order("path", n)
    vals = [2.0 - 2.0 * math.cos(math.pi * k / n) for k in range(n)]
    return np.sort(np.array(vals))
