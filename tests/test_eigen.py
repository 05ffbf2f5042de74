"""Eigensolver against frozen values, closed forms and the exact oracle."""
import inspect
import math
import random
import struct
import sys
import types

import numpy as np
import pytest

import sgspectra as sg
from sgspectra import eigen
from sgspectra.eigen import characteristic_polynomial, eigenvalues_stack
from sgspectra.errors import (
    BadOrder,
    LengthMismatch,
    NoConvergence,
    NonSymmetric,
    ZeroDenominator,
    ZeroVector,
)
from sgspectra.verify import _STACK_ENTRIES, CampaignConfig, run_campaign


def random_int_symmetric(rng, n, span=4):
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = rng.randrange(-span, span + 1)
    return a


class TestEigenvalues:
    def test_zero_matrix(self):
        assert sg.eigenvalues(np.zeros((3, 3))).tolist() == [0.0, 0.0, 0.0]

    def test_k2_negative_laplacian(self):
        # charpoly x^2 - 2x -> roots 0, 2
        w = sg.eigenvalues(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert w == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_k2_negative_net_laplacian(self):
        # charpoly x^2 + 2x -> roots -2, 0
        w = sg.eigenvalues(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        assert w == pytest.approx([-2.0, 0.0], abs=1e-12)

    def test_dim_one_and_zero(self):
        assert sg.eigenvalues(np.array([[5.0]])).tolist() == [5.0]
        assert sg.eigenvalues(np.zeros((0, 0))).size == 0

    def test_non_symmetric_rejected(self):
        with pytest.raises(NonSymmetric):
            sg.eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(NonSymmetric):
            sg.eigenvalues(np.ones((2, 3)))

    def test_sweep_cap_raises(self, monkeypatch):
        import sgspectra.eigen as eigen_mod
        monkeypatch.setattr(eigen_mod, "_MAX_SWEEPS", 0)
        with pytest.raises(eigen_mod.NoConvergence):
            sg.eigenvalues(sg.laplacian(sg.generate("cycle", 5)).astype(float))

    def test_sorted_output(self):
        rng = random.Random(3)
        for _ in range(50):
            a = random_int_symmetric(rng, rng.randrange(1, 13))
            w = sg.eigenvalues(a.astype(float))
            scale = max(1.0, np.abs(w).max())
            assert all(w[i] <= w[i + 1] + 1e-12 * scale for i in range(len(w) - 1))

    def test_trace_matches_sum(self):
        rng = random.Random(4)
        for _ in range(100):
            a = random_int_symmetric(rng, rng.randrange(1, 13))
            w = sg.eigenvalues(a.astype(float))
            scale = max(1.0, np.abs(w).max())
            assert abs(w.sum() - np.trace(a)) <= 1e-9 * scale

    def test_conjugation_invariance(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randrange(1, 11)
            a = random_int_symmetric(rng, n).astype(float)
            s = np.diag([rng.choice((1.0, -1.0)) for _ in range(n)])
            w1 = sg.eigenvalues(a)
            w2 = sg.eigenvalues(s @ a @ s)
            scale = max(1.0, np.abs(w1).max())
            assert np.abs(w1 - w2).max() <= 1e-9 * scale

    def test_balanced_laplacian_nonnegative_with_zero(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randrange(2, 11)
            base = sg.random_signed_graph(n, 0.5, 0.0, seed=rng.randrange(10**6))
            alpha = tuple(rng.choice((1, -1)) for _ in range(n))
            g = sg.apply_switching(base, alpha)  # balanced by construction
            w = sg.eigenvalues(sg.laplacian(g).astype(float))
            scale = max(1.0, np.abs(w).max())
            assert w[0] >= -1e-9 * scale
            if sg.is_connected(g):
                assert abs(w[0]) <= 1e-9 * scale

    def test_matches_lapack_above_order_12(self):
        # the campaign solves orders up to 64; LAPACK is the reference here
        graphs = [sg.random_signed_graph(n, p, 0.5, seed=n)
                  for n in range(13, 65, 3) for p in (0.1, 0.5, 0.9)]
        # complete graphs have repeated eigenvalues; the empty graph gives
        # sigma == 0 at every Householder step
        graphs += [sg.generate("complete", n, "random", seed=n) for n in (16, 33, 64)]
        graphs.append(sg.generate("empty", 20))
        for g in graphs:
            for build in (sg.laplacian, sg.net_laplacian, sg.normalized_net_laplacian):
                m = build(g).astype(float)
                ref = np.linalg.eigvalsh(m)
                scale = max(1.0, np.abs(ref).max())
                assert np.abs(sg.eigenvalues(m) - ref).max() <= 1e-12 * scale


def mixed_batch(seed):
    """Matrices of orders 0..23 in shuffled order: the three graph matrices of
    sparse and dense random graphs (zero columns included), random integer
    and float symmetric matrices, zero matrices and exact 1x1 and 2x2 cases."""
    rng = random.Random(seed)
    builders = (sg.laplacian, sg.net_laplacian, sg.normalized_net_laplacian)
    mats = [build(sg.random_signed_graph(n, p, 0.5, seed=rng.randrange(10**6)))
            for n in range(24) for p in (0.1, 0.9) for build in builders]
    for _ in range(40):
        n = rng.randrange(1, 24)
        a = random_int_symmetric(rng, n).astype(float)
        mats += [a, a * rng.uniform(1e-3, 1e3)]
    mats += [np.zeros((n, n)) for n in (0, 1, 3, 7)]
    mats += [np.array([[5.0]]), np.array([[1.0, 1.0], [1.0, 1.0]])]
    rng.shuffle(mats)
    return mats


def spectrum_bytes(w):
    return w.dtype.str, w.shape, w.tobytes()


def solve_padded(mats):
    """eigenvalues_stack on mats written by hand into one front-padded float64
    stack: each matrix in the trailing block of a zero slot."""
    top = max(map(len, mats), default=0)
    a = np.zeros((len(mats), top, top))
    for slot, m in zip(a, mats):
        slot[top - len(m):, top - len(m):] = m
    return eigenvalues_stack(a, [len(m) for m in mats])


class TestEigenvaluesMany:
    def test_one_call_equals_each_matrix_alone(self):
        mats = mixed_batch(12)
        alone = [spectrum_bytes(sg.eigenvalues(m)) for m in mats]
        assert [spectrum_bytes(w) for w in solve_padded(mats)] == alone
        rng = random.Random(13)
        for _ in range(20):
            pick = rng.sample(range(len(mats)), rng.randrange(1, 30))
            out = solve_padded([mats[i] for i in pick])
            assert [spectrum_bytes(w) for w in out] == [alone[i] for i in pick]

    def test_more_matrices_than_one_stack_holds(self):
        # more than two of the campaign's stacks, solved as one
        graphs = [sg.random_signed_graph(13, 0.5, 0.5, seed=s) for s in range(400)]
        mats = [sg.laplacian(g) for g in graphs] + [sg.normalized_net_laplacian(g) for g in graphs]
        assert len(mats) * 13 * 13 > 2 * _STACK_ENTRIES
        out = solve_padded(mats)
        assert [spectrum_bytes(w) for w in out] == [spectrum_bytes(sg.eigenvalues(m)) for m in mats]

    def test_matches_lapack(self):
        for m in mixed_batch(14):
            w = sg.eigenvalues(m)
            ref = np.linalg.eigvalsh(np.asarray(m, dtype=float)) if len(m) else np.zeros(0)
            scale = max(1.0, np.abs(ref).max(initial=0.0))
            assert w.shape == ref.shape
            assert np.abs(w - ref).max(initial=0.0) <= 1e-12 * scale

    def test_exact_small_cases_in_a_batch(self):
        big = sg.laplacian(sg.random_signed_graph(9, 0.5, 0.5, seed=1))
        out = solve_padded([np.zeros((0, 0)), np.array([[5.0]]), big,
                            np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros((4, 4)),
                            np.array([[-1, 1], [1, -1]])])
        assert out[0].shape == (0,) and out[0].dtype == np.float64
        assert out[1].tolist() == [5.0]
        assert out[3].tolist() == [0.0, 2.0]
        assert out[4].tolist() == [0.0] * 4
        assert out[5].tolist() == [-2.0, 0.0]

    def test_empty_list(self):
        assert eigenvalues_stack(np.zeros((0, 0, 0)), []) == []

    def test_repeats_are_solved_once_and_returned_as_copies(self, monkeypatch):
        import sgspectra.eigen as eigen_mod
        lap = sg.laplacian(sg.generate("cycle", 5))
        norm = sg.normalized_net_laplacian(sg.random_signed_graph(7, 0.6, 0.5, seed=3))
        zero, neg_zero = np.zeros((2, 2)), np.full((2, 2), -0.0)
        # lap.T (a non-contiguous view) and lap as float64 write lap's bytes
        # into the stack; -0.0 against 0.0 differ in bytes and are solved apart
        mats = [lap, norm, lap.copy(), lap.T, lap.astype(float), norm, zero, neg_zero, lap]
        alone = [spectrum_bytes(sg.eigenvalues(m)) for m in mats]
        calls = []
        real = eigen_mod._ql_implicit
        monkeypatch.setattr(eigen_mod, "_ql_implicit", lambda d, e: calls.append(len(d)) or real(d, e))
        out = solve_padded(mats)
        assert sorted(calls) == [2, 2, 5, 7]
        assert [spectrum_bytes(w) for w in out] == alone
        assert len({id(w) for w in out}) == len(out)
        assert not any(np.shares_memory(v, w) for i, v in enumerate(out) for w in out[i + 1:])
        out[0][:] = 99.0
        assert [spectrum_bytes(w) for w in out[1:]] == alone[1:]

    def test_stack_repeats_are_solved_once_and_returned_as_copies(self, monkeypatch):
        # the graph path's twin: a stack from matrices.assemble, whose slots
        # repeat when their bytes do, whatever builder or graph wrote them
        import sgspectra.eigen as eigen_mod
        from sgspectra.matrices import _flat, assemble
        g = sg.random_signed_graph(7, 0.6, 0.5, seed=3)
        pos = sg.random_signed_graph(5, 0.7, 0.0, seed=4)
        assert any(s < 0 for *_, s in g.edges) and pos.edges and all(s > 0 for *_, s in pos.edges)
        assert sg.laplacian(pos).tobytes() == sg.net_laplacian(pos).tobytes()
        slots = [(sg.laplacian, g), (sg.normalized_net_laplacian, g), (sg.laplacian, pos),
                 (sg.net_laplacian, pos), (sg.laplacian, g), (sg.net_laplacian, g),
                 (sg.laplacian, sg.generate("empty", 2)), (sg.normalized_net_laplacian, g),
                 (sg.net_laplacian, sg.generate("empty", 2))]
        alone = [spectrum_bytes(sg.eigenvalues(build(h))) for build, h in slots]
        calls = []
        real = eigen_mod._ql_implicit
        monkeypatch.setattr(eigen_mod, "_ql_implicit", lambda d, e: calls.append(len(d)) or real(d, e))
        stack = assemble([(build, h.n, _flat(h)) for build, h in slots])
        out = eigen_mod.eigenvalues_stack(stack, [h.n for _, h in slots])
        assert sorted(calls) == [2, 5, 7, 7, 7]
        assert [spectrum_bytes(w) for w in out] == alone
        assert not any(np.shares_memory(v, w) for i, v in enumerate(out) for w in out[i + 1:])
        out[0][:] = 99.0
        assert [spectrum_bytes(w) for w in out[1:]] == alone[1:]

    def test_equal_bytes_of_other_orders_are_solved_apart(self, monkeypatch):
        # in a stack of largest order 3, the padded order-2 matrix m and the
        # order-3 matrix of m below a zero first row and column have equal
        # bytes: the order keeps their spectra apart
        import sgspectra.eigen as eigen_mod
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        bordered = np.zeros((3, 3))
        bordered[1:, 1:] = m
        mats = [m, bordered, np.eye(2), 2 * np.eye(3), m, bordered]
        a = np.zeros((len(mats), 3, 3))
        for slot, x in zip(a, mats):
            slot[3 - len(x):, 3 - len(x):] = x
        assert a[0].tobytes() == a[1].tobytes()
        alone = [spectrum_bytes(sg.eigenvalues(x)) for x in mats]
        calls = []
        real = eigen_mod._ql_implicit
        monkeypatch.setattr(eigen_mod, "_ql_implicit", lambda d, e: calls.append(len(d)) or real(d, e))
        out = eigenvalues_stack(a, [len(x) for x in mats])
        assert [len(w) for w in out] == [2, 3, 2, 3, 2, 3]
        assert [spectrum_bytes(w) for w in out] == alone
        assert sorted(calls) == [2, 2, 3, 3]  # equal-order distinct slots each solved once

    def test_negative_zero_entries_read_as_zero(self):
        for m in mixed_batch(15)[:60]:
            a = np.array(m, dtype=float)
            a[a == 0.0] = -0.0
            b = np.array(m, dtype=float)
            b[b == 0.0] = 0.0
            assert spectrum_bytes(sg.eigenvalues(a)) == spectrum_bytes(sg.eigenvalues(b))

    @pytest.mark.parametrize("bad", [np.array([[0.0, 1.0], [0.5, 0.0]]), np.array([[math.nan]]),
                                     np.array([[0.0, math.inf], [math.inf, 0.0]]),
                                     np.diag([1.0, -math.inf, 2.0])])
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_rejects_a_bad_matrix_anywhere(self, bad, at):
        mats = [np.eye(3), sg.laplacian(sg.generate("cycle", 5)), np.zeros((2, 2))]
        mats.insert(at, bad)
        with pytest.raises(NonSymmetric):
            solve_padded(mats)

    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_rejects_a_complex_matrix_anywhere(self, at):
        # a complex entry at any position: an object array holding one cannot
        # be cast to float64, and a complex array is refused by its dtype
        m = np.eye(2, dtype=object)
        m.flat[at] = 2j
        for bad in (m, m.astype(complex)):
            with pytest.raises(NonSymmetric, match="expected a real matrix"):
                sg.eigenvalues(bad)

    def test_sweep_cap_raises_in_a_batch(self, monkeypatch):
        import sgspectra.eigen as eigen_mod
        monkeypatch.setattr(eigen_mod, "_MAX_SWEEPS", 0)
        with pytest.raises(NoConvergence):
            solve_padded([np.eye(2), sg.laplacian(sg.generate("cycle", 5)), np.zeros((3, 3))])


# --- the QL sweeps against the textbook QL (tql1), which scans for its
# deflation point before every sweep: the same float operations in the same
# order, so the same bytes, deflation points and NoConvergence --------------

_DEFLATE = eigen._DEFLATE
_MAX_SWEEPS = eigen._MAX_SWEEPS


def _reference_ql_implicit(d: list[float], e: list[float]) -> list[float]:
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


def _ql_outcome(ql, d, e):
    """The bytes ql leaves in a copy of d, or the type and message it raises."""
    try:
        return struct.pack(f"{len(d)}d", *ql(list(d), list(e)))
    except NoConvergence as exc:
        return type(exc), str(exc)


def _line_of(func, text):
    """The line number of the one line of func's source that is text, stripped."""
    lines, first = inspect.getsourcelines(func)
    (at,) = [first + k for k, line in enumerate(lines) if line.strip() == text]
    return at


def _traced_ql(ql, d, e):
    """Run ql on copies of d and e under a line tracer: the (l, m) of each
    sweep as it starts, and the l of each deflation-scan step."""
    code = ql.__code__
    sweep_line, scan_line = _line_of(ql, "sweeps += 1"), _line_of(ql, "m += 1")
    sweeps, scans = [], []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == sweep_line:
            sweeps.append((frame.f_locals["l"], frame.f_locals["m"]))
        elif event == "line" and frame.f_lineno == scan_line:
            scans.append(frame.f_locals["l"])
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        out = _ql_outcome(ql, d, e)
    finally:
        sys.settrace(previous)
    return out, sweeps, scans


def _campaign_tridiagonals(monkeypatch, config):
    """The distinct (d, e) pairs that config's campaign hands to the QL."""
    seen = {}
    solve = eigen._ql_implicit

    def spy(d, e):
        seen.setdefault((tuple(d), tuple(e)), None)
        return solve(d, e)

    with monkeypatch.context() as patch:
        patch.setattr(eigen, "_ql_implicit", spy)
        run_campaign(config)
    return [pair for pair in seen if len(pair[0]) >= 3]


def _random_tridiagonals(seed, count, n_max=64):
    """Seeded tridiagonals of orders 3..n_max at scales 1e-200..1e200, with
    exact zeros, subnormals and off-diagonals at and just around the
    deflation threshold."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(3, n_max)
        scale = 10.0 ** rng.choice((-200, -100, -8, 0, 3, 100, 200))

        def entry():
            u = rng.random()
            if u < 0.1:
                return 0.0
            if u < 0.15:
                return rng.choice((1, -1)) * rng.randint(1, 9) * 5e-324
            return rng.gauss(0.0, 1.0) * scale

        d = [entry() for _ in range(n)]
        e = [entry() for _ in range(n - 1)]
        # the largest |e| stays, so the solver's threshold is this one unless
        # every |e| is below 2 * thresh
        big = max(range(n - 1), key=lambda j: abs(e[j]))
        thresh = _DEFLATE * max(1.0, max(map(abs, d)) + abs(e[big]))
        for j in range(n - 1):
            if j != big and rng.random() < 0.15:
                e[j] = rng.choice((1.0, -1.0)) * rng.choice(
                    (thresh, math.nextafter(thresh, 0.0), math.nextafter(thresh, math.inf),
                     thresh * 0.5, thresh * 2.0))
        out.append((d, e))
    return out


_LARGE = dict(theorems=("T2.1", "L2.3", "T3.4", "L3.1", "B4", "T4.1"), n_min=32, n_max=64)


class TestQlAgainstReference:
    def test_campaign_tridiagonals_give_the_reference_bytes(self, monkeypatch):
        tri = _campaign_tridiagonals(monkeypatch, CampaignConfig(seed=3, samples=60))
        tri += _campaign_tridiagonals(monkeypatch, CampaignConfig(seed=3, samples=2, **_LARGE))
        assert len(tri) > 1000 and max(len(d) for d, _ in tri) > 32
        for d, e in tri:
            assert _ql_outcome(eigen._ql_implicit, d, e) == _ql_outcome(_reference_ql_implicit, d, e)

    def test_random_tridiagonals_give_the_reference_bytes(self):
        for d, e in _random_tridiagonals(7, 1500):
            assert _ql_outcome(eigen._ql_implicit, d, e) == _ql_outcome(_reference_ql_implicit, d, e)

    def test_sweeps_start_at_the_reference_deflation_points(self, monkeypatch):
        # the same (l, m) sweep for sweep.  Among them are interior deflations
        # (a sweep on l at a lower m than l's sweep before) and hand-ons (the
        # first sweep on l right after the last on l - 1), where no scan runs
        tri = _campaign_tridiagonals(monkeypatch, CampaignConfig(seed=3, samples=8))
        tri += _random_tridiagonals(8, 40, n_max=24)
        interior = handed = scans = reference_scans = 0
        for d, e in tri:
            out, sweeps, scanned = _traced_ql(eigen._ql_implicit, d, e)
            want, want_sweeps, want_scanned = _traced_ql(_reference_ql_implicit, d, e)
            assert (out, sweeps) == (want, want_sweeps)
            interior += sum(l == k and m < j for (k, j), (l, m) in zip(sweeps, sweeps[1:]))
            handed_on = {l for (k, _), (l, _) in zip(sweeps, sweeps[1:]) if l == k + 1}
            assert not handed_on & set(scanned)
            handed += len(handed_on)
            scans += len(scanned)
            reference_scans += len(want_scanned)
        assert interior > 0 and handed > 0
        assert scans < reference_scans / 3

    def test_a_settled_eigenvalue_hands_its_point_on_without_a_scan(self):
        # the cycle's Laplacian as a tridiagonal: every eigenvalue after the
        # first starts at the point its predecessor's last sweep found
        d, e = [2.0] * 6, [-1.0] * 5
        out, sweeps, scanned = _traced_ql(eigen._ql_implicit, d, e)
        want, want_sweeps, want_scanned = _traced_ql(_reference_ql_implicit, d, e)
        assert (out, sweeps) == (want, want_sweeps)
        assert {l for l, _ in sweeps} == {0, 1, 2, 3, 4}  # each after the one before
        # the one scan, for eigenvalue 0, stops at ee[5] == 0.0
        assert scanned == [0] * 5 and len(want_scanned) > 5

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_sweep_cap_raises_with_the_reference_message(self, monkeypatch, cap):
        monkeypatch.setattr(eigen, "_MAX_SWEEPS", cap)
        monkeypatch.setattr(sys.modules[__name__], "_MAX_SWEEPS", cap)
        tri = [([2.0] * n, [-1.0] * (n - 1)) for n in (3, 5, 9)]
        tri += _random_tridiagonals(cap, 150, n_max=16)
        raised = set()
        for d, e in tri:
            got = _ql_outcome(eigen._ql_implicit, d, e)
            assert got == _ql_outcome(_reference_ql_implicit, d, e)
            if isinstance(got, tuple):
                raised.add(got[1].split()[1])
        # raised at the first eigenvalue and at later ones
        assert "0" in raised and len(raised) > 1

    @pytest.mark.parametrize("call", [1, 2, 5, 9])
    def test_underflow_deflation_matches_the_reference(self, monkeypatch, call):
        # no finite input is known to make a rotation's hypot(f, g) zero, so
        # hypot is made to return 0.0 at one call of a sweep's rotations, in
        # both solvers alike
        count = [0]
        real = math.hypot

        def hypot(x, y):
            if y != 1.0:
                count[0] += 1
                if count[0] == call:
                    return 0.0
            return real(x, y)

        fake = types.SimpleNamespace(hypot=hypot, copysign=math.copysign)
        monkeypatch.setattr(eigen, "math", fake)
        monkeypatch.setattr(sys.modules[__name__], "math", fake)
        for d, e in [([2.0] * 7, [-1.0] * 6), ([float(k) for k in range(9)], [0.5] * 8)]:
            count[0] = 0
            out, sweeps, _ = _traced_ql(eigen._ql_implicit, d, e)
            assert count[0] >= call
            count[0] = 0
            assert (out, sweeps) == _traced_ql(_reference_ql_implicit, d, e)[:2]


class TestRayleigh:
    def test_basis_vector_gives_diagonal(self):
        a = np.array([[3.0, 1.0], [1.0, -2.0]])
        assert sg.rayleigh(a, [1.0, 0.0]) == 3.0

    def test_eigenvector_gives_eigenvalue(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert sg.rayleigh(a, [1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_bounded_by_extreme_eigenvalues(self):
        rng = random.Random(8)
        a = random_int_symmetric(rng, 7).astype(float)
        w = sg.eigenvalues(a)
        scale = max(1.0, np.abs(w).max())
        for _ in range(1000):
            x = [rng.uniform(-1, 1) for _ in range(7)]
            r = sg.rayleigh(a, x)
            assert w[0] - 1e-9 * scale <= r <= w[-1] + 1e-9 * scale

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            sg.rayleigh(np.eye(2), [0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch, match=r"real vector of length 3, got float64 \(2,\)"):
            sg.rayleigh(np.eye(3), [1.0, 0.0])

    @pytest.mark.parametrize("m", [np.ones((3, 2)), np.ones((3, 3, 3)), np.ones(3), np.float64(2.0)])
    def test_not_a_square_matrix(self, m):
        with pytest.raises(NonSymmetric, match="expected a square matrix"):
            sg.rayleigh(m, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("m", [np.array([[1, 2j], [-2j, 1]]), np.eye(2, dtype=complex)],
                             ids=["hermitian", "complex-eye"])
    def test_complex_matrix(self, m):
        with pytest.raises(NonSymmetric, match="expected a real matrix"):
            sg.rayleigh(m, [1.0, 1.0])


class TestCharpolyOracle:
    def test_dim_one(self):
        assert sg.charpoly_spectrum_oracle(np.array([[7]])).tolist() == [7.0]

    def test_triangle_laplacian(self):
        g = sg.generate("cycle", 3)
        w = sg.charpoly_spectrum_oracle(sg.laplacian(g))
        assert w == pytest.approx([0.0, 3.0, 3.0], abs=1e-10)

    def test_c4_laplacian(self):
        w = sg.charpoly_spectrum_oracle(sg.laplacian(sg.generate("cycle", 4)))
        assert w == pytest.approx([0.0, 2.0, 2.0, 4.0], abs=1e-10)

    def test_no_dimension_cap(self):
        assert sg.charpoly_spectrum_oracle(np.eye(7)).tolist() == [1.0] * 7
        assert sg.determinant_oracle(np.eye(7)) == 1.0
        assert sg.charpoly_spectrum_oracle(np.zeros((0, 0))).size == 0

    @pytest.mark.parametrize("n", range(7, 13))
    def test_agrees_with_solver_and_lapack_at_campaign_orders(self, n):
        # the campaign draws orders 4..12; the oracle has no order cap, so it
        # checks the solver on every matrix family at the orders it runs
        g = sg.random_signed_graph(n, 0.5, 0.5, seed=n)
        for build in (sg.laplacian, sg.net_laplacian, sg.normalized_net_laplacian):
            m = build(g)
            w_oracle = sg.charpoly_spectrum_oracle(m)
            w_lapack = np.linalg.eigvalsh(m.astype(float))
            scale = max(1.0, float(np.abs(w_lapack).max()))
            assert np.abs(w_oracle - sg.eigenvalues(m)).max() <= 1e-9 * scale
            assert np.abs(w_oracle - w_lapack).max() <= 1e-9 * scale
            # net-Laplacian and normalized matrices are singular: their
            # determinants are 0 up to rounding, so an absolute floor applies
            det = np.linalg.det(m.astype(float))
            assert sg.determinant_oracle(m) == pytest.approx(det, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("m, spectrum", [
        *[(sg.laplacian(sg.generate("cycle", n)), w)
          for n, w in [(3, [0, 3, 3]), (4, [0, 2, 2, 4]), (6, [0, 1, 1, 3, 3, 4])]],
        *[(sg.laplacian(sg.generate("complete", n)), [0] + [n] * (n - 1)) for n in range(2, 9)],
        *[(sg.laplacian(sg.generate("star", n)), [0] + [1] * (n - 2) + [n]) for n in range(2, 9)],
        (0.5 * np.eye(3), [0.5] * 3),
        (np.diag([0.25, -1.5, 3.0]), [-1.5, 0.25, 3.0]),
    ], ids=["C3", "C4", "C6", *[f"K{n}" for n in range(2, 9)], *[f"S{n}" for n in range(2, 9)],
            "half-identity", "dyadic-diagonal"])
    def test_dyadic_spectrum_exact(self, m, spectrum):
        # bisection points are dyadic, so these eigenvalues are hit exactly,
        # each as often as its multiplicity
        assert sg.charpoly_spectrum_oracle(m).tolist() == spectrum

    def test_roots_sharing_a_final_interval_come_out_as_its_midpoint(self):
        lo, hi = 1 / 3, float(np.nextafter(1 / 3, 1))
        w = sg.charpoly_spectrum_oracle(np.diag([lo, hi, 2.0])).tolist()
        assert w[0] == w[1] and w[2] == 2.0
        assert abs(w[0] - lo) <= 2**-50 and abs(w[0] - hi) <= 2**-50

    def test_only_multiples_of_2_to_the_minus_51_are_exact(self):
        x = 1 + 3 * 2**-51
        assert sg.charpoly_spectrum_oracle(np.diag([x, 5.0])).tolist() == [x, 5.0]
        y = 1 + 2**-52  # a float, so dyadic, but no multiple of 2^-51
        got = sg.charpoly_spectrum_oracle(np.diag([y, 5.0])).tolist()[0]
        assert got != y and abs(got - y) <= 2**-51

    def test_input_checks(self):
        with pytest.raises(NonSymmetric, match="not exactly symmetric"):
            sg.charpoly_spectrum_oracle(np.array([[0, 1], [2, 0]]))
        with pytest.raises(NonSymmetric, match="expected a square matrix"):
            sg.charpoly_spectrum_oracle(np.ones((2, 3)))
        with pytest.raises(NonSymmetric, match="expected a square matrix"):
            sg.charpoly_spectrum_oracle(np.ones((2, 2, 2)))
        w = sg.charpoly_spectrum_oracle(np.array([[1.0, -0.0], [0.0, 1.0]]))
        assert w.tolist() == [1.0, 1.0]

    def test_agrees_with_solver(self):
        rng = random.Random(9)
        for _ in range(150):
            a = random_int_symmetric(rng, rng.randrange(1, 6))
            w_fast = sg.eigenvalues(a.astype(float))
            w_oracle = sg.charpoly_spectrum_oracle(a)
            assert np.abs(w_fast - w_oracle).max() <= 1e-7

    def test_charpoly_coefficients_exact(self):
        # det(xI - [[1,1],[1,1]]) = x^2 - 2x
        coeffs = characteristic_polynomial(np.array([[1, 1], [1, 1]]))
        assert [int(c) for c in coeffs] == [0, -2, 1]

    def test_bisection_endpoint_landing_on_root(self):
        # regression: charpoly x^4 - 2x^3 - 39x^2 + 76x + 112 has the integer
        # root -1, which bisection hits exactly as an interval endpoint;
        # sign bookkeeping there once duplicated -1 and lost a root
        a = np.array([
            [1, 0, -1, -3],
            [0, 3, -4, 0],
            [-1, -4, -1, -3],
            [-3, 0, -3, -1],
        ])
        coeffs = characteristic_polynomial(a)
        assert [int(c) for c in coeffs] == [112, 76, -39, -2, 1]
        w = sg.charpoly_spectrum_oracle(a)
        assert np.abs(w - sg.eigenvalues(a.astype(float))).max() <= 1e-7
        assert abs(w[1] + 1.0) <= 1e-10 and w[2] > 3.0

    def test_determinant_from_charpoly(self):
        rng = random.Random(10)
        for _ in range(60):
            a = random_int_symmetric(rng, rng.randrange(1, 7))
            det = sg.determinant_oracle(a)
            w = sg.eigenvalues(a.astype(float))
            prod = float(np.prod(w)) if w.size else 1.0
            if abs(det) > 1e-6:
                assert prod == pytest.approx(det, rel=1e-6)
        assert sg.determinant_oracle(np.zeros((0, 0))) == 1.0

    def test_float_entries_handled_exactly(self):
        g = sg.generate("cycle", 4, [-1, 1, 1, 1])
        nb = sg.normalized_net_laplacian(g)
        w_fast = sg.eigenvalues(nb)
        w_oracle = sg.charpoly_spectrum_oracle(nb)
        assert np.abs(w_fast - w_oracle).max() <= 1e-7


class TestClosedForms:
    def test_balanced_c3(self):
        assert sg.closed_form_cycle_spectrum(3, True) == pytest.approx([0.0, 3.0, 3.0], abs=1e-12)

    def test_unbalanced_c3(self):
        assert sg.closed_form_cycle_spectrum(3, False) == pytest.approx([1.0, 1.0, 4.0], abs=1e-12)

    def test_balanced_c4(self):
        assert sg.closed_form_cycle_spectrum(4, True) == pytest.approx([0.0, 2.0, 2.0, 4.0], abs=1e-12)

    def test_path_p4_contains_surds(self):
        w = sg.closed_form_path_spectrum(4)
        assert w == pytest.approx([0.0, 2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)], abs=1e-12)

    def test_bad_order(self):
        with pytest.raises(BadOrder):
            sg.closed_form_cycle_spectrum(2, True)
        with pytest.raises(BadOrder):
            sg.closed_form_path_spectrum(0)

    _FORMS = {"balanced-cycle": lambda n: sg.closed_form_cycle_spectrum(n, True),
              "unbalanced-cycle": lambda n: sg.closed_form_cycle_spectrum(n, False),
              "path": sg.closed_form_path_spectrum}

    @pytest.mark.parametrize("order", [3.5, "3", True, np.float64(4.0)],
                             ids=["float", "str", "bool", "np.float64"])
    @pytest.mark.parametrize("form", list(_FORMS))
    def test_non_integer_order_raises_bad_order(self, form, order):
        family = form.split("-")[-1]
        with pytest.raises(BadOrder, match=f"^{family} order must be an integer, got "):
            self._FORMS[form](order)

    @pytest.mark.parametrize("form", list(_FORMS))
    def test_numpy_integer_order_accepted(self, form):
        assert np.array_equal(self._FORMS[form](np.int64(4)), self._FORMS[form](4))

    def test_solver_matches_closed_forms(self):
        for n in range(3, 13):
            bal = sg.eigenvalues(sg.laplacian(sg.generate("cycle", n)).astype(float))
            assert np.abs(bal - sg.closed_form_cycle_spectrum(n, True)).max() <= 1e-10
            unbal_graph = sg.generate("cycle", n, [-1] + [1] * (n - 1))
            unbal = sg.eigenvalues(sg.laplacian(unbal_graph).astype(float))
            assert np.abs(unbal - sg.closed_form_cycle_spectrum(n, False)).max() <= 1e-10


class TestEdgeDeletionShift:
    def test_psd_difference_bounds_spectra(self):
        # deleting an edge changes the Laplacian by a PSD rank-1 matrix with
        # eigenvalues {0,...,0,2}; ordered spectra differ by at most 2
        rng = random.Random(11)
        checked = 0
        while checked < 60:
            n = rng.randrange(2, 11)
            g = sg.random_signed_graph(n, 0.6, 0.5, seed=rng.randrange(10**6))
            if not g.edges:
                continue
            u, v, s = g.edges[rng.randrange(len(g.edges))]
            sub, _ = sg.delete_edge(g, u, v)
            diff = (sg.laplacian(g) - sg.laplacian(sub)).astype(float)
            w_diff = sg.eigenvalues(diff)
            assert w_diff == pytest.approx([0.0] * (n - 1) + [2.0], abs=1e-12)
            alpha = sg.eigenvalues(sg.laplacian(g).astype(float))
            beta = sg.eigenvalues(sg.laplacian(sub).astype(float))
            scale = max(1.0, np.abs(alpha).max())
            assert ((alpha - beta) >= -1e-9 * scale).all()
            assert ((alpha - beta) <= 2 + 1e-9 * scale).all()
            checked += 1


# Degenerate inputs: each call returns (None below) or raises the typed error
# given for its role.  A ValueError must be documented by the called function.
_NS, _LM, _VE, _ZV, _ZD = NonSymmetric, LengthMismatch, ValueError, ZeroVector, ZeroDenominator
_DEGENERATE = {  # input: (value, solver, rayleigh's m, oracles, rayleigh's x, check_chain,
    #                  the x of quad_form_laplacian and _net_laplacian, the x of quad_form_normalized)
    "0-D": (np.float64(1.0), _NS, _NS, _NS, _LM, _LM, _LM, _LM),
    "1-D": (np.array([1.0, 2.0]), _NS, _NS, _NS, None, None, None, None),
    "non-square": (np.ones((2, 3)), _NS, _NS, _NS, _LM, _LM, _LM, _LM),
    "3-D": (np.ones((2, 2, 2)), _NS, _NS, _NS, _LM, _LM, _LM, _LM),
    "complex": (np.eye(2, dtype=complex), _NS, _NS, _NS, _LM, _LM, _LM, _LM),
    "complex-1-D": (np.array([1j, 0.0]), _NS, _NS, _NS, _LM, _LM, _LM, _LM),
    "complex-object": (np.array([[1j, 0.0], [0.0, 1.0]], dtype=object), _NS, _NS, _NS, _LM, _LM, _LM, _LM),
    "complex-object-1-D": (np.array([1j, 0.0], dtype=object), _NS, _NS, _NS, _LM, _LM, _LM, _LM),
    "object": (np.array([[None]]), _NS, _VE, _NS, _LM, _LM, _LM, _LM),
    "object-1-D": (np.array([None, 1.0], dtype=object), _NS, _NS, _NS, _VE, _VE, _VE, _VE),
    "nan": (np.array([[math.nan]]), _NS, _VE, _NS, _LM, _LM, _LM, _LM),
    "nan-1-D": (np.array([math.nan, 1.0]), _NS, _NS, _NS, _VE, _VE, _VE, _VE),
    "inf": (np.array([[math.inf]]), _NS, _VE, _NS, _LM, _LM, _LM, _LM),
    "-inf": (np.array([[-math.inf]]), _NS, _VE, _NS, _LM, _LM, _LM, _LM),
    "inf-diagonal": (np.array([[1.0, 0.0], [0.0, math.inf]]), _NS, _VE, _NS, _LM, _LM, _LM, _LM),
    "inf-diagonal-3x3": (np.diag([1.0, 2.0, math.inf]), _NS, _VE, _NS, _LM, _LM, _LM, _LM),
    "inf-1-D": (np.array([math.inf, 1.0]), _NS, _NS, _NS, _VE, _VE, _VE, _VE),
    "-0.0": (np.array([[-0.0, 1.0], [1.0, -0.0]]), None, None, None, _LM, _LM, _LM, _LM),
    "-0.0-1-D": (np.array([-0.0, 0.0]), _NS, _NS, _NS, _ZV, None, None, _ZD),
    "0x0": (np.zeros((0, 0)), None, _ZV, None, _LM, _LM, _LM, _LM),
}
_K2 = sg.build_graph(2, [(0, 1, 1)])
_CALLERS = {  # name: (column in _DEGENERATE, call, the function whose docstring counts)
    "eigenvalues": (1, sg.eigenvalues, sg.eigenvalues),
    "rayleigh-m": (2, lambda x: sg.rayleigh(x, np.ones(np.shape(x)[:1])), sg.rayleigh),
    "charpoly_spectrum_oracle": (3, sg.charpoly_spectrum_oracle, sg.charpoly_spectrum_oracle),
    "characteristic_polynomial": (3, characteristic_polynomial, characteristic_polynomial),
    "determinant_oracle": (3, sg.determinant_oracle, sg.determinant_oracle),
    "rayleigh-x": (4, lambda x: sg.rayleigh(np.eye(2), x), sg.rayleigh),
    "check_chain": (5, lambda x: sg.check_chain(x, x, x, 0.0), sg.check_chain),
    "quad_form_laplacian": (6, lambda x: sg.quad_form_laplacian(_K2, x), sg.quad_form_laplacian),
    "quad_form_net_laplacian": (6, lambda x: sg.quad_form_net_laplacian(_K2, x), sg.quad_form_net_laplacian),
    "quad_form_normalized": (7, lambda x: sg.quad_form_normalized(_K2, x), sg.quad_form_normalized),
}


@pytest.mark.parametrize("caller", list(_CALLERS))
@pytest.mark.parametrize("case", list(_DEGENERATE))
def test_degenerate_input_returns_or_raises_typed(case, caller):
    column, call, documented = _CALLERS[caller]
    value, expected = _DEGENERATE[case][0], _DEGENERATE[case][column]
    if expected is None:
        call(value)
        return
    assert expected is not ValueError or "ValueError" in documented.__doc__
    with pytest.raises(expected) as info:
        call(value)
    assert type(info.value) is expected
