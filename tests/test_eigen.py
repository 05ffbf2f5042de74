"""Eigensolver against frozen values, closed forms and the exact oracle."""
import math
import random

import numpy as np
import pytest

import sgspectra as sg
from sgspectra.eigen import _STACK_ENTRIES, characteristic_polynomial, eigenvalues_many
from sgspectra.errors import (
    BadOrder,
    DimensionTooLarge,
    LengthMismatch,
    NoConvergence,
    NonSymmetric,
    ZeroVector,
)


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


class TestEigenvaluesMany:
    def test_one_call_equals_each_matrix_alone(self):
        mats = mixed_batch(12)
        alone = [spectrum_bytes(sg.eigenvalues(m)) for m in mats]
        assert [spectrum_bytes(w) for w in eigenvalues_many(mats)] == alone
        rng = random.Random(13)
        for _ in range(20):
            pick = rng.sample(range(len(mats)), rng.randrange(1, 30))
            out = eigenvalues_many([mats[i] for i in pick])
            assert [spectrum_bytes(w) for w in out] == [alone[i] for i in pick]

    def test_more_matrices_than_one_stack_holds(self):
        graphs = [sg.random_signed_graph(13, 0.5, 0.5, seed=s) for s in range(400)]
        mats = [sg.laplacian(g) for g in graphs] + [sg.normalized_net_laplacian(g) for g in graphs]
        assert len(mats) * 13 * 13 > 2 * _STACK_ENTRIES
        out = eigenvalues_many(mats)
        assert [spectrum_bytes(w) for w in out] == [spectrum_bytes(sg.eigenvalues(m)) for m in mats]

    def test_matches_lapack(self):
        mats = mixed_batch(14)
        for m, w in zip(mats, eigenvalues_many(mats)):
            ref = np.linalg.eigvalsh(np.asarray(m, dtype=float)) if len(m) else np.zeros(0)
            scale = max(1.0, np.abs(ref).max(initial=0.0))
            assert w.shape == ref.shape
            assert np.abs(w - ref).max(initial=0.0) <= 1e-12 * scale

    def test_exact_small_cases_in_a_batch(self):
        big = sg.laplacian(sg.random_signed_graph(9, 0.5, 0.5, seed=1))
        out = eigenvalues_many([np.zeros((0, 0)), np.array([[5.0]]), big,
                                np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros((4, 4)),
                                np.array([[-1, 1], [1, -1]])])
        assert out[0].shape == (0,) and out[0].dtype == np.float64
        assert out[1].tolist() == [5.0]
        assert out[3].tolist() == [0.0, 2.0]
        assert out[4].tolist() == [0.0] * 4
        assert out[5].tolist() == [-2.0, 0.0]

    def test_empty_list(self):
        assert eigenvalues_many([]) == []

    def test_negative_zero_entries_read_as_zero(self):
        for m in mixed_batch(15)[:60]:
            a = np.array(m, dtype=float)
            a[a == 0.0] = -0.0
            b = np.array(m, dtype=float)
            b[b == 0.0] = 0.0
            assert spectrum_bytes(sg.eigenvalues(a)) == spectrum_bytes(sg.eigenvalues(b))

    @pytest.mark.parametrize("bad", [np.array([[0.0, 1.0], [0.5, 0.0]]), np.ones((2, 3)),
                                     np.ones((2, 2, 2)), np.ones(3)])
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_rejects_a_bad_matrix_anywhere(self, bad, at):
        mats = [np.eye(3), sg.laplacian(sg.generate("cycle", 5)), np.zeros((2, 2))]
        mats.insert(at, bad)
        with pytest.raises(NonSymmetric):
            eigenvalues_many(mats)

    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_rejects_a_complex_matrix_anywhere(self, at):
        # Hermitian, with eigenvalues -1 and 3; a cast to float64 would give 1, 1
        mats = [np.eye(3), sg.laplacian(sg.generate("cycle", 5)), np.zeros((2, 2))]
        mats.insert(at, np.array([[1, 2j], [-2j, 1]]))
        with pytest.raises(NonSymmetric, match="expected a real matrix"):
            eigenvalues_many(mats)

    def test_sweep_cap_raises_in_a_batch(self, monkeypatch):
        import sgspectra.eigen as eigen_mod
        monkeypatch.setattr(eigen_mod, "_MAX_SWEEPS", 0)
        with pytest.raises(NoConvergence):
            eigenvalues_many([np.eye(2), sg.laplacian(sg.generate("cycle", 5)), np.zeros((3, 3))])


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
        with pytest.raises(LengthMismatch, match=r"length 2, matrix order is 3"):
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

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            sg.charpoly_spectrum_oracle(np.eye(7))
        with pytest.raises(DimensionTooLarge):
            sg.determinant_oracle(np.eye(7))
        assert sg.charpoly_spectrum_oracle(np.zeros((0, 0))).size == 0

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
