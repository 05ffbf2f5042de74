"""Matrix builders and quadratic-form oracles."""
import math
import random

import numpy as np
import pytest

import sgspectra as sg
from sgspectra.errors import LengthMismatch, ZeroDenominator
from sgspectra.matrices import _flat, assemble


def k2n():
    return sg.build_graph(2, [(0, 1, -1)])


class TestAdjacency:
    def test_k2_negative(self):
        assert sg.adjacency(k2n()).tolist() == [[0, -1], [-1, 0]]

    def test_empty(self):
        assert not sg.adjacency(sg.generate("empty", 3)).any()

    def test_triangle(self):
        a = sg.adjacency(sg.generate("cycle", 3))
        assert a.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


class TestLaplacian:
    def test_k2_negative(self):
        assert sg.laplacian(k2n()).tolist() == [[1, 1], [1, 1]]

    def test_triangle(self):
        assert sg.laplacian(sg.generate("cycle", 3)).tolist() == [
            [2, -1, -1], [-1, 2, -1], [-1, -1, 2]]

    def test_empty_zero(self):
        assert not sg.laplacian(sg.generate("empty", 4)).any()

    def test_row_sums_zero_all_positive(self):
        g = sg.random_signed_graph(9, 0.5, 0.0, seed=2)
        assert (sg.laplacian(g).sum(axis=1) == 0).all()


class TestNetLaplacian:
    def test_k2_negative(self):
        assert sg.net_laplacian(k2n()).tolist() == [[-1, 1], [1, -1]]

    def test_equals_laplacian_when_all_positive(self):
        g = sg.random_signed_graph(8, 0.6, 0.0, seed=3)
        assert np.array_equal(sg.laplacian(g), sg.net_laplacian(g))

    def test_gap_identity_exact(self):
        # L - N = 2 diag(d-) in exact integers
        for seed in range(50):
            g = sg.random_signed_graph(10, 0.5, 0.5, seed=seed)
            gap = sg.laplacian(g) - sg.net_laplacian(g)
            expected = 2 * np.diag(np.array(sg.degree_profile(g).neg_degree))
            assert np.array_equal(gap, expected)

    def test_row_sums_zero_any_signature(self):
        for seed in range(20):
            g = sg.random_signed_graph(9, 0.5, 0.5, seed=seed)
            assert (sg.net_laplacian(g).sum(axis=1) == 0).all()


class TestNormalized:
    def test_k2_negative_degree_one(self):
        assert sg.normalized_net_laplacian(k2n()).tolist() == [[-1.0, 1.0], [1.0, -1.0]]

    def test_isolated_vertex_row_zero(self):
        g = sg.build_graph(3, [(0, 1, 1)])
        nb = sg.normalized_net_laplacian(g)
        assert not nb[2].any() and not nb[:, 2].any()

    def test_c4_exact_entries(self):
        nb = sg.normalized_net_laplacian(sg.generate("cycle", 4))
        assert np.array_equal(np.diag(nb), np.ones(4))
        assert nb[0, 1] == -0.5 and nb[0, 2] == 0.0

    def test_exactly_symmetric(self):
        for seed in range(30):
            g = sg.random_signed_graph(11, 0.5, 0.5, seed=seed)
            nb = sg.normalized_net_laplacian(g)
            assert np.array_equal(nb, nb.T)


class TestAllBuildersSymmetric:
    def test_every_matrix_exactly_symmetric(self):
        for seed in range(25):
            g = sg.random_signed_graph(10, 0.5, 0.5, seed=seed)
            for m in (sg.adjacency(g), sg.laplacian(g), sg.net_laplacian(g),
                      sg.normalized_net_laplacian(g)):
                assert np.array_equal(m, m.T)


class TestQuadForms:
    def test_all_ones_on_balanced_all_positive(self):
        g = sg.generate("cycle", 6)
        assert sg.quad_form_laplacian(g, [1.0] * 6) == 0.0

    def test_k2_negative_hand_values(self):
        assert sg.quad_form_laplacian(k2n(), [1.0, 1.0]) == 4.0
        assert sg.quad_form_net_laplacian(k2n(), [1.0, -1.0]) == -4.0
        assert sg.quad_form_net_laplacian(k2n(), [0.0, 0.0]) == 0.0

    def test_net_equals_laplacian_all_positive(self):
        g = sg.random_signed_graph(7, 0.5, 0.0, seed=9)
        x = [0.3, -1.2, 0.0, 2.5, -0.7, 1.1, 0.4]
        assert sg.quad_form_laplacian(g, x) == sg.quad_form_net_laplacian(g, x)

    def test_matches_matrix_quadratic_form(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randrange(1, 13)
            g = sg.random_signed_graph(n, 0.5, 0.5, seed=rng.randrange(10**6))
            x = np.array([rng.uniform(-2, 2) for _ in range(n)])
            ql = sg.quad_form_laplacian(g, x)
            qn = sg.quad_form_net_laplacian(g, x)
            assert ql == pytest.approx(x @ sg.laplacian(g) @ x, abs=1e-12 * (1 + abs(ql)))
            assert qn == pytest.approx(x @ sg.net_laplacian(g) @ x, abs=1e-12 * (1 + abs(qn)))

    def test_normalized_bounds_attained(self):
        # the bound-attaining vectors alternate against the edge sign:
        # (1,-1) hits +2 on the positive edge and -2 on the negative one
        k2p = sg.build_graph(2, [(0, 1, 1)])
        assert sg.quad_form_normalized(k2p, [1.0, -1.0]) == 2.0
        assert sg.quad_form_normalized(k2n(), [1.0, -1.0]) == -2.0
        assert sg.quad_form_normalized(k2n(), [1.0, 1.0]) == 0.0
        assert sg.quad_form_normalized(k2p, [1.0, 0.0]) == 1.0

    def test_normalized_matches_rayleigh(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randrange(2, 10)
            g = sg.random_signed_graph(n, 0.8, 0.5, seed=rng.randrange(10**6))
            if g.n == 0 or min(sg.degree_profile(g).degree) == 0:
                continue
            x = [rng.uniform(-2, 2) for _ in range(n)]
            if all(v == 0 for v in x):
                continue
            d = sg.degree_profile(g).degree
            y = [xi * di ** 0.5 for xi, di in zip(x, d)]
            got = sg.quad_form_normalized(g, x)
            want = sg.rayleigh(sg.normalized_net_laplacian(g), y)
            assert got == pytest.approx(want, abs=1e-10 * (1 + abs(want)))

    def test_zero_denominator(self):
        g = sg.build_graph(3, [(0, 1, 1)])
        with pytest.raises(ZeroDenominator):
            sg.quad_form_normalized(g, [0.0, 0.0, 7.0])  # weight only on isolated vertex

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            sg.quad_form_laplacian(k2n(), [1.0])


def _cross_check_graphs():
    rng = random.Random(33)
    graphs = [sg.generate("empty", 0)]
    for _ in range(40):
        n = rng.randrange(1, 16)
        p = rng.choice((0.1, 0.3, 0.6))
        graphs.append(sg.random_signed_graph(n, p, 0.5, seed=rng.randrange(10**6)))
    return graphs


class TestMatricesAgreeWithDegreeProfile:
    """The matrices read degrees off the adjacency; degree_profile counts them
    from the neighbor lists.  The two must agree."""

    def test_diagonals_and_normalized_entries(self):
        graphs = _cross_check_graphs()
        assert sum(0 in sg.degree_profile(g).degree for g in graphs) >= 5  # isolated vertices
        for g in graphs:
            prof = sg.degree_profile(g)
            net = sg.net_laplacian(g)
            assert np.diag(sg.laplacian(g)).tolist() == list(prof.degree)
            assert np.diag(net).tolist() == list(prof.net_degree)
            norm = sg.normalized_net_laplacian(g)
            assert norm.dtype == np.float64 and norm.shape == (g.n, g.n)
            d = prof.degree
            for i in range(g.n):
                for j in range(g.n):
                    dd = d[i] * d[j]
                    want = float(net[i, j]) / math.sqrt(float(dd)) if dd else 0.0
                    assert norm[i, j] == want, (g, i, j)


def _entrywise(build, g):
    """build(g) entry by entry from degree_profile and the edge signs, in
    Python ints and floats, as TestMatricesAgreeWithDegreeProfile states them."""
    prof = sg.degree_profile(g)
    d = prof.degree

    def adj(i, j):
        return g.sign(i, j) if i != j and g.has_edge(i, j) else 0

    def net(i, j):
        return prof.net_degree[i] if i == j else -adj(i, j)

    entry = {
        sg.adjacency: adj,
        sg.laplacian: lambda i, j: d[i] if i == j else -adj(i, j),
        sg.net_laplacian: net,
        sg.normalized_net_laplacian:
            lambda i, j: float(net(i, j)) / math.sqrt(float(d[i] * d[j])) if d[i] * d[j] else 0.0,
    }[build]
    return [[entry(i, j) for j in range(g.n)] for i in range(g.n)]


class TestAssemble:
    """A stack from assemble holds, slot by slot, what each builder gives alone."""

    BUILDERS = (sg.adjacency, sg.laplacian, sg.net_laplacian, sg.normalized_net_laplacian)

    def mixed_slots(self, seed):
        rng = random.Random(seed)
        orders = [0, 1, 2, 3, 5, 8, 13, 21, 34, 64] + [rng.randrange(65) for _ in range(10)]
        graphs = [sg.random_signed_graph(n, rng.choice((0.05, 0.3, 0.8)), rng.choice((0.0, 0.5, 1.0)),
                                         seed=rng.randrange(10**6)) for n in orders]
        graphs += [sg.generate("empty", 4), sg.build_graph(5, [(0, 1, -1), (2, 3, 1)])]
        slots = [(build, g) for g in graphs for build in self.BUILDERS]
        slots += [rng.choice(slots) for _ in range(12)]  # repeated graphs, same and other builders
        rng.shuffle(slots)
        return slots

    @pytest.mark.parametrize("seed", [0, 1])
    def test_each_slot_is_its_matrix_alone_padded_in_front(self, seed):
        slots = self.mixed_slots(seed)
        assert sum(0 in sg.degree_profile(g).degree for _, g in slots) >= 10  # isolated vertices
        a = assemble([(build, g.n, _flat(g)) for build, g in slots])
        top = max(g.n for _, g in slots)
        assert a.dtype == np.float64 and a.shape == (len(slots), top, top) and top == 64
        for slot, (build, g) in zip(a, slots):
            pad = top - g.n
            alone = build(g)
            assert slot[pad:, pad:].tobytes() == alone.astype(np.float64).tobytes(), (build, g)
            assert slot[pad:, pad:].tolist() == _entrywise(build, g)
            assert not slot[:pad].any() and not slot[:, :pad].any()

    def test_integer_matrices_in_an_integer_stack(self):
        slots = [(build, g) for build, g in self.mixed_slots(2) if build is not sg.normalized_net_laplacian]
        a = assemble([(build, g.n, _flat(g)) for build, g in slots], np.int64)
        top = a.shape[1]
        assert a.dtype == np.int64
        for slot, (build, g) in zip(a, slots):
            alone = build(g)
            assert alone.dtype == np.int64 and alone.shape == (g.n, g.n)
            assert np.array_equal(slot[top - g.n:, top - g.n:], alone)
            assert alone.tolist() == _entrywise(build, g)


    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_no_slots_give_an_empty_stack_of_the_dtype(self, dtype):
        a = assemble([], dtype)
        assert a.shape == (0, 0, 0) and a.dtype == dtype


class TestSwitchingConjugation:
    def test_laplacian_conjugates(self):
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randrange(2, 11)
            g = sg.random_signed_graph(n, 0.5, 0.5, seed=rng.randrange(10**6))
            alpha = tuple(rng.choice((1, -1)) for _ in range(n))
            s = np.diag(alpha)
            left = sg.laplacian(sg.apply_switching(g, alpha))
            right = s @ sg.laplacian(g) @ s
            assert np.array_equal(left, right)
