"""Graph construction, degrees, switching and balance."""
import inspect
import itertools
import random

import numpy as np
import pytest

import sgspectra as sg
from sgspectra.fileio import to_sg_text
from sgspectra.graphs import family_edge_pairs
from sgspectra.errors import (
    ArgMismatch,
    BadOrder,
    DuplicateEdge,
    EmptyGraph,
    LengthMismatch,
    NoSuchEdge,
    SelfLoop,
    UnderlyingGraphMismatch,
    VertexOutOfRange,
)


def k2_negative():
    return sg.build_graph(2, [(0, 1, -1)])


class TestBuildGraph:
    def test_k2_negative(self):
        g = k2_negative()
        assert g.n == 2
        assert g.edges == ((0, 1, -1),)
        assert g.sign(1, 0) == -1  # symmetric query

    def test_all_positive_triangle(self):
        g = sg.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert len(g.edges) == 3
        assert all(s == 1 for _, _, s in g.edges)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdge):
            sg.build_graph(3, [(0, 1, 1), (0, 1, -1)])
        with pytest.raises(DuplicateEdge):
            sg.build_graph(3, [(0, 1, 1), (1, 0, -1)])  # reversed duplicate

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            sg.build_graph(2, [(1, 1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRange):
            sg.build_graph(2, [(0, 2, 1)])

    def test_edges_canonicalized(self):
        g = sg.build_graph(3, [(2, 0, -1), (1, 0, 1)])
        assert g.edges == ((0, 1, 1), (0, 2, -1))

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            sg.build_graph(2, [(0, 1, 2)])


class TestSignedGraphValidation:
    """SignedGraph is the one validator of an edge list."""

    @pytest.mark.parametrize("n, edges, error", [
        (3, ((1, 1, 1),), SelfLoop),
        (3, ((2, 1, 1),), VertexOutOfRange),  # u > v
        (3, ((0, 3, 1),), VertexOutOfRange),  # v >= n
        (3, ((-1, 1, 1),), VertexOutOfRange),  # u < 0
        (3, ((0, 1, 1), (0, 1, -1)), DuplicateEdge),
        (3, ((0, 1, 2),), ValueError),  # sign 2
        (-1, (), ValueError),  # n < 0
        (3, ((1, 2, 1), (0, 1, -1)), ValueError),  # pairs out of order
        (4, ((1, 3, 1), (0, 3, 1)), ValueError),  # same v, decreasing u
    ])
    def test_rejects(self, n, edges, error):
        with pytest.raises(error):
            sg.SignedGraph(n, edges)

    def test_range_message_names_edge_and_order(self):
        with pytest.raises(VertexOutOfRange, match=r"edge \(0, 5\).*n=2"):
            sg.build_graph(2, [(5, 0, 1)])

    def test_order_message_names_both_pairs(self):
        with pytest.raises(ValueError, match=r"edge \(0, 2\) follows \(1, 2\)"):
            sg.SignedGraph(3, ((1, 2, 1), (0, 2, 1)))

    @pytest.mark.parametrize("edges, message", [
        (None, "edges must be an iterable of (u, v, sign) triples, got None"),
        (5, "edges must be an iterable of (u, v, sign) triples, got 5"),
        (((0, 1),), "edge (0, 1) is not a (u, v, sign) triple"),
        (((0, 1, 1, 1),), "edge (0, 1, 1, 1) is not a (u, v, sign) triple"),
    ], ids=["None", "int", "pair", "four-tuple"])
    def test_malformed_edge_container_raises_length_mismatch(self, edges, message):
        for construct in (sg.SignedGraph, sg.build_graph):
            with pytest.raises(LengthMismatch) as exc:
                construct(3, edges)
            assert str(exc.value) == message

    # one row per rule: each hostile edge list on n = 3 (10 where the pairs
    # need it), the exception type and its exact message
    HOSTILE = {
        "non-triple": (3, ((0, 1),), LengthMismatch, "edge (0, 1) is not a (u, v, sign) triple"),
        "non-iterable-edge": (3, (7,), LengthMismatch, "edge 7 is not a (u, v, sign) triple"),
        "non-iterable-edges": (3, 7, LengthMismatch,
                               "edges must be an iterable of (u, v, sign) triples, got 7"),
        "list-edges-duplicate": (3, [[0, 1, 1], [0, 1, -1]], DuplicateEdge, "edge (0, 1) listed twice"),
        "list-edges-u-gt-v": (3, [[0, 1, 1], [2, 1, 1]], VertexOutOfRange,
                              "edge (2, 1) is not 0 <= u < v < n for n=3"),
        "numpy-self-loop": (3, ((np.int64(1), np.int64(1), 1),), SelfLoop, "self-loop at vertex 1"),
        "numpy-v-ge-n": (3, ((np.int32(0), np.int64(5), 1),), VertexOutOfRange,
                         "edge (0, 5) is not 0 <= u < v < n for n=3"),
        "float-endpoint": (3, ((0, 1.0, 1),), VertexOutOfRange, "edge (0, 1.0) has a non-integer endpoint"),
        "bool-endpoint": (3, ((False, 1, 1),), VertexOutOfRange,
                          "edge (False, 1) has a non-integer endpoint"),
        "self-loop-out-of-range": (3, ((5, 5, 1),), SelfLoop, "self-loop at vertex 5"),
        "negative-self-loop": (3, ((-1, -1, 1),), SelfLoop, "self-loop at vertex -1"),
        "u-gt-v": (3, ((2, 1, 1),), VertexOutOfRange, "edge (2, 1) is not 0 <= u < v < n for n=3"),
        "v-ge-n": (3, ((0, 3, 1),), VertexOutOfRange, "edge (0, 3) is not 0 <= u < v < n for n=3"),
        "u-lt-0": (3, ((-1, 1, 1),), VertexOutOfRange, "edge (-1, 1) is not 0 <= u < v < n for n=3"),
        "adjacent-duplicate": (3, ((0, 1, 1), (0, 1, -1)), DuplicateEdge, "edge (0, 1) listed twice"),
        "non-adjacent-duplicate": (3, ((0, 1, 1), (0, 2, 1), (0, 1, 1)), ValueError,
                                   "edge (0, 1) follows (0, 2); edges must be sorted by (u, v)"),
        "out-of-order": (10, ((3, 7, 1), (2, 9, 1)), ValueError,
                         "edge (2, 9) follows (3, 7); edges must be sorted by (u, v)"),
        "same-u-decreasing-v": (10, ((4, 9, 1), (4, 8, 1)), ValueError,
                                "edge (4, 8) follows (4, 9); edges must be sorted by (u, v)"),
        "sign-0": (3, ((0, 1, 0),), ValueError, "edge sign must be +1 or -1, got 0"),
        "sign-2": (3, ((0, 1, 2),), ValueError, "edge sign must be +1 or -1, got 2"),
        "sign-True": (3, ((0, 1, True),), ValueError, "edge sign must be +1 or -1, got True"),
        "sign-str": (3, ((0, 1, "+"),), ValueError, "edge sign must be +1 or -1, got '+'"),
        "negative-order": (-1, (), ValueError, "vertex count must be non-negative"),
        "float-order": (3.0, (), BadOrder, "vertex count must be an integer, got 3.0"),
    }

    @pytest.mark.parametrize("case", list(HOSTILE))
    def test_each_rule_keeps_its_type_and_message(self, case):
        n, edges, error, message = self.HOSTILE[case]
        with pytest.raises(error) as exc:
            sg.SignedGraph(n, edges)
        assert type(exc.value) is error and str(exc.value) == message

    def test_valid_non_plain_input_is_stored_as_plain_ints(self):
        g = sg.SignedGraph(np.int64(4), [[np.int64(0), np.int32(1), np.int8(-1)],
                                         (1, np.uint8(3), np.int64(1)), (2, 3, -1)])
        assert g.n == 4 and type(g.n) is int
        assert g.edges == ((0, 1, -1), (1, 3, 1), (2, 3, -1)) and type(g.edges) is tuple
        assert all(type(e) is tuple and all(type(x) is int for x in e) for e in g.edges)
        assert g == sg.SignedGraph(4, ((0, 1, -1), (1, 3, 1), (2, 3, -1)))

    @pytest.mark.parametrize("edges", [[(0, 1, 1), (1, 2, -1)], iter([(0, 1, 1), (1, 2, -1)]),
                                       [(0, 1, 1), (1, 2, np.int64(-1))],
                                       [[0, 1, 1], [1, 2, -1]], ([0, 1, 1], (1, 2, -1))],
                             ids=["list", "iterator", "list-numpy-sign", "list-of-lists",
                                  "tuple-with-list-edge"])
    def test_any_edge_iterable_stored_as_tuple(self, edges):
        g, want = sg.SignedGraph(3, edges), sg.SignedGraph(3, ((0, 1, 1), (1, 2, -1)))
        assert type(g.edges) is tuple and g.edges == want.edges
        assert g == want and hash(g) == hash(want) and g.degree(1) == 2


def _seeded_graphs():
    """Random graphs n 0..24, sparse ones with isolated vertices, plus signed K4s."""
    graphs = [sg.random_signed_graph(n, p, 0.5, seed)
              for n in range(25) for p in (0.1, 0.5, 0.9) for seed in range(2)]
    graphs += [sg.generate("complete", 4, signs) for signs in ("++++++", "+-+--+", "------")]
    assert any(g.degree(v) == 0 for g in graphs for v in range(g.n))
    return graphs


class TestNeighbourMap:
    """The per-vertex neighbour maps agree with the canonical edge tuple."""

    def test_neighbors_ascending_from_edges(self):
        for g in _seeded_graphs():
            for v in range(g.n):
                expected = sorted([(b, s) for a, b, s in g.edges if a == v]
                                  + [(a, s) for a, b, s in g.edges if b == v])
                assert list(g.neighbors(v)) == expected
                assert g.degree(v) == len(expected)
                assert all(g.has_edge(v, w) and g.sign(w, v) == s for w, s in expected)

    def test_build_graph_canonicalizes_any_order(self):
        rng = random.Random(5)
        for g in _seeded_graphs():
            for _ in range(3):
                shuffled = [(v, u, s) if rng.random() < 0.5 else (u, v, s) for u, v, s in g.edges]
                rng.shuffle(shuffled)
                h = sg.build_graph(g.n, shuffled)
                assert h == g and hash(h) == hash(g)
                assert to_sg_text(h) == to_sg_text(g)

    def test_no_indexing_from_the_end(self):
        g = sg.generate("path", 3, "+-")
        assert not g.has_edge(-1, 1) and not g.has_edge(3, 1)
        for u in (-1, 3):
            with pytest.raises(KeyError):
                g.sign(u, 1)

    @pytest.mark.parametrize("u, v", [(0, 2), (0, "1"), ("0", 1), (0, 1.0), (None, 0), (0, True)])
    def test_missing_edge_raises_no_such_edge(self, u, v):
        g = sg.generate("cycle", 4)
        with pytest.raises(NoSuchEdge) as caught:
            g.sign(u, v)
        assert isinstance(caught.value, KeyError)
        assert str(caught.value) == f"no edge ({u!r}, {v!r})"


class TestDegrees:
    def test_k2_negative_profile(self):
        prof = sg.degree_profile(k2_negative())
        assert prof.degree == (1, 1)
        assert prof.neg_degree == (1, 1)
        assert prof.net_degree == (-1, -1)

    def test_triangle_profile(self):
        prof = sg.degree_profile(sg.generate("cycle", 3))
        assert prof.degree == (2, 2, 2)
        assert prof.neg_degree == (0, 0, 0)
        assert prof.net_degree == (2, 2, 2)

    def test_empty_graph_zeros(self):
        prof = sg.degree_profile(sg.generate("empty", 3))
        assert prof.degree == (0, 0, 0) == prof.net_degree

    def test_degree_sums(self):
        g = sg.random_signed_graph(10, 0.6, 0.4, seed=5)
        prof = sg.degree_profile(g)
        assert sum(prof.degree) == 2 * len(g.edges)
        pos = sum(1 for e in g.edges if e[2] == 1)
        assert sum(prof.net_degree) == 2 * (pos - (len(g.edges) - pos))

    def test_neg_degree_extremes(self):
        assert sg.min_max_neg_degree(sg.generate("cycle", 3)) == (0, 0)
        assert sg.min_max_neg_degree(k2_negative()) == (1, 1)
        # path 0-1-2 signed (-, +): d- = (1, 1, 0)
        assert sg.min_max_neg_degree(sg.generate("path", 3, [-1, 1])) == (0, 1)

    def test_neg_degree_empty_graph(self):
        with pytest.raises(EmptyGraph):
            sg.min_max_neg_degree(sg.SignedGraph(0, ()))


class TestCoRegularity:
    def test_triangle(self):
        co = sg.co_regularity(sg.generate("cycle", 3))
        assert (co.r, co.s, co.complete) == (2, 2, True)

    def test_all_negative_c4(self):
        co = sg.co_regularity(sg.generate("cycle", 4, "all_minus"))
        assert (co.r, co.s, co.complete) == (2, -2, False)

    def test_path_absent(self):
        assert sg.co_regularity(sg.generate("path", 3)) is None

    def test_empty_graph_absent(self):
        assert sg.co_regularity(sg.generate("empty", 0)) is None

    def test_regular_but_not_net_regular(self):
        # C4 with one negative edge: 2-regular, net degrees differ
        assert sg.co_regularity(sg.generate("cycle", 4, [-1, 1, 1, 1])) is None

    def test_bounds_whenever_present(self):
        # |s| <= r <= n-1 must hold for any co-regular pair
        rng = random.Random(33)
        found = 0
        while found < 25:
            n = rng.randrange(2, 8)
            k = rng.randrange(0, n)
            edges = []
            for u in range(n):
                for v in range(u + 1, n):
                    dist = min(v - u, n - (v - u))
                    if dist <= k:
                        edges.append((u, v, rng.choice((1, -1))))
            co = sg.co_regularity(sg.build_graph(n, edges))
            if co is None:
                continue
            assert abs(co.s) <= co.r <= n - 1
            assert co.complete == (co.r == n - 1)
            found += 1


class TestSwitching:
    def test_identity_switching(self):
        g = sg.generate("cycle", 4, [-1, 1, -1, 1])
        assert sg.apply_switching(g, (1, 1, 1, 1)) == g

    def test_k2_sign_flip(self):
        g = sg.apply_switching(k2_negative(), (1, -1))
        assert g.edges == ((0, 1, 1),)

    def test_involution(self):
        rng = random.Random(0)
        for _ in range(50):
            g = sg.random_signed_graph(8, 0.5, 0.5, seed=rng.randrange(10**6))
            alpha = tuple(rng.choice((1, -1)) for _ in range(8))
            assert sg.apply_switching(sg.apply_switching(g, alpha), alpha) == g

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            sg.apply_switching(k2_negative(), (1,))


class TestBalance:
    def test_all_positive_balanced(self):
        for _ in range(20):
            g = sg.random_signed_graph(9, 0.4, 0.0, seed=_)
            assert sg.is_balanced(g)

    def test_one_negative_triangle_unbalanced(self):
        assert not sg.is_balanced(sg.generate("cycle", 3, [1, 1, -1]))

    def test_trees_always_balanced(self):
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randrange(2, 10)
            signs = [rng.choice((1, -1)) for _ in range(n - 1)]
            assert sg.is_balanced(sg.generate("path", n, signs))
            assert sg.is_balanced(sg.generate("star", n, signs))

    def test_cycle_parity_oracle_exhaustive(self):
        for n in range(3, 8):
            for signs in itertools.product((1, -1), repeat=n):
                g = sg.generate("cycle", n, signs)
                assert sg.is_balanced(g) == (signs.count(-1) % 2 == 0)

    def test_balancing_switch_makes_all_positive(self):
        g = sg.generate("cycle", 6, [1, -1, -1, 1, -1, -1])
        theta = sg.balancing_switch(g)
        assert theta is not None
        assert all(s == 1 for _, _, s in sg.apply_switching(g, theta).edges)


class TestSwitchingEquivalence:
    def test_reflexive(self):
        g = sg.generate("cycle", 5, [1, -1, 1, 1, -1])
        assert sg.switching_equivalent(g, g)

    def test_balanced_vs_unbalanced_c4(self):
        assert not sg.switching_equivalent(
            sg.generate("cycle", 4), sg.generate("cycle", 4, [-1, 1, 1, 1])
        )

    def test_two_single_negative_c4s(self):
        g1 = sg.build_graph(4, [(0, 1, -1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        g2 = sg.build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, -1), (0, 3, 1)])
        assert sg.switching_equivalent(g1, g2)

    def test_mismatched_underlying_graph(self):
        with pytest.raises(UnderlyingGraphMismatch):
            sg.switching_equivalent(sg.generate("path", 3), sg.generate("cycle", 3))

    def test_balance_iff_equivalent_to_all_positive(self):
        rng = random.Random(7)
        for _ in range(40):
            g = sg.random_signed_graph(7, 0.5, 0.5, seed=rng.randrange(10**6))
            assert sg.is_balanced(g) == sg.switching_equivalent(g, sg.all_positive(g))


class TestGenerate:
    def test_cycle_balanced_all_plus(self):
        g = sg.generate("cycle", 3)
        assert sg.is_balanced(g) and len(g.edges) == 3

    def test_path_all_minus_balanced(self):
        assert sg.is_balanced(sg.generate("path", 4, "all_minus"))

    def test_star_explicit_signs(self):
        g = sg.generate("star", 4, [1, -1, 1])
        assert g.edges == ((0, 1, 1), (0, 2, -1), (0, 3, 1))

    def test_complete(self):
        g = sg.generate("complete", 4)
        assert len(g.edges) == 6

    def test_family_order_errors(self):
        with pytest.raises(BadOrder):
            sg.generate("cycle", 2)
        with pytest.raises(BadOrder):
            sg.generate("star", 1)
        with pytest.raises(BadOrder, match="path needs n >= 1, got 0"):
            sg.generate("path", 0)
        with pytest.raises(BadOrder, match="complete needs n >= 0, got -1"):
            sg.generate("complete", -1)
        with pytest.raises(BadOrder, match="empty needs n >= 0, got -1"):
            sg.generate("empty", -1)
        with pytest.raises(BadOrder):
            sg.generate("nonsense", 3)
        with pytest.raises(BadOrder, match="unknown family"):
            sg.generate(["cycle"], 4)
        with pytest.raises(BadOrder, match="unknown family"):
            family_edge_pairs({}, 3)

    def test_explicit_signs_length_checked(self):
        with pytest.raises(LengthMismatch):
            sg.generate("cycle", 4, [1, 1, 1])

    def test_random_signature_deterministic(self):
        a = sg.generate("cycle", 9, "random", q=0.5, seed=3)
        b = sg.generate("cycle", 9, "random", q=0.5, seed=3)
        assert a == b


class TestRandomGraph:
    def test_p_zero_empty(self):
        assert sg.random_signed_graph(8, 0.0, 0.5, seed=1).edges == ()

    def test_p_one_q_zero_complete_positive(self):
        g = sg.random_signed_graph(6, 1.0, 0.0, seed=1)
        assert len(g.edges) == 15 and all(s == 1 for _, _, s in g.edges)

    def test_seed_determinism(self):
        assert sg.random_signed_graph(10, 0.5, 0.5, 99) == sg.random_signed_graph(10, 0.5, 0.5, 99)
        assert sg.random_signed_graph(10, 0.5, 0.5, 99) != sg.random_signed_graph(10, 0.5, 0.5, 98)

    # n = 5, edges written as "uv" plus the sign: the draws of seed 3 (and 8),
    # pair by pair in lexicographic order, each pair's sign drawn right after it
    PINNED = {
        (0, 0, 3): "", (0, 0.5, 3): "", (0, 1, 3): "",
        (0.5, 0, 3): "01+ 02+ 04+ 13+ 23+ 24+ 34+",
        (0.5, 0.5, 3): "01+ 02+ 04- 13- 23+ 24+ 34+",
        (0.5, 0.5, 8): "01+ 02+ 03- 12+ 13- 14- 24- 34-",
        (0.5, 1, 3): "01- 02- 04- 13- 23- 24- 34-",
        (1, 0, 3): "01+ 02+ 03+ 04+ 12+ 13+ 14+ 23+ 24+ 34+",
        (1, 0.5, 3): "01+ 02+ 03- 04+ 12- 13- 14- 23- 24+ 34+",
        (1, 0.5, 8): "01+ 02+ 03- 04- 12- 13- 14+ 23- 24- 34+",
        (1, 1, 3): "01- 02- 03- 04- 12- 13- 14- 23- 24- 34-",
    }

    @pytest.mark.parametrize("p, q, seed", list(PINNED))
    def test_draws_pinned(self, p, q, seed):
        pinned = self.PINNED[p, q, seed].split()
        want = tuple((int(t[0]), int(t[1]), 1 if t[2] == "+" else -1) for t in pinned)
        assert sg.random_signed_graph(5, p, q, seed).edges == want

    def test_draws_match_the_reference_loop(self):
        def reference(n, p, q, seed):
            rng, edges = random.Random(seed), []
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < p:
                        edges.append((u, v, -1 if rng.random() < q else 1))
            return tuple(edges)

        for n, p, q, seed in itertools.product((0, 1, 2, 7, 24), (0.0, 0.3, 1.0), (0.0, 0.6, 1.0), (0, 5)):
            assert sg.random_signed_graph(n, p, q, seed).edges == reference(n, p, q, seed)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            sg.random_signed_graph(4, 1.5, 0.5, 0)
        for q in (-0.5, 2.0, float("nan")):
            with pytest.raises(ValueError, match="probabilities must lie in"):
                sg.generate("cycle", 4, "random", q=q)


class TestConnectivity:
    def test_connected_cycle(self):
        assert sg.is_connected(sg.generate("cycle", 5))

    def test_disconnected(self):
        assert not sg.is_connected(sg.build_graph(4, [(0, 1, 1)]))

    def test_trivial(self):
        assert sg.is_connected(sg.SignedGraph(1, ()))
        assert sg.is_connected(sg.SignedGraph(0, ()))


# every export whose first parameter is a graph, with the rest of a valid call
_GRAPH_CALLS = {
    "adjacency": (), "laplacian": (), "net_laplacian": (), "normalized_net_laplacian": (),
    "quad_form_laplacian": ([1.0],), "quad_form_net_laplacian": ([1.0],),
    "quad_form_normalized": ([1.0],),
    "degree_profile": (), "min_max_neg_degree": (), "co_regularity": (), "all_positive": (),
    "apply_switching": ([1],), "balancing_switch": (), "is_balanced": (), "is_connected": (),
    "switching_equivalent": (k2_negative(),),
    "delete_vertex": (0,), "delete_edge": (0, 1), "add_edge": (0, 1, 1), "contract": (0, 1),
    "neighborhoods": (0,), "disjoint_open_neighborhoods": (0, 1),
    "to_edge_string": (), "to_sg_text": (),
}


@pytest.mark.parametrize("name", _GRAPH_CALLS)
def test_non_graph_raises_arg_mismatch(name):
    with pytest.raises(ArgMismatch, match=f"^{name} takes a SignedGraph, got int$"):
        getattr(sg, name)(5, *_GRAPH_CALLS[name])


def test_every_graph_export_takes_the_rule():
    # an export whose first parameter is a SignedGraph is wrapped by the one
    # rule, keeps its body's identity, and is named in _GRAPH_CALLS above
    found = {}
    for mod in (sg.graphs, sg.matrices, sg.surgery, sg.fileio):
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != mod.__name__:
                continue
            first = next(iter(inspect.signature(fn).parameters.values()), None)
            if first is not None and first.annotation in (sg.SignedGraph, "SignedGraph"):
                found[name] = fn
    assert set(found) == set(_GRAPH_CALLS)
    for name, fn in found.items():
        body = fn.__wrapped__
        assert fn is not body and body.__name__ == name
        assert (fn.__name__, fn.__doc__, fn.__module__) == (body.__name__, body.__doc__, body.__module__)
        assert inspect.signature(fn) == inspect.signature(body)


def test_graph_argument_by_name():
    g = k2_negative()
    assert sg.switching_equivalent(g1=g, g2=sg.all_positive(g))
    assert sg.delete_vertex(g=g, v=0)[0] == sg.SignedGraph(1, ())
    with pytest.raises(ArgMismatch, match="^adjacency takes a SignedGraph, got int$"):
        sg.adjacency(g=5)


def test_switching_equivalent_checks_its_second_graph():
    with pytest.raises(ArgMismatch, match="^switching_equivalent takes a SignedGraph, got list$"):
        sg.switching_equivalent(k2_negative(), [(0, 1, -1)])
