"""Vertex/edge surgeries and contraction."""
import random

import numpy as np
import pytest

import sgspectra as sg
from sgspectra.errors import (
    DuplicateEdge,
    NoSuchEdge,
    NotAllowable,
    SameVertex,
    SelfLoop,
    VertexOutOfRange,
)
from sgspectra.surgery import contract, delete_edge, delete_vertex, add_edge, neighborhoods


class TestDeleteVertex:
    def test_c4_minus_vertex_is_path(self):
        g = sg.generate("cycle", 4)
        sub, vmap = delete_vertex(g, 0)
        assert sub == sg.generate("path", 3)
        assert vmap == {1: 0, 2: 1, 3: 2}

    def test_k2_minus_vertex(self):
        sub, _ = delete_vertex(sg.build_graph(2, [(0, 1, -1)]), 1)
        assert sub.n == 1 and sub.edges == ()

    def test_star_minus_center(self):
        sub, _ = delete_vertex(sg.generate("star", 4), 0)
        assert sub.n == 3 and sub.edges == ()

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            delete_vertex(sg.generate("path", 3), 3)

    def test_laplacian_reconstruction_exact(self):
        # striking row/col v from L(g) leaves neighbor diagonals one too big
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randrange(2, 12)
            g = sg.random_signed_graph(n, 0.5, 0.5, seed=rng.randrange(10**6))
            v = rng.randrange(n)
            sub, vmap = delete_vertex(g, v)
            struck = np.delete(np.delete(sg.laplacian(g), v, axis=0), v, axis=1)
            fix = np.zeros_like(struck)
            for w, _s in g.neighbors(v):
                fix[vmap[w], vmap[w]] = 1
            assert np.array_equal(sg.laplacian(sub), struck - fix)


class TestDeleteEdge:
    def test_k2_negative(self):
        sub, removed = delete_edge(sg.build_graph(2, [(0, 1, -1)]), 0, 1)
        assert sub.edges == () and removed == -1

    def test_c4_minus_edge_is_p4(self):
        sub, _ = delete_edge(sg.generate("cycle", 4), 0, 3)
        assert sub == sg.generate("path", 4)

    def test_delete_twice_errors(self):
        g, _ = delete_edge(sg.generate("cycle", 3), 0, 1)
        with pytest.raises(NoSuchEdge):
            delete_edge(g, 0, 1)

    def test_reversed_endpoints_ok(self):
        sub, removed = delete_edge(sg.generate("path", 3, [-1, 1]), 1, 0)
        assert removed == -1

    @pytest.mark.parametrize("u, v", [(0, 1), (1, 0), (3, 4), (4, 3),
                                      (np.int64(0), np.int32(1)), (np.int64(4), np.int8(3))],
                             ids=["first", "first-reversed", "last", "last-reversed",
                                  "first-numpy", "last-numpy-reversed"])
    def test_first_and_last_edge(self, u, v):
        g = sg.build_graph(5, [(0, 1, -1), (0, 3, 1), (1, 2, 1), (2, 4, -1), (3, 4, -1)])
        sub, removed = delete_edge(g, u, v)
        a, b = sorted((int(u), int(v)))
        assert removed == g.sign(a, b)
        assert sub.n == 5 and sub.edges == tuple(e for e in g.edges if e[:2] != (a, b))
        assert all(type(x) is int for e in sub.edges for x in e)

    @pytest.mark.parametrize("u, v", [(0, 1), (1, 0), (np.int64(1), np.int64(0))])
    def test_only_edge(self, u, v):
        sub, removed = delete_edge(sg.build_graph(3, [(0, 1, -1)]), u, v)
        assert sub == sg.SignedGraph(3, ()) and removed == -1

    @pytest.mark.parametrize("u, v", [(0, 2), (2, 0), (1, 3), (0, 0), (0, 5), (np.int64(0), np.int64(2))])
    def test_absent_edge_raises_no_such_edge(self, u, v):
        g = sg.build_graph(4, [(0, 1, 1), (0, 3, 1), (1, 2, -1), (2, 3, 1)])
        with pytest.raises(NoSuchEdge, match=r"no edge \("):
            delete_edge(g, u, v)

    def test_every_edge_of_random_graphs_matches_a_scan(self):
        rng = random.Random(31)
        for _ in range(40):
            g = sg.random_signed_graph(rng.randrange(2, 20), 0.4, 0.5, seed=rng.randrange(10**6))
            for u, v, s in g.edges:
                sub, removed = delete_edge(g, v, u)
                assert removed == s and sub.edges == tuple(e for e in g.edges if e[:2] != (u, v))


class TestAddEdge:
    def test_close_path_to_balanced_triangle(self):
        g = add_edge(sg.generate("path", 3), 0, 2, 1)
        assert sg.is_balanced(g)

    def test_close_path_to_unbalanced_triangle(self):
        g = add_edge(sg.generate("path", 3), 0, 2, -1)
        assert not sg.is_balanced(g)

    def test_add_existing_rejected(self):
        with pytest.raises(DuplicateEdge):
            add_edge(sg.generate("path", 3), 0, 1, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop, match=r"^self-loop at vertex 1$"):
            add_edge(sg.generate("path", 3), 1, 1, 1)

    def test_self_loop_checked_before_sign(self):
        with pytest.raises(SelfLoop, match=r"^self-loop at vertex 1$"):
            add_edge(sg.generate("path", 3), 1, 1, 5)

    def test_delete_then_add_is_identity(self):
        rng = random.Random(14)
        for _ in range(50):
            g = sg.random_signed_graph(8, 0.5, 0.5, seed=rng.randrange(10**6))
            if not g.edges:
                continue
            u, v, s = g.edges[rng.randrange(len(g.edges))]
            sub, removed = delete_edge(g, u, v)
            assert add_edge(sub, u, v, removed) == g


class TestNeighborhoods:
    def test_isolated_vertex(self):
        g = sg.build_graph(3, [(0, 1, 1)])
        open_n, closed_n = neighborhoods(g, 2)
        assert open_n == frozenset() and closed_n == frozenset({2})

    def test_star_center(self):
        open_n, _ = neighborhoods(sg.generate("star", 4), 0)
        assert open_n == frozenset({1, 2, 3})

    def test_path_middle(self):
        open_n, closed_n = neighborhoods(sg.generate("path", 3), 1)
        assert open_n == frozenset({0, 2}) and closed_n == frozenset({0, 1, 2})


class TestDisjointNeighborhoods:
    def test_path_endpoints(self):
        assert sg.disjoint_open_neighborhoods(sg.generate("path", 4), 0, 3)

    def test_star_leaves_share_center(self):
        assert not sg.disjoint_open_neighborhoods(sg.generate("star", 4), 1, 2)

    def test_adjacent_in_triangle(self):
        assert not sg.disjoint_open_neighborhoods(sg.generate("cycle", 3), 0, 1)

    def test_same_vertex(self):
        with pytest.raises(SameVertex):
            sg.disjoint_open_neighborhoods(sg.generate("path", 3), 1, 1)

    def test_out_of_range(self):
        for a, b in ((0, 3), (3, 0), (-1, 0)):
            with pytest.raises(VertexOutOfRange):
                sg.disjoint_open_neighborhoods(sg.generate("path", 3), a, b)

    def test_every_pair_matches_the_frozenset_definition(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randrange(2, 11)
            g = sg.random_signed_graph(n, rng.random(), 0.5, seed=rng.randrange(10**6))
            for a in range(n):
                for b in range(n):
                    if a != b:
                        want = not (neighborhoods(g, a)[0] & neighborhoods(g, b)[0])
                        assert sg.disjoint_open_neighborhoods(g, a, b) is want


class TestContract:
    def test_disjoint_neighborhoods_case(self):
        # a=0, b=1 with edges a-c (+), b-d (-): contraction is a signed path
        g = sg.build_graph(4, [(0, 2, 1), (1, 3, -1)])
        sub, vmap, merged = contract(g, 0, 1)
        assert merged == 0
        assert vmap == {2: 1, 3: 2}
        assert sub == sg.build_graph(3, [(0, 1, 1), (0, 2, -1)])

    def test_shared_neighbor_equal_signs_single_edge(self):
        g = sg.build_graph(3, [(0, 2, 1), (1, 2, 1)])
        sub, _, merged = contract(g, 0, 1)
        assert sub == sg.build_graph(2, [(0, 1, 1)])
        assert merged == 0

    def test_conflicting_shared_signs_not_allowable(self):
        g = sg.build_graph(3, [(0, 2, 1), (1, 2, -1)])
        with pytest.raises(NotAllowable):
            contract(g, 0, 1)

    def test_adjacent_pair_drops_edge(self):
        g = sg.generate("path", 3, [1, -1])  # 0-1 (+), 1-2 (-)
        sub, _, merged = contract(g, 0, 1)
        assert sub == sg.build_graph(2, [(0, 1, -1)])

    def test_merged_takes_smaller_slot(self):
        g = sg.build_graph(5, [(1, 0, 1), (3, 4, -1)])
        sub, vmap, merged = contract(g, 3, 1)
        assert merged == 1
        assert vmap == {0: 0, 2: 2, 4: 3}
        assert sub == sg.build_graph(4, [(0, 1, 1), (1, 3, -1)])

    def test_same_vertex_rejected(self):
        with pytest.raises(SameVertex):
            contract(sg.generate("path", 3), 1, 1)

    def test_out_of_range(self):
        g = sg.generate("path", 3)
        for a, b in ((0, 3), (3, 0), (-1, 2)):
            with pytest.raises(VertexOutOfRange, match="vertex (3|-1) out of range for n=3"):
                contract(g, a, b)

    def test_edge_count_preserved_when_disjoint_nonadjacent(self):
        rng = random.Random(15)
        checked = 0
        while checked < 40:
            n = rng.randrange(4, 10)
            g = sg.random_signed_graph(n, 0.35, 0.5, seed=rng.randrange(10**6))
            pairs = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if not g.has_edge(a, b) and sg.disjoint_open_neighborhoods(g, a, b)
            ]
            if not pairs:
                continue
            a, b = pairs[rng.randrange(len(pairs))]
            sub, _, _ = contract(g, a, b)
            assert len(sub.edges) == len(g.edges)
            assert sub.n == g.n - 1
            checked += 1


def _contract_by_definition(g, a, b):
    """Contraction from its definition: the merged vertex is adjacent to the
    union of the open neighborhoods of a and b, the a-b edge is dropped, and
    the survivors and the merged vertex (in the smaller slot) keep their order.
    None when a shared neighbor sees a and b with different signs."""
    nbrs = [{w: s for u, w, s in g.edges if u == x} | {u: s for u, w, s in g.edges if w == x}
            for x in (a, b)]
    if any(nbrs[0][t] != nbrs[1][t] for t in nbrs[0].keys() & nbrs[1].keys()):
        return None
    slots = sorted({x for x in range(g.n) if x not in (a, b)} | {min(a, b)})
    label = {old: new for new, old in enumerate(slots)}
    merged = label.pop(min(a, b))
    edges = [(label[u], label[w], s) for u, w, s in g.edges if not {u, w} & {a, b}]
    union = {**nbrs[1], **nbrs[0]}
    edges += [(merged, label[t], s) for t, s in union.items() if t not in (a, b)]
    return sg.build_graph(g.n - 1, edges), label, merged


def test_contract_matches_its_definition_on_every_ordered_pair():
    rng = random.Random(31)
    allowable = 0
    for _ in range(36):
        n = rng.randrange(2, 10)
        g = sg.random_signed_graph(n, rng.random(), rng.random(), seed=rng.randrange(10**6))
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                want = _contract_by_definition(g, a, b)
                if want is None:
                    with pytest.raises(NotAllowable):
                        contract(g, a, b)
                    continue
                allowable += 1
                assert contract(g, a, b) == want
    assert allowable > 500
