"""Inequality checkers: worked examples, hypothesis gates, campaigns.

Expected verdicts marked "counterexample" below were established by hand
computation and double-checked with the exact characteristic-polynomial
oracle; they document inputs where the checked chain genuinely fails.
"""
import csv
import dataclasses
import enum
import io
import json
import math
import random
import types

import numpy as np
import pytest

import sgspectra as sg
from sgspectra import verify
from sgspectra.errors import (
    BadOrder,
    ConfigInvalid,
    EmptyGraph,
    LengthMismatch,
    NoSuchEdge,
    VertexOutOfRange,
)
from sgspectra.verify import (
    CHECK_IDS,
    CHECKERS,
    CHECKS,
    CampaignConfig,
    InterlacingReport,
    _draw,
    _mix,
    campaign_to_csv,
    campaign_to_json,
    check_chain,
    check_complete_coregular_deletion,
    check_contraction_normalized,
    check_cycle_shrink,
    check_cycle_shrink_random,
    check_dominating_vertex_deletion,
    check_edge_deletion_laplacian,
    check_laplacian_net_gap,
    check_negative_edge_deletion_net,
    check_negative_edge_deletion_normalized,
    check_negfree_vertex_deletion,
    check_normalized_spectrum_bounds,
    check_onesign_vertex_deletion,
    check_pendant_deletion,
    check_posfree_vertex_deletion,
    check_positive_edge_deletion_net,
    check_positive_edge_deletion_normalized,
    check_tree_shrink,
    check_vertex_deletion_laplacian,
    check_vertex_deletion_net,
    report_from_dict,
    report_to_dict,
    run_campaign,
)


def k2(sign):
    return sg.build_graph(2, [(0, 1, sign)])


class TestCheckChain:
    def test_strictly_inside(self):
        holds, slack, witness = check_chain([0, 0, 0], [1, 1, 1], [2, 2, 2], 0.0)
        assert holds and slack == 1.0 and witness == 1

    def test_equal_sequences(self):
        holds, slack, _ = check_chain([1, 2], [1, 2], [1, 2], 0.0)
        assert holds and slack == 0.0

    def test_violation_with_witness(self):
        holds, slack, witness = check_chain([0, 0, 0], [1, 1, 2.5], [2, 2, 2], 1e-9)
        assert not holds and slack == -0.5 and witness == 3

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            check_chain([0, 0], [1], [2, 2], 0.0)

    def test_tightening_tol_never_flips_fail_to_hold(self):
        holds_loose, *_ = check_chain([0], [1.2], [1], 0.5)
        holds_tight, *_ = check_chain([0], [1.2], [1], 0.01)
        assert holds_loose and not holds_tight


class TestTol:
    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf], ids=["nan", "-1", "-inf"])
    def test_nan_or_negative_rejected_on_every_path(self, tol):
        c4 = sg.generate("cycle", 4)
        mixed = sg.generate("star", 3, [1, -1])  # C3.5/C3.6 dispatch skips its centre
        calls = [
            lambda: CampaignConfig(tol=tol).validate(),
            lambda: run_campaign(CampaignConfig(theorems=("T2.1",), samples=2, tol=tol)),
            lambda: check_chain([0.0], [1.0], [2.0], tol),
            lambda: check_vertex_deletion_laplacian(c4, 0, tol),
            lambda: check_vertex_deletion_laplacian(c4, 0, tol=tol),
            lambda: check_pendant_deletion(c4, 0, tol),  # a skipped report
            lambda: check_cycle_shrink(4, [1, 1, 1, 1, -1], -1, tol),
            lambda: check_tree_shrink("path", 4, 1, tol),
            lambda: check_onesign_vertex_deletion(mixed, 0, tol),
        ]
        for call in calls:
            with pytest.raises(ConfigInvalid, match="tol must be a non-negative number"):
                call()

    @pytest.mark.parametrize("tol", [0.0, math.inf])
    def test_zero_and_inf_accepted(self, tol):
        CampaignConfig(tol=tol).validate()
        assert check_chain([0.0], [1.0], [2.0], tol)[0]
        assert check_vertex_deletion_laplacian(sg.generate("cycle", 4), 0, tol).tol == tol
        res = run_campaign(CampaignConfig(theorems=("T2.1",), samples=2, tol=tol))
        assert [r.tol for r in res.reports] == [tol, tol]


class TestVertexDeletionLaplacian:
    def test_balanced_c4(self):
        # alpha = (0,2,2,4), beta(P3) = (0,1,3)
        r = check_vertex_deletion_laplacian(sg.generate("cycle", 4), 0)
        assert r.holds and r.hypothesis_met
        assert r.spectra["alpha"] == pytest.approx([0, 2, 2, 4], abs=1e-9)
        assert r.spectra["beta"] == pytest.approx([0, 1, 3], abs=1e-9)

    def test_k2_positive(self):
        r = check_vertex_deletion_laplacian(k2(1), 1)
        assert r.holds

    def test_every_vertex_random(self):
        rng = random.Random(16)
        for _ in range(60):
            n = rng.randrange(2, 11)
            g = sg.random_signed_graph(n, 0.5, 0.5, seed=rng.randrange(10**6))
            for v in range(n):
                assert check_vertex_deletion_laplacian(g, v).holds


class TestDominatingVertexDeletion:
    def test_star_center(self):
        # alpha = (0,1,1,4), beta = (0,0,0)
        r = check_dominating_vertex_deletion(sg.generate("star", 4), 0)
        assert r.holds and r.hypothesis_met
        assert r.spectra["alpha"] == pytest.approx([0, 1, 1, 4], abs=1e-9)

    def test_triangle_any_vertex(self):
        r = check_dominating_vertex_deletion(sg.generate("cycle", 3), 1)
        assert r.holds and r.hypothesis_met

    def test_path_end_gate(self):
        r = check_dominating_vertex_deletion(sg.generate("path", 3), 0)
        assert not r.hypothesis_met and r.holds  # vacuous


class TestEdgeDeletionLaplacian:
    def test_balanced_triangle(self):
        # alpha=(0,3,3), beta(P3)=(0,1,3)
        r = check_edge_deletion_laplacian(sg.generate("cycle", 3), 0, 1)
        assert r.holds

    def test_k2(self):
        assert check_edge_deletion_laplacian(k2(1), 0, 1).holds

    def test_missing_edge(self):
        with pytest.raises(NoSuchEdge):
            check_edge_deletion_laplacian(sg.generate("path", 3), 0, 2)

    def test_random_edges(self):
        rng = random.Random(17)
        for _ in range(80):
            g = sg.random_signed_graph(rng.randrange(2, 11), 0.6, 0.5, seed=rng.randrange(10**6))
            if not g.edges:
                continue
            u, v, _ = g.edges[rng.randrange(len(g.edges))]
            assert check_edge_deletion_laplacian(g, u, v).holds


class TestCycleShrink:
    def test_all_positive_to_all_positive(self):
        r = check_cycle_shrink(3, [1, 1, 1, 1], 1)
        assert r.holds
        assert r.spectra["alpha"] == pytest.approx([0, 2, 2, 4], abs=1e-9)
        assert r.spectra["beta"] == pytest.approx([0, 3, 3], abs=1e-9)

    def test_closing_negative(self):
        r = check_cycle_shrink(3, [1, 1, 1, 1], -1)
        assert r.holds
        assert r.spectra["beta"] == pytest.approx([1, 1, 4], abs=1e-9)

    def test_random_signatures_both_closings(self):
        rng = random.Random(18)
        for _ in range(60):
            m = rng.randrange(3, 12)
            sig1 = [rng.choice((1, -1)) for _ in range(m + 1)]
            assert check_cycle_shrink(m, sig1, rng.choice((1, -1))).holds

    def test_order_guard(self):
        with pytest.raises(BadOrder):
            check_cycle_shrink(2, [1, 1, 1], 1)


class TestCycleShrinkRandom:
    def test_seeded_draws_hold(self):
        for seed in range(120):
            r = check_cycle_shrink_random(3 + seed % 9, seed)
            assert r.holds and r.hypothesis_met

    def test_canonical_spectra_match_drawn(self):
        # the compared canonical forms are switching-equivalent to the draw
        from sgspectra.fileio import from_edge_string
        r = check_cycle_shrink_random(6, 12345)
        drawn = from_edge_string(r.graph)
        alpha_drawn = sg.eigenvalues(sg.laplacian(drawn).astype(float))
        assert alpha_drawn == pytest.approx(r.spectra["alpha"], abs=1e-9)

    def test_canonical_closing_tracks_balance_class(self):
        # unbalanced small cycle -> canonical closing edge is negative
        from sgspectra.fileio import from_edge_string
        for seed in range(30):
            r = check_cycle_shrink_random(5, seed)
            small = from_edge_string(r.surgery["small_graph"])
            want = "+" if sg.is_balanced(small) else "-"
            assert r.surgery["canonical_closing_small"] == want
            big = from_edge_string(r.graph)
            want_big = "+" if sg.is_balanced(big) else "-"
            assert r.surgery["canonical_closing_large"] == want_big


class TestPendantDeletion:
    def test_p4_end(self):
        r = check_pendant_deletion(sg.generate("path", 4), 0)
        assert r.holds
        assert r.spectra["alpha"] == pytest.approx(
            [0, 2 - math.sqrt(2), 2, 2 + math.sqrt(2)], abs=1e-9)

    def test_k2_negative_either_vertex(self):
        assert check_pendant_deletion(k2(-1), 0).holds
        assert check_pendant_deletion(k2(-1), 1).holds

    def test_star_leaf(self):
        assert check_pendant_deletion(sg.generate("star", 5, "random", seed=2), 3).holds

    def test_gate_on_non_pendant(self):
        r = check_pendant_deletion(sg.generate("cycle", 4), 0)
        assert not r.hypothesis_met


class TestTreeShrink:
    def test_path_all_positive_frozen(self):
        # P3 -> P2: alpha=(0,1,3), beta=(0,2)
        r = check_tree_shrink("path", 2, seed=0)
        assert r.holds
        assert r.spectra["alpha"] == pytest.approx([0, 1, 3], abs=1e-9)
        assert r.spectra["beta"] == pytest.approx([0, 2], abs=1e-9)

    def test_star_frozen(self):
        # K_{1,3} -> K_{1,2}: alpha=(0,1,1,4), beta=(0,1,3)
        r = check_tree_shrink("star", 3, seed=0)
        assert r.holds
        assert r.spectra["alpha"] == pytest.approx([0, 1, 1, 4], abs=1e-9)
        assert r.spectra["beta"] == pytest.approx([0, 1, 3], abs=1e-9)

    def test_random_signatures(self):
        for seed in range(80):
            assert check_tree_shrink("path", 2 + seed % 10, seed).holds
            assert check_tree_shrink("star", 2 + seed % 10, seed).holds

    def test_guards(self):
        with pytest.raises(BadOrder):
            check_tree_shrink("path", 1, 0)
        with pytest.raises(BadOrder):
            check_tree_shrink("wheel", 3, 0)


class TestLaplacianNetGap:
    def test_all_positive_equality(self):
        r = check_laplacian_net_gap(sg.generate("cycle", 5))
        assert r.holds and abs(r.worst_slack) <= 1e-9

    def test_k2_negative_equality(self):
        r = check_laplacian_net_gap(k2(-1))
        assert r.holds and abs(r.worst_slack) <= 1e-12
        assert r.spectra["alpha"] == pytest.approx([0, 2], abs=1e-12)
        assert r.spectra["beta"] == pytest.approx([-2, 0], abs=1e-12)

    def test_random(self):
        for seed in range(80):
            g = sg.random_signed_graph(4 + seed % 8, 0.5, 0.5, seed=seed)
            assert check_laplacian_net_gap(g).holds

    def test_empty_graph(self):
        with pytest.raises(EmptyGraph):
            check_laplacian_net_gap(sg.generate("empty", 0))


class TestNetEdgeDeletion:
    def test_t32_k2_negative(self):
        r = check_negative_edge_deletion_net(k2(-1), 0, 1)
        assert r.holds
        assert r.spectra["alpha"] == pytest.approx([-2, 0], abs=1e-12)
        assert r.spectra["beta"] == pytest.approx([0, 0], abs=1e-12)

    def test_t32_triangle_one_negative(self):
        g = sg.build_graph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)])
        r = check_negative_edge_deletion_net(g, 0, 1)
        assert r.holds
        # cross-check published spectra against the exact oracle
        assert r.spectra["alpha"] == pytest.approx(
            list(sg.charpoly_spectrum_oracle(sg.net_laplacian(g))), abs=1e-7)

    def test_t32_gate_positive_edge(self):
        r = check_negative_edge_deletion_net(sg.generate("cycle", 3), 0, 1)
        assert not r.hypothesis_met

    def test_t33_k2_positive(self):
        r = check_positive_edge_deletion_net(k2(1), 0, 1)
        assert r.holds

    def test_t33_balanced_c4(self):
        assert check_positive_edge_deletion_net(sg.generate("cycle", 4), 0, 1).holds

    def test_both_random(self):
        rng = random.Random(19)
        done_neg = done_pos = 0
        while done_neg < 50 or done_pos < 50:
            g = sg.random_signed_graph(rng.randrange(3, 11), 0.6, 0.5, seed=rng.randrange(10**6))
            negs = [e for e in g.edges if e[2] == -1]
            poss = [e for e in g.edges if e[2] == 1]
            if negs and done_neg < 50:
                u, v, _ = negs[rng.randrange(len(negs))]
                assert check_negative_edge_deletion_net(g, u, v).holds
                done_neg += 1
            if poss and done_pos < 50:
                u, v, _ = poss[rng.randrange(len(poss))]
                assert check_positive_edge_deletion_net(g, u, v).holds
                done_pos += 1


class TestNetVertexDeletion:
    def test_balanced_c4(self):
        r = check_vertex_deletion_net(sg.generate("cycle", 4), 0)
        assert r.holds

    def test_unbalanced_c3(self):
        g = sg.build_graph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)])
        r = check_vertex_deletion_net(g, 2)
        assert r.holds

    def test_gate_disconnected(self):
        g = sg.build_graph(4, [(0, 1, 1)])
        assert not check_vertex_deletion_net(g, 0).hypothesis_met

    def test_matches_t21_on_all_positive(self):
        # L = N there, so the two vertex-deletion checks agree
        rng = random.Random(20)
        for _ in range(30):
            g = sg.random_signed_graph(7, 0.7, 0.0, seed=rng.randrange(10**6))
            if not sg.is_connected(g):
                continue
            v = rng.randrange(7)
            r_net = check_vertex_deletion_net(g, v)
            r_lap = check_vertex_deletion_laplacian(g, v)
            assert r_net.holds == r_lap.holds
            assert r_net.spectra["alpha"] == pytest.approx(r_lap.spectra["alpha"], abs=1e-9)


class TestOneSignVertexDeletion:
    def test_c35_all_positive(self):
        r = check_negfree_vertex_deletion(sg.generate("complete", 4), 1)
        assert r.holds and r.hypothesis_met and r.theorem == "C3.5"

    def test_c36_all_negative_star_center(self):
        r = check_posfree_vertex_deletion(sg.generate("star", 4, "all_minus"), 0)
        assert r.holds and r.hypothesis_met and r.theorem == "C3.6"

    def test_mixed_vertex_gates_closed(self):
        g = sg.build_graph(3, [(0, 1, 1), (0, 2, -1)])
        assert not check_negfree_vertex_deletion(g, 0).hypothesis_met
        assert not check_posfree_vertex_deletion(g, 0).hypothesis_met
        assert not check_onesign_vertex_deletion(g, 0).hypothesis_met

    def test_dispatcher_picks_branch(self):
        g = sg.build_graph(3, [(0, 1, 1), (0, 2, 1)])
        assert check_onesign_vertex_deletion(g, 0).theorem == "C3.5"
        h = sg.build_graph(3, [(0, 1, -1), (0, 2, -1)])
        assert check_onesign_vertex_deletion(h, 0).theorem == "C3.6"
        with pytest.raises(VertexOutOfRange):
            check_onesign_vertex_deletion(g, 99)

    def test_random_both_branches(self):
        rng = random.Random(21)
        for _ in range(60):
            g = sg.random_signed_graph(rng.randrange(2, 10), 0.5, 0.5, seed=rng.randrange(10**6))
            prof = sg.degree_profile(g)
            for v in range(g.n):
                if prof.neg_degree[v] == 0:
                    assert check_negfree_vertex_deletion(g, v).holds
                if prof.pos_degree[v] == 0:
                    assert check_posfree_vertex_deletion(g, v).holds


class TestCompleteCoregularDeletion:
    def test_gate_non_complete(self):
        assert not check_complete_coregular_deletion(sg.generate("cycle", 4), 0).hypothesis_met

    def test_gate_nonuniform_negative_degree(self):
        g = sg.build_graph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)])
        assert not check_complete_coregular_deletion(g, 0).hypothesis_met

    def test_all_positive_k4_counterexample(self):
        # counterexample: alpha=(0,4,4,4), beta=mu=(0,3,3), s=0; the final
        # link demands alpha_{p+1} <= beta_{p+1}, i.e. 4 <= 3
        r = check_complete_coregular_deletion(sg.generate("complete", 4), 0)
        assert r.hypothesis_met
        assert not r.holds
        assert r.worst_slack == pytest.approx(-1.0, abs=1e-8)
        assert r.links_skipped == ["upper p=3"]

    def test_all_negative_k3_counterexample(self):
        # alpha=(-3,-3,0), beta=(-2,0), mu=(0,2), s=2: first link fails by 7
        r = check_complete_coregular_deletion(sg.generate("complete", 3, "all_minus"), 0)
        assert r.hypothesis_met
        assert not r.holds
        assert r.worst_slack == pytest.approx(-7.0, abs=1e-8)

    def test_middle_links_always_hold(self):
        # the directly-proved part of the chain: alpha_p <= mu_p + (1-2s) <= alpha_{p+1}
        rng = random.Random(22)
        for _ in range(40):
            n = rng.randrange(3, 7)
            # random uniform-negative-degree complete graph: negative edges
            # form a circulant so every vertex has the same negative degree
            k = rng.randrange(0, (n - 1) // 2 + 1)
            edges = []
            for u in range(n):
                for v in range(u + 1, n):
                    dist = min(v - u, n - (v - u))
                    edges.append((u, v, -1 if dist <= k else 1))
            g = sg.build_graph(n, edges)
            prof = sg.degree_profile(g)
            if len(set(prof.neg_degree)) != 1:
                continue
            s = prof.neg_degree[0]
            v = rng.randrange(n)
            alpha = sg.eigenvalues(sg.net_laplacian(g).astype(float))
            sub, _ = sg.delete_vertex(g, v)
            mu = sg.eigenvalues(sg.laplacian(sub).astype(float))
            mid = mu + (1.0 - 2.0 * s)
            scale = max(1.0, np.abs(alpha).max())
            assert ((mid - alpha[:-1]) >= -1e-9 * scale).all()
            assert ((alpha[1:] - mid) >= -1e-9 * scale).all()


class TestNormalizedBounds:
    def test_k2_positive_attains_two(self):
        r = check_normalized_spectrum_bounds(k2(1))
        assert r.holds and r.info["attains_upper_bound"] and not r.info["attains_lower_bound"]
        assert r.spectra["alpha"] == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_k2_negative_attains_minus_two(self):
        r = check_normalized_spectrum_bounds(k2(-1))
        assert r.holds and r.info["attains_lower_bound"]
        assert r.spectra["alpha"] == pytest.approx([-2.0, 0.0], abs=1e-12)

    def test_random_within_bounds(self):
        for seed in range(120):
            g = sg.random_signed_graph(4 + seed % 9, 0.5, 0.5, seed=seed)
            assert check_normalized_spectrum_bounds(g).holds

    def test_isolated_vertices_fine(self):
        assert check_normalized_spectrum_bounds(sg.generate("empty", 4)).holds


class TestNormalizedEdgeDeletion:
    def test_t41_unbalanced_c4_holds(self):
        g = sg.generate("cycle", 4, [-1, 1, 1, 1])
        r = check_negative_edge_deletion_normalized(g, 0, 1)
        assert r.hypothesis_met and r.holds
        assert r.links_skipped == ["upper p=3", "upper p=4"]

    def test_t41_k3_one_negative_holds(self):
        g = sg.build_graph(3, [(0, 1, -1), (1, 2, 1), (0, 2, 1)])
        assert check_negative_edge_deletion_normalized(g, 0, 1).holds

    def test_t41_all_negative_triangle_counterexample(self):
        # deleting an edge of the all-negative triangle drops the bottom
        # normalized eigenvalue from -3/2 to -2: lower link fails by 1/2
        g = sg.generate("cycle", 3, "all_minus")
        r = check_negative_edge_deletion_normalized(g, 0, 1)
        assert r.hypothesis_met
        assert not r.holds
        assert r.worst_slack == pytest.approx(-0.5, abs=1e-9)
        assert r.witness_position == 1

    def test_t41_gates(self):
        r = check_negative_edge_deletion_normalized(sg.generate("cycle", 3), 0, 1)
        assert not r.hypothesis_met  # positive edge
        g = sg.build_graph(3, [(0, 1, -1)])
        assert not check_negative_edge_deletion_normalized(g, 0, 1).hypothesis_met  # isolate
        h = sg.build_graph(3, [(0, 1, -1), (1, 2, 1)])
        assert not check_negative_edge_deletion_normalized(h, 0, 1).hypothesis_met  # isolates 0

    def test_t42_balanced_c4_holds(self):
        r = check_positive_edge_deletion_normalized(sg.generate("cycle", 4), 0, 1)
        assert r.hypothesis_met and r.holds
        assert r.links_skipped == ["lower p=1", "upper p=4"]

    def test_t42_all_positive_k3_holds(self):
        assert check_positive_edge_deletion_normalized(sg.generate("complete", 3), 0, 1).holds

    def test_t42_counterexample(self):
        # minimal 4-vertex case: the lower link alpha_{p-1} <= beta_p fails
        g = sg.build_graph(4, [(0, 2, 1), (0, 3, -1), (1, 2, -1)])
        r = check_positive_edge_deletion_normalized(g, 0, 2)
        assert r.hypothesis_met
        assert not r.holds
        assert r.worst_slack == pytest.approx(-0.5, abs=1e-9)


class TestContractionNormalized:
    def test_disjoint_case_holds(self):
        g = sg.build_graph(4, [(0, 2, 1), (1, 3, 1), (2, 3, 1)])
        r = check_contraction_normalized(g, 0, 1)
        assert r.hypothesis_met and r.holds

    def test_p4_endpoints_hold(self):
        r = check_contraction_normalized(sg.generate("path", 4), 0, 3)
        assert r.hypothesis_met and r.holds

    def test_star_leaves_gate(self):
        r = check_contraction_normalized(sg.generate("star", 4), 1, 2)
        assert not r.hypothesis_met

    def test_counterexample_signed_path(self):
        # contract the adjacent pair of a 3-vertex graph signed (-, +):
        # beta_2 = 2 exceeds alpha_3 = sqrt(2); upper link fails by 2-sqrt(2)
        g = sg.build_graph(3, [(0, 1, -1), (0, 2, 1)])
        r = check_contraction_normalized(g, 0, 1)
        assert r.hypothesis_met
        assert not r.holds
        assert r.worst_slack == pytest.approx(math.sqrt(2.0) - 2.0, abs=1e-9)


class TestDeterministicFamilies:
    """Sweep the small named families through every applicable checker."""

    def _family_graphs(self):
        for n in range(3, 9):
            yield sg.generate("cycle", n)
            yield sg.generate("cycle", n, [-1] + [1] * (n - 1))
            yield sg.generate("path", n)
            yield sg.generate("path", n, "all_minus")
            yield sg.generate("star", n)
            yield sg.generate("star", n, "all_minus")
            yield sg.generate("complete", n)

    def test_vertex_and_edge_checks_hold(self):
        for g in self._family_graphs():
            assert check_vertex_deletion_laplacian(g, 0).holds
            r = check_vertex_deletion_net(g, g.n - 1)
            assert r.holds  # all families here are connected
            assert check_laplacian_net_gap(g).holds
            assert check_normalized_spectrum_bounds(g).holds
            u, v, s = g.edges[0]
            assert check_edge_deletion_laplacian(g, u, v).holds
            if s == 1:
                assert check_positive_edge_deletion_net(g, u, v).holds
            else:
                assert check_negative_edge_deletion_net(g, u, v).holds

    def test_hypothesis_specific_checks_hold(self):
        for n in range(3, 9):
            star = sg.generate("star", n)
            assert check_dominating_vertex_deletion(star, 0).holds
            assert check_pendant_deletion(star, n - 1).holds
            path = sg.generate("path", n)
            assert check_pendant_deletion(path, 0).holds
            comp = sg.generate("complete", n)
            assert check_negfree_vertex_deletion(comp, 0).holds
            comp_neg = sg.generate("complete", n, "all_minus")
            assert check_posfree_vertex_deletion(comp_neg, 0).holds


class TestReportSerialization:
    def test_round_trip_identity(self):
        reports = [
            check_vertex_deletion_laplacian(sg.generate("cycle", 5, [1, -1, 1, 1, -1]), 2),
            check_pendant_deletion(sg.generate("cycle", 4), 0),  # skipped
            check_normalized_spectrum_bounds(k2(1)),
        ]
        for r in reports:
            assert report_from_dict(json.loads(json.dumps(report_to_dict(r)))) == r

    def test_whole_campaign_round_trips(self):
        # includes skipped reports (worst_slack = Infinity survives json)
        res = run_campaign(CampaignConfig(samples=3, seed=41))
        doc = json.loads(campaign_to_json(res))
        rebuilt = [report_from_dict(d) for d in doc["reports"]]
        assert rebuilt == res.reports


class TestCampaign:
    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            CampaignConfig(samples=0).validate()
        with pytest.raises(ConfigInvalid):
            CampaignConfig(p=1.5).validate()
        with pytest.raises(ConfigInvalid):
            CampaignConfig(n_min=10, n_max=4).validate()
        with pytest.raises(ConfigInvalid):
            CampaignConfig(theorems=("T9.9",)).validate()

    def test_repeated_check_ids_rejected(self):
        with pytest.raises(ConfigInvalid, match=r"repeated check ids: \['B4', 'T4.1'\]"):
            CampaignConfig(theorems=("T4.1", "B4", "T2.1", "T4.1", "B4")).validate()

    def test_deterministic_given_seed(self):
        cfg = CampaignConfig(theorems=("T2.1", "L2.3", "B4"), samples=20, seed=5)
        r1 = run_campaign(cfg)
        r2 = run_campaign(CampaignConfig(theorems=("T2.1", "L2.3", "B4"), samples=20, seed=5))
        assert campaign_to_json(r1) == campaign_to_json(r2)
        assert campaign_to_csv(r1) == campaign_to_csv(r2)

    def test_seed_changes_output(self):
        cfg_a = CampaignConfig(theorems=("T2.1",), samples=10, seed=1)
        cfg_b = CampaignConfig(theorems=("T2.1",), samples=10, seed=2)
        assert campaign_to_json(run_campaign(cfg_a)) != campaign_to_json(run_campaign(cfg_b))

    def test_per_check_stream_independent_of_subset(self):
        solo = run_campaign(CampaignConfig(theorems=("L3.1",), samples=8, seed=9))
        multi = run_campaign(CampaignConfig(theorems=("T2.1", "L3.1"), samples=8, seed=9))
        solo_reports = [report_to_dict(r) for r in solo.reports]
        multi_reports = [report_to_dict(r) for r in multi.reports if r.theorem == "L3.1"]
        assert solo_reports == multi_reports

    def test_summary_counts_consistent(self):
        cfg = CampaignConfig(samples=5, seed=30)
        res = run_campaign(cfg)
        assert len(res.reports) == 5 * len(CHECK_IDS)
        for s in res.summary:
            assert s["hypothesis_met"] + s["skipped"] == s["samples"]
            assert s["holds"] + s["fails"] == s["hypothesis_met"]

    def test_csv_has_one_row_per_check(self):
        cfg = CampaignConfig(theorems=("T2.1", "B4"), samples=4, seed=1)
        res = run_campaign(cfg)
        lines = campaign_to_csv(res).strip().splitlines()
        assert len(lines) == 1 + 8

    def test_reports_equal_the_checker_path(self):
        # the campaign solves each id's matrices in one call; every report
        # must equal what `sgspectra check` builds for the same sample
        cfg = CampaignConfig(samples=30, seed=11)
        res = run_campaign(cfg)
        for ti, theorem in enumerate(CHECK_IDS):
            for i in range(cfg.samples):
                drawn = _draw(CHECKS[theorem], cfg, _mix(cfg.seed, ti, i))
                if not isinstance(drawn, InterlacingReport):
                    drawn = CHECKERS[theorem](*drawn, cfg.tol)
                got = res.reports[ti * cfg.samples + i]
                assert json.dumps(report_to_dict(got)) == json.dumps(report_to_dict(drawn))
        one = run_campaign(CampaignConfig(samples=1, seed=11))
        assert [json.dumps(report_to_dict(r)) for r in one.reports] == [
            json.dumps(report_to_dict(r)) for r in res.reports[::cfg.samples]]

    def test_solves_one_stack_of_entries_at_a_time(self, monkeypatch):
        # an id's prepared samples are solved whenever their matrices fill a
        # stack, so only one stack's worth of matrices is held at a time
        cfg = CampaignConfig(theorems=("T2.1", "C3.7", "B4"), samples=40, seed=4)
        whole = campaign_to_json(run_campaign(cfg))
        sizes = []
        real = verify.eigenvalues_many

        def spy(mats):
            sizes.append(sum(m.size for m in mats))
            return real(mats)

        monkeypatch.setattr(verify, "eigenvalues_many", spy)
        monkeypatch.setattr(verify, "_STACK_ENTRIES", 300)
        assert campaign_to_json(run_campaign(cfg)) == whole
        assert len(sizes) > 3 * len(cfg.theorems)
        # a group closes once it reaches 300 entries; one sample adds at most
        # three matrices of order 12
        assert max(sizes) < 300 + 3 * 12 * 12

    def test_builders_looked_up_at_call_time(self, monkeypatch):
        # records reach the matrix builders through the module's globals, so
        # a tracer that rebinds those names sees every call
        calls = []
        for name in ("laplacian", "net_laplacian", "normalized_net_laplacian"):
            real = getattr(verify, name)
            monkeypatch.setattr(verify, name,
                                lambda g, name=name, real=real: calls.append(name) or real(g))
        g = sg.generate("cycle", 5)
        check_laplacian_net_gap(g)
        check_normalized_spectrum_bounds(g)
        check_vertex_deletion_net(g, 0)
        assert calls == ["laplacian", "net_laplacian", "normalized_net_laplacian",
                         "net_laplacian", "net_laplacian"]

    def test_all_checker_ids_runnable(self):
        res = run_campaign(CampaignConfig(samples=2, seed=77))
        assert {r.theorem for r in res.reports} == set(CHECK_IDS)


def _reference_json(result):
    # the stdlib encoder, which campaign_to_json must match byte for byte
    doc = {
        "config": dataclasses.asdict(result.config),
        "summary": result.summary,
        "reports": [report_to_dict(r) for r in result.reports],
    }
    return json.dumps(doc, indent=2) + "\n"


def _reference_csv(result):
    def fmt(x):
        return f"{x:.17g}"

    fields = ("theorem", "hypothesis_met", "holds", "worst_slack", "witness_position", "tol",
              "graph", "surgery", "spectrum_alpha", "spectrum_beta", "spectrum_mu",
              "links_skipped", "note")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for r in result.reports:
        writer.writerow({
            "theorem": r.theorem,
            "hypothesis_met": r.hypothesis_met,
            "holds": r.holds,
            "worst_slack": fmt(r.worst_slack),
            "witness_position": r.witness_position,
            "tol": fmt(r.tol),
            "graph": r.graph,
            "surgery": json.dumps(r.surgery, sort_keys=True),
            "spectrum_alpha": " ".join(fmt(x) for x in r.spectra.get("alpha", [])),
            "spectrum_beta": " ".join(fmt(x) for x in r.spectra.get("beta", [])),
            "spectrum_mu": " ".join(fmt(x) for x in r.spectra.get("mu", [])),
            "links_skipped": ";".join(r.links_skipped),
            "note": r.note,
        })
    return buf.getvalue()


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Text(str):
    pass


class _Items(list):
    pass


class _Map(dict):
    pass


# Values whose indent=2 text json.dumps defines: every scalar kind, the
# non-finite floats alone and inside lists, subclasses json accepts, and
# every key type it converts.
_JSON_EDGE_DOCS = [
    0.0, -0.0, 1e-300, -2.5e17, math.inf, -math.inf, math.nan, 7, -3, True, False, None,
    "", "plain", "quote \" backslash \\ tab \t nul \x00 bell \x07 del \x7f",
    "non-ASCII: é ß ∞ 😀", [], {}, (), [[]], [{}], {"a": []}, {"a": {}},
    [1.5, -0.0, 2e-9], [1.0, math.inf], [math.nan, 2.0], [-math.inf], [1.0, 2],
    [1.0, "x"], [1.0, None], [1.0, [2.0]], ["a", "b"], ["a", 1], ["a", ["b"]],
    (1.0, 2.0), ("x", (1, 2.5)), [True, False, None, 0, 1],
    [np.float64(0.1), np.float64(-math.inf), 2.0], np.float64(3.25), np.float64(math.nan),
    _Level.HIGH, [_Level.LOW, 2.0], {"level": _Level.LOW}, {_Level.HIGH: 1},
    _Text("sub"), [_Text("a"), "b"], _Items([1.0, 2.0]), _Items(), _Map(a=1, b=[2.0]), _Map(),
    {1: "int", 2.5: "float", -0.0: "negzero", math.inf: "inf", -math.inf: "-inf",
     math.nan: "nan", True: "true", False: "false", None: "null", "s": "str"},
    {"n": [{"a": [1.0, {"b": (2, "c")}], "d": None}, [], [[1.0, math.nan]]]},
    {"é": "ü", "ctl\n": "\r\x1f"},
]


class TestJsonWriter:
    """campaign_to_json, campaign_to_csv and `sgspectra check` print the bytes
    the stdlib's encoders give."""

    def _campaign(self):
        res = run_campaign(CampaignConfig(samples=4, seed=2))
        # one report with a third spectrum, mu, which the campaign never meets
        k4 = sg.generate("complete", 4)
        extra = check_complete_coregular_deletion(k4, 0)
        assert extra.spectra["mu"]
        return verify.CampaignResult(res.config, res.reports + [extra], res.summary)

    def test_campaign_json_equals_stdlib(self):
        res = self._campaign()
        reports = res.reports
        # the features the writer must reproduce are all present
        assert any(r.worst_slack == math.inf for r in reports)  # skipped reports
        assert any(r.info for r in reports)
        assert any(r.links_skipped for r in reports)
        assert any(isinstance(x, list) for r in reports for x in r.surgery.values())
        assert res.config.tol is None
        assert campaign_to_json(res) == _reference_json(res)

    def test_campaign_csv_equals_stdlib(self):
        res = self._campaign()
        assert campaign_to_csv(res) == _reference_csv(res)

    def test_package_documents_never_reach_json_dumps(self, monkeypatch):
        # the writer defers to json.dumps only for values no report holds
        res = self._campaign()
        assert {r.theorem for r in res.reports} == set(CHECK_IDS)
        with_mu = verify.CampaignResult(res.config, res.reports[-1:], res.summary[:1])
        by_kind = {verify.ARG_KINDS[r.theorem]: r for r in res.reports if r.hypothesis_met}
        assert set(by_kind) == {"graph", "vertex", "edge", "pair", "cycle", "seeded"}
        expected = [_reference_json(res), _reference_json(with_mu)]
        expected_reports = [json.dumps(report_to_dict(r), indent=2) for r in by_kind.values()]

        def dumps(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(verify, "json", types.SimpleNamespace(dumps=dumps))
        assert [campaign_to_json(res), campaign_to_json(with_mu)] == expected
        assert [verify.report_to_json(r) for r in by_kind.values()] == expected_reports

    @pytest.mark.parametrize("i", range(len(_JSON_EDGE_DOCS)))
    def test_edge_values(self, i):
        doc = _JSON_EDGE_DOCS[i]
        assert verify._json_text(doc) == json.dumps(doc, indent=2)
        assert verify._json_text([doc, {"k": doc}]) == json.dumps([doc, {"k": doc}], indent=2)

    def test_random_nested_documents(self):
        rng = random.Random(5)
        leaves = [1.0, -0.0, 2.5e-8, math.inf, -math.inf, math.nan, 0, -7, True, False, None,
                  "s", "é\n", np.float64(0.5), _Level.LOW, _Text("t")]

        def build(depth):
            pick = rng.random()
            if depth == 0 or pick < 0.4:
                return rng.choice(leaves)
            if pick < 0.55:  # a homogeneous list, as spectra and links are
                leaf = rng.choice([1.5, "x", math.inf])
                return [leaf] * rng.randrange(0, 4) + [build(depth - 1)] * rng.randrange(0, 2)
            items = [build(depth - 1) for _ in range(rng.randrange(0, 4))]
            if pick < 0.75:
                return items if rng.random() < 0.8 else tuple(items)
            keys = ["k", "é", 3, 2.5, True, None, _Level.HIGH]
            return {rng.choice(keys): x for x in items}

        for _ in range(300):
            doc = build(4)
            assert verify._json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [
        np.int64(3), [1.0, np.int64(3)], {"a": {1, 2}}, [np.bool_(True)], object(),
        {(1, 2): "tuple key"}, {"a": {b"bytes": 1}},
    ], ids=["int64", "int64-in-list", "set", "bool_", "object", "tuple-key", "bytes-key"])
    def test_unsupported_types_raise_as_json_does(self, doc):
        with pytest.raises(TypeError) as stdlib:
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError) as ours:
            verify._json_text(doc)
        assert str(ours.value) == str(stdlib.value)

    def test_circular_container_raises_as_json_does(self):
        loop = [1.0]
        loop.append({"back": loop})
        for doc in (loop, {"x": [loop]}):
            with pytest.raises(ValueError):
                json.dumps(doc, indent=2)
            with pytest.raises(ValueError, match="Circular reference"):
                verify._json_text(doc)
        shared = [1.0, 2.0]  # a container met twice is not a cycle
        assert verify._json_text([shared, {"s": shared}]) == json.dumps([shared, {"s": shared}],
                                                                         indent=2)

    def test_cycle_of_exact_types_raises_as_json_does(self):
        # no fast path meets a TypeError here: the writer recurses until
        # RecursionError and defers to json.dumps
        loop, ring = [], {}
        loop.append(loop)
        ring["ring"] = [ring]
        for doc in (loop, ring):
            with pytest.raises(ValueError, match="Circular reference"):
                verify._json_text(doc)


class TestSolve:
    def test_no_solver_call_when_every_check_stops_at_the_gate(self, monkeypatch):
        calls = []
        real = verify.eigenvalues_many
        monkeypatch.setattr(verify, "eigenvalues_many", lambda mats: calls.append(1) or real(mats))
        rec = CHECKS["C2.2"]
        gated = [verify._prepare(rec, None, sg.generate("path", 4), 0) for _ in range(3)]
        assert all(isinstance(p, InterlacingReport) for p in gated)
        assert verify._solve(rec, gated, None) == gated
        assert calls == []
        met = verify._prepare(rec, None, sg.generate("star", 4), 0)
        reports = verify._solve(rec, gated + [met], None)
        assert calls == [1]
        assert reports[:3] == gated and reports[3].hypothesis_met
