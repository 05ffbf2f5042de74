"""Inequality checkers: worked examples, hypothesis gates, campaigns.

Expected verdicts marked "counterexample" below were established by hand
computation and double-checked with the exact characteristic-polynomial
oracle; they document inputs where the checked chain genuinely fails.
"""
import ast
import csv
import dataclasses
import enum
import functools
import inspect
import io
import itertools
import json
import math
import random
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest

import sgspectra as sg
from sgspectra import verify
from sgspectra.errors import (
    ArgMismatch,
    BadOrder,
    ConfigInvalid,
    EmptyGraph,
    LengthMismatch,
    NoSuchEdge,
    SameVertex,
    VertexOutOfRange,
)
from sgspectra.surgery import add_edge, contract, delete_edge, delete_vertex
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


class TestPublicNames:
    _NAMED = [rec for rec in verify._TABLE if rec.id not in ("C2.8", "C2.9")]

    def test_each_name_is_its_checker(self):
        names = [rec.name for rec in self._NAMED]
        assert len(names) == len(set(names)) == 17
        for rec in self._NAMED:
            assert getattr(verify, rec.name) is CHECKERS[rec.id]
        assert {rec.name for rec in verify._TABLE if rec.id in ("C2.8", "C2.9")} == {"check_tree_shrink"}

    def test_binding_overwrites_no_name_the_module_defines(self):
        tree = ast.parse(inspect.getsource(verify))
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                defined.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        assert "check_tree_shrink" in defined and "CHECKERS" in defined
        assert not defined & {rec.name for rec in self._NAMED}


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

    @pytest.mark.parametrize("args", [([[0]], [[1]], [[2]]), (0, 1, 2)], ids=["2-D", "scalars"])
    def test_not_vectors(self, args):
        with pytest.raises(LengthMismatch, match="real vectors of one length"):
            check_chain(*args, 0.0)

    def test_no_default_tol(self):
        # a -inf/+inf sentinel would make default_tol infinite, and every chain hold
        with pytest.raises(ConfigInvalid, match="no default tol"):
            check_chain([0], [1], [2], None)

    def test_empty_chain_holds_with_no_witness(self):
        assert check_chain([], [], [], 0.0) == (True, math.inf, 0)

    def test_tightening_tol_never_flips_fail_to_hold(self):
        holds_loose, *_ = check_chain([0], [1.2], [1], 0.5)
        holds_tight, *_ = check_chain([0], [1.2], [1], 0.01)
        assert holds_loose and not holds_tight


class TestTol:
    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf, "x", 10**400, True],
                             ids=["nan", "-1", "-inf", "str", "huge", "bool"])
    def test_nan_or_negative_rejected_on_every_path(self, tol):
        c4 = sg.generate("cycle", 4)
        mixed = sg.generate("star", 3, [1, -1])  # C3.5's gate skips its centre
        calls = [
            lambda: CampaignConfig(tol=tol).validate(),
            lambda: run_campaign(CampaignConfig(theorems=("T2.1",), samples=2, tol=tol)),
            lambda: check_chain([0.0], [1.0], [2.0], tol),
            lambda: check_vertex_deletion_laplacian(c4, 0, tol),
            lambda: check_vertex_deletion_laplacian(c4, 0, tol=tol),
            lambda: check_pendant_deletion(c4, 0, tol),  # a skipped report
            lambda: check_cycle_shrink(4, [1, 1, 1, 1, -1], -1, tol),
            lambda: check_tree_shrink("path", 4, 1, tol),
            lambda: CHECKERS["C3.5"](mixed, 0, tol),
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

    # numpy scalars of every width, and values a float holds only as inf
    @pytest.mark.parametrize("tol", [np.float16(0.01), np.float32(1e-6), np.float32(math.inf),
                                     np.float64(1e-6), np.longdouble(1e-6), 0, math.inf],
                             ids=["float16", "float32", "float32-inf", "float64", "longdouble", "0", "inf"])
    def test_real_tol_of_any_precision_accepted_without_warning(self, tol):
        # pytest turns warnings into errors: an overflow in a range test fails here
        c4 = sg.generate("cycle", 4)
        assert CHECKERS["T2.1"](c4, 0, tol).holds
        assert check_chain([0.0], [1.0], [2.0], tol)[0]
        cfg = CampaignConfig(tol=tol)
        cfg.validate()
        assert cfg.tol == float(tol)

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, True, "x", 10**400, Fraction(10**400),
                                     np.longdouble("1e400"), np.float32(math.nan), -10**400],
                             ids=["nan", "negative", "bool", "str", "huge-int", "huge-fraction",
                                  "huge-longdouble", "float32-nan", "huge-negative"])
    def test_tol_beyond_float_range_or_not_real_rejected(self, tol):
        # float(np.longdouble("1e400")) is inf: only a tol that is itself infinite passes as inf
        calls = [lambda: CHECKERS["T2.1"](sg.generate("cycle", 4), 0, tol),
                 lambda: check_chain([0.0], [1.0], [2.0], tol),
                 lambda: CampaignConfig(tol=tol).validate()]
        for call in calls:
            with pytest.raises(ConfigInvalid, match="tol must be"):
                call()

    @pytest.mark.parametrize("theorem", CHECK_IDS)
    def test_wrong_argument_count_raises_arg_mismatch(self, theorem):
        params = {"graph": "g", "vertex": "g, v", "edge": "g, u, v", "pair": "g, a, b",
                  "cycle": "m, sig1, sign_last", "seeded": "m, seed"}[verify.ARG_KINDS[theorem]]
        usage = f"{theorem} takes ({params}[, tol])"
        args = (sg.generate("cycle", 4),) + (0,) * params.count(",")
        calls = [(args[:-1], {}), (args + (1e-9, 1e-9), {}), (args + (1e-9,), {"tol": 1e-9})]
        for call_args, kw in calls:
            given = len(call_args) + len(kw)
            with pytest.raises(ArgMismatch) as exc:
                CHECKERS[theorem](*call_args, **kw)
            assert str(exc.value) == f"{usage}, got {given} argument{'s' * (given != 1)}"

    @pytest.mark.parametrize("theorem", CHECK_IDS)
    def test_keyword_argument_raises_arg_mismatch(self, theorem):
        params = CHECKS[theorem].kind.params
        usage = f"{theorem} takes ({', '.join(params)}[, tol])"
        args = (sg.generate("cycle", 4),) + (0,) * (len(params) - 1)
        # each parameter by keyword, with or without tol, and an unknown keyword
        calls = [(args[:-1], {params[-1]: args[-1]}, params[-1]),
                 (args[:-1], {params[-1]: args[-1], "tol": 1e-9}, params[-1]),
                 (args, {"eps": 1e-9}, "eps")]
        for call_args, kw, name in calls:
            with pytest.raises(ArgMismatch) as exc:
                CHECKERS[theorem](*call_args, **kw)
            assert str(exc.value) == f"{usage}, got keyword {name!r}"

    @pytest.mark.parametrize("theorem, args", [
        ("T2.1", (sg.generate("cycle", 5, "all_minus"), 0)),
        ("L3.1", (sg.generate("complete", 6, "random", seed=3),)),
        ("C3.7", (sg.generate("complete", 4), 0)),  # three spectra
        ("B4", (k2(-1),)),  # spectrum [-2, 0]: the scale is a magnitude
    ])
    def test_default_tol_is_the_reported_tol(self, theorem, args):
        r = CHECKERS[theorem](*args)
        assert r.hypothesis_met
        assert r.tol == verify.default_tol(*r.spectra.values())


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

    def test_one_vertex_gate_names_the_order(self):
        # no other vertex to be adjacent to: the two-vertex stage fails first, as in T2.1
        for t in ("C2.2", "T2.1"):
            r = CHECKERS[t](sg.SignedGraph(1, ()), 0)
            assert not r.hypothesis_met and r.note == "graph has fewer than 2 vertices"


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

    @pytest.mark.parametrize("call", [lambda m: check_cycle_shrink(m, "++++", 1),
                                      lambda m: check_cycle_shrink_random(m, 0),
                                      lambda m: check_tree_shrink("path", m, 0),
                                      lambda m: check_tree_shrink("star", m, 0)],
                             ids=["T2.4", "C2.5", "C2.8", "C2.9"])
    def test_order_guard_messages(self, call):
        # a non-integer m is not an order at all; an integer one below the
        # family's minimum is too small
        for m in (3.0, "3", True):
            with pytest.raises(BadOrder, match=r"^m must be an integer, got "):
                call(m)
        for m in (1, np.int64(1)):
            with pytest.raises(BadOrder, match=r"comparison needs m >= [23], got "):
                call(m)

    @pytest.mark.parametrize("text", ["++++", "+-+-+-"])
    def test_sign_string_list_and_array_agree(self, text):
        # the small cycle takes its path signs from the large cycle, which
        # generate builds from sig1 in any form it accepts
        signs = [1 if c == "+" else -1 for c in text]
        m = len(text) - 1
        want = verify.report_to_json(check_cycle_shrink(m, signs, -1))
        for sig1 in (text, np.array(signs)):
            assert verify.report_to_json(check_cycle_shrink(m, sig1, -1)) == want

    @pytest.mark.parametrize("token, sign", [("+", 1), ("-", -1)], ids=["plus", "minus"])
    def test_sign_last_token_equals_int(self, token, sign):
        for sig1 in ("++++", "+--+"):
            want = verify.report_to_json(check_cycle_shrink(3, sig1, sign))
            assert verify.report_to_json(check_cycle_shrink(3, sig1, token)) == want

    def test_bad_sign_last_token_raises_as_bad_sig1_does(self):
        for sig1, last in (("++++", "x"), ("++x+", "+")):
            with pytest.raises(ValueError, match="bad sign token 'x'"):
                check_cycle_shrink(3, sig1, last)


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

    def test_goes_through_checkers(self, monkeypatch):
        # a tracer that wraps CHECKERS sees check_tree_shrink's calls
        seen = []
        for t in ("C2.8", "C2.9"):
            checker = CHECKERS[t]
            monkeypatch.setitem(CHECKERS, t, lambda *a, t=t, f=checker: seen.append((t, a)) or f(*a))
        want = [verify.report_to_json(CHECKERS[t](3, 5)) for t in ("C2.8", "C2.9")]
        seen.clear()
        got = [verify.report_to_json(check_tree_shrink(kind, 3, 5)) for kind in ("path", "star")]
        assert got == want
        assert seen == [("C2.8", (3, 5, None)), ("C2.9", (3, 5, None))]

    def test_guards(self):
        with pytest.raises(BadOrder):
            check_tree_shrink("path", 1, 0)
        with pytest.raises(BadOrder):
            check_tree_shrink("wheel", 3, 0)
        with pytest.raises(BadOrder):
            check_tree_shrink(["path"], 3, 0)


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

    def test_dispatcher_picks_branch(self):
        # the gates pick the branch: C3.5 takes the all-positive vertex, C3.6 the all-negative one
        g = sg.build_graph(3, [(0, 1, 1), (0, 2, 1)])
        h = sg.build_graph(3, [(0, 1, -1), (0, 2, -1)])
        assert CHECKERS["C3.5"](g, 0).hypothesis_met and not CHECKERS["C3.6"](g, 0).hypothesis_met
        assert CHECKERS["C3.6"](h, 0).hypothesis_met and not CHECKERS["C3.5"](h, 0).hypothesis_met
        for theorem in ("C3.5", "C3.6"):
            with pytest.raises(VertexOutOfRange):
                CHECKERS[theorem](g, 99)

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



# Negation: N(-G) = -N(G), so every net spectrum is negated and reversed, a
# negative edge becomes positive and an all-positive vertex all-negative.
_NEGATION_DUALS = {"T3.2": "T3.3", "T3.3": "T3.2", "C3.5": "C3.6", "C3.6": "C3.5"}


def test_negation_maps_each_met_report_to_its_dual():
    # witness positions reverse under negation and are not compared
    from sgspectra.fileio import from_edge_string
    res = run_campaign(CampaignConfig(theorems=tuple(_NEGATION_DUALS), samples=200, seed=0))
    met = [r for r in res.reports if r.hypothesis_met]
    assert {r.theorem for r in met} == set(_NEGATION_DUALS)
    for r in met:
        g = from_edge_string(r.graph)
        neg = sg.SignedGraph(g.n, tuple((u, v, -s) for u, v, s in g.edges))
        dual = CHECKERS[_NEGATION_DUALS[r.theorem]](neg, *r.surgery.get("edge", [r.surgery.get("vertex")]))
        scale = max(1.0, *(abs(x) for spectrum in r.spectra.values() for x in spectrum))
        assert dual.hypothesis_met and dual.holds == r.holds, (r.theorem, r.graph, r.surgery)
        assert abs(dual.worst_slack - r.worst_slack) <= 1e-12 * scale, (r.theorem, r.graph, r.surgery)


# Relabelling the vertices is a permutation similarity of every matrix, and
# switching a +-1 diagonal similarity of the Laplacian.  L3.1 is left out of
# switching: its net-Laplacian's spectrum moves.
_RELABELLED = ("T2.1", "C2.2", "L2.3", "T2.7", "L3.1", "T3.2", "T3.3", "T3.4", "C3.5", "C3.6", "B4",
               "T4.1", "T4.2", "T4.3")
_SWITCHED = ("T2.1", "C2.2", "L2.3", "T2.7")


def test_relabelling_and_switching_keep_each_report():
    from sgspectra.fileio import from_edge_string
    rng = random.Random(0)
    res = run_campaign(CampaignConfig(theorems=_RELABELLED, samples=200, seed=0))
    assert {r.theorem for r in res.reports if r.hypothesis_met} == set(_RELABELLED)
    for r in res.reports:
        g = from_edge_string(r.graph)
        arg = r.surgery.get(CHECKS[r.theorem].kind.name, [])  # a graph id's surgery is {}
        arg = arg if isinstance(arg, list) else [arg]
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabelled = sg.build_graph(g.n, [(perm[u], perm[v], s) for u, v, s in g.edges])
        images = [CHECKERS[r.theorem](relabelled, *(perm[x] for x in arg))]
        if r.theorem in _SWITCHED:
            alpha = [rng.choice((1, -1)) for _ in range(g.n)]
            images.append(CHECKERS[r.theorem](sg.apply_switching(g, alpha), *arg))
        for image in images:
            assert (image.hypothesis_met, image.holds) == (r.hypothesis_met, r.holds), (r.theorem, r.graph)
            if r.hypothesis_met:
                scale = max(1.0, *(abs(x) for spectrum in r.spectra.values() for x in spectrum))
                assert abs(image.worst_slack - r.worst_slack) <= 1e-12 * scale, (r.theorem, r.graph)


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

    def test_no_vertices(self):
        r = check_normalized_spectrum_bounds(sg.SignedGraph(0, ()))
        assert r.hypothesis_met and r.holds
        assert (r.worst_slack, r.witness_position, r.info) == (math.inf, 0, {})


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

    @pytest.mark.parametrize("g", [sg.generate("path", 4),
                                   # vertex 1 is isolated: its pair with itself fails no
                                   # disjointness stage, only the isolation stage
                                   sg.build_graph(4, [(0, 2, 1), (2, 3, -1)])],
                             ids=["path", "isolated"])
    def test_same_vertex_raises_after_the_range_check(self, g):
        for v in (1, np.int64(1)):
            with pytest.raises(SameVertex, match="^vertices must differ, both are 1$"):
                check_contraction_normalized(g, v, v)
        with pytest.raises(VertexOutOfRange):
            check_contraction_normalized(g, 7, 7)

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

    def test_numpy_reals_stored_as_plain_floats(self):
        # a numpy float would send the whole document to the slow json.dumps path
        ids = ("T2.1", "B4")
        cfg = CampaignConfig(ids, p=np.float64(0.5), q=np.float32(0.25), samples=3, tol=np.float64(1e-9))
        cfg.validate()
        assert [type(x) for x in (cfg.p, cfg.q, cfg.tol)] == [float, float, float]
        plain = CampaignConfig(ids, p=0.5, q=0.25, samples=3, tol=1e-9)
        assert campaign_to_json(run_campaign(cfg)) == campaign_to_json(run_campaign(plain))
        ints = CampaignConfig(ids, p=1, q=0)
        ints.validate()
        assert (type(ints.p), type(ints.q), ints.tol) == (int, int, None)

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
                    args = drawn
                    drawn = CHECKERS[theorem](*args, cfg.tol)
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
        real = verify.eigenvalues_stack

        def spy(a, orders):
            sizes.append(sum(n * n for n in orders))
            return real(a, orders)

        monkeypatch.setattr(verify, "eigenvalues_stack", spy)
        monkeypatch.setattr(verify, "_STACK_ENTRIES", 300)
        assert campaign_to_json(run_campaign(cfg)) == whole
        assert len(sizes) > 3 * len(cfg.theorems)
        # a group closes once it reaches 300 entries; one sample adds at most
        # three matrices of order 12
        assert max(sizes) < 300 + 3 * 12 * 12

    def test_builders_looked_up_at_call_time(self, monkeypatch):
        # records reach the matrix assembler and the eigensolver through the
        # module's globals, so a tracer that rebinds those names sees every
        # call: one of each per stack, the stack naming each check's builders
        calls = []
        assemble, solve = verify.assemble, verify.eigenvalues_stack
        monkeypatch.setattr(verify, "assemble", lambda slots: calls.append(
            tuple(build.__name__ for build, _, _ in slots)) or assemble(slots))
        monkeypatch.setattr(verify, "eigenvalues_stack",
                            lambda a, orders: calls.append(a.shape) or solve(a, orders))
        g = sg.generate("cycle", 5)
        check_laplacian_net_gap(g)
        check_normalized_spectrum_bounds(g)
        check_vertex_deletion_net(g, 0)
        assert calls == [("laplacian", "net_laplacian"), (2, 5, 5),
                         ("normalized_net_laplacian",), (1, 5, 5),
                         ("net_laplacian", "net_laplacian"), (2, 5, 5)]

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


def _csv_rows(result):
    # each report's fields as the stdlib writer below is handed them
    def fmt(x):
        return f"{x:.17g}"

    return [{
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
    } for r in result.reports]


def _reference_csv(result):
    fields = ("theorem", "hypothesis_met", "holds", "worst_slack", "witness_position", "tol",
              "graph", "surgery", "spectrum_alpha", "spectrum_beta", "spectrum_mu",
              "links_skipped", "note")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(_csv_rows(result))
    return buf.getvalue()


# Text that the CSV writer must quote (a comma, a double quote, a newline),
# and text it must write as it is.
_CSV_HOSTILE = [",", '"', "\n", "", " leading space", "back\\slash", "non-ASCII é ∞ 😀",
                'all, of "them"\n at once ', '""', "a;b"]


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Text(str):
    pass


class _Real(float):
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
        # hand-built reports whose text fields carry what the CSV must quote or keep
        hostile = [InterlacingReport(
            theorem="T2.1", holds=True, hypothesis_met=True, worst_slack=0.5, witness_position=1,
            tol=1e-9, spectra={"alpha": [1.0, 2.0], "beta": [1.5]}, graph="n 2; 0 1 +",
            surgery={"vertex": s, s: [s, 0]}, links_skipped=[s, "upper"], note=s)
            for s in _CSV_HOSTILE]
        res = verify.CampaignResult(res.config, res.reports + hostile, res.summary)
        text = campaign_to_csv(res)
        assert text == _reference_csv(res)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows == [{k: str(x) for k, x in row.items()} for row in _csv_rows(res)]
        assert [row["note"] for row in rows[-len(hostile):]] == _CSV_HOSTILE
        assert len(rows) == len(res.reports)
        for row, r in zip(rows, res.reports):
            for k in ("alpha", "beta", "mu"):
                assert row[f"spectrum_{k}"] == sg.format_spectrum(r.spectra.get(k, ()))

    def test_carriage_return_is_quoted(self):
        # csv.writer (Python 3.11, lineterminator="\n") leaves a bare "\r" unquoted,
        # which csv.reader rejects; each report must still read back as one row
        def report(note="", links=(), surgery=None):
            return InterlacingReport(
                theorem="T2.1", holds=True, hypothesis_met=True, worst_slack=0.5,
                witness_position=1, tol=1e-9, spectra={"alpha": [1.0]}, graph="n 1",
                surgery=surgery or {}, links_skipped=list(links), note=note)

        reports = [report(note="a\rb"), report(links=["x\ry", "upper"]),
                   report(surgery={"vertex": "c\rd"})]
        res = verify.CampaignResult(CampaignConfig(), reports, [])
        rows = list(csv.DictReader(io.StringIO(campaign_to_csv(res), newline="")))
        assert len(rows) == 3
        assert rows[0]["note"] == "a\rb"
        assert rows[1]["links_skipped"] == "x\ry;upper"
        assert json.loads(rows[2]["surgery"]) == {"vertex": "c\rd"}

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

    def test_string_after_the_first_list_item_is_written_in_place(self, monkeypatch):
        # lists no join takes: each item, strings included, is written by the writer itself
        docs = [[1, "a"], [None, "b", 2.5], {"k": [{"x": 1}, "c"]}, [[], "d", True, -0.0]]
        expected = [json.dumps(doc, indent=2) for doc in docs]

        def dumps(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(verify, "json", types.SimpleNamespace(dumps=dumps))
        assert [verify._json_text(doc) for doc in docs] == expected

    def test_list_led_by_a_string_is_written_item_by_item(self, monkeypatch):
        # only lists of finite floats are joined in one step; a list of strings,
        # or one with any other item after its first string, is written in place
        docs = [["a", "é\n"], ["a", 1, None], {"links": ["upper", ["x"], 2.5]}, ("t", "u")]
        expected = [json.dumps(doc, indent=2) for doc in docs]

        def dumps(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(verify, "json", types.SimpleNamespace(dumps=dumps))
        assert [verify._json_text(doc) for doc in docs] == expected

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

    def _with_report(self, res, i, **fields):
        """res with report i replaced by a copy whose fields are updated."""
        reports = list(res.reports)
        reports[i] = report_from_dict({**report_to_dict(reports[i]), **fields})
        return verify.CampaignResult(res.config, reports, res.summary)

    def test_one_report_sent_to_json_dumps_is_reindented(self, monkeypatch):
        # a numpy float in one report's surgery takes only that report to
        # json.dumps, at the pad of the reports list
        res = self._campaign()
        met = next(i for i, r in enumerate(res.reports) if r.hypothesis_met and r.surgery)
        res = self._with_report(res, met, surgery={**res.reports[met].surgery,
                                                   "scale": np.float64(0.1)})
        assert any(r.worst_slack == math.inf for r in res.reports)
        expected = _reference_json(res)
        calls = []
        real = json.dumps
        monkeypatch.setattr(verify, "json", types.SimpleNamespace(
            dumps=lambda doc, **kw: calls.append(doc) or real(doc, **kw)))
        assert campaign_to_json(res) == expected
        assert calls == [report_to_dict(res.reports[met])]

    @pytest.mark.parametrize("bad", ["int64", "self"])
    def test_bad_report_raises_as_json_does_on_the_document(self, bad):
        res = self._campaign()
        if bad == "int64":
            res = self._with_report(res, 3, witness_position=np.int64(2))
        else:
            loop = dict(res.reports[3].surgery)
            loop["self"] = loop
            res = self._with_report(res, 3, surgery=loop)
        with pytest.raises((TypeError, ValueError)) as stdlib:
            _reference_json(res)
        with pytest.raises(stdlib.type) as ours:
            campaign_to_json(res)
        assert str(ours.value) == str(stdlib.value)

    def test_no_reports(self):
        res = run_campaign(CampaignConfig(theorems=("T2.1",), samples=2, seed=4))
        empty = verify.CampaignResult(res.config, [], res.summary)
        text = campaign_to_json(empty)
        assert text == _reference_json(empty)
        assert text.endswith('\n  "reports": []\n}\n')

    @staticmethod
    def _odd_report(report, case):
        """A copy of report whose attributes or top-level values are not the
        fields and exact types the writer writes in place."""
        r = report_from_dict(report_to_dict(report))
        if case == "extra-attribute":
            r.extra = [1.0, "x"]
        elif case == "note-set-last":
            del r.note
            r.note = "set again"
        else:
            name, value = {
                "bool_": ("holds", np.bool_(True)),
                "int64": ("witness_position", np.int64(2)),
                "IntEnum": ("witness_position", _Level.HIGH),
                "str-subclass": ("theorem", _Text(r.theorem)),
                "float-subclass": ("worst_slack", _Real(0.25)),
                "float64": ("tol", np.float64(1e-9)),
            }[case]
            setattr(r, name, value)
        return r

    @pytest.mark.parametrize("case", ["extra-attribute", "note-set-last", "bool_", "int64",
                                      "IntEnum", "str-subclass", "float-subclass", "float64"])
    def test_report_that_is_not_its_fields_is_written_as_json_does(self, case):
        # the text or exception is json.dumps's, in the document and alone
        res = run_campaign(CampaignConfig(theorems=("T2.1", "T2.7"), samples=3, seed=6))
        reports = list(res.reports)
        reports[2] = self._odd_report(reports[2], case)
        res = verify.CampaignResult(res.config, reports, res.summary)
        for ours, stdlib in ((lambda: campaign_to_json(res), lambda: _reference_json(res)),
                             (lambda: verify.report_to_json(reports[2]),
                              lambda: json.dumps(report_to_dict(reports[2]), indent=2))):
            try:
                expected = stdlib()
            except TypeError as exc:
                with pytest.raises(TypeError) as raised:
                    ours()
                assert str(raised.value) == str(exc)
            else:
                assert ours() == expected

    def test_report_to_json_of_each_id_equals_stdlib(self):
        cfg = CampaignConfig(seed=11)
        reports = []
        for ti, theorem in enumerate(CHECK_IDS):
            args = _draw(CHECKS[theorem], cfg, _mix(cfg.seed, ti, 0))
            reports.append(CHECKERS[theorem](*args, cfg.tol))
        assert {r.theorem for r in reports} == set(CHECK_IDS)
        assert any(r.hypothesis_met for r in reports) and not all(r.hypothesis_met for r in reports)
        for r in reports:
            assert verify.report_to_json(r) == json.dumps(report_to_dict(r), indent=2)

    def test_report_to_json_writes_through_the_field_heads(self, monkeypatch):
        # one met and one gate-stopped report of each id: none goes through the
        # general writer whole.  An id with no gate gets a skipped report built
        # as a gate builds one, and C3.7, which no campaign sample meets, is
        # met on all-positive K3
        res = run_campaign(CampaignConfig(seed=11, samples=40))
        met = {r.theorem: r for r in res.reports if r.hypothesis_met}
        met["C3.7"] = CHECKERS["C3.7"](sg.generate("complete", 3), 0)
        stopped = {r.theorem: r for r in res.reports if not r.hypothesis_met}
        for t in CHECK_IDS:
            stopped.setdefault(t, verify._skipped_report(t, met[t].graph, {}, "no gate", None))
        reports = [met[t] for t in CHECK_IDS] + [stopped[t] for t in CHECK_IDS]
        assert all(r.hypothesis_met for r in reports[:19])
        assert not any(r.hypothesis_met for r in reports[19:])
        expected = [json.dumps(report_to_dict(r), indent=2) for r in reports]
        calls = []
        real = verify._json_text
        monkeypatch.setattr(verify, "_json_text", lambda *a: calls.append(a) or real(*a))
        assert [verify.report_to_json(r) for r in reports] == expected
        assert calls == []

    def test_campaign_reports_are_report_to_json_at_their_pad(self):
        # the two outputs of one writer cannot drift apart
        res = run_campaign(CampaignConfig(seed=11, samples=5))
        assert {r.theorem for r in res.reports} == set(CHECK_IDS)
        reports = ",\n    ".join(verify.report_to_json(r).replace("\n", "\n    ")
                                  for r in res.reports)
        assert campaign_to_json(res).endswith('"reports": [\n    ' + reports + "\n  ]\n}\n")

    @staticmethod
    def _csv_report(**fields):
        base = dict(theorem="T2.1", holds=True, hypothesis_met=True, worst_slack=0.5,
                    witness_position=1, tol=1e-9, spectra={"alpha": [1.0, 2.0], "beta": [1.5]},
                    graph="n 2; 0 1 +", surgery={"vertex": 0})
        return InterlacingReport(**{**base, **fields})

    def test_csv_number_fields_equal_stdlib(self):
        numbers = [-0.0, math.inf, -math.inf, math.nan, 1e-300, np.float64(0.1), 3, _Real(2.5)]
        reports = [self._csv_report(worst_slack=x, tol=x, spectra={"alpha": [x], "beta": [x, 1.0]})
                   for x in numbers]
        reports.append(self._csv_report(spectra={"alpha": numbers, "beta": numbers[::-1],
                                                 "mu": numbers[:3]}))
        res = verify.CampaignResult(CampaignConfig(), reports, [])
        text = campaign_to_csv(res)
        assert text == _reference_csv(res)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [row["worst_slack"] for row in rows[:len(numbers)]] == [
            "-0", "inf", "-inf", "nan", "1e-300", "0.10000000000000001", "3", "2.5"]

    def test_csv_text_fields_of_other_types_are_quoted_as_csv_writer_does(self):
        reports = [self._csv_report(witness_position="1,2", hypothesis_met='a"b', holds="x\ny"),
                   self._csv_report(theorem='T"2', holds=1.5, hypothesis_met=0,
                                    witness_position=_Text("3, 4")),
                   self._csv_report(note='say "x", then\ny', links_skipped=["a,b", '"']),
                   self._csv_report(graph="n 1,", surgery={"a,b": '"'})]
        res = verify.CampaignResult(CampaignConfig(), reports, [])
        text = campaign_to_csv(res)
        assert text == _reference_csv(res)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [(row["witness_position"], row["hypothesis_met"], row["holds"]) for row in rows[:2]] \
            == [("1,2", 'a"b', "x\ny"), ("3, 4", "0", "1.5")]

    @pytest.mark.parametrize("fields", [
        {"theorem": None}, {"graph": 3}, {"note": None}, {"holds": None},
        {"hypothesis_met": None}, {"witness_position": None}, {"theorem": 2.5, "note": 7},
        {"graph": ["a,b"], "note": {"k": '"'}}, {"holds": np.bool_(False), "hypothesis_met": np.True_},
        {"witness_position": True}, {"witness_position": _Level.HIGH}, {"witness_position": np.int64(-2)},
        {"theorem": _Text('T,"2'), "graph": _Text("n 1"), "note": _Text("")},
    ], ids=repr)
    def test_csv_fields_of_unexpected_types_are_written_as_csv_writer_does(self, fields):
        # None as an empty field, anything else as its str, quoted when it must be
        res = verify.CampaignResult(CampaignConfig(), [self._csv_report(**fields)], [])
        assert campaign_to_csv(res) == _reference_csv(res)

    @pytest.mark.parametrize("fields", [{"worst_slack": "0.5"}, {"tol": None},
                                        {"spectra": {"alpha": [1.0, "2"]}}],
                             ids=["worst_slack", "tol", "spectrum"])
    def test_csv_non_number_raises_as_format_spectrum_does(self, fields):
        value = next(iter(fields.values()))
        bad = value["alpha"] if isinstance(value, dict) else (value,)
        with pytest.raises(TypeError) as reference:
            sg.format_spectrum(bad)
        res = verify.CampaignResult(CampaignConfig(), [self._csv_report(**fields)], [])
        with pytest.raises(TypeError) as ours:
            campaign_to_csv(res)
        assert str(ours.value) == str(reference.value)

    def test_peak_memory_is_within_two_and_a_half_times_the_text(self):
        # each report is written as one string: the peak holds those strings
        # and their join, not one small string per JSON token (3.9x)
        res = run_campaign(CampaignConfig(samples=200, seed=0))
        tracemalloc.start()
        try:
            text = campaign_to_json(res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == _reference_json(res)
        assert peak <= 2.5 * len(text)


class TestSolve:
    def test_no_solver_call_when_every_check_stops_at_the_gate(self, monkeypatch):
        calls = []
        real = verify.eigenvalues_stack
        monkeypatch.setattr(verify, "eigenvalues_stack", lambda a, orders: calls.append(1) or real(a, orders))
        rec = CHECKS["C2.2"]
        gated = [verify._prepare(rec, None, sg.generate("path", 4), 0) for _ in range(3)]
        assert all(isinstance(p, InterlacingReport) for p in gated)
        assert verify._solve(rec, gated, None) == gated
        assert calls == []
        met = verify._prepare(rec, None, sg.generate("star", 4), 0)
        reports = verify._solve(rec, gated + [met], None)
        assert calls == [1]
        assert reports[:3] == gated and reports[3].hypothesis_met

    @pytest.mark.parametrize("tol", [None, 1e-6])
    def test_one_call_on_mixed_orders_equals_each_lone_check(self, tol):
        # L3.1's chain reads delta_minus and Delta_minus and C3.7's reads
        # uniform_neg_degree, one column entry per row of a block; campaigns
        # never meet C3.7's hypothesis, so only this test decides it in blocks
        rng = random.Random(8)
        graphs = [sg.random_signed_graph(n, 0.7, q, seed=rng.randrange(10**6))
                  for n in (5, 5, 5, 6, 6, 7) for q in (0.1, 0.5, 0.9)]
        k4_matching = sg.build_graph(4, [(0, 1, -1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1),
                                         (2, 3, -1)])
        k5_cycle = sg.build_graph(5, [(u, v, -1 if v - u in (1, 4) else 1)
                                      for u in range(5) for v in range(u + 1, 5)])
        coregular = [sg.generate("complete", 4), k4_matching, k5_cycle]
        cases = {"L3.1": [(g,) for g in graphs],
                 "C3.7": [(g, v) for g in coregular + [sg.generate("cycle", 4)] for v in (0, 3)]}
        for theorem, args in cases.items():
            rec = CHECKS[theorem]
            prepared = [verify._prepare(rec, tol, *a) for a in args]
            reports = verify._solve(rec, prepared, tol)
            lone = [CHECKERS[theorem](*a, tol=tol) for a in args]
            assert [verify.report_to_json(r) for r in reports] == [verify.report_to_json(r) for r in lone]
        params = {}
        for r in reports[:6]:
            params.setdefault(len(r.spectra["alpha"]), set()).add(r.surgery["uniform_neg_degree"])
        assert params == {4: {0, 1}, 5: {2}}
        assert [r.hypothesis_met for r in reports] == [True] * 6 + [False] * 2
        assert not any(r.holds for r in reports[:6])
        by_order = {}
        for g in graphs:
            by_order.setdefault(g.n, set()).add(sg.min_max_neg_degree(g))
        assert all(len(v) > 1 for v in by_order.values())


# The exhaustive sweep: every labelled signed graph of order n, each graph
# id on every candidate of its kind's pool.  (inputs, hypothesis met, fails)
# per id; C3.7 fails on every input that meets its hypothesis, and T4.2
# first fails at order 4.
_SWEEP = {
    3: {"T2.1": (81, 81, 0), "C2.2": (81, 36, 0), "L2.3": (54, 54, 0), "T2.7": (81, 36, 0),
        "L3.1": (27, 27, 0), "T3.2": (54, 27, 0), "T3.3": (54, 27, 0), "T3.4": (81, 60, 0),
        "C3.5": (81, 36, 0), "C3.6": (81, 36, 0), "C3.7": (81, 6, 6), "B4": (27, 27, 0),
        "T4.1": (54, 12, 3), "T4.2": (54, 12, 0), "T4.3": (81, 24, 6)},
    4: {"T2.1": (2916, 2916, 0), "C2.2": (2916, 864, 0), "L2.3": (2916, 2916, 0),
        "T2.7": (2916, 648, 0), "L3.1": (729, 729, 0), "T3.2": (2916, 1458, 0),
        "T3.3": (2916, 1458, 0), "T3.4": (2916, 2496, 0), "C3.5": (2916, 864, 0),
        "C3.6": (2916, 864, 0), "C3.7": (2916, 32, 32), "B4": (729, 729, 0),
        "T4.1": (2916, 1104, 606), "T4.2": (2916, 1104, 84), "T4.3": (4374, 912, 276)},
}


def _all_signed_graphs(n):
    """Every labelled signed graph on n vertices: each pair absent, positive or negative."""
    pairs = list(itertools.combinations(range(n), 2))
    return [sg.build_graph(n, [(u, v, s) for (u, v), s in zip(pairs, signs) if s])
            for signs in itertools.product((0, 1, -1), repeat=len(pairs))]


class TestExhaustiveSweep:
    @pytest.mark.parametrize("n", sorted(_SWEEP))
    def test_every_signed_graph_of_order(self, n):
        graphs = _all_signed_graphs(n)
        assert len(graphs) == 3 ** (n * (n - 1) // 2)
        counts, checked = {}, 0
        for rec in verify._TABLE:
            if rec.build is not None:
                continue
            inputs = [(g, *x) for g in graphs for x in rec.kind.pool(g)]
            reports = verify._run(rec, inputs, None)
            counts[rec.id] = (len(reports), sum(r.hypothesis_met for r in reports),
                              sum(not r.holds for r in reports))
            if rec.id == "T4.3":
                # every T4.3 failure is on an adjacent pair
                assert all(b in g._nbrs[a] for (g, a, b), r in zip(inputs, reports) if not r.holds)
            # the sweep's reports are the checker's, at a fixed stride
            for args, r in list(zip(inputs, reports))[::37]:
                assert verify.report_to_json(r) == verify.report_to_json(CHECKERS[rec.id](*args))
                checked += 1
        assert counts == _SWEEP[n]
        assert checked > 2 * len(counts)


# Slacks of equivalent inputs may differ by the solver's rounding, since it is
# not bit-equivariant: a permuted, negated or switched matrix can give other
# last bits.  On the inputs below the largest move is 2.1e-15 times the scale
# (1.2e-14 absolute).
_EQUIVARIANT_SLACK = 16e-15


@functools.cache
def _invariance_graphs():
    """Seeded samples: 200 of the 729 signed graphs of order 4, and 40 random
    graphs of order 5..10 (sized by run time, not by outcome); then
    the circulant complete co-regular signings of K_5 and K_6, which C3.7's
    hypothesis needs."""
    rng = random.Random(23)
    return rng.sample(_all_signed_graphs(4), 200) + [
        sg.random_signed_graph(rng.randint(5, 10), rng.choice((0.3, 0.6, 0.9)), 0.5, rng.randrange(10**6))
        for _ in range(40)] + [
        _circulant_complete(n, {d for d in range(1, n // 2 + 1) if k >> (d - 1) & 1})
        for n in (5, 6) for k in range(1 << n // 2)]


def _assert_invariant(theorem, image, image_theorem=None):
    """Run theorem on every invariance input (g, *x), and image_theorem (theorem
    when None) on its image (h, *map(vertex, x)), where h, vertex = image(g).
    Each pair of reports agrees on hypothesis and verdict, and their worst
    slacks agree within _EQUIVARIANT_SLACK times the spectra's scale."""
    rec = verify.CHECKS[theorem]
    inputs, images = [], []
    for g in _invariance_graphs():
        h, vertex = image(g)
        for x in rec.kind.pool(g):
            inputs.append((g, *x))
            images.append((h, *map(vertex, x)))
    reports = verify._run(rec, inputs, None)
    assert any(r.hypothesis_met for r in reports)
    for r, q in zip(reports, verify._run(verify.CHECKS[image_theorem or theorem], images, None)):
        assert (r.hypothesis_met, r.holds) == (q.hypothesis_met, q.holds), (r, q)
        scale = max([1.0] + [abs(x) for w in r.spectra.values() for x in w])
        assert r.worst_slack == q.worst_slack or (
            abs(r.worst_slack - q.worst_slack) <= _EQUIVARIANT_SLACK * scale), (r, q)


class TestInvariance:
    """Relabelling, negation and switching leave verdicts as they are: a wrong
    vertex map in a surgery, or a stage that reads labels, would not."""

    @pytest.mark.parametrize("theorem", [rec.id for rec in verify._TABLE if rec.build is None])
    def test_relabelling(self, theorem):
        rng = random.Random(theorem)

        def relabel(g):
            perm = rng.sample(range(g.n), g.n)
            return sg.build_graph(g.n, [(perm[u], perm[v], s) for u, v, s in g.edges]), perm.__getitem__

        _assert_invariant(theorem, relabel)

    @pytest.mark.parametrize("theorem, image", [("T3.3", "T3.2"), ("C3.6", "C3.5")])
    def test_negation(self, theorem, image):
        # N(-g) = -N(g): T3.3 on (g, e) is T3.2 on (-g, e), C3.6 on (g, v) is C3.5 on (-g, v)
        _assert_invariant(theorem, lambda g: (sg.SignedGraph(g.n, [(u, v, -s) for u, v, s in g.edges]),
                                              lambda v: v), image)

    @pytest.mark.parametrize("theorem", ["T2.1", "C2.2", "L2.3", "T2.7"])
    def test_switching(self, theorem):
        # switching is a signed diagonal similarity of the Laplacian
        rng = random.Random(theorem)
        _assert_invariant(theorem, lambda g: (sg.apply_switching(g, [rng.choice((1, -1)) for _ in range(g.n)]),
                                              lambda v: v))


def _circulant_complete(n, distances):
    """K_n with the edges at circular distance in `distances` negative: every
    vertex has the same negative degree, so the graph is complete co-regular."""
    return sg.build_graph(n, [(u, v, -1 if min(v - u, n - v + u) in distances else 1)
                              for u in range(n) for v in range(u + 1, n)])


def _stage_graphs():
    """Seeded graphs of order 0..24, edgeless and sparse ones among them, and
    every circulant signing of K_n for n 3..8."""
    rng = random.Random(25)
    graphs = [sg.random_signed_graph(n, p, q, rng.randrange(10**6))
              for n in range(25) for p, q in ((0.0, 0.5), (0.15, 0.5), (0.5, 0.2), (0.5, 0.8), (0.9, 0.5),
                                              (1.0, 0.5))]
    for n in range(3, 9):
        far = n // 2
        for k in range(1 << far):
            graphs.append(_circulant_complete(n, {d for d in range(1, far + 1) if k >> (d - 1) & 1}))
    return graphs


def _ref_complete_coregular(g):
    co = sg.co_regularity(g)
    return co is not None and co.complete


def _ref_isolates_nothing(g, a, b):
    return any(w not in (a, b) for x in (a, b) for w, _ in g.neighbors(x))


_REF_TWO = (True, lambda g: g.n >= 2)
_REF_NO_ISOLATED = (True, lambda g: all(g.degree(x) for x in range(g.n)))
_REF_NEGATIVE = (False, lambda g, u, v: g.sign(u, v) == -1)
_REF_POSITIVE = (False, lambda g, u, v: g.sign(u, v) == 1)
_REF_KEEPS_DEGREE = (False, lambda g, u, v: g.degree(u) >= 2 and g.degree(v) >= 2)
# each id's hypothesis stages, in order, as (whole graph?, condition) written
# with the public graph API
_REF_STAGES = {
    "T2.1": [_REF_TWO],
    "C2.2": [_REF_TWO, (False, lambda g, v: g.degree(v) == g.n - 1)],
    "L2.3": [],
    "T2.7": [(False, lambda g, v: g.degree(v) == 1)],
    "L3.1": [],
    "T3.2": [_REF_NEGATIVE],
    "T3.3": [_REF_POSITIVE],
    "T3.4": [_REF_TWO, (True, sg.is_connected)],
    "C3.5": [_REF_TWO, (False, lambda g, v: all(s == 1 for _, s in g.neighbors(v)))],
    "C3.6": [_REF_TWO, (False, lambda g, v: all(s == -1 for _, s in g.neighbors(v)))],
    "C3.7": [_REF_TWO, (True, _ref_complete_coregular)],
    "B4": [],
    "T4.1": [_REF_NEGATIVE, _REF_NO_ISOLATED, _REF_KEEPS_DEGREE],
    "T4.2": [_REF_POSITIVE, _REF_NO_ISOLATED, _REF_KEEPS_DEGREE],
    "T4.3": [(False, sg.disjoint_open_neighborhoods), _REF_NO_ISOLATED, (False, _ref_isolates_nothing)],
}


def _ref_narrow(stages, g, pool):
    """The last non-empty pool and the index of the stage that empties it (None if none does)."""
    for i, (whole, holds) in enumerate(stages):
        kept = (pool if holds(g) else []) if whole else [x for x in pool if holds(g, *x)]
        if not kept:
            return pool, i
        pool = kept
    return pool, None


class TestStages:
    """Each hypothesis stage against a reference written with the public API."""

    _GRAPHS = _stage_graphs()

    def test_graphs_cover_the_edge_cases(self):
        assert {g.n for g in self._GRAPHS} == set(range(25))
        assert any(g.n >= 2 and not g.edges for g in self._GRAPHS)
        assert any(g.edges and not all(g.degree(v) for v in range(g.n)) for g in self._GRAPHS)
        assert sum(map(_ref_complete_coregular, self._GRAPHS)) >= 42

    def test_table_lists_every_graph_id(self):
        assert set(_REF_STAGES) == {rec.id for rec in verify._TABLE if rec.build is None}

    @pytest.mark.parametrize("theorem", list(_REF_STAGES))
    def test_each_stage_agrees_on_every_candidate(self, theorem):
        rec, ref = CHECKS[theorem], _REF_STAGES[theorem]
        assert [stage.whole for stage in rec.stages] == [whole for whole, _ in ref]
        met = 0
        for g in self._GRAPHS:
            pool = rec.kind.pool(g)
            for stage, (whole, holds) in zip(rec.stages, ref):
                if whole:
                    assert stage.holds(g) == holds(g), (theorem, rec.stages.index(stage), g)
                    met += holds(g)
                else:
                    got = [stage.holds(g, *x) for x in pool]
                    assert got == [holds(g, *x) for x in pool], (theorem, rec.stages.index(stage), g)
                    met += sum(got)
        assert met or not ref

    @pytest.mark.parametrize("theorem", list(_REF_STAGES))
    def test_narrow_agrees_with_the_reference(self, theorem):
        rec = CHECKS[theorem]
        for g in self._GRAPHS:
            pool, failed = verify._narrow(rec, g, rec.kind.pool(g))
            want, index = _ref_narrow(_REF_STAGES[theorem], g, rec.kind.pool(g))
            assert pool == want
            assert failed is (None if index is None else rec.stages[index]), (theorem, g)


# Degenerate integer arguments.  Each caller takes the value x at one integer
# slot: (call, an integer x at which it returns, the error for any non-integer
# x).  Vertices and edge ends are ints 0..n-1 (numpy integers too), family
# orders are ints >= the family's minimum; L3.1 and B4 take only a graph.
_C4 = sg.generate("cycle", 4, [1, 1, 1, -1])
_INTEGER_SLOTS = {
    **{f"{t}(g, x)": (lambda x, t=t: CHECKERS[t](_C4, x), 0, VertexOutOfRange)
       for t in CHECK_IDS if verify.ARG_KINDS[t] == "vertex"},
    **{f"{t}(g, 0, x)": (lambda x, t=t: CHECKERS[t](_C4, 0, x), 1, NoSuchEdge)
       for t in CHECK_IDS if verify.ARG_KINDS[t] == "edge"},
    **{f"{t}(g, x, 1)": (lambda x, t=t: CHECKERS[t](_C4, x, 1), 0, NoSuchEdge)
       for t in CHECK_IDS if verify.ARG_KINDS[t] == "edge"},
    "T4.3(g, 0, x)": (lambda x: CHECKERS["T4.3"](_C4, 0, x), 2, VertexOutOfRange),
    "T4.3(g, x, 2)": (lambda x: CHECKERS["T4.3"](_C4, x, 2), 0, VertexOutOfRange),
    "T2.4(x, sig1, +)": (lambda x: CHECKERS["T2.4"](x, [1, 1, 1, -1], 1), 3, BadOrder),
    **{f"{t}(x, seed)": (lambda x, t=t: CHECKERS[t](x, 0), 3, BadOrder)
       for t in CHECK_IDS if verify.ARG_KINDS[t] == "seeded"},
    **{f"{t}(m, x)": (lambda x, t=t: CHECKERS[t](3, x), 0, ConfigInvalid)
       for t in CHECK_IDS if verify.ARG_KINDS[t] == "seeded"},
    "delete_vertex(g, x)": (lambda x: delete_vertex(_C4, x), 0, VertexOutOfRange),
    "delete_edge(g, 0, x)": (lambda x: delete_edge(_C4, 0, x), 1, NoSuchEdge),
    "delete_edge(g, x, 1)": (lambda x: delete_edge(_C4, x, 1), 0, NoSuchEdge),
    "add_edge(g, 0, x, +)": (lambda x: add_edge(_C4, 0, x, 1), 2, VertexOutOfRange),
    "add_edge(g, x, 2, +)": (lambda x: add_edge(_C4, x, 2, 1), 0, VertexOutOfRange),
    "contract(g, 0, x)": (lambda x: contract(_C4, 0, x), 1, VertexOutOfRange),
    "contract(g, x, 1)": (lambda x: contract(_C4, x, 1), 0, VertexOutOfRange),
    "disjoint_open_neighborhoods(g, 0, x)": (lambda x: sg.disjoint_open_neighborhoods(_C4, 0, x), 2,
                                             VertexOutOfRange),
    "g.degree(x)": (lambda x: _C4.degree(x), 0, VertexOutOfRange),
    "SignedGraph(x, ())": (lambda x: sg.SignedGraph(x, ()), 3, BadOrder),
    "SignedGraph(3, ((x, 2, +),))": (lambda x: sg.SignedGraph(3, ((x, 2, 1),)), 0, VertexOutOfRange),
    "SignedGraph(3, ((0, x, +),))": (lambda x: sg.SignedGraph(3, ((0, x, 1),)), 2, VertexOutOfRange),
    "SignedGraph(3, ((0, 1, x),))": (lambda x: sg.SignedGraph(3, ((0, 1, x),)), -1, ValueError),
    "build_graph(3, [(0, x, +)])": (lambda x: sg.build_graph(3, [(0, x, 1)]), 2, VertexOutOfRange),
    "generate(cycle, x)": (lambda x: sg.generate("cycle", x), 4, BadOrder),
    "random_signed_graph(x, p, q, seed)": (lambda x: sg.random_signed_graph(x, 0.5, 0.5, 0), 4, BadOrder),
    "random_signed_graph(4, p, q, x)": (lambda x: sg.random_signed_graph(4, 0.5, 0.5, x), 3, ConfigInvalid),
    "generate(cycle, 4, random, seed=x)": (lambda x: sg.generate("cycle", 4, "random", seed=x), 3,
                                           ConfigInvalid),
    "add_edge(g, 0, 2, x)": (lambda x: add_edge(_C4, 0, 2, x), -1, ValueError),
    "apply_switching(g, [1, x, 1, 1])": (lambda x: sg.apply_switching(_C4, [1, x, 1, 1]), -1, ValueError),
}
_NON_INTEGERS = {"str": "0", "float-0": 0.0, "float-1": 1.0, "float-2.5": 2.5,
                 "np.float64": np.float64(1.0), "bool": True}


@pytest.mark.parametrize("value", list(_NON_INTEGERS))
@pytest.mark.parametrize("caller", list(_INTEGER_SLOTS))
def test_non_integer_argument_raises_typed(caller, value):
    call, _, error = _INTEGER_SLOTS[caller]
    with pytest.raises(error):
        call(_NON_INTEGERS[value])


@pytest.mark.parametrize("caller", list(_INTEGER_SLOTS))
def test_numpy_integer_argument_accepted(caller):
    # np.int64(0) == 0, so equality alone would not see a numpy integer
    # carried into the result; a report's JSON and any other result's repr do
    call, x, _ = _INTEGER_SLOTS[caller]
    got, want = call(np.int64(x)), call(x)
    assert got == want
    if isinstance(want, InterlacingReport):
        assert verify.report_to_json(got) == verify.report_to_json(want)
    else:
        assert repr(got) == repr(want)


# Real-number slots: the probabilities p and q.  Each is a real number (int,
# float or a numpy float, never a bool) or raises ConfigInvalid.
_REAL_SLOTS = {
    "random_signed_graph(4, x, q, seed)": lambda x: sg.random_signed_graph(4, x, 0.5, 0),
    "random_signed_graph(4, p, x, seed)": lambda x: sg.random_signed_graph(4, 0.5, x, 0),
    "generate(cycle, 4, random, q=x)": lambda x: sg.generate("cycle", 4, "random", q=x),
}
_NON_REALS = {"str": "0.5", "None": None, "bool": True, "complex": 0.5j}


@pytest.mark.parametrize("value", list(_NON_REALS))
@pytest.mark.parametrize("caller", list(_REAL_SLOTS))
def test_non_real_probability_raises_config_invalid(caller, value):
    with pytest.raises(ConfigInvalid, match="must be a real number"):
        _REAL_SLOTS[caller](_NON_REALS[value])


@pytest.mark.parametrize("caller", list(_REAL_SLOTS))
def test_real_probability_of_any_type_accepted(caller):
    call = _REAL_SLOTS[caller]
    assert call(np.float64(0.5)) == call(0.5)
    assert call(1) == call(1.0)


@pytest.mark.parametrize("call", [lambda: sg.generate("cycle", 4, None),
                                  lambda: CHECKERS["T2.4"](3, None, 1),
                                  lambda: sg.apply_switching(_C4, 5),
                                  lambda: sg.apply_switching(_C4, np.array(5))],
                         ids=["generate", "T2.4", "apply_switching", "apply_switching-0-D"])
def test_missing_sign_sequence_raises_length_mismatch(call):
    with pytest.raises(LengthMismatch, match="signs must be a sequence"):
        call()


_GRAPH_IDS = [t for t in CHECK_IDS if CHECKS[t].kind.params[0] == "g"]
_NON_GRAPHS = {"str": "0", "None": None, "int": 0, "dict": {}}


@pytest.mark.parametrize("value", list(_NON_GRAPHS))
@pytest.mark.parametrize("theorem", _GRAPH_IDS)
def test_non_graph_argument_raises_typed(theorem, value):
    rest = (0, 1)[: len(CHECKS[theorem].kind.params) - 1]
    with pytest.raises(ArgMismatch, match="takes a SignedGraph"):
        CHECKERS[theorem](_NON_GRAPHS[value], *rest)


_BAD_CONFIGS = {
    "seed-str": {"seed": "x"}, "seed-float": {"seed": 1.5}, "seed-bool": {"seed": True},
    "samples-str": {"samples": "5"}, "samples-float": {"samples": 2.5},
    "n_min-float": {"n_min": 2.5}, "n_max-None": {"n_max": None},
    "p-str": {"p": "0.5"}, "p-bool": {"p": True}, "q-None": {"q": None},
    # a set would order the reports by string hashing; a string is not a list of ids
    "theorems-None": {"theorems": None}, "theorems-int": {"theorems": 5},
    "theorems-set": {"theorems": {"T2.1"}}, "theorems-str": {"theorems": "T2.1"},
}


@pytest.mark.parametrize("case", list(_BAD_CONFIGS))
def test_config_field_of_wrong_type_raises_config_invalid(case):
    with pytest.raises(ConfigInvalid, match="must be"):
        CampaignConfig(**_BAD_CONFIGS[case]).validate()


def test_config_theorems_list_runs_as_tuple():
    want = run_campaign(CampaignConfig(theorems=("T2.1", "C2.5"), samples=3))
    got = run_campaign(CampaignConfig(theorems=["T2.1", "C2.5"], samples=3))
    assert campaign_to_json(got) == campaign_to_json(want)
    assert campaign_to_csv(got) == campaign_to_csv(want)
    assert got.config.theorems == ("T2.1", "C2.5")


def test_config_numpy_integers_run_as_ints():
    ints = dict(samples=3, n_min=4, n_max=6, seed=3)
    want = run_campaign(CampaignConfig(theorems=("T2.1", "C2.5"), **ints))
    got = run_campaign(CampaignConfig(theorems=("T2.1", "C2.5"), **{k: np.int64(v) for k, v in ints.items()}))
    assert campaign_to_json(got) == campaign_to_json(want)
    assert all(type(getattr(got.config, k)) is int for k in ints)
