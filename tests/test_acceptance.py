"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with -s or -v to see them).

Criterion 1 is parametrized per check id so each inequality gets its own
line.  Sixteen ids must show zero violations over the default campaign.  The
three normalized net-Laplacian chains T4.1, T4.2 and T4.3 are refuted as
coded, by frozen witnesses in tests/test_verify.py:

- T4.1: ``test_t41_all_negative_triangle_counterexample``.  The all-negative
  triangle has normalized spectrum alpha = (-3/2, -3/2, 0), because its
  matrix is (J - 3I)/2.  Deleting edge 01 leaves the path 0-2-1, whose
  matrix is -I plus 1/sqrt(2) on the two edges, so beta = (-2, -1, 0).  The
  link alpha_1 <= beta_1 fails by exactly 1/2.
- T4.2: ``test_t42_counterexample`` (lower link fails by 1/2 on four
  vertices).
- T4.3: ``test_counterexample_signed_path`` (an adjacent pair; the upper
  link fails by 2 - sqrt(2)).

For those three ids criterion 1 does not ask for zero violations.  It checks
that the campaign meets each hypothesis, reports violations, and that every
met report agrees with an independent numpy/LAPACK recomputation: the
normalized matrices are rebuilt from the report's graph string with the
surgery done here, so each verdict is tested against what the coded chain
gives on that input.
"""
import ast
import hashlib
import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

import sgspectra as sg
from sgspectra.verify import CHECK_IDS, CampaignConfig, campaign_to_csv, campaign_to_json, run_campaign

DEFAULT_CFG = dict(n_min=4, n_max=12, p=0.5, q=0.5, samples=1000, seed=0, tol=None)


def _finish(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"criterion {num} ({name}) failed{detail}"


@pytest.fixture(scope="module")
def default_campaign():
    return run_campaign(CampaignConfig(**DEFAULT_CFG))


def random_int_symmetric(rng, n, span=4):
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            a[i, j] = a[j, i] = rng.randrange(-span, span + 1)
    return a


def isolate_free_graph(n, seed):
    for attempt in range(200):
        g = sg.random_signed_graph(n, 0.5, 0.5, seed=seed * 1009 + attempt)
        if g.n > 0 and min(sg.degree_profile(g).degree) > 0:
            return g
    raise AssertionError("could not draw an isolate-free graph")


# chains refuted by the frozen witnesses named in the module docstring
REFUTED_IDS = ("T4.1", "T4.2", "T4.3")


def _oracle_adjacency(graph_str):
    """Signed adjacency of a report's one-line .sg string ("n 3; 0 1 -; ..."),
    parsed here so the oracle shares no code with sgspectra."""
    fields = graph_str.split("; ")
    n = int(fields[0].split()[1])
    a = np.zeros((n, n))
    for field in fields[1:]:
        u, v, s = field.split()
        a[int(u), int(v)] = a[int(v), int(u)] = 1.0 if s == "+" else -1.0
    return a


def _oracle_normalized(a):
    """D^{-1/2} (D+- - A) D^{-1/2}; None when a vertex is isolated."""
    d = np.abs(a).sum(axis=1)
    if not (d > 0).all():
        return None
    scale = 1.0 / np.sqrt(d)
    return scale[:, None] * (np.diag(a.sum(axis=1)) - a) * scale[None, :]


def _oracle_t4(report):
    """Recompute a met T4.x report with numpy/LAPACK only.

    Returns None when the report's input is outside the hypothesis, else
    (alpha, beta, worst_slack, tol, adjacent): tol is 1e-9 times the
    spectral scale, and adjacent says whether a T4.3 pair shares an edge.
    """
    a = _oracle_adjacency(report.graph)
    adjacent = False
    if report.theorem == "T4.3":
        x, y = report.surgery["pair"]
        if ((a[x] != 0) & (a[y] != 0)).any():
            return None  # a shared neighbour
        adjacent = a[x, y] != 0
        keep = [t for t in range(len(a)) if t not in (x, y)]
        b = np.zeros((len(keep) + 1, len(keep) + 1))  # merged vertex first
        b[1:, 1:] = a[np.ix_(keep, keep)]
        b[0, 1:] = b[1:, 0] = (a[x] + a[y])[keep]  # drops the edge xy
    else:
        u, v = report.surgery["edge"]
        if a[u, v] != {"T4.1": -1.0, "T4.2": 1.0}[report.theorem]:
            return None
        b = a.copy()
        b[u, v] = b[v, u] = 0.0
    norm_a, norm_b = _oracle_normalized(a), _oracle_normalized(b)
    if norm_a is None or norm_b is None:
        return None
    alpha = np.linalg.eigvalsh(norm_a)
    beta = np.linalg.eigvalsh(norm_b)
    inf = np.array([np.inf])
    # index i holds position p = i + 1; a link without a partner is +inf
    if report.theorem == "T4.1":    # alpha_p <= beta_p <= alpha_{p+2}
        lower, upper = alpha, np.concatenate([alpha[2:], inf, inf])
    elif report.theorem == "T4.2":  # alpha_{p-1} <= beta_p <= alpha_{p+1}
        lower, upper = np.concatenate([-inf, alpha[:-1]]), np.concatenate([alpha[1:], inf])
    else:                           # same, with alpha_0 = -2 and m = n - 1
        lower, upper = np.concatenate([[-2.0], alpha[:-2]]), alpha[1:]
    worst = float(np.minimum(beta - lower, upper - beta).min())
    tol = 1e-9 * max(1.0, float(np.abs(alpha).max()), float(np.abs(beta).max()))
    return alpha, beta, worst, tol, adjacent


def _refuted_campaign_ok(reports, theorem, entry):
    """Oracle check of a refuted chain's campaign; returns (ok, detail)."""
    met = [r for r in reports if r.theorem == theorem and r.hypothesis_met]
    outside = disagree = oracle_fails = non_adjacent_fails = 0
    for r in met:
        got = _oracle_t4(r)
        if got is None:
            outside += 1
            continue
        alpha, beta, worst, tol, adjacent = got
        holds = worst >= -tol
        spectra_agree = (len(r.spectra["alpha"]) == len(alpha)
                         and len(r.spectra["beta"]) == len(beta)
                         and np.abs(np.array(r.spectra["alpha"]) - alpha).max() <= tol
                         and np.abs(np.array(r.spectra["beta"]) - beta).max() <= tol)
        if not (spectra_agree and abs(r.worst_slack - worst) <= tol and r.holds == holds):
            disagree += 1
        oracle_fails += not holds
        # on a non-adjacent pair, contraction restricts the pencil (N, D) to
        # {x_a = x_b} with degrees kept, so alpha_p <= beta_p <= alpha_{p+1}:
        # every T4.3 violation must come from an adjacent pair
        non_adjacent_fails += theorem == "T4.3" and not adjacent and not holds
    ok = (entry["hypothesis_met"] == len(met) > 0 and entry["fails"] > 0
          and outside == 0 and disagree == 0 and oracle_fails == entry["fails"]
          and non_adjacent_fails == 0)
    detail = (f" refuted chain; oracle: outside hypothesis={outside}"
              f" disagreements={disagree} violations={oracle_fails}"
              f" non-adjacent violations={non_adjacent_fails}")
    return ok, detail


@pytest.mark.parametrize("theorem", CHECK_IDS)
def test_criterion_1_theorem_oracle_campaign(default_campaign, theorem):
    """1000 seeded samples per check id.

    The refuted T4.1/T4.2/T4.3 must meet their hypothesis, report
    violations, and agree report by report with the numpy/LAPACK oracle
    (T4.3 with no violation on a non-adjacent pair).  Every other id must
    show zero violations.
    """
    entry = next(s for s in default_campaign.summary if s["theorem"] == theorem)
    detail = (f" (met={entry['hypothesis_met']} fails={entry['fails']}"
              f" worst_slack={entry['worst_slack']})")
    if theorem in REFUTED_IDS:
        ok, oracle_detail = _refuted_campaign_ok(default_campaign.reports, theorem, entry)
        _finish(1, f"theorem-oracle-campaign[{theorem}]", ok, detail + oracle_detail)
        return
    # C3.7's pass is empty: the campaign meets its hypothesis in 0 of 1000
    # samples, although all-positive K4 refutes it (test_verify.py,
    # test_all_positive_k4_counterexample).  It stays under fails == 0 until
    # a sampler draws complete co-regular graphs; then this case turns red
    # and C3.7 joins REFUTED_IDS.
    _finish(1, f"theorem-oracle-campaign[{theorem}]", entry["fails"] == 0, detail)


def test_criterion_2_eigensolver_cross_validation():
    """Solver vs exact charpoly oracle on 500 integer matrices, dim <= 5."""
    rng = random.Random(2024)
    worst_gap = 0.0
    worst_trace = 0.0
    for _ in range(500):
        n = rng.randrange(1, 6)
        a = random_int_symmetric(rng, n)
        w = sg.eigenvalues(a.astype(float))
        oracle = sg.charpoly_spectrum_oracle(a)
        worst_gap = max(worst_gap, float(np.abs(w - oracle).max()))
        scale = max(1.0, float(np.abs(w).max()))
        worst_trace = max(worst_trace, abs(float(w.sum()) - float(np.trace(a))) / scale)
    # trace agreement also on campaign-style graph matrices
    for seed in range(100):
        g = sg.random_signed_graph(4 + seed % 9, 0.5, 0.5, seed=seed)
        for mat in (sg.laplacian(g).astype(float), sg.net_laplacian(g).astype(float),
                    sg.normalized_net_laplacian(g)):
            w = sg.eigenvalues(mat)
            scale = max(1.0, float(np.abs(w).max()))
            worst_trace = max(worst_trace, abs(float(w.sum()) - float(np.trace(mat))) / scale)
    ok = worst_gap <= 1e-7 and worst_trace <= 1e-9
    _finish(2, "eigensolver-cross-validation", ok,
            f" (max |solver-oracle|={worst_gap:.2e}, max trace gap={worst_trace:.2e})")


def test_criterion_3_closed_form_fixtures():
    """Cycle and path Laplacian spectra match their cosine closed forms."""
    worst = 0.0
    for n in range(3, 13):
        bal = sg.eigenvalues(sg.laplacian(sg.generate("cycle", n)).astype(float))
        worst = max(worst, float(np.abs(bal - sg.closed_form_cycle_spectrum(n, True)).max()))
        unbal_g = sg.generate("cycle", n, [-1] + [1] * (n - 1))
        unbal = sg.eigenvalues(sg.laplacian(unbal_g).astype(float))
        worst = max(worst, float(np.abs(unbal - sg.closed_form_cycle_spectrum(n, False)).max()))
    for n in range(1, 13):
        path = sg.eigenvalues(sg.laplacian(sg.generate("path", n)).astype(float))
        worst = max(worst, float(np.abs(path - sg.closed_form_path_spectrum(n)).max()))
    _finish(3, "closed-form-fixtures", worst <= 1e-10, f" (max deviation={worst:.2e})")


def test_criterion_4_exact_identities():
    """L - N = 2 diag(d-) exactly; quadratic forms match matrix forms."""
    rng = random.Random(4)
    gap_ok = True
    for _ in range(1000):
        n = rng.randrange(2, 13)
        g = sg.random_signed_graph(n, 0.5, 0.5, seed=rng.randrange(10**9))
        gap = sg.laplacian(g) - sg.net_laplacian(g)
        expected = 2 * np.diag(np.array(sg.degree_profile(g).neg_degree))
        gap_ok = gap_ok and np.array_equal(gap, expected)
    worst_q = 0.0
    for _ in range(1000):
        n = rng.randrange(1, 13)
        g = sg.random_signed_graph(n, 0.5, 0.5, seed=rng.randrange(10**9))
        x = np.array([rng.uniform(-2, 2) for _ in range(n)])
        ql = sg.quad_form_laplacian(g, x)
        qn = sg.quad_form_net_laplacian(g, x)
        ml = float(x @ (sg.laplacian(g).astype(float) @ x))
        mn = float(x @ (sg.net_laplacian(g).astype(float) @ x))
        worst_q = max(worst_q,
                      abs(ql - ml) / (1.0 + abs(ml)),
                      abs(qn - mn) / (1.0 + abs(mn)))
    ok = gap_ok and worst_q <= 1e-10
    _finish(4, "exact-identities", ok, f" (integer identity={gap_ok}, quad gap={worst_q:.2e})")


def test_criterion_5_normalized_bounds():
    """Normalized net-Laplacian spectra lie in [-2, 2]; K2 fixtures attain."""
    ok = True
    worst = -math.inf
    for seed in range(1000):
        g = isolate_free_graph(4 + seed % 9, seed)
        w = sg.eigenvalues(sg.normalized_net_laplacian(g))
        tol = 1e-9 * max(1.0, float(np.abs(w).max()))
        ok = ok and w[0] >= -2.0 - tol and w[-1] <= 2.0 + tol
        worst = max(worst, float(np.abs(w).max()))
    k2p = sg.build_graph(2, [(0, 1, 1)])
    k2m = sg.build_graph(2, [(0, 1, -1)])
    top = sg.eigenvalues(sg.normalized_net_laplacian(k2p))[-1]
    bottom = sg.eigenvalues(sg.normalized_net_laplacian(k2m))[0]
    attained = abs(top - 2.0) <= 1e-12 and abs(bottom + 2.0) <= 1e-12
    _finish(5, "normalized-bounds", ok and attained,
            f" (max |eigenvalue|={worst:.12f}, extremes attained={attained})")


def test_criterion_6_switching_invariance_and_balance():
    """L-spectra are switching-invariant; balance matches cycle parity."""
    rng = random.Random(6)
    worst = 0.0
    for _ in range(500):
        n = rng.randrange(2, 13)
        g = sg.random_signed_graph(n, 0.5, 0.5, seed=rng.randrange(10**9))
        alpha = tuple(rng.choice((1, -1)) for _ in range(n))
        w1 = sg.eigenvalues(sg.laplacian(g).astype(float))
        w2 = sg.eigenvalues(sg.laplacian(sg.apply_switching(g, alpha)).astype(float))
        scale = max(1.0, float(np.abs(w1).max()))
        worst = max(worst, float(np.abs(w1 - w2).max()) / scale)
    parity_ok = True
    for n in range(3, 9):  # exhaustive over all 2^n signatures
        for mask in range(2 ** n):
            signs = [(-1 if (mask >> k) & 1 else 1) for k in range(n)]
            g = sg.generate("cycle", n, signs)
            balanced = signs.count(-1) % 2 == 0
            parity_ok = parity_ok and sg.is_balanced(g) == balanced
            parity_ok = parity_ok and sg.switching_equivalent(g, sg.all_positive(g)) == balanced
    for n in range(9, 13):  # seeded sampling above the exhaustive range
        for i in range(200):
            g = sg.generate("cycle", n, "random", q=0.5, seed=n * 1000 + i)
            negs = sum(1 for _, _, s in g.edges if s == -1)
            even = negs % 2 == 0
            parity_ok = parity_ok and sg.is_balanced(g) == even
            parity_ok = parity_ok and sg.switching_equivalent(g, sg.all_positive(g)) == even
    ok = worst <= 1e-9 and parity_ok
    _finish(6, "switching-invariance", ok,
            f" (max spectral drift={worst:.2e}, parity oracle={parity_ok})")


def test_criterion_7_uniform_negative_degree_equality():
    """All-negative complete graphs: L and N spectra differ by exactly 2(n-1)."""
    worst = 0.0
    for n in range(2, 9):
        g = sg.generate("complete", n, "all_minus")
        dmin, dmax = sg.min_max_neg_degree(g)
        assert dmin == dmax == n - 1
        alpha = sg.eigenvalues(sg.laplacian(g).astype(float))
        beta = sg.eigenvalues(sg.net_laplacian(g).astype(float))
        scale = max(1.0, float(np.abs(alpha).max()))
        worst = max(worst, float(np.abs(alpha - (beta + 2.0 * dmin)).max()) / scale)
    _finish(7, "uniform-negative-degree-equality", worst <= 1e-9,
            f" (max positionwise gap={worst:.2e})")


def test_criterion_8_campaign_determinism(default_campaign):
    """Re-running the full default campaign reproduces the bytes exactly."""
    second = run_campaign(CampaignConfig(**DEFAULT_CFG))
    same_json = campaign_to_json(default_campaign) == campaign_to_json(second)
    same_csv = campaign_to_csv(default_campaign) == campaign_to_csv(second)
    _finish(8, "campaign-determinism", same_json and same_csv,
            f" (json identical={same_json}, csv identical={same_csv})")


# Seed-0 default campaign, per id: (hypothesis met, holds, fails, skipped).
SEED0_TABLE = {
    "T2.1": (1000, 1000, 0, 0), "C2.2": (118, 118, 0, 882), "L2.3": (999, 999, 0, 1),
    "T2.4": (1000, 1000, 0, 0), "C2.5": (1000, 1000, 0, 0), "T2.7": (354, 354, 0, 646),
    "C2.8": (1000, 1000, 0, 0), "C2.9": (1000, 1000, 0, 0), "L3.1": (1000, 1000, 0, 0),
    "T3.2": (971, 971, 0, 29), "T3.3": (969, 969, 0, 31), "T3.4": (880, 880, 0, 120),
    "C3.5": (622, 622, 0, 378), "C3.6": (620, 620, 0, 380), "C3.7": (0, 0, 0, 1000),
    "B4": (1000, 1000, 0, 0), "T4.1": (859, 296, 563, 141), "T4.2": (854, 723, 131, 146),
    "T4.3": (737, 535, 202, 263),
}
# sha256 over every report's float-free fields, one JSON line per report
SEED0_FLOAT_FREE_SHA256 = "dae3fe40b334e63b4ae77acefc27f21a62adf473b4399110fa8075eb4a3ad397"


def test_seed0_campaign_pinned(default_campaign):
    """The seed-0 verdict counts and every report's float-free fields
    (theorem, verdict flags, graph, surgery in insertion order, skipped links,
    note) are pinned, so a changed sampler draw, skip note or surgery key
    order shows across commits; criterion 8 only compares two runs of the
    same code."""
    table = {s["theorem"]: (s["hypothesis_met"], s["holds"], s["fails"], s["skipped"])
             for s in default_campaign.summary}
    digest = hashlib.sha256()
    for r in default_campaign.reports:
        fields = [r.theorem, r.hypothesis_met, r.holds, r.graph, r.surgery, r.links_skipped, r.note]
        digest.update(json.dumps(fields).encode() + b"\n")
    assert table == SEED0_TABLE
    assert digest.hexdigest() == SEED0_FLOAT_FREE_SHA256


def test_sources_parse_at_the_declared_python_floor():
    """Every .py file parses with the grammar of the oldest Python that
    pyproject.toml declares, also where no interpreter of that version runs."""
    root = Path(__file__).resolve().parent.parent
    minor = int(re.search(r'requires-python = ">=3\.(\d+)"', (root / "pyproject.toml").read_text())[1])
    files = sorted(p for d in ("src", "tests", "perfbench", "scripts") for p in (root / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, minor))
