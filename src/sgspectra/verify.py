"""Interlacing-inequality checkers, campaign runner and report formats.

Each check id (T2.1, C2.2, ...) names one positionwise eigenvalue inequality
between a graph's spectrum and the spectrum of a derived graph (vertex or
edge deleted, cycle shrunk, pair contracted), or a two-sided spectral bound.
A checker never assumes its hypothesis: when the input does not satisfy it,
the report carries hypothesis_met=False and no verdict is implied.

The campaign runner replays bit-exactly from a seed.  A report whose
hypothesis was met and whose worst slack drops below -tol is a genuine
violation of the chain as coded (CLI exit code 4); it is a finding about the
inequality, not by itself an implementation bug.  Three chains for the
normalized net-Laplacian, T4.1, T4.2 and T4.3, are refuted by small frozen
witnesses, and C3.7 by all-positive K4.  For T4.1-T4.3 the acceptance suite
asserts that the default campaign reports violations and that each of their
verdicts agrees with an independent numpy/LAPACK recomputation; for every
other id it asserts zero violations, which for C3.7 is empty because the
campaign never meets its hypothesis.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    BadOrder,
    ConfigInvalid,
    LengthMismatch,
    NoSuchEdge,
)
from .eigen import _STACK_ENTRIES, eigenvalues_many
from .fileio import to_edge_string
from .graphs import (
    MINUS,
    PLUS,
    SignedGraph,
    all_positive,
    co_regularity,
    degree_profile,
    generate,
    is_balanced,
    is_connected,
    min_max_neg_degree,
    random_signed_graph,
    sign_char,
)
from .matrices import laplacian, net_laplacian, normalized_net_laplacian
from .surgery import contract, delete_edge, delete_vertex, disjoint_open_neighborhoods

_INF = math.inf


@dataclass
class InterlacingReport:
    """Outcome of one inequality check on one input."""

    theorem: str
    holds: bool
    hypothesis_met: bool
    worst_slack: float
    witness_position: int  # 1-based position of the worst margin; 0 if none
    tol: float
    spectra: dict
    graph: str
    surgery: dict
    links_skipped: list = field(default_factory=list)
    note: str = ""
    info: dict = field(default_factory=dict)


def default_tol(*spectra) -> float:
    """1e-9 scaled by the largest eigenvalue magnitude in play."""
    top = 1.0
    for s in spectra:
        arr = np.asarray(s, dtype=np.float64)
        if arr.size:
            top = max(top, float(np.max(np.abs(arr))))
    return 1e-9 * top


def check_chain(lower, mid, upper, tol: float):
    """Verify lower_p <= mid_p <= upper_p for all p.

    Returns (holds, worst_slack, witness) where the slack at p is
    min(mid_p - lower_p, upper_p - mid_p), worst_slack is the minimum over
    positions and witness its 1-based index (0 for empty input).
    """
    _check_tol(tol)
    lower = np.asarray(lower, dtype=np.float64)
    mid = np.asarray(mid, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if not (lower.shape == mid.shape == upper.shape):
        raise LengthMismatch(
            f"chain lengths differ: {lower.shape}, {mid.shape}, {upper.shape}"
        )
    margins = _chain_margins(lower, mid, upper)
    return _verdict(margins, tol)


def _check_tol(tol) -> None:
    """Reject a NaN or negative tol; None stands for default_tol."""
    if tol is not None and not tol >= 0:
        raise ConfigInvalid(f"tol must be a non-negative number, got {tol}")


def _chain_margins(lower, mid, upper) -> np.ndarray:
    # IEEE arithmetic already gives a -inf lower or +inf upper a +inf margin
    return np.minimum(mid - lower, upper - mid)


def _verdict(margins: np.ndarray, tol: float):
    if len(margins) == 0:
        return True, _INF, 0
    witness = int(np.argmin(margins))
    worst = float(margins[witness])
    return bool(worst >= -tol), worst, witness + 1


# --- the check table ---------------------------------------------------------
#
# One Check record per id; _prepare and _solve evaluate any record.
# CHECKERS, ARG_KINDS, the public check_* names, the CLI's argument handling
# and the campaign samplers are derived from the table.  Records reach the
# eigensolver, the matrices and the surgeries through this module's globals at
# call time, so a tracer that rebinds those names sees every call.


@dataclass(frozen=True)
class Stage:
    """One hypothesis condition and the note a report carries when it fails.

    `holds` takes the graph and, unless `whole`, the check's argument; the
    note is formatted with the argument and `deg`, its vertices' degrees.
    """

    holds: Callable[..., bool]
    note: str
    whole: bool = False


@dataclass(frozen=True)
class ArgKind:
    """What a check takes besides tol; for a graph argument, how it is
    validated, applied and drawn in campaigns."""

    name: str
    params: tuple
    surgery: Callable | None = None  # (g, *arg) -> surgery entries; raises on a bad argument
    cut: Callable | None = None  # (g, *arg) -> (derived graph, surgery entries)
    pool: Callable | None = None  # g -> campaign candidates, in draw order
    empty: str = ""  # skip note when a campaign graph has no candidate
    fallback: Callable | None = None  # (g, rng) -> argument when no candidate meets the stages


@dataclass(frozen=True)
class Check:
    """One check id.

    `matrices` holds the builders whose spectra are alpha, of the input
    graph, and beta and mu, of the derived graph; `chain(surgery, alpha, beta[, mu])` returns (lower, mid,
    upper) triples, and the verdict takes the per-position minimum of their
    margins.  A -inf lower or +inf upper entry is a link with no partner; the
    report lists it in links_skipped.  Family checks have `build(family, m,
    ...) -> (graph string, surgery, alpha graph, beta graph)` in place of a
    graph and stages.
    """

    id: str
    name: str
    kind: ArgKind
    matrices: tuple
    chain: Callable
    doc: str
    stages: tuple = ()
    params: Callable | None = None  # g -> surgery entries, once the hypothesis is met
    info: Callable | None = None  # (alpha, tol) -> info flags
    note: str = ""
    family: str | None = None
    build: Callable | None = None
    min_m: int = 0


def _chain_report(rec: Check, graph: str, surgery: dict, spectra: list, tol) -> InterlacingReport:
    tol_val = tol if tol is not None else default_tol(*spectra)
    triples = rec.chain(surgery, *spectra)
    margins = np.minimum.reduce([_chain_margins(*t) for t in triples])
    holds, worst, witness = _verdict(margins, tol_val)
    return InterlacingReport(
        theorem=rec.id,
        holds=holds,
        hypothesis_met=True,
        worst_slack=worst,
        witness_position=witness,
        tol=float(tol_val),
        spectra={k: [float(x) for x in s] for k, s in zip(("alpha", "beta", "mu"), spectra)},
        graph=graph,
        surgery=surgery,
        links_skipped=_links_skipped(triples),
        note=rec.note,
        info=rec.info(spectra[0], tol_val) if rec.info else {},
    )


def _links_skipped(triples) -> list[str]:
    """Links with no partner (a -inf lower or +inf upper entry), lower links first."""
    lower = sorted({p for t in triples for p, x in enumerate(t[0].tolist(), 1) if x == -_INF})
    upper = sorted({p for t in triples for p, x in enumerate(t[2].tolist(), 1) if x == _INF})
    return [f"lower p={p}" for p in lower] + [f"upper p={p}" for p in upper]


def _skipped_report(theorem, g_str, surgery, note, tol) -> InterlacingReport:
    return InterlacingReport(
        theorem=theorem,
        holds=True,
        hypothesis_met=False,
        worst_slack=_INF,
        witness_position=0,
        tol=float(tol if tol is not None else 0.0),
        spectra={},
        graph=g_str,
        surgery=surgery,
        note=note,
    )


def _narrow(rec: Check, g: SignedGraph, pool: list):
    """Filter candidate arguments through rec's stages in order.

    Returns the last non-empty pool and the first stage that would have
    emptied it, or None when every stage kept some candidate.
    """
    for stage in rec.stages:
        if stage.whole:
            kept = pool if stage.holds(g) else []
        else:
            kept = [x for x in pool if stage.holds(g, *x)]
        if not kept:
            return pool, stage
        pool = kept
    return pool, None


def _prepare(rec: Check, tol, *args):
    """The hypothesis gate, surgery and matrices of one check: a skipped
    report when the hypothesis fails, else (graph string, surgery, matrices)."""
    if rec.build is not None:
        if args[0] < rec.min_m:
            what = "cycle" if rec.family == "cycle" else "tree"
            raise BadOrder(f"{what} comparison needs m >= {rec.min_m}, got {args[0]}")
        graph, surgery, g, sub = rec.build(rec.family, *args)
    else:
        g, *arg = args
        surgery = rec.kind.surgery(g, *arg)
        graph = to_edge_string(g)
        _, failed = _narrow(rec, g, [tuple(arg)])
        if failed is not None:
            note = failed.note.format(*arg, deg=[g.degree(x) for x in arg])
            return _skipped_report(rec.id, graph, surgery, note, tol)
        if rec.params is not None:
            surgery.update(rec.params(g))
        sub, entries = rec.kind.cut(g, *arg)
        surgery.update(entries)
    return graph, surgery, [build(h) for build, h in zip(rec.matrices, (g, sub, sub))]


def _solve(rec: Check, prepared: list, tol) -> list[InterlacingReport]:
    """Reports for prepared checks of rec, all their matrices solved in one call."""
    pending = [p for p in prepared if not isinstance(p, InterlacingReport)]
    if not pending:
        return prepared
    spectra = iter(eigenvalues_many([m for _, _, mats in pending for m in mats]))
    return [p if isinstance(p, InterlacingReport)
            else _chain_report(rec, p[0], p[1], [next(spectra) for _ in p[2]], tol)
            for p in prepared]


def _groups(prepared, entries: int):
    """prepared checks in consecutive groups whose matrices hold about
    `entries` entries each, so that only one group's matrices are held."""
    group, size = [], 0
    for p in prepared:
        group.append(p)
        if not isinstance(p, InterlacingReport):
            size += sum(m.size for m in p[2])
        if size >= entries:
            yield group
            group, size = [], 0
    if group:
        yield group


def _run(rec: Check, tol, *args) -> InterlacingReport:
    _check_tol(tol)
    return _solve(rec, [_prepare(rec, tol, *args)], tol)[0]


def _checker(rec: Check) -> Callable:
    """rec's public checker: the kind's arguments, then an optional tol."""
    arity = len(rec.kind.params)

    def check(*args, tol=None):
        if len(args) > arity:
            *args, tol = args
        return _run(rec, tol, *args)

    check.__name__ = check.__qualname__ = rec.name
    check.__doc__ = rec.doc
    return check


# --- argument kinds ------------------------------------------------------------

def _vertex_surgery(g: SignedGraph, v: int) -> dict:
    g._check_vertex(v)
    return {"vertex": v}


def _edge_surgery(g: SignedGraph, u: int, v: int) -> dict:
    if not g.has_edge(u, v):
        raise NoSuchEdge(f"no edge ({u}, {v})")
    return {"edge": [min(u, v), max(u, v)], "sign": sign_char(g.sign(u, v))}


def _contract(g: SignedGraph, a: int, b: int):
    sub, _, merged = contract(g, a, b)
    return sub, {"merged_vertex": merged, "contracted_graph": to_edge_string(sub)}


def _any_pair(g: SignedGraph, rng: random.Random):
    a = _rand_below(rng, g.n)
    b = _rand_below(rng, g.n - 1)
    return (a, b if b < a else b + 1)


_GRAPH = ArgKind("graph", ("g",), surgery=lambda g: {}, cut=lambda g: (g, {}))
_VERTEX = ArgKind("vertex", ("g", "v"), _vertex_surgery, lambda g, v: (delete_vertex(g, v)[0], {}),
                  pool=lambda g: [(v,) for v in range(g.n)])
_EDGE = ArgKind("edge", ("g", "u", "v"), _edge_surgery, lambda g, u, v: (delete_edge(g, u, v)[0], {}),
                pool=lambda g: [(u, v) for u, v, _ in g.edges], empty="graph has no usable edge")
_PAIR = ArgKind("pair", ("g", "a", "b"), lambda g, a, b: {"pair": [min(a, b), max(a, b)]}, _contract,
                pool=lambda g: [(a, b) for a in range(g.n) for b in range(a + 1, g.n)],
                empty="no contractible pair", fallback=_any_pair)
_CYCLE = ArgKind("cycle", ("m", "sig1", "sign_last"))
_SEEDED = ArgKind("seeded", ("m", "seed"))


# --- hypothesis stages -----------------------------------------------------------

def _complete_coregular(g: SignedGraph) -> bool:
    # one degree and one net degree everywhere, hence one negative degree
    co = co_regularity(g)
    return co is not None and co.complete


_TWO = Stage(lambda g: g.n >= 2, "graph has fewer than 2 vertices", whole=True)
_NO_ISOLATED = Stage(lambda g: all(g.degree(x) for x in range(g.n)), "graph has an isolated vertex",
                     whole=True)
_NEGATIVE = Stage(lambda g, u, v: g.sign(u, v) == MINUS, "edge ({0}, {1}) is positive")
_POSITIVE = Stage(lambda g, u, v: g.sign(u, v) == PLUS, "edge ({0}, {1}) is negative")
# With no isolated vertex, deleting uv isolates one exactly when u or v has degree 1.
_KEEPS_DEGREE = Stage(lambda g, u, v: g.degree(u) >= 2 and g.degree(v) >= 2, "deletion isolates a vertex")


# --- chains, parameters and family builders ------------------------------------------

def _interlace(s, a, b):
    return [(a[:-1], b, a[1:])]


def _cycle_chain(s, a, b):
    return [(a[:-1] - 1.0, b, a[1:] + 2.0)]


def _coregular_chain(s, a, b, mu):
    """beta_p + 2s <= alpha_p <= mu_p + (1-2s) <= alpha_{p+1} <= beta_{p+1} + 2s."""
    k = 2.0 * s["uniform_neg_degree"]
    mid = mu + (1.0 - k)
    return [(b + k, a[:-1], mid), (mid, a[1:], np.append(b[1:] + k, _INF))]


def _neg_degree_range(g: SignedGraph) -> dict:
    dmin, dmax = min_max_neg_degree(g)
    return {"delta_minus": dmin, "Delta_minus": dmax}


def _bound_flags(a, tol: float) -> dict:
    if not a.size:
        return {}
    return {"attains_upper_bound": bool(abs(a[-1] - 2.0) <= tol),
            "attains_lower_bound": bool(abs(a[0] + 2.0) <= tol)}


def _random_signs(rng: random.Random, k: int, q: float = 0.5) -> list[int]:
    return [MINUS if rng.random() < q else PLUS for _ in range(k)]


def _cycles(family: str, m: int, sig1, sign_last: int):
    """The (m+1)-cycle signed sig1 and the m-cycle sharing its first m-1
    edges and closed by sign_last."""
    return (generate(family, m + 1, sig1),
            generate(family, m, list(sig1[: m - 1]) + [sign_last]))


def _cycle_pair(family: str, m: int, sig1, sign_last: int):
    big, small = _cycles(family, m, sig1, sign_last)
    surgery = {"small_graph": to_edge_string(small), "closing_sign": sign_char(sign_last)}
    return to_edge_string(big), surgery, big, small


def _random_cycle_pair(family: str, m: int, seed: int):
    rng = random.Random(seed)
    sig1 = _random_signs(rng, m + 1)
    sig2 = _random_signs(rng, m)
    big = generate(family, m + 1, sig1)
    small = generate(family, m, sig2)
    canon1 = [PLUS] * m + [PLUS if is_balanced(big) else MINUS]
    closing2 = PLUS if is_balanced(small) else MINUS
    surgery = {"small_graph": to_edge_string(small), "seed": seed,
               "canonical_closing_large": sign_char(canon1[-1]),
               "canonical_closing_small": sign_char(closing2)}
    return (to_edge_string(big), surgery) + _cycles(family, m, canon1, closing2)


def _tree_pair(family: str, m: int, seed: int):
    rng = random.Random(seed)
    sig_big = _random_signs(rng, m)
    sig_small = _random_signs(rng, m - 1)
    big = generate(family, m + 1, sig_big)
    small = generate(family, m, sig_small)
    surgery = {"small_graph": to_edge_string(small), "seed": seed, "kind": family}
    # a tree is balanced: its balancing switch makes every edge positive
    return to_edge_string(big), surgery, all_positive(big), all_positive(small)


def _lap(g: SignedGraph) -> np.ndarray:
    return laplacian(g)


def _net(g: SignedGraph) -> np.ndarray:
    return net_laplacian(g)


def _norm(g: SignedGraph) -> np.ndarray:
    return normalized_net_laplacian(g)


_LAP = (_lap, _lap)
_NET = (_net, _net)
_NORM = (_norm, _norm)

_TABLE = (
    # Laplacian
    Check("T2.1", "check_vertex_deletion_laplacian", _VERTEX, _LAP,
          lambda s, a, b: [(a[:-1], b + 1.0, a[1:] + 1.0)], stages=(_TWO,),
          doc="""T2.1: deleting any vertex, alpha_p <= beta_p + 1 <= alpha_{p+1} + 1."""),
    Check("C2.2", "check_dominating_vertex_deletion", _VERTEX, _LAP,
          lambda s, a, b: [(a[:-1], b + 1.0, a[1:])],
          stages=(Stage(lambda g, v: g.n >= 2 and g.degree(v) == g.n - 1,
                        "vertex {0} is not adjacent to all remaining vertices"),),
          doc="""C2.2: deleting a vertex adjacent to all others tightens the upper link."""),
    Check("L2.3", "check_edge_deletion_laplacian", _EDGE, _LAP, lambda s, a, b: [(b, a, b + 2.0)],
          doc="""L2.3: deleting any edge, beta_p <= alpha_p <= beta_p + 2."""),
    Check("T2.4", "check_cycle_shrink", _CYCLE, _LAP, _cycle_chain,
          family="cycle", build=_cycle_pair, min_m=3,
          doc="""T2.4: a signed (m+1)-cycle against the m-cycle sharing its path edges.

    sig1 lists the large cycle's signs in canonical edge order (closing edge
    last); the small cycle copies the first m-1 of them and closes with
    sign_last.  Chain: alpha_p - 1 <= beta_p <= alpha_{p+1} + 2.
    """),
    Check("C2.5", "check_cycle_shrink_random", _SEEDED, _LAP, _cycle_chain,
          note="compared via switching to balance-class canonical forms",
          family="cycle", build=_random_cycle_pair, min_m=3,
          doc="""C2.5: the cycle comparison holds for independently random signatures.

    Both cycles are reduced by switching to their balance-class canonical
    form (all-positive, or a single negative closing edge), whose spectra
    equal the drawn ones, and the T2.4 chain is verified there.
    """),
    Check("T2.7", "check_pendant_deletion", _VERTEX, _LAP, _interlace,
          stages=(Stage(lambda g, v: g.degree(v) == 1, "vertex {0} has degree {deg[0]}, not 1"),),
          doc="""T2.7: deleting a degree-1 vertex, alpha_p <= beta_p <= alpha_{p+1}."""),
    Check("C2.8", "check_tree_shrink", _SEEDED, _LAP, _interlace,
          note="both trees switched to all-positive before comparing",
          family="path", build=_tree_pair, min_m=2,
          doc="""C2.8: check_tree_shrink on paths."""),
    Check("C2.9", "check_tree_shrink", _SEEDED, _LAP, _interlace,
          note="both trees switched to all-positive before comparing",
          family="star", build=_tree_pair, min_m=2,
          doc="""C2.9: check_tree_shrink on stars."""),
    # net-Laplacian
    Check("L3.1", "check_laplacian_net_gap", _GRAPH, (_lap, _net),
          lambda s, a, b: [(b + 2.0 * s["delta_minus"], a, b + 2.0 * s["Delta_minus"])],
          params=_neg_degree_range,
          doc="""L3.1: beta_p + 2*min(d-) <= alpha_p <= beta_p + 2*max(d-), same graph."""),
    Check("T3.2", "check_negative_edge_deletion_net", _EDGE, _NET,
          lambda s, a, b: [(a, b, np.append(a[1:], float(len(a))))], stages=(_NEGATIVE,),
          doc="""T3.2: deleting a negative edge, alpha_p <= beta_p <= alpha_{p+1} with
    the top position capped by the vertex count."""),
    Check("T3.3", "check_positive_edge_deletion_net", _EDGE, _NET,
          lambda s, a, b: [(np.append(-float(len(a)), a[:-1]), b, a)], stages=(_POSITIVE,),
          doc="""T3.3: deleting a positive edge, alpha_{p-1} <= beta_p <= alpha_p with
    the bottom position floored at minus the vertex count."""),
    Check("T3.4", "check_vertex_deletion_net", _VERTEX, _NET,
          lambda s, a, b: [(a[:-1] - 1.0, b, a[1:] + 1.0)],
          stages=(_TWO, Stage(lambda g: is_connected(g), "graph is not connected", whole=True)),
          doc="""T3.4: deleting a vertex of a connected graph,
    alpha_p - 1 <= beta_p <= alpha_{p+1} + 1."""),
    Check("C3.5", "check_negfree_vertex_deletion", _VERTEX, _NET,
          lambda s, a, b: [(a[:-1] - 1.0, b, a[1:])],
          stages=(_TWO, Stage(lambda g, v: all(s == PLUS for _, s in g.neighbors(v)),
                              "vertex {0} has a negative edge")),
          doc="""C3.5: deleting a vertex with no negative edges,
    alpha_p - 1 <= beta_p <= alpha_{p+1}."""),
    Check("C3.6", "check_posfree_vertex_deletion", _VERTEX, _NET,
          lambda s, a, b: [(a[:-1], b, a[1:] + 1.0)],
          stages=(_TWO, Stage(lambda g, v: all(s == MINUS for _, s in g.neighbors(v)),
                              "vertex {0} has a positive edge")),
          doc="""C3.6: deleting a vertex with no positive edges,
    alpha_p <= beta_p <= alpha_{p+1} + 1."""),
    Check("C3.7", "check_complete_coregular_deletion", _VERTEX, _NET + (_lap,),
          _coregular_chain,
          stages=(_TWO, Stage(_complete_coregular,
                              "graph is not complete co-regular with uniform negative degree", whole=True)),
          params=lambda g: {"uniform_neg_degree": degree_profile(g).neg_degree[0]},
          doc="""C3.7: in a complete co-regular graph with uniform negative degree s,
    chain beta_p + 2s <= alpha_p <= mu_p + (1-2s) <= alpha_{p+1} <= beta_{p+1} + 2s
    (alpha: net spectrum, beta/mu: net/plain spectra after deleting v).
    The final link has no partner at p = m and is skipped.
    """),
    # normalized net-Laplacian
    Check("B4", "check_normalized_spectrum_bounds", _GRAPH, (_norm,),
          lambda s, a: [(np.full(a.shape, -2.0), a, np.full(a.shape, 2.0))], info=_bound_flags,
          doc="""B4: every normalized net-Laplacian eigenvalue lies in [-2, 2].

    The info flags mark whether either bound is attained (within tol);
    attainment characterizes all-positive / all-negative bipartite components.
    """),
    Check("T4.1", "check_negative_edge_deletion_normalized", _EDGE, _NORM,
          lambda s, a, b: [(a, b, np.append(a[2:], [_INF, _INF]))],
          stages=(_NEGATIVE, _NO_ISOLATED, _KEEPS_DEGREE),
          doc="""T4.1: deleting a negative edge (no isolated vertices before or after),
    alpha_p <= beta_p <= alpha_{p+2}; positions without an upper partner are
    skipped and recorded."""),
    Check("T4.2", "check_positive_edge_deletion_normalized", _EDGE, _NORM,
          lambda s, a, b: [(np.append(-_INF, a[:-1]), b, np.append(a[1:], _INF))],
          stages=(_POSITIVE, _NO_ISOLATED, _KEEPS_DEGREE),
          doc="""T4.2: deleting a positive edge (no isolated vertices before or after),
    alpha_{p-1} <= beta_p <= alpha_{p+1}; boundary links without a partner
    are skipped and recorded."""),
    Check("T4.3", "check_contraction_normalized", _PAIR, _NORM,
          lambda s, a, b: [(np.append(-2.0, a[:-2]), b, a[1:])],
          stages=(Stage(lambda g, a, b: disjoint_open_neighborhoods(g, a, b),
                        "vertices {0} and {1} share a neighbor"),
                  _NO_ISOLATED,
                  # with no isolated vertex, only the merged vertex can end up isolated
                  Stage(lambda g, a, b: any(w not in (a, b) for x in (a, b) for w, _ in g.neighbors(x)),
                        "contraction isolates a vertex")),
          doc="""T4.3: contracting two vertices with disjoint open neighborhoods,
    alpha_{p-1} <= beta_p <= alpha_{p+1} with alpha_0 = -2.

    Adjacent pairs pass the gate (an edge between a and b leaves their open
    neighborhoods disjoint) and are contracted with that edge dropped.
    Every violation seen in campaigns is on such an adjacent pair; for a
    non-adjacent pair degrees are preserved and the chain follows from
    restricting the (net-Laplacian, degree) pencil to {x_a = x_b}.
    """),
)

CHECKS: dict[str, Check] = {rec.id: rec for rec in _TABLE}
CHECK_IDS = tuple(CHECKS)
CHECKERS: dict[str, Callable] = {rec.id: _checker(rec) for rec in _TABLE}
# argument the CLI / campaign must supply for each check
ARG_KINDS: dict[str, str] = {rec.id: rec.kind.name for rec in _TABLE}

check_vertex_deletion_laplacian = CHECKERS["T2.1"]
check_dominating_vertex_deletion = CHECKERS["C2.2"]
check_edge_deletion_laplacian = CHECKERS["L2.3"]
check_cycle_shrink = CHECKERS["T2.4"]
check_cycle_shrink_random = CHECKERS["C2.5"]
check_pendant_deletion = CHECKERS["T2.7"]
check_laplacian_net_gap = CHECKERS["L3.1"]
check_negative_edge_deletion_net = CHECKERS["T3.2"]
check_positive_edge_deletion_net = CHECKERS["T3.3"]
check_vertex_deletion_net = CHECKERS["T3.4"]
check_negfree_vertex_deletion = CHECKERS["C3.5"]
check_posfree_vertex_deletion = CHECKERS["C3.6"]
check_complete_coregular_deletion = CHECKERS["C3.7"]
check_normalized_spectrum_bounds = CHECKERS["B4"]
check_negative_edge_deletion_normalized = CHECKERS["T4.1"]
check_positive_edge_deletion_normalized = CHECKERS["T4.2"]
check_contraction_normalized = CHECKERS["T4.3"]

_TREES = {rec.family: rec for rec in _TABLE if rec.build is _tree_pair}


def check_tree_shrink(kind: str, m: int, seed: int, tol=None) -> InterlacingReport:
    """C2.8 (paths) / C2.9 (stars): random signatures on orders m+1 and m.

    Trees are balanced, so both graphs are switched to all-positive before
    comparing; the chain is the pendant-deletion one.
    """
    if kind not in _TREES:
        raise BadOrder(f"kind must be 'path' or 'star', got {kind!r}")
    return _run(_TREES[kind], tol, m, seed)


def check_onesign_vertex_deletion(g: SignedGraph, v: int, tol=None) -> InterlacingReport:
    """Dispatch to C3.5 or C3.6 by the deleted vertex's sign pattern."""
    _check_tol(tol)
    signs = {s for _, s in g.neighbors(v)}
    if MINUS not in signs:
        return check_negfree_vertex_deletion(g, v, tol)
    if PLUS not in signs:
        return check_posfree_vertex_deletion(g, v, tol)
    return _skipped_report("C3.5", to_edge_string(g), {"vertex": v},
                           f"vertex {v} has both positive and negative edges", tol)


# --- campaigns ---------------------------------------------------------------

@dataclass
class CampaignConfig:
    theorems: tuple = CHECK_IDS
    n_min: int = 4
    n_max: int = 12
    p: float = 0.5
    q: float = 0.5
    samples: int = 1000
    seed: int = 0
    tol: float | None = None

    def validate(self) -> None:
        if self.samples < 1:
            raise ConfigInvalid(f"samples must be >= 1, got {self.samples}")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ConfigInvalid("probabilities must lie in [0, 1]")
        if not (2 <= self.n_min <= self.n_max):
            raise ConfigInvalid(f"need 2 <= n_min <= n_max, got {self.n_min}..{self.n_max}")
        unknown = [t for t in self.theorems if t not in CHECK_IDS]
        if unknown:
            raise ConfigInvalid(f"unknown check ids: {unknown}")
        repeated = sorted({t for t in self.theorems if self.theorems.count(t) > 1})
        if repeated:
            raise ConfigInvalid(f"repeated check ids: {repeated}")
        if not self.theorems:
            raise ConfigInvalid("at least one check id required")
        _check_tol(self.tol)


@dataclass
class CampaignResult:
    config: CampaignConfig
    reports: list
    summary: list

    @property
    def violations(self) -> int:
        return sum(s["fails"] for s in self.summary)


_MASK63 = (1 << 63) - 1


def _mix(*parts: int) -> int:
    """Stable arithmetic hash of integers -> 63-bit child seed."""
    h = 0x9E3779B97F4A7C15
    for v in parts:
        h = (h ^ (v & _MASK63)) * 0xBF58476D1CE4E5B9 & _MASK63
        h ^= h >> 31
    return h & _MASK63


def _rand_below(rng: random.Random, k: int) -> int:
    """Uniform-ish index in [0, k) drawn only from rng.random(), which is
    stable across Python versions for a fixed seed."""
    return min(int(rng.random() * k), k - 1)


def _rand_range(rng: random.Random, lo: int, hi: int) -> int:
    return lo + _rand_below(rng, hi - lo + 1)


def _choice(rng: random.Random, seq):
    return seq[_rand_below(rng, len(seq))]


def _draw(rec: Check, cfg: CampaignConfig, child: int):
    """One campaign sample's checker arguments, or a skipped report when its
    graph offers no candidate argument."""
    rng = random.Random(child)
    if rec.build is not None:
        m = _rand_range(rng, max(rec.min_m, cfg.n_min), max(rec.min_m, cfg.n_max))
        if rec.kind is _SEEDED:
            return m, _mix(child, 1)
        sig1 = _random_signs(rng, m + 1, cfg.q)
        sign_last = MINUS if rng.random() < cfg.q else PLUS
        return m, sig1, sign_last

    n = _rand_range(rng, cfg.n_min, cfg.n_max)
    g = random_signed_graph(n, cfg.p, cfg.q, _mix(child, 2))
    arg = () if rec.kind.pool is None else _pick(rec, g, rng)
    if arg is None:
        return _skipped_report(rec.id, to_edge_string(g), {}, rec.kind.empty, cfg.tol)
    return (g, *arg)


def _pick(rec: Check, g: SignedGraph, rng: random.Random):
    """Prefer an argument satisfying the check's hypothesis when one exists.

    Draws from the pool the stages narrow, unless some stage would empty it
    and the kind has its own fallback draw; None when there is no candidate.
    """
    pool, failed = _narrow(rec, g, rec.kind.pool(g))
    if not pool:
        return None
    if failed is None or rec.kind.fallback is None:
        return _choice(rng, pool)
    return rec.kind.fallback(g, rng)


def run_campaign(cfg: CampaignConfig) -> CampaignResult:
    """Run every configured check over seeded samples; fully deterministic.

    Child seeds are derived from (seed, master check index, sample index), so
    each check's stream is independent of which other checks run.  A
    check's samples are drawn and prepared in order, and the matrices of
    each run of samples that fills one solver stack are solved in one call;
    a spectrum does not depend on what it is solved with, so each report
    equals its checker's.
    """
    cfg.validate()
    reports: list[InterlacingReport] = []
    summary: list[dict] = []
    for theorem in cfg.theorems:
        ti = CHECK_IDS.index(theorem)
        rec = CHECKS[theorem]
        draws = (_draw(rec, cfg, _mix(cfg.seed, ti, i)) for i in range(cfg.samples))
        prepared = (d if isinstance(d, InterlacingReport) else _prepare(rec, cfg.tol, *d)
                    for d in draws)
        t_reports = [r for group in _groups(prepared, _STACK_ENTRIES)
                     for r in _solve(rec, group, cfg.tol)]
        met = [r for r in t_reports if r.hypothesis_met]
        fails = [r for r in met if not r.holds]
        worst = min(met, key=lambda r: r.worst_slack) if met else None
        summary.append({
            "theorem": theorem,
            "samples": cfg.samples,
            "hypothesis_met": len(met),
            "holds": sum(1 for r in met if r.holds),
            "fails": len(fails),
            "skipped": cfg.samples - len(met),
            "worst_slack": worst.worst_slack if worst else None,
            "witness": None if worst is None else {
                "graph": worst.graph,
                "surgery": worst.surgery,
                "worst_slack": worst.worst_slack,
                "witness_position": worst.witness_position,
            },
        })
        reports.extend(t_reports)
    return CampaignResult(cfg, reports, summary)


# --- serialization -----------------------------------------------------------

def report_to_dict(r: InterlacingReport) -> dict:
    """The report's fields in field order.  The dict is shallow: it shares
    the report's spectra, surgery, links_skipped and info containers."""
    return dict(vars(r))


def report_from_dict(d: dict) -> InterlacingReport:
    return InterlacingReport(**d)


def report_to_json(r: InterlacingReport) -> str:
    """The report as `sgspectra check` prints it: report_to_dict(r) in
    json's indent=2 layout."""
    return _json_text(report_to_dict(r))


def campaign_to_json(result: CampaignResult) -> str:
    doc = {
        "config": asdict(result.config),
        "summary": result.summary,
        "reports": [report_to_dict(r) for r in result.reports],
    }
    return _json_text(doc) + "\n"


# The JSON writer.  With an indent, the stdlib's json module runs its
# pure-Python encoder: one generator frame per container and one chunk per
# separator.  This writer gives the same indent=2 text for the exact types a
# report holds: dicts with str keys, lists, tuples, str, int, float, bool and
# None.  It writes a scalar in place, a list of finite floats or of strings
# with one join, and every piece to one list that is joined once.  Any other
# value or key raises TypeError, and _json_text then hands the whole document
# to json.dumps, whose text or exception is the reference.

_ENCODE_STR = json.encoder.encode_basestring_ascii  # TypeError on a non-str
_LITERALS = {None: "null", True: "true", False: "false"}  # looked up for bool and None only


def _json_text(doc) -> str:
    """doc as the json module writes it with indent=2, byte for byte."""
    out: list[str] = []
    try:
        _put_json(doc, out, "\n")
    except (TypeError, RecursionError):
        return json.dumps(doc, indent=2)
    return "".join(out)


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _put_json(o, out: list, nl: str) -> None:
    """Append the text of o, a dict, list or tuple, to out; nl is a newline
    and the pad of o's own line."""
    if type(o) is dict:
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, x in o.items():
            head = sep + _ENCODE_STR(k) + ": "
            t = type(x)
            if t is str:
                out.append(head + _ENCODE_STR(x))
            elif t is float:
                out.append(head + _float_json(x))
            elif t is int:
                out.append(head + int.__repr__(x))
            elif t is bool or x is None:
                out.append(head + _LITERALS[x])
            else:
                out.append(head)
                _put_json(x, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif type(o) is list or type(o) is tuple:
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        t = type(o[0])
        if t is float or t is str:
            # float.__repr__ and _ENCODE_STR raise TypeError on any other
            # item; a finite float's repr has no "n", inf and nan do
            body = ("," + inner).join(map(float.__repr__ if t is float else _ENCODE_STR, o))
            if t is str or "n" not in body:
                out.append("[" + inner + body + nl + "]")
                return
        sep = "[" + inner
        for x in o:
            t = type(x)
            if t is str:
                out.append(sep + _ENCODE_STR(x))
            elif t is float:
                out.append(sep + _float_json(x))
            elif t is int:
                out.append(sep + int.__repr__(x))
            elif t is bool or x is None:
                out.append(sep + _LITERALS[x])
            else:
                out.append(sep)
                _put_json(x, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"the writer takes no {o.__class__.__name__}")


_CSV_FIELDS = (
    "theorem", "hypothesis_met", "holds", "worst_slack", "witness_position",
    "tol", "graph", "surgery", "spectrum_alpha", "spectrum_beta",
    "spectrum_mu", "links_skipped", "note",
)
_SORTED_JSON = json.JSONEncoder(sort_keys=True).encode


def _fmt17(x: float) -> str:
    return f"{x:.17g}"


def _fmt17_all(xs) -> str:
    """`" ".join(_fmt17(x) for x in xs)`, in one formatting call."""
    return ("%.17g " * len(xs))[:-1] % tuple(xs)


def campaign_to_csv(result: CampaignResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    writer.writerows(
        (r.theorem, r.hypothesis_met, r.holds, _fmt17(r.worst_slack), r.witness_position,
         _fmt17(r.tol), r.graph, _SORTED_JSON(r.surgery),
         _fmt17_all(r.spectra.get("alpha", ())), _fmt17_all(r.spectra.get("beta", ())),
         _fmt17_all(r.spectra.get("mu", ())), ";".join(r.links_skipped), r.note)
        for r in result.reports
    )
    return buf.getvalue()


def summary_lines(result: CampaignResult) -> list[str]:
    lines = []
    for s in result.summary:
        worst = "n/a" if s["worst_slack"] is None else _fmt17(s["worst_slack"])
        lines.append(
            f"{s['theorem']}: samples={s['samples']} met={s['hypothesis_met']} "
            f"holds={s['holds']} fails={s['fails']} skipped={s['skipped']} "
            f"worst_slack={worst}"
        )
    return lines
