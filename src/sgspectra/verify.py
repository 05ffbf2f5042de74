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
campaign never meets its hypothesis.  C3.7's failures show in the tier-1
sweep over every signed graph of order 3 and 4, which fails it on each
input that meets its hypothesis.
"""
from __future__ import annotations

import io
import json
import math
import random
from dataclasses import asdict, dataclass, field, fields
from functools import reduce
from typing import Callable

import numpy as np

from .errors import (
    ArgMismatch,
    BadOrder,
    ConfigInvalid,
    LengthMismatch,
)
from .eigen import _real_vector, eigenvalues_stack
from .fileio import format_spectrum, to_edge_string
from .graphs import (
    MINUS,
    PLUS,
    SignedGraph,
    _int_field,
    _not_graph,
    _order,
    _random_signs,
    _real_field,
    all_positive,
    co_regularity,
    degree_profile,
    family_edge_pairs,
    generate,
    is_balanced,
    is_connected,
    min_max_neg_degree,
    parse_sign,
    random_signed_graph,
    sign_char,
)
from .matrices import _flat, assemble, laplacian, net_laplacian, normalized_net_laplacian
from .surgery import contract, delete_edge, delete_vertex

_INF = math.inf
# a group is solved once the n^2 of its slots' matrices sum to this; the
# front-padded stack holds slots * top^2 entries, which can be several times
# that sum, but it is bounded, so memory does not grow with the samples
_STACK_ENTRIES = 1 << 16


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
    """1e-9 scaled by the largest eigenvalue magnitude in play, or by 1 when that is smaller."""
    flat = [np.ravel(np.asarray(s, dtype=np.float64)) for s in spectra]
    return _row_tols(np.concatenate([np.zeros(0), *flat])[None]).item()


def _row_tols(rows: np.ndarray) -> np.ndarray:
    """default_tol of each row of a 2-D array, one row of spectra per check."""
    return 1e-9 * np.abs(rows).max(axis=1, initial=1.0)


def check_chain(lower, mid, upper, tol: float):
    """Verify lower_p <= mid_p <= upper_p for all p.

    Returns (holds, worst_slack, witness) where the slack at p is
    min(mid_p - lower_p, upper_p - mid_p), worst_slack is the minimum over
    positions and witness its 1-based index (0 for empty input).  Raises
    ConfigInvalid unless tol is a non-negative number, LengthMismatch unless
    the three are real vectors of one length, and ValueError on a NaN entry or
    an infinite entry of mid.
    """
    if tol is None:
        raise ConfigInvalid("check_chain has no default tol; pass default_tol(lower, mid, upper)")
    _check_tol(tol)
    chain = [np.asarray(x) for x in (lower, mid, upper)]
    if chain[0].ndim != 1 or any(x.shape != chain[0].shape for x in chain):
        raise LengthMismatch(f"expected three real vectors of one length, got shapes "
                             f"{', '.join(str(x.shape) for x in chain)}")
    lower, mid, upper = (_real_vector(x)[None] for x in chain)
    if not np.isfinite(mid).all() or np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError("chain entries must not be NaN, and mid entries must be finite")
    holds, worst, witness = _verdicts([(lower, mid, upper)], np.array([float(tol)]))
    return holds[0], worst[0], witness[0]


def _check_tol(tol) -> None:
    """Reject a tol that is not a real number (see _real_field) or not a
    non-negative number a float can hold, inf included; None stands for
    default_tol.  The range is tested on float(tol), never in tol's own
    precision, and inf only passes when tol itself is infinite."""
    if tol is None:
        return
    try:
        x = float(_real_field(tol, "tol"))
    except (ConfigInvalid, OverflowError):  # not real, or an int or Fraction beyond float range
        x = math.nan
    if not (0 <= x and (x < _INF or tol == _INF)):
        raise ConfigInvalid(f"tol must be a non-negative number within float range, got {tol}")


def _verdicts(triples, tols: np.ndarray):
    """Per row of the 2-D (lower, mid, upper) triples: whether the chain holds
    within that row's tol, its worst slack and the 1-based witness, as lists."""
    # IEEE arithmetic already gives a -inf lower or +inf upper a +inf margin
    margins = reduce(np.minimum, [np.minimum(mid - lower, upper - mid) for lower, mid, upper in triples])
    if not margins.shape[1]:
        return [True] * len(margins), [_INF] * len(margins), [0] * len(margins)
    witness = margins.argmin(axis=1)
    worst = margins[np.arange(len(margins)), witness]
    return (worst >= -tols).tolist(), worst.tolist(), (witness + 1).tolist()


# --- the check table ---------------------------------------------------------
#
# One Check record per id; _run evaluates any record on any inputs.
# CHECKERS, ARG_KINDS, the public check_* names, the CLI's argument handling
# and the campaign samplers are derived from the table.  Each record's checker
# is bound at import under its record's name, except C2.8's and C2.9's:
# check_tree_shrink calls one of those two by its kind.  Records reach the
# matrix assembler, the eigensolver and the surgeries through this module's
# globals at call time, so a tracer that rebinds those names sees every call.


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

    `matrices` holds the builders from `matrices` whose spectra are alpha, of
    the input graph, and beta and mu, of the derived graph; each check's
    matrices are assembled into its group's stack.  `chain(surgery, alpha,
    beta[, mu])` takes a block of checks with equal orders: each spectrum
    slot is a 2-D array with one row per check, and surgery(key) is that
    surgery entry of each row as a (rows, 1) column.  It returns 2-D (lower,
    mid, upper) triples, and each row's verdict takes the per-position
    minimum of their margins.  A -inf lower or +inf upper entry is a link
    with no partner; the report lists it in links_skipped.  Family checks
    have `build(family, m, ...) -> (graph string, surgery, alpha graph, beta
    graph)` in place of a graph and stages.
    """

    id: str
    name: str
    kind: ArgKind
    matrices: tuple
    chain: Callable
    doc: str
    stages: tuple = ()
    params: Callable | None = None  # g -> surgery entries, once the hypothesis is met
    info: Callable | None = None  # (alpha block, tols) -> info flags of each row
    note: str = ""
    family: str | None = None
    build: Callable | None = None
    min_m: int = 0


def _block_reports(rec: Check, prepared: list, spectra: list, tol) -> list[InterlacingReport]:
    """Reports for prepared checks of rec whose spectra have equal orders,
    decided over one 2-D array per matrix slot with a row per check."""
    slots = [np.array(col) for col in zip(*spectra)]
    if tol is None:
        tols = _row_tols(np.concatenate(slots, axis=1))
    else:
        tols = np.full(len(prepared), float(tol))
    triples = rec.chain(lambda key: np.array([[p[1][key]] for p in prepared], dtype=np.float64), *slots)
    lower = reduce(np.logical_or, [t[0] == -_INF for t in triples]).tolist()
    upper = reduce(np.logical_or, [t[2] == _INF for t in triples]).tolist()
    info = rec.info(slots[0], tols) if rec.info else [{} for _ in prepared]
    names = ("alpha", "beta", "mu")
    return [
        InterlacingReport(
            theorem=rec.id, holds=holds, hypothesis_met=True, worst_slack=worst,
            witness_position=witness, tol=t, spectra=dict(zip(names, rows)), graph=graph,
            surgery=surgery,
            # links with no partner, lower links first
            links_skipped=[f"lower p={p}" for p, x in enumerate(lo, 1) if x]
            + [f"upper p={p}" for p, x in enumerate(up, 1) if x],
            note=rec.note, info=flags)
        for (graph, surgery, _), holds, worst, witness, t, rows, lo, up, flags in zip(
            prepared, *_verdicts(triples, tols), tols.tolist(), zip(*(x.tolist() for x in slots)),
            lower, upper, info)
    ]


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
    report when the hypothesis fails, else (graph string, surgery, slots),
    with a matrices.assemble slot (builder, order, flat edges) per matrix."""
    if rec.build is not None:
        m = _order(args[0], "m")
        if m < rec.min_m:
            what = "cycle" if rec.family == "cycle" else "tree"
            raise BadOrder(f"{what} comparison needs m >= {rec.min_m}, got {args[0]!r}")
        if rec.kind is _SEEDED:
            args = (m, _int_field(args[1], "seed"))
        graph, surgery, g, sub = rec.build(rec.family, *args)
    else:
        g, *arg = args
        if not isinstance(g, SignedGraph):
            raise _not_graph(rec.id, g)
        surgery = rec.kind.surgery(g, *arg)
        graph = to_edge_string(g)
        _, failed = _narrow(rec, g, [arg])
        if failed is not None:
            note = failed.note.format(*arg, deg=[len(g._nbrs[x]) for x in arg])
            return _skipped_report(rec.id, graph, surgery, note, tol)
        if rec.params is not None:
            surgery.update(rec.params(g))
        sub, entries = rec.kind.cut(g, *arg)
        surgery.update(entries)
    # a slot holds its graph's edges as one array, not the graph: the graphs
    # of a group waiting for its stack would keep tens of tuples each alive
    # and set the garbage collector off several times as often
    return graph, surgery, tuple((build, h.n, _flat(h)) for build, h in zip(rec.matrices, (g, sub, sub)))


def _solve(rec: Check, prepared: list, tol) -> list[InterlacingReport]:
    """Reports for prepared checks of rec, all their matrices assembled into
    one stack and solved in one call, and the checks with equal matrix orders
    decided as one block."""
    pending = [i for i, p in enumerate(prepared) if not isinstance(p, InterlacingReport)]
    if not pending:
        return prepared
    slots = [slot for i in pending for slot in prepared[i][2]]
    spectra = iter(eigenvalues_stack(assemble(slots), [n for _, n, _ in slots]))
    blocks: dict[tuple, list] = {}
    for i in pending:
        rows = [next(spectra) for _ in prepared[i][2]]
        blocks.setdefault(tuple(map(len, rows)), []).append((i, rows))
    reports = list(prepared)
    for block in blocks.values():
        index, block_spectra = zip(*block)
        for i, r in zip(index, _block_reports(rec, [prepared[i] for i in index], block_spectra, tol)):
            reports[i] = r
    return reports


def _run(rec: Check, inputs, tol) -> list[InterlacingReport]:
    """Reports for inputs of rec, in order: each input is a checker's argument
    tuple or a ready skipped report.  Inputs are prepared in order, and the
    matrices of each run of them that reaches _STACK_ENTRIES entries are
    solved in one call, so that only one stack's matrices are held."""
    reports, group, size = [], [], 0
    for x in inputs:
        p = x if isinstance(x, InterlacingReport) else _prepare(rec, tol, *x)
        group.append(p)
        if not isinstance(p, InterlacingReport):
            size += sum(n * n for _, n, _ in p[2])
            if size >= _STACK_ENTRIES:
                reports += _solve(rec, group, tol)
                group, size = [], 0
    return reports + _solve(rec, group, tol)


def _checker(rec: Check) -> Callable:
    """rec's public checker: the kind's arguments by position, then an
    optional tol given once, by position or keyword; ArgMismatch for any other
    count or keyword."""
    arity = len(rec.kind.params)
    usage = f"{rec.id} takes ({', '.join(rec.kind.params)}[, tol])"

    def check(*args, tol=None, **named):
        if named:
            raise ArgMismatch(f"{usage}, got keyword {next(iter(named))!r}")
        given = len(args) + (tol is not None)
        if not arity <= len(args) <= given <= arity + 1:
            raise ArgMismatch(f"{usage}, got {given} argument{'s' * (given != 1)}")
        if len(args) > arity:
            *args, tol = args
        _check_tol(tol)
        return _run(rec, [args], tol)[0]

    check.__name__ = check.__qualname__ = rec.name
    check.__doc__ = rec.doc
    return check


# --- argument kinds ------------------------------------------------------------

def _edge_surgery(g: SignedGraph, u: int, v: int) -> dict:
    sign = sign_char(g.sign(u, v))
    return {"edge": sorted(map(g._check_vertex, (u, v))), "sign": sign}


def _contract(g: SignedGraph, a: int, b: int):
    sub, _, merged = contract(g, a, b)
    return sub, {"merged_vertex": merged, "contracted_graph": to_edge_string(sub)}


def _any_pair(g: SignedGraph, rng: random.Random):
    a = _rand_below(rng, g.n)
    b = _rand_below(rng, g.n - 1)
    return (a, b if b < a else b + 1)


_GRAPH = ArgKind("graph", ("g",), surgery=lambda g: {}, cut=lambda g: (g, {}), pool=lambda g: [()])
_VERTEX = ArgKind("vertex", ("g", "v"), lambda g, v: {"vertex": g._check_vertex(v)},
                  lambda g, v: (delete_vertex(g, v)[0], {}),
                  pool=lambda g: [(v,) for v in range(g.n)])
_EDGE = ArgKind("edge", ("g", "u", "v"), _edge_surgery, lambda g, u, v: (delete_edge(g, u, v)[0], {}),
                pool=lambda g: [(u, v) for u, v, _ in g.edges], empty="graph has no usable edge")
_PAIR = ArgKind("pair", ("g", "a", "b"), lambda g, a, b: {"pair": sorted(g._check_pair(a, b))},
                _contract, pool=lambda g: [(a, b) for a in range(g.n) for b in range(a + 1, g.n)],
                empty="no contractible pair", fallback=_any_pair)
_CYCLE = ArgKind("cycle", ("m", "sig1", "sign_last"))
_SEEDED = ArgKind("seeded", ("m", "seed"))


# --- hypothesis stages -----------------------------------------------------------
#
# A stage reads the graph's neighbour maps g._nbrs without validating its
# argument: a campaign candidate comes from the graph, and a lone check's
# argument has passed its kind's surgery step before the stages run.

def _complete_coregular(g: SignedGraph) -> bool:
    # a complete graph has every pair as an edge, which one count tells
    # without a degree profile; then one degree and one net degree
    # everywhere, hence one negative degree
    if 2 * len(g.edges) != g.n * (g.n - 1):
        return False
    co = co_regularity(g)
    return co is not None and co.complete


_TWO = Stage(lambda g: g.n >= 2, "graph has fewer than 2 vertices", whole=True)
_NO_ISOLATED = Stage(lambda g: all(g._nbrs), "graph has an isolated vertex", whole=True)
_NEGATIVE = Stage(lambda g, u, v: g._nbrs[u][v] == MINUS, "edge ({0}, {1}) is positive")
_POSITIVE = Stage(lambda g, u, v: g._nbrs[u][v] == PLUS, "edge ({0}, {1}) is negative")
# With no isolated vertex, deleting uv isolates one exactly when u or v has degree 1.
_KEEPS_DEGREE = Stage(lambda g, u, v: len(g._nbrs[u]) >= 2 and len(g._nbrs[v]) >= 2,
                      "deletion isolates a vertex")


# --- chains, parameters and family builders ------------------------------------------

def _pad(a, lo=(), hi=()):
    """The rows of a with constant columns lo before and hi after them."""
    k = len(lo)
    out = np.empty((len(a), k + a.shape[1] + len(hi)))
    out[:, :k] = lo
    out[:, k:k + a.shape[1]] = a
    out[:, k + a.shape[1]:] = hi
    return out


def _interlace(s, a, b):
    return [(a[:, :-1], b, a[:, 1:])]


def _cycle_chain(s, a, b):
    return [(a[:, :-1] - 1.0, b, a[:, 1:] + 2.0)]


def _coregular_chain(s, a, b, mu):
    """beta_p + 2s <= alpha_p <= mu_p + (1-2s) <= alpha_{p+1} <= beta_{p+1} + 2s."""
    k = 2.0 * s("uniform_neg_degree")
    mid = mu + (1.0 - k)
    return [(b + k, a[:, :-1], mid), (mid, a[:, 1:], _pad(b[:, 1:] + k, hi=(_INF,)))]


def _bound_flags(a, tols) -> list[dict]:
    if not a.shape[1]:
        return [{} for _ in a]
    ends = np.abs(a[:, [-1, 0]] - [2.0, -2.0]) <= tols[:, None]
    return [{"attains_upper_bound": hi, "attains_lower_bound": lo} for hi, lo in ends.tolist()]


def _cycles(family: str, m: int, sig1, sign_last):
    """The (m+1)-cycle signed sig1 and the m-cycle sharing its first m-1
    edges and closed by sign_last, a +-1 value or a sign token."""
    big = generate(family, m + 1, sig1)
    if isinstance(sign_last, str):
        sign_last = parse_sign(sign_last)
    return big, generate(family, m, [big.sign(i, i + 1) for i in range(m - 1)] + [sign_last])


def _cycle_pair(family: str, m: int, sig1, sign_last):
    big, small = _cycles(family, m, sig1, sign_last)
    # the closing edge of the m-cycle is (0, m-1)
    surgery = {"small_graph": to_edge_string(small), "closing_sign": sign_char(small.sign(0, m - 1))}
    return to_edge_string(big), surgery, big, small


def _seeded_pair(family: str, m: int, seed: int) -> tuple[SignedGraph, SignedGraph]:
    """The family's graphs of orders m+1 and m, their signatures drawn from
    one random.Random(seed) in canonical edge order, the larger graph's first."""
    rng = random.Random(seed)
    return tuple(generate(family, k, _random_signs(rng, len(family_edge_pairs(family, k))))
                 for k in (m + 1, m))


def _random_cycle_pair(family: str, m: int, seed: int):
    big, small = _seeded_pair(family, m, seed)
    canon1 = [PLUS] * m + [PLUS if is_balanced(big) else MINUS]
    closing2 = PLUS if is_balanced(small) else MINUS
    surgery = {"small_graph": to_edge_string(small), "seed": seed,
               "canonical_closing_large": sign_char(canon1[-1]),
               "canonical_closing_small": sign_char(closing2)}
    return (to_edge_string(big), surgery) + _cycles(family, m, canon1, closing2)


def _tree_pair(family: str, m: int, seed: int):
    big, small = _seeded_pair(family, m, seed)
    surgery = {"small_graph": to_edge_string(small), "seed": seed, "kind": family}
    # a tree is balanced: its balancing switch makes every edge positive
    return to_edge_string(big), surgery, all_positive(big), all_positive(small)


_LAP = (laplacian, laplacian)
_NET = (net_laplacian, net_laplacian)
_NORM = (normalized_net_laplacian, normalized_net_laplacian)

_TABLE = (
    # Laplacian
    Check("T2.1", "check_vertex_deletion_laplacian", _VERTEX, _LAP,
          lambda s, a, b: [(a[:, :-1], b + 1.0, a[:, 1:] + 1.0)], stages=(_TWO,),
          doc="""T2.1: deleting any vertex, alpha_p <= beta_p + 1 <= alpha_{p+1} + 1."""),
    Check("C2.2", "check_dominating_vertex_deletion", _VERTEX, _LAP,
          lambda s, a, b: [(a[:, :-1], b + 1.0, a[:, 1:])],
          stages=(_TWO, Stage(lambda g, v: len(g._nbrs[v]) == g.n - 1,
                              "vertex {0} is not adjacent to all remaining vertices")),
          doc="""C2.2: deleting a vertex adjacent to all others tightens the upper link."""),
    Check("L2.3", "check_edge_deletion_laplacian", _EDGE, _LAP, lambda s, a, b: [(b, a, b + 2.0)],
          doc="""L2.3: deleting any edge, beta_p <= alpha_p <= beta_p + 2."""),
    Check("T2.4", "check_cycle_shrink", _CYCLE, _LAP, _cycle_chain,
          family="cycle", build=_cycle_pair, min_m=3,
          doc="""T2.4: a signed (m+1)-cycle against the m-cycle sharing its path edges.

    sig1 lists the large cycle's signs in canonical edge order (closing edge
    last), as generate takes them: +-1 values or a "+-" string; the small
    cycle copies the first m-1 of them and closes with sign_last, +-1 or a
    sign token such as "+" or "-".
    Chain: alpha_p - 1 <= beta_p <= alpha_{p+1} + 2.
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
          stages=(Stage(lambda g, v: len(g._nbrs[v]) == 1, "vertex {0} has degree {deg[0]}, not 1"),),
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
    Check("L3.1", "check_laplacian_net_gap", _GRAPH, (laplacian, net_laplacian),
          lambda s, a, b: [(b + 2.0 * s("delta_minus"), a, b + 2.0 * s("Delta_minus"))],
          params=lambda g: dict(zip(("delta_minus", "Delta_minus"), min_max_neg_degree(g))),
          doc="""L3.1: beta_p + 2*min(d-) <= alpha_p <= beta_p + 2*max(d-), same graph."""),
    Check("T3.2", "check_negative_edge_deletion_net", _EDGE, _NET,
          lambda s, a, b: [(a, b, _pad(a[:, 1:], hi=(a.shape[1],)))], stages=(_NEGATIVE,),
          doc="""T3.2: deleting a negative edge, alpha_p <= beta_p <= alpha_{p+1} with
    the top position capped by the vertex count."""),
    Check("T3.3", "check_positive_edge_deletion_net", _EDGE, _NET,
          lambda s, a, b: [(_pad(a[:, :-1], lo=(-a.shape[1],)), b, a)], stages=(_POSITIVE,),
          doc="""T3.3: deleting a positive edge, alpha_{p-1} <= beta_p <= alpha_p with
    the bottom position floored at minus the vertex count.
    The negation image of T3.2: T3.3 on (g, e) is T3.2 on (-g, e)."""),
    Check("T3.4", "check_vertex_deletion_net", _VERTEX, _NET,
          lambda s, a, b: [(a[:, :-1] - 1.0, b, a[:, 1:] + 1.0)],
          stages=(_TWO, Stage(lambda g: is_connected(g), "graph is not connected", whole=True)),
          doc="""T3.4: deleting a vertex of a connected graph,
    alpha_p - 1 <= beta_p <= alpha_{p+1} + 1."""),
    Check("C3.5", "check_negfree_vertex_deletion", _VERTEX, _NET,
          lambda s, a, b: [(a[:, :-1] - 1.0, b, a[:, 1:])],
          stages=(_TWO, Stage(lambda g, v: MINUS not in g._nbrs[v].values(),
                              "vertex {0} has a negative edge")),
          doc="""C3.5: deleting a vertex with no negative edges,
    alpha_p - 1 <= beta_p <= alpha_{p+1}."""),
    Check("C3.6", "check_posfree_vertex_deletion", _VERTEX, _NET,
          lambda s, a, b: [(a[:, :-1], b, a[:, 1:] + 1.0)],
          stages=(_TWO, Stage(lambda g, v: PLUS not in g._nbrs[v].values(),
                              "vertex {0} has a positive edge")),
          doc="""C3.6: deleting a vertex with no positive edges,
    alpha_p <= beta_p <= alpha_{p+1} + 1.
    The negation image of C3.5: C3.6 on (g, v) is C3.5 on (-g, v)."""),
    Check("C3.7", "check_complete_coregular_deletion", _VERTEX, _NET + (laplacian,),
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
    Check("B4", "check_normalized_spectrum_bounds", _GRAPH, (normalized_net_laplacian,),
          lambda s, a: [(np.full(a.shape, -2.0), a, np.full(a.shape, 2.0))], info=_bound_flags,
          doc="""B4: every normalized net-Laplacian eigenvalue lies in [-2, 2].

    The info flags mark whether either bound is attained (within tol);
    attainment characterizes all-positive / all-negative bipartite components.
    """),
    Check("T4.1", "check_negative_edge_deletion_normalized", _EDGE, _NORM,
          lambda s, a, b: [(a, b, _pad(a[:, 2:], hi=(_INF, _INF)))],
          stages=(_NEGATIVE, _NO_ISOLATED, _KEEPS_DEGREE),
          doc="""T4.1: deleting a negative edge (no isolated vertices before or after),
    alpha_p <= beta_p <= alpha_{p+2}; positions without an upper partner are
    skipped and recorded."""),
    Check("T4.2", "check_positive_edge_deletion_normalized", _EDGE, _NORM,
          lambda s, a, b: [(_pad(a[:, :-1], lo=(-_INF,)), b, _pad(a[:, 1:], hi=(_INF,)))],
          stages=(_POSITIVE, _NO_ISOLATED, _KEEPS_DEGREE),
          doc="""T4.2: deleting a positive edge (no isolated vertices before or after),
    alpha_{p-1} <= beta_p <= alpha_{p+1}; boundary links without a partner
    are skipped and recorded."""),
    Check("T4.3", "check_contraction_normalized", _PAIR, _NORM,
          lambda s, a, b: [(_pad(a[:, :-2], lo=(-2.0,)), b, a[:, 1:])],
          stages=(Stage(lambda g, a, b: g._nbrs[a].keys().isdisjoint(g._nbrs[b]),
                        "vertices {0} and {1} share a neighbor"),
                  _NO_ISOLATED,
                  # with no isolated vertex, only the merged vertex can end up
                  # isolated: when a and b have no neighbour but each other
                  Stage(lambda g, a, b: len(g._nbrs[a]) + len(g._nbrs[b]) > 2 * (b in g._nbrs[a]),
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

_TREES = {rec.family: rec.id for rec in _TABLE if rec.build is _tree_pair}
globals().update((rec.name, CHECKERS[rec.id]) for rec in _TABLE if rec.build is not _tree_pair)


def check_tree_shrink(kind: str, m: int, seed: int, tol=None) -> InterlacingReport:
    """C2.8 (paths) / C2.9 (stars): random signatures on orders m+1 and m.

    Trees are balanced, so both graphs are switched to all-positive before
    comparing; the chain is the pendant-deletion one.
    """
    if not isinstance(kind, str) or kind not in _TREES:
        raise BadOrder(f"kind must be 'path' or 'star', got {kind!r}")
    return CHECKERS[_TREES[kind]](m, seed, tol)


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
        """Raise ConfigInvalid on any invalid field; store theorems as a tuple,
        integer fields as plain ints, and p, q and tol as floats unless each is
        a plain int, float or None."""
        for name in ("samples", "n_min", "n_max", "seed"):
            setattr(self, name, _int_field(getattr(self, name), name))
        for name in ("p", "q"):
            _real_field(getattr(self, name), name)
        if self.samples < 1:
            raise ConfigInvalid(f"samples must be >= 1, got {self.samples}")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ConfigInvalid("probabilities must lie in [0, 1]")
        if not (2 <= self.n_min <= self.n_max):
            raise ConfigInvalid(f"need 2 <= n_min <= n_max, got {self.n_min}..{self.n_max}")
        if not isinstance(self.theorems, (list, tuple)):
            raise ConfigInvalid(f"theorems must be a list or tuple of check ids, got {self.theorems!r}")
        self.theorems = tuple(self.theorems)
        unknown = [t for t in self.theorems if t not in CHECK_IDS]
        if unknown:
            raise ConfigInvalid(f"unknown check ids: {unknown}")
        repeated = sorted({t for t in self.theorems if self.theorems.count(t) > 1})
        if repeated:
            raise ConfigInvalid(f"repeated check ids: {repeated}")
        if not self.theorems:
            raise ConfigInvalid("at least one check id required")
        _check_tol(self.tol)
        for name in ("p", "q", "tol"):
            if type(getattr(self, name)) not in (int, float, type(None)):
                setattr(self, name, float(getattr(self, name)))


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
    """One campaign sample: its checker arguments, or a skipped report when
    its graph offers no candidate argument.  A graph's argument comes from the
    last pool the stages leave non-empty, so _prepare's stages find it failing
    the one that emptied the pool, if any; or from the kind's fallback when
    one did.
    """
    rng = random.Random(child)
    if rec.build is not None:
        m = _rand_range(rng, max(rec.min_m, cfg.n_min), max(rec.min_m, cfg.n_max))
        if rec.kind is _SEEDED:
            return m, _mix(child, 1)
        *sig1, sign_last = _random_signs(rng, m + 2, cfg.q)
        return m, sig1, sign_last

    n = _rand_range(rng, cfg.n_min, cfg.n_max)
    g = random_signed_graph(n, cfg.p, cfg.q, _mix(child, 2))
    pool, failed = _narrow(rec, g, rec.kind.pool(g))
    if not pool:
        return _skipped_report(rec.id, to_edge_string(g), {}, rec.kind.empty, cfg.tol)
    if failed is not None and rec.kind.fallback is not None:
        return g, *rec.kind.fallback(g, rng)
    return g, *_choice(rng, pool)


def _summary(theorem: str, reports: list) -> dict:
    """The campaign summary entry of one id's reports."""
    met = [r for r in reports if r.hypothesis_met]
    worst = min(met, key=lambda r: r.worst_slack) if met else None
    return {
        "theorem": theorem,
        "samples": len(reports),
        "hypothesis_met": len(met),
        "holds": sum(1 for r in met if r.holds),
        "fails": sum(1 for r in met if not r.holds),
        "skipped": len(reports) - len(met),
        "worst_slack": worst.worst_slack if worst else None,
        "witness": None if worst is None else {
            "graph": worst.graph,
            "surgery": worst.surgery,
            "worst_slack": worst.worst_slack,
            "witness_position": worst.witness_position,
        },
    }


def run_campaign(cfg: CampaignConfig) -> CampaignResult:
    """Run every configured check over seeded samples; fully deterministic.

    Child seeds are derived from (seed, master check index, sample index), so
    each check's stream is independent of which other checks run.  Each
    check's draws go through _run, the loop a checker call takes with one
    input; a spectrum does not depend on what it is solved with, so each
    report equals its checker's.
    """
    cfg.validate()
    reports: list[InterlacingReport] = []
    summary: list[dict] = []
    for theorem in cfg.theorems:
        ti = CHECK_IDS.index(theorem)
        rec = CHECKS[theorem]
        t_reports = _run(rec, (_draw(rec, cfg, _mix(cfg.seed, ti, i)) for i in range(cfg.samples)), cfg.tol)
        summary.append(_summary(theorem, t_reports))
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
    return _report_json(r, "\n")


def campaign_to_json(result: CampaignResult) -> str:
    """The campaign as one JSON document, {"config", "summary", "reports"}
    in json's indent=2 layout with a final newline: byte for byte what
    json.dumps writes for it.  It is written a report at a time, each report
    as one string; `sgspectra campaign --out` writes the same strings
    straight to its file (write_campaign_json) and never holds the whole
    text."""
    buf = io.StringIO()
    write_campaign_json(result, buf)
    return buf.getvalue()


_REPORT_NL = "\n    "  # the pad of a report's own line: an item of the document's "reports"


def write_campaign_json(result: CampaignResult, fh) -> None:
    """Write campaign_to_json(result) to the text file fh, one report at a time."""
    head = _json_text({"config": asdict(result.config), "summary": result.summary, "reports": []})
    if not result.reports:
        fh.write(head + "\n")
        return
    fh.write(head[:-len("]\n}")])  # ends in '"reports": ['
    sep = _REPORT_NL
    for r in result.reports:
        fh.write(sep + _report_json(r, _REPORT_NL))
        sep = "," + _REPORT_NL
    fh.write("\n  ]\n}\n")


def _report_json(r: InterlacingReport, nl: str) -> str:
    """_json_text(vars(r), nl), byte for byte and with its exceptions, for nl
    "\n" or _REPORT_NL.  When r's attributes are exactly its fields in field
    order, each scalar goes in place after its head in _REPORT_HEADS[nl] and
    each container through _put_json.  Any other report, and any whose value
    the writer does not take, goes through _json_text whole."""
    d = vars(r)  # the writer only reads it
    if tuple(d) == _REPORT_FIELDS:
        out: list[str] = []
        inner = nl + "  "
        try:
            for head, x in zip(_REPORT_HEADS[nl], d.values()):
                scalar = _SCALARS.get(type(x))
                if scalar is None:
                    out.append(head)
                    _put_json(x, out, inner)
                else:
                    out += (head, scalar(x))
        except (TypeError, RecursionError):
            pass
        else:
            out.append(nl + "}")
            return "".join(out)
    return _json_text(d, nl)


# The JSON writer.  With an indent, the stdlib's json module runs its
# pure-Python encoder: one generator frame per container and one chunk per
# separator.  This writer gives the same indent=2 text for the exact types a
# report holds: dicts with str keys, lists, tuples, str, int, float, bool and
# None.  It writes a scalar in place, and every piece to one list that is
# joined once; only a list of finite floats is joined in one step, and any
# other list, one of strings included, goes item by item.  Any other
# value or key raises TypeError, and _json_text then hands its whole value
# to json.dumps, whose text or exception is the reference.

_ENCODE_STR = json.encoder.encode_basestring_ascii  # TypeError on a non-str

# per pad of report_to_json and write_campaign_json, the head of each of a
# report's lines: "{" or ",", the line break and pad, the key and ": "
_REPORT_FIELDS = tuple(f.name for f in fields(InterlacingReport))
_REPORT_HEADS = {nl: [("," if i else "{") + nl + "  " + _ENCODE_STR(k) + ": "
                      for i, k in enumerate(_REPORT_FIELDS)] for nl in ("\n", _REPORT_NL)}


def _json_text(doc, nl: str = "\n") -> str:
    """doc as the json module writes it with indent=2, byte for byte; nl is a
    newline and the pad of doc's own line, which every line of doc's text
    after its first carries, as it does inside an enclosing document."""
    out: list[str] = []
    try:
        _put_json(doc, out, nl)
    except (TypeError, RecursionError):
        # ensure_ascii escapes every newline in a string, so each "\n" is a line break
        return json.dumps(doc, indent=2).replace("\n", nl)
    return "".join(out)


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# exact type -> the text of a scalar of that type; any other type is a container or goes to json.dumps
_SCALARS = {str: _ENCODE_STR, float: _float_json, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda x: "null"}


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
            scalar = _SCALARS.get(type(x))
            if scalar is None:
                out += (sep, _ENCODE_STR(k), ": ")
                _put_json(x, out, inner)
            else:
                out += (sep, _ENCODE_STR(k), ": ", scalar(x))
            sep = "," + inner
        out.append(nl + "}")
    elif type(o) is list or type(o) is tuple:
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        if type(o[0]) is float:
            # float.__repr__ raises TypeError on any other item; a finite
            # float's repr has no "n", inf and nan do
            body = ("," + inner).join(map(float.__repr__, o))
            if "n" not in body:
                out.append("[" + inner + body + nl + "]")
                return
        sep = "[" + inner
        for x in o:
            scalar = _SCALARS.get(type(x))
            if scalar is None:
                out.append(sep)
                _put_json(x, out, inner)
            else:
                out += (sep, scalar(x))
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


def campaign_to_csv(result: CampaignResult) -> str:
    """The campaign's reports as CSV: a header of _CSV_FIELDS, then one row
    per report, each line ending in "\\n"; floats at 17 significant digits,
    spectra space-separated, surgery as sorted-key JSON.  A field is quoted
    when it holds a comma, a double quote, a newline or a carriage return,
    each double quote inside it doubled (RFC 4180).  That is what csv.writer's
    excel dialect writes with lineterminator="\\n", except that Python 3.11's
    leaves a bare carriage return unquoted, which csv.reader cannot read
    back.  `sgspectra campaign --out --format csv` writes the same rows
    straight to its file (write_campaign_csv)."""
    buf = io.StringIO()
    write_campaign_csv(result, buf)
    return buf.getvalue()


def _csv_field(s: str) -> str:
    """s as one CSV field: quoted when it holds a comma, a double quote, a
    newline or a carriage return, each double quote in it doubled.  Python
    3.11's csv.writer with lineterminator="\\n" leaves a bare carriage return
    unquoted, and csv.reader then rejects the row or splits it in two."""
    if '"' in s:
        return '"' + s.replace('"', '""') + '"'
    if "," in s or "\n" in s or "\r" in s:
        return '"' + s + '"'
    return s


def _csv_other(v) -> str:
    """v as csv.writer writes a field of a type the row does not expect: None
    as an empty field, anything else as str(v), quoted as _csv_field quotes."""
    return "" if v is None else _csv_field(str(v))


def write_campaign_csv(result: CampaignResult, fh) -> None:
    """Write campaign_to_csv(result) to the text file fh, one row at a time.
    Each row is one join: csv.writer copies every character of every field
    on its own, which costs most on the long edge strings and spectra.  A
    field of its expected exact type is written directly: a bool by identity,
    an int by str, and only a str through _csv_field; any other value goes
    through _csv_other.  The five number fields are "%.17g" text,
    format_spectrum's, which holds only digits, signs, ".", "e", "inf", "nan"
    and spaces, so they skip _csv_field; a value that is not a number raises
    TypeError."""
    fh.write(",".join(_CSV_FIELDS) + "\n")
    f, other = _csv_field, _csv_other
    for r in result.reports:
        theorem, met, holds, at, graph, note = (
            r.theorem, r.hypothesis_met, r.holds, r.witness_position, r.graph, r.note)
        spectra = r.spectra
        fh.write(",".join((
            f(theorem) if type(theorem) is str else other(theorem),
            "True" if met is True else "False" if met is False else other(met),
            "True" if holds is True else "False" if holds is False else other(holds),
            "%.17g" % (r.worst_slack,),
            str(at) if type(at) is int else other(at),
            "%.17g" % (r.tol,),
            f(graph) if type(graph) is str else other(graph),
            f(_SORTED_JSON(r.surgery)),
            format_spectrum(spectra.get("alpha", ())), format_spectrum(spectra.get("beta", ())),
            format_spectrum(spectra.get("mu", ())), f(";".join(r.links_skipped)),
            f(note) if type(note) is str else other(note))) + "\n")


def summary_lines(result: CampaignResult) -> list[str]:
    lines = []
    for s in result.summary:
        worst = "n/a" if s["worst_slack"] is None else format_spectrum((s["worst_slack"],))
        lines.append(
            f"{s['theorem']}: samples={s['samples']} met={s['hypothesis_met']} "
            f"holds={s['holds']} fails={s['fails']} skipped={s['skipped']} "
            f"worst_slack={worst}"
        )
    return lines
