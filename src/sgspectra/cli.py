"""Command-line front end.

Subcommands: spectrum, check, campaign, surgery, info.  Exit codes:
0 ok/holds, 2 usage or parse or config error, 3 hypothesis not met,
4 inequality violated, 5 surgery precondition failed.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import fileio
from .errors import (
    ArgMismatch,
    DuplicateEdge,
    LengthMismatch,
    NoSuchEdge,
    NotAllowable,
    SameVertex,
    SelfLoop,
    SgError,
    VertexOutOfRange,
)
from .eigen import eigenvalues
from .graphs import (
    _SIGN_TOKENS,
    apply_switching,
    co_regularity,
    degree_profile,
    family_edge_pairs,
    is_balanced,
    is_connected,
    parse_sign,
)
from .matrices import adjacency, laplacian, net_laplacian, normalized_net_laplacian
from .surgery import add_edge, contract, delete_edge, delete_vertex
from .verify import (
    CHECK_IDS,
    CHECKERS,
    CHECKS,
    CampaignConfig,
    report_to_json,
    run_campaign,
    summary_lines,
    write_campaign_csv,
    write_campaign_json,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_VIOLATION = 4
EXIT_SURGERY = 5

_MATRIX_BUILDERS = {
    "laplacian": laplacian,
    "net": net_laplacian,
    "normalized": normalized_net_laplacian,
    "adjacency": adjacency,
}

_SURGERY_ERRORS = (
    NoSuchEdge, DuplicateEdge, SelfLoop, VertexOutOfRange,
    SameVertex, LengthMismatch, NotAllowable,
)


# each graph-argument kind is read from the flag of its name; how a usage error names it
_GRAPH_ARGS = {"vertex": "--vertex", "edge": "--edge U,V", "pair": "--pair A,B"}

# the surgeries that take one graph argument and return the new graph first
_SURGERIES = {"delete-vertex": ("vertex", delete_vertex), "delete-edge": ("edge", delete_edge),
              "contract": ("pair", contract)}


def _graph_args(args, kind: str, who: str) -> tuple[int, ...]:
    """The ints of flag --<kind> for a graph-argument kind; ArgMismatch if the
    flag is absent (naming who needs it) or is not two comma-separated ints."""
    text = getattr(args, kind)
    if text is None:
        raise ArgMismatch(f"{who} needs {_GRAPH_ARGS[kind]}")
    if kind == "vertex":  # argparse made it an int
        return (text,)
    parts = text.split(",")
    if len(parts) != 2:
        raise ArgMismatch(f"--{kind} expects 'A,B', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ArgMismatch(f"--{kind} expects integers, got {text!r}") from None


def _require_family(g, family: str, theorem: str) -> list[tuple[int, int]]:
    """family_edge_pairs(family, g.n); ArgMismatch unless they are g's edges."""
    pairs = family_edge_pairs(family, g.n)
    if {(u, v) for u, v, _ in g.edges} != set(pairs):
        raise ArgMismatch(f"{theorem} needs the input graph to be a canonical {family} "
                          f"on 0..{g.n - 1}")
    return pairs


def cmd_spectrum(args) -> int:
    g = fileio.read_sg(args.file)
    m = _MATRIX_BUILDERS[args.matrix](g)
    if args.dump_matrix:
        sys.stdout.write(fileio.format_matrix(m))
    spec = eigenvalues(m)
    print(fileio.format_spectrum(spec))
    return EXIT_OK


def cmd_check(args) -> int:
    theorem = args.theorem
    if theorem not in CHECK_IDS:
        raise ArgMismatch(f"unknown check id {theorem!r}; choose from {', '.join(CHECK_IDS)}")
    g = fileio.read_sg(args.file)
    rec = CHECKS[theorem]
    kind = rec.kind.name
    if kind in _GRAPH_ARGS:
        arg = (g, *_graph_args(args, kind, theorem))
    elif kind == "cycle":
        if args.sign_last is None:
            raise ArgMismatch(f"{theorem} needs --sign-last")
        sig1 = [g.sign(u, v) for u, v in _require_family(g, rec.family, theorem)]
        arg = (g.n - 1, sig1, args.sign_last)  # the checker reads the sign token
    elif kind == "seeded":
        _require_family(g, rec.family, theorem)
        arg = (g.n - 1, args.seed)
    else:  # whole-graph checks
        arg = (g,)
    report = CHECKERS[theorem](*arg, args.tol)

    print(report_to_json(report))
    if not report.hypothesis_met:
        return EXIT_HYPOTHESIS
    return EXIT_OK if report.holds else EXIT_VIOLATION


def _campaign_config(args) -> CampaignConfig:
    """The config from the campaign flags, which bear its field names;
    --theorems is a comma-separated list, all ids when absent."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(CampaignConfig)}
    theorems = given.pop("theorems")
    if theorems is not None:
        given["theorems"] = tuple(t.strip() for t in theorems.split(",") if t.strip())
    return CampaignConfig(**given)


def cmd_campaign(args) -> int:
    cfg = _campaign_config(args)
    cfg.validate()  # before --out is opened, so that a bad config leaves the file as it was
    if args.out:  # opened before the run, so that a bad path fails at once
        with open(args.out, "w", encoding="utf-8") as fh:
            result = run_campaign(cfg)
            # written a report at a time: the whole text is never held
            (write_campaign_csv if args.format == "csv" else write_campaign_json)(result, fh)
    else:
        result = run_campaign(cfg)
    for line in summary_lines(result):
        print(line)
    total_fails = result.violations
    print(f"total: checks={len(result.reports)} violations={total_fails}")
    return EXIT_VIOLATION if total_fails else EXIT_OK


def cmd_surgery(args) -> int:
    g = fileio.read_sg(args.file)
    op = args.op
    if op in _SURGERIES:
        kind, surgery = _SURGERIES[op]
        out = surgery(g, *_graph_args(args, kind, op))[0]
    elif op == "add-edge":
        if args.edge is None or args.sign is None:
            raise ArgMismatch("add-edge needs --edge U,V and --sign")
        out = add_edge(g, *_graph_args(args, "edge", op), parse_sign(args.sign))
    else:  # switch
        if args.alpha is None:
            raise ArgMismatch("switch needs --alpha (string of + and - characters)")
        out = apply_switching(g, [parse_sign(c) for c in args.alpha])
    if args.out:
        fileio.write_sg(args.out, out)
    else:
        sys.stdout.write(fileio.to_sg_text(out))
    return EXIT_OK


def cmd_info(args) -> int:
    g = fileio.read_sg(args.file)
    prof = degree_profile(g)
    co = co_regularity(g)
    pos_edges = sum(1 for e in g.edges if e[2] == 1)
    block = {
        "n": g.n,
        "edges": len(g.edges),
        "positive_edges": pos_edges,
        "negative_edges": len(g.edges) - pos_edges,
        "degrees": list(prof.degree),
        "net_degrees": list(prof.net_degree),
        "min_neg_degree": min(prof.neg_degree, default=None),
        "max_neg_degree": max(prof.neg_degree, default=None),
        "balanced": is_balanced(g),
        "connected": is_connected(g),
        "co_regular": None if co is None else {"r": co.r, "s": co.s, "complete": co.complete},
    }
    print(f"vertices: {block['n']}, edges: {block['edges']} "
          f"({block['positive_edges']} positive, {block['negative_edges']} negative)")
    print(f"balanced: {block['balanced']}, connected: {block['connected']}")
    if co is None:
        print("co-regular: no")
    else:
        print(f"co-regular: yes (r={co.r}, s={co.s}, complete={co.complete})")
    if g.n:
        print(f"negative degree range: {block['min_neg_degree']}..{block['max_neg_degree']}")
    print(json.dumps(block))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call; parsing leaves it unchanged, so later calls share it."""
    parser = argparse.ArgumentParser(
        prog="sgspectra",
        description="Signed-graph spectra: matrices, eigenvalues and interlacing checks.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    shared = argparse.ArgumentParser(add_help=False)  # the graph-argument flags of check and surgery
    shared.add_argument("--vertex", type=int)
    shared.add_argument("--edge", help="edge as U,V")
    shared.add_argument("--pair", help="vertex pair as A,B")

    p_spec = sub.add_parser("spectrum", help="print the ordered spectrum of a matrix of the graph")
    p_spec.add_argument("file")
    p_spec.add_argument("--matrix", choices=sorted(_MATRIX_BUILDERS), default="laplacian")
    p_spec.add_argument("--dump-matrix", action="store_true")
    p_spec.set_defaults(func=cmd_spectrum)

    p_check = sub.add_parser("check", help="run one interlacing check on a graph file", parents=[shared])
    p_check.add_argument("file")
    p_check.add_argument("--theorem", required=True)
    p_check.add_argument("--sign-last", choices=_SIGN_TOKENS)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--tol", type=float)
    p_check.set_defaults(func=cmd_check)

    p_camp = sub.add_parser("campaign", help="seeded random verification campaign")
    p_camp.add_argument("--theorems", help="comma-separated check ids (default: all)")
    for f in dataclasses.fields(CampaignConfig)[1:]:  # after theorems; only tol defaults to None
        p_camp.add_argument(f"--{f.name.replace('_', '-')}", default=f.default,
                            type=float if f.default is None else type(f.default))
    p_camp.add_argument("--out")
    p_camp.add_argument("--format", choices=["json", "csv"], default="json",
                        help="format of the --out file")
    p_camp.set_defaults(func=cmd_campaign)

    p_surg = sub.add_parser("surgery", help="apply a graph surgery and write the result", parents=[shared])
    p_surg.add_argument("file")
    p_surg.add_argument("op", choices=["delete-vertex", "delete-edge", "add-edge", "contract", "switch"])
    p_surg.add_argument("--sign", choices=_SIGN_TOKENS)
    p_surg.add_argument("--alpha", help="per-vertex switching signs, e.g. '+-+-'")
    p_surg.add_argument("--out")
    p_surg.set_defaults(func=cmd_surgery)

    p_info = sub.add_parser("info", help="degrees, balance, co-regularity, connectivity")
    p_info.add_argument("file")
    p_info.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.cmd == "surgery" and isinstance(exc, _SURGERY_ERRORS):
            return EXIT_SURGERY
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
