"""Command-line front end.

Subcommands: spectrum, check, campaign, surgery, info.  Exit codes:
0 ok/holds, 2 usage or parse or config error, 3 hypothesis not met,
4 inequality violated, 5 surgery precondition failed.
"""
from __future__ import annotations

import argparse
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
    campaign_to_csv,
    campaign_to_json,
    report_to_dict,
    run_campaign,
    summary_lines,
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


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ArgMismatch(f"{flag} expects 'A,B', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ArgMismatch(f"{flag} expects integers, got {text!r}") from None


def _require_family(g, family: str, theorem: str):
    pairs = {(u, v) for u, v in family_edge_pairs(family, g.n)}
    if {(u, v) for u, v, _ in g.edges} != pairs:
        raise ArgMismatch(
            f"{theorem} needs the input graph to be a canonical {family} on 0..{g.n - 1}"
        )


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
    if kind == "vertex":
        if args.vertex is None:
            raise ArgMismatch(f"{theorem} needs --vertex")
        arg = (g, args.vertex)
    elif kind == "edge":
        if args.edge is None:
            raise ArgMismatch(f"{theorem} needs --edge U,V")
        arg = (g, *_parse_pair(args.edge, "--edge"))
    elif kind == "pair":
        if args.pair is None:
            raise ArgMismatch(f"{theorem} needs --pair A,B")
        arg = (g, *_parse_pair(args.pair, "--pair"))
    elif kind == "cycle":
        if args.sign_last is None:
            raise ArgMismatch(f"{theorem} needs --sign-last")
        _require_family(g, rec.family, theorem)
        sig1 = [g.sign(u, v) for u, v in family_edge_pairs(rec.family, g.n)]
        arg = (g.n - 1, sig1, parse_sign(args.sign_last))
    elif kind == "seeded":
        _require_family(g, rec.family, theorem)
        arg = (g.n - 1, args.seed)
    else:  # whole-graph checks
        arg = (g,)
    report = CHECKERS[theorem](*arg, args.tol)

    print(json.dumps(report_to_dict(report), indent=2))
    if not report.hypothesis_met:
        return EXIT_HYPOTHESIS
    return EXIT_OK if report.holds else EXIT_VIOLATION


def _campaign_config(args) -> CampaignConfig:
    theorems = tuple(CHECK_IDS) if args.theorems is None else tuple(
        t.strip() for t in args.theorems.split(",") if t.strip()
    )
    return CampaignConfig(
        theorems=theorems,
        n_min=args.n_min,
        n_max=args.n_max,
        p=args.p,
        q=args.q,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
    )


def cmd_campaign(args) -> int:
    result = run_campaign(_campaign_config(args))
    body = campaign_to_csv(result) if args.format == "csv" else campaign_to_json(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    for line in summary_lines(result):
        print(line)
    total_fails = result.violations
    print(f"total: checks={len(result.reports)} violations={total_fails}")
    return EXIT_VIOLATION if total_fails else EXIT_OK


def cmd_surgery(args) -> int:
    g = fileio.read_sg(args.file)
    op = args.op
    if op == "delete-vertex":
        if args.vertex is None:
            raise ArgMismatch("delete-vertex needs --vertex")
        out, _ = delete_vertex(g, args.vertex)
    elif op == "delete-edge":
        if args.edge is None:
            raise ArgMismatch("delete-edge needs --edge U,V")
        u, v = _parse_pair(args.edge, "--edge")
        out, _ = delete_edge(g, u, v)
    elif op == "add-edge":
        if args.edge is None or args.sign is None:
            raise ArgMismatch("add-edge needs --edge U,V and --sign")
        u, v = _parse_pair(args.edge, "--edge")
        out = add_edge(g, u, v, parse_sign(args.sign))
    elif op == "contract":
        if args.pair is None:
            raise ArgMismatch("contract needs --pair A,B")
        a, b = _parse_pair(args.pair, "--pair")
        out, _, _ = contract(g, a, b)
    else:  # switch
        if args.alpha is None:
            raise ArgMismatch("switch needs --alpha (string of + and - characters)")
        alpha = [parse_sign(c) for c in args.alpha]
        out = apply_switching(g, alpha)
    text = fileio.to_sg_text(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgspectra",
        description="Signed-graph spectra: matrices, eigenvalues and interlacing checks.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_spec = sub.add_parser("spectrum", help="print the ordered spectrum of a matrix of the graph")
    p_spec.add_argument("file")
    p_spec.add_argument("--matrix", choices=sorted(_MATRIX_BUILDERS), default="laplacian")
    p_spec.add_argument("--dump-matrix", action="store_true")
    p_spec.set_defaults(func=cmd_spectrum)

    p_check = sub.add_parser("check", help="run one interlacing check on a graph file")
    p_check.add_argument("file")
    p_check.add_argument("--theorem", required=True)
    p_check.add_argument("--vertex", type=int)
    p_check.add_argument("--edge", help="edge as U,V")
    p_check.add_argument("--pair", help="vertex pair as A,B")
    p_check.add_argument("--sign-last", choices=["+", "-"], dest="sign_last")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--tol", type=float)
    p_check.set_defaults(func=cmd_check)

    p_camp = sub.add_parser("campaign", help="seeded random verification campaign")
    p_camp.add_argument("--theorems", help="comma-separated check ids (default: all)")
    defaults = CampaignConfig()
    p_camp.add_argument("--n-min", type=int, default=defaults.n_min)
    p_camp.add_argument("--n-max", type=int, default=defaults.n_max)
    p_camp.add_argument("--p", type=float, default=defaults.p)
    p_camp.add_argument("--q", type=float, default=defaults.q)
    p_camp.add_argument("--samples", type=int, default=defaults.samples)
    p_camp.add_argument("--seed", type=int, default=defaults.seed)
    p_camp.add_argument("--tol", type=float)
    p_camp.add_argument("--out")
    p_camp.add_argument("--format", choices=["json", "csv"], default="json")
    p_camp.set_defaults(func=cmd_campaign)

    p_surg = sub.add_parser("surgery", help="apply a graph surgery and write the result")
    p_surg.add_argument("file")
    p_surg.add_argument("op", choices=["delete-vertex", "delete-edge", "add-edge", "contract", "switch"])
    p_surg.add_argument("--vertex", type=int)
    p_surg.add_argument("--edge", help="edge as U,V")
    p_surg.add_argument("--sign", choices=["+", "-", "1", "-1"])
    p_surg.add_argument("--pair", help="vertex pair as A,B")
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
