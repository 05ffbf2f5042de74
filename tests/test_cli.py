"""End-to-end CLI behaviour: outputs and the exit-code contract."""
import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sgspectra as sg
from sgspectra.cli import _campaign_config, build_parser, main
from sgspectra.fileio import parse_sg, to_sg_text
from sgspectra.graphs import _SIGN_TOKENS
from sgspectra import cli
from sgspectra.verify import _CSV_FIELDS, ARG_KINDS, CHECK_IDS, CHECKERS, CampaignConfig, report_to_dict


@pytest.fixture(scope="module")
def default_200():
    """The seed-0 default campaign at 200 samples per id (3,800 reports)."""
    return sg.run_campaign(CampaignConfig(samples=200, seed=0))


@pytest.fixture
def k2n_file(tmp_path):
    path = tmp_path / "k2n.sg"
    path.write_text("n 2\n0 1 -\n")
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.sg"
    path.write_text(to_sg_text(sg.generate("cycle", 4)))
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.sg"
    path.write_text(to_sg_text(sg.generate("path", 3)))
    return str(path)


class TestSpectrum:
    def test_net_spectrum_of_k2_negative(self, k2n_file, capsys):
        assert main(["spectrum", k2n_file, "--matrix", "net"]) == 0
        assert capsys.readouterr().out.strip() == "-2 0"

    def test_empty_graph_zeros(self, tmp_path, capsys):
        f = tmp_path / "e.sg"
        f.write_text("n 3\n")
        assert main(["spectrum", str(f)]) == 0
        assert capsys.readouterr().out.strip() == "0 0 0"

    def test_dump_matrix(self, k2n_file, tmp_path, capsys):
        assert main(["spectrum", k2n_file, "--matrix", "adjacency", "--dump-matrix"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "2"
        assert out[1] == "0 -1"
        assert out[3] == "-1 1"  # ascending adjacency spectrum
        # every matrix kind: the matrix, then its spectrum
        g = sg.generate("path", 4, [1, -1, 1])
        f = tmp_path / "p4.sg"
        f.write_text(to_sg_text(g))
        for matrix, build in (("adjacency", sg.adjacency), ("laplacian", sg.laplacian),
                              ("net", sg.net_laplacian), ("normalized", sg.normalized_net_laplacian)):
            assert main(["spectrum", str(f), "--matrix", matrix, "--dump-matrix"]) == 0
            m = build(g)
            assert capsys.readouterr().out == sg.format_matrix(m) + sg.format_spectrum(sg.eigenvalues(m)) + "\n"

    def test_malformed_sign_token_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad.sg"
        f.write_text("n 2\n0 1 z\n")
        assert main(["spectrum", str(f)]) == 2
        assert "'z'" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["spectrum", str(tmp_path / "nope.sg")]) == 2
        assert "error:" in capsys.readouterr().err


# argv after the file -> the one stderr line (after "error: ") of each graph-argument usage error
_GRAPH_ARGUMENT_ERRORS = {
    "check --theorem T2.1": "T2.1 needs --vertex",
    "check --theorem T2.1 --edge 1": "T2.1 needs --vertex",
    "check --theorem T2.1 --pair 0,x": "T2.1 needs --vertex",
    "check --theorem L2.3": "L2.3 needs --edge U,V",
    "check --theorem L2.3 --edge 1": "--edge expects 'A,B', got '1'",
    "check --theorem L2.3 --pair 0,x": "L2.3 needs --edge U,V",
    "check --theorem T4.3": "T4.3 needs --pair A,B",
    "check --theorem T4.3 --edge 1": "T4.3 needs --pair A,B",
    "check --theorem T4.3 --pair 0,x": "--pair expects integers, got '0,x'",
    "surgery delete-vertex": "delete-vertex needs --vertex",
    "surgery delete-edge": "delete-edge needs --edge U,V",
    "surgery contract": "contract needs --pair A,B",
    "surgery add-edge": "add-edge needs --edge U,V and --sign",
}


class TestCheck:
    def test_t21_holds_exit_0(self, c4_file, capsys):
        assert main(["check", c4_file, "--theorem", "T2.1", "--vertex", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] and report["hypothesis_met"]
        assert report["theorem"] == "T2.1"

    def test_hypothesis_gate_exit_3(self, p3_file, capsys):
        assert main(["check", p3_file, "--theorem", "C2.2", "--vertex", "0"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert not report["hypothesis_met"]

    @pytest.mark.parametrize("argv, flag", [
        (["check", "--theorem", "T2.1"], "--vertex"),
        (["check", "--theorem", "L2.3"], "--edge"),
        (["check", "--theorem", "T4.3"], "--pair"),
        (["check", "--theorem", "L2.3", "--edge", "0,x"], "--edge"),
        (["surgery", "delete-vertex"], "--vertex"),
        (["surgery", "delete-edge"], "--edge"),
        (["surgery", "add-edge"], "--edge"),
        (["surgery", "add-edge", "--edge", "0,2"], "--sign"),
        (["surgery", "contract"], "--pair"),
        (["surgery", "switch"], "--alpha"),
    ], ids=["check-vertex", "check-edge", "check-pair", "check-edge-not-int",
            "delete-vertex", "delete-edge", "add-edge", "add-edge-sign", "contract", "switch"])
    def test_missing_vertex_arg_exit_2(self, c4_file, capsys, argv, flag):
        """Usage errors exit 2 and name the flag at fault."""
        assert main([argv[0], c4_file, *argv[1:]]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv", list(_GRAPH_ARGUMENT_ERRORS))
    def test_graph_argument_usage_error_text(self, c4_file, capsys, argv):
        """The one reader of --vertex, --edge and --pair words each error as before."""
        cmd, *rest = argv.split()
        assert main([cmd, c4_file, *rest]) == 2
        assert capsys.readouterr() == ("", f"error: {_GRAPH_ARGUMENT_ERRORS[argv]}\n")

    def test_unknown_theorem_exit_2(self, c4_file):
        assert main(["check", c4_file, "--theorem", "T9.9", "--vertex", "0"]) == 2

    def test_violation_exit_4(self, tmp_path, capsys):
        f = tmp_path / "k3n.sg"
        f.write_text(to_sg_text(sg.generate("cycle", 3, "all_minus")))
        code = main(["check", str(f), "--theorem", "T4.1", "--edge", "0,1"])
        assert code == 4
        report = json.loads(capsys.readouterr().out)
        assert report["hypothesis_met"] and not report["holds"]

    def test_edge_check(self, c4_file):
        assert main(["check", c4_file, "--theorem", "L2.3", "--edge", "0,1"]) == 0

    def test_malformed_edge_arg_exit_2(self, c4_file, capsys):
        assert main(["check", c4_file, "--theorem", "L2.3", "--edge", "0;1"]) == 2
        assert "--edge" in capsys.readouterr().err

    def test_vertex_out_of_range_exit_2(self, c4_file):
        assert main(["check", c4_file, "--theorem", "T2.1", "--vertex", "9"]) == 2

    def test_cycle_check_needs_sign_last(self, c4_file, capsys):
        assert main(["check", c4_file, "--theorem", "T2.4"]) == 2
        assert main(["check", c4_file, "--theorem", "T2.4", "--sign-last", "-"]) == 0

    @pytest.mark.parametrize("word, number", [("-", "-1"), ("+", "1")])
    def test_sign_last_takes_every_sign_token(self, c4_file, capsys, word, number):
        seen = []
        for token in (word, number):
            code = main(["check", c4_file, "--theorem", "T2.4", "--sign-last", token])
            seen.append((code, capsys.readouterr().out))
        assert seen[0] == seen[1]
        assert seen[0][0] == 0

    def test_family_shape_enforced(self, p3_file):
        assert main(["check", p3_file, "--theorem", "T2.4", "--sign-last", "+"]) == 2
        assert main(["check", p3_file, "--theorem", "C2.8", "--seed", "4"]) == 0

    def test_contraction_check(self, tmp_path):
        f = tmp_path / "p4.sg"
        f.write_text(to_sg_text(sg.generate("path", 4)))
        assert main(["check", str(f), "--theorem", "T4.3", "--pair", "0,3"]) == 0

    def test_b4_whole_graph(self, c4_file):
        assert main(["check", c4_file, "--theorem", "B4"]) == 0


# One `sgspectra check` call per id: argument kind, input graph, flags and
# the exit code it gives (0 holds, 3 hypothesis not met, 4 violated).
CHECK_CALLS = {
    "T2.1": ("vertex", sg.generate("cycle", 4), ["--vertex", "0"], 0),
    "C2.2": ("vertex", sg.generate("complete", 4), ["--vertex", "0"], 0),
    "L2.3": ("edge", sg.generate("cycle", 4), ["--edge", "0,1"], 0),
    "T2.4": ("cycle", sg.generate("cycle", 4), ["--sign-last", "-"], 0),
    "C2.5": ("seeded", sg.generate("cycle", 5), ["--seed", "3"], 0),
    "T2.7": ("vertex", sg.generate("path", 3), ["--vertex", "1"], 3),
    "C2.8": ("seeded", sg.generate("path", 4), ["--seed", "4"], 0),
    "C2.9": ("seeded", sg.generate("star", 4), ["--seed", "1"], 0),
    "L3.1": ("graph", sg.generate("cycle", 4, [1, -1, 1, -1]), [], 0),
    "T3.2": ("edge", sg.generate("cycle", 4, "all_minus"), ["--edge", "0,1"], 0),
    "T3.3": ("edge", sg.generate("cycle", 4, "all_minus"), ["--edge", "1,2"], 3),
    "T3.4": ("vertex", sg.generate("cycle", 5, [1, -1, 1, 1, -1]), ["--vertex", "2"], 0),
    "C3.5": ("vertex", sg.generate("complete", 4), ["--vertex", "1"], 0),
    "C3.6": ("vertex", sg.generate("star", 4, "all_minus"), ["--vertex", "0"], 0),
    "C3.7": ("vertex", sg.generate("complete", 4), ["--vertex", "0"], 4),
    "B4": ("graph", sg.generate("complete", 4, "all_minus"), [], 0),
    "T4.1": ("edge", sg.generate("cycle", 3, "all_minus"), ["--edge", "0,1"], 4),
    "T4.2": ("edge", sg.generate("path", 3), ["--edge", "0,1"], 3),
    "T4.3": ("pair", sg.generate("path", 4), ["--pair", "0,3"], 0),
}


@pytest.mark.parametrize("theorem", CHECK_IDS)
def test_check_every_id(theorem, tmp_path, capsys, monkeypatch):
    kind, g, flags, code = CHECK_CALLS[theorem]
    assert ARG_KINDS[theorem] == kind
    reports = []
    real = CHECKERS[theorem]
    monkeypatch.setitem(CHECKERS, theorem, lambda *a: reports.append(real(*a)) or reports[-1])
    f = tmp_path / "g.sg"
    f.write_text(to_sg_text(g))
    assert main(["check", str(f), "--theorem", theorem] + flags) == code
    out = capsys.readouterr().out
    # stdout is byte for byte the stdlib's indent=2 text of the report
    assert out == json.dumps(report_to_dict(reports[0]), indent=2) + "\n"
    report = json.loads(out)
    assert report["theorem"] == theorem
    expected = 3 if not report["hypothesis_met"] else (0 if report["holds"] else 4)
    assert code == expected
    # a pair check names the contracted graph, and B4 sets its bound flags
    assert ("contracted_graph" in report["surgery"]) == (kind == "pair")
    assert bool(report["info"]) == (theorem == "B4")


@pytest.mark.parametrize("tol", ["nan", "-1", "-inf"])
@pytest.mark.parametrize("theorem", CHECK_IDS)
def test_check_rejects_nan_or_negative_tol(theorem, tol, tmp_path, capsys):
    _, g, flags, _ = CHECK_CALLS[theorem]
    f = tmp_path / "g.sg"
    f.write_text(to_sg_text(g))
    assert main(["check", str(f), "--theorem", theorem, f"--tol={tol}"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "tol must be a non-negative number" in captured.err


@pytest.mark.parametrize("tol, code", [("0", 0), ("inf", 0)])
def test_check_accepts_zero_and_inf_tol(tol, code, c4_file, capsys):
    assert main(["check", c4_file, "--theorem", "T2.1", "--vertex", "0", f"--tol={tol}"]) == code
    assert json.loads(capsys.readouterr().out)["tol"] == float(tol)


class TestSurgery:
    def test_delete_vertex_writes_canonical_file(self, c4_file, tmp_path, capsys):
        out = tmp_path / "out.sg"
        assert main(["surgery", c4_file, "delete-vertex", "--vertex", "0", "--out", str(out)]) == 0
        expected, _ = sg.delete_vertex(sg.generate("cycle", 4), 0)
        assert parse_sg(out.read_text()) == expected

    def test_stdout_when_no_out(self, k2n_file, c4_file, capsys):
        assert main(["surgery", k2n_file, "delete-edge", "--edge", "0,1"]) == 0
        assert capsys.readouterr().out == "n 2\n"
        # the closing edge of C4, given as (3, 0), leaves the path
        assert main(["surgery", c4_file, "delete-edge", "--edge", "3,0"]) == 0
        assert capsys.readouterr().out == to_sg_text(sg.generate("path", 4))

    def test_contract_conflict_exit_5(self, tmp_path, capsys):
        f = tmp_path / "g.sg"
        f.write_text("n 3\n0 2 +\n1 2 -\n")
        assert main(["surgery", str(f), "contract", "--pair", "0,1"]) == 5
        assert "conflicting" in capsys.readouterr().err

    def test_delete_missing_edge_exit_5(self, p3_file, capsys):
        assert main(["surgery", p3_file, "delete-edge", "--edge", "0,2"]) == 5
        # NoSuchEdge is a KeyError, but prints its message unquoted
        assert capsys.readouterr().err == "error: no edge (0, 2)\n"

    def test_switch(self, c4_file, capsys):
        assert main(["surgery", c4_file, "switch", "--alpha", "+-+-"]) == 0
        got = parse_sg(capsys.readouterr().out)
        assert got == sg.apply_switching(sg.generate("cycle", 4), (1, -1, 1, -1))

    def test_switch_wrong_length_exit_5(self, c4_file):
        assert main(["surgery", c4_file, "switch", "--alpha", "+-"]) == 5

    def test_add_edge(self, p3_file, capsys):
        assert main(["surgery", p3_file, "add-edge", "--edge", "0,2", "--sign", "-"]) == 0
        got = parse_sg(capsys.readouterr().out)
        assert not sg.is_balanced(got)

    def test_round_trip_matches_in_memory(self, tmp_path, capsys):
        g = sg.random_signed_graph(7, 0.5, 0.5, seed=8)
        f = tmp_path / "g.sg"
        f.write_text(to_sg_text(g))
        assert main(["surgery", str(f), "delete-vertex", "--vertex", "3"]) == 0
        expected, _ = sg.delete_vertex(g, 3)
        assert parse_sg(capsys.readouterr().out) == expected
        # an edge whose shared neighbours agree in sign; the larger end's others move
        assert main(["surgery", str(f), "contract", "--pair", "0,6"]) == 0
        assert parse_sg(capsys.readouterr().out) == sg.contract(g, 0, 6)[0]


class TestInfo:
    def test_triangle(self, tmp_path, capsys):
        f = tmp_path / "t.sg"
        f.write_text(to_sg_text(sg.generate("cycle", 3)))
        assert main(["info", str(f)]) == 0
        out = capsys.readouterr().out
        block = json.loads(out.strip().splitlines()[-1])
        assert block["balanced"] is True
        assert block["co_regular"] == {"r": 2, "s": 2, "complete": True}
        assert block["connected"] is True

    def test_unbalanced_c3(self, tmp_path, capsys):
        f = tmp_path / "u.sg"
        f.write_text(to_sg_text(sg.generate("cycle", 3, [-1, 1, 1])))
        main(["info", str(f)])
        block = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert block["balanced"] is False

    def test_forest_always_balanced(self, tmp_path, capsys):
        f = tmp_path / "f.sg"
        f.write_text(to_sg_text(sg.generate("path", 6, "random", seed=9)))
        main(["info", str(f)])
        block = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert block["balanced"] is True

    def test_negative_degree_range(self, tmp_path, capsys):
        f = tmp_path / "k4.sg"
        f.write_text(to_sg_text(sg.generate("complete", 4, [-1, 1, 1, 1, 1, -1])))
        assert main(["info", str(f)]) == 0
        out = capsys.readouterr().out
        block = json.loads(out.strip().splitlines()[-1])
        assert (block["min_neg_degree"], block["max_neg_degree"]) == (1, 1)
        assert "negative degree range: 1..1" in out

    def test_unbalanced_and_disconnected(self, tmp_path, capsys):
        # an unbalanced triangle plus another edge, or plus an isolated vertex
        for n, rest in ((5, [(3, 4, 1)]), (4, [])):
            f = tmp_path / "u.sg"
            f.write_text(to_sg_text(sg.build_graph(n, [(0, 1, -1), (1, 2, 1), (0, 2, 1), *rest])))
            assert main(["info", str(f)]) == 0
            block = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert (block["balanced"], block["connected"]) == (False, False)

    def test_empty_graph_has_no_negative_degree_range(self, tmp_path, capsys):
        f = tmp_path / "e.sg"
        f.write_text("n 0\n")
        assert main(["info", str(f)]) == 0
        out = capsys.readouterr().out
        block = json.loads(out.strip().splitlines()[-1])
        assert (block["min_neg_degree"], block["max_neg_degree"]) == (None, None)
        assert "negative degree range" not in out


class TestCampaignCommand:
    def test_defaults_come_from_config(self):
        assert _campaign_config(build_parser().parse_args(["campaign"])) == CampaignConfig()

    def test_small_campaign_ok(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["campaign", "--theorems", "T2.1,L2.3", "--samples", "5",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["reports"]) == 10
        assert all(s["fails"] == 0 for s in doc["summary"])
        assert "total:" in capsys.readouterr().out
        for flags in (
            # ids whose solver stacks repeat matrices (cycles, trees) or mix two matrix kinds
            ["--theorems", "C2.5,C2.8,C2.9,L3.1,C3.7,T3.2", "--samples", "3"],
            # the ids whose gates stop most samples, at the orders where they do
            ["--theorems", "C2.2,C3.7,T2.7", "--n-min", "8", "--n-max", "24", "--samples", "50"],
        ):
            assert main(["campaign", *flags, "--out", str(out)]) == 0
            assert capsys.readouterr().out.endswith(" violations=0\n")

    def test_identical_files_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["campaign", "--theorems", "T3.2,B4", "--samples", "6", "--seed", "11"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        main(["campaign", "--theorems", "B4", "--samples", "3", "--out", str(out),
              "--format", "csv"])
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("theorem,")
        assert len(lines) == 4
        # skip notes with commas and surgery cells with quotes, among long edge
        # strings and spectra: the file is the library's text, and reads back
        # as the header and 13 fields a row, one row per report
        assert main(["campaign", "--theorems", "T2.7,T4.3,B4", "--n-min", "32", "--n-max", "36",
                     "--samples", "3", "--format", "csv", "--out", str(out)]) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            text = fh.read()
        cfg = CampaignConfig(theorems=("T2.7", "T4.3", "B4"), n_min=32, n_max=36, samples=3)
        assert text == sg.campaign_to_csv(sg.run_campaign(cfg))
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == list(_CSV_FIELDS)
        assert len(rows) == 10 and all(len(row) == 13 for row in rows)
        assert any("," in row[-2] or "," in row[-1] for row in rows[1:])
        assert any('"' in row[7] for row in rows[1:])

    def test_samples_zero_exit_2(self):
        assert main(["campaign", "--samples", "0"]) == 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unopenable_out_fails_before_the_run(self, fmt, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_campaign", ran.append)
        out = tmp_path / "missing" / f"rep.{fmt}"
        assert main(["campaign", "--format", fmt, "--out", str(out)]) == 2
        assert ran == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("flags", [["--samples", "0"], ["--theorems", "T0.0"], ["--tol=nan"],
                                       ["--n-min", "9", "--n-max", "4"]])
    def test_bad_config_leaves_out_untouched(self, flags, tmp_path, capsys):
        out = tmp_path / "rep.json"
        out.write_bytes(b"kept\n")
        assert main(["campaign", *flags, "--out", str(out)]) == 2
        assert out.read_bytes() == b"kept\n"
        assert capsys.readouterr().err.startswith("error: ")

    def test_empty_theorem_list_exit_2(self):
        assert main(["campaign", "--theorems", ",", "--samples", "1"]) == 2

    def test_unknown_theorem_exit_2(self):
        assert main(["campaign", "--theorems", "T0.0", "--samples", "1"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "-1", "-inf"])
    def test_nan_or_negative_tol_exit_2(self, tol, capsys):
        assert main(["campaign", "--theorems", "T2.1", "--samples", "20", f"--tol={tol}"]) == 2
        assert "tol must be a non-negative number" in capsys.readouterr().err

    def test_repeated_theorem_exit_2(self, capsys):
        assert main(["campaign", "--theorems", "T4.1,T4.1", "--samples", "50", "--seed", "3"]) == 2
        assert "repeated check ids: ['T4.1']" in capsys.readouterr().err

    def test_violations_exit_4(self, capsys):
        code = main(["campaign", "--theorems", "T4.1", "--samples", "40", "--seed", "3"])
        assert code == 4

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_built_only_for_out(self, fmt, tmp_path, capsys, monkeypatch):
        built = []
        for name in ("write_campaign_json", "write_campaign_csv"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda res, fh, name=name, real=real:
                                built.append(name) or real(res, fh))
        argv = ["campaign", "--theorems", "T2.1,B4", "--samples", "4", "--seed", "6",
                "--format", fmt]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        assert built == []
        out = tmp_path / "rep.txt"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == bare
        assert built == [f"write_campaign_{fmt}"]
        res = sg.run_campaign(CampaignConfig(theorems=("T2.1", "B4"), samples=4, seed=6))
        written = sg.campaign_to_csv(res) if fmt == "csv" else sg.campaign_to_json(res)
        assert out.read_text(encoding="utf-8") == written

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_is_streamed_to_the_file(self, fmt, tmp_path, capsys, monkeypatch, default_200):
        # a report at a time: the write peaks far below the file's size, where
        # building the text first would peak above it (3.9x for JSON)
        monkeypatch.setattr(cli, "run_campaign", lambda cfg: default_200)
        out = tmp_path / f"rep.{fmt}"
        tracemalloc.start()
        try:
            assert main(["campaign", "--format", fmt, "--out", str(out)]) == 4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        written = out.read_text(encoding="utf-8")
        assert written == (sg.campaign_to_csv if fmt == "csv" else sg.campaign_to_json)(default_200)
        assert peak < 0.25 * len(written)


def _option(command: str, flag: str) -> argparse.Action:
    """The action of flag in command's parser."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in subparsers.choices[command]._actions if flag in a.option_strings)


class TestFlagDeclarations:
    @pytest.mark.parametrize("command, flag", [("check", "--sign-last"), ("surgery", "--sign")])
    def test_sign_choices_are_the_sign_tokens(self, command, flag):
        assert list(_option(command, flag).choices) == list(_SIGN_TOKENS)

    @pytest.mark.parametrize("flag", ["--vertex", "--edge", "--pair"])
    def test_graph_flags_declared_once_for_check_and_surgery(self, flag):
        assert _option("check", flag) is _option("surgery", flag)


class TestParserReuse:
    """`main` parses with one parser per process, built on its first call."""

    @pytest.fixture
    def k3n_file(self, tmp_path):
        path = tmp_path / "k3n.sg"
        path.write_text(to_sg_text(sg.generate("cycle", 3, "all_minus")))
        return str(path)

    def test_parser_is_built_once(self, c4_file, capsys, monkeypatch):
        argv = ["check", c4_file, "--theorem", "T2.1", "--vertex", "0"]
        assert main(argv) == 0
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(self) or init(self, *a, **k))
        for _ in range(5):
            assert main(argv) == 0
        assert built == []

    def _outcomes(self, argvs, capsys):
        """Per argv: (exit code, stdout, stderr); a SystemExit gives its code."""
        seen = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            seen.append((code, *capsys.readouterr()))
        return seen

    def test_no_state_carries_over_between_calls(self, c4_file, k3n_file, capsys, monkeypatch):
        argvs = [
            ["check", c4_file, "--vertex", "0"],
            ["--help"],
            ["check", "--help"],
            ["check", c4_file, "--theorem", "L2.3", "--edge", "0;1"],
            ["check", k3n_file, "--theorem", "T4.1", "--edge", "0,1"],
            ["check", c4_file, "--theorem", "T2.1", "--vertex", "0"],
        ]
        shared = self._outcomes(argvs * 2, capsys)
        assert [code for code, _, _ in shared] == [2, 0, 0, 2, 4, 0] * 2
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        fresh = self._outcomes(argvs, capsys)
        assert shared == fresh * 2
        assert "--theorem" in fresh[0][2] and "--edge" in fresh[3][2]

    @pytest.mark.parametrize("flags", [
        ["--theorem", "T2.1", "--vertex", "0"],
        ["--theorem", "T2.1", "--vertex", "9"],
    ], ids=["holds", "vertex-out-of-range"])
    def test_module_entry_point_matches_main(self, c4_file, flags, capsys):
        argv = ["check", c4_file, *flags]
        code = main(argv)
        captured = capsys.readouterr()
        env = {**os.environ, "PYTHONPATH": str(Path(sg.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "sgspectra", *argv],
                              capture_output=True, env=env, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, captured.out.encode(), captured.err.encode())


def test_module_help_exits_0_with_warnings_as_errors():
    env = {**os.environ, "PYTHONPATH": str(Path(sg.__file__).resolve().parents[1]), "PYTHONWARNINGS": "error"}
    proc = subprocess.run([sys.executable, "-m", "sgspectra", "--help"],
                          capture_output=True, text=True, env=env, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: ") and "campaign" in proc.stdout


# Every subcommand on degenerate and malformed .sg files: a documented exit
# code, never an uncaught exception.  The malformed files fail to parse (exit
# 2 with one error line).  A huge header count (n 99999999999999999999) is
# left out: it exhausts memory before any check runs.
_DEGENERATE_SG = {
    "n0": ("n 0\n", False),
    "n1": ("n 1\n", False),
    "n2-no-edges": ("n 2\n", False),
    "isolated-vertex": ("n 3\n0 1 -\n", False),
    "empty-file": ("", True),
    "negative-count": ("n -1\n", True),
    "vertex-out-of-range": ("n 2\n0 5 +\n", True),
}
_CHECK_FLAGS = {"vertex": ["--vertex", "0"], "edge": ["--edge", "0,1"], "pair": ["--pair", "0,1"],
                "cycle": ["--sign-last", "+"], "seeded": [], "graph": []}
_COMMANDS = {
    **{f"check-{t}": ["check", "{f}", "--theorem", t, *_CHECK_FLAGS[ARG_KINDS[t]]] for t in CHECK_IDS},
    **{f"spectrum-{m}": ["spectrum", "{f}", "--matrix", m, "--dump-matrix"]
       for m in ("laplacian", "net", "normalized", "adjacency")},
    "info": ["info", "{f}"],
    "delete-vertex": ["surgery", "{f}", "delete-vertex", "--vertex", "0"],
    "delete-edge": ["surgery", "{f}", "delete-edge", "--edge", "0,1"],
    "add-edge": ["surgery", "{f}", "add-edge", "--edge", "0,1", "--sign", "-"],
    "contract": ["surgery", "{f}", "contract", "--pair", "0,1"],
    "switch": ["surgery", "{f}", "switch", "--alpha", "+-"],
}


@pytest.mark.parametrize("graph", list(_DEGENERATE_SG))
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_degenerate_file_exits_with_a_documented_code(command, graph, tmp_path, capsys):
    text, malformed = _DEGENERATE_SG[graph]
    path = tmp_path / "g.sg"
    path.write_text(text)
    code = main([str(path) if a == "{f}" else a for a in _COMMANDS[command]])
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in out + err
    if malformed:
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    elif code in (2, 5):
        assert err.startswith("error: ")
