"""End-to-end CLI behaviour: outputs and the exit-code contract."""
import json

import pytest

import sgspectra as sg
from sgspectra.cli import _campaign_config, build_parser, main
from sgspectra.fileio import parse_sg, to_sg_text
from sgspectra import cli
from sgspectra.verify import ARG_KINDS, CHECK_IDS, CHECKERS, CampaignConfig, report_to_dict


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

    def test_dump_matrix(self, k2n_file, capsys):
        assert main(["spectrum", k2n_file, "--matrix", "adjacency", "--dump-matrix"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "2"
        assert out[1] == "0 -1"
        assert out[3] == "-1 1"  # ascending adjacency spectrum

    def test_malformed_sign_token_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad.sg"
        f.write_text("n 2\n0 1 z\n")
        assert main(["spectrum", str(f)]) == 2
        assert "'z'" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["spectrum", str(tmp_path / "nope.sg")]) == 2
        assert "error:" in capsys.readouterr().err


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

    def test_stdout_when_no_out(self, k2n_file, capsys):
        assert main(["surgery", k2n_file, "delete-edge", "--edge", "0,1"]) == 0
        assert capsys.readouterr().out == "n 2\n"

    def test_contract_conflict_exit_5(self, tmp_path, capsys):
        f = tmp_path / "g.sg"
        f.write_text("n 3\n0 2 +\n1 2 -\n")
        assert main(["surgery", str(f), "contract", "--pair", "0,1"]) == 5
        assert "conflicting" in capsys.readouterr().err

    def test_delete_missing_edge_exit_5(self, p3_file):
        assert main(["surgery", p3_file, "delete-edge", "--edge", "0,2"]) == 5

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

    def test_one_spanning_forest_traversal(self, tmp_path, capsys, monkeypatch):
        import sgspectra.graphs as graphs_mod
        walks = []
        forest = graphs_mod._spanning_forest
        monkeypatch.setattr(graphs_mod, "_spanning_forest", lambda g: walks.append(g) or forest(g))
        f = tmp_path / "u.sg"
        f.write_text(to_sg_text(sg.build_graph(5, [(0, 1, -1), (1, 2, 1), (0, 2, 1), (3, 4, 1)])))
        assert main(["info", str(f)]) == 0
        block = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (block["balanced"], block["connected"]) == (False, False)
        assert len(walks) == 1

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

    def test_identical_files_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["campaign", "--theorems", "T3.2,B4", "--samples", "6", "--seed", "11"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "rep.csv"
        main(["campaign", "--theorems", "B4", "--samples", "3", "--out", str(out),
              "--format", "csv"])
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("theorem,")
        assert len(lines) == 4

    def test_samples_zero_exit_2(self):
        assert main(["campaign", "--samples", "0"]) == 2

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
        for name in ("campaign_to_json", "campaign_to_csv"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name,
                                lambda res, name=name, real=real: built.append(name) or real(res))
        argv = ["campaign", "--theorems", "T2.1,B4", "--samples", "4", "--seed", "6",
                "--format", fmt]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        assert built == []
        out = tmp_path / "rep.txt"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == bare
        assert built == [f"campaign_to_{fmt}"]
        res = sg.run_campaign(CampaignConfig(theorems=("T2.1", "B4"), samples=4, seed=6))
        written = sg.campaign_to_csv(res) if fmt == "csv" else sg.campaign_to_json(res)
        assert out.read_text(encoding="utf-8") == written
