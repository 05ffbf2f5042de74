"""The .sg text format and matrix dumps."""
import math
import random

import numpy as np
import pytest

import sgspectra as sg
from sgspectra.errors import ParseError
from sgspectra.fileio import (
    format_matrix,
    format_spectrum,
    from_edge_string,
    parse_sg,
    to_edge_string,
    to_sg_text,
)


def test_parse_basic():
    g = parse_sg("n 3\n0 1 +\n1 2 -\n")
    assert g.n == 3
    assert g.edges == ((0, 1, 1), (1, 2, -1))


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\nn 4   # trailing comment\n0 1 -1\n# lone\n2 3 1\n"
    g = parse_sg(text)
    assert g.edges == ((0, 1, -1), (2, 3, 1))


def test_parse_numeric_sign_tokens():
    g = parse_sg("n 2\n0 1 -1\n")
    assert g.sign(0, 1) == -1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2.*sign token 'x'"):
        parse_sg("n 2\n0 1 x\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_sg("m 2\n")
    with pytest.raises(ParseError, match="line 3.*duplicate"):
        parse_sg("n 2\n0 1 +\n1 0 -\n")
    with pytest.raises(ParseError, match="line 2.*out of range"):
        parse_sg("n 2\n0 5 +\n")
    with pytest.raises(ParseError, match="line 2.*self-loop"):
        parse_sg("n 2\n1 1 +\n")
    with pytest.raises(ParseError, match="missing"):
        parse_sg("# nothing here\n")
    with pytest.raises(ParseError, match="line 1.*bad vertex count 'x'"):
        parse_sg("n x\n")
    with pytest.raises(ParseError, match="line 2.*non-negative"):
        parse_sg("# header next\nn -1\n")
    with pytest.raises(ParseError, match="line 3.*expected 'u v s'"):
        parse_sg("n 3\n0 1 +\n1 2\n")
    with pytest.raises(ParseError, match="line 2.*bad vertex token"):
        parse_sg("n 3\n0 b +\n")


@pytest.mark.parametrize("text, first", [
    ("n 3\n0 0 +\n1 2 x\n", "line 2: self-loop at vertex 0"),
    ("n 3\n0 5 +\n1 2\n", r"line 2: vertex out of range in edge \(0, 5\)"),
    ("n 3\n0 1 +\n1 0 -\n0 b +\n", r"line 3: duplicate edge \(1, 0\)"),
], ids=["self-loop", "out-of-range", "duplicate"])
def test_parse_error_names_the_first_faulty_line(text, first):
    # a graph fault is reported before a format fault on a later line
    with pytest.raises(ParseError, match=f"^{first}$"):
        parse_sg(text)


def test_write_canonical_order():
    g = sg.build_graph(3, [(2, 1, -1), (1, 0, 1)])
    assert to_sg_text(g) == "n 3\n0 1 +\n1 2 -\n"


def test_round_trip():
    g = sg.random_signed_graph(9, 0.5, 0.5, seed=4)
    assert parse_sg(to_sg_text(g)) == g
    assert from_edge_string(to_edge_string(g)) == g


def _writer_graphs():
    """n 0 and 1, then random graphs up to n = 64 (two-digit labels), sparse to complete."""
    rng = random.Random(64)
    graphs = [sg.SignedGraph(0, ()), sg.SignedGraph(1, ()), sg.SignedGraph(np.int64(2), ((0, 1, -1),))]
    graphs += [sg.random_signed_graph(n, p, 0.5, seed=rng.randrange(10**6))
               for n in (2, 9, 10, 11, 63, 64) for p in (0.0, 0.1, 0.5, 1.0)]
    return graphs


@pytest.mark.parametrize("g", _writer_graphs())
def test_writers_match_a_plain_join(g):
    lines = [f"n {g.n}"] + [f"{u} {v} {'+' if s == 1 else '-'}" for u, v, s in g.edges]
    assert to_edge_string(g) == "; ".join(lines)
    assert to_sg_text(g) == "\n".join(lines) + "\n"


def test_empty_graph_round_trip():
    g = sg.SignedGraph(4, ())
    assert parse_sg(to_sg_text(g)) == g


def test_read_write_files(tmp_path):
    g = sg.generate("cycle", 5, [1, -1, 1, -1, 1])
    path = tmp_path / "g.sg"
    sg.write_sg(path, g)
    assert sg.read_sg(path) == g


def test_read_skips_a_byte_order_mark(tmp_path):
    # editors on some platforms start a UTF-8 file with U+FEFF
    text = "# signed C4\nn 4\n0 1 +\n1 2 -\n2 3 +\n0 3 -\n"
    plain, marked = tmp_path / "plain.sg", tmp_path / "marked.sg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert sg.read_sg(marked) == sg.read_sg(plain) == parse_sg(text)


def test_format_matrix_shape_and_precision():
    m = np.array([[1.0, -0.5], [-0.5, 1.0]])
    text = format_matrix(m)
    lines = text.strip().splitlines()
    assert lines[0] == "2"
    assert lines[1] == "1 -0.5"
    # a value needing full precision round-trips
    val = 1.0 / 3.0
    assert float(format_matrix(np.array([[val]])).splitlines()[1]) == val


def test_format_spectrum():
    assert format_spectrum([-2.0, 0.0]) == "-2 0"
    cases = [[-0.0, 0.0], [math.inf, -math.inf, math.nan], [3, -7, 2**60 + 1],
             [np.float64(0.1), np.int64(5), 1 / 3], [], np.array([1.5, -2.0])]
    for xs in cases:
        want = " ".join(f"{float(x):.17g}" for x in xs)
        assert format_spectrum(xs) == want
        assert format_spectrum(x for x in xs) == want
