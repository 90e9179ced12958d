import json
import pathlib
import shutil
from fractions import Fraction

import pytest

from symconn.cli import _rounded_power_sum, build_parser, main
from symconn.polynomials import vandermonde_map
from symconn.realroots import AlgebraicPoint
from symconn.vandermonde import min_canonical

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name):
    return str(FIXTURES / name)


def test_check_connected_exit_zero(capsys):
    code, out, err = run(capsys, "check", fx("ball3.json"), "o", "a")
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["connected"] is True
    assert doc["certificate"]["kind"] == "symmetric"


def test_check_disconnected_exit_one(capsys):
    code, out, _ = run(capsys, "check", fx("split3.json"), "P", "N")
    assert code == 1
    assert json.loads(out)["connected"] is False


def test_check_inline_points(capsys):
    code, out, _ = run(capsys, "check", fx("ball2.json"), "[0, 0]",
                       '["-1/2", "1/2"]')
    assert code == 0
    assert json.loads(out)["connected"] is True


def test_check_point_file(capsys, tmp_path):
    bare = tmp_path / "p1.json"
    bare.write_text('["-1/2", "1/2"]')
    wrapped = tmp_path / "p2.json"
    wrapped.write_text('{"point": [0, 0]}')
    code, out, _ = run(capsys, "check", fx("ball2.json"), str(bare), str(wrapped))
    assert code == 0
    assert json.loads(out)["connected"] is True


def test_unknown_point_spec(capsys):
    code, _, err = run(capsys, "check", fx("ball2.json"), "ghost", "o")
    assert code == 2
    assert "ghost" in err


def test_unsorted_x_gets_an_answer(capsys):
    # check sorts x and swaps y alike: (1, 0), (0, 1) asks about pp and pu
    code, out, _ = run(capsys, "check", fx("split2.json"), "[1, 0]", "pp")
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert (cert["x"], cert["y"]) == (["0", "1"], ["1", "0"])
    # wall sorts x, so (1, 0) gets the answer of pp
    _, unsorted, _ = run(capsys, "wall", fx("split2.json"), "[1, 0]", "1")
    _, sorted_, _ = run(capsys, "wall", fx("split2.json"), "pp", "1")
    assert unsorted == sorted_


def test_auto_canonicalize(capsys):
    code, out, _ = run(capsys, "check", fx("split2.json"), "[1, 0]", "[0, 1]")
    assert code == 0
    assert json.loads(out)["connected"] is True


def test_auto_canonicalize_preserves_answer(capsys):
    # sorting both points together is the identity on the query
    _, plain, _ = run(capsys, "check", fx("split2.json"), "pp", "pu")
    _, conj, _ = run(capsys, "check", fx("split2.json"), "[1, 0]", "[0, 1]")
    assert json.loads(plain)["connected"] == json.loads(conj)["connected"]


def test_infeasible_point_exit_two(capsys):
    code, _, err = run(capsys, "check", fx("ball2.json"), "[2, 2]", "o")
    assert code == 2
    assert "infeasible" in err


def test_non_uniform_box_exit_two(capsys, tmp_path):
    # p1 + 3 >= 0 on [-1, 1] x [-2, 2]: permuting coordinates leaves the box
    problem = tmp_path / "box.json"
    problem.write_text(json.dumps({
        "n": 2, "d": 1, "constraints": [{"coeffs": [[1, 1, 1], [0, 3, 1]], "rel": "GE"}],
        "box": [[-1, -2], [1, 2]],
    }))
    code, _, err = run(capsys, "check", str(problem), "[1, -2]", "[0, 0]")
    assert code == 2
    assert "box: box must be [lo, hi]^n" in err


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "check", "no-such.json", "[0,0]", "[0,0]")
    assert code == 2
    assert "no-such.json" in err


def test_check_orbit_sorts_both(capsys):
    # y and w sit on the same arc; orbit test alone already says yes
    code, out, _ = run(capsys, "check-orbit", fx("circle-arcs.json"), "y", "w")
    assert code == 0
    doc = json.loads(out)
    assert doc["connected"] is True
    assert doc["certificate"]["kind"] == "orbit"


def test_check_orbit_vs_check(capsys):
    # orbits touch but the set keeps the mirror arcs apart
    code_o, out_o, _ = run(capsys, "check-orbit", fx("circle-arcs.json"), "x", "y")
    code_c, out_c, _ = run(capsys, "check", fx("circle-arcs.json"), "x", "y")
    assert code_o == 0 and json.loads(out_o)["connected"] is True
    assert code_c == 1 and json.loads(out_c)["connected"] is False


def test_wall_reachable(capsys):
    code, out, _ = run(capsys, "wall", fx("two-arcs.json"), "a", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["connected"] is True
    assert doc["certificate"]["witness"] is not None


def test_wall_unreachable(capsys):
    code, out, _ = run(capsys, "wall", fx("circle-arcs.json"), "x", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["connected"] is False
    assert doc["certificate"]["witness"] is None


def test_wall_index_range(capsys):
    code, _, err = run(capsys, "wall", fx("ball2.json"), "o", "5")
    assert code == 2
    assert "outside" in err


def test_min_canonical_fields(capsys):
    code, out, _ = run(capsys, "min-canonical", fx("ball3.json"), "b")
    assert code == 0
    doc = json.loads(out)
    assert doc["face"] == [1, 2]
    assert doc["type"] == [1, 2]
    assert len(doc["point_decimal"]) == 3
    assert doc["minimized_power_sum"] == 3


def blob4_min_canonical(capsys, x):
    code, out, _ = run(capsys, "min-canonical", fx("blob4-d3.json"), json.dumps(x))
    assert code == 0
    cp = min_canonical(4, 3, vandermonde_map(tuple(Fraction(v) for v in x), 3))
    return json.loads(out)["value_decimal"], cp.embedded_point()


def test_min_canonical_value_is_the_rounded_power_sum(capsys):
    value, point = blob4_min_canonical(capsys, ["-1/2", "-1/2", "1/4", "1"])
    approx = sum(v**4 for v in point.approx(Fraction(1, 10**40)))
    assert value == float(round(approx, 9)) == 1.384202556


def test_min_canonical_value_on_a_rounding_tie(capsys):
    # The min-canonical point's outer coordinates are one rational
    # function at the two conjugate roots of a quadratic factor of q, and
    # the middle ones are -1/8, so p_4 is rational: 1401/1024 =
    # 1.3681640625, a tie at 9 decimals.  Every enclosure bound straddles
    # it, and midpoint sums round to either side.  The value is the tie
    # rounded half to even, whatever enclosures the point carries.
    value, point = blob4_min_canonical(capsys, ["-1", "-1/4", "0", "3/4"])
    tie = Fraction(1401, 1024)
    ends = [sorted((a**4, b**4)) for a, b in point.refine(Fraction(1, 10**40))]
    assert sum(lo for lo, _ in ends) < tie < sum(hi for _, hi in ends)
    assert value == float(round(tie, 9)) == 1.368164062
    fresh = AlgebraicPoint(point.q, point.q0, point.coords, point.codes)
    assert _rounded_power_sum(fresh, 4) == _rounded_power_sum(point, 4) == round(tie, 9)


@pytest.mark.parametrize(
    "flag,value", [("--grid-h", "1/4"), ("--eq-delta", "1/4"), ("--max-depth", "2")]
)
def test_min_canonical_takes_no_grid_flags(capsys, flag, value):
    # min-canonical solves the fiber only; it never builds a grid
    with pytest.raises(SystemExit) as err:
        main(["min-canonical", fx("ball3.json"), "b", flag, value])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_graph_dump(capsys):
    code, out, _ = run(capsys, "graph", fx("shell2.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["components"] == 1
    assert doc["faces"] == [[1, 1]]
    assert [v["set"] for v in doc["vertices"]] == [1]


def test_graph_empty_system(capsys):
    code, out, _ = run(capsys, "graph", fx("empty2.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == []
    assert doc["components"] == 0


def test_verify_corpus(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(FIXTURES / "ball2.json", corpus / "ball2.json")
    code, out, _ = run(capsys, "verify", str(corpus))
    assert code == 0
    doc = json.loads(out)
    assert doc["all_agree"] is True
    assert doc["total_queries"] == 12


def test_verify_flags_underresolution(capsys):
    code, out, _ = run(capsys, "verify", str(FIXTURES / "underresolved"))
    assert code == 1
    doc = json.loads(out)
    assert doc["all_agree"] is False
    assert len(doc["disagreements"]) == 1


def test_grid_flag_threads_through(capsys):
    code, out, _ = run(capsys, "check-orbit", fx("ball2.json"), "o", "a",
                       "--grid-h", "1/4")
    assert code == 0
    assert json.loads(out)["certificate"]["config"]["h"] == "1/4"


def test_eq_delta_flag_overrides_file(capsys):
    code, out, _ = run(capsys, "check-orbit", fx("circle-arcs.json"), "x", "z",
                       "--eq-delta", "1/4")
    assert code == 0
    assert json.loads(out)["certificate"]["config"]["eq_delta"] == "1/4"


def test_pattern_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", fx("ball3.json"), "o", "a", "--pattern", "mirrored"])
    assert err.value.code == 2
    assert "unrecognized arguments: --pattern" in capsys.readouterr().err


def test_gt_gamma_config_key_exit_two(capsys, tmp_path):
    doc = json.loads((FIXTURES / "ball3.json").read_text())
    doc["config"] = {"gt_gamma": "1/2"}
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path), "o", "a")
    assert code == 2
    assert out == ""
    assert "unknown config key 'gt_gamma'" in err


def test_box_clamp_locate_failure_exit_two(capsys):
    y = '["-2", "-3/2", "2"]'
    code, out, err = run(capsys, "check", fx("split3.json"), y, y)
    assert code == 2
    assert out == ""
    assert "x1 ~ -3.01661, beyond the box bound -2" in err
    assert "widen the system box" in err


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "check", fx("ball3.json"), "a", "u1")
    _, second, _ = run(capsys, "check", fx("ball3.json"), "a", "u1")
    assert first == second


def test_bad_rational_flag(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["check", "s.json", "o", "o",
                                   "--grid-h", "bogus"])
    capsys.readouterr()
