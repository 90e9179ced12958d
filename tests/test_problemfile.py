import json
from fractions import Fraction as F

import pytest

from symconn.errors import ParseError
from symconn.oracle import OracleConfig
from symconn.polynomials import Relation
from symconn.problemfile import build_config, parse_point_text, parse_problem

MINIMAL = {
    "n": 3,
    "d": 2,
    "constraints": [{"coeffs": [[0, 0, 1, 1], [0, 1, -1, 1]], "rel": "GE"}],
    "box": [[-2, -2, -2], [2, 2, 2]],
}


def doc(**overrides):
    obj = json.loads(json.dumps(MINIMAL))
    obj.update(overrides)
    return json.dumps(obj)


def test_minimal_parse():
    pf = parse_problem(doc())
    assert pf.system.n == 3
    assert pf.system.d == 2
    assert len(pf.system.constraints) == 1
    con = pf.system.constraints[0]
    poly = con.poly
    assert con.rel is Relation.GE
    # 1 - p2
    assert poly.terms[(0, 0)] == 1
    assert poly.terms[(0, 1)] == -1
    assert pf.system.box == ((F(-2), F(-2), F(-2)), (F(2), F(2), F(2)))
    assert pf.points == {}
    assert pf.queries == ()
    assert pf.config == {}


def test_accepts_bytes():
    pf = parse_problem(doc().encode("utf-8"))
    assert pf.system.n == 3


def test_rational_forms():
    obj = json.loads(doc())
    obj["box"] = [["-2", -2.0, [-4, 2]], ["5/2", [5, 2], "2.5"]]
    pf = parse_problem(json.dumps(obj))
    lo, hi = pf.system.box
    assert lo == (F(-2),) * 3
    assert hi == (F(5, 2),) * 3


@pytest.mark.parametrize(
    "box", [[[-1, -2, -1], [1, 2, 1]], [[-1, -1, -1], [1, 1, "1/2"]], [[1, 1, 1], [0, 0, 0]]]
)
def test_box_errors_name_the_box(box):
    with pytest.raises(ParseError) as err:
        parse_problem(doc(box=box))
    assert err.value.location == "box"


def test_decimal_string_is_exact():
    obj = json.loads(doc())
    obj["points"] = {"a": ["0.1", "0.2", "0.3"]}
    pf = parse_problem(json.dumps(obj))
    assert pf.points["a"] == (F(1, 10), F(1, 5), F(3, 10))


def test_nonintegral_float_rejected():
    obj = json.loads(doc())
    obj["points"] = {"a": [0.1, 0, 0]}
    with pytest.raises(ParseError, match="write it as a string"):
        parse_problem(json.dumps(obj))


def test_boolean_not_a_rational():
    obj = json.loads(doc())
    obj["points"] = {"a": [True, 0, 0]}
    with pytest.raises(ParseError, match="boolean"):
        parse_problem(json.dumps(obj))


def test_zero_denominator():
    obj = json.loads(doc())
    obj["constraints"][0]["coeffs"][0] = [0, 0, 1, 0]
    with pytest.raises(ParseError, match="zero denominator"):
        parse_problem(json.dumps(obj))


def test_d_above_n_rejected():
    with pytest.raises(ParseError, match="d=4 exceeds n=3"):
        parse_problem(doc(d=4))


def test_json_error_carries_position():
    with pytest.raises(ParseError, match="line 1"):
        parse_problem("{not json")


def test_bad_relation_name():
    obj = json.loads(doc())
    obj["constraints"][0]["rel"] = "LE"
    with pytest.raises(ParseError, match="rel"):
        parse_problem(json.dumps(obj))


def test_coeffs_entry_length():
    obj = json.loads(doc())
    obj["constraints"][0]["coeffs"][0] = [0, 0, 1]
    with pytest.raises(ParseError) as e:
        parse_problem(json.dumps(obj))
    assert "constraints[0]" in str(e.value)


def test_negative_exponent():
    obj = json.loads(doc())
    obj["constraints"][0]["coeffs"][0] = [-1, 0, 1, 1]
    with pytest.raises(ParseError, match="nonnegative"):
        parse_problem(json.dumps(obj))


def test_weighted_degree_enforced():
    # p2^2 has weighted degree 4, too big for d=2
    obj = json.loads(doc())
    obj["constraints"][0]["coeffs"][0] = [0, 2, 1, 1]
    with pytest.raises(ParseError) as e:
        parse_problem(json.dumps(obj))
    assert "coeffs" in str(e.value)


def test_duplicate_terms_are_summed():
    obj = json.loads(doc())
    obj["constraints"][0]["coeffs"] = [[0, 1, 1, 2], [0, 1, 1, 2], [0, 0, 1, 1]]
    pf = parse_problem(json.dumps(obj))
    poly = pf.system.constraints[0].poly
    assert poly.terms[(0, 1)] == 1


def test_point_length_checked():
    obj = json.loads(doc())
    obj["points"] = {"a": [0, 0]}
    with pytest.raises(ParseError, match="coordinates"):
        parse_problem(json.dumps(obj))


def test_query_unknown_name():
    obj = json.loads(doc())
    obj["queries"] = [{"x": "ghost", "y": [0, 0, 0]}]
    with pytest.raises(ParseError, match="ghost"):
        parse_problem(json.dumps(obj))


def test_query_expect_must_be_bool():
    obj = json.loads(doc())
    obj["queries"] = [{"x": [0, 0, 0], "y": [0, 0, 0], "expect": 1}]
    with pytest.raises(ParseError, match="expect"):
        parse_problem(json.dumps(obj))


def test_query_names_resolve():
    obj = json.loads(doc())
    obj["points"] = {"o": [0, 0, 0]}
    obj["queries"] = [{"x": "o", "y": ["-1/2", 0, "1/2"], "expect": True}]
    pf = parse_problem(json.dumps(obj))
    q = pf.queries[0]
    assert q.x == (0, 0, 0)
    assert q.x_name == "o"
    assert q.y == (F(-1, 2), 0, F(1, 2))
    assert q.y_name is None
    assert q.expect is True


def test_config_keys_restricted():
    obj = json.loads(doc())
    obj["config"] = {"grid": "1/2"}
    with pytest.raises(ParseError, match="config"):
        parse_problem(json.dumps(obj))


def test_gt_gamma_config_key_is_gone():
    # GT constraints always get a one-pitch margin; the key that scaled it
    # is an unknown key like any other
    obj = json.loads(doc())
    obj["config"] = {"gt_gamma": "1/2"}
    with pytest.raises(ParseError, match="allowed: h, eq_delta, max_depth") as err:
        parse_problem(json.dumps(obj))
    assert err.value.location == "config.gt_gamma"


def test_config_values():
    obj = json.loads(doc())
    obj["config"] = {"h": "1/4", "eq_delta": "1/8", "max_depth": 3}
    pf = parse_problem(json.dumps(obj))
    assert pf.config == {"h": F(1, 4), "eq_delta": F(1, 8), "max_depth": 3}


def test_point_text_forms():
    assert parse_point_text("[1, \"1/2\"]", 2) == (1, F(1, 2))
    assert parse_point_text(b"{\"point\": [0, 0]}", 2) == (0, 0)
    with pytest.raises(ParseError, match="point"):
        parse_point_text("{\"coords\": [0, 0]}", 2)
    with pytest.raises(ParseError, match="coordinates"):
        parse_point_text("[1, 2, 3]", 2)


def test_build_config_precedence():
    base = build_config({})
    assert base == OracleConfig()
    from_file = build_config({"h": F(1, 4), "max_depth": 2})
    assert from_file.h == F(1, 4)
    assert from_file.max_depth == 2
    assert from_file.eq_delta == OracleConfig().eq_delta
    overridden = build_config({"h": F(1, 4)}, h=F(1, 8), max_depth=7)
    assert overridden.h == F(1, 8)
    assert overridden.max_depth == 7
