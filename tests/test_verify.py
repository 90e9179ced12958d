import hashlib
import json
import pathlib
import shutil
from fractions import Fraction

import pytest

from symconn.engine import Engine
from symconn.errors import ParseError
from symconn.problemfile import build_config, parse_problem
from symconn.verify import _sort_and_conjugate, run_verify

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def test_missing_directory():
    with pytest.raises(ParseError, match="does not exist"):
        run_verify("no/such/corpus")


def test_empty_corpus(tmp_path):
    rep = run_verify(tmp_path)
    assert rep["fixtures"] == []
    assert rep["total_queries"] == 0
    assert rep["agreement_rate"] == "0/0"
    assert rep["all_agree"] is True
    assert rep["disagreements"] == []


def test_single_fixture_rows(tmp_path):
    corpus = tmp_path / "c"
    corpus.mkdir()
    shutil.copy(FIXTURES / "split2.json", corpus / "split2.json")
    rep = run_verify(corpus)
    assert rep["total_queries"] == 10
    assert rep["all_agree"] is True
    (fixture,) = rep["fixtures"]
    assert fixture["fixture"] == "split2.json"
    assert fixture["agreement"] == "10/10"
    for row in fixture["queries"]:
        assert row["engine"] == row["brute_force"]
        assert row["agree"] is True
        assert row["engine_seconds"] >= 0
        assert row["brute_force_seconds"] >= 0
        assert row["engine"] == row["expect"]


def test_unsorted_queries_match_brute_force(tmp_path):
    # the brute grid works on raw coordinates, the engine on sorted ones;
    # a fixture full of permuted points exercises the conjugation path
    corpus = tmp_path / "c"
    corpus.mkdir()
    shutil.copy(FIXTURES / "circle-arcs.json", corpus / "arcs.json")
    rep = run_verify(corpus)
    assert rep["all_agree"] is True
    assert rep["total_queries"] == 7


def test_broken_fixture_is_reported_with_filename(tmp_path):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "bad.json").write_text("{\"n\": 2}")
    with pytest.raises(ParseError, match="bad.json"):
        run_verify(corpus)


def test_underresolved_disagreement_carries_certificate():
    rep = run_verify(FIXTURES / "underresolved")
    assert rep["all_agree"] is False
    (dis,) = rep["disagreements"]
    assert dis["fixture"] == "pinch3.json"
    assert dis["engine"] is False
    assert dis["brute_force"] is True
    cert = dis["engine_certificate"]
    assert cert["kind"] == "symmetric"
    assert cert["orbit"]["connected"] is True
    assert cert["walls"]["1"]["connected"] is False
    (fail,) = rep["expectation_failures"]
    assert fail["expect"] is True
    assert fail["engine"] is False


def test_full_corpus_agreement():
    rep = run_verify(FIXTURES)
    assert rep["total_queries"] >= 100
    assert rep["all_agree"] is True
    assert rep["agreement_rate"] == f"{rep['total_queries']}/{rep['total_queries']}"
    assert rep["expectation_failures"] == []
    assert rep["seconds"] > 0


# SHA-256 over the sorted-key JSON of every certificate below, one per line.
# Performance work must leave it alone: a changed digest means a changed
# certificate, not a faster one.  It last moved when the extremal face
# family became fixed and the "pattern" key left the orbit, wall and
# symmetric certificates; deleting that key from the previous certificates
# gives exactly this digest, so nothing else in them changed.
GOLDEN_DIGEST = "6c3386704e3c861410f578662ec9e12a969a4f712853baee6dd99252c3243ec9"


def test_golden_certificate_digest():
    digest = hashlib.sha256()
    for name in ("cubic3-d3.json", "blob4-d3.json", "circle-arcs.json"):
        pf = parse_problem((FIXTURES / name).read_bytes())
        eng = Engine(pf.system, build_config(pf.config))
        for q in pf.queries:
            xs, ys = _sort_and_conjugate(q.x, q.y)
            cert = eng.symmetric(xs, ys).certificate
            digest.update(json.dumps(cert, sort_keys=True).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == GOLDEN_DIGEST


# Twenty Engine.symmetric queries with unsorted y, sorted x: every one that
# needs a wall runs wall trials, and the d = 3 trials solve fibers on the
# generic path.  Points are quarter-lattice points drawn once and written
# out, so the list does not depend on any generator.
WIDE_QUERIES = {
    "ball3": [
        (("-1/4", "0", "3/4"), ("-1/4", "1/2", "-3/4")),
        (("-1/4", "-1/4", "1/4"), ("0", "-1/4", "1/2")),
        (("0", "1/2", "1/2"), ("1/4", "3/4", "1/2")),
        (("-3/4", "-1/2", "0"), ("1/2", "-3/4", "1/4")),
        (("0", "1/2", "3/4"), ("-1/2", "-3/4", "-1/4")),
    ],
    "split3": [
        (("-1/2", "1/4", "3/2"), ("1/2", "3/2", "-1/2")),
        (("-2", "3/2", "7/4"), ("7/4", "5/4", "1")),
        (("-1/4", "-1/4", "2"), ("3/2", "1", "-1/4")),
        (("-7/4", "-1/2", "1"), ("1/4", "-1/4", "-3/2")),
    ],
    "cubic3-d3": [
        (("1/2", "7/4", "7/4"), ("7/4", "0", "-3/2")),
        (("3/4", "5/4", "3/2"), ("7/4", "-1/4", "1")),
        (("3/2", "3/2", "3/2"), ("-1", "7/4", "-5/4")),
        (("-1/4", "1/4", "5/4"), ("-3/4", "2", "-3/2")),
        (("3/4", "3/4", "5/4"), ("0", "-1/4", "5/4")),
    ],
    "blob4-d3": [
        (("-3/4", "1/4", "1/2", "3/4"), ("3/4", "1/2", "-3/4", "-1/4")),
        (("-3/4", "0", "1/4", "1"), ("3/4", "0", "-3/4", "3/4")),
        (("-1/2", "-1/4", "-1/4", "1/4"), ("-1/4", "3/4", "1/4", "3/4")),
        (("-3/4", "-3/4", "-1/4", "1/2"), ("0", "1/2", "0", "0")),
        (("-1/4", "1/2", "1/2", "3/4"), ("1/4", "1/4", "-1", "-1/4")),
        (("-3/4", "-1/2", "0", "0"), ("1", "-1/2", "1/4", "1/4")),
    ],
}

# SHA-256 over the sorted-key JSON of the WIDE_QUERIES certificates, one per
# line, in the order above; like GOLDEN_DIGEST it guards certificates, not
# speed.  It last moved with GOLDEN_DIGEST and only by the same deleted
# "pattern" key: the previous certificates with that key removed give
# exactly this digest.
WIDE_DIGEST = "d4bb1548fbe86ecc2fb2e5c00fff6a36374a716f678be357f2e3322349a2d48c"


def test_wide_certificate_digest():
    digest = hashlib.sha256()
    walls = 0
    for name, pairs in WIDE_QUERIES.items():
        pf = parse_problem((FIXTURES / f"{name}.json").read_bytes())
        eng = Engine(pf.system, build_config(pf.config))
        for x, y in pairs:
            v = eng.symmetric([Fraction(c) for c in x], [Fraction(c) for c in y])
            walls += len(v.certificate["walls"])
            digest.update(json.dumps(v.certificate, sort_keys=True).encode())
            digest.update(b"\n")
    assert walls >= 30
    assert digest.hexdigest() == WIDE_DIGEST
