"""Expression grammar, parse errors with locations, canonical text round-trip."""

import random

import pytest

from germimage.corpus import parse_corpus
from germimage.errors import GermImageError, NotAGermError, ParseError, UnknownVariableError
from germimage.parsing import (
    format_polynomial,
    parse_map_germ,
    parse_polynomial,
    validate_varnames,
)
from germimage.poly import Polynomial
from germimage.rationals import GaussianRational, I

from _helpers import variables

x, y = variables(2)


def test_parse_corpus_maps():
    germ = parse_map_germ(["x", "y"], "x*(y+x^2)", "y*(y+x^2)")
    assert germ.f == x * (y + x * x)
    assert germ.g == y * (y + x * x)

    germ2 = parse_map_germ(["x", "y", "z"], "x*y", "x*z")
    assert germ2.n == 3


_ENTRY_BODY = "vars = x y\nf = x\ng = y\nexpected_status = LocallyOpen\n"


def test_parse_corpus_rejects_duplicate_entry_names():
    text = "[a]\n" + _ENTRY_BODY + "[b]\n" + _ENTRY_BODY + "[a]\n" + _ENTRY_BODY
    with pytest.raises(GermImageError, match="corpus line 11: duplicate entry name 'a'"):
        parse_corpus(text)


@pytest.mark.parametrize("name", ["", ".", "..", "../escape", "sub/a", "sub\\a", "/abs"])
def test_parse_corpus_rejects_entry_names_that_are_not_file_names(name):
    text = "# leading comment\n[" + name + "]\n" + _ENTRY_BODY
    with pytest.raises(GermImageError, match="corpus line 2: entry name .* not a plain file name"):
        parse_corpus(text)


def test_parse_corpus_accepts_plain_names():
    names = ["a", "huckleberry-chart", "a.b", "x_1"]
    text = "".join(f"[{n}]\n" + _ENTRY_BODY for n in names)
    assert [e.name for e in parse_corpus(text)] == names


@pytest.mark.parametrize(
    "probe, message",
    [
        ("probe = volume\n", "unknown probe kind 'volume'"),
        ("probe = stability\n", r"need finite eps1 > eps2 > 0, got eps1 = None, eps2 = None"),
        ("probe = stability\neps1 = 0.2\n", r"need finite eps1 > eps2 > 0"),
        ("probe = stability\neps1 = 0.05\neps2 = 0.2\n", r"need finite eps1 > eps2 > 0"),
        ("probe = stability\neps1 = 0.2\neps2 = 0\n", r"need finite eps1 > eps2 > 0"),
        ("probe = occupancy\nbins = 0\n", "at least 1"),
        ("probe = occupancy\nsamples = 0\n", "at least 1"),
        ("probe = residual\nbins = 200\n", "grid cells"),
        ("probe = stability\neps1 = 0.2\neps2 = 0.05\nepsilon = -1\n", "positive"),
        ("probe = occupancy\ntarget_radius = 0\n", "positive"),
        ("probe = occupancy\ntarget_radius = inf\n", "positive and finite"),
        ("probe = occupancy\nepsilon = inf\n", "positive and finite"),
        ("probe = residual\nepsilon = nan\n", "positive and finite"),
        ("probe = stability\neps1 = inf\neps2 = 0.05\n", r"need finite eps1 > eps2 > 0, got eps1 = inf"),
        ("probe = stability\neps1 = nan\neps2 = 0.05\n", r"need finite eps1 > eps2 > 0"),
        # the images of the source ball would overflow floating point
        ("probe = occupancy\nepsilon = 1e200\ntarget_radius = 0.05\n", r"may reach 1e\+200"),
        ("probe = stability\neps1 = 1e160\neps2 = 0.05\n", r"\|f\| may reach 1e\+160"),
        # the germ itself is parsed at load
        ("f = (y\n", r"expected '\)', found 'end of input'"),
    ],
)
def test_parse_corpus_rejects_probes_that_cannot_run(probe, message):
    # the good entry first: the whole file is refused before any entry runs
    text = "[good]\n" + _ENTRY_BODY + "[bad]\n" + _ENTRY_BODY + probe
    with pytest.raises(GermImageError, match=r"corpus entry \[bad\]: .*" + message):
        parse_corpus(text)


@pytest.mark.parametrize(
    "line, message",
    [
        ("samples = 2e5", "corpus line 7: samples = '2e5' is not an integer"),
        ("bins = 8.0", "corpus line 7: bins = '8.0' is not an integer"),
        ("epsilon = abc", "corpus line 7: epsilon = 'abc' is not a number"),
        ("min_occupancy =", "corpus line 7: min_occupancy = '' is not a number"),
    ],
)
def test_parse_corpus_refuses_malformed_numbers(line, message):
    text = "[bad]\n" + _ENTRY_BODY + "probe = occupancy\n" + line + "\n"
    with pytest.raises(GermImageError, match=message):
        parse_corpus(text)


@pytest.mark.parametrize(
    "line, message",
    [
        ("expected_status = Open", "unknown expected_status 'Open'"),
        ("expected_status = locallyopen", "unknown expected_status 'locallyopen'"),
        ("expected_witness = Codim2", "unknown expected_witness 'Codim2'"),
    ],
)
def test_parse_corpus_refuses_unknown_expectations(line, message):
    text = "[good]\n" + _ENTRY_BODY + "[bad]\n" + _ENTRY_BODY + line + "\n"
    with pytest.raises(GermImageError, match=r"corpus entry \[bad\]: " + message):
        parse_corpus(text)


def test_parse_corpus_accepts_every_known_expectation():
    statuses = ["LocallyOpen", "CurveImage", "NotAGerm", "Undetermined"]
    witnesses = ["None", "CodimTwo", "PropCritCertificate", "GapLine", "GapCurve",
                 "ContainmentNonvanishingJacobian", "CurveEquation", "ProbeOnly"]
    body = "vars = x y\nf = x\ng = y\n"
    text = "".join(
        f"[s{k}]\n{body}expected_status = {s}\nexpected_witness = {w}\n"
        for k, (s, w) in enumerate(zip(statuses * 2, witnesses))
    )
    entries = parse_corpus(text)
    assert [(e.expected_status, e.expected_witness) for e in entries] == list(
        zip(statuses * 2, witnesses)
    )


def test_parse_constant_term_rejected():
    with pytest.raises(NotAGermError, match="not a germ through the origin"):
        parse_map_germ(["x", "y"], "x+1", "y")


def test_parse_imaginary_unit():
    p = parse_polynomial(["x", "y"], "i*x+(2-i)*y")
    assert p == x.scale(I) + y.scale(GaussianRational(2, -1))
    assert parse_polynomial(["x", "y"], "i^2") == Polynomial.constant(2, -1)


def test_parse_powers():
    assert parse_polynomial(["x", "y"], "x^3") == x**3
    with pytest.raises(ParseError):
        parse_polynomial(["x", "y"], "x^0")
    with pytest.raises(ParseError):
        parse_polynomial(["x", "y"], "x^y")


def test_parse_error_locations():
    with pytest.raises(ParseError) as err:
        parse_polynomial(["x", "y"], "x+\n(y*)")
    assert err.value.line == 2
    assert err.value.col == 4

    with pytest.raises(UnknownVariableError) as err2:
        parse_polynomial(["x", "y"], "x*w")
    assert err2.value.line == 1
    assert err2.value.col == 3


def test_juxtaposition_is_not_multiplication():
    with pytest.raises(ParseError, match="trailing input"):
        parse_polynomial(["x", "y"], "2x")
    with pytest.raises(ParseError, match="trailing input"):
        parse_polynomial(["x", "y"], "x y")


def test_whitespace_insignificant():
    a = parse_polynomial(["x", "y"], "x * ( y + x ^ 2 )")
    b = parse_polynomial(["x", "y"], "x*(y+x^2)")
    assert a == b


def test_validate_varnames():
    validate_varnames(["x", "y", "z"])
    with pytest.raises(ValueError):
        validate_varnames(["i", "x"])
    with pytest.raises(ValueError):
        validate_varnames(["x", "x"])
    with pytest.raises(ValueError):
        validate_varnames(["2x"])
    with pytest.raises(ValueError):
        validate_varnames([])


def test_format_basic():
    assert format_polynomial(Polynomial.zero(2), ["x", "y"]) == "0"
    assert format_polynomial(x * x - y, ["x", "y"]) == "x^2-y"
    assert format_polynomial(-x + y, ["x", "y"]) == "0-x+y"
    assert format_polynomial(x.scale(GaussianRational(1, 1)), ["x", "y"]) == "(1+i)*x"
    assert format_polynomial(y.scale(I), ["x", "y"]) == "i*y"
    # rational coefficients are display-only (not inside the input grammar)
    assert format_polynomial(x.scale(GaussianRational("1/2")), ["x", "y"]) == "(1/2)*x"


def _random_expression(rng, depth=0):
    roll = rng.random()
    if depth > 3 or roll < 0.35:
        return rng.choice(["x", "y", "i", str(rng.randint(0, 9))])
    if roll < 0.5:
        return f"({_random_expression(rng, depth + 1)})"
    if roll < 0.7:
        return f"{_random_expression(rng, depth + 1)}^{rng.randint(1, 3)}"
    op = rng.choice(["+", "-", "*"])
    return f"{_random_expression(rng, depth + 1)}{op}{_random_expression(rng, depth + 1)}"


def test_round_trip_1000_random_expressions():
    rng = random.Random(314159)
    varnames = ["x", "y"]
    for _ in range(1000):
        text = _random_expression(rng)
        try:
            poly = parse_polynomial(varnames, text)
        except ParseError:
            # e.g. "x^2^3" from the naive generator: not in the grammar
            continue
        printed = format_polynomial(poly, varnames)
        assert parse_polynomial(varnames, printed) == poly
