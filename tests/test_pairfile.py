import hashlib
import io
import json
import random
from fractions import Fraction

import pytest
from conftest import MALFORMED_JSON

from orbichern.cli import run
from orbichern.errors import PairFormatError
from orbichern.orbifold import OrbifoldPair, chi_k
from orbichern.pairfile import parse_pair, serialize_pair
from orbichern.ring import (Geometry, abelian_variety, projective_space,
                            surface_with_invariants)

F = Fraction


def test_parse_plane_pair():
    pair = parse_pair('{"geometry": {"preset": "P2"},'
                      ' "components": [{"degree": 12, "mult": "107"}]}')
    assert pair.geometry.dim == 2
    assert pair.components[0].multiplicity.value == 107
    assert pair.components[0].divisor.coefficient((1,)) == 12


def test_parse_abelian_log_pair():
    pair = parse_pair('{"geometry": {"preset": "abelian", "n": 2, "selfint": 6},'
                      ' "components": [{"mult": "inf"}]}')
    assert pair.geometry.kind == "abelian"
    assert pair.components[0].multiplicity.is_infinite


def test_parse_pn_and_rational_multiplicity():
    pair = parse_pair('{"geometry": {"preset": "Pn", "n": 3},'
                      ' "components": [{"degree": 2, "mult": "7/2"}]}')
    assert pair.geometry.dim == 3
    assert pair.components[0].multiplicity.value == F(7, 2)


def test_parse_surface_with_combination_class():
    text = json.dumps({
        "geometry": {"preset": "surface", "c2": 24, "divisors": ["D1", "D2"],
                     "kk": 0, "kd": [0, 0], "dd": [[6, 2], [2, 4]]},
        "components": [{"class": {"D1": 1, "D2": "1/2"}, "mult": "3"}]})
    pair = parse_pair(text)
    div = pair.components[0].divisor
    assert div.coefficient((0, 1, 0, 0)) == 1
    assert div.coefficient((0, 0, 1, 0)) == F(1, 2)


def test_parse_rejects_small_multiplicity():
    with pytest.raises(PairFormatError) as info:
        parse_pair('{"geometry": {"preset": "P2"},'
                   ' "components": [{"degree": 3, "mult": "1/2"}]}')
    assert "components[0].mult" in str(info.value)


def test_parse_rejects_unknown_preset():
    with pytest.raises(PairFormatError):
        parse_pair('{"geometry": {"preset": "weighted"}, "components": []}')


@pytest.mark.parametrize("text", [pytest.param('{"geometry": ', id="truncated")]
                         + MALFORMED_JSON)
def test_parse_rejects_malformed_json(text):
    with pytest.raises(PairFormatError, match="^malformed JSON: "):
        parse_pair(text)


def test_parse_rejects_unknown_generator():
    with pytest.raises(PairFormatError) as info:
        parse_pair('{"geometry": {"preset": "abelian", "n": 2, "selfint": 6},'
                   ' "components": [{"class": "E", "mult": "2"}]}')
    assert "components[0].class" in str(info.value)


# Pairs over every preset grammar, including rational and negative data.
ROUND_TRIP_TEXTS = [
    '{"geometry": {"preset": "P2"},'
    ' "components": [{"degree": 5, "mult": "3"}, {"degree": 2, "mult": "inf"}]}',
    '{"geometry": {"preset": "abelian", "n": 2, "selfint": 6},'
    ' "components": [{"mult": "5"}]}',
    '{"geometry": {"preset": "surface", "c2": 24, "divisors": ["D"],'
    '  "kk": 0, "kd": [0], "dd": [[6]]},'
    ' "components": [{"class": "D", "mult": "7/2"}]}',
    '{"geometry": {"preset": "Pn", "n": 1},'
    ' "components": [{"degree": 3, "mult": "5/2"}]}',
    '{"geometry": {"preset": "Pn", "n": 4},'
    ' "components": [{"degree": 6, "mult": "4"}, {"degree": 1, "mult": "inf"}]}',
    '{"geometry": {"preset": "abelian", "n": 3, "selfint": "12/5"},'
    ' "components": [{"mult": "3"}]}',
    '{"geometry": {"preset": "abelian", "n": 2, "generators": ["D1", "D2"],'
    '  "pairing": [[2, 1], [1, "1/2"]]},'
    ' "components": [{"class": "D1", "mult": "2"},'
    '  {"class": {"D1": 1, "D2": "1/3"}, "mult": "inf"}]}',
    '{"geometry": {"preset": "surface", "c2": "7/3", "divisors": ["A", "B"],'
    '  "kk": 1, "kd": [2, -1], "dd": [[6, 2], [2, "-1/2"]]},'
    ' "components": [{"class": "A", "mult": "5"},'
    '  {"class": {"A": 1, "B": 2}, "mult": "inf"}]}',
]


def test_round_trip_preserves_chi():
    for text in ROUND_TRIP_TEXTS:
        pair = parse_pair(text)
        again = parse_pair(serialize_pair(pair))
        assert again.geometry == pair.geometry
        for k in range(1, 6):
            assert chi_k(pair, k) == chi_k(again, k)


def test_serialize_is_canonical():
    pair = parse_pair('{"geometry": {"preset": "P2"},'
                      ' "components": [{"degree": 5, "mult": "3"}]}')
    assert serialize_pair(pair) == serialize_pair(parse_pair(serialize_pair(pair)))


# The pair files of the README.
README_PAIRS = [
    {"geometry": {"preset": "P2"},
     "components": [{"degree": 12, "mult": "107"}]},
    {"geometry": {"preset": "Pn", "n": 3},
     "components": [{"degree": 2, "mult": "inf"}]},
    {"geometry": {"preset": "abelian", "n": 2, "selfint": 6},
     "components": [{"mult": "2"}]},
    {"geometry": {"preset": "abelian", "n": 2,
                  "generators": ["D1", "D2"], "pairing": [[1, 2], [2, 1]]},
     "components": [{"class": "D1", "mult": "2"},
                    {"class": {"D1": 1, "D2": "1/2"}, "mult": "inf"}]},
    {"geometry": {"preset": "surface", "c2": 24, "divisors": ["D"],
                  "kk": 0, "kd": [0], "dd": [[6]]},
     "components": [{"class": "D", "mult": "5"}]},
]

SURFACE, ABELIAN_PAIRING = README_PAIRS[4], README_PAIRS[3]


DELETE = object()


def _mutated(data, path, value):
    """A copy of data with the field at path set to value, or removed."""
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


def _chi_exit(tmp_path, data):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    code = run(["chi", "--pair", str(path), "--k", "2"], out=out, err=err)
    return code, err.getvalue()


MALFORMED = [
    (SURFACE, ("geometry", "kd"), 0, "geometry.kd"),
    (SURFACE, ("geometry", "kd"), True, "geometry.kd"),
    (SURFACE, ("geometry", "dd"), None, "geometry.dd"),
    (SURFACE, ("geometry", "divisors"), None, "geometry.divisors"),
    (SURFACE, ("geometry", "divisors"), [[1]], "geometry.divisors"),
    (SURFACE, ("geometry", "divisors"), [1], "geometry.divisors"),
    (SURFACE, ("geometry", "divisors"), "DE", "geometry.divisors"),
    (SURFACE, ("geometry", "divisors"), ["D", "D"], "geometry.divisors"),
    (SURFACE, ("geometry", "kk"), True, "geometry.kk"),
    (ABELIAN_PAIRING, ("geometry", "generators"), 5, "geometry.generators"),
    (ABELIAN_PAIRING, ("geometry", "generators"), ["D1", []],
     "geometry.generators"),
    (ABELIAN_PAIRING, ("geometry", "generators"), ["D1", "D1"],
     "geometry.generators"),
    (ABELIAN_PAIRING, ("geometry", "pairing"), [1], "geometry.pairing"),
    (ABELIAN_PAIRING, ("geometry", "pairing"), 5, "geometry.pairing"),
    (ABELIAN_PAIRING, ("geometry", "pairing"), [[1, 2]], "geometry.pairing"),
    (README_PAIRS[1], ("geometry", "n"), True, "geometry.n"),
    (README_PAIRS[0], ("components", 0, "degree"), True,
     "components[0].degree"),
    (README_PAIRS[0], ("components", 0, "mult"), True, "components[0].mult"),
    (README_PAIRS[0], ("geometry", "n"), 5, "geometry.n"),  # P2 has n = 2
    # rational text is a sign, digits and /digits: Fraction also reads
    # "1e3000000", and chi on it ran for minutes
    (README_PAIRS[2], ("geometry", "selfint"), "1e5", "geometry.selfint"),
    (README_PAIRS[2], ("geometry", "selfint"), "0.5", "geometry.selfint"),
    (README_PAIRS[2], ("geometry", "selfint"), "1_000", "geometry.selfint"),
    (SURFACE, ("geometry", "c2"), "2.4e1", "geometry.c2"),
    (README_PAIRS[0], ("components", 0, "mult"), "1e5", "components[0].mult"),
    # a field the grammar does not name: each was silently ignored, and a
    # misspelled "dd" on the surface read as zeros
    (README_PAIRS[0], ("component",), [], "component: unknown field"),
    (SURFACE, ("geometry", "DD"), [[6]], "geometry.DD: unknown field"),
    (README_PAIRS[2], ("geometry", "pairing"), "garbage",
     "geometry.pairing: unknown field"),
    (ABELIAN_PAIRING, ("geometry", "selfint"), 6,
     "geometry.generators: unknown field"),
    (ABELIAN_PAIRING, ("components", 0, "degree"), 2,
     "components[0].degree: unknown field"),
    (README_PAIRS[0], ("components", 0, "class"), "h",
     "components[0].class: unknown field"),
    (README_PAIRS[1], ("geometry", "selfint"), 6,
     "geometry.selfint: unknown field"),
]


@pytest.mark.parametrize("base,path,value,field", MALFORMED, ids=[
    "%s=%s" % (field, json.dumps(value)) for _, _, value, field in MALFORMED])
def test_malformed_field_exits_2_naming_it(tmp_path, base, path, value,
                                            field):
    code, err = _chi_exit(tmp_path, _mutated(base, path, value))
    assert code == 2
    assert field in err


@pytest.mark.parametrize("preset", [{"preset": "Pn"},
                                    {"preset": "abelian", "selfint": 6}],
                         ids=["Pn", "abelian"])
def test_dimension_past_limit_exits_3_before_any_geometry(tmp_path, preset,
                                                         monkeypatch):
    import orbichern.pairfile as pairfile
    from orbichern.pairfile import DIMENSION_LIMIT
    built, real = [], (pairfile.projective_space, pairfile.abelian_variety)
    monkeypatch.setattr(pairfile, "projective_space",
                        lambda n: built.append(n) or real[0](n))
    monkeypatch.setattr(pairfile, "abelian_variety",
                        lambda n, **kw: built.append(n) or real[1](n, **kw))
    component = {"mult": "inf"}
    if preset["preset"] == "Pn":
        component["degree"] = 1
    data = {"geometry": dict(preset, n=DIMENSION_LIMIT + 1),
            "components": [component]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    assert run(["chi", "--pair", str(path), "--k", "2"], out=out, err=err) == 3
    assert out.getvalue() == "" and err.getvalue() == (
        "error: geometry.n must be <= DIMENSION_LIMIT = 12: exact chi grows "
        "steeply with n\n")
    assert built == []
    data["geometry"]["n"] = DIMENSION_LIMIT
    assert _chi_exit(tmp_path, data) == (0, "")
    assert built == [DIMENSION_LIMIT]


def test_asymmetric_pairing_stays_a_domain_error(tmp_path):
    data = _mutated(ABELIAN_PAIRING, ("geometry", "pairing"), [[1, 2], [3, 1]])
    assert _chi_exit(tmp_path, data)[0] == 3


# Small values only: a mutated "n" or "degree" must stay cheap to evaluate.
FUZZ_VALUES = [None, True, False, 0, -1, 1, 2, 3, 7, 2.5, "", "x", "DE", "D",
               "D1", "1/2", "1/0", "inf", [], [1], [[1]], [1, 2],
               [[1, 2], [2, 1]], ["D1", []], ["D", "D"], {}, {"D1": 1},
               {"D": "x"}, {"preset": "P2"}]


def _paths(node, prefix=()):
    if prefix:
        yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


#: Every command that reads a pair file, each at a cheap order.
PAIR_COMMANDS = [["chi", "--k", "2"], ["leading", "--k", "2"],
                 ["segre", "--k", "2"], ["canonical", "--k", "2"],
                 ["summands", "--k", "2", "--N", "3"]]


def _pair_runs(tmp_path, data):
    """(exit code, stderr) of each of PAIR_COMMANDS on data, each checked:
    exit 0, 2 or 3, no traceback, and no output unless 0."""
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(data))
    runs = []
    for command in PAIR_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        code = run(command[:1] + ["--pair", str(path)] + command[1:],
                   out=out, err=err)
        assert code in (0, 2, 3), (command, data, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), (command, data)
        assert code == 0 or out.getvalue() == "", (command, data)
        runs.append((code, err.getvalue()))
    return runs


def _misspelled(data):
    """(copy of data, where the field is named) for each field of each
    object in data, with a misspelled copy of that field inserted."""
    objects = [((), ""), (("geometry",), "geometry.")] + [
        (("components", i), "components[%d]." % i)
        for i in range(len(data["components"]))]
    for path, where in objects:
        node = data
        for key in path:
            node = node[key]
        for name, value in node.items():
            typo = name[:-1] or name.upper()  # "component", "N", "mul"
            yield _mutated(data, path + (typo,), value), where + typo


def test_single_field_mutations_never_crash(tmp_path):
    rng = random.Random(4300)
    codes = []
    for _ in range(400):
        base = rng.choice(README_PAIRS)
        path = rng.choice(list(_paths(base)))
        delete = isinstance(path[-1], str) and rng.random() < 0.2
        data = _mutated(base, path,
                        DELETE if delete else rng.choice(FUZZ_VALUES))
        runs = _pair_runs(tmp_path, data)
        code = runs[0][0]  # chi's
        codes += [run_code for run_code, _ in runs]
        if code == 0:
            pair = parse_pair(json.dumps(data))
            again = parse_pair(serialize_pair(pair))
            assert serialize_pair(again) == serialize_pair(pair)
            assert chi_k(again, 2) == chi_k(pair, 2)
    assert {0, 2, 3} <= set(codes)
    typos = 0
    for base in README_PAIRS:
        for data, field in _misspelled(base):
            for code, err in _pair_runs(tmp_path, data):
                assert (code, err) == (2, "error: %s: unknown field\n" % field)
            typos += 1
    assert typos == 37


# -- the serialized text ----------------------------------------------------

def _preset_pairs():
    """One pair over each preset geometry of the immutability tests."""
    geometries = [projective_space(1), projective_space(2), projective_space(4),
                  abelian_variety(3, selfint=2),
                  abelian_variety(2, names=["A", "B"], pairing=[[0, 1], [1, 0]]),
                  surface_with_invariants(c2=24, divisors=["D1", "D2"],
                                          dd=[[1, 0], [0, 1]])]
    pairs = []
    for geom in geometries:
        divisors = [geom.generator(name) for name, deg in geom.generators
                    if deg == 1]
        pairs.append(OrbifoldPair(geom, [(sum(divisors, geom.zero()), "3"),
                                         (divisors[0], "inf")]))
    return pairs


# sha256 over the serialized README pairs, round-trip texts and preset pairs,
# one per line, as recorded before the pair-file objects were derived from
# the geometry instead of stored on it.
SERIALIZED_SHA256 = (
    "749fee332605ad957856b62764414dc68b7a6cb816dc0c5fa844ee58923f6f97")


def test_serialized_text_is_pinned():
    pairs = ([parse_pair(data) for data in README_PAIRS]
             + [parse_pair(text) for text in ROUND_TRIP_TEXTS] + _preset_pairs())
    text = "\n".join(serialize_pair(pair) for pair in pairs)
    assert hashlib.sha256(text.encode()).hexdigest() == SERIALIZED_SHA256


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("coefficient", [F(3, 2), F(1, 2), 0, -2], ids=str)
def test_projective_degree_that_is_not_a_positive_integer_does_not_serialize(
        n, coefficient):
    geom = projective_space(n)
    pair = OrbifoldPair(geom, [(geom.generator("h") * 5, "3"),
                               (geom.generator("h") * coefficient, "inf")])
    with pytest.raises(PairFormatError) as info:
        serialize_pair(pair)
    assert "components[1].degree" in str(info.value)


def _serialize_one(geom):
    divisor = geom.generator(geom.names[0])
    return serialize_pair(OrbifoldPair(geom, [(divisor, "3")]))


def test_named_selfint_geometry_round_trips_in_pairing_form():
    geom = abelian_variety(2, selfint=6, names=["E"])
    text = _serialize_one(geom)
    assert json.loads(text)["geometry"] == {
        "preset": "abelian", "n": 2, "generators": ["E"], "pairing": [["6"]]}
    again = parse_pair(text)
    assert again.geometry == geom and serialize_pair(again) == text


def test_single_d_pairing_geometry_serializes_in_selfint_form():
    geom = abelian_variety(2, names=["D"], pairing=[["12/5"]])
    text = _serialize_one(geom)
    assert json.loads(text)["geometry"] == {
        "preset": "abelian", "n": 2, "selfint": "12/5"}
    assert parse_pair(text).geometry == geom


@pytest.mark.parametrize("geom", [
    abelian_variety(3, selfint=2, names=["E"]),  # pairing form needs n = 2
    Geometry(2, [("h", 1)], {(2,): 4}, kind="projective",
             tangent_chern=projective_space(2).tangent_chern.coeffs),
    Geometry(2, [("h", 1)], {(2,): 1}, kind="custom",
             tangent_chern=projective_space(2).tangent_chern.coeffs),
    Geometry(2, [("D", 1)], {(2,): 6}, kind="abelian",
             tangent_chern={(0,): 1, (1,): 1}),
    Geometry(2, [("K", 1), ("e", 2)], {(2, 0): 1}, kind="surface"),
], ids=["abelian-n3-E", "projective-h2=4", "custom", "abelian-c1", "surface-c(T)=1"])
def test_geometry_that_no_preset_rebuilds_does_not_serialize(geom):
    with pytest.raises(PairFormatError) as info:
        _serialize_one(geom)
    assert "only preset geometries serialize" in str(info.value)
