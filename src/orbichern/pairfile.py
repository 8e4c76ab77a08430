"""JSON pair descriptions.

Grammar (rationals are JSON integers or strings "m" or "p/q" of ASCII
digits, signed or not; multiplicities are "inf", "m" or "p/q", >= 1):

    {"geometry": {"preset": "P2"},
     "components": [{"degree": 12, "mult": "107"}]}

    {"geometry": {"preset": "Pn", "n": 3},
     "components": [{"degree": 2, "mult": "inf"}]}

    {"geometry": {"preset": "abelian", "n": 2, "selfint": 6},
     "components": [{"mult": "2"}]}                    # class defaults to D

    {"geometry": {"preset": "abelian", "n": 2,
                  "generators": ["D1", "D2"], "pairing": [[1, 2], [2, 1]]},
     "components": [{"class": "D1", "mult": "2"},
                    {"class": {"D1": 1, "D2": "1/2"}, "mult": "inf"}]}

    {"geometry": {"preset": "surface", "c2": 24, "divisors": ["D"],
                  "kk": 0, "kd": [0], "dd": [[6]]},
     "components": [{"class": "D", "mult": "5"}]}

On projective presets a component is named by its degree d (the class d*h);
elsewhere by a generator name or a {name: coefficient} combination.  An
object takes only the fields of its form above ("n" on P2 must be 2), and
any other is refused by name (exit 2); n <= DIMENSION_LIMIT (else exit 3).
"""

from __future__ import annotations

from .errors import DomainError, OrbichernError, PairFormatError
from .orbifold import OrbifoldPair
from .ring import (Geometry, Multiplicity, _as_fraction, _is_int,
                   abelian_variety, projective_space, surface_with_invariants)

#: Largest pair-file n: exact chi at k = 10^4 takes 0.6 s at 12, 36 s at 32.
DIMENSION_LIMIT = 12


def _rational(value, where):
    try:
        return _as_fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise PairFormatError("%s: bad rational %r (%s)" % (where, value, exc))


def _multiplicity(value, where):
    try:
        return Multiplicity.parse(value)
    except Exception as exc:
        raise PairFormatError("%s: bad multiplicity %r (%s)" % (where, value, exc))


def _positive_int(value, where):
    if not _is_int(value) or value < 1:
        raise PairFormatError("%s: need a positive integer" % where)
    return value


def _fields(data, allowed, where="geometry."):
    """Refuse a field of the JSON object data that allowed does not name."""
    for name in data:
        if name not in allowed:
            raise PairFormatError("%s%s: unknown field" % (where, name))


def _dimension(data):
    n = _positive_int(data.get("n"), "geometry.n")
    if n > DIMENSION_LIMIT:
        raise DomainError("geometry.n must be <= DIMENSION_LIMIT = %d: exact "
                          "chi grows steeply with n" % DIMENSION_LIMIT)
    return n


def _names(value, where):
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise PairFormatError("%s: expected a list of names" % where)
    if len(set(value)) != len(value):
        raise PairFormatError("%s: names must be distinct" % where)
    return value


def _vector(value, size, where):
    if not isinstance(value, list) or len(value) != size:
        raise PairFormatError("%s: expected a list of %d rationals" % (where, size))
    return [_rational(v, where) for v in value]


def _matrix(value, size, where):
    """A size x size list of lists of rationals; size None means any side."""
    if size is None and isinstance(value, list):
        size = len(value)
    if not isinstance(value, list) or len(value) != size or not all(
            isinstance(row, list) and len(row) == size for row in value):
        shape = "square" if size is None else "%d x %d" % (size, size)
        raise PairFormatError("%s: expected a %s matrix" % (where, shape))
    return [[_rational(v, where) for v in row] for row in value]


def parse_geometry(data) -> Geometry:
    """Check the types and shapes of a geometry object, then build it.

    Malformed fields raise PairFormatError naming the field before any
    preset constructor runs; the constructors decide the rest (symmetry of
    the intersection matrices, reserved names, dimension limits).
    """
    if not isinstance(data, dict) or "preset" not in data:
        raise PairFormatError("geometry: expected an object with a preset")
    preset = data["preset"]
    if preset in ("P2", "Pn"):
        _fields(data, ("preset", "n"))
        n = _dimension(data) if preset == "Pn" or "n" in data else 2
        if preset == "P2" and n != 2:
            raise PairFormatError("geometry.n: P2 has n = 2")
        return projective_space(n)
    if preset == "abelian":
        _fields(data, ("preset", "n", "selfint") if "selfint" in data
                else ("preset", "n", "generators", "pairing"))
        n = _dimension(data)
        if "selfint" in data:
            return abelian_variety(n, selfint=_rational(data["selfint"],
                                                        "geometry.selfint"))
        if "pairing" in data:
            names = data.get("generators")
            if names is not None:
                names = _names(names, "geometry.generators")
            pairing = _matrix(data["pairing"],
                              None if names is None else len(names),
                              "geometry.pairing")
            return abelian_variety(n, names=names, pairing=pairing)
        raise PairFormatError("geometry: abelian preset needs selfint or pairing")
    if preset == "surface":
        _fields(data, ("preset", "c2", "divisors", "kk", "kd", "dd"))
        if "divisors" not in data:
            raise PairFormatError("geometry.divisors: required for surfaces")
        divisors = _names(data["divisors"], "geometry.divisors")
        r = len(divisors)
        kd = _vector(data.get("kd", [0] * r), r, "geometry.kd")
        dd = _matrix(data.get("dd", [[0] * r] * r), r, "geometry.dd")
        return surface_with_invariants(
            c2=_rational(data.get("c2", 0), "geometry.c2"),
            divisors=divisors, kk=_rational(data.get("kk", 0), "geometry.kk"),
            kd=kd, dd=dd)
    raise PairFormatError("geometry.preset: unknown preset %r" % (preset,))


def _component_class(geom, entry, where):
    if geom.kind == "projective":
        if "degree" not in entry:
            raise PairFormatError("%s.degree: required on projective presets" % where)
        return geom.generator("h") * _positive_int(entry["degree"],
                                                   where + ".degree")
    cls_spec = entry.get("class")
    if cls_spec is None:
        if geom.kind == "abelian" and len(geom.names) == 1:
            return geom.generator(geom.names[0])
        raise PairFormatError("%s.class: required" % where)
    if isinstance(cls_spec, str):
        cls_spec = {cls_spec: 1}
    if isinstance(cls_spec, dict):
        out = geom.zero()
        for name, coeff in cls_spec.items():
            if name not in geom.names:
                raise PairFormatError("%s.class: unknown generator %r" % (where, name))
            out = out + geom.generator(name) * _rational(coeff, where + ".class")
        return out
    raise PairFormatError("%s.class: expected a name or a combination" % where)


def parse_pair(text) -> OrbifoldPair:
    """Parse a pair description from JSON text (or an already-decoded dict)."""
    if isinstance(text, (str, bytes)):
        import json  # loaded only when there is text to read
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, an integer literal past Python's int-to-str
            # digit limit, or nesting past the recursion limit
            raise PairFormatError("malformed JSON: %s" % exc)
    else:
        data = text
    if not isinstance(data, dict):
        raise PairFormatError("expected a top-level object")
    _fields(data, ("geometry", "components"), "")
    geom = parse_geometry(data.get("geometry"))
    components = []
    comp_list = data.get("components", [])
    if not isinstance(comp_list, list):
        raise PairFormatError("components: expected a list")
    for i, entry in enumerate(comp_list):
        where = "components[%d]" % i
        if not isinstance(entry, dict):
            raise PairFormatError("%s: expected an object" % where)
        _fields(entry, ("degree" if geom.kind == "projective" else "class",
                        "mult"), where + ".")
        if "mult" not in entry:
            raise PairFormatError("%s.mult: required" % where)
        mult = _multiplicity(entry["mult"], where + ".mult")
        components.append((_component_class(geom, entry, where), mult))
    return OrbifoldPair(geom, components)


def load_pair(path) -> OrbifoldPair:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pair(fh.read())


def _geometry_object(geom: Geometry) -> dict:
    """The preset object read off geom's kind, dimension, generator names
    and intersection table, rationals as text; serialize_pair checks that
    it rebuilds geom."""
    names, n = geom.names, geom.dim

    def integral(*idx):  # of the product of the generators at positions idx
        return str(geom.integrals.get(tuple(map(idx.count, range(len(names)))), 0))

    gram = [[integral(i, j) for j in range(len(names))] for i in range(len(names))]
    if geom.kind == "projective":
        return {"preset": "P2" if n == 2 else "Pn", "n": n}
    if geom.kind == "abelian" and names == ("D",):
        return {"preset": "abelian", "n": n, "selfint": integral(*[0] * n)}
    if geom.kind == "abelian":
        return {"preset": "abelian", "n": n, "generators": list(names),
                "pairing": gram}
    if geom.kind == "surface" and names:  # generators K, the divisors, e
        return {"preset": "surface", "c2": integral(len(names) - 1),
                "divisors": list(names[1:-1]), "kk": gram[0][0],
                "kd": gram[0][1:-1], "dd": [row[1:-1] for row in gram[1:-1]]}
    raise PairFormatError("only preset geometries serialize")


def serialize_pair(pair: OrbifoldPair) -> str:
    """Canonical JSON for a pair over a preset geometry (round-trips through
    parse_pair); the geometry object is written only if parse_geometry
    rebuilds a geometry equal to the pair's, and a projective component only
    if its class is a positive integer multiple of h."""
    geom = pair.geometry
    data = _geometry_object(geom)
    try:
        same = parse_geometry(data) == geom
    except OrbichernError:
        same = False
    if not same:
        raise PairFormatError("only preset geometries serialize")
    components = []
    for i, comp in enumerate(pair.components):
        mult = str(comp.multiplicity)
        if geom.kind == "projective":
            degree = comp.divisor.coefficient((1,))
            if degree.denominator != 1 or degree < 1:
                raise PairFormatError("components[%d].degree: %s is not a "
                                      "positive integer" % (i, degree))
            components.append({"degree": int(degree), "mult": mult})
            continue
        # a component class is homogeneous of degree 1, so each key is the
        # unit exponent vector of one degree-1 generator
        cls = {geom.names[exps.index(1)]: str(c)
               for exps, c in comp.divisor.coeffs.items()}
        components.append({"class": cls, "mult": mult})
    import json
    return json.dumps({"geometry": data, "components": components},
                      sort_keys=True)
