"""Floats and bools are not exact numbers.

Every public entry point that takes an order, a count or an exact value
decides this through `ring._as_fraction` (rational values: TypeError) and
`ring._check_int` (integer arguments: DomainError, in one wording).  Each
argument below is given True, an int subclass equal to 1, and a float, which
the entry point would otherwise compute with or fail on deep inside with a
bare TypeError."""

import ast
import re
from pathlib import Path

import pytest

from orbichern.errors import DomainError
from orbichern.gysin import gysin_coefficient, jump_data
from orbichern.harmonic import (diagonal_coefficient, harmonic_prefixes,
                                harmonic_range)
from orbichern.orbifold import (OrbifoldPair, chi_trivial_canonical_closed_form,
                                leading_scale)
from orbichern.ring import Multiplicity, abelian_variety, projective_space
from orbichern.thresholds import (line_arrangement_threshold,
                                  min_multiplicity_for_degree,
                                  two_component_m2_predicate)

ROOT = Path(__file__).resolve().parents[1]

P2 = projective_space(2)
H = P2.generator("h")
ABELIAN = abelian_variety(2, selfint=6)
# trivial canonical and no finite multiplicity: the closed form takes any k >= 1
LOG_PAIR = OrbifoldPair(ABELIAN, [(ABELIAN.generator("D"), "inf")])

#: name: (call, an inexact value it would otherwise use, expected error)
ENTRY_POINTS = {
    "closed_form_k": (lambda v: chi_trivial_canonical_closed_form(LOG_PAIR, v),
                      2.0, DomainError),
    "min_multiplicity_for_degree": (min_multiplicity_for_degree, 12.0,
                                    DomainError),
    "line_arrangement_threshold": (line_arrangement_threshold, 4.0, DomainError),
    "gysin_coefficient_n": (lambda v: gysin_coefficient(v, (1, 1)), 2.0,
                            DomainError),
    "gysin_coefficient_n_empty": (lambda v: gysin_coefficient(v, ()), 2.0,
                                  DomainError),
    "jump_data_n": (lambda v: jump_data(v, ()), 2.0, DomainError),
    "diagonal_coefficient": (diagonal_coefficient, 5.0, DomainError),
    "harmonic_range_start": (lambda v: harmonic_range(v, 3), 1.0, DomainError),
    "harmonic_range_end": (lambda v: harmonic_range(1, v), 2.0, DomainError),
    "harmonic_range_power": (lambda v: harmonic_range(1, 3, v), 2.0,
                             DomainError),
    "harmonic_prefixes_end": (lambda v: harmonic_prefixes([v, 3], 2), 2.0,
                              DomainError),
    "harmonic_prefixes_power": (lambda v: harmonic_prefixes([3], v), 2.0,
                                DomainError),
    "leading_scale_n": (lambda v: leading_scale(v, 2), 2.0, DomainError),
    "leading_scale_k": (lambda v: leading_scale(2, v), 2.5, DomainError),
    "pair_multiplicity": (lambda v: OrbifoldPair(P2, [(12 * H, v)]), 2.5,
                          TypeError),
    "multiplicity": (Multiplicity, 2.5, TypeError),
    "m2_predicate_pairing": (lambda v: two_component_m2_predicate([[v]], 0),
                             1.5, TypeError),
    "m2_predicate_c2": (lambda v: two_component_m2_predicate([[1]], v), 0.1,
                        TypeError),
    "class_times_scalar": (lambda v: H * v, 2.5, TypeError),
    "class_plus_scalar": (lambda v: H + v, 2.5, TypeError),
    "class_scale_degrees": (lambda v: H.scale_degrees(v), 0.5, TypeError),
    "class_power": (lambda v: H ** v, 2.0, DomainError),
    "class_component": (lambda v: (1 + H).component(v), 1.0, DomainError),
    "projective_space": (projective_space, 2.0, DomainError),
}


@pytest.mark.parametrize("kind", ["bool", "float"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_floats_and_bools_are_not_exact_numbers(name, kind):
    call, inexact, error = ENTRY_POINTS[name]
    value = True if kind == "bool" else inexact
    with pytest.raises(error) as info:
        call(value)
    if error is DomainError:  # named by the argument, ending in its repr
        assert re.fullmatch(r"\S.* must be an integer( >= -?\d+)?, got %s"
                            % re.escape(repr(value)), str(info.value))


def test_integer_refusals_are_worded_only_in_ring():
    """`ring._check_int` words every refusal of an integer argument's type
    or lower bound; no other module spells that message."""
    sources = sorted((ROOT / "src" / "orbichern").glob("*.py"))
    worded = [path.name for path in sources
              if "must be an integer" in path.read_text(encoding="utf-8")]
    assert worded == ["ring.py"]


def _bool_checks(tree):
    """Line numbers of isinstance(..., bool) and isinstance(..., (..., bool))."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            types = node.args[1]
            names = types.elts if isinstance(types, ast.Tuple) else [types]
            if any(isinstance(t, ast.Name) and t.id == "bool" for t in names):
                yield node.lineno


def test_bool_is_excluded_only_in_ring():
    """`ring` is the one module that decides what counts as an exact number
    or an integer argument; every other module calls `_as_fraction` or
    `_is_int`."""
    sources = sorted((ROOT / "src" / "orbichern").glob("*.py"))
    assert sources
    found = {path.name: list(_bool_checks(ast.parse(path.read_text(
        encoding="utf-8"), str(path)))) for path in sources}
    assert found.pop("ring.py")  # the rule itself
    assert {name: lines for name, lines in found.items() if lines} == {}
