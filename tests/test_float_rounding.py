"""One rounding for --float: `format_float` decides every printed digit by
one banker's rounding of the exact value, and `cli.py` never converts a
value to binary64 to print it."""

import ast
import io
import math
import random
import struct
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from orbichern.cli import format_float, run

ROOT = Path(__file__).resolve().parents[1]
TWELVE = Context(prec=12, rounding=ROUND_HALF_EVEN)
P2_PAIR = ('{"geometry": {"preset": "P2"},'
           ' "components": [{"degree": 12, "mult": "107"}]}')


def csv_rows(argv):
    out, err = io.StringIO(), io.StringIO()
    assert run(argv + ["--format", "csv"], out=out, err=err) == 0, err.getvalue()
    return [line.split(",") for line in out.getvalue().splitlines()]


@pytest.mark.parametrize("argv", [
    ["table1"],
    ["lines"],
    ["minmult", "--d", "12"],
    ["leading", "--k", "3"],
    ["gysin", "--n", "2", "--lambda", "1234567,1234567"],
    ["k3scan", "--m-max", "60"],
], ids=lambda argv: argv[0])
def test_float_cells_are_the_exact_cells_rounded(argv, tmp_path):
    if argv[0] == "leading":
        path = tmp_path / "p2.json"
        path.write_text(P2_PAIR)
        argv = argv + ["--pair", str(path)]
    exact, rounded = csv_rows(argv), csv_rows(argv + ["--float"])
    assert len(exact) == len(rounded) and exact[0] == rounded[0]
    changed = [(cell, shown) for row, shown_row in zip(exact, rounded)
               for cell, shown in zip(row, shown_row) if cell != shown]
    assert changed
    for cell, shown in changed:
        assert shown == format_float(Fraction(cell)), cell


def seeded_ties(count):
    """(d, e, x): x = +-(10 d + 5) 10^e, exactly halfway between two
    12-digit neighbours, for 12-digit d and e in -30..30."""
    rng = random.Random("float-ties")
    for _ in range(count):
        digits, e = rng.randrange(10 ** 11, 10 ** 12), rng.randint(-30, 30)
        x = (10 * digits + 5) * Fraction(10) ** e
        yield digits, e, x if rng.random() < 0.5 else -x


def test_exact_ties_round_half_even():
    for digits, e, x in seeded_ties(20_000):
        shown = format_float(x)
        assert shown == str(TWELVE.divide(x.numerator, x.denominator)), x
        # the even one of the two neighbours, by integer arithmetic
        assert abs(Fraction(Decimal(shown))) == (
            (digits + digits % 2) * Fraction(10) ** (e + 1)), x


@pytest.mark.parametrize("x, shown", [
    (Fraction(1000000000001, 2000000000000), "0.500000000000"),
    # 0.8509612374454999...; its binary64 neighbour rounds up
    (Fraction(379382438336304759535041733786, 445828107840931367649332306259),
     "0.850961237445"),
    (Fraction(282, 100), "2.82000000000"),
    (Fraction(7, 2), "3.5"),
    (Fraction(1, 2 ** 1100), "7.36215182902E-332"),  # below binary64
    (5e-324, "4.94065645841E-324"),  # the smallest subnormal
])
def test_rounding_is_from_the_exact_value(x, shown):
    assert format_float(x) == shown


def test_floats_print_their_exact_binary_value_rounded():
    """Every finite nonzero binary64 number prints as its exact value
    rounded to 12 digits, spelled as `Decimal` spells it."""
    rng = random.Random("float-bits")
    checked = 0
    while checked < 20_000:
        f, = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))
        if math.isfinite(f) and f:
            assert format_float(f) == str(TWELVE.plus(Decimal(f))), f.hex()
            checked += 1


def test_cli_never_converts_to_binary64():
    path = ROOT / "src" / "orbichern" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "float"
             or isinstance(node, ast.Attribute) and node.attr == "float_info"]
    assert found == []
