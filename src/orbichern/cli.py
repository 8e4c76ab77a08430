"""Command-line front end.

Subcommands: chi, leading, segre, canonical, table1, minmult, lines, k3scan,
gysin, pieri, summands.  Numeric output is exact ("p/q").  --float prints
chi, leading, table1, minmult, lines, k3scan and gysin to 12 significant
digits, each value rounded once (banker's rounding) from its exact value;
numeric chi and the k3scan ratio are binary64 numbers, so theirs is binary.
On chi, --float also passes k = 10^4, with rational harmonic tails within
1e-23.  --format selects table, csv or json (scan commands emit one JSON
object per line).  --lambda and --degrees take comma-separated integers
with no empty field; --lambda 0 is the empty partition.
Exit codes: 0 success, 1 output could not be written, 2 malformed input,
3 domain error.

All chi values are reported per unit covering degree.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout, suppress
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

from . import orbifold, thresholds
from .errors import DomainError, OrbichernError, PairFormatError
from .gysin import gysin_coefficient, jump_data
from .partitions import _decode, _sym_tensor_keys, _weighted_rows
from .pairfile import load_pair
from .ring import INFINITE_ORDER, _INFINITY_WORDS

_FLOAT_CONTEXT = Context(prec=12, rounding=ROUND_HALF_EVEN)


def format_float(x) -> str:
    """x rounded once to 12 significant digits from its exact value, spelled
    shortest if dyadic (3.5), else with all 12 digits (2.82000000000)."""
    x = Fraction(x)  # exact for a float too
    d = _FLOAT_CONTEXT.divide(x.numerator, x.denominator)
    if x.denominator & (x.denominator - 1):  # not a power of two
        d = _FLOAT_CONTEXT.quantize(d, Decimal((0, (1,), d.adjusted() - 11)))
    return str(d)


def _fmt(value, as_float=False) -> str:
    if value is None:
        return "-"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    if isinstance(value, float) or as_float and isinstance(value, Fraction):
        return format_float(value)
    return str(value)


def _emit(rows, columns, fmt, out):
    """Write rows, each a tuple of strings in column order, as csv, as one
    JSON object per line, or as a left-aligned table; a lone cell is written
    bare."""
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(row) + "\n")
        return
    if fmt == "json":
        import json  # loaded only by the commands that write it
        for row in rows:  # one object per line, scans included
            out.write(json.dumps(dict(zip(columns, row))) + "\n")
        return
    if len(columns) == 1 and len(rows) == 1:
        out.write(rows[0][0] + "\n")
        return
    if rows:
        widths = [max(len(c), max(map(len, cells)))
                  for c, cells in zip(columns, zip(*rows))]
    else:
        widths = map(len, columns)
    line = "  ".join("%%-%ds" % w for w in widths)
    out.write((line % tuple(columns)).rstrip() + "\n")
    for row in rows:
        out.write((line % row).rstrip() + "\n")


def _parse_order(text):
    if text in _INFINITY_WORDS:
        return INFINITE_ORDER
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected an integer or inf, got %r" % text) from None


def _parse_ints(text):
    try:
        return [int(p) for p in text.split(",")]  # an empty field is a ValueError
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers "
                                         "such as 2,2,1, got %r" % text) from None


# -- subcommand handlers: args (with the pair loaded) -> rows -----------------

def _cmd_chi(args):
    k = _finite(args.k)
    if not args.float and k > orbifold.EXACT_ORDER_LIMIT:
        raise DomainError("exact evaluation is limited to k <= %d; pass "
                          "--float for numeric evaluation"
                          % orbifold.EXACT_ORDER_LIMIT)
    value = orbifold.chi_k(args.pair, k, numeric=args.float)
    return [(_fmt(value, args.float),)]


def _cmd_leading(args):
    k = _finite(args.k)
    if k > orbifold.EXACT_ORDER_LIMIT:  # leading has no numeric path
        raise DomainError("leading is exact only, for k <= %d; use chi --float "
                          "for numeric evaluation" % orbifold.EXACT_ORDER_LIMIT)
    report = orbifold.chi_leading_term(args.pair, k)
    return [(str(report.k), _fmt(report.chi, args.float),
             _fmt(report.leading_scale, args.float),
             "unknown" if report.canonical_positive is None
             else _fmt(report.canonical_positive))]


def _cmd_segre(args):
    return [(str(orbifold.cotangent_segre(args.pair, _finite(args.k))),)]


def _cmd_canonical(args):
    cls, positive = orbifold.canonical_k(args.pair, args.k)
    return [(str(cls), "unknown" if positive is None else _fmt(positive))]


def _range_label(row):
    if row.d_hi is None:
        return "%d-inf" % row.d_lo
    if row.d_hi == row.d_lo:
        return str(row.d_lo)
    return "%d-%d" % (row.d_lo, row.d_hi)


_THRESHOLD_COLUMNS = ["parameter", "minimal_value", "chi_at_min", "chi_below_min"]


def _threshold_row(parameter, rec, as_float):
    """A _THRESHOLD_COLUMNS row.  rec is a ThresholdRecord or a TableRow, both
    ending in (minimal value, chi at it, chi just below it), or None when no
    threshold exists."""
    if rec is None:
        return (str(parameter), "none", "-", "-")
    minimal, at_min, below_min = rec[-3:]
    return (str(parameter), str(minimal), _fmt(at_min, as_float),
            _fmt(below_min, as_float))


def _cmd_table1(args):
    return [_threshold_row(_range_label(r), r, args.float)
            for r in thresholds.table1()]


def _cmd_minmult(args):
    rec = thresholds.min_multiplicity_for_degree(args.d)
    return [_threshold_row(args.d, rec, args.float)]


def _cmd_lines(args):
    if args.c is None and args.c_max < 4:  # the scan starts at c = 4
        raise DomainError("c-max must be an integer >= 4")
    cs = [args.c] if args.c is not None else range(4, args.c_max + 1)
    thresholds._check_line_count(cs[-1])  # before the first row's work
    return [_threshold_row(c, thresholds.line_arrangement_threshold(c), args.float)
            for c in cs]


def _cmd_k3scan(args):
    if args.m_max < 2:  # as k3_coefficient(m) for the same m
        raise DomainError("m must be an integer >= 2")
    if args.m_max > thresholds.K3_SCAN_LIMIT:  # before the first row's work
        raise DomainError("m-max must be <= K3_SCAN_LIMIT = %d: the output "
                          "grows as m-max^2" % thresholds.K3_SCAN_LIMIT)
    return [(str(m), _fmt(cm, args.float),
             _fmt(thresholds._ratio_bound(m, cm) if cm > 0 else None))
            for m, cm in thresholds._k3_coefficients(args.m_max)]


def _cmd_gysin(args):
    kappa = gysin_coefficient(args.n, args.lam)  # checks the cap first
    return [(str(jump_data(args.n, args.lam).defect), _fmt(kappa, args.float))]


def _cmd_pieri(args):
    # each distinct half-key is rendered once, the upper half as "a b" and
    # the lower as " c d", and each distinct multiplicity once
    terms, size, fields = _sym_tensor_keys(args.degrees)
    texts = _decode(terms, size, fields,
                    lambda parts: " ".join(map(str, parts)),
                    lambda parts: "".join([" %d" % p for p in parts]))
    mults = {mult: str(mult) for mult in {mult for _, mult in terms}}
    return [(mults[mult], text or "0")
            for text, (_, mult) in zip(texts, terms)]


def _cmd_summands(args):
    k, n_weight = _finite(args.k), args.N
    if k < 1:
        raise DomainError("k must be >= 1")
    if n_weight < 0:
        raise DomainError("weight must be >= 0")
    zeros = " ".join(["0"] * k)  # zeros[2 * (j - 1):] is l_j, ..., l_k = 0
    # "order j: <coefficient profile>" for every order a row can use
    orders = [None] + ["order %d: %s" % (j, " ".join(
        str(t.coefficient) for t in orbifold.delta_k(args.pair, j)))
        for j in range(1, min(k, n_weight) + 1)]

    def last(j, lj):  # the (l text, summand text, coefficients text)
        return ("%d" % lj + zeros[2 * j - 1:], "S^%d Omega(%d)" % (lj, j),
                orders[j])

    def extend(j, lj, rows):
        text = "%d " % lj
        if not lj:
            return [(text + ls, ss, cs) for ls, ss, cs in rows]
        name_x, order_x = "S^%d Omega(%d) (x) " % (lj, j), orders[j] + "; "
        return [(text + ls, name_x + ss, order_x + cs) for ls, ss, cs in rows]

    if not n_weight:
        return [(zeros, "trivial", "-")]
    return _weighted_rows(k, n_weight, last, extend)


def _finite(k):
    if k is INFINITE_ORDER:
        raise DomainError("this command needs a finite order")
    return k


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbichern",
        description="Characteristic-class invariants of smooth orbifold pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pair=False, k=False, numeric=True):
        p.add_argument("--format", choices=("table", "csv", "json"),
                       default="table")
        if numeric:
            p.add_argument("--float", action="store_true",
                           help="12-digit printing; chi also evaluates numerically")
        if pair:
            p.add_argument("--pair", required=True, metavar="FILE",
                           help="JSON pair description")
        if k:
            p.add_argument("--k", required=True, type=_parse_order, help="jet order")

    p = sub.add_parser("chi", help="Euler-characteristic coefficient chi_k")
    common(p, pair=True, k=True)
    p.set_defaults(fn=_cmd_chi, columns=["chi"])

    p = sub.add_parser("leading", help="chi_k with its Riemann-Roch scale")
    common(p, pair=True, k=True)
    p.set_defaults(fn=_cmd_leading, columns=[
        "k", "chi", "leading_scale", "canonical_positive"])

    p = sub.add_parser("segre", help="total Segre class of the order-k bundle")
    common(p, pair=True, k=True, numeric=False)
    p.set_defaults(fn=_cmd_segre, columns=["segre"])

    p = sub.add_parser("canonical", help="order-k canonical class (k may be inf)")
    common(p, pair=True, k=True, numeric=False)
    p.set_defaults(fn=_cmd_canonical, columns=["class", "positive"])

    p = sub.add_parser("table1", help="minimal ramification orders by degree")
    common(p)
    p.set_defaults(fn=_cmd_table1, columns=_THRESHOLD_COLUMNS)

    p = sub.add_parser("minmult", help="minimal order for one plane degree")
    common(p)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=_cmd_minmult, columns=_THRESHOLD_COLUMNS)

    p = sub.add_parser("lines", help="minimal equal degree for c components")
    common(p)
    one_or_scan = p.add_mutually_exclusive_group()
    one_or_scan.add_argument("--c", type=int, default=None)
    one_or_scan.add_argument("--c-max", type=int, default=11)
    p.set_defaults(fn=_cmd_lines, columns=_THRESHOLD_COLUMNS)

    p = sub.add_parser("k3scan", help="trivial-canonical coefficient scan")
    common(p)
    p.add_argument("--m-max", type=int, default=200)
    p.set_defaults(fn=_cmd_k3scan, columns=["m", "coefficient", "ratio"])

    p = sub.add_parser("gysin", help="flag-bundle Gysin coefficient")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True, type=_parse_ints,
                   help="partition, e.g. 2,2,1")
    p.set_defaults(fn=_cmd_gysin, columns=["defect", "coefficient"])

    p = sub.add_parser("pieri", help="Schur decomposition of Sym powers")
    common(p, numeric=False)
    p.add_argument("--degrees", required=True, type=_parse_ints, help="e.g. 2,1")
    p.set_defaults(fn=_cmd_pieri, columns=["multiplicity", "parts"])

    p = sub.add_parser("summands", help="graded jet-bundle summands")
    common(p, pair=True, k=True, numeric=False)
    p.add_argument("--N", type=int, required=True, help="weighted degree")
    p.set_defaults(fn=_cmd_summands, columns=["l", "summand", "coefficients"])

    return parser


def run(argv, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        code = _dispatch(argv, out, err)
        out.flush()  # a buffered write fails here, not at interpreter exit
    except OSError as exc:  # out (or err) could not be written
        if not isinstance(exc, BrokenPipeError):  # a closed reader is no error
            with suppress(OSError):  # a failing err cannot report it either
                err.write("error: %s\n" % exc)
        if out is sys.stdout:
            # the exit flush would retry the unwritten buffer and fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        return 1
    return code


def _dispatch(argv, out, err):
    parser = build_parser()
    usage, errors = io.StringIO(), io.StringIO()  # argparse hides write errors
    try:
        with redirect_stdout(usage), redirect_stderr(errors):  # --help, usage
            args = parser.parse_args(argv)
    except SystemExit as exc:
        out.write(usage.getvalue())
        err.write(errors.getvalue())
        return exc.code if exc.code is not None else 0
    try:
        if "pair" in args:
            try:
                args.pair = load_pair(args.pair)
            except (OSError, UnicodeDecodeError) as exc:
                # malformed input (exit 2): any other OSError is a failed write
                raise PairFormatError(str(exc)) from exc
        # exact values print in full: the int-to-str digit limit (Python
        # 3.11+; the fallbacks are no-ops) is lifted after the pair is read,
        # so an over-long number in it is still malformed input (exit 2)
        limit = getattr(sys, "get_int_max_str_digits", int)()
        set_limit = getattr(sys, "set_int_max_str_digits", int)
        set_limit(0)
        try:
            _emit(args.fn(args), args.columns, args.format, out)
        finally:
            set_limit(limit)
        return 0
    except PairFormatError as exc:  # includes a pair file that cannot be read
        err.write("error: %s\n" % exc)
        return 2
    except OrbichernError as exc:
        err.write("error: %s\n" % exc)
        return 3


def main():
    """Run the command line and exit with its code.

    Freezing the heap first moves every live object into the permanent
    generation, so the interpreter's exit collections have nothing to
    traverse: module state in reference cycles is dropped with the process
    instead of being walked.  atexit handlers, the stdio flush and the exit
    code are as usual.
    """
    code = run(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
