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

Syntax: orbichern COMMAND [--option VALUE | --option=VALUE | --flag ...].
build_parser() returns the table of commands and their options, which one
small parser reads.  An option may be shortened to a unique prefix (--deg),
a value may be a negative number (--k -3), and the last of a repeated option
wins.  -h or --help writes help to stdout and exits 0.  A usage error writes
a usage line and "orbichern COMMAND: error: ..." naming the option to
stderr, and exits 2; a malformed value reads "argument --X: expected FORM,
got 'TEXT'", FORM from one table keyed by converter.  Exact chi and leading
refuse k > EXACT_ORDER_LIMIT = 10^4 with one message, and summands, each
row of which prints all k entries of l, refuses it too; both exit 3.
Exit codes: 0 success, 1 output could not be written, 2 malformed input,
3 domain error.

All chi values are reported per unit covering degree.
"""

from __future__ import annotations

import gc
import os
import sys
from contextlib import suppress
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from types import SimpleNamespace

from . import orbifold, thresholds
from .errors import DomainError, OrbichernError, PairFormatError
from .gysin import gysin_coefficient, jump_data
from .partitions import _decode, _sym_tensor_keys, _weighted_rows
from .pairfile import load_pair
from .ring import INFINITE_ORDER, _INFINITY_WORDS, _check_int

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
    # every handler returns at least one row
    widths = [max(len(c), max(map(len, cells)))
              for c, cells in zip(columns, zip(*rows))]
    line = "  ".join("%%-%ds" % w for w in widths)
    out.write((line % tuple(columns)).rstrip() + "\n")
    for row in rows:
        out.write((line % row).rstrip() + "\n")


_FORMATS = ("table", "csv", "json")


def _parse_order(text):
    return INFINITE_ORDER if text in _INFINITY_WORDS else int(text)


def _parse_ints(text):
    return [int(p) for p in text.split(",")]  # an empty field is a ValueError


def _parse_format(text):
    if text not in _FORMATS:
        raise ValueError
    return text


_FORMS = {int: "an integer", _parse_order: "an integer or inf",
          _parse_ints: "comma-separated integers such as 2,2,1",
          _parse_format: "one of " + ", ".join(_FORMATS)}


# -- subcommand handlers: args (with the pair loaded) -> rows -----------------

def _cmd_chi(args):
    k = _finite(args.k) if args.float else _exact_order("chi", args.k)
    value = orbifold.chi_k(args.pair, k, numeric=args.float)
    return [(_fmt(value, args.float),)]


def _cmd_leading(args):
    k = _exact_order("leading", args.k)  # leading has no numeric path
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
    if args.c is None:  # the scan starts at c = 4
        _check_int(args.c_max, 4, "c-max")
    cs = [args.c] if args.c is not None else range(4, args.c_max + 1)
    thresholds._check_line_count(cs[-1])  # before the first row's work
    return [_threshold_row(c, thresholds.line_arrangement_threshold(c), args.float)
            for c in cs]


def _cmd_k3scan(args):
    # the first check matches k3_coefficient's; both come before any row
    if _check_int(args.m_max, 2, "m-max") > thresholds.K3_SCAN_LIMIT:
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
    k = _check_int(_finite(args.k), 1, "k")
    n_weight = _check_int(args.N, 0, "N")
    if k > orbifold.EXACT_ORDER_LIMIT:  # before the zeros of every row
        raise DomainError("summands takes k <= EXACT_ORDER_LIMIT = %d: each "
                          "row prints all k entries of l"
                          % orbifold.EXACT_ORDER_LIMIT)
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


def _exact_order(command, k):  # the order of an exact-only evaluation
    if _finite(k) > orbifold.EXACT_ORDER_LIMIT:
        raise DomainError("%s is exact only, for k <= %d; chi --float "
                          "evaluates numerically beyond"
                          % (command, orbifold.EXACT_ORDER_LIMIT))
    return k


# -- the command table and its parser ----------------------------------------

_REQUIRED = "required"  # the default of an option that must be given


class _Option:
    """One --name option.  convert turns its text into the value, raising
    ValueError if it is malformed (_FORMS names the form); a flag (convert
    None) takes no value and is True when given.  text is how usage and help
    show it, and excludes names the one option it may not be given with."""

    __slots__ = ("flag", "dest", "convert", "default", "help", "text",
                 "excludes")

    def __init__(self, name, convert, default, help, metavar=None, dest=None,
                 excludes=None):
        self.flag, self.dest = "--" + name, dest or name.replace("-", "_")
        self.convert, self.default, self.help = convert, default, help
        self.text = self.flag if convert is None else "%s %s" % (
            self.flag, metavar or name.upper().replace("-", "_"))
        self.excludes = excludes and "--" + excludes


_HELP = _Option("help", None, False, "show this help message and exit")


class _UsageError(Exception):
    """A malformed command line, as (command or None, message): exit 2."""


def build_parser():
    """The command table, {name: (handler, output columns, help line,
    options)}, in the order help lists them."""
    fmt = _Option("format", _parse_format, "table", "output format",
                  metavar="{%s}" % ",".join(_FORMATS))
    num = _Option("float", None, False,
                  "12-digit printing; chi also evaluates numerically")
    pair = _Option("pair", str, _REQUIRED, "JSON pair description",
                   metavar="FILE")
    k = _Option("k", _parse_order, _REQUIRED, "jet order")
    return {
        "chi": (_cmd_chi, ["chi"], "Euler-characteristic coefficient chi_k",
                (fmt, num, pair, k)),
        "leading": (_cmd_leading,
                    ["k", "chi", "leading_scale", "canonical_positive"],
                    "chi_k with its Riemann-Roch scale", (fmt, num, pair, k)),
        "segre": (_cmd_segre, ["segre"],
                  "total Segre class of the order-k bundle", (fmt, pair, k)),
        "canonical": (_cmd_canonical, ["class", "positive"],
                      "order-k canonical class (k may be inf)", (fmt, pair, k)),
        "table1": (_cmd_table1, _THRESHOLD_COLUMNS,
                   "minimal ramification orders by degree", (fmt, num)),
        "minmult": (_cmd_minmult, _THRESHOLD_COLUMNS,
                    "minimal order for one plane degree", (fmt, num, _Option(
                        "d", int, _REQUIRED, "plane curve degree"))),
        "lines": (_cmd_lines, _THRESHOLD_COLUMNS,
                  "minimal equal degree for c components", (fmt, num, _Option(
                      "c", int, None, "one component count",
                      excludes="c-max"), _Option(
                      "c-max", int, 11, "scan the counts 4..C_MAX",
                      excludes="c"))),
        "k3scan": (_cmd_k3scan, ["m", "coefficient", "ratio"],
                   "trivial-canonical coefficient scan", (fmt, num, _Option(
                       "m-max", int, 200, "scan the orders 2..M_MAX"))),
        "gysin": (_cmd_gysin, ["defect", "coefficient"],
                  "flag-bundle Gysin coefficient", (fmt, num, _Option(
                      "n", int, _REQUIRED, "dimension"), _Option(
                      "lambda", _parse_ints, _REQUIRED, "partition, e.g. 2,2,1",
                      dest="lam"))),
        "pieri": (_cmd_pieri, ["multiplicity", "parts"],
                  "Schur decomposition of Sym powers", (fmt, _Option(
                      "degrees", _parse_ints, _REQUIRED, "e.g. 2,1"))),
        "summands": (_cmd_summands, ["l", "summand", "coefficients"],
                     "graded jet-bundle summands", (fmt, pair, k, _Option(
                         "N", int, _REQUIRED, "weighted degree"))),
    }


def _parse(commands, argv):
    """(command, args) for argv, or (command, None) when help was asked for,
    command None for the top level.  An option is --name VALUE or
    --name=VALUE, name any unique prefix; the last of repeated options wins."""
    if not argv:
        raise _UsageError(None, "the following arguments are required: command")
    name = argv[0]
    if name in ("-h", "--help"):
        return None, None
    if name not in commands:
        raise _UsageError(None, "argument command: invalid choice: %r (choose "
                          "from %s)" % (name, ", ".join(commands)))
    options = commands[name][3]
    by_flag = {o.flag: o for o in options + (_HELP,)}
    values = {o.dest: o.default for o in options}
    given = set()
    rest = iter(argv[1:])
    for arg in rest:
        flag, eq, text = arg.partition("=")
        if flag not in by_flag and flag.startswith("--") and flag != "--":
            matches = [f for f in by_flag if f.startswith(flag)]
            if len(matches) > 1:
                raise _UsageError(name, "ambiguous option: %s could match %s"
                                  % (flag, ", ".join(matches)))
            flag = matches[0] if matches else flag
        option = _HELP if arg == "-h" else by_flag.get(flag)
        if option is None:
            raise _UsageError(name, "unrecognized arguments: %s" % arg)
        if option.convert is None:  # a flag
            if eq:
                raise _UsageError(name, "argument %s: ignored explicit "
                                  "argument %r" % (flag, text))
            if option is _HELP:
                return name, None
            value = True
        else:
            if not eq:
                text = next(rest, None)
                # a value may start with "-" only as a number, as in --k -3
                if text is None or text[:1] == "-" and not text[1:2].isdigit():
                    raise _UsageError(name, "argument %s: expected one "
                                      "argument" % flag)
            try:
                value = option.convert(text)
            except ValueError:  # _FORMS names the form convert expects
                raise _UsageError(name, "argument %s: expected %s, got %r" % (
                    flag, _FORMS[option.convert], text)) from None
        if option.excludes in given:
            raise _UsageError(name, "argument %s: not allowed with argument "
                              "%s" % (flag, option.excludes))
        given.add(flag)
        values[option.dest] = value
    missing = [o.flag for o in options if values[o.dest] is _REQUIRED]
    if missing:
        raise _UsageError(name, "the following arguments are required: %s"
                          % ", ".join(missing))
    return name, SimpleNamespace(**values)


def _usage(commands, name):
    if name is None:
        return "usage: orbichern [-h] {%s} ...\n" % ",".join(commands)
    return "usage: orbichern %s [-h] %s\n" % (name, " ".join(
        o.text if o.default is _REQUIRED else "[%s]" % o.text
        for o in commands[name][3]))


def _help(commands, name):
    """The usage line, a title and one aligned line per command or option."""
    if name is None:
        title = "Characteristic-class invariants of smooth orbifold pairs"
        heading = "commands"
        rows = [(command, entry[2]) for command, entry in commands.items()]
    else:
        title, heading = commands[name][2], "options"
        rows = [("-h, --help", _HELP.help)] + [
            (o.text, o.help if o.default in (None, False, _REQUIRED)
             else "%s (default %s)" % (o.help, o.default))
            for o in commands[name][3]]
    width = max(len(left) for left, _ in rows)
    return "%s\n%s\n\n%s:\n%s" % (_usage(commands, name), title, heading, "".join(
        "  %-*s  %s\n" % (width, left, right) for left, right in rows))


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
    commands = build_parser()
    try:
        name, args = _parse(commands, argv)
    except _UsageError as exc:
        command, message = exc.args
        err.write("%sorbichern%s: error: %s\n" % (
            _usage(commands, command), command and " " + command or "",
            message))
        return 2
    if args is None:
        out.write(_help(commands, name))
        return 0
    fn, columns = commands[name][:2]
    try:
        if hasattr(args, "pair"):
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
            _emit(fn(args), columns, args.format, out)
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
