"""Workloads of the benchmark: seeded orbichern command lists and their checks.

A workload is a list of CLI commands.  The seed shuffles their order and draws
the parameters that do not set the cost (small pair degrees and
multiplicities, `minmult` degrees, `gysin` partitions); orders, multiplicities
of the large pairs and the Pieri degree lists are fixed, because they set it
(the ascending list 1,...,8 takes 2.6 times as long as 8,...,1).

Every command has a check.  Where a closed form exists the check computes it
here, independently of the package; otherwise it compares against
`references.json`, written once from the seed library by `record.py`.  Exact
outputs must match character for character, `--float` outputs to a relative
1e-9.  A non-zero exit or a wrong output is a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("deep-chi", "shallow-scan", "schur")

# Fixed pairs.  The three chi orders of 4800 stay below k = 4967, where the
# exact output first exceeds Python's 4300-digit int-to-str limit.
PAIRS = {
    "p3": {"geometry": {"preset": "Pn", "n": 3},
           "components": [{"degree": 5, "mult": "3001"},
                          {"degree": 2, "mult": "inf"}]},
    "p2-m10000": {"geometry": {"preset": "P2"},
                  "components": [{"degree": 12, "mult": "10000"}]},
    "readme": {"geometry": {"preset": "P2"},
               "components": [{"degree": 12, "mult": "107"}]},
    "k3": {"geometry": {"preset": "surface", "c2": 24, "divisors": ["D"],
                        "kk": 0, "kd": [0], "dd": [[6]]},
           "components": [{"class": "D", "mult": "5"}]},
    "log-quintic": {"geometry": {"preset": "P2"},
                    "components": [{"degree": 5, "mult": "inf"}]},
}

# (command id, argv with {pair} placeholders) whose expected output is recorded.
DEEP_CHI = [
    ("chi-p3-k3000", ["chi", "--pair", "{p3}", "--k", "3000"]),
    ("chi-p2-m10000-k4800", ["chi", "--pair", "{p2-m10000}", "--k", "4800"]),
    ("chi-readme-k1000", ["chi", "--pair", "{readme}", "--k", "1000"]),
    ("chi-readme-k4800", ["chi", "--pair", "{readme}", "--k", "4800"]),
    ("chi-k3-k4800", ["chi", "--pair", "{k3}", "--k", "4800"]),
    ("chi-log-quintic-k1000000-float",
     ["chi", "--pair", "{log-quintic}", "--k", "1000000", "--float"]),
]
SUMMANDS = ("summands-readme-k12-n36",
            ["summands", "--pair", "{readme}", "--k", "12", "--N", "36"])
PIERI_DEGREES = ([6] * 6, [4] * 8, [8, 7, 6, 5, 4, 3, 2, 1])

# The 16 cells (d_lo, d_hi, a_min) of Table 1; d_hi None is unbounded.
TABLE1 = [
    (12, 12, 107), (13, 13, 44), (14, 14, 29), (15, 15, 22), (16, 16, 19),
    (17, 17, 16), (18, 18, 15), (19, 19, 13), (20, 21, 12), (22, 23, 11),
    (24, 25, 10), (26, 30, 9), (31, 38, 8), (39, 60, 7), (61, 245, 6),
    (246, None, 5)]


@dataclass(frozen=True)
class Command:
    id: str
    argv: list
    check: Callable[[str], bool]


def load_references():
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)


def write_pairs(workdir, pairs):
    """Write each pair description to workdir; returns {name: path}."""
    paths = {}
    for name, data in pairs.items():
        path = os.path.join(workdir, "pair-%s.json" % name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        paths[name] = path
    return paths


def build(workload, seed, workdir):
    """The workload's commands for this seed, in the order a pass runs them."""
    rng = random.Random("%s/%d" % (workload, seed))
    refs = load_references()
    if workload == "deep-chi":
        commands = _deep_chi(workdir, refs)
    elif workload == "shallow-scan":
        commands = _shallow_scan(workdir, rng)
    elif workload == "schur":
        commands = _schur(workdir, rng, refs)
    else:
        raise ValueError("unknown workload %r" % (workload,))
    rng.shuffle(commands)
    return commands


def judge(command, exit_code, stdout):
    """'ok', 'exit' (non-zero exit) or 'wrong' (the check rejected stdout)."""
    if exit_code != 0:
        return "exit"
    try:
        return "ok" if command.check(stdout) else "wrong"
    except (ValueError, IndexError, KeyError, ZeroDivisionError):
        return "wrong"


def fill_argv(argv, paths):
    """argv with each {pair} placeholder replaced by its file path."""
    return [paths[a[1:-1]] if a.startswith("{") else a for a in argv]


# -- deep-chi -------------------------------------------------------------------

def _deep_chi(workdir, refs):
    paths = write_pairs(workdir, PAIRS)
    return [Command(cid, fill_argv(argv, paths), _reference_check(refs[cid]))
            for cid, argv in DEEP_CHI]


def _reference_check(ref):
    if "sha256" in ref:
        return lambda out: (len(out) == ref["chars"]
                            and hashlib.sha256(out.encode()).hexdigest()
                            == ref["sha256"])
    if ref.get("float"):
        return lambda out: _close(float(out), float(ref["stdout"]))
    return lambda out: out == ref["stdout"]


def _close(x, y, rel=1e-9):
    return math.isclose(x, y, rel_tol=rel)


# -- shallow-scan -----------------------------------------------------------------

def chi2_quadratic(d, a):
    """chi_2 of the plane pair (d h, a), a > 2: 4a^2 chi_2 = A a^2 + B a + C."""
    return Fraction((2 * d * d - 27 * d + 48) * a * a - 12 * d * (d - 3) * a
                    + 12 * d * d, 4 * a * a)


def chi1_lines(c, d):
    """chi_1 of c multiplicity-2 plane components of degree d."""
    return 6 - Fraction(3, 2) * c * d + Fraction(c * (c - 3), 8) * d * d


def _rows(out):
    """Data rows of a table-format output, split on whitespace."""
    return [line.split() for line in out.splitlines()[1:]]


def _threshold_row(param, a, chi_at, chi_below):
    return [str(param), str(a), str(chi_at),
            "-" if chi_below is None else str(chi_below)]


def _min_order(d):
    a = 2
    while not (a * (d - 3) > 2 * d and chi2_quadratic(d, a) > 0):
        a += 1
    return a


def _check_minmult(d):
    if d < 12:
        return lambda out: _rows(out) == [[str(d), "none", "-", "-"]]
    a = _min_order(d)
    row = _threshold_row(d, a, chi2_quadratic(d, a), chi2_quadratic(d, a - 1))
    return lambda out: _rows(out) == [row]


def _check_table1(out):
    expected = []
    for d_lo, d_hi, a in TABLE1:
        label = ("%d-inf" % d_lo if d_hi is None else
                 str(d_lo) if d_hi == d_lo else "%d-%d" % (d_lo, d_hi))
        expected.append([label, str(a), str(chi2_quadratic(d_lo, a)),
                         str(chi2_quadratic(d_lo, a - 1))])
    return _rows(out) == expected


def _check_lines(out):
    expected = []
    for c in range(4, 12):
        d = 1
        while not (c * d > 6 and chi1_lines(c, d) > 0):
            d += 1
        expected.append(_threshold_row(c, d, chi1_lines(c, d),
                                       chi1_lines(c, d - 1) if d >= 2 else None))
    return _rows(out) == expected


def _check_k3scan(m_max):
    def check(out):
        rows = _rows(out)
        if len(rows) != m_max - 1:
            return False
        s = s2 = Fraction(0)
        for m, row in zip(range(2, m_max + 1), rows):
            s += Fraction(1, m)
            s2 += Fraction(1, m * m)
            cm = (s * s - s2) / 2 - Fraction(m - 1, 2 * m)
            if row[:2] != [str(m), str(cm)]:
                return False
            if cm <= 0:
                if row[2] != "-":
                    return False
            elif not _close(float(row[2]), math.pi ** 2 / (6 * float(cm))):
                return False
        return True
    return check


def _class_text(coeffs):
    """GradedClass text of sum c_q h^q: terms by degree, signs between."""
    parts = []
    for q, c in enumerate(coeffs):
        if not c:
            continue
        mono = "" if q == 0 else "h" if q == 1 else "h^%d" % q
        body = (str(abs(c)) if not mono else mono if abs(c) == 1
                else "%s %s" % (abs(c), mono))
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) or "0"


def _times(x, y):
    """Product of two classes in h, truncated above h^2."""
    return [sum(x[i] * y[q - i] for i in range(q + 1)) for q in range(3)]


def plane_segre(components, k):
    """Segre coefficients (1, s1, s2) of the order-k cotangent bundle of a
    plane pair; components are (degree, multiplicity or None for log)."""
    c = [Fraction(1), Fraction(-3), Fraction(3)]
    for d, m in components:
        if m is not None and m <= k:
            continue
        ratio = Fraction(0) if m is None else Fraction(k, m)
        c = _times(c, [Fraction(1), -ratio * d, Fraction(0)])
        c = _times(c, [Fraction(1), Fraction(d), Fraction(d * d)])
    return [Fraction(1), -c[1], c[1] * c[1] - c[2]]


def _shallow_scan(workdir, rng):
    d, a = rng.randint(4, 40), rng.randint(3, 200)
    d1, a1, d2 = rng.randint(1, 20), rng.randint(3, 200), rng.randint(1, 8)
    paths = write_pairs(workdir, {
        "small": {"geometry": {"preset": "P2"},
                  "components": [{"degree": d, "mult": str(a)}]},
        "small-log": {"geometry": {"preset": "P2"},
                      "components": [{"degree": d1, "mult": str(a1)},
                                     {"degree": d2, "mult": "inf"}]}})
    chi2 = str(chi2_quadratic(d, a))
    positive = "yes" if a * (d - 3) > 2 * d else "no"
    segre = _class_text(plane_segre([(d1, a1), (d2, None)], 2))
    canonical = [_class_text([0, d2 - 3]), "yes" if d2 > 3 else "no"]
    degrees = rng.sample(range(12, 2001), 2)
    commands = [
        Command("table1", ["table1"], _check_table1),
        Command("lines", ["lines"], _check_lines),
        Command("k3scan-m200", ["k3scan", "--m-max", "200"], _check_k3scan(200)),
        Command("minmult-d11", ["minmult", "--d", "11"], _check_minmult(11)),
        Command("chi-small-k2", ["chi", "--pair", paths["small"], "--k", "2"],
                lambda out: out == chi2 + "\n"),
        Command("leading-small-k2",
                ["leading", "--pair", paths["small"], "--k", "2"],
                lambda out: _rows(out) == [["2", chi2, "1/480", positive]]),
        Command("segre-small-log-k2",
                ["segre", "--pair", paths["small-log"], "--k", "2"],
                lambda out: out == segre + "\n"),
        Command("canonical-small-log-kinf",
                ["canonical", "--pair", paths["small-log"], "--k", "inf"],
                lambda out: out.splitlines()[1].rsplit(None, 1) == canonical),
    ]
    for i, deg in enumerate(degrees):
        commands.append(Command("minmult-seeded-%d" % (i + 1),
                                ["minmult", "--d", str(deg)],
                                _check_minmult(deg)))
    return commands


# -- schur -----------------------------------------------------------------------

def schur_dimension(parts, r):
    """Dimension of the Schur functor on C^r, by the hook-content formula."""
    num = den = 1
    columns = [sum(1 for p in parts if p > j) for j in range(max(parts, default=0))]
    for i, row in enumerate(parts):
        for j in range(row):
            num *= r + j - i
            den *= (row - j - 1) + (columns[j] - i - 1) + 1
    return num // den


def _check_pieri(degrees):
    r = len(degrees)
    expected = math.prod(math.comb(a + r - 1, r - 1) for a in degrees)

    def check(out):
        total = 0
        for line in out.splitlines()[1:]:
            mult, text = line.split(None, 1)
            parts = [] if text == "0" else [int(p) for p in text.split()]
            if (sum(parts) != sum(degrees) or len(parts) > r
                    or parts != sorted(parts, reverse=True)):
                return False
            total += int(mult) * schur_dimension(parts, r)
        return total == expected
    return check


def gysin_defect(n, parts):
    """Defect sum (j_{p+1} - j_p) j_p over the jumps of the padded partition."""
    padded = list(parts) + [0] * (n - len(parts))
    jumps = [i for i in range(1, n + 1)
             if padded[i - 1] > (padded[i] if i < n else 0)]
    fence = jumps + [n]
    return sum((fence[p + 1] - j) * j for p, j in enumerate(jumps))


def _random_partition(rng, n):
    while True:
        parts = sorted((rng.randint(1, 9) for _ in range(rng.randint(1, n))),
                       reverse=True)
        if len(parts) < n or len(set(parts)) > 1:  # non-constant once padded
            return parts


def _schur(workdir, rng, refs):
    paths = write_pairs(workdir, {"readme": PAIRS["readme"]})
    commands = [Command("pieri-" + "-".join(map(str, degrees)),
                        ["pieri", "--degrees", ",".join(map(str, degrees))],
                        _check_pieri(degrees))
                for degrees in PIERI_DEGREES]
    sid, argv = SUMMANDS
    commands.append(Command(sid, fill_argv(argv, paths),
                            _reference_check(refs[sid])))
    for i in range(2):
        parts = _random_partition(rng, 6)
        row = [str(gysin_defect(6, parts)), "0"]
        commands.append(Command("gysin-seeded-%d" % (i + 1),
                                ["gysin", "--n", "6",
                                 "--lambda", ",".join(map(str, parts))],
                                lambda out, row=row: _rows(out) == [row]))
    return commands
