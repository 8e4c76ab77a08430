import errno
import gc
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import pieri_degree_lists

from orbichern.cli import run
from orbichern.orbifold import OrbifoldPair, chi_k, cotangent_segre
from orbichern.pairfile import load_pair
from orbichern.partitions import decompose_sym_tensor, graded_summands
from orbichern.ring import projective_space

P2_PAIR = ('{"geometry": {"preset": "P2"},'
           ' "components": [{"degree": 12, "mult": "107"}]}')
ABELIAN_PAIR = ('{"geometry": {"preset": "abelian", "n": 2, "selfint": 6},'
                ' "components": [{"mult": "inf"}]}')


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def p2_file(tmp_path):
    path = tmp_path / "p2_c12_a107.json"
    path.write_text(P2_PAIR)
    return str(path)


@pytest.fixture()
def abelian_file(tmp_path):
    path = tmp_path / "abelian_log.json"
    path.write_text(ABELIAN_PAIR)
    return str(path)


def test_chi_command(p2_file):
    code, out, _ = invoke(["chi", "--pair", p2_file, "--k", "2"])
    assert code == 0
    assert out.strip() == "111/11449"


def test_chi_float_mode(p2_file):
    code, out, _ = invoke(["chi", "--pair", p2_file, "--k", "2", "--float"])
    assert code == 0
    assert out.strip() == "0.00969516988383"


def test_leading_command(p2_file):
    code, out, _ = invoke(["leading", "--pair", p2_file, "--k", "2",
                           "--format", "json"])
    assert code == 0
    row = json.loads(out)
    assert row == {"k": "2", "chi": "111/11449", "leading_scale": "1/480",
                   "canonical_positive": "yes"}


def test_segre_command(abelian_file):
    code, out, _ = invoke(["segre", "--pair", abelian_file, "--k", "1"])
    assert code == 0
    assert out.strip() == "1 - D"


def test_canonical_inf(abelian_file):
    code, out, _ = invoke(["canonical", "--pair", abelian_file, "--k", "inf",
                           "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["class,positive", "D,yes"]


def test_table1_csv(p2_file):
    code, out, _ = invoke(["table1", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "parameter,minimal_value,chi_at_min,chi_below_min"
    assert len(lines) == 17  # header + 16 cells
    assert lines[1].startswith("12,107,111/11449,")
    assert lines[-1].startswith("246-inf,5,")


def test_gysin_command():
    code, out, _ = invoke(["gysin", "--n", "2", "--lambda", "2,1",
                           "--format", "json"])
    assert code == 0
    row = json.loads(out)
    assert row["defect"] == "1" and row["coefficient"] == "0"


def test_pieri_command():
    code, out, _ = invoke(["pieri", "--degrees", "2,1", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["multiplicity,parts", "1,3", "1,2 1"]


def test_pieri_rows_match_sorted_terms():
    """`pieri` writes its rows from the packed keys, through the cached
    texts of their halves; they equal a rendering of the library's
    re-sorted `SchurExpansion.sorted_terms()`."""
    rng = random.Random(3003)
    lists = [[rng.randint(0, 5) for _ in range(rng.randint(1, 6))]
             for _ in range(30)]
    assert sum(0 in degrees for degrees in lists) >= 5
    for degrees in lists + [[300, 200, 7], [1] * 16] + pieri_degree_lists():
        argv = ["--degrees", ",".join(map(str, degrees)), "--format", "csv"]
        code, out, err = invoke(["pieri"] + argv)
        rows = ["%d,%s" % (mult, " ".join(map(str, lam.parts)) or "0")
                for lam, mult in decompose_sym_tensor(degrees).sorted_terms()]
        assert (code, err) == (0, "")
        assert out.splitlines() == ["multiplicity,parts"] + rows


def test_summands_command(p2_file):
    code, out, _ = invoke(["summands", "--pair", p2_file, "--k", "2",
                           "--N", "2", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0]["l"] == "2 0" and rows[1]["l"] == "0 1"
    assert "105/107" in rows[1]["coefficients"]
    # orders and factors shared between rows print the same text in each
    code, out, _ = invoke(["summands", "--pair", p2_file, "--k", "2",
                           "--N", "4", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == [
        "l,summand,coefficients",
        "4 0,S^4 Omega(1),order 1: 106/107",
        "2 1,S^2 Omega(1) (x) S^1 Omega(2),order 1: 106/107; order 2: 105/107",
        "0 2,S^2 Omega(2),order 2: 105/107",
    ]


TWO_COMPONENT_PAIR = ('{"geometry": {"preset": "P2"}, "components":'
                      ' [{"degree": 4, "mult": "3"},'
                      ' {"degree": 1, "mult": "inf"}]}')


def reference_summand_rows(pair, k, n_weight):
    """The summand rows formatted one by one from graded_summands."""
    rows = []
    for ell, factors in graded_summands(pair, k, n_weight):
        summand = " (x) ".join("S^%d Omega(%d)" % (lj, j)
                               for j, lj, _ in factors) or "trivial"
        coefficients = "; ".join(
            "order %d: %s" % (j, " ".join(str(t.coefficient) for t in profile))
            for j, _, profile in factors) or "-"
        rows.append({"l": " ".join(map(str, ell)), "summand": summand,
                     "coefficients": coefficients})
    return rows


@pytest.mark.parametrize("k,n_weight", [
    (1, 0), (1, 5), (2, 4), (3, 0), (3, 7), (4, 9), (6, 6), (7, 3), (9, 14),
    (25, 8)])
def test_summands_rows_match_graded_summands(tmp_path, k, n_weight):
    for name, text in (("p2", P2_PAIR), ("two", TWO_COMPONENT_PAIR)):
        path = tmp_path / ("%s.json" % name)
        path.write_text(text)
        code, out, err = invoke(["summands", "--pair", str(path), "--k",
                                 str(k), "--N", str(n_weight), "--format",
                                 "json"])
        assert code == 0 and err == ""
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows == reference_summand_rows(load_pair(str(path)), k,
                                              n_weight)


def test_summands_component_drops_out_below_k(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(TWO_COMPONENT_PAIR)
    code, out, _ = invoke(["summands", "--pair", str(path), "--k", "3",
                           "--N", "3", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == [
        "l,summand,coefficients",
        "3 0 0,S^3 Omega(1),order 1: 2/3 1",
        "1 1 0,S^1 Omega(1) (x) S^1 Omega(2),order 1: 2/3 1; order 2: 1/3 1",
        "0 0 1,S^1 Omega(3),order 3: 0 1",
    ]


@pytest.mark.parametrize("k,n_weight,count", [(500, 1, 1), (2000, 3, 3)])
def test_summands_large_order_small_weight(p2_file, k, n_weight, count):
    code, out, err = invoke(["summands", "--pair", p2_file, "--k", str(k),
                             "--N", str(n_weight), "--format", "csv"])
    assert code == 0 and err == ""
    rows = out.splitlines()[1:]
    assert len(rows) == count
    assert all(len(row.split(",")[0].split()) == k for row in rows)


@pytest.mark.parametrize("argv,message", [
    (["--k", "0", "--N", "2"], "error: k must be >= 1\n"),
    (["--k", "-3", "--N", "0"], "error: k must be >= 1\n"),
    (["--k", "2", "--N", "-1"], "error: weight must be >= 0\n"),
    (["--k", "inf", "--N", "2"], "error: this command needs a finite order\n"),
])
def test_summands_domain_errors(p2_file, argv, message):
    code, out, err = invoke(["summands", "--pair", p2_file] + argv)
    assert (code, out, err) == (3, "", message)


def test_minmult_no_solution():
    code, out, _ = invoke(["minmult", "--d", "8", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "8,none,-,-"


def test_lines_scan_json():
    code, out, _ = invoke(["lines", "--format", "json"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert {r["parameter"]: r["minimal_value"] for r in rows} == {
        "4": "11", "5": "6", "6": "4", "7": "3", "8": "2", "9": "2",
        "10": "2", "11": "1"}


def test_k3scan_row_values():
    code, out, _ = invoke(["k3scan", "--m-max", "6", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "2,-1/4,-"
    assert lines[4] == "5,23/120,8.58226469660"


def test_exit_code_malformed_pair(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"geometry": {"preset": "P2"},'
                   ' "components": [{"degree": 3, "mult": "1/2"}]}')
    code, _, err = invoke(["chi", "--pair", str(bad), "--k", "1"])
    assert code == 2
    assert "mult" in err


def test_exit_code_missing_file():
    code, _, err = invoke(["chi", "--pair", "no_such_file.json", "--k", "1"])
    assert code == 2 and err


def test_exit_code_unknown_flag():
    code, _, _ = invoke(["chi", "--bogus"])
    assert code == 2


def test_exit_code_domain_error():
    code, _, err = invoke(["minmult", "--d", "3"])
    assert code == 3 and "degree" in err
    # an interior zero is not a partition; trailing zeros are dropped
    for lam in ("1,0,1", "0,1", "2,0,2,0"):
        code, out, err = invoke(["gysin", "--n", "3", "--lambda", lam])
        assert code == 3 and out == "" and "must be positive" in err
    for lam, same in (("0", "0,0,0"), ("2,2,0", "2,2"), ("1,1,1,0", "1,1,1"),
                      (" 2, 2 ", "2,2")):  # spaces around a field are allowed
        code, out, _ = invoke(["gysin", "--n", "3", "--lambda", lam])
        assert code == 0 and out == invoke(["gysin", "--n", "3",
                                            "--lambda", same])[1]


def test_gysin_cap_is_checked_before_any_work():
    # a 10^30-slot padding would overflow; the cap is checked first
    code, out, err = invoke(["gysin", "--n", str(10 ** 30), "--lambda", "1"])
    assert code == 3 and out == ""
    assert "dimension capped at 6" in err


def test_exactness_threshold_needs_float_flag(abelian_file):
    code, _, err = invoke(["chi", "--pair", abelian_file, "--k", "20000"])
    assert code == 3 and "numeric" in err
    code, out, _ = invoke(["chi", "--pair", abelian_file, "--k", "20000",
                           "--float"])
    assert code == 0
    assert float(out) != 0


def test_exactness_threshold_names_the_cli_flag(p2_file):
    code, out, err = invoke(["chi", "--pair", p2_file, "--k", "10001"])
    assert code == 3 and out == ""
    assert "k <= 10000" in err and "--float" in err and "numeric" in err


@pytest.mark.parametrize("flags", [[], ["--float"]])
def test_leading_past_exact_limit_points_to_chi_float(p2_file, flags):
    # leading has no numeric path: --float changes only its printing
    code, out, err = invoke(["leading", "--pair", p2_file, "--k", "20000"]
                            + flags)
    assert code == 3 and out == ""
    assert "exact only" in err and "k <= 10000" in err and "chi --float" in err
    assert "numeric=True" not in err and "pass --float" not in err


@pytest.mark.parametrize("m_max", ["1", "0", "-5"])
def test_k3scan_below_first_coefficient_is_domain_error(m_max):
    code, out, err = invoke(["k3scan", "--m-max", m_max])
    assert (code, out, err) == (3, "", "error: m must be an integer >= 2\n")
    code, out, _ = invoke(["k3scan", "--m-max", "2", "--format", "csv"])
    assert code == 0 and out.splitlines()[1:] == ["2,-1/4,-"]


@pytest.mark.parametrize("c_max", ["3", "-5"])
def test_lines_scan_below_first_count_is_domain_error(c_max):
    code, out, err = invoke(["lines", "--c-max", c_max])
    assert (code, out, err) == (3, "", "error: c-max must be an integer >= 4\n")
    code, out, _ = invoke(["lines", "--c-max", "4", "--format", "csv"])
    assert code == 0 and out.splitlines()[1:] == ["4,11,1/2,-4"]


def test_lines_takes_one_count_or_a_scan_not_both():
    code, out, err = invoke(["lines", "--c", "5", "--c-max", "20"])
    assert code == 2 and out == ""
    assert "--c-max" in err and "not allowed with argument --c" in err


class FailingStream(io.StringIO):
    """A stdout whose writes fail with the given OSError."""

    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


@pytest.mark.parametrize("exc, message", [
    (BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),
    (OSError(errno.ENOSPC, "No space left on device"),
     "error: [Errno 28] No space left on device\n"),
])
def test_failed_write_exits_1(exc, message):
    err = io.StringIO()
    assert run(["table1"], out=FailingStream(exc), err=err) == 1
    assert err.getvalue() == message


@pytest.mark.parametrize("argv", [["minmult", "--d", "3"], ["chi", "--bogus"]],
                         ids=["domain-error", "usage-error"])
def test_failing_err_exits_1(argv):
    # the error report itself cannot be written; run() still returns
    err = FailingStream(OSError(errno.ENOSPC, "No space left on device"))
    assert run(argv, out=io.StringIO(), err=err) == 1


def test_exact_chi_prints_past_int_digit_limit(p2_file, tmp_path):
    # from k = 4967 on, the exact chi has more digits than Python's default
    # int-to-str limit, and so has the h^2 coefficient of segre with a
    # multiplicity of two 2,500-digit integers; the CLI lifts the limit
    # while a command runs, then restores it
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    before = get_limit() if get_limit else None
    mult = Fraction(5 * 10 ** 2499 + 1, 10 ** 2499 + 7)
    big = tmp_path / "p2_c5_big_mult.json"
    big.write_text(json.dumps({"geometry": {"preset": "P2"}, "components": [
        {"degree": 5, "mult": "%d/%d" % (mult.numerator, mult.denominator)}]}))
    runs = [invoke(["chi", "--pair", p2_file, "--k", "10000"]),
            invoke(["segre", "--pair", str(big), "--k", "3"])]
    assert get_limit is None or get_limit() == before
    geom = projective_space(2)
    h = geom.generator("h")
    expected = [chi_k(OrbifoldPair(geom, [(h * 12, 107)]), 10_000),
                cotangent_segre(OrbifoldPair(geom, [(h * 5, mult)]), 3)]
    if get_limit:
        sys.set_int_max_str_digits(0)
    try:
        for (code, out, err), value in zip(runs, expected):
            assert (code, err) == (0, "")
            assert len(out.strip()) > 4300 and out.strip() == str(value)
    finally:
        if get_limit:
            sys.set_int_max_str_digits(before)
    if get_limit:  # the pair is read under the limit: a longer mult is malformed
        big.write_text(json.dumps({"geometry": {"preset": "P2"}, "components": [
            {"degree": 5, "mult": "9" * 4400}]}))
        code, out, err = invoke(["segre", "--pair", str(big), "--k", "3"])
        assert code == 2 and out == "" and "components[0].mult" in err
        assert get_limit() == before


@pytest.mark.parametrize("argv", [
    ["chi", "--pair", "unused.json", "--k", "two"],
    ["gysin", "--n", "3", "--lambda", "2,x"],
    ["pieri", "--degrees", "1,,a"],
    ["table1", "--parallel", "1"],  # the no-op flag is gone
    ["segre", "--pair", "unused.json", "--k", "2", "--float"],  # it had no effect
    ["pieri", "--degrees", "2", "--float"],
    ["pieri", "--degrees", "2,,1"],  # every field must be an integer
    ["gysin", "--n", "3", "--lambda", "1,,1"],
    ["gysin", "--n", "3", "--lambda", "2,1,"],
    ["gysin", "--n", "3", "--lambda", ","],
    ["gysin", "--n", "3", "--lambda", ""],
])
def test_exit_code_malformed_argument(argv):
    code, out, err = invoke(argv)
    named = [a for a in argv if a.startswith("--")][-1]  # the offending flag
    assert code == 2
    assert out == "" and named in err  # usage error goes to run's err
    assert "_parse" not in err  # the expected form, not a private function name


def test_help_goes_to_out():
    code, out, err = invoke(["pieri", "--help"])
    assert code == 0 and "--degrees" in out and err == ""


def test_exit_code_pair_file_not_utf8(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, _, err = invoke(["chi", "--pair", str(bad), "--k", "1"])
    assert code == 2 and "utf-8" in err


def test_formats_carry_identical_content(p2_file):
    commands = [
        ["table1"],
        ["minmult", "--d", "12"],
        ["lines"],
        ["k3scan", "--m-max", "8"],
        ["gysin", "--n", "3", "--lambda", "2,2"],
        ["leading", "--pair", p2_file, "--k", "2"],
    ]
    for cmd in commands:
        _, csv_out, _ = invoke(cmd + ["--format", "csv"])
        _, json_out, _ = invoke(cmd + ["--format", "json"])
        csv_lines = [line.split(",") for line in csv_out.splitlines()]
        header, rows = csv_lines[0], csv_lines[1:]
        json_rows = [json.loads(line) for line in json_out.splitlines()]
        assert [[r[c] for c in header] for r in json_rows] == rows
    # the aligned table carries the same cells (none contain spaces here)
    _, table_out, _ = invoke(["table1"])
    _, csv_out, _ = invoke(["table1", "--format", "csv"])
    assert [line.split() for line in table_out.splitlines()] == \
        [line.split(",") for line in csv_out.splitlines()]


def test_output_is_deterministic(p2_file):
    first = invoke(["table1", "--format", "csv"])
    second = invoke(["table1", "--format", "csv"])
    assert first == second


# Every command pays for what `orbichern.cli` imports; none needs these.
HEAVY_MODULES = ("dataclasses", "inspect", "concurrent.futures")

# Commands that read no pair file and write no JSON; they need no `json`.
JSON_FREE = ("minmult", "gysin", "pieri", "table1")

# The public names of the package, fixed so that start-up work cannot drop
# or add one unnoticed.
PUBLIC_NAMES = [
    "ChiReport", "DomainError", "Geometry", "GeometryMismatch", "GradedClass",
    "INFINITE_ORDER", "JumpData", "Multiplicity", "NonUnitError",
    "OrbichernError", "OrbifoldPair", "PairFormatError", "Partition",
    "SchurExpansion", "TableRow", "ThresholdRecord", "abelian_variety",
    "canonical_k", "chi_k", "chi_leading_term",
    "chi_trivial_canonical_closed_form", "cotangent_chern", "cotangent_segre",
    "decompose_sym_tensor", "delta_k", "errors", "graded_summands", "gysin",
    "gysin_coefficient", "harmonic", "jump_data", "k3_coefficient",
    "k3_ratio_bound", "leading_scale", "line_arrangement_pair",
    "line_arrangement_threshold", "load_pair", "log_asymptotic_coefficient",
    "min_multiplicity_for_degree", "orbifold", "pairfile", "parse_pair",
    "partitions", "pieri_multiply", "projective_space", "ring",
    "schur_dimension", "serialize_pair", "smooth_curve_pair",
    "surface_with_invariants", "table1", "thresholds",
    "two_component_m2_predicate", "weighted_vectors"]

# Runs `python -m orbichern ARGS` through cli.run, then reports on stderr
# which of the modules named in argv[1] the process loaded.
_LOADED_AFTER_RUN = (
    "import sys; from orbichern.cli import run; "
    "watched = sys.argv[1].split(','); code = run(sys.argv[2:]); "
    "sys.stderr.write(','.join(m for m in watched if m in sys.modules)); "
    "sys.exit(code)")


@pytest.mark.parametrize("argv", [
    ["chi", "--pair", "{pair}", "--k", "2"],
    ["minmult", "--d", "12"],
    ["gysin", "--n", "3", "--lambda", "2,2,1"],
    ["pieri", "--degrees", "2,1"],
    ["summands", "--pair", "{pair}", "--k", "2", "--N", "4"],
    ["table1"],
], ids=lambda argv: argv[0])
def test_commands_do_not_import_heavy_modules(p2_file, argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [a.replace("{pair}", p2_file) for a in argv]
    watched = list(HEAVY_MODULES)
    # a site hook may load json before any orbichern code runs
    if argv[0] in JSON_FREE and subprocess.run(
            [sys.executable, "-c", "import sys; sys.exit('json' in sys.modules)"],
            env=env, timeout=60).returncode == 0:
        watched.append("json")
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_RUN, ",".join(watched)]
        + argv, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout
    assert result.stderr == ""


def test_public_names_are_stable():
    import orbichern
    assert orbichern.__all__ == PUBLIC_NAMES


# -- the installed entry point: `python -m orbichern` runs cli.main() ---------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def main_env(buffered=True):
    """The child's environment.  A piped stdout is block-buffered unless
    PYTHONUNBUFFERED is set, and a buffered write fails only when flushed,
    so the write-failure tests run both ways whatever the caller has set."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_main(argv, stdout=subprocess.PIPE, buffered=True):
    return subprocess.run([sys.executable, "-m", "orbichern"] + argv,
                          env=main_env(buffered), stdout=stdout,
                          stderr=subprocess.PIPE, timeout=60)


@pytest.mark.parametrize("argv, expected_code", [
    (["table1"], 0),
    (["chi", "--pair", "{pair}", "--k", "2"], 0),
    (["pieri", "--degrees", "2,1"], 0),
    (["gysin", "--n", "3", "--lambda", "2,2,1"], 0),
    (["k3scan", "--m-max", "8", "--format", "json"], 0),
    (["pieri", "--help"], 0),
    (["minmult", "--d", "3"], 3),
    (["chi", "--bogus"], 2),
], ids=lambda p: "-".join(p[:2]) if isinstance(p, list) else str(p))
def test_main_matches_run(p2_file, argv, expected_code):
    argv = [a.replace("{pair}", p2_file) for a in argv]
    code, out, err = invoke(argv)
    result = run_main(argv)
    assert result.returncode == code == expected_code
    assert result.stdout == out.encode()
    assert result.stderr == err.encode()


# Registers an atexit hook, runs cli.main() on argv[1:], and has the hook
# report the permanent generation's size after main() has flushed stdout.
_ATEXIT_AFTER_MAIN = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('atexit: frozen', gc.get_freeze_count() > 0))\n"
    "from orbichern.cli import main\n"
    "sys.argv[0] = 'orbichern'\n"
    "main()\n")


def test_main_exits_through_the_interpreter():
    # an atexit hook still runs after main(), so it is no os._exit
    result = subprocess.run(
        [sys.executable, "-c", _ATEXIT_AFTER_MAIN, "minmult", "--d", "12"],
        env=main_env(), capture_output=True, text=True, timeout=60)
    code, out, _ = invoke(["minmult", "--d", "12"])
    assert result.returncode == code == 0
    assert result.stdout == out + "atexit: frozen True\n"
    assert result.stderr == ""


def test_run_leaves_the_heap_unfrozen():
    before = gc.get_freeze_count()
    assert invoke(["table1"])[0] == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
def test_reader_closing_the_pipe_exits_1_quietly(p2_file, buffered):
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbichern", "summands", "--pair", p2_file,
         "--k", "12", "--N", "36"], env=main_env(buffered),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().startswith(b"l ")
        proc.stdout.close()  # the rows still to come have no reader
        err = proc.stderr.read()
    finally:
        proc.wait(timeout=60)
    proc.stderr.close()
    assert proc.returncode == 1
    assert err == b""


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
def test_closed_pipe_before_first_write_exits_1_quietly(buffered):
    # the output fits in stdout's buffer, so the write fails only on flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_main(["table1"], stdout=write_end, buffered=buffered)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses every write")
@pytest.mark.parametrize("argv, buffered", [
    (["table1"], True), (["table1"], False),
    # argparse swallows a failed write of its own; run() must still see it
    (["pieri", "--help"], True), (["pieri", "--help"], False),
], ids=["buffered", "unbuffered", "help-buffered", "help-unbuffered"])
def test_full_device_exits_1_with_message(argv, buffered):
    with open("/dev/full", "wb") as full:
        result = run_main(argv, stdout=full, buffered=buffered)
    assert result.returncode == 1
    assert result.stderr == b"error: [Errno 28] No space left on device\n"
