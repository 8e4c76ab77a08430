"""Seeded command-line mutations: every argv ends in exit 0, 2 or 3.

Each case starts from a valid argv of one of the 11 commands and applies one
mutation to it: drop, duplicate or misspell an option; shorten it to a
prefix; join it to its value with "="; leave a trailing option with no
value; or give an option the value -inf, True, 2.0, the empty string, -5 or a
5,000-digit integer.  Whatever the mutation, the command exits 0, 2
(malformed input) or 3 (domain error), prints no traceback, and writes
nothing to stdout when it fails.

SEED and PER_COMMAND fix the cases: 11 x 30 = 330 of them.
"""

import io
import random

import pytest

from orbichern.cli import run

SEED = 2929
PER_COMMAND = 30

P2_PAIR = ('{"geometry": {"preset": "P2"},'
           ' "components": [{"degree": 12, "mult": "107"}]}')
ABELIAN_PAIR = ('{"geometry": {"preset": "abelian", "n": 2, "selfint": 6},'
                ' "components": [{"mult": "inf"}]}')

# One valid argv per command; "{p2}" and "{abelian}" stand for pair files.
VALID = {
    "chi": ["--pair", "{p2}", "--k", "2", "--format", "csv", "--float"],
    "leading": ["--pair", "{p2}", "--k", "2", "--format", "csv", "--float"],
    "segre": ["--pair", "{abelian}", "--k", "2", "--format", "csv"],
    "canonical": ["--pair", "{abelian}", "--k", "inf", "--format", "csv"],
    "table1": ["--format", "csv", "--float"],
    "minmult": ["--d", "12", "--format", "csv", "--float"],
    "lines": ["--c", "5", "--format", "csv", "--float"],
    "k3scan": ["--m-max", "6", "--format", "csv", "--float"],
    "gysin": ["--n", "3", "--lambda", "2,1", "--format", "csv", "--float"],
    "pieri": ["--degrees", "2,1", "--format", "csv"],
    "summands": ["--pair", "{p2}", "--k", "2", "--N", "3", "--format", "csv"],
}

VALUES = ["-inf", "True", "2.0", "", "-5", "9" * 5000]
MUTATIONS = ["drop", "duplicate", "misspell", "prefix", "equals", "trailing",
             "value"]


def _misspell(rng, flag):
    name = list(flag[2:])
    i = rng.randrange(len(name))
    how = rng.choice(["delete", "insert", "swap", "case"])
    if how == "delete" and len(name) > 1:
        del name[i]
    elif how == "swap" and len(name) > 1:
        j = (i + 1) % len(name)
        name[i], name[j] = name[j], name[i]
    elif how == "case" and name[i].isalpha():
        name[i] = name[i].swapcase()
    else:
        name.insert(i, rng.choice("abcxyz-"))
    return "--" + "".join(name)


def mutate(rng, argv):
    """(mutation name, argv with that one mutation applied)."""
    argv = list(argv)
    valued = [i for i, a in enumerate(argv[:-1])
              if a.startswith("--") and not argv[i + 1].startswith("--")]
    flags = [i for i, a in enumerate(argv) if a.startswith("--")]
    kind = rng.choice(MUTATIONS)
    i = rng.choice(flags)
    width = 2 if i in valued else 1  # the option and its value, if it has one
    if kind == "drop":
        del argv[i:i + width]
    elif kind == "duplicate":
        argv += argv[i:i + width]
    elif kind == "misspell":
        argv[i] = _misspell(rng, argv[i])
    elif kind == "prefix":
        argv[i] = argv[i][:rng.randint(3, len(argv[i]))]
    elif kind == "equals":
        tail = argv[i + 1] if width == 2 else rng.choice(VALUES)
        argv[i:i + width] = [argv[i] + "=" + tail]
    elif kind == "trailing":
        argv.append(argv[rng.choice(valued)])
    else:
        argv[rng.choice(valued) + 1] = rng.choice(VALUES)
    return kind, argv


def _cases():
    rng = random.Random(SEED)
    cases = []
    for command, argv in VALID.items():
        for n in range(PER_COMMAND):
            kind, mutated = mutate(rng, argv)
            cases.append(pytest.param([command] + mutated,
                                      id="%s-%d-%s" % (command, n, kind)))
    return cases


@pytest.fixture(scope="module")
def pair_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pairs")
    paths = {}
    for name, text in (("p2", P2_PAIR), ("abelian", ABELIAN_PAIR)):
        path = root / ("%s.json" % name)
        path.write_text(text)
        paths["{%s}" % name] = str(path)
    return paths


def test_valid_argvs_exit_0(pair_files):
    for command, argv in VALID.items():
        out, err = io.StringIO(), io.StringIO()
        argv = [pair_files.get(a, a) for a in argv]
        assert run([command] + argv, out=out, err=err) == 0, err.getvalue()
        assert out.getvalue() and err.getvalue() == ""


@pytest.mark.parametrize("argv", _cases())
def test_mutated_argv_keeps_the_exit_contract(pair_files, argv):
    out, err = io.StringIO(), io.StringIO()
    code = run([pair_files.get(a, a) for a in argv], out=out, err=err)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("usage: ", "error: "))
