"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

import json
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def workdir():
    os.makedirs(run.WORKDIR, exist_ok=True)
    yield run.WORKDIR
    shutil.rmtree(run.WORKDIR)


def _real_output(cmd):
    path = os.path.join(run.WORKDIR, "test-stdout.txt")
    _, code, _ = run.run_child([sys.executable, "-m", "orbichern"] + cmd.argv, path)
    with open(path, encoding="utf-8") as fh:
        return code, fh.read()


def _corrupt(text):
    i = next(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


@pytest.mark.parametrize("workload,cid", [
    ("shallow-scan", "chi-small-k2"), ("shallow-scan", "table1"),
    ("schur", "pieri-6-6-6-6-6-6"), ("schur", "gysin-seeded-1"),
    ("deep-chi", "chi-readme-k1000"),
])
def test_wrong_output_and_nonzero_exit_are_failures(workdir, workload, cid):
    cmd = next(c for c in workloads.build(workload, 3, workdir) if c.id == cid)
    code, out = _real_output(cmd)
    assert code == 0 and workloads.judge(cmd, 0, out) == "ok"
    assert workloads.judge(cmd, 0, _corrupt(out)) == "wrong"
    assert workloads.judge(cmd, 0, "") == "wrong"
    assert workloads.judge(cmd, 2, out) == "exit"

    passes = [run.Pass(), run.Pass()]
    passes[0].verdicts = {cid: "ok"}
    passes[1].verdicts = {cid: workloads.judge(cmd, 0, _corrupt(out))}
    assert run.summary(passes) == (False, 2, 1)
    passes[1].verdicts = {cid: workloads.judge(cmd, 2, out)}
    assert run.summary(passes) == (True, 2, 1)


def test_closed_forms_match_documented_values():
    # README: cotangent_segre of (12 h, 107) at order 1.
    segre = workloads.plane_segre([(12, 107)], 1)
    assert workloads._class_text(segre) == "1 - 951/107 h - 354882/11449 h^2"
    assert workloads.schur_dimension([2, 1], 3) == 8
    assert workloads.schur_dimension([], 4) == 1
    assert workloads.gysin_defect(3, [2, 2, 1]) == 2
    assert workloads.gysin_defect(4, [3, 3, 3, 3]) == 0


def test_seed_fixes_the_inputs(workdir):
    def argvs(seed):
        return [(c.id, c.argv) for c in workloads.build("schur", seed, workdir)]
    assert argvs(5) == argvs(5)
    assert argvs(5) != argvs(6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workdir, workload):
    commands = workloads.build(workload, 11, workdir)
    first, second = (run.run_pass(commands, traced=True) for _ in range(2))
    counts = [name for name, unit in run.PER_LAYER
              if unit != "s" and name != "trace.overhead_ratio"]
    assert [first.stats[n] for n in counts] == [second.stats[n] for n in counts]
    assert first.stats["cli.run.calls"] == len(commands)
    assert set(first.verdicts.values()) == {"ok"}


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
