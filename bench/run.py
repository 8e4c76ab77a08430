"""End-to-end and per-layer benchmark of the orbichern CLI.

    python3 bench/run.py --workload deep-chi --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; it uses the checkout's `src/` and needs
nothing installed.  Each command runs as `python -m orbichern ...` in a fresh
interpreter, one at a time (a closed loop with one client), in an
environment holding only PYTHONPATH=<checkout>/src and PYTHONHASHSEED=0, so
no int-to-str digit limit is lifted.  Passes over the
workload's command list repeat until the next one would end past --seconds
(at least one pass), and every output is checked (see workloads.py).

--trace 0 prints the end-to-end metrics:
  wall_s        wall time of one pass, interpreter starts included: the sum
                over the commands of each command's mean time
  slowest_op_s  the largest mean time of a command
  ok_ratio      commands that exited 0 with a correct output, over attempted
  peak_rss_mb   the largest median max-RSS of a command (os.wait4 rusage)
  setup_s       median wall time of a fresh interpreter that imports
                orbichern.cli, builds the parser and exits; three samples
                before every pass

The three times are scaled to a fixed host speed.  On the 2-core VM the
bounds were set on, the host alternates between two speeds about 1.45x apart
for seconds to minutes at a time (set-up samples cluster at 70-85 ms and
105-130 ms), so raw times of two 40-second runs differ by up to 40%
depending on the mix.  Before every command the benchmark times a fixed
pure-Python loop that does not touch orbichern (`reference_time`), and
multiplies each time by REFERENCE_S over the run's mean loop time.  A change
to orbichern moves the commands and not the loop, so it shows in full.  Means
rather than medians are taken per command because with two host speeds the
median jumps between them while the mean follows the mix, as the loop's
mean does.  The raw times are in the metadata line.

--trace 1 alternates untraced passes with passes whose commands run under
traced.py, and prints the per-layer metrics (PER_LAYER): calls, self and total
time of the package's public functions, work counts, and the tracing overhead
(scaled wall time of the traced passes over that of the untraced ones).  Self
time is a span's duration minus the part its child spans cover; `calls` and
`total_s` skip a span nested directly in one of the same name (`__sub__`
calls `__add__`).  Counts repeat exactly for a seed.

The last line of stdout is the result object; the line before it holds
metadata: Python version, nproc, git rev, seed, source line count of
src/orbichern/*.py and per-command exit codes.
"""

from __future__ import annotations

import argparse
import array
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import workloads

HERE = workloads.HERE
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Pair files, stdout and traces of this process; removed when main() ends.
WORKDIR = os.path.join(HERE, ".work", str(os.getpid()))
COMMAND_TIMEOUT_S = 120
# About the reference loop's mean time on that host, so scaled times read as
# seconds there.
REFERENCE_S = 0.03
SETUP_SAMPLES_PER_PASS = 3
SETUP_CODE = "import orbichern.cli as cli; cli.build_parser()"

END_TO_END = [("wall_s", "s"), ("slowest_op_s", "s"), ("ok_ratio", "ratio"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]

SUBCOMMANDS = ("chi", "leading", "segre", "canonical", "table1", "minmult",
               "lines", "k3scan", "pieri", "summands", "gysin")

PER_LAYER = [
    ("ring.mul.calls", "count"), ("ring.mul.self_s", "s"),
    ("ring.mul.term_pairs", "count"),
    ("ring.inverse.calls", "count"), ("ring.inverse.self_s", "s"),
    ("ring.add.calls", "count"), ("ring.add.self_s", "s"),
    ("ring.scale_degrees.calls", "count"), ("ring.scale_degrees.self_s", "s"),
    ("ring.integrate.calls", "count"), ("ring.integrate.self_s", "s"),
    ("ring.max_den_bits", "bits"),
    ("orbifold.cotangent_segre.calls", "count"),
    ("orbifold.cotangent_segre.self_s", "s"),
    ("orbifold.chi_k.calls", "count"), ("orbifold.chi_k.self_s", "s"),
    ("orbifold.chi_k.total_s", "s"), ("orbifold.chi_k.den_bits", "bits"),
    ("harmonic.harmonic_range.calls", "count"),
    ("harmonic.harmonic_range.self_s", "s"),
    ("harmonic.harmonic_range.terms", "count"),
    ("harmonic.diagonal_coefficient.calls", "count"),
    ("harmonic.diagonal_coefficient.self_s", "s"),
    ("harmonic.diagonal_coefficient.terms", "count"),
    ("thresholds.searches", "count"), ("thresholds.search.total_s", "s"),
    ("thresholds.chi_evals", "count"),
    ("thresholds.chi_evals_per_search", "ratio"),
    ("thresholds.k3_coefficient.calls", "count"),
    ("thresholds.k3_coefficient.total_s", "s"),
    ("partitions.pieri_multiply.calls", "count"),
    ("partitions.pieri_multiply.self_s", "s"),
    ("partitions.pieri_multiply.out_terms", "count"),
    ("partitions.weighted_vectors.calls", "count"),
    ("partitions.weighted_vectors.self_s", "s"),
    ("partitions.weighted_vectors.vectors", "count"),
    ("partitions.graded_summands.total_s", "s"),
    ("gysin.gysin_coefficient.calls", "count"),
    ("gysin.gysin_coefficient.self_s", "s"),
    ("pairfile.load_pair.calls", "count"), ("pairfile.load_pair.self_s", "s"),
    ("cli.run.self_s", "s"), ("cli.out_bytes", "bytes"),
] + [("cli.%s.total_s" % name, "s") for name in SUBCOMMANDS] + [
    ("trace.overhead_ratio", "ratio"),
]


def child_env():
    return {"PYTHONPATH": SRC, "PYTHONHASHSEED": "0"}


def run_child(argv, stdout_path):
    """Run argv to completion; returns (wall seconds, exit code, max RSS KiB).

    A command still running after COMMAND_TIMEOUT_S is killed and fails."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env(), cwd=WORKDIR)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def reference_time():
    """Wall time of a fixed loop of exact harmonic sums: the host's speed now."""
    start = time.perf_counter()
    for _ in range(36):
        total, seen = Fraction(0), {}
        for j in range(1, 200):
            total += Fraction(1, j)
            seen[j % 17] = total
    return time.perf_counter() - start


def setup_time():
    path = os.path.join(WORKDIR, "setup.out")
    elapsed, code, _ = run_child([sys.executable, "-c", SETUP_CODE], path)
    if code != 0:
        raise SystemExit("set-up failed: cannot import orbichern.cli from %s" % SRC)
    return elapsed


class Pass:
    """Timings, exit codes, verdicts and (when traced) layer stats of one pass."""

    def __init__(self):
        self.times, self.codes, self.verdicts, self.rss_kib = {}, {}, {}, {}
        self.reference_s = []
        self.out_bytes = 0
        self.stats = Counter()

    @property
    def wall_s(self):
        return sum(self.times.values())


def run_pass(commands, traced=False):
    result = Pass()
    stdout_path = os.path.join(WORKDIR, "stdout.txt")
    trace_path = os.path.join(WORKDIR, "trace.bin")
    for cmd in commands:
        if os.path.exists(trace_path):
            os.remove(trace_path)
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced.py"), trace_path]
        else:
            argv = [sys.executable, "-m", "orbichern"]
        result.reference_s.append(reference_time())
        elapsed, code, rss = run_child(argv + cmd.argv, stdout_path)
        with open(stdout_path, encoding="utf-8", errors="replace") as fh:
            out = fh.read()
        result.times[cmd.id] = elapsed
        result.codes[cmd.id] = code
        result.rss_kib[cmd.id] = rss
        result.verdicts[cmd.id] = workloads.judge(cmd, code, out)
        result.out_bytes += os.path.getsize(stdout_path)
        if traced and os.path.exists(trace_path):  # absent if the child crashed
            add_trace(result.stats, *read_trace(trace_path), cmd.argv[0])
    if traced:
        finish_stats(result)
    return result


def read_trace(path):
    """The header and the (name, parent, start, end) arrays traced.py wrote."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in "Hidd":
            arr = array.array(code)
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    return header, arrays


def add_trace(stats, header, arrays, subcommand):
    """Fold one command's spans and counts into stats."""
    names = header["names"]
    span_name, parent, start, end = arrays
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            covered[parent[i]] += dur[i]
    self_s = [0.0] * len(names)
    total_s = [0.0] * len(names)
    calls = [0] * len(names)
    chi = names.index("orbifold.chi_k")
    search = names.index("thresholds.search")
    for i in range(n):
        nid, p = span_name[i], parent[i]
        self_s[nid] += dur[i] - covered[i]
        if p < 0 or span_name[p] != nid:
            calls[nid] += 1
            total_s[nid] += dur[i]
        if p < 0:
            stats["cli.%s.total_s" % subcommand] += dur[i]
        if nid == chi:
            while p >= 0 and span_name[p] != search:
                p = parent[p]
            if p >= 0:
                stats["thresholds.chi_evals"] += 1
    for nid, name in enumerate(names):
        stats[name + ".calls"] += calls[nid]
        stats[name + ".self_s"] += self_s[nid]
        stats[name + ".total_s"] += total_s[nid]
    for key, value in header["counts"].items():
        if key.endswith("_bits"):
            stats[key] = max(stats[key], value)
        else:
            stats[key] += value


def finish_stats(result):
    stats = result.stats
    stats["thresholds.searches"] = stats["thresholds.search.calls"]
    searches = stats["thresholds.searches"]
    stats["thresholds.chi_evals_per_search"] = (
        stats["thresholds.chi_evals"] / searches if searches else 0)
    stats["cli.out_bytes"] = result.out_bytes


def measure(commands, seconds, trace):
    """Passes until the next would end past `seconds`: (untraced, traced)."""
    untraced, traced, setup = [], [], []
    setup_time()  # compiles the bytecode caches before anything is timed
    start = time.perf_counter()
    while True:
        if trace:
            untraced.append(run_pass(commands))
            traced.append(run_pass(commands, traced=True))
            rounds = len(traced)
        else:
            setup.extend(setup_time() for _ in range(SETUP_SAMPLES_PER_PASS))
            untraced.append(run_pass(commands))
            rounds = len(untraced)
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return untraced, traced, setup


def end_to_end_metrics(passes, setup):
    _, attempted, failed = summary(passes)
    scale = host_scale(passes)
    times = command_means(passes)
    return {
        "wall_s": scale * sum(times.values()),
        "slowest_op_s": scale * max(times.values()),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": max(
            statistics.median(p.rss_kib[cid] for p in passes) for cid in times
        ) / 1024,
        "setup_s": scale * statistics.median(setup),
    }


def host_scale(passes):
    """REFERENCE_S over the mean reference loop time of these passes."""
    return REFERENCE_S / statistics.mean(r for p in passes for r in p.reference_s)


def command_means(passes):
    """{command id: mean wall time over the passes}."""
    return {cid: statistics.mean(p.times[cid] for p in passes)
            for cid in passes[0].times}


def scaled_wall_s(passes):
    return host_scale(passes) * sum(command_means(passes).values())


def per_layer_metrics(untraced, traced):
    metrics = {}
    for name, unit in PER_LAYER:
        values = [p.stats[name] for p in traced]
        if unit == "s":
            metrics[name] = statistics.median(values)
        elif name != "trace.overhead_ratio":
            if len(set(values)) != 1:
                raise RuntimeError("count %s differs between traced passes: %s"
                                   % (name, values))
            metrics[name] = values[0]
    metrics["trace.overhead_ratio"] = scaled_wall_s(traced) / scaled_wall_s(untraced)
    return metrics


def summary(passes):
    """(no output was wrong, commands attempted, commands failed)."""
    verdicts = [v for p in passes for v in p.verdicts.values()]
    return ("wrong" not in verdicts, len(verdicts),
            sum(v != "ok" for v in verdicts))


def git_rev():
    """HEAD's commit from .git, without running git; 'unknown' outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines():
    total = 0
    for path in glob.glob(os.path.join(SRC, "orbichern", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def metadata(args, commands, passes):
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_rev": git_rev(), "source_lines": source_lines(),
        "passes": len(passes),
        "raw_pass_wall_s": [p.wall_s for p in passes],
        "reference_mean_s": statistics.mean(r for p in passes for r in p.reference_s),
        "host_scale": host_scale(passes),
        "commands": [{"id": c.id,
                      "argv": [os.path.relpath(a, ROOT) if os.path.isabs(a) else a
                               for a in c.argv],
                      "exit_codes": [p.codes[c.id] for p in passes],
                      "verdicts": sorted({p.verdicts[c.id] for p in passes}),
                      "raw_mean_s": statistics.mean(p.times[c.id] for p in passes)}
                     for c in commands],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orbichern", "cli.py")):
        print("error: no orbichern sources under %s" % SRC, file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        commands = workloads.build(args.workload, args.seed, WORKDIR)
        untraced, traced, setup = measure(commands, args.seconds, args.trace)
    finally:
        shutil.rmtree(WORKDIR)
    passes = untraced + traced
    if args.trace:
        metrics = per_layer_metrics(untraced, traced)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end_metrics(untraced, setup)
        units = dict(END_TO_END)
    correct, attempted, failed = summary(passes)
    print(json.dumps({"meta": metadata(args, commands, passes)}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
