"""Run one orbichern command with the package's public functions traced.

    python3 bench/traced.py TRACE_FILE COMMAND [ARGS...]

Needs `src/` on PYTHONPATH.  Wraps the functions and `GradedClass` methods
listed below in every orbichern module that binds them (modules import names
directly, so `thresholds.chi_k` is wrapped as well as `orbifold.chi_k`), then
calls `orbichern.cli.run(argv)` and exits with its code.  Spans are kept in
memory and written to TRACE_FILE at exit: one JSON header line (span names,
counts, span total) followed by four arrays in native byte order (name index
as `H`, parent index as `i`, start and end as `d`; parent -1 is the root).
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from collections import Counter


def _mul_counts(counts, args, result):
    a, b = args
    counts["ring.mul.term_pairs"] += len(a.coeffs) * len(getattr(b, "coeffs", (b,)))
    _max(counts, "ring.max_den_bits", result.coeffs.values())


def _chi_counts(counts, args, result):
    _max(counts, "orbifold.chi_k.den_bits", (result,))


def _range_counts(counts, args, result):
    counts["harmonic.harmonic_range.terms"] += max(0, args[1] - args[0] + 1)


def _diagonal_counts(counts, args, result):
    counts["harmonic.diagonal_coefficient.terms"] += args[0]


def _pieri_counts(counts, args, result):
    counts["partitions.pieri_multiply.out_terms"] += len(result)


def _vector_counts(counts, args, result):
    counts["partitions.weighted_vectors.vectors"] += len(result)


def _max(counts, key, values):
    """Raise counts[key] to the largest denominator bit length among values
    (floats from numeric mode have none)."""
    bits = max((v.denominator.bit_length() for v in values
                if not isinstance(v, float)), default=0)
    if bits > counts[key]:
        counts[key] = bits


# (module, function, span name, counter or None).  Entry points without a
# metric of their own (chi_leading_term, table1, jump_data, ...) still get a
# span, so that their time stays out of cli.run's self time.
FUNCTIONS = [
    ("cli", "run", "cli.run", None),
    ("pairfile", "load_pair", "pairfile.load_pair", None),
    ("orbifold", "chi_k", "orbifold.chi_k", _chi_counts),
    ("orbifold", "cotangent_segre", "orbifold.cotangent_segre", None),
    ("orbifold", "chi_leading_term", "orbifold.chi_leading_term", None),
    ("orbifold", "canonical_k", "orbifold.canonical_k", None),
    ("harmonic", "harmonic_range", "harmonic.harmonic_range", _range_counts),
    ("harmonic", "diagonal_coefficient", "harmonic.diagonal_coefficient",
     _diagonal_counts),
    ("thresholds", "table1", "thresholds.table1", None),
    ("thresholds", "min_multiplicity_for_degree", "thresholds.search", None),
    ("thresholds", "line_arrangement_threshold", "thresholds.search", None),
    ("thresholds", "k3_coefficient", "thresholds.k3_coefficient", None),
    ("thresholds", "k3_ratio_bound", "thresholds.k3_ratio_bound", None),
    ("partitions", "pieri_multiply", "partitions.pieri_multiply", _pieri_counts),
    ("partitions", "weighted_vectors", "partitions.weighted_vectors",
     _vector_counts),
    ("partitions", "decompose_sym_tensor", "partitions.decompose_sym_tensor", None),
    ("partitions", "graded_summands", "partitions.graded_summands", None),
    ("gysin", "gysin_coefficient", "gysin.gysin_coefficient", None),
    ("gysin", "jump_data", "gysin.jump_data", None),
]

# GradedClass method -> (span name, counter); both halves of each alias.
METHODS = {
    "__mul__": ("ring.mul", _mul_counts),
    "__rmul__": ("ring.mul", _mul_counts),
    "__add__": ("ring.add", None),
    "__radd__": ("ring.add", None),
    "__sub__": ("ring.add", None),
    "inverse": ("ring.inverse", None),
    "scale_degrees": ("ring.scale_degrees", None),
    "integrate": ("ring.integrate", None),
}


class Tracer:
    """In-memory spans of one process, appended by the wrappers it makes."""

    def __init__(self):
        self.names = []
        self.counts = Counter()
        self.span_name = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = []

    def wrap(self, name, fn, counter=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        span_name, parent, start, end = (self.span_name, self.parent,
                                         self.start, self.end)
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result
        return traced

    def write(self, path):
        header = {"names": self.names, "counts": dict(self.counts),
                  "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(tracer):
    """Wrap every listed function wherever an orbichern module binds it."""
    import orbichern.cli  # noqa: F401  (with the package, every submodule)
    from orbichern.ring import GradedClass

    modules = [m for name, m in sys.modules.items()
               if name == "orbichern" or name.startswith("orbichern.")]
    for module, attr, name, counter in FUNCTIONS:
        original = getattr(sys.modules["orbichern." + module], attr)
        wrapper = tracer.wrap(name, original, counter)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    for attr, (name, counter) in METHODS.items():
        setattr(GradedClass, attr,
                tracer.wrap(name, getattr(GradedClass, attr), counter))


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from orbichern import cli
    try:
        code = cli.run(argv)
    finally:
        sys.stdout.flush()
        tracer.write(trace_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
