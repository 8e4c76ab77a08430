"""Record the reference outputs that `workloads.py` has no closed form for.

    python3 bench/record.py

Runs each fixed command in-process through `orbichern.cli.run` from the
checkout's `src/` and writes `bench/references.json`.  The K3-like pair is
recorded from `chi_trivial_canonical_closed_form`, after checking that the CLI
prints the same value.  Only this script lifts the int-to-str digit limit;
measured and traced runs keep the default.  Run it once, on the commit whose
outputs are the reference; later commits are checked against the file.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile

import workloads

ROOT = os.path.dirname(workloads.HERE)


def main():
    sys.set_int_max_str_digits(0)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from orbichern import cli, load_pair
    from orbichern.orbifold import chi_trivial_canonical_closed_form

    refs = {}
    with tempfile.TemporaryDirectory(dir=workloads.HERE) as workdir:
        paths = workloads.write_pairs(workdir, workloads.PAIRS)

        def output(argv):
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(workloads.fill_argv(argv, paths), out=out, err=err)
            if code != 0:
                raise SystemExit("%s exited %d: %s" % (argv, code, err.getvalue()))
            return out.getvalue()

        for cid, argv in workloads.DEEP_CHI:
            refs[cid] = {"stdout": output(argv), "float": "--float" in argv}
        closed = chi_trivial_canonical_closed_form(load_pair(paths["k3"]), 4800)
        if refs["chi-k3-k4800"]["stdout"] != "%s\n" % closed:
            raise SystemExit("chi_k and the closed form disagree on the K3-like pair")
        refs["chi-k3-k4800"]["source"] = "chi_trivial_canonical_closed_form"
        sid, argv = workloads.SUMMANDS
        text = output(argv)
        refs[sid] = {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                     "chars": len(text)}

    with open(os.path.join(workloads.HERE, "references.json"), "w",
              encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
