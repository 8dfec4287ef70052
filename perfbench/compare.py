#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py A1.json [A2.json ...] -- B1.json [B2.json ...]

Each file is what the perfbench program writes to
.bench_build/out/<workload>.seed<N>.trace<T>.result.json (or a saved
stdout of perfbench/run.py): a provenance line, then the result line.
Prints each side's median per metric and B's change against A.

Refuses (exit 2) to compare results whose build type or host CPU count
differ, or that mix workloads or traced and untraced runs: such numbers
are not comparable.
"""

import json
import statistics
import sys


def load(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    prov = result = None
    for line in lines:
        doc = json.loads(line)
        if "provenance" in doc:
            prov = doc["provenance"]
        elif "metrics" in doc:
            result = doc
    if prov is None or result is None:
        sys.exit("compare: %s: no provenance or result line" % path)
    return prov, result


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    sides = [[load(p) for p in argv[:cut]], [load(p) for p in argv[cut + 1:]]]
    if not sides[0] or not sides[1]:
        sys.exit(__doc__)

    first = sides[0][0][0]
    for side in sides:
        for prov, _ in side:
            for key in ("build_type", "nproc", "workload", "trace"):
                if prov[key] != first[key]:
                    print("compare: refusing: %s differs (%r vs %r)"
                          % (key, first[key], prov[key]), file=sys.stderr)
                    return 2

    for i, side in enumerate(sides):
        bad = [p["seed"] for p, r in side if not r["correct"]]
        if bad:
            print("compare: side %s has failed runs (seeds %s)"
                  % ("AB"[i], bad), file=sys.stderr)

    print("%s, build %s, nproc %s, trace %s; A: %d run(s), B: %d run(s)"
          % (first["workload"], first["build_type"], first["nproc"],
             first["trace"], len(sides[0]), len(sides[1])))
    names = list(sides[0][0][1]["metrics"])
    for name in names:
        meds = []
        for side in sides:
            vals = [r["metrics"][name]["value"] for _, r in side
                    if name in r["metrics"]]
            meds.append(statistics.median(vals) if vals else float("nan"))
        unit = sides[0][0][1]["metrics"][name]["unit"]
        change = (meds[1] / meds[0] - 1.0) * 100.0 if meds[0] else float("nan")
        print("  %-32s A %-14.6g B %-14.6g %+7.2f%%  %s"
              % (name, meds[0], meds[1], change, unit))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
