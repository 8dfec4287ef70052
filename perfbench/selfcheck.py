#!/usr/bin/env python3
"""Checks the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It confirms that
  * BENCHMARK.json lists exactly the workloads run.py runs, each with a
    one-line reason, and perfbench/layer_map.json maps layer metrics to
    end-to-end metrics using only names BENCHMARK.json defines;
  * every metric the benchmark prints has the name and unit
    BENCHMARK.json gives it, end-to-end untraced and per-layer traced;
  * each workload passes the output check: against the stored outputs
    at seed 1, and serial == parallel at a held-out seed.

Each workload runs with --seconds 1 (one batch); about a minute in all.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (WORKLOADS)

HELD_OUT_SEED = 7
failures = []


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        return None, None
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def names_units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)

    workloads = [w["name"] for w in spec["workloads"]]
    check(sorted(workloads) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py: %s" % workloads)
    for w in spec["workloads"]:
        check(bool(w["why"].strip()) and "\n" not in w["why"],
              "%s has a one-line reason" % w["name"])

    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    entries = layer_map["map"]
    named = {n for e in entries for n in e["layer"]}
    moved = {n for e in entries for n in e["moves"]}
    mapped = {w for e in entries for w in e["workloads"]}
    check(named <= set(layers) | set(e2e),
          "layer map names only defined metrics: %s"
          % sorted(named - set(layers) - set(e2e)))
    check(moved <= set(e2e), "layer map moves only end-to-end metrics: %s"
          % sorted(moved - set(e2e)))
    check(mapped == set(workloads),
          "layer map covers exactly the workloads: %s" % sorted(mapped))

    for w in workloads:
        prov, res = bench(w, 1, 0)
        check(res is not None and res["correct"] and res["failed"] == 0
              and prov["reference"] == "stored",
              "%s seed 1: stored-output check passes" % w)
        check(res is not None and names_units(res["metrics"]) == e2e,
              "%s: end-to-end names and units match BENCHMARK.json" % w)

        prov, res = bench(w, 1, 1)
        check(res is not None and res["correct"] and res["failed"] == 0,
              "%s seed 1 traced: output check passes" % w)
        check(res is not None and names_units(res["metrics"]) == layers,
              "%s: per-layer names and units match BENCHMARK.json" % w)

        prov, res = bench(w, HELD_OUT_SEED, 0)
        check(res is not None and res["correct"] and res["failed"] == 0
              and prov["reference"] == "serial",
              "%s seed %d: serial == parallel check passes"
              % (w, HELD_OUT_SEED))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
