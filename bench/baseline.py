"""Repeat the benchmark over seeds and summarise each metric.

    python3 bench/baseline.py --seeds 10 [--trace-seeds 3] [--write]

Runs ``bench/run.py`` once per (workload, seed) for seeds 601, 602, ...,
one run at a time, and prints each end-to-end metric's median, quartiles,
spread (the interquartile range as a share of the median) and range
(max - min as a share of the median) next to its bound from
``BENCHMARK.json``. A spread above a third of the bound is flagged, and
so is a range above the bound.
``--trace-seeds`` adds traced runs for the per-layer medians. ``--write``
stores the summary, with provenance and the layer-to-metric map, in
``bench/baseline.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 601


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads((ROOT / ".bench_results" /
                         f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return json.loads(lines[-1]), detail


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "range": (max(values) - min(values)) / med if med else 0.0,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace-seeds", type=int, default=0)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(FIRST_SEED, FIRST_SEED + args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    ok = True
    for w in workloads:
        runs = [run(w, s, bench["run_seconds"], 0) for s in seeds]
        e2e = {}
        for name, bound in bounds.items():
            st = summarise([r[0]["metrics"][name]["value"] for r in runs])
            e2e[name] = st
            flag = ""
            if st["spread"] > bound / 3:
                flag, ok = flag + "  SPREAD ABOVE BOUND/3", False
            if st["range"] > bound:
                flag += "  RANGE ABOVE BOUND"
            print(f"{w:13s} {name:13s} median {st['median']:12.6g} "
                  f"q1 {st['q1']:12.6g} q3 {st['q3']:12.6g} "
                  f"spread {st['spread']:.4f} range {st['range']:.4f} "
                  f"bound {bound}{flag}")
        summary[w] = {
            "end_to_end": e2e,
            "attempted": [r[0]["attempted"] for r in runs],
            "failed": [r[0]["failed"] for r in runs],
            "fail_frac": [r[1]["fail_frac"] for r in runs],
            "known_defects": [r[1]["defects"] for r in runs],
            "nonfinite_cells": [r[1]["nonfinite_cells"] for r in runs],
            "tail": [r[1]["tail"] for r in runs],
        }
        if args.trace_seeds:
            traced = [run(w, s, bench["run_seconds"], 1)
                      for s in list(seeds)[:args.trace_seeds]]
            summary[w]["per_layer"] = {
                m["name"]: statistics.median(
                    t[0]["metrics"][m["name"]]["value"] for t in traced)
                for m in bench["per_layer"]}
        summary[w]["provenance"] = runs[0][1]["provenance"]
    if args.write:
        from spans import PER_LAYER
        out = {
            "seeds": list(seeds),
            "run_seconds": bench["run_seconds"],
            "workloads": summary,
            "layer_map": {name: {"unit": unit, "moves": moves}
                          for name, unit, _, moves in PER_LAYER},
        }
        (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
