"""risfeed benchmark: seeded CLI workloads, checked against oracles.

    python3 bench/run.py --workload sweep_f --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The package is imported from
``src/`` of that checkout and driven in-process through
``risfeed.cli.main``: one process, one client, a closed loop (an op
starts when the previous one has finished and been checked). BLAS is
pinned to one thread before numpy loads.

``--trace 0`` measures the end-to-end metrics. Times are divided by a
divisor made from the run's host speed index, from a reference kernel
timed between ops (see speed.py); the wall-clock values are reported
beside them.
``--trace 1`` runs each op twice, untraced and traced (alternating which
goes first), and reports the per-layer metrics derived from the spans
plus the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Details, provenance
and the spans go to ``.bench_results/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
from spans import EXERCISED, PER_LAYER, Tracer, layer_metrics  # noqa: E402
from speed import SpeedIndex  # noqa: E402
from workloads import GENERATORS, OUT_NAMES, make_op  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# cold interpreter starts per run; setup_s is their median. A sweep_f
# cold start takes seconds, the others a fraction of one.
SETUP_REPS = {"sweep_f": 5, "mode_table": 15, "report_files": 15}
COLD_TIMEOUT_S = 120

END_TO_END = (("op_ms_p50", "ms"), ("op_ms_tail", "ms"),
              ("points_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

COLD_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import risfeed.cli
for argv in json.loads(sys.argv[2]):
    rc = risfeed.cli.main(argv)
    if rc:
        sys.exit(rc)
"""


def _argv(cmd, out_dir):
    return list(cmd.argv) + ["--out", str(out_dir / OUT_NAMES[cmd.kind])]


def run_op(op, out_dir):
    """Run every command of an op; return (exit codes, wall seconds)."""
    import risfeed.cli
    out_dir.mkdir(parents=True, exist_ok=True)
    argvs = [_argv(c, out_dir) for c in op.commands]
    for argv in argvs:
        Path(argv[-1]).unlink(missing_ok=True)
    codes = []
    t0 = time.perf_counter()
    for argv in argvs:
        try:
            codes.append(risfeed.cli.main(argv))
        except Exception as exc:   # an uncaught error fails the op
            codes.append(f"{type(exc).__name__}: {exc}")
    return codes, time.perf_counter() - t0


def output_bytes(op, out_dir):
    out = {}
    for c in op.commands:
        path = out_dir / OUT_NAMES[c.kind]
        out[c.kind] = path.read_bytes() if path.exists() else None
    return out


def check_op(op, codes, out_dir):
    check = oracles.Check()
    for cmd, rc in zip(op.commands, codes):
        path = out_dir / OUT_NAMES[cmd.kind]
        if rc != 0:
            check.error(f"{cmd.kind}: exit {rc!r}")
        else:
            oracles.CHECKERS[cmd.kind](path, cmd.params, check)
    return check


def cold_run(op, out_dir):
    """Fresh interpreter: import risfeed.cli and run the op once."""
    out_dir.mkdir(parents=True, exist_ok=True)
    argvs = [_argv(c, out_dir) for c in op.commands]
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", COLD_CODE, str(SRC), json.dumps(argvs)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=COLD_TIMEOUT_S)
    return proc.returncode, time.perf_counter() - t0, proc.stderr


def tail(times):
    """Value at the highest percentile with >= 10 samples beyond it, but
    never below the median: with fewer than 21 samples that percentile
    would lie below the median, so the (lower) median is returned.

    Returns (value, percentile, samples beyond).
    """
    xs = sorted(times)
    j = max(len(xs) - 11, (len(xs) - 1) // 2)
    return xs[j], 100.0 * (j + 1) / len(xs), len(xs) - 1 - j


def blas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line})
        handles = [ctypes.CDLL(lib) for lib in libs]
    except OSError:
        return None
    for handle in handles:
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return int(fn())
    return None


def provenance(args, argv_digest):
    import numpy as np
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "risfeed").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ[v] for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv_sha256": argv_digest,
    }


def measure(args, tmp):
    """Set up, run ops for args.seconds, check them; return the result."""
    # set-up: fresh interpreters, then an untimed warm-up in this process;
    # all of them must write the same bytes (README promises reruns are
    # byte-identical)
    first = make_op(args.workload, args.seed, 0)
    tmp.mkdir(parents=True, exist_ok=True)
    cold, runs, pre_errors = [], [], []     # cold: wall seconds
    if not args.trace:
        speed = SpeedIndex(tmp / "speed.csv")
        for k in range(SETUP_REPS[args.workload]):
            speed.snap()
            rc, secs, err = cold_run(first, tmp / f"cold{k}")
            cold.append(secs)
            if rc != 0:
                pre_errors.append(f"cold run exited {rc}: "
                                  f"{err.decode()[-300:]}")
            runs.append(output_bytes(first, tmp / f"cold{k}"))
        speed.snap()
    run_op(first, tmp / "warm")
    ref = output_bytes(first, tmp / "warm")
    if any(r != ref for r in runs):
        pre_errors.append("cold and warm runs differ in output bytes")

    tracer = Tracer()
    plain_s, traced_s, ops, failures = [], [], [], []
    failed = points = nonfinite = 0
    defects = {}
    out_dir = tmp / "op"
    t_start = time.perf_counter()
    while not ops or time.perf_counter() - t_start < args.seconds:
        i = len(ops)
        op = make_op(args.workload, args.seed, i)
        ops.append(op)
        errors = list(pre_errors) if i == 0 else []
        if args.trace:
            tracer.op = i
            # alternate which pass goes first to cancel order effects
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    with tracer:
                        codes, secs = run_op(op, out_dir)
                    traced_s.append(secs)
                else:
                    plain_s.append(run_op(op, tmp / "plain")[1])
            tracer.check_accuracy()
            if output_bytes(op, out_dir) != output_bytes(op, tmp / "plain"):
                errors.append("traced output differs from untraced")
        else:
            speed.snap()
            codes, secs = run_op(op, out_dir)
            plain_s.append(secs)
        check = check_op(op, codes, out_dir)
        errors += check.errors
        if i == 0 and output_bytes(op, out_dir) != ref:
            errors.append("rerun differs in output bytes from the warm-up")
        for name, n in check.defects.items():
            defects[name] = defects.get(name, 0) + n
        nonfinite += check.nonfinite
        if errors:
            failed += 1
            failures.extend(f"op {i}: {e}" for e in errors)
        else:
            points += op.points

    n = len(ops)
    argv_digest = hashlib.sha256(json.dumps(
        [c.argv for op in ops for c in op.commands]).encode()).hexdigest()
    result = {"attempted": n, "failed": failed, "fail_frac": failed / n,
              "failures": failures[:20], "defects": defects,
              "nonfinite_cells": nonfinite,
              "provenance": provenance(args, argv_digest)}
    if args.trace:
        metrics = layer_metrics(tracer.spans, tracer.counts, n)
        for key in ("modes.sigma_min_rel_err", "modes.recon_resid",
                    "modes.orth_resid"):
            metrics[key] = tracer.worst.get(key, 0.0)
        metrics["modes.inf_cond_points"] = defects.get("inf_cond", 0) / n
        metrics["cli.nonfinite_cells"] = nonfinite / n
        metrics["trace.overhead_frac"] = (sum(traced_s) - sum(plain_s)) / sum(
            plain_s)
        metrics = {name: metrics[name] for name, *_ in PER_LAYER}
        result["silent_layers"] = [
            layer for layer in EXERCISED[args.workload]
            if not any(s.name.startswith(layer + ".") for s in tracer.spans)]
        result["spans"] = tracer.spans
    else:
        # divide out the host's speed (see speed.py)
        speed.snap()
        div = speed.divisor()
        ms = [t / div * 1e3 for t in plain_s]
        setup = [t / div for t in cold]
        tail_ms, pct, beyond = tail(ms)
        metrics = {
            "op_ms_p50": statistics.median(ms),
            "op_ms_tail": tail_ms,
            "points_per_s": points / sum(ms) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        raw_ms = [t * 1e3 for t in plain_s]
        result["wall"] = {
            "op_ms_p50": statistics.median(raw_ms),
            "op_ms_tail": tail(raw_ms)[0],
            "points_per_s": points / sum(plain_s),
            "setup_s": statistics.median(cold),
        }
        result["speed_index"] = {"value": speed.index(), "divisor": div,
                                 "snapshots": len(speed.snaps),
                                 "part_medians": speed.part_medians()}
        result["setup_wall_s"] = cold
        result["ops_wall_ms"] = raw_ms
        result["tail"] = {"percentile": pct, "beyond": beyond, "samples": n}
    result["metrics"] = metrics
    return result


def report(result, units):
    """Human-readable lines; the JSON summary follows them."""
    p = result["provenance"]
    print(f"risfeed benchmark: workload={p['workload']} seed={p['seed']} "
          f"trace={p['trace']} ops={result['attempted']} "
          f"failed={result['failed']} fail_frac={result['fail_frac']:.4g}")
    print("provenance: " + json.dumps(p, sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"  {name:30s} {value:16.6g} {units[name]}")
    if "tail" in result:
        t = result["tail"]
        print(f"  op_ms_tail is p{t['percentile']:.1f} of {t['samples']} ops "
              f"({t['beyond']} beyond)")
        sp = result["speed_index"]
        parts = ", ".join(f"{v:.3f}" for v in sp["part_medians"])
        print(f"  times above are divided by {sp['divisor']:.3f}; host speed "
              f"index {sp['value']:.3f} from {sp['snapshots']} snapshots "
              f"(part medians {parts}); wall-clock values:")
        for name, value in result["wall"].items():
            print(f"    {name:28s} {value:16.6g} {units[name]}")
    for name, count in result["defects"].items():
        print(f"  known defect {name}: {count} cells "
              f"({oracles.KNOWN_DEFECTS[name]})")
    print(f"  non-finite output cells: {result['nonfinite_cells']}")
    for layer in result.get("silent_layers", ()):
        print(f"  WARNING: layer {layer} recorded no calls")
    for line in result["failures"]:
        print(f"  FAIL {line}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "risfeed" / "cli.py").is_file():
        print(f"error: no risfeed sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import risfeed
    if Path(risfeed.__file__).resolve().parent != SRC / "risfeed":
        print(f"error: imported risfeed from {risfeed.__file__}",
              file=sys.stderr)
        return 1

    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        with open(out / f"{stem}-spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
    with open(out / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    units = dict(END_TO_END) | {name: unit for name, unit, *_ in PER_LAYER}
    report(result, units)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
