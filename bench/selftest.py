"""Self-tests of the benchmark harness (not part of the package tests).

    python3 -m pytest -q bench/selftest.py
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import risfeed.cli  # noqa: E402,F401
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.GENERATORS)


def _bindings():
    return {(name, attr): obj for name, mod in list(sys.modules.items())
            if name == "risfeed" or name.startswith("risfeed.")
            for attr, obj in vars(mod).items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_a_pure_function_of_the_seed(workload):
    ops = [workloads.make_op(workload, 7, i) for i in range(12)]
    random.seed(1)      # the global generator must not matter
    again = [workloads.make_op(workload, 7, i) for i in reversed(range(12))]
    assert again[::-1] == ops
    assert [workloads.make_op(workload, 8, i) for i in range(12)] != ops


def test_wrappers_restore_the_original_bindings():
    before = _bindings()
    with spans.Tracer():
        during = _bindings()
        for key in [("risfeed.sweep", "build_T"),
                    ("risfeed.sweep", "ris_pattern"),
                    ("risfeed.cli", "write_pattern_csv"),
                    ("risfeed.cli", "main")]:
            assert during[key] is not before[key]
            assert during[key].__wrapped__ is before[key]
    assert all(_bindings()[k] is v for k, v in before.items())
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer():
            1 / 0
    assert all(_bindings()[k] is v for k, v in before.items())


def test_tail_has_ten_samples_beyond_it_and_is_never_below_the_median():
    assert bench.tail(list(range(1, 101))) == (90, 90.0, 10)
    assert bench.tail(list(range(1, 22))) == (11, 100 * 11 / 21, 10)
    assert bench.tail([4.0, 1.0, 3.0, 2.0]) == (2.0, 50.0, 2)


@pytest.mark.parametrize("workload,index", [("sweep_f", 0),
                                            ("mode_table", 3),
                                            ("report_files", 0)])
def test_traced_op_spans_nest_and_cover_its_layers(workload, index, tmp_path):
    op = workloads.make_op(workload, 1, index)
    tracer = spans.Tracer()
    tracer.op = index
    with tracer:
        codes, wall = bench.run_op(op, tmp_path)
    assert not bench.check_op(op, codes, tmp_path).errors
    got = tracer.spans
    for s in got:
        assert s.op == index and s.start <= s.end
        if s.parent is not None:
            p = got[s.parent]
            assert p.start <= s.start and s.end <= p.end
    selfs = spans.self_times(got)
    assert min(selfs) >= 0
    assert sum(selfs) <= wall * 1e9
    layers = {s.name.split(".")[0] for s in got}
    assert set(spans.EXERCISED[workload]) <= layers
    metrics = spans.layer_metrics(got, tracer.counts, 1)
    for layer in spans.EXERCISED[workload]:
        if f"{layer}.calls" in metrics:
            assert metrics[f"{layer}.calls"] >= 1
    if workload == "mode_table":
        assert metrics["patterns.calls"] == 0
    # only run_grid and optimize_f count as sweep self time
    assert (metrics["sweep.self_ms"] > 0) == (workload != "report_files")


def test_checks_reject_a_corrupted_output(tmp_path):
    op = workloads.make_op("report_files", 1, 0)
    codes, _ = bench.run_op(op, tmp_path)
    assert not bench.check_op(op, codes, tmp_path).errors
    pattern = tmp_path / "pattern.csv"
    rows = pattern.read_text().splitlines()
    peak = max(range(1, len(rows)), key=lambda i: float(rows[i].split(",")[1]))
    a, p, pn = rows[peak].split(",")
    rows[peak] = f"{a},{float(p) + 0.01:.6f},{pn}"
    pattern.write_text("\n".join(rows) + "\n")
    report = tmp_path / "report.json"
    report.write_text(report.read_text().replace('"sum_db": ',
                                                 '"sum_db": Infinity, "x": '))
    errors = bench.check_op(op, codes, tmp_path).errors
    assert any("pattern peak" in e for e in errors)
    assert any("invalid JSON" in e for e in errors)
