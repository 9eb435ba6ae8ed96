"""Self-tests of the benchmark's traced counts, oracles and output contract.

    python3 -m pytest bench/test_bench.py -q

They assert today's brute-force validation: every validate call on a new
complex classifies all n(n-1)/2 pairs. A broad phase in validate is expected
to break that identity (and only that one); the run-time checks in run.py
hold for any validate.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import run
from spans import PATHS, Tracer, attribute_snapshot, unwrapped_problems
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))

SEED = 7


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def prepared(request, tmp_path_factory):
    workload = WORKLOADS[request.param]
    _, lib, cases = run.setup(workload, SEED, str(tmp_path_factory.mktemp("w")))
    return workload, lib, cases[:3]


def _traced_op(tracer, workload, lib, case):
    start = len(tracer.validations)
    paths_before = {p: list(tracer.paths[p]) for p in PATHS}
    tracer.install()
    try:
        result = workload.op(lib, case.payload)
    finally:
        tracer.uninstall()
    tracer.end_op()
    delta = {p: [a - b for a, b in zip(tracer.paths[p], paths_before[p])]
             for p in PATHS}
    return result, tracer.validations[start:], delta


def test_traced_counts_add_up_on_two_consecutive_ops(prepared):
    workload, lib, cases = prepared
    tracer = Tracer(lib.layers, lib.modules, lib.geometry.ContactKind.DISJOINT)
    case = cases[0]
    for _ in range(2):
        result, calls, delta = _traced_op(tracer, workload, lib, case)
        assert workload.check(result, workload.oracle(lib, case)) is None
        fresh = [c for c in calls if c[3]]
        assert fresh, "op validated nothing"
        # the op starts from text, so the memo is never hit on the first call
        for bricks, classified, _, _ in fresh:
            assert classified == bricks * (bricks - 1) // 2
        assert all(c[1] == 0 for c in calls if not c[3])
        assert sum(d[0] for d in delta.values()) == sum(
            b * (b - 1) // 2 for b, _, _, _ in fresh)
        assert sum(d[2] for d in delta.values()) == sum(c[2] for c in fresh)
    assert abs(tracer.self_sum() - tracer.library_s) < 1e-6


def test_tracer_wraps_while_installed_and_restores_every_attribute(prepared):
    _, lib, _ = prepared
    snapshot = attribute_snapshot(lib.modules)
    tracer = Tracer(lib.layers, lib.modules, lib.geometry.ContactKind.DISJOINT)
    tracer.install()
    try:
        wrapped = unwrapped_problems(lib.modules, snapshot)
        assert "bricks.complexes.classify_contact" in wrapped
        assert "bricks.cli.parse_complex" in wrapped
        assert "bricks.validate" in wrapped
    finally:
        tracer.uninstall()
    assert unwrapped_problems(lib.modules, snapshot) == []


def test_oracle_rejects_a_wrong_output(prepared):
    workload, lib, cases = prepared
    case = cases[0]
    result = workload.op(lib, case.payload)
    expected = workload.oracle(lib, case)
    assert workload.check(result, expected) is None
    if "stdout" in result:
        document = json.loads(result["stdout"])
        document["chi"] += 2
        bad = dict(result, stdout=json.dumps(document))
    else:
        bad = dict(result, chi=result["chi"] + 2)
    assert workload.check(bad, expected) is not None


def _main(*argv) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else {}


def test_output_names_every_metric_of_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result = _main("--workload", "skew-corpus", "--seed", "3",
                             "--seconds", "0", "--trace", str(trace))
        assert code == 0
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            name: m["unit"] for name, m in result["metrics"].items()}


def test_exits_nonzero_without_the_package(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code, result = _main("--workload", "rect-audit", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert code != 0 and result == {}
