"""Tests of the benchmark's own gates and span attribution.

Run from the repository root:  python3 -m pytest -q perfbench/test_gates.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def runner(tmp_path):
    return run.Runner("run-m2-gauss", 7, tmp_path / "work")


def test_shifted_reference_mean_counts_as_failed_operation(runner):
    mean = runner.inputs["doc"]["potential"]["mean"]
    good = runner.op()
    bad = runner.op(expected_mean=[mean[0] + 0.5, mean[1]])
    assert good["ok"], good["detail"]
    assert not bad["ok"]
    assert "exceeds" in bad["detail"]
    assert sum(not r["ok"] for r in runner.records) == 1


def test_same_seed_operations_must_match_byte_for_byte(runner):
    first = runner.op()
    runner.op()
    forged = dict(first, index=2, values={**first["values"], "metrics_sha": "0" * 64})
    runner._check_identity(forged)
    assert not forged["ok"]
    assert "differs from operation 0" in forged["detail"]


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return path


def test_sweep_gate_rejects_non_decreasing_w2_and_flat_slope(tmp_path):
    entries = [{"N": n, "mean_w2": w} for n, w in
               zip([256, 512, 1024, 2048], [0.11, 0.08, 0.081, 0.045])]
    ok, detail, _ = workloads.gate_sweep(
        _write(tmp_path / "a.json", {"entries": entries, "slope": -0.41}))
    assert not ok and "strictly decreasing" in detail
    entries[2]["mean_w2"] = 0.06
    ok, _, _ = workloads.gate_sweep(
        _write(tmp_path / "b.json", {"entries": entries, "slope": -0.41}))
    assert ok
    ok, detail, _ = workloads.gate_sweep(
        _write(tmp_path / "c.json", {"entries": entries, "slope": -0.05}))
    assert not ok and "slope" in detail


def test_oracle_gate_rejects_residual_and_disagreeing_starts(tmp_path):
    doc = {"tol": "1e-08"}
    residual = {"converged": True, "per_coordinate_w2": [5e-9, 1e-9],
                "init_agreement_w2": 3e-15, "sweeps": 7}
    ref = {"provenance": "grid-oracle", "residual": residual}
    assert workloads.gate_oracle(doc, _write(tmp_path / "a.json", ref))[0]
    residual["per_coordinate_w2"] = [2e-8]
    assert not workloads.gate_oracle(doc, _write(tmp_path / "b.json", ref))[0]
    residual["per_coordinate_w2"] = [5e-9]
    residual["init_agreement_w2"] = 1e-3
    assert not workloads.gate_oracle(doc, _write(tmp_path / "c.json", ref))[0]


def test_attribution_shares_add_up_to_the_root_with_a_thread_pool():
    main, a, b = 1, 2, 3
    recorded = [
        ["op", 0.0, 10.0, None, main],
        ["dynamics.step", 1.0, 3.0, 0, main],
        ["potentials.partial_cols", 1.5, 2.0, 1, main],
        ["harness.run_replications", 4.0, 9.0, 0, main],
        ["dynamics.run", 4.0, 8.0, 3, a],
        ["dynamics.drift", 5.0, 6.0, 4, a],
        ["dynamics.run", 4.5, 9.0, 3, b],
    ]
    shares = spans.attribute(recorded, 0)
    assert sum(shares.values()) == pytest.approx(10.0, abs=1e-12)
    # main thread alone: 0-1, 3-4, 9-10 to the root; 1-3 split by nesting
    assert shares[spans.ROOT] == pytest.approx(3.0)
    assert shares["dynamics.step"] == pytest.approx(1.5)
    assert shares["potentials.partial_cols"] == pytest.approx(0.5)
    # 4-4.5 thread a alone; 4.5-8 a and b share; 8-9 b alone; the waiting
    # main thread gets nothing while a worker runs
    assert shares.get("harness.run_replications", 0.0) == pytest.approx(0.0)
    assert shares["dynamics.drift"] == pytest.approx(0.5)
    assert shares["dynamics.run"] == pytest.approx(0.5 + 0.5 + 0.5 + 2.0 + 1.0)


def test_tracer_opens_one_span_for_a_super_call_chain():
    class Base:
        def f(self, x):
            return x + 1

    class Child(Base):
        def f(self, x):
            return super().f(x) * 2

    tracer = spans.Tracer()
    for cls in (Base, Child):
        tracer.wrap(cls, "f", "layer.f", lambda self, x: {"layer.f.calls": 1})
    assert tracer.call(spans.ROOT, Child().f, (3,), {}) == 8
    assert [s[0] for s in tracer.spans] == [spans.ROOT, "layer.f"]
    assert tracer.counts["layer.f.calls"] == 1
