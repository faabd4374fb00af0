"""pavi benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Operations run one after another, each in a
fresh worker interpreter (``worker.py``) so that set-up time and peak RSS are
those of a ``pavi`` process.  The loop runs at least ``MIN_OPS`` operations
and starts no further one that would likely end past ``--seconds``.  It
checks every output and prints each metric with its unit and sample count,
then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` untraced and traced operations alternate; the metrics are
the per-layer ones, averaged over the traced operations, plus the tracing
overhead (median traced minus median untraced wall time).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
MIN_OPS = 4  # two operations per run seed, so metrics.jsonl identity is checked
OP_TIMEOUT_S = 120
RUN_LIMIT_S = 170  # from start: workers still running then are stopped (runs end by 180 s)
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def machine():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_ENV,
    }


class Runner:
    """Spawns worker operations for one workload and keeps their records."""

    def __init__(self, name, seed, work_dir):
        self.workload = workloads.WORKLOADS[name]
        self.work_dir = Path(work_dir)
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        self.inputs = workloads.make_inputs(name, seed, self.work_dir)
        self.config = self.work_dir / "config.json"
        self.config.write_text(json.dumps(self.inputs["doc"]))
        self.env = {**os.environ, **THREAD_ENV,
                    "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)])}
        self.records = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def _spawn(self, spec_path):
        timeout = max(0.1, min(OP_TIMEOUT_S, self.deadline - time.monotonic()))
        return subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
        )

    def prepare(self):
        """Untimed: compile and cache the imports, build the sweep's reference."""
        spec = {"command": "prepare", "result": str(self.work_dir / "prepare.json")}
        if "prepare" in self.inputs:
            spec.update(doc=self.inputs["prepare"], out=self.inputs["doc"]["reference"])
        path = self.work_dir / "prepare.spec.json"
        path.write_text(json.dumps(spec))
        proc = self._spawn(path)
        if proc.returncode != 0:
            raise RuntimeError(f"preparation failed:\n{proc.stderr[-2000:]}")

    def op(self, trace=False, **overrides):
        k = len(self.records)
        spec = {
            "workload": self.workload.name,
            "command": self.workload.command,
            "config": str(self.config),
            "out": str(self.work_dir / f"op{k}"),
            "result": str(self.work_dir / f"op{k}.result.json"),
            "run_seed": self.inputs["run_seeds"][k % len(self.inputs["run_seeds"])],
            "trace": bool(trace),
            **overrides,
        }
        path = self.work_dir / f"op{k}.json"
        path.write_text(json.dumps(spec))
        spawned = time.monotonic()
        try:
            proc = self._spawn(path)
            failure = None if proc.returncode == 0 else (
                f"worker exit {proc.returncode}: {proc.stderr.strip()[-1000:]}")
        except subprocess.TimeoutExpired as err:
            failure = f"worker stopped after {err.timeout:.1f} s"
        if failure is None:
            rec = json.loads(Path(spec["result"]).read_text())
            rec["setup_s"] = rec.pop("ready") - spawned
        else:
            rec = {"ok": False, "detail": failure, "values": {}}
        rec.update(index=k, trace=bool(trace), run_seed=spec["run_seed"])
        self._check_identity(rec)
        self.records.append(rec)
        return rec

    def _check_identity(self, rec):
        """metrics.jsonl of operations with the same run seed must be byte-identical."""
        sha = rec["values"].get("metrics_sha")
        if sha is None:
            return
        for prev in self.records:
            if prev["run_seed"] == rec["run_seed"] and prev["values"].get("metrics_sha"):
                if prev["values"]["metrics_sha"] != sha:
                    rec["ok"] = False
                    rec["detail"] = f"metrics.jsonl differs from operation {prev['index']}"
                return


def _median(values):
    return statistics.median(values) if values else math.nan


def end_to_end(runner):
    """Every end-to-end figure as {name: (value, unit, samples)}; None if undefined."""
    recs = [r for r in runner.records if "wall_s" in r and not r["trace"]]
    out = {
        "setup_s": (_median([r["setup_s"] for r in recs]), "s", len(recs)),
        "wall_s": (_median([r["wall_s"] for r in recs]), "s", len(recs)),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in recs]), "MB", len(recs)),
    }
    doc = runner.inputs["doc"]
    pci = workloads.pci(runner.workload.name, doc)
    out["ns_per_pci"] = (
        None if pci is None else (out["wall_s"][0] * 1e9 / pci, "ns", len(recs)))
    intervals = [1e3 * (b - a) for r in recs for a, b in
                 zip(r.get("wall_times", []), r.get("wall_times", [])[1:])]
    cuts = statistics.quantiles(intervals, n=100, method="inclusive") if intervals else None
    for q in (50, 95):
        out[f"interval_ms_p{q}"] = (cuts[q - 1], "ms", len(intervals)) if cuts else None
    by_seed = {}
    for r in recs:
        if r["values"].get("steady_w2") is not None:
            by_seed.setdefault(r["run_seed"], r["values"]["steady_w2"])
    out["steady_w2"] = (
        (statistics.fmean(by_seed.values()), "W2", len(by_seed)) if by_seed else None)
    return out


def per_layer(runner):
    """Per-layer figures averaged over the traced operations."""
    traced = [r for r in runner.records if r["trace"] and "layers" in r]
    plain = [r for r in runner.records if not r["trace"] and "wall_s" in r]
    if not traced:
        raise RuntimeError("no traced operation completed")
    keys = {k for r in traced for k in r["layers"]}
    mean = {k: statistics.fmean(r["layers"].get(k, 0.0) for r in traced) for k in keys}
    for r in traced:
        lay = r["layers"]
        parts = sum(v for k, v in lay.items() if k.endswith(".self_s")) + lay["unattributed.s"]
        if abs(parts - lay["trace.wall_s"]) > 1e-9 * max(1.0, lay["trace.wall_s"]):
            raise RuntimeError(
                f"operation {r['index']}: layer self times {parts!r} do not add up "
                f"to the traced wall time {lay['trace.wall_s']!r}")
    calls = mean.get("oracle.apply_transform.calls", 0.0)
    mean["oracle.transform_useful_ratio"] = (
        mean.get("oracle.transform.committed", 0.0) / calls if calls else 0.0)
    drift_bytes = mean.get("dynamics.drift.bytes_computed", 0.0)
    mean["dynamics.drift.ops_per_byte"] = (
        mean.get("dynamics.drift.flops_computed", 0.0) / drift_bytes if drift_bytes else 0.0)
    mean["harness.parallel_efficiency"] = (
        sum(r["layers"]["harness.replication.s"] for r in traced)
        / sum(r["layers"]["harness.threads"] * r["layers"]["trace.wall_s"] for r in traced))
    untraced = _median([r["wall_s"] for r in plain])
    mean["trace.untraced_wall_s"] = untraced
    mean["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - untraced
    return mean, len(traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pavi" / "__init__.py").is_file():
        print(f"error: no pavi sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = machine()
    print(f"machine: {json.dumps(info)}")
    print(f"workload: {args.workload} seed {args.seed} "
          f"({workloads.WORKLOADS[args.workload].why})")

    runner = Runner(args.workload, args.seed,
                    WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    runner.prepare()
    measure_from = time.monotonic()
    cycles = []  # spawn to result, per operation
    while True:
        now = time.monotonic()
        # stop before an operation that would likely end past --seconds, so a
        # run lasts about --seconds whatever the length of one operation
        if len(runner.records) >= MIN_OPS and (
                now - measure_from + statistics.median(cycles) > args.seconds):
            break
        if cycles and now + max(cycles) > runner.deadline:
            break
        rec = runner.op(trace=bool(args.trace) and len(runner.records) % 2 == 1)
        cycles.append(time.monotonic() - now)
        if not rec["ok"]:
            print(f"FAILED operation {rec['index']}: {rec['detail']}")

    attempted = len(runner.records)
    failed = sum(not r["ok"] for r in runner.records)
    print(f"failed_ops = {failed} count (of {attempted} attempted)")
    if not any("wall_s" in r and not r["trace"] for r in runner.records):
        print("error: no untraced operation completed; nothing to measure", file=sys.stderr)
        return 1
    figures = end_to_end(runner)
    for name, fig in figures.items():
        if fig is None:
            print(f"{name} = n/a on this workload")
        else:
            value, unit, n = fig
            print(f"{name} = {value:.6g} {unit} (n={n})")
    result = {"machine": info, "args": vars(args), "records": runner.records}
    if args.trace:
        layers, n_traced = per_layer(runner)
        for spec in bench["per_layer"]:
            print(f"{spec['name']} = {layers.get(spec['name'], 0.0):.6g} {spec['unit']} "
                  f"(mean of {n_traced} traced ops)")
        metrics = {s["name"]: {"value": layers.get(s["name"], 0.0), "unit": s["unit"]}
                   for s in bench["per_layer"]}
    else:
        metrics = {s["name"]: {"value": figures[s["name"]][0], "unit": s["unit"]}
                   for s in bench["end_to_end"]}
    result["metrics"] = metrics
    (runner.work_dir / "result.json").write_text(json.dumps(result, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
