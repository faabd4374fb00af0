"""One benchmark operation in a fresh interpreter.

Usage: python3 worker.py SPEC_JSON

Sets up as ``pavi`` does (import, config load, potential build, reference
build or load), runs one ``cmd_run`` / ``cmd_sweep`` / ``cmd_oracle``, checks
its outputs, and writes a result JSON next to the spec.  With ``trace`` set in
the spec, the calls into every pavi layer are wrapped in spans first.
"""

import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import spans


def _setup(spec):
    t0 = time.perf_counter()
    from pavi import harness
    from pavi.potentials import potential_from_config

    t1 = time.perf_counter()
    doc = harness.load_config(spec["config"])
    pot = potential_from_config(doc["potential"])
    t2 = time.perf_counter()
    if spec["command"] != "oracle":
        harness.build_reference(doc.get("reference"), pot)
    t3 = time.perf_counter()
    timings = {"cli.import.s": t1 - t0, "harness.config.s": t2 - t1,
               "harness.reference.s": t3 - t2}
    return harness, doc, timings


def _operation(spec, harness, doc):
    out = Path(spec["out"])
    command = spec["command"]
    if command == "run":
        return lambda: harness.cmd_run(doc, out_dir=out, seed=spec["run_seed"])
    if command == "sweep":
        return lambda: harness.cmd_sweep(
            doc, out_dir=out, seed=spec["run_seed"], threads=doc["threads"]
        )
    return lambda: harness.cmd_oracle(doc, out_path=out / "reference.json")


def _gate(spec, doc):
    # imported only now: it loads numpy and scipy, whose import time belongs
    # to the set-up measurement of ``import pavi``
    import workloads

    out = Path(spec["out"])
    if spec["command"] == "run":
        return workloads.gate_run(spec["workload"], doc, out, spec.get("expected_mean"))
    if spec["command"] == "sweep":
        return workloads.gate_sweep(out / "sweep.json")
    return workloads.gate_oracle(doc, out / "reference.json")


def _layers(tracer, threads):
    root = 0
    shares = spans.attribute(tracer.spans, root)
    wall = tracer.spans[root][2] - tracer.spans[root][1]
    layer = {}
    for name, share in shares.items():
        key = "unattributed" if name == spans.ROOT else name.split(".")[0]
        layer[key] = layer.get(key, 0.0) + share
    out = {f"{name}.s": share for name, share in shares.items() if name != spans.ROOT}
    out.update({f"{key}.self_s": v for key, v in layer.items() if key != "unattributed"})
    out["unattributed.s"] = layer.get("unattributed", 0.0)
    out["trace.wall_s"] = wall
    out["trace.spans"] = len(tracer.spans)
    out.update(tracer.counts)
    replication = sum(
        s[2] - s[1] for s in tracer.spans
        if s[0] == "dynamics.run" and s[3] is not None
        and tracer.spans[s[3]][0] == "harness.run_replications"
    )
    out["harness.replication.s"] = replication
    out["harness.threads"] = threads
    return out


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    if spec["command"] == "prepare":
        from pavi import harness

        if "doc" in spec:
            harness.cmd_oracle(spec["doc"], out_path=spec["out"])
        Path(spec["result"]).write_text("{}")
        return
    harness, doc, setup = _setup(spec)
    op = _operation(spec, harness, doc)
    ready = time.monotonic()  # the parent took the spawn time on this clock
    from pavi.errors import PaviError

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    exit_code, error = 0, None
    start = time.perf_counter()
    try:
        if tracer is None:
            op()
        else:
            tracer.call(spans.ROOT, op, (), {})
    except PaviError as err:
        exit_code, error = err.exit_code, f"{type(err).__name__}: {err}"
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"ready": ready, "wall_s": wall, "peak_rss_mb": rss_mb,
              "exit_code": exit_code, "setup": setup}
    if exit_code == 0:
        ok, detail, values = _gate(spec, doc)
        result.update(ok=ok, detail=detail, values=values)
        if spec["command"] == "run":
            summary = json.loads((Path(spec["out"]) / "summary.json").read_text())
            result["wall_times"] = summary["wall_times"]
    else:
        result.update(ok=False, detail=error, values={})
    if tracer is not None:
        threads = int(doc.get("threads", 1))
        result["layers"] = _layers(tracer, threads)
        result["layers"].update(setup)
        with open(Path(spec_path).with_suffix(".spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    if result["ok"]:
        shutil.rmtree(spec["out"], ignore_errors=True)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    try:
        main(sys.argv[1])
    except Exception:
        traceback.print_exc()
        sys.exit(1)
