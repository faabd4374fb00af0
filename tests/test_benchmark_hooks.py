"""The traced benchmark in perfbench/ wraps pavi functions by name.

These checks fail when a wrapped attribute is renamed or removed, or when a
wrapped call no longer has the shape the benchmark's counters read.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import sys
    import tempfile
    from pathlib import Path

    import numpy as np
    import spans
    from pavi import dynamics, harness, potential_from_config

    tracer = spans.Tracer()
    spans.install(tracer)
    potential = {"family": "perturbed_quadratic", "precision": [[2.0, 0.5], [0.5, 2.0]],
                 "mean": [0.3, -0.2], "weights": [1.0, 1.0]}
    with tempfile.TemporaryDirectory() as tmp:
        ref = Path(tmp) / "reference.json"
        harness.cmd_oracle({"potential": potential, "method": "grid", "grid_size": 33,
                            "half_width": 6.0, "check_inits": False}, out_path=ref)
        harness.cmd_run({"potential": potential, "N": 16, "T": 4, "metrics_every": 1,
                         "checkpoint_every": 2, "reference": str(ref)}, out_dir=tmp)
        first = len(tracer.spans)
        harness.cmd_sweep({"potential": potential, "N_list": [16, 32, 64],
                           "replications": 2, "T": 20, "reference": str(ref)}, threads=2)
    # harness.replication.s sums the dynamics.run spans nested in
    # run_replications on its own thread: one stacked run per particle count
    runs = [s for s in tracer.spans[first:] if s[0] == "dynamics.run"]
    nested = [s for s in runs if s[3] is not None
              and tracer.spans[s[3]][0] == "harness.run_replications"
              and tracer.spans[s[3]][4] == s[4]]
    if len(runs) != 3 or nested != runs:
        sys.exit(f"{len(nested)} of {len(runs)} sweep runs nest in run_replications")
    # a run of an affine family takes its whole drift from the potential's
    # hook, so the per-coordinate average the benchmark wraps is called here
    dynamics.stochastic_grad_at(potential_from_config(potential), np.zeros((2, 3)), 0,
                                [0.5, -0.5])
    missing = [k for k in ("dynamics.drift.flops_computed", "dynamics.checkpoint.bytes",
                           "potentials.partial_cols.cols", "oracle.sweeps")
               if not tracer.counts.get(k)]
    sys.exit(f"counters never filled: {missing}" if missing else 0)
    """
)


def test_traced_benchmark_hooks_install_and_count():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


INPUTS_SCRIPT = textwrap.dedent(
    """
    import sys

    import workloads
    from pavi import harness, potential_from_config

    # the keys each command requires; the prepare document is an oracle's
    required = {"run": ("N", "T"), "sweep": ("N_list", "T"), "oracle": ()}
    read = 0
    for name in sorted(workloads.WORKLOADS):
        for seed in range(3):
            inputs = workloads.make_inputs(name, seed, sys.argv[1])
            command = workloads.WORKLOADS[name].command
            for doc, keys in ((inputs["doc"], required[command]), (inputs.get("prepare"), ())):
                if doc is not None:
                    potential_from_config(doc["potential"])
                    harness._read(doc, *keys)
                    read += 1
    print(read)
    """
)


def test_every_benchmark_potential_is_read(tmp_path):
    # the potential reader refuses keys it does not read; no benchmark input
    # may hold one, and every whole document reads through the key table
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", INPUTS_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # four workloads on three seeds, and the sweep's prepare document on each
    assert proc.stdout.split() == [str(4 * 3 + 3)]
