"""The four benchmark workloads: inputs generated from a seed, and their gates.

Each workload is described by a ``Workload`` entry below, with the reason it
was chosen written beside it.  ``make_inputs`` turns a workload seed into the
config document the program receives; everything random in it (precision
matrices, means, weights, run seeds) comes from that seed and nothing else.

The correctness gates are plain functions of the program's outputs and of
values this module computes on its own (analytic Gaussian quantiles through
``scipy.special.ndtri``), so a defect in the program's own W2 code or
reference construction shows up as a failed operation.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" | "sweep" | "oracle"
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        # pavi run, quadratic m=2, N=2048, corollary schedule (h~0.050, B=7),
        # analytic reference, W2 every 20 iterations, checkpoint every 200.
        # Runnable by hand but not in BENCHMARK.json: its run medians vary
        # more with the host's load than the bound allows (README.md).
        Workload(
            "run-m2-gauss",
            "run",
            "fixed per-iteration costs (RNG construction, context and noise draws, "
            "re-validation, W2 recording, checkpoints) dominate a small step",
        ),
        # pavi run, quadratic m=30 with a seeded SPD precision (eigenvalues
        # over [1, 4]), N=4096, corollary schedule (B=8), analytic reference.
        Workload(
            "run-m30-gauss",
            "run",
            "the O(m^2 B N) broadcast drift in stochastic_grad_at takes almost all "
            "of each step; RNG and recording costs are negligible",
        ),
        # pavi oracle, perturbed quadratic m=3 with a nonzero mean so the
        # fixed-point solver iterates, grid of 97 nodes, check_inits on.
        Workload(
            "oracle-m3-nongauss",
            "oracle",
            "all time is in the grid oracle and G^3 tensor quadrature through "
            "value_cols; particles and dynamics are not used",
        ),
        # pavi sweep --threads 2, perturbed quadratic m=2, grid-oracle
        # reference file prepared untimed, N_list [256..2048], 4 replications.
        Workload(
            "sweep-m2-nongauss",
            "sweep",
            "the m=2 dynamics as many short runs in the harness thread pool, "
            "measured against PCHIP grid quantiles instead of ndtri",
        ),
    )
}

# Run lengths, chosen so that a run of the benchmark holds several
# operations.  run-m2-gauss records W2 every 20 of 2000 iterations: 100
# intervals per operation, long past its transient.  run-m30-gauss starts at
# mean zero from a standard normal cloud, so only the variances relax; 20
# iterations take W2 from ~2 to ~0.25, near its steady level of ~0.16.
M2_T = 2000
M30_T = 20
M30_N = 4096
ORACLE_GRID = 97
ORACLE_PRECISION = np.array([[2.0, 0.6, 0.3], [0.6, 2.0, 0.6], [0.3, 0.6, 2.0]])
SWEEP_T = 200
SWEEP_N_LIST = [256, 512, 1024, 2048]
SWEEP_REPLICATIONS = 4
SWEEP_THREADS = 2

# Gate bounds.  0.15 is acceptance criterion 06's bound on the steady W2 of
# the m=2 Gaussian run at N=2048.  The m=30 bound is the same per-coordinate
# level scaled by sqrt(30/2).  A single final snapshot fluctuates more than
# the trailing mean (m=2: median 0.063, 99.9th percentile 0.17 over 2112
# steady-state rows), so it gets twice the bound.  The oracle's two starting points must reach
# the same fixed point to well below the grid step (16/96 here).  The sweep
# slope band is acceptance criterion 07's.
RUN_W2_BOUND = {"run-m2-gauss": 0.15, "run-m30-gauss": 0.15 * math.sqrt(15.0)}
FINAL_W2_FACTOR = 2.0
W2_AGREEMENT_RTOL = 1e-9
ORACLE_TOL = 1e-8
ORACLE_INIT_AGREEMENT_BOUND = 1e-5
SWEEP_SLOPE_BAND = (-0.6, -0.15)


def _spd(rng, m, lo, hi):
    """Seeded SPD matrix with eigenvalues lo, hi and m-2 more drawn in between."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q = q * np.sign(np.diag(r))
    eig = np.concatenate(([lo, hi], rng.uniform(lo, hi, m - 2)))
    a = (q * eig) @ q.T
    return 0.5 * (a + a.T)


def make_inputs(name, seed, work_dir):
    """Inputs of one workload for one seed.

    Returns a dict with ``doc`` (the config the program receives),
    ``run_seeds`` (cycled over operations), and for the sweep the ``prepare``
    config that builds its reference file before timing starts.
    """
    rng = np.random.default_rng([int(seed), sorted(WORKLOADS).index(name)])
    run_seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]
    work_dir = Path(work_dir)
    if name == "run-m2-gauss":
        doc = {
            "potential": {
                "family": "quadratic",
                "precision": [[2.0, 1.0], [1.0, 2.0]],
                "mean": rng.uniform(-1.0, 1.0, 2).tolist(),
            },
            "algorithm": "pavi",
            "schedule": "corollary",
            "N": 2048,
            "T": M2_T,
            "metrics_every": 20,
            "checkpoint_every": 200,
            "reference": "analytic",
        }
        return {"doc": doc, "run_seeds": run_seeds}
    if name == "run-m30-gauss":
        doc = {
            "potential": {
                "family": "quadratic",
                "precision": _spd(rng, 30, 1.0, 4.0).tolist(),
                "mean": [0.0] * 30,
            },
            "algorithm": "pavi",
            "schedule": "corollary",
            "N": M30_N,
            "T": M30_T,
            "metrics_every": 1,
            "reference": "analytic",
        }
        return {"doc": doc, "run_seeds": run_seeds}
    if name == "oracle-m3-nongauss":
        # Seeded jitter around one coupling pattern: every seed needs the same
        # 7 sweeps from both starting points, so wall time compares across seeds.
        jitter = rng.uniform(-0.05, 0.05, (3, 3))
        doc = {
            "potential": {
                "family": "perturbed_quadratic",
                "precision": (ORACLE_PRECISION + 0.5 * (jitter + jitter.T)).tolist(),
                "mean": (np.array([1.0, -1.0, 1.0]) * rng.uniform(0.7, 1.0, 3)).tolist(),
                "weights": rng.uniform(0.9, 1.1, 3).tolist(),
            },
            "method": "grid",
            "grid_size": ORACLE_GRID,
            "tol": ORACLE_TOL,
            "max_iter": 300,
            "check_inits": True,
        }
        return {"doc": doc, "run_seeds": run_seeds}
    if name == "sweep-m2-nongauss":
        potential = {
            "family": "perturbed_quadratic",
            "precision": [[2.0, 0.5], [0.5, 2.0]],
            "mean": rng.uniform(-1.0, 1.0, 2).tolist(),
            "weights": rng.uniform(0.75, 1.25, 2).tolist(),
        }
        ref_path = work_dir / "sweep_reference.json"
        prepare = {"potential": potential, "method": "grid", "check_inits": False}
        doc = {
            "potential": potential,
            "reference": str(ref_path),
            "N_list": SWEEP_N_LIST,
            "replications": SWEEP_REPLICATIONS,
            "T": SWEEP_T,
            "threads": SWEEP_THREADS,
        }
        return {"doc": doc, "run_seeds": run_seeds, "prepare": prepare}
    raise KeyError(f"unknown workload {name!r}")


# computed work counts ------------------------------------------------------------


def pci(name, doc):
    """Particle-coordinate-iterations of one operation (run and sweep only)."""
    m = len(doc["potential"]["precision"])
    if name.startswith("run-"):
        return m * doc["N"] * doc["T"]
    if name.startswith("sweep-"):
        return m * doc["T"] * doc["replications"] * sum(doc["N_list"])
    return None


# gates ----------------------------------------------------------------------------


def independent_w2(particles, mean, precision):
    """W2 from particles to the analytic product Gaussian (mean, 1/A_ii).

    Midpoint quantiles (j + 1/2)/N, per-coordinate sorted coupling, summed in
    quadrature: the program's definition, recomputed without its code.
    """
    x = np.asarray(particles, dtype=float)
    m, n = x.shape
    u = (np.arange(n) + 0.5) / n
    z = ndtri(u)
    var = 1.0 / np.diag(np.asarray(precision, dtype=float))
    per = np.empty(m)
    for i in range(m):
        d = np.sort(x[i]) - (mean[i] + math.sqrt(var[i]) * z)
        per[i] = math.sqrt(np.mean(d * d))
    return float(math.sqrt(np.sum(per * per)))


def decode_checkpoint(path):
    doc = json.loads(Path(path).read_text())
    m, n = doc["shape"]
    vals = np.frombuffer(base64.b64decode(doc["particles"]), dtype="<f8").reshape(m, n)
    return doc, vals


def gate_run(name, doc, out_dir, expected_mean=None):
    """Check one run operation; returns (ok, detail, values).

    The program's steady W2 must obey the workload's bound, the final
    particles in the checkpoint must lie within twice that bound of the
    analytic Gaussian product, and the program's own final W2 must agree
    with the benchmark's.
    ``expected_mean`` defaults to the config's mean; a test passes a shifted
    one to show the gate firing.
    """
    out_dir = Path(out_dir)
    pot = doc["potential"]
    mean = np.asarray(pot["mean"] if expected_mean is None else expected_mean, float)
    ckpt, particles = decode_checkpoint(out_dir / "checkpoint.json")
    summary = json.loads((out_dir / "summary.json").read_text())["summary"]
    own = independent_w2(particles, mean, pot["precision"])
    bound = RUN_W2_BOUND[name]
    final, steady = summary["final_w2"], summary["steady_mean"]
    problems = []
    if ckpt["next_iteration"] != doc["T"]:
        problems.append(f"checkpoint at iteration {ckpt['next_iteration']}, not T")
    if not own <= FINAL_W2_FACTOR * bound:
        problems.append(f"final W2 {own:.4g} to the analytic product exceeds "
                        f"{FINAL_W2_FACTOR * bound:.4g}")
    if final is None or abs(final - own) > W2_AGREEMENT_RTOL * max(own, 1e-300):
        problems.append(f"program final W2 {final} disagrees with {own!r}")
    if steady is None or not steady <= bound:
        problems.append(f"steady W2 {steady} exceeds {bound:.4g}")
    metrics_bytes = (out_dir / "metrics.jsonl").read_bytes()
    values = {"steady_w2": steady, "final_w2_independent": own,
              "metrics_sha": hashlib.sha256(metrics_bytes).hexdigest()}
    return not problems, "; ".join(problems) or "ok", values


def gate_oracle(doc, ref_path):
    """Converged, residual below tol, both starting points agree."""
    ref = json.loads(Path(ref_path).read_text())
    res = ref.get("residual") or {}
    problems = []
    if ref.get("provenance") != "grid-oracle":
        problems.append(f"provenance {ref.get('provenance')!r}")
    if not res.get("converged"):
        problems.append("not converged")
    resid = max(res.get("per_coordinate_w2") or [math.inf])
    tol = float(doc["tol"])
    if not resid < tol:
        problems.append(f"residual {resid:.3g} not below tol {tol:.3g}")
    agree = res.get("init_agreement_w2")
    if agree is None or not agree <= ORACLE_INIT_AGREEMENT_BOUND:
        problems.append(f"init agreement W2 {agree} exceeds {ORACLE_INIT_AGREEMENT_BOUND}")
    values = {"sweeps": res.get("sweeps"), "residual": resid, "init_agreement_w2": agree}
    return not problems, "; ".join(problems) or "ok", values


def gate_sweep(sweep_path):
    """Mean W2 strictly decreasing in N and log-log slope inside criterion 07's band."""
    doc = json.loads(Path(sweep_path).read_text())
    means = [e["mean_w2"] for e in doc["entries"]]
    slope = doc["slope"]
    problems = []
    if not all(b < a for a, b in zip(means, means[1:])):
        problems.append(f"mean W2 not strictly decreasing in N: {means}")
    lo, hi = SWEEP_SLOPE_BAND
    if not lo <= slope <= hi:
        problems.append(f"slope {slope:.4f} outside [{lo}, {hi}]")
    values = {"steady_w2": means[-1], "slope": slope, "means": means}
    return not problems, "; ".join(problems) or "ok", values
