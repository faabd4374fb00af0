"""Experiment orchestration: config loading, CLI commands, sweeps, checks."""

from __future__ import annotations

import json
import math
import os
import pickle
import sys
import threading
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from . import dynamics, oracle
from .errors import ConfigError
from .metrics import grad_moment_check, w2_reference_profile
from .particles import RngStream, init_particles
from .potentials import potential_from_config
from .reports import (
    ConvergenceReport,
    SweepEntry,
    SweepResult,
    as_integer,
    fit_loglog_slope,
    finite_number,
    number_array,
    rate_fit,
    read_json,
)

__all__ = [
    "load_config",
    "build_reference",
    "cmd_run",
    "cmd_sweep",
    "cmd_oracle",
    "cmd_check",
    "cmd_compare",
    "rate_fit",
    "fit_loglog_slope",
]

CHECKPOINT_FILE = "checkpoint.json"
# the elements R m N of one work array of a stacked run; with its four work
# arrays and its state a chunk of replications holds about 5 MB
_STACK_BUDGET = 2**17
# the work T m R sum(N) from which a sweep forks (_spread): on 2 vCPUs a fork
# costs about 4 ms, and a sweep of 4 counts breaks even near 3e5
_FORK_MIN = 2**19


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def load_config(path) -> dict:
    """Read a JSON or YAML config document, naming the file when it cannot.

    The text is parsed as JSON first, by the standard library; only text that
    is not JSON (``NaN`` and ``Infinity`` included) goes to PyYAML, which is
    imported for it then.  Both give the same mapping for a JSON document,
    except for a number with an exponent but no decimal point or no exponent
    sign: JSON reads ``1e3`` as the float 1000.0, YAML 1.1 as the string
    ``"1e3"``.  A document neither reads is reported with YAML's error.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} not found")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read a config document from {path} ({err})") from None
    try:
        doc = json.loads(text, parse_constant=_not_json)
    except ValueError:
        import yaml

        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as err:
            raise ConfigError(
                f"cannot read a config document from {path} ({err})"
            ) from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    return doc


def build_reference(spec, pot):
    """Resolve the ``reference`` config entry to a ReferenceProduct or None.

    "analytic" gives the closed-form Gaussian product (quadratic targets
    only), "none"/null disables metrics, any other string is read as the path
    to a serialized oracle document.
    """
    if spec is None or spec == "none":
        return None
    if spec == "analytic":
        return oracle.gaussian_mfvi_solution(pot)
    return oracle.load_reference(spec)


def _integer(key, value, low=None) -> int:
    """A config value that must be an integer (an integral float is accepted), at least ``low``."""
    n = as_integer(value)
    if n is None:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if low is not None and n < low:
        raise ConfigError(f"{key} must be >= {low}")
    return n


def _integers(key, value) -> list:
    return [_integer(key, n) for n in _instance((list, tuple), "a list of integers", key, value)]


def _instance(kinds, what, key, value):
    """``value`` if it is an instance of ``kinds``, else a ConfigError: it must be ``what``."""
    if not isinstance(value, kinds):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


def _init(key, init):
    """standard_normal, {point: vector} or an explicit (m, N) list."""
    if isinstance(init, list):
        return number_array(key, init)
    if isinstance(init, dict) and list(init) == ["point"]:
        return ("point", number_array("init.point", init["point"]))
    return _instance(str, "standard_normal, {point: x} or a list", key, init)


def _as_given(key, value):
    return value


# Each top-level key's reader and absent-or-null value, by the first command that
# reads it: run, sweep, oracle, check.  A reader checks no range a library call does.
_KEYS = {
    "potential": (_as_given, None),  # built by potential_from_config
    "N": (_integer, None),
    "T": (_integer, None),
    "h": (finite_number, None),
    "B": (_integer, None),
    "schedule": (partial(_instance, str, "corollary or explicit"), dynamics.RunConfig.schedule),
    "algorithm": (partial(_instance, str, "pavi or exact"), "pavi"),
    "seed": (_integer, 0),
    "metrics_every": (_integer, None),
    "checkpoint_every": (partial(_integer, low=0), None),
    "init": (_init, "standard_normal"),
    "reference": (partial(_instance, str, "analytic, none or a file path"), None),
    "output": (partial(_instance, str, "a path"), None),
    "threads": (_as_given, None),  # accepted and ignored
    "N_list": (_integers, None),
    "replications": (partial(_integer, low=1), 16),
    "method": (partial(_instance, str, "auto, analytic or grid"), "auto"),
    "grid_size": (_integer, oracle.DEFAULT_GRID_SIZE),
    "tol": (finite_number, 1e-8),
    "max_iter": (_integer, 300),
    "damping": (finite_number, 1.0),
    "half_width": (finite_number, None),
    "check_inits": (partial(_instance, bool, "true or false"), True),
    "trials": (partial(_integer, low=1), 1000),
    "samples": (partial(_integer, low=2), 20000),  # a variance with ddof=1 needs two
}


def _read(doc, *required, **given):
    """Every ``_KEYS`` entry of a config document, read before anything is built.

    A ConfigError names an unknown key and the closest known one, else a missing
    ``potential`` or ``required`` key.  A ``given`` value that is not None
    (``--seed``) replaces the document's.  An absent or null key takes its default.
    """
    unknown = [key for key in doc if key not in _KEYS]
    if unknown:
        import difflib

        close = difflib.get_close_matches(str(unknown[0]), list(_KEYS), n=1)
        close += [key for key in _KEYS if str(unknown[0]).startswith(key)]  # tolerance: tol
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ConfigError(f"unknown config key {unknown[0]!r}{hint}")
    doc = {**doc, **{key: value for key, value in given.items() if value is not None}}
    for key in ("potential", *required):
        if doc.get(key) is None:
            raise ConfigError(f"config missing key {key!r}")
    return {
        key: default if doc.get(key) is None else read(key, doc[key])
        for key, (read, default) in _KEYS.items()
    }


def cmd_run(doc, out_dir=None, seed=None, threads=None, resume=False) -> ConvergenceReport:
    """Execute one run described by a config document and persist the report.

    A run is one sequential chain: ``threads`` (argument or config key) is
    accepted and unused, so configs and callers that set it keep working.  A
    corollary schedule that breaks the step-size guard runs anyway, with one
    warning line on stderr.  The schedule, the init, the checkpoint a resume
    needs and the reference are checked before that line and before the
    output directory is made.
    """
    doc = _read(doc, "N", "T", seed=seed)
    pot = potential_from_config(doc["potential"])
    cfg = dynamics.RunConfig(**{f.name: doc[f.name] for f in fields(dynamics.RunConfig)})
    guard = dynamics.step_guard(pot, *dynamics.validate_config(pot, cfg))
    _check_init(pot, [cfg.N], doc["init"])
    out = Path(out_dir or doc["output"] or "pavi_out")
    if resume and not (out / CHECKPOINT_FILE).exists():
        raise ConfigError("resume requested but no checkpoint file found")
    ref = build_reference(doc["reference"], pot)
    _warn_unless_guarded(guard)
    out.mkdir(parents=True, exist_ok=True)
    report = dynamics.run(
        pot,
        cfg,
        ref,
        init=doc["init"],
        checkpoint_path=out / CHECKPOINT_FILE,
        checkpoint_every=doc["checkpoint_every"],
        resume=resume,
    )
    report.save(out)
    return report


def _check_init(pot, N_list, init):
    """Refuse an unknown init spec, or a point or explicit init that does not
    fit (m, N) for every N, before anything runs or is written."""
    if not (isinstance(init, str) and init == "standard_normal"):
        for N in N_list:
            init_particles(pot.m, N, init)


def _warn_unless_guarded(guard):
    """Print one stderr line when a corollary schedule breaks the step-size guard."""
    if not guard["holds"]:
        print(f"warning: {dynamics.guard_violation(guard)}; running anyway", file=sys.stderr)


def _seed_chunks(pot, N, seeds):
    """The seeds in chunks of as many as keep R m N within ``_STACK_BUDGET``, at least one."""
    chunk = max(1, _STACK_BUDGET // (pot.m * N))
    return [seeds[start : start + chunk] for start in range(0, len(seeds), chunk)]


def run_replications(pot, base_cfg, reference, seeds, *, init="standard_normal"):
    """Run the same configuration under each seed; the reports come in seed order.

    The seeds advance together as one stacked state, one ``dynamics.run`` per
    chunk of seeds (``_seed_chunks``).  Each report equals that of a run under
    its seed alone.
    """
    reports = []
    for chunk in _seed_chunks(pot, base_cfg.N, [int(s) for s in seeds]):
        reports += dynamics.run(pot, base_cfg, reference, seeds=chunk, init=init)
    return reports


def _spread(run, items, costs):
    """``[run(item) for item in items]``, spread over the CPUs by fork.

    From ``_FORK_MIN`` summed cost on, with ``os.fork``, an affinity mask and
    one thread, the items are dealt, costliest first, each to the lightest of
    one share per CPU of the mask.  A forked child runs each share but the
    lightest and pipes its outcomes back pickled; this process runs the
    lightest and reaps every child.  The first exception in item order is
    raised.
    """
    P = 1
    forkable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    if forkable and threading.active_count() == 1 and sum(costs) >= _FORK_MIN:
        P = min(len(os.sched_getaffinity(0)), len(items))
    shares = [[] for _ in range(P)]
    for k in sorted(range(len(items)), key=costs.__getitem__, reverse=True):
        min(shares, key=lambda share: sum(map(costs.__getitem__, share))).append(k)
    shares.sort(key=lambda share: sum(map(costs.__getitem__, share)))

    def outcomes(share):
        done = []
        for k in sorted(share):
            try:
                done.append((k, run(items[k])))
            except Exception as err:
                # no later item of the share can come first
                return done + [(k, err)]
        return done

    sys.stdout.flush()
    sys.stderr.flush()
    children, ended = [], []
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    with open(write, "wb") as pipe:
                        pickle.dump(outcomes(share), pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children.append((pid, open(read, "rb")))
        done = outcomes(shares[0])
    finally:
        for pid, pipe in children:
            with pipe:
                ended.append((pipe.read(), os.waitpid(pid, 0)[1]))
    for data, status in ended:
        if status:
            raise RuntimeError(f"a sweep's forked process gave no results (wait status {status})")
        done += pickle.loads(data)
    for _, outcome in sorted(done):
        if isinstance(outcome, Exception):
            raise outcome
    return [outcome for _, outcome in sorted(done)]


def cmd_sweep(doc, out_dir=None, seed=None, threads=None) -> SweepResult:
    """Replicate runs across particle counts and fit the steady-state slope.

    Each N runs the configured schedule: the corollary one by default, with
    no batch size for the exact algorithm, or an explicit ``h`` and ``B``
    that every N takes, each checked against the step-size guard before any
    run starts; the fitted quantity is log(mean steady-state W2) against
    log N by least squares.  Each run is one N and one chunk of seeds that
    advance together as one stacked state (:func:`run_replications`); from
    ``_FORK_MIN`` work T m R sum(N) on, the runs are spread over the CPUs of
    the affinity mask by fork (:func:`_spread`).  ``threads`` (argument or
    config key) is accepted and unused, as for :func:`cmd_run`.  A particle
    count whose schedule breaks the step-size guard gets the warning line
    :func:`cmd_run` prints once every run has finished, so a sweep that
    diverges reports only the divergence.
    """
    doc = _read(doc, "N_list", "T", seed=seed)
    pot = potential_from_config(doc["potential"])
    if doc["reference"] in (None, "none"):
        raise ConfigError("sweep needs an analytic or oracle reference for the slope")
    ref = build_reference(doc["reference"], pot)
    N_list = doc["N_list"]
    if len(N_list) < 3:
        raise ConfigError("sweep needs at least 3 particle counts for a slope")
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ConfigError(
            "sweep particle counts must be strictly increasing "
            "(duplicates make the design matrix degenerate)"
        )
    R, T, init = doc["replications"], doc["T"], doc["init"]
    seeds = [doc["seed"] + r for r in range(R)]
    # the init fits every particle count, or the sweep runs nothing
    _check_init(pot, N_list, init)

    common = {key: doc[key] for key in ("h", "B", "schedule", "algorithm", "metrics_every")}
    cfgs = [dynamics.RunConfig(N=N, T=T, **common) for N in N_list]
    # the (h, B) the runs use: B is None for the exact algorithm
    schedules = [dynamics.validate_config(pot, cfg) for cfg in cfgs]

    def steady_means(run):
        cfg, chunk = run
        return [r.summary["steady_mean"] for r in run_replications(pot, cfg, ref, chunk, init=init)]

    runs = [(cfg, chunk) for cfg in cfgs for chunk in _seed_chunks(pot, cfg.N, seeds)]
    results = _spread(steady_means, runs, [T * pot.m * cfg.N * len(c) for cfg, c in runs])
    entries = []
    for N, cfg, (h, B) in zip(N_list, cfgs, schedules):
        per_seed = [w2 for run, means in zip(runs, results) if run[0] is cfg for w2 in means]
        _warn_unless_guarded(dynamics.step_guard(pot, h, B))
        mean = float(np.mean(per_seed))
        se = float(np.std(per_seed, ddof=1) / math.sqrt(len(per_seed))) if R > 1 else 0.0
        entries.append(SweepEntry(N=N, h=h, B=B, mean_w2=mean, se_w2=se, per_seed=per_seed))

    slope, stderr = fit_loglog_slope([e.N for e in entries], [e.mean_w2 for e in entries])
    result = SweepResult(
        entries=entries, slope=slope, slope_stderr=stderr, seeds=seeds,
        config={"T": T, "replications": R, "N_list": N_list},
    )
    out_dir = out_dir or doc["output"]
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        result.save(out / "sweep.json")
    return result


def cmd_oracle(doc, out_path=None):
    """Compute and serialize a reference solution.

    Quadratic targets take the analytic path unless ``method: grid`` forces
    the solver; other targets always solve on the grid.  By default the grid
    path is re-run from a second starting point and the agreement between the
    two fixed points is recorded.
    """
    doc = _read(doc)
    pot = potential_from_config(doc["potential"])
    method = doc["method"]
    out = Path(out_path or doc["output"] or "reference.json")
    analytic_ok = isinstance(pot, oracle.QuadraticPotential) and not isinstance(
        pot, oracle.PerturbedQuadraticPotential
    )
    if method == "auto":
        method = "analytic" if analytic_ok else "grid"
    if method == "analytic":
        if not analytic_ok:
            raise ConfigError("analytic oracle is only available for the quadratic family")
        ref = oracle.gaussian_mfvi_solution(pot)
    elif method == "grid":
        kinds = ("uniform", "narrow") if doc["check_inits"] else ("uniform",)
        starts = oracle.initial_grid_products(pot, doc["grid_size"], kinds, doc["half_width"])
        solved, *others = [
            oracle.fixed_point_solve(pot, start, doc["tol"], doc["max_iter"], doc["damping"])
            for start in starts
        ]
        for other in others:
            agreement = max(a.w2_to(b) for a, b in zip(solved.marginals, other.marginals))
            solved.residual.init_agreement_w2 = float(agreement)
        ref = oracle.grid_reference(solved)
    else:
        raise ConfigError(f"unknown oracle method {method!r}")
    out.parent.mkdir(parents=True, exist_ok=True)
    oracle.save_reference(out, ref)
    return out


def _check_line(lines, name, passed, detail):
    lines.append((name, bool(passed), detail))


def cmd_check(doc, seed=None):
    """Validate the potential's declared constants and gradient by sampling.

    Returns (all_passed, lines) where each line is (name, passed, detail);
    the CLI prints one line per check.
    """
    doc = _read(doc, seed=seed)
    pot = potential_from_config(doc["potential"])
    trials = doc["trials"]
    gen = RngStream(doc["seed"]).generator(0, "sample")
    center = oracle.minimizer(pot)
    scale = 2.0 / math.sqrt(pot.alpha)
    m = pot.m
    lines = []

    # gradient vs centered finite differences
    delta = 1e-4
    xs = center[:, None] + scale * gen.standard_normal((m, trials))
    grads = pot.gradient_cols(xs)
    worst = 0.0
    for i in range(m):
        shift = np.zeros((m, 1))
        shift[i, 0] = delta
        fd = (pot.value_cols(xs + shift) - pot.value_cols(xs - shift)) / (2 * delta)
        err = np.abs(grads[i] - fd) / (1.0 + np.abs(grads[i]))
        worst = max(worst, float(err.max()))
    _check_line(
        lines, "gradient_consistency", worst <= 1e-6,
        f"max relative finite-difference error {worst:.3e} (tol 1e-6)",
    )

    # directional second differences inside [alpha, lip]
    delta = 1e-5
    xs = center[:, None] + scale * gen.standard_normal((m, trials))
    us = gen.standard_normal((m, trials))
    us /= np.linalg.norm(us, axis=0, keepdims=True)
    quot = np.einsum(
        "ik,ik->k", us, pot.gradient_cols(xs + delta * us) - pot.gradient_cols(xs)
    ) / delta
    lo, hi = float(quot.min()), float(quot.max())
    ok = lo >= pot.alpha - 1e-3 and hi <= pot.lip + 1e-3
    _check_line(
        lines, "convexity_sandwich", ok,
        f"directional curvature in [{lo:.6g}, {hi:.6g}], "
        f"declared [alpha={pot.alpha:.6g}, lip={pot.lip:.6g}]",
    )

    # gradient-step contraction at h = 1/(alpha+lip)
    h = 1.0 / (pot.alpha + pot.lip)
    xs = center[:, None] + scale * gen.standard_normal((m, trials))
    ys = center[:, None] + scale * gen.standard_normal((m, trials))
    phi_x = xs - h * pot.gradient_cols(xs)
    phi_y = ys - h * pot.gradient_cols(ys)
    num = np.linalg.norm(phi_x - phi_y, axis=0)
    den = np.linalg.norm(xs - ys, axis=0)
    slack = num - (1.0 - pot.alpha * h) * den
    worst = float(slack.max())
    _check_line(
        lines, "contraction_map", worst <= 1e-12,
        f"max contraction slack {worst:.3e} at h=1/(alpha+lip)={h:.6g}",
    )

    # moment bounds under the reference, when one is attached
    if doc["reference"] not in (None, "none"):
        ref = build_reference(doc["reference"], pot)
        K = doc["samples"]
        samples = oracle.sample_reference(ref, K, gen)
        moments = grad_moment_check(pot, samples)
        mean_bound = 4.0 * math.sqrt(m * pot.lip**2 / pot.alpha / K)
        sq_bound = m * pot.lip**2 / pot.alpha * 1.05
        var_bound = 1.05 / pot.alpha
        ok = (
            moments.mean_grad_norm <= mean_bound
            and moments.mean_sq_grad <= sq_bound
            and np.all(moments.coordinate_variances <= var_bound)
        )
        _check_line(
            lines, "reference_moments", ok,
            f"|mean grad| {moments.mean_grad_norm:.4g} (<= {mean_bound:.4g}), "
            f"mean sq grad {moments.mean_sq_grad:.4g} (<= {sq_bound:.4g}), "
            f"max coord var {moments.coordinate_variances.max():.4g} (<= {var_bound:.4g})",
        )

    return all(p for _, p, _ in lines), lines


def _load_compare_side(path):
    path = Path(path)
    if path.is_dir():
        return ("report", ConvergenceReport.load(path), path)
    if read_json(path).get("format") == "pavi-reference-v1":
        return ("reference", oracle.load_reference(path), path)
    raise ConfigError(f"{path} is neither a report directory nor a reference document")


def cmd_compare(path_a, path_b) -> dict:
    """W2 deltas between two reports, or a report and a reference."""
    kind_a, a, dir_a = _load_compare_side(path_a)
    kind_b, b, dir_b = _load_compare_side(path_b)
    if kind_a == kind_b == "report":
        rows_a = {r.iteration: r.w2_total for r in a.rows if r.w2_total is not None}
        rows_b = {r.iteration: r.w2_total for r in b.rows if r.w2_total is not None}
        shared = sorted(set(rows_a) & set(rows_b))
        if not shared:
            raise ConfigError("reports share no recorded iterations with W2 values")
        deltas = [rows_a[n] - rows_b[n] for n in shared]
        return {
            "mode": "report-report",
            "shared_iterations": len(shared),
            "mean_abs_delta": float(np.mean(np.abs(deltas))),
            "final_delta": float(deltas[-1]),
            "steady_delta": (
                None
                if a.summary.get("steady_mean") is None
                or b.summary.get("steady_mean") is None
                else float(a.summary["steady_mean"] - b.summary["steady_mean"])
            ),
        }
    if kind_a == kind_b:
        raise ConfigError("compare takes two reports, or one report and one reference")
    report, rep_dir = (a, dir_a) if kind_a == "report" else (b, dir_b)
    ref = b if kind_b == "reference" else a
    ckpt = rep_dir / CHECKPOINT_FILE
    if not ckpt.exists():
        raise ConfigError(
            f"report at {rep_dir} has no {CHECKPOINT_FILE}; rerun with checkpointing "
            "to compare final particles against a reference"
        )
    doc, X = dynamics.read_checkpoint(ckpt)
    per, total = w2_reference_profile(X, ref)
    return {
        "mode": "report-reference",
        "iteration": doc["next_iteration"],
        "w2_total": total,
        "w2_coord": [float(p) for p in per],
    }
