"""Experiment orchestration: config loading, CLI commands, sweeps, checks."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dynamics, oracle
from .errors import ConfigError
from .metrics import grad_moment_check, w2_reference_profile
from .particles import RngStream
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
    "run_config_from_doc",
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
    only), "none"/null disables metrics, anything else is read as the path to
    a serialized oracle document.
    """
    if spec is None or spec == "none":
        return None
    if spec == "analytic":
        return oracle.gaussian_mfvi_solution(pot)
    if not isinstance(spec, str):
        raise ConfigError(f"reference must be analytic, none or a file path, got {spec!r}")
    return oracle.load_reference(spec)


def run_config_from_doc(doc, seed=None) -> dynamics.RunConfig:
    """The run keys of a config document, each read with its type.

    ``N`` and ``T`` are required integers; ``seed``, ``B``, ``metrics_every``
    and ``checkpoint_every`` (at least 0) are optional integers, and ``h`` an
    optional finite number.  A key of the wrong type is a ConfigError naming it.
    """
    for key in ("N", "T"):
        if key not in doc:
            raise ConfigError(f"run config missing key {key!r}")
    # checked here, before any output exists; cmd_run passes it to the run
    if (_optional_integer(doc, "checkpoint_every") or 0) < 0:
        raise ConfigError("checkpoint_every must be >= 0 (0 = off)")
    return dynamics.RunConfig(
        N=_integer("N", doc["N"]),
        T=_integer("T", doc["T"]),
        h=None if doc.get("h") is None else finite_number("h", doc["h"]),
        B=_optional_integer(doc, "B"),
        schedule=doc.get("schedule", "corollary"),
        algorithm=doc.get("algorithm", "pavi"),
        seed=_integer("seed", doc.get("seed", 0) if seed is None else seed),
        metrics_every=_optional_integer(doc, "metrics_every"),
    )


def _init_from_doc(doc):
    """The ``init`` key: standard_normal, {point: vector} or an explicit (m, N) list."""
    init = doc.get("init", "standard_normal")
    if isinstance(init, dict):
        if list(init) != ["point"]:
            raise ConfigError(f"init must be standard_normal, {{point: x}} or a list, got {init!r}")
        return ("point", number_array("init.point", init["point"]))
    if isinstance(init, list):
        return number_array("init", init)
    return init


def _output_path(doc, given, default) -> Path:
    """``given``, else the config's ``output`` path (checked either way), else ``default``."""
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output must be a path, got {output!r}")
    return Path(given or output or default)


def cmd_run(doc, out_dir=None, seed=None, threads=None, resume=False) -> ConvergenceReport:
    """Execute one run described by a config document and persist the report.

    A run is one sequential chain: ``threads`` (argument or config key) is
    accepted and unused, so configs and callers that set it keep working.  A
    corollary schedule that breaks the step-size guard runs anyway, with one
    warning line on stderr.
    """
    pot = potential_from_config(doc.get("potential") or _missing("potential"))
    cfg = run_config_from_doc(doc, seed)
    _warn_unless_guarded(dynamics.step_guard(pot, *dynamics.validate_config(pot, cfg)))
    ref = build_reference(doc.get("reference"), pot)
    init = _init_from_doc(doc)
    out = _output_path(doc, out_dir, "pavi_out")
    out.mkdir(parents=True, exist_ok=True)
    report = dynamics.run(
        pot,
        cfg,
        ref,
        init=init,
        checkpoint_path=out / CHECKPOINT_FILE,
        checkpoint_every=doc.get("checkpoint_every"),
        resume=resume,
    )
    report.save(out)
    return report


def _warn_unless_guarded(guard):
    """Print one stderr line when a corollary schedule breaks the step-size guard."""
    if not guard["holds"]:
        print(f"warning: {dynamics.guard_violation(guard)}; running anyway", file=sys.stderr)


def _missing(key):
    raise ConfigError(f"config missing key {key!r}")


def _integer(key, value) -> int:
    """A config value that must be an integer (an integral float is accepted)."""
    n = as_integer(value)
    if n is None:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return n


def _optional_integer(doc, key) -> int | None:
    value = doc.get(key)
    return None if value is None else _integer(key, value)


def run_replications(pot, base_cfg, reference, seeds, *, init="standard_normal"):
    """Run the same configuration under each seed; the reports come in seed order.

    The seeds advance together as one stacked state, one ``dynamics.run`` per
    chunk of seeds: a chunk takes as many seeds as keep its R m N elements
    within ``_STACK_BUDGET``, and at least one.  Each report equals that of a
    run under its seed alone.
    """
    seeds = [int(s) for s in seeds]
    chunk = max(1, _STACK_BUDGET // (pot.m * base_cfg.N))
    reports = []
    for start in range(0, len(seeds), chunk):
        reports += dynamics.run(
            pot, base_cfg, reference, seeds=seeds[start : start + chunk], init=init
        )
    return reports


def cmd_sweep(doc, out_dir=None, seed=None, threads=None) -> SweepResult:
    """Replicate runs across particle counts and fit the steady-state slope.

    Each N uses the corollary schedule, with no batch size for the exact
    algorithm; the fitted quantity is log(mean steady-state W2) against
    log N by least squares.  At each N the replications advance together as
    one stacked state (:func:`run_replications`) on the calling thread:
    ``threads`` (argument or config key) is accepted and unused, as for
    :func:`cmd_run`.  A particle count whose schedule breaks the step-size
    guard gets the warning line :func:`cmd_run` prints, once its runs finish,
    so a sweep that diverges there reports only the divergence.
    """
    pot = potential_from_config(doc.get("potential") or _missing("potential"))
    ref_spec = doc.get("reference")
    if ref_spec in (None, "none"):
        raise ConfigError("sweep needs an analytic or oracle reference for the slope")
    ref = build_reference(ref_spec, pot)
    for key in ("N_list", "T"):
        if key not in doc:
            _missing(key)
    N_list = doc["N_list"]
    if not isinstance(N_list, (list, tuple)):
        raise ConfigError(f"N_list must be a list of integers, got {N_list!r}")
    N_list = [_integer("N_list", n) for n in N_list]
    if len(N_list) < 3:
        raise ConfigError("sweep needs at least 3 particle counts for a slope")
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ConfigError(
            "sweep particle counts must be strictly increasing "
            "(duplicates make the design matrix degenerate)"
        )
    R = _integer("replications", doc.get("replications", 16))
    if R < 1:
        raise ConfigError("replications must be >= 1")
    T = _integer("T", doc["T"])
    base_seed = _integer("seed", doc.get("seed", 0) if seed is None else seed)
    seeds = [base_seed + r for r in range(R)]

    entries = []
    for N in N_list:
        cfg = dynamics.RunConfig(
            N=N, T=T, schedule="corollary", algorithm=doc.get("algorithm", "pavi"),
            metrics_every=_optional_integer(doc, "metrics_every"),
        )
        # the (h, B) the runs use: B is None for the exact algorithm
        h, B = dynamics.validate_config(pot, cfg)
        reports = run_replications(pot, cfg, ref, seeds, init=_init_from_doc(doc))
        _warn_unless_guarded(reports[0].summary["step_guard"])
        per_seed = [r.summary["steady_mean"] for r in reports]
        mean = float(np.mean(per_seed))
        se = float(np.std(per_seed, ddof=1) / math.sqrt(len(per_seed))) if R > 1 else 0.0
        entries.append(SweepEntry(N=N, h=h, B=B, mean_w2=mean, se_w2=se, per_seed=per_seed))

    slope, stderr = fit_loglog_slope([e.N for e in entries], [e.mean_w2 for e in entries])
    result = SweepResult(
        entries=entries, slope=slope, slope_stderr=stderr, seeds=seeds,
        config={"T": T, "replications": R, "N_list": N_list},
    )
    if out_dir is not None:
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
    pot = potential_from_config(doc.get("potential") or _missing("potential"))
    method = doc.get("method", "auto")
    out = _output_path(doc, out_path, "reference.json")
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
        G = _integer("grid_size", doc.get("grid_size", oracle.DEFAULT_GRID_SIZE))
        tol = float(finite_number("tol", doc.get("tol", 1e-8)))
        max_iter = _integer("max_iter", doc.get("max_iter", 300))
        damping = float(finite_number("damping", doc.get("damping", 1.0)))
        half_width = doc.get("half_width")
        half_width = None if half_width is None else finite_number("half_width", half_width)
        check_inits = doc.get("check_inits", True)
        if not isinstance(check_inits, bool):
            raise ConfigError(f"check_inits must be true or false, got {check_inits!r}")

        def solve(kind):
            start = oracle.initial_grid_product(pot, G, kind, half_width)
            return oracle.fixed_point_solve(pot, start, tol, max_iter, damping)

        solved = solve("uniform")
        if check_inits:
            other = solve("narrow")
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
    pot = potential_from_config(doc.get("potential") or _missing("potential"))
    trials = _integer("trials", doc.get("trials", 1000))
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    seed = _integer("seed", doc.get("seed", 0) if seed is None else seed)
    gen = RngStream(seed).generator(0, "sample")
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
    ref_spec = doc.get("reference")
    if ref_spec not in (None, "none"):
        ref = build_reference(ref_spec, pot)
        K = _integer("samples", doc.get("samples", 20000))
        if K < 1:
            raise ConfigError("samples must be >= 1")
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
