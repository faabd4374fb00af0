"""Particle dynamics: stochastic and exact mean-field gradient steps.

One iteration draws a batch of context columns from the current product
empirical measure, estimates each coordinate's conditional gradient by
averaging partial derivatives over the batch, and moves every particle by a
gradient step plus Gaussian noise:

    X[i, j] <- X[i, j] - h * g_i(X[i, j]) + sqrt(2 h) * xi[i, j]

The exact variant replaces the batch average by the expectation under the
product of the other coordinates' empirical marginals.  Either way the whole
drift is one call of the potential's ``partials_over_contexts``, on the batch
or on the atoms, and the potential decides how to average (an affine family
takes the partial at their mean column).  Context and noise draws are
addressed by (seed, iteration, role), so a rerun reproduces the same
trajectory.  ``run`` builds one generator per seed and seats it at each key in
turn (``RngStream.seat``); a replication's whole (m, N) noise is drawn in one
call.

``run`` advances R replications, one per seed, as one stacked state of R m
rows, and a single run is the case R = 1.  Each replication draws its own
contexts and noise, and keeps its own drift and ``grad_rms``.  The drift,
the noise scaling, the state update, the finiteness check and the W2 record
are done once for all R; they are elementwise, or reduce each replication's
rows on their own, so every replication keeps the bits of a run under its
seed alone.  A sweep stacks its seeds in chunks (``harness.run_replications``)
and, from ``harness._FORK_MIN`` work on, spreads its runs over the CPUs of
the affinity mask by fork (``harness._spread``); ``threads`` is still ignored.

An iteration's draws depend only on their keys, never on the particles, so
they are made apart from the step that uses them: ``_draw`` makes them and
``_step_parts`` does the arithmetic on them.  ``run`` takes the draws from one
iterator: from ``_DRAW_AHEAD_MIN`` elements in a work array on, it is
``_drawn_ahead``, which draws iteration n + 1 on a worker thread while
iteration n steps (numpy's normal draw releases the interpreter lock); below
it the draws' Python calls cost more than the overlap saves, and the iterator
draws each iteration just before its step.

A step writes only into (R, m, N) work arrays it is given: the drift, the
noise, and the array that receives the new state.  ``run`` allocates them
once, the drift, the noise (two noise arrays when it draws ahead: a drawn
iteration's and the next one's) and two state arrays, and swaps the state
arrays after each step, so no step writes into the state it reads or into
the caller's initial array, and a divergence leaves the last good state
intact.  Between steps the drift array is the W2 record's scratch space.
``pavi_step`` and ``exact_step`` step one state on fresh work arrays, so
their results are independent arrays.
"""

from __future__ import annotations

import json
import math
import queue
import sys
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DivergenceError
from .metrics import finite_rms, w2_reference_profile
from .particles import (
    ParticleArray,
    RngStream,
    init_particles,
    sample_product,  # noqa: F401  (perfbench/spans.py wraps dynamics.sample_product)
)
from .potentials import potential_fingerprint
# perfbench/spans.py wraps dynamics.stochastic_grad_at, and tests import it from here
from .potentials import stochastic_grad_at  # noqa: F401
from .reports import (
    ConvergenceReport,
    StepTrace,
    as_integer,
    decode_f8,
    f8_base64,
    is_number,
    read_json,
    summarize_rows,
    write_atomic,
)

_CHECKPOINT_FORMAT = "pavi-checkpoint-v2"
# the elements R m N of one work array from which run draws each iteration
# one step ahead on a worker thread: on 2 vCPUs the thread made a step of
# (R, m, N) = (1, 2, 2048) about 50% slower and one of (4, 2, 2048) about 20%
# slower, and steps of (1, 30, 1024) and (4, 2, 4096) about 15% faster
_DRAW_AHEAD_MIN = 2**15


@dataclass
class RunConfig:
    """Settings for one run of the particle dynamics."""

    N: int
    T: int
    h: float | None = None
    B: int | None = None
    schedule: str = "corollary"  # "corollary" | "explicit"
    algorithm: str = "pavi"  # "pavi" | "exact"
    seed: int = 0
    metrics_every: int | None = None

    def resolved_metrics_every(self) -> int:
        if self.metrics_every is not None:
            me = int(self.metrics_every)
            if me < 1:
                raise ConfigError("metrics_every must be a positive integer")
            return me
        return max(1, self.T // 200)


def corollary_schedule(lip, N):
    """Default schedule h = 1/(lip * N^(1/4)), B = ceil(1/(lip * h))."""
    lip = float(lip)
    N = int(N)
    if lip <= 0:
        raise ConfigError(f"lip must be positive, got {lip}")
    if N < 2:
        raise ConfigError(f"N >= 2 required (got N={N})")
    h = 1.0 / (lip * N**0.25)
    B = math.ceil(1.0 / (lip * h) - 1e-9)
    return h, max(1, B)


def step_size_bounds(pot, B):
    """The two upper bounds of the step-size guard for batch size B."""
    bound_pair = 2.0 / (pot.alpha + pot.lip)
    if B is None:
        return bound_pair, math.inf
    denominator = 4.0 * pot.lip**2
    if denominator < sys.float_info.min:
        # lip**2 leaves the normal range below lip ~ 1e-154: dividing by lip
        # twice gives the bound, finite or infinite, without the square
        return bound_pair, B * pot.alpha / (4.0 * pot.lip) / pot.lip
    return bound_pair, B * pot.alpha / denominator


def step_guard(pot, h, B) -> dict:
    """The guard 0 < h < min(2/(alpha+lip), B*alpha/(4*lip^2)) at (h, B).

    ``bound_batch`` is None when no batch size applies.
    """
    bound_pair, bound_batch = step_size_bounds(pot, B)
    return {
        "h": float(h),
        "B": B,
        "bound_pair": bound_pair,
        "bound_batch": None if B is None else bound_batch,
        "holds": bool(0.0 < h < min(bound_pair, bound_batch)),
    }


def guard_violation(guard) -> str:
    """One-line statement that a step_guard record does not hold."""
    bound_batch = math.inf if guard["bound_batch"] is None else guard["bound_batch"]
    return (
        f"step size h={guard['h']:.6g} violates 0 < h < min(2/(alpha+lip) = "
        f"{guard['bound_pair']:.6g}, B*alpha/(4*lip^2) = {bound_batch:.6g})"
    )


def validate_config(pot, cfg: RunConfig):
    """Check the run configuration and return the resolved (h, B).

    Explicit schedules must satisfy the strict guard
    0 < h < min(2/(alpha+lip), B*alpha/(4*lip^2)); boundary equality is
    rejected.  Corollary schedules derive h and B instead of taking them and
    are not checked against the guard; ``run`` records whether it holds.  The
    exact algorithm draws no batch, so its B is None under both schedules.
    """
    if cfg.N < 2:
        raise ConfigError(
            f"N >= 2 required (got N={cfg.N}); the convergence guarantee "
            "needs at least two particles"
        )
    if cfg.T < 0:
        raise ConfigError("T must be nonnegative")
    cfg.resolved_metrics_every()
    if cfg.algorithm not in ("pavi", "exact"):
        raise ConfigError(f"unknown algorithm {cfg.algorithm!r}")
    if cfg.schedule == "corollary":
        if cfg.h is not None or cfg.B is not None:
            raise ConfigError("corollary schedule derives h and B; do not supply them")
        h, B = corollary_schedule(pot.lip, cfg.N)
        return h, (B if cfg.algorithm == "pavi" else None)
    if cfg.schedule != "explicit":
        raise ConfigError(f"unknown schedule {cfg.schedule!r}")
    if cfg.h is None:
        raise ConfigError("explicit schedule requires a step size h")
    h = float(cfg.h)
    B = cfg.B
    if cfg.algorithm == "pavi":
        if B is None:
            raise ConfigError("explicit schedule requires a batch size B")
        B = int(B)
        if B < 1:
            raise ConfigError(f"B must be a positive integer, got {B}")
    elif B is not None:
        raise ConfigError("the exact algorithm takes no batch size B")
    guard = step_guard(pot, h, B)
    if not guard["holds"]:
        raise ConfigError(guard_violation(guard))
    return h, B


# stepping -----------------------------------------------------------------------


def _draw(rngs, gens, n, B, noise):
    """Make iteration n's draws; returns its context indices.

    Replication r draws through the Generator ``gens[r]``, which its stream
    ``rngs[r]`` seats at each draw's (iteration, role) key: an (m, B) array of
    atom indices at the context key, which the exact algorithm (B None) does
    not draw, and its (m, N) standard normal noise into ``noise[r]`` at the
    noise key.  The result is the (R, m, B) array of the R index arrays, or
    None without a B.
    """
    R, m, N = noise.shape
    contexts = None if B is None else np.empty((R, m, B), dtype=np.intp)
    for r, (rng, gen) in enumerate(zip(rngs, gens)):
        if B is not None:
            contexts[r] = rng.seat(gen, n, "context").integers(0, N, size=(m, B))
        rng.seat(gen, n, "noise").standard_normal(out=noise[r])
    return contexts


def _step_parts(pot, X, h, rngs, n, contexts, new, drift, noise):
    """Advance R stacked replications one iteration; returns (array, grad_rms).

    ``X`` holds the replications' (m, N) states one under the other, R m rows
    in all; the result's rows are stacked the same way, and ``grad_rms`` has
    one entry per replication.  The step draws nothing: ``contexts`` and
    ``noise`` are iteration n's draws (``_draw``), and ``rngs`` only name the
    replications' seeds.  Replication r's batch is the columns
    ``values[r, i, contexts[r, i, b]]``, the gather ``sample_product`` makes;
    ``contexts`` None steps the exact algorithm on the atoms themselves.
    Either way the drift is one ``partials_over_contexts`` call.

    The step writes only into its three (R, m, N) work arrays, none of which
    may share memory with ``X``: ``drift``, ``noise``, which it scales in
    place, and ``new``, which becomes the returned array's values.  Each
    replication's contexts, drift and ``grad_rms`` are its own; the rest of
    the update is elementwise, so it is done for all replications at once and
    each keeps the bits of a run of its own.  The new values are checked for
    finiteness once, by ``ParticleArray``; a non-finite entry is reported as a
    divergence at its location, in the lowest-index replication that has one.
    """
    R, m = new.shape[:2]
    values = X.values.reshape(new.shape)
    # an overflow anywhere in the update is reported once, as a divergence
    with np.errstate(over="ignore", invalid="ignore"):
        if contexts is None:
            z = values
        else:
            # every replication's batch in one gather, shape (R, m, B)
            z = values[np.arange(R)[:, None, None], np.arange(m)[:, None], contexts]
        pot.partials_over_contexts(values, z, product=contexts is None, out=drift)
        # new holds the squared drift until the update overwrites it
        np.multiply(drift, drift, out=new)
        mean_squares = new.mean(axis=(1, 2))
        grad_rms = [finite_rms(drift[r], mean_squares[r], new[r]) for r in range(R)]
        # new = values - h * drift + sqrt(2 h) * noise, in that order
        np.multiply(h, drift, out=drift)
        np.subtract(values, drift, out=new)
        np.multiply(math.sqrt(2.0 * h), noise, out=noise)
        np.add(new, noise, out=new)
    try:
        out = ParticleArray(new.reshape(X.values.shape))
    except ConfigError:
        # a step keeps the shape, so the only check it can fail is finiteness
        bad_r, bad_i, bad_j = np.argwhere(~np.isfinite(new))[0]
        raise DivergenceError(n, bad_i, bad_j, rngs[bad_r].seed) from None
    return out, grad_rms


def _one_step(pot, X, h, B, rng, n):
    # three fresh (1, m, N) work arrays: the result is an independent array
    new, drift, noise = (np.empty((1, X.m, X.N)) for _ in range(3))
    contexts = _draw([rng], [rng.generator()], n, B, noise)
    return _step_parts(pot, X, h, [rng], n, contexts, new, drift, noise)[0]


def pavi_step(pot, X: ParticleArray, h, B, rng: RngStream, n):
    """One stochastic iteration: contexts drawn once, then one whole-array update."""
    B = int(B)
    if B < 1:
        raise ConfigError(f"B must be >= 1, got {B}")
    return _one_step(pot, X, float(h), B, rng, int(n))


def exact_step(pot, X: ParticleArray, h, rng: RngStream, n):
    """One exact-gradient iteration; same noise addressing as pavi_step."""
    return _one_step(pot, X, float(h), None, rng, int(n))


def _drawn_ahead(draw, start, stop):
    """Yield ``draw(n)`` for n = start, ..., stop - 1, made on a worker thread.

    The worker makes ``draw(n + 1)``, and no later draw, while the caller uses
    the result of ``draw(n)``, which it must not write into.  An exception in
    ``draw`` is raised here.  Closing the generator stops and joins the worker.
    """
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()

    def work():
        # None stops the worker
        for n in iter(todo.get, None):
            try:
                done.put((draw(n), None))
            except BaseException as err:
                # raised by the caller, who would otherwise wait for it forever
                done.put((None, err))

    thread = threading.Thread(target=work, name="pavi-draw-ahead")
    thread.start()
    try:
        if start < stop:
            todo.put(start)
        for n in range(start, stop):
            result, err = done.get()
            if err is not None:
                raise err
            if n + 1 < stop:
                todo.put(n + 1)
            yield result
    finally:
        todo.put(None)
        thread.join()


# full runs ----------------------------------------------------------------------


def _write_checkpoint(path, pot, cfg, next_iteration, X, rows, wall_times):
    """Write the checkpoint document, the text ``json.dumps(doc, sort_keys=True)``.

    The particles' base64 bytes go to the file as they are, between the JSON
    text before and after them, so the largest value is never copied into a
    string.
    """
    doc = {
        "format": _CHECKPOINT_FORMAT,
        "fingerprint": potential_fingerprint(pot),
        "config": asdict(cfg),
        "next_iteration": int(next_iteration),
        "rows": [r.to_dict() for r in rows],
        "wall_times": list(wall_times),
        "particles": "",
        "shape": [X.m, X.N],
    }
    # base64 needs no JSON escaping; no other value holds this key, so the
    # split has exactly two parts
    head, tail = json.dumps(doc, sort_keys=True).split('"particles": ""')
    write_atomic(
        path,
        (head + '"particles": "').encode(),
        f8_base64(X.values),
        ('"' + tail).encode(),
    )


def read_checkpoint(path):
    """Decode a checkpoint file into its document and its particle array.

    Anything that is not a well-formed checkpoint raises ConfigError naming
    the file.
    """
    doc = read_json(path)
    if doc.get("format") == "pavi-checkpoint-v1":
        # v1 runs drew from other keys: resumed here, a run would continue on
        # draws that neither scheme gives
        raise ConfigError(f"{path} was written by an older draw scheme (pavi-checkpoint-v1)")
    if doc.get("format") != _CHECKPOINT_FORMAT:
        raise ConfigError(f"{path} is not a checkpoint file")
    try:
        m, N = (int(k) for k in doc["shape"])
        if m < 1 or N < 2:
            raise ValueError(f"shape {[m, N]}")
        text = doc["particles"]
        start = as_integer(doc["next_iteration"])
        if start is None or start < 0:
            raise ValueError(f"next_iteration {doc['next_iteration']!r} is not an integer >= 0")
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{path} is a malformed checkpoint ({err!r})") from None
    return doc, ParticleArray(decode_f8(text, m * N, path).reshape(m, N))


def _load_checkpoint(path, pot, cfg):
    doc, X = read_checkpoint(path)
    if doc.get("fingerprint") != potential_fingerprint(pot):
        raise ConfigError("checkpoint was produced with a different potential")
    if doc.get("config") != asdict(cfg):
        raise ConfigError("checkpoint was produced with a different run configuration")
    try:
        if (X.m, X.N) != (pot.m, cfg.N):
            raise ValueError(f"shape {[X.m, X.N]} for m={pot.m}, N={cfg.N}")
        rows, wall_times = doc["rows"], doc["wall_times"]
        if not isinstance(rows, list):
            raise TypeError(f"rows must be a list, got {rows!r}")
        rows = [StepTrace.from_dict(r) for r in rows]
        if not (isinstance(wall_times, list) and all(map(is_number, wall_times))):
            raise TypeError(f"wall_times must be a list of numbers, got {wall_times!r}")
        start = as_integer(doc["next_iteration"])
        if start > cfg.T:
            raise ValueError(f"next_iteration {start} is past T = {cfg.T}")
        # the rows a run records up to and including next_iteration: 0, each
        # multiple of metrics_every, and T
        me = cfg.resolved_metrics_every()
        schedule = list(range(0, start + 1, me))
        if start == cfg.T and start % me:
            schedule.append(start)
        got = [r.iteration for r in rows]
        if got != schedule:
            k, a, b = next((k, a, b) for k, (a, b) in enumerate(
                zip(got + [None], schedule + [None])) if a != b)
            raise ValueError(
                f"row {k} is at iteration {a}, where the recording schedule up to "
                f"next_iteration {start} (0, every {me}, and T = {cfg.T}) has {b}"
            )
        if len(wall_times) != len(rows):
            raise ValueError(f"{len(wall_times)} wall_times for {len(rows)} rows")
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{path} is a malformed checkpoint ({err!r})") from None
    return X, rows, wall_times, start


def run(
    pot,
    cfg: RunConfig,
    reference=None,
    sink=None,
    *,
    seeds=None,
    init="standard_normal",
    checkpoint_path=None,
    checkpoint_every=None,
    resume=False,
) -> ConvergenceReport | list[ConvergenceReport]:
    """Execute T iterations, recording W2 to the reference at a fixed cadence.

    Metrics rows appear at iteration 0, every ``metrics_every`` iterations,
    and at T.  ``sink`` receives each row as it is produced.  When a
    checkpoint path is given the final state is always written there, a
    divergence retains the last good state, and ``resume=True`` continues a
    previous run bit-identically.  The summary records the step-size guard at
    the resolved (h, B) under ``step_guard``.

    Without ``seeds`` the run uses ``cfg.seed`` and returns its report.  With
    a list of seeds it advances one replication per seed, all together as one
    stacked state, and returns their reports in seed order; each equals, row
    for row and bit for bit, the report of a run of ``cfg`` under its seed
    alone.  The work arrays then hold R m N elements each, so a caller bounds
    R.  Checkpoints, resume and ``sink`` take a single seed.

    The loop takes the draws from one iterator.  From ``_DRAW_AHEAD_MIN``
    elements R m N on, it is ``_drawn_ahead``: a worker thread makes each
    iteration's draws while the step before it runs, into the one of two noise
    arrays that step does not read; below it, each iteration's draws come just
    before its step, into one noise array.  Either way the draws, and so every
    row and the final state, are the same, and the iterator is closed, which
    stops and joins the worker, before ``run`` returns or raises.
    """
    h, B = validate_config(pot, cfg)
    me = cfg.resolved_metrics_every()
    cfgs = [cfg] if seeds is None else [replace(cfg, seed=int(s)) for s in seeds]
    R = len(cfgs)
    if R == 0:
        raise ConfigError("seeds must name at least one seed")
    if R > 1 and (sink is not None or checkpoint_path is not None or resume):
        raise ConfigError("checkpoints, resume and sink take a single seed")
    # one stream and one generator per replication serve all of its draws;
    # once the loop starts only the draws of its iterations touch them
    rngs = [RngStream(c.seed) for c in cfgs]
    gens = [rng.generator(0, "init") for rng in rngs]
    rows: list[list[StepTrace]] = [[] for _ in cfgs]
    wall_times: list[float] = []
    t0 = time.perf_counter()
    shape = (R, pot.m, cfg.N)
    ahead = R * pot.m * cfg.N >= _DRAW_AHEAD_MIN
    # the run's only (R, m, N) arrays besides its initial state: the state
    # alternates between ``target`` and ``spare``, so a step never writes into
    # the state it reads, iteration n's noise is ``noises[n % len(noises)]``,
    # and the drift array is free for W2's scratch between steps
    target, spare, drift = (np.empty(shape) for _ in range(3))
    noises = [np.empty(shape) for _ in range(2 if ahead else 1)]

    def draw(n):
        noise = noises[n % len(noises)]
        return _draw(rngs, gens, n, B, noise), noise

    def record(iteration, X, grad_rms):
        if reference is not None:
            values = X.values.reshape(shape)
            per, w2_total = w2_reference_profile(values, reference, out=drift)
        wall_times.append(time.perf_counter() - t0)
        for r in range(R):
            row = StepTrace(
                int(iteration),
                None if reference is None else float(w2_total[r]),
                None if reference is None else [float(p) for p in per[r]],
                grad_rms[r],
            )
            row.validate()
            rows[r].append(row)
            if sink is not None:
                sink(row)

    start = 0
    if resume:
        if checkpoint_path is None or not Path(checkpoint_path).exists():
            raise ConfigError("resume requested but no checkpoint file found")
        X, rows[0], wall_times, start = _load_checkpoint(checkpoint_path, pot, cfg)
    else:
        X = ParticleArray(
            np.concatenate([init_particles(pot.m, cfg.N, init, gen=g).values for g in gens])
        )
        record(0, X, [None] * R)

    iterations = range(start, cfg.T)
    draws = _drawn_ahead(draw, start, cfg.T) if ahead else (draw(n) for n in iterations)
    try:
        for n, (contexts, noise) in zip(iterations, draws):
            try:
                X, grad_rms = _step_parts(pot, X, h, rngs, n, contexts, target, drift, noise)
            except DivergenceError:
                # X is still the last good state: the step wrote only into target
                if checkpoint_path is not None:
                    _write_checkpoint(checkpoint_path, pot, cfg, n, X, rows[0], wall_times)
                raise
            target, spare = spare, target
            k = n + 1
            if k % me == 0 or k == cfg.T:
                record(k, X, grad_rms)
            if checkpoint_every and k % int(checkpoint_every) == 0 and checkpoint_path:
                _write_checkpoint(checkpoint_path, pot, cfg, k, X, rows[0], wall_times)
    finally:
        draws.close()

    if checkpoint_path is not None:
        _write_checkpoint(checkpoint_path, pot, cfg, cfg.T, X, rows[0], wall_times)
    fingerprint = potential_fingerprint(pot)
    guard = step_guard(pot, h, B)
    wall_total = time.perf_counter() - t0
    reports = []
    for c, c_rows in zip(cfgs, rows):
        report = ConvergenceReport(
            potential_fingerprint=fingerprint,
            config=asdict(c),
            seed=c.seed,
            version=__version__,
            rows=c_rows,
            summary=dict(summarize_rows(c_rows), step_guard=dict(guard)),
            wall_times=list(wall_times),
            wall_total=wall_total,
        )
        report.validate()
        reports.append(report)
    return reports[0] if seeds is None else reports
