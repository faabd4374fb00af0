"""Spans recorded around calls into each pavi module, and their attribution.

The benchmark replaces module and class attributes the program calls through
with wrappers that open a span (name, start, end, parent, thread) and add to
computed work counters.  Spans stay in memory until the operation ends.

Attribution splits the traced operation's wall time among span names.  At
each instant every thread contributes its innermost open span; a span that is
an ancestor of another thread's innermost span (the main thread waiting on a
pool) does not count, and the instant is shared equally by the rest.  With
one thread this is the usual self time: duration minus the time children
cover.  The shares of all names, including the root's ("unattributed"), add
up to the root's duration.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict

ROOT = "op"


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or None, thread ident]
        self.spans = []
        self.counts = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key, value):
        with self._lock:
            self.counts[key] += value

    def call(self, name, fn, args, kwargs, counts=None, after=None):
        stack = self._stack()
        if stack and self.spans[stack[-1]][0] == name:
            # a subclass method reaching its wrapped base through super()
            return fn(*args, **kwargs)
        if counts:
            for key, value in counts(*args, **kwargs).items():
                self.count(key, value)
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, threading.get_ident()])
        stack.append(idx)
        span = self.spans[idx]
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if after is not None:
            for key, value in after(result, *args, **kwargs).items():
                self.count(key, value)
        return result

    def wrap(self, owner, attr, name, counts=None, after=None):
        """Replace ``owner.attr`` by a wrapper that calls it inside a span."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return tracer.call(name, orig, args, kwargs, counts, after)

        setattr(owner, attr, wrapper)


def install(tracer):
    """Wrap the calls of every pavi layer the benchmark reports on."""
    import numpy as np

    from pavi import dynamics, harness, metrics, oracle, particles, potentials, reports

    def one(key):
        return lambda *a, **k: {key: 1}

    def cols(key):
        return lambda self, *a, **k: {key: np.shape(a[-1])[1]}

    def drift(pot, z, i, xs):
        m, b = np.shape(z)
        k = np.size(xs)
        # the broadcast materialises an m x B x K block of float64; the
        # quadratic partial centres it (m B K), takes row i's dot product
        # (2 m B K) and the batch mean adds B K
        return {
            "dynamics.drift.bytes_computed": 8 * m * b * k,
            "dynamics.drift.flops_computed": 3 * m * b * k + b * k,
        }

    def checkpoint(path, pot, cfg, next_iteration, X, *rest):
        raw = 8 * X.values.size
        return {"dynamics.checkpoint.calls": 1,
                "dynamics.checkpoint.bytes": 4 * ((raw + 2) // 3)}

    def solved(result, pot, *a, **k):
        sweeps = result.residual.sweeps
        return {"oracle.sweeps": sweeps, "oracle.transform.committed": sweeps * result.m}

    def saved_report(result, self, outdir):
        size = sum(os.path.getsize(os.path.join(outdir, f))
                   for f in (reports.METRICS_FILE, reports.SUMMARY_FILE))
        return {"reports.save.bytes": size}

    def saved_sweep(result, self, path):
        return {"reports.save.bytes": os.path.getsize(path)}

    tracer.wrap(particles.RngStream, "generator", "particles.rng_generator",
                one("particles.rng_generator.calls"))
    tracer.wrap(dynamics, "sample_product", "particles.sample_product")
    tracer.wrap(particles.ParticleArray, "__init__", "particles.particle_array",
                one("particles.particle_array.calls"))
    for cls in (potentials.QuadraticPotential, potentials.PerturbedQuadraticPotential):
        tracer.wrap(cls, "partial_cols", "potentials.partial_cols",
                    cols("potentials.partial_cols.cols"))
        tracer.wrap(cls, "value_cols", "potentials.value_cols",
                    cols("potentials.value_cols.cols"))
    tracer.wrap(dynamics, "stochastic_grad_at", "dynamics.drift", drift)
    tracer.wrap(dynamics, "_step_parts", "dynamics.step")
    tracer.wrap(dynamics, "_write_checkpoint", "dynamics.checkpoint", checkpoint)
    tracer.wrap(dynamics, "run", "dynamics.run")
    tracer.wrap(dynamics, "w2_reference_profile", "metrics.w2_reference",
                one("metrics.w2_reference.calls"))
    tracer.wrap(metrics.ReferenceProduct, "quantile_table", "metrics.quantile_table")
    tracer.wrap(harness, "run_replications", "harness.run_replications")
    tracer.wrap(oracle, "vbar_on_grid", "oracle.vbar", one("oracle.vbar.calls"))
    tracer.wrap(oracle.GridDensity, "__init__", "oracle.grid_density")
    tracer.wrap(oracle.GridDensity, "w2_to", "oracle.w2_to")
    tracer.wrap(oracle, "apply_transform", "oracle.apply_transform",
                one("oracle.apply_transform.calls"))
    tracer.wrap(oracle, "fixed_point_solve", "oracle.solve", after=solved)
    tracer.wrap(oracle, "minimizer", "oracle.minimizer")
    tracer.wrap(oracle, "save_reference", "oracle.save_reference")
    tracer.wrap(reports.ConvergenceReport, "save", "reports.save", after=saved_report)
    tracer.wrap(reports.SweepResult, "save", "reports.save", after=saved_sweep)


def _segments(spans, root):
    """Innermost-span segments (start, end, span index) of every thread.

    Spans on one thread nest, so a span's own segments are the gaps its
    same-thread children leave.  Only the root's subtree is kept.
    """
    keep = [False] * len(spans)
    keep[root] = True
    for idx in range(root + 1, len(spans)):
        parent = spans[idx][3]
        keep[idx] = parent is not None and keep[parent]
    children = defaultdict(list)
    for idx, (_, _, _, parent, thread) in enumerate(spans):
        if keep[idx] and idx != root and spans[parent][4] == thread:
            children[parent].append(idx)
    out = []
    for idx in range(len(spans)):
        if not keep[idx]:
            continue
        cursor = spans[idx][1]
        for child in sorted(children[idx], key=lambda c: spans[c][1]):
            if spans[child][1] > cursor:
                out.append((cursor, spans[child][1], idx))
            cursor = max(cursor, spans[child][2])
        if spans[idx][2] > cursor:
            out.append((cursor, spans[idx][2], idx))
    return out


def attribute(spans, root):
    """Wall-time share of every span name within the root span.

    The root's own share is reported under ``ROOT``.
    """
    segments = _segments(spans, root)
    events = []
    for seg_id, (start, end, _) in enumerate(segments):
        events.append((start, 1, seg_id))
        events.append((end, 0, seg_id))
    events.sort()

    def is_ancestor(a, b):
        p = spans[b][3]
        while p is not None:
            if p == a:
                return True
            p = spans[p][3]
        return False

    shares = defaultdict(float)
    active = set()
    last = None
    for when, kind, seg_id in events:
        if active and when > last:
            owners = [segments[s][2] for s in active]
            busy = [o for o in owners
                    if not any(o != other and is_ancestor(o, other) for other in owners)]
            part = (when - last) / len(busy)
            for o in busy:
                shares[spans[o][0] if o != root else ROOT] += part
        if kind:
            active.add(seg_id)
        else:
            active.discard(seg_id)
        last = when
    return dict(shares)
