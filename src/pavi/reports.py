"""Run reports, steady-state summaries, rate fitting, the file helpers
shared by the checkpoint and reference documents, and the key-table reader of
every document pavi reads, configs included, with its typed readers."""

from __future__ import annotations

import base64
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError

METRICS_FILE = "metrics.jsonl"
SUMMARY_FILE = "summary.json"


def write_atomic(path, *chunks) -> None:
    """Replace the file at ``path`` with the bytes ``chunks``, in one step.

    The chunks go, in order, to a temporary file in the same directory, which
    ``os.replace`` then renames over the target, so a reader finds either the
    previous file or the complete new one.  This guards against a process
    crash during the write; there is no fsync, so it does not guard against
    power loss.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
    os.replace(tmp, path)


def read_json(path) -> dict:
    """Load a JSON object, naming the file when it cannot be read or parsed."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read a JSON document from {path} ({err})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} does not hold a JSON object")
    return doc


def f8_base64(values) -> bytes:
    """Base64 of an array's little-endian float64 bytes, as ASCII bytes."""
    # a contiguous little-endian float64 array is encoded without a copy
    return base64.b64encode(np.ascontiguousarray(values, dtype="<f8"))


def decode_f8(text, count, name) -> np.ndarray:
    """Inverse of :func:`f8_base64`; checks the value count and finiteness."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name} holds a corrupt base64 buffer ({err})") from None
    if len(raw) != 8 * count:
        raise ConfigError(
            f"{name} holds a buffer of {len(raw)} bytes, expected {count} float64 values"
        )
    values = np.frombuffer(raw, dtype="<f8").astype(float)
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{name} holds non-finite values")
    return values


# a key table's default for a key its document must have
REQUIRED = object()
# the seeds that name distinct streams (particles.RngStream)
SEEDS = 2**64


def read_keys(doc, table, path, name) -> dict:
    """The values of the mapping ``doc`` by the key table ``table``.

    ``table`` maps each key to (reader, default); ``reader(key, value)``
    returns the value read or raises a ConfigError naming ``key``.  An absent
    or null key takes its default, unless that is ``REQUIRED``.  A failure is
    one ConfigError: "<path> is a malformed <name> (<reason>)" for the file
    ``path``, "<name>: <reason>" for a document nested under the key
    ``name`` (``path`` None), and the reason alone for a config (both None).
    """
    instance(dict, "a mapping", name, doc)
    try:
        values = {}
        for key, (read, default) in table.items():
            value = doc.get(key)
            if value is None and default is REQUIRED:
                raise ConfigError(f"missing key {key!r}")
            values[key] = default if value is None else read(key, value)
        return values
    except ConfigError as err:
        if name is None:
            raise
        if path is None:
            raise ConfigError(f"{name}: {err}") from None
        raise ConfigError(f"{path} is a malformed {name} ({err})") from None


def integer(key, value, low=None) -> int:
    """An integer, or an integral float, at least ``low``."""
    integral = isinstance(value, float) and value.is_integer()
    if not (integral or isinstance(value, (int, np.integer)) and not isinstance(value, bool)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{key} must be >= {low}")
    return int(value)


def stream_seed(key, value) -> int:
    """A seed in [0, SEEDS): ``RngStream`` reads a seed mod 2**64, so any
    other integer would give the streams of a seed in that range."""
    n = integer(key, value)
    if not 0 <= n < SEEDS:
        raise ConfigError(f"{key} must be an integer in [0, 2**64), got {value!r}")
    return n


def integers(key, value) -> list:
    return [integer(key, n) for n in instance((list, tuple), "a list of integers", key, value)]


def instance(kinds, what, key, value):
    """``value`` if it is an instance of ``kinds``, else a ConfigError: it must be ``what``."""
    if not isinstance(value, kinds):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


string = partial(instance, str, "a string")
mapping = partial(instance, dict, "a mapping")


def number(key, value):
    """``value`` when it is a number, not a bool, that is finite as a float."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # compared, not converted: an int past the floats is refused, with no OverflowError
    if not (is_number and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return value


def finite_number(key, value):
    """A config's number: :func:`number`, or a string that reads as a finite
    number, as that float (YAML 1.1 reads an exponent without a decimal point,
    such as ``1e-8``, as a string)."""
    try:
        return number(key, float(value) if isinstance(value, str) else value)
    except (ValueError, ConfigError):
        raise ConfigError(f"{key} must be a finite number, got {value!r}") from None


def number_array(key, value) -> np.ndarray | None:
    """``value``, numbers in a list or in equal-length rows, as a float array.

    An unset value (None) stays None; anything else that does not convert is
    a ConfigError naming ``key``.
    """
    if value is None:
        return None
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{key} must be a list of numbers or of equal-length rows of numbers, "
            f"got {value!r}"
        ) from None


def init_spec(key, init):
    """A config's init: standard_normal, {point: vector} or an explicit (m, N) list."""
    if isinstance(init, list):
        return number_array(key, init)
    if isinstance(init, dict) and list(init) == ["point"]:
        return ("point", number_array("init.point", init["point"]))
    return instance(str, "standard_normal, {point: x} or a list", key, init)


def each(read, key, value) -> list:
    """``value``, a list, with item k read as ``read(f"{key}[{k}]", item)``."""
    items = instance(list, "a list", key, value)
    return [read(f"{key}[{k}]", item) for k, item in enumerate(items)]


numbers = partial(each, number)


@dataclass
class StepTrace:
    """One recorded diagnostics row of a run."""

    iteration: int
    w2_total: float | None = None
    w2_coord: list | None = None
    grad_rms: float | None = None

    def to_dict(self) -> dict:
        return dict(zip(_ROW_KEYS, (self.iteration, self.w2_total, self.w2_coord, self.grad_rms)))

    @classmethod
    def from_dict(cls, doc) -> "StepTrace":
        """Inverse of :meth:`to_dict`; a key of the wrong type, or a
        non-finite number, is a ConfigError naming the key."""
        return cls(*read_row("row", doc).values())


# a row's keys, in the order of StepTrace's fields
_ROW_KEYS = {
    "iteration": (integer, REQUIRED),
    "w2": (number, None),
    "w2_coord": (numbers, None),
    "grad_rms": (number, None),
}


def read_row(key, doc) -> dict:
    """The values of the row document ``doc``, named ``key``, in field order."""
    return read_keys(doc, _ROW_KEYS, None, key)


@dataclass(frozen=True)
class RateFit:
    contraction_rate: float | None
    steady_state_level: float


def recording_schedule(T: int, metrics_every: int) -> list:
    """The iterations at which a run of T iterations records a row: 0, every
    ``metrics_every``, and T."""
    schedule = list(range(0, T + 1, metrics_every))
    if T % metrics_every:
        schedule.append(T)
    return schedule


def steady_window(n_points: int) -> int:
    """Index where the trailing 25% steady-state window starts."""
    if n_points < 1:
        raise ConfigError("need at least one point")
    return max(0, n_points - max(1, n_points // 4))


def rate_fit(iterations, values) -> RateFit:
    """Fit the transient geometric decay of a W2 series.

    The steady-state level is the trailing-window mean; the per-iteration
    contraction rate comes from a least-squares fit of log(value - level)
    over the early points that sit clearly above the level.  Returns rate
    None for flat or noise-dominated series.
    """
    n = np.asarray(iterations, dtype=float)
    v = np.asarray(values, dtype=float)
    if n.shape != v.shape or n.ndim != 1:
        raise ConfigError("iterations and values must be 1-D and equal length")
    if n.size < 10:
        raise ConfigError("rate fit needs at least 10 points")
    start = steady_window(n.size)
    tail = v[start:]
    level = float(tail.mean())
    level_se = float(tail.std(ddof=1) / math.sqrt(tail.size)) if tail.size > 1 else 0.0
    excess = v - level
    top = float(excess.max())
    if top <= 0.0:
        return RateFit(None, level)
    # fit only the initial consecutive stretch clearly above the level; later
    # re-crossings are steady-state noise, not transient
    floor = max(4.0 * level_se, 0.02 * top)
    below = np.flatnonzero(excess[:start] <= floor)
    prefix = below[0] if below.size else start
    usable = np.arange(prefix)
    if usable.size < 5:
        return RateFit(None, level)
    slope, _ = np.polyfit(n[usable], np.log(excess[usable]), 1)
    if slope >= 0.0:
        return RateFit(None, level)
    return RateFit(float(math.exp(slope)), level)


def fit_loglog_slope(Ns, values):
    """Least-squares slope of log(value) against log(N), with its std error."""
    Ns = np.asarray(Ns, dtype=float)
    v = np.asarray(values, dtype=float)
    if Ns.size != v.size:
        raise ConfigError("N values and measurements must have equal length")
    if Ns.size < 3:
        raise ConfigError("slope fit needs at least 3 distinct N values")
    if np.any(np.diff(Ns) <= 0):
        raise ConfigError("N values must be strictly increasing (duplicates make the fit degenerate)")
    if np.any(v <= 0):
        raise ConfigError("measurements must be positive for a log-log fit")
    x = np.log(Ns)
    y = np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = Ns.size - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if dof > 0 else 0.0
    return float(slope), stderr


def summarize_rows(rows) -> dict:
    """Steady-state statistics and transient rate for a row series."""
    w2_rows = [(r.iteration, r.w2_total) for r in rows if r.w2_total is not None]
    summary = {
        "n_rows": len(rows),
        "final_iteration": rows[-1].iteration if rows else 0,
        "final_w2": w2_rows[-1][1] if w2_rows else None,
        "steady_mean": None,
        "steady_se": None,
        "steady_from_iteration": None,
        "contraction_rate": None,
        "steady_level": None,
    }
    if not w2_rows:
        return summary
    its = np.array([r[0] for r in w2_rows], dtype=float)
    vals = np.array([r[1] for r in w2_rows], dtype=float)
    start = steady_window(vals.size)
    tail = vals[start:]
    summary["steady_mean"] = float(tail.mean())
    summary["steady_se"] = (
        float(tail.std(ddof=1) / math.sqrt(tail.size)) if tail.size > 1 else 0.0
    )
    summary["steady_from_iteration"] = int(its[start])
    if vals.size >= 10:
        fit = rate_fit(its, vals)
        summary["contraction_rate"] = fit.contraction_rate
        summary["steady_level"] = fit.steady_state_level
    return summary


@dataclass
class ConvergenceReport:
    """Full trace of one run plus metadata and steady-state summary.

    The metrics file holds only deterministic content (one JSON object per
    recorded iteration) so reruns with the same seed are byte-identical;
    wall-clock timings live in the summary sidecar.
    """

    potential_fingerprint: str
    config: dict
    seed: int
    version: str
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    wall_times: list = field(default_factory=list)
    wall_total: float = 0.0

    def validate(self):
        """Each row must read back as it is written, and follow the one before."""
        last = -1
        for row in self.rows:
            if row.iteration <= last:
                raise ConfigError("row iterations must be strictly increasing")
            last = StepTrace.from_dict(row.to_dict()).iteration

    def metrics_lines(self) -> list:
        return [
            json.dumps(row.to_dict(), sort_keys=True, separators=(",", ":"))
            for row in self.rows
        ]

    def save(self, outdir) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        self.validate()
        write_atomic(outdir / METRICS_FILE, ("\n".join(self.metrics_lines()) + "\n").encode())
        sidecar = {key: getattr(self, key) for key in _SUMMARY_KEYS}
        write_atomic(outdir / SUMMARY_FILE, json.dumps(sidecar, sort_keys=True, indent=2).encode())

    @classmethod
    def load(cls, outdir) -> "ConvergenceReport":
        """Read a saved report; a missing or malformed file is a ConfigError naming it."""
        outdir = Path(outdir)
        path = outdir / SUMMARY_FILE
        sidecar = read_keys(read_json(path), _SUMMARY_KEYS, path, "report summary")
        return cls(rows=_read_rows(outdir / METRICS_FILE), **sidecar)


def _run_summary(key, value) -> dict:
    """A report's ``summary`` mapping, whose steady_mean is a finite number or null."""
    read_keys(value, {"steady_mean": (number, None)}, None, key)
    return value


# summary.json's keys: every field of ConvergenceReport but its rows
_SUMMARY_KEYS = {
    "potential_fingerprint": (string, REQUIRED),
    "config": (mapping, REQUIRED),
    "seed": (stream_seed, REQUIRED),
    "version": (string, REQUIRED),
    "summary": (_run_summary, REQUIRED),
    "wall_times": (numbers, REQUIRED),
    "wall_total": (number, REQUIRED),
}


def _json_row(key, line) -> dict:
    """The values of the metrics row ``line``, named ``key``."""
    try:
        doc = json.loads(line)
    except ValueError as err:
        raise ConfigError(f"{key} is not JSON ({err})") from None
    return read_row(key, doc)


def _read_rows(path) -> list:
    """The StepTrace rows of a metrics file, one JSON object a line; an error
    names the file and the line."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read metrics rows from {path} ({err})") from None
    rows = {f"line {n}": line for n, line in enumerate(lines, start=1) if line.strip()}
    rows = read_keys(rows, dict.fromkeys(rows, (_json_row, REQUIRED)), path, "metrics file")
    return [StepTrace(*row.values()) for row in rows.values()]


@dataclass
class SweepEntry:
    N: int
    h: float
    B: int | None  # None for the exact algorithm, which draws no batch
    mean_w2: float
    se_w2: float
    per_seed: list


@dataclass
class SweepResult:
    """Steady-state level per particle count plus the fitted log-log slope."""

    entries: list
    slope: float
    slope_stderr: float
    seeds: list
    config: dict = field(default_factory=dict)

    @property
    def slope_ci(self):
        """95% confidence interval of the fitted slope."""
        half = 1.96 * self.slope_stderr
        return (self.slope - half, self.slope + half)

    def validate(self):
        Ns = [e.N for e in self.entries]
        if any(b <= a for a, b in zip(Ns, Ns[1:])):
            raise ConfigError("sweep entries must have strictly increasing N")
        if not math.isfinite(self.slope):
            raise ConfigError("sweep slope must be finite")

    def save(self, path) -> None:
        self.validate()
        doc = {
            "entries": [asdict(e) for e in self.entries],
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "slope_ci": list(self.slope_ci),
            "seeds": self.seeds,
            "config": self.config,
        }
        write_atomic(path, json.dumps(doc, sort_keys=True, indent=2).encode())
