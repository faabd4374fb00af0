"""Run reports, steady-state summaries, rate fitting, the file helpers
shared by the checkpoint and reference documents, and the typed readers of
config values."""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import asdict, dataclass, field
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


def encode_f8(values) -> str:
    """Base64 text of an array's little-endian float64 bytes."""
    return f8_base64(values).decode("ascii")


def decode_f8(text, count, path) -> np.ndarray:
    """Inverse of :func:`encode_f8`; checks the value count and finiteness."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path} holds a corrupt base64 buffer ({err})") from None
    if len(raw) != 8 * count:
        raise ConfigError(
            f"{path} holds a buffer of {len(raw)} bytes, expected {count} float64 values"
        )
    values = np.frombuffer(raw, dtype="<f8").astype(float)
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{path} holds non-finite values")
    return values


@dataclass
class StepTrace:
    """One recorded diagnostics row of a run."""

    iteration: int
    w2_total: float | None = None
    w2_coord: list | None = None
    grad_rms: float | None = None

    def validate(self):
        for v in (self.w2_total, self.grad_rms):
            if v is not None and not math.isfinite(v):
                raise ConfigError(f"non-finite diagnostic at iteration {self.iteration}")
        if self.w2_coord is not None and not all(math.isfinite(v) for v in self.w2_coord):
            raise ConfigError(f"non-finite diagnostic at iteration {self.iteration}")

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "w2": self.w2_total,
            "w2_coord": self.w2_coord,
            "grad_rms": self.grad_rms,
        }

    @classmethod
    def from_dict(cls, doc) -> "StepTrace":
        """Inverse of :meth:`to_dict`; a field of the wrong type is a TypeError."""
        iteration = as_integer(doc["iteration"])
        if iteration is None:
            raise TypeError(f"iteration must be an integer, got {doc['iteration']!r}")
        for key in ("w2", "grad_rms"):
            if doc.get(key) is not None and not is_number(doc[key]):
                raise TypeError(f"{key} must be a number or null, got {doc[key]!r}")
        coord = doc.get("w2_coord")
        if coord is not None and not (
            isinstance(coord, list) and all(is_number(v) for v in coord)
        ):
            raise TypeError(f"w2_coord must be a list of numbers or null, got {coord!r}")
        return cls(
            iteration=iteration,
            w2_total=doc.get("w2"),
            w2_coord=coord,
            grad_rms=doc.get("grad_rms"),
        )


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def as_integer(value) -> int | None:
    """``value`` as an int when it is an integer or an integral float, else None."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else None
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    return None


def finite_number(key, value):
    """``value`` when it is a number that is finite as a float; else a
    ConfigError naming ``key``.

    A string that reads as such a number is returned as that float: YAML 1.1
    reads an exponent without a decimal point, such as ``1e-8``, as a string.
    """
    try:
        number = float(value) if isinstance(value, str) or is_number(value) else math.nan
    except (ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return value if is_number(value) else number


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
        last = -1
        for row in self.rows:
            if row.iteration <= last:
                raise ConfigError("row iterations must be strictly increasing")
            last = row.iteration
            row.validate()

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
        sidecar = {
            "potential_fingerprint": self.potential_fingerprint,
            "config": self.config,
            "seed": self.seed,
            "version": self.version,
            "summary": self.summary,
            "wall_times": self.wall_times,
            "wall_total": self.wall_total,
        }
        write_atomic(outdir / SUMMARY_FILE, json.dumps(sidecar, sort_keys=True, indent=2).encode())

    @classmethod
    def load(cls, outdir) -> "ConvergenceReport":
        """Read a saved report; a missing or malformed file is a ConfigError."""
        outdir = Path(outdir)
        path = outdir / SUMMARY_FILE
        sidecar = read_json(path)
        rows = _read_rows(outdir / METRICS_FILE)
        try:
            report = cls(
                potential_fingerprint=sidecar["potential_fingerprint"],
                config=sidecar["config"],
                seed=sidecar["seed"],
                version=sidecar["version"],
                rows=rows,
                summary=sidecar["summary"],
                wall_times=sidecar["wall_times"],
                wall_total=sidecar["wall_total"],
            )
        except KeyError as missing:
            raise ConfigError(f"{path} has no key {missing}") from None
        if not isinstance(report.summary, dict):
            raise ConfigError(f"{path} holds a summary that is not a mapping")
        steady = report.summary.get("steady_mean")
        if not (steady is None or is_number(steady)):
            raise ConfigError(f"{path} holds a steady_mean {steady!r}, not a number or null")
        return report


def _read_rows(path) -> list:
    """The StepTrace rows of a metrics file, naming the file and line on failure."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read metrics rows from {path} ({err})") from None
    rows = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rows.append(StepTrace.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as err:
            raise ConfigError(f"{path} line {number} is not a metrics row ({err})") from None
    return rows


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
