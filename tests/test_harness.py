import json
import os
import signal
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pavi import (
    ConvergenceReport,
    ConfigError,
    corollary_schedule,
    potential_from_config,
    rate_fit,
)
import pavi
from pavi import dynamics, harness
from pavi.cli import main
from pavi.errors import DivergenceError
from pavi.harness import (
    build_reference,
    cmd_check,
    cmd_compare,
    cmd_oracle,
    cmd_run,
    cmd_sweep,
    load_config,
)
from pavi.reports import fit_loglog_slope, read_json


BASE_POTENTIAL = {
    "family": "quadratic",
    "precision": [[2.0, 1.0], [1.0, 2.0]],
    "mean": [1.0, -1.0],
}


def run_doc(**overrides):
    doc = {
        "potential": dict(BASE_POTENTIAL),
        "schedule": "corollary",
        "algorithm": "pavi",
        "N": 64,
        "T": 100,
        "seed": 0,
        "reference": "analytic",
    }
    doc.update(overrides)
    return doc


class TestRateFit:
    def test_exact_synthetic_series(self):
        n = np.arange(400)
        fit = rate_fit(n, 0.9**n + 0.01)
        assert fit.contraction_rate == pytest.approx(0.9, abs=1e-6)
        assert fit.steady_state_level == pytest.approx(0.01, abs=1e-6)

    def test_constant_series(self):
        fit = rate_fit(np.arange(30), np.full(30, 0.42))
        assert fit.contraction_rate is None
        assert fit.steady_state_level == pytest.approx(0.42)

    def test_noise_dominated_series(self):
        rng = np.random.default_rng(0)
        fit = rate_fit(np.arange(60), 0.3 + 0.001 * rng.standard_normal(60))
        assert fit.contraction_rate is None

    def test_too_few_points(self):
        with pytest.raises(ConfigError, match="10"):
            rate_fit(np.arange(9), np.ones(9))


class TestLogLogSlope:
    def test_exact_power_law(self):
        Ns = np.array([64, 256, 1024, 4096])
        slope, stderr = fit_loglog_slope(Ns, Ns**-0.25)
        assert slope == pytest.approx(-0.25, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_N_rejected(self):
        with pytest.raises(ConfigError, match="increasing"):
            fit_loglog_slope([64, 64, 256], [1.0, 1.0, 0.5])

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            fit_loglog_slope([64, 256], [1.0, 0.5])


class TestCmdRun:
    def test_minimal_run_row_count(self, tmp_path):
        doc = run_doc(
            potential={"family": "quadratic", "precision": [[1.0]], "mean": [0.0]},
            N=64,
            T=100,
        )
        report = cmd_run(doc, out_dir=tmp_path / "out")
        # metrics_every defaults to max(1, T // 200) = 1 for T=100
        assert len(report.rows) == 101
        assert (tmp_path / "out" / "metrics.jsonl").exists()
        assert (tmp_path / "out" / "summary.json").exists()
        assert (tmp_path / "out" / "checkpoint.json").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cmd_run(run_doc(), out_dir=tmp_path / "a")
        cmd_run(run_doc(), out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
        b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert a == b

    def test_guard_violation_raises_config_error(self, tmp_path):
        doc = run_doc(schedule="explicit", h=0.05, B=1)
        with pytest.raises(ConfigError) as err:
            cmd_run(doc, out_dir=tmp_path / "out")
        assert "0.5" in str(err.value) and "0.0277778" in str(err.value)

    def test_report_round_trip_lossless(self, tmp_path):
        out = tmp_path / "out"
        report = cmd_run(run_doc(T=40, metrics_every=10), out_dir=out)
        loaded = ConvergenceReport.load(out)
        assert loaded.metrics_lines() == report.metrics_lines()
        assert loaded.summary == json.loads(json.dumps(report.summary))
        assert loaded.seed == report.seed
        assert loaded.wall_times == pytest.approx(report.wall_times)

    def test_analytic_reference_requires_quadratic(self, tmp_path):
        doc = run_doc()
        doc["potential"] = {
            "family": "perturbed_quadratic",
            "precision": [[2.0, 0.5], [0.5, 2.0]],
            "mean": [0.0, 0.0],
            "weights": [1.0, 1.0],
        }
        with pytest.raises(ConfigError, match="quadratic"):
            cmd_run(doc, out_dir=tmp_path / "out")

    @pytest.mark.parametrize(
        "overrides, resume, match",
        [
            ({"init": "uniform"}, False, "unknown init spec"),
            ({"init": {"point": [1.0, -1.0, 0.0]}}, False, "length-2"),
            ({"init": [[0.0] * 64]}, False, r"shape \(2, 64\)"),
            ({}, True, "no checkpoint"),
            ({"reference": "missing.json"}, False, "missing.json"),
        ],
        ids=["spec", "point", "shape", "resume", "reference"],
    )
    def test_bad_input_refused_before_warning_and_output(
        self, tmp_path, capsys, overrides, resume, match
    ):
        # N=64 breaks the guard under the corollary schedule, so a warning
        # printed before the check would show
        assert not dynamics.step_guard(
            potential_from_config(BASE_POTENTIAL),
            *corollary_schedule(potential_from_config(BASE_POTENTIAL).lip, 64),
        )["holds"]
        with pytest.raises(ConfigError, match=match):
            cmd_run(run_doc(**overrides), out_dir=tmp_path / "out", resume=resume)
        assert capsys.readouterr().err == ""
        assert not (tmp_path / "out").exists()

    def test_point_init(self, tmp_path):
        doc = run_doc(T=0, init={"point": [1.0, -1.0]})
        report = cmd_run(doc, out_dir=tmp_path / "out")
        assert len(report.rows) == 1


class TestCmdSweep:
    def test_too_few_N(self, tmp_path):
        doc = run_doc(N_list=[64, 256], replications=2, T=50)
        with pytest.raises(ConfigError, match="3"):
            cmd_sweep(doc, out_dir=tmp_path)

    def test_empty_N_list_is_too_few(self):
        # a present empty list is a value, not a missing key
        with pytest.raises(ConfigError, match="at least 3 particle counts"):
            cmd_sweep(run_doc(N_list=[], replications=2, T=50))

    def test_zero_iterations_accepted(self):
        # T: 0 runs as it does for run: each replication records its initial
        # W2 only, and that is its steady level
        doc = run_doc(N_list=[16, 32, 64], replications=2, T=0)
        result = cmd_sweep(doc)
        assert result.config["T"] == 0
        first = result.entries[0]
        pot = potential_from_config(BASE_POTENTIAL)
        ref = build_reference("analytic", pot)

        def cfg(seed):
            return dynamics.RunConfig(N=16, T=0, schedule="corollary", seed=seed)

        assert first.per_seed == [
            dynamics.run(pot, cfg(s), ref).rows[0].w2_total
            for s in result.seeds
        ]

    @pytest.mark.parametrize("key", ["N_list", "T"])
    def test_missing_key(self, key):
        doc = run_doc(N_list=[16, 32, 64], replications=2, T=50)
        del doc[key]
        with pytest.raises(ConfigError, match=f"missing key '{key}'"):
            cmd_sweep(doc)

    def test_duplicate_N(self, tmp_path):
        doc = run_doc(N_list=[64, 64, 256], replications=2, T=50)
        with pytest.raises(ConfigError, match="increasing"):
            cmd_sweep(doc, out_dir=tmp_path)

    def test_reference_required(self, tmp_path):
        doc = run_doc(N_list=[16, 32, 64], replications=2, T=50, reference="none")
        with pytest.raises(ConfigError, match="reference"):
            cmd_sweep(doc, out_dir=tmp_path)

    def test_small_sweep_deterministic(self, tmp_path):
        doc = run_doc(N_list=[16, 32, 64], replications=3, T=120, metrics_every=10)
        a = cmd_sweep(doc, out_dir=tmp_path / "a")
        b = cmd_sweep(doc, out_dir=tmp_path / "b")
        assert [e.per_seed for e in a.entries] == [e.per_seed for e in b.entries]
        assert a.slope == b.slope
        loaded = read_json(tmp_path / "a" / "sweep.json")
        assert loaded["slope"] == a.slope
        assert [e["N"] for e in loaded["entries"]] == [16, 32, 64]

    def test_exact_sweep_records_no_batch(self, tmp_path):
        # the exact algorithm draws no batch, so no B is written or printed
        doc = run_doc(algorithm="exact", N_list=[16, 32, 64], replications=2, T=50)
        result = cmd_sweep(doc, out_dir=tmp_path)
        assert [e.B for e in result.entries] == [None, None, None]
        lip = potential_from_config(BASE_POTENTIAL).lip
        assert [e.h for e in result.entries] == [
            corollary_schedule(lip, N)[0] for N in (16, 32, 64)
        ]
        saved = json.loads((tmp_path / "sweep.json").read_text())
        assert [e["B"] for e in saved["entries"]] == [None, None, None]

    @pytest.mark.parametrize("algorithm, B", [("pavi", 4), ("exact", None)])
    def test_explicit_schedule_runs_at_every_N(self, tmp_path, algorithm, B):
        # each N takes the given h and B; a run of that N alone under the
        # explicit schedule gives the same steady means
        doc = run_doc(schedule="explicit", h=0.01, B=B, algorithm=algorithm,
                      N_list=[16, 32, 64], replications=2, T=20)
        result = cmd_sweep(doc, out_dir=tmp_path)
        assert [(e.h, e.B) for e in result.entries] == [(0.01, B)] * 3
        saved = json.loads((tmp_path / "sweep.json").read_text())
        assert [(e["h"], e["B"]) for e in saved["entries"]] == [(0.01, B)] * 3
        pot = potential_from_config(BASE_POTENTIAL)
        cfg = dynamics.RunConfig(N=32, T=20, h=0.01, B=B, schedule="explicit",
                                 algorithm=algorithm, seed=result.seeds[1])
        alone = dynamics.run(pot, cfg, build_reference("analytic", pot))
        assert result.entries[1].per_seed[1] == alone.summary["steady_mean"]

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"schedule": "explicit", "h": 0.5, "B": 4}, "violates"),
            ({"schedule": "explicit", "B": 4}, "requires a step size"),
            ({"h": 0.01}, "corollary schedule derives h and B"),
            ({"init": "uniform"}, "unknown init spec"),
        ],
        ids=["guard", "no-h", "corollary-h", "init"],
    )
    def test_bad_schedule_or_init_refused_before_any_run(self, monkeypatch, overrides, match):
        runs = []
        monkeypatch.setattr(dynamics, "run", lambda *a, **k: runs.append(a))
        doc = run_doc(N_list=[16, 32, 64], replications=2, T=20, **overrides)
        with pytest.raises(ConfigError, match=match):
            cmd_sweep(doc)
        assert runs == []

    def test_threaded_matches_serial(self, monkeypatch):
        # threads is accepted and ignored: the stacked replications of each
        # particle count run in one call on the calling thread, and the
        # numbers match a serial sweep
        doc = run_doc(N_list=[16, 32, 64], replications=3, T=60, metrics_every=10)
        serial = cmd_sweep(doc, out_dir=None)
        idents = []
        real_run = dynamics.run

        def recording_run(*args, **kwargs):
            idents.append(threading.get_ident())
            return real_run(*args, **kwargs)

        monkeypatch.setattr(dynamics, "run", recording_run)
        threaded = cmd_sweep(doc, out_dir=None, threads=4)
        assert idents == [threading.get_ident()] * 3
        assert serial.slope == threaded.slope
        assert [e.per_seed for e in serial.entries] == [
            e.per_seed for e in threaded.entries
        ]


class TestSweepWindow:
    """A sweep records only the steady window it averages; its per-seed levels
    must keep the bits of each seed's whole run's ``steady_mean``."""

    @settings(max_examples=30, deadline=None)
    @given(
        algorithm=st.sampled_from(["pavi", "exact"]),
        T=st.integers(0, 40),
        metrics_every=st.integers(1, 7),
        R=st.integers(2, 4),
        chunk=st.integers(1, 3),
        seed=st.integers(0, 2**32),
    )
    @example(algorithm="pavi", T=0, metrics_every=3, R=2, chunk=1, seed=0)
    @example(algorithm="exact", T=23, metrics_every=7, R=3, chunk=2, seed=1)
    def test_per_seed_equals_whole_runs_steady_mean(
        self, algorithm, T, metrics_every, R, chunk, seed
    ):
        doc = run_doc(algorithm=algorithm, N_list=[4, 6, 8], replications=R, T=T,
                      metrics_every=metrics_every, seed=seed)
        pot = potential_from_config(BASE_POTENTIAL)
        ref = build_reference("analytic", pot)
        with pytest.MonkeyPatch.context() as patch:
            # ``chunk`` replications at N = 4, fewer at the larger counts
            patch.setattr(harness, "_STACK_BUDGET", chunk * pot.m * 4)
            result = cmd_sweep(doc)
        for entry in result.entries:
            cfg = dynamics.RunConfig(N=entry.N, T=T, schedule="corollary",
                                     algorithm=algorithm, metrics_every=metrics_every)
            alone = [dynamics.run(pot, replace(cfg, seed=s), ref).summary["steady_mean"]
                     for s in result.seeds]
            assert [v.hex() for v in entry.per_seed] == [v.hex() for v in alone]
            assert entry.mean_w2 == float(np.mean(alone))

    def test_runs_record_from_the_steady_window(self, monkeypatch):
        # 0, 7, ..., 21, 23: five rows, the last of which is the window
        doc = run_doc(N_list=[4, 6, 8], replications=2, T=23, metrics_every=7)
        calls = []
        real_run = dynamics.run

        def recording_run(*args, **kwargs):
            calls.append(kwargs["record_from"])
            return real_run(*args, **kwargs)

        monkeypatch.setattr(dynamics, "run", recording_run)
        cmd_sweep(doc)
        assert calls == [23, 23, 23]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedSweep:
    """From ``_FORK_MIN`` work on, a sweep forks one process per extra CPU;
    its outputs, its errors and its process table must not show it."""

    # three counts of two seeds: three runs, so a forked sweep makes two shares
    DOC = run_doc(N_list=[16, 32, 64], replications=2, T=40, metrics_every=5, seed=3)
    # claimed constants far below the true ones diverge at every count
    DIVERGING = run_doc(
        N_list=[16, 32, 64], replications=3, T=10, metrics_every=10, seed=7,
        potential=dict(BASE_POTENTIAL, claimed={"alpha": 1e-150, "lip": 1e-150}),
    )

    @pytest.fixture
    def forks(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs os.fork and two CPUs in the affinity mask")
        real_fork, pids = os.fork, []

        def counting_fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        def hung(signum, frame):
            raise TimeoutError("a forked sweep did not return within 60 s")

        monkeypatch.setattr(harness, "_FORK_MIN", 0)
        monkeypatch.setattr(os, "fork", counting_fork)
        # a fork child does not inherit the alarm
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            yield pids
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_sweep_json_matches_serial(self, tmp_path, forks, monkeypatch):
        forked = cmd_sweep(self.DOC, out_dir=tmp_path / "forked")
        assert len(forks) == 1
        assert_no_child_left()
        monkeypatch.setattr(harness, "_FORK_MIN", 2**62)
        serial = cmd_sweep(self.DOC, out_dir=tmp_path / "serial")
        assert len(forks) == 1
        assert (tmp_path / "forked" / "sweep.json").read_bytes() == (
            tmp_path / "serial" / "sweep.json"
        ).read_bytes()
        assert [e.per_seed for e in forked.entries] == [e.per_seed for e in serial.entries]

    def test_divergence_matches_serial(self, tmp_path, capsys, forks, monkeypatch):
        with pytest.raises(DivergenceError) as forked:
            cmd_sweep(self.DIVERGING)
        assert len(forks) == 1
        assert_no_child_left()
        cfg = tmp_path / "diverging.json"
        cfg.write_text(json.dumps(self.DIVERGING))
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg)]) == 3
        forked_err = capsys.readouterr().err
        assert len(forks) == 2
        assert_no_child_left()
        monkeypatch.setattr(harness, "_FORK_MIN", 2**62)
        with pytest.raises(DivergenceError) as serial:
            cmd_sweep(self.DIVERGING)
        assert main(["sweep", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == forked_err == f"error: {serial.value}\n"
        assert str(forked.value) == str(serial.value)
        assert str(serial.value).endswith(", seed 7")

    def test_first_exception_in_item_order_wins(self, forks):
        # costs [1, 5, 1, 1] give this process items 0, 2 and 3 and the child
        # item 1: the child's divergence comes first and crosses the pipe
        def run(x):
            if x == 1:
                raise DivergenceError(4, 0, 5, 11)
            if x == 3:
                raise ValueError("later")
            return [x]

        with pytest.raises(DivergenceError, match="iteration 4, coordinate 0, particle 5, seed 11"):
            harness._spread(run, [0, 1, 2, 3], [1, 5, 1, 1])
        assert len(forks) == 1
        assert_no_child_left()
        assert harness._spread(lambda x: [x, x], [0, 1, 2, 3], [1, 5, 1, 1]) == [
            [0, 0], [1, 1], [2, 2], [3, 3]
        ]
        assert len(forks) == 2
        assert_no_child_left()

    def test_child_death_names_wait_status(self, forks, monkeypatch):
        parent = os.getpid()
        real = harness.run_replications

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(7)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "run_replications", dying)
        with pytest.raises(RuntimeError, match="gave no results \\(wait status 1792\\)"):
            cmd_sweep(self.DOC)
        assert len(forks) == 1
        assert_no_child_left()

    def test_one_share_without_fork(self, forks):
        # one run, or a process with a second thread, makes the calls in order here
        assert harness._spread(lambda x: [x], [5], [1]) == [[5]]
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert harness._spread(lambda x: [x], [1, 2, 3], [1, 1, 1]) == [[1], [2], [3]]
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and forks == []

    def test_test_sweeps_stay_serial(self, monkeypatch):
        # the tiny sweeps of the other tests (here and in test_cli.py and
        # test_benchmark_hooks.py) do less work T m R sum(N) than _FORK_MIN,
        # so they test the serial path
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        for N_list, R, T in [
            ([16, 32, 64], 3, 120), ([16, 32, 64], 2, 80), ([2048, 4096, 8192], 2, 2),
        ]:
            assert T * 2 * R * sum(N_list) < harness._FORK_MIN
            cmd_sweep(run_doc(N_list=N_list, replications=R, T=T))


class TestCmdOracle:
    def test_quadratic_analytic_path(self, tmp_path):
        claimed = dict(BASE_POTENTIAL, claimed={"alpha": 0.9, "lip": 3.2})
        for potential in (dict(BASE_POTENTIAL), claimed):
            doc = {"potential": potential, "method": "auto"}
            out = cmd_oracle(doc, out_path=tmp_path / "ref.json")
            assert json.loads(out.read_text())["provenance"] == "analytic-gaussian"

    def test_perturbed_grid_path_with_init_check(self, tmp_path):
        doc = {
            "potential": {
                "family": "perturbed_quadratic",
                "precision": [[2.0, 0.5], [0.5, 2.0]],
                "mean": [0.0, 0.0],
                "weights": [1.0, 1.0],
            },
            "grid_size": 257,
            "tol": 1e-8,
        }
        out = cmd_oracle(doc, out_path=tmp_path / "ref.json")
        saved = json.loads(out.read_text())
        assert saved["provenance"] == "grid-oracle"
        assert saved["residual"]["converged"] is True
        assert max(saved["residual"]["per_coordinate_w2"]) < 1e-8
        assert saved["residual"]["init_agreement_w2"] < 1e-6

    def test_forced_grid_path_on_quadratic(self, tmp_path):
        doc = {
            "potential": dict(BASE_POTENTIAL),
            "method": "grid",
            "grid_size": 257,
        }
        out = cmd_oracle(doc, out_path=tmp_path / "ok.json")
        assert json.loads(out.read_text())["provenance"] == "grid-oracle"

    def test_m4_separable_grid_path(self, tmp_path):
        # beyond m=3 the grid solver relies on the mean route of affine coupling
        precision = (np.eye(4) + 0.1).tolist()
        doc = {
            "potential": {"family": "quadratic", "precision": precision},
            "method": "grid",
            "grid_size": 129,
            "check_inits": False,
        }
        out = cmd_oracle(doc, out_path=tmp_path / "m4.json")
        saved = json.loads(out.read_text())
        assert saved["provenance"] == "grid-oracle"
        assert saved["residual"]["converged"] is True


class TestCmdCheck:
    def test_correct_constants_pass(self):
        passed, lines = cmd_check({"potential": dict(BASE_POTENTIAL), "reference": "analytic"})
        assert passed
        names = [name for name, _, _ in lines]
        assert {"gradient_consistency", "convexity_sandwich", "contraction_map",
                "reference_moments"} <= set(names)

    def test_understated_lip_fails_sandwich(self):
        doc = {"potential": dict(BASE_POTENTIAL)}
        doc["potential"]["claimed"] = {"lip": 1.5}
        passed, lines = cmd_check(doc)
        assert not passed
        failures = {name for name, ok, _ in lines if not ok}
        assert "convexity_sandwich" in failures


class TestCmdCompare:
    def test_two_reports(self, tmp_path):
        cmd_run(run_doc(T=40, metrics_every=10), out_dir=tmp_path / "a")
        cmd_run(run_doc(T=40, metrics_every=10, seed=1), out_dir=tmp_path / "b")
        result = cmd_compare(tmp_path / "a", tmp_path / "b")
        assert result["mode"] == "report-report"
        assert result["shared_iterations"] == 5

    def test_identical_reports_zero_delta(self, tmp_path):
        cmd_run(run_doc(T=40, metrics_every=10), out_dir=tmp_path / "a")
        cmd_run(run_doc(T=40, metrics_every=10), out_dir=tmp_path / "b")
        result = cmd_compare(tmp_path / "a", tmp_path / "b")
        assert result["mean_abs_delta"] == 0.0

    def test_report_vs_reference(self, tmp_path):
        out = tmp_path / "run"
        cmd_run(run_doc(T=60, metrics_every=10), out_dir=out)
        ref_path = cmd_oracle({"potential": dict(BASE_POTENTIAL)}, out_path=tmp_path / "ref.json")
        result = cmd_compare(out, ref_path)
        assert result["mode"] == "report-reference"
        assert result["iteration"] == 60
        assert result["w2_total"] > 0
        assert len(result["w2_coord"]) == 2


class TestConfigLoading:
    def test_yaml_and_json(self, tmp_path):
        ypath = tmp_path / "c.yaml"
        ypath.write_text("N: 64\nT: 10\n")
        assert load_config(ypath) == {"N": 64, "T": 10}
        jpath = tmp_path / "c.json"
        jpath.write_text('{"N": 64, "T": 10}')
        assert load_config(jpath) == {"N": 64, "T": 10}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_json_config_never_imports_yaml(self, tmp_path):
        jpath = tmp_path / "c.json"
        jpath.write_text('{"N": 64, "T": 10}')
        ypath = tmp_path / "c.yaml"
        ypath.write_text("N: 64\nT: 10\n")
        script = (
            "import sys\n"
            "from pavi.harness import load_config\n"
            "assert load_config(sys.argv[1]) == {'N': 64, 'T': 10}\n"
            "print('yaml' in sys.modules)\n"
            "assert load_config(sys.argv[2]) == {'N': 64, 'T': 10}\n"
            "print('yaml' in sys.modules)\n"
        )
        # the child imports the pavi this process imported, however it was found
        src = str(Path(pavi.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script, str(jpath), str(ypath)],
            capture_output=True, text=True, check=True, env=env,
        )
        assert out.stdout.split() == ["False", "True"]

    def test_json_exponent_is_a_float(self, tmp_path):
        jpath = tmp_path / "c.json"
        jpath.write_text('{"tol": 1e-08}')
        tol = load_config(jpath)["tol"]
        assert type(tol) is float and tol == 1e-08

    def test_json_nan_and_infinity_read_as_yaml(self, tmp_path):
        # not JSON, so YAML reads them, as plain strings
        jpath = tmp_path / "c.json"
        jpath.write_text('{"h": NaN, "tol": Infinity}')
        assert load_config(jpath) == {"h": "NaN", "tol": "Infinity"}

    def test_json_exponent_integer_runs(self, tmp_path):
        # JSON reads 1e3 as 1000.0, an integral float; YAML 1.1 would read
        # the string "1e3", which is not an integer
        from pavi.cli import main

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(run_doc(T=2)).replace('"N": 64', '"N": 1e3'))
        assert load_config(cfg)["N"] == 1000.0
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        n = json.loads((out / "summary.json").read_text())["config"]["N"]
        assert type(n) is int and n == 1000

    def test_reference_none(self):
        import pavi

        pot = pavi.QuadraticPotential(np.eye(2))
        assert build_reference(None, pot) is None
        assert build_reference("none", pot) is None
