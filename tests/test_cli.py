import json
import math

import pytest
import yaml

from pavi import corollary_schedule
from pavi.cli import main

RUN_DOC = {
    "potential": {
        "family": "quadratic",
        "precision": [[2.0, 1.0], [1.0, 2.0]],
        "mean": [1.0, -1.0],
    },
    "schedule": "corollary",
    "N": 64,
    "T": 60,
    "seed": 0,
    "metrics_every": 10,
    "reference": "analytic",
}

# a potential section with a key its family does not read, as a whole
# top-level ``potential`` value
UNREAD_POTENTIAL_KEYS = [
    ("potential", dict(RUN_DOC["potential"], mena=[5, 5]),
     "potential.mena is not read by the quadratic family"),
    ("potential", dict(RUN_DOC["potential"], weights=[1.0, 1.0]),
     "potential.weights is not read by the quadratic family"),
    ("potential", dict(RUN_DOC["potential"], claimed={"lipschitz": 3}),
     "potential.claimed.lipschitz is not a claimed constant"),
]
UNREAD_POTENTIAL_IDS = ["potential-unknown-key", "weights-on-quadratic", "claimed-unknown-key"]


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def truncate(path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def json_edit(edit):
    """A damage function that applies ``edit`` to a JSON file's document."""
    def damage(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return damage


class TestRunCommand:
    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUN_DOC)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "run complete" in capsys.readouterr().out
        assert (tmp_path / "out" / "metrics.jsonl").exists()

    def test_guard_violation_exit_two_with_bounds(self, tmp_path, capsys):
        doc = dict(RUN_DOC, schedule="explicit", h=0.05, B=1)
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "0.5" in err and "0.0277778" in err

    def test_boundary_equality_exit_two(self, tmp_path, capsys):
        doc = dict(RUN_DOC, schedule="explicit", h=1.0 / 36.0, B=1)
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_small_N_exit_two(self, tmp_path, capsys):
        doc = dict(RUN_DOC, N=1)
        cfg = write_config(tmp_path, doc)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "N >= 2" in capsys.readouterr().err

    def test_seed_override_changes_metrics(self, tmp_path):
        cfg = write_config(tmp_path, RUN_DOC)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "1"])
        a = (tmp_path / "a" / "metrics.jsonl").read_text()
        b = (tmp_path / "b" / "metrics.jsonl").read_text()
        assert a != b

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 1)])
    def test_seed_outside_the_streams_exit_two(self, tmp_path, capsys, seed):
        # RngStream reads a seed mod 2**64: 2**64 + 1 would write seed 1's
        # metrics under another seed's name, so it is refused, as a flag and
        # in the config, before anything is written
        out = tmp_path / "out"
        cfg = write_config(tmp_path, RUN_DOC)
        assert main(["run", "--config", str(cfg), "--out", str(out), f"--seed={seed}"]) == 2
        cfg = write_config(tmp_path, dict(RUN_DOC, seed=int(seed)))
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: seed must be an integer in [0, 2**64), got {int(seed)}"] * 2
        assert not out.exists()

    def test_thread_flag_reproduces_metrics(self, tmp_path):
        cfg = write_config(tmp_path, RUN_DOC)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--threads", "4"])
        assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == (
            tmp_path / "b" / "metrics.jsonl"
        ).read_bytes()

    def test_resume_flag(self, tmp_path, capsys):
        doc = dict(RUN_DOC, checkpoint_every=20)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        # finished checkpoint resumes into an immediate no-op completion
        assert main(["run", "--config", str(cfg), "--out", str(out), "--resume"]) == 0

    @pytest.mark.parametrize("algorithm", ["pavi", "exact"])
    def test_overflowing_drift_exit_three_keeps_checkpoint(self, tmp_path, capsys, algorithm):
        # the drift at a point mass near the largest double overflows on the
        # first step, under either algorithm
        doc = dict(
            RUN_DOC,
            potential={"family": "quadratic", "precision": [[2.0, 0.5], [0.5, 2.0]]},
            algorithm=algorithm,
            init={"point": [1e308, 0.0]},
            reference="none",
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "non-finite particle update at iteration 0" in err
        assert "RuntimeWarning" not in err
        assert json.loads((out / "checkpoint.json").read_text())["next_iteration"] == 0

    def test_huge_finite_drift_records_finite_grad_rms(self, tmp_path, capsys):
        # at a point mass at 1e200 every drift is finite but its square is
        # not; grad_rms is still the root mean square, about 1.46e200 at first
        doc = dict(
            RUN_DOC,
            potential={"family": "quadratic", "precision": [[2.0, 0.5], [0.5, 2.0]]},
            init={"point": [1e200, 0.0]},
            N=64,
            T=3,
            metrics_every=1,
            reference="none",
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        grad_rms = [r["grad_rms"] for r in rows[1:]]
        assert len(grad_rms) == 3 and all(math.isfinite(g) and g > 1e199 for g in grad_rms)
        # the drift at the start is P x = (2e200, 0.5e200)
        assert grad_rms[0] == pytest.approx(math.sqrt((4.0 + 0.25) / 2.0) * 1e200, rel=1e-12)
        assert json.loads((out / "checkpoint.json").read_text())["next_iteration"] == 3

    def test_tiny_claimed_lip_diverges_exit_three(self, tmp_path, capsys):
        # lip**2 underflows to 0 at lip = 1e-306; the batch bound is still
        # finite, and the corollary step of about 5e305 diverges
        potential = {
            "family": "quadratic",
            "precision": [[2.0, 0.5], [0.5, 2.0]],
            "claimed": {"alpha": 1.0e-306, "lip": 1.0e-306},
        }
        cfg = write_config(tmp_path, dict(RUN_DOC, potential=potential, N=16, T=5))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "non-finite particle update" in errors[0]

    def test_overflowing_w2_record_diverges_exit_three(self, tmp_path, capsys):
        # claimed constants far below the true ones take finite particles to
        # about 1e200, where W2's squared distances overflow, and then past
        # the largest double: the run diverges rather than failing its record
        potential = dict(RUN_DOC["potential"], claimed={"alpha": 1.0e-100, "lip": 1.0e-100})
        doc = dict(RUN_DOC, potential=potential, N=16, T=10, metrics_every=1)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "non-finite particle update" in err and "non-finite diagnostic" not in err
        assert "RuntimeWarning" not in err
        # the checkpoint keeps the last good state, whose W2 was recorded
        diverged = json.loads((out / "checkpoint.json").read_text())
        assert diverged["rows"][-1]["iteration"] == diverged["next_iteration"]
        assert diverged["rows"][-1]["w2"] > 1e150

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("N", "abc", "N must be an integer"),
            ("N", 64.5, "N must be an integer"),
            ("T", [60], "T must be an integer"),
            ("seed", "x", "seed must be an integer"),
            ("B", "x", "B must be an integer"),
            ("metrics_every", True, "metrics_every must be an integer"),
            ("checkpoint_every", "z", "checkpoint_every must be an integer"),
            ("h", "x", "h must be a finite number"),
            ("h", float("inf"), "h must be a finite number"),
            ("h", float("nan"), "h must be a finite number"),
            ("h", 10**400, "h must be a finite number"),
            ("checkpoint_every", -3, "checkpoint_every must be >= 0"),
            ("potential.precision", "abc", "potential.precision must be a list of numbers"),
            ("potential.precision", [[1, 2], [3]], "potential.precision must be a list of"),
            ("potential.precision", [], "precision matrix must be square and non-empty"),
            ("potential.mean", [], "mean must be a length-2 vector"),
            ("potential.mean", ["x", 0], "potential.mean must be a list of numbers"),
            ("potential.weights", [1, "a"], "potential.weights must be a list of numbers"),
            ("potential.claimed", {"alpha": "q"}, "potential.claimed.alpha must be a finite"),
            ("potential.claimed", [1], "potential.claimed must be a mapping"),
            ("init", {"point": ["a", 1]}, "init.point must be a list of numbers"),
            ("reference", 5, "reference must be analytic, none or a file path"),
            ("potential.mena", [5, 5], "potential.mena is not read by the perturbed_quadratic"),
            ("potential.family", "quadratic", "potential.weights is not read by the quadratic"),
            ("potential.claimed", {"lipschitz": 3}, "potential.claimed.lipschitz is not a claimed"),
            ("init", {"foo": 1}, "init must be standard_normal, {point: x} or a list"),
            ("init", [[1, 2], [3]], "init must be a list of numbers or of equal-length rows"),
            ("output", 5, "output must be a path"),
            ("potential.claimed", [], "potential.claimed must be a mapping"),
            ("potential.claimed", 0, "potential.claimed must be a mapping"),
            ("potential.claimed", "", "potential.claimed must be a mapping"),
            ("algoritm", "exact", "unknown config key 'algoritm'; did you mean 'algorithm'?"),
            ("chekpoint_every", 5,
             "unknown config key 'chekpoint_every'; did you mean 'checkpoint_every'?"),
            ("metrics_evry", 3, "unknown config key 'metrics_evry'; did you mean 'metrics_every'?"),
            ("check_inits", "no", "check_inits must be true or false"),
        ],
        ids=[
            "N-string", "N-fraction", "T-list", "seed-string", "B-string",
            "metrics_every-bool", "checkpoint_every-string", "h-string", "h-inf", "h-nan",
            "h-huge-integer", "checkpoint_every-negative", "precision-string", "precision-ragged",
            "precision-empty", "mean-empty",
            "mean-string-entry", "weights-string-entry", "claimed-string", "claimed-list",
            "init-point-string-entry", "reference-number", "potential-unknown-key",
            "weights-on-quadratic", "claimed-unknown-key", "init-mapping", "init-ragged",
            "output-number", "claimed-empty-list", "claimed-zero", "claimed-empty-string",
            "algorithm-misspelled", "checkpoint_every-misspelled", "metrics_every-misspelled",
            "oracle-key-mistyped",
        ],
    )
    def test_mistyped_run_key_exit_two(self, tmp_path, capsys, key, value, message):
        # a dotted key names an entry of a section, such as potential.mean
        potential = dict(RUN_DOC["potential"], family="perturbed_quadratic", weights=[1.0, 1.0])
        doc = dict(
            RUN_DOC, potential=potential, schedule="explicit", h=0.01, B=4, reference="none"
        )
        *sections, name = key.split(".")
        section = doc
        for part in sections:
            section = section[part]
        section[name] = value
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.splitlines()[0]]
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    def test_explicit_init_list_runs(self, tmp_path):
        # an (m, N) list of one point gives the run of that point mass
        metrics = []
        for name, init in [("list", [[0.5] * 64, [-0.5] * 64]), ("point", {"point": [0.5, -0.5]})]:
            cfg = write_config(tmp_path, dict(RUN_DOC, init=init, T=4, metrics_every=1))
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            metrics.append((out / "metrics.jsonl").read_bytes())
        assert metrics[0] == metrics[1]

    def test_yaml_exponent_reads_as_number(self, tmp_path):
        # YAML 1.1 reads an exponent without a decimal point as a string
        cfg = write_config(tmp_path, dict(RUN_DOC, schedule="explicit", B=4))
        cfg.write_text(cfg.read_text() + "h: 1e-2\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("N, holds", [(16, False), (2048, True)])
    def test_corollary_step_guard_recorded(self, tmp_path, capsys, N, holds):
        # corollary schedule on A = [[2, 1], [1, 2]]: h = 1/(3 N^(1/4)) breaks
        # h < B alpha / (4 lip^2) at N = 16 and meets it at N = 2048
        cfg = write_config(tmp_path, dict(RUN_DOC, N=N, T=2))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        guard = json.loads((out / "summary.json").read_text())["summary"]["step_guard"]
        h, B = corollary_schedule(3.0, N)
        assert guard["h"] == h and guard["B"] == B
        assert guard["bound_pair"] == pytest.approx(0.5, rel=1e-12)
        assert guard["bound_batch"] == pytest.approx(B / 36.0, rel=1e-12)
        assert guard["holds"] is holds
        warnings = [line for line in capsys.readouterr().err.splitlines() if line]
        if holds:
            assert warnings == []
        else:
            assert len(warnings) == 1
            assert "h=0.166667" in warnings[0] and "0.0555556" in warnings[0]

    def test_exact_corollary_step_guard_has_no_batch(self, tmp_path, capsys):
        # the exact step draws no batch, so only h < 2/(alpha+lip) = 0.5 applies
        # at the h = 0.167 that breaks the batch bound for pavi at N = 16
        cfg = write_config(tmp_path, dict(RUN_DOC, N=16, T=2, algorithm="exact"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        guard = json.loads((out / "summary.json").read_text())["summary"]["step_guard"]
        assert guard["h"] == corollary_schedule(3.0, 16)[0]
        assert guard["B"] is None and guard["bound_batch"] is None
        assert guard["holds"] is True
        assert capsys.readouterr().err == ""

    def test_resume_truncated_checkpoint_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(RUN_DOC, checkpoint_every=20))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        truncate(out / "checkpoint.json")
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out), "--resume"]) == 2
        assert "checkpoint.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["rows"][0].update(w2="a"),
            lambda doc: doc["rows"][2].update(w2=math.inf),
            lambda doc: doc["rows"].append(["not", "a", "row"]),
            lambda doc: doc.pop("rows"),
            lambda doc: doc.update(rows={"iteration": 0}),
            lambda doc: doc.pop("wall_times"),
            lambda doc: doc.update(wall_times=["x"]),
            lambda doc: doc.pop("next_iteration"),
            lambda doc: doc.update(next_iteration="ten"),
            lambda doc: doc.update(next_iteration=-1),
            lambda doc: doc.update(shape=[1, 128]),
            lambda doc: doc.pop("fingerprint"),
            lambda doc: doc.pop("config"),
        ],
        ids=[
            "row-w2-string", "row-w2-infinite", "row-not-mapping", "rows-missing", "rows-mapping",
            "wall-times-missing", "wall-times-string", "next-iteration-missing",
            "next-iteration-string", "next-iteration-negative", "shape-mismatch",
            "fingerprint-missing", "config-missing",
        ],
    )
    def test_resume_malformed_checkpoint_exit_two(self, tmp_path, capsys, edit):
        cfg = write_config(tmp_path, dict(RUN_DOC, checkpoint_every=20))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        ck = out / "checkpoint.json"
        doc = json.loads(ck.read_text())
        edit(doc)
        ck.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out), "--resume"]) == 2
        # N=64 breaks the corollary's batch bound, so a warning line comes first
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if not line.startswith("warning: ")]
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(ck) in lines[0] and "malformed checkpoint" in lines[0]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: (doc["rows"].pop(3), doc["wall_times"].pop(3)),
            lambda doc: (doc["rows"].insert(3, doc["rows"][3]),
                         doc["wall_times"].insert(3, doc["wall_times"][3])),
            lambda doc: doc["rows"][3].update(iteration=35),
            lambda doc: doc.update(next_iteration=20),
            lambda doc: doc.update(rows=doc["rows"][:2], wall_times=doc["wall_times"][:2]),
            lambda doc: doc["wall_times"].pop(),
        ],
        ids=["row-dropped", "row-duplicated", "row-moved", "next-iteration-moved",
             "rows-cut", "wall-time-dropped"],
    )
    def test_resume_off_schedule_checkpoint_exit_two(self, tmp_path, capsys, edit):
        # the finished checkpoint (next_iteration 60) holds rows 0, 10, ..., 60;
        # rows that are not that schedule, or that a wall time does not match
        # one for one, would resume into a metrics.jsonl no run writes
        cfg = write_config(tmp_path, dict(RUN_DOC, checkpoint_every=20))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        ck = out / "checkpoint.json"
        json_edit(edit)(ck)
        before = (out / "metrics.jsonl").read_bytes()
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out), "--resume"]) == 2
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if not line.startswith("warning: ")]
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(ck) in lines[0] and "malformed checkpoint" in lines[0]
        assert (out / "metrics.jsonl").read_bytes() == before

    def test_resume_older_checkpoint_exit_two(self, tmp_path, capsys):
        # a checkpoint of the older draw scheme would resume on other draws
        cfg = write_config(tmp_path, dict(RUN_DOC, checkpoint_every=20))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        ck = out / "checkpoint.json"
        text = ck.read_text()
        assert text.count('"pavi-checkpoint-v2"') == 1
        ck.write_text(text.replace('"pavi-checkpoint-v2"', '"pavi-checkpoint-v1"'))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out), "--resume"]) == 2
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if not line.startswith("warning: ")]
        assert lines == [f"error: {ck} was written by an older draw scheme (pavi-checkpoint-v1)"]


class TestOracleAndCompare:
    def test_oracle_then_compare(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUN_DOC)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        ocfg = write_config(
            tmp_path, {"potential": RUN_DOC["potential"]}, name="oracle.yaml"
        )
        ref = tmp_path / "ref.json"
        assert main(["oracle", "--config", str(ocfg), "--out", str(ref)]) == 0
        assert json.loads(ref.read_text())["provenance"] == "analytic-gaussian"
        capsys.readouterr()
        assert main(["compare", str(out), str(ref)]) == 0
        text = capsys.readouterr().out
        assert "w2_total" in text

    def test_compare_truncated_checkpoint_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, RUN_DOC)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        ocfg = write_config(
            tmp_path, {"potential": RUN_DOC["potential"]}, name="oracle.yaml"
        )
        ref = tmp_path / "ref.json"
        assert main(["oracle", "--config", str(ocfg), "--out", str(ref)]) == 0
        truncate(out / "checkpoint.json")
        capsys.readouterr()
        assert main(["compare", str(out), str(ref)]) == 2
        assert "checkpoint.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [lambda doc: doc.pop("next_iteration"), lambda doc: doc.update(next_iteration=-1)],
        ids=["next-iteration-missing", "next-iteration-negative"],
    )
    def test_compare_mistyped_checkpoint_exit_two(self, tmp_path, capsys, edit):
        cfg = write_config(tmp_path, RUN_DOC)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        ocfg = write_config(
            tmp_path, {"potential": RUN_DOC["potential"]}, name="oracle.yaml"
        )
        ref = tmp_path / "ref.json"
        assert main(["oracle", "--config", str(ocfg), "--out", str(ref)]) == 0
        ck = out / "checkpoint.json"
        json_edit(edit)(ck)
        capsys.readouterr()
        assert main(["compare", str(out), str(ref)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(ck) in err[0]

    def test_unknown_marginal_type_names_file(self, tmp_path, capsys):
        ocfg = write_config(tmp_path, {"potential": RUN_DOC["potential"]}, name="oracle.yaml")
        ref = tmp_path / "ref.json"
        assert main(["oracle", "--config", str(ocfg), "--out", str(ref)]) == 0
        doc = json.loads(ref.read_text())
        doc["marginals"][0]["type"] = "beta"
        ref.write_text(json.dumps(doc))
        cfg = write_config(tmp_path, dict(RUN_DOC, reference=str(ref)))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if not line.startswith("warning: ")]
        assert lines == [f"error: {ref} is a malformed reference "
                         "(marginals[0]: unknown marginal type 'beta')"]

    def test_compare_bad_path_exit_two(self, tmp_path, capsys):
        other = tmp_path / "x.json"
        other.write_text("{}")
        assert main(["compare", str(other), str(other)]) == 2

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("summary.json", lambda path: path.unlink()),
            ("summary.json", lambda path: path.write_text("{")),
            ("summary.json", lambda path: path.write_text("{}")),
            ("metrics.jsonl", truncate),
            ("metrics.jsonl", lambda path: path.write_text('{"iteration": 0, "w2": "a"}\n')),
            ("metrics.jsonl", lambda path: path.write_text('{"iteration": 0, "grad_rms": [1]}\n')),
            ("summary.json", json_edit(lambda doc: doc.update(summary=[]))),
            ("summary.json", json_edit(lambda doc: doc["summary"].update(steady_mean="x"))),
        ],
        ids=[
            "missing-summary",
            "corrupt-summary",
            "summary-without-keys",
            "corrupt-metrics",
            "mistyped-w2",
            "mistyped-grad-rms",
            "summary-list",
            "steady-mean-string",
        ],
    )
    def test_compare_unreadable_report_exit_two(self, tmp_path, capsys, name, damage):
        cfg = write_config(tmp_path, RUN_DOC)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        damage(out / name)
        capsys.readouterr()
        assert main(["compare", str(out), str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and name in err[0]


class TestReferenceDimension:
    """A reference whose m is not the potential's is refused, naming its file,
    before any warning, run or output."""

    @staticmethod
    def three_marginals(tmp_path):
        potential = {"family": "quadratic", "precision": [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                                                          [0.0, 0.0, 2.0]]}
        ref = tmp_path / "ref3.json"
        cfg = write_config(tmp_path, {"potential": potential}, name="oracle.yaml")
        assert main(["oracle", "--config", str(cfg), "--out", str(ref)]) == 0
        return ref

    @pytest.mark.parametrize("command", ["run", "sweep", "check"])
    def test_reference_of_other_dimension_exit_two(self, tmp_path, capsys, command):
        ref = self.three_marginals(tmp_path)
        # N = 64 breaks the corollary's batch bound: no warning may come first
        doc = dict(RUN_DOC, reference=str(ref))
        if command == "sweep":
            doc.update(N_list=[16, 32, 64], replications=2)
        elif command == "check":
            doc = {"potential": RUN_DOC["potential"], "reference": str(ref), "samples": 400}
        out = tmp_path / "out"
        argv = [command, "--config", str(write_config(tmp_path, doc))]
        capsys.readouterr()
        assert main(argv + (["--out", str(out)] if command != "check" else [])) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {ref} holds a reference of m=3, the potential has m=2"]
        assert captured.out == "" and not out.exists()

    def test_compare_names_checkpoint_and_reference(self, tmp_path, capsys):
        ref = self.three_marginals(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, RUN_DOC)), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["compare", str(out), str(ref)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out / 'checkpoint.json'} holds particles of m=2, {ref} a reference of m=3"]

    def test_reference_without_marginals_exit_two(self, tmp_path, capsys):
        ref = self.three_marginals(tmp_path)
        json_edit(lambda doc: doc.update(marginals=[]))(ref)
        cfg = write_config(tmp_path, dict(RUN_DOC, reference=str(ref)))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {ref} holds no marginals"]


class TestExitCodes:
    def test_error_class_codes(self):
        # one class per exit code; 1 is also the code of a failed check
        import pavi.errors

        codes = {
            name: cls.exit_code
            for name, cls in vars(pavi.errors).items()
            if isinstance(cls, type) and issubclass(cls, BaseException)
        }
        assert codes == {
            "PaviError": 1, "ConfigError": 2, "DivergenceError": 3, "OracleConvergenceError": 4,
        }

    def test_errors_survive_pickle(self):
        # a forked sweep process sends its exception back pickled
        import pickle

        from pavi.errors import (
            ConfigError, DivergenceError, OracleConvergenceError, PaviError,
        )

        history = [(1, 0.5, 0.25), (2, 0.125, 0.0625)]
        errors = [
            PaviError("base"),
            ConfigError("bad key"),
            DivergenceError(3, 1, 7, 42),
            OracleConvergenceError("no fixed point", history),
            OracleConvergenceError("no history"),
        ]
        for err in errors:
            back = pickle.loads(pickle.dumps(err))
            assert type(back) is type(err)
            assert str(back) == str(err)
            assert vars(back) == vars(err)
            assert back.exit_code == err.exit_code
        assert str(errors[2]) == (
            "non-finite particle update at iteration 3, coordinate 1, particle 7, seed 42"
        )
        assert pickle.loads(pickle.dumps(errors[3])).history == history

    def test_oracle_non_convergence_exit_four(self, tmp_path, capsys):
        # asymmetric perturbed target: the marginal means drift off the
        # minimizer, so one sweep cannot reach a tight tolerance
        doc = {
            "potential": {
                "family": "perturbed_quadratic",
                "precision": [[2.0, 0.5], [0.5, 2.0]],
                "mean": [0.8, -0.5],
                "weights": [1.0, 1.0],
            },
            "grid_size": 129,
            "tol": 1e-10,
            "max_iter": 1,
            "check_inits": False,
        }
        cfg = write_config(tmp_path, doc, name="oracle.yaml")
        code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert code == 4
        assert "sweeps" in capsys.readouterr().err

    def test_grid_too_narrow_exit_four(self, tmp_path, capsys):
        doc = {
            "potential": {
                "family": "perturbed_quadratic",
                "precision": [[2.0, 0.5], [0.5, 2.0]],
                "mean": [0.0, 0.0],
                "weights": [1.0, 1.0],
            },
            "grid_size": 129,
            "half_width": 1.0,
            "check_inits": False,
        }
        cfg = write_config(tmp_path, doc, name="oracle.yaml")
        code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert code == 4
        assert "widen" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("grid_size", "x", "grid_size must be an integer"),
            ("max_iter", "x", "max_iter must be an integer"),
            ("max_iter", 0, "max_iter must be >= 1"),
            ("tol", "x", "tol must be a finite number"),
            ("damping", "x", "damping must be a finite number"),
            ("half_width", "x", "half_width must be a finite number"),
            ("half_width", -1, "half_width -1.0 gives no usable grid"),
            ("half_width", 0, "half_width 0.0 gives no usable grid"),
            ("half_width", 1e-300, "half_width 1e-300 gives no usable grid"),
            ("half_width", 1e-12, "half_width 1e-12 gives no usable grid"),
            *UNREAD_POTENTIAL_KEYS,
            ("output", 5, "output must be a path"),
            ("check_inits", "no", "check_inits must be true or false"),
            ("potential", dict(RUN_DOC["potential"], claimed=[]),
             "potential.claimed must be a mapping"),
            ("grid_sise", 33, "unknown config key 'grid_sise'; did you mean 'grid_size'?"),
            ("tolerance", 1e-3, "unknown config key 'tolerance'; did you mean 'tol'?"),
        ],
        ids=[
            "grid_size", "max_iter", "max_iter-zero", "tol", "damping", "half_width",
            "half_width-negative", "half_width-zero", "half_width-tiny", "half_width-unresolved",
            *UNREAD_POTENTIAL_IDS, "output-number", "check_inits-string", "claimed-empty-list",
            "grid_size-misspelled", "tol-spelled-out",
        ],
    )
    def test_oracle_mistyped_key_exit_two(self, tmp_path, capsys, key, value, message):
        doc = {"potential": RUN_DOC["potential"], "method": "grid", "grid_size": 33, key: value}
        cfg = write_config(tmp_path, doc)
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")

    @pytest.mark.parametrize("kind", ["yaml-syntax", "json-syntax", "directory", "not-utf8"])
    def test_unreadable_config_exit_two(self, tmp_path, capsys, kind):
        path = tmp_path / ("config.json" if kind == "json-syntax" else "config.yaml")
        if kind == "yaml-syntax":
            path.write_text("N: [64\nT: 10\n")
        elif kind == "json-syntax":
            path.write_text('{"N": 64,')
        elif kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"N: \xff\xfe\n")
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and str(path) in errors[0] and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--threads", "2"],
            ["check", "--out", "x"],
            ["check", "--threads", "7"],
        ],
        ids=["oracle-threads", "check-out", "check-threads"],
    )
    def test_ignored_flags_rejected(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, RUN_DOC)
        with pytest.raises(SystemExit) as err:
            main([argv[0], "--config", str(cfg), *argv[1:]])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCheckCommand:
    def test_check_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"potential": RUN_DOC["potential"]})
        assert main(["check", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "PASS gradient_consistency" in out

    def test_check_claimed_quadratic_with_analytic_reference(self, tmp_path, capsys):
        potential = dict(RUN_DOC["potential"], claimed={"alpha": 0.9, "lip": 3.2})
        cfg = write_config(tmp_path, {"potential": potential, "reference": "analytic"})
        assert main(["check", "--config", str(cfg)]) == 0
        assert "PASS reference_moments" in capsys.readouterr().out

    def test_check_fail_exit_one(self, tmp_path, capsys):
        doc = {"potential": dict(RUN_DOC["potential"], claimed={"lip": 1.5})}
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", str(cfg)]) == 1
        assert "FAIL convexity_sandwich" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("trials", "x", "trials must be an integer"),
            ("trials", 0, "trials must be >= 1"),
            ("samples", "x", "samples must be an integer"),
            ("samples", 0, "samples must be >= 2"),
            ("seed", "x", "seed must be an integer"),
            ("samples", 1, "samples must be >= 2"),
            ("refrence", "analytic", "unknown config key 'refrence'; did you mean 'reference'?"),
        ],
        ids=["trials", "trials-zero", "samples", "samples-zero", "seed", "samples-one",
             "reference-misspelled"],
    )
    def test_check_mistyped_key_exit_two(self, tmp_path, capsys, key, value, message):
        doc = {"potential": RUN_DOC["potential"], "reference": "analytic", key: value}
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")


class TestSweepCommand:
    def test_sweep_runs(self, tmp_path, capsys):
        # the exact algorithm draws no batch, so its rows print no B; a
        # threads key is accepted and ignored, whatever its value
        for algorithm in ("pavi", "exact"):
            doc = dict(RUN_DOC, algorithm=algorithm, N_list=[16, 32, 64], replications=2, T=80,
                       threads="x")
            cfg = write_config(tmp_path, doc, name=f"{algorithm}.yaml")
            out_dir = tmp_path / algorithm
            code = main(["sweep", "--config", str(cfg), "--out", str(out_dir)])
            assert code == 0
            assert (out_dir / "sweep.json").exists()
            out = capsys.readouterr().out
            assert "slope" in out
            rows = [line for line in out.splitlines() if line.startswith("N=")]
            assert len(rows) == 3
            for N, row in zip((16, 32, 64), rows):
                # lip = 3, the largest eigenvalue of the precision
                h, B = corollary_schedule(3.0, N)
                batch = f"B={B}  " if algorithm == "pavi" else ""
                assert row.startswith(f"N={N:>6d}  h={h:.6g}  {batch}steady W2 ")

    def test_sweep_warns_per_count_that_breaks_the_guard(self, tmp_path, capsys):
        # on A = [[2, 1], [1, 2]] the corollary step breaks the batch bound
        # B alpha / (4 lip^2) = B / 36 at each of these counts
        doc = dict(RUN_DOC, N_list=[16, 32, 64], replications=2, T=20)
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg)]) == 0
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 3
        for N, line in zip((16, 32, 64), warnings):
            h, B = corollary_schedule(3.0, N)
            assert line.startswith(f"warning: step size h={h:.6g} violates ")
            assert f"B*alpha/(4*lip^2) = {B / 36:.6g})" in line
            assert line.endswith("; running anyway")
        # a schedule that meets the guard prints nothing
        doc = dict(doc, N_list=[2048, 4096, 8192], T=2)
        assert main(["sweep", "--config", str(write_config(tmp_path, doc))]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("N_list", [16, "x", 64], "N_list must be an integer"),
            ("replications", "x", "replications must be an integer"),
            ("T", "x", "T must be an integer"),
            ("seed", "x", "seed must be an integer"),
            ("metrics_every", "x", "metrics_every must be an integer"),
            ("init", {"point": ["a", 1]}, "init.point must be a list of numbers"),
            *UNREAD_POTENTIAL_KEYS,
            ("init", {"foo": 1}, "init must be standard_normal, {point: x} or a list"),
            ("init", [[1, 2], [3]], "init must be a list of numbers or of equal-length rows"),
            ("init", [[0.0] * 16, [0.0] * 16], "explicit init must have shape (2, 32)"),
            ("potential", dict(RUN_DOC["potential"], claimed=0),
             "potential.claimed must be a mapping"),
            ("replicatons", 2, "unknown config key 'replicatons'; did you mean 'replications'?"),
        ],
        ids=[
            "N_list", "replications", "T", "seed", "metrics_every", "init-point",
            *UNREAD_POTENTIAL_IDS, "init-mapping", "init-ragged", "init-shape-of-first-count",
            "claimed-zero", "replications-misspelled",
        ],
    )
    def test_sweep_mistyped_key_exit_two(self, tmp_path, capsys, key, value, message):
        doc = dict(RUN_DOC, N_list=[16, 32, 64], replications=2, T=40)
        doc[key] = value
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")

    def test_sweep_checks_explicit_init_before_any_run(self, tmp_path, capsys):
        # the (2, 16) init fits the first count only: nothing runs, so the
        # first count's guard warning is not printed and no sweep.json is written
        doc = dict(RUN_DOC, N_list=[16, 32, 64], replications=2, T=20,
                   init=[[0.0] * 16, [0.0] * 16])
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: explicit init must have shape (2, 32), got (2, 16)"]
        assert not (out / "sweep.json").exists()

    def test_sweep_zero_iterations_exit_zero(self, tmp_path, capsys):
        doc = dict(RUN_DOC, N_list=[16, 32, 64], replications=2, T=0)
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o" / "sweep.json").read_text())["config"]["T"] == 0

    def test_sweep_writes_to_output_unless_out_is_given(self, tmp_path, monkeypatch):
        # --out wins over the config's output; with neither, nothing is written
        monkeypatch.chdir(tmp_path)
        doc = dict(RUN_DOC, N_list=[16, 32, 64], replications=2, T=4, output="from_config")
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg)]) == 0
        (tmp_path / "from_config" / "sweep.json").unlink()
        assert main(["sweep", "--config", str(cfg), "--out", "from_flag"]) == 0
        (tmp_path / "from_flag" / "sweep.json").unlink()
        del doc["output"]
        assert main(["sweep", "--config", str(write_config(tmp_path, doc))]) == 0
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["config.yaml"]

    def test_sweep_empty_N_list_exit_two(self, tmp_path, capsys):
        doc = dict(RUN_DOC, N_list=[], replications=2, T=40)
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: sweep needs at least 3 particle counts")

    def test_sweep_divergence_exit_three_names_seed(self, tmp_path, capsys):
        # claimed constants far below the true ones give a corollary step of
        # h = 1/(lip N^(1/4)) = 5e149 at N=16: two steps take every particle
        # to about 1e300 and the third overflows, in every replication, so
        # the lowest-index seed is named
        potential = dict(RUN_DOC["potential"], claimed={"alpha": 1e-150, "lip": 1e-150})
        doc = dict(RUN_DOC, potential=potential, N_list=[16, 32, 64], replications=3, T=10,
                   metrics_every=10, seed=7)
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: non-finite particle update at iteration 2, ")
        assert err[0].endswith(", seed 7")

    def test_sweep_last_seed_past_the_streams_exit_two(self, tmp_path, capsys):
        # seeds 2**64 - 1 and 2**64: the second would run seed 0's streams
        doc = dict(RUN_DOC, N_list=[16, 32, 64], replications=2, T=4, seed=2**64 - 1)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: the sweep's last seed, seed + replications - 1 = {2**64}, "
            "must be below 2**64"
        ]
        assert not out.exists()
        # the last seed that names its own streams runs
        doc = dict(doc, seed=2**64 - 2)
        assert main(["sweep", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0

    def test_sweep_usage_error(self, tmp_path, capsys):
        doc = dict(RUN_DOC, N_list=[16, 16, 64], replications=2, T=40)
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg)]) == 2

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.yaml")]) == 2
