"""Every command reads its config through one table of top-level keys.

A key no command takes, a missing key and a key of the wrong type, shape or
range are refused before any file is written.
"""

import contextlib
import copy
import io
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pavi import harness
from pavi.cli import main
from pavi.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]

QUADRATIC = {"family": "quadratic", "precision": [[2.0, 1.0], [1.0, 2.0]], "mean": [1.0, -1.0]}
PERTURBED = dict(QUADRATIC, family="perturbed_quadratic", weights=[1.0, 1.0])

# one valid document per command; each mutation below makes it invalid
VALID = {
    "run": {"potential": QUADRATIC, "N": 64, "T": 10, "metrics_every": 5,
            "checkpoint_every": 5, "reference": "analytic"},
    "sweep": {"potential": QUADRATIC, "N_list": [16, 32, 64], "replications": 2, "T": 10,
              "reference": "analytic"},
    "oracle": {"potential": PERTURBED, "method": "grid", "grid_size": 33, "check_inits": False},
    "check": {"potential": QUADRATIC, "reference": "analytic", "trials": 50, "samples": 400},
}
REQUIRED = {
    "run": ["potential", "N", "T"],
    "sweep": ["potential", "N_list", "T"],
    "oracle": ["potential"],
    "check": ["potential"],
}

NAN, INF = float("nan"), float("inf")
NOT_INTEGER = ["x", 2.5, [3], True, NAN, INF]
NOT_REAL = ["x", [0.5], True, NAN, INF, -INF]
NOT_STRING = [5, ["x"], {"x": 1}]
# values of the wrong type or shape for each key; every command refuses them,
# whichever command reads the key
WRONG = {
    "potential": [5, "quadratic", [1, 2], {"family": "quadratic"}],
    "N": NOT_INTEGER,
    "T": NOT_INTEGER,
    "h": NOT_REAL,
    "B": NOT_INTEGER,
    "schedule": NOT_STRING,
    "algorithm": NOT_STRING,
    "seed": NOT_INTEGER,
    "metrics_every": NOT_INTEGER,
    "checkpoint_every": NOT_INTEGER,
    "init": [5, {"foo": 1}, {"point": ["a", 1]}, [[1, 2], [3]], ["a"]],
    "reference": NOT_STRING,
    "output": NOT_STRING,
    "N_list": [64, "x", [16, "x", 64], [16.5, 32, 64]],
    "replications": NOT_INTEGER,
    "method": NOT_STRING,
    "grid_size": NOT_INTEGER,
    "tol": NOT_REAL,
    "max_iter": NOT_INTEGER,
    "damping": NOT_REAL,
    "half_width": NOT_REAL,
    "check_inits": ["no", 1, [True]],
    "trials": NOT_INTEGER,
    "samples": NOT_INTEGER,
}
# values of the right type out of the range of a key the command uses
OUT_OF_RANGE = {
    "run": {"N": [1, 0, -4], "T": [-1], "metrics_every": [0, -2], "checkpoint_every": [-1],
            "algorithm": ["exactly"], "schedule": ["linear"], "init": ["uniform"],
            "reference": ["gaussian.json"]},
    "sweep": {"N_list": [[16, 16, 64], [16, 32], [64, 32, 16], [1, 2, 3]], "T": [-1],
              "replications": [0, -2], "metrics_every": [0], "reference": ["none"]},
    "oracle": {"grid_size": [3, 0], "tol": [0, -1e-3], "damping": [0, 1.5], "max_iter": [0],
               "half_width": [0, -1.0], "method": ["analytic", "quadrature"]},
    "check": {"trials": [0, -1], "samples": [0, 1], "reference": ["gaussian.json"]},
}


def _write(directory, doc):
    path = Path(directory) / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def _argv(command, config, out):
    argv = [command, "--config", str(config)]
    if command == "oracle":
        return argv + ["--out", str(out / "reference.json")]
    return argv + (["--out", str(out)] if command in ("run", "sweep") else [])


def test_every_key_has_wrong_values_and_every_document_is_valid(tmp_path, capsys):
    # threads is accepted whatever its value, so it has no wrong one
    assert sorted(WRONG) == sorted(set(harness._KEYS) - {"threads"})
    for command, doc in VALID.items():
        code = main(_argv(command, _write(tmp_path, doc), tmp_path / command))
        assert code == 0, capsys.readouterr().err


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_bad_key_exits_two_before_any_output(data):
    command = data.draw(st.sampled_from(sorted(VALID)))
    doc = copy.deepcopy(VALID[command])
    kind = data.draw(st.sampled_from(["wrong", "out of range", "missing", "misspelled"]))
    if kind == "wrong":
        key = data.draw(st.sampled_from(sorted(WRONG)))
        doc[key] = data.draw(st.sampled_from(WRONG[key]))
    elif kind == "out of range":
        key = data.draw(st.sampled_from(sorted(OUT_OF_RANGE[command])))
        doc[key] = data.draw(st.sampled_from(OUT_OF_RANGE[command][key]))
    elif kind == "missing":
        key = data.draw(st.sampled_from(REQUIRED[command]))
        if data.draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = None
    else:
        key = data.draw(st.sampled_from(sorted(doc)))
        i = data.draw(st.integers(0, len(key) - 1))
        # one letter dropped or doubled
        typo = key[:i] + key[i + 1:] if data.draw(st.booleans()) else key[:i] + key[i] + key[i:]
        assume(typo not in harness._KEYS)
        doc[typo] = doc.pop(key)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(_argv(command, _write(tmp, doc), out))
        lines = err.getvalue().splitlines()
        # one line, the error: no warning before it and no output path after it
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error:"), (
            kind, doc, err.getvalue())
        assert not out.exists()


def test_unknown_key_without_a_close_match_names_only_itself():
    with pytest.raises(ConfigError) as err:
        harness._read({"potential": QUADRATIC, "colour": "blue"})
    assert str(err.value) == "unknown config key 'colour'"


def test_null_key_takes_its_default():
    nulls = {key: None for key in ("seed", "replications", "trials", "output", "init")}
    assert harness._read(dict(nulls, potential=QUADRATIC)) == harness._read({"potential": QUADRATIC})
    assert harness._read({"potential": QUADRATIC, "seed": 3}, seed=None)["seed"] == 3
    with pytest.raises(ConfigError, match="seed must be an integer"):
        harness._read({"potential": QUADRATIC}, seed="x")


def test_readme_config_blocks_read_through_the_key_table(tmp_path):
    blocks = re.findall(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert blocks
    for text in blocks:
        path = tmp_path / "block.yaml"
        path.write_text(text)
        doc = harness.load_config(path)
        assert set(doc) <= set(harness._KEYS), sorted(set(doc) - set(harness._KEYS))
        harness._read(doc)
