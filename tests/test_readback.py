"""Every file pavi reads back goes through one key table per document.

One field of a freshly written ``checkpoint.json``, ``reference.json``,
``summary.json`` or ``metrics.jsonl`` row is edited at a time, and the edited
file is driven through every command that reads it: ``pavi run --resume``,
``pavi compare`` (report against report, and report against reference) and
``pavi run`` with ``reference:``.  Each exits 0 or 2, with no traceback and at
most one ``error:`` line, which names the edited file.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pavi.cli import main

PERTURBED = {"family": "perturbed_quadratic", "precision": [[2.0, 1.0], [1.0, 2.0]],
             "mean": [1.0, -1.0], "weights": [1.0, 1.0]}
# an explicit schedule inside the step-size guard, so no run prints a warning
RUN = {"potential": PERTURBED, "N": 16, "T": 20, "metrics_every": 5, "checkpoint_every": 10,
       "schedule": "explicit", "h": 0.02, "B": 4}
REF = "reference.json"
FILES = ["checkpoint.json", REF, "summary.json", "metrics.jsonl"]
KINDS = ["wrong type", "non-finite", "missing", "out of range", "rows"]
WRONG = ["x", [1], {"a": 1}, True, None]
NON_FINITE = [float("nan"), float("inf"), -float("inf")]
OUT_OF_RANGE = [-1, 0, -2.5, 10**6, 10**400, "other"]


def call(argv):
    """Exit code and stderr lines of one CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, err.getvalue().splitlines()


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """A grid reference, and the directory of a run scored against it."""
    root = tmp_path_factory.mktemp("fresh")
    oracle = {"potential": PERTURBED, "method": "grid", "grid_size": 33, "check_inits": False}
    (root / "oracle.yaml").write_text(yaml.safe_dump(oracle))
    (root / "run.yaml").write_text(yaml.safe_dump(dict(RUN, reference=str(root / REF))))
    assert call(["oracle", "--config", root / "oracle.yaml", "--out", root / REF]) == (0, [])
    assert call(["run", "--config", root / "run.yaml", "--out", root / "run"]) == (0, [])
    return root


def leaves(doc, path=()):
    """The path of every value inside a JSON document, containers included."""
    found = [path] if path else []
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    else:
        items = ()
    for key, value in items:
        found += leaves(value, path + (key,))
    return found


def edit(doc, kind, target, pick):
    """Apply one edit of ``kind`` to ``doc`` at ``target``, a path or an index
    into its sorted paths; ``pick`` chooses the value or the row operation."""
    if kind == "rows":
        rows = doc["rows"]
        k = pick % len(rows)
        if pick % 3 == 0:
            rows.pop(k)
        elif pick % 3 == 1:
            rows.insert(k, rows[k])
        else:
            rows.insert((k + 1) % len(rows), rows.pop(k))
        return
    if not isinstance(target, tuple):
        paths = sorted(leaves(doc), key=repr)
        target = paths[target % len(paths)]
    *parents, last = target
    holder = doc
    for key in parents:
        holder = holder[key]
    if kind == "missing":
        holder.pop(last)
    else:
        choices = {"wrong type": WRONG, "non-finite": NON_FINITE, "out of range": OUT_OF_RANGE}
        holder[last] = choices[kind][pick % len(choices[kind])]


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(FILES), kind=st.sampled_from(KINDS),
       target=st.integers(0, 10**6), pick=st.integers(0, 10**6))
@example(name="checkpoint.json", kind="missing", target=("fingerprint",), pick=0)
@example(name="checkpoint.json", kind="missing", target=("config",), pick=0)
@example(name=REF, kind="missing", target=("marginals", 1), pick=0)
@example(name=REF, kind="out of range", target=("marginals", 0, "count"), pick=0)
@example(name="checkpoint.json", kind="rows", target=0, pick=4)
@example(name="metrics.jsonl", kind="non-finite", target=(2, "w2"), pick=1)
def test_one_edited_field_exits_zero_or_two_naming_the_file(fresh, name, kind, target, pick):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        run_dir, other, ref = tmp / "run", tmp / "other", tmp / REF
        shutil.copytree(fresh / "run", run_dir)
        shutil.copytree(fresh / "run", other)
        shutil.copy(fresh / REF, ref)
        edited = ref if name == REF else run_dir / name
        if name == "metrics.jsonl":
            # the file's rows, one JSON object a line, as one list
            doc = {"rows": [json.loads(line) for line in edited.read_text().splitlines()]}
            edit(doc if kind == "rows" else doc["rows"], kind, target, pick)
            edited.write_text("".join(json.dumps(row) + "\n" for row in doc["rows"]))
        else:
            doc = json.loads(edited.read_text())
            if kind == "rows" and "rows" not in doc:
                return
            edit(doc, kind, target, pick)
            edited.write_text(json.dumps(doc))
        config = tmp / "run.yaml"
        config.write_text(yaml.safe_dump(dict(RUN, reference=str(ref))))
        # the resume rewrites the run's files, so it comes last
        for argv in (["compare", run_dir, other], ["compare", other, run_dir],
                     ["compare", run_dir, ref],
                     ["run", "--config", config, "--out", tmp / "with_ref"],
                     ["run", "--config", config, "--out", run_dir, "--resume"]):
            code, lines = call(argv)
            assert code in (0, 2), (argv, lines)
            errors = [line for line in lines if line.startswith("error:")]
            # no traceback and no other line: at most the one error line
            assert len(lines) == len(errors) <= 1, (argv, lines)
            assert all(str(edited) in line for line in errors), (argv, lines)
