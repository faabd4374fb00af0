"""bench/pairs.py's summary, on synthetic perfbench result.json documents."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def result_doc(wall, failed=0, ops=5, setup=0.15, rss=45.0):
    """A result.json as perfbench/run.py writes it: one record per operation
    (failed ones first) and the run's end-to-end medians."""
    records = [{"ok": k >= failed, "trace": False, "wall_s": wall, "setup_s": setup,
                "peak_rss_mb": rss, "values": {}} for k in range(ops)]
    metrics = {"setup_s": {"value": setup, "unit": "s"}, "wall_s": {"value": wall, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"machine": {"nproc": 2}, "args": {}, "records": records, "metrics": metrics}


def pair_list(parent_walls, change_walls, parent_failed=(), change_failed=()):
    out = []
    for k, (p, c) in enumerate(zip(parent_walls, change_walls)):
        out.append({
            "seed": k,
            "parent": pairs.run_summary(result_doc(p, failed=int(k in parent_failed))),
            "change": pairs.run_summary(result_doc(c, failed=int(k in change_failed))),
        })
    return out


PARENT = [0.0184, 0.0182, 0.0201, 0.0190, 0.0187, 0.0195, 0.0179, 0.0188, 0.0192, 0.0185]
CHANGE = [0.0116, 0.0120, 0.0125, 0.0118, 0.0121, 0.0119, 0.0117, 0.0123, 0.0122, 0.0118]


def test_quartiles_are_numpy_linear_percentiles():
    values = [5.0, 1.0, 4.0, 2.0, 9.0, 7.0]
    q = pairs.quartiles(values)
    assert [q["q1"], q["median"], q["q3"]] == pytest.approx(np.percentile(values, [25, 50, 75]))
    assert q["n"] == 6
    assert pairs.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1}
    assert pairs.quartiles([])["n"] == 0


def test_run_summary_counts_operations():
    run = pairs.run_summary(result_doc(0.02, failed=2, ops=6))
    assert run["values"]["wall_s"] == 0.02 and run["attempted"] == 6 and run["failed"] == 2


def test_run_summary_keeps_the_spread_of_its_operations():
    # a run whose host changed state part way: its median hides the slow half,
    # its quartiles show it; failed and traced operations are left out
    walls = [0.20, 0.21, 0.19, 0.30, 0.31, 0.29, 5.0, 7.0]
    doc = result_doc(0.25, ops=len(walls))
    for record, wall in zip(doc["records"], walls):
        record["wall_s"] = wall
    doc["records"][6]["ok"] = False
    doc["records"][7]["trace"] = True
    spread = pairs.run_summary(doc)["ops_wall_s"]
    q1, median, q3 = np.percentile(walls[:6], [25, 50, 75])
    assert [spread["q1"], spread["median"], spread["q3"]] == pytest.approx([q1, median, q3])
    assert spread["n"] == 6


def test_clear_gain_meets_the_protocol():
    sides, protocol = pairs.summarize(pair_list(PARENT, CHANGE))
    assert protocol["verdict"] == "claim_met" and protocol["reasons"] == []
    assert protocol["wins"] == 10 and protocol["wins_needed"] == 9
    par, chg = sides["parent"]["metrics"]["wall_s"], sides["change"]["metrics"]["wall_s"]
    assert par["median"] == pytest.approx(np.median(PARENT))
    assert chg["median"] == pytest.approx(np.median(CHANGE))
    assert par["n"] == chg["n"] == 10
    iqr = np.subtract(*np.percentile(PARENT, [75, 25]))
    assert protocol["parent_iqr"] == pytest.approx(iqr)
    assert protocol["median_gap"] == pytest.approx(np.median(PARENT) - np.median(CHANGE))
    assert sides["change"]["attempted"] == 50 and sides["change"]["failed"] == 0


@pytest.mark.parametrize("losses, verdict", [(1, "claim_met"), (2, "claim_not_met")])
def test_nine_of_ten_wins_needed(losses, verdict):
    change = [p + 0.001 if k < losses else c for k, (p, c) in enumerate(zip(PARENT, CHANGE))]
    _, protocol = pairs.summarize(pair_list(PARENT, change))
    assert protocol["wins"] == 10 - losses
    assert protocol["verdict"] == verdict


def test_gap_within_parent_iqr_is_not_met():
    # the change wins every pair, by less than the parent's spread
    change = [p - 0.0001 for p in PARENT]
    _, protocol = pairs.summarize(pair_list(PARENT, change))
    assert protocol["wins"] == 10
    assert protocol["verdict"] == "claim_not_met"
    assert "IQR" in protocol["reasons"][0]


def test_fewer_than_ten_pairs_is_not_met():
    _, protocol = pairs.summarize(pair_list(PARENT[:9], CHANGE[:9]))
    assert protocol["wins"] == 9 and protocol["verdict"] == "claim_not_met"


def test_failed_change_operation_is_reported_and_not_met():
    sides, protocol = pairs.summarize(pair_list(PARENT, CHANGE, change_failed={3}))
    assert sides["change"]["failed"] == 1 and sides["change"]["attempted"] == 50
    assert sides["parent"]["failed"] == 0
    assert protocol["verdict"] == "claim_not_met"
    assert any("1 of 50 operations failed" in r for r in protocol["reasons"])


def test_failed_parent_operation_is_reported():
    # a larger failed share on the parent's side does not hold the change back
    sides, protocol = pairs.summarize(pair_list(PARENT, CHANGE, parent_failed={0, 5}))
    assert sides["parent"]["failed"] == 2 and sides["change"]["failed"] == 0
    assert protocol["verdict"] == "claim_met"


@pytest.mark.parametrize("side", ["parent", "change"])
def test_run_without_result_is_no_win(side):
    runs = pair_list(PARENT, CHANGE)
    runs[4][side] = {"ok": False, "detail": "worker exit 1", "attempted": 0, "failed": 0}
    sides, protocol = pairs.summarize(runs)
    assert protocol["wins"] == 9
    assert sides[side]["runs_without_result"] == 1
    assert sides[side]["metrics"]["wall_s"]["n"] == 9
    assert protocol["verdict"] == "claim_not_met"
    assert any(r.startswith(f"{side}: 1 of 10 runs") for r in protocol["reasons"])



def test_ns_per_pci_on_each_side():
    # wall_s over the operation's particle-coordinate-iterations, in ns, from
    # perfbench's count on its inputs; null where that count is
    count = pairs.pci("sweep-m2-nongauss", 3)
    assert count == 2 * 200 * 4 * (256 + 512 + 1024 + 2048)
    assert pairs.pci("run-m30-gauss", 3) == 30 * 4096 * 20
    assert pairs.pci("oracle-m3-nongauss", 3) is None
    found = []
    for k, (p, c) in enumerate(zip(PARENT, CHANGE)):
        found.append({"seed": k, "parent": pairs.run_summary(result_doc(p), count),
                      "change": pairs.run_summary(result_doc(c), count)})
    sides, _ = pairs.summarize(found)
    for side, walls in (("parent", PARENT), ("change", CHANGE)):
        ns = sides[side]["metrics"]["ns_per_pci"]
        q1, median, q3 = np.percentile(np.array(walls) / count * 1e9, [25, 50, 75])
        assert [ns["q1"], ns["median"], ns["q3"]] == pytest.approx([q1, median, q3])
        assert ns["n"] == 10
    oracle = [{"seed": 0, "parent": pairs.run_summary(result_doc(0.03)),
               "change": pairs.run_summary(result_doc(0.02))}]
    sides, _ = pairs.summarize(oracle)
    for side in ("parent", "change"):
        assert sides[side]["metrics"]["ns_per_pci"] == {
            "median": None, "q1": None, "q3": None, "n": 0}


def reading(ratio):
    """A probe_capacity reading with the given ratio."""
    return {"one_s": 0.2, "two_s": 0.2 * ratio, "ratio": ratio}


@pytest.mark.parametrize("ratio, state", [(0.74, "two_cpus"), (1.49, "two_cpus"),
                                          (1.5, "one_cpu"), (2.35, "one_cpu")])
def test_host_state_from_the_capacity_ratio(ratio, state):
    assert pairs.host_state(reading(ratio)) == state


def test_pairs_whose_sides_ran_in_different_states_are_flagged():
    # each side is probed before its own run; the verdict is unchanged
    runs = pair_list(PARENT, CHANGE)
    ratios = [(1.0, 1.1), (0.9, 2.0), (1.9, 2.1), (2.2, 0.8)] + [(1.0, 1.0)] * 6
    for pair, (parent, change) in zip(runs, ratios):
        pair["capacity"] = {"parent": reading(parent), "change": reading(change)}
        pair["mixed_state"] = pairs.mixed_state(pair["capacity"])
    assert [p["mixed_state"] for p in runs[:4]] == [False, True, False, True]
    _, protocol = pairs.summarize(runs)
    assert protocol["mixed_state_pairs"] == [1, 3]
    assert protocol["verdict"] == "claim_met"


def test_pairs_without_state_readings_are_not_flagged():
    _, protocol = pairs.summarize(pair_list(PARENT, CHANGE))
    assert protocol["mixed_state_pairs"] == []


def test_steal_share_over_one_side():
    assert pairs.steal_share((10, 1000), (13, 1300)) == pytest.approx(0.01)
    # no jiffies passed: no share
    assert pairs.steal_share((10, 1000), (10, 1000)) is None
