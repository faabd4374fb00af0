"""Parent/change pairs of perfbench runs, summarised in one BENCH file.

    python bench/pairs.py --parent REV --workload NAME --seeds 3 4 --pairs 10 --seconds 40

Run from a git checkout.  The parent revision is checked out once, as a git
worktree under ``.bench_work/``.  Each pair runs the parent's own
``perfbench/run.py --trace 0`` and this checkout's, on the same seed, and
alternates which side runs first.  Before each pair it probes the host: it
times one copy of a fixed numpy sort loop alone, then two copies at once, and
records the ratio (1 means two CPUs' worth of capacity).  It reads CPU steal
from ``/proc/stat`` before and after each pair.  Seeds are taken in turn.

It writes ``BENCH_<workload>_<short sha>.json`` (``--out``, default ``bench/``)
with, for each side, the median, quartiles and sample count of every
end-to-end metric over the runs, and failed of attempted operations; the pair
wins on the claimed metric (``wall_s``, lower is better), the median gap
against the parent's interquartile range, and the verdict of the pair protocol:

- at least 10 pairs,
- the change wins at least 9 in 10 of them,
- its median is lower than the parent's by more than the parent's IQR,
- and no larger share of its operations fails.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
CLAIMED = "wall_s"
MIN_PAIRS = 10
WIN_SHARE = 0.9
NOTES = [
    "peak_rss_mb is the perfbench worker's ru_maxrss; Linux carries it over from "
    "the parent across fork and exec, so it still includes the peak of run.py, which spawns it",
    "a forked sweep's figures cover only the calling process",
    "each sample is one run's figure: the median over its untraced operations",
]
# the probe: a fixed sort loop, started by every copy at the same wall time
KERNEL = """import sys, time
import numpy as np
x = np.random.default_rng(0).random(1 << 17)
time.sleep(max(0.0, float(sys.argv[1]) - time.time()))
t = time.perf_counter()
for _ in range(40):
    np.sort(x)
print(time.perf_counter() - t)
"""


def quartiles(values):
    """Median, q1, q3 and count; quartiles are numpy's default (linear)."""
    values = sorted(values)
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def run_summary(doc):
    """One run's end-to-end figures and operation counts from its result.json."""
    records = doc["records"]
    return {
        "ok": True,
        "values": {name: m["value"] for name, m in doc["metrics"].items()},
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "ops": sum(1 for r in records if "wall_s" in r and not r["trace"]),
    }


def summarize(pairs):
    """Both sides' figures, the pair wins and the verdict of the pair protocol.

    Each pair is ``{"parent": run, "change": run, ...}`` where a run is a
    :func:`run_summary` or ``{"ok": False, "detail": ..., "attempted": 0,
    "failed": 0}`` when run.py wrote no result.  A pair with a failed run is
    no win.
    """
    sides = {}
    for side in ("parent", "change"):
        runs = [p[side] for p in pairs]
        done = [r for r in runs if r["ok"]]
        names = sorted({name for r in done for name in r["values"]})
        sides[side] = {
            "runs": len(runs),
            "runs_without_result": len(runs) - len(done),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {n: quartiles([r["values"][n] for r in done
                                      if r["values"].get(n) is not None]) for n in names},
        }

    def won(p):
        if not (p["parent"]["ok"] and p["change"]["ok"]):
            return False
        return p["change"]["values"][CLAIMED] < p["parent"]["values"][CLAIMED]

    wins = sum(map(won, pairs))
    needed = math.ceil(WIN_SHARE * max(len(pairs), MIN_PAIRS))
    par = sides["parent"]["metrics"].get(CLAIMED, quartiles([]))
    chg = sides["change"]["metrics"].get(CLAIMED, quartiles([]))
    gap = iqr = None
    if par["n"] and chg["n"]:
        gap = par["median"] - chg["median"]
        iqr = par["q3"] - par["q1"]
    reasons = []
    if len(pairs) < MIN_PAIRS:
        reasons.append(f"{len(pairs)} pairs, fewer than {MIN_PAIRS}")
    if wins < needed:
        reasons.append(f"{wins} wins of {len(pairs)} pairs, fewer than {needed}")
    if gap is None or not gap > iqr:
        reasons.append(f"median gap {gap} is not larger than the parent's IQR {iqr}")
    for side, s in sides.items():
        if s["runs_without_result"]:
            reasons.append(
                f"{side}: {s['runs_without_result']} of {s['runs']} runs wrote no result")

    def share(s):
        return s["failed"] / s["attempted"] if s["attempted"] else 0.0

    if share(sides["change"]) > share(sides["parent"]):
        reasons.append(
            f"change: {sides['change']['failed']} of {sides['change']['attempted']} operations "
            f"failed, parent: {sides['parent']['failed']} of {sides['parent']['attempted']}")
    protocol = {
        "claimed": CLAIMED, "pairs": len(pairs), "wins": wins,
        "wins_needed": needed, "median_gap": gap, "parent_iqr": iqr,
        "verdict": "claim_not_met" if reasons else "claim_met", "reasons": reasons,
    }
    return sides, protocol


def span(values):
    values = [v for v in values if v is not None]
    return [min(values), max(values)] if values else None


def read_cpu():
    """(steal, total) jiffies of all CPUs from /proc/stat; read only."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def probe_capacity():
    """The probe's time alone, the mean of two copies at once, and their ratio."""
    def timed(copies):
        start = repr(time.time() + 1.0)
        procs = [subprocess.Popen([sys.executable, "-c", KERNEL, start], stdout=subprocess.PIPE,
                                  text=True) for _ in range(copies)]
        return [float(p.communicate()[0]) for p in procs]

    one = timed(1)[0]
    two = statistics.fmean(timed(2))
    return {"one_s": one, "two_s": two, "ratio": two / one}


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_side(tree, workload, seed, seconds):
    result = tree / ".bench_work" / f"{workload}-seed{seed}-trace0" / "result.json"
    result.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0 or not result.is_file():
        return {"ok": False, "detail": proc.stderr.strip()[-500:], "attempted": 0, "failed": 0}
    doc = json.loads(result.read_text())
    return dict(run_summary(doc), machine=doc["machine"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path, default=ROOT / "bench")
    args = parser.parse_args(argv)

    parent = git("rev-parse", "--short", args.parent)
    change = git("rev-parse", "--short", "HEAD")
    if git("status", "--porcelain", "--", "src", "perfbench"):
        change += "-dirty"
    tree = WORK / f"parent-{parent}"
    if not (tree / "perfbench" / "run.py").is_file():
        WORK.mkdir(exist_ok=True)
        git("worktree", "prune")
        git("worktree", "add", "--detach", str(tree), parent)
    pairs = []
    try:
        for k in range(args.pairs):
            seed = args.seeds[k % len(args.seeds)]
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            capacity = probe_capacity()
            steal0, total0 = read_cpu()
            pair = {"seed": seed, "order": list(order), "capacity": capacity}
            for side in order:
                pair[side] = run_side(tree if side == "parent" else ROOT, args.workload, seed,
                                      args.seconds)
            steal1, total1 = read_cpu()
            pair["steal"] = (steal1 - steal0) / (total1 - total0) if total1 > total0 else None
            pairs.append(pair)
            print(f"pair {k}: seed {seed} " + "  ".join(
                f"{s} {pair[s]['values'][CLAIMED]:.6g}" if pair[s]["ok"] else f"{s} failed"
                for s in ("parent", "change"))
                + f"  capacity {capacity['ratio']:.2f}  steal {pair['steal']}", flush=True)
    finally:
        git("worktree", "remove", "--force", str(tree))
    sides, protocol = summarize(pairs)
    machine = None
    for p in pairs:
        for s in ("parent", "change"):
            machine = p[s].pop("machine", None) or machine
    doc = {
        "workload": args.workload, "parent": parent, "change": change, "seeds": args.seeds,
        "seconds": args.seconds, "machine": machine, "notes": NOTES,
        "steal_range": span(p["steal"] for p in pairs),
        "capacity_ratio_range": span(p["capacity"]["ratio"] for p in pairs),
        "sides": sides, "protocol": protocol, "pairs": pairs,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.workload}_{change}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{protocol['verdict']}: {protocol['wins']} of {protocol['pairs']} wins, median gap "
          f"{protocol['median_gap']} against parent IQR {protocol['parent_iqr']}; wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
